//! Allocation budget of the δ* solver: its Wolfe kernel runs on one
//! workspace per solve, so what a solve allocates is the master LPs and the
//! cuts it keeps, not a matrix per inner step of every projection.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbvc_geometry::minmax::delta_star;
use rbvc_geometry::nearest::{offset_to_subset_hull, Workspace};
use rbvc_linalg::{Norm, Tol, VecD};

/// Allocations per `delta_star` over the pool below: ~10 % above the 164 it
/// makes (1 908 with a Gram system allocated per inner step).
const BUDGET: u64 = 180;

thread_local!(static ALLOCS: Cell<u64> = const { Cell::new(0) });

struct Counting;

// SAFETY: every call goes to `System` unchanged; the count is a thread-local
// `Cell` without a destructor, so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Seven sets of seven points uniform in `[-5,5)³`, from one generator
/// seeded 2016: `bvc-relaxed`'s regime, (n, f, d) = (7, 2, 3).
fn pool() -> Vec<Vec<VecD>> {
    let mut rng = StdRng::seed_from_u64(2016);
    (0..7)
        .map(|_| (0..7).map(|_| VecD((0..3).map(|_| rng.gen_range(-5.0..5.0)).collect())).collect())
        .collect()
}

#[test]
fn delta_star_allocates_per_cut_not_per_projection() {
    let pool = pool();
    // The first solve registers the solver's metrics.
    let _ = delta_star(&pool[0], 2, Norm::L2, Tol::default());
    let total = allocations(|| {
        for pts in &pool {
            let _ = delta_star(pts, 2, Norm::L2, Tol::default());
        }
    });
    let per_solve = total / pool.len() as u64;
    assert!(per_solve <= BUDGET, "{per_solve} allocations per δ*, budget {BUDGET}");
}

#[test]
fn a_warmed_projection_allocates_nothing() {
    // One pass over the pool grows the workspace to its largest corral;
    // the same pass again must not allocate.
    let pool = pool();
    let mut ws = Workspace::default();
    let queries = [VecD::from_slice(&[0.3, -1.0, 2.0]), VecD::from_slice(&[4.0, 4.0, -4.0])];
    let subset = [0, 2, 3, 5, 6];
    let mut pass = || {
        for pts in &pool {
            for q in &queries {
                let _ = offset_to_subset_hull(pts, &subset, q, 1e-10, &mut ws);
            }
        }
    };
    pass();
    assert_eq!(allocations(pass), 0, "a warmed offset_to_subset_hull allocated");
}
