//! Allocation budget of the Verified-Averaging message path: a round state is
//! allocated once per broadcast, not once per frame. One thread drives a
//! 4-node in-process mesh, so the schedule and the count repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
use rbvc_linalg::{Norm, Tol, VecD};
use rbvc_transport::service::{ConsensusService, InstanceProto};
use rbvc_transport::transport::in_proc_mesh;

/// Allocations per decided instance over all four nodes (864 frames): ~10 %
/// above the 3 930 this schedule makes (19 383 with a state copy per frame).
const BUDGET: u64 = 4_300;
const INSTANCES: u64 = 16;

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

#[test]
fn va_mesh_allocates_per_broadcast_not_per_frame() {
    let mut mesh: Vec<_> = in_proc_mesh(4).into_iter().map(ConsensusService::new).collect();
    for (id, svc) in mesh.iter_mut().enumerate() {
        for instance in 0..INSTANCES {
            let x = (id as u64 * 31 + instance * 7) as f64;
            let input = VecD::from_slice(&[x % 5.0, x % 3.0 - 1.0, x % 7.0 - 3.0]);
            let mode = DeltaMode::MinDelta(Norm::L2);
            let va = VerifiedAveraging::new(id, 4, 1, input, mode, 6, Tol::default());
            svc.add_instance(instance, InstanceProto::Va(va)).expect("register");
        }
    }
    let before = ALLOCS.with(Cell::get);
    mesh.iter_mut().for_each(|svc| svc.start().expect("start"));
    for _ in 0..10_000 {
        mesh.iter_mut().for_each(|svc| drop(svc.poll(Duration::ZERO)));
    }
    let per_decision = (ALLOCS.with(Cell::get) - before) / INSTANCES;
    assert!(mesh.iter().all(|svc| svc.all_decided() && svc.errors().is_empty()));
    assert!(per_decision <= BUDGET, "{per_decision} allocations per decision, budget {BUDGET}");
}
