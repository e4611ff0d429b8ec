//! Allocation budgets of the two message paths: a Verified-Averaging round
//! state is allocated once, not once per frame, and a batch of them once per
//! broadcast, and an EIG round message once per round, not once per item and
//! destination. One thread
//! drives an in-process mesh, so the schedule and the count repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
use rbvc_core::{DecisionRule, SyncBvc};
use rbvc_linalg::{Norm, Tol, VecD};
use rbvc_transport::service::{ConsensusService, InstanceProto};
use rbvc_transport::transport::in_proc_mesh;
use rbvc_transport::Lockstep;

/// Allocations per decided instance over all four nodes (a batch of the
/// sixteen instances' states per node per round: 27 frames per decision):
/// ~10 % above the 1 055 this schedule makes — 2 010 with one Bracha
/// broadcast per state (864 frames per decision), 2 396 while a witness
/// copied the vectors it named (decoded per frame, cloned per verified
/// state), 2 422 before the reused outbox, 4 004 (3 930 when this budget was
/// first set) with hashed broadcast tables, a voter list per tallied value,
/// an encode per frame and a δ* solve per round-1 state; 19 383 with a state
/// copy per frame.
const BUDGET: u64 = 1_160;
/// The same for `SyncBvc` at (n, f, d) = (7, 2, 3) over all seven nodes (147
/// frames carrying 1 813 relay items), under a decision rule that allocates
/// next to nothing so that the message path is what is counted: ~10 % above
/// the 2 265 this schedule makes (21 265 with a label and a value allocated
/// per item, a copy of the round message per destination and a map insert
/// per label).
const BVC_BUDGET: u64 = 2_500;
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

/// Allocations per decided instance when one thread drives `n` services, each
/// holding `INSTANCES` instances from `proto(id, input)`, through `polls`
/// sweeps of the mesh.
fn allocations_per_decision(
    n: usize,
    polls: usize,
    proto: impl Fn(usize, VecD) -> InstanceProto,
) -> u64 {
    let mut mesh: Vec<_> = in_proc_mesh(n).into_iter().map(ConsensusService::new).collect();
    for (id, svc) in mesh.iter_mut().enumerate() {
        for instance in 0..INSTANCES {
            let x = (id as u64 * 31 + instance * 7) as f64;
            let input = VecD::from_slice(&[x % 5.0, x % 3.0 - 1.0, x % 7.0 - 3.0]);
            svc.add_instance(instance, proto(id, input)).expect("register");
        }
    }
    let before = ALLOCS.with(Cell::get);
    mesh.iter_mut().for_each(|svc| svc.start().expect("start"));
    for _ in 0..polls {
        mesh.iter_mut().for_each(|svc| drop(svc.poll(Duration::ZERO)));
    }
    let per_decision = (ALLOCS.with(Cell::get) - before) / INSTANCES;
    assert!(mesh.iter().all(|svc| svc.all_decided() && svc.errors().is_empty()));
    per_decision
}

#[test]
fn va_mesh_allocates_per_broadcast_not_per_frame() {
    let per_decision = allocations_per_decision(4, 10_000, |id, input| {
        let mode = DeltaMode::MinDelta(Norm::L2);
        InstanceProto::Va(VerifiedAveraging::new(id, 4, 1, input, mode, 6, Tol::default()))
    });
    assert!(per_decision <= BUDGET, "{per_decision} allocations per decision, budget {BUDGET}");
}

#[test]
fn bvc_mesh_allocates_per_round_not_per_item() {
    let (n, f, d) = (7, 2, 3);
    let per_decision = allocations_per_decision(n, 100, |id, input| {
        let rule = DecisionRule::CoordinateTrimmedMidpoint;
        let bvc = SyncBvc::new(id, n, f, d, input, rule, Tol::default());
        InstanceProto::Bvc(Lockstep::new(bvc, n, f + 1).with_timeout_ticks(u32::MAX))
    });
    assert!(per_decision <= BVC_BUDGET, "{per_decision} allocations per decision, budget {BVC_BUDGET}");
}
