//! Allocation budgets of the two message paths: a Verified-Averaging round
//! state is copied into its instance's record, not allocated, and a batch of
//! them is allocated once per broadcast, and an EIG round message once per
//! round, not once per item and destination. One thread
//! drives an in-process mesh, so the schedule and the count repeat exactly.
//! The same count of bytes, less those freed, is what a decided instance
//! keeps: its decision, not its round states.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
use rbvc_core::{DecisionRule, SyncBvc};
use rbvc_linalg::{Norm, Tol, VecD};
use rbvc_transport::service::{ConsensusService, InstanceProto};
use rbvc_transport::transport::{in_proc_mesh, InProcEndpoint};
use rbvc_transport::Lockstep;

/// Allocations per decided instance over all four nodes (a batch of the
/// sixteen instances' states per node per round: 27 frames per decision):
/// ~10 % above the 429 this schedule makes — 434 while a node's frames to
/// itself went through its in-process channel, 775 while a decoded batch built
/// a round state (an `Arc`, its vector and its witness) per slot, an own
/// state was built the same way and verification built the vector it
/// compared; 1 057 while every batch frame
/// was decoded into new round states (late ones for delivered tags too) and
/// compared slot by slot, and a decided value was copied twice at the seal
/// (1 055 before a decided slot held its own copy of the decision in place
/// of the machine) — 2 010 with one Bracha
/// broadcast per state (864 frames per decision), 2 396 while a witness
/// copied the vectors it named (decoded per frame, cloned per verified
/// state), 2 422 before the reused outbox, 4 004 (3 930 when this budget was
/// first set) with hashed broadcast tables, a voter list per tallied value,
/// an encode per frame and a δ* solve per round-1 state; 19 383 with a state
/// copy per frame.
const BUDGET: u64 = 470;
/// The same for `SyncBvc` at (n, f, d) = (7, 2, 3) over all seven nodes (147
/// frames carrying 1 813 relay items), under a decision rule that allocates
/// next to nothing so that the message path is what is counted: ~10 % above
/// the 2 263 this schedule makes (2 266 while a node's frames to itself went
/// through its in-process channel, 2 271 while the seal copied a decided
/// value twice, 2 265 before a decided slot held its own copy of the
/// decision; 21 265 with a label and a value allocated
/// per item, a copy of the round message per destination and a map insert
/// per label).
const BVC_BUDGET: u64 = 2_490;
const INSTANCES: u64 = 16;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated less bytes freed on this thread.
    static HELD: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn hold(bytes: i64) {
    let _ = HELD.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call goes to `System` unchanged; the counts are thread-local
// `Cell`s without a destructor, so touching them allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        hold(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `n` services over one in-process mesh, each holding `INSTANCES`
/// instances from `proto(id, input)`.
fn mesh(n: usize, proto: impl Fn(usize, VecD) -> InstanceProto) -> Vec<ConsensusService<InProcEndpoint>> {
    let mut mesh: Vec<_> = in_proc_mesh(n).into_iter().map(ConsensusService::new).collect();
    for (id, svc) in mesh.iter_mut().enumerate() {
        for instance in 0..INSTANCES {
            let x = (id as u64 * 31 + instance * 7) as f64;
            let input = VecD::from_slice(&[x % 5.0, x % 3.0 - 1.0, x % 7.0 - 3.0]);
            svc.add_instance(instance, proto(id, input)).expect("register");
        }
    }
    mesh
}

/// Start `mesh` and sweep it `polls` times from one thread.
fn run(mesh: &mut [ConsensusService<InProcEndpoint>], polls: usize) {
    mesh.iter_mut().for_each(|svc| svc.start().expect("start"));
    for _ in 0..polls {
        mesh.iter_mut().for_each(|svc| drop(svc.poll(Duration::ZERO)));
    }
    assert!(mesh.iter().all(|svc| svc.all_decided() && svc.errors().is_empty()));
}

/// Allocations per decided instance when one thread drives `n` services, each
/// holding `INSTANCES` instances from `proto(id, input)`, through `polls`
/// sweeps of the mesh.
fn allocations_per_decision(n: usize, polls: usize, proto: impl Fn(usize, VecD) -> InstanceProto) -> u64 {
    let mut mesh = mesh(n, proto);
    let before = ALLOCS.with(Cell::get);
    run(&mut mesh, polls);
    (ALLOCS.with(Cell::get) - before) / INSTANCES
}

/// A Verified-Averaging instance of the 4-node mesh at f = 1.
fn va(rounds: usize) -> impl Fn(usize, VecD) -> InstanceProto {
    move |id, input| {
        let mode = DeltaMode::MinDelta(Norm::L2);
        InstanceProto::Va(VerifiedAveraging::new(id, 4, 1, input, mode, rounds, Tol::default()))
    }
}

#[test]
fn va_mesh_allocates_per_broadcast_not_per_frame() {
    let per_decision = allocations_per_decision(4, 10_000, va(6));
    assert!(per_decision <= BUDGET, "{per_decision} allocations per decision, budget {BUDGET}");
}

/// Heap bytes the 4-node VA mesh holds per instance once it has decided all
/// of them and gone quiet, the services still alive, at `rounds` rounds.
fn held_per_decision(rounds: usize) -> i64 {
    let before = HELD.with(Cell::get);
    let mut mesh = mesh(4, va(rounds));
    run(&mut mesh, 1_000);
    (HELD.with(Cell::get) - before) / INSTANCES as i64
}

/// A decided instance is its decision: what the mesh holds per decided
/// instance does not grow with the rounds it took, as it would if the
/// `n · R` state tables and their states stayed resident.
#[test]
fn a_decided_instance_holds_no_round_state() {
    // Process-wide registries allocate on first use: warm them up.
    held_per_decision(3);
    let (short, long) = (held_per_decision(3), held_per_decision(12));
    assert!(long - short <= 64, "{short} B held per decision at R = 3, {long} B at R = 12");
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
