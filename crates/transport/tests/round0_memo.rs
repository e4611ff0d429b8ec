//! The round-0 memo of Verified Averaging, counted where the solver counts
//! itself, on a 4-node service mesh driven by one thread. Its own test
//! binary, since the kernel counters are process-wide.

use std::time::Duration;

use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
use rbvc_linalg::{Norm, Tol, VecD};
use rbvc_obs::{kernel_snapshot, set_kernel_timing, Kernel};
use rbvc_transport::service::{ConsensusService, InstanceProto};
use rbvc_transport::transport::in_proc_mesh;

/// One n = 4, f = 1 instance: each process combines its own round-0 witness
/// and verifies the four round-1 states, all over that one witness — 4 δ*
/// solves in all, where a solve per combine made 20.
#[test]
fn one_delta_star_solve_per_process() {
    let (n, f) = (4, 1);
    let mut mesh: Vec<_> = in_proc_mesh(n).into_iter().map(ConsensusService::new).collect();
    for (id, svc) in mesh.iter_mut().enumerate() {
        let input = VecD::from_slice(&[id as f64, (id * id) as f64 / 3.0, 1.0 - id as f64]);
        let mode = DeltaMode::MinDelta(Norm::L2);
        let va = VerifiedAveraging::new(id, n, f, input, mode, 6, Tol::default());
        svc.add_instance(1, InstanceProto::Va(va)).expect("register");
    }
    let solves = || kernel_snapshot().iter().find(|s| s.kernel == Kernel::PsiOracle).map_or(0, |s| s.calls);
    set_kernel_timing(true);
    let before = solves();
    mesh.iter_mut().for_each(|svc| svc.start().expect("start"));
    for _ in 0..1_000 {
        mesh.iter_mut().for_each(|svc| drop(svc.poll(Duration::ZERO)));
    }
    let made = solves() - before;
    set_kernel_timing(false);
    assert!(mesh.iter().all(ConsensusService::all_decided));
    assert_eq!(made, 4);
}
