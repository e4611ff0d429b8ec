//! The WAL image of a fixed run, pinned: four durable nodes on one thread,
//! each with two VA instances at f = 1, one BVC instance and one client
//! request. `Sent` records carry each outbound frame, so the digests pin
//! every byte on the wire and the record order of every poll as well. Every
//! node's log holds VA batch frames, so each digest moves with the VA wire
//! format.

use std::time::Duration;

use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
use rbvc_core::{DecisionRule, SyncBvc};
use rbvc_linalg::{Norm, Tol, VecD};
use rbvc_store::Wal;
use rbvc_transport::service::{ClientAdmission, ClientConfig, ConsensusService, InstanceProto};
use rbvc_transport::{in_proc_mesh, sha256, Lockstep};

#[test]
fn the_wal_image_of_a_mixed_durable_run_is_pinned() {
    let n = 4;
    let dir = std::env::temp_dir().join(format!("rbvc-wal-image-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    let path = |p: usize| dir.join(format!("node{p}.wal"));
    let mut mesh: Vec<_> = in_proc_mesh(n).into_iter().map(ConsensusService::new).collect();
    for (p, svc) in mesh.iter_mut().enumerate() {
        svc.attach_wal(Wal::open(path(p)).expect("open").0);
        for inst in [1, 2] {
            let input = VecD::from_slice(&[p as f64 * inst as f64, 1.0 - p as f64]);
            let va = VerifiedAveraging::new(p, n, 1, input, DeltaMode::MinDelta(Norm::L2), 6, Tol::default());
            svc.add_instance_durable(inst, InstanceProto::Va(va), vec![inst as u8]).unwrap();
        }
        let input = VecD::from_slice(&[p as f64, 2.0 * p as f64 - 3.0]);
        let bvc = SyncBvc::new(p, n, 1, 2, input, DecisionRule::MinDeltaPoint(Norm::L2), Tol::default());
        svc.add_instance_durable(3, InstanceProto::Bvc(Lockstep::new(bvc, n, 2)), vec![3]).unwrap();
        svc.enable_client(ClientConfig { f: 1, ..ClientConfig::default() });
        svc.start().unwrap();
        let value = VecD::from_slice(&[0.5 + p as f64, -1.0]);
        assert_eq!(svc.client_submit(p as u64, 1, value), ClientAdmission::Admitted);
    }
    let mut sweeps = 0;
    while mesh.iter().any(|s| !s.all_decided() || s.instance_count() < 3 + n) {
        mesh.iter_mut().for_each(|svc| drop(svc.poll(Duration::ZERO)));
        sweeps += 1;
        assert!(sweeps < 10_000, "mesh failed to converge");
    }
    assert!(mesh.iter().all(|s| s.errors().is_empty()));
    drop(mesh);
    let digests: Vec<String> = (0..n)
        .map(|p| sha256(&std::fs::read(path(p)).unwrap()).iter().map(|b| format!("{b:02x}")).collect())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(sweeps, 20);
    assert_eq!(
        digests,
        [
            "c1414a6b8a336399f05d0567294b77114702a0f8fd6213935aec3748e74362ca",
            "0f7782c8ed8660b55160edc007ed132ed211808e621643e5baf32038ae95e88c",
            "831d601bc4f81f4ebedc63f84d0162caef319637e4af4ee37880c32f6dd2ffce",
            "6883bba6de182d0c8d004d48c6b3d3adc3068268a46dd03256c7e525f527b1f2",
        ]
    );
}
