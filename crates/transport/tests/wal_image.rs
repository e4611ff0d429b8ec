//! The WAL image of a fixed run, pinned: four durable nodes on one thread,
//! each with two VA instances at f = 1, one BVC instance and one client
//! request. `Sent` records carry each outbound frame, so the digests pin
//! every byte on the wire and the record order of every poll as well.

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
            "3331141ff50500e9e168b0b498cbc2d378d001709e210bba73251df634ac700a",
            "2aa3c34e67bcf9ae284c72d43d5a15c5da7ba61937eaec8ffe80301207a76602",
            "c2cb6670c48d86a237b9def98f87c8f84b3c6a27005e1c110fcf053e69c3406d",
            "c4f59266ab6e67114b4b0c6bdd9558adc8512494a9b43ef06e62be7487256e51",
        ]
    );
}
