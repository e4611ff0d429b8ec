//! The WAL image of a fixed run, pinned: four durable nodes on one thread,
//! each with two VA instances at f = 1, one BVC instance and one client
//! request. `Sent` records carry each outbound frame with its destinations,
//! so the digests pin every byte on the wire and the record order of every
//! poll as well. Every node's log holds VA batch frames, so each digest
//! moves with the VA wire format.
//!
//! A second digest per node reads the log with every `Sent` record expanded
//! into one (destination, frame) item per destination, in ascending order,
//! and every other record as it is: the per-link sends the log stands for.
//! Those four are the digests of the logs written when a `Sent` record had
//! one destination, so they pin that folding a broadcast into one record
//! left every byte on the wire, and its order, as it was.

use std::time::Duration;

use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
use rbvc_core::{DecisionRule, SyncBvc};
use rbvc_linalg::{Norm, Tol, VecD};
use std::path::Path;

use rbvc_store::{decode_record, Wal, WalRecord};
use rbvc_transport::service::{ClientAdmission, ClientConfig, ConsensusService, InstanceProto};
use rbvc_transport::{in_proc_mesh, sha256, Lockstep};

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// The digest of the log at `path` with every `Sent` record expanded: each
/// item length-prefixed, a send as `S`, its destination and its frame.
fn expanded_digest(path: &Path) -> String {
    let (_, report) = Wal::open(path).expect("reopen");
    let mut stream = Vec::new();
    let mut item = |bytes: &[u8]| {
        stream.extend_from_slice(&u32::try_from(bytes.len()).unwrap().to_le_bytes());
        stream.extend_from_slice(bytes);
    };
    for payload in report.records.iter() {
        match decode_record(payload).expect("decodes") {
            WalRecord::Sent { dsts, bytes } => {
                dsts.iter().for_each(|dst| item(&[&[b'S'][..], &dst.to_le_bytes(), bytes].concat()));
            }
            _ => item(payload),
        }
    }
    hex(sha256(&stream))
}

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
    let digests: Vec<String> = (0..n).map(|p| hex(sha256(&std::fs::read(path(p)).unwrap()))).collect();
    let expanded: Vec<String> = (0..n).map(|p| expanded_digest(&path(p))).collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(sweeps, 20);
    assert_eq!(
        expanded,
        [
            "16771bccc3194e2d6f6d24cbbc1a20b58e517f5e673c2172fcfe1b8f90e7ef42",
            "cd593566e32c37efcb289ad759f14d713f24242ad7d0e9bc37547ec7bd910bc7",
            "443beac08588f08650082ec2bc620c4ebd0fa412fb545cc2f28eb7ba64e95d11",
            "b6259519693fc67e5992c6d9b7275159c84b234b41323fa4352c3729c8fda80c",
        ]
    );
    assert_eq!(
        digests,
        [
            "6804a56338fd6b4b912ad36bc990d1551acadde3ad2baa0f59e891e55c2b425c",
            "646ce17442342535d9db1fea63bf316dec29a49bdf03b6de73f94513a860598e",
            "79c8f1deb09b2202c64e38643d54a7b44ce95b1ff1abc61da2e11b2b86023143",
            "58a63a867f73748a40135b05586cfc01a0ef9be018f899c0128a3d6bac7cdda6",
        ]
    );
}
