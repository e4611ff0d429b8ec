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
//! A node's frame to itself is in its log once, as its `Sent` record (the
//! node among its destinations); its delivery is an `Inbound` record from
//! the node that carries no bytes.

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
            "aef5afbddef83e506739dc0790faa46edc7e86d649f1fe81b1203de0d10b17c3",
            "e2dadeedc62d37fa2be8baad9c41667ae9c7c1af02ba0e090a870cf5521f5fc1",
            "a8899e39461302128f4e503a88b5255c70bd96c4c0f15021f6bf31abedd1315b",
            "c33239981123aa90f24cb1b8e14601262c06d74fefadc6638f9e04e914746b29",
        ]
    );
    assert_eq!(
        digests,
        [
            "cb9313f18fc283b5a6f90bed10f067a16a71e25935b6558bdc14d7d1e76e2358",
            "265aa1b7bf17b9ee939461a2b8cc9954335cf804364a436dc46e354f5306dd98",
            "62f19c4cd80889d9f37ca4cdadf1b96b6f481c9b3812b6e4df81bbe643ba3fb7",
            "d6d164607193678bda41b65d22a7b75957f2d1a3edac81a97cd031d21296bb6f",
        ]
    );
}
