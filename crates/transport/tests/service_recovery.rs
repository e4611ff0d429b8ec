//! Kill/restart recovery over real sockets (ISSUE 5 tentpole): a durable
//! consensus service killed mid-run replays its WAL, rejoins the TCP mesh on
//! the same address, and the mesh still converges to one agreed decision —
//! with zero replay divergences and no safety violations.

use std::net::TcpListener;
use std::thread;
use std::time::Duration;

use rbvc_core::{check_execution, Agreement, Validity};
use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
use rbvc_linalg::{Norm, Tol, VecD};
use rbvc_store::Wal;
use rbvc_transport::service::{ConsensusService, InstanceProto};
use rbvc_transport::tcp::TcpEndpoint;

const N: usize = 3;
const INSTANCE: u64 = 11;
/// The mesh seed every node derives its pairwise keys from.
const SEED: [u8; 32] = [0x11; 32];

fn va_instance(id: usize, input: &[f64]) -> InstanceProto {
    InstanceProto::Va(VerifiedAveraging::new(
        id,
        N,
        0,
        VecD::from_slice(input),
        DeltaMode::MinDelta(Norm::L2),
        8,
        Tol::default(),
    ))
}

fn va_spec(input: &[f64]) -> Vec<u8> {
    input.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn va_from_spec(id: usize, spec: &[u8]) -> InstanceProto {
    let input: Vec<f64> = spec
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    va_instance(id, &input)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rbvc-svcrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    dir
}

#[test]
fn killed_node_recovers_and_the_mesh_converges() {
    let dir = tmp_dir("kill");
    let inputs: [Vec<f64>; N] = [vec![0.0, 0.0], vec![6.0, 0.0], vec![0.0, 6.0]];

    // Stable addresses so the victim can rebind after its crash.
    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).expect("bind"))
        .collect();
    let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().expect("addr")).collect();
    let endpoints: Vec<TcpEndpoint> = {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(id, listener)| {
                let addrs = addrs.clone();
                thread::spawn(move || TcpEndpoint::connect_with_auth(id, listener, &addrs, &SEED))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic").expect("connect"))
            .collect()
    };

    // Every node is durable — the survivors need their outbound history to
    // replay it to the restarted peer.
    let mut services: Vec<ConsensusService<TcpEndpoint>> = Vec::new();
    for (i, ep) in endpoints.into_iter().enumerate() {
        let mut svc = ConsensusService::new(ep);
        let (wal, report) = Wal::open(dir.join(format!("node{i}.wal"))).expect("open wal");
        assert!(report.created);
        svc.attach_wal(wal);
        svc.add_instance_durable(INSTANCE, va_instance(i, &inputs[i]), va_spec(&inputs[i]))
            .unwrap();
        svc.start().unwrap();
        services.push(svc);
    }

    // A little mid-round progress, then kill node 0: its service (and with
    // it the endpoint, sockets, and listener) drops on the floor.
    for _ in 0..2 {
        for svc in &mut services {
            let _ = svc.poll(Duration::from_millis(2));
        }
    }
    let victim = services.remove(0);
    drop(victim);

    // Restart: replay the WAL into a fresh service on a fresh endpoint
    // bound to the same address.
    let (wal, report) = Wal::open(dir.join("node0.wal")).expect("reopen wal");
    assert!(!report.records.is_empty(), "the victim had logged state");
    let listener = TcpListener::bind(addrs[0]).expect("rebind same addr");
    let endpoint =
        TcpEndpoint::connect_with_auth(0, listener, &addrs, &SEED).expect("reconnect");
    let recovered = ConsensusService::recover(endpoint, wal, &report, |_, spec| {
        Ok(va_from_spec(0, spec))
    })
    .expect("recover");
    assert_eq!(recovered.replay_divergences(), 0, "faithful replay");
    services.insert(0, recovered);

    // The mesh must still converge.
    let mut spins = 0;
    while services.iter().any(|s| !s.all_decided()) {
        for svc in &mut services {
            let _ = svc.poll(Duration::from_millis(2));
        }
        spins += 1;
        assert!(spins < 5_000, "mesh failed to converge after recovery");
    }

    // One agreed decision inside the inputs' hull — restart included.
    let inputs: Vec<VecD> = inputs.iter().map(|x| VecD::from_slice(x)).collect();
    let outputs: Vec<Option<VecD>> = services.iter().map(|s| s.decision(INSTANCE)).collect();
    let verdict =
        check_execution(&inputs, &outputs, Agreement::Epsilon(1e-9), &Validity::Exact, Tol::default());
    assert!(verdict.ok(), "{verdict:?}");
    let d0 = services[0].decision(INSTANCE).expect("decided");
    for svc in &services[1..] {
        assert_eq!(svc.decision(INSTANCE), Some(d0.clone()));
    }
}
