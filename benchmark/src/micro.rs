//! Isolated micro-timings of public functions, on inputs captured from the
//! traced run where there are any. They run after the traced repetitions,
//! with kernel timing off, and feed the per-layer rows that a span around a
//! whole `poll` cannot separate.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use rbvc_core::problem::{Agreement, Validity};
use rbvc_core::runner::{run_async, run_sync, AsyncSpec, SchedulerSpec, SyncSpec};
use rbvc_core::verified_avg::DeltaMode;
use rbvc_core::DecisionRule;
use rbvc_linalg::{Norm, Tol, VecD};
use rbvc_sim::config::ProcessId;
use rbvc_store::Wal;
use rbvc_transport::{
    decode_frame, encode_frame, hmac_sha256, in_proc_mesh, tcp_mesh_loopback,
    tcp_mesh_loopback_authenticated, ConsensusService, Frame, Transport,
};

use crate::client::{ClientPlan, MESH_KEY};
use crate::gen;
use crate::mesh::{instance_id, Inputs, Kind, MeshPlan, Mix};
use crate::stats;

/// Codec cost on the captured frames.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Codec {
    /// `encode_frame`, ns per frame.
    pub encode_ns: f64,
    /// `decode_frame`, ns per frame.
    pub decode_ns: f64,
}

/// Passes over the captured frames per codec timing.
const CODEC_PASSES: usize = 5;

/// Time `decode_frame` and `encode_frame` over the captured `(sender,
/// bytes)` frames: the best of a few passes, per frame. Zero when nothing
/// was captured.
#[must_use]
pub fn codec(frames: &[(ProcessId, Vec<u8>)]) -> Codec {
    if frames.is_empty() {
        return Codec::default();
    }
    let decoded: Vec<Frame> = frames
        .iter()
        .filter_map(|(from, bytes)| decode_frame(bytes, *from).ok())
        .collect();
    let per_frame = |total: Duration, count: usize| total.as_nanos() as f64 / count as f64;
    let mut decode_ns = f64::INFINITY;
    let mut encode_ns = f64::INFINITY;
    for _ in 0..CODEC_PASSES {
        let t = Instant::now();
        for (from, bytes) in frames {
            let _ = black_box(decode_frame(black_box(bytes), *from));
        }
        decode_ns = decode_ns.min(per_frame(t.elapsed(), frames.len()));
        let t = Instant::now();
        for frame in &decoded {
            black_box(encode_frame(black_box(frame)));
        }
        encode_ns = encode_ns.min(per_frame(t.elapsed(), decoded.len().max(1)));
    }
    Codec {
        encode_ns,
        decode_ns,
    }
}

/// Decided instances the idle service holds.
const IDLE_INSTANCES: usize = 1000;
/// Idle polls timed.
const IDLE_POLLS: usize = 200;

/// `poll(ZERO)` on a quiescent service holding 1 000 decided instances, in
/// ns per poll per instance: what every poll pays for instances that will
/// never move again (they are not evicted).
#[must_use]
pub fn idle_poll_ns_per_instance() -> f64 {
    let plan = MeshPlan {
        n: 4,
        f: 1,
        d: 3,
        mix: Mix::AllVa,
        inputs: Inputs::PerSeed,
        va_rounds: 1,
        instances: IDLE_INSTANCES,
        window: IDLE_INSTANCES,
        durable: false,
        deadline: Duration::from_secs(30),
    };
    let mut services: Vec<ConsensusService<_>> = in_proc_mesh(plan.n)
        .into_iter()
        .map(ConsensusService::new)
        .collect();
    for (id, svc) in services.iter_mut().enumerate() {
        for k in 0..plan.instances {
            let input = gen::instance_inputs(gen::POOL_SEED, k, plan.n, plan.d).swap_remove(id);
            svc.add_instance(instance_id(k), plan.build(k, id, input))
                .expect("unique instance ids");
        }
        svc.start().expect("start");
    }
    let t0 = Instant::now();
    while services.iter().any(|svc| !svc.all_decided()) && t0.elapsed() < plan.deadline {
        for svc in &mut services {
            let _ = svc.poll(Duration::ZERO);
        }
    }
    // A few more sweeps so that nothing is left in flight.
    for _ in 0..3 {
        for svc in &mut services {
            let _ = svc.poll(Duration::ZERO);
        }
    }
    let per_poll: Vec<f64> = (0..IDLE_POLLS)
        .map(|_| {
            let t = Instant::now();
            black_box(services[0].poll(Duration::ZERO));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&per_poll) / IDLE_INSTANCES as f64
}

/// Instances timed per core micro-timing, at most.
const CORE_INSTANCES: usize = 16;
/// Time spent on one core micro-timing, at most.
const CORE_LIMIT: Duration = Duration::from_secs(2);

/// Processor time of one instance of `kind` run through
/// `rbvc_core::runner` — protocol state machines and geometry, no service,
/// no wire, no codec — µs, as the mean over a fixed sample of the plan's
/// inputs (those of seed 0, so that every run times the same instances: the
/// cost of one depends on its inputs). The runner also checks the
/// execution, with conditions chosen to cost next to nothing.
#[must_use]
pub fn core_instance_us(plan: &MeshPlan, kind: Kind) -> f64 {
    let slots = (0..plan.instances)
        .filter(|&k| plan.kind(k) == kind)
        .take(CORE_INSTANCES);
    let t0 = Instant::now();
    let mut times = Vec::new();
    for k in slots {
        if t0.elapsed() > CORE_LIMIT {
            break;
        }
        times.push(core_run_us(
            kind,
            plan.n,
            plan.f,
            plan.va_rounds,
            plan.slot_inputs(0, k),
        ));
    }
    times.iter().sum::<f64>() / times.len() as f64
}

/// The same for a client instance: every process holds the client's value.
#[must_use]
pub fn client_instance_us(plan: &ClientPlan, seed: u64) -> f64 {
    let times: Vec<f64> = (0..CORE_INSTANCES)
        .map(|i| {
            let inputs = vec![gen::client_value(seed, 0, i, plan.d); plan.n];
            core_run_us(Kind::Va, plan.n, plan.config.f, plan.config.rounds, inputs)
        })
        .collect();
    stats::median(&times)
}

fn core_run_us(kind: Kind, n: usize, f: usize, rounds: usize, inputs: Vec<VecD>) -> f64 {
    let d = inputs[0].dim();
    // The loosest conditions there are: the verdict is not what is timed.
    let agreement = Agreement::Epsilon(f64::INFINITY);
    let validity = Validity::KRelaxed(1);
    let t = Instant::now();
    match kind {
        Kind::Bvc => {
            let spec = SyncSpec {
                n,
                f,
                d,
                rule: DecisionRule::MinDeltaPoint(Norm::L2),
                inputs,
                adversaries: Vec::new(),
                agreement,
                validity,
            };
            black_box(run_sync(&spec, Tol::default()));
        }
        Kind::Va => {
            let spec = AsyncSpec {
                n,
                f,
                mode: DeltaMode::MinDelta(Norm::L2),
                rounds,
                inputs,
                adversaries: Vec::new(),
                scheduler: SchedulerSpec::Fifo,
                max_steps: 10_000_000,
                agreement,
                validity,
            };
            black_box(run_async(&spec, Tol::default()));
        }
    }
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Round trips of the ping-pong.
const PING_PONGS: usize = 2000;

/// One hop on a two-endpoint mesh, µs: half the median round trip of a
/// 100-byte frame sent, flushed, received and sent back.
///
/// # Panics
/// If the mesh does not have two endpoints.
#[must_use]
pub fn one_hop_us<T: Transport>(mut mesh: Vec<T>) -> f64 {
    let b = &mut mesh.pop().expect("two endpoints");
    let a = &mut mesh.pop().expect("two endpoints");
    let payload = vec![0x5a_u8; 100];
    let wait = Duration::from_secs(1);
    let hop = |src: &mut T, dst: &mut T, to: ProcessId| {
        let _ = src.send(to, payload.clone());
        let _ = src.flush();
        while dst.recv_timeout(wait).is_empty() {}
    };
    let round_trips: Vec<f64> = (0..PING_PONGS)
        .map(|_| {
            let t = Instant::now();
            hop(a, b, 1);
            hop(b, a, 0);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&round_trips) / 2.0
}

/// Mesh constructions per handshake timing.
const MESH_BUILDS: usize = 7;

/// What the keyed handshake adds to bringing one directed link up, µs:
/// median authenticated minus median plain construction of an `n`-mesh,
/// over its `n(n-1)` links. Zero if a mesh cannot be built.
#[must_use]
pub fn auth_handshake_us(n: usize) -> f64 {
    let build_us = |auth: bool| -> Option<f64> {
        let times: Option<Vec<f64>> = (0..MESH_BUILDS)
            .map(|_| {
                let t = Instant::now();
                let mesh = if auth {
                    tcp_mesh_loopback_authenticated(n, &MESH_KEY)
                } else {
                    tcp_mesh_loopback(n)
                };
                let us = t.elapsed().as_nanos() as f64 / 1e3;
                mesh.ok().map(|_| us)
            })
            .collect();
        times.map(|t| stats::median(&t))
    };
    match (build_us(true), build_us(false)) {
        (Some(auth), Some(plain)) => (auth - plain) / (n * (n - 1)) as f64,
        _ => 0.0,
    }
}

/// HMAC-SHA-256 throughput over 64 KiB messages, MB/s (best of a few).
#[must_use]
pub fn hmac_mb_per_s() -> f64 {
    let key = [7u8; 32];
    let message = vec![0xa5_u8; 64 << 10];
    (0..16)
        .map(|_| {
            let t = Instant::now();
            black_box(hmac_sha256(black_box(&key), black_box(&message)));
            message.len() as f64 / 1e6 / t.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

/// Records appended per WAL timing.
const WAL_APPENDS: usize = 2000;

/// `Wal::append` of one record of `record_len` bytes without a sync, µs
/// (mean over a scratch log under `dir`). Zero if the log cannot be made.
#[must_use]
pub fn wal_append_us(dir: &Path, record_len: usize) -> f64 {
    let path = dir.join(format!("append-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let Ok((mut wal, _)) = Wal::open(&path) else {
        return 0.0;
    };
    let record = vec![0x42_u8; record_len.max(1)];
    let t = Instant::now();
    let appended = (0..WAL_APPENDS)
        .filter(|_| wal.append(black_box(&record)).is_ok())
        .count();
    let us = t.elapsed().as_nanos() as f64 / 1e3 / appended.max(1) as f64;
    drop(wal);
    let _ = std::fs::remove_file(&path);
    us
}
