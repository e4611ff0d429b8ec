//! `exp obs` — trace analysis for `rbvc-obs` JSONL captures, plus the CI
//! smoke check.
//!
//! * `exp obs TRACE.jsonl` — parse a trace written by `exp service --trace`
//!   (or any `JsonlRecorder` sink) and print the per-run report: event
//!   counts, receive-gate rejection table, decide latency percentiles,
//!   kernel timing breakdown, and the dumped metrics.
//! * `exp obs --smoke` — end-to-end self-check for CI: run a small traced
//!   in-process service mesh, inject Byzantine frames at a raw endpoint,
//!   then assert the trace is consistent with ground truth — it parses,
//!   decide events equal decided instances × nodes, service-gate rejection
//!   events match the service's own gate counters, and violation events
//!   match the safety monitor. Exits nonzero on any mismatch.

use std::time::Duration;

use rbvc_obs::{render_report, Obs, TraceSummary};
use rbvc_transport::service::GATE_NAMES;
use rbvc_transport::{encode_frame, in_proc_mesh, ConsensusService, Frame, Payload, Transport};

use super::service::{run_service, ServiceConfig, TraceFile, TransportKind};
use super::Experiment;
use crate::campaign::{gate, Args, Gate, Kind};

/// `exp obs`.
pub const OBS: Experiment = Experiment {
    name: "obs",
    ids: "—",
    artefact: "per-run report of a JSONL trace",
    positionals: &[("TRACE.jsonl", Kind::Path, None)],
    flags: &["--smoke"],
    suite: None,
    json: None,
    run,
};

fn run(args: &Args) -> Vec<Gate> {
    if args.smoke {
        return smoke();
    }
    let path = &args.pos[0];
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| {
            TraceSummary::parse(&text).map_err(|e| format!("malformed trace {path}: {e}"))
        });
    match parsed {
        Ok(summary) => {
            print!("{}", render_report(&summary));
            Vec::new()
        }
        Err(e) => vec![gate(false, e)],
    }
}

/// Count of trace gate-rejection events belonging to the *service's* four
/// receive gates (protocol layers emit their own `gate=` classes — verify,
/// bounds, payload, batch_bounds, stale — which have no service counter).
fn service_gate_events(s: &TraceSummary) -> u64 {
    GATE_NAMES
        .iter()
        .map(|g| s.gate_rejections.get(*g).copied().unwrap_or(0))
        .sum()
}

/// Exercise the service receive gates through a raw endpoint: the service
/// under test sits at process 1 with one VA instance; process 0 injects one
/// undecodable blob, one spoofed frame, one unknown-instance frame, and one
/// kind-mismatched frame. Returns the service's own per-gate counters.
fn inject_byzantine_frames(obs: Obs) -> [u64; 4] {
    use rbvc_core::verified_avg::{DeltaMode, RoundState, VerifiedAveraging};
    use rbvc_linalg::{Norm, Tol, VecD};

    let n = 2;
    let mut mesh = in_proc_mesh(n);
    let ep1 = mesh.pop().unwrap();
    let mut raw = mesh.pop().unwrap();
    let mut svc = ConsensusService::new(ep1);
    svc.set_obs(obs);
    svc.add_instance(
        5,
        rbvc_transport::InstanceProto::Va(VerifiedAveraging::new(
            1,
            n,
            0,
            VecD::from_slice(&[0.0]),
            DeltaMode::MinDelta(Norm::L2),
            2,
            Tol::default(),
        )),
    )
    .expect("register");
    svc.start().expect("start");

    // Gate "decode": bytes no decoder accepts.
    raw.send(1, vec![0xde, 0xad]).expect("send");
    // Gate "auth": header claims sender 1 on the link from 0.
    let spoof = Frame {
        instance: 5,
        sender: 1,
        round: 0,
        payload: Payload::Va((
            (0, 0),
            rbvc_sim::bracha::BrachaMsg::Init(std::sync::Arc::new(RoundState {
                value: VecD::from_slice(&[1.0]),
                witness: vec![],
            })),
        )),
    };
    raw.send(1, encode_frame(&spoof)).expect("send");
    // Gate "instance": well-formed frame for an unregistered instance.
    let unknown = Frame { instance: 99, sender: 0, ..spoof.clone() };
    raw.send(1, encode_frame(&unknown)).expect("send");
    // Gate "kind": EIG payload for a VA instance.
    let mismatch = Frame { instance: 5, sender: 0, round: 0, payload: Payload::Eig(vec![]) };
    raw.send(1, encode_frame(&mismatch)).expect("send");
    raw.flush().expect("flush");

    for _ in 0..20 {
        let _ = svc.poll(Duration::from_millis(2));
        if svc.gate_rejections().iter().sum::<u64>() >= 4 {
            break;
        }
    }
    svc.gate_rejections()
}

fn smoke() -> Vec<Gate> {
    let path = std::env::temp_dir().join(format!("rbvc_exp_obs_smoke_{}.jsonl", std::process::id()));
    let trace = TraceFile::create(&path).expect("create trace");

    // A clean traced mesh run plus a deliberately Byzantine gate exercise,
    // both into one trace.
    let cfg = ServiceConfig::smoke(2016);
    let (n, instances) = (cfg.mesh.n, cfg.mesh.instances);
    let out = run_service(&cfg, TransportKind::InProc, Some(trace.obs()));
    let gate_counters = inject_byzantine_frames(trace.obs());
    trace.finish();

    let text = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_file(&path);
    let summary = match TraceSummary::parse(&text) {
        Ok(s) => s,
        Err(e) => return vec![gate(false, format!("trace does not parse: {e}"))],
    };
    print!("{}", render_report(&summary));

    let mut gates = Vec::new();
    let mut check = |ok: bool, what: String| {
        if ok {
            println!("ok: {what}");
        }
        gates.push(gate(ok, what));
    };

    check(
        out.decided == instances && out.monitor_violations == 0 && out.errors == 0,
        format!(
            "mesh run clean: {}/{} decided, {} violations, {} errors",
            out.decided, instances, out.monitor_violations, out.errors
        ),
    );
    // Protocol layers emit their own decide events (e.g. Verified
    // Averaging's "after N rounds"); the service-level ones are exactly
    // those carrying a `latency_us=` measurement.
    let service_decides = summary
        .events
        .iter()
        .filter(|e| {
            e.kind == rbvc_obs::EventKind::Decide
                && e.detail
                    .as_deref()
                    .is_some_and(|d| rbvc_obs::detail_field(d, "latency_us").is_some())
        })
        .count();
    check(
        service_decides == instances * n,
        format!(
            "service decide events == decided instances x nodes ({} == {} x {})",
            service_decides, instances, n
        ),
    );
    let gate_events = service_gate_events(&summary);
    let gate_total: u64 = gate_counters.iter().sum();
    check(
        gate_events == gate_total && gate_counters == [1, 1, 1, 1],
        format!(
            "service-gate rejection events match the service counters \
             ({gate_events} events, counters {gate_counters:?})"
        ),
    );
    check(
        summary.violations == out.monitor_violations as u64,
        format!(
            "violation events match the safety monitor ({} == {})",
            summary.violations, out.monitor_violations
        ),
    );
    let p50 = summary.decide_latency_percentile_us(50.0);
    let p99 = summary.decide_latency_percentile_us(99.0);
    check(
        p50.is_finite() && p50 > 0.0 && p50 <= p99,
        format!("latency percentiles are sane (p50 {p50:.0} us <= p99 {p99:.0} us)"),
    );
    check(
        summary.kernels.iter().any(|k| k.calls > 0),
        "kernel timing recorded at least one hot-kernel call".to_string(),
    );
    check(summary.unknown_records == 0, "no unknown record types".to_string());

    if gates.iter().all(|g| g.ok) {
        println!("exp obs --smoke: all checks passed");
    }
    gates
}
