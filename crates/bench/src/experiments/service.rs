//! E17 — consensus-service load generation: hundreds of concurrent
//! SyncBvc / Verified-Averaging instances multiplexed over one transport
//! mesh (`rbvc-transport`), with an online per-instance safety monitor.
//!
//! Each process of the mesh runs one [`ConsensusService`] on its own OS
//! thread; the coordinator thread ingests decision events over a channel,
//! feeds them to a [`ServiceMonitor`](rbvc_sim::monitor::ServiceMonitor)
//! *while the mesh is still running*, and times each instance from service
//! start to its last (n-th) decision. The same harness runs over
//! authenticated loopback TCP and the in-process transport, which is what
//! the cross-transport identity check exploits: both must decide
//! bit-identically on one seed.
//!
//! Where the load run's time went is read off the services' own phase
//! clocks (`phase_share` in `BENCH_service.json`: the share of the nodes'
//! summed wall time per [`Phase`](rbvc_transport::service::Phase)). Like
//! the rest of `/metrics` and `/status`, they are always on: the run has
//! no tracing mode.

use std::collections::BTreeMap;
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

use rbvc_linalg::VecD;
use rbvc_obs::{render_shares, Registry, StatusBoard};
use rbvc_transport::service::{ConsensusService, PhaseNanos};
use rbvc_transport::transport::{in_proc_mesh, Transport};
use serde_json::json;

use crate::campaign::{
    gate, mesh_seed, monitor, percentile, thread_per_node, Args, MeshProfile, Proto, Report,
    Scenario, AGREEMENT_EPS,
};
use crate::report::fnum;
use crate::workloads::rng;

/// The E17 scenario entry.
pub const SCENARIO: Scenario = Scenario {
    name: "service",
    id: "E17",
    title: "service load generator",
    flags: &["--instances N", "--window N", "--metrics ADDR"],
    metrics_probe: &["# TYPE", "service_decide_phase_us", "service_frame_queue_us"],
    status_probe: None,
    run,
};

/// Which transport carries the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Real sockets over authenticated loopback TCP.
    Tcp,
    /// The in-process channel transport.
    InProc,
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::Tcp => write!(f, "tcp"),
            TransportKind::InProc => write!(f, "in-proc"),
        }
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Mesh shape. `f` is the tolerance of the SyncBvc instances (every
    /// 3rd slot); the Verified-Averaging instances run at `f = 0`
    /// (wait-for-all), the regime whose decisions are delivery-order
    /// independent. Inputs are a pure function of `seed`.
    pub mesh: MeshProfile,
    /// Poll budget per node before the run is declared stuck.
    pub max_polls: usize,
    /// Closed-loop submission window: how many launched instances each node
    /// keeps in flight. All instances are registered upfront (so inbound
    /// frames always find their slot), but a node launches the next one only
    /// when one of its in-flight instances decides locally. This is what
    /// gives per-instance submit→decide latencies their spread — launching
    /// everything at once makes every latency equal the wall time.
    pub window: usize,
}

impl ServiceConfig {
    /// The full load profile: a 7-node mesh (so the SyncBvc instances run
    /// at `f = 2`) under 210 concurrent instances.
    #[must_use]
    pub fn load(seed: u64) -> Self {
        let poll_timeout = Duration::from_millis(1);
        ServiceConfig {
            mesh: MeshProfile { n: 7, f: 2, d: 2, instances: 210, rounds: 3, seed, poll_timeout },
            max_polls: 600_000,
            window: 96,
        }
    }

    /// A CI-sized profile: 4 nodes, `f = 1`, few instances.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        let poll_timeout = Duration::from_millis(1);
        ServiceConfig {
            mesh: MeshProfile { n: 4, f: 1, d: 2, instances: 12, rounds: 2, seed, poll_timeout },
            max_polls: 200_000,
            window: 4,
        }
    }

    /// Number of SyncBvc instances in the mix (every 3rd slot).
    #[must_use]
    pub fn bvc_instances(&self) -> usize {
        self.mesh.instances.div_ceil(3)
    }
}

/// Slot `k`'s protocol: every 3rd slot is a SyncBvc under the lockstep
/// synchronizer, the rest are Verified Averaging at `f = 0`.
fn slot_proto(k: usize) -> Proto {
    if k.is_multiple_of(3) {
        Proto::Bvc { timeout_ticks: u32::MAX }
    } else {
        Proto::Va { f: 0 }
    }
}

/// One node's contribution to the outcome, returned from its thread.
struct NodeReport {
    decisions: BTreeMap<u64, VecD>,
    bytes_sent: u64,
    bytes_received: u64,
    errors: u64,
    phases: PhaseNanos,
}

/// Aggregated result of one mesh run.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// Transport that carried the run.
    pub transport: TransportKind,
    /// Mesh size.
    pub n: usize,
    /// Instances registered per node.
    pub instances: usize,
    /// SyncBvc share of the mix.
    pub bvc_instances: usize,
    /// Instances decided by **all** `n` nodes.
    pub decided: usize,
    /// Wall-clock duration from service start to the last decision.
    pub wall_secs: f64,
    /// Fully decided instances per second of wall clock.
    pub decided_per_sec: f64,
    /// Median per-node submit→decide latency (launch of the instance on
    /// that node to the poll that surfaced its decision), ms.
    pub p50_ms: f64,
    /// 99th-percentile per-node submit→decide latency, ms.
    pub p99_ms: f64,
    /// Worst per-node submit→decide latency, ms.
    pub max_ms: f64,
    /// Bytes put on the wire, summed over all endpoints.
    pub bytes_sent: u64,
    /// Bytes received off the wire, summed over all endpoints.
    pub bytes_received: u64,
    /// Online safety-monitor violations (must be 0).
    pub monitor_violations: usize,
    /// Service + transport degradation events, summed over nodes
    /// (must be 0 on a clean loopback run).
    pub errors: u64,
    /// Per-node decided values, keyed by instance id — for identity checks.
    pub decisions: Vec<BTreeMap<u64, VecD>>,
    /// The nodes' phase clocks, summed: where the mesh's wall time went.
    pub phases: PhaseNanos,
}

/// A decision event crossing from a node thread to the coordinator.
struct Event {
    instance: u64,
    process: usize,
    value: Vec<f64>,
    /// Per-node submit→decide latency, measured by the service itself.
    latency: Duration,
    /// Arrival time relative to mesh start (wall-clock accounting).
    at: Duration,
}

/// Run one full mesh: one service thread per endpoint, decisions monitored
/// online on the calling thread, then aggregate.
fn run_mesh<T: Transport>(
    cfg: &ServiceConfig,
    transport: TransportKind,
    endpoints: Vec<T>,
) -> ServiceOutcome {
    let mesh = &cfg.mesh;
    let inputs = mesh.inputs(&mut rng(mesh.seed));
    let (tx, rx) = mpsc::channel::<Event>();
    // Endpoints stay open until the whole mesh is done: a node that decides
    // early and drops its socket would reset links its slower peers are
    // still draining (spurious teardown errors, possibly lost frames).
    let done = Barrier::new(mesh.n);
    let start = Instant::now();
    let mut monitor = monitor(mesh.n, AGREEMENT_EPS, Some(inputs.clone()));

    let node = |id: usize, (ep, tx): (T, mpsc::Sender<Event>)| {
        let mut svc = ConsensusService::new(ep);
        svc.enable_auth();
        mesh.register(&mut svc, id, &inputs, slot_proto);
        // Closed-loop submission: keep `window` instances in flight,
        // launching the next one whenever one decides locally.
        svc.start_deferred();
        let window = cfg.window.clamp(1, mesh.instances.max(1)).min(mesh.instances);
        let mut next = 0usize;
        while next < window {
            next += 1;
            svc.launch(next as u64).expect("launch");
        }
        svc.flush().expect("flush initial window");
        for _ in 0..cfg.max_polls {
            if svc.all_decided() {
                break;
            }
            for ev in svc.poll(mesh.poll_timeout) {
                if next < mesh.instances {
                    next += 1;
                    svc.launch(next as u64).expect("launch");
                }
                let _ = tx.send(Event {
                    instance: ev.instance,
                    process: ev.process,
                    value: ev.value.as_slice().to_vec(),
                    latency: ev.latency,
                    at: start.elapsed(),
                });
            }
        }
        // Snapshot before the barrier: peers closing their sockets
        // afterwards must not count against this node.
        let report = NodeReport {
            decisions: mesh.decisions(&svc),
            bytes_sent: svc.transport().bytes_sent(),
            bytes_received: svc.transport().bytes_received(),
            errors: svc.errors().total() + svc.transport().errors().total(),
            phases: svc.phase_nanos(),
        };
        done.wait();
        report
    };

    // (instance → nodes decided so far, latest arrival); an instance counts
    // as fully decided once all n nodes reported it. Latencies are the
    // per-node submit→decide measurements carried by the events themselves.
    let mut progress: BTreeMap<u64, (usize, Duration)> = BTreeMap::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut last_decision_at = Duration::ZERO;
    let nodes: Vec<_> = endpoints.into_iter().map(|ep| (ep, tx.clone())).collect();
    drop(tx); // the channel closes when the last node thread is done with its clone
    let (reports, ()) = thread_per_node(nodes, node, || {
        while let Ok(ev) = rx.recv() {
            monitor.observe(ev.instance, ev.process, &ev.value);
            latencies.push(ev.latency.as_secs_f64() * 1e3);
            let entry = progress.entry(ev.instance).or_insert((0, Duration::ZERO));
            entry.0 += 1;
            entry.1 = entry.1.max(ev.at);
            if entry.0 == mesh.n {
                last_decision_at = last_decision_at.max(entry.1);
            }
        }
    });

    let decided = progress.values().filter(|(c, _)| *c == mesh.n).count();
    let wall_secs = if decided > 0 {
        last_decision_at.as_secs_f64()
    } else {
        start.elapsed().as_secs_f64()
    };
    latencies.sort_by(f64::total_cmp);
    let mut phases = PhaseNanos::default();
    reports.iter().for_each(|r| phases.add(&r.phases));
    ServiceOutcome {
        transport,
        n: mesh.n,
        instances: mesh.instances,
        bvc_instances: cfg.bvc_instances(),
        decided,
        wall_secs,
        decided_per_sec: if wall_secs > 0.0 { decided as f64 / wall_secs } else { 0.0 },
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        max_ms: latencies.last().copied().unwrap_or(f64::NAN),
        bytes_sent: reports.iter().map(|r| r.bytes_sent).sum(),
        bytes_received: reports.iter().map(|r| r.bytes_received).sum(),
        monitor_violations: monitor.violation_count(),
        errors: reports.iter().map(|r| r.errors).sum(),
        decisions: reports.into_iter().map(|r| r.decisions).collect(),
        phases,
    }
}

/// Run the load generator over the chosen transport.
///
/// # Panics
/// On transport construction failure (e.g. loopback sockets unavailable) or
/// a node thread panicking.
#[must_use]
pub fn run_service(cfg: &ServiceConfig, kind: TransportKind) -> ServiceOutcome {
    match kind {
        TransportKind::Tcp => {
            let (eps, _) = cfg.mesh.tcp_mesh(&mesh_seed(cfg.mesh.seed));
            run_mesh(cfg, kind, eps)
        }
        TransportKind::InProc => run_mesh(cfg, kind, in_proc_mesh(cfg.mesh.n)),
    }
}

/// Cross-transport identity check: the same seed must decide bit-identically
/// over TCP and in-process. Returns the verdict plus the two outcomes.
#[must_use]
pub fn cross_transport_identity(cfg: &ServiceConfig) -> (bool, [ServiceOutcome; 2]) {
    let tcp = run_service(cfg, TransportKind::Tcp);
    let inproc = run_service(cfg, TransportKind::InProc);
    let identical = tcp.decisions == inproc.decisions
        && tcp.decided == cfg.mesh.instances
        && inproc.decided == cfg.mesh.instances;
    (identical, [tcp, inproc])
}

fn run(args: &Args, _status: &StatusBoard) -> Report {
    let seed = args.seed;
    let mut cfg = if args.smoke { ServiceConfig::smoke(seed) } else { ServiceConfig::load(seed) };
    cfg.mesh.instances = args.instances.unwrap_or(cfg.mesh.instances);
    cfg.window = args.window.unwrap_or(cfg.window);
    println!(
        "{}-node authenticated loopback TCP mesh, {} concurrent instances (every 3rd \
         SyncBvc at f = {}, rest Verified Averaging at f = 0), online per-instance safety \
         monitor (ε-agreement + box validity)",
        cfg.mesh.n, cfg.mesh.instances, cfg.mesh.f
    );

    // Identity gate: the transport must not influence decisions. Runs at a
    // small scale so the check stays cheap even in the full profile.
    let mut id_cfg = ServiceConfig::smoke(seed ^ 0x5eed);
    id_cfg.mesh.instances = 6;
    let (identical, references) = cross_transport_identity(&id_cfg);
    println!(
        "identity check (n = {}, {} instances): tcp {} in-process",
        id_cfg.mesh.n,
        id_cfg.mesh.instances,
        if identical { "==" } else { "!=" }
    );

    // The load profile itself, over real sockets.
    let out = run_service(&cfg, TransportKind::Tcp);
    report(&cfg, &references, &out, identical)
}

fn row(out: &ServiceOutcome) -> Vec<String> {
    vec![
        out.transport.to_string(),
        out.n.to_string(),
        format!(
            "{}/{} ({} bvc + {} va)",
            out.decided,
            out.instances,
            out.bvc_instances,
            out.instances - out.bvc_instances
        ),
        fnum(out.decided_per_sec),
        fnum(out.p50_ms),
        fnum(out.p99_ms),
        out.bytes_sent.to_string(),
        out.monitor_violations.to_string(),
        out.errors.to_string(),
    ]
}

/// Table, payload and gates of one load run (`references` are the
/// identity-check rows shown above it).
fn report(
    cfg: &ServiceConfig,
    references: &[ServiceOutcome],
    out: &ServiceOutcome,
    identical: bool,
) -> Report {
    // The sent/received byte counters rarely agree exactly: each node
    // snapshots its own counters *before* the end-of-run barrier, so
    // frames a peer has written but this node has not yet read off the
    // socket (plus batches still in kernel buffers) are counted as sent
    // but not yet as received. That gap is traffic in flight at shutdown,
    // not loss.
    let in_flight = out.bytes_sent.saturating_sub(out.bytes_received);
    let cells = out.phases.named();
    let wall_ns = out.phases.total().max(1) as f64;
    // Process-wide, so the identity check's few polls are in it too.
    let queue = Registry::global().histogram("service.frame.queue_us").snapshot();
    let gates = vec![
        gate(identical, "TCP and in-process decisions diverged on one seed"),
        gate(
            out.decided == out.instances,
            format!(
                "only {}/{} instances fully decided within the poll budget",
                out.decided, out.instances
            ),
        ),
        gate(
            out.errors == 0,
            format!("{} transport/service error(s) on a clean loopback mesh", out.errors),
        ),
    ];
    Report {
        headers: vec![
            "transport", "n", "decided", "decided/s", "p50 ms", "p99 ms", "bytes sent",
            "violations", "errors",
        ],
        rows: references.iter().chain([out]).map(row).collect(),
        notes: vec![
            format!(
                "bytes on wire: {} sent, {} received, {in_flight} in flight at the shutdown snapshot",
                out.bytes_sent, out.bytes_received
            ),
            format!(
                "time: {} (the {} nodes' own clocks, summed); a poll's oldest frame queued \
                 p50 {:.0} us, p99 {:.0} us before dispatch",
                render_shares(&cells),
                out.n,
                queue.percentile(50.0),
                queue.percentile(99.0)
            ),
        ],
        payload: json!({
            "n": out.n,
            "f_bvc": cfg.mesh.f,
            "dimension": cfg.mesh.d,
            "va_rounds": cfg.mesh.rounds,
            "window": cfg.window,
            "instances": out.instances,
            "bvc_instances": out.bvc_instances,
            "va_instances": out.instances - out.bvc_instances,
            "decided": out.decided,
            "wall_secs": out.wall_secs,
            "decided_per_sec": out.decided_per_sec,
            "latency_ms": json!({ "p50": out.p50_ms, "p99": out.p99_ms, "max": out.max_ms }),
            "bytes_on_wire": json!({
                "sent": out.bytes_sent,
                "received": out.bytes_received,
                "in_flight_at_shutdown": in_flight,
            }),
            "service_errors": out.errors,
            "cross_transport_identical": identical,
            "phase_share": serde_json::Value::Object(
                cells.iter().map(|&(name, ns)| (name.to_string(), json!(ns as f64 / wall_ns))).collect(),
            ),
        }),
        gates,
    }
    .with_monitor(out.monitor_violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke profile decides everything over the in-process transport
    /// with a clean monitor — the same path `exp service --smoke` takes —
    /// and reports the committed artefact's keys.
    #[test]
    fn smoke_profile_decides_cleanly_in_process() {
        let cfg = ServiceConfig::smoke(11);
        let out = run_service(&cfg, TransportKind::InProc);
        assert_eq!(out.decided, cfg.mesh.instances, "all instances fully decided");
        assert_eq!(out.monitor_violations, 0);
        assert_eq!(out.errors, 0);
        assert!(out.p50_ms <= out.p99_ms || out.instances < 2);
        for node in &out.decisions[1..] {
            assert_eq!(node, &out.decisions[0], "mesh-wide identical decisions");
        }
        let report = report(&cfg, &[], &out, true);
        let shares = report.payload.get("phase_share").and_then(|v| v.as_object()).expect("an object");
        let total: f64 = shares.iter().map(|(_, share)| share.as_f64().expect("a number")).sum();
        assert!((total - 1.0).abs() < 1e-9, "the phases partition the nodes' time: {shares:?}");
        assert!(report.gates.iter().all(|g| g.ok), "{:?}", report.gates);
        crate::campaign::assert_keys_match_committed(
            &SCENARIO,
            report.payload,
            include_str!("../../../../BENCH_service.json"),
        );
    }
}
