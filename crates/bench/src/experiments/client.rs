//! E21 — open-loop client saturation: external sessions drive the client
//! front-end (`rbvc-client` → `ClientPort` → client table → consensus) on
//! a 7-node loopback TCP mesh with Poisson arrivals, sweeping the offered
//! rate until the service saturates.
//!
//! Each rate step stands up a fresh mesh (one [`ConsensusService`] +
//! [`ClientPort`] per node, driven by its own poll+pump thread) and `S`
//! worker sessions whose owners spread across the nodes. Workers are
//! **open-loop**: arrival times are drawn from an exponential
//! inter-arrival schedule fixed up front, and a submit fires at its
//! scheduled instant whether or not earlier requests have decided — the
//! load does not slow down when the service does, which is what makes the
//! saturation point visible. Each worker tracks its in-flight requests,
//! measures submit→reply latency at the client, and checks every reply
//! against the submitted value (`‖reply − value‖∞ ≤ 1e-6`: all honest
//! inputs of a client instance are the client's value, so the decision is
//! the value itself).
//!
//! The sweep reports offered vs decided rate and p50/p99 latency per step,
//! and detects the **saturation point**: the first offered rate where
//! goodput (decided/submitted) drops below 0.9 or p99 latency leaves the
//! knee (> 5× the first step's p99). An online agreement monitor
//! (ε-agreement across all `n` nodes per client instance, every decision
//! finite and of one dimension; the inputs are not known ahead) watches
//! every decision, and after the open-loop phase each worker replays its last
//! answered request — the reply must come back bit-identical from the
//! dedup cache without a new consensus instance.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rand::Rng;
use rbvc_client::{ClientHandle, RetryPolicy};
use rbvc_linalg::VecD;
use rbvc_transport::service::{ClientConfig, ClientStats, ConsensusService};
use rbvc_transport::ClientPort;
use serde_json::json;

use crate::campaign::{
    gate, mesh_seed, percentile, reply_error, thread_per_node, Args, MeshProfile, Proto, Report,
    Scenario, AGREEMENT_EPS,
};
use crate::report::fnum;
use crate::workloads::rng;

/// The E21 scenario entry.
pub const SCENARIO: Scenario = Scenario {
    name: "client",
    id: "E21",
    title: "open-loop client saturation",
    flags: &["--metrics ADDR"],
    // The client-table gauges are pre-registered when the services enable
    // the client plane, so they must be scrapeable while the workers run.
    metrics_probe: &["client_sessions", "client_dedup_hits"],
    run,
};

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct ClientExpConfig {
    /// Mesh shape (the 7-node TCP systems profile). `f` and `rounds`
    /// configure each client instance — the mesh is all-honest, so `f = 0`
    /// waits for all `n` states, the delivery-order-independent regime —
    /// and `d` is the dimension of submitted values.
    pub mesh: MeshProfile,
    /// Worker sessions; session `s` is owned by node `s % n`, so owners
    /// spread across the mesh.
    pub sessions: usize,
    /// Open-loop arrivals per session per rate step.
    pub requests_per_session: usize,
    /// Offered total rates to sweep, requests/second across all sessions.
    pub rates: Vec<f64>,
    /// Per-owner admission bound (further admissions queue, then shed).
    pub max_inflight: usize,
    /// Admission queue bound; beyond it requests are shed with `Busy`.
    pub queue_cap: usize,
    /// How long each step waits for in-flight replies after the last
    /// scheduled arrival (shed requests never resolve; they count against
    /// goodput instead of stalling the sweep).
    pub drain_timeout: Duration,
}

impl ClientExpConfig {
    /// The full sweep — rates from well under capacity to well over it, so
    /// the saturation point falls inside the sweep, against an admission
    /// envelope smaller than one session's workload (at burst rates a
    /// single owner sees more arrivals than it will hold, so the top end
    /// genuinely sheds) — or the CI profile: still a 7-node TCP mesh (the
    /// acceptance regime), but fewer sessions, fewer arrivals, and a
    /// two-point sweep.
    #[must_use]
    pub fn profile(smoke: bool, seed: u64) -> Self {
        let poll_timeout = Duration::from_millis(1);
        let mesh = MeshProfile { n: 7, f: 0, d: 2, instances: 0, rounds: 2, seed, poll_timeout };
        if smoke {
            ClientExpConfig {
                mesh,
                sessions: 3,
                requests_per_session: 6,
                rates: vec![40.0, 400.0],
                max_inflight: 4,
                queue_cap: 4,
                drain_timeout: Duration::from_secs(3),
            }
        } else {
            ClientExpConfig {
                mesh,
                sessions: 6,
                requests_per_session: 25,
                rates: vec![25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0],
                max_inflight: 8,
                queue_cap: 8,
                drain_timeout: Duration::from_secs(5),
            }
        }
    }
}

/// One rate step's aggregated measurements.
#[derive(Debug, Clone)]
pub struct RateStep {
    /// Target offered rate, requests/second across all sessions.
    pub offered_rate: f64,
    /// Rate actually offered (arrivals / open-loop wall time).
    pub achieved_offered: f64,
    /// Requests submitted (scheduled arrivals that got onto a socket).
    pub submitted: usize,
    /// Requests answered with a decision.
    pub decided: usize,
    /// Goodput ratio: decided / submitted.
    pub goodput: f64,
    /// Decided requests per second of step wall clock.
    pub decided_per_sec: f64,
    /// Median submit→reply latency at the client, ms.
    pub p50_ms: f64,
    /// 99th-percentile submit→reply latency, ms.
    pub p99_ms: f64,
    /// Worst submit→reply latency, ms.
    pub max_ms: f64,
    /// Step wall clock (open loop + drain), seconds.
    pub wall_secs: f64,
    /// Requests shed with `Busy` (summed service counters).
    pub shed: u64,
    /// Dedup cache hits (the post-run idempotence replays land here).
    pub dedup_hits: u64,
    /// Redirects answered by non-owning nodes.
    pub redirects: u64,
    /// Replies whose decision strayed from the submitted value (must be 0).
    pub reply_errors: u64,
    /// Idempotence replays whose cached reply was not bit-identical
    /// (must be 0).
    pub dedup_mismatches: u64,
    /// Consensus instances actually run, summed over owners — dedup means
    /// this never exceeds `decided` requests admitted.
    pub instances: usize,
}

/// Sweep outcome.
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// Per-rate measurements, in sweep order.
    pub steps: Vec<RateStep>,
    /// First offered rate where goodput < 0.9 or p99 latency exceeded 5×
    /// the first step's p99 — `None` if the sweep never saturated.
    pub saturation_rate: Option<f64>,
    /// Online safety-monitor violations across the sweep (must be 0).
    pub monitor_violations: usize,
    /// Campaign wall clock, seconds.
    pub wall_secs: f64,
}

/// What one worker session brings back from its thread.
struct WorkerReport {
    submitted: usize,
    decided: usize,
    latencies_ms: Vec<f64>,
    reply_errors: u64,
    dedup_mismatches: u64,
    /// Wall clock of the arrival schedule alone (start to last submit),
    /// *excluding* the drain — the denominator of the offered rate.
    open_loop_secs: f64,
}

/// Sleep of a worker between harvests while it waits for its next arrival
/// or, after the last one, for its outstanding replies.
const HARVEST_NAP: Duration = Duration::from_micros(100);

/// The deterministic value session `s` submits as its `k`-th request.
fn workload_value(cfg: &ClientExpConfig, session: u64, k: usize) -> VecD {
    let mut r = rng(
        cfg.mesh
            .seed
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(session << 20)
            .wrapping_add(k as u64),
    );
    VecD((0..cfg.mesh.d).map(|_| r.gen_range(-8.0..8.0)).collect())
}

/// One open-loop worker session: submit on the Poisson schedule, harvest
/// replies as they arrive, drain, then replay the last answered request
/// and demand the identical bytes.
fn run_worker(
    cfg: &ClientExpConfig,
    session: u64,
    rate_per_session: f64,
    addrs: Vec<SocketAddr>,
) -> WorkerReport {
    let mut handle = ClientHandle::new(session, addrs).with_policy(RetryPolicy {
        attempt_timeout: Duration::from_secs(2),
        max_attempts: 4,
        backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
    });
    let mut schedule_rng = rng(cfg.mesh.seed ^ (session.wrapping_mul(0x517c_c1b7_2722_0a95)));
    let mut exp_draw = move || {
        let u: f64 = schedule_rng.gen_range(0.0..1.0);
        Duration::from_secs_f64(-(1.0 - u).ln() / rate_per_session)
    };

    let start = Instant::now();
    let mut next_arrival = start + exp_draw();
    // reqno → (submit instant, value); resolved entries move into replies.
    let mut pending: BTreeMap<u64, (Instant, VecD)> = BTreeMap::new();
    let mut replies: BTreeMap<u64, VecD> = BTreeMap::new();
    let mut latencies_ms = Vec::new();
    let mut submitted = 0usize;
    let mut reply_errors = 0u64;

    let harvest = |handle: &mut ClientHandle,
                       pending: &mut BTreeMap<u64, (Instant, VecD)>,
                       replies: &mut BTreeMap<u64, VecD>,
                       latencies_ms: &mut Vec<f64>,
                       reply_errors: &mut u64| {
        for (reqno, decision) in handle.take_replies() {
            let Some((at, value)) = pending.remove(&reqno) else {
                continue; // duplicate reply for an already-resolved request
            };
            latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
            if reply_error(&decision, &value) > 1e-6 {
                *reply_errors += 1;
            }
            replies.insert(reqno, decision);
        }
    };

    for k in 0..cfg.requests_per_session {
        // Open loop: wait *to the schedule*, not to the service, harvesting
        // replies meanwhile so a reply's latency never includes the wait
        // for the next arrival. A late arrival fires immediately (the
        // schedule does not stretch).
        loop {
            harvest(&mut handle, &mut pending, &mut replies, &mut latencies_ms, &mut reply_errors);
            let now = Instant::now();
            if next_arrival <= now {
                break;
            }
            thread::sleep(HARVEST_NAP.min(next_arrival - now));
        }
        next_arrival += exp_draw();
        let value = workload_value(cfg, session, k);
        if let Ok(reqno) = handle.submit_nowait(&value) {
            pending.insert(reqno, (Instant::now(), value));
            submitted += 1;
        }
    }
    let open_loop_secs = start.elapsed().as_secs_f64();

    // Drain: in-flight requests may still decide; shed ones never will.
    let deadline = Instant::now() + cfg.drain_timeout;
    while !pending.is_empty() && Instant::now() < deadline {
        harvest(&mut handle, &mut pending, &mut replies, &mut latencies_ms, &mut reply_errors);
        thread::sleep(HARVEST_NAP);
    }

    // Idempotence replay: the highest answered reqno, retried blocking,
    // must return the cached decision bit for bit.
    let mut dedup_mismatches = 0u64;
    if let Some((&reqno, first)) = replies.iter().next_back() {
        let first = first.clone();
        match handle.submit_as(reqno, &workload_value(cfg, session, reqno as usize - 1)) {
            Ok(again) if again.as_slice() == first.as_slice() => {}
            _ => dedup_mismatches += 1,
        }
    }

    WorkerReport {
        submitted,
        decided: replies.len(),
        latencies_ms,
        reply_errors,
        dedup_mismatches,
        open_loop_secs,
    }
}

/// One rate step: fresh mesh, `sessions` open-loop workers, online
/// agreement monitoring of every client-instance decision.
fn run_step(cfg: &ClientExpConfig, rate: f64) -> (RateStep, usize) {
    let mesh = &cfg.mesh;
    // Links come up through the keyed handshake: E21's load numbers
    // include its cost.
    let (endpoints, _) = mesh.tcp_mesh(&mesh_seed(mesh.seed));
    let (ev_tx, ev_rx) = mpsc::channel::<(u64, usize, VecD)>();
    let nodes: Vec<_> = endpoints
        .into_iter()
        .map(|ep| {
            let port = ClientPort::bind("127.0.0.1:0".parse().expect("loopback addr"))
                .expect("bind client port");
            (ep, port, ev_tx.clone())
        })
        .collect();
    drop(ev_tx);
    let addrs: Vec<SocketAddr> = nodes.iter().map(|(_, port, _)| port.local_addr()).collect();

    let stop = AtomicBool::new(false);
    let step_start = Instant::now();
    let rate_per_session = rate / cfg.sessions as f64;
    let node = |id: usize, (ep, mut port, ev_tx): (_, ClientPort, mpsc::Sender<_>)| {
        let mut svc = ConsensusService::new(ep);
        svc.enable_auth();
        svc.enable_client(ClientConfig {
            f: mesh.f,
            rounds: mesh.rounds,
            max_inflight: cfg.max_inflight,
            queue_cap: cfg.queue_cap,
        });
        svc.start_deferred();
        while !stop.load(Ordering::Relaxed) {
            for ev in svc.poll(mesh.poll_timeout) {
                let _ = ev_tx.send((ev.instance, id, ev.value));
            }
            port.pump(&mut svc);
        }
        (svc.client_stats(), svc.instance_count())
    };
    let (served, reports) = thread_per_node(nodes, node, || {
        let reports: Vec<WorkerReport> = thread::scope(|scope| {
            let addrs = &addrs;
            let workers: Vec<_> = (0..cfg.sessions as u64)
                .map(|s| scope.spawn(move || run_worker(cfg, s, rate_per_session, addrs.clone())))
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker thread")).collect()
        });
        stop.store(true, Ordering::Relaxed);
        reports
    });
    // The arrival window is the slowest worker's schedule (workers run
    // concurrently); the drain is deliberately excluded.
    let open_loop_secs = reports.iter().map(|r| r.open_loop_secs).fold(0.0, f64::max);
    let mut stats = ClientStats::default();
    let mut instances = 0usize;
    for (s, count) in served {
        stats.shed += s.shed;
        stats.dedup_hits += s.dedup_hits;
        stats.redirects += s.redirects;
        instances += count;
    }
    let mut monitor = mesh.monitor(|_| Proto::Va { f: mesh.f }, AGREEMENT_EPS, None);
    while let Ok((instance, process, value)) = ev_rx.recv() {
        monitor.observe(instance, process, &value);
    }

    let submitted: usize = reports.iter().map(|r| r.submitted).sum();
    let decided: usize = reports.iter().map(|r| r.decided).sum();
    let mut latencies_ms: Vec<f64> =
        reports.iter().flat_map(|r| r.latencies_ms.iter().copied()).collect();
    latencies_ms.sort_by(f64::total_cmp);
    let wall_secs = step_start.elapsed().as_secs_f64();
    let step = RateStep {
        offered_rate: rate,
        achieved_offered: if open_loop_secs > 0.0 {
            submitted as f64 / open_loop_secs
        } else {
            0.0
        },
        submitted,
        decided,
        goodput: if submitted > 0 { decided as f64 / submitted as f64 } else { 0.0 },
        decided_per_sec: if wall_secs > 0.0 { decided as f64 / wall_secs } else { 0.0 },
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
        max_ms: latencies_ms.last().copied().unwrap_or(f64::NAN),
        wall_secs,
        shed: stats.shed,
        dedup_hits: stats.dedup_hits,
        redirects: stats.redirects,
        reply_errors: reports.iter().map(|r| r.reply_errors).sum(),
        dedup_mismatches: reports.iter().map(|r| r.dedup_mismatches).sum(),
        // Every node runs every client instance; per-owner count is the
        // mesh-wide total over n.
        instances: instances / mesh.n,
    };
    (step, monitor.alerts().len())
}

/// Run the sweep and publish per-step gauges
/// (`exp.client.decided_per_sec{rate=...}`, `exp.client.p99_us{rate=...}`)
/// plus the detected saturation rate into the global registry for the live
/// `/metrics` endpoint.
#[must_use]
pub fn run_sweep(cfg: &ClientExpConfig) -> ClientOutcome {
    let started = Instant::now();
    let mut steps = Vec::with_capacity(cfg.rates.len());
    let mut monitor_violations = 0usize;
    for &rate in &cfg.rates {
        let (step, violations) = run_step(cfg, rate);
        monitor_violations += violations;
        publish_step(&step);
        steps.push(step);
    }

    let knee = steps.first().map_or(f64::INFINITY, |s| s.p99_ms * 5.0);
    let saturation_rate = steps
        .iter()
        .find(|s| s.goodput < 0.9 || s.p99_ms > knee)
        .map(|s| s.offered_rate);
    if let Some(rate) = saturation_rate {
        rbvc_obs::Registry::global()
            .gauge("exp.client.saturation_offered_per_sec")
            .set(rate as i64);
    }
    ClientOutcome {
        steps,
        saturation_rate,
        monitor_violations,
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

fn publish_step(step: &RateStep) {
    let reg = rbvc_obs::Registry::global();
    let rate = format!("{:.0}", step.offered_rate);
    let labels = [("rate", rate.as_str())];
    reg.gauge_with("exp.client.decided_per_sec", &labels)
        .set(step.decided_per_sec as i64);
    if step.p99_ms.is_finite() {
        reg.gauge_with("exp.client.p99_us", &labels).set((step.p99_ms * 1000.0) as i64);
    }
    reg.gauge_with("exp.client.goodput_permille", &labels)
        .set((step.goodput * 1000.0) as i64);
}

fn run(args: &Args) -> Report {
    let cfg = ClientExpConfig::profile(args.smoke, args.seed);
    println!(
        "{}-node authenticated loopback TCP mesh, {} session(s) × {} Poisson arrivals per \
         rate step, rates {:?} req/s, admission {}+{} per owner",
        cfg.mesh.n,
        cfg.sessions,
        cfg.requests_per_session,
        cfg.rates,
        cfg.max_inflight,
        cfg.queue_cap
    );
    report(&cfg, &run_sweep(&cfg))
}

fn report(cfg: &ClientExpConfig, out: &ClientOutcome) -> Report {
    let saturation = match out.saturation_rate {
        Some(rate) => format!("saturation at {rate:.0} req/s offered (goodput < 0.9 or p99 knee)"),
        None => "no saturation inside the sweep".to_string(),
    };
    let mut gates = Vec::new();
    for s in &out.steps {
        let rate = s.offered_rate;
        gates.push(gate(s.decided > 0, format!("rate step {rate:.0} req/s decided nothing")));
        gates.push(gate(
            s.reply_errors == 0,
            format!(
                "{} repl(ies) at {rate:.0} req/s strayed from the submitted value",
                s.reply_errors
            ),
        ));
        gates.push(gate(
            s.dedup_mismatches == 0,
            format!(
                "{} idempotence replay(s) at {rate:.0} req/s were not bit-identical",
                s.dedup_mismatches
            ),
        ));
    }
    Report {
        headers: vec![
            "rate req/s", "offered", "submitted", "decided", "goodput", "decided/s", "p50 ms",
            "p99 ms", "shed", "dedup", "redirects", "instances",
        ],
        rows: out
            .steps
            .iter()
            .map(|s| {
                vec![
                    format!("{:.0}", s.offered_rate),
                    format!("{:.1}", s.achieved_offered),
                    s.submitted.to_string(),
                    s.decided.to_string(),
                    format!("{:.3}", s.goodput),
                    fnum(s.decided_per_sec),
                    fnum(s.p50_ms),
                    fnum(s.p99_ms),
                    s.shed.to_string(),
                    s.dedup_hits.to_string(),
                    s.redirects.to_string(),
                    s.instances.to_string(),
                ]
            })
            .collect(),
        notes: vec![format!(
            "{saturation}; {} monitor violation(s), {:.1}s wall",
            out.monitor_violations, out.wall_secs
        )],
        payload: json!({
            "n": cfg.mesh.n,
            "dimension": cfg.mesh.d,
            "client_f": cfg.mesh.f,
            "rounds": cfg.mesh.rounds,
            "sessions": cfg.sessions,
            "requests_per_session": cfg.requests_per_session,
            "admission": json!({ "max_inflight": cfg.max_inflight, "queue_cap": cfg.queue_cap }),
            "saturation_offered_per_sec": out.saturation_rate,
            "wall_secs": out.wall_secs,
            "steps": out.steps.iter().map(|s| json!({
                "offered_rate": s.offered_rate,
                "achieved_offered": s.achieved_offered,
                "submitted": s.submitted,
                "decided": s.decided,
                "goodput": s.goodput,
                "decided_per_sec": s.decided_per_sec,
                "latency_ms": json!({ "p50": s.p50_ms, "p99": s.p99_ms, "max": s.max_ms }),
                "shed": s.shed,
                "dedup_hits": s.dedup_hits,
                "redirects": s.redirects,
                "reply_errors": s.reply_errors,
                "dedup_mismatches": s.dedup_mismatches,
                "instances": s.instances,
                "wall_secs": s.wall_secs,
            })).collect::<Vec<_>>(),
        }),
        gates,
    }
    .with_monitor(out.monitor_violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single low-rate step end to end: everything offered decides,
    /// replies match the submitted values, the idempotence replays hit the
    /// dedup cache, the monitor stays silent, and the report has the
    /// committed artefact's keys.
    #[test]
    fn low_rate_step_decides_everything_cleanly() {
        let mut cfg = ClientExpConfig::profile(true, 5);
        cfg.sessions = 2;
        cfg.requests_per_session = 10;
        cfg.rates = vec![30.0];
        let out = run_sweep(&cfg);
        assert_eq!(out.steps.len(), 1);
        let s = &out.steps[0];
        assert_eq!(s.submitted, 20, "open loop offered everything");
        assert_eq!(s.decided, 20, "under capacity nothing is shed: {s:?}");
        assert_eq!(s.reply_errors, 0);
        assert_eq!(s.dedup_mismatches, 0);
        assert!(s.dedup_hits >= 2, "one idempotence replay per session: {s:?}");
        assert_eq!(s.instances, 20, "one instance per unique request, none for replays");
        assert_eq!(out.monitor_violations, 0);
        assert!(out.saturation_rate.is_none(), "a single clean step never saturates");
        // Replies are harvested while a worker waits for its next arrival,
        // so latency is the service's, not the arrival schedule's: p50 is
        // below half the mean inter-arrival time of one session.
        let half_gap_ms = 0.5 * 1e3 * cfg.sessions as f64 / cfg.rates[0];
        assert!(s.p50_ms < half_gap_ms, "p50 {} ms, not below {half_gap_ms} ms: {s:?}", s.p50_ms);
        let report = report(&cfg, &out);
        assert!(report.gates.iter().all(|g| g.ok), "{:?}", report.gates);
        crate::campaign::assert_keys_match_committed(
            &SCENARIO,
            report.payload,
            include_str!("../../../../BENCH_client.json"),
        );
    }

    /// Overload saturates: a tiny admission envelope under a hot open loop
    /// must shed, and the sweep must detect the saturation point. The clean
    /// step sits well under the envelope (two in flight, no queue, gaps an
    /// order of magnitude above decision latency) so latency jitter cannot
    /// misattribute saturation to it; the hot step's arrivals land faster
    /// than any decision and must overflow.
    #[test]
    fn overload_is_shed_and_detected_as_saturation() {
        let mut cfg = ClientExpConfig::profile(true, 9);
        cfg.sessions = 2;
        cfg.requests_per_session = 30;
        cfg.max_inflight = 2;
        cfg.queue_cap = 0;
        cfg.drain_timeout = Duration::from_secs(2);
        cfg.rates = vec![25.0, 2500.0];
        let out = run_sweep(&cfg);
        assert_eq!(out.monitor_violations, 0, "overload must never break safety");
        let hot = &out.steps[1];
        assert!(hot.shed > 0, "a zero-queue node under a hot open loop sheds: {hot:?}");
        assert!(hot.goodput < 0.9, "shed requests show up as lost goodput: {hot:?}");
        let clean = &out.steps[0];
        assert!(clean.goodput >= 0.9, "the clean step must stay clean: {clean:?}");
        assert_eq!(out.saturation_rate, Some(2500.0), "saturation point detected");
        assert_eq!(hot.reply_errors, 0, "every reply that did arrive is correct");
    }
}
