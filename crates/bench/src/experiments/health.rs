//! E22 — the self-diagnosis campaign: seeded stalls injected into live
//! 7-node TCP meshes, asserting that the health subsystem detects each
//! stall in time and blames the right culprit, while clean runs raise
//! nothing at all.
//!
//! Each seeded run stands up an `n = 7` loopback TCP mesh of
//! `ConsensusService`s running lockstep `SyncBvc` instances with the
//! health subsystem armed, every node polled on its own thread (stalls
//! are a wall-clock phenomenon — a shared sweep thread would smear one
//! node's injected latency over everybody). Runs cycle through five
//! classes:
//!
//! | class | injection (after a warm-up) | expected diagnosis |
//! |-------|-----------------------------|--------------------|
//! | `clean` | none | zero stalls anywhere (false-positive floor) |
//! | `muted` | victim stops polling; links stay up | peers: barrier stall, `waiting_on = [victim]` |
//! | `severed` | victim severs all its outbound links | peers: barrier stall on the victim (their readers see the hangup, but their redial succeeds against the victim's still-live listener, so the link is back up — and still silent — by detection time) |
//! | `fsync` | victim's group-commit throttled past the deadline | peers: barrier stall on the victim (its links are healthy, it is just slow) |
//! | `kill` | victim's service + endpoint dropped | peers: wire stall on the victim |
//!
//! Honest survivors must still terminate (the lockstep force-advance is
//! the liveness escape hatch for the mute/sever/kill classes) with zero
//! safety-monitor violations, and no survivor's stall report may name a
//! non-victim node — a single report framing an innocent fails the run.
//!
//! The campaign ends with a flight-recorder cross-check: a safety
//! violation is induced against a monitor whose event stream feeds a
//! [`FlightRecorder`], and the resulting black-box dump is re-parsed by
//! [`FlightDump`] to prove the dump is a self-describing file with the
//! violation inside.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rand::Rng;
use rbvc_linalg::VecD;
use rbvc_obs::{
    clock, FlightDump, FlightRecorder, Obs, Recorder, Registry, StallConfig, StallPhase,
    StallReport, StatusBoard,
};
use rbvc_sim::monitor::ServiceMonitor;
use rbvc_transport::service::{ConsensusService, HealthConfig};
use rbvc_transport::TcpEndpoint;
use serde_json::json;

use crate::campaign::{
    gate, mesh_seed, monitor, thread_per_node, Args, MeshProfile, Proto, Report, Scenario, AGREEMENT_EPS,
};
use crate::report::fnum;
use crate::workloads::rng;

/// The E22 scenario entry.
pub const SCENARIO: Scenario = Scenario {
    name: "health",
    id: "E22",
    title: "self-diagnosing runtime stall campaign",
    flags: &["--runs N", "--flight-dir DIR", "--metrics ADDR"],
    // The stall series are registered when the first mesh arms the
    // detector.
    metrics_probe: &["# TYPE", "health_stall"],
    // A node's snapshot — any node's, once one has published — carries the
    // phase clock's "where the time goes" row.
    status_probe: Some(("\"time\":\"", "status_scrape_ok")),
    run,
};

/// The five injected-stall classes, in cycling order.
pub const CLASSES: [&str; 5] = ["clean", "muted", "severed", "fsync", "kill"];

/// Campaign configuration.
#[derive(Clone)]
pub struct HealthCampaignConfig {
    /// Mesh shape (paper regime `n > 3f`) running lockstep SyncBvc
    /// instances configured for `f` faults.
    pub mesh: MeshProfile,
    /// Seeded runs, cycling through [`CLASSES`].
    pub runs: usize,
    /// Stall-detection deadline. Must sit well below the force-advance
    /// horizon (`timeout_ticks` polls) or the lockstep timeout clears a
    /// stall before the detector may call it one.
    pub deadline: Duration,
    /// Lockstep round timeout in ticks (one tick per poll): the
    /// force-advance horizon that guarantees survivor termination in the
    /// mute/sever/kill classes.
    pub timeout_ticks: u32,
    /// Polls the victim runs before its fault is injected. 0 (the
    /// default) injects before the victim's first poll: the mesh
    /// handshake has already brought every link up by then, and a healthy
    /// mesh decides within a handful of polls, so any later injection
    /// races the decision.
    pub warmup_polls: usize,
    /// Group-commit delay injected in the `fsync` class (must exceed
    /// `deadline` so the peers' wait on the throttled node trips the
    /// detector).
    pub fsync_throttle: Duration,
    /// Wall-clock budget per run before it is declared stuck.
    pub run_budget: Duration,
    /// Detection budget after injection: a stall reported later than this
    /// counts as a miss (deadline + one injected-latency period + slack).
    pub detect_budget: Duration,
    /// Shared `/status` board the services publish into (the live
    /// endpoint); `None` skips publishing.
    pub status: Option<StatusBoard>,
    /// Flight-dump directory handed to every node (arming the always-on
    /// recorder during the runs); `None` disables the in-run recorders.
    /// The campaign's final cross-check phase always runs with its own.
    pub flight_dir: Option<PathBuf>,
}

impl HealthCampaignConfig {
    /// The full profile (40 runs, the acceptance floor: 8 per class) or
    /// the CI profile: one run per class on the same mesh shape and
    /// deadlines (shrinking those would test a different detector).
    #[must_use]
    pub fn profile(smoke: bool, seed: u64) -> Self {
        let poll_timeout = Duration::from_millis(1);
        HealthCampaignConfig {
            mesh: MeshProfile { n: 7, f: 2, d: 2, instances: 1, rounds: 0, seed, poll_timeout },
            runs: if smoke { CLASSES.len() } else { 40 },
            deadline: Duration::from_millis(150),
            timeout_ticks: 600,
            warmup_polls: 0,
            fsync_throttle: Duration::from_millis(400),
            run_budget: Duration::from_secs(20),
            detect_budget: Duration::from_millis(1500),
            status: None,
            flight_dir: None,
        }
    }
}

/// Per-class aggregation across the campaign's runs.
#[derive(Debug, Clone, Default)]
pub struct ClassReport {
    /// Class name (one of [`CLASSES`]).
    pub class: &'static str,
    /// Runs of this class.
    pub runs: usize,
    /// Runs diagnosed correctly: for `clean`, zero stalls anywhere; for
    /// faulted classes, a survivor raised the class's expected stall
    /// phase naming exactly the victim within the detection budget, and
    /// no survivor report named anyone else.
    pub diagnosed: usize,
    /// Runs whose honest survivors all terminated.
    pub terminated: usize,
    /// Survivor stall reports naming any non-victim node (must stay 0).
    pub misblamed: usize,
    /// Detection latencies (ms, injection → first blame-correct report),
    /// sorted ascending.
    pub detect_ms: Vec<f64>,
    /// Stalls raised across the class (0 for `clean` when healthy).
    pub stalls_raised: u64,
    /// Stall reports that were eventually cleared.
    pub cleared: u64,
    /// Victim self-diagnosed fsync-phase reports (the `fsync` class's
    /// local-durability attribution; informational for other classes).
    pub victim_fsync_reports: u64,
}

/// Outcome of the flight-recorder cross-check phase.
#[derive(Debug, Clone)]
pub struct FlightCheck {
    /// The induced violation produced a dump file.
    pub dumped: bool,
    /// The dump re-parsed as a trace: zero unknown records and the
    /// self-described reason is `"violation"`.
    pub replayed: bool,
    /// Violations the summary counted in the dump (expect ≥ 1).
    pub violations_in_dump: u64,
    /// The dump's self-described reason.
    pub reason: String,
}

/// Campaign outcome.
#[derive(Debug, Clone)]
pub struct HealthOutcome {
    /// Total runs.
    pub runs: usize,
    /// Per-class reports, in [`CLASSES`] order.
    pub reports: Vec<ClassReport>,
    /// Safety-monitor violations among honest survivors (must be 0).
    pub monitor_violations: usize,
    /// Stalls raised in `clean` runs (must be 0 — the false-positive
    /// floor).
    pub false_positives: u64,
    /// Flight-recorder cross-check.
    pub flight: FlightCheck,
    /// Campaign wall clock.
    pub wall_secs: f64,
}

impl HealthOutcome {
    /// Fraction of faulted runs diagnosed in time with correct blame.
    #[must_use]
    pub fn diagnosis_rate(&self) -> f64 {
        let (mut diagnosed, mut faulted) = (0usize, 0usize);
        for r in &self.reports {
            if r.class != "clean" {
                faulted += r.runs;
                diagnosed += r.diagnosed;
            }
        }
        if faulted == 0 {
            1.0
        } else {
            diagnosed as f64 / faulted as f64
        }
    }
}

/// What one node's polling thread brings home.
struct NodeFacts {
    decided: bool,
    reports: Vec<StallReport>,
    stalls_raised: u64,
    /// Decisions surfaced by this node's polls (empty for the victim),
    /// replayed through the safety monitor after the threads join — the
    /// monitor's predicate closures are not `Send`, so it cannot sit
    /// behind the polling threads directly.
    decisions: Vec<(u64, VecD)>,
}

/// Facts of one seeded run.
struct RunFacts {
    class: &'static str,
    /// Honest survivors (everyone in `clean`, non-victims otherwise) all
    /// decided.
    terminated: bool,
    /// Detection latency in ms (injection → first blame-correct report of
    /// the class's expected phase at any survivor), if within the budget.
    detect_ms: Option<f64>,
    /// Survivor reports naming any non-victim node.
    misblamed: usize,
    /// Safety violations among honest survivors.
    violations: usize,
    /// Total stalls raised anywhere in the run.
    stalls_raised: u64,
    /// Reports that cleared.
    cleared: u64,
    /// Fsync-phase reports raised by the victim itself.
    victim_fsync_reports: u64,
}

/// Does `report` name only the victim? Empty blame lists frame nobody;
/// the diagnosis predicate separately requires a report that *does* name
/// the victim.
fn blames_only(report: &StallReport, victim: usize) -> bool {
    report.waiting_on.iter().all(|&p| p as usize == victim)
}

/// The stall phase a class's survivors are expected to report. Only a
/// dead process (`kill`) keeps the link *down*: its listener is gone, so
/// the peers' redials fail and burn into a dial-failure burst — a wire
/// stall. A one-way severance (`severed`) is healed from the peers' side
/// within milliseconds — their reader EOFs, `mark_peer_down` arms a
/// redial, and the dial succeeds against the victim's still-live
/// listener — leaving a live link with a silent peer behind it, which is
/// exactly mutism: a barrier stall. `muted`/`fsync` never touch the
/// socket at all.
fn expected_phase(class: &str) -> StallPhase {
    match class {
        "kill" => StallPhase::Wire,
        _ => StallPhase::Barrier,
    }
}

/// One seeded run: build the mesh, launch one polling thread per node,
/// inject the class's fault on the victim after its warm-up, harvest
/// every node's stall reports, and judge the diagnosis.
fn one_run(cfg: &HealthCampaignConfig, run: usize) -> RunFacts {
    let mesh = &cfg.mesh;
    let run_seed = mesh.run_seed(run);
    let mut rand = rng(run_seed);
    let class = CLASSES[run % CLASSES.len()];
    let inputs = mesh.inputs(&mut rand);
    let victim = rand.gen_range(0..mesh.n);

    // Faults are injected into *keyed* links so diagnosis is exercised on
    // the same wire format production meshes run.
    let (endpoints, _) = mesh.tcp_mesh(&mesh_seed(run_seed));
    let services: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            let mut svc = ConsensusService::new(ep);
            svc.enable_auth();
            let proto = Proto::Bvc { timeout_ticks: cfg.timeout_ticks };
            mesh.register(&mut svc, i, &inputs, |_| proto);
            svc.enable_health(HealthConfig {
                stall: StallConfig {
                    deadline_us: u64::try_from(cfg.deadline.as_micros()).unwrap_or(u64::MAX),
                    ..StallConfig::default()
                },
                status: cfg.status.clone(),
                flight_dir: cfg.flight_dir.clone(),
            });
            svc
        })
        .collect();

    // The injection timestamp, stamped by the victim's thread the moment
    // the fault lands (clean runs never stamp it).
    let injected_at_us = Mutex::new(None::<u64>);
    // Survivors that finished; the muted victim's thread parks on this so
    // the threads can join without the victim polling.
    let survivors_done = AtomicUsize::new(0);
    let survivor_count = if class == "clean" { mesh.n } else { mesh.n - 1 };
    let budget = cfg.run_budget;

    let node = |i: usize, mut svc: ConsensusService<TcpEndpoint>| {
        let is_victim = i == victim && class != "clean";
        svc.start().expect("start service");
        let t0 = Instant::now();
        let mut polls = 0usize;
        let mut decisions: Vec<(u64, VecD)> = Vec::new();
        while !svc.all_decided() && t0.elapsed() < budget {
            if is_victim && polls == cfg.warmup_polls {
                *injected_at_us.lock().expect("stamp") = Some(clock::now_us());
                match class {
                    "muted" => {
                        // Stop polling, keep the sockets open: peers should
                        // see a live link that owes a batch (barrier), not
                        // a dead one (wire).
                        while survivors_done.load(Ordering::SeqCst) < survivor_count
                            && t0.elapsed() < budget
                        {
                            thread::sleep(Duration::from_millis(5));
                        }
                        break;
                    }
                    "severed" => {
                        for j in (0..mesh.n).filter(|&j| j != i) {
                            svc.transport_mut().sever_link(j);
                        }
                    }
                    "fsync" => svc.set_fsync_throttle(cfg.fsync_throttle),
                    "kill" => {
                        drop(svc);
                        return NodeFacts {
                            decided: false,
                            reports: Vec::new(),
                            stalls_raised: 0,
                            decisions,
                        };
                    }
                    other => unreachable!("unknown class {other}"),
                }
            }
            let events = svc.poll(mesh.poll_timeout);
            if !is_victim {
                decisions.extend(events.into_iter().map(|ev| (ev.instance, ev.value)));
            }
            polls += 1;
        }
        if !is_victim {
            survivors_done.fetch_add(1, Ordering::SeqCst);
        }
        NodeFacts {
            decided: svc.all_decided(),
            reports: svc.health_reports(),
            stalls_raised: svc.stalls_raised(),
            decisions,
        }
    };
    let (facts, ()) = thread_per_node(services, node, || ());

    // Safety envelope over the survivors' decisions, replayed in node
    // order. The victim is excluded in faulted runs (its thread collects
    // nothing): a node the mesh observes as crashed or severed carries no
    // agreement obligation toward the survivors.
    let mut monitor = monitor(mesh.n, AGREEMENT_EPS, Some(inputs));
    for (i, f) in facts.iter().enumerate() {
        for (inst, value) in &f.decisions {
            let _ = monitor.observe(*inst, i, &value.as_slice().to_vec());
        }
    }

    let injected = *injected_at_us.lock().expect("stamp");
    judge_run(cfg, class, victim, &facts, injected, &monitor)
}

/// Score one run's harvested facts against its class's predicate.
fn judge_run(
    cfg: &HealthCampaignConfig,
    class: &'static str,
    victim: usize,
    facts: &[NodeFacts],
    injected_at_us: Option<u64>,
    monitor: &ServiceMonitor<Vec<f64>>,
) -> RunFacts {
    let survivor = |i: usize| class == "clean" || i != victim;
    let stalls_raised: u64 = facts.iter().map(|f| f.stalls_raised).sum();
    let cleared = facts
        .iter()
        .flat_map(|f| &f.reports)
        .filter(|r| r.cleared_at_us.is_some())
        .count() as u64;
    let victim_fsync_reports = if class == "clean" {
        0
    } else {
        facts[victim].reports.iter().filter(|r| r.phase == StallPhase::Fsync).count() as u64
    };
    let terminated =
        facts.iter().enumerate().filter(|(i, _)| survivor(*i)).all(|(_, f)| f.decided);

    let survivor_reports: Vec<&StallReport> = facts
        .iter()
        .enumerate()
        .filter(|(i, _)| survivor(*i))
        .flat_map(|(_, f)| &f.reports)
        .collect();
    // A clean run has no victim: any stall there is a false positive (the
    // campaign counts `stalls_raised`), not a misblame.
    let misblamed = if class == "clean" {
        0
    } else {
        survivor_reports.iter().filter(|r| !blames_only(r, victim)).count()
    };
    let budget_us = u64::try_from(cfg.detect_budget.as_micros()).unwrap_or(u64::MAX);
    // Clean runs never stamp an injection, so they never report a latency.
    let detect_ms = injected_at_us.and_then(|t0| {
        survivor_reports
            .iter()
            .filter(|r| {
                r.phase == expected_phase(class)
                    && !r.waiting_on.is_empty()
                    && blames_only(r, victim)
                    && r.detected_at_us >= t0
            })
            .map(|r| r.detected_at_us - t0)
            .min()
            .filter(|&lat| lat <= budget_us)
            .map(|lat| lat as f64 / 1e3)
    });

    RunFacts {
        class,
        terminated,
        detect_ms,
        misblamed,
        violations: monitor.violation_count(),
        stalls_raised,
        cleared,
        victim_fsync_reports,
    }
}

/// Induce a safety violation against a monitored decision stream whose
/// events feed a [`FlightRecorder`], then replay the black-box dump
/// through [`FlightDump`] — the cross-check that the always-on recorder
/// produces a usable trace exactly when something goes wrong.
fn flight_cross_check(dir: &std::path::Path) -> FlightCheck {
    let dir = dir.join("crosscheck");
    let _ = std::fs::remove_dir_all(&dir);
    let flight = Arc::new(FlightRecorder::new(99, &dir, 1024, Registry::new()));
    let obs = Obs::new(Arc::clone(&flight) as Arc<dyn Recorder>).with_node(99);

    let points = vec![VecD::from_slice(&[0.0, 0.0]), VecD::from_slice(&[1.0, 1.0])];
    let mut monitor = monitor(2, AGREEMENT_EPS, Some(vec![points])).with_obs(obs);
    // Two decisions far outside any ε-ball: agreement must fire, the
    // violation event must hit the recorder, the recorder must dump.
    let _ = monitor.observe(1, 0, &vec![0.0, 0.0]);
    let _ = monitor.observe(1, 1, &vec![64.0, 64.0]);

    let dumped = flight.dumps() >= 1;
    let parsed = std::fs::read_dir(&dir)
        .ok()
        .and_then(|entries| {
            entries
                .filter_map(Result::ok)
                .find(|e| e.file_name().to_string_lossy().contains("violation"))
        })
        .and_then(|e| std::fs::read_to_string(e.path()).ok())
        .and_then(|text| FlightDump::parse(&text).ok());
    let reason = parsed.as_ref().and_then(|s| s.reason.clone()).unwrap_or_default();
    let violations_in_dump = parsed.as_ref().map_or(0, |s| s.violations);
    let replayed = parsed.is_some_and(|s| s.unknown_records == 0)
        && reason == "violation"
        && violations_in_dump >= 1;
    FlightCheck { dumped, replayed, violations_in_dump, reason }
}

/// Run the campaign: `cfg.runs` seeded runs cycling the classes, then the
/// flight-recorder cross-check.
#[must_use]
pub fn run_campaign(cfg: &HealthCampaignConfig) -> HealthOutcome {
    let start = Instant::now();
    let mut by_class: BTreeMap<&'static str, ClassReport> = CLASSES
        .iter()
        .map(|&class| (class, ClassReport { class, ..ClassReport::default() }))
        .collect();
    let mut monitor_violations = 0usize;
    let mut false_positives = 0u64;

    for run in 0..cfg.runs {
        let f = one_run(cfg, run);
        let r = by_class.get_mut(f.class).expect("known class");
        r.runs += 1;
        r.terminated += usize::from(f.terminated);
        r.misblamed += f.misblamed;
        r.stalls_raised += f.stalls_raised;
        r.cleared += f.cleared;
        r.victim_fsync_reports += f.victim_fsync_reports;
        if f.class == "clean" {
            false_positives += f.stalls_raised;
            r.diagnosed += usize::from(f.stalls_raised == 0);
        } else if let Some(ms) = f.detect_ms {
            if f.misblamed == 0 {
                r.diagnosed += 1;
            }
            r.detect_ms.push(ms);
        }
        monitor_violations += f.violations;
    }

    let flight_dir = cfg
        .flight_dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("rbvc-e22-{}", std::process::id())));
    let flight = flight_cross_check(&flight_dir);

    let reports: Vec<ClassReport> = CLASSES
        .iter()
        .map(|&c| {
            let mut r = by_class.remove(c).expect("known class");
            r.detect_ms.sort_by(f64::total_cmp);
            r
        })
        .collect();
    let out = HealthOutcome {
        runs: cfg.runs,
        reports,
        monitor_violations,
        false_positives,
        flight,
        wall_secs: start.elapsed().as_secs_f64(),
    };
    publish_metrics(&out);
    out
}

/// Mirror the campaign verdict into the global registry so `exp health
/// --metrics` serves it live alongside the runtime's own `health.*`
/// series.
fn publish_metrics(out: &HealthOutcome) {
    let reg = Registry::global();
    reg.gauge("exp.health.diagnosis_permille").set((out.diagnosis_rate() * 1000.0) as i64);
    reg.gauge("exp.health.false_positives")
        .set(i64::try_from(out.false_positives).unwrap_or(i64::MAX));
    for r in &out.reports {
        let labels = [("class", r.class)];
        reg.gauge_with("exp.health.diagnosed", &labels)
            .set(i64::try_from(r.diagnosed).unwrap_or(i64::MAX));
        reg.gauge_with("exp.health.stalls_raised", &labels)
            .set(i64::try_from(r.stalls_raised).unwrap_or(i64::MAX));
        if let Some(&worst) = r.detect_ms.last() {
            reg.gauge_with("exp.health.detect_max_us", &labels).set((worst * 1000.0) as i64);
        }
    }
}

fn run(args: &Args, status: &StatusBoard) -> Report {
    let mut cfg = HealthCampaignConfig::profile(args.smoke, args.seed);
    cfg.runs = args.runs.unwrap_or(cfg.runs);
    cfg.flight_dir = Some(args.flight_dir.clone().unwrap_or_else(|| "target/flight".into()));
    cfg.status = Some(status.clone());
    println!(
        "{} seeded runs cycling clean/muted/severed/fsync/kill on {}-node authenticated \
         loopback TCP meshes (f = {}, stall deadline {} ms, fsync throttle {} ms)",
        cfg.runs,
        cfg.mesh.n,
        cfg.mesh.f,
        cfg.deadline.as_millis(),
        cfg.fsync_throttle.as_millis()
    );
    report(&cfg, &run_campaign(&cfg))
}

fn report(cfg: &HealthCampaignConfig, out: &HealthOutcome) -> Report {
    let rate = out.diagnosis_rate();
    let mut gates = vec![
        gate(
            rate >= 0.95,
            format!(
                "only {:.1}% of faulted runs were diagnosed with correct blame",
                rate * 100.0
            ),
        ),
        gate(
            out.false_positives == 0,
            format!("{} stall(s) raised in clean runs", out.false_positives),
        ),
        gate(
            out.flight.dumped && out.flight.replayed,
            format!(
                "flight-recorder cross-check (dumped={}, replayed={}, reason='{}')",
                out.flight.dumped, out.flight.replayed, out.flight.reason
            ),
        ),
    ];
    for r in &out.reports {
        gates.push(gate(
            r.misblamed == 0,
            format!("{} stall report(s) in class '{}' named an innocent node", r.misblamed, r.class),
        ));
        gates.push(gate(
            r.terminated == r.runs,
            format!(
                "{}/{} '{}' runs left honest survivors undecided",
                r.runs - r.terminated,
                r.runs,
                r.class
            ),
        ));
    }
    Report {
        headers: vec![
            "class", "runs", "diagnosed", "terminated", "misblamed", "detect p50 ms",
            "detect max ms", "stalls", "cleared", "victim fsync",
        ],
        rows: out
            .reports
            .iter()
            .map(|r| {
                vec![
                    r.class.to_string(),
                    r.runs.to_string(),
                    r.diagnosed.to_string(),
                    r.terminated.to_string(),
                    r.misblamed.to_string(),
                    fnum(r.detect_ms.get(r.detect_ms.len() / 2).copied().unwrap_or(f64::NAN)),
                    fnum(r.detect_ms.last().copied().unwrap_or(f64::NAN)),
                    r.stalls_raised.to_string(),
                    r.cleared.to_string(),
                    r.victim_fsync_reports.to_string(),
                ]
            })
            .collect(),
        notes: vec![format!(
            "diagnosis rate {:.1}%, {} clean-run false positive(s), {} monitor violation(s), \
             flight dump {} / replay {}, {:.1}s wall",
            rate * 100.0,
            out.false_positives,
            out.monitor_violations,
            if out.flight.dumped { "ok" } else { "MISSING" },
            if out.flight.replayed { "ok" } else { "FAILED" },
            out.wall_secs
        )],
        payload: json!({
            "n": cfg.mesh.n,
            "f": cfg.mesh.f,
            "dimension": cfg.mesh.d,
            "instances": cfg.mesh.instances,
            "runs": out.runs,
            "stall_deadline_ms": cfg.deadline.as_millis() as u64,
            "fsync_throttle_ms": cfg.fsync_throttle.as_millis() as u64,
            "detect_budget_ms": cfg.detect_budget.as_millis() as u64,
            "diagnosis_rate": rate,
            "false_positives": out.false_positives,
            "wall_secs": out.wall_secs,
            "classes": out.reports.iter().map(|r| json!({
                "class": r.class,
                "runs": r.runs,
                "diagnosed": r.diagnosed,
                "terminated": r.terminated,
                "misblamed": r.misblamed,
                "stalls_raised": r.stalls_raised,
                "cleared": r.cleared,
                "victim_fsync_reports": r.victim_fsync_reports,
                "detect_ms": r.detect_ms.clone(),
            })).collect::<Vec<_>>(),
            "flight": json!({
                "dumped": out.flight.dumped,
                "replayed": out.flight.replayed,
                "violations_in_dump": out.flight.violations_in_dump,
                "reason": out.flight.reason.clone(),
                "dir": cfg.flight_dir.as_ref().map(|dir| dir.display().to_string()),
            }),
        }),
        gates,
    }
    .with_monitor(out.monitor_violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compact profile so the micro-campaign tests stay in CI budget: a
    /// 4-node mesh (still `n > 3f` with `f = 1`) and a short force-advance
    /// horizon, but the same detector deadline ordering (deadline well
    /// under the horizon).
    fn tiny(seed: u64) -> HealthCampaignConfig {
        let full = HealthCampaignConfig::profile(false, seed);
        HealthCampaignConfig {
            mesh: MeshProfile { n: 4, f: 1, ..full.mesh.clone() },
            deadline: Duration::from_millis(60),
            timeout_ticks: 200,
            fsync_throttle: Duration::from_millis(160),
            detect_budget: Duration::from_millis(1200),
            run_budget: Duration::from_secs(15),
            ..full
        }
    }

    /// A one-run campaign (class cycle position 0 = clean) raises nothing,
    /// terminates, and reports the committed artefact's keys.
    #[test]
    fn clean_run_raises_nothing_and_terminates() {
        let cfg = HealthCampaignConfig { runs: 1, ..tiny(11) };
        let out = run_campaign(&cfg);
        let clean = &out.reports[0];
        assert_eq!((clean.class, clean.runs), ("clean", 1));
        assert_eq!(clean.terminated, 1, "a clean mesh decides");
        assert_eq!(out.false_positives, 0, "no false positives");
        assert_eq!(out.monitor_violations, 0);
        let report = report(&cfg, &out);
        assert!(report.gates.iter().all(|g| g.ok), "{:?}", report.gates);
        crate::campaign::assert_keys_match_committed(
            &SCENARIO,
            report.payload,
            include_str!("../../../../BENCH_health.json"),
        );
    }

    #[test]
    fn muted_victim_is_blamed_by_name_and_survivors_terminate() {
        let cfg = tiny(12);
        let f = one_run(&cfg, 1); // class cycle position 1 = muted
        assert_eq!(f.class, "muted");
        assert!(f.terminated, "survivors force-advance past the mute");
        assert_eq!(f.misblamed, 0, "nobody frames an innocent");
        assert!(f.detect_ms.is_some(), "a survivor names the victim within the budget");
        assert!(f.stalls_raised > 0);
        assert_eq!(f.violations, 0);
    }

    #[test]
    fn flight_dump_replays_as_a_trace_with_the_violation_inside() {
        let dir = std::env::temp_dir().join(format!("rbvc-e22-test-{}", std::process::id()));
        let check = flight_cross_check(&dir);
        assert!(check.dumped, "the induced violation triggers a dump");
        assert!(check.replayed, "the dump replays through the summarizer");
        assert!(check.violations_in_dump >= 1);
        assert_eq!(check.reason, "violation");
        let _ = std::fs::remove_dir_all(dir.join("crosscheck"));
    }
}
