//! The timed run of one workload: repetitions on fresh meshes until the
//! budget is spent, every check on every repetition, one value per
//! end-to-end metric chosen by the workload's repetition statistic.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::check;
use crate::client::{self, ClientPlan, ClientRep, Load};
use crate::mesh::{MeshPlan, RepOutcome};
use crate::probe::Probe;
use crate::report::{note, Measured, WorkloadResult};
use crate::stats::{self, sorted, Better};
use crate::workloads::{Plan, Workload};

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Benchmark seed: every input is a pure function of it.
    pub seed: u64,
    /// Budget of the run in seconds; `None` runs each workload's default
    /// number of repetitions.
    pub seconds: Option<f64>,
    /// Two quarter-size repetitions, all checks on.
    pub smoke: bool,
    /// Directory for WALs and reports (inside the checkout).
    pub out_dir: PathBuf,
}

/// Set-ups timed for `setup_s` before each repetition.
const SETUP_BATCH: usize = 4;

/// Decides whether another repetition fits.
pub struct Budget {
    start: Instant,
    limit: Option<Duration>,
    smoke: bool,
    min: usize,
    default_reps: usize,
}

impl Budget {
    /// Start the clock. `share` is the part of `--seconds` this phase gets;
    /// at least `min` repetitions run whatever the budget, and
    /// `default_reps` when there is none.
    #[must_use]
    pub fn start(options: &Options, share: f64, min: usize, default_reps: usize) -> Budget {
        Budget {
            start: Instant::now(),
            limit: options.seconds.map(|s| Duration::from_secs_f64(s * share)),
            smoke: options.smoke,
            min,
            default_reps,
        }
    }

    /// Whether to run repetition number `done` (0-based), given how long the
    /// last one took: in smoke mode exactly two; with a budget, the minimum
    /// and then as long as one more fits; otherwise the default number.
    #[must_use]
    pub fn more(&self, done: usize, last: Duration) -> bool {
        if self.smoke {
            return done < 2;
        }
        match self.limit {
            Some(limit) => done < self.min || self.start.elapsed() + last <= limit,
            None => done < self.default_reps,
        }
    }
}

/// A fresh, empty directory for the WALs of one repetition or set-up.
fn fresh_wal_dir(options: &Options, rep: impl std::fmt::Display) -> PathBuf {
    let dir = options
        .out_dir
        .join(format!("wal-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create WAL directory under the output directory");
    dir
}

/// The filesystem type under `dir`, from `/proc/mounts` (longest mount-point
/// prefix wins). The fsync-bound workload means little on a memory-backed
/// filesystem, so the type is part of its report.
#[must_use]
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// One repetition of a static plan under `probe`, with its WAL directory
/// made and removed around it, and its verdict.
pub fn mesh_rep<P: Probe>(
    plan: &MeshPlan,
    options: &Options,
    index: usize,
    probe: &P,
) -> (RepOutcome, Result<(), Vec<String>>) {
    let dir = plan.durable.then(|| fresh_wal_dir(options, index));
    let rep = plan.run_rep(options.seed, probe, dir.as_deref());
    let verdict = check::check_mesh_rep(plan, options.seed, &rep);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    (rep, verdict)
}

/// The floor of a deterministic workload. Every repetition of a run executes
/// the same schedule, so poll number `p` is the same work each time, and an
/// instance is launched and decided at the same polls. The floor of the timed
/// region is the sum over `p` of the fastest poll number `p` of any
/// repetition, and the floor of a latency that sum over the polls the latency
/// spans: what the repetition would have read had nothing disturbed it, pieced
/// together from the undisturbed parts of all of them. Over twenty 20 s runs
/// of `durable-mesh` in which the median repetition read 297 to 371 decided/s
/// and the best one 339 to 395, this read 389 to 408.
#[derive(Debug, Default)]
pub struct Floor {
    poll_ns: Vec<u64>,
    latency_polls: Vec<(usize, usize)>,
}

impl Floor {
    /// Fold one repetition in. One that did not run the same schedule (it
    /// hit its deadline; the run has failed its checks by then) is left out.
    pub fn fold(&mut self, rep: &RepOutcome) {
        if self.poll_ns.is_empty() {
            self.poll_ns.clone_from(&rep.poll_clock_ns);
            self.latency_polls.clone_from(&rep.latency_polls);
        } else if self.poll_ns.len() == rep.poll_clock_ns.len()
            && self.latency_polls == rep.latency_polls
        {
            for (floor, &ns) in self.poll_ns.iter_mut().zip(&rep.poll_clock_ns) {
                *floor = (*floor).min(ns);
            }
        }
    }

    /// The timed region, seconds.
    #[must_use]
    pub fn clock_s(&self) -> f64 {
        self.poll_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Percentile `p` of the launch→decide latencies on the floor clock, ms:
    /// each from the end of the poll that launched the instance to the end
    /// of the poll that surfaced its decision.
    #[must_use]
    pub fn latency_ms(&self, p: f64) -> f64 {
        let latencies = self.latency_polls.iter().map(|&(first, last)| {
            self.poll_ns[first.min(last)..=last].iter().sum::<u64>() as f64 / 1e6
        });
        stats::percentile(&sorted(latencies.collect()), p)
    }
}

/// The samples behind `setup_s`: before every repetition, [`SETUP_BATCH`]
/// set-ups made for the purpose, back to back, each dropped unused; the
/// fastest of them all is reported, a floor like every other timing. (A
/// repetition's own set-up is not a sample: it follows the teardown of a
/// whole repetition. And a median does not hold: that of `durable-mesh`,
/// whose set-up appends its registrations to the WALs (400 records then),
/// read 0.78 ms in one hour and 1.02 ms in the next, while the fastest read
/// 0.68 to 0.70 ms in both.)
#[derive(Debug, Default)]
struct SetupSamples(Vec<f64>);

impl SetupSamples {
    fn take(&mut self, mut set_up: impl FnMut() -> f64) {
        self.0.extend((0..SETUP_BATCH).map(|_| set_up()));
    }

    /// `setup_s`.
    fn metric(self) -> Measured {
        Measured::best("setup_s", Better::Lower, self.0)
    }
}

/// One set-up of a static plan, timed and dropped.
fn mesh_set_up<P: Probe>(plan: &MeshPlan, options: &Options, probe: &P) -> f64 {
    let dir = plan.durable.then(|| fresh_wal_dir(options, "setup"));
    let setup_s = plan.set_up(options.seed, probe, dir.as_deref()).setup_s;
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    setup_s
}

/// The timed run of a static workload.
fn timed_mesh<P: Probe>(
    w: Workload,
    plan: &MeshPlan,
    options: &Options,
    probe: &P,
) -> WorkloadResult {
    let budget = Budget::start(options, 1.0, 2, w.default_reps());
    let samples = plan.instances * plan.n;
    let tail = stats::supported_tail(samples).unwrap_or(50.0);
    let (mut rate, mut p50, mut p_tail) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall_rate, mut device_share) = (Vec::new(), Vec::new());
    let mut setup = SetupSamples::default();
    let mut fingerprints = Vec::new();
    let (mut recover_ms, mut faults, mut failed) = (Vec::new(), Vec::new(), 0usize);
    let mut floor = Floor::default();
    let mut reps = 0usize;
    let mut last = Duration::ZERO;
    while budget.more(reps, last) {
        let t = Instant::now();
        setup.take(|| mesh_set_up(plan, options, probe));
        let (rep, verdict) = mesh_rep(plan, options, reps, probe);
        rate.push(rep.fingerprint.decided as f64 / rep.clock_s());
        wall_rate.push(rep.fingerprint.decided as f64 / rep.wall_s);
        device_share.push(rep.device_wait_s / rep.wall_s);
        floor.fold(&rep);
        let lat = sorted(rep.latencies_ms);
        p50.push(stats::percentile(&lat, 50.0));
        p_tail.push(stats::percentile(&lat, tail));
        fingerprints.push(rep.fingerprint);
        if let Some(restart) = rep.restart {
            recover_ms.push(restart.recover_ms);
        }
        if let Err(found) = verdict {
            failed += plan.instances;
            faults.extend(
                found
                    .into_iter()
                    .take(5)
                    .map(|f| format!("repetition {reps}: {f}")),
            );
        }
        reps += 1;
        last = t.elapsed();
    }
    if let Err(e) = check::check_determinism(&fingerprints) {
        failed = reps * plan.instances;
        faults.push(e);
    }
    let fp = fingerprints[0];
    let per_decision = |count: u64| count as f64 / plan.instances as f64;
    let mut notes = vec![
        note(
            "latency_tail_ms is",
            format!("p{tail} of {samples} per-node latencies per repetition"),
        ),
        note(
            "message delay injected",
            "zero: latency is processor time with all nodes sharing one driver thread, \
             a cost figure, not a WAN latency",
        ),
        note("polls per repetition (exact)", fp.polls.to_string()),
        note(
            "wire bytes per repetition (exact)",
            fp.wire_bytes.to_string(),
        ),
        note(
            "decision hash (exact)",
            format!("{:016x}", fp.decision_hash),
        ),
    ];
    if plan.durable {
        notes.extend([
            note(
                "fsyncs_per_decision (exact)",
                per_decision(fp.fsyncs).to_string(),
            ),
            note(
                "recover_ms",
                format!(
                    "{:.3} (best of {} cold restarts)",
                    stats::best(&recover_ms, Better::Lower),
                    recover_ms.len()
                ),
            ),
            note("WAL filesystem", filesystem_of(&options.out_dir)),
            note(
                "clock",
                "stops while a WAL waits in fdatasync (the device's time, not the program's)",
            ),
            note(
                "decided_per_s on the wall clock, device included",
                format!(
                    "{:.3} (median repetition; fdatasync wait is {:.0} % of the wall)",
                    stats::median(&wall_rate),
                    100.0 * stats::median(&device_share)
                ),
            ),
        ]);
    }
    // The per-repetition values stay behind every metric (quartiles in the
    // report, the halves `compare` splits a run into); the reported value is
    // the floor pieced together from all of them.
    let floored = |name, value, reps| Measured { name, value, reps };
    WorkloadResult {
        workload: w.name(),
        repetitions: reps,
        attempted: reps * plan.instances,
        failed,
        faults,
        metrics: vec![
            setup.metric(),
            floored("decided_per_s", fp.decided as f64 / floor.clock_s(), rate),
            floored("latency_p50_ms", floor.latency_ms(50.0), p50),
            floored("latency_tail_ms", floor.latency_ms(tail), p_tail),
            Measured::single("wire_bytes_per_decision", per_decision(fp.wire_bytes)),
        ],
        notes,
    }
}

/// What the repetitions of one client phase add up to.
#[derive(Debug, Default)]
pub struct PhaseTotals {
    /// Per-repetition median latency, ms.
    pub p50: Vec<f64>,
    /// Every latency of the phase, ms.
    pub pooled: Vec<f64>,
    /// The lowest latency of each request over the repetitions, ms, in the
    /// order the requests are offered (the same in every repetition): the
    /// client-side counterpart of [`Floor`].
    pub floor_ms: Vec<f64>,
    /// Every generator lateness of the phase, ms.
    pub late: Vec<f64>,
    /// Per-repetition replies per second.
    pub rate: Vec<f64>,
    /// Repetitions folded in.
    pub repetitions: usize,
    /// Requests offered.
    pub attempted: usize,
    /// Requests failed (all of a repetition's when one of its checks did).
    pub failed: usize,
    /// Mesh wire bytes.
    pub wire_bytes: u64,
    /// Violated conditions.
    pub faults: Vec<String>,
    /// Instances resident on node 0 at the end of the last repetition.
    pub resident: usize,
}

impl PhaseTotals {
    /// Percentile `p` of every latency of the phase.
    #[must_use]
    pub fn pooled_percentile(&self, p: f64) -> f64 {
        stats::percentile(&sorted(self.pooled.clone()), p)
    }

    /// Percentile `p` of the per-request latency floors, ms.
    #[must_use]
    pub fn floor_percentile(&self, p: f64) -> f64 {
        stats::percentile(&sorted(self.floor_ms.clone()), p)
    }

    /// Fold one repetition in.
    pub fn add(&mut self, plan: &ClientPlan, label: &str, rep: ClientRep) {
        let verdict = check::check_client_rep(plan, &rep);
        if self.floor_ms.is_empty() {
            self.floor_ms.clone_from(&rep.by_request_ms);
        } else if self.floor_ms.len() == rep.by_request_ms.len() {
            for (floor, &ms) in self.floor_ms.iter_mut().zip(&rep.by_request_ms) {
                *floor = floor.min(ms);
            }
        }
        self.attempted += rep.attempted;
        self.wire_bytes += rep.wire_bytes;
        self.resident = rep.instances_resident;
        self.repetitions += 1;
        self.rate.push(rep.replies as f64 / rep.wall_s);
        self.p50
            .push(stats::percentile(&sorted(rep.latencies_ms.clone()), 50.0));
        self.pooled.extend(rep.latencies_ms);
        self.late.extend(rep.gen_late_ms);
        match verdict {
            Ok(()) => self.failed += rep.failed,
            Err(found) => {
                self.failed += rep.attempted;
                let index = self.repetitions - 1;
                self.faults.extend(
                    found
                        .into_iter()
                        .take(5)
                        .map(|f| format!("{label} repetition {index}: {f}")),
                );
            }
        }
    }
}

/// Run one client phase: repetitions of `load` on fresh meshes, every one
/// with the schedule and the values of `(seed, phase)`, for as long as
/// `more(repetitions done, duration of the last)` says.
pub fn client_phase<P: Probe>(
    plan: &ClientPlan,
    load: &Load,
    label: &str,
    phase: u64,
    seed: u64,
    probe: &P,
    mut more: impl FnMut(usize, Duration) -> bool,
) -> PhaseTotals {
    let mut totals = PhaseTotals::default();
    let mut last = Duration::ZERO;
    let mut done = 0usize;
    while more(done, last) {
        let t = Instant::now();
        let rep = client::run_rep(plan, load, seed, phase, probe);
        totals.add(plan, label, rep);
        done += 1;
        last = t.elapsed();
    }
    totals
}

/// Share of the `--seconds` budget of the lighter and of the heavier
/// open-loop rate; the closed loop gets the rest. The lighter rate only feeds
/// notes of the timed report (its figures are per-layer metrics of the traced
/// run); the heavier one carries both end-to-end latencies.
pub const OPEN_SHARES: [f64; 2] = [0.10, 0.35];

/// Open-loop repetitions of a rate given `share` of the budget. Fixed before
/// the run starts, not decided by the clock.
#[must_use]
pub fn open_reps(plan: &ClientPlan, options: &Options, share: f64) -> usize {
    match options.seconds {
        _ if options.smoke => 2,
        Some(s) => ((s * share / plan.open_duration.as_secs_f64()) as usize).max(1),
        None => plan.open_reps,
    }
}

/// The tail percentile quoted for the open-loop rates: of the ~300 requests
/// of a repetition at 300 req/s p95 has 15 beyond it, p99 only 3. (p99 over
/// every latency of the phase is still reported, as a note and as the
/// per-layer `client.p99_ms_r300`: about one request in a hundred stalls for
/// ~40 ms, visible from 100 req/s up; explaining it is a later issue's job.)
pub const CLIENT_TAIL: f64 = 95.0;

/// p99 of how late the generator sent a request after its due time, over
/// both open-loop rates, ms.
#[must_use]
pub fn late_p99_ms(light: &PhaseTotals, heavy: &PhaseTotals) -> f64 {
    let late = light.late.iter().chain(&heavy.late).copied().collect();
    stats::percentile(&sorted(late), 99.0)
}

/// The timed run of `client-open`.
fn timed_client<P: Probe>(
    w: Workload,
    plan: &ClientPlan,
    options: &Options,
    probe: &P,
) -> WorkloadResult {
    let mut setup = SetupSamples::default();
    let mut sampled = |go: bool| {
        if go {
            setup.take(|| plan.set_up(probe).setup_s);
        }
        go
    };
    let mut open = |i: usize| {
        let label = format!("{}/s", plan.rates[i]);
        let load = Load::Open {
            rate: plan.rates[i],
        };
        let reps = open_reps(plan, options, OPEN_SHARES[i]);
        client_phase(
            plan,
            &load,
            &label,
            100 * i as u64,
            options.seed,
            probe,
            |done, _| sampled(done < reps),
        )
    };
    let (light, heavy) = (open(0), open(1));
    let closed_share = 1.0 - OPEN_SHARES[0] - OPEN_SHARES[1];
    let budget = Budget::start(options, closed_share, 2, w.default_reps());
    let closed = client_phase(
        plan,
        &Load::Closed,
        "closed loop",
        200,
        options.seed,
        probe,
        |done, last| sampled(budget.more(done, last)),
    );

    let phases = [&light, &heavy, &closed];
    let attempted: usize = phases.iter().map(|p| p.attempted).sum();
    let wire_bytes: u64 = phases.iter().map(|p| p.wire_bytes).sum();
    let [r0, r1] = plan.rates;
    let notes = vec![
        note(
            "latency_p50_ms is",
            format!(
                "due→reply p50 at {r1} req/s open loop, over the {} requests of the fixed \
                 arrival trace, each at its lowest of {} repetitions",
                heavy.floor_ms.len(),
                heavy.repetitions
            ),
        ),
        note(
            "latency_tail_ms is",
            format!("p{CLIENT_TAIL} of the same (queueing)"),
        ),
        note(
            "decided_per_s is",
            format!(
                "replies/s with {} requests outstanding, closed loop, {} per repetition, \
                 best repetition",
                plan.outstanding, plan.closed_requests
            ),
        ),
        note(
            "message delay injected",
            "zero: loopback TCP, all nodes on one driver thread",
        ),
        note(
            format!("client_p50_ms_r{r0}"),
            format!("{:.3}", light.floor_percentile(50.0)),
        ),
        note(
            format!("client_p{CLIENT_TAIL}_ms_r{r0}"),
            format!("{:.3}", light.floor_percentile(CLIENT_TAIL)),
        ),
        note(
            format!("client_p99_ms_r{r1}"),
            format!(
                "{:.3} (all {} latencies of the phase)",
                heavy.pooled_percentile(99.0),
                heavy.pooled.len()
            ),
        ),
        note(
            "gen_late_p99_ms",
            format!("{:.3}", late_p99_ms(&light, &heavy)),
        ),
        note(
            "repetitions",
            format!(
                "{} + {} open loop of {:?}, {} closed loop",
                light.repetitions, heavy.repetitions, plan.open_duration, closed.repetitions
            ),
        ),
    ];
    WorkloadResult {
        workload: w.name(),
        repetitions: phases.iter().map(|p| p.repetitions).sum(),
        attempted,
        failed: phases.iter().map(|p| p.failed).sum(),
        faults: phases
            .iter()
            .flat_map(|p| p.faults.iter().cloned())
            .collect(),
        metrics: vec![
            setup.metric(),
            Measured::best("decided_per_s", Better::Higher, closed.rate.clone()),
            Measured {
                name: "latency_p50_ms",
                value: heavy.floor_percentile(50.0),
                reps: heavy.p50.clone(),
            },
            Measured::single("latency_tail_ms", heavy.floor_percentile(CLIENT_TAIL)),
            Measured::single(
                "wire_bytes_per_decision",
                wire_bytes as f64 / attempted as f64,
            ),
        ],
        notes,
    }
}

/// The timed run of `w` under `probe` (the timed binary passes
/// [`crate::probe::NoProbe`]).
///
/// # Panics
/// Only on a harness or environment failure (see the drivers).
pub fn timed<P: Probe>(w: Workload, options: &Options, probe: &P) -> WorkloadResult {
    match w.plan(options.smoke) {
        Plan::Mesh(plan) => timed_mesh(w, &plan, options, probe),
        Plan::Client(plan) => timed_client(w, &plan, options, probe),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoProbe;
    use crate::report::Spec;
    use crate::workloads::Plan;

    fn smoke_options(tag: &str) -> Options {
        let out_dir =
            std::env::temp_dir().join(format!("rbvc-bench-run-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&out_dir).expect("scratch dir");
        Options {
            seed: 3,
            seconds: None,
            smoke: true,
            out_dir,
        }
    }

    #[test]
    fn smoke_runs_report_every_end_to_end_metric_and_pass_their_checks() {
        let _serial = crate::mesh::fsync_counter_lock();
        let spec = Spec::builtin();
        for (w, instances) in [(Workload::VaMesh, 100), (Workload::DurableMesh, 13)] {
            let options = smoke_options(w.name());
            let result = timed(w, &options, &NoProbe);
            std::fs::remove_dir_all(&options.out_dir).expect("remove scratch dir");
            assert_eq!(result.faults, Vec::<String>::new(), "{}", w.name());
            assert_eq!((result.repetitions, result.failed), (2, 0));
            assert_eq!(result.attempted, 2 * instances, "quarter-size repetitions");
            let line = result.contract_line(&spec, false).expect("complete");
            assert!(line.starts_with("{\"correct\":true,"), "{line}");
            assert!(
                result.metrics.iter().all(|m| m.value > 0.0),
                "no end-to-end metric is ever 0"
            );
        }
    }

    #[test]
    fn floor_keeps_the_fastest_of_each_poll() {
        let _serial = crate::mesh::fsync_counter_lock();
        let Plan::Mesh(plan) = Workload::VaMesh.plan(true) else {
            unreachable!("va-mesh is a static workload")
        };
        let a = plan.run_rep(3, &NoProbe, None);
        let mut b = a.clone();
        for ns in b.poll_clock_ns.iter_mut().step_by(2) {
            *ns /= 2;
        }
        let mut cut_short = a.clone();
        cut_short.poll_clock_ns.truncate(1);
        cut_short.poll_clock_ns[0] = 0;
        let mut floor = Floor::default();
        for rep in [&a, &b, &cut_short] {
            floor.fold(rep);
        }
        let sum = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / 1e9;
        assert_eq!(
            floor.clock_s(),
            sum(&b.poll_clock_ns),
            "the incomplete repetition is left out"
        );
        assert!(floor.clock_s() < sum(&a.poll_clock_ns));
        // The polls of a repetition add up to its timed region, and the polls
        // a latency spans to that latency, give or take one poll.
        assert!((sum(&a.poll_clock_ns) - a.clock_s()).abs() < 0.01 * a.clock_s());
        let mut whole = Floor::default();
        whole.fold(&a);
        let p50 = stats::percentile(&sorted(a.latencies_ms.clone()), 50.0);
        assert!((whole.latency_ms(50.0) - p50).abs() < 0.1 * p50);
    }

    #[test]
    fn budget_runs_the_minimum_then_stops_when_the_next_would_not_fit() {
        let options = Options {
            seconds: Some(0.05),
            ..smoke_options("budget")
        };
        std::fs::remove_dir_all(&options.out_dir).expect("remove scratch dir");
        let with = |seconds, smoke| Options {
            seconds,
            smoke,
            ..options.clone()
        };
        let nine_s = Duration::from_secs(9);
        let budget = Budget::start(&with(Some(0.05), false), 1.0, 2, 30);
        assert!(
            budget.more(0, nine_s) && budget.more(1, nine_s),
            "the minimum always runs"
        );
        assert!(
            !budget.more(2, nine_s),
            "a 9 s repetition does not fit 50 ms"
        );
        let unlimited = Budget::start(&with(None, false), 1.0, 2, 30);
        assert!(unlimited.more(29, Duration::ZERO) && !unlimited.more(30, Duration::ZERO));
        let smoke = Budget::start(&options, 1.0, 2, 30);
        assert!(smoke.more(1, Duration::ZERO) && !smoke.more(2, Duration::ZERO));
        let plan = ClientPlan::standard(false);
        assert_eq!(
            open_reps(
                &plan,
                &Options {
                    seconds: Some(20.0),
                    smoke: false,
                    ..options.clone()
                },
                OPEN_SHARES[1]
            ),
            7
        );
    }
}
