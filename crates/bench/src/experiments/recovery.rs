//! E18 — crash-recovery campaign: seeded kill/restart of a durable
//! consensus service, with WAL corruption injection.
//!
//! Each seeded run picks a victim node and a kill point, runs an
//! uninterrupted in-process baseline, then replays the same configuration
//! over an authenticated loopback TCP mesh where every node writes through
//! an `rbvc-store` WAL. Mid-run the victim's service is dropped on the
//! floor (sockets close, listener dies), its log is optionally corrupted
//! (torn-tail truncation or a random bit flip past the magic — the
//! recovery contract is longest-valid-prefix, never a panic), and the node
//! is rebuilt with [`ConsensusService::recover`] on a fresh endpoint bound
//! to the same address, re-dialing the mesh with the keyed handshake. The
//! campaign asserts, per run:
//!
//! * the mesh still converges (every instance decides on every node);
//! * decisions are **bit-identical** to the uninterrupted baseline;
//! * the online monitor stays clean at `ε = 0` with exact validity —
//!   in particular the restarted node never re-decides differently
//!   (amnesia-freedom);
//! * replay reports zero divergences (the regenerated outbound stream
//!   FIFO-matches the logged one, and pinned decisions match the replayed
//!   state machines).
//!
//! The instance mix is Verified Averaging at `f = 0` only: that regime's
//! decisions are delivery-order independent, which is what makes the
//! bit-identity assertion meaningful across a kill/restart (the lockstep
//! SyncBvc round-timeout path is wall-clock driven and would diverge
//! legitimately when a peer stalls).

use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::Rng;
use rbvc_linalg::VecD;
use rbvc_store::Wal;
use rbvc_transport::service::ConsensusService;
use rbvc_transport::tcp::TcpEndpoint;
use serde_json::json;

use crate::campaign::{gate, mesh_seed, sweep, Args, MeshProfile, Proto, Report, Scenario};
use crate::report::fnum;
use crate::workloads::rng;

/// The E18 scenario entry.
pub const SCENARIO: Scenario = Scenario {
    name: "recovery",
    id: "E18",
    title: "crash-recovery campaign",
    flags: &["--runs N"],
    metrics_probe: &[],
    run,
};

const PROTO: Proto = Proto::Va { f: 0 };
/// Sweep budget per mesh phase before a run is declared stuck.
const MAX_SWEEPS: usize = 20_000;

/// Campaign shape.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Mesh shape; `rounds` is high enough that convergence takes several
    /// poll sweeps, so the kill lands mid-round.
    pub mesh: MeshProfile,
    /// Seeded kill/restart runs.
    pub runs: usize,
    /// Corrupt the victim's WAL on every `corrupt_every`-th run (0 never).
    pub corrupt_every: usize,
}

impl RecoveryConfig {
    /// The full profile (50 runs on a 4-node mesh) or the CI smoke profile
    /// (6 runs on 3 nodes).
    #[must_use]
    pub fn profile(smoke: bool, seed: u64) -> Self {
        let (n, instances, rounds, runs) = if smoke { (3, 2, 4, 6) } else { (4, 3, 6, 50) };
        let poll_timeout = Duration::from_millis(1);
        RecoveryConfig {
            mesh: MeshProfile { n, f: 0, d: 2, instances, rounds, seed, poll_timeout },
            runs,
            corrupt_every: 3,
        }
    }
}

/// Aggregate campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct RecoveryOutcome {
    /// Runs executed.
    pub runs: usize,
    /// Runs whose victim's WAL was corrupted before recovery.
    pub corrupted_runs: usize,
    /// Corrupted runs where replay actually discarded a torn tail.
    pub torn_runs: usize,
    /// Runs whose final decisions were bit-identical to the baseline.
    pub identical_runs: usize,
    /// Runs that converged (every instance decided on every node).
    pub converged_runs: usize,
    /// Safety violations across all runs (must be 0).
    pub monitor_violations: usize,
    /// Replay divergences across all runs (must be 0).
    pub replay_divergences: u64,
    /// WAL records replayed across all recoveries.
    pub replay_records: u64,
    /// Bytes discarded as torn tails across all recoveries.
    pub torn_bytes: u64,
    /// Total wall time spent inside `ConsensusService::recover`.
    pub recover_us_total: u64,
    /// fsyncs issued across the campaign (`wal.fsync` delta).
    pub fsyncs: u64,
    /// Campaign wall time.
    pub wall_secs: f64,
}

impl RecoveryOutcome {
    /// Replay throughput over the campaign's recoveries.
    #[must_use]
    pub fn replay_records_per_sec(&self) -> f64 {
        if self.recover_us_total == 0 {
            return 0.0;
        }
        self.replay_records as f64 / (self.recover_us_total as f64 / 1e6)
    }
}

fn va_spec(input: &VecD) -> Vec<u8> {
    input.as_slice().iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn va_from_spec(spec: &[u8]) -> VecD {
    VecD(spec
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect())
}

/// Corrupt a WAL file the way a crash does: damage the **tail**. Either a
/// torn-tail truncation (the final write cut short) or a single bit flip
/// within the last few dozen bytes (a partially-flushed sector). Both leave
/// a long valid prefix, which is the recovery contract — a flip in the
/// *middle* of the log would legitimately discard everything after it
/// (including instance registrations), and prefix replay cannot mask that;
/// it is detected, not recovered from.
fn corrupt_wal(path: &Path, rng: &mut rand::rngs::StdRng) {
    let Ok(mut data) = std::fs::read(path) else { return };
    if data.len() <= 9 {
        return;
    }
    if rng.gen_bool(0.5) {
        // Torn tail: the crash cut the final write short.
        let cut = rng.gen_range(1..=24.min(data.len() - 8));
        data.truncate(data.len() - cut);
    } else {
        // Tail-sector bit rot: one flipped bit near the end of the file.
        let tail_start = data.len().saturating_sub(32).max(8);
        let off = rng.gen_range(tail_start..data.len());
        data[off] ^= 1 << rng.gen_range(0..8u32);
    }
    std::fs::write(path, &data).expect("rewrite corrupted wal");
}

/// Facts gathered from one seeded kill/restart run.
struct RunFacts {
    converged: bool,
    identical: bool,
    violations: usize,
    divergences: u64,
    replay_records: u64,
    torn_bytes: u64,
    recover_us: u64,
    corrupted: bool,
}

fn one_run(cfg: &RecoveryConfig, run: usize, dir: &Path) -> RunFacts {
    let mesh = &cfg.mesh;
    let mut rand = rng(mesh.run_seed(run));
    let inputs = mesh.inputs(&mut rand);
    let victim = rand.gen_range(0..mesh.n);
    let kill_at = rand.gen_range(1..=4usize);
    let corrupted = cfg.corrupt_every != 0 && run % cfg.corrupt_every == cfg.corrupt_every - 1;

    let baseline = mesh.baseline(PROTO, &inputs, &[], MAX_SWEEPS);

    // Durable authenticated TCP mesh.
    let key = mesh_seed(mesh.run_seed(run));
    let (endpoints, addrs) = mesh.tcp_mesh(&key);
    let wal_path = |i: usize| dir.join(format!("node{i}.wal"));
    let mut services: Vec<Option<ConsensusService<TcpEndpoint>>> = endpoints
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            let mut svc = ConsensusService::new(ep);
            svc.enable_auth();
            svc.attach_wal(Wal::open(wal_path(i)).expect("open wal").0);
            for (k, per_node) in inputs.iter().enumerate() {
                let input = &per_node[i];
                svc.add_instance_durable(
                    k as u64 + 1,
                    mesh.instance(PROTO, i, input.clone()),
                    va_spec(input),
                )
                .expect("register durable");
            }
            svc.start().expect("start");
            Some(svc)
        })
        .collect();

    let mut monitor = mesh.monitor(|_| PROTO, 0.0, Some(&inputs));
    let (mut divergences, mut replay_records, mut torn_bytes, mut recover_us) = (0, 0, 0, 0);
    let converged = sweep(&mut services, MAX_SWEEPS, |sweep, i, slot| {
        if sweep == kill_at && i == victim {
            // Kill: service, WAL handle, sockets, listener all drop.
            drop(slot.take());
            if corrupted {
                corrupt_wal(&wal_path(victim), &mut rand);
            }
            let (wal, report) = Wal::open(wal_path(victim)).expect("reopen wal");
            replay_records += report.records.len() as u64;
            torn_bytes += report.torn_bytes;
            let listener = TcpListener::bind(addrs[victim]).expect("rebind victim addr");
            let endpoint = TcpEndpoint::connect_with_auth(victim, listener, &addrs, &key)
                .expect("re-dial mesh");
            let t0 = Instant::now();
            let mut svc = ConsensusService::recover(endpoint, wal, &report, |_, spec| {
                Ok(mesh.instance(PROTO, victim, va_from_spec(spec)))
            })
            .expect("recover");
            recover_us += u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            svc.enable_auth();
            divergences += svc.replay_divergences();
            for ev in svc.recovered_decisions() {
                monitor.observe(ev.instance, victim, &ev.value);
            }
            *slot = Some(svc);
        }
        let svc = slot.as_mut().expect("the victim's slot is refilled at once");
        for ev in svc.poll(mesh.poll_timeout) {
            monitor.observe(ev.instance, i, &ev.value);
        }
        svc.all_decided() && sweep >= kill_at
    });

    // Bit-identity against the uninterrupted baseline, node by node.
    let identical = converged
        && baseline.is_some_and(|oracle| {
            services.iter().flatten().zip(&oracle).all(|(svc, want)| mesh.decisions(svc) == *want)
        });
    RunFacts {
        converged,
        identical,
        violations: monitor.alerts().len(),
        divergences,
        replay_records,
        torn_bytes,
        recover_us,
        corrupted,
    }
}

/// Run the campaign; per-run scratch WALs live under a private temp dir.
#[must_use]
pub fn run_campaign(cfg: &RecoveryConfig) -> RecoveryOutcome {
    let scratch = std::env::temp_dir().join(format!(
        "rbvc-exp-recovery-{}-{}",
        std::process::id(),
        cfg.mesh.seed
    ));
    let fsyncs = rbvc_obs::Registry::global().counter("wal.fsync");
    let fsyncs_before = fsyncs.get();
    let t0 = Instant::now();
    let mut out = RecoveryOutcome { runs: cfg.runs, ..RecoveryOutcome::default() };
    for run in 0..cfg.runs {
        let dir = scratch.join(format!("run{run}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk run dir");
        let facts = one_run(cfg, run, &dir);
        if !facts.converged || !facts.identical || facts.violations > 0 || facts.divergences > 0 {
            eprintln!(
                "run {run}: converged={} identical={} violations={} divergences={} corrupted={}",
                facts.converged, facts.identical, facts.violations, facts.divergences,
                facts.corrupted
            );
        }
        out.corrupted_runs += usize::from(facts.corrupted);
        out.torn_runs += usize::from(facts.torn_bytes > 0);
        out.identical_runs += usize::from(facts.identical);
        out.converged_runs += usize::from(facts.converged);
        out.monitor_violations += facts.violations;
        out.replay_divergences += facts.divergences;
        out.replay_records += facts.replay_records;
        out.torn_bytes += facts.torn_bytes;
        out.recover_us_total += facts.recover_us;
    }
    let _ = std::fs::remove_dir_all(&scratch);
    out.fsyncs = fsyncs.get().saturating_sub(fsyncs_before);
    out.wall_secs = t0.elapsed().as_secs_f64();
    out
}

fn run(args: &Args) -> Report {
    let mut cfg = RecoveryConfig::profile(args.smoke, args.seed);
    cfg.runs = args.runs.unwrap_or(cfg.runs);
    println!(
        "{} seeded kill/restart runs on a {}-node durable authenticated loopback TCP mesh \
         ({} VA instances per run, WAL corruption every {} runs)",
        cfg.runs, cfg.mesh.n, cfg.mesh.instances, cfg.corrupt_every
    );
    report(&cfg, &run_campaign(&cfg))
}

fn report(cfg: &RecoveryConfig, out: &RecoveryOutcome) -> Report {
    let runs = out.runs;
    Report {
        headers: vec![
            "runs", "converged", "identical", "corrupted", "torn", "violations", "divergences",
            "replayed recs", "recs/s replay", "fsyncs", "wall s",
        ],
        rows: vec![vec![
            runs.to_string(),
            out.converged_runs.to_string(),
            out.identical_runs.to_string(),
            out.corrupted_runs.to_string(),
            out.torn_runs.to_string(),
            out.monitor_violations.to_string(),
            out.replay_divergences.to_string(),
            out.replay_records.to_string(),
            fnum(out.replay_records_per_sec()),
            out.fsyncs.to_string(),
            fnum(out.wall_secs),
        ]],
        notes: Vec::new(),
        payload: json!({
            "n": cfg.mesh.n,
            "dimension": cfg.mesh.d,
            "va_rounds": cfg.mesh.rounds,
            "instances_per_run": cfg.mesh.instances,
            "corrupt_every": cfg.corrupt_every,
            "runs": runs,
            "converged_runs": out.converged_runs,
            "identical_runs": out.identical_runs,
            "corrupted_runs": out.corrupted_runs,
            "torn_runs": out.torn_runs,
            "replay_divergences": out.replay_divergences,
            "replay": json!({
                "records": out.replay_records,
                "torn_bytes": out.torn_bytes,
                "recover_us_total": out.recover_us_total,
                "records_per_sec": out.replay_records_per_sec(),
            }),
            "wal_fsyncs": out.fsyncs,
            "wall_secs": out.wall_secs,
            "baseline_identical": out.identical_runs == runs,
        }),
        gates: vec![
            gate(
                out.converged_runs == runs,
                format!(
                    "{}/{runs} runs failed to reconverge after recovery",
                    runs - out.converged_runs
                ),
            ),
            gate(
                out.identical_runs == runs,
                format!(
                    "{}/{runs} runs diverged from the uninterrupted baseline",
                    runs - out.identical_runs
                ),
            ),
            gate(
                out.replay_divergences == 0,
                format!("{} WAL replay divergence(s)", out.replay_divergences),
            ),
        ],
    }
    .with_monitor(out.monitor_violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-run micro-campaign (one of them corrupted) must stay clean and
    /// report the committed artefact's keys.
    #[test]
    fn micro_campaign_is_clean() {
        let mut cfg = RecoveryConfig::profile(true, 99);
        cfg.runs = 2;
        cfg.corrupt_every = 2;
        let out = run_campaign(&cfg);
        assert_eq!(out.converged_runs, 2, "both runs converge");
        assert_eq!(out.identical_runs, 2, "decisions match the baseline");
        assert_eq!(out.monitor_violations, 0);
        assert_eq!(out.replay_divergences, 0);
        assert_eq!(out.corrupted_runs, 1);
        assert!(out.replay_records > 0);
        assert!(out.fsyncs > 0, "durable runs must fsync");
        let report = report(&cfg, &out);
        assert!(report.gates.iter().all(|g| g.ok), "{:?}", report.gates);
        crate::campaign::assert_keys_match_committed(
            &SCENARIO,
            report.payload,
            include_str!("../../../../BENCH_recovery.json"),
        );
    }
}
