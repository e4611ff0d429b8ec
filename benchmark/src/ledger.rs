//! The traced run: the per-layer ledger of one workload.
//!
//! The same drivers as the timed run, instantiated with
//! [`crate::trace::Tracer`], with kernel timing on and the counting
//! allocator installed; untraced repetitions of the same work alternate with
//! the traced ones, so that the tracing overhead is measured rather than
//! assumed. The ledger then splits the driver's wall time by layer:
//!
//! ```text
//! driver wall = Σ poll + Σ launch (+ Σ pump + Σ idle on client-open) + unattributed
//!      Σ poll + Σ launch = transport (send, flush, recv)
//!                        + fsync     (wal.fsync_us delta)
//!                        + WAL append (records × isolated append timing)
//!                        + kernel    (outermost geometry-kernel spans on the driver thread)
//!                        + codec     (frames × isolated encode/decode timings)
//!                        + protocol self (the rest: state machines, dispatch, scans)
//! ```
//!
//! Metrics of a layer a workload does not touch are reported as 0.

use std::time::{Duration, Instant};

use rbvc_obs::{HistSnapshot, Kernel, KernelStat, Registry};

use crate::check;
use crate::client::{ClientPlan, Load};
use crate::mesh::{Kind, MeshPlan};
use crate::micro;
use crate::probe::{Call, NoProbe};
use crate::report::{note, Measured, WorkloadResult};
use crate::run::{self, Budget, Options, PhaseTotals};
use crate::stats::{self, Better};
use crate::trace::{Totals, Tracer};
use crate::workloads::{Plan, Workload};

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const NAMES: [&str; 49] = [
    "service.poll_us_p50",
    "service.poll_us_p99",
    "service.polls_per_decision",
    "service.poll_busy_share",
    "service.idle_poll_ns_per_instance",
    "service.protocol_self_us_per_decision",
    "core.va_instance_cpu_us",
    "core.bvc_instance_cpu_us",
    "wire.encode_ns_per_frame",
    "wire.decode_ns_per_frame",
    "wire.bytes_per_frame",
    "wire.frames_per_decision",
    "alloc.count_per_decision",
    "alloc.bytes_per_decision",
    "geometry.delta_star_us",
    "geometry.delta_star_calls_per_decision",
    "geometry.wolfe_calls_per_delta_star",
    "geometry.lp_solve_us",
    "geometry.lp_calls_per_decision",
    "geometry.kernel_share",
    "store.fsyncs_per_decision",
    "store.fsync_us_p50",
    "store.fsync_us_p99",
    "store.append_us",
    "store.records_per_decision",
    "store.wal_bytes_per_decision",
    "store.group_commit_records",
    "store.fsync_share",
    "store.recover_ms",
    "store.replay_records_per_s",
    "store.open_scan_mb_per_s",
    "service.recover_replay_us",
    "tcp.send_flush_us_per_poll",
    "tcp.recv_us_per_poll",
    "tcp.one_hop_us",
    "inproc.one_hop_us",
    "auth.handshake_us",
    "auth.hmac_mb_per_s",
    "client.p50_ms_r100",
    "client.p95_ms_r100",
    "client.p50_ms_r300",
    "client.p99_ms_r300",
    "client.capacity_per_s",
    "client.pump_us_per_call",
    "client.submit_us",
    "client.instances_resident_at_end",
    "gen_late_p99_ms",
    "obs.trace_overhead_share",
    "ledger.unattributed_share",
];

/// The per-layer values of one run; everything starts at 0.
struct Ledger {
    values: Vec<(&'static str, f64)>,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            values: NAMES.iter().map(|&n| (n, 0.0)).collect(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("a listed per-layer metric");
        // A ratio with an empty denominator means the layer was not
        // exercised; it reads 0 like any other untouched layer.
        slot.1 = if value.is_finite() { value } else { 0.0 };
    }

    fn into_metrics(self) -> Vec<Measured> {
        self.values
            .into_iter()
            .map(|(n, v)| Measured::single(n, v))
            .collect()
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b as f64
}

/// A registry histogram's growth between two snapshots.
fn hist_delta(after: &HistSnapshot, before: &HistSnapshot) -> HistSnapshot {
    HistSnapshot {
        buckets: after
            .buckets
            .iter()
            .zip(&before.buckets)
            .map(|(a, b)| a - b)
            .collect(),
        count: after.count - before.count,
        sum: after.sum - before.sum,
        min: after.min,
        max: after.max,
    }
}

/// The `rbvc-store` registry series the ledger reads.
struct StoreCounters {
    fsync_us: HistSnapshot,
    group_commit: HistSnapshot,
    appends: u64,
}

impl StoreCounters {
    fn read() -> StoreCounters {
        let reg = Registry::global();
        StoreCounters {
            fsync_us: reg.histogram("wal.fsync_us").snapshot(),
            group_commit: reg.histogram("wal.group_commit.records").snapshot(),
            appends: reg.counter("wal.append.records").get(),
        }
    }

    /// `self` (later) minus `before`, accumulated into `total`.
    fn add_growth_to(&self, before: &StoreCounters, total: &mut StoreCounters) {
        total
            .fsync_us
            .merge(&hist_delta(&self.fsync_us, &before.fsync_us));
        total
            .group_commit
            .merge(&hist_delta(&self.group_commit, &before.group_commit));
        total.appends += self.appends - before.appends;
    }

    fn zero() -> StoreCounters {
        StoreCounters {
            fsync_us: HistSnapshot::default(),
            group_commit: HistSnapshot::default(),
            appends: 0,
        }
    }
}

fn kernel(stats: &[KernelStat], which: Kernel) -> KernelStat {
    *stats
        .iter()
        .find(|k| k.kernel == which)
        .expect("every kernel is in the snapshot")
}

/// Time the ledger attributes from counts and isolated timings rather than
/// from spans.
struct Derived {
    /// `wal.fsync_us` growth over the traced regions.
    fsync_ns: u64,
    /// Records appended × the isolated `Wal::append` timing.
    append_ns: f64,
    /// The isolated codec timings.
    codec: micro::Codec,
}

impl Derived {
    fn codec_ns(&self, t: &Totals) -> f64 {
        t.sends as f64 * self.codec.encode_ns + t.frames_received as f64 * self.codec.decode_ns
    }
}

fn transport_ns(t: &Totals) -> u64 {
    t.send_ns + t.calls[Call::Flush.index()].total_ns + t.calls[Call::Recv.index()].total_ns
}

/// The rows every workload shares: service, wire, alloc, geometry, and the
/// reconciliation. `top_level_ns` is the in-region time of the driver
/// thread's outermost spans.
fn common_rows(
    ledger: &mut Ledger,
    t: &Totals,
    decisions: usize,
    kernels: &[KernelStat],
    derived: &Derived,
    top_level_ns: u64,
) {
    let Derived {
        fsync_ns,
        append_ns,
        codec,
    } = derived;
    let decisions = decisions as u64;
    let wall_ns: u64 = t.regions.iter().map(|r| r.wall_ns).sum();
    let kernel_ns: u64 = t.regions.iter().map(|r| r.kernel_ns).sum();
    let poll = t.calls[Call::Poll.index()];
    let launch = t.calls[Call::Launch.index()];
    let polls = stats::sorted(t.poll_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
    ledger.set("service.poll_us_p50", stats::percentile(&polls, 50.0));
    ledger.set("service.poll_us_p99", stats::percentile(&polls, 99.0));
    ledger.set("service.polls_per_decision", ratio(poll.count, decisions));
    ledger.set("service.poll_busy_share", ratio(t.busy_poll_ns, wall_ns));

    let protocol_self_ns = (poll.total_ns + launch.total_ns) as f64
        - (transport_ns(t) + fsync_ns + kernel_ns) as f64
        - derived.codec_ns(t)
        - append_ns;
    ledger.set(
        "service.protocol_self_us_per_decision",
        protocol_self_ns / 1e3 / decisions as f64,
    );

    ledger.set("wire.encode_ns_per_frame", codec.encode_ns);
    ledger.set("wire.decode_ns_per_frame", codec.decode_ns);
    ledger.set("wire.bytes_per_frame", ratio(t.send_bytes, t.sends));
    ledger.set("wire.frames_per_decision", ratio(t.sends, decisions));

    ledger.set(
        "alloc.count_per_decision",
        ratio(t.regions.iter().map(|r| r.allocs).sum(), decisions),
    );
    ledger.set(
        "alloc.bytes_per_decision",
        ratio(t.regions.iter().map(|r| r.alloc_bytes).sum(), decisions),
    );

    let (psi, wolfe, lp) = (
        kernel(kernels, Kernel::PsiOracle),
        kernel(kernels, Kernel::WolfeNearest),
        kernel(kernels, Kernel::LpSolve),
    );
    ledger.set("geometry.delta_star_us", psi.mean_us());
    ledger.set(
        "geometry.delta_star_calls_per_decision",
        ratio(psi.calls, decisions),
    );
    ledger.set(
        "geometry.wolfe_calls_per_delta_star",
        ratio(wolfe.calls, psi.calls),
    );
    ledger.set("geometry.lp_solve_us", lp.mean_us());
    ledger.set("geometry.lp_calls_per_decision", ratio(lp.calls, decisions));
    ledger.set("geometry.kernel_share", ratio(kernel_ns, wall_ns));

    ledger.set("store.fsync_share", ratio(*fsync_ns, wall_ns));
    ledger.set(
        "ledger.unattributed_share",
        1.0 - ratio(top_level_ns, wall_ns),
    );
}

/// The human-readable ledger, and the spans written out: `trace.jsonl` in
/// the output directory (a failure to write it is a fault of the run).
fn ledger_notes(
    tracer: &Tracer,
    w: Workload,
    options: &Options,
    derived: &Derived,
    faults: &mut Vec<String>,
) -> Vec<(String, String)> {
    let t = tracer.totals();
    let wall_ns: u64 = t.regions.iter().map(|r| r.wall_ns).sum();
    let share = |ns: f64| format!("{:.1} %", 100.0 * ns / wall_ns as f64);
    let kernel_ns: u64 = t.regions.iter().map(|r| r.kernel_ns).sum();
    let mut notes = vec![
        note(
            "traced driver wall",
            format!(
                "{:.3} s over {} regions",
                wall_ns as f64 / 1e9,
                t.regions.len()
            ),
        ),
        note(
            "share: transport send+flush+recv",
            share(transport_ns(&t) as f64),
        ),
        note("share: fsync", share(derived.fsync_ns as f64)),
        note(
            "share: WAL append (records × micro-timing)",
            share(derived.append_ns),
        ),
        note("share: geometry kernels", share(kernel_ns as f64)),
        note(
            "share: codec (frames × micro-timing)",
            share(derived.codec_ns(&t)),
        ),
    ];
    for call in Call::ALL {
        let c = t.calls[call.index()];
        if c.count > 0 {
            notes.push(note(
                format!("span {}", call.as_str()),
                format!(
                    "{} in region, total {}, self {}",
                    c.count,
                    share(c.total_ns as f64),
                    share(c.self_ns() as f64)
                ),
            ));
        }
    }
    let trace_path = options.out_dir.join("trace.jsonl");
    match tracer.write_jsonl(&trace_path, w.name()) {
        Ok(()) => notes.push(note("spans written to", trace_path.display().to_string())),
        Err(e) => faults.push(format!("cannot write {}: {e}", trace_path.display())),
    }
    notes
}

/// The traced run of a static workload.
fn traced_mesh(w: Workload, plan: &MeshPlan, options: &Options) -> WorkloadResult {
    let tracer = Tracer::new();
    // The isolated micro-timings at the end need their share of the budget.
    let budget = Budget::start(options, 0.8, 1, (w.default_reps() / 6).max(1));
    let mut store = StoreCounters::zero();
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let (mut recover_ms, mut fsyncs) = (Vec::new(), 0u64);
    let (mut replayed, mut wal_bytes) = (0u64, 0u64);
    let (mut faults, mut failed) = (Vec::new(), 0usize);
    let mut fingerprints = Vec::new();
    let mut pairs = 0usize;
    let mut last = Duration::ZERO;
    rbvc_obs::reset_kernel_timers();
    while budget.more(pairs, last) {
        let t_pair = Instant::now();
        for traced in [false, true] {
            rbvc_obs::set_kernel_timing(traced);
            let before = StoreCounters::read();
            let (rep, verdict) = if traced {
                run::mesh_rep(plan, options, pairs, &tracer)
            } else {
                run::mesh_rep(plan, options, pairs, &NoProbe)
            };
            if traced {
                traced_wall.push(rep.wall_s);
                StoreCounters::read().add_growth_to(&before, &mut store);
                if let Some(restart) = &rep.restart {
                    replayed += restart.records;
                    wal_bytes += restart.wal_bytes;
                }
            } else {
                plain_wall.push(rep.wall_s);
                fsyncs = rep.fingerprint.fsyncs;
                recover_ms.extend(rep.restart.as_ref().map(|r| r.recover_ms));
            }
            fingerprints.push(rep.fingerprint);
            if let Err(found) = verdict {
                failed += plan.instances;
                faults.extend(found.into_iter().take(5));
            }
        }
        rbvc_obs::set_kernel_timing(false);
        pairs += 1;
        last = t_pair.elapsed();
    }
    let kernels = rbvc_obs::kernel_snapshot();
    if let Err(e) = check::check_determinism(&fingerprints) {
        failed = 2 * pairs * plan.instances;
        faults.push(e);
    }

    let t = tracer.totals();
    let decisions = pairs * plan.instances;
    let append_us = if plan.durable {
        let record_len = usize::try_from(wal_bytes / replayed.max(1)).unwrap_or(64);
        micro::wal_append_us(&options.out_dir, record_len)
    } else {
        0.0
    };
    let derived = Derived {
        fsync_ns: store.fsync_us.sum * 1000,
        append_ns: store.appends as f64 * append_us * 1e3,
        codec: micro::codec(&tracer.captured_frames()),
    };
    let top_level_ns =
        t.calls[Call::Poll.index()].total_ns + t.calls[Call::Launch.index()].total_ns;
    let mut ledger = Ledger::new();
    common_rows(&mut ledger, &t, decisions, &kernels, &derived, top_level_ns);
    let best = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
    ledger.set(
        "obs.trace_overhead_share",
        best(&traced_wall) / best(&plain_wall) - 1.0,
    );

    let has = |kind: Kind| (0..plan.instances).any(|k| plan.kind(k) == kind);
    if has(Kind::Va) {
        ledger.set(
            "core.va_instance_cpu_us",
            micro::core_instance_us(plan, Kind::Va),
        );
    }
    if has(Kind::Bvc) {
        ledger.set(
            "core.bvc_instance_cpu_us",
            micro::core_instance_us(plan, Kind::Bvc),
        );
    }
    if w == Workload::VaMesh {
        ledger.set(
            "service.idle_poll_ns_per_instance",
            micro::idle_poll_ns_per_instance(),
        );
    }
    if plan.durable {
        let open = t.outside[Call::WalOpen.index()];
        let recover = t.outside[Call::Recover.index()];
        ledger.set(
            "store.fsyncs_per_decision",
            ratio(fsyncs, plan.instances as u64),
        );
        ledger.set("store.fsync_us_p50", store.fsync_us.percentile(50.0));
        ledger.set("store.fsync_us_p99", store.fsync_us.percentile(99.0));
        ledger.set(
            "store.records_per_decision",
            ratio(store.appends, decisions as u64),
        );
        ledger.set(
            "store.wal_bytes_per_decision",
            ratio(wal_bytes, decisions as u64),
        );
        ledger.set("store.group_commit_records", store.group_commit.mean());
        ledger.set("store.recover_ms", stats::best(&recover_ms, Better::Lower));
        ledger.set(
            "store.replay_records_per_s",
            replayed as f64 / (recover.total_ns as f64 / 1e9),
        );
        ledger.set(
            "store.open_scan_mb_per_s",
            wal_bytes as f64 / 1e6 / (open.total_ns as f64 / 1e9),
        );
        ledger.set(
            "service.recover_replay_us",
            recover.total_ns as f64 / 1e3 / recover.count as f64,
        );
        ledger.set("store.append_us", append_us);
    }

    let notes = ledger_notes(&tracer, w, options, &derived, &mut faults);
    WorkloadResult {
        workload: w.name(),
        repetitions: 2 * pairs,
        attempted: 2 * pairs * plan.instances,
        failed,
        faults,
        metrics: ledger.into_metrics(),
        notes,
    }
}

/// The traced run of `client-open`.
fn traced_client(w: Workload, plan: &ClientPlan, options: &Options) -> WorkloadResult {
    let tracer = Tracer::new();
    let seed = options.seed;
    let [r0, r1] = plan.rates;
    // With a budget: four untraced repetitions per rate for the user-visible
    // latencies (enough samples for the p95 and p99 the rows name), two
    // traced at the heavier rate for the ledger, and the rest in closed-loop
    // pairs.
    let open_reps = if options.seconds.is_some() {
        4
    } else {
        run::open_reps(plan, options, run::OPEN_SHARES[1])
    };
    let open = |rate: f64, base: u64| {
        run::client_phase(
            plan,
            &Load::Open { rate },
            &format!("{rate}/s"),
            base,
            seed,
            &NoProbe,
            |done, _| done < open_reps,
        )
    };
    let (light, heavy) = (open(r0, 0), open(r1, 100));
    rbvc_obs::reset_kernel_timers();
    rbvc_obs::set_kernel_timing(true);
    let heavy_traced = run::client_phase(
        plan,
        &Load::Open { rate: r1 },
        "traced open loop",
        150,
        seed,
        &tracer,
        |done, _| done < 2,
    );
    rbvc_obs::set_kernel_timing(false);

    let spent = (2 * open_reps + 2) as f64 * plan.open_duration.as_secs_f64();
    let share = options
        .seconds
        .map_or(1.0, |s| ((s * 0.85 - spent) / s).max(0.05));
    let budget = Budget::start(options, share, 2, (w.default_reps() / 3).max(2));
    let mut closed = PhaseTotals::default();
    let mut closed_traced = PhaseTotals::default();
    let mut pairs = 0usize;
    let mut last = Duration::ZERO;
    while budget.more(pairs, last) {
        let t_pair = Instant::now();
        closed.add(
            plan,
            "closed loop",
            crate::client::run_rep(plan, &Load::Closed, seed, 200, &NoProbe),
        );
        rbvc_obs::set_kernel_timing(true);
        let rep = crate::client::run_rep(plan, &Load::Closed, seed, 200, &tracer);
        rbvc_obs::set_kernel_timing(false);
        closed_traced.add(plan, "traced closed loop", rep);
        pairs += 1;
        last = t_pair.elapsed();
    }
    let kernels = rbvc_obs::kernel_snapshot();

    let t = tracer.totals();
    let decisions = heavy_traced.attempted + closed_traced.attempted;
    let derived = Derived {
        fsync_ns: 0,
        append_ns: 0.0,
        codec: micro::codec(&tracer.captured_frames()),
    };
    let call = |c: Call| t.calls[c.index()];
    let top_level_ns = [Call::Poll, Call::Pump, Call::Idle]
        .iter()
        .map(|&c| call(c).total_ns)
        .sum();
    let mut ledger = Ledger::new();
    common_rows(&mut ledger, &t, decisions, &kernels, &derived, top_level_ns);
    let best = |rates: &[f64]| rates.iter().copied().fold(0.0, f64::max);
    ledger.set(
        "obs.trace_overhead_share",
        best(&closed.rate) / best(&closed_traced.rate) - 1.0,
    );

    let us_per = |total_ns: u64, count: u64| total_ns as f64 / 1e3 / count as f64;
    let polls = call(Call::Poll).count;
    ledger.set(
        "tcp.send_flush_us_per_poll",
        us_per(t.send_ns + call(Call::Flush).total_ns, polls),
    );
    ledger.set(
        "tcp.recv_us_per_poll",
        us_per(call(Call::Recv).total_ns, polls),
    );
    ledger.set(
        "client.pump_us_per_call",
        us_per(call(Call::Pump).total_ns, call(Call::Pump).count),
    );
    ledger.set(
        "client.submit_us",
        us_per(call(Call::Submit).total_ns, call(Call::Submit).count),
    );
    ledger.set("client.instances_resident_at_end", closed.resident as f64);

    ledger.set("client.p50_ms_r100", light.floor_percentile(50.0));
    ledger.set("client.p95_ms_r100", light.floor_percentile(95.0));
    ledger.set("client.p50_ms_r300", heavy.floor_percentile(50.0));
    ledger.set("client.p99_ms_r300", heavy.pooled_percentile(99.0));
    ledger.set("client.capacity_per_s", best(&closed.rate));
    ledger.set("gen_late_p99_ms", run::late_p99_ms(&light, &heavy));

    ledger.set(
        "service.idle_poll_ns_per_instance",
        micro::idle_poll_ns_per_instance(),
    );
    ledger.set(
        "core.va_instance_cpu_us",
        micro::client_instance_us(plan, seed),
    );
    ledger.set(
        "inproc.one_hop_us",
        micro::one_hop_us(rbvc_transport::in_proc_mesh(2)),
    );
    match rbvc_transport::tcp_mesh_loopback(2) {
        Ok(mesh) => ledger.set("tcp.one_hop_us", micro::one_hop_us(mesh)),
        Err(e) => eprintln!("tcp.one_hop_us not measured: {e}"),
    }
    ledger.set("auth.handshake_us", micro::auth_handshake_us(plan.n));
    ledger.set("auth.hmac_mb_per_s", micro::hmac_mb_per_s());

    let phases = [&light, &heavy, &heavy_traced, &closed, &closed_traced];
    let mut faults: Vec<String> = phases
        .iter()
        .flat_map(|p| p.faults.iter().cloned())
        .collect();
    let mut notes = ledger_notes(&tracer, w, options, &derived, &mut faults);
    notes.push(note(
        "traced repetitions",
        format!("2 open loop at {r1}/s, {pairs} closed loop (beside as many untraced)"),
    ));
    WorkloadResult {
        workload: w.name(),
        repetitions: phases.iter().map(|p| p.repetitions).sum(),
        attempted: phases.iter().map(|p| p.attempted).sum(),
        failed: phases.iter().map(|p| p.failed).sum(),
        faults,
        metrics: ledger.into_metrics(),
        notes,
    }
}

/// The traced run of `w`.
///
/// # Panics
/// Only on a harness or environment failure (see the drivers).
pub fn traced(w: Workload, options: &Options) -> WorkloadResult {
    match w.plan(options.smoke) {
        Plan::Mesh(plan) => traced_mesh(w, &plan, options),
        Plan::Client(plan) => traced_client(w, &plan, options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Spec;

    #[test]
    fn names_are_exactly_the_per_layer_metrics_of_benchmark_json() {
        let spec = Spec::builtin();
        let listed: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(listed, NAMES);
    }

    #[test]
    fn traced_smoke_run_fills_the_ledger_and_writes_the_trace() {
        let _serial = crate::mesh::fsync_counter_lock();
        let out_dir =
            std::env::temp_dir().join(format!("rbvc-bench-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&out_dir).expect("scratch dir");
        let options = Options {
            seed: 3,
            seconds: None,
            smoke: true,
            out_dir,
        };
        let result = traced(Workload::VaMesh, &options);
        let trace =
            std::fs::read_to_string(options.out_dir.join("trace.jsonl")).expect("trace written");
        std::fs::remove_dir_all(&options.out_dir).expect("remove scratch dir");
        assert_eq!(result.faults, Vec::<String>::new());
        result
            .contract_line(&Spec::builtin(), true)
            .expect("every per-layer metric, no other");
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|m| m.name == name)
                .expect("listed")
                .value
        };
        assert!(value("service.poll_us_p50") > 0.0 && value("wire.frames_per_decision") > 0.0);
        assert!(value("wire.decode_ns_per_frame") > 0.0 && value("core.va_instance_cpu_us") > 0.0);
        // The bypass prediction: geometry is a small share of this workload,
        // and it never touches the store.
        assert!(value("geometry.kernel_share") < 0.15 && value("store.fsync_share") == 0.0);
        let unattributed = value("ledger.unattributed_share");
        assert!((0.0..0.15).contains(&unattributed), "{unattributed}");
        assert!(trace.lines().count() > 100 && trace.starts_with("{\"t\":\"header\""));
    }
}
