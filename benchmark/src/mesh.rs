//! The static-instance load driver: one thread owns all `n`
//! [`ConsensusService`]s of an in-process mesh and sweeps
//! `poll(Duration::ZERO)` over them round-robin, keeping a closed-loop
//! window of launched instances per node (launch the next on a local
//! decide — the E17 rule). With no thread per node and zero injected
//! delay, a repetition is a seeded deterministic schedule: polls, frames,
//! bytes, fsyncs and decisions repeat exactly, which the determinism
//! self-test in [`crate::check`] relies on.

use std::path::Path;
use std::time::{Duration, Instant};

use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
use rbvc_core::{DecisionRule, SyncBvc};
use rbvc_linalg::{Norm, Tol, VecD};
use rbvc_obs::Registry;
use rbvc_sim::error::ProtocolError;
use rbvc_store::Wal;
use rbvc_transport::{
    in_proc_mesh, ConsensusService, InProcEndpoint, InstanceProto, Lockstep, Transport,
};

use crate::gen;
use crate::probe::{Call, Probe};

/// Protocol of one instance slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Relaxed Verified Averaging (asynchronous).
    Va,
    /// SyncBvc with ALGO's `MinDeltaPoint` rule under the lockstep
    /// synchronizer.
    Bvc,
}

/// Which slots run which protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every instance is Verified Averaging.
    AllVa,
    /// Every instance is SyncBvc.
    AllBvc,
    /// Every third instance is SyncBvc, the rest Verified Averaging (E17's
    /// mix).
    EveryThirdBvc,
}

/// Where the instance inputs come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inputs {
    /// Every slot draws fresh inputs from the benchmark seed.
    PerSeed,
    /// The slots hold a fixed pool of inputs, the same for every benchmark
    /// seed. For workloads whose cost is set by the inputs rather than by
    /// the code: one general δ* solve takes 20 to 500 ms depending on the
    /// point set (and is not even invariant under rotating it), so with
    /// fresh inputs per seed the seed, not the program, would decide the
    /// reported rate (2.0 to 3.2 decided/s over three seeds); and with 16
    /// instances and a window of 4 even the order of a fixed pool moves the
    /// median latency by ±10 %, so the order is fixed too.
    FixedPool,
}

/// One static workload: the mesh, the instances, and how they are fed.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshPlan {
    /// Mesh size.
    pub n: usize,
    /// Fault bound every instance is configured with.
    pub f: usize,
    /// Input dimension.
    pub d: usize,
    /// Protocol mix.
    pub mix: Mix,
    /// Input source.
    pub inputs: Inputs,
    /// Averaging rounds of a Verified-Averaging instance.
    pub va_rounds: usize,
    /// Instances per repetition, all registered up front.
    pub instances: usize,
    /// Launched-but-undecided instances kept in flight per node.
    pub window: usize,
    /// Attach one WAL per node and end the repetition with a cold restart.
    pub durable: bool,
    /// A repetition not fully decided after this long is abandoned and its
    /// undecided instances count as failed.
    pub deadline: Duration,
}

impl MeshPlan {
    /// Protocol of slot `k`.
    #[must_use]
    pub fn kind(&self, k: usize) -> Kind {
        match self.mix {
            Mix::AllVa => Kind::Va,
            Mix::AllBvc => Kind::Bvc,
            Mix::EveryThirdBvc if k.is_multiple_of(3) => Kind::Bvc,
            Mix::EveryThirdBvc => Kind::Va,
        }
    }

    /// Build slot `k` for process `id`.
    #[must_use]
    pub fn build(&self, k: usize, id: usize, input: VecD) -> InstanceProto {
        match self.kind(k) {
            Kind::Bvc => InstanceProto::Bvc(
                Lockstep::new(
                    SyncBvc::new(
                        id,
                        self.n,
                        self.f,
                        self.d,
                        input,
                        DecisionRule::MinDeltaPoint(Norm::L2),
                        Tol::default(),
                    ),
                    self.n,
                    self.f + 1,
                )
                // All-honest mesh: the crash-tolerance timeout must never
                // fire, or a partial-inbox advance would make the schedule
                // depend on poll counts.
                .with_timeout_ticks(u32::MAX),
            ),
            Kind::Va => InstanceProto::Va(VerifiedAveraging::new(
                id,
                self.n,
                self.f,
                input,
                DeltaMode::MinDelta(Norm::L2),
                self.va_rounds,
                Tol::default(),
            )),
        }
    }
}

/// Instance id of slot `k` (ids are 1-based, like E17's).
#[must_use]
pub fn instance_id(k: usize) -> u64 {
    k as u64 + 1
}

fn spec_of(input: &VecD) -> Vec<u8> {
    input
        .as_slice()
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect()
}

fn input_of(spec: &[u8]) -> VecD {
    VecD(
        spec.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect(),
    )
}

/// Exact counts of one repetition. On the in-process transport they are a
/// function of the inputs alone, so they must be equal on every repetition
/// of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Instances decided by all `n` nodes.
    pub decided: usize,
    /// `poll` calls in the timed region.
    pub polls: u64,
    /// Bytes put on the wire, summed over endpoints.
    pub wire_bytes: u64,
    /// `wal.fsync` counter delta over the timed region.
    pub fsyncs: u64,
    /// FNV-1a over every `(slot, node, decision bits)`.
    pub decision_hash: u64,
}

/// What the cold restart at the end of a durable repetition found.
#[derive(Debug, Clone, PartialEq)]
pub struct Restart {
    /// `Wal::open` + `recover` for all nodes, up to the end of the first
    /// poll sweep.
    pub recover_ms: f64,
    /// Records replayed, summed over nodes.
    pub records: u64,
    /// WAL bytes scanned, summed over nodes.
    pub wal_bytes: u64,
    /// Σ `replay_divergences()`.
    pub divergences: u64,
    /// `decisions[node][slot]` as the recovered services report them.
    pub decisions: Vec<Vec<Option<VecD>>>,
    /// Σ service + transport errors of the recovered services.
    pub errors: u64,
}

/// Everything one repetition produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RepOutcome {
    /// The timed region: first launch to the sweep surfacing the last
    /// decision.
    pub wall_s: f64,
    /// The part of `wall_s` the WALs spent waiting in fdatasync (Δ
    /// `wal.fsync_us`); zero on a non-durable plan. See [`RepOutcome::clock_s`].
    pub device_wait_s: f64,
    /// Per-node launch→decide latencies (`DecisionEvent::latency`), ms, in
    /// arrival order, on the same clock as [`RepOutcome::clock_s`]: less the
    /// fdatasync wait between the launch and the poll that surfaced the
    /// decision. (Forced fsyncs of later decisions of that same poll are
    /// taken off too; they are under 1 % of a durable latency.)
    pub latencies_ms: Vec<f64>,
    /// What each `poll` of the timed region took on the same clock, in call
    /// order, ns: the poll, the bookkeeping of its events and the launches
    /// they trigger (the first one also holds the initial launches). The
    /// schedule is deterministic, so entry `p` is the same work in every
    /// repetition; [`crate::run::Floor`] relies on that.
    pub poll_clock_ns: Vec<u64>,
    /// For each entry of `latencies_ms`, the polls it spans: the first one
    /// after the launch and the one that surfaced the decision, as indices
    /// into `poll_clock_ns`. The same in every repetition.
    pub latency_polls: Vec<(usize, usize)>,
    /// `decisions[node][slot]`.
    pub decisions: Vec<Vec<Option<VecD>>>,
    /// Exact counts.
    pub fingerprint: Fingerprint,
    /// Σ `service.errors()` + `transport().errors()` totals.
    pub errors: u64,
    /// The cold restart, on durable plans.
    pub restart: Option<Restart>,
}

impl RepOutcome {
    /// The timed region on the benchmark's clock, which stops while a WAL
    /// waits for the device. On this VM one fdatasync takes 120 µs or 500 µs
    /// depending on the minute (2.6× between rounds of a bare
    /// write+fdatasync loop), which made the wall-clock rate of the durable
    /// workload swing 146 to 245 decided/s — spread 26 % over ten runs, more
    /// than any bound the contract allows — for reasons no change to this
    /// repo can influence. What the program does control stays in: how many
    /// fsyncs it asks for (exact, `store.fsyncs_per_decision`) and every
    /// processor cost of the write path. The wall-clock figures are printed
    /// beside, as notes.
    #[must_use]
    pub fn clock_s(&self) -> f64 {
        self.wall_s - self.device_wait_s
    }
}

fn hash_decisions(decisions: &[Vec<Option<VecD>>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (node, per_node) in decisions.iter().enumerate() {
        for (k, v) in per_node.iter().enumerate() {
            eat(node as u64);
            eat(k as u64);
            match v {
                Some(v) => v.as_slice().iter().for_each(|x| eat(x.to_bits())),
                None => eat(u64::MAX),
            }
        }
    }
    h
}

fn error_total<T: Transport>(services: &[ConsensusService<T>]) -> u64 {
    services
        .iter()
        .map(|s| s.errors().total() + s.transport().errors().total())
        .sum()
}

/// A mesh that has been set up and not yet run.
pub struct Mesh<P: Probe> {
    services: Vec<ConsensusService<P::Wrapped<InProcEndpoint>>>,
    /// Mesh and service construction, input generation, registration (the
    /// durable registrations' WAL appends included, the creation of the WAL
    /// files not).
    pub setup_s: f64,
}

impl MeshPlan {
    /// The inputs of slot `k` under benchmark seed `seed`, one per process.
    #[must_use]
    pub fn slot_inputs(&self, seed: u64, k: usize) -> Vec<VecD> {
        match self.inputs {
            Inputs::PerSeed => gen::instance_inputs(seed, k, self.n, self.d),
            Inputs::FixedPool => gen::instance_inputs(gen::POOL_SEED, k, self.n, self.d),
        }
    }

    /// Set one repetition up: fresh mesh, one service per node (with its
    /// WAL under `wal_dir` on a durable plan), every instance registered,
    /// nothing launched. Everything here is outside the timed region.
    ///
    /// # Panics
    /// On a failure of the harness itself (a WAL that cannot be created, an
    /// instance id registered twice).
    pub fn set_up<P: Probe>(&self, seed: u64, probe: &P, wal_dir: Option<&Path>) -> Mesh<P> {
        let t_setup = Instant::now();
        let inputs: Vec<Vec<VecD>> = (0..self.instances)
            .map(|k| self.slot_inputs(seed, k))
            .collect();
        let mut services: Vec<ConsensusService<_>> = in_proc_mesh(self.n)
            .into_iter()
            .map(|ep| ConsensusService::new(probe.wrap(ep)))
            .collect();
        // Creating a WAL file is a create plus an fdatasync of its header:
        // the device's time, which the benchmark's clock leaves out (see
        // `RepOutcome::clock_s`); the durable registrations below stay in.
        let mut device = Duration::ZERO;
        for (id, svc) in services.iter_mut().enumerate() {
            if self.durable {
                let dir = wal_dir.expect("durable plan needs a WAL directory");
                let t_open = Instant::now();
                let (wal, _) = Wal::open(dir.join(format!("node{id}.wal"))).expect("create WAL");
                device += t_open.elapsed();
                svc.attach_wal(wal);
            }
            for (k, ins) in inputs.iter().enumerate() {
                let proto = self.build(k, id, ins[id].clone());
                if self.durable {
                    svc.add_instance_durable(instance_id(k), proto, spec_of(&ins[id]))
                } else {
                    svc.add_instance(instance_id(k), proto)
                }
                .expect("unique instance ids");
            }
            svc.start_deferred();
        }
        Mesh {
            services,
            setup_s: (t_setup.elapsed() - device).as_secs_f64(),
        }
    }

    /// Run one repetition on a mesh from [`MeshPlan::set_up`] (same
    /// `wal_dir`; its files are left for the caller to remove). A slow or
    /// wrong program never panics here: it is reported through the outcome.
    pub fn run<P: Probe>(&self, mesh: Mesh<P>, probe: &P, wal_dir: Option<&Path>) -> RepOutcome {
        let mut services = mesh.services;
        let n = self.n;
        let fsync_counter = Registry::global().counter("wal.fsync");
        let fsyncs_before = fsync_counter.get();
        let mut decisions: Vec<Vec<Option<VecD>>> = vec![vec![None; self.instances]; n];
        let mut decided_by = vec![0usize; self.instances];
        let mut next = vec![0usize; n];
        let mut latencies_ms = Vec::with_capacity(n * self.instances);
        let mut fully_decided = 0usize;
        let mut polls = 0u64;
        // The device clock: microseconds the WALs have spent inside
        // fdatasync so far, as the store's own always-on histogram reports
        // them. Zero, and never read, on a non-durable plan.
        let fsync_us = self
            .durable
            .then(|| Registry::global().histogram("wal.fsync_us"));
        let device_us = || fsync_us.as_ref().map_or(0, |h| h.snapshot().sum);
        let device_before = device_us();
        let mut device_at_launch = vec![vec![0u64; self.instances]; n];
        let mut poll_clock_ns = Vec::new();
        let mut first_poll_after_launch = vec![vec![0usize; self.instances]; n];
        let mut latency_polls = Vec::with_capacity(n * self.instances);

        let wall_s = probe.region(|| {
            let t0 = Instant::now();
            let (mut t_prev, mut device_prev) = (t0, device_before);
            for (id, svc) in services.iter_mut().enumerate() {
                while next[id] < self.window.min(self.instances) {
                    let inst = instance_id(next[id]);
                    device_at_launch[id][next[id]] = device_us();
                    probe
                        .span(Call::Launch, inst, || svc.launch(inst))
                        .expect("launch");
                    next[id] += 1;
                }
            }
            while fully_decided < self.instances && t0.elapsed() < self.deadline {
                for (id, svc) in services.iter_mut().enumerate() {
                    polls += 1;
                    let events = probe.span(Call::Poll, 0, || svc.poll(Duration::ZERO));
                    let device_now = device_us();
                    for ev in events {
                        if next[id] < self.instances {
                            let inst = instance_id(next[id]);
                            device_at_launch[id][next[id]] = device_now;
                            first_poll_after_launch[id][next[id]] = poll_clock_ns.len() + 1;
                            probe
                                .span(Call::Launch, inst, || svc.launch(inst))
                                .expect("launch");
                            next[id] += 1;
                        }
                        let k = usize::try_from(ev.instance - 1).expect("slot fits usize");
                        let device_ms = (device_now - device_at_launch[id][k]) as f64 / 1e3;
                        let latency_ms = ev.latency.as_secs_f64() * 1e3;
                        latencies_ms.push((latency_ms - device_ms).max(0.0));
                        latency_polls.push((first_poll_after_launch[id][k], poll_clock_ns.len()));
                        decisions[id][k] = Some(ev.value);
                        decided_by[k] += 1;
                        if decided_by[k] == n {
                            fully_decided += 1;
                        }
                    }
                    let t_now = Instant::now();
                    let wall_ns = u64::try_from((t_now - t_prev).as_nanos()).unwrap_or(u64::MAX);
                    poll_clock_ns.push(wall_ns.saturating_sub(1000 * (device_now - device_prev)));
                    (t_prev, device_prev) = (t_now, device_now);
                }
            }
            t0.elapsed().as_secs_f64()
        });

        let device_wait_s = (device_us() - device_before) as f64 / 1e6;
        let fingerprint = Fingerprint {
            decided: fully_decided,
            polls,
            wire_bytes: services.iter().map(|s| s.transport().bytes_sent()).sum(),
            fsyncs: fsync_counter.get() - fsyncs_before,
            decision_hash: hash_decisions(&decisions),
        };
        let errors = error_total(&services);
        // The crash: every service is dropped mid-stride, nothing is flushed.
        drop(services);
        let restart = self.durable.then(|| {
            cold_restart(
                self,
                probe,
                wal_dir.expect("durable plan needs a WAL directory"),
            )
        });
        RepOutcome {
            wall_s,
            device_wait_s,
            latencies_ms,
            poll_clock_ns,
            latency_polls,
            decisions,
            fingerprint,
            errors,
            restart,
        }
    }

    /// [`MeshPlan::set_up`] then [`MeshPlan::run`].
    pub fn run_rep<P: Probe>(&self, seed: u64, probe: &P, wal_dir: Option<&Path>) -> RepOutcome {
        self.run(self.set_up(seed, probe, wal_dir), probe, wal_dir)
    }
}

/// The `wal.fsync` counter behind [`Fingerprint::fsyncs`] is process-wide.
/// A benchmark process runs one repetition at a time; tests that run a
/// durable plan (or compare fingerprints) hold this lock so that `cargo
/// test`'s parallel threads do not count each other's fsyncs.
#[cfg(test)]
pub(crate) fn fsync_counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Rebuild every node from its WAL on a fresh mesh and run one poll sweep.
fn cold_restart<P: Probe>(plan: &MeshPlan, probe: &P, dir: &Path) -> Restart {
    let endpoints: Vec<_> = in_proc_mesh(plan.n)
        .into_iter()
        .map(|ep| probe.wrap(ep))
        .collect();
    let mut records = 0u64;
    let mut wal_bytes = 0u64;
    let t0 = Instant::now();
    let mut services: Vec<ConsensusService<_>> = endpoints
        .into_iter()
        .enumerate()
        .map(|(id, ep)| {
            let path = dir.join(format!("node{id}.wal"));
            let (wal, report) = probe
                .span(Call::WalOpen, 0, || Wal::open(&path))
                .expect("reopen WAL");
            records += report.records.len() as u64;
            wal_bytes += report.valid_len;
            probe
                .span(Call::Recover, 0, || {
                    ConsensusService::recover(ep, wal, &report, |inst, spec| {
                        let k =
                            usize::try_from(inst - 1).map_err(|_| ProtocolError::InvalidSpec {
                                reason: format!("instance id {inst} out of range"),
                            })?;
                        Ok(plan.build(k, id, input_of(spec)))
                    })
                })
                .expect("recover")
        })
        .collect();
    for svc in &mut services {
        let _ = probe.span(Call::Poll, 0, || svc.poll(Duration::ZERO));
    }
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    Restart {
        recover_ms,
        records,
        wal_bytes,
        divergences: services
            .iter()
            .map(ConsensusService::replay_divergences)
            .sum(),
        decisions: services
            .iter()
            .map(|s| {
                (0..plan.instances)
                    .map(|k| s.decision(instance_id(k)))
                    .collect()
            })
            .collect(),
        errors: error_total(&services),
    }
}
