//! E16 — the chaos campaign: (Relaxed) Verified Averaging on the real
//! service over unreliable links and crashing processes.
//!
//! The paper's model assumes reliable channels and processes that never
//! forget what they sent. This experiment drops, duplicates, delays,
//! reorders and partitions the links of four durable [`ConsensusService`]
//! nodes, or kills one of them mid-consensus, and lets the service's own
//! recovery path re-earn both axioms: a lost link refuses sends until it is
//! back, the endpoint then reports the peer from
//! [`Transport::take_reconnects`], the service replays its outbound history
//! to it, and receivers deduplicate; a killed node comes back through
//! [`ConsensusService::recover`] on the same link. The faults come from
//! [`ChaosEndpoint`], a seeded wrapper around any transport whose clock is
//! its own flush count; one thread drives the in-process mesh with
//! [`sweep`] and zero-timeout polls, so a run is a pure function of its
//! seed. The campaigns' online [`Monitor`](rbvc_core::Monitor) watches every
//! honest decision the moment it is surfaced: ε-agreement, and validity in
//! `H_(δ,2)` of the honest inputs with `δ = max-edge` (Theorem 15's bound
//! at κ = 1), or exact agreement and validity in the crash rows, which run
//! at f = 0. The campaign sweeps fault shape × drop probability over many
//! seeds and reports, per cell: how many runs decided, how many safety
//! alerts fired (the bar is zero), mean sweeps to completion, the frame
//! overhead over a fault-free twin of the same run, the frames the wrapper
//! discarded, and how often the shape's own fault class fired; and, per
//! crash cell, the runs bit-identical to their twin, replay divergences,
//! damaged tails reported torn and records replayed.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbvc_linalg::VecD;
use rbvc_sim::config::ProcessId;
use rbvc_sim::error::{ErrorLog, ProtocolError};
use rbvc_store::Wal;
use rbvc_transport::service::ConsensusService;
use rbvc_transport::transport::{in_proc_mesh, InProcEndpoint, Transport};

use super::Experiment;
use crate::campaign::{gate, sweep, Args, Gate, Kind, MeshProfile, Proto};
use crate::report::{fnum, print_table};
use crate::workloads::{self, rng};

/// `exp chaos` — E16: 14 seeds per cell × 18 cells = 252 runs by default,
/// 2 per cell under `--smoke`. The acceptance bar is zero monitor
/// violations and every run decided, its fault-free twin included; every
/// crash run decides what its twin does, replays without divergence, and
/// reports its damaged tail torn.
pub const CHAOS: Experiment = Experiment {
    name: "chaos",
    ids: "E16",
    artefact: "lost-link and crash campaign (robustness)",
    positionals: &[("seeds_per_cell", Kind::Int, "14"), ("seed", Kind::Int, "2016")],
    flags: &["--smoke"],
    suite: None,
    json: None,
    run,
};

/// Campaign system size: the paper's headline asynchronous regime,
/// `n = 3f + 1` with one Byzantine process, below the `(d+2)f + 1` bound.
const N: usize = 4;
const F: usize = 1;
const D: usize = 3;
/// The mesh every run stands up: one Verified-Averaging instance with
/// enough averaging rounds that honest decisions are far tighter than
/// [`EPS`].
const MESH: MeshProfile = MeshProfile {
    n: N,
    f: F,
    d: D,
    instances: 1,
    rounds: 12,
    seed: 0,
    poll_timeout: Duration::ZERO,
};
/// The crash rows' mesh: Verified Averaging at f = 0 on three instances.
/// Every process averages all `n` states, so decisions do not depend on
/// delivery order, and a run with a kill/restart must decide exactly what
/// its fault-free twin does.
const CRASH_MESH: MeshProfile = MeshProfile { f: 0, instances: 3, rounds: 6, ..MESH };
/// The agreement threshold the online monitor enforces at f ≥ 1 (at f = 0
/// agreement is exact).
const EPS: f64 = 0.2;
/// Sweep budget per run before it counts as undecided.
const MAX_SWEEPS: usize = 4_000;
/// A lost link is back after 1..=`MAX_DOWN` flushes.
const MAX_DOWN: u64 = 4;
/// Duplication probability per frame.
const DUP: f64 = 0.2;
/// A batch is held for 0..=`MAX_DELAY` flushes.
const MAX_DELAY: u64 = 8;
/// Probability per frame of being held back one flush.
const REORDER: f64 = 0.3;
/// A crashed node's links are back 1..=`MAX_RESTART` flushes after it died.
const MAX_RESTART: u64 = 8;
/// Every `DAMAGE_EVERY`-th crash seed damages the victim's WAL tail.
const DAMAGE_EVERY: u64 = 3;

/// The fault shapes of the campaign grid (each swept over drop rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultShape {
    /// Link loss only (the `drop = 0` cell is the fault-free control).
    Clean,
    /// Loss + each frame delivered twice with probability 0.2.
    Duplicate,
    /// Loss + each batch held for 0–8 flushes, link order kept.
    Delay,
    /// Loss + each frame held back one flush with probability 0.3, so
    /// later frames on its link overtake it.
    Reorder,
    /// Loss + every link of process 0 cut, both directions, from after the
    /// first broadcast until just before the fault-free twin's other nodes
    /// decide; the heal is a reconnect on both sides.
    Partition,
    /// Loss + one node of an f = 0 mesh killed between two polls before the
    /// fault-free twin's first decision and rebuilt from its WAL on the same
    /// link (every third seed damages the log's tail first); its links stay
    /// cut, both directions, for 1–8 flushes and heal as the partition's do.
    Crash,
}

impl FaultShape {
    /// All shapes, in campaign order.
    pub const ALL: [FaultShape; 6] = [
        FaultShape::Clean,
        FaultShape::Duplicate,
        FaultShape::Delay,
        FaultShape::Reorder,
        FaultShape::Partition,
        FaultShape::Crash,
    ];

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultShape::Clean => "drop-only",
            FaultShape::Duplicate => "drop+dup",
            FaultShape::Delay => "drop+delay",
            FaultShape::Reorder => "drop+reorder",
            FaultShape::Partition => "drop+partition",
            FaultShape::Crash => "drop+crash",
        }
    }
}

/// What fault-injecting endpoints did, one endpoint's or a run's sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Faults {
    /// Frames the service handed to a peer link (refused ones included).
    pub frames: u64,
    /// Frames discarded: refused while their link was down or cut, or in
    /// the batch whose loss took the link down (the drop class).
    pub lost: u64,
    /// Extra copies delivered (the dup class).
    pub duplicated: u64,
    /// Batches held for at least one flush (the delay class).
    pub delayed: u64,
    /// Frames held back one flush (the reorder class).
    pub reordered: u64,
    /// Frames refused at the partition or while a crashed node was down
    /// (the partition and crash classes).
    pub cut: u64,
}

impl Faults {
    fn add(&mut self, other: &Faults) {
        self.frames += other.frames;
        self.lost += other.lost;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.reordered += other.reordered;
        self.cut += other.cut;
    }

    /// How often `shape`'s own fault class fired.
    #[must_use]
    pub fn injected(&self, shape: FaultShape) -> u64 {
        match shape {
            FaultShape::Clean => self.lost,
            FaultShape::Duplicate => self.duplicated,
            FaultShape::Delay => self.delayed,
            FaultShape::Reorder => self.reordered,
            FaultShape::Partition | FaultShape::Crash => self.cut,
        }
    }
}

/// A seeded fault-injecting [`Transport`] around any transport. What the
/// service sends to a peer is queued here and, at each flush, lost,
/// duplicated, delayed or reordered on its way into the inner endpoint, as
/// the [`FaultShape`] and drop probability say. A lost or cut link refuses
/// sends, as a TCP link awaiting redial does, and is reported from
/// [`Transport::take_reconnects`] once it is back. The self-link is never
/// faulted. The clock is the endpoint's own flush count.
pub struct ChaosEndpoint<T: Transport> {
    inner: T,
    shape: FaultShape,
    drop: f64,
    rng: StdRng,
    flushes: u64,
    /// Frames queued per peer since the last flush, in send order.
    outbox: Vec<Vec<Vec<u8>>>,
    /// Frames the reorder class held back, per peer: they lead the next
    /// flush's batch.
    late: Vec<Vec<Vec<u8>>>,
    /// Batches on their way, per peer in link order, each with the flush
    /// that releases it.
    held: Vec<VecDeque<(u64, Vec<Vec<u8>>)>>,
    /// Per peer, the flush at which a lost link is back.
    down_until: Vec<u64>,
    /// Peers whose links are cut while the flush count is in `window`.
    cut: Vec<ProcessId>,
    window: Range<u64>,
    reconnects: Vec<ProcessId>,
    faults: Faults,
}

impl<T: Transport> ChaosEndpoint<T> {
    /// Wrap `inner`: `shape`'s fault class, plus link loss with probability
    /// `drop` per (flush, peer) batch, all drawn from `seed`.
    pub fn new(inner: T, shape: FaultShape, drop: f64, seed: u64) -> Self {
        let n = inner.n();
        ChaosEndpoint {
            inner,
            shape,
            drop,
            rng: StdRng::seed_from_u64(seed),
            flushes: 0,
            outbox: vec![Vec::new(); n],
            late: vec![Vec::new(); n],
            held: vec![VecDeque::new(); n],
            down_until: vec![0; n],
            cut: Vec::new(),
            window: 0..0,
            reconnects: Vec::new(),
            faults: Faults::default(),
        }
    }

    /// Cut the links to `peers` while the flush count is in `window`: sends
    /// to them are refused meanwhile, and each is reported as reconnected
    /// by the flush that closes the window.
    #[must_use]
    fn with_cut(mut self, peers: Vec<ProcessId>, window: Range<u64>) -> Self {
        self.cut = peers;
        self.window = window;
        self
    }

    /// Cut every link of `victim`, both directions, while the flush count is
    /// in `window`: the victim's endpoint cuts all its peers, every other
    /// endpoint cuts the victim.
    #[must_use]
    fn isolating(self, victim: ProcessId, window: Range<u64>) -> Self {
        let peers = if self.local_id() == victim {
            (0..self.n()).filter(|&p| p != victim).collect()
        } else {
            vec![victim]
        };
        self.with_cut(peers, window)
    }

    /// The process behind this endpoint died: the frames that arrived for it
    /// unread are lost with it. Its outbound queues are empty between polls
    /// — a flush empties them, and the crash shape holds nothing back.
    fn lose_unread(&mut self) {
        self.faults.lost += self.inner.recv_timeout(Duration::ZERO).len() as u64;
    }

    /// What this endpoint injected so far.
    #[must_use]
    pub fn faults(&self) -> Faults {
        self.faults
    }

    fn is_cut(&self, dst: ProcessId) -> bool {
        self.window.contains(&self.flushes) && self.cut.contains(&dst)
    }

    /// One flush's batch to `dst`, which survived the loss draw: apply the
    /// shape's class and put it on its way.
    fn dispatch(&mut self, dst: ProcessId, batch: Vec<Vec<u8>>, fresh: usize) {
        let now = self.flushes;
        let mut out = Vec::with_capacity(batch.len());
        let mut release = now;
        for (k, frame) in batch.into_iter().enumerate() {
            match self.shape {
                FaultShape::Duplicate if self.rng.gen_bool(DUP) => {
                    self.faults.duplicated += 1;
                    out.push(frame.clone());
                }
                // Frames already held back once go out now.
                FaultShape::Reorder if k >= fresh && self.rng.gen_bool(REORDER) => {
                    self.faults.reordered += 1;
                    self.late[dst].push(frame);
                    continue;
                }
                _ => {}
            }
            out.push(frame);
        }
        if self.shape == FaultShape::Delay {
            let delay = self.rng.gen_range(0..=MAX_DELAY);
            self.faults.delayed += u64::from(delay > 0);
            release = now + delay;
        }
        let queue = &mut self.held[dst];
        // Never ahead of a batch sent earlier on the same link.
        let release = queue.back().map_or(release, |(at, _)| release.max(*at));
        queue.push_back((release, out));
    }
}

impl<T: Transport> Transport for ChaosEndpoint<T> {
    fn local_id(&self) -> ProcessId {
        self.inner.local_id()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn send(&mut self, dst: ProcessId, frame: Vec<u8>) -> Result<(), ProtocolError> {
        if dst == self.inner.local_id() || dst >= self.outbox.len() {
            return self.inner.send(dst, frame);
        }
        self.faults.frames += 1;
        if self.down_until[dst] > self.flushes || self.is_cut(dst) {
            self.faults.lost += 1;
            self.faults.cut += u64::from(self.is_cut(dst));
            return Err(ProtocolError::Transport {
                peer: Some(dst),
                reason: "link down awaiting redial".into(),
            });
        }
        self.outbox[dst].push(frame);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), ProtocolError> {
        self.flushes += 1;
        let now = self.flushes;
        if now == self.window.end {
            self.reconnects.extend(&self.cut);
        }
        for dst in 0..self.outbox.len() {
            if self.down_until[dst] == now {
                self.reconnects.push(dst);
            }
            let mut batch = std::mem::take(&mut self.late[dst]);
            let fresh = batch.len();
            batch.append(&mut self.outbox[dst]);
            if batch.is_empty() {
                // Nothing written, so nothing to find the link broken by.
            } else if self.drop > 0.0 && self.rng.gen_bool(self.drop) {
                self.faults.lost += batch.len() as u64;
                self.down_until[dst] = now + self.rng.gen_range(1..=MAX_DOWN);
            } else {
                self.dispatch(dst, batch, fresh);
            }
            while self.held[dst].front().is_some_and(|(at, _)| *at <= now) {
                let (_, frames) = self.held[dst].pop_front().expect("checked above");
                for frame in frames {
                    // The inner endpoint records its own refusals.
                    let _ = self.inner.send(dst, frame);
                }
            }
        }
        self.inner.flush()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Vec<(ProcessId, Vec<u8>)> {
        self.inner.recv_timeout(timeout)
    }

    fn recv_timeout_stamped(&mut self, timeout: Duration) -> Vec<(ProcessId, u64, Vec<u8>)> {
        self.inner.recv_timeout_stamped(timeout)
    }

    fn take_reconnects(&mut self) -> Vec<ProcessId> {
        let mut peers = self.inner.take_reconnects();
        peers.append(&mut self.reconnects);
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    fn take_auth_events(&mut self) -> Vec<rbvc_transport::transport::AuthEvent> {
        self.inner.take_auth_events()
    }

    fn link_health(&self) -> Vec<rbvc_obs::LinkHealth> {
        self.inner.link_health()
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }

    fn errors(&self) -> ErrorLog {
        self.inner.errors()
    }
}

/// Outcome of one seeded chaos run (plus its fault-free twin).
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Every honest process decided.
    pub decided: bool,
    /// The fault-free twin decided too: the overhead column divides by it.
    pub twin_decided: bool,
    /// Sweeps of the chaos run.
    pub sweeps: usize,
    /// Sweeps of the fault-free twin.
    pub twin_sweeps: usize,
    /// What the wrappers did in the chaos run.
    pub faults: Faults,
    /// Frames the fault-free twin's services handed to peer links.
    pub twin_frames: u64,
    /// Safety alerts raised by the online monitor in the run and its twin
    /// (acceptance bar: 0).
    pub violations: usize,
    /// Every node's decisions by instance id, the Byzantine slot's included.
    pub decisions: Vec<BTreeMap<u64, VecD>>,
    /// Every node decided every instance exactly as in the fault-free twin.
    pub identical: bool,
    /// What the crashed node's restart reported (`None` without a crash).
    pub recovery: Option<Recovery>,
}

/// What one crashed node's restart through its WAL reported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recovery {
    /// The log's tail was damaged before the restart.
    pub damaged: bool,
    /// Opening the log discarded a torn tail.
    pub torn: bool,
    /// Records replayed.
    pub replayed: u64,
    /// Replay divergences (acceptance bar: 0).
    pub divergences: u64,
}

/// A kill/restart of one durable node.
struct Crash {
    victim: ProcessId,
    /// The victim dies at the boundary before this sweep, between two of its
    /// polls.
    sweep: usize,
    /// Draws for damaging its WAL tail before the restart, if it is damaged.
    damage: Option<StdRng>,
}

/// What one mesh run did.
struct Drive {
    /// Every node outside `faulty` decided.
    decided: bool,
    /// Sweep in which each node surfaced its first decision.
    decided_in: Vec<Option<usize>>,
    sweeps: usize,
    faults: Faults,
    decisions: Vec<BTreeMap<u64, VecD>>,
    /// Alerts of the run's online monitor.
    violations: usize,
    recovery: Option<Recovery>,
}

type Service = ConsensusService<ChaosEndpoint<InProcEndpoint>>;

/// Run `mesh`'s Verified-Averaging instances (`inputs[k][i]` is node `i`'s
/// input to instance `k + 1`) at the profile's `f` on `N` services over the
/// in-process mesh, endpoint `i` wrapped by `wrap(i, ·)`; each node writes a
/// WAL under `wal_dir` when given, and `crash` kills and restarts one of
/// them. Decisions of nodes outside `faulty` go to the online monitor as
/// they are surfaced, checked against their inputs; the run ends when all of
/// them decided or after [`MAX_SWEEPS`].
fn drive(
    mesh: &MeshProfile,
    inputs: &[Vec<VecD>],
    faulty: &[usize],
    wrap: impl Fn(ProcessId, InProcEndpoint) -> ChaosEndpoint<InProcEndpoint>,
    wal_dir: Option<&Path>,
    mut crash: Option<Crash>,
) -> Drive {
    let proto = Proto::Va { f: mesh.f };
    let honest: Vec<Vec<VecD>> = inputs
        .iter()
        .map(|per_node| {
            let honest = per_node.iter().enumerate().filter(|(i, _)| !faulty.contains(i));
            honest.map(|(_, x)| x.clone()).collect()
        })
        .collect();
    // At f = 0 every process averages all n states: agreement is exact.
    let eps = if mesh.f == 0 { 0.0 } else { EPS };
    let mut monitor = mesh.monitor(|_| proto, eps, Some(&honest));
    let wal_path = |i: usize| wal_dir.map(|dir| dir.join(format!("node{i}.wal")));
    let mut nodes: Vec<Option<Service>> = in_proc_mesh(N)
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            let mut svc = ConsensusService::new(wrap(i, ep));
            if let Some(path) = wal_path(i) {
                svc.attach_wal(Wal::open(path).expect("open wal").0);
            }
            for (k, per_node) in inputs.iter().enumerate() {
                let (id, instance) = (k as u64 + 1, mesh.instance(proto, i, per_node[i].clone()));
                match wal_dir {
                    Some(_) => svc.add_instance_durable(id, instance, Vec::new()),
                    None => svc.add_instance(id, instance),
                }
                .expect("unique instance ids");
            }
            // A refused send is the fault under test, not a setup error.
            let _ = svc.start();
            Some(svc)
        })
        .collect();
    let mut decided_in = vec![None; N];
    let mut sweeps = 0;
    let mut recovery = None;
    let decided = sweep(&mut nodes, MAX_SWEEPS, |s, i, slot| {
        sweeps = s + 1;
        if let Some(c) = crash.as_mut().filter(|c| (c.sweep, c.victim) == (s, i)) {
            let path = wal_path(i).expect("a crashed node is durable");
            let dying = slot.take().expect("every slot holds a live service");
            let (svc, report) = restart(dying, &path, mesh, inputs, c.damage.as_mut());
            for ev in svc.recovered_decisions() {
                monitor.observe(ev.instance, i, &ev.value);
            }
            recovery = Some(report);
            *slot = Some(svc);
        }
        let svc = slot.as_mut().expect("a crashed node is back at once");
        for ev in svc.poll(Duration::ZERO) {
            decided_in[i].get_or_insert(s);
            if !faulty.contains(&i) {
                monitor.observe(ev.instance, i, &ev.value);
            }
        }
        let crash_pending = crash.as_ref().is_some_and(|c| s < c.sweep);
        faulty.contains(&i) || svc.all_decided() && !crash_pending
    });
    let mut faults = Faults::default();
    for svc in nodes.iter().flatten() {
        faults.add(&svc.transport().faults());
    }
    let decisions = nodes.iter().flatten().map(|svc| mesh.decisions(svc)).collect();
    let violations = monitor.alerts().len();
    Drive { decided, decided_in, sweeps, faults, decisions, violations, recovery }
}

/// Kill `svc` between two polls and bring it back from the WAL at `path` on
/// the same link, damaging the log's tail first with `damage`'s draws. Each
/// instance the log registers is rebuilt from `inputs`, as [`drive`] built
/// it.
fn restart(
    mut svc: Service,
    path: &Path,
    mesh: &MeshProfile,
    inputs: &[Vec<VecD>],
    damage: Option<&mut StdRng>,
) -> (Service, Recovery) {
    let id = svc.transport().local_id();
    // The link outlives the process, as its address does: a dead endpoint
    // takes its place in the dying service. Between polls every record is
    // synced, so the service's drop leaves the file a kill would.
    let dead = ChaosEndpoint::new(in_proc_mesh(1).remove(0), FaultShape::Clean, 0.0, 0);
    let mut link = std::mem::replace(svc.transport_mut(), dead);
    drop(svc);
    link.lose_unread();
    let damaged = damage.is_some();
    if let Some(rng) = damage {
        damage_tail(path, rng);
    }
    let (wal, report) = Wal::open(path).expect("reopen wal");
    let svc = ConsensusService::recover(link, wal, &report, |k, _| {
        Ok(mesh.instance(Proto::Va { f: mesh.f }, id, inputs[k as usize - 1][id].clone()))
    })
    .expect("recover");
    let recovery = Recovery {
        damaged,
        torn: report.torn_bytes > 0,
        replayed: report.records.len() as u64,
        divergences: svc.replay_divergences(),
    };
    (svc, recovery)
}

/// Damage a WAL file's tail the way a crash does: either a torn cut (the
/// final write cut 1–16 bytes short; every record's frame is at least 17
/// bytes, so the cut lands inside the last one, never on a boundary) or one
/// flipped bit in the last 32 bytes (a partially flushed sector). Both leave
/// a long valid prefix, which is the recovery contract — a flip in the
/// middle of the log would legitimately discard everything after it,
/// instance registrations included; that is detected, not recovered from.
fn damage_tail(path: &Path, rng: &mut StdRng) {
    // The log holds the magic and at least three registrations by now.
    let mut data = std::fs::read(path).expect("read wal");
    if rng.gen_bool(0.5) {
        let cut = rng.gen_range(1..=16);
        data.truncate(data.len() - cut);
    } else {
        let tail_start = data.len().saturating_sub(32).max(8);
        let off = rng.gen_range(tail_start..data.len());
        data[off] ^= 1 << rng.gen_range(0..8u32);
    }
    std::fs::write(path, &data).expect("rewrite damaged wal");
}

/// A fresh directory for one run's WALs.
fn run_dir() -> std::path::PathBuf {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rbvc-exp-chaos-{}-{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk run dir");
    dir
}

/// Execute one seeded cell run: the fault-free twin (non-durable, links
/// untouched), then the chaos run proper on durable nodes, over identical
/// inputs.
#[must_use]
pub fn run_one(shape: FaultShape, drop: f64, seed: u64) -> ChaosRun {
    run_at(shape, drop, seed, None)
}

/// [`run_one`], with a crash run's victim killed at sweep `at` instead of
/// the one its seed picks.
///
/// The link shapes run [`MESH`] with one Byzantine slot. A crash run runs
/// [`CRASH_MESH`], and its seed picks a victim, the sweep it dies at — at or
/// before the one in which the twin first decides, so mid-consensus — how
/// long its links stay cut, and, for every third seed, a damaged WAL tail.
fn run_at(shape: FaultShape, drop: f64, seed: u64, at: Option<usize>) -> ChaosRun {
    let mut r = rng(seed);
    let (mesh, inputs, faulty) = if shape == FaultShape::Crash {
        (CRASH_MESH, CRASH_MESH.inputs(&mut r), Vec::new())
    } else {
        let honest = workloads::random_points(&mut r, N - F, D, 1.0);
        let byz = workloads::random_points(&mut r, F, D, 3.0);
        let (inputs, faulty) = workloads::assemble_inputs(&honest, &byz);
        (MESH, vec![inputs], faulty)
    };
    let untouched = |_, ep| ChaosEndpoint::new(ep, FaultShape::Clean, 0.0, 0);
    let twin = drive(&mesh, &inputs, &faulty, untouched, None, None);

    // Node i's poll in sweep s is its flush s + 2 (`start` is flush 1). The
    // partition opens once the first broadcast is out and heals at the flush
    // before the sweep in which the twin's first other node decided; a
    // crash cuts the victim off from the boundary before its sweep, where
    // every endpoint has flushed s + 1 times.
    let (isolated, crash) = match shape {
        FaultShape::Partition => {
            let first_other = twin.decided_in[1..].iter().flatten().min().copied();
            (Some((0, 1..first_other.map_or(2, |s| s as u64 + 1).max(2))), None)
        }
        FaultShape::Crash => {
            let first = twin.decided_in.iter().flatten().min().map_or(1, |&s| s.max(1));
            let victim = r.gen_range(0..N);
            let sweep = at.unwrap_or(r.gen_range(1..=first));
            let back = sweep as u64 + 1 + r.gen_range(1..=MAX_RESTART);
            let damage = (seed % DAMAGE_EVERY == DAMAGE_EVERY - 1).then_some(r);
            (Some((victim, sweep as u64 + 1..back)), Some(Crash { victim, sweep, damage }))
        }
        _ => (None, None),
    };
    let wrap = |i: ProcessId, ep| {
        let ep = ChaosEndpoint::new(ep, shape, drop, seed.wrapping_mul(0x9e37_79b9) ^ i as u64);
        match &isolated {
            Some((victim, window)) => ep.isolating(*victim, window.clone()),
            None => ep,
        }
    };
    let dir = run_dir();
    let chaos = drive(&mesh, &inputs, &faulty, wrap, Some(&dir), crash);
    let _ = std::fs::remove_dir_all(&dir);
    ChaosRun {
        decided: chaos.decided,
        twin_decided: twin.decided,
        sweeps: chaos.sweeps,
        twin_sweeps: twin.sweeps,
        faults: chaos.faults,
        twin_frames: twin.faults.frames,
        violations: twin.violations + chaos.violations,
        identical: chaos.decided && chaos.decisions == twin.decisions,
        decisions: chaos.decisions,
        recovery: chaos.recovery,
    }
}

/// One aggregated campaign cell: a fault shape at a drop rate over many
/// seeds.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct ChaosRow {
    /// Fault shape label.
    pub shape: &'static str,
    /// Link drop probability.
    pub drop: f64,
    /// Seeded runs executed.
    pub runs: usize,
    /// Runs in which every honest process decided.
    pub decided: usize,
    /// Runs whose fault-free twin decided.
    pub twins_decided: usize,
    /// Total monitor alerts across the cell (acceptance bar: 0).
    pub violations: usize,
    /// Mean sweeps over decided runs.
    pub mean_sweeps: f64,
    /// Mean frame overhead vs the fault-free twin (1.0 = parity).
    pub mean_overhead: f64,
    /// Frames the wrappers discarded across the cell.
    pub lost: u64,
    /// How often the shape's own fault class fired across the cell.
    pub injected: u64,
    /// Runs bit-identical to their fault-free twin (crash rows' bar: all).
    pub identical: usize,
    /// Crash rows: WAL replay divergences across the cell (bar: 0).
    pub divergences: u64,
    /// Crash rows: runs whose victim's WAL tail was damaged.
    pub damaged: usize,
    /// Crash rows: damaged runs whose recovery reported it torn (bar: all).
    pub torn: usize,
    /// Crash rows: WAL records replayed across the cell.
    pub replayed: u64,
}

/// Drop probabilities of the campaign grid.
pub const DROPS: [f64; 3] = [0.0, 0.1, 0.3];

/// Run the full campaign: every shape × drop cell over `seeds_per_cell`
/// seeds starting at `base_seed`. `6 shapes × 3 drops × seeds` runs total
/// (the acceptance campaign uses `seeds_per_cell = 14` → 252 runs).
#[must_use]
pub fn campaign(seeds_per_cell: usize, base_seed: u64) -> Vec<ChaosRow> {
    let mut rows = Vec::new();
    let mut next_seed = base_seed;
    for shape in FaultShape::ALL {
        for drop in DROPS {
            let mut row = ChaosRow {
                shape: shape.label(),
                drop,
                runs: seeds_per_cell,
                ..ChaosRow::default()
            };
            let mut sweeps_sum = 0.0;
            let mut overhead_sum = 0.0;
            for _ in 0..seeds_per_cell {
                let run = run_one(shape, drop, next_seed);
                next_seed += 1;
                if run.decided {
                    row.decided += 1;
                    sweeps_sum += run.sweeps as f64;
                }
                row.twins_decided += usize::from(run.twin_decided);
                row.violations += run.violations;
                row.lost += run.faults.lost;
                row.injected += run.faults.injected(shape);
                row.identical += usize::from(run.identical);
                let recovery = run.recovery.unwrap_or_default();
                row.divergences += recovery.divergences;
                row.damaged += usize::from(recovery.damaged);
                row.torn += usize::from(recovery.damaged && recovery.torn);
                row.replayed += recovery.replayed;
                overhead_sum += run.faults.frames as f64 / run.twin_frames.max(1) as f64;
            }
            if row.decided > 0 {
                row.mean_sweeps = sweeps_sum / row.decided as f64;
            }
            row.mean_overhead = overhead_sum / seeds_per_cell as f64;
            rows.push(row);
        }
    }
    rows
}

fn run(args: &Args) -> Vec<Gate> {
    let seeds_per_cell = if args.smoke && args.given == 0 { 2 } else { args.num(0) };
    let seed = args.num(1);
    println!(
        "E16 — chaos campaign: Verified Averaging (n = 4, f = 1, d = 3, \
         MinDelta/L2) on four durable services whose in-process links drop, \
         duplicate, delay, reorder and partition; the service's reconnect \
         history replay recovers lost links; an online monitor checks \
         ε-agreement and (δ,2)-relaxed validity (δ = max-edge of the honest \
         inputs) on every decision. The crash rows kill one node of a \
         four-node f = 0 mesh (three instances) mid-consensus and rebuild it \
         from its WAL, every third tail damaged first; they must decide \
         bit-identically to their fault-free twins, with zero replay \
         divergences, exact agreement and exact validity."
    );
    println!(
        "{} seeds per cell from base seed {seed}{}",
        seeds_per_cell,
        if args.smoke { " (smoke)" } else { "" }
    );
    let rows = campaign(seeds_per_cell, seed);
    let total_runs: usize = rows.iter().map(|r| r.runs).sum();
    let total_violations: usize = rows.iter().map(|r| r.violations).sum();
    let total_decided: usize = rows.iter().map(|r| r.decided).sum();
    let twins_decided: usize = rows.iter().map(|r| r.twins_decided).sum();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r: &ChaosRow| {
            vec![
                r.shape.to_string(),
                fnum(r.drop),
                format!("{}/{}", r.decided, r.runs),
                r.violations.to_string(),
                fnum(r.mean_sweeps),
                fnum(r.mean_overhead),
                r.lost.to_string(),
                r.injected.to_string(),
            ]
        })
        .collect();
    print_table(
        "E16 (chaos campaign: fault shape × drop rate)",
        &[
            "shape",
            "drop",
            "decided",
            "violations",
            "mean sweeps",
            "frame overhead",
            "frames lost",
            "injected",
        ],
        &table,
    );
    println!(
        "total: {total_runs} runs, {total_decided} fully decided, \
         {total_violations} safety violations"
    );
    let crash: Vec<&ChaosRow> =
        rows.iter().filter(|r| r.shape == FaultShape::Crash.label()).collect();
    let crash_table: Vec<Vec<String>> = crash
        .iter()
        .map(|r| {
            vec![
                fnum(r.drop),
                format!("{}/{}", r.identical, r.runs),
                r.divergences.to_string(),
                format!("{}/{}", r.torn, r.damaged),
                r.replayed.to_string(),
            ]
        })
        .collect();
    print_table(
        "E16 crash rows (a node killed mid-consensus, rebuilt from its WAL)",
        &["drop", "identical to twin", "replay divergences", "torn/damaged", "replayed records"],
        &crash_table,
    );
    // Every cell fires its shape's own class (the drop-only shape's class is
    // the loss itself), and every lossy cell loses frames.
    let idle: Vec<String> = rows
        .iter()
        .filter(|r| r.runs > 0)
        .filter(|r| {
            r.drop > 0.0 && r.lost == 0 || r.shape != FaultShape::Clean.label() && r.injected == 0
        })
        .map(|r| format!("{} at drop {}", r.shape, r.drop))
        .collect();
    let mut gates = vec![
        gate(total_violations == 0, "the online safety monitor fired"),
        gate(
            total_decided == total_runs,
            format!("{} run(s) hit the sweep budget undecided", total_runs - total_decided),
        ),
        gate(
            twins_decided == total_runs,
            format!("{} fault-free twin(s) did not decide", total_runs - twins_decided),
        ),
        gate(idle.is_empty(), format!("no fault injected in: {}", idle.join(", "))),
    ];
    gates.extend(crash.iter().map(|r| {
        gate(
            r.identical == r.runs && r.divergences == 0 && r.torn == r.damaged,
            format!(
                "drop+crash at drop {}: {}/{} identical to the twin, {} replay divergence(s), \
                 {}/{} damaged tails torn",
                r.drop, r.identical, r.runs, r.divergences, r.torn, r.damaged
            ),
        )
    }));
    gates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_loss_cell_decides_cleanly() {
        let run = run_one(FaultShape::Clean, 0.3, 5);
        assert!(run.decided && run.twin_decided, "reconnect replay must restore liveness");
        assert_eq!(run.violations, 0, "monitor must stay clean");
        assert!(run.faults.lost > 0, "a 30% drop rate must actually lose frames");
    }

    #[test]
    fn partition_then_heal_recovers() {
        let run = run_one(FaultShape::Partition, 0.0, 6);
        assert!(run.decided, "the isolated process must catch up after the heal");
        assert_eq!(run.violations, 0);
        assert!(run.faults.cut > 0 && run.faults.lost == run.faults.cut, "{:?}", run.faults);
    }

    #[test]
    fn runs_are_seed_deterministic() {
        // Seed 11 damages the crash victim's WAL tail.
        for (shape, seed) in [(FaultShape::Reorder, 9), (FaultShape::Crash, 11)] {
            let a = run_one(shape, 0.1, seed);
            let b = run_one(shape, 0.1, seed);
            assert_eq!(a.decisions, b.decisions, "{shape:?}");
            assert_eq!((a.sweeps, a.faults, a.twin_frames), (b.sweeps, b.faults, b.twin_frames));
            assert_eq!((a.decided, a.recovery), (b.decided, b.recovery), "{shape:?}");
        }
    }

    /// One seed, its victim killed at every sweep boundary from the first
    /// up to the one in which its fault-free twin is done, its WAL tail
    /// damaged each time (seed 5 is a damaging seed): every restart reports
    /// the tail torn and replays without a divergence, and the mesh decides
    /// exactly what the twin does, with the monitor at ε = 0 and exact
    /// validity.
    #[test]
    fn a_crash_at_every_boundary_recovers_bit_identically() {
        let first = run_at(FaultShape::Crash, 0.0, 5, Some(1));
        assert!(first.twin_sweeps > 1);
        for at in 1..first.twin_sweeps {
            let run = run_at(FaultShape::Crash, 0.0, 5, Some(at));
            let recovery = run.recovery.expect("the victim crashed");
            assert!(run.decided && run.identical, "crash at sweep {at}");
            assert_eq!((run.violations, recovery.divergences), (0, 0), "crash at sweep {at}");
            assert!(recovery.damaged && recovery.torn, "crash at sweep {at}");
            assert!(recovery.replayed > 0 && run.faults.cut > 0, "crash at sweep {at}");
        }
    }

    /// At f = 0 Verified Averaging waits for all n states, so its decision
    /// does not depend on delivery order: a durable mesh that loses link
    /// 0 → 2 mid-run, or every link of node 0 in both directions, and heals
    /// through `take_reconnects` decides exactly what a fault-free run does.
    /// Bracha's relays cover the one link on their own; the isolated node is
    /// the replay's: without a WAL there is no history, and its cut strands
    /// the mesh.
    #[test]
    fn lost_links_heal_through_reconnect_replay_bit_identically() {
        let inputs = [workloads::random_points(&mut rng(77), N, D, 1.0)];
        let mesh = MeshProfile { f: 0, ..MESH };
        let untouched = |_, ep| ChaosEndpoint::new(ep, FaultShape::Clean, 0.0, 0);
        let clean = drive(&mesh, &inputs, &[], untouched, None, None);
        assert!(clean.decided && clean.violations == 0);
        let one_link = |i: ProcessId, ep| {
            let peers = if i == 0 { vec![2] } else { Vec::new() };
            ChaosEndpoint::new(ep, FaultShape::Clean, 0.0, 0).with_cut(peers, 3..8)
        };
        let isolated =
            |_, ep| ChaosEndpoint::new(ep, FaultShape::Clean, 0.0, 0).isolating(0, 3..8);
        for (name, wrap) in [("one link", &one_link as &dyn Fn(_, _) -> _), ("node 0", &isolated)] {
            let dir = run_dir();
            let healed = drive(&mesh, &inputs, &[], wrap, Some(&dir), None);
            let _ = std::fs::remove_dir_all(&dir);
            assert!(healed.decided && healed.violations == 0, "{name}");
            assert_eq!(healed.decisions, clean.decisions, "{name}: bit-identical decisions");
            assert!(healed.faults.cut > 0, "{name}: the cut refused frames");
        }
        let stranded = drive(&mesh, &inputs, &[], isolated, None, None);
        assert!(!stranded.decided, "without history the lost frames stay lost");
    }

    /// Delayed batches keep their link's order; a frame held back by the
    /// reorder class is overtaken by the later frames of its flush; a lost
    /// link refuses sends and comes back as a reconnect.
    #[test]
    fn the_wrapper_delays_in_order_reorders_and_loses_links() {
        let recv = |ep: &mut InProcEndpoint| -> Vec<u8> {
            ep.recv_timeout(Duration::ZERO).into_iter().map(|(_, bytes)| bytes[0]).collect()
        };
        let mut mesh = in_proc_mesh(2);
        let mut peer = mesh.pop().expect("two endpoints");
        let mut delayed = ChaosEndpoint::new(mesh.pop().expect("two"), FaultShape::Delay, 0.0, 3);
        for b in 0..40u8 {
            delayed.send(1, vec![b]).unwrap();
            delayed.flush().unwrap();
        }
        for _ in 0..=MAX_DELAY {
            delayed.flush().unwrap();
        }
        assert!(delayed.faults().delayed > 0);
        assert_eq!(recv(&mut peer), (0..40).collect::<Vec<u8>>(), "link order kept");

        let mut mesh = in_proc_mesh(2);
        let mut peer = mesh.pop().expect("two endpoints");
        let mut shuffled =
            ChaosEndpoint::new(mesh.pop().expect("two"), FaultShape::Reorder, 0.0, 3);
        for b in 0..40u8 {
            shuffled.send(1, vec![b]).unwrap();
        }
        shuffled.flush().unwrap();
        shuffled.flush().unwrap();
        let got = recv(&mut peer);
        let held = shuffled.faults().reordered as usize;
        assert!(held > 0 && got.len() == 40, "{got:?}");
        assert!(got[40 - held..].windows(2).all(|w| w[0] < w[1]), "held frames follow, in order");
        assert!(
            got[..40 - held].windows(2).all(|w| w[0] < w[1]) && got != (0..40).collect::<Vec<u8>>()
        );

        let mut mesh = in_proc_mesh(2);
        let mut lossy = ChaosEndpoint::new(mesh.remove(0), FaultShape::Clean, 1.0, 3);
        lossy.send(1, vec![0]).unwrap();
        lossy.flush().unwrap();
        assert!(lossy.send(1, vec![1]).is_err(), "a lost link refuses sends");
        let mut flushes = 1;
        while lossy.take_reconnects().is_empty() {
            lossy.flush().unwrap();
            flushes += 1;
        }
        assert!((2..=1 + MAX_DOWN).contains(&flushes), "back after 1–{MAX_DOWN} flushes");
        assert!(lossy.send(1, vec![2]).is_ok());
        assert_eq!(lossy.faults().lost, 2, "the lost batch and the refused send");
    }
}
