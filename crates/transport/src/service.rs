//! Multi-instance consensus service: many concurrent SyncBvc /
//! VerifiedAveraging instances multiplexed over one transport mesh.
//!
//! One [`ConsensusService`] per process owns one [`Transport`] endpoint and
//! any number of consensus instances, each identified by a service-wide
//! [`InstanceId`]. Outbound protocol messages are encoded into
//! [`crate::wire`] frames tagged with their instance id and queued on the
//! transport; [`ConsensusService::poll`] drains the socket, decodes,
//! demultiplexes by instance id, dispatches, and flushes everything the
//! dispatch produced as one batch per peer.
//!
//! ## Receive-boundary policy (degrade, don't panic)
//!
//! Every inbound frame passes four gates before touching protocol state,
//! each recording a [`ProtocolError`] and discarding the frame on failure:
//!
//! 1. **decode** — malformed bytes die in [`crate::wire::decode_frame`];
//! 2. **sender authentication** — the frame's claimed sender must equal the
//!    transport-authenticated link peer (no spoofing across links);
//! 3. **instance lookup** — frames for unknown instance ids are dropped
//!    (instances are registered before `start`);
//! 4. **kind check** — the payload variant must match the instance's
//!    protocol.
//!
//! Whatever survives is handed to state machines that run their own
//! receive-boundary validation on top.
//!
//! ## Durability and crash recovery
//!
//! A service with a [`Wal`] attached writes through at every state-changing
//! point — instance registration (with an opaque recovery spec), launches,
//! authenticated inbound frames, outbound protocol frames, witness-commit
//! progress, and decisions. Appends only fill the WAL's in-process batch;
//! each poll ends with one group commit (one `write`, one `fdatasync`) that
//! covers the poll's decisions too and always lands *before* the poll's
//! transport flush (WAL-before-wire) and before its [`DecisionEvent`]s are
//! returned (a decision is durable before it is surfaced). Between two polls
//! the file is therefore exactly as the last commit left it: a process crash
//! loses what a power loss loses, nothing of which was on the wire. A
//! restarted process rebuilds the exact pre-crash protocol state with
//! [`ConsensusService::recover`]: the factory re-creates each instance from
//! its logged spec, the logged launches and inbound frames go through the
//! very launch and receive paths a live poll uses (gates included) into the
//! deterministic state machines, the regenerated outbound frames are checked
//! FIFO against the logged ones (any mismatch counts as a replay
//! divergence), logged decisions are *pinned* so the recovered node can
//! never surface a different value (amnesia-freedom), and the full outbound
//! history is re-sent so peers can fill any gap — receivers deduplicate. A
//! peer the transport reports through [`Transport::take_reconnects`] gets
//! its share of that history (kept per destination) replayed the same way.
//!
//! ## Self-diagnosis
//!
//! [`ConsensusService::enable_health`] arms the health subsystem: every
//! poll feeds per-instance progress (lockstep round / barrier occupancy for
//! BVC, witness commits for VA) and the transport's per-link health into a
//! [`rbvc_obs::StallDetector`], which raises a blame-attributed
//! [`rbvc_obs::StallReport`] (barrier / wire / fsync / queue, with the
//! specific missing senders) when an undecided instance makes no progress
//! past its deadline. The same tick publishes a node snapshot to an
//! optional [`rbvc_obs::StatusBoard`] (the `/status` endpoint) and tees the
//! service's event stream into an always-on [`rbvc_obs::FlightRecorder`]
//! that dumps its ring on a safety violation, an escalated stall, or a
//! panic.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
use rbvc_core::SyncBvc;
use rbvc_linalg::VecD;
use rbvc_obs::{
    progress_token, ClientStatus, Event, EventKind, FlightRecorder, InstanceProgress,
    InstanceStatus, Obs, Recorder, Registry, StallConfig, StallDetector, StallEvent, StallReport,
    StatusBoard, StatusSnapshot, TeeRecorder, WalStatus,
};
use rbvc_sim::asynch::AsyncProtocol;
use rbvc_sim::config::ProcessId;
use rbvc_sim::error::{ErrorLog, ProtocolError};
use rbvc_store::{decode_record, ReplayReport, Wal, WalRecord, WalRecordRef};
pub use rbvc_sim::monitor::InstanceId;

use crate::lockstep::{Lockstep, RoundBatch};
use crate::transport::{AuthEvent, Transport};
use crate::wire::{decode_frame, encode_frame, ClientLaunch, Frame, Payload, MAX_DIM};

/// One consensus instance as the service runs it.
pub enum InstanceProto {
    /// A synchronous broadcast-then-decide instance under the lockstep
    /// synchronizer.
    Bvc(Lockstep<SyncBvc>),
    /// An asynchronous Verified-Averaging instance.
    Va(VerifiedAveraging),
}

/// Encoded frames with their destinations, as [`ConsensusService::route`]
/// takes them.
type Outbound = Vec<(ProcessId, Vec<u8>)>;

/// What the health side may know about a running instance.
struct Progress {
    /// `/status` label of the protocol.
    kind: &'static str,
    /// Lockstep round (0 for Verified Averaging, which has no barrier).
    round: u32,
    /// Changes whenever the instance moved (see [`progress_token`]).
    token: u64,
    /// Senders the current barrier still waits for (none without a barrier).
    waiting_on: Vec<u32>,
}

/// Everything the service needs to know about *which* protocol an instance
/// runs: the state-machine calls with their wire encoding on the way out
/// and the payload-kind check on the way in.
impl InstanceProto {
    fn set_obs(&mut self, obs: Obs, id: InstanceId) {
        match self {
            InstanceProto::Bvc(p) => p.set_obs(obs, Some(id)),
            InstanceProto::Va(p) => p.set_obs(obs, Some(id)),
        }
    }

    fn on_start(&mut self, id: InstanceId, local: ProcessId) -> Outbound {
        match self {
            InstanceProto::Bvc(p) => Self::encode_bvc(id, local, p.on_start()),
            InstanceProto::Va(p) => Self::encode_va(id, local, p.on_start()),
        }
    }

    /// Hand one authenticated frame to the state machine; `None` when the
    /// payload kind is not this instance's protocol (receive gate 4).
    fn on_frame(&mut self, local: ProcessId, frame: Frame) -> Option<Outbound> {
        let Frame { instance, sender, round, payload } = frame;
        match (self, payload) {
            (InstanceProto::Bvc(p), Payload::Eig(msgs)) => Some(Self::encode_bvc(
                instance,
                local,
                p.on_message(sender, RoundBatch { round: round as usize, msgs }),
            )),
            (InstanceProto::Va(p), Payload::Va(msg)) => {
                Some(Self::encode_va(instance, local, p.on_message(sender, msg)))
            }
            (_, _) => None,
        }
    }

    fn on_tick(&mut self, id: InstanceId, local: ProcessId) -> Outbound {
        match self {
            InstanceProto::Bvc(p) => Self::encode_bvc(id, local, p.on_tick()),
            InstanceProto::Va(p) => Self::encode_va(id, local, p.on_tick()),
        }
    }

    fn output(&self) -> Option<VecD> {
        match self {
            InstanceProto::Bvc(p) => p.output(),
            InstanceProto::Va(p) => p.output(),
        }
    }

    /// Witness commits so far — the change-driven WAL progress record; a
    /// protocol without witnesses stays at 0 and is never logged.
    fn witness_commits(&self) -> u64 {
        match self {
            InstanceProto::Bvc(_) => 0,
            InstanceProto::Va(p) => p.witness_commits(),
        }
    }

    /// Progress as the stall detector and `/status` see it: lockstep round
    /// plus barrier occupancy for BVC (with the concrete missing senders),
    /// witness commits for VA (no barrier, so no named senders).
    fn progress(&self) -> Progress {
        match self {
            InstanceProto::Bvc(p) => {
                let round = u32::try_from(p.current_round()).unwrap_or(u32::MAX);
                Progress {
                    kind: "bvc",
                    round,
                    token: progress_token(round, p.senders_have(), 0),
                    waiting_on: p
                        .waiting_on()
                        .iter()
                        .map(|&q| u32::try_from(q).unwrap_or(u32::MAX))
                        .collect(),
                }
            }
            InstanceProto::Va(p) => Progress {
                kind: "va",
                round: 0,
                token: progress_token(0, 0, p.witness_commits()),
                waiting_on: Vec::new(),
            },
        }
    }

    fn encode_bvc(
        instance: InstanceId,
        sender: ProcessId,
        sends: Vec<(ProcessId, RoundBatch<<SyncBvc as rbvc_sim::sync::SyncProtocol>::Msg>)>,
    ) -> Outbound {
        sends
            .into_iter()
            .map(|(dst, batch)| {
                let frame = Frame {
                    instance,
                    sender,
                    round: u32::try_from(batch.round).expect("round fits u32"),
                    payload: Payload::Eig(batch.msgs),
                };
                (dst, encode_frame(&frame))
            })
            .collect()
    }

    fn encode_va(
        instance: InstanceId,
        sender: ProcessId,
        sends: Vec<(ProcessId, <VerifiedAveraging as AsyncProtocol>::Msg)>,
    ) -> Outbound {
        sends
            .into_iter()
            .map(|(dst, msg)| {
                let frame = Frame {
                    instance,
                    sender,
                    round: u32::try_from(msg.0 .1).expect("round fits u32"),
                    payload: Payload::Va(msg),
                };
                (dst, encode_frame(&frame))
            })
            .collect()
    }
}

/// A decision surfaced by [`ConsensusService::poll`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionEvent {
    /// Which instance decided.
    pub instance: InstanceId,
    /// The local process that decided (always this service's id).
    pub process: ProcessId,
    /// The decided vector.
    pub value: VecD,
    /// Submit→decide time: from this instance's [`ConsensusService::launch`]
    /// (or [`ConsensusService::start`]) to the poll that surfaced the
    /// decision, on the local monotonic clock.
    pub latency: Duration,
}

struct Slot {
    proto: InstanceProto,
    decided: bool,
    /// Decision recovered from the WAL, pinned: [`ConsensusService::decision`]
    /// returns this over whatever the replayed state machine holds, so a
    /// recovered node can never surface a value that differs from the one it
    /// already surfaced before the crash.
    pinned: Option<VecD>,
    /// Whether this instance's `on_start` sends have gone out. Un-launched
    /// instances still receive and buffer frames (so a peer may start first)
    /// but are not ticked and cannot surface a decision.
    launched: bool,
    /// Monotonic launch timestamp; the submit side of the latency metric.
    submitted_at: Option<Instant>,
}

/// Names of the four receive gates, indexed as [`ConsensusService::gate_rejections`].
pub const GATE_NAMES: [&str; 4] = ["decode", "auth", "instance", "kind"];

/// Base of the client-request instance-id space: ids are
/// `CLIENT_INSTANCE_BASE | (owner << 24) | seq` with the owning process in
/// bits 24..44 and a per-owner sequence number in bits 0..24, so the owner
/// of any client instance is recoverable from the id alone (the auth check
/// on [`crate::wire::Payload::Launch`] frames) and owners can mint ids
/// concurrently without coordination. Disjoint from the small static ids
/// benchmarks and tests register directly.
pub const CLIENT_INSTANCE_BASE: u64 = 1 << 44;

/// The owning process encoded in a client instance id, or `None` if `id`
/// is not in the client instance-id space.
#[must_use]
pub fn client_instance_owner(id: InstanceId) -> Option<ProcessId> {
    if id >> 44 == 1 {
        Some(usize::try_from((id >> 24) & 0xF_FFFF).expect("20 bits fit usize"))
    } else {
        None
    }
}

/// Frames for a client instance that arrive before its `Launch` are parked
/// here (per service), bounded; overflow is shed and counted.
const CLIENT_STASH_CAP: usize = 1024;

/// Parameters of the client front-end (the consensus instances client
/// requests are run through, and the admission bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Fault tolerance each client instance is configured with. The
    /// benchmark meshes are crash-free, so `f = 0` (wait for all) gives the
    /// tightest agreement; adversarial campaigns run `f > 0`.
    pub f: usize,
    /// Bracha round budget per client instance.
    pub rounds: usize,
    /// Client instances this node will run concurrently as owner; further
    /// admissions queue.
    pub max_inflight: usize,
    /// Bound of the admission queue; beyond it clients get `Busy` and the
    /// request is shed.
    pub queue_cap: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { f: 0, rounds: 8, max_inflight: 64, queue_cap: 256 }
    }
}

/// Outcome of [`ConsensusService::client_submit`] — what the client port
/// sends back (or doesn't) for one `Submit`.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAdmission {
    /// The request was already decided: the identical cached decision, no
    /// new instance.
    Reply {
        /// The request number the cached decision answers.
        reqno: u64,
        /// The cached decision, bit-identical on every retry.
        decision: VecD,
    },
    /// This node does not own the session; the client should dial `0`'s
    /// client port.
    Redirect(ProcessId),
    /// In-flight and queue are both full; the request was shed.
    Busy,
    /// Admitted: a consensus instance was launched for this request.
    Admitted,
    /// Admitted into the bounded queue; it launches when an in-flight slot
    /// frees up.
    Queued,
    /// A request number at or below one already seen (an in-flight retry,
    /// or a regression); silently dropped — the original's reply stands.
    Stale,
    /// Structurally unacceptable (empty / oversized / non-finite vector, or
    /// the client front-end is not enabled); dropped and counted.
    Rejected,
}

/// Snapshot of the client front-end counters, for tests and campaigns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Distinct sessions in the client table.
    pub sessions: u64,
    /// Retries answered from the reply cache without a new instance.
    pub dedup_hits: u64,
    /// Submits for sessions this node does not own.
    pub redirects: u64,
    /// Requests shed with `Busy` (in-flight and queue both full).
    pub shed: u64,
    /// Early client-instance frames dropped because the stash was full.
    pub stash_shed: u64,
    /// Requests admitted as new consensus instances.
    pub admitted: u64,
    /// Structurally unacceptable submits dropped at admission.
    pub rejected: u64,
    /// Client instances currently in flight on this owner.
    pub pending: u64,
    /// Requests waiting in the admission queue.
    pub queued: u64,
}

/// One session's row in the client table (Viewstamped-Replication style):
/// the highest request number seen and the cached last reply.
#[derive(Default)]
struct SessionRow {
    last_reqno: Option<u64>,
    last_reply: Option<(u64, VecD)>,
}

impl SessionRow {
    /// Raise the highest request number seen to at least `reqno`.
    fn saw(&mut self, reqno: u64) {
        if self.last_reqno.is_none_or(|last| reqno > last) {
            self.last_reqno = Some(reqno);
        }
    }
}

/// The service-side client front-end state. Always present (the struct is
/// small); `enabled` gates the admission API, while the node-to-node side
/// — `Launch` handling and the early-frame stash — is always live so every
/// node participates in client instances whether or not it fronts clients.
struct ClientState {
    enabled: bool,
    cfg: ClientConfig,
    table: BTreeMap<u64, SessionRow>,
    /// In-flight client instances this node owns: instance → (session, reqno).
    pending: BTreeMap<InstanceId, (u64, u64)>,
    /// Bounded admission queue of (session, reqno, value).
    queue: VecDeque<(u64, u64, VecD)>,
    /// Next per-owner sequence number for minting instance ids.
    next_seq: u64,
    /// Client-instance frames that arrived before their `Launch`.
    stash: VecDeque<Frame>,
    /// Replies ready for the client port: (session, reqno, decision).
    replies_out: Vec<(u64, u64, VecD)>,
    dedup_hits: u64,
    redirects: u64,
    shed: u64,
    stash_shed: u64,
    admitted: u64,
    rejected: u64,
}

impl ClientState {
    fn new() -> Self {
        ClientState {
            enabled: false,
            cfg: ClientConfig::default(),
            table: BTreeMap::new(),
            pending: BTreeMap::new(),
            queue: VecDeque::new(),
            next_seq: 0,
            stash: VecDeque::new(),
            replies_out: Vec::new(),
            dedup_hits: 0,
            redirects: 0,
            shed: 0,
            stash_shed: 0,
            admitted: 0,
            rejected: 0,
        }
    }
}

/// Magic prefix of the recovery spec the service logs for its own client
/// instances, so [`ConsensusService::recover`] can rebuild them (and the
/// client table) internally before consulting the caller's factory.
const CLIENT_SPEC_MAGIC: [u8; 4] = *b"RBCS";

fn encode_client_spec(launch: &ClientLaunch) -> Vec<u8> {
    let value = &launch.value;
    let mut out = Vec::with_capacity(32 + value.dim() * 8);
    out.extend_from_slice(&CLIENT_SPEC_MAGIC);
    out.extend_from_slice(&launch.session.to_le_bytes());
    out.extend_from_slice(&launch.reqno.to_le_bytes());
    out.extend_from_slice(&launch.f.to_le_bytes());
    out.extend_from_slice(&launch.rounds.to_le_bytes());
    out.extend_from_slice(&u32::try_from(value.dim()).unwrap_or(u32::MAX).to_le_bytes());
    for &x in value.as_slice() {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    out
}

fn decode_client_spec(spec: &[u8]) -> Option<ClientLaunch> {
    if spec.len() < 32 || spec[..4] != CLIENT_SPEC_MAGIC {
        return None;
    }
    let u64_at = |i: usize| u64::from_le_bytes(spec[i..i + 8].try_into().expect("8 bytes"));
    let u32_at = |i: usize| u32::from_le_bytes(spec[i..i + 4].try_into().expect("4 bytes"));
    let dim = u32_at(28) as usize;
    if dim == 0 || dim > MAX_DIM || spec.len() != 32 + dim * 8 {
        return None;
    }
    let xs: Vec<f64> = (0..dim).map(|i| f64::from_bits(u64_at(32 + i * 8))).collect();
    Some(ClientLaunch {
        session: u64_at(4),
        reqno: u64_at(12),
        f: u32_at(20),
        rounds: u32_at(24),
        value: VecD::from_slice(&xs),
    })
}

/// Configuration for [`ConsensusService::enable_health`].
#[derive(Clone, Default)]
pub struct HealthConfig {
    /// Stall deadlines (detection + escalation-to-dump).
    pub stall: StallConfig,
    /// Where flight-recorder dumps land; `None` runs the detector without
    /// a flight recorder.
    pub flight_dir: Option<PathBuf>,
    /// Flight-recorder ring capacity in events (clamped to a sane minimum
    /// by the recorder); 0 picks the default.
    pub flight_capacity: usize,
    /// Status board the node publishes its `/status` snapshot to; `None`
    /// skips publishing.
    pub status: Option<StatusBoard>,
}

/// Interval between [`StatusBoard`] publishes: `/status` is a human/CI
/// endpoint, re-rendering the snapshot every poll would be pure overhead.
const STATUS_PUBLISH_INTERVAL_US: u64 = 20_000;

/// Default flight-recorder ring capacity (events) when the config says 0.
const FLIGHT_CAPACITY_DEFAULT: usize = 4096;

/// Live health state behind [`ConsensusService::enable_health`].
struct HealthState {
    detector: StallDetector,
    flight: Option<Arc<FlightRecorder>>,
    board: Option<StatusBoard>,
    /// Last status publish (µs, shared monotonic clock) — rate limiter.
    last_publish_us: u64,
}

/// The per-process service multiplexing consensus instances over one
/// transport endpoint.
pub struct ConsensusService<T: Transport> {
    transport: T,
    instances: BTreeMap<InstanceId, Slot>,
    undecided: usize,
    errors: ErrorLog,
    started: bool,
    /// Per-gate rejection counts, indexed as [`GATE_NAMES`].
    gate_rejections: [u64; 4],
    /// Per-sender rejection counts: `[sender][gate]`, gates indexed as
    /// [`GATE_NAMES`]. The sender is the transport-authenticated link peer
    /// for the decode/auth gates and the (by then link-verified) frame
    /// sender for the instance/kind gates — what lets an adversarial
    /// campaign attribute every rejection to the node that caused it.
    gate_rejections_by_sender: Vec<[u64; 4]>,
    /// Structured-event sink (no-op by default), node tag baked in.
    obs: Obs,
    /// Write-ahead log; `None` runs the service non-durable (no write-through,
    /// no reconnect history).
    wal: Option<Wal>,
    /// Full outbound frame history, `history[dst]` in send order, kept only
    /// while durable: a peer the transport reports as reconnected gets its
    /// own frames replayed, and recovery rebuilds it from the WAL.
    history: Vec<Vec<Vec<u8>>>,
    /// Last witness-commit count logged per VA instance (write-through is
    /// change-driven, not per-poll).
    witness_logged: BTreeMap<InstanceId, u64>,
    /// Decisions replayed out of the WAL (surfaced before the crash; they do
    /// not reappear in [`ConsensusService::poll`] results).
    recovered: Vec<DecisionEvent>,
    /// Replay anomalies: regenerated sends that failed the FIFO match against
    /// the logged ones, undecodable WAL records, or records referencing
    /// unknown instances. Zero on a faithful recovery.
    replay_divergence: u64,
    /// Per-destination outbound frame counters: every frame [`Self::route`]
    /// queues for `dst` gets the next sequence number on that directed link.
    /// Links are FIFO, so the receiver's matching per-source counter assigns
    /// the same number to the same frame — the pairing key that lets the
    /// trace assembler join a `FrameTx` span to its `FrameRx` across nodes
    /// without widening the wire format. (History replay after a reconnect
    /// bypasses `route` and so keeps the counters aligned on both sides.)
    tx_seq: Vec<u64>,
    /// Per-source inbound frame counters; see `tx_seq`.
    rx_seq: Vec<u64>,
    /// Client front-end: session table, admission bounds, reply cache.
    client: ClientState,
    /// Health subsystem (stall detector, status publisher, flight
    /// recorder); `None` until [`ConsensusService::enable_health`].
    health: Option<HealthState>,
    /// Artificial delay added to every group-commit sync — fault injection
    /// for the health campaign's slow-fsync class. Zero in real runs.
    fsync_throttle: Duration,
}

impl<T: Transport> ConsensusService<T> {
    /// Wrap a transport endpoint into an (initially empty) service.
    #[must_use]
    pub fn new(transport: T) -> Self {
        let node = u32::try_from(transport.local_id()).unwrap_or(u32::MAX);
        let n = transport.n();
        ConsensusService {
            transport,
            instances: BTreeMap::new(),
            undecided: 0,
            errors: ErrorLog::new(),
            started: false,
            gate_rejections: [0; 4],
            gate_rejections_by_sender: vec![[0; 4]; n],
            obs: Obs::noop().with_node(node),
            wal: None,
            history: vec![Vec::new(); n],
            witness_logged: BTreeMap::new(),
            recovered: Vec::new(),
            replay_divergence: 0,
            tx_seq: vec![0; n],
            rx_seq: vec![0; n],
            client: ClientState::new(),
            health: None,
            fsync_throttle: Duration::ZERO,
        }
    }

    /// Attach a write-ahead log: every state-changing point from here on is
    /// logged before it takes effect. Attach before registering instances so
    /// their specs are durable; to resume from an existing log use
    /// [`ConsensusService::recover`] instead.
    pub fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// True iff a WAL is attached.
    #[must_use]
    pub fn durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Declare that this service's transport runs keyed link identity:
    /// pre-registers the `auth.*` aggregate counters so a `/metrics`
    /// scrape shows explicit zeros before the first handshake outcome,
    /// rather than absent series. The per-event drain into the flight
    /// recorder ([`EventKind::AuthEstablished`] / [`EventKind::AuthReject`])
    /// is always on — a plaintext transport simply never produces any.
    pub fn enable_auth(&mut self) {
        let reg = Registry::global();
        reg.counter("auth.reject_total").add(0);
        reg.counter("auth.established_total").add(0);
    }

    /// Drain the transport's handshake outcomes into the observability
    /// stream, where the flight recorder and trace assembler see them.
    fn drain_auth_events(&mut self) {
        for ev in self.transport.take_auth_events() {
            match ev {
                AuthEvent::Established { peer, epoch } => {
                    self.obs.emit(|| {
                        Event::new(EventKind::AuthEstablished)
                            .peer(u32::try_from(peer).unwrap_or(u32::MAX))
                            .detail(format!("epoch={epoch}"))
                    });
                }
                AuthEvent::Rejected { peer, reason } => {
                    self.obs.emit(|| {
                        let e = Event::new(EventKind::AuthReject)
                            .detail(format!("reason={reason}"));
                        match peer {
                            Some(p) => e.peer(u32::try_from(p).unwrap_or(u32::MAX)),
                            None => e,
                        }
                    });
                }
            }
        }
    }

    /// Append one record to the WAL's current batch (no-op when
    /// non-durable), encoded from the borrowed fields; an append failure
    /// degrades — it is recorded, the service keeps running on the
    /// in-memory state.
    fn wal_append(&mut self, rec: WalRecordRef<'_>) {
        if let Some(w) = self.wal.as_mut() {
            if let Err(e) = w.append_record(rec) {
                self.errors.record(ProtocolError::Transport {
                    peer: None,
                    reason: format!("wal append failed: {e}"),
                });
            } else {
                self.obs.emit(|| Event::new(EventKind::WalAppend));
            }
        }
    }

    /// Group-commit: write and fsync everything appended since the last
    /// sync. Called once per poll, after the poll's decisions joined the
    /// batch and *before* the transport flush (WAL-before-wire).
    fn wal_sync(&mut self) {
        // Fault injection: a throttled "device" is slow whether or not a WAL
        // is attached — the measured fsync time in `poll` includes the sleep,
        // which is what the stall detector's fsync classifier watches.
        if !self.fsync_throttle.is_zero() {
            std::thread::sleep(self.fsync_throttle);
        }
        if let Some(w) = self.wal.as_mut() {
            if let Err(e) = w.sync() {
                self.errors.record(ProtocolError::Transport {
                    peer: None,
                    reason: format!("wal sync failed: {e}"),
                });
            }
        }
    }

    /// Attach a structured-event sink; the service emits
    /// [`EventKind::GateReject`] at each of the four receive gates and
    /// [`EventKind::Decide`] (with a `latency_us=` detail) per decided
    /// instance, and propagates the sink to every registered instance —
    /// lockstep round events and Verified-Averaging protocol events flow
    /// through it tagged with their instance id. Attach *before*
    /// registering instances so all of them are covered.
    pub fn set_obs(&mut self, obs: Obs) {
        let node = u32::try_from(self.transport.local_id()).unwrap_or(u32::MAX);
        self.obs = obs.with_node(node);
        let ids: Vec<InstanceId> = self.instances.keys().copied().collect();
        for id in ids {
            self.attach_instance_obs(id);
        }
    }

    fn attach_instance_obs(&mut self, id: InstanceId) {
        let obs = self.obs.clone();
        if let Some(slot) = self.instances.get_mut(&id) {
            slot.proto.set_obs(obs, id);
        }
    }

    /// Per-gate rejection counts (decode, sender auth, instance lookup,
    /// payload kind), in [`GATE_NAMES`] order.
    #[must_use]
    pub fn gate_rejections(&self) -> [u64; 4] {
        self.gate_rejections
    }

    /// Per-sender rejection counts, `[sender][gate]` with gates in
    /// [`GATE_NAMES`] order. See the field docs for what "sender" means at
    /// each gate.
    #[must_use]
    pub fn gate_rejections_by_sender(&self) -> &[[u64; 4]] {
        &self.gate_rejections_by_sender
    }

    /// Record one rejection at gate `gate` (index into [`GATE_NAMES`]),
    /// attribute it to `from` (metrics label + per-sender table + the
    /// `from=` field of the [`EventKind::GateReject`] detail), and trace it.
    fn gate_reject(&mut self, gate: usize, from: ProcessId, err: ProtocolError) {
        self.gate_rejections[gate] += 1;
        if let Some(per_sender) = self.gate_rejections_by_sender.get_mut(from) {
            per_sender[gate] += 1;
        }
        let sender = from.to_string();
        Registry::global()
            .counter_with(
                "service.gate.reject",
                &[("gate", GATE_NAMES[gate]), ("sender", sender.as_str())],
            )
            .inc();
        self.obs.emit(|| {
            Event::new(EventKind::GateReject).detail(format!("gate={} from={from}", GATE_NAMES[gate]))
        });
        self.errors.record(err);
    }

    /// Register one instance under `id`.
    ///
    /// # Errors
    /// [`ProtocolError::InvalidSpec`] if `id` is already taken or the
    /// service already started.
    pub fn add_instance(&mut self, id: InstanceId, proto: InstanceProto) -> Result<(), ProtocolError> {
        if self.started {
            return Err(ProtocolError::InvalidSpec {
                reason: "instances must be registered before start()".into(),
            });
        }
        if self.instances.contains_key(&id) {
            return Err(ProtocolError::InvalidSpec {
                reason: format!("duplicate instance id {id}"),
            });
        }
        self.insert_slot(id, proto);
        Ok(())
    }

    fn insert_slot(&mut self, id: InstanceId, proto: InstanceProto) {
        self.instances.insert(
            id,
            Slot { proto, decided: false, pinned: None, launched: false, submitted_at: None },
        );
        self.undecided += 1;
        self.attach_instance_obs(id);
    }

    /// Register one instance durably: `spec` is an opaque blob the caller's
    /// recovery factory can rebuild the instance from (constructor
    /// parameters, typically) — the service logs it verbatim and never
    /// interprets it.
    ///
    /// # Errors
    /// Like [`ConsensusService::add_instance`]; also [`ProtocolError::InvalidSpec`]
    /// if no WAL is attached.
    pub fn add_instance_durable(
        &mut self,
        id: InstanceId,
        proto: InstanceProto,
        spec: Vec<u8>,
    ) -> Result<(), ProtocolError> {
        if self.wal.is_none() {
            return Err(ProtocolError::InvalidSpec {
                reason: "add_instance_durable requires an attached WAL".into(),
            });
        }
        self.add_instance(id, proto)?;
        self.wal_append(WalRecordRef::Registered { instance: id, spec: &spec });
        Ok(())
    }

    /// Kick off every registered instance (their `on_start` sends), flushed
    /// as one batch per peer.
    ///
    /// # Errors
    /// Propagates transport-level send/flush failures (also recorded).
    pub fn start(&mut self) -> Result<(), ProtocolError> {
        self.started = true;
        let mut first_err = None;
        let ids: Vec<InstanceId> = self.instances.keys().copied().collect();
        for id in ids {
            if let Err(e) = self.launch_inner(id, false) {
                first_err.get_or_insert(e);
            }
        }
        self.wal_sync();
        if let Err(e) = self.transport.flush() {
            first_err.get_or_insert(e);
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Open the service for traffic *without* launching any instance:
    /// registered instances buffer inbound frames (a peer may legitimately
    /// start first) but send nothing and cannot decide until
    /// [`ConsensusService::launch`] releases them individually. This is the
    /// closed-loop submission mode: keeping a bounded window of launched
    /// instances in flight yields meaningful per-instance submit→decide
    /// latencies instead of every instance marching in lockstep.
    pub fn start_deferred(&mut self) {
        self.started = true;
    }

    /// Launch one registered instance: queue its `on_start` sends and stamp
    /// its submission time. The sends ride the next flush — the upcoming
    /// [`ConsensusService::poll`] in the steady state, or an explicit
    /// [`ConsensusService::flush`] — so a burst of launches batches into
    /// one write per peer instead of one per launch.
    ///
    /// # Errors
    /// [`ProtocolError::InvalidSpec`] if the service has not started, `id`
    /// is unknown, or the instance already launched; transport errors are
    /// propagated (and recorded) like in [`ConsensusService::start`].
    pub fn launch(&mut self, id: InstanceId) -> Result<(), ProtocolError> {
        if !self.started {
            return Err(ProtocolError::InvalidSpec {
                reason: "launch() requires start() or start_deferred() first".into(),
            });
        }
        self.launch_inner(id, true)
    }

    /// Push everything queued on the transport out now (a poll does this
    /// anyway; use after a launch burst outside the poll loop).
    ///
    /// # Errors
    /// Propagates transport-level flush failures.
    pub fn flush(&mut self) -> Result<(), ProtocolError> {
        self.wal_sync();
        self.transport.flush()
    }

    /// Mark `id` launched, stamp its submission time and produce its
    /// `on_start` frames — the one path a local launch, a peer's `Launch`
    /// frame and the replay of a `Launched` record all take. `None` if `id`
    /// is not registered.
    fn start_instance(&mut self, id: InstanceId) -> Option<Outbound> {
        let local = self.transport.local_id();
        let slot = self.instances.get_mut(&id)?;
        slot.launched = true;
        slot.submitted_at = Some(Instant::now());
        // The trace-side submit marker: same instant (to within the emit
        // call) as `submitted_at`, so the assembler's critical-path total
        // is directly comparable to the measured decide latency.
        self.obs.emit(|| Event::new(EventKind::Submit).instance(id));
        Some(slot.proto.on_start(id, local))
    }

    /// Live launch: [`Self::start_instance`], logged and routed. `check`
    /// enforces the single-launch contract (the bulk `start()` path iterates
    /// fresh ids and skips the check).
    fn launch_inner(&mut self, id: InstanceId, check: bool) -> Result<(), ProtocolError> {
        if check && self.instances.get(&id).is_some_and(|slot| slot.launched) {
            return Err(ProtocolError::InvalidSpec {
                reason: format!("instance {id} already launched"),
            });
        }
        let Some(sends) = self.start_instance(id) else {
            return Err(ProtocolError::InvalidSpec {
                reason: format!("launch of unknown instance {id}"),
            });
        };
        self.wal_append(WalRecordRef::Launched { instance: id });
        self.route(sends)
    }

    /// Queue encoded frames on the transport, logging each as a `Sent`
    /// record first when durable (the group-commit sync lands before the
    /// flush that puts them on the wire); failures are recorded and the
    /// remaining frames still go out. Every frame takes the next sequence
    /// number on its directed link and, when tracing, emits a `FrameTx`
    /// span carrying the frame identity `(instance, round, dst, seq)`.
    fn route(&mut self, frames: Outbound) -> Result<(), ProtocolError> {
        let mut first_err = None;
        for (dst, bytes) in frames {
            if let Some(seq_slot) = self.tx_seq.get_mut(dst) {
                let seq = *seq_slot;
                *seq_slot += 1;
                if self.obs.enabled() {
                    if let Some((instance, _, round, kind)) = crate::wire::peek_header(&bytes) {
                        let len = bytes.len();
                        self.obs.emit(|| {
                            Event::new(EventKind::FrameTx)
                                .instance(instance)
                                .round(round)
                                .peer(u32::try_from(dst).unwrap_or(u32::MAX))
                                .seq(seq)
                                .detail(format!("kind={kind} bytes={len}"))
                        });
                    }
                }
            }
            if self.wal.is_some() {
                self.wal_append(WalRecordRef::Sent {
                    dst: u32::try_from(dst).unwrap_or(u32::MAX),
                    bytes: &bytes,
                });
                if let Some(sent) = self.history.get_mut(dst) {
                    sent.push(bytes.clone());
                }
            }
            if let Err(e) = self.transport.send(dst, bytes) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// The receive boundary for one frame off the link from `link_peer`:
    /// decode gate, sender gate, write-through, dispatch. Returns the
    /// outbound frames it produced. Live polls and WAL replay both enter
    /// here — replay with no WAL attached yet, so nothing is logged twice and
    /// a rejection re-occurs through the same gate counters.
    fn ingest(&mut self, link_peer: ProcessId, bytes: &[u8]) -> Outbound {
        let frame = match decode_frame(bytes, link_peer) {
            Ok(f) => f,
            Err(e) => {
                self.gate_reject(0, link_peer, e);
                return Vec::new();
            }
        };
        if frame.sender != link_peer {
            self.gate_reject(
                1,
                link_peer,
                ProtocolError::MalformedPayload {
                    from: link_peer,
                    reason: format!(
                        "spoofed sender: header claims {} on the link from {}",
                        frame.sender, link_peer
                    ),
                },
            );
            return Vec::new();
        }
        // Log the authenticated frame *before* it mutates protocol state:
        // replay re-runs the gates and the dispatch deterministically.
        self.wal_append(WalRecordRef::Inbound {
            from: u32::try_from(link_peer).unwrap_or(u32::MAX),
            bytes,
        });
        self.dispatch(frame)
    }

    /// Dispatch one authenticated, decoded frame to its instance. Returns
    /// the outbound frames it produced.
    fn dispatch(&mut self, frame: Frame) -> Outbound {
        let local = self.transport.local_id();
        if let Payload::Launch(launch) = &frame.payload {
            let launch = launch.clone();
            return self.dispatch_launch(frame.instance, frame.sender, launch);
        }
        let Some(slot) = self.instances.get_mut(&frame.instance) else {
            // A frame for a client instance may legitimately beat its
            // `Launch` here (different links race); park it, bounded.
            if client_instance_owner(frame.instance).is_some() {
                if self.client.stash.len() < CLIENT_STASH_CAP {
                    self.client.stash.push_back(frame);
                } else {
                    self.client.stash_shed += 1;
                    Registry::global().counter("service.client.stash_shed").inc();
                }
                return Vec::new();
            }
            self.gate_reject(
                2,
                frame.sender,
                ProtocolError::MalformedPayload {
                    from: frame.sender,
                    reason: format!("frame for unknown instance {}", frame.instance),
                },
            );
            return Vec::new();
        };
        let (sender, instance) = (frame.sender, frame.instance);
        slot.proto.on_frame(local, frame).unwrap_or_else(|| {
            self.gate_reject(
                3,
                sender,
                ProtocolError::MalformedPayload {
                    from: sender,
                    reason: format!(
                        "payload kind does not match the protocol of instance {instance}"
                    ),
                },
            );
            Vec::new()
        })
    }

    /// One service step: receive (waiting up to `timeout` for the first
    /// frame), decode, authenticate, demultiplex, dispatch, tick, and flush
    /// everything produced as one batch per peer. Returns the decisions
    /// newly reached during this poll.
    pub fn poll(&mut self, timeout: Duration) -> Vec<DecisionEvent> {
        // A peer whose outbound link was re-established (it restarted, or
        // the link died and was redialed) gets the full outbound history
        // replayed: whatever fell into the gap is covered, receivers dedup.
        for peer in self.transport.take_reconnects() {
            for bytes in self.history.get(peer).into_iter().flatten() {
                let _ = self.transport.send(peer, bytes.clone());
            }
        }
        let inbound = self.transport.recv_timeout_stamped(timeout);
        self.drain_auth_events();
        // The poll's busy span starts once the receive wait is over —
        // blocking on an empty socket is idle time, not poll work.
        let t_active = Instant::now();
        let n_rx = inbound.len();
        let mut outbound: Outbound = Vec::new();
        for (link_peer, arrived_us, bytes) in inbound {
            // Count the frame on its directed link *before* any gate can
            // reject it, mirroring the sender's unconditional `tx_seq`
            // bump — rejections must not desynchronize the pairing.
            let seq = match self.rx_seq.get_mut(link_peer) {
                Some(s) => {
                    let seq = *s;
                    *s += 1;
                    seq
                }
                None => u64::MAX,
            };
            if self.obs.enabled() {
                if let Some((instance, _, round, _)) = crate::wire::peek_header(&bytes) {
                    let waited = rbvc_obs::clock::now_us().saturating_sub(arrived_us);
                    self.obs.emit(|| {
                        Event::new(EventKind::FrameRx)
                            .instance(instance)
                            .round(round)
                            .peer(u32::try_from(link_peer).unwrap_or(u32::MAX))
                            .seq(seq)
                            .dur(waited)
                    });
                }
            }
            outbound.extend(self.ingest(link_peer, &bytes));
        }
        // Drive timers (lockstep round timeouts) once per poll.
        let local = self.transport.local_id();
        let ids: Vec<InstanceId> = self.instances.keys().copied().collect();
        for id in ids {
            let slot = self.instances.get_mut(&id).expect("registered");
            if slot.decided || !slot.launched {
                continue;
            }
            outbound.extend(slot.proto.on_tick(id, local));
        }
        let n_tx = outbound.len();
        let routed = self.route(outbound);
        // Witness-commit progress (change-driven): lets recovery cross-check
        // how far each VA instance had committed.
        if self.wal.is_some() {
            let mut commits: Vec<(InstanceId, u64)> = Vec::new();
            for (id, slot) in &self.instances {
                let count = slot.proto.witness_commits();
                if self.witness_logged.get(id).copied().unwrap_or(0) != count {
                    commits.push((*id, count));
                }
            }
            for (instance, count) in commits {
                self.wal_append(WalRecordRef::WitnessCommit { instance, count });
                self.witness_logged.insert(instance, count);
            }
        }
        // This poll's decisions (and the client replies they complete) join
        // the batch, so one sync covers them with everything else.
        let decided = self.collect_decisions();
        self.record_client_replies(&decided);
        // Group-commit before the wire flush: nothing reaches a peer, a
        // client or the caller unless the records that produced it are
        // durable.
        let t_sync = Instant::now();
        self.wal_sync();
        let fsync_us = u64::try_from(t_sync.elapsed().as_micros()).unwrap_or(u64::MAX);
        if routed.is_err() || self.transport.flush().is_err() {
            // Already recorded by the transport; the poll loop continues on
            // the surviving links.
        }
        let decisions = self.surface_decisions(decided);
        self.backfill_client_queue();
        // Health turn — unconditional: stalls are exactly the polls where
        // nothing else happens.
        self.health_tick(fsync_us);
        // Close the poll span. `kernel_us` is whatever the hot geometry
        // kernels accumulated on *this* thread since the last drain (the
        // dispatches and ticks above); `fsync_us` is this poll's group
        // commit, the batched write included. Idle polls (no traffic, no
        // decisions) stay silent so a trace is dominated by signal, not by
        // the poll loop spinning.
        if self.obs.enabled() && (n_rx > 0 || n_tx > 0 || !decisions.is_empty()) {
            let kernel_us = rbvc_obs::take_thread_kernel_nanos() / 1_000;
            let dur = u64::try_from(t_active.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.obs.emit(|| {
                Event::new(EventKind::PollEnd).dur(dur).detail(format!(
                    "rx={n_rx} tx={n_tx} fsync_us={fsync_us} kernel_us={kernel_us}"
                ))
            });
        }
        decisions
    }

    /// Mark newly decided instances (each instance at most once) and append
    /// their `Decided` records to the WAL's current batch. Un-launched
    /// instances are skipped even if their state machine already holds an
    /// output — the latency clock starts at launch, so a decision is only
    /// *surfaced* once the instance was submitted. Nothing is surfaced
    /// here: [`Self::surface_decisions`] does that after the group commit.
    fn collect_decisions(&mut self) -> Vec<(InstanceId, VecD)> {
        let mut decided = Vec::new();
        for (id, slot) in &mut self.instances {
            if slot.decided || !slot.launched {
                continue;
            }
            if let Some(value) = slot.proto.output() {
                slot.decided = true;
                self.undecided -= 1;
                decided.push((*id, value));
            }
        }
        for (instance, value) in &decided {
            self.wal_append(WalRecordRef::Decided {
                instance: *instance,
                value: value.as_slice(),
            });
        }
        decided
    }

    /// Turn this poll's decisions into events, once the sync that covers
    /// their records and the transport flush are behind them: a surfaced
    /// decision must survive any crash, or a restart could surface a
    /// different one. The latency clock stops here.
    fn surface_decisions(&mut self, decided: Vec<(InstanceId, VecD)>) -> Vec<DecisionEvent> {
        let local = self.transport.local_id();
        let mut events = Vec::with_capacity(decided.len());
        for (instance, value) in decided {
            let latency = self
                .instances
                .get(&instance)
                .and_then(|slot| slot.submitted_at)
                .map(|t| t.elapsed())
                .unwrap_or_default();
            let latency_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
            Registry::global()
                .histogram("service.decide.latency_us")
                .record(latency_us);
            self.obs.emit(|| {
                Event::new(EventKind::Decide)
                    .instance(instance)
                    .detail(format!("latency_us={latency_us}"))
            });
            events.push(DecisionEvent { instance, process: local, value, latency });
        }
        events
    }

    /// Poll until every instance decided or `max_polls` elapse; returns all
    /// decision events in arrival order.
    pub fn run_until_decided(
        &mut self,
        poll_timeout: Duration,
        max_polls: usize,
    ) -> Vec<DecisionEvent> {
        let mut events = Vec::new();
        for _ in 0..max_polls {
            if self.undecided == 0 {
                break;
            }
            events.extend(self.poll(poll_timeout));
        }
        events
    }

    /// True iff every registered instance has decided.
    #[must_use]
    pub fn all_decided(&self) -> bool {
        self.undecided == 0
    }

    /// Decision of one instance, if reached. A decision pinned by recovery
    /// wins over the replayed state machine's output: the pre-crash surfaced
    /// value is the only one this process may ever report.
    #[must_use]
    pub fn decision(&self, id: InstanceId) -> Option<VecD> {
        let slot = self.instances.get(&id)?;
        if let Some(pinned) = &slot.pinned {
            return Some(pinned.clone());
        }
        slot.proto.output()
    }

    /// Enable the client front-end with `cfg`: this node will accept
    /// [`ConsensusService::client_submit`] calls (from a
    /// [`crate::client::ClientPort`] pump, typically) for the sessions it
    /// owns. The node-to-node side of client instances — `Launch` handling
    /// and the early-frame stash — is live on every node regardless; this
    /// only opens the admission API. Also pre-registers the client metrics
    /// so the live `/metrics` endpoint exports them from the first scrape.
    pub fn enable_client(&mut self, cfg: ClientConfig) {
        self.client.enabled = true;
        self.client.cfg = cfg;
        let reg = Registry::global();
        reg.gauge("client.sessions").set(self.client.table.len() as i64);
        reg.counter("client.dedup_hits").add(self.client.dedup_hits);
        reg.counter("client.redirects").add(self.client.redirects);
        reg.counter("service.client.shed").add(0);
    }

    /// Arm the health subsystem: from here on every poll feeds instance
    /// progress and link health into a stall detector, publishes a node
    /// snapshot to the configured [`StatusBoard`] (if any), and — when a
    /// flight directory is configured — tees the service's event stream
    /// into an always-on [`FlightRecorder`] that dumps on a violation, an
    /// escalated stall, or a panic. Call *after* [`ConsensusService::set_obs`]
    /// so the tee wraps the real sink; zero behavior change for services
    /// that never call this.
    pub fn enable_health(&mut self, cfg: HealthConfig) {
        let node = u32::try_from(self.transport.local_id()).unwrap_or(u32::MAX);
        let detector = StallDetector::new(node, cfg.stall, Registry::global().clone());
        let flight = cfg.flight_dir.map(|dir| {
            let cap = if cfg.flight_capacity == 0 {
                FLIGHT_CAPACITY_DEFAULT
            } else {
                cfg.flight_capacity
            };
            Arc::new(FlightRecorder::new(node, dir, cap, Registry::global().clone()))
        });
        if let Some(f) = &flight {
            rbvc_obs::arm_panic_hook(f);
            let sinks: Vec<Arc<dyn Recorder>> = vec![self.obs.recorder().clone(), f.clone()];
            self.set_obs(Obs::new(Arc::new(TeeRecorder::new(sinks))));
        }
        self.health = Some(HealthState {
            detector,
            flight,
            board: cfg.status,
            last_publish_us: 0,
        });
    }

    /// Inject an artificial delay into every group-commit sync — the
    /// health campaign's slow-fsync fault. Zero (the default) disables it.
    pub fn set_fsync_throttle(&mut self, throttle: Duration) {
        self.fsync_throttle = throttle;
    }

    /// Every stall the detector ever raised (bounded history), in
    /// detection order. Empty without [`ConsensusService::enable_health`].
    #[must_use]
    pub fn health_reports(&self) -> Vec<StallReport> {
        self.health.as_ref().map(|h| h.detector.reports().to_vec()).unwrap_or_default()
    }

    /// Stalls currently active (detected, not yet cleared).
    #[must_use]
    pub fn active_stalls(&self) -> Vec<StallReport> {
        self.health.as_ref().map(|h| h.detector.active()).unwrap_or_default()
    }

    /// Total stalls ever raised — the clean-run false-positive check.
    #[must_use]
    pub fn stalls_raised(&self) -> u64 {
        self.health.as_ref().map_or(0, |h| h.detector.raised_total())
    }

    /// The armed flight recorder, if health was enabled with a flight
    /// directory.
    #[must_use]
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.health.as_ref().and_then(|h| h.flight.as_ref())
    }

    /// Per-instance progress as the stall detector sees it.
    fn health_progress(&self) -> Vec<InstanceProgress> {
        self.instances
            .iter()
            .map(|(id, slot)| {
                let p = slot.proto.progress();
                InstanceProgress {
                    instance: *id,
                    round: p.round,
                    launched: slot.launched,
                    decided: slot.decided || slot.pinned.is_some(),
                    progress_token: p.token,
                    waiting_on: p.waiting_on,
                }
            })
            .collect()
    }

    /// One health turn, run at the end of every poll: feed the detector,
    /// surface stall events into the trace, dump the flight ring on
    /// escalation, and (rate-limited) publish the `/status` snapshot.
    fn health_tick(&mut self, fsync_us: u64) {
        let Some(mut h) = self.health.take() else { return };
        let now_us = rbvc_obs::clock::now_us();
        h.detector.note_fsync(now_us, fsync_us);
        let progress = self.health_progress();
        let links = self.transport.link_health();
        for ev in h.detector.observe(now_us, &progress, &links) {
            match ev {
                StallEvent::Detected(r) => {
                    let (instance, round, detail) = (r.instance, r.round, r.detail(false));
                    self.obs.emit(|| {
                        Event::new(EventKind::StallDetected)
                            .instance(instance)
                            .round(round)
                            .detail(detail)
                    });
                }
                StallEvent::Escalated(r) => {
                    let (instance, round, detail) = (r.instance, r.round, r.detail(true));
                    self.obs.emit(|| {
                        Event::new(EventKind::StallDetected)
                            .instance(instance)
                            .round(round)
                            .detail(detail)
                    });
                    if let Some(f) = &h.flight {
                        f.dump("stall");
                    }
                }
                StallEvent::Cleared(r) => {
                    let (instance, round, detail) = (r.instance, r.round, r.detail(false));
                    self.obs.emit(|| {
                        Event::new(EventKind::StallCleared)
                            .instance(instance)
                            .round(round)
                            .detail(detail)
                    });
                }
            }
        }
        if let Some(board) = &h.board {
            if h.last_publish_us == 0
                || now_us.saturating_sub(h.last_publish_us) >= STATUS_PUBLISH_INTERVAL_US
            {
                h.last_publish_us = now_us;
                let snap = self.status_snapshot(&h.detector, links, now_us);
                board.publish(snap.node, snap.render());
            }
        }
        self.health = Some(h);
    }

    /// Cap on per-instance rows in a `/status` snapshot; undecided
    /// instances take priority, counts always cover the full set.
    const STATUS_INSTANCE_CAP: usize = 32;

    /// Build this node's `/status` snapshot.
    fn status_snapshot(
        &self,
        detector: &StallDetector,
        links: Vec<rbvc_obs::LinkHealth>,
        now_us: u64,
    ) -> StatusSnapshot {
        let node = u32::try_from(self.transport.local_id()).unwrap_or(u32::MAX);
        let total_instances = self.instances.len() as u64;
        let row = |id: InstanceId, slot: &Slot| {
            let p = slot.proto.progress();
            InstanceStatus {
                id,
                proto: p.kind.to_string(),
                round: p.round,
                launched: slot.launched,
                decided: slot.decided || slot.pinned.is_some(),
                waiting_on: p.waiting_on,
            }
        };
        let decided_instances = self
            .instances
            .values()
            .filter(|s| s.decided || s.pinned.is_some())
            .count() as u64;
        let mut instances: Vec<InstanceStatus> = self
            .instances
            .iter()
            .filter(|(_, s)| !(s.decided || s.pinned.is_some()))
            .take(Self::STATUS_INSTANCE_CAP)
            .map(|(id, s)| row(*id, s))
            .collect();
        for (id, slot) in &self.instances {
            if instances.len() >= Self::STATUS_INSTANCE_CAP {
                break;
            }
            if slot.decided || slot.pinned.is_some() {
                instances.push(row(*id, slot));
            }
        }
        let client = self.client.enabled.then_some(ClientStatus {
            sessions: self.client.table.len() as u64,
            inflight: self.client.pending.len() as u64,
            shed: self.client.shed,
        });
        let wal = self.wal.as_ref().map(|w| WalStatus {
            size_bytes: w.len(),
            records: w.records(),
            records_since_compaction: w.records_since_compaction(),
        });
        StatusSnapshot {
            node,
            instances,
            total_instances,
            decided_instances,
            client,
            wal,
            links,
            stalls: detector.active(),
            updated_us: now_us,
        }
    }

    /// Which process owns client session `session` (sessions are sharded
    /// `session % n`).
    #[must_use]
    pub fn session_owner(&self, session: u64) -> ProcessId {
        usize::try_from(session % self.transport.n() as u64).expect("owner fits usize")
    }

    /// Snapshot of the client front-end counters.
    #[must_use]
    pub fn client_stats(&self) -> ClientStats {
        ClientStats {
            sessions: self.client.table.len() as u64,
            dedup_hits: self.client.dedup_hits,
            redirects: self.client.redirects,
            shed: self.client.shed,
            stash_shed: self.client.stash_shed,
            admitted: self.client.admitted,
            rejected: self.client.rejected,
            pending: self.client.pending.len() as u64,
            queued: self.client.queue.len() as u64,
        }
    }

    /// Number of registered instances (static and client-launched).
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Take the client replies that became ready since the last call:
    /// `(session, reqno, decision)`, each already WAL-durable when the
    /// service is durable. The client port delivers them to whichever
    /// connection last submitted for the session.
    pub fn take_client_replies(&mut self) -> Vec<(u64, u64, VecD)> {
        std::mem::take(&mut self.client.replies_out)
    }

    /// Admit one client request `(session, reqno, value)` into the table —
    /// the VR-style boundary that makes retries idempotent:
    ///
    /// * not the owner → [`ClientAdmission::Redirect`];
    /// * `reqno` equals the cached reply's → the identical cached decision,
    ///   no new instance ([`ClientAdmission::Reply`], a dedup hit);
    /// * `reqno` at or below the highest seen (an in-flight retry) →
    ///   [`ClientAdmission::Stale`], silently dropped — the in-flight
    ///   instance's reply answers it;
    /// * a fresh `reqno` → launched now ([`ClientAdmission::Admitted`]),
    ///   queued ([`ClientAdmission::Queued`]), or shed with
    ///   [`ClientAdmission::Busy`] when both bounds are full.
    pub fn client_submit(&mut self, session: u64, reqno: u64, value: VecD) -> ClientAdmission {
        if !self.client.enabled || !self.started {
            self.client.rejected += 1;
            return ClientAdmission::Rejected;
        }
        let owner = self.session_owner(session);
        if owner != self.transport.local_id() {
            self.client.redirects += 1;
            Registry::global().counter("client.redirects").inc();
            return ClientAdmission::Redirect(owner);
        }
        if value.dim() == 0
            || value.dim() > MAX_DIM
            || value.as_slice().iter().any(|x| !x.is_finite())
        {
            self.client.rejected += 1;
            Registry::global().counter("service.client.reject").inc();
            return ClientAdmission::Rejected;
        }
        // Look the row up without creating it: only an admitted request may
        // grow the table.
        if let Some(row) = self.client.table.get(&session) {
            if let Some((cached_reqno, decision)) = &row.last_reply {
                if *cached_reqno == reqno {
                    let decision = decision.clone();
                    self.client.dedup_hits += 1;
                    Registry::global().counter("client.dedup_hits").inc();
                    return ClientAdmission::Reply { reqno, decision };
                }
            }
            if row.last_reqno.is_some_and(|last| reqno <= last) {
                return ClientAdmission::Stale;
            }
        }
        // A shed request leaves the table untouched so its retry is
        // re-considered (not stale-dropped) once load drains.
        let can_admit = self.client.pending.len() < self.client.cfg.max_inflight;
        let can_queue = self.client.queue.len() < self.client.cfg.queue_cap;
        if !can_admit && !can_queue {
            self.client.shed += 1;
            Registry::global().counter("service.client.shed").inc();
            return ClientAdmission::Busy;
        }
        self.client.table.entry(session).or_default().last_reqno = Some(reqno);
        Registry::global().gauge("client.sessions").set(self.client.table.len() as i64);
        if can_admit {
            let _ = self.admit_client_request(session, reqno, value);
            ClientAdmission::Admitted
        } else {
            self.client.queue.push_back((session, reqno, value));
            ClientAdmission::Queued
        }
    }

    /// Create the instance one client request runs as — on the owner, on
    /// every peer and on replay alike: Verified Averaging with the client's
    /// vector as the local input. (Bypasses the before-`start()`
    /// registration gate static instances go through.)
    fn insert_client_slot(&mut self, id: InstanceId, f: usize, rounds: usize, value: VecD) {
        let proto = InstanceProto::Va(VerifiedAveraging::new(
            self.transport.local_id(),
            self.transport.n(),
            f,
            value,
            DeltaMode::MinDelta(rbvc_linalg::Norm::L2),
            rounds,
            rbvc_linalg::Tol::default(),
        ));
        self.insert_slot(id, proto);
    }

    /// Owner side of one client instance, live and on replay: stand the
    /// instance up, mark the request in flight, and return the `Launch`
    /// frames the owner fans out, in deterministic peer order (so the
    /// replay's FIFO `Sent` match holds).
    fn open_client_instance(&mut self, instance: InstanceId, launch: ClientLaunch) -> Outbound {
        let local = self.transport.local_id();
        let n = self.transport.n();
        self.insert_client_slot(
            instance,
            launch.f as usize,
            launch.rounds as usize,
            launch.value.clone(),
        );
        self.client.pending.insert(instance, (launch.session, launch.reqno));
        (0..n)
            .filter(|&dst| dst != local)
            .map(|dst| {
                let frame = Frame {
                    instance,
                    sender: local,
                    round: 0,
                    payload: Payload::Launch(launch.clone()),
                };
                (dst, encode_frame(&frame))
            })
            .collect()
    }

    /// Owner side of one admitted request: mint the instance id, register
    /// (durably, with a self-describing spec), fan the `Launch` out to every
    /// peer *first* — per-link FIFO means each peer registers the instance
    /// before this node's protocol frames arrive — then launch locally.
    fn admit_client_request(
        &mut self,
        session: u64,
        reqno: u64,
        value: VecD,
    ) -> Result<(), ProtocolError> {
        let local = self.transport.local_id();
        let ClientConfig { f, rounds, .. } = self.client.cfg;
        let seq = self.client.next_seq;
        self.client.next_seq += 1;
        let instance =
            CLIENT_INSTANCE_BASE | ((local as u64) << 24) | (seq & 0xFF_FFFF);
        let launch = ClientLaunch {
            session,
            reqno,
            f: u32::try_from(f).unwrap_or(u32::MAX),
            rounds: u32::try_from(rounds).unwrap_or(u32::MAX),
            value,
        };
        if self.wal.is_some() {
            self.wal_append(WalRecordRef::Registered {
                instance,
                spec: &encode_client_spec(&launch),
            });
        }
        let frames = self.open_client_instance(instance, launch);
        let routed = self.route(frames);
        self.client.admitted += 1;
        self.launch_inner(instance, true)?;
        routed
    }

    /// Peer side of a `Launch` frame: authenticate it against the owner
    /// encoded in the instance id, stand the instance up with the client's
    /// value as the local input (all honest inputs identical, so the
    /// decision is the client's point up to agreement tolerance), and drain
    /// any frames that raced ahead of the launch.
    fn dispatch_launch(
        &mut self,
        instance: InstanceId,
        sender: ProcessId,
        launch: ClientLaunch,
    ) -> Outbound {
        let n = self.transport.n();
        let Some(owner) = client_instance_owner(instance) else {
            self.gate_reject(
                3,
                sender,
                ProtocolError::MalformedPayload {
                    from: sender,
                    reason: format!("launch for non-client instance {instance}"),
                },
            );
            return Vec::new();
        };
        if owner != sender || self.session_owner(launch.session) != sender {
            self.gate_reject(
                1,
                sender,
                ProtocolError::MalformedPayload {
                    from: sender,
                    reason: format!(
                        "launch of instance {instance} (owner {owner}, session {}) from non-owner {sender}",
                        launch.session
                    ),
                },
            );
            return Vec::new();
        }
        let f = launch.f as usize;
        if n <= 3 * f
            || launch.rounds == 0
            || launch.value.as_slice().iter().any(|x| !x.is_finite())
        {
            self.gate_reject(
                3,
                sender,
                ProtocolError::MalformedPayload {
                    from: sender,
                    reason: format!("degenerate launch parameters for instance {instance}"),
                },
            );
            return Vec::new();
        }
        if self.instances.contains_key(&instance) {
            // Duplicate launch (reconnect history replay): idempotent.
            return Vec::new();
        }
        self.insert_client_slot(instance, f, launch.rounds as usize, launch.value);
        self.started = true;
        let mut sends = self.start_instance(instance).expect("just inserted");
        // Frames that beat the launch here replay through the normal
        // dispatch now that the instance exists.
        let stashed: Vec<Frame> = {
            let mut kept = VecDeque::new();
            let mut matched = Vec::new();
            while let Some(frame) = self.client.stash.pop_front() {
                if frame.instance == instance {
                    matched.push(frame);
                } else {
                    kept.push_back(frame);
                }
            }
            self.client.stash = kept;
            matched
        };
        for frame in stashed {
            sends.extend(self.dispatch(frame));
        }
        sends
    }

    /// The request behind client instance `instance` is answered: take it
    /// out of flight and make `value` the session's cached reply.
    fn cache_client_reply(&mut self, instance: InstanceId, session: u64, reqno: u64, value: VecD) {
        self.client.pending.remove(&instance);
        let row = self.client.table.entry(session).or_default();
        row.last_reply = Some((reqno, value));
        row.saw(reqno);
    }

    /// The client bookkeeping for this poll's decisions: cache the reply in
    /// the session row, append it to the WAL's current batch, and queue it
    /// for the client port. Runs before the poll's group commit, so dedup
    /// survives a crash that happens after the reply is out: the port can
    /// read `replies_out` only after `poll` returned, past the sync.
    fn record_client_replies(&mut self, decided: &[(InstanceId, VecD)]) {
        for (instance, value) in decided {
            let Some(&(session, reqno)) = self.client.pending.get(instance) else {
                continue;
            };
            self.cache_client_reply(*instance, session, reqno, value.clone());
            self.wal_append(WalRecordRef::ClientReply {
                instance: *instance,
                session,
                reqno,
                value: value.as_slice(),
            });
            self.client.replies_out.push((session, reqno, value.clone()));
        }
    }

    /// Backfill freed in-flight slots from the admission queue. Runs after
    /// the poll's flush: the launches it queues ride the next poll's batch.
    fn backfill_client_queue(&mut self) {
        while self.client.pending.len() < self.client.cfg.max_inflight {
            let Some((session, reqno, value)) = self.client.queue.pop_front() else {
                break;
            };
            let _ = self.admit_client_request(session, reqno, value);
        }
    }

    /// Rebuild a service from its write-ahead log after a crash.
    ///
    /// `factory` re-creates each instance from the opaque spec logged at
    /// [`ConsensusService::add_instance_durable`]. Replay walks the log in
    /// order: launches and authenticated inbound frames re-run through the
    /// deterministic state machines; every regenerated outbound frame is
    /// FIFO-matched against the logged `Sent` records (mismatches count as
    /// divergences — see [`ConsensusService::replay_divergences`]); logged
    /// decisions are pinned so the recovered node can never surface a
    /// different value. The node then rejoins by re-sending its full
    /// outbound history — peers deduplicate, and frames lost in the crash
    /// window are covered.
    ///
    /// # Errors
    /// Propagates the first `factory` failure (an unrecoverable spec means
    /// the log does not describe a service this binary can rebuild).
    pub fn recover(
        transport: T,
        wal: Wal,
        report: &ReplayReport,
        mut factory: impl FnMut(InstanceId, &[u8]) -> Result<InstanceProto, ProtocolError>,
    ) -> Result<Self, ProtocolError> {
        let t0 = Instant::now();
        // The WAL is attached only after the replay loop: the records stream
        // through the live receive and launch paths, whose write-through
        // must not log them a second time.
        let mut svc = Self::new(transport);
        let local = svc.transport.local_id();
        // Regenerated outbound history, FIFO-matched against logged Sent
        // records as they stream by.
        let mut regenerated: Outbound = Vec::new();
        let mut match_cursor = 0usize;
        for raw in &report.records {
            let Some(rec) = decode_record(raw) else {
                svc.replay_divergence += 1;
                continue;
            };
            match rec {
                WalRecord::Registered { instance, spec } => {
                    // Client instances log a self-describing spec: rebuild
                    // them (and the client table / pending set) internally;
                    // everything else goes through the caller's factory.
                    if let Some(launch) = decode_client_spec(&spec) {
                        if svc.instances.contains_key(&instance) {
                            svc.replay_divergence += 1;
                            continue;
                        }
                        svc.client.table.entry(launch.session).or_default().saw(launch.reqno);
                        svc.client.next_seq =
                            svc.client.next_seq.max((instance & 0xFF_FFFF) + 1);
                        let frames = svc.open_client_instance(instance, launch);
                        if client_instance_owner(instance) == Some(local) {
                            // The owner fanned the Launch out right after
                            // registering; those sends keep the FIFO `Sent`
                            // match aligned.
                            regenerated.extend(frames);
                        }
                    } else {
                        let proto = factory(instance, &spec)?;
                        if svc.add_instance(instance, proto).is_err() {
                            svc.replay_divergence += 1;
                        }
                    }
                }
                WalRecord::Launched { instance } => {
                    svc.started = true;
                    match svc.start_instance(instance) {
                        Some(sends) => regenerated.extend(sends),
                        None => svc.replay_divergence += 1,
                    }
                }
                WalRecord::Inbound { from, bytes } => {
                    regenerated.extend(svc.ingest(from as ProcessId, &bytes));
                }
                WalRecord::Sent { dst, bytes } => {
                    let dst = dst as ProcessId;
                    if match_cursor < regenerated.len() && regenerated[match_cursor] == (dst, bytes)
                    {
                        match_cursor += 1;
                    } else {
                        svc.replay_divergence += 1;
                    }
                }
                WalRecord::WitnessCommit { instance, count } => {
                    // Appended after the poll's `Inbound` records, so the
                    // replayed instance must stand at exactly this count.
                    let replayed = svc.instances.get(&instance).map(|s| s.proto.witness_commits());
                    if replayed != Some(count) {
                        svc.replay_divergence += 1;
                    }
                    svc.witness_logged.insert(instance, count);
                }
                WalRecord::Decided { instance, value } => {
                    let value = VecD::from_slice(&value);
                    let Some(slot) = svc.instances.get_mut(&instance) else {
                        svc.replay_divergence += 1;
                        continue;
                    };
                    if !slot.decided {
                        slot.decided = true;
                        svc.undecided -= 1;
                    }
                    slot.pinned = Some(value.clone());
                    svc.recovered.push(DecisionEvent {
                        instance,
                        process: local,
                        value,
                        latency: Duration::ZERO,
                    });
                }
                WalRecord::ClientReply { instance, session, reqno, value } => {
                    // A reply that was surfaced (or about to be) before the
                    // crash: rebuild the dedup cache so a retry of the same
                    // (session, reqno) gets the identical pre-crash bytes.
                    svc.cache_client_reply(instance, session, reqno, VecD::from_slice(&value));
                }
                WalRecord::Compacted { .. } => {}
            }
        }
        svc.wal = Some(wal);
        // Client instances that decided before the crash but whose reply
        // record didn't make it: the pinned decision is durable, so cache
        // and log the reply now — the retry path answers from here.
        let unfinished: Vec<(InstanceId, (u64, u64))> = svc
            .client
            .pending
            .iter()
            .map(|(id, sr)| (*id, *sr))
            .collect();
        for (instance, (session, reqno)) in unfinished {
            let Some(slot) = svc.instances.get(&instance) else { continue };
            if !slot.decided {
                continue;
            }
            let Some(value) = svc.decision(instance) else { continue };
            svc.cache_client_reply(instance, session, reqno, value.clone());
            svc.wal_append(WalRecordRef::ClientReply {
                instance,
                session,
                reqno,
                value: value.as_slice(),
            });
        }
        svc.wal_sync();
        Registry::global().gauge("client.sessions").set(svc.client.table.len() as i64);
        // A replayed state machine that now disagrees with its own pinned
        // decision is the amnesia signature — the pin wins, but flag it.
        for slot in svc.instances.values() {
            if let (Some(pinned), Some(out)) = (&slot.pinned, slot.proto.output()) {
                if *pinned != out {
                    svc.replay_divergence += 1;
                }
            }
        }
        // Rejoin: put the full regenerated history back on the wire so any
        // frame lost in the crash window reaches its peer (receivers dedup).
        for (dst, bytes) in regenerated {
            let _ = svc.transport.send(dst, bytes.clone());
            if let Some(sent) = svc.history.get_mut(dst) {
                sent.push(bytes);
            }
        }
        let _ = svc.transport.flush();
        let recover_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        Registry::global().histogram("service.recover_us").record(recover_us);
        Registry::global()
            .counter("service.replay.divergences")
            .add(svc.replay_divergence);
        let (records, torn) = (report.records.len(), report.torn_bytes);
        svc.obs.emit(|| {
            Event::new(EventKind::WalReplay)
                .detail(format!("records={records} torn_bytes={torn}"))
        });
        let (instances, decisions, divergences) =
            (svc.instances.len(), svc.recovered.len(), svc.replay_divergence);
        svc.obs.emit(|| {
            Event::new(EventKind::Recovered).detail(format!(
                "instances={instances} decisions={decisions} divergences={divergences} recover_us={recover_us}"
            ))
        });
        Ok(svc)
    }

    /// Decisions replayed out of the WAL: surfaced before the crash, pinned
    /// by recovery, and excluded from future [`ConsensusService::poll`]
    /// results (their latency is reported as zero).
    #[must_use]
    pub fn recovered_decisions(&self) -> &[DecisionEvent] {
        &self.recovered
    }

    /// Replay anomalies counted during [`ConsensusService::recover`]: zero
    /// means the log replayed to exactly the pre-crash state.
    #[must_use]
    pub fn replay_divergences(&self) -> u64 {
        self.replay_divergence
    }

    /// Service-level degradation events (decode failures, spoofed senders,
    /// unknown instances, kind mismatches).
    #[must_use]
    pub fn errors(&self) -> &ErrorLog {
        &self.errors
    }

    /// The transport endpoint (byte counters, transport error log).
    #[must_use]
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable transport access — the fault-injection surface (severing
    /// links, dropping writers) for the health campaign. Real callers
    /// never need this.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::in_proc_mesh;
    use rbvc_core::verified_avg::DeltaMode;
    use rbvc_core::DecisionRule;
    use rbvc_linalg::Tol;

    fn bvc_instance(id: ProcessId, n: usize, f: usize, input: &[f64]) -> InstanceProto {
        let d = input.len();
        InstanceProto::Bvc(Lockstep::new(
            SyncBvc::new(
                id,
                n,
                f,
                d,
                VecD::from_slice(input),
                DecisionRule::MinDeltaPoint(rbvc_linalg::Norm::L2),
                Tol::default(),
            ),
            n,
            f + 1,
        ))
    }

    fn va_instance(id: ProcessId, n: usize, input: &[f64]) -> InstanceProto {
        InstanceProto::Va(VerifiedAveraging::new(
            id,
            n,
            0,
            VecD::from_slice(input),
            DeltaMode::MinDelta(rbvc_linalg::Norm::L2),
            8,
            Tol::default(),
        ))
    }

    /// Two instances (one of each protocol) over a 4-endpoint in-process
    /// mesh, all driven from one thread by round-robin polling.
    #[test]
    fn multiplexes_bvc_and_va_over_one_mesh() {
        let n = 4;
        let inputs = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]];
        let mut services: Vec<ConsensusService<_>> = in_proc_mesh(n)
            .into_iter()
            .map(ConsensusService::new)
            .collect();
        for (i, svc) in services.iter_mut().enumerate() {
            svc.add_instance(10, bvc_instance(i, n, 1, &inputs[i])).unwrap();
            svc.add_instance(20, va_instance(i, n, &inputs[i])).unwrap();
            svc.start().unwrap();
        }
        let mut spins = 0;
        while services.iter().any(|s| !s.all_decided()) {
            for svc in &mut services {
                let _ = svc.poll(Duration::from_millis(1));
            }
            spins += 1;
            assert!(spins < 10_000, "service mesh failed to converge");
        }
        // Every process decided both instances identically across the mesh.
        for inst in [10u64, 20] {
            let v0 = services[0].decision(inst).expect("decided");
            for svc in &services[1..] {
                assert_eq!(svc.decision(inst), Some(v0.clone()), "instance {inst}");
            }
        }
        for svc in &services {
            assert!(svc.errors().is_empty());
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rbvc-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp dir");
        dir
    }

    /// Opaque recovery spec for the VA test instances: the input vector as
    /// LE f64 bytes (the factory closes over everything else).
    fn va_spec(input: &[f64]) -> Vec<u8> {
        input.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    fn va_from_spec(id: ProcessId, n: usize, spec: &[u8]) -> InstanceProto {
        let input: Vec<f64> = spec
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        va_instance(id, n, &input)
    }

    /// Run one VA instance (id 7) over a fresh in-process mesh; node 0 logs
    /// to `wal` when given. Returns every node's decision.
    fn run_va_mesh(n: usize, inputs: &[Vec<f64>], wal: Option<rbvc_store::Wal>) -> Vec<VecD> {
        let mut services: Vec<ConsensusService<_>> = in_proc_mesh(n)
            .into_iter()
            .map(ConsensusService::new)
            .collect();
        let mut wal = wal;
        for (i, svc) in services.iter_mut().enumerate() {
            let proto = va_instance(i, n, &inputs[i]);
            if i == 0 && wal.is_some() {
                svc.attach_wal(wal.take().expect("checked"));
                svc.add_instance_durable(7, proto, va_spec(&inputs[i])).unwrap();
            } else {
                svc.add_instance(7, proto).unwrap();
            }
            svc.start().unwrap();
        }
        let mut spins = 0;
        while services.iter().any(|s| !s.all_decided()) {
            for svc in &mut services {
                let _ = svc.poll(Duration::from_millis(1));
            }
            spins += 1;
            assert!(spins < 10_000, "mesh failed to converge");
        }
        services.iter().map(|s| s.decision(7).expect("decided")).collect()
    }

    /// Durability is transparent (a logged run decides exactly what an
    /// unlogged one does), and recovery replays the log back to the same
    /// pinned decision with zero divergences.
    #[test]
    fn durable_run_recovers_to_identical_pinned_decisions() {
        let n = 3;
        let dir = tmp_dir("recover");
        let path = dir.join("node0.wal");
        let inputs: Vec<Vec<f64>> =
            vec![vec![0.0, 0.0], vec![3.0, 0.0], vec![0.0, 3.0]];

        let baseline = run_va_mesh(n, &inputs, None);
        let (wal, report) = rbvc_store::Wal::open(&path).unwrap();
        assert!(report.created);
        let durable = run_va_mesh(n, &inputs, Some(wal));
        assert_eq!(baseline, durable, "write-through must not perturb decisions");

        let (wal, report) = rbvc_store::Wal::open(&path).unwrap();
        assert!(!report.records.is_empty(), "the run must have logged");
        assert_eq!(report.torn_bytes, 0, "clean shutdown leaves no torn tail");
        let transport = in_proc_mesh(n).remove(0);
        let svc = ConsensusService::recover(transport, wal, &report, |_, spec| {
            Ok(va_from_spec(0, n, spec))
        })
        .expect("recover");
        assert_eq!(svc.replay_divergences(), 0);
        assert_eq!(svc.recovered_decisions().len(), 1);
        assert_eq!(svc.recovered_decisions()[0].instance, 7);
        assert_eq!(svc.decision(7), Some(durable[0].clone()), "pinned decision");
        assert!(svc.all_decided());
    }

    /// A process crash between two polls leaves the file at the last group
    /// commit — the image a power loss leaves — and recovery from that image
    /// is faithful: the victim re-launches what it lost (no peer ever saw
    /// it), peers re-send their history, and every node decides what an
    /// uninterrupted run decides.
    #[test]
    fn crash_before_the_group_commit_recovers_from_the_power_loss_image() {
        use rbvc_sim::monitor::{epsilon_agreement, SafetyMonitor, ServiceMonitor};

        let (n, window, victim) = (4usize, 3u64, 2usize);
        let ids = 1..=6u64;
        let proto = |inst: u64, p: usize| {
            va_instance(p, n, &[inst as f64 + 0.5 * p as f64, p as f64 - 0.25 * inst as f64])
        };
        let run_out = |services: &mut Vec<ConsensusService<_>>,
                       monitor: &mut ServiceMonitor<Vec<f64>>| {
            let mut spins = 0;
            while services.iter().any(|s| !s.all_decided()) {
                for (p, svc) in services.iter_mut().enumerate() {
                    for ev in svc.poll(Duration::ZERO) {
                        monitor.observe(ev.instance, p, &ev.value.as_slice().to_vec());
                    }
                }
                spins += 1;
                assert!(spins < 10_000, "mesh failed to converge");
            }
        };
        let new_monitor = || -> ServiceMonitor<Vec<f64>> {
            ServiceMonitor::new(move |_| SafetyMonitor::agreement_only(n, epsilon_agreement(1e-9)))
        };

        // The uninterrupted, non-durable run.
        let mut monitor = new_monitor();
        let mut services: Vec<ConsensusService<_>> =
            in_proc_mesh(n).into_iter().map(ConsensusService::new).collect();
        for (p, svc) in services.iter_mut().enumerate() {
            for inst in ids.clone() {
                svc.add_instance(inst, proto(inst, p)).unwrap();
            }
            svc.start().unwrap();
        }
        run_out(&mut services, &mut monitor);
        assert!(monitor.clean(), "violations: {:?}", monitor.alerts());
        let baseline: Vec<Vec<Option<VecD>>> = services
            .iter()
            .map(|s| ids.clone().map(|inst| s.decision(inst)).collect())
            .collect();

        // The durable run, closed loop, up to the victim's first refill: a
        // launch after its poll, so the records sit in the unsynced batch.
        let dir = tmp_dir("crash-image");
        let wal_path = |p: usize| dir.join(format!("node{p}.wal"));
        let mut monitor = new_monitor();
        let mut services: Vec<ConsensusService<_>> =
            in_proc_mesh(n).into_iter().map(ConsensusService::new).collect();
        for (p, svc) in services.iter_mut().enumerate() {
            svc.attach_wal(rbvc_store::Wal::open(wal_path(p)).unwrap().0);
            for inst in ids.clone() {
                svc.add_instance_durable(inst, proto(inst, p), Vec::new()).unwrap();
            }
            svc.start_deferred();
            for inst in 1..=window {
                svc.launch(inst).unwrap();
            }
        }
        let mut next = vec![window + 1; n];
        let mut crashed = false;
        'run: for _ in 0..10_000 {
            for (p, svc) in services.iter_mut().enumerate() {
                for ev in svc.poll(Duration::ZERO) {
                    monitor.observe(ev.instance, p, &ev.value.as_slice().to_vec());
                    if next[p] <= *ids.end() {
                        svc.launch(next[p]).unwrap();
                        next[p] += 1;
                        crashed = p == victim;
                    }
                }
                if crashed {
                    break 'run;
                }
            }
        }
        assert!(crashed, "the victim never refilled its window");
        let image = dir.join("image.wal");
        std::fs::copy(wal_path(victim), &image).unwrap();
        let wal = services[victim].wal.as_ref().expect("durable");
        assert!(wal.len() > wal.synced_len(), "the launch is appended, not synced");
        assert_eq!(
            std::fs::metadata(&image).unwrap().len(),
            wal.synced_len(),
            "the image holds no byte past the last group commit"
        );
        drop(services);

        // Restart everyone on a fresh mesh, the victim from the image.
        let mut services: Vec<ConsensusService<_>> = in_proc_mesh(n)
            .into_iter()
            .enumerate()
            .map(|(p, ep)| {
                let path = if p == victim { image.clone() } else { wal_path(p) };
                let (wal, report) = rbvc_store::Wal::open(path).unwrap();
                assert_eq!(report.torn_bytes, 0);
                let svc = ConsensusService::recover(ep, wal, &report, |inst, _| Ok(proto(inst, p)))
                    .expect("recover");
                assert_eq!(svc.replay_divergences(), 0, "node {p}");
                svc
            })
            .collect();
        for (p, svc) in services.iter_mut().enumerate() {
            for ev in svc.recovered_decisions() {
                monitor.observe(ev.instance, p, &ev.value.as_slice().to_vec());
            }
            // Whatever was not launched (or whose launch the crash took).
            for inst in ids.clone() {
                let _ = svc.launch(inst);
            }
        }
        run_out(&mut services, &mut monitor);
        assert!(monitor.clean(), "violations: {:?}", monitor.alerts());
        for (p, svc) in services.iter().enumerate() {
            let got: Vec<Option<VecD>> = ids.clone().map(|inst| svc.decision(inst)).collect();
            assert_eq!(got, baseline[p], "node {p}");
            assert!(svc.errors().is_empty(), "node {p}: {:?}", svc.errors());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A transport whose reconnects are scripted (the in-process mesh never
    /// loses a link on its own) and which keeps what it was asked to send.
    struct Rejoining {
        inner: crate::transport::InProcEndpoint,
        reconnects: Vec<ProcessId>,
        sent: Vec<(ProcessId, Vec<u8>)>,
    }

    impl Transport for Rejoining {
        fn local_id(&self) -> ProcessId {
            self.inner.local_id()
        }
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn send(&mut self, dst: ProcessId, frame: Vec<u8>) -> Result<(), ProtocolError> {
            self.sent.push((dst, frame.clone()));
            self.inner.send(dst, frame)
        }
        fn flush(&mut self) -> Result<(), ProtocolError> {
            self.inner.flush()
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Vec<(ProcessId, Vec<u8>)> {
            self.inner.recv_timeout(timeout)
        }
        fn take_reconnects(&mut self) -> Vec<ProcessId> {
            std::mem::take(&mut self.reconnects)
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

    /// A reconnected peer gets exactly its own frames again, in the order
    /// they were first sent; nobody else gets anything replayed.
    #[test]
    fn reconnect_replays_only_that_peers_frames_in_order() {
        let (n, rejoined) = (4usize, 2usize);
        let dir = tmp_dir("rejoin");
        // The other endpoints stay alive (and silent): node 0 talks to itself.
        let mut endpoints = in_proc_mesh(n);
        let inner = endpoints.remove(0);
        let mut svc =
            ConsensusService::new(Rejoining { inner, reconnects: Vec::new(), sent: Vec::new() });
        svc.attach_wal(rbvc_store::Wal::open(dir.join("node0.wal")).unwrap().0);
        for inst in 1..=3u64 {
            let proto = va_instance(0, n, &[inst as f64, 1.0]);
            svc.add_instance_durable(inst, proto, Vec::new()).unwrap();
        }
        svc.start().unwrap();
        let to = |sent: &[(ProcessId, Vec<u8>)], dst: ProcessId| -> Vec<Vec<u8>> {
            sent.iter().filter(|(d, _)| *d == dst).map(|(_, b)| b.clone()).collect()
        };
        let first = std::mem::take(&mut svc.transport_mut().sent);
        for dst in 0..n {
            assert!(to(&first, dst).len() >= 3, "one frame per instance at least");
            assert_eq!(to(&first, dst), svc.history[dst], "history mirrors the sends, per peer");
        }

        svc.transport_mut().reconnects = vec![rejoined];
        let _ = svc.poll(Duration::ZERO);
        let second = std::mem::take(&mut svc.transport_mut().sent);
        // The replay comes first: that peer's old frames, in order, nothing else.
        let replay = to(&first, rejoined);
        assert!(second.len() > replay.len(), "the poll itself sent frames too");
        assert!(second[..replay.len()].iter().all(|(dst, _)| *dst == rejoined));
        assert_eq!(to(&second[..replay.len()], rejoined), replay);
        // Everything after it is new traffic: history grew by exactly that.
        for dst in 0..n {
            let old = to(&first, dst).len();
            assert_eq!(to(&second[replay.len()..], dst)[..], svc.history[dst][old..], "peer {dst}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// ISSUE 5 satellite (negative test): a node restarted *without* its WAL
    /// is amnesiac — it re-runs from a fresh state and can surface a second,
    /// different decision for an instance it already decided. The
    /// [`rbvc_sim::monitor::ServiceMonitor`] must flag that as a
    /// `DuplicateDecision` and emit a structured `Violation` event.
    #[test]
    fn amnesiac_restart_redecides_and_is_flagged() {
        use rbvc_obs::{Recorder, RingRecorder};
        use rbvc_sim::monitor::{
            epsilon_agreement, AlertKind, SafetyMonitor, ServiceMonitor,
        };
        use std::sync::Arc;

        let n = 3;
        let ring = Arc::new(RingRecorder::new(64));
        let obs = Obs::new(Arc::clone(&ring) as Arc<dyn Recorder>);
        let mut monitor: ServiceMonitor<Vec<f64>> =
            ServiceMonitor::new(move |_| {
                SafetyMonitor::agreement_only(n, epsilon_agreement(1e-9))
            })
            .with_obs(obs);

        let inputs: Vec<Vec<f64>> = vec![vec![0.0, 0.0], vec![4.0, 0.0], vec![0.0, 4.0]];
        let first = run_va_mesh(n, &inputs, None);
        for (p, d) in first.iter().enumerate() {
            monitor.observe(7, p, &d.as_slice().to_vec());
        }
        assert!(monitor.clean(), "the first run is violation-free");

        // "Restart" node 0 with no log: its pre-crash input and protocol
        // state are gone, so it rejoins with whatever it has now and the
        // mesh converges somewhere else.
        let amnesiac_inputs: Vec<Vec<f64>> =
            vec![vec![9.0, 9.0], vec![4.0, 0.0], vec![0.0, 4.0]];
        let second = run_va_mesh(n, &amnesiac_inputs, None);
        assert_ne!(first[0], second[0], "the amnesiac run must diverge");
        monitor.observe(7, 0, &second[0].as_slice().to_vec());

        assert!(!monitor.clean(), "re-deciding differently must be flagged");
        assert!(
            monitor
                .alerts()
                .iter()
                .any(|(inst, a)| *inst == 7
                    && matches!(a.kind, AlertKind::DuplicateDecision { process: 0 })),
            "expected a DuplicateDecision for process 0: {:?}",
            monitor.alerts()
        );
        assert!(
            ring.snapshot().iter().any(|e| e.kind == EventKind::Violation),
            "a structured Violation event must have been emitted"
        );
    }

    #[test]
    fn duplicate_instance_ids_and_late_registration_are_rejected() {
        let mut svc = ConsensusService::new(in_proc_mesh(1).pop().unwrap());
        svc.add_instance(1, va_instance(0, 1, &[0.0])).unwrap();
        assert!(matches!(
            svc.add_instance(1, va_instance(0, 1, &[0.0])),
            Err(ProtocolError::InvalidSpec { .. })
        ));
        svc.start().unwrap();
        assert!(matches!(
            svc.add_instance(2, va_instance(0, 1, &[0.0])),
            Err(ProtocolError::InvalidSpec { .. })
        ));
    }

    /// Drive an in-proc mesh of client-enabled services until the owner has
    /// `want` replies ready (or the spin budget runs out). Returns the
    /// replies taken from the owner.
    fn pump_mesh_for_replies(
        services: &mut [ConsensusService<crate::transport::InProcEndpoint>],
        owner: usize,
        want: usize,
    ) -> Vec<(u64, u64, VecD)> {
        let mut replies = Vec::new();
        for _ in 0..10_000 {
            for svc in services.iter_mut() {
                let _ = svc.poll(Duration::from_millis(1));
            }
            replies.extend(services[owner].take_client_replies());
            if replies.len() >= want {
                return replies;
            }
        }
        panic!("mesh produced {} of {want} client replies", replies.len());
    }

    /// The full client admission contract on one mesh: redirect for a
    /// foreign session, admit/queue/shed under the configured bounds, stale
    /// drop for an in-flight retry, and a cached bit-identical reply (plus
    /// exactly one instance mesh-wide) for a retry after the decision.
    #[test]
    fn client_table_admits_dedups_redirects_and_sheds() {
        let n = 3;
        let mut services: Vec<ConsensusService<_>> = in_proc_mesh(n)
            .into_iter()
            .map(ConsensusService::new)
            .collect();
        for svc in &mut services {
            svc.enable_client(ClientConfig { max_inflight: 1, queue_cap: 1, ..ClientConfig::default() });
            svc.start_deferred();
        }
        // Session 7 is owned by node 1; node 0 redirects.
        let v = VecD::from_slice(&[2.0, -1.0]);
        assert_eq!(
            services[0].client_submit(7, 1, v.clone()),
            ClientAdmission::Redirect(1)
        );
        assert_eq!(services[0].client_stats().redirects, 1);
        // Owner: first admit, second queues, third sheds (bounds 1+1), and
        // a retry of an in-flight reqno is stale-dropped.
        assert_eq!(services[1].client_submit(7, 1, v.clone()), ClientAdmission::Admitted);
        assert_eq!(services[1].client_submit(7, 1, v.clone()), ClientAdmission::Stale);
        assert_eq!(services[1].client_submit(7, 2, v.clone()), ClientAdmission::Queued);
        assert_eq!(services[1].client_submit(7, 3, v.clone()), ClientAdmission::Busy);
        assert_eq!(services[1].client_stats().shed, 1);
        // Shedding leaves the table untouched, also for a session it has
        // never seen (10 is owned by node 1 as well).
        let sessions = services[1].client_stats().sessions;
        assert_eq!(services[1].client_submit(10, 1, v.clone()), ClientAdmission::Busy);
        assert_eq!(services[1].client_stats().sessions, sessions);
        // Degenerate values never reach the table.
        assert_eq!(
            services[1].client_submit(7, 4, VecD::from_slice(&[f64::NAN])),
            ClientAdmission::Rejected
        );

        let replies = pump_mesh_for_replies(&mut services, 1, 2);
        assert_eq!(replies.len(), 2, "admitted + queued must both decide");
        assert!(replies.iter().any(|(s, r, _)| (*s, *r) == (7, 1)));
        assert!(replies.iter().any(|(s, r, _)| (*s, *r) == (7, 2)));
        // All honest inputs are the client's value, so the decision is it.
        for (_, _, d) in &replies {
            for (a, b) in d.as_slice().iter().zip(v.as_slice()) {
                assert!((a - b).abs() < 1e-6, "decision {d:?} vs submitted {v:?}");
            }
        }
        // A retry of the answered reqno 2 is a dedup hit with the identical
        // cached decision and no new instance.
        let before = services[1].instance_count();
        let reply2 = replies.iter().find(|(_, r, _)| *r == 2).expect("reqno 2").2.clone();
        match services[1].client_submit(7, 2, v.clone()) {
            ClientAdmission::Reply { reqno, decision } => {
                assert_eq!(reqno, 2);
                assert_eq!(decision.as_slice(), reply2.as_slice(), "bit-identical cache");
            }
            other => panic!("expected cached reply, got {other:?}"),
        }
        assert_eq!(services[1].client_stats().dedup_hits, 1);
        assert_eq!(services[1].instance_count(), before);
        // Every node ran exactly the two client instances.
        for svc in &services {
            assert_eq!(svc.instance_count(), 2);
            assert!(svc.errors().is_empty(), "{:?}", svc.errors().errors());
        }
    }

    /// Acceptance: a killed-and-restarted owner answers a duplicate
    /// `(session, reqno)` retry with the cached pre-crash reply — the
    /// client table's dedup is WAL-durable.
    #[test]
    fn restarted_owner_answers_retry_from_the_wal() {
        let n = 3;
        let dir = tmp_dir("client-restart");
        let path = dir.join("owner.wal");
        let session = 6; // owned by node 0
        let v = VecD::from_slice(&[4.0, 1.0, -3.0]);

        let pre_crash = {
            let mut services: Vec<ConsensusService<_>> = in_proc_mesh(n)
                .into_iter()
                .map(ConsensusService::new)
                .collect();
            let (wal, report) = rbvc_store::Wal::open(&path).unwrap();
            assert!(report.created);
            services[0].attach_wal(wal);
            for svc in &mut services {
                svc.enable_client(ClientConfig::default());
                svc.start_deferred();
            }
            assert_eq!(services[0].client_submit(session, 1, v.clone()), ClientAdmission::Admitted);
            let replies = pump_mesh_for_replies(&mut services, 0, 1);
            replies[0].2.clone()
        }; // services dropped here: the "kill"

        let (wal, report) = rbvc_store::Wal::open(&path).unwrap();
        assert!(!report.records.is_empty());
        let transport = in_proc_mesh(n).remove(0);
        let mut svc = ConsensusService::recover(transport, wal, &report, |id, _| {
            Err(ProtocolError::InvalidSpec {
                reason: format!("no static instances were registered, got {id}"),
            })
        })
        .expect("recover");
        assert_eq!(svc.replay_divergences(), 0);
        svc.enable_client(ClientConfig::default());
        // The duplicate retry is answered from the recovered cache,
        // bit-identical to the pre-crash reply, with no new instance.
        let before = svc.instance_count();
        match svc.client_submit(session, 1, v) {
            ClientAdmission::Reply { reqno, decision } => {
                assert_eq!(reqno, 1);
                assert_eq!(decision.as_slice(), pre_crash.as_slice());
            }
            other => panic!("expected the cached pre-crash reply, got {other:?}"),
        }
        assert_eq!(svc.instance_count(), before);
        assert_eq!(svc.client_stats().dedup_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byzantine_frames_are_rejected_at_every_gate() {
        let n = 2;
        let mut mesh = in_proc_mesh(n);
        let ep1 = mesh.pop().unwrap();
        let mut raw = mesh.pop().unwrap(); // endpoint 0, used raw
        let mut svc = ConsensusService::new(ep1);
        svc.add_instance(5, va_instance(1, n, &[0.0])).unwrap();
        svc.start().unwrap();

        use crate::transport::Transport as _;
        // Gate 1: undecodable bytes.
        raw.send(1, vec![0xde, 0xad]).unwrap();
        // Gate 2: spoofed sender (claims process 1 on the link from 0).
        let spoof = Frame {
            instance: 5,
            sender: 1,
            round: 0,
            payload: Payload::Va((
                (0, 0),
                rbvc_sim::bracha::BrachaMsg::Init(rbvc_core::verified_avg::RoundState {
                    value: VecD::from_slice(&[1.0]),
                    witness: vec![],
                }),
            )),
        };
        raw.send(1, encode_frame(&spoof)).unwrap();
        // Gate 3: unknown instance id.
        let unknown = Frame { instance: 99, ..spoof.clone() };
        raw.send(1, encode_frame(&Frame { sender: 0, ..unknown })).unwrap();
        // Gate 4: payload kind mismatch (EIG frame for a VA instance).
        let mismatch = Frame {
            instance: 5,
            sender: 0,
            round: 0,
            payload: Payload::Eig(vec![]),
        };
        raw.send(1, encode_frame(&mismatch)).unwrap();
        raw.flush().unwrap();

        for _ in 0..20 {
            let _ = svc.poll(Duration::from_millis(5));
            if svc.errors().total() >= 4 {
                break;
            }
        }
        assert_eq!(svc.errors().total(), 4, "all four gates must fire: {:?}", svc.errors().errors());
        assert_eq!(svc.gate_rejections(), [1, 1, 1, 1]);
        // Every rejection is attributed to the node that caused it: all
        // four frames arrived on the link from process 0.
        assert_eq!(svc.gate_rejections_by_sender()[0], [1, 1, 1, 1]);
        assert_eq!(svc.gate_rejections_by_sender()[1], [0, 0, 0, 0]);
    }

    /// Replay runs the live receive and launch paths: a log holding a
    /// `Launched` record and a spoofed-sender `Inbound` record (one the live
    /// sender gate would never have let into the log) recovers to the gate
    /// counters the live run counted for the same frame, with every
    /// regenerated send matching its `Sent` record.
    #[test]
    fn replay_shares_the_live_gates_and_launch_path() {
        use crate::transport::Transport as _;

        let n = 2;
        let dir = tmp_dir("replay-gates");
        let path = dir.join("node1.wal");
        let spoof = encode_frame(&Frame {
            instance: 5,
            sender: 1, // claimed on the link from 0
            round: 0,
            payload: Payload::Eig(vec![]),
        });

        let mut mesh = in_proc_mesh(n);
        let mut svc = ConsensusService::new(mesh.pop().unwrap());
        let mut raw = mesh.pop().unwrap();
        svc.attach_wal(rbvc_store::Wal::open(&path).unwrap().0);
        svc.add_instance_durable(5, va_instance(1, n, &[2.0]), va_spec(&[2.0])).unwrap();
        svc.start().unwrap();
        raw.send(1, spoof.clone()).unwrap();
        raw.flush().unwrap();
        for _ in 0..20 {
            let _ = svc.poll(Duration::from_millis(5));
            if svc.errors().total() >= 1 {
                break;
            }
        }
        let live = (svc.gate_rejections(), svc.gate_rejections_by_sender().to_vec());
        assert_eq!(live.0, [0, 1, 0, 0], "the sender gate fired live");
        drop(svc);

        let (mut wal, _) = rbvc_store::Wal::open(&path).unwrap();
        wal.append_record(WalRecordRef::Inbound { from: 0, bytes: &spoof }).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (wal, report) = rbvc_store::Wal::open(&path).unwrap();
        let kinds: Vec<WalRecord> =
            report.records.iter().map(|r| decode_record(r).expect("decodes")).collect();
        assert!(kinds.iter().any(|r| matches!(r, WalRecord::Launched { instance: 5 })));
        assert!(kinds.iter().any(|r| matches!(r, WalRecord::Sent { .. })));
        let svc = ConsensusService::recover(in_proc_mesh(n).remove(1), wal, &report, |_, spec| {
            Ok(va_from_spec(1, n, spec))
        })
        .expect("recover");
        assert_eq!(svc.replay_divergences(), 0);
        assert_eq!((svc.gate_rejections(), svc.gate_rejections_by_sender().to_vec()), live);
        assert_eq!(svc.wal.as_ref().expect("durable").records(), report.records.len() as u64);
        // The same log plus a `WitnessCommit` the replayed instance never
        // reached (it stands at 0 commits): the cross-check must flag it.
        drop(svc);
        let (mut wal, _) = rbvc_store::Wal::open(&path).unwrap();
        wal.append_record(WalRecordRef::WitnessCommit { instance: 5, count: 1 }).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (wal, report) = rbvc_store::Wal::open(&path).unwrap();
        let svc = ConsensusService::recover(in_proc_mesh(n).remove(1), wal, &report, |_, spec| {
            Ok(va_from_spec(1, n, spec))
        })
        .expect("recover");
        assert_eq!(svc.replay_divergences(), 1, "an off-by-one witness count is a divergence");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A mute node stalls its peers' round-0 barrier: the health subsystem
    /// must detect the stall before long, blame exactly the mute sender,
    /// clear the stall when the sender wakes up, and publish a `/status`
    /// snapshot that names the blocked round while it lasts.
    #[test]
    fn live_stall_is_detected_blamed_cleared_and_visible_on_status() {
        let n = 3;
        let board = StatusBoard::new();
        let mut services: Vec<ConsensusService<_>> = in_proc_mesh(n)
            .into_iter()
            .map(ConsensusService::new)
            .collect();
        for (i, svc) in services.iter_mut().enumerate() {
            svc.add_instance(7, bvc_instance(i, n, 0, &[i as f64])).unwrap();
            svc.enable_health(HealthConfig {
                stall: StallConfig { deadline_us: 15_000, dump_deadline_us: 10_000_000 },
                status: Some(board.clone()),
                ..HealthConfig::default()
            });
        }
        // Nodes 0 and 1 start and poll; node 2 stays mute (registered but
        // never started), so their barrier waits on sender 2 forever.
        services[0].start().unwrap();
        services[1].start().unwrap();
        for _ in 0..40 {
            for svc in &mut services[..2] {
                let _ = svc.poll(Duration::from_millis(1));
            }
            if services[0].stalls_raised() > 0 && services[1].stalls_raised() > 0 {
                break;
            }
        }
        for svc in &services[..2] {
            let active = svc.active_stalls();
            assert_eq!(active.len(), 1, "one stalled instance expected");
            assert_eq!(active[0].instance, 7);
            assert_eq!(active[0].waiting_on, vec![2], "blame must name the mute sender");
        }
        let status = board.render();
        assert!(status.contains("\"waiting_on\":[2]"), "status must show the blame: {status}");
        // Wake the mute node: the barrier fills, everyone decides, and the
        // stall clears without lingering as active.
        services[2].start().unwrap();
        let mut spins = 0;
        while services.iter().any(|s| !s.all_decided()) {
            for svc in &mut services {
                let _ = svc.poll(Duration::from_millis(1));
            }
            spins += 1;
            assert!(spins < 3000, "mesh failed to decide after the stall cleared");
        }
        for svc in &services[..2] {
            assert!(svc.active_stalls().is_empty(), "stall must clear once decided");
            let reports = svc.health_reports();
            assert!(reports.iter().any(|r| r.cleared_at_us.is_some()));
        }
    }

    /// A clean fully-polled mesh must never raise a stall (zero false
    /// positives at the default deadlines).
    #[test]
    fn clean_run_raises_no_stalls() {
        let n = 4;
        let mut services: Vec<ConsensusService<_>> = in_proc_mesh(n)
            .into_iter()
            .map(ConsensusService::new)
            .collect();
        for (i, svc) in services.iter_mut().enumerate() {
            svc.add_instance(3, bvc_instance(i, n, 1, &[i as f64, 1.0])).unwrap();
            svc.enable_health(HealthConfig::default());
            svc.start().unwrap();
        }
        let mut spins = 0;
        while services.iter().any(|s| !s.all_decided()) {
            for svc in &mut services {
                let _ = svc.poll(Duration::from_millis(1));
            }
            spins += 1;
            assert!(spins < 3000, "clean mesh failed to decide");
        }
        for svc in &services {
            assert_eq!(svc.stalls_raised(), 0, "clean run must not raise stalls");
        }
    }
}
