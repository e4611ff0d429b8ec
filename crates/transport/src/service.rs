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
//! This file is the core — the instance map, the four receive gates,
//! `route` / `ingest` / `hand_off`, `poll` and `recover` — and it owns four
//! private parts, each a plain struct it calls into: `durability` (the WAL,
//! the outbound history, the group commit), `client_table` (sessions,
//! admission, the client instance-id layout, the recovery-spec codec),
//! `health` (stall detector, flight recorder) and
//! `phase` (the always-on clock of where the node's wall time goes). The
//! parts never see the service; they report through its event sink and
//! error log.
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
//! receive-boundary validation on top. The gates live in this file
//! (`ingest`, `hand_off`, `gate_reject`); the rules a peer's `Launch` frame
//! must pass are the client table's, which names the gate to charge.
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
//! returned (a decision is durable before it is surfaced). The `durability`
//! part is the only code that appends to or syncs the log, and this file
//! calls `transport.flush()` only after the `commit()` of the same call —
//! that is the whole rule. Between two polls the file is therefore exactly
//! as the last commit left it: a process crash loses what a power loss
//! loses, nothing of which was on the wire. A restarted process rebuilds
//! the exact pre-crash protocol state with
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
//! [`ConsensusService::enable_health`] arms the `health` part: every
//! poll feeds per-instance progress (lockstep round / barrier occupancy for
//! BVC, witness commits for VA) and the transport's per-link health into a
//! [`rbvc_obs::StallDetector`], which raises a blame-attributed
//! [`rbvc_obs::StallReport`] (barrier / wire / fsync / queue, with the
//! specific missing senders) when an undecided instance makes no progress
//! past its deadline and counts it on `/metrics` (`health.stall.*`, with
//! `{peer}` blame). Arming it with a flight directory tees the service's
//! event stream into an always-on [`rbvc_obs::FlightRecorder`] that dumps
//! its ring on a safety violation, an escalated stall, or a panic.
//!
//! ## Where the time goes
//!
//! The `phase` part is a clock the service advances at the boundaries
//! `poll` already has — one cell of cumulative nanoseconds per [`Phase`],
//! partitioning the node's wall time exactly. Every [`DecisionEvent`]
//! carries the difference between the cells at its launch and at its
//! surfacing ([`DecisionEvent::phases`], summing to its latency), and the
//! same differences feed `service.decide.phase_us{phase}`,
//! `service.poll.phase_us{phase}` and `service.frame.queue_us` on
//! `/metrics` (DESIGN.md §11).

mod client_table;
mod durability;
mod health;
mod phase;

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
use rbvc_core::SyncBvc;
use rbvc_linalg::VecD;
use rbvc_obs::{progress_token, Event, EventKind, InstanceProgress, Obs, Registry, StallReport};
use rbvc_sim::asynch::AsyncProtocol;
use rbvc_sim::bracha::BrachaMsg;
use rbvc_sim::config::ProcessId;
use rbvc_sim::error::{ErrorLog, ProtocolError};
use rbvc_store::{decode_record, ReplayReport, Wal, WalRecord, WalRecordRef};
pub use rbvc_sim::monitor::InstanceId;

pub use self::client_table::{
    client_instance_owner, ClientAdmission, ClientConfig, ClientStats, CLIENT_INSTANCE_BASE,
};
pub use self::health::HealthConfig;
pub use self::phase::{Phase, PhaseNanos};
use self::client_table::ClientTable;
use self::durability::Durability;
use self::health::Health;
use self::phase::PhaseClock;
use crate::lockstep::{Lockstep, RoundBatch};
use crate::transport::{AuthEvent, Transport};
use crate::wire::{decode_frame_hinted, encode_frame, ClientLaunch, Frame, Payload};

/// One consensus instance as the service runs it.
pub enum InstanceProto {
    /// A synchronous broadcast-then-decide instance under the lockstep
    /// synchronizer.
    Bvc(Lockstep<SyncBvc>),
    /// An asynchronous Verified-Averaging instance.
    Va(VerifiedAveraging),
}

/// Encoded frames with their destinations, as [`ConsensusService::route`]
/// takes them. The state-machine calls below encode their sends straight
/// into the caller's one.
type Outbound = Vec<(ProcessId, Vec<u8>)>;

/// Everything the service needs to know about *which* protocol an instance
/// runs: the state-machine calls with their wire encoding on the way out
/// and the payload-kind check on the way in.
impl InstanceProto {
    fn set_obs(&mut self, obs: Obs) {
        match self {
            InstanceProto::Bvc(p) => p.set_obs(obs),
            InstanceProto::Va(p) => p.set_obs(obs),
        }
    }

    fn on_start(&mut self, id: InstanceId, local: ProcessId, out: &mut Outbound) {
        match self {
            InstanceProto::Bvc(p) => Self::encode_bvc(id, local, p.on_start(), out),
            InstanceProto::Va(p) => Self::encode_va(id, local, p.on_start(), out),
        }
    }

    /// Hand one authenticated frame to the state machine; false when the
    /// payload kind is not this instance's protocol (receive gate 4).
    fn on_frame(&mut self, local: ProcessId, frame: Frame, out: &mut Outbound) -> bool {
        let Frame { instance, sender, round, payload } = frame;
        match (self, payload) {
            (InstanceProto::Bvc(p), Payload::Eig(msgs)) => {
                let sends = p.on_message(sender, RoundBatch { round: round as usize, msgs });
                Self::encode_bvc(instance, local, sends, out);
            }
            (InstanceProto::Va(p), Payload::Va(msg)) => {
                Self::encode_va(instance, local, p.on_message(sender, msg), out);
            }
            (_, _) => return false,
        }
        true
    }

    fn on_tick(&mut self, id: InstanceId, local: ProcessId, out: &mut Outbound) {
        match self {
            InstanceProto::Bvc(p) => Self::encode_bvc(id, local, p.on_tick(), out),
            InstanceProto::Va(p) => Self::encode_va(id, local, p.on_tick(), out),
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

    /// Instance `instance`'s row as the stall detector sees it: lockstep
    /// round plus barrier occupancy for BVC (with the concrete missing
    /// senders), witness commits for VA (no barrier, so no named senders).
    fn progress(&self, instance: InstanceId, launched: bool, decided: bool) -> InstanceProgress {
        let (round, progress_token, waiting_on) = match self {
            InstanceProto::Bvc(p) => {
                let round = u32::try_from(p.current_round()).unwrap_or(u32::MAX);
                let waiting_on =
                    p.waiting_on().iter().map(|&q| u32::try_from(q).unwrap_or(u32::MAX)).collect();
                (round, progress_token(round, p.senders_have(), 0), waiting_on)
            }
            InstanceProto::Va(p) => (0, progress_token(0, 0, p.witness_commits()), Vec::new()),
        };
        InstanceProgress { instance, round, launched, decided, progress_token, waiting_on }
    }

    fn encode_bvc(
        instance: InstanceId,
        sender: ProcessId,
        sends: Vec<(ProcessId, RoundBatch<<SyncBvc as rbvc_sim::sync::SyncProtocol>::Msg>)>,
        out: &mut Outbound,
    ) {
        // A round's message is one allocation shared by every destination and
        // its bytes do not name one: encode it once, copy it for the others.
        out.reserve(sends.len());
        let mut last: Option<Frame> = None;
        for (dst, batch) in sends {
            let round = u32::try_from(batch.round).expect("round fits u32");
            let repeats = matches!(&last, Some(Frame { round: r, payload: Payload::Eig(msgs), .. })
                if *r == round
                    && msgs.len() == batch.msgs.len()
                    && msgs.iter().zip(&batch.msgs).all(|(a, b)| Arc::ptr_eq(a, b)));
            let bytes = match out.last() {
                Some((_, bytes)) if repeats => bytes.clone(),
                _ => {
                    let frame = last.insert(Frame {
                        instance,
                        sender,
                        round,
                        payload: Payload::Eig(batch.msgs),
                    });
                    encode_frame(frame)
                }
            };
            out.push((dst, bytes));
        }
    }

    fn encode_va(
        instance: InstanceId,
        sender: ProcessId,
        sends: Vec<(ProcessId, <VerifiedAveraging as AsyncProtocol>::Msg)>,
        out: &mut Outbound,
    ) {
        // A multicast is one message, one state allocation, repeated per
        // destination: encode it once, copy it for the others. A state an
        // adversary edited (`make_mut`) is another allocation: its own encode.
        out.reserve(sends.len());
        let mut last: Option<Frame> = None;
        for (dst, (tag, msg)) in sends {
            let repeats = matches!(&last, Some(Frame { payload: Payload::Va((t, m)), .. })
                if *t == tag && match (m, &msg) {
                    (BrachaMsg::Init(a), BrachaMsg::Init(b))
                    | (BrachaMsg::Echo(a), BrachaMsg::Echo(b))
                    | (BrachaMsg::Ready(a), BrachaMsg::Ready(b)) => Arc::ptr_eq(a, b),
                    _ => false,
                });
            let bytes = match out.last() {
                Some((_, bytes)) if repeats => bytes.clone(),
                _ => {
                    let round = u32::try_from(tag.1).expect("round fits u32");
                    let payload = Payload::Va((tag, msg));
                    encode_frame(last.insert(Frame { instance, sender, round, payload }))
                }
            };
            out.push((dst, bytes));
        }
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
    /// Where that time went on this node: the phase clock's cells at the
    /// surfacing minus the cells at the launch. Sums to `latency`.
    pub phases: PhaseNanos,
}

struct Slot {
    proto: InstanceProto,
    /// Set when the decision is collected (or pinned by recovery).
    decided: bool,
    /// Decision recovered from the WAL, pinned: [`ConsensusService::decision`]
    /// returns this over whatever the replayed state machine holds, so a
    /// recovered node can never surface a value that differs from the one it
    /// already surfaced before the crash.
    pinned: Option<VecD>,
    /// When this instance's `on_start` sends went out, on the monotonic
    /// clock, and the phase clock's cells at that instant — the submit side
    /// of the latency metric and of its split. `None` until then:
    /// un-launched instances still receive and buffer frames (so a peer may
    /// start first) but are not ticked and cannot surface a decision. Boxed:
    /// the map is built and walked far more often than a launch is read.
    launched: Option<Box<(Instant, PhaseNanos)>>,
}

/// Names of the four receive gates, indexed as [`ConsensusService::gate_rejections`].
pub const GATE_NAMES: [&str; 4] = ["decode", "auth", "instance", "kind"];

/// Where the service and its parts report: the structured-event sink
/// (no-op by default, node tag baked in) and the log of degradation events.
/// One field of the service, so it can be lent to a part while the part
/// itself is borrowed.
struct Sinks {
    obs: Obs,
    errors: ErrorLog,
}

/// The per-process service multiplexing consensus instances over one
/// transport endpoint.
pub struct ConsensusService<T: Transport> {
    transport: T,
    instances: BTreeMap<InstanceId, Slot>,
    undecided: usize,
    sinks: Sinks,
    started: bool,
    /// Per-gate rejection counts, indexed as [`GATE_NAMES`].
    gate_rejections: [u64; 4],
    /// Per-sender rejection counts: `[sender][gate]`, gates indexed as
    /// [`GATE_NAMES`]. The sender is the transport-authenticated link peer
    /// for the decode/auth gates and the (by then link-verified) frame
    /// sender for the instance/kind gates — what lets an adversarial
    /// campaign attribute every rejection to the node that caused it.
    gate_rejections_by_sender: Vec<[u64; 4]>,
    /// The WAL, the outbound history and the group commit.
    durability: Durability,
    /// Decisions replayed out of the WAL (surfaced before the crash; they do
    /// not reappear in [`ConsensusService::poll`] results).
    recovered: Vec<DecisionEvent>,
    /// Replay anomalies: regenerated sends that failed the FIFO match against
    /// the logged ones, undecodable WAL records, or records referencing
    /// unknown instances. Zero on a faithful recovery.
    replay_divergence: u64,
    /// Client front-end: session table, admission bounds, reply cache.
    client: ClientTable,
    /// Stall detector and flight recorder; `None` until
    /// [`ConsensusService::enable_health`].
    health: Option<Health>,
    /// Where this node's wall time goes, advanced at `poll`'s boundaries.
    clock: PhaseClock,
}

impl<T: Transport> ConsensusService<T> {
    /// Wrap a transport endpoint into an (initially empty) service.
    #[must_use]
    pub fn new(transport: T) -> Self {
        let (local, n) = (transport.local_id(), transport.n());
        let node = u32::try_from(local).unwrap_or(u32::MAX);
        ConsensusService {
            transport,
            instances: BTreeMap::new(),
            undecided: 0,
            sinks: Sinks { obs: Obs::noop().with_node(node), errors: ErrorLog::new() },
            started: false,
            gate_rejections: [0; 4],
            gate_rejections_by_sender: vec![[0; 4]; n],
            durability: Durability::new(n),
            recovered: Vec::new(),
            replay_divergence: 0,
            client: ClientTable::new(local, n),
            health: None,
            clock: PhaseClock::new(),
        }
    }

    /// Attach a write-ahead log: every state-changing point from here on is
    /// logged before it takes effect. Attach before registering instances so
    /// their specs are durable; to resume from an existing log use
    /// [`ConsensusService::recover`] instead.
    pub fn attach_wal(&mut self, wal: Wal) {
        self.durability.attach(wal);
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
    /// stream, where the flight recorder sees them.
    fn drain_auth_events(&mut self) {
        for ev in self.transport.take_auth_events() {
            match ev {
                AuthEvent::Established { peer, epoch } => {
                    self.sinks.obs.emit(|| {
                        Event::new(EventKind::AuthEstablished)
                            .peer(u32::try_from(peer).unwrap_or(u32::MAX))
                            .detail(format!("epoch={epoch}"))
                    });
                }
                AuthEvent::Rejected { peer, reason } => {
                    self.sinks.obs.emit(|| {
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

    /// Attach a structured-event sink; the service emits
    /// [`EventKind::GateReject`] at each of the four receive gates and
    /// [`EventKind::Decide`] (with a `latency_us=` detail) per decided
    /// instance, and propagates the sink to every registered instance —
    /// lockstep round events and Verified-Averaging protocol events flow
    /// through it tagged with their instance id. Attach *before*
    /// registering instances so all of them are covered.
    pub fn set_obs(&mut self, obs: Obs) {
        let node = u32::try_from(self.transport.local_id()).unwrap_or(u32::MAX);
        self.sinks.obs = obs.with_node(node);
        for (id, slot) in &mut self.instances {
            slot.proto.set_obs(self.sinks.obs.with_instance(*id));
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

    /// Reject a frame at gate `gate` for `reason`; see [`Self::gate_record`].
    fn gate_reject(&mut self, gate: usize, from: ProcessId, reason: String) {
        self.gate_record(gate, from, ProtocolError::MalformedPayload { from, reason });
    }

    /// Record one rejection at gate `gate` (index into [`GATE_NAMES`]),
    /// attribute it to `from` (metrics label + per-sender table + the
    /// `from=` field of the [`EventKind::GateReject`] detail), and trace it.
    fn gate_record(&mut self, gate: usize, from: ProcessId, err: ProtocolError) {
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
        self.sinks.obs.emit(|| {
            Event::new(EventKind::GateReject).detail(format!("gate={} from={from}", GATE_NAMES[gate]))
        });
        self.sinks.errors.record(err);
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

    /// Stand `proto` up under `id` — unless `id` is resident: a slot is
    /// never replaced, whoever asks.
    fn insert_slot(&mut self, id: InstanceId, mut proto: InstanceProto) {
        if let Entry::Vacant(entry) = self.instances.entry(id) {
            proto.set_obs(self.sinks.obs.with_instance(id));
            entry.insert(Slot { proto, decided: false, pinned: None, launched: None });
            self.undecided += 1;
        }
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
        if self.durability.wal().is_none() {
            return Err(ProtocolError::InvalidSpec {
                reason: "add_instance_durable requires an attached WAL".into(),
            });
        }
        self.add_instance(id, proto)?;
        self.durability
            .append(WalRecordRef::Registered { instance: id, spec: &spec }, &mut self.sinks);
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
            if let Err(e) = self.launch_now(id) {
                first_err.get_or_insert(e);
            }
        }
        if let Err(e) = self.flush() {
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
        if self.instances.get(&id).is_some_and(|slot| slot.launched.is_some()) {
            return Err(ProtocolError::InvalidSpec {
                reason: format!("instance {id} already launched"),
            });
        }
        self.launch_now(id)
    }

    /// Push everything queued on the transport out now (a poll does this
    /// anyway; use after a launch burst outside the poll loop).
    ///
    /// # Errors
    /// Propagates transport-level flush failures.
    pub fn flush(&mut self) -> Result<(), ProtocolError> {
        self.durability.commit(&mut self.sinks, &mut self.clock);
        let flushed = self.transport.flush();
        self.clock.enter(Phase::Outside);
        flushed
    }

    /// Mark `id` launched, stamp its submission time and encode its
    /// `on_start` frames into `out` — the one path a local launch, a peer's
    /// `Launch` frame and the replay of a `Launched` record all take. False
    /// if `id` is not registered.
    fn start_instance(&mut self, id: InstanceId, out: &mut Outbound) -> bool {
        let local = self.transport.local_id();
        let Some(slot) = self.instances.get_mut(&id) else { return false };
        slot.launched = Some(Box::new(self.clock.now()));
        slot.proto.on_start(id, local, out);
        true
    }

    /// Live launch: [`Self::start_instance`], logged and routed.
    fn launch_now(&mut self, id: InstanceId) -> Result<(), ProtocolError> {
        let mut sends = Outbound::new();
        if !self.start_instance(id, &mut sends) {
            return Err(ProtocolError::InvalidSpec {
                reason: format!("launch of unknown instance {id}"),
            });
        }
        self.durability.append(WalRecordRef::Launched { instance: id }, &mut self.sinks);
        self.route(sends)
    }

    /// Queue encoded frames on the transport, logging each as a `Sent`
    /// record first when durable (the group commit lands before the
    /// flush that puts them on the wire); failures are recorded and the
    /// remaining frames still go out.
    fn route(&mut self, frames: Outbound) -> Result<(), ProtocolError> {
        let mut first_err = None;
        for (dst, bytes) in frames {
            self.durability.sent(dst, &bytes, &mut self.sinks);
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
    /// decode gate, sender gate, write-through, dispatch, with the outbound
    /// frames it produces encoded into `out`. Live polls and WAL replay both
    /// enter here — replay with no WAL attached yet, so nothing is logged
    /// twice and a rejection re-occurs through the same gate counters.
    fn ingest(&mut self, link_peer: ProcessId, bytes: &[u8], out: &mut Outbound) {
        let local = self.transport.local_id();
        // One lookup, of the instance the header names: it holds the state
        // that 35 of a VA broadcast's 36 frames carry, to compare the bytes
        // with before decoding them, and it is where the frame goes. (A frame
        // that decodes names that instance.)
        let slot = crate::wire::peek_header(bytes).and_then(|id| self.instances.get_mut(&id));
        let hint = |tag| match slot.as_deref() {
            Some(Slot { proto: InstanceProto::Va(p), .. }) => p.first_state(tag).cloned(),
            _ => None,
        };
        let frame = match decode_frame_hinted(bytes, link_peer, &hint) {
            Ok(f) => f,
            Err(e) => {
                // The decoder's own error, verbatim.
                self.gate_record(0, link_peer, e);
                return;
            }
        };
        if frame.sender != link_peer {
            let reason = format!(
                "spoofed sender: header claims {} on the link from {}",
                frame.sender, link_peer
            );
            self.gate_reject(1, link_peer, reason);
            return;
        }
        // Log the authenticated frame *before* it mutates protocol state:
        // replay re-runs the gates and the dispatch deterministically.
        self.durability.append(
            WalRecordRef::Inbound { from: u32::try_from(link_peer).unwrap_or(u32::MAX), bytes },
            &mut self.sinks,
        );
        let (sender, instance) = (frame.sender, frame.instance);
        let payload = match frame.payload {
            Payload::Launch(launch) => return self.dispatch_launch(instance, sender, launch, out),
            payload => payload,
        };
        let frame = Frame { payload, ..frame };
        let Some(slot) = slot else {
            if client_instance_owner(instance).is_some() {
                self.client.park(frame);
            } else {
                self.gate_reject(2, sender, format!("frame for unknown instance {instance}"));
            }
            return;
        };
        if let Some(reason) = Self::hand_off(slot, local, frame, out) {
            self.gate_reject(3, sender, reason);
        }
    }

    /// Receive gate 4 and the hand-off of an authenticated frame to `slot`,
    /// the instance it names; the reason to refuse it with when its payload
    /// is not that instance's protocol.
    fn hand_off(
        slot: &mut Slot,
        local: ProcessId,
        frame: Frame,
        out: &mut Outbound,
    ) -> Option<String> {
        let instance = frame.instance;
        (!slot.proto.on_frame(local, frame, out))
            .then(|| format!("payload kind does not match the protocol of instance {instance}"))
    }

    /// One service step: receive (waiting up to `timeout` for the first
    /// frame), decode, authenticate, demultiplex, dispatch, tick, and flush
    /// everything produced as one batch per peer. Returns the decisions
    /// newly reached during this poll. Each `clock.enter` below is a phase
    /// boundary; there is none per frame.
    pub fn poll(&mut self, timeout: Duration) -> Vec<DecisionEvent> {
        self.clock.enter(Phase::Wait);
        // A peer whose outbound link was re-established (it restarted, or
        // the link died and was redialed) gets the full outbound history
        // replayed: whatever fell into the gap is covered, receivers dedup.
        for peer in self.transport.take_reconnects() {
            self.clock.enter(Phase::Route);
            for bytes in self.durability.history(peer) {
                let _ = self.transport.send(peer, bytes.clone());
            }
            self.clock.enter(Phase::Wait);
        }
        let inbound = self.transport.recv_timeout_stamped(timeout);
        self.clock.enter(Phase::Dispatch);
        self.drain_auth_events();
        let n_rx = inbound.len();
        // The one per-frame quantity worth a series, taken once per poll:
        // how long the batch's oldest frame sat behind a busy poll loop.
        if let Some(oldest_us) = inbound.iter().map(|&(_, arrived_us, _)| arrived_us).min() {
            phase::record_queue(rbvc_obs::clock::now_us().saturating_sub(oldest_us));
        }
        let mut outbound: Outbound = Vec::new();
        for (link_peer, _, bytes) in inbound {
            self.ingest(link_peer, &bytes, &mut outbound);
        }
        // Drive timers (lockstep round timeouts) once per poll.
        let local = self.transport.local_id();
        for (id, slot) in &mut self.instances {
            if !slot.decided && slot.launched.is_some() {
                slot.proto.on_tick(*id, local, &mut outbound);
            }
        }
        self.clock.enter(Phase::Route);
        let n_tx = outbound.len();
        // A refused send (a link awaiting redial) is recorded by the
        // transport and covered by the history replay once the link is back.
        let _ = self.route(outbound);
        // Witness-commit progress (a counter per instance), where it is logged.
        if self.durability.wal().is_some() {
            for (id, slot) in &self.instances {
                self.durability.witness(*id, slot.proto.witness_commits(), &mut self.sinks);
            }
        }
        // This poll's decisions (and the client replies they complete) join
        // the batch, so one sync covers them with everything else.
        let decided = self.collect_decisions();
        // Group-commit before the wire flush: nothing reaches a peer, a
        // client or the caller unless the records that produced it are
        // durable.
        let commit_us = self.durability.commit(&mut self.sinks, &mut self.clock);
        // Always flush, whatever `route` returned: the healthy peers get this
        // poll's frames now, and a TCP endpoint's lazy redial runs in here.
        // A failed write is already recorded by the transport; the poll loop
        // continues on the surviving links.
        let _ = self.transport.flush();
        self.clock.enter(Phase::Rest);
        let decisions = self.surface_decisions(decided);
        // Backfill freed in-flight slots from the admission queue, after
        // the flush: the launches this queues ride the next poll's batch.
        while let Some((instance, launch)) = self.client.next_queued() {
            let _ = self.admit_client_request(instance, launch);
        }
        // Health turn — unconditional: stalls are exactly the polls where
        // nothing else happens.
        self.health_tick(commit_us, &decisions);
        self.clock.enter(Phase::Outside);
        self.clock.end_poll(n_rx > 0 || n_tx > 0 || !decisions.is_empty());
        decisions
    }

    /// Mark newly decided instances (each instance at most once) and append
    /// their `Decided` records — then the `ClientReply` records of the
    /// client requests they answer — to the WAL's current batch. Un-launched
    /// instances are skipped even if their state machine already holds an
    /// output — the latency clock starts at launch, so a decision is only
    /// *surfaced* once the instance was submitted. Nothing is surfaced
    /// here: [`Self::surface_decisions`] does that after the group commit,
    /// and the client port can take a reply only after `poll` returned — so
    /// dedup survives a crash that happens after the reply is out.
    fn collect_decisions(&mut self) -> Vec<(InstanceId, VecD)> {
        let mut decided = Vec::new();
        for (id, slot) in &mut self.instances {
            if slot.decided || slot.launched.is_none() {
                continue;
            }
            if let Some(value) = slot.proto.output() {
                slot.decided = true;
                self.undecided -= 1;
                self.durability.append(
                    WalRecordRef::Decided { instance: *id, value: value.as_slice() },
                    &mut self.sinks,
                );
                decided.push((*id, value));
            }
        }
        for (instance, value) in &decided {
            if let Some((session, reqno)) = self.client.answered(*instance, value) {
                self.durability.append(
                    WalRecordRef::ClientReply {
                        instance: *instance,
                        session,
                        reqno,
                        value: value.as_slice(),
                    },
                    &mut self.sinks,
                );
            }
        }
        decided
    }

    /// Turn this poll's decisions into events, once the sync that covers
    /// their records and the transport flush are behind them: a surfaced
    /// decision must survive any crash, or a restart could surface a
    /// different one. The latency clock stops here — one reading of the
    /// phase clock for the whole poll, so each decision's split sums to its
    /// latency exactly.
    fn surface_decisions(&mut self, decided: Vec<(InstanceId, VecD)>) -> Vec<DecisionEvent> {
        if decided.is_empty() {
            return Vec::new();
        }
        let local = self.transport.local_id();
        let (now, cells) = self.clock.now();
        let mut events = Vec::with_capacity(decided.len());
        for (instance, value) in decided {
            let (latency, phases) = self
                .instances
                .get(&instance)
                .and_then(|slot| slot.launched.as_deref())
                .map(|(at, cells_then)| (now - *at, cells.since(cells_then)))
                .unwrap_or_default();
            let latency_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
            phase::record_decision(latency_us, &phases);
            self.sinks.obs.emit(|| {
                Event::new(EventKind::Decide)
                    .instance(instance)
                    .detail(format!("latency_us={latency_us}"))
            });
            events.push(DecisionEvent { instance, process: local, value, latency, phases });
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
        self.client.enable(cfg);
    }

    /// Arm the health subsystem: from here on every poll feeds instance
    /// progress and link health into a stall detector and — when a flight
    /// directory is configured — tees the service's event
    /// stream into an always-on [`rbvc_obs::FlightRecorder`] that dumps on a
    /// violation, an escalated stall, or a panic. Call *after*
    /// [`ConsensusService::set_obs`] so the tee wraps the real sink; zero
    /// behavior change for services that never call this.
    pub fn enable_health(&mut self, cfg: HealthConfig) {
        let node = u32::try_from(self.transport.local_id()).unwrap_or(u32::MAX);
        let (health, teed) = Health::new(node, cfg, &self.sinks.obs);
        if let Some(obs) = teed {
            self.set_obs(obs);
        }
        self.health = Some(health);
    }

    /// Inject an artificial delay into every group-commit sync — the
    /// health campaign's slow-fsync fault. Zero (the default) disables it.
    pub fn set_fsync_throttle(&mut self, throttle: Duration) {
        self.durability.set_fsync_throttle(throttle);
    }

    /// Every stall the detector ever raised (bounded history), in
    /// detection order. Empty without [`ConsensusService::enable_health`].
    #[must_use]
    pub fn health_reports(&self) -> Vec<StallReport> {
        self.health.as_ref().map(|h| h.detector().reports().to_vec()).unwrap_or_default()
    }

    /// Stalls currently active (detected, not yet cleared).
    #[must_use]
    pub fn active_stalls(&self) -> Vec<StallReport> {
        self.health.as_ref().map(|h| h.detector().active()).unwrap_or_default()
    }

    /// Total stalls ever raised — the clean-run false-positive check.
    #[must_use]
    pub fn stalls_raised(&self) -> u64 {
        self.health.as_ref().map_or(0, |h| h.detector().raised_total())
    }

    /// Per-instance progress as the stall detector needs it: a row for
    /// every instance still open, and one for each that decided in this
    /// poll — all the detector needs to clear a stall and stop tracking. An
    /// instance decided earlier costs nothing, so arming health does not
    /// grow with instances served.
    fn progress_rows(&self, decided_now: &[DecisionEvent]) -> Vec<InstanceProgress> {
        self.instances
            .iter()
            .filter(|(id, slot)| {
                !slot.decided || decided_now.iter().any(|ev| ev.instance == **id)
            })
            .map(|(id, slot)| slot.proto.progress(*id, slot.launched.is_some(), slot.decided))
            .collect()
    }

    /// One health turn, run at the end of every poll: hand the health part
    /// per-instance progress as the stall detector sees it, the transport's
    /// link health and the poll's group-commit time.
    fn health_tick(&mut self, commit_us: u64, decided_now: &[DecisionEvent]) {
        if self.health.is_none() {
            return;
        }
        let now_us = rbvc_obs::clock::now_us();
        let progress = self.progress_rows(decided_now);
        let links = self.transport.link_health();
        let Some(health) = self.health.as_mut() else { return };
        health.tick(&self.sinks.obs, now_us, commit_us, &progress, &links);
    }

    /// Which process owns client session `session` (sessions are sharded
    /// `session % n`).
    #[must_use]
    pub fn session_owner(&self, session: u64) -> ProcessId {
        self.client.session_owner(session)
    }

    /// Snapshot of the client front-end counters.
    #[must_use]
    pub fn client_stats(&self) -> ClientStats {
        self.client.stats()
    }

    /// Number of registered instances (static and client-launched).
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Where this node's wall time has gone since the service was built:
    /// the phase clock's cumulative cells as of the last boundary (the end
    /// of the last `poll`, normally).
    #[must_use]
    pub fn phase_nanos(&self) -> PhaseNanos {
        self.clock.cells()
    }

    /// Take the client replies that became ready since the last call:
    /// `(session, reqno, decision)`, each already WAL-durable when the
    /// service is durable. The client port delivers them to whichever
    /// connection last submitted for the session.
    pub fn take_client_replies(&mut self) -> Vec<(u64, u64, VecD)> {
        self.client.take_replies()
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
    ///   [`ClientAdmission::Busy`] when both bounds are full — or when the
    ///   instance id the request would run under is still resident.
    pub fn client_submit(&mut self, session: u64, reqno: u64, value: VecD) -> ClientAdmission {
        let instances = &self.instances;
        let (verdict, request) = self.client.submit(self.started, session, reqno, value, |id| {
            instances.contains_key(&id)
        });
        if let Some((instance, launch)) = request {
            let _ = self.admit_client_request(instance, launch);
        }
        verdict
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
    /// instance up and return the `Launch` frames the owner fans out, in
    /// deterministic peer order (so the replay's FIFO `Sent` match holds).
    fn open_client_instance(&mut self, instance: InstanceId, launch: ClientLaunch) -> Outbound {
        let local = self.transport.local_id();
        let (f, rounds) = (launch.f as usize, launch.rounds as usize);
        self.insert_client_slot(instance, f, rounds, launch.value.clone());
        let frame = Frame { instance, sender: local, round: 0, payload: Payload::Launch(launch) };
        let bytes = encode_frame(&frame);
        (0..self.transport.n()).filter(|&dst| dst != local).map(|dst| (dst, bytes.clone())).collect()
    }

    /// Owner side of one admitted request: register (durably, with a
    /// self-describing spec), fan the `Launch` out to every peer *first* —
    /// per-link FIFO means each peer registers the instance before this
    /// node's protocol frames arrive — then launch locally.
    fn admit_client_request(
        &mut self,
        instance: InstanceId,
        launch: ClientLaunch,
    ) -> Result<(), ProtocolError> {
        if self.durability.wal().is_some() {
            let spec = client_table::encode_spec(&launch);
            self.durability
                .append(WalRecordRef::Registered { instance, spec: &spec }, &mut self.sinks);
        }
        let frames = self.open_client_instance(instance, launch);
        let routed = self.route(frames);
        self.launch_now(instance)?;
        routed
    }

    /// Peer side of a `Launch` frame: once the client table lets it pass,
    /// stand the instance up with the client's value as the local input
    /// (all honest inputs identical, so the decision is the client's point
    /// up to agreement tolerance), and drain any frames that raced ahead of
    /// the launch.
    fn dispatch_launch(
        &mut self,
        instance: InstanceId,
        sender: ProcessId,
        launch: ClientLaunch,
        out: &mut Outbound,
    ) {
        if let Some((gate, reason)) = self.client.launch_refusal(instance, sender, &launch) {
            self.gate_reject(gate, sender, reason);
            return;
        }
        if self.instances.contains_key(&instance) {
            // Duplicate launch (reconnect history replay): idempotent.
            return;
        }
        self.insert_client_slot(instance, launch.f as usize, launch.rounds as usize, launch.value);
        self.started = true;
        self.start_instance(instance, out);
        // Frames that beat the launch here take gate 4 and the hand-off now
        // that the instance exists.
        let local = self.transport.local_id();
        for frame in self.client.unpark(instance) {
            let sender = frame.sender;
            let slot = self.instances.get_mut(&instance).expect("just inserted");
            if let Some(reason) = Self::hand_off(slot, local, frame, out) {
                self.gate_reject(3, sender, reason);
            }
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
                    // them (and the client table's view of them) internally;
                    // everything else goes through the caller's factory.
                    if let Some(launch) = client_table::decode_spec(&spec) {
                        if svc.instances.contains_key(&instance) {
                            svc.replay_divergence += 1;
                            continue;
                        }
                        svc.client.restore(instance, &launch);
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
                    if !svc.start_instance(instance, &mut regenerated) {
                        svc.replay_divergence += 1;
                    }
                }
                WalRecord::Inbound { from, bytes } => {
                    svc.ingest(from as ProcessId, &bytes, &mut regenerated);
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
                    svc.durability.witness_replayed(instance, count);
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
                        phases: PhaseNanos::default(),
                    });
                }
                WalRecord::ClientReply { instance, session, reqno, value } => {
                    // A reply that was surfaced (or about to be) before the
                    // crash: rebuild the dedup cache so a retry of the same
                    // (session, reqno) gets the identical pre-crash bytes.
                    svc.client.cache_reply(instance, session, reqno, VecD::from_slice(&value));
                }
            }
        }
        svc.durability.attach(wal);
        // Client instances that decided before the crash but whose reply
        // record didn't make it: the pinned decision is durable, so cache
        // and log the reply now — the retry path answers from here.
        for (instance, session, reqno) in svc.client.in_flight() {
            if !svc.instances.get(&instance).is_some_and(|slot| slot.decided) {
                continue;
            }
            let Some(value) = svc.decision(instance) else { continue };
            svc.durability.append(
                WalRecordRef::ClientReply { instance, session, reqno, value: value.as_slice() },
                &mut svc.sinks,
            );
            svc.client.cache_reply(instance, session, reqno, value);
        }
        svc.durability.commit(&mut svc.sinks, &mut svc.clock);
        svc.client.publish_sessions();
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
            svc.durability.keep(dst, bytes);
        }
        let _ = svc.transport.flush();
        svc.clock.enter(Phase::Outside);
        let recover_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        Registry::global().histogram("service.recover_us").record(recover_us);
        Registry::global()
            .counter("service.replay.divergences")
            .add(svc.replay_divergence);
        let (records, torn) = (report.records.len(), report.torn_bytes);
        svc.sinks.obs.emit(|| {
            Event::new(EventKind::WalReplay)
                .detail(format!("records={records} torn_bytes={torn}"))
        });
        let (instances, decisions, divergences) =
            (svc.instances.len(), svc.recovered.len(), svc.replay_divergence);
        svc.sinks.obs.emit(|| {
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
        &self.sinks.errors
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
    use rbvc_obs::{detail_field, prometheus_text, RingRecorder, StallConfig};

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
    /// mesh, all driven from one thread by round-robin polling. The event
    /// stream carries one service-level `decide` (the one with a
    /// `latency_us=` measurement) per instance per node.
    #[test]
    fn multiplexes_bvc_and_va_over_one_mesh() {
        let n = 4;
        let inputs = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]];
        let ring = Arc::new(RingRecorder::new(1 << 16));
        let mut services: Vec<ConsensusService<_>> = in_proc_mesh(n)
            .into_iter()
            .map(ConsensusService::new)
            .collect();
        for (i, svc) in services.iter_mut().enumerate() {
            svc.set_obs(Obs::new(ring.clone()));
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
        // Protocol layers emit decide events of their own (Verified
        // Averaging's "after N rounds"); the service's carry the latency.
        let service_decides = ring
            .snapshot()
            .iter()
            .filter(|e| e.kind == EventKind::Decide)
            .filter(|e| e.detail.as_deref().and_then(|d| detail_field(d, "latency_us")).is_some())
            .count();
        assert_eq!(ring.dropped(), 0);
        assert_eq!(service_decides, 2 * n, "instances x nodes");
    }

    /// Every decision's phases sum to its latency — exactly, both being
    /// differences of the same two clock readings — and each cell shows up
    /// where its work is: `write` / `fsync` on the one node with a WAL,
    /// `kernel` for the δ* solves of the `MinDeltaPoint` instances, with
    /// kernel timing at its default (off).
    #[test]
    fn phases_partition_every_decision() {
        assert!(!rbvc_obs::kernel_timing_enabled());
        let n = 4;
        let dir = tmp_dir("phases");
        let inputs = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]];
        let mut services: Vec<ConsensusService<_>> =
            in_proc_mesh(n).into_iter().map(ConsensusService::new).collect();
        services[0].attach_wal(rbvc_store::Wal::open(dir.join("node0.wal")).unwrap().0);
        for (i, svc) in services.iter_mut().enumerate() {
            for k in 0..6u64 {
                let input = [inputs[i][0] + k as f64, inputs[i][1]];
                let proto =
                    if k % 2 == 0 { bvc_instance(i, n, 1, &input) } else { va_instance(i, n, &input) };
                if i == 0 {
                    svc.add_instance_durable(k, proto, Vec::new()).unwrap();
                } else {
                    svc.add_instance(k, proto).unwrap();
                }
            }
            svc.start().unwrap();
        }
        let mut events = Vec::new();
        let mut spins = 0;
        while services.iter().any(|s| !s.all_decided()) {
            for svc in &mut services {
                events.extend(svc.poll(Duration::ZERO));
            }
            spins += 1;
            assert!(spins < 10_000, "service mesh failed to converge");
        }
        assert_eq!(events.len(), 6 * n);
        for ev in &events {
            let at = format!("instance {} on node {}: {:?}", ev.instance, ev.process, ev.phases);
            assert_eq!(u128::from(ev.phases.total()), ev.latency.as_nanos(), "{at}");
            let commit = ev.phases.get(Phase::Write) + ev.phases.get(Phase::Fsync);
            assert_eq!(commit > 0, ev.process == 0, "only node 0 has a WAL — {at}");
            assert!(ev.phases.get(Phase::Dispatch) > 0 && ev.phases.get(Phase::Outside) > 0, "{at}");
            if ev.instance % 2 == 0 {
                assert!(ev.phases.get(Phase::Kernel) > 0, "a δ* solve ran — {at}");
            }
        }
        // The clock itself: all of a node's wall time, one cell per phase.
        let cells = services[0].phase_nanos();
        assert!(Phase::ALL.iter().all(|&phase| cells.get(phase) > 0), "{cells:?}");
        let _ = std::fs::remove_dir_all(&dir);
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
        let wal = services[victim].durability.wal().expect("durable");
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

    /// A transport whose reconnects and dead links are scripted (the
    /// in-process mesh never loses a link on its own) and which keeps what
    /// it was asked to send.
    struct Scripted {
        inner: crate::transport::InProcEndpoint,
        reconnects: Vec<ProcessId>,
        /// Peers whose link is down: sends to them are refused, as a TCP
        /// link awaiting redial refuses them.
        down: Vec<ProcessId>,
        sent: Vec<(ProcessId, Vec<u8>)>,
    }

    impl Scripted {
        fn new(inner: crate::transport::InProcEndpoint) -> Self {
            Scripted { inner, reconnects: Vec::new(), down: Vec::new(), sent: Vec::new() }
        }
    }

    impl Transport for Scripted {
        fn local_id(&self) -> ProcessId {
            self.inner.local_id()
        }
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn send(&mut self, dst: ProcessId, frame: Vec<u8>) -> Result<(), ProtocolError> {
            if self.down.contains(&dst) {
                let reason = "link down awaiting redial".to_string();
                return Err(ProtocolError::Transport { peer: Some(dst), reason });
            }
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
        let mut svc = ConsensusService::new(Scripted::new(inner));
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
            assert_eq!(to(&first, dst), svc.durability.history(dst), "history mirrors the sends, per peer");
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
            assert_eq!(to(&second[replay.len()..], dst)[..], svc.durability.history(dst)[old..], "peer {dst}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A poll whose routing met a dead link still flushes: the healthy
    /// peers get that poll's frames in the same poll.
    #[test]
    fn a_refused_send_does_not_hold_back_the_healthy_peers() {
        let n = 4;
        let mut endpoints = in_proc_mesh(n);
        let mut svc = ConsensusService::new(Scripted::new(endpoints.remove(0)));
        svc.transport_mut().down = vec![3];
        svc.add_instance(7, va_instance(0, n, &[1.0, 2.0])).unwrap();
        // The Init goes out (to 3 it is refused); peers 1 and 2 take theirs.
        let _ = svc.start();
        for ep in &mut endpoints[..2] {
            assert_eq!(ep.recv_timeout(Duration::ZERO).len(), 1, "the Init");
        }
        // The poll delivers the Init to node 0 itself, whose Echo goes to
        // every peer — refused to 3, so `route` fails.
        let _ = svc.poll(Duration::ZERO);
        for ep in &mut endpoints[..2] {
            let got = ep.recv_timeout(Duration::ZERO);
            assert!(!got.is_empty() && got.iter().all(|(from, _)| *from == 0), "the Echo");
        }
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
        let ring = Arc::new(RingRecorder::new(64));
        svc.set_obs(Obs::new(ring.clone()));
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
                rbvc_sim::bracha::BrachaMsg::Init(std::sync::Arc::new(rbvc_core::verified_avg::RoundState {
                    value: VecD::from_slice(&[1.0]),
                    witness: vec![],
                })),
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
        // The event stream tells the same story: one `gate_reject` per
        // gate, naming the gate and the sender.
        let rejects: Vec<String> = ring
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == EventKind::GateReject)
            .filter_map(|e| e.detail)
            .collect();
        let want: Vec<String> = GATE_NAMES.iter().map(|g| format!("gate={g} from=0")).collect();
        assert_eq!(rejects, want);
        assert_eq!(rejects.len() as u64, svc.gate_rejections().iter().sum::<u64>());
    }

    /// VA frames naming a broadcast no process of the run makes — an origin
    /// past `n`, a round past the last, both at the wire caps — reach a
    /// launched and an unlaunched instance through the decode hint: each is
    /// refused at the VA bounds gate, neither instance's broadcast table
    /// grows past `n · R` (the unlaunched one opens none), and both decide.
    #[test]
    fn hostile_tags_stop_at_the_va_bounds_gate() {
        use crate::wire::{MAX_PID, MAX_ROUND};
        let (n, rounds) = (4, 8);
        let ring = Arc::new(RingRecorder::new(256));
        let mut services: Vec<ConsensusService<_>> =
            in_proc_mesh(n).into_iter().map(ConsensusService::new).collect();
        services[0].set_obs(Obs::new(ring.clone()));
        for (i, svc) in services.iter_mut().enumerate() {
            for inst in [1, 2] {
                svc.add_instance(inst, va_instance(i, n, &[i as f64, inst as f64])).unwrap();
            }
            svc.start_deferred();
            svc.launch(1).unwrap();
        }
        let slots = |svc: &ConsensusService<_>, inst| match &svc.instances[&inst].proto {
            InstanceProto::Va(p) => p.broadcast_slots(),
            InstanceProto::Bvc(_) => unreachable!("VA instances only"),
        };
        assert_eq!((slots(&services[0], 1), slots(&services[0], 2)), (n * rounds, 0));
        let cap = MAX_ROUND as usize;
        let tags = [(n, 0), (0, rounds), (MAX_PID - 1, 0), (0, cap), (MAX_PID - 1, cap)];
        let value = VecD::from_slice(&[1.0, 2.0]);
        let state = Arc::new(rbvc_core::verified_avg::RoundState { value, witness: vec![] });
        for inst in [1, 2] {
            for (k, &tag) in tags.iter().enumerate() {
                let msg = [BrachaMsg::Init, BrachaMsg::Echo, BrachaMsg::Ready][k % 3](Arc::clone(&state));
                let round = u32::try_from(tag.1).unwrap();
                let payload = Payload::Va((tag, msg));
                let frame = Frame { instance: inst, sender: 3, round, payload };
                services[3].transport_mut().send(0, encode_frame(&frame)).unwrap();
            }
        }
        services[3].transport_mut().flush().unwrap();
        let _ = services[0].poll(Duration::ZERO);
        let refusals = ring
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == EventKind::GateReject)
            .filter(|e| e.detail.as_deref().is_some_and(|d| d.starts_with("gate=bounds from=3")))
            .count();
        assert_eq!(refusals, 2 * tags.len());
        assert_eq!((slots(&services[0], 1), slots(&services[0], 2)), (n * rounds, 0));
        services.iter_mut().for_each(|svc| svc.launch(2).unwrap());
        let mut spins = 0;
        while services.iter().any(|s| !s.all_decided()) {
            for svc in &mut services {
                let _ = svc.poll(Duration::ZERO);
            }
            spins += 1;
            assert!(spins < 10_000, "mesh failed to converge");
        }
        for svc in &services {
            assert_eq!(svc.gate_rejections(), [0; 4], "well-formed, authenticated, resident");
            assert!([1, 2].iter().all(|&inst| slots(svc, inst) == n * rounds));
        }
    }

    /// A client instance's broadcast table is `n · rounds` slots, and the
    /// rounds come from the owner's `Launch`: one asking for more rounds
    /// than this node's own client budget — the wire cap, say — is refused
    /// at the kind gate before any instance or table exists; one at the
    /// budget stands up with `n · rounds` slots.
    #[test]
    fn a_launch_past_the_round_budget_sizes_nothing() {
        use crate::transport::Transport as _;
        use crate::wire::MAX_ROUND;
        let n = 2;
        let mut mesh = in_proc_mesh(n);
        let mut raw = mesh.pop().unwrap(); // endpoint 1, the owner, used raw
        let mut svc = ConsensusService::new(mesh.pop().unwrap());
        let ring = Arc::new(RingRecorder::new(16));
        svc.set_obs(Obs::new(ring.clone()));
        let budget = ClientConfig::default().rounds;
        svc.enable_client(ClientConfig::default());
        svc.start_deferred();
        // Session 1 and the instance ids below are node 1's.
        let launch = |seq: u64, rounds: u32| Frame {
            instance: CLIENT_INSTANCE_BASE | (1 << 24) | seq,
            sender: 1,
            round: 0,
            payload: Payload::Launch(ClientLaunch {
                session: 1,
                reqno: seq,
                f: 0,
                rounds,
                value: VecD::from_slice(&[1.0, 2.0]),
            }),
        };
        let (hostile, honest) = (launch(0, MAX_ROUND), launch(1, budget as u32));
        raw.send(0, encode_frame(&hostile)).unwrap();
        raw.send(0, encode_frame(&honest)).unwrap();
        raw.flush().unwrap();
        let _ = svc.poll(Duration::ZERO);
        assert_eq!(svc.gate_rejections(), [0, 0, 0, 1]);
        let refusals: Vec<String> = ring
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == EventKind::GateReject)
            .filter_map(|e| e.detail)
            .collect();
        assert_eq!(refusals, ["gate=kind from=1"]);
        assert!(!svc.instances.contains_key(&hostile.instance), "no instance, so no table");
        match &svc.instances[&honest.instance].proto {
            InstanceProto::Va(p) => assert_eq!(p.broadcast_slots(), n * budget),
            InstanceProto::Bvc(_) => unreachable!("client instances are VA"),
        }
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
        assert_eq!(svc.durability.wal().expect("durable").records(), report.records.len() as u64);
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
    /// clear the stall when the sender wakes up, and show both on
    /// `/metrics` while they happen.
    #[test]
    fn live_stall_is_detected_blamed_cleared_and_visible_on_metrics() {
        let n = 3;
        // One sample of the global `/metrics` page. Other tests share the
        // registry, so the blame counter is read as a delta.
        let sample = |series: &str| -> Option<u64> {
            prometheus_text(Registry::global())
                .lines()
                .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        };
        let (active, blame) =
            ("health_stall_active{node=\"0\"}", "health_stall_blame{node=\"0\",peer=\"2\"}");
        let blamed_before = sample(blame).unwrap_or(0);
        let mut services: Vec<ConsensusService<_>> = in_proc_mesh(n)
            .into_iter()
            .map(ConsensusService::new)
            .collect();
        for (i, svc) in services.iter_mut().enumerate() {
            svc.add_instance(7, bvc_instance(i, n, 0, &[i as f64])).unwrap();
            svc.enable_health(HealthConfig {
                stall: StallConfig { deadline_us: 15_000, dump_deadline_us: 10_000_000 },
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
            assert_eq!(svc.progress_rows(&[]).len(), 1, "the open instance is the one row");
            let active = svc.active_stalls();
            assert_eq!(active.len(), 1, "one stalled instance expected");
            assert_eq!(active[0].instance, 7);
            assert_eq!(active[0].waiting_on, vec![2], "blame must name the mute sender");
        }
        assert_eq!(sample(active), Some(1), "/metrics must show the stall");
        assert!(sample(blame) > Some(blamed_before), "/metrics must blame the mute sender");
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
            assert!(svc.progress_rows(&[]).is_empty(), "a decided instance costs no row");
            assert!(svc.active_stalls().is_empty(), "stall must clear once decided");
            let reports = svc.health_reports();
            assert!(reports.iter().any(|r| r.cleared_at_us.is_some()));
        }
        assert_eq!(sample(active), Some(0), "the cleared stall leaves /metrics");
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
            svc.add_instance(4, va_instance(i, n, &[i as f64, 1.0])).unwrap();
            svc.enable_health(HealthConfig::default());
            svc.start().unwrap();
            assert_eq!(svc.progress_rows(&[]).len(), 2);
        }
        let mut spins = 0;
        while services.iter().any(|s| !s.all_decided()) {
            for svc in &mut services {
                // The detector is handed the open instances and the ones
                // this poll decided — never those decided before it.
                let open = svc.undecided;
                let decided_now = svc.poll(Duration::from_millis(1));
                assert_eq!(svc.progress_rows(&decided_now).len(), open);
                assert_eq!(svc.progress_rows(&[]).len(), svc.undecided);
            }
            spins += 1;
            assert!(spins < 3000, "clean mesh failed to decide");
        }
        for svc in &services {
            assert_eq!(svc.stalls_raised(), 0, "clean run must not raise stalls");
        }
    }
}
