//! The service's core: one process of the asynchronous model as a
//! deterministic state machine that does no I/O.
//!
//! [`Node`] owns everything that is state — the instance map, the four
//! receive gates and their counters, the client table, the per-peer
//! outbound history, witness progress, the WAL records of the current step
//! and the replay of a log. Its inputs are a frame ([`Node::on_frame`]), a
//! tick ([`Node::tick`], closed by [`Node::seal`]), a local launch
//! ([`Node::launch`]) and an admitted client request ([`Node::admit`]);
//! each writes what it produces into an [`Outbox`] the caller owns. Time
//! comes in as the phase clock's cells, records wait framed in
//! [`Node::records`] until the driver commits them, and frames leave only
//! when the driver queues the outbox on its link and flushes — so the core
//! has nothing to flush with, and a record always reaches the file before
//! the frame it describes reaches a peer.
//!
//! ## Receive-boundary policy (degrade, don't panic)
//!
//! Every inbound frame passes four gates before touching protocol state,
//! each recording a [`ProtocolError`] and discarding the frame on failure:
//!
//! 1. **decode** — malformed bytes die in [`crate::wire::decode_frame`];
//! 2. **sender authentication** — the frame's claimed sender must equal the
//!    link peer the bytes arrived from (no spoofing across links);
//! 3. **instance lookup** — frames for unknown instance ids are dropped
//!    (instances are registered before `start`);
//! 4. **kind check** — the payload variant must match the instance's
//!    protocol.
//!
//! Whatever survives is handed to state machines that run their own
//! receive-boundary validation on top. The rules a peer's `Launch` frame
//! must pass are the client table's, which names the gate to charge.
//!
//! ## Records and replay
//!
//! A durable node frames a record at every state-changing point —
//! registration (with an opaque recovery spec), launches, authenticated
//! inbound frames, outbound frames, witness-commit progress, decisions and
//! client replies. Within a step they go in the order `Inbound`…, `Sent`…,
//! `WitnessCommit`…, `Decided`…, `ClientReply`…: the order
//! [`Node::replay`] relies on when it rebuilds a node from a log, the way
//! `ConsensusService::recover` documents. Replay goes through the very
//! launch and receive paths a live step uses, gates included.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;
use std::time::Duration;

use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
use rbvc_core::SyncBvc;
use rbvc_linalg::VecD;
use rbvc_obs::{progress_token, Event, EventKind, InstanceProgress, Obs, Registry};
use rbvc_sim::asynch::AsyncProtocol;
use rbvc_sim::bracha::BrachaMsg;
use rbvc_sim::config::ProcessId;
use rbvc_sim::error::{ErrorLog, ProtocolError};
use rbvc_store::{decode_record, RecordBatch, WalRecord, WalRecordRef};

use super::client_table::{self, client_instance_owner, ClientTable, Request};
use super::{DecisionEvent, InstanceId, PhaseNanos};
use crate::lockstep::{Lockstep, RoundBatch};
use crate::wire::{decode_frame_hinted, encode_frame, ClientLaunch, Frame, Payload};

/// One consensus instance as the service runs it.
pub enum InstanceProto {
    /// A synchronous broadcast-then-decide instance under the lockstep
    /// synchronizer.
    Bvc(Lockstep<SyncBvc>),
    /// An asynchronous Verified-Averaging instance.
    Va(VerifiedAveraging),
}

/// Encoded frames with their destinations, in send order. The state-machine
/// calls below encode their sends straight into the caller's one.
type Outbound = Vec<(ProcessId, Vec<u8>)>;

/// Everything the service needs to know about *which* protocol an instance
/// runs: the state-machine calls with their wire encoding on the way out
/// and the payload-kind check on the way in.
impl InstanceProto {
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

pub(super) struct Slot {
    pub(super) proto: InstanceProto,
    /// Set when the decision is collected (or pinned by recovery).
    pub(super) decided: bool,
    /// Decision recovered from the WAL, pinned: [`Slot::decision`] returns
    /// this over whatever the replayed state machine holds, so a recovered
    /// node can never surface a value that differs from the one it already
    /// surfaced before the crash.
    pinned: Option<VecD>,
    /// The phase clock's cells when this instance's `on_start` sends went
    /// out — the submit side of the latency metric and of its split. `None`
    /// until then: un-launched instances still receive and buffer frames (so
    /// a peer may start first) but are not ticked and cannot surface a
    /// decision. Boxed: the map is built and walked far more often than a
    /// launch is read.
    pub(super) launched: Option<Box<PhaseNanos>>,
    /// The last VA witness-commit count logged for this instance (the
    /// record is change-driven, not per step).
    witness_logged: u64,
}

impl Slot {
    /// The decision this instance reports, if reached: a pinned one wins
    /// over the replayed state machine's output.
    pub(super) fn decision(&self) -> Option<VecD> {
        self.pinned.clone().or_else(|| self.proto.output())
    }
}

/// Names of the four receive gates, indexed as the columns of the service's
/// `gate_rejections_by_sender`.
pub const GATE_NAMES: [&str; 4] = ["decode", "auth", "instance", "kind"];

/// What the core's inputs produced, for the driver to carry out. The driver
/// owns it and drains it after every input.
#[derive(Default)]
pub(super) struct Outbox {
    /// Frames to queue on the link, in send order; logged as `Sent` records
    /// by the input that closes the step ([`Node::seal`], or the launch that
    /// made them).
    pub(super) frames: Outbound,
    /// Instances the step decided, with their values, each once.
    pub(super) decided: Vec<(InstanceId, VecD)>,
}

pub(super) struct Node {
    pub(super) local: ProcessId,
    pub(super) n: usize,
    pub(super) instances: BTreeMap<InstanceId, Slot>,
    pub(super) undecided: usize,
    /// The event handle: a no-op until the driver arms a flight recorder.
    pub(super) obs: Obs,
    /// Degradation events: gate rejections, failed appends and syncs.
    pub(super) errors: ErrorLog,
    pub(super) started: bool,
    /// Per-sender rejection counts, `[sender][gate]` — what lets an
    /// adversarial campaign attribute every rejection to its cause.
    pub(super) gate_rejections_by_sender: Vec<[u64; 4]>,
    /// Whether records are framed and history kept: set when a WAL is
    /// attached, and at the end of a replay.
    pub(super) durable: bool,
    /// The records of the current step, framed, awaiting the driver's commit.
    pub(super) records: RecordBatch,
    /// Full outbound frame history, `history[dst]` in send order, kept only
    /// while durable: a peer that reconnects gets its own frames again.
    history: Vec<Vec<Vec<u8>>>,
    /// Decisions replayed out of the log (surfaced before the crash).
    pub(super) recovered: Vec<DecisionEvent>,
    /// Replay anomalies: regenerated sends that failed the FIFO match against
    /// the logged ones, undecodable records, or records referencing unknown
    /// instances. Zero on a faithful recovery.
    pub(super) replay_divergence: u64,
    /// Client front-end: session table, admission bounds, reply cache.
    pub(super) client: ClientTable,
}

/// Frame `rec` into `records`; an append failure degrades — it is recorded,
/// the node keeps running on its in-memory state.
fn log(records: &mut RecordBatch, errors: &mut ErrorLog, rec: WalRecordRef<'_>) {
    if let Err(e) = records.append_record(rec) {
        errors.record(ProtocolError::Transport {
            peer: None,
            reason: format!("wal append failed: {e}"),
        });
    }
}

impl Node {
    /// Process `local` of an `n`-process mesh, with no instance, not durable.
    pub(super) fn new(local: ProcessId, n: usize) -> Self {
        Node {
            local,
            n,
            instances: BTreeMap::new(),
            undecided: 0,
            obs: Obs::default(),
            errors: ErrorLog::new(),
            started: false,
            gate_rejections_by_sender: vec![[0; 4]; n],
            durable: false,
            records: RecordBatch::default(),
            history: vec![Vec::new(); n],
            recovered: Vec::new(),
            replay_divergence: 0,
            client: ClientTable::new(local, n),
        }
    }

    /// Reject a frame at gate `gate` for `reason`; see [`Self::gate_record`].
    fn gate_reject(&mut self, gate: usize, from: ProcessId, reason: String) {
        self.gate_record(gate, from, ProtocolError::MalformedPayload { from, reason });
    }

    /// Record one rejection at gate `gate` (index into [`GATE_NAMES`]),
    /// attribute it to `from` (metrics label + per-sender table + the
    /// `from=` field of the [`EventKind::GateReject`] detail), and trace it.
    fn gate_record(&mut self, gate: usize, from: ProcessId, err: ProtocolError) {
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
    /// [`ProtocolError::InvalidSpec`] if `id` is already taken or the node
    /// already started.
    pub(super) fn add_instance(&mut self, id: InstanceId, proto: InstanceProto) -> Result<(), ProtocolError> {
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
    fn insert_slot(&mut self, id: InstanceId, proto: InstanceProto) {
        if let Entry::Vacant(entry) = self.instances.entry(id) {
            entry.insert(Slot { proto, decided: false, pinned: None, launched: None, witness_logged: 0 });
            self.undecided += 1;
        }
    }

    /// Frame one record into the step's batch, when durable.
    pub(super) fn append(&mut self, rec: WalRecordRef<'_>) {
        if self.durable {
            log(&mut self.records, &mut self.errors, rec);
        }
    }

    /// Frames about to be queued on the link, when durable: a `Sent` record
    /// each, and a copy in its destination's history.
    fn log_sent(&mut self, frames: &[(ProcessId, Vec<u8>)]) {
        if !self.durable {
            return;
        }
        for (dst, bytes) in frames {
            let dst_id = u32::try_from(*dst).unwrap_or(u32::MAX);
            log(&mut self.records, &mut self.errors, WalRecordRef::Sent { dst: dst_id, bytes });
            if let Some(sent) = self.history.get_mut(*dst) {
                sent.push(bytes.clone());
            }
        }
    }

    /// Everything ever sent to `peer`, in send order (empty when not
    /// durable).
    pub(super) fn history(&self, peer: ProcessId) -> &[Vec<u8>] {
        self.history.get(peer).map_or(&[], Vec::as_slice)
    }

    /// Launch `id` at `now`: its `Launched` record and its `on_start` frames,
    /// logged. The one launch path of a local launch, `start` and an
    /// admitted client request; an instance already launched is left as it
    /// is.
    ///
    /// # Errors
    /// [`ProtocolError::InvalidSpec`] if `id` is not registered.
    pub(super) fn launch(&mut self, id: InstanceId, now: &PhaseNanos, out: &mut Outbox) -> Result<(), ProtocolError> {
        let unknown = || ProtocolError::InvalidSpec { reason: format!("launch of unknown instance {id}") };
        if self.instances.get(&id).ok_or_else(unknown)?.launched.is_some() {
            return Ok(());
        }
        self.append(WalRecordRef::Launched { instance: id });
        let from = out.frames.len();
        self.start_instance(id, now, &mut out.frames);
        self.log_sent(&out.frames[from..]);
        Ok(())
    }

    /// Mark `id` launched at `now` and encode its `on_start` frames into
    /// `out` — what a local launch, a peer's `Launch` frame and the replay
    /// of a `Launched` record all do. False if `id` is not registered.
    fn start_instance(&mut self, id: InstanceId, now: &PhaseNanos, out: &mut Outbound) -> bool {
        let Some(slot) = self.instances.get_mut(&id) else { return false };
        slot.launched = Some(Box::new(*now));
        slot.proto.on_start(id, self.local, out);
        true
    }

    /// The receive boundary for one frame off the link from `link_peer`:
    /// decode gate, sender gate, its `Inbound` record, dispatch, with the
    /// frames it produces pushed to `out`. A peer's `Launch` stamps the
    /// instance it stands up with `now`. Live steps and replay both enter
    /// here — replay before the node is durable, so nothing is logged twice
    /// and a rejection re-occurs through the same gate counters.
    pub(super) fn on_frame(&mut self, link_peer: ProcessId, bytes: &[u8], now: &PhaseNanos, out: &mut Outbox) {
        let local = self.local;
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
        if self.durable {
            let from = u32::try_from(link_peer).unwrap_or(u32::MAX);
            log(&mut self.records, &mut self.errors, WalRecordRef::Inbound { from, bytes });
        }
        let (sender, instance) = (frame.sender, frame.instance);
        let payload = match frame.payload {
            Payload::Launch(launch) => {
                return self.dispatch_launch(instance, sender, launch, now, &mut out.frames)
            }
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
        if let Some(reason) = Self::hand_off(slot, local, frame, &mut out.frames) {
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

    /// Drive the timers (lockstep round timeouts) of every launched,
    /// undecided instance once.
    pub(super) fn tick(&mut self, out: &mut Outbox) {
        for (id, slot) in &mut self.instances {
            if !slot.decided && slot.launched.is_some() {
                slot.proto.on_tick(*id, self.local, &mut out.frames);
            }
        }
    }

    /// Close a step: the outbox's frames become `Sent` records (and history),
    /// then witness progress is logged where it changed, then the step's
    /// decisions are collected into the (drained) outbox — each instance once,
    /// with the `ClientReply` records of the client requests they answer.
    /// Un-launched instances are skipped even if their state machine already
    /// holds an output: the latency clock starts at launch. Nothing is
    /// surfaced here; the driver does that after the commit — a surfaced
    /// decision or reply must survive any crash.
    pub(super) fn seal(&mut self, out: &mut Outbox) {
        self.log_sent(&out.frames);
        let Node { instances, undecided, records, errors, durable, .. } = self;
        if *durable {
            for (id, slot) in instances.iter_mut() {
                let count = slot.proto.witness_commits();
                if slot.witness_logged != count {
                    log(records, errors, WalRecordRef::WitnessCommit { instance: *id, count });
                    slot.witness_logged = count;
                }
            }
        }
        for (id, slot) in instances.iter_mut() {
            if slot.decided || slot.launched.is_none() {
                continue;
            }
            if let Some(value) = slot.proto.output() {
                slot.decided = true;
                *undecided -= 1;
                if *durable {
                    log(records, errors, WalRecordRef::Decided { instance: *id, value: value.as_slice() });
                }
                out.decided.push((*id, value));
            }
        }
        for (instance, value) in &out.decided {
            if let Some((session, reqno)) = self.client.answered(*instance, value) {
                let value = value.as_slice();
                self.append(WalRecordRef::ClientReply { instance: *instance, session, reqno, value });
            }
        }
    }

    /// Create the instance one client request runs as — on the owner, on
    /// every peer and on replay alike: Verified Averaging with the client's
    /// vector as the local input. (Bypasses the before-`start()`
    /// registration gate static instances go through.)
    fn insert_client_slot(&mut self, id: InstanceId, f: usize, rounds: usize, value: VecD) {
        let proto = InstanceProto::Va(VerifiedAveraging::new(
            self.local,
            self.n,
            f,
            value,
            DeltaMode::MinDelta(rbvc_linalg::Norm::L2),
            rounds,
            rbvc_linalg::Tol::default(),
        ));
        self.insert_slot(id, proto);
    }

    /// Owner side of one client instance, live and on replay: stand the
    /// instance up and return its encoded `Launch` frame's fan-out, in
    /// deterministic peer order (so the replay's FIFO `Sent` match holds).
    fn open_client_instance(&mut self, id: InstanceId, launch: ClientLaunch, frame: &[u8]) -> Outbound {
        self.insert_client_slot(id, launch.f as usize, launch.rounds as usize, launch.value);
        (0..self.n).filter(|&dst| dst != self.local).map(|dst| (dst, frame.to_vec())).collect()
    }

    /// Owner side of one admitted request, launched at `now`: register it
    /// (durably, its `Launch` frame as the spec — the wire codec is the
    /// recovery codec), fan the `Launch` out to every peer *first* —
    /// per-link FIFO means each peer registers the instance before this
    /// node's protocol frames arrive — then launch locally.
    pub(super) fn admit(&mut self, (instance, launch): Request, now: &PhaseNanos, out: &mut Outbox) {
        let payload = Payload::Launch(launch.clone());
        let frame = encode_frame(&Frame { instance, sender: self.local, round: 0, payload });
        self.append(WalRecordRef::Registered { instance, spec: &frame });
        let frames = self.open_client_instance(instance, launch, &frame);
        self.log_sent(&frames);
        out.frames.extend(frames);
        let _ = self.launch(instance, now, out);
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
        now: &PhaseNanos,
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
        self.start_instance(instance, now, out);
        // Frames that beat the launch here take gate 4 and the hand-off now
        // that the instance exists.
        for frame in self.client.unpark(instance) {
            let sender = frame.sender;
            let slot = self.instances.get_mut(&instance).expect("just inserted");
            if let Some(reason) = Self::hand_off(slot, self.local, frame, out) {
                self.gate_reject(3, sender, reason);
            }
        }
    }

    /// Replay a log's record payloads into this fresh node, launches
    /// stamped `now`; see the module docs. `factory` re-creates each
    /// instance that is not a client request from its logged spec.
    /// Afterwards the node is durable, its history is the regenerated
    /// outbound frames, and the replies of client requests that decided
    /// before the crash but whose reply record was lost are cached and in
    /// [`Node::records`].
    ///
    /// # Errors
    /// The first `factory` failure.
    pub(super) fn replay(
        &mut self,
        records: &[Vec<u8>],
        now: &PhaseNanos,
        mut factory: impl FnMut(InstanceId, &[u8]) -> Result<InstanceProto, ProtocolError>,
    ) -> Result<(), ProtocolError> {
        let mut regenerated = Outbox::default();
        let mut match_cursor = 0usize;
        for raw in records {
            let Some(rec) = decode_record(raw) else {
                self.replay_divergence += 1;
                continue;
            };
            match rec {
                WalRecord::Registered { instance, spec } => {
                    // Client instances log their owner's `Launch` frame:
                    // rebuild them (and the client table's view of them)
                    // internally; everything else goes through the caller's
                    // factory.
                    if let Some(launch) = client_table::launch_spec(instance, &spec) {
                        if self.instances.contains_key(&instance) {
                            self.replay_divergence += 1;
                            continue;
                        }
                        self.client.restore(instance, &launch);
                        let frames = self.open_client_instance(instance, launch, &spec);
                        if client_instance_owner(instance) == Some(self.local) {
                            // The owner fanned the Launch out right after
                            // registering; those sends keep the FIFO `Sent`
                            // match aligned.
                            regenerated.frames.extend(frames);
                        }
                    } else {
                        let proto = factory(instance, &spec)?;
                        if self.add_instance(instance, proto).is_err() {
                            self.replay_divergence += 1;
                        }
                    }
                }
                WalRecord::Launched { instance } => {
                    self.started = true;
                    if !self.start_instance(instance, now, &mut regenerated.frames) {
                        self.replay_divergence += 1;
                    }
                }
                WalRecord::Inbound { from, bytes } => {
                    self.on_frame(from as ProcessId, &bytes, now, &mut regenerated);
                }
                WalRecord::Sent { dst, bytes } => {
                    let logged = (dst as ProcessId, bytes);
                    if regenerated.frames.get(match_cursor) == Some(&logged) {
                        match_cursor += 1;
                    } else {
                        self.replay_divergence += 1;
                    }
                }
                WalRecord::WitnessCommit { instance, count } => {
                    // Appended after the step's `Inbound` records, so the
                    // replayed instance must stand at exactly this count.
                    let Some(slot) = self.instances.get_mut(&instance) else {
                        self.replay_divergence += 1;
                        continue;
                    };
                    if slot.proto.witness_commits() != count {
                        self.replay_divergence += 1;
                    }
                    slot.witness_logged = count;
                }
                WalRecord::Decided { instance, value } => {
                    let value = VecD::from_slice(&value);
                    let Some(slot) = self.instances.get_mut(&instance) else {
                        self.replay_divergence += 1;
                        continue;
                    };
                    if !slot.decided {
                        slot.decided = true;
                        self.undecided -= 1;
                    }
                    slot.pinned = Some(value.clone());
                    self.recovered.push(DecisionEvent {
                        instance,
                        process: self.local,
                        value,
                        latency: Duration::ZERO,
                        phases: PhaseNanos::default(),
                    });
                }
                WalRecord::ClientReply { instance, session, reqno, value } => {
                    // A reply that was surfaced (or about to be) before the
                    // crash: rebuild the dedup cache so a retry of the same
                    // (session, reqno) gets the identical pre-crash bytes.
                    self.client.cache_reply(instance, session, reqno, VecD::from_slice(&value));
                }
            }
        }
        self.durable = true;
        for (dst, bytes) in regenerated.frames {
            if let Some(sent) = self.history.get_mut(dst) {
                sent.push(bytes);
            }
        }
        // Client instances that decided before the crash but whose reply
        // record didn't make it: the pinned decision is durable, so cache
        // and log the reply now — the retry path answers from here.
        for (instance, session, reqno) in self.client.in_flight() {
            let Some(value) = self.instances.get(&instance).filter(|s| s.decided).and_then(Slot::decision)
            else {
                continue;
            };
            self.append(WalRecordRef::ClientReply { instance, session, reqno, value: value.as_slice() });
            self.client.cache_reply(instance, session, reqno, value);
        }
        // A replayed state machine that now disagrees with its own pinned
        // decision is the amnesia signature — the pin wins, but flag it.
        for slot in self.instances.values() {
            if let (Some(pinned), Some(out)) = (&slot.pinned, slot.proto.output()) {
                if *pinned != out {
                    self.replay_divergence += 1;
                }
            }
        }
        Ok(())
    }

    /// Per-instance progress as the stall detector needs it: a row for
    /// every instance still open, and one for each that decided in this
    /// step — all the detector needs to clear a stall and stop tracking. An
    /// instance decided earlier costs nothing, so arming health does not
    /// grow with instances served.
    pub(super) fn progress_rows(&self, decided_now: &[DecisionEvent]) -> Vec<InstanceProgress> {
        self.instances
            .iter()
            .filter(|(id, slot)| {
                !slot.decided || decided_now.iter().any(|ev| ev.instance == **id)
            })
            .map(|(id, slot)| slot.proto.progress(*id, slot.launched.is_some(), slot.decided))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::time::Duration;

    use rbvc_core::verified_avg::{Refusals, RoundState};
    use rbvc_linalg::{Norm, Tol};
    use rbvc_store::encode_record;

    use super::*;
    use crate::service::tests::{bvc_instance, flight, va_instance};
    use crate::service::{ClientConfig, ConsensusService, CLIENT_INSTANCE_BASE};
    use crate::transport::in_proc_mesh;
    use crate::wire::{MAX_PID, MAX_ROUND};

    fn now() -> PhaseNanos {
        PhaseNanos::default()
    }

    /// Rejections per gate, summed over senders.
    fn gate_totals(node: &Node) -> [u64; 4] {
        let mut totals = [0; 4];
        for per_gate in &node.gate_rejections_by_sender {
            for (sum, count) in totals.iter_mut().zip(per_gate) {
                *sum += count;
            }
        }
        totals
    }

    /// Process `p`'s instances at n = 4: VA at f = 1 under id 1, BVC under id 2.
    fn protos(p: ProcessId, n: usize) -> Vec<(InstanceId, InstanceProto)> {
        let input = |k: f64| VecD::from_slice(&[p as f64 * k, 1.0 - k * p as f64]);
        let mode = DeltaMode::MinDelta(Norm::L2);
        let va = VerifiedAveraging::new(p, n, 1, input(1.0), mode, 6, Tol::default());
        vec![(1, InstanceProto::Va(va)), (2, bvc_instance(p, n, 1, input(2.0).as_slice()))]
    }

    /// The record payloads in a batch's framed bytes.
    fn payloads(mut bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some((head, rest)) = bytes.split_first_chunk::<8>() {
            let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
            out.push(rest[..len].to_vec());
            bytes = &rest[len..];
        }
        out
    }

    fn bits(value: Option<VecD>) -> Option<Vec<u64>> {
        value.map(|v| v.as_slice().iter().map(|x| x.to_bits()).collect())
    }

    /// What reached each node and awaits its next step, FIFO per link.
    type Queues = Vec<VecDeque<(ProcessId, Vec<u8>)>>;

    /// Drive `nodes` as one thread drives a service mesh over in-process
    /// links, with no link and no file: each node launches whatever is not
    /// launched yet, then in turn takes what reached it, ticks and seals;
    /// its frames join their destinations' `queues` and its records
    /// `logs[p]`, as the driver's flush and commit would.
    fn run_cores(nodes: &mut [Node], queues: &mut Queues, logs: &mut [Vec<u8>]) {
        let mut out = Outbox::default();
        for sweep in 0..10_000 {
            if sweep > 0 && nodes.iter().all(|node| node.undecided == 0) {
                return;
            }
            for (p, node) in nodes.iter_mut().enumerate() {
                if sweep == 0 {
                    node.started = true;
                    let ids: Vec<InstanceId> = node.instances.keys().copied().collect();
                    for id in ids {
                        node.launch(id, &now(), &mut out).unwrap();
                    }
                } else {
                    while let Some((from, bytes)) = queues[p].pop_front() {
                        node.on_frame(from, &bytes, &now(), &mut out);
                    }
                    node.tick(&mut out);
                    node.seal(&mut out);
                    out.decided.clear();
                }
                for (dst, bytes) in out.frames.drain(..) {
                    queues[dst].push_back((p, bytes));
                }
                logs[p].extend_from_slice(std::mem::take(&mut node.records).as_bytes());
            }
        }
        panic!("cores failed to converge");
    }

    /// Four cores decide a VA instance at f = 1 and a BVC instance bit for
    /// bit as four services over `in_proc_mesh` do. Every frame a core sent
    /// is a `Sent` record and in its destination's history, in order, and
    /// witness progress is logged once per change. Replaying each core's
    /// records into a fresh core — no file either — diverges nowhere,
    /// rebuilds the history, pins the same decisions and logs nothing again.
    #[test]
    fn cores_decide_as_the_service_mesh_and_replay_their_own_records() {
        let n = 4;
        let mut mesh: Vec<_> = in_proc_mesh(n).into_iter().map(ConsensusService::new).collect();
        for (p, svc) in mesh.iter_mut().enumerate() {
            protos(p, n).into_iter().for_each(|(id, proto)| svc.add_instance(id, proto).unwrap());
            svc.start().unwrap();
        }
        while mesh.iter().any(|svc| !svc.all_decided()) {
            mesh.iter_mut().for_each(|svc| drop(svc.poll(Duration::ZERO)));
        }
        let mut nodes: Vec<Node> = (0..n).map(|p| Node::new(p, n)).collect();
        for (p, node) in nodes.iter_mut().enumerate() {
            node.durable = true;
            for (id, proto) in protos(p, n) {
                node.add_instance(id, proto).unwrap();
                node.append(WalRecordRef::Registered { instance: id, spec: &[] });
            }
        }
        let mut logs = vec![Vec::new(); n];
        run_cores(&mut nodes, &mut vec![VecDeque::new(); n], &mut logs);
        for (p, node) in nodes.iter().enumerate() {
            for id in [1, 2] {
                let decided = bits(node.instances[&id].decision());
                assert!(decided.is_some() && decided == bits(mesh[p].decision(id)), "{id} on {p}");
            }
            let records: Vec<WalRecord> =
                payloads(&logs[p]).iter().map(|r| decode_record(r).expect("decodes")).collect();
            for dst in 0..n {
                let sent: Vec<Vec<u8>> = records
                    .iter()
                    .filter_map(|r| match r {
                        WalRecord::Sent { dst: d, bytes } if *d as usize == dst => Some(bytes.clone()),
                        _ => None,
                    })
                    .collect();
                assert!(!sent.is_empty() && sent == node.history(dst), "{p} to {dst}");
            }
            assert!(node.history(9).is_empty());
            let mut witness = BTreeMap::new();
            for r in &records {
                if let WalRecord::WitnessCommit { instance, count } = r {
                    assert!(*count > witness.insert(*instance, *count).unwrap_or(0), "changes only");
                }
            }
            assert_eq!(witness.keys().copied().collect::<Vec<_>>(), [1], "BVC has no witnesses");

            let mut fresh = Node::new(p, n);
            let factory = |id, _: &[u8]| Ok(protos(p, n).into_iter().find(|(k, _)| *k == id).unwrap().1);
            fresh.replay(&payloads(&logs[p]), &now(), factory).unwrap();
            assert_eq!((fresh.replay_divergence, fresh.recovered.len()), (0, 2), "node {p}");
            for id in [1, 2] {
                assert_eq!(bits(fresh.instances[&id].decision()), bits(node.instances[&id].decision()));
            }
            assert!((0..n).all(|dst| fresh.history(dst) == node.history(dst)));
            let mut out = Outbox::default();
            fresh.seal(&mut out);
            assert!(fresh.records.is_empty() && out.decided.is_empty(), "logged and decided once");
        }
    }

    /// `start` launches what is not launched yet, once: after
    /// `start_deferred`, a `launch` and two `start`s, a durable core holds
    /// one `Launched` record and one round-0 multicast per instance.
    #[test]
    fn start_launches_each_instance_once() {
        let n = 4;
        let mut svc = ConsensusService::new(in_proc_mesh(n).remove(0));
        svc.node.durable = true;
        for inst in [1, 2] {
            svc.add_instance(inst, va_instance(0, n, &[inst as f64])).unwrap();
        }
        svc.start_deferred();
        svc.launch(1).unwrap();
        svc.start().unwrap();
        svc.start().unwrap();
        let records = payloads(svc.node.records.as_bytes());
        let count = |kind: fn(&WalRecord) -> bool| records.iter().filter(|r| decode_record(r).is_some_and(|r| kind(&r))).count();
        let launched = count(|r| matches!(r, WalRecord::Launched { .. }));
        let sent = count(|r| matches!(r, WalRecord::Sent { .. }));
        assert_eq!((launched, sent), (2, 2 * n), "one Launched record and one Init to every process each");
    }

    /// Each of the four gates refuses its frame, charges the link peer that
    /// sent it, and says so in the event stream — with no link involved. A
    /// peer's `Launch` asking for more rounds than this node's own client
    /// budget (an instance's broadcast table is `n · rounds` slots) — the
    /// wire cap, say — is refused at the kind gate before any instance or
    /// table exists; one at the budget stands up with `n · rounds` slots.
    #[test]
    fn byzantine_frames_are_rejected_at_every_gate() {
        let n = 2;
        let mut node = Node::new(0, n);
        let ring = flight("gates");
        node.obs = Obs::new(ring.clone());
        node.add_instance(5, va_instance(0, n, &[0.0])).unwrap();
        let budget = ClientConfig::default().rounds;
        node.client.enable(ClientConfig::default());
        let state = Arc::new(RoundState { value: VecD::from_slice(&[1.0]), witness: vec![] });
        let init = Payload::Va(((1, 0), BrachaMsg::Init(state)));
        // Claims process 0 on the link from 1.
        let spoof = Frame { instance: 5, sender: 0, round: 0, payload: init };
        // Session 1 and the client instance ids below are node 1's.
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
        let frames = [
            vec![0xde, 0xad],
            encode_frame(&spoof),
            encode_frame(&Frame { instance: 99, sender: 1, ..spoof.clone() }),
            encode_frame(&Frame { instance: 5, sender: 1, round: 0, payload: Payload::Eig(vec![]) }),
            encode_frame(&hostile),
            encode_frame(&honest),
        ];
        let mut out = Outbox::default();
        for bytes in &frames {
            node.on_frame(1, bytes, &now(), &mut out);
        }
        assert_eq!(node.errors.total(), 5, "every gate must fire: {:?}", node.errors.errors());
        assert_eq!(node.gate_rejections_by_sender, [[0; 4], [1, 1, 1, 2]]);
        let rejects: Vec<String> = ring
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::GateReject)
            .filter_map(|e| e.detail)
            .collect();
        let want: Vec<String> = ["decode", "auth", "instance", "kind", "kind"].map(|g| format!("gate={g} from=1")).into();
        assert_eq!(rejects, want);
        assert!(!node.instances.contains_key(&hostile.instance), "no instance, so no table");
        match &node.instances[&honest.instance].proto {
            InstanceProto::Va(p) => assert_eq!(p.broadcast_slots(), n * budget),
            InstanceProto::Bvc(_) => unreachable!("client instances are VA"),
        }
    }

    /// Replay runs the live receive and launch paths: a log holding a
    /// `Launched` record and a spoofed-sender `Inbound` record (one the live
    /// sender gate would never have let into the log) replays to the gate
    /// counters the live core counted for the same frame, every regenerated
    /// send matching its `Sent` record and nothing logged again. The same
    /// log plus a `WitnessCommit` the instance never reached is a divergence.
    #[test]
    fn replay_shares_the_live_gates_and_launch_path() {
        let n = 2;
        let spoof = encode_frame(&Frame {
            instance: 5,
            sender: 1, // claimed on the link from 0
            round: 0,
            payload: Payload::Eig(vec![]),
        });
        let mut live = Node::new(1, n);
        live.durable = true;
        live.add_instance(5, va_instance(1, n, &[2.0])).unwrap();
        live.append(WalRecordRef::Registered { instance: 5, spec: &[] });
        let mut out = Outbox::default();
        live.launch(5, &now(), &mut out).unwrap();
        live.on_frame(0, &spoof, &now(), &mut out);
        assert_eq!(gate_totals(&live), [0, 1, 0, 0], "the sender gate fired live");
        let mut log = payloads(live.records.as_bytes());
        let kinds: Vec<WalRecord> = log.iter().map(|r| decode_record(r).expect("decodes")).collect();
        assert!(matches!(kinds[1], WalRecord::Launched { instance: 5 }));
        assert!(matches!(kinds[2], WalRecord::Sent { .. }));
        log.push(encode_record(&WalRecord::Inbound { from: 0, bytes: spoof }));
        let replay = |log: &[Vec<u8>]| {
            let mut node = Node::new(1, n);
            node.replay(log, &now(), |_, _| Ok(va_instance(1, n, &[2.0]))).unwrap();
            node
        };
        let node = replay(&log);
        assert_eq!(node.replay_divergence, 0);
        assert_eq!(node.gate_rejections_by_sender, live.gate_rejections_by_sender);
        assert!(node.records.is_empty(), "nothing is logged twice");
        log.push(encode_record(&WalRecord::WitnessCommit { instance: 5, count: 1 }));
        assert_eq!(replay(&log).replay_divergence, 1, "an off-by-one witness count is a divergence");
    }

    #[test]
    fn duplicate_instance_ids_and_late_registration_are_rejected() {
        let mut node = Node::new(0, 1);
        node.add_instance(1, va_instance(0, 1, &[0.0])).unwrap();
        let again = node.add_instance(1, va_instance(0, 1, &[0.0]));
        assert!(matches!(again, Err(ProtocolError::InvalidSpec { .. })));
        node.started = true;
        let late = node.add_instance(2, va_instance(0, 1, &[0.0]));
        assert!(matches!(late, Err(ProtocolError::InvalidSpec { .. })));
    }

    /// A node restarted *without* its log is amnesiac: it re-runs from a
    /// fresh state and can decide a second, different value for an instance
    /// it already decided. The service monitor must flag that as a
    /// `DuplicateDecision` and emit a structured `Violation` event.
    #[test]
    fn amnesiac_restart_redecides_and_is_flagged() {
        use rbvc_core::problem::{Agreement, AlertKind, Monitor};

        let n = 3;
        let ring = flight("amnesiac");
        let mut monitor = Monitor::new(n, Agreement::Epsilon(1e-9), BTreeMap::new(), Tol::default())
            .with_obs(Obs::new(ring.clone()));
        let decide = |inputs: [[f64; 2]; 3]| -> Vec<VecD> {
            let mut nodes: Vec<Node> = (0..n).map(|p| Node::new(p, n)).collect();
            for (p, node) in nodes.iter_mut().enumerate() {
                node.add_instance(7, va_instance(p, n, &inputs[p])).unwrap();
            }
            run_cores(&mut nodes, &mut vec![VecDeque::new(); n], &mut vec![Vec::new(); n]);
            nodes.iter().map(|node| node.instances[&7].decision().unwrap()).collect()
        };
        let first = decide([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]);
        for (p, d) in first.iter().enumerate() {
            monitor.observe(7, p, d);
        }
        assert!(monitor.alerts().is_empty(), "the first run is violation-free");
        // Node 0 "restarts" with no log: its pre-crash input and protocol
        // state are gone, so it rejoins with whatever it has now and the
        // nodes converge somewhere else.
        let second = decide([[9.0, 9.0], [4.0, 0.0], [0.0, 4.0]]);
        assert_ne!(first[0], second[0], "the amnesiac run must diverge");
        monitor.observe(7, 0, &second[0]);
        let flagged = monitor.alerts().iter().any(|a| {
            a.instance == 7 && a.kind == AlertKind::DuplicateDecision { process: 0 }
        });
        assert!(flagged, "expected a DuplicateDecision for process 0: {:?}", monitor.alerts());
        assert!(ring.events().iter().any(|e| e.kind == EventKind::Violation), "a Violation event");
        assert!(ring.dumps() >= 1, "the violation dumped the ring");
    }

    /// VA frames naming a broadcast no process of the run makes — an origin
    /// past `n`, a round past the last, both at the wire caps — reach a
    /// launched and an unlaunched instance through the decode hint: each is
    /// refused at the VA bounds gate, neither instance's broadcast table
    /// grows past `n · R` (the unlaunched one opens none), and both decide.
    #[test]
    fn hostile_tags_stop_at_the_va_bounds_gate() {
        let (n, rounds) = (4, 8);
        let mut nodes: Vec<Node> = (0..n).map(|p| Node::new(p, n)).collect();
        let (mut queues, mut out): (Queues, _) = (vec![VecDeque::new(); n], Outbox::default());
        for (p, node) in nodes.iter_mut().enumerate() {
            for inst in [1, 2] {
                node.add_instance(inst, va_instance(p, n, &[p as f64, inst as f64])).unwrap();
            }
            node.launch(1, &now(), &mut out).unwrap();
            out.frames.drain(..).for_each(|(dst, bytes)| queues[dst].push_back((p, bytes)));
        }
        let va = |node: &Node, inst| match &node.instances[&inst].proto {
            InstanceProto::Va(p) => (p.broadcast_slots(), p.refusals()),
            InstanceProto::Bvc(_) => unreachable!("VA instances only"),
        };
        let slots = |node: &Node, inst| va(node, inst).0;
        assert_eq!((slots(&nodes[0], 1), slots(&nodes[0], 2)), (n * rounds, 0));
        let cap = MAX_ROUND as usize;
        let tags = [(n, 0), (0, rounds), (MAX_PID - 1, 0), (0, cap), (MAX_PID - 1, cap)];
        let state = Arc::new(RoundState { value: VecD::from_slice(&[1.0, 2.0]), witness: vec![] });
        for inst in [1, 2] {
            for (k, &tag) in tags.iter().enumerate() {
                let msg = [BrachaMsg::Init, BrachaMsg::Echo, BrachaMsg::Ready][k % 3](Arc::clone(&state));
                let round = u32::try_from(tag.1).unwrap();
                let frame = Frame { instance: inst, sender: 3, round, payload: Payload::Va((tag, msg)) };
                nodes[0].on_frame(3, &encode_frame(&frame), &now(), &mut out);
            }
        }
        let bounds = Refusals { bounds: tags.len() as u64, ..Refusals::default() };
        assert_eq!((va(&nodes[0], 1).1, va(&nodes[0], 2).1), (bounds, bounds));
        assert_eq!((slots(&nodes[0], 1), slots(&nodes[0], 2)), (n * rounds, 0));
        assert!(out.frames.is_empty());
        run_cores(&mut nodes, &mut queues, &mut vec![Vec::new(); n]);
        for node in &nodes {
            assert_eq!(gate_totals(node), [0; 4], "well-formed, authenticated, resident");
            assert!([1, 2].iter().all(|&inst| slots(node, inst) == n * rounds));
        }
    }
}
