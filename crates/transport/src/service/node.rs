//! The service's core: one process of the asynchronous model as a
//! deterministic state machine that does no I/O.
//!
//! [`Node`] owns everything that is state — the instance map and its ready
//! set, the batch layer, the four receive gates and their counters, the
//! client table, the per-peer outbound history, witness progress, the WAL
//! records of the current step and the replay of a log. Its inputs are a frame ([`Node::on_frame`]), a
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
//! A Verified-Averaging batch frame names no one instance: it goes to the
//! batch layer (`super::batch`), which delivers each origin's batches in
//! order. Gates 3 and 4 then run per slot of a delivered batch, charged to
//! its origin — every honest node delivered that very batch — and a slot
//! for a client instance whose `Launch` has not arrived yet is parked.
//!
//! ## Seals
//!
//! [`Node::seal`] closes a step. It broadcasts everything this node's VA
//! instances produced since the last seal, launches included, as one batch.
//! It also logs the step's frames and collects its decisions: a decided
//! instance is its decision, its machine dropped (relaying is the batch
//! layer's), and traffic of its kind is dropped unseen. The walks it
//! makes, like [`Node::tick`]'s, visit the ready set only: the instances
//! that are launched and undecided.
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
//! launch and receive paths a live step uses, gates included; at a `Decided`
//! record the replayed machine must hold exactly the logged value.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;
use std::time::Duration;

use rbvc_core::va_batch::{BatchWriter, SlotView};
use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
use rbvc_core::SyncBvc;
use rbvc_linalg::VecD;
use rbvc_obs::{progress_token, Event, EventKind, InstanceProgress, Obs, Registry};
use rbvc_sim::asynch::AsyncProtocol;
use rbvc_sim::config::ProcessId;
use rbvc_sim::error::{ErrorLog, ProtocolError};
use rbvc_store::{decode_record, DstSet, RecordBatch, WalRecord};

use super::batch::Batches;
use super::client_table::{self, client_instance_owner, ClientTable, Request};
use super::outbound::Outbound;
use super::{DecisionEvent, InstanceId, PhaseNanos};
use crate::lockstep::{Lockstep, RoundBatch};
use crate::wire::{decode_frame_hinted, encode_frame, BatchMsg, ClientLaunch, Frame, Payload};

/// One consensus instance as the service runs it.
pub enum InstanceProto {
    /// A synchronous broadcast-then-decide instance under the lockstep
    /// synchronizer.
    Bvc(Lockstep<SyncBvc>),
    /// An asynchronous Verified-Averaging instance.
    Va(VerifiedAveraging),
}

/// Everything the service needs to know about *which* protocol an instance
/// runs: the state-machine calls with their wire encoding on the way out
/// and the payload-kind check on the way in.
impl InstanceProto {
    /// Start the instance: a BVC instance's frames go to `out`, a VA
    /// instance's round-0 state to the next batch.
    fn on_start(&mut self, id: InstanceId, local: ProcessId, out: &mut Outbound, batch: &mut BatchWriter) {
        match self {
            InstanceProto::Bvc(p) => Self::encode_bvc(id, local, p.on_start(), out),
            InstanceProto::Va(p) => batch.push(id, 0, p.input().as_slice().iter().copied(), std::iter::empty()),
        }
    }

    /// Hand one authenticated frame to the state machine; false when the
    /// payload kind is not this instance's protocol (receive gate 4).
    fn on_frame(&mut self, local: ProcessId, frame: Frame, out: &mut Outbound) -> bool {
        let (InstanceProto::Bvc(p), Frame { instance, sender, round, payload: Payload::Eig(msgs) }) = (self, frame)
        else {
            return false;
        };
        let sends = p.on_message(sender, RoundBatch { round: round as usize, msgs });
        Self::encode_bvc(instance, local, sends, out);
        true
    }

    fn on_tick(&mut self, id: InstanceId, local: ProcessId, out: &mut Outbound) {
        if let InstanceProto::Bvc(p) = self {
            Self::encode_bvc(id, local, p.on_tick(), out);
        }
    }

    /// The decision, once reached, without a copy.
    fn decision(&self) -> Option<&VecD> {
        match self {
            InstanceProto::Bvc(p) => p.inner().decision().map(|d| &d.value),
            InstanceProto::Va(p) => p.decision(),
        }
    }

    /// The decision, moved out of the machine it ends.
    fn into_decision(self) -> Option<VecD> {
        match self {
            InstanceProto::Bvc(p) => p.into_inner().into_output(),
            InstanceProto::Va(p) => p.into_output(),
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
    fn progress(&self, instance: InstanceId, launched: bool) -> InstanceProgress {
        let (round, progress_token, waiting_on) = match self {
            InstanceProto::Bvc(p) => {
                let round = u32::try_from(p.current_round()).unwrap_or(u32::MAX);
                let waiting_on =
                    p.waiting_on().iter().map(|&q| u32::try_from(q).unwrap_or(u32::MAX)).collect();
                (round, progress_token(round, p.senders_have(), 0), waiting_on)
            }
            InstanceProto::Va(p) => (0, progress_token(0, 0, p.witness_commits()), Vec::new()),
        };
        InstanceProgress { instance, round, launched, decided: false, progress_token, waiting_on }
    }

    fn encode_bvc(
        instance: InstanceId,
        sender: ProcessId,
        sends: Vec<(ProcessId, RoundBatch<<SyncBvc as rbvc_sim::sync::SyncProtocol>::Msg>)>,
        out: &mut Outbound,
    ) {
        // A round's message is one allocation shared by every destination and
        // its bytes do not name one: encode it once, for all of them.
        let mut last: Option<Frame> = None;
        for (dst, batch) in sends {
            let round = u32::try_from(batch.round).expect("round fits u32");
            let repeats = matches!(&last, Some(Frame { round: r, payload: Payload::Eig(msgs), .. })
                if *r == round
                    && msgs.len() == batch.msgs.len()
                    && msgs.iter().zip(&batch.msgs).all(|(a, b)| Arc::ptr_eq(a, b)));
            if !(repeats && out.also_to(dst)) {
                let frame = last.insert(Frame { instance, sender, round, payload: Payload::Eig(batch.msgs) });
                out.push([dst], encode_frame(frame));
            }
        }
    }
}

/// What a slot holds: the running machine or, once decided (collected by
/// [`Node::seal`] or replayed), the decision and whether VA reached it.
pub(super) enum Instance {
    Running(Box<InstanceProto>),
    Decided { value: VecD, va: bool },
}

pub(super) struct Slot {
    pub(super) state: Instance,
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
    /// The decision this instance reports, if reached.
    pub(super) fn decision(&self) -> Option<&VecD> {
        match &self.state {
            Instance::Running(p) => p.decision(),
            Instance::Decided { value, .. } => Some(value),
        }
    }

    /// The machine of an instance in the ready set: it runs until its
    /// decision is collected.
    fn ready(&mut self) -> &mut InstanceProto {
        let Instance::Running(p) = &mut self.state else { unreachable!("a ready instance runs") };
        p
    }

    /// From here on the running slot is its decision — `logged` on replay,
    /// else the value moved out of its machine — and the machine is dropped.
    fn decide(&mut self, logged: Option<VecD>) -> &VecD {
        let placeholder = Instance::Decided { value: VecD::new(Vec::new()), va: false };
        let Instance::Running(p) = std::mem::replace(&mut self.state, placeholder) else { unreachable!("it runs") };
        let va = matches!(*p, InstanceProto::Va(_));
        let value = logged.unwrap_or_else(|| p.into_decision().expect("the machine has decided"));
        self.state = Instance::Decided { value, va };
        let Instance::Decided { value, .. } = &self.state else { unreachable!("just decided") };
        value
    }
}

/// Names of the four receive gates, indexed as the columns of the service's
/// `gate_rejections_by_sender`.
pub const GATE_NAMES: [&str; 4] = ["decode", "auth", "instance", "kind"];

/// What the core's inputs produced, for the driver to carry out. The driver
/// owns it and drains it after every input.
#[derive(Default)]
pub(super) struct Outbox {
    /// Frames to queue on the link, each with its destinations, in send
    /// order; logged as one `Sent` record each by the input that closes the
    /// step ([`Node::seal`], or the launch that made them).
    pub(super) frames: Outbound,
    /// Instances the step decided, with their values, each once.
    pub(super) decided: Vec<(InstanceId, VecD)>,
}

pub(super) struct Node {
    pub(super) local: ProcessId,
    pub(super) n: usize,
    pub(super) instances: BTreeMap<InstanceId, Slot>,
    /// The ready set: the instances launched and not yet decided, in id
    /// order — all that a tick or a seal walks.
    live: Vec<InstanceId>,
    pub(super) undecided: usize,
    /// The FIFO reliable broadcast of VA batches, and the next batch.
    pub(super) batches: Batches,
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
    /// while durable: a peer that reconnects gets its own frames again. A
    /// frame sent to several peers is one buffer in each of their rows.
    history: Vec<Vec<Arc<[u8]>>>,
    /// Reused by every `Sent` record: its destination set's bitset.
    dst_bits: Vec<u8>,
    /// Decisions replayed out of the log (surfaced before the crash).
    pub(super) recovered: Vec<DecisionEvent>,
    /// Replay anomalies: regenerated sends that failed the FIFO match against
    /// the logged ones, undecodable records, records referencing unknown
    /// instances, or logged decisions the replayed machine does not hold.
    /// Zero on a faithful recovery.
    pub(super) replay_divergence: u64,
    /// Client front-end: session table, admission bounds, reply cache.
    pub(super) client: ClientTable,
}

/// Frame `rec` into `records`; an append failure degrades — it is recorded,
/// the node keeps running on its in-memory state.
fn log(records: &mut RecordBatch, errors: &mut ErrorLog, rec: WalRecord<'_>) {
    if let Err(e) = records.append_record(&rec) {
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
            live: Vec::new(),
            undecided: 0,
            batches: Batches::new(local, n),
            obs: Obs::default(),
            errors: ErrorLog::new(),
            started: false,
            gate_rejections_by_sender: vec![[0; 4]; n],
            durable: false,
            records: RecordBatch::default(),
            history: vec![Vec::new(); n],
            dst_bits: Vec::new(),
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
            entry.insert(Slot { state: Instance::Running(Box::new(proto)), launched: None, witness_logged: 0 });
            self.undecided += 1;
        }
    }

    /// Frame one record into the step's batch, when durable.
    pub(super) fn append(&mut self, rec: WalRecord<'_>) {
        if self.durable {
            log(&mut self.records, &mut self.errors, rec);
        }
    }

    /// The frames of `frames` from the `from`-th on, about to be queued on
    /// the link, when durable: a `Sent` record each, with its destination
    /// set, and one shared copy in its destinations' history.
    fn log_sent(&mut self, frames: &Outbound, from: usize) {
        if !self.durable {
            return;
        }
        for (dsts, bytes) in frames.iter().skip(from) {
            let ids = dsts.iter().map(|&dst| u32::try_from(dst).expect("process id fits u32"));
            let set = DstSet::collect(ids, &mut self.dst_bits).expect("a frame has a destination");
            log(&mut self.records, &mut self.errors, WalRecord::Sent { dsts: set, bytes });
            self.keep(dsts, bytes.into());
        }
    }

    /// Keep `bytes` in the history of each of `dsts`.
    fn keep(&mut self, dsts: &[ProcessId], bytes: Arc<[u8]>) {
        for &dst in dsts {
            if let Some(sent) = self.history.get_mut(dst) {
                sent.push(Arc::clone(&bytes));
            }
        }
    }

    /// Everything ever sent to `peer`, in send order (empty when not
    /// durable).
    pub(super) fn history(&self, peer: ProcessId) -> &[Arc<[u8]>] {
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
        self.append(WalRecord::Launched { instance: id });
        let from = out.frames.len();
        self.start_instance(id, now, &mut out.frames);
        self.log_sent(&out.frames, from);
        Ok(())
    }

    /// Mark `id` launched at `now`, enter it in the ready set, and start it:
    /// frames into `out`, a VA round-0 state into the next batch; the slots
    /// parked for it reach it in delivery order, each the first of its tag,
    /// then each origin whose stash cell refuses the instance is closed (a
    /// shed slot won its tag) — what a local launch, a peer's `Launch` frame
    /// and the replay of a `Launched` record all do. False if `id` is not
    /// registered.
    fn start_instance(&mut self, id: InstanceId, now: &PhaseNanos, out: &mut Outbound) -> bool {
        let Some(slot) = self.instances.get_mut(&id) else { return false };
        slot.launched = Some(Box::new(*now));
        if let Instance::Running(p) = &mut slot.state {
            p.on_start(id, self.local, out, &mut self.batches.pending);
            if let Err(at) = self.live.binary_search(&id) {
                self.live.insert(at, id);
            }
        }
        for (origin, slot) in self.client.unpark(id) {
            self.deliver_slot(origin, slot.slot(0));
        }
        if let Some(Instance::Running(p)) = self.instances.get_mut(&id).map(|slot| &mut slot.state) {
            if let InstanceProto::Va(p) = &mut **p {
                (0..self.n).filter(|&origin| self.client.refused(id, origin)).for_each(|origin| p.close_origin(origin));
            }
        }
        true
    }

    /// The receive boundary for one frame off the link from `link_peer`:
    /// decode gate, sender gate, its `Inbound` record, dispatch, with the
    /// frames it produces pushed to `out`. A peer's `Launch` stamps the
    /// instance it stands up with `now`. Live steps and replay both enter
    /// here — replay before the node is durable, so nothing is logged twice
    /// and a rejection re-occurs through the same gate counters.
    pub(super) fn on_frame(&mut self, link_peer: ProcessId, bytes: &[u8], now: &PhaseNanos, out: &mut Outbox) {
        // A batch frame is compared with the batch held under its tag before
        // it is decoded, as bytes: every echo and ready of a broadcast
        // carries them. One for a delivered tag is checked, not built.
        let batches = &self.batches;
        let frame = match decode_frame_hinted(bytes, link_peer, &|tag| batches.hint(tag)) {
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
            log(&mut self.records, &mut self.errors, WalRecord::Inbound { from, bytes });
        }
        let (sender, instance) = (frame.sender, frame.instance);
        let payload = match frame.payload {
            Payload::Launch(launch) => {
                return self.dispatch_launch(instance, sender, launch, now, &mut out.frames)
            }
            Payload::VaBatch(msg) => return self.on_batch(sender, msg, &mut out.frames),
            // Checked by the decoder, and nothing is left to do with it.
            Payload::LateBatch(_) => return,
            payload => payload,
        };
        let frame = Frame { payload, ..frame };
        let Some(slot) = self.instances.get_mut(&instance) else {
            self.gate_reject(2, sender, format!("frame for unknown instance {instance}"));
            return;
        };
        let kind_ok = match &mut slot.state {
            Instance::Running(p) => p.on_frame(self.local, frame, &mut out.frames),
            // Late traffic: a decided instance is its decision.
            Instance::Decided { va, .. } => !*va && matches!(frame.payload, Payload::Eig(_)),
        };
        if !kind_ok {
            let reason = format!("payload kind does not match the protocol of instance {instance}");
            self.gate_reject(3, sender, reason);
        }
    }

    /// One Bracha message of a batch broadcast, from `from`: the batch
    /// layer's echo or ready to `out`, then every slot of the batches it
    /// delivers in order to its instance.
    fn on_batch(&mut self, from: ProcessId, msg: BatchMsg, out: &mut Outbound) {
        let mut delivered = Vec::new();
        self.batches.on_message(from, msg, out, &mut delivered);
        for (origin, batch) in delivered {
            batch.slots().for_each(|slot| self.deliver_slot(origin, slot));
        }
    }

    /// Gates 3 and 4 for one slot of `origin`'s delivered batch, then its
    /// instance's delivery entry, which copies the state out of the batch;
    /// the states that moves the instance on to are written into the next
    /// batch. A slot for a client instance not resident yet is parked, as a
    /// batch of one, until its `Launch`, unless its stash cell refuses it;
    /// one for a decided VA instance is dropped.
    fn deliver_slot(&mut self, origin: ProcessId, slot: SlotView<'_>) {
        let instance = slot.instance;
        let va = match self.instances.get_mut(&instance).map(|s| &mut s.state) {
            Some(Instance::Running(p)) => match &mut **p {
                InstanceProto::Va(p) => Some(p),
                InstanceProto::Bvc(_) => None,
            },
            // Late traffic: a decided instance is its decision.
            Some(Instance::Decided { va: true, .. }) => return,
            Some(Instance::Decided { .. }) => None,
            None if self.client.refused(instance, origin) || self.client.park(origin, slot) => return,
            None => return self.gate_reject(2, origin, format!("batch slot for unknown instance {instance}")),
        };
        let Some(p) = va else {
            return self.gate_reject(3, origin, format!("batch slot for instance {instance}, which does not run VA"));
        };
        p.deliver_slot(origin, slot, &mut self.batches.pending);
    }

    /// Drive the timers (lockstep round timeouts) of the ready set once.
    pub(super) fn tick(&mut self, out: &mut Outbox) {
        for id in &self.live {
            let slot = self.instances.get_mut(id).expect("a ready instance is resident");
            slot.ready().on_tick(*id, self.local, &mut out.frames);
        }
    }

    /// Close a step: what the VA instances produced since the last seal
    /// leaves as this node's next batch, after the step's other frames; the
    /// outbox's frames become `Sent` records (and history); then witness
    /// progress is logged where it changed, then the step's decisions are
    /// collected into the (drained) outbox and the slots — each instance
    /// once, with the `ClientReply` records of the client requests they
    /// answer. Both walks visit the ready set only, so an un-launched
    /// instance is skipped even if its state machine already holds an
    /// output: the latency clock starts at launch. Nothing is surfaced here;
    /// the driver does that after the commit — a surfaced decision or reply
    /// must survive any crash.
    pub(super) fn seal(&mut self, out: &mut Outbox) {
        self.batches.seal(&mut out.frames);
        self.log_sent(&out.frames, 0);
        let Node { instances, live, undecided, records, errors, durable, .. } = self;
        if *durable {
            for id in live.iter() {
                let slot = instances.get_mut(id).expect("a ready instance is resident");
                let count = slot.ready().witness_commits();
                if slot.witness_logged != count {
                    log(records, errors, WalRecord::WitnessCommit { instance: *id, count });
                    slot.witness_logged = count;
                }
            }
        }
        live.retain(|id| {
            let slot = instances.get_mut(id).expect("a ready instance is resident");
            if slot.ready().decision().is_none() {
                return true;
            }
            let value = slot.decide(None);
            *undecided -= 1;
            if *durable {
                log(records, errors, WalRecord::Decided { instance: *id, value: value.as_slice().into() });
            }
            out.decided.push((*id, value.clone()));
            false
        });
        for (instance, value) in &out.decided {
            if let Some((session, reqno)) = self.client.answered(*instance, value) {
                let value = value.as_slice().into();
                self.append(WalRecord::ClientReply { instance: *instance, session, reqno, value });
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
    /// instance up and queue its encoded `Launch` frame to every peer in
    /// `out` (so the replay's FIFO `Sent` match holds).
    fn open_client_instance(&mut self, id: InstanceId, launch: ClientLaunch, frame: &[u8], out: &mut Outbound) {
        self.insert_client_slot(id, launch.f as usize, launch.rounds as usize, launch.value);
        out.push((0..self.n).filter(|&dst| dst != self.local), frame.to_vec());
    }

    /// Owner side of one admitted request, launched at `now`: register it
    /// (durably, its `Launch` frame as the spec — the wire codec is the
    /// recovery codec), fan the `Launch` out to every peer *first* —
    /// per-link FIFO means each peer registers the instance before this
    /// node's protocol frames arrive — then launch locally.
    pub(super) fn admit(&mut self, (instance, launch): Request, now: &PhaseNanos, out: &mut Outbox) {
        let payload = Payload::Launch(launch.clone());
        let frame = encode_frame(&Frame { instance, sender: self.local, round: 0, payload });
        self.append(WalRecord::Registered { instance, spec: &frame });
        let from = out.frames.len();
        self.open_client_instance(instance, launch, &frame, &mut out.frames);
        self.log_sent(&out.frames, from);
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
    }

    /// Replay a log's record payloads into this fresh node, each decoded
    /// where it lies, launches stamped `now`; see the module docs.
    /// `factory` re-creates each instance that is not a client request from
    /// its logged spec.
    /// Afterwards the node is durable, its history is the regenerated
    /// outbound frames, and the replies of client requests that decided
    /// before the crash but whose reply record was lost are cached and in
    /// [`Node::records`].
    ///
    /// # Errors
    /// The first `factory` failure.
    pub(super) fn replay<'r>(
        &mut self,
        records: impl IntoIterator<Item = &'r [u8]>,
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
                    if let Some(launch) = client_table::launch_spec(instance, spec) {
                        if self.instances.contains_key(&instance) {
                            self.replay_divergence += 1;
                            continue;
                        }
                        self.client.restore(instance, &launch);
                        if client_instance_owner(instance) == Some(self.local) {
                            // The owner fanned the Launch out right after
                            // registering; those sends keep the FIFO `Sent`
                            // match aligned.
                            self.open_client_instance(instance, launch, spec, &mut regenerated.frames);
                        } else {
                            self.insert_client_slot(instance, launch.f as usize, launch.rounds as usize, launch.value);
                        }
                    } else {
                        let proto = factory(instance, spec)?;
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
                    self.on_frame(from as ProcessId, bytes, now, &mut regenerated);
                }
                WalRecord::Sent { dsts, bytes } => {
                    // The set in ascending order, send by send; a frame's
                    // bytes are compared with the record's once.
                    let mut equal = None;
                    for dst in dsts.iter() {
                        // Nothing regenerated is left to match: the live
                        // node sealed here, so its batch went out next.
                        if match_cursor == regenerated.frames.fanout() {
                            self.batches.seal(&mut regenerated.frames);
                        }
                        match regenerated.frames.send(match_cursor) {
                            Some((d, i, b)) if d == dst as ProcessId && (equal == Some(i) || b == bytes) => {
                                equal = Some(i);
                                match_cursor += 1;
                            }
                            _ => self.replay_divergence += 1,
                        }
                    }
                    // A record is a whole frame's fan-out: one that stops
                    // short of it misses a member.
                    if !regenerated.frames.starts_frame(match_cursor) {
                        self.replay_divergence += 1;
                    }
                }
                WalRecord::WitnessCommit { instance, count } => {
                    // Appended after the step's `Inbound` records, so the
                    // replayed instance must stand at exactly this count.
                    let Some(Slot { state: Instance::Running(p), witness_logged, .. }) = self.instances.get_mut(&instance) else {
                        self.replay_divergence += 1;
                        continue;
                    };
                    if p.witness_commits() != count {
                        self.replay_divergence += 1;
                    }
                    *witness_logged = count;
                }
                WalRecord::Decided { instance, value } => {
                    let value = VecD::new(value.into_owned());
                    let Some(slot) = self.instances.get_mut(&instance) else {
                        self.replay_divergence += 1;
                        continue;
                    };
                    // The amnesia check: the replayed machine must hold
                    // exactly the logged value, which the slot keeps.
                    if slot.decision() != Some(&value) {
                        self.replay_divergence += 1;
                    }
                    if let Instance::Running(_) = slot.state {
                        self.undecided -= 1;
                        self.live.retain(|id| *id != instance);
                        slot.decide(Some(value.clone()));
                    }
                    let (latency, phases) = (Duration::ZERO, PhaseNanos::default());
                    self.recovered.push(DecisionEvent { instance, process: self.local, value, latency, phases });
                }
                WalRecord::ClientReply { instance, session, reqno, value } => {
                    // A reply that was surfaced (or about to be) before the
                    // crash: rebuild the dedup cache so a retry of the same
                    // (session, reqno) gets the identical pre-crash bytes.
                    self.client.cache_reply(instance, session, reqno, VecD::new(value.into_owned()));
                }
            }
        }
        self.durable = true;
        regenerated.frames.drain(|dsts, bytes| self.keep(dsts, bytes.into()));
        // Client instances that decided before the crash but whose reply
        // record didn't make it: the logged decision is durable, so cache
        // and log the reply now — the retry path answers from here.
        for (instance, session, reqno) in self.client.in_flight() {
            let Some(Slot { state: Instance::Decided { value, .. }, .. }) = self.instances.get(&instance) else {
                continue;
            };
            let value = value.clone();
            self.append(WalRecord::ClientReply { instance, session, reqno, value: value.as_slice().into() });
            self.client.cache_reply(instance, session, reqno, value);
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
            .filter_map(|(&instance, slot)| match &slot.state {
                Instance::Running(p) => Some(p.progress(instance, slot.launched.is_some())),
                Instance::Decided { .. } => decided_now.iter().any(|ev| ev.instance == instance).then(|| {
                    let (round, progress_token, waiting_on) = (0, 0, Vec::new());
                    InstanceProgress { instance, round, launched: true, decided: true, progress_token, waiting_on }
                }),
            })
            .collect()
    }
}

#[cfg(test)]
pub(super) mod tests {
    use std::collections::VecDeque;
    use std::time::Duration;

    use rbvc_linalg::{Norm, Tol};
    use rbvc_sim::bracha::BrachaMsg;
    use super::*;
    use crate::service::tests::{bvc_instance, flight, va_instance};
    use crate::service::{ClientConfig, ConsensusService, CLIENT_INSTANCE_BASE};
    use crate::transport::in_proc_mesh;
    use crate::wire::MAX_ROUND;

    pub(in crate::service) fn now() -> PhaseNanos {
        PhaseNanos::default()
    }

    /// The machine of VA instance `id`, while it runs.
    pub(in crate::service) fn running_va(node: &Node, id: InstanceId) -> Option<&VerifiedAveraging> {
        let Instance::Running(p) = &node.instances[&id].state else { return None };
        let InstanceProto::Va(p) = &**p else { return None };
        Some(p)
    }

    /// Rejections per gate, summed over senders.
    pub(in crate::service) fn gate_totals(node: &Node) -> [u64; 4] {
        let mut totals = [0; 4];
        for per_gate in &node.gate_rejections_by_sender {
            for (sum, count) in totals.iter_mut().zip(per_gate) {
                *sum += count;
            }
        }
        totals
    }

    /// Process `p`'s instances at n = 4: VA at f = 1 under id 1, BVC under id 2.
    pub(in crate::service) fn protos(p: ProcessId, n: usize) -> Vec<(InstanceId, InstanceProto)> {
        let input = |k: f64| VecD::from_slice(&[p as f64 * k, 1.0 - k * p as f64]);
        let mode = DeltaMode::MinDelta(Norm::L2);
        let va = VerifiedAveraging::new(p, n, 1, input(1.0), mode, 6, Tol::default());
        vec![(1, InstanceProto::Va(va)), (2, bvc_instance(p, n, 1, input(2.0).as_slice()))]
    }

    fn bits(value: Option<&VecD>) -> Option<Vec<u64>> {
        value.map(|v| v.as_slice().iter().map(|x| x.to_bits()).collect())
    }

    /// What reached each node and awaits its next step, FIFO per link.
    pub(in crate::service) type Queues = Vec<VecDeque<(ProcessId, Vec<u8>)>>;

    /// Drive `nodes` as one thread drives a service mesh over in-process
    /// links, with no link and no file, until every node has decided and
    /// nothing is in flight to one: each node launches whatever is not
    /// launched yet and seals, as `start` does, then in turn takes what
    /// reached it, ticks and seals; its frames join their destinations'
    /// `queues` and its records `logs[p]`, as the driver's flush and commit
    /// would. `inspect` sees each node before each of its seals.
    pub(in crate::service) fn run_cores(nodes: &mut [Node], queues: &mut Queues, logs: &mut [RecordBatch], mut inspect: impl FnMut(&Node)) {
        let mut out = Outbox::default();
        for sweep in 0..10_000 {
            let idle = queues[..nodes.len()].iter().all(VecDeque::is_empty);
            if sweep > 0 && idle && nodes.iter().all(|node| node.undecided == 0) {
                return;
            }
            for (p, node) in nodes.iter_mut().enumerate() {
                if sweep == 0 {
                    node.started = true;
                    let ids: Vec<InstanceId> = node.instances.keys().copied().collect();
                    for id in ids {
                        node.launch(id, &now(), &mut out).unwrap();
                    }
                    out.frames.drain_sends(|dst, bytes| queues[dst].push_back((p, bytes)));
                } else {
                    while let Some((from, bytes)) = queues[p].pop_front() {
                        node.on_frame(from, &bytes, &now(), &mut out);
                    }
                    node.tick(&mut out);
                }
                inspect(node);
                node.seal(&mut out);
                out.decided.clear();
                out.frames.drain_sends(|dst, bytes| queues[dst].push_back((p, bytes)));
                logs[p].append(&mut node.records);
            }
        }
        panic!("cores failed to converge");
    }

    /// Four cores decide a VA instance at f = 1 and a BVC instance bit for
    /// bit as four services over `in_proc_mesh` do. Every frame a core sent
    /// is a `Sent` record and in its destination's history, in order, and
    /// witness progress is logged once per change. Replaying each core's
    /// records into a fresh core — no file either — diverges nowhere,
    /// rebuilds the history, holds the same decisions and logs nothing again.
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
                node.append(WalRecord::Registered { instance: id, spec: &[] });
            }
        }
        let mut logs = vec![RecordBatch::default(); n];
        run_cores(&mut nodes, &mut vec![VecDeque::new(); n], &mut logs, |_| {});
        for (p, node) in nodes.iter().enumerate() {
            for id in [1, 2] {
                let decided = bits(node.instances[&id].decision());
                assert!(decided.is_some() && decided == bits(mesh[p].decision(id).as_ref()), "{id} on {p}");
            }
            let records: Vec<WalRecord> = logs[p].iter().map(|r| decode_record(r).expect("decodes")).collect();
            for dst in 0..n {
                let sent: Vec<&[u8]> = records
                    .iter()
                    .filter_map(|r| match r {
                        WalRecord::Sent { dsts, bytes } if dsts.iter().any(|d| d as usize == dst) => Some(*bytes),
                        _ => None,
                    })
                    .collect();
                let kept: Vec<&[u8]> = node.history(dst).iter().map(|b| &b[..]).collect();
                assert!(!sent.is_empty() && sent == kept, "{p} to {dst}");
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
            fresh.replay(logs[p].iter(), &now(), factory).unwrap();
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
    /// one `Launched` record per instance and one batch, to every process,
    /// carrying both round-0 states.
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
        let records: Vec<WalRecord> = svc.node.records.iter().map(|r| decode_record(r).expect("decodes")).collect();
        let launched = records.iter().filter(|r| matches!(r, WalRecord::Launched { .. })).count();
        let sent = records.iter().filter(|r| matches!(r, WalRecord::Sent { .. })).count();
        assert_eq!((launched, sent), (2, 1), "one Launched record each, one batch Init");
        let Some(WalRecord::Sent { dsts, bytes }) = records.last() else { panic!("the batch is the last record") };
        assert!(dsts.iter().eq(0..n as u32), "to every process");
        match crate::wire::decode_frame(bytes, 0).expect("decodes").payload {
            Payload::VaBatch((tag, BrachaMsg::Init(batch))) => {
                assert_eq!(tag, (0, 0));
                assert_eq!(batch.slots().map(|s| (s.instance, s.round)).collect::<Vec<_>>(), [(1, 0), (2, 0)]);
            }
            other => panic!("{other:?}"),
        }
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
        let mut batch = BatchWriter::default();
        batch.push(5, 0, [1.0].into_iter(), std::iter::empty());
        // Claims process 0 on the link from 1.
        let spoof = Frame::batch(0, ((1, 0), BrachaMsg::Init(Arc::new(batch.finish()))));
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
            encode_frame(&Frame { instance: 99, sender: 1, round: 0, payload: Payload::Eig(vec![]) }),
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
        let slot = node.instances.get_mut(&honest.instance).expect("stood up");
        let Instance::Running(p) = &mut slot.state else { unreachable!("not decided yet") };
        let InstanceProto::Va(p) = &mut **p else { unreachable!("client instances are VA") };
        let mut state = BatchWriter::default();
        state.push(honest.instance, 0, [1.0, 2.0].into_iter(), std::iter::empty());
        p.deliver_slot(1, state.finish().slot(0), &mut BatchWriter::default());
        assert_eq!(p.broadcast_slots(), n * budget, "sized on its first delivery");
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
        live.append(WalRecord::Registered { instance: 5, spec: &[] });
        let mut out = Outbox::default();
        live.launch(5, &now(), &mut out).unwrap();
        live.seal(&mut out);
        live.on_frame(0, &spoof, &now(), &mut out);
        assert_eq!(gate_totals(&live), [0, 1, 0, 0], "the sender gate fired live");
        let mut log = std::mem::take(&mut live.records);
        let kinds: Vec<WalRecord> = log.iter().map(|r| decode_record(r).expect("decodes")).collect();
        assert!(matches!(kinds[1], WalRecord::Launched { instance: 5 }));
        assert!(matches!(kinds[2], WalRecord::Sent { .. }));
        log.append_record(&WalRecord::Inbound { from: 0, bytes: &spoof }).unwrap();
        let replay = |log: &RecordBatch| {
            let mut node = Node::new(1, n);
            node.replay(log.iter(), &now(), |_, _| Ok(va_instance(1, n, &[2.0]))).unwrap();
            node
        };
        let node = replay(&log);
        assert_eq!(node.replay_divergence, 0);
        assert_eq!(node.gate_rejections_by_sender, live.gate_rejections_by_sender);
        assert!(node.records.is_empty(), "nothing is logged twice");
        log.append_record(&WalRecord::WitnessCommit { instance: 5, count: 1 }).unwrap();
        assert_eq!(replay(&log).replay_divergence, 1, "an off-by-one witness count is a divergence");
    }

    /// The amnesia check runs at the `Decided` record: a replayed machine
    /// that does not hold the logged value — here one with no output, as no
    /// `Inbound` record led to it — is a divergence, and the slot keeps the
    /// logged value.
    #[test]
    fn a_logged_decision_the_replay_never_reached_is_a_divergence() {
        let value = [1.0, 2.0];
        let mut log = RecordBatch::default();
        log.append_record(&WalRecord::Registered { instance: 5, spec: &[] }).unwrap();
        log.append_record(&WalRecord::Launched { instance: 5 }).unwrap();
        log.append_record(&WalRecord::Decided { instance: 5, value: value.as_slice().into() }).unwrap();
        let mut node = Node::new(0, 2);
        node.replay(log.iter(), &now(), |_, _| Ok(va_instance(0, 2, &[2.0, 0.0]))).unwrap();
        assert_eq!((node.replay_divergence, node.recovered.len(), node.undecided), (1, 1, 0));
        assert_eq!(node.instances[&5].decision(), Some(&VecD::from_slice(&value)));
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

    /// The ready set is what a poll walks: after a node of 10 000 instances
    /// has decided them all, it holds none, and a poll more leaves it so.
    #[test]
    fn decided_instances_leave_the_ready_set() {
        let mut svc = ConsensusService::new(in_proc_mesh(1).remove(0));
        for id in 0..10_000u64 {
            let input = VecD::from_slice(&[id as f64, 1.0]);
            let va = VerifiedAveraging::new(0, 1, 0, input, DeltaMode::MinDelta(Norm::L2), 1, Tol::default());
            svc.add_instance(id, InstanceProto::Va(va)).unwrap();
        }
        svc.start().unwrap();
        assert_eq!(svc.node.live.len(), 10_000);
        let mut decided = 0;
        for _ in 0..100 {
            decided += svc.poll(Duration::ZERO).len();
            if svc.all_decided() {
                break;
            }
        }
        assert_eq!(decided, 10_000);
        assert!(svc.node.live.is_empty());
        assert!(svc.poll(Duration::ZERO).is_empty() && svc.node.live.is_empty());
    }
}
