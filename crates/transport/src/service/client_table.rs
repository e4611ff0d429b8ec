//! The client table: what the service knows about client requests, and the
//! decisions only this file should know — the client instance-id layout,
//! which recovery spec is a client launch, the admission policy and the
//! rules a peer's `Launch` frame must pass.
//!
//! The table never touches the transport, the WAL or a protocol instance:
//! it hands the core verdicts and requests, the core launches and logs,
//! the driver sends. The node-to-node side — `Launch` checks and the early-slot
//! stash — is always live so every node participates in client instances
//! whether or not it fronts clients; enabling the front-end only opens the
//! admission API.

use std::collections::{BTreeMap, VecDeque};

use rbvc_core::va_batch::{SlotView, VaBatch};
use rbvc_linalg::VecD;
use rbvc_obs::Registry;
use rbvc_sim::config::ProcessId;

use super::InstanceId;
use crate::wire::{decode_frame, ClientLaunch, Frame, Payload, MAX_DIM};

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

/// The per-owner sequence number's bits in a client instance id.
const SEQ_MASK: u64 = 0xFF_FFFF;

/// Batch slots for a client instance delivered before its `Launch` are
/// parked, at most this many per (owner, origin) cell. An honest owner races
/// at most `max_inflight · rounds` slots per origin (512 at the defaults) at
/// client `f = 0` only: at `f ≥ 1` it decides and launches on without a node
/// whose `Launch` frames lag, and that node's honest cells can overflow.
pub(super) const STASH_CAP: usize = 1024;

/// One (owner, origin) cell of the stash.
#[derive(Default)]
struct Cell {
    parked: usize,
    /// One past the highest sequence number of the owner's instances the
    /// cell shed a slot of (that slot won its tag): a lower one closes the
    /// origin at its launch, and its slots are refused until then. Owners
    /// mint ids in increasing order, so this reaches no instance minted after
    /// the overflow, and none running at it.
    shed_below: u64,
}

/// Parameters of the client front-end (the consensus instances client
/// requests are run through, and the admission bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Fault tolerance each client instance is configured with. The
    /// benchmark meshes are crash-free, so `f = 0` (wait for all) gives the
    /// tightest agreement; adversarial campaigns run `f > 0`.
    pub f: usize,
    /// Bracha round budget per client instance. Also the most rounds a
    /// peer's `Launch` may ask of this node (an instance's broadcast table
    /// is `n · rounds` slots), so every node of a mesh sets the same value.
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

/// Outcome of the service's `client_submit` — what the client port sends
/// back (or doesn't) for one `Submit`.
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
    /// Early client-instance batch slots dropped because the stash was full.
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

/// One request the owner is to run: the minted instance id and the launch
/// parameters every node stands the instance up with.
pub(super) type Request = (InstanceId, ClientLaunch);

pub(super) struct ClientTable {
    /// This node and the mesh size (sessions are sharded `session % n`).
    local: ProcessId,
    n: usize,
    enabled: bool,
    cfg: ClientConfig,
    sessions: BTreeMap<u64, SessionRow>,
    /// In-flight client instances this node owns: instance → (session, reqno).
    in_flight: BTreeMap<InstanceId, (u64, u64)>,
    /// Bounded admission queue of (session, reqno, value).
    queue: VecDeque<(u64, u64, VecD)>,
    /// Next per-owner sequence number for minting instance ids.
    next_seq: u64,
    /// Client-instance batch slots delivered before their `Launch`, each a
    /// batch of one, with their origin, per instance in delivery order.
    stash: BTreeMap<InstanceId, Vec<(ProcessId, VaBatch)>>,
    /// The stash's bound and refusal per (owner, origin), indexed
    /// `owner · n + origin`: none until the first slot is parked (set-up
    /// pays nothing for it), then `n²`.
    cells: Vec<Cell>,
    /// Replies ready for the client port: (session, reqno, decision).
    replies_out: Vec<(u64, u64, VecD)>,
    /// The counters; the three sizes are filled in by [`Self::stats`].
    counters: ClientStats,
}

impl ClientTable {
    pub(super) fn new(local: ProcessId, n: usize) -> Self {
        ClientTable {
            local,
            n,
            enabled: false,
            cfg: ClientConfig::default(),
            sessions: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            queue: VecDeque::new(),
            next_seq: 0,
            stash: BTreeMap::new(),
            cells: Vec::new(),
            replies_out: Vec::new(),
            counters: ClientStats::default(),
        }
    }

    /// Open the admission API with `cfg`, and pre-register the client
    /// metrics so the live `/metrics` endpoint exports them from the first
    /// scrape.
    pub(super) fn enable(&mut self, cfg: ClientConfig) {
        self.enabled = true;
        self.cfg = cfg;
        self.publish_sessions();
        let reg = Registry::global();
        reg.counter("client.dedup_hits").add(self.counters.dedup_hits);
        reg.counter("client.redirects").add(self.counters.redirects);
        reg.counter("service.client.shed").add(0);
    }

    /// Set the `client.sessions` gauge to the table's size.
    pub(super) fn publish_sessions(&self) {
        Registry::global().gauge("client.sessions").set(self.sessions.len() as i64);
    }

    pub(super) fn stats(&self) -> ClientStats {
        ClientStats {
            sessions: self.sessions.len() as u64,
            pending: self.in_flight.len() as u64,
            queued: self.queue.len() as u64,
            ..self.counters
        }
    }

    /// Which process owns client session `session`.
    pub(super) fn session_owner(&self, session: u64) -> ProcessId {
        usize::try_from(session % self.n as u64).expect("owner fits usize")
    }

    /// The admission verdict for one `(session, reqno, value)` — the
    /// VR-style boundary that makes retries idempotent — and, when the
    /// verdict is `Admitted`, the request the core must launch (already
    /// counted in flight). `started` is whether the service takes traffic;
    /// `resident` whether the core still holds an instance under an id.
    pub(super) fn submit(
        &mut self,
        started: bool,
        session: u64,
        reqno: u64,
        value: VecD,
        resident: impl Fn(InstanceId) -> bool,
    ) -> (ClientAdmission, Option<Request>) {
        if !self.enabled || !started {
            self.counters.rejected += 1;
            return (ClientAdmission::Rejected, None);
        }
        let owner = self.session_owner(session);
        if owner != self.local {
            self.counters.redirects += 1;
            Registry::global().counter("client.redirects").inc();
            return (ClientAdmission::Redirect(owner), None);
        }
        if value.dim() == 0
            || value.dim() > MAX_DIM
            || value.as_slice().iter().any(|x| !x.is_finite())
        {
            self.counters.rejected += 1;
            Registry::global().counter("service.client.reject").inc();
            return (ClientAdmission::Rejected, None);
        }
        // Look the row up without creating it: only an admitted request may
        // grow the table.
        if let Some(row) = self.sessions.get(&session) {
            if let Some((cached_reqno, decision)) = &row.last_reply {
                if *cached_reqno == reqno {
                    let decision = decision.clone();
                    self.counters.dedup_hits += 1;
                    Registry::global().counter("client.dedup_hits").inc();
                    return (ClientAdmission::Reply { reqno, decision }, None);
                }
            }
            if row.last_reqno.is_some_and(|last| reqno <= last) {
                return (ClientAdmission::Stale, None);
            }
        }
        // A shed request leaves the table untouched so its retry is
        // re-considered (not stale-dropped) once load drains.
        let can_admit = self.in_flight.len() < self.cfg.max_inflight;
        let can_queue = self.queue.len() < self.cfg.queue_cap;
        // The sequence number is 24 bits of the id and instances are never
        // removed: the id this request would run under — whatever is queued
        // mints first — may belong to a resident instance. Shed it rather
        // than let the launch overwrite that one's slot.
        let wrapped = resident(self.instance_id(self.next_seq + self.queue.len() as u64));
        if wrapped || (!can_admit && !can_queue) {
            self.counters.shed += 1;
            Registry::global().counter("service.client.shed").inc();
            return (ClientAdmission::Busy, None);
        }
        self.sessions.entry(session).or_default().last_reqno = Some(reqno);
        self.publish_sessions();
        if can_admit {
            (ClientAdmission::Admitted, Some(self.mint(session, reqno, value)))
        } else {
            self.queue.push_back((session, reqno, value));
            (ClientAdmission::Queued, None)
        }
    }

    /// The oldest queued request, if an in-flight slot is free for it.
    pub(super) fn next_queued(&mut self) -> Option<Request> {
        if self.in_flight.len() >= self.cfg.max_inflight {
            return None;
        }
        let (session, reqno, value) = self.queue.pop_front()?;
        Some(self.mint(session, reqno, value))
    }

    /// The instance id this owner mints for sequence number `seq`.
    fn instance_id(&self, seq: u64) -> InstanceId {
        CLIENT_INSTANCE_BASE | ((self.local as u64) << 24) | (seq & SEQ_MASK)
    }

    /// Mint the instance id for one admitted request and put it in flight.
    fn mint(&mut self, session: u64, reqno: u64, value: VecD) -> Request {
        let instance = self.instance_id(self.next_seq);
        self.next_seq += 1;
        self.in_flight.insert(instance, (session, reqno));
        self.counters.admitted += 1;
        let launch = ClientLaunch {
            session,
            reqno,
            f: u32::try_from(self.cfg.f).unwrap_or(u32::MAX),
            rounds: u32::try_from(self.cfg.rounds).unwrap_or(u32::MAX),
            value,
        };
        (instance, launch)
    }

    /// Recovery met the registration of one of this owner's requests: put
    /// it back in flight, with the session row and the sequence counter as
    /// [`Self::submit`] and [`Self::mint`] had left them.
    pub(super) fn restore(&mut self, instance: InstanceId, launch: &ClientLaunch) {
        self.sessions.entry(launch.session).or_default().saw(launch.reqno);
        self.next_seq = self.next_seq.max((instance & SEQ_MASK) + 1);
        self.in_flight.insert(instance, (launch.session, launch.reqno));
    }

    /// `instance` decided `value`: if it is one of this owner's requests,
    /// cache the reply, queue it for the client port and return the
    /// `(session, reqno)` it answers.
    pub(super) fn answered(&mut self, instance: InstanceId, value: &VecD) -> Option<(u64, u64)> {
        let &(session, reqno) = self.in_flight.get(&instance)?;
        self.cache_reply(instance, session, reqno, value.clone());
        self.replies_out.push((session, reqno, value.clone()));
        Some((session, reqno))
    }

    /// The request behind client instance `instance` is answered: take it
    /// out of flight and make `value` the session's cached reply.
    pub(super) fn cache_reply(&mut self, instance: InstanceId, session: u64, reqno: u64, value: VecD) {
        self.in_flight.remove(&instance);
        let row = self.sessions.entry(session).or_default();
        row.last_reply = Some((reqno, value));
        row.saw(reqno);
    }

    /// The requests in flight, as `(instance, session, reqno)`.
    pub(super) fn in_flight(&self) -> Vec<(InstanceId, u64, u64)> {
        self.in_flight.iter().map(|(id, &(session, reqno))| (*id, session, reqno)).collect()
    }

    /// Take the replies that became ready since the last call.
    pub(super) fn take_replies(&mut self) -> Vec<(u64, u64, VecD)> {
        std::mem::take(&mut self.replies_out)
    }

    /// The cell of `origin`'s slots for `instance`, if that is a client
    /// instance whose owner is a process of this run.
    fn cell(&self, instance: InstanceId, origin: ProcessId) -> Option<usize> {
        let owner = client_instance_owner(instance).filter(|&owner| owner < self.n)?;
        Some(owner * self.n + origin)
    }

    /// A slot of `origin`'s batch for a client instance may legitimately be
    /// delivered before the instance's `Launch` arrives (different links
    /// race): park it as a batch of one, bounded per (owner, origin) cell;
    /// a slot a full cell sheds raises the cell's refusal to its instance.
    /// False, with nothing parked, when no `Launch` can ever stand the
    /// instance up: it is not a client instance of an owner in this run.
    pub(super) fn park(&mut self, origin: ProcessId, slot: SlotView<'_>) -> bool {
        let Some(k) = self.cell(slot.instance, origin) else { return false };
        if self.cells.is_empty() {
            self.cells.resize_with(self.n * self.n, Cell::default);
        }
        let cell = &mut self.cells[k];
        if cell.parked < STASH_CAP {
            cell.parked += 1;
            self.stash.entry(slot.instance).or_default().push((origin, slot.to_batch()));
        } else {
            cell.shed_below = cell.shed_below.max((slot.instance & SEQ_MASK) + 1);
            self.counters.stash_shed += 1;
            Registry::global().counter("service.client.stash_shed").inc();
        }
        true
    }

    /// Whether `origin`'s slots for `instance` are refused until its launch
    /// and its tags closed at the launch: its cell shed a slot of an
    /// instance the owner minted no earlier.
    pub(super) fn refused(&self, instance: InstanceId, origin: ProcessId) -> bool {
        let cell = self.cell(instance, origin).and_then(|k| self.cells.get(k));
        cell.is_some_and(|cell| instance & SEQ_MASK < cell.shed_below)
    }

    /// Take the slots parked for `instance`, in delivery order; everything
    /// else stays parked.
    pub(super) fn unpark(&mut self, instance: InstanceId) -> Vec<(ProcessId, VaBatch)> {
        let matched = self.stash.remove(&instance).unwrap_or_default();
        for &(origin, _) in &matched {
            let k = self.cell(instance, origin).expect("a parked slot has its cell");
            self.cells[k].parked -= 1;
        }
        matched
    }

    /// Why a peer's `Launch` frame must be refused, as the receive gate to
    /// charge (an index into `GATE_NAMES`) and the reason to record; `None`
    /// for a launch to stand up. The frame is authenticated against the
    /// owner encoded in the instance id and against the session's owner.
    pub(super) fn launch_refusal(
        &self,
        instance: InstanceId,
        sender: ProcessId,
        launch: &ClientLaunch,
    ) -> Option<(usize, String)> {
        let Some(owner) = client_instance_owner(instance) else {
            return Some((3, format!("launch for non-client instance {instance}")));
        };
        if owner != sender || self.session_owner(launch.session) != sender {
            return Some((
                1,
                format!(
                    "launch of instance {instance} (owner {owner}, session {}) from non-owner {sender}",
                    launch.session
                ),
            ));
        }
        if self.n <= 3 * launch.f as usize
            || launch.rounds == 0
            || launch.rounds as usize > self.cfg.rounds
            || launch.value.as_slice().iter().any(|x| !x.is_finite())
        {
            return Some((3, format!("degenerate launch parameters for instance {instance}")));
        }
        None
    }
}

/// The client launch a `Registered` record's spec carries, if it is one:
/// the owner logs the `Launch` frame it fans out, so the wire codec is the
/// recovery codec. `None` unless `spec` decodes as a `Launch` for
/// `instance` sent by the owner its id encodes — a caller's own spec, in
/// particular, goes to the caller's factory.
pub(super) fn launch_spec(instance: InstanceId, spec: &[u8]) -> Option<ClientLaunch> {
    let owner = client_instance_owner(instance)?;
    match decode_frame(spec, owner).ok()? {
        Frame { instance: id, sender, payload: Payload::Launch(launch), .. }
            if id == instance && sender == owner =>
        {
            Some(launch)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use rbvc_sim::error::ProtocolError;

    use super::*;
    use crate::service::tests::tmp_dir;
    use crate::service::{ConsensusService, GATE_NAMES};
    use crate::transport::in_proc_mesh;
    use crate::wire::encode_frame;

    fn frame(instance: InstanceId, round: u32) -> Frame {
        Frame { instance, sender: 1, round, payload: Payload::Eig(vec![]) }
    }

    /// The batch of one slot of `instance`, round `round`.
    fn slot(instance: InstanceId, round: u32) -> VaBatch {
        let mut writer = rbvc_core::va_batch::BatchWriter::default();
        writer.push(instance, round, [1.0].into_iter(), std::iter::empty());
        writer.finish()
    }

    fn launch(session: u64) -> ClientLaunch {
        ClientLaunch { session, reqno: 1, f: 1, rounds: 8, value: VecD::from_slice(&[1.0, -2.0]) }
    }

    /// Slots parked before their `Launch` come back in delivery order, for
    /// that instance only: every other instance's stay parked, in order.
    /// The stash is bounded per (owner, origin) cell:
    /// the overflow of one cell is counted and refuses that origin's slots
    /// for the owner's instances up to the shed one, while every later
    /// instance and every other cell still parks; a slot of no client
    /// instance of this run's owners is not parked.
    #[test]
    fn parked_slots_return_in_order_per_instance_and_each_cell_is_bounded() {
        let (a, b, c) = (CLIENT_INSTANCE_BASE | 1, CLIENT_INSTANCE_BASE | 2, CLIENT_INSTANCE_BASE | 3);
        let mut table = ClientTable::new(0, 4);
        for round in 0..6 {
            assert!(table.park(3 - round as usize % 2, slot(if round % 2 == 0 { a } else { b }, round).slot(0)));
        }
        let rounds = |slots: &[(ProcessId, VaBatch)]| slots.iter().map(|(_, s)| s.head().1).collect::<Vec<_>>();
        assert_eq!(rounds(&table.unpark(a)), [0, 2, 4]);
        assert_eq!(rounds(&table.stash[&b]), [1, 3, 5], "every other instance's slots stay parked, in order");
        assert!(table.unpark(a).is_empty(), "taken once");
        for round in 6..6 + STASH_CAP as u32 {
            table.park(3, slot(a, round).slot(0));
        }
        assert_eq!(table.stats().stash_shed, 0, "exactly at the cap");
        assert!(!table.refused(b, 3));
        table.park(3, slot(b, 9_999).slot(0));
        assert_eq!(table.stats().stash_shed, 1, "the cell's 1025th slot is shed");
        assert!(table.refused(a, 3) && table.refused(b, 3), "up to the shed slot's instance");
        assert!(!table.refused(c, 3) && !table.refused(b, 2), "not a later instance, nor another cell");
        table.park(2, slot(b, 9_999).slot(0));
        assert_eq!(table.stats().stash_shed, 1, "another origin's cell parks");
        assert_eq!(rounds(&table.unpark(b)), [1, 3, 5, 9_999], "b's slots survived a's, in order");
        assert_eq!(table.unpark(a).len(), STASH_CAP, "a's launch empties the cell");
        table.park(3, slot(c, 0).slot(0));
        assert_eq!((table.stats().stash_shed, rounds(&table.unpark(c))), (1, vec![0]), "a later instance parks");
        let foreign = CLIENT_INSTANCE_BASE | (4 << 24);
        assert!(!table.park(3, slot(foreign, 0).slot(0)) && !table.park(3, slot(7, 0).slot(0)), "no owner in the run");
    }

    /// A queued request is handed out exactly when an in-flight slot
    /// frees, oldest first.
    #[test]
    fn queued_requests_backfill_fifo_as_slots_free() {
        let mut table = ClientTable::new(0, 2);
        table.enable(ClientConfig { max_inflight: 1, queue_cap: 2, ..ClientConfig::default() });
        let v = VecD::from_slice(&[0.5]);
        let (verdict, first) = table.submit(true, 2, 1, v.clone(), |_| false);
        assert_eq!(verdict, ClientAdmission::Admitted);
        let (first, _) = first.expect("an admitted request comes with its launch");
        assert_eq!(client_instance_owner(first), Some(0));
        assert_eq!(table.submit(true, 4, 1, v.clone(), |_| false), (ClientAdmission::Queued, None));
        assert_eq!(table.submit(true, 6, 1, v.clone(), |_| false), (ClientAdmission::Queued, None));
        assert_eq!(table.submit(true, 8, 1, v.clone(), |_| false), (ClientAdmission::Busy, None));
        assert_eq!(table.next_queued(), None, "the one slot is taken");

        assert_eq!(table.answered(first, &v), Some((2, 1)));
        assert_eq!(table.answered(first, &v), None, "answered once");
        let (second, launch) = table.next_queued().expect("a slot is free");
        assert_eq!((launch.session, second), (4, first + 1), "oldest first, next id");
        assert_eq!(table.next_queued(), None, "and taken again");
        assert_eq!(table.answered(second, &v), Some((4, 1)));
        assert_eq!(table.next_queued().expect("a slot is free").1.session, 6);
        assert_eq!(table.next_queued(), None, "the queue is empty");
        assert_eq!(table.take_replies(), [(2, 1, v.clone()), (4, 1, v)]);
        let stats = table.stats();
        assert_eq!((stats.admitted, stats.shed, stats.pending, stats.queued), (3, 1, 1, 0));
    }

    /// The sequence number is 24 bits of a client instance id and instances
    /// are never removed: once an owner's counter wraps, the id it would
    /// mint belongs to a resident instance. Admission sheds the request
    /// (`Busy`, counted) rather than launch over that instance's slot.
    #[test]
    fn a_wrapped_sequence_number_is_shed_not_minted_over_a_resident_instance() {
        let mut svc = ConsensusService::new(in_proc_mesh(1).remove(0));
        svc.enable_client(ClientConfig::default());
        svc.start_deferred();
        let v = VecD::from_slice(&[1.0, 2.0]);
        assert_eq!(svc.client_submit(0, 1, v.clone()), ClientAdmission::Admitted);
        let first = CLIENT_INSTANCE_BASE;
        assert!(svc.node.instances.contains_key(&first), "request 0 runs as sequence number 0");
        // Fast-forward through 2^24 admissions: recovery meeting the
        // registration of the last id before the wrap leaves the counter
        // where that many `mint`s would.
        svc.node.client.restore(first | SEQ_MASK, &launch(1));
        assert_eq!(svc.node.client.instance_id(svc.node.client.next_seq), first, "the counter wrapped");

        let (resident, undecided) = (svc.instance_count(), svc.node.undecided);
        assert_eq!(svc.client_submit(2, 1, v.clone()), ClientAdmission::Busy);
        assert_eq!(svc.client_stats().shed, 1);
        assert_eq!((svc.instance_count(), svc.node.undecided), (resident, undecided), "nothing replaced");
        assert_eq!(svc.client_stats().sessions, 2, "a shed request leaves the table untouched");
        // The resident instance is the one request 0 launched, still running.
        assert!(svc.node.instances[&first].launched.is_some());
        for _ in 0..200 {
            let _ = svc.poll(Duration::ZERO);
        }
        assert_eq!(svc.take_client_replies().len(), 1, "request 0 decides");
    }

    /// The rules a peer's `Launch` frame must pass, and the gate each
    /// refusal is charged to.
    #[test]
    fn launch_refusals_name_their_gate() {
        let n = 4;
        let table = ClientTable::new(0, n);
        // Owned by node 1, for a session node 1 owns (5 % 4).
        let id = CLIENT_INSTANCE_BASE | (1 << 24) | 3;
        let gate = |instance, sender, launch: &ClientLaunch| {
            table.launch_refusal(instance, sender, launch).map(|(gate, _)| GATE_NAMES[gate])
        };
        assert_eq!(gate(id, 1, &launch(5)), None, "well-formed");
        assert_eq!(gate(3, 1, &launch(5)), Some("kind"), "not a client instance id");
        assert_eq!(gate(id, 2, &launch(5)), Some("auth"), "sender is not the id's owner");
        assert_eq!(gate(id, 1, &launch(6)), Some("auth"), "sender does not own the session");
        assert_eq!(gate(id, 1, &ClientLaunch { f: 2, ..launch(5) }), Some("kind"), "n <= 3f");
        assert_eq!(gate(id, 1, &ClientLaunch { rounds: 0, ..launch(5) }), Some("kind"));
        let rounds = table.cfg.rounds as u32;
        assert_eq!(gate(id, 1, &ClientLaunch { rounds, ..launch(5) }), None, "this node's own budget");
        let over = ClientLaunch { rounds: rounds + 1, ..launch(5) };
        assert_eq!(gate(id, 1, &over), Some("kind"), "more rounds than this node runs");
        let nan = ClientLaunch { value: VecD::from_slice(&[f64::NAN]), ..launch(5) };
        assert_eq!(gate(id, 1, &nan), Some("kind"), "non-finite value");
    }

    /// The owner's `Launch` frame is the recovery spec and round-trips
    /// bit-exactly; nothing shorter or longer, no frame for another
    /// instance or from another sender, and no caller's own spec is one.
    #[test]
    fn the_owners_launch_frame_is_the_spec_and_nothing_else_is() {
        let (owner, id) = (2, CLIENT_INSTANCE_BASE | (2 << 24) | 7);
        let launch = ClientLaunch { reqno: u64::MAX, ..launch(9) };
        let spec_of = |instance, sender| {
            let payload = Payload::Launch(launch.clone());
            encode_frame(&Frame { instance, sender, round: 0, payload })
        };
        let spec = spec_of(id, owner);
        assert_eq!(launch_spec(id, &spec), Some(launch.clone()));
        for cut in 0..spec.len() {
            assert_eq!(launch_spec(id, &spec[..cut]), None, "cut {cut}");
        }
        let mut longer = spec.clone();
        longer.push(0);
        assert_eq!(launch_spec(id, &longer), None, "trailing byte");
        assert_eq!(launch_spec(id + 1, &spec), None, "another instance's launch");
        assert_eq!(launch_spec(id, &spec_of(id, 1)), None, "sent by a non-owner");
        assert_eq!(launch_spec(7, &spec_of(7, owner)), None, "not a client instance");
        assert_eq!(launch_spec(id, &[0u8; 40]), None, "a caller's own spec");
        let eig = encode_frame(&Frame { sender: owner, ..frame(id, 0) });
        assert_eq!(launch_spec(id, &eig), None, "not a launch");
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
}
