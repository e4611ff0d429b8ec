//! Multi-instance consensus service: many concurrent SyncBvc /
//! VerifiedAveraging instances multiplexed over one transport mesh.
//!
//! One [`ConsensusService`] per process owns one [`Transport`] endpoint and
//! any number of consensus instances, each identified by a service-wide
//! [`InstanceId`]. It is the one driver of `node`, the core that holds all
//! protocol and bookkeeping state and does no I/O, and it owns everything
//! that touches the outside: the transport, the [`Wal`], the phase clock
//! and the health part. [`ConsensusService::poll`] feeds the core every
//! received frame and one tick, then carries out what it produced: the
//! group commit, the transport flush (one batch per peer) and the
//! decisions. The other private parts are `client_table` (sessions,
//! admission, the client instance-id layout, the recovery-spec codec),
//! `health` (stall detector, flight recorder) and `phase` (the always-on
//! clock of where the node's wall time goes).
//!
//! ## Durability and crash recovery
//!
//! With a [`Wal`] attached, the core frames a record at every
//! state-changing point into its batch, and every poll ends with one group
//! commit of that batch (one `write`, one `fdatasync`) that covers the
//! poll's decisions too and runs strictly *before* the poll's transport
//! flush (WAL-before-wire) and before its [`DecisionEvent`]s are returned (a
//! decision is durable before it is surfaced). The driver is the only code
//! that writes or syncs the log, and the core has no way to flush: between
//! two polls the file is exactly as the last commit left it, so a process
//! crash loses what a power loss loses, nothing of which was on the wire.
//! [`ConsensusService::recover`] is the core's replay of the log, a commit,
//! and a rejoin: every peer gets its share of the regenerated history
//! through the same per-peer replay a peer the transport reports through
//! [`Transport::take_reconnects`] gets. Receivers deduplicate.
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
//! `{peer}` blame). Arming it with a flight directory gives the service's
//! event stream its one sink, an always-on [`rbvc_obs::FlightRecorder`]
//! that dumps its ring on a safety violation, an escalated stall, or a
//! panic.
//!
//! ## Where the time goes
//!
//! The `phase` part is a clock the driver advances at the boundaries
//! `poll` already has — one cell of cumulative nanoseconds per [`Phase`],
//! partitioning the node's wall time exactly — and the only clock the
//! service reads: the core is handed its cells. Every [`DecisionEvent`]
//! carries the difference between the cells at its launch and at its
//! surfacing ([`DecisionEvent::phases`]; its latency is their total), and
//! the same differences feed `service.decide.phase_us{phase}`,
//! `service.poll.phase_us{phase}` and `service.frame.queue_us` on
//! `/metrics` (DESIGN.md §11).

mod client_table;
mod health;
mod node;
mod phase;

use std::time::{Duration, Instant};

use rbvc_linalg::VecD;
use rbvc_obs::{Event, EventKind, Registry, StallReport};
use rbvc_sim::config::ProcessId;
use rbvc_sim::error::{ErrorLog, ProtocolError};
use rbvc_store::{ReplayReport, Wal, WalRecordRef};
pub use rbvc_core::problem::InstanceId;

pub use self::client_table::{
    client_instance_owner, ClientAdmission, ClientConfig, ClientStats, CLIENT_INSTANCE_BASE,
};
pub use self::health::HealthConfig;
pub use self::node::{InstanceProto, GATE_NAMES};
pub use self::phase::{Phase, PhaseNanos};
use self::client_table::Request;
use self::health::Health;
use self::node::{Node, Outbox};
use self::phase::PhaseClock;
use crate::transport::{AuthEvent, Transport};

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
    /// decision, on the local monotonic clock — `phases.total()`.
    pub latency: Duration,
    /// Where that time went on this node: the phase clock's cells at the
    /// surfacing minus the cells at the launch.
    pub phases: PhaseNanos,
}

/// The per-process service multiplexing consensus instances over one
/// transport endpoint.
pub struct ConsensusService<T: Transport> {
    transport: T,
    /// The core: every piece of protocol and bookkeeping state.
    node: Node,
    /// What the core's last input produced; drained after every input.
    out: Outbox,
    /// Write-ahead log; `None` runs the service non-durable.
    wal: Option<Wal>,
    /// Artificial delay added to every group-commit sync — fault injection
    /// for the health campaign's slow-fsync class. Zero in real runs.
    fsync_throttle: Duration,
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
        let node = Node::new(transport.local_id(), transport.n());
        ConsensusService {
            transport,
            node,
            out: Outbox::default(),
            wal: None,
            fsync_throttle: Duration::ZERO,
            health: None,
            clock: PhaseClock::new(),
        }
    }

    /// Attach a write-ahead log: every state-changing point from here on is
    /// logged before it takes effect. Attach before registering instances so
    /// their specs are durable; to resume from an existing log use
    /// [`ConsensusService::recover`] instead.
    pub fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
        self.node.durable = true;
    }

    /// Pre-register the `auth.*` aggregate counters so a `/metrics` scrape
    /// shows explicit zeros before the first handshake outcome, rather than
    /// absent series. The per-event drain into the flight recorder
    /// ([`EventKind::AuthEstablished`] / [`EventKind::AuthReject`]) is
    /// always on — a transport without handshakes (the in-process mesh)
    /// simply never produces any.
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
                    self.node.obs.emit(|| {
                        Event::new(EventKind::AuthEstablished)
                            .peer(u32::try_from(peer).unwrap_or(u32::MAX))
                            .detail(format!("epoch={epoch}"))
                    });
                }
                AuthEvent::Rejected { peer, reason } => {
                    self.node.obs.emit(|| {
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

    /// Per-sender rejection counts, `[sender][gate]` with gates in
    /// [`GATE_NAMES`] order. The sender is the transport-authenticated link
    /// peer for the decode and auth gates and the (by then link-verified)
    /// frame sender for the instance and kind gates.
    #[must_use]
    pub fn gate_rejections_by_sender(&self) -> &[[u64; 4]] {
        &self.node.gate_rejections_by_sender
    }

    /// Register one instance under `id`.
    ///
    /// # Errors
    /// [`ProtocolError::InvalidSpec`] if `id` is already taken or the
    /// service already started.
    pub fn add_instance(&mut self, id: InstanceId, proto: InstanceProto) -> Result<(), ProtocolError> {
        self.node.add_instance(id, proto)
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
        self.node.add_instance(id, proto)?;
        self.node.append(WalRecordRef::Registered { instance: id, spec: &spec });
        Ok(())
    }

    /// Kick off every registered instance not yet launched (their
    /// `on_start` sends), flushed as one batch per peer.
    ///
    /// # Errors
    /// Propagates transport-level send/flush failures (also recorded).
    pub fn start(&mut self) -> Result<(), ProtocolError> {
        self.node.started = true;
        // The first failure is returned; every launch, send and the flush run.
        let mut result = Ok(());
        let ids: Vec<InstanceId> = self.node.instances.keys().copied().collect();
        for id in ids {
            let (_, now) = self.clock.now();
            let launched = self.node.launch(id, &now, &mut self.out);
            result = result.and(launched).and(self.send_out());
        }
        result.and(self.flush())
    }

    /// Open the service for traffic *without* launching any instance:
    /// registered instances buffer inbound frames (a peer may legitimately
    /// start first) but send nothing and cannot decide until
    /// [`ConsensusService::launch`] releases them individually. This is the
    /// closed-loop submission mode: keeping a bounded window of launched
    /// instances in flight yields meaningful per-instance submit→decide
    /// latencies instead of every instance marching in lockstep.
    pub fn start_deferred(&mut self) {
        self.node.started = true;
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
        if !self.node.started {
            return Err(ProtocolError::InvalidSpec {
                reason: "launch() requires start() or start_deferred() first".into(),
            });
        }
        if self.node.instances.get(&id).is_some_and(|slot| slot.launched.is_some()) {
            return Err(ProtocolError::InvalidSpec {
                reason: format!("instance {id} already launched"),
            });
        }
        let (_, now) = self.clock.now();
        self.node.launch(id, &now, &mut self.out)?;
        self.send_out()
    }

    /// Push everything queued on the transport out now (a poll does this
    /// anyway; use after a launch burst outside the poll loop).
    ///
    /// # Errors
    /// Propagates transport-level flush failures.
    pub fn flush(&mut self) -> Result<(), ProtocolError> {
        self.commit();
        let flushed = self.transport.flush();
        self.clock.enter(Phase::Outside);
        flushed
    }

    /// Queue the outbox's frames on the transport, in order; failures are
    /// recorded and the remaining frames still go out.
    fn send_out(&mut self) -> Result<(), ProtocolError> {
        let mut result = Ok(());
        for (dst, bytes) in self.out.frames.drain(..) {
            result = result.and(self.transport.send(dst, bytes));
        }
        result
    }

    /// Group commit: hand the core's batch to the log and write and fsync
    /// it, as the `write` and `fsync` phases, leaving the clock in `flush` —
    /// the transport flush is what a commit is followed by. Failures degrade
    /// into the error log.
    fn commit(&mut self) {
        if self.wal.is_none() && self.fsync_throttle.is_zero() {
            self.clock.enter(Phase::Flush);
            return;
        }
        self.clock.enter(Phase::Write);
        let written = self.wal.as_mut().map_or(Ok(()), |wal| {
            wal.absorb(&mut self.node.records);
            wal.write_batch()
        });
        self.clock.enter(Phase::Fsync);
        // Fault injection: a throttled "device" is slow whether or not a WAL
        // is attached — the `fsync` cell includes the sleep, which is what
        // the stall detector's fsync classifier reads.
        if !self.fsync_throttle.is_zero() {
            std::thread::sleep(self.fsync_throttle);
        }
        let synced = written.and_then(|()| self.wal.as_mut().map_or(Ok(()), Wal::sync));
        if let Err(e) = synced {
            self.node.errors.record(ProtocolError::Transport {
                peer: None,
                reason: format!("wal sync failed: {e}"),
            });
        }
        self.clock.enter(Phase::Flush);
    }

    /// Queue everything ever sent to `peer` again, in send order: whatever
    /// fell into a gap is covered, and receivers deduplicate.
    fn rejoin(&mut self, peer: ProcessId) {
        for bytes in self.node.history(peer) {
            let _ = self.transport.send(peer, bytes.clone());
        }
    }

    /// One service step: receive (waiting up to `timeout` for the first
    /// frame), feed every frame and one tick to the core, queue what it
    /// produced, commit, flush as one batch per peer, then surface the
    /// decisions. Returns the decisions newly reached during this poll. Each
    /// `clock.enter` below is a phase boundary; there is none per frame.
    pub fn poll(&mut self, timeout: Duration) -> Vec<DecisionEvent> {
        self.clock.enter(Phase::Wait);
        // A peer whose outbound link was re-established (it restarted, or
        // the link died and was redialed) gets the full outbound history.
        for peer in self.transport.take_reconnects() {
            self.clock.enter(Phase::Route);
            self.rejoin(peer);
            self.clock.enter(Phase::Wait);
        }
        let inbound = self.transport.recv_timeout_stamped(timeout);
        self.clock.enter(Phase::Dispatch);
        let now = self.clock.cells();
        self.drain_auth_events();
        let n_rx = inbound.len();
        // The one per-frame quantity worth a series, taken once per poll:
        // how long the batch's oldest frame sat behind a busy poll loop.
        if let Some(oldest_us) = inbound.iter().map(|&(_, arrived_us, _)| arrived_us).min() {
            phase::record_queue(rbvc_obs::clock::now_us().saturating_sub(oldest_us));
        }
        for (link_peer, _, bytes) in inbound {
            self.node.on_frame(link_peer, &bytes, &now, &mut self.out);
        }
        self.node.tick(&mut self.out);
        self.clock.enter(Phase::Route);
        // The rest of this poll's records, so one sync covers them all.
        self.node.seal(&mut self.out);
        let n_tx = self.out.frames.len();
        // A refused send (a link awaiting redial) is recorded by the
        // transport and covered by the history replay once the link is back.
        let _ = self.send_out();
        // Group-commit before the wire flush: nothing reaches a peer, a
        // client or the caller unless the records that produced it are
        // durable.
        self.commit();
        // Always flush, whatever a send returned: the healthy peers get this
        // poll's frames now, and a TCP endpoint's lazy redial runs in here.
        // A failed write is already recorded by the transport; the poll loop
        // continues on the surviving links.
        let _ = self.transport.flush();
        self.clock.enter(Phase::Rest);
        let decisions = self.surface_decisions();
        // Backfill freed in-flight slots from the admission queue, after
        // the flush: the launches this queues ride the next poll's batch.
        while let Some(request) = self.node.client.next_queued() {
            self.admit(request);
        }
        // Health turn — unconditional: stalls are exactly the polls where
        // nothing else happens.
        self.health_tick(&decisions);
        self.clock.enter(Phase::Outside);
        self.clock.end_poll(n_rx > 0 || n_tx > 0 || !decisions.is_empty());
        decisions
    }

    /// Turn this poll's decisions into events, once the sync that covers
    /// their records and the transport flush are behind them: a surfaced
    /// decision must survive any crash, or a restart could surface a
    /// different one. The latency clock stops here — one reading of the
    /// phase clock for the whole poll.
    fn surface_decisions(&mut self) -> Vec<DecisionEvent> {
        if self.out.decided.is_empty() {
            return Vec::new();
        }
        let (_, cells) = self.clock.now();
        let mut events = Vec::with_capacity(self.out.decided.len());
        for (instance, value) in self.out.decided.drain(..) {
            let phases = self
                .node
                .instances
                .get(&instance)
                .and_then(|slot| slot.launched.as_deref())
                .map(|then| cells.since(then))
                .unwrap_or_default();
            let latency = Duration::from_nanos(phases.total());
            let latency_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
            phase::record_decision(latency_us, &phases);
            self.node.obs.emit(|| {
                Event::new(EventKind::Decide)
                    .instance(instance)
                    .detail(format!("latency_us={latency_us}"))
            });
            events.push(DecisionEvent { instance, process: self.node.local, value, latency, phases });
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
            if self.node.undecided == 0 {
                break;
            }
            events.extend(self.poll(poll_timeout));
        }
        events
    }

    /// True iff every registered instance has decided.
    #[must_use]
    pub fn all_decided(&self) -> bool {
        self.node.undecided == 0
    }

    /// Decision of one instance, if reached. A decision pinned by recovery
    /// wins over the replayed state machine's output: the pre-crash surfaced
    /// value is the only one this process may ever report.
    #[must_use]
    pub fn decision(&self, id: InstanceId) -> Option<VecD> {
        self.node.instances.get(&id)?.decision()
    }

    /// Enable the client front-end with `cfg`: this node will accept
    /// [`ConsensusService::client_submit`] calls (from a
    /// [`crate::client::ClientPort`] pump, typically) for the sessions it
    /// owns. The node-to-node side of client instances — `Launch` handling
    /// and the early-frame stash — is live on every node regardless; this
    /// only opens the admission API. Also pre-registers the client metrics
    /// so the live `/metrics` endpoint exports them from the first scrape.
    pub fn enable_client(&mut self, cfg: ClientConfig) {
        self.node.client.enable(cfg);
    }

    /// Arm the health subsystem: from here on every poll feeds instance
    /// progress and link health into a stall detector and — when a flight
    /// directory is configured — the service's events (gate rejections,
    /// decisions with their latency, stalls, handshake outcomes) into an
    /// always-on [`rbvc_obs::FlightRecorder`] that dumps on a violation, an
    /// escalated stall, or a panic. Zero behavior change for services that
    /// never call this.
    pub fn enable_health(&mut self, cfg: HealthConfig) {
        let node = u32::try_from(self.transport.local_id()).unwrap_or(u32::MAX);
        let (health, obs) = Health::new(node, cfg);
        self.node.obs = obs;
        self.health = Some(health);
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

    /// One health turn, run at the end of every poll: hand the health part
    /// per-instance progress as the stall detector sees it, the transport's
    /// link health and the phase clock's cumulative group-commit time.
    fn health_tick(&mut self, decided_now: &[DecisionEvent]) {
        let Some(health) = self.health.as_mut() else { return };
        let now_us = rbvc_obs::clock::now_us();
        let cells = self.clock.cells();
        let commit_us = (cells.get(Phase::Write) + cells.get(Phase::Fsync)) / 1_000;
        let progress = self.node.progress_rows(decided_now);
        let links = self.transport.link_health();
        health.tick(&self.node.obs, now_us, commit_us, &progress, &links);
    }

    /// Which process owns client session `session` (sessions are sharded
    /// `session % n`).
    #[must_use]
    pub fn session_owner(&self, session: u64) -> ProcessId {
        self.node.client.session_owner(session)
    }

    /// Snapshot of the client front-end counters.
    #[must_use]
    pub fn client_stats(&self) -> ClientStats {
        self.node.client.stats()
    }

    /// Number of registered instances (static and client-launched).
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.node.instances.len()
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
        self.node.client.take_replies()
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
        let node = &mut self.node;
        let instances = &node.instances;
        let (verdict, request) = node.client.submit(node.started, session, reqno, value, |id| {
            instances.contains_key(&id)
        });
        if let Some(request) = request {
            self.admit(request);
        }
        verdict
    }

    /// Launch one admitted client request now and queue what it sends.
    fn admit(&mut self, request: Request) {
        let (_, now) = self.clock.now();
        self.node.admit(request, &now, &mut self.out);
        let _ = self.send_out();
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
    /// different value. The node then rejoins: every process gets its share
    /// of the regenerated outbound history again — peers deduplicate, and
    /// frames lost in the crash window are covered.
    ///
    /// # Errors
    /// Propagates the first `factory` failure (an unrecoverable spec means
    /// the log does not describe a service this binary can rebuild).
    pub fn recover(
        transport: T,
        wal: Wal,
        report: &ReplayReport,
        factory: impl FnMut(InstanceId, &[u8]) -> Result<InstanceProto, ProtocolError>,
    ) -> Result<Self, ProtocolError> {
        let t0 = Instant::now();
        let mut svc = Self::new(transport);
        svc.node.replay(&report.records, &svc.clock.cells(), factory)?;
        svc.wal = Some(wal);
        svc.commit();
        svc.node.client.publish_sessions();
        for peer in 0..svc.transport.n() {
            svc.rejoin(peer);
        }
        let _ = svc.transport.flush();
        svc.clock.enter(Phase::Outside);
        let recover_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        Registry::global().histogram("service.recover_us").record(recover_us);
        Registry::global().counter("service.replay.divergences").add(svc.node.replay_divergence);
        Ok(svc)
    }

    /// Decisions replayed out of the WAL: surfaced before the crash, pinned
    /// by recovery, and excluded from future [`ConsensusService::poll`]
    /// results (their latency is reported as zero).
    #[must_use]
    pub fn recovered_decisions(&self) -> &[DecisionEvent] {
        &self.node.recovered
    }

    /// Replay anomalies counted during [`ConsensusService::recover`]: zero
    /// means the log replayed to exactly the pre-crash state.
    #[must_use]
    pub fn replay_divergences(&self) -> u64 {
        self.node.replay_divergence
    }

    /// Service-level degradation events (decode failures, spoofed senders,
    /// unknown instances, kind mismatches, failed log appends and syncs).
    #[must_use]
    pub fn errors(&self) -> &ErrorLog {
        &self.node.errors
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

impl<T: Transport> Drop for ConsensusService<T> {
    /// What the core logged since the last commit goes to the log, whose own
    /// drop writes it (no sync): a clean exit loses no record.
    fn drop(&mut self) {
        if let Some(wal) = &mut self.wal {
            wal.absorb(&mut self.node.records);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::lockstep::Lockstep;
    use crate::transport::in_proc_mesh;
    use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
    use rbvc_core::{DecisionRule, SyncBvc};
    use rbvc_linalg::Tol;
    use rbvc_obs::{FlightDump, FlightRecorder, Obs};

    pub(super) fn bvc_instance(id: ProcessId, n: usize, f: usize, input: &[f64]) -> InstanceProto {
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

    pub(super) fn va_instance(id: ProcessId, n: usize, input: &[f64]) -> InstanceProto {
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

    /// BVC and VA instances multiplexed over one in-process mesh, driven
    /// from one thread, decide alike on every node. Every decision's phases
    /// sum to its latency, and each cell shows up where its work is: `write`
    /// / `fsync` on the one node with a WAL, `kernel` for the δ* solves of
    /// the `MinDeltaPoint` instances, with kernel timing at its default
    /// (off). The event stream carries one `decide` per instance per node:
    /// the service's, with its `latency_us=` measurement.
    #[test]
    fn phases_partition_every_decision() {
        assert!(!rbvc_obs::kernel_timing_enabled());
        let n = 4;
        let dir = tmp_dir("phases");
        let inputs = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]];
        let flights: Vec<_> = (0..n).map(|i| flight(&format!("phases-{i}"))).collect();
        let mut services: Vec<ConsensusService<_>> =
            in_proc_mesh(n).into_iter().map(ConsensusService::new).collect();
        services[0].attach_wal(rbvc_store::Wal::open(dir.join("node0.wal")).unwrap().0);
        for (i, svc) in services.iter_mut().enumerate() {
            svc.node.obs = Obs::new(Arc::clone(&flights[i]));
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
        for k in 0..6u64 {
            let v0 = services[0].decision(k);
            assert!(v0.is_some() && services.iter().all(|s| s.decision(k) == v0 && s.errors().is_empty()));
        }
        let decides: usize =
            flights.iter().map(|f| f.events().iter().filter(|e| e.kind == EventKind::Decide).count()).sum();
        assert_eq!(decides, 6 * n, "instances x nodes");
        assert!(flights.iter().all(|f| f.dropped() == 0));
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

    pub(super) fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rbvc-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp dir");
        dir
    }

    /// A flight recorder that dumps into a fresh temporary directory.
    pub(super) fn flight(tag: &str) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder::new(0, tmp_dir(tag), 1 << 16, Registry::new()))
    }

    /// Recovery's facts are on `/metrics`, not in the event stream: a
    /// recovered node armed with a flight directory afterwards dumps a
    /// registry snapshot that holds the replay counters.
    #[test]
    fn a_recovered_nodes_flight_dump_carries_the_replay_counters() {
        let dir = tmp_dir("recover-flight");
        let wal_path = dir.join("node0.wal");
        let proto = || va_instance(0, 1, &[1.0, 2.0]);
        {
            let mut svc = ConsensusService::new(in_proc_mesh(1).remove(0));
            svc.attach_wal(rbvc_store::Wal::open(&wal_path).unwrap().0);
            svc.add_instance_durable(1, proto(), Vec::new()).unwrap();
            svc.start().unwrap();
            svc.run_until_decided(Duration::ZERO, 100);
            assert!(svc.all_decided());
        }
        let (wal, report) = rbvc_store::Wal::open(&wal_path).unwrap();
        let ep = in_proc_mesh(1).remove(0);
        let mut svc = ConsensusService::recover(ep, wal, &report, |_, _| Ok(proto())).expect("recover");
        assert_eq!((svc.replay_divergences(), svc.recovered_decisions().len()), (0, 1));
        svc.enable_health(HealthConfig { flight_dir: Some(dir.join("flight")), ..HealthConfig::default() });
        let path = svc.node.obs.flight().expect("armed").dump("recovered").expect("dump written");
        let dump = FlightDump::parse(&std::fs::read_to_string(path).unwrap()).expect("parses");
        assert_eq!(dump.unknown_records, 0);
        for series in ["service.replay.divergences", "wal.replay.records"] {
            assert!(dump.scalars.contains_key(series), "{series} is in the dump");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A process crash between two polls leaves the file at the last group
    /// commit — the image a power loss leaves — and recovery from that image
    /// is faithful: the victim re-launches what it lost (no peer ever saw
    /// it), peers re-send their history, and every node decides what an
    /// uninterrupted run decides.
    #[test]
    fn crash_before_the_group_commit_recovers_from_the_power_loss_image() {
        use rbvc_core::{Agreement, Monitor};
        use std::collections::BTreeMap;

        let (n, window, victim) = (4usize, 3u64, 2usize);
        let ids = 1..=6u64;
        let proto = |inst: u64, p: usize| {
            va_instance(p, n, &[inst as f64 + 0.5 * p as f64, p as f64 - 0.25 * inst as f64])
        };
        let run_out = |services: &mut Vec<ConsensusService<_>>, monitor: &mut Monitor| {
            let mut spins = 0;
            while services.iter().any(|s| !s.all_decided()) {
                for (p, svc) in services.iter_mut().enumerate() {
                    for ev in svc.poll(Duration::ZERO) {
                        monitor.observe(ev.instance, p, &ev.value);
                    }
                }
                spins += 1;
                assert!(spins < 10_000, "mesh failed to converge");
            }
        };
        let new_monitor =
            || Monitor::new(n, Agreement::Epsilon(1e-9), BTreeMap::new(), Tol::default());

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
        assert!(monitor.alerts().is_empty(), "violations: {:?}", monitor.alerts());
        let baseline: Vec<Vec<Option<VecD>>> = services
            .iter()
            .map(|s| ids.clone().map(|inst| s.decision(inst)).collect())
            .collect();

        // The durable run, closed loop, up to the victim's first refill: a
        // launch after its poll, so its records sit in the uncommitted batch.
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
                    monitor.observe(ev.instance, p, &ev.value);
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
        assert!(!services[victim].node.records.is_empty(), "the launch is logged, not committed");
        assert_eq!(wal.len(), wal.synced_len(), "the last commit wrote and synced the whole batch");
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
                monitor.observe(ev.instance, p, &ev.value);
            }
            // Whatever was not launched (or whose launch the crash took).
            for inst in ids.clone() {
                let _ = svc.launch(inst);
            }
        }
        run_out(&mut services, &mut monitor);
        assert!(monitor.alerts().is_empty(), "violations: {:?}", monitor.alerts());
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
        let mut svc = ConsensusService::new(Scripted { inner, reconnects: vec![], down: vec![], sent: vec![] });
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
            assert_eq!(to(&first, dst), svc.node.history(dst), "history mirrors the sends, per peer");
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
            assert_eq!(to(&second[replay.len()..], dst)[..], svc.node.history(dst)[old..], "peer {dst}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A poll whose routing met a dead link still flushes: the healthy
    /// peers get that poll's frames in the same poll.
    #[test]
    fn a_refused_send_does_not_hold_back_the_healthy_peers() {
        let n = 4;
        let mut endpoints = in_proc_mesh(n);
        let inner = endpoints.remove(0);
        let mut svc = ConsensusService::new(Scripted { inner, reconnects: vec![], down: vec![3], sent: vec![] });
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

    /// Non-durable: nothing is logged or remembered, but the throttled
    /// "device" is still slow and the phase clock's `fsync` cell says so —
    /// the health campaign's slow-fsync class runs without a WAL.
    #[test]
    fn without_a_wal_commit_still_reports_the_throttle() {
        let mut svc = ConsensusService::new(in_proc_mesh(2).remove(0));
        svc.add_instance(1, va_instance(0, 2, &[1.0])).unwrap();
        svc.start().unwrap();
        assert!(svc.node.history(1).is_empty() && svc.node.records.is_empty());
        svc.set_fsync_throttle(Duration::from_millis(5));
        let before = svc.phase_nanos().get(Phase::Fsync);
        svc.commit();
        assert!(svc.phase_nanos().get(Phase::Fsync) - before >= 5_000_000);
        assert!(svc.errors().is_empty());
    }
}
