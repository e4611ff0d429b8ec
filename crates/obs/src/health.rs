//! Self-diagnosis: stall detection with blame attribution and per-link
//! straggler monitoring.
//!
//! Iterative BVC progress hinges on receiving `n − f` well-formed messages
//! per round, so "who has not delivered for this round" is exactly the
//! quantity a live node can watch. The pieces here are deliberately
//! passive — they observe progress signals the service layer already has
//! and never change protocol behaviour:
//!
//! * [`StallDetector`] — per-(instance, round) progress heartbeats. When
//!   an instance's progress token stops changing for longer than the
//!   configured deadline, the detector classifies the blocking phase
//!   ([`StallPhase`]: barrier / wire / fsync / queue), names the missing
//!   senders, and emits a [`StallReport`]; when progress resumes the stall
//!   is cleared. Everything is surfaced as `health.stall.*` metrics with
//!   `{peer}` blame labels.
//! * [`LinkMonitor`] — per-directed-link EWMA of frame inter-arrival plus
//!   a decayed dial-failure burst rate, flagging slow ([`LinkHealth::straggler`])
//!   or flapping ([`LinkHealth::flapping`]) peers *before* a stall report,
//!   as `health.link.*` gauges.
//!
//! A stall past its dump deadline is what the service dumps its
//! [`crate::FlightRecorder`] for.

use std::collections::{BTreeMap, VecDeque};

use crate::metrics::Registry;

/// Which phase of the pipeline a stalled instance is blocked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallPhase {
    /// The round barrier: every needed link is up, but one or more peers
    /// simply have not sent their round batch (mute or very slow peer).
    Barrier,
    /// The wire: a peer we are waiting on has a dead or flapping link, so
    /// its messages physically cannot arrive.
    Wire,
    /// Local durability: fsync time dominates the stall window — the disk,
    /// not the network, is the bottleneck.
    Fsync,
    /// The instance was registered but never launched, so it is queued
    /// behind the service's own admission, not behind any peer.
    Queue,
}

impl StallPhase {
    /// Stable wire name of the phase.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            StallPhase::Barrier => "barrier",
            StallPhase::Wire => "wire",
            StallPhase::Fsync => "fsync",
            StallPhase::Queue => "queue",
        }
    }
}

impl std::fmt::Display for StallPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnosed stall: which instance, stuck where, blocked by whom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// Node that diagnosed the stall.
    pub node: u32,
    /// The stalled consensus instance.
    pub instance: u64,
    /// Protocol round the instance is stuck in.
    pub round: u32,
    /// The blocking phase.
    pub phase: StallPhase,
    /// The specific missing senders (peers whose round contribution has
    /// not arrived), empty when the phase is not peer-attributable.
    pub waiting_on: Vec<u32>,
    /// How long progress had been absent when the report was (last)
    /// updated, in µs.
    pub stalled_us: u64,
    /// Detection instant (µs on the [`crate::clock`] timeline).
    pub detected_at_us: u64,
    /// Set once progress resumed; `None` while the stall is active.
    pub cleared_at_us: Option<u64>,
}

impl StallReport {
    /// The `detail` string carried by the matching
    /// [`crate::EventKind::StallDetected`] / [`crate::EventKind::StallCleared`] event.
    #[must_use]
    pub fn detail(&self, escalated: bool) -> String {
        let peers: Vec<String> = self.waiting_on.iter().map(u32::to_string).collect();
        format!(
            "phase={} waiting_on={} stalled_us={} escalated={}",
            self.phase,
            if peers.is_empty() { "-".to_string() } else { peers.join(",") },
            self.stalled_us,
            u8::from(escalated)
        )
    }
}

/// One instance's progress signal, fed to [`StallDetector::observe`] every
/// service poll. The detector never inspects protocol state itself — the
/// service condenses what it already knows into this record.
#[derive(Debug, Clone)]
pub struct InstanceProgress {
    /// Consensus instance id.
    pub instance: u64,
    /// Current protocol round.
    pub round: u32,
    /// Whether the instance has been launched (emitted its first batch).
    pub launched: bool,
    /// Whether the instance has decided (tracking stops).
    pub decided: bool,
    /// Opaque token that changes whenever the instance makes *any*
    /// progress (round advance, new sender delivered, message dispatched).
    /// See [`progress_token`].
    pub progress_token: u64,
    /// Peers whose contribution for `round` has not arrived (empty when
    /// the protocol layer cannot name them, e.g. fully asynchronous
    /// protocols).
    pub waiting_on: Vec<u32>,
}

/// Fold the observable per-instance progress facts into one token; any
/// change in round, delivered-sender count, or dispatched-message count
/// reads as progress.
#[must_use]
pub fn progress_token(round: u32, senders_have: usize, messages_seen: u64) -> u64 {
    (u64::from(round) << 40) ^ ((senders_have as u64) << 20) ^ messages_seen
}

/// Stall-detection thresholds.
#[derive(Debug, Clone, Copy)]
pub struct StallConfig {
    /// Progress gap (µs) after which an instance is reported stalled.
    pub deadline_us: u64,
    /// Progress gap (µs) after which an active stall escalates — the
    /// service dumps the flight recorder once per stall at this point.
    pub dump_deadline_us: u64,
}

impl Default for StallConfig {
    fn default() -> StallConfig {
        StallConfig {
            deadline_us: 500_000,
            dump_deadline_us: 2_000_000,
        }
    }
}

/// A stall-state transition returned by [`StallDetector::observe`]; the
/// caller (the service) turns these into events, dumps, or log lines.
#[derive(Debug, Clone)]
pub enum StallEvent {
    /// An instance crossed the stall deadline; the report is new.
    Detected(StallReport),
    /// An already-reported stall crossed the dump deadline (emitted once
    /// per stall) — the moment to dump the flight recorder.
    Escalated(StallReport),
    /// A stalled instance made progress (or decided); the report carries
    /// its final `stalled_us` and `cleared_at_us`.
    Cleared(StallReport),
}

struct TrackedInstance {
    token: u64,
    last_progress_us: u64,
    stalled: bool,
    escalated: bool,
}

/// Per-(instance, round) progress watchdog with phase + peer blame.
///
/// Feed it [`InstanceProgress`] rows (plus the transport's [`LinkHealth`]
/// and recent fsync spans) once per poll; it returns stall transitions and
/// maintains the `health.stall.*` metrics.
pub struct StallDetector {
    node: u32,
    cfg: StallConfig,
    registry: Registry,
    tracked: BTreeMap<u64, TrackedInstance>,
    /// Every report ever raised, newest last (bounded).
    history: Vec<StallReport>,
    /// Active (un-cleared) reports by instance.
    active: BTreeMap<u64, StallReport>,
    /// Recent (timestamp, fsync µs) spans inside the deadline window.
    fsync_spans: VecDeque<(u64, u64)>,
    /// Total false-positive guard: reports raised over the detector's life.
    raised_total: u64,
}

/// Cap on the retained report history (oldest evicted first).
const HISTORY_CAP: usize = 1024;

impl StallDetector {
    /// New detector for `node`, publishing metrics into `registry`.
    #[must_use]
    pub fn new(node: u32, cfg: StallConfig, registry: Registry) -> StallDetector {
        StallDetector {
            node,
            cfg,
            registry,
            tracked: BTreeMap::new(),
            history: Vec::new(),
            active: BTreeMap::new(),
            fsync_spans: VecDeque::new(),
            raised_total: 0,
        }
    }

    /// The configured thresholds.
    #[must_use]
    pub fn config(&self) -> StallConfig {
        self.cfg
    }

    /// Record one fsync span (µs) so the classifier can tell a disk stall
    /// from a network stall.
    pub fn note_fsync(&mut self, now_us: u64, fsync_us: u64) {
        self.fsync_spans.push_back((now_us, fsync_us));
        self.prune_fsync(now_us);
    }

    fn prune_fsync(&mut self, now_us: u64) {
        let floor = now_us.saturating_sub(self.cfg.deadline_us);
        while self.fsync_spans.front().is_some_and(|(t, _)| *t < floor) {
            self.fsync_spans.pop_front();
        }
    }

    /// Fsync time (µs) spent inside the trailing deadline window.
    #[must_use]
    pub fn fsync_in_window(&self) -> u64 {
        self.fsync_spans.iter().map(|(_, us)| *us).sum()
    }

    /// Reports raised over the detector's lifetime (cleared ones included).
    #[must_use]
    pub fn reports(&self) -> &[StallReport] {
        &self.history
    }

    /// Currently active (un-cleared) stalls.
    #[must_use]
    pub fn active(&self) -> Vec<StallReport> {
        self.active.values().cloned().collect()
    }

    /// Total reports ever raised (the zero-false-positive assertion hook).
    #[must_use]
    pub fn raised_total(&self) -> u64 {
        self.raised_total
    }

    /// Classify a stalled instance into a phase plus blamed peers.
    fn classify(&self, p: &InstanceProgress, links: &[LinkHealth]) -> (StallPhase, Vec<u32>) {
        if !p.launched {
            return (StallPhase::Queue, Vec::new());
        }
        // Disk first: if fsync filled most of the window, nothing the
        // network did (or didn't do) explains the gap.
        if self.fsync_in_window().saturating_mul(2) >= self.cfg.deadline_us {
            return (StallPhase::Fsync, Vec::new());
        }
        let dead: Vec<u32> = p
            .waiting_on
            .iter()
            .copied()
            .filter(|peer| {
                links
                    .iter()
                    .find(|l| l.peer == *peer)
                    .is_some_and(|l| !l.up || l.flapping)
            })
            .collect();
        if !dead.is_empty() {
            return (StallPhase::Wire, dead);
        }
        if !p.waiting_on.is_empty() {
            return (StallPhase::Barrier, p.waiting_on.clone());
        }
        // The protocol layer could not name the missing senders (async
        // protocol): fall back to link evidence alone.
        let down: Vec<u32> = links.iter().filter(|l| !l.up).map(|l| l.peer).collect();
        if down.is_empty() {
            (StallPhase::Barrier, Vec::new())
        } else {
            (StallPhase::Wire, down)
        }
    }

    fn publish_detected(&self, report: &StallReport) {
        let node = self.node.to_string();
        self.registry
            .counter_with(
                "health.stall.detected",
                &[("node", node.as_str()), ("phase", report.phase.as_str())],
            )
            .inc();
        for peer in &report.waiting_on {
            let peer = peer.to_string();
            self.registry
                .counter_with(
                    "health.stall.blame",
                    &[("node", node.as_str()), ("peer", peer.as_str())],
                )
                .inc();
        }
        self.registry
            .gauge_with("health.stall.active", &[("node", node.as_str())])
            .set(i64::try_from(self.active.len()).unwrap_or(i64::MAX));
    }

    fn publish_cleared(&self, report: &StallReport) {
        let node = self.node.to_string();
        self.registry
            .gauge_with("health.stall.active", &[("node", node.as_str())])
            .set(i64::try_from(self.active.len()).unwrap_or(i64::MAX));
        self.registry.histogram("health.stall.stalled_us").record(report.stalled_us);
    }

    fn push_history(&mut self, report: StallReport) {
        if self.history.len() == HISTORY_CAP {
            self.history.remove(0);
        }
        self.history.push(report);
    }

    /// Fold one tick of progress signals and return every stall-state
    /// transition (detected / escalated / cleared) it caused.
    pub fn observe(
        &mut self,
        now_us: u64,
        progress: &[InstanceProgress],
        links: &[LinkHealth],
    ) -> Vec<StallEvent> {
        self.prune_fsync(now_us);
        let mut out = Vec::new();
        for p in progress {
            if p.decided {
                let last_progress =
                    self.tracked.get(&p.instance).map(|t| t.last_progress_us);
                if let Some(mut report) = self.active.remove(&p.instance) {
                    report.cleared_at_us = Some(now_us);
                    if let Some(last) = last_progress {
                        report.stalled_us = now_us.saturating_sub(last);
                    }
                    self.publish_cleared(&report);
                    if let Some(h) =
                        self.history.iter_mut().rev().find(|r| r.instance == p.instance)
                    {
                        h.cleared_at_us = report.cleared_at_us;
                        h.stalled_us = report.stalled_us;
                    }
                    out.push(StallEvent::Cleared(report));
                }
                self.tracked.remove(&p.instance);
                continue;
            }
            let entry = self.tracked.entry(p.instance).or_insert(TrackedInstance {
                token: p.progress_token,
                last_progress_us: now_us,
                stalled: false,
                escalated: false,
            });
            if entry.token != p.progress_token {
                entry.token = p.progress_token;
                let gap = now_us.saturating_sub(entry.last_progress_us);
                entry.last_progress_us = now_us;
                if entry.stalled {
                    entry.stalled = false;
                    entry.escalated = false;
                    if let Some(mut report) = self.active.remove(&p.instance) {
                        report.cleared_at_us = Some(now_us);
                        report.stalled_us = gap;
                        self.publish_cleared(&report);
                        if let Some(h) =
                            self.history.iter_mut().rev().find(|r| r.instance == p.instance)
                        {
                            h.cleared_at_us = Some(now_us);
                            h.stalled_us = gap;
                        }
                        out.push(StallEvent::Cleared(report));
                    }
                }
                continue;
            }
            let gap = now_us.saturating_sub(entry.last_progress_us);
            if !entry.stalled && gap >= self.cfg.deadline_us {
                entry.stalled = true;
                let (phase, waiting_on) = self.classify(p, links);
                let report = StallReport {
                    node: self.node,
                    instance: p.instance,
                    round: p.round,
                    phase,
                    waiting_on,
                    stalled_us: gap,
                    detected_at_us: now_us,
                    cleared_at_us: None,
                };
                self.active.insert(p.instance, report.clone());
                self.raised_total += 1;
                self.publish_detected(&report);
                self.push_history(report.clone());
                out.push(StallEvent::Detected(report));
            } else if entry.stalled && !entry.escalated && gap >= self.cfg.dump_deadline_us {
                entry.escalated = true;
                if let Some(report) = self.active.get_mut(&p.instance) {
                    report.stalled_us = gap;
                    out.push(StallEvent::Escalated(report.clone()));
                }
            } else if entry.stalled {
                if let Some(report) = self.active.get_mut(&p.instance) {
                    report.stalled_us = gap;
                }
            }
        }
        out
    }
}

/// EWMA smoothing factor for inter-arrival samples (0 < α ≤ 1).
const EWMA_ALPHA: f64 = 0.2;
/// A link is a straggler when the silence since its last frame exceeds this
/// many times its EWMA inter-arrival.
const STRAGGLER_FACTOR: f64 = 8.0;
/// Minimum frames before the straggler rule applies (EWMA warm-up).
const STRAGGLER_MIN_SAMPLES: u64 = 8;
/// Decayed dial-failure count at or above which a link counts as flapping.
const FLAP_BURST: f64 = 3.0;
/// Half-life (µs) of the dial-failure burst counter.
const BURST_HALFLIFE_US: f64 = 500_000.0;

/// Authentication state of one directed inbound link (see
/// `rbvc-transport`'s `auth` module for the handshake itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkAuthState {
    /// No handshake has completed yet on this link, or its last
    /// authenticated session went down.
    Pending,
    /// The live link completed a keyed challenge–response handshake.
    Authenticated,
    /// The most recent handshake attempt failed verification and no
    /// authenticated link is currently live.
    Failed,
}

impl LinkAuthState {
    /// Numeric encoding for the `health.link.auth` gauge:
    /// pending = 1, authenticated = 2, failed = 3.
    #[must_use]
    pub fn as_gauge(self) -> i64 {
        match self {
            LinkAuthState::Pending => 1,
            LinkAuthState::Authenticated => 2,
            LinkAuthState::Failed => 3,
        }
    }
}

/// A point-in-time health reading of one directed inbound link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkHealth {
    /// Remote peer (the sender side of this inbound link).
    pub peer: u32,
    /// Whether the link currently has a live connection.
    pub up: bool,
    /// EWMA of frame inter-arrival time, µs (0 until two frames arrived).
    pub ewma_interarrival_us: u64,
    /// The link is up but suspiciously silent relative to its own history.
    pub straggler: bool,
    /// The link is cycling through dial failures.
    pub flapping: bool,
    /// Authentication state of the inbound link.
    pub auth: LinkAuthState,
}

struct LinkState {
    up: bool,
    rx_frames: u64,
    ewma_us: f64,
    last_rx_us: u64,
    burst: f64,
    burst_at_us: u64,
    auth: LinkAuthState,
}

impl LinkState {
    /// The dial-failure burst level as it has decayed by `now_us`.
    fn decayed_burst(&self, now_us: u64) -> f64 {
        if self.burst_at_us > 0 && now_us > self.burst_at_us {
            let dt = (now_us - self.burst_at_us) as f64 / BURST_HALFLIFE_US;
            self.burst * 0.5f64.powf(dt)
        } else {
            self.burst
        }
    }
}

/// Per-directed-link straggler/flap monitor, embedded in the TCP endpoint:
/// [`LinkMonitor::on_frame`] from the receive path,
/// [`LinkMonitor::on_dial_failure`] from the redial path, and
/// [`LinkMonitor::snapshot`] whenever the stall detector wants the current
/// picture.
pub struct LinkMonitor {
    local: u32,
    links: BTreeMap<u32, LinkState>,
}

impl LinkMonitor {
    /// Monitor for the inbound links of `local` in an `n`-process mesh;
    /// every non-self link starts `up` (the mesh connects fully at start)
    /// and [`LinkAuthState::Pending`] until a handshake from that peer
    /// verifies.
    #[must_use]
    pub fn new(local: u32, n: usize) -> LinkMonitor {
        let links = (0..n as u32)
            .filter(|p| *p != local)
            .map(|p| {
                (
                    p,
                    LinkState {
                        up: true,
                        rx_frames: 0,
                        ewma_us: 0.0,
                        last_rx_us: 0,
                        burst: 0.0,
                        burst_at_us: 0,
                        auth: LinkAuthState::Pending,
                    },
                )
            })
            .collect();
        LinkMonitor { local, links }
    }

    /// A frame from `peer` arrived at `arrived_us`.
    pub fn on_frame(&mut self, peer: u32, arrived_us: u64) {
        let Some(l) = self.links.get_mut(&peer) else { return };
        l.up = true;
        l.rx_frames += 1;
        if l.last_rx_us > 0 && arrived_us > l.last_rx_us {
            let sample = (arrived_us - l.last_rx_us) as f64;
            l.ewma_us = if l.ewma_us == 0.0 {
                sample
            } else {
                EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * l.ewma_us
            };
        }
        l.last_rx_us = arrived_us;
    }

    /// An outbound (re)dial toward `peer` failed at `now_us`.
    pub fn on_dial_failure(&mut self, peer: u32, now_us: u64) {
        let Some(l) = self.links.get_mut(&peer) else { return };
        l.burst = l.decayed_burst(now_us) + 1.0;
        l.burst_at_us = now_us;
    }

    /// The inbound link from `peer` came (back) up.
    pub fn on_peer_up(&mut self, peer: u32) {
        if let Some(l) = self.links.get_mut(&peer) {
            l.up = true;
        }
    }

    /// The inbound link from `peer` went down (EOF, IO error, teardown).
    pub fn on_peer_down(&mut self, peer: u32) {
        if let Some(l) = self.links.get_mut(&peer) {
            l.up = false;
            // A downed link has no live authenticated session; the next
            // handshake decides its fate.
            if l.auth == LinkAuthState::Authenticated {
                l.auth = LinkAuthState::Pending;
            }
        }
    }

    /// A keyed handshake from `peer` verified; the inbound link is now
    /// cryptographically bound to that identity.
    pub fn on_auth_ok(&mut self, peer: u32) {
        if let Some(l) = self.links.get_mut(&peer) {
            l.auth = LinkAuthState::Authenticated;
            l.up = true;
        }
    }

    /// A handshake *claiming* `peer` failed verification. The state only
    /// degrades to [`LinkAuthState::Failed`] when no authenticated link is
    /// live — a forged connection refused at the door must not take the
    /// genuine session's reputation down with it (the refusal itself is
    /// counted in `auth.reject{peer,reason,dst}`).
    pub fn on_auth_reject(&mut self, peer: u32) {
        if let Some(l) = self.links.get_mut(&peer) {
            if l.auth != LinkAuthState::Authenticated {
                l.auth = LinkAuthState::Failed;
            }
        }
    }

    /// Current health of every non-self link, publishing the
    /// `health.link.*` gauges as a side effect.
    #[must_use]
    pub fn snapshot(&self, now_us: u64) -> Vec<LinkHealth> {
        let reg = Registry::global();
        let dst = self.local.to_string();
        self.links
            .iter()
            .map(|(peer, l)| {
                let ewma = l.ewma_us as u64;
                let since = if l.last_rx_us == 0 {
                    u64::MAX
                } else {
                    now_us.saturating_sub(l.last_rx_us)
                };
                let burst = l.decayed_burst(now_us);
                let straggler = l.up
                    && l.rx_frames >= STRAGGLER_MIN_SAMPLES
                    && ewma > 0
                    && since != u64::MAX
                    && since as f64 > STRAGGLER_FACTOR * l.ewma_us;
                let flapping = burst >= FLAP_BURST;
                let src = peer.to_string();
                let labels = [("src", src.as_str()), ("dst", dst.as_str())];
                reg.gauge_with("health.link.up", &labels).set(i64::from(l.up));
                reg.gauge_with("health.link.ewma_interarrival_us", &labels)
                    .set(i64::try_from(ewma).unwrap_or(i64::MAX));
                reg.gauge_with("health.link.straggler", &labels).set(i64::from(straggler));
                reg.gauge_with("health.link.flapping", &labels).set(i64::from(flapping));
                reg.gauge_with("health.link.auth", &labels).set(l.auth.as_gauge());
                LinkHealth {
                    peer: *peer,
                    up: l.up,
                    ewma_interarrival_us: ewma,
                    straggler,
                    flapping,
                    auth: l.auth,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(instance: u64, round: u32, token: u64, waiting: &[u32]) -> InstanceProgress {
        InstanceProgress {
            instance,
            round,
            launched: true,
            decided: false,
            progress_token: token,
            waiting_on: waiting.to_vec(),
        }
    }

    fn links_up(n: u32) -> Vec<LinkHealth> {
        (0..n)
            .map(|peer| LinkHealth {
                peer,
                up: true,
                ewma_interarrival_us: 50,
                straggler: false,
                flapping: false,
                auth: LinkAuthState::Authenticated,
            })
            .collect()
    }

    #[test]
    fn barrier_stall_is_detected_blamed_and_cleared() {
        let cfg = StallConfig { deadline_us: 1_000, dump_deadline_us: 5_000 };
        let mut det = StallDetector::new(0, cfg, Registry::new());
        let links = links_up(4);
        // Progress at t=0, then silence with peer 3 missing.
        assert!(det.observe(0, &[progress(7, 2, 10, &[3])], &links).is_empty());
        assert!(det.observe(500, &[progress(7, 2, 10, &[3])], &links).is_empty());
        let evs = det.observe(1_500, &[progress(7, 2, 10, &[3])], &links);
        assert_eq!(evs.len(), 1);
        let StallEvent::Detected(r) = &evs[0] else { panic!("expected detection") };
        assert_eq!(r.instance, 7);
        assert_eq!(r.round, 2);
        assert_eq!(r.phase, StallPhase::Barrier);
        assert_eq!(r.waiting_on, vec![3]);
        assert!(r.stalled_us >= 1_000);
        assert_eq!(det.active().len(), 1);
        // No duplicate while still stalled.
        assert!(det.observe(2_000, &[progress(7, 2, 10, &[3])], &links).is_empty());
        // Progress clears it.
        let evs = det.observe(2_500, &[progress(7, 3, 11, &[])], &links);
        assert!(matches!(evs[0], StallEvent::Cleared(_)));
        assert!(det.active().is_empty());
        assert_eq!(det.reports().len(), 1);
        assert!(det.reports()[0].cleared_at_us.is_some());
    }

    #[test]
    fn wire_stall_blames_only_the_dead_links_and_escalates_once() {
        let cfg = StallConfig { deadline_us: 1_000, dump_deadline_us: 3_000 };
        let mut det = StallDetector::new(1, cfg, Registry::new());
        let mut links = links_up(4);
        links[2].up = false; // peer 2 down
        let p = [progress(1, 0, 5, &[2, 3])];
        let _ = det.observe(0, &p, &links);
        let evs = det.observe(1_200, &p, &links);
        let StallEvent::Detected(r) = &evs[0] else { panic!("expected detection") };
        assert_eq!(r.phase, StallPhase::Wire);
        assert_eq!(r.waiting_on, vec![2], "only the dead link is wire-blamed");
        let evs = det.observe(3_500, &p, &links);
        assert!(matches!(evs[0], StallEvent::Escalated(_)));
        assert!(det.observe(4_000, &p, &links).is_empty(), "escalation fires once");
    }

    #[test]
    fn unlaunched_instances_blame_the_queue_and_fsync_dominates_wire() {
        let cfg = StallConfig { deadline_us: 1_000, dump_deadline_us: 10_000 };
        let mut det = StallDetector::new(0, cfg, Registry::new());
        let links = links_up(3);
        let mut queued = progress(9, 0, 1, &[1, 2]);
        queued.launched = false;
        let _ = det.observe(0, &[queued.clone()], &links);
        let evs = det.observe(1_100, &[queued], &links);
        let StallEvent::Detected(r) = &evs[0] else { panic!("expected detection") };
        assert_eq!(r.phase, StallPhase::Queue);
        assert!(r.waiting_on.is_empty());

        // A second instance stalled while fsync filled the window.
        let p = [progress(10, 1, 3, &[1])];
        let _ = det.observe(2_000, &p, &links);
        det.note_fsync(2_600, 700);
        let evs = det.observe(3_100, &p, &links);
        let StallEvent::Detected(r) = &evs[0] else { panic!("expected detection") };
        assert_eq!(r.phase, StallPhase::Fsync, "fsync spans dominate the window");
    }

    #[test]
    fn decided_instances_clear_and_stop_tracking() {
        let cfg = StallConfig { deadline_us: 500, dump_deadline_us: 5_000 };
        let mut det = StallDetector::new(0, cfg, Registry::new());
        let links = links_up(2);
        let _ = det.observe(0, &[progress(4, 0, 1, &[1])], &links);
        let evs = det.observe(800, &[progress(4, 0, 1, &[1])], &links);
        assert!(matches!(evs[0], StallEvent::Detected(_)));
        let mut done = progress(4, 1, 2, &[]);
        done.decided = true;
        let evs = det.observe(1_000, &[done], &links);
        assert!(matches!(evs[0], StallEvent::Cleared(_)));
        assert_eq!(det.raised_total(), 1);
        assert!(det.active().is_empty());
    }

    #[test]
    fn link_monitor_tracks_ewma_stragglers_and_flaps() {
        let mut mon = LinkMonitor::new(0, 3);
        // Steady 100µs cadence from peer 1.
        for k in 0..10u64 {
            mon.on_frame(1, 1_000 + k * 100);
        }
        let snap = mon.snapshot(2_000);
        let l1 = snap.iter().find(|l| l.peer == 1).unwrap();
        assert!(l1.up && !l1.straggler);
        assert!((50..=150).contains(&l1.ewma_interarrival_us), "{}", l1.ewma_interarrival_us);
        // Long silence: straggler.
        let snap = mon.snapshot(10_000);
        assert!(snap.iter().find(|l| l.peer == 1).unwrap().straggler);
        // Dial-failure burst on peer 2: flapping; decays over time.
        for _ in 0..4 {
            mon.on_dial_failure(2, 20_000);
        }
        let snap = mon.snapshot(20_000);
        let l2 = snap.iter().find(|l| l.peer == 2).unwrap();
        assert!(l2.flapping);
        let snap = mon.snapshot(20_000 + 10 * 500_000);
        assert!(!snap.iter().find(|l| l.peer == 2).unwrap().flapping, "burst decays");
        // Peer lifecycle.
        mon.on_peer_down(1);
        assert!(!mon.snapshot(21_000).iter().find(|l| l.peer == 1).unwrap().up);
        mon.on_peer_up(1);
        assert!(mon.snapshot(22_000).iter().find(|l| l.peer == 1).unwrap().up);
    }
}
