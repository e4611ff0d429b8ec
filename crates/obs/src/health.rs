//! Self-diagnosis: stall detection with phase and peer blame.
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
//! * [`LinkHealth`] — one directed link's `up` / `auth` reading. The
//!   detector keeps no link state of its own: the transport endpoint that
//!   sees a link's events owns it and hands the detector a reading per poll.
//!
//! A stall past its dump deadline is what the service dumps its
//! [`crate::FlightRecorder`] for.

use std::collections::BTreeMap;

use crate::metrics::Registry;

/// Which phase of the pipeline a stalled instance is blocked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallPhase {
    /// The round barrier: every needed link is up, but one or more peers
    /// simply have not sent their round batch (mute or very slow peer).
    Barrier,
    /// The wire: a peer we are waiting on has a dead link, so its messages
    /// physically cannot arrive.
    Wire,
    /// Local durability: the group commit (write + fsync) took at least half
    /// of the stall gap — the disk, not the network, is the bottleneck.
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

#[derive(Clone, Copy)]
struct TrackedInstance {
    token: u64,
    last_progress_us: u64,
    /// The service's cumulative commit time (µs) at `last_progress_us`.
    commit_at_progress_us: u64,
    /// The active stall already escalated (escalation fires once).
    escalated: bool,
}

/// Per-(instance, round) progress watchdog with phase + peer blame.
///
/// Feed it [`InstanceProgress`] rows (plus the transport's [`LinkHealth`]
/// and the service's cumulative commit time) once per poll; it returns
/// stall transitions and maintains the `health.stall.*` metrics.
pub struct StallDetector {
    node: u32,
    cfg: StallConfig,
    registry: Registry,
    tracked: BTreeMap<u64, TrackedInstance>,
    /// Every report ever raised, newest last (bounded).
    history: Vec<StallReport>,
    /// Active (un-cleared) reports by instance.
    active: BTreeMap<u64, StallReport>,
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
            raised_total: 0,
        }
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

    /// Classify a stalled instance into a phase plus blamed peers, given its
    /// progress gap and the commit time spent inside it.
    fn classify(
        p: &InstanceProgress,
        links: &[LinkHealth],
        gap_us: u64,
        commit_in_gap_us: u64,
    ) -> (StallPhase, Vec<u32>) {
        if !p.launched {
            return (StallPhase::Queue, Vec::new());
        }
        // Disk first: if the group commit could explain the gap, nothing the
        // network did (or didn't do) does.
        if commit_in_gap_us.saturating_mul(2) >= gap_us {
            return (StallPhase::Fsync, Vec::new());
        }
        let dead: Vec<u32> = p
            .waiting_on
            .iter()
            .copied()
            .filter(|peer| links.iter().find(|l| l.peer == *peer).is_some_and(|l| !l.up))
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

    /// Close `instance`'s active stall, if any: progress resumed (or the
    /// instance decided) at `now_us`, `gap_us` after the last progress.
    fn clear(&mut self, instance: u64, now_us: u64, gap_us: u64, out: &mut Vec<StallEvent>) {
        let Some(mut report) = self.active.remove(&instance) else { return };
        (report.cleared_at_us, report.stalled_us) = (Some(now_us), gap_us);
        if let Some(h) = self.history.iter_mut().rev().find(|r| r.instance == instance) {
            (h.cleared_at_us, h.stalled_us) = (report.cleared_at_us, gap_us);
        }
        let node = self.node.to_string();
        self.registry
            .gauge_with("health.stall.active", &[("node", node.as_str())])
            .set(i64::try_from(self.active.len()).unwrap_or(i64::MAX));
        self.registry.histogram("health.stall.stalled_us").record(gap_us);
        out.push(StallEvent::Cleared(report));
    }

    /// Fold one tick of progress signals and return every stall-state
    /// transition (detected / escalated / cleared) it caused. `commit_us` is
    /// the service's cumulative group-commit time (write + fsync, µs) as of
    /// `now_us`.
    pub fn observe(
        &mut self,
        now_us: u64,
        commit_us: u64,
        progress: &[InstanceProgress],
        links: &[LinkHealth],
    ) -> Vec<StallEvent> {
        let mut out = Vec::new();
        for p in progress {
            let fresh = TrackedInstance {
                token: p.progress_token,
                last_progress_us: now_us,
                commit_at_progress_us: commit_us,
                escalated: false,
            };
            let tracked = self.tracked.entry(p.instance).or_insert(fresh);
            let gap = now_us.saturating_sub(tracked.last_progress_us);
            if p.decided || tracked.token != p.progress_token {
                if p.decided {
                    self.tracked.remove(&p.instance);
                } else {
                    *tracked = fresh;
                }
                self.clear(p.instance, now_us, gap, &mut out);
                continue;
            }
            if let Some(report) = self.active.get_mut(&p.instance) {
                report.stalled_us = gap;
                if !tracked.escalated && gap >= self.cfg.dump_deadline_us {
                    tracked.escalated = true;
                    out.push(StallEvent::Escalated(report.clone()));
                }
                continue;
            }
            if gap < self.cfg.deadline_us {
                continue;
            }
            let commit_in_gap = commit_us.saturating_sub(tracked.commit_at_progress_us);
            let (phase, waiting_on) = Self::classify(p, links, gap, commit_in_gap);
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
            if self.history.len() == HISTORY_CAP {
                self.history.remove(0);
            }
            self.history.push(report.clone());
            out.push(StallEvent::Detected(report));
        }
        out
    }
}

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

/// A point-in-time reading of one directed inbound link, as the transport
/// endpoint that sees its events holds it.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkHealth {
    /// Remote peer (the sender side of this inbound link).
    pub peer: u32,
    /// Whether the link currently has a live connection.
    pub up: bool,
    /// Authentication state of the inbound link.
    pub auth: LinkAuthState,
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
        assert!(det.observe(0, 0, &[progress(7, 2, 10, &[3])], &links).is_empty());
        assert!(det.observe(500, 0, &[progress(7, 2, 10, &[3])], &links).is_empty());
        let evs = det.observe(1_500, 0, &[progress(7, 2, 10, &[3])], &links);
        assert_eq!(evs.len(), 1);
        let StallEvent::Detected(r) = &evs[0] else { panic!("expected detection") };
        assert_eq!(r.instance, 7);
        assert_eq!(r.round, 2);
        assert_eq!(r.phase, StallPhase::Barrier);
        assert_eq!(r.waiting_on, vec![3]);
        assert!(r.stalled_us >= 1_000);
        assert_eq!(det.active().len(), 1);
        // No duplicate while still stalled.
        assert!(det.observe(2_000, 0, &[progress(7, 2, 10, &[3])], &links).is_empty());
        // Progress clears it.
        let evs = det.observe(2_500, 0, &[progress(7, 3, 11, &[])], &links);
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
        let _ = det.observe(0, 0, &p, &links);
        let evs = det.observe(1_200, 0, &p, &links);
        let StallEvent::Detected(r) = &evs[0] else { panic!("expected detection") };
        assert_eq!(r.phase, StallPhase::Wire);
        assert_eq!(r.waiting_on, vec![2], "only the dead link is wire-blamed");
        let evs = det.observe(3_500, 0, &p, &links);
        assert!(matches!(evs[0], StallEvent::Escalated(_)));
        assert!(det.observe(4_000, 0, &p, &links).is_empty(), "escalation fires once");
    }

    #[test]
    fn unlaunched_instances_blame_the_queue_and_fsync_dominates_wire() {
        let cfg = StallConfig { deadline_us: 1_000, dump_deadline_us: 10_000 };
        let mut det = StallDetector::new(0, cfg, Registry::new());
        let mut links = links_up(3);
        links[1].up = false;
        let mut queued = progress(9, 0, 1, &[1, 2]);
        queued.launched = false;
        let _ = det.observe(0, 0, &[queued.clone()], &links);
        let evs = det.observe(1_100, 0, &[queued], &links);
        let StallEvent::Detected(r) = &evs[0] else { panic!("expected detection") };
        assert_eq!(r.phase, StallPhase::Queue);
        assert!(r.waiting_on.is_empty());

        // Two instances waiting on the dead link: one last progressed before
        // a 600 µs commit, the other after it. The commit covers half of the
        // first one's gap and none of the second one's.
        let both = [progress(10, 1, 3, &[1]), progress(11, 1, 4, &[1])];
        let _ = det.observe(2_000, 5_000, &both[..1], &links);
        let _ = det.observe(2_700, 5_600, &both, &links);
        let evs = det.observe(3_200, 5_600, &both, &links);
        let StallEvent::Detected(r) = &evs[0] else { panic!("expected detection") };
        assert_eq!((r.instance, r.phase), (10, StallPhase::Fsync), "commit time fills the gap");
        assert!(r.waiting_on.is_empty());
        let evs = det.observe(3_800, 5_600, &both, &links);
        let StallEvent::Detected(r) = &evs[0] else { panic!("expected detection") };
        assert_eq!((r.instance, r.phase), (11, StallPhase::Wire), "a commit before its gap");
        assert_eq!(r.waiting_on, vec![1]);
    }

    #[test]
    fn decided_instances_clear_and_stop_tracking() {
        let cfg = StallConfig { deadline_us: 500, dump_deadline_us: 5_000 };
        let mut det = StallDetector::new(0, cfg, Registry::new());
        let links = links_up(2);
        let _ = det.observe(0, 0, &[progress(4, 0, 1, &[1])], &links);
        let evs = det.observe(800, 0, &[progress(4, 0, 1, &[1])], &links);
        assert!(matches!(evs[0], StallEvent::Detected(_)));
        let mut done = progress(4, 1, 2, &[]);
        done.decided = true;
        let evs = det.observe(1_000, 0, &[done], &links);
        assert!(matches!(evs[0], StallEvent::Cleared(_)));
        assert_eq!(det.raised_total(), 1);
        assert!(det.active().is_empty());
    }
}
