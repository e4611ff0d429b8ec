//! Self-diagnosis: stall detection with blame attribution, per-link
//! straggler monitoring, a shared `/status` snapshot board, and the
//! always-on flight recorder.
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
//!   or flapping ([`LinkHealth::flapping`]) peers *before* a stall report.
//! * [`StatusBoard`] — the shared JSON board behind the live `/status`
//!   endpoint (`crate::serve`): each node publishes a rendered
//!   [`StatusSnapshot`]; the endpoint splices them into one document.
//! * [`FlightRecorder`] — a bounded ring of recent events that is always
//!   on and dumps a self-describing JSONL black-box file (read back by
//!   [`FlightDump::parse`]) on a safety-monitor violation, a stall past
//!   its dump deadline, or a panic (via [`arm_panic_hook`]).

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, PoisonError, Weak};

use serde::Value;

use crate::clock;
use crate::event::{Event, EventKind};
use crate::metrics::{HistSnapshot, Registry};
use crate::recorder::Recorder;

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
    /// Render as a JSON value for the `/status` document.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("instance".into(), Value::UInt(self.instance)),
            ("round".into(), Value::UInt(u64::from(self.round))),
            ("phase".into(), Value::Str(self.phase.as_str().into())),
            (
                "waiting_on".into(),
                Value::Array(
                    self.waiting_on.iter().map(|p| Value::UInt(u64::from(*p))).collect(),
                ),
            ),
            ("stalled_us".into(), Value::UInt(self.stalled_us)),
            ("detected_at_us".into(), Value::UInt(self.detected_at_us)),
        ];
        if let Some(t) = self.cleared_at_us {
            fields.push(("cleared_at_us".into(), Value::UInt(t)));
        }
        Value::Object(fields)
    }

    /// The `detail` string carried by the matching
    /// [`EventKind::StallDetected`] / [`EventKind::StallCleared`] event.
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
/// service poll and listed on `/status`. The detector never inspects
/// protocol state itself — the service condenses what it already knows
/// into this record.
#[derive(Debug, Clone)]
pub struct InstanceProgress {
    /// Consensus instance id.
    pub instance: u64,
    /// Protocol short name (`"bvc"` / `"va"`).
    pub proto: &'static str,
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
    /// The mesh runs plaintext HELLOs — identity is claimed, not proved.
    Off,
    /// Auth is on but no handshake has completed yet on this link.
    Pending,
    /// The live link completed a keyed challenge–response handshake.
    Authenticated,
    /// The most recent handshake attempt failed verification and no
    /// authenticated link is currently live.
    Failed,
}

impl LinkAuthState {
    /// Stable lowercase name (used in `/status` rows and gauge values).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LinkAuthState::Off => "off",
            LinkAuthState::Pending => "pending",
            LinkAuthState::Authenticated => "authenticated",
            LinkAuthState::Failed => "failed",
        }
    }

    /// Numeric encoding for the `health.link.auth` gauge:
    /// off = 0, pending = 1, authenticated = 2, failed = 3.
    #[must_use]
    pub fn as_gauge(self) -> i64 {
        match self {
            LinkAuthState::Off => 0,
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
    /// Frames received over the link's lifetime.
    pub rx_frames: u64,
    /// EWMA of frame inter-arrival time, µs (0 until two frames arrived).
    pub ewma_interarrival_us: u64,
    /// Silence since the last frame, µs (`u64::MAX` when no frame ever
    /// arrived).
    pub us_since_last_rx: u64,
    /// Cumulative outbound dial failures toward this peer.
    pub dial_failures: u64,
    /// Decayed dial-failure burst level (halves every 0.5 s; flapping at 3).
    pub dial_burst: f64,
    /// The link is up but suspiciously silent relative to its own history.
    pub straggler: bool,
    /// The link is cycling through dial failures.
    pub flapping: bool,
    /// Authentication state of the inbound link.
    pub auth: LinkAuthState,
    /// Reason label of the most recent handshake rejection attributed to
    /// this peer (`None` if none ever was). A rejection is remembered even
    /// while the genuine link stays [`LinkAuthState::Authenticated`] — a
    /// failed forgery must not hide, but must not mark the live link bad.
    pub last_auth_reject: Option<String>,
}

impl LinkHealth {
    /// Render as a JSON value for the `/status` document.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("peer".into(), Value::UInt(u64::from(self.peer))),
            ("up".into(), Value::Bool(self.up)),
            ("rx_frames".into(), Value::UInt(self.rx_frames)),
            ("ewma_interarrival_us".into(), Value::UInt(self.ewma_interarrival_us)),
            (
                "us_since_last_rx".into(),
                Value::UInt(if self.us_since_last_rx == u64::MAX {
                    0
                } else {
                    self.us_since_last_rx
                }),
            ),
            ("dial_failures".into(), Value::UInt(self.dial_failures)),
            ("straggler".into(), Value::Bool(self.straggler)),
            ("flapping".into(), Value::Bool(self.flapping)),
            ("auth".into(), Value::Str(self.auth.as_str().into())),
            (
                "last_auth_reject".into(),
                match &self.last_auth_reject {
                    Some(r) => Value::Str(r.clone()),
                    None => Value::Str(String::new()),
                },
            ),
        ])
    }
}

struct LinkState {
    up: bool,
    rx_frames: u64,
    ewma_us: f64,
    last_rx_us: u64,
    dial_failures: u64,
    burst: f64,
    burst_at_us: u64,
    auth: LinkAuthState,
    last_auth_reject: Option<String>,
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
/// [`LinkMonitor::snapshot`] whenever anyone (the stall detector, the
/// `/status` board) wants the current picture.
pub struct LinkMonitor {
    local: u32,
    links: BTreeMap<u32, LinkState>,
}

impl LinkMonitor {
    /// Monitor for the inbound links of `local` in an `n`-process mesh;
    /// every non-self link starts `up` (the mesh connects fully at start).
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
                        dial_failures: 0,
                        burst: 0.0,
                        burst_at_us: 0,
                        auth: LinkAuthState::Off,
                        last_auth_reject: None,
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
        l.dial_failures += 1;
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
            // Under auth, a downed link has no live authenticated session;
            // the next handshake decides its fate.
            if l.auth == LinkAuthState::Authenticated {
                l.auth = LinkAuthState::Pending;
            }
        }
    }

    /// Declare that every inbound link of this mesh requires an
    /// authenticated handshake: links start [`LinkAuthState::Pending`]
    /// instead of [`LinkAuthState::Off`].
    pub fn set_auth_expected(&mut self) {
        for l in self.links.values_mut() {
            l.auth = LinkAuthState::Pending;
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

    /// A handshake *claiming* `peer` failed verification for `reason`.
    /// The reason is always remembered; the state only degrades to
    /// [`LinkAuthState::Failed`] when no authenticated link is live —
    /// a forged connection refused at the door must not take the genuine
    /// session's reputation down with it.
    pub fn on_auth_reject(&mut self, peer: u32, reason: &str) {
        if let Some(l) = self.links.get_mut(&peer) {
            l.last_auth_reject = Some(reason.to_string());
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
                    rx_frames: l.rx_frames,
                    ewma_interarrival_us: ewma,
                    us_since_last_rx: since,
                    dial_failures: l.dial_failures,
                    dial_burst: burst,
                    straggler,
                    flapping,
                    auth: l.auth,
                    last_auth_reject: l.last_auth_reject.clone(),
                }
            })
            .collect()
    }
}

/// Client-table occupancy for the `/status` document.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStatus {
    /// Sessions in the table.
    pub sessions: u64,
    /// Client instances currently in flight.
    pub inflight: u64,
    /// Submits shed with `Busy` so far.
    pub shed: u64,
}

/// WAL durability facts for the `/status` document.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStatus {
    /// Current log size in bytes (header included).
    pub size_bytes: u64,
    /// Records in the log.
    pub records: u64,
}

/// Everything one node publishes onto the [`StatusBoard`] each poll.
#[derive(Debug, Clone, Default)]
pub struct StatusSnapshot {
    /// Publishing node.
    pub node: u32,
    /// Per-instance state (callers may cap the list; counts below stay
    /// exact). The progress token is not rendered.
    pub instances: Vec<InstanceProgress>,
    /// Total instances registered with the service.
    pub total_instances: u64,
    /// Instances decided.
    pub decided_instances: u64,
    /// Client-table occupancy (absent when the client plane is off).
    pub client: Option<ClientStatus>,
    /// WAL durability facts (absent when the service runs non-durable).
    pub wal: Option<WalStatus>,
    /// Link health of every inbound link.
    pub links: Vec<LinkHealth>,
    /// Active stall reports.
    pub stalls: Vec<StallReport>,
    /// Where the node's wall time has gone since it started: cumulative
    /// nanoseconds per phase of the service's phase clock, by phase name.
    pub phase_ns: Vec<(&'static str, u64)>,
    /// When this snapshot was rendered (µs, [`crate::clock`] timeline).
    pub updated_us: u64,
}

/// Shares of a whole as one line, largest first, cells under half a percent
/// left out: `dispatch 71 % wait 12 % …` (empty when the cells sum to zero).
#[must_use]
pub fn render_shares(cells: &[(&'static str, u64)]) -> String {
    let total: u64 = cells.iter().map(|(_, ns)| ns).sum();
    let mut cells = cells.to_vec();
    cells.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let shares = cells.iter().filter_map(|&(name, ns)| {
        let percent = (ns as f64 * 100.0 / total as f64).round();
        (percent >= 1.0).then(|| format!("{name} {percent} %"))
    });
    shares.collect::<Vec<_>>().join(" ")
}

impl StatusSnapshot {
    /// Render the snapshot as one JSON object string.
    #[must_use]
    pub fn render(&self) -> String {
        let instances = self
            .instances
            .iter()
            .map(|i| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(i.instance)),
                    ("proto".into(), Value::Str(i.proto.into())),
                    ("round".into(), Value::UInt(u64::from(i.round))),
                    ("launched".into(), Value::Bool(i.launched)),
                    ("decided".into(), Value::Bool(i.decided)),
                    (
                        "waiting_on".into(),
                        Value::Array(
                            i.waiting_on.iter().map(|p| Value::UInt(u64::from(*p))).collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let mut fields = vec![
            ("node".into(), Value::UInt(u64::from(self.node))),
            ("updated_us".into(), Value::UInt(self.updated_us)),
            ("total_instances".into(), Value::UInt(self.total_instances)),
            ("decided_instances".into(), Value::UInt(self.decided_instances)),
            ("time".into(), Value::Str(render_shares(&self.phase_ns))),
            ("instances".into(), Value::Array(instances)),
            (
                "links".into(),
                Value::Array(self.links.iter().map(LinkHealth::to_value).collect()),
            ),
            (
                "stalls".into(),
                Value::Array(self.stalls.iter().map(StallReport::to_value).collect()),
            ),
        ];
        if let Some(c) = self.client {
            fields.push((
                "client".into(),
                Value::Object(vec![
                    ("sessions".into(), Value::UInt(c.sessions)),
                    ("inflight".into(), Value::UInt(c.inflight)),
                    ("shed".into(), Value::UInt(c.shed)),
                ]),
            ));
        }
        if let Some(w) = self.wal {
            fields.push((
                "wal".into(),
                Value::Object(vec![
                    ("size_bytes".into(), Value::UInt(w.size_bytes)),
                    ("records".into(), Value::UInt(w.records)),
                ]),
            ));
        }
        let mut out = String::new();
        Value::Object(fields).render(&mut out);
        out
    }
}

/// The shared board behind the live `/status` endpoint: every node of a
/// process publishes its rendered [`StatusSnapshot`]; the endpoint splices
/// all of them into one JSON document. Cloning shares the board.
#[derive(Clone, Default)]
pub struct StatusBoard {
    inner: Arc<Mutex<BTreeMap<u32, String>>>,
}

impl StatusBoard {
    /// New empty board.
    #[must_use]
    pub fn new() -> StatusBoard {
        StatusBoard::default()
    }

    /// Publish (replace) `node`'s rendered snapshot.
    pub fn publish(&self, node: u32, rendered: String) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(node, rendered);
    }

    /// Render the whole board as one JSON document
    /// (`{"service":"rbvc","nodes":{"0":{...},...}}`).
    #[must_use]
    pub fn render(&self) -> String {
        let nodes = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::from("{\"service\":\"rbvc\",\"nodes\":{");
        for (i, (node, body)) in nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&node.to_string());
            out.push_str("\":");
            out.push_str(body);
        }
        out.push_str("}}");
        out
    }
}

struct FlightInner {
    buf: VecDeque<Event>,
    dropped: u64,
}

/// The always-on flight recorder: a bounded ring of recent events that can
/// dump itself — ring contents, a reason record, and the full metrics
/// registry — as a self-describing JSONL black-box file at any moment.
///
/// It implements [`Recorder`], so it slots into the normal event path
/// (usually behind a [`crate::recorder::TeeRecorder`] next to whatever
/// sink the run already uses). Dumps trigger:
///
/// * automatically, when a [`EventKind::Violation`] event is recorded;
/// * from the service, when a stall crosses its dump deadline;
/// * from the panic hook installed by [`arm_panic_hook`].
///
/// Dump files land in the configured directory as
/// `flight-node<N>-<reason>-<seq>.jsonl` and parse with [`FlightDump`]
/// (zero unknown records).
pub struct FlightRecorder {
    node: u32,
    dir: PathBuf,
    capacity: usize,
    inner: Mutex<FlightInner>,
    /// Dump attempts: the budget and the file sequence number.
    attempts: AtomicU64,
    /// Dump files written.
    dumps: AtomicU64,
    max_dumps: u64,
    registry: Registry,
}

impl FlightRecorder {
    /// Ring of `capacity` events for `node`, dumping into `dir` (created
    /// if missing) and snapshotting `registry` into every dump.
    #[must_use]
    pub fn new(node: u32, dir: impl AsRef<Path>, capacity: usize, registry: Registry) -> FlightRecorder {
        let dir = dir.as_ref().to_path_buf();
        let _ = std::fs::create_dir_all(&dir);
        FlightRecorder {
            node,
            dir,
            capacity: capacity.max(16),
            inner: Mutex::new(FlightInner { buf: VecDeque::new(), dropped: 0 }),
            attempts: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            max_dumps: 8,
            registry,
        }
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).buf.len()
    }

    /// True iff the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dump files written so far (attempts past the budget and failed
    /// writes do not count).
    #[must_use]
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::SeqCst)
    }

    /// The dump directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Write the black-box file now; returns its path, or `None` once the
    /// per-recorder dump budget is spent (a dump storm must not fill the
    /// disk) or if the file cannot be written.
    pub fn dump(&self, reason: &str) -> Option<PathBuf> {
        let seq = self.attempts.fetch_add(1, Ordering::SeqCst);
        if seq >= self.max_dumps {
            return None;
        }
        let safe_reason: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' })
            .collect();
        let path = self
            .dir
            .join(format!("flight-node{}-{}-{}.jsonl", self.node, safe_reason, seq));
        let (events, dropped) = {
            let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            (inner.buf.iter().cloned().collect::<Vec<_>>(), inner.dropped)
        };
        let mut body = String::new();
        body.push_str(&format!(
            "{{\"t\":\"trace_header\",\"clock\":\"mono_us\",\"wall_epoch_unix_us\":{}}}\n",
            clock::wall_epoch_unix_us()
        ));
        let mut reason_line = String::new();
        Value::Object(vec![
            ("t".into(), Value::Str("flight".into())),
            ("reason".into(), Value::Str(reason.into())),
            ("node".into(), Value::UInt(u64::from(self.node))),
            ("buffered".into(), Value::UInt(events.len() as u64)),
            ("ring_dropped".into(), Value::UInt(dropped)),
            ("dumped_at_us".into(), Value::UInt(clock::now_us())),
        ])
        .render(&mut reason_line);
        body.push_str(&reason_line);
        body.push('\n');
        for ev in &events {
            body.push_str(&ev.to_json_line());
            body.push('\n');
        }
        for line in self.registry.to_jsonl_lines() {
            body.push_str(&line);
            body.push('\n');
        }
        match std::fs::write(&path, body) {
            Ok(()) => {
                self.dumps.fetch_add(1, Ordering::SeqCst);
                Registry::global().counter("health.flight.dumps").inc();
                Some(path)
            }
            Err(_) => None,
        }
    }
}

impl Recorder for FlightRecorder {
    fn record(&self, event: Event) {
        let violation = event.kind == EventKind::Violation;
        {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if inner.buf.len() == self.capacity {
                inner.buf.pop_front();
                inner.dropped += 1;
            }
            inner.buf.push_back(event);
        }
        if violation {
            // A safety violation is the one thing the black box exists
            // for: dump immediately, while the ring still holds the
            // events that led up to it.
            let _ = self.dump("violation");
        }
    }
}

/// A flight-recorder dump read back: the ring's events, why the dump was
/// written, and the counters and gauges of the registry it snapshotted.
///
/// A dump is newline-delimited JSON whose records name their shape in a
/// `t` field: `trace_header` (the wall-clock anchor of the monotonic
/// epoch), `flight` (the reason record), `event` (see [`Event`]),
/// `counter` / `gauge`, and `hist`. Blank lines are skipped; a record of
/// any other shape is counted in [`FlightDump::unknown_records`].
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// The ring's events, oldest first.
    pub events: Vec<Event>,
    /// Why the dump was written (`violation` / `stall` / `panic`, or a
    /// caller's own reason).
    pub reason: Option<String>,
    /// Events the ring evicted before the dump.
    pub ring_dropped: Option<u64>,
    /// [`EventKind::Violation`] events among [`FlightDump::events`].
    pub violations: u64,
    /// Dumped counters and gauges, keyed by metric name.
    pub scalars: BTreeMap<String, i128>,
    /// Lines that parsed as JSON but matched no record shape a dump writes.
    pub unknown_records: u64,
}

impl FlightDump {
    /// Parse a whole dump file.
    ///
    /// # Errors
    /// The line number and parser message of the first line that is not
    /// JSON.
    pub fn parse(text: &str) -> Result<FlightDump, String> {
        let mut dump = FlightDump::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value: Value =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let shape = value.get("t").and_then(Value::as_str);
            if let Some(ev) = Event::from_value(&value) {
                dump.violations += u64::from(ev.kind == EventKind::Violation);
                dump.events.push(ev);
            } else if shape == Some("flight") {
                dump.reason = value
                    .get("reason")
                    .and_then(Value::as_str)
                    .map(String::from);
                dump.ring_dropped = value.get("ring_dropped").and_then(Value::as_u64);
            } else if let Some((name, v)) = scalar_from_value(&value) {
                dump.scalars.insert(name, v);
            } else if shape != Some("trace_header") && HistSnapshot::from_value(&value).is_none() {
                dump.unknown_records += 1;
            }
        }
        Ok(dump)
    }
}

/// A `{"t":"counter"|"gauge","name":..,"value":..}` record.
fn scalar_from_value(v: &Value) -> Option<(String, i128)> {
    let t = v.get("t")?.as_str()?;
    if t != "counter" && t != "gauge" {
        return None;
    }
    let name = v.get("name")?.as_str()?.to_string();
    let value = match v.get("value")? {
        Value::UInt(u) => i128::from(*u),
        Value::Int(i) => i128::from(*i),
        _ => return None,
    };
    Some((name, value))
}

/// Flight recorders armed for panic dumps (weak: a dropped service must
/// not keep its recorder alive).
fn panic_flights() -> &'static Mutex<Vec<Weak<FlightRecorder>>> {
    static FLIGHTS: OnceLock<Mutex<Vec<Weak<FlightRecorder>>>> = OnceLock::new();
    FLIGHTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register `flight` for a black-box dump if the process panics. The hook
/// chains the previously installed panic hook (installed once per
/// process); recorders register weakly, so dropped services fall out of
/// the list on their own.
pub fn arm_panic_hook(flight: &Arc<FlightRecorder>) {
    {
        let mut list = panic_flights().lock().unwrap_or_else(PoisonError::into_inner);
        list.retain(|w| w.strong_count() > 0);
        list.push(Arc::downgrade(flight));
    }
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let flights: Vec<Arc<FlightRecorder>> = panic_flights()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .filter_map(Weak::upgrade)
                .collect();
            for f in flights {
                let _ = f.dump("panic");
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Obs, Recorder};

    fn progress(instance: u64, round: u32, token: u64, waiting: &[u32]) -> InstanceProgress {
        InstanceProgress {
            instance,
            proto: "bvc",
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
                rx_frames: 100,
                ewma_interarrival_us: 50,
                us_since_last_rx: 10,
                dial_failures: 0,
                dial_burst: 0.0,
                straggler: false,
                flapping: false,
                auth: LinkAuthState::Off,
                last_auth_reject: None,
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
        assert_eq!(l2.dial_failures, 4);
        let snap = mon.snapshot(20_000 + 10 * 500_000);
        assert!(!snap.iter().find(|l| l.peer == 2).unwrap().flapping, "burst decays");
        // Peer lifecycle.
        mon.on_peer_down(1);
        assert!(!mon.snapshot(21_000).iter().find(|l| l.peer == 1).unwrap().up);
        mon.on_peer_up(1);
        assert!(mon.snapshot(22_000).iter().find(|l| l.peer == 1).unwrap().up);
    }

    #[test]
    fn status_board_renders_parseable_json() {
        let board = StatusBoard::new();
        let snap = StatusSnapshot {
            node: 3,
            instances: vec![progress(17, 2, 99, &[1, 5])],
            total_instances: 4,
            decided_instances: 3,
            client: Some(ClientStatus { sessions: 2, inflight: 1, shed: 0 }),
            wal: Some(WalStatus { size_bytes: 4096, records: 12 }),
            links: vec![LinkHealth {
                peer: 1,
                up: true,
                rx_frames: 9,
                ewma_interarrival_us: 120,
                us_since_last_rx: 40,
                dial_failures: 0,
                dial_burst: 0.0,
                straggler: false,
                flapping: false,
                auth: LinkAuthState::Authenticated,
                last_auth_reject: Some("bad-mac".into()),
            }],
            stalls: vec![StallReport {
                node: 3,
                instance: 17,
                round: 2,
                phase: StallPhase::Barrier,
                waiting_on: vec![1, 5],
                stalled_us: 900_000,
                detected_at_us: 5_000_000,
                cleared_at_us: None,
            }],
            phase_ns: vec![("wait", 120), ("dispatch", 710), ("fsync", 1), ("outside", 169)],
            updated_us: 6_000_000,
        };
        let rendered = snap.render();
        assert!(
            rendered.contains(r#""instances":[{"id":17,"proto":"bvc","round":2,"launched":true,"decided":false,"waiting_on":[1,5]}]"#),
            "one row per instance, no progress token: {rendered}"
        );
        board.publish(3, rendered);
        board.publish(0, StatusSnapshot { node: 0, ..StatusSnapshot::default() }.render());
        let doc = board.render();
        let v: Value = serde_json::from_str(&doc).expect("board renders valid JSON");
        let nodes = v.get("nodes").expect("nodes key");
        let n3 = nodes.get("3").expect("node 3 present");
        assert_eq!(n3.get("total_instances").and_then(Value::as_u64), Some(4));
        assert_eq!(
            n3.get("time").and_then(Value::as_str),
            Some("dispatch 71 % outside 17 % wait 12 %"),
            "largest first, the 0.1 % cell left out"
        );
        assert_eq!(nodes.get("0").and_then(|n0| n0.get("time")).and_then(Value::as_str), Some(""));
        let stalls = n3.get("stalls").and_then(Value::as_array).expect("stalls");
        assert_eq!(stalls[0].get("phase").and_then(Value::as_str), Some("barrier"));
        assert_eq!(
            stalls[0].get("waiting_on").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
        assert!(nodes.get("0").is_some());
    }

    #[test]
    fn violation_auto_dump_is_a_parseable_trace() {
        let dir = std::env::temp_dir().join(format!(
            "rbvc-flight-test-{}-violation",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::new();
        reg.counter("some.counter").add(3);
        let flight = Arc::new(FlightRecorder::new(2, &dir, 64, reg));
        let obs = Obs::new(Arc::clone(&flight) as Arc<dyn Recorder>).with_node(2);
        for i in 0..5u64 {
            obs.emit(|| Event::new(EventKind::RoundStart).instance(i).round(0));
        }
        assert_eq!(flight.dumps(), 0);
        obs.emit(|| Event::new(EventKind::Violation).instance(1).detail("kind=agreement"));
        assert_eq!(flight.dumps(), 1, "violation triggers the dump");
        let dump = std::fs::read_dir(&dir)
            .expect("dump dir")
            .filter_map(Result::ok)
            .find(|e| e.file_name().to_string_lossy().contains("violation"))
            .expect("dump file written");
        let text = std::fs::read_to_string(dump.path()).expect("read dump");
        let s = FlightDump::parse(&text).expect("dump parses");
        assert_eq!(s.unknown_records, 0, "every record shape is known");
        assert_eq!(s.violations, 1);
        assert_eq!(s.events.iter().filter(|e| e.kind == EventKind::RoundStart).count(), 5);
        assert_eq!(s.reason.as_deref(), Some("violation"));
        assert_eq!(s.ring_dropped, Some(0));
        assert_eq!(s.scalars.get("some.counter"), Some(&3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Handshake outcomes ride the normal event path, so an
    /// identity-attack black-box dump carries `AuthEstablished` /
    /// `AuthReject` lines that read back through [`FlightDump`] — with the
    /// reject reason preserved in the detail.
    #[test]
    fn auth_events_survive_a_flight_dump_round_trip() {
        use crate::event::detail_field;
        let dir = std::env::temp_dir().join(format!(
            "rbvc-flight-test-{}-auth",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::new();
        reg.counter("auth.reject_total").add(2);
        let flight = Arc::new(FlightRecorder::new(1, &dir, 64, reg));
        let obs = Obs::new(Arc::clone(&flight) as Arc<dyn Recorder>).with_node(1);
        obs.emit(|| Event::new(EventKind::AuthEstablished).peer(2).detail("epoch=1"));
        obs.emit(|| Event::new(EventKind::AuthReject).peer(4).detail("reason=bad-mac"));
        obs.emit(|| Event::new(EventKind::AuthReject).detail("reason=downgrade"));
        let path = flight.dump("identity-attack").expect("dump written");
        let text = std::fs::read_to_string(path).expect("read dump");
        let s = FlightDump::parse(&text).expect("dump parses");
        assert_eq!(s.unknown_records, 0, "every record shape is known");
        let count = |kind| s.events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(EventKind::AuthEstablished), 1);
        assert_eq!(count(EventKind::AuthReject), 2);
        let reasons: Vec<_> = s
            .events
            .iter()
            .filter(|e| e.kind == EventKind::AuthReject)
            .filter_map(|e| e.detail.as_deref().and_then(|d| detail_field(d, "reason")))
            .collect();
        assert_eq!(reasons, vec!["bad-mac", "downgrade"]);
        assert_eq!(s.scalars.get("auth.reject_total"), Some(&2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manual_dump_budget_is_bounded() {
        let dir = std::env::temp_dir().join(format!(
            "rbvc-flight-test-{}-budget",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let flight = FlightRecorder::new(0, &dir, 16, Registry::new());
        let mut written = 0;
        for _ in 0..20 {
            if flight.dump("stall").is_some() {
                written += 1;
            }
        }
        assert_eq!(written, 8, "dump storms are capped");
        assert_eq!(flight.dumps(), 8, "attempts past the budget are not dumps");
        assert_eq!(std::fs::read_dir(&dir).expect("dump dir").count(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every line is either JSON or an error naming it; a JSON record of a
    /// shape no dump writes is counted, not fatal.
    #[test]
    fn dump_parser_rejects_garbage_and_counts_foreign_records() {
        let err = FlightDump::parse("{\"t\":\"trace_header\"}\nnot json\n").expect_err("line 2");
        assert!(err.starts_with("line 2:"), "{err}");
        let s = FlightDump::parse("{\"t\":\"future_record\"}\n\n{\"t\":\"trace_header\"}")
            .expect("parses");
        assert_eq!(s.unknown_records, 1);
    }
}
