//! The flight recorder — the event stream's one sink — and [`Obs`], the
//! handle code emits through.
//!
//! A service that arms health with a flight directory owns one
//! [`FlightRecorder`]: a bounded ring of its recent events that dumps a
//! self-describing JSONL black-box file (read back by [`FlightDump::parse`])
//! on a safety-monitor violation, a stall past its dump deadline, or a panic
//! (via [`arm_panic_hook`]). Emission sites hold an [`Obs`] and call
//! [`Obs::emit`] with a *closure* that builds the event; without a recorder
//! the closure never runs, so an unarmed node pays one branch and no
//! allocation.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock, PoisonError, Weak};

use serde::Value;

use crate::clock;
use crate::event::{Event, EventKind};
use crate::metrics::{HistSnapshot, Registry};

/// Cloneable emission handle: the flight recorder, if one is armed, and a
/// default node tag applied to events that did not set their own. The
/// `Default` handle has no recorder: emitting through it is a no-op.
/// Timestamps come from the process-wide monotonic clock ([`crate::clock`]),
/// so every handle — and every thread — stamps onto one coherent timeline.
#[derive(Clone, Default)]
pub struct Obs {
    flight: Option<Arc<FlightRecorder>>,
    node: Option<u32>,
}

impl Obs {
    /// Handle over `flight`.
    #[must_use]
    pub fn new(flight: Arc<FlightRecorder>) -> Obs {
        Obs { flight: Some(flight), node: None }
    }

    /// A clone of this handle that stamps `node` on every event emitted
    /// through it that has no node tag of its own.
    #[must_use]
    pub fn with_node(&self, node: u32) -> Obs {
        Obs { node: Some(node), ..self.clone() }
    }

    /// The flight recorder behind this handle, if one is armed.
    #[must_use]
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Record the event built by `build` — *iff* a flight recorder is
    /// armed. The closure only runs then, so call sites may allocate freely
    /// inside it.
    pub fn emit<F: FnOnce() -> Event>(&self, build: F) {
        let Some(flight) = &self.flight else {
            return;
        };
        let mut event = build();
        event.time_us = clock::now_us();
        if event.node.is_none() {
            event.node = self.node;
        }
        flight.record(event);
    }
}

/// The ring's contents: the most recent events and how many were evicted.
struct Ring {
    buf: VecDeque<Event>,
    dropped: u64,
}

/// The always-on flight recorder: a bounded ring of recent events that can
/// dump itself — ring contents, a reason record, and the full metrics
/// registry — as a self-describing JSONL black-box file at any moment.
///
/// Events reach it through an [`Obs`]. The ring keeps the most recent
/// `capacity` of them and counts (not silently discards) the overflow.
/// Dumps trigger:
///
/// * automatically, when a [`EventKind::Violation`] event is recorded;
/// * from the service, when a stall crosses its dump deadline;
/// * from the panic hook installed by [`arm_panic_hook`] — which reads a
///   ring whose lock a panicking emitter poisoned: every update leaves the
///   ring whole.
///
/// Dump files land in the configured directory (created at the first dump)
/// as `flight-node<N>-<reason>-<seq>.jsonl` and parse with [`FlightDump`]
/// (zero unknown records).
pub struct FlightRecorder {
    node: u32,
    dir: PathBuf,
    capacity: usize,
    ring: Mutex<Ring>,
    /// Dump attempts: the budget and the file sequence number.
    attempts: AtomicU64,
    /// Dump files written.
    dumps: AtomicU64,
    max_dumps: u64,
    registry: Registry,
}

impl FlightRecorder {
    /// Ring of `capacity` events (at least 16) for `node`, dumping into
    /// `dir` and snapshotting `registry` into every dump.
    #[must_use]
    pub fn new(node: u32, dir: impl AsRef<Path>, capacity: usize, registry: Registry) -> FlightRecorder {
        FlightRecorder {
            node,
            dir: dir.as_ref().to_path_buf(),
            capacity: capacity.max(16),
            ring: Mutex::new(Ring { buf: VecDeque::new(), dropped: 0 }),
            attempts: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            max_dumps: 8,
            registry,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Buffer one (already stamped) event, evicting the oldest when full.
    fn record(&self, event: Event) {
        let violation = event.kind == EventKind::Violation;
        {
            let mut ring = self.lock();
            if ring.buf.len() == self.capacity {
                ring.buf.pop_front();
                ring.dropped += 1;
            }
            ring.buf.push_back(event);
        }
        if violation {
            // A safety violation is the one thing the black box exists
            // for: dump immediately, while the ring still holds the
            // events that led up to it.
            let _ = self.dump("violation");
        }
    }

    /// Copy of the buffered events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.lock().buf.iter().cloned().collect()
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Dump files written so far (attempts past the budget and failed
    /// writes do not count).
    #[must_use]
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::SeqCst)
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
            let ring = self.lock();
            (ring.buf.iter().cloned().collect::<Vec<_>>(), ring.dropped)
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
        let _ = std::fs::create_dir_all(&self.dir);
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

    /// A recorder whose directory is never written unless a test dumps.
    fn ring(node: u32, capacity: usize, tag: &str) -> Arc<FlightRecorder> {
        let dir = std::env::temp_dir().join(format!("rbvc-flight-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(FlightRecorder::new(node, dir, capacity, Registry::new()))
    }

    #[test]
    fn noop_obs_never_builds_the_event() {
        let obs = Obs::default();
        assert!(obs.flight().is_none());
        obs.emit(|| unreachable!("no recorder, so no event is constructed"));
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let flight = ring(0, 16, "ring");
        let obs = Obs::new(Arc::clone(&flight));
        for i in 0..20u64 {
            obs.emit(|| Event::new(EventKind::Decide).instance(i));
        }
        let instances: Vec<_> = flight.events().iter().filter_map(|e| e.instance).collect();
        assert_eq!(instances, (4..20).collect::<Vec<_>>(), "the 16 most recent, oldest first");
        assert_eq!(flight.dropped(), 4);
        assert_eq!(flight.dumps(), 0);
    }

    #[test]
    fn baked_tags_apply_to_untagged_events_only() {
        let flight = ring(0, 16, "tags");
        let obs = Obs::new(Arc::clone(&flight)).with_node(7);
        obs.emit(|| Event::new(EventKind::Decide));
        obs.emit(|| Event::new(EventKind::Decide).node(2));
        let nodes: Vec<_> = flight.events().iter().map(|e| e.node).collect();
        assert_eq!(nodes, [Some(7), Some(2)]);
    }

    #[test]
    fn timestamps_are_monotone_nondecreasing() {
        let flight = ring(0, 16, "clock");
        let obs = Obs::new(Arc::clone(&flight));
        for _ in 0..3 {
            obs.emit(|| Event::new(EventKind::GateReject));
        }
        let t: Vec<u64> = flight.events().iter().map(|e| e.time_us).collect();
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ring_survives_concurrent_node_threads() {
        // The thread-safety contract of the ring: many OS threads hammering
        // one shared recorder must lose nothing and tear nothing. Every
        // (node, seq) pair is encoded in the event detail and must come back
        // exactly once with a self-consistent node tag.
        use std::collections::HashSet;

        let threads = 8usize;
        let per_thread = 500usize;
        let flight = ring(0, threads * per_thread, "threads");
        let obs = Obs::new(Arc::clone(&flight));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let obs = obs.with_node(t as u32);
                std::thread::spawn(move || {
                    for seq in 0..per_thread {
                        obs.emit(|| {
                            Event::new(EventKind::GateReject).detail(format!("node={t} seq={seq}"))
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("emitter thread panicked");
        }
        let events = flight.events();
        assert_eq!(events.len(), threads * per_thread, "no event lost");
        assert_eq!(flight.dropped(), 0);
        let mut seen: HashSet<(u32, usize)> = HashSet::new();
        for e in &events {
            let detail = e.detail.as_deref().expect("detail present");
            let field = |key| crate::event::detail_field(detail, key).and_then(|v| v.parse().ok());
            let (node, seq) = (field("node").expect("node intact"), field("seq").expect("seq intact"));
            assert_eq!(e.node, Some(node as u32), "node tag torn from detail");
            assert!(seen.insert((node as u32, seq)), "duplicate event ({node},{seq})");
        }
        assert_eq!(seen.len(), threads * per_thread);
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
        let obs = Obs::new(Arc::clone(&flight)).with_node(2);
        for i in 0..5u64 {
            obs.emit(|| Event::new(EventKind::GateReject).instance(i).round(0));
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
        assert_eq!(s.events.iter().filter(|e| e.kind == EventKind::GateReject).count(), 5);
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
        let obs = Obs::new(Arc::clone(&flight)).with_node(1);
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

