//! Post-hoc trace analysis: parse a JSONL trace back into a per-run
//! summary.
//!
//! A trace file is newline-delimited JSON with six record shapes, all
//! self-describing via their `t` field: `trace_header` (first line: clock
//! name plus the wall-clock anchor of the monotonic epoch), `event` (see
//! [`crate::Event`]), `counter`/`gauge` (registry dumps), `hist`
//! (histogram snapshots), `kernel` (timing cells), and `flight` (the
//! reason record of a flight-recorder black-box dump). Blank lines are
//! skipped; unknown record types are counted but tolerated, so traces
//! stay forward-compatible.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};
use crate::metrics::HistSnapshot;
use crate::timing::KernelStat;

/// Extract the value of a `key=value` token from an event detail string.
#[must_use]
pub fn detail_field<'a>(detail: &'a str, key: &str) -> Option<&'a str> {
    detail
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// Everything a trace says about one run.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Parsed event lines.
    pub events: Vec<Event>,
    /// Event counts by kind.
    pub by_kind: BTreeMap<EventKind, u64>,
    /// Receive-gate rejection counts, keyed by the `gate=` detail class.
    pub gate_rejections: BTreeMap<String, u64>,
    /// Per-instance decide latency in µs: the slowest node's
    /// `latency_us=` among that instance's decide events.
    pub decide_latency_us: BTreeMap<u64, u64>,
    /// Decide events seen (one per node per instance).
    pub decide_events: u64,
    /// Monitor violations seen.
    pub violations: u64,
    /// Dumped counters and gauges, keyed by metric name.
    pub scalars: BTreeMap<String, i128>,
    /// Dumped histograms, keyed by metric name.
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Kernel timing cells.
    pub kernels: Vec<KernelStat>,
    /// Largest event timestamp (µs since the process monotonic epoch).
    pub wall_us: u64,
    /// Smallest event timestamp, when any event was seen. The monotonic
    /// epoch is process start, not run start, so run duration is
    /// [`TraceSummary::span_us`], not `wall_us`.
    pub first_event_us: Option<u64>,
    /// Wall-clock anchor (µs since the Unix epoch) of the monotonic epoch,
    /// from the trace header.
    pub wall_epoch_unix_us: Option<u64>,
    /// Why a flight-recorder dump was written (`violation` / `stall` /
    /// `panic`), when the trace is a black-box file.
    pub flight_reason: Option<String>,
    /// Events the flight-recorder ring evicted before the dump, from the
    /// flight record.
    pub flight_ring_dropped: Option<u64>,
    /// Lines that parsed as JSON but matched no known record shape.
    pub unknown_records: u64,
}

impl TraceSummary {
    /// Parse a whole trace.
    ///
    /// # Errors
    /// The line number and parser message of the first malformed line
    /// (not-JSON; unknown-but-valid records are tolerated and counted).
    pub fn parse(text: &str) -> Result<TraceSummary, String> {
        let mut s = TraceSummary::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = serde_json::from_str(line)
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if let Some(ev) = Event::from_value(&value) {
                s.absorb_event(ev);
            } else if value.get("t").and_then(serde::Value::as_str) == Some("trace_header") {
                s.wall_epoch_unix_us =
                    value.get("wall_epoch_unix_us").and_then(serde::Value::as_u64);
            } else if value.get("t").and_then(serde::Value::as_str) == Some("flight") {
                s.flight_reason = value
                    .get("reason")
                    .and_then(serde::Value::as_str)
                    .map(String::from);
                s.flight_ring_dropped =
                    value.get("ring_dropped").and_then(serde::Value::as_u64);
            } else if let Some((name, hist)) = HistSnapshot::from_value(&value) {
                s.histograms.insert(name, hist);
            } else if let Some(k) = KernelStat::from_value(&value) {
                s.kernels.push(k);
            } else if let Some((name, v)) = scalar_from_value(&value) {
                s.scalars.insert(name, v);
            } else {
                s.unknown_records += 1;
            }
        }
        Ok(s)
    }

    fn absorb_event(&mut self, ev: Event) {
        *self.by_kind.entry(ev.kind).or_insert(0) += 1;
        self.wall_us = self.wall_us.max(ev.time_us);
        self.first_event_us = Some(match self.first_event_us {
            Some(first) => first.min(ev.time_us),
            None => ev.time_us,
        });
        match ev.kind {
            EventKind::GateReject => {
                let gate = ev
                    .detail
                    .as_deref()
                    .and_then(|d| detail_field(d, "gate"))
                    .unwrap_or("unclassified")
                    .to_string();
                *self.gate_rejections.entry(gate).or_insert(0) += 1;
            }
            EventKind::Decide => {
                self.decide_events += 1;
                if let (Some(inst), Some(us)) = (
                    ev.instance,
                    ev.detail
                        .as_deref()
                        .and_then(|d| detail_field(d, "latency_us"))
                        .and_then(|v| v.parse::<u64>().ok()),
                ) {
                    let slot = self.decide_latency_us.entry(inst).or_insert(0);
                    *slot = (*slot).max(us);
                }
            }
            EventKind::Violation => self.violations += 1,
            _ => {}
        }
        self.events.push(ev);
    }

    /// First-to-last event span in µs (run duration under the process-wide
    /// monotonic clock, whose zero predates the run).
    #[must_use]
    pub fn span_us(&self) -> u64 {
        self.wall_us.saturating_sub(self.first_event_us.unwrap_or(self.wall_us))
    }

    /// Count of events of `kind`.
    #[must_use]
    pub fn count(&self, kind: EventKind) -> u64 {
        self.by_kind.get(&kind).copied().unwrap_or(0)
    }

    /// Decide-latency percentile from the per-instance table (exact,
    /// nearest-rank); NaN when no instance carried a latency.
    #[must_use]
    pub fn decide_latency_percentile_us(&self, p: f64) -> f64 {
        let mut xs: Vec<u64> = self.decide_latency_us.values().copied().collect();
        if xs.is_empty() {
            return f64::NAN;
        }
        xs.sort_unstable();
        let rank = ((p / 100.0) * xs.len() as f64).ceil().max(1.0) as usize;
        xs[rank.min(xs.len()) - 1] as f64
    }
}

fn scalar_from_value(v: &serde::Value) -> Option<(String, i128)> {
    let t = v.get("t")?.as_str()?;
    if t != "counter" && t != "gauge" {
        return None;
    }
    let name = v.get("name")?.as_str()?.to_string();
    let value = match v.get("value")? {
        serde::Value::UInt(u) => i128::from(*u),
        serde::Value::Int(i) => i128::from(*i),
        _ => return None,
    };
    Some((name, value))
}

/// Render the summary as the human-readable per-run report printed by
/// `exp obs`.
#[must_use]
pub fn render_report(s: &TraceSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "trace: {} events, wall {:.3} s", s.events.len(), s.span_us() as f64 / 1e6);
    if let Some(reason) = &s.flight_reason {
        let _ = writeln!(
            out,
            "flight-recorder dump: reason {reason}, {} ring evictions before dump",
            s.flight_ring_dropped.unwrap_or(0)
        );
    }

    let _ = writeln!(out, "\nevents by kind:");
    for kind in EventKind::ALL {
        let n = s.count(kind);
        if n > 0 {
            let _ = writeln!(out, "  {:<18} {n}", kind.as_str());
        }
    }

    let _ = writeln!(out, "\nreceive-gate rejections:");
    if s.gate_rejections.is_empty() {
        let _ = writeln!(out, "  (none)");
    }
    for (gate, n) in &s.gate_rejections {
        let _ = writeln!(out, "  {gate:<18} {n}");
    }

    if !s.decide_latency_us.is_empty() {
        let _ = writeln!(
            out,
            "\ndecide latency over {} instances (submit -> decide, slowest node):",
            s.decide_latency_us.len()
        );
        for p in [50.0, 90.0, 99.0, 100.0] {
            let _ = writeln!(
                out,
                "  p{:<5} {:>10.3} ms",
                p,
                s.decide_latency_percentile_us(p) / 1e3
            );
        }
    }
    if let Some(h) = s.histograms.get("service.decide.latency_us") {
        let _ = writeln!(
            out,
            "decide latency histogram: n = {}, p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            h.count,
            h.percentile(50.0) / 1e3,
            h.percentile(99.0) / 1e3,
            h.max as f64 / 1e3
        );
    }

    if !s.kernels.is_empty() {
        let _ = writeln!(out, "\nkernel time (inclusive):");
        for k in &s.kernels {
            if k.calls > 0 {
                let _ = writeln!(
                    out,
                    "  {:<15} {:>9} calls  {:>12.3} ms total  {:>9.1} us/call",
                    k.kernel.as_str(),
                    k.calls,
                    k.nanos as f64 / 1e6,
                    k.mean_us()
                );
            }
        }
    }

    if !s.scalars.is_empty() {
        let _ = writeln!(out, "\nmetrics:");
        for (name, v) in &s.scalars {
            let _ = writeln!(out, "  {name:<40} {v}");
        }
        for (name, h) in &s.histograms {
            let _ = writeln!(
                out,
                "  {name:<40} n={} mean={:.1} max={}",
                h.count,
                h.mean(),
                h.max
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::recorder::{JsonlRecorder, Obs, Recorder};
    use std::sync::Arc;

    #[test]
    fn detail_fields_are_extracted() {
        assert_eq!(detail_field("gate=auth from=5", "gate"), Some("auth"));
        assert_eq!(detail_field("gate=auth from=5", "from"), Some("5"));
        assert_eq!(detail_field("gate=auth", "missing"), None);
    }

    #[test]
    fn parse_rejects_garbage_lines() {
        assert!(TraceSummary::parse("{\"t\":\"event\"}\nnot json\n").is_err());
    }

    /// End-to-end: write a trace through the JSONL recorder, parse it
    /// back, and check every table.
    #[test]
    fn jsonl_trace_round_trips_through_the_summary() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rbvc_obs_report_test_{}.jsonl", std::process::id()));
        {
            let rec = Arc::new(JsonlRecorder::create(&path).expect("create trace"));
            let obs = Obs::new(Arc::clone(&rec) as Arc<dyn Recorder>);
            obs.emit(|| Event::new(EventKind::RoundStart).node(0).instance(1).round(0));
            obs.emit(|| Event::new(EventKind::GateReject).node(1).detail("gate=auth from=9"));
            obs.emit(|| Event::new(EventKind::GateReject).node(1).detail("gate=decode"));
            obs.emit(|| {
                Event::new(EventKind::Decide).node(0).instance(1).detail("latency_us=1500")
            });
            obs.emit(|| {
                Event::new(EventKind::Decide).node(1).instance(1).detail("latency_us=2500")
            });
            let reg = Registry::new();
            reg.counter("x.count").add(4);
            reg.histogram("service.decide.latency_us").record(2500);
            for line in reg.to_jsonl_lines() {
                rec.write_raw(&line);
            }
            rec.write_raw(r#"{"t":"future_record","x":1}"#);
            rec.flush();
        }
        let text = std::fs::read_to_string(&path).expect("read trace");
        let _ = std::fs::remove_file(&path);
        let s = TraceSummary::parse(&text).expect("parses");
        assert_eq!(s.count(EventKind::GateReject), 2);
        assert_eq!(s.gate_rejections.get("auth"), Some(&1));
        assert_eq!(s.gate_rejections.get("decode"), Some(&1));
        assert_eq!(s.decide_events, 2);
        assert_eq!(s.decide_latency_us.get(&1), Some(&2500), "slowest node wins");
        assert_eq!(s.scalars.get("x.count"), Some(&4));
        assert_eq!(s.histograms["service.decide.latency_us"].count, 1);
        assert_eq!(s.unknown_records, 1, "trace_header is a known record");
        assert!(s.wall_epoch_unix_us.is_some(), "header anchors the epoch");
        assert!(s.span_us() <= s.wall_us);
        let report = render_report(&s);
        assert!(report.contains("gate_reject"));
        assert!(report.contains("auth"));
    }
}
