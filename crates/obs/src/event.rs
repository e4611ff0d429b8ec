//! Structured protocol events.
//!
//! One [`Event`] records one protocol-level occurrence — a round boundary,
//! a reliable-broadcast delivery, a receive-gate rejection, a decision —
//! tagged with where it happened (`node`), which consensus instance it
//! belongs to (`instance`), and the protocol round, when those are known.
//! Events serialize to single-line JSON (one line per event in a
//! flight-recorder dump) and parse back with it
//! ([`crate::health::FlightDump`]).

use serde::Value;

/// What happened. The variants cover every instrumentation site in the
/// workspace; `as_str` names are the wire/JSON identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A protocol round began (lockstep advance, VA round open).
    RoundStart,
    /// A protocol round completed (all inputs consumed or timed out).
    RoundEnd,
    /// A reliable-broadcast instance delivered (Bracha accept).
    BroadcastAccept,
    /// A witness set passed verification (Verified Averaging commit).
    WitnessCommit,
    /// An inbound message died at a receive gate.
    GateReject,
    /// A consensus instance decided.
    Decide,
    /// A safety monitor observed a violation.
    Violation,
    /// A write-ahead log was replayed at startup (detail carries record
    /// and torn-byte counts).
    WalReplay,
    /// A service finished crash recovery and rejoined the mesh.
    Recovered,
    /// The stall detector diagnosed a stalled instance. `instance`/`round`
    /// locate the stall; detail carries
    /// `phase= waiting_on= stalled_us= escalated=` (the blame report).
    StallDetected,
    /// A previously stalled instance made progress again; detail carries
    /// the final `phase= waiting_on= stalled_us=`.
    StallCleared,
    /// A keyed link handshake verified: the inbound link from `peer` is
    /// now cryptographically authenticated; detail carries the session
    /// `epoch=`.
    AuthEstablished,
    /// A link handshake failed verification. `peer` is the *claimed*
    /// identity when the record got far enough to claim one; detail
    /// carries the `reason=` label (`bad-mac`, `downgrade`, …).
    AuthReject,
}

impl EventKind {
    /// Every kind.
    pub const ALL: [EventKind; 13] = [
        EventKind::RoundStart,
        EventKind::RoundEnd,
        EventKind::BroadcastAccept,
        EventKind::WitnessCommit,
        EventKind::GateReject,
        EventKind::Decide,
        EventKind::Violation,
        EventKind::WalReplay,
        EventKind::Recovered,
        EventKind::StallDetected,
        EventKind::StallCleared,
        EventKind::AuthEstablished,
        EventKind::AuthReject,
    ];

    /// Stable wire name of the kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::RoundStart => "round_start",
            EventKind::RoundEnd => "round_end",
            EventKind::BroadcastAccept => "broadcast_accept",
            EventKind::WitnessCommit => "witness_commit",
            EventKind::GateReject => "gate_reject",
            EventKind::Decide => "decide",
            EventKind::Violation => "violation",
            EventKind::WalReplay => "wal_replay",
            EventKind::Recovered => "recovered",
            EventKind::StallDetected => "stall_detected",
            EventKind::StallCleared => "stall_cleared",
            EventKind::AuthEstablished => "auth_established",
            EventKind::AuthReject => "auth_reject",
        }
    }

    /// Inverse of [`EventKind::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.as_str() == s)
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured protocol event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the process-wide monotonic epoch
    /// ([`crate::clock`]; stamped by [`crate::Obs`]). The wall-clock
    /// instant of that epoch is recorded once, in a dump's header.
    pub time_us: u64,
    /// Process id where the event happened, if attributable.
    pub node: Option<u32>,
    /// Service-wide consensus-instance id, if the site is instance-scoped.
    pub instance: Option<u64>,
    /// Protocol round, if the site is round-scoped.
    pub round: Option<u32>,
    /// Remote endpoint of a link-scoped event: the peer a handshake
    /// verified ([`EventKind::AuthEstablished`]) or claimed to be
    /// ([`EventKind::AuthReject`]).
    pub peer: Option<u32>,
    /// What happened.
    pub kind: EventKind,
    /// Free-form context (`key=value` pairs by convention; the first pair
    /// classifies the event within its kind, e.g. `gate=auth`).
    pub detail: Option<String>,
}

impl Event {
    /// New event of `kind` with every tag unset; `time_us` is stamped at
    /// emission by [`crate::Obs::emit`].
    #[must_use]
    pub fn new(kind: EventKind) -> Event {
        Event {
            time_us: 0,
            node: None,
            instance: None,
            round: None,
            peer: None,
            kind,
            detail: None,
        }
    }

    /// Tag the originating process.
    #[must_use]
    pub fn node(mut self, node: u32) -> Event {
        self.node = Some(node);
        self
    }

    /// Tag the consensus instance.
    #[must_use]
    pub fn instance(mut self, instance: u64) -> Event {
        self.instance = Some(instance);
        self
    }

    /// Tag the protocol round.
    #[must_use]
    pub fn round(mut self, round: u32) -> Event {
        self.round = Some(round);
        self
    }

    /// Tag the remote endpoint of a link-scoped event.
    #[must_use]
    pub fn peer(mut self, peer: u32) -> Event {
        self.peer = Some(peer);
        self
    }

    /// Attach free-form context.
    #[must_use]
    pub fn detail(mut self, detail: impl Into<String>) -> Event {
        self.detail = Some(detail.into());
        self
    }

    /// Render as one JSONL line (no trailing newline). Unset tags are
    /// omitted, so the line stays short on the hot path.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut fields: Vec<(String, Value)> = vec![
            ("t".into(), Value::Str("event".into())),
            ("time_us".into(), Value::UInt(self.time_us)),
            ("kind".into(), Value::Str(self.kind.as_str().into())),
        ];
        if let Some(node) = self.node {
            fields.push(("node".into(), Value::UInt(u64::from(node))));
        }
        if let Some(instance) = self.instance {
            fields.push(("instance".into(), Value::UInt(instance)));
        }
        if let Some(round) = self.round {
            fields.push(("round".into(), Value::UInt(u64::from(round))));
        }
        if let Some(peer) = self.peer {
            fields.push(("peer".into(), Value::UInt(u64::from(peer))));
        }
        if let Some(detail) = &self.detail {
            fields.push(("detail".into(), Value::Str(detail.clone())));
        }
        let mut out = String::new();
        Value::Object(fields).render(&mut out);
        out
    }

    /// Parse an event back from a parsed JSON object; `None` if the value
    /// is not an event line (wrong `t`) or misses required fields.
    #[must_use]
    pub fn from_value(v: &Value) -> Option<Event> {
        if v.get("t")?.as_str()? != "event" {
            return None;
        }
        Some(Event {
            time_us: v.get("time_us")?.as_u64()?,
            node: v.get("node").and_then(Value::as_u64).map(|n| n as u32),
            instance: v.get("instance").and_then(Value::as_u64),
            round: v.get("round").and_then(Value::as_u64).map(|r| r as u32),
            peer: v.get("peer").and_then(Value::as_u64).map(|p| p as u32),
            kind: EventKind::parse(v.get("kind")?.as_str()?)?,
            detail: v.get("detail").and_then(Value::as_str).map(String::from),
        })
    }
}

/// Extract the value of a `key=value` token from an event detail string.
#[must_use]
pub fn detail_field<'a>(detail: &'a str, key: &str) -> Option<&'a str> {
    detail
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detail_fields_are_extracted() {
        assert_eq!(detail_field("gate=auth from=5", "gate"), Some("auth"));
        assert_eq!(detail_field("gate=auth from=5", "from"), Some("5"));
        assert_eq!(detail_field("gate=auth", "missing"), None);
    }

    #[test]
    fn kind_names_round_trip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(EventKind::parse("nonsense"), None);
    }

    #[test]
    fn event_json_round_trips() {
        let ev = Event::new(EventKind::GateReject)
            .node(3)
            .instance(17)
            .round(2)
            .detail("gate=auth from=5");
        let line = ev.to_json_line();
        let v = serde_json::from_str(&line).expect("parses");
        let back = Event::from_value(&v).expect("event line");
        // time_us is stamped at emission; compare the rest.
        assert_eq!(back.node, ev.node);
        assert_eq!(back.instance, ev.instance);
        assert_eq!(back.round, ev.round);
        assert_eq!(back.kind, ev.kind);
        assert_eq!(back.detail, ev.detail);
    }

    #[test]
    fn every_tag_round_trips() {
        let mut ev = Event::new(EventKind::AuthEstablished)
            .node(4)
            .instance(9)
            .round(1)
            .peer(2)
            .detail("epoch=3");
        ev.time_us = 123_456;
        let v = serde_json::from_str(&ev.to_json_line()).expect("parses");
        assert_eq!(Event::from_value(&v), Some(ev));
    }

    #[test]
    fn unset_tags_are_omitted_from_json() {
        let line = Event::new(EventKind::Decide).to_json_line();
        assert!(!line.contains("node"));
        assert!(!line.contains("instance"));
        assert!(!line.contains("detail"));
    }
}
