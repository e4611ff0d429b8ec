//! Typed protocol errors — the single error currency of the workspace.
//!
//! Malformed input — a Byzantine payload with NaN components, a witness set
//! referencing ghost processes, a run specification that cannot possibly
//! satisfy the paper's bounds — used to `panic!` deep inside the protocol
//! state machines.  That is the wrong failure domain: a poisoned message
//! should degrade the *one node* that received it (it stays undecided and the
//! run records why), while an impossible experiment specification should be
//! reported to the caller as an `Err`, not a crash.
//!
//! [`ProtocolError`] is the single error currency for both cases.  It lives
//! in `rbvc-sim` (the bottom of the protocol stack) so that every layer —
//! the simulators' receive boundaries, the protocol state machines in
//! `rbvc-core`, and the transports and service in `rbvc-transport` — can
//! surface faults through the same type; `rbvc_core::ProtocolError`
//! re-exports it, so existing call sites are unaffected.
//!
//! ## The degrade-don't-panic rule
//!
//! Every receive boundary in the workspace follows the same contract:
//!
//! 1. **Validate before trusting.** A payload is checked (finite components,
//!    in-range ids, sane lengths) before it can touch protocol state.
//! 2. **Degrade locally.** A failed check discards the message and records a
//!    [`ProtocolError`]; at most the *sender's influence* on this one node
//!    is lost. The node keeps serving traffic.
//! 3. **Never panic on remote input.** Panics are reserved for harness bugs
//!    (wrong node count, misplaced fault set) — things no remote byte
//!    sequence can trigger.

use crate::config::ProcessId;
use std::fmt;

/// Everything that can go wrong inside a protocol node, a transport, or an
/// experiment runner without being a bug in this workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The experiment specification is internally inconsistent (wrong number
    /// of inputs, zero processes, mismatched dimensions, ...).
    InvalidSpec {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// A safe-area intersection (Γ(X) in `DeltaMode::Zero`) came up empty.
    ///
    /// With `n < (d+2)f + 1` this is expected — the paper's Theorem 2 bound
    /// is violated — but it can also be provoked at runtime by Byzantine
    /// values, so it must not panic.
    EmptyIntersection {
        /// Protocol round in which the combination step failed.
        round: usize,
        /// Description of the combining mode that failed.
        mode: &'static str,
    },
    /// A received payload failed receive-boundary validation (non-finite
    /// components, dimension mismatch, out-of-range process ids, oversized
    /// witness sets, undecodable bytes).  The message is discarded; only the
    /// sender's influence is lost.
    MalformedPayload {
        /// Claimed sender of the offending message.
        from: ProcessId,
        /// What exactly was malformed.
        reason: String,
    },
    /// A transport-level fault: a peer could not be dialed within the retry
    /// budget, a connection died mid-stream, or an outbound frame addressed
    /// a nonexistent peer.  The affected link degrades; the node keeps
    /// serving its remaining peers.
    Transport {
        /// Peer on the other end of the failing link, if known.
        peer: Option<ProcessId>,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::InvalidSpec { reason } => {
                write!(f, "invalid experiment specification: {reason}")
            }
            ProtocolError::EmptyIntersection { round, mode } => {
                write!(
                    f,
                    "empty intersection in round {round} ({mode}); \
                     the n >= (d+2)f + 1 bound is likely violated"
                )
            }
            ProtocolError::MalformedPayload { from, reason } => {
                write!(f, "malformed payload from process {from}: {reason}")
            }
            ProtocolError::Transport { peer, reason } => match peer {
                Some(p) => write!(f, "transport fault on link to process {p}: {reason}"),
                None => write!(f, "transport fault: {reason}"),
            },
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A bounded in-node log of degradation events.
///
/// Receive boundaries that degrade instead of panicking need somewhere to
/// record *why* a message was discarded without growing unboundedly under a
/// Byzantine flood. `ErrorLog` keeps the first [`ErrorLog::CAP`] errors and
/// counts the rest.
#[derive(Debug, Clone, Default)]
pub struct ErrorLog {
    errors: Vec<ProtocolError>,
    total: u64,
}

impl ErrorLog {
    /// Retained-error cap; further errors are counted but not stored.
    pub const CAP: usize = 64;

    /// A fresh, empty log.
    #[must_use]
    pub fn new() -> Self {
        ErrorLog::default()
    }

    /// Record one degradation event.
    pub fn record(&mut self, e: ProtocolError) {
        self.total += 1;
        if self.errors.len() < Self::CAP {
            self.errors.push(e);
        }
    }

    /// The retained errors (at most [`ErrorLog::CAP`]), in arrival order.
    #[must_use]
    pub fn errors(&self) -> &[ProtocolError] {
        &self.errors
    }

    /// Total degradation events, including those beyond the retention cap.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True iff nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ProtocolError::EmptyIntersection { round: 0, mode: "gamma" };
        assert!(e.to_string().contains("round 0"));
        let e = ProtocolError::MalformedPayload { from: 7, reason: "NaN component".into() };
        assert!(e.to_string().contains("process 7"));
        assert!(e.to_string().contains("NaN"));
        let e = ProtocolError::InvalidSpec { reason: "n == 0".into() };
        assert!(e.to_string().contains("n == 0"));
        let e = ProtocolError::Transport { peer: Some(3), reason: "dial refused".into() };
        assert!(e.to_string().contains("process 3"));
        let e = ProtocolError::Transport { peer: None, reason: "listener died".into() };
        assert!(e.to_string().contains("listener died"));
    }

    #[test]
    fn error_log_caps_retention_but_counts_everything() {
        let mut log = ErrorLog::new();
        assert!(log.is_empty());
        for i in 0..(ErrorLog::CAP as u64 + 10) {
            log.record(ProtocolError::MalformedPayload {
                from: i as usize,
                reason: "flood".into(),
            });
        }
        assert_eq!(log.errors().len(), ErrorLog::CAP);
        assert_eq!(log.total(), ErrorLog::CAP as u64 + 10);
        assert!(!log.is_empty());
    }
}
