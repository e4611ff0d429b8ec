#![warn(missing_docs)]

//! # rbvc-sim
//!
//! Message-passing substrates for Byzantine consensus over a complete
//! network of `n` processes, up to `f` of them Byzantine — the system model
//! of the paper (§3): reliable channels between every pair of processes,
//! synchronous (lockstep rounds) or asynchronous (eventual delivery under an
//! adversarial scheduler). Channels here are always reliable; unreliable
//! links are injected into the real service's transport instead (E16,
//! `exp chaos`), where the service's reconnect history replay recovers them.
//!
//! * [`config`] — system configuration `(n, f)` and fault-set bookkeeping.
//! * [`sync`] — deterministic lockstep round engine with pluggable Byzantine
//!   adversaries (equivocation is per-recipient message control).
//! * [`eig`] — Exponential Information Gathering Byzantine broadcast
//!   (`f + 1` rounds, `n ≥ 3f + 1`), the "Byzantine broadcast … such as
//!   \[12\]" that Step 1 of ALGO calls for. It is the only Step 1: the
//!   paper's model has no signatures, and at `n ≥ 3f + 1` none are needed
//!   (DESIGN.md §2 sizes a signed one in bytes).
//! * [`fuzz`] — the adversary layer: [`fuzz::Edited`], the honest machine
//!   with its sends edited, behind constructors that name the edits
//!   (follow, crash, two-faced, lying relay, duplicating), and the seeded
//!   fuzzers.
//! * [`asynch`] — event-driven asynchronous engine with seeded/adversarial
//!   schedulers guaranteeing eventual delivery.
//! * [`bracha`] — Bracha's reliable broadcast (init/echo/ready), the
//!   asynchronous substrate of (Relaxed) Verified Averaging.
//! * [`error`] — [`ProtocolError`], the workspace-wide typed error currency,
//!   and the degrade-don't-panic contract for receive boundaries.
//! * execution statistics (message/round counts) are
//!   [`rbvc_obs::ExecutionTrace`].

pub mod asynch;
pub mod bracha;
pub mod config;
pub mod eig;
pub mod error;
pub mod fuzz;
pub mod sync;

pub use config::{ProcessId, SystemConfig};
pub use error::{ErrorLog, ProtocolError};
pub use sync::{RoundEngine, SyncAdversary, SyncNode, SyncProtocol};
