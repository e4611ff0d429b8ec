#![warn(missing_docs)]

//! # rbvc-store
//!
//! The durability layer of the relaxed-BVC workspace: a checksummed,
//! length-prefixed, append-only **write-ahead log** ([`Wal`]) plus the typed
//! [`WalRecord`] codec the consensus service writes through.
//!
//! The paper's algorithms assume a correct process never forgets what it
//! already sent or decided. A process that restarts with amnesia can send a
//! round-`r` message that conflicts with one it sent before the crash —
//! accidental equivocation, exactly the two-faced behaviour Byzantine vector
//! consensus is designed to survive *from faulty nodes only*. The WAL closes
//! that gap: every state-changing step (instance registration, launch,
//! accepted inbound frames, outbound frames, witness commits, decisions) is
//! appended before it takes effect externally, so a restarted node can
//! replay the log and re-derive exactly the state it crashed with.
//!
//! Design contract (mirrors the workspace's degrade-don't-panic policy):
//!
//! * every record carries a CRC-32 over its payload; a corrupted record is
//!   *detected*, never silently replayed;
//! * recovery yields the **longest valid prefix**: replay stops at the first
//!   torn or corrupted record and truncates the file there, so a crash mid-
//!   append (torn tail) or a flipped bit costs the suffix, never a panic and
//!   never a bad record;
//! * the log only grows: a restart replays it from the first record.

pub mod crc32;
pub mod records;
pub mod wal;

pub use records::{decode_record, encode_record_into, DstSet, WalRecord};
pub use wal::{RecordBatch, ReplayReport, StoreError, Wal, MAX_RECORD_LEN, WAL_MAGIC};
