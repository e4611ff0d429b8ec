//! Typed protocol errors — re-exported from `rbvc-sim`.
//!
//! [`ProtocolError`] historically lived here; it moved down into
//! `rbvc_sim::error` so the simulators (`rbvc-sim`) and the transports
//! and service (`rbvc-transport`) can degrade through the
//! same typed error without a dependency cycle.  This
//! module re-exports it so every existing `rbvc_core::ProtocolError` /
//! `crate::error::ProtocolError` call site keeps compiling unchanged.
//!
//! See `rbvc_sim::error` for the degrade-don't-panic contract every receive
//! boundary follows.

pub use rbvc_sim::error::{ErrorLog, ProtocolError};
