#![warn(missing_docs)]

//! # rbvc-transport
//!
//! Point-to-point transports and the multi-instance consensus service for
//! relaxed Byzantine vector consensus — the layer that takes the protocol
//! state machines of `rbvc-core` off the simulator and onto real sockets.
//!
//! * [`wire`] — the binary frame codec (`instance | round | sender | typed
//!   payload`) with strict decode validation: malformed or Byzantine bytes
//!   are rejected at the frame boundary as
//!   [`rbvc_sim::error::ProtocolError`], never a panic.
//! * [`transport`] — the [`transport::Transport`] trait (queued sends,
//!   per-peer batched flush, authenticated receive) and the in-process mesh:
//!   one reliable, FIFO-per-link channel per endpoint.
//! * [`tcp`] — the real-socket implementation over `std::net` TCP:
//!   length-prefixed framing, per-peer connection management, dial retry
//!   with exponential backoff, and the one accept loop (shared with the
//!   client port).
//! * [`lockstep`] — the round synchronizer that runs any
//!   [`rbvc_sim::sync::SyncProtocol`] over an asynchronous substrate with
//!   deterministic (sender-ordered) round delivery.
//! * [`service`] — [`service::ConsensusService`]: many concurrent SyncBvc /
//!   VerifiedAveraging instances multiplexed over one socket mesh, demuxed
//!   by instance id — the one driver of a core that does no I/O
//!   (`service/node.rs`); the module docs name its parts.
//! * [`client`] — the external-client wire codec and [`client::ClientPort`],
//!   the TCP front-end that pumps client submits into the service.
//! * [`byzantine`] — [`byzantine::ByzantineEndpoint`]: a [`transport::Transport`]
//!   wrapper that runs live adversaries over the real wire, each a list of
//!   [`byzantine::Attack`]s from one seeded registry table and each built
//!   from what the modules above export of their formats — the E20
//!   campaign's weapon rack.
//! * [`auth`] — from-scratch SHA-256 / HMAC-SHA-256 (offline build, no
//!   crypto crates), pairwise key derivation from a mesh seed, and the
//!   challenge–response handshake — its codec, dialer and responder — that
//!   makes link identity forgery-proof.
//!
//! Both transports carry identical encoded bytes and both protocol drivers
//! deliver deterministically, so the same seed decides identically whether
//! frames cross a channel or a socket — the property the integration tests
//! pin down.

pub mod auth;
pub mod byzantine;
pub mod client;
pub mod lockstep;
pub mod service;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use auth::{derive_pair_key, hmac_sha256, sha256, MeshAuth, Sha256};
pub use byzantine::{AttackPolicy, AttackRegistry, AttackStats, ByzantineEndpoint, PayloadCrafter};
pub use client::{
    decode_client_frame, encode_client_frame, read_client_frame_bytes, write_client_frame,
    ClientFrame, ClientPort,
};
pub use lockstep::{Lockstep, RoundBatch};
pub use service::{
    client_instance_owner, ClientAdmission, ClientConfig, ClientStats, ConsensusService,
    DecisionEvent, InstanceProto, Phase, PhaseNanos, CLIENT_INSTANCE_BASE,
};
pub use tcp::{tcp_mesh_loopback, tcp_mesh_loopback_authenticated, TcpEndpoint};
pub use transport::{in_proc_mesh, AuthEvent, InProcEndpoint, Transport};
pub use wire::{decode_frame, encode_frame, Frame, Payload};
