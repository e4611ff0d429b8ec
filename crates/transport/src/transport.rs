//! The [`Transport`] abstraction: point-to-point delivery of encoded frames
//! over a complete `n`-process mesh, plus the in-process implementation.
//!
//! Both implementations carry the *same encoded bytes* end to end, so a
//! protocol run is byte-identical regardless of which transport moves the
//! frames — the property the cross-transport identity tests pin down.
//!
//! Degrade-don't-panic at this boundary: an outbound frame addressed to a
//! ghost peer, or a peer whose link has died, is dropped and recorded in the
//! endpoint's [`ErrorLog`]; the node keeps serving its remaining peers.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};
use rbvc_sim::config::ProcessId;
use rbvc_sim::error::{ErrorLog, ProtocolError};

/// A link-identity verdict surfaced by an authenticating transport: each
/// completed or refused handshake becomes one event, drained by the
/// service layer through [`Transport::take_auth_events`] and re-emitted as
/// structured `auth_established` / `auth_reject` observability events (so
/// identity attacks land in the flight recorder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthEvent {
    /// A keyed challenge–response handshake from `peer` verified; the
    /// inbound link entered authenticated session `epoch`.
    Established {
        /// The proven peer identity.
        peer: ProcessId,
        /// Monotonic per-peer session epoch the replay guard binds to.
        epoch: u64,
    },
    /// A handshake failed verification and the connection was refused.
    Rejected {
        /// The *claimed* identity, when the record got far enough to claim
        /// one (`None`: rejected before any id could be parsed).
        peer: Option<ProcessId>,
        /// Stable reason label (`bad-mac`, `downgrade`, `ghost-peer`, …).
        reason: String,
    },
}

/// Point-to-point frame delivery over a complete mesh of `n` endpoints.
///
/// Contract shared by all implementations:
///
/// * [`Transport::send`] *queues* an encoded frame for `dst`; nothing hits
///   the wire until [`Transport::flush`], which writes each peer's queued
///   frames as one batch (one syscall per peer on the TCP transport).
/// * Self-addressed frames bypass the network entirely: the self-link is a
///   process-internal queue, delivered by the next
///   [`Transport::recv_timeout`] and excluded from the byte counters.
/// * [`Transport::recv_timeout`] returns every frame available within the
///   timeout as `(link peer, bytes)` pairs. The link peer is
///   *transport-authenticated* (channel index in-process, HELLO handshake
///   over TCP) — the service layer cross-checks it against the frame
///   header's claimed sender.
/// * Faults degrade, they never panic: ghost destinations and dead links
///   are recorded in [`Transport::errors`] and the frame is dropped.
pub trait Transport: Send {
    /// This endpoint's process id.
    fn local_id(&self) -> ProcessId;

    /// Mesh size.
    fn n(&self) -> usize;

    /// Queue one encoded frame for `dst`.
    ///
    /// # Errors
    /// [`ProtocolError::Transport`] if `dst` is not a process of this mesh
    /// or its link has degraded permanently (the error is also recorded).
    fn send(&mut self, dst: ProcessId, frame: Vec<u8>) -> Result<(), ProtocolError>;

    /// Push all queued frames onto the wire, one batch per peer.
    ///
    /// # Errors
    /// [`ProtocolError::Transport`] if any link write failed; surviving
    /// links are still flushed.
    fn flush(&mut self) -> Result<(), ProtocolError>;

    /// Receive frames, waiting up to `timeout` for the first one, then
    /// draining everything immediately available.
    fn recv_timeout(&mut self, timeout: Duration) -> Vec<(ProcessId, Vec<u8>)>;

    /// Like [`Transport::recv_timeout`], but each frame carries its arrival
    /// timestamp (µs on the `rbvc_obs::clock` timeline) so the service can
    /// tell time queued behind a busy poll loop (`service.frame.queue_us`)
    /// from time on the wire.
    /// The default stamps at return — correct ordering, zero queueing
    /// visibility; the TCP endpoint overrides it with per-frame stamps
    /// taken in its reader threads.
    fn recv_timeout_stamped(&mut self, timeout: Duration) -> Vec<(ProcessId, u64, Vec<u8>)> {
        let frames = self.recv_timeout(timeout);
        let now = rbvc_obs::clock::now_us();
        frames.into_iter().map(|(peer, bytes)| (peer, now, bytes)).collect()
    }

    /// Peers whose outbound link was re-established since the last call
    /// (a TCP redial after a peer restart or write failure). The service
    /// layer replays its outbound history to the returned peers so frames
    /// lost in the gap are recovered (receivers deduplicate). Default:
    /// none — the in-process mesh never loses a link.
    fn take_reconnects(&mut self) -> Vec<ProcessId> {
        Vec::new()
    }

    /// Current health of every inbound link, for the stall detector's
    /// wire-vs-barrier blame split and the `/status` document. Default:
    /// empty — the in-process mesh has no links that can sicken, and an
    /// empty reading makes the health layer fall back to protocol-level
    /// evidence alone. The TCP endpoint overrides it with its
    /// [`rbvc_obs::LinkMonitor`] snapshot.
    fn link_health(&self) -> Vec<rbvc_obs::LinkHealth> {
        Vec::new()
    }

    /// Drain the link-identity verdicts (handshakes established/refused)
    /// observed since the last call. Default: none — only authenticating
    /// transports produce them. The service layer re-emits each as a
    /// structured observability event.
    fn take_auth_events(&mut self) -> Vec<AuthEvent> {
        Vec::new()
    }

    /// Bytes put on the wire by this endpoint (length prefixes included;
    /// self-delivery excluded).
    fn bytes_sent(&self) -> u64;

    /// Bytes received off the wire by this endpoint.
    fn bytes_received(&self) -> u64;

    /// Degradation events this endpoint has survived.
    fn errors(&self) -> ErrorLog;
}

/// What an in-process channel carries: the sending endpoint and the frame.
type Arrival = (ProcessId, Vec<u8>);

/// The in-process transport: one unbounded channel per endpoint carrying
/// `(link peer, bytes)`, moving the same encoded bytes a socket would.
/// Delivery is reliable and FIFO per link — the fault-free substrate; link
/// faults live in the simulator (`AsyncEngine::run_chaos`).
pub struct InProcEndpoint {
    id: ProcessId,
    n: usize,
    txs: Arc<[Sender<Arrival>]>,
    rx: Receiver<Arrival>,
    /// Frames queued by `send` awaiting `flush`, in send order.
    outbox: Vec<(ProcessId, Vec<u8>)>,
    bytes_sent: u64,
    bytes_received: u64,
    errors: ErrorLog,
}

/// Build a reliable in-process mesh of `n` endpoints.
#[must_use]
pub fn in_proc_mesh(n: usize) -> Vec<InProcEndpoint> {
    assert!(n > 0, "mesh needs at least one endpoint");
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| channel::unbounded()).unzip();
    let txs: Arc<[_]> = txs.into();
    rxs.into_iter()
        .enumerate()
        .map(|(id, rx)| InProcEndpoint {
            id,
            n,
            txs: Arc::clone(&txs),
            rx,
            outbox: Vec::new(),
            bytes_sent: 0,
            bytes_received: 0,
            errors: ErrorLog::new(),
        })
        .collect()
}

impl Transport for InProcEndpoint {
    fn local_id(&self) -> ProcessId {
        self.id
    }

    fn n(&self) -> usize {
        self.n
    }

    fn send(&mut self, dst: ProcessId, frame: Vec<u8>) -> Result<(), ProtocolError> {
        if dst >= self.n {
            let e = ProtocolError::Transport {
                peer: Some(dst),
                reason: format!("ghost destination {dst} in a {}-process mesh", self.n),
            };
            self.errors.record(e.clone());
            return Err(e);
        }
        self.outbox.push((dst, frame));
        Ok(())
    }

    fn flush(&mut self) -> Result<(), ProtocolError> {
        for (dst, bytes) in self.outbox.drain(..) {
            if dst != self.id {
                self.bytes_sent += bytes.len() as u64;
            }
            // A dead receiver is indistinguishable from a slow one in an
            // asynchronous network; dropping the frame is the honest
            // semantics, not an error.
            let _ = self.txs[dst].send((self.id, bytes));
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Vec<(ProcessId, Vec<u8>)> {
        let rx = &self.rx;
        let mut out: Vec<_> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        if out.is_empty() {
            // Nothing queued: block for the first arrival, then take what
            // came with it.
            out.extend(rx.recv_timeout(timeout));
            out.extend(std::iter::from_fn(|| rx.try_recv().ok()));
        }
        for (src, bytes) in &out {
            if *src != self.id {
                self.bytes_received += bytes.len() as u64;
            }
        }
        out
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    fn errors(&self) -> ErrorLog {
        self.errors.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_flow_between_endpoints() {
        let mut mesh = in_proc_mesh(3);
        mesh[0].send(1, vec![1, 2, 3]).unwrap();
        mesh[0].send(2, vec![4]).unwrap();
        mesh[0].send(0, vec![9]).unwrap(); // self
        mesh[0].flush().unwrap();
        let got = mesh[1].recv_timeout(Duration::from_millis(100));
        assert_eq!(got, vec![(0, vec![1, 2, 3])]);
        let got = mesh[2].recv_timeout(Duration::from_millis(100));
        assert_eq!(got, vec![(0, vec![4])]);
        let got = mesh[0].recv_timeout(Duration::from_millis(100));
        assert_eq!(got, vec![(0, vec![9])]);
        assert_eq!(mesh[0].bytes_sent(), 4, "self-delivery is not wire bytes");
        assert_eq!(mesh[1].bytes_received(), 3);
    }

    #[test]
    fn ghost_destination_degrades_and_is_recorded() {
        let mut mesh = in_proc_mesh(2);
        let e = mesh[0].send(7, vec![1]).expect_err("ghost must fail");
        assert!(matches!(e, ProtocolError::Transport { peer: Some(7), .. }));
        assert_eq!(mesh[0].errors().total(), 1);
        // The endpoint keeps working afterwards.
        mesh[0].send(1, vec![2]).unwrap();
        mesh[0].flush().unwrap();
        assert_eq!(
            mesh[1].recv_timeout(Duration::from_millis(100)),
            vec![(0, vec![2])]
        );
    }

    #[test]
    fn self_delivery_is_outside_both_byte_counters() {
        let mut mesh = in_proc_mesh(2);
        mesh[0].send(0, vec![1, 2, 3]).unwrap();
        mesh[0].flush().unwrap();
        assert_eq!(mesh[0].recv_timeout(Duration::from_millis(100)), vec![(0, vec![1, 2, 3])]);
        assert_eq!((mesh[0].bytes_sent(), mesh[0].bytes_received()), (0, 0));
    }

    #[test]
    fn delivery_is_fifo_per_link() {
        let mut mesh = in_proc_mesh(3);
        for b in 1..=5u8 {
            mesh[0].send(1, vec![b]).unwrap();
        }
        mesh[0].flush().unwrap();
        mesh[2].send(1, vec![9]).unwrap();
        mesh[2].flush().unwrap();
        let got: Vec<u8> = mesh[1]
            .recv_timeout(Duration::from_millis(100))
            .into_iter()
            .map(|(_, bytes)| bytes[0])
            .collect();
        assert_eq!(got, [1, 2, 3, 4, 5, 9]);
    }
}
