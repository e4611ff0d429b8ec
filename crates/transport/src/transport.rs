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
/// * There is no self-link: a node's frames to itself never reach its
///   transport (the service delivers them), and a send to the local id is
///   refused like one to a ghost.
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
    /// [`ProtocolError::Transport`] if `dst` is not another process of this
    /// mesh or its link has degraded permanently (the error is also recorded).
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

    /// The `up` / `auth` state of every inbound link, for the stall
    /// detector's wire-vs-barrier blame split (reading it also sets the
    /// `health.link.up` / `health.link.auth` gauges on `/metrics`). Default:
    /// empty — the in-process mesh has no links that can sicken, and an
    /// empty reading makes the health layer fall back to protocol-level
    /// evidence alone. The TCP endpoint overrides it with the per-peer state
    /// it keeps beside each writer and generation.
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

    /// Bytes put on the wire by this endpoint (length prefixes included).
    fn bytes_sent(&self) -> u64;

    /// Bytes received off the wire by this endpoint.
    fn bytes_received(&self) -> u64;

    /// Degradation events this endpoint has survived.
    fn errors(&self) -> ErrorLog;
}

/// What an in-process channel carries: the sending endpoint and the frames
/// one flush of it queued for this destination, in send order.
type Arrival = (ProcessId, Vec<Vec<u8>>);

/// The in-process transport: one unbounded channel per endpoint carrying
/// `(link peer, frames)`, one batch per sender per flush, moving the same
/// encoded bytes a socket would. Delivery is reliable and FIFO per link —
/// the fault-free substrate; link faults are injected by wrapping an
/// endpoint (E16's `ChaosEndpoint` in `rbvc-bench`), never in here.
pub struct InProcEndpoint {
    id: ProcessId,
    n: usize,
    txs: Arc<[Sender<Arrival>]>,
    rx: Receiver<Arrival>,
    /// Frames queued by `send` awaiting `flush`, per destination in send
    /// order; sized at the first send, so building a mesh allocates nothing
    /// per endpoint.
    outbox: Vec<Vec<Vec<u8>>>,
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
        if dst >= self.n || dst == self.id {
            let e = ProtocolError::Transport {
                peer: Some(dst),
                reason: format!("no link from {} to {dst} in a {}-process mesh", self.id, self.n),
            };
            self.errors.record(e.clone());
            return Err(e);
        }
        if self.outbox.is_empty() {
            self.outbox.resize_with(self.n, Vec::new);
        }
        self.outbox[dst].push(frame);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), ProtocolError> {
        for (dst, queued) in self.outbox.iter_mut().enumerate() {
            if queued.is_empty() {
                continue;
            }
            self.bytes_sent += queued.iter().map(|bytes| bytes.len() as u64).sum::<u64>();
            // A dead receiver is indistinguishable from a slow one in an
            // asynchronous network; dropping the frames is the honest
            // semantics, not an error.
            let _ = self.txs[dst].send((self.id, std::mem::take(queued)));
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Vec<(ProcessId, Vec<u8>)> {
        let rx = &self.rx;
        let mut batches: Vec<Arrival> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        if batches.is_empty() {
            // Nothing queued: block for the first arrival, then take what
            // came with it.
            batches.extend(rx.recv_timeout(timeout));
            batches.extend(std::iter::from_fn(|| rx.try_recv().ok()));
        }
        let mut out = Vec::with_capacity(batches.iter().map(|(_, frames)| frames.len()).sum());
        for (src, frames) in batches {
            self.bytes_received += frames.iter().map(|bytes| bytes.len() as u64).sum::<u64>();
            out.extend(frames.into_iter().map(|bytes| (src, bytes)));
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
        mesh[0].flush().unwrap();
        let got = mesh[1].recv_timeout(Duration::from_millis(100));
        assert_eq!(got, vec![(0, vec![1, 2, 3])]);
        let got = mesh[2].recv_timeout(Duration::from_millis(100));
        assert_eq!(got, vec![(0, vec![4])]);
        assert_eq!(mesh[0].bytes_sent(), 4);
        assert_eq!(mesh[1].bytes_received(), 3);
    }

    /// A ghost destination and the endpoint's own id — there is no
    /// self-link — are refused alike: the send fails and is recorded,
    /// nothing arrives, and the endpoint keeps working.
    #[test]
    fn ghost_destination_degrades_and_is_recorded() {
        let mut mesh = in_proc_mesh(2);
        for dst in [7, 0] {
            let e = mesh[0].send(dst, vec![1]).expect_err("no link to a ghost or to itself");
            assert!(matches!(e, ProtocolError::Transport { peer: Some(p), .. } if p == dst));
        }
        assert_eq!(mesh[0].errors().total(), 2);
        // The endpoint keeps working afterwards.
        mesh[0].send(1, vec![2]).unwrap();
        mesh[0].flush().unwrap();
        assert_eq!(
            mesh[1].recv_timeout(Duration::from_millis(100)),
            vec![(0, vec![2])]
        );
        assert!(mesh[0].recv_timeout(Duration::ZERO).is_empty());
        assert_eq!((mesh[0].bytes_sent(), mesh[0].bytes_received()), (1, 0));
    }

    /// Two senders, three destinations, sends interleaved across senders and
    /// destinations over two flushes each: every receiver gets what a
    /// channel hop per frame gave — the frames in flush order, each flush's
    /// in send order — and the byte counters count every frame.
    #[test]
    fn delivery_is_fifo_per_link() {
        let mut mesh = in_proc_mesh(3);
        // (sender, Some((destination, payload))) is a send, (sender, None) a flush.
        let script: [(ProcessId, Option<(ProcessId, u8)>); 13] = [
            (0, Some((1, 1))), (1, Some((0, 5))), (0, Some((2, 2))), (1, Some((2, 6))),
            (0, Some((1, 4))), (0, None), (1, Some((2, 8))), (1, None),
            (0, Some((2, 9))), (1, Some((0, 11))), (0, Some((1, 10))), (1, None), (0, None),
        ];
        let mut want: Vec<Vec<(ProcessId, Vec<u8>)>> = vec![Vec::new(); 3];
        let mut queued: Vec<(ProcessId, ProcessId, Vec<u8>)> = Vec::new();
        for &(src, send) in &script {
            if let Some((dst, b)) = send {
                let frame = vec![b; usize::from(b)];
                mesh[src].send(dst, frame.clone()).unwrap();
                queued.push((src, dst, frame));
            } else {
                mesh[src].flush().unwrap();
                for (_, dst, frame) in queued.extract_if(.., |(s, _, _)| *s == src) {
                    want[dst].push((src, frame));
                }
            }
        }
        for (dst, want) in want.iter().enumerate() {
            assert_eq!(&mesh[dst].recv_timeout(Duration::from_millis(100)), want, "receiver {dst}");
        }
        let across = |id: ProcessId, end: fn(ProcessId, ProcessId) -> ProcessId| -> u64 {
            let sends = script.iter().filter_map(|&(src, send)| send.map(|(dst, b)| (src, dst, b)));
            let counted = sends.filter(|&(src, dst, _)| end(src, dst) == id);
            counted.map(|(.., b)| u64::from(b)).sum()
        };
        for (id, endpoint) in mesh.iter().enumerate() {
            assert_eq!(endpoint.bytes_sent(), across(id, |src, _| src), "sent by {id}");
            assert_eq!(endpoint.bytes_received(), across(id, |_, dst| dst), "received by {id}");
        }
        assert_eq!((mesh[2].bytes_sent(), mesh[2].bytes_received()), (0, 2 + 6 + 8 + 9));
    }
}
