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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use rbvc_sim::config::ProcessId;
use rbvc_sim::error::{ErrorLog, ProtocolError};
use rbvc_sim::net::NetworkFaults;

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

/// An envelope in flight inside the in-process mesh.
struct Envelope {
    src: ProcessId,
    /// Mesh-clock instant at which this copy becomes deliverable.
    due: u64,
    bytes: Vec<u8>,
}

/// State shared by all endpoints of one in-process mesh.
struct MeshShared {
    txs: Vec<Sender<Envelope>>,
    /// The sim-net fault plan (drop/dup/delay/partition), shared because
    /// `NetworkFaults` draws from one seeded RNG stream.
    faults: Mutex<NetworkFaults>,
    /// Logical mesh clock: advanced by every flush and every receive poll,
    /// so held (delayed) envelopes always become due while anyone is active.
    clock: AtomicU64,
}

/// The in-process transport: the simulator's fault-injected network
/// ([`NetworkFaults`]) adapted behind the [`Transport`] trait, moving the
/// same encoded bytes a socket would.
///
/// Delay semantics: the mesh keeps a logical clock advanced on every flush
/// and poll; a delayed copy is held at the receiver until the clock passes
/// its due time. With [`NetworkFaults::reliable`] every copy is due
/// immediately and delivery is FIFO per link.
pub struct InProcEndpoint {
    id: ProcessId,
    n: usize,
    shared: Arc<MeshShared>,
    rx: Receiver<Envelope>,
    /// Frames queued by `send` awaiting `flush`, in send order.
    outbox: Vec<(ProcessId, Vec<u8>)>,
    /// Delivered-but-not-yet-due envelopes (fault-injected delays).
    held: Vec<Envelope>,
    bytes_sent: u64,
    bytes_received: u64,
    errors: ErrorLog,
}

/// Build a reliable in-process mesh of `n` endpoints.
#[must_use]
pub fn in_proc_mesh(n: usize) -> Vec<InProcEndpoint> {
    in_proc_mesh_with_faults(n, NetworkFaults::reliable())
}

/// Build an in-process mesh whose links obey `faults` (the chaos layer of
/// `rbvc_sim::net`). Self-links are exempt: a process always hears itself.
#[must_use]
pub fn in_proc_mesh_with_faults(n: usize, faults: NetworkFaults) -> Vec<InProcEndpoint> {
    assert!(n > 0, "mesh needs at least one endpoint");
    let mut txs = Vec::with_capacity(n);
    let mut rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel::unbounded();
        txs.push(tx);
        rxs.push(rx);
    }
    let shared = Arc::new(MeshShared {
        txs,
        faults: Mutex::new(faults),
        clock: AtomicU64::new(0),
    });
    rxs.into_iter()
        .enumerate()
        .map(|(id, rx)| InProcEndpoint {
            id,
            n,
            shared: Arc::clone(&shared),
            rx,
            outbox: Vec::new(),
            held: Vec::new(),
            bytes_sent: 0,
            bytes_received: 0,
            errors: ErrorLog::new(),
        })
        .collect()
}

impl InProcEndpoint {
    /// Move envelopes from the channel into `held`, then release everything
    /// whose due time has passed.
    fn drain_due(&mut self, now: u64, out: &mut Vec<(ProcessId, Vec<u8>)>) {
        while let Ok(env) = self.rx.try_recv() {
            self.held.push(env);
        }
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].due <= now {
                let env = self.held.swap_remove(i);
                self.bytes_received += env.bytes.len() as u64;
                out.push((env.src, env.bytes));
            } else {
                i += 1;
            }
        }
    }
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
        if self.outbox.is_empty() {
            return Ok(());
        }
        let now = self.shared.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut faults = self.shared.faults.lock();
        for (dst, bytes) in self.outbox.drain(..) {
            if dst == self.id {
                // Self-link: process-internal, exempt from faults and from
                // the wire byte counters.
                let _ = self.shared.txs[dst].send(Envelope {
                    src: self.id,
                    due: 0,
                    bytes,
                });
                continue;
            }
            self.bytes_sent += bytes.len() as u64;
            // A dead receiver is indistinguishable from a slow one in an
            // asynchronous network; dropping the envelope is the honest
            // semantics, not an error.
            let deliver = |delay: u64, bytes| {
                let _ = self.shared.txs[dst].send(Envelope { src: self.id, due: now + delay, bytes });
            };
            // The frame itself is the last copy; only a duplicate is cloned.
            if let Some((&last, duplicates)) = faults.route(self.id, dst, now).split_last() {
                duplicates.iter().for_each(|&delay| deliver(delay, bytes.clone()));
                deliver(last, bytes);
            }
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Vec<(ProcessId, Vec<u8>)> {
        let now = self.shared.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut out = Vec::new();
        self.drain_due(now, &mut out);
        if out.is_empty() && self.held.is_empty() {
            // Nothing pending at all: block for the first arrival.
            if let Ok(env) = self.rx.recv_timeout(timeout) {
                self.held.push(env);
                self.drain_due(now, &mut out);
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
    fn lossy_links_drop_frames_but_polling_releases_delays() {
        use rbvc_sim::net::LinkFault;
        // 100% duplication with extra delay: copies are held, then released
        // as subsequent polls advance the mesh clock.
        let fault = LinkFault {
            dup_prob: 1.0,
            max_extra_delay: 3,
            ..LinkFault::reliable()
        };
        let mut mesh = in_proc_mesh_with_faults(2, NetworkFaults::new(5, fault));
        mesh[0].send(1, vec![8]).unwrap();
        mesh[0].flush().unwrap();
        let mut got = Vec::new();
        for _ in 0..10 {
            got.extend(mesh[1].recv_timeout(Duration::from_millis(10)));
            if got.len() >= 2 {
                break;
            }
        }
        assert_eq!(got.len(), 2, "duplicated copy must arrive after polling");
    }
}
