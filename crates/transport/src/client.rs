//! The external-client port: wire codec and TCP front-end for client
//! requests (ISSUE 8).
//!
//! Clients are not mesh peers: they dial a node's *client port* — a
//! separate listener from the node-to-node mesh — and speak their own
//! length-prefixed protocol:
//!
//! ```text
//! frame:  len u32 (1 ≤ len ≤ MAX_CLIENT_FRAME_LEN), then len bytes of
//!
//! magic "RC" | version u8 | kind u8 | body …
//!   kind 1 Submit:   session u64 | reqno u64 | dim u32 | f64 …
//!   kind 2 Reply:    session u64 | reqno u64 | dim u32 | f64 …
//!   kind 3 Redirect: node u32
//!   kind 4 Busy:     (empty body)
//! ```
//!
//! all little-endian, `f64` components as IEEE-754 bit patterns. Like the
//! node-to-node codec in [`crate::wire`], [`decode_client_frame`] is a
//! **total function over untrusted bytes**: every read is bounds-checked,
//! every length field is validated against a hard cap and the bytes
//! actually present before any allocation, trailing bytes are rejected,
//! and no input byte sequence panics. A frame that fails to decode is
//! counted (`client.port.reject`) and dropped — it never reaches the
//! client table.
//!
//! [`ClientPort`] owns a listener (the mesh endpoint's accept loop,
//! [`crate::tcp`]) that hands each inbound connection to a reader thread
//! pumping length-prefixed frames into a queue; [`ClientPort::pump`] drains
//! that queue into the service's client table
//! ([`ConsensusService::client_submit`]) and writes the responses — cached
//! replies, redirects, busy signals, and the replies of freshly decided
//! instances — back to the connections that asked. A framing violation
//! (oversized or zero length prefix, mid-frame EOF) poisons only that one
//! connection, and so does a reply write that does not finish within
//! [`WRITE_TIMEOUT`]: the pump runs on the node's poll thread, which
//! a client that stops reading must not stall.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use rbvc_linalg::VecD;
use rbvc_obs::Registry;

use crate::service::{ClientAdmission, ConsensusService};
use crate::tcp::{append_frame, Listener, WRITE_TIMEOUT};
use crate::transport::Transport;
use crate::wire::{put_vecd, Reader};

/// Client frame magic: distinct from the node-to-node `"RB"`.
pub const CLIENT_MAGIC: [u8; 2] = *b"RC";
/// Client wire format version.
pub const CLIENT_VERSION: u8 = 1;
/// Largest client frame the framing layer accepts (1 MiB — a max-dimension
/// vector is ~32 KiB, so this is generous without inviting memory bombs).
pub const MAX_CLIENT_FRAME_LEN: usize = 1 << 20;
/// Bytes of the fixed client header (magic, version, kind); the body follows.
pub const CLIENT_HEADER_LEN: usize = 4;
/// Offset of the vector-dimension field of a `Submit` (and `Reply`): the
/// header, then session u64 and reqno u64. What a length forgery overwrites.
pub const SUBMIT_DIM_OFFSET: usize = CLIENT_HEADER_LEN + 16;

/// One message of the client protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Client → node: run consensus on `value` for `(session, reqno)`.
    Submit {
        /// Client session (the dedup/routing key; owner = `session % n`).
        session: u64,
        /// The session's monotonic request number.
        reqno: u64,
        /// The vector to submit.
        value: VecD,
    },
    /// Node → client: the decision for `(session, reqno)`. Retries of an
    /// answered request return the identical cached bytes.
    Reply {
        /// Echoed session.
        session: u64,
        /// Echoed request number.
        reqno: u64,
        /// The decided vector.
        decision: VecD,
    },
    /// Node → client: this node does not own the session; dial `node`.
    Redirect {
        /// The owning node's process id.
        node: u32,
    },
    /// Node → client: admission queue full — back off and retry.
    Busy,
}

/// Encode a client frame (infallible: local data is trusted).
#[must_use]
pub fn encode_client_frame(frame: &ClientFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&CLIENT_MAGIC);
    out.push(CLIENT_VERSION);
    match frame {
        ClientFrame::Submit { session, reqno, value } => {
            out.push(1);
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&reqno.to_le_bytes());
            put_vecd(&mut out, value);
        }
        ClientFrame::Reply { session, reqno, decision } => {
            out.push(2);
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&reqno.to_le_bytes());
            put_vecd(&mut out, decision);
        }
        ClientFrame::Redirect { node } => {
            out.push(3);
            out.extend_from_slice(&node.to_le_bytes());
        }
        ClientFrame::Busy => out.push(4),
    }
    out
}

/// Decode one client frame.
///
/// # Errors
/// A human-readable reason on any structural violation — truncation, bad
/// magic/version, unknown kind, forged length, trailing bytes. Total over
/// arbitrary bytes; no input panics.
pub fn decode_client_frame(bytes: &[u8]) -> Result<ClientFrame, String> {
    let mut r = Reader::new(bytes);
    if r.take(2)? != CLIENT_MAGIC {
        return Err("bad client magic".into());
    }
    let version = r.u8()?;
    if version != CLIENT_VERSION {
        return Err(format!("unsupported client wire version {version}"));
    }
    let frame = match r.u8()? {
        1 => {
            let session = r.u64()?;
            let reqno = r.u64()?;
            let value = r.vecd()?;
            if value.dim() == 0 {
                return Err("empty client vector".into());
            }
            ClientFrame::Submit { session, reqno, value }
        }
        2 => ClientFrame::Reply { session: r.u64()?, reqno: r.u64()?, decision: r.vecd()? },
        3 => ClientFrame::Redirect { node: r.u32()? },
        4 => ClientFrame::Busy,
        k => return Err(format!("unknown client frame kind {k}")),
    };
    r.finish()?;
    Ok(frame)
}

/// Write one length-prefixed client frame to a stream.
///
/// # Errors
/// Propagates the IO error (the caller degrades that one connection).
pub fn write_client_frame(stream: &mut TcpStream, frame: &ClientFrame) -> std::io::Result<()> {
    stream.write_all(&length_prefixed(frame))
}

/// `frame` encoded behind its length prefix, ready for one write.
fn length_prefixed(frame: &ClientFrame) -> Vec<u8> {
    let bytes = encode_client_frame(frame);
    let mut buf = Vec::with_capacity(4 + bytes.len());
    append_frame(&mut buf, &bytes);
    buf
}

/// Read one length-prefixed client frame's raw bytes off a buffered
/// stream: [`crate::tcp::read_frame`] under the client cap.
///
/// # Errors
/// A human-readable reason; the connection is unusable afterwards.
pub fn read_client_frame_bytes(stream: &mut impl BufRead) -> Result<Option<Vec<u8>>, String> {
    crate::tcp::read_frame(stream, MAX_CLIENT_FRAME_LEN)
}

/// One node's client-facing TCP listener plus the connection registry the
/// pump answers through.
pub struct ClientPort {
    listener: Listener,
    /// Raw frames from the reader threads, tagged with their connection id.
    rx: Receiver<(u64, Vec<u8>)>,
    /// Writer half of every live connection, for replies.
    writers: Arc<Mutex<HashMap<u64, TcpStream>>>,
    /// Which connection last submitted for each session — where that
    /// session's replies go. A client that reconnects re-submits (retries
    /// are idempotent), refreshing the mapping.
    session_conns: HashMap<u64, u64>,
    /// Undecodable client frames dropped at the codec boundary.
    rejects: u64,
}

impl ClientPort {
    /// Bind the client port on `addr` (use port 0 for an ephemeral port)
    /// and start accepting connections.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(addr: SocketAddr) -> std::io::Result<ClientPort> {
        let (tx, rx) = channel::unbounded::<(u64, Vec<u8>)>();
        let writers: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let conn_writers = Arc::clone(&writers);
        let mut next_conn = 0u64;
        let listener = Listener::spawn(TcpListener::bind(addr)?, move |stream| {
            let Ok(stream) = stream else { return };
            let conn = next_conn;
            next_conn += 1;
            if let Ok(writer) = stream.try_clone() {
                // The timeout is the socket's: it bounds `respond`'s write.
                let _ = writer.set_write_timeout(Some(WRITE_TIMEOUT));
                conn_writers.lock().insert(conn, writer);
            }
            spawn_conn_reader(stream, conn, tx.clone(), Arc::clone(&conn_writers));
        })?;
        Ok(ClientPort { listener, rx, writers, session_conns: HashMap::new(), rejects: 0 })
    }

    /// The address clients dial.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.addr
    }

    /// Undecodable client frames dropped so far (also on the metrics
    /// registry as `client.port.reject`).
    #[must_use]
    pub fn rejects(&self) -> u64 {
        self.rejects
    }

    /// Write `frame` to connection `conn` in one write, bounded by
    /// [`WRITE_TIMEOUT`]. A connection that fails it — dead, or full
    /// because its client stopped reading — is shut down and dropped (the
    /// client's retry/failover path covers it); so is one that took only
    /// part of the frame, since its stream is left mid-frame.
    fn respond(&mut self, conn: u64, frame: &ClientFrame) {
        let mut writers = self.writers.lock();
        let Some(stream) = writers.get_mut(&conn) else { return };
        let buf = length_prefixed(frame);
        if !matches!(stream.write(&buf), Ok(n) if n == buf.len()) {
            let _ = stream.shutdown(Shutdown::Both);
            writers.remove(&conn);
        }
    }

    /// Drain every queued client frame into the service and answer what can
    /// be answered now: decode (undecodable frames are counted and dropped
    /// — they never reach the client table), feed submits through
    /// [`ConsensusService::client_submit`], send back cached replies /
    /// redirects / busy signals, and deliver the replies of instances that
    /// decided since the last pump. Call once per poll-loop iteration.
    /// Returns the number of submits admitted as new consensus instances.
    pub fn pump<T: Transport>(&mut self, svc: &mut ConsensusService<T>) -> usize {
        let mut admitted = 0;
        while let Ok((conn, bytes)) = self.rx.try_recv() {
            // Only clients originate on this port, and clients only submit:
            // anything else, like an undecodable frame, is a violation.
            let Ok(ClientFrame::Submit { session, reqno, value }) = decode_client_frame(&bytes)
            else {
                self.rejects += 1;
                Registry::global().counter("client.port.reject").inc();
                continue;
            };
            let verdict = svc.client_submit(session, reqno, value);
            // Only a request the table holds gets a route for its reply (a
            // retry from a new connection re-routes an in-flight one): what
            // the table refuses must not grow a map fed by outside input.
            if matches!(
                verdict,
                ClientAdmission::Admitted | ClientAdmission::Queued | ClientAdmission::Stale
            ) {
                self.session_conns.insert(session, conn);
            }
            match verdict {
                ClientAdmission::Reply { reqno, decision } => {
                    self.respond(conn, &ClientFrame::Reply { session, reqno, decision });
                }
                ClientAdmission::Redirect(node) => {
                    self.respond(
                        conn,
                        &ClientFrame::Redirect { node: u32::try_from(node).unwrap_or(u32::MAX) },
                    );
                }
                ClientAdmission::Busy => self.respond(conn, &ClientFrame::Busy),
                ClientAdmission::Admitted => admitted += 1,
                ClientAdmission::Queued | ClientAdmission::Stale | ClientAdmission::Rejected => {}
            }
        }
        for (session, reqno, decision) in svc.take_client_replies() {
            if let Some(conn) = self.session_conns.get(&session).copied() {
                self.respond(conn, &ClientFrame::Reply { session, reqno, decision });
            }
        }
        admitted
    }
}

/// Reader thread for one client connection: pump length-prefixed frames
/// into the port's queue until EOF, a framing violation, or shutdown. Any
/// violation poisons only this connection.
fn spawn_conn_reader(
    stream: TcpStream,
    conn: u64,
    tx: Sender<(u64, Vec<u8>)>,
    writers: Arc<Mutex<HashMap<u64, TcpStream>>>,
) {
    thread::spawn(move || {
        let mut stream = BufReader::new(stream);
        loop {
            match read_client_frame_bytes(&mut stream) {
                Ok(Some(bytes)) => {
                    if tx.send((conn, bytes)).is_err() {
                        break; // port gone
                    }
                }
                Ok(None) => break, // clean EOF
                Err(_) => {
                    Registry::global().counter("client.port.conn_poisoned").inc();
                    break;
                }
            }
        }
        writers.lock().remove(&conn);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ClientConfig;
    use crate::transport::in_proc_mesh;
    use std::time::Duration;

    fn samples() -> Vec<ClientFrame> {
        vec![
            ClientFrame::Submit {
                session: 7,
                reqno: 1,
                value: VecD::from_slice(&[1.5, -2.25]),
            },
            ClientFrame::Reply {
                session: u64::MAX,
                reqno: 0,
                decision: VecD::from_slice(&[0.0]),
            },
            ClientFrame::Redirect { node: 3 },
            ClientFrame::Busy,
        ]
    }

    #[test]
    fn client_frames_round_trip_bit_exactly() {
        for f in samples() {
            let bytes = encode_client_frame(&f);
            assert_eq!(decode_client_frame(&bytes), Ok(f));
        }
        // NaN survives bit-exactly (structural validity only; semantic
        // checks live at the admission boundary).
        let f = ClientFrame::Reply {
            session: 0,
            reqno: 0,
            decision: VecD::from_slice(&[f64::NAN]),
        };
        match decode_client_frame(&encode_client_frame(&f)).expect("decodes") {
            ClientFrame::Reply { decision, .. } => {
                assert!(decision.as_slice()[0].is_nan());
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn every_truncation_and_trailing_byte_is_rejected() {
        for f in samples() {
            let bytes = encode_client_frame(&f);
            for cut in 0..bytes.len() {
                assert!(decode_client_frame(&bytes[..cut]).is_err(), "cut {cut} of {f:?}");
            }
            let mut extended = bytes;
            extended.push(0xEE);
            assert!(decode_client_frame(&extended).is_err(), "trailing byte after {f:?}");
        }
    }

    #[test]
    fn forged_dimension_and_empty_submit_are_rejected() {
        // A Submit claiming a ~4-billion-component vector dies on the
        // allocation guard — which also pins SUBMIT_DIM_OFFSET to the field
        // the encoder writes the dimension into.
        let mut b = encode_client_frame(&samples()[0]);
        b[SUBMIT_DIM_OFFSET..SUBMIT_DIM_OFFSET + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let e = decode_client_frame(&b).expect_err("forged dim");
        assert!(e.contains("vector"), "unexpected: {e}");
        // A zero-dimension submit carries nothing to decide on.
        let empty = ClientFrame::Submit {
            session: 1,
            reqno: 1,
            value: VecD::from_slice(&[]),
        };
        assert!(decode_client_frame(&encode_client_frame(&empty)).is_err());
        // Unknown kind and bad magic.
        assert!(decode_client_frame(&[b'R', b'C', CLIENT_VERSION, 9]).is_err());
        assert!(decode_client_frame(&[b'X', b'C', CLIENT_VERSION, 4]).is_err());
        assert!(decode_client_frame(&[]).is_err());
    }

    /// Submits the table refuses leave nothing behind in the port: 50
    /// redirects for foreign sessions, no routing entry, no session row.
    #[test]
    fn refused_submits_do_not_grow_the_routing_map() {
        let mut svc = ConsensusService::new(in_proc_mesh(2).remove(0));
        svc.enable_client(ClientConfig::default());
        svc.start_deferred();
        let mut port = ClientPort::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let mut conn = TcpStream::connect(port.local_addr()).unwrap();
        for i in 0..50u64 {
            // Odd sessions belong to node 1.
            let submit = ClientFrame::Submit {
                session: 2 * i + 1,
                reqno: 1,
                value: VecD::from_slice(&[1.0]),
            };
            write_client_frame(&mut conn, &submit).unwrap();
        }
        for _ in 0..2_000 {
            port.pump(&mut svc);
            if svc.client_stats().redirects == 50 {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(svc.client_stats().redirects, 50);
        assert_eq!(svc.client_stats().sessions, 0);
        assert_eq!(port.session_conns.len(), 0);
    }

    /// The reply writer of an accepted connection has Nagle off: a reply
    /// leaves at once instead of waiting for the ACK of the one before it.
    #[test]
    fn the_reply_writer_has_nagle_off() {
        let port = ClientPort::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let _client = TcpStream::connect(port.local_addr()).unwrap();
        for _ in 0..2_000 {
            if !port.writers.lock().is_empty() {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        let writers = port.writers.lock();
        assert_eq!(writers.len(), 1, "the connection was accepted");
        assert!(writers.values().all(|w| w.nodelay().unwrap()));
    }

    /// A client that retries a decided request 60 000 times and never reads
    /// the cached replies fills its socket's buffers. The pump writes them
    /// from the node's poll thread, so an unbounded write would block it for
    /// good; bounded, the stuck connection is dropped and 50 pumps return
    /// within 5 s.
    #[test]
    fn a_client_that_stops_reading_does_not_stall_the_pump() {
        let mut mesh: Vec<_> = in_proc_mesh(2).into_iter().map(ConsensusService::new).collect();
        for svc in &mut mesh {
            svc.enable_client(ClientConfig::default());
            svc.start().unwrap();
        }
        // Session 0 belongs to node 0.
        let value = VecD::from_slice(&[0.5; 64]);
        assert_eq!(mesh[0].client_submit(0, 1, value.clone()), ClientAdmission::Admitted);
        let decided = (0..10_000).find(|_| {
            mesh.iter_mut().for_each(|svc| drop(svc.poll(Duration::ZERO)));
            !mesh[0].take_client_replies().is_empty()
        });
        assert!(decided.is_some(), "the request decides");
        let mut svc = mesh.swap_remove(0);
        let mut port = ClientPort::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let mut client = TcpStream::connect(port.local_addr()).unwrap();
        let retries = length_prefixed(&ClientFrame::Submit { session: 0, reqno: 1, value });
        let retries = retries.repeat(1_000);
        (0..60).for_each(|_| client.write_all(&retries).unwrap());
        let (done_tx, done_rx) = channel::unbounded();
        thread::spawn(move || {
            for _ in 0..50 {
                port.pump(&mut svc);
            }
            let _ = done_tx.send((svc.client_stats().dedup_hits, port.writers.lock().len()));
        });
        let (answered, connections) =
            done_rx.recv_timeout(Duration::from_secs(5)).expect("50 pumps return within 5 s");
        assert!(answered > 0, "the retries were answered from the reply cache");
        assert_eq!(connections, 0, "the client that stopped reading is dropped");
    }
}
