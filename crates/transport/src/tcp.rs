//! Real-socket transport: length-prefixed binary framing over `std::net`
//! TCP, with per-peer connection management and dial retry.
//!
//! Topology: every ordered pair gets a *directed* connection — endpoint `i`
//! dials endpoint `j`'s listener and uses that stream exclusively for
//! `i → j` frames, after proving who it is with the [`crate::auth`] keyed
//! handshake. The accept side binds the link to the proved peer once, then
//! tags every frame read off that stream with it; a frame can spoof its
//! *header*, but not the link it arrived on, and the service layer
//! cross-checks the two.
//!
//! Stream format (all little-endian):
//!
//! ```text
//! handshake:  HELLO, CHALLENGE, RESPONSE   (crate::auth)
//! frame:      len u32  (1 ≤ len ≤ MAX_FRAME_LEN)  then len bytes
//! ```
//!
//! Every cost on this path is paid per batch, not per frame: a flush hands
//! each peer's queued frames to the socket in one `write_all`, Nagle is off
//! on every stream (dialed or accepted), and a link's reader takes a batch
//! in through one buffered `read` and hands the endpoint every whole frame
//! of it as one event.
//!
//! ## Link identity
//!
//! Every link, first dial or re-dial, comes up through the keyed
//! challenge–response handshake of [`crate::auth`], which owns both of its
//! sides: the dialer proves itself with [`MeshAuth::prove`], and the reader
//! thread of each accepted stream runs [`auth::respond_handshake`], then
//! only claims the link's generation and pumps frames. A verified handshake
//! claims its peer's next inbound link *generation*, the session epoch its
//! `Established` [`AuthEvent`] reports; a refused one
//! (`auth.reject{peer,reason}`) never touches the live link. A replayed
//! handshake never verifies against a fresh nonce, so a genuinely restarted
//! node supersedes its stale link the moment its handshake verifies, with
//! no timestamp ordering. Protocol *frames* carry no timestamp.
//!
//! Degrade-don't-panic at every socket boundary: a bad HELLO, an oversized
//! or zero length prefix, or a mid-stream read error poisons *that one
//! connection* — it is closed, recorded in the endpoint's [`ErrorLog`], and
//! every other link keeps flowing. A length-prefix violation MUST kill the
//! stream: after it the byte stream has no recoverable frame boundary.
//!
//! ## Reconnection (crash-recovery support)
//!
//! The accept loop runs for the endpoint's whole lifetime, so a restarted
//! peer can dial back in. Its verified handshake supersedes its previous
//! inbound link (the stale reader winds down, its queued frames are
//! discarded) and tears down our outbound stream to it, which predates the
//! restart and is dead or deaf. Outbound links that died — by write
//! failure, peer EOF, or that teardown — are re-dialed lazily on later
//! flushes with exponential backoff, reset on success. Every redial is
//! reported through [`Transport::take_reconnects`], so the service replays
//! its outbound history to the returned peer; receivers deduplicate.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use rbvc_obs::{Counter, Gauge, LinkAuthState, LinkHealth, Registry};
use rbvc_sim::config::ProcessId;
use rbvc_sim::error::{ErrorLog, ProtocolError};

use crate::auth::{self, MeshAuth, Verdict};
use crate::transport::{AuthEvent, Transport};

/// Global counter of dial attempts that failed and were retried; inspect it
/// through the metrics registry (`tcp.dial.retries`).
fn dial_retry_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| Registry::global().counter("tcp.dial.retries"))
}

/// Largest frame the framing layer accepts (16 MiB).
pub const MAX_FRAME_LEN: usize = 16 << 20;
/// How long one write to a mesh peer or a client may block the poll thread
/// before that connection is given up as one that stopped reading.
pub const WRITE_TIMEOUT: Duration = Duration::from_millis(100);
/// Dial retry budget.
pub const DIAL_ATTEMPTS: u32 = 10;
/// First-retry backoff; doubles per attempt, capped at [`DIAL_BACKOFF_CAP`].
pub const DIAL_BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Backoff ceiling.
pub const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(64);
/// Read buffer of every frame reader: one `read` takes in a whole batched
/// flush of small frames.
const READ_BUF_LEN: usize = 64 << 10;
/// Cap on the lazy-redial skip counter: a down peer is re-dialed at most
/// every `REDIAL_SKIP_CAP` flushes once backoff saturates.
pub const REDIAL_SKIP_CAP: u32 = 64;

/// Events flowing from the reader threads to the endpoint, tagged with the
/// inbound link *generation* they were observed on, so the endpoint can
/// discard anything from a link a newer handshake has since superseded.
enum RxEvent {
    /// The frames one read brought in from `peer` on generation `gen`,
    /// stamped with their arrival time (µs on the `rbvc_obs::clock`
    /// timeline), which separates on-wire time from time queued behind a
    /// busy poll loop.
    Frames(ProcessId, u64, u64, Vec<Vec<u8>>),
    /// A keyed handshake from `peer` verified and its link claimed
    /// generation `gen`; a `gen` above 1 supersedes an older link.
    Verified(ProcessId, u64),
    /// The link from `peer` hit clean EOF — the peer closed or crashed.
    /// Not an error: recorded only as a teardown trigger.
    PeerDown(ProcessId, u64),
    /// A connection died (IO error, framing violation): its `(peer, gen)`
    /// once the handshake verified, `None` before.
    LinkDown(Option<(ProcessId, u64)>, String),
    /// A handshake was refused: the claimed peer, when parseable, and the
    /// stable reason label. Unlike [`RxEvent::LinkDown`] this must *not*
    /// tear down or discredit the live link.
    AuthReject(Option<ProcessId>, String),
}

/// An IO failure outside any one link, as a transport error.
fn io_error(what: &'static str) -> impl FnOnce(std::io::Error) -> ProtocolError {
    move |e| ProtocolError::Transport { peer: None, reason: format!("{what} failed: {e}") }
}

/// Dial `addr` with exponential backoff: attempt, sleep 1ms, 2ms, … (capped)
/// between failures, up to [`DIAL_ATTEMPTS`] attempts.
///
/// # Errors
/// [`ProtocolError::Transport`] once the retry budget is exhausted.
pub fn dial_with_backoff(addr: SocketAddr, peer: ProcessId) -> Result<TcpStream, ProtocolError> {
    let mut backoff = DIAL_BACKOFF_BASE;
    let mut last_err = String::new();
    for attempt in 1..=DIAL_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = e.to_string(),
        }
        dial_retry_counter().inc();
        if attempt < DIAL_ATTEMPTS {
            thread::sleep(backoff);
            backoff = (backoff * 2).min(DIAL_BACKOFF_CAP);
        }
    }
    Err(ProtocolError::Transport {
        peer: Some(peer),
        reason: format!("dial {addr} failed after {DIAL_ATTEMPTS} attempts: {last_err}"),
    })
}

/// Read one length-prefixed frame of at most `cap` bytes — the one reader
/// of this framing, shared with the client port ([`crate::client`], whose cap
/// is smaller). `stream` is buffered, so a batch of small frames costs one
/// `read`, not two per frame. `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
/// Truncation, IO failure, or a length prefix outside `1..=cap`; the stream
/// has no recoverable frame boundary afterwards and must be closed.
pub fn read_frame(stream: &mut impl BufRead, cap: usize) -> Result<Option<Vec<u8>>, String> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(format!("length-prefix read failed: {e}")),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > cap {
        // An out-of-range length means the stream is desynchronized or the
        // peer is hostile; there is no frame boundary to resynchronize on.
        return Err(format!("length prefix {len} outside 1..={cap}"));
    }
    let mut buf = vec![0u8; len];
    stream
        .read_exact(&mut buf)
        .map_err(|e| format!("truncated frame body ({len} bytes expected): {e}"))?;
    Ok(Some(buf))
}

/// Read one frame, blocking, then every further frame already whole in the
/// buffer — what one `read` brought in — onto `frames`. `Ok(false)` at a
/// clean EOF; on an error the frames read before it stay in `frames`.
fn read_batch<R: Read>(r: &mut BufReader<R>, frames: &mut Vec<Vec<u8>>) -> Result<bool, String> {
    loop {
        let Some(frame) = read_frame(r, MAX_FRAME_LEN)? else { return Ok(false) };
        frames.push(frame);
        let buf = r.buffer();
        let Some(&[a, b, c, d]) = buf.get(..4) else { return Ok(true) };
        if buf.len() - 4 < u32::from_le_bytes([a, b, c, d]) as usize {
            return Ok(true);
        }
    }
}

/// Append `frame` to `out` behind its length prefix — the one writer of this
/// framing. Callers batch into `out` and hand the stream one `write_all`.
pub fn append_frame(out: &mut Vec<u8>, frame: &[u8]) {
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(frame);
}

/// The accept loop of one bound listener — the one in this crate, shared by
/// [`TcpEndpoint`] and [`crate::client::ClientPort`]. A thread hands every
/// accepted connection, Nagle off, to the owner's `on_accept` for the
/// owner's whole lifetime (a restarted peer re-dials in at any point), and
/// every accept error too, after which it sleeps 1 ms rather than spin.
/// Dropping it releases the port before returning — a restarted node
/// rebinds its old address: it raises the shutdown flag, wakes the blocking
/// accept with a self-dial, and joins the thread if that dial connected (a
/// listener that refused it is already dead; its thread exits on its own).
pub(crate) struct Listener {
    /// The address the listener is bound to.
    pub(crate) addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Listener {
    /// Start accepting on `listener`; fails only if its address is unreadable.
    pub(crate) fn spawn(
        listener: TcpListener,
        mut on_accept: impl FnMut(std::io::Result<TcpStream>) + Send + 'static,
    ) -> std::io::Result<Listener> {
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let thread = thread::spawn(move || loop {
            let conn = listener.accept().map(|(stream, _)| stream);
            if let Ok(stream) = &conn {
                stream.set_nodelay(true).ok();
            }
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let failed = conn.is_err();
            on_accept(conn);
            if failed {
                thread::sleep(Duration::from_millis(1));
            }
        });
        Ok(Listener { addr, shutdown, thread: Some(thread) })
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let woke = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500)).is_ok();
        if let Some(thread) = self.thread.take().filter(|_| woke) {
            let _ = thread.join();
        }
    }
}

/// Everything an endpoint keeps about one process of the mesh, itself
/// included (the self row never dials and is never reported).
struct Peer {
    /// The process's listener address (what this endpoint dials/redials).
    addr: SocketAddr,
    /// Outbound stream (`None`: self, or a link currently down and awaiting
    /// lazy redial).
    writer: Option<TcpStream>,
    /// Frames queued since the last flush, already length-prefixed,
    /// concatenated for a single write.
    outbox: Vec<u8>,
    /// What [`Transport::link_health`] reports: `up` falls on teardown, on a
    /// sever and on the live generation's read error, and rises on a redial
    /// or a verified handshake; `auth` is `Pending` until a handshake from
    /// the peer verifies.
    link: LinkHealth,
    /// Consecutive failed redials, driving the skip backoff.
    redial_failures: u32,
    /// Flushes to skip before the next redial attempt.
    redial_skip: u32,
    /// Set by a successful redial, cleared by the peer's next superseding
    /// handshake — the echo of that redial, which must not tear down the
    /// writer it just built (see [`TcpEndpoint::absorb`]).
    fresh_writer: bool,
    /// Redial veto, set by [`TcpEndpoint::sever_link`]: a severed link
    /// stays severed (fault-injection hook for the health campaign).
    redial_quench: bool,
    /// `tcp.link.tx_frames{src,dst}` / `tcp.link.tx_bytes{src,dst}`.
    tx_frames: Counter,
    tx_bytes: Counter,
}

impl Peer {
    /// The link went down. A downed link has no live authenticated
    /// session; the next handshake decides its fate.
    fn link_down(&mut self) {
        self.link.up = false;
        if self.link.auth == LinkAuthState::Authenticated {
            self.link.auth = LinkAuthState::Pending;
        }
    }

    /// Tear down the outbound link and arm a redial on the next flush.
    fn tear_down(&mut self) {
        self.writer = None;
        self.redial_failures = 0;
        self.redial_skip = 0;
        self.fresh_writer = false;
        self.link_down();
    }
}

/// One process's endpoint of a TCP mesh.
pub struct TcpEndpoint {
    /// Declared first, so dropping the endpoint stops its accept loop and
    /// releases the port before the outbound streams close.
    listener: Listener,
    id: ProcessId,
    /// One row per process, indexed by id.
    peers: Vec<Peer>,
    rx: Receiver<RxEvent>,
    shared: Arc<Shared>,
    /// Peers re-established since the last [`Transport::take_reconnects`].
    pending_reconnects: Vec<ProcessId>,
    /// Link-identity verdicts since the last [`Transport::take_auth_events`].
    pending_auth_events: Vec<AuthEvent>,
    /// High-water mark of any single per-destination outbox, in bytes
    /// (`tcp.outbox.max_bytes{src}`).
    outbox_depth: Gauge,
}

/// What an endpoint shares with its accept loop and reader threads.
struct Shared {
    /// This node's pairwise key share, used by both sides of every
    /// handshake.
    auth: MeshAuth,
    /// Current inbound link generation per peer: a reader that no longer
    /// matches its peer's slot has been superseded by a newer handshake.
    generations: Vec<AtomicU64>,
    /// Responder-side challenge writes count here too.
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    errors: Mutex<ErrorLog>,
}

impl Shared {
    /// Record a transport error about `peer` and hand it back.
    fn record(&self, peer: Option<ProcessId>, reason: String) -> ProtocolError {
        let e = ProtocolError::Transport { peer, reason };
        self.errors.lock().record(e.clone());
        e
    }

    /// Prove this node to `dst` over a freshly dialed `stream`, counting
    /// the handshake's bytes.
    fn prove(&self, stream: &mut TcpStream, dst: ProcessId) -> Result<(), String> {
        self.auth.prove(stream, dst)?;
        self.bytes_sent.fetch_add(auth::DIAL_HANDSHAKE_TX_LEN, Ordering::Relaxed);
        Ok(())
    }
}

/// Spawn the reader of one accepted connection: the [`auth`] responder
/// proves its peer, then the thread claims the peer's next inbound
/// generation and pumps frames into `tx`, one event per read, until the
/// stream dies or a newer link supersedes it.
fn spawn_reader(mut stream: TcpStream, shared: Arc<Shared>, tx: Sender<RxEvent>) {
    thread::spawn(move || {
        let (sent, received) = (&shared.bytes_sent, &shared.bytes_received);
        let peer = match auth::respond_handshake(&mut stream, &shared.auth, sent, received) {
            Verdict::Proved(peer) => peer,
            // Deliberately *not* a `LinkDown`: a forged connection refused
            // at the door must not tear down or discredit the live link.
            Verdict::Refused(peer, reason) => {
                let _ = tx.send(RxEvent::AuthReject(peer, reason.to_string()));
                return;
            }
            Verdict::Silent(reason) => {
                let _ = tx.send(RxEvent::LinkDown(None, reason));
                return;
            }
        };
        // Claim this link's generation, the peer's next session epoch; any
        // older reader for the same peer is now stale and will wind down.
        let (src, dst) = (peer.to_string(), shared.auth.local().to_string());
        let labels = [("src", src.as_str()), ("dst", dst.as_str())];
        let gen = shared.generations[peer].fetch_add(1, Ordering::SeqCst) + 1;
        let _ = tx.send(RxEvent::Verified(peer, gen));
        let rx_frames = Registry::global().counter_with("tcp.link.rx_frames", &labels);
        let rx_bytes = Registry::global().counter_with("tcp.link.rx_bytes", &labels);
        // The handshake read exactly its own records off the raw stream.
        let mut reader = BufReader::with_capacity(READ_BUF_LEN, stream);
        let end = loop {
            let mut frames = Vec::new();
            let read = read_batch(&mut reader, &mut frames);
            // Frames read before an EOF or a bad prefix are still delivered.
            if !frames.is_empty() {
                if shared.generations[peer].load(Ordering::SeqCst) != gen {
                    return; // superseded by a newer handshake
                }
                let arrived_us = rbvc_obs::clock::now_us();
                let bytes = frames.iter().map(|f| 4 + f.len() as u64).sum();
                received.fetch_add(bytes, Ordering::Relaxed);
                rx_frames.add(frames.len() as u64);
                rx_bytes.add(bytes);
                if tx.send(RxEvent::Frames(peer, gen, arrived_us, frames)).is_err() {
                    return; // endpoint gone
                }
            }
            match read {
                Ok(true) => {}
                Ok(false) => break RxEvent::PeerDown(peer, gen), // clean EOF
                Err(reason) => break RxEvent::LinkDown(Some((peer, gen)), reason),
            }
        };
        let _ = tx.send(end);
    });
}

impl TcpEndpoint {
    /// Stand up endpoint `id` of an authenticated mesh: link identity is
    /// proved by the [`crate::auth`] keyed challenge–response handshake,
    /// with this node's pairwise keys derived from the shared mesh
    /// `seed` (which is not retained). All endpoints of the mesh must be
    /// constructed **concurrently** — the dialer blocks on the responder's
    /// challenge, which requires the responder's accept loop to be live.
    ///
    /// # Errors
    /// [`ProtocolError::Transport`] if a peer cannot be dialed within the
    /// retry budget or its handshake fails.
    pub fn connect_with_auth(
        id: ProcessId,
        listener: TcpListener,
        addrs: &[SocketAddr],
        seed: &[u8; 32],
    ) -> Result<Self, ProtocolError> {
        let n = addrs.len();
        assert!(id < n, "endpoint id must index addrs");
        let (tx, rx) = channel::unbounded();
        let shared = Arc::new(Shared {
            auth: MeshAuth::derive(seed, id, n),
            generations: (0..n).map(|_| AtomicU64::new(0)).collect(),
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            errors: Mutex::new(ErrorLog::new()),
        });
        // Each inbound stream gets its own reader; a restarted peer's
        // verified handshake supersedes its stale link.
        let (accepted, reader_tx) = (Arc::clone(&shared), tx);
        let listener = Listener::spawn(listener, move |conn| match conn {
            Ok(stream) => spawn_reader(stream, Arc::clone(&accepted), reader_tx.clone()),
            Err(e) => drop(accepted.record(None, format!("accept failed: {e}"))),
        })
        .map_err(io_error("local_addr"))?;

        // Dial every peer for the outbound direction and prove ourselves.
        let src = id.to_string();
        let mut peers = Vec::with_capacity(n);
        for (dst, &addr) in addrs.iter().enumerate() {
            let writer = if dst == id {
                None
            } else {
                let mut stream = dial_with_backoff(addr, dst)?;
                shared.prove(&mut stream, dst).map_err(|reason| ProtocolError::Transport {
                    peer: Some(dst),
                    reason: format!("handshake with {dst} failed: {reason}"),
                })?;
                Some(stream)
            };
            let dst_s = dst.to_string();
            let labels = [("src", src.as_str()), ("dst", dst_s.as_str())];
            peers.push(Peer {
                addr,
                writer,
                outbox: Vec::new(),
                link: LinkHealth { peer: dst as u32, up: true, auth: LinkAuthState::Pending },
                redial_failures: 0,
                redial_skip: 0,
                fresh_writer: false,
                redial_quench: false,
                tx_frames: Registry::global().counter_with("tcp.link.tx_frames", &labels),
                tx_bytes: Registry::global().counter_with("tcp.link.tx_bytes", &labels),
            });
        }
        let outbox_depth =
            Registry::global().gauge_with("tcp.outbox.max_bytes", &[("src", src.as_str())]);
        Ok(TcpEndpoint {
            listener,
            id,
            peers,
            rx,
            shared,
            pending_reconnects: Vec::new(),
            pending_auth_events: Vec::new(),
            outbox_depth,
        })
    }

    /// Verified inbound handshakes: the sum of the per-peer link
    /// generations, one claimed per handshake. Campaign assertions use it
    /// without touching the process-global registry.
    #[must_use]
    pub fn auth_handshakes(&self) -> u64 {
        self.shared.generations.iter().map(|g| g.load(Ordering::SeqCst)).sum()
    }

    /// Address this endpoint's accept loop is bound to. Attack harnesses
    /// dial it raw to exercise the handshake path from outside the mesh.
    #[must_use]
    pub fn listen_addr(&self) -> SocketAddr {
        self.listener.addr
    }

    /// Fault-injection hook (health campaign): cut the outbound stream to
    /// `dst` — the peer's reader sees EOF and marks the link down — and veto
    /// every redial so the link *stays* severed. Real traffic never calls it.
    pub fn sever_link(&mut self, dst: ProcessId) {
        let Some(peer) = self.peers.get_mut(dst).filter(|_| dst != self.id) else { return };
        if let Some(stream) = peer.writer.take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        peer.outbox.clear();
        peer.redial_quench = true;
        peer.link_down();
    }

    /// Re-dial every down peer whose backoff allows an attempt; a success
    /// restores the writer and queues the peer for a reconnect report.
    fn try_redials(&mut self) {
        for (dst, peer) in self.peers.iter_mut().enumerate() {
            if dst == self.id || peer.writer.is_some() || peer.redial_quench {
                continue;
            }
            if peer.redial_skip > 0 {
                peer.redial_skip -= 1;
                continue;
            }
            let attempt = TcpStream::connect(peer.addr)
                .map_err(|e| e.to_string())
                .and_then(|mut stream| self.shared.prove(&mut stream, dst).map(|()| stream));
            match attempt {
                Ok(stream) => {
                    peer.writer = Some(stream);
                    peer.redial_failures = 0;
                    peer.redial_skip = 0;
                    peer.fresh_writer = true;
                    peer.link.up = true;
                    self.pending_reconnects.push(dst);
                    let (src, dst_s) = (self.id.to_string(), dst.to_string());
                    let labels = [("src", src.as_str()), ("dst", dst_s.as_str())];
                    Registry::global().counter_with("tcp.link.reconnects", &labels).inc();
                }
                Err(_) => {
                    dial_retry_counter().inc();
                    peer.redial_failures = peer.redial_failures.saturating_add(1);
                    peer.redial_skip = (1u32 << peer.redial_failures.min(6)).min(REDIAL_SKIP_CAP);
                }
            }
        }
    }

    /// Fold one reader event into endpoint state; delivers accepted frames
    /// (with their reader-thread arrival stamps) into `out`.
    fn absorb(&mut self, ev: RxEvent, out: &mut Vec<(ProcessId, u64, Vec<u8>)>) {
        let generations = &self.shared.generations;
        let live = |peer: ProcessId, gen: u64| gen == generations[peer].load(Ordering::SeqCst);
        match ev {
            RxEvent::Frames(peer, gen, arrived_us, frames) => {
                // A stale-generation batch arrived before its link was
                // superseded; the restarted peer replays everything that
                // matters, so dropping it here is safe and keeps one
                // logical inbound stream per peer.
                if live(peer, gen) {
                    out.extend(frames.into_iter().map(|bytes| (peer, arrived_us, bytes)));
                }
            }
            RxEvent::Verified(peer, gen) => {
                self.pending_auth_events.push(AuthEvent::Established { peer, epoch: gen });
                if !live(peer, gen) {
                    return; // already superseded; the newer link reports itself
                }
                let row = &mut self.peers[peer];
                // Unless it echoes our own redial (whose writer postdates its
                // teardown; keeping it stops a redial storm), a re-dial means
                // the peer restarted: our outbound stream predates its crash
                // and is dead or deaf, so tear it down now; flush redials.
                if gen > 1 && !std::mem::take(&mut row.fresh_writer) {
                    row.tear_down();
                }
                // After any outbound teardown: the inbound link is verified
                // and live.
                (row.link.up, row.link.auth) = (true, LinkAuthState::Authenticated);
            }
            RxEvent::PeerDown(peer, gen) => {
                if live(peer, gen) {
                    self.peers[peer].tear_down();
                }
            }
            RxEvent::LinkDown(link, reason) => {
                // Only the live link's failure marks the peer down; a
                // superseded reader's error is recorded and nothing more.
                if let Some((p, gen)) = link {
                    if live(p, gen) {
                        self.peers[p].link_down();
                    }
                }
                self.shared.record(link.map(|(p, _)| p), reason);
            }
            RxEvent::AuthReject(peer, reason) => {
                // Recorded and attributed, but deliberately *not* a peer
                // teardown: a forged connection refused at the door must
                // not mark the genuine live link down, nor discredit its
                // session — the state only degrades when none is live.
                if let Some(link) = peer.map(|p| &mut self.peers[p].link) {
                    if link.auth != LinkAuthState::Authenticated {
                        link.auth = LinkAuthState::Failed;
                    }
                }
                self.shared.record(peer, format!("handshake rejected: {reason}"));
                self.pending_auth_events.push(AuthEvent::Rejected { peer, reason });
            }
        }
    }
}

impl Transport for TcpEndpoint {
    fn local_id(&self) -> ProcessId {
        self.id
    }

    fn n(&self) -> usize {
        self.peers.len()
    }

    fn send(&mut self, dst: ProcessId, frame: Vec<u8>) -> Result<(), ProtocolError> {
        if dst >= self.peers.len() || dst == self.id {
            let reason = format!("no link from {} to {dst} in a {}-process mesh", self.id, self.peers.len());
            return Err(self.shared.record(Some(dst), reason));
        }
        let peer = &mut self.peers[dst];
        if peer.writer.is_none() {
            return Err(self.shared.record(Some(dst), "link down awaiting redial".into()));
        }
        append_frame(&mut peer.outbox, &frame);
        peer.tx_frames.inc();
        self.outbox_depth
            .record_max(i64::try_from(peer.outbox.len()).unwrap_or(i64::MAX));
        Ok(())
    }

    fn flush(&mut self) -> Result<(), ProtocolError> {
        self.try_redials();
        let mut first_err = None;
        for (dst, peer) in self.peers.iter_mut().enumerate() {
            if peer.outbox.is_empty() {
                continue;
            }
            let Some(stream) = peer.writer.as_mut() else {
                // Link down: drop the batch — once the redial lands, the
                // service replays its history to this peer, which covers
                // everything discarded here.
                peer.outbox.clear();
                continue;
            };
            let batch = std::mem::take(&mut peer.outbox);
            match stream.write_all(&batch) {
                Ok(()) => {
                    self.shared.bytes_sent.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    peer.tx_bytes.add(batch.len() as u64);
                }
                Err(e) => {
                    // This link is gone, or its peer stopped reading for
                    // `WRITE_TIMEOUT`; degrade it, arm the lazy redial, and
                    // keep flushing the rest of the mesh.
                    let err = self.shared.record(Some(dst), format!("batched write failed: {e}"));
                    peer.tear_down();
                    first_err.get_or_insert(err);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Vec<(ProcessId, Vec<u8>)> {
        let frames = self.recv_timeout_stamped(timeout);
        frames.into_iter().map(|(peer, _, bytes)| (peer, bytes)).collect()
    }

    fn recv_timeout_stamped(&mut self, timeout: Duration) -> Vec<(ProcessId, u64, Vec<u8>)> {
        let mut out = Vec::new();
        // Wait for the first event, then drain whatever else is ready.
        let mut next = self.rx.recv_timeout(timeout).ok();
        while let Some(ev) = next {
            self.absorb(ev, &mut out);
            next = self.rx.try_recv().ok();
        }
        out
    }

    fn take_reconnects(&mut self) -> Vec<ProcessId> {
        let mut peers = std::mem::take(&mut self.pending_reconnects);
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    fn take_auth_events(&mut self) -> Vec<AuthEvent> {
        std::mem::take(&mut self.pending_auth_events)
    }

    /// Every non-self link's state, publishing the `health.link.up` and
    /// `health.link.auth` gauges as a side effect.
    fn link_health(&self) -> Vec<LinkHealth> {
        let dst = self.id.to_string();
        let others = self.peers.iter().map(|p| &p.link).filter(|l| l.peer as usize != self.id);
        others
            .inspect(|l| {
                let src = l.peer.to_string();
                let labels = [("src", src.as_str()), ("dst", dst.as_str())];
                Registry::global().gauge_with("health.link.up", &labels).set(i64::from(l.up));
                Registry::global().gauge_with("health.link.auth", &labels).set(l.auth.as_gauge());
            })
            .cloned()
            .collect()
    }

    fn bytes_sent(&self) -> u64 {
        self.shared.bytes_sent.load(Ordering::Relaxed)
    }

    fn bytes_received(&self) -> u64 {
        self.shared.bytes_received.load(Ordering::Relaxed)
    }

    fn errors(&self) -> ErrorLog {
        self.shared.errors.lock().clone()
    }
}

/// [`tcp_mesh_loopback_authenticated`] under a fresh random mesh seed, for
/// callers that never need the keys.
///
/// # Errors
/// As [`tcp_mesh_loopback_authenticated`].
pub fn tcp_mesh_loopback(n: usize) -> Result<Vec<TcpEndpoint>, ProtocolError> {
    let mut seed = [0u8; 32];
    seed[..16].copy_from_slice(&auth::fresh_nonce());
    seed[16..].copy_from_slice(&auth::fresh_nonce());
    tcp_mesh_loopback_authenticated(n, &seed)
}

/// Stand up a complete loopback mesh of `n` endpoints in this process: binds
/// `n` ephemeral listeners on 127.0.0.1, then connects every ordered pair
/// through the keyed handshake with pairwise keys derived from `seed`.
/// Endpoint `i` of the result is process `i`.
///
/// # Errors
/// [`ProtocolError::Transport`] if binding, any dial, or any handshake fails.
pub fn tcp_mesh_loopback_authenticated(
    n: usize,
    seed: &[u8; 32],
) -> Result<Vec<TcpEndpoint>, ProtocolError> {
    assert!(n > 0, "mesh needs at least one endpoint");
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind(("127.0.0.1", 0)).map_err(io_error("bind"))?;
        addrs.push(l.local_addr().map_err(io_error("local_addr"))?);
        listeners.push(l);
    }
    // Connect endpoints concurrently: every dial blocks until the target
    // listener accepts and its challenge arrives, and all listeners are
    // already bound with their accept loops started first thing in
    // `connect_with_auth`, so the joins cannot deadlock.
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            let addrs = addrs.clone();
            let seed = *seed;
            thread::spawn(move || TcpEndpoint::connect_with_auth(id, listener, &addrs, &seed))
        })
        .collect();
    let panicked = "endpoint construction thread panicked";
    let panicked = |_| ProtocolError::Transport { peer: None, reason: panicked.into() };
    handles.into_iter().map(|h| h.join().map_err(panicked)?).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames cross each way; a send to the endpoint's own id is refused
    /// and recorded as a ghost destination's is, since there is no
    /// self-link.
    #[test]
    fn loopback_mesh_moves_frames_both_ways() {
        let mut mesh = tcp_mesh_loopback(3).expect("mesh");
        mesh[0].send(1, vec![1, 2, 3]).unwrap();
        mesh[1].send(0, vec![4, 5]).unwrap();
        for dst in [2, 3] {
            assert!(matches!(mesh[2].send(dst, vec![6]), Err(ProtocolError::Transport { peer: Some(p), .. }) if p == dst));
        }
        assert_eq!(mesh[2].errors().total(), 2);
        for e in &mut mesh {
            e.flush().unwrap();
        }
        let recv_one = |e: &mut TcpEndpoint| -> (ProcessId, Vec<u8>) {
            for _ in 0..100 {
                let mut got = e.recv_timeout(Duration::from_millis(50));
                if !got.is_empty() {
                    return got.swap_remove(0);
                }
            }
            panic!("no frame arrived");
        };
        assert_eq!(recv_one(&mut mesh[1]), (0, vec![1, 2, 3]));
        assert_eq!(recv_one(&mut mesh[0]), (1, vec![4, 5]));
        assert!(mesh[2].recv_timeout(Duration::from_millis(50)).is_empty());
        assert!(mesh[0].bytes_sent() > 0);
        assert!(mesh[1].bytes_received() > 0);
    }

    #[test]
    fn batching_concatenates_frames_per_peer() {
        let mut mesh = tcp_mesh_loopback(2).expect("mesh");
        // The responder's challenge write counts toward its bytes sent:
        // let it land before taking the baseline.
        assert!(pump_until(&mut mesh[0], |e| e.auth_handshakes() == 1));
        for k in 0..5u8 {
            mesh[0].send(1, vec![k; 3]).unwrap();
        }
        let before = mesh[0].bytes_sent();
        mesh[0].flush().unwrap();
        // 5 frames × (4-byte prefix + 3 bytes payload) in one batch.
        assert_eq!(mesh[0].bytes_sent() - before, 5 * 7);
        let mut got = Vec::new();
        for _ in 0..100 {
            got.extend(mesh[1].recv_timeout(Duration::from_millis(50)));
            if got.len() == 5 {
                break;
            }
        }
        let frames: Vec<Vec<u8>> = got.into_iter().map(|(_, b)| b).collect();
        assert_eq!(frames, (0..5u8).map(|k| vec![k; 3]).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_length_prefix_poisons_only_that_link() {
        let mut mesh = tcp_mesh_loopback(3).expect("mesh");
        // Byte-level attack: write a hostile length prefix directly into
        // endpoint 1's listener-side stream from endpoint 0.
        let poison = u32::MAX.to_le_bytes();
        let writer = mesh[0].peers[1].writer.as_mut().unwrap();
        writer.write_all(&poison).unwrap();
        writer.flush().unwrap();
        // Link 0→1 dies (recorded, not panicked); link 2→1 still works.
        let mut saw_linkdown = false;
        for _ in 0..100 {
            let _ = mesh[1].recv_timeout(Duration::from_millis(20));
            if mesh[1].errors().total() > 0 {
                saw_linkdown = true;
                break;
            }
        }
        assert!(saw_linkdown, "framing violation must be recorded");
        mesh[2].send(1, vec![7]).unwrap();
        mesh[2].flush().unwrap();
        let mut got = Vec::new();
        for _ in 0..100 {
            got.extend(mesh[1].recv_timeout(Duration::from_millis(50)));
            if !got.is_empty() {
                break;
            }
        }
        assert_eq!(got, vec![(2, vec![7])]);
    }

    /// Pump `e` until `pred` holds or ~2 s elapse; returns whether it held.
    fn pump_until(e: &mut TcpEndpoint, mut pred: impl FnMut(&mut TcpEndpoint) -> bool) -> bool {
        for _ in 0..100 {
            let _ = e.recv_timeout(Duration::from_millis(20));
            if pred(e) {
                return true;
            }
        }
        false
    }

    #[test]
    fn authenticated_mesh_moves_frames_and_proves_identity() {
        let seed = [0x42u8; 32];
        let mut mesh = tcp_mesh_loopback_authenticated(3, &seed).expect("auth mesh");
        // Every endpoint verifies a handshake from each of its 2 peers
        // (the dialer returns after *writing* its response; the responder
        // verifies asynchronously, so wait rather than assert instantly).
        for (i, ep) in mesh.iter_mut().enumerate() {
            assert!(
                pump_until(ep, |e| e.auth_handshakes() == 2),
                "endpoint {i} never verified both inbound handshakes"
            );
        }
        mesh[0].send(1, vec![1, 2, 3]).unwrap();
        mesh[1].send(0, vec![4, 5]).unwrap();
        for e in &mut mesh {
            e.flush().unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..100 {
            got.extend(mesh[1].recv_timeout(Duration::from_millis(50)));
            if !got.is_empty() {
                break;
            }
        }
        assert_eq!(got, vec![(0, vec![1, 2, 3])]);
        // Authenticated links surface as such in link health, and the
        // verdicts drain as Established auth events.
        let evs = mesh[1].take_auth_events();
        assert!(
            evs.iter()
                .any(|e| matches!(e, AuthEvent::Established { peer: 0, epoch: 1 })),
            "expected an Established event for peer 0, got {evs:?}"
        );
        for l in mesh[1].link_health() {
            assert_eq!(l.auth, rbvc_obs::LinkAuthState::Authenticated, "peer {}", l.peer);
        }
    }

    #[test]
    fn forged_mac_is_rejected_and_never_delivers_frames() {
        let seed = [7u8; 32];
        let mut mesh = tcp_mesh_loopback_authenticated(2, &seed).expect("auth mesh");
        let victim_addr = mesh[1].listen_addr();
        // The responder verifies asynchronously: let the genuine link from 0
        // reach its verdict first, or the forgery below races it.
        assert!(pump_until(&mut mesh[1], |e| e.auth_handshakes() == 1));
        // Impersonate honest node 0 toward node 1 *without* key_01: run a
        // structurally perfect handshake under the wrong key, then try to
        // push a sentinel frame through.
        let wrong_key = [0xEEu8; 32];
        // Other tests share the global registry: the refusal is a delta.
        let bad_mac = Registry::global()
            .counter_with("auth.reject", &[("peer", "0"), ("reason", "bad-mac"), ("dst", "1")]);
        let bad_macs_before = bad_mac.get();
        let mut s = TcpStream::connect(victim_addr).expect("dial");
        crate::auth::dial_handshake(&mut s, 0, 1, &wrong_key, 1, 999_999).expect("wire IO");
        let sentinel = vec![0xAB; 8];
        let mut forged = Vec::new();
        append_frame(&mut forged, &sentinel);
        let _ = s.write_all(&forged);
        let rejected = pump_until(&mut mesh[1], |e| {
            e.errors().total() > 0
        });
        assert!(rejected, "forged handshake must be recorded as rejected");
        let evs = mesh[1].take_auth_events();
        assert!(
            evs.iter().any(|e| matches!(
                e,
                AuthEvent::Rejected { peer: Some(0), reason } if reason == "bad-mac"
            )),
            "expected a bad-mac rejection attributed to claimed peer 0, got {evs:?}"
        );
        // The genuine live link from 0 keeps its authenticated standing —
        // the refusal is counted on `/metrics` under its reason.
        let health = mesh[1].link_health();
        let l0 = health.iter().find(|l| l.peer == 0).expect("peer 0 row");
        assert_eq!(l0.auth, rbvc_obs::LinkAuthState::Authenticated);
        assert!(bad_mac.get() > bad_macs_before, "the bad-mac refusal is on /metrics");
        // And the sentinel frame never surfaces.
        let mut frames = Vec::new();
        for _ in 0..10 {
            frames.extend(mesh[1].recv_timeout(Duration::from_millis(10)));
        }
        assert!(
            !frames.iter().any(|(_, b)| *b == sentinel),
            "forged frame must not be delivered"
        );
        // The real link still works.
        mesh[0].send(1, vec![9]).unwrap();
        mesh[0].flush().unwrap();
        let mut got = Vec::new();
        for _ in 0..100 {
            got.extend(mesh[1].recv_timeout(Duration::from_millis(50)));
            if !got.is_empty() {
                break;
            }
        }
        assert_eq!(got, vec![(0, vec![9])]);
    }

    /// The endpoint's own link rows follow the link's events: a sever marks
    /// the severed row down, the peer's reader EOF marks its row down and
    /// its session `Pending`, the peer's redial brings its row back up, and
    /// that redial's verified handshake brings the severing side's row up.
    #[test]
    fn link_rows_follow_sever_eof_redial_and_handshake() {
        let mut mesh = tcp_mesh_loopback_authenticated(2, &[5u8; 32]).expect("auth mesh");
        // One peer each: the self row is never reported.
        let row = |e: &TcpEndpoint| match e.link_health()[..] {
            [LinkHealth { up, auth, .. }] => (up, auth),
            ref rows => panic!("one row per peer, none for self: {rows:?}"),
        };
        let verified = (true, LinkAuthState::Authenticated);
        assert_eq!(row(&mesh[0]), (true, LinkAuthState::Pending), "up, not yet believed");
        assert!(pump_until(&mut mesh[0], |e| row(e) == verified));
        assert!(pump_until(&mut mesh[1], |e| row(e) == verified));
        mesh[0].sever_link(1);
        assert_eq!(row(&mesh[0]), (false, LinkAuthState::Pending));
        assert!(pump_until(&mut mesh[1], |e| !row(e).0), "EOF marks the row down");
        assert_eq!(row(&mesh[1]), (false, LinkAuthState::Pending));
        mesh[1].flush().unwrap();
        assert!(row(&mesh[1]).0, "a successful redial is up");
        assert_eq!(mesh[1].take_reconnects(), vec![0]);
        assert!(pump_until(&mut mesh[0], |e| row(e) == verified), "the redial verified");
        assert_eq!(mesh[0].auth_handshakes(), 2);
    }

    #[test]
    fn plaintext_hello_is_a_downgrade_attempt_on_an_auth_mesh() {
        let seed = [9u8; 32];
        let mut mesh = tcp_mesh_loopback_authenticated(2, &seed).expect("auth mesh");
        let victim_addr = mesh[1].listen_addr();
        let mut s = TcpStream::connect(victim_addr).expect("dial");
        s.write_all(&auth::hello(auth::HELLO_VERSION, 0, 123_456)).expect("write v2 hello");
        assert!(pump_until(&mut mesh[1], |e| e.errors().total() > 0));
        let evs = mesh[1].take_auth_events();
        assert!(
            evs.iter().any(|e| matches!(
                e,
                AuthEvent::Rejected { peer: Some(0), reason } if reason == "downgrade"
            )),
            "expected a downgrade rejection, got {evs:?}"
        );
    }

    /// Every accepted stream reaches its owner with Nagle off.
    #[test]
    fn the_listener_hands_over_streams_with_nagle_off() {
        let (tx, rx) = channel::unbounded();
        let bound = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let listener = Listener::spawn(bound, move |s| drop(tx.send(s.and_then(|s| s.nodelay()))))
            .unwrap();
        let _dialer = TcpStream::connect(listener.addr).unwrap();
        assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap());
    }

    /// One stream of frames written a byte per write, whole, and split inside
    /// a frame, then again followed by a bad length prefix in the same write:
    /// every frame arrives once and in order, every frame byte is counted
    /// received, and the bad prefix then poisons only its own link.
    #[test]
    fn buffered_reads_deliver_every_split_of_the_stream() {
        let mut mesh = tcp_mesh_loopback(3).expect("mesh");
        assert!(pump_until(&mut mesh[1], |e| e.auth_handshakes() == 2));
        let frames: Vec<Vec<u8>> = (1..=6u8).map(|k| vec![k; 9 * usize::from(k)]).collect();
        let mut stream = Vec::new();
        frames.iter().for_each(|f| append_frame(&mut stream, f));
        let mut poisoned = stream.clone();
        // A zero prefix reads as whole, so it fails inside the good batch.
        poisoned.extend_from_slice(&0u32.to_le_bytes());
        let (one_byte, second) = (stream.chunks(1).collect(), 4 + frames[0].len() + 2);
        let splits = [one_byte, vec![&stream[..]], vec![&stream[..second], &stream[second..]]];
        let expected: Vec<_> = frames.into_iter().map(|f| (0, f)).collect();
        for writes in splits.into_iter().chain([vec![&poisoned[..]]]) {
            let before = mesh[1].bytes_received();
            let writer = mesh[0].peers[1].writer.as_mut().unwrap();
            writes.iter().for_each(|w| writer.write_all(w).unwrap());
            let mut got = Vec::new();
            for _ in 0..100 {
                if got.len() >= expected.len() {
                    break;
                }
                got.extend(mesh[1].recv_timeout(Duration::from_millis(20)));
            }
            assert_eq!(got, expected);
            assert_eq!(mesh[1].bytes_received() - before, stream.len() as u64);
        }
        assert!(pump_until(&mut mesh[1], |e| e.errors().total() == 1), "the bad prefix");
        let up: Vec<bool> = mesh[1].link_health().iter().map(|l| l.up).collect();
        assert_eq!(up, [false, true], "only the link from 0 is poisoned");
    }

    #[test]
    fn dial_backoff_survives_a_late_listener() {
        // Reserve an address, drop the listener, restart it after a delay:
        // the dialer's retry/backoff must bridge the gap.
        let probe = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let accepter = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            let l = TcpListener::bind(addr).expect("rebind");
            l.accept().map(|_| ()).ok();
        });
        let dialed = dial_with_backoff(addr, 0);
        accepter.join().unwrap();
        assert!(dialed.is_ok(), "backoff must ride out the listener gap");
    }
}
