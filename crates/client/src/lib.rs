//! `rbvc-client`: the external client library for relaxed Byzantine vector
//! consensus (ISSUE 8).
//!
//! A [`ClientHandle`] is one client *session* talking to a mesh of node
//! client ports (`rbvc_transport::ClientPort`). It implements the
//! Viewstamped-Replication-style client contract:
//!
//! * every request carries the session id and a **monotonic request
//!   number**, so retries are idempotent — the service answers a repeat of
//!   an answered `(session, reqno)` from its reply cache with bit-identical
//!   bytes and never launches a second instance;
//! * a submit to a node that does not own the session is answered with
//!   `Redirect{node}`; the handle follows it and remembers the owner;
//! * `Busy` (admission bounds full) backs off exponentially and retries;
//! * a dead or unresponsive node triggers **failover**: the handle rotates
//!   to the next node, whose redirect points it back at the owner when the
//!   owner is alive.
//!
//! The handle keeps one connection per node, each drained by a background
//! reader thread into a queue, which gives two submission styles:
//! [`ClientHandle::submit`] (blocking: write, then wait for the matching
//! reply with timeout/retry/backoff) and the open-loop pair
//! [`ClientHandle::submit_nowait`] / [`ClientHandle::take_replies`] used by
//! the E21 saturation benchmark, where arrivals must not be gated on
//! decisions.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::thread;
use std::time::{Duration, Instant};

use rbvc_linalg::VecD;
use rbvc_transport::{
    read_client_frame_bytes, write_client_frame, ClientFrame,
};

/// Why a client call gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// No node addresses were configured.
    NoNodes,
    /// Every attempt failed (timeouts, dead nodes, or sustained `Busy`).
    Exhausted {
        /// Attempts made before giving up.
        attempts: usize,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::NoNodes => write!(f, "no node addresses configured"),
            ClientError::Exhausted { attempts } => {
                write!(f, "request exhausted {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Retry/backoff knobs for the blocking [`ClientHandle::submit`] path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Wall-clock budget of one attempt (connect + wait for the reply).
    pub attempt_timeout: Duration,
    /// Attempts before [`ClientError::Exhausted`]. Redirects do not consume
    /// an attempt — following the owner is progress, not failure.
    pub max_attempts: usize,
    /// First backoff after a `Busy` or a dead node; doubles per consecutive
    /// failure up to `max_backoff`.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempt_timeout: Duration::from_millis(2000),
            max_attempts: 8,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

/// Counters a handle accumulates across its lifetime, for tests and the
/// E21 campaign report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandleStats {
    /// Submits written to a node (including retries).
    pub attempts: u64,
    /// `Redirect` frames followed.
    pub redirects_followed: u64,
    /// `Busy` frames that triggered a backoff.
    pub busy_backoffs: u64,
    /// Node rotations after a dead/unresponsive target.
    pub failovers: u64,
    /// Replies received (including cached duplicates).
    pub replies: u64,
}

/// One connection to one node's client port, drained by a reader thread.
struct NodeConn {
    stream: TcpStream,
    rx: Receiver<ClientFrame>,
}

fn spawn_reader(stream: TcpStream, tx: Sender<ClientFrame>) {
    thread::spawn(move || {
        let mut stream = BufReader::new(stream);
        while let Ok(Some(bytes)) = read_client_frame_bytes(&mut stream) {
            match rbvc_transport::decode_client_frame(&bytes) {
                Ok(frame) => {
                    if tx.send(frame).is_err() {
                        break;
                    }
                }
                Err(_) => break, // a node speaking garbage: poison the conn
            }
        }
    });
}

/// One client session: owns its request numbering and the per-node
/// connections. Not `Sync` — one handle per client thread.
pub struct ClientHandle {
    session: u64,
    next_reqno: u64,
    nodes: Vec<SocketAddr>,
    /// The node submits currently go to (the session owner once a redirect
    /// or a successful reply has taught us).
    target: usize,
    policy: RetryPolicy,
    conns: HashMap<usize, NodeConn>,
    stats: HandleStats,
}

impl ClientHandle {
    /// A handle for `session` over the given node client-port addresses
    /// (indexed by node id, matching the mesh). The initial target is
    /// `session % nodes.len()` — the owner under the default sharding — but
    /// any starting point works: a non-owner redirects.
    #[must_use]
    pub fn new(session: u64, nodes: Vec<SocketAddr>) -> ClientHandle {
        let target = if nodes.is_empty() { 0 } else { (session % nodes.len() as u64) as usize };
        ClientHandle {
            session,
            next_reqno: 1,
            nodes,
            target,
            policy: RetryPolicy::default(),
            conns: HashMap::new(),
            stats: HandleStats::default(),
        }
    }

    /// Replace the retry policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> ClientHandle {
        self.policy = policy;
        self
    }

    /// Point submits at node `node` (e.g. to exercise the redirect path in
    /// tests); out-of-range ids are ignored.
    pub fn set_target(&mut self, node: usize) {
        if node < self.nodes.len() {
            self.target = node;
        }
    }

    /// This handle's session id.
    #[must_use]
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> HandleStats {
        self.stats
    }

    fn conn(&mut self, node: usize) -> Option<&mut NodeConn> {
        if !self.conns.contains_key(&node) {
            let addr = *self.nodes.get(node)?;
            let stream = TcpStream::connect_timeout(&addr, self.policy.attempt_timeout).ok()?;
            stream.set_nodelay(true).ok();
            let reader = stream.try_clone().ok()?;
            let (tx, rx) = channel();
            spawn_reader(reader, tx);
            self.conns.insert(node, NodeConn { stream, rx });
        }
        self.conns.get_mut(&node)
    }

    /// Write one `Submit` for `reqno` to the current target. Returns false
    /// when the target is unreachable (the connection, if any, is dropped).
    fn write_submit(&mut self, reqno: u64, value: &VecD) -> bool {
        let session = self.session;
        let target = self.target;
        let frame = ClientFrame::Submit { session, reqno, value: value.clone() };
        let ok = match self.conn(target) {
            Some(conn) => write_client_frame(&mut conn.stream, &frame).is_ok(),
            None => false,
        };
        if ok {
            self.stats.attempts += 1;
        } else {
            self.conns.remove(&target);
        }
        ok
    }

    /// Rotate to the next node after a dead target.
    fn fail_over(&mut self) {
        if !self.nodes.is_empty() {
            self.target = (self.target + 1) % self.nodes.len();
            self.stats.failovers += 1;
        }
    }

    /// Submit `value` as this session's next request and block until its
    /// decision arrives, following redirects, backing off on `Busy`, and
    /// failing over past dead nodes per the [`RetryPolicy`].
    ///
    /// # Errors
    /// [`ClientError::NoNodes`] with an empty node list;
    /// [`ClientError::Exhausted`] when every attempt failed.
    pub fn submit(&mut self, value: &VecD) -> Result<VecD, ClientError> {
        let reqno = self.next_reqno;
        self.next_reqno += 1;
        self.submit_as(reqno, value)
    }

    /// Like [`ClientHandle::submit`] with an explicit request number — what
    /// the idempotence tests use to replay the *same* `(session, reqno)`
    /// against different nodes. Numbers at or below an already-answered
    /// request return the cached decision.
    ///
    /// # Errors
    /// As [`ClientHandle::submit`].
    pub fn submit_as(&mut self, reqno: u64, value: &VecD) -> Result<VecD, ClientError> {
        if self.nodes.is_empty() {
            return Err(ClientError::NoNodes);
        }
        self.next_reqno = self.next_reqno.max(reqno + 1);
        let mut backoff = self.policy.backoff;
        let mut attempts = 0;
        while attempts < self.policy.max_attempts {
            attempts += 1;
            if !self.write_submit(reqno, value) {
                self.fail_over();
                thread::sleep(backoff);
                backoff = (backoff * 2).min(self.policy.max_backoff);
                continue;
            }
            let deadline = Instant::now() + self.policy.attempt_timeout;
            match self.await_reply(reqno, deadline) {
                Await::Decision(v) => return Ok(v),
                Await::Redirected => {
                    // Progress, not failure: retry the owner immediately.
                    attempts -= 1;
                }
                Await::Busy => {
                    self.stats.busy_backoffs += 1;
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(self.policy.max_backoff);
                }
                Await::TimedOut => {
                    self.fail_over();
                }
            }
        }
        Err(ClientError::Exhausted { attempts })
    }

    /// Wait on the target's reply queue for the decision of `reqno`.
    fn await_reply(&mut self, reqno: u64, deadline: Instant) -> Await {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Await::TimedOut;
            }
            let target = self.target;
            let Some(conn) = self.conns.get_mut(&target) else {
                return Await::TimedOut;
            };
            let frame = match conn.rx.recv_timeout(deadline - now) {
                Ok(frame) => frame,
                Err(_) => {
                    // Reader gone (dead conn) or deadline hit.
                    self.conns.remove(&target);
                    return Await::TimedOut;
                }
            };
            match frame {
                ClientFrame::Reply { session, reqno: got, decision } => {
                    if session == self.session && got == reqno {
                        self.stats.replies += 1;
                        return Await::Decision(decision);
                    }
                    // A stale reply from an earlier request: keep waiting.
                }
                ClientFrame::Redirect { node } => {
                    self.stats.redirects_followed += 1;
                    self.set_target(node as usize);
                    return Await::Redirected;
                }
                ClientFrame::Busy => return Await::Busy,
                ClientFrame::Submit { .. } => {
                    // Nodes never send Submit; drop and keep waiting.
                }
            }
        }
    }

    /// Open-loop submission: write the session's next request to the
    /// current target and return its request number without waiting for the
    /// decision (pair with [`ClientHandle::take_replies`]). A dead target
    /// fails over once and retries the write.
    ///
    /// # Errors
    /// [`ClientError::NoNodes`]; [`ClientError::Exhausted`] when the write
    /// failed on two nodes in a row.
    pub fn submit_nowait(&mut self, value: &VecD) -> Result<u64, ClientError> {
        if self.nodes.is_empty() {
            return Err(ClientError::NoNodes);
        }
        let reqno = self.next_reqno;
        self.next_reqno += 1;
        if self.write_submit(reqno, value) {
            return Ok(reqno);
        }
        self.fail_over();
        if self.write_submit(reqno, value) {
            return Ok(reqno);
        }
        Err(ClientError::Exhausted { attempts: 2 })
    }

    /// Drain every reply that has arrived on any of this handle's
    /// connections: `(reqno, decision)` pairs for this session. `Redirect`
    /// frames are followed (updating the target for subsequent submits);
    /// `Busy` is counted. Non-blocking.
    pub fn take_replies(&mut self) -> Vec<(u64, VecD)> {
        let mut out = Vec::new();
        let mut retarget = None;
        let mut busy = 0;
        for conn in self.conns.values_mut() {
            loop {
                match conn.rx.try_recv() {
                    Ok(ClientFrame::Reply { session, reqno, decision }) => {
                        if session == self.session {
                            out.push((reqno, decision));
                        }
                    }
                    Ok(ClientFrame::Redirect { node }) => retarget = Some(node as usize),
                    Ok(ClientFrame::Busy) => busy += 1,
                    Ok(ClientFrame::Submit { .. }) => {}
                    Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                }
            }
        }
        if let Some(node) = retarget {
            self.stats.redirects_followed += 1;
            self.set_target(node);
        }
        self.stats.busy_backoffs += busy;
        self.stats.replies += out.len() as u64;
        out
    }
}

/// Outcome of one blocking wait.
enum Await {
    Decision(VecD),
    Redirected,
    Busy,
    TimedOut,
}
