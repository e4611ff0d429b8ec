//! The `client-open` load driver: external clients over an authenticated
//! loopback TCP mesh.
//!
//! Two generator threads in all. The driver thread owns every node's
//! [`ConsensusService`] and [`ClientPort`] and sweeps `pump` + `poll(ZERO)`
//! over them, busy-waiting 20 µs after a sweep that moved nothing. The load
//! thread owns two [`ClientHandle`] sessions (owners 0 and 1, one connection
//! each) and drives them with `submit_nowait` / `take_replies`, either on a
//! seeded Poisson schedule (open loop: clients are independent, so a slow
//! system still receives its load, and latency is timed from the instant a
//! request was *due*) or keeping a fixed number outstanding (closed loop:
//! the saturation rate). Reader and acceptor threads are spawned by the
//! program itself and are part of what is measured.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rbvc_client::ClientHandle;
use rbvc_linalg::VecD;
use rbvc_transport::{
    tcp_mesh_loopback_authenticated, ClientConfig, ClientPort, ConsensusService, TcpEndpoint,
    Transport,
};

use crate::gen;
use crate::probe::{Call, Probe};

/// Key seed of the authenticated mesh (a deployment secret, not an input:
/// it does not vary with the benchmark seed).
pub const MESH_KEY: [u8; 32] = *b"rbvc-benchmark-client-open-mesh!";

/// How long the driver thread waits after a sweep that moved nothing. It
/// busy-waits rather than sleeps: with a sleeping driver the kernel keeps
/// waking the program's reader threads on the driver's (then idle) core, and
/// from one process to the next the mesh settled either on one core
/// (~1 100 replies/s closed loop) or on both (~1 450) — a two-valued result
/// set by the scheduler, not the program. A driver that never leaves its core
/// pushes the readers to the other one every time.
const IDLE_WAIT: Duration = Duration::from_micros(20);

fn idle_wait() {
    let t = Instant::now();
    while t.elapsed() < IDLE_WAIT {
        std::hint::spin_loop();
    }
}
/// Sleep of the load thread between harvests while waiting for a due time.
const LOAD_NAP: Duration = Duration::from_micros(100);
/// After the load ends, the mesh is driven until every node has decided
/// every admitted request, at most this long (outside every timing).
const DRAIN_LIMIT: Duration = Duration::from_secs(3);

/// The `client-open` workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientPlan {
    /// Mesh size.
    pub n: usize,
    /// Dimension of the submitted vectors.
    pub d: usize,
    /// Client front-end configuration of every node.
    pub config: ClientConfig,
    /// Open-loop offered rates, requests per second over both sessions.
    pub rates: [f64; 2],
    /// Length of one open-loop repetition.
    pub open_duration: Duration,
    /// Open-loop repetitions per rate when no `--seconds` budget is given.
    pub open_reps: usize,
    /// Requests kept outstanding in the closed-loop phase.
    pub outstanding: usize,
    /// Requests per closed-loop repetition.
    pub closed_requests: usize,
    /// A reply later than this after its due time is a failed request. One
    /// second, not less: this machine stalls a whole process for a quarter
    /// of a second now and then (88 of 10 911 requests of one run were
    /// answered more than 250 ms late), and that is not the program failing.
    pub late_limit: Duration,
}

impl ClientPlan {
    /// The plan of record; `smoke` runs quarter-size repetitions.
    #[must_use]
    pub fn standard(smoke: bool) -> ClientPlan {
        ClientPlan {
            n: 4,
            d: 3,
            config: ClientConfig {
                f: 1,
                rounds: 2,
                max_inflight: 64,
                queue_cap: 256,
            },
            // ~35 % and ~85 % driver-busy: service time, then queueing. The
            // knee (~600/s) moves from run to run, so no latency is quoted
            // there; saturation is measured closed-loop instead.
            rates: [100.0, 300.0],
            // Short repetitions and more of them: every repetition of a
            // rate replays the same arrival trace, and a request's latency
            // is its lowest over all of them.
            open_duration: Duration::from_millis(if smoke { 250 } else { 1000 }),
            open_reps: 12,
            outstanding: 32,
            closed_requests: if smoke { 75 } else { 300 },
            late_limit: Duration::from_secs(1),
        }
    }
}

/// How the load thread offers requests.
#[derive(Debug, Clone, PartialEq)]
pub enum Load {
    /// Poisson arrivals at this rate for the plan's open duration.
    Open {
        /// Requests per second.
        rate: f64,
    },
    /// Keep the plan's `outstanding` requests in flight until
    /// `closed_requests` are answered.
    Closed,
}

/// One repetition on a fresh mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRep {
    /// First submit to last reply.
    pub wall_s: f64,
    /// Requests offered.
    pub attempted: usize,
    /// Requests unanswered, shed, answered wrongly or answered late.
    pub failed: usize,
    /// Replies received.
    pub replies: usize,
    /// Due→reply (open loop) or submit→reply (closed loop), ms, in the order
    /// the replies arrived.
    pub latencies_ms: Vec<f64>,
    /// The same by request, in the order they were offered; infinite for a
    /// request that got no reply. The schedule and the values of a phase are
    /// the same in every repetition, so entry `i` is the same request each
    /// time ([`crate::run::PhaseTotals`] keeps the lowest).
    pub by_request_ms: Vec<f64>,
    /// How late the generator sent each request after its due time, ms.
    pub gen_late_ms: Vec<f64>,
    /// Bytes put on the mesh wire, summed over endpoints, after the drain.
    pub wire_bytes: u64,
    /// Σ service + transport errors, `Busy` signals and port rejects.
    pub errors: u64,
    /// Decisions of every client instance, by node, after the drain.
    pub decisions: BTreeMap<u64, Vec<Option<VecD>>>,
    /// The values submitted, in admission order per owner (for the checks).
    pub values: Vec<VecD>,
    /// Instances resident on node 0 at the end (they are never evicted).
    pub instances_resident: usize,
    /// Worst `‖reply − value‖∞` seen.
    pub max_reply_error: f64,
}

struct Node<T: Transport> {
    svc: ConsensusService<T>,
    port: ClientPort,
}

/// What the load thread hands back.
struct LoadResult {
    wall_s: f64,
    attempted: usize,
    failed: usize,
    replies: usize,
    latencies_ms: Vec<f64>,
    by_request_ms: Vec<f64>,
    gen_late_ms: Vec<f64>,
    values: Vec<VecD>,
    busy: u64,
    max_reply_error: f64,
}

/// The load thread's two sessions and its bookkeeping.
struct Sessions<'a, P: Probe> {
    handles: [ClientHandle; 2],
    /// `(session index, reqno)` → `(value index, reference instant)`.
    pending: BTreeMap<(usize, u64), (usize, Instant)>,
    values: Vec<VecD>,
    latencies_ms: Vec<f64>,
    by_request_ms: Vec<f64>,
    failed: usize,
    replies: usize,
    max_reply_error: f64,
    late_limit: Duration,
    probe: &'a P,
}

impl<P: Probe> Sessions<'_, P> {
    /// Submit `value` on session `h`; latency is counted from `reference`.
    fn submit(&mut self, h: usize, value: VecD, reference: Instant) {
        let probe = self.probe;
        let handle = &mut self.handles[h];
        match probe.span(Call::Submit, 0, || handle.submit_nowait(&value)) {
            Ok(reqno) => {
                self.pending
                    .insert((h, reqno), (self.values.len(), reference));
            }
            Err(_) => self.failed += 1,
        }
        self.values.push(value);
        self.by_request_ms.push(f64::INFINITY);
    }

    /// Collect every reply that has arrived; returns how many.
    fn harvest(&mut self) -> usize {
        let mut got = 0;
        for h in 0..2 {
            for (reqno, decision) in self.handles[h].take_replies() {
                let now = Instant::now();
                let Some((index, reference)) = self.pending.remove(&(h, reqno)) else {
                    // A reply nobody is waiting for is a wrong reply.
                    self.failed += 1;
                    continue;
                };
                let latency = now.duration_since(reference);
                let error = crate::check::reply_error(&decision, &self.values[index]);
                self.max_reply_error = self.max_reply_error.max(error);
                if latency > self.late_limit || error > crate::check::REPLY_TOLERANCE {
                    self.failed += 1;
                }
                self.latencies_ms.push(latency.as_secs_f64() * 1e3);
                self.by_request_ms[index] = latency.as_secs_f64() * 1e3;
                self.replies += 1;
                got += 1;
            }
        }
        got
    }
}

fn run_load<P: Probe>(
    plan: &ClientPlan,
    load: &Load,
    seed: u64,
    phase: u64,
    addrs: &[SocketAddr],
    probe: &P,
) -> LoadResult {
    let mut s = Sessions {
        handles: [
            ClientHandle::new(0, addrs.to_vec()),
            ClientHandle::new(1, addrs.to_vec()),
        ],
        pending: BTreeMap::new(),
        values: Vec::new(),
        latencies_ms: Vec::new(),
        by_request_ms: Vec::new(),
        failed: 0,
        replies: 0,
        max_reply_error: 0.0,
        late_limit: plan.late_limit,
        probe,
    };
    let mut gen_late_ms = Vec::new();
    let start = Instant::now();
    let mut last_reply = start;
    match load {
        Load::Open { rate } => {
            let schedule = gen::arrival_trace(phase, *rate, plan.open_duration);
            for (i, offset) in schedule.iter().enumerate() {
                let due = start + *offset;
                loop {
                    if s.harvest() > 0 {
                        last_reply = Instant::now();
                    }
                    let now = Instant::now();
                    if now >= due {
                        gen_late_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
                        break;
                    }
                    std::thread::sleep(LOAD_NAP.min(due - now));
                }
                s.submit(i % 2, gen::client_value(seed, phase, i, plan.d), due);
            }
            let give_up = start + plan.open_duration + plan.late_limit;
            while !s.pending.is_empty() && Instant::now() < give_up {
                if s.harvest() > 0 {
                    last_reply = Instant::now();
                } else {
                    std::thread::sleep(LOAD_NAP);
                }
            }
        }
        Load::Closed => {
            let give_up = start + Duration::from_secs(30);
            let mut offered = 0usize;
            while s.replies + s.failed < plan.closed_requests && Instant::now() < give_up {
                while offered < plan.closed_requests && s.pending.len() < plan.outstanding {
                    let value = gen::client_value(seed, phase, offered, plan.d);
                    s.submit(offered % 2, value, Instant::now());
                    offered += 1;
                }
                if s.harvest() > 0 {
                    last_reply = Instant::now();
                } else {
                    std::thread::sleep(LOAD_NAP);
                }
            }
        }
    }
    // Whatever is still pending was never answered in time.
    s.failed += s.pending.len();
    let busy: u64 = s.handles.iter().map(|h| h.stats().busy_backoffs).sum();
    LoadResult {
        wall_s: last_reply.duration_since(start).as_secs_f64(),
        attempted: s.values.len(),
        failed: s.failed,
        replies: s.replies,
        latencies_ms: s.latencies_ms,
        by_request_ms: s.by_request_ms,
        gen_late_ms,
        values: s.values,
        busy,
        max_reply_error: s.max_reply_error,
    }
}

/// One driver sweep: pump and poll every node. Returns whether anything
/// moved, and files the decisions it surfaced.
fn sweep<T: Transport, P: Probe>(
    nodes: &mut [Node<T>],
    decisions: &mut BTreeMap<u64, Vec<Option<VecD>>>,
    probe: &P,
) -> bool {
    let n = nodes.len();
    let mut moved = false;
    for (id, node) in nodes.iter_mut().enumerate() {
        let Node { svc, port } = node;
        let traffic = |svc: &ConsensusService<T>| {
            svc.transport().bytes_sent() + svc.transport().bytes_received()
        };
        let before = traffic(svc);
        let admitted = probe.span(Call::Pump, 0, || port.pump(svc));
        let events = probe.span(Call::Poll, 0, || svc.poll(Duration::ZERO));
        moved |= admitted > 0 || !events.is_empty() || traffic(svc) != before;
        for ev in events {
            decisions
                .entry(ev.instance)
                .or_insert_with(|| vec![None; n])[id] = Some(ev.value);
        }
    }
    moved
}

/// A mesh that has been set up and not yet loaded.
pub struct ClientMesh<P: Probe> {
    nodes: Vec<Node<P::Wrapped<TcpEndpoint>>>,
    /// Mesh construction (handshakes included), services, client ports.
    pub setup_s: f64,
}

impl ClientPlan {
    /// Set one repetition up: a fresh authenticated mesh, one service with
    /// its client front-end and one client port per node.
    ///
    /// # Panics
    /// If the loopback mesh or a client port cannot be set up — a failure of
    /// the environment, not of the program under test.
    pub fn set_up<P: Probe>(&self, probe: &P) -> ClientMesh<P> {
        let t_setup = Instant::now();
        let endpoints: Vec<TcpEndpoint> = tcp_mesh_loopback_authenticated(self.n, &MESH_KEY)
            .expect("authenticated loopback mesh");
        let nodes = endpoints
            .into_iter()
            .map(|ep| {
                let mut svc = ConsensusService::new(probe.wrap(ep));
                svc.enable_auth();
                svc.enable_client(self.config);
                svc.start_deferred();
                let port =
                    ClientPort::bind(SocketAddr::from(([127, 0, 0, 1], 0))).expect("client port");
                Node { svc, port }
            })
            .collect();
        ClientMesh {
            nodes,
            setup_s: t_setup.elapsed().as_secs_f64(),
        }
    }
}

/// Run one repetition of `load` on a fresh authenticated mesh.
///
/// # Panics
/// As [`ClientPlan::set_up`].
pub fn run_rep<P: Probe>(
    plan: &ClientPlan,
    load: &Load,
    seed: u64,
    phase: u64,
    probe: &P,
) -> ClientRep {
    let mut nodes = plan.set_up(probe).nodes;
    let addrs: Vec<SocketAddr> = nodes.iter().map(|node| node.port.local_addr()).collect();

    let mut decisions: BTreeMap<u64, Vec<Option<VecD>>> = BTreeMap::new();
    let stop = AtomicBool::new(false);
    let result = probe.region(|| {
        std::thread::scope(|scope| {
            let loader = scope.spawn(|| {
                let result = run_load(plan, load, seed, phase, &addrs, probe);
                stop.store(true, Ordering::SeqCst);
                result
            });
            while !stop.load(Ordering::SeqCst) {
                if !sweep(&mut nodes, &mut decisions, probe) {
                    probe.span(Call::Idle, 0, idle_wait);
                }
            }
            loader.join().expect("load thread")
        })
    });
    // Drain: let every node finish every admitted request, so agreement can
    // be checked across all n and the byte count covers whole requests.
    let admitted: u64 = nodes
        .iter()
        .map(|node| node.svc.client_stats().admitted)
        .sum();
    let t_drain = Instant::now();
    let all_decided = |decisions: &BTreeMap<u64, Vec<Option<VecD>>>| {
        decisions.len() as u64 >= admitted
            && decisions.values().all(|v| v.iter().all(Option::is_some))
    };
    while !all_decided(&decisions) && t_drain.elapsed() < DRAIN_LIMIT {
        if !sweep(&mut nodes, &mut decisions, probe) {
            idle_wait();
        }
    }
    let errors = nodes
        .iter()
        .map(|node| {
            node.svc.errors().total()
                + node.svc.transport().errors().total()
                + node.port.rejects()
                + node.svc.client_stats().shed
        })
        .sum::<u64>()
        + result.busy;
    ClientRep {
        wall_s: result.wall_s,
        attempted: result.attempted,
        failed: result.failed,
        replies: result.replies,
        latencies_ms: result.latencies_ms,
        by_request_ms: result.by_request_ms,
        gen_late_ms: result.gen_late_ms,
        wire_bytes: nodes
            .iter()
            .map(|node| node.svc.transport().bytes_sent())
            .sum(),
        errors,
        decisions,
        values: result.values,
        instances_resident: nodes[0].svc.instance_count(),
        max_reply_error: result.max_reply_error,
    }
}
