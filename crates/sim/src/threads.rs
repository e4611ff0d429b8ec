//! Threaded runtime: one OS thread per process, crossbeam channels as the
//! reliable point-to-point links of the paper's complete network.
//!
//! The deterministic engines in [`crate::sync`] / [`crate::asynch`] are the
//! primary experiment substrate; this runtime exists to demonstrate the same
//! protocol objects running under *real* concurrency — nondeterministic OS
//! scheduling standing in for the asynchronous adversary. Decisions are
//! collected in a `parking_lot`-protected table; a decided process keeps
//! serving messages until global shutdown so that laggards can still reach
//! their quorums (exactly the behaviour asynchronous BFT protocols need).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rbvc_obs::{Event, EventKind, Obs};

use crate::asynch::{AsyncAdversary, AsyncProtocol};
use crate::config::{ProcessId, SystemConfig};
use crate::error::{ErrorLog, ProtocolError};
use crate::monitor::SafetyMonitor;
use crate::net::{NetStats, NetworkFaults};
use rbvc_obs::ExecutionTrace;

/// A node for the threaded runtime (Byzantine boxes must be `Send`).
pub enum ThreadedNode<P: AsyncProtocol> {
    /// Follows the protocol.
    Honest(P),
    /// Arbitrary (but `Send`) behaviour.
    Byzantine(Box<dyn AsyncAdversary<P::Msg> + Send>),
}

/// Result of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedOutcome<O> {
    /// Decisions by process id (`None` = Byzantine or undecided at timeout).
    pub decisions: Vec<Option<O>>,
    /// True iff all honest processes decided before the timeout.
    pub all_decided: bool,
    /// Honest processes still undecided when the run ended — empty on
    /// success, the degradation report on timeout.
    pub undecided: Vec<ProcessId>,
    /// Message statistics (`rounds` is not meaningful on threads and
    /// stays 0).
    pub trace: ExecutionTrace,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Degradation events absorbed across all node threads (e.g. sends
    /// addressed to nonexistent peers) — the degrade-don't-panic record.
    pub errors: ErrorLog,
}

/// Run the protocol with one OS thread per process until every honest
/// process decides or `timeout` elapses.
///
/// # Panics
/// Panics on node-count or fault-placement mismatch with `config`.
pub fn run_threaded<P>(
    config: &SystemConfig,
    nodes: Vec<ThreadedNode<P>>,
    timeout: Duration,
) -> ThreadedOutcome<P::Output>
where
    P: AsyncProtocol + Send + 'static,
    P::Msg: Send + 'static,
    P::Output: Send + Clone + 'static,
{
    run_threaded_with_obs(config, nodes, timeout, Obs::noop())
}

/// [`run_threaded`] with a structured-event sink: each honest thread emits
/// one [`EventKind::Decide`] event (tagged with its process id) the moment
/// its decision is recorded. The recorder must be thread-safe — every node
/// thread writes into it concurrently.
///
/// # Panics
/// Panics on node-count or fault-placement mismatch with `config`.
pub fn run_threaded_with_obs<P>(
    config: &SystemConfig,
    nodes: Vec<ThreadedNode<P>>,
    timeout: Duration,
    obs: Obs,
) -> ThreadedOutcome<P::Output>
where
    P: AsyncProtocol + Send + 'static,
    P::Msg: Send + 'static,
    P::Output: Send + Clone + 'static,
{
    let n = config.n;
    assert_eq!(nodes.len(), n, "one node per process required");
    for (i, node) in nodes.iter().enumerate() {
        let is_byz = matches!(node, ThreadedNode::Byzantine(_));
        assert_eq!(
            is_byz,
            config.is_faulty(i),
            "node {i} placement disagrees with fault set"
        );
    }
    let honest_count = nodes
        .iter()
        .filter(|nd| matches!(nd, ThreadedNode::Honest(_)))
        .count();

    // Mesh of channels: txs[dst] delivers to process dst.
    let mut txs: Vec<Sender<(ProcessId, P::Msg)>> = Vec::with_capacity(n);
    let mut rxs: Vec<Receiver<(ProcessId, P::Msg)>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(rx);
    }

    let decisions: Arc<Mutex<Vec<Option<P::Output>>>> = Arc::new(Mutex::new(vec![None; n]));
    let decided_count = Arc::new(AtomicUsize::new(0));
    let shutdown = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));
    let delivered = Arc::new(AtomicU64::new(0));
    let errors: Arc<Mutex<ErrorLog>> = Arc::new(Mutex::new(ErrorLog::new()));

    let start = Instant::now();
    let mut handles = Vec::with_capacity(n);
    for (id, node) in nodes.into_iter().enumerate() {
        let rx = rxs.remove(0);
        let txs = txs.clone();
        let decisions = Arc::clone(&decisions);
        let decided_count = Arc::clone(&decided_count);
        let shutdown = Arc::clone(&shutdown);
        let sent = Arc::clone(&sent);
        let delivered = Arc::clone(&delivered);
        let errors = Arc::clone(&errors);
        let obs = obs.with_node(u32::try_from(id).unwrap_or(u32::MAX));
        handles.push(thread::spawn(move || {
            let route = |sends: Vec<(ProcessId, P::Msg)>| {
                for (dst, msg) in sends {
                    // Degrade, don't panic: a ghost destination loses that
                    // one send and the run records why.
                    if dst >= txs.len() {
                        errors.lock().record(ProtocolError::Transport {
                            peer: Some(dst),
                            reason: format!("process {id} sent to nonexistent process {dst}"),
                        });
                        continue;
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                    // A receiver may already have shut down; that's fine.
                    let _ = txs[dst].send((id, msg));
                }
            };
            let mut node = node;
            let mut recorded = false;
            match &mut node {
                ThreadedNode::Honest(p) => route(p.on_start()),
                ThreadedNode::Byzantine(a) => route(a.on_start()),
            }
            while !shutdown.load(Ordering::Relaxed) {
                match rx.recv_timeout(Duration::from_millis(5)) {
                    Ok((from, msg)) => {
                        delivered.fetch_add(1, Ordering::Relaxed);
                        match &mut node {
                            ThreadedNode::Honest(p) => {
                                route(p.on_message(from, msg));
                                if !recorded {
                                    if let Some(out) = p.output() {
                                        decisions.lock()[id] = Some(out);
                                        decided_count.fetch_add(1, Ordering::SeqCst);
                                        recorded = true;
                                        obs.emit(|| {
                                            Event::new(EventKind::Decide)
                                                .detail("runtime=threads")
                                        });
                                    }
                                }
                            }
                            ThreadedNode::Byzantine(a) => route(a.on_message(from, msg)),
                        }
                    }
                    Err(_) => {
                        // Timeout tick: re-check shutdown; also catch
                        // protocols that decide at start (no messages).
                        if !recorded {
                            if let ThreadedNode::Honest(p) = &node {
                                if let Some(out) = p.output() {
                                    decisions.lock()[id] = Some(out);
                                    decided_count.fetch_add(1, Ordering::SeqCst);
                                    recorded = true;
                                    obs.emit(|| {
                                        Event::new(EventKind::Decide).detail("runtime=threads")
                                    });
                                }
                            }
                        }
                    }
                }
            }
            // Clean drain: empty the inbox so peers never block and channel
            // memory is released before the thread exits.
            while rx.try_recv().is_ok() {}
        }));
    }
    drop(txs);

    // Coordinator: wait for all honest decisions or timeout.
    let all_decided = loop {
        if decided_count.load(Ordering::SeqCst) >= honest_count {
            break true;
        }
        if start.elapsed() > timeout {
            break false;
        }
        thread::sleep(Duration::from_millis(2));
    };
    shutdown.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    let decisions = decisions.lock().clone();
    let undecided = (0..n)
        .filter(|&i| !config.is_faulty(i) && decisions[i].is_none())
        .collect();
    let trace = ExecutionTrace {
        messages_sent: sent.load(Ordering::Relaxed),
        rounds: 0,
        messages_delivered: delivered.load(Ordering::Relaxed),
    };
    let errors = errors.lock().clone();
    ThreadedOutcome {
        decisions,
        all_decided,
        undecided,
        trace,
        elapsed: start.elapsed(),
        errors,
    }
}

/// How often each thread fires [`AsyncProtocol::on_tick`] in the chaos
/// runtime, driving retransmission timers in wall-clock time.
const THREAD_TICK_EVERY: Duration = Duration::from_millis(5);

/// Run the protocol on one OS thread per process with link faults injected
/// on the send path.
///
/// Each outbound message is routed through `faults` (shared behind a
/// mutex so drop/dup/delay decisions stay globally seeded); logical time
/// is milliseconds since the run started, so [`crate::net::Partition`]
/// windows are wall-clock windows here. Delayed copies sit in the sending
/// thread's outbox until due. Honest nodes get an
/// [`AsyncProtocol::on_tick`] call every [`THREAD_TICK_EVERY`] so a
/// [`crate::net::ReliableLink`] wrapper can retransmit.
///
/// If `monitor` is given, the coordinator feeds it every fresh decision as
/// it is recorded, flagging safety violations while the run is still in
/// flight. Returns the outcome plus the fault layer's [`NetStats`].
///
/// # Panics
/// Panics on node-count or fault-placement mismatch with `config`.
pub fn run_threaded_chaos<P>(
    config: &SystemConfig,
    nodes: Vec<ThreadedNode<P>>,
    timeout: Duration,
    faults: NetworkFaults,
    monitor: Option<&mut SafetyMonitor<P::Output>>,
) -> (ThreadedOutcome<P::Output>, NetStats)
where
    P: AsyncProtocol + Send + 'static,
    P::Msg: Send + 'static,
    P::Output: Send + Clone + PartialEq + 'static,
{
    run_threaded_chaos_with_obs(config, nodes, timeout, faults, monitor, Obs::noop())
}

/// [`run_threaded_chaos`] with a structured-event sink: each honest thread
/// emits one [`EventKind::Decide`] event as its decision is recorded, and
/// the shared fault layer's partition-heal events flow through the same
/// recorder. The recorder must be thread-safe.
///
/// # Panics
/// Panics on node-count or fault-placement mismatch with `config`.
pub fn run_threaded_chaos_with_obs<P>(
    config: &SystemConfig,
    nodes: Vec<ThreadedNode<P>>,
    timeout: Duration,
    mut faults: NetworkFaults,
    mut monitor: Option<&mut SafetyMonitor<P::Output>>,
    obs: Obs,
) -> (ThreadedOutcome<P::Output>, NetStats)
where
    P: AsyncProtocol + Send + 'static,
    P::Msg: Send + 'static,
    P::Output: Send + Clone + PartialEq + 'static,
{
    faults.set_obs(obs.clone());
    let n = config.n;
    assert_eq!(nodes.len(), n, "one node per process required");
    for (i, node) in nodes.iter().enumerate() {
        let is_byz = matches!(node, ThreadedNode::Byzantine(_));
        assert_eq!(
            is_byz,
            config.is_faulty(i),
            "node {i} placement disagrees with fault set"
        );
    }
    let honest_count = nodes
        .iter()
        .filter(|nd| matches!(nd, ThreadedNode::Honest(_)))
        .count();

    let mut txs: Vec<Sender<(ProcessId, P::Msg)>> = Vec::with_capacity(n);
    let mut rxs: Vec<Receiver<(ProcessId, P::Msg)>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(rx);
    }

    let decisions: Arc<Mutex<Vec<Option<P::Output>>>> = Arc::new(Mutex::new(vec![None; n]));
    let decided_count = Arc::new(AtomicUsize::new(0));
    let shutdown = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));
    let delivered = Arc::new(AtomicU64::new(0));
    let faults = Arc::new(Mutex::new(faults));
    let errors: Arc<Mutex<ErrorLog>> = Arc::new(Mutex::new(ErrorLog::new()));

    let start = Instant::now();
    let mut handles = Vec::with_capacity(n);
    for (id, node) in nodes.into_iter().enumerate() {
        let rx = rxs.remove(0);
        let txs = txs.clone();
        let decisions = Arc::clone(&decisions);
        let decided_count = Arc::clone(&decided_count);
        let shutdown = Arc::clone(&shutdown);
        let sent = Arc::clone(&sent);
        let delivered = Arc::clone(&delivered);
        let faults = Arc::clone(&faults);
        let errors = Arc::clone(&errors);
        let obs = obs.with_node(u32::try_from(id).unwrap_or(u32::MAX));
        handles.push(thread::spawn(move || {
            // Delayed copies waiting for their delivery instant.
            let mut outbox: Vec<(Instant, ProcessId, P::Msg)> = Vec::new();
            let send_all = |sends: Vec<(ProcessId, P::Msg)>,
                               outbox: &mut Vec<(Instant, ProcessId, P::Msg)>| {
                let now_ms = start.elapsed().as_millis() as u64;
                for (dst, msg) in sends {
                    // Degrade, don't panic: ghost destinations are dropped
                    // and recorded before they can index the channel mesh.
                    if dst >= txs.len() {
                        errors.lock().record(ProtocolError::Transport {
                            peer: Some(dst),
                            reason: format!("process {id} sent to nonexistent process {dst}"),
                        });
                        continue;
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                    let delays = faults.lock().route(id, dst, now_ms);
                    for delay in delays {
                        if delay == 0 {
                            let _ = txs[dst].send((id, msg.clone()));
                        } else {
                            outbox.push((
                                Instant::now() + Duration::from_millis(delay),
                                dst,
                                msg.clone(),
                            ));
                        }
                    }
                }
            };
            let flush = |outbox: &mut Vec<(Instant, ProcessId, P::Msg)>,
                         txs: &[Sender<(ProcessId, P::Msg)>]| {
                let now = Instant::now();
                let mut i = 0;
                while i < outbox.len() {
                    if outbox[i].0 <= now {
                        let (_, dst, msg) = outbox.swap_remove(i);
                        let _ = txs[dst].send((id, msg));
                    } else {
                        i += 1;
                    }
                }
            };

            let mut node = node;
            let mut recorded = false;
            let mut last_tick = Instant::now();
            match &mut node {
                ThreadedNode::Honest(p) => {
                    let sends = p.on_start();
                    send_all(sends, &mut outbox);
                }
                ThreadedNode::Byzantine(a) => {
                    let sends = a.on_start();
                    send_all(sends, &mut outbox);
                }
            }
            while !shutdown.load(Ordering::Relaxed) {
                flush(&mut outbox, &txs);
                if last_tick.elapsed() >= THREAD_TICK_EVERY {
                    last_tick = Instant::now();
                    if let ThreadedNode::Honest(p) = &mut node {
                        let sends = p.on_tick();
                        send_all(sends, &mut outbox);
                    }
                }
                match rx.recv_timeout(Duration::from_millis(2)) {
                    Ok((from, msg)) => {
                        delivered.fetch_add(1, Ordering::Relaxed);
                        match &mut node {
                            ThreadedNode::Honest(p) => {
                                let sends = p.on_message(from, msg);
                                send_all(sends, &mut outbox);
                                if !recorded {
                                    if let Some(out) = p.output() {
                                        decisions.lock()[id] = Some(out);
                                        decided_count.fetch_add(1, Ordering::SeqCst);
                                        recorded = true;
                                        obs.emit(|| {
                                            Event::new(EventKind::Decide)
                                                .detail("runtime=threads_chaos")
                                        });
                                    }
                                }
                            }
                            ThreadedNode::Byzantine(a) => {
                                let sends = a.on_message(from, msg);
                                send_all(sends, &mut outbox);
                            }
                        }
                    }
                    Err(_) => {
                        if !recorded {
                            if let ThreadedNode::Honest(p) = &node {
                                if let Some(out) = p.output() {
                                    decisions.lock()[id] = Some(out);
                                    decided_count.fetch_add(1, Ordering::SeqCst);
                                    recorded = true;
                                    obs.emit(|| {
                                        Event::new(EventKind::Decide)
                                            .detail("runtime=threads_chaos")
                                    });
                                }
                            }
                        }
                    }
                }
            }
            while rx.try_recv().is_ok() {}
        }));
    }
    drop(txs);

    // Coordinator: wait for decisions, feeding fresh ones to the monitor.
    let mut reported = vec![false; n];
    let all_decided = loop {
        if let Some(mon) = monitor.as_deref_mut() {
            let table = decisions.lock();
            for (id, slot) in table.iter().enumerate() {
                if reported[id] {
                    continue;
                }
                if let Some(out) = slot {
                    reported[id] = true;
                    mon.observe(id, out);
                }
            }
        }
        if decided_count.load(Ordering::SeqCst) >= honest_count {
            break true;
        }
        if start.elapsed() > timeout {
            break false;
        }
        thread::sleep(Duration::from_millis(2));
    };
    shutdown.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    // Final monitor sweep: decisions recorded between the last poll and
    // shutdown must still be checked.
    let decisions = decisions.lock().clone();
    if let Some(mon) = monitor {
        for (id, slot) in decisions.iter().enumerate() {
            if !reported[id] {
                if let Some(out) = slot {
                    mon.observe(id, out);
                }
            }
        }
    }
    let undecided = (0..n)
        .filter(|&i| !config.is_faulty(i) && decisions[i].is_none())
        .collect();
    let trace = ExecutionTrace {
        messages_sent: sent.load(Ordering::Relaxed),
        rounds: 0,
        messages_delivered: delivered.load(Ordering::Relaxed),
    };
    let net = faults.lock().stats;
    let errors = errors.lock().clone();
    let outcome = ThreadedOutcome {
        decisions,
        all_decided,
        undecided,
        trace,
        elapsed: start.elapsed(),
        errors,
    };
    (outcome, net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asynch::SilentAsyncAdversary;

    /// Echo-sum protocol: broadcast input, decide on sum of first `quorum`
    /// distinct senders (same as the async engine test, now on threads).
    struct QuorumSum {
        n: usize,
        quorum: usize,
        input: i64,
        seen: Vec<(ProcessId, i64)>,
        decided: Option<i64>,
    }

    impl AsyncProtocol for QuorumSum {
        type Msg = i64;
        type Output = i64;

        fn on_start(&mut self) -> Vec<(ProcessId, i64)> {
            (0..self.n).map(|d| (d, self.input)).collect()
        }

        fn on_message(&mut self, from: ProcessId, msg: i64) -> Vec<(ProcessId, i64)> {
            if !self.seen.iter().any(|(s, _)| *s == from) {
                self.seen.push((from, msg));
                if self.decided.is_none() && self.seen.len() >= self.quorum {
                    self.decided = Some(self.seen.iter().map(|(_, v)| v).sum());
                }
            }
            Vec::new()
        }

        fn output(&self) -> Option<i64> {
            self.decided
        }
    }

    #[test]
    fn threaded_all_honest_decides() {
        let n = 4;
        let config = SystemConfig::new(n, 1);
        let nodes = (0..n)
            .map(|i| {
                ThreadedNode::Honest(QuorumSum {
                    n,
                    quorum: n,
                    input: i as i64,
                    seen: Vec::new(),
                    decided: None,
                })
            })
            .collect();
        let out = run_threaded(&config, nodes, Duration::from_secs(10));
        assert!(out.all_decided, "threads must reach decisions");
        for d in out.decisions {
            assert_eq!(d, Some(6));
        }
    }

    #[test]
    fn threaded_tolerates_silent_byzantine() {
        let n = 4;
        let config = SystemConfig::new(n, 1).with_faulty(vec![3]);
        let mut nodes: Vec<ThreadedNode<QuorumSum>> = (0..3)
            .map(|i| {
                ThreadedNode::Honest(QuorumSum {
                    n,
                    quorum: 3,
                    input: 10 + i as i64,
                    seen: Vec::new(),
                    decided: None,
                })
            })
            .collect();
        nodes.push(ThreadedNode::Byzantine(Box::new(SilentAsyncAdversary)));
        let out = run_threaded(&config, nodes, Duration::from_secs(10));
        assert!(out.all_decided);
        for i in 0..3 {
            assert_eq!(out.decisions[i], Some(33), "quorum of the three honest");
        }
        assert!(out.decisions[3].is_none());
    }

    #[test]
    fn threaded_timeout_reports_undecided() {
        // Quorum of n with a silent fault can never decide; the runtime must
        // time out gracefully.
        let n = 4;
        let config = SystemConfig::new(n, 1).with_faulty(vec![0]);
        let mut nodes: Vec<ThreadedNode<QuorumSum>> =
            vec![ThreadedNode::Byzantine(Box::new(SilentAsyncAdversary))];
        for i in 1..n {
            nodes.push(ThreadedNode::Honest(QuorumSum {
                n,
                quorum: n,
                input: i as i64,
                seen: Vec::new(),
                decided: None,
            }));
        }
        let out = run_threaded(&config, nodes, Duration::from_millis(200));
        assert!(!out.all_decided);
        assert_eq!(
            out.undecided,
            vec![1, 2, 3],
            "every honest process must be reported undecided"
        );
        assert!(
            out.trace.messages_sent >= 12,
            "three honest broadcasts of 4 must be counted: {:?}",
            out.trace
        );
    }

    #[test]
    fn threaded_success_reports_no_undecided_and_counts_messages() {
        let n = 4;
        let config = SystemConfig::new(n, 1);
        let nodes = (0..n)
            .map(|i| {
                ThreadedNode::Honest(QuorumSum {
                    n,
                    quorum: n,
                    input: i as i64,
                    seen: Vec::new(),
                    decided: None,
                })
            })
            .collect();
        let out = run_threaded(&config, nodes, Duration::from_secs(10));
        assert!(out.all_decided);
        assert!(out.undecided.is_empty());
        assert_eq!(out.trace.messages_sent, 16, "4 broadcasts of 4, no echoes");
        assert!(out.trace.messages_delivered <= out.trace.messages_sent);
    }

    #[test]
    fn ghost_destination_is_recorded_not_panicked() {
        // A protocol addressing a nonexistent peer must degrade (that send
        // is lost, the event is recorded) instead of crashing its thread.
        struct GhostCast;
        impl AsyncProtocol for GhostCast {
            type Msg = i64;
            type Output = i64;
            fn on_start(&mut self) -> Vec<(ProcessId, i64)> {
                vec![(99, 1)]
            }
            fn on_message(&mut self, _from: ProcessId, _msg: i64) -> Vec<(ProcessId, i64)> {
                Vec::new()
            }
            fn output(&self) -> Option<i64> {
                Some(0)
            }
        }
        let config = SystemConfig::new(2, 0);
        let nodes = vec![ThreadedNode::Honest(GhostCast), ThreadedNode::Honest(GhostCast)];
        let out = run_threaded(&config, nodes, Duration::from_secs(5));
        assert!(out.all_decided);
        assert_eq!(out.errors.total(), 2, "one ghost send per node");
        assert!(matches!(
            out.errors.errors()[0],
            crate::error::ProtocolError::Transport { peer: Some(99), .. }
        ));
    }

    #[test]
    fn threaded_chaos_with_reliable_link_survives_loss() {
        use crate::net::{LinkFault, ReliableLink};

        let n = 4;
        let config = SystemConfig::new(n, 0);
        let nodes: Vec<ThreadedNode<ReliableLink<QuorumSum>>> = (0..n)
            .map(|i| {
                ThreadedNode::Honest(ReliableLink::with_defaults(
                    QuorumSum {
                        n,
                        quorum: n,
                        input: i as i64,
                        seen: Vec::new(),
                        decided: None,
                    },
                    n,
                ))
            })
            .collect();
        let fault = LinkFault {
            drop_prob: 0.25,
            dup_prob: 0.1,
            max_extra_delay: 10, // milliseconds on this runtime
            reorder_prob: 0.1,
        };
        let mut monitor = SafetyMonitor::agreement_only(n, |a: &i64, b: &i64| {
            (a != b).then(|| format!("{a} != {b}"))
        });
        let (out, net) = run_threaded_chaos(
            &config,
            nodes,
            Duration::from_secs(20),
            NetworkFaults::new(42, fault),
            Some(&mut monitor),
        );
        assert!(out.all_decided, "retransmission must recover the loss");
        assert!(net.dropped > 0, "chaos plan injected no loss — test vacuous");
        for d in &out.decisions {
            assert_eq!(*d, Some(6));
        }
        assert!(monitor.clean(), "{:?}", monitor.alerts());
    }

    #[test]
    fn threaded_run_traces_one_decide_per_honest_node() {
        use rbvc_obs::RingRecorder;

        let n = 8;
        let config = SystemConfig::new(n, 0);
        let nodes = (0..n)
            .map(|i| {
                ThreadedNode::Honest(QuorumSum {
                    n,
                    quorum: n,
                    input: i as i64,
                    seen: Vec::new(),
                    decided: None,
                })
            })
            .collect();
        let ring = Arc::new(RingRecorder::new(64));
        let obs = Obs::new(Arc::clone(&ring) as Arc<dyn rbvc_obs::Recorder>);
        let out = run_threaded_with_obs(&config, nodes, Duration::from_secs(10), obs);
        assert!(out.all_decided);
        let events = ring.snapshot();
        let decides: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Decide)
            .collect();
        assert_eq!(decides.len(), n, "exactly one decide event per node");
        let mut nodes_seen: Vec<u32> = decides.iter().filter_map(|e| e.node).collect();
        nodes_seen.sort_unstable();
        assert_eq!(
            nodes_seen,
            (0..n as u32).collect::<Vec<_>>(),
            "every node tag present exactly once"
        );
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_recorder_survives_concurrent_node_threads() {
        // The thread-safety contract of the ring buffer under the threaded
        // runtime's concurrency model: many OS threads hammering one shared
        // recorder must lose nothing and tear nothing. Every (node, seq)
        // pair is encoded in the event detail and must come back exactly
        // once with a self-consistent node tag.
        use rbvc_obs::RingRecorder;
        use std::collections::HashSet;

        let threads = 8usize;
        let per_thread = 500usize;
        let ring = Arc::new(RingRecorder::new(threads * per_thread));
        let obs = Obs::new(Arc::clone(&ring) as Arc<dyn rbvc_obs::Recorder>);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let obs = obs.with_node(t as u32);
                thread::spawn(move || {
                    for seq in 0..per_thread {
                        obs.emit(|| {
                            Event::new(EventKind::RoundStart).detail(format!("node={t} seq={seq}"))
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("emitter thread panicked");
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), threads * per_thread, "no event lost");
        assert_eq!(ring.dropped(), 0);
        let mut seen: HashSet<(u32, usize)> = HashSet::new();
        for e in &events {
            let detail = e.detail.as_deref().expect("detail present");
            let node: u32 = detail
                .split_whitespace()
                .find_map(|f| f.strip_prefix("node="))
                .and_then(|v| v.parse().ok())
                .expect("node field intact");
            let seq: usize = detail
                .split_whitespace()
                .find_map(|f| f.strip_prefix("seq="))
                .and_then(|v| v.parse().ok())
                .expect("seq field intact");
            assert_eq!(e.node, Some(node), "node tag torn from detail");
            assert!(seen.insert((node, seq)), "duplicate event ({node},{seq})");
        }
        assert_eq!(seen.len(), threads * per_thread);
    }
}
