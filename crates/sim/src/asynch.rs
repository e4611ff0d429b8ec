//! Event-driven asynchronous message-passing engine.
//!
//! The asynchronous model of the paper (Theorems 2, 4, 6; §10): reliable
//! channels, *no bound* on message delay, delivery order chosen by an
//! adversarial scheduler, but every sent message is eventually delivered.
//! The engine makes the scheduler a first-class pluggable component so
//! experiments can run the same protocol under FIFO, random, and
//! targeted-delay adversaries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{ProcessId, SystemConfig};
use rbvc_obs::ExecutionTrace;

/// An honest asynchronous protocol: reacts to message deliveries.
pub trait AsyncProtocol {
    /// Message type on the wire.
    type Msg: Clone;
    /// Decision type.
    type Output: Clone;

    /// Initial sends (called once before any delivery).
    fn on_start(&mut self) -> Vec<(ProcessId, Self::Msg)>;

    /// React to a delivered message; return new sends.
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg) -> Vec<(ProcessId, Self::Msg)>;

    /// Timer callback: the socket service invokes this once per poll on
    /// every launched, undecided instance, so protocols can drive timeouts
    /// (the lockstep synchronizer's round timeout). Purely delivery-driven
    /// protocols keep the default no-op; [`AsyncEngine`] never calls it —
    /// the paper's asynchronous model has no timers.
    fn on_tick(&mut self) -> Vec<(ProcessId, Self::Msg)> {
        Vec::new()
    }

    /// The decision, once reached. A decided process may keep participating
    /// (required by ε-agreement protocols that help laggards converge).
    fn output(&self) -> Option<Self::Output>;
}

/// A Byzantine asynchronous participant.
pub trait AsyncAdversary<M> {
    /// Initial sends.
    fn on_start(&mut self) -> Vec<(ProcessId, M)>;
    /// React (arbitrarily) to a delivery.
    fn on_message(&mut self, from: ProcessId, msg: M) -> Vec<(ProcessId, M)>;
}

/// A node in the asynchronous network.
pub enum AsyncNode<P: AsyncProtocol> {
    /// Follows the protocol.
    Honest(P),
    /// Arbitrary behaviour.
    Byzantine(Box<dyn AsyncAdversary<P::Msg>>),
}

/// Metadata the scheduler sees about an in-flight message.
#[derive(Debug, Clone, Copy)]
pub struct EnvelopeMeta {
    /// Sender.
    pub src: ProcessId,
    /// Destination.
    pub dst: ProcessId,
    /// Scheduler steps this envelope has been in flight.
    pub age: u64,
}

/// Chooses which in-flight message to deliver next. Implementations MUST be
/// fair (eventually deliver everything) — the engine enforces a hard age cap
/// as a backstop so that a buggy scheduler cannot starve a channel forever.
pub trait Scheduler {
    /// Pick an index into `pending` (nonempty).
    fn pick(&mut self, pending: &[EnvelopeMeta]) -> usize;
}

/// FIFO delivery (the most benign schedule).
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn pick(&mut self, _pending: &[EnvelopeMeta]) -> usize {
        0
    }
}

/// Uniformly random delivery, seeded for reproducibility.
pub struct RandomScheduler(StdRng);

impl RandomScheduler {
    /// Seeded random scheduler.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomScheduler(StdRng::seed_from_u64(seed))
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, pending: &[EnvelopeMeta]) -> usize {
        self.0.gen_range(0..pending.len())
    }
}

/// Adversarial scheduler: starves messages touching a victim set for as
/// long as fairness permits (`max_delay` steps), delivering everything else
/// first — the classic "slow process" adversary used in the paper's
/// asynchronous necessity arguments (Appendix B: "process j is faulty,
/// process d+2 is slow").
pub struct TargetedDelayScheduler {
    /// Processes whose traffic is starved.
    pub victims: Vec<ProcessId>,
    /// Fairness bound: a message older than this is delivered immediately.
    pub max_delay: u64,
    rng: StdRng,
}

impl TargetedDelayScheduler {
    /// Build with a seed for tie-breaking.
    #[must_use]
    pub fn new(victims: Vec<ProcessId>, max_delay: u64, seed: u64) -> Self {
        TargetedDelayScheduler {
            victims,
            max_delay,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn touches_victim(&self, m: &EnvelopeMeta) -> bool {
        self.victims.contains(&m.src) || self.victims.contains(&m.dst)
    }
}

impl Scheduler for TargetedDelayScheduler {
    fn pick(&mut self, pending: &[EnvelopeMeta]) -> usize {
        // Overdue messages first (fairness).
        if let Some((i, _)) = pending
            .iter()
            .enumerate()
            .find(|(_, m)| m.age >= self.max_delay)
        {
            return i;
        }
        // Prefer non-victim traffic.
        let non_victim: Vec<usize> = pending
            .iter()
            .enumerate()
            .filter(|(_, m)| !self.touches_victim(m))
            .map(|(i, _)| i)
            .collect();
        if !non_victim.is_empty() {
            return non_victim[self.rng.gen_range(0..non_victim.len())];
        }
        self.rng.gen_range(0..pending.len())
    }
}

/// Partial-synchrony scheduler (the GST model): fully adversarial
/// (random, delay-heavy) before the *global stabilization time*, then
/// effectively synchronous — oldest message first — afterwards. Protocols
/// designed for full asynchrony must work under it; the experiments use it
/// to show convergence accelerating after GST.
pub struct GstScheduler {
    /// Scheduler step at which the network stabilizes.
    pub gst: u64,
    steps: u64,
    rng: StdRng,
    /// Pre-GST fairness bound (still eventually delivers).
    pub pre_gst_max_delay: u64,
}

impl GstScheduler {
    /// Build with the stabilization step and a seed for the chaotic phase.
    #[must_use]
    pub fn new(gst: u64, pre_gst_max_delay: u64, seed: u64) -> Self {
        GstScheduler {
            gst,
            steps: 0,
            rng: StdRng::seed_from_u64(seed),
            pre_gst_max_delay,
        }
    }
}

impl Scheduler for GstScheduler {
    fn pick(&mut self, pending: &[EnvelopeMeta]) -> usize {
        self.steps += 1;
        if self.steps > self.gst {
            // Synchronous phase: oldest first (FIFO by age).
            return pending
                .iter()
                .enumerate()
                .max_by_key(|(_, m)| m.age)
                .map(|(i, _)| i)
                .unwrap_or(0);
        }
        // Chaotic phase: honor the fairness bound, otherwise prefer the
        // *youngest* messages (maximally reordering).
        if let Some((i, _)) = pending
            .iter()
            .enumerate()
            .find(|(_, m)| m.age >= self.pre_gst_max_delay)
        {
            return i;
        }
        let youngest: u64 = pending.iter().map(|m| m.age).min().unwrap_or(0);
        let candidates: Vec<usize> = pending
            .iter()
            .enumerate()
            .filter(|(_, m)| m.age <= youngest + 2)
            .map(|(i, _)| i)
            .collect();
        candidates[self.rng.gen_range(0..candidates.len())]
    }
}

struct Envelope<M> {
    src: ProcessId,
    dst: ProcessId,
    msg: M,
    born: u64,
}

/// Queue what `src` just sent: on the paper's reliable channels every
/// message is deliverable the step it is sent.
fn queue_sends<M>(
    pending: &mut Vec<Envelope<M>>,
    trace: &mut ExecutionTrace,
    n: usize,
    src: ProcessId,
    sends: Vec<(ProcessId, M)>,
    now: u64,
) {
    for (dst, msg) in sends {
        assert!(dst < n, "message to nonexistent process {dst}");
        trace.record_message();
        pending.push(Envelope { src, dst, msg, born: now });
    }
}

/// Outcome of an asynchronous execution.
#[derive(Debug, Clone)]
pub struct AsyncOutcome<O> {
    /// Decisions of honest processes by id (`None` = Byzantine/undecided).
    pub decisions: Vec<Option<O>>,
    /// Scheduler steps executed.
    pub steps: u64,
    /// Message statistics.
    pub trace: ExecutionTrace,
    /// True iff the run ended because every honest process decided.
    pub all_decided: bool,
}

/// The asynchronous engine.
pub struct AsyncEngine<P: AsyncProtocol> {
    config: SystemConfig,
    nodes: Vec<AsyncNode<P>>,
    /// Hard fairness backstop applied on top of the scheduler.
    age_cap: u64,
}

impl<P: AsyncProtocol> AsyncEngine<P> {
    /// Build the engine; placement of Byzantine nodes must match the config.
    ///
    /// # Panics
    /// Panics on node-count or fault-placement mismatch.
    #[must_use]
    pub fn new(config: SystemConfig, nodes: Vec<AsyncNode<P>>) -> Self {
        assert_eq!(nodes.len(), config.n, "one node per process required");
        for (i, node) in nodes.iter().enumerate() {
            let is_byz = matches!(node, AsyncNode::Byzantine(_));
            assert_eq!(
                is_byz,
                config.is_faulty(i),
                "node {i} placement disagrees with fault set"
            );
        }
        AsyncEngine {
            config,
            nodes,
            age_cap: 10_000,
        }
    }

    /// Read access to the per-process nodes, for post-run inspection (e.g.
    /// harvesting per-node degradation errors or protocol metrics).
    #[must_use]
    pub fn nodes(&self) -> &[AsyncNode<P>] {
        &self.nodes
    }

    /// Run under `scheduler` for at most `max_steps` deliveries: the paper's
    /// asynchronous model as stated — reliable channels, no timers. The run
    /// ends when every honest process decided or nothing is left in flight.
    pub fn run(&mut self, scheduler: &mut dyn Scheduler, max_steps: u64) -> AsyncOutcome<P::Output> {
        let n = self.config.n;
        let mut pending: Vec<Envelope<P::Msg>> = Vec::new();
        let mut trace = ExecutionTrace::default();
        let mut now: u64 = 0;
        // Per-node latch: Byzantine nodes have nothing to decide.
        let mut decided: Vec<bool> =
            self.nodes.iter().map(|node| matches!(node, AsyncNode::Byzantine(_))).collect();

        for src in 0..n {
            let sends = match &mut self.nodes[src] {
                AsyncNode::Honest(p) => p.on_start(),
                AsyncNode::Byzantine(a) => a.on_start(),
            };
            queue_sends(&mut pending, &mut trace, n, src, sends, now);
        }
        let mut all_decided = self.note_fresh_decisions(&mut decided);
        while now < max_steps && !all_decided && !pending.is_empty() {
            let metas: Vec<EnvelopeMeta> = pending
                .iter()
                .map(|e| EnvelopeMeta { src: e.src, dst: e.dst, age: now - e.born })
                .collect();
            // Fairness backstop: force-deliver anything over the age cap.
            let overdue = metas.iter().position(|m| m.age >= self.age_cap);
            let picked = overdue.unwrap_or_else(|| {
                let picked = scheduler.pick(&metas);
                assert!(picked < metas.len(), "scheduler picked out of range");
                picked
            });
            let env = pending.swap_remove(picked);
            trace.record_delivery();
            trace.record_round();
            now += 1;

            let sends = match &mut self.nodes[env.dst] {
                AsyncNode::Honest(p) => p.on_message(env.src, env.msg),
                AsyncNode::Byzantine(a) => a.on_message(env.src, env.msg),
            };
            queue_sends(&mut pending, &mut trace, n, env.dst, sends, now);
            all_decided = self.note_fresh_decisions(&mut decided);
        }

        let decisions = self
            .nodes
            .iter()
            .map(|node| match node {
                AsyncNode::Honest(p) => p.output(),
                AsyncNode::Byzantine(_) => None,
            })
            .collect();
        AsyncOutcome {
            decisions,
            steps: now,
            trace,
            all_decided,
        }
    }

    /// Latch each honest node's decision in `decided` the step it appears.
    /// True once every honest node has decided.
    fn note_fresh_decisions(&self, decided: &mut [bool]) -> bool {
        for (latch, node) in decided.iter_mut().zip(&self.nodes) {
            if let (false, AsyncNode::Honest(p)) = (*latch, node) {
                *latch = p.output().is_some();
            }
        }
        decided.iter().all(|&d| d)
    }

    /// Access a node for post-run inspection.
    #[must_use]
    pub fn node(&self, id: ProcessId) -> &AsyncNode<P> {
        &self.nodes[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::SilentAdversary;

    /// Toy protocol: broadcast the input once; decide when `quorum` distinct
    /// senders' values have arrived (sum of the first `quorum`).
    struct QuorumSum {
        n: usize,
        quorum: usize,
        input: i64,
        seen: Vec<(ProcessId, i64)>,
        decided: Option<i64>,
    }

    impl QuorumSum {
        fn new(_id: usize, n: usize, quorum: usize, input: i64) -> Self {
            QuorumSum {
                n,
                quorum,
                input,
                seen: Vec::new(),
                decided: None,
            }
        }
    }

    impl AsyncProtocol for QuorumSum {
        type Msg = i64;
        type Output = i64;

        fn on_start(&mut self) -> Vec<(ProcessId, i64)> {
            (0..self.n).map(|d| (d, self.input)).collect()
        }

        fn on_message(&mut self, from: ProcessId, msg: i64) -> Vec<(ProcessId, i64)> {
            if self.decided.is_none() && !self.seen.iter().any(|(s, _)| *s == from) {
                self.seen.push((from, msg));
                if self.seen.len() >= self.quorum {
                    let mut sorted = self.seen.clone();
                    sorted.sort_unstable();
                    self.decided = Some(sorted.iter().map(|(_, v)| v).sum());
                }
            }
            Vec::new()
        }

        fn output(&self) -> Option<i64> {
            self.decided
        }
    }

    fn build(n: usize, f: usize, faulty: Vec<usize>, quorum: usize) -> AsyncEngine<QuorumSum> {
        let config = SystemConfig::new(n, f).with_faulty(faulty.clone());
        let nodes = (0..n)
            .map(|i| {
                if faulty.contains(&i) {
                    AsyncNode::Byzantine(Box::new(SilentAdversary)
                        as Box<dyn AsyncAdversary<i64>>)
                } else {
                    AsyncNode::Honest(QuorumSum::new(i, n, quorum, i as i64))
                }
            })
            .collect();
        AsyncEngine::new(config, nodes)
    }

    #[test]
    fn fifo_schedule_decides() {
        let mut engine = build(4, 1, vec![], 4);
        let out = engine.run(&mut FifoScheduler, 1000);
        assert!(out.all_decided);
        for d in out.decisions {
            assert_eq!(d, Some(1 + 2 + 3));
        }
    }

    #[test]
    fn random_schedules_agree_with_fifo_when_waiting_for_all() {
        // Waiting for all n values makes the decision schedule-independent.
        let fifo = build(5, 0, vec![], 5).run(&mut FifoScheduler, 10_000);
        for seed in 0..5 {
            let mut engine = build(5, 0, vec![], 5);
            let out = engine.run(&mut RandomScheduler::new(seed), 10_000);
            assert!(out.all_decided);
            assert_eq!(out.decisions, fifo.decisions, "seed {seed} diverged");
        }
    }

    #[test]
    fn quorum_decision_survives_silent_fault() {
        // n = 4, f = 1 silent: waiting for n − f = 3 values must terminate.
        let mut engine = build(4, 1, vec![2], 3);
        let out = engine.run(&mut RandomScheduler::new(7), 10_000);
        assert!(out.all_decided, "asynchronous liveness with f silent");
        for (i, d) in out.decisions.iter().enumerate() {
            if i != 2 {
                assert!(d.is_some());
            }
        }
    }

    #[test]
    fn waiting_for_all_with_a_silent_fault_stalls() {
        // Waiting for n values when one process never speaks: the run must
        // NOT decide (this is exactly why asynchronous protocols wait for
        // at most n − f).
        let mut engine = build(4, 1, vec![2], 4);
        let out = engine.run(&mut FifoScheduler, 10_000);
        assert!(!out.all_decided);
    }

    #[test]
    fn targeted_delay_cannot_block_forever() {
        // Starve process 0's traffic; fairness bound still lets everyone
        // decide on quorum 4 of 4 (no faults).
        let mut engine = build(4, 1, vec![], 4);
        let mut sched = TargetedDelayScheduler::new(vec![0], 50, 3);
        let out = engine.run(&mut sched, 100_000);
        assert!(out.all_decided, "fair targeted delay must not violate liveness");
    }

    #[test]
    fn targeted_delay_reorders_but_preserves_outcome() {
        let base = build(5, 1, vec![4], 4).run(&mut FifoScheduler, 10_000);
        let mut engine = build(5, 1, vec![4], 4);
        let mut sched = TargetedDelayScheduler::new(vec![1], 20, 11);
        let out = engine.run(&mut sched, 100_000);
        assert!(out.all_decided);
        // Decision may differ per process (different quorums observed), but
        // liveness and well-formedness hold.
        assert_eq!(out.decisions.len(), base.decisions.len());
    }

    #[test]
    fn gst_scheduler_is_live_in_both_phases() {
        // Decisions must be reached whether GST falls before or after the
        // protocol finishes.
        for gst in [0u64, 5, 500] {
            let mut engine = build(4, 1, vec![3], 3);
            let mut sched = GstScheduler::new(gst, 40, 9);
            let out = engine.run(&mut sched, 100_000);
            assert!(out.all_decided, "GST = {gst} broke liveness");
        }
    }

    #[test]
    fn steps_are_bounded_by_max() {
        let mut engine = build(4, 1, vec![2], 4); // will stall
        let out = engine.run(&mut FifoScheduler, 17);
        assert!(out.steps <= 17);
    }

    #[test]
    fn every_honest_node_decides_and_the_byzantine_one_does_not() {
        let mut engine = build(4, 1, vec![2], 3);
        let out = engine.run(&mut FifoScheduler, 10_000);
        assert!(out.all_decided);
        let decided: Vec<bool> = out.decisions.iter().map(Option::is_some).collect();
        assert_eq!(decided, [true, true, false, true]);
    }
}
