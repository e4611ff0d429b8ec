//! Deterministic lockstep synchronous round engine.
//!
//! One round = every process (honest protocol or Byzantine adversary) emits
//! its messages given the previous round's inbox, then all messages are
//! delivered simultaneously. This is exactly the synchronous model in which
//! the paper's Theorems 3 and 5 are stated.
//!
//! Byzantine power: a [`SyncAdversary`] sees its own inbox (it is a full
//! network participant) and may send *arbitrary, per-recipient* messages —
//! equivocation is the default capability, not an extension.

use crate::config::{ProcessId, SystemConfig};
use rbvc_obs::ExecutionTrace;

/// An honest protocol run under the lockstep engine.
pub trait SyncProtocol {
    /// Message type on the wire.
    type Msg: Clone;
    /// Decision type.
    type Output: Clone;

    /// Messages to send at the *start* of `round` (0-based), as
    /// `(destination, message)` pairs. Self-addressed messages are allowed
    /// and delivered like any other.
    fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, Self::Msg)>;

    /// Deliver the round's inbox (all messages addressed to this process),
    /// tagged with their senders. Called after every process has emitted.
    fn receive(&mut self, round: usize, inbox: &[(ProcessId, Self::Msg)]);

    /// The decision, once reached.
    fn output(&self) -> Option<Self::Output>;
}

/// A Byzantine participant: sends whatever it likes to whomever it likes.
pub trait SyncAdversary<M> {
    /// Messages to send at the start of `round`.
    fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, M)>;
    /// Observe the inbox (Byzantine processes still receive messages).
    fn receive(&mut self, round: usize, inbox: &[(ProcessId, M)]);
}

/// A network node: honest or Byzantine.
pub enum SyncNode<P: SyncProtocol> {
    /// Runs the protocol faithfully.
    Honest(P),
    /// Runs an arbitrary strategy over the same message type.
    Byzantine(Box<dyn SyncAdversary<P::Msg>>),
}

impl<P: SyncProtocol> SyncNode<P> {
    fn emit(&mut self, round: usize) -> Vec<(ProcessId, P::Msg)> {
        match self {
            SyncNode::Honest(p) => p.round_messages(round),
            SyncNode::Byzantine(a) => a.round_messages(round),
        }
    }

    fn absorb(&mut self, round: usize, inbox: &[(ProcessId, P::Msg)]) {
        match self {
            SyncNode::Honest(p) => p.receive(round, inbox),
            SyncNode::Byzantine(a) => a.receive(round, inbox),
        }
    }
}

/// Outcome of a lockstep execution.
#[derive(Debug, Clone)]
pub struct SyncOutcome<O> {
    /// Decisions of honest processes, indexed by process id (`None` entries
    /// are Byzantine slots or undecided processes).
    pub decisions: Vec<Option<O>>,
    /// Rounds actually executed.
    pub rounds: usize,
    /// Message statistics.
    pub trace: ExecutionTrace,
}

/// The lockstep round engine.
pub struct RoundEngine<P: SyncProtocol> {
    config: SystemConfig,
    nodes: Vec<SyncNode<P>>,
}

impl<P: SyncProtocol> RoundEngine<P> {
    /// Build an engine. `nodes[i]` is process `i`; the Byzantine positions
    /// must match `config.faulty` (the ground truth the harness validates
    /// against).
    ///
    /// # Panics
    /// Panics if node count ≠ `n` or honest/Byzantine placement disagrees
    /// with the config's fault set.
    #[must_use]
    pub fn new(config: SystemConfig, nodes: Vec<SyncNode<P>>) -> Self {
        assert_eq!(nodes.len(), config.n, "one node per process required");
        for (i, node) in nodes.iter().enumerate() {
            let is_byz = matches!(node, SyncNode::Byzantine(_));
            assert_eq!(
                is_byz,
                config.is_faulty(i),
                "node {i} placement disagrees with fault set"
            );
        }
        RoundEngine { config, nodes }
    }

    /// Run until every honest process has decided or `max_rounds` elapse.
    pub fn run(&mut self, max_rounds: usize) -> SyncOutcome<P::Output> {
        let n = self.config.n;
        let mut trace = ExecutionTrace::default();
        let mut rounds = 0;
        for round in 0..max_rounds {
            rounds = round + 1;
            // Emission phase: everyone produces messages simultaneously.
            let mut inboxes: Vec<Vec<(ProcessId, P::Msg)>> = vec![Vec::new(); n];
            for (src, node) in self.nodes.iter_mut().enumerate() {
                for (dst, msg) in node.emit(round) {
                    assert!(dst < n, "message to nonexistent process {dst}");
                    trace.record_message();
                    inboxes[dst].push((src, msg));
                }
            }
            // Delivery phase: reliable synchronous channels deliver all.
            for (dst, inbox) in inboxes.into_iter().enumerate() {
                self.nodes[dst].absorb(round, &inbox);
            }
            trace.record_round();
            if self.all_honest_decided() {
                break;
            }
        }
        let decisions = self
            .nodes
            .iter()
            .map(|node| match node {
                SyncNode::Honest(p) => p.output(),
                SyncNode::Byzantine(_) => None,
            })
            .collect();
        SyncOutcome {
            decisions,
            rounds,
            trace,
        }
    }

    fn all_honest_decided(&self) -> bool {
        self.nodes.iter().all(|node| match node {
            SyncNode::Honest(p) => p.output().is_some(),
            SyncNode::Byzantine(_) => true,
        })
    }

    /// Access a node (for post-run inspection in tests).
    #[must_use]
    pub fn node(&self, id: ProcessId) -> &SyncNode<P> {
        &self.nodes[id]
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }
}

/// A Byzantine strategy that follows a scripted per-round, per-recipient
/// message table — the general form of equivocation used by the paper's
/// impossibility constructions.
pub struct ScriptedAdversary<M> {
    /// `script[round]` = messages to send that round.
    pub script: Vec<Vec<(ProcessId, M)>>,
}

impl<M: Clone> SyncAdversary<M> for ScriptedAdversary<M> {
    fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, M)> {
        self.script.get(round).cloned().unwrap_or_default()
    }
    fn receive(&mut self, _round: usize, _inbox: &[(ProcessId, M)]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::SilentAdversary;

    /// A toy protocol: everyone broadcasts its input in round 0, then
    /// outputs the sum of everything received.
    struct SumProtocol {
        n: usize,
        input: i64,
        decided: Option<i64>,
    }

    impl SyncProtocol for SumProtocol {
        type Msg = i64;
        type Output = i64;

        fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, i64)> {
            if round == 0 {
                (0..self.n).map(|d| (d, self.input)).collect()
            } else {
                Vec::new()
            }
        }

        fn receive(&mut self, round: usize, inbox: &[(ProcessId, i64)]) {
            if round == 0 {
                self.decided = Some(inbox.iter().map(|(_, v)| v).sum());
            }
        }

        fn output(&self) -> Option<i64> {
            self.decided
        }
    }

    fn sum_node(_id: usize, n: usize, input: i64) -> SyncNode<SumProtocol> {
        SyncNode::Honest(SumProtocol {
            n,
            input,
            decided: None,
        })
    }

    #[test]
    fn all_honest_sum_agrees() {
        let n = 4;
        let config = SystemConfig::new(n, 0);
        let nodes = (0..n).map(|i| sum_node(i, n, i as i64 + 1)).collect();
        let mut engine = RoundEngine::new(config, nodes);
        let out = engine.run(5);
        assert_eq!(out.rounds, 1);
        for d in &out.decisions {
            assert_eq!(*d, Some(10));
        }
        assert_eq!(out.trace.messages_sent, 16);
    }

    #[test]
    fn silent_adversary_omits_its_share() {
        let n = 4;
        let config = SystemConfig::new(n, 1).with_faulty(vec![3]);
        let mut nodes: Vec<SyncNode<SumProtocol>> =
            (0..3).map(|i| sum_node(i, n, 1)).collect();
        nodes.push(SyncNode::Byzantine(Box::new(SilentAdversary)));
        let mut engine = RoundEngine::new(config, nodes);
        let out = engine.run(5);
        for (i, d) in out.decisions.iter().enumerate() {
            if i < 3 {
                assert_eq!(*d, Some(3), "process {i} saw only honest inputs");
            } else {
                assert!(d.is_none());
            }
        }
    }

    #[test]
    fn scripted_adversary_equivocates() {
        // Byzantine 3 sends +100 to process 0 and −100 to process 1.
        let n = 4;
        let config = SystemConfig::new(n, 1).with_faulty(vec![3]);
        let mut nodes: Vec<SyncNode<SumProtocol>> =
            (0..3).map(|i| sum_node(i, n, 0)).collect();
        nodes.push(SyncNode::Byzantine(Box::new(ScriptedAdversary {
            script: vec![vec![(0, 100), (1, -100), (2, 0)]],
        })));
        let mut engine = RoundEngine::new(config, nodes);
        let out = engine.run(5);
        assert_eq!(out.decisions[0], Some(100));
        assert_eq!(out.decisions[1], Some(-100));
        assert_eq!(out.decisions[2], Some(0));
    }

    #[test]
    fn protocol_following_adversary_is_indistinguishable() {
        // A Byzantine process that runs the protocol produces the same
        // global outcome as an honest one (the Theorem 3/5 proof device).
        let n = 4;
        let run = |byzantine: bool| -> Vec<Option<i64>> {
            let config = if byzantine {
                SystemConfig::new(n, 1).with_faulty(vec![3])
            } else {
                SystemConfig::new(n, 1)
            };
            let mut nodes: Vec<SyncNode<SumProtocol>> =
                (0..3).map(|i| sum_node(i, n, i as i64)).collect();
            if byzantine {
                nodes.push(SyncNode::Byzantine(Box::new(crate::fuzz::follow(SumProtocol {
                    n,
                    input: 3,
                    decided: None,
                }))));
            } else {
                nodes.push(sum_node(3, n, 3));
            }
            RoundEngine::new(config, nodes).run(5).decisions
        };
        let honest = run(false);
        let byz = run(true);
        for i in 0..3 {
            assert_eq!(honest[i], byz[i], "process {i} distinguished the runs");
        }
    }

    #[test]
    #[should_panic(expected = "placement disagrees")]
    fn engine_validates_fault_placement() {
        let config = SystemConfig::new(2, 1).with_faulty(vec![0]);
        let nodes: Vec<SyncNode<SumProtocol>> =
            (0..2).map(|i| sum_node(i, 2, 0)).collect();
        let _ = RoundEngine::new(config, nodes);
    }

    #[test]
    fn undecided_protocol_runs_to_round_cap() {
        struct Never;
        impl SyncProtocol for Never {
            type Msg = ();
            type Output = ();
            fn round_messages(&mut self, _r: usize) -> Vec<(ProcessId, ())> {
                Vec::new()
            }
            fn receive(&mut self, _r: usize, _i: &[(ProcessId, ())]) {}
            fn output(&self) -> Option<()> {
                None
            }
        }
        let config = SystemConfig::new(2, 0);
        let mut engine =
            RoundEngine::new(config, vec![SyncNode::Honest(Never), SyncNode::Honest(Never)]);
        let out = engine.run(7);
        assert_eq!(out.rounds, 7);
        assert!(out.decisions.iter().all(Option::is_none));
    }
}
