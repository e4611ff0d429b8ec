//! Synchronous consensus protocols: Byzantine-broadcast-then-decide.
//!
//! [`SyncBvc`] is the executable form of the paper's synchronous
//! algorithms: Step 1 runs `n` parallel Byzantine broadcasts
//! ([`ParallelEig`]) so that all correct processes obtain the identical
//! multiset `S`; Step 2 applies a [`DecisionRule`]:
//!
//! * `GammaPoint` → Exact BVC (Theorem 1 regime) and k-relaxed exact
//!   consensus for `2 ≤ k ≤ d` (Theorem 3 sufficiency);
//! * `CoordinateTrimmedMidpoint` → 1-relaxed exact consensus at `n ≥ 3f+1`;
//! * `MinDeltaPoint(p)` → ALGO (§9): input-dependent (δ,p)-relaxed exact
//!   consensus at `n ≥ 3f + 1`.
//!
//! The broadcast is unauthenticated EIG, as in the paper's model: the
//! runner, the service and the wire format all run this one protocol.

use rbvc_linalg::{Tol, VecD};
use rbvc_sim::config::ProcessId;
use rbvc_sim::eig::{EigMsg, ParallelEig};
use rbvc_sim::fuzz::{follow, lying_relay, two_faced, SilentAdversary};
use rbvc_sim::sync::{SyncNode, SyncProtocol};

use crate::rules::{Decision, DecisionRule};

/// True iff `v` is a well-formed payload beside the `0^d` default: the
/// right dimension and every component finite. The one receive-boundary
/// predicate of broadcast-then-decide, applied by the broadcast layer as it
/// reads each item, so a value that is not a finite `d`-vector can neither
/// poison the shared multiset nor panic a decision rule downstream; it ends
/// as the default of its faulty sender, identically at every honest process.
fn value_ok(v: &VecD, default: &VecD) -> bool {
    v.dim() == default.dim() && v.as_slice().iter().all(|x| x.is_finite())
}

/// The broadcast-then-decide synchronous protocol.
pub struct SyncBvc {
    broadcast: ParallelEig<VecD>,
    rule: DecisionRule,
    f: usize,
    tol: Tol,
    decision: Option<Decision>,
}

impl SyncBvc {
    /// Build the protocol instance for process `id` with its `input`.
    ///
    /// The broadcast default for silent/faulty senders is the origin `0^d` —
    /// any fixed value works because it is only ever attributed to a faulty
    /// process, whose "input" is unconstrained by validity.
    #[must_use]
    pub fn new(
        id: ProcessId,
        n: usize,
        f: usize,
        d: usize,
        input: VecD,
        rule: DecisionRule,
        tol: Tol,
    ) -> Self {
        assert_eq!(input.dim(), d, "input dimension mismatch");
        SyncBvc {
            broadcast: ParallelEig::new(id, n, f, input, VecD::zeros(d)).accepting(value_ok),
            rule,
            f,
            tol,
            decision: None,
        }
    }

    /// The full decision record (value + δ used), once decided.
    #[must_use]
    pub fn decision(&self) -> Option<&Decision> {
        self.decision.as_ref()
    }

    /// The decided value, moved out of the machine it ends.
    #[must_use]
    pub fn into_output(self) -> Option<VecD> {
        self.decision.map(|d| d.value)
    }

    /// The common multiset `S` obtained from Step 1, once available.
    ///
    /// Agreement on a broadcast is agreement up to `==`, and `0.0 == -0.0`:
    /// a relay that flips the sign of a zero can leave correct processes
    /// holding bit-different representatives of one value. Every zero is
    /// taken as `+0.0` (`x + 0.0`, which changes nothing else), so that the
    /// same `S` is the same bits, and with them the same decision.
    #[must_use]
    pub fn common_multiset(&self) -> Option<Vec<VecD>> {
        let mut s = self.broadcast.output()?;
        s.iter_mut().flat_map(|v| v.0.iter_mut()).for_each(|x| *x += 0.0);
        Some(s)
    }
}

impl SyncProtocol for SyncBvc {
    type Msg = EigMsg<VecD>;
    type Output = VecD;

    fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, Self::Msg)> {
        self.broadcast.round_messages(round)
    }

    fn receive(&mut self, round: usize, inbox: &[(ProcessId, Self::Msg)]) {
        self.broadcast.receive(round, inbox);
        if self.decision.is_none() {
            if let Some(s) = self.common_multiset() {
                self.decision = Some(self.rule.decide(&s, self.f, self.tol));
            }
        }
    }

    fn output(&self) -> Option<VecD> {
        self.decision.as_ref().map(|d| d.value.clone())
    }
}

/// What a Byzantine process does in the synchronous protocols. These cover
/// the attack surface the paper reasons about: omission, equivocation at
/// the source, corruption in relays, and the impossibility proofs' device
/// of a faulty process that follows the protocol.
#[derive(Debug, Clone)]
pub enum ByzantineStrategy {
    /// Sends nothing, ever.
    Silent,
    /// Equivocates on its own input: shows `values[j]` to process `j`,
    /// relays faithfully otherwise.
    TwoFaced(Vec<VecD>),
    /// Participates with `input` but corrupts relayed values toward
    /// odd-indexed recipients with `corrupt`.
    LyingRelay {
        /// The value it broadcasts as its own input.
        input: VecD,
        /// The value injected into relays.
        corrupt: VecD,
    },
    /// Follows the protocol exactly with the given input (the restricted
    /// adversary of the Theorem 3/5 necessity proofs).
    FollowProtocol(VecD),
}

/// Materialize a node (honest or Byzantine) for the lockstep engine.
///
/// # Panics
/// Panics on an honest node without an input and on a `TwoFaced` table that
/// does not have one value per process.
#[must_use]
#[allow(clippy::too_many_arguments)] // flat spec mirrors the runner structs
pub fn make_node(
    id: ProcessId,
    n: usize,
    f: usize,
    d: usize,
    honest_input: Option<VecD>,
    strategy: Option<ByzantineStrategy>,
    rule: DecisionRule,
    tol: Tol,
) -> SyncNode<SyncBvc> {
    let zero = VecD::zeros(d);
    match strategy {
        None => {
            let input = honest_input.expect("honest node needs an input");
            SyncNode::Honest(SyncBvc::new(id, n, f, d, input, rule, tol))
        }
        Some(ByzantineStrategy::Silent) => SyncNode::Byzantine(Box::new(SilentAdversary)),
        Some(ByzantineStrategy::TwoFaced(values)) => {
            SyncNode::Byzantine(Box::new(two_faced(id, n, f, values, zero)))
        }
        Some(ByzantineStrategy::LyingRelay { input, corrupt }) => {
            SyncNode::Byzantine(Box::new(lying_relay(id, n, f, input, zero, corrupt)))
        }
        // The honest broadcast layer run verbatim, without Step 2.
        Some(ByzantineStrategy::FollowProtocol(input)) => {
            SyncNode::Byzantine(Box::new(follow(ParallelEig::new(id, n, f, input, zero))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbvc_linalg::Norm;
    use rbvc_sim::config::SystemConfig;
    use rbvc_sim::sync::RoundEngine;

    use crate::problem::{check_execution, Agreement, Validity, Verdict};

    fn t() -> Tol {
        Tol::default()
    }

    /// Run a system where process ids in `byz` follow the given strategies;
    /// the correct processes' decisions and inputs.
    fn run(
        n: usize,
        f: usize,
        d: usize,
        inputs: &[VecD],
        byz: &[(usize, ByzantineStrategy)],
        rule: DecisionRule,
    ) -> (Vec<Option<VecD>>, Vec<VecD>) {
        let faulty: Vec<usize> = byz.iter().map(|(i, _)| *i).collect();
        let config = SystemConfig::new(n, f).with_faulty(faulty);
        let nodes: Vec<SyncNode<SyncBvc>> = (0..n)
            .map(|i| {
                let strategy = byz.iter().find(|(j, _)| *j == i).map(|(_, s)| s.clone());
                let honest_input = strategy.is_none().then(|| inputs[i].clone());
                make_node(i, n, f, d, honest_input, strategy, rule, t())
            })
            .collect();
        let out = RoundEngine::new(config.clone(), nodes).run(f + 2);
        let correct = config.correct_ids();
        (
            correct.iter().map(|&i| out.decisions[i].clone()).collect(),
            correct.iter().map(|&i| inputs[i].clone()).collect(),
        )
    }

    fn exact(correct: &[VecD], decisions: &[Option<VecD>]) -> Verdict {
        check_execution(correct, decisions, Agreement::Exact, &Validity::Exact, t())
    }

    /// d = 2, f = 1, n = max(4, 4) = 4: Exact BVC must succeed against an
    /// equivocator showing `shown[j]` to process `j`.
    #[test]
    fn exact_bvc_at_theorem1_bound() {
        let (n, f, d) = (4, 1, 2);
        let inputs = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[2.0, 0.0]),
            VecD::from_slice(&[0.0, 2.0]),
            VecD::zeros(2), // ignored (faulty)
        ];
        // One face per recipient, and one per network half (ids `< n/2`
        // against the rest).
        let faces = [[100.0, 100.0], [-100.0, -100.0], [0.0, 50.0], [0.0, 0.0]];
        let halves = [[50.0, 50.0], [50.0, 50.0], [-50.0, -50.0], [-50.0, -50.0]];
        for shown in [faces, halves] {
            let table = shown.iter().map(|v| VecD::from_slice(v)).collect();
            let byz = vec![(3, ByzantineStrategy::TwoFaced(table))];
            let (decisions, correct) = run(n, f, d, &inputs, &byz, DecisionRule::GammaPoint);
            let v = exact(&correct, &decisions);
            assert!(v.ok(), "Exact BVC failed at the Theorem 1 bound: {v:?}");
        }
    }

    #[test]
    fn one_relaxed_consensus_at_3f_plus_1_high_dimension() {
        // d = 5, f = 1, n = 4 < (d+1)f+1 = 7: exact BVC impossible here,
        // but 1-relaxed consensus must work (paper §5.3).
        let (n, f, d) = (4, 1, 5);
        let inputs: Vec<VecD> = (0..n)
            .map(|i| VecD((0..d).map(|c| (i * d + c) as f64).collect()))
            .collect();
        let byz = vec![(0, ByzantineStrategy::Silent)];
        let (decisions, correct) = run(
            n,
            f,
            d,
            &inputs,
            &byz,
            DecisionRule::CoordinateTrimmedMidpoint,
        );
        let v = check_execution(
            &correct,
            &decisions,
            Agreement::Exact,
            &Validity::KRelaxed(1),
            t(),
        );
        assert!(v.ok(), "1-relaxed consensus failed: {v:?}");
    }

    #[test]
    fn algo_achieves_input_dependent_delta_at_n_d_plus_1() {
        // The paper's headline: f = 1, d = 3, n = d + 1 = 4 < (d+1)f+1 = 5.
        // Exact BVC is impossible, but ALGO achieves (δ*, 2)-consensus with
        // δ* < min(min-edge/2, max-edge/(d−1)) (Theorem 9).
        let (n, f, d) = (4, 1, 3);
        let inputs = vec![
            VecD::from_slice(&[0.0, 0.0, 0.0]),
            VecD::from_slice(&[1.0, 0.2, 0.1]),
            VecD::from_slice(&[0.3, 1.1, -0.2]),
            VecD::from_slice(&[-0.4, 0.3, 0.9]),
        ];
        let byz = vec![(
            2,
            ByzantineStrategy::FollowProtocol(inputs[2].clone()),
        )];
        let (decisions, correct) =
            run(n, f, d, &inputs, &byz, DecisionRule::MinDeltaPoint(Norm::L2));
        // Theorem 9's bounds define the validity κ: max-edge/(n−2).
        let v = check_execution(
            &correct,
            &decisions,
            Agreement::Exact,
            &Validity::InputDependentDeltaP {
                kappa: 1.0 / (n as f64 - 2.0),
                norm: Norm::L2,
            },
            t(),
        );
        assert!(v.ok(), "ALGO failed the Theorem 9 validity: {v:?}");
    }

    #[test]
    fn lying_relay_cannot_break_agreement() {
        let (n, f, d) = (5, 1, 2);
        let inputs: Vec<VecD> = (0..n)
            .map(|i| VecD::from_slice(&[i as f64, (i * i) as f64 / 4.0]))
            .collect();
        let byz = vec![(
            4,
            ByzantineStrategy::LyingRelay {
                input: VecD::from_slice(&[50.0, -50.0]),
                corrupt: VecD::from_slice(&[9e9, 9e9]),
            },
        )];
        let (decisions, correct) = run(n, f, d, &inputs, &byz, DecisionRule::GammaPoint);
        let v = exact(&correct, &decisions);
        assert!(v.ok(), "lying relays broke the protocol: {v:?}");
    }

    #[test]
    fn all_honest_no_faults_decides_fast() {
        let (n, f, d) = (4, 1, 2);
        let inputs: Vec<VecD> = (0..n)
            .map(|i| VecD::from_slice(&[i as f64, -(i as f64)]))
            .collect();
        let (decisions, correct) = run(n, f, d, &inputs, &[], DecisionRule::GammaPoint);
        assert!(exact(&correct, &decisions).ok());
    }

    /// Values that are not finite `d`-vectors — injected into relays, or
    /// broadcast as the input of a faulty process that otherwise follows the
    /// protocol — must be dropped at the receive boundary: they would
    /// otherwise defeat every trimming rule, since NaN comparisons are all
    /// false.
    #[test]
    fn non_finite_payloads_cannot_poison_the_run() {
        let (n, f, d) = (5, 1, 2);
        let inputs: Vec<VecD> = (0..n)
            .map(|i| VecD::from_slice(&[i as f64, 1.0]))
            .collect();
        let bad = |v: &[f64]| ByzantineStrategy::FollowProtocol(VecD::from_slice(v));
        for strategy in [
            ByzantineStrategy::LyingRelay {
                input: VecD::from_slice(&[2.0, 1.0]),
                corrupt: VecD::from_slice(&[f64::NAN, f64::INFINITY]),
            },
            bad(&[f64::NAN, f64::INFINITY]),
            bad(&[f64::INFINITY, 1.0]),
            bad(&[1.0, 2.0, 3.0]),
        ] {
            for rule in [
                DecisionRule::GammaPoint,
                DecisionRule::CoordinateTrimmedMidpoint,
                DecisionRule::MinDeltaPoint(Norm::L2),
            ] {
                let byz = vec![(4, strategy.clone())];
                let (decisions, correct) = run(n, f, d, &inputs, &byz, rule);
                for dec in &decisions {
                    let dec = dec.as_ref().expect("every honest process decides");
                    assert!(
                        dec.dim() == d && dec.as_slice().iter().all(|x| x.is_finite()),
                        "{strategy:?} leaked into a decision under {rule:?}: {dec}"
                    );
                }
                if rule == DecisionRule::GammaPoint {
                    let v = exact(&correct, &decisions);
                    assert!(v.ok(), "{strategy:?} broke exact validity: {v:?}");
                }
            }
        }
    }

    /// `0.0 == -0.0`, so Byzantine 0 can leave correct processes agreeing on
    /// a slot of `S` and still holding bit-different values in it: by
    /// relaying honest sender 1's `[0.0, 1.0]` as `[-0.0, 1.0]` to the odd
    /// recipients (which of the two a process keeps depends on what it counts
    /// first), or by showing them the two zeros as its own input.
    #[test]
    fn signed_zero_relay_cannot_split_the_multiset() {
        let (n, f, d) = (4, 1, 2);
        let inputs: Vec<VecD> = (0..n).map(|i| VecD::from_slice(&[0.0, i as f64])).collect();
        let rule = DecisionRule::MinDeltaPoint(Norm::L2);
        let zero = |sign: f64, y: f64| VecD::from_slice(&[sign * 0.0, y]);
        for liar in [
            ByzantineStrategy::LyingRelay { input: zero(1.0, 0.0), corrupt: zero(-1.0, 1.0) },
            ByzantineStrategy::TwoFaced((0..4).map(|j| zero([1.0, -1.0][j % 2], 7.0)).collect()),
        ] {
            let nodes: Vec<SyncNode<SyncBvc>> = (0..n)
                .map(|i| {
                    let strategy = (i == 0).then(|| liar.clone());
                    let input = strategy.is_none().then(|| inputs[i].clone());
                    make_node(i, n, f, d, input, strategy, rule, t())
                })
                .collect();
            let mut engine = RoundEngine::new(SystemConfig::new(n, f).with_faulty(vec![0]), nodes);
            let _ = engine.run(f + 2);
            let bits = |v: &VecD| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let seen: Vec<_> = (1..n)
                .map(|i| {
                    let SyncNode::Honest(p) = engine.node(i) else { unreachable!() };
                    let s = p.common_multiset().expect("Step 1 done");
                    (s.iter().map(bits).collect::<Vec<_>>(), bits(&p.output().expect("decided")))
                })
                .collect();
            assert_eq!(seen[0].0[1], bits(&inputs[1]), "the sender's value, zero sign and all");
            assert!(seen.iter().all(|s| s == &seen[0]), "bit-different S or decision: {seen:?}");
        }
    }

    #[test]
    fn silent_and_follow_strategies() {
        let (n, f, d) = (7, 2, 2);
        let inputs: Vec<VecD> = (0..n)
            .map(|i| VecD::from_slice(&[i as f64, -(i as f64)]))
            .collect();
        let byz = vec![
            (0, ByzantineStrategy::Silent),
            (4, ByzantineStrategy::FollowProtocol(VecD::from_slice(&[9.0, 9.0]))),
        ];
        let (decisions, correct) = run(n, f, d, &inputs, &byz, DecisionRule::GammaPoint);
        let v = exact(&correct, &decisions);
        assert!(v.ok(), "{v:?}");
    }

    #[test]
    fn common_multiset_is_identical_across_correct_processes() {
        let (n, f, d) = (4, 1, 2);
        let config = SystemConfig::new(n, f).with_faulty(vec![1]);
        let inputs: Vec<VecD> = (0..n)
            .map(|i| VecD::from_slice(&[i as f64, 1.0]))
            .collect();
        let rule = DecisionRule::CoordinateTrimmedMidpoint;
        let nodes: Vec<SyncNode<SyncBvc>> = (0..n)
            .map(|i| {
                if i == 1 {
                    let faces = (7..11).map(|x| VecD::from_slice(&[x as f64, x as f64])).collect();
                    let two_faced = Some(ByzantineStrategy::TwoFaced(faces));
                    make_node(i, n, f, d, None, two_faced, rule, t())
                } else {
                    make_node(i, n, f, d, Some(inputs[i].clone()), None, rule, t())
                }
            })
            .collect();
        let mut engine = RoundEngine::new(config, nodes);
        let _ = engine.run(f + 2);
        let mut sets = Vec::new();
        for i in [0usize, 2, 3] {
            if let SyncNode::Honest(p) = engine.node(i) {
                sets.push(p.common_multiset().expect("decided"));
            }
        }
        assert_eq!(sets[0], sets[1]);
        assert_eq!(sets[1], sets[2]);
    }
}
