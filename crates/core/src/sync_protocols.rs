//! Synchronous consensus protocols: Byzantine-broadcast-then-decide.
//!
//! [`SyncBvc`] is the executable form of the paper's synchronous algorithms:
//! Step 1 runs `n` parallel EIG Byzantine broadcasts so that all correct
//! processes obtain the identical multiset `S`; Step 2 applies a
//! [`DecisionRule`]:
//!
//! * `GammaPoint` → Exact BVC (Theorem 1 regime) and k-relaxed exact
//!   consensus for `2 ≤ k ≤ d` (Theorem 3 sufficiency);
//! * `CoordinateTrimmedMidpoint` → 1-relaxed exact consensus at `n ≥ 3f+1`;
//! * `MinDeltaPoint(p)` → ALGO (§9): input-dependent (δ,p)-relaxed exact
//!   consensus at `n ≥ 3f + 1`.

use rbvc_linalg::{Tol, VecD};
use rbvc_sim::config::ProcessId;
use rbvc_sim::eig::{EigMsg, LyingRelay, ParallelEig, ParallelEigMsg, TwoFacedSender};
use rbvc_sim::sync::{ProtocolFollowingAdversary, SilentAdversary, SyncNode, SyncProtocol};

use crate::rules::{Decision, DecisionRule};

/// True iff `v` is a well-formed payload for a `d`-dimensional run: the
/// right dimension and every component finite. The one receive-boundary
/// predicate of both broadcast flavours ([`SyncBvc`] and
/// [`crate::sync_ds::SyncBvcDs`]).
pub(crate) fn value_ok(v: &VecD, d: usize) -> bool {
    v.dim() == d && v.as_slice().iter().all(|x| x.is_finite())
}

/// The broadcast-then-decide synchronous protocol.
pub struct SyncBvc {
    eig: ParallelEig<VecD>,
    rule: DecisionRule,
    n: usize,
    f: usize,
    d: usize,
    tol: Tol,
    decision: Option<Decision>,
}

impl SyncBvc {
    /// Build the protocol instance for process `id` with its `input`.
    ///
    /// The EIG default for silent/faulty senders is the origin `0^d` — any
    /// fixed value works because it is only ever attributed to a faulty
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
            eig: ParallelEig::new(id, n, f, input, VecD::zeros(d)),
            rule,
            n,
            f,
            d,
            tol,
            decision: None,
        }
    }

    /// The full decision record (value + δ used), once decided.
    #[must_use]
    pub fn decision(&self) -> Option<&Decision> {
        self.decision.as_ref()
    }

    /// The common multiset `S` obtained from Step 1, once available.
    #[must_use]
    pub fn common_multiset(&self) -> Option<Vec<VecD>> {
        self.eig.output()
    }
}

impl SyncProtocol for SyncBvc {
    type Msg = ParallelEigMsg<VecD>;
    type Output = VecD;

    fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, Self::Msg)> {
        self.eig.round_messages(round)
    }

    fn receive(&mut self, round: usize, inbox: &[(ProcessId, Self::Msg)]) {
        // Receive-boundary sanitization: the EIG layer is payload-agnostic,
        // so ghost senders, ghost instance origins and values that are not
        // finite `d`-vectors are dropped here, before they can poison the
        // shared multiset or panic a decision rule downstream.
        let sane: Vec<(ProcessId, Self::Msg)> = inbox
            .iter()
            .filter(|(from, _)| *from < self.n)
            .map(|(from, msg)| {
                let msg: Self::Msg = msg
                    .iter()
                    .filter(|(origin, _)| *origin < self.n)
                    .map(|(origin, batch)| {
                        let batch: EigMsg<VecD> = batch
                            .iter()
                            .filter(|(_, v)| value_ok(v, self.d))
                            .cloned()
                            .collect();
                        (*origin, batch)
                    })
                    .collect();
                (*from, msg)
            })
            .collect();
        self.eig.receive(round, &sane);
        if self.decision.is_none() {
            if let Some(s) = self.eig.output() {
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
    match strategy {
        None => {
            let input = honest_input.expect("honest node needs an input");
            SyncNode::Honest(SyncBvc::new(id, n, f, d, input, rule, tol))
        }
        Some(ByzantineStrategy::Silent) => SyncNode::Byzantine(Box::new(SilentAdversary)),
        Some(ByzantineStrategy::TwoFaced(values)) => {
            assert_eq!(values.len(), n, "TwoFaced needs one value per recipient");
            SyncNode::Byzantine(Box::new(TwoFacedSender::new(
                id,
                n,
                f,
                values,
                VecD::zeros(d),
            )))
        }
        Some(ByzantineStrategy::LyingRelay { input, corrupt }) => SyncNode::Byzantine(
            Box::new(LyingRelay::new(id, n, f, input, VecD::zeros(d), corrupt)),
        ),
        // The honest broadcast layer run verbatim, without Step 2.
        Some(ByzantineStrategy::FollowProtocol(input)) => SyncNode::Byzantine(Box::new(
            ProtocolFollowingAdversary(ParallelEig::new(id, n, f, input, VecD::zeros(d))),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbvc_linalg::Norm;
    use rbvc_sim::config::SystemConfig;
    use rbvc_sim::sync::RoundEngine;

    use crate::problem::{check_execution, Agreement, Validity};

    fn t() -> Tol {
        Tol::default()
    }

    /// Run a system where process ids in `byz` follow the given strategies.
    fn run(
        n: usize,
        f: usize,
        d: usize,
        inputs: &[VecD],
        byz: &[(usize, ByzantineStrategy)],
        rule: DecisionRule,
    ) -> (Vec<Option<VecD>>, Vec<VecD>) {
        let faulty: Vec<usize> = byz.iter().map(|(i, _)| *i).collect();
        let config = SystemConfig::new(n, f).with_faulty(faulty.clone());
        let nodes: Vec<SyncNode<SyncBvc>> = (0..n)
            .map(|i| {
                let strategy = byz
                    .iter()
                    .find(|(j, _)| *j == i)
                    .map(|(_, s)| s.clone());
                let honest_input = if strategy.is_none() {
                    Some(inputs[i].clone())
                } else {
                    None
                };
                make_node(i, n, f, d, honest_input, strategy, rule, t())
            })
            .collect();
        let mut engine = RoundEngine::new(config.clone(), nodes);
        let out = engine.run(f + 2);
        let correct_inputs: Vec<VecD> = config
            .correct_ids()
            .into_iter()
            .map(|i| inputs[i].clone())
            .collect();
        (out.decisions, correct_inputs)
    }

    #[test]
    fn exact_bvc_at_theorem1_bound() {
        // d = 2, f = 1, n = max(4, 4) = 4: Exact BVC must succeed against a
        // two-faced equivocator.
        let (n, f, d) = (4, 1, 2);
        let inputs = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[2.0, 0.0]),
            VecD::from_slice(&[0.0, 2.0]),
            VecD::zeros(2), // ignored (faulty)
        ];
        let byz = vec![(
            3,
            ByzantineStrategy::TwoFaced(vec![
                VecD::from_slice(&[100.0, 100.0]),
                VecD::from_slice(&[-100.0, -100.0]),
                VecD::from_slice(&[0.0, 50.0]),
                VecD::zeros(2),
            ]),
        )];
        let (decisions, correct) = run(n, f, d, &inputs, &byz, DecisionRule::GammaPoint);
        let correct_decisions: Vec<Option<VecD>> =
            (0..3).map(|i| decisions[i].clone()).collect();
        let v = check_execution(
            &correct,
            &correct_decisions,
            Agreement::Exact,
            &Validity::Exact,
            t(),
        );
        assert!(v.ok(), "Exact BVC failed at the Theorem 1 bound: {v:?}");
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
        let correct_decisions: Vec<Option<VecD>> =
            (1..4).map(|i| decisions[i].clone()).collect();
        let v = check_execution(
            &correct,
            &correct_decisions,
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
        let correct_decisions: Vec<Option<VecD>> = [0, 1, 3]
            .iter()
            .map(|&i| decisions[i].clone())
            .collect();
        // Theorem 9's bounds define the validity κ: max-edge/(n−2).
        let v = check_execution(
            &correct,
            &correct_decisions,
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
        let correct_decisions: Vec<Option<VecD>> =
            (0..4).map(|i| decisions[i].clone()).collect();
        let v = check_execution(
            &correct,
            &correct_decisions,
            Agreement::Exact,
            &Validity::Exact,
            t(),
        );
        assert!(v.ok(), "lying relays broke the protocol: {v:?}");
    }

    #[test]
    fn all_honest_no_faults_decides_fast() {
        let (n, f, d) = (4, 1, 2);
        let inputs: Vec<VecD> = (0..n)
            .map(|i| VecD::from_slice(&[i as f64, -(i as f64)]))
            .collect();
        let (decisions, correct) = run(n, f, d, &inputs, &[], DecisionRule::GammaPoint);
        let v = check_execution(
            &correct,
            &decisions,
            Agreement::Exact,
            &Validity::Exact,
            t(),
        );
        assert!(v.ok());
    }

    #[test]
    fn non_finite_payloads_cannot_poison_the_run() {
        // A lying relay that injects NaN/∞ vectors: the receive boundary
        // must drop them (they would otherwise defeat every trimming rule,
        // since NaN comparisons are all false) and the run must still
        // satisfy exact agreement + validity.
        let (n, f, d) = (5, 1, 2);
        let inputs: Vec<VecD> = (0..n)
            .map(|i| VecD::from_slice(&[i as f64, 1.0]))
            .collect();
        let byz = vec![(
            4,
            ByzantineStrategy::LyingRelay {
                input: VecD::from_slice(&[2.0, 1.0]),
                corrupt: VecD::from_slice(&[f64::NAN, f64::INFINITY]),
            },
        )];
        let (decisions, correct) = run(n, f, d, &inputs, &byz, DecisionRule::GammaPoint);
        let correct_decisions: Vec<Option<VecD>> =
            (0..4).map(|i| decisions[i].clone()).collect();
        for dec in correct_decisions.iter().flatten() {
            assert!(
                dec.as_slice().iter().all(|x| x.is_finite()),
                "a NaN leaked into a decision: {dec}"
            );
        }
        let v = check_execution(
            &correct,
            &correct_decisions,
            Agreement::Exact,
            &Validity::Exact,
            t(),
        );
        assert!(v.ok(), "NaN-flooding relay broke the protocol: {v:?}");
    }

    #[test]
    fn common_multiset_is_identical_across_correct_processes() {
        let (n, f, d) = (4, 1, 2);
        let config = SystemConfig::new(n, f).with_faulty(vec![1]);
        let inputs: Vec<VecD> = (0..n)
            .map(|i| VecD::from_slice(&[i as f64, 1.0]))
            .collect();
        let nodes: Vec<SyncNode<SyncBvc>> = (0..n)
            .map(|i| {
                if i == 1 {
                    make_node(
                        i,
                        n,
                        f,
                        d,
                        None,
                        Some(ByzantineStrategy::TwoFaced(vec![
                            VecD::from_slice(&[7.0, 7.0]),
                            VecD::from_slice(&[8.0, 8.0]),
                            VecD::from_slice(&[9.0, 9.0]),
                            VecD::from_slice(&[10.0, 10.0]),
                        ])),
                        DecisionRule::CoordinateTrimmedMidpoint,
                        t(),
                    )
                } else {
                    make_node(
                        i,
                        n,
                        f,
                        d,
                        Some(inputs[i].clone()),
                        None,
                        DecisionRule::CoordinateTrimmedMidpoint,
                        t(),
                    )
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
