//! Broadcast-then-decide over the **Dolev–Strong authenticated** substrate.
//!
//! The paper's ALGO Step 1 admits "any Byzantine broadcast algorithm";
//! [`crate::sync_protocols::SyncBvc`] uses unauthenticated EIG, this module
//! provides the authenticated alternative. Same Step 2, same decision
//! rules, same guarantees — but `O(n³f)` messages instead of `O(n^{f+1})`
//! (the ablation quantified by E15, `exp broadcast`, and the
//! `message_complexity` tests).

use rbvc_linalg::{Tol, VecD};
use rbvc_sim::config::ProcessId;
use rbvc_sim::dolev_strong::{DsEquivocator, ParallelDolevStrong, ParallelDsMsg};
use rbvc_sim::sync::{ProtocolFollowingAdversary, SilentAdversary, SyncNode, SyncProtocol};

use crate::rules::{Decision, DecisionRule};
use crate::sync_protocols::value_ok;

/// Broadcast-then-decide over parallel Dolev–Strong.
pub struct SyncBvcDs {
    broadcast: ParallelDolevStrong<VecD>,
    rule: DecisionRule,
    f: usize,
    d: usize,
    tol: Tol,
    decision: Option<Decision>,
}

impl SyncBvcDs {
    /// Build the protocol for process `id` with its `input`.
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
        SyncBvcDs {
            broadcast: ParallelDolevStrong::new(id, n, f, input, VecD::zeros(d)),
            rule,
            f,
            d,
            tol,
            decision: None,
        }
    }

    /// Full decision record once available.
    #[must_use]
    pub fn decision(&self) -> Option<&Decision> {
        self.decision.as_ref()
    }
}

impl SyncProtocol for SyncBvcDs {
    type Msg = ParallelDsMsg<VecD>;
    type Output = VecD;

    fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, Self::Msg)> {
        self.broadcast.round_messages(round)
    }

    fn receive(&mut self, round: usize, inbox: &[(ProcessId, Self::Msg)]) {
        // The same receive boundary as the EIG flavour: a chain whose value
        // is not a finite `d`-vector is dropped before the broadcast layer
        // sees it, so it ends as the `0^d` default of its faulty sender.
        // Every honest receiver applies the same predicate, so Dolev–Strong
        // agreement is untouched.
        let sane: Vec<(ProcessId, Self::Msg)> = inbox
            .iter()
            .map(|(from, msg)| {
                let msg = msg
                    .iter()
                    .map(|(sender, batch)| {
                        let batch =
                            batch.iter().filter(|c| value_ok(&c.value, self.d)).cloned().collect();
                        (*sender, batch)
                    })
                    .collect();
                (*from, msg)
            })
            .collect();
        self.broadcast.receive(round, &sane);
        if self.decision.is_none() {
            if let Some(s) = self.broadcast.output() {
                self.decision = Some(self.rule.decide(&s, self.f, self.tol));
            }
        }
    }

    fn output(&self) -> Option<VecD> {
        self.decision.as_ref().map(|d| d.value.clone())
    }
}

/// Byzantine strategies available on the authenticated substrate.
#[derive(Debug, Clone)]
pub enum DsByzantineStrategy {
    /// Sends nothing.
    Silent,
    /// Signs two different inputs and shows one to each network half.
    Equivocate {
        /// Value shown to ids `< n/2`.
        low: VecD,
        /// Value shown to the rest.
        high: VecD,
    },
    /// Follows the protocol with an adversarially chosen input.
    FollowProtocol(VecD),
}

/// Materialize a node for the Dolev–Strong flavour of the protocol.
#[must_use]
#[allow(clippy::too_many_arguments)] // flat spec mirrors the runner structs
pub fn make_ds_node(
    id: ProcessId,
    n: usize,
    f: usize,
    d: usize,
    honest_input: Option<VecD>,
    strategy: Option<DsByzantineStrategy>,
    rule: DecisionRule,
    tol: Tol,
) -> SyncNode<SyncBvcDs> {
    match strategy {
        None => {
            let input = honest_input.expect("honest node needs an input");
            SyncNode::Honest(SyncBvcDs::new(id, n, f, d, input, rule, tol))
        }
        Some(DsByzantineStrategy::Silent) => SyncNode::Byzantine(Box::new(SilentAdversary)),
        Some(DsByzantineStrategy::Equivocate { low, high }) => SyncNode::Byzantine(
            Box::new(DsEquivocator::new(id, n, f, low, high, VecD::zeros(d))),
        ),
        // The honest broadcast layer run verbatim, without Step 2.
        Some(DsByzantineStrategy::FollowProtocol(input)) => SyncNode::Byzantine(Box::new(
            ProtocolFollowingAdversary(ParallelDolevStrong::new(id, n, f, input, VecD::zeros(d))),
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

    fn run(
        n: usize,
        f: usize,
        d: usize,
        inputs: &[VecD],
        byz: Vec<(usize, DsByzantineStrategy)>,
        rule: DecisionRule,
    ) -> (Vec<Option<VecD>>, Vec<VecD>) {
        let faulty: Vec<usize> = byz.iter().map(|(i, _)| *i).collect();
        let config = SystemConfig::new(n, f).with_faulty(faulty);
        let nodes: Vec<SyncNode<SyncBvcDs>> = (0..n)
            .map(|i| {
                let strategy = byz.iter().find(|(j, _)| *j == i).map(|(_, s)| s.clone());
                let honest = if strategy.is_none() {
                    Some(inputs[i].clone())
                } else {
                    None
                };
                make_ds_node(i, n, f, d, honest, strategy, rule, t())
            })
            .collect();
        let mut engine = RoundEngine::new(config.clone(), nodes);
        let out = engine.run(f + 2);
        let correct_inputs: Vec<VecD> = config
            .correct_ids()
            .into_iter()
            .map(|i| inputs[i].clone())
            .collect();
        let decisions: Vec<Option<VecD>> = config
            .correct_ids()
            .into_iter()
            .map(|i| out.decisions[i].clone())
            .collect();
        (decisions, correct_inputs)
    }

    #[test]
    fn exact_bvc_over_authenticated_broadcast() {
        let (n, f, d) = (4, 1, 2);
        let inputs = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[2.0, 0.0]),
            VecD::from_slice(&[0.0, 2.0]),
            VecD::zeros(2),
        ];
        let (decisions, correct) = run(
            n,
            f,
            d,
            &inputs,
            vec![(
                3,
                DsByzantineStrategy::Equivocate {
                    low: VecD::from_slice(&[50.0, 50.0]),
                    high: VecD::from_slice(&[-50.0, -50.0]),
                },
            )],
            DecisionRule::GammaPoint,
        );
        let v = check_execution(&correct, &decisions, Agreement::Exact, &Validity::Exact, t());
        assert!(v.ok(), "{v:?}");
    }

    #[test]
    fn algo_over_authenticated_broadcast_matches_eig_decision() {
        // Same inputs, same rule: the two substrates deliver the same
        // multiset S, hence the identical decision.
        let (n, f, d) = (4, 1, 3);
        let inputs = vec![
            VecD::from_slice(&[0.0, 0.0, 0.0]),
            VecD::from_slice(&[1.0, 0.0, 0.0]),
            VecD::from_slice(&[0.0, 1.0, 0.0]),
            VecD::from_slice(&[0.0, 0.0, 1.0]),
        ];
        let rule = DecisionRule::MinDeltaPoint(Norm::L2);
        let (ds_decisions, _) = run(n, f, d, &inputs, vec![], rule);

        // EIG flavour via the main runner.
        let spec = crate::runner::SyncSpec {
            n,
            f,
            d,
            rule,
            inputs: inputs.clone(),
            adversaries: vec![],
            agreement: Agreement::Exact,
            validity: Validity::Exact,
        };
        let eig_report = crate::runner::run_sync(&spec, t());
        let a = ds_decisions[0].clone().unwrap();
        let b = eig_report.decisions[0].clone().unwrap();
        assert!(
            a.approx_eq(&b, Tol(1e-9)),
            "substrates disagree: {a} vs {b}"
        );
    }

    #[test]
    fn malformed_payloads_cannot_poison_the_run() {
        // The EIG flavour's `non_finite_payloads_cannot_poison_the_run`
        // over Dolev–Strong: a faulty process that follows the protocol
        // with a non-finite or wrong-dimension input. Its signed chains are
        // perfectly valid, so only the receive boundary keeps the value out
        // of the common multiset.
        let (n, f, d) = (5, 1, 2);
        let inputs: Vec<VecD> = (0..n).map(|i| VecD::from_slice(&[i as f64, 1.0])).collect();
        for bad in [
            VecD::from_slice(&[f64::NAN, f64::INFINITY]),
            VecD::from_slice(&[f64::INFINITY, 1.0]),
            VecD::from_slice(&[1.0, 2.0, 3.0]),
        ] {
            for rule in [
                DecisionRule::GammaPoint,
                DecisionRule::CoordinateTrimmedMidpoint,
                DecisionRule::MinDeltaPoint(Norm::L2),
            ] {
                let byz = vec![(4, DsByzantineStrategy::FollowProtocol(bad.clone()))];
                let (decisions, correct) = run(n, f, d, &inputs, byz, rule);
                for dec in &decisions {
                    let dec = dec.as_ref().expect("every honest process decides");
                    assert!(
                        dec.dim() == d && dec.as_slice().iter().all(|x| x.is_finite()),
                        "{bad} leaked into a decision under {rule:?}: {dec}"
                    );
                }
                if rule == DecisionRule::GammaPoint {
                    let v = check_execution(
                        &correct,
                        &decisions,
                        Agreement::Exact,
                        &Validity::Exact,
                        t(),
                    );
                    assert!(v.ok(), "{bad} broke exact validity: {v:?}");
                }
            }
        }
    }

    #[test]
    fn silent_and_follow_strategies() {
        let (n, f, d) = (7, 2, 2);
        let inputs: Vec<VecD> = (0..n)
            .map(|i| VecD::from_slice(&[i as f64, -(i as f64)]))
            .collect();
        let (decisions, correct) = run(
            n,
            f,
            d,
            &inputs,
            vec![
                (0, DsByzantineStrategy::Silent),
                (4, DsByzantineStrategy::FollowProtocol(VecD::from_slice(&[9.0, 9.0]))),
            ],
            DecisionRule::GammaPoint,
        );
        let v = check_execution(&correct, &decisions, Agreement::Exact, &Validity::Exact, t());
        assert!(v.ok(), "{v:?}");
    }
}
