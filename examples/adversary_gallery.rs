//! The Byzantine adversary gallery: run the same Exact BVC instance
//! against every structured attack in the library and print the outcome
//! table — a compact demonstration that the guarantees are adversary-
//! universal, and of what each attack actually does on the wire.
//!
//! Every structured attack is the same type, `sim::fuzz::Edited`: the honest
//! machine plus an edit of its outgoing `(dst, msg)` list (`ByzantineStrategy`
//! names the ready-made edits — `fuzz::{two_faced, lying_relay, follow}`).
//! The last part writes a new one in a closure.
//!
//! ```sh
//! cargo run --example adversary_gallery
//! ```

use relaxed_bvc::consensus::problem::{Agreement, Validity};
use relaxed_bvc::consensus::rules::DecisionRule;
use relaxed_bvc::consensus::runner::{run_sync, SyncSpec};
use relaxed_bvc::consensus::sync_protocols::{make_node, ByzantineStrategy, SyncBvc};
use relaxed_bvc::linalg::{Tol, VecD};
use relaxed_bvc::sim::config::SystemConfig;
use relaxed_bvc::sim::eig::{EigMsg, ParallelEig};
use relaxed_bvc::sim::fuzz::Edited;
use relaxed_bvc::sim::sync::{RoundEngine, SyncNode};

/// A hand-written adversary: process 4 follows the protocol but withholds
/// everything addressed to even ids. The correct processes' decisions.
fn withholding(inputs: &[VecD]) -> Vec<Option<VecD>> {
    let (n, f, d) = (5, 1, 2);
    let mut nodes: Vec<SyncNode<SyncBvc>> = (0..4)
        .map(|i| {
            let input = Some(inputs[i].clone());
            make_node(i, n, f, d, input, None, DecisionRule::GammaPoint, Tol::default())
        })
        .collect();
    let honest = ParallelEig::new(4, n, f, VecD::from_slice(&[7.0, 7.0]), VecD::zeros(d));
    nodes.push(SyncNode::Byzantine(Box::new(Edited::new(
        honest,
        |_round, sends: &mut Vec<(usize, EigMsg<VecD>)>| sends.retain(|(dst, _)| dst % 2 == 1),
    ))));
    let config = SystemConfig::new(n, f).with_faulty(vec![4]);
    let mut decisions = RoundEngine::new(config, nodes).run(f + 2).decisions;
    decisions.truncate(4);
    decisions
}

fn main() {
    let (n, f, d) = (5, 1, 2);
    let inputs = vec![
        VecD::from_slice(&[0.0, 0.0]),
        VecD::from_slice(&[2.0, 0.0]),
        VecD::from_slice(&[0.0, 2.0]),
        VecD::from_slice(&[2.0, 2.0]),
        VecD::zeros(2), // slot of the Byzantine process
    ];

    let gallery: Vec<(&str, ByzantineStrategy)> = vec![
        ("silent (omission)", ByzantineStrategy::Silent),
        (
            "two-faced (input equivocation)",
            ByzantineStrategy::TwoFaced(
                (0..n)
                    .map(|j| VecD::from_slice(&[j as f64 * 100.0, -100.0]))
                    .collect(),
            ),
        ),
        (
            "lying relay (corrupts forwarded values)",
            ByzantineStrategy::LyingRelay {
                input: VecD::from_slice(&[50.0, 50.0]),
                corrupt: VecD::from_slice(&[-9e6, 9e6]),
            },
        ),
        (
            "protocol-following (adversarial input only)",
            ByzantineStrategy::FollowProtocol(VecD::from_slice(&[1000.0, 1000.0])),
        ),
    ];

    println!(
        "Exact BVC, n = {n}, f = {f}, d = {d} (Theorem 1 bound is {}), process 4 Byzantine:\n",
        relaxed_bvc::consensus::bounds::exact_bvc_min_n(f, d)
    );
    println!(
        "{:<44} {:>10} {:>9} {:>9} {:>10}",
        "attack", "agreement", "validity", "messages", "decision"
    );
    for (name, strategy) in gallery {
        let spec = SyncSpec {
            n,
            f,
            d,
            rule: DecisionRule::GammaPoint,
            inputs: inputs.clone(),
            adversaries: vec![(n - 1, strategy)],
            agreement: Agreement::Exact,
            validity: Validity::Exact,
        };
        let report = run_sync(&spec, Tol::default());
        let decision = report.decisions[0]
            .as_ref()
            .map_or("—".to_string(), ToString::to_string);
        println!(
            "{:<44} {:>10} {:>9} {:>9} {:>10}",
            name,
            report.verdict.agreement,
            report.verdict.validity,
            report.trace.messages_sent,
            decision
        );
        assert!(report.verdict.ok(), "{name} broke the protocol!");
    }
    let decisions = withholding(&inputs);
    assert!(decisions.windows(2).all(|w| w[0].is_some() && w[0] == w[1]));
    let decision = decisions[0].as_ref().expect("decided");
    println!("withholding from even ids (hand-written): all decide {decision}");
    println!("\nEvery attack is absorbed: agreement and validity hold universally.");
}
