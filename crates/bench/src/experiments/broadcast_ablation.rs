//! E15 (extension) — broadcast-substrate ablation: EIG (unauthenticated,
//! `O(n^{f+1})` messages) vs Dolev–Strong (authenticated, `O(n³f)`).
//!
//! The paper's ALGO delegates Step 1 to "any Byzantine broadcast
//! algorithm"; the substrate choice does not change the decision (both
//! deliver the identical multiset `S`) but changes the cost dramatically.
//! This experiment runs the same consensus instance over both substrates
//! and reports message counts, rounds, and decision agreement.

use rbvc_core::rules::DecisionRule;
use rbvc_core::sync_protocols::{make_node, SyncBvcOver};
use rbvc_linalg::{Tol, VecD};
use rbvc_sim::config::SystemConfig;
use rbvc_sim::dolev_strong::ParallelDolevStrong;
use rbvc_sim::eig::ParallelEig;
use rbvc_sim::sync::{Broadcast, RoundEngine, SyncNode};
use serde_json::json;

use super::Experiment;
use crate::campaign::{gate, Args, Gate, Kind};
use crate::report::{fnum, print_table};
use crate::workloads::{random_points, rng};

/// `exp broadcast` — E15.
pub const BROADCAST: Experiment = Experiment {
    name: "broadcast",
    ids: "E15",
    artefact: "ALGO Step 1 ablation (EIG vs Dolev–Strong)",
    positionals: &[("seed", Kind::Int, Some("5"))],
    flags: &[],
    suite: Some((&["5"], &["5"])),
    json: Some(|_, seed| json!({ "e15_broadcast_ablation": ablation_sweep(seed + 5) })),
    run,
};

/// One ablation row.
#[derive(Debug, Clone, serde::Serialize)]
pub struct AblationRow {
    /// Processes.
    pub n: usize,
    /// Fault bound.
    pub f: usize,
    /// Dimension.
    pub d: usize,
    /// Point-to-point envelopes sent by the EIG substrate.
    pub eig_messages: u64,
    /// Total relayed payload items (label/value pairs) under EIG — the
    /// quantity with the `O(n^{f+1})` blow-up.
    pub eig_items: u64,
    /// Envelopes sent by the Dolev–Strong substrate.
    pub ds_messages: u64,
    /// Total relayed signature chains under Dolev–Strong (`O(n³f)`).
    pub ds_items: u64,
    /// Both substrates produced the identical decision.
    pub decisions_match: bool,
}

/// Run one configuration over both substrates (all-honest run: message
/// complexity of the common case; adversarial equivalence is covered by
/// unit tests). Both envelope counts (engine trace) and payload-item
/// counts (protocol-level, where the asymptotic gap lives) are recorded.
#[must_use]
pub fn run_config(n: usize, f: usize, d: usize, seed: u64) -> AblationRow {
    let inputs = random_points(&mut rng(seed), n, d, 2.0);
    let (eig_decision, eig_messages, eig_items) = run_over::<ParallelEig<VecD>>(n, f, &inputs);
    let (ds_decision, ds_messages, ds_items) = run_over::<ParallelDolevStrong<VecD>>(n, f, &inputs);
    let decisions_match = match (&eig_decision, &ds_decision) {
        (Some(a), Some(b)) => a.approx_eq(b, Tol(1e-9)),
        _ => false,
    };
    AblationRow {
        n,
        f,
        d: inputs[0].dim(),
        eig_messages,
        eig_items,
        ds_messages,
        ds_items,
        decisions_match,
    }
}

/// One all-honest run over substrate `B`: process 0's decision, envelopes
/// sent, payload items on the wire.
fn run_over<B: Broadcast<VecD> + 'static>(
    n: usize,
    f: usize,
    inputs: &[VecD],
) -> (Option<VecD>, u64, u64) {
    let d = inputs[0].dim();
    let nodes: Vec<SyncNode<SyncBvcOver<B>>> = (0..n)
        .map(|i| {
            let input = Some(inputs[i].clone());
            make_node(i, n, f, d, input, None, DecisionRule::GammaPoint, Tol::default())
        })
        .collect();
    let out = RoundEngine::new(SystemConfig::new(n, f), nodes).run(f + 2);
    (out.decisions[0].clone(), out.trace.messages_sent, count_items::<B>(n, f, inputs))
}

/// Replay an all-honest broadcast layer and count payload items on the wire.
fn count_items<B: Broadcast<VecD>>(n: usize, f: usize, inputs: &[VecD]) -> u64 {
    let d = inputs[0].dim();
    let mut nodes: Vec<B> =
        (0..n).map(|i| B::new(i, n, f, inputs[i].clone(), VecD::zeros(d))).collect();
    let mut items = 0u64;
    for round in 0..=f {
        let mut inboxes: Vec<Vec<(usize, _)>> = vec![Vec::new(); n];
        for (src, node) in nodes.iter_mut().enumerate() {
            for (dst, msg) in node.round_messages(round) {
                items += B::items(&msg) as u64;
                inboxes[dst].push((src, msg));
            }
        }
        for (dst, inbox) in inboxes.into_iter().enumerate() {
            nodes[dst].receive(round, &inbox);
        }
    }
    items
}

/// Standard sweep over (n, f): the EIG blow-up appears at f = 2+.
#[must_use]
pub fn ablation_sweep(seed: u64) -> Vec<AblationRow> {
    vec![
        run_config(4, 1, 2, seed),
        run_config(5, 1, 2, seed + 1),
        run_config(7, 2, 2, seed + 2),
        run_config(10, 3, 2, seed + 3),
    ]
}

fn run(args: &Args) -> Vec<Gate> {
    println!(
        "E15 — Step-1 substrate ablation: identical decisions, very \
         different message complexity (EIG O(n^(f+1)) vs Dolev–Strong \
         O(n³f))."
    );
    let sweep = ablation_sweep(args.num(0));
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.f.to_string(),
                r.d.to_string(),
                r.eig_messages.to_string(),
                r.eig_items.to_string(),
                r.ds_messages.to_string(),
                r.ds_items.to_string(),
                fnum(r.eig_items as f64 / r.ds_items as f64),
                r.decisions_match.to_string(),
            ]
        })
        .collect();
    print_table(
        "EIG vs Dolev–Strong",
        &[
            "n", "f", "d", "EIG envs", "EIG items", "DS envs", "DS items",
            "items EIG/DS", "decisions match",
        ],
        &rows,
    );
    sweep
        .iter()
        .flat_map(|r| {
            // Every process says, to all n, Σ_{k ≤ f} (n−1)!/(n−1−k)! items
            // per broadcast it relays for: the labels of k + 1 ids ending in it.
            let per_pair: u64 = (0..=r.f).map(|k| (r.n - k..r.n).product::<usize>() as u64).sum();
            let expected = (r.n * r.n) as u64 * per_pair;
            let at = format!("(n, f) = ({}, {})", r.n, r.f);
            [
                gate(r.decisions_match, format!("{at}: the substrates decided differently")),
                gate(
                    r.eig_items == expected,
                    format!("{at}: {} EIG items on the wire, the protocol has {expected}", r.eig_items),
                ),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substrates_agree_and_ds_wins_at_f2() {
        let row = run_config(7, 2, 2, 5);
        assert!(row.decisions_match, "{row:?}");
        assert!(
            row.ds_items < row.eig_items,
            "DS items should beat EIG at f = 2: {row:?}"
        );
    }

    #[test]
    fn eig_blowup_grows_with_f() {
        let r1 = run_config(4, 1, 2, 9);
        let r3 = run_config(10, 3, 2, 9);
        let ratio1 = r1.eig_items as f64 / r1.ds_items as f64;
        let ratio3 = r3.eig_items as f64 / r3.ds_items as f64;
        assert!(
            ratio3 > ratio1,
            "exponential vs polynomial gap must widen: {ratio1} vs {ratio3}"
        );
    }
}
