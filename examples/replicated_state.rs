//! Replicated controller state in both of the paper's system models —
//! per-coordinate (1-relaxed) consensus semantics in dimension 5 at only
//! `n = 3f + 1` processes.
//!
//! Scenario: seven replicas (f = 2) of a plant controller periodically
//! agree on a 5-dimensional setpoint vector. Full vector validity would
//! need `n ≥ (d+1)f + 1 = 13` replicas; 1-relaxed validity (each
//! coordinate within the range of honest values for that coordinate,
//! paper §5.3) is the natural contract for independent setpoints and needs
//! only 7. The synchronous lockstep run is repeated in the asynchronous
//! model (Relaxed Verified Averaging under a seeded random scheduler).
//!
//! ```sh
//! cargo run --example replicated_state
//! ```

use rbvc_core::problem::{Agreement, Validity};
use rbvc_core::rules::DecisionRule;
use rbvc_core::runner::{
    run_async, run_sync, AsyncByzantine, AsyncSpec, SchedulerSpec, SyncSpec,
};
use rbvc_core::sync_protocols::ByzantineStrategy;
use rbvc_core::verified_avg::DeltaMode;
use rbvc_linalg::{Norm, Tol, VecD};

fn main() {
    let (n, f, d) = (7, 2, 5);
    assert!(n == 3 * f + 1, "the 1-relaxed bound");

    // Honest replicas' proposed setpoints; replicas 2 and 5 are Byzantine.
    let inputs: Vec<VecD> = (0..n)
        .map(|i| VecD((0..d).map(|c| (i + c) as f64 / 2.0).collect()))
        .collect();

    // --- Part 1: lockstep synchronous run, per-coordinate rule. ---
    let spec = SyncSpec {
        n,
        f,
        d,
        rule: DecisionRule::CoordinateTrimmedMidpoint,
        inputs: inputs.clone(),
        adversaries: vec![
            (
                2,
                ByzantineStrategy::TwoFaced(
                    (0..n).map(|j| VecD(vec![j as f64 * 100.0; d])).collect(),
                ),
            ),
            (
                5,
                ByzantineStrategy::LyingRelay {
                    input: VecD(vec![-1000.0; d]),
                    corrupt: VecD(vec![7e7; d]),
                },
            ),
        ],
        agreement: Agreement::Exact,
        validity: Validity::KRelaxed(1),
    };
    let report = run_sync(&spec, Tol::default());
    println!("lockstep run — agreed setpoint: {}", report.decisions[0].clone().unwrap());
    println!("lockstep verdict: {:?}", report.verdict);
    assert!(report.verdict.ok());

    // --- Part 2: the same inputs in the asynchronous model (Relaxed
    // Verified Averaging). The Byzantine replicas follow the protocol with
    // adversarially chosen inputs; message-corrupting strategies are
    // exercised in the engine tests. ---
    let spec = AsyncSpec {
        n,
        f,
        mode: DeltaMode::MinDelta(Norm::L2),
        rounds: 20,
        inputs: inputs.clone(),
        adversaries: [2usize, 5]
            .into_iter()
            .map(|i| (i, AsyncByzantine::HonestInput(inputs[i].clone())))
            .collect(),
        scheduler: SchedulerSpec::Random(7),
        max_steps: 5_000_000,
        agreement: Agreement::Epsilon(1e-3),
        validity: Validity::InputDependentDeltaP {
            kappa: 1.0,
            norm: Norm::L2,
        },
    };
    let report = run_async(&spec, Tol::default());
    println!(
        "\nasynchronous run ({} messages, {} deliveries):",
        report.trace.messages_sent, report.trace.messages_delivered
    );
    for dec in report.decisions.iter().flatten().take(2) {
        println!("  agreed value: {dec}");
    }
    println!("asynchronous verdict: {:?}", report.verdict);
    assert!(report.verdict.ok());
    println!("\nboth models agree: 7 replicas, 2 Byzantine, 5-dimensional state.");
}
