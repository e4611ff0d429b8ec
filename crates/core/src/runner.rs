//! One-call orchestration: build a system, run it, check the verdict.
//!
//! The experiment harness and the examples want a single entry point:
//! "run this consensus problem with these inputs, this adversary, this
//! schedule; give me the decisions, the verdict and the δ actually used".
//! [`run_sync`] and [`run_async`] are those entry points; their fallible
//! twins [`try_run_sync`] and [`try_run_async`] report malformed
//! specifications as [`ProtocolError::InvalidSpec`] instead of panicking.

use rbvc_geometry::gamma_point;
use rbvc_linalg::{Tol, VecD};
use rbvc_sim::asynch::{
    AsyncEngine, AsyncNode, FifoScheduler, GstScheduler, RandomScheduler, Scheduler,
    TargetedDelayScheduler,
};
use rbvc_sim::config::{ProcessId, SystemConfig};
use rbvc_sim::fuzz::{follow, SilentAdversary};
use rbvc_sim::sync::{RoundEngine, SyncNode};
use rbvc_obs::ExecutionTrace;
use serde::{Deserialize, Serialize};

use crate::error::ProtocolError;
use crate::problem::{check_execution, Agreement, Validity, Verdict};
use crate::rules::DecisionRule;
use crate::sync_protocols::{make_node, ByzantineStrategy, SyncBvc};
use crate::verified_avg::{corrupt_average, split_brain_input, DeltaMode, VerifiedAveraging};

/// Specification of a synchronous run.
#[derive(Debug, Clone)]
pub struct SyncSpec {
    /// Number of processes.
    pub n: usize,
    /// Fault bound.
    pub f: usize,
    /// Input dimension.
    pub d: usize,
    /// Step-2 decision rule.
    pub rule: DecisionRule,
    /// Inputs, indexed by process id (faulty slots may hold placeholders).
    pub inputs: Vec<VecD>,
    /// Byzantine placements and strategies.
    pub adversaries: Vec<(ProcessId, ByzantineStrategy)>,
    /// Agreement condition to check.
    pub agreement: Agreement,
    /// Validity condition to check.
    pub validity: Validity,
}

/// Result of a run (shared by sync and async flavours).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Decisions of the *correct* processes, in id order.
    pub decisions: Vec<Option<VecD>>,
    /// The checked verdict.
    pub verdict: Verdict,
    /// δ used by the decision rule, when observable (max over processes).
    pub delta_used: Option<f64>,
    /// Message/round statistics.
    pub trace: ExecutionTrace,
}

/// Shared structural validation for both run flavours.
fn validate_common(
    n: usize,
    f: usize,
    d: usize,
    inputs: &[VecD],
    adversary_ids: &[ProcessId],
) -> Result<(), ProtocolError> {
    let invalid = |reason: String| Err(ProtocolError::InvalidSpec { reason });
    if n == 0 {
        return invalid("n must be positive".into());
    }
    if n <= 3 * f {
        return invalid(format!("Byzantine broadcast requires n >= 3f + 1 (got n = {n}, f = {f})"));
    }
    if inputs.len() != n {
        return invalid(format!("{} inputs for n = {n} processes", inputs.len()));
    }
    if adversary_ids.len() > f {
        return invalid(format!(
            "{} adversaries placed but f = {f}",
            adversary_ids.len()
        ));
    }
    let mut seen: Vec<ProcessId> = Vec::new();
    for &i in adversary_ids {
        if i >= n {
            return invalid(format!("adversary id {i} out of range (n = {n})"));
        }
        if seen.contains(&i) {
            return invalid(format!("adversary id {i} placed twice"));
        }
        seen.push(i);
    }
    for (i, v) in inputs.iter().enumerate() {
        if v.dim() != d {
            return invalid(format!(
                "input {i} has dimension {}, expected {d}",
                v.dim()
            ));
        }
        if !v.as_slice().iter().all(|x| x.is_finite()) {
            return invalid(format!("input {i} has a non-finite component"));
        }
    }
    Ok(())
}

/// Execute a synchronous broadcast-then-decide run and check it.
///
/// # Errors
/// Returns [`ProtocolError::InvalidSpec`] on inconsistent specifications
/// (wrong input count, `n ≤ 3f`, out-of-range or duplicated adversary ids,
/// dimension mismatches, non-finite inputs, a `TwoFaced` table that is not
/// `n` vectors of dimension `d`, `GammaPoint` below `n ≥ (d+1)f + 1` on
/// inputs that leave `Γ` empty) instead of panicking mid-run.
pub fn try_run_sync(spec: &SyncSpec, tol: Tol) -> Result<RunReport, ProtocolError> {
    let faulty: Vec<ProcessId> = spec.adversaries.iter().map(|(i, _)| *i).collect();
    validate_common(spec.n, spec.f, spec.d, &spec.inputs, &faulty)?;
    let invalid = |reason: String| Err(ProtocolError::InvalidSpec { reason });
    for (i, strategy) in &spec.adversaries {
        if let ByzantineStrategy::TwoFaced(shown) = strategy {
            if shown.len() != spec.n || shown.iter().any(|v| v.dim() != spec.d) {
                return invalid(format!(
                    "adversary {i}: TwoFaced needs {} values of dimension {}",
                    spec.n, spec.d
                ));
            }
        }
    }
    let config = SystemConfig::new(spec.n, spec.f).with_faulty(faulty);
    // `GammaPoint` decides inside Γ(S). Tverberg makes that nonempty from
    // n >= (d+1)f + 1; below it, only correct inputs that pin a common point
    // by themselves do: every (n−f)-subset of S keeps all but f of them,
    // whatever the faulty slots hold.
    let gamma_min_n = (spec.d + 1) * spec.f + 1;
    if spec.rule == DecisionRule::GammaPoint && spec.n < gamma_min_n {
        let correct: Vec<VecD> =
            config.correct_ids().into_iter().map(|i| spec.inputs[i].clone()).collect();
        if gamma_point(&correct, spec.f, tol).is_none() {
            return invalid(format!(
                "GammaPoint requires n >= (d+1)f + 1 = {gamma_min_n} (got n = {}) \
                 or correct inputs whose own Γ is nonempty",
                spec.n
            ));
        }
    }
    let nodes: Vec<SyncNode<SyncBvc>> = (0..spec.n)
        .map(|i| {
            let strategy = spec
                .adversaries
                .iter()
                .find(|(j, _)| *j == i)
                .map(|(_, s)| s.clone());
            let honest_input = if strategy.is_none() {
                Some(spec.inputs[i].clone())
            } else {
                None
            };
            make_node(i, spec.n, spec.f, spec.d, honest_input, strategy, spec.rule, tol)
        })
        .collect();
    let mut engine = RoundEngine::new(config.clone(), nodes);
    let out = engine.run(spec.f + 2);
    // Harvest δ from the honest protocol state.
    let delta_of = |i: ProcessId| match engine.node(i) {
        SyncNode::Honest(p) => p.decision().map(|dec| dec.delta),
        SyncNode::Byzantine(_) => None,
    };
    Ok(report(spec.agreement, &spec.validity, tol, &config, &spec.inputs, &out.decisions, out.trace, delta_of))
}

/// Keep the correct processes' decisions, check them against their inputs,
/// and take δ as the largest any of them reports.
#[allow(clippy::too_many_arguments)] // flat, like the spec structs it reads
fn report(
    agreement: Agreement,
    validity: &Validity,
    tol: Tol,
    config: &SystemConfig,
    inputs: &[VecD],
    decisions: &[Option<VecD>],
    trace: ExecutionTrace,
    delta_of: impl Fn(ProcessId) -> Option<f64>,
) -> RunReport {
    let correct_ids = config.correct_ids();
    let correct_inputs: Vec<VecD> = correct_ids.iter().map(|&i| inputs[i].clone()).collect();
    let decisions: Vec<Option<VecD>> = correct_ids.iter().map(|&i| decisions[i].clone()).collect();
    let verdict = check_execution(&correct_inputs, &decisions, agreement, validity, tol);
    let delta_used = correct_ids.iter().filter_map(|&i| delta_of(i)).reduce(f64::max);
    RunReport {
        decisions,
        verdict,
        delta_used,
        trace,
    }
}

/// Execute a synchronous run, panicking on malformed specifications.
///
/// Thin wrapper over [`try_run_sync`] for callers that construct specs
/// programmatically and treat a bad spec as a bug.
///
/// # Panics
/// Panics if the spec fails [`try_run_sync`] validation.
#[must_use]
pub fn run_sync(spec: &SyncSpec, tol: Tol) -> RunReport {
    match try_run_sync(spec, tol) {
        Ok(report) => report,
        Err(e) => panic!("run_sync: {e}"),
    }
}

/// Scheduler choice for asynchronous runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// First-in-first-out delivery.
    Fifo,
    /// Seeded uniform-random delivery.
    Random(u64),
    /// Starve traffic touching `victims` up to `max_delay` steps.
    TargetedDelay {
        /// Starved processes.
        victims: Vec<ProcessId>,
        /// Fairness bound in scheduler steps.
        max_delay: u64,
        /// Tie-break seed.
        seed: u64,
    },
    /// Partial synchrony: chaotic until step `gst`, synchronous after.
    Gst {
        /// Global stabilization time in scheduler steps.
        gst: u64,
        /// Pre-GST fairness bound.
        pre_gst_max_delay: u64,
        /// Seed for the chaotic phase.
        seed: u64,
    },
}

impl SchedulerSpec {
    fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::Fifo => Box::new(FifoScheduler),
            SchedulerSpec::Random(seed) => Box::new(RandomScheduler::new(*seed)),
            SchedulerSpec::TargetedDelay {
                victims,
                max_delay,
                seed,
            } => Box::new(TargetedDelayScheduler::new(victims.clone(), *max_delay, *seed)),
            SchedulerSpec::Gst {
                gst,
                pre_gst_max_delay,
                seed,
            } => Box::new(GstScheduler::new(*gst, *pre_gst_max_delay, *seed)),
        }
    }
}

/// Byzantine strategies for the asynchronous protocol.
#[derive(Debug, Clone)]
pub enum AsyncByzantine {
    /// Never sends.
    Silent,
    /// Follows the protocol with the given (adversarially chosen) input.
    HonestInput(VecD),
    /// Split-brain round-0 broadcast: `primary` to low ids, `alt` to high.
    SplitBrain {
        /// Value shown to low ids.
        primary: VecD,
        /// Value shown to high ids.
        alt: VecD,
    },
    /// Adds `offset` to its own averaged values (fails verification).
    CorruptAverage {
        /// Its round-0 input.
        input: VecD,
        /// Corruption added to every later value.
        offset: VecD,
    },
}

/// Specification of an asynchronous run.
#[derive(Debug, Clone)]
pub struct AsyncSpec {
    /// Number of processes.
    pub n: usize,
    /// Fault bound.
    pub f: usize,
    /// Round-0 combining mode (δ = 0 baseline vs input-dependent δ*).
    pub mode: DeltaMode,
    /// Averaging rounds before deciding.
    pub rounds: usize,
    /// Inputs by process id.
    pub inputs: Vec<VecD>,
    /// Byzantine placements.
    pub adversaries: Vec<(ProcessId, AsyncByzantine)>,
    /// Scheduler.
    pub scheduler: SchedulerSpec,
    /// Max scheduler steps before declaring the run stalled.
    pub max_steps: u64,
    /// Agreement condition to check.
    pub agreement: Agreement,
    /// Validity condition to check.
    pub validity: Validity,
}

/// Execute an asynchronous Verified-Averaging run and check it.
///
/// # Errors
/// Returns [`ProtocolError::InvalidSpec`] on inconsistent specifications
/// (wrong input count, `n ≤ 3f`, zero rounds, out-of-range adversary ids,
/// dimension mismatches, non-finite inputs) instead of panicking mid-run.
pub fn try_run_async(spec: &AsyncSpec, tol: Tol) -> Result<RunReport, ProtocolError> {
    let faulty: Vec<ProcessId> = spec.adversaries.iter().map(|(i, _)| *i).collect();
    let d = spec.inputs.first().map_or(0, VecD::dim);
    validate_common(spec.n, spec.f, d, &spec.inputs, &faulty)?;
    if spec.rounds == 0 {
        return Err(ProtocolError::InvalidSpec {
            reason: "need at least one averaging round".into(),
        });
    }
    let config = SystemConfig::new(spec.n, spec.f).with_faulty(faulty);
    let nodes: Vec<AsyncNode<VerifiedAveraging>> = (0..spec.n)
        .map(|i| {
            let proto = |input: &VecD| {
                VerifiedAveraging::new(i, spec.n, spec.f, input.clone(), spec.mode, spec.rounds, tol)
            };
            match spec.adversaries.iter().find(|(j, _)| *j == i).map(|(_, b)| b) {
                None => AsyncNode::Honest(proto(&spec.inputs[i])),
                Some(AsyncByzantine::Silent) => {
                    AsyncNode::Byzantine(Box::new(SilentAdversary))
                }
                Some(AsyncByzantine::HonestInput(v)) => {
                    AsyncNode::Byzantine(Box::new(follow(proto(v))))
                }
                Some(AsyncByzantine::SplitBrain { primary, alt }) => {
                    AsyncNode::Byzantine(Box::new(split_brain_input(proto(primary), alt.clone())))
                }
                Some(AsyncByzantine::CorruptAverage { input, offset }) => {
                    AsyncNode::Byzantine(Box::new(corrupt_average(proto(input), offset.clone())))
                }
            }
        })
        .collect();
    let mut engine = AsyncEngine::new(config.clone(), nodes);
    let mut scheduler = spec.scheduler.build();
    let out = engine.run(scheduler.as_mut(), spec.max_steps);
    let delta_of = |i: ProcessId| match engine.node(i) {
        AsyncNode::Honest(p) => p.round0_delta(),
        AsyncNode::Byzantine(_) => None,
    };
    Ok(report(spec.agreement, &spec.validity, tol, &config, &spec.inputs, &out.decisions, out.trace, delta_of))
}

/// Execute an asynchronous run, panicking on malformed specifications.
///
/// Thin wrapper over [`try_run_async`] for callers that construct specs
/// programmatically and treat a bad spec as a bug.
///
/// # Panics
/// Panics if the spec fails [`try_run_async`] validation.
#[must_use]
pub fn run_async(spec: &AsyncSpec, tol: Tol) -> RunReport {
    match try_run_async(spec, tol) {
        Ok(report) => report,
        Err(e) => panic!("run_async: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbvc_linalg::Norm;

    fn t() -> Tol {
        Tol::default()
    }

    #[test]
    fn sync_runner_end_to_end_exact_bvc() {
        let spec = SyncSpec {
            n: 4,
            f: 1,
            d: 2,
            rule: DecisionRule::GammaPoint,
            inputs: vec![
                VecD::from_slice(&[0.0, 0.0]),
                VecD::from_slice(&[2.0, 0.0]),
                VecD::from_slice(&[0.0, 2.0]),
                VecD::zeros(2),
            ],
            adversaries: vec![(3, ByzantineStrategy::Silent)],
            agreement: Agreement::Exact,
            validity: Validity::Exact,
        };
        let report = run_sync(&spec, t());
        assert!(report.verdict.ok(), "{:?}", report.verdict);
        assert_eq!(report.decisions.len(), 3);
        assert_eq!(report.delta_used, Some(0.0));
        assert!(report.trace.messages_sent > 0);
    }

    #[test]
    fn sync_runner_algo_reports_delta() {
        let spec = SyncSpec {
            n: 4,
            f: 1,
            d: 3,
            rule: DecisionRule::MinDeltaPoint(Norm::L2),
            inputs: vec![
                VecD::from_slice(&[0.0, 0.0, 0.0]),
                VecD::from_slice(&[1.0, 0.0, 0.0]),
                VecD::from_slice(&[0.0, 1.0, 0.0]),
                VecD::from_slice(&[0.0, 0.0, 1.0]),
            ],
            adversaries: vec![],
            agreement: Agreement::Exact,
            validity: Validity::InputDependentDeltaP {
                kappa: 0.5,
                norm: Norm::L2,
            },
            // κ = 1/(n−2) = 0.5 (Theorem 9).
        };
        let report = run_sync(&spec, t());
        assert!(report.verdict.ok(), "{:?}", report.verdict);
        let delta = report.delta_used.expect("ALGO reports δ*");
        assert!(delta > 0.0, "simplex inputs need a positive δ*");
    }

    #[test]
    fn async_runner_end_to_end() {
        let spec = AsyncSpec {
            n: 4,
            f: 1,
            mode: DeltaMode::MinDelta(Norm::L2),
            rounds: 15,
            inputs: vec![
                VecD::from_slice(&[0.0, 0.0, 0.0]),
                VecD::from_slice(&[1.0, 0.0, 0.0]),
                VecD::from_slice(&[0.0, 1.0, 0.0]),
                VecD::from_slice(&[0.0, 0.0, 1.0]),
            ],
            adversaries: vec![(2, AsyncByzantine::Silent)],
            scheduler: SchedulerSpec::Random(5),
            max_steps: 2_000_000,
            agreement: Agreement::Epsilon(1e-3),
            validity: Validity::InputDependentDeltaP {
                kappa: 1.0, // generous here; tight bounds tested elsewhere
                norm: Norm::L2,
            },
        };
        let report = run_async(&spec, t());
        assert!(report.verdict.ok(), "{:?}", report.verdict);
        assert!(report.delta_used.is_some());
    }

    #[test]
    fn malformed_specs_are_reported_not_panicked() {
        let good = AsyncSpec {
            n: 4,
            f: 1,
            mode: DeltaMode::MinDelta(Norm::L2),
            rounds: 5,
            inputs: (0..4).map(|i| VecD::from_slice(&[i as f64])).collect(),
            adversaries: vec![],
            scheduler: SchedulerSpec::Fifo,
            max_steps: 1_000_000,
            agreement: Agreement::Epsilon(1e-3),
            validity: Validity::InputDependentDeltaP {
                kappa: 1.0,
                norm: Norm::L2,
            },
        };
        assert!(try_run_async(&good, t()).is_ok());

        let mut bad = good.clone();
        bad.inputs.pop();
        assert!(matches!(
            try_run_async(&bad, t()),
            Err(ProtocolError::InvalidSpec { .. })
        ));

        let mut bad = good.clone();
        bad.inputs[2] = VecD::from_slice(&[f64::INFINITY]);
        assert!(matches!(
            try_run_async(&bad, t()),
            Err(ProtocolError::InvalidSpec { .. })
        ));

        let mut bad = good.clone();
        bad.adversaries = vec![(9, AsyncByzantine::Silent)];
        assert!(matches!(
            try_run_async(&bad, t()),
            Err(ProtocolError::InvalidSpec { .. })
        ));

        let mut bad = good.clone();
        bad.f = 2; // n = 4 <= 3f = 6
        assert!(matches!(
            try_run_async(&bad, t()),
            Err(ProtocolError::InvalidSpec { .. })
        ));

        let mut bad = good.clone();
        bad.rounds = 0;
        assert!(matches!(
            try_run_async(&bad, t()),
            Err(ProtocolError::InvalidSpec { .. })
        ));

        let bad_sync = SyncSpec {
            n: 4,
            f: 1,
            d: 2,
            rule: DecisionRule::GammaPoint,
            inputs: vec![VecD::zeros(2); 3], // 3 inputs for 4 processes
            adversaries: vec![],
            agreement: Agreement::Exact,
            validity: Validity::Exact,
        };
        assert!(matches!(
            try_run_sync(&bad_sync, t()),
            Err(ProtocolError::InvalidSpec { .. })
        ));

        // Specs the code below the check asserts on: n <= 3f (EIG), a
        // TwoFaced table of the wrong length or dimension (the node
        // factory), GammaPoint below n >= (d+1)f + 1 on inputs in general
        // position, so that Γ is empty (the decision rule).
        let sync = |n: usize, f: usize, d: usize, rule, adversaries| SyncSpec {
            n,
            f,
            d,
            rule,
            inputs: (0..n).map(|i| VecD((0..d).map(|c| f64::from(c == i)).collect())).collect(),
            adversaries,
            agreement: Agreement::Exact,
            validity: Validity::Exact,
        };
        let algo = DecisionRule::MinDeltaPoint(Norm::L2);
        let two_faced = |len, d| vec![(3, ByzantineStrategy::TwoFaced(vec![VecD::zeros(d); len]))];
        assert!(try_run_sync(&sync(4, 1, 2, algo, two_faced(4, 2)), t()).is_ok());
        for bad_sync in [
            sync(4, 2, 3, algo, vec![]),
            sync(4, 1, 2, algo, two_faced(3, 2)),
            sync(4, 1, 2, algo, two_faced(4, 3)),
            sync(4, 1, 5, DecisionRule::GammaPoint, vec![]),
        ] {
            assert!(matches!(
                try_run_sync(&bad_sync, t()),
                Err(ProtocolError::InvalidSpec { .. })
            ));
        }
    }
}
