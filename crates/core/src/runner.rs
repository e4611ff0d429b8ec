//! One-call orchestration: build a system, run it, check the verdict.
//!
//! The experiment harness and the examples want a single entry point:
//! "run this consensus problem with these inputs, this adversary, this
//! schedule; give me the decisions, the verdict and the δ actually used".
//! [`run_sync`] and [`run_async`] are those entry points; their fallible
//! twins [`try_run_sync`] and [`try_run_async`] report malformed
//! specifications as [`ProtocolError::InvalidSpec`] instead of panicking.

use rbvc_linalg::{Tol, VecD};
use rbvc_sim::asynch::{
    AsyncEngine, AsyncNode, FifoScheduler, GstScheduler, RandomScheduler, Scheduler,
    SilentAsyncAdversary, TargetedDelayScheduler,
};
use rbvc_sim::config::{ProcessId, SystemConfig};
use rbvc_sim::sync::{RoundEngine, SyncNode};
use rbvc_obs::ExecutionTrace;
use serde::{Deserialize, Serialize};

use crate::error::ProtocolError;
use crate::problem::{check_execution, Agreement, Validity, Verdict};
use crate::rules::DecisionRule;
use crate::sync_protocols::{make_node, ByzantineStrategy, SyncBvc};
use crate::verified_avg::{
    CorruptAverage, DeltaMode, HonestFacade, SplitBrainInput, VerifiedAveraging,
};

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
/// (wrong input count, out-of-range or duplicated adversary ids, dimension
/// mismatches, non-finite inputs) instead of panicking mid-run.
pub fn try_run_sync(spec: &SyncSpec, tol: Tol) -> Result<RunReport, ProtocolError> {
    let faulty: Vec<ProcessId> = spec.adversaries.iter().map(|(i, _)| *i).collect();
    validate_common(spec.n, spec.f, spec.d, &spec.inputs, &faulty)?;
    let config = SystemConfig::new(spec.n, spec.f).with_faulty(faulty);
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

    let correct_ids = config.correct_ids();
    let correct_inputs: Vec<VecD> = correct_ids.iter().map(|&i| spec.inputs[i].clone()).collect();
    let decisions: Vec<Option<VecD>> = correct_ids
        .iter()
        .map(|&i| out.decisions[i].clone())
        .collect();
    let verdict = check_execution(
        &correct_inputs,
        &decisions,
        spec.agreement,
        &spec.validity,
        tol,
    );
    // Harvest δ from the honest protocol state.
    let mut delta_used: Option<f64> = None;
    for &i in &correct_ids {
        if let SyncNode::Honest(p) = engine.node(i) {
            if let Some(dec) = p.decision() {
                delta_used = Some(delta_used.map_or(dec.delta, |d: f64| d.max(dec.delta)));
            }
        }
    }
    Ok(RunReport {
        decisions,
        verdict,
        delta_used,
        trace: out.trace,
    })
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
    if spec.n <= 3 * spec.f {
        return Err(ProtocolError::InvalidSpec {
            reason: format!(
                "verified averaging requires n >= 3f + 1 (got n = {}, f = {})",
                spec.n, spec.f
            ),
        });
    }
    if spec.rounds == 0 {
        return Err(ProtocolError::InvalidSpec {
            reason: "need at least one averaging round".into(),
        });
    }
    let config = SystemConfig::new(spec.n, spec.f).with_faulty(faulty);
    let nodes: Vec<AsyncNode<VerifiedAveraging>> = (0..spec.n)
        .map(|i| {
            match spec.adversaries.iter().find(|(j, _)| *j == i).map(|(_, b)| b) {
                None => AsyncNode::Honest(VerifiedAveraging::new(
                    i,
                    spec.n,
                    spec.f,
                    spec.inputs[i].clone(),
                    spec.mode,
                    spec.rounds,
                    tol,
                )),
                Some(AsyncByzantine::Silent) => {
                    AsyncNode::Byzantine(Box::new(SilentAsyncAdversary))
                }
                Some(AsyncByzantine::HonestInput(v)) => {
                    AsyncNode::Byzantine(Box::new(HonestFacade(VerifiedAveraging::new(
                        i,
                        spec.n,
                        spec.f,
                        v.clone(),
                        spec.mode,
                        spec.rounds,
                        tol,
                    ))))
                }
                Some(AsyncByzantine::SplitBrain { primary, alt }) => {
                    AsyncNode::Byzantine(Box::new(SplitBrainInput::new(
                        i,
                        spec.n,
                        spec.f,
                        primary.clone(),
                        alt.clone(),
                        spec.mode,
                        spec.rounds,
                        tol,
                    )))
                }
                Some(AsyncByzantine::CorruptAverage { input, offset }) => {
                    AsyncNode::Byzantine(Box::new(CorruptAverage::new(
                        VerifiedAveraging::new(
                            i,
                            spec.n,
                            spec.f,
                            input.clone(),
                            spec.mode,
                            spec.rounds,
                            tol,
                        ),
                        offset.clone(),
                    )))
                }
            }
        })
        .collect();
    let mut engine = AsyncEngine::new(config.clone(), nodes);
    let mut scheduler = spec.scheduler.build();
    let out = engine.run(scheduler.as_mut(), spec.max_steps);

    let correct_ids = config.correct_ids();
    let correct_inputs: Vec<VecD> = correct_ids.iter().map(|&i| spec.inputs[i].clone()).collect();
    let decisions: Vec<Option<VecD>> = correct_ids
        .iter()
        .map(|&i| out.decisions[i].clone())
        .collect();
    let verdict = check_execution(
        &correct_inputs,
        &decisions,
        spec.agreement,
        &spec.validity,
        tol,
    );
    let mut delta_used: Option<f64> = None;
    for &i in &correct_ids {
        if let AsyncNode::Honest(p) = engine.node(i) {
            if let Some(delta) = p.round0_delta() {
                delta_used = Some(delta_used.map_or(delta, |d: f64| d.max(delta)));
            }
        }
    }
    Ok(RunReport {
        decisions,
        verdict,
        delta_used,
        trace: out.trace,
    })
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
    }
}
