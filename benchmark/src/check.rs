//! Correctness checks, run on every repetition outside the timed region.
//! Any failure fails the run: the command exits non-zero and every
//! operation of that repetition is reported as failed.
//!
//! (a) the paper's conditions on every instance, through
//!     [`rbvc_core::problem::check_execution`]: (δ,2)-relaxed validity with
//!     δ from the Table 1 bound (`kappa_l2` / `kappa_async` × the instance's
//!     largest input edge), exact agreement (bit-identical across nodes) for
//!     SyncBvc, ε-agreement for Verified Averaging;
//! (b) `service.errors()` and `transport().errors()` totals are zero;
//! (c) on in-process workloads the exact counts and the decision hash are
//!     equal across repetitions — otherwise the schedule is not
//!     deterministic and the exact metrics mean nothing;
//! (d) after the cold restart every recovered decision is bit-identical to
//!     the pre-crash one and `replay_divergences() == 0`;
//! (e) client replies satisfy `‖reply − value‖∞ ≤ 1e-6`.

use rbvc_core::bounds::{kappa_async, kappa_l2};
use rbvc_core::problem::{check_execution, Agreement, Validity};
use rbvc_linalg::{Norm, Tol, VecD};

use crate::client::{ClientPlan, ClientRep};
use crate::mesh::{Fingerprint, Kind, MeshPlan, RepOutcome};

/// ε of the ε-agreement demanded of Verified Averaging.
pub const VA_EPSILON: f64 = 0.1;
/// Largest `‖reply − value‖∞` a client reply may show.
pub const REPLY_TOLERANCE: f64 = 1e-6;

/// `‖reply − value‖∞`, infinite on a dimension mismatch.
#[must_use]
pub fn reply_error(reply: &VecD, value: &VecD) -> f64 {
    if reply.dim() == value.dim() {
        reply.dist(value, Norm::LInf)
    } else {
        f64::INFINITY
    }
}

/// The paper's conditions for one instance of `kind` at `(n, f, d)`.
fn conditions(kind: Kind, n: usize, f: usize, d: usize) -> Result<(Agreement, Validity), String> {
    let (agreement, bound) = match kind {
        Kind::Bvc => (Agreement::Exact, kappa_l2(n, f, d)),
        Kind::Va => (
            Agreement::Epsilon(VA_EPSILON),
            kappa_async(n, f, d, Norm::L2),
        ),
    };
    let kappa = bound
        .ok_or_else(|| format!("Table 1 has no κ for n={n} f={f} d={d} ({kind:?})"))?
        .kappa;
    Ok((
        agreement,
        Validity::InputDependentDeltaP {
            kappa,
            norm: Norm::L2,
        },
    ))
}

/// Check (a) on one instance: `outputs[node]` against the instance's
/// `inputs` (every process is honest, so all `n` inputs are correct inputs).
///
/// # Errors
/// A one-line description of the violated condition.
pub fn check_instance(
    kind: Kind,
    f: usize,
    inputs: &[VecD],
    outputs: &[Option<VecD>],
) -> Result<(), String> {
    let (n, d) = (inputs.len(), inputs[0].dim());
    let (agreement, validity) = conditions(kind, n, f, d)?;
    let verdict = check_execution(inputs, outputs, agreement, &validity, Tol::default());
    if !verdict.termination {
        return Err("not decided by every node".into());
    }
    if !verdict.validity {
        return Err(format!(
            "(δ,2)-relaxed validity violated: {:.3e} beyond the Table 1 bound",
            verdict.max_validity_excess
        ));
    }
    if !verdict.agreement {
        return Err(format!(
            "{agreement:?} violated: disagreement {:.3e}",
            verdict.max_disagreement
        ));
    }
    if kind == Kind::Bvc && outputs.windows(2).any(|w| w[0] != w[1]) {
        return Err("SyncBvc decisions are not bit-identical across nodes".into());
    }
    Ok(())
}

/// Checks (a), (b) and (d) on one static repetition.
///
/// # Errors
/// Every violated condition, one line each.
pub fn check_mesh_rep(plan: &MeshPlan, seed: u64, rep: &RepOutcome) -> Result<(), Vec<String>> {
    let mut faults = Vec::new();
    for k in 0..plan.instances {
        let outputs: Vec<Option<VecD>> = rep.decisions.iter().map(|node| node[k].clone()).collect();
        if let Err(e) = check_instance(plan.kind(k), plan.f, &plan.slot_inputs(seed, k), &outputs) {
            faults.push(format!("instance {}: {e}", k + 1));
        }
    }
    if rep.errors != 0 {
        faults.push(format!("{} service/transport errors", rep.errors));
    }
    match (&rep.restart, plan.durable) {
        (Some(restart), _) => {
            if restart.divergences != 0 {
                faults.push(format!("{} replay divergences", restart.divergences));
            }
            if restart.errors != 0 {
                faults.push(format!("{} errors after recovery", restart.errors));
            }
            if restart.decisions != rep.decisions {
                faults.push("a recovered decision differs from the pre-crash one".into());
            }
        }
        (None, true) => faults.push("durable repetition did not restart".into()),
        (None, false) => {}
    }
    if faults.is_empty() {
        Ok(())
    } else {
        Err(faults)
    }
}

/// Check (c): the exact counts of every repetition equal the first's.
///
/// # Errors
/// The first differing pair.
pub fn check_determinism(fingerprints: &[Fingerprint]) -> Result<(), String> {
    match fingerprints.iter().position(|fp| *fp != fingerprints[0]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "repetition {i} is not a replay of repetition 0: {:?} vs {:?}",
            fingerprints[i], fingerprints[0]
        )),
    }
}

/// Checks (a), (b) and (e) on one client repetition. Every process of a
/// client instance is fed the client's value, so validity pins the decision
/// to that value and agreement compares all `n` nodes.
///
/// # Errors
/// Every violated condition, one line each.
pub fn check_client_rep(plan: &ClientPlan, rep: &ClientRep) -> Result<(), Vec<String>> {
    // A late or unanswered request is a failed operation (`rep.failed`), not
    // a wrong output: it is counted, and does not fail the check.
    let mut faults = Vec::new();
    if rep.max_reply_error > REPLY_TOLERANCE {
        faults.push(format!("reply off by {:.3e}", rep.max_reply_error));
    }
    if rep.errors != 0 {
        faults.push(format!(
            "{} service/transport/port errors or Busy signals",
            rep.errors
        ));
    }
    if rep.decisions.len() != rep.attempted {
        faults.push(format!(
            "{} instances for {} requests",
            rep.decisions.len(),
            rep.attempted
        ));
    }
    // Instance ids order by (owner, sequence); requests alternate between
    // the two sessions, so owner `o`'s `j`-th instance carries value 2j+o.
    let mut seen = [0usize; 2];
    for (id, outputs) in &rep.decisions {
        let owner = rbvc_transport::client_instance_owner(*id).unwrap_or(usize::MAX);
        let Some(value) = (owner < 2)
            .then(|| rep.values.get(2 * seen[owner] + owner))
            .flatten()
        else {
            faults.push(format!("instance {id:#x} matches no request"));
            continue;
        };
        seen[owner] += 1;
        let inputs = vec![value.clone(); plan.n];
        if let Err(e) = check_instance(Kind::Va, plan.config.f, &inputs, outputs) {
            faults.push(format!("instance {id:#x}: {e}"));
        }
    }
    if faults.is_empty() {
        Ok(())
    } else {
        Err(faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Inputs, Mix};
    use crate::probe::NoProbe;
    use std::time::Duration;

    fn tiny_plan(mix: Mix) -> MeshPlan {
        MeshPlan {
            n: 4,
            f: 1,
            d: 3,
            mix,
            inputs: Inputs::PerSeed,
            va_rounds: 6,
            instances: 6,
            window: 2,
            durable: false,
            deadline: Duration::from_secs(30),
        }
    }

    #[test]
    fn clean_repetitions_pass_and_replay_exactly() {
        let plan = tiny_plan(Mix::EveryThirdBvc);
        let _serial = crate::mesh::fsync_counter_lock();
        let run = |seed| plan.run_rep(seed, &NoProbe, None);
        let (a, b, other) = (run(11), run(11), run(12));
        assert_eq!(check_mesh_rep(&plan, 11, &a), Ok(()));
        assert_eq!(a.fingerprint.decided, plan.instances);
        assert_eq!(check_determinism(&[a.fingerprint, b.fingerprint]), Ok(()));
        assert!(check_determinism(&[a.fingerprint, other.fingerprint]).is_err());
    }

    #[test]
    fn perturbed_decision_is_caught() {
        let plan = tiny_plan(Mix::EveryThirdBvc);
        let clean = plan.run_rep(11, &NoProbe, None);
        // One ulp on one node of a SyncBvc instance: still ε-close and valid,
        // but no longer bit-identical.
        let mut rep = clean.clone();
        let v = rep.decisions[2][0].as_mut().expect("decided");
        v.0[1] = f64::from_bits(v.0[1].to_bits() + 1);
        let faults = check_mesh_rep(&plan, 11, &rep).expect_err("ulp flip");
        assert!(faults[0].contains("bit-identical"), "{faults:?}");
        // A VA decision pushed past ε.
        let mut rep = clean.clone();
        rep.decisions[1][1].as_mut().expect("decided").0[0] += 0.5;
        let faults = check_mesh_rep(&plan, 11, &rep).expect_err("disagreement");
        assert!(faults[0].contains("instance 2"), "{faults:?}");
        // Every node far outside the relaxed hull: validity, not agreement.
        let mut rep = clean.clone();
        for node in &mut rep.decisions {
            node[4] = Some(VecD(vec![40.0, 40.0, 40.0]));
        }
        let faults = check_mesh_rep(&plan, 11, &rep).expect_err("invalid");
        assert!(faults[0].contains("validity"), "{faults:?}");
        // An undecided node.
        let mut rep = clean.clone();
        rep.decisions[3][5] = None;
        let faults = check_mesh_rep(&plan, 11, &rep).expect_err("undecided");
        assert!(faults[0].contains("not decided"), "{faults:?}");
        // A wrong client reply.
        let value = VecD(vec![1.0, 2.0, 3.0]);
        assert_eq!(reply_error(&value, &value), 0.0);
        assert!(reply_error(&VecD(vec![1.0, 2.0, 3.00001]), &value) > REPLY_TOLERANCE);
        assert!(reply_error(&VecD(vec![1.0]), &value).is_infinite());
    }

    #[test]
    fn durable_repetition_recovers_bit_identically() {
        let _serial = crate::mesh::fsync_counter_lock();
        let mut plan = tiny_plan(Mix::EveryThirdBvc);
        plan.durable = true;
        let dir = std::env::temp_dir().join(format!("rbvc-bench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let rep = plan.run_rep(5, &NoProbe, Some(&dir));
        let verdict = check_mesh_rep(&plan, 5, &rep);
        let mut tampered = rep.clone();
        let restart = tampered.restart.as_mut().expect("restarted");
        restart.decisions[0][0].as_mut().expect("recovered").0[0] += 1e-9;
        let caught = check_mesh_rep(&plan, 5, &tampered);
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
        assert_eq!(verdict, Ok(()));
        assert!(rep.fingerprint.fsyncs > 0 && rep.restart.expect("restarted").records > 0);
        assert!(caught.expect_err("tampered")[0].contains("pre-crash"));
    }
}
