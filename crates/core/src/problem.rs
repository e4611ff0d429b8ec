//! Problem statements and machine-checkable validity conditions.
//!
//! The paper defines six consensus problems (Definitions 7, 8, 10, 11 plus
//! the original exact/approximate BVC of §4), all sharing Agreement /
//! Validity / Termination structure and differing in the validity set:
//!
//! | problem            | output must lie in                       |
//! |--------------------|------------------------------------------|
//! | Exact BVC          | `H(N)`                                   |
//! | k-Relaxed BVC      | `H_k(N)`                                 |
//! | (δ,p)-Relaxed BVC  | `H_(δ,p)(N)`                             |
//!
//! where `N` is the multiset of inputs at *non-faulty* processes. This
//! module turns each condition into one executable checker, the
//! [`Monitor`]: it ingests decisions as they happen and raises an
//! [`Alert`] at the decision that breaks agreement or validity. The
//! offline verdict over a finished execution ([`check_execution`]) is the
//! same monitor fed every output, so every experiment and every online
//! campaign reports against one definition of correct.

use std::collections::BTreeMap;

use rbvc_geometry::{pairwise_edges_norm, ConvexHull, DeltaPHull, KRelaxedHull};
use rbvc_linalg::{Norm, Tol, VecD};
use rbvc_obs::{Event, EventKind, Obs};
use serde::{Deserialize, Serialize};

/// Which validity set constrains the decision (relative to the non-faulty
/// inputs `N`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Validity {
    /// `H(N)` — the original BVC validity (§4).
    Exact,
    /// `H_k(N)` — Definition 7/8.
    KRelaxed(usize),
    /// `H_(δ,p)(N)` with a *constant* δ — Definition 10/11.
    DeltaP {
        /// Relaxation radius.
        delta: f64,
        /// Norm parameter p.
        norm: Norm,
    },
    /// `H_(δ,p)(N)` with input-dependent δ ≤ κ · max-edge(N) (paper §9):
    /// the checker computes the bound from the non-faulty inputs.
    InputDependentDeltaP {
        /// The constant κ(n, f, d, p) from Table 1 / the conjectures.
        kappa: f64,
        /// Norm parameter p.
        norm: Norm,
    },
}

/// Agreement flavour: exact (identical outputs) or ε-agreement
/// (coordinatewise within ε, Definitions 8/11).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Agreement {
    /// All non-faulty outputs identical (within numerical tolerance).
    Exact,
    /// Coordinatewise (L∞) difference at most ε between any two outputs.
    Epsilon(f64),
}

/// Verdict of checking one execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Agreement condition satisfied.
    pub agreement: bool,
    /// Validity condition satisfied for every non-faulty output.
    pub validity: bool,
    /// Every non-faulty process decided.
    pub termination: bool,
    /// Worst coordinatewise disagreement observed between two outputs.
    pub max_disagreement: f64,
    /// Worst validity excess observed (distance beyond the validity set; 0
    /// when validity holds exactly).
    pub max_validity_excess: f64,
}

impl Verdict {
    /// All three conditions hold.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.agreement && self.validity && self.termination
    }
}

/// Check a finished execution: feed every output to a [`Monitor`] and
/// read its verdict.
///
/// * `correct_inputs` — the multiset `N` of inputs at non-faulty processes;
/// * `outputs` — decisions of non-faulty processes (`None` = undecided);
/// * `agreement` / `validity` — the conditions of the problem being run.
#[must_use]
pub fn check_execution(
    correct_inputs: &[VecD],
    outputs: &[Option<VecD>],
    agreement: Agreement,
    validity: &Validity,
    tol: Tol,
) -> Verdict {
    let honest = BTreeMap::from([(0, (correct_inputs.to_vec(), validity.clone()))]);
    let mut monitor = Monitor::new(outputs.len(), agreement, honest, tol);
    for (process, output) in outputs.iter().enumerate() {
        if let Some(decision) = output {
            monitor.observe(0, process, decision);
        }
    }
    monitor.verdict(0)
}

/// Identifier of one consensus instance inside a multi-instance service.
pub type InstanceId = u64;

/// Which property an [`Alert`] reports broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Two decided processes violate agreement.
    Agreement {
        /// The earlier-decided process.
        a: usize,
        /// The later-decided process.
        b: usize,
    },
    /// A decision lies outside the validity set, is non-finite or has the
    /// wrong dimension, or comes from a process id `≥ n`.
    Validity {
        /// The deciding process.
        process: usize,
    },
    /// A process decided twice with *different* values.
    DuplicateDecision {
        /// The deciding process.
        process: usize,
    },
}

/// One violation, raised at the decision that made it observable.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The instance the decision belongs to.
    pub instance: InstanceId,
    /// Which property broke and between whom.
    pub kind: AlertKind,
    /// The monitor's `observe` call count at that decision, so alerts
    /// order totally.
    pub at_event: u64,
    /// What the check found.
    pub detail: String,
}

/// A validity set built once from one instance's honest inputs.
enum ValiditySet {
    Hull(ConvexHull),
    KRelaxed(KRelaxedHull),
    /// `H_(δ,p)(N)`, with an input-dependent δ already resolved.
    DeltaP(DeltaPHull),
}

impl ValiditySet {
    fn new(inputs: Vec<VecD>, validity: &Validity) -> Self {
        match *validity {
            Validity::Exact => ValiditySet::Hull(ConvexHull::new(inputs)),
            Validity::KRelaxed(k) => ValiditySet::KRelaxed(KRelaxedHull::new(inputs, k)),
            Validity::DeltaP { delta, norm } => {
                ValiditySet::DeltaP(DeltaPHull::new(inputs, delta, norm))
            }
            Validity::InputDependentDeltaP { kappa, norm } => {
                let max_edge = pairwise_edges_norm(&inputs, norm).into_iter().fold(0.0, f64::max);
                ValiditySet::DeltaP(DeltaPHull::new(inputs, kappa * max_edge, norm))
            }
        }
    }

    /// Whether `v` lies in the set, and how far beyond it (`H_k` reports no
    /// distance; `H_(δ,p)` reports its excess even within tolerance).
    fn check(&self, v: &VecD, tol: Tol) -> (bool, f64) {
        match self {
            ValiditySet::Hull(h) if h.contains(v, tol) => (true, 0.0),
            ValiditySet::Hull(h) => (false, h.distance(v, Norm::L2, tol)),
            ValiditySet::KRelaxed(h) => (h.contains(v, tol), 0.0),
            ValiditySet::DeltaP(h) => (h.contains(v, tol), h.excess(v, tol)),
        }
    }
}

/// One instance's decisions so far, and the worst it has seen.
struct Watch {
    decisions: Vec<Option<VecD>>,
    set: Option<ValiditySet>,
    /// The dimension every decision must have: the honest inputs', or the
    /// first decision's when the inputs are unknown.
    dim: Option<usize>,
    max_disagreement: f64,
    max_excess: f64,
}

impl Watch {
    fn new(n: usize, honest: Option<(Vec<VecD>, Validity)>) -> Self {
        let dim = honest.as_ref().and_then(|(inputs, _)| inputs.first()).map(VecD::dim);
        Watch {
            decisions: vec![None; n],
            set: honest.map(|(inputs, validity)| ValiditySet::new(inputs, &validity)),
            dim,
            max_disagreement: 0.0,
            max_excess: 0.0,
        }
    }

    /// Check `process`'s decision `v` against the set and every earlier
    /// decision; returns what broke.
    fn observe(
        &mut self,
        process: usize,
        v: &VecD,
        agreement: Agreement,
        tol: Tol,
    ) -> Vec<(AlertKind, String)> {
        let mut broke = Vec::new();
        match &self.decisions[process] {
            // An engine may surface one decision more than once.
            Some(prev) if prev == v => return broke,
            Some(_) => broke.push((
                AlertKind::DuplicateDecision { process },
                format!("process {process} re-decided with a different value"),
            )),
            None => {}
        }
        self.decisions[process] = Some(v.clone());
        let d = *self.dim.get_or_insert(v.dim());
        let well_formed = |u: &VecD| u.dim() == d && u.is_finite();
        // Before any distance: a NaN vanishes from a max, and a dimension
        // mismatch panics `dist`.
        if !well_formed(v) {
            self.max_excess = f64::INFINITY;
            let detail = format!("process {process}: malformed decision {:?} (d = {d})", v.as_slice());
            broke.push((AlertKind::Validity { process }, detail));
            return broke;
        }
        if let Some(set) = &self.set {
            let (inside, excess) = set.check(v, tol);
            self.max_excess = self.max_excess.max(excess);
            if !inside {
                let detail = format!("process {process}: {excess:.3e} beyond the validity set");
                broke.push((AlertKind::Validity { process }, detail));
            }
        }
        for (other, prev) in self.decisions.iter().enumerate() {
            let Some(prev) = prev.as_ref().filter(|u| other != process && well_formed(u)) else {
                continue;
            };
            let gap = prev.dist(v, Norm::LInf);
            self.max_disagreement = self.max_disagreement.max(gap);
            let bound = match agreement {
                Agreement::Exact => tol.scaled(prev.max_abs().max(v.max_abs())).value() * 10.0,
                Agreement::Epsilon(eps) => eps,
            };
            if gap > bound {
                let detail = format!("decisions {gap:.3e} apart in L∞ (bound {bound:.3e})");
                broke.push((AlertKind::Agreement { a: other, b: process }, detail));
            }
        }
        broke
    }
}

/// The checker of the paper's conditions, online: decisions arrive one at
/// a time, tagged with their instance, and each [`Monitor::observe`] raises
/// what that decision broke — agreement with an earlier decision of its
/// instance, the instance's validity set, or exactly-once. Every alert is
/// also emitted as an [`EventKind::Violation`] event tagged with the
/// instance (see [`Monitor::with_obs`]).
pub struct Monitor {
    n: usize,
    agreement: Agreement,
    tol: Tol,
    /// Honest inputs and validity of the instances not yet observed.
    honest: BTreeMap<InstanceId, (Vec<VecD>, Validity)>,
    watches: BTreeMap<InstanceId, Watch>,
    alerts: Vec<Alert>,
    events: u64,
    obs: Obs,
}

impl Monitor {
    /// A monitor over `n` processes. `honest` maps an instance to its honest
    /// inputs `N` and the validity set over them (built once, at the
    /// instance's first decision); an instance without an entry is checked
    /// for agreement, finiteness and a consistent dimension only.
    #[must_use]
    pub fn new(
        n: usize,
        agreement: Agreement,
        honest: BTreeMap<InstanceId, (Vec<VecD>, Validity)>,
        tol: Tol,
    ) -> Self {
        Monitor {
            n,
            agreement,
            tol,
            honest,
            watches: BTreeMap::new(),
            alerts: Vec::new(),
            events: 0,
            obs: Obs::default(),
        }
    }

    /// Emit every alert as an [`EventKind::Violation`] event through `obs`:
    /// the instance, the offending node (the later decider of a pair), the
    /// decided value and the check's detail.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Ingest `process`'s decision in `instance`; returns the alerts it
    /// raised (also kept in [`Monitor::alerts`]).
    pub fn observe(&mut self, instance: InstanceId, process: usize, decision: &VecD) -> &[Alert] {
        self.events += 1;
        let broke = if process < self.n {
            let (n, honest) = (self.n, &mut self.honest);
            let watch = self
                .watches
                .entry(instance)
                .or_insert_with(|| Watch::new(n, honest.remove(&instance)));
            watch.observe(process, decision, self.agreement, self.tol)
        } else {
            let detail = format!("decision from out-of-range process id {process} (n = {})", self.n);
            vec![(AlertKind::Validity { process }, detail)]
        };
        let first = self.alerts.len();
        for (kind, detail) in broke {
            self.obs.emit(|| {
                let (name, nodes, node) = match kind {
                    AlertKind::Agreement { a, b } => ("agreement", format!("{a},{b}"), b),
                    AlertKind::Validity { process } => ("validity", process.to_string(), process),
                    AlertKind::DuplicateDecision { process } => {
                        ("duplicate", process.to_string(), process)
                    }
                };
                Event::new(EventKind::Violation)
                    .instance(instance)
                    .node(u32::try_from(node).unwrap_or(u32::MAX))
                    .detail(format!(
                        "kind={name} nodes={nodes} value={:?} :: {detail}",
                        decision.as_slice()
                    ))
            });
            self.alerts.push(Alert { instance, kind, at_event: self.events, detail });
        }
        &self.alerts[first..]
    }

    /// Every alert so far, in observation order.
    #[must_use]
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The verdict on `instance` so far; termination means all `n`
    /// processes decided.
    #[must_use]
    pub fn verdict(&self, instance: InstanceId) -> Verdict {
        let broke = |kind: fn(&AlertKind) -> bool| {
            self.alerts.iter().any(|a| a.instance == instance && kind(&a.kind))
        };
        let watch = self.watches.get(&instance);
        Verdict {
            agreement: !broke(|k| matches!(k, AlertKind::Agreement { .. })),
            validity: !broke(|k| matches!(k, AlertKind::Validity { .. })),
            termination: watch.is_some_and(|w| w.decisions.iter().all(Option::is_some)),
            max_disagreement: watch.map_or(0.0, |w| w.max_disagreement),
            max_validity_excess: watch.map_or(0.0, |w| w.max_excess),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbvc_obs::{FlightRecorder, Registry};
    use std::sync::Arc;

    fn t() -> Tol {
        Tol::default()
    }

    fn inputs() -> Vec<VecD> {
        vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[2.0, 0.0]),
            VecD::from_slice(&[0.0, 2.0]),
        ]
    }

    #[test]
    fn exact_valid_agreeing_execution_passes() {
        let out = Some(VecD::from_slice(&[0.5, 0.5]));
        let v = check_execution(
            &inputs(),
            &[out.clone(), out.clone(), out],
            Agreement::Exact,
            &Validity::Exact,
            t(),
        );
        assert!(v.ok());
        assert_eq!(v.max_validity_excess, 0.0);
    }

    #[test]
    fn disagreement_fails_exact_agreement() {
        let v = check_execution(
            &inputs(),
            &[
                Some(VecD::from_slice(&[0.5, 0.5])),
                Some(VecD::from_slice(&[0.6, 0.5])),
            ],
            Agreement::Exact,
            &Validity::Exact,
            t(),
        );
        assert!(!v.agreement);
        assert!((v.max_disagreement - 0.1).abs() < 1e-12);
        assert!(v.validity);
    }

    #[test]
    fn epsilon_agreement_tolerates_small_gaps() {
        let v = check_execution(
            &inputs(),
            &[
                Some(VecD::from_slice(&[0.5, 0.5])),
                Some(VecD::from_slice(&[0.6, 0.5])),
            ],
            Agreement::Epsilon(0.15),
            &Validity::Exact,
            t(),
        );
        assert!(v.agreement);
    }

    #[test]
    fn outside_hull_fails_exact_validity() {
        let v = check_execution(
            &inputs(),
            &[Some(VecD::from_slice(&[3.0, 3.0]))],
            Agreement::Exact,
            &Validity::Exact,
            t(),
        );
        assert!(!v.validity);
        assert!(v.max_validity_excess > 1.0);
    }

    #[test]
    fn k_relaxed_validity_is_weaker() {
        // (2, 2) is outside H(N) but inside H_1(N) (the bounding box).
        let out = Some(VecD::from_slice(&[2.0, 2.0]));
        let exact = check_execution(
            &inputs(),
            std::slice::from_ref(&out),
            Agreement::Exact,
            &Validity::Exact,
            t(),
        );
        assert!(!exact.validity);
        let relaxed = check_execution(
            &inputs(),
            &[out],
            Agreement::Exact,
            &Validity::KRelaxed(1),
            t(),
        );
        assert!(relaxed.validity);
    }

    #[test]
    fn delta_p_validity_measures_excess() {
        let out = Some(VecD::from_slice(&[2.0, 2.0])); // dist₂ to hull = √2
        let near = check_execution(
            &inputs(),
            std::slice::from_ref(&out),
            Agreement::Exact,
            &Validity::DeltaP {
                delta: 1.5,
                norm: Norm::L2,
            },
            t(),
        );
        assert!(near.validity);
        let far = check_execution(
            &inputs(),
            &[out],
            Agreement::Exact,
            &Validity::DeltaP {
                delta: 1.0,
                norm: Norm::L2,
            },
            t(),
        );
        assert!(!far.validity);
        assert!((far.max_validity_excess - (2.0_f64.sqrt() - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn input_dependent_delta_uses_max_edge() {
        // max edge of `inputs` (L2) = 2√2; κ = 0.5 → δ = √2: point at
        // distance √2 passes, farther fails.
        let ok = check_execution(
            &inputs(),
            &[Some(VecD::from_slice(&[2.0, 2.0]))],
            Agreement::Exact,
            &Validity::InputDependentDeltaP {
                kappa: 0.5,
                norm: Norm::L2,
            },
            t(),
        );
        assert!(ok.validity);
        let bad = check_execution(
            &inputs(),
            &[Some(VecD::from_slice(&[3.0, 3.0]))],
            Agreement::Exact,
            &Validity::InputDependentDeltaP {
                kappa: 0.5,
                norm: Norm::L2,
            },
            t(),
        );
        assert!(!bad.validity);
    }

    #[test]
    fn undecided_process_fails_termination() {
        let v = check_execution(
            &inputs(),
            &[Some(VecD::from_slice(&[0.5, 0.5])), None],
            Agreement::Exact,
            &Validity::Exact,
            t(),
        );
        assert!(!v.termination);
        assert!(!v.ok());
    }

    /// A NaN or wrong-dimension decision fails validity with an infinite
    /// excess under every validity set, before any distance is taken (a NaN
    /// drops out of a max; a dimension mismatch panics `dist`).
    #[test]
    fn malformed_decision_fails_validity_without_a_distance() {
        let n = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[4.0, 0.0]),
            VecD::from_slice(&[0.0, 4.0]),
        ];
        let good = Some(VecD::from_slice(&[1.0, 1.0]));
        for bad in [VecD::from_slice(&[f64::NAN, 1.0]), VecD::from_slice(&[1.0])] {
            for validity in [Validity::Exact, Validity::KRelaxed(1)] {
                let outputs = [good.clone(), Some(bad.clone())];
                let v = check_execution(&n, &outputs, Agreement::Epsilon(1e-9), &validity, t());
                assert!(!v.validity && !v.ok(), "{bad:?} under {validity:?}: {v:?}");
                assert!(v.max_validity_excess.is_infinite());
            }
        }
    }

    fn point(x: f64, y: f64) -> VecD {
        VecD::from_slice(&[x, y])
    }

    fn agreement_only(n: usize) -> Monitor {
        Monitor::new(n, Agreement::Epsilon(1e-9), BTreeMap::new(), t())
    }

    #[test]
    fn monitor_clean_run_raises_nothing() {
        let honest = BTreeMap::from([(1, (inputs(), Validity::Exact))]);
        let mut m = Monitor::new(3, Agreement::Exact, honest, t());
        for p in [0, 2, 1] {
            assert!(m.observe(1, p, &point(0.5, 0.5)).is_empty());
        }
        assert!(m.alerts().is_empty());
        assert!(m.verdict(1).ok());
    }

    /// The monitor fires at the violating decision, once per conflicting
    /// pair, and emits each alert as a violation event tagged with the
    /// instance, the later decider and the decided value.
    #[test]
    fn monitor_fires_at_the_conflicting_decision_and_emits_tagged_events() {
        let dir = std::env::temp_dir().join(format!("rbvc-monitor-events-{}", std::process::id()));
        let ring = Arc::new(FlightRecorder::new(0, &dir, 16, Registry::new()));
        let mut m = agreement_only(4).with_obs(Obs::new(Arc::clone(&ring)));
        assert!(m.observe(42, 0, &point(1.0, 0.0)).is_empty(), "a first decision cannot conflict");
        assert!(ring.events().is_empty(), "clean decisions emit nothing");
        let alerts = m.observe(42, 3, &point(2.0, 0.0));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::Agreement { a: 0, b: 3 });
        assert_eq!((alerts[0].instance, alerts[0].at_event), (42, 2));
        assert_eq!(m.observe(42, 1, &point(9.0, 0.0)).len(), 2, "one alert per conflicting pair");

        let events = ring.events();
        assert_eq!(events.len(), 3, "one event per alert");
        assert!(events.iter().all(|e| e.kind == EventKind::Violation && e.instance == Some(42)));
        let first = events[0].detail.as_deref().unwrap();
        assert!(first.contains("kind=agreement nodes=0,3 value=[2.0, 0.0]"), "{first}");
        assert_eq!((events[0].node, events[2].node), (Some(3), Some(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn monitor_flags_duplicate_malformed_and_out_of_range_decisions() {
        let kinds = |alerts: &[Alert]| alerts.iter().map(|a| a.kind).collect::<Vec<_>>();
        let mut m = agreement_only(3);
        assert!(m.observe(1, 0, &point(1.0, 1.0)).is_empty());
        assert!(m.observe(1, 0, &point(1.0, 1.0)).is_empty(), "the same re-report is benign");
        let duplicate = AlertKind::DuplicateDecision { process: 0 };
        assert_eq!(kinds(m.observe(1, 0, &point(2.0, 1.0))), [duplicate]);
        // Without inputs the first decision pins the dimension.
        let malformed = [VecD::from_slice(&[1.0]), point(f64::INFINITY, 1.0)];
        for (process, bad) in (1..).zip(&malformed) {
            assert_eq!(kinds(m.observe(1, process, bad)), [AlertKind::Validity { process }]);
        }
        let out_of_range = AlertKind::Validity { process: 7 };
        assert_eq!(kinds(m.observe(1, 7, &point(1.0, 1.0))), [out_of_range], "not a panic");
    }

    /// Agreement and validity are per instance: two instances may decide
    /// different values, and each is checked against its own inputs.
    #[test]
    fn monitor_checks_each_instance_on_its_own() {
        let shifted: Vec<VecD> = inputs().iter().map(|v| v.axpy(1.0, &point(10.0, 0.0))).collect();
        let honest = BTreeMap::from([
            (1, (inputs(), Validity::Exact)),
            (2, (shifted, Validity::Exact)),
        ]);
        let mut m = Monitor::new(3, Agreement::Epsilon(1e-9), honest, t());
        assert!(m.observe(1, 0, &point(0.5, 0.5)).is_empty());
        assert!(m.observe(2, 0, &point(10.5, 0.5)).is_empty());
        assert!(m.observe(1, 1, &point(0.5, 0.5)).is_empty());
        let alerts = m.observe(2, 1, &point(0.5, 0.5));
        let kinds: Vec<AlertKind> = alerts.iter().map(|a| a.kind).collect();
        assert_eq!(kinds, [AlertKind::Validity { process: 1 }, AlertKind::Agreement { a: 0, b: 1 }]);
        assert!(alerts.iter().all(|a| a.instance == 2));
        assert!(m.verdict(1).agreement && m.verdict(1).validity);
        assert!(!m.verdict(2).agreement && !m.verdict(2).validity);
    }
}
