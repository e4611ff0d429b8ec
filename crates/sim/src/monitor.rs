//! Online safety monitor: incremental detection of agreement/validity
//! violations the moment a decision event occurs.
//!
//! The repo's existing checkers (`rbvc_core::problem`) validate a *finished*
//! run. Under chaos injection that is too late — a violated decision may be
//! followed by millions of steps of noise before the run ends, and a
//! crashed/timed-out run never reaches the offline checker at all. The
//! [`SafetyMonitor`] instead ingests `(process, decision)` events as they
//! happen and raises a [`SafetyAlert`] immediately when
//!
//! * two decided processes disagree (pairwise *agreement* predicate), or
//! * a single decision violates the *validity* predicate, or
//! * a process decides twice with different values (protocol bug).
//!
//! The monitor lives in the `sim` crate and therefore cannot depend on the
//! geometry of any particular protocol; both predicates are injected as
//! closures. For ε-agreement on vectors the caller supplies a coordinatewise
//! |·|∞ comparison; for exact agreement, equality; for validity, e.g. a
//! convex-hull or range containment check against the honest inputs.

use std::collections::BTreeMap;
use std::sync::Arc;

use rbvc_obs::{Event, EventKind, Obs};

use crate::config::ProcessId;

/// Identifier of one consensus instance inside a multi-instance service.
pub type InstanceId = u64;

/// What kind of safety property a [`SafetyAlert`] reports broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlertKind {
    /// Two decided processes violate the pairwise agreement predicate.
    Agreement {
        /// The earlier-decided process.
        a: ProcessId,
        /// The later-decided process.
        b: ProcessId,
    },
    /// A decision violates the validity predicate on its own.
    Validity {
        /// The deciding process.
        process: ProcessId,
    },
    /// A process emitted two *different* decisions (exactly-once violated).
    DuplicateDecision {
        /// The deciding process.
        process: ProcessId,
    },
}

/// One violation event, raised at the step it became observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyAlert {
    /// Which property broke and between whom.
    pub kind: AlertKind,
    /// Monitor-local event index at which the violation surfaced
    /// (the `observe` call count, so alerts order totally).
    pub at_event: u64,
    /// Human-readable detail from the violated predicate.
    pub detail: String,
}

/// Incremental safety monitor over decision events.
///
/// `agreement(a, b)` returns `Some(detail)` iff decisions `a` and `b` are in
/// conflict; `validity(p, v)` returns `Some(detail)` iff `v` is an invalid
/// decision for process `p`. Both must be pure: the monitor may invoke them
/// in any order and assumes symmetric agreement.
pub struct SafetyMonitor<O> {
    decisions: Vec<Option<O>>,
    #[allow(clippy::type_complexity)]
    agreement: Box<dyn FnMut(&O, &O) -> Option<String>>,
    #[allow(clippy::type_complexity)]
    validity: Box<dyn FnMut(ProcessId, &O) -> Option<String>>,
    alerts: Vec<SafetyAlert>,
    events: u64,
    obs: Obs,
    /// Renders the offending decision into violation events; set by
    /// [`SafetyMonitor::with_obs`] (which is where the `Debug` bound
    /// lives, so monitors over non-`Debug` decisions still compile).
    format_value: Option<ValueFormatter<O>>,
}

type ValueFormatter<O> = Arc<dyn Fn(&O) -> String + Send + Sync>;

impl<O: Clone + PartialEq> SafetyMonitor<O> {
    /// Build a monitor for `n` processes with the given predicates.
    #[must_use]
    pub fn new(
        n: usize,
        agreement: impl FnMut(&O, &O) -> Option<String> + 'static,
        validity: impl FnMut(ProcessId, &O) -> Option<String> + 'static,
    ) -> Self {
        SafetyMonitor {
            decisions: vec![None; n],
            agreement: Box::new(agreement),
            validity: Box::new(validity),
            alerts: Vec::new(),
            events: 0,
            obs: Obs::noop(),
            format_value: None,
        }
    }

    /// Emit every alert as a structured [`EventKind::Violation`] event:
    /// the offending node(s), the instance (when attached via a service),
    /// the decided value, and the predicate's detail.
    fn emit_alerts(&self, decision: &O, alerts: &[SafetyAlert]) {
        for alert in alerts {
            self.obs.emit(|| {
                let (kind, nodes) = match alert.kind {
                    AlertKind::Agreement { a, b } => ("agreement", format!("{a},{b}")),
                    AlertKind::Validity { process } => ("validity", process.to_string()),
                    AlertKind::DuplicateDecision { process } => ("duplicate", process.to_string()),
                };
                let node = match alert.kind {
                    AlertKind::Agreement { b, .. } => b,
                    AlertKind::Validity { process } | AlertKind::DuplicateDecision { process } => {
                        process
                    }
                };
                let value = self
                    .format_value
                    .as_ref()
                    .map_or_else(|| "?".to_string(), |f| f(decision));
                Event::new(EventKind::Violation)
                    .node(u32::try_from(node).unwrap_or(u32::MAX))
                    .detail(format!(
                        "kind={kind} nodes={nodes} value={value} :: {}",
                        alert.detail
                    ))
            });
        }
    }

    /// Attach pre-built observability plumbing (see
    /// [`SafetyMonitor::with_obs`] for the public entry point).
    fn attach_obs(&mut self, obs: Obs, format_value: ValueFormatter<O>) {
        self.obs = obs;
        self.format_value = Some(format_value);
    }

    /// Monitor that only checks agreement (validity vacuously true).
    #[must_use]
    pub fn agreement_only(
        n: usize,
        agreement: impl FnMut(&O, &O) -> Option<String> + 'static,
    ) -> Self {
        SafetyMonitor::new(n, agreement, |_, _| None)
    }

    /// Ingest one decision event; returns the alerts *this event* raised
    /// (also retained in [`SafetyMonitor::alerts`]).
    pub fn observe(&mut self, process: ProcessId, decision: &O) -> Vec<SafetyAlert> {
        self.events += 1;
        let at_event = self.events;
        let mut new_alerts = Vec::new();

        if process >= self.decisions.len() {
            new_alerts.push(SafetyAlert {
                kind: AlertKind::Validity { process },
                at_event,
                detail: format!(
                    "decision from out-of-range process id {process} (n = {})",
                    self.decisions.len()
                ),
            });
            self.emit_alerts(decision, &new_alerts);
            self.alerts.extend(new_alerts.iter().cloned());
            return new_alerts;
        }

        match &self.decisions[process] {
            Some(prev) if prev != decision => {
                new_alerts.push(SafetyAlert {
                    kind: AlertKind::DuplicateDecision { process },
                    at_event,
                    detail: format!("process {process} re-decided with a different value"),
                });
            }
            Some(_) => {
                // Benign duplicate report of the same decision: engines may
                // surface a decision more than once; nothing new to check.
                return Vec::new();
            }
            None => {}
        }

        if let Some(detail) = (self.validity)(process, decision) {
            new_alerts.push(SafetyAlert {
                kind: AlertKind::Validity { process },
                at_event,
                detail,
            });
        }

        for (other, slot) in self.decisions.iter().enumerate() {
            if other == process {
                continue;
            }
            if let Some(prev) = slot {
                if let Some(detail) = (self.agreement)(prev, decision) {
                    new_alerts.push(SafetyAlert {
                        kind: AlertKind::Agreement {
                            a: other,
                            b: process,
                        },
                        at_event,
                        detail,
                    });
                }
            }
        }

        self.decisions[process] = Some(decision.clone());
        self.emit_alerts(decision, &new_alerts);
        self.alerts.extend(new_alerts.iter().cloned());
        new_alerts
    }

    /// All alerts raised so far, in observation order.
    #[must_use]
    pub fn alerts(&self) -> &[SafetyAlert] {
        &self.alerts
    }

    /// True iff no violation has been observed.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.alerts.is_empty()
    }

    /// Number of processes that have decided.
    #[must_use]
    pub fn decided_count(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_some()).count()
    }
}

impl<O: Clone + PartialEq + std::fmt::Debug> SafetyMonitor<O> {
    /// Emit every future alert as a structured [`EventKind::Violation`]
    /// event through `obs`, carrying the offending node(s), the decided
    /// value (`Debug`-rendered), and the predicate detail. A monitor that
    /// watches one instance of a multi-instance service takes a handle
    /// with that instance baked in ([`Obs::with_instance`]).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.attach_obs(obs, Arc::new(|v: &O| format!("{v:?}")));
        self
    }
}

/// Safety monitoring for a *multi-instance* consensus service: decision
/// events are tagged with an [`InstanceId`] and demultiplexed into one
/// [`SafetyMonitor`] per instance, created on first observation by the
/// injected factory (different instances may have different inputs and
/// hence different validity predicates).
///
/// This is what the service layer subscribes to: agreement and validity are
/// per-instance properties, so a single flat monitor would raise bogus
/// cross-instance agreement alerts the moment two instances legitimately
/// decide different values.
pub struct ServiceMonitor<O> {
    #[allow(clippy::type_complexity)]
    factory: Box<dyn FnMut(InstanceId) -> SafetyMonitor<O> + Send>,
    monitors: BTreeMap<InstanceId, SafetyMonitor<O>>,
    /// When set, every per-instance monitor created from here on emits
    /// violation events tagged with its instance id.
    obs: Option<(Obs, ValueFormatter<O>)>,
}

impl<O: Clone + PartialEq> ServiceMonitor<O> {
    /// Build a service monitor; `factory(instance)` constructs the
    /// per-instance safety monitor on that instance's first decision event.
    #[must_use]
    pub fn new(factory: impl FnMut(InstanceId) -> SafetyMonitor<O> + Send + 'static) -> Self {
        ServiceMonitor {
            factory: Box::new(factory),
            monitors: BTreeMap::new(),
            obs: None,
        }
    }

    /// Ingest one service-level decision event; returns the alerts this
    /// event raised within its instance.
    pub fn observe(
        &mut self,
        instance: InstanceId,
        process: ProcessId,
        decision: &O,
    ) -> Vec<SafetyAlert> {
        let monitor = self.monitors.entry(instance).or_insert_with(|| {
            let mut m = (self.factory)(instance);
            if let Some((obs, fmt)) = &self.obs {
                m.attach_obs(obs.with_instance(instance), Arc::clone(fmt));
            }
            m
        });
        monitor.observe(process, decision)
    }

    /// True iff no instance has raised a violation.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.monitors.values().all(SafetyMonitor::clean)
    }

    /// Total alerts across all instances.
    #[must_use]
    pub fn violation_count(&self) -> usize {
        self.monitors.values().map(|m| m.alerts().len()).sum()
    }

    /// All `(instance, alert)` pairs, ordered by instance id then event.
    #[must_use]
    pub fn alerts(&self) -> Vec<(InstanceId, SafetyAlert)> {
        self.monitors
            .iter()
            .flat_map(|(id, m)| m.alerts().iter().map(move |a| (*id, a.clone())))
            .collect()
    }

    /// Per-instance view, for post-run inspection.
    #[must_use]
    pub fn instance(&self, id: InstanceId) -> Option<&SafetyMonitor<O>> {
        self.monitors.get(&id)
    }
}

impl<O: Clone + PartialEq + std::fmt::Debug> ServiceMonitor<O> {
    /// Emit violations of every (subsequently created) per-instance
    /// monitor as structured events through `obs`, tagged with the
    /// offending instance id.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some((obs, Arc::new(|v: &O| format!("{v:?}"))));
        self
    }
}

/// ε-agreement predicate for `Vec<f64>` decisions: flags pairs whose
/// coordinatewise distance exceeds `eps` (or whose dimensions differ).
pub fn epsilon_agreement(eps: f64) -> impl FnMut(&Vec<f64>, &Vec<f64>) -> Option<String> {
    move |a: &Vec<f64>, b: &Vec<f64>| {
        if a.len() != b.len() {
            return Some(format!(
                "decision dimensions differ: {} vs {}",
                a.len(),
                b.len()
            ));
        }
        let gap = a
            .iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        if gap > eps {
            Some(format!("coordinatewise disagreement {gap:.3e} > ε = {eps:.3e}"))
        } else {
            None
        }
    }
}

/// Box-validity predicate for `Vec<f64>` decisions: every coordinate must
/// lie inside the (slightly inflated) bounding box of the honest inputs —
/// a cheap necessary condition for convex-hull validity.
pub fn box_validity(
    honest_inputs: &[Vec<f64>],
    slack: f64,
) -> impl FnMut(ProcessId, &Vec<f64>) -> Option<String> {
    let d = honest_inputs.first().map_or(0, Vec::len);
    let mut lo = vec![f64::INFINITY; d];
    let mut hi = vec![f64::NEG_INFINITY; d];
    for x in honest_inputs {
        for (k, &v) in x.iter().enumerate() {
            lo[k] = lo[k].min(v);
            hi[k] = hi[k].max(v);
        }
    }
    move |p: ProcessId, v: &Vec<f64>| {
        if v.len() != d {
            return Some(format!(
                "process {p}: decision dimension {} != input dimension {d}",
                v.len()
            ));
        }
        for (k, &x) in v.iter().enumerate() {
            if !x.is_finite() {
                return Some(format!("process {p}: non-finite coordinate {k}"));
            }
            if x < lo[k] - slack || x > hi[k] + slack {
                return Some(format!(
                    "process {p}: coordinate {k} = {x:.6} outside honest box \
                     [{:.6}, {:.6}] (+{slack:.1e} slack)",
                    lo[k], hi[k]
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_raises_nothing() {
        let mut m = SafetyMonitor::new(
            3,
            |a: &i64, b: &i64| (a != b).then(|| format!("{a} != {b}")),
            |_, v: &i64| (*v < 0).then(|| "negative".to_string()),
        );
        assert!(m.observe(0, &7).is_empty());
        assert!(m.observe(2, &7).is_empty());
        assert!(m.observe(1, &7).is_empty());
        assert!(m.clean());
        assert_eq!(m.decided_count(), 3);
    }

    /// The negative test required by the chaos-layer acceptance criteria:
    /// the monitor must *fire*, at the exact event, when conflicting
    /// decisions are injected — and emit each alert as a structured
    /// violation event carrying the offending nodes and values.
    #[test]
    fn fires_immediately_on_conflicting_decisions() {
        let ring = Arc::new(rbvc_obs::RingRecorder::new(16));
        let obs = Obs::new(Arc::clone(&ring) as Arc<dyn rbvc_obs::Recorder>);
        let mut m = SafetyMonitor::agreement_only(4, |a: &i64, b: &i64| {
            (a != b).then(|| format!("{a} != {b}"))
        })
        .with_obs(obs.with_instance(42));
        assert!(m.observe(0, &1).is_empty(), "first decision cannot conflict");
        assert!(ring.is_empty(), "clean decisions emit nothing");
        let alerts = m.observe(3, &2);
        assert_eq!(alerts.len(), 1, "conflict must be flagged at once");
        assert_eq!(alerts[0].kind, AlertKind::Agreement { a: 0, b: 3 });
        assert_eq!(alerts[0].at_event, 2, "flagged at the violating event");
        assert!(!m.clean());
        // A third decision conflicting with both raises two pairwise alerts.
        let alerts = m.observe(1, &9);
        assert_eq!(alerts.len(), 2);

        // Every alert doubled as a structured Violation event with the
        // offending instance, nodes, and value.
        let events = ring.snapshot();
        assert_eq!(events.len(), 3, "one event per alert");
        assert!(events.iter().all(|e| e.kind == EventKind::Violation));
        assert!(events.iter().all(|e| e.instance == Some(42)));
        let first = events[0].detail.as_deref().unwrap();
        assert!(first.contains("kind=agreement"), "{first}");
        assert!(first.contains("nodes=0,3"), "{first}");
        assert!(first.contains("value=2"), "{first}");
        assert_eq!(events[0].node, Some(3), "tagged with the later decider");
        assert_eq!(events[2].node, Some(1));
    }

    /// Violations observed through a [`ServiceMonitor`] carry the
    /// instance id of the per-instance monitor that raised them.
    #[test]
    fn service_monitor_violations_emit_tagged_events() {
        let ring = Arc::new(rbvc_obs::RingRecorder::new(16));
        let obs = Obs::new(Arc::clone(&ring) as Arc<dyn rbvc_obs::Recorder>);
        let mut sm = ServiceMonitor::new(|_inst| {
            SafetyMonitor::agreement_only(3, |a: &i64, b: &i64| {
                (a != b).then(|| format!("{a} != {b}"))
            })
        })
        .with_obs(obs);
        assert!(sm.observe(7, 0, &10).is_empty());
        assert!(sm.observe(7, 1, &11).len() == 1, "conflict inside instance 7");
        let events = ring.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Violation);
        assert_eq!(events[0].instance, Some(7));
        assert_eq!(sm.violation_count(), 1);
    }

    #[test]
    fn fires_on_invalid_decision_and_duplicate() {
        let mut m = SafetyMonitor::new(
            2,
            |_: &i64, _: &i64| None,
            |p, v: &i64| (*v < 0).then(|| format!("process {p}: negative decision {v}")),
        );
        let alerts = m.observe(0, &-5);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::Validity { process: 0 });

        let mut m = SafetyMonitor::agreement_only(2, |_: &i64, _: &i64| None);
        assert!(m.observe(0, &1).is_empty());
        assert!(m.observe(0, &1).is_empty(), "same re-report is benign");
        let alerts = m.observe(0, &2);
        assert_eq!(alerts[0].kind, AlertKind::DuplicateDecision { process: 0 });
    }

    #[test]
    fn out_of_range_process_is_flagged_not_panicked() {
        let mut m = SafetyMonitor::agreement_only(2, |_: &i64, _: &i64| None);
        let alerts = m.observe(7, &1);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::Validity { process: 7 });
    }

    #[test]
    fn service_monitor_demuxes_per_instance() {
        let mut sm = ServiceMonitor::new(|_inst| {
            SafetyMonitor::agreement_only(3, |a: &i64, b: &i64| {
                (a != b).then(|| format!("{a} != {b}"))
            })
        });
        // Different instances legitimately decide different values: no alert.
        assert!(sm.observe(1, 0, &10).is_empty());
        assert!(sm.observe(2, 0, &20).is_empty());
        assert!(sm.observe(1, 1, &10).is_empty());
        assert!(sm.clean());
        assert_eq!(sm.instance(1).unwrap().decided_count(), 2);

        // A conflict *within* instance 2 fires exactly there.
        let alerts = sm.observe(2, 1, &21);
        assert_eq!(alerts.len(), 1);
        assert!(!sm.clean());
        assert_eq!(sm.violation_count(), 1);
        let tagged = sm.alerts();
        assert_eq!(tagged.len(), 1);
        assert_eq!(tagged[0].0, 2, "alert is tagged with the instance id");
        assert!(sm.instance(1).unwrap().clean());
    }

    #[test]
    fn service_monitor_factory_receives_instance_id() {
        // Per-instance validity: instance k only accepts decision == k.
        let mut sm = ServiceMonitor::new(|inst| {
            SafetyMonitor::new(
                2,
                |_: &i64, _: &i64| None,
                move |p, v: &i64| {
                    (*v != inst as i64).then(|| format!("process {p}: {v} != instance {inst}"))
                },
            )
        });
        assert!(sm.observe(5, 0, &5).is_empty());
        let alerts = sm.observe(6, 0, &5);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::Validity { process: 0 });
    }

    #[test]
    fn epsilon_agreement_and_box_validity_helpers() {
        let mut agree = epsilon_agreement(0.1);
        assert!(agree(&vec![1.0, 2.0], &vec![1.05, 2.0]).is_none());
        assert!(agree(&vec![1.0, 2.0], &vec![1.3, 2.0]).is_some());
        assert!(agree(&vec![1.0], &vec![1.0, 0.0]).is_some());

        let inputs = vec![vec![0.0, 0.0], vec![1.0, 2.0]];
        let mut valid = box_validity(&inputs, 1e-9);
        assert!(valid(0, &vec![0.5, 1.0]).is_none());
        assert!(valid(0, &vec![0.5, 2.5]).is_some(), "outside the box");
        assert!(valid(0, &vec![f64::NAN, 0.0]).is_some(), "non-finite");
        assert!(valid(0, &vec![0.5]).is_some(), "dimension mismatch");
    }
}
