//! What a run reports, and how: the metric names, units, directions and
//! bounds come from `BENCHMARK.json` (compiled in, so the harness and the
//! file cannot drift apart), the values from the workloads.

use serde_json::{json, Value};

use crate::stats::{self, quartiles, Better};

/// `BENCHMARK.json`, as compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's value by which the metric may get worse before
    /// a change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (what `--trace 0` prints).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (what `--trace 1` prints).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parse the text of a `BENCHMARK.json`.
    ///
    /// # Errors
    /// What is missing or malformed.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("no `{key}` list"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let text = |field: &str| {
                        m.get(field)
                            .and_then(Value::as_str)
                            .ok_or_else(|| format!("a `{key}` metric lacks `{field}`"))
                    };
                    Ok(MetricSpec {
                        name: text("name")?.to_string(),
                        unit: text("unit")?.to_string(),
                        better: Better::parse(text("better")?)
                            .ok_or_else(|| format!("bad `better` in `{key}`"))?,
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect::<Option<_>>()
                .ok_or("a workload lacks `name`")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The compiled-in spec.
    ///
    /// # Panics
    /// If the compiled-in `BENCHMARK.json` is malformed (a build-time bug).
    #[must_use]
    pub fn builtin() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    /// The unit of one metric of one mode; empty for an unlisted name.
    #[must_use]
    pub fn unit_of(&self, name: &str, traced: bool) -> &str {
        self.metrics(traced)
            .iter()
            .find(|s| s.name == name)
            .map_or("", |s| s.unit.as_str())
    }

    /// The metric list of one mode.
    #[must_use]
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// One reported value with the per-repetition values behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// The per-repetition values the reported one was chosen from (empty
    /// for counts and pooled statistics).
    pub reps: Vec<f64>,
}

impl Measured {
    /// A value with no repetitions behind it.
    #[must_use]
    pub fn single(name: &'static str, value: f64) -> Measured {
        Measured {
            name,
            value,
            reps: Vec::new(),
        }
    }

    /// The best of per-repetition values.
    #[must_use]
    pub fn best(name: &'static str, better: Better, reps: Vec<f64>) -> Measured {
        Measured {
            name,
            value: stats::best(&reps, better),
            reps,
        }
    }
}

/// One line of [`WorkloadResult::notes`].
#[must_use]
pub fn note(key: impl Into<String>, value: impl Into<String>) -> (String, String) {
    (key.into(), value.into())
}

/// Everything one workload of one run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// Repetitions run.
    pub repetitions: usize,
    /// Operations attempted (instances or client requests).
    pub attempted: usize,
    /// Operations failed; all of a repetition's when one of its checks did.
    pub failed: usize,
    /// Violated conditions, one line each (empty on a correct run).
    pub faults: Vec<String>,
    /// The metrics of `BENCHMARK.json` for this mode.
    pub metrics: Vec<Measured>,
    /// Further values worth a line in the human-readable report: which tail
    /// percentile the sample supported, per-phase client figures, counts.
    pub notes: Vec<(String, String)>,
}

impl WorkloadResult {
    /// Whether every check of every repetition passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.faults.is_empty()
    }

    /// The last line of standard output the driver contract asks for.
    ///
    /// # Errors
    /// If the metrics produced are not exactly the ones `spec` lists for
    /// this mode — a bug in the harness, reported rather than printed.
    pub fn contract_line(&self, spec: &Spec, traced: bool) -> Result<String, String> {
        let listed = spec.metrics(traced);
        if let Some(extra) = self
            .metrics
            .iter()
            .find(|m| !listed.iter().any(|s| s.name == m.name))
        {
            return Err(format!("metric `{}` is not in BENCHMARK.json", extra.name));
        }
        let mut metrics = Vec::with_capacity(listed.len());
        for s in listed {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == s.name)
                .ok_or_else(|| format!("metric `{}` was not measured", s.name))?;
            if !m.value.is_finite() {
                return Err(format!("metric `{}` is not a finite number", s.name));
            }
            metrics.push((
                s.name.clone(),
                json!({ "value": m.value, "unit": s.unit.as_str() }),
            ));
        }
        let doc = json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&doc).map_err(|e| e.to_string())
    }

    /// The full record, for `--out` files and `compare`.
    #[must_use]
    pub fn to_json(&self, spec: &Spec, traced: bool) -> Value {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|m| {
                let unit = spec.unit_of(m.name, traced);
                let [q1, q2, q3] = quartiles(&m.reps);
                (
                    m.name.to_string(),
                    json!({
                        "value": m.value,
                        "unit": unit,
                        "q1": q1,
                        "median": q2,
                        "q3": q3,
                        "reps": m.reps.clone(),
                    }),
                )
            })
            .collect();
        let notes: Vec<(String, Value)> = self
            .notes
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        json!({
            "repetitions": self.repetitions,
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.correct(),
            "faults": self.faults.clone(),
            "metrics": Value::Object(metrics),
            "notes": Value::Object(notes),
        })
    }

    /// Human-readable table, one metric a line, quartiles across
    /// repetitions beside every value.
    #[must_use]
    pub fn render(&self, spec: &Spec, traced: bool) -> String {
        let mut out = format!(
            "== {} == {} repetitions, {} operations attempted, {} failed, {}\n",
            self.workload,
            self.repetitions,
            self.attempted,
            self.failed,
            if self.correct() {
                "all checks passed"
            } else {
                "CHECKS FAILED"
            },
        );
        for m in &self.metrics {
            let unit = spec.unit_of(m.name, traced);
            out.push_str(&format!("  {:<40} {:>16.6} {:<8}", m.name, m.value, unit));
            if m.reps.len() > 1 {
                let [q1, q2, q3] = quartiles(&m.reps);
                out.push_str(&format!("  reps q1 {q1:.6}  median {q2:.6}  q3 {q3:.6}"));
            }
            out.push('\n');
        }
        for (k, v) in &self.notes {
            out.push_str(&format!("  - {k}: {v}\n"));
        }
        for fault in &self.faults {
            out.push_str(&format!("  ! {fault}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_spec_lists_the_four_workloads_and_setup() {
        let spec = Spec::builtin();
        assert_eq!(
            spec.workloads,
            ["va-mesh", "bvc-relaxed", "durable-mesh", "client-open"]
        );
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn contract_line_carries_every_listed_name_and_no_other() {
        let spec = Spec::builtin();
        let full = |names: &[MetricSpec]| WorkloadResult {
            workload: "va-mesh",
            repetitions: 2,
            attempted: 10,
            failed: 0,
            faults: Vec::new(),
            metrics: names
                .iter()
                .map(|s| Measured::single(Box::leak(s.name.clone().into_boxed_str()), 1.5))
                .collect(),
            notes: Vec::new(),
        };
        for traced in [false, true] {
            let result = full(spec.metrics(traced));
            let line = result.contract_line(&spec, traced).expect("complete");
            let doc = serde_json::from_str(&line).expect("json");
            let keys: Vec<&str> = doc
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let got: Vec<&str> = doc
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let want: Vec<&str> = spec
                .metrics(traced)
                .iter()
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(got, want);
            // One missing, one unlisted: both refused.
            let mut short = result.clone();
            short.metrics.pop();
            assert!(short.contract_line(&spec, traced).is_err());
            let mut long = result.clone();
            long.metrics.push(Measured::single("not.a.metric", 1.0));
            assert!(long.contract_line(&spec, traced).is_err());
        }
    }
}
