//! `compare A.json B.json`: two `--out` reports of the same mode, one row
//! per (workload, metric) with both values, the ratio and its base, judged
//! against the metric's bound in `BENCHMARK.json`.

use serde_json::Value;

use crate::report::{MetricSpec, Spec};
use crate::stats::{best, Better};

/// What one row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is worse than A by more than the bound.
    Regression,
    /// B is better than A by more than the bound, or every repetition of B
    /// beats every repetition of A.
    Improved,
    /// Within the bound, and the repetitions resolve the bound.
    Unchanged,
    /// Within the bound, but the value moves by more than the bound between
    /// halves of one side's own repetitions: the pair cannot tell.
    Unresolved,
    /// A per-layer metric: no bound, shown for explanation only.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "",
        }
    }
}

/// One metric of one workload on one side.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// The reported value.
    pub value: f64,
    /// Per-repetition values behind it (may be empty).
    pub reps: Vec<f64>,
}

impl Side {
    fn read(metric: &Value) -> Option<Side> {
        Some(Side {
            value: metric.get("value")?.as_f64()?,
            reps: metric
                .get("reps")
                .and_then(Value::as_array)
                .map(|r| r.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default(),
        })
    }

    /// How far the reported statistic moves between the even- and the
    /// odd-numbered repetitions, as a share of the value: an estimate, from
    /// one run, of how far it would move between two runs. Zero when there
    /// are too few repetitions to split.
    fn resolution(&self, better: Better) -> f64 {
        if self.reps.len() < 4 || self.value == 0.0 {
            return 0.0;
        }
        let half = |parity: usize| -> Vec<f64> {
            self.reps
                .iter()
                .copied()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(_, v)| v)
                .collect()
        };
        ((best(&half(0), better) - best(&half(1), better)) / self.value).abs()
    }
}

/// Share by which `b` is worse than `a` (negative when better).
#[must_use]
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judge one pair.
#[must_use]
pub fn judge(a: &Side, b: &Side, spec: &MetricSpec) -> Verdict {
    let Some(bound) = spec.bound else {
        return Verdict::Info;
    };
    let worse = worse_by(a.value, b.value, spec.better);
    if worse > bound {
        return Verdict::Regression;
    }
    let beats = |x: f64, y: f64| match spec.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let clear_win = !a.reps.is_empty()
        && !b.reps.is_empty()
        && b.reps.iter().all(|&y| a.reps.iter().all(|&x| beats(y, x)));
    if clear_win || worse < -bound {
        return Verdict::Improved;
    }
    if a.resolution(spec.better).max(b.resolution(spec.better)) > bound {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// Compare two parsed reports; returns the table and whether any row is a
/// regression.
///
/// # Errors
/// If the reports are of different modes or hold no workload in common.
pub fn compare(a: &Value, b: &Value, spec: &Spec) -> Result<(String, bool), String> {
    let traced = |doc: &Value| doc.get("traced").and_then(Value::as_bool);
    let mode = match (traced(a), traced(b)) {
        (Some(x), Some(y)) if x == y => x,
        _ => return Err("the two reports are not of the same mode (timed vs traced)".into()),
    };
    let workloads = |doc: &Value| {
        doc.get("workloads")
            .and_then(Value::as_object)
            .map(<[_]>::to_vec)
    };
    let (wa, wb) = (
        workloads(a).ok_or("A has no workloads")?,
        workloads(b).ok_or("B has no workloads")?,
    );
    let mut out = format!(
        "{:<13} {:<40} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "A", "B", "B/A", "bound", "verdict"
    );
    let mut regressed = false;
    let mut rows = 0;
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for m in spec.metrics(mode) {
            let side = |r: &Value| {
                r.get("metrics")
                    .and_then(|ms| ms.get(&m.name))
                    .and_then(Side::read)
            };
            let (Some(sa), Some(sb)) = (side(ra), side(rb)) else {
                continue;
            };
            let verdict = judge(&sa, &sb, m);
            regressed |= verdict == Verdict::Regression;
            rows += 1;
            out.push_str(&format!(
                "{:<13} {:<40} {:>14.6} {:>14.6} {:>8.4}x {:>7}  {}\n",
                name,
                m.name,
                sa.value,
                sb.value,
                sb.value / sa.value,
                m.bound
                    .map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
                verdict.as_str(),
            ));
        }
        for (label, r) in [("A", ra), ("B", rb)] {
            if r.get("correct").and_then(Value::as_bool) != Some(true) {
                out.push_str(&format!("{name:<13} {label} FAILED ITS CHECKS\n"));
                regressed = true;
            }
        }
    }
    if rows == 0 {
        return Err("the two reports share no workload and metric".into());
    }
    out.push_str("B/A is B's value over A's (base: A). A row is a REGRESSION when B is worse than A by more than the bound.\n");
    Ok((out, regressed))
}

/// The `compare` subcommand; returns the exit code.
#[must_use]
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: rbvc-bench compare A.json B.json");
        return 2;
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    match load(a).and_then(|a| load(b).and_then(|b| compare(&a, &b, &Spec::builtin()))) {
        Ok((table, regressed)) => {
            print!("{table}");
            i32::from(regressed)
        }
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Measured, WorkloadResult};
    use serde_json::json;

    /// A timed report of one workload whose `decided_per_s` repetitions are
    /// `rate` scaled by a small fixed jitter.
    fn report(rate: f64, jitter: f64) -> Value {
        let spec = Spec::builtin();
        let reps: Vec<f64> = (0..8)
            .map(|i| rate * (1.0 - jitter * f64::from(i)))
            .collect();
        let result = WorkloadResult {
            workload: "va-mesh",
            repetitions: 8,
            attempted: 3200,
            failed: 0,
            faults: Vec::new(),
            metrics: vec![
                Measured::single("setup_s", 0.001),
                Measured::best("decided_per_s", Better::Higher, reps),
                Measured::single("latency_p50_ms", 16.0),
                Measured::single("latency_tail_ms", 20.0),
                Measured::single("wire_bytes_per_decision", 91_368.0),
            ],
            notes: Vec::new(),
        };
        json!({ "traced": false, "workloads": Value::Object(vec![("va-mesh".into(), result.to_json(&spec, false))]) })
    }

    /// The compiled-in spec with every end-to-end bound set to 10 %, so that
    /// these tests pin the rule, not today's bounds.
    fn spec_at_ten_percent() -> Spec {
        let mut spec = Spec::builtin();
        for m in &mut spec.end_to_end {
            m.bound = Some(0.10);
        }
        spec
    }

    fn verdict_of(table: &str, metric: &str) -> String {
        let row = table.lines().find(|l| l.contains(metric)).expect("row");
        row.split_whitespace().last().expect("verdict").to_string()
    }

    #[test]
    fn twelve_percent_drop_is_flagged_and_five_percent_accepted() {
        let spec = spec_at_ten_percent();
        let base = report(950.0, 0.002);
        let (table, regressed) =
            compare(&base, &report(950.0 * 0.88, 0.002), &spec).expect("compares");
        assert!(regressed, "{table}");
        assert_eq!(verdict_of(&table, "decided_per_s"), "REGRESSION");
        assert_eq!(verdict_of(&table, "wire_bytes_per_decision"), "unchanged");
        let (table, regressed) =
            compare(&base, &report(950.0 * 0.95, 0.002), &spec).expect("compares");
        assert!(!regressed, "{table}");
        assert_eq!(verdict_of(&table, "decided_per_s"), "unchanged");
        // A 12 % gain whose worst repetition beats A's best.
        let (table, regressed) =
            compare(&base, &report(950.0 * 1.12, 0.002), &spec).expect("compares");
        assert!(!regressed);
        assert_eq!(verdict_of(&table, "decided_per_s"), "improved");
    }

    #[test]
    fn noisy_repetitions_are_unresolved_not_unchanged() {
        let spec = spec_at_ten_percent();
        // Repetitions fall 6 % each: the best of the even ones and the best
        // of the odd ones differ by 6 % > ... not yet the 10 % bound.
        let (table, _) =
            compare(&report(950.0, 0.06), &report(940.0, 0.06), &spec).expect("compares");
        assert_eq!(verdict_of(&table, "decided_per_s"), "unchanged");
        let (table, regressed) =
            compare(&report(950.0, 0.12), &report(940.0, 0.12), &spec).expect("compares");
        assert_eq!(verdict_of(&table, "decided_per_s"), "unresolved");
        assert!(!regressed);
    }

    #[test]
    fn mismatched_reports_are_refused() {
        let spec = Spec::builtin();
        let mut traced = report(950.0, 0.0);
        if let Value::Object(fields) = &mut traced {
            fields[0].1 = Value::Bool(true);
        }
        assert!(compare(&report(950.0, 0.0), &traced, &spec).is_err());
        assert_eq!(worse_by(100.0, 112.0, Better::Lower), 0.12);
        assert_eq!(worse_by(100.0, 88.0, Better::Higher), 0.12);
    }
}
