//! `exp trajectory` — one-line-per-experiment summary of every
//! `BENCH_*.json` the systems campaigns write (the scenario table
//! `campaign::SCENARIOS`), keyed off the shared report envelope
//! (`schema_version` / `experiment` / `title` / `git_rev` /
//! `generated_unix_s`).
//!
//! Reads each report tolerantly: a missing file prints as absent, a
//! pre-envelope or hand-edited document still summarizes whatever shared
//! keys it carries. This is the quick "where does the benchmark
//! trajectory stand" view for a fresh checkout — which campaigns have
//! been run, at which commit, how long ago, and their headline verdicts.

use serde_json::Value;

use super::Experiment;
use crate::campaign::{Args, Gate, Kind, SCENARIOS};
use crate::report::print_table;

/// `exp trajectory`.
pub const TRAJECTORY: Experiment = Experiment {
    name: "trajectory",
    ids: "—",
    artefact: "one row per `BENCH_*.json` in DIR",
    positionals: &[("DIR", Kind::Path, Some("."))],
    flags: &[],
    suite: None,
    json: None,
    run,
};

fn get_str(doc: &Value, key: &str) -> String {
    doc.get(key).and_then(Value::as_str).unwrap_or("?").to_string()
}

fn get_u64(doc: &Value, key: &str) -> Option<u64> {
    doc.get(key).and_then(Value::as_u64)
}

fn get_f64(doc: &Value, key: &str) -> Option<f64> {
    doc.get(key).and_then(|v| v.as_f64().or_else(|| v.as_u64().map(|u| u as f64)))
}

/// Age of a unix timestamp relative to now, human-readable.
fn age(generated_unix_s: Option<u64>) -> String {
    let Some(at) = generated_unix_s else {
        return "?".to_string();
    };
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let dt = now.saturating_sub(at);
    if dt < 120 {
        format!("{dt}s ago")
    } else if dt < 7200 {
        format!("{}m ago", dt / 60)
    } else if dt < 172_800 {
        format!("{}h ago", dt / 3600)
    } else {
        format!("{}d ago", dt / 86_400)
    }
}

/// The per-experiment headline: the one number (or verdict) someone
/// scanning the trajectory actually wants per campaign.
fn headline(doc: &Value) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(runs) = get_u64(doc, "runs") {
        parts.push(format!("{runs} runs"));
    }
    if let (Some(c), Some(r)) = (get_u64(doc, "converged_runs"), get_u64(doc, "runs")) {
        parts.push(format!("{c}/{r} converged"));
    }
    if let Some(rate) = get_f64(doc, "diagnosis_rate") {
        parts.push(format!("{:.0}% diagnosed", rate * 100.0));
    }
    if let Some(v) = get_u64(doc, "monitor_violations") {
        parts.push(format!("{v} violations"));
    }
    if doc.get("saturation_offered_per_sec").is_some() {
        match get_f64(doc, "saturation_offered_per_sec") {
            Some(rate) => parts.push(format!("saturates at {rate:.0}/s")),
            None => parts.push("no saturation in sweep".to_string()),
        }
    }
    if let Some(w) = get_f64(doc, "wall_secs") {
        parts.push(format!("{w:.1}s wall"));
    }
    if parts.is_empty() {
        "(no shared headline keys)".to_string()
    } else {
        parts.join(", ")
    }
}

fn run(args: &Args) -> Vec<Gate> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for name in SCENARIOS.map(|sc| sc.report()) {
        let path = std::path::Path::new(&args.pos[0]).join(&name);
        let row = match std::fs::read_to_string(&path) {
            Ok(text) => match serde_json::from_str(&text) {
                Ok(doc) => vec![
                    get_str(&doc, "experiment"),
                    get_str(&doc, "title"),
                    get_str(&doc, "git_rev"),
                    age(get_u64(&doc, "generated_unix_s")),
                    headline(&doc),
                ],
                Err(_) => ["?", &name, "?", "?", "unparseable JSON"].map(String::from).to_vec(),
            },
            Err(_) => {
                ["—", &name, "—", "—", "absent (campaign not run)"].map(String::from).to_vec()
            }
        };
        rows.push(row);
    }
    print_table(
        "Benchmark trajectory (shared report envelope)",
        &["exp", "title", "rev", "generated", "headline"],
        &rows,
    );
    Vec::new()
}
