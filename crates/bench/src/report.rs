//! Plain-text table rendering for the experiment binaries (fixed-width
//! columns, one header row; output is pasted verbatim into
//! EXPERIMENTS.md) plus the shared `BENCH_*.json` envelope every
//! experiment wraps its result document in.

use serde_json::{json, Value};

/// Render a table with a title.
#[must_use]
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| (*s).to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Print a table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, headers, rows));
}

/// Wrap an experiment's result document in the shared `BENCH_*.json`
/// envelope: `schema_version`, the short experiment id (`"E20"`), a
/// human title, the git revision the binary was built from, and the
/// wall-clock generation time. The envelope keys come first; `doc`'s own
/// keys follow (an envelope key already present in `doc` is dropped in
/// favor of the envelope's), so downstream tooling — `exp trajectory`,
/// CI artifact diffing — can read any experiment's output without
/// per-experiment knowledge.
#[must_use]
pub fn with_envelope(id: &str, title: &str, doc: Value) -> Value {
    let mut fields: Vec<(String, Value)> = vec![
        ("schema_version".to_string(), json!(1)),
        ("experiment".to_string(), json!(id)),
        ("title".to_string(), json!(title)),
        ("git_rev".to_string(), json!(git_rev())),
        ("generated_unix_s".to_string(), json!(unix_now_s())),
    ];
    match doc {
        Value::Object(inner) => {
            let taken =
                ["schema_version", "experiment", "title", "git_rev", "generated_unix_s"];
            fields.extend(inner.into_iter().filter(|(k, _)| !taken.contains(&k.as_str())));
        }
        other => fields.push(("data".to_string(), other)),
    }
    Value::Object(fields)
}

/// Short git revision of the working tree, or `"unknown"` outside a
/// checkout (the envelope must never make an experiment fail).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn unix_now_s() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Format a float compactly.
#[must_use]
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 0.01 && x.abs() < 10_000.0 {
        format!("{x:.4}")
    } else {
        format!("{x:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let s = render_table(
            "demo",
            &["a", "bbbb"],
            &[
                vec!["1".into(), "2".into()],
                vec!["333".into(), "4".into()],
            ],
        );
        assert!(s.contains("== demo =="));
        assert!(s.contains("a    bbbb"));
        assert!(s.contains("333"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(1.5), "1.5000");
        assert!(fnum(1e-6).contains('e'));
        assert!(fnum(1e7).contains('e'));
    }

    #[test]
    fn envelope_leads_with_shared_keys_and_keeps_the_payload() {
        let doc = with_envelope(
            "E99",
            "demo experiment",
            json!({ "runs": 3, "experiment": "stale duplicate" }),
        );
        let obj = doc.as_object().expect("object");
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            &keys[..5],
            &["schema_version", "experiment", "title", "git_rev", "generated_unix_s"]
        );
        assert_eq!(doc.get("schema_version").and_then(Value::as_u64), Some(1));
        assert_eq!(doc.get("experiment").and_then(Value::as_str), Some("E99"));
        assert_eq!(doc.get("runs").and_then(Value::as_u64), Some(3));
        // The envelope's id wins over a stale key in the payload.
        assert_eq!(keys.iter().filter(|k| **k == "experiment").count(), 1);
        assert!(doc.get("git_rev").and_then(Value::as_str).is_some());
    }
}
