//! Command line of both binaries: argument parsing, the run loop over the
//! asked workloads, the report files, and the exit code.

use std::path::PathBuf;

use serde_json::{json, Value};

use crate::report::{Spec, WorkloadResult};
use crate::run::Options;
use crate::workloads::Workload;

/// Default benchmark seed.
pub const DEFAULT_SEED: u64 = 2016;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workloads to run, in order.
    pub workloads: Vec<Workload>,
    /// `--trace`: 0 for the timed run, 1 for the traced one.
    pub trace: bool,
    /// `--out FILE`: where to write the full JSON report.
    pub out: Option<PathBuf>,
    /// Seed, budget, smoke flag and output directory.
    pub options: Options,
}

/// Usage text.
pub const USAGE: &str =
    "usage: rbvc-bench[-traced] [--workload va-mesh|bvc-relaxed|durable-mesh|client-open|all] \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--out-dir DIR]\n       \
rbvc-bench compare A.json B.json";

/// Parse the arguments after the program name.
///
/// # Errors
/// A one-line message naming the offending argument.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        trace: false,
        out: None,
        options: Options {
            seed: DEFAULT_SEED,
            seconds: None,
            smoke: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?]
                };
            }
            "--seed" => {
                parsed.options.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                parsed.options.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => parsed.options.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--out-dir" => parsed.options.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Run the asked workloads with `run_one`, print the human-readable report
/// and, as the last line of standard output, the contract's JSON object
/// (for one workload) or a summary object (for several). Returns the
/// process exit code: 0 when every check of every workload passed.
///
/// # Panics
/// If the output directory cannot be created.
pub fn run(
    args: &Args,
    traced: bool,
    mut run_one: impl FnMut(Workload, &Options) -> WorkloadResult,
) -> i32 {
    let spec = Spec::builtin();
    std::fs::create_dir_all(&args.options.out_dir).expect("create the output directory");
    println!(
        "seed {}  mode {}  budget {}  threads available {}  injected message delay: zero",
        args.options.seed,
        if traced {
            "traced (per-layer)"
        } else {
            "timed (end-to-end)"
        },
        match (args.options.smoke, args.options.seconds) {
            (true, _) => "smoke (2 quarter-size repetitions)".to_string(),
            (false, Some(s)) => format!("{s} s per workload"),
            (false, None) => "default repetitions".to_string(),
        },
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let mut results = Vec::new();
    for &w in &args.workloads {
        let result = run_one(w, &args.options);
        print!("{}", result.render(&spec, traced));
        results.push(result);
    }
    if let Some(path) = &args.out {
        let workloads: Vec<(String, Value)> = results
            .iter()
            .map(|r| (r.workload.to_string(), r.to_json(&spec, traced)))
            .collect();
        let doc = json!({
            "schema": 1,
            "seed": args.options.seed,
            "traced": traced,
            "smoke": args.options.smoke,
            "seconds": args.options.seconds,
            "message_delay_injected": "zero",
            "workloads": Value::Object(workloads),
        });
        let text = serde_json::to_string_pretty(&doc).expect("report renders");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return 2;
        }
    }
    let mut lines = Vec::new();
    for r in &results {
        match r.contract_line(&spec, traced) {
            Ok(line) => lines.push((r.workload, line)),
            Err(e) => {
                eprintln!("{}: {e}", r.workload);
                return 2;
            }
        }
    }
    let correct = results.iter().all(WorkloadResult::correct);
    match lines.as_slice() {
        [(_, line)] => println!("{line}"),
        _ => {
            let per: Vec<(String, Value)> = lines
                .iter()
                .map(|(w, line)| {
                    (
                        (*w).to_string(),
                        serde_json::from_str(line).expect("own output parses"),
                    )
                })
                .collect();
            let doc = json!({
                "correct": correct,
                "attempted": results.iter().map(|r| r.attempted).sum::<usize>(),
                "failed": results.iter().map(|r| r.failed).sum::<usize>(),
                "workloads": Value::Object(per),
            });
            println!("{}", serde_json::to_string(&doc).expect("summary renders"));
        }
    }
    i32::from(!correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let a =
            parse_str("--workload durable-mesh --seed 7 --seconds 20 --trace 1").expect("parses");
        assert_eq!(a.workloads, [Workload::DurableMesh]);
        assert_eq!(
            (a.options.seed, a.options.seconds, a.trace),
            (7, Some(20.0), true)
        );
        let d = parse_str("").expect("defaults");
        assert_eq!(d.workloads, Workload::ALL);
        assert_eq!(
            (d.options.seed, d.options.seconds, d.trace, d.options.smoke),
            (2016, None, false, false)
        );
        assert!(parse_str("--smoke").expect("smoke").options.smoke);
    }

    #[test]
    fn malformed_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--seconds",
            "--trace 2",
            "--frobnicate",
        ] {
            assert!(parse_str(bad).is_err(), "{bad}");
        }
    }
}
