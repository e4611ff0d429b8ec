//! `relaxed-bvc` — command-line driver for the library: run consensus
//! instances, query bounds, and compute δ* on random or supplied inputs.
//!
//! ```text
//! relaxed-bvc bounds --f 1 --d 3
//! relaxed-bvc delta-star --n 4 --f 1 --d 3 --seed 7 [--norm inf]
//! relaxed-bvc sync  --n 4 --f 1 --d 3 --rule min-delta --byz silent --seed 7
//! relaxed-bvc async --n 4 --f 1 --d 3 --rounds 20 --seed 7
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relaxed_bvc::consensus::bounds;
use relaxed_bvc::consensus::problem::{Agreement, Validity};
use relaxed_bvc::consensus::rules::DecisionRule;
use relaxed_bvc::consensus::runner::{
    try_run_async, try_run_sync, AsyncByzantine, AsyncSpec, RunReport, SchedulerSpec, SyncSpec,
};
use relaxed_bvc::consensus::ProtocolError;
use relaxed_bvc::consensus::sync_protocols::ByzantineStrategy;
use relaxed_bvc::consensus::verified_avg::DeltaMode;
use relaxed_bvc::geometry::minmax::{delta_star, Method};
use relaxed_bvc::linalg::{Norm, Tol, VecD};

/// The flags after the command word, as `--key value` pairs.
struct Args(Vec<(String, String)>);

impl Args {
    /// Every word must be one of `allowed`, followed by its value.
    fn parse(words: &[String], allowed: &[&str]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        for pair in words.chunks(2) {
            let key = &pair[0];
            if !allowed.contains(&key.as_str()) {
                return Err(format!("unknown flag `{key}`"));
            }
            let value = pair.get(1).ok_or(format!("{key} needs a value"))?;
            pairs.push((key.clone(), value.clone()));
        }
        Ok(Args(pairs))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.get(key).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{key}: `{v}` is not a non-negative integer"))
        })
    }

    /// `--n --f --d --seed`, defaulting to `4 1 3 42`.
    fn shape(&self) -> Result<(usize, usize, usize, u64), String> {
        Ok((self.num("--n", 4)?, self.num("--f", 1)?, self.num("--d", 3)?, self.num("--seed", 42)?))
    }

    fn norm(&self) -> Result<Norm, String> {
        match self.get("--norm") {
            None => Ok(Norm::L2),
            Some("inf" | "infinity") => Ok(Norm::LInf),
            Some(v) => match v.parse::<f64>() {
                Ok(p) if p.is_finite() && p >= 1.0 => Ok(Norm::lp(p)),
                _ => Err(format!("--norm: `{v}` is not `inf` or a finite p >= 1")),
            },
        }
    }
}

fn random_inputs(seed: u64, n: usize, d: usize) -> Vec<VecD> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| VecD((0..d).map(|_| rng.gen_range(-1.0..1.0)).collect()))
        .collect()
}

fn cmd_bounds(args: &Args) -> Result<i32, String> {
    let f: usize = args.num("--f", 1)?;
    let d: usize = args.num("--d", 3)?;
    println!("process-count bounds for f = {f}, d = {d}:");
    println!("  Exact BVC (sync, Thm 1):              n >= {}", bounds::exact_bvc_min_n(f, d));
    println!("  Approximate BVC (async, Thm 2):       n >= {}", bounds::approx_bvc_min_n(f, d));
    println!("  1-relaxed (sync/async):               n >= {}", bounds::k_relaxed_exact_min_n(f, d, 1));
    if d >= 2 {
        println!(
            "  k-relaxed, 2<=k<=d (sync, Thm 3):     n >= {}",
            bounds::k_relaxed_exact_min_n(f, d, 2.min(d))
        );
        println!(
            "  k-relaxed, 2<=k<=d (async, Thm 4):    n >= {}",
            bounds::k_relaxed_approx_min_n(f, d, 2.min(d))
        );
    }
    println!("  (δ,p) constant δ (sync, Thm 5):       n >= {}", bounds::delta_p_exact_min_n(f, d));
    println!("  (δ,p) constant δ (async, Thm 6):      n >= {}", bounds::delta_p_approx_min_n(f, d));
    println!("  input-dependent δ (Lemma 10):         n >= {}", bounds::input_dependent_min_n(f));
    if d >= 3 {
        for n in bounds::input_dependent_min_n(f)..=(d + 1) * f {
            if let Some(k) = bounds::kappa_l2(n, f, d) {
                println!(
                    "    κ(n={n}): δ* < {:.4}·max-edge  [{:?}{}]",
                    k.kappa,
                    k.source,
                    if k.source.is_proven() { "" } else { ", conjectural" }
                );
            }
        }
    }
    Ok(0)
}

fn cmd_delta_star(args: &Args) -> Result<i32, String> {
    let (n, f, d, seed) = args.shape()?;
    let norm = args.norm()?;
    if f >= n {
        return Err(format!("δ* is over the subsets of n - f inputs: need f < n (got n = {n}, f = {f})"));
    }
    let inputs = random_inputs(seed, n, d);
    println!("inputs (seed {seed}):");
    for (i, p) in inputs.iter().enumerate() {
        println!("  process {i}: {p}");
    }
    let ds = delta_star(&inputs, f, norm, Tol::default());
    println!("\nδ*(S) [{norm:?}] = {:.8}  (method: {:?})", ds.delta, ds.method);
    println!("witness point   = {}", ds.witness);
    if ds.method == Method::CuttingPlane {
        println!(
            "lower bound     = {:.8}  (gap {:.1e}, {} iterations, certificate {})",
            ds.lower_bound,
            ds.delta - ds.lower_bound,
            ds.iterations,
            if ds.verify(&inputs, f) { "verifies" } else { "DOES NOT VERIFY" }
        );
        for cut in &ds.active {
            println!(
                "  active subset {:?}: multiplier {:.6}, normal {}",
                cut.subset, cut.multiplier, cut.normal
            );
        }
    }
    Ok(0)
}

/// `--byz`: the last process runs the named strategy, or nobody does.
fn byzantine<S>(
    args: &Args,
    n: usize,
    strategy: impl Fn(&str) -> Option<S>,
) -> Result<Vec<(usize, S)>, String> {
    match args.get("--byz") {
        None => Ok(vec![]),
        Some(name) => match strategy(name) {
            Some(s) => Ok(vec![(n.saturating_sub(1), s)]),
            None => Err(format!("--byz: unknown strategy `{name}`")),
        },
    }
}

/// Print a checked run; the exit code is 0 iff the verdict holds.
fn report_run(
    report: Result<RunReport, ProtocolError>,
    delta: &str,
    traffic: &str,
    count: impl Fn(&RunReport) -> u64,
) -> Result<i32, String> {
    let report = report.map_err(|e| e.to_string())?;
    println!("decisions (correct processes): ");
    for dec in report.decisions.iter().flatten() {
        println!("  {dec}");
    }
    println!("{delta}: {:?}", report.delta_used);
    println!("{traffic}: {}", count(&report));
    println!("verdict: {:?}", report.verdict);
    Ok(i32::from(!report.verdict.ok()))
}

fn cmd_sync(args: &Args) -> Result<i32, String> {
    let (n, f, d, seed) = args.shape()?;
    let rule = match args.get("--rule") {
        Some("gamma") => DecisionRule::GammaPoint,
        Some("coord") => DecisionRule::CoordinateTrimmedMidpoint,
        Some("min-delta") | None => DecisionRule::MinDeltaPoint(args.norm()?),
        Some(other) => return Err(format!("--rule: unknown rule `{other}`")),
    };
    let inputs = random_inputs(seed, n, d);
    let adversaries = byzantine(args, n, |name| match name {
        "silent" => Some(ByzantineStrategy::Silent),
        "two-faced" => Some(ByzantineStrategy::TwoFaced(
            (0..n).map(|j| VecD(vec![j as f64 * 3.0; d])).collect(),
        )),
        "follow" => inputs.last().cloned().map(ByzantineStrategy::FollowProtocol),
        _ => None,
    })?;
    let validity = match rule {
        DecisionRule::GammaPoint => Validity::Exact,
        DecisionRule::CoordinateTrimmedMidpoint => Validity::KRelaxed(1),
        DecisionRule::MinDeltaPoint(norm) => Validity::InputDependentDeltaP {
            kappa: if n >= 3 { 1.0 / (n as f64 - 2.0) } else { 1.0 },
            norm,
        },
    };
    let spec = SyncSpec {
        n,
        f,
        d,
        rule,
        inputs,
        adversaries,
        agreement: Agreement::Exact,
        validity,
    };
    report_run(try_run_sync(&spec, Tol::default()), "δ used", "messages", |r| r.trace.messages_sent)
}

fn cmd_async(args: &Args) -> Result<i32, String> {
    let (n, f, d, seed) = args.shape()?;
    let rounds = args.num("--rounds", 20)?;
    let inputs = random_inputs(seed, n, d);
    let adversaries = byzantine(args, n, |name| match name {
        "silent" => Some(AsyncByzantine::Silent),
        "split" => Some(AsyncByzantine::SplitBrain {
            primary: VecD(vec![5.0; d]),
            alt: VecD(vec![-5.0; d]),
        }),
        _ => None,
    })?;
    let spec = AsyncSpec {
        n,
        f,
        mode: DeltaMode::MinDelta(Norm::L2),
        rounds,
        inputs,
        adversaries,
        scheduler: SchedulerSpec::Random(seed),
        max_steps: 10_000_000,
        agreement: Agreement::Epsilon(1e-3),
        validity: Validity::InputDependentDeltaP {
            kappa: bounds::kappa_async(n, f, d, Norm::L2).map_or(1.0, |k| k.kappa),
            norm: Norm::L2,
        },
    };
    let delivered = |r: &RunReport| r.trace.messages_delivered;
    report_run(try_run_async(&spec, Tol::default()), "round-0 δ used", "messages delivered", delivered)
}

const USAGE: &str = "relaxed-bvc <command> [flags]

commands:
  bounds      --f <f> --d <d>
  delta-star  --n <n> --f <f> --d <d> --seed <s> [--norm 1|2|inf|<p>]
  sync        --n <n> --f <f> --d <d> --seed <s>
              [--rule gamma|coord|min-delta] [--byz silent|two-faced|follow]
  async       --n <n> --f <f> --d <d> --seed <s> --rounds <r>
              [--byz silent|split]";

/// Run `argv` (without the program name); `Err` is a usage error.
fn run(argv: &[String]) -> Result<i32, String> {
    let (cmd, words) = argv.split_first().ok_or("no command given")?;
    let shape = ["--n", "--f", "--d", "--seed"];
    match cmd.as_str() {
        "bounds" => cmd_bounds(&Args::parse(words, &["--f", "--d"])?),
        "delta-star" => cmd_delta_star(&Args::parse(words, &[&shape[..], &["--norm"]].concat())?),
        "sync" => cmd_sync(&Args::parse(words, &[&shape[..], &["--rule", "--norm", "--byz"]].concat())?),
        "async" => cmd_async(&Args::parse(words, &[&shape[..], &["--rounds", "--byz"]].concat())?),
        _ => Err(format!("unknown command `{cmd}`")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => std::process::exit(code),
        Err(reason) => {
            eprintln!("{reason}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::run;

    fn exit(line: &str) -> Result<i32, String> {
        run(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn bad_flag_values_are_usage_errors_not_panics_or_defaults() {
        assert_eq!(exit("bounds --f 2 --d 4"), Ok(0));
        assert_eq!(exit("delta-star --norm 1.5"), Ok(0));
        for line in [
            "",
            "frobnicate",
            "delta-star --norm 0.5",
            "delta-star --norm nan",
            "delta-star --norm bogus",
            "delta-star --f x",
            "delta-star --n 3 --f 3",
            "delta-star --n",
            "delta-star --nrom 2",
            "sync --rule bogus",
            "sync --byz bogus",
            "async --rounds -1",
            // Invalid specs: n <= 3f, and GammaPoint below n >= (d+1)f + 1.
            "sync --n 4 --f 2",
            "sync --n 4 --f 1 --d 5 --rule gamma",
            "sync --n 0 --byz follow",
            "async --n 4 --f 2",
        ] {
            assert!(exit(line).is_err(), "`{line}` must be rejected");
        }
    }
}
