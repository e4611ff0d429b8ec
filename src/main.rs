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
    run_async, run_sync, AsyncByzantine, AsyncSpec, SchedulerSpec, SyncSpec,
};
use relaxed_bvc::consensus::sync_protocols::ByzantineStrategy;
use relaxed_bvc::consensus::verified_avg::DeltaMode;
use relaxed_bvc::geometry::minmax::{delta_star, Method};
use relaxed_bvc::linalg::{Norm, Tol, VecD};

struct Args(Vec<String>);

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }
    fn usize_or(&self, key: &str, default: usize) -> usize {
        self.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }
    fn u64_or(&self, key: &str, default: u64) -> u64 {
        self.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }
}

fn parse_norm(s: Option<&str>) -> Norm {
    match s {
        Some("1") => Norm::L1,
        Some("inf") | Some("infinity") => Norm::LInf,
        Some(other) => other.parse::<f64>().map(Norm::lp).unwrap_or(Norm::L2),
        None => Norm::L2,
    }
}

fn random_inputs(seed: u64, n: usize, d: usize) -> Vec<VecD> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| VecD((0..d).map(|_| rng.gen_range(-1.0..1.0)).collect()))
        .collect()
}

fn cmd_bounds(args: &Args) {
    let f = args.usize_or("--f", 1);
    let d = args.usize_or("--d", 3);
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
}

fn cmd_delta_star(args: &Args) {
    let n = args.usize_or("--n", 4);
    let f = args.usize_or("--f", 1);
    let d = args.usize_or("--d", 3);
    let seed = args.u64_or("--seed", 42);
    let norm = parse_norm(args.get("--norm"));
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
}

fn cmd_sync(args: &Args) {
    let n = args.usize_or("--n", 4);
    let f = args.usize_or("--f", 1);
    let d = args.usize_or("--d", 3);
    let seed = args.u64_or("--seed", 42);
    let rule = match args.get("--rule") {
        Some("gamma") => DecisionRule::GammaPoint,
        Some("coord") => DecisionRule::CoordinateTrimmedMidpoint,
        _ => DecisionRule::MinDeltaPoint(parse_norm(args.get("--norm"))),
    };
    let inputs = random_inputs(seed, n, d);
    let adversaries = match args.get("--byz") {
        Some("silent") => vec![(n - 1, ByzantineStrategy::Silent)],
        Some("two-faced") => vec![(
            n - 1,
            ByzantineStrategy::TwoFaced((0..n).map(|j| VecD(vec![j as f64 * 3.0; d])).collect()),
        )],
        Some("follow") => vec![(n - 1, ByzantineStrategy::FollowProtocol(inputs[n - 1].clone()))],
        _ => vec![],
    };
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
    let report = run_sync(&spec, Tol::default());
    println!("decisions (correct processes): ");
    for dec in report.decisions.iter().flatten() {
        println!("  {dec}");
    }
    println!("δ used: {:?}", report.delta_used);
    println!("messages: {}", report.trace.messages_sent);
    println!("verdict: {:?}", report.verdict);
    std::process::exit(i32::from(!report.verdict.ok()));
}

fn cmd_async(args: &Args) {
    let n = args.usize_or("--n", 4);
    let f = args.usize_or("--f", 1);
    let d = args.usize_or("--d", 3);
    let seed = args.u64_or("--seed", 42);
    let rounds = args.usize_or("--rounds", 20);
    let inputs = random_inputs(seed, n, d);
    let adversaries = match args.get("--byz") {
        Some("silent") => vec![(n - 1, AsyncByzantine::Silent)],
        Some("split") => vec![(
            n - 1,
            AsyncByzantine::SplitBrain {
                primary: VecD(vec![5.0; d]),
                alt: VecD(vec![-5.0; d]),
            },
        )],
        _ => vec![],
    };
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
    let report = run_async(&spec, Tol::default());
    println!("decisions (correct processes): ");
    for dec in report.decisions.iter().flatten() {
        println!("  {dec}");
    }
    println!("round-0 δ used: {:?}", report.delta_used);
    println!("messages delivered: {}", report.trace.messages_delivered);
    println!("verdict: {:?}", report.verdict);
    std::process::exit(i32::from(!report.verdict.ok()));
}

const USAGE: &str = "relaxed-bvc <command> [flags]

commands:
  bounds      --f <f> --d <d>
  delta-star  --n <n> --f <f> --d <d> --seed <s> [--norm 1|2|inf|<p>]
  sync        --n <n> --f <f> --d <d> --seed <s>
              [--rule gamma|coord|min-delta] [--byz silent|two-faced|follow]
  async       --n <n> --f <f> --d <d> --seed <s> --rounds <r>
              [--byz silent|split]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let args = Args(argv);
    match cmd.as_str() {
        "bounds" => cmd_bounds(&args),
        "delta-star" => cmd_delta_star(&args),
        "sync" => cmd_sync(&args),
        "async" => cmd_async(&args),
        _ => {
            eprintln!("unknown command `{cmd}`\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}
