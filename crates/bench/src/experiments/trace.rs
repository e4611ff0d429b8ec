//! `exp trace` — cross-node critical-path attribution over a JSONL trace.
//!
//! ```text
//! exp trace TRACE.jsonl [--json OUT.json]   # attribute an existing trace
//! exp trace --smoke [--seed N]              # self-contained CI check
//! ```
//!
//! File mode parses a trace written by `exp service --trace` (all nodes of
//! the loopback mesh log into one file, so it is already merged),
//! reconstructs each decided instance's message DAG, walks the
//! submit→decide critical path backwards, and prints the per-phase
//! attribution table; `--json` also writes the attribution object.
//!
//! `--smoke` runs the smoke-sized service profile over real TCP sockets
//! with tracing on, then asserts the tracing invariants the attribution
//! depends on: every `FrameRx` pairs with a `FrameTx` (zero unpaired
//! receives, zero mid-stream send gaps), every `(instance, node)` yields a
//! complete chain, and the reconstructed phase sums agree with the
//! service's own measured decide latencies — per chain within 10% (plus a
//! small absolute floor for scheduler jitter on loaded CI machines), and
//! in aggregate the median chain total must bracket the measured p50.
//! Exits nonzero on any violation.

use rbvc_obs::{assemble, render_attribution, TraceSummary};

use super::service::{run_service, ServiceConfig, TraceFile, TransportKind};
use super::Experiment;
use crate::campaign::{gate, percentile, Args, Gate, Kind};

/// `exp trace`.
pub const TRACE: Experiment = Experiment {
    name: "trace",
    ids: "—",
    artefact: "critical-path attribution of a JSONL trace",
    positionals: &[("TRACE.jsonl", Kind::Path, None)],
    flags: &["--smoke", "--seed N", "--json FILE"],
    suite: None,
    json: None,
    run,
};

fn run(args: &Args) -> Vec<Gate> {
    let done = if args.smoke {
        smoke(args.seed)
    } else {
        attribute_file(&args.pos[0]).and_then(|a| {
            let Some(out) = &args.json else { return Ok(()) };
            let rendered = serde_json::to_string_pretty(&a.to_json()).expect("valid JSON");
            std::fs::write(out, rendered).map_err(|e| format!("write {out}: {e}"))?;
            println!("wrote {out}");
            Ok(())
        })
    };
    match done {
        Ok(()) => Vec::new(),
        Err(e) => vec![gate(false, e)],
    }
}

/// Parse + assemble one trace file and print the report. Returns the
/// assembled attribution for further checks.
fn attribute_file(path: &str) -> Result<rbvc_obs::Attribution, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let summary = TraceSummary::parse(&text)?;
    let a = assemble(&summary);
    println!("{}", render_attribution(&a));
    Ok(a)
}

/// Per-chain tolerance: 10% of the measured latency, with an absolute
/// floor because `Instant::now()` at submit and the trace clock at the
/// `Submit` event are two distinct reads a descheduled thread can split.
fn chain_tolerance_us(measured_us: u64) -> u64 {
    (measured_us / 10).max(2_000)
}

fn smoke(seed: u64) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("rbvc-exp-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mk tmp dir: {e}"))?;
    let path = dir.join("smoke.jsonl");

    let cfg = ServiceConfig::smoke(seed);
    println!(
        "exp trace --smoke: {}-node TCP mesh, {} instances, seed {seed}, trace {}",
        cfg.mesh.n,
        cfg.mesh.instances,
        path.display()
    );
    let trace = TraceFile::create(&path).map_err(|e| format!("create trace: {e}"))?;
    let out = run_service(&cfg, TransportKind::Tcp, Some(trace.obs()));
    trace.finish();

    if out.decided < cfg.mesh.instances {
        return Err(format!(
            "only {}/{} instances decided — cannot judge the trace",
            out.decided, cfg.mesh.instances
        ));
    }
    let a = attribute_file(&path.to_string_lossy())?;
    let _ = std::fs::remove_dir_all(&dir);

    // Pairing: every receive must match a send; a send may legitimately be
    // unread only at shutdown (in flight), never mid-stream.
    if a.unpaired_rx != 0 || a.unpaired_tx_mid != 0 {
        return Err(format!(
            "span pairing broken: {} unpaired rx, {} mid-stream tx gaps",
            a.unpaired_rx, a.unpaired_tx_mid
        ));
    }
    if a.identity_mismatches != 0 {
        return Err(format!(
            "{} paired spans disagree on (instance, round)",
            a.identity_mismatches
        ));
    }
    // Completeness: one complete chain per (instance, node).
    let expect = cfg.mesh.instances * cfg.mesh.n;
    if a.chains.len() != expect || a.incomplete_chains != 0 {
        return Err(format!(
            "expected {expect} complete chains, got {} ({} incomplete)",
            a.chains.len(),
            a.incomplete_chains
        ));
    }
    // Accuracy: the phase partition telescopes to submit→decide on the
    // trace clock; that must agree with the service's own stopwatch.
    for c in &a.chains {
        let err = c.total_us.abs_diff(c.measured_us);
        if err > chain_tolerance_us(c.measured_us) {
            return Err(format!(
                "instance {} node {}: phase sum {}µs vs measured {}µs (err {}µs)",
                c.instance, c.node, c.total_us, c.measured_us, err
            ));
        }
    }
    let mut totals: Vec<f64> = a.chains.iter().map(|c| c.total_us as f64).collect();
    totals.sort_by(f64::total_cmp);
    let trace_p50_us = percentile(&totals, 50.0);
    let measured_p50_us = out.p50_ms * 1e3;
    let p50_err = (trace_p50_us - measured_p50_us).abs();
    if p50_err > (measured_p50_us * 0.10).max(2_000.0) {
        return Err(format!(
            "trace p50 {trace_p50_us:.0}µs strays from measured p50 {measured_p50_us:.0}µs"
        ));
    }
    println!(
        "smoke OK: {} chains complete, 0 unpaired, p50 trace {:.1}ms vs measured {:.1}ms, \
         dominant phase {}",
        a.chains.len(),
        trace_p50_us / 1e3,
        out.p50_ms,
        a.dominant_phase()
    );
    Ok(())
}
