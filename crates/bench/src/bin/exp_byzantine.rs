//! E20 — live Byzantine adversaries over real TCP: seeded runs on a
//! 7-node authenticated loopback mesh with `f = 2` malicious nodes cycling
//! through the attack registry (per-recipient equivocation, lying
//! witnesses, selective mutism, codec garbage, gate sprays, stale-HELLO
//! replays, re-dial storms, client sprays, and the combined mix).
//!
//! Usage: `exp_byzantine [--smoke] [--seed N] [--runs N] [--metrics ADDR]
//! [--metrics-wait-scrapes N]`
//!
//! Every run proves three things online: the per-instance safety monitor
//! (ε-agreement + box validity over the *honest* inputs) never fires, the
//! honest decisions are bit-identical to an in-process honest-only
//! baseline, and every gate rejection at an honest node is attributed to a
//! Byzantine sender. The honest-path cost of each attack mix (wall-clock
//! slowdown vs a clean TCP reference, p50/p99 submit→decide latency,
//! per-gate rejection counts) lands in `BENCH_byzantine.json` and — via
//! `--metrics` — in the live Prometheus endpoint as
//! `exp_byzantine_slowdown_permille{attack=...}`. Exits nonzero on any
//! violation, divergence, non-convergence, or scrape failure. The campaign
//! is `rbvc_bench::experiments::byzantine`.

fn main() {
    rbvc_bench::campaign::main(&rbvc_bench::experiments::byzantine::SCENARIO);
}
