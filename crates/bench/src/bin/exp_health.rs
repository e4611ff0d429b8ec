//! E22 — the self-diagnosis campaign: seeded stalls (muted peer, severed
//! links, fsync throttle, mid-run kill) injected into live 7-node
//! authenticated loopback TCP meshes with the health subsystem armed.
//!
//! Usage: `exp_health [--smoke] [--seed N] [--runs N] [--flight-dir DIR]
//! [--metrics ADDR] [--metrics-wait-scrapes N]`
//!
//! Every faulted run must be detected within the budget and blamed on
//! exactly the injected victim by a surviving node's stall detector;
//! clean runs must raise zero stalls (the false-positive floor); honest
//! survivors must still terminate with a clean online safety monitor.
//! The campaign ends by inducing a safety violation against a
//! flight-recorded monitor and replaying the black-box dump through the
//! trace summarizer. Results land in `BENCH_health.json`; with
//! `--metrics`, the live endpoint serves both `/metrics` (including the
//! runtime's `health.stall.*` and `health.link.*` series as they move
//! mid-run) and `/status` (the nodes' self-published snapshots). Exits
//! nonzero on a diagnosis rate below 95 %, any false positive, misblame,
//! violation, non-termination, flight-replay failure, or scrape failure.
//! The campaign is `rbvc_bench::experiments::health`.

fn main() {
    rbvc_bench::campaign::main(&rbvc_bench::experiments::health::SCENARIO);
}
