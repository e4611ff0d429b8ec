//! E17 — consensus-service load generator: an authenticated loopback TCP
//! mesh running hundreds of concurrent SyncBvc / Verified-Averaging
//! instances through `rbvc-transport`, with online per-instance safety
//! monitoring.
//!
//! Usage: `exp_service [--smoke] [--seed N] [--instances N] [--window N]
//! [--trace FILE] [--attrib] [--metrics ADDR] [--metrics-wait-scrapes N]`
//!
//! The default profile is a 7-node mesh (SyncBvc at `f = 2`) under 210
//! concurrent instances; `--smoke` shrinks to a 4-node, 12-instance mesh
//! for CI. Both modes first prove cross-transport identity (TCP decisions
//! == in-process decisions on the same seed), then run the TCP load
//! profile, print the table, and write `BENCH_service.json`. Exits nonzero
//! on any safety violation, undecided instance, transport/service error,
//! or identity mismatch.
//!
//! `--trace FILE` records the load run as a JSONL trace (feed it to
//! `exp_obs` for the per-run report, or `exp_trace` for the critical-path
//! attribution); `--attrib` runs the attribution inline and embeds it in
//! the report. `--metrics ADDR` (e.g. `127.0.0.1:9184`, port 0 for
//! ephemeral) serves the live metrics registry in Prometheus text format
//! for the whole run; the run fails if a background self-scrape never sees
//! a valid dump. `--metrics-wait-scrapes N` keeps the endpoint up after
//! the run until it has answered `N` requests (so CI can curl a short
//! smoke run without racing its exit). The CLI, the endpoint and the
//! report writer are `rbvc_bench::campaign::main`; the campaign itself is
//! `rbvc_bench::experiments::service`.

fn main() {
    rbvc_bench::campaign::main(&rbvc_bench::experiments::service::SCENARIO);
}
