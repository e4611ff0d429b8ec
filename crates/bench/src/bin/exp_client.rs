//! E21 — open-loop client saturation: external worker sessions drive the
//! `rbvc-client` front-end (sessions, dedup, redirect routing,
//! backpressure) against a 7-node authenticated loopback TCP mesh with
//! Poisson arrivals, sweeping the offered rate until the service saturates.
//!
//! Usage: `exp_client [--smoke] [--seed N] [--metrics ADDR]
//! [--metrics-wait-scrapes N]`
//!
//! Each rate step reports offered vs decided rate and p50/p99
//! submit→reply latency measured at the client; the sweep detects the
//! saturation point (goodput < 0.9 or a p99 knee) and every step replays
//! an answered request to prove the dedup cache returns identical bytes
//! without a new consensus instance. An online agreement monitor watches
//! every client-instance decision across all nodes. Results land in
//! `BENCH_client.json`; with `--metrics`, the client-table gauges
//! (`client_sessions`, `client_dedup_hits`, `client_redirects`) and the
//! per-step sweep gauges are served live. Exits nonzero on any monitor
//! violation, wrong reply, dedup mismatch, or scrape failure. The campaign
//! is `rbvc_bench::experiments::client`.

fn main() {
    rbvc_bench::campaign::main(&rbvc_bench::experiments::client::SCENARIO);
}
