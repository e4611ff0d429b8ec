//! E18 — crash-recovery campaign: seeded kill/restart of a WAL-durable
//! consensus service over authenticated loopback TCP, with log-corruption
//! injection.
//!
//! Usage: `exp_recovery [--smoke] [--seed N] [--runs N]`
//!
//! Each seeded run kills one node of a durable mesh mid-consensus, on
//! every third run also corrupts its write-ahead log (torn-tail truncation
//! or a random bit flip), recovers the node with
//! `ConsensusService::recover`, and requires the mesh to reconverge to
//! decisions **bit-identical** to an uninterrupted in-process baseline on
//! the same seed — with a clean online safety monitor and zero replay
//! divergences. The default profile is 50 runs on a 4-node mesh; `--smoke`
//! shrinks to 6 runs on 3 nodes for CI. Prints the campaign table, writes
//! `BENCH_recovery.json`, and exits nonzero if any run violated safety,
//! diverged on replay, or failed to reproduce the baseline decisions. The
//! campaign is `rbvc_bench::experiments::recovery`.

fn main() {
    rbvc_bench::campaign::main(&rbvc_bench::experiments::recovery::SCENARIO);
}
