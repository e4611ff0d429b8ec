//! E23 — the impersonation campaign: live identity attacks against the
//! keyed link-identity layer, over real TCP with real adversaries.
//!
//! Usage: `exp_identity [--smoke] [--seed N] [--runs N] [--metrics ADDR]
//! [--metrics-wait-scrapes N]`
//!
//! Seeded 7-node, `f = 2` runs cycle the full attack registry — the five
//! identity mixes (handshake impersonation, handshake replay, nonce
//! reflection, MAC bit-flips, protocol downgrade) plus every classic E20
//! mix, all speaking the authenticated protocol. Attackers hold their own
//! pairwise keys (the compromised-node keyring), never the mesh seed.
//! Gates: every run converges, honest decisions are bit-identical to an
//! in-process honest-only baseline, the safety monitor never fires, no
//! rejection is attributed to honest traffic, every identity mix's
//! forgeries are refused (`auth_rejects > 0`), and authenticated mesh
//! construction stays within an absolute budget. Results land in
//! `BENCH_identity.json`; exits nonzero on any gate failure. The campaign
//! is `rbvc_bench::experiments::identity`.

fn main() {
    rbvc_bench::campaign::main(&rbvc_bench::experiments::identity::SCENARIO);
}
