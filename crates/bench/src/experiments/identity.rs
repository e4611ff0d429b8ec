//! E23 — the impersonation campaign: the keyed link-identity layer under
//! live identity attacks, end to end over real TCP.
//!
//! E20 established that Byzantine *payloads* cannot corrupt honest
//! decisions. E23 attacks the layer below: the adversary tries to *become
//! someone else* — claiming an honest node's id in the handshake, replaying
//! a captured handshake against a fresh nonce, reflecting the challenge
//! nonce as a MAC, flipping a bit in an otherwise valid MAC, and
//! downgrading to the retired plaintext v2 HELLO while claiming an honest
//! id. The
//! threat model is deliberately sharp: the attacker holds its *own*
//! pairwise keys (the keyring a compromised node would really have), never
//! the mesh seed or any honest-pair key.
//!
//! Each seeded run reuses E20's three-phase machinery (in-proc honest
//! baseline → clean authenticated TCP reference → attack run) with the mix
//! list widened to the full registry: the five identity mixes plus every
//! classic mix, the latter now speaking the authenticated protocol (their
//! raw wire attacks upgrade to captured-response replays and keyed redial
//! storms when a keyring is present). The campaign passes only if:
//!
//! * every run converges and every honest decision is **bit-identical** to
//!   the honest-only baseline — no forged frame ever reached delivery;
//! * the online safety monitor never fires;
//! * zero gate rejections and zero handshake rejections are attributed to
//!   honest traffic during the clean references;
//! * every identity mix's forgeries were *refused* — its attack runs
//!   produced `auth_rejects > 0` (a silent zero would mean the attack never
//!   exercised the layer);
//! * the handshake cost is bounded: standing up the 7-node authenticated
//!   mesh stays within an absolute budget.
//!
//! Results land in `BENCH_identity.json`.

use std::time::Instant;

use rbvc_transport::tcp_mesh_loopback_authenticated;
use serde_json::{json, Value};

use crate::campaign::{fields, gate, mesh_seed, Args, Report, Scenario};
use crate::experiments::byzantine::{
    self, is_identity_mix, mixes, run_campaign, ByzantineConfig, ByzantineOutcome,
};
use crate::report::fnum;

/// The E23 scenario entry.
pub const SCENARIO: Scenario = Scenario {
    name: "identity",
    id: "E23",
    title: "impersonation on the wire",
    flags: &["--runs N", "--metrics ADDR"],
    // `auth.reject_total` moves as soon as the first identity mix's
    // forgeries are refused; `auth.established` is counted by the TCP
    // readers at every verified handshake, health armed or not.
    metrics_probe: &["# TYPE", "auth_reject", "auth_established"],
    run,
};

/// Absolute budget for standing up one 7-node authenticated mesh, ms.
/// Loopback handshakes cost tens of microseconds; the budget is three
/// orders of magnitude of slack for a loaded CI box, while still catching
/// a handshake that spins or serializes the whole mesh.
pub const HANDSHAKE_BUDGET_MS: f64 = 2_000.0;

/// Campaign configuration: E20's three-phase config plus the
/// handshake-overhead probe.
#[derive(Clone)]
pub struct IdentityConfig {
    /// The underlying three-phase campaign config.
    pub campaign: ByzantineConfig,
    /// Mesh constructions timed by the handshake-overhead probe.
    pub handshake_trials: usize,
}

impl IdentityConfig {
    /// The full profile — the whole 14-mix registry cycled three times (42
    /// runs, clearing the acceptance floor of 40) — or the CI profile: one
    /// run per identity mix, smaller instances.
    #[must_use]
    pub fn profile(smoke: bool, seed: u64) -> Self {
        let mut campaign = ByzantineConfig::profile(smoke, seed);
        campaign.attacks = mixes(|name| !smoke || is_identity_mix(name));
        campaign.runs = campaign.attacks.len() * if smoke { 1 } else { 3 };
        campaign.auth = mesh_seed(seed ^ 0xE23);
        IdentityConfig { campaign, handshake_trials: if smoke { 2 } else { 5 } }
    }
}

/// The handshake-overhead probe: wall clock to stand up an `n`-node
/// authenticated loopback mesh, averaged over trials.
#[derive(Debug, Clone)]
pub struct HandshakeOverhead {
    /// Mesh size probed.
    pub n: usize,
    /// Mesh constructions timed.
    pub trials: usize,
    /// Mean authenticated mesh construction, ms.
    pub auth_ms: f64,
}

impl HandshakeOverhead {
    /// Within the absolute budget?
    #[must_use]
    pub fn bounded(&self) -> bool {
        self.auth_ms.is_finite() && self.auth_ms < HANDSHAKE_BUDGET_MS
    }
}

/// Measure authenticated mesh-construction wall clock.
#[must_use]
pub fn measure_handshake_overhead(n: usize, trials: usize, seed: u64) -> HandshakeOverhead {
    let auth_seed = mesh_seed(seed ^ 0x4853); // "HS"
    let trials = trials.max(1);
    let mut auth_total = 0.0;
    for _ in 0..trials {
        let t = Instant::now();
        drop(tcp_mesh_loopback_authenticated(n, &auth_seed).expect("authenticated mesh"));
        auth_total += t.elapsed().as_secs_f64() * 1e3;
    }
    HandshakeOverhead { n, trials, auth_ms: auth_total / trials as f64 }
}

/// Campaign outcome: the three-phase campaign verdicts plus the
/// identity-specific gates.
#[derive(Debug, Clone)]
pub struct IdentityOutcome {
    /// The underlying campaign (convergence, bit-identity, monitor,
    /// attribution, per-mix reports).
    pub campaign: ByzantineOutcome,
    /// The handshake-overhead probe.
    pub overhead: HandshakeOverhead,
}

impl IdentityOutcome {
    /// Per-identity-mix `(name, auth_rejects, runs)` rows, registry order,
    /// only mixes that actually ran.
    #[must_use]
    pub fn identity_rows(&self) -> Vec<(&str, u64, usize)> {
        self.campaign
            .reports
            .iter()
            .filter(|r| is_identity_mix(r.attack))
            .map(|r| (r.attack, r.auth_rejects, r.runs))
            .collect()
    }

    /// Identity mixes that ran but whose forgeries were never refused —
    /// a silent zero means the attack never exercised the auth layer.
    #[must_use]
    pub fn silent_identity_mixes(&self) -> Vec<&str> {
        self.identity_rows()
            .into_iter()
            .filter(|&(_, rejects, runs)| runs > 0 && rejects == 0)
            .map(|(name, _, _)| name)
            .collect()
    }
}

/// Run the campaign: the three-phase mix cycle, then the
/// handshake-overhead probe.
#[must_use]
pub fn run_identity(cfg: &IdentityConfig) -> IdentityOutcome {
    let campaign = run_campaign(&cfg.campaign);
    let mesh = &cfg.campaign.mesh;
    let overhead = measure_handshake_overhead(mesh.n, cfg.handshake_trials, mesh.seed);
    IdentityOutcome { campaign, overhead }
}

fn run(args: &Args) -> Report {
    let mut cfg = IdentityConfig::profile(args.smoke, args.seed);
    cfg.campaign.runs = args.runs.unwrap_or(cfg.campaign.runs);
    let mesh = &cfg.campaign.mesh;
    println!(
        "{}-node authenticated loopback TCP mesh, f = {} compromised nodes per run cycling {} \
         attack mix(es) ({} identity forgery families), {} instance(s) × {} VA rounds, {} \
         seeded runs",
        mesh.n,
        mesh.f,
        cfg.campaign.attacks.len(),
        mixes(is_identity_mix).len(),
        mesh.instances,
        mesh.rounds,
        cfg.campaign.runs
    );
    report(&cfg, &run_identity(&cfg))
}

/// E20's shared report plus what only E23 measures: the silent-mix check
/// and the handshake overhead.
fn report(cfg: &IdentityConfig, out: &IdentityOutcome) -> Report {
    let mut report = byzantine::report(&cfg.campaign, &out.campaign, |_, _| {});
    let (overhead, silent) = (&out.overhead, out.silent_identity_mixes());
    report.notes.push(format!(
        "handshake overhead ({} trials, n = {}): {} ms per authenticated mesh (budget \
         {HANDSHAKE_BUDGET_MS} ms)",
        overhead.trials,
        overhead.n,
        fnum(overhead.auth_ms),
    ));
    let mut payload = fields(report.payload);
    payload.extend(fields(json!({
        "silent_identity_mixes": silent.clone(),
        "handshake_overhead": json!({
            "trials": overhead.trials,
            "mesh_n": overhead.n,
            "auth_ms": overhead.auth_ms,
            "budget_ms": HANDSHAKE_BUDGET_MS,
            "bounded": overhead.bounded(),
        }),
    })));
    report.payload = Value::Object(payload);
    report.gates.push(gate(
        silent.is_empty(),
        format!("identity mix(es) whose forgeries were never refused: {}", silent.join(", ")),
    ));
    report.gates.push(gate(
        overhead.bounded(),
        format!(
            "authenticated mesh construction took {:.1} ms (budget {HANDSHAKE_BUDGET_MS} ms)",
            overhead.auth_ms
        ),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One run per identity mix, tiny instances: every forgery family is
    /// refused with rejects attributed, honest decisions stay bit-identical
    /// to the oracle, the overhead probe returns sane numbers, and the
    /// report has the committed artefact's keys.
    #[test]
    fn micro_identity_campaign_refuses_every_forgery_family() {
        let mut cfg = IdentityConfig::profile(true, 0xE23_0001);
        cfg.campaign.client_requests = 0;
        cfg.handshake_trials = 1;
        let out = run_identity(&cfg);
        let report = report(&cfg, &out);
        assert!(report.gates.iter().all(|g| g.ok), "campaign not clean: {:?}", report.gates);
        let identity_mixes = mixes(is_identity_mix).len();
        assert_eq!(out.identity_rows().len(), identity_mixes, "every mix must report");
        assert!(
            out.silent_identity_mixes().is_empty(),
            "identity mixes with zero auth rejects: {:?} (rows: {:?})",
            out.silent_identity_mixes(),
            out.identity_rows(),
        );
        assert!(out.overhead.auth_ms > 0.0);
        crate::campaign::assert_keys_match_committed(
            &SCENARIO,
            report.payload,
            include_str!("../../../../BENCH_identity.json"),
        );
    }
}
