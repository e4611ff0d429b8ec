//! E20 — live Byzantine adversaries over real TCP: the paper's universally
//! quantified "survives f Byzantine nodes" claim, tested end to end through
//! the wire codec, keyed link handshakes, receive gates, and reconnection
//! machinery instead of only inside the simulator.
//!
//! Each seeded run stands up an `n = 7` authenticated loopback TCP mesh,
//! samples `f = 2` malicious nodes, and wraps every endpoint in a
//! [`ByzantineEndpoint`] — honest nodes under the passthrough policy,
//! malicious ones under one of the attack registry's mixes (the runs cycle
//! through all of them). Three phases per run:
//!
//! 1. **in-proc baseline** — the `n - f` honest nodes alone over the
//!    in-process transport: the decision oracle;
//! 2. **clean TCP reference** — the same honest nodes over TCP with the
//!    Byzantine slots idle: the honest-path timing reference;
//! 3. **attack run** — all `n` nodes over TCP, the `f` malicious ones
//!    actively equivocating / lying / muting / spraying / replaying /
//!    forging handshakes.
//!
//! The baseline and reference run honest nodes *only* because that is the
//! oracle the attack run must match: every registry mix equivocates or
//! mutes the adversary's own states (see `rbvc_transport::byzantine`), so
//! Byzantine-origin states never reach Bracha delivery at honest nodes and
//! honest progress is a pure function of the honest inputs. The online
//! monitor checks agreement + `(δ,2)`-relaxed validity over the honest
//! inputs during both TCP phases, and the campaign asserts the attack-run
//! decisions are **bit-identical** to the baseline. The honest-path slowdown (wall
//! clock, p50/p99 submit→decide latency) and the per-gate × per-sender
//! rejection attribution land in `BENCH_byzantine.json`.
//!
//! Five rows forge link identity: a replayed handshake, an honest node's id
//! under the attacker's own key, a reflected nonce, a flipped MAC bit, and
//! the retired plaintext HELLO. The attacker holds only its *own* pairwise
//! keys, never the mesh seed, so each of these mixes must show handshake
//! refusals (`auth_rejects > 0`) counted by the mesh's own endpoints. A last
//! probe times the construction of an authenticated mesh against
//! [`HANDSHAKE_BUDGET_MS`].

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use rand::Rng;
use rbvc_client::ClientHandle;
use rbvc_core::Monitor;
use rbvc_linalg::VecD;
use rbvc_transport::byzantine::{
    AttackPolicy, AttackRegistry, AttackStats, ByzantineEndpoint, Counter, Mix,
};
use rbvc_transport::service::{ClientConfig, ConsensusService, CLIENT_INSTANCE_BASE};
use rbvc_transport::{tcp_mesh_loopback_authenticated, ClientPort};
use serde_json::{json, Value};

use crate::campaign::{
    gate, mesh_seed, percentile, reply_error, sweep, Args, Fields, Gate,
    MeshProfile, Proto, Report, Scenario, AGREEMENT_EPS,
};
use crate::report::fnum;
use crate::workloads::rng;

/// The E20 scenario entry.
pub const SCENARIO: Scenario = Scenario {
    name: "byzantine",
    id: "E20",
    title: "Byzantine adversaries on the wire",
    flags: &["--runs N", "--metrics ADDR"],
    // The per-attack slowdown gauges are set when the campaign aggregates,
    // so it is the scraper's last pass (after the run) that sees them.
    // `auth.reject_total` moves with the first refused forgery;
    // `auth.established` is counted at every verified handshake.
    metrics_probe: &["# TYPE", "exp_byzantine_slowdown", "auth_reject", "auth_established"],
    run,
};

/// Absolute budget for standing up one 7-node authenticated mesh, ms.
/// Loopback handshakes cost tens of microseconds; the budget is three
/// orders of magnitude of slack for a loaded CI box, while still catching
/// a handshake that spins or serializes the whole mesh.
pub const HANDSHAKE_BUDGET_MS: f64 = 2_000.0;

/// Campaign configuration.
#[derive(Clone)]
pub struct ByzantineConfig {
    /// Mesh shape: the paper regime `n > 3f` with room to spare (7 > 6),
    /// `f` Byzantine nodes per run, VA instances.
    pub mesh: MeshProfile,
    /// Seeded runs (each picks its own Byzantine set and attack mix).
    pub runs: usize,
    /// Sweep budget per mesh phase before the run is declared stuck.
    pub max_sweeps: usize,
    /// Honest-client submits per TCP phase (session owned by an honest
    /// node, driven through a real `ClientPort` while the attack's
    /// "client-spray" volleys hammer the same ports). `0` disables the
    /// client plane entirely.
    pub client_requests: usize,
    /// Mesh-auth seed: both TCP phases run keyed challenge–response
    /// handshakes with pairwise PSKs derived from it, and each Byzantine
    /// endpoint gets its own keyring so the raw wire attacks speak the
    /// authenticated protocol.
    pub auth: [u8; 32],
    /// The attack mixes this campaign cycles through (`run % len` picks).
    pub attacks: Vec<&'static str>,
    /// Mesh constructions timed by the handshake probe.
    pub handshake_trials: usize,
}

/// Whether `mix` is named for a handshake forgery the responder must
/// refuse — its runs must show `auth_rejects > 0`. The redial storm is a
/// genuine handshake, so it is not one of them.
fn refused(mix: &Mix) -> bool {
    matches!(
        mix.counter,
        Counter::HelloReplays
            | Counter::Impersonations
            | Counter::NonceReflects
            | Counter::MacFlips
            | Counter::Downgrades
    )
}

impl ByzantineConfig {
    /// The full profile (the whole registry cycled four times: 56 runs, two
    /// instances) or the CI profile — still 7 nodes and `f = 2` (shrinking
    /// the mesh would change the Byzantine regime, which is the whole
    /// point), but one instance, fewer rounds, and one run per mix so CI
    /// exercises every attack.
    #[must_use]
    pub fn profile(smoke: bool, seed: u64) -> Self {
        let attacks: Vec<&'static str> = AttackRegistry::MIXES.iter().map(|m| m.name).collect();
        let (instances, rounds, passes, client_requests, handshake_trials) =
            if smoke { (1, 2, 1, 2, 2) } else { (2, 3, 4, 3, 5) };
        let poll_timeout = Duration::from_millis(1);
        ByzantineConfig {
            mesh: MeshProfile { n: 7, f: 2, d: 2, instances, rounds, seed, poll_timeout },
            runs: attacks.len() * passes,
            max_sweeps: 40_000,
            client_requests,
            auth: mesh_seed(seed),
            attacks,
            handshake_trials,
        }
    }
}

/// Per-attack aggregation across the campaign's runs. Latency samples are
/// ms, sorted ascending once the campaign is done.
#[derive(Debug, Clone, Default)]
pub struct AttackReport {
    /// Registry name of the mix.
    pub attack: &'static str,
    /// Runs that cycled onto this mix.
    pub runs: usize,
    /// Honest wall-clock seconds, summed over this mix's clean references.
    pub clean_secs: f64,
    /// Honest wall-clock seconds, summed over this mix's attack runs.
    pub attack_secs: f64,
    /// Honest submit→decide latencies, clean references.
    pub clean_ms: Vec<f64>,
    /// Honest submit→decide latencies under attack.
    pub attack_ms: Vec<f64>,
    /// Honest-client submit→reply latencies, clean references.
    pub client_clean_ms: Vec<f64>,
    /// Honest-client submit→reply latencies under attack.
    pub client_attack_ms: Vec<f64>,
    /// Gate rejections at honest nodes attributed to Byzantine senders,
    /// `[decode, auth, instance, kind]`.
    pub gates_from_byz: [u64; 4],
    /// Gate rejections attributed to honest senders (must stay 0 — honest
    /// traffic never trips a gate).
    pub gates_from_honest: [u64; 4],
    /// What the attackers did (summed endpoint stats).
    pub stats: AttackStats,
    /// Forged / replayed / downgraded handshakes refused by the keyed
    /// link-identity layer during the attack runs.
    pub auth_rejects: u64,
    /// Client-port frame rejections during the attack runs (crafted spray
    /// frames counted at the port before they can touch the client table).
    pub client_rejects: u64,
    /// Client-table redirects during the attack runs (the sprays' valid
    /// probe submits carry foreign sessions, so they draw `Redirect`
    /// instead of admission).
    pub client_redirects: u64,
}

impl AttackReport {
    /// Honest-path slowdown: attack wall over clean wall (1.0 = free).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.clean_secs > 0.0 {
            self.attack_secs / self.clean_secs
        } else {
            f64::NAN
        }
    }
}

/// Campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct ByzantineOutcome {
    /// Runs executed.
    pub runs: usize,
    /// Runs whose three phases all converged.
    pub converged_runs: usize,
    /// Runs whose attack-run honest decisions matched the in-proc baseline
    /// bit for bit (and the clean TCP reference too).
    pub identical_runs: usize,
    /// Online safety-monitor violations across every phase (must be 0).
    pub monitor_violations: usize,
    /// Gate rejections attributed to honest senders across the campaign
    /// (must be 0).
    pub honest_attributed_rejections: u64,
    /// Client-port rejections during the *clean* references (must be 0 —
    /// the honest client never sends a malformed frame, so any clean-phase
    /// reject would be a misattribution).
    pub client_honest_rejections: u64,
    /// Honest-client replies whose decision strayed from the submitted
    /// value by more than the agreement tolerance (must be 0).
    pub client_reply_errors: u64,
    /// Handshake rejections during the *clean* references (must be 0 —
    /// every clean-phase handshake is genuine, so any reject there would
    /// mean the auth layer is refusing honest identity).
    pub clean_auth_rejects: u64,
    /// Per-attack aggregation, in registry order.
    pub reports: Vec<AttackReport>,
    /// Mean wall clock to stand up an authenticated mesh of the campaign's
    /// size, ms.
    pub handshake_ms: f64,
    /// Campaign wall clock, seconds.
    pub wall_secs: f64,
}

impl ByzantineOutcome {
    /// The pass criteria beside a silent monitor: everything converged,
    /// every honest decision matched the oracle, every gate rejection
    /// attributed to an attacker, and the client and identity planes clean
    /// — no clean-phase port or handshake reject, no wrong client reply.
    #[must_use]
    pub fn gates(&self) -> Vec<Gate> {
        let runs = self.runs;
        vec![
            gate(
                self.converged_runs == runs,
                format!(
                    "{}/{runs} runs did not converge within the sweep budget",
                    runs - self.converged_runs
                ),
            ),
            gate(
                self.identical_runs == runs,
                format!(
                    "{}/{runs} runs diverged from the honest in-proc baseline",
                    runs - self.identical_runs
                ),
            ),
            gate(
                self.honest_attributed_rejections == 0,
                format!(
                    "{} gate rejection(s) attributed to honest senders",
                    self.honest_attributed_rejections
                ),
            ),
            gate(
                self.client_honest_rejections == 0,
                format!(
                    "{} client-port rejection(s) during clean references (honest traffic)",
                    self.client_honest_rejections
                ),
            ),
            gate(
                self.client_reply_errors == 0,
                format!(
                    "{} honest-client repl(ies) were wrong or timed out",
                    self.client_reply_errors
                ),
            ),
            gate(
                self.clean_auth_rejects == 0,
                format!(
                    "{} handshake rejection(s) during clean references (honest links)",
                    self.clean_auth_rejects
                ),
            ),
        ]
    }
}

/// One TCP mesh phase's measurements.
#[derive(Default)]
struct MeshRun {
    converged: bool,
    wall_secs: f64,
    latencies_ms: Vec<f64>,
    decisions: Vec<BTreeMap<u64, VecD>>,
    gates_by_sender: Vec<[u64; 4]>,
    stats: AttackStats,
    client_latencies_ms: Vec<f64>,
    client_rejects: u64,
    client_redirects: u64,
    client_reply_errors: u64,
    /// Handshakes refused by this mesh's listeners.
    auth_rejects: u64,
}

/// One run's raw facts.
struct RunFacts {
    attack: &'static str,
    converged: bool,
    identical: bool,
    violations: usize,
    clean: MeshRun,
    attacked: MeshRun,
    gates_from_byz: [u64; 4],
    gates_from_honest: [u64; 4],
}

/// One TCP mesh phase. `attack`: `Some(mix)` starts the Byzantine nodes'
/// services behind attacking endpoints; `None` is the clean reference —
/// the Byzantine slots stay idle so the honest trajectory matches the
/// baseline exactly.
fn run_tcp_mesh(
    cfg: &ByzantineConfig,
    inputs: &[Vec<VecD>],
    byz: &[usize],
    attack: Option<&str>,
    run_seed: u64,
    monitor: &mut Monitor,
) -> MeshRun {
    let mesh = &cfg.mesh;
    let (endpoints, addrs) = mesh.tcp_mesh(&cfg.auth);
    // One client port per node: the external submit plane. The attack
    // registry's "client-spray" mix targets these addresses, and an honest
    // client drives real submits through them during both TCP phases.
    let ports: Vec<ClientPort> = (0..mesh.n)
        .map(|_| {
            ClientPort::bind("127.0.0.1:0".parse().expect("loopback addr"))
                .expect("bind client port")
        })
        .collect();
    let client_addrs: Vec<SocketAddr> = ports.iter().map(ClientPort::local_addr).collect();
    let active = |i: usize| attack.is_some() || !byz.contains(&i);
    let mut nodes: Vec<_> = endpoints
        .into_iter()
        .zip(ports)
        .enumerate()
        .map(|(i, (ep, port))| {
            let is_byz = byz.contains(&i);
            let policy = match (is_byz, attack) {
                (true, Some(mix)) => AttackRegistry::policy(
                    mix,
                    run_seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ),
                _ => AttackPolicy::honest(),
            };
            let mut wrapped = ByzantineEndpoint::new(ep, policy)
                .with_wire_targets(&addrs)
                .with_client_targets(&client_addrs);
            if is_byz {
                // The compromise model: the attacker knows its own pairwise
                // keys (it is a mesh member) and nothing else — never the
                // seed, never a key between two honest nodes.
                let keyring: Vec<[u8; 32]> = (0..mesh.n)
                    .map(|p| rbvc_transport::derive_pair_key(&cfg.auth, i, p))
                    .collect();
                wrapped = wrapped.with_identity_keys(keyring);
            }
            let mut svc = ConsensusService::new(wrapped);
            svc.enable_auth();
            // Client instances must tolerate the run's f (in the clean
            // reference the Byzantine slots are idle, i.e. crashed).
            svc.enable_client(ClientConfig {
                f: mesh.f,
                rounds: mesh.rounds,
                ..ClientConfig::default()
            });
            mesh.register(&mut svc, i, inputs, |_| Proto::Va { f: mesh.f });
            if active(i) {
                svc.start().expect("start service");
            }
            (svc, port)
        })
        .collect();

    // The honest client: a session owned by an honest node, submitted
    // through the real client port while the mesh (and, in the attack
    // phase, the sprays) run. Latency is measured where it matters — at
    // the client — and every reply is checked against the submitted value.
    let client_done = AtomicBool::new(false);
    let owner = (0..mesh.n).find(|i| !byz.contains(i)).expect("an honest node exists");
    let client = || {
        let mut handle = ClientHandle::new(owner as u64, client_addrs.clone());
        let mut latencies = Vec::with_capacity(cfg.client_requests);
        let mut errors = 0u64;
        for k in 0..cfg.client_requests {
            let value = VecD((0..mesh.d).map(|j| (k * mesh.d + j) as f64 / 4.0 - 1.0).collect());
            let t0 = Instant::now();
            match handle.submit(&value) {
                Ok(reply) if reply_error(&reply, &value) <= 1e-6 => {
                    latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                _ => errors += 1,
            }
        }
        client_done.store(true, Ordering::SeqCst);
        (latencies, errors)
    };

    // Single-thread round-robin sweep: deterministic scheduling, and the
    // Byzantine services get polled (driving their injections) without a
    // thread ever spinning on a node that may never decide. Termination is
    // *honest* convergence only — protocol instances plus the client's.
    let start = Instant::now();
    let mut run = MeshRun::default();
    let ((client_latencies_ms, client_reply_errors), converged) = thread::scope(|scope| {
        let client = scope.spawn(client);
        let converged = sweep(&mut nodes, cfg.max_sweeps, |_, i, (svc, port)| {
            if !active(i) {
                return true;
            }
            let is_byz = byz.contains(&i);
            for ev in svc.poll(mesh.poll_timeout) {
                // Client instances have their own oracle (the reply check
                // at the client); the per-instance safety envelope indexes
                // the campaign's seeded inputs.
                if !is_byz && ev.instance < CLIENT_INSTANCE_BASE {
                    monitor.observe(ev.instance, i, &ev.value);
                    run.latencies_ms.push(ev.latency.as_secs_f64() * 1e3);
                }
            }
            is_byz || {
                port.pump(svc);
                svc.all_decided() && client_done.load(Ordering::SeqCst)
            }
        });
        (client.join().expect("client thread"), converged)
    });
    run.converged = converged;
    run.wall_secs = start.elapsed().as_secs_f64();
    run.client_latencies_ms = client_latencies_ms;
    run.client_reply_errors = client_reply_errors;

    run.gates_by_sender = vec![[0u64; 4]; mesh.n];
    for (i, (svc, port)) in nodes.iter().enumerate() {
        run.auth_rejects += svc.transport().auth_rejects();
        if byz.contains(&i) {
            run.stats += svc.transport().stats();
            run.decisions.push(BTreeMap::new());
            continue;
        }
        run.client_rejects += port.rejects();
        run.client_redirects += svc.client_stats().redirects;
        for (sender, per_gate) in svc.gate_rejections_by_sender().iter().enumerate() {
            add_gates(&mut run.gates_by_sender[sender], per_gate);
        }
        run.decisions.push(mesh.decisions(svc));
    }
    run
}

/// Accumulate per-gate rejection counts `[decode, auth, instance, kind]`.
fn add_gates(into: &mut [u64; 4], from: &[u64; 4]) {
    for (sum, count) in into.iter_mut().zip(from) {
        *sum += count;
    }
}

/// One seeded run: baseline, clean reference, attack — then the verdicts.
fn one_run(cfg: &ByzantineConfig, run: usize) -> RunFacts {
    let mesh = &cfg.mesh;
    let run_seed = mesh.run_seed(run);
    let mut rand = rng(run_seed);
    let attack = cfg.attacks[run % cfg.attacks.len()];
    let inputs = mesh.inputs(&mut rand);

    // Sample the f Byzantine nodes.
    let mut byz: Vec<usize> = Vec::new();
    while byz.len() < mesh.f {
        let c = rand.gen_range(0..mesh.n);
        if !byz.contains(&c) {
            byz.push(c);
        }
    }
    byz.sort_unstable();

    // Safety envelope over the *honest* inputs only.
    let honest_inputs: Vec<Vec<VecD>> = inputs
        .iter()
        .map(|per_node| {
            (0..mesh.n).filter(|i| !byz.contains(i)).map(|i| per_node[i].clone()).collect()
        })
        .collect();
    let proto = |_| Proto::Va { f: mesh.f };
    let mk_monitor = || mesh.monitor(proto, AGREEMENT_EPS, Some(&honest_inputs));

    let baseline = mesh.baseline(Proto::Va { f: mesh.f }, &inputs, &byz, cfg.max_sweeps);
    let mut clean_monitor = mk_monitor();
    let clean = run_tcp_mesh(cfg, &inputs, &byz, None, run_seed, &mut clean_monitor);
    let mut attack_monitor = mk_monitor();
    let attacked = run_tcp_mesh(cfg, &inputs, &byz, Some(attack), run_seed, &mut attack_monitor);

    let converged = baseline.is_some() && clean.converged && attacked.converged;
    let identical = converged
        && baseline.is_some_and(|oracle| clean.decisions == oracle && attacked.decisions == oracle);

    let mut gates_from_byz = [0u64; 4];
    // The clean reference must not reject anything at all.
    let mut gates_from_honest = [0u64; 4];
    for per_gate in &clean.gates_by_sender {
        add_gates(&mut gates_from_honest, per_gate);
    }
    for (sender, per_gate) in attacked.gates_by_sender.iter().enumerate() {
        let bucket =
            if byz.contains(&sender) { &mut gates_from_byz } else { &mut gates_from_honest };
        add_gates(bucket, per_gate);
    }

    RunFacts {
        attack,
        converged,
        identical,
        violations: clean_monitor.alerts().len() + attack_monitor.alerts().len(),
        clean,
        attacked,
        gates_from_byz,
        gates_from_honest,
    }
}

/// Mean wall clock to stand up an `n`-node authenticated loopback mesh, ms.
/// The clock stops before the mesh is dropped: endpoint teardown is not
/// construction.
fn mesh_construction_ms(n: usize, trials: usize, seed: u64) -> f64 {
    let auth_seed = mesh_seed(seed ^ 0x4853); // "HS"
    let trials = trials.max(1);
    let mut total_ms = 0.0;
    for _ in 0..trials {
        let t = Instant::now();
        let mesh = tcp_mesh_loopback_authenticated(n, &auth_seed).expect("authenticated mesh");
        total_ms += t.elapsed().as_secs_f64() * 1e3;
        drop(mesh);
    }
    total_ms / trials as f64
}

/// Run the campaign and publish the per-attack honest-path slowdown into
/// the global metrics registry
/// (`exp.byzantine.slowdown_permille{attack=...}` plus per-attack gate
/// rejection counters) so a live `/metrics` endpoint can surface it.
#[must_use]
pub fn run_campaign(cfg: &ByzantineConfig) -> ByzantineOutcome {
    let started = Instant::now();
    let mut by_attack: BTreeMap<&'static str, AttackReport> = BTreeMap::new();
    let mut out = ByzantineOutcome { runs: cfg.runs, ..ByzantineOutcome::default() };

    for run in 0..cfg.runs {
        let facts = one_run(cfg, run);
        out.converged_runs += usize::from(facts.converged);
        out.identical_runs += usize::from(facts.identical);
        out.monitor_violations += facts.violations;
        out.honest_attributed_rejections += facts.gates_from_honest.iter().sum::<u64>();
        out.client_honest_rejections += facts.clean.client_rejects;
        out.client_reply_errors +=
            facts.clean.client_reply_errors + facts.attacked.client_reply_errors;
        out.clean_auth_rejects += facts.clean.auth_rejects;
        if !facts.converged || !facts.identical || facts.violations > 0 {
            eprintln!(
                "run {run} [{}]: converged={} identical={} violations={}",
                facts.attack, facts.converged, facts.identical, facts.violations
            );
        }
        let acc = by_attack.entry(facts.attack).or_default();
        acc.attack = facts.attack;
        acc.runs += 1;
        acc.clean_secs += facts.clean.wall_secs;
        acc.attack_secs += facts.attacked.wall_secs;
        acc.clean_ms.extend(facts.clean.latencies_ms);
        acc.attack_ms.extend(facts.attacked.latencies_ms);
        acc.client_clean_ms.extend(facts.clean.client_latencies_ms);
        acc.client_attack_ms.extend(facts.attacked.client_latencies_ms);
        add_gates(&mut acc.gates_from_byz, &facts.gates_from_byz);
        add_gates(&mut acc.gates_from_honest, &facts.gates_from_honest);
        acc.stats += facts.attacked.stats;
        acc.auth_rejects += facts.attacked.auth_rejects;
        acc.client_rejects += facts.attacked.client_rejects;
        acc.client_redirects += facts.attacked.client_redirects;
    }

    for mix in &AttackRegistry::MIXES {
        let Some(mut report) = by_attack.remove(mix.name) else {
            continue;
        };
        for sample in [
            &mut report.clean_ms,
            &mut report.attack_ms,
            &mut report.client_clean_ms,
            &mut report.client_attack_ms,
        ] {
            sample.sort_by(f64::total_cmp);
        }
        publish_metrics(&report);
        out.reports.push(report);
    }
    out.handshake_ms = mesh_construction_ms(cfg.mesh.n, cfg.handshake_trials, cfg.mesh.seed);
    out.wall_secs = started.elapsed().as_secs_f64();
    out
}

/// Publish one attack's aggregates into the global registry for the live
/// `/metrics` endpoint.
fn publish_metrics(report: &AttackReport) {
    let reg = rbvc_obs::Registry::global();
    let labels = [("attack", report.attack)];
    if report.slowdown().is_finite() {
        reg.gauge_with("exp.byzantine.slowdown_permille", &labels)
            .set((report.slowdown() * 1000.0) as i64);
    }
    reg.gauge_with("exp.byzantine.attack_p99_us", &labels)
        .set((percentile(&report.attack_ms, 99.0) * 1000.0) as i64);
    for (origin, gates) in
        [("byzantine", report.gates_from_byz), ("honest", report.gates_from_honest)]
    {
        reg.counter_with("exp.byzantine.gate_rejects", &[labels[0], ("origin", origin)])
            .add(gates.iter().sum());
    }
    reg.counter_with("exp.byzantine.client_rejects", &labels).add(report.client_rejects);
    reg.counter_with("exp.byzantine.client_redirects", &labels).add(report.client_redirects);
}

fn run(args: &Args) -> Report {
    let mut cfg = ByzantineConfig::profile(args.smoke, args.seed);
    cfg.runs = args.runs.unwrap_or(cfg.runs);
    println!(
        "{}-node authenticated loopback TCP mesh, f = {} malicious nodes per run cycling {} \
         attack mix(es) ({} handshake forgeries), {} instance(s) × {} VA rounds, {} seeded runs",
        cfg.mesh.n,
        cfg.mesh.f,
        cfg.attacks.len(),
        AttackRegistry::MIXES.iter().filter(|m| refused(m)).count(),
        cfg.mesh.instances,
        cfg.mesh.rounds,
        cfg.runs
    );
    report(&cfg, &run_campaign(&cfg))
}

fn p50_p99(sorted: &[f64]) -> Value {
    json!({ "p50": percentile(sorted, 50.0), "p99": percentile(sorted, 99.0) })
}

fn gate_counts(g: &[u64; 4]) -> Value {
    json!({ "decode": g[0], "auth": g[1], "instance": g[2], "kind": g[3] })
}

/// The table, payload and gates: one row and one `attacks[]` entry per mix,
/// whose `attacker_activity` is one loop over the registry's counters.
fn report(cfg: &ByzantineConfig, out: &ByzantineOutcome) -> Report {
    let names = |keep: fn(&AttackReport, &Mix) -> bool| -> Vec<&str> {
        out.reports
            .iter()
            .filter(|r| AttackRegistry::mix(r.attack).is_some_and(|m| keep(r, m)))
            .map(|r| r.attack)
            .collect()
    };
    // A mix that never did what it is named for would pass every other gate
    // trivially; a forgery that was never refused never reached the
    // handshake check.
    let idle = names(|r, m| r.stats[m.counter] == 0);
    let unrefused = names(|r, m| refused(m) && r.auth_rejects == 0);
    let mut gates = out.gates();
    gates.push(gate(
        idle.is_empty(),
        format!("mix(es) whose own activity counter stayed zero: {}", idle.join(", ")),
    ));
    gates.push(gate(
        unrefused.is_empty(),
        format!("forgery mix(es) whose handshakes were never refused: {}", unrefused.join(", ")),
    ));
    gates.push(gate(
        out.handshake_ms < HANDSHAKE_BUDGET_MS,
        format!(
            "authenticated mesh construction took {:.1} ms (budget {HANDSHAKE_BUDGET_MS} ms)",
            out.handshake_ms
        ),
    ));
    let attacks: Vec<Value> = out
        .reports
        .iter()
        .map(|r| {
            let activity: Fields = Counter::ALL
                .into_iter()
                .map(|(c, key)| (key.to_string(), json!(r.stats[c])))
                .collect();
            json!({
                "attack": r.attack,
                "runs": r.runs,
                "honest_wall_secs": json!({ "clean": r.clean_secs, "attack": r.attack_secs }),
                "slowdown": r.slowdown(),
                "latency_ms": json!({
                    "clean": p50_p99(&r.clean_ms),
                    "attack": p50_p99(&r.attack_ms),
                }),
                "gate_rejections": json!({
                    "from_byzantine": gate_counts(&r.gates_from_byz),
                    "from_honest": gate_counts(&r.gates_from_honest),
                }),
                "auth_rejects": r.auth_rejects,
                "client_plane": json!({
                    "latency_ms": json!({
                        "clean": p50_p99(&r.client_clean_ms),
                        "attack": p50_p99(&r.client_attack_ms),
                    }),
                    "port_rejects": r.client_rejects,
                    "table_redirects": r.client_redirects,
                }),
                "attacker_activity": Value::Object(activity),
            })
        })
        .collect();
    Report {
        headers: vec![
            "attack", "runs", "slowdown", "clean p50 ms", "atk p50 ms", "clean p99 ms",
            "atk p99 ms", "auth rej", "rej (byz)", "rej (honest)", "cli p50 ms",
            "cli rej+redir",
        ],
        rows: out
            .reports
            .iter()
            .map(|r| {
                vec![
                    r.attack.to_string(),
                    r.runs.to_string(),
                    fnum(r.slowdown()),
                    fnum(percentile(&r.clean_ms, 50.0)),
                    fnum(percentile(&r.attack_ms, 50.0)),
                    fnum(percentile(&r.clean_ms, 99.0)),
                    fnum(percentile(&r.attack_ms, 99.0)),
                    r.auth_rejects.to_string(),
                    r.gates_from_byz.iter().sum::<u64>().to_string(),
                    r.gates_from_honest.iter().sum::<u64>().to_string(),
                    fnum(percentile(&r.client_attack_ms, 50.0)),
                    (r.client_rejects + r.client_redirects).to_string(),
                ]
            })
            .collect(),
        notes: vec![
            format!(
                "{}/{} runs converged, {}/{} bit-identical to the in-proc baseline, {} monitor \
                 violation(s), {} honest-attributed rejection(s), {} clean-phase handshake \
                 reject(s), {:.1}s wall",
                out.converged_runs,
                out.runs,
                out.identical_runs,
                out.runs,
                out.monitor_violations,
                out.honest_attributed_rejections,
                out.clean_auth_rejects,
                out.wall_secs
            ),
            format!(
                "handshake overhead ({} trials, n = {}): {} ms per authenticated mesh (budget \
                 {HANDSHAKE_BUDGET_MS} ms)",
                cfg.handshake_trials,
                cfg.mesh.n,
                fnum(out.handshake_ms),
            ),
        ],
        payload: json!({
            "n": cfg.mesh.n,
            "f": cfg.mesh.f,
            "dimension": cfg.mesh.d,
            "instances": cfg.mesh.instances,
            "va_rounds": cfg.mesh.rounds,
            "runs": out.runs,
            "converged_runs": out.converged_runs,
            "identical_runs": out.identical_runs,
            "honest_attributed_rejections": out.honest_attributed_rejections,
            "client_honest_rejections": out.client_honest_rejections,
            "client_reply_errors": out.client_reply_errors,
            "clean_auth_rejects": out.clean_auth_rejects,
            "handshake_overhead": json!({
                "trials": cfg.handshake_trials,
                "mesh_n": cfg.mesh.n,
                "auth_ms": out.handshake_ms,
                "budget_ms": HANDSHAKE_BUDGET_MS,
            }),
            "wall_secs": out.wall_secs,
            "attacks": attacks,
        }),
        gates,
    }
    .with_monitor(out.monitor_violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-run micro-campaign (equivocate + lying-witness) through the
    /// full three-phase machinery: zero violations, bit-identical honest
    /// decisions, every rejection attributed to an attacker, and the
    /// committed artefact's keys.
    #[test]
    fn micro_campaign_is_clean_and_attributes_rejections() {
        let mut cfg = ByzantineConfig::profile(true, 42);
        cfg.runs = 2;
        cfg.handshake_trials = 1;
        let out = run_campaign(&cfg);
        assert_eq!(out.converged_runs, 2, "both runs must converge");
        assert_eq!(out.identical_runs, 2, "honest decisions must match the oracle");
        assert_eq!(out.monitor_violations, 0);
        assert_eq!(out.honest_attributed_rejections, 0);
        assert_eq!(out.reports.len(), 2);
        for r in &out.reports {
            let edits = r.stats[Counter::FramesMutated] + r.stats[Counter::FramesDropped];
            assert!(edits > 0, "{} attacked", r.attack);
            // The honest client was served in both phases of both runs.
            assert!(!r.client_clean_ms.is_empty() && !r.client_attack_ms.is_empty());
        }
        let report = report(&cfg, &out);
        assert!(report.gates.iter().all(|g| g.ok), "{:?}", report.gates);
        crate::campaign::assert_keys_match_committed(
            &SCENARIO,
            report.payload,
            include_str!("../../../../BENCH_byzantine.json"),
        );
    }

    /// One run per forgery mix, tiny instances: every forgery is refused
    /// with the refusals counted by this mesh's own endpoints, honest
    /// decisions stay bit-identical to the oracle, and the handshake probe
    /// returns a sane number.
    #[test]
    fn micro_forgery_campaign_refuses_every_forgery() {
        let mut cfg = ByzantineConfig::profile(true, 0xF0_0001);
        cfg.attacks = AttackRegistry::MIXES.iter().filter(|m| refused(m)).map(|m| m.name).collect();
        cfg.runs = cfg.attacks.len();
        cfg.client_requests = 0;
        cfg.handshake_trials = 1;
        let out = run_campaign(&cfg);
        let report = report(&cfg, &out);
        assert!(report.gates.iter().all(|g| g.ok), "campaign not clean: {:?}", report.gates);
        assert_eq!(out.reports.len(), 5, "every forgery mix must report");
        for r in &out.reports {
            assert!(r.auth_rejects > 0, "{}: no handshake refused", r.attack);
        }
        assert!(out.handshake_ms > 0.0);
    }

    /// The client-spray mix alone: crafted client frames hammer the live
    /// ports, yet the run converges bit-identically, the honest client is
    /// still served (correct replies, finite latency), and the sprays are
    /// accounted — rejected at the port or redirected by the table, never
    /// admitted.
    #[test]
    fn client_spray_run_is_survived_and_every_spray_accounted() {
        let cfg = ByzantineConfig::profile(true, 77);
        let idx = cfg
            .attacks
            .iter()
            .position(|m| *m == "client-spray")
            .expect("client-spray is an E20 mix");
        let facts = one_run(&cfg, idx);
        assert_eq!(facts.attack, "client-spray");
        assert!(facts.converged, "run must converge under client sprays");
        assert!(facts.identical, "honest decisions must match the oracle");
        assert_eq!(facts.violations, 0);
        let (clean, attacked) = (&facts.clean, &facts.attacked);
        assert_eq!(
            clean.client_reply_errors + attacked.client_reply_errors,
            0,
            "honest client got wrong replies"
        );
        assert_eq!(clean.client_rejects, 0, "clean phase must not reject");
        assert!(attacked.stats[Counter::ClientSprays] > 0, "the mix actually sprayed");
        assert!(
            attacked.client_rejects + attacked.client_redirects > 0,
            "sprays must surface as port rejects or table redirects"
        );
        assert!(
            !attacked.client_latencies_ms.is_empty(),
            "honest client must be served while the ports are sprayed"
        );
    }
}
