//! The campaign harness: everything the systems campaigns E17, E18 and
//! E20–E23 share, so each of them is one [`Scenario`] entry.
//!
//! A scenario supplies what is its own — the fault it injects, its
//! per-run verdict, its table, JSON payload and gates (all returned as a
//! [`Report`] from [`Scenario::run`]). The harness owns the rest: the
//! [`MeshProfile`] with its seeded inputs, instance builder, authenticated
//! loopback mesh, in-process baseline oracle and monitor factory; the
//! round-robin [`sweep`] and [`thread_per_node`] drivers; and [`main`],
//! which serves `/metrics` with a mid-run self-scrape, prints
//! the table, writes the enveloped `BENCH_*.json`, holds the endpoint open
//! for `--metrics-wait-scrapes`, and returns the gate list that becomes
//! the exit code. The one argument grammar of the `exp` program
//! ([`parse_args`]) lives here too; the paper experiments
//! ([`crate::experiments::Experiment`]) parse with it and report through
//! the same [`Gate`] list.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
use rbvc_core::{exact_bvc_min_n, Agreement, DecisionRule, Monitor, SyncBvc, Validity};
use rbvc_linalg::{Norm, Tol, VecD};
use rbvc_obs::{scrape_once, MetricsServer, Registry};
use rbvc_transport::service::{ConsensusService, InstanceProto};
use rbvc_transport::transport::{in_proc_mesh, Transport};
use rbvc_transport::{tcp_mesh_loopback_authenticated, Lockstep, TcpEndpoint};
use serde_json::{json, Value};

use crate::experiments::{byzantine, client, health, identity, recovery, service};
use crate::report::{print_table, with_envelope};

/// Every systems campaign, in experiment order (`exp <name>` looks the
/// name up here).
pub const SCENARIOS: [&Scenario; 6] = [
    &service::SCENARIO,
    &recovery::SCENARIO,
    &byzantine::SCENARIO,
    &client::SCENARIO,
    &health::SCENARIO,
    &identity::SCENARIO,
];

/// Agreement tolerance of the online monitors (E18 tightens it to 0).
pub const AGREEMENT_EPS: f64 = 1e-9;

/// The mesh shape and workload seed every campaign is parameterised by.
#[derive(Debug, Clone)]
pub struct MeshProfile {
    /// Mesh size (number of processes / endpoints).
    pub n: usize,
    /// Byzantine faults the instances tolerate (`n ≥ 3f + 1`).
    pub f: usize,
    /// Vector dimension.
    pub d: usize,
    /// Pre-registered instances per run, ids `1..=instances` (0 for E21,
    /// whose instances are created by client submits).
    pub instances: usize,
    /// Averaging rounds per Verified-Averaging instance.
    pub rounds: usize,
    /// Campaign seed; run `r` derives [`MeshProfile::run_seed`].
    pub seed: u64,
    /// Receive-wait per service poll.
    pub poll_timeout: Duration,
}

/// Which protocol an instance slot runs.
#[derive(Debug, Clone, Copy)]
pub enum Proto {
    /// Relaxed Verified Averaging tolerating `f` faults (`f = 0` waits for
    /// all `n` states — the delivery-order-independent regime).
    Va {
        /// Faults tolerated.
        f: usize,
    },
    /// SyncBvc at the profile's `f` under the lockstep synchronizer, which
    /// force-advances a round after `timeout_ticks` polls (`u32::MAX` on an
    /// all-honest mesh: a partial-inbox advance would diverge).
    Bvc {
        /// Lockstep round timeout, one tick per poll.
        timeout_ticks: u32,
    },
}

/// A 32-byte mesh-auth seed derived from a campaign seed.
#[must_use]
pub fn mesh_seed(seed: u64) -> [u8; 32] {
    rbvc_transport::sha256(&seed.to_le_bytes())
}

impl MeshProfile {
    /// The seed of run `run` of a multi-run campaign.
    #[must_use]
    pub fn run_seed(&self, run: usize) -> u64 {
        self.seed.wrapping_add(run as u64 * 7919)
    }

    /// Seeded inputs, `[instance][node]`, uniform in `[-8, 8)^d`.
    pub fn inputs(&self, rand: &mut StdRng) -> Vec<Vec<VecD>> {
        (0..self.instances)
            .map(|_| {
                (0..self.n)
                    .map(|_| VecD((0..self.d).map(|_| rand.gen_range(-8.0..8.0)).collect()))
                    .collect()
            })
            .collect()
    }

    /// Build process `id`'s state machine for one instance.
    #[must_use]
    pub fn instance(&self, proto: Proto, id: usize, input: VecD) -> InstanceProto {
        match proto {
            Proto::Va { f } => InstanceProto::Va(VerifiedAveraging::new(
                id,
                self.n,
                f,
                input,
                DeltaMode::MinDelta(Norm::L2),
                self.rounds,
                Tol::default(),
            )),
            Proto::Bvc { timeout_ticks } => {
                let rule = DecisionRule::MinDeltaPoint(Norm::L2);
                let bvc = SyncBvc::new(id, self.n, self.f, self.d, input, rule, Tol::default());
                InstanceProto::Bvc(
                    Lockstep::new(bvc, self.n, self.f + 1).with_timeout_ticks(timeout_ticks),
                )
            }
        }
    }

    /// Register every instance of `inputs` on `svc` (process `id`), slot
    /// `k` (0-based) running `proto(k)` under instance id `k + 1`.
    pub fn register<T: Transport>(
        &self,
        svc: &mut ConsensusService<T>,
        id: usize,
        inputs: &[Vec<VecD>],
        proto: impl Fn(usize) -> Proto,
    ) {
        for (k, per_node) in inputs.iter().enumerate() {
            svc.add_instance(k as u64 + 1, self.instance(proto(k), id, per_node[id].clone()))
                .expect("unique instance ids");
        }
    }

    /// Stand up the authenticated loopback TCP mesh (pairwise keys derived
    /// from `key`) and return it with its listen addresses, which a
    /// restarted victim rebinds and the wire attacks dial.
    ///
    /// # Panics
    /// If loopback sockets are unavailable or a handshake fails.
    #[must_use]
    pub fn tcp_mesh(&self, key: &[u8; 32]) -> (Vec<TcpEndpoint>, Vec<SocketAddr>) {
        let mesh = tcp_mesh_loopback_authenticated(self.n, key).expect("loopback TCP mesh");
        let addrs = mesh.iter().map(TcpEndpoint::listen_addr).collect();
        (mesh, addrs)
    }

    /// The decision oracle: the same instances over the in-process
    /// transport with every node honest. `silent` slots hold an endpoint
    /// (so sends to them succeed) but run no service. Returns per-node
    /// decisions, or `None` if the mesh is stuck after `max_sweeps`.
    #[must_use]
    pub fn baseline(
        &self,
        proto: Proto,
        inputs: &[Vec<VecD>],
        silent: &[usize],
        max_sweeps: usize,
    ) -> Option<Vec<BTreeMap<u64, VecD>>> {
        let mut nodes: Vec<_> = in_proc_mesh(self.n)
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                let mut svc = ConsensusService::new(ep);
                if !silent.contains(&i) {
                    self.register(&mut svc, i, inputs, |_| proto);
                    svc.start().expect("start baseline service");
                }
                svc
            })
            .collect();
        sweep(&mut nodes, max_sweeps, |_, i, svc| {
            silent.contains(&i) || {
                let _ = svc.poll(self.poll_timeout);
                svc.all_decided()
            }
        })
        .then(|| nodes.iter().map(|svc| self.decisions(svc)).collect())
    }

    /// `svc`'s decisions on the pre-registered instances, by instance id.
    pub fn decisions<T: Transport>(&self, svc: &ConsensusService<T>) -> BTreeMap<u64, VecD> {
        (1..=self.instances as u64).filter_map(|k| svc.decision(k).map(|v| (k, v))).collect()
    }

    /// The one online safety monitor of the campaigns: ε-agreement across
    /// the `n` nodes and, when the honest inputs are known
    /// (`honest_inputs[k]` for instance `k + 1`), the validity slot `k`'s
    /// protocol guarantees over them. Changing what the campaigns assert
    /// online is an edit here or in `validity`.
    #[must_use]
    pub fn monitor(
        &self,
        proto: impl Fn(usize) -> Proto,
        eps: f64,
        honest_inputs: Option<&[Vec<VecD>]>,
    ) -> Monitor {
        let honest = honest_inputs
            .unwrap_or_default()
            .iter()
            .enumerate()
            .map(|(k, inputs)| (k as u64 + 1, (inputs.clone(), self.validity(proto(k)))))
            .collect();
        Monitor::new(self.n, Agreement::Epsilon(eps), honest, Tol::default())
    }

    /// The validity `proto` guarantees at this profile's `(n, f, d)`:
    ///
    /// * SyncBvc at `n ≥ max(3f+1, (d+1)f+1)` (Theorem 1) and Verified
    ///   Averaging at `f = 0` (every process averages all `n` inputs):
    ///   exact, `H(N)`;
    /// * Verified Averaging at `n ≥ 3f + 1`: `H_(δ,2)(N)` with
    ///   `δ = 1 · max-edge(N)`. Round 0 picks a point within `δ*(S)` of every
    ///   `(|S|−f)`-subset's hull, one of which holds honest inputs only, so it
    ///   is within `δ*(S)` of `H(N)`; every such subset holds at least
    ///   `n − 3f ≥ 1` honest input, so any honest input shows
    ///   `δ*(S) ≤ max-edge(N)`; averaging keeps the distance, which is convex.
    ///
    /// # Panics
    /// For SyncBvc below Theorem 1's bound or Verified Averaging at
    /// `n ≤ 3f`, which no campaign runs.
    fn validity(&self, proto: Proto) -> Validity {
        match proto {
            Proto::Bvc { .. } => {
                assert!(self.n >= exact_bvc_min_n(self.f, self.d), "SyncBvc below Theorem 1");
                Validity::Exact
            }
            Proto::Va { f: 0 } => Validity::Exact,
            Proto::Va { f } => {
                assert!(self.n > 3 * f, "Verified Averaging needs n ≥ 3f + 1");
                Validity::InputDependentDeltaP { kappa: 1.0, norm: Norm::L2 }
            }
        }
    }
}

/// Round-robin sweep driver: call `step(sweep, node, &mut nodes[node])` for
/// every node in order, sweep after sweep, until one sweep has every step
/// report done (`true`) or `max_sweeps` are spent. Single-threaded, so the
/// schedule is deterministic and a node that never decides cannot spin.
pub fn sweep<S>(
    nodes: &mut [S],
    max_sweeps: usize,
    mut step: impl FnMut(usize, usize, &mut S) -> bool,
) -> bool {
    (0..max_sweeps).any(|sweep| {
        let mut done = true;
        for (i, node) in nodes.iter_mut().enumerate() {
            done &= step(sweep, i, node);
        }
        done
    })
}

/// Thread-per-node driver: run `body(node, state)` on its own thread for
/// every element of `nodes` while `coordinate` runs on the calling thread,
/// then join. For campaigns where wall-clock behaviour is the subject (a
/// shared sweep thread would smear one node's latency over everybody).
///
/// # Panics
/// If a node thread panicked.
pub fn thread_per_node<S: Send, R: Send, C>(
    nodes: Vec<S>,
    body: impl Fn(usize, S) -> R + Sync,
    coordinate: impl FnOnce() -> C,
) -> (Vec<R>, C) {
    thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = nodes
            .into_iter()
            .enumerate()
            .map(|(i, node)| scope.spawn(move || body(i, node)))
            .collect();
        let coordinated = coordinate();
        (handles.into_iter().map(|h| h.join().expect("node thread")).collect(), coordinated)
    })
}

/// Nearest-rank percentile of an ascending-sorted sample (NaN if empty).
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `‖reply − value‖∞` of a client reply: every honest input of a client
/// instance is the client's value, so the decision must be the value itself.
/// Infinite for a reply of another dimension or with a non-finite
/// component, which a plain max would read as exact.
#[must_use]
pub fn reply_error(reply: &VecD, value: &VecD) -> f64 {
    if reply.dim() == value.dim() && reply.is_finite() {
        reply.dist(value, Norm::LInf)
    } else {
        f64::INFINITY
    }
}

/// One pass/fail condition of a campaign; a failed gate prints
/// `FAIL: {fail}` and makes the binary exit 1.
#[derive(Debug)]
pub struct Gate {
    /// Whether the condition held.
    pub ok: bool,
    /// What to print when it did not.
    pub fail: String,
}

/// Shorthand constructor for a [`Gate`].
pub fn gate(ok: bool, fail: impl Into<String>) -> Gate {
    Gate { ok, fail: fail.into() }
}

/// What a scenario hands back to [`main`].
#[derive(Debug)]
pub struct Report {
    /// Column headers of the campaign table.
    pub headers: Vec<&'static str>,
    /// Rows of the campaign table.
    pub rows: Vec<Vec<String>>,
    /// Summary lines printed under the table.
    pub notes: Vec<String>,
    /// The campaign's own `BENCH_*.json` keys (the harness adds the
    /// envelope, `transport` / `seed` / `smoke`, and `metrics_endpoint`).
    pub payload: Value,
    /// The pass criteria.
    pub gates: Vec<Gate>,
}

impl Report {
    /// Record the online monitor's verdict, which every campaign reports
    /// and gates on the same way: the `monitor_violations` key and the
    /// zero-violations gate.
    #[must_use]
    pub fn with_monitor(mut self, violations: usize) -> Self {
        let mut payload = fields(self.payload);
        payload.push(("monitor_violations".to_string(), json!(violations)));
        self.payload = Value::Object(payload);
        let fail = format!("the online safety monitor fired {violations} time(s)");
        self.gates.push(gate(violations == 0, fail));
        self
    }
}

/// One systems campaign, declared once: `exp <name>`, `exp list` and the
/// tests all read this entry.
pub struct Scenario {
    /// `exp <name>`; the report is written to `BENCH_<name>.json`.
    pub name: &'static str,
    /// Short experiment id (`"E17"`).
    pub id: &'static str,
    /// Human title (table heading and envelope `title`).
    pub title: &'static str,
    /// Flags accepted beyond `--smoke` and `--seed N`, as the usage line
    /// shows them (`"--runs N"`, `"--flight-dir DIR"`); `--metrics ADDR` brings
    /// `--metrics-wait-scrapes N` with it.
    pub flags: &'static [&'static str],
    /// Substrings one mid-run `/metrics` scrape must all contain.
    pub metrics_probe: &'static [&'static str],
    /// Run the campaign.
    pub run: fn(&Args) -> Report,
}

impl Scenario {
    /// Whether the scenario takes `--metrics` (and so reports
    /// `metrics_endpoint`).
    fn serves_metrics(&self) -> bool {
        self.flags.contains(&"--metrics ADDR")
    }

    /// Report file written to the current directory.
    #[must_use]
    pub fn report(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Every flag the scenario accepts, as [`parse_args`] and the usage
    /// line take them.
    #[must_use]
    pub fn all_flags(&self) -> Vec<&'static str> {
        let mut flags = vec!["--smoke", "--seed N"];
        flags.extend(self.flags);
        if self.serves_metrics() {
            flags.push("--metrics-wait-scrapes N");
        }
        flags
    }
}

/// What a positional argument must parse as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A non-negative integer (trial counts, dimensions, seeds).
    Int,
    /// A finite real (δ, ε).
    Real,
}

/// A named positional argument: `(name, kind, default)`.
pub type Positional = (&'static str, Kind, &'static str);

/// The parsed command line.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Args {
    /// The positionals in declaration order, defaults filled in.
    pub pos: Vec<String>,
    /// How many of `pos` came from the command line.
    pub given: usize,
    /// `--smoke`: the CI-sized profile.
    pub smoke: bool,
    /// `--seed N` (default 2016).
    pub seed: u64,
    /// `--runs N`: seeded runs, overriding the profile's count.
    pub runs: Option<usize>,
    /// `--instances N` (E17): concurrent instances.
    pub instances: Option<usize>,
    /// `--window N` (E17): closed-loop submission window.
    pub window: Option<usize>,
    /// `--flight-dir DIR` (E22): where flight-recorder dumps land.
    pub flight_dir: Option<PathBuf>,
    /// `--metrics ADDR`: serve the live registry for the whole run.
    pub metrics: Option<String>,
    /// `--metrics-wait-scrapes N`: after the run, keep the endpoint up
    /// until it has answered `N` further requests.
    pub wait_scrapes: Option<u64>,
    /// `--p-sweep` (`table1`): also run the Theorem 14 p-sweep.
    pub p_sweep: bool,
    /// `--quick` (`all`): the reduced trial counts.
    pub quick: bool,
}

impl Args {
    /// Numeric positional `i`, as the integer or real type the caller needs.
    ///
    /// # Panics
    /// If positional `i` was not declared with a numeric [`Kind`] that
    /// `T` can hold.
    #[must_use]
    pub fn num<T: std::str::FromStr>(&self, i: usize) -> T {
        self.pos[i].parse().ok().expect("parse_args checked the kind")
    }
}

/// Parse `argv` (without the program and entry names) against the one
/// grammar: words that do not start with `--` fill `positionals` in order,
/// the rest must be among `flags` (written as the usage line shows them,
/// `"--runs N"`); flags may come before, between or after positionals.
///
/// # Errors
/// A message naming the first unknown flag, surplus positional, missing
/// value or unparseable value — bad input never falls back to a default
/// run.
pub fn parse_args<S: AsRef<str>>(
    positionals: &[Positional],
    flags: &[&str],
    argv: &[S],
) -> Result<Args, String> {
    fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value.parse().map_err(|_| format!("{flag}: cannot parse {value:?} as a number"))
    }
    let mut args = Args { seed: 2016, ..Args::default() };
    let mut it = argv.iter().map(AsRef::as_ref);
    while let Some(word) = it.next() {
        if !word.starts_with("--") {
            let (name, kind, _) = positionals
                .get(args.pos.len())
                .ok_or_else(|| format!("unexpected argument {word:?}"))?;
            let valid = match kind {
                Kind::Int => word.parse::<u64>().is_ok(),
                Kind::Real => word.parse::<f64>().is_ok_and(f64::is_finite),
            };
            if !valid {
                return Err(format!("{name}: cannot parse {word:?} as a number"));
            }
            args.pos.push(word.to_string());
            continue;
        }
        let flag = word;
        if !flags.iter().any(|f| f.split(' ').next() == Some(flag)) {
            return Err(format!("unknown argument {flag:?}"));
        }
        match flag {
            "--smoke" => args.smoke = true,
            "--p-sweep" => args.p_sweep = true,
            "--quick" => args.quick = true,
            _ => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag {
                    "--seed" => args.seed = num(flag, value)?,
                    "--runs" => args.runs = Some(num(flag, value)?),
                    "--instances" => args.instances = Some(num(flag, value)?),
                    "--window" => args.window = Some(num(flag, value)?),
                    "--metrics-wait-scrapes" => args.wait_scrapes = Some(num(flag, value)?),
                    "--flight-dir" => args.flight_dir = Some(value.into()),
                    "--metrics" => args.metrics = Some(value.to_string()),
                    other => unreachable!("flag {other} is declared but not in the grammar"),
                }
            }
        }
    }
    args.given = args.pos.len();
    args.pos.extend(positionals[args.given..].iter().map(|(_, _, default)| (*default).to_string()));
    Ok(args)
}

/// The arguments as a usage line shows them: `[trials=100] [--p-sweep]`.
#[must_use]
pub fn usage(positionals: &[Positional], flags: &[&str]) -> String {
    let positionals = positionals.iter().map(|(name, _, default)| format!("[{name}={default}]"));
    positionals.chain(flags.iter().map(|f| format!("[{f}]"))).collect::<Vec<_>>().join(" ")
}

/// Assemble the report document: the shared envelope, then `transport` /
/// `seed` / `smoke`, then the scenario's payload, then — for scenarios
/// that take `--metrics` — `metrics_endpoint` (null when not serving).
#[must_use]
pub fn document(sc: &Scenario, args: &Args, payload: Value, endpoint: Option<Value>) -> Value {
    let mut doc = fields(json!({
        "transport": "tcp-loopback-authenticated",
        "seed": args.seed,
        "smoke": args.smoke,
    }));
    doc.extend(fields(payload));
    if sc.serves_metrics() {
        doc.push(("metrics_endpoint".to_string(), json!(endpoint)));
    }
    with_envelope(sc.id, sc.title, Value::Object(doc))
}

/// JSON object fields, in insertion order.
pub(crate) type Fields = Vec<(String, Value)>;

/// Unwrap a `json!({...})` literal into its fields, so callers can extend it.
///
/// # Panics
/// If `object` is not a JSON object.
pub(crate) fn fields(object: Value) -> Fields {
    match object {
        Value::Object(fields) => fields,
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

/// Print `FAIL: …` for every gate that did not hold; returns how many.
pub fn failures(gates: &[Gate]) -> usize {
    gates.iter().filter(|g| !g.ok).inspect(|g| eprintln!("FAIL: {}", g.fail)).count()
}

/// Run one campaign (`exp <name>` for every entry of [`SCENARIOS`]) and
/// return its gates, the endpoint's included.
pub fn main(sc: &Scenario, args: &Args) -> Vec<Gate> {
    let smoke = if args.smoke { " (smoke)" } else { "" };
    println!("{} — {}, seed {}{smoke}", sc.id, sc.title, args.seed);

    // Live exposition: bind before the run so the whole run is scrapeable,
    // and self-scrape from a background thread to prove the page is
    // served *while* the mesh is hot (CI additionally curls E17 from outside).
    let server = args.metrics.as_deref().map(|addr| {
        let s = MetricsServer::serve(addr, Registry::global().clone())
            .expect("bind metrics endpoint");
        println!("serving /metrics on http://{}", s.addr());
        s
    });
    let stop = AtomicBool::new(false);
    let (report, scraped) = thread::scope(|scope| {
        let scraper = server.as_ref().map(|s| {
            let (addr, stop) = (s.addr(), &stop);
            scope.spawn(move || {
                let mut metrics_ok = false;
                loop {
                    // Read the flag first: the last pass scrapes once more
                    // after the run, so a run shorter than one period (the
                    // E17 smoke) is still probed with its series registered.
                    let last = stop.load(Ordering::SeqCst);
                    metrics_ok |= scrape_once(addr)
                        .is_ok_and(|body| sc.metrics_probe.iter().all(|p| body.contains(p)));
                    if last {
                        return metrics_ok;
                    }
                    thread::sleep(Duration::from_millis(50));
                }
            })
        });
        let report = (sc.run)(args);
        stop.store(true, Ordering::SeqCst);
        (report, scraper.map(|h| h.join().expect("scraper thread")))
    });

    print_table(&format!("{} ({})", sc.id, sc.title), &report.headers, &report.rows);
    for note in &report.notes {
        println!("{note}");
    }

    let mut gates = report.gates;
    let endpoint = server.as_ref().zip(scraped).map(|(s, metrics_ok)| {
        gates.push(gate(
            metrics_ok,
            format!("no mid-run /metrics scrape contained {:?}", sc.metrics_probe),
        ));
        json!({ "addr": s.addr().to_string(), "mid_run_scrape_ok": metrics_ok })
    });
    let doc = document(sc, args, report.payload, endpoint);
    let rendered = serde_json::to_string_pretty(&doc).expect("valid JSON");
    let file = sc.report();
    std::fs::write(&file, rendered).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("wrote {file}");

    // Hold the endpoint open until external scrapers (the CI curl) have
    // been answered `n` *further* times — the self-scrape's own count is
    // excluded — bounded so a missing scraper cannot hang the run.
    if let (Some(s), Some(n)) = (&server, args.wait_scrapes) {
        let (baseline, t0) = (s.scrapes(), Instant::now());
        println!("waiting for {n} external scrape(s) on http://{} (20s budget)", s.addr());
        while s.scrapes() < baseline + n && t0.elapsed() < Duration::from_secs(20) {
            thread::sleep(Duration::from_millis(50));
        }
    }
    gates
}

/// Assert that `payload`, assembled into the report document, has exactly
/// the top-level keys of the committed `BENCH_*.json` text, and that the
/// committed file is a full-profile run, not a `--smoke` one.
#[cfg(test)]
pub(crate) fn assert_keys_match_committed(sc: &Scenario, payload: Value, committed: &str) {
    fn keys(doc: &Value) -> std::collections::BTreeSet<String> {
        doc.as_object().expect("object").iter().map(|(k, _)| k.clone()).collect()
    }
    let doc = document(sc, &Args::default(), payload, None);
    let committed: Value = serde_json::from_str(committed).expect("committed report parses");
    assert_eq!(keys(&doc), keys(&committed), "{} top-level keys drifted", sc.report());
    assert_eq!(
        committed.get("smoke").and_then(Value::as_bool),
        Some(false),
        "{} is a --smoke run; commit the full profile",
        sc.report()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_accepts_the_declared_grammar() {
        let args = parse_args(
            &[],
            &["--smoke", "--seed N", "--runs N", "--metrics-wait-scrapes N"],
            &["--smoke", "--runs", "3", "--seed", "7", "--metrics-wait-scrapes", "1"],
        )
        .expect("valid command line");
        let want = Args { smoke: true, seed: 7, runs: Some(3), wait_scrapes: Some(1), ..Args::default() };
        assert_eq!(args, want);
    }

    #[test]
    fn parser_rejects_unknown_flags_missing_and_non_numeric_values() {
        let flags = ["--smoke", "--seed N", "--runs N", "--flight-dir DIR"];
        for bad in [
            &["--bogus"][..],
            &["100", "7"],
            &["--instances", "4"],
            &["--metrics-wait-scrapes", "1"],
            &["--runs"],
            &["--runs", "many"],
            &["--seed", "-1"],
            &["--flight-dir"],
        ] {
            assert!(parse_args(&[], &flags, bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn positionals_fill_in_order_around_flags_and_are_typed() {
        let declared: [Positional; 3] =
            [("d_max", Kind::Int, "6"), ("delta", Kind::Real, "0.25"), ("seed", Kind::Int, "5")];
        let parse = |words: &[&str]| parse_args(&declared, &["--smoke", "--p-sweep"], words);
        let args = parse(&["4", "--p-sweep", "0.5", "9"]).expect("valid command line");
        assert_eq!((args.num::<u64>(0), args.num::<f64>(1), args.num::<u64>(2)), (4, 0.5, 9));
        assert!(args.p_sweep && args.given == 3);
        let args = parse(&["--smoke", "4"]).expect("defaults fill the rest");
        assert_eq!((args.pos, args.given), (vec!["4".to_string(), "0.25".into(), "5".into()], 1));
        for bad in [&["x"][..], &["4", "inf"], &["4", "0.5", "9", "more"], &["-1"], &["4", "0.5", "x"]] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
        assert_eq!(
            usage(&declared, &["--smoke", "--runs N"]),
            "[d_max=6] [delta=0.25] [seed=5] [--smoke] [--runs N]"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 50.0) - 3.0).abs() < 1e-12);
        assert!((percentile(&xs, 99.0) - 4.0).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn reply_error_reads_a_truncated_or_nan_reply_as_infinite() {
        let value = VecD(vec![1.0, 2.0]);
        assert_eq!(reply_error(&value, &value), 0.0);
        assert!((reply_error(&VecD(vec![1.0, 2.5]), &value) - 0.5).abs() < 1e-12);
        for bad in [vec![], vec![1.0], vec![f64::NAN, 2.0], vec![1.0, 2.0, 3.0]] {
            assert!(reply_error(&VecD(bad.clone()), &value).is_infinite(), "{bad:?}");
        }
    }

    /// The factory asserts the paper's validity, not a bounding box. Against
    /// honest inputs (0,0), (4,0), (0,4), the decision (4,4) lies inside the
    /// box inflated by max-edge but 2.83 outside the hull: the SyncBvc
    /// monitor flags it. Verified Averaging's `H_(δ,2)`, δ = max-edge = 4√2,
    /// flags a decision δ + 1e-3 outside the hull and not one δ − 1e-3
    /// outside.
    #[test]
    fn the_factory_asserts_the_papers_validity() {
        let mesh = MeshProfile {
            n: 4,
            f: 1,
            d: 2,
            instances: 1,
            rounds: 2,
            seed: 0,
            poll_timeout: Duration::ZERO,
        };
        let honest = [vec![VecD(vec![0.0, 0.0]), VecD(vec![4.0, 0.0]), VecD(vec![0.0, 4.0])]];
        let fires = |proto, decision: VecD| {
            !mesh.monitor(|_| proto, AGREEMENT_EPS, Some(&honest)).observe(1, 0, &decision).is_empty()
        };
        let bvc = Proto::Bvc { timeout_ticks: u32::MAX };
        assert!(!fires(bvc, VecD(vec![1.0, 1.0])));
        assert!(fires(bvc, VecD(vec![4.0, 4.0])));
        // `t` outside the hull, straight out from the midpoint of its long edge.
        let out = |t: f64| VecD(vec![2.0 + t / 2f64.sqrt(); 2]);
        let (va, delta) = (Proto::Va { f: 1 }, 32f64.sqrt());
        assert!(!fires(va, out(delta - 1e-3)));
        assert!(fires(va, out(delta + 1e-3)));
    }

    /// Every flag a scenario declares is one the parser implements.
    #[test]
    fn every_declared_flag_parses() {
        for sc in SCENARIOS {
            let words: Vec<String> = sc
                .all_flags()
                .iter()
                .flat_map(|f| f.split(' '))
                .map(|w| if w.starts_with("--") { w } else { "1" }.to_string())
                .collect();
            assert!(parse_args(&[], &sc.all_flags(), &words).is_ok(), "{}: {words:?}", sc.id);
        }
    }
}
