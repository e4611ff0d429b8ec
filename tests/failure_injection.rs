//! Failure-injection integration tests: the consensus protocols against
//! crash faults, partial-crash-mid-broadcast, duplicate/reorder wrappers and
//! seeded random-message fuzzers. Byzantine guarantees are universally
//! quantified, so safety must survive every one of these behaviours. Link
//! faults (drop, dup, delay, reorder, partition) are injected into the real
//! service's links instead, by E16 (`exp chaos`) and its tests.
//!
//! **Seed hygiene**: every random choice in this file — inputs, fuzzers,
//! schedulers — derives deterministically from [`BASE_SEED`],
//! so any failure replays bit-identically, and every assertion message
//! names the seed that produced it.

use rand::{rngs::StdRng, Rng, SeedableRng};
use relaxed_bvc::consensus::problem::{check_execution, Agreement, Validity};
use relaxed_bvc::consensus::rules::DecisionRule;
use relaxed_bvc::consensus::sync_protocols::SyncBvc;
use relaxed_bvc::consensus::va_batch::BatchWriter;
use relaxed_bvc::consensus::verified_avg::{DeltaMode, VaMsg, VerifiedAveraging};
use relaxed_bvc::linalg::{Norm, Tol, VecD};
use relaxed_bvc::sim::asynch::{AsyncEngine, AsyncNode, RandomScheduler};
use relaxed_bvc::sim::config::SystemConfig;
use relaxed_bvc::sim::eig::{EigRound, ParallelEig};
use relaxed_bvc::sim::fuzz::{duplicating, partial_crash, FuzzAdversary};
use relaxed_bvc::sim::sync::{RoundEngine, SyncNode};

/// The single documented base seed of this file; every derived seed is
/// `BASE_SEED + <small offset>` or `BASE_SEED ^ <trial index>`.
const BASE_SEED: u64 = 20_160_601;

fn tol() -> Tol {
    Tol::default()
}

fn random_inputs(seed: u64, n: usize, d: usize) -> Vec<VecD> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| VecD((0..d).map(|_| rng.gen_range(-1.0..1.0)).collect()))
        .collect()
}

fn honest_sync(i: usize, n: usize, f: usize, d: usize, input: VecD) -> SyncNode<SyncBvc> {
    SyncNode::Honest(SyncBvc::new(
        i,
        n,
        f,
        d,
        input,
        DecisionRule::GammaPoint,
        tol(),
    ))
}

fn check_sync_outcome(
    config: &SystemConfig,
    inputs: &[VecD],
    decisions: &[Option<VecD>],
    validity: &Validity,
    ctx: &str,
) {
    let correct_inputs: Vec<VecD> = config
        .correct_ids()
        .into_iter()
        .map(|i| inputs[i].clone())
        .collect();
    let correct_decisions: Vec<Option<VecD>> = config
        .correct_ids()
        .into_iter()
        .map(|i| decisions[i].clone())
        .collect();
    let v = check_execution(
        &correct_inputs,
        &correct_decisions,
        Agreement::Exact,
        validity,
        tol(),
    );
    assert!(v.ok(), "{ctx}: {v:?}");
}

/// A crash is a legal Byzantine behaviour, so agreement and validity must
/// hold wherever process `faulty` dies: for each `(round, prefix)` it sends
/// only the first `prefix` messages of `round` and nothing after.
fn survives_crashes(
    seed_offset: u64,
    faulty: usize,
    crashes: impl Iterator<Item = (usize, usize)>,
) {
    let (n, f, d) = (4usize, 1usize, 2usize);
    let inputs = random_inputs(BASE_SEED + seed_offset, n, d);
    for (round, prefix) in crashes {
        let config = SystemConfig::new(n, f).with_faulty(vec![faulty]);
        let nodes: Vec<SyncNode<SyncBvc>> = (0..n)
            .map(|i| {
                if i == faulty {
                    SyncNode::Byzantine(Box::new(partial_crash(
                        ParallelEig::new(i, n, f, inputs[i].clone(), VecD::zeros(d)),
                        round,
                        prefix,
                    )))
                } else {
                    honest_sync(i, n, f, d, inputs[i].clone())
                }
            })
            .collect();
        let out = RoundEngine::new(config.clone(), nodes).run(f + 2);
        check_sync_outcome(
            &config,
            &inputs,
            &out.decisions,
            &Validity::Exact,
            &format!("seed {BASE_SEED}+{seed_offset}, crash in round {round} after {prefix} sends"),
        );
    }
}

/// Crash between rounds (`fuzz::crash` = nothing of the round goes out), at
/// every round of the `f + 1 = 2` and one past the end.
fn at_every_round() -> impl Iterator<Item = (usize, usize)> {
    (0..=2).map(|round| (round, 0))
}

/// The crash-during-broadcast matrix: crash in round 0 after sending to
/// only k of the n = 4 destinations, for every k.
fn every_round0_prefix() -> impl Iterator<Item = (usize, usize)> {
    (0..4).map(|prefix| (0, prefix))
}

#[test]
fn sync_bvc_survives_crash_at_every_round() {
    survives_crashes(1, 2, at_every_round());
}

#[test]
fn sync_bvc_survives_partial_crash_every_prefix() {
    survives_crashes(2, 0, every_round0_prefix());
}

#[test]
fn sync_bvc_survives_message_fuzzing_across_seeds() {
    let (n, f, d) = (4usize, 1usize, 2usize);
    let inputs = random_inputs(BASE_SEED + 3, n, d);
    for trial in 0..8u64 {
        let seed = BASE_SEED ^ trial;
        let config = SystemConfig::new(n, f).with_faulty(vec![1]);
        let nodes: Vec<SyncNode<SyncBvc>> = (0..n)
            .map(|i| {
                if i == 1 {
                    // Well-formed-looking EIG batches with random labels and
                    // random vector payloads.
                    let generator = Box::new(move |rng: &mut StdRng, round: usize| {
                        let mut msg = EigRound::with_capacity(round + 1, 0, 0);
                        for _ in 0..rng.gen_range(1..4) {
                            let sender = rng.gen_range(0..n);
                            let mut label = vec![sender];
                            while label.len() < round + 1 {
                                label.push(rng.gen_range(0..n));
                            }
                            msg.begin(sender);
                            msg.push(&label, VecD((0..d).map(|_| rng.gen_range(-9.0..9.0)).collect()));
                        }
                        std::sync::Arc::new(msg)
                    });
                    SyncNode::Byzantine(Box::new(FuzzAdversary::new(seed, n, 5, generator)))
                } else {
                    honest_sync(i, n, f, d, inputs[i].clone())
                }
            })
            .collect();
        let out = RoundEngine::new(config.clone(), nodes).run(f + 2);
        check_sync_outcome(
            &config,
            &inputs,
            &out.decisions,
            &Validity::Exact,
            &format!("fuzz seed {seed} (= {BASE_SEED} ^ {trial})"),
        );
    }
}

#[test]
fn verified_averaging_survives_async_fuzzing() {
    let (n, f, d) = (4usize, 1usize, 3usize);
    let inputs = random_inputs(BASE_SEED + 4, n, d);
    for trial in 0..4u64 {
        let seed = BASE_SEED ^ trial;
        let config = SystemConfig::new(n, f).with_faulty(vec![3]);
        let nodes: Vec<AsyncNode<VerifiedAveraging>> = (0..n)
            .map(|i| {
                if i == 3 {
                    // Random Bracha messages for random tags.
                    let generator = Box::new(move |rng: &mut StdRng, _: usize| -> VaMsg {
                        let tag = (rng.gen_range(0..n), rng.gen_range(0..6usize));
                        let value: Vec<f64> = (0..d).map(|_| rng.gen_range(-9.0..9.0)).collect();
                        let mut state = BatchWriter::default();
                        state.push(0, tag.1 as u32, value.into_iter(), std::iter::empty());
                        let state = std::sync::Arc::new(state.finish());
                        let msg = match rng.gen_range(0..3) {
                            0 => relaxed_bvc::sim::bracha::BrachaMsg::Init(state),
                            1 => relaxed_bvc::sim::bracha::BrachaMsg::Echo(state),
                            _ => relaxed_bvc::sim::bracha::BrachaMsg::Ready(state),
                        };
                        (tag, msg)
                    });
                    AsyncNode::Byzantine(Box::new(FuzzAdversary::new(seed, n, 3, generator)))
                } else {
                    AsyncNode::Honest(VerifiedAveraging::new(
                        i,
                        n,
                        f,
                        inputs[i].clone(),
                        DeltaMode::MinDelta(Norm::L2),
                        15,
                        tol(),
                    ))
                }
            })
            .collect();
        let mut engine = AsyncEngine::new(config.clone(), nodes);
        let out = engine.run(&mut RandomScheduler::new(seed + 50), 4_000_000);
        assert!(out.all_decided, "fuzz seed {seed} blocked liveness");
        let correct_inputs: Vec<VecD> = config
            .correct_ids()
            .into_iter()
            .map(|i| inputs[i].clone())
            .collect();
        let decisions: Vec<Option<VecD>> = config
            .correct_ids()
            .into_iter()
            .map(|i| out.decisions[i].clone())
            .collect();
        let v = check_execution(
            &correct_inputs,
            &decisions,
            Agreement::Epsilon(1e-3),
            &Validity::InputDependentDeltaP {
                kappa: 1.0,
                norm: Norm::L2,
            },
            tol(),
        );
        assert!(v.ok(), "fuzz seed {seed}: {v:?}");
    }
}

#[test]
fn verified_averaging_survives_duplication_and_reordering() {
    let (n, f, d) = (4usize, 1usize, 3usize);
    let inputs = random_inputs(BASE_SEED + 5, n, d);
    let config = SystemConfig::new(n, f).with_faulty(vec![0]);
    let nodes: Vec<AsyncNode<VerifiedAveraging>> = (0..n)
        .map(|i| {
            let proto = VerifiedAveraging::new(
                i,
                n,
                f,
                inputs[i].clone(),
                DeltaMode::MinDelta(Norm::L2),
                15,
                tol(),
            );
            if i == 0 {
                AsyncNode::Byzantine(Box::new(duplicating(proto, BASE_SEED + 77)))
            } else {
                AsyncNode::Honest(proto)
            }
        })
        .collect();
    let mut engine = AsyncEngine::new(config.clone(), nodes);
    let out = engine.run(&mut RandomScheduler::new(BASE_SEED + 9), 4_000_000);
    assert!(out.all_decided, "duplication blocked liveness");
    let decided: Vec<&VecD> = config
        .correct_ids()
        .into_iter()
        .filter_map(|i| out.decisions[i].as_ref())
        .collect();
    for a in &decided {
        for b in &decided {
            assert!(
                a.dist(b, Norm::LInf) < 1e-3,
                "duplication broke ε-agreement (seed {})",
                BASE_SEED + 77
            );
        }
    }
}
