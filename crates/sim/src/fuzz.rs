//! Adversaries: the honest machine with its sends edited, and fuzzers.
//!
//! Byzantine agreement guarantees are universally quantified over adversary
//! behaviour. Every *structured* attack here is one type, [`Edited`]: an
//! honest state machine that receives everything and whose outgoing
//! `(dst, msg)` list passes through an edit before it leaves. The
//! constructors name the edits:
//!
//! * [`follow`] — no edit: the faulty process that follows the protocol,
//!   to which the paper's impossibility proofs (Theorems 3 and 5) restrict
//!   the adversary;
//! * [`crash`] / [`partial_crash`] — honest until a chosen round, then
//!   silent, between rounds or mid-send (the benign-fault end of the
//!   spectrum, cf. the crash-fault model of Tseng–Vaidya \[16\]);
//! * [`two_faced`] / [`lying_relay`] — equivocation at the source and
//!   corruption in relays, over [`ParallelEig`];
//! * [`duplicating`] — duplicated and reordered sends.
//!
//! What wraps nothing stays a type of its own, each running under either
//! engine like [`Edited`]: [`SilentAdversary`] never sends, and
//! [`FuzzAdversary`] sends seeded-random, arbitrarily-addressed messages
//! from a caller-supplied generator. Randomized behaviour explores corner
//! cases the structured strategies miss; safety must hold for every seed.
//!
//! These adversaries live *inside* the simulator, above message encoding.
//! Below it there is one more piece, [`ByteMutator`]: the byte-level
//! mutations (cut, forged count, garbage tail, flipped byte) a codec must
//! reject. The wire adversaries of `rbvc-transport`'s `byzantine` module
//! (the E20 `exp byzantine` campaign) are built from these two halves — the
//! typed edits applied to a decoded frame before it is re-encoded, and
//! `ByteMutator` applied to a valid encoded one — plus what only exists on
//! a socket: handshakes to forge.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::asynch::{AsyncAdversary, AsyncProtocol};
use crate::config::ProcessId;
use crate::eig::{EigMsg, ParallelEig};
use crate::sync::{SyncAdversary, SyncProtocol};

/// Seeded, codec-agnostic byte-level mutator for wire fuzz corpora.
///
/// The structured adversaries above operate on decoded protocol messages;
/// this one operates on *encoded bytes*. It is the one mutation taxonomy of
/// the transport crate: its codec tests and its `PayloadCrafter` (the
/// garbage and client sprays of the wire adversaries) derive every
/// malformed frame, of the inter-node codec and of the client front-end
/// codec alike, from a valid base frame plus exactly one of these
/// mutations — an interior truncation, a forged little-endian length/count
/// field, a garbage tail, or a single flipped byte — at an offset the codec
/// exports. Keeping the taxonomy here (below the codecs) guarantees both
/// are attacked with the same shapes.
pub struct ByteMutator {
    rng: StdRng,
}

impl ByteMutator {
    /// A deterministic mutator for the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ByteMutator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A strict prefix of `base`, cut at a random interior byte (empty
    /// input stays empty).
    #[must_use]
    pub fn truncate(&mut self, base: &[u8]) -> Vec<u8> {
        if base.len() <= 1 {
            return Vec::new();
        }
        let cut = 1 + self.rng.gen_range(0..base.len() - 1);
        base[..cut].to_vec()
    }

    /// `base` with the 4 bytes at `offset` overwritten by a huge
    /// little-endian count the remaining bytes cannot back — the classic
    /// allocation-bomb forgery. Returns `base` unchanged when the field
    /// does not fit.
    #[must_use]
    pub fn forge_len_u32(&mut self, base: &[u8], offset: usize) -> Vec<u8> {
        let mut out = base.to_vec();
        if offset + 4 <= out.len() {
            let forged = u32::MAX - self.rng.gen_range(0..1u32 << 16);
            out[offset..offset + 4].copy_from_slice(&forged.to_le_bytes());
        }
        out
    }

    /// `base` with 1–48 random bytes appended (frames are exactly one
    /// message, so codecs must reject the tail).
    #[must_use]
    pub fn append_garbage(&mut self, base: &[u8]) -> Vec<u8> {
        let mut out = base.to_vec();
        let tail = 1 + self.rng.gen_range(0..48);
        out.extend((0..tail).map(|_| self.rng.gen_range(0..=255u8)));
        out
    }

    /// `base` with a single random byte XOR-flipped (never a no-op flip).
    #[must_use]
    pub fn flip_byte(&mut self, base: &[u8]) -> Vec<u8> {
        let mut out = base.to_vec();
        if !out.is_empty() {
            let pos = self.rng.gen_range(0..out.len());
            out[pos] ^= self.rng.gen_range(1..=255u8);
        }
        out
    }
}

/// What a process sends in one step: `(destination, message)` pairs.
pub type Sends<M> = Vec<(ProcessId, M)>;

/// What an EIG process sends in one round.
type EigSends<V> = Sends<EigMsg<V>>;

/// A Byzantine process as the honest machine `inner` with its sends edited:
/// `inner` receives everything, and each outgoing list goes through
/// `edit(step, &mut sends)` before it leaves. `step` is the round under the
/// lockstep engine; under the asynchronous engine it is 0 for `on_start`
/// and the number of deliveries so far after that.
pub struct Edited<P, E> {
    inner: P,
    edit: E,
    deliveries: usize,
}

impl<P, E> Edited<P, E> {
    /// Wrap an honest instance.
    #[must_use]
    pub fn new(inner: P, edit: E) -> Self {
        Edited { inner, edit, deliveries: 0 }
    }
}

impl<P: SyncProtocol, E: FnMut(usize, &mut Sends<P::Msg>)> SyncAdversary<P::Msg>
    for Edited<P, E>
{
    fn round_messages(&mut self, round: usize) -> Sends<P::Msg> {
        let mut sends = self.inner.round_messages(round);
        (self.edit)(round, &mut sends);
        sends
    }
    fn receive(&mut self, round: usize, inbox: &[(ProcessId, P::Msg)]) {
        self.inner.receive(round, inbox);
    }
}

impl<P: AsyncProtocol, E: FnMut(usize, &mut Sends<P::Msg>)> AsyncAdversary<P::Msg>
    for Edited<P, E>
{
    fn on_start(&mut self) -> Sends<P::Msg> {
        let mut sends = self.inner.on_start();
        (self.edit)(0, &mut sends);
        sends
    }
    fn on_message(&mut self, from: ProcessId, msg: P::Msg) -> Sends<P::Msg> {
        self.deliveries += 1;
        let mut sends = self.inner.on_message(from, msg);
        (self.edit)(self.deliveries, &mut sends);
        sends
    }
}

/// Follows the protocol exactly, under either engine — arbitrary *inputs*
/// are within Byzantine power and stress validity.
#[must_use]
pub fn follow<P, M>(inner: P) -> Edited<P, fn(usize, &mut Sends<M>)> {
    Edited::new(inner, |_, _| {})
}

/// Honest until `crash_round`, silent from then on (still receives): a
/// crash *between* rounds.
#[must_use]
pub fn crash<P: SyncProtocol>(
    inner: P,
    crash_round: usize,
) -> Edited<P, impl FnMut(usize, &mut Sends<P::Msg>)> {
    partial_crash(inner, crash_round, 0)
}

/// Crashes *mid-send*: only the first `prefix` messages of round
/// `crash_round` go out, then nothing ever again (the classic "crash during
/// broadcast" scenario that single-round protocols cannot tolerate but
/// `f + 1`-round ones must).
#[must_use]
pub fn partial_crash<P: SyncProtocol>(
    inner: P,
    crash_round: usize,
    prefix: usize,
) -> Edited<P, impl FnMut(usize, &mut Sends<P::Msg>)> {
    Edited::new(inner, move |round, sends: &mut Sends<P::Msg>| {
        if round >= crash_round {
            sends.truncate(if round == crash_round { prefix } else { 0 });
        }
    })
}

/// Relays faithfully but *equivocates on its own input*: process `j` is
/// shown `per_recipient[j]` in round 0. The strongest single-instance
/// attack against broadcast consistency.
///
/// # Panics
/// Panics unless `per_recipient` has one value per process.
#[must_use]
pub fn two_faced<V: Clone + PartialEq>(
    my_id: ProcessId,
    n: usize,
    f: usize,
    per_recipient: Vec<V>,
    default: V,
) -> Edited<ParallelEig<V>, impl FnMut(usize, &mut EigSends<V>)> {
    assert_eq!(per_recipient.len(), n);
    let inner = ParallelEig::new(my_id, n, f, per_recipient[0].clone(), default);
    Edited::new(inner, move |round, sends: &mut EigSends<V>| {
        if round == 0 {
            for (dst, msg) in sends {
                ParallelEig::tamper(msg, |origin, value| {
                    if origin == my_id {
                        *value = per_recipient[*dst].clone();
                    }
                });
            }
        }
    })
}

/// Broadcasts `input` honestly but lies in relay rounds: every value sent
/// to an odd-indexed recipient is replaced by `corrupt` (split-brain
/// relays).
#[must_use]
pub fn lying_relay<V: Clone + PartialEq>(
    my_id: ProcessId,
    n: usize,
    f: usize,
    input: V,
    default: V,
    corrupt: V,
) -> Edited<ParallelEig<V>, impl FnMut(usize, &mut EigSends<V>)> {
    let inner = ParallelEig::new(my_id, n, f, input, default);
    Edited::new(inner, move |round, sends: &mut EigSends<V>| {
        if round > 0 {
            for (_, msg) in sends.iter_mut().filter(|(dst, _)| dst % 2 == 1) {
                ParallelEig::tamper(msg, |_, value| *value = corrupt.clone());
            }
        }
    })
}

/// A Byzantine process that never sends anything (crash-from-start),
/// under either engine.
pub struct SilentAdversary;

impl<M> SyncAdversary<M> for SilentAdversary {
    fn round_messages(&mut self, _round: usize) -> Sends<M> {
        Vec::new()
    }
    fn receive(&mut self, _round: usize, _inbox: &[(ProcessId, M)]) {}
}

impl<M> AsyncAdversary<M> for SilentAdversary {
    fn on_start(&mut self) -> Sends<M> {
        Vec::new()
    }
    fn on_message(&mut self, _from: ProcessId, _msg: M) -> Sends<M> {
        Vec::new()
    }
}

/// Payload generator for [`FuzzAdversary`]: `(rng, step) → payload`, with
/// `step` as [`Edited`] counts it.
pub type PayloadGen<M> = Box<dyn FnMut(&mut StdRng, usize) -> M>;

/// Seeded random-message adversary, under either engine: each lockstep
/// round, and on start and every delivery under the asynchronous engine,
/// it sends `volume` messages to random destinations, with payloads from
/// the caller's generator (which can produce syntactically valid protocol
/// messages to fuzz validation paths, or garbage).
pub struct FuzzAdversary<M> {
    rng: StdRng,
    n: usize,
    volume: usize,
    generator: PayloadGen<M>,
    deliveries: usize,
}

impl<M> FuzzAdversary<M> {
    /// `generator(rng, step)` produces one payload.
    #[must_use]
    pub fn new(seed: u64, n: usize, volume: usize, generator: PayloadGen<M>) -> Self {
        FuzzAdversary { rng: StdRng::seed_from_u64(seed), n, volume, generator, deliveries: 0 }
    }

    fn burst(&mut self, step: usize) -> Sends<M> {
        (0..self.volume)
            .map(|_| {
                let dst = self.rng.gen_range(0..self.n);
                let msg = (self.generator)(&mut self.rng, step);
                (dst, msg)
            })
            .collect()
    }
}

impl<M> SyncAdversary<M> for FuzzAdversary<M> {
    fn round_messages(&mut self, round: usize) -> Sends<M> {
        self.burst(round)
    }
    fn receive(&mut self, _round: usize, _inbox: &[(ProcessId, M)]) {}
}

impl<M> AsyncAdversary<M> for FuzzAdversary<M> {
    fn on_start(&mut self) -> Sends<M> {
        self.burst(0)
    }
    fn on_message(&mut self, _from: ProcessId, _msg: M) -> Sends<M> {
        self.deliveries += 1;
        self.burst(self.deliveries)
    }
}

/// Runs an honest protocol but *duplicates and reorders* its sends (stress
/// for at-most-once assumptions inside protocol state machines).
#[must_use]
pub fn duplicating<P: AsyncProtocol>(
    inner: P,
    seed: u64,
) -> Edited<P, impl FnMut(usize, &mut Sends<P::Msg>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    Edited::new(inner, move |_, sends: &mut Sends<P::Msg>| {
        // Duplicate a random subset and shuffle.
        let extra: Sends<P::Msg> =
            sends.iter().filter(|_| rng.gen_bool(0.3)).cloned().collect();
        sends.extend(extra);
        for i in (1..sends.len()).rev() {
            let j = rng.gen_range(0..=i);
            sends.swap(i, j);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::eig::EigRound;
    use crate::sync::{RoundEngine, SyncNode};

    type Nodes = Vec<SyncNode<ParallelEig<i64>>>;

    fn honest(id: usize, n: usize, f: usize, input: i64) -> SyncNode<ParallelEig<i64>> {
        SyncNode::Honest(ParallelEig::new(id, n, f, input, i64::MIN))
    }

    #[test]
    fn crash_after_round_zero_keeps_broadcast_valid() {
        // The sender crashes after round 0: its value already reached
        // everyone, so EIG must deliver it consistently — possibly the real
        // value, possibly the default, but identical at all correct nodes.
        let (n, f) = (4, 1);
        let config = SystemConfig::new(n, f).with_faulty(vec![0]);
        let mut nodes: Nodes = vec![SyncNode::Byzantine(Box::new(crash(
            ParallelEig::new(0, n, f, 99, i64::MIN),
            1,
        )))];
        for i in 1..n {
            nodes.push(honest(i, n, f, i as i64));
        }
        let out = RoundEngine::new(config, nodes).run(f + 2);
        let reference = out.decisions[1].clone().unwrap();
        for i in 2..n {
            assert_eq!(out.decisions[i].as_ref().unwrap(), &reference);
        }
        assert_eq!(reference[0], 99, "round-0 crash is after the value spread");
    }

    #[test]
    fn partial_crash_in_round_zero_still_agrees() {
        // The hard case: the sender crashes mid-broadcast of its own value —
        // only one recipient hears it. Correct processes must still agree
        // (on the real value or the default).
        let (n, f) = (4, 1);
        let config = SystemConfig::new(n, f).with_faulty(vec![0]);
        let mut nodes: Nodes = vec![SyncNode::Byzantine(Box::new(partial_crash(
            ParallelEig::new(0, n, f, 42, i64::MIN),
            0,
            1, // only the first destination receives anything
        )))];
        for i in 1..n {
            nodes.push(honest(i, n, f, i as i64));
        }
        let out = RoundEngine::new(config, nodes).run(f + 2);
        let reference = out.decisions[1].clone().unwrap();
        for i in 2..n {
            assert_eq!(
                out.decisions[i].as_ref().unwrap(),
                &reference,
                "partial crash split the correct processes"
            );
        }
        // Honest senders unaffected.
        assert_eq!(reference[1..], [1, 2, 3]);
    }

    #[test]
    fn fuzzing_eig_with_random_wellformed_items_is_safe() {
        // A fuzzer spraying syntactically plausible EIG batches must not
        // break agreement among correct processes, for any seed.
        let (n, f) = (4usize, 1usize);
        for seed in 0..10u64 {
            let config = SystemConfig::new(n, f).with_faulty(vec![2]);
            let mut nodes: Nodes = Vec::new();
            for i in 0..n {
                if i == 2 {
                    let generator = Box::new(move |rng: &mut StdRng, round: usize| {
                        // Random entries tagged with random sender slots and
                        // random labels of the right length.
                        let mut msg = EigRound::with_capacity(round + 1, 0, 0);
                        for _ in 0..rng.gen_range(0..3) {
                            let sender = rng.gen_range(0..n);
                            let mut label = vec![sender];
                            while label.len() < round + 1 {
                                label.push(rng.gen_range(0..n));
                            }
                            msg.begin(sender);
                            msg.push(&label, rng.gen_range(-100..100));
                        }
                        std::sync::Arc::new(msg)
                    });
                    nodes.push(SyncNode::Byzantine(Box::new(FuzzAdversary::new(
                        seed, n, 6, generator,
                    ))));
                } else {
                    nodes.push(honest(i, n, f, 10 + i as i64));
                }
            }
            let out = RoundEngine::new(config, nodes).run(f + 2);
            let reference = out.decisions[0].clone().unwrap();
            for i in [1usize, 3] {
                assert_eq!(
                    out.decisions[i].as_ref().unwrap(),
                    &reference,
                    "fuzz seed {seed} broke agreement"
                );
            }
            // Validity of honest senders.
            assert_eq!(reference[0], 10);
            assert_eq!(reference[1], 11);
            assert_eq!(reference[3], 13);
        }
    }
}
