//! Crash and fuzzing adversaries.
//!
//! Byzantine agreement guarantees are universally quantified over adversary
//! behaviour, so beyond the *structured* attacks (equivocation, lying
//! relays) the test suite drives protocols against:
//!
//! * [`CrashAdversary`] — honest until a chosen round, then silent forever
//!   (the benign-fault end of the spectrum, cf. the crash-fault model of
//!   Tseng–Vaidya \[16\] cited in the paper's related work);
//! * [`FuzzAdversary`] / [`AsyncFuzzAdversary`] — sends seeded-random,
//!   arbitrarily-addressed messages produced by a caller-supplied
//!   generator, optionally also mutating what an honest node would have
//!   sent. Randomized behaviour explores corner cases the structured
//!   strategies miss; safety must hold for every seed.
//!
//! These adversaries live *inside* the simulator, above message encoding.
//! Their wire-level counterparts — the same taxonomy applied to encoded
//! bytes on real TCP sockets (per-recipient equivocation, lying witnesses,
//! crafted near-valid frames, handshake replays) — are the
//! `rbvc-transport` crate's `byzantine` attack registry, driven by the E20
//! `exp byzantine` campaign.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::asynch::{AsyncAdversary, AsyncProtocol};
use crate::config::ProcessId;
use crate::sync::{SyncAdversary, SyncProtocol};

/// Seeded, codec-agnostic byte-level mutator for wire fuzz corpora.
///
/// The structured adversaries above operate on decoded protocol messages;
/// this one operates on *encoded bytes* and is shared by the transport
/// crate's codec tests — both the inter-node frame codec and the client
/// front-end codec (`rbvc-transport::client`) derive their malformed
/// corpora from a valid base frame plus exactly one of these mutations:
/// an interior truncation, a forged little-endian length/count field, a
/// garbage tail, or a single flipped byte. Keeping the mutation taxonomy
/// here (below the codecs) guarantees both codecs are fuzzed with the
/// same attack shapes.
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

/// Honest until `crash_round`, silent afterwards (still receives).
pub struct CrashAdversary<P: SyncProtocol> {
    inner: P,
    crash_round: usize,
}

impl<P: SyncProtocol> CrashAdversary<P> {
    /// Wrap an honest protocol instance; it emits nothing from
    /// `crash_round` on (a crash *between* rounds — mid-round partial sends
    /// are modelled by [`PartialCrashAdversary`]).
    #[must_use]
    pub fn new(inner: P, crash_round: usize) -> Self {
        CrashAdversary { inner, crash_round }
    }
}

impl<P: SyncProtocol> SyncAdversary<P::Msg> for CrashAdversary<P> {
    fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, P::Msg)> {
        let msgs = self.inner.round_messages(round);
        if round >= self.crash_round {
            Vec::new()
        } else {
            msgs
        }
    }
    fn receive(&mut self, round: usize, inbox: &[(ProcessId, P::Msg)]) {
        self.inner.receive(round, inbox);
    }
}

/// Crashes *mid-send* in `crash_round`: only a prefix of that round's
/// messages goes out (the classic "crash during broadcast" scenario that
/// single-round protocols cannot tolerate but `f + 1`-round ones must).
pub struct PartialCrashAdversary<P: SyncProtocol> {
    inner: P,
    crash_round: usize,
    prefix: usize,
}

impl<P: SyncProtocol> PartialCrashAdversary<P> {
    /// Send only the first `prefix` messages of round `crash_round`, then
    /// nothing ever again.
    #[must_use]
    pub fn new(inner: P, crash_round: usize, prefix: usize) -> Self {
        PartialCrashAdversary {
            inner,
            crash_round,
            prefix,
        }
    }
}

impl<P: SyncProtocol> SyncAdversary<P::Msg> for PartialCrashAdversary<P> {
    fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, P::Msg)> {
        let mut msgs = self.inner.round_messages(round);
        if round > self.crash_round {
            return Vec::new();
        }
        if round == self.crash_round {
            msgs.truncate(self.prefix);
        }
        msgs
    }
    fn receive(&mut self, round: usize, inbox: &[(ProcessId, P::Msg)]) {
        self.inner.receive(round, inbox);
    }
}

/// Seeded random-message adversary for the lockstep engine. Each round it
/// sends `volume` messages to random destinations, with payloads from the
/// caller's generator (which can produce syntactically valid protocol
/// messages to fuzz validation paths, or garbage).
pub struct FuzzAdversary<M> {
    rng: StdRng,
    n: usize,
    volume: usize,
    generator: SyncPayloadGen<M>,
}

/// Payload generator for the lockstep fuzzer: `(rng, round) → payload`.
pub type SyncPayloadGen<M> = Box<dyn FnMut(&mut StdRng, usize) -> M>;

/// Payload generator for the asynchronous fuzzer.
pub type AsyncPayloadGen<M> = Box<dyn FnMut(&mut StdRng) -> M>;

impl<M> FuzzAdversary<M> {
    /// `generator(rng, round)` produces one payload.
    #[must_use]
    pub fn new(
        seed: u64,
        n: usize,
        volume: usize,
        generator: SyncPayloadGen<M>,
    ) -> Self {
        FuzzAdversary {
            rng: StdRng::seed_from_u64(seed),
            n,
            volume,
            generator,
        }
    }
}

impl<M> SyncAdversary<M> for FuzzAdversary<M> {
    fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, M)> {
        (0..self.volume)
            .map(|_| {
                let dst = self.rng.gen_range(0..self.n);
                let msg = (self.generator)(&mut self.rng, round);
                (dst, msg)
            })
            .collect()
    }
    fn receive(&mut self, _round: usize, _inbox: &[(ProcessId, M)]) {}
}

/// Seeded random-message adversary for the asynchronous engine: on every
/// delivery it fires `volume` random messages.
pub struct AsyncFuzzAdversary<M> {
    rng: StdRng,
    n: usize,
    volume: usize,
    generator: AsyncPayloadGen<M>,
}

impl<M> AsyncFuzzAdversary<M> {
    /// Build with a payload generator.
    #[must_use]
    pub fn new(
        seed: u64,
        n: usize,
        volume: usize,
        generator: AsyncPayloadGen<M>,
    ) -> Self {
        AsyncFuzzAdversary {
            rng: StdRng::seed_from_u64(seed),
            n,
            volume,
            generator,
        }
    }

    fn burst(&mut self) -> Vec<(ProcessId, M)> {
        (0..self.volume)
            .map(|_| {
                let dst = self.rng.gen_range(0..self.n);
                let msg = (self.generator)(&mut self.rng);
                (dst, msg)
            })
            .collect()
    }
}

impl<M> AsyncAdversary<M> for AsyncFuzzAdversary<M> {
    fn on_start(&mut self) -> Vec<(ProcessId, M)> {
        self.burst()
    }
    fn on_message(&mut self, _from: ProcessId, _msg: M) -> Vec<(ProcessId, M)> {
        self.burst()
    }
}

/// Convenience for async fuzzing: a wrapper running an honest protocol but
/// *duplicating and reordering* its sends (stress for at-most-once
/// assumptions inside protocol state machines).
pub struct DuplicatingAdversary<P: AsyncProtocol> {
    inner: P,
    rng: StdRng,
}

impl<P: AsyncProtocol> DuplicatingAdversary<P> {
    /// Wrap an honest instance.
    #[must_use]
    pub fn new(inner: P, seed: u64) -> Self {
        DuplicatingAdversary {
            inner,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn mangle(&mut self, mut sends: Vec<(ProcessId, P::Msg)>) -> Vec<(ProcessId, P::Msg)>
    where
        P::Msg: Clone,
    {
        // Duplicate a random subset and shuffle.
        let extra: Vec<(ProcessId, P::Msg)> = sends
            .iter()
            .filter(|_| self.rng.gen_bool(0.3))
            .cloned()
            .collect();
        sends.extend(extra);
        for i in (1..sends.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            sends.swap(i, j);
        }
        sends
    }
}

impl<P: AsyncProtocol> AsyncAdversary<P::Msg> for DuplicatingAdversary<P>
where
    P::Msg: Clone,
{
    fn on_start(&mut self) -> Vec<(ProcessId, P::Msg)> {
        let sends = self.inner.on_start();
        self.mangle(sends)
    }
    fn on_message(&mut self, from: ProcessId, msg: P::Msg) -> Vec<(ProcessId, P::Msg)> {
        let sends = self.inner.on_message(from, msg);
        self.mangle(sends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::eig::{ParallelEig, ParallelEigMsg};
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
        let mut nodes: Nodes = vec![SyncNode::Byzantine(Box::new(CrashAdversary::new(
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
        let mut nodes: Nodes = vec![SyncNode::Byzantine(Box::new(PartialCrashAdversary::new(
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
                        // Random batches tagged with random sender slots and
                        // random labels of the right length.
                        let batches: ParallelEigMsg<i64> = (0..rng.gen_range(0..3))
                            .map(|_| {
                                let sender = rng.gen_range(0..n);
                                let mut label = vec![sender];
                                while label.len() < round + 1 {
                                    label.push(rng.gen_range(0..n));
                                }
                                (sender, vec![(label, rng.gen_range(-100..100))])
                            })
                            .collect();
                        batches
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
