//! Bracha's asynchronous reliable broadcast (init / echo / ready).
//!
//! The paper's asynchronous algorithm (§10, Relaxed Verified Averaging)
//! inherits reliable broadcast from Bracha \[4\]: with `n ≥ 3f + 1`,
//!
//! * if the broadcaster is correct, every correct process delivers its
//!   value (validity);
//! * if any correct process delivers `v`, every correct process delivers
//!   `v` (totality + consistency) — a Byzantine broadcaster cannot make two
//!   correct processes deliver different values.
//!
//! Thresholds used (the classic ones): echo on first INIT; ready on
//! `⌈(n+f+1)/2⌉` matching ECHOs or `f+1` matching READYs; deliver on
//! `2f+1` matching READYs.
//!
//! [`BrachaInstance`] is a pure state machine keyed by one `(broadcaster,
//! tag)` pair; protocols embed as many instances as they need (Verified
//! Averaging uses one per process per round).

use crate::config::ProcessId;

/// Wire message of one reliable-broadcast instance.
#[derive(Debug, Clone, PartialEq)]
pub enum BrachaMsg<V> {
    /// Broadcaster's initial proposal.
    Init(V),
    /// Witness echo.
    Echo(V),
    /// Delivery vote.
    Ready(V),
}

/// Per-instance state machine. `V` must support exact equality (honest
/// processes relay bit-exact copies).
#[derive(Debug, Clone)]
pub struct BrachaInstance<V> {
    n: usize,
    f: usize,
    sent_echo: bool,
    sent_ready: bool,
    delivered: Option<V>,
    echoes: Tally<V>,
    readies: Tally<V>,
}

/// Actions the caller must perform after feeding an event.
#[derive(Debug, Clone, Default)]
pub struct BrachaActions<V> {
    /// Message to broadcast to every process (including self); every event
    /// emits at most one.
    pub broadcast: Option<BrachaMsg<V>>,
    /// Value delivered by this event, if any (at most once per instance).
    pub delivered: Option<V>,
}

impl<V: Clone + PartialEq> BrachaInstance<V> {
    /// New instance for a system of `n` processes, up to `f` Byzantine.
    ///
    /// # Panics
    /// Panics unless `n ≥ 3f + 1` (Bracha's requirement).
    #[must_use]
    pub fn new(n: usize, f: usize) -> Self {
        assert!(n > 3 * f, "Bracha RB requires n >= 3f + 1");
        BrachaInstance {
            n,
            f,
            sent_echo: false,
            sent_ready: false,
            delivered: None,
            echoes: Tally::new(n),
            readies: Tally::new(n),
        }
    }

    /// Echo quorum `⌈(n + f + 1) / 2⌉`.
    #[must_use]
    pub fn echo_quorum(&self) -> usize {
        (self.n + self.f + 1).div_ceil(2)
    }

    /// Start the broadcast as the broadcaster: emits INIT.
    #[must_use]
    pub fn start(&mut self, value: V) -> BrachaActions<V> {
        BrachaActions { broadcast: Some(BrachaMsg::Init(value)), delivered: None }
    }

    /// Feed a received message; returns the actions to take.
    #[must_use]
    pub fn on_message(
        &mut self,
        from: ProcessId,
        broadcaster: ProcessId,
        msg: BrachaMsg<V>,
    ) -> BrachaActions<V> {
        let mut actions = BrachaActions { broadcast: None, delivered: None };
        // Receive-boundary hardening: a message claiming an out-of-range
        // sender or broadcaster id is malformed by construction (no such
        // process exists) and must not touch the tallies.
        if from >= self.n || broadcaster >= self.n {
            return actions;
        }
        match msg {
            BrachaMsg::Init(v) => {
                // Only the broadcaster's own INIT counts.
                if from == broadcaster && !self.sent_echo {
                    self.sent_echo = true;
                    actions.broadcast = Some(BrachaMsg::Echo(v));
                }
            }
            BrachaMsg::Echo(v) => {
                let count = self.echoes.record(&v, from);
                if count >= self.echo_quorum() && !self.sent_ready {
                    self.sent_ready = true;
                    actions.broadcast = Some(BrachaMsg::Ready(v));
                }
            }
            BrachaMsg::Ready(v) => {
                let count = self.readies.record(&v, from);
                if count > self.f && !self.sent_ready {
                    self.sent_ready = true;
                    actions.broadcast = Some(BrachaMsg::Ready(v.clone()));
                }
                if count > 2 * self.f && self.delivered.is_none() {
                    self.delivered = Some(v.clone());
                    actions.delivered = Some(v);
                }
            }
        }
        actions
    }

    /// The delivered value, if any.
    #[must_use]
    pub fn delivered(&self) -> Option<&V> {
        self.delivered.as_ref()
    }
}

/// The votes of one kind (ECHO or READY): a count per distinct value, in
/// first-vote order, and who has voted at all.
#[derive(Debug, Clone)]
struct Tally<V> {
    counts: Vec<(V, usize)>,
    voters: Voters,
}

impl<V: Clone + PartialEq> Tally<V> {
    fn new(n: usize) -> Self {
        Tally { counts: Vec::new(), voters: Voters::new(n) }
    }

    /// Record `sender` as having voted for `value`; return the count of
    /// distinct senders for that value.
    ///
    /// One vote per sender, across *all* values: an honest process sends at
    /// most one ECHO and one READY per instance, so only equivocators are
    /// affected — and crediting an equivocator's first value only weakens it.
    /// The side effect is a hard memory bound: the tally holds at most one
    /// entry per process, so a Byzantine value-flood (a fresh value in every
    /// message) cannot grow state without bound.
    fn record(&mut self, value: &V, sender: ProcessId) -> usize {
        let fresh = self.voters.insert(sender);
        match self.counts.iter_mut().find(|(v, _)| v == value) {
            Some((_, count)) => {
                *count += usize::from(fresh);
                *count
            }
            None if fresh => {
                self.counts.push((value.clone(), 1));
                1
            }
            None => 0,
        }
    }
}

/// A set of process ids below `n`, one bit each in ⌈n/64⌉ words: the first
/// word inline, so a system of up to 64 processes allocates nothing.
#[derive(Debug, Clone)]
struct Voters {
    low: u64,
    high: Vec<u64>,
}

impl Voters {
    fn new(n: usize) -> Self {
        Voters { low: 0, high: vec![0; n.div_ceil(64).saturating_sub(1)] }
    }

    /// Add `id` (below `n`); false if it was already in.
    fn insert(&mut self, id: ProcessId) -> bool {
        let word = match id / 64 {
            0 => &mut self.low,
            k => &mut self.high[k - 1],
        };
        let bit = 1 << (id % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Drive a full broadcast among honest processes "by hand": a tiny
    /// synchronous interpretation sufficient for state-machine unit tests.
    /// (End-to-end asynchronous runs live in the consensus-layer tests.)
    fn run_honest_broadcast(n: usize, f: usize, value: i64) -> Vec<Option<i64>> {
        let broadcaster: ProcessId = 0;
        let mut instances: Vec<BrachaInstance<i64>> =
            (0..n).map(|_| BrachaInstance::new(n, f)).collect();
        let mut inflight: Vec<(ProcessId, ProcessId, BrachaMsg<i64>)> = Vec::new();

        let start = instances[broadcaster].start(value);
        if let Some(m) = start.broadcast {
            for dst in 0..n {
                inflight.push((broadcaster, dst, m.clone()));
            }
        }
        let mut delivered: Vec<Option<i64>> = vec![None; n];
        while let Some((src, dst, msg)) = inflight.pop() {
            let actions = instances[dst].on_message(src, broadcaster, msg);
            if let Some(v) = actions.delivered {
                delivered[dst] = Some(v);
            }
            if let Some(m) = actions.broadcast {
                for to in 0..n {
                    inflight.push((dst, to, m.clone()));
                }
            }
        }
        delivered
    }

    #[test]
    fn honest_broadcast_delivers_everywhere() {
        for (n, f) in [(4, 1), (7, 2), (10, 3)] {
            let delivered = run_honest_broadcast(n, f, 42);
            for (i, d) in delivered.iter().enumerate() {
                assert_eq!(*d, Some(42), "process {i} failed to deliver (n={n},f={f})");
            }
        }
    }

    #[test]
    fn echo_quorum_values() {
        let inst = BrachaInstance::<i64>::new(4, 1);
        assert_eq!(inst.echo_quorum(), 3);
        let inst = BrachaInstance::<i64>::new(7, 2);
        assert_eq!(inst.echo_quorum(), 5);
    }

    #[test]
    #[should_panic(expected = "n >= 3f + 1")]
    fn rejects_insufficient_n() {
        let _ = BrachaInstance::<i64>::new(3, 1);
    }

    #[test]
    fn init_from_non_broadcaster_is_ignored() {
        let mut inst = BrachaInstance::new(4, 1);
        let a = inst.on_message(2, 0, BrachaMsg::Init(5));
        assert!(a.broadcast.is_none(), "forged INIT must not trigger an echo");
        let a = inst.on_message(0, 0, BrachaMsg::Init(5));
        assert_eq!(a.broadcast, Some(BrachaMsg::Echo(5)));
    }

    #[test]
    fn echo_threshold_triggers_single_ready() {
        let mut inst = BrachaInstance::new(4, 1);
        assert!(inst.on_message(0, 0, BrachaMsg::Echo(9)).broadcast.is_none());
        assert!(inst.on_message(1, 0, BrachaMsg::Echo(9)).broadcast.is_none());
        let a = inst.on_message(2, 0, BrachaMsg::Echo(9));
        assert_eq!(a.broadcast, Some(BrachaMsg::Ready(9)));
        // Further echoes do not re-trigger.
        let a = inst.on_message(3, 0, BrachaMsg::Echo(9));
        assert!(a.broadcast.is_none());
    }

    #[test]
    fn duplicate_senders_do_not_inflate_tallies() {
        let mut inst = BrachaInstance::new(4, 1);
        for _ in 0..10 {
            let a = inst.on_message(1, 0, BrachaMsg::Echo(7));
            assert!(a.broadcast.is_none(), "one sender cannot reach quorum alone");
        }
    }

    #[test]
    fn ready_amplification_from_f_plus_one() {
        // f+1 READYs make a process send READY even without echo quorum.
        let mut inst = BrachaInstance::new(4, 1);
        assert!(inst.on_message(1, 0, BrachaMsg::Ready(3)).broadcast.is_none());
        let a = inst.on_message(2, 0, BrachaMsg::Ready(3));
        assert_eq!(a.broadcast, Some(BrachaMsg::Ready(3)));
    }

    #[test]
    fn delivery_needs_two_f_plus_one_readies() {
        let mut inst = BrachaInstance::new(4, 1);
        let _ = inst.on_message(1, 0, BrachaMsg::Ready(3));
        let _ = inst.on_message(2, 0, BrachaMsg::Ready(3));
        assert!(inst.delivered().is_none());
        let a = inst.on_message(3, 0, BrachaMsg::Ready(3));
        assert_eq!(a.delivered, Some(3));
        assert_eq!(inst.delivered(), Some(&3));
        // Delivery happens at most once.
        let a = inst.on_message(0, 0, BrachaMsg::Ready(3));
        assert!(a.delivered.is_none());
    }

    #[test]
    fn out_of_range_sender_is_rejected() {
        let mut inst = BrachaInstance::new(4, 1);
        for bogus in [4usize, 7, usize::MAX] {
            let a = inst.on_message(bogus, 0, BrachaMsg::Echo(9));
            assert!(a.broadcast.is_none());
        }
        assert!(inst.echoes.counts.is_empty(), "malformed senders must not tally");
        let a = inst.on_message(0, 9, BrachaMsg::Init(9));
        assert!(a.broadcast.is_none(), "out-of-range broadcaster rejected");
    }

    #[test]
    fn value_flood_from_one_sender_is_memory_bounded() {
        // A Byzantine sender spraying a fresh value per message used to
        // allocate a tally entry each time; now only its first vote lands.
        let mut inst = BrachaInstance::new(4, 1);
        for v in 0..1000i64 {
            let _ = inst.on_message(1, 0, BrachaMsg::Echo(v));
        }
        assert_eq!(inst.echoes.counts.len(), 1, "one entry per sender, ever");
        // The flood must not have poisoned quorum progress for the honest
        // value: three *other* senders still reach the echo quorum.
        let _ = inst.on_message(0, 0, BrachaMsg::Echo(7));
        let _ = inst.on_message(2, 0, BrachaMsg::Echo(7));
        let a = inst.on_message(3, 0, BrachaMsg::Echo(7));
        assert_eq!(a.broadcast, Some(BrachaMsg::Ready(7)));
    }

    #[test]
    fn equivocating_sender_gets_only_first_vote() {
        let mut inst = BrachaInstance::new(4, 1);
        let _ = inst.on_message(1, 0, BrachaMsg::Ready(1));
        let _ = inst.on_message(1, 0, BrachaMsg::Ready(2));
        let _ = inst.on_message(2, 0, BrachaMsg::Ready(2));
        // Sender 1's vote for 2 was discarded (it voted 1 first), so value
        // 2 has a single distinct voter — below the f+1 amplification bar.
        let a = inst.on_message(2, 0, BrachaMsg::Ready(2));
        assert!(a.broadcast.is_none());
    }

    #[test]
    fn split_echoes_cannot_produce_two_readies() {
        // A two-faced broadcaster splits echoes between values 1 and 2:
        // with n = 4, f = 1 the echo quorum is 3, so at most one value can
        // reach it (2 + 2 split never does).
        let mut inst = BrachaInstance::new(4, 1);
        let _ = inst.on_message(0, 0, BrachaMsg::Echo(1));
        let _ = inst.on_message(1, 0, BrachaMsg::Echo(1));
        let _ = inst.on_message(2, 0, BrachaMsg::Echo(2));
        let a = inst.on_message(3, 0, BrachaMsg::Echo(2));
        assert!(a.broadcast.is_none(), "neither split side may reach quorum");
    }

    /// The instance as it was before the bitset tallies, kept as the model:
    /// a list of distinct voters per value, a list of actions per event.
    struct Model {
        n: usize,
        f: usize,
        sent_echo: bool,
        sent_ready: bool,
        delivered: Option<i64>,
        echoes: Vec<(i64, Vec<ProcessId>)>,
        readies: Vec<(i64, Vec<ProcessId>)>,
    }

    impl Model {
        fn on_message(
            &mut self,
            from: ProcessId,
            broadcaster: ProcessId,
            msg: BrachaMsg<i64>,
        ) -> (Vec<BrachaMsg<i64>>, Option<i64>) {
            let (mut broadcast, mut delivered) = (Vec::new(), None);
            if from >= self.n || broadcaster >= self.n {
                return (broadcast, delivered);
            }
            match msg {
                BrachaMsg::Init(v) => {
                    if from == broadcaster && !self.sent_echo {
                        self.sent_echo = true;
                        broadcast.push(BrachaMsg::Echo(v));
                    }
                }
                BrachaMsg::Echo(v) => {
                    let count = model_record(&mut self.echoes, &v, from);
                    if count >= (self.n + self.f + 1).div_ceil(2) && !self.sent_ready {
                        self.sent_ready = true;
                        broadcast.push(BrachaMsg::Ready(v));
                    }
                }
                BrachaMsg::Ready(v) => {
                    let count = model_record(&mut self.readies, &v, from);
                    if count > self.f && !self.sent_ready {
                        self.sent_ready = true;
                        broadcast.push(BrachaMsg::Ready(v));
                    }
                    if count > 2 * self.f && self.delivered.is_none() {
                        self.delivered = Some(v);
                        delivered = Some(v);
                    }
                }
            }
            (broadcast, delivered)
        }
    }

    fn model_record(
        tallies: &mut Vec<(i64, Vec<ProcessId>)>,
        value: &i64,
        sender: ProcessId,
    ) -> usize {
        let already_voted = tallies.iter().any(|(_, senders)| senders.contains(&sender));
        if let Some((_, senders)) = tallies.iter_mut().find(|(v, _)| v == value) {
            if !already_voted {
                senders.push(sender);
            }
            return senders.len();
        }
        if already_voted {
            return 0;
        }
        tallies.push((*value, vec![sender]));
        1
    }

    proptest! {
        // A release build runs the model test at 1024× the cases.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 65_536 }))]

        /// Random ECHO / READY / INIT streams — equivocators voting for
        /// several values, senders repeating themselves, ids past `n` on
        /// either side — drive the instance and the model in step: the same
        /// action and the same delivery at every event, and the same count
        /// per value after it, on both sides of a 64-bit word boundary.
        #[test]
        fn bitset_tallies_match_the_voter_lists(seed in 0u64..u64::MAX, shape in 0usize..5) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let n = [4, 7, 64, 65, 130][shape];
            let f = (n - 1) / 3;
            let mut rng = StdRng::seed_from_u64(seed);
            let broadcaster = if rng.gen_bool(0.9) { rng.gen_range(0..n) } else { n };
            let equivocators: Vec<ProcessId> =
                (0..rng.gen_range(0..=f + 1)).map(|_| rng.gen_range(0..n)).collect();
            let mut instance = BrachaInstance::new(n, f);
            let mut model = Model {
                n,
                f,
                sent_echo: false,
                sent_ready: false,
                delivered: None,
                echoes: Vec::new(),
                readies: Vec::new(),
            };
            for _ in 0..rng.gen_range(0..5 * n) {
                let from =
                    if rng.gen_bool(0.05) { n + rng.gen_range(0..70) } else { rng.gen_range(0..n) };
                let value = if equivocators.contains(&from) { rng.gen_range(0..4) } else { 1 };
                let msg = match rng.gen_range(0..5) {
                    0 => BrachaMsg::Init(value),
                    1 | 2 => BrachaMsg::Echo(value),
                    _ => BrachaMsg::Ready(value),
                };
                let actions = instance.on_message(from, broadcaster, msg.clone());
                let (broadcast, delivered) = model.on_message(from, broadcaster, msg);
                prop_assert!(broadcast.len() <= 1, "{:?}", broadcast);
                prop_assert_eq!(actions.broadcast, broadcast.first().cloned());
                prop_assert_eq!(actions.delivered, delivered);
                prop_assert_eq!(instance.delivered(), model.delivered.as_ref());
                let kinds = [(&instance.echoes, &model.echoes), (&instance.readies, &model.readies)];
                for (tally, lists) in kinds {
                    let counts: Vec<(i64, usize)> =
                        lists.iter().map(|(v, voters)| (*v, voters.len())).collect();
                    prop_assert_eq!(tally.counts, counts);
                }
            }
        }
    }
}
