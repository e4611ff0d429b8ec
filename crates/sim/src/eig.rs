//! Exponential Information Gathering (EIG) Byzantine broadcast.
//!
//! The paper's algorithm ALGO (§9) starts with "each process performs a
//! Byzantine broadcast of its input … by using any Byzantine broadcast
//! algorithm, such as \[12\]; `n ≥ 3f + 1` suffices". EIG is the textbook
//! unauthenticated protocol meeting that contract in a complete network:
//!
//! * `f + 1` lockstep rounds;
//! * each process maintains a tree of *labels* — sequences of distinct
//!   process ids rooted at the sender — where `val(σ·i)` records "process
//!   `i` said that `val(σ)`";
//! * after the last round the root is resolved bottom-up by strict majority
//!   over children, with a fixed default value breaking the no-majority
//!   case.
//!
//! Guarantees for `n > 3f` (validated by the tests and relied on throughout
//! `rbvc-core`): all correct processes decide the *same* value, and if the
//! sender is correct they decide the sender's value.
//!
//! [`ParallelEig`] runs the `n` broadcasts (one sender each) in the same
//! `f + 1` rounds — exactly Step 1 of ALGO, producing the identical multiset
//! `S` at every correct process — on one dense tree: a label is never a key
//! but an address. The labels of length `ℓ` are the `ℓ`-digit base-`n`
//! numbers, so level `ℓ` is an array of `n^ℓ` slots in lexicographic label
//! order (those of labels with a repeated id stay empty), and a slot holds
//! an index into the process's table of distinct values. What a process can
//! hold is therefore a fixed function of `(n, f)`: a Byzantine label flood
//! has no slot to land in.

use std::iter::repeat_n;
use std::sync::Arc;

use crate::config::ProcessId;
use crate::sync::SyncProtocol;

/// The receive-boundary predicate of a [`ParallelEig`]: `ok(value, default)`
/// is asked of every value as it is read off the wire, with the instance's
/// default beside it so that shape (e.g. dimension) can be checked without a
/// capture. A rejected item is dropped exactly as a malformed label is, so
/// its sender's slot ends at the default.
pub type ValueCheck<V> = fn(value: &V, default: &V) -> bool;

/// What one process says in one round, about all `n` broadcasts: relay items
/// "(label σ, value)" grouped into entries, one entry per broadcast an
/// honest process relays for. Flat — every label has the same length
/// (`round + 1`), so the labels share one buffer, and items carrying the same
/// value share one copy of it.
#[derive(Debug, Clone)]
pub struct EigRound<V> {
    stride: usize,
    /// `(origin, items)` per entry: whose broadcast, and how many of the
    /// items that follow belong to it.
    entries: Vec<(ProcessId, usize)>,
    /// The items back to back, `stride + 1` words each: the label's ids, then
    /// where the item's value is in `values`.
    items: Vec<usize>,
    values: Vec<V>,
}

/// Wire message of [`ParallelEig`]: built once a round, shared by every
/// destination.
pub type EigMsg<V> = Arc<EigRound<V>>;

impl<V> EigRound<V> {
    /// An empty message whose labels have `stride ≥ 1` ids, with room for
    /// `entries` entries and `items` items.
    #[must_use]
    pub fn with_capacity(stride: usize, entries: usize, items: usize) -> Self {
        assert!(stride >= 1, "a label starts at its broadcast's sender");
        EigRound {
            stride,
            entries: Vec::with_capacity(entries),
            items: Vec::with_capacity(items * (stride + 1)),
            values: Vec::with_capacity(entries),
        }
    }

    /// Open the next entry: the items pushed from here on are about
    /// `origin`'s broadcast.
    pub fn begin(&mut self, origin: ProcessId) {
        self.entries.push((origin, 0));
    }

    /// Append an item to the open entry.
    ///
    /// # Panics
    /// Panics without an open entry or on a label not `stride` ids long.
    pub fn push(&mut self, label: &[ProcessId], value: V) {
        self.values.push(value);
        self.push_shared(label);
    }

    /// Append an item carrying the value pushed last, without a second copy.
    ///
    /// # Panics
    /// As [`Self::push`], and when no value was pushed yet.
    pub fn push_shared(&mut self, label: &[ProcessId]) {
        assert_eq!(label.len(), self.stride, "label length is fixed per message");
        self.entries.last_mut().expect("an open entry").1 += 1;
        self.items.extend_from_slice(label);
        self.items.push(self.values.len().checked_sub(1).expect("a value to share"));
    }

    /// `(origin, items)` of every entry, in order.
    #[must_use]
    pub fn entries(&self) -> &[(ProcessId, usize)] {
        &self.entries
    }

    /// Every item as `(origin, label, value)`, entry by entry.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &[ProcessId], &V)> {
        self.indexed().map(|(origin, label, v)| (origin, label, &self.values[v]))
    }

    /// [`Self::iter`] with the value's place in `values` for the value.
    fn indexed(&self) -> impl Iterator<Item = (ProcessId, &[ProcessId], usize)> {
        let origins = self.entries.iter().flat_map(|&(origin, items)| repeat_n(origin, items));
        origins
            .zip(self.items.chunks_exact(self.stride + 1))
            .map(|(origin, item)| (origin, &item[..self.stride], item[self.stride]))
    }
}

/// Item for item; which items share a copy of their value does not count.
impl<V: PartialEq> PartialEq for EigRound<V> {
    fn eq(&self, other: &Self) -> bool {
        (self.stride, &self.entries) == (other.stride, &other.entries)
            && self.iter().eq(other.iter())
    }
}

/// A slot nothing was written to.
const EMPTY: u32 = u32::MAX;
/// [`ParallelEig::seen`] entry of a value the [`ValueCheck`] refused.
const REJECTED: u32 = u32::MAX - 1;

fn distinct(label: &[ProcessId]) -> bool {
    label.iter().enumerate().all(|(i, id)| !label[i + 1..].contains(id))
}

/// The label that `code` is when read as `label.len()` base-`n` digits.
fn write_label(mut code: usize, n: usize, label: &mut [ProcessId]) {
    for id in label.iter_mut().rev() {
        *id = code % n;
        code /= n;
    }
}

/// `n` parallel EIG broadcasts — every process broadcasts its own input —
/// as one process sees them, packaged as a [`SyncProtocol`].
pub struct ParallelEig<V> {
    my_id: ProcessId,
    n: usize,
    f: usize,
    input: V,
    accept: ValueCheck<V>,
    /// The distinct (by `==`) values the tree holds, the default first.
    values: Vec<V>,
    /// `val(σ)` as an index into `values`, for every label σ of up to
    /// `f + 1` ids: level by level, within a level at σ read as a base-`n`
    /// number. Allocated in round 0.
    slots: Vec<u32>,
    /// Scratch of one message: its value indices in terms of `values`' (and
    /// the other way round while one is built).
    seen: Vec<u32>,
    decided: Option<Vec<V>>,
}

impl<V: Clone + PartialEq> ParallelEig<V> {
    /// Process `my_id`'s end of the `n` broadcasts, sending `input` on its
    /// own; a broadcast nothing usable arrived for ends at `default`.
    ///
    /// # Panics
    /// Panics unless `n > 3f`.
    #[must_use]
    pub fn new(my_id: ProcessId, n: usize, f: usize, input: V, default: V) -> Self {
        assert!(n > 3 * f, "EIG requires n > 3f");
        ParallelEig {
            my_id,
            n,
            f,
            input,
            accept: |_, _| true,
            values: vec![default],
            slots: Vec::new(),
            seen: Vec::new(),
            decided: None,
        }
    }

    /// Drop every received value failing `ok` (the default accepts all).
    #[must_use]
    pub fn accepting(mut self, ok: ValueCheck<V>) -> Self {
        self.accept = ok;
        self
    }

    /// What a Byzantine process can do to the values inside one of its
    /// outgoing messages: `edit(origin, value)` visits each carried value,
    /// with the id of the broadcast it belongs to, and may overwrite it. The
    /// message is unshared first, so the other destinations keep theirs.
    pub fn tamper(msg: &mut EigMsg<V>, mut edit: impl FnMut(ProcessId, &mut V)) {
        let msg = Arc::make_mut(msg);
        // One value per item, as an adversary sees them.
        let mut values: Vec<V> = msg.iter().map(|(_, _, value)| value.clone()).collect();
        msg.indexed().zip(&mut values).for_each(|((origin, ..), value)| edit(origin, value));
        let at = msg.items.iter_mut().skip(msg.stride).step_by(msg.stride + 1);
        at.enumerate().for_each(|(item, v)| *v = item);
        msg.values = values;
    }

    /// Where the level of the labels with `len` ids starts in `slots`.
    fn level(&self, len: usize) -> usize {
        (1..len).map(|l| self.n.pow(l as u32)).sum()
    }

    fn grow_tree(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![EMPTY; self.level(self.f + 2)];
        }
    }

    /// The index of `value` in the table, appended if it is new.
    fn intern(&mut self, value: &V) -> u32 {
        let at = self.values.iter().position(|v| v == value).unwrap_or_else(|| {
            self.values.push(value.clone());
            self.values.len() - 1
        });
        at as u32
    }

    /// Resolve the tree after `f + 1` rounds, bottom-up and in place: a leaf
    /// nothing reached is the default, an inner label the strict majority of
    /// its children σ·j, j ∉ σ, or the default without one. One value per
    /// broadcast, always.
    fn resolve(&mut self) -> Vec<V> {
        let n = self.n;
        let leaves = self.level(self.f + 1);
        self.slots[leaves..].iter_mut().filter(|s| **s == EMPTY).for_each(|s| *s = 0);
        let mut label = vec![0; self.f];
        for len in (1..=self.f).rev() {
            let (level, below) = (self.level(len), self.level(len + 1));
            let label = &mut label[..len];
            for code in 0..n.pow(len as u32) {
                write_label(code, n, label);
                if !distinct(label) {
                    continue;
                }
                let kids = (0..n).filter(|j| !label.contains(j)).map(|j| below + code * n + j);
                // Boyer–Moore: the only value that can hold a strict majority.
                let (mut leader, mut lead) = (0, 0usize);
                for kid in kids.clone() {
                    if lead == 0 {
                        leader = self.slots[kid];
                    }
                    lead = if self.slots[kid] == leader { lead + 1 } else { lead - 1 };
                }
                let votes = kids.filter(|&kid| self.slots[kid] == leader).count();
                self.slots[level + code] = if votes > (n - len) / 2 { leader } else { 0 };
            }
        }
        self.slots[..n].iter().map(|&v| self.values[v as usize].clone()).collect()
    }
}

impl<V: Clone + PartialEq> SyncProtocol for ParallelEig<V> {
    type Msg = EigMsg<V>;
    type Output = Vec<V>;

    /// Round 0: my input under the root label of my own broadcast. Round
    /// `r ≥ 1`: every label of `r` ids the tree holds that does not contain
    /// my id, with my id appended, in label order. An entry per broadcast
    /// either way, and the one message for every destination.
    fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, Self::Msg)> {
        if round > self.f {
            return Vec::new();
        }
        self.grow_tree();
        let (n, me) = (self.n, self.my_id);
        let per_origin = n.pow(round.saturating_sub(1) as u32);
        let mut msg = EigRound::with_capacity(round + 1, n, n * per_origin);
        if round == 0 {
            for origin in 0..n {
                msg.begin(origin);
                if origin == me {
                    msg.push(&[me], self.input.clone());
                }
            }
        } else {
            let level = self.level(round);
            let mut label = vec![me; round + 1];
            self.seen.clear();
            self.seen.resize(self.values.len(), EMPTY);
            for code in 0..n * per_origin {
                if code % per_origin == 0 {
                    msg.begin(code / per_origin);
                }
                let value = self.slots[level + code] as usize;
                if value == EMPTY as usize {
                    continue;
                }
                write_label(code, n, &mut label[..round]);
                if label[..round].contains(&me) {
                    continue;
                }
                if self.seen[value] == EMPTY {
                    self.seen[value] = msg.values.len() as u32;
                    msg.values.push(self.values[value].clone());
                }
                msg.entries[code / per_origin].1 += 1;
                msg.items.extend_from_slice(&label);
                msg.items.push(self.seen[value] as usize);
            }
        }
        let msg = Arc::new(msg);
        (0..n).map(|dst| (dst, Arc::clone(&msg))).collect()
    }

    /// Absorb the round's messages, writing only well-addressed items: the
    /// round's level, rooted at their entry's broadcast, last id the wire
    /// sender, ids in range and distinct — what makes a label a slot of this
    /// tree — then a value the [`ValueCheck`] accepts, first writer wins.
    fn receive(&mut self, round: usize, inbox: &[(ProcessId, Self::Msg)]) {
        if round > self.f || self.decided.is_some() {
            return;
        }
        self.grow_tree();
        let (n, level) = (self.n, self.level(round + 1));
        for (from, msg) in inbox {
            if *from >= n || msg.stride != round + 1 {
                continue; // no such process, or not this level: nothing to address
            }
            self.seen.clear();
            self.seen.resize(msg.values.len(), EMPTY);
            for (origin, label, v) in msg.indexed() {
                // Out-of-range ids would be stored, then *relayed* by honest
                // processes in the next round — a Byzantine label-flood vector.
                if label[0] != origin
                    || label[round] != *from
                    || label.iter().any(|&id| id >= n)
                    || !distinct(label)
                {
                    continue;
                }
                let slot = level + label.iter().fold(0, |code, id| code * n + id);
                if self.slots[slot] != EMPTY {
                    continue;
                }
                if self.seen[v] == EMPTY {
                    let ok = (self.accept)(&msg.values[v], &self.values[0]);
                    self.seen[v] = if ok { self.intern(&msg.values[v]) } else { REJECTED };
                }
                if self.seen[v] != REJECTED {
                    self.slots[slot] = self.seen[v];
                }
            }
        }
        // The sender trusts its own input for the root label.
        if round == 0 {
            let input = self.input.clone();
            self.slots[self.my_id] = self.intern(&input);
        }
        if round == self.f {
            self.decided = Some(self.resolve());
        }
    }

    fn output(&self) -> Option<Vec<V>> {
        self.decided.clone()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    use super::*;
    use crate::config::SystemConfig;
    use crate::fuzz::{lying_relay, two_faced, FuzzAdversary, PayloadGen, SilentAdversary};
    use crate::sync::{RoundEngine, SyncNode};

    type Nodes = Vec<SyncNode<ParallelEig<i64>>>;

    fn honest(id: usize, n: usize, f: usize, input: i64) -> SyncNode<ParallelEig<i64>> {
        SyncNode::Honest(ParallelEig::new(id, n, f, input, i64::MIN))
    }

    fn run(config: SystemConfig, nodes: Nodes, f: usize) -> Vec<Option<Vec<i64>>> {
        let mut engine = RoundEngine::new(config, nodes);
        engine.run(f + 2).decisions
    }

    /// A message of `(origin, label, value)` items, an entry per run of one origin.
    fn msg(stride: usize, items: &[(ProcessId, &[ProcessId], i64)]) -> EigMsg<i64> {
        let mut msg = EigRound::with_capacity(stride, 0, 0);
        for (k, &(origin, label, value)) in items.iter().enumerate() {
            if k == 0 || items[k - 1].0 != origin {
                msg.begin(origin);
            }
            msg.push(label, value);
        }
        Arc::new(msg)
    }

    /// What `p` holds under `label`.
    fn val(p: &ParallelEig<i64>, label: &[ProcessId]) -> Option<i64> {
        let slot = p.level(label.len()) + label.iter().fold(0, |code, id| code * p.n + id);
        (p.slots[slot] != EMPTY).then(|| p.values[p.slots[slot] as usize])
    }

    fn written(p: &ParallelEig<i64>) -> usize {
        p.slots.iter().filter(|s| **s != EMPTY).count()
    }

    #[test]
    fn all_honest_broadcast_delivers_inputs() {
        let (n, f) = (4, 1);
        let config = SystemConfig::new(n, f);
        let nodes: Nodes = (0..n).map(|i| honest(i, n, f, 10 + i as i64)).collect();
        let decisions = run(config, nodes, f);
        for d in decisions {
            assert_eq!(d.unwrap(), vec![10, 11, 12, 13]);
        }
    }

    #[test]
    fn f_zero_single_round() {
        let (n, f) = (3, 0);
        let config = SystemConfig::new(n, f);
        let nodes: Nodes = (0..n).map(|i| honest(i, n, f, i as i64)).collect();
        let mut engine = RoundEngine::new(config, nodes);
        let out = engine.run(3);
        assert_eq!(out.rounds, 1, "f = 0 EIG completes in one round");
        for d in out.decisions {
            assert_eq!(d.unwrap(), vec![0, 1, 2]);
        }
    }

    #[test]
    fn silent_byzantine_yields_default_consistently() {
        let (n, f) = (4, 1);
        let config = SystemConfig::new(n, f).with_faulty(vec![2]);
        let mut nodes: Nodes = Vec::new();
        for i in 0..n {
            if i == 2 {
                nodes.push(SyncNode::Byzantine(Box::new(SilentAdversary)));
            } else {
                nodes.push(honest(i, n, f, i as i64));
            }
        }
        let decisions = run(config, nodes, f);
        let reference: Vec<i64> = decisions[0].clone().unwrap();
        // Agreement among correct processes, including on the silent slot.
        for (i, d) in decisions.iter().enumerate() {
            if i != 2 {
                assert_eq!(d.as_ref().unwrap(), &reference, "process {i} disagrees");
            }
        }
        // Validity for correct senders.
        assert_eq!(reference[0], 0);
        assert_eq!(reference[1], 1);
        assert_eq!(reference[3], 3);
        // The faulty slot resolves to the default.
        assert_eq!(reference[2], i64::MIN);
    }

    #[test]
    fn two_faced_sender_cannot_split_correct_processes() {
        let (n, f) = (4, 1);
        let config = SystemConfig::new(n, f).with_faulty(vec![3]);
        let mut nodes: Nodes = (0..3).map(|i| honest(i, n, f, i as i64)).collect();
        nodes.push(SyncNode::Byzantine(Box::new(two_faced(
            3,
            n,
            f,
            vec![100, 200, 300, 400],
            i64::MIN,
        ))));
        let decisions = run(config, nodes, f);
        let reference = decisions[0].clone().unwrap();
        for (i, d) in decisions.iter().enumerate().take(3).skip(1) {
            assert_eq!(
                d.as_ref().unwrap(),
                &reference,
                "EIG agreement violated by equivocating sender (process {i})"
            );
        }
        // Correct senders' values undamaged.
        assert_eq!(reference[..3], [0, 1, 2]);
    }

    #[test]
    fn lying_relay_cannot_corrupt_correct_senders() {
        let (n, f) = (5, 1);
        let config = SystemConfig::new(n, f).with_faulty(vec![4]);
        let mut nodes: Nodes = (0..4).map(|i| honest(i, n, f, 7 * i as i64)).collect();
        nodes.push(SyncNode::Byzantine(Box::new(lying_relay(
            4,
            n,
            f,
            999,
            i64::MIN,
            -12345,
        ))));
        let decisions = run(config, nodes, f);
        let reference = decisions[0].clone().unwrap();
        for d in decisions.iter().take(4).skip(1) {
            assert_eq!(d.as_ref().unwrap(), &reference);
        }
        // Validity: honest senders 0..3 deliver their true inputs despite
        // the lying relays of process 4.
        assert_eq!(reference[..4], [0, 7, 14, 21]);
    }

    #[test]
    fn two_faults_with_seven_processes() {
        let (n, f) = (7, 2);
        let config = SystemConfig::new(n, f).with_faulty(vec![1, 5]);
        let mut nodes: Nodes = Vec::new();
        for i in 0..n {
            match i {
                1 => nodes.push(SyncNode::Byzantine(Box::new(two_faced(
                    1,
                    n,
                    f,
                    (0..n as i64).map(|j| 1000 + j).collect(),
                    i64::MIN,
                )))),
                5 => nodes.push(SyncNode::Byzantine(Box::new(lying_relay(
                    5, n, f, 555, i64::MIN, -777,
                )))),
                _ => nodes.push(honest(i, n, f, i as i64)),
            }
        }
        let decisions = run(config, nodes, f);
        let correct: Vec<usize> = vec![0, 2, 3, 4, 6];
        let reference = decisions[correct[0]].clone().unwrap();
        for &i in &correct[1..] {
            assert_eq!(
                decisions[i].as_ref().unwrap(),
                &reference,
                "agreement violated at process {i} with two colluding faults"
            );
        }
        for &i in &correct {
            assert_eq!(reference[i], i as i64, "validity violated for sender {i}");
        }
    }

    #[test]
    fn vector_values_broadcast_exactly() {
        // The consensus layer broadcasts Vec<f64> inputs; exercise that here.
        let (n, f) = (4, 1);
        let config = SystemConfig::new(n, f);
        let nodes: Vec<SyncNode<ParallelEig<Vec<u64>>>> = (0..n)
            .map(|i| {
                SyncNode::Honest(ParallelEig::new(
                    i,
                    n,
                    f,
                    vec![i as u64, 2 * i as u64],
                    Vec::new(),
                ))
            })
            .collect();
        let mut engine = RoundEngine::new(config, nodes);
        let out = engine.run(f + 2);
        for d in out.decisions {
            let s = d.unwrap();
            assert_eq!(s[2], vec![2, 4]);
        }
    }

    /// ALGO's Step 1 costs what the protocol says: in round `r` every
    /// process tells all `n` the `(n−1)!/(n−1−r)!` labels of `r + 1` distinct
    /// ids that end in its own id, so an all-honest run carries
    /// n²·Σ_{r=0..f} (n−1)!/(n−1−r)! items.
    #[test]
    fn an_honest_run_carries_exactly_the_protocols_items() {
        for ((n, f), expected) in [((4, 1), 64), ((5, 1), 125), ((7, 2), 1_813), ((10, 3), 58_600)] {
            let mut nodes: Vec<_> = (0..n).map(|id| ParallelEig::new(id, n, f, id as i64, -1)).collect();
            let mut items = 0;
            for round in 0..=f {
                let mut inboxes = vec![Vec::new(); n];
                for (src, node) in nodes.iter_mut().enumerate() {
                    for (dst, msg) in node.round_messages(round) {
                        items += msg.iter().count();
                        inboxes[dst].push((src, msg));
                    }
                }
                nodes.iter_mut().zip(&inboxes).for_each(|(node, inbox)| node.receive(round, inbox));
            }
            let per_pair: usize = (0..=f).map(|r| (n - r..n).product::<usize>()).sum();
            assert_eq!((items, n * n * per_pair), (expected, expected), "(n, f) = ({n}, {f})");
            assert!(nodes.iter().all(|p| p.output() == Some((0..n as i64).collect())));
        }
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn rejects_insufficient_processes() {
        let _ = ParallelEig::<i64>::new(0, 3, 1, 1, 0);
    }

    #[test]
    fn a_round_message_is_one_allocation_shared_by_every_destination() {
        let mut p = ParallelEig::<i64>::new(1, 4, 1, 7, -1);
        let round0 = p.round_messages(0);
        assert_eq!(round0.len(), 4);
        assert!(round0.iter().all(|(_, m)| Arc::ptr_eq(m, &round0[0].1)));
        assert_eq!(round0[0].1.entries(), [(0, 0), (1, 1), (2, 0), (3, 0)], "an entry per broadcast");
        assert_eq!(round0[0].1.iter().collect::<Vec<_>>(), [(1, &[1][..], &7)]);
        // Tampering un-shares: the other destinations keep the honest message.
        let mut forged = Arc::clone(&round0[2].1);
        ParallelEig::tamper(&mut forged, |origin, v| *v += origin as i64);
        assert_eq!(forged.iter().next(), Some((1, &[1][..], &8)));
        assert_eq!(round0[2].1.iter().next(), Some((1, &[1][..], &7)));
    }

    #[test]
    fn malformed_labels_are_ignored() {
        let mut p = ParallelEig::<i64>::new(0, 4, 1, 5, -1);
        // Wrong level for round 0 (length 2).
        p.receive(0, &[(2, msg(2, &[(2, &[2, 3], 9)]))]);
        // Wrong root: not the broadcast of the entry it came in.
        p.receive(0, &[(2, msg(1, &[(2, &[1], 9)]))]);
        // Last id does not match the wire sender.
        p.receive(0, &[(3, msg(1, &[(2, &[2], 9)]))]);
        assert_eq!(written(&p), 1, "only my own root");
        // Correct item accepted.
        p.receive(0, &[(2, msg(1, &[(2, &[2], 9)]))]);
        assert_eq!(val(&p, &[2]), Some(9));
        // Duplicate labels keep the first value, in a later message or the same.
        p.receive(0, &[(2, msg(1, &[(2, &[2], 42)])), (3, msg(1, &[(3, &[3], 1), (3, &[3], 2)]))]);
        assert_eq!((val(&p, &[2]), val(&p, &[3])), (Some(9), Some(1)));
        // My own root is my input, whatever a message said.
        p.receive(0, &[(0, msg(1, &[(0, &[0], 77)]))]);
        assert_eq!(val(&p, &[0]), Some(5));
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let mut p = ParallelEig::<i64>::new(0, 7, 2, 5, -1);
        // Wire sender out of range: whole message dropped.
        p.receive(0, &[(99, msg(1, &[(2, &[2], 9)]))]);
        assert_eq!(written(&p), 1);
        // A ghost origin, a ghost id and a repeated id: would be stored and relayed.
        let ghosts = msg(2, &[(77, &[77, 3], 9), (2, &[2, 3], 9), (3, &[3, 3], 9), (1, &[1, 3], 8)]);
        p.receive(1, &[(3, ghosts), (77, msg(2, &[(2, &[2, 77], 9)]))]);
        assert_eq!((val(&p, &[2, 3]), val(&p, &[1, 3])), (Some(9), Some(8)));
        assert_eq!(written(&p), 3, "well-formed parts still land, nothing else does");
        assert_eq!(p.values, [-1, 5, 9, 8], "a value is stored once");
    }

    /// The tree keyed by label that this module was before the dense one, kept
    /// as its oracle: a map insert per item, a recursive resolve.
    struct MapEig {
        me: ProcessId,
        n: usize,
        f: usize,
        input: i64,
        default: i64,
        accept: ValueCheck<i64>,
        tree: HashMap<Vec<ProcessId>, i64>,
    }

    impl MapEig {
        fn relay(&self, round: usize) -> Vec<(ProcessId, Vec<ProcessId>, i64)> {
            if round == 0 {
                return vec![(self.me, vec![self.me], self.input)];
            }
            let mut items: Vec<_> = self
                .tree
                .iter()
                .filter(|(label, _)| label.len() == round && !label.contains(&self.me))
                .map(|(label, value)| (label[0], [&label[..], &[self.me]].concat(), *value))
                .collect();
            items.sort();
            items
        }

        fn receive(&mut self, round: usize, inbox: &[(ProcessId, EigMsg<i64>)]) {
            for (from, msg) in inbox.iter().filter(|(from, _)| *from < self.n) {
                for (origin, label, value) in msg.iter() {
                    if label.len() == round + 1
                        && label[0] == origin
                        && label[round] == *from
                        && label.iter().all(|&id| id < self.n)
                        && distinct(label)
                        && (self.accept)(value, &self.default)
                    {
                        self.tree.entry(label.to_vec()).or_insert(*value);
                    }
                }
            }
            if round == 0 {
                self.tree.insert(vec![self.me], self.input);
            }
        }

        fn resolve(&self, label: &[ProcessId]) -> i64 {
            if label.len() == self.f + 1 {
                return self.tree.get(label).copied().unwrap_or(self.default);
            }
            let children: Vec<i64> = (0..self.n)
                .filter(|j| !label.contains(j))
                .map(|j| self.resolve(&[label, &[j]].concat()))
                .collect();
            let majority = |v: &&i64| children.iter().filter(|u| u == v).count() > children.len() / 2;
            children.iter().find(majority).copied().unwrap_or(self.default)
        }
    }

    /// The dense tree and the oracle fed the same inboxes: the same relays
    /// every round, the same output at the end.
    struct Checked {
        dense: ParallelEig<i64>,
        oracle: MapEig,
    }

    impl SyncProtocol for Checked {
        type Msg = EigMsg<i64>;
        type Output = Vec<i64>;

        fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, Self::Msg)> {
            let sends = self.dense.round_messages(round);
            if let Some((_, msg)) = sends.first() {
                let items: Vec<_> = msg.iter().map(|(o, label, v)| (o, label.to_vec(), *v)).collect();
                assert_eq!(items, self.oracle.relay(round), "round {round} relays");
            }
            sends
        }

        fn receive(&mut self, round: usize, inbox: &[(ProcessId, Self::Msg)]) {
            self.dense.receive(round, inbox);
            self.oracle.receive(round, inbox);
            if round == self.oracle.f {
                let oracle: Vec<i64> = (0..self.oracle.n).map(|s| self.oracle.resolve(&[s])).collect();
                assert_eq!(self.dense.output(), Some(oracle));
            }
        }

        fn output(&self) -> Option<Vec<i64>> {
            self.dense.output()
        }
    }

    fn non_negative(value: &i64, _default: &i64) -> bool {
        *value >= 0
    }

    /// Random messages from Byzantine `me`: mostly addressable, with every
    /// way of not being so mixed in — ghost and repeated ids, the wrong
    /// level, the wrong root, a last id that is not `me`, duplicate items,
    /// several entries for one origin, values the check refuses.
    fn hostile(me: ProcessId, n: usize) -> PayloadGen<EigMsg<i64>> {
        Box::new(move |rng: &mut StdRng, round| {
            let stride = if rng.gen_bool(0.9) { round + 1 } else { rng.gen_range(1..=round + 2) };
            let mut msg = EigRound::with_capacity(stride, 0, 0);
            for _ in 0..rng.gen_range(0..2 * n) {
                let origin = rng.gen_range(0..=n);
                msg.begin(origin);
                for _ in 0..rng.gen_range(0..8) {
                    let mut label: Vec<_> = (0..stride).map(|_| rng.gen_range(0..=n)).collect();
                    if rng.gen_bool(0.9) {
                        label[0] = origin;
                    }
                    if rng.gen_bool(0.9) {
                        label[stride - 1] = me;
                    }
                    msg.push(&label, rng.gen_range(-2..6));
                    if rng.gen_bool(0.2) {
                        msg.push_shared(&label);
                    }
                }
            }
            Arc::new(msg)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// All-honest and under `f` random Byzantine processes, every honest
        /// process relays and outputs what the oracle beside it does, and
        /// they all output the same.
        #[test]
        fn dense_tree_is_the_label_keyed_tree(seed in 0u64..u64::MAX, shape in 0usize..3, faults in 0usize..2) {
            let (n, f) = [(4, 1), (7, 2), (10, 3)][shape];
            let faulty: Vec<usize> = (0..f * faults).map(|k| (seed as usize + 3 * k) % n).collect();
            let nodes = (0..n)
                .map(|id| {
                    if faulty.contains(&id) {
                        let fuzz = FuzzAdversary::new(seed ^ id as u64, n, 3 * n, hostile(id, n));
                        return SyncNode::Byzantine(Box::new(fuzz));
                    }
                    let (input, default) = (10 + id as i64, 0);
                    let dense = ParallelEig::new(id, n, f, input, default).accepting(non_negative);
                    let oracle = MapEig { me: id, n, f, input, default, accept: non_negative, tree: HashMap::new() };
                    SyncNode::Honest(Checked { dense, oracle })
                })
                .collect();
            let config = SystemConfig::new(n, f).with_faulty(faulty.clone());
            let decisions = RoundEngine::new(config, nodes).run(f + 1).decisions;
            let honest: Vec<_> = decisions.iter().flatten().collect();
            prop_assert_eq!(honest.len(), n - faulty.len());
            prop_assert!(honest.iter().all(|d| d == &honest[0]), "agreement: {:?}", honest);
            for id in (0..n).filter(|id| !faulty.contains(id)) {
                prop_assert_eq!(honest[0][id], 10 + id as i64);
            }
        }
    }

    #[test]
    fn a_label_flood_has_no_slot_to_land_in() {
        let (n, f) = (4, 1);
        let run = |flood: bool| {
            let mut p = ParallelEig::<i64>::new(0, n, f, 10, -1);
            let others = |round: usize| -> Vec<_> {
                (1..n).map(|id| (id, ParallelEig::new(id, n, f, 10 + id as i64, -1).round_messages(round).remove(0).1)).collect()
            };
            let mut inbox = others(0);
            if flood {
                // As many malformed items as one wire message may carry
                // (`MAX_EIG_ITEMS`), each with a value of its own.
                let mut msg = EigRound::with_capacity(1, 1, 1 << 16);
                msg.begin(3);
                (0..1 << 16).for_each(|k| msg.push(&[k % 3], 1000 + k as i64));
                inbox.insert(0, (3, Arc::new(msg)));
            }
            p.receive(0, &inbox);
            let relays: Vec<_> = (1..n).map(|id| (id, msg(2, &[(0, &[0, id], 10)]))).collect();
            p.receive(1, &relays);
            (p.output().expect("decided"), p.slots.capacity(), p.values.len())
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true), (vec![10, -1, -1, -1], n + n * n, 1 + n));
    }
}
