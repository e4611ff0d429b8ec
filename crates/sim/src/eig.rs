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
//! [`ParallelEig`] runs `n` independent instances (one sender each) in the
//! same `f + 1` rounds — exactly Step 1 of ALGO, producing the identical
//! multiset `S` at every correct process.

use std::collections::HashMap;

use crate::config::ProcessId;
use crate::sync::{Broadcast, SyncProtocol, ValueCheck};

/// One EIG relay item: "(label σ, value)".
pub type EigItem<V> = (Vec<ProcessId>, V);

/// Wire message for a single EIG instance: a batch of relay items.
pub type EigMsg<V> = Vec<EigItem<V>>;

/// A single-sender EIG broadcast instance (pure state machine; the
/// [`SyncProtocol`] adapters below wire it to the engine).
#[derive(Debug, Clone)]
pub struct EigInstance<V> {
    my_id: ProcessId,
    n: usize,
    f: usize,
    sender: ProcessId,
    default: V,
    /// The sender's own input (None on non-sender processes).
    my_value: Option<V>,
    accept: ValueCheck<V>,
    tree: HashMap<Vec<ProcessId>, V>,
}

impl<V: Clone + PartialEq> EigInstance<V> {
    /// Create an instance for `sender`'s broadcast as observed by `my_id`.
    /// `my_value` must be `Some` iff `my_id == sender`.
    #[must_use]
    pub fn new(
        my_id: ProcessId,
        n: usize,
        f: usize,
        sender: ProcessId,
        my_value: Option<V>,
        default: V,
    ) -> Self {
        assert!(n > 3 * f, "EIG requires n > 3f");
        assert_eq!(
            my_value.is_some(),
            my_id == sender,
            "exactly the sender supplies a value"
        );
        EigInstance {
            my_id,
            n,
            f,
            sender,
            default,
            my_value,
            accept: |_, _| true,
            tree: HashMap::new(),
        }
    }

    /// Number of lockstep rounds this instance needs.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.f + 1
    }

    /// Honest messages for `round` (identical batch broadcast to everyone).
    ///
    /// Round 0: the sender emits the root label. Round `r ≥ 1`: relay every
    /// level-`r` label not already containing my id, with my id appended.
    #[must_use]
    pub fn broadcast_batch(&self, round: usize) -> EigMsg<V> {
        if round == 0 {
            return match &self.my_value {
                Some(v) => vec![(vec![self.sender], v.clone())],
                None => Vec::new(),
            };
        }
        let mut batch = Vec::new();
        for (label, value) in &self.tree {
            if label.len() == round && !label.contains(&self.my_id) {
                let mut child = label.clone();
                child.push(self.my_id);
                batch.push((child, value.clone()));
            }
        }
        // Deterministic ordering for reproducible traces.
        batch.sort_by(|a, b| a.0.cmp(&b.0));
        batch
    }

    /// Absorb a batch received in `round` from process `from`, storing only
    /// well-formed items: correct level, ids in range, distinct ids, rooted
    /// at the sender, last id equal to the wire sender, a value the
    /// [`ValueCheck`] accepts, first writer wins.
    pub fn receive_batch(&mut self, round: usize, from: ProcessId, batch: &EigMsg<V>) {
        if from >= self.n {
            return; // no such process: the whole batch is malformed
        }
        for (label, value) in batch {
            if label.len() != round + 1 {
                continue;
            }
            if label[0] != self.sender {
                continue;
            }
            if *label.last().expect("nonempty label") != from {
                continue;
            }
            // Out-of-range ids would be stored, then *relayed* by honest
            // processes in the next round — a Byzantine label-flood vector.
            if label.iter().any(|&id| id >= self.n) {
                continue;
            }
            if !distinct(label) || !(self.accept)(value, &self.default) {
                continue;
            }
            self.tree.entry(label.clone()).or_insert_with(|| value.clone());
        }
        // The sender trusts its own input for the root label.
        if round == 0 && self.my_id == self.sender {
            if let Some(v) = &self.my_value {
                self.tree.insert(vec![self.sender], v.clone());
            }
        }
    }

    /// Resolve the tree after `f + 1` rounds; always returns a value
    /// (default when information is missing).
    #[must_use]
    pub fn decide(&self) -> V {
        self.resolve(&[self.sender])
    }

    fn resolve(&self, label: &[ProcessId]) -> V {
        if label.len() == self.f + 1 {
            return self
                .tree
                .get(label)
                .cloned()
                .unwrap_or_else(|| self.default.clone());
        }
        // Strict majority over children σ·j, j ∉ σ.
        let children: Vec<V> = (0..self.n)
            .filter(|j| !label.contains(j))
            .map(|j| {
                let mut child = label.to_vec();
                child.push(j);
                self.resolve(&child)
            })
            .collect();
        let half = children.len() / 2;
        let mut counted: Vec<(&V, usize)> = Vec::new();
        for v in &children {
            match counted.iter_mut().find(|(u, _)| *u == v) {
                Some((_, c)) => *c += 1,
                None => counted.push((v, 1)),
            }
        }
        for (v, c) in counted {
            if c > half {
                return v.clone();
            }
        }
        self.default.clone()
    }
}

fn distinct(label: &[ProcessId]) -> bool {
    for (i, a) in label.iter().enumerate() {
        if label[i + 1..].contains(a) {
            return false;
        }
    }
    true
}

/// `n` parallel EIG instances — every process broadcasts its own input —
/// packaged as a [`SyncProtocol`]. The wire message is one batch per
/// sender-instance.
pub struct ParallelEig<V> {
    instances: Vec<EigInstance<V>>,
    rounds_needed: usize,
    decided: Option<Vec<V>>,
}

/// Wire message of [`ParallelEig`]: `(instance sender id, batch)` pairs.
pub type ParallelEigMsg<V> = Vec<(ProcessId, EigMsg<V>)>;

impl<V: Clone + PartialEq> Broadcast<V> for ParallelEig<V> {
    fn new(my_id: ProcessId, n: usize, f: usize, input: V, default: V) -> Self {
        let instances = (0..n)
            .map(|sender| {
                let mine = (sender == my_id).then(|| input.clone());
                EigInstance::new(my_id, n, f, sender, mine, default.clone())
            })
            .collect();
        ParallelEig {
            instances,
            rounds_needed: f + 1,
            decided: None,
        }
    }

    fn accepting(mut self, ok: ValueCheck<V>) -> Self {
        for inst in &mut self.instances {
            inst.accept = ok;
        }
        self
    }

    fn tamper(_me: ProcessId, msg: &mut Self::Msg, edit: &mut dyn FnMut(ProcessId, &mut V)) {
        for (origin, batch) in msg {
            for (_, value) in batch {
                edit(*origin, value);
            }
        }
    }

    fn items(msg: &Self::Msg) -> usize {
        msg.iter().map(|(_, batch)| batch.len()).sum()
    }
}

impl<V: Clone + PartialEq> SyncProtocol for ParallelEig<V> {
    type Msg = ParallelEigMsg<V>;
    type Output = Vec<V>;

    fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, Self::Msg)> {
        if round >= self.rounds_needed {
            return Vec::new();
        }
        let batch: ParallelEigMsg<V> = self
            .instances
            .iter()
            .map(|inst| (inst.sender, inst.broadcast_batch(round)))
            .collect();
        let n = self.instances.len();
        (0..n).map(|dst| (dst, batch.clone())).collect()
    }

    fn receive(&mut self, round: usize, inbox: &[(ProcessId, Self::Msg)]) {
        if round >= self.rounds_needed {
            return;
        }
        for (from, msg) in inbox {
            for (sender, batch) in msg {
                if *sender < self.instances.len() {
                    self.instances[*sender].receive_batch(round, *from, batch);
                }
            }
        }
        if round + 1 == self.rounds_needed {
            self.decided = Some(self.instances.iter().map(EigInstance::decide).collect());
        }
    }

    fn output(&self) -> Option<Vec<V>> {
        self.decided.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::fuzz::{lying_relay, two_faced};
    use crate::sync::{RoundEngine, SilentAdversary, SyncNode};

    type Nodes = Vec<SyncNode<ParallelEig<i64>>>;

    fn honest(id: usize, n: usize, f: usize, input: i64) -> SyncNode<ParallelEig<i64>> {
        SyncNode::Honest(ParallelEig::new(id, n, f, input, i64::MIN))
    }

    fn run(config: SystemConfig, nodes: Nodes, f: usize) -> Vec<Option<Vec<i64>>> {
        let mut engine = RoundEngine::new(config, nodes);
        engine.run(f + 2).decisions
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
        nodes.push(SyncNode::Byzantine(Box::new(two_faced::<ParallelEig<i64>, _>(
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
        nodes.push(SyncNode::Byzantine(Box::new(lying_relay::<ParallelEig<i64>, _>(
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
                1 => nodes.push(SyncNode::Byzantine(Box::new(two_faced::<ParallelEig<i64>, _>(
                    1,
                    n,
                    f,
                    (0..n as i64).map(|j| 1000 + j).collect(),
                    i64::MIN,
                )))),
                5 => nodes.push(SyncNode::Byzantine(Box::new(lying_relay::<ParallelEig<i64>, _>(
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

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn rejects_insufficient_processes() {
        let _ = EigInstance::<i64>::new(0, 3, 1, 0, Some(1), 0);
    }

    #[test]
    fn malformed_labels_are_ignored() {
        let mut inst = EigInstance::<i64>::new(0, 4, 1, 2, None, -1);
        // Wrong level for round 0 (length 2).
        inst.receive_batch(0, 2, &vec![(vec![2, 3], 9)]);
        // Wrong root.
        inst.receive_batch(0, 2, &vec![(vec![1], 9)]);
        // Last id does not match the wire sender.
        inst.receive_batch(0, 3, &vec![(vec![2], 9)]);
        assert!(inst.tree.is_empty());
        // Correct item accepted.
        inst.receive_batch(0, 2, &vec![(vec![2], 9)]);
        assert_eq!(inst.tree.get(&vec![2]), Some(&9));
        // Duplicate labels keep the first value.
        inst.receive_batch(0, 2, &vec![(vec![2], 42)]);
        assert_eq!(inst.tree.get(&vec![2]), Some(&9));
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let mut inst = EigInstance::<i64>::new(0, 4, 1, 2, None, -1);
        // Wire sender out of range: whole batch dropped.
        inst.receive_batch(0, 99, &vec![(vec![2], 9)]);
        assert!(inst.tree.is_empty());
        // Label with a middle id >= n: would be stored and relayed.
        inst.receive_batch(1, 3, &vec![(vec![2, 3], 9), (vec![2, 3], 9)]);
        let mut inst2 = EigInstance::<i64>::new(0, 4, 1, 2, None, -1);
        inst2.receive_batch(1, 3, &vec![(vec![2, 3], 9)]);
        assert_eq!(inst.tree, inst2.tree, "well-formed parts still land");
        let mut inst3 = EigInstance::<i64>::new(0, 4, 1, 2, None, -1);
        inst3.receive_batch(2, 3, &vec![(vec![2, 77, 3], 9)]);
        assert!(inst3.tree.is_empty(), "ghost id 77 must not enter the tree");
    }
}
