//! Dolev–Strong authenticated Byzantine broadcast.
//!
//! ALGO's Step 1 reads "Byzantine broadcast … by using any Byzantine
//! broadcast algorithm" — EIG ([`crate::eig`]) is the unauthenticated
//! choice with `O(n^{f+1})` messages; Dolev–Strong is the *authenticated*
//! alternative with `O(n²·f)` messages and tolerance up to any `f < n`
//! (we still run it at `n ≥ 3f+1` to match the rest of the stack). The
//! ablation bench compares the two substrates' message complexity.
//!
//! Signatures are simulated: the harness hands every process an
//! [`Authenticator`] that can *sign on behalf of its own id only* and
//! verify anyone's signature; a Byzantine process can therefore equivocate
//! (sign two different values itself) but cannot forge other processes'
//! signatures — exactly the authenticated-channel model.
//!
//! Protocol (sender `s`, rounds `0..=f`):
//! * round 0: `s` sends `⟨v⟩_s` to everyone;
//! * round `r`: a process that *newly accepted* a value with `r` valid
//!   distinct signatures (starting with `s`'s) appends its own signature
//!   and forwards to everyone;
//! * a value is *extracted* when first seen with enough signatures; after
//!   round `f`, a process decides the extracted value if it extracted
//!   exactly one, else the default.

use std::collections::HashMap;

use crate::config::ProcessId;
use crate::sync::{Broadcast, SyncProtocol, ValueCheck};

/// A simulated signature: `(signer, value-fingerprint)` where the
/// fingerprint is the exact signed payload. Unforgeable by construction:
/// [`Authenticator::sign`] only signs for the holder's own id.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature<V> {
    /// Who signed.
    pub signer: ProcessId,
    /// What was signed (authenticated payload copy).
    pub payload: V,
}

/// Signing capability bound to one process id.
#[derive(Debug, Clone)]
pub struct Authenticator {
    id: ProcessId,
}

impl Authenticator {
    /// Capability for process `id` (issued by the harness).
    #[must_use]
    pub fn new(id: ProcessId) -> Self {
        Authenticator { id }
    }

    /// Sign a payload as this process.
    #[must_use]
    pub fn sign<V: Clone>(&self, payload: &V) -> Signature<V> {
        Signature {
            signer: self.id,
            payload: payload.clone(),
        }
    }

    /// Verify that `sig` is a valid signature by `claimed` over `payload`.
    /// (Simulated crypto: validity = the signer field matches and the
    /// payload is bit-identical; unforgeability is enforced by `sign` being
    /// the only constructor and each process holding only its own
    /// authenticator.)
    #[must_use]
    pub fn verify<V: Clone + PartialEq>(
        sig: &Signature<V>,
        claimed: ProcessId,
        payload: &V,
    ) -> bool {
        sig.signer == claimed && sig.payload == *payload
    }
}

/// A signature chain: the value plus the ordered signatures collected.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedChain<V> {
    /// The broadcast value.
    pub value: V,
    /// Signatures, first must be the designated sender's.
    pub sigs: Vec<Signature<V>>,
}

impl<V: Clone + PartialEq> SignedChain<V> {
    /// Chain validity at round `r` for sender `s`: `r + 1` signatures, the
    /// first by `s`, all by distinct signers, all over `value`.
    #[must_use]
    pub fn valid(&self, sender: ProcessId, round: usize) -> bool {
        if self.sigs.len() != round + 1 {
            return false;
        }
        if self.sigs[0].signer != sender {
            return false;
        }
        let mut seen = Vec::with_capacity(self.sigs.len());
        for sig in &self.sigs {
            if !Authenticator::verify(sig, sig.signer, &self.value) {
                return false;
            }
            if seen.contains(&sig.signer) {
                return false;
            }
            seen.push(sig.signer);
        }
        true
    }
}

/// Wire message: one or more chains.
pub type DsMsg<V> = Vec<SignedChain<V>>;

/// One Dolev–Strong instance (single sender), as a [`SyncProtocol`].
pub struct DolevStrong<V> {
    auth: Authenticator,
    n: usize,
    f: usize,
    sender: ProcessId,
    my_value: Option<V>,
    default: V,
    accept: ValueCheck<V>,
    /// Values extracted so far (bounded to 2: one is enough to detect
    /// equivocation).
    extracted: Vec<V>,
    /// Chains to forward next round.
    outbox: Vec<SignedChain<V>>,
    decided: Option<V>,
}

impl<V: Clone + PartialEq> DolevStrong<V> {
    /// Instance for `sender`'s broadcast as seen by the authenticator's id.
    #[must_use]
    pub fn new(
        auth: Authenticator,
        n: usize,
        f: usize,
        sender: ProcessId,
        my_value: Option<V>,
        default: V,
    ) -> Self {
        assert!(f < n, "Dolev–Strong needs f < n");
        assert_eq!(
            my_value.is_some(),
            auth.id == sender,
            "exactly the sender supplies a value"
        );
        DolevStrong {
            auth,
            n,
            f,
            sender,
            my_value,
            default,
            accept: |_, _| true,
            extracted: Vec::new(),
            outbox: Vec::new(),
            decided: None,
        }
    }

    /// Total lockstep rounds: `f + 1`.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.f + 1
    }

    fn extract(&mut self, chain: &SignedChain<V>) {
        if self.extracted.contains(&chain.value) {
            return;
        }
        if self.extracted.len() < 2 {
            let mut forwarded = chain.clone();
            forwarded.sigs.push(self.auth.sign(&chain.value));
            self.extracted.push(chain.value.clone());
            self.outbox.push(forwarded);
        }
    }

    /// Close `round` once everything sent in it has been absorbed; the
    /// last one decides.
    fn end_round(&mut self, round: usize) {
        if round != self.f {
            return;
        }
        let v = if self.extracted.len() == 1 {
            self.extracted[0].clone()
        } else {
            // Zero (silent sender) or ≥ 2 (equivocating sender): default.
            self.default.clone()
        };
        self.decided = Some(v);
    }

    /// Read the chains process `from` sent in `round`.
    fn absorb(&mut self, round: usize, from: ProcessId, chains: &DsMsg<V>) {
        if round > self.f || from >= self.n {
            return; // over, or no such process: malformed wire sender
        }
        for chain in chains {
            // Receive-boundary hardening: every signer must be a real
            // process id. A "ghost" signer (id ≥ n) would otherwise
            // count toward the chain length, letting an adversary
            // fabricate arbitrarily long chains without n distinct
            // compromised processes.
            let ids_ok = chain.sigs.iter().all(|s| s.signer < self.n);
            // The last signature must belong to the wire sender (except
            // round 0, where the chain has only the sender's signature).
            let last_ok = chain.sigs.last().is_some_and(|s| s.signer == from);
            if ids_ok
                && last_ok
                && (self.accept)(&chain.value, &self.default)
                && chain.valid(self.sender, round)
            {
                self.extract(chain);
            }
        }
    }
}

impl<V: Clone + PartialEq> SyncProtocol for DolevStrong<V> {
    type Msg = DsMsg<V>;
    type Output = V;

    fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, DsMsg<V>)> {
        if round > self.f {
            return Vec::new();
        }
        let batch: DsMsg<V> = if round == 0 {
            match &self.my_value {
                Some(v) => {
                    let chain = SignedChain {
                        value: v.clone(),
                        sigs: vec![self.auth.sign(v)],
                    };
                    // The sender extracts its own value immediately.
                    self.extracted.push(v.clone());
                    vec![chain]
                }
                None => Vec::new(),
            }
        } else {
            std::mem::take(&mut self.outbox)
        };
        if batch.is_empty() {
            return Vec::new();
        }
        (0..self.n).map(|dst| (dst, batch.clone())).collect()
    }

    fn receive(&mut self, round: usize, inbox: &[(ProcessId, DsMsg<V>)]) {
        for (from, chains) in inbox {
            self.absorb(round, *from, chains);
        }
        self.end_round(round);
    }

    fn output(&self) -> Option<V> {
        self.decided.clone()
    }
}

/// `n` parallel Dolev–Strong instances — every process broadcasts its own
/// input, mirroring [`crate::eig::ParallelEig`].
pub struct ParallelDolevStrong<V> {
    instances: Vec<DolevStrong<V>>,
    decided: Option<Vec<V>>,
}

/// Wire message of the parallel protocol: `(instance sender, batch)` pairs.
pub type ParallelDsMsg<V> = Vec<(ProcessId, DsMsg<V>)>;

impl<V: Clone + PartialEq> Broadcast<V> for ParallelDolevStrong<V> {
    fn new(my_id: ProcessId, n: usize, f: usize, input: V, default: V) -> Self {
        let instances = (0..n)
            .map(|sender| {
                let mine = (sender == my_id).then(|| input.clone());
                DolevStrong::new(Authenticator::new(my_id), n, f, sender, mine, default.clone())
            })
            .collect();
        ParallelDolevStrong {
            instances,
            decided: None,
        }
    }

    fn accepting(mut self, ok: ValueCheck<V>) -> Self {
        for inst in &mut self.instances {
            inst.accept = ok;
        }
        self
    }

    fn tamper(me: ProcessId, msg: &mut Self::Msg, edit: &mut dyn FnMut(ProcessId, &mut V)) {
        for (origin, chains) in msg {
            for chain in chains {
                edit(*origin, &mut chain.value);
                for sig in chain.sigs.iter_mut().filter(|s| s.signer == me) {
                    sig.payload = chain.value.clone();
                }
            }
        }
    }

    fn items(msg: &Self::Msg) -> usize {
        msg.iter().map(|(_, chains)| chains.len()).sum()
    }
}

impl<V: Clone + PartialEq> SyncProtocol for ParallelDolevStrong<V> {
    type Msg = ParallelDsMsg<V>;
    type Output = Vec<V>;

    fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, Self::Msg)> {
        let n = self.instances.len();
        // Gather per-destination batches (instances may send nothing).
        let mut per_dst: Vec<Self::Msg> = vec![Vec::new(); n];
        for inst in &mut self.instances {
            let sender = inst.sender;
            for (dst, batch) in inst.round_messages(round) {
                per_dst[dst].push((sender, batch));
            }
        }
        per_dst
            .into_iter()
            .enumerate()
            .filter(|(_, msg)| !msg.is_empty())
            .collect()
    }

    fn receive(&mut self, round: usize, inbox: &[(ProcessId, Self::Msg)]) {
        for (from, msg) in inbox {
            for (sender, chains) in msg {
                if let Some(inst) = self.instances.get_mut(*sender) {
                    inst.absorb(round, *from, chains);
                }
            }
        }
        for inst in &mut self.instances {
            inst.end_round(round);
        }
        if self.decided.is_none()
            && self.instances.iter().all(|i| i.output().is_some())
        {
            self.decided = Some(
                self.instances
                    .iter()
                    .map(|i| i.output().expect("checked"))
                    .collect(),
            );
        }
    }

    fn output(&self) -> Option<Vec<V>> {
        self.decided.clone()
    }
}

/// Count point-to-point *chain transmissions* of a full parallel broadcast
/// among honest processes (for the EIG-vs-DS ablation).
#[must_use]
pub fn honest_message_bound(n: usize, f: usize) -> usize {
    // Each process forwards at most 2 chains per instance per round to n
    // destinations over f + 1 rounds, for n instances.
    n * n * (f + 1) * 2 * n
}

/// Convenience map used by tests: tally how many distinct values each
/// correct process decided per sender slot.
#[must_use]
pub fn decisions_by_sender<V: Clone + PartialEq>(
    decisions: &[Option<Vec<V>>],
    correct: &[ProcessId],
) -> HashMap<usize, Vec<V>> {
    let mut out: HashMap<usize, Vec<V>> = HashMap::new();
    for &i in correct {
        if let Some(vs) = &decisions[i] {
            for (slot, v) in vs.iter().enumerate() {
                let entry = out.entry(slot).or_default();
                if !entry.iter().any(|u| u == v) {
                    entry.push(v.clone());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::fuzz::{two_faced, SilentAdversary};
    use crate::sync::{RoundEngine, SyncNode};

    type Nodes = Vec<SyncNode<ParallelDolevStrong<i64>>>;

    fn honest(id: usize, n: usize, f: usize, input: i64) -> SyncNode<ParallelDolevStrong<i64>> {
        SyncNode::Honest(ParallelDolevStrong::new(id, n, f, input, i64::MIN))
    }

    /// Signs `low` for ids `< n/2` and `high` for the rest.
    fn equivocator(id: usize, n: usize, f: usize, low: i64, high: i64) -> SyncNode<ParallelDolevStrong<i64>> {
        let shown = (0..n).map(|j| if j < n / 2 { low } else { high }).collect();
        SyncNode::Byzantine(Box::new(two_faced::<ParallelDolevStrong<i64>, _>(id, n, f, shown, i64::MIN)))
    }

    fn run(config: SystemConfig, nodes: Nodes, f: usize) -> Vec<Option<Vec<i64>>> {
        RoundEngine::new(config, nodes).run(f + 2).decisions
    }

    #[test]
    fn all_honest_delivery() {
        let (n, f) = (4, 1);
        let config = SystemConfig::new(n, f);
        let nodes: Nodes = (0..n).map(|i| honest(i, n, f, 100 + i as i64)).collect();
        for d in run(config, nodes, f) {
            assert_eq!(d.unwrap(), vec![100, 101, 102, 103]);
        }
    }

    #[test]
    fn equivocating_sender_is_exposed_to_default() {
        // The two-faced sender's chains cross during relaying: every correct
        // process extracts both values and falls back to the default —
        // consistently.
        let (n, f) = (4, 1);
        let config = SystemConfig::new(n, f).with_faulty(vec![1]);
        let mut nodes: Nodes = Vec::new();
        for i in 0..n {
            if i == 1 {
                nodes.push(equivocator(1, n, f, 777, 888));
            } else {
                nodes.push(honest(i, n, f, i as i64));
            }
        }
        let decisions = run(config, nodes, f);
        let correct = [0usize, 2, 3];
        let by_sender = decisions_by_sender(&decisions, &correct);
        // Agreement: exactly one decided value per sender slot.
        for (slot, values) in &by_sender {
            assert_eq!(values.len(), 1, "slot {slot} split: {values:?}");
        }
        // Honest slots keep their inputs.
        assert_eq!(by_sender[&0], vec![0]);
        assert_eq!(by_sender[&2], vec![2]);
        assert_eq!(by_sender[&3], vec![3]);
    }

    #[test]
    fn silent_sender_defaults() {
        let (n, f) = (4, 1);
        let config = SystemConfig::new(n, f).with_faulty(vec![2]);
        let mut nodes: Nodes = Vec::new();
        for i in 0..n {
            if i == 2 {
                nodes.push(SyncNode::Byzantine(Box::new(SilentAdversary)));
            } else {
                nodes.push(honest(i, n, f, 10 * i as i64));
            }
        }
        let decisions = run(config, nodes, f);
        let reference = decisions[0].clone().unwrap();
        assert_eq!(reference[2], i64::MIN);
        for i in [1usize, 3] {
            assert_eq!(decisions[i].as_ref().unwrap(), &reference);
        }
    }

    #[test]
    fn two_fault_run_agrees() {
        let (n, f) = (7, 2);
        let config = SystemConfig::new(n, f).with_faulty(vec![0, 6]);
        let mut nodes: Nodes = Vec::new();
        for i in 0..n {
            match i {
                0 => nodes.push(equivocator(0, n, f, -1, -2)),
                6 => nodes.push(SyncNode::Byzantine(Box::new(SilentAdversary))),
                _ => nodes.push(honest(i, n, f, i as i64)),
            }
        }
        let decisions = run(config, nodes, f);
        let correct: Vec<usize> = (1..6).collect();
        let by_sender = decisions_by_sender(&decisions, &correct);
        for (slot, values) in &by_sender {
            assert_eq!(values.len(), 1, "slot {slot} split: {values:?}");
        }
        for i in 1..6 {
            assert_eq!(by_sender[&i], vec![i as i64], "validity for sender {i}");
        }
        assert_eq!(by_sender[&6], vec![i64::MIN]);
    }

    #[test]
    fn chain_validation_rejects_forgeries() {
        // A chain whose inner signature claims another process is invalid.
        let auth3 = Authenticator::new(3);
        let forged = SignedChain {
            value: 42,
            sigs: vec![Signature {
                signer: 0, // claims process 0 signed, but payload mismatch:
                payload: 41,
            }],
        };
        assert!(!forged.valid(0, 0));
        // Duplicate signers are rejected.
        let dup = SignedChain {
            value: 7,
            sigs: vec![
                Signature { signer: 0, payload: 7 },
                Signature { signer: 0, payload: 7 },
            ],
        };
        assert!(!dup.valid(0, 1));
        // A proper chain passes.
        let ok = SignedChain {
            value: 7,
            sigs: vec![Signature { signer: 0, payload: 7 }, auth3.sign(&7)],
        };
        assert!(ok.valid(0, 1));
        // Wrong round (length mismatch) fails.
        assert!(!ok.valid(0, 0));
        // Relay 3 rewriting the value can redo only its own signature: what
        // a lying relay sends under signatures is a chain that is rejected.
        let mut relayed = vec![(0, vec![ok.clone()])];
        ParallelDolevStrong::tamper(3, &mut relayed, &mut |_, v| *v = -12345);
        assert_eq!(relayed[0].1[0].sigs[1], auth3.sign(&-12345));
        assert!(!relayed[0].1[0].valid(0, 1));
        // The sender itself can: its round-0 chain stays valid (equivocation).
        let mut own = vec![(0, vec![SignedChain { value: 7, sigs: vec![Authenticator::new(0).sign(&7)] }])];
        ParallelDolevStrong::tamper(0, &mut own, &mut |_, v| *v = 8);
        assert!(own[0].1[0].valid(0, 0) && own[0].1[0].value == 8);
    }

    #[test]
    fn ghost_signers_are_rejected_at_receive() {
        // A chain padded with a signature from a nonexistent process id
        // must not be extracted, even though it is internally consistent.
        let (n, f) = (4, 1);
        let mut inst = DolevStrong::new(Authenticator::new(1), n, f, 0, None, i64::MIN);
        let ghost = SignedChain {
            value: 5,
            sigs: vec![
                Signature { signer: 0, payload: 5 },
                Signature { signer: 99, payload: 5 },
            ],
        };
        assert!(ghost.valid(0, 1), "chain is internally consistent");
        inst.receive(1, &[(3, vec![ghost.clone()])]);
        assert!(inst.extracted.is_empty(), "ghost signer must be rejected");
        // Out-of-range wire sender: whole message ignored.
        let fine = SignedChain {
            value: 5,
            sigs: vec![
                Signature { signer: 0, payload: 5 },
                Signature { signer: 3, payload: 5 },
            ],
        };
        inst.receive(1, &[(42, vec![fine.clone()])]);
        assert!(inst.extracted.is_empty());
        // The equivalent well-formed chain is extracted.
        inst.receive(1, &[(3, vec![fine])]);
        assert_eq!(inst.extracted, vec![5]);
    }

    #[test]
    fn message_count_is_polynomial_vs_eig() {
        // DS at f = 2 must use far fewer messages than EIG's exponential
        // relaying at the same (n, f).
        let (n, f) = (7usize, 2usize);
        let config_ds = SystemConfig::new(n, f);
        let nodes_ds: Nodes = (0..n).map(|i| honest(i, n, f, i as i64)).collect();
        let ds = RoundEngine::new(config_ds, nodes_ds).run(f + 2);

        let config_eig = SystemConfig::new(n, f);
        let nodes_eig: Vec<SyncNode<crate::eig::ParallelEig<i64>>> = (0..n)
            .map(|i| SyncNode::Honest(crate::eig::ParallelEig::new(i, n, f, i as i64, i64::MIN)))
            .collect();
        let eig = RoundEngine::new(config_eig, nodes_eig).run(f + 2);

        assert!(
            ds.trace.messages_sent < eig.trace.messages_sent,
            "DS {} vs EIG {}",
            ds.trace.messages_sent,
            eig.trace.messages_sent
        );
        assert!(ds.trace.messages_sent as usize <= honest_message_bound(n, f));
    }
}
