//! Live Byzantine adversaries on the real wire, built from the formats'
//! owners.
//!
//! [`ByzantineEndpoint`] wraps any [`Transport`] (in practice a
//! [`crate::tcp::TcpEndpoint`]) and implements the trait by delegating to
//! it — while editing, dropping, and injecting traffic according to a
//! seeded [`AttackPolicy`]. A policy is a row of [`AttackRegistry::MIXES`]:
//! a list of [`Attack`]s (the honest wrapper is the empty list, `combined`
//! a longer one). Nothing here restates a byte layout. Each attack is built
//! from what the owner of the format exports:
//!
//! * **typed edits of the node's own sends** — [`Attack::Equivocate`],
//!   [`Attack::MuteOwn`], [`Attack::LyingWitness`], [`Attack::MuteRelays`]:
//!   the misbehaviours `rbvc_sim::fuzz::Edited` states over `(dst, msg)`
//!   lists, here applied to a VA batch frame between [`decode_frame`] and
//!   [`encode_frame`];
//! * **one slot in two batches** — [`Attack::SlotTwice`]: the node's own
//!   batches are muted and it broadcasts, instead, two batches of its own
//!   that repeat one (instance, round) slot with two different states —
//!   the attack the FIFO order of batches exists to close;
//! * **malformed bytes** — [`PayloadCrafter`]: a valid frame of the node
//!   codec ([`crate::wire`]) or the client codec ([`crate::client`]) plus one
//!   `rbvc_sim::fuzz::ByteMutator` mutation at an offset that codec exports;
//! * **gate sprays** — well-formed [`Frame`]s with forged headers, one per
//!   receive gate of the service;
//! * **handshake forgeries** — [`auth::dial_handshake_with`], the honest
//!   dialer's own code, answering the challenge with a stale capture, a
//!   reflected nonce, a flipped MAC bit, or an honest response under a key
//!   or an identity that is not the attacker's to use. The attacker holds
//!   only its **own** pairwise keys
//!   ([`ByzantineEndpoint::with_identity_keys`]) — the PSK-compromise model
//!   is one member's keyring, never the mesh seed — so every forged identity
//!   claim dies at the responder's MAC check.
//!
//! ## Why every mix equivocates or mutes its own states
//!
//! Honest-node determinism (the E20 bit-identity oracle) rests on the
//! Byzantine nodes' own broadcast states never being *verified* at any
//! honest node: with `n = 7, f = 2` the reliable broadcast needs
//! `⌈(n+f+1)/2⌉ = 5` matching echoes, so a batch sent *identically* to
//! even a subset of honest peers could be delivered by some honest nodes
//! and not others, making the verified-set order (and hence the decision
//! timing, though not its value) run-dependent. An active adversary
//! therefore either equivocates (every destination sees a *different*
//! batch — at most one echo vote per value, delivery impossible) or stays
//! mute: [`AttackRegistry::policy`] refuses a row with neither. The one
//! batch a muted node does get delivered, [`Attack::SlotTwice`]'s, carries
//! a state that fails verification and its repeat, which the first-slot
//! rule refuses. Honest nodes then advance on exactly the `n - f` honest
//! states, and their decisions are a pure function of the honest inputs —
//! comparable bit-for-bit against a clean honest-only baseline.
//!
//! Degrade-don't-panic: the wrapper never unwraps socket results — a
//! failed injection or refused raw dial is just an attack that missed, and
//! is not counted ([`AttackStats`] counts what reached a socket).

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use rbvc_core::va_batch::{BatchWriter, VaBatch};
use rbvc_linalg::VecD;
use rbvc_sim::bracha::BrachaMsg;
use rbvc_sim::config::ProcessId;
use rbvc_sim::error::{ErrorLog, ProtocolError};
use rbvc_sim::fuzz::ByteMutator;

use crate::auth;
use crate::client::{self, ClientFrame};
use crate::tcp::append_frame;
use crate::transport::{AuthEvent, Transport};
use crate::wire::{self, decode_frame, encode_frame, Frame, Payload};

/// How long a raw dial at a peer's listener or client port may take before
/// the attack counts as missed.
const DIAL_TIMEOUT: Duration = Duration::from_millis(50);

/// A small VA batch `Init` frame from `sender`, its first batch, holding
/// one state of its own — the valid frame the crafted, sprayed and sentinel
/// frames all start from.
fn va_init(instance: u64, sender: ProcessId, round: u32, xs: &[f64]) -> Frame {
    let mut batch = BatchWriter::default();
    batch.push(instance, round, xs.iter().copied(), std::iter::empty());
    Frame::batch(sender, ((sender, 0), BrachaMsg::Init(Arc::new(batch.finish()))))
}

/// Crafts near-valid payloads for both codecs: a *valid* encoded frame plus
/// exactly one [`ByteMutator`] mutation at an offset the codec exports, so
/// the bytes exercise the deepest rejection path instead of dying at the
/// magic check. Seeded and deterministic; the garbage and client sprays
/// draw from it, and `tests/wire_codec.rs` sprays it at a live client port.
pub struct PayloadCrafter {
    mutator: ByteMutator,
    sender: ProcessId,
    counter: u64,
}

impl PayloadCrafter {
    /// A crafter whose node frames claim protocol sender `sender`.
    #[must_use]
    pub fn new(seed: u64, sender: ProcessId) -> Self {
        PayloadCrafter { mutator: ByteMutator::new(seed), sender, counter: 0 }
    }

    /// A small, fully valid VA `Init` frame — the base of the node-codec
    /// corpus. Round-trips through [`decode_frame`].
    #[must_use]
    pub fn valid_base(&self) -> Vec<u8> {
        encode_frame(&va_init(1, self.sender, 0, &[12.5, -50.0]))
    }

    /// A fully valid client `Submit` for `session` — the base of the
    /// client-port corpus, and the redirect probe when `session` is owned
    /// by some other node.
    #[must_use]
    pub fn client_valid_submit(&self, session: u64) -> Vec<u8> {
        let value = VecD::from_slice(&[12.5, -50.0]);
        client::encode_client_frame(&ClientFrame::Submit { session, reqno: 1, value })
    }

    /// `base` with the next mutation of the rotation: an interior cut, a
    /// forged dimension at `dim_offset` (the allocation guard must refuse it
    /// *before* allocating), the `header_len`-byte header followed by
    /// garbage, or a garbage tail (a frame is exactly one message).
    fn malformed(&mut self, base: &[u8], header_len: usize, dim_offset: usize) -> Vec<u8> {
        self.counter += 1;
        match self.counter % 4 {
            0 => self.mutator.truncate(base),
            1 => self.mutator.forge_len_u32(base, dim_offset),
            2 => self.mutator.append_garbage(&base[..header_len]),
            _ => self.mutator.append_garbage(base),
        }
    }

    /// The next malformed node frame (never a valid one).
    #[must_use]
    pub fn next_crafted(&mut self) -> Vec<u8> {
        self.malformed(&self.valid_base(), wire::HEADER_LEN, wire::VA_DIM_OFFSET)
    }

    /// The next malformed client frame (never a valid one).
    #[must_use]
    pub fn next_client_crafted(&mut self) -> Vec<u8> {
        let base = self.client_valid_submit(self.counter);
        self.malformed(&base, client::CLIENT_HEADER_LEN, client::SUBMIT_DIM_OFFSET)
    }
}

/// One misbehaviour of a Byzantine node. The first four edit the node's own
/// protocol sends; the rest inject traffic when the endpoint flushes —
/// `n` a flush, or against every peer's listener on the first flush and
/// every `every`-th after it. The handshake forgeries need
/// [`ByzantineEndpoint::with_wire_targets`] and
/// [`ByzantineEndpoint::with_identity_keys`], and all must die at the
/// responder — or, where the proof is genuine, cost the mesh nothing but a
/// redial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attack {
    /// Send a *different* (still decodable, still finite) value of the
    /// node's own state to every destination — classic equivocation. No
    /// value can collect more than one echo vote, so delivery thresholds
    /// are unreachable.
    Equivocate,
    /// Send nothing of the node's own states — a crash/mute hybrid.
    MuteOwn,
    /// Re-encode relayed `Echo`/`Ready` votes for *other* processes' states
    /// with mutated values that still decode.
    LyingWitness,
    /// Drop every frame to `dst` in round `r` on the stripe
    /// `(dst + r) % modulus == seed % modulus`.
    MuteRelays(usize),
    /// One slot in two batches: keep a round-`t ≥ 1` slot of the node's own
    /// next batch, and at the next flush broadcast two batches of this
    /// node — the same bytes to every peer, so both are delivered — that
    /// hold that one (instance, round) slot with two different shifted
    /// values. Every honest node keeps the first (whose value then fails
    /// verification) and refuses the second. Runs beside
    /// [`Attack::MuteOwn`], which leaves the node's sequence numbers to it.
    SlotTwice,
    /// `n` crafted near-valid node frames ([`PayloadCrafter`]) at the
    /// decode gate.
    Garbage(usize),
    /// `n` well-formed frames with forged headers, cycling the service's
    /// auth / instance / kind gates.
    GateSpray(usize),
    /// `n` volleys at the peers' *client ports* (needs
    /// [`ByzantineEndpoint::with_client_targets`]): one crafted client frame
    /// plus one valid `Submit` for a session the victim does not own — so
    /// every volley is rejected at the client codec boundary or answered
    /// with a `Redirect`, and no consensus instance ever spawns from it.
    ClientSpray(usize),
    /// Replay a captured (genuinely valid) handshake response against a
    /// fresh challenge: the nonce moved on, so the stale MAC is refused
    /// `bad-mac` without touching the live link. The first firing captures
    /// — a valid handshake as self, then dropped; later ones replay it.
    HelloReplay(u64),
    /// A fully valid handshake as self, immediately dropped: the verified
    /// session supersedes the node's live inbound link at the peer and the
    /// EOF tears it down again — generation churn the reconnection
    /// machinery must absorb.
    RedialStorm(u64),
    /// Claim an *honest* node's identity and answer with the attacker's own
    /// pairwise key (the only one it holds), then push a protocol frame as
    /// the impersonated node. Rejected `bad-mac`; the frame must never be
    /// delivered.
    Impersonate(u64),
    /// Answer the challenge by reflecting the nonce back as the MAC — the
    /// classic reflection probe. Rejected `bad-mac`.
    NonceReflect(u64),
    /// A fully valid handshake as self with exactly one MAC bit flipped.
    /// Rejected `bad-mac` — and the attacker's *live* authenticated link
    /// must stay up: a rejected forgery discredits the forger, not the
    /// session.
    MacFlip(u64),
    /// The retired plaintext HELLO, claiming an honest node. Rejected
    /// `downgrade` before any crypto runs.
    Downgrade(u64),
}

impl Attack {
    /// The activity counter a firing of this attack bumps.
    #[must_use]
    pub fn counter(self) -> Counter {
        match self {
            Attack::Equivocate | Attack::LyingWitness => Counter::FramesMutated,
            Attack::MuteOwn | Attack::MuteRelays(_) => Counter::FramesDropped,
            Attack::SlotTwice => Counter::SlotsRepeated,
            Attack::Garbage(_) => Counter::GarbageInjected,
            Attack::GateSpray(_) => Counter::GateSprays,
            Attack::ClientSpray(_) => Counter::ClientSprays,
            Attack::HelloReplay(_) => Counter::HelloReplays,
            Attack::RedialStorm(_) => Counter::RedialStorms,
            Attack::Impersonate(_) => Counter::Impersonations,
            Attack::NonceReflect(_) => Counter::NonceReflects,
            Attack::MacFlip(_) => Counter::MacFlips,
            Attack::Downgrade(_) => Counter::Downgrades,
        }
    }
}

/// What a [`ByzantineEndpoint`] did to the traffic, by kind: the index of
/// [`AttackStats`] and the key set of E20's `attacker_activity` objects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Outbound protocol frames re-encoded with mutated vector values
    /// (equivocation + lying witnesses).
    FramesMutated,
    /// Outbound protocol frames silently dropped (mutism).
    FramesDropped,
    /// Crafted near-valid payloads the inner transport accepted.
    GarbageInjected,
    /// Forged-header frames the inner transport accepted.
    GateSprays,
    /// Captured-handshake replays written to a peer listener.
    HelloReplays,
    /// Handshake-then-drop storms written to a peer listener.
    RedialStorms,
    /// Volleys written to a peer client port.
    ClientSprays,
    /// Honest-identity impersonation handshakes written (wrong key).
    Impersonations,
    /// Nonce-reflection responses written.
    NonceReflects,
    /// Valid-as-self responses written with one MAC bit flipped.
    MacFlips,
    /// Plaintext HELLOs written to honest listeners.
    Downgrades,
    /// Pairs of batches that repeat one slot, written to every peer.
    SlotsRepeated,
}

impl Counter {
    /// Every counter with its key in `BENCH_byzantine.json`, in report (and
    /// discriminant) order.
    pub const ALL: [(Counter, &'static str); 12] = [
        (Counter::FramesMutated, "frames_mutated"),
        (Counter::FramesDropped, "frames_dropped"),
        (Counter::GarbageInjected, "garbage_injected"),
        (Counter::GateSprays, "gate_sprays"),
        (Counter::HelloReplays, "hello_replays"),
        (Counter::RedialStorms, "redial_storms"),
        (Counter::ClientSprays, "client_sprays"),
        (Counter::Impersonations, "impersonations"),
        (Counter::NonceReflects, "nonce_reflections"),
        (Counter::MacFlips, "mac_flips"),
        (Counter::Downgrades, "downgrades"),
        (Counter::SlotsRepeated, "slots_repeated"),
    ];
}

/// Everything a [`ByzantineEndpoint`] did to the traffic, indexed by
/// [`Counter`], for attribution in the campaign reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttackStats([u64; Counter::ALL.len()]);

impl std::ops::Index<Counter> for AttackStats {
    type Output = u64;
    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

impl std::ops::AddAssign for AttackStats {
    fn add_assign(&mut self, rhs: AttackStats) {
        for (sum, count) in self.0.iter_mut().zip(rhs.0) {
            *sum += count;
        }
    }
}

/// One row of the attack registry: a named list of attacks, and the
/// counter that shows the mix did what it is named for (a mix whose own
/// counter stays zero over a run never attacked).
#[derive(Debug)]
pub struct Mix {
    /// Registry name — the campaigns' `attack=` metric label.
    pub name: &'static str,
    /// What a node under this mix does, in firing order.
    pub attacks: &'static [Attack],
    /// The mix's own activity counter.
    pub counter: Counter,
}

/// One seeded wire-attack mix: a row of the registry plus the seed for
/// every randomized decision. Obtained by name from
/// [`AttackRegistry::policy`], or [`AttackPolicy::honest`].
#[derive(Clone, Debug)]
pub struct AttackPolicy {
    seed: u64,
    attacks: &'static [Attack],
}

impl AttackPolicy {
    /// The passthrough policy — the empty attack list: wraps an honest node
    /// so a mixed mesh can be one uniform endpoint type.
    /// [`ByzantineEndpoint::send`] takes an early exit under it — no
    /// decode, no re-encode, no overhead beyond one branch.
    #[must_use]
    pub fn honest() -> Self {
        AttackPolicy { seed: 0, attacks: &[] }
    }
}

/// The attack registry: the one table of named wire-attack mixes.
pub struct AttackRegistry;

impl AttackRegistry {
    /// Every registered mix, in campaign cycling order.
    pub const MIXES: [Mix; 14] = {
        use Attack::*;
        const fn row(name: &'static str, attacks: &'static [Attack], counter: Counter) -> Mix {
            Mix { name, attacks, counter }
        }
        [
            row("equivocate", &[Equivocate], Counter::FramesMutated),
            row("lying-witness", &[Equivocate, LyingWitness], Counter::FramesMutated),
            row("mute", &[MuteRelays(3), MuteOwn], Counter::FramesDropped),
            row("garbage", &[Equivocate, Garbage(2)], Counter::GarbageInjected),
            row("gate-spray", &[Equivocate, GateSpray(3)], Counter::GateSprays),
            row("hello-replay", &[Equivocate, HelloReplay(6)], Counter::HelloReplays),
            row("redial-storm", &[Equivocate, RedialStorm(16)], Counter::RedialStorms),
            row("client-spray", &[Equivocate, ClientSpray(2)], Counter::ClientSprays),
            row(
                "combined",
                &[
                    MuteRelays(4),
                    Equivocate,
                    LyingWitness,
                    Garbage(1),
                    GateSpray(2),
                    ClientSpray(1),
                    HelloReplay(16),
                    RedialStorm(32),
                ],
                Counter::FramesMutated,
            ),
            row("impersonate", &[Equivocate, Impersonate(6)], Counter::Impersonations),
            row("nonce-reflect", &[Equivocate, NonceReflect(8)], Counter::NonceReflects),
            row("mac-flip", &[Equivocate, MacFlip(8)], Counter::MacFlips),
            row("downgrade", &[Equivocate, Downgrade(6)], Counter::Downgrades),
            row("slot-twice", &[SlotTwice, MuteOwn], Counter::SlotsRepeated),
        ]
    };

    /// The row named `name`.
    #[must_use]
    pub fn mix(name: &str) -> Option<&'static Mix> {
        Self::MIXES.iter().find(|m| m.name == name)
    }

    /// Build the named attack mix with the given seed.
    ///
    /// # Panics
    /// On a name not in [`AttackRegistry::MIXES`], or a row that neither
    /// equivocates nor mutes the node's own states (see the module docs) —
    /// harness bugs, not remote input.
    #[must_use]
    pub fn policy(name: &str, seed: u64) -> AttackPolicy {
        let mix = Self::mix(name).unwrap_or_else(|| panic!("unknown attack mix {name:?}"));
        assert!(
            mix.attacks.iter().any(|a| matches!(a, Attack::Equivocate | Attack::MuteOwn)),
            "{name} must equivocate or mute its own states"
        );
        AttackPolicy { seed, attacks: mix.attacks }
    }
}

/// A [`Transport`] that delegates to an inner endpoint while attacking the
/// traffic per an [`AttackPolicy`]. Wrap honest nodes with
/// [`AttackPolicy::honest`] for a uniform endpoint type; wrap malicious
/// ones with a registry mix. A node's frames to itself never reach it — the
/// service delivers them — so a node, however Byzantine, hears its own
/// genuine state.
pub struct ByzantineEndpoint<T: Transport> {
    inner: T,
    policy: AttackPolicy,
    /// Victims picked so far — the cursor of the seeded rotation.
    picks: u64,
    crafter: PayloadCrafter,
    stats: AttackStats,
    flushes: u64,
    /// Peer listener addresses for the handshake forgeries. Empty: those
    /// attacks miss.
    wire_addrs: Vec<SocketAddr>,
    /// Peer *client-port* addresses (indexed by node id) for the
    /// client-frame sprays. Empty: that attack misses.
    client_addrs: Vec<SocketAddr>,
    /// This node's *own* pairwise handshake keys, indexed by peer (the
    /// PSK-compromise model: one member's keyring, never the mesh seed).
    /// Empty: the handshake forgeries miss.
    identity_keys: Vec<[u8; 32]>,
    /// A genuinely valid handshake response captured by the first replay
    /// firing, replayed verbatim by later firings.
    captured_response: Option<[u8; auth::RESPONSE_LEN]>,
    /// Monotone generation counter for the attacker's own handshakes.
    attack_generation: u64,
    /// Handshakes the inner transport refused, counted as their
    /// [`AuthEvent::Rejected`] events pass through
    /// [`Transport::take_auth_events`].
    auth_rejects: u64,
    /// Per-destination equivocation offset scale, derived from the seed —
    /// strictly positive, so every mutated value differs from the original
    /// and from every other destination's copy.
    eps: f64,
    /// The slot [`Attack::SlotTwice`] repeats at the next flush, as a batch
    /// of one.
    twice: Option<VaBatch>,
    /// The sequence number of this node's next forged batch.
    forged_seq: u32,
}

impl<T: Transport> ByzantineEndpoint<T> {
    /// Wrap `inner` under `policy`.
    #[must_use]
    pub fn new(inner: T, policy: AttackPolicy) -> Self {
        let seed = policy.seed;
        ByzantineEndpoint {
            picks: 0,
            crafter: PayloadCrafter::new(seed ^ 0x5eed_cafe, inner.local_id()),
            inner,
            stats: AttackStats::default(),
            flushes: 0,
            wire_addrs: Vec::new(),
            client_addrs: Vec::new(),
            identity_keys: Vec::new(),
            captured_response: None,
            attack_generation: 0,
            auth_rejects: 0,
            eps: 0.25 + (seed % 16) as f64 / 32.0,
            twice: None,
            forged_seq: 0,
            policy,
        }
    }

    /// Provide the mesh's listener addresses (indexed by node id), the
    /// targets of the handshake forgeries.
    #[must_use]
    pub fn with_wire_targets(mut self, addrs: &[SocketAddr]) -> Self {
        self.wire_addrs = addrs.to_vec();
        self
    }

    /// Provide the mesh's client-port addresses (indexed by node id),
    /// enabling the client-frame sprays.
    #[must_use]
    pub fn with_client_targets(mut self, addrs: &[SocketAddr]) -> Self {
        self.client_addrs = addrs.to_vec();
        self
    }

    /// Hand the attacker its *own* pairwise handshake keys, indexed by
    /// peer id (`keys[local]` is ignored). This is the compromise model: a
    /// Byzantine member knows every key it legitimately shares, and
    /// nothing else — in particular never the mesh seed and never a key
    /// between two honest nodes, which is exactly why impersonation must
    /// fail. Enables the handshake forgeries.
    #[must_use]
    pub fn with_identity_keys(mut self, keys: Vec<[u8; 32]>) -> Self {
        self.identity_keys = keys;
        self
    }

    /// What this endpoint has done to the traffic so far.
    #[must_use]
    pub fn stats(&self) -> AttackStats {
        self.stats
    }

    /// Handshakes this node's listener refused so far — this mesh's own
    /// count, unlike the process-wide `auth.reject_total`.
    #[must_use]
    pub fn auth_rejects(&self) -> u64 {
        self.auth_rejects
    }

    fn bump(&mut self, counter: Counter) {
        self.stats.0[counter as usize] += 1;
    }

    /// Apply the policy's typed edits to one outbound protocol frame.
    /// `None` means the frame is silenced; undecodable bytes (not a service
    /// frame) pass through untouched.
    fn edit_outbound(&mut self, dst: ProcessId, bytes: Vec<u8>) -> Option<Vec<u8>> {
        let local = self.inner.local_id();
        let Ok(mut frame) = decode_frame(&bytes, local) else {
            return Some(bytes);
        };
        let round = frame.round as usize;
        // The batch a VA frame carries: (this node's own?, a relayed vote?).
        let mut batch = match &mut frame.payload {
            Payload::VaBatch(((origin, _), msg)) => {
                let vote = !matches!(msg, BrachaMsg::Init(_));
                let (BrachaMsg::Init(b) | BrachaMsg::Echo(b) | BrachaMsg::Ready(b)) = msg;
                Some((*origin == local, vote, b))
            }
            _ => None,
        };
        let mut mutated = false;
        for &attack in self.policy.attacks {
            match (attack, &mut batch) {
                (Attack::MuteRelays(modulus), _) => {
                    let m = modulus.max(1);
                    if (dst + round) % m == (self.policy.seed % m as u64) as usize {
                        self.bump(attack.counter());
                        return None;
                    }
                }
                (Attack::SlotTwice, Some((true, false, b))) if self.twice.is_none() => {
                    self.twice = b.slots().find(|slot| slot.round >= 1).map(|slot| slot.to_batch());
                }
                (Attack::MuteOwn, Some((true, _, _))) => {
                    self.bump(attack.counter());
                    return None;
                }
                // Only the node's own Init seeds echo votes for a new
                // batch; equivocating it per destination caps every forged
                // batch at one echo — undeliverable. (Its own Echo/Ready
                // for the honest copy carry at most this node's single vote
                // and are harmless, but shifting them too keeps the story
                // uniform.)
                (Attack::Equivocate, Some((true, _, b))) => {
                    **b = shifted(b, self.eps * (dst as f64 + 1.0));
                    mutated = true;
                }
                // A lying relay vote: still decodable, still finite, just
                // wrong — it can never join the honest quorum for the true
                // batch, and at ≤ f liars per destination it can never
                // reach the f+1 amplification threshold.
                (Attack::LyingWitness, Some((false, true, b))) => {
                    **b = shifted(b, self.eps * 0.5 * (dst as f64 + 2.0));
                    mutated = true;
                }
                _ => {}
            }
        }
        if mutated {
            self.bump(Counter::FramesMutated);
            Some(encode_frame(&frame))
        } else {
            Some(bytes)
        }
    }

    /// The next victim: the peers other than this node in rotation, from a
    /// seeded start (`None` alone). The transport crate deliberately has no
    /// `rand` dependency, and a rotation reaches every peer in a short run.
    fn pick_peer(&mut self) -> Option<ProcessId> {
        let (n, local) = (self.inner.n() as u64, self.inner.local_id());
        if n < 2 {
            return None;
        }
        self.picks += 1;
        let dst = (self.policy.seed.wrapping_add(self.picks) % n) as usize;
        Some(if dst == local { (dst + 1) % n as usize } else { dst })
    }

    /// The `k`-th forged-header frame of a flush, cycling the three gates
    /// behind the decode gate.
    fn gate_spray(&self, k: usize) -> Frame {
        let (n, local) = (self.inner.n(), self.inner.local_id());
        let tiny = va_init(1, local, 0, &[0.0]);
        match k % 3 {
            // Auth gate: the header claims a sender that is not this
            // link's authenticated peer.
            0 => Frame { sender: (local + 1) % n, ..tiny },
            // Instance gate: a well-formed frame for an instance id the
            // victim never registered (an EIG frame: a batch names its
            // instances per slot, checked at delivery).
            1 => Frame { instance: u64::MAX - 7, payload: Payload::Eig(vec![]), ..tiny },
            // Kind gate: an EIG payload addressed to a registered VA
            // instance.
            _ => Frame { payload: Payload::Eig(vec![]), ..tiny },
        }
    }

    /// One volley at a peer's client port: a *valid* `Submit` for a session
    /// the victim does not own (it must draw a `Redirect`, never an
    /// admission) and the next crafted client frame. Both are
    /// length-prefixed honestly — the violation is inside the frame, not
    /// the framing — so they reach the decoder (counted
    /// `client.port.reject`) instead of just poisoning the connection. No
    /// instance can spawn, so honest decisions stay a pure function of
    /// honest inputs. `None`: nothing reached the port.
    fn spray_client(&mut self) -> Option<()> {
        let victim = self.pick_peer()?;
        let addr = self.client_addrs.get(victim)?;
        let mut stream = TcpStream::connect_timeout(addr, DIAL_TIMEOUT).ok()?;
        let foreign_session = ((victim + 1) % self.client_addrs.len()) as u64;
        let mut volley = Vec::new();
        append_frame(&mut volley, &self.crafter.client_valid_submit(foreign_session));
        append_frame(&mut volley, &self.crafter.next_client_crafted());
        stream.write_all(&volley).ok()
    }

    /// An honest node that is neither this one nor `victim` — the identity
    /// the impersonation and downgrade probes claim.
    fn scapegoat(&self, victim: ProcessId) -> ProcessId {
        let local = self.inner.local_id();
        (0..self.wire_addrs.len()).find(|&h| h != victim && h != local).unwrap_or(local)
    }

    /// Dial `victim`'s listener and run one handshake forgery against it:
    /// the honest dialer's call with a dishonest closure. Only this node's
    /// *own* id is announced, except by the two probes that claim the
    /// scapegoat's. `None`: the dial or a handshake step failed — an attack
    /// that missed.
    fn forge_handshake(&mut self, attack: Attack, victim: ProcessId) -> Option<()> {
        let key = *self.identity_keys.get(victim)?;
        let mut stream =
            TcpStream::connect_timeout(self.wire_addrs.get(victim)?, DIAL_TIMEOUT).ok()?;
        self.attack_generation += 1;
        let generation = self.attack_generation;
        let t_tx = rbvc_obs::clock::now_us().max(1);
        let claimed = match attack {
            Attack::Impersonate(_) | Attack::Downgrade(_) => self.scapegoat(victim),
            _ => self.inner.local_id(),
        };
        if let Attack::Downgrade(_) = attack {
            // Refused at the version gate, attributed to the claimed peer.
            return stream.write_all(&auth::hello(auth::HELLO_VERSION, claimed, t_tx)).ok();
        }
        let stale = self.captured_response;
        let response = auth::dial_handshake_with(&mut stream, claimed, t_tx, |nonce| {
            // What a correct dialer `claimed` would answer — under the one
            // key this node holds for `victim`. For the storm that is a
            // genuine proof; for the impersonation the responder recomputes
            // under the honest pair's key instead.
            let honest = auth::response(&key, nonce, claimed, victim, generation, t_tx);
            match attack {
                Attack::HelloReplay(_) => stale.unwrap_or(honest),
                Attack::NonceReflect(_) => {
                    // The nonce echoed back as the proof — twice over to
                    // fill the MAC field.
                    let mut mac = [0u8; 32];
                    mac[..16].copy_from_slice(nonce);
                    mac[16..].copy_from_slice(nonce);
                    let reflected =
                        auth::HandshakeResponse { dialer: claimed as u32, generation, t_tx, mac };
                    auth::encode_response(&reflected)
                }
                Attack::MacFlip(_) => {
                    // Everything genuine except one bit of the proof.
                    let mut flipped = honest;
                    flipped[auth::RESPONSE_MAC_OFFSET + 7] ^= 0x10;
                    flipped
                }
                _ => honest,
            }
        })
        .ok()?;
        match attack {
            Attack::HelloReplay(_) => self.captured_response = Some(response),
            Attack::Impersonate(_) => {
                // Best-effort: a rejected handshake closes the connection,
                // so this write races the responder's teardown — which is
                // the point. The frame must never surface at the victim
                // either way.
                let mut sentinel = Vec::new();
                append_frame(&mut sentinel, &encode_frame(&va_init(1, claimed, 0, &[13.37])));
                let _ = stream.write_all(&sentinel);
            }
            _ => {}
        }
        Some(())
    }

    /// [`Attack::SlotTwice`]'s pair: the kept slot, shifted once and then
    /// twice, as this node's next two batches, each the same bytes to every
    /// peer. Counted when a copy reached the inner transport.
    fn repeat_slot(&mut self) {
        let Some(slot) = self.twice.take() else { return };
        let (n, local) = (self.inner.n(), self.inner.local_id());
        let mut sent = false;
        for k in 1..=2 {
            let seq = self.forged_seq;
            self.forged_seq = seq.wrapping_add(1);
            let batch = shifted(&slot, self.eps * k as f64);
            let bytes = encode_frame(&Frame::batch(local, ((local, seq), BrachaMsg::Init(batch))));
            for dst in (0..n).filter(|&dst| dst != local) {
                sent |= self.inner.send(dst, bytes.clone()).is_ok();
            }
        }
        if sent {
            self.bump(Counter::SlotsRepeated);
        }
    }

    /// Fire one attack of the policy at flush time, counting what reached a
    /// socket (or, for the in-band sprays, the inner transport).
    fn fire(&mut self, attack: Attack) {
        match attack {
            // Edits of the node's own sends: applied in `send`.
            Attack::Equivocate
            | Attack::MuteOwn
            | Attack::LyingWitness
            | Attack::MuteRelays(_) => {}
            Attack::SlotTwice => self.repeat_slot(),
            Attack::Garbage(n) | Attack::GateSpray(n) => {
                for k in 0..n {
                    let Some(dst) = self.pick_peer() else { return };
                    let payload = match attack {
                        Attack::Garbage(_) => self.crafter.next_crafted(),
                        _ => encode_frame(&self.gate_spray(k)),
                    };
                    if self.inner.send(dst, payload).is_ok() {
                        self.bump(attack.counter());
                    }
                }
            }
            Attack::ClientSpray(n) => {
                for _ in 0..n {
                    if self.spray_client().is_some() {
                        self.bump(attack.counter());
                    }
                }
            }
            Attack::HelloReplay(every)
            | Attack::RedialStorm(every)
            | Attack::Impersonate(every)
            | Attack::NonceReflect(every)
            | Attack::MacFlip(every)
            | Attack::Downgrade(every) => {
                // Strides count from the *first* flush (a short run still
                // fires at least once), then repeat every `every` flushes.
                if !(self.flushes - 1).is_multiple_of(every.max(1)) {
                    return;
                }
                for victim in 0..self.wire_addrs.len() {
                    if victim != self.inner.local_id()
                        && self.forge_handshake(attack, victim).is_some()
                    {
                        self.bump(attack.counter());
                    }
                }
            }
        }
    }
}

/// `batch` with `delta` added to every component of every slot's value, in
/// a batch of its own ([`VaBatch::edited`]; values stay finite for any finite
/// input — the mutation must survive the receiver's decode and payload gates
/// to reach the protocol layer, where verification starves it instead).
fn shifted(batch: &VaBatch, delta: f64) -> Arc<VaBatch> {
    Arc::new(batch.edited(|_, value| value.iter_mut().for_each(|x| *x += delta)))
}

impl<T: Transport> Transport for ByzantineEndpoint<T> {
    fn local_id(&self) -> ProcessId {
        self.inner.local_id()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn send(&mut self, dst: ProcessId, frame: Vec<u8>) -> Result<(), ProtocolError> {
        if self.policy.attacks.is_empty() {
            return self.inner.send(dst, frame);
        }
        match self.edit_outbound(dst, frame) {
            Some(bytes) => self.inner.send(dst, bytes),
            // Silenced by the policy — not an error the attacker reports.
            None => Ok(()),
        }
    }

    fn flush(&mut self) -> Result<(), ProtocolError> {
        if !self.policy.attacks.is_empty() {
            self.flushes += 1;
            for &attack in self.policy.attacks {
                self.fire(attack);
            }
        }
        self.inner.flush()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Vec<(ProcessId, Vec<u8>)> {
        self.inner.recv_timeout(timeout)
    }

    fn recv_timeout_stamped(&mut self, timeout: Duration) -> Vec<(ProcessId, u64, Vec<u8>)> {
        self.inner.recv_timeout_stamped(timeout)
    }

    fn take_reconnects(&mut self) -> Vec<ProcessId> {
        self.inner.take_reconnects()
    }

    fn take_auth_events(&mut self) -> Vec<AuthEvent> {
        let events = self.inner.take_auth_events();
        self.auth_rejects +=
            events.iter().filter(|e| matches!(e, AuthEvent::Rejected { .. })).count() as u64;
        events
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }

    fn errors(&self) -> ErrorLog {
        self.inner.errors()
    }

    fn link_health(&self) -> Vec<rbvc_obs::LinkHealth> {
        self.inner.link_health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::in_proc_mesh;

    fn decoded_value(bytes: &[u8]) -> VecD {
        match decode_frame(bytes, 0).expect("mutant must decode").payload {
            Payload::VaBatch((_, BrachaMsg::Init(b) | BrachaMsg::Echo(b) | BrachaMsg::Ready(b))) => {
                VecD::new(b.slot(0).value().collect())
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn equivocation_sends_distinct_decodable_values_per_destination() {
        let mut mesh = in_proc_mesh(4);
        let honest: Vec<_> = mesh.drain(1..).collect();
        let mut byz =
            ByzantineEndpoint::new(mesh.pop().unwrap(), AttackRegistry::policy("equivocate", 7));
        let original = [1.0, 2.0];
        let genuine = encode_frame(&va_init(1, 0, 0, &original));
        for dst in 1..4 {
            byz.send(dst, genuine.clone()).unwrap();
        }
        byz.flush().unwrap();
        let mut seen = Vec::new();
        for mut ep in honest {
            let got = ep.recv_timeout(Duration::from_millis(100));
            assert_eq!(got.len(), 1);
            let v = decoded_value(&got[0].1);
            assert!(v.as_slice().iter().all(|x| x.is_finite()));
            assert_ne!(v.as_slice(), original, "every copy must differ from the original");
            seen.push(v);
        }
        for i in 0..seen.len() {
            for j in i + 1..seen.len() {
                assert_ne!(seen[i], seen[j], "destinations {i} and {j} got the same copy");
            }
        }
        assert_eq!(byz.stats()[Counter::FramesMutated], 3);
    }

    #[test]
    fn mute_drops_all_own_origin_frames() {
        let mut mesh = in_proc_mesh(3);
        let mut other = mesh.remove(1);
        let mut byz = ByzantineEndpoint::new(mesh.remove(0), AttackRegistry::policy("mute", 3));
        byz.send(1, encode_frame(&va_init(1, 0, 0, &[5.0]))).unwrap();
        byz.flush().unwrap();
        assert!(other.recv_timeout(Duration::from_millis(30)).is_empty());
        assert_eq!(byz.stats()[Counter::FramesDropped], 1);
    }

    #[test]
    fn honest_wrapper_is_a_bitwise_passthrough() {
        let mut mesh = in_proc_mesh(2);
        let mut rx = mesh.remove(1);
        let mut honest = ByzantineEndpoint::new(mesh.remove(0), AttackPolicy::honest());
        let frame = encode_frame(&va_init(1, 0, 0, &[3.25, -1.5]));
        honest.send(1, frame.clone()).unwrap();
        honest.flush().unwrap();
        let got = rx.recv_timeout(Duration::from_millis(100));
        assert_eq!(got, vec![(0, frame)]);
        assert_eq!(honest.stats(), AttackStats::default());
    }

    #[test]
    fn crafted_corpus_starts_valid_and_is_rejected_by_both_codecs() {
        use crate::client::decode_client_frame;
        for seed in 0..24 {
            let mut c = PayloadCrafter::new(seed, 2);
            for _ in 0..32 {
                assert!(decode_frame(&c.valid_base(), 2).is_ok());
                assert!(matches!(
                    decode_client_frame(&c.client_valid_submit(9)),
                    Ok(ClientFrame::Submit { session: 9, .. })
                ));
                let (node, client) = (c.next_crafted(), c.next_client_crafted());
                assert!(node.len().max(client.len()) < 1 << 12, "crafted payloads stay small");
                assert!(decode_frame(&node, 2).is_err());
                assert!(decode_client_frame(&client).is_err());
            }
        }
    }

    #[test]
    fn registry_rows_keep_the_own_origin_invariant_and_unique_json_keys() {
        for (i, mix) in AttackRegistry::MIXES.iter().enumerate() {
            // `policy` itself refuses a row that neither equivocates nor
            // mutes its own states.
            assert_eq!(AttackRegistry::policy(mix.name, 11).attacks, mix.attacks);
            assert!(
                mix.attacks.iter().any(|a| a.counter() == mix.counter),
                "{}: no attack of the mix bumps its own counter",
                mix.name
            );
            assert!(AttackRegistry::MIXES[..i].iter().all(|m| m.name != mix.name));
        }
        for (i, (c, key)) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "ALL must be in discriminant order");
            assert!(Counter::ALL[..i].iter().all(|(_, earlier)| *earlier != key), "{key}");
        }
        assert!(AttackPolicy::honest().attacks.is_empty());
    }

    /// Activity counters count what reached a socket: with every wire and
    /// client target a closed port, the raw-socket attacks all miss — and a
    /// miss is neither counted nor an error.
    #[test]
    fn attacks_on_closed_ports_count_nothing_and_never_error() {
        let closed: Vec<SocketAddr> = (0..3)
            .map(|_| {
                let l = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
                l.local_addr().expect("addr")
            })
            .collect();
        for mix in ["combined", "impersonate", "hello-replay", "redial-storm", "client-spray"] {
            let mut mesh = in_proc_mesh(3);
            let mut byz = ByzantineEndpoint::new(mesh.remove(0), AttackRegistry::policy(mix, 5))
                .with_wire_targets(&closed)
                .with_client_targets(&closed)
                .with_identity_keys(vec![[7u8; 32]; 3]);
            for _ in 0..32 {
                byz.flush().expect("a missed attack is not an error");
            }
            let stats = byz.stats();
            for c in [
                Counter::Impersonations,
                Counter::HelloReplays,
                Counter::RedialStorms,
                Counter::ClientSprays,
            ] {
                assert_eq!(stats[c], 0, "{mix}: {c:?} counted without a socket");
            }
            assert_eq!(byz.errors().total(), 0, "{mix}");
        }
    }

    #[test]
    fn impersonation_against_auth_mesh_is_rejected_and_frameless() {
        use crate::auth::derive_pair_key;
        use crate::tcp::tcp_mesh_loopback_authenticated;

        let seed = [0x42u8; 32];
        let mut mesh = tcp_mesh_loopback_authenticated(3, &seed).expect("auth mesh");
        let addrs: Vec<_> = mesh.iter().map(|e| e.listen_addr()).collect();
        // Wait for the genuine mesh to finish authenticating before the
        // attacker starts, so reject events are unambiguous.
        for _ in 0..200 {
            if mesh.iter().all(|e| e.auth_handshakes() >= 2) {
                break;
            }
            for e in &mut mesh {
                let _ = e.recv_timeout(Duration::from_millis(5));
            }
        }
        // Node 0 is compromised: it holds its own keyring only.
        let keys: Vec<[u8; 32]> = (0..3).map(|p| derive_pair_key(&seed, 0, p)).collect();
        let mut victim = ByzantineEndpoint::new(mesh.remove(1), AttackPolicy::honest());
        let mut byz = ByzantineEndpoint::new(
            mesh.remove(0),
            AttackRegistry::policy("impersonate", 9),
        )
        .with_wire_targets(&addrs)
        .with_identity_keys(keys);
        byz.flush().expect("flush fires the impersonation");
        assert!(byz.stats()[Counter::Impersonations] >= 1);
        // The victim (node 1) must reject the handshake claiming node 2
        // as bad-mac, and the sentinel frame must never be delivered.
        let mut saw_reject = false;
        for _ in 0..200 {
            let frames = victim.recv_timeout(Duration::from_millis(10));
            assert!(
                frames.iter().all(|(src, _)| *src != 2),
                "forged frame surfaced as honest node 2"
            );
            if victim.take_auth_events().iter().any(|e| {
                matches!(e, AuthEvent::Rejected { peer: Some(2), reason } if reason == "bad-mac")
            }) {
                saw_reject = true;
                break;
            }
        }
        assert!(saw_reject, "victim never attributed the impersonation as bad-mac");
        // The wrapper tallied the refusal it passed on.
        assert!(victim.auth_rejects() >= 1);
    }

    #[test]
    fn gate_sprays_are_well_formed_frames_with_forged_headers() {
        let mut mesh = in_proc_mesh(2);
        let mut rx = mesh.remove(1);
        let mut byz =
            ByzantineEndpoint::new(mesh.remove(0), AttackRegistry::policy("gate-spray", 1));
        byz.flush().unwrap();
        let got = rx.recv_timeout(Duration::from_millis(100));
        assert_eq!(got.len() as u64, byz.stats()[Counter::GateSprays]);
        assert!(got.len() >= 3);
        let mut hit_auth = false;
        let mut hit_instance = false;
        let mut hit_kind = false;
        for (_, bytes) in &got {
            let f = decode_frame(bytes, 0).expect("sprays decode; the gates reject them");
            if f.sender != 0 {
                hit_auth = true;
            } else if f.instance == u64::MAX - 7 {
                hit_instance = true;
            } else if matches!(f.payload, Payload::Eig(_)) {
                hit_kind = true;
            }
        }
        assert!(hit_auth && hit_instance && hit_kind, "all three gates targeted");
    }

    /// `slot-twice` keeps a round-t ≥ 1 slot of the node's own batch,
    /// mutes the batch, and at the flush sends every peer the same two
    /// batches of its own, seq 0 and 1, that repeat that slot with two
    /// different values.
    #[test]
    fn slot_twice_repeats_one_own_slot_in_two_batches() {
        let mut mesh = in_proc_mesh(3);
        let mut peers: Vec<_> = mesh.drain(1..).collect();
        let mut byz = ByzantineEndpoint::new(mesh.pop().unwrap(), AttackRegistry::policy("slot-twice", 4));
        let mut slots = BatchWriter::default();
        slots.push(1, 0, [1.0].into_iter(), [0, 1].into_iter());
        slots.push(2, 1, [2.0].into_iter(), [0, 1].into_iter());
        let own = encode_frame(&Frame::batch(0, ((0, 5), BrachaMsg::Init(Arc::new(slots.finish())))));
        for dst in 1..3 {
            byz.send(dst, own.clone()).unwrap();
        }
        byz.flush().unwrap();
        assert_eq!((byz.stats()[Counter::FramesDropped], byz.stats()[Counter::SlotsRepeated]), (2, 1));
        let got: Vec<Vec<Vec<u8>>> = peers
            .iter_mut()
            .map(|ep| ep.recv_timeout(Duration::from_millis(100)).into_iter().map(|(_, b)| b).collect())
            .collect();
        assert_eq!(got[0], got[1], "the same bytes to every peer");
        let batches: Vec<_> = got[0]
            .iter()
            .map(|bytes| match decode_frame(bytes, 0).expect("decodes").payload {
                Payload::VaBatch((tag, BrachaMsg::Init(b))) => (tag, b),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(batches.iter().map(|(tag, _)| *tag).collect::<Vec<_>>(), [(0, 0), (0, 1)]);
        let [(_, a), (_, b)] = &batches[..] else { unreachable!() };
        assert_eq!((a.slots().len(), b.slots().len()), (1, 1));
        let (a, b) = (a.slot(0), b.slot(0));
        assert_eq!(((a.instance, a.round), (b.instance, b.round)), ((2, 1), (2, 1)));
        assert!(!a.value().eq(b.value()) && a.witness().eq(b.witness()));
    }
}
