//! Link-level fault injection and retransmission recovery.
//!
//! The paper's system model (§3) assumes perfectly reliable point-to-point
//! channels. Production networks do not cooperate: links drop, delay,
//! duplicate, reorder, and partition. This module makes those faults a
//! first-class, *seeded* part of the simulation so every protocol guarantee
//! can be re-earned on an unreliable substrate:
//!
//! * [`LinkFault`] / [`Partition`] / [`NetworkFaults`] — a seeded fault
//!   plan for the deterministic [`crate::asynch`] engine
//!   (`AsyncEngine::run_chaos`, the E16 chaos campaign). The service's
//!   substrates are fault-free: its in-process mesh is reliable and FIFO
//!   per link.
//! * [`ReliableLink`] — a sequence-numbered ack/retransmit wrapper with
//!   exponential backoff that restores reliable-channel semantics over a
//!   lossy link, so any `AsyncProtocol` written against the paper's model
//!   runs unmodified under loss < 100%.
//!
//! All decisions flow from one seeded RNG: identical seeds replay
//! bit-identically, which the chaos campaign (`exp chaos`) relies on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::asynch::AsyncProtocol;
use crate::config::ProcessId;
use crate::error::{ErrorLog, ProtocolError};

/// Fault parameters for one directed link, applied per message.
///
/// Delays are measured in the driver's logical time unit (scheduler steps
/// for the async engine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Probability the message is silently dropped.
    pub drop_prob: f64,
    /// Probability a second copy of the message is injected.
    pub dup_prob: f64,
    /// Extra delivery delay drawn uniformly from `0..=max_extra_delay`.
    pub max_extra_delay: u64,
    /// Probability of an *additional* reorder penalty of `1..=4` time
    /// units, so reordering occurs even when `max_extra_delay` is zero.
    pub reorder_prob: f64,
}

impl LinkFault {
    /// A perfectly reliable link (the paper's model).
    #[must_use]
    pub fn reliable() -> Self {
        LinkFault {
            drop_prob: 0.0,
            dup_prob: 0.0,
            max_extra_delay: 0,
            reorder_prob: 0.0,
        }
    }

    /// Lossy link with the given drop probability, no other faults.
    #[must_use]
    pub fn lossy(drop_prob: f64) -> Self {
        LinkFault {
            drop_prob,
            ..LinkFault::reliable()
        }
    }

    fn is_reliable(&self) -> bool {
        self.drop_prob <= 0.0
            && self.dup_prob <= 0.0
            && self.max_extra_delay == 0
            && self.reorder_prob <= 0.0
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.drop_prob)
                && (0.0..=1.0).contains(&self.dup_prob)
                && (0.0..=1.0).contains(&self.reorder_prob),
            "LinkFault probabilities must lie in [0, 1]: {self:?}"
        );
    }
}

impl Default for LinkFault {
    fn default() -> Self {
        LinkFault::reliable()
    }
}

/// A timed network partition: while active, traffic between `side_a` and
/// its complement is lost in both directions; only sender-side
/// retransmission (e.g. [`ReliableLink`]) recovers it after heal.
#[derive(Debug, Clone)]
pub struct Partition {
    /// One side of the cut (the other side is everyone else).
    pub side_a: Vec<ProcessId>,
    /// Logical time at which the partition begins (inclusive).
    pub start: u64,
    /// Logical time at which the partition heals (exclusive): traffic at
    /// `heal` and later flows normally.
    pub heal: u64,
}

impl Partition {
    /// Does this partition sever `src → dst` traffic at time `now`?
    #[must_use]
    pub fn severs(&self, src: ProcessId, dst: ProcessId, now: u64) -> bool {
        if now < self.start || now >= self.heal {
            return false;
        }
        let a = self.side_a.contains(&src);
        let b = self.side_a.contains(&dst);
        a != b
    }
}

/// Counters for what the fault layer did to traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages offered to the fault layer.
    pub offered: u64,
    /// Messages dropped by link loss.
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Messages that received a nonzero extra delay (incl. reorder penalty).
    pub delayed: u64,
    /// Messages lost at a partition boundary.
    pub partition_dropped: u64,
}

impl NetStats {
    /// Total messages removed by the network (loss + partition loss).
    #[must_use]
    pub fn total_lost(&self) -> u64 {
        self.dropped + self.partition_dropped
    }
}

/// The delivered copies of one routed message — the extra delay of each, at
/// most two (the original and one duplicate) — held inline; reads as a slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Copies([u64; 2], usize);

impl std::ops::Deref for Copies {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.0[..self.1]
    }
}

/// The seeded fault plan for a whole network: one link fault for every
/// link, and timed partitions.
#[derive(Debug, Clone)]
pub struct NetworkFaults {
    link: LinkFault,
    partitions: Vec<Partition>,
    rng: StdRng,
    /// Counters, updated by every [`NetworkFaults::route`] call.
    pub stats: NetStats,
}

impl NetworkFaults {
    /// A fault plan that never touches a message. No RNG draws are made on
    /// the reliable path, so plugging this in reproduces fault-free runs
    /// bit-identically.
    #[must_use]
    pub fn reliable() -> Self {
        NetworkFaults::new(0, LinkFault::reliable())
    }

    /// Build a plan applying `link` to every link, seeded for replay.
    #[must_use]
    pub fn new(seed: u64, link: LinkFault) -> Self {
        link.validate();
        NetworkFaults {
            link,
            partitions: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: NetStats::default(),
        }
    }

    /// Add a timed partition.
    ///
    /// # Panics
    /// Panics if the partition window is empty.
    #[must_use]
    pub fn with_partition(mut self, partition: Partition) -> Self {
        assert!(
            partition.start < partition.heal,
            "partition must have a nonempty [start, heal) window"
        );
        self.partitions.push(partition);
        self
    }

    /// Decide the fate of one message sent on `src → dst` at time `now`:
    /// returns the extra delay of each delivered copy (empty = lost, two
    /// entries = duplicated). Deterministic per seed and call sequence.
    pub fn route(&mut self, src: ProcessId, dst: ProcessId, now: u64) -> Copies {
        self.stats.offered += 1;

        // Partitions first: a severed link never sees the link faults.
        if self.partitions.iter().any(|p| p.severs(src, dst, now)) {
            self.stats.partition_dropped += 1;
            return Copies::default();
        }

        let fault = self.link;
        if fault.is_reliable() {
            // Skip all RNG draws so reliable plans stay stream-identical
            // regardless of traffic volume.
            return Copies([0, 0], 1);
        }

        if fault.drop_prob > 0.0 && self.rng.gen_bool(fault.drop_prob) {
            self.stats.dropped += 1;
            return Copies::default();
        }

        let copies = if fault.dup_prob > 0.0 && self.rng.gen_bool(fault.dup_prob) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };

        let mut out = Copies([0; 2], copies);
        for delay in &mut out.0[..copies] {
            if fault.max_extra_delay > 0 {
                *delay += self.rng.gen_range(0..=fault.max_extra_delay);
            }
            if fault.reorder_prob > 0.0 && self.rng.gen_bool(fault.reorder_prob) {
                *delay += self.rng.gen_range(1..=4u64);
            }
            if *delay > 0 {
                self.stats.delayed += 1;
            }
        }
        out
    }
}

/// Wire format of [`ReliableLink`]: payloads carry per-destination sequence
/// numbers; acks echo them back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkMsg<M> {
    /// A payload, tagged with the sender's per-destination sequence number.
    Data {
        /// Sequence number, unique per (sender, destination) pair.
        seq: u64,
        /// The wrapped protocol message.
        payload: M,
    },
    /// Cumulative-free positive ack of one received sequence number.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
}

/// An unacked outbound message awaiting retransmission.
#[derive(Debug, Clone)]
struct Unacked<M> {
    dst: ProcessId,
    seq: u64,
    payload: M,
    /// Local logical time of the next retransmission.
    retry_at: u64,
    /// Retransmissions already performed (drives exponential backoff).
    attempts: u32,
}

/// Sequence-numbered ack/retransmit wrapper restoring the paper's
/// reliable-channel semantics over a lossy link.
///
/// Every outbound protocol message becomes `Data { seq, payload }` and is
/// retransmitted with exponential backoff (`base_rto << attempts`, capped)
/// until the matching [`LinkMsg::Ack`] arrives. Inbound data is acked
/// *always* (acks of duplicates are what make retransmission converge) and
/// delivered to the inner protocol exactly once per `(src, seq)`.
///
/// Time is the link's own logical event clock: it advances on every
/// `on_message`/`on_tick` the driver feeds it, so the wrapper needs no
/// wall clock.
/// With loss probability `p < 1` and a fair scheduler, every payload is
/// eventually delivered exactly once — which is precisely the channel
/// assumption under which the wrapped protocol's proofs apply again.
pub struct ReliableLink<P: AsyncProtocol> {
    inner: P,
    /// Next sequence number per destination.
    next_seq: Vec<u64>,
    /// Delivered (src, seq) pairs, for exactly-once inner delivery.
    delivered: Vec<Vec<u64>>,
    unacked: Vec<Unacked<P::Msg>>,
    clock: u64,
    base_rto: u64,
    max_rto: u64,
    /// Degradation log: malformed traffic discarded at the receive boundary
    /// and outbound sends to nonexistent peers. Never panics the link.
    errors: ErrorLog,
}

impl<P: AsyncProtocol> ReliableLink<P> {
    /// Wrap `inner` for a network of `n` processes.
    ///
    /// `base_rto` is the first retransmission timeout in local events;
    /// backoff doubles per attempt and caps at `max_rto`.
    #[must_use]
    pub fn new(inner: P, n: usize, base_rto: u64, max_rto: u64) -> Self {
        assert!(base_rto > 0, "retransmission timeout must be positive");
        ReliableLink {
            inner,
            next_seq: vec![0; n],
            delivered: vec![Vec::new(); n],
            unacked: Vec::new(),
            clock: 0,
            base_rto,
            max_rto: max_rto.max(base_rto),
            errors: ErrorLog::new(),
        }
    }

    /// Wrap with defaults tuned for the async engine (RTO 8 events,
    /// capped at 128).
    #[must_use]
    pub fn with_defaults(inner: P, n: usize) -> Self {
        ReliableLink::new(inner, n, 8, 128)
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Messages currently awaiting acknowledgment.
    #[must_use]
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// Degradation events this link has absorbed (malformed inbound traffic,
    /// outbound sends addressed to nonexistent peers).
    #[must_use]
    pub fn errors(&self) -> &ErrorLog {
        &self.errors
    }

    fn stamp(&mut self, sends: Vec<(ProcessId, P::Msg)>) -> Vec<(ProcessId, LinkMsg<P::Msg>)> {
        let mut out = Vec::with_capacity(sends.len());
        for (dst, payload) in sends {
            // Degrade, don't panic: an inner protocol addressing a ghost
            // peer loses that one send and the link records why.
            if dst >= self.next_seq.len() {
                self.errors.record(ProtocolError::Transport {
                    peer: Some(dst),
                    reason: format!("send to nonexistent process {dst}"),
                });
                continue;
            }
            let seq = self.next_seq[dst];
            self.next_seq[dst] += 1;
            self.unacked.push(Unacked {
                dst,
                seq,
                payload: payload.clone(),
                retry_at: self.clock + self.base_rto,
                attempts: 0,
            });
            out.push((dst, LinkMsg::Data { seq, payload }));
        }
        out
    }

    fn due_retransmissions(&mut self) -> Vec<(ProcessId, LinkMsg<P::Msg>)> {
        let clock = self.clock;
        let (base_rto, max_rto) = (self.base_rto, self.max_rto);
        let mut out = Vec::new();
        for u in &mut self.unacked {
            if u.retry_at <= clock {
                u.attempts += 1;
                let rto = (base_rto << u.attempts.min(16)).min(max_rto);
                u.retry_at = clock + rto;
                out.push((
                    u.dst,
                    LinkMsg::Data {
                        seq: u.seq,
                        payload: u.payload.clone(),
                    },
                ));
            }
        }
        out
    }
}

impl<P: AsyncProtocol> AsyncProtocol for ReliableLink<P> {
    type Msg = LinkMsg<P::Msg>;
    type Output = P::Output;

    fn on_start(&mut self) -> Vec<(ProcessId, Self::Msg)> {
        let sends = self.inner.on_start();
        self.stamp(sends)
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg) -> Vec<(ProcessId, Self::Msg)> {
        self.clock += 1;
        // Receive boundary (degrade, don't panic): a frame claiming a ghost
        // sender is discarded and recorded; only that frame is lost — the
        // link, its retransmission state, and the inner protocol all keep
        // running untouched.
        if from >= self.delivered.len() {
            self.errors.record(ProtocolError::MalformedPayload {
                from,
                reason: format!(
                    "link frame from out-of-range process {from} (n = {})",
                    self.delivered.len()
                ),
            });
            return self.due_retransmissions();
        }
        let mut out = Vec::new();
        match msg {
            LinkMsg::Ack { seq } => {
                self.unacked.retain(|u| !(u.dst == from && u.seq == seq));
            }
            LinkMsg::Data { seq, payload } => {
                // Ack unconditionally — duplicates included — so the
                // sender's retransmission loop terminates even when the
                // first ack was itself lost.
                out.push((from, LinkMsg::Ack { seq }));
                if !self.delivered[from].contains(&seq) {
                    self.delivered[from].push(seq);
                    let sends = self.inner.on_message(from, payload);
                    out.extend(self.stamp(sends));
                }
            }
        }
        out.extend(self.due_retransmissions());
        out
    }

    fn on_tick(&mut self) -> Vec<(ProcessId, Self::Msg)> {
        self.clock += 1;
        let inner_sends = self.inner.on_tick();
        let mut out = self.stamp(inner_sends);
        out.extend(self.due_retransmissions());
        out
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }
}

/// Adapter running a Byzantine [`crate::asynch::AsyncAdversary`] under the
/// [`ReliableLink`] wire format: outbound raw messages are stamped as
/// fresh `Data` frames (a Byzantine node need not run retransmission — it
/// may, by definition, behave arbitrarily), inbound `Data` payloads are
/// unwrapped, and inbound `Ack`s are ignored.
pub struct ReliableLinkAdversary<A> {
    inner: A,
    next_seq: Vec<u64>,
}

impl<A> ReliableLinkAdversary<A> {
    /// Wrap `inner` for a network of `n` processes.
    #[must_use]
    pub fn new(inner: A, n: usize) -> Self {
        ReliableLinkAdversary {
            inner,
            next_seq: vec![0; n],
        }
    }

    fn stamp<M>(&mut self, sends: Vec<(ProcessId, M)>) -> Vec<(ProcessId, LinkMsg<M>)> {
        // Ghost destinations are dropped rather than panicking: even a
        // Byzantine strategy addressing nonexistent peers must not crash
        // the harness hosting it.
        let n = self.next_seq.len();
        sends
            .into_iter()
            .filter(|(dst, _)| *dst < n)
            .map(|(dst, payload)| {
                let seq = self.next_seq[dst];
                self.next_seq[dst] += 1;
                (dst, LinkMsg::Data { seq, payload })
            })
            .collect()
    }
}

impl<M, A: crate::asynch::AsyncAdversary<M>> crate::asynch::AsyncAdversary<LinkMsg<M>>
    for ReliableLinkAdversary<A>
{
    fn on_start(&mut self) -> Vec<(ProcessId, LinkMsg<M>)> {
        let sends = self.inner.on_start();
        self.stamp(sends)
    }

    fn on_message(&mut self, from: ProcessId, msg: LinkMsg<M>) -> Vec<(ProcessId, LinkMsg<M>)> {
        match msg {
            LinkMsg::Data { payload, .. } => {
                let sends = self.inner.on_message(from, payload);
                self.stamp(sends)
            }
            LinkMsg::Ack { .. } => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_plan_never_touches_messages() {
        let mut faults = NetworkFaults::reliable();
        for now in 0..50 {
            assert_eq!(*faults.route(0, 1, now), [0]);
        }
        assert_eq!(faults.stats.offered, 50);
        assert_eq!(faults.stats.total_lost(), 0);
        assert_eq!(faults.stats.duplicated, 0);
        assert_eq!(faults.stats.delayed, 0);
    }

    #[test]
    fn route_is_seed_deterministic() {
        let fault = LinkFault {
            drop_prob: 0.3,
            dup_prob: 0.2,
            max_extra_delay: 5,
            reorder_prob: 0.1,
        };
        let mut a = NetworkFaults::new(99, fault);
        let mut b = NetworkFaults::new(99, fault);
        for now in 0..200 {
            assert_eq!(a.route(now as usize % 4, 1, now), b.route(now as usize % 4, 1, now));
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn drop_probability_is_roughly_honored() {
        let mut faults = NetworkFaults::new(7, LinkFault::lossy(0.5));
        let lost = (0..2000).filter(|&t| faults.route(0, 1, t).is_empty()).count();
        assert!((800..1200).contains(&lost), "lost {lost} of 2000 at p = 0.5");
    }

    #[test]
    fn partition_severs_cross_traffic_until_heal() {
        let dropped = Partition {
            side_a: vec![0, 1],
            start: 10,
            heal: 20,
        };
        let mut faults = NetworkFaults::new(1, LinkFault::reliable()).with_partition(dropped);
        assert_eq!(*faults.route(0, 2, 9), [0], "before the cut");
        assert!(faults.route(0, 2, 10).is_empty(), "cross traffic severed");
        assert!(faults.route(2, 1, 15).is_empty(), "severed both directions");
        assert_eq!(*faults.route(0, 1, 15), [0], "same-side traffic flows");
        assert_eq!(*faults.route(0, 2, 20), [0], "healed");
        assert_eq!(faults.stats.partition_dropped, 2);
    }

    /// Toy protocol for ReliableLink tests: broadcast once, collect all n.
    struct Broadcast {
        n: usize,
        me: ProcessId,
        got: Vec<Option<u32>>,
    }

    impl AsyncProtocol for Broadcast {
        type Msg = u32;
        type Output = u32;

        fn on_start(&mut self) -> Vec<(ProcessId, u32)> {
            (0..self.n).map(|d| (d, self.me as u32)).collect()
        }

        fn on_message(&mut self, from: ProcessId, msg: u32) -> Vec<(ProcessId, u32)> {
            self.got[from] = Some(msg);
            Vec::new()
        }

        fn output(&self) -> Option<u32> {
            self.got
                .iter()
                .map(|g| g.as_ref().copied())
                .sum::<Option<u32>>()
        }
    }

    #[test]
    fn reliable_link_delivers_exactly_once_under_duplication() {
        let inner = Broadcast {
            n: 2,
            me: 0,
            got: vec![None; 2],
        };
        let mut link = ReliableLink::with_defaults(inner, 2);
        let payload = LinkMsg::Data { seq: 0, payload: 9 };
        let first = link.on_message(1, payload.clone());
        assert!(
            first.contains(&(1, LinkMsg::Ack { seq: 0 })),
            "data must be acked"
        );
        assert_eq!(link.inner().got[1], Some(9));
        // Duplicate: acked again, not delivered again.
        let inner_before = link.inner().got.clone();
        let dup = link.on_message(1, payload);
        assert!(dup.contains(&(1, LinkMsg::Ack { seq: 0 })));
        assert_eq!(link.inner().got, inner_before);
    }

    #[test]
    fn reliable_link_retransmits_with_backoff_until_acked() {
        let inner = Broadcast {
            n: 2,
            me: 0,
            got: vec![None; 2],
        };
        let mut link = ReliableLink::new(inner, 2, 2, 64);
        let sends = link.on_start();
        assert_eq!(sends.len(), 2, "broadcast to both processes");
        assert_eq!(link.unacked_len(), 2);

        // Let the RTO elapse via ticks: retransmissions must appear.
        let mut retransmissions = 0;
        for _ in 0..8 {
            retransmissions += link
                .on_tick()
                .iter()
                .filter(|(_, m)| matches!(m, LinkMsg::Data { .. }))
                .count();
        }
        assert!(retransmissions >= 2, "unacked data must be retransmitted");

        // Ack one of them: its retransmissions stop.
        link.on_message(1, LinkMsg::Ack { seq: 0 });
        assert_eq!(link.unacked_len(), 1);
        link.on_message(0, LinkMsg::Ack { seq: 0 });
        assert_eq!(link.unacked_len(), 0);
        for _ in 0..64 {
            assert!(
                link.on_tick().is_empty(),
                "no retransmissions after full ack"
            );
        }
    }

    #[test]
    fn ghost_sender_and_ghost_destination_degrade_without_panic() {
        let inner = Broadcast {
            n: 2,
            me: 0,
            got: vec![None; 2],
        };
        let mut link = ReliableLink::with_defaults(inner, 2);
        // Inbound frame claiming an out-of-range sender: discarded, recorded,
        // never acked, never delivered to the inner protocol.
        let out = link.on_message(9, LinkMsg::Data { seq: 0, payload: 5 });
        assert!(
            !out.iter().any(|(_, m)| matches!(m, LinkMsg::Ack { .. })),
            "ghost-sender data must not be acked"
        );
        assert!(link.inner().got.iter().all(Option::is_none));
        assert_eq!(link.errors().total(), 1);
        assert!(matches!(
            link.errors().errors()[0],
            ProtocolError::MalformedPayload { from: 9, .. }
        ));
        // An inner protocol addressing a ghost peer loses that send only.
        struct GhostSender;
        impl AsyncProtocol for GhostSender {
            type Msg = u32;
            type Output = u32;
            fn on_start(&mut self) -> Vec<(ProcessId, u32)> {
                vec![(7, 1), (0, 2)]
            }
            fn on_message(&mut self, _f: ProcessId, _m: u32) -> Vec<(ProcessId, u32)> {
                Vec::new()
            }
            fn output(&self) -> Option<u32> {
                None
            }
        }
        let mut link = ReliableLink::with_defaults(GhostSender, 2);
        let sends = link.on_start();
        assert_eq!(sends.len(), 1, "only the in-range send survives");
        assert_eq!(sends[0].0, 0);
        assert_eq!(link.errors().total(), 1);
        assert!(matches!(
            link.errors().errors()[0],
            ProtocolError::Transport { peer: Some(7), .. }
        ));
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let inner = Broadcast {
            n: 2,
            me: 0,
            got: vec![None; 2],
        };
        let mut link = ReliableLink::new(inner, 2, 2, 16);
        link.on_start();
        // Collect local-clock gaps between successive retransmissions of
        // seq 0 to process 1.
        let mut gaps = Vec::new();
        let mut last: Option<u64> = None;
        for t in 1..200u64 {
            let resent = link.on_tick().iter().any(
                |(d, m)| *d == 1 && matches!(m, LinkMsg::Data { seq: 0, .. }),
            );
            if resent {
                if let Some(prev) = last {
                    gaps.push(t - prev);
                }
                last = Some(t);
            }
        }
        assert!(gaps.len() >= 3, "expected several retransmissions: {gaps:?}");
        assert!(
            gaps.windows(2).all(|w| w[1] >= w[0]),
            "backoff must be non-decreasing: {gaps:?}"
        );
        assert!(
            gaps.iter().all(|&g| g <= 16 + 1),
            "backoff must respect the cap: {gaps:?}"
        );
    }
}
