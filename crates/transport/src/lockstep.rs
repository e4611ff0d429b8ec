//! Lockstep synchronizer: runs a [`SyncProtocol`] (e.g. `SyncBvc`) over an
//! asynchronous, message-driven substrate by re-creating the rounds.
//!
//! The lockstep engine of `rbvc_sim::sync` delivers every round-`r` message
//! simultaneously; a socket delivers them one by one, in any order, possibly
//! interleaved across rounds. [`Lockstep`] restores the synchronous
//! abstraction with the classic simulation: each process wraps its round-`r`
//! sends into one [`RoundBatch`] *per destination* (explicitly including
//! empty batches, so silence is distinguishable from loss), buffers
//! incoming batches by round, and delivers round `r` to the inner protocol
//! only when a batch from **all** `n` senders has arrived — at which point
//! the inbox is replayed in sender order, making the delivery deterministic
//! and therefore byte-identical across transports.
//!
//! Crash tolerance: a peer that stays silent would stall the barrier, so
//! [`Lockstep::on_tick`] counts idle ticks and force-advances with a
//! partial inbox after `timeout_ticks` — the synchronous model's "end of
//! round timeout". Missing senders simply contribute nothing, which the
//! inner protocol already treats like an omitting Byzantine process.
//!
//! Receive-boundary degradation (documented contract, never a panic):
//! batches from ghost senders, for rounds already delivered, or beyond the
//! round cap are discarded and recorded; a second batch from the same
//! `(sender, round)` is ignored (first wins), so an equivocating sender
//! cannot rewrite history.

use std::collections::BTreeMap;

use rbvc_sim::asynch::AsyncProtocol;
use rbvc_sim::config::ProcessId;
use rbvc_sim::error::{ErrorLog, ProtocolError};
use rbvc_sim::sync::SyncProtocol;

/// All messages one sender addressed to one destination in one round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundBatch<M> {
    /// Lockstep round this batch belongs to.
    pub round: usize,
    /// The messages (empty = the sender had nothing for us this round).
    pub msgs: Vec<M>,
}

/// One round's inbox as the inner protocol takes it: kept in sender order
/// as the batches come in.
struct Arrived<M> {
    /// Whether each sender's batch is in (an empty one counts).
    from: Vec<bool>,
    msgs: Vec<(ProcessId, M)>,
}

/// Default idle-tick budget before a round is force-advanced.
pub const DEFAULT_TIMEOUT_TICKS: u32 = 64;

/// The synchronizer; implements [`AsyncProtocol`] with
/// `Msg = RoundBatch<P::Msg>` so it can run under either async driver —
/// the in-process engine or the socket service.
pub struct Lockstep<P: SyncProtocol> {
    inner: P,
    n: usize,
    /// Next round to deliver to the inner protocol.
    round: usize,
    /// Rounds the inner protocol runs (no batch is emitted beyond this).
    max_rounds: usize,
    /// Idle ticks since the last advance; reaching `timeout_ticks` forces
    /// the round through with a partial inbox.
    idle_ticks: u32,
    timeout_ticks: u32,
    /// round → the batches that arrived for it (a sender's first one wins).
    inbox: BTreeMap<usize, Arrived<P::Msg>>,
    done: bool,
    errors: ErrorLog,
}

impl<P: SyncProtocol> Lockstep<P> {
    /// Wrap `inner` (one process of an `n`-process run); the protocol runs
    /// `max_rounds` lockstep rounds (e.g. `f + 1` for EIG-based `SyncBvc`).
    #[must_use]
    pub fn new(inner: P, n: usize, max_rounds: usize) -> Self {
        assert!(max_rounds >= 1, "a synchronous protocol needs ≥ 1 round");
        Lockstep {
            inner,
            n,
            round: 0,
            max_rounds,
            idle_ticks: 0,
            timeout_ticks: DEFAULT_TIMEOUT_TICKS,
            inbox: BTreeMap::new(),
            done: false,
            errors: ErrorLog::new(),
        }
    }

    /// Override the idle-tick budget before a partial-inbox force-advance.
    /// `u32::MAX` is no budget at all: such a barrier waits for every sender
    /// however long that takes.
    #[must_use]
    pub fn with_timeout_ticks(mut self, ticks: u32) -> Self {
        assert!(ticks >= 1, "timeout must be at least one tick");
        self.timeout_ticks = ticks;
        self
    }

    /// The wrapped protocol (for decision inspection).
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The wrapped protocol, the synchronizer dropped.
    #[must_use]
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// The next round awaiting delivery at the barrier.
    #[must_use]
    pub fn current_round(&self) -> usize {
        self.round
    }

    /// Whether the inner protocol has finished (decided or round cap hit).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The senders whose current-round batch has **not** arrived — the
    /// processes the barrier is waiting on right now (empty once done).
    /// This is the stall detector's blame set: progress needs n − f
    /// well-formed batches, and these are the ids still owing one.
    #[must_use]
    pub fn waiting_on(&self) -> Vec<ProcessId> {
        if self.done {
            return Vec::new();
        }
        let have = self.inbox.get(&self.round);
        (0..self.n).filter(|&p| !have.is_some_and(|a| a.from[p])).collect()
    }

    /// How many senders' batches for the current round have arrived.
    #[must_use]
    pub fn senders_have(&self) -> usize {
        if self.done {
            return self.n;
        }
        self.inbox.get(&self.round).map_or(0, |a| a.from.iter().filter(|&&in_| in_).count())
    }

    /// Degradation events survived at this receive boundary.
    #[must_use]
    pub fn errors(&self) -> &ErrorLog {
        &self.errors
    }

    /// Emit this process's round-`round` batches: one per destination,
    /// including empty ones (and one to ourselves — self-delivery is how
    /// the inner protocol hears its own broadcast).
    fn emit(&mut self, round: usize) -> Vec<(ProcessId, RoundBatch<P::Msg>)> {
        let mut out: Vec<_> =
            (0..self.n).map(|dst| (dst, RoundBatch { round, msgs: Vec::new() })).collect();
        for (dst, msg) in self.inner.round_messages(round) {
            if dst >= self.n {
                self.errors.record(ProtocolError::Transport {
                    peer: Some(dst),
                    reason: format!("inner protocol addressed ghost process {dst}"),
                });
                continue;
            }
            out[dst].1.msgs.push(msg);
        }
        out
    }

    /// Deliver round `self.round` to the inner protocol if every sender's
    /// batch arrived (or `force` is set), then emit the next round.
    fn try_advance(&mut self, force: bool) -> Vec<(ProcessId, RoundBatch<P::Msg>)> {
        let mut out = Vec::new();
        loop {
            if self.done {
                return out;
            }
            let round = self.round;
            if self.senders_have() < self.n && !(force && out.is_empty()) {
                return out;
            }
            // The inbox is replayed in sender order — the deterministic
            // delivery that keeps decisions transport-independent.
            let inbox = self.inbox.remove(&round).map_or(Vec::new(), |a| a.msgs);
            self.inner.receive(round, &inbox);
            self.round += 1;
            self.idle_ticks = 0;
            if self.inner.output().is_some() || self.round >= self.max_rounds {
                self.done = true;
                self.inbox.clear();
            } else {
                out.extend(self.emit(self.round));
            }
        }
    }
}

impl<P: SyncProtocol> AsyncProtocol for Lockstep<P> {
    type Msg = RoundBatch<P::Msg>;
    type Output = P::Output;

    fn on_start(&mut self) -> Vec<(ProcessId, Self::Msg)> {
        self.emit(0)
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg) -> Vec<(ProcessId, Self::Msg)> {
        if self.done {
            return Vec::new();
        }
        if from >= self.n || msg.round >= self.max_rounds {
            self.errors.record(ProtocolError::MalformedPayload {
                from,
                reason: format!(
                    "round batch from sender {from} for round {} rejected (n = {}, cap {})",
                    msg.round, self.n, self.max_rounds
                ),
            });
            return Vec::new();
        }
        if msg.round < self.round {
            // A late batch for a round already delivered (e.g. after a
            // timeout advance): too late to matter, not an error.
            return Vec::new();
        }
        // First batch per (round, sender) wins; equivocators cannot rewrite.
        let n = self.n;
        let arrived = self
            .inbox
            .entry(msg.round)
            .or_insert_with(|| Arrived { from: vec![false; n], msgs: Vec::with_capacity(n) });
        if !std::mem::replace(&mut arrived.from[from], true) {
            let at = arrived.msgs.partition_point(|(sender, _)| *sender < from);
            arrived.msgs.splice(at..at, msg.msgs.into_iter().map(|m| (from, m)));
        }
        self.try_advance(false)
    }

    fn on_tick(&mut self) -> Vec<(ProcessId, Self::Msg)> {
        if self.done {
            return Vec::new();
        }
        self.idle_ticks = self.idle_ticks.saturating_add(1);
        if self.timeout_ticks != u32::MAX && self.idle_ticks >= self.timeout_ticks {
            self.errors.record(ProtocolError::Transport {
                peer: None,
                reason: format!(
                    "round {} timed out with {}/{} senders; advancing with a partial inbox",
                    self.round,
                    self.senders_have(),
                    self.n
                ),
            });
            return self.try_advance(true);
        }
        Vec::new()
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbvc_sim::asynch::{AsyncEngine, AsyncNode, RandomScheduler};
    use rbvc_sim::config::SystemConfig;

    /// Toy synchronous protocol: round 0 broadcast your id; decide on the
    /// sum of everything heard. Any missing sender lowers the sum.
    struct SumIds {
        id: ProcessId,
        n: usize,
        sum: Option<usize>,
    }

    impl SyncProtocol for SumIds {
        type Msg = usize;
        type Output = usize;

        fn round_messages(&mut self, round: usize) -> Vec<(ProcessId, usize)> {
            if round == 0 {
                (0..self.n).map(|dst| (dst, self.id)).collect()
            } else {
                Vec::new()
            }
        }

        fn receive(&mut self, _round: usize, inbox: &[(ProcessId, usize)]) {
            self.sum = Some(inbox.iter().map(|(_, v)| v).sum());
        }

        fn output(&self) -> Option<usize> {
            self.sum
        }
    }

    fn nodes(n: usize) -> Vec<AsyncNode<Lockstep<SumIds>>> {
        (0..n)
            .map(|id| {
                AsyncNode::Honest(Lockstep::new(SumIds { id, n, sum: None }, n, 1))
            })
            .collect()
    }

    #[test]
    fn one_round_protocol_decides_under_async_delivery() {
        let n = 4;
        let config = SystemConfig::new(n, 0);
        let mut engine = AsyncEngine::new(config, nodes(n));
        let out = engine.run(&mut RandomScheduler::new(13), 100_000);
        assert!(out.all_decided);
        for d in &out.decisions {
            assert_eq!(*d, Some(6), "sum of ids 0..4");
        }
    }

    #[test]
    fn ghost_and_stale_batches_degrade_not_panic() {
        let mut ls = Lockstep::new(SumIds { id: 0, n: 3, sum: None }, 3, 1);
        let _ = ls.on_start();
        // Ghost sender.
        assert!(ls.on_message(9, RoundBatch { round: 0, msgs: vec![9] }).is_empty());
        // Out-of-cap round.
        assert!(ls.on_message(1, RoundBatch { round: 7, msgs: vec![1] }).is_empty());
        assert_eq!(ls.errors().total(), 2);
        // Equivocation: the second batch from sender 1 must not overwrite.
        let _ = ls.on_message(1, RoundBatch { round: 0, msgs: vec![1] });
        let _ = ls.on_message(1, RoundBatch { round: 0, msgs: vec![100] });
        let _ = ls.on_message(0, RoundBatch { round: 0, msgs: vec![0] });
        let _ = ls.on_message(2, RoundBatch { round: 0, msgs: vec![2] });
        assert_eq!(ls.output(), Some(3), "first batch wins: 0 + 1 + 2");
    }

    #[test]
    fn barrier_introspection_names_the_missing_senders() {
        let mut ls = Lockstep::new(SumIds { id: 0, n: 3, sum: None }, 3, 1);
        let _ = ls.on_start();
        assert_eq!(ls.current_round(), 0);
        assert!(!ls.is_done());
        assert_eq!(ls.waiting_on(), vec![0, 1, 2]);
        assert_eq!(ls.senders_have(), 0);
        let _ = ls.on_message(0, RoundBatch { round: 0, msgs: vec![0] });
        let _ = ls.on_message(2, RoundBatch { round: 0, msgs: vec![2] });
        assert_eq!(ls.waiting_on(), vec![1], "exactly the silent sender");
        assert_eq!(ls.senders_have(), 2);
        let _ = ls.on_message(1, RoundBatch { round: 0, msgs: vec![1] });
        assert!(ls.is_done());
        assert!(ls.waiting_on().is_empty(), "done means nobody is owed");
        assert_eq!(ls.senders_have(), 3);
    }

    #[test]
    fn tick_timeout_advances_past_a_silent_peer() {
        let mut ls = Lockstep::new(SumIds { id: 0, n: 3, sum: None }, 3, 1)
            .with_timeout_ticks(4);
        let _ = ls.on_start();
        let _ = ls.on_message(0, RoundBatch { round: 0, msgs: vec![0] });
        let _ = ls.on_message(2, RoundBatch { round: 0, msgs: vec![2] });
        assert_eq!(ls.output(), None, "barrier waits for sender 1");
        for _ in 0..4 {
            let _ = ls.on_tick();
        }
        assert_eq!(ls.output(), Some(2), "partial inbox after timeout: 0 + 2");
        assert!(ls.errors().total() > 0, "the timeout advance is recorded");
    }

    #[test]
    fn a_timeout_of_u32_max_never_fires() {
        let mut ls = Lockstep::new(SumIds { id: 0, n: 3, sum: None }, 3, 1)
            .with_timeout_ticks(u32::MAX);
        let _ = ls.on_start();
        // One tick short of the day the counter reaches the budget.
        ls.idle_ticks = u32::MAX - 2;
        for _ in 0..4 {
            assert!(ls.on_tick().is_empty());
        }
        assert_eq!((ls.idle_ticks, ls.output(), ls.errors().total()), (u32::MAX, None, 0));
        let mut finite = Lockstep::new(SumIds { id: 0, n: 3, sum: None }, 3, 1)
            .with_timeout_ticks(u32::MAX - 1);
        let _ = finite.on_start();
        finite.idle_ticks = u32::MAX - 2;
        let _ = finite.on_tick();
        assert_eq!(finite.output(), Some(0), "any other budget still does");
    }
}
