//! (Relaxed) Verified Averaging — the paper's asynchronous algorithm (§10),
//! built on Bracha reliable broadcast.
//!
//! Structure (following Tseng–Vaidya \[15\] with the paper's modified round-0
//! function `H_(δ,p)(V, 0)`, Definition 12):
//!
//! * **Round 0** — every process reliably broadcasts its input. Upon
//!   verifying `≥ n − f` round-0 states `X`, a process computes
//!   `hull := ⋂_{C ⊆ X, |C| = |X|−f} H_(δ,p)(C)` for the smallest workable
//!   `δ` and deterministically picks a point (`δ = 0` recovers Verified
//!   Averaging and needs `n ≥ (d+2)f+1`; input-dependent `δ = δ*(X)` is the
//!   paper's relaxation and needs only `n ≥ 3f+1`).
//! * **Rounds t ≥ 1** — each process reliably broadcasts its state
//!   *together with the ids of the states it averaged* (the witness);
//!   receivers **verify** the state by recomputing the arithmetic over the
//!   values of their own reliably-delivered record — reliable broadcast
//!   gives every correct process the same value per (origin, round), so the
//!   ids are all a witness needs to carry — and a Byzantine process cannot
//!   inject a value that is not a correct application of the averaging rule.
//!   Progress to round `t + 1` happens upon `n − f` *verified* round-`t`
//!   states; the new value is their average.
//! * **Decision** — after `R` rounds, output the current value.
//!   ε-agreement follows from the geometric contraction of averaging over
//!   overlapping verified sets (factor ≈ `2f / (n − f)` per round);
//!   validity follows because every verified round-1 value lies in
//!   `H_(δ,p)`(correct inputs) and averaging preserves membership in that
//!   convex set.
//!
//! One form of a state, two hosts. A state travels as a slot of a batch
//! ([`crate::va_batch`]), read in place and compared as bytes. The
//! [`AsyncProtocol`] impl — the simulator's shape — runs one Bracha
//! broadcast per (origin, round) tag inside the instance, its message a batch
//! of that one slot. A host that reliably broadcasts many instances' states
//! at once (the service batches them per origin, FIFO) writes
//! [`VerifiedAveraging::input`] into its own batch and hands each delivered
//! slot to [`VerifiedAveraging::deliver_slot`] — the entry the
//! [`AsyncProtocol`] impl's deliveries take too: one delivered (origin,
//! round) state at a time, the first per (origin, round) kept. A delivered
//! state is a row of the instance's record — `n · R` rows of `d` values, a
//! witness row and a mark each — written once and never rewritten.
//! Verification is a permanent mark on it, so witness ids fix the values.

use std::sync::Arc;

use crate::error::ProtocolError;
use rbvc_geometry::minmax::delta_star;
use rbvc_geometry::gamma_point;
use rbvc_linalg::{Norm, Tol, VecD};
use rbvc_sim::asynch::AsyncProtocol;
use rbvc_sim::bracha::{BrachaInstance, BrachaMsg};
use rbvc_sim::config::ProcessId;
use rbvc_sim::fuzz::{Edited, Sends};

use crate::va_batch::{BatchWriter, SlotView, VaBatch};

/// Identifies one reliable-broadcast instance: (origin process, round).
pub type RoundTag = (ProcessId, usize);

/// Wire message: a Bracha message of one tagged broadcast, its payload the
/// batch of one slot — the tag's round state — shared through an [`Arc`] by
/// messages and tallies, and compared as bytes. Delivered, the state is
/// copied into a row of the record and the batch is not kept.
pub type VaMsg = (RoundTag, BrachaMsg<Arc<VaBatch>>);

/// What the round-0 combining rule gives for one witness: the point and the
/// δ it needed.
type Round0 = Result<(VecD, f64), ProtocolError>;

/// Round-0 combining rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaMode {
    /// δ = 0 (original Verified Averaging): a point of `Γ(X)`; requires
    /// `n ≥ (d+2)f + 1` so that `|X| ≥ (d+1)f + 1` makes `Γ(X)` nonempty.
    Zero,
    /// Input-dependent δ (the paper's relaxation): `δ*(X)` and its witness
    /// point; works for any `n ≥ 3f + 1`.
    MinDelta(Norm),
}

/// What one process refused, by check: the counts a test or an operator
/// reads to see which check a hostile message died at.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Refusals {
    /// Messages from a sender, or for an origin or round, outside this run.
    pub bounds: u64,
    /// Messages whose state failed the payload check (dimension, finite
    /// components, witness ids).
    pub payload: u64,
    /// Delivered states that failed verification.
    pub verify: u64,
    /// States delivered for an (origin, round) that already had one: the
    /// first delivered state wins ([`VerifiedAveraging::deliver_slot`]).
    pub duplicate: u64,
}

/// Where one row of the record stands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Mark {
    /// No state delivered for the tag.
    #[default]
    Empty,
    /// Delivered, not verifiable yet: a state its witness names is not
    /// verified.
    Pending,
    Verified,
    /// Failed verification, for good.
    Rejected,
    /// Closed by the host with no state: the one that won the tag never
    /// reached this process ([`VerifiedAveraging::close_origin`]).
    Closed,
}

/// The states one process delivered, one row per broadcast tag, indexed
/// `round · n + origin`: no row until the first delivery, then `n · R`, each
/// written once. Row `i` holds its mark and witness length in `rows[i]`, its
/// value in `values[i·d ..][.. d]` and its witness in the first ids of
/// `witnesses[i·n ..][.. n]` — the payload check lets no witness name more
/// than `n`.
#[derive(Default)]
struct Record {
    n: usize,
    d: usize,
    rows: Vec<(Mark, usize)>,
    values: Vec<f64>,
    witnesses: Vec<ProcessId>,
}

impl Record {
    fn mark(&self, i: usize) -> Mark {
        self.rows.get(i).map_or(Mark::Empty, |&(mark, _)| mark)
    }

    fn value(&self, i: usize) -> &[f64] {
        &self.values[i * self.d..(i + 1) * self.d]
    }

    fn witness(&self, i: usize) -> &[ProcessId] {
        &self.witnesses[i * self.n..][..self.rows[i].1]
    }

    /// Give the record its `slots` rows, all empty.
    fn size(&mut self, slots: usize) {
        self.rows.resize(slots, (Mark::Empty, 0));
        self.values.resize(slots * self.d, 0.0);
        self.witnesses.resize(slots * self.n, 0);
    }

    /// Copy a delivered state into empty row `i`, which becomes pending.
    /// The payload check has run: `d` components and at most `n` ids.
    fn write(&mut self, i: usize, value: impl Iterator<Item = f64>, witness: impl ExactSizeIterator<Item = ProcessId>) {
        let (d, n) = (self.d, self.n);
        self.rows[i] = (Mark::Pending, witness.len());
        self.values[i * d..(i + 1) * d].iter_mut().zip(value).for_each(|(slot, x)| *slot = x);
        self.witnesses[i * n..(i + 1) * n].iter_mut().zip(witness).for_each(|(slot, k)| *slot = k);
    }

    /// The round-`round` values `ids` name, as vectors: the δ* and Γ
    /// kernels' input.
    fn named(&self, round: usize, ids: &[ProcessId]) -> Vec<VecD> {
        ids.iter().map(|&k| VecD::from_slice(self.value(round * self.n + k))).collect()
    }

    /// The average of the round-`round` values `ids` name (the `t ≥ 1` rule
    /// of Definition 12), component by component: summed from zero in
    /// witness order, then scaled by `1 / |ids|` — the bits a vector sum in
    /// that order gives.
    fn average<'a>(&'a self, round: usize, ids: &'a [ProcessId]) -> impl Iterator<Item = f64> + 'a {
        let s = 1.0 / ids.len() as f64;
        let row = move |k: ProcessId| (round * self.n + k) * self.d;
        (0..self.d).map(move |j| ids.iter().fold(0.0, |acc, &k| acc + self.values[row(k) + j]) * s)
    }
}

/// The round-0 combining rule over the ids `ids`, memoised in `memo` on the
/// ids (order counts): the values they name are fixed once verified, so a
/// hit returns the bits a fresh `solve` would. Every round-1 state verified
/// here and this process's own combine ask for it — one witness per origin
/// plus its own, so the memo keeps `n + 1` (`cap`) entries; past that, a new
/// one takes the last one's place.
fn combine_round0<'m>(
    memo: &'m mut Vec<(Vec<ProcessId>, Round0)>,
    cap: usize,
    ids: &[ProcessId],
    solve: impl FnOnce() -> Round0,
) -> &'m Round0 {
    let k = match memo.iter().position(|(key, _)| key == ids) {
        Some(k) => k,
        None => {
            if memo.len() == cap {
                memo.pop();
            }
            memo.push((ids.to_vec(), solve()));
            memo.len() - 1
        }
    };
    &memo[k].1
}

/// The protocol instance for one process.
pub struct VerifiedAveraging {
    id: ProcessId,
    n: usize,
    f: usize,
    total_rounds: usize,
    mode: DeltaMode,
    tol: Tol,
    input: VecD,

    /// The per-tag Bracha broadcasts of the [`AsyncProtocol`] impl, indexed
    /// `round · n + origin`: empty until that impl first takes part in one,
    /// then `n · total_rounds` slots. Sized on first use, not in `new`: a
    /// registered instance that never runs costs nothing.
    rb: Vec<Option<BrachaInstance<Arc<VaBatch>>>>,
    /// The delivered states, indexed like `rb`.
    record: Record,
    /// Round-0 combining results keyed by their witness ids; see
    /// [`combine_round0`].
    round0: Vec<(Vec<ProcessId>, Round0)>,
    /// Verified rows, over all rounds.
    commits: u64,
    /// Rows delivered but not yet verifiable (waiting on witness
    /// deliveries), in delivery order.
    pending: Vec<usize>,
    refusals: Refusals,
    /// This process's next state, built in place and handed to the host:
    /// its value and its witness.
    next_value: Vec<f64>,
    next_witness: Vec<ProcessId>,

    /// Highest round whose state this process has broadcast.
    my_round: usize,
    decided: Option<VecD>,
    /// δ used by this process's own round-0 combining (experiment metric).
    round0_delta: Option<f64>,
    /// Most recent combining failure; the node stays undecided instead of
    /// panicking the whole run, and clears this if a later attempt succeeds.
    last_error: Option<ProtocolError>,
}

impl VerifiedAveraging {
    /// Build the protocol for process `id` with the given `input`; the
    /// process decides after `total_rounds` averaging rounds.
    #[must_use]
    pub fn new(
        id: ProcessId,
        n: usize,
        f: usize,
        input: VecD,
        mode: DeltaMode,
        total_rounds: usize,
        tol: Tol,
    ) -> Self {
        assert!(n > 3 * f, "verified averaging requires n >= 3f + 1");
        assert!(total_rounds >= 1, "need at least one averaging round");
        VerifiedAveraging {
            id,
            n,
            f,
            total_rounds,
            mode,
            tol,
            record: Record { n, d: input.dim(), ..Record::default() },
            input,
            rb: Vec::new(),
            round0: Vec::new(),
            commits: 0,
            pending: Vec::new(),
            refusals: Refusals::default(),
            next_value: Vec::new(),
            next_witness: Vec::new(),
            my_round: 0,
            decided: None,
            round0_delta: None,
            last_error: None,
        }
    }

    /// The δ this process's round-0 combining step needed (`Some(0.0)` for
    /// `DeltaMode::Zero` runs that succeeded).
    #[must_use]
    pub fn round0_delta(&self) -> Option<f64> {
        self.round0_delta
    }

    /// The decision, once reached, without a copy.
    #[must_use]
    pub fn decision(&self) -> Option<&VecD> {
        self.decided.as_ref()
    }

    /// The decision, moved out of the machine it ends.
    #[must_use]
    pub fn into_output(self) -> Option<VecD> {
        self.decided
    }

    /// Total witness states this process has verified so far, across all
    /// rounds — monotone protocol progress, durable-logged by the service
    /// layer so a recovering node can assert its replayed state reached at
    /// least the logged mark.
    #[must_use]
    pub fn witness_commits(&self) -> u64 {
        self.commits
    }

    /// What this process refused so far, by check.
    #[must_use]
    pub fn refusals(&self) -> Refusals {
        self.refusals
    }

    /// The value delivered for `tag`, if a state was: the first one.
    #[must_use]
    pub fn delivered_value(&self, tag: RoundTag) -> Option<&[f64]> {
        let i = self.index(tag)?;
        matches!(self.record.mark(i), Mark::Pending | Mark::Verified | Mark::Rejected).then(|| self.record.value(i))
    }

    /// Rows of the record: 0 until this process first delivers a state,
    /// then `n · total_rounds`, whatever tags arrive.
    #[must_use]
    pub fn broadcast_slots(&self) -> usize {
        self.record.rows.len()
    }

    /// The most recent combining error, if the node is degraded (e.g. Γ(X)
    /// came up empty under `DeltaMode::Zero`). `None` for healthy nodes.
    #[must_use]
    pub fn last_error(&self) -> Option<&ProtocolError> {
        self.last_error.as_ref()
    }

    /// Where broadcast `tag` lives in the tables, if it is one of this run's
    /// (`origin < n`, `round < total_rounds`).
    fn index(&self, (origin, round): RoundTag) -> Option<usize> {
        (origin < self.n && round < self.total_rounds).then(|| round * self.n + origin)
    }

    /// The Bracha machine of broadcast `tag`, opened if it is new. `tag` has
    /// passed the bounds gate.
    fn instance(&mut self, tag: RoundTag) -> &mut BrachaInstance<Arc<VaBatch>> {
        let i = self.index(tag).expect("a tag past the bounds gate names a broadcast of this run");
        if self.rb.is_empty() {
            self.rb.resize_with(self.n * self.total_rounds, || None);
        }
        let (n, f) = (self.n, self.f);
        self.rb[i].get_or_insert_with(|| BrachaInstance::new(n, f))
    }

    /// Queue `msg` of broadcast `tag` for every process, this one included.
    fn multicast(&self, tag: RoundTag, msg: BrachaMsg<Arc<VaBatch>>, out: &mut Vec<(ProcessId, VaMsg)>) {
        out.extend((0..self.n).map(|dst| (dst, (tag, msg.clone()))));
    }

    /// Broadcast each state `own` holds — one slot each, in round order — as
    /// this process's `Init` for its round.
    fn broadcast_own(&self, mut own: BatchWriter, out: &mut Vec<(ProcessId, VaMsg)>) {
        own.drain(1, |state| {
            let tag = (self.id, state.head().1 as usize);
            self.multicast(tag, BrachaMsg::Init(Arc::new(state)), out);
        });
    }

    /// This process's input: the value of its round-0 state, which it
    /// reliably broadcasts first, with an empty witness. A host that
    /// broadcasts states itself sends it when it launches the instance.
    #[must_use]
    pub fn input(&self) -> &VecD {
        &self.input
    }

    /// The delivery entry: `slot` is what the host delivered as `origin`'s
    /// state of round `slot.round`. Refused and counted — with nothing else
    /// changed, the record included — when the tag is outside this run
    /// ([`Refusals::bounds`]), the state fails the payload check
    /// ([`Refusals::payload`]), or a state was already delivered for the tag
    /// ([`Refusals::duplicate`]: the first one wins). Otherwise its value and
    /// witness are copied into the tag's row and it is verified (now, or
    /// once its witness is), with any pending state that becomes verifiable;
    /// each state this process moves on to is written into `own`, in round
    /// order, as a slot of `slot.instance` — for the host to broadcast and,
    /// in time, deliver back.
    pub fn deliver_slot(&mut self, origin: ProcessId, slot: SlotView<'_>, own: &mut BatchWriter) {
        let Some(i) = self.index((origin, slot.round as usize)) else {
            self.refusals.bounds += 1;
            return;
        };
        if !self.payload_ok(&slot) {
            self.refusals.payload += 1;
            return;
        }
        if self.record.rows.is_empty() {
            self.record.size(self.n * self.total_rounds);
        }
        if self.record.mark(i) != Mark::Empty {
            self.refusals.duplicate += 1;
            return;
        }
        self.record.write(i, slot.value(), slot.witness());
        self.pending.push(i);
        // Fixpoint: verification of one state can unblock others.
        loop {
            let mut progressed = false;
            let mut k = 0;
            while k < self.pending.len() {
                let row = self.pending[k];
                let Some(ok) = self.try_verify(row) else {
                    k += 1;
                    continue;
                };
                self.pending.swap_remove(k);
                self.record.rows[row].0 = if ok { Mark::Verified } else { Mark::Rejected };
                if ok {
                    self.commits += 1;
                } else {
                    self.refusals.verify += 1;
                }
                progressed = true;
            }
            let advanced = self.try_advance(slot.instance, own);
            if !progressed && !advanced {
                break;
            }
        }
    }

    /// Close every tag of `origin` that holds no state, for a host that
    /// dropped a state of `origin`'s unseen (that one won its tag): a later
    /// state for a closed tag is a duplicate, and one naming it never
    /// verifies here. An `origin` outside the run closes nothing.
    pub fn close_origin(&mut self, origin: ProcessId) {
        if origin >= self.n {
            return;
        }
        if self.record.rows.is_empty() {
            self.record.size(self.n * self.total_rounds);
        }
        let open = self.record.rows.iter_mut().skip(origin).step_by(self.n).filter(|row| row.0 == Mark::Empty);
        open.for_each(|row| row.0 = Mark::Closed);
    }

    /// The round-0 combining rule itself. Fails (instead of panicking) when
    /// `Γ(X)` is empty in `DeltaMode::Zero` — which Byzantine inputs can
    /// provoke whenever the run violates `n ≥ (d+2)f + 1`.
    fn solve_round0(mode: DeltaMode, f: usize, tol: Tol, values: &[VecD]) -> Round0 {
        match mode {
            DeltaMode::Zero => gamma_point(values, f, tol)
                .map(|point| (point, 0.0))
                .ok_or(ProtocolError::EmptyIntersection {
                    round: 0,
                    mode: "Γ(X) in DeltaMode::Zero",
                }),
            DeltaMode::MinDelta(norm) => {
                let ds = delta_star(values, f, norm, tol);
                Ok((ds.witness, ds.delta))
            }
        }
    }

    /// Attempt to verify the state in row `i`, recomputing its arithmetic
    /// in place over the record. Returns `Some(true)` verified,
    /// `Some(false)` rejected, `None` undecidable yet.
    fn try_verify(&mut self, i: usize) -> Option<bool> {
        let tol = self.verify_tol();
        let VerifiedAveraging { n, f, mode, tol: rule_tol, record, round0, .. } = self;
        let (n, round) = (*n, i / *n);
        if round == 0 {
            // Inputs are unconstrained: any round-0 value verifies.
            return Some(true);
        }
        // Witness sanity: enough entries, distinct origins of this run.
        let ids = record.witness(i);
        if ids.len() < n - *f {
            return Some(false);
        }
        for (k, id) in ids.iter().enumerate() {
            if *id >= n || ids[..k].contains(id) {
                return Some(false);
            }
        }
        // Every name must be a state this process verified at t−1: one it
        // rejected never will be (rejection is permanent, and a correct
        // process names only what it verified); any other may be, later.
        let prior = (round - 1) * n;
        if let Some(&k) = ids.iter().find(|&&k| record.mark(prior + k) != Mark::Verified) {
            return (record.mark(prior + k) == Mark::Rejected).then_some(false);
        }
        let value = record.value(i);
        if round > 1 {
            return Some(record.average(round - 1, ids).zip(value).all(|(a, &b)| tol.eq(a, b)));
        }
        let solve = || Self::solve_round0(*mode, *f, *rule_tol, &record.named(0, ids));
        match combine_round0(round0, n + 1, ids, solve) {
            Ok((point, _)) => {
                Some(point.dim() == value.len() && point.as_slice().iter().zip(value).all(|(&a, &b)| tol.eq(a, b)))
            }
            // A witness set whose combination is undefined cannot back an
            // honest state: certain rejection, never a panic.
            Err(_) => Some(false),
        }
    }

    /// Receive-boundary payload validation: dimension match against our own
    /// input, and a sound slot ([`SlotView::is_sound`]: finite components,
    /// a witness of at most `n` of this run's ids). A payload failing this
    /// never reaches the Bracha instance or the record, so a single poisoned
    /// message costs its sender influence — nothing else.
    fn payload_ok(&self, slot: &SlotView<'_>) -> bool {
        slot.value().len() == self.input.dim() && slot.is_sound(self.n)
    }

    fn verify_tol(&self) -> Tol {
        // Receivers recompute the *same deterministic function* on the same
        // ordered inputs, so only representation noise needs absorbing.
        Tol(self.tol.value().max(1e-9) * 100.0)
    }

    /// Advance to the next round if enough verified states are in, writing
    /// the new state into `own` as a slot of `instance` unless that decided.
    /// Returns true if the process moved.
    fn try_advance(&mut self, instance: u64, own: &mut BatchWriter) -> bool {
        let (n, t) = (self.n, self.my_round);
        if self.decided.is_some() {
            return false;
        }
        let Some(row) = self.record.rows.get(t * n..(t + 1) * n) else {
            return false;
        };
        if row.iter().filter(|(mark, _)| *mark == Mark::Verified).count() < n - self.f {
            return false;
        }
        let VerifiedAveraging { record, round0, next_value, next_witness, mode, f, tol, .. } = self;
        // Canonicalize the combining order by origin id: float summation is
        // order-sensitive, and verification order is delivery-dependent, so
        // without this two transports (or two runs) computing over the same
        // verified multiset could differ in the last bits. With f = 0 (the
        // wait-for-all regime) this makes decisions bit-identical across
        // transports; verifiers recompute over the witness as broadcast, so
        // the ascending order is self-consistent end to end.
        next_witness.clear();
        next_witness.extend((0..n).filter(|&k| record.mark(t * n + k) == Mark::Verified));
        next_value.clear();
        if t == 0 {
            let solve = || Self::solve_round0(*mode, *f, *tol, &record.named(0, next_witness));
            match combine_round0(round0, n + 1, next_witness, solve) {
                Ok((point, delta)) => {
                    next_value.extend_from_slice(point.as_slice());
                    self.round0_delta = Some(*delta);
                    self.last_error = None;
                }
                Err(e) => {
                    // Degrade this one node: it stays undecided (and may
                    // retry as more verified states arrive) instead of
                    // tearing down the whole run.
                    self.last_error = Some(e.clone());
                    return false;
                }
            }
        } else {
            next_value.extend(record.average(t, next_witness));
        }
        self.my_round = t + 1;
        if self.my_round >= self.total_rounds {
            self.decided = Some(VecD::from_slice(&self.next_value));
        } else {
            let round = u32::try_from(self.my_round).expect("round fits u32");
            own.push(instance, round, self.next_value.iter().copied(), self.next_witness.iter().copied());
        }
        true
    }
}

impl AsyncProtocol for VerifiedAveraging {
    type Msg = VaMsg;
    type Output = VecD;

    fn on_start(&mut self) -> Vec<(ProcessId, VaMsg)> {
        let (mut own, mut out) = (BatchWriter::default(), Vec::new());
        own.push(0, 0, self.input.as_slice().iter().copied(), std::iter::empty());
        self.broadcast_own(own, &mut out);
        out
    }

    fn on_message(&mut self, from: ProcessId, msg: VaMsg) -> Vec<(ProcessId, VaMsg)> {
        let (tag, bmsg) = msg;
        // Bound rounds to the ones honest processes broadcast (`0 ..
        // total_rounds`) to keep a Byzantine flood from allocating
        // unboundedly; reject ghost senders and ghost origins outright.
        if from >= self.n || tag.1 >= self.total_rounds || tag.0 >= self.n {
            self.refusals.bounds += 1;
            return Vec::new();
        }
        // Receive-boundary payload validation before the broadcast substrate
        // ever sees the message: one slot, of instance 0, the tag's state.
        let (BrachaMsg::Init(batch) | BrachaMsg::Echo(batch) | BrachaMsg::Ready(batch)) = &bmsg;
        let slot = batch.slot(0);
        if batch.slots().len() != 1 || (slot.instance, slot.round as usize) != (0, tag.1) || !self.payload_ok(&slot) {
            self.refusals.payload += 1;
            return Vec::new();
        }
        let mut out = Vec::new();
        let actions = self.instance(tag).on_message(from, tag.0, bmsg);
        if let Some(m) = actions.broadcast {
            self.multicast(tag, m, &mut out);
        }
        if let Some(batch) = actions.delivered {
            let mut own = BatchWriter::default();
            self.deliver_slot(tag.0, batch.slot(0), &mut own);
            self.broadcast_own(own, &mut out);
        }
        out
    }

    fn output(&self) -> Option<VecD> {
        self.decided.clone()
    }
}


/// Byzantine strategy: attempts a split-brain on its own round-0 broadcast,
/// sending `Init(a)` — `inner`'s input — to the first half of processes and
/// `Init(alt)` to the rest. Bracha RB must prevent correct processes from
/// delivering different values. (The strategy that runs the protocol
/// faithfully with a chosen input is [`rbvc_sim::fuzz::follow`].)
#[must_use]
pub fn split_brain_input(
    inner: VerifiedAveraging,
    alt: VecD,
) -> Edited<VerifiedAveraging, impl FnMut(usize, &mut Sends<VaMsg>)> {
    let n = inner.n;
    Edited::new(inner, move |step, sends: &mut Sends<VaMsg>| {
        if step > 0 {
            return; // only `on_start` carries its own round-0 `Init`
        }
        for (dst, (tag, m)) in sends {
            if *dst >= n / 2 && tag.1 == 0 {
                if let BrachaMsg::Init(state) = m {
                    *state = Arc::new(state.edited(|_, value| value.clone_from(&alt.0)));
                }
            }
        }
    })
}

/// Byzantine strategy: participates via the honest machinery but adds
/// `offset` to the *value* of its own round-`t ≥ 1` states (keeping the
/// witness), so its states must fail verification at every correct process.
#[must_use]
pub fn corrupt_average(
    inner: VerifiedAveraging,
    offset: VecD,
) -> Edited<VerifiedAveraging, impl FnMut(usize, &mut Sends<VaMsg>)> {
    let id = inner.id;
    Edited::new(inner, move |_, sends: &mut Sends<VaMsg>| {
        for (_, (tag, m)) in sends {
            if tag.0 == id && tag.1 >= 1 {
                if let BrachaMsg::Init(state) = m {
                    *state = Arc::new(state.edited(|_, value| value.iter_mut().zip(&offset.0).for_each(|(x, o)| *x += o)));
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbvc_sim::asynch::{
        AsyncEngine, AsyncNode, FifoScheduler, RandomScheduler, Scheduler, TargetedDelayScheduler,
    };
    use rbvc_sim::fuzz::SilentAdversary;
    use rbvc_sim::config::SystemConfig;
    use rbvc_sim::fuzz::follow;

    use crate::problem::{check_execution, Agreement, Validity};

    fn t() -> Tol {
        Tol::default()
    }

    struct Setup {
        n: usize,
        f: usize,
        inputs: Vec<VecD>,
        mode: DeltaMode,
        rounds: usize,
    }

    enum Byz {
        Silent,
        HonestInput(VecD),
        SplitBrain(VecD, VecD),
        Corrupt(VecD, VecD), // (input, offset)
    }

    fn build(
        setup: &Setup,
        byz: Vec<(usize, Byz)>,
    ) -> (SystemConfig, AsyncEngine<VerifiedAveraging>) {
        let faulty: Vec<usize> = byz.iter().map(|(i, _)| *i).collect();
        let config = SystemConfig::new(setup.n, setup.f).with_faulty(faulty);
        let nodes: Vec<AsyncNode<VerifiedAveraging>> = (0..setup.n)
            .map(|i| {
                let proto = |input: &VecD| {
                    let Setup { n, f, mode, rounds, .. } = *setup;
                    VerifiedAveraging::new(i, n, f, input.clone(), mode, rounds, t())
                };
                match byz.iter().find(|(j, _)| *j == i).map(|(_, b)| b) {
                    None => AsyncNode::Honest(proto(&setup.inputs[i])),
                    Some(Byz::Silent) => {
                        AsyncNode::Byzantine(Box::new(SilentAdversary))
                    }
                    Some(Byz::HonestInput(v)) => {
                        AsyncNode::Byzantine(Box::new(follow(proto(v))))
                    }
                    Some(Byz::SplitBrain(a, b)) => {
                        AsyncNode::Byzantine(Box::new(split_brain_input(proto(a), b.clone())))
                    }
                    Some(Byz::Corrupt(input, offset)) => {
                        AsyncNode::Byzantine(Box::new(corrupt_average(proto(input), offset.clone())))
                    }
                }
            })
            .collect();
        (config.clone(), AsyncEngine::new(config, nodes))
    }

    /// Run `setup` with the Byzantine processes `byz` under `sched` until
    /// every correct process decides; their decisions, in id order.
    fn decide(setup: &Setup, byz: Vec<(usize, Byz)>, sched: &mut dyn Scheduler) -> Vec<Option<VecD>> {
        let (config, mut engine) = build(setup, byz);
        let out = engine.run(sched, 4_000_000);
        assert!(out.all_decided, "liveness failed");
        config.correct_ids().into_iter().map(|i| out.decisions[i].clone()).collect()
    }

    /// [`decide`], then the paper's conditions on the decisions: ε-agreement
    /// and `validity` over the correct processes' inputs.
    fn check(setup: &Setup, byz: Vec<(usize, Byz)>, sched: &mut dyn Scheduler, eps: f64, validity: &Validity) {
        let correct = (0..setup.n).filter(|i| byz.iter().all(|(j, _)| j != i));
        let inputs: Vec<VecD> = correct.map(|i| setup.inputs[i].clone()).collect();
        let outputs = decide(setup, byz, sched);
        let v = check_execution(&inputs, &outputs, Agreement::Epsilon(eps), validity, t());
        assert!(v.ok(), "{v:?}");
    }

    #[test]
    fn baseline_approximate_bvc_at_theorem2_bound() {
        // d = 2, f = 1, n = (d+2)f+1 = 5, DeltaMode::Zero.
        let v = |x, y| VecD::from_slice(&[x, y]);
        let inputs = vec![v(0.0, 0.0), v(1.0, 0.0), v(0.0, 1.0), v(1.0, 1.0), v(0.5, 0.5)];
        let setup = Setup { n: 5, f: 1, inputs, mode: DeltaMode::Zero, rounds: 25 };
        let byz = vec![(4, Byz::HonestInput(v(9.0, -9.0)))];
        check(&setup, byz, &mut RandomScheduler::new(42), 1e-4, &Validity::Exact);
    }

    #[test]
    fn relaxed_averaging_below_theorem2_bound() {
        // The paper's point: d = 3, f = 1, n = 4 < (d+2)f+1 = 6 — baseline
        // impossible, but MinDelta mode achieves (δ,2)-relaxed validity
        // with δ ≤ κ(n−f, f, d, 2)·max-edge (Theorem 15).
        let v = |x, y, z| VecD::from_slice(&[x, y, z]);
        let inputs = vec![v(0.0, 0.0, 0.0), v(1.0, 0.1, -0.2), v(0.2, 1.0, 0.3), v(-0.3, 0.4, 1.0)];
        let setup = Setup { n: 4, f: 1, inputs, mode: DeltaMode::MinDelta(Norm::L2), rounds: 30 };
        // κ from Theorem 15 with a safety factor for the asynchronous
        // mixture of round-0 views (different X sets, then averaging).
        let kappa = crate::bounds::kappa_async(4, 1, 3, Norm::L2).expect("regime covered").kappa;
        let validity = Validity::InputDependentDeltaP { kappa, norm: Norm::L2 };
        let byz = vec![(1, Byz::HonestInput(v(5.0, 5.0, 5.0)))];
        check(&setup, byz, &mut RandomScheduler::new(7), 1e-3, &validity);
    }

    #[test]
    fn split_brain_broadcaster_cannot_diverge_correct_processes() {
        let inputs = (0..5).map(|i| VecD::from_slice(&[i as f64, 0.0])).collect();
        let setup = Setup { n: 5, f: 1, inputs, mode: DeltaMode::Zero, rounds: 20 };
        let split = Byz::SplitBrain(VecD::from_slice(&[100.0, 100.0]), VecD::from_slice(&[-100.0, -100.0]));
        check(&setup, vec![(2, split)], &mut RandomScheduler::new(3), 1e-3, &Validity::Exact);
    }

    /// Corrupt averages must neither block progress nor leak into decisions.
    #[test]
    fn corrupt_average_is_rejected_and_liveness_survives() {
        let inputs = (0..5).map(|i| VecD::from_slice(&[i as f64, 1.0])).collect();
        let setup = Setup { n: 5, f: 1, inputs, mode: DeltaMode::Zero, rounds: 20 };
        let corrupt = Byz::Corrupt(VecD::from_slice(&[2.0, 1.0]), VecD::from_slice(&[1000.0, 1000.0]));
        check(&setup, vec![(0, corrupt)], &mut RandomScheduler::new(9), 1e-3, &Validity::Exact);
    }

    #[test]
    fn silent_fault_does_not_block() {
        let inputs = (0..5).map(|i| VecD::from_slice(&[(i * i) as f64 / 4.0, i as f64])).collect();
        let setup = Setup { n: 5, f: 1, inputs, mode: DeltaMode::Zero, rounds: 15 };
        check(&setup, vec![(3, Byz::Silent)], &mut FifoScheduler, 1e-3, &Validity::Exact);
    }

    #[test]
    fn targeted_delay_scheduler_preserves_epsilon_agreement() {
        let inputs = (0..5).map(|i| VecD::from_slice(&[i as f64, -(i as f64)])).collect();
        let setup = Setup { n: 5, f: 1, inputs, mode: DeltaMode::Zero, rounds: 20 };
        let mut sched = TargetedDelayScheduler::new(vec![0], 100, 5);
        check(&setup, vec![(4, Byz::Silent)], &mut sched, 1e-3, &Validity::Exact);
    }

    #[test]
    fn epsilon_agreement_tightens_with_rounds() {
        // Contraction: more rounds → strictly smaller disagreement.
        let inputs: Vec<VecD> =
            (0..4).map(|i| VecD::from_slice(&[(3 * i) as f64, (i * i) as f64])).collect();
        let disagreement = |rounds: usize| -> f64 {
            let mode = DeltaMode::MinDelta(Norm::L2);
            let setup = Setup { n: 4, f: 1, inputs: inputs.clone(), mode, rounds };
            let decided: Vec<VecD> =
                decide(&setup, vec![], &mut RandomScheduler::new(11)).into_iter().flatten().collect();
            let pairs = decided.iter().flat_map(|a| decided.iter().map(move |b| a.dist(b, Norm::LInf)));
            pairs.fold(0.0, f64::max)
        };
        let d5 = disagreement(5);
        let d15 = disagreement(15);
        assert!(
            d15 < d5 / 4.0 || d15 < 1e-9,
            "averaging failed to contract: 5 rounds → {d5}, 15 rounds → {d15}"
        );
    }

    /// The batch of one round-`round` state of instance 0: `xs` and
    /// `witness` — a simulator message's payload.
    fn state(round: u32, xs: &[f64], witness: &[ProcessId]) -> Arc<VaBatch> {
        let mut writer = BatchWriter::default();
        writer.push(0, round, xs.iter().copied(), witness.iter().copied());
        Arc::new(writer.finish())
    }

    #[test]
    fn malformed_payloads_are_dropped_at_the_receive_boundary() {
        // NaN components, wrong dimension, ghost witness ids, a batch of two
        // slots, a slot of another round than its tag or of another instance
        // than 0, ghost senders: each
        // must be discarded without panicking or polluting state, and the
        // node must still decide with the honest majority afterwards.
        let inputs: Vec<VecD> = (0..4).map(|i| VecD::from_slice(&[i as f64, 1.0])).collect();
        let setup = Setup { n: 4, f: 1, inputs, mode: DeltaMode::MinDelta(Norm::L2), rounds: 5 };
        let mut node = VerifiedAveraging::new(0, 4, 1, setup.inputs[0].clone(), setup.mode, 5, t());
        let _ = node.on_start();
        let poison = |batch: Arc<VaBatch>| ((3, 0), BrachaMsg::Init(batch));
        let mut two = BatchWriter::default();
        (0..2).for_each(|_| two.push(0, 0, [1.0, 1.0].into_iter(), std::iter::empty()));
        let mut other = BatchWriter::default();
        other.push(1, 0, [1.0, 1.0].into_iter(), std::iter::empty());
        for (from, msg, what) in [
            (3, poison(state(0, &[f64::NAN, 0.0], &[])), "a non-finite component"),
            (3, poison(state(0, &[1.0, 2.0, 3.0], &[])), "a dimension mismatch"),
            (3, poison(state(0, &[1.0, 1.0], &[0, 99, 1])), "an out-of-range witness id"),
            (3, poison(Arc::new(two.finish())), "a batch of two slots"),
            (3, poison(state(1, &[1.0, 1.0], &[])), "a slot of another round"),
            (3, poison(Arc::new(other.finish())), "a slot of another instance"),
            (42, poison(state(0, &[1.0, 1.0], &[])), "a ghost sender"),
        ] {
            assert!(node.on_message(from, msg).is_empty(), "{what} must be dropped silently");
        }
        assert_eq!(node.refusals(), Refusals { bounds: 1, payload: 6, ..Refusals::default() });
        // Round `total_rounds`, which no honest process broadcasts: refused
        // at the bounds gate, and no Bracha instance is opened for it.
        let r = node.on_message(3, ((3, 5), BrachaMsg::Init(state(5, &[1.0, 1.0], &[]))));
        assert!(r.is_empty() && node.rb.iter().flatten().count() == 0, "no broadcast is open");
        assert_eq!(node.refusals().bounds, 2, "the refusal is counted at the bounds gate");
        // Nothing reached the broadcast substrate or the delivered record.
        assert!(node.rb.iter().flatten().all(|b| b.delivered().is_none()));
        assert!(node.last_error().is_none());
        // The node is not wedged: a full run with the same shape decides.
        decide(&setup, vec![], &mut FifoScheduler);
    }

    #[test]
    fn equivocation_and_edits_never_alias_a_shared_state() {
        let v = |x: f64| VecD::from_slice(&[x, 1.0]);
        let proto = |id| VerifiedAveraging::new(id, 4, 1, v(5.0), DeltaMode::Zero, 3, t());
        // Two payloads under one tag: a 2 + 2 split reaches no echo quorum.
        let (mut node, a, b) = (proto(0), state(0, &[1.0, 1.0], &[]), state(0, &[2.0, 1.0], &[]));
        for (from, s) in [(0, &a), (1, &a), (2, &b), (3, &b)] {
            assert!(node.on_message(from, ((3, 0), BrachaMsg::Echo(Arc::clone(s)))).is_empty());
        }
        assert!(node.delivered_value((3, 0)).is_none());
        assert!(a.slot(0).value().eq([1.0, 1.0]) && b.slot(0).value().eq([2.0, 1.0]));
        // A shared state edited for the second half of the destinations: the
        // first half keeps the genuine one, still one allocation.
        use rbvc_sim::asynch::AsyncAdversary;
        let (genuine, sends) = (proto(2).on_start(), split_brain_input(proto(2), v(-9.0)).on_start());
        for ((dst, edited), (_, honest)) in sends.iter().zip(&genuine) {
            assert_eq!(edited == honest, *dst < 2, "destination {dst}");
        }
        let state = |dst: usize| match &sends[dst].1 .1 {
            BrachaMsg::Init(s) => Arc::clone(s),
            other => panic!("round 0 sends Inits, not {other:?}"),
        };
        assert!(Arc::ptr_eq(&state(0), &state(1)) && !Arc::ptr_eq(&state(1), &state(2)));
        assert!(state(2).slot(0).value().eq([-9.0, 1.0]), "the edit is the alternative value");
    }

    /// ±0.0 cannot split a broadcast. Byzantine origin 3 sends its round-0
    /// state `[0.0]` to processes 0 and 1 and its twin `[-0.0]` — an equal
    /// value, other bytes — to process 2, and echoes the first itself.
    /// Echoes and readies are handed over in an order under which a tally
    /// that pooled equal values would have process 0 complete its echo
    /// quorum with the twin and its ready quorum with its own ready, and so
    /// deliver `-0.0` while processes 1 and 2 deliver `0.0`. Counted by
    /// bytes, every honest process delivers the same bits.
    #[test]
    fn a_signed_zero_cannot_split_a_broadcast() {
        let n = 4;
        let mut procs: Vec<VerifiedAveraging> =
            (0..3).map(|i| VerifiedAveraging::new(i, n, 1, VecD::from_slice(&[1.0]), DeltaMode::Zero, 2, t())).collect();
        let (plus, minus) = (state(0, &[0.0], &[]), state(0, &[-0.0], &[]));
        // What a process multicasts in answer to `msg` (one message, to all).
        let hand = |p: &mut VerifiedAveraging, from, msg| {
            let sent: Vec<_> = p.on_message(from, ((3, 0), msg)).into_iter().filter(|(_, (tag, _))| *tag == (3, 0)).collect();
            sent.into_iter().next().map(|(_, (_, m))| m)
        };
        let mut echoes = vec![BrachaMsg::Echo(Arc::clone(&plus)); n];
        for (p, init) in [&plus, &plus, &minus].into_iter().enumerate() {
            echoes[p] = hand(&mut procs[p], 3, BrachaMsg::Init(Arc::clone(init))).expect("an echo of its Init");
        }
        let mut readies = vec![None; 3];
        for (p, order) in [[0, 3, 2, 1], [0, 2, 3, 1], [2, 0, 1, 3]].into_iter().enumerate() {
            for from in order {
                readies[p] = hand(&mut procs[p], from, echoes[from].clone()).or(readies[p].take());
            }
        }
        for (p, order) in [[1, 2, 0], [0, 2, 1], [0, 1, 2]].into_iter().enumerate() {
            for from in order {
                let _ = hand(&mut procs[p], from, readies[from].clone().expect("every process readies"));
            }
        }
        let bits: Vec<Vec<u64>> = procs
            .iter()
            .map(|p| p.delivered_value((3, 0)).expect("delivered").iter().map(|x| x.to_bits()).collect())
            .collect();
        assert!(bits.iter().all(|b| *b == bits[0]), "two honest processes delivered different bits: {bits:x?}");
    }

    /// The record's average, summed in place in witness order, is bit for
    /// bit the named vectors added up in that order and scaled.
    #[test]
    fn the_record_average_is_bit_equal_to_clone_and_add() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2016);
        for _ in 0..1000 {
            let (n, d) = (rng.gen_range(1..8usize), rng.gen_range(1..6usize));
            let mut record = Record { n, d, ..Record::default() };
            record.size(n);
            let values: Vec<VecD> = (0..n).map(|_| VecD((0..d).map(|_| rng.gen_range(-1e6..1e6)).collect())).collect();
            for (k, value) in values.iter().enumerate() {
                record.write(k, value.as_slice().iter().copied(), std::iter::empty());
            }
            let mut ids: Vec<ProcessId> = (0..n).collect();
            ids.swap(rng.gen_range(0..n), rng.gen_range(0..n));
            ids.truncate(rng.gen_range(1..n + 1));
            let mut acc = VecD::zeros(d);
            ids.iter().for_each(|&k| acc += values[k].clone());
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let average: Vec<f64> = record.average(0, &ids).collect();
            assert_eq!(bits(&average), bits(acc.scale(1.0 / ids.len() as f64).as_slice()));
        }
    }

    /// Record `states` as the round-`round` states this node delivered and
    /// verified.
    fn verify_round(node: &mut VerifiedAveraging, round: usize, states: &[(ProcessId, VecD)]) {
        node.record.size(node.n * node.total_rounds);
        for (k, value) in states {
            let i = round * node.n + k;
            node.record.write(i, value.as_slice().iter().copied(), std::iter::empty());
            node.record.rows[i].0 = Mark::Verified;
        }
    }

    /// The round-0 combining rule over `ids`, through the node's memo.
    fn round0(node: &mut VerifiedAveraging, ids: &[ProcessId]) -> Round0 {
        let VerifiedAveraging { record, round0, mode, f, tol, n, .. } = node;
        let solve = || VerifiedAveraging::solve_round0(*mode, *f, *tol, &record.named(0, ids));
        combine_round0(round0, *n + 1, ids, solve).clone()
    }

    /// A memo hit is bit for bit the fresh solve, in both modes; a witness
    /// that differs only by entry order misses; the memo stops growing at
    /// `n + 1` entries, a new one taking the last one's place.
    #[test]
    fn round0_memo_is_keyed_on_the_exact_witness() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let bits = |r: &Round0| {
            let (point, delta) = r.as_ref().ok()?;
            Some((point.0.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), delta.to_bits()))
        };
        let mut rng = StdRng::seed_from_u64(28);
        for case in 0..1000 {
            let (n, d) = (rng.gen_range(4..8usize), rng.gen_range(1..5usize));
            let mode = if case % 2 == 0 { DeltaMode::Zero } else { DeltaMode::MinDelta(Norm::L2) };
            let mut node = VerifiedAveraging::new(0, n, 1, VecD::zeros(d), mode, 2, t());
            let mut ids: Vec<ProcessId> = (0..n).collect();
            if rng.gen_bool(0.5) {
                ids.remove(rng.gen_range(0..n));
            }
            let mut vector = || VecD((0..d).map(|_| rng.gen_range(-3.0..3.0)).collect());
            let witness: Vec<(ProcessId, VecD)> = ids.iter().map(|&k| (k, vector())).collect();
            verify_round(&mut node, 0, &witness);
            let values: Vec<VecD> = witness.iter().map(|(_, v)| v.clone()).collect();
            let fresh = match mode {
                DeltaMode::Zero => gamma_point(&values, 1, t()).map(|p| (p, 0.0)),
                DeltaMode::MinDelta(norm) => {
                    let ds = delta_star(&values, 1, norm, t());
                    Some((ds.witness, ds.delta))
                }
            };
            let miss = round0(&mut node, &ids);
            let hit = round0(&mut node, &ids);
            assert_eq!(node.round0.len(), 1, "case {case}: the second call is a hit");
            let fresh = fresh.map(|(p, delta)| {
                (p.0.iter().map(|x| x.to_bits()).collect(), delta.to_bits())
            });
            assert_eq!(bits(&hit), fresh, "case {case}");
            assert_eq!(bits(&miss), fresh, "case {case}");
        }
        let mode = DeltaMode::MinDelta(Norm::L2);
        let mut node = VerifiedAveraging::new(0, 4, 1, VecD::zeros(2), mode, 2, t());
        let v = |x: f64, y: f64| VecD::from_slice(&[x, y]);
        verify_round(&mut node, 0, &[(0, v(0.0, 1.0)), (1, v(1.0, 0.0)), (2, v(1.0, 1.0)), (3, v(-0.0, 1.0))]);
        let _ = round0(&mut node, &[0, 2, 1]);
        assert_eq!(node.round0.len(), 1);
        let _ = round0(&mut node, &[0, 1, 2]);
        assert_eq!(node.round0.len(), 2, "order counts");
        for ids in [[0, 1, 3], [0, 2, 3], [1, 2, 3], [3, 2, 1], [0, 1, 2]] {
            let _ = round0(&mut node, &ids);
        }
        assert_eq!(node.round0.len(), 5, "at most n + 1 entries");
        assert_eq!(node.round0[4].0, [3, 2, 1], "the newest in the last one's place");
    }

    /// A round-t state verifies only as the combine of the verified values
    /// it names: a duplicate name, a name outside the run, fewer than n − f
    /// names or another value is rejected; a name not verified yet waits,
    /// and one this node rejected at t − 1 never verifies.
    #[test]
    fn a_witness_is_checked_against_the_own_verified_record() {
        let v = |x: f64, y: f64| VecD::from_slice(&[x, y]);
        let mode = DeltaMode::MinDelta(Norm::L2);
        let mut node = VerifiedAveraging::new(0, 4, 1, v(0.0, 0.0), mode, 3, t());
        let record = [(0, v(0.0, 3.0)), (1, v(3.0, 0.0)), (2, v(3.0, 3.0))];
        verify_round(&mut node, 0, &record);
        verify_round(&mut node, 1, &record);
        // State (3, round) written into its row afresh, then verified.
        fn verdict(node: &mut VerifiedAveraging, round: usize, value: &VecD, witness: &[ProcessId]) -> Option<bool> {
            let i = round * node.n + 3;
            node.record.rows[i] = (Mark::Empty, 0);
            node.record.write(i, value.as_slice().iter().copied(), witness.iter().copied());
            node.try_verify(i)
        }
        let mean = v(2.0, 2.0);
        for (ids, want) in [
            (vec![0, 1, 2], Some(true)),
            (vec![0, 0, 1], Some(false)),
            (vec![0, 1, 9], Some(false)),
            (vec![0, 1], Some(false)),
        ] {
            assert_eq!(verdict(&mut node, 2, &mean, &ids), want, "{ids:?}");
        }
        assert_eq!(verdict(&mut node, 2, &v(2.0, 2.5), &[0, 1, 2]), Some(false));
        let (point, _) = round0(&mut node, &[0, 1, 2]).expect("δ* has a point");
        assert_eq!(verdict(&mut node, 1, &point, &[0, 1, 2]), Some(true));
        assert_eq!(verdict(&mut node, 1, &(&point + &v(0.1, 0.0)), &[0, 1, 2]), Some(false));
        assert_eq!(verdict(&mut node, 2, &mean, &[0, 1, 3]), None, "3 may verify later");
        node.record.rows[4 + 3].0 = Mark::Rejected;
        assert_eq!(node.try_verify(2 * 4 + 3), Some(false), "3 was rejected at round 1");
    }

    #[test]
    fn empty_gamma_degrades_node_instead_of_panicking() {
        // d = 3, f = 1, n = 4 < (d+2)f + 1 = 6 with DeltaMode::Zero: Γ(X)
        // over |X| = 3 values is empty whenever the values are affinely
        // independent. The old code panicked; now every node must stay
        // undecided and report the error.
        let v = |x, y, z| VecD::from_slice(&[x, y, z]);
        let inputs = vec![v(0.0, 0.0, 0.0), v(1.0, 0.0, 0.0), v(0.0, 1.0, 0.0), v(0.0, 0.0, 1.0)];
        let setup = Setup { n: 4, f: 1, inputs, mode: DeltaMode::Zero, rounds: 3 };
        let (_, mut engine) = build(&setup, vec![]);
        let out = engine.run(&mut FifoScheduler, 2_000_000);
        assert!(
            !out.all_decided,
            "Γ(X) cannot be nonempty below the Theorem 2 bound"
        );
        assert!(out.decisions.iter().all(|d| d.is_none()));
        let errs = engine
            .nodes()
            .iter()
            .filter(|node| match node {
                AsyncNode::Honest(p) => matches!(
                    p.last_error(),
                    Some(ProtocolError::EmptyIntersection { .. })
                ),
                AsyncNode::Byzantine(_) => false,
            })
            .count();
        assert!(errs > 0, "degraded nodes must report EmptyIntersection");
    }

    /// A closed origin keeps the states it delivered and takes no other: a
    /// later state for one of its tags is a duplicate, the tag reads as
    /// undelivered, and a state whose witness names it waits unverified.
    #[test]
    fn a_closed_origin_takes_no_later_state() {
        let v = |x: f64| [x, 1.0 - x];
        let n = 4;
        let mut node = VerifiedAveraging::new(0, n, 1, VecD::from_slice(&v(0.0)), DeltaMode::MinDelta(Norm::L2), 4, t());
        let mut own = BatchWriter::default();
        let mut deliver = |node: &mut VerifiedAveraging, origin, round, x, witness: &[ProcessId]| {
            node.deliver_slot(origin, state(round, &v(x), witness).slot(0), &mut own);
        };
        deliver(&mut node, 1, 0, 1.0, &[]);
        node.close_origin(1);
        node.close_origin(n);
        deliver(&mut node, 1, 0, 5.0, &[]);
        deliver(&mut node, 1, 1, 1.0, &[0, 1, 2]);
        assert_eq!(node.delivered_value((1, 0)), Some(&v(1.0)[..]));
        assert_eq!(node.delivered_value((1, 1)), None);
        assert_eq!(node.refusals(), Refusals { duplicate: 2, ..Refusals::default() });
        deliver(&mut node, 2, 0, 2.0, &[]);
        deliver(&mut node, 3, 0, 3.0, &[]);
        deliver(&mut node, 2, 2, 2.0, &[1, 2, 3]);
        assert_eq!((node.pending.len(), node.refusals().verify), (1, 0), "waits on (1, 1)");
    }

    /// The delivery entry refuses what is out of the run, malformed or a
    /// second state for a tag, keeping the first; a witness of `n + 1` ids,
    /// or a value of another dimension, is refused before the record is
    /// written: the first delivery refused so sizes no table, and on a sized
    /// one the tag stays open for a good state. Four processes that hand
    /// each other every state they move on to through a perfect reliable
    /// broadcast (FIFO, to everyone) all decide, within ε of each other,
    /// though a round-1 state of origin 3 that fails verification comes
    /// first: each rejects it once and refuses its honest twin as a
    /// duplicate.
    #[test]
    fn deliver_keeps_the_first_state_per_tag_and_decides() {
        let v = |x: f64| [x, 1.0 - x];
        let (n, mode) = (4, DeltaMode::MinDelta(Norm::L2));
        let proto = |i: usize| VerifiedAveraging::new(i, n, 1, VecD::from_slice(&v(i as f64)), mode, 6, t());
        let deliver = |node: &mut VerifiedAveraging, origin, round, xs: &[f64], witness: &[ProcessId]| {
            let mut own = BatchWriter::default();
            node.deliver_slot(origin, state(round, xs, witness).slot(0), &mut own);
            own.drain(1, |_| panic!("no state moves it on"));
        };
        let mut node = proto(0);
        deliver(&mut node, 3, 0, &[0.5, 0.5], &[0, 1, 2, 3, 0]);
        deliver(&mut node, 3, 0, &[0.5], &[]);
        assert_eq!((node.refusals().payload, node.broadcast_slots()), (2, 0), "no table");
        deliver(&mut node, 4, 0, &v(1.0), &[]);
        deliver(&mut node, 3, 6, &v(1.0), &[]);
        deliver(&mut node, 3, 0, &[f64::NAN, 1.0], &[]);
        assert_eq!((node.refusals().bounds, node.broadcast_slots()), (2, 0), "no table");
        deliver(&mut node, 2, 0, &v(2.0), &[]);
        assert_eq!(node.broadcast_slots(), n * 6);
        deliver(&mut node, 3, 0, &[0.5, 0.5, 0.5], &[]);
        assert_eq!(node.delivered_value((3, 0)), None);
        deliver(&mut node, 3, 0, &v(3.0), &[]);
        deliver(&mut node, 3, 0, &v(9.0), &[]);
        let refused = Refusals { bounds: 2, payload: 4, duplicate: 1, ..Refusals::default() };
        assert_eq!(node.refusals(), refused);
        assert_eq!(node.delivered_value((3, 0)), Some(&v(3.0)[..]));

        let mut nodes: Vec<VerifiedAveraging> = (0..n).map(proto).collect();
        let bad = (3, state(1, &v(7.0), &[0, 1, 2]));
        let mut queue: std::collections::VecDeque<(ProcessId, Arc<VaBatch>)> =
            std::iter::once(bad).chain(nodes.iter().map(|p| (p.id, state(0, p.input().as_slice(), &[])))).collect();
        while let Some((origin, s)) = queue.pop_front() {
            for p in &mut nodes {
                let mut own = BatchWriter::default();
                p.deliver_slot(origin, s.slot(0), &mut own);
                own.drain(1, |state| queue.push_back((p.id, Arc::new(state))));
            }
        }
        let decided: Vec<VecD> = nodes.iter().map(|p| p.output().expect("decided")).collect();
        for p in &nodes {
            let refused = p.refusals();
            assert_eq!((refused.bounds, refused.payload, refused.verify), (0, 0, 1), "process {}", p.id);
            assert!(refused.duplicate >= 1, "process {}: the honest twin of the rejected state", p.id);
        }
        for (a, b) in decided.iter().zip(&decided[1..]) {
            assert!(a.dist(b, Norm::LInf) < 1e-3, "{a:?} vs {b:?}");
        }
    }
}
