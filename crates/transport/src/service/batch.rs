//! FIFO reliable broadcast of Verified-Averaging batches: the service's one
//! Bracha broadcast per origin per seal.
//!
//! Relaxed Verified Averaging (PAPER §10) reliably broadcasts every state of
//! every round. Nothing in it asks for one broadcast per state, so a node
//! collects the round states its live instances produce between two seals
//! — launches between polls included — into one **batch**, and broadcasts
//! the batch once, tagged (origin, seq) with a per-origin sequence number.
//! [`Batches`] runs one `BrachaInstance` per open tag and delivers each
//! origin's batches in seq order: a batch whose Bracha instance delivers
//! waits until every earlier batch of its origin has, and the machines at
//! and below the watermark are freed. Bracha gives every honest node the
//! same batch per tag; FIFO order gives every honest node the same
//! *sequence* of slots per origin, so "the first (instance, round) slot of
//! an origin wins" — the rule `VerifiedAveraging::deliver_parts` applies — picks
//! the same state everywhere, and a slot a Byzantine origin repeats in a
//! later batch is refused everywhere.
//!
//! What a batch must pass before this node echoes it is structural only:
//! finite values and witnesses of at most `n` ids below `n` (the codec
//! already capped slot counts, dimensions and rounds). Whether its
//! instances exist, what protocol they run, their dimension and round
//! budget are checked per slot at delivery, where every honest node holds
//! the same batch: an echo that depended on this node's instance map would
//! let two honest nodes disagree on whether a batch may be delivered at all.
//! There is no refusal window ahead of the watermark: at `n = 3f + 1` every
//! honest echo is needed, so a node echoes whatever seq arrives. The open
//! machines are bounded by traffic, one per tag a frame names; retiring
//! them under a cap is ROADMAP item 2.

use std::collections::VecDeque;
use std::sync::Arc;

use rbvc_sim::bracha::{BrachaInstance, BrachaMsg};
use rbvc_sim::config::ProcessId;

use super::outbound::Outbound;
use crate::wire::{encode_frame, BatchMsg, BatchTag, BatchWriter, Frame, Hint, VaBatch, MAX_BATCH_SLOTS};

/// One batch broadcast not yet delivered in order.
struct Open {
    seq: u32,
    /// The first batch this node took for the tag: the decode hint.
    first: Arc<VaBatch>,
    machine: BrachaInstance<Arc<VaBatch>>,
}

/// One origin's broadcasts: the next seq to deliver, and the open tags at
/// or ahead of it in seq order. Sequence numbers are compared by their
/// distance ahead of the watermark, so they may wrap.
#[derive(Default)]
struct Origin {
    next: u32,
    open: VecDeque<Open>,
}

impl Origin {
    /// How far `seq` is ahead of the watermark; `None` if it was delivered.
    fn ahead(&self, seq: u32) -> Option<u32> {
        Some(seq.wrapping_sub(self.next)).filter(|&d| d < 1 << 31)
    }

    /// Where tag `seq` (at most `ahead` of the watermark) is or belongs.
    fn find(&self, ahead: u32) -> Result<usize, usize> {
        self.open.binary_search_by_key(&ahead, |e| e.seq.wrapping_sub(self.next))
    }
}

/// Batch messages refused before any tally, by check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Refused {
    /// An origin or sender outside the run.
    pub(super) bounds: u64,
    /// A slot with a non-finite value or a witness outside the run.
    pub(super) payload: u64,
}

/// The batch layer of one node: its own sequence, every origin's open
/// broadcasts and watermark, and the next batch.
pub(super) struct Batches {
    local: ProcessId,
    n: usize,
    /// The Bracha bound: the most faults an `n`-process mesh tolerates, so
    /// that every instance's own `f` is covered.
    f: usize,
    /// This node's next sequence number.
    next_seq: u32,
    origins: Vec<Origin>,
    /// The round states this node's instances produced since the last seal,
    /// in production order, written out: the next batch.
    pub(super) pending: BatchWriter,
    pub(super) refused: Refused,
}

impl Batches {
    pub(super) fn new(local: ProcessId, n: usize) -> Self {
        Batches {
            local,
            n,
            f: n.saturating_sub(1) / 3,
            next_seq: 0,
            origins: (0..n).map(|_| Origin::default()).collect(),
            pending: BatchWriter::default(),
            refused: Refused::default(),
        }
    }

    /// What this node knows of `tag`, for the decoder: the batch it holds,
    /// to compare a frame's bytes with, or that the tag delivered, so that a
    /// late frame is checked and built into nothing.
    pub(super) fn hint(&self, (origin, seq): BatchTag) -> Hint<'_> {
        let Some(o) = self.origins.get(origin) else { return Hint::Unknown };
        let Some(ahead) = o.ahead(seq) else { return Hint::Delivered };
        o.find(ahead).map_or(Hint::Unknown, |i| Hint::Held(&o.open[i].first))
    }

    /// Whether a node may echo `batch`: every value finite, every witness at
    /// most `n` ids, each below `n`.
    fn structural_ok(&self, batch: &VaBatch) -> bool {
        batch.slots().all(|slot| {
            slot.value().all(f64::is_finite) && slot.witness().len() <= self.n && slot.witness().all(|k| k < self.n)
        })
    }

    /// Queue `msg` for every process, this one included: one prefix and a
    /// copy of the batch's bytes, one frame for all of them.
    fn multicast(&self, msg: BatchMsg, out: &mut Outbound) {
        out.push(0..self.n, encode_frame(&Frame::batch(self.local, msg)));
    }

    /// Broadcast what is pending as this node's next batch (several, past
    /// [`MAX_BATCH_SLOTS`] slots): its `Init` to every process, after
    /// whatever `out` holds. Nothing pending, nothing sent.
    pub(super) fn seal(&mut self, out: &mut Outbound) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.drain(MAX_BATCH_SLOTS, |batch| {
            let seq = self.next_seq;
            self.next_seq = seq.wrapping_add(1);
            let batch = Arc::new(batch);
            self.open((self.local, seq), &batch);
            self.multicast(((self.local, seq), BrachaMsg::Init(batch)), out);
        });
        self.pending = pending;
    }

    /// The open broadcast `tag` names — opened with `batch` as its first if
    /// new — or `None` if `tag` was delivered.
    fn open(&mut self, (origin, seq): BatchTag, batch: &Arc<VaBatch>) -> Option<&mut Open> {
        let (n, f) = (self.n, self.f);
        let o = &mut self.origins[origin];
        let i = match o.find(o.ahead(seq)?) {
            Ok(i) => i,
            Err(i) => {
                let first = Arc::clone(batch);
                o.open.insert(i, Open { seq, first, machine: BrachaInstance::new(n, f) });
                i
            }
        };
        Some(&mut o.open[i])
    }

    /// One Bracha message from `from`: its echo or ready goes to `out`, and
    /// the batches it lets this node deliver in order are pushed to
    /// `delivered`, with their origin.
    pub(super) fn on_message(
        &mut self,
        from: ProcessId,
        (tag, msg): BatchMsg,
        out: &mut Outbound,
        delivered: &mut Vec<(ProcessId, Arc<VaBatch>)>,
    ) {
        let origin = tag.0;
        if from >= self.n || origin >= self.n {
            self.refused.bounds += 1;
            return;
        }
        let (BrachaMsg::Init(batch) | BrachaMsg::Echo(batch) | BrachaMsg::Ready(batch)) = &msg;
        // A frame decoded against the hint is the batch that passed already.
        let o = &self.origins[origin];
        let Some(ahead) = o.ahead(tag.1) else { return };
        let known = matches!(o.find(ahead), Ok(i) if Arc::ptr_eq(&o.open[i].first, batch));
        if !known && !self.structural_ok(batch) {
            self.refused.payload += 1;
            return;
        }
        let batch = Arc::clone(batch);
        let Some(open) = self.open(tag, &batch) else { return };
        let actions = open.machine.on_message(from, origin, msg);
        if let Some(m) = actions.broadcast {
            self.multicast((tag, m), out);
        }
        if actions.delivered.is_some() && ahead == 0 {
            let o = &mut self.origins[origin];
            while let Some(e) = o.open.front().filter(|e| e.seq == o.next) {
                let Some(batch) = e.machine.delivered() else { break };
                delivered.push((origin, Arc::clone(batch)));
                o.open.pop_front();
                o.next = o.next.wrapping_add(1);
            }
        }
    }

    /// Open broadcasts across origins: what the batch layer holds between
    /// deliveries.
    #[cfg(test)]
    pub(super) fn open_count(&self) -> usize {
        self.origins.iter().map(|o| o.open.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use rbvc_core::verified_avg::{DeltaMode, Refusals, RoundState, VerifiedAveraging};
    use rbvc_linalg::{Norm, Tol, VecD};

    use super::*;
    use crate::service::node::tests::{gate_totals, now, protos, run_cores, running_va, Queues};
    use rbvc_store::RecordBatch;
    use crate::service::node::{InstanceProto, Node, Outbox};
    use crate::wire::{decode_frame, decode_frame_hinted, Frame, Payload, VaSlot, MAX_PID, MAX_ROUND};

    /// A one-slot batch of instance 1, round 0.
    fn witnessed(x: f64, witness: Vec<ProcessId>) -> Arc<VaBatch> {
        let state = Arc::new(RoundState { value: VecD::from_slice(&[x]), witness });
        Arc::new(VaBatch::new(vec![VaSlot { instance: 1, round: 0, state }]))
    }

    fn batch(x: f64) -> Arc<VaBatch> {
        witnessed(x, vec![])
    }

    /// Four layers exchange what they multicast, FIFO: batches of one
    /// origin delivered out of Bracha order come out in seq order, and the
    /// machines they used are freed.
    #[test]
    fn batches_deliver_in_seq_order_and_free_their_machines() {
        let n = 4;
        let mut layers: Vec<Batches> = (0..n).map(|p| Batches::new(p, n)).collect();
        let mut wire: VecDeque<(ProcessId, ProcessId, Vec<u8>)> = VecDeque::new();
        let mut out = Outbound::default();
        for x in [1.0, 2.0, 3.0] {
            layers[0].pending.push(1, 0, [x].into_iter(), std::iter::empty());
            layers[0].seal(&mut out);
        }
        // The third batch first, then the other two.
        let mut sent = sends(&mut out);
        sent.rotate_left(2 * n);
        wire.extend(sent.into_iter().map(|(dst, bytes)| (0, dst, bytes)));
        let mut got: Vec<Vec<f64>> = vec![Vec::new(); n];
        while let Some((from, dst, bytes)) = wire.pop_front() {
            let Payload::VaBatch(msg) = decode_frame(&bytes, from).unwrap().payload else { unreachable!() };
            let mut delivered = Vec::new();
            layers[dst].on_message(from, msg, &mut out, &mut delivered);
            for (origin, b) in delivered {
                assert_eq!(origin, 0);
                got[dst].extend(b.slot(0).value());
            }
            wire.extend(sends(&mut out).into_iter().map(|(to, bytes)| (dst, to, bytes)));
        }
        for (p, layer) in layers.iter().enumerate() {
            assert_eq!(got[p], [1.0, 2.0, 3.0], "node {p}");
            assert_eq!(layer.open_count(), 0, "node {p} freed every machine");
        }
    }

    /// What `out` holds, send by send.
    fn sends(out: &mut Outbound) -> Vec<(ProcessId, Vec<u8>)> {
        let mut sends = Vec::new();
        out.drain_sends(|dst, bytes| sends.push((dst, bytes)));
        sends
    }

    /// `bytes` from `from` to `layer`, decoded against the layer's hint as
    /// the node's receive path decodes it: what the layer multicasts, and
    /// the batches it delivers.
    fn hand(layer: &mut Batches, from: ProcessId, bytes: &[u8]) -> (Option<Vec<u8>>, Vec<Arc<VaBatch>>) {
        let frame = decode_frame_hinted(bytes, from, &|tag| layer.hint(tag)).expect("decodes");
        let Payload::VaBatch(msg) = frame.payload else { unreachable!("a live tag") };
        let (mut out, mut delivered) = (Outbound::default(), Vec::new());
        layer.on_message(from, msg, &mut out, &mut delivered);
        (sends(&mut out).pop().map(|(_, bytes)| bytes), delivered.into_iter().map(|(_, batch)| batch).collect())
    }

    /// ±0.0 cannot split a batch. Byzantine origin 3 sends its batch to
    /// layers 0 and 1 and its twin with `-0.0` for `0.0` — equal values,
    /// other bytes — to layer 2, and echoes the first one itself. Echoes and
    /// readies are handed over in an order under which a tally that pooled
    /// equal values would have layer 0 complete its echo quorum with the twin
    /// and its ready quorum with its own ready, and so deliver the twin while
    /// layer 1 delivers the batch (as `SyncBvc::common_multiset` keeps the
    /// same hole out of ALGO). Counted by bytes, every honest layer delivers
    /// the same bytes.
    #[test]
    fn a_signed_zero_cannot_split_a_batch() {
        let n = 4;
        let mut layers: Vec<Batches> = (0..3).map(|p| Batches::new(p, n)).collect();
        let (plus, minus) = (batch(0.0), batch(-0.0));
        assert!(plus.slot(0).value().eq(minus.slot(0).value()), "equal values");
        let frame = |from, msg| encode_frame(&Frame::batch(from, ((3, 0), msg)));
        let mut echoes = vec![frame(3, BrachaMsg::Echo(Arc::clone(&plus))); n];
        for (p, init) in [&plus, &plus, &minus].into_iter().enumerate() {
            let (echo, _) = hand(&mut layers[p], 3, &frame(3, BrachaMsg::Init(Arc::clone(init))));
            echoes[p] = echo.expect("an honest layer echoes its Init");
        }
        let mut readies = vec![Vec::new(); 3];
        for (p, order) in [[0, 3, 2, 1], [0, 2, 3, 1], [2, 0, 1, 3]].into_iter().enumerate() {
            for from in order {
                if let (Some(ready), _) = hand(&mut layers[p], from, &echoes[from]) {
                    readies[p] = ready;
                }
            }
        }
        let mut delivered = Vec::new();
        for (p, order) in [[1, 2, 0], [0, 2, 1], [0, 1, 2]].into_iter().enumerate() {
            for from in order {
                delivered.extend(hand(&mut layers[p], from, &readies[from]).1);
            }
        }
        let bytes: Vec<Vec<u8>> = delivered.into_iter().map(|b| frame(3, BrachaMsg::Init(b))).collect();
        assert_eq!(bytes.len(), 3, "every honest layer delivers");
        assert!(bytes.iter().all(|b| *b == bytes[0]), "two honest layers delivered different bytes");
    }

    /// A batch with a non-finite value or a witness id past `n` is refused
    /// before any tally; a ghost origin is a bounds refusal; a delivered
    /// tag is dropped quietly.
    #[test]
    fn structural_checks_run_before_the_tally() {
        let mut layer = Batches::new(1, 4);
        let (mut out, mut delivered) = (Outbound::default(), Vec::new());
        for bad in [batch(f64::NAN), witnessed(1.0, vec![0, 4])] {
            layer.on_message(0, ((0, 0), BrachaMsg::Init(bad)), &mut out, &mut delivered);
        }
        layer.on_message(0, ((4, 0), BrachaMsg::Init(batch(1.0))), &mut out, &mut delivered);
        assert_eq!(layer.refused, Refused { bounds: 1, payload: 2 });
        assert!(out.is_empty() && layer.open_count() == 0);
        layer.origins[0].next = 5;
        layer.on_message(0, ((0, 4), BrachaMsg::Init(batch(1.0))), &mut out, &mut delivered);
        assert!(out.is_empty() && layer.open_count() == 0, "below the watermark");
        assert_eq!(layer.refused, Refused { bounds: 1, payload: 2 });
    }

    /// Batch frames naming an origin outside the run — at `n` and at the
    /// wire cap — are refused by the batch layer before any tally. A batch
    /// of a Byzantine origin that is delivered, with slots whose rounds are
    /// past the last or at the wire cap, reaches a launched and an
    /// unlaunched instance: each slot is refused at the VA bounds gate and
    /// sizes no table, neither table grows past `n · R` before its decision
    /// is collected, and the three honest cores decide both.
    #[test]
    fn hostile_tags_stop_at_the_bounds_gates() {
        let (n, rounds) = (4, 8);
        let va = |p: usize, inst: u64| {
            let input = VecD::from_slice(&[p as f64, inst as f64]);
            let mode = DeltaMode::MinDelta(Norm::L2);
            InstanceProto::Va(VerifiedAveraging::new(p, n, 1, input, mode, rounds, Tol::default()))
        };
        let mut nodes: Vec<Node> = (0..n).map(|p| Node::new(p, n)).collect();
        let mut out = Outbox::default();
        for (p, node) in nodes.iter_mut().enumerate() {
            for inst in [1, 2] {
                node.add_instance(inst, va(p, inst)).unwrap();
            }
        }
        nodes[0].launch(1, &now(), &mut out).unwrap();
        let va = |node: &Node, inst| running_va(node, inst).map(|p| (p.broadcast_slots(), p.refusals()));
        let state = Arc::new(RoundState { value: VecD::from_slice(&[1.0, 2.0]), witness: vec![] });
        let slot = |instance, round| VaSlot { instance, round, state: Arc::clone(&state) };
        let frame = |origin, batch: &Arc<VaBatch>, msg: fn(Arc<VaBatch>) -> BrachaMsg<Arc<VaBatch>>| {
            encode_frame(&Frame::batch(3, ((origin, 0), msg(Arc::clone(batch)))))
        };
        let one = Arc::new(VaBatch::new(vec![slot(1, 0)]));
        for origin in [n, MAX_PID - 1] {
            nodes[0].on_frame(3, &frame(origin, &one, BrachaMsg::Init), &now(), &mut out);
        }
        assert_eq!(nodes[0].batches.refused.bounds, 2);
        assert!(out.frames.is_empty() && nodes[0].batches.open_count() == 0, "no tally, no echo");
        let cap = MAX_ROUND;
        let hostile = Arc::new(VaBatch::new(vec![slot(1, rounds as u32), slot(2, cap), slot(1, cap)]));
        nodes[0].on_frame(3, &frame(3, &hostile, BrachaMsg::Init), &now(), &mut out);
        // The readies of three processes deliver it here (the test plays the
        // network: only this node ever delivers origin 3's batch).
        for from in 1..n {
            let bytes = encode_frame(&Frame::batch(from, ((3, 0), BrachaMsg::Ready(Arc::clone(&hostile)))));
            nodes[0].on_frame(from, &bytes, &now(), &mut out);
        }
        let bounds = |k| Refusals { bounds: k, ..Refusals::default() };
        assert_eq!((va(&nodes[0], 1), va(&nodes[0], 2)), (Some((0, bounds(2))), Some((0, bounds(1)))));
        out.frames.drain(|_, _| {});
        let mut queues: Queues = vec![VecDeque::new(); n];
        // Each machine as its decision is collected.
        let mut last = [[None; 2]; 3];
        run_cores(&mut nodes[..3], &mut queues, &mut vec![RecordBatch::default(); n], |node| {
            for (k, inst) in [1, 2].into_iter().enumerate() {
                last[node.local][k] = va(node, inst).or(last[node.local][k]);
            }
        });
        for (p, node) in nodes[..3].iter().enumerate() {
            assert_eq!(gate_totals(node), [0; 4], "well-formed, authenticated, resident");
            assert!(last[p].iter().all(|seen| seen.is_some_and(|(slots, _)| slots == n * rounds)));
        }
        assert_eq!(last[0][0].map(|(_, refused)| refused), Some(bounds(2)), "nothing else refused");
    }

    /// One slot twice: a Byzantine origin broadcasts the same (instance,
    /// round) slot with two different states, in two batches or twice in one.
    /// FIFO delivery hands every honest node the two in the same order, so
    /// every one keeps the first state and refuses the second as a duplicate
    /// (read off the machine before its decision is collected), and the
    /// three honest cores decide.
    #[test]
    fn the_first_slot_of_an_origin_wins_everywhere() {
        let n = 4;
        let va = |p: usize| {
            let input = VecD::from_slice(&[p as f64, 1.0 - p as f64]);
            let mode = DeltaMode::MinDelta(Norm::L2);
            InstanceProto::Va(VerifiedAveraging::new(p, n, 1, input, mode, 4, Tol::default()))
        };
        let state = |x: f64| Arc::new(RoundState { value: VecD::from_slice(&[x, x]), witness: vec![] });
        let (first, second) = (state(0.5), state(9.0));
        // Origin 3's round-0 slot, in two batches, then twice in one.
        let inputs = [vec![vec![&first], vec![&second]], vec![vec![&first, &second]]];
        for batches in inputs {
            let mut nodes: Vec<Node> = (0..n).map(|p| Node::new(p, n)).collect();
            for (p, node) in nodes.iter_mut().enumerate() {
                node.add_instance(1, va(p)).unwrap();
            }
            let mut queues: Queues = vec![VecDeque::new(); n];
            for (seq, states) in batches.iter().enumerate() {
                let slot = |state: &&Arc<RoundState>| VaSlot { instance: 1, round: 0, state: Arc::clone(state) };
                let batch = VaBatch::new(states.iter().map(slot).collect());
                let bytes = encode_frame(&Frame::batch(3, ((3, seq as u32), BrachaMsg::Init(Arc::new(batch)))));
                (0..3).for_each(|dst| queues[dst].push_back((3, bytes.clone())));
            }
            let mut seen = vec![None; 3];
            run_cores(&mut nodes[..3], &mut queues, &mut vec![RecordBatch::default(); n], |node| {
                if let Some(p) = running_va(node, 1) {
                    seen[node.local] = p.delivered_value((3, 0)).map(|kept| (kept.to_vec(), p.refusals()));
                }
            });
            for (node, seen) in nodes[..3].iter().zip(seen) {
                let at = format!("node {}, {} batches", node.local, batches.len());
                let (kept, refused) = seen.expect("origin 3's round-0 slot was delivered");
                assert_eq!(kept, first.value.as_slice(), "{at}");
                assert_eq!(refused, Refusals { duplicate: 1, ..Refusals::default() }, "{at}");
                assert!(node.instances[&1].decision().is_some() && gate_totals(node) == [0; 4], "{at}");
            }
        }
    }

    /// Late traffic to a decided instance is dropped before any machine
    /// sees it: once VA instance 1 and BVC instance 2 have decided on four
    /// cores, an EIG frame for 2 and a batch slot for 1 cost no gate count,
    /// while an EIG frame for 1 and a VA slot for 2 are each charged once at
    /// the kind gate, to their sender.
    #[test]
    fn late_traffic_to_a_decided_instance_is_dropped() {
        let n = 4;
        let mut nodes: Vec<Node> = (0..n).map(|p| Node::new(p, n)).collect();
        for (p, node) in nodes.iter_mut().enumerate() {
            protos(p, n).into_iter().for_each(|(id, proto)| node.add_instance(id, proto).unwrap());
        }
        let (mut queues, mut logs): (Queues, _) = (vec![VecDeque::new(); n], vec![RecordBatch::default(); n]);
        run_cores(&mut nodes, &mut queues, &mut logs, |_| {});
        let decisions = |node: &Node| [1, 2].map(|id| node.instances[&id].decision().cloned());
        let before: Vec<_> = nodes.iter().map(decisions).collect();
        let eig = |instance| encode_frame(&Frame { instance, sender: 1, round: 0, payload: Payload::Eig(vec![]) });
        queues[0].extend([(1, eig(2)), (1, eig(1))]);
        for instance in [1, 2] {
            nodes[1].batches.pending.push(instance, 0, [0.5, 0.5].into_iter(), std::iter::empty());
        }
        run_cores(&mut nodes, &mut queues, &mut logs, |_| {});
        for (p, node) in nodes.iter().enumerate() {
            let kind = 1 + u64::from(p == 0);
            assert_eq!(node.gate_rejections_by_sender, [[0; 4], [0, 0, 0, kind], [0; 4], [0; 4]], "node {p}");
            assert!(before[p].iter().all(Option::is_some) && decisions(node) == before[p], "node {p}");
        }
    }

    /// A frame for a tag that has delivered goes through the walk a full
    /// decode makes and is built into nothing: once four cores have decided,
    /// a well-formed echo of origin 1's first batch, whatever it carries,
    /// costs node 0 no gate count and sends nothing, while the same echo cut
    /// short, and one naming a witness past the wire cap, are each charged
    /// once at gate 0, to their sender, with the error a plain decode gives.
    #[test]
    fn late_frames_are_checked_and_built_into_nothing() {
        let n = 4;
        let mut nodes: Vec<Node> = (0..n).map(|p| Node::new(p, n)).collect();
        for (p, node) in nodes.iter_mut().enumerate() {
            protos(p, n).into_iter().for_each(|(id, proto)| node.add_instance(id, proto).unwrap());
        }
        run_cores(&mut nodes, &mut vec![VecDeque::new(); n], &mut vec![RecordBatch::default(); n], |_| {});
        let node = &mut nodes[0];
        assert!(matches!(node.batches.hint((1, 0)), Hint::Delivered));
        let echo = |batch| encode_frame(&Frame::batch(1, ((1, 0), BrachaMsg::Echo(batch))));
        let (late, forged) = (echo(batch(7.0)), echo(witnessed(7.0, vec![MAX_PID])));
        let mut out = Outbox::default();
        node.on_frame(1, &late, &now(), &mut out);
        assert!(gate_totals(node) == [0; 4] && out.frames.is_empty(), "well-formed: dropped");
        for bad in [&late[..late.len() - 1], &forged] {
            node.on_frame(1, bad, &now(), &mut out);
            assert_eq!(node.errors.errors().last(), Some(&decode_frame(bad, 1).unwrap_err()));
        }
        assert_eq!(node.gate_rejections_by_sender, [[0; 4], [2, 0, 0, 0], [0; 4], [0; 4]]);
        assert!(out.frames.is_empty());
    }

    /// A shed slot's tag lives as long as its instance runs. Node 0, its
    /// stash full, sheds origin 2's last-round slot of a client instance of
    /// node 1 before the instance's `Launch` arrives; the instance launches
    /// and decides on all four cores (at f = 1 node 0 does without that
    /// state), and the tag goes with the decision. A late slot under the
    /// same tag, in a batch of origin 2 that node 0 delivers, is still
    /// refused: dropped unseen, with no gate count, nothing parked and the
    /// decision as it was.
    #[test]
    fn a_shed_tag_goes_when_its_instance_decides() {
        use crate::service::client_table::STASH_CAP;
        use crate::service::CLIENT_INSTANCE_BASE;
        use crate::wire::ClientLaunch;
        let (n, rounds) = (4, 4);
        let mut nodes: Vec<Node> = (0..n).map(|p| Node::new(p, n)).collect();
        let id = CLIENT_INSTANCE_BASE | (1 << 24);
        let state = Arc::new(RoundState { value: VecD::from_slice(&[1.0, 2.0]), witness: vec![] });
        let slot = |instance, round| VaSlot { instance, round, state: Arc::clone(&state) };
        for round in 0..STASH_CAP as u32 {
            nodes[0].client.park(3, slot(id + 1, round));
        }
        nodes[0].client.park(2, slot(id, rounds - 1));
        assert!(nodes[0].client.was_shed(id, 2, rounds - 1));
        let launch = ClientLaunch { session: 1, reqno: 1, f: 1, rounds, value: VecD::from_slice(&[1.0, 2.0]) };
        let (mut queues, mut out): (Queues, _) = (vec![VecDeque::new(); n], Outbox::default());
        nodes[1].admit((id, launch), &now(), &mut out);
        out.frames.drain_sends(|dst, bytes| queues[dst].push_back((1, bytes)));
        run_cores(&mut nodes, &mut queues, &mut vec![RecordBatch::default(); n], |_| {});
        let decided = nodes[0].instances[&id].decision().cloned();
        assert!(decided.is_some() && !nodes[0].client.was_shed(id, 2, rounds - 1), "the tag went");
        let seq = nodes[0].batches.origins[2].next;
        let late = Arc::new(VaBatch::new(vec![slot(id, rounds - 1)]));
        let stats = nodes[0].client.stats();
        for from in 1..n {
            let bytes = encode_frame(&Frame::batch(from, ((2, seq), BrachaMsg::Ready(Arc::clone(&late)))));
            nodes[0].on_frame(from, &bytes, &now(), &mut out);
        }
        assert_eq!(nodes[0].batches.origins[2].next, seq + 1, "delivered");
        assert_eq!(gate_totals(&nodes[0]), [0; 4]);
        assert!(!nodes[0].client.was_shed(id, 2, rounds - 1) && nodes[0].client.stats() == stats);
        assert_eq!(nodes[0].instances[&id].decision(), decided.as_ref());
    }
}
