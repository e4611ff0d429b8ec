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
//! an origin wins" — the rule `VerifiedAveraging::deliver_slot` applies — picks
//! the same state everywhere, and a slot a Byzantine origin repeats in a
//! later batch is refused everywhere.
//!
//! What a batch must pass before this node echoes it is structural only:
//! every slot sound — finite values and witnesses of at most `n` ids below
//! `n`, the definition Verified Averaging's own payload check uses (the
//! codec already capped slot counts, dimensions and rounds). Whether its
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

use rbvc_core::va_batch::{BatchWriter, VaBatch, MAX_BATCH_SLOTS};
use rbvc_sim::bracha::{BrachaInstance, BrachaMsg};
use rbvc_sim::config::ProcessId;

use super::outbound::Outbound;
use crate::wire::{encode_frame, BatchMsg, BatchTag, Frame, Hint};

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
        // A frame decoded against the hint is the batch that passed already;
        // any other is echoed only if every slot is sound.
        let o = &self.origins[origin];
        let Some(ahead) = o.ahead(tag.1) else { return };
        let known = matches!(o.find(ahead), Ok(i) if Arc::ptr_eq(&o.open[i].first, batch));
        if !known && !batch.slots().all(|slot| slot.is_sound(self.n)) {
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
    use rbvc_core::verified_avg::{DeltaMode, Refusals, VerifiedAveraging};
    use rbvc_linalg::{Norm, Tol, VecD};

    use super::*;
    use crate::service::node::tests::{gate_totals, now, protos, run_cores, running_va, Queues};
    use rbvc_store::RecordBatch;
    use crate::service::node::{InstanceProto, Node, Outbox};
    use crate::service::client_table::STASH_CAP;
    use crate::service::{InstanceId, CLIENT_INSTANCE_BASE};
    use crate::wire::{decode_frame, decode_frame_hinted, ClientLaunch, Frame, Payload, MAX_PID, MAX_ROUND};

    /// The batch of `slots`: (instance, round) each, every state `value` with
    /// no witness.
    fn states(slots: &[(u64, u32)], value: &[f64]) -> Arc<VaBatch> {
        let mut writer = BatchWriter::default();
        for &(instance, round) in slots {
            writer.push(instance, round, value.iter().copied(), std::iter::empty());
        }
        Arc::new(writer.finish())
    }

    /// A one-slot batch of instance 1, round 0.
    fn witnessed(x: f64, witness: Vec<ProcessId>) -> Arc<VaBatch> {
        let mut writer = BatchWriter::default();
        writer.push(1, 0, [x].into_iter(), witness.into_iter());
        Arc::new(writer.finish())
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
        let frame = |origin, batch: &Arc<VaBatch>, msg: fn(Arc<VaBatch>) -> BrachaMsg<Arc<VaBatch>>| {
            encode_frame(&Frame::batch(3, ((origin, 0), msg(Arc::clone(batch)))))
        };
        let one = states(&[(1, 0)], &[1.0, 2.0]);
        for origin in [n, MAX_PID - 1] {
            nodes[0].on_frame(3, &frame(origin, &one, BrachaMsg::Init), &now(), &mut out);
        }
        assert_eq!(nodes[0].batches.refused.bounds, 2);
        assert!(out.frames.is_empty() && nodes[0].batches.open_count() == 0, "no tally, no echo");
        let cap = MAX_ROUND;
        let hostile = states(&[(1, rounds as u32), (2, cap), (1, cap)], &[1.0, 2.0]);
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
        let (first, second) = ([0.5, 0.5], [9.0, 9.0]);
        // Origin 3's round-0 slot, in two batches, then twice in one.
        let inputs = [vec![vec![first], vec![second]], vec![vec![first, second]]];
        for batches in inputs {
            let mut nodes: Vec<Node> = (0..n).map(|p| Node::new(p, n)).collect();
            for (p, node) in nodes.iter_mut().enumerate() {
                node.add_instance(1, va(p)).unwrap();
            }
            let mut queues: Queues = vec![VecDeque::new(); n];
            for (seq, values) in batches.iter().enumerate() {
                let mut batch = BatchWriter::default();
                values.iter().for_each(|value| batch.push(1, 0, value.iter().copied(), std::iter::empty()));
                let bytes = encode_frame(&Frame::batch(3, ((3, seq as u32), BrachaMsg::Init(Arc::new(batch.finish())))));
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
                assert_eq!(kept, first, "{at}");
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

    /// Node 1's client instance `seq`: its id and the `Launch` it sends, at
    /// f = 1 over 8 rounds.
    fn client_launch(seq: u64) -> (InstanceId, ClientLaunch) {
        let value = VecD::from_slice(&[1.0, 2.0]);
        (CLIENT_INSTANCE_BASE | (1 << 24) | seq, ClientLaunch { session: 1, reqno: seq + 1, f: 1, rounds: 8, value })
    }

    /// Each node takes what reached it, ticks and seals, as in `run_cores`,
    /// with `inspect` seeing it before each seal, until nothing is in
    /// flight; node 1 first admits its client instances `seqs`, one per
    /// sweep. Node 1's frames to node 0 wait in `held` while `lag`.
    fn settle(
        nodes: &mut [Node],
        queues: &mut Queues,
        held: &mut Vec<Vec<u8>>,
        (seqs, lag): (std::ops::Range<u64>, bool),
        inspect: &mut impl FnMut(&Node),
    ) {
        let mut out = Outbox::default();
        let mut send = |p: ProcessId, out: &mut Outbox, queues: &mut Queues| {
            out.frames.drain_sends(|dst, bytes| match dst {
                0 if p == 1 && lag => held.push(bytes),
                _ => queues[dst].push_back((p, bytes)),
            });
        };
        let mut seqs = seqs.peekable();
        while seqs.peek().is_some() || queues.iter().any(|q| !q.is_empty()) {
            if let Some(seq) = seqs.next() {
                nodes[1].admit(client_launch(seq), &now(), &mut out);
                send(1, &mut out, queues);
            }
            for (p, node) in nodes.iter_mut().enumerate() {
                while let Some((from, bytes)) = queues[p].pop_front() {
                    node.on_frame(from, &bytes, &now(), &mut out);
                }
                node.tick(&mut out);
                inspect(node);
                node.seal(&mut out);
                out.decided.clear();
                send(p, &mut out, queues);
            }
        }
    }

    /// A full cell's shed slot closes its origin for the instances it may
    /// have been a slot of, and for no running or later one. Node 0 runs
    /// node 1's client instance 0 when its stash cell for origin 2's slots
    /// of node 1's instances, full, sheds origin 2's slot of instance 1,
    /// whose `Launch` has not arrived. Then node 1 runs instances 0 to 3
    /// with everyone: instance 0, running at the overflow, and instances 2
    /// and 3, minted after the shed one, decide on all four cores; node 0
    /// closes origin 2 for instance 1 at its launch and takes none of origin
    /// 2's states for it, refusing them as duplicates, with no gate count.
    #[test]
    fn a_shed_slot_closes_its_origin_for_its_instance_only() {
        let n = 4;
        let mut nodes: Vec<Node> = (0..n).map(|p| Node::new(p, n)).collect();
        nodes.iter_mut().for_each(|node| node.started = true);
        let (id, launch) = client_launch(0);
        let bytes = encode_frame(&Frame { instance: id, sender: 1, round: 0, payload: Payload::Launch(launch) });
        nodes[0].on_frame(1, &bytes, &now(), &mut Outbox::default());
        let slot = |seq, round| states(&[(client_launch(seq).0, round)], &[1.0, 2.0]);
        for round in 0..STASH_CAP as u32 {
            assert!(nodes[0].client.park(2, slot(9, round).slot(0)));
        }
        assert!(nodes[0].client.park(2, slot(1, 3).slot(0)));
        assert_eq!(nodes[0].client.stats().stash_shed, 1);
        let (mut queues, mut held): (Queues, _) = (vec![VecDeque::new(); n], Vec::new());
        let shed = client_launch(1).0;
        let mut duplicates = 0;
        settle(&mut nodes, &mut queues, &mut held, (0..4, false), &mut |node| {
            if let Some(va) = (node.local == 0 && node.instances.contains_key(&shed)).then(|| running_va(node, shed)).flatten() {
                assert!((0..8).all(|round| va.delivered_value((2, round)).is_none()));
                duplicates = va.refusals().duplicate;
            }
        });
        assert!(duplicates >= 1, "origin 2's states for instance 1 reached node 0");
        for seq in [0, 2, 3] {
            assert!(nodes.iter().all(|node| node.instances[&client_launch(seq).0].decision().is_some()), "{seq}");
        }
        assert!(nodes[1..].iter().all(|node| node.instances[&shed].decision().is_some()));
        assert_eq!(gate_totals(&nodes[0]), [0; 4]);
    }

    /// A full stash cell sheds only its own (owner, origin) pair. Byzantine
    /// origin 3 fills node 0's cell for node 1's client instances with one
    /// delivered batch of `STASH_CAP` slots for ids node 1 never launched,
    /// and one more slot of its own is shed. Then honest origin 2's round-0
    /// slot of node 1's next client instance races that instance's `Launch`:
    /// it is parked, not shed, and delivered when the `Launch` arrives.
    #[test]
    fn a_full_stash_cell_sheds_only_its_own_pair() {
        let n = 4;
        let mut node = Node::new(0, n);
        let mut out = Outbox::default();
        let id = CLIENT_INSTANCE_BASE | (1 << 24);
        let mut deliver = |node: &mut Node, origin: ProcessId, batch: &Arc<VaBatch>| {
            let seq = node.batches.origins[origin].next;
            for from in 1..n {
                let bytes = encode_frame(&Frame::batch(from, ((origin, seq), BrachaMsg::Ready(Arc::clone(batch)))));
                node.on_frame(from, &bytes, &now(), &mut out);
            }
            assert_eq!(node.batches.origins[origin].next, seq + 1, "delivered");
        };
        let flood: Vec<(u64, u32)> = (0..=STASH_CAP as u64).map(|k| (id + 1 + k, 0)).collect();
        deliver(&mut node, 3, &states(&flood, &[1.0, 2.0]));
        assert_eq!(node.client.stats().stash_shed, 1, "origin 3's cell is full");
        deliver(&mut node, 2, &states(&[(id, 0)], &[0.5, 0.5]));
        assert_eq!(node.client.stats().stash_shed, 1, "origin 2's slot is parked");
        let launch = ClientLaunch { session: 1, reqno: 1, f: 1, rounds: 4, value: VecD::from_slice(&[1.0, 2.0]) };
        let bytes = encode_frame(&Frame { instance: id, sender: 1, round: 0, payload: Payload::Launch(launch) });
        node.on_frame(1, &bytes, &now(), &mut out);
        let va = running_va(&node, id).expect("launched");
        assert_eq!(va.delivered_value((2, 0)), Some(&[0.5, 0.5][..]), "delivered at the launch");
        assert_eq!(gate_totals(&node), [0; 4]);
    }

    /// The owner takes the slots parked for its own instance at its launch,
    /// as a peer does: Byzantine origin 3's round-0 slot for node 1's next
    /// client instance, delivered at node 1 before the instance exists, is
    /// the state node 1 keeps for that tag.
    #[test]
    fn the_owner_takes_the_slots_parked_for_its_instance() {
        let n = 4;
        let mut node = Node::new(1, n);
        node.started = true;
        let (id, launch) = client_launch(0);
        let early = states(&[(id, 0)], &[0.5, 0.5]);
        for from in [0, 2, 3] {
            let bytes = encode_frame(&Frame::batch(from, ((3, 0), BrachaMsg::Ready(Arc::clone(&early)))));
            node.on_frame(from, &bytes, &now(), &mut Outbox::default());
        }
        assert!(!node.instances.contains_key(&id) && node.batches.origins[3].next == 1, "parked");
        node.admit((id, launch), &now(), &mut Outbox::default());
        let va = running_va(&node, id).expect("launched");
        assert_eq!(va.delivered_value((3, 0)), Some(&[0.5, 0.5][..]));
        assert_eq!(gate_totals(&node), [0; 4]);
    }

    /// An honest cell that overflows holds back no instance minted after
    /// the overflow. At client f = 1 node 1 runs 700 client instances with
    /// nodes 2 and 3 while every frame it sends node 0 lags, its `Launch`
    /// frames first: node 0 delivers the batches of origins 1 to 3 through
    /// the others' readies, 5 600 slots each, and parks them until each
    /// cell is full; the rest are shed or refused. Once the link catches up,
    /// node 0 launches every lagging instance, and the instances node 1
    /// launches next decide on all four cores.
    #[test]
    fn an_overflowing_cell_holds_back_no_later_instance() {
        let (n, lagging) = (4, 700);
        let mut nodes: Vec<Node> = (0..n).map(|p| Node::new(p, n)).collect();
        nodes.iter_mut().for_each(|node| node.started = true);
        let (mut queues, mut held): (Queues, _) = (vec![VecDeque::new(); n], Vec::new());
        settle(&mut nodes, &mut queues, &mut held, (0..lagging, true), &mut |_| {});
        assert!(nodes[1..].iter().all(|node| node.undecided == 0), "decided without node 0");
        let last = client_launch(lagging - 1).0;
        assert!((1..n).all(|origin| nodes[0].client.refused(last, origin)), "every cell overflowed");
        assert!(nodes[0].client.stats().stash_shed > STASH_CAP as u64);
        queues[0].extend(held.drain(..).map(|bytes| (1, bytes)));
        settle(&mut nodes, &mut queues, &mut held, (lagging..lagging + 4, false), &mut |_| {});
        for node in &nodes {
            let later = (lagging..lagging + 4).filter(|&seq| node.instances[&client_launch(seq).0].decision().is_some());
            assert_eq!(later.count(), 4, "node {}", node.local);
        }
        assert_eq!(gate_totals(&nodes[0]), [0; 4]);
    }
}
