//! What a step sends: each encoded frame once, with the processes it goes
//! to. A broadcast — a batch's Init, Echo or Ready, an EIG round — is one
//! entry, so the core logs it as one `Sent` record and keeps one buffer of
//! it in the history; only the driver's send copies it per destination
//! ([`Outbound::drain_sends`]), since a transport takes one buffer per send.

use rbvc_sim::config::ProcessId;

/// Encoded frames in send order, each with its destinations, rising. The
/// send order this stands for is every frame's destinations in turn.
#[derive(Default)]
pub(super) struct Outbound {
    /// Every frame's destinations, frame after frame.
    dsts: Vec<ProcessId>,
    /// Each frame, with the end of its destinations in `dsts`.
    frames: Vec<(usize, Vec<u8>)>,
}

impl Outbound {
    /// Queue `bytes` for `dsts`, which rise; nothing when there are none.
    pub(super) fn push(&mut self, dsts: impl IntoIterator<Item = ProcessId>, bytes: Vec<u8>) {
        let start = self.dsts.len();
        self.dsts.extend(dsts);
        debug_assert!(self.dsts[start..].windows(2).all(|w| w[0] < w[1]), "destinations rise");
        if self.dsts.len() > start {
            self.frames.push((self.dsts.len(), bytes));
        }
    }

    /// Send the last frame to `dst` as well, if it is above the last
    /// frame's destinations; false (and nothing done) otherwise.
    pub(super) fn also_to(&mut self, dst: ProcessId) -> bool {
        let Some((end, _)) = self.frames.last_mut() else { return false };
        if self.dsts.last().is_some_and(|&last| last >= dst) {
            return false;
        }
        self.dsts.push(dst);
        *end += 1;
        true
    }

    /// How many frames are queued.
    pub(super) fn len(&self) -> usize {
        self.frames.len()
    }

    #[cfg(test)]
    pub(super) fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// How many sends the frames stand for: their destinations, summed.
    pub(super) fn fanout(&self) -> usize {
        self.dsts.len()
    }

    /// The frames with their destinations, in send order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (&[ProcessId], &[u8])> {
        let mut start = 0;
        self.frames.iter().map(move |(end, bytes)| {
            let dsts = &self.dsts[start..*end];
            start = *end;
            (dsts, &bytes[..])
        })
    }

    /// Send `k` of the fan-out: its destination, the index of its frame
    /// and the frame.
    pub(super) fn send(&self, k: usize) -> Option<(ProcessId, usize, &[u8])> {
        let dst = *self.dsts.get(k)?;
        let i = self.frames.partition_point(|(end, _)| *end <= k);
        Some((dst, i, &self.frames[i].1))
    }

    /// The sends from the `k`-th on that go to `dst`: each one's index and frame.
    pub(super) fn sends_to(&self, dst: ProcessId, k: usize) -> impl Iterator<Item = (usize, &[u8])> {
        (k..self.fanout()).filter_map(move |i| self.send(i).filter(|s| s.0 == dst).map(|(_, _, bytes)| (i, bytes)))
    }

    /// Whether send `k` starts a frame (or ends the fan-out).
    pub(super) fn starts_frame(&self, k: usize) -> bool {
        k == 0 || self.frames.binary_search_by_key(&k, |(end, _)| *end).is_ok()
    }

    /// Hand every frame and its destinations to `each`, in send order, and
    /// queue nothing any more.
    pub(super) fn drain(&mut self, mut each: impl FnMut(&[ProcessId], Vec<u8>)) {
        let mut start = 0;
        for (end, bytes) in self.frames.drain(..) {
            each(&self.dsts[start..end], bytes);
            start = end;
        }
        self.dsts.clear();
    }

    /// [`Self::drain`], send by send: a frame's bytes go to its last
    /// destination, a copy of them to each other one.
    pub(super) fn drain_sends(&mut self, mut each: impl FnMut(ProcessId, Vec<u8>)) {
        self.drain(|dsts, bytes| {
            let (&last, rest) = dsts.split_last().expect("a frame has a destination");
            rest.iter().for_each(|&dst| each(dst, bytes.clone()));
            each(last, bytes);
        });
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, VecDeque};
    use std::sync::Arc;

    use rbvc_store::{decode_record, DstSet, RecordBatch, WalRecord};

    use super::*;
    use crate::service::node::tests::{now, protos, run_cores};
    use crate::service::node::{Node, Outbox};
    use crate::service::tests::va_instance;

    /// A frame joins the last one only for a destination above its own;
    /// the fan-out is every frame's destinations in turn, and draining
    /// hands each frame over once.
    #[test]
    fn frames_keep_their_destinations_in_send_order() {
        let mut out = Outbound::default();
        assert!(!out.also_to(0), "no frame to join");
        out.push(0..4, vec![1]);
        out.push([], vec![9]);
        out.push([2], vec![2]);
        assert!(out.also_to(3) && !out.also_to(3) && !out.also_to(1));
        assert_eq!((out.len(), out.fanout()), (2, 6));
        let sends: Vec<_> = (0..out.fanout()).map(|k| out.send(k).map(|(dst, i, b)| (dst, i, b[0]))).collect();
        let want = [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1), (2, 1, 2), (3, 1, 2)];
        assert_eq!(sends, want.map(Some));
        assert_eq!(out.send(6), None);
        assert_eq!((0..=6).filter(|&k| out.starts_frame(k)).collect::<Vec<_>>(), [0, 4, 6]);
        let mut got = Vec::new();
        out.drain(|dsts, bytes| got.push((dsts.to_vec(), bytes)));
        assert_eq!(got, [(vec![0, 1, 2, 3], vec![1]), (vec![2, 3], vec![2])]);
        assert!(out.is_empty() && out.fanout() == 0);
    }

    /// A broadcast is one buffer: after a durable run of four cores, each
    /// with a VA and a BVC instance, every `Sent` record's frame is one
    /// `Arc` at the next place of the history row of each peer among its
    /// destinations, the rows hold nothing else — a core keeps no row for
    /// itself — and they hold as many distinct buffers as there are `Sent`
    /// records.
    #[test]
    fn a_broadcast_is_one_buffer_in_every_history_row() {
        let n = 4;
        let mut nodes: Vec<Node> = (0..n).map(|p| Node::new(p, n)).collect();
        for (p, node) in nodes.iter_mut().enumerate() {
            node.durable = true;
            protos(p, n).into_iter().for_each(|(id, proto)| node.add_instance(id, proto).unwrap());
        }
        let mut logs = vec![RecordBatch::default(); n];
        run_cores(&mut nodes, &mut vec![VecDeque::new(); n], &mut logs, |_| {});
        let address = |b: &Arc<[u8]>| Arc::as_ptr(b).cast::<u8>() as usize;
        for (p, node) in nodes.iter().enumerate() {
            let (mut next, mut records, mut broadcasts) = (vec![0; n], 0, 0);
            for rec in logs[p].iter().filter_map(decode_record) {
                let WalRecord::Sent { dsts, bytes } = rec else { continue };
                records += 1;
                broadcasts += usize::from(dsts.iter().count() == n);
                let kept: Vec<&Arc<[u8]>> = dsts
                    .iter()
                    .filter(|&dst| dst as usize != p)
                    .map(|dst| {
                        let row = node.history(dst as usize);
                        next[dst as usize] += 1;
                        &row[next[dst as usize] - 1]
                    })
                    .collect();
                assert!(kept.iter().all(|b| Arc::ptr_eq(b, kept[0]) && ***b == *bytes), "node {p}");
            }
            let buffers: BTreeSet<usize> = (0..n).flat_map(|dst| node.history(dst).iter().map(address)).collect();
            assert!(broadcasts > 0 && (0..n).all(|dst| next[dst] == node.history(dst).len()), "node {p}");
            assert!(node.history(p).is_empty(), "node {p}");
            assert_eq!(buffers.len(), records, "node {p}");
        }
    }

    /// Replay matches a `Sent` record's whole set against the regenerated
    /// fan-out: a logged set that names a process the regenerated frame
    /// did not go to, or that misses a member — the first, one in the
    /// middle or the last — is a divergence; the set as sent is none.
    #[test]
    fn a_set_that_is_not_the_regenerated_fan_out_is_a_divergence() {
        let n = 4;
        let mut live = Node::new(0, n);
        live.durable = true;
        live.add_instance(5, va_instance(0, n, &[2.0])).unwrap();
        live.append(WalRecord::Registered { instance: 5, spec: &[] });
        let mut out = Outbox::default();
        live.launch(5, &now(), &mut out).unwrap();
        live.seal(&mut out);
        let log = std::mem::take(&mut live.records);
        // The log with its one `Sent` record, the batch's Init, sent to `members`.
        let divergences = |members: &[u32]| {
            let (mut edited, mut bits) = (RecordBatch::default(), Vec::new());
            for raw in log.iter() {
                let rec = match decode_record(raw).expect("decodes") {
                    WalRecord::Sent { bytes, .. } => {
                        let dsts = DstSet::collect(members.iter().copied(), &mut bits).expect("not empty");
                        WalRecord::Sent { dsts, bytes }
                    }
                    rec => rec,
                };
                edited.append_record(&rec).unwrap();
            }
            let mut node = Node::new(0, n);
            node.replay(edited.iter(), &now(), |_, _| Ok(va_instance(0, n, &[2.0]))).unwrap();
            node.replay_divergence
        };
        assert_eq!(divergences(&[0, 1, 2, 3]), 0);
        assert!(divergences(&[0, 1, 2, 3, 4]) > 0, "names process 4");
        for missing in [0, 2, 3] {
            let members: Vec<u32> = (0..4).filter(|&dst| dst != missing).collect();
            assert!(divergences(&members) > 0, "misses {missing}");
        }
    }

    /// A frame to itself is logged once, as its `Sent` record, and its
    /// delivery as an `Inbound` from the node with no bytes. Replay feeds
    /// each such record the next regenerated frame to the node and hands back
    /// those the log never saw delivered: a node that crashed with its batch
    /// due to itself gets that batch due again, one that crashed after
    /// delivering it the echo it regenerated. An own `Inbound` that carries
    /// bytes, or that finds no regenerated frame to the node, is a divergence
    /// and is not fed.
    #[test]
    fn replay_feeds_the_node_each_frame_to_itself_once() {
        let n = 2;
        let mut live = Node::new(0, n);
        live.durable = true;
        live.add_instance(5, va_instance(0, n, &[2.0])).unwrap();
        live.append(WalRecord::Registered { instance: 5, spec: &[] });
        let mut out = Outbox::default();
        live.launch(5, &now(), &mut out).unwrap();
        let launched = live.records.clone();
        live.seal(&mut out);
        let to_itself = |out: &mut Outbox| {
            let mut own = Vec::new();
            out.frames.drain_sends(|dst, bytes| if dst == 0 { own.push(bytes) });
            own
        };
        let init = to_itself(&mut out);
        let crashed = live.records.clone();
        live.on_frame(0, &init[0], &now(), &mut out);
        let echo = to_itself(&mut out);
        let replay = |log: &RecordBatch| {
            let mut node = Node::new(0, n);
            let due = node.replay(log.iter(), &now(), |_, _| Ok(va_instance(0, n, &[2.0]))).unwrap();
            (node.replay_divergence, due)
        };
        assert!(matches!(decode_record(live.records.iter().last().unwrap()), Some(WalRecord::Inbound { from: 0, bytes: [] })));
        assert_eq!((init.len(), echo.len()), (1, 1));
        assert_eq!(replay(&crashed), (0, init.clone()), "the batch due to itself is due again");
        assert_eq!(replay(&live.records), (0, echo), "the Init delivered, its echo regenerated");
        let mut log = crashed.clone();
        log.append_record(&WalRecord::Inbound { from: 0, bytes: &init[0] }).unwrap();
        assert_eq!(replay(&log), (1, init), "an own Inbound with bytes");
        let mut log = launched;
        log.append_record(&WalRecord::Inbound { from: 0, bytes: &[] }).unwrap();
        assert_eq!(replay(&log), (1, Vec::new()), "nothing regenerated to itself yet");
    }
}
