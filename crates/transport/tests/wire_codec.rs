//! Wire-codec integration tests, node codec and client codec: round-trip
//! properties over random vectors and dimensions, a Byzantine-bytes fuzz pass
//! proving the decoder never panics, and one mutation corpus per codec —
//! `rbvc_sim::fuzz::ByteMutator` at the offsets the codec exports.

use std::sync::Arc;

use proptest::prelude::*;
use rbvc_core::va_batch::{BatchWriter, VaBatch};
use rbvc_linalg::VecD;
use rbvc_sim::bracha::BrachaMsg;
use rbvc_sim::eig::EigRound;
use rbvc_sim::error::ProtocolError;
use rbvc_sim::fuzz::ByteMutator;
use rbvc_transport::client::{CLIENT_HEADER_LEN, SUBMIT_DIM_OFFSET};
use rbvc_transport::wire::{
    decode_frame, decode_frame_hinted, encode_frame, Frame, Hint, Payload, HEADER_LEN, MAGIC, VA_DIM_OFFSET,
    VERSION,
};
use rbvc_transport::{decode_client_frame, encode_client_frame, ClientFrame, PayloadCrafter};

/// One round state of one instance: (instance, round, value, witness).
type Slot = (u64, u32, VecD, Vec<usize>);

/// The slots of a Verified-Averaging batch built from raw generator
/// output: slot `k` is of instance `instance + k`.
fn va_slots(instance: u64, sender: usize, dim: usize, raw: &[f64], witnesses: usize, slots: usize) -> Vec<Slot> {
    let vec_at = |k: usize| {
        VecD::from_slice(
            &raw[(k * dim) % raw.len()..]
                .iter()
                .chain(raw.iter().cycle())
                .take(dim)
                .copied()
                .collect::<Vec<_>>(),
        )
    };
    (0..slots)
        .map(|k| (instance.wrapping_add(k as u64), ((sender + k) % 7) as u32, vec_at(k), (0..witnesses + k).collect()))
        .collect()
}

/// The batch of `slots`, as a node writes it.
fn va_batch(slots: &[Slot]) -> Arc<VaBatch> {
    let mut writer = BatchWriter::default();
    for (instance, round, value, witness) in slots {
        writer.push(*instance, *round, value.as_slice().iter().copied(), witness.iter().copied());
    }
    Arc::new(writer.finish())
}

/// A `Ready` frame of the batch of [`va_slots`].
fn va_frame(instance: u64, sender: usize, dim: usize, raw: &[f64], witnesses: usize, slots: usize) -> Frame {
    let slots = va_batch(&va_slots(instance, sender, dim, raw, witnesses, slots));
    Frame::batch(sender, ((sender, (sender * 31) as u32), BrachaMsg::Ready(slots)))
}

/// Build a parallel-EIG frame from raw generator output: `labels` items for
/// each of `labels.max(1)` origins, at the level of round `labels % 4`.
fn eig_frame(instance: u64, sender: usize, dim: usize, raw: &[f64], labels: usize) -> Frame {
    let vec_at = |k: usize| {
        VecD::from_slice(
            &raw
                .iter()
                .cycle()
                .skip(k * dim)
                .take(dim)
                .copied()
                .collect::<Vec<_>>(),
        )
    };
    let stride = labels % 4 + 1;
    let mut msg = EigRound::with_capacity(stride, labels.max(1), labels * labels.max(1));
    for origin in 0..labels.max(1) {
        msg.begin(origin);
        for k in 0..labels {
            let label: Vec<usize> = (k..k + stride).collect();
            // Every third item repeats its neighbour's value, as a relay's do.
            match k % 3 {
                2 => msg.push_shared(&label),
                _ => msg.push(&label, vec_at(origin + k)),
            }
        }
    }
    Frame {
        instance,
        sender,
        round: (labels % 4) as u32,
        payload: Payload::Eig(vec![Arc::new(msg)]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity for well-formed frames of either
    /// payload kind, across random dimensions, instance ids, and values.
    #[test]
    fn round_trip_is_identity(
        raw in prop::collection::vec(-1e9f64..1e9, 24),
        dim in 1usize..8,
        instance in 0u64..u64::MAX,
        sender in 0usize..16,
        shape in 0usize..5,
    ) {
        let frames = [
            va_frame(instance, sender, dim, &raw, shape, 1 + shape % 3),
            eig_frame(instance, sender, dim, &raw, shape),
        ];
        for frame in frames {
            let bytes = encode_frame(&frame);
            let back = decode_frame(&bytes, sender);
            prop_assert_eq!(back.as_ref().ok(), Some(&frame));
        }
    }

    /// An `Echo` or a `Ready` frame is a prefix and a copy of its batch's
    /// bytes: for a random batch — its values drawn with ±0.0, NaNs with a
    /// payload and subnormals among them — it is, byte for byte, the frame
    /// written out field by field and slot by slot, as the codec's docs lay
    /// it out. Decoded, each slot's view reads back the instance, round,
    /// value bits and witness it was built from, and the views, written
    /// again, encode to the same frame. The simulator's message for the
    /// first slot's state — a Verified-Averaging process's round-0 `Init`
    /// — is the batch a node writes for that one slot, as instance 0.
    #[test]
    fn a_batch_frame_is_its_slots_written_out(
        raw in prop::collection::vec(-1e9f64..1e9, 24),
        special in prop::collection::vec(0usize..10, 24),
        dim in 1usize..8,
        instance in 0u64..u64::MAX,
        sender in 0usize..16,
        shape in 0usize..5,
        slots in 1usize..6,
        kind in 1u8..3,
    ) {
        let odd = [-0.0, 0.0, f64::from_bits(0x7ff8_0000_dead_beef), f64::from_bits(0xfff0_0000_0000_0001), f64::from_bits(1), -f64::MIN_POSITIVE / 3.0];
        let raw: Vec<f64> = raw.iter().zip(&special).map(|(&x, &k)| odd.get(k).copied().unwrap_or(x)).collect();
        let built = va_slots(instance, sender, dim, &raw, shape, slots);
        let frame = va_frame(instance, sender, dim, &raw, shape, slots);
        let Payload::VaBatch((tag, BrachaMsg::Ready(batch))) = frame.payload else { unreachable!() };
        let msg = if kind == 1 { BrachaMsg::Echo(Arc::clone(&batch)) } else { BrachaMsg::Ready(Arc::clone(&batch)) };
        let mut want = [&MAGIC[..], &[VERSION, 5]].concat();
        want.extend(built[0].0.to_le_bytes());
        want.extend((sender as u32).to_le_bytes());
        want.extend(built[0].1.to_le_bytes());
        want.extend((tag.0 as u32).to_le_bytes());
        want.extend(tag.1.to_le_bytes());
        want.push(kind);
        for (k, (instance, round, value, witness)) in built.iter().enumerate() {
            if k > 0 {
                want.extend(instance.to_le_bytes());
                want.extend(round.to_le_bytes());
            }
            want.extend((value.dim() as u32).to_le_bytes());
            value.as_slice().iter().for_each(|x| want.extend(x.to_bits().to_le_bytes()));
            want.extend((witness.len() as u32).to_le_bytes());
            witness.iter().for_each(|&id| want.extend((id as u32).to_le_bytes()));
        }
        let bytes = encode_frame(&Frame::batch(sender, (tag, msg)));
        prop_assert_eq!(&bytes, &want);
        let Payload::VaBatch((_, msg)) = decode_frame(&bytes, sender).expect("decodes").payload else { unreachable!() };
        let (BrachaMsg::Echo(decoded) | BrachaMsg::Ready(decoded) | BrachaMsg::Init(decoded)) = msg;
        let bits = |xs: &mut dyn Iterator<Item = f64>| xs.map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(decoded.slots().len(), built.len());
        for (view, (instance, round, value, witness)) in decoded.slots().zip(&built) {
            prop_assert_eq!((view.instance, view.round), (*instance, *round));
            prop_assert_eq!(bits(&mut view.value()), bits(&mut value.as_slice().iter().copied()));
            prop_assert!(view.witness().eq(witness.iter().copied()));
        }
        let mut again = BatchWriter::default();
        decoded.slots().for_each(|view| again.push(view.instance, view.round, view.value(), view.witness()));
        let again = Frame::batch(sender, (tag, BrachaMsg::Init(Arc::new(again.finish()))));
        let mut init = want.clone();
        init[VA_DIM_OFFSET - 1] = 0;
        prop_assert_eq!(encode_frame(&again), init);
        // The simulator's one-slot message for a state is the node's batch.
        use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
        use rbvc_sim::asynch::AsyncProtocol;
        let value = &built[0].2;
        let mut process = VerifiedAveraging::new(0, 4, 1, value.clone(), DeltaMode::Zero, 2, rbvc_linalg::Tol::default());
        let node = va_batch(&[(0, 0, value.clone(), vec![])]);
        for (_, (tag, msg)) in process.on_start() {
            prop_assert_eq!(tag, (0, 0));
            let BrachaMsg::Init(sim) = msg else { unreachable!("round 0 sends Inits") };
            prop_assert_eq!(sim.bytes(), node.bytes());
            prop_assert_eq!(&sim, &node);
        }
    }

    /// Every strict prefix of a valid one-slot frame is rejected as
    /// malformed — never accepted, never a panic.
    #[test]
    fn truncation_never_decodes(
        raw in prop::collection::vec(-1e3f64..1e3, 12),
        dim in 1usize..6,
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = va_frame(7, 3, dim, &raw, 2, 1);
        let bytes = encode_frame(&frame);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            let e = decode_frame(&bytes[..cut], 3);
            prop_assert!(matches!(e, Err(ProtocolError::MalformedPayload { .. })));
        }
    }

    /// Arbitrary byte soup: the decoder returns Ok or MalformedPayload and
    /// never panics, even when the bytes start with a valid header.
    #[test]
    fn byzantine_bytes_never_panic(
        soup in prop::collection::vec(0u64..256, 64),
        keep in 1usize..64,
        with_header in 0u64..2,
    ) {
        let mut bytes: Vec<u8> = soup.iter().take(keep).map(|b| *b as u8).collect();
        if with_header == 1 {
            // Graft a plausible header so decoding reaches the payload
            // parsers instead of dying on the magic check.
            let mut framed = Vec::new();
            framed.extend_from_slice(&MAGIC);
            framed.push(VERSION);
            framed.extend_from_slice(&bytes);
            bytes = framed;
        }
        let _ = decode_frame(&bytes, 0); // must not panic
    }

    /// Bit-flip fuzz: corrupting any single byte of a valid frame either
    /// still decodes (the flip hit a value bit) or fails cleanly.
    #[test]
    fn single_byte_corruption_fails_cleanly(
        raw in prop::collection::vec(-1e3f64..1e3, 12),
        pos_frac in 0.0f64..1.0,
        flip in 1u64..256,
    ) {
        let frame = eig_frame(3, 1, 3, &raw, 3);
        let mut bytes = encode_frame(&frame);
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= flip as u8;
        let _ = decode_frame(&bytes, 1); // must not panic
    }
}

/// The mutation corpus of one codec: every strict prefix, forged dimension,
/// garbage tail and header-then-garbage of `base` is rejected, and a flipped
/// byte never panics. The forged dimension must die on a *guard* (cap or
/// remaining-bytes check) — the classic length-prefix attack, stopped before
/// any allocation happens; the error text pins that down.
fn mutation_corpus_is_rejected(
    base: &[u8],
    header_len: usize,
    dim_offset: usize,
    decode: impl Fn(&[u8]) -> Result<(), String>,
) {
    decode(base).expect("the base every mutant derives from is genuinely valid");
    let mut bad_magic = base.to_vec();
    bad_magic[0] ^= 0xFF;
    assert!(decode(&bad_magic).is_err());
    for seed in 0..24 {
        let mut m = ByteMutator::new(seed);
        for _ in 0..16 {
            assert!(decode(&m.truncate(base)).is_err());
            assert!(decode(&m.append_garbage(base)).is_err(), "a frame is exactly one message");
            assert!(decode(&m.append_garbage(&base[..header_len])).is_err());
            let msg = decode(&m.forge_len_u32(base, dim_offset)).expect_err("forged length");
            assert!(
                msg.contains("oversized") || msg.contains("forged"),
                "forged length must hit the allocation guard, got: {msg}"
            );
            let _ = decode(&m.flip_byte(base)); // must not panic
        }
    }
}

/// ... and over the whole corpus a hinted decode is the plain decode, bit for
/// bit and error for error, whatever the hint: the frame's own batch (reused
/// as it is), that batch with one `0.0` flipped to `-0.0`, or another one.
/// Told the tag has delivered, it reaches the plain decode's verdict, error
/// for error, and a frame that decodes is the same header with nothing built.
#[test]
fn node_codec_rejects_the_mutation_corpus() {
    let frame = va_frame(1, 0, 2, &[1.0, 0.0, 3.0], 1, 1);
    let base = encode_frame(&frame);
    let Payload::VaBatch((_, BrachaMsg::Ready(own))) = frame.payload else { unreachable!() };
    let with_value = |xs: &[f64]| Arc::new(own.edited(|_, value| value.clone_from(&xs.to_vec())));
    let (negative_zero, other) = (with_value(&[1.0, -0.0]), with_value(&[9.0, 9.0]));
    assert!(own.slot(0).value().eq(negative_zero.slot(0).value()), "equal values");
    let hints = [own, negative_zero, other];
    let decode_with = |bytes: &[u8], hint: Hint| decode_frame_hinted(bytes, 0, &|_| hint).map_err(|e| e.to_string());
    let header = |f: &Frame| (f.instance, f.sender, f.round);
    mutation_corpus_is_rejected(&base, HEADER_LEN, VA_DIM_OFFSET, |bytes| {
        let plain = decode_frame(bytes, 0).map_err(|e| e.to_string());
        let encoded = plain.as_ref().map(encode_frame).map_err(Clone::clone);
        for hint in &hints {
            assert_eq!(decode_with(bytes, Hint::Held(hint)).map(|f| encode_frame(&f)), encoded);
        }
        match (decode_with(bytes, Hint::Delivered), &plain) {
            (Ok(late), Ok(plain)) => {
                assert_eq!(header(&late), header(plain));
                let tag = match &plain.payload {
                    Payload::VaBatch((tag, _)) => Some(*tag),
                    _ => None,
                };
                match late.payload {
                    Payload::LateBatch(late) => assert_eq!(Some(late), tag, "a batch frame, walked"),
                    payload => assert_eq!(&payload, &plain.payload, "not a batch frame"),
                }
            }
            (late, plain) => assert_eq!(late.map(drop), plain.clone().map(drop)),
        }
        plain.map(drop)
    });
    for (i, hint) in hints.iter().enumerate() {
        let Payload::VaBatch((_, BrachaMsg::Ready(got))) = decode_with(&base, Hint::Held(hint)).unwrap().payload
        else {
            unreachable!()
        };
        assert_eq!(Arc::ptr_eq(&got, hint), i == 0, "only the own batch is reused");
    }
}

#[test]
fn client_codec_rejects_the_mutation_corpus() {
    let base = encode_client_frame(&ClientFrame::Submit {
        session: 9,
        reqno: 2,
        value: VecD::from_slice(&[1.0, -2.0, 0.5]),
    });
    mutation_corpus_is_rejected(&base, CLIENT_HEADER_LEN, SUBMIT_DIM_OFFSET, |bytes| {
        decode_client_frame(bytes).map(drop)
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity for every client frame kind,
    /// including non-finite vector entries (the codec is bit-transparent;
    /// *admission* rejects NaN, not the wire layer).
    #[test]
    fn client_round_trip_is_identity(
        raw in prop::collection::vec(-1e9f64..1e9, 12),
        dim in 1usize..8,
        session in 0u64..u64::MAX,
        reqno in 0u64..u64::MAX,
        node in 0u32..64,
    ) {
        let v = VecD::from_slice(&raw[..dim]);
        let frames = [
            ClientFrame::Submit { session, reqno, value: v.clone() },
            ClientFrame::Reply { session, reqno, decision: v },
            ClientFrame::Redirect { node },
            ClientFrame::Busy,
        ];
        for frame in frames {
            let back = decode_client_frame(&encode_client_frame(&frame));
            prop_assert_eq!(back.as_ref().ok(), Some(&frame));
        }
    }
}

/// End-to-end: the attack registry's crafted-client corpus (the generator
/// behind the E20 "client-spray" mix) sprayed at a live `ClientPort` never
/// panics the node and never reaches the client table — zero sessions, zero
/// admissions, zero instances; every malformed frame is counted as a reject
/// or poisons only its own connection.
#[test]
fn crafted_client_corpus_never_reaches_the_client_table() {
    use std::io::Write as _;
    use std::net::TcpStream;
    use std::time::Duration;

    use rbvc_transport::{in_proc_mesh, ClientConfig, ClientPort, ConsensusService};

    let mut eps = in_proc_mesh(1);
    let mut svc = ConsensusService::new(eps.remove(0));
    svc.enable_client(ClientConfig::default());
    svc.start_deferred();
    let mut port = ClientPort::bind("127.0.0.1:0".parse().expect("addr")).expect("bind");
    let addr = port.local_addr();

    let mut c = PayloadCrafter::new(42, 0);
    for _ in 0..24 {
        let mut s = TcpStream::connect(addr).expect("dial");
        let mut buf = Vec::new();
        rbvc_transport::tcp::append_frame(&mut buf, &c.next_client_crafted());
        s.write_all(&buf).expect("write");
        std::thread::sleep(Duration::from_millis(5));
        port.pump(&mut svc); // must not panic
    }
    // Let the accept/reader threads drain any stragglers, then pump once.
    std::thread::sleep(Duration::from_millis(50));
    port.pump(&mut svc);

    let stats = svc.client_stats();
    assert_eq!(stats.sessions, 0, "no crafted frame may open a session");
    assert_eq!(stats.admitted, 0);
    assert_eq!(svc.instance_count(), 0);
    assert!(port.rejects() >= 1, "malformed frames must be counted");
}

/// A frame's round is the level of its items: one whose label has another
/// length is checked like the rest — caps, ids, truncation — and then left
/// out, as the tree would leave it; the frame decodes as it always did.
#[test]
fn eig_items_of_another_level_are_checked_then_left_out() {
    let frame = eig_frame(1, 2, 3, &[1.0, 2.0, 3.0, 4.0], 2);
    let Payload::Eig(sent) = &frame.payload else { unreachable!() };
    let mut bytes = encode_frame(&frame);
    bytes[16..HEADER_LEN].copy_from_slice(&1u32.to_le_bytes());
    let Payload::Eig(got) = decode_frame(&bytes, 2).expect("decodes").payload else { unreachable!() };
    assert_eq!((got.len(), got[0].iter().count()), (1, 0));
    assert_eq!(got[0].entries(), [(0, 0), (1, 0)]);
    assert_eq!(sent[0].entries(), [(0, 2), (1, 2)]);
    for cut in HEADER_LEN..bytes.len() {
        assert!(decode_frame(&bytes[..cut], 2).is_err(), "truncation at {cut}");
    }
    let last_id = bytes.len() - 4 - 8 * 3 - 4;
    bytes[last_id..last_id + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode_frame(&bytes, 2).is_err(), "an id beyond the cap, in an item left out");
}

/// The 147 frames of one honest (n, f, d) = (7, 2, 3) `SyncBvc` instance —
/// rounds 0, 1 and 2 of every process, in the order a FIFO network delivers
/// them — are, byte for byte, the frames of the label-keyed EIG this codec was
/// written for (the hash is of a run at `c84a6ba`), and survive a decode. The
/// decision is the δ* solver's witness as the QR Wolfe kernel finds it: 5e-15
/// from the Gram-system kernel's, inside the solver's gap.
#[test]
fn honest_bvc_frames_are_the_bytes_they_always_were() {
    use std::collections::VecDeque;

    use rbvc_core::{DecisionRule, SyncBvc};
    use rbvc_linalg::{Norm, Tol};
    use rbvc_sim::asynch::AsyncProtocol;
    use rbvc_transport::{Lockstep, RoundBatch};

    let (n, f, d) = (7usize, 2usize, 3usize);
    let mut nodes: Vec<Lockstep<SyncBvc>> = (0..n)
        .map(|id| {
            let x = id as f64;
            let input = VecD::from_slice(&[x * 0.5 - 1.0, (x * x) % 3.0, 1.0 / (x + 1.0)]);
            let rule = DecisionRule::MinDeltaPoint(Norm::L2);
            Lockstep::new(SyncBvc::new(id, n, f, d, input, rule, Tol::default()), n, f + 1)
        })
        .collect();
    let mut queue = VecDeque::new();
    for (from, node) in nodes.iter_mut().enumerate() {
        queue.extend(node.on_start().into_iter().map(|(dst, batch)| (from, dst, batch)));
    }
    let mut stream = Vec::new();
    while let Some((from, dst, batch)) = queue.pop_front() {
        let round = batch.round as u32;
        let frame = Frame { instance: 9, sender: from, round, payload: Payload::Eig(batch.msgs) };
        let bytes = encode_frame(&frame);
        assert_eq!(bytes.capacity(), bytes.len(), "an EIG frame's buffer is sized once");
        let back = decode_frame(&bytes, from).expect("an honest frame decodes");
        assert_eq!(back, frame);
        stream.extend_from_slice(&bytes);
        let Payload::Eig(msgs) = back.payload else { unreachable!() };
        let out = nodes[dst].on_message(from, RoundBatch { round: batch.round, msgs });
        queue.extend(out.into_iter().map(|(to, batch)| (dst, to, batch)));
    }
    assert_eq!(stream.len(), 147 * 616);
    let hex: String = rbvc_transport::auth::sha256(&stream).iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, "76cbd2ef868512354a5003a21f42d0c8e47db4019834de762b64d408e2b47dcb");
    let decision: Vec<u64> =
        nodes[0].output().expect("decided").as_slice().iter().map(|x| x.to_bits()).collect();
    assert_eq!(decision, [0x3fe0903d2ed13327, 0x3fe8450eca076310, 0x3fd56ed55182e53d]);
    assert!(nodes.iter().all(|p| p.output() == nodes[0].output()));
}

/// A transport that keeps a copy of every frame it is asked to send.
struct Recording {
    inner: rbvc_transport::InProcEndpoint,
    frames: Vec<Vec<u8>>,
}

impl rbvc_transport::Transport for Recording {
    fn local_id(&self) -> usize {
        self.inner.local_id()
    }
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn send(&mut self, dst: usize, frame: Vec<u8>) -> Result<(), ProtocolError> {
        assert_ne!(dst, self.inner.local_id(), "a node's frame to itself reached its transport");
        self.frames.push(frame.clone());
        self.inner.send(dst, frame)
    }
    fn flush(&mut self) -> Result<(), ProtocolError> {
        self.inner.flush()
    }
    fn recv_timeout(&mut self, timeout: std::time::Duration) -> Vec<(usize, Vec<u8>)> {
        self.inner.recv_timeout(timeout)
    }
    fn take_reconnects(&mut self) -> Vec<usize> {
        Vec::new()
    }
    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }
    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }
    fn errors(&self) -> rbvc_sim::error::ErrorLog {
        self.inner.errors()
    }
}

/// What a run of [`honest_va_mesh`] sent and decided.
struct MeshRun {
    /// Every frame each node sent, in send order per node.
    frames: Vec<Vec<Vec<u8>>>,
    /// Each node's decisions, instance by instance, as bit patterns.
    decisions: Vec<Vec<Vec<u64>>>,
}

/// Four services over the in-process mesh, one thread, each holding `k`
/// honest (n, f, d) = (4, 1, 3) Verified-Averaging instances of three
/// rounds.
fn honest_va_mesh(k: u64) -> MeshRun {
    use rbvc_core::verified_avg::{DeltaMode, VerifiedAveraging};
    use rbvc_linalg::{Norm, Tol};
    use rbvc_transport::{in_proc_mesh, ConsensusService, InstanceProto};

    let n = 4;
    let mut mesh: Vec<_> = in_proc_mesh(n)
        .into_iter()
        .map(|inner| ConsensusService::new(Recording { inner, frames: Vec::new() }))
        .collect();
    for (id, svc) in mesh.iter_mut().enumerate() {
        for inst in 0..k {
            let x = id as f64 + inst as f64 / 8.0;
            let input = VecD::from_slice(&[x * 0.5 - 1.0, (x * x) % 3.0, 1.0 / (x + 1.0)]);
            let va = VerifiedAveraging::new(id, n, 1, input, DeltaMode::MinDelta(Norm::L2), 3, Tol::default());
            svc.add_instance(inst, InstanceProto::Va(va)).expect("register");
        }
        svc.start().expect("start");
    }
    for _ in 0..1_000 {
        mesh.iter_mut().for_each(|svc| drop(svc.poll(std::time::Duration::ZERO)));
    }
    assert!(mesh.iter().all(|svc| svc.all_decided() && svc.errors().is_empty()));
    let bits = |v: VecD| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    MeshRun {
        frames: mesh.iter().map(|svc| svc.transport().frames.clone()).collect(),
        decisions: mesh.iter().map(|svc| (0..k).map(|i| bits(svc.decision(i).unwrap())).collect()).collect(),
    }
}

/// The frames of four honest nodes running `k` (n, f, d) = (4, 1, 3)
/// Verified-Averaging instances of three rounds, at k = 1 and k = 16. Every
/// frame is one Bracha message of one batch: a one-slot frame is 61 B when
/// its state is of round 0 and 73 B after — its witness names the n − f
/// states it averaged, it does not copy them — and each further slot adds
/// its instance and round to the same state layout. A batch broadcast is 27
/// frames on the wire, whatever its k — a node's frames to itself never
/// reach its transport — so at k = 16 the same 324 frames carry sixteen
/// decisions. The streams hash to pinned values, and so do they with each
/// node's frames sorted: the second pair is also what each node sent when
/// its frames to itself went through a self-link, those sends left out —
/// starting every node before the first poll then ordered a node's first
/// frames differently, nothing else. The retired kinds 2 and 4 (one
/// Bracha message per VA round state) are refused by name.
#[test]
fn honest_va_frames_name_their_witness() {
    for (k, pinned, one_slot_frames, stream_len) in [
        (1, [
            "2e81972c5dd8bd86a9a0e14857af2f91ef30d564a9e6beeb27d6e4dbd1ec9304",
            "27bd25b7225514ae5c391a1f2ee34eefd4fc547cf453709440b8416f51b95937",
        ], [108, 216], 22_356),
        (16, [
            "d23c28e83e02a7667eea6b7d1f388b03e75e9e990a2bef5411966e8c8200f73c",
            "745bc89e3edc378f2b2c34a78d50d73d23299ffa1dfeba37782a9704ffa778ec",
        ], [0, 0], 275_076),
    ] {
        let MeshRun { mut frames, decisions } = honest_va_mesh(k);
        let stream: Vec<u8> = frames.iter().flatten().flatten().copied().collect();
        let (mut one_slot, mut count) = ([0usize; 2], 0);
        for (from, sent) in frames.iter().enumerate() {
            for bytes in sent {
                let frame = decode_frame(bytes, from).expect("an honest frame decodes");
                assert_eq!(encode_frame(&frame), *bytes);
                let Payload::VaBatch((_, msg)) = frame.payload else { panic!("only VA batches") };
                let (BrachaMsg::Init(b) | BrachaMsg::Echo(b) | BrachaMsg::Ready(b)) = msg;
                let state = |round: u32| if round == 0 { 61 - 29 } else { 73 - 29 };
                let slots: Vec<_> = b.slots().collect();
                let want: usize = 29 + slots.iter().map(|s| state(s.round)).sum::<usize>() + 12 * (slots.len() - 1);
                assert_eq!(bytes.len(), want, "k = {k}: {} slots", slots.len());
                if slots.len() == 1 {
                    one_slot[usize::from(slots[0].round > 0)] += 1;
                    assert_eq!(bytes.len(), if slots[0].round == 0 { 61 } else { 73 });
                }
                for (kind, what) in [(2, "retired payload kind 2"), (4, "retired payload kind 4")] {
                    let mut retired = bytes.clone();
                    retired[3] = kind;
                    let refused = decode_frame(&retired, from).expect_err("retired").to_string();
                    assert!(refused.contains(what), "{refused}");
                }
                count += 1;
            }
        }
        assert_eq!((count, one_slot, stream.len()), (324, one_slot_frames, stream_len), "k = {k}");
        frames.iter_mut().for_each(|sent| sent.sort());
        let sorted: Vec<u8> = frames.iter().flatten().flatten().copied().collect();
        let hex = |bytes: &[u8]| -> String { rbvc_transport::auth::sha256(bytes).iter().map(|b| format!("{b:02x}")).collect() };
        assert_eq!([hex(&stream), hex(&sorted)], pinned, "k = {k}");
        // Instance 0 has the same inputs at either k, and every node decides
        // for it what it decided with one Bracha broadcast per state.
        let decision = [0xbfd943fd6c9221f8, 0x3feae9abc95f7441, 0x3fe092c64ef88994];
        assert!(decisions.iter().all(|d| d.len() == k as usize && d[0] == decision), "k = {k}");
    }
}

/// The one value edit ([`VaBatch::edited`]) reproduces, byte for byte, what
/// each adversary sent when it edited states of its own: the frames the
/// wire's `equivocate`, `lying-witness` and `slot-twice` mixes send for one
/// own batch and one relayed echo, and the messages of the simulator's
/// `split_brain_input` at its start and of `corrupt_average` through a
/// whole FIFO run — each message its destination, tag, Bracha kind and
/// state, laid out as a slot. The digests were taken while adversaries
/// edited an owned copy of a state and rebuilt the batch from it.
#[test]
fn va_edits_are_the_bytes_they_were() {
    use std::collections::VecDeque;
    use std::time::Duration;

    use rbvc_core::verified_avg::{corrupt_average, split_brain_input, DeltaMode, VaMsg, VerifiedAveraging};
    use rbvc_linalg::{Norm, Tol};
    use rbvc_sim::asynch::{AsyncAdversary, AsyncProtocol};
    use rbvc_transport::{in_proc_mesh, AttackRegistry, ByzantineEndpoint, Transport};

    let hex = |bytes: &[u8]| -> String { rbvc_transport::sha256(bytes).iter().map(|b| format!("{b:02x}")).collect() };
    let slot = |instance, round, xs: &[f64], witness: &[usize]| (instance, round, VecD::from_slice(xs), witness.to_vec());
    let own = va_batch(&[slot(1, 0, &[1.0, -0.0], &[]), slot(2, 1, &[2.5, 0.25], &[0, 1, 3])]);
    let own = encode_frame(&Frame::batch(0, ((0, 5), BrachaMsg::Init(own))));
    let relay = va_batch(&[slot(1, 2, &[-3.0, 1e-300], &[3, 2, 1])]);
    let relay = encode_frame(&Frame::batch(0, ((2, 3), BrachaMsg::Echo(relay))));
    let mut wire = Vec::new();
    for (mix, frames) in [("equivocate", 2), ("lying-witness", 2), ("slot-twice", 3)] {
        let mut mesh = in_proc_mesh(4);
        let mut peers: Vec<_> = mesh.drain(1..).collect();
        let mut byz = ByzantineEndpoint::new(mesh.pop().unwrap(), AttackRegistry::policy(mix, 7));
        for dst in 1..4 {
            byz.send(dst, own.clone()).unwrap();
            byz.send(dst, relay.clone()).unwrap();
        }
        byz.flush().unwrap();
        for ep in &mut peers {
            let got = ep.recv_timeout(Duration::from_millis(100));
            assert_eq!(got.len(), frames, "{mix}");
            got.into_iter().for_each(|(_, bytes)| wire.extend(bytes));
        }
    }
    assert_eq!(hex(&wire), "01f6d875b26a16ac30222a321881f2304b80979da3bd75b285965b34cce27177");

    let render = |out: &mut Vec<u8>, (dst, ((origin, round), msg)): &(usize, VaMsg)| {
        let (kind, state) = match msg {
            BrachaMsg::Init(s) => (0u8, s),
            BrachaMsg::Echo(s) => (1, s),
            BrachaMsg::Ready(s) => (2, s),
        };
        [*dst, *origin, *round].iter().for_each(|&x| out.extend((x as u32).to_le_bytes()));
        out.push(kind);
        let state = state.slot(0);
        out.extend((state.value().len() as u32).to_le_bytes());
        state.value().for_each(|x| out.extend(x.to_bits().to_le_bytes()));
        out.extend((state.witness().len() as u32).to_le_bytes());
        state.witness().for_each(|k| out.extend((k as u32).to_le_bytes()));
    };
    let (n, f) = (4, 1);
    let proto = |i: usize| {
        let input = VecD::from_slice(&[i as f64, 1.0 - 0.5 * i as f64]);
        VerifiedAveraging::new(i, n, f, input, DeltaMode::MinDelta(Norm::L2), 3, Tol::default())
    };
    let mut sim = Vec::new();
    for sent in split_brain_input(proto(2), VecD::from_slice(&[-9.0, 9.0])).on_start() {
        render(&mut sim, &sent);
    }
    let mut adversary = corrupt_average(proto(0), VecD::from_slice(&[0.5, -0.25]));
    let mut honest: Vec<VerifiedAveraging> = (1..n).map(proto).collect();
    let mut queue: VecDeque<(usize, usize, VaMsg)> = VecDeque::new();
    let sent = adversary.on_start();
    sent.iter().for_each(|m| render(&mut sim, m));
    queue.extend(sent.into_iter().map(|(dst, m)| (0, dst, m)));
    for (k, p) in honest.iter_mut().enumerate() {
        queue.extend(p.on_start().into_iter().map(|(dst, m)| (k + 1, dst, m)));
    }
    while let Some((from, dst, msg)) = queue.pop_front() {
        if dst == 0 {
            let sent = adversary.on_message(from, msg);
            sent.iter().for_each(|m| render(&mut sim, m));
            queue.extend(sent.into_iter().map(|(to, m)| (0, to, m)));
        } else {
            queue.extend(honest[dst - 1].on_message(from, msg).into_iter().map(|(to, m)| (dst, to, m)));
        }
    }
    assert!(honest.iter().all(|p| p.output().is_some()));
    assert_eq!((sim.len(), hex(&sim).as_str()), (5008, "a4defce068a8982e2fcfdce3f08453e931f719c07158ae2832e8000d680efd0b"));
}
