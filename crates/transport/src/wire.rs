//! Binary wire codec for service frames.
//!
//! One [`Frame`] carries one protocol message of one consensus instance:
//!
//! ```text
//! magic "RB" | version u8 | kind u8 | instance u64 | sender u32 | round u32 | payload …
//! ```
//!
//! all integers little-endian, `f64` components as IEEE-754 bit patterns
//! (bit-exact round-trip, NaN included — *structural* validity is decided
//! here, *semantic* validity — finiteness, dimension agreement — stays with
//! the protocol receive boundaries that already enforce it).
//!
//! The kind byte names the payload: 1 a parallel-EIG round batch, 3 a client
//! launch, 5 one Bracha message of a Verified-Averaging **batch** — every
//! round state one origin's live VA instances produced between two of its
//! seals, broadcast once and delivered FIFO by origin (`service::batch`):
//!
//! `origin u32 | seq u32 | bracha kind u8 | slot list`. The slot list — a
//! [`VaBatch`]'s bytes — is written, walked and read by its one owner,
//! [`rbvc_core::va_batch`], which this codec hands the frame's tail with the
//! header's instance and round, those of the first slot. So every frame of
//! a broadcast is a fixed 29-byte prefix and a copy, and decoding a batch
//! builds no round state. A witness names the origins whose states were
//! averaged and does not copy their vectors: at (n, f, d) = (4, 1, 3) a
//! one-slot frame is 61 B at round 0 and 73 B after. Kinds 2 (a VA layout
//! that copied each named vector) and 4 (one Bracha message per VA round
//! state) are retired and refused by name.
//!
//! ## The frame boundary is a trust boundary
//!
//! Bytes arriving from a socket are Byzantine until proven otherwise.
//! [`decode_frame`] therefore follows the degrade-don't-panic contract of
//! `rbvc_sim::error`:
//!
//! * every read is bounds-checked — truncated frames are rejected, never
//!   indexed past;
//! * every length field is validated against both a hard cap and the bytes
//!   actually remaining *before* any allocation, so a forged count cannot
//!   allocate gigabytes or loop for long;
//! * trailing bytes after a well-formed payload are rejected (a frame is
//!   exactly one message);
//! * any violation returns [`ProtocolError::MalformedPayload`] naming the
//!   link peer the bytes came from. No input byte sequence panics.
//!
//! [`decode_frame_hinted`] skips work the receiver has done already, never a
//! check: a batch payload with the bytes of the batch the receiver holds for
//! its tag is that batch, and one for a tag it has delivered goes through the
//! same validating walk a full decode makes and is built into nothing.

use std::sync::Arc;

use rbvc_core::va_batch::{put_count, Reader, VaBatch};
use rbvc_linalg::VecD;
use rbvc_sim::bracha::BrachaMsg;
use rbvc_sim::config::ProcessId;
use rbvc_sim::eig::{EigMsg, EigRound};
use rbvc_sim::error::ProtocolError;

/// Frame magic: the two bytes every frame starts with.
pub const MAGIC: [u8; 2] = *b"RB";
/// Wire format version this codec speaks.
pub const VERSION: u8 = 1;
/// Bytes of the fixed header every frame starts with (magic, version, kind,
/// instance, sender, round); the payload follows.
pub const HEADER_LEN: usize = 20;
/// Offset of the first vector-dimension field of a [`Payload::VaBatch`]
/// frame (its first slot's): the header, then origin u32, seq u32 and the
/// Bracha kind byte. What a length forgery overwrites (`crate::byzantine`,
/// the codec tests).
pub const VA_DIM_OFFSET: usize = HEADER_LEN + 9;

pub use rbvc_core::va_batch::{MAX_BATCH_SLOTS, MAX_DIM, MAX_PID, MAX_ROUND, MAX_WITNESS};

/// Hard cap on an EIG label length (labels hold ≤ f+1 distinct ids).
pub const MAX_LABEL: usize = 64;
/// Hard cap on relay items in one EIG instance message.
pub const MAX_EIG_ITEMS: usize = 1 << 16;
/// Hard cap on EIG instances (senders) in one parallel batch.
pub const MAX_EIG_INSTANCES: usize = 1 << 12;
/// Hard cap on protocol messages inside one lockstep round batch.
pub const MAX_BATCH_MSGS: usize = 1 << 12;

/// Typed payload of one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// One lockstep round batch of a [`rbvc_core::SyncBvc`] instance: the
    /// parallel-EIG messages this sender addressed to the recipient in the
    /// round named by the frame header, whose level they are of — an item
    /// with a label of any other length is checked like the rest and then
    /// left out, as the tree would leave it.
    Eig(Vec<EigMsg<VecD>>),
    /// One Bracha message of an origin's batch of
    /// [`rbvc_core::VerifiedAveraging`] round states (the frame header's
    /// instance and round are the first slot's; build it with
    /// [`Frame::batch`]).
    VaBatch(BatchMsg),
    /// A batch message for a tag the receiver has delivered already: checked
    /// as a [`Payload::VaBatch`] is, then built into nothing. Only
    /// [`decode_frame_hinted`] makes one, and it is never sent.
    LateBatch(BatchTag),
    /// A client-request launch: the session owner tells every peer to stand
    /// up the consensus instance named in the frame header for an external
    /// client's `(session, reqno)` request, with the client's vector as
    /// every node's input (see `service::ClientConfig`). The frame-header
    /// round is always 0.
    Launch(ClientLaunch),
}

/// Body of a [`Payload::Launch`] frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientLaunch {
    /// Client session the request belongs to.
    pub session: u64,
    /// The session's monotonic request number.
    pub reqno: u64,
    /// Fault parameter the spawned Verified-Averaging instance runs with.
    pub f: u32,
    /// Averaging rounds the spawned instance runs.
    pub rounds: u32,
    /// The client's submitted vector — every node's input to the instance.
    pub value: VecD,
}

/// Names one batch broadcast: (origin, the origin's sequence number).
pub type BatchTag = (ProcessId, u32);

/// One Bracha message of one batch broadcast.
pub type BatchMsg = (BatchTag, BrachaMsg<Arc<VaBatch>>);

/// One decoded service frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Consensus instance this message belongs to.
    pub instance: u64,
    /// Claimed protocol-level sender (the service cross-checks it against
    /// the transport-level link peer).
    pub sender: ProcessId,
    /// Protocol round (lockstep round for [`Payload::Eig`], the first
    /// slot's round for [`Payload::VaBatch`]).
    pub round: u32,
    /// The protocol message.
    pub payload: Payload,
}

impl Frame {
    /// The frame that carries `msg` from `sender`: its header names the
    /// batch's first slot.
    #[must_use]
    pub fn batch(sender: ProcessId, msg: BatchMsg) -> Frame {
        let (BrachaMsg::Init(b) | BrachaMsg::Echo(b) | BrachaMsg::Ready(b)) = &msg.1;
        let (instance, round) = b.head();
        Frame { instance, sender, round, payload: Payload::VaBatch(msg) }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_vecd(out: &mut Vec<u8>, v: &VecD) {
    put_count(out, v.dim());
    for &x in v.as_slice() {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

fn put_eig_round(out: &mut Vec<u8>, msg: &EigRound<VecD>) {
    put_count(out, msg.entries().len());
    let mut items = msg.iter();
    for &(origin, count) in msg.entries() {
        put_count(out, origin);
        put_count(out, count);
        for (_, label, value) in items.by_ref().take(count) {
            put_count(out, label.len());
            for &pid in label {
                put_count(out, pid);
            }
            put_vecd(out, value);
        }
    }
}

/// Encode a frame into its wire bytes (infallible: local data is trusted).
///
/// # Panics
/// On a [`Payload::LateBatch`], which holds no bytes to send.
#[must_use]
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    // The two payloads a run is made of are sized once.
    let capacity = match &frame.payload {
        Payload::VaBatch((_, BrachaMsg::Init(b) | BrachaMsg::Echo(b) | BrachaMsg::Ready(b))) => {
            VA_DIM_OFFSET + b.bytes().len()
        }
        Payload::Eig(batch) => batch.iter().fold(HEADER_LEN + 4, |n, msg| {
            let items = msg.iter().map(|(_, label, v)| 8 + 4 * label.len() + 8 * v.dim());
            n + 4 + 8 * msg.entries().len() + items.sum::<usize>()
        }),
        Payload::Launch(_) => 64,
        Payload::LateBatch(_) => panic!("a late batch message is never sent"),
    };
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(match frame.payload {
        Payload::Eig(_) => 1,
        Payload::Launch(_) => 3,
        Payload::VaBatch(_) | Payload::LateBatch(_) => 5,
    });
    out.extend_from_slice(&frame.instance.to_le_bytes());
    put_count(&mut out, frame.sender);
    put_u32(&mut out, frame.round);
    match &frame.payload {
        Payload::Eig(batch) => {
            put_count(&mut out, batch.len());
            batch.iter().for_each(|msg| put_eig_round(&mut out, msg));
        }
        Payload::VaBatch(((origin, seq), bmsg)) => {
            put_count(&mut out, *origin);
            put_u32(&mut out, *seq);
            let (kind, batch) = match bmsg {
                BrachaMsg::Init(b) => (0u8, b),
                BrachaMsg::Echo(b) => (1, b),
                BrachaMsg::Ready(b) => (2, b),
            };
            out.push(kind);
            out.extend_from_slice(batch.bytes());
        }
        Payload::Launch(cl) => {
            out.extend_from_slice(&cl.session.to_le_bytes());
            out.extend_from_slice(&cl.reqno.to_le_bytes());
            put_u32(&mut out, cl.f);
            put_u32(&mut out, cl.rounds);
            put_vecd(&mut out, &cl.value);
        }
        Payload::LateBatch(_) => unreachable!("refused above"),
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A vector off `r`: its dimension, held to [`MAX_DIM`], then its components.
pub(crate) fn vecd(r: &mut Reader) -> Result<VecD, String> {
    let dim = r.len_capped(MAX_DIM, 8, "vector")?;
    let word = |b: &[u8]| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes")));
    Ok(VecD::new(r.take(8 * dim)?.chunks_exact(8).map(word).collect()))
}

/// A frame is exactly its bytes: `Err` unless `r` read every byte.
pub(crate) fn finish(r: &Reader) -> Result<(), String> {
    match r.peek().len() {
        0 => Ok(()),
        n => Err(format!("{n} trailing bytes after a complete frame")),
    }
}

/// One parallel-EIG message of the level whose labels have `stride` ids,
/// in one pass: a label goes into the message's one buffer, and a value's
/// bytes are compared with those of the item before it before anything is
/// allocated for it — an honest relay says each of its `n` values
/// `(n − 2)…` times in a row. A well-formed item of another level is left
/// out. The frame holds `of` messages (an honest one holds one), which split
/// its bytes evenly when their buffers are sized.
fn eig_round(r: &mut Reader, stride: usize, of: usize) -> Result<EigRound<VecD>, String> {
    let entries = r.len_capped(MAX_EIG_INSTANCES, 8, "parallel EIG batch")?;
    // An item that stays takes 8 + 4 · stride bytes or more, so a frame's
    // messages together reserve within twice the frame's own size, whatever
    // the counts below claim.
    let items = r.peek().len() / (8 + 4 * stride) / of;
    let mut msg = EigRound::with_capacity(stride, entries, items);
    let (mut label, mut last): ([ProcessId; MAX_LABEL], &[u8]) = ([0; MAX_LABEL], &[]);
    for _ in 0..entries {
        msg.begin(r.pid()?);
        for _ in 0..r.len_capped(MAX_EIG_ITEMS, 8, "EIG item list")? {
            let llen = r.len_capped(MAX_LABEL, 4, "EIG label")?;
            for id in &mut label[..llen] {
                *id = r.pid()?;
            }
            let rest = r.peek();
            if llen == stride && !last.is_empty() && rest.starts_with(last) {
                r.take(last.len())?;
                msg.push_shared(&label[..llen]);
                continue;
            }
            let value = vecd(r)?;
            if llen == stride {
                last = &rest[..rest.len() - r.peek().len()];
                msg.push(&label[..llen], value);
            }
        }
    }
    Ok(msg)
}

/// Decode one frame received from link peer `from`.
///
/// # Errors
/// [`ProtocolError::MalformedPayload`] on any structural violation; no byte
/// sequence panics.
pub fn decode_frame(bytes: &[u8], from: ProcessId) -> Result<Frame, ProtocolError> {
    decode_frame_hinted(bytes, from, &|_| Hint::Unknown)
}

/// What the caller of [`decode_frame_hinted`] knows of a batch tag.
#[derive(Debug, Clone, Copy)]
pub enum Hint<'a> {
    /// Nothing: the payload decodes as without a hint.
    Unknown,
    /// The batch the caller holds for the tag: a payload of the same bytes is
    /// that very `Arc`.
    Held(&'a Arc<VaBatch>),
    /// The tag has delivered: a well-formed payload is a
    /// [`Payload::LateBatch`].
    Delivered,
}

/// How [`decode_frame_hinted`] asks its caller what it knows of a tag.
pub type BatchHint<'a> = &'a dyn Fn(BatchTag) -> Hint<'a>;

/// [`decode_frame`] with a hint for a [`Payload::VaBatch`] frame's tag. A
/// payload whose bytes are those of the batch held for it comes back as that
/// batch; a well-formed one for a delivered tag comes back as a
/// [`Payload::LateBatch`], walked but not built; any other decodes as without
/// a hint. Whether a frame decodes, and the error if not, never depends on
/// the hint — only what a good one is built into. A held batch's bytes count
/// as checked: the decoder walked them, or they are local data.
pub fn decode_frame_hinted(
    bytes: &[u8],
    from: ProcessId,
    hint: BatchHint,
) -> Result<Frame, ProtocolError> {
    decode(&mut Reader::new(bytes), hint)
        .map_err(|reason| ProtocolError::MalformedPayload { from, reason })
}

fn decode(r: &mut Reader, hint: BatchHint) -> Result<Frame, String> {
    if r.take(2)? != MAGIC {
        return Err("bad magic".into());
    }
    let version = r.take(1)?[0];
    if version != VERSION {
        return Err(format!("unsupported wire version {version}"));
    }
    let kind = r.take(1)?[0];
    let instance = r.u64()?;
    let sender = r.pid()?;
    let round = r.round()?;
    let payload = match kind {
        1 => {
            let batch_len = r.len_capped(MAX_BATCH_MSGS, 4, "round batch")?;
            let mut batch = Vec::with_capacity(batch_len);
            for _ in 0..batch_len {
                batch.push(Arc::new(eig_round(r, round as usize + 1, batch_len)?));
            }
            Payload::Eig(batch)
        }
        5 => {
            let tag = (r.pid()?, r.u32()?);
            let bkind = r.take(1)?[0];
            // The rest of the frame is the slot list. An echo or ready of
            // the held batch is its bytes, walked when it was built; a late
            // frame is walked and built into nothing.
            let tail = r.take(r.peek().len())?;
            let batch = match hint(tag) {
                Hint::Held(held) if held.head() == (instance, round) && tail == held.bytes() => Some(Arc::clone(held)),
                Hint::Delivered => {
                    VaBatch::check(tail, instance, round)?;
                    None
                }
                _ => Some(Arc::new(VaBatch::decode(tail, instance, round)?)),
            };
            let bmsg = match bkind {
                0 => BrachaMsg::Init,
                1 => BrachaMsg::Echo,
                2 => BrachaMsg::Ready,
                k => return Err(format!("unknown Bracha message kind {k}")),
            };
            batch.map_or(Payload::LateBatch(tag), |batch| Payload::VaBatch((tag, bmsg(batch))))
        }
        3 => {
            let session = r.u64()?;
            let reqno = r.u64()?;
            let f = r.u32()?;
            let rounds = r.u32()?;
            if f as usize >= MAX_PID {
                return Err(format!("launch fault parameter {f} beyond cap"));
            }
            if rounds == 0 || rounds > MAX_ROUND {
                return Err(format!("launch round count {rounds} outside 1..={MAX_ROUND}"));
            }
            let value = vecd(r)?;
            if value.dim() == 0 {
                return Err("launch with an empty client vector".into());
            }
            Payload::Launch(ClientLaunch { session, reqno, f, rounds, value })
        }
        2 => return Err("retired payload kind 2: a VA layout that copied witness values".into()),
        4 => return Err("retired payload kind 4: one Bracha message per VA round state".into()),
        k => return Err(format!("unknown payload kind {k}")),
    };
    finish(r)?;
    Ok(Frame {
        instance,
        sender,
        round,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use rbvc_core::va_batch::BatchWriter;

    use super::*;

    fn eig_frame() -> Frame {
        let mut first = EigRound::with_capacity(2, 1, 2);
        first.begin(0);
        first.push(&[0, 1], VecD::from_slice(&[1.5, -2.5]));
        first.push_shared(&[0, 2]);
        let mut second = EigRound::with_capacity(2, 1, 0);
        second.begin(1);
        Frame {
            instance: 42,
            sender: 3,
            round: 1,
            payload: Payload::Eig(vec![Arc::new(first), Arc::new(second)]),
        }
    }

    /// The batch of `slots`: (instance, round, value, witness) each.
    fn batch(slots: &[(u64, u32, &[f64], &[ProcessId])]) -> Arc<VaBatch> {
        let mut writer = BatchWriter::default();
        for &(instance, round, xs, witness) in slots {
            writer.push(instance, round, xs.iter().copied(), witness.iter().copied());
        }
        Arc::new(writer.finish())
    }

    /// A three-slot batch: two rounds of one instance and a round-0 state
    /// of another.
    fn va_frame() -> Frame {
        let slots = batch(&[(u64::MAX, 2, &[0.25], &[1, 2]), (u64::MAX, 3, &[0.5], &[2, 1, 0]), (7, 0, &[-1.0], &[])]);
        Frame::batch(0, ((5, 9), BrachaMsg::Echo(slots)))
    }

    fn launch_frame() -> Frame {
        Frame {
            instance: (1u64 << 44) | (3 << 24) | 9,
            sender: 3,
            round: 0,
            payload: Payload::Launch(ClientLaunch {
                session: 17,
                reqno: 4,
                f: 2,
                rounds: 3,
                value: VecD::from_slice(&[0.5, -1.25]),
            }),
        }
    }

    #[test]
    fn launch_round_trips_and_rejects_degenerate_parameters() {
        let bytes = encode_frame(&launch_frame());
        assert_eq!(decode_frame(&bytes, 3).expect("decodes"), launch_frame());
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut], 3).is_err(), "truncation at {cut}");
        }
        // Zero rounds and an empty vector are structurally invalid: a launch
        // must describe a runnable instance.
        let mut zero_rounds = launch_frame();
        if let Payload::Launch(cl) = &mut zero_rounds.payload {
            cl.rounds = 0;
        }
        assert!(decode_frame(&encode_frame(&zero_rounds), 3).is_err());
        let mut empty = launch_frame();
        if let Payload::Launch(cl) = &mut empty.payload {
            cl.value = VecD::from_slice(&[]);
        }
        assert!(decode_frame(&encode_frame(&empty), 3).is_err());
    }

    #[test]
    fn round_trips_bit_exactly() {
        for frame in [eig_frame(), va_frame()] {
            let bytes = encode_frame(&frame);
            let back = decode_frame(&bytes, 9).expect("well-formed frame decodes");
            assert_eq!(back, frame);
        }
        // NaN payloads survive the codec bit-exactly (semantic rejection is
        // the protocol layer's job, structural integrity is ours).
        let frame = Frame::batch(1, ((1, 0), BrachaMsg::Init(batch(&[(0, 0, &[f64::NAN], &[])]))));
        let bytes = encode_frame(&frame);
        let back = decode_frame(&bytes, 1).expect("NaN is structurally fine");
        match back.payload {
            Payload::VaBatch((_, BrachaMsg::Init(b))) => assert!(b.slot(0).value().all(f64::is_nan)),
            other => panic!("wrong payload: {other:?}"),
        }
    }

    /// A batch's slot count and each slot's round are capped; a frame that
    /// ends inside a slot, or whose header names a round past the cap, is
    /// refused; a slot round past the cap is refused too.
    #[test]
    fn batch_caps_hold() {
        let one: (u64, u32, &[f64], &[ProcessId]) = (1, 0, &[1.0], &[]);
        let frame = |k: usize| encode_frame(&Frame::batch(2, ((2, 0), BrachaMsg::Init(batch(&vec![one; k])))));
        assert!(decode_frame(&frame(MAX_BATCH_SLOTS), 2).is_ok(), "exactly at the cap");
        let refused = decode_frame(&frame(MAX_BATCH_SLOTS + 1), 2).expect_err("over the cap").to_string();
        assert!(refused.contains("oversized batch"), "{refused}");
        let mut late = frame(2);
        let round_at = late.len() - 16 - 4;
        late[round_at..round_at + 4].copy_from_slice(&(MAX_ROUND + 1).to_le_bytes());
        assert!(decode_frame(&late, 2).expect_err("slot round").to_string().contains("beyond wire cap"));
    }

    /// Slots run to the end of a batch frame, so a prefix that ends where
    /// a slot ends is the batch of the slots before it; every other strict
    /// prefix is refused.
    #[test]
    fn every_truncation_is_rejected_or_a_shorter_batch() {
        let frame = va_frame();
        let bytes = encode_frame(&frame);
        assert_eq!(bytes.capacity(), bytes.len(), "a VA frame's buffer is sized once");
        let Payload::VaBatch((tag, BrachaMsg::Echo(whole_batch))) = &frame.payload else { unreachable!() };
        let prefix = |k: usize| {
            let mut writer = BatchWriter::default();
            whole_batch.slots().take(k).for_each(|s| writer.push(s.instance, s.round, s.value(), s.witness()));
            encode_frame(&Frame::batch(0, (*tag, BrachaMsg::Echo(Arc::new(writer.finish())))))
        };
        let whole: Vec<usize> = (1..whole_batch.slots().len()).map(|k| prefix(k).len()).collect();
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut], 7) {
                Ok(shorter) => {
                    let k = whole.iter().position(|&len| len == cut).expect("a slot boundary") + 1;
                    assert_eq!(encode_frame(&shorter), prefix(k));
                }
                Err(e) => assert!(matches!(e, ProtocolError::MalformedPayload { from: 7, .. })),
            }
        }
        assert_eq!(whole.iter().filter(|&&len| decode_frame(&bytes[..len], 7).is_ok()).count(), 2);
    }

    #[test]
    fn forged_length_cannot_allocate() {
        // A vector claiming u32::MAX components must die on the
        // remaining-bytes guard — which also pins VA_DIM_OFFSET to the
        // field the encoder writes the dimension into.
        let mut bytes = encode_frame(&va_frame());
        bytes[VA_DIM_OFFSET..VA_DIM_OFFSET + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let e = decode_frame(&bytes, 0).expect_err("forged length must fail");
        let msg = e.to_string();
        assert!(msg.contains("vector"), "unexpected error: {msg}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_frame(&eig_frame());
        bytes.push(0xFF);
        assert!(decode_frame(&bytes, 0).is_err());
    }
}
