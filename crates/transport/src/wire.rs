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
//! ```text
//! origin u32 | seq u32 | bracha kind u8 | state | (instance u64 | round u32 | state)…
//! state: dim u32 | value f64… | count u32 | witness id u32…
//! ```
//!
//! The header's instance and round are the first slot's, so a one-slot
//! batch is no larger than the per-state frame it replaced; each further
//! slot adds its instance and round. Slots run to the end of the frame.
//! A [`VaBatch`] is those bytes — everything after the Bracha kind byte —
//! and an index of where each slot's value and witness lie in them, from the
//! moment it is built, so every frame of its broadcast is a fixed 29-byte
//! prefix and a copy, and two batches are equal when their bytes are. A slot
//! is read in place, through a borrowed [`SlotView`]: decoding a batch builds
//! no round state, and a node writes its own states straight into its next
//! batch ([`BatchWriter`]).
//! A witness names the origins whose states were averaged and does not copy
//! their vectors: every receiver holds those in its own reliably delivered
//! record. At (n, f, d) = (4, 1, 3) a one-slot frame is 61 B at round 0 and
//! 73 B after. Kinds 2 (a VA layout that copied each named vector) and 4 (one
//! Bracha message per VA round state) are retired and refused by name.
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

use rbvc_core::verified_avg::RoundState;
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

/// Hard cap on a vector dimension.
pub const MAX_DIM: usize = 1 << 12;
/// Hard cap on an EIG label length (labels hold ≤ f+1 distinct ids).
pub const MAX_LABEL: usize = 64;
/// Hard cap on relay items in one EIG instance message.
pub const MAX_EIG_ITEMS: usize = 1 << 16;
/// Hard cap on EIG instances (senders) in one parallel batch.
pub const MAX_EIG_INSTANCES: usize = 1 << 12;
/// Hard cap on protocol messages inside one lockstep round batch.
pub const MAX_BATCH_MSGS: usize = 1 << 12;
/// Hard cap on witness entries in a Verified-Averaging round state.
pub const MAX_WITNESS: usize = 1 << 12;
/// Hard cap on the round states in one Verified-Averaging batch; a node
/// with more to send at one seal sends several batches.
pub const MAX_BATCH_SLOTS: usize = 1 << 12;
/// Hard cap on any process id on the wire (far above any real `n`).
pub const MAX_PID: usize = 1 << 20;
/// Hard cap on a round number on the wire.
pub const MAX_ROUND: u32 = 1 << 20;

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

/// One round state of one Verified-Averaging instance, owned: what a test or
/// an adversary builds a batch from ([`VaBatch::new`]) and what a slot is
/// parked as ([`SlotView::to_slot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VaSlot {
    /// The instance the state is of.
    pub instance: u64,
    /// The round it is the state of.
    pub round: u32,
    /// The state.
    pub state: Arc<RoundState>,
}

/// Where one slot's state lies in its batch's bytes: the byte ranges of its
/// value's components and of its witness ids.
#[derive(Debug, Clone, Copy)]
struct SlotIndex {
    instance: u64,
    round: u32,
    value: (usize, usize),
    witness: (usize, usize),
}

impl SlotIndex {
    /// The same slot, its byte ranges counted from `start`.
    fn rebased(self, start: usize) -> SlotIndex {
        let at = |(from, to): (usize, usize)| (from - start, to - start);
        SlotIndex { value: at(self.value), witness: at(self.witness), ..self }
    }
}

/// One slot of a batch, borrowed from the batch's bytes: its instance and
/// round, and its state's value and witness ids, read where they lie.
#[derive(Debug, Clone, Copy)]
pub struct SlotView<'a> {
    /// The instance the state is of.
    pub instance: u64,
    /// The round it is the state of.
    pub round: u32,
    value: &'a [u8],
    witness: &'a [u8],
}

impl<'a> SlotView<'a> {
    /// The value's components, in order, bit for bit.
    #[must_use]
    pub fn value(&self) -> impl ExactSizeIterator<Item = f64> + Clone + 'a {
        let word = |b: &[u8]| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk")));
        self.value.chunks_exact(8).map(word)
    }

    /// The witness ids, in combining order.
    #[must_use]
    pub fn witness(&self) -> impl ExactSizeIterator<Item = ProcessId> + Clone + 'a {
        let id = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte chunk")) as ProcessId;
        self.witness.chunks_exact(4).map(id)
    }

    /// The slot, owned: an adversary edits it, a node parks it.
    #[must_use]
    pub fn to_slot(&self) -> VaSlot {
        let state = RoundState { value: VecD::new(self.value().collect()), witness: self.witness().collect() };
        VaSlot { instance: self.instance, round: self.round, state: Arc::new(state) }
    }
}

/// What one origin reliably broadcasts at one seal: the round states its
/// live VA instances produced since the last one, in production order — as
/// their encoding and an index of where each slot's state lies in it. Never
/// empty. It is built once, by a [`BatchWriter`] or by the decoder, and
/// never edited, so its bytes cannot go stale.
#[derive(Debug, Clone)]
pub struct VaBatch {
    index: Box<[SlotIndex]>,
    /// The slot list as a batch frame carries it after the Bracha kind byte:
    /// the first slot's state (the header names its instance and round),
    /// then each further slot whole.
    bytes: Box<[u8]>,
}

impl VaBatch {
    /// The batch of `slots`, encoded.
    ///
    /// # Panics
    /// On an empty slot list (local data: a seal never forms one).
    #[must_use]
    pub fn new(slots: Vec<VaSlot>) -> Self {
        let mut writer = BatchWriter::default();
        for slot in &slots {
            let state = &slot.state;
            writer.push(slot.instance, slot.round, state.value.as_slice().iter().copied(), state.witness.iter().copied());
        }
        let mut batch = None;
        writer.drain(usize::MAX, |b| batch = Some(b));
        batch.expect("a batch is never empty")
    }

    /// Its slots, in order.
    pub fn slots(&self) -> impl ExactSizeIterator<Item = SlotView<'_>> {
        self.index.iter().map(|at| SlotView {
            instance: at.instance,
            round: at.round,
            value: &self.bytes[at.value.0..at.value.1],
            witness: &self.bytes[at.witness.0..at.witness.1],
        })
    }

    /// Slot `k`.
    ///
    /// # Panics
    /// If the batch has no slot `k`.
    #[must_use]
    pub fn slot(&self, k: usize) -> SlotView<'_> {
        self.slots().nth(k).expect("a slot of the batch")
    }

    /// The first slot's instance and round: what a frame's header names.
    fn head(&self) -> (u64, u32) {
        (self.index[0].instance, self.index[0].round)
    }
}

/// Round states written out as batches, slot by slot, as a node's instances
/// produce them between two seals: each slot whole (instance, round, state)
/// into one buffer, cut into batches at the seal. Its buffers are kept from
/// one seal to the next.
#[derive(Debug, Default)]
pub struct BatchWriter {
    bytes: Vec<u8>,
    index: Vec<SlotIndex>,
}

impl BatchWriter {
    /// Write one round state of `instance`, round `round`: `value`'s
    /// components and the `witness` ids.
    pub fn push(
        &mut self,
        instance: u64,
        round: u32,
        value: impl ExactSizeIterator<Item = f64>,
        witness: impl ExactSizeIterator<Item = ProcessId>,
    ) {
        let out = &mut self.bytes;
        out.extend_from_slice(&instance.to_le_bytes());
        put_u32(out, round);
        put_usize(out, value.len());
        let start = out.len();
        value.for_each(|x| out.extend_from_slice(&x.to_bits().to_le_bytes()));
        let value = (start, out.len());
        put_usize(out, witness.len());
        let start = out.len();
        witness.for_each(|id| put_usize(out, id));
        self.index.push(SlotIndex { instance, round, value, witness: (start, out.len()) });
    }

    /// Hand what was written to `each` as batches of at most `max` slots,
    /// in order, each sized once; the writer is left empty.
    pub fn drain(&mut self, max: usize, mut each: impl FnMut(VaBatch)) {
        for chunk in self.index.chunks(max) {
            // The first slot's instance and round are the header's.
            let start = chunk[0].value.0 - 4;
            let end = chunk[chunk.len() - 1].witness.1;
            let index = chunk.iter().map(|slot| slot.rebased(start)).collect();
            each(VaBatch { index, bytes: self.bytes[start..end].into() });
        }
        self.bytes.clear();
        self.index.clear();
    }
}

/// The one equality on batches, the one Bracha's tally counts by: the same
/// first slot and the same bytes. Two batches whose values differ only in
/// the sign of a zero are two batches.
impl PartialEq for VaBatch {
    fn eq(&self, other: &Self) -> bool {
        self.head() == other.head() && self.bytes == other.bytes
    }
}

impl Eq for VaBatch {}

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

fn put_usize(out: &mut Vec<u8>, v: usize) {
    // Local data only ever holds counts far below u32::MAX; a violation is
    // a harness bug, not remote input, so a panic is in-contract.
    put_u32(out, u32::try_from(v).expect("count exceeds wire format range"));
}

pub(crate) fn put_vecd(out: &mut Vec<u8>, v: &VecD) {
    put_usize(out, v.dim());
    for &x in v.as_slice() {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

fn put_eig_round(out: &mut Vec<u8>, msg: &EigRound<VecD>) {
    put_usize(out, msg.entries().len());
    let mut items = msg.iter();
    for &(origin, count) in msg.entries() {
        put_usize(out, origin);
        put_usize(out, count);
        for (_, label, value) in items.by_ref().take(count) {
            put_usize(out, label.len());
            for &pid in label {
                put_usize(out, pid);
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
            VA_DIM_OFFSET + b.bytes.len()
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
    put_usize(&mut out, frame.sender);
    put_u32(&mut out, frame.round);
    match &frame.payload {
        Payload::Eig(batch) => {
            put_usize(&mut out, batch.len());
            batch.iter().for_each(|msg| put_eig_round(&mut out, msg));
        }
        Payload::VaBatch(((origin, seq), bmsg)) => {
            put_usize(&mut out, *origin);
            put_u32(&mut out, *seq);
            let (kind, batch) = match bmsg {
                BrachaMsg::Init(b) => (0u8, b),
                BrachaMsg::Echo(b) => (1, b),
                BrachaMsg::Ready(b) => (2, b),
            };
            out.push(kind);
            out.extend_from_slice(&batch.bytes);
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

fn pid_of(raw: u32) -> Result<ProcessId, String> {
    match raw as usize {
        id if id < MAX_PID => Ok(id),
        id => Err(format!("process id {id} beyond wire cap {MAX_PID}")),
    }
}

/// Checked reader over untrusted bytes, shared with the client codec
/// ([`crate::client`]). Every accessor returns `Err(reason)` instead of
/// reading past the end; the caller attaches who the bytes came from.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], String> {
        if self.remaining() < len {
            return Err(format!(
                "truncated frame: wanted {len} more bytes, have {}",
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length field and validate it against a hard `cap` *and*
    /// against the bytes remaining (each element occupies at least
    /// `min_elem` bytes) — the allocation-bomb guard.
    fn len_capped(&mut self, cap: usize, min_elem: usize, what: &str) -> Result<usize, String> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(format!("oversized {what} length {len} (cap {cap})"));
        }
        if len.saturating_mul(min_elem) > self.remaining() {
            return Err(format!(
                "forged {what} length {len}: would need {} bytes, {} remain",
                len * min_elem,
                self.remaining()
            ));
        }
        Ok(len)
    }

    fn pid(&mut self) -> Result<ProcessId, String> {
        pid_of(self.u32()?)
    }

    pub(crate) fn vecd(&mut self) -> Result<VecD, String> {
        let dim = self.len_capped(MAX_DIM, 8, "vector")?;
        let mut xs = Vec::with_capacity(dim);
        for _ in 0..dim {
            xs.push(self.f64()?);
        }
        Ok(VecD::new(xs))
    }

    /// One parallel-EIG message of the level whose labels have `stride` ids,
    /// in one pass: a label goes into the message's one buffer, and a value's
    /// bytes are compared with those of the item before it before anything is
    /// allocated for it — an honest relay says each of its `n` values
    /// `(n − 2)…` times in a row. A well-formed item of another level is
    /// left out. The frame holds `of` messages (an honest one holds one), which
    /// split its bytes evenly when their buffers are sized.
    fn eig_round(&mut self, stride: usize, of: usize) -> Result<EigRound<VecD>, String> {
        let entries = self.len_capped(MAX_EIG_INSTANCES, 8, "parallel EIG batch")?;
        // An item that stays takes 8 + 4 · stride bytes or more, so a frame's
        // messages together reserve within twice the frame's own size,
        // whatever the counts below claim.
        let items = self.remaining() / (8 + 4 * stride) / of;
        let mut msg = EigRound::with_capacity(stride, entries, items);
        let (mut label, mut last) = ([0; MAX_LABEL], &self.buf[..0]);
        for _ in 0..entries {
            msg.begin(self.pid()?);
            for _ in 0..self.len_capped(MAX_EIG_ITEMS, 8, "EIG item list")? {
                let llen = self.len_capped(MAX_LABEL, 4, "EIG label")?;
                for (id, raw) in label.iter_mut().zip(self.take(4 * llen)?.chunks_exact(4)) {
                    *id = pid_of(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))?;
                }
                let start = self.pos;
                if llen == stride && !last.is_empty() && self.buf[start..].starts_with(last) {
                    self.pos += last.len();
                    msg.push_shared(&label[..llen]);
                    continue;
                }
                let value = self.vecd()?;
                if llen == stride {
                    last = &self.buf[start..self.pos];
                    msg.push(&label[..llen], value);
                }
            }
        }
        Ok(msg)
    }

    /// One round state of `instance`, round `round`, checked as the decode
    /// checks it — every cap, every length against the bytes that remain,
    /// every witness id — and built into nothing: where it lies.
    fn state(&mut self, instance: u64, round: u32) -> Result<SlotIndex, String> {
        let dim = self.len_capped(MAX_DIM, 8, "vector")?;
        let start = self.pos;
        self.take(8 * dim)?;
        let value = (start, self.pos);
        let wlen = self.len_capped(MAX_WITNESS, 4, "witness set")?;
        let start = self.pos;
        for id in self.take(4 * wlen)?.chunks_exact(4) {
            pid_of(u32::from_le_bytes([id[0], id[1], id[2], id[3]]))?;
        }
        Ok(SlotIndex { instance, round, value, witness: (start, self.pos) })
    }

    fn round(&mut self) -> Result<u32, String> {
        match self.u32()? {
            round if round <= MAX_ROUND => Ok(round),
            round => Err(format!("round {round} beyond wire cap {MAX_ROUND}")),
        }
    }

    /// The one validating walk over a batch whose first slot is of
    /// `instance`, round `round` (the header's): slots until the frame ends,
    /// at most [`MAX_BATCH_SLOTS`]. `slot` sees where each checked slot lies
    /// in the frame, with the count of bytes after it; a late frame's walk
    /// builds nothing.
    fn walk_batch(&mut self, instance: u64, round: u32, mut slot: impl FnMut(SlotIndex, usize)) -> Result<(), String> {
        slot(self.state(instance, round)?, self.remaining());
        let mut count = 1;
        while self.remaining() > 0 {
            if count == MAX_BATCH_SLOTS {
                return Err(format!("oversized batch: more than {MAX_BATCH_SLOTS} slots"));
            }
            let instance = self.u64()?;
            let round = self.round()?;
            slot(self.state(instance, round)?, self.remaining());
            count += 1;
        }
        Ok(())
    }

    /// The batch the walk checks, built into its bytes — the ones just
    /// walked — and an index of its slots, sized on the first slot's length,
    /// so an honest batch of like slots indexes them in one allocation.
    fn batch(&mut self, instance: u64, round: u32) -> Result<VaBatch, String> {
        let start = self.pos;
        let mut index = Vec::new();
        self.walk_batch(instance, round, |slot, rest| {
            if index.is_empty() {
                let len = 16 + slot.witness.1 - slot.value.0;
                index.reserve_exact((1 + rest.div_ceil(len)).min(MAX_BATCH_SLOTS));
            }
            index.push(slot.rebased(start));
        })?;
        Ok(VaBatch { index: index.into_boxed_slice(), bytes: self.buf[start..self.pos].into() })
    }

    /// A frame is exactly one message: `Err` unless every byte was read.
    pub(crate) fn finish(&self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after a complete frame")),
        }
    }
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
    let version = r.u8()?;
    if version != VERSION {
        return Err(format!("unsupported wire version {version}"));
    }
    let kind = r.u8()?;
    let instance = r.u64()?;
    let sender = r.pid()?;
    let round = r.u32()?;
    if round > MAX_ROUND {
        return Err(format!("round {round} beyond wire cap {MAX_ROUND}"));
    }
    let payload = match kind {
        1 => {
            let batch_len = r.len_capped(MAX_BATCH_MSGS, 4, "round batch")?;
            let mut batch = Vec::with_capacity(batch_len);
            for _ in 0..batch_len {
                batch.push(Arc::new(r.eig_round(round as usize + 1, batch_len)?));
            }
            Payload::Eig(batch)
        }
        5 => {
            let tag = (r.pid()?, r.u32()?);
            let bkind = r.u8()?;
            // An echo or ready of the held batch is its bytes, walked when
            // it was built; a late frame is walked and built into nothing.
            let batch = match hint(tag) {
                Hint::Held(held) if held.head() == (instance, round) && r.buf[r.pos..] == *held.bytes => {
                    r.pos = r.buf.len();
                    Some(Arc::clone(held))
                }
                Hint::Delivered => {
                    r.walk_batch(instance, round, |_, _| {})?;
                    None
                }
                _ => Some(Arc::new(r.batch(instance, round)?)),
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
            let value = r.vecd()?;
            if value.dim() == 0 {
                return Err("launch with an empty client vector".into());
            }
            Payload::Launch(ClientLaunch { session, reqno, f, rounds, value })
        }
        2 => return Err("retired payload kind 2: a VA layout that copied witness values".into()),
        4 => return Err("retired payload kind 4: one Bracha message per VA round state".into()),
        k => return Err(format!("unknown payload kind {k}")),
    };
    r.finish()?;
    Ok(Frame {
        instance,
        sender,
        round,
        payload,
    })
}

#[cfg(test)]
mod tests {
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

    fn slot(instance: u64, round: u32, xs: &[f64], witness: Vec<ProcessId>) -> VaSlot {
        VaSlot { instance, round, state: Arc::new(RoundState { value: VecD::from_slice(xs), witness }) }
    }

    /// A three-slot batch: two rounds of one instance and a round-0 state
    /// of another.
    fn va_frame() -> Frame {
        let slots = vec![
            slot(u64::MAX, 2, &[0.25], vec![1, 2]),
            slot(u64::MAX, 3, &[0.5], vec![2, 1, 0]),
            slot(7, 0, &[-1.0], vec![]),
        ];
        Frame::batch(0, ((5, 9), BrachaMsg::Echo(Arc::new(VaBatch::new(slots)))))
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
        let batch = VaBatch::new(vec![slot(0, 0, &[f64::NAN], vec![])]);
        let frame = Frame::batch(1, ((1, 0), BrachaMsg::Init(Arc::new(batch))));
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
        let one = slot(1, 0, &[1.0], vec![]);
        let frame = |slots: Vec<VaSlot>| encode_frame(&Frame::batch(2, ((2, 0), BrachaMsg::Init(Arc::new(VaBatch::new(slots))))));
        assert!(decode_frame(&frame(vec![one.clone(); MAX_BATCH_SLOTS]), 2).is_ok(), "exactly at the cap");
        let refused = decode_frame(&frame(vec![one.clone(); MAX_BATCH_SLOTS + 1]), 2).expect_err("over the cap").to_string();
        assert!(refused.contains("oversized batch"), "{refused}");
        let mut late = frame(vec![one.clone(), one]);
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
        let Payload::VaBatch((tag, BrachaMsg::Echo(batch))) = &frame.payload else { unreachable!() };
        let prefix = |k: usize| {
            let slots = batch.slots().take(k).map(|slot| slot.to_slot()).collect();
            encode_frame(&Frame::batch(0, (*tag, BrachaMsg::Echo(Arc::new(VaBatch::new(slots))))))
        };
        let whole: Vec<usize> = (1..batch.slots().len()).map(|k| prefix(k).len()).collect();
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
