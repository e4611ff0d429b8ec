//! The one form a Verified-Averaging round state takes outside an instance's
//! record: a slot of a **batch** — what one origin reliably broadcasts at
//! once (in the service, the states its instances produced between two
//! seals; in the simulator, one state) — read where its bytes lie. The slot
//! list, all integers little-endian and `f64`s as their bit patterns:
//!
//! ```text
//! state | (instance u64 | round u32 | state)…    (to the end of the bytes)
//! state: dim u32 | value f64… | count u32 | witness id u32…
//! ```
//!
//! The first slot's instance and round are a frame header's. A [`VaBatch`]
//! is those bytes plus an index of its slots, built by a [`BatchWriter`] or
//! by the one validating walk, and equal to another when its first slot and
//! bytes are — so ±0.0 are two batches to a Bracha tally. A slot is read in
//! place through a [`SlotView`]; an adversary changes states only through
//! [`VaBatch::edited`]. The walk reads with [`Reader`], the checked reader
//! the wire and client codecs build their frame reads on: every read
//! bounds-checked, every length held to a cap and to the bytes left before
//! it sizes anything.

use rbvc_sim::config::ProcessId;

/// Hard cap on a vector dimension.
pub const MAX_DIM: usize = 1 << 12;
/// Hard cap on witness entries in a round state.
pub const MAX_WITNESS: usize = 1 << 12;
/// Hard cap on the round states in one batch; a node with more to send at
/// one seal sends several batches.
pub const MAX_BATCH_SLOTS: usize = 1 << 12;
/// Hard cap on any process id on the wire (far above any real `n`).
pub const MAX_PID: usize = 1 << 20;
/// Hard cap on a round number on the wire.
pub const MAX_ROUND: u32 = 1 << 20;

/// Where one slot's state lies in its batch's bytes: the byte ranges of its
/// value's components and of its witness ids.
#[derive(Debug, Clone, Copy)]
struct SlotIndex {
    instance: u64,
    round: u32,
    value: (usize, usize),
    witness: (usize, usize),
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
    #[inline]
    #[must_use]
    pub fn value(&self) -> impl ExactSizeIterator<Item = f64> + Clone + 'a {
        let word = |b: &[u8]| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk")));
        self.value.chunks_exact(8).map(word)
    }

    /// The witness ids, in combining order.
    #[inline]
    #[must_use]
    pub fn witness(&self) -> impl ExactSizeIterator<Item = ProcessId> + Clone + 'a {
        let id = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte chunk")) as ProcessId;
        self.witness.chunks_exact(4).map(id)
    }

    /// Whether the state is sound in a run of `n` processes — every component
    /// finite, at most `n` witness ids, each below `n` — as a node checks
    /// before it echoes a batch and Verified Averaging before it keeps one.
    #[inline]
    #[must_use]
    pub fn is_sound(&self, n: usize) -> bool {
        self.witness().len() <= n && self.value().all(f64::is_finite) && self.witness().all(|k| k < n)
    }

    /// The slot alone, as a batch of one: what a node parks, what an
    /// adversary keeps.
    #[must_use]
    pub fn to_batch(&self) -> VaBatch {
        let mut writer = BatchWriter::default();
        writer.push(self.instance, self.round, self.value(), self.witness());
        writer.finish()
    }
}

/// One origin's round states as it reliably broadcasts them, in production
/// order: their encoding and an index of where each slot's state lies in
/// it. Never empty, built once and never edited.
#[derive(Debug, Clone)]
pub struct VaBatch {
    index: Box<[SlotIndex]>,
    /// The slot list: the first slot's state, then each further slot whole.
    bytes: Box<[u8]>,
}

impl VaBatch {
    /// Its slots, in order.
    #[inline]
    pub fn slots(&self) -> impl ExactSizeIterator<Item = SlotView<'_>> {
        self.index.iter().map(|at| SlotView {
            instance: at.instance,
            round: at.round,
            value: &self.bytes[at.value.0..at.value.1],
            witness: &self.bytes[at.witness.0..at.witness.1],
        })
    }

    /// Slot `k`; panics if the batch has none.
    #[inline]
    #[must_use]
    pub fn slot(&self, k: usize) -> SlotView<'_> {
        self.slots().nth(k).expect("a slot of the batch")
    }

    /// The first slot's instance and round: what a frame's header names.
    #[inline]
    #[must_use]
    pub fn head(&self) -> (u64, u32) {
        (self.index[0].instance, self.index[0].round)
    }

    /// The slot list, encoded: what a batch frame carries after its Bracha
    /// kind byte.
    #[inline]
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// This batch with each slot's value rewritten by `edit(k, components)`
    /// for slot `k`, its instance, round and witness kept: the one way an
    /// adversary — in the simulator or on the wire — changes a state. The
    /// edited copy is a batch of its own; whoever shares this one keeps it.
    #[must_use]
    pub fn edited(&self, mut edit: impl FnMut(usize, &mut Vec<f64>)) -> VaBatch {
        let (mut writer, mut value) = (BatchWriter::default(), Vec::new());
        for (k, slot) in self.slots().enumerate() {
            value.clear();
            value.extend(slot.value());
            edit(k, &mut value);
            writer.push(slot.instance, slot.round, value.iter().copied(), slot.witness());
        }
        writer.finish()
    }

    /// The batch whose slot list is `bytes`, its first slot of `instance`,
    /// round `round`, or why it is none, after the one validating walk: every
    /// cap, every length against the bytes that remain, every witness id and
    /// slot round. The index is sized on the first slot's length, so an
    /// honest batch of like slots indexes them in one allocation.
    pub fn decode(bytes: &[u8], instance: u64, round: u32) -> Result<VaBatch, String> {
        let mut index = Vec::new();
        walk(bytes, instance, round, |slot, rest| {
            if index.is_empty() {
                let len = 16 + slot.witness.1 - slot.value.0;
                index.reserve_exact((1 + rest.div_ceil(len)).min(MAX_BATCH_SLOTS));
            }
            index.push(slot);
        })?;
        Ok(VaBatch { index: index.into_boxed_slice(), bytes: bytes.into() })
    }

    /// [`Self::decode`]'s walk and verdict, with nothing built: how a frame
    /// for a batch already delivered is checked.
    pub fn check(bytes: &[u8], instance: u64, round: u32) -> Result<(), String> {
        walk(bytes, instance, round, |_, _| {})
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

/// The one validating walk over a slot list whose first slot is of
/// `instance`, round `round`: slots until the bytes end, at most
/// [`MAX_BATCH_SLOTS`]. `slot` sees where each checked slot lies, with the
/// count of bytes after it.
fn walk(bytes: &[u8], instance: u64, round: u32, mut slot: impl FnMut(SlotIndex, usize)) -> Result<(), String> {
    let mut r = Reader::new(bytes);
    slot(r.state(instance, round)?, r.remaining());
    let mut count = 1;
    while r.remaining() > 0 {
        if count == MAX_BATCH_SLOTS {
            return Err(format!("oversized batch: more than {MAX_BATCH_SLOTS} slots"));
        }
        let instance = r.u64()?;
        let round = r.round()?;
        slot(r.state(instance, round)?, r.remaining());
        count += 1;
    }
    Ok(())
}

/// Round states written out as batches, slot by slot, as they are produced:
/// each slot whole (instance, round, state) into one buffer, cut into
/// batches when they are sent. Its buffers are kept from one cut to the
/// next.
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
        out.extend_from_slice(&round.to_le_bytes());
        put_count(out, value.len());
        let start = out.len();
        value.for_each(|x| out.extend_from_slice(&x.to_bits().to_le_bytes()));
        let value = (start, out.len());
        put_count(out, witness.len());
        let start = out.len();
        witness.for_each(|id| put_count(out, id));
        self.index.push(SlotIndex { instance, round, value, witness: (start, out.len()) });
    }

    /// Hand what was written to `each` as batches of at most `max` slots,
    /// in order, each sized once; the writer is left empty.
    pub fn drain(&mut self, max: usize, mut each: impl FnMut(VaBatch)) {
        for chunk in self.index.chunks(max) {
            // The first slot's instance and round are the header's.
            let start = chunk[0].value.0 - 4;
            let end = chunk[chunk.len() - 1].witness.1;
            let at = |(from, to): (usize, usize)| (from - start, to - start);
            let index = chunk.iter().map(|&slot| SlotIndex { value: at(slot.value), witness: at(slot.witness), ..slot });
            each(VaBatch { index: index.collect(), bytes: self.bytes[start..end].into() });
        }
        self.bytes.clear();
        self.index.clear();
    }

    /// What was written, as one batch.
    ///
    /// # Panics
    /// If nothing was (a batch is never empty).
    #[must_use]
    pub fn finish(mut self) -> VaBatch {
        let mut batch = None;
        self.drain(usize::MAX, |b| batch = Some(b));
        batch.expect("a batch is never empty")
    }
}

/// A count or an id as the wire formats write it: a little-endian `u32`.
#[inline]
pub fn put_count(out: &mut Vec<u8>, v: usize) {
    // Local data only ever holds counts far below u32::MAX; a violation is
    // a harness bug, not remote input, so a panic is in-contract.
    out.extend_from_slice(&u32::try_from(v).expect("count exceeds wire format range").to_le_bytes());
}

/// Checked reader over untrusted bytes: every accessor returns
/// `Err(reason)` instead of reading past the end or past a cap; the caller
/// attaches who the bytes came from. The slot walk reads with it, and so do
/// the wire and client codecs in `rbvc-transport`, which add their
/// frame-level reads on top. Its accessors are `#[inline]` because those
/// codecs call them from another crate, once per field: as plain calls they
/// took an EIG frame's decode from about 650 to about 1 170 ns.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes not read yet, left unread.
    #[inline]
    #[must_use]
    pub fn peek(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// The next `len` bytes.
    #[inline]
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], String> {
        if self.remaining() < len {
            return Err(format!("truncated frame: wanted {len} more bytes, have {}", self.remaining()));
        }
        self.pos += len;
        Ok(&self.buf[self.pos - len..self.pos])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A length field, held to a hard `cap` *and* to the bytes remaining
    /// (each element occupies at least `min_elem` bytes): the
    /// allocation-bomb guard.
    #[inline]
    pub fn len_capped(&mut self, cap: usize, min_elem: usize, what: &str) -> Result<usize, String> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(format!("oversized {what} length {len} (cap {cap})"));
        }
        if len.saturating_mul(min_elem) > self.remaining() {
            let (need, left) = (len * min_elem, self.remaining());
            return Err(format!("forged {what} length {len}: would need {need} bytes, {left} remain"));
        }
        Ok(len)
    }

    /// A process id, held to [`MAX_PID`].
    #[inline]
    pub fn pid(&mut self) -> Result<ProcessId, String> {
        match self.u32()? as usize {
            id if id < MAX_PID => Ok(id),
            id => Err(format!("process id {id} beyond wire cap {MAX_PID}")),
        }
    }

    /// A round number, held to [`MAX_ROUND`].
    #[inline]
    pub fn round(&mut self) -> Result<u32, String> {
        match self.u32()? {
            round if round <= MAX_ROUND => Ok(round),
            round => Err(format!("round {round} beyond wire cap {MAX_ROUND}")),
        }
    }

    /// One round state of `instance`, round `round`, checked — every cap,
    /// every length against the bytes that remain, every witness id — and
    /// built into nothing: where it lies.
    fn state(&mut self, instance: u64, round: u32) -> Result<SlotIndex, String> {
        let dim = self.len_capped(MAX_DIM, 8, "vector")?;
        let value = (self.pos, self.pos + 8 * dim);
        self.take(8 * dim)?;
        let witness = self.len_capped(MAX_WITNESS, 4, "witness set")?;
        let start = self.pos;
        for _ in 0..witness {
            self.pid()?;
        }
        Ok(SlotIndex { instance, round, value, witness: (start, self.pos) })
    }
}
