//! The typed records the consensus service writes through its WAL, and
//! their byte codec.
//!
//! The codec is deliberately protocol-agnostic: process ids are plain
//! `u32`, wire frames are opaque byte blobs, instance specs are whatever
//! bytes the registrar chose to serialize, and decided vectors are raw
//! `f64` components. That keeps `rbvc-store` free of protocol crates and
//! lets the service define what a spec means (see its recovery factory).
//!
//! Layout: one tag byte, then the fields little-endian. Variable-length
//! fields carry a `u32` length prefix. [`decode_record`] is a total
//! function over arbitrary bytes — it returns `None` on anything
//! malformed and never panics, the same receive-boundary contract as
//! `rbvc_transport::wire`.

use std::borrow::Cow;

/// One entry in the service's write-ahead log.
///
/// The service appends a record *before* the step it describes takes
/// effect externally (WAL-before-wire), so replaying the log in order
/// re-derives exactly the state the process crashed with.
///
/// Byte fields borrow: the write path encodes a record straight from the
/// frame or spec it describes into the log's buffer, and [`decode_record`]
/// hands back spans of the payload it read. A decided vector is borrowed
/// when written and owned once decoded — its components are not aligned
/// in the payload.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord<'a> {
    /// An instance was registered under `instance` with an opaque,
    /// caller-serialized construction spec (the recovery factory turns it
    /// back into a protocol state machine).
    Registered {
        /// Service-wide instance id.
        instance: u64,
        /// Opaque spec bytes, meaningful to the registrar's factory.
        spec: &'a [u8],
    },
    /// An instance was launched (its `on_start` sends were generated).
    Launched {
        /// Which instance.
        instance: u64,
    },
    /// An inbound wire frame passed every receive gate and was accepted
    /// into protocol state. `from` is the transport-authenticated link
    /// peer. Replaying these through the rebuilt state machines
    /// regenerates the exact post-crash state (the protocols are
    /// deterministic functions of their inbound sequence).
    Inbound {
        /// Transport-authenticated sender.
        from: u32,
        /// The encoded wire frame, verbatim; empty for a frame the node
        /// sent itself, which its `Sent` record holds.
        bytes: &'a [u8],
    },
    /// An outbound wire frame was handed to the transport once for every
    /// process in `dsts`: a broadcast is one record. Logged before the
    /// transmit, so after a crash the log's `Sent` sequence is a superset
    /// of what actually hit the wire; recovery re-sends them (receivers
    /// deduplicate) and checks regenerated sends against this sequence,
    /// each set expanded in ascending order, to detect divergence
    /// (accidental equivocation). So one record may only carry frames of
    /// equal bytes sent to rising destinations, one after the other.
    Sent {
        /// Destination processes.
        dsts: DstSet<'a>,
        /// The encoded wire frame, verbatim.
        bytes: &'a [u8],
    },
    /// A Verified-Averaging instance accepted witness commitments; `count`
    /// is the running total, recorded so recovery can assert the replayed
    /// state machine reached at least the logged progress.
    WitnessCommit {
        /// Which instance.
        instance: u64,
        /// Cumulative verified witness count at the time of the append.
        count: u64,
    },
    /// An instance decided `value`. Synced to disk before the decision is
    /// surfaced, and pinned on recovery: a recovered node must never
    /// surface a different vector for this instance.
    Decided {
        /// Which instance.
        instance: u64,
        /// The decided vector's components.
        value: Cow<'a, [f64]>,
    },
    /// A client request completed: the decision for `(session, reqno)` was
    /// cached in the client table (and is about to be sent to the client).
    /// Synced before the reply leaves the process, so a restarted node
    /// answers a duplicate retry with the identical pre-crash reply —
    /// client-table dedup survives the crash.
    ClientReply {
        /// The consensus instance that served the request.
        instance: u64,
        /// Client session.
        session: u64,
        /// The session's request number this reply answers.
        reqno: u64,
        /// The decided vector's components, verbatim.
        value: Cow<'a, [f64]>,
    },
}

/// The destinations of a `Sent` record: a bitset, process `p` at bit
/// `p % 8` of byte `p / 8`, in its one canonical form — at least one byte
/// and no trailing zero byte — so the empty set has no encoding and no set
/// has two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DstSet<'a>(&'a [u8]);

impl<'a> DstSet<'a> {
    /// `bits` read as a set; `None` unless canonical and within a
    /// record field's cap.
    #[must_use]
    pub fn new(bits: &'a [u8]) -> Option<Self> {
        let canonical = matches!(bits.last(), Some(&last) if last != 0);
        (canonical && bits.len() <= MAX_FIELD_LEN).then_some(DstSet(bits))
    }

    /// Write the bitset of `members` over `buf` and read it as a set;
    /// `None` when `members` is empty.
    pub fn collect(members: impl IntoIterator<Item = u32>, buf: &'a mut Vec<u8>) -> Option<Self> {
        buf.clear();
        for p in members {
            let byte = p as usize / 8;
            if buf.len() <= byte {
                buf.resize(byte + 1, 0);
            }
            buf[byte] |= 1 << (p % 8);
        }
        Self::new(buf)
    }

    /// The bitset, as encoded.
    #[must_use]
    pub fn bits(&self) -> &'a [u8] {
        self.0
    }

    /// The members, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        let bytes = (0u32..).zip(self.0);
        bytes.flat_map(|(i, &byte)| (0..8).filter(move |bit| byte >> bit & 1 == 1).map(move |bit| 8 * i + bit))
    }
}

const TAG_REGISTERED: u8 = 1;
const TAG_LAUNCHED: u8 = 2;
const TAG_INBOUND: u8 = 3;
const TAG_WITNESS: u8 = 5;
const TAG_DECIDED: u8 = 6;
const TAG_CLIENT_REPLY: u8 = 8;
const TAG_SENT: u8 = 9;
// Tags 4 (one `Sent` record per destination) and 7 (retired record kinds)
// stay unassigned, so an old log never decodes them as something else.

/// Sanity cap on variable-length fields inside a record, matching the wire
/// codec's allocation guard (a record payload is itself capped by
/// [`crate::wal::MAX_RECORD_LEN`]).
const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(u32::try_from(b.len()).expect("field fits u32")).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_vector(out: &mut Vec<u8>, value: &[f64]) {
    out.extend_from_slice(&(u32::try_from(value.len()).expect("dimension fits u32")).to_le_bytes());
    for x in value {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Append one record's payload bytes to `out` — the one encoder.
/// [`crate::RecordBatch::append_record`] points it at a batch's own buffer.
pub fn encode_record_into(r: &WalRecord<'_>, out: &mut Vec<u8>) {
    match r {
        WalRecord::Registered { instance, spec } => {
            out.push(TAG_REGISTERED);
            out.extend_from_slice(&instance.to_le_bytes());
            put_bytes(out, spec);
        }
        WalRecord::Launched { instance } => {
            out.push(TAG_LAUNCHED);
            out.extend_from_slice(&instance.to_le_bytes());
        }
        WalRecord::Inbound { from, bytes } => {
            out.push(TAG_INBOUND);
            out.extend_from_slice(&from.to_le_bytes());
            put_bytes(out, bytes);
        }
        WalRecord::Sent { dsts, bytes } => {
            out.push(TAG_SENT);
            put_bytes(out, dsts.bits());
            put_bytes(out, bytes);
        }
        WalRecord::WitnessCommit { instance, count } => {
            out.push(TAG_WITNESS);
            out.extend_from_slice(&instance.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
        WalRecord::Decided { instance, value } => {
            out.push(TAG_DECIDED);
            out.extend_from_slice(&instance.to_le_bytes());
            put_vector(out, value);
        }
        WalRecord::ClientReply { instance, session, reqno, value } => {
            out.push(TAG_CLIENT_REPLY);
            out.extend_from_slice(&instance.to_le_bytes());
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&reqno.to_le_bytes());
            put_vector(out, value);
        }
    }
}

/// Bounds-checked cursor over a record payload; every read is total.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Length-prefixed byte field, borrowed; the prefix is validated
    /// against both the global cap and the bytes actually present, so a
    /// hostile length cannot over-read.
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        if len > MAX_FIELD_LEN {
            return None;
        }
        self.take(len)
    }

    /// Length-prefixed `f64` vector, decoded into an owned one whose
    /// pre-allocation is capped by what the buffer can actually hold.
    fn vector(&mut self) -> Option<Cow<'a, [f64]>> {
        let d = self.u32()? as usize;
        if d > MAX_FIELD_LEN / 8 {
            return None;
        }
        let mut value = Vec::with_capacity(d.min(self.buf.len().saturating_sub(self.pos) / 8));
        for _ in 0..d {
            value.push(self.f64()?);
        }
        Some(Cow::Owned(value))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Decode one record payload, borrowing its byte fields from `payload`.
/// Total over arbitrary bytes: `None` on an unknown tag, short buffer,
/// oversized field, or trailing garbage — never a panic, never a partial
/// record.
#[must_use]
pub fn decode_record(payload: &[u8]) -> Option<WalRecord<'_>> {
    let mut r = Reader { buf: payload, pos: 0 };
    let rec = match r.u8()? {
        TAG_REGISTERED => WalRecord::Registered { instance: r.u64()?, spec: r.bytes()? },
        TAG_LAUNCHED => WalRecord::Launched { instance: r.u64()? },
        TAG_INBOUND => WalRecord::Inbound { from: r.u32()?, bytes: r.bytes()? },
        TAG_WITNESS => WalRecord::WitnessCommit { instance: r.u64()?, count: r.u64()? },
        TAG_DECIDED => WalRecord::Decided { instance: r.u64()?, value: r.vector()? },
        TAG_CLIENT_REPLY => WalRecord::ClientReply {
            instance: r.u64()?,
            session: r.u64()?,
            reqno: r.u64()?,
            value: r.vector()?,
        },
        TAG_SENT => WalRecord::Sent { dsts: DstSet::new(r.bytes()?)?, bytes: r.bytes()? },
        _ => return None,
    };
    if !r.done() {
        return None; // trailing garbage — reject the whole record
    }
    Some(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(bits: &'static [u8]) -> DstSet<'static> {
        DstSet::new(bits).expect("canonical")
    }

    fn samples() -> Vec<WalRecord<'static>> {
        vec![
            WalRecord::Registered { instance: 7, spec: &[1, 2, 3] },
            WalRecord::Registered { instance: 0, spec: &[] },
            WalRecord::Launched { instance: u64::MAX },
            WalRecord::Inbound { from: 3, bytes: &[0xde, 0xad, 0xbe, 0xef] },
            WalRecord::Sent { dsts: set(&[0x01]), bytes: &[] },
            WalRecord::Sent { dsts: set(&[0x0f]), bytes: &[0x5a; 9] },
            WalRecord::Sent { dsts: set(&[0xff, 0x03, 0x80]), bytes: &[7] },
            WalRecord::WitnessCommit { instance: 42, count: 19 },
            WalRecord::Decided { instance: 9, value: Cow::Borrowed(&[0.25, -1.5, f64::MAX]) },
            WalRecord::Decided { instance: 9, value: Cow::Borrowed(&[]) },
            WalRecord::ClientReply {
                instance: 1 << 44,
                session: 12,
                reqno: 3,
                value: Cow::Borrowed(&[1.5, -0.25]),
            },
            WalRecord::ClientReply { instance: 0, session: 0, reqno: 0, value: Cow::Borrowed(&[]) },
        ]
    }

    fn encode(r: &WalRecord<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record_into(r, &mut out);
        out
    }

    #[test]
    fn round_trips() {
        for r in samples() {
            let bytes = encode(&r);
            assert_eq!(decode_record(&bytes), Some(r));
        }
    }

    #[test]
    fn encoding_appends_to_what_is_there() {
        let mut out = vec![0xAA, 0xBB];
        let mut want = out.clone();
        for r in samples() {
            want.extend_from_slice(&encode(&r));
            encode_record_into(&r, &mut out);
            assert_eq!(out, want, "after {r:?}");
        }
    }

    #[test]
    fn truncations_and_trailing_bytes_are_rejected() {
        for r in samples() {
            let bytes = encode(&r);
            for cut in 0..bytes.len() {
                assert_eq!(decode_record(&bytes[..cut]), None, "prefix of {r:?}");
            }
            let mut extended = bytes.clone();
            extended.push(0);
            assert_eq!(decode_record(&extended), None, "trailing byte after {r:?}");
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate_or_panic() {
        // Registered with a 4 GiB-ish spec length and no body.
        let mut b = vec![1u8];
        b.extend_from_slice(&7u64.to_le_bytes());
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_record(&b), None);
        // Decided claiming a huge dimension.
        let mut b = vec![6u8];
        b.extend_from_slice(&7u64.to_le_bytes());
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_record(&b), None);
        // Sent claiming a huge destination set.
        let mut b = vec![9u8];
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        b.push(0x01);
        assert_eq!(decode_record(&b), None);
        // Unknown tag, and the retired per-destination `Sent` tag.
        assert_eq!(decode_record(&[0x99, 0, 0]), None);
        let mut b = vec![4u8];
        b.extend_from_slice(&0u32.to_le_bytes());
        b.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_record(&b), None);
        assert_eq!(decode_record(&[]), None);
    }

    /// A set has one encoding: the empty bitset and one with a trailing
    /// zero byte are refused, by the set and by the record decoder.
    #[test]
    fn a_destination_set_is_canonical() {
        let sent = |bits: &[u8]| {
            let mut b = vec![9u8];
            put_bytes(&mut b, bits);
            put_bytes(&mut b, &[1, 2]);
            b
        };
        for bits in [&[][..], &[0x00], &[0x01, 0x00], &[0x0f, 0x00, 0x00]] {
            assert_eq!(DstSet::new(bits), None, "{bits:?}");
            assert_eq!(decode_record(&sent(bits)), None, "{bits:?}");
        }
        let payload = sent(&[0x00, 0x01]);
        let rec = decode_record(&payload).expect("canonical");
        assert!(matches!(rec, WalRecord::Sent { dsts, .. } if dsts.iter().eq([8])));
    }

    /// Collecting members and iterating the set give them back in
    /// ascending order, for sets of one member, of four, and of more than
    /// eight across several bytes; no member, no set.
    #[test]
    fn a_destination_set_holds_its_members_in_ascending_order() {
        let mut buf = Vec::new();
        for members in [vec![0], vec![3], vec![0, 1, 2, 3], (0..10).chain([17, 23, 64]).collect()] {
            let set = DstSet::collect(members.iter().copied(), &mut buf).expect("not empty");
            assert_eq!(set.iter().collect::<Vec<_>>(), members);
            assert_eq!(set.bits().len(), *members.last().unwrap() as usize / 8 + 1);
        }
        assert_eq!(DstSet::collect([], &mut buf), None);
        assert_eq!(set(&[0xff, 0x03, 0x80]).iter().collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 23]);
    }
}
