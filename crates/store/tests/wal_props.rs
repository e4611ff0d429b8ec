//! Property/fuzz tests for the WAL codec and recovery path (ISSUE 5,
//! satellite: "random record sequences round-trip; any truncation or
//! single-byte corruption is detected and recovery yields the longest
//! valid prefix — never a panic, never a silent bad record").
//!
//! The file-level cases build a log in a temp directory, mutilate the raw
//! bytes, and reopen: the reopened log must hold exactly the records whose
//! frames precede the first damaged byte, regardless of where the damage
//! lands.

use proptest::prelude::*;
use rbvc_store::{decode_record, encode_record_into, DstSet, RecordBatch, Wal, WalRecord, WAL_MAGIC};

/// Deterministic record zoo driven by the proptest RNG stream: covers
/// every tag with variable-length fields of seeded sizes.
fn record_from(words: &[u64]) -> WalRecord<'static> {
    let pick = words[0] % 7;
    let a = words[1];
    // Leaked: a few KiB per test run, so the records can borrow.
    let blob = |n: u64| -> &'static [u8] {
        let len = (n % 200) as usize;
        (0..len).map(|i| (n.wrapping_mul(31).wrapping_add(i as u64)) as u8).collect::<Vec<_>>().leak()
    };
    match pick {
        0 => WalRecord::Registered { instance: a, spec: blob(words[2]) },
        1 => WalRecord::Launched { instance: a },
        2 => WalRecord::Inbound { from: (a % 64) as u32, bytes: blob(words[2]) },
        3 => {
            // A set of one member, of four, or of the ~32 bits of `a`.
            let members: Vec<u32> = match words[3] % 3 {
                0 => vec![(a % 64) as u32],
                1 => (0..4).collect(),
                _ => (0..64).filter(|bit| a >> bit & 1 == 1).chain([64 + (a % 64) as u32]).collect(),
            };
            let dsts = DstSet::collect(members, Box::leak(Box::default())).expect("not empty");
            WalRecord::Sent { dsts, bytes: blob(words[2]) }
        }
        4 => WalRecord::WitnessCommit { instance: a, count: words[2] },
        5 => {
            let d = (words[2] % 9) as usize;
            let value: Vec<f64> = (0..d).map(|i| (words[3].rotate_left(i as u32) as f64) / 1e9).collect();
            WalRecord::Decided { instance: a, value: value.into() }
        }
        _ => {
            let d = (words[3] % 6) as usize;
            let value: Vec<f64> = (0..d).map(|i| (words[3].rotate_right(i as u32) as f64) / 1e6).collect();
            WalRecord::ClientReply {
                instance: a,
                session: words[2],
                reqno: words[3] % 1024,
                value: value.into(),
            }
        }
    }
}

/// One record's payload bytes.
fn encode(rec: &WalRecord<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(rec, &mut out);
    out
}

fn tmp_wal(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rbvc-wal-props-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    dir.join("log.wal")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → decode is the identity on arbitrary record sequences, and
    /// encoding after other records appends the identical bytes.
    #[test]
    fn typed_records_round_trip(
        seeds in prop::collection::vec(
            prop::collection::vec(0u64..u64::MAX, 4), 16),
    ) {
        let (mut in_place, mut want) = (Vec::new(), Vec::new());
        for words in &seeds {
            let rec = record_from(words);
            let bytes = encode(&rec);
            encode_record_into(&rec, &mut in_place);
            want.extend_from_slice(&bytes);
            prop_assert_eq!(&in_place, &want);
            prop_assert_eq!(decode_record(&bytes), Some(rec));
        }
    }

    /// `decode_record` is total: arbitrary byte soup never panics, and
    /// anything it does accept re-encodes to the identical bytes (no
    /// silent normalization that would desync a replay).
    #[test]
    fn decode_never_panics_and_accepts_only_canonical_bytes(
        raw in prop::collection::vec(0u64..u64::MAX, 24),
        len in 0usize..192,
    ) {
        let bytes: Vec<u8> = raw
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .take(len)
            .collect();
        if let Some(rec) = decode_record(&bytes) {
            prop_assert_eq!(encode(&rec), bytes.clone());
        }
    }

    /// A `Sent` record's destination set decodes only in canonical form —
    /// not empty, no trailing zero byte — and then holds exactly the bits
    /// set; a set length past the bytes present, up to `u32::MAX`, is
    /// refused without a panic.
    #[test]
    fn a_destination_set_decodes_only_when_canonical(
        raw in prop::collection::vec(0u16..256, 12),
        len in 0usize..13,
        zero_tail in 0u8..2,
        hostile in 0u32..u32::MAX,
    ) {
        // Half the sets end in a zero byte, the form the decoder refuses.
        let mut bits: Vec<u8> = raw[..len].iter().map(|&b| b as u8).collect();
        if let (Some(last), 1) = (bits.last_mut(), zero_tail) {
            *last = 0;
        }
        let sent = |len: u32, bits: &[u8]| {
            let mut b = vec![9u8];
            b.extend_from_slice(&len.to_le_bytes());
            b.extend_from_slice(bits);
            b.extend_from_slice(&2u32.to_le_bytes());
            b.extend_from_slice(&[0xAB, 0xCD]);
            b
        };
        let payload = sent(bits.len() as u32, &bits);
        let canonical = bits.last().is_some_and(|&last| last != 0);
        match decode_record(&payload) {
            Some(WalRecord::Sent { dsts, bytes }) => {
                prop_assert!(canonical);
                prop_assert_eq!(bytes, &[0xAB, 0xCD][..]);
                let want: Vec<u32> = (0..8 * bits.len() as u32).filter(|&p| bits[p as usize / 8] >> (p % 8) & 1 == 1).collect();
                prop_assert_eq!(dsts.iter().collect::<Vec<_>>(), want);
                prop_assert_eq!(encode(&WalRecord::Sent { dsts, bytes }), payload);
            }
            other => prop_assert!(!canonical && other.is_none(), "{:?}", other),
        }
        let long = bits.len() as u32 + 7 + hostile % (u32::MAX - bits.len() as u32 - 7);
        let hostile = sent(long, &bits);
        prop_assert_eq!(decode_record(&hostile), None);
    }

    /// A log truncated at ANY byte offset recovers exactly the records
    /// whose frames fit entirely within the kept prefix.
    #[test]
    fn truncation_anywhere_yields_longest_valid_prefix(
        seeds in prop::collection::vec(
            prop::collection::vec(0u64..u64::MAX, 4), 6),
        cut_word in 0u64..u64::MAX,
    ) {
        let path = tmp_wal("trunc", cut_word);
        let records: Vec<WalRecord> = seeds.iter().map(|w| record_from(w)).collect();
        // Frame boundaries: offsets[i] = file length after i records.
        let mut offsets = vec![WAL_MAGIC.len() as u64];
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            // Both append paths must frame a record the same way: a payload
            // appended, and a typed record framed into a batch, absorbed.
            for (i, rec) in records.iter().enumerate() {
                if i % 2 == 0 {
                    wal.append(&encode(rec)).unwrap();
                } else {
                    let mut batch = RecordBatch::default();
                    batch.append_record(rec).unwrap();
                    wal.absorb(&mut batch);
                }
                offsets.push(wal.len());
            }
            wal.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let cut = (WAL_MAGIC.len() as u64 + cut_word % (full.len() as u64 - 7)) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();

        let (_, report) = Wal::open(&path).unwrap();
        let survivors = offsets.iter().filter(|&&o| o <= cut as u64).count() - 1;
        prop_assert!(report.records.len() == survivors,
            "cut at {} recovered {} of {} expected (boundaries {:?})",
            cut, report.records.len(), survivors, offsets);
        for (got, want) in report.records.iter().zip(&records) {
            let decoded = decode_record(got);
            prop_assert_eq!(decoded.as_ref(), Some(want));
        }
        prop_assert_eq!(report.valid_len, offsets[survivors]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Flipping ANY single bit anywhere past the magic is detected: the
    /// reopened log holds a prefix of the original records (the checksum
    /// or framing catches the damage; nothing corrupted is replayed).
    #[test]
    fn single_bit_corruption_never_yields_a_bad_record(
        seeds in prop::collection::vec(
            prop::collection::vec(0u64..u64::MAX, 4), 5),
        flip_word in 0u64..u64::MAX,
        bit in 0u64..8,
    ) {
        let path = tmp_wal("flip", flip_word ^ bit);
        let records: Vec<WalRecord> = seeds.iter().map(|w| record_from(w)).collect();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for rec in &records {
                wal.append(&encode(rec)).unwrap();
            }
            wal.sync().unwrap();
        }
        let mut raw = std::fs::read(&path).unwrap();
        let idx = WAL_MAGIC.len()
            + (flip_word % (raw.len() - WAL_MAGIC.len()) as u64) as usize;
        raw[idx] ^= 1u8 << bit;
        std::fs::write(&path, &raw).unwrap();

        let (_, report) = Wal::open(&path).unwrap();
        // Every recovered record must be byte-identical to the original at
        // its position — corruption may shorten the log, never alter it.
        // (A flip in a length field can also *lengthen* a frame so that it
        // swallows its successors and fails the checksum — still caught.)
        prop_assert!(report.records.len() <= records.len());
        for (got, want) in report.records.iter().zip(&records) {
            prop_assert!(decode_record(got).as_ref() == Some(want),
                "flip at byte {} bit {} altered a recovered record", idx, bit);
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
