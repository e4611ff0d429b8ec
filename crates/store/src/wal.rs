//! The append-only, checksummed write-ahead log.
//!
//! On-disk layout:
//!
//! ```text
//! [magic 8B]  ([len u32 LE][crc32 u32 LE][payload len bytes])*
//! ```
//!
//! `crc32` covers the payload only. [`Wal::open`] replays the file and
//! recovers the **longest valid prefix**: scanning stops at the first
//! record whose frame is short (torn tail from a crash mid-write), whose
//! length field is zero or over [`MAX_RECORD_LEN`], or whose checksum
//! fails (bit rot / injected corruption) — and the file is truncated right
//! there, so subsequent appends extend a log that is valid end to end.
//! Nothing in the replay path panics on hostile bytes, and nothing in it
//! copies a record: the valid prefix is read once, into a [`RecordBatch`]
//! whose payloads are spans of it.
//!
//! The log is a group-commit log. [`Wal::append`] and
//! [`RecordBatch::append_record`] frame the record — length, checksum,
//! payload — into a buffer in this process: no syscall, and no allocation
//! once the buffer has grown to the batch size; [`Wal::absorb`] moves a
//! batch in whole. [`Wal::sync`] hands the whole batch to the file with one
//! `write_all`, fdatasyncs, and advances [`Wal::synced_len`], the
//! high-water mark below which records are guaranteed crash-durable. The
//! service syncs once per poll, after the poll's decisions joined the batch
//! and before anything the batch describes leaves the process.
//!
//! What is not synced is not on disk either: a process crash between syncs
//! leaves the file at the last write, the image a power loss leaves. (Two
//! exceptions, both harmless, both writes without an fsync: a batch that
//! passes 1 MiB is written out early so memory stays bounded, and `Drop`
//! writes the tail so a clean exit loses nothing.) A failed or
//! short write rolls the file back to the last fully written length and
//! keeps the batch buffered, so the log stays valid and the next sync
//! retries.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use rbvc_obs::{Counter, Gauge, Histogram, Registry};

use crate::crc32::crc32;
use crate::records::{encode_record_into, WalRecord};

/// File magic: identifies a relaxed-BVC WAL, version 1.
pub const WAL_MAGIC: [u8; 8] = *b"RBVCWAL1";

/// Hard cap on one record's payload, mirroring the wire codec's frame cap:
/// a length field above this is corruption, not a record.
pub const MAX_RECORD_LEN: usize = 16 * 1024 * 1024;

/// Per-record frame overhead: length prefix + checksum.
const FRAME_OVERHEAD: usize = 8;

/// Buffered bytes above which an append writes the batch out (without an
/// fsync) instead of waiting for the next [`Wal::sync`]: bounds the memory of
/// a caller that appends thousands of records before its first sync.
const SPILL_THRESHOLD: usize = 1 << 20;

/// Durability-layer failure. I/O errors surface verbatim; `BadMagic` means
/// the file exists but is not a WAL (refusing to truncate someone else's
/// data is the conservative choice).
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file's first 8 bytes are not [`WAL_MAGIC`].
    BadMagic {
        /// Path of the offending file.
        path: PathBuf,
    },
    /// An append exceeded [`MAX_RECORD_LEN`].
    RecordTooLarge {
        /// The rejected payload's size.
        len: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "wal i/o error: {e}"),
            StoreError::BadMagic { path } => {
                write!(f, "{} is not a WAL (bad magic)", path.display())
            }
            StoreError::RecordTooLarge { len } => {
                write!(f, "record of {len} bytes exceeds the {MAX_RECORD_LEN}-byte cap")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// The valid records, in append order, framed as they lie in the file
    /// past its magic: read once, each payload a span of them.
    pub records: RecordBatch,
    /// Bytes discarded past the longest valid prefix (0 on a clean file).
    pub torn_bytes: u64,
    /// File length after truncation to the valid prefix (header included).
    pub valid_len: u64,
    /// True if the file did not exist (or was empty) and the header was
    /// freshly written.
    pub created: bool,
}

/// Handles of the log's metrics, looked up once at open: the write path
/// touches only their atomics, never the registry's name map.
#[derive(Debug)]
#[cfg_attr(test, derive(Default))] // tests swap in private cells
struct Metrics {
    appends: Counter,
    writes: Counter,
    write_us: Histogram,
    write_bytes: Histogram,
    fsyncs: Counter,
    fsync_us: Histogram,
    group_commit: Histogram,
    size_bytes: Gauge,
}

impl Metrics {
    fn lookup() -> Metrics {
        let reg = Registry::global();
        Metrics {
            appends: reg.counter("wal.append.records"),
            writes: reg.counter("wal.write"),
            write_us: reg.histogram("wal.write_us"),
            write_bytes: reg.histogram("wal.write_bytes"),
            fsyncs: reg.counter("wal.fsync"),
            fsync_us: reg.histogram("wal.fsync_us"),
            group_commit: reg.histogram("wal.group_commit.records"),
            size_bytes: reg.gauge("wal.size_bytes"),
        }
    }
}

fn micros_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Framed records in memory — length, checksum, payload each — as they go
/// to a log file verbatim, or as [`Wal::open`] read them back: the half of
/// the log that does no I/O. A [`Wal`] keeps its pending batch in one; a
/// caller that must not touch the file fills its own and hands it over
/// with [`Wal::absorb`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecordBatch {
    buf: Vec<u8>,
    records: u64,
}

impl RecordBatch {
    /// Frame `record` at the end of the batch, encoded straight into it
    /// from the borrowed fields.
    ///
    /// # Errors
    /// [`StoreError::RecordTooLarge`] above the cap; the batch is unchanged.
    pub fn append_record(&mut self, record: &WalRecord<'_>) -> Result<(), StoreError> {
        self.put(|out| encode_record_into(record, out)).map(drop)
    }

    /// Move every record of `other` to the end of this batch, leaving it
    /// empty — a buffer swap when this one is empty.
    pub fn append(&mut self, other: &mut RecordBatch) {
        self.records += std::mem::take(&mut other.records);
        if self.buf.is_empty() {
            std::mem::swap(&mut self.buf, &mut other.buf);
        } else {
            self.buf.append(&mut other.buf);
        }
    }

    /// Reserve the header, let `fill` append the payload, then back-patch
    /// length and checksum. Returns the frame's size; an oversized payload
    /// is taken back out.
    fn put(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<usize, StoreError> {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0; FRAME_OVERHEAD]);
        let body = self.buf.len();
        fill(&mut self.buf);
        let len = self.buf.len() - body;
        if len > MAX_RECORD_LEN {
            self.buf.truncate(start);
            return Err(StoreError::RecordTooLarge { len });
        }
        let crc = crc32(&self.buf[body..]);
        self.buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        self.buf[start + 4..body].copy_from_slice(&crc.to_le_bytes());
        self.records += 1;
        Ok(FRAME_OVERHEAD + len)
    }

    /// Records in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::try_from(self.records).unwrap_or(usize::MAX)
    }

    /// True when the batch holds no record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The record payloads in order, each a span of the batch's bytes.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        frames(&self.buf).map(|(payload, ..)| payload)
    }
}

/// An open write-ahead log. See the module docs for format and contract.
#[derive(Debug)]
pub struct Wal {
    file: File,
    /// Logical length: header + every appended frame, written or buffered.
    len: u64,
    /// Length up to which the file is known fdatasync-durable.
    synced_len: u64,
    /// Frames appended since the last write, ready to go out verbatim: the
    /// last bytes of `len`, the file holds the rest.
    batch: RecordBatch,
    /// A write failed part-way and the file may end in a partial batch:
    /// [`Wal::roll_back`] must succeed before the next write.
    torn: bool,
    /// Records appended since the last sync — the group-commit batch size
    /// (`wal.group_commit.records` histogram on each sync).
    pending_records: u64,
    metrics: Metrics,
}

impl Wal {
    /// A log whose file holds `len` valid, synced bytes, with the cursor
    /// at `len`.
    fn at(file: File, len: u64) -> Wal {
        let wal = Wal {
            file,
            len,
            synced_len: len,
            batch: RecordBatch::default(),
            torn: false,
            pending_records: 0,
            metrics: Metrics::lookup(),
        };
        wal.publish_gauges();
        wal
    }

    /// Open (creating if missing) the WAL at `path`, replay it, and
    /// truncate to the longest valid prefix.
    ///
    /// # Errors
    /// I/O failures, or [`StoreError::BadMagic`] if the file exists with a
    /// foreign header (corrupt-beyond-recognition files are *not* silently
    /// clobbered).
    pub fn open<P: AsRef<Path>>(path: P) -> Result<(Wal, ReplayReport), StoreError> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut magic = Vec::with_capacity(WAL_MAGIC.len());
        (&mut file).take(WAL_MAGIC.len() as u64).read_to_end(&mut magic)?;

        // A file shorter than the magic can only be a crash during creation
        // of an empty WAL; anything else with 8+ bytes must match exactly.
        if magic.len() == WAL_MAGIC.len() && magic != WAL_MAGIC {
            return Err(StoreError::BadMagic { path: path.to_path_buf() });
        }
        if magic.len() < WAL_MAGIC.len() {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&WAL_MAGIC)?;
            file.sync_data()?;
            let len = WAL_MAGIC.len() as u64;
            let report = ReplayReport {
                records: RecordBatch::default(),
                torn_bytes: magic.len() as u64,
                valid_len: len,
                created: true,
            };
            return Ok((Wal::at(file, len), report));
        }

        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let t0 = Instant::now();
        let (records, body_len) = scan(&buf);
        let valid_len = (WAL_MAGIC.len() + body_len) as u64;
        let torn_bytes = (buf.len() - body_len) as u64;
        buf.truncate(body_len);
        let reg = Registry::global();
        if torn_bytes > 0 {
            file.set_len(valid_len)?;
            file.sync_data()?;
            reg.counter("wal.torn_bytes").add(torn_bytes);
        }
        file.seek(SeekFrom::Start(valid_len))?;
        reg.counter("wal.replay.records").add(records);
        reg.histogram("wal.replay_us").record(micros_since(t0));
        let wal = Wal::at(file, valid_len);
        let records = RecordBatch { buf, records };
        Ok((wal, ReplayReport { records, torn_bytes, valid_len, created: false }))
    }

    /// Append one record payload to the current batch (in memory; on disk
    /// and durable only after [`Wal::sync`]).
    ///
    /// # Errors
    /// [`StoreError::RecordTooLarge`] above the cap; the log is unchanged.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        self.len += self.batch.put(|out| out.extend_from_slice(payload))? as u64;
        self.pending_records += 1;
        self.metrics.appends.inc();
        if self.batch.buf.len() >= SPILL_THRESHOLD {
            // Best effort: a failed spill keeps the batch buffered and the
            // next sync reports the failure.
            let _ = self.write_batch();
        }
        Ok(())
    }

    /// Append every record of `batch`, leaving it empty: what as many
    /// [`Wal::append`] calls would do, moved in one piece — a buffer swap
    /// when nothing is pending here, as after every successful write.
    pub fn absorb(&mut self, batch: &mut RecordBatch) {
        self.len += batch.buf.len() as u64;
        self.pending_records += batch.records;
        self.metrics.appends.add(batch.records);
        self.batch.append(batch);
    }

    /// Hand the buffered batch to the file with one `write_all` (no fsync) —
    /// the first half of [`Wal::sync`], callable on its own so a caller can
    /// tell its own work (the write) from the device's (the fsync). On
    /// failure the file is rolled back to the last fully written length and
    /// the batch stays buffered for the next attempt.
    ///
    /// # Errors
    /// The write failure.
    pub fn write_batch(&mut self) -> Result<(), StoreError> {
        if self.batch.is_empty() {
            return Ok(());
        }
        if self.torn {
            self.roll_back()?;
        }
        let t0 = Instant::now();
        if let Err(e) = self.file.write_all(&self.batch.buf) {
            self.torn = true;
            // Retried before the next write if it fails here too.
            let _ = self.roll_back();
            return Err(e.into());
        }
        self.metrics.write_us.record(micros_since(t0));
        self.metrics.write_bytes.record(self.batch.buf.len() as u64);
        self.metrics.writes.inc();
        self.batch.buf.clear();
        self.batch.records = 0;
        Ok(())
    }

    /// Cut a partially written batch off the file and put the cursor back.
    fn roll_back(&mut self) -> std::io::Result<()> {
        let written_len = self.len - self.batch.buf.len() as u64;
        self.file.set_len(written_len)?;
        self.file.seek(SeekFrom::Start(written_len))?;
        self.torn = false;
        Ok(())
    }

    /// Force everything appended so far onto stable storage: one write of
    /// the buffered batch, one fdatasync. No-op when nothing is pending.
    ///
    /// # Errors
    /// The write or sync failure; `synced_len` then still reports the old
    /// mark and the log stays appendable.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.synced_len == self.len {
            return Ok(());
        }
        self.write_batch()?;
        // `wal.fsync_us` is the device's time and nothing else: the write
        // above is this program's work and is timed on its own.
        let t0 = Instant::now();
        self.file.sync_data()?;
        self.metrics.fsync_us.record(micros_since(t0));
        self.synced_len = self.len;
        self.metrics.fsyncs.inc();
        // Group-commit batch size: how many appends each fsync amortizes.
        self.metrics
            .group_commit
            .record(std::mem::take(&mut self.pending_records));
        self.publish_gauges();
        Ok(())
    }

    /// Current log length, header and buffered frames included.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == WAL_MAGIC.len() as u64
    }

    /// Length up to which the file is known durable (a torn tail past this
    /// mark is the crash case recovery truncates away).
    #[must_use]
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// Export `wal.size_bytes` so a live `/metrics` scrape sees the log's
    /// footprint as of the last open or sync without touching the service.
    fn publish_gauges(&self) {
        self.metrics.size_bytes.set(i64::try_from(self.len).unwrap_or(i64::MAX));
    }
}

impl Drop for Wal {
    /// Best effort: a clean exit leaves every appended record in the file
    /// (written, not synced). Errors have nowhere to go; call [`Wal::sync`]
    /// first to see them.
    fn drop(&mut self) {
        let _ = self.write_batch();
    }
}

/// The frames of `raw` (framed records, as past a log's magic) in order —
/// each its payload, its stored checksum and the offset it ends at — up to
/// the first one torn inside its header or payload. Total; copies nothing.
fn frames(raw: &[u8]) -> impl Iterator<Item = (&[u8], u32, usize)> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let (head, body) = raw.get(pos..)?.split_first_chunk::<FRAME_OVERHEAD>()?;
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        let payload = body.get(..len)?;
        pos += FRAME_OVERHEAD + len;
        Some((payload, u32::from_le_bytes([head[4], head[5], head[6], head[7]]), pos))
    })
}

/// How many records the longest valid prefix of `raw` holds, and that
/// prefix's length: the walk stops at a torn frame, a length over the cap
/// or a checksum mismatch.
fn scan(raw: &[u8]) -> (u64, usize) {
    frames(raw)
        .take_while(|&(payload, crc, _)| payload.len() <= MAX_RECORD_LEN && crc32(payload) == crc)
        .fold((0, 0), |(records, _), (.., end)| (records + 1, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(report: &ReplayReport) -> Vec<Vec<u8>> {
        report.records.iter().map(<[u8]>::to_vec).collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rbvc-wal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp dir");
        dir
    }

    #[test]
    fn append_sync_reopen_round_trips() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("a.wal");
        {
            let (mut wal, report) = Wal::open(&path).unwrap();
            assert!(report.created);
            wal.append(b"alpha").unwrap();
            wal.append(b"").unwrap();
            wal.append(&[0u8; 300]).unwrap();
            assert!(wal.synced_len() < wal.len());
            wal.sync().unwrap();
            assert_eq!(wal.synced_len(), wal.len());
        }
        let (wal, report) = Wal::open(&path).unwrap();
        assert!(!report.created);
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(payloads(&report), vec![b"alpha".to_vec(), Vec::new(), vec![0u8; 300]]);
        assert_eq!(report.records.len(), 3);
        assert_eq!(wal.len(), report.valid_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_to_longest_valid_prefix() {
        let dir = tmp_dir("torn");
        let path = dir.join("a.wal");
        let keep_len;
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(b"keep me").unwrap();
            keep_len = wal.len();
            wal.append(b"torn record").unwrap();
            wal.sync().unwrap();
        }
        // Crash mid-append: chop the last frame anywhere inside it.
        let full = std::fs::read(&path).unwrap();
        for cut in keep_len..full.len() as u64 {
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let (wal, report) = Wal::open(&path).unwrap();
            assert_eq!(payloads(&report), vec![b"keep me".to_vec()], "cut at {cut}");
            assert_eq!(report.torn_bytes, cut - keep_len);
            assert_eq!(report.valid_len, keep_len);
            assert_eq!(wal.len(), keep_len);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), keep_len);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_extend_a_truncated_log_cleanly() {
        let dir = tmp_dir("extend");
        let path = dir.join("a.wal");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(b"one").unwrap();
            wal.append(b"two").unwrap();
            wal.sync().unwrap();
        }
        // Corrupt the second record's checksum region, then append anew.
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        {
            let (mut wal, report) = Wal::open(&path).unwrap();
            assert_eq!(payloads(&report), vec![b"one".to_vec()]);
            wal.append(b"three").unwrap();
            wal.sync().unwrap();
        }
        let (_, report) = Wal::open(&path).unwrap();
        assert_eq!(payloads(&report), vec![b"one".to_vec(), b"three".to_vec()]);
        assert_eq!(report.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_is_refused_not_clobbered() {
        let dir = tmp_dir("foreign");
        let path = dir.join("notes.txt");
        std::fs::write(&path, b"precious user data, definitely not a WAL").unwrap();
        let err = Wal::open(&path).expect_err("must refuse");
        assert!(matches!(err, StoreError::BadMagic { .. }), "{err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"precious user data, definitely not a WAL".to_vec(),
            "refusal must not modify the file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_appends_are_rejected() {
        let dir = tmp_dir("cap");
        let (mut wal, _) = Wal::open(dir.join("a.wal")).unwrap();
        let err = wal.append(&vec![0u8; MAX_RECORD_LEN + 1]).expect_err("over cap");
        assert!(matches!(err, StoreError::RecordTooLarge { .. }));
        assert!(wal.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn appends_stay_in_memory_until_sync() {
        let dir = tmp_dir("buffered");
        let path = dir.join("a.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let header = WAL_MAGIC.len() as u64;
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        assert_eq!(wal.synced_len(), header);
        assert_eq!(file_len(&path), header, "no byte reaches the file before sync");
        // The power-loss image of this moment: an empty log.
        let image = dir.join("image.wal");
        std::fs::copy(&path, &image).unwrap();
        wal.sync().unwrap();
        assert_eq!(file_len(&path), wal.len());
        assert_eq!(wal.synced_len(), wal.len());
        let (_, report) = Wal::open(&image).unwrap();
        assert!(report.records.is_empty() && report.torn_bytes == 0);
        drop(wal);
        let (_, report) = Wal::open(&path).unwrap();
        assert_eq!(payloads(&report), vec![b"one".to_vec(), b"two".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_batch_is_one_write_and_one_fsync() {
        let dir = tmp_dir("batch");
        let (mut wal, _) = Wal::open(dir.join("a.wal")).unwrap();
        // Private cells: the registry's are shared with every other test.
        wal.metrics = Metrics::default();
        for i in 0..100u8 {
            wal.append(&[i; 40]).unwrap();
        }
        assert_eq!(wal.metrics.writes.get(), 0);
        wal.sync().unwrap();
        wal.sync().unwrap(); // nothing pending: no-op
        assert_eq!(wal.metrics.appends.get(), 100);
        assert_eq!(wal.metrics.writes.get(), 1);
        assert_eq!(wal.metrics.fsyncs.get(), 1);
        let bytes = wal.metrics.write_bytes.snapshot();
        assert_eq!((bytes.count, bytes.sum), (1, 100 * 48));
        assert_eq!(wal.metrics.write_us.snapshot().count, 1);
        assert_eq!(wal.metrics.fsync_us.snapshot().count, 1);
        let batch = wal.metrics.group_commit.snapshot();
        assert_eq!((batch.count, batch.sum), (1, 100));
        assert_eq!(wal.metrics.size_bytes.get(), wal.len() as i64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_are_registered_under_their_names() {
        let dir = tmp_dir("names");
        let (mut wal, _) = Wal::open(dir.join("a.wal")).unwrap();
        wal.append(b"x").unwrap();
        wal.sync().unwrap();
        let reg = Registry::global();
        for name in ["wal.append.records", "wal.write", "wal.fsync"] {
            assert!(reg.counter(name).get() >= 1, "{name}");
        }
        for name in ["wal.write_us", "wal.write_bytes", "wal.fsync_us", "wal.group_commit.records"] {
            assert!(reg.histogram(name).snapshot().count >= 1, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_writes_the_tail() {
        let dir = tmp_dir("drop");
        let path = dir.join("a.wal");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(b"synced").unwrap();
            wal.sync().unwrap();
            wal.append(b"tail").unwrap();
            assert_eq!(file_len(&path), wal.synced_len());
        }
        let (_, report) = Wal::open(&path).unwrap();
        assert_eq!(payloads(&report), vec![b"synced".to_vec(), b"tail".to_vec()]);
        assert_eq!(report.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crossing_the_spill_threshold_writes_without_syncing() {
        let dir = tmp_dir("spill");
        let path = dir.join("a.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.metrics = Metrics::default();
        let header = WAL_MAGIC.len() as u64;
        let record = vec![7u8; 64 * 1024 - FRAME_OVERHEAD];
        for _ in 0..15 {
            wal.append(&record).unwrap();
        }
        assert_eq!(file_len(&path), header, "below the threshold: buffered");
        wal.append(&record).unwrap();
        assert_eq!(file_len(&path), wal.len(), "at the threshold: written");
        assert_eq!(wal.metrics.writes.get(), 1);
        assert_eq!(wal.metrics.fsyncs.get(), 0);
        assert_eq!(wal.synced_len(), header, "a spill is not a sync");
        wal.append(b"after").unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.synced_len(), wal.len());
        assert_eq!((wal.metrics.writes.get(), wal.metrics.fsyncs.get()), (2, 1));
        assert_eq!(wal.metrics.group_commit.snapshot().sum, 17);
        drop(wal);
        let (_, report) = Wal::open(&path).unwrap();
        assert_eq!(report.records.len(), 17);
        assert_eq!(payloads(&report)[16], b"after".to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_keeps_the_batch_and_the_log_appendable() {
        let dir = tmp_dir("write-fail");
        let path = dir.join("a.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"durable").unwrap();
        wal.sync().unwrap();
        let mark = wal.synced_len();
        wal.append(b"pending").unwrap();
        // A handle that cannot write stands in for a full or failing disk.
        let good = std::mem::replace(&mut wal.file, File::open(&path).unwrap());
        let err = wal.sync().expect_err("read-only handle");
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        assert_eq!(wal.synced_len(), mark);
        assert_eq!(file_len(&path), mark);
        wal.append(b"later").unwrap();
        wal.file = good;
        // What a short write would have left behind: part of a frame.
        let mut torn = OpenOptions::new().append(true).open(&path).unwrap();
        torn.write_all(&[0xEE; 5]).unwrap();
        assert!(wal.torn, "the roll-back is still owed");
        wal.sync().unwrap();
        assert_eq!(wal.synced_len(), wal.len());
        assert_eq!(file_len(&path), wal.len());
        drop(wal);
        let (_, report) = Wal::open(&path).unwrap();
        assert_eq!(payloads(&report), vec![b"durable".to_vec(), b"pending".to_vec(), b"later".to_vec()]);
        assert_eq!(report.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
