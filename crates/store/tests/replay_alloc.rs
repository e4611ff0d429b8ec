//! Replay reads the log where it lies: opening a WAL and decoding every
//! record allocates the same at 10⁴ records as at 10³, since the open reads
//! the valid prefix once and a decoded frame is a span of it. A counting
//! allocator, per thread so the harness's threads do not count, measures
//! one open plus one decode of every record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use rbvc_store::{decode_record, DstSet, RecordBatch, Wal, WalRecord};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// About the size of a VA batch frame at n = 4.
const FRAME: [u8; 100] = [0x5A; 100];

/// Write `records` alternating `Inbound` and broadcast `Sent` records to `path`,
/// then count the allocations of reopening it and decoding every record.
fn replay_allocations(path: &Path, records: usize) -> u64 {
    let (mut wal, _) = Wal::open(path).expect("create");
    let mut batch = RecordBatch::default();
    // Every process of an n = 4 mesh: a broadcast.
    let dsts = DstSet::new(&[0x0f]).expect("canonical");
    for i in 0..records {
        let record = match i % 2 {
            0 => WalRecord::Inbound { from: 1, bytes: &FRAME },
            _ => WalRecord::Sent { dsts, bytes: &FRAME },
        };
        batch.append_record(&record).expect("append");
    }
    wal.absorb(&mut batch);
    wal.sync().expect("sync");
    drop(wal);
    let before = ALLOCS.with(Cell::get);
    let (_wal, report) = Wal::open(path).expect("reopen");
    let frames = report.records.iter().filter(|payload| match decode_record(payload) {
        Some(WalRecord::Inbound { bytes, .. }) => bytes == FRAME,
        Some(WalRecord::Sent { dsts, bytes }) => bytes == FRAME && dsts.iter().eq(0..4),
        _ => false,
    });
    assert_eq!(frames.count(), records);
    ALLOCS.with(Cell::get) - before
}

#[test]
fn replay_allocations_do_not_grow_with_the_record_count() {
    let dir = std::env::temp_dir().join(format!("rbvc-replay-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    // The first open registers the log's metrics.
    replay_allocations(&dir.join("warm.wal"), 10);
    let small = replay_allocations(&dir.join("small.wal"), 1_000);
    let large = replay_allocations(&dir.join("large.wal"), 10_000);
    assert_eq!(large, small, "replaying 10⁴ records allocated {large} times, 10³ records {small}");
    let _ = std::fs::remove_dir_all(&dir);
}
