//! The durability part of the service: the write-ahead log, the outbound
//! history kept beside it, and the group commit.
//!
//! This is the only code that appends to or syncs the [`Wal`], so the
//! WAL-before-wire rule has one shape the core can follow by construction:
//! everything a call logs goes through [`Durability::append`] /
//! [`Durability::sent`] / [`Durability::witness`] into the log's in-process
//! batch, the call ends with one [`Durability::commit`], and only then does
//! the core flush the transport. Failures degrade, they do not fail the
//! call: they land in the service's error log and the service keeps running
//! on its in-memory state.

use std::collections::BTreeMap;
use std::time::Duration;

use rbvc_sim::config::ProcessId;
use rbvc_sim::error::ProtocolError;
use rbvc_store::{Wal, WalRecordRef};

use super::phase::{Phase, PhaseClock};
use super::{InstanceId, Sinks};

pub(super) struct Durability {
    /// Write-ahead log; `None` runs the service non-durable (no write-through,
    /// no reconnect history).
    wal: Option<Wal>,
    /// Full outbound frame history, `history[dst]` in send order, kept only
    /// while durable: a peer the transport reports as reconnected gets its
    /// own frames replayed, and recovery rebuilds it from the WAL.
    history: Vec<Vec<Vec<u8>>>,
    /// Last witness-commit count logged per VA instance (write-through is
    /// change-driven, not per-poll).
    witness_logged: BTreeMap<InstanceId, u64>,
    /// Artificial delay added to every group-commit sync — fault injection
    /// for the health campaign's slow-fsync class. Zero in real runs.
    fsync_throttle: Duration,
}

impl Durability {
    /// Non-durable until [`Self::attach`]; `n` is the mesh size.
    pub(super) fn new(n: usize) -> Self {
        Durability {
            wal: None,
            history: vec![Vec::new(); n],
            witness_logged: BTreeMap::new(),
            fsync_throttle: Duration::ZERO,
        }
    }

    /// From here on every append is logged. Recovery attaches only after
    /// its replay loop: the records stream through the live receive and
    /// launch paths, whose write-through must not log them a second time.
    pub(super) fn attach(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// The attached log, if any.
    pub(super) fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    pub(super) fn set_fsync_throttle(&mut self, throttle: Duration) {
        self.fsync_throttle = throttle;
    }

    /// Append one record to the WAL's current batch (no-op when
    /// non-durable), encoded from the borrowed fields; an append failure
    /// degrades — it is recorded, the service keeps running on the
    /// in-memory state.
    pub(super) fn append(&mut self, rec: WalRecordRef<'_>, sinks: &mut Sinks) {
        let Some(wal) = self.wal.as_mut() else { return };
        if let Err(e) = wal.append_record(rec) {
            sinks.errors.record(ProtocolError::Transport {
                peer: None,
                reason: format!("wal append failed: {e}"),
            });
        }
    }

    /// One outbound frame, about to be queued on the transport: its `Sent`
    /// record and its copy in the destination's history (the group commit
    /// lands before the flush that puts the frame on the wire).
    pub(super) fn sent(&mut self, dst: ProcessId, bytes: &[u8], sinks: &mut Sinks) {
        if self.wal.is_none() {
            return;
        }
        self.append(
            WalRecordRef::Sent { dst: u32::try_from(dst).unwrap_or(u32::MAX), bytes },
            sinks,
        );
        self.keep(dst, bytes.to_vec());
    }

    /// Add a frame to `dst`'s history without logging it — recovery's
    /// regenerated sends, whose `Sent` records are already in the log.
    pub(super) fn keep(&mut self, dst: ProcessId, bytes: Vec<u8>) {
        if let Some(sent) = self.history.get_mut(dst) {
            sent.push(bytes);
        }
    }

    /// Everything ever sent to `peer`, in send order (empty when
    /// non-durable).
    pub(super) fn history(&self, peer: ProcessId) -> &[Vec<u8>] {
        self.history.get(peer).map_or(&[], Vec::as_slice)
    }

    /// Witness-commit progress of one instance: logged when `count` differs
    /// from the last count logged for it, so recovery can cross-check how
    /// far each VA instance had committed.
    pub(super) fn witness(&mut self, instance: InstanceId, count: u64, sinks: &mut Sinks) {
        if self.witness_logged.get(&instance).copied().unwrap_or(0) != count {
            self.append(WalRecordRef::WitnessCommit { instance, count }, sinks);
            self.witness_logged.insert(instance, count);
        }
    }

    /// A `WitnessCommit` record met during replay: the count already in the
    /// log, not to be logged again.
    pub(super) fn witness_replayed(&mut self, instance: InstanceId, count: u64) {
        self.witness_logged.insert(instance, count);
    }

    /// Group commit: write and fsync everything appended since the last
    /// one, as the `write` and `fsync` phases of `clock`, and leave the
    /// clock in `flush` — the transport flush is what a commit is followed
    /// by. Returns the time the commit took in µs.
    pub(super) fn commit(&mut self, sinks: &mut Sinks, clock: &mut PhaseClock) -> u64 {
        if self.wal.is_none() && self.fsync_throttle.is_zero() {
            clock.enter(Phase::Flush);
            return 0;
        }
        let t_commit = clock.enter(Phase::Write);
        let written = self.wal.as_mut().map_or(Ok(()), Wal::write_batch);
        clock.enter(Phase::Fsync);
        // Fault injection: a throttled "device" is slow whether or not a WAL
        // is attached — the measured commit time includes the sleep, which
        // is what the stall detector's fsync classifier watches.
        if !self.fsync_throttle.is_zero() {
            std::thread::sleep(self.fsync_throttle);
        }
        let synced = written.and_then(|()| self.wal.as_mut().map_or(Ok(()), Wal::sync));
        if let Err(e) = synced {
            sinks.errors.record(ProtocolError::Transport {
                peer: None,
                reason: format!("wal sync failed: {e}"),
            });
        }
        let t_done = clock.enter(Phase::Flush);
        u64::try_from((t_done - t_commit).as_micros()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbvc_obs::Obs;
    use rbvc_sim::error::ErrorLog;

    fn sinks() -> Sinks {
        Sinks { obs: Obs::noop(), errors: ErrorLog::new() }
    }

    fn tmp_wal(tag: &str) -> (std::path::PathBuf, Wal) {
        let dir = std::env::temp_dir().join(format!("rbvc-dur-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp dir");
        let wal = Wal::open(dir.join("node.wal")).expect("open").0;
        (dir, wal)
    }

    /// Appends only fill the batch; the file moves at `commit`, and holds
    /// the whole batch afterwards. `sent` keeps per-destination order.
    #[test]
    fn the_file_moves_only_at_commit_and_history_is_per_destination() {
        let (dir, wal) = tmp_wal("commit");
        let on_disk = || std::fs::metadata(dir.join("node.wal")).unwrap().len();
        let (mut part, mut sinks) = (Durability::new(3), sinks());
        part.attach(wal);
        part.append(WalRecordRef::Launched { instance: 7 }, &mut sinks);
        for (dst, byte) in [(1, 10u8), (2, 20), (1, 11), (2, 21), (1, 12)] {
            part.sent(dst, &[byte], &mut sinks);
        }
        let wal = part.wal().expect("attached");
        assert_eq!(wal.records(), 6);
        assert!(wal.len() > wal.synced_len(), "six records sit in the batch");
        assert_eq!(on_disk(), wal.synced_len(), "none of them is in the file");
        part.commit(&mut sinks, &mut PhaseClock::new());
        let wal = part.wal().expect("attached");
        assert_eq!(wal.synced_len(), wal.len());
        assert_eq!(on_disk(), wal.len(), "the commit wrote the batch");
        assert_eq!(part.history(1), [vec![10], vec![11], vec![12]]);
        assert_eq!(part.history(2), [vec![20], vec![21]]);
        assert!(part.history(0).is_empty() && part.history(9).is_empty());
        assert!(sinks.errors.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Witness progress is change-driven: one record per new count, none
    /// for a repeated one, and a replayed count is not logged again.
    #[test]
    fn witness_logs_once_per_change() {
        let (dir, wal) = tmp_wal("witness");
        let (mut part, mut sinks) = (Durability::new(2), sinks());
        part.attach(wal);
        let records = |part: &Durability| part.wal().expect("attached").records();
        part.witness(5, 0, &mut sinks);
        assert_eq!(records(&part), 0, "0 commits is where every instance starts");
        part.witness(5, 2, &mut sinks);
        part.witness(5, 2, &mut sinks);
        assert_eq!(records(&part), 1);
        part.witness(5, 3, &mut sinks);
        part.witness(6, 3, &mut sinks);
        assert_eq!(records(&part), 3);
        part.witness_replayed(8, 4);
        part.witness(8, 4, &mut sinks);
        assert_eq!(records(&part), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Non-durable: nothing is logged or remembered, but the throttled
    /// "device" is still slow and `commit` says so — the health campaign's
    /// slow-fsync class runs without a WAL.
    #[test]
    fn without_a_wal_commit_still_reports_the_throttle() {
        let (mut part, mut sinks) = (Durability::new(2), sinks());
        part.sent(1, &[1, 2, 3], &mut sinks);
        assert!(part.history(1).is_empty());
        part.set_fsync_throttle(Duration::from_millis(5));
        assert!(part.commit(&mut sinks, &mut PhaseClock::new()) >= 5_000);
        assert!(sinks.errors.is_empty());
    }
}
