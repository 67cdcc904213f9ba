//! [`DurableTinker`]: a sharded [`GraphTinker`](gtinker_core::GraphTinker)
//! store whose updates survive crashes.
//!
//! The paper's parallel design (§III.D) is N interval-partitioned
//! instances behind one update stream, one instance being N = 1. This is
//! that design with a write-ahead log in front: a [`WalWriter`] on the
//! caller's thread, a [`ParallelTinker`] of N ≥ 1 shard workers behind it.
//!
//! The write path is WAL-first: a batch is appended (and synced, per
//! policy) *before* it is handed to the shard pool, so an acknowledged
//! [`apply_batch`](DurableTinker::apply_batch) is recoverable by
//! definition and a failed append never touches the store. The pool
//! applies at most [`PIPELINE_DEPTH`](gtinker_core::pool::PIPELINE_DEPTH)
//! batches behind the log, which is what overlaps disk and memory work:
//!
//! ```text
//! caller  : | append k | append k+1 | append k+2 |
//! workers :            |  apply k   | apply k+1  |
//! ```
//!
//! Reads through [`store`](DurableTinker::store) settle the pool first, so
//! they see every acknowledged batch. Snapshots fold the log into one
//! checksummed image of all shards and prune the segments it covers,
//! bounding recovery time by the snapshot interval.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gtinker_core::ParallelTinker;
use gtinker_types::{EdgeBatch, TinkerConfig};

use crate::format::Result;
use crate::recover::{recover_sharded, RecoveryReport};
use crate::snapshot::write_sharded_snapshot;
use crate::wal::{prune_segments, WalOptions, WalWriter};

/// A [`ParallelTinker`] paired with a WAL and snapshot directory.
///
/// All mutation goes through [`apply_batch`](Self::apply_batch) so the
/// store never runs ahead of the log; the store itself is shared out
/// read-only via [`store`](Self::store).
#[derive(Debug)]
pub struct DurableTinker {
    store: Arc<ParallelTinker>,
    wal: WalWriter,
}

impl DurableTinker {
    /// Opens (or creates) a durable store of `shards` interval shards in
    /// `dir`, recovering whatever a previous process, cleanly shut down or
    /// not and at whatever shard count, left behind. Any torn WAL tail is
    /// truncated on disk so new appends extend a valid log.
    /// `default_config` is used only when no snapshot exists yet.
    pub fn open(
        dir: &Path,
        default_config: TinkerConfig,
        wal_opts: WalOptions,
        shards: usize,
    ) -> Result<(Self, RecoveryReport)> {
        let (mut wal, scan) = WalWriter::open(dir, wal_opts)?;
        let (store, report) = recover_sharded(dir, &scan, default_config, shards)?;
        // A snapshot newer than the surviving log (its records were lost
        // to a tear after being folded in): restart the log at the
        // snapshot so new records are not shadowed by it.
        wal.reset_to(report.snapshot_lsn)?;
        Ok((DurableTinker { store: Arc::new(store), wal }, report))
    }

    /// The underlying store, for readers (and for threads that pin epochs
    /// while batches keep applying).
    pub fn store(&self) -> &Arc<ParallelTinker> {
        &self.store
    }

    /// LSN the next batch will be logged at (= batches logged so far).
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Logs `batch`, hands it to the shard workers, and returns its LSN:
    /// the record is durable per the sync policy when this returns, the
    /// in-memory apply may still be in flight.
    pub fn apply_batch(&mut self, batch: EdgeBatch) -> Result<u64> {
        let lsn = self.wal.append(&batch)?;
        self.store.submit_shared(Arc::new(batch));
        Ok(lsn)
    }

    /// Drains the shard pool and forces logged batches to stable storage
    /// (for `SyncPolicy::Never` / `EveryN` callers at a consistency point).
    pub fn sync(&mut self) -> Result<()> {
        self.store.flush();
        self.wal.sync()
    }

    /// Snapshots the current state at the current LSN and prunes WAL
    /// segments the snapshot fully covers. Returns the snapshot path.
    pub fn snapshot(&mut self) -> Result<PathBuf> {
        self.sync()?;
        let lsn = self.next_lsn();
        let path = write_sharded_snapshot(self.wal.dir(), &self.store, lsn)?;
        prune_segments(self.wal.dir(), lsn)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::recover_tinker;
    use crate::wal::SyncPolicy;
    use gtinker_core::GraphTinker;
    use gtinker_types::Edge;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gtinker_dur_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn open(dir: &Path, opts: WalOptions, shards: usize) -> (DurableTinker, RecoveryReport) {
        DurableTinker::open(dir, TinkerConfig::default(), opts, shards).unwrap()
    }

    fn batch(i: u32) -> EdgeBatch {
        let mut b = EdgeBatch::new();
        for j in 0..5 {
            b.push_insert(Edge::new(i % 23, (i * 3 + j) % 71, j + 1));
        }
        b
    }

    fn sorted(mut v: Vec<(u32, u32, u32)>) -> Vec<(u32, u32, u32)> {
        v.sort_unstable();
        v
    }

    fn edge_set(d: &DurableTinker) -> Vec<(u32, u32, u32)> {
        let mut v = Vec::new();
        d.store().for_each_edge(|s, d, w| v.push((s, d, w)));
        sorted(v)
    }

    /// Copies every regular file of `src` into `dst` — a crash image of
    /// the persistence directory at a moment in time.
    fn copy_dir(src: &Path, dst: &Path) {
        fs::create_dir_all(dst).unwrap();
        for entry in fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_file() {
                fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
            }
        }
    }

    #[test]
    fn open_apply_reopen_recovers_everything() {
        let dir = tmpdir("reopen");
        let (mut d, report) = open(&dir, WalOptions::default(), 1);
        assert_eq!(report.next_lsn, 0);
        for i in 0..12u32 {
            assert_eq!(d.apply_batch(batch(i)).unwrap(), i as u64);
        }
        let live = edge_set(&d);
        drop(d);
        let (d, report) = open(&dir, WalOptions::default(), 1);
        assert_eq!(report.replayed_records, 12);
        assert_eq!(d.next_lsn(), 12);
        assert_eq!(edge_set(&d), live);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_prunes_and_later_opens_replay_less() {
        let dir = tmpdir("snap");
        let opts = WalOptions { segment_bytes: 200, ..WalOptions::default() };
        let (mut d, _) = open(&dir, opts, 2);
        for i in 0..10u32 {
            d.apply_batch(batch(i)).unwrap();
        }
        let snap = d.snapshot().unwrap();
        assert!(snap.exists());
        for i in 10..14u32 {
            d.apply_batch(batch(i)).unwrap();
        }
        let live = edge_set(&d);
        drop(d);
        let (d, report) = open(&dir, opts, 2);
        assert_eq!(report.snapshot_lsn, 10);
        assert_eq!(report.replayed_records, 4, "only post-snapshot records replay");
        assert_eq!(edge_set(&d), live);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_log_behind_snapshot_does_not_shadow_new_appends() {
        let dir = tmpdir("shadow");
        let (mut d, _) = open(&dir, WalOptions::default(), 1);
        for i in 0..8u32 {
            d.apply_batch(batch(i)).unwrap();
        }
        d.snapshot().unwrap();
        drop(d);
        // Destroy the (pruned, now empty-tail) log entirely: the snapshot
        // at lsn 8 is newer than the surviving log (nothing).
        for (_, p) in crate::wal::list_segments(&dir).unwrap() {
            fs::remove_file(p).unwrap();
        }
        let (mut d, report) = open(&dir, WalOptions::default(), 1);
        assert_eq!(report.snapshot_lsn, 8);
        // New appends must land at lsn >= 8, not at 0 where recovery
        // would skip them as snapshot-covered.
        assert_eq!(d.apply_batch(batch(8)).unwrap(), 8);
        let live = edge_set(&d);
        drop(d);
        let (d, report) = open(&dir, WalOptions::default(), 1);
        assert_eq!(report.replayed_records, 1);
        assert_eq!(edge_set(&d), live);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_never_acks_before_durable() {
        // Crash injection at the ack boundary: immediately after each
        // apply_batch returns — the batch durable in the log, its apply
        // possibly still in flight on the shard workers — image the
        // directory as if the process lost power, and recover from the
        // image. Every acknowledged batch must come back.
        for shards in [1, 3] {
            let dir = tmpdir(&format!("pipeack{shards}"));
            let opts = WalOptions { sync: SyncPolicy::EveryRecord, ..WalOptions::default() };
            let (mut d, _) = open(&dir, opts, shards);
            let mut model = GraphTinker::with_defaults();
            for i in 0..10u32 {
                assert_eq!(d.apply_batch(batch(i)).unwrap(), i as u64, "ack carries the LSN");
                model.apply_batch(&batch(i));
                let crash = tmpdir(&format!("pipeack{shards}_crash{i}"));
                copy_dir(&dir, &crash);
                let (g, report) = recover_tinker(&crash, TinkerConfig::default()).unwrap();
                assert_eq!(
                    report.replayed_records,
                    (i + 1) as u64,
                    "acked batch {i} missing from the log at its ack boundary"
                );
                let (mut got, mut want) = (Vec::new(), Vec::new());
                g.for_each_edge_main(|s, d, w| got.push((s, d, w)));
                model.for_each_edge_main(|s, d, w| want.push((s, d, w)));
                assert_eq!(sorted(got), sorted(want), "recovered state != acked prefix");
                fs::remove_dir_all(&crash).ok();
            }
            assert_eq!(d.store().num_edges(), model.num_edges(), "reads settle the pool");
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn pipelined_snapshot_folds_pending_batch_in() {
        let dir = tmpdir("pipesnap");
        let (mut d, _) = open(&dir, WalOptions::default(), 2);
        for i in 0..6u32 {
            d.apply_batch(batch(i)).unwrap();
        }
        // Straight after the ack, batches still in flight on the workers.
        d.snapshot().unwrap();
        let live = edge_set(&d);
        drop(d);
        let (d, report) = open(&dir, WalOptions::default(), 2);
        assert_eq!(report.snapshot_lsn, 6, "snapshot must cover the batch just applied");
        assert_eq!(report.replayed_records, 0);
        assert_eq!(d.next_lsn(), 6);
        assert_eq!(edge_set(&d), live);
        fs::remove_dir_all(&dir).ok();
    }
}
