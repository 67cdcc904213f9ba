//! Crash recovery: newest valid snapshot + WAL tail replay.
//!
//! The recovery invariant is simple to state: after a crash at *any* byte
//! of any persistence file, recovery reconstructs exactly the state whose
//! durability was acknowledged — every snapshot-covered record plus the
//! longest valid WAL prefix beyond it — and never fails on corruption it
//! can route around:
//!
//! 1. Snapshots are tried newest-first; a corrupt or torn snapshot is
//!    *skipped* (the previous one is still there precisely because
//!    publishing is atomic and pruning is conservative).
//! 2. The WAL is replayed by the longest-valid-prefix rule
//!    (see [`crate::wal`]); records already folded into the chosen
//!    snapshot (`lsn < snapshot_lsn`) are skipped, and the rest are
//!    applied as one stream stably grouped by source.
//! 3. The only hard error beyond I/O is a *gap*: a log whose first
//!    surviving record is newer than the snapshot covers. That state
//!    cannot be reconstructed faithfully, so it is reported rather than
//!    papered over (it cannot arise from crashes alone — only from
//!    deleting files by hand).

use std::path::{Path, PathBuf};

use gtinker_core::{ApplyBatch, GraphTinker, ParallelTinker};
use gtinker_types::TinkerConfig;

use crate::format::{PersistError, Result};
use crate::snapshot::{list_snapshots, load_sharded_snapshot, load_tinker_snapshot};
use crate::wal::{replay, WalRecord, WalReplay};

/// What a recovery pass did, for logging and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL position of the snapshot the store was rebuilt from
    /// (0 when starting from an empty store).
    pub snapshot_lsn: u64,
    /// Path of that snapshot, if one was used.
    pub snapshot_path: Option<PathBuf>,
    /// Newer snapshots that failed validation and were skipped.
    pub snapshots_skipped: usize,
    /// WAL records applied on top of the snapshot.
    pub replayed_records: u64,
    /// Whether a torn/corrupt WAL tail was cut off.
    pub wal_truncated: bool,
    /// LSN the next appended record should get
    /// (`max(snapshot_lsn, end of valid log)`).
    pub next_lsn: u64,
    /// Sources the snapshot restore and the tail replay placed whole, each
    /// straight into its final tier ([`GraphTinker::apply_grouped`]).
    pub placed_whole: u64,
}

/// A loaded snapshot: the store, its LSN, and the file it came from.
type LoadedSnapshot<T> = (T, u64, PathBuf);

/// Picks the newest snapshot in `dir` that loads and verifies, skipping
/// corrupt ones. Returns `(loaded, skipped_count)`.
fn best_snapshot<T>(
    dir: &Path,
    load: impl Fn(&Path) -> Result<(T, u64)>,
) -> Result<(Option<LoadedSnapshot<T>>, usize)> {
    let mut skipped = 0;
    for entry in list_snapshots(dir)?.into_iter().rev() {
        match load(&entry.path) {
            Ok((store, lsn)) => return Ok((Some((store, lsn, entry.path)), skipped)),
            Err(PersistError::Io(m)) => return Err(PersistError::Io(m)),
            Err(_) => skipped += 1,
        }
    }
    Ok((None, skipped))
}

/// Applies the WAL records beyond `snapshot_lsn` to `store`, enforcing the
/// no-gap rule. Returns how many were applied.
///
/// The records' ops are applied as one stream with [`ApplyBatch::load`],
/// so each source arrives with its whole run of the log instead of a few
/// ops per record. Each record's buffer is freed as its ops move into the
/// stream.
fn apply_tail(
    records: Vec<WalRecord>,
    snapshot_lsn: u64,
    store: &mut impl ApplyBatch,
) -> Result<u64> {
    let tail: usize = records.iter().filter(|r| r.lsn >= snapshot_lsn).map(|r| r.batch.len()).sum();
    let mut ops = Vec::with_capacity(tail);
    let mut applied = 0;
    for rec in records {
        if rec.lsn < snapshot_lsn {
            continue;
        }
        if rec.lsn != snapshot_lsn + applied {
            return Err(PersistError::Corrupt(format!(
                "gap between snapshot (lsn {snapshot_lsn}) and log record {}",
                rec.lsn
            )));
        }
        ops.extend(rec.batch);
        applied += 1;
    }
    store.load(ops);
    Ok(applied)
}

/// Shared recovery skeleton over an already-scanned log.
fn recover_with_scan<T: ApplyBatch>(
    dir: &Path,
    scan: WalReplay,
    load: impl Fn(&Path) -> Result<(T, u64)>,
    placed_whole: fn(&T) -> u64,
    fresh: impl FnOnce() -> Result<T>,
) -> Result<(T, RecoveryReport)> {
    let (best, snapshots_skipped) = best_snapshot(dir, load)?;
    let (mut store, snapshot_lsn, snapshot_path) = match best {
        Some((s, lsn, path)) => (s, lsn, Some(path)),
        None => (fresh()?, 0, None),
    };
    let replayed_records = apply_tail(scan.records, snapshot_lsn, &mut store)?;
    let report = RecoveryReport {
        snapshot_lsn,
        snapshot_path,
        snapshots_skipped,
        replayed_records,
        wal_truncated: scan.truncated,
        next_lsn: scan.next_lsn.max(snapshot_lsn),
        placed_whole: placed_whole(&store),
    };
    Ok((store, report))
}

/// Recovers a [`GraphTinker`] from `dir` (snapshots and WAL segments side
/// by side), building the one store on the caller's thread. With no valid
/// snapshot, starts from an empty store built with `default_config`.
/// Read-only: the torn tail, if any, is ignored but not truncated on disk
/// (opening a [`crate::DurableTinker`] truncates it).
pub fn recover_tinker(
    dir: &Path,
    default_config: TinkerConfig,
) -> Result<(GraphTinker, RecoveryReport)> {
    recover_with_scan(dir, replay(dir)?, load_tinker_snapshot, GraphTinker::placed_whole, || {
        GraphTinker::new(default_config).map_err(Into::into)
    })
}

/// [`recover_tinker`] into `shards` interval shards, over a log scan the
/// caller has: [`replay`]'s to read `dir` as it is, or the one
/// [`crate::WalWriter::open`] returns once it has cut a torn tail. The
/// snapshot — whatever shard count wrote it — is restored across the
/// shard workers, and the surviving WAL tail reaches the pool once, as
/// one stream grouped by source.
pub fn recover_sharded(
    dir: &Path,
    scan: WalReplay,
    default_config: TinkerConfig,
    shards: usize,
) -> Result<(ParallelTinker, RecoveryReport)> {
    recover_with_scan(
        dir,
        scan,
        |path| load_sharded_snapshot(path, shards),
        ParallelTinker::placed_whole,
        || Ok(ParallelTinker::new(default_config, shards)?),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{corrupt_file, Fault};
    use crate::snapshot::write_tinker_snapshot;
    use crate::wal::{WalOptions, WalWriter};
    use gtinker_types::{Edge, EdgeBatch};
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gtinker_rec_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn batch(i: u32) -> EdgeBatch {
        let mut b = EdgeBatch::new();
        for j in 0..6 {
            b.push_insert(Edge::new(i % 37, (i * 5 + j) % 101, j + 1));
        }
        if i.is_multiple_of(4) {
            b.push_delete(i % 37, (i * 5) % 101);
        }
        b
    }

    fn ground_truth(n: u32) -> GraphTinker {
        let mut g = GraphTinker::with_defaults();
        for i in 0..n {
            g.apply_batch(&batch(i));
        }
        g
    }

    fn edge_set(g: &GraphTinker) -> Vec<(u32, u32, u32)> {
        let mut v = Vec::new();
        g.for_each_edge_main(|s, d, w| v.push((s, d, w)));
        v.sort_unstable();
        v
    }

    #[test]
    fn recovers_from_wal_only() {
        let dir = tmpdir("walonly");
        let (mut w, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for i in 0..10u32 {
            w.append(&batch(i)).unwrap();
        }
        drop(w);
        let (g, report) = recover_tinker(&dir, TinkerConfig::default()).unwrap();
        assert_eq!(report.replayed_records, 10);
        assert_eq!(report.snapshot_lsn, 0);
        assert!(report.snapshot_path.is_none());
        assert_eq!(report.next_lsn, 10);
        assert_eq!(edge_set(&g), edge_set(&ground_truth(10)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovers_from_snapshot_plus_tail() {
        let dir = tmpdir("snaptail");
        let (mut w, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for i in 0..6u32 {
            w.append(&batch(i)).unwrap();
        }
        write_tinker_snapshot(&dir, &ground_truth(6), 6).unwrap();
        for i in 6..10u32 {
            w.append(&batch(i)).unwrap();
        }
        drop(w);
        let (g, report) = recover_tinker(&dir, TinkerConfig::default()).unwrap();
        assert_eq!(report.snapshot_lsn, 6);
        assert_eq!(report.replayed_records, 4);
        assert_eq!(report.next_lsn, 10);
        assert_eq!(edge_set(&g), edge_set(&ground_truth(10)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older() {
        let dir = tmpdir("fallback");
        let (mut w, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for i in 0..8u32 {
            w.append(&batch(i)).unwrap();
        }
        drop(w);
        write_tinker_snapshot(&dir, &ground_truth(4), 4).unwrap();
        let newest = write_tinker_snapshot(&dir, &ground_truth(8), 8).unwrap();
        corrupt_file(&newest, Fault::BitFlip { at: 60, bit: 3 }).unwrap();
        let (g, report) = recover_tinker(&dir, TinkerConfig::default()).unwrap();
        assert_eq!(report.snapshots_skipped, 1);
        assert_eq!(report.snapshot_lsn, 4);
        assert_eq!(report.replayed_records, 4, "records 4..8 replayed on the older snapshot");
        assert_eq!(edge_set(&g), edge_set(&ground_truth(8)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_newer_than_torn_log_wins() {
        let dir = tmpdir("newer");
        let (mut w, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for i in 0..10u32 {
            w.append(&batch(i)).unwrap();
        }
        let seg = w.current_segment().to_path_buf();
        drop(w);
        write_tinker_snapshot(&dir, &ground_truth(10), 10).unwrap();
        // Tear the log back to ~nothing; the snapshot still covers lsn 10.
        corrupt_file(&seg, Fault::Truncate { at: 40 }).unwrap();
        let (g, report) = recover_tinker(&dir, TinkerConfig::default()).unwrap();
        assert_eq!(report.snapshot_lsn, 10);
        assert_eq!(report.replayed_records, 0);
        assert_eq!(report.next_lsn, 10);
        assert!(report.wal_truncated);
        assert_eq!(edge_set(&g), edge_set(&ground_truth(10)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_recovers_to_empty_store() {
        let dir = tmpdir("emptyrec");
        let (g, report) = recover_tinker(&dir, TinkerConfig::default()).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(report.next_lsn, 0);
        assert_eq!(report.replayed_records, 0);
    }

    #[test]
    fn gap_between_snapshot_and_log_is_an_error() {
        let dir = tmpdir("gap");
        let (mut w, _) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        for i in 0..6u32 {
            w.append(&batch(i)).unwrap();
        }
        drop(w);
        // A snapshot at lsn 2 with the log's first record at lsn 4 cannot
        // be reconstructed faithfully. Manufacture it by renaming the
        // segment (only hand-editing can produce this).
        write_tinker_snapshot(&dir, &ground_truth(2), 2).unwrap();
        let segs = crate::wal::list_segments(&dir).unwrap();
        let data = fs::read(&segs[0].1).unwrap();
        fs::remove_file(&segs[0].1).unwrap();
        // Rewrite header to claim first_lsn = 4 under the matching name.
        let mut hdr = crate::format::ByteWriter::new();
        hdr.put_bytes(crate::wal::WAL_MAGIC);
        hdr.put_u64(4);
        let mut forged = hdr.into_bytes();
        // Keep record payloads; they carry lsns 0.. so replay stops at the
        // first record anyway unless we also forge lsns — simplest gap:
        // empty segment claiming to start at 4.
        let _ = data;
        fs::write(dir.join(crate::wal::segment_file_name(4)), &forged).unwrap();
        forged.clear();
        let r = recover_tinker(&dir, TinkerConfig::default());
        // An empty forged segment yields no records: snapshot wins, no gap
        // error needed. Now forge one record at lsn 4 to force the gap.
        assert!(r.is_ok());
        let rec = crate::wal::encode_record(4, &batch(4));
        let mut file_bytes = fs::read(dir.join(crate::wal::segment_file_name(4))).unwrap();
        file_bytes.extend_from_slice(&rec);
        fs::write(dir.join(crate::wal::segment_file_name(4)), &file_bytes).unwrap();
        let err = recover_tinker(&dir, TinkerConfig::default()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "gap must be reported: {err}");
        fs::remove_dir_all(&dir).ok();
    }
}
