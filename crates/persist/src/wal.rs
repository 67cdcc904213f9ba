//! Append-only write-ahead log of [`EdgeBatch`] records.
//!
//! ## Segment layout (`wal-<first_lsn:016x>.wal`)
//!
//! ```text
//! magic     "GTWAL001"                   8 bytes
//! first_lsn u64      LSN of the segment's first record
//! record*                                repeated
//!   len     u32      payload bytes
//!   crc     u32      CRC-32 of payload
//!   payload:
//!     lsn       u64  sequence number (consecutive from first_lsn)
//!     op_count  u32
//!     op*            u8 tag (0 insert, 1 delete), u32 src, u32 dst,
//!                    u32 weight (inserts only)
//! ```
//!
//! One record is one [`EdgeBatch`] — the unit the paper streams updates at
//! and the unit recovery replays at. The log is totally ordered by LSN
//! across segments; a new segment starts when the current one passes the
//! configured size (rotation keeps any single file's replay and
//! truncation cheap).
//!
//! ## Replay = longest valid prefix
//!
//! [`replay`] applies records strictly in LSN order and stops at the
//! *first* defect — short header, torn record, checksum mismatch, or LSN
//! discontinuity. Everything before the defect is trusted (each record's
//! CRC vouches for it); nothing after it is, because a record is only
//! meaningful under all of its predecessors. [`WalWriter::open`] uses the
//! same scan, then physically truncates the torn tail so the log is again
//! append-clean.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use gtinker_types::{Edge, EdgeBatch, UpdateOp};

use crate::format::{crc32, ByteReader, ByteWriter, PersistError, Result};

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"GTWAL001";

/// File extension of WAL segments.
pub const WAL_EXT: &str = "wal";

/// Bytes of a segment header (magic + first LSN).
pub const SEGMENT_HEADER_BYTES: u64 = 16;

/// When appended records are pushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never fsync; the OS flushes when it pleases. Fastest, loses the
    /// page-cache tail on power failure (but never on process crash).
    Never,
    /// `fdatasync` after every record. Each acknowledged batch survives
    /// power failure.
    EveryRecord,
    /// `fdatasync` every `n` records (group commit). `n = 0` is treated
    /// as 1.
    EveryN(u64),
}

/// Tuning for a [`WalWriter`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Rotate to a new segment once the current one exceeds this many
    /// bytes (the segment finishing the crossing record is kept whole).
    pub segment_bytes: u64,
    /// Sync policy for appended records.
    pub sync: SyncPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions { segment_bytes: 64 << 20, sync: SyncPolicy::EveryRecord }
    }
}

/// File name of the segment whose first record is `first_lsn`.
pub fn segment_file_name(first_lsn: u64) -> String {
    format!("wal-{first_lsn:016x}.{WAL_EXT}")
}

/// Lists WAL segments in `dir` as `(first_lsn, path)`, sorted by ascending
/// first LSN. A missing directory lists as empty.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix("wal-") else { continue };
        let Some(hex) = stem.strip_suffix(&format!(".{WAL_EXT}")) else { continue };
        let Ok(lsn) = u64::from_str_radix(hex, 16) else { continue };
        out.push((lsn, entry.path()));
    }
    out.sort_by_key(|&(lsn, _)| lsn);
    Ok(out)
}

/// Bytes of a record's frame: payload length, then payload CRC-32.
const RECORD_FRAME_BYTES: usize = 8;

/// Encodes one record (framing + payload) for `batch` at `lsn`, in one
/// buffer: the frame is reserved up front and patched once the payload
/// behind it is complete.
pub fn encode_record(lsn: u64, batch: &EdgeBatch) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(RECORD_FRAME_BYTES + 12 + batch.len() * 13);
    w.put_u64(0);
    w.put_u64(lsn);
    w.put_u32(batch.len() as u32);
    for op in batch.iter() {
        match *op {
            UpdateOp::Insert(e) => {
                w.put_u8(0);
                w.put_u32(e.src);
                w.put_u32(e.dst);
                w.put_u32(e.weight);
            }
            UpdateOp::Delete { src, dst } => {
                w.put_u8(1);
                w.put_u32(src);
                w.put_u32(dst);
            }
        }
    }
    let payload = &w.as_bytes()[RECORD_FRAME_BYTES..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    w.patch_u32(0, len);
    w.patch_u32(4, crc);
    w.into_bytes()
}

fn decode_payload(payload: &[u8]) -> Result<(u64, EdgeBatch)> {
    let mut r = ByteReader::new(payload);
    let lsn = r.u64("record lsn")?;
    let n = r.u32("op count")? as usize;
    let mut batch = EdgeBatch::with_capacity(n.min(payload.len() / 9 + 1));
    for _ in 0..n {
        match r.u8("op tag")? {
            0 => {
                let src = r.u32("insert src")?;
                let dst = r.u32("insert dst")?;
                let weight = r.u32("insert weight")?;
                batch.push_insert(Edge::new(src, dst, weight));
            }
            1 => {
                let src = r.u32("delete src")?;
                let dst = r.u32("delete dst")?;
                batch.push_delete(src, dst);
            }
            t => return Err(PersistError::Corrupt(format!("unknown op tag {t}"))),
        }
    }
    if r.remaining() != 0 {
        return Err(PersistError::Corrupt("trailing bytes in record payload".into()));
    }
    Ok((lsn, batch))
}

/// One replayed WAL record.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// Sequence number of the record.
    pub lsn: u64,
    /// The batch it carries.
    pub batch: EdgeBatch,
    /// Index into [`WalReplay::segments`] of the segment holding it.
    pub segment: usize,
    /// Byte offset within that segment just past this record.
    pub end_offset: u64,
}

/// A scanned segment.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// First LSN the header advertises.
    pub first_lsn: u64,
    /// Segment path.
    pub path: PathBuf,
    /// File length on disk.
    pub file_len: u64,
    /// Bytes verified valid (header + whole records); the writer truncates
    /// here on reopen.
    pub valid_len: u64,
}

/// Result of scanning a WAL directory.
#[derive(Debug, Clone)]
pub struct WalReplay {
    /// Valid records, in LSN order.
    pub records: Vec<WalRecord>,
    /// LSN the next appended record will get.
    pub next_lsn: u64,
    /// Whether a torn/corrupt tail was cut off (bytes — possibly whole
    /// segments — were ignored past the last valid record).
    pub truncated: bool,
    /// The segments scanned, in order, up to and including the one where
    /// scanning stopped.
    pub segments: Vec<SegmentInfo>,
}

/// Scans `dir` and returns the longest valid prefix of the log (see the
/// module docs for the prefix rule). Never fails on corruption — a corrupt
/// byte is where the log *ends*, not an error.
pub fn replay(dir: &Path) -> Result<WalReplay> {
    let mut out =
        WalReplay { records: Vec::new(), next_lsn: 0, truncated: false, segments: Vec::new() };
    let segments = list_segments(dir)?;
    let mut expected_lsn: Option<u64> = None;
    for (index, (name_lsn, path)) in segments.iter().enumerate() {
        let data = fs::read(path)?;
        let mut r = ByteReader::new(&data);
        let header_ok = r.bytes(8, "wal magic").map(|m| m == WAL_MAGIC).unwrap_or(false);
        let first_lsn = if header_ok { r.u64("first lsn").ok() } else { None };
        let first_lsn = match first_lsn {
            // The header must agree with the file name and continue the
            // sequence; otherwise the log ends at the previous segment.
            Some(l) if l == *name_lsn && expected_lsn.is_none_or(|e| e == l) => l,
            _ => {
                out.truncated = true;
                out.segments.push(SegmentInfo {
                    first_lsn: *name_lsn,
                    path: path.clone(),
                    file_len: data.len() as u64,
                    valid_len: 0,
                });
                return Ok(out);
            }
        };
        let mut lsn = first_lsn;
        let mut valid_len = SEGMENT_HEADER_BYTES;
        let mut torn = false;
        while r.remaining() > 0 {
            let rec = (|| -> Result<(u64, EdgeBatch)> {
                let len = r.u32("record length")? as usize;
                let crc = r.u32("record crc")?;
                let payload = r.bytes(len, "record payload")?;
                if crc32(payload) != crc {
                    return Err(PersistError::Corrupt("record checksum mismatch".into()));
                }
                decode_payload(payload)
            })();
            match rec {
                Ok((rec_lsn, batch)) if rec_lsn == lsn => {
                    valid_len = r.position() as u64;
                    out.records.push(WalRecord {
                        lsn,
                        batch,
                        segment: index,
                        end_offset: valid_len,
                    });
                    lsn += 1;
                }
                _ => {
                    torn = true;
                    break;
                }
            }
        }
        out.segments.push(SegmentInfo {
            first_lsn,
            path: path.clone(),
            file_len: data.len() as u64,
            valid_len,
        });
        out.next_lsn = lsn;
        expected_lsn = Some(lsn);
        if torn {
            out.truncated = true;
            if index + 1 < segments.len() {
                // Later segments exist but are unreachable past the tear.
                out.truncated = true;
            }
            return Ok(out);
        }
    }
    Ok(out)
}

/// Deletes segments made redundant by a snapshot at `keep_from_lsn`: a
/// segment may go once the *next* segment starts at or below that LSN
/// (every record in it is then folded into the snapshot). Returns the
/// number of segments removed.
pub fn prune_segments(dir: &Path, keep_from_lsn: u64) -> Result<usize> {
    let segments = list_segments(dir)?;
    let mut removed = 0;
    for pair in segments.windows(2) {
        let (_, ref path) = pair[0];
        let (next_first, _) = pair[1];
        if next_first <= keep_from_lsn {
            fs::remove_file(path)?;
            removed += 1;
        } else {
            break;
        }
    }
    Ok(removed)
}

/// Appender over a WAL directory.
pub struct WalWriter {
    dir: PathBuf,
    opts: WalOptions,
    file: fs::File,
    segment_path: PathBuf,
    segment_bytes_written: u64,
    segment_records: u64,
    next_lsn: u64,
    unsynced: u64,
}

impl WalWriter {
    /// Opens (or initializes) the log in `dir` and positions the writer
    /// after the last valid record: a torn tail is physically truncated,
    /// and segments past a tear are deleted, so the sequence is
    /// append-clean. Returns the writer and the scan it recovered from.
    pub fn open(dir: &Path, opts: WalOptions) -> Result<(Self, WalReplay)> {
        fs::create_dir_all(dir)?;
        let scan = replay(dir)?;
        // Cut the torn tail of the last valid segment...
        if let Some(last) = scan.segments.last() {
            if last.valid_len < last.file_len {
                if last.valid_len > 0 {
                    let f = fs::OpenOptions::new().write(true).open(&last.path)?;
                    f.set_len(last.valid_len)?;
                    f.sync_all()?;
                } else {
                    fs::remove_file(&last.path)?;
                }
            }
        }
        // ...and drop unreachable segments past the tear.
        for (first_lsn, path) in list_segments(dir)? {
            if first_lsn > scan.next_lsn {
                fs::remove_file(&path)?;
            }
        }
        let (file, segment_path, written, records) = match scan.segments.last() {
            Some(last) if last.valid_len > 0 => {
                let f = fs::OpenOptions::new().append(true).open(&last.path)?;
                let in_seg =
                    scan.records.iter().filter(|r| r.segment + 1 == scan.segments.len()).count();
                (f, last.path.clone(), last.valid_len, in_seg as u64)
            }
            _ => Self::create_segment(dir, scan.next_lsn)?,
        };
        let writer = WalWriter {
            dir: dir.to_path_buf(),
            opts,
            file,
            segment_path,
            segment_bytes_written: written,
            segment_records: records,
            next_lsn: scan.next_lsn,
            unsynced: 0,
        };
        Ok((writer, scan))
    }

    fn create_segment(dir: &Path, first_lsn: u64) -> Result<(fs::File, PathBuf, u64, u64)> {
        let path = dir.join(segment_file_name(first_lsn));
        let mut f = fs::OpenOptions::new().create(true).append(true).open(&path)?;
        let mut h = ByteWriter::with_capacity(SEGMENT_HEADER_BYTES as usize);
        h.put_bytes(WAL_MAGIC);
        h.put_u64(first_lsn);
        f.write_all(h.as_bytes())?;
        Ok((f, path, SEGMENT_HEADER_BYTES, 0))
    }

    /// LSN the next appended record will get (= records in the log).
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Path of the segment currently appended to.
    pub fn current_segment(&self) -> &Path {
        &self.segment_path
    }

    /// The WAL directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one batch as one record; returns its LSN. Honors the sync
    /// policy; rotates the segment first when the current one is past the
    /// size limit.
    pub fn append(&mut self, batch: &EdgeBatch) -> Result<u64> {
        let timer = gtinker_core::metrics::timer();
        let _t = gtinker_core::trace::span_arg(gtinker_core::SpanId::WalAppend, self.next_lsn);
        let lsn = self.next_lsn;
        let record = encode_record(lsn, batch);
        if self.segment_records > 0
            && self.segment_bytes_written + record.len() as u64 > self.opts.segment_bytes
        {
            self.rotate()?;
        }
        self.file.write_all(&record)?;
        self.segment_bytes_written += record.len() as u64;
        self.segment_records += 1;
        self.next_lsn += 1;
        self.unsynced += 1;
        let due = match self.opts.sync {
            SyncPolicy::Never => false,
            SyncPolicy::EveryRecord => true,
            SyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
        };
        if due {
            self.sync()?;
        }
        let m = gtinker_core::metrics::global();
        m.wal_appends.inc();
        m.wal_append_ns.record_since(timer);
        Ok(lsn)
    }

    /// Forces appended records to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        let timer = gtinker_core::metrics::timer();
        let _t = gtinker_core::trace::span(gtinker_core::SpanId::WalSync);
        self.file.sync_data()?;
        self.unsynced = 0;
        let m = gtinker_core::metrics::global();
        m.wal_syncs.inc();
        m.wal_sync_ns.record_since(timer);
        Ok(())
    }

    /// Restarts the log at `lsn`, deleting every existing segment. Used
    /// when a snapshot is *newer* than the surviving log (a torn tail cut
    /// records the snapshot had already folded in): the old records are
    /// all covered by the snapshot, and appending below the snapshot LSN
    /// would make future recoveries ignore the new records. No-op when
    /// `lsn` is not ahead of the writer.
    pub fn reset_to(&mut self, lsn: u64) -> Result<()> {
        if lsn <= self.next_lsn {
            return Ok(());
        }
        self.file.sync_data()?;
        for (_, path) in list_segments(&self.dir)? {
            fs::remove_file(&path)?;
        }
        let (file, path, written, records) = Self::create_segment(&self.dir, lsn)?;
        self.file = file;
        self.segment_path = path;
        self.segment_bytes_written = written;
        self.segment_records = records;
        self.next_lsn = lsn;
        self.unsynced = 0;
        Ok(())
    }

    fn rotate(&mut self) -> Result<()> {
        self.file.sync_data()?;
        let (file, path, written, records) = Self::create_segment(&self.dir, self.next_lsn)?;
        self.file = file;
        self.segment_path = path;
        self.segment_bytes_written = written;
        self.segment_records = records;
        Ok(())
    }
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("dir", &self.dir)
            .field("next_lsn", &self.next_lsn)
            .field("segment", &self.segment_path)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gtinker_wal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn batch(i: u32) -> EdgeBatch {
        let mut b = EdgeBatch::new();
        for j in 0..8 {
            b.push_insert(Edge::new(i, i * 10 + j, j + 1));
        }
        b.push_delete(i, i * 10);
        b
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let (mut w, scan) = WalWriter::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(scan.next_lsn, 0);
        for i in 0..10u32 {
            assert_eq!(w.append(&batch(i)).unwrap(), i as u64);
        }
        drop(w);
        let r = replay(&dir).unwrap();
        assert_eq!(r.next_lsn, 10);
        assert!(!r.truncated);
        assert_eq!(r.records.len(), 10);
        for (i, rec) in r.records.iter().enumerate() {
            assert_eq!(rec.lsn, i as u64);
            assert_eq!(rec.batch, batch(i as u32));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_replays_empty() {
        let dir = tmpdir("empty");
        let r = replay(&dir).unwrap();
        assert_eq!(r.next_lsn, 0);
        assert!(r.records.is_empty());
        assert!(!r.truncated);
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = tmpdir("rotate");
        let opts = WalOptions { segment_bytes: 200, sync: SyncPolicy::Never };
        let (mut w, _) = WalWriter::open(&dir, opts).unwrap();
        for i in 0..20u32 {
            w.append(&batch(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 1, "tiny segment limit must rotate, got {} segment(s)", segs.len());
        // Names encode the first LSN and are strictly increasing.
        for pair in segs.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
        let r = replay(&dir).unwrap();
        assert_eq!(r.records.len(), 20);
        assert!(!r.truncated);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_continues_the_sequence() {
        let dir = tmpdir("reopen");
        let opts = WalOptions { segment_bytes: 300, sync: SyncPolicy::Never };
        let (mut w, _) = WalWriter::open(&dir, opts).unwrap();
        for i in 0..5u32 {
            w.append(&batch(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let (mut w, scan) = WalWriter::open(&dir, opts).unwrap();
        assert_eq!(scan.next_lsn, 5);
        for i in 5..12u32 {
            assert_eq!(w.append(&batch(i)).unwrap(), i as u64);
        }
        w.sync().unwrap();
        drop(w);
        let r = replay(&dir).unwrap();
        assert_eq!(r.records.len(), 12);
        assert!(!r.truncated);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let dir = tmpdir("torn");
        let opts = WalOptions { segment_bytes: 1 << 20, sync: SyncPolicy::Never };
        let (mut w, _) = WalWriter::open(&dir, opts).unwrap();
        for i in 0..6u32 {
            w.append(&batch(i)).unwrap();
        }
        w.sync().unwrap();
        let seg = w.current_segment().to_path_buf();
        drop(w);
        // Tear 5 bytes off the tail: the last record is now invalid.
        let len = fs::metadata(&seg).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let r = replay(&dir).unwrap();
        assert!(r.truncated);
        assert_eq!(r.records.len(), 5);
        assert_eq!(r.next_lsn, 5);
        // Reopening truncates and continues at LSN 5.
        let (mut w, scan) = WalWriter::open(&dir, opts).unwrap();
        assert_eq!(scan.next_lsn, 5);
        w.append(&batch(5)).unwrap();
        w.sync().unwrap();
        drop(w);
        let r = replay(&dir).unwrap();
        assert!(!r.truncated, "reopen must leave an append-clean log");
        assert_eq!(r.records.len(), 6);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_ends_the_log_at_the_flipped_record() {
        let dir = tmpdir("flip");
        let opts = WalOptions { segment_bytes: 1 << 20, sync: SyncPolicy::Never };
        let (mut w, _) = WalWriter::open(&dir, opts).unwrap();
        let mut third_record_start = 0;
        for i in 0..8u32 {
            if i == 3 {
                third_record_start = fs::metadata(w.current_segment()).unwrap().len();
            }
            w.append(&batch(i)).unwrap();
            w.sync().unwrap();
        }
        let seg = w.current_segment().to_path_buf();
        drop(w);
        let mut data = fs::read(&seg).unwrap();
        let idx = third_record_start as usize + 20; // inside record 3's payload
        data[idx] ^= 0x40;
        fs::write(&seg, &data).unwrap();
        let r = replay(&dir).unwrap();
        assert!(r.truncated);
        assert_eq!(r.records.len(), 3, "records 0..3 valid, 3.. cut at the flip");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_middle_segment_hides_later_segments() {
        let dir = tmpdir("midseg");
        let opts = WalOptions { segment_bytes: 150, sync: SyncPolicy::Never };
        let (mut w, _) = WalWriter::open(&dir, opts).unwrap();
        for i in 0..20u32 {
            w.append(&batch(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 3, "need >= 3 segments, got {}", segs.len());
        // Corrupt the second segment's header magic.
        let mid = &segs[1].1;
        let mut data = fs::read(mid).unwrap();
        data[0] ^= 0xFF;
        fs::write(mid, &data).unwrap();
        let r = replay(&dir).unwrap();
        assert!(r.truncated);
        let first_seg_records = r.records.iter().filter(|rec| rec.segment == 0).count();
        assert_eq!(r.records.len(), first_seg_records, "no record past the bad segment applies");
        assert!(r.next_lsn < 20);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_removes_only_covered_segments() {
        let dir = tmpdir("prune");
        let opts = WalOptions { segment_bytes: 150, sync: SyncPolicy::Never };
        let (mut w, _) = WalWriter::open(&dir, opts).unwrap();
        for i in 0..20u32 {
            w.append(&batch(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let before = list_segments(&dir).unwrap();
        assert!(before.len() >= 3);
        // A snapshot at the last segment's first LSN covers all earlier ones.
        let keep_from = before.last().unwrap().0;
        let removed = prune_segments(&dir, keep_from).unwrap();
        assert_eq!(removed, before.len() - 1);
        let r = replay(&dir).unwrap();
        assert!(!r.truncated, "pruned log must stay valid");
        assert_eq!(r.next_lsn, 20);
        assert!(r.records.iter().all(|rec| rec.lsn >= keep_from));
        // Pruning at LSN 0 removes nothing.
        assert_eq!(prune_segments(&dir, 0).unwrap(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_policies_accepted() {
        for sync in [SyncPolicy::Never, SyncPolicy::EveryRecord, SyncPolicy::EveryN(3)] {
            let dir = tmpdir(&format!("sync_{sync:?}").replace(['(', ')', ' '], "_"));
            let (mut w, _) =
                WalWriter::open(&dir, WalOptions { segment_bytes: 1 << 20, sync }).unwrap();
            for i in 0..7u32 {
                w.append(&batch(i)).unwrap();
            }
            drop(w);
            assert_eq!(replay(&dir).unwrap().records.len(), 7);
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn record_encoding_roundtrips_ops_exactly() {
        let mut b = EdgeBatch::new();
        b.push_insert(Edge::new(u32::MAX - 1, 0, u32::MAX));
        b.push_delete(7, 9);
        b.push_insert(Edge::new(1, 1, 0));
        let rec = encode_record(99, &b);
        let mut r = ByteReader::new(&rec);
        let len = r.u32("len").unwrap() as usize;
        let crc = r.u32("crc").unwrap();
        let payload = r.bytes(len, "payload").unwrap();
        assert_eq!(crc32(payload), crc);
        let (lsn, back) = decode_payload(payload).unwrap();
        assert_eq!(lsn, 99);
        assert_eq!(back, b);
    }

    #[test]
    fn record_bytes_are_the_format_not_the_encoder() {
        // Captured from the two-buffer encoder this one replaced (and
        // re-derived by hand: len, CRC-32, lsn, count, then tagged ops).
        const GOLDEN: &str = "2f00000041aa3db9080706050403020103000000\
                              0001000000020000000300000001070000000900000000\
                              feffffff00000000ffffffff";
        let mut b = EdgeBatch::new();
        b.push_insert(Edge::new(1, 2, 3));
        b.push_delete(7, 9);
        b.push_insert(Edge::new(u32::MAX - 1, 0, u32::MAX));
        let rec = encode_record(0x0102_0304_0506_0708, &b);
        let hex: String = rec.iter().map(|x| format!("{x:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        // An empty batch is a frame around lsn + count.
        let empty = encode_record(1, &EdgeBatch::new());
        assert_eq!(empty.len(), RECORD_FRAME_BYTES + 12);
        assert_eq!(&empty[..4], &12u32.to_le_bytes());
        assert_eq!(&empty[4..8], &crc32(&empty[8..]).to_le_bytes());
    }
}
