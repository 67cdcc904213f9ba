//! Crash-recovery correctness: for a random insert/delete stream logged
//! through `DurableTinker` — snapshot taken mid-stream — a crash at *any*
//! byte of the write-ahead log recovers exactly the acknowledged prefix:
//! the recovered store's edge set, BFS levels, and CC labels equal an
//! uninterrupted in-memory store fed the same batches (DESIGN.md §6
//! recovery invariants).
//!
//! Crashes are simulated deterministically with the `gtinker-persist`
//! fault injector: the segment holding the crash offset is truncated
//! there and every later segment is deleted (a real crash never creates
//! files it hadn't reached). Bit flips model silent media corruption; the
//! prefix rule must discard the flipped record *and* everything after it.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use gtinker_core::{ApplyBatch, GraphStore, GraphTinker, ParallelTinker, StructureStats};
use gtinker_engine::{
    algorithms::{Bfs, Cc},
    Engine, ModePolicy,
};
use gtinker_integration::{assert_shards_valid, assert_valid};
use gtinker_persist::snapshot::decode_tinker;
use gtinker_persist::{
    corrupt_file, crc32, list_segments, list_snapshots, recover_tinker, replay, DurableTinker,
    Fault, PersistError, SyncPolicy, WalOptions,
};
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig, UpdateOp};
use proptest::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "gtinker_crash_{tag}_{}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for e in fs::read_dir(src).unwrap() {
        let e = e.unwrap();
        fs::copy(e.path(), dst.join(e.file_name())).unwrap();
    }
}

/// The WAL's byte layout, segments concatenated in order: for each valid
/// record, its LSN and the global offset just past it.
struct WalLayout {
    /// `(first_lsn, path, base_offset, file_len, record spans)` per segment.
    segments: Vec<SegmentLayout>,
    /// `(lsn, global_end)` per valid record.
    record_ends: Vec<(u64, u64)>,
    total_bytes: u64,
}

struct SegmentLayout {
    path: PathBuf,
    base: u64,
    file_len: u64,
    /// `(lsn, local_start, local_end)` of each record in this segment.
    records: Vec<(u64, u64, u64)>,
}

fn wal_layout(dir: &Path) -> WalLayout {
    let scan = replay(dir).unwrap();
    assert!(!scan.truncated, "pristine log must be clean");
    let mut segments = Vec::new();
    let mut record_ends = Vec::new();
    let mut base = 0u64;
    for (i, seg) in scan.segments.iter().enumerate() {
        let mut records = Vec::new();
        let mut start = 16u64; // segment header
        for r in scan.records.iter().filter(|r| r.segment == i) {
            records.push((r.lsn, start, r.end_offset));
            record_ends.push((r.lsn, base + r.end_offset));
            start = r.end_offset;
        }
        segments.push(SegmentLayout {
            path: seg.path.clone(),
            base,
            file_len: seg.file_len,
            records,
        });
        base += seg.file_len;
    }
    WalLayout { segments, record_ends, total_bytes: base }
}

/// Simulates power loss at global WAL offset `at`: the segment holding it
/// is truncated there, later segments never existed.
fn crash_at(layout: &WalLayout, dir: &Path, at: u64) {
    for seg in &layout.segments {
        let name = seg.path.file_name().unwrap();
        let local = dir.join(name);
        if at <= seg.base {
            fs::remove_file(&local).unwrap();
        } else if at < seg.base + seg.file_len {
            corrupt_file(&local, Fault::Truncate { at: at - seg.base }).unwrap();
        }
    }
}

/// Batches the recovered store must equal after a crash at `at`:
/// everything the snapshot covers, plus the longest valid record prefix
/// wholly before the crash point.
fn expected_batches(layout: &WalLayout, snapshot_lsn: u64, at: u64) -> u64 {
    let prefix = layout
        .record_ends
        .iter()
        .take_while(|&&(_, end)| end <= at)
        .last()
        .map(|&(lsn, _)| lsn + 1)
        .unwrap_or(0);
    prefix.max(snapshot_lsn)
}

/// Ground truth: an uninterrupted in-memory store fed `batches[..n]`.
fn truth_store(cfg: TinkerConfig, batches: &[EdgeBatch], n: u64) -> GraphTinker {
    let mut g = GraphTinker::new(cfg).unwrap();
    for b in &batches[..n as usize] {
        g.apply_batch(b);
        assert_valid(&g, "truth store");
    }
    g
}

fn edge_set(g: &GraphTinker) -> Vec<(u32, u32, u32)> {
    let mut v = Vec::new();
    g.for_each_edge_main(|s, d, w| v.push((s, d, w)));
    v.sort_unstable();
    v
}

fn bfs_levels(g: &GraphTinker, root: u32) -> Vec<u32> {
    let mut e = Engine::new(Bfs::new(root), ModePolicy::AlwaysFull);
    e.run_from_roots(g);
    e.values().to_vec()
}

fn cc_labels(g: &GraphTinker) -> Vec<u32> {
    let mut e = Engine::new(Cc::new(), ModePolicy::AlwaysFull);
    e.run_from_roots(g);
    e.values().to_vec()
}

/// Recovers `dir` and checks full equivalence against the uninterrupted
/// store: edge set, replayed-record accounting, BFS and CC outputs.
fn assert_recovers_to(dir: &Path, cfg: TinkerConfig, batches: &[EdgeBatch], n: u64, ctx: &str) {
    let (recovered, report) = recover_tinker(dir, cfg).unwrap();
    assert_valid(&recovered, ctx);
    let truth = truth_store(cfg, batches, n);
    assert_eq!(
        report.snapshot_lsn + report.replayed_records,
        n,
        "{ctx}: acknowledged prefix must be fully replayed ({report:?})"
    );
    assert_eq!(recovered.num_edges(), truth.num_edges(), "{ctx}");
    assert_eq!(edge_set(&recovered), edge_set(&truth), "{ctx}: edge sets differ");
    let root = batches.first().and_then(|b| b.ops().first()).map(|op| op.src()).unwrap_or(0);
    assert_eq!(bfs_levels(&recovered, root), bfs_levels(&truth, root), "{ctx}: BFS differs");
    assert_eq!(cc_labels(&recovered), cc_labels(&truth), "{ctx}: CC differs");
}

/// Builds the persistence directory: log `batches` through a
/// `DurableTinker` of `shards` shards, snapshotting after batch
/// `snap_after` (if any). Returns the directory and the effective
/// snapshot LSN.
fn build_dir(
    tag: &str,
    cfg: TinkerConfig,
    shards: usize,
    batches: &[EdgeBatch],
    snap_after: Option<u64>,
) -> (PathBuf, u64) {
    let dir = fresh_dir(tag);
    // Tiny segments force rotation so crashes span segment boundaries.
    let opts = WalOptions { segment_bytes: 300, sync: SyncPolicy::Never };
    let (mut d, _) = DurableTinker::open(&dir, cfg, opts, shards).unwrap();
    let mut snap_lsn = 0;
    for (i, b) in batches.iter().enumerate() {
        d.apply_batch(b.clone()).unwrap();
        assert_shards_valid(d.store().as_ref(), "durable store");
        if snap_after == Some(i as u64) {
            d.snapshot().unwrap();
            snap_lsn = d.next_lsn();
        }
    }
    d.sync().unwrap();
    drop(d);
    (dir, snap_lsn)
}

fn ops_to_batches(ops: &[(bool, u32, u32, u32)], batch_size: usize) -> Vec<EdgeBatch> {
    ops.chunks(batch_size.max(1))
        .map(|chunk| {
            let mut b = EdgeBatch::new();
            for &(ins, s, dd, w) in chunk {
                if ins {
                    b.push_insert(Edge::new(s, dd, w));
                } else {
                    b.push_delete(s, dd);
                }
            }
            b
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random stream, random mid-stream snapshot point, random crash
    /// offsets (plus the boundary-adjacent ones): recovery always equals
    /// the uninterrupted store over the surviving prefix, in both delete
    /// modes.
    #[test]
    fn crash_anywhere_recovers_acknowledged_prefix(
        ops in prop::collection::vec(
            (any::<bool>(), 0..24u32, 0..24u32, 1..50u32), 40..160),
        batch_size in 8..24usize,
        snap_permille in 0..1000u64,
        compact in any::<bool>(),
        shards in 1..3usize,
        crash_permille in prop::collection::vec(0..1000u64, 3..8),
    ) {
        let mode = if compact { DeleteMode::DeleteAndCompact } else { DeleteMode::DeleteOnly };
        let cfg = TinkerConfig { pagewidth: 16, subblock: 8, workblock: 4, ..TinkerConfig::default() }
            .delete_mode(mode);
        let batches = ops_to_batches(&ops, batch_size);
        let n = batches.len() as u64;
        let snap_after = (snap_permille * n / 1000).min(n - 1);
        let (dir, snap_lsn) = build_dir("prop", cfg, shards, &batches, Some(snap_after));
        let layout = wal_layout(&dir);
        prop_assert_eq!(snap_lsn, snap_after + 1);

        // Fractional offsets from the strategy, plus every record
        // boundary +/- 1 byte (the off-by-one hot spots), plus the ends.
        let mut offsets: Vec<u64> = crash_permille
            .iter()
            .map(|f| f * layout.total_bytes / 1000)
            .collect();
        for &(_, end) in &layout.record_ends {
            offsets.extend_from_slice(&[end.saturating_sub(1), end, end + 1]);
        }
        offsets.push(0);
        offsets.push(layout.total_bytes);
        offsets.sort_unstable();
        offsets.dedup();

        for at in offsets {
            let crashed = fresh_dir("prop_c");
            copy_dir(&dir, &crashed);
            crash_at(&layout, &crashed, at);
            let expected = expected_batches(&layout, snap_lsn, at);
            assert_recovers_to(&crashed, cfg, &batches, expected,
                &format!("crash at byte {at}/{}", layout.total_bytes));
            fs::remove_dir_all(&crashed).ok();
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A flipped bit anywhere in the log is detected, and the prefix rule
    /// discards the damaged record and everything after it — even records
    /// whose own checksums are intact.
    #[test]
    fn bit_flip_anywhere_keeps_the_prefix_exact(
        ops in prop::collection::vec(
            (any::<bool>(), 0..16u32, 0..16u32, 1..50u32), 40..120),
        flip_permille in 0..1000u64,
        flip_bit in 0..8u32,
        compact in any::<bool>(),
        shards in 1..3usize,
    ) {
        let mode = if compact { DeleteMode::DeleteAndCompact } else { DeleteMode::DeleteOnly };
        let cfg = TinkerConfig::default().delete_mode(mode);
        let batches = ops_to_batches(&ops, 10);
        let (dir, snap_lsn) = build_dir("flip", cfg, shards, &batches, Some(1));
        prop_assert_eq!(snap_lsn, 2);
        let layout = wal_layout(&dir);
        let at = (flip_permille * layout.total_bytes / 1000).min(layout.total_bytes - 1);

        // The damaged unit: the record containing `at`, or the whole
        // segment if `at` lands in its header. Valid prefix = records
        // wholly before the unit.
        let seg = layout
            .segments
            .iter()
            .rev()
            .find(|s| s.base <= at)
            .expect("offset inside some segment");
        let local = at - seg.base;
        let unit_start = seg
            .records
            .iter()
            .find(|&&(_, start, end)| start <= local && local < end)
            .map(|&(_, start, _)| seg.base + start)
            .unwrap_or(seg.base);
        let expected = expected_batches(&layout, snap_lsn, unit_start);

        let name = seg.path.file_name().unwrap();
        corrupt_file(&dir.join(name), Fault::BitFlip { at: local, bit: flip_bit as u8 }).unwrap();
        assert_recovers_to(&dir, cfg, &batches, expected,
            &format!("bit {flip_bit} flipped at byte {at}"));
        fs::remove_dir_all(&dir).ok();
    }
}

/// Deterministic dense sweep: one fixed stream with a mid-stream snapshot,
/// crashed at a fine grid of byte offsets across the whole log.
#[test]
fn dense_crash_sweep_fixed_stream() {
    // Default tiers, then the paper's fixed layout.
    for base in [TinkerConfig::default(), TinkerConfig::paper()] {
        let cfg = TinkerConfig { pagewidth: 16, subblock: 8, workblock: 4, ..base };
        let mut ops = Vec::new();
        for i in 0..120u32 {
            ops.push((i % 5 != 0, i * 7 % 19, i * 11 % 23, i % 40 + 1));
        }
        let batches = ops_to_batches(&ops, 12);
        for shards in [1, 2] {
            let (dir, snap_lsn) = build_dir("dense", cfg, shards, &batches, Some(4));
            let layout = wal_layout(&dir);
            assert!(layout.segments.len() > 1, "sweep should cross segment boundaries");
            for at in (0..=layout.total_bytes).step_by(5) {
                let crashed = fresh_dir("dense_c");
                copy_dir(&dir, &crashed);
                crash_at(&layout, &crashed, at);
                let expected = expected_batches(&layout, snap_lsn, at);
                let ctx = format!("dense crash at {at}, {shards} shard(s)");
                assert_recovers_to(&crashed, cfg, &batches, expected, &ctx);
                fs::remove_dir_all(&crashed).ok();
            }
            fs::remove_dir_all(&dir).ok();
        }
    }
}

/// One hub source (200 edges, then 120 deletes: lazy dead slots and a
/// forced compaction) plus a tail of small sources.
fn hub_stream() -> Vec<EdgeBatch> {
    let mut ops: Vec<(bool, u32, u32, u32)> =
        (0..200u32).map(|d| (true, 0, d + 1, d + 1)).collect();
    ops.extend((0..40u32).map(|i| (true, i % 9 + 1, i + 300, 1)));
    ops.extend((0..120u32).map(|d| (false, 0, d * 3 % 200 + 1, 0)));
    ops_to_batches(&ops, 32)
}

/// A snapshot carries the layout it was written with: an image of a
/// paper-layout store decodes with tiering off even though the caller's
/// fallback config (used only for an empty directory) is the tiered
/// default, and the WAL suffix replays into that fixed geometry.
#[test]
fn paper_layout_snapshot_decodes_with_tiering_off() {
    let batches = hub_stream();
    let n = batches.len() as u64;
    let (dir, snap_lsn) = build_dir("papersnap", TinkerConfig::paper(), 2, &batches, Some(n / 2));
    assert!(snap_lsn > 0 && snap_lsn < n);
    let (g, report) = recover_tinker(&dir, TinkerConfig::default()).unwrap();
    assert_eq!(report.snapshot_lsn, snap_lsn);
    assert_valid(&g, "paper-layout snapshot");
    assert_eq!(*g.config(), TinkerConfig::paper());
    let st = g.structure_stats();
    assert_eq!((st.tier_inline_vertices, st.tier_hub_vertices, st.tier_promotions), (0, 0, 0));
    assert_eq!(edge_set(&g), edge_set(&truth_store(TinkerConfig::paper(), &batches, n)));
    fs::remove_dir_all(&dir).ok();
}

/// A snapshot image with its CONFIG payload (the first section: tag,
/// `u64` length, payload, CRC-32, after the 17-byte header) rewritten by
/// `edit` and re-framed.
fn with_config_payload(image: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    const AT: usize = 8 + 1 + 8;
    assert_eq!(image[AT], 1, "CONFIG is the first section");
    let len = u64::from_le_bytes(image[AT + 1..AT + 9].try_into().unwrap()) as usize;
    let mut payload = image[AT + 9..AT + 9 + len].to_vec();
    edit(&mut payload);
    let mut out = image[..AT + 1].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&image[AT + 9 + len + 4..]);
    out
}

/// The CONFIG payload has one layout, the 65 bytes the encoder writes. A
/// shorter payload (the first release's ended before the tier thresholds)
/// or a longer one (a later release appended a word it stopped writing
/// again) is corrupt, and recovery falls back to the older snapshot plus
/// the log behind it.
#[test]
fn config_payload_of_any_other_length_is_corrupt_and_recovery_falls_back() {
    let batches = hub_stream();
    let n = batches.len() as u64;
    let cfg = TinkerConfig::default();
    let dir = fresh_dir("cfglen");
    let (mut d, _) = DurableTinker::open(&dir, cfg, WalOptions::default(), 2).unwrap();
    for (i, b) in batches.iter().enumerate() {
        d.apply_batch(b.clone()).unwrap();
        if i as u64 + 1 == n / 2 || i as u64 + 1 == n {
            d.snapshot().unwrap();
        }
    }
    drop(d);
    let newest = list_snapshots(&dir).unwrap().pop().unwrap();
    assert_eq!(newest.lsn, n);
    let image = fs::read(&newest.path).unwrap();
    assert!(decode_tinker(&image).is_ok());
    // The first release's length (no tier thresholds), one byte short, one
    // byte long, and the retired trailing word.
    for len in [65 - 24, 64, 66, 65 + 8] {
        let name = format!("CONFIG of {len} bytes");
        let bytes = with_config_payload(&image, |p| p.resize(len, 0));
        let e = decode_tinker(&bytes).expect_err(&name);
        assert!(matches!(e, PersistError::Corrupt(_)), "{name}: {e}");
        fs::write(&newest.path, &bytes).unwrap();
        let (g, report) = recover_tinker(&dir, cfg).unwrap();
        assert_eq!(report.snapshots_skipped, 1, "{name}");
        assert_eq!((report.snapshot_lsn, report.replayed_records), (n / 2, n - n / 2), "{name}");
        assert_eq!(edge_set(&g), edge_set(&truth_store(cfg, &batches, n)), "{name}");
    }
    fs::remove_dir_all(&dir).ok();
}

fn sharded_edge_set(d: &DurableTinker) -> Vec<(u32, u32, u32)> {
    let mut v = Vec::new();
    d.store().stream_edges(|s, dst, w| v.push((s, dst, w)));
    v.sort_unstable();
    v
}

/// A directory is not tied to the shard count that wrote it: half a
/// stream at 2 shards with a snapshot, the rest at 3, then a reopen at 1 —
/// the edge set, every out-degree and a BFS equal the uninterrupted store
/// each time.
#[test]
fn resume_across_shard_counts_matches_the_model() {
    let cfg = TinkerConfig { pagewidth: 16, subblock: 8, workblock: 4, ..TinkerConfig::default() };
    let ops: Vec<(bool, u32, u32, u32)> =
        (0..400u32).map(|i| (i % 6 != 0, i * 7 % 31, i * 11 % 37, i % 40 + 1)).collect();
    let batches = ops_to_batches(&ops, 16);
    let n = batches.len();
    let dir = fresh_dir("reshard");
    let opts = WalOptions { segment_bytes: 300, sync: SyncPolicy::Never };
    for (shards, range, snap_at) in
        [(2, 0..n / 2, Some(n / 4)), (3, n / 2..n, None), (1, n..n, None)]
    {
        let (mut d, report) = DurableTinker::open(&dir, cfg, opts, shards).unwrap();
        assert_eq!(report.next_lsn, range.start as u64, "{shards} shards resume the log");
        for i in range.clone() {
            d.apply_batch(batches[i].clone()).unwrap();
            if snap_at == Some(i) {
                d.snapshot().unwrap();
            }
        }
        d.sync().unwrap();
        let truth = truth_store(cfg, &batches, range.end as u64);
        let ctx = format!("{shards} shards after batch {}", range.end);
        assert_shards_valid(d.store().as_ref(), &ctx);
        assert_eq!(d.store().num_shards(), shards);
        assert_eq!(sharded_edge_set(&d), edge_set(&truth), "{ctx}");
        assert_eq!(d.store().vertex_space(), truth.vertex_space(), "{ctx}");
        for v in 0..truth.vertex_space() {
            assert_eq!(d.store().out_degree(v), truth.out_degree(v), "{ctx}: degree of {v}");
        }
        let mut e = Engine::new(Bfs::new(0), ModePolicy::AlwaysFull);
        e.run_from_roots(&**d.store());
        assert_eq!(e.values(), bfs_levels(&truth, 0), "{ctx}: BFS differs");
    }
    fs::remove_dir_all(&dir).ok();
}

/// An image written at N shards and restored at N gives every shard its
/// own SGH arrival order back (so dense ids, CAL grouping and stream order
/// are the ones it had), and the same image restores into one store.
#[test]
fn image_written_at_n_shards_restores_each_shards_source_order() {
    let mut batches = hub_stream();
    let spread: Vec<(bool, u32, u32, u32)> =
        (0..240u32).map(|i| (i % 7 != 0, i * 7 % 41, i % 19 + 500, i + 1)).collect();
    batches.extend(ops_to_batches(&spread, 32));
    let n = batches.len() as u64;
    let dir = fresh_dir("shardorder");
    let cfg = TinkerConfig::default();
    let (mut d, _) = DurableTinker::open(&dir, cfg, WalOptions::default(), 3).unwrap();
    for b in &batches {
        d.apply_batch(b.clone()).unwrap();
    }
    d.snapshot().unwrap();
    let per_shard = |d: &DurableTinker| -> Vec<_> {
        (0..3).map(|i| d.store().with_shard(i, |g| (g.sources(), edge_set(g)))).collect()
    };
    let written = per_shard(&d);
    assert!(written.iter().all(|(sources, _)| !sources.is_empty()), "every shard holds sources");
    drop(d);
    let (d, report) = DurableTinker::open(&dir, cfg, WalOptions::default(), 3).unwrap();
    assert_eq!((report.snapshot_lsn, report.replayed_records), (n, 0));
    assert_eq!(per_shard(&d), written);
    assert_shards_valid(d.store().as_ref(), "restored at the written shard count");
    drop(d);
    let (g, _) = recover_tinker(&dir, cfg).unwrap();
    assert_valid(&g, "3-shard image into one store");
    let concatenated: Vec<u32> = written.iter().flat_map(|(s, _)| s.clone()).collect();
    assert_eq!(g.sources(), concatenated);
    assert_eq!(edge_set(&g), edge_set(&truth_store(cfg, &batches, n)));
    fs::remove_dir_all(&dir).ok();
}

/// With no snapshot the recovered store takes the caller's config — the
/// tiered default — and a replay that promotes a hub and lazily deletes
/// from it leaves every invariant `recover --validate` checks intact.
#[test]
fn wal_only_recovery_takes_the_default_layout_and_validates() {
    let batches = hub_stream();
    let n = batches.len() as u64;
    let (dir, _) = build_dir("walonly", TinkerConfig::default(), 2, &batches, None);
    let (g, report) = recover_tinker(&dir, TinkerConfig::default()).unwrap();
    assert_eq!((report.snapshot_lsn, report.replayed_records), (0, n));
    assert_eq!(*g.config(), TinkerConfig::default());
    let st = g.structure_stats();
    assert_eq!(st.tier_hub_vertices, 1, "{st:?}");
    assert!(st.tier_inline_vertices > 0, "{st:?}");
    assert_valid(&g, "WAL-only recovery");
    assert_eq!(edge_set(&g), edge_set(&truth_store(TinkerConfig::paper(), &batches, n)));
    fs::remove_dir_all(&dir).ok();
}

/// A crash while *writing the snapshot* leaves only the `.tmp` file, which
/// recovery ignores; the WAL alone reconstructs everything.
#[test]
fn crash_during_snapshot_publish_is_harmless() {
    let cfg = TinkerConfig::default();
    let ops: Vec<(bool, u32, u32, u32)> =
        (0..80u32).map(|i| (true, i % 13, i % 17, i + 1)).collect();
    let batches = ops_to_batches(&ops, 10);
    let (dir, _) = build_dir("tmpsnap", cfg, 1, &batches, None);
    // A torn half-written snapshot image under the temporary name.
    fs::write(dir.join("snap-0000000000000008.tmp"), b"GTSNAP01 partial garbage").unwrap();
    let n = batches.len() as u64;
    assert_recovers_to(&dir, cfg, &batches, n, "torn .tmp snapshot present");
    fs::remove_dir_all(&dir).ok();
}

/// Segment files deleted out from under the store (operator error) at the
/// front are covered by the snapshot; recovery still matches.
#[test]
fn pruned_log_with_snapshot_recovers() {
    let cfg = TinkerConfig::default();
    let ops: Vec<(bool, u32, u32, u32)> =
        (0..120u32).map(|i| (i % 7 != 0, i % 11, i % 19, i + 1)).collect();
    let batches = ops_to_batches(&ops, 8);
    let (dir, snap_lsn) = build_dir("pruned", cfg, 1, &batches, Some(batches.len() as u64 - 2));
    // Snapshot pruning already removed covered segments; what remains must
    // still recover to the full stream.
    let n = batches.len() as u64;
    assert!(snap_lsn < n);
    assert!(!list_segments(&dir).unwrap().is_empty());
    assert_recovers_to(&dir, cfg, &batches, n, "pruned log");
    fs::remove_dir_all(&dir).ok();
}

/// What a grouped tail replay must share with the arrival-order one: the
/// edges with their weights, every count and degree, each vertex's tier
/// and the tier moves. Dense ids, page classes and CAL positions are left
/// out on purpose.
#[derive(Debug, Clone, PartialEq)]
struct Logical {
    edges: Vec<(u32, u32, u32)>,
    num_edges: u64,
    vertex_space: u32,
    /// `(source, out_degree)`, sorted by source.
    degrees: Vec<(u32, u32)>,
    /// Vertices in the inline, blocks and hub tiers.
    tiers: [usize; 3],
    /// Tier promotions and demotions.
    moves: (u64, u64),
}

impl Logical {
    /// Assembles the view from each shard's `(sources, structure stats)`.
    fn new(
        shards: Vec<(Vec<u32>, StructureStats)>,
        edges: Vec<(u32, u32, u32)>,
        num_edges: u64,
        vertex_space: u32,
        degree: impl Fn(u32) -> u32,
    ) -> Logical {
        let (mut tiers, mut moves) = ([0; 3], (0, 0));
        let mut sources = Vec::new();
        for (shard_sources, st) in shards {
            sources.extend(shard_sources);
            tiers[0] += st.tier_inline_vertices;
            tiers[1] += st.tier_blocks_vertices;
            tiers[2] += st.tier_hub_vertices;
            moves.0 += st.tier_promotions;
            moves.1 += st.tier_demotions;
        }
        sources.sort_unstable();
        let degrees = sources.into_iter().map(|s| (s, degree(s))).collect();
        Logical { edges, num_edges, vertex_space, degrees, tiers, moves }
    }

    fn of(g: &GraphTinker) -> Logical {
        assert_valid(g, "logical view");
        let shards = vec![(g.sources(), g.structure_stats())];
        Logical::new(shards, edge_set(g), g.num_edges(), g.vertex_space(), |s| g.out_degree(s))
    }

    fn of_durable(d: &DurableTinker) -> Logical {
        Logical::of_sharded(d.store())
    }

    fn of_sharded(store: &ParallelTinker) -> Logical {
        assert_shards_valid(store, "logical view");
        let shards = (0..store.num_shards())
            .map(|i| store.with_shard(i, |g| (g.sources(), g.structure_stats())))
            .collect();
        let mut edges = Vec::new();
        store.stream_edges(|s, dst, w| edges.push((s, dst, w)));
        edges.sort_unstable();
        let (live, space) = (store.num_edges(), store.vertex_space());
        Logical::new(shards, edges, live, space, |s| store.out_degree(s))
    }
}

/// Twelve records over three kinds of source. Forty small sources rotate
/// over eight destinations, so every record re-inserts keys of earlier
/// records with new weights; from record 4 on each also deletes a key, and
/// from record 8 on every third re-inserts the key it deleted one record
/// earlier. Source 5000 takes 150 edges over records 5–7 (a hub under
/// `default()`) and loses 120 of them over records 8–10, below
/// `hub_demote`. Source `u32::MAX - 1` and destination `u32::MAX - 1` come
/// and go. Records 0–3 only insert, so a snapshot after them holds no
/// vertex inside a tier's hysteresis band.
fn grouping_stream() -> Vec<EdgeBatch> {
    const HUB: u32 = 5000;
    const TOP: u32 = u32::MAX - 1;
    (0..12u32)
        .map(|r| {
            let mut b = EdgeBatch::new();
            for s in 1..=40u32 {
                b.push_insert(Edge::new(s, 1000 + (s + r) % 8, r * 100 + s));
                b.push_insert(Edge::new(s, 1000 + (s + 3 * r) % 8, r * 100 + s + 50));
                if r >= 4 {
                    b.push_delete(s, 1000 + (s + 5 * r) % 8);
                }
                if r >= 8 && s % 3 == 0 {
                    b.push_insert(Edge::new(s, 1000 + (s + 5 * (r - 1)) % 8, 7777 + r));
                }
            }
            if (5..8).contains(&r) {
                for d in 0..50 {
                    b.push_insert(Edge::new(HUB, 2000 + (r - 5) * 50 + d, d + 1));
                }
            }
            if (8..11).contains(&r) {
                for d in 0..40 {
                    b.push_delete(HUB, 2000 + (r - 8) * 40 + d);
                }
            }
            match r {
                1 => b.push_insert(Edge::new(TOP, 3, 1)),
                3 => b.push_insert(Edge::new(7, TOP, 2)),
                6 => b.push_insert(Edge::new(TOP, 4, 3)),
                9 => b.push_delete(TOP, 3),
                10 => b.push_insert(Edge::new(TOP, 4, 9)),
                11 => b.push_delete(7, TOP),
                _ => {}
            }
            b
        })
        .collect()
}

/// Insert-only sources that climb tiers in arrival order. Batches 0–3
/// carry sources 1–6 with 3, 5, 20, 127, 128 and 300 distinct destinations
/// and source 50 with 70 000, batches 4–7 new sources 101–106 with the
/// same six sizes. Each batch takes the next quarter of every source's
/// destinations plus re-inserts with new weights, so source 50's run is
/// 74 000 ops, more than the 64 Ki ops recovery applies at a time. A
/// snapshot after batch 3 leaves a tail of new sources only.
fn climbing_stream() -> Vec<EdgeBatch> {
    const SIZES: [u32; 6] = [3, 5, 20, 127, 128, 300];
    const BIG: (u32, u32) = (50, 70_000);
    (0..8u32)
        .map(|r| {
            let (base, part) = if r < 4 { (1, r) } else { (101, r - 4) };
            let mut b = EdgeBatch::new();
            let sources = SIZES.iter().enumerate().map(|(i, &n)| (base + i as u32, n));
            for (src, n) in sources.chain((r < 4).then_some(BIG)) {
                for d in part * n / 4..(part + 1) * n / 4 {
                    b.push_insert(Edge::new(src, d, r * 100_000 + d + 1));
                }
                for d in 0..(n / 280).max(1) {
                    b.push_insert(Edge::new(src, (d + part) % n, 7 + r));
                }
            }
            b
        })
        .collect()
}

/// Recovers `batches` logged at 2 shards, from the log alone and from a
/// snapshot after record `snap_after` plus its tail, through
/// `recover_tinker` and `DurableTinker::open` at 1 and 3 shards, and
/// returns `(recovered view, report.placed_whole, recovered memory bytes)`
/// per recovery for `check` to hold against the arrival-order store.
fn check_grouped_recovery(
    tag: &str,
    cfg: TinkerConfig,
    batches: &[EdgeBatch],
    snap_after: u64,
    check: impl Fn(&str, Logical, u64, Option<usize>, u64),
) {
    let n = batches.len() as u64;
    for (mode, snap_after) in [("wal", None), ("snap", Some(snap_after))] {
        let (dir, snap_lsn) = build_dir(&format!("{tag}_{mode}"), cfg, 2, batches, snap_after);
        let (g, report) = recover_tinker(&dir, cfg).unwrap();
        let ctx = format!("{tag}_{mode} under {cfg:?}");
        assert_eq!(report.snapshot_lsn, snap_lsn, "{ctx}");
        assert_eq!(report.replayed_records, n - snap_lsn, "{ctx}");
        let memory = Some(g.structure_stats().memory_bytes);
        check(
            &format!("{ctx}: recover_tinker"),
            Logical::of(&g),
            report.placed_whole,
            memory,
            snap_lsn,
        );
        for shards in [1, 3] {
            let (d, report) =
                DurableTinker::open(&dir, cfg, WalOptions::default(), shards).unwrap();
            assert_eq!(report.replayed_records, n - snap_lsn, "{ctx}");
            let ctx = format!("{ctx}: open at {shards} shards");
            check(&ctx, Logical::of_durable(&d), report.placed_whole, None, snap_lsn);
        }
        fs::remove_dir_all(&dir).ok();
    }
}

/// Loads `batches` as one shuffled stream with `ApplyBatch::load` into a
/// `GraphTinker` and into a `ParallelTinker` of 1–3 shards, and holds each
/// to `apply_batch` of the same stream: the same logical view, except that
/// a source placed whole makes no tier move. `all_whole` says every
/// source's run only inserts (and is placed whole), else none does.
fn check_load(cfg: TinkerConfig, batches: &[EdgeBatch], all_whole: bool) {
    let mut ops: Vec<UpdateOp> = batches.iter().flat_map(|b| b.iter().copied()).collect();
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..ops.len()).rev() {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ops.swap(i, (lcg >> 33) as usize % (i + 1));
    }
    let mut truth = GraphTinker::new(cfg).unwrap();
    truth.apply_batch(&ops.iter().copied().collect());
    let mut want = Logical::of(&truth);
    if all_whole {
        want.moves = (0, 0);
    }
    let check = |ctx: String, got: Logical, placed: u64| {
        assert_eq!(got, want, "{ctx}");
        assert_eq!(placed > 0, all_whole, "{ctx}: {placed} sources placed whole");
    };
    let mut g = GraphTinker::new(cfg).unwrap();
    g.load(ops.clone());
    check(format!("load under {cfg:?}"), Logical::of(&g), g.placed_whole());
    for shards in 1..=3 {
        let mut store = ParallelTinker::new(cfg, shards).unwrap();
        store.load(ops.clone());
        let ctx = format!("load at {shards} shards under {cfg:?}");
        check(ctx, Logical::of_sharded(&store), store.placed_whole());
    }
}

/// Recovery replays the log's tail grouped by source, not record by
/// record, and places each source that is new to the store whole in its
/// final tier. Whether from the log alone, from a snapshot plus its tail,
/// or into a `DurableTinker` of 1 or 3 shards, the result is logically the
/// store that applied the records in arrival order, under both layouts.
///
/// `grouping_stream`'s runs all delete (or continue a source the snapshot
/// holds), so its tail replay makes the arrival order's tier moves; the
/// snapshot restore places every image source whole, so from a snapshot
/// the moves are the truth's less those made before it. The climbing
/// stream's sources are all placed whole: no moves, and no more memory.
/// The same two streams, shuffled into one and loaded whole
/// ([`check_load`]), equal `apply_batch` of that stream.
#[test]
fn grouped_tail_replay_equals_arrival_order() {
    for cfg in [TinkerConfig::default(), TinkerConfig::paper()] {
        let batches = grouping_stream();
        let n = batches.len() as u64;
        let truth = Logical::of(&truth_store(cfg, &batches, n));
        if cfg == TinkerConfig::default() {
            let hub_tiers = |n| Logical::of(&truth_store(cfg, &batches, n)).tiers[2];
            assert_eq!((hub_tiers(8), hub_tiers(n)), (1, 0), "the hub is promoted, then demoted");
        }
        check_grouped_recovery("group", cfg, &batches, 3, |ctx, got, _, _, snap_lsn| {
            let before = Logical::of(&truth_store(cfg, &batches, snap_lsn)).moves;
            let mut want = truth.clone();
            want.moves = (truth.moves.0 - before.0, truth.moves.1 - before.1);
            assert_eq!(got, want, "{ctx}");
        });
        check_load(cfg, &batches, false);

        let batches = climbing_stream();
        let truth_store = truth_store(cfg, &batches, batches.len() as u64);
        let truth = Logical::of(&truth_store);
        let truth_memory = truth_store.structure_stats().memory_bytes;
        if cfg == TinkerConfig::default() {
            assert!(truth.moves.0 > 0, "the arrival order climbs: {:?}", truth.moves);
        }
        check_grouped_recovery("climb", cfg, &batches, 3, |ctx, got, placed, memory, _| {
            assert_eq!(got.moves, (0, 0), "{ctx}: a source placed whole makes no tier move");
            assert_eq!(Logical { moves: truth.moves, ..got }, truth, "{ctx}");
            assert!(placed > 0, "{ctx}: no source placed whole");
            if let Some(bytes) = memory {
                assert!(bytes <= truth_memory, "{ctx}: {bytes} B > arrival order's {truth_memory}");
            }
        });
        check_load(cfg, &batches, true);
    }
}
