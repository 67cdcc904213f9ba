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

use gtinker_core::GraphTinker;
use gtinker_engine::{
    algorithms::{Bfs, Cc},
    Engine, ModePolicy,
};
use gtinker_integration::assert_valid;
use gtinker_persist::snapshot::{decode_tinker, encode_tinker};
use gtinker_persist::{
    corrupt_file, crc32, list_segments, recover_tinker, replay, DurableTinker, Fault, SyncPolicy,
    WalOptions,
};
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig};
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
/// `DurableTinker`, snapshotting after batch `snap_after` (if any).
/// Returns the directory and the effective snapshot LSN.
fn build_dir(
    tag: &str,
    cfg: TinkerConfig,
    batches: &[EdgeBatch],
    snap_after: Option<u64>,
) -> (PathBuf, u64) {
    let dir = fresh_dir(tag);
    // Tiny segments force rotation so crashes span segment boundaries.
    let opts = WalOptions { segment_bytes: 300, sync: SyncPolicy::Never };
    let (mut d, _) = DurableTinker::open(&dir, cfg, opts).unwrap();
    let mut snap_lsn = 0;
    for (i, b) in batches.iter().enumerate() {
        d.apply_batch(b).unwrap();
        assert_valid(d.store(), "durable store");
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
        crash_permille in prop::collection::vec(0..1000u64, 3..8),
    ) {
        let mode = if compact { DeleteMode::DeleteAndCompact } else { DeleteMode::DeleteOnly };
        let cfg = TinkerConfig { pagewidth: 16, subblock: 8, workblock: 4, ..TinkerConfig::default() }
            .delete_mode(mode);
        let batches = ops_to_batches(&ops, batch_size);
        let n = batches.len() as u64;
        let snap_after = (snap_permille * n / 1000).min(n - 1);
        let (dir, snap_lsn) = build_dir("prop", cfg, &batches, Some(snap_after));
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
    ) {
        let mode = if compact { DeleteMode::DeleteAndCompact } else { DeleteMode::DeleteOnly };
        let cfg = TinkerConfig::default().delete_mode(mode);
        let batches = ops_to_batches(&ops, 10);
        let (dir, snap_lsn) = build_dir("flip", cfg, &batches, None);
        prop_assert_eq!(snap_lsn, 0);
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
        let expected = expected_batches(&layout, 0, unit_start);

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
        let (dir, snap_lsn) = build_dir("dense", cfg, &batches, Some(4));
        let layout = wal_layout(&dir);
        assert!(layout.segments.len() > 1, "sweep should cross segment boundaries");
        for at in (0..=layout.total_bytes).step_by(5) {
            let crashed = fresh_dir("dense_c");
            copy_dir(&dir, &crashed);
            crash_at(&layout, &crashed, at);
            let expected = expected_batches(&layout, snap_lsn, at);
            assert_recovers_to(&crashed, cfg, &batches, expected, &format!("dense crash at {at}"));
            fs::remove_dir_all(&crashed).ok();
        }
        fs::remove_dir_all(&dir).ok();
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
    let (dir, snap_lsn) = build_dir("papersnap", TinkerConfig::paper(), &batches, Some(n / 2));
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

/// The CONFIG section grew twice and shrank once: the first release ended
/// after the CAL geometry, tier thresholds (three words) were appended
/// later, then a probe-switch word that this release stopped writing.
/// Images in all three historical layouts decode to the store the current
/// writer's image decodes to.
#[test]
fn every_historical_config_layout_decodes_to_the_same_store() {
    let batches = hub_stream();
    for cfg in [TinkerConfig::paper(), TinkerConfig::default()] {
        let truth = truth_store(cfg, &batches, batches.len() as u64);
        let image = encode_tinker(&truth, 7);
        let (want, _) = decode_tinker(&image).unwrap();
        let mut layouts = vec![
            ("tiers", image.clone()),
            (
                "tiers + probe switch on",
                with_config_payload(&image, |p| p.extend(1u64.to_le_bytes())),
            ),
            (
                "tiers + probe switch off",
                with_config_payload(&image, |p| p.extend(0u64.to_le_bytes())),
            ),
        ];
        if !cfg.adaptive_enabled() {
            // The first layout has no tier words and decodes with tiering off.
            layouts
                .push(("first release", with_config_payload(&image, |p| p.truncate(p.len() - 24))));
        }
        for (name, bytes) in layouts {
            let (g, lsn) = decode_tinker(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(lsn, 7, "{name}");
            assert_eq!(*g.config(), cfg, "{name}");
            assert_eq!(edge_set(&g), edge_set(&truth), "{name}");
            assert_eq!(g.sources(), truth.sources(), "{name}");
            assert_eq!(g.structure_stats(), want.structure_stats(), "{name}");
            assert_valid(&g, name);
        }
        // The retired word was a flag; anything else there is corruption.
        let bad = with_config_payload(&image, |p| p.extend(2u64.to_le_bytes()));
        assert!(decode_tinker(&bad).is_err());
    }
}

/// With no snapshot the recovered store takes the caller's config — the
/// tiered default — and a replay that promotes a hub and lazily deletes
/// from it leaves every invariant `recover --validate` checks intact.
#[test]
fn wal_only_recovery_takes_the_default_layout_and_validates() {
    let batches = hub_stream();
    let n = batches.len() as u64;
    let (dir, _) = build_dir("walonly", TinkerConfig::default(), &batches, None);
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
    let (dir, _) = build_dir("tmpsnap", cfg, &batches, None);
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
    let (dir, snap_lsn) = build_dir("pruned", cfg, &batches, Some(batches.len() as u64 - 2));
    // Snapshot pruning already removed covered segments; what remains must
    // still recover to the full stream.
    let n = batches.len() as u64;
    assert!(snap_lsn < n);
    assert!(!list_segments(&dir).unwrap().is_empty());
    assert_recovers_to(&dir, cfg, &batches, n, "pruned log");
    fs::remove_dir_all(&dir).ok();
}
