//! Property tests for the observability layer: after arbitrary operation
//! sequences the Robin Hood structural invariants hold, the per-instance
//! op counters reconcile exactly with a model, and the global metric
//! registry's counters and probe histogram bound the per-instance view.
//!
//! The global registry is process-wide and proptest cases run on parallel
//! threads, so all assertions against it are monotone-safe: deltas are
//! checked with `>=` and the probe histogram only with its bucket upper
//! bound, never with exact equality.

use std::collections::BTreeMap;

use gtinker_core::{metrics, GraphStore, GraphTinker, ParallelTinker};
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32, u32, u32),
    Delete(u32, u32),
}

fn op_strategy(v_range: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..v_range, 0..v_range, 1..100u32).prop_map(|(s, d, w)| Op::Insert(s, d, w)),
        1 => (0..v_range, 0..v_range).prop_map(|(s, d)| Op::Delete(s, d)),
    ]
}

/// Runs `ops` against a fresh structure and its model, then checks every
/// metric-facing invariant the observability layer promises.
fn check_metrics_invariants(cfg: TinkerConfig, ops: &[Op]) {
    let compact = cfg.delete_mode == DeleteMode::DeleteAndCompact;
    let before = metrics::global().snapshot();
    let mut g = GraphTinker::new(cfg).unwrap();
    let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for &op in ops {
        match op {
            Op::Insert(s, d, w) => {
                let fresh = model.insert((s, d), w).is_none();
                prop_assert_eq!(g.insert_edge(Edge::new(s, d, w)), fresh);
            }
            Op::Delete(s, d) => {
                let existed = model.remove(&(s, d)).is_some();
                prop_assert_eq!(g.delete_edge(s, d), existed);
            }
        }
    }

    // Per-instance counters reconcile exactly against the model.
    let ps = g.stats();
    prop_assert_eq!(ps.operations as usize, ops.len());
    prop_assert_eq!(ps.inserts + ps.updates + ps.deletes + ps.delete_misses, ops.len() as u64);
    prop_assert_eq!(ps.inserts - ps.deletes, g.num_edges());
    prop_assert_eq!(g.num_edges() as usize, model.len());

    // Structural Robin Hood invariants: probe distances, no holes before
    // displaced cells, and full displacement ordering while no delete has
    // ever reopened a slot.
    if let Err(e) = g.validate_rhh_invariants() {
        panic!("RHH invariant violated: {e}");
    }

    let after = metrics::global().snapshot();
    if metrics::enabled() {
        // Every per-instance increment also hit the global counters.
        prop_assert!(after.tinker_inserts - before.tinker_inserts >= ps.inserts);
        prop_assert!(after.tinker_updates - before.tinker_updates >= ps.updates);
        prop_assert!(after.tinker_deletes - before.tinker_deletes >= ps.deletes);
        prop_assert!(after.tinker_delete_misses - before.tinker_delete_misses >= ps.delete_misses);
        // Every surviving probe distance was recorded at placement time, so
        // the structure's max probe is bounded by the histogram's top
        // populated bucket. (Compact mode bypasses RHH, so stored probes
        // carry no meaning there.)
        if !compact {
            let hist = g.probe_histogram();
            if let Some(max_probe) = hist.iter().rposition(|&c| c > 0) {
                prop_assert!(
                    after.rhh_probe.max_bound() >= max_probe as u64,
                    "structure max probe {} above histogram bound {}",
                    max_probe,
                    after.rhh_probe.max_bound()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Default-shaped geometry, both delete modes.
    #[test]
    fn metrics_reconcile_default_geometry(
        ops in prop::collection::vec(op_strategy(48), 1..600),
        compact in any::<bool>(),
    ) {
        let mode = if compact { DeleteMode::DeleteAndCompact } else { DeleteMode::DeleteOnly };
        let cfg = TinkerConfig { pagewidth: 16, subblock: 8, workblock: 4, ..TinkerConfig::default() }
            .delete_mode(mode);
        check_metrics_invariants(cfg, &ops);
    }

    /// Pathological geometry under hub-heavy load: maximum branch-out and
    /// displacement pressure.
    #[test]
    fn metrics_reconcile_tiny_geometry(
        ops in prop::collection::vec(op_strategy(6), 1..500),
    ) {
        let cfg = TinkerConfig {
            pagewidth: 8,
            subblock: 4,
            workblock: 2,
            cal_block_size: 8,
            cal_group_size: 4,
            ..TinkerConfig::default()
        };
        check_metrics_invariants(cfg, &ops);
    }
}

/// The probe histogram bucketing is deterministic, monotone, and exact in
/// the linear range — the contract DESIGN.md §7 documents.
#[test]
fn bucket_bounds_are_consistent() {
    for v in 0..4_096u64 {
        let i = metrics::bucket_index(v);
        assert!(metrics::bucket_lower_bound(i) <= v, "v={v} bucket {i}");
        assert!(v <= metrics::bucket_upper_bound(i), "v={v} bucket {i}");
        if v < metrics::HIST_LINEAR {
            assert_eq!(i, v as usize, "linear range is exact");
        }
    }
    assert_eq!(metrics::bucket_index(u64::MAX), metrics::HIST_BUCKETS - 1);
}

/// The hub tier's tombstones are visible: a main-run delete on a hub moves
/// `StructureStats::hub_dead_slots` and the `tier_hub_dead_slots` gauge
/// together, a compaction (forced by the dead-slot bound, or a tail merge)
/// returns both to zero, and demoting the hub drops whatever it still
/// held. No other test in this binary builds a hub, so the gauge deltas
/// are exact.
#[test]
fn hub_dead_slots_move_on_delete_and_clear_on_compaction() {
    use gtinker_core::hubseg::{MAX_DEAD_SHARE, TAIL_CAP};

    let gauge = || metrics::global().snapshot().tier_hub_dead_slots;
    let base = gauge();
    let mut g = GraphTinker::with_defaults();
    let degree = 400u32;
    for d in 0..degree {
        g.insert_edge(Edge::new(7, d, 1));
    }
    let st = g.structure_stats();
    assert_eq!((st.tier_hub_vertices, st.hub_dead_slots), (1, 0));

    // The promotion built the run from the first 128 edges; the rest sit
    // in (or were merged from) the tail. Delete oldest-first: main run.
    assert!(g.delete_edge(7, 0));
    assert_eq!(g.structure_stats().hub_dead_slots, 1);
    // (Compiled out with the `metrics` feature, the gauge reads 0.)
    let gauge_live = metrics::enabled();
    if gauge_live {
        assert_eq!(gauge() - base, 1, "gauge follows the structure stat");
    }

    // Keep deleting: the count climbs one per delete until the bound
    // forces a compaction, which clears it.
    let mut peak = 1;
    let mut cleared = false;
    for d in 1..degree / 2 {
        assert!(g.delete_edge(7, d));
        let dead = g.structure_stats().hub_dead_slots;
        if dead == 0 {
            cleared = true;
            break;
        }
        assert_eq!(dead, peak + 1);
        peak = dead;
    }
    assert!(cleared, "dead slots never compacted (peak {peak})");
    assert!(peak * MAX_DEAD_SHARE <= degree as usize, "peak {peak} above the bound");
    if gauge_live {
        assert_eq!(gauge() - base, 0, "gauge returns to zero after compaction");
    }
    g.validate_tag_invariants().unwrap();

    // A tail merge clears them too: leave a few dead, then overflow the tail.
    for d in 300..310 {
        assert!(g.delete_edge(7, d));
    }
    assert!(g.structure_stats().hub_dead_slots > 0);
    for d in 0..=TAIL_CAP as u32 {
        g.insert_edge(Edge::new(7, 10_000 + d, 1));
    }
    assert_eq!(g.structure_stats().hub_dead_slots, 0);
    if gauge_live {
        assert_eq!(gauge() - base, 0);
    }

    // Batched deletes flush the gauge once per batch; a demotion releases
    // the segment and its dead slots with it.
    let remaining: Vec<(u32, u32)> = {
        let mut v = Vec::new();
        g.for_each_out_edge(7, |d, _| v.push((7, d)));
        v.sort_unstable();
        v
    };
    g.apply_batch(&EdgeBatch::deletes(&remaining[..40]));
    let dead = g.structure_stats().hub_dead_slots;
    assert!(dead > 0);
    if gauge_live {
        assert_eq!(gauge() - base, dead as i64);
    }
    g.apply_batch(&EdgeBatch::deletes(&remaining[40..remaining.len() - 10]));
    let st = g.structure_stats();
    assert_eq!((st.tier_hub_vertices, st.hub_dead_slots), (0, 0), "{st:?}");
    if gauge_live {
        assert_eq!(gauge() - base, 0);
    }
    g.validate_tag_invariants().unwrap();
}

/// The ingest parse stage's two metrics under the names DESIGN.md §7 and
/// the dashboards use. `gtinker ingest` is what records them (the
/// `--stats` smoke in `scripts/ci.sh` counts a file through it, in a
/// process whose registry nothing else resets); here the pair is
/// moved the way that stage moves it — one histogram observation per
/// chunk read, the counter by the chunk's edges — and must show up in
/// both renderings. Nothing else in this binary touches them, but deltas
/// are still checked as lower bounds.
#[test]
fn ingest_parse_metrics_are_exported_under_their_documented_names() {
    if !metrics::enabled() {
        return;
    }
    let before = metrics::global().snapshot();
    let file = std::env::temp_dir().join(format!("gtinker_metrics_parse_{}", std::process::id()));
    std::fs::write(&file, "1 2\n3 4 5\n# c\n6 7\n").unwrap();
    let mut reader = gtinker_datasets::io::EdgeListReader::open(&file).unwrap();
    let mut chunk = Vec::new();
    loop {
        chunk.clear();
        let timer = metrics::timer();
        let n = reader.read_chunk(&mut chunk, 2).unwrap();
        metrics::global().ingest_parse_ns.record_since(timer);
        metrics::global().ingest_parsed_edges_total.add(n as u64);
        if n == 0 {
            break;
        }
    }
    std::fs::remove_file(&file).ok();
    let after = metrics::global().snapshot();
    assert!(after.ingest_parsed_edges_total - before.ingest_parsed_edges_total >= 3);
    assert!(after.ingest_parse_ns.count() - before.ingest_parse_ns.count() >= 3);
    let prom = after.to_prometheus();
    assert!(prom.contains("# TYPE gtinker_ingest_parse_ns histogram"), "{prom}");
    assert!(prom.contains("gtinker_ingest_parse_ns_count "));
    assert!(prom.contains("# TYPE gtinker_ingest_parsed_edges_total counter"));
    let json = after.to_json();
    assert!(json.contains("\"ingest_parse_ns\": {\"count\": "));
    assert!(json.contains("\"ingest_parsed_edges_total\": "));
}

/// A pin never rebases by itself: two pins with nothing applied between
/// them share one view and a delta under the rebase rule merges nothing.
/// A delta past the rule rebases its shard exactly once, in the
/// background, and re-nets the overlay empty. Nothing else in this binary
/// pins, so the deltas are exact.
#[test]
fn epoch_rebases_follow_the_delta_not_pins() {
    if !metrics::enabled() {
        return;
    }
    let g = ParallelTinker::new(TinkerConfig::default(), 1).unwrap();
    g.apply_batch(&EdgeBatch::inserts(&[Edge::new(1, 2, 3), Edge::new(2, 3, 4)]));
    let before = metrics::global().snapshot();
    drop(g.pin());
    let again = g.pin();
    assert_eq!((again.epoch(), again.num_edges()), (1, 2));
    drop(again);
    let quiet = metrics::global().snapshot();
    assert_eq!(quiet.epoch_rebases - before.epoch_rebases, 0, "a quiescent pin rebases nothing");
    assert_eq!(quiet.epoch_pins - before.epoch_pins, 2);

    let floor = gtinker_core::epoch::REBASE_FLOOR as u32;
    let edges: Vec<Edge> = (0..floor).map(|i| Edge::new(i % 97, 100 + i, 1)).collect();
    g.apply_batch(&EdgeBatch::inserts(&edges));
    let fresh = g.pin();
    assert_eq!((fresh.epoch(), fresh.num_edges()), (2, u64::from(floor) + 2));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while g.read_side_stats() != (2, 0) {
        assert!(std::time::Instant::now() < deadline, "no rebase: {:?}", g.read_side_stats());
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let after = metrics::global().snapshot();
    assert_eq!(after.epoch_rebases - quiet.epoch_rebases, 1, "a delta past the rule rebases");
    assert_eq!(after.epoch_rebase_ns.count() - quiet.epoch_rebase_ns.count(), 1);
    let prom = after.to_prometheus();
    assert!(prom.contains("# TYPE gtinker_epoch_rebases counter"), "{prom}");
    assert!(prom.contains("gtinker_epoch_rebase_ns_count "));
    assert!(prom.contains("# TYPE gtinker_epoch_delta_ops gauge"));
    assert!(prom.contains("# TYPE gtinker_epoch_read_side_bytes gauge"));
    assert!(prom.contains("# TYPE gtinker_epoch_pins counter"));
}
