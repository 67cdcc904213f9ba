//! Model test for the dense hub tier and its lazy deletes: a
//! `BTreeMap<dst, weight>` against [`HubSegment`] driven directly, and
//! against a [`GraphTinker`] whose one vertex is forced into the hub tier,
//! under random insert / delete / re-insert-of-a-dead-key / weight-update
//! streams long enough to cross several tail merges and forced
//! compactions. After every operation the segment must agree with the
//! model (`find` in both probe flavours, `len`, iteration) and pass its
//! own structural validation: live main run sorted, fences equal to every
//! 64th key, tail tag lane, dead slots within the compaction bound.
//!
//! Plus the hub-flapping stream: one vertex oscillating across the
//! 128 / 64 hysteresis band may change tier at most once per 64 ops.

use std::collections::BTreeMap;

use gtinker_core::hash::dst_tag;
use gtinker_core::hubseg::TAIL_CAP;
use gtinker_core::{GraphTinker, HubSegment};
use gtinker_types::{DeleteMode, Edge, TinkerConfig};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert `dst` (a weight update when it is live).
    Upsert(u32, u32),
    /// Delete `dst`, live or not.
    Delete(u32),
    /// Delete the n-th live destination (always a hit).
    DeleteNth(usize),
    /// Re-insert the most recently deleted destination — a dead main-run
    /// slot unless it sat in the tail.
    ReinsertDead(u32),
    /// Overwrite the weight of the n-th live destination.
    UpdateNth(usize, u32),
}

fn op_strategy(keys: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..keys, 1..1_000u32).prop_map(|(d, w)| Op::Upsert(d, w)),
        1 => (0..keys).prop_map(Op::Delete),
        3 => (0..4_096usize).prop_map(Op::DeleteNth),
        1 => (1..1_000u32).prop_map(Op::ReinsertDead),
        1 => (0..4_096usize, 1..1_000u32).prop_map(|(n, w)| Op::UpdateNth(n, w)),
    ]
}

/// Resolves the model-relative ops to `(dst, Some(weight))` upserts and
/// `(dst, None)` deletes.
fn resolve(
    op: Op,
    model: &BTreeMap<u32, u32>,
    last_deleted: Option<u32>,
) -> Option<(u32, Option<u32>)> {
    let nth = |n: usize| model.keys().nth(n % model.len().max(1)).copied();
    match op {
        Op::Upsert(d, w) => Some((d, Some(w))),
        Op::Delete(d) => Some((d, None)),
        Op::DeleteNth(n) => nth(n).map(|d| (d, None)),
        Op::ReinsertDead(w) => last_deleted.map(|d| (d, Some(w))),
        Op::UpdateNth(n, w) => nth(n).map(|d| (d, Some(w))),
    }
}

/// What a stream did to the segment, read off `dead_slots()` (the merge
/// counters themselves are unit-test-only).
#[derive(Debug, Default)]
struct Passes {
    /// Inserts that overflowed the tail and merged dead slots away.
    merges: usize,
    /// Deletes that hit the compaction bound.
    forced: usize,
    peak_dead: usize,
}

fn check_segment(seg: &HubSegment, model: &BTreeMap<u32, u32>, keys: u32) {
    seg.validate().unwrap_or_else(|e| panic!("segment invalid: {e}"));
    assert_eq!(seg.len(), model.len());
    assert_eq!(seg.is_empty(), model.is_empty());
    let mut seen: Vec<(u32, u32)> = Vec::with_capacity(model.len());
    seg.for_each(|d, w, ptr| {
        assert_eq!(ptr, d ^ 0x5555, "CAL pointer must travel with its edge");
        seen.push((d, w));
    });
    seen.sort_unstable();
    assert!(seen.iter().copied().eq(model.iter().map(|(&d, &w)| (d, w))), "iteration != model");
    for d in 0..keys {
        let found = seg.find(d, dst_tag(d));
        assert_eq!(found.map(|i| seg.weight(i)), model.get(&d).copied(), "dst {d}");
    }
}

/// Drives `ops` straight into a segment seeded with `seed` edges.
fn run_direct(seed: u32, keys: u32, ops: &[Op], check_every_op: bool) -> Passes {
    let mut model: BTreeMap<u32, u32> = (0..seed).map(|d| (d * 2 % keys, d + 1)).collect();
    let mut seg = HubSegment::from_edges(model.iter().map(|(&d, &w)| (d, w, d ^ 0x5555)).collect());
    let mut passes = Passes::default();
    let mut last_deleted = None;
    check_segment(&seg, &model, keys);
    for &op in ops {
        let Some((dst, weight)) = resolve(op, &model, last_deleted) else { continue };
        let dead0 = seg.dead_slots();
        let found = seg.find(dst, dst_tag(dst));
        match (weight, found) {
            (Some(w), Some(i)) => {
                seg.set_weight(i, w);
                model.insert(dst, w);
            }
            (Some(w), None) => {
                assert!(!model.contains_key(&dst));
                seg.insert(dst, w, dst ^ 0x5555, dst_tag(dst));
                model.insert(dst, w);
                passes.merges += (dead0 > 0 && seg.dead_slots() == 0) as usize;
            }
            (None, Some(i)) => {
                assert_eq!(seg.remove(i), dst ^ 0x5555);
                assert!(model.remove(&dst).is_some());
                last_deleted = Some(dst);
                passes.forced += (seg.dead_slots() < dead0) as usize;
            }
            (None, None) => assert!(!model.contains_key(&dst)),
        }
        passes.peak_dead = passes.peak_dead.max(seg.dead_slots());
        if check_every_op {
            check_segment(&seg, &model, keys);
        }
    }
    check_segment(&seg, &model, keys);
    let mut drained: Vec<(u32, u32)> =
        seg.into_edges().into_iter().map(|(d, w, _)| (d, w)).collect();
    drained.sort_unstable();
    assert!(drained.iter().copied().eq(model.iter().map(|(&d, &w)| (d, w))), "drain != model");
    passes
}

/// Thresholds low enough that vertex 0 is a hub for nearly the whole
/// stream, yet demotes (and re-promotes) when a delete run drains it.
fn forced_hub_config(mode: DeleteMode) -> TinkerConfig {
    TinkerConfig::default().tiers(4, 16, 8).delete_mode(mode)
}

fn check_store(g: &GraphTinker, model: &BTreeMap<u32, u32>, keys: u32) {
    g.validate_tag_invariants().unwrap_or_else(|e| panic!("tag invariant: {e}"));
    g.validate_rhh_invariants().unwrap_or_else(|e| panic!("RHH invariant: {e}"));
    assert_eq!(g.out_degree(0) as usize, model.len());
    assert_eq!(g.num_edges() as usize, model.len());
    let mut seen = Vec::with_capacity(model.len());
    g.for_each_out_edge(0, |d, w| seen.push((d, w)));
    seen.sort_unstable();
    assert!(seen.iter().copied().eq(model.iter().map(|(&d, &w)| (d, w))), "adjacency != model");
    let mut cal = Vec::with_capacity(model.len());
    g.for_each_edge(|s, d, w| {
        assert_eq!(s, 0);
        cal.push((d, w));
    });
    cal.sort_unstable();
    assert_eq!(cal, seen, "CAL stream != hub adjacency");
    for d in 0..keys {
        assert_eq!(g.edge_weight(0, d), model.get(&d).copied(), "dst {d}");
    }
}

/// The same ops through `GraphTinker`, all on source 0. Returns the peak
/// hub dead-slot count.
fn run_through_store(mode: DeleteMode, keys: u32, ops: &[Op]) -> usize {
    let mut g = GraphTinker::new(forced_hub_config(mode)).unwrap();
    let mut model = BTreeMap::new();
    let (mut last_deleted, mut peak_dead, mut hub_ops) = (None, 0, 0usize);
    for &op in ops {
        let Some((dst, weight)) = resolve(op, &model, last_deleted) else { continue };
        match weight {
            Some(w) => {
                assert_eq!(g.insert_edge(Edge::new(0, dst, w)), model.insert(dst, w).is_none())
            }
            None => {
                let existed = model.remove(&dst).is_some();
                assert_eq!(g.delete_edge(0, dst), existed);
                if existed {
                    last_deleted = Some(dst);
                }
            }
        }
        let st = g.structure_stats();
        peak_dead = peak_dead.max(st.hub_dead_slots);
        hub_ops += st.tier_hub_vertices;
        check_store(&g, &model, keys);
    }
    assert!(hub_ops * 2 > ops.len(), "vertex 0 must spend most of the stream as a hub");
    peak_dead
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Small key space: every key is deleted and re-inserted many times
    /// over, the run stays short, so forced compactions dominate.
    #[test]
    fn segment_matches_model_dense_keys(ops in prop::collection::vec(op_strategy(256), 600..1_000)) {
        let passes = run_direct(100, 256, &ops, true);
        prop_assert!(passes.peak_dead > 0, "{passes:?}");
        prop_assert!(passes.forced >= 2, "stream must cross forced compactions: {passes:?}");
    }

    /// The same streams through the store, in both delete modes.
    #[test]
    fn forced_hub_vertex_matches_model(
        ops in prop::collection::vec(op_strategy(200), 400..800),
        compact in any::<bool>(),
    ) {
        let mode = if compact { DeleteMode::DeleteAndCompact } else { DeleteMode::DeleteOnly };
        let peak_dead = run_through_store(mode, 200, &ops);
        prop_assert!(peak_dead > 0, "no delete ever left a dead hub slot");
    }
}

/// A long stream over a run big enough (several thousand edges) that tail
/// overflows, not the dead-slot bound, do the merging.
#[test]
fn long_stream_crosses_merges_and_forced_compactions() {
    let keys = 20_000u32;
    // xorshift: insert-heavy first (tail merges), then nine deletes in ten
    // (forced compactions); the model is checked at both ends.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut ops = Vec::new();
    for i in 0..12_000 {
        let r = next();
        let delete_share = if i < 6_000 { 3 } else { 9 };
        ops.push(match r % 10 {
            k if k < delete_share => Op::DeleteNth((r >> 8) as usize),
            3 => Op::ReinsertDead((r >> 8) as u32 % 999 + 1),
            _ => Op::Upsert((r >> 8) as u32 % keys, (r >> 40) as u32 % 999 + 1),
        });
    }
    let passes = run_direct(4_000, keys, &ops, false);
    assert!(passes.merges >= 3, "{passes:?}");
    assert!(passes.forced >= 3, "{passes:?}");
    assert!(passes.peak_dead > TAIL_CAP / 2, "{passes:?}");
}

/// ROADMAP 4(d): a vertex oscillating across the promote-at-128 /
/// demote-below-64 band, with jitter at both edges, changes tier at most
/// once per 64 operations — hysteresis, not flapping.
#[test]
fn hub_flapping_is_bounded_by_the_hysteresis_band() {
    for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
        let cfg = TinkerConfig::default().delete_mode(mode);
        assert_eq!((cfg.hub_promote, cfg.hub_demote), (128, 64));
        let mut g = GraphTinker::new(cfg).unwrap();
        let mut model = BTreeMap::new();
        let mut ops = 0u64;
        let mut next_dst = 0u32;
        let mut grow = |g: &mut GraphTinker, model: &mut BTreeMap<u32, u32>, to: usize| {
            let mut n = 0;
            while model.len() < to {
                next_dst += 1;
                assert!(g.insert_edge(Edge::new(0, next_dst, next_dst)));
                model.insert(next_dst, next_dst);
                n += 1;
            }
            n
        };
        let shrink = |g: &mut GraphTinker, model: &mut BTreeMap<u32, u32>, to: usize| {
            let mut n = 0;
            while model.len() > to {
                // Oldest first: main-run slots of the segment.
                let dst = *model.keys().next().unwrap();
                assert!(g.delete_edge(0, dst));
                model.remove(&dst);
                n += 1;
            }
            n
        };
        let changes = |g: &GraphTinker| {
            let st = g.structure_stats();
            st.tier_promotions + st.tier_demotions
        };
        for cycle in 0..24 {
            ops += grow(&mut g, &mut model, 128);
            assert_eq!(g.structure_stats().tier_hub_vertices, 1);
            // Every other cycle, jitter just under the promotion point and
            // just over the demotion point: the tier must not move.
            let jitter = if cycle % 2 == 1 { 40 } else { 0 };
            let before = changes(&g);
            for _ in 0..jitter {
                ops += shrink(&mut g, &mut model, 126);
                ops += grow(&mut g, &mut model, 128);
            }
            assert_eq!(changes(&g), before, "jitter below the promote point flapped");
            ops += shrink(&mut g, &mut model, 63);
            assert_eq!(g.structure_stats().tier_hub_vertices, 0);
            let before = changes(&g);
            for _ in 0..jitter {
                ops += grow(&mut g, &mut model, 66);
                ops += shrink(&mut g, &mut model, 63);
            }
            assert_eq!(changes(&g), before, "jitter above the demote point flapped");
            check_store(&g, &model, 0);
        }
        let changes = changes(&g);
        assert!(changes >= 48, "the stream must actually cross the band ({mode:?})");
        assert!(changes <= ops / 64, "{changes} tier changes in {ops} ops ({mode:?})");
    }
}
