//! Probe parity: the SWAR tag-probe engine must be observationally
//! identical to a plain map of the edges on any update stream. Tag probing
//! decides *how* a subblock, SGH cluster, or hub tail is searched — 8-wide
//! fingerprint groups, full-width compares only on candidates — never
//! *what* the store contains, so batch outcomes, edge sets, degrees, and
//! every analytic must match a `BTreeMap<(src, dst), weight>` model
//! exactly: across mixed insert/delete churn, in both delete modes, with
//! the adaptive tiers live, and through a snapshot/recover round-trip that
//! rebuilds the tag lanes from scratch. The structural invariants are
//! re-validated after *every* batch (ROADMAP item 4f).

use std::collections::BTreeMap;

use gtinker_core::{BatchResult, GraphStore, GraphTinker, ParallelTinker};
use gtinker_datasets::{churn_batches, SourceSkewConfig};
use gtinker_engine::{
    algorithms::{Bfs, Cc},
    dynamic::symmetrize,
    Engine, ModePolicy,
};
use gtinker_integration::reference;
use gtinker_persist::{recover_tinker, write_tinker_snapshot};
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig, UpdateOp};

/// Tiny geometry so deep branch-out chains (and therefore multi-subblock
/// tag scans) show up with a few thousand edges.
fn tiny_config(mode: DeleteMode) -> TinkerConfig {
    TinkerConfig {
        pagewidth: 16,
        subblock: 4,
        workblock: 2,
        delete_mode: mode,
        ..Default::default()
    }
}

/// The oracle: the live edges as an ordered map, probing nothing.
#[derive(Default)]
struct Model(BTreeMap<(u32, u32), u32>);

impl Model {
    /// Applies `batch` in order and returns the outcome counts a store
    /// must report for it.
    fn apply(&mut self, batch: &EdgeBatch) -> BatchResult {
        let mut r = BatchResult::default();
        for op in batch.iter() {
            match *op {
                UpdateOp::Insert(e) => match self.0.insert((e.src, e.dst), e.weight) {
                    None => r.inserted += 1,
                    Some(_) => r.updated += 1,
                },
                UpdateOp::Delete { src, dst } => match self.0.remove(&(src, dst)) {
                    Some(_) => r.deleted += 1,
                    None => r.not_found += 1,
                },
            }
        }
        r
    }

    /// Every live edge, sorted.
    fn edges(&self) -> Vec<(u32, u32, u32)> {
        self.0.iter().map(|(&(s, d), &w)| (s, d, w)).collect()
    }

    /// The live out-edges of `src`, sorted.
    fn adjacency(&self, src: u32) -> Vec<(u32, u32, u32)> {
        self.0.range((src, 0)..=(src, u32::MAX)).map(|(&(s, d), &w)| (s, d, w)).collect()
    }
}

/// A skewed stream with interleaved deletes of earlier edges.
fn churn_stream(seed: u64) -> Vec<EdgeBatch> {
    let edges =
        SourceSkewConfig { num_vertices: 512, num_edges: 20_000, theta: 1.0, seed, max_weight: 16 }
            .generate();
    churn_batches(&edges, 1_000, 3, seed)
}

fn edge_set(g: &impl Fn(&mut dyn FnMut(u32, u32, u32))) -> Vec<(u32, u32, u32)> {
    let mut v = Vec::new();
    g(&mut |s, d, w| v.push((s, d, w)));
    v.sort_unstable();
    v
}

fn tinker_edges(g: &GraphTinker) -> Vec<(u32, u32, u32)> {
    edge_set(&|f| g.for_each_edge(f))
}

/// Streams `batches` into a store of `cfg` and into the model, holding the
/// store to the model's batch outcome and to both structural invariants
/// after every batch.
fn churn_against_model(
    cfg: TinkerConfig,
    batches: &[EdgeBatch],
    ctx: &str,
) -> (GraphTinker, Model) {
    let mut g = GraphTinker::new(cfg).unwrap();
    let mut model = Model::default();
    for (i, b) in batches.iter().enumerate() {
        assert_eq!(g.apply_batch(b), model.apply(b), "outcome of batch {i} diverged ({ctx})");
        g.validate_rhh_invariants().unwrap_or_else(|e| panic!("batch {i} ({ctx}): {e}"));
        g.validate_tag_invariants().unwrap_or_else(|e| panic!("batch {i} ({ctx}): {e}"));
    }
    assert!(g.stats().tag_group_scans > 0, "store never exercised the SWAR engine ({ctx})");
    (g, model)
}

#[test]
fn tagged_matches_seed_under_churn_both_delete_modes() {
    // Default tiers (4 / 128 / 64) and, second, the paper layout with every
    // vertex on the probed edgeblocks.
    let layouts = [TinkerConfig::default(), TinkerConfig::paper()];
    for (mode, layout) in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact]
        .into_iter()
        .flat_map(|m| layouts.map(|l| (m, l)))
    {
        let (inline, hub, floor) = (layout.inline_cap, layout.hub_promote, layout.hub_demote);
        let ctx = format!("{mode:?}, tiers {inline}/{hub}/{floor}");
        let cfg = tiny_config(mode).tiers(inline, hub, floor);
        let (g, model) = churn_against_model(cfg, &churn_stream(61), &ctx);
        assert_eq!(g.num_edges(), model.0.len() as u64, "{ctx}");
        assert_eq!(tinker_edges(&g), model.edges(), "{ctx}");
        for src in 0..512u32 {
            let want = model.adjacency(src);
            assert_eq!(g.out_degree(src) as usize, want.len(), "degree of {src} diverged ({ctx})");
            assert_eq!(
                edge_set(&|f| g.for_each_out_edge(src, &mut |d, w| f(src, d, w))),
                want,
                "adjacency of {src} diverged ({ctx})"
            );
            for &(_, dst, w) in &want {
                assert_eq!(g.edge_weight(src, dst), Some(w), "find of ({src}, {dst}) ({ctx})");
            }
        }
    }
}

#[test]
fn tagged_matches_seed_with_adaptive_tiers_live() {
    let cfg = tiny_config(DeleteMode::DeleteOnly).tiers(2, 12, 6);
    let (g, model) = churn_against_model(cfg, &churn_stream(62), "tiers 2/12/6");
    assert_eq!(tinker_edges(&g), model.edges());
    let st = g.structure_stats();
    assert!(
        st.tier_inline_vertices > 0 && st.tier_hub_vertices > 0,
        "stream must leave inline and hub vertices live: {st:?}"
    );
}

#[test]
fn pooled_tagged_matches_sequential_seed() {
    let mut model = Model::default();
    let par = ParallelTinker::new(tiny_config(DeleteMode::DeleteOnly), 4).unwrap();
    for (i, b) in churn_stream(63).iter().enumerate() {
        assert_eq!(par.apply_batch(b), model.apply(b), "outcome of batch {i} diverged");
        for shard in 0..par.num_instances() {
            par.with_instance(shard, |g| {
                g.validate_rhh_invariants().unwrap_or_else(|e| panic!("batch {i}: {e}"));
                g.validate_tag_invariants().unwrap_or_else(|e| panic!("batch {i}: {e}"));
            });
        }
    }
    assert_eq!(par.num_edges(), model.0.len() as u64);
    assert_eq!(edge_set(&|f| par.stream_edges(f)), model.edges());
    assert!(par.stats().tag_group_scans > 0, "pooled store never exercised the SWAR engine");
}

#[test]
fn bfs_and_cc_identical_across_probe_engines() {
    let edges = SourceSkewConfig {
        num_vertices: 256,
        num_edges: 6_000,
        theta: 1.0,
        seed: 64,
        max_weight: 8,
    }
    .generate();
    let batch = EdgeBatch::inserts(&edges);
    let root = edges[0].src;

    let mut g = GraphTinker::new(tiny_config(DeleteMode::DeleteOnly)).unwrap();
    g.apply_batch(&batch);
    let levels = reference::bfs_levels(&edges, g.vertex_space(), root);
    for policy in [ModePolicy::AlwaysFull, ModePolicy::hybrid()] {
        let mut e = Engine::new(Bfs::new(root), policy);
        e.run_from_roots(&g);
        assert_eq!(e.values(), &levels[..], "BFS diverged under {policy:?}");
    }

    let mut g = GraphTinker::new(tiny_config(DeleteMode::DeleteOnly)).unwrap();
    g.apply_batch(&symmetrize(&batch));
    let mut e = Engine::new(Cc::new(), ModePolicy::hybrid());
    e.run_from_roots(&g);
    assert_eq!(e.values(), &reference::cc_labels(&edges, g.vertex_space())[..], "CC diverged");
}

#[test]
fn snapshot_recover_rebuilds_tags_with_all_three_tiers_live() {
    let dir = std::env::temp_dir().join(format!("gtinker_probe_snap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let cfg = tiny_config(DeleteMode::DeleteOnly).tiers(2, 12, 6);
    let mut g = GraphTinker::new(cfg).unwrap();
    // Hub (20 edges > promote threshold 12), blocks (5), inline (1).
    for d in 0..20u32 {
        g.insert_edge(Edge::new(0, d + 100, d + 1));
    }
    for d in 0..5u32 {
        g.insert_edge(Edge::new(1, d + 100, d + 1));
    }
    g.insert_edge(Edge::new(2, 100, 7));
    // Leave a tombstone so the recovered store replays a delete-free image
    // over fresh (empty) tag lanes rather than copying them.
    g.delete_edge(1, 104);
    let before = g.structure_stats();
    assert_eq!(
        (before.tier_inline_vertices, before.tier_blocks_vertices, before.tier_hub_vertices),
        (1, 1, 1)
    );
    g.validate_tag_invariants().unwrap();

    write_tinker_snapshot(&dir, &g, 0).unwrap();
    let (back, report) = recover_tinker(&dir, cfg).unwrap();
    assert_eq!(report.replayed_records, 0);
    assert_eq!(tinker_edges(&back), tinker_edges(&g));
    let after = back.structure_stats();
    assert_eq!(
        (after.tier_inline_vertices, after.tier_blocks_vertices, after.tier_hub_vertices),
        (1, 1, 1),
        "recovery must rebuild the tier layout: {after:?}"
    );
    back.validate_tag_invariants()
        .unwrap_or_else(|e| panic!("recovered store has stale tag lanes: {e}"));
    std::fs::remove_dir_all(&dir).ok();
}
