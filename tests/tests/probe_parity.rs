//! Probe parity: the SWAR tag-probe engine must be observationally
//! identical to the seed scalar scan on any update stream. Tag probing
//! changes *how* a subblock, SGH cluster, or hub tail is searched — 8-wide
//! fingerprint groups instead of cell-by-cell compares — but never *what*
//! the store contains, so batch outcomes, edge sets, degrees, and every
//! analytic must match exactly: across mixed insert/delete churn, in both
//! delete modes, with the adaptive tiers live, and through a
//! snapshot/recover round-trip that rebuilds the tag lanes from scratch.

use gtinker_core::{GraphTinker, ParallelTinker};
use gtinker_datasets::{churn_batches, SourceSkewConfig};
use gtinker_engine::{
    algorithms::{Bfs, Cc},
    dynamic::symmetrize,
    Engine, ModePolicy,
};
use gtinker_persist::{recover_tinker, write_tinker_snapshot};
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig};

/// Tiny geometry so deep branch-out chains (and therefore multi-subblock
/// tag scans) show up with a few thousand edges.
fn tagged_config(mode: DeleteMode) -> TinkerConfig {
    TinkerConfig {
        pagewidth: 16,
        subblock: 4,
        workblock: 2,
        delete_mode: mode,
        ..Default::default()
    }
}

/// The identical store with the scan strategy flipped back to the seed
/// scalar walk. Tag lanes are still maintained, so the two configurations
/// differ only in the probe code they execute.
fn seed_config(mode: DeleteMode) -> TinkerConfig {
    tagged_config(mode).probe_tags(false)
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
        let batches = churn_stream(61);
        let mut tagged = GraphTinker::new(tagged_config(mode).tiers(inline, hub, floor)).unwrap();
        let mut seed = GraphTinker::new(seed_config(mode).tiers(inline, hub, floor)).unwrap();
        for b in &batches {
            let rt = tagged.apply_batch(b);
            let rs = seed.apply_batch(b);
            assert_eq!(rt, rs, "batch outcome diverged ({mode:?})");
        }
        assert_eq!(tagged.num_edges(), seed.num_edges(), "{mode:?}");
        assert_eq!(tinker_edges(&tagged), tinker_edges(&seed), "{mode:?}");
        for src in 0..512u32 {
            assert_eq!(
                tagged.out_degree(src),
                seed.out_degree(src),
                "degree of {src} diverged ({mode:?})"
            );
            assert_eq!(
                edge_set(&|f| tagged.for_each_out_edge(src, &mut |d, w| f(src, d, w))),
                edge_set(&|f| seed.for_each_out_edge(src, &mut |d, w| f(src, d, w))),
                "adjacency of {src} diverged ({mode:?})"
            );
        }
        // The engines really took different scan paths...
        assert!(
            tagged.stats().tag_group_scans > 0,
            "tagged store never exercised the SWAR engine ({mode:?})"
        );
        assert_eq!(seed.stats().tag_group_scans, 0, "seed store must not group-scan ({mode:?})");
        // ...and both maintain valid tag lanes and structural invariants.
        tagged.validate_tag_invariants().unwrap_or_else(|e| panic!("tagged {mode:?}: {e}"));
        seed.validate_tag_invariants().unwrap_or_else(|e| panic!("seed {mode:?}: {e}"));
        tagged.validate_rhh_invariants().unwrap();
        seed.validate_rhh_invariants().unwrap();
    }
}

#[test]
fn tagged_matches_seed_with_adaptive_tiers_live() {
    let batches = churn_stream(62);
    let mut tagged =
        GraphTinker::new(tagged_config(DeleteMode::DeleteOnly).tiers(2, 12, 6)).unwrap();
    let mut seed = GraphTinker::new(seed_config(DeleteMode::DeleteOnly).tiers(2, 12, 6)).unwrap();
    for b in &batches {
        assert_eq!(tagged.apply_batch(b), seed.apply_batch(b), "batch outcome diverged");
    }
    assert_eq!(tinker_edges(&tagged), tinker_edges(&seed));
    let st = tagged.structure_stats();
    assert!(
        st.tier_inline_vertices > 0 && st.tier_hub_vertices > 0,
        "stream must leave inline and hub vertices live: {st:?}"
    );
    tagged.validate_tag_invariants().unwrap();
    seed.validate_tag_invariants().unwrap();
}

#[test]
fn pooled_tagged_matches_sequential_seed() {
    let batches = churn_stream(63);
    let mut seq = GraphTinker::new(seed_config(DeleteMode::DeleteOnly)).unwrap();
    let par = ParallelTinker::new(tagged_config(DeleteMode::DeleteOnly), 4).unwrap();
    for b in &batches {
        seq.apply_batch(b);
        par.apply_batch(b);
    }
    assert_eq!(par.num_edges(), seq.num_edges());
    assert_eq!(edge_set(&|f| par.for_each_edge(f)), tinker_edges(&seq));
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

    let mut tagged = GraphTinker::new(tagged_config(DeleteMode::DeleteOnly)).unwrap();
    let mut seed = GraphTinker::new(seed_config(DeleteMode::DeleteOnly)).unwrap();
    tagged.apply_batch(&batch);
    seed.apply_batch(&batch);

    for policy in [ModePolicy::AlwaysFull, ModePolicy::hybrid()] {
        let mut et = Engine::new(Bfs::new(root), policy);
        et.run_from_roots(&tagged);
        let mut es = Engine::new(Bfs::new(root), policy);
        es.run_from_roots(&seed);
        assert_eq!(et.values(), es.values(), "BFS diverged under {policy:?}");
    }

    let sym = symmetrize(&batch);
    let mut tagged = GraphTinker::new(tagged_config(DeleteMode::DeleteOnly)).unwrap();
    let mut seed = GraphTinker::new(seed_config(DeleteMode::DeleteOnly)).unwrap();
    tagged.apply_batch(&sym);
    seed.apply_batch(&sym);
    let mut et = Engine::new(Cc::new(), ModePolicy::hybrid());
    et.run_from_roots(&tagged);
    let mut es = Engine::new(Cc::new(), ModePolicy::hybrid());
    es.run_from_roots(&seed);
    assert_eq!(et.values(), es.values(), "CC diverged");
}

#[test]
fn snapshot_recover_rebuilds_tags_with_all_three_tiers_live() {
    let dir = std::env::temp_dir().join(format!("gtinker_probe_snap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let cfg = tagged_config(DeleteMode::DeleteOnly).tiers(2, 12, 6);
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
    assert!(back.config().probe_tags, "probe flag must survive the round-trip");
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
