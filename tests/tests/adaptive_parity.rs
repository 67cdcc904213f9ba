//! Tier parity: the default degree-adaptive store must be observationally
//! identical to the paper's fixed-geometry store (`TinkerConfig::paper()`,
//! the oracle here) on any update stream. The tiered layout changes
//! *where* adjacency lives (inline entry, RHH edgeblocks, dense hub
//! segment with lazily deleted slots) but never *what* the store contains,
//! so edge sets, degrees, and every analytic must match exactly — across
//! mixed insert/delete churn that crosses the promotion and demotion
//! thresholds repeatedly, on the sequential and pooled paths, in both
//! delete modes, and through a snapshot/recover round-trip with all three
//! tiers live. Each suite runs at the shipped 4 / 128 / 64 thresholds and
//! on a tiny geometry whose 2 / 12 / 6 thresholds flap far more often. A
//! degree sweep walks a few vertices up through every page-width class of
//! the edgeblock tier into the hub tier and back down through both
//! demotions, against the same oracle.

use gtinker_core::{GraphStore, GraphTinker, ParallelTinker};
use gtinker_datasets::{churn_batches, SourceSkewConfig};
use gtinker_engine::{
    algorithms::{Bfs, Cc},
    dynamic::symmetrize,
    Engine, ModePolicy,
};
use gtinker_persist::{recover_tinker, write_tinker_snapshot};
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig};

/// Tiny geometry + low thresholds: a few dozen edges per hub are enough to
/// drive inline -> blocks -> hub promotions (and the reverse on deletes).
fn tiny_tiered(mode: DeleteMode) -> TinkerConfig {
    tiny_paper(mode).tiers(2, 12, 6)
}

fn tiny_paper(mode: DeleteMode) -> TinkerConfig {
    TinkerConfig {
        pagewidth: 16,
        subblock: 4,
        workblock: 2,
        delete_mode: mode,
        ..TinkerConfig::paper()
    }
}

/// `(tiered layout under test, fixed-geometry oracle)` pairs: the shipped
/// default against the paper layout, and the tiny variants of both.
fn layouts(mode: DeleteMode) -> [(TinkerConfig, TinkerConfig); 2] {
    [
        (TinkerConfig::default().delete_mode(mode), TinkerConfig::paper().delete_mode(mode)),
        (tiny_tiered(mode), tiny_paper(mode)),
    ]
}

/// A hub-heavy stream with interleaved deletes of earlier edges, then a
/// drain of four edges in five so every hub falls back through its
/// demotion threshold (and its segment through forced compactions).
fn churn_stream(seed: u64) -> Vec<EdgeBatch> {
    let edges =
        SourceSkewConfig { num_vertices: 512, num_edges: 20_000, theta: 1.0, seed, max_weight: 16 }
            .generate();
    let mut batches = churn_batches(&edges, 1_000, 3, seed);
    let drained: Vec<&Edge> =
        edges.iter().enumerate().filter(|(i, _)| i % 5 != 0).map(|p| p.1).collect();
    for chunk in drained.chunks(1_000) {
        let mut b = EdgeBatch::new();
        for e in chunk {
            b.push_delete(e.src, e.dst);
        }
        batches.push(b);
    }
    batches
}

fn assert_invariants(g: &GraphTinker, what: &str) {
    g.validate_rhh_invariants().unwrap_or_else(|e| panic!("{what}: RHH invariant: {e}"));
    g.validate_tag_invariants().unwrap_or_else(|e| panic!("{what}: tag invariant: {e}"));
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
fn default_matches_paper_under_churn_both_delete_modes() {
    for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
        for (tiered_cfg, paper_cfg) in layouts(mode) {
            let what =
                format!("{mode:?}, tiers {}/{}", tiered_cfg.inline_cap, tiered_cfg.hub_promote);
            let batches = churn_stream(41);
            let mut paper = GraphTinker::new(paper_cfg).unwrap();
            let mut tiered = GraphTinker::new(tiered_cfg).unwrap();
            let (mut peak_hubs, mut peak_dead) = (0, 0);
            for b in &batches {
                let rp = paper.apply_batch(b);
                let rt = tiered.apply_batch(b);
                assert_eq!(rp, rt, "batch outcome diverged ({what})");
                assert_invariants(&tiered, &what);
                assert_invariants(&paper, &what);
                let st = tiered.structure_stats();
                peak_hubs = peak_hubs.max(st.tier_hub_vertices);
                peak_dead = peak_dead.max(st.hub_dead_slots);
            }
            assert_eq!(paper.num_edges(), tiered.num_edges(), "{what}");
            assert_eq!(tinker_edges(&paper), tinker_edges(&tiered), "{what}");
            for src in 0..512u32 {
                assert_eq!(
                    paper.out_degree(src),
                    tiered.out_degree(src),
                    "degree of {src} diverged ({what})"
                );
                assert_eq!(
                    edge_set(&|f| paper.for_each_out_edge(src, &mut |d, w| f(src, d, w))),
                    edge_set(&|f| tiered.for_each_out_edge(src, &mut |d, w| f(src, d, w))),
                    "adjacency of {src} diverged ({what})"
                );
            }
            let st = tiered.structure_stats();
            assert!(st.tier_promotions > 0, "stream never promoted ({what}): {st:?}");
            assert!(st.tier_demotions > 0, "stream never demoted ({what}): {st:?}");
            assert!(peak_hubs > 0 && peak_dead > 0, "no hub ever held a dead slot ({what})");
            assert!(st.tier_inline_vertices > 0, "final state must hold inline vertices: {st:?}");
            let stp = paper.structure_stats();
            assert_eq!(stp.tier_promotions, 0, "paper layout must not tier");
            assert_eq!(stp.tier_inline_vertices + stp.tier_hub_vertices + stp.hub_dead_slots, 0);
        }
    }
}

/// A handful of vertices climb in lock step from degree 0 past the hub
/// threshold and back to 0: on the way up each crosses inline → blocks,
/// every page-width class boundary and blocks → hub, on the way down
/// hub → blocks and blocks → inline. After every step the tiered store
/// equals the fixed-geometry oracle, and every class held blocks at some
/// point.
#[test]
fn degree_sweep_crosses_every_class_boundary_and_both_demotions() {
    for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
        for (tiered_cfg, paper_cfg) in layouts(mode) {
            let what = format!("{mode:?}, pagewidth {}", tiered_cfg.pagewidth);
            let mut paper = GraphTinker::new(paper_cfg).unwrap();
            let mut tiered = GraphTinker::new(tiered_cfg).unwrap();
            let peak = tiered_cfg.hub_promote * 3 / 2;
            let mut classes_seen = [false; 3];
            let mut step = |b: EdgeBatch, paper: &mut GraphTinker, tiered: &mut GraphTinker| {
                assert_eq!(paper.apply_batch(&b), tiered.apply_batch(&b), "{what}");
                assert_invariants(tiered, &what);
                assert_eq!(tinker_edges(paper), tinker_edges(tiered), "{what}");
                for (seen, class) in
                    classes_seen.iter_mut().zip(tiered.structure_stats().block_classes)
                {
                    *seen |= class.blocks > 0;
                }
            };
            for d in 0..peak {
                let edges: Vec<Edge> =
                    (0..5).map(|s| Edge::new(s, 1_000 + d * 7 + s, d + 1)).collect();
                step(EdgeBatch::inserts(&edges), &mut paper, &mut tiered);
            }
            let st = tiered.structure_stats();
            assert_eq!(st.tier_hub_vertices, 5, "{what}: {st:?}");
            for d in 0..peak {
                let mut b = EdgeBatch::new();
                (0..5).for_each(|s| b.push_delete(s, 1_000 + d * 7 + s));
                step(b, &mut paper, &mut tiered);
            }
            let st = tiered.structure_stats();
            assert_eq!(tiered.num_edges(), 0, "{what}");
            assert!(st.tier_demotions >= 10, "both demotions per vertex ({what}): {st:?}");
            let classes = st.block_classes.iter().filter(|c| c.width > 0).count();
            assert!(classes >= 2, "{what}: {st:?}");
            assert!(classes_seen[..classes].iter().all(|&s| s), "{what}: {classes_seen:?}");
        }
    }
}

#[test]
fn pooled_default_matches_sequential_paper() {
    for (tiered_cfg, paper_cfg) in layouts(DeleteMode::DeleteOnly) {
        let batches = churn_stream(42);
        let mut seq = GraphTinker::new(paper_cfg).unwrap();
        let par = ParallelTinker::new(tiered_cfg, 4).unwrap();
        for b in &batches {
            seq.apply_batch(b);
            par.apply_batch(b);
        }
        assert_eq!(par.num_edges(), seq.num_edges());
        assert_eq!(edge_set(&|f| par.stream_edges(f)), tinker_edges(&seq));
        // The pipelined submit/flush path hits the same tier code.
        let pipe = ParallelTinker::new(tiered_cfg, 3).unwrap();
        for b in churn_stream(42) {
            pipe.submit(b);
        }
        pipe.flush();
        assert_eq!(edge_set(&|f| pipe.stream_edges(f)), tinker_edges(&seq));
    }
}

#[test]
fn bfs_and_cc_identical_across_layouts() {
    let edges = SourceSkewConfig {
        num_vertices: 256,
        num_edges: 6_000,
        theta: 1.0,
        seed: 43,
        max_weight: 8,
    }
    .generate();
    let batch = EdgeBatch::inserts(&edges);
    let root = edges[0].src;

    for (tiered_cfg, paper_cfg) in layouts(DeleteMode::DeleteOnly) {
        let mut paper = GraphTinker::new(paper_cfg).unwrap();
        let mut tiered = GraphTinker::new(tiered_cfg).unwrap();
        paper.apply_batch(&batch);
        tiered.apply_batch(&batch);
        assert!(tiered.structure_stats().tier_hub_vertices > 0, "need hub-tier coverage");

        for policy in [ModePolicy::AlwaysFull, ModePolicy::hybrid()] {
            let mut ep = Engine::new(Bfs::new(root), policy);
            ep.run_from_roots(&paper);
            let mut et = Engine::new(Bfs::new(root), policy);
            et.run_from_roots(&tiered);
            assert_eq!(ep.values(), et.values(), "BFS diverged under {policy:?}");
        }

        // CC over symmetrized copies (undirected semantics).
        let sym = symmetrize(&batch);
        let mut paper = GraphTinker::new(paper_cfg).unwrap();
        let mut tiered = GraphTinker::new(tiered_cfg).unwrap();
        paper.apply_batch(&sym);
        tiered.apply_batch(&sym);
        let mut ep = Engine::new(Cc::new(), ModePolicy::hybrid());
        ep.run_from_roots(&paper);
        let mut et = Engine::new(Cc::new(), ModePolicy::hybrid());
        et.run_from_roots(&tiered);
        assert_eq!(ep.values(), et.values(), "CC diverged");
    }
}

#[test]
fn snapshot_recover_roundtrip_preserves_all_three_tiers() {
    let dir = std::env::temp_dir().join(format!("gtinker_adaptive_snap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let cfg = tiny_tiered(DeleteMode::DeleteOnly);
    let mut g = GraphTinker::new(cfg).unwrap();
    // Hub (20 edges > promote threshold 12), blocks (5), inline (1).
    for d in 0..20u32 {
        g.insert_edge(Edge::new(0, d + 100, d + 1));
    }
    for d in 0..5u32 {
        g.insert_edge(Edge::new(1, d + 100, d + 1));
    }
    g.insert_edge(Edge::new(2, 100, 7));
    let before = g.structure_stats();
    assert_eq!(
        (before.tier_inline_vertices, before.tier_blocks_vertices, before.tier_hub_vertices),
        (1, 1, 1)
    );

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
    std::fs::remove_dir_all(&dir).ok();
}
