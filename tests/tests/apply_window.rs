//! Window equivalence: `GraphTinker::apply_batch` runs a read-only
//! resolve-ahead window in front of its execute cursor and carries each
//! op's dense source id from resolve to execution. None of that may show:
//! a store fed `apply_batch(batch)` and one fed the same ops through
//! `insert_edge` / `delete_edge` must be indistinguishable after every
//! batch — outcome counts, SGH arrival order, the CAL stream, the main
//! structure's scan order, structure statistics and every probe counter.
//!
//! The generators aim at what a window can get wrong rather than at the
//! average stream: sources that become known, change tier or move while an
//! op that resolved earlier is still in flight, and batch lengths around
//! the window's edges.

use gtinker_core::{BatchResult, GraphTinker};
use gtinker_datasets::{churn_batches, SourceSkewConfig};
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig, UpdateOp};

/// The resolve-ahead distance of `core/src/tinker.rs` (`WINDOW`); an op is
/// resolved `3 * D` ops before it executes.
const D: usize = 8;

/// Every layout the window reads differently: the tiered default, the
/// paper's fixed geometry (no tier vectors), raw source ids (no SGH), no
/// CAL, and a tiny geometry whose 2 / 12 / 6 thresholds and 16-cell
/// blocks flap tiers and branch out within a handful of ops — each in
/// both delete modes.
fn configs() -> Vec<(String, TinkerConfig)> {
    let tiny = TinkerConfig { pagewidth: 16, subblock: 4, workblock: 2, ..TinkerConfig::paper() };
    let layouts = [
        ("default", TinkerConfig::default()),
        ("paper", TinkerConfig::paper()),
        ("no-sgh", TinkerConfig::default().sgh(false)),
        ("no-cal", TinkerConfig::default().cal(false)),
        ("tiny-tiered", tiny.tiers(2, 12, 6)),
    ];
    let mut out = Vec::new();
    for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
        for (name, cfg) in layouts {
            out.push((format!("{name}, {mode:?}"), cfg.delete_mode(mode)));
        }
    }
    out
}

fn stream(g: &GraphTinker, main: bool) -> Vec<(u32, u32, u32)> {
    let mut v = Vec::new();
    if main {
        g.for_each_edge_main(|s, d, w| v.push((s, d, w)));
    } else {
        g.for_each_edge(|s, d, w| v.push((s, d, w)));
    }
    v
}

fn assert_indistinguishable(batched: &GraphTinker, single: &GraphTinker, what: &str) {
    assert_eq!(batched.sources(), single.sources(), "SGH order ({what})");
    assert_eq!(stream(batched, false), stream(single, false), "for_each_edge order ({what})");
    assert_eq!(stream(batched, true), stream(single, true), "main scan order ({what})");
    assert_eq!(batched.structure_stats(), single.structure_stats(), "structure ({what})");
    assert_eq!(batched.stats(), single.stats(), "probe stats ({what})");
    assert_eq!(batched.vertex_space(), single.vertex_space(), "vertex space ({what})");
    for g in [batched, single] {
        g.validate_rhh_invariants().unwrap_or_else(|e| panic!("{what}: RHH invariant: {e}"));
        g.validate_tag_invariants().unwrap_or_else(|e| panic!("{what}: tag invariant: {e}"));
    }
}

/// Feeds `batches` to two stores of every config, one through the window
/// and one op at a time, comparing after each batch.
fn check(name: &str, batches: &[EdgeBatch]) {
    for (cfg_name, cfg) in configs() {
        let mut batched = GraphTinker::new(cfg).unwrap();
        let mut single = GraphTinker::new(cfg).unwrap();
        for (i, batch) in batches.iter().enumerate() {
            let what = format!("{name}, batch {i} of {} ops, {cfg_name}", batch.len());
            let got = batched.apply_batch(batch);
            let mut want = BatchResult::default();
            for op in batch.ops() {
                match *op {
                    UpdateOp::Insert(e) if single.insert_edge(e) => want.inserted += 1,
                    UpdateOp::Insert(_) => want.updated += 1,
                    UpdateOp::Delete { src, dst } if single.delete_edge(src, dst) => {
                        want.deleted += 1
                    }
                    UpdateOp::Delete { .. } => want.not_found += 1,
                }
            }
            assert_eq!(got, want, "batch outcome ({what})");
            assert_indistinguishable(&batched, &single, &what);
        }
    }
}

fn batch_of(ops: impl IntoIterator<Item = UpdateOp>) -> EdgeBatch {
    let mut b = EdgeBatch::new();
    ops.into_iter().for_each(|op| b.push(op));
    b
}

fn ins(src: u32, dst: u32, weight: u32) -> UpdateOp {
    UpdateOp::Insert(Edge::new(src, dst, weight))
}

fn del(src: u32, dst: u32) -> UpdateOp {
    UpdateOp::Delete { src, dst }
}

/// Inserts on `n` sources nobody else uses, to pad a batch so that the
/// ops of interest sit at a chosen distance.
fn filler(base: u32, n: usize) -> impl Iterator<Item = UpdateOp> {
    (0..n as u32).map(move |i| ins(base + i, base + i + 1, 1))
}

#[test]
fn source_first_seen_inside_the_window_then_deleted_and_reinserted() {
    // Every op on source 7 resolves before the first of them executes, so
    // all of them carry "unknown" and each must find what the previous
    // one left.
    for gap in [0, 1, D - 1, D, 3 * D - 4] {
        let ops = filler(100, 2)
            .chain([ins(7, 1, 5)])
            .chain(filler(200, gap))
            .chain([del(7, 1), del(7, 1), ins(7, 1, 6), ins(7, 2, 1), ins(7, 1, 9)])
            .chain(filler(300, 3 * D));
        check(&format!("first seen in window, gap {gap}"), &[batch_of(ops)]);
    }
}

#[test]
fn delete_of_an_unknown_source_then_its_first_insert() {
    for gap in [0, D - 2, D - 1, D, 3 * D - 1, 3 * D] {
        let ops = [del(9, 4)]
            .into_iter()
            .chain(filler(100, gap))
            .chain([ins(9, 4, 2), del(9, 5), del(9, 4), del(9, 4)])
            .chain(filler(400, 5));
        check(&format!("delete before first insert, gap {gap}"), &[batch_of(ops)]);
    }
}

#[test]
fn insert_delete_insert_of_one_edge_inside_the_window() {
    // On a source already known (carried id) and already past the inline
    // tier (so stage 3 warms the very cell that is being flipped), and on
    // a fresh one.
    let warmup = batch_of((0..6).map(|d| ins(3, 50 + d, 1)));
    for spacing in [0, 1, D / 2 - 1] {
        let pad = |base| filler(base, spacing);
        let ops = [ins(3, 77, 1)]
            .into_iter()
            .chain(pad(100))
            .chain([del(3, 77)])
            .chain(pad(200))
            .chain([ins(3, 77, 8), ins(5, 77, 1)])
            .chain(pad(300))
            .chain([del(5, 77), ins(5, 77, 3), del(3, 50), ins(3, 50, 4)]);
        check(&format!("flip one edge, spacing {spacing}"), &[warmup.clone(), batch_of(ops)]);
    }
}

#[test]
fn one_vertex_through_every_tier_inside_one_window() {
    // tiny-tiered (2 / 12 / 6): 12 inserts walk inline -> blocks -> hub,
    // 7 deletes fall back to blocks, and ops resolved while the vertex was
    // still inline execute against each later tier — 23 ops, within the
    // 3 * D in flight. The other configs see the same ops on one tier.
    let ops = |src: u32| {
        (0..12)
            .map(move |d| ins(src, 100 + d, d + 1))
            .chain((0..7).map(move |d| del(src, 100 + d)))
            .chain([ins(src, 100, 9), ins(src, 111, 2), del(src, 110), ins(src, 300, 1)])
    };
    assert!(ops(1).count() < 3 * D);
    // Unknown when the window resolves it ...
    check("tier walk, fresh vertex", &[batch_of(ops(1))]);
    // ... and known, with its inline entry warmed and its dense id carried.
    let known = batch_of([ins(1, 5, 1), ins(2, 5, 1)]);
    check("tier walk, known vertex", &[known.clone(), batch_of(ops(1))]);
    // Two vertices interleaved, so consecutive ops alternate tiers.
    let both = ops(1).zip(ops(2)).flat_map(|(a, b)| [a, b]);
    check("tier walk, two vertices interleaved", &[known, batch_of(both)]);
}

#[test]
fn sgh_growth_in_the_middle_of_the_window() {
    // The SGH starts with 1024 slots and doubles at 3/4 load. Ops on
    // already-registered sources are resolved before the growth and run
    // after it, with new sources registering all around them.
    let known: Vec<u32> = (0..700).map(|i| i * 3 + 1).collect();
    let first = batch_of(known.iter().map(|&s| ins(s, s + 1, 1)));
    let mut ops = Vec::new();
    for i in 0..400u32 {
        ops.push(ins(10_000 + i, i, 1));
        let s = known[(i as usize * 7) % known.len()];
        ops.push(if i % 3 == 0 { del(s, s + 1) } else { ins(s, s + 2 + i % 5, i) });
        if i % 5 == 0 {
            ops.push(del(10_000 + i, i));
        }
    }
    check("SGH grow mid-window", &[first, batch_of(ops)]);
}

#[test]
fn batch_lengths_around_the_window_edges() {
    let edges =
        SourceSkewConfig { num_vertices: 64, num_edges: 400, theta: 0.8, seed: 5, max_weight: 9 }
            .generate();
    let mut at = 0;
    let mut batches = Vec::new();
    // Each length twice: once on a near-empty store, once with every
    // source known. Every third op deletes an edge inserted a while ago.
    for round in 0..2 {
        for len in [0, 1, D - 1, D, D + 1, 3 * D - 1, 3 * D, 3 * D + 1] {
            let mut b = EdgeBatch::new();
            for _ in 0..len {
                let e = edges[at % edges.len()];
                if at % 3 == 2 {
                    let old = edges[(at + edges.len() - 20) % edges.len()];
                    b.push_delete(old.src, old.dst);
                } else {
                    b.push_insert(e);
                }
                at += 1;
            }
            assert_eq!(b.len(), len);
            batches.push(b);
        }
        assert!(round == 1 || at < edges.len());
    }
    check("window-edge lengths", &batches);
}

#[test]
fn ten_thousand_op_churn_batches() {
    // Hub-heavy 50/50 churn in the benchmark's batch size: promotions,
    // demotions, branch-outs, tombstone reuse and hub merges all happen
    // with a full window in flight.
    let edges = SourceSkewConfig {
        num_vertices: 2_000,
        num_edges: 30_000,
        theta: 1.0,
        seed: 17,
        max_weight: 16,
    }
    .generate();
    let mut batches = churn_batches(&edges, 10_000, 2, 17);
    let mut drain = EdgeBatch::new();
    for e in edges.iter().step_by(2) {
        drain.push_delete(e.src, e.dst);
        drain.push_insert(e.reversed());
    }
    batches.push(drain);
    assert!(batches.iter().any(|b| b.len() >= 10_000));
    check("10k churn", &batches);
}
