//! The batch-boundary equivalence oracle for delta-driven incremental
//! analytics: after **every** batch of a randomized insert/delete/churn
//! stream, the invalidate-and-repair runner's state must equal a cold
//! fixpoint computed from scratch on the same store — depths, distances
//! and labels exactly, PageRank within tolerance — and every witness
//! parent must still justify its child's value over a live edge.
//!
//! Dimensions swept: both delete modes, sequential `GraphTinker` and the
//! pooled `ParallelTinker`, uniform and Zipf-skewed endpoint draws,
//! default tiers and paper layout; plus the adversarial deletions that break
//! naive monotone-incremental engines (bridge cuts that split a
//! component, removing the sole shortest path, delete-then-reinsert
//! inside one batch).

use gtinker_core::{GraphTinker, ParallelTinker};
use gtinker_engine::{
    algorithms::{Bfs, Cc, IncrementalPageRank, PageRank, Sssp},
    dynamic::symmetrize,
    DynamicRunner, Engine, GraphStore, IncrementalState, ModePolicy, RestartPolicy, NO_WITNESS,
};
use gtinker_integration::{assert_shards_valid, assert_valid};
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VERTICES: u32 = 96;
const BATCHES: usize = 24;
const OPS_PER_BATCH: usize = 120;

/// Endpoint distribution of the generated stream.
#[derive(Clone, Copy)]
enum Skew {
    Uniform,
    /// Power-law-ish: low ids are drawn far more often, concentrating
    /// churn on hub vertices (and on the witness forests rooted there).
    Zipf,
}

fn draw(rng: &mut StdRng, skew: Skew) -> u32 {
    match skew {
        Skew::Uniform => rng.gen_range(0..VERTICES),
        Skew::Zipf => {
            let u = rng.gen_range(0..1_000_000u32) as f64 / 1e6;
            ((VERTICES as f64 - 1.0) * u * u * u) as u32
        }
    }
}

/// Randomized churn stream: ~70% inserts (weight 1..20 so SSSP trees are
/// non-trivial), ~30% deletes of a uniformly random pair — most deletes
/// hit live edges once the graph warms up, many of them witness edges.
fn stream(seed: u64, skew: Skew, symmetric: bool) -> Vec<EdgeBatch> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..BATCHES)
        .map(|_| {
            let mut b = EdgeBatch::new();
            for _ in 0..OPS_PER_BATCH {
                let src = draw(&mut rng, skew);
                let dst = draw(&mut rng, skew);
                if rng.gen_bool(0.3) {
                    b.push_delete(src, dst);
                } else {
                    b.push_insert(Edge::new(src, dst, rng.gen_range(1..20)));
                }
            }
            if symmetric {
                symmetrize(&b)
            } else {
                b
            }
        })
        .collect()
}

/// Cold fixpoint of `program` on the store as it stands right now.
fn cold<P, S>(program: P, store: &S) -> Vec<P::Value>
where
    P: IncrementalState + Copy,
    S: GraphStore + Sync,
{
    let mut e = Engine::new(program, ModePolicy::hybrid());
    e.run_from_roots(store);
    e.values().to_vec()
}

/// Witness-validity oracle: every vertex holding a non-default value must
/// either be a root of its program's forest or carry a witness parent
/// whose edge is live in the store and whose value re-derives the child's.
fn check_witnesses<P, S>(runner: &DynamicRunner<P>, store: &S)
where
    P: IncrementalState + Copy,
    S: GraphStore + Sync,
{
    let program = *runner.engine().program();
    let values = runner.engine().values();
    let witness = runner.engine().witness();
    assert_eq!(values.len(), witness.len());
    for v in 0..values.len() as u32 {
        let w = witness[v as usize];
        if w == NO_WITNESS {
            continue; // roots and untouched defaults witness themselves
        }
        let mut weight = None;
        store.for_each_out_edge(w, |d, ew| {
            if d == v {
                weight = Some(ew);
            }
        });
        let weight = weight.unwrap_or_else(|| panic!("witness edge {w}->{v} is dead in the store"));
        assert!(
            program.witness_holds(values[w as usize], v, values[v as usize], weight),
            "witness invariant broken at {v} (parent {w})"
        );
    }
}

// ---------------------------------------------------------------------
// Sequential GraphTinker, both delete modes, default and paper layouts.
// ---------------------------------------------------------------------

fn tinker_sweep<P: IncrementalState + Copy>(program: P, seed: u64, skew: Skew, symmetric: bool)
where
    P::Value: std::fmt::Debug + PartialEq,
{
    for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
        for (layout, cfg) in
            [("default", TinkerConfig::default()), ("paper", TinkerConfig::paper())]
        {
            let mut g = GraphTinker::new(cfg.delete_mode(mode)).unwrap();
            let batches = stream(seed, skew, symmetric);
            let label = format!("tinker mode={mode:?} layout={layout}");
            let mut runner =
                DynamicRunner::new(program, ModePolicy::hybrid(), RestartPolicy::Incremental);
            for (k, b) in batches.iter().enumerate() {
                g.apply_batch(b);
                assert_valid(&g, &format!("{label} batch {k}"));
                runner.after_batch(&g, b);
                let want = cold(program, &g);
                assert_eq!(
                    runner.engine().values(),
                    &want[..],
                    "{label}: diverged after batch {k}"
                );
                check_witnesses(&runner, &g);
            }
        }
    }
}

#[test]
fn bfs_uniform_churn_equals_cold() {
    tinker_sweep(Bfs::new(0), 0x1CEB00, Skew::Uniform, false);
}

#[test]
fn bfs_zipf_churn_equals_cold() {
    tinker_sweep(Bfs::new(0), 0x1CEB01, Skew::Zipf, false);
}

#[test]
fn sssp_uniform_churn_equals_cold() {
    tinker_sweep(Sssp::new(0), 0x55B00, Skew::Uniform, false);
}

#[test]
fn sssp_zipf_churn_equals_cold() {
    tinker_sweep(Sssp::new(0), 0x55B01, Skew::Zipf, false);
}

#[test]
fn cc_uniform_churn_equals_cold() {
    tinker_sweep(Cc::new(), 0xCC00, Skew::Uniform, true);
}

#[test]
fn cc_zipf_churn_equals_cold() {
    tinker_sweep(Cc::new(), 0xCC01, Skew::Zipf, true);
}

// ---------------------------------------------------------------------
// Pooled ParallelTinker: the sharded analytics path under repair.
// ---------------------------------------------------------------------

#[test]
fn pooled_store_bfs_equals_cold() {
    let pool = ParallelTinker::new(TinkerConfig::default(), 3).unwrap();
    let mut runner =
        DynamicRunner::new(Bfs::new(0), ModePolicy::hybrid(), RestartPolicy::Incremental);
    for (k, b) in stream(0xB00, Skew::Uniform, false).iter().enumerate() {
        pool.apply_batch(b);
        assert_shards_valid(&pool, &format!("pooled bfs batch {k}"));
        runner.after_batch(&pool, b);
        let want = cold(Bfs::new(0), &pool);
        assert_eq!(runner.engine().values(), &want[..], "pooled bfs batch {k}");
        check_witnesses(&runner, &pool);
    }
}

#[test]
fn pooled_paper_layout_cc_equals_cold() {
    let pool = ParallelTinker::new(TinkerConfig::paper(), 3).unwrap();
    let mut runner =
        DynamicRunner::new(Cc::new(), ModePolicy::hybrid(), RestartPolicy::Incremental);
    for (k, b) in stream(0xCCCC, Skew::Zipf, true).iter().enumerate() {
        pool.apply_batch(b);
        assert_shards_valid(&pool, &format!("pooled cc batch {k}"));
        runner.after_batch(&pool, b);
        let want = cold(Cc::new(), &pool);
        assert_eq!(runner.engine().values(), &want[..], "pooled cc batch {k}");
        check_witnesses(&runner, &pool);
    }
}

// ---------------------------------------------------------------------
// PageRank: warm-started re-solves agree with cold solves to tolerance.
// ---------------------------------------------------------------------

#[test]
fn pagerank_incremental_within_tolerance() {
    let tol = 1e-9;
    let pr = PageRank::new(0.85, 500);
    let mut inc = IncrementalPageRank::new(pr, tol);
    let mut g = GraphTinker::with_defaults();
    for (k, b) in stream(0xFA6E, Skew::Zipf, false).iter().enumerate() {
        g.apply_batch(b);
        assert_valid(&g, &format!("pagerank batch {k}"));
        inc.after_batch(&g);
        let (want, _) = pr.run_with_tolerance(&g, None, tol);
        for (v, (x, y)) in want.iter().zip(inc.ranks()).enumerate() {
            assert!((x - y).abs() < 1e-6, "batch {k}: rank[{v}] {y} vs cold {x}");
        }
    }
}

// ---------------------------------------------------------------------
// Adversarial deletions (the cases that break monotone-only engines).
// ---------------------------------------------------------------------

#[test]
fn adversarial_deletions_equal_cold() {
    // Bridge cut: two chains joined by one edge; cutting it must split
    // the CC labels and unreach the far BFS side.
    let base: Vec<Edge> = (0..10u32).map(|i| Edge::unit(i, i + 1)).collect();
    let b1 = symmetrize(&EdgeBatch::inserts(&base));
    let mut g = GraphTinker::with_defaults();
    g.apply_batch(&b1);
    assert_valid(&g, "after b1");
    let mut cc = DynamicRunner::new(Cc::new(), ModePolicy::hybrid(), RestartPolicy::Incremental);
    cc.after_batch(&g, &b1);
    let mut cut = EdgeBatch::new();
    cut.push_delete(5, 6);
    let cut = symmetrize(&cut);
    g.apply_batch(&cut);
    assert_valid(&g, "after cut");
    cc.after_batch(&g, &cut);
    assert_eq!(cc.engine().values(), &cold(Cc::new(), &g)[..]);
    assert_eq!(cc.engine().values()[10], 6, "far side must re-anchor at 6");

    // Sole shortest path: delete the only cheap route; distances must rise
    // to the expensive detour, not keep the stale optimum.
    let b1 = EdgeBatch::inserts(&[Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(0, 2, 50)]);
    let mut g = GraphTinker::with_defaults();
    g.apply_batch(&b1);
    assert_valid(&g, "after b1");
    let mut sp = DynamicRunner::new(Sssp::new(0), ModePolicy::hybrid(), RestartPolicy::Incremental);
    sp.after_batch(&g, &b1);
    assert_eq!(sp.engine().values()[2], 2);
    let mut b2 = EdgeBatch::new();
    b2.push_delete(1, 2);
    g.apply_batch(&b2);
    assert_valid(&g, "after b2");
    sp.after_batch(&g, &b2);
    assert_eq!(sp.engine().values(), &cold(Sssp::new(0), &g)[..]);
    assert_eq!(sp.engine().values()[2], 50);

    // Delete-then-reinsert in one batch: net no-op must stay exact.
    let b1 = EdgeBatch::inserts(&[Edge::unit(0, 1), Edge::unit(1, 2), Edge::unit(2, 3)]);
    let mut g = GraphTinker::with_defaults();
    g.apply_batch(&b1);
    assert_valid(&g, "after b1");
    let mut bf = DynamicRunner::new(Bfs::new(0), ModePolicy::hybrid(), RestartPolicy::Incremental);
    bf.after_batch(&g, &b1);
    let mut b2 = EdgeBatch::new();
    b2.push_delete(1, 2);
    b2.push_insert(Edge::unit(1, 2));
    b2.push_delete(2, 3); // and one real deletion alongside the churn
    g.apply_batch(&b2);
    assert_valid(&g, "after b2");
    bf.after_batch(&g, &b2);
    assert_eq!(bf.engine().values(), &cold(Bfs::new(0), &g)[..]);
    assert_eq!(bf.engine().values()[2], 2, "reinserted edge keeps 2 reachable");
    assert_eq!(bf.engine().values()[3], Bfs::UNREACHED);
}

// ---------------------------------------------------------------------
// Deletion-heavy soak: drain most of the graph back out, batch by batch.
// ---------------------------------------------------------------------

#[test]
fn drain_heavy_stream_equals_cold() {
    let mut rng = StdRng::seed_from_u64(0xD7A1);
    let edges: Vec<Edge> = (0..600)
        .map(|_| {
            Edge::new(rng.gen_range(0..VERTICES), rng.gen_range(0..VERTICES), rng.gen_range(1..10))
        })
        .collect();
    let mut g = GraphTinker::with_defaults();
    let b1 = EdgeBatch::inserts(&edges);
    g.apply_batch(&b1);
    assert_valid(&g, "after b1");
    let mut runner =
        DynamicRunner::new(Bfs::new(0), ModePolicy::hybrid(), RestartPolicy::Incremental);
    runner.after_batch(&g, &b1);
    // Delete the inserted edges in random order, 40 per batch.
    let mut order = edges.clone();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for (k, chunk) in order.chunks(40).enumerate() {
        let mut b = EdgeBatch::new();
        for e in chunk {
            b.push_delete(e.src, e.dst);
        }
        g.apply_batch(&b);
        assert_valid(&g, "after b");
        runner.after_batch(&g, &b);
        assert_eq!(
            runner.engine().values(),
            &cold(Bfs::new(0), &g)[..],
            "drain batch {k} diverged"
        );
        check_witnesses(&runner, &g);
    }
    assert_eq!(g.num_edges(), 0, "everything drained");
}
