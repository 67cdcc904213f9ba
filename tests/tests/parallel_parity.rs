//! Parallel/sequential parity: the sharded processing phase must produce
//! exactly the results of a single-shard run — same algorithms, same
//! policies — because shards 1..n are folded in shard order through the
//! programs' commutative, associative `reduce`. The sharded stores are the
//! interval-partitioned ones (`ParallelTinker`, `ParallelStinger`), one
//! shard per instance; the baseline is a plain `GraphTinker`. PageRank
//! (f64 sums, not associative) gets a tight tolerance instead.

use gtinker_core::{GraphTinker, ParallelTinker};
use gtinker_datasets::RmatConfig;
use gtinker_engine::{
    algorithms::{Bfs, Cc, PageRank, Sssp},
    dynamic::symmetrize,
    DynamicRunner, Engine, GraphStore, ModePolicy, RestartPolicy,
};
use gtinker_stinger::ParallelStinger;
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 4];

fn rmat(scale: u32, edges: u64, seed: u64) -> Vec<Edge> {
    RmatConfig::graph500(scale, edges, seed).generate()
}

fn modes() -> [ModePolicy; 4] {
    [
        ModePolicy::AlwaysFull,
        ModePolicy::AlwaysIncremental,
        ModePolicy::hybrid(),
        ModePolicy::degree_aware(),
    ]
}

fn parallel_tinker(batch: &EdgeBatch, shards: usize) -> ParallelTinker {
    let pt = ParallelTinker::new(TinkerConfig::default(), shards).unwrap();
    pt.apply_batch(batch);
    pt
}

fn parallel_stinger(batch: &EdgeBatch, shards: usize) -> ParallelStinger {
    let ps = ParallelStinger::new(Default::default(), shards).unwrap();
    ps.apply_batch(batch);
    ps
}

/// Runs `make_engine`'s program from roots on a plain `GraphTinker` and on
/// a `ParallelTinker` and a `ParallelStinger` at each shard count,
/// asserting bit-identical vertex values.
fn assert_parity_tinker<P, F>(edges: &[Edge], policy: ModePolicy, make_engine: F)
where
    P: gtinker_engine::GasProgram,
    F: Fn() -> Engine<P>,
{
    let batch = EdgeBatch::inserts(edges);
    let mut seq = GraphTinker::with_defaults();
    seq.apply_batch(&batch);
    let mut base = make_engine();
    base.run_from_roots(&seq);

    for &shards in &SHARD_COUNTS {
        let mut e = make_engine();
        e.run_from_roots(&parallel_tinker(&batch, shards));
        assert_eq!(e.values(), base.values(), "ParallelTinker {shards} shards, {policy:?}");

        let mut e = make_engine();
        e.run_from_roots(&parallel_stinger(&batch, shards));
        assert_eq!(e.values(), base.values(), "ParallelStinger {shards} shards, {policy:?}");
    }
}

#[test]
fn bfs_parallel_matches_sequential_across_stores_and_modes() {
    let edges = rmat(10, 6_000, 71);
    let root = edges[0].src;
    for policy in modes() {
        assert_parity_tinker(&edges, policy, || Engine::new(Bfs::new(root), policy));
    }
}

#[test]
fn sssp_parallel_matches_sequential() {
    let edges = rmat(10, 6_000, 72);
    let root = edges[0].src;
    for policy in modes() {
        assert_parity_tinker(&edges, policy, || Engine::new(Sssp::new(root), policy));
    }
}

#[test]
fn cc_parallel_matches_sequential() {
    // CC wants undirected semantics: symmetrize the batch first.
    let raw = rmat(9, 4_000, 73);
    let sym = symmetrize(&EdgeBatch::inserts(&raw));
    let edges: Vec<Edge> = sym
        .iter()
        .filter_map(|op| match *op {
            gtinker_types::UpdateOp::Insert(e) => Some(e),
            _ => None,
        })
        .collect();
    for policy in modes() {
        assert_parity_tinker(&edges, policy, || Engine::new(Cc::new(), policy));
    }
}

#[test]
fn parallel_tinker_store_is_itself_sharded() {
    // ParallelTinker exposes one shard per instance; the engine's sharded
    // path must agree with a sequential GraphTinker holding the same edges.
    let edges = rmat(10, 6_000, 74);
    let batch = EdgeBatch::inserts(&edges);
    let root = edges[0].src;
    let mut seq = GraphTinker::with_defaults();
    seq.apply_batch(&batch);
    for policy in modes() {
        let mut base = Engine::new(Bfs::new(root), policy);
        base.run_from_roots(&seq);
        for n in [2usize, 4] {
            let pt = ParallelTinker::new(TinkerConfig::default(), n).unwrap();
            pt.apply_batch(&batch);
            assert_eq!(GraphStore::num_shards(&pt), n);
            let mut e = Engine::new(Bfs::new(root), policy);
            e.run_from_roots(&pt);
            assert_eq!(e.values(), base.values(), "ParallelTinker n={n} {policy:?}");
        }
    }
}

#[test]
fn incremental_updates_stay_in_parity_after_deletes() {
    // Drive sequential and sharded runners through the same insert/delete
    // batch stream with incremental restarts; values must stay identical.
    let edges = rmat(10, 8_000, 75);
    let root = edges[0].src;
    let chunks: Vec<EdgeBatch> = edges.chunks(2_000).map(EdgeBatch::inserts).collect();
    // Delete a third of the first chunk afterwards.
    let dels = EdgeBatch::deletes(
        &edges[..2_000].iter().step_by(3).map(|e| (e.src, e.dst)).collect::<Vec<_>>(),
    );
    let stream: Vec<&EdgeBatch> = chunks.iter().chain(std::iter::once(&dels)).collect();

    for policy in modes() {
        let mut g_seq = GraphTinker::with_defaults();
        let mut seq = DynamicRunner::new(Bfs::new(root), policy, RestartPolicy::Incremental);
        let g_par = ParallelTinker::new(TinkerConfig::default(), 4).unwrap();
        let mut par = DynamicRunner::new(Bfs::new(root), policy, RestartPolicy::Incremental);
        // Deletions can orphan previously-reached vertices, which
        // incremental BFS cannot lower; recompute from roots after the
        // delete batch on both sides so the comparison stays meaningful.
        for (i, b) in stream.iter().enumerate() {
            g_seq.apply_batch(b);
            g_par.apply_batch(b);
            if i + 1 == stream.len() {
                seq.engine_mut().run_from_roots(&g_seq);
                par.engine_mut().run_from_roots(&g_par);
            } else {
                seq.after_batch(&g_seq, b);
                par.after_batch(&g_par, b);
            }
            assert_eq!(
                par.engine().values(),
                seq.engine().values(),
                "diverged at batch {i} under {policy:?}"
            );
        }
    }
}

#[test]
fn pagerank_parallel_matches_sequential_within_tolerance() {
    let edges = rmat(10, 6_000, 76);
    let batch = EdgeBatch::inserts(&edges);
    let mut seq = GraphTinker::with_defaults();
    seq.apply_batch(&batch);
    let pr = PageRank::new(0.85, 25);
    let baseline = pr.run(&seq);

    for &shards in &SHARD_COUNTS {
        let ranks = pr.run(&parallel_tinker(&batch, shards));
        assert_eq!(ranks.len(), baseline.len());
        for (v, (a, b)) in baseline.iter().zip(&ranks).enumerate() {
            assert!(
                (a - b).abs() < 1e-12,
                "PageRank diverged at v{v} with {shards} shards: {a} vs {b}"
            );
        }

        let ranks = pr.run(&parallel_stinger(&batch, shards));
        for (a, b) in baseline.iter().zip(&ranks) {
            assert!((a - b).abs() < 1e-12, "ParallelStinger PageRank diverged: {a} vs {b}");
        }
    }
}

/// A mixed insert/delete stream: each round inserts a window of edges,
/// then deletes every third edge of the previous round's window.
fn mixed_stream(edges: &[Edge], rounds: usize) -> Vec<EdgeBatch> {
    let window = edges.len() / rounds;
    let mut stream = Vec::new();
    for r in 0..rounds {
        stream.push(EdgeBatch::inserts(&edges[r * window..(r + 1) * window]));
        if r > 0 {
            let prev = &edges[(r - 1) * window..r * window];
            stream.push(EdgeBatch::deletes(
                &prev.iter().step_by(3).map(|e| (e.src, e.dst)).collect::<Vec<_>>(),
            ));
        }
    }
    stream
}

fn sorted_edges(g: &impl GraphStore) -> Vec<(u32, u32, u32)> {
    let mut v = Vec::new();
    for s in 0..GraphStore::num_shards(g) {
        g.stream_shard_edges(s, &mut |src, dst, w| v.push((src, dst, w)));
    }
    v.sort_unstable();
    v
}

#[test]
fn pooled_pipeline_mixed_stream_matches_sequential_under_both_delete_modes() {
    // The tentpole parity test: a multi-batch insert/delete stream pushed
    // asynchronously through the persistent shard pool must leave exactly
    // the sequential store's edge set, and BFS/CC over the pooled store
    // must match the sequential run — under both delete modes.
    let edges = rmat(10, 8_000, 78);
    let root = edges[0].src;
    let stream = mixed_stream(&edges, 4);
    for delete_mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
        let cfg = TinkerConfig { delete_mode, ..TinkerConfig::default() };
        let mut seq = GraphTinker::new(cfg).unwrap();
        for b in &stream {
            seq.apply_batch(b);
        }
        for n in [2usize, 4] {
            let pt = ParallelTinker::new(cfg, n).unwrap();
            for b in &stream {
                pt.submit(b.clone());
            }
            let res = pt.flush();
            assert!(res.inserted > 0 && res.deleted > 0, "stream exercises both op kinds");
            assert_eq!(pt.num_edges(), seq.num_edges(), "{delete_mode:?} n={n}");
            assert_eq!(sorted_edges(&pt), sorted_edges(&seq), "{delete_mode:?} n={n}");

            let mut base = Engine::new(Bfs::new(root), ModePolicy::hybrid());
            base.run_from_roots(&seq);
            let mut e = Engine::new(Bfs::new(root), ModePolicy::hybrid());
            e.run_from_roots(&pt);
            assert_eq!(e.values(), base.values(), "BFS {delete_mode:?} n={n}");

            let mut base = Engine::new(Cc::new(), ModePolicy::hybrid());
            base.run_from_roots(&seq);
            let mut e = Engine::new(Cc::new(), ModePolicy::hybrid());
            e.run_from_roots(&pt);
            assert_eq!(e.values(), base.values(), "CC {delete_mode:?} n={n}");
        }
    }
}

#[test]
fn dropping_pool_mid_stream_shuts_down_cleanly() {
    // Dropping the store with batches still queued must drain and join the
    // workers (no deadlock, no panic) — for both pooled store kinds.
    let edges = rmat(10, 6_000, 79);
    let chunks: Vec<EdgeBatch> = edges.chunks(500).map(EdgeBatch::inserts).collect();
    let pt = ParallelTinker::new(TinkerConfig::default(), 4).unwrap();
    for b in &chunks {
        pt.submit(b.clone());
    }
    drop(pt); // queued work still in flight

    let ps = ParallelStinger::new(Default::default(), 4).unwrap();
    for b in &chunks {
        ps.submit(b.clone());
    }
    drop(ps);
}

#[test]
fn shard_reports_record_per_shard_times() {
    let edges = rmat(9, 4_000, 77);
    let batch = EdgeBatch::inserts(&edges);
    let mut e = Engine::new(Bfs::new(edges[0].src), ModePolicy::AlwaysFull);
    let report = e.run_from_roots(&parallel_tinker(&batch, 3));
    assert!(!report.iterations.is_empty());
    for it in &report.iterations {
        assert_eq!(it.shard_times.len(), 3, "full iterations run all shards");
    }
    assert_eq!(report.shard_time_totals().len(), 3);

    let mut e = Engine::new(Bfs::new(edges[0].src), ModePolicy::AlwaysFull);
    let report = e.run_from_roots(&parallel_stinger(&batch, 3));
    assert!(report.iterations.iter().all(|it| it.shard_times.len() == 3));

    // A plain store is one shard: one entry per iteration.
    let mut g = GraphTinker::with_defaults();
    g.apply_batch(&batch);
    let mut e = Engine::new(Bfs::new(edges[0].src), ModePolicy::hybrid());
    let report = e.run_from_roots(&g);
    assert!(!report.iterations.is_empty());
    assert!(report.iterations.iter().all(|it| it.shard_times.len() == 1));
    assert_eq!(report.shard_time_totals().len(), 1);
}
