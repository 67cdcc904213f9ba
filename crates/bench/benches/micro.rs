//! Criterion micro-benchmarks for the hot paths of both data structures
//! and the engine: per-operation costs underlying every figure.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gtinker_core::{sgh::SghUnit, GraphStore, GraphTinker, ParallelTinker};
use gtinker_datasets::RmatConfig;
use gtinker_engine::{
    algorithms::{Bfs, PageRank, TriangleCount},
    dynamic::symmetrize,
    CsrSnapshot, Engine, ModePolicy,
};
use gtinker_stinger::Stinger;
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig};

fn workload(edges: u64, seed: u64) -> Vec<Edge> {
    RmatConfig::graph500(13, edges, seed).generate()
}

fn bench_insert(c: &mut Criterion) {
    let edges = workload(50_000, 1);
    let mut group = c.benchmark_group("insert_50k_rmat");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.sample_size(10);

    group.bench_function("graphtinker", |b| {
        b.iter(|| {
            let mut g = GraphTinker::new(TinkerConfig::paper()).unwrap();
            for &e in &edges {
                g.insert_edge(black_box(e));
            }
            black_box(g.num_edges())
        })
    });
    group.bench_function("graphtinker_no_cal", |b| {
        b.iter(|| {
            let mut g = GraphTinker::new(TinkerConfig::paper().cal(false)).unwrap();
            for &e in &edges {
                g.insert_edge(black_box(e));
            }
            black_box(g.num_edges())
        })
    });
    group.bench_function("stinger", |b| {
        b.iter(|| {
            let mut s = Stinger::with_defaults();
            for &e in &edges {
                s.insert_edge(black_box(e));
            }
            black_box(s.num_edges())
        })
    });
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let edges = workload(50_000, 2);
    let mut gt = GraphTinker::new(TinkerConfig::paper()).unwrap();
    gt.apply_batch(&EdgeBatch::inserts(&edges));
    let mut st = Stinger::with_defaults();
    st.apply_batch(&EdgeBatch::inserts(&edges));

    let probes: Vec<(u32, u32)> =
        edges.iter().step_by(7).map(|e| (e.src, e.dst)).take(4_096).collect();
    let mut group = c.benchmark_group("lookup_4k_hits");
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function("graphtinker", |b| {
        b.iter(|| {
            let mut found = 0u32;
            for &(s, d) in &probes {
                found += gt.contains_edge(s, d) as u32;
            }
            black_box(found)
        })
    });
    group.bench_function("stinger", |b| {
        b.iter(|| {
            let mut found = 0u32;
            for &(s, d) in &probes {
                found += st.has_edge(s, d) as u32;
            }
            black_box(found)
        })
    });
    group.finish();
}

fn bench_delete(c: &mut Criterion) {
    let edges = workload(30_000, 3);
    let mut pairs: Vec<(u32, u32)> = edges.iter().map(|e| (e.src, e.dst)).collect();
    pairs.sort_unstable();
    pairs.dedup();

    let mut group = c.benchmark_group("delete_full_drain");
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.sample_size(10);
    for (name, mode) in [
        ("delete_only", DeleteMode::DeleteOnly),
        ("delete_and_compact", DeleteMode::DeleteAndCompact),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut g = GraphTinker::new(TinkerConfig::paper().delete_mode(mode)).unwrap();
                g.apply_batch(&EdgeBatch::inserts(&edges));
                for &(s, d) in &pairs {
                    g.delete_edge(s, d);
                }
                black_box(g.num_edges())
            })
        });
    }
    group.bench_function("stinger", |b| {
        b.iter(|| {
            let mut s = Stinger::with_defaults();
            s.apply_batch(&EdgeBatch::inserts(&edges));
            for &(src, dst) in &pairs {
                s.delete_edge(src, dst);
            }
            black_box(s.num_edges())
        })
    });
    group.finish();
}

fn bench_stream(c: &mut Criterion) {
    let edges = workload(100_000, 4);
    let mut gt = GraphTinker::new(TinkerConfig::paper()).unwrap();
    gt.apply_batch(&EdgeBatch::inserts(&edges));
    let mut st = Stinger::with_defaults();
    st.apply_batch(&EdgeBatch::inserts(&edges));

    let mut group = c.benchmark_group("stream_all_edges");
    group.throughput(Throughput::Elements(gt.num_edges()));
    group.bench_function("graphtinker_cal", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            gt.for_each_edge(|_, _, w| acc += w as u64);
            black_box(acc)
        })
    });
    group.bench_function("graphtinker_main_scan", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            gt.for_each_edge_main(|_, _, w| acc += w as u64);
            black_box(acc)
        })
    });
    group.bench_function("stinger_chains", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            st.stream_edges(|_, _, w| acc += w as u64);
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_sgh(c: &mut Criterion) {
    let keys: Vec<u32> = (0..65_536u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let mut group = c.benchmark_group("sgh_unit");
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("insert_64k", |b| {
        b.iter(|| {
            let mut sgh = SghUnit::with_capacity(16);
            for &k in &keys {
                black_box(sgh.get_or_insert(k));
            }
        })
    });
    let mut built = SghUnit::with_capacity(16);
    for &k in &keys {
        built.get_or_insert(k);
    }
    group.bench_function("lookup_64k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &k in &keys {
                acc += built.get(k).unwrap() as u64;
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_bfs_modes(c: &mut Criterion) {
    let edges = workload(100_000, 5);
    let root = edges[0].src;
    let mut gt = GraphTinker::new(TinkerConfig::paper()).unwrap();
    gt.apply_batch(&EdgeBatch::inserts(&edges));

    let mut group = c.benchmark_group("bfs_100k_rmat");
    group.sample_size(20);
    for (name, policy) in [
        ("full", ModePolicy::AlwaysFull),
        ("incremental", ModePolicy::AlwaysIncremental),
        ("hybrid", ModePolicy::hybrid()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &policy, |b, &policy| {
            b.iter(|| {
                let mut e = Engine::new(Bfs::new(root), policy);
                let r = e.run_from_roots(&gt);
                black_box(r.total_edges_processed)
            })
        });
    }
    group.finish();
}

fn bench_csr_rebuild(c: &mut Criterion) {
    let edges = workload(100_000, 7);
    let mut gt = GraphTinker::new(TinkerConfig::paper()).unwrap();
    gt.apply_batch(&EdgeBatch::inserts(&edges));

    let mut group = c.benchmark_group("csr_snapshot");
    group.throughput(Throughput::Elements(gt.num_edges()));
    group.sample_size(20);
    group.bench_function("rebuild_from_store", |b| b.iter(|| black_box(CsrSnapshot::build(&gt))));
    group.finish();
}

fn bench_triangles(c: &mut Criterion) {
    // Point-lookup-dominated analytic: the FIND-mode showcase. Smaller
    // graph (lookup count grows with degree^2).
    let edges = RmatConfig::graph500(10, 10_000, 8).generate();
    let batch = symmetrize(&EdgeBatch::inserts(&edges));
    let mut gt = GraphTinker::new(TinkerConfig::paper()).unwrap();
    gt.apply_batch(&batch);
    let mut st = Stinger::with_defaults();
    st.apply_batch(&batch);

    let mut group = c.benchmark_group("triangle_count");
    group.sample_size(10);
    group.bench_function("graphtinker", |b| b.iter(|| black_box(TriangleCount::new().count(&gt))));
    group.bench_function("stinger", |b| b.iter(|| black_box(TriangleCount::new().count(&st))));
    group.finish();
}

fn bench_parallel_gas(c: &mut Criterion) {
    // BFS/PageRank over the sharded engine path vs shard (thread) count:
    // one ParallelTinker instance per shard.
    let edges = workload(100_000, 9);
    let root = edges[0].src;
    let batch = EdgeBatch::inserts(&edges);

    let mut group = c.benchmark_group("parallel_gas");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        let gt = ParallelTinker::new(TinkerConfig::paper(), shards).unwrap();
        gt.apply_batch(&batch);
        group.throughput(Throughput::Elements(gt.num_edges()));
        group.bench_with_input(BenchmarkId::new("bfs_full", shards), &gt, |b, g| {
            b.iter(|| {
                let mut e = Engine::new(Bfs::new(root), ModePolicy::AlwaysFull);
                let r = e.run_from_roots(g);
                black_box(r.total_edges_processed)
            })
        });
        group.bench_with_input(BenchmarkId::new("pagerank_5it", shards), &gt, |b, g| {
            b.iter(|| black_box(PageRank::new(0.85, 5).run(g)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_lookup,
    bench_delete,
    bench_stream,
    bench_sgh,
    bench_bfs_modes,
    bench_csr_rebuild,
    bench_triangles,
    bench_parallel_gas
);
criterion_main!(benches);
