//! Engine correctness across stores, policies and restart strategies,
//! checked against independent reference implementations (textbook BFS,
//! Dijkstra, union-find).

use gtinker_core::{GraphTinker, ParallelTinker};
use gtinker_datasets::{PowerLawConfig, RmatConfig};
use gtinker_engine::{
    algorithms::{Bfs, Cc, Sssp},
    dynamic::symmetrize,
    walk, DynamicRunner, Engine, GasProgram, GraphStore, IncrementalState, ModePolicy,
    RestartPolicy,
};
use gtinker_integration::reference;
use gtinker_stinger::Stinger;
use gtinker_types::{Edge, EdgeBatch, TinkerConfig, VertexId, Weight};

fn rmat(scale: u32, edges: u64, seed: u64) -> Vec<Edge> {
    RmatConfig::graph500(scale, edges, seed).generate()
}

fn all_policies() -> [ModePolicy; 3] {
    [ModePolicy::AlwaysFull, ModePolicy::AlwaysIncremental, ModePolicy::hybrid()]
}

#[test]
fn bfs_matches_reference_on_all_stores_and_policies() {
    let edges = rmat(10, 6_000, 21);
    let batch = EdgeBatch::inserts(&edges);
    let root = edges[0].src;

    let mut gt = GraphTinker::with_defaults();
    gt.apply_batch(&batch);
    let mut st = Stinger::with_defaults();
    st.apply_batch(&batch);
    let pt = ParallelTinker::new(TinkerConfig::default(), 3).unwrap();
    pt.apply_batch(&batch);

    let n = GraphStore::vertex_space(&gt);
    let expected = reference::bfs_levels(&edges, n, root);

    for policy in all_policies() {
        let mut e1 = Engine::new(Bfs::new(root), policy);
        e1.run_from_roots(&gt);
        assert_eq!(e1.values(), &expected[..], "GraphTinker {policy:?}");

        let mut e2 = Engine::new(Bfs::new(root), policy);
        e2.run_from_roots(&st);
        assert_eq!(e2.values(), &expected[..], "Stinger {policy:?}");

        let mut e3 = Engine::new(Bfs::new(root), policy);
        e3.run_from_roots(&pt);
        assert_eq!(e3.values(), &expected[..], "ParallelTinker {policy:?}");
    }
    assert_eq!(walk(&Bfs::new(root), &gt).values, expected, "GraphTinker walk");
    assert_eq!(walk(&Bfs::new(root), &st).values, expected, "Stinger walk");
    assert_eq!(walk(&Bfs::new(root), &pt).values, expected, "ParallelTinker walk");
}

/// `Bfs` without [`IncrementalState::FIRST_REACH_FINAL`]: the walk reads
/// every target's value instead of skipping the ones it has reached.
struct NoSkip(Bfs);

impl GasProgram for NoSkip {
    type Value = u32;

    fn initial_value(&self) -> u32 {
        self.0.initial_value()
    }
    fn process_edge(&self, src_value: u32, dst: VertexId, weight: Weight) -> Option<u32> {
        self.0.process_edge(src_value, dst, weight)
    }
    fn reduce(&self, a: u32, b: u32) -> u32 {
        self.0.reduce(a, b)
    }
    fn apply(&self, old: u32, incoming: u32) -> Option<u32> {
        self.0.apply(old, incoming)
    }
    fn roots(&self, vertex_space: u32) -> Vec<(VertexId, u32)> {
        self.0.roots(vertex_space)
    }
}

impl IncrementalState for NoSkip {}

#[test]
fn bfs_walk_skip_equals_the_walk_without_it() {
    let edges = rmat(11, 16_000, 91);
    let pt = ParallelTinker::new(TinkerConfig::default(), 2).unwrap();
    pt.apply_batch(&EdgeBatch::inserts(&edges));
    for root in [edges[0].src, edges[5].src, edges[77].dst, 0] {
        let (skip, plain) = (walk(&Bfs::new(root), &pt), walk(&NoSkip(Bfs::new(root)), &pt));
        assert_eq!(skip.values, plain.values, "root {root}");
        assert_eq!((skip.rounds, skip.edges), (plain.rounds, plain.edges), "root {root}");
    }
}

#[test]
fn sssp_matches_dijkstra() {
    let edges = rmat(10, 8_000, 33);
    let batch = EdgeBatch::inserts(&edges);
    let root = edges[1].src;

    let mut gt = GraphTinker::with_defaults();
    gt.apply_batch(&batch);
    let n = GraphStore::vertex_space(&gt);
    let expected = reference::sssp_distances(&edges, n, root);

    for policy in all_policies() {
        let mut e = Engine::new(Sssp::new(root), policy);
        e.run_from_roots(&gt);
        assert_eq!(e.values(), &expected[..], "SSSP under {policy:?}");
    }
    assert_eq!(walk(&Sssp::new(root), &gt).values, expected, "SSSP walk");
}

#[test]
fn cc_matches_union_find() {
    let edges =
        PowerLawConfig { num_vertices: 512, num_edges: 3_000, alpha: 0.5, seed: 11, max_weight: 1 }
            .generate();
    let batch = symmetrize(&EdgeBatch::inserts(&edges));

    let mut gt = GraphTinker::with_defaults();
    gt.apply_batch(&batch);
    let n = GraphStore::vertex_space(&gt);
    let expected = reference::cc_labels(&edges, n);

    for policy in all_policies() {
        let mut e = Engine::new(Cc::new(), policy);
        e.run_from_roots(&gt);
        assert_eq!(e.values(), &expected[..], "CC under {policy:?}");
    }
    assert_eq!(walk(&Cc::new(), &gt).values, expected, "CC walk");
}

#[test]
fn incremental_bfs_across_batches_matches_reference() {
    let edges = rmat(10, 10_000, 44);
    let root = edges[0].src;
    let mut store = GraphTinker::with_defaults();
    let mut runner =
        DynamicRunner::new(Bfs::new(root), ModePolicy::hybrid(), RestartPolicy::Incremental);
    let mut so_far: Vec<Edge> = Vec::new();
    for chunk in edges.chunks(2_500) {
        let batch = EdgeBatch::inserts(chunk);
        store.apply_batch(&batch);
        so_far.extend_from_slice(chunk);
        runner.after_batch(&store, &batch);
        let n = GraphStore::vertex_space(&store);
        let expected = reference::bfs_levels(&so_far, n, root);
        assert_eq!(
            runner.engine().values(),
            &expected[..],
            "incremental BFS diverged after {} edges",
            so_far.len()
        );
    }
}

#[test]
fn incremental_sssp_across_batches_matches_reference() {
    // Incremental continuation is only sound for monotone updates; a repeat
    // of an existing (src, dst) with a *larger* weight would raise true
    // distances, which relaxation cannot undo (the same restriction the
    // paper's incremental model carries). Keep first occurrences only.
    let edges: Vec<Edge> = {
        let mut seen = std::collections::HashSet::new();
        rmat(9, 6_000, 55).into_iter().filter(|e| seen.insert((e.src, e.dst))).collect()
    };
    let root = edges[0].src;
    let mut store = GraphTinker::with_defaults();
    let mut runner =
        DynamicRunner::new(Sssp::new(root), ModePolicy::hybrid(), RestartPolicy::Incremental);
    let mut so_far: Vec<Edge> = Vec::new();
    for chunk in edges.chunks(1_500) {
        let batch = EdgeBatch::inserts(chunk);
        store.apply_batch(&batch);
        so_far.extend_from_slice(chunk);
        runner.after_batch(&store, &batch);
        let n = GraphStore::vertex_space(&store);
        let expected = reference::sssp_distances(&so_far, n, root);
        assert_eq!(runner.engine().values(), &expected[..]);
    }
}

#[test]
fn incremental_cc_across_batches_matches_reference() {
    let edges = rmat(9, 5_000, 66);
    let mut store = GraphTinker::with_defaults();
    let mut runner =
        DynamicRunner::new(Cc::new(), ModePolicy::hybrid(), RestartPolicy::Incremental);
    let mut so_far: Vec<Edge> = Vec::new();
    for chunk in edges.chunks(1_000) {
        let batch = symmetrize(&EdgeBatch::inserts(chunk));
        store.apply_batch(&batch);
        so_far.extend_from_slice(chunk);
        runner.after_batch(&store, &batch);
        let n = GraphStore::vertex_space(&store);
        let expected = reference::cc_labels(&so_far, n);
        assert_eq!(runner.engine().values(), &expected[..]);
    }
}

#[test]
fn static_recompute_matches_incremental_at_every_batch() {
    let edges = rmat(9, 4_000, 77);
    let root = edges[0].src;
    let mut s1 = GraphTinker::with_defaults();
    let mut s2 = GraphTinker::with_defaults();
    let mut inc =
        DynamicRunner::new(Bfs::new(root), ModePolicy::hybrid(), RestartPolicy::Incremental);
    let mut stat =
        DynamicRunner::new(Bfs::new(root), ModePolicy::hybrid(), RestartPolicy::StaticRecompute);
    for chunk in edges.chunks(800) {
        let batch = EdgeBatch::inserts(chunk);
        s1.apply_batch(&batch);
        s2.apply_batch(&batch);
        inc.after_batch(&s1, &batch);
        stat.after_batch(&s2, &batch);
        assert_eq!(inc.engine().values(), stat.engine().values());
    }
}

#[test]
fn analytics_after_deletions_matches_reference() {
    // Deletions are handled by full recompute (non-monotone); verify the
    // recomputed result is right for the surviving edge set.
    let edges = rmat(9, 5_000, 88);
    let root = edges[0].src;
    let mut store = GraphTinker::with_defaults();
    store.apply_batch(&EdgeBatch::inserts(&edges));

    // Delete every third distinct pair.
    let mut pairs: Vec<(u32, u32)> = edges.iter().map(|e| (e.src, e.dst)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let doomed: Vec<(u32, u32)> = pairs.iter().copied().step_by(3).collect();
    store.apply_batch(&EdgeBatch::deletes(&doomed));

    let survivors: Vec<Edge> = {
        let doomed_set: std::collections::HashSet<(u32, u32)> = doomed.into_iter().collect();
        // Keep last weight per pair, then drop doomed pairs.
        let mut last = std::collections::HashMap::new();
        for e in &edges {
            last.insert((e.src, e.dst), e.weight);
        }
        last.into_iter()
            .filter(|((s, d), _)| !doomed_set.contains(&(*s, *d)))
            .map(|((s, d), w)| Edge::new(s, d, w))
            .collect()
    };
    let n = GraphStore::vertex_space(&store);
    let expected = reference::bfs_levels(&survivors, n, root);
    let mut e = Engine::new(Bfs::new(root), ModePolicy::hybrid());
    e.run_from_roots(&store);
    assert_eq!(e.values(), &expected[..]);
    assert_eq!(walk(&Bfs::new(root), &store).values, expected, "walk");
}
