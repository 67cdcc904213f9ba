//! Long-haul stress scenarios: sustained churn with periodic analytics,
//! verifying that every component (store, CAL, compaction, engine,
//! parallel wrapper) stays consistent over many epochs — the usage pattern
//! of a long-lived deployment rather than a single experiment.

use std::collections::BTreeMap;

use gtinker_core::{GraphTinker, ParallelTinker};
use gtinker_engine::{algorithms::Bfs, Engine, GraphStore, ModePolicy};
use gtinker_integration::reference;
use gtinker_stinger::Stinger;
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 30 epochs of mixed churn; after each epoch the store must equal the
/// model, and a BFS over the live graph must equal the reference.
#[test]
fn churn_with_periodic_analytics_stays_consistent() {
    let mut rng = StdRng::seed_from_u64(2024);
    let cfg = TinkerConfig { pagewidth: 16, subblock: 8, workblock: 4, ..TinkerConfig::default() }
        .delete_mode(DeleteMode::DeleteAndCompact);
    let mut g = GraphTinker::new(cfg).unwrap();
    let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();

    for epoch in 0..30 {
        let mut batch = EdgeBatch::new();
        for _ in 0..600 {
            let (s, d) = (rng.gen_range(0..48u32), rng.gen_range(0..96u32));
            if rng.gen_bool(0.35) {
                batch.push_delete(s, d);
                model.remove(&(s, d));
            } else {
                let w = rng.gen_range(1..16);
                batch.push_insert(Edge::new(s, d, w));
                model.insert((s, d), w);
            }
        }
        g.apply_batch(&batch);
        assert_eq!(g.num_edges() as usize, model.len(), "epoch {epoch}");

        if epoch % 5 == 4 {
            // Full content check + analytics check.
            let mut got: Vec<(u32, u32, u32)> = Vec::new();
            g.for_each_edge(|s, d, w| got.push((s, d, w)));
            got.sort_unstable();
            let want: Vec<(u32, u32, u32)> = model.iter().map(|(&(s, d), &w)| (s, d, w)).collect();
            assert_eq!(got, want, "epoch {epoch} content drift");

            let live: Vec<Edge> = want.iter().map(|&(s, d, w)| Edge::new(s, d, w)).collect();
            let n = GraphStore::vertex_space(&g);
            let expected = reference::bfs_levels(&live, n, 0);
            let mut e = Engine::new(Bfs::new(0), ModePolicy::hybrid());
            e.run_from_roots(&g);
            assert_eq!(e.values(), &expected[..], "epoch {epoch} BFS drift");
        }
    }
    // Compaction must have recycled blocks across 30 epochs of churn.
    let st = g.structure_stats();
    assert!(st.free_blocks > 0, "no blocks recycled under churn: {st:?}");
}

/// The same churn stream applied to GraphTinker, STINGER and a 4-way
/// ParallelTinker must agree at every epoch.
#[test]
fn three_structures_stay_in_lockstep_under_churn() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut gt = GraphTinker::with_defaults();
    let mut st = Stinger::with_defaults();
    let pt = ParallelTinker::new(TinkerConfig::default(), 4).unwrap();
    for epoch in 0..15 {
        let mut batch = EdgeBatch::new();
        for _ in 0..800 {
            let (s, d) = (rng.gen_range(0..120u32), rng.gen_range(0..300u32));
            if rng.gen_bool(0.3) {
                batch.push_delete(s, d);
            } else {
                batch.push_insert(Edge::new(s, d, epoch + 1));
            }
        }
        gt.apply_batch(&batch);
        st.apply_batch(&batch);
        pt.apply_batch(&batch);
        assert_eq!(gt.num_edges(), st.num_edges(), "epoch {epoch}");
        assert_eq!(gt.num_edges(), pt.num_edges(), "epoch {epoch}");
    }
    let mut a: Vec<(u32, u32, u32)> = Vec::new();
    gt.for_each_edge(|s, d, w| a.push((s, d, w)));
    let mut b: Vec<(u32, u32, u32)> = Vec::new();
    st.stream_edges(|s, d, w| b.push((s, d, w)));
    let mut c: Vec<(u32, u32, u32)> = Vec::new();
    pt.stream_edges(|s, d, w| c.push((s, d, w)));
    a.sort_unstable();
    b.sort_unstable();
    c.sort_unstable();
    assert_eq!(a, b);
    assert_eq!(a, c);
}

/// Alternating full-load / full-drain cycles with analytics in between:
/// the delete-and-compact structure must return to a small footprint every
/// cycle instead of ratcheting up — in every page-width class on its own,
/// since a vertex climbing through the classes frees a page in each.
#[test]
fn repeated_drain_cycles_do_not_leak_blocks() {
    let cfg = TinkerConfig::default().delete_mode(DeleteMode::DeleteAndCompact);
    let mut g = GraphTinker::new(cfg).unwrap();
    let edges: Vec<Edge> = (0..5_000u32).map(|i| Edge::new(i % 64, i, 1 + i % 9)).collect();
    let pairs: Vec<(u32, u32)> = {
        let mut p: Vec<_> = edges.iter().map(|e| (e.src, e.dst)).collect();
        p.sort_unstable();
        p.dedup();
        p
    };
    // Blocks a class has ever allocated: in use plus on its free list.
    let allocated = |g: &GraphTinker| g.structure_stats().block_classes.map(|c| c.blocks + c.free);
    let mut first_cycle = [0usize; 3];
    for cycle in 0..5 {
        g.apply_batch(&EdgeBatch::inserts(&edges));
        if cycle == 0 {
            first_cycle = allocated(&g);
        }

        let mut e = Engine::new(Bfs::new(0), ModePolicy::hybrid());
        e.run_from_roots(&g);

        g.apply_batch(&EdgeBatch::deletes(&pairs));
        assert_eq!(g.num_edges(), 0, "cycle {cycle} drain incomplete");
        let drained = g.structure_stats();
        assert_eq!(drained.overflow_blocks, 0, "cycle {cycle}: {drained:?}");
    }
    // No class's arena grows beyond its single-cycle peak (free list reuse).
    assert!(first_cycle.iter().sum::<usize>() > 0);
    for (class, (now, peak)) in allocated(&g).into_iter().zip(first_cycle).enumerate() {
        assert!(now <= peak + 8, "class {class} ratcheted: {now} blocks vs peak {peak}");
    }
}

/// The store's allocated bytes against the bytes its own counts say are in
/// use. The arena lanes, the CAL records and the inline entries grow a
/// segment at a time, so each may run at most one segment ahead; only the
/// small per-source and per-block index lanes still double. Checked on a
/// freshly loaded store and again after churn.
#[test]
fn memory_is_used_bytes_plus_at_most_one_segment_per_table() {
    use gtinker_core::segvec::SEGMENT_LEN;
    use gtinker_core::{cal::CalRecord, EdgeCell, InlineAdj};
    use std::mem::size_of;

    fn check(g: &GraphTinker, what: &str) {
        let st = g.structure_stats();
        let cfg = g.config();
        let (mut arena, mut ahead) = (0, 0);
        for c in st.block_classes.iter().filter(|c| c.blocks + c.free > 0) {
            // Cells and tags per page, one child slot per subblock, and the
            // live / parent / parent-subblock lanes per block.
            let page = c.width * (size_of::<EdgeCell>() + 1) + c.width / cfg.subblock * 4 + 9;
            arena += (c.blocks + c.free) * page;
            ahead += SEGMENT_LEN * (size_of::<EdgeCell>() + 1 + 4 + 9);
        }
        let cal = st.cal_blocks * cfg.cal_block_size * size_of::<CalRecord>();
        let inline = st.num_sources * size_of::<InlineAdj>();
        ahead += SEGMENT_LEN * size_of::<CalRecord>() + 1024 * size_of::<InlineAdj>();
        let used = arena + cal + inline + st.hub_bytes;
        // The lanes still on `Vec` (tier map, top-block index, CAL block and
        // group lanes, free lists) at up to twice their length, and the
        // segment directories (no segment is shorter than SEGMENT_LEN bytes;
        // 20 tables may each have one partly filled).
        let groups = st.num_sources.div_ceil(cfg.cal_group_size);
        let doubling =
            2 * (st.num_sources * 5 + st.cal_blocks * 8 + groups * 12 + st.free_blocks * 4);
        let directories = 2 * (used / SEGMENT_LEN + 20) * size_of::<Vec<u8>>();
        assert!(st.memory_bytes >= used, "{what}: {} allocated < {used} used", st.memory_bytes);
        let over = st.memory_bytes - used;
        assert!(
            over <= ahead + doubling + directories,
            "{what}: {over} B over use; segments {ahead}, index lanes {doubling}, \
             directories {directories}: {st:?}"
        );
        assert!(over * 20 <= used, "{what}: {over} B over {used} B used is more than 5 %");
    }

    let edges = gtinker_datasets::RmatConfig::graph500(15, 300_000, 5).generate();
    let mut g = GraphTinker::with_defaults();
    g.apply_batch(&EdgeBatch::inserts(&edges));
    check(&g, "loaded");
    for batch in gtinker_datasets::churn_batches(&edges[..150_000], 5_000, 2, 9) {
        g.apply_batch(&batch);
    }
    check(&g, "churned");
}

/// Vertex ids at the top of the supported range work (NIL sentinel is
/// u32::MAX; MAX-1 is a legal vertex).
#[test]
fn extreme_vertex_ids() {
    let mut g = GraphTinker::with_defaults();
    let big = u32::MAX - 1;
    assert!(g.insert_edge(Edge::new(big, 0, 7)));
    assert!(g.insert_edge(Edge::new(0, big, 8)));
    assert_eq!(g.edge_weight(big, 0), Some(7));
    assert_eq!(g.edge_weight(0, big), Some(8));
    assert_eq!(g.vertex_space(), u32::MAX);
    assert!(g.delete_edge(big, 0));
    assert!(!g.contains_edge(big, 0));
}

/// NIL_VERTEX endpoints are rejected loudly rather than corrupting the
/// sentinel-based scan invariant.
#[test]
#[should_panic(expected = "reserved")]
fn nil_vertex_insert_panics() {
    let mut g = GraphTinker::with_defaults();
    g.insert_edge(Edge::new(u32::MAX, 0, 1));
}
