//! The [`GraphStore`] abstraction: the two edge-retrieval paths the hybrid
//! engine multiplexes between.

use gtinker_core::{GraphTinker, ShardAccess, ShardStore, Sharded};
use gtinker_stinger::Stinger;
use gtinker_types::{VertexId, Weight};

/// A dynamic graph store the engine can run analytics over.
///
/// The two retrieval methods correspond to the paper's LoadEdges unit
/// (§IV.C): `stream_edges` is the full-processing path (sequential,
/// compacted — the CAL for GraphTinker), `for_each_out_edge` the
/// incremental path (random, per-vertex — the EdgeblockArray).
pub trait GraphStore {
    /// One past the largest vertex id in the store (sizes engine arrays).
    fn vertex_space(&self) -> u32;

    /// Live edge count (the `E` of the inference formula).
    fn num_edges(&self) -> u64;

    /// Live out-degree of a vertex.
    fn out_degree(&self, v: VertexId) -> u32;

    /// Visits the out-edges of one vertex (incremental / random path).
    fn for_each_out_edge(&self, v: VertexId, f: impl FnMut(VertexId, Weight));

    /// Streams every edge (full-processing / sequential path).
    fn stream_edges(&self, f: impl FnMut(VertexId, VertexId, Weight));

    /// Point query: is `(src, dst)` a live edge? The default scans the
    /// source's out-edges; stores with a FIND path (GraphTinker's hashed
    /// subblock walk, STINGER's chain scan) override with their native
    /// lookup. Triangle counting and other intersection workloads lean on
    /// this heavily.
    fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        let mut found = false;
        self.for_each_out_edge(src, |d, _| found |= d == dst);
        found
    }

    /// Number of edge shards the store exposes for parallel streaming.
    ///
    /// Sharded stores split their edge stream into `num_shards` pieces
    /// whose concatenation, in shard order, is exactly the
    /// [`stream_edges`](Self::stream_edges) order — the property that lets
    /// a parallel full-processing pass reproduce the sequential result.
    /// All of one source's out-edges live in a single shard (the
    /// single-writer interval rule of paper §III.D). Default: 1.
    fn num_shards(&self) -> usize {
        1
    }

    /// The shard owning the out-edges of `v` (for routing an active
    /// frontier to shard-local workers). Vertices absent from the store
    /// may map anywhere; the result is always `< num_shards()`.
    fn shard_of_source(&self, _v: VertexId) -> usize {
        0
    }

    /// Streams the edges of one shard (see [`num_shards`](Self::num_shards)
    /// for the ordering contract). The default serves the single-shard
    /// case by streaming everything.
    fn stream_shard_edges(&self, shard: usize, f: impl FnMut(VertexId, VertexId, Weight)) {
        debug_assert!(shard < self.num_shards(), "shard {shard} out of range");
        if shard == 0 {
            self.stream_edges(f);
        }
    }
}

impl GraphStore for GraphTinker {
    fn vertex_space(&self) -> u32 {
        GraphTinker::vertex_space(self)
    }
    fn num_edges(&self) -> u64 {
        GraphTinker::num_edges(self)
    }
    fn out_degree(&self, v: VertexId) -> u32 {
        GraphTinker::out_degree(self, v)
    }
    fn for_each_out_edge(&self, v: VertexId, f: impl FnMut(VertexId, Weight)) {
        GraphTinker::for_each_out_edge(self, v, f)
    }
    fn stream_edges(&self, f: impl FnMut(VertexId, VertexId, Weight)) {
        // Per CAL group, the edgeblock tier's CAL chain and then the inline
        // and hub runs in place; a scattered main-structure scan without a
        // CAL (the ablation's cost).
        GraphTinker::for_each_edge(self, f)
    }
    fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        GraphTinker::contains_edge(self, src, dst)
    }
    fn num_shards(&self) -> usize {
        GraphTinker::analytics_shards(self)
    }
    fn shard_of_source(&self, v: VertexId) -> usize {
        GraphTinker::shard_of_source(self, v)
    }
    fn stream_shard_edges(&self, shard: usize, f: impl FnMut(VertexId, VertexId, Weight)) {
        GraphTinker::for_each_edge_shard(self, shard, f)
    }
}

impl GraphStore for Stinger {
    fn vertex_space(&self) -> u32 {
        Stinger::vertex_space(self)
    }
    fn num_edges(&self) -> u64 {
        Stinger::num_edges(self)
    }
    fn out_degree(&self, v: VertexId) -> u32 {
        Stinger::out_degree(self, v)
    }
    fn for_each_out_edge(&self, v: VertexId, f: impl FnMut(VertexId, Weight)) {
        Stinger::for_each_out_edge(self, v, f)
    }
    fn stream_edges(&self, f: impl FnMut(VertexId, VertexId, Weight)) {
        // STINGER has no compacted copy: "streaming" walks the per-vertex
        // chains, which is exactly why Figs. 11-13 favour GraphTinker.
        Stinger::for_each_edge(self, f)
    }
    fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        Stinger::contains_edge(self, src, dst)
    }
    fn num_shards(&self) -> usize {
        Stinger::analytics_shards(self)
    }
    fn shard_of_source(&self, v: VertexId) -> usize {
        Stinger::shard_of_source(self, v)
    }
    fn stream_shard_edges(&self, shard: usize, f: impl FnMut(VertexId, VertexId, Weight)) {
        Stinger::for_each_edge_shard(self, shard, f)
    }
}

/// Every interval-sharded store (`ParallelTinker`, the snapshot a pinned
/// `StoreView` reads, `ParallelStinger`): one shard per instance, each
/// streaming its own edges, so sharded analytics mirror the ingestion
/// layout.
impl<A: ShardAccess> GraphStore for Sharded<A> {
    fn vertex_space(&self) -> u32 {
        Sharded::vertex_space(self)
    }
    fn num_edges(&self) -> u64 {
        Sharded::num_edges(self)
    }
    fn out_degree(&self, v: VertexId) -> u32 {
        Sharded::out_degree(self, v)
    }
    fn for_each_out_edge(&self, v: VertexId, f: impl FnMut(VertexId, Weight)) {
        Sharded::for_each_out_edge(self, v, f)
    }
    fn stream_edges(&self, f: impl FnMut(VertexId, VertexId, Weight)) {
        Sharded::for_each_edge(self, f)
    }
    fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        Sharded::contains_edge(self, src, dst)
    }
    fn num_shards(&self) -> usize {
        Sharded::num_instances(self)
    }
    fn shard_of_source(&self, v: VertexId) -> usize {
        gtinker_types::partition_of(v, Sharded::num_instances(self))
    }
    fn stream_shard_edges(&self, shard: usize, f: impl FnMut(VertexId, VertexId, Weight)) {
        Sharded::with_instance(self, shard, |g| g.for_each_edge(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_core::ParallelTinker;
    use gtinker_stinger::ParallelStinger;
    use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig};

    fn sample_batch() -> EdgeBatch {
        EdgeBatch::inserts(&[Edge::new(0, 1, 5), Edge::new(1, 2, 3), Edge::new(0, 2, 7)])
    }

    fn check_store<S: GraphStore>(s: &S) {
        assert_eq!(s.vertex_space(), 3);
        assert_eq!(s.num_edges(), 3);
        assert_eq!(s.out_degree(0), 2);
        assert_eq!(s.out_degree(2), 0);
        let mut outs = Vec::new();
        s.for_each_out_edge(0, |d, w| outs.push((d, w)));
        outs.sort_unstable();
        assert_eq!(outs, vec![(1, 5), (2, 7)]);
        let mut all = Vec::new();
        s.stream_edges(|a, b, w| all.push((a, b, w)));
        all.sort_unstable();
        assert_eq!(all, vec![(0, 1, 5), (0, 2, 7), (1, 2, 3)]);
        assert!(s.has_edge(0, 1));
        assert!(!s.has_edge(1, 0));
        assert!(!s.has_edge(9, 9));
    }

    /// Verifies the sharding contract: concatenating the shard streams in
    /// order reproduces `stream_edges` exactly, and every streamed source
    /// is routed back to the shard that streamed it.
    fn check_sharding<S: GraphStore>(s: &S) {
        let mut whole = Vec::new();
        s.stream_edges(|a, b, w| whole.push((a, b, w)));
        let mut cat = Vec::new();
        for shard in 0..s.num_shards() {
            s.stream_shard_edges(shard, |a, b, w| {
                assert_eq!(s.shard_of_source(a), shard, "source {a} routed off-shard");
                cat.push((a, b, w));
            });
        }
        assert_eq!(cat, whole, "shard concatenation must equal the full stream");
    }

    /// [`check_sharding`], and the stream is exactly `model`'s edges.
    fn check_model_sharding<S: GraphStore>(s: &S, model: &[(VertexId, VertexId, Weight)]) {
        check_sharding(s);
        let mut all = Vec::new();
        s.stream_edges(|a, b, w| all.push((a, b, w)));
        all.sort_unstable();
        let mut want = model.to_vec();
        want.sort_unstable();
        assert_eq!(all, want, "the stream must be the model's edge multiset");
    }

    /// Edges that fill every tier of the default layout: one hub source
    /// (200 edges), two edgeblock sources (20 each) and eight inline ones
    /// (3 each), arriving interleaved so small CAL groups mix tiers.
    fn three_tier_edges() -> Vec<Edge> {
        let mut edges = Vec::new();
        for i in 0..200u32 {
            edges.push(Edge::new(5, i, i + 1));
            if i < 40 {
                edges.push(Edge::new(10 + i % 2, 1000 + i, i));
            }
            if i < 24 {
                edges.push(Edge::new(20 + i % 8, 2000 + i, 7));
            }
        }
        edges
    }

    /// A compact-mode default-layout store with CAL groups of
    /// `cal_group_size` sources (no CAL at 0) holding `edges`.
    fn three_tier_store(cal_group_size: usize, edges: &[Edge]) -> GraphTinker {
        let cfg = TinkerConfig {
            enable_cal: cal_group_size > 0,
            cal_group_size: cal_group_size.max(1),
            ..TinkerConfig::default().delete_mode(DeleteMode::DeleteAndCompact)
        };
        let mut g = GraphTinker::new(cfg).unwrap();
        g.apply_batch(&EdgeBatch::inserts(edges));
        let st = g.structure_stats();
        let tiers = (st.tier_inline_vertices, st.tier_blocks_vertices, st.tier_hub_vertices);
        assert_eq!(tiers, (8, 2, 1), "every tier must be populated");
        g
    }

    fn as_triples(edges: &[Edge]) -> Vec<(VertexId, VertexId, Weight)> {
        edges.iter().map(|e| (e.src, e.dst, e.weight)).collect()
    }

    fn bigger_batch() -> EdgeBatch {
        EdgeBatch::inserts(
            &(0..500u32).map(|i| Edge::new(i % 61, (i * 13) % 67, i + 1)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn graphtinker_implements_store() {
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&sample_batch());
        check_store(&g);
    }

    #[test]
    fn sharded_streaming_contract_holds_for_all_stores() {
        for shards in [1usize, 2, 3, 4, 7] {
            let mut g = GraphTinker::with_defaults();
            g.apply_batch(&bigger_batch());
            g.set_analytics_shards(shards);
            check_sharding(&g);

            let mut no_cal = GraphTinker::new(gtinker_types::TinkerConfig {
                enable_cal: false,
                ..Default::default()
            })
            .unwrap();
            no_cal.apply_batch(&bigger_batch());
            no_cal.set_analytics_shards(shards);
            check_sharding(&no_cal);

            // Every tier populated, with and without the CAL, in CAL groups
            // of the default size and of two sources.
            let edges = three_tier_edges();
            for cal_group_size in [1024, 2, 0] {
                let mut tiered = three_tier_store(cal_group_size, &edges);
                tiered.set_analytics_shards(shards);
                check_model_sharding(&tiered, &as_triples(&edges));
            }

            let mut s = Stinger::with_defaults();
            s.apply_batch(&bigger_batch());
            s.set_analytics_shards(shards);
            check_sharding(&s);

            let mut csr_src = GraphTinker::with_defaults();
            csr_src.apply_batch(&bigger_batch());
            let mut csr = crate::CsrSnapshot::build(&csr_src);
            csr.set_analytics_shards(shards);
            check_sharding(&csr);

            let pt = ParallelTinker::new(Default::default(), shards).unwrap();
            pt.apply_batch(&bigger_batch());
            check_sharding(&pt);

            let pv = ParallelTinker::new(Default::default(), shards).unwrap();
            pv.apply_batch(&bigger_batch());
            let view = pv.pin_view().unwrap();
            check_sharding(&view);

            let ps = ParallelStinger::new(Default::default(), shards).unwrap();
            ps.apply_batch(&bigger_batch());
            check_sharding(&ps);

            // The three sharded stores share one `GraphStore` impl: hold it
            // to the exact-content contract at every shard count as well.
            let pt = ParallelTinker::new(Default::default(), shards).unwrap();
            pt.apply_batch(&sample_batch());
            check_store(&pt);
            check_store(&pt.pin_view().unwrap());
            let ps = ParallelStinger::new(Default::default(), shards).unwrap();
            ps.apply_batch(&sample_batch());
            check_store(&ps);
        }
    }

    #[test]
    fn sharding_survives_deletions_and_cal_rebuild() {
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&bigger_batch());
        let mut pairs = Vec::new();
        g.for_each_edge(|s, d, _| pairs.push((s, d)));
        // Delete two thirds of the edges to force invalid records.
        let dels: Vec<_> =
            pairs.iter().enumerate().filter(|(i, _)| i % 3 != 0).map(|(_, &p)| p).collect();
        g.apply_batch(&EdgeBatch::deletes(&dels));
        g.set_analytics_shards(4);
        check_sharding(&g);
        g.rebuild_cal();
        check_sharding(&g);

        // Every tier populated, a third of each source's edges deleted (no
        // tier move), then a compact-mode CAL rebuild.
        let edges = three_tier_edges();
        let (dels, kept): (Vec<_>, Vec<_>) =
            edges.iter().enumerate().partition(|(i, _)| i % 3 == 1);
        let dels: Vec<_> = dels.iter().map(|(_, e)| (e.src, e.dst)).collect();
        let kept: Vec<Edge> = kept.into_iter().map(|(_, &e)| e).collect();
        for cal_group_size in [1024, 2, 0] {
            let mut g = three_tier_store(cal_group_size, &edges);
            g.apply_batch(&EdgeBatch::deletes(&dels));
            let invalid = g.structure_stats().cal_invalid;
            assert_eq!(invalid > 0, cal_group_size > 0, "deletes leave CAL holes");
            for rebuilt in [false, true] {
                if rebuilt {
                    g.rebuild_cal();
                    assert_eq!(g.structure_stats().cal_invalid, 0);
                }
                for shards in [1usize, 2, 3, 4, 7] {
                    g.set_analytics_shards(shards);
                    check_model_sharding(&g, &as_triples(&kept));
                }
            }
        }
    }

    #[test]
    fn stinger_implements_store() {
        let mut s = Stinger::with_defaults();
        s.apply_batch(&sample_batch());
        check_store(&s);
    }

    #[test]
    fn parallel_tinker_implements_store() {
        let p = ParallelTinker::new(Default::default(), 2).unwrap();
        p.apply_batch(&sample_batch());
        check_store(&p);
    }

    #[test]
    fn pinned_store_view_implements_store() {
        let p = ParallelTinker::new(Default::default(), 2).unwrap();
        p.apply_batch(&sample_batch());
        let view = p.pin_view().unwrap();
        check_store(&view);
        assert_eq!(view.epoch(), 1);
    }

    #[test]
    fn parallel_stinger_implements_store() {
        let p = ParallelStinger::new(Default::default(), 2).unwrap();
        p.apply_batch(&sample_batch());
        check_store(&p);
    }
}
