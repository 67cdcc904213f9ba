//! The [`GraphStore`] contract the engine runs over. It is declared once, in
//! `gtinker-core`, and implemented by every store where the store lives
//! (GraphTinker and the interval-sharded `Sharded` facade in core, STINGER
//! in `gtinker-stinger`, [`CsrSnapshot`](crate::CsrSnapshot) here); this
//! module re-exports it and holds the contract tests over all of them.

pub use gtinker_core::GraphStore;

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_core::{GraphTinker, ParallelTinker};
    use gtinker_stinger::{ParallelStinger, Stinger};
    use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig, VertexId, Weight};

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

    /// A compact-mode default-layout store of `shards` instances with CAL
    /// groups of `cal_group_size` sources (no CAL at 0) holding `edges`.
    fn three_tier_store(cal_group_size: usize, shards: usize, edges: &[Edge]) -> ParallelTinker {
        let cfg = TinkerConfig {
            enable_cal: cal_group_size > 0,
            cal_group_size: cal_group_size.max(1),
            ..TinkerConfig::default().delete_mode(DeleteMode::DeleteAndCompact)
        };
        let g = ParallelTinker::new(cfg, shards).unwrap();
        g.apply_batch(&EdgeBatch::inserts(edges));
        let tiers = (0..shards).fold((0, 0, 0), |(i, b, h), s| {
            let st = g.with_instance(s, |g| g.structure_stats());
            (i + st.tier_inline_vertices, b + st.tier_blocks_vertices, h + st.tier_hub_vertices)
        });
        assert_eq!(tiers, (8, 2, 1), "every tier must be populated");
        g
    }

    fn cal_invalid(g: &ParallelTinker) -> u64 {
        (0..g.num_instances())
            .map(|s| g.with_instance(s, |g| g.structure_stats().cal_invalid))
            .sum()
    }

    fn rebuild_cal(g: &mut ParallelTinker) {
        for s in 0..g.num_instances() {
            g.with_instance_mut(s, GraphTinker::rebuild_cal);
        }
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
        // The plain stores take the trait defaults: one shard streaming
        // everything.
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&bigger_batch());
        let mut s = Stinger::with_defaults();
        s.apply_batch(&bigger_batch());
        let csr = crate::CsrSnapshot::build(&g);
        assert_eq!((g.num_shards(), s.num_shards(), csr.num_shards()), (1, 1, 1));
        check_sharding(&g);
        check_sharding(&s);
        check_sharding(&csr);

        for shards in [1usize, 2, 3, 4, 7] {
            let pt = ParallelTinker::new(Default::default(), shards).unwrap();
            pt.apply_batch(&bigger_batch());
            assert_eq!(pt.num_shards(), shards);
            check_sharding(&pt);
            check_sharding(&pt.pin_view().unwrap());

            let no_cal = TinkerConfig { enable_cal: false, ..Default::default() };
            let pt = ParallelTinker::new(no_cal, shards).unwrap();
            pt.apply_batch(&bigger_batch());
            check_sharding(&pt);

            // Every tier populated, with and without the CAL, in CAL groups
            // of the default size and of two sources.
            let edges = three_tier_edges();
            for cal_group_size in [1024, 2, 0] {
                let tiered = three_tier_store(cal_group_size, shards, &edges);
                check_model_sharding(&tiered, &as_triples(&edges));
            }

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
        // Every tier populated, a third of each source's edges deleted (no
        // tier move), then a compact-mode CAL rebuild of every instance.
        let edges = three_tier_edges();
        let (dels, kept): (Vec<_>, Vec<_>) =
            edges.iter().enumerate().partition(|(i, _)| i % 3 == 1);
        let dels: Vec<_> = dels.iter().map(|(_, e)| (e.src, e.dst)).collect();
        let kept: Vec<Edge> = kept.into_iter().map(|(_, &e)| e).collect();
        for shards in [1usize, 2, 3, 4, 7] {
            let mut g = ParallelTinker::new(Default::default(), shards).unwrap();
            g.apply_batch(&bigger_batch());
            let mut pairs = Vec::new();
            g.stream_edges(|s, d, _| pairs.push((s, d)));
            // Delete two thirds of the edges to force invalid records.
            let two_thirds: Vec<_> =
                pairs.iter().enumerate().filter(|(i, _)| i % 3 != 0).map(|(_, &p)| p).collect();
            g.apply_batch(&EdgeBatch::deletes(&two_thirds));
            check_sharding(&g);
            rebuild_cal(&mut g);
            check_sharding(&g);

            for cal_group_size in [1024, 2, 0] {
                let mut g = three_tier_store(cal_group_size, shards, &edges);
                g.apply_batch(&EdgeBatch::deletes(&dels));
                assert_eq!(cal_invalid(&g) > 0, cal_group_size > 0, "deletes leave CAL holes");
                check_model_sharding(&g, &as_triples(&kept));
                rebuild_cal(&mut g);
                assert_eq!(cal_invalid(&g), 0);
                check_model_sharding(&g, &as_triples(&kept));
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
