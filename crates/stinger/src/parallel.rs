//! Parallel STINGER: the same interval partitioning used for GraphTinker
//! (one single-writer instance per core, edges sharded by source hash), so
//! the multicore comparison in Fig. 10 is apples-to-apples.
//!
//! Batches flow through the same persistent [`ShardPool`] as
//! `ParallelTinker`, and reads through the same [`Sharded`] facade:
//! [`Stinger`] only has to be a [`ShardStore`].

use gtinker_core::{ApplyBatch, BatchResult, ShardPool, ShardStore, Sharded};
use gtinker_types::{EdgeBatch, Result, StingerConfig, VertexId, Weight};

use crate::store::Stinger;

impl ApplyBatch for Stinger {
    fn apply(&mut self, batch: &EdgeBatch) -> BatchResult {
        let (ins, del) = self.apply_batch(batch);
        BatchResult { inserted: ins, deleted: del, ..BatchResult::default() }
    }
}

impl ShardStore for Stinger {
    type Config = StingerConfig;

    fn with_config(config: StingerConfig) -> Result<Self> {
        Stinger::new(config)
    }
    fn num_edges(&self) -> u64 {
        Stinger::num_edges(self)
    }
    fn vertex_space(&self) -> u32 {
        Stinger::vertex_space(self)
    }
    fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        Stinger::edge_weight(self, src, dst)
    }
    fn out_degree(&self, src: VertexId) -> u32 {
        Stinger::out_degree(self, src)
    }
    fn for_each_out_edge(&self, src: VertexId, f: impl FnMut(VertexId, Weight)) {
        Stinger::for_each_out_edge(self, src, f)
    }
    fn for_each_edge(&self, f: impl FnMut(VertexId, VertexId, Weight)) {
        Stinger::for_each_edge(self, f)
    }
}

/// Interval-partitioned STINGER instances updated in parallel by a
/// persistent worker pool.
pub type ParallelStinger = Sharded<ShardPool<Stinger>>;

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_types::Edge;

    #[test]
    fn parallel_matches_sequential() {
        let edges: Vec<Edge> = (0..4_000u32).map(|i| Edge::new(i % 89, i % 157, i)).collect();
        let b = EdgeBatch::inserts(&edges);
        let mut seq = Stinger::with_defaults();
        seq.apply_batch(&b);
        let par = ParallelStinger::new(StingerConfig::default(), 4).unwrap();
        par.apply_batch(&b);
        assert_eq!(par.num_edges(), seq.num_edges());
        let mut a: Vec<(u32, u32, u32)> = Vec::new();
        seq.for_each_edge(|s, d, w| a.push((s, d, w)));
        let mut c: Vec<(u32, u32, u32)> = Vec::new();
        par.for_each_edge(|s, d, w| c.push((s, d, w)));
        a.sort_unstable();
        c.sort_unstable();
        assert_eq!(a, c);
    }

    #[test]
    fn pipelined_submit_matches_sequential() {
        let mut seq = Stinger::with_defaults();
        let par = ParallelStinger::new(StingerConfig::default(), 3).unwrap();
        for round in 0..4u32 {
            let n = 2_000 - round * 600;
            let edges: Vec<Edge> =
                (0..n).map(|i| Edge::new((i * 5 + round) % 89, i % 157, i + 1)).collect();
            let b = EdgeBatch::inserts(&edges);
            seq.apply_batch(&b);
            par.submit(b);
        }
        par.flush();
        assert_eq!(par.num_edges(), seq.num_edges());
        let mut a: Vec<(u32, u32, u32)> = Vec::new();
        seq.for_each_edge(|s, d, w| a.push((s, d, w)));
        let mut c: Vec<(u32, u32, u32)> = Vec::new();
        par.for_each_edge(|s, d, w| c.push((s, d, w)));
        a.sort_unstable();
        c.sort_unstable();
        assert_eq!(a, c);
    }

    #[test]
    fn routed_queries_and_stats() {
        let par = ParallelStinger::new(StingerConfig::default(), 3).unwrap();
        par.apply_batch(&EdgeBatch::inserts(&[Edge::new(5, 6, 7)]));
        assert_eq!(par.edge_weight(5, 6), Some(7));
        assert!(!par.contains_edge(6, 5));
        let operations: u64 = (0..3).map(|i| par.with_instance(i, |s| s.stats().operations)).sum();
        assert_eq!(operations, 1);
        assert_eq!(par.num_instances(), 3);
    }
}
