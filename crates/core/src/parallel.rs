//! Parallel GraphTinker: interval-partitioned instances (paper §III.D,
//! Fig. 6).
//!
//! The paper parallelizes updates by exploiting the independence of
//! different source vertices: the edge stream is partitioned into
//! *intervals* by where the source id hashes, and each interval is loaded
//! into its own GraphTinker instance on its own core. Each instance is a
//! single-writer structure, so there is no shared mutable state on the
//! per-edge path and no `unsafe`.
//!
//! That structure is the persistent [`ShardPool`]: [`ParallelTinker`] is
//! a pool of [`GraphTinker`] instances (and `ParallelStinger`, in
//! `gtinker-stinger`, one of STINGERs). Workers are spawned once and fed
//! per-shard queues, each worker claims its own interval out of the
//! shared batch (parallelizing the partition pass), and the asynchronous
//! [`submit`](ShardPool::submit) / [`flush`](ShardPool::flush) pair
//! double-buffers so batch *k+1* partitions while batch *k* applies.
//!
//! Reads go through one [`GraphStore`] impl, on every [`ShardAccess`]
//! type, generic over how shard `i` is borrowed: the live pool after a
//! pipeline barrier, or an epoch pin ([`ReadGuard`](crate::ReadGuard)) —
//! a CSR base plus netted delta per shard, with no barrier.

use gtinker_types::{partition_of, VertexId, Weight};

use crate::pool::ShardPool;
use crate::stats::ProbeStats;
use crate::store::GraphStore;
use crate::tinker::GraphTinker;

/// A set of interval-partitioned stores behind one read API: point queries
/// are routed to the shard owning the source, whole-graph reads visit the
/// shards in interval order. The names do not overlap [`GraphStore`]'s, so
/// both traits can be in scope.
pub trait ShardAccess {
    /// The per-interval store.
    type Shard: GraphStore;

    /// Number of interval shards.
    fn shard_count(&self) -> usize;

    /// Runs `f` over shard `i` read-only.
    fn with_shard<R>(&self, i: usize, f: impl FnOnce(&Self::Shard) -> R) -> R;
}

/// Interval-partitioned [`GraphTinker`] instances updated in parallel by a
/// persistent worker pool.
pub type ParallelTinker = ShardPool<GraphTinker>;

/// The only stores with more than one shard: one per instance, each
/// streaming its own edges, so sharded analytics mirror the ingestion
/// layout.
impl<A: ShardAccess> GraphStore for A {
    fn vertex_space(&self) -> u32 {
        (0..self.shard_count()).map(|i| self.with_shard(i, |g| g.vertex_space())).max().unwrap_or(0)
    }
    fn num_edges(&self) -> u64 {
        (0..self.shard_count()).map(|i| self.with_shard(i, |g| g.num_edges())).sum()
    }
    fn out_degree(&self, src: VertexId) -> u32 {
        self.with_shard(self.shard_of_source(src), |g| g.out_degree(src))
    }
    fn for_each_out_edge(&self, src: VertexId, f: impl FnMut(VertexId, Weight)) {
        self.with_shard(self.shard_of_source(src), |g| g.for_each_out_edge(src, f));
    }
    fn stream_edges(&self, mut f: impl FnMut(VertexId, VertexId, Weight)) {
        for i in 0..self.shard_count() {
            self.with_shard(i, |g| g.stream_edges(&mut f));
        }
    }
    fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        self.with_shard(self.shard_of_source(src), |g| g.edge_weight(src, dst))
    }
    fn num_shards(&self) -> usize {
        self.shard_count()
    }
    fn shard_of_source(&self, v: VertexId) -> usize {
        partition_of(v, self.shard_count())
    }
    fn stream_shard_edges(&self, shard: usize, f: impl FnMut(VertexId, VertexId, Weight)) {
        self.with_shard(shard, |g| g.stream_edges(f))
    }
}

impl ParallelTinker {
    /// Merged probe statistics across instances.
    pub fn stats(&self) -> ProbeStats {
        let mut s = ProbeStats::default();
        for i in 0..self.num_shards() {
            self.with_shard(i, |g| s.merge(&g.stats()));
        }
        s
    }

    /// Sources the instances placed whole ([`GraphTinker::placed_whole`]).
    pub fn placed_whole(&self) -> u64 {
        (0..self.num_shards()).map(|i| self.with_shard(i, GraphTinker::placed_whole)).sum()
    }

    /// Clears probe statistics on all instances.
    pub fn reset_stats(&mut self) {
        for i in 0..self.num_shards() {
            self.with_shard_mut(i, |g| g.reset_stats());
        }
    }

    /// Publishes the `memory_*_bytes` gauge family summed across all
    /// instances (a per-instance publish would overwrite, not aggregate).
    pub fn publish_memory_metrics(&self) {
        let mut sums = (0usize, 0usize, 0usize, 0usize, 0usize);
        for i in 0..self.num_shards() {
            let (inline, blocks, hub, cal, total) = self.with_shard(i, |g| g.memory_breakdown());
            sums.0 += inline;
            sums.1 += blocks;
            sums.2 += hub;
            sums.3 += cal;
            sums.4 += total;
        }
        let m = crate::metrics::global();
        m.memory_inline_bytes.set(sums.0 as i64);
        m.memory_blocks_bytes.set(sums.1 as i64);
        m.memory_hub_bytes.set(sums.2 as i64);
        m.memory_cal_bytes.set(sums.3 as i64);
        m.memory_total_bytes.set(sums.4 as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_types::{Edge, EdgeBatch};

    use crate::tinker::BatchResult;

    fn batch(n: u32) -> EdgeBatch {
        EdgeBatch::inserts(&(0..n).map(|i| Edge::new(i % 101, i % 257, i)).collect::<Vec<_>>())
    }

    #[test]
    fn parallel_matches_sequential() {
        let b = batch(5_000);
        let mut seq = GraphTinker::with_defaults();
        seq.apply_batch(&b);
        let par = ParallelTinker::new(Default::default(), 4).unwrap();
        let r = par.apply_batch(&b);
        assert_eq!(par.num_edges(), seq.num_edges());
        assert_eq!(r.inserted + r.updated, 5_000);

        let mut seq_edges: Vec<(u32, u32, u32)> = Vec::new();
        seq.for_each_edge(|s, d, w| seq_edges.push((s, d, w)));
        let mut par_edges: Vec<(u32, u32, u32)> = Vec::new();
        par.stream_edges(|s, d, w| par_edges.push((s, d, w)));
        seq_edges.sort_unstable();
        par_edges.sort_unstable();
        assert_eq!(seq_edges, par_edges);
    }

    #[test]
    fn pipelined_submit_matches_sync_apply() {
        let sync = ParallelTinker::new(Default::default(), 3).unwrap();
        let pipe = ParallelTinker::new(Default::default(), 3).unwrap();
        let mut want = BatchResult::default();
        for round in 0..8u32 {
            let b = batch(700 + round * 53);
            want.merge(&sync.apply_batch(&b));
            pipe.submit(b);
        }
        assert_eq!(pipe.flush(), want);
        assert_eq!(pipe.num_edges(), sync.num_edges());
    }

    #[test]
    fn queries_barrier_on_inflight_batches() {
        let par = ParallelTinker::new(Default::default(), 2).unwrap();
        par.submit(EdgeBatch::inserts(&[Edge::new(7, 8, 9)]));
        // No flush yet: reads must still observe the submitted batch.
        assert_eq!(par.edge_weight(7, 8), Some(9));
        assert_eq!(par.flush().inserted, 1);
    }

    #[test]
    fn routing_queries() {
        let par = ParallelTinker::new(Default::default(), 3).unwrap();
        par.apply_batch(&EdgeBatch::inserts(&[
            Edge::new(10, 20, 1),
            Edge::new(10, 21, 2),
            Edge::new(99, 20, 3),
        ]));
        assert_eq!(par.edge_weight(10, 20), Some(1));
        assert_eq!(par.edge_weight(99, 20), Some(3));
        assert_eq!(par.edge_weight(99, 21), None);
        assert_eq!(par.out_degree(10), 2);
        let mut outs = Vec::new();
        par.for_each_out_edge(10, |d, _| outs.push(d));
        outs.sort_unstable();
        assert_eq!(outs, vec![20, 21]);
    }

    #[test]
    fn deletes_apply_in_parallel() {
        let par = ParallelTinker::new(Default::default(), 4).unwrap();
        par.apply_batch(&batch(1_000));
        let before = par.num_edges();
        let dels = EdgeBatch::deletes(&(0..500u32).map(|i| (i % 101, i % 257)).collect::<Vec<_>>());
        let r = par.apply_batch(&dels);
        assert!(r.deleted > 0);
        assert_eq!(par.num_edges(), before - r.deleted);
    }

    #[test]
    fn scratch_reuse_across_shrinking_batches_matches_sequential() {
        // Later batches are smaller than earlier ones: stale ops left in
        // a reused claim scratch would surface as phantom edges.
        let mut seq = GraphTinker::with_defaults();
        let par = ParallelTinker::new(Default::default(), 4).unwrap();
        for round in 0..5u32 {
            let n = 1_000 - round * 190;
            let edges: Vec<Edge> =
                (0..n).map(|i| Edge::new((i * 3 + round) % 97, i % 211, i + round)).collect();
            let b = EdgeBatch::inserts(&edges);
            seq.apply_batch(&b);
            par.apply_batch(&b);
        }
        let dels =
            EdgeBatch::deletes(&(0..300u32).map(|i| ((i * 3) % 97, i % 211)).collect::<Vec<_>>());
        seq.apply_batch(&dels);
        par.apply_batch(&dels);
        assert_eq!(par.num_edges(), seq.num_edges());
        let mut a: Vec<(u32, u32, u32)> = Vec::new();
        seq.for_each_edge(|s, d, w| a.push((s, d, w)));
        let mut b: Vec<(u32, u32, u32)> = Vec::new();
        par.stream_edges(|s, d, w| b.push((s, d, w)));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_merge_across_instances() {
        let mut par = ParallelTinker::new(Default::default(), 2).unwrap();
        par.apply_batch(&batch(100));
        assert_eq!(par.stats().operations, 100);
        par.reset_stats();
        assert_eq!(par.stats().operations, 0);
    }

    #[test]
    fn pinned_view_matches_live_store_at_boundary() {
        let par = ParallelTinker::new(Default::default(), 3).unwrap();
        for round in 0..5u32 {
            par.submit(batch(400 + round * 11));
        }
        par.flush();
        let view = par.pin();
        assert_eq!(view.epoch(), 5);
        assert_eq!(view.num_edges(), par.num_edges());
        assert_eq!(view.vertex_space(), par.vertex_space());
        let mut live: Vec<(u32, u32, u32)> = Vec::new();
        par.stream_edges(|s, d, w| live.push((s, d, w)));
        let mut pinned: Vec<(u32, u32, u32)> = Vec::new();
        view.stream_edges(|s, d, w| pinned.push((s, d, w)));
        live.sort_unstable();
        pinned.sort_unstable();
        assert_eq!(live, pinned);
    }

    #[test]
    fn view_queries_do_not_drain_the_pipeline() {
        let par = ParallelTinker::new(Default::default(), 2).unwrap();
        par.apply_batch(&EdgeBatch::inserts(&[Edge::new(1, 2, 3)]));
        let view = par.pin();
        assert_eq!(view.edge_weight(1, 2), Some(3));
        assert_eq!(view.out_degree(1), 1);
        assert!(view.has_edge(1, 2));
        // Writer applies more while the view is held; the view is frozen.
        par.submit(EdgeBatch::inserts(&[Edge::new(1, 9, 9)]));
        assert_eq!(view.out_degree(1), 1);
        drop(view);
        par.flush();
        let fresh = par.pin();
        assert_eq!(fresh.out_degree(1), 2);
    }

    #[test]
    fn with_shard_mut_reaches_the_next_pin() {
        let mut p = ParallelTinker::new(Default::default(), 2).unwrap();
        p.apply_batch(&batch(500));
        // A view at the last acked boundary exists; no batch follows the
        // changes below, so only the bases they drop can make the next pin
        // see them.
        drop(p.pin());
        let owner = partition_of(4_000, 2);
        for i in 0..2 {
            p.with_shard_mut(i, |g| g.expand_vertex_space(9_000));
        }
        p.with_shard_mut(owner, |g| g.import_sources(&[4_000]));
        assert_eq!(p.vertex_space(), 9_000);
        let view = p.pin();
        assert_eq!(view.epoch(), 1);
        assert_eq!(view.vertex_space(), 9_000, "state outside the batches reaches the view");
        assert_eq!(view.with_shard(owner, |g| g.vertex_space()), 9_000);
        assert_eq!(view.out_degree(4_000), 0);
        assert_eq!(view.num_edges(), p.num_edges());
    }

    #[test]
    fn vertex_space_is_max_over_instances() {
        let par = ParallelTinker::new(Default::default(), 2).unwrap();
        par.apply_batch(&EdgeBatch::inserts(&[Edge::unit(5, 777)]));
        assert_eq!(par.vertex_space(), 778);
    }
}
