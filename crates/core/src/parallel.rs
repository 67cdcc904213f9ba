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
//! Batches are applied through a persistent [`ShardPool`]: workers are
//! spawned once and fed per-shard queues, each worker claims its own
//! interval out of the shared batch (parallelizing the partition pass),
//! and the asynchronous [`submit`](Sharded::submit) /
//! [`flush`](Sharded::flush) pair double-buffers so batch *k+1*
//! partitions while batch *k* applies.
//!
//! Reads go through one facade, [`Sharded`]'s [`GraphStore`] impl, generic
//! over how shard `i` is borrowed ([`ShardAccess`]): the live pool after a
//! pipeline barrier ([`ParallelTinker`], and `ParallelStinger` in
//! `gtinker-stinger`), or an epoch pin's CSR base plus netted delta with
//! no barrier ([`StoreView`]).

use std::sync::Arc;

use gtinker_types::{partition_of, EdgeBatch, Result, VertexId, Weight};

use crate::epoch::ReadGuard;
use crate::pool::{ShardPool, ShardStore};
use crate::stats::ProbeStats;
use crate::store::GraphStore;
use crate::tinker::{ApplyBatch, BatchResult, GraphTinker};

/// How a sharded store lends out shard `i` for reading.
pub trait ShardAccess {
    /// The per-interval store.
    type Shard: GraphStore;

    /// Number of interval shards.
    fn num_shards(&self) -> usize;

    /// Runs `f` over shard `i` read-only.
    fn with_shard<R>(&self, i: usize, f: impl FnOnce(&Self::Shard) -> R) -> R;
}

/// The live shards, after a pipeline barrier so every submitted batch is
/// visible.
impl<S: ShardStore> ShardAccess for ShardPool<S> {
    type Shard = S;

    fn num_shards(&self) -> usize {
        ShardPool::num_shards(self)
    }
    fn with_shard<R>(&self, i: usize, f: impl FnOnce(&S) -> R) -> R {
        ShardPool::with_shard(self, i, f)
    }
}

/// A set of interval-partitioned store instances behind one read API:
/// point queries are routed to the instance owning the source, whole-graph
/// reads visit the instances in interval order.
pub struct Sharded<A>(A);

/// Interval-partitioned [`GraphTinker`] instances updated in parallel by a
/// persistent worker pool.
pub type ParallelTinker = Sharded<ShardPool<GraphTinker>>;

/// A pinned, snapshot-isolated view of a sharded pool.
///
/// Obtained from [`pin_view`](Sharded::pin_view); reads every shard at one
/// batch boundary ([`epoch`](Sharded::epoch)) — an immutable CSR base plus
/// the netted delta after it — with no pipeline barrier, so queries run
/// while ingestion continues.
pub type StoreView = Sharded<ReadGuard>;

impl<A: ShardAccess> Sharded<A> {
    /// Number of parallel instances (one per intended core).
    #[inline]
    pub fn num_instances(&self) -> usize {
        self.0.num_shards()
    }

    #[inline]
    fn shard(&self, src: VertexId) -> usize {
        partition_of(src, self.num_instances())
    }

    /// Runs `f` over one instance read-only (shard = instance index).
    pub fn with_instance<R>(&self, i: usize, f: impl FnOnce(&A::Shard) -> R) -> R {
        self.0.with_shard(i, f)
    }

    /// Total live edges across instances (the [`GraphStore`] read, callable
    /// without the trait in scope).
    pub fn num_edges(&self) -> u64 {
        GraphStore::num_edges(self)
    }
}

/// The only stores with more than one shard: one per instance, each
/// streaming its own edges, so sharded analytics mirror the ingestion
/// layout.
impl<A: ShardAccess> GraphStore for Sharded<A> {
    fn vertex_space(&self) -> u32 {
        (0..self.num_instances())
            .map(|i| self.with_instance(i, |g| g.vertex_space()))
            .max()
            .unwrap_or(0)
    }
    fn num_edges(&self) -> u64 {
        (0..self.num_instances()).map(|i| self.with_instance(i, |g| g.num_edges())).sum()
    }
    fn out_degree(&self, src: VertexId) -> u32 {
        self.with_instance(self.shard(src), |g| g.out_degree(src))
    }
    fn for_each_out_edge(&self, src: VertexId, f: impl FnMut(VertexId, Weight)) {
        self.with_instance(self.shard(src), |g| g.for_each_out_edge(src, f));
    }
    fn stream_edges(&self, mut f: impl FnMut(VertexId, VertexId, Weight)) {
        for i in 0..self.num_instances() {
            self.with_instance(i, |g| g.stream_edges(&mut f));
        }
    }
    fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        self.with_instance(self.shard(src), |g| g.edge_weight(src, dst))
    }
    fn num_shards(&self) -> usize {
        self.num_instances()
    }
    fn shard_of_source(&self, v: VertexId) -> usize {
        self.shard(v)
    }
    fn stream_shard_edges(&self, shard: usize, f: impl FnMut(VertexId, VertexId, Weight)) {
        self.with_instance(shard, |g| g.stream_edges(f))
    }
}

impl<S: ShardStore> Sharded<ShardPool<S>> {
    /// Creates `n` empty instances sharing one configuration, and spawns
    /// the `n` worker threads that own them until drop.
    pub fn new(config: S::Config, n: usize) -> Result<Self> {
        Ok(Sharded(ShardPool::new(Self::instances(config, n)?)))
    }

    #[doc(hidden)]
    pub fn new_with_views(config: S::Config, n: usize) -> Result<Self> {
        Self::new(config, n)
    }

    fn instances(config: S::Config, n: usize) -> Result<Vec<S>> {
        assert!(n > 0, "need at least one instance");
        (0..n).map(|_| S::with_config(config)).collect()
    }

    /// Pins a batch boundary and returns a consistent, barrier-free view
    /// over it (always `Some`; the `Option` is kept for the `benchmark/`
    /// harness). The pin clones each shard's CSR base and netted delta;
    /// it never queues behind the batches in flight. The writer keeps
    /// applying later batches while the view is held; see [`crate::epoch`]
    /// for the isolation contract.
    pub fn pin_view(&self) -> Option<StoreView> {
        Some(Sharded(self.0.pin()))
    }

    /// `(base_epoch, delta_ops)` of the read side pins are served from:
    /// the batch boundary of the oldest shard base, and the ops held after
    /// the bases. No barrier.
    pub fn read_side_stats(&self) -> (u64, u64) {
        self.0.read_side_stats()
    }

    /// One past the highest fully-applied batch seq (single atomic load —
    /// safe on barrier-free paths like `/healthz` and `/debug/vars`).
    #[inline]
    pub fn acked_batches(&self) -> u64 {
        self.0.acked_batches()
    }

    /// Number of submitted-but-unreaped batches (racy diagnostic; see
    /// [`ShardPool::pending_batches`]).
    #[inline]
    pub fn pending_batches(&self) -> usize {
        self.0.pending_batches()
    }

    /// Runs `f` over instance `i` mutably after a pipeline barrier; the
    /// next [`pin_view`](Self::pin_view) sees the change (see
    /// [`ShardPool::with_shard_mut`]).
    pub fn with_instance_mut(&mut self, i: usize, f: impl FnOnce(&mut S)) {
        self.0.with_shard_mut(i, f);
    }

    /// Applies a batch synchronously through the worker pool: every worker
    /// claims its interval from the shared batch and applies it, and the
    /// merged outcome counts are returned.
    pub fn apply_batch(&self, batch: &EdgeBatch) -> BatchResult {
        self.0.apply(batch)
    }

    /// [`apply_batch`](Self::apply_batch) for a batch whose ops are grouped
    /// by source: each instance applies its claim with
    /// [`ApplyBatch::apply_grouped`], so the instances bulk-place in
    /// parallel.
    pub fn apply_grouped(&self, batch: &EdgeBatch) -> BatchResult {
        self.0.apply_grouped(batch)
    }

    /// Queues a batch asynchronously (pipelined ingestion): the call
    /// returns as soon as the batch is staged, so the caller can prepare
    /// batch *k+1* — and the workers can claim-partition it — while batch
    /// *k* is still applying. Results are collected by [`flush`]. Queries
    /// issued before a flush barrier on the in-flight batches themselves.
    ///
    /// [`flush`]: Self::flush
    pub fn submit(&self, batch: EdgeBatch) {
        self.0.submit(Arc::new(batch));
    }

    /// [`submit`](Self::submit) without re-owning the batch, for callers
    /// (e.g. a WAL writer) that keep a reference to it.
    pub fn submit_shared(&self, batch: Arc<EdgeBatch>) {
        self.0.submit(batch);
    }

    /// Drains the pipeline, returning the merged outcome counts of every
    /// batch submitted since the last flush.
    pub fn flush(&self) -> BatchResult {
        self.0.flush()
    }
}

impl<S: ShardStore> ApplyBatch for Sharded<ShardPool<S>> {
    fn apply(&mut self, batch: &EdgeBatch) -> BatchResult {
        self.apply_batch(batch)
    }

    fn apply_grouped(&mut self, batch: &EdgeBatch) -> BatchResult {
        Sharded::apply_grouped(self, batch)
    }
}

impl Sharded<ReadGuard> {
    /// The pinned batch boundary: exactly the first `epoch()` submitted
    /// batches are visible, in submission order.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.0.epoch()
    }
}

impl ParallelTinker {
    /// Merged probe statistics across instances.
    pub fn stats(&self) -> ProbeStats {
        let mut s = ProbeStats::default();
        for i in 0..self.num_instances() {
            self.with_instance(i, |g| s.merge(&g.stats()));
        }
        s
    }

    /// Clears probe statistics on all instances.
    pub fn reset_stats(&mut self) {
        for i in 0..self.num_instances() {
            self.with_instance_mut(i, |g| g.reset_stats());
        }
    }

    /// Publishes the `memory_*_bytes` gauge family summed across all
    /// instances (a per-instance publish would overwrite, not aggregate).
    pub fn publish_memory_metrics(&self) {
        let mut sums = (0usize, 0usize, 0usize, 0usize, 0usize);
        for i in 0..self.num_instances() {
            let (inline, blocks, hub, cal, total) = self.with_instance(i, |g| g.memory_breakdown());
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

impl<A: ShardAccess> std::fmt::Debug for Sharded<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sharded")
            .field("instances", &self.num_instances())
            .field("edges", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_types::Edge;

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
        let view = par.pin_view().expect("views enabled");
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
        let view = par.pin_view().expect("views enabled");
        assert_eq!(view.edge_weight(1, 2), Some(3));
        assert_eq!(view.out_degree(1), 1);
        assert!(view.has_edge(1, 2));
        // Writer applies more while the view is held; the view is frozen.
        par.submit(EdgeBatch::inserts(&[Edge::new(1, 9, 9)]));
        assert_eq!(view.out_degree(1), 1);
        drop(view);
        par.flush();
        let fresh = par.pin_view().expect("views enabled");
        assert_eq!(fresh.out_degree(1), 2);
    }

    #[test]
    fn with_instance_mut_reaches_the_next_pin() {
        let mut p = ParallelTinker::new(Default::default(), 2).unwrap();
        p.apply_batch(&batch(500));
        // A view at the last acked boundary exists; no batch follows the
        // changes below, so only the bases they drop can make the next pin
        // see them.
        drop(p.pin_view().expect("views enabled"));
        let owner = partition_of(4_000, 2);
        for i in 0..2 {
            p.with_instance_mut(i, |g| g.expand_vertex_space(9_000));
        }
        p.with_instance_mut(owner, |g| g.import_sources(&[4_000]));
        assert_eq!(p.vertex_space(), 9_000);
        let view = p.pin_view().expect("views enabled");
        assert_eq!(view.epoch(), 1);
        assert_eq!(view.vertex_space(), 9_000, "state outside the batches reaches the view");
        assert_eq!(view.with_instance(owner, |g| g.vertex_space()), 9_000);
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
