//! The [`GraphStore`] contract: the reads every store answers, and the two
//! edge-retrieval paths the hybrid engine multiplexes between.

use gtinker_types::{VertexId, Weight};

use crate::tinker::GraphTinker;

/// A dynamic graph store the engine can run analytics over, and the read
/// half of a [`ShardStore`](crate::ShardStore).
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

    /// Point query: the weight of `(src, dst)`, if it is a live edge, from
    /// the store's FIND path (triangle counting leans on it heavily).
    fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight>;

    /// Whether `(src, dst)` is a live edge.
    fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.edge_weight(src, dst).is_some()
    }

    /// Number of edge shards the store exposes for parallel analytics.
    ///
    /// An interval-sharded store (paper §III.D) exposes one shard per
    /// instance; every other store is one shard (the default). The
    /// concatenation of the shard streams, in shard order, is exactly the
    /// [`stream_edges`](Self::stream_edges) order — the property that lets
    /// a sharded full-processing pass reproduce the single-shard result —
    /// and all of one source's out-edges live in a single shard (the
    /// single-writer interval rule).
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
        GraphTinker::for_each_edge(self, f)
    }
    fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        GraphTinker::edge_weight(self, src, dst)
    }
}
