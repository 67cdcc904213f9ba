//! Edges, update operations and update batches.

use serde::{Deserialize, Serialize};

use crate::{VertexId, Weight};

/// A directed, weighted edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Edge {
    /// Source vertex id (the vertex that "owns" the edge).
    pub src: VertexId,
    /// Destination vertex id.
    pub dst: VertexId,
    /// Edge weight.
    pub weight: Weight,
}

impl Edge {
    /// Creates a new edge.
    #[inline]
    pub fn new(src: VertexId, dst: VertexId, weight: Weight) -> Self {
        Edge { src, dst, weight }
    }

    /// Creates a unit-weight edge.
    #[inline]
    pub fn unit(src: VertexId, dst: VertexId) -> Self {
        Edge::new(src, dst, 1)
    }

    /// The edge with source and destination exchanged, keeping the weight.
    #[inline]
    pub fn reversed(self) -> Self {
        Edge::new(self.dst, self.src, self.weight)
    }
}

/// A single update operation on a dynamic graph.
///
/// The paper's update streams consist of insertions (which also act as
/// weight-updates when the edge already exists) and deletions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UpdateOp {
    /// Insert the edge, or update its weight if `(src, dst)` already exists.
    Insert(Edge),
    /// Delete the edge `(src, dst)` if present.
    Delete {
        /// Source of the edge to remove.
        src: VertexId,
        /// Destination of the edge to remove.
        dst: VertexId,
    },
}

impl UpdateOp {
    /// Source vertex touched by this operation.
    #[inline]
    pub fn src(&self) -> VertexId {
        match *self {
            UpdateOp::Insert(e) => e.src,
            UpdateOp::Delete { src, .. } => src,
        }
    }

    /// Destination vertex touched by this operation.
    #[inline]
    pub fn dst(&self) -> VertexId {
        match *self {
            UpdateOp::Insert(e) => e.dst,
            UpdateOp::Delete { dst, .. } => dst,
        }
    }

    /// Whether this is an insertion.
    #[inline]
    pub fn is_insert(&self) -> bool {
        matches!(self, UpdateOp::Insert(_))
    }
}

/// A batch of update operations, the unit at which the paper streams changes
/// into the data structures (1 M edges per batch in the evaluation).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeBatch {
    ops: Vec<UpdateOp>,
}

impl EdgeBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        EdgeBatch { ops: Vec::new() }
    }

    /// Creates an empty batch with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EdgeBatch { ops: Vec::with_capacity(cap) }
    }

    /// Builds an insertion batch from a slice of edges.
    pub fn inserts(edges: &[Edge]) -> Self {
        EdgeBatch { ops: edges.iter().map(|&e| UpdateOp::Insert(e)).collect() }
    }

    /// Builds a deletion batch from `(src, dst)` pairs.
    pub fn deletes(pairs: &[(VertexId, VertexId)]) -> Self {
        EdgeBatch { ops: pairs.iter().map(|&(src, dst)| UpdateOp::Delete { src, dst }).collect() }
    }

    /// Appends an insertion.
    #[inline]
    pub fn push_insert(&mut self, e: Edge) {
        self.ops.push(UpdateOp::Insert(e));
    }

    /// Appends a deletion.
    #[inline]
    pub fn push_delete(&mut self, src: VertexId, dst: VertexId) {
        self.ops.push(UpdateOp::Delete { src, dst });
    }

    /// Appends an arbitrary operation, preserving stream order.
    #[inline]
    pub fn push(&mut self, op: UpdateOp) {
        self.ops.push(op);
    }

    /// Number of operations in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations, in stream order.
    #[inline]
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// Iterates over the operations.
    pub fn iter(&self) -> impl Iterator<Item = &UpdateOp> {
        self.ops.iter()
    }

    /// Collapses redundant operations: for each `(src, dst)` pair only the
    /// *last* operation survives, preserving first-occurrence order. Useful
    /// for pre-conditioning noisy update streams (duplicate inserts are
    /// weight updates; insert-then-delete cancels out at the stream level).
    pub fn dedup_last_wins(&self) -> EdgeBatch {
        use std::collections::HashMap;
        // Map each pair to the index of its last op.
        let mut last: HashMap<(VertexId, VertexId), usize> = HashMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            last.insert((op.src(), op.dst()), i);
        }
        let mut seen: std::collections::HashSet<(VertexId, VertexId)> = Default::default();
        let mut out = EdgeBatch::with_capacity(last.len());
        for (i, op) in self.ops.iter().enumerate() {
            let key = (op.src(), op.dst());
            if last[&key] == i && seen.insert(key) {
                out.ops.push(*op);
            }
        }
        out
    }

    /// Empties the batch, keeping its allocation for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// Splits the batch into `n` sub-batches by `hash(src) % n`, the
    /// interval partitioning the paper uses to shard updates across
    /// parallel GraphTinker instances (Fig. 6).
    pub fn partition(&self, n: usize) -> Vec<EdgeBatch> {
        assert!(n > 0, "partition count must be positive");
        let mut parts = vec![EdgeBatch::with_capacity(self.len() / n + 1); n];
        self.partition_into(&mut parts);
        parts
    }

    /// [`partition`](Self::partition) into caller-owned sub-batches,
    /// clearing each first. Steady-state ingestion loops keep the `parts`
    /// vector across batches so re-partitioning allocates nothing once the
    /// sub-batches have grown to their working size.
    pub fn partition_into(&self, parts: &mut [EdgeBatch]) {
        assert!(!parts.is_empty(), "partition count must be positive");
        for p in parts.iter_mut() {
            p.clear();
        }
        for &op in &self.ops {
            let idx = partition_of(op.src(), parts.len());
            parts[idx].ops.push(op);
        }
    }
}

impl FromIterator<UpdateOp> for EdgeBatch {
    fn from_iter<T: IntoIterator<Item = UpdateOp>>(iter: T) -> Self {
        EdgeBatch { ops: iter.into_iter().collect() }
    }
}

impl IntoIterator for EdgeBatch {
    type Item = UpdateOp;
    type IntoIter = std::vec::IntoIter<UpdateOp>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter()
    }
}

/// The partition a source vertex belongs to when sharding across `n`
/// parallel instances. Uses a multiplicative hash so that consecutive ids do
/// not all land in the same shard.
#[inline]
pub fn partition_of(src: VertexId, n: usize) -> usize {
    // Fibonacci hashing: golden-ratio multiplier spreads consecutive ids.
    let h = (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_constructors() {
        let e = Edge::new(1, 2, 7);
        assert_eq!((e.src, e.dst, e.weight), (1, 2, 7));
        let u = Edge::unit(3, 4);
        assert_eq!(u.weight, 1);
        let r = e.reversed();
        assert_eq!((r.src, r.dst, r.weight), (2, 1, 7));
    }

    #[test]
    fn update_op_accessors() {
        let i = UpdateOp::Insert(Edge::new(5, 6, 1));
        assert_eq!(i.src(), 5);
        assert_eq!(i.dst(), 6);
        assert!(i.is_insert());
        let d = UpdateOp::Delete { src: 8, dst: 9 };
        assert_eq!(d.src(), 8);
        assert_eq!(d.dst(), 9);
        assert!(!d.is_insert());
    }

    #[test]
    fn batch_builders() {
        let edges = [Edge::unit(0, 1), Edge::unit(1, 2)];
        let b = EdgeBatch::inserts(&edges);
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|op| op.is_insert()));

        let d = EdgeBatch::deletes(&[(0, 1)]);
        assert_eq!(d.len(), 1);
        assert!(!d.ops()[0].is_insert());

        let mut m = EdgeBatch::new();
        assert!(m.is_empty());
        m.push_insert(Edge::unit(1, 1));
        m.push_delete(1, 1);
        m.push(UpdateOp::Insert(Edge::unit(2, 3)));
        assert_eq!(m.len(), 3);
        assert_eq!(m.ops()[2], UpdateOp::Insert(Edge::unit(2, 3)));
    }

    #[test]
    fn partition_preserves_all_ops_and_is_disjoint() {
        let edges: Vec<Edge> = (0..1000).map(|i| Edge::unit(i % 97, i)).collect();
        let batch = EdgeBatch::inserts(&edges);
        let parts = batch.partition(4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, batch.len());
        // Every op lands in the shard its source hashes to.
        for (i, p) in parts.iter().enumerate() {
            for op in p.iter() {
                assert_eq!(partition_of(op.src(), 4), i);
            }
        }
    }

    #[test]
    fn partition_same_source_same_shard() {
        // All ops with equal src must map to one shard (single-writer rule).
        let batch = EdgeBatch::inserts(&(0..64).map(|d| Edge::unit(42, d)).collect::<Vec<_>>());
        let parts = batch.partition(8);
        let nonempty = parts.iter().filter(|p| !p.is_empty()).count();
        assert_eq!(nonempty, 1);
    }

    #[test]
    fn partition_into_matches_partition_and_clears_stale_ops() {
        let batch = EdgeBatch::inserts(&(0..100).map(|i| Edge::unit(i, i + 1)).collect::<Vec<_>>());
        let mut parts = vec![EdgeBatch::new(); 4];
        batch.partition_into(&mut parts);
        assert_eq!(parts, batch.partition(4));
        let small = EdgeBatch::inserts(&[Edge::unit(1, 2)]);
        small.partition_into(&mut parts);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 1);
    }

    #[test]
    fn dedup_keeps_last_op_per_pair() {
        let mut b = EdgeBatch::new();
        b.push_insert(Edge::new(1, 2, 5));
        b.push_insert(Edge::new(3, 4, 1));
        b.push_insert(Edge::new(1, 2, 9)); // supersedes the first
        b.push_delete(3, 4); // supersedes the insert
        b.push_insert(Edge::new(5, 6, 2));
        let d = b.dedup_last_wins();
        let ops: Vec<UpdateOp> = d.into_iter().collect();
        assert_eq!(
            ops,
            vec![
                UpdateOp::Insert(Edge::new(1, 2, 9)),
                UpdateOp::Delete { src: 3, dst: 4 },
                UpdateOp::Insert(Edge::new(5, 6, 2)),
            ]
        );
    }

    #[test]
    fn dedup_of_empty_and_singleton() {
        assert_eq!(EdgeBatch::new().dedup_last_wins().len(), 0);
        let b = EdgeBatch::inserts(&[Edge::unit(1, 1)]);
        assert_eq!(b.dedup_last_wins(), b);
    }

    #[test]
    fn batch_from_iterator_roundtrip() {
        let ops = vec![UpdateOp::Insert(Edge::unit(1, 2)), UpdateOp::Delete { src: 1, dst: 2 }];
        let b: EdgeBatch = ops.clone().into_iter().collect();
        let back: Vec<UpdateOp> = b.into_iter().collect();
        assert_eq!(back, ops);
    }
}
