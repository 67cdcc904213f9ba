//! CSR snapshots: the classic store-and-static-compute *with
//! pre-processing* model (paper §II.B).
//!
//! Traditional dynamic-graph pipelines periodically convert the adjacency
//! structure into Compressed Sparse Row form so analytics can stream edges
//! contiguously — paying a full rebuild pass after every update interval.
//! GraphTinker's CAL exists precisely to make that pass unnecessary: it
//! maintains CSR-like streamability *online*. This module provides the
//! rebuild path so the trade-off is measurable (see the
//! `ablation_cal_vs_csr` bench target): a [`CsrSnapshot`] implements
//! [`GraphStore`], so the same engine code runs over it.
//!
//! It is also the base of the epoch read side ([`crate::epoch`]): a pin
//! reads one immutable CSR per shard plus a netted delta, and the rebaser
//! builds the next CSR off the write path. Rows are sorted by destination,
//! so a point query is a binary search and a base merges with a sorted
//! delta in one walk.

use gtinker_types::{VertexId, Weight};

use crate::store::GraphStore;

/// An immutable CSR image of a graph: `offsets[v]..offsets[v+1]` indexes
/// the out-edges of `v` in `dsts`/`weights`, sorted by destination.
/// Offsets are `u32`: one snapshot holds fewer than 2³² edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrSnapshot {
    pub(crate) offsets: Vec<u32>,
    pub(crate) dsts: Vec<VertexId>,
    pub(crate) weights: Vec<Weight>,
}

impl Default for CsrSnapshot {
    fn default() -> Self {
        CsrSnapshot { offsets: vec![0], dsts: Vec::new(), weights: Vec::new() }
    }
}

impl CsrSnapshot {
    /// Builds a snapshot from any store with a two-pass counting sort over
    /// its edge stream — the "pre-processing" cost the paper's CAL avoids.
    pub fn build<S: GraphStore>(store: &S) -> Self {
        let mut counts = vec![0u32; store.vertex_space() as usize + 1];
        store.stream_edges(|src, _, _| counts[src as usize + 1] += 1);
        let mut csr = Self::with_counts(counts);
        let mut cursor = csr.offsets.clone();
        store.stream_edges(|src, dst, w| csr.place(&mut cursor, src, dst, w));
        csr.sort_rows();
        csr
    }

    /// Builds a snapshot directly from an edge list (testing/static use).
    pub fn from_edges(edges: &[(VertexId, VertexId, Weight)], vertex_space: u32) -> Self {
        let mut counts = vec![0u32; vertex_space as usize + 1];
        for &(src, _, _) in edges {
            counts[src as usize + 1] += 1;
        }
        let mut csr = Self::with_counts(counts);
        let mut cursor = csr.offsets.clone();
        for &(src, dst, w) in edges {
            csr.place(&mut cursor, src, dst, w);
        }
        csr.sort_rows();
        csr
    }

    /// Prefix-sums per-row counts (shifted by one) into offsets and sizes
    /// the edge arrays.
    fn with_counts(mut offsets: Vec<u32>) -> Self {
        let mut total = 0u64;
        for c in offsets.iter_mut() {
            total += u64::from(*c);
            *c = u32::try_from(total).expect("a CSR snapshot holds fewer than 2^32 edges");
        }
        let m = total as usize;
        CsrSnapshot { offsets, dsts: vec![0; m], weights: vec![0; m] }
    }

    fn place(&mut self, cursor: &mut [u32], src: VertexId, dst: VertexId, w: Weight) {
        let at = cursor[src as usize] as usize;
        self.dsts[at] = dst;
        self.weights[at] = w;
        cursor[src as usize] += 1;
    }

    /// Sorts every row by destination (rows arrive in store order).
    fn sort_rows(&mut self) {
        let mut row: Vec<(VertexId, Weight)> = Vec::new();
        for span in self.offsets.windows(2) {
            let (lo, hi) = (span[0] as usize, span[1] as usize);
            if self.dsts[lo..hi].windows(2).all(|p| p[0] < p[1]) {
                continue;
            }
            row.clear();
            row.extend(self.dsts[lo..hi].iter().copied().zip(self.weights[lo..hi].iter().copied()));
            row.sort_unstable();
            for (i, &(d, w)) in row.iter().enumerate() {
                self.dsts[lo + i] = d;
                self.weights[lo + i] = w;
            }
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// The row of `v`: its destinations (ascending) and their weights.
    pub(crate) fn row(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        match self.offsets.get(v as usize + 1) {
            Some(&hi) => {
                let (lo, hi) = (self.offsets[v as usize] as usize, hi as usize);
                (&self.dsts[lo..hi], &self.weights[lo..hi])
            }
            None => (&[], &[]),
        }
    }

    /// The out-edges of `v` as `(dst, weight)` pairs, by ascending `dst`.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let (dsts, weights) = self.row(v);
        dsts.iter().copied().zip(weights.iter().copied())
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.offsets.capacity() + self.dsts.capacity() + self.weights.capacity()) * 4
    }

    /// Empties the snapshot, keeping its buffers for a rebuild.
    pub(crate) fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.dsts.clear();
        self.weights.clear();
    }

    /// Appends one edge to the row being built (rows are built in order).
    #[inline]
    pub(crate) fn push_edge(&mut self, dst: VertexId, w: Weight) {
        self.dsts.push(dst);
        self.weights.push(w);
    }

    /// Closes the row being built.
    #[inline]
    pub(crate) fn end_row(&mut self) {
        let end = u32::try_from(self.dsts.len()).expect("a CSR snapshot holds < 2^32 edges");
        self.offsets.push(end);
    }
}

impl GraphStore for CsrSnapshot {
    fn vertex_space(&self) -> u32 {
        self.num_vertices()
    }
    fn num_edges(&self) -> u64 {
        self.dsts.len() as u64
    }
    fn out_degree(&self, v: VertexId) -> u32 {
        self.row(v).0.len() as u32
    }
    fn for_each_out_edge(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        for (d, w) in self.out_edges(v) {
            f(d, w);
        }
    }
    fn stream_edges(&self, mut f: impl FnMut(VertexId, VertexId, Weight)) {
        for (v, span) in self.offsets.windows(2).enumerate() {
            for i in span[0] as usize..span[1] as usize {
                f(v as VertexId, self.dsts[i], self.weights[i]);
            }
        }
    }
    fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        let (dsts, weights) = self.row(src);
        dsts.binary_search(&dst).ok().map(|i| weights[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphTinker;
    use gtinker_types::{Edge, EdgeBatch};

    fn sample() -> GraphTinker {
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&EdgeBatch::inserts(&[
            Edge::new(0, 1, 5),
            Edge::new(0, 2, 7),
            Edge::new(2, 0, 1),
            Edge::new(4, 1, 9),
        ]));
        g
    }

    #[test]
    fn build_matches_store_contents() {
        let g = sample();
        let csr = CsrSnapshot::build(&g);
        assert_eq!(csr.num_vertices(), 5);
        assert_eq!(GraphStore::num_edges(&csr), 4);
        assert_eq!(csr.out_degree(0), 2);
        assert_eq!(csr.out_degree(1), 0);
        assert_eq!(csr.out_degree(4), 1);
        let outs: Vec<_> = csr.out_edges(0).collect();
        assert_eq!(outs, vec![(1, 5), (2, 7)], "rows are sorted by destination");
        assert_eq!(csr.edge_weight(0, 2), Some(7));
        assert_eq!(csr.edge_weight(0, 3), None);
        assert_eq!(csr.edge_weight(9, 0), None);

        let mut from_store = Vec::new();
        g.for_each_edge(|s, d, w| from_store.push((s, d, w)));
        from_store.sort_unstable();
        let mut from_csr = Vec::new();
        csr.stream_edges(|s, d, w| from_csr.push((s, d, w)));
        assert_eq!(from_csr, from_store, "the stream is (src, dst)-ordered");
    }

    #[test]
    fn stream_is_sorted_by_source() {
        let csr = CsrSnapshot::build(&sample());
        let mut last_src = 0;
        csr.stream_edges(|s, _, _| {
            assert!(s >= last_src, "CSR stream must be source-ordered");
            last_src = s;
        });
    }

    #[test]
    fn from_edges_equivalent_to_build() {
        let g = sample();
        let mut edges = Vec::new();
        g.for_each_edge(|s, d, w| edges.push((s, d, w)));
        edges.reverse();
        assert_eq!(CsrSnapshot::from_edges(&edges, 5), CsrSnapshot::build(&g));
    }

    #[test]
    fn empty_store_builds_empty_csr() {
        let g = GraphTinker::with_defaults();
        let csr = CsrSnapshot::build(&g);
        assert_eq!(csr, CsrSnapshot::default());
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(GraphStore::num_edges(&csr), 0);
        assert_eq!(csr.out_degree(7), 0);
        assert_eq!(csr.out_edges(7).count(), 0);
    }
}
