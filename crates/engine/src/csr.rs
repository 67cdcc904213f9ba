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

use gtinker_types::{VertexId, Weight};

use crate::store::GraphStore;

/// An immutable CSR image of a graph: `offsets[v]..offsets[v+1]` indexes
/// the out-edges of `v` in `dsts`/`weights`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrSnapshot {
    offsets: Vec<u64>,
    dsts: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl CsrSnapshot {
    /// Builds a snapshot from any store with a two-pass counting sort over
    /// its edge stream — the "pre-processing" cost the paper's CAL avoids.
    pub fn build<S: GraphStore>(store: &S) -> Self {
        let n = store.vertex_space() as usize;
        let mut counts = vec![0u64; n + 1];
        store.stream_edges(|src, _, _| counts[src as usize + 1] += 1);
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let m = *counts.last().unwrap_or(&0) as usize;
        let mut dsts = vec![0 as VertexId; m];
        let mut weights = vec![0 as Weight; m];
        let mut cursor = counts.clone();
        store.stream_edges(|src, dst, w| {
            let at = cursor[src as usize] as usize;
            dsts[at] = dst;
            weights[at] = w;
            cursor[src as usize] += 1;
        });
        CsrSnapshot { offsets: counts, dsts, weights }
    }

    /// Builds a snapshot directly from an edge list (testing/static use).
    pub fn from_edges(edges: &[(VertexId, VertexId, Weight)], vertex_space: u32) -> Self {
        let n = vertex_space as usize;
        let mut counts = vec![0u64; n + 1];
        for &(src, _, _) in edges {
            counts[src as usize + 1] += 1;
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let m = edges.len();
        let mut dsts = vec![0 as VertexId; m];
        let mut weights = vec![0 as Weight; m];
        let mut cursor = counts.clone();
        for &(src, dst, w) in edges {
            let at = cursor[src as usize] as usize;
            dsts[at] = dst;
            weights[at] = w;
            cursor[src as usize] += 1;
        }
        CsrSnapshot { offsets: counts, dsts, weights }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// The out-edges of `v` as `(dst, weight)` pairs.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let (lo, hi) = match self.offsets.get(v as usize) {
            Some(&lo) => (lo as usize, self.offsets[v as usize + 1] as usize),
            None => (0, 0),
        };
        self.dsts[lo..hi].iter().copied().zip(self.weights[lo..hi].iter().copied())
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.capacity() * 8 + (self.dsts.capacity() + self.weights.capacity()) * 4
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
        match self.offsets.get(v as usize) {
            Some(&lo) => (self.offsets[v as usize + 1] - lo) as u32,
            None => 0,
        }
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
        self.out_edges(src).find(|&(d, _)| d == dst).map(|(_, w)| w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_core::GraphTinker;
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
        let mut outs: Vec<_> = csr.out_edges(0).collect();
        outs.sort_unstable();
        assert_eq!(outs, vec![(1, 5), (2, 7)]);

        let mut from_store = Vec::new();
        g.for_each_edge(|s, d, w| from_store.push((s, d, w)));
        from_store.sort_unstable();
        let mut from_csr = Vec::new();
        csr.stream_edges(|s, d, w| from_csr.push((s, d, w)));
        from_csr.sort_unstable();
        assert_eq!(from_csr, from_store);
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
        let a = CsrSnapshot::build(&g);
        let mut b_edges = Vec::new();
        CsrSnapshot::from_edges(&edges, 5).stream_edges(|s, d, w| b_edges.push((s, d, w)));
        let mut a_edges = Vec::new();
        a.stream_edges(|s, d, w| a_edges.push((s, d, w)));
        a_edges.sort_unstable();
        b_edges.sort_unstable();
        assert_eq!(a_edges, b_edges);
    }

    #[test]
    fn empty_store_builds_empty_csr() {
        let g = GraphTinker::with_defaults();
        let csr = CsrSnapshot::build(&g);
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(GraphStore::num_edges(&csr), 0);
        assert_eq!(csr.out_degree(7), 0);
        assert_eq!(csr.out_edges(7).count(), 0);
    }

    #[test]
    fn engine_runs_over_csr() {
        use crate::algorithms::Bfs;
        use crate::{Engine, ModePolicy};
        let g = sample();
        let csr = CsrSnapshot::build(&g);
        let mut e = Engine::new(Bfs::new(0), ModePolicy::AlwaysFull);
        e.run_from_roots(&csr);
        assert_eq!(e.values()[1], 1);
        assert_eq!(e.values()[2], 1);
        assert_eq!(e.values()[4], u32::MAX);
    }
}
