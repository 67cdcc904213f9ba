//! The inline tier: up to `cap` edges packed into the vertex's own
//! [`InlineAdj`] entry, probed with one branchless 4-wide compare. No
//! edgeblock is allocated for a vertex that lives here.

use gtinker_types::{Edge, VertexId, Weight, INLINE_CAP_MAX, NIL_U32, NIL_VERTEX};

use super::{TierEdge, TierOps, Upsert};
use crate::segvec::SegVec;
use crate::stats::ProbeStats;
use crate::vertex::InlineAdj;

/// Entries per segment of the entry table (36 KiB of 36-byte entries).
const SEGMENT_ENTRIES: usize = 1024;

/// Inline adjacency entries, indexed by dense source id.
#[derive(Debug, Clone)]
pub struct InlineTier {
    entries: SegVec<InlineAdj>,
    /// Edges an entry may hold (`TinkerConfig::inline_cap`, at most
    /// [`INLINE_CAP_MAX`]).
    cap: usize,
}

impl InlineTier {
    /// An empty tier whose entries hold up to `cap` edges.
    pub fn new(cap: usize) -> Self {
        assert!(cap <= INLINE_CAP_MAX, "inline entries hold at most {INLINE_CAP_MAX} edges");
        InlineTier { entries: SegVec::new(SEGMENT_ENTRIES), cap }
    }

    /// The entry of `dense`, growing the table to reach it.
    #[inline]
    fn entry_mut(&mut self, dense: u32) -> &mut InlineAdj {
        let n = dense as usize + 1;
        if self.entries.len() < n {
            self.entries.extend_with(n - self.entries.len(), InlineAdj::EMPTY);
        }
        &mut self.entries[dense as usize]
    }

    /// Streams the edges of the dense ids in `dense` as `(src, dst,
    /// weight)`, in dense order, naming each source by `src_of`: one
    /// sequential walk of the table (an entry outside this tier is empty).
    pub(crate) fn stream(
        &self,
        dense: std::ops::Range<usize>,
        src_of: impl Fn(u32) -> VertexId,
        mut f: impl FnMut(VertexId, VertexId, Weight),
    ) {
        let n = dense.end.min(self.entries.len()).saturating_sub(dense.start);
        for (d, adj) in self.entries.iter().enumerate().skip(dense.start).take(n) {
            let len = adj.len as usize;
            if len > 0 {
                let src = src_of(d as u32);
                adj.dsts[..len].iter().zip(&adj.weights[..len]).for_each(|(&v, &w)| f(src, v, w));
            }
        }
    }

    /// Nominal probe accounting: one 4-wide compare over the entry.
    #[inline]
    fn count_probe(stats: &mut ProbeStats) {
        stats.subblocks_visited += 1;
        stats.cells_inspected += INLINE_CAP_MAX as u64;
        stats.workblocks_fetched += 1;
    }
}

impl TierOps for InlineTier {
    #[inline]
    fn find(&self, dense: u32, dst: VertexId) -> Option<Weight> {
        let adj = self.entries.get(dense as usize)?;
        adj.find(dst).map(|i| adj.weights[i])
    }

    #[inline]
    fn upsert(&mut self, dense: u32, e: Edge, _h0: u64, stats: &mut ProbeStats) -> Upsert {
        Self::count_probe(stats);
        let cap = self.cap;
        let adj = self.entry_mut(dense);
        if let Some(slot) = adj.find(e.dst) {
            adj.weights[slot] = e.weight;
            return Upsert::Updated;
        }
        if adj.len as usize >= cap {
            return Upsert::Full;
        }
        adj.push(e.dst, e.weight);
        Upsert::Inserted
    }

    #[inline]
    fn remove(&mut self, dense: u32, dst: VertexId, _h0: u64, stats: &mut ProbeStats) -> bool {
        Self::count_probe(stats);
        let Some(adj) = self.entries.get_mut(dense as usize) else { return false };
        let Some(slot) = adj.find(dst) else { return false };
        adj.remove(slot);
        true
    }

    #[inline]
    fn for_each(&self, dense: u32, mut f: impl FnMut(VertexId, Weight)) {
        if let Some(adj) = self.entries.get(dense as usize) {
            for i in 0..adj.len as usize {
                f(adj.dsts[i], adj.weights[i]);
            }
        }
    }

    fn len(&self, dense: u32) -> usize {
        self.entries.get(dense as usize).map_or(0, |a| a.len as usize)
    }

    fn holds(&self, dense: u32) -> bool {
        self.len(dense) > 0
    }

    fn drain(&mut self, dense: u32) -> Vec<TierEdge> {
        let mut edges = Vec::new();
        self.for_each(dense, |dst, w| edges.push((dst, w)));
        if let Some(adj) = self.entries.get_mut(dense as usize) {
            *adj = InlineAdj::EMPTY;
        }
        edges
    }

    fn adopt(&mut self, dense: u32, _src: VertexId, edges: Vec<TierEdge>, _: &mut ProbeStats) {
        assert!(edges.len() <= self.cap, "{} edges exceed the inline cap", edges.len());
        let adj = self.entry_mut(dense);
        debug_assert_eq!(adj.len, 0, "adopting into an occupied inline entry");
        for (dst, weight) in edges {
            adj.push(dst, weight);
        }
    }

    #[inline]
    fn warm(&self, dense: u32) -> u32 {
        self.entries.get(dense as usize).map_or(NIL_U32, |a| a.dsts[0] ^ u32::from(a.len))
    }

    fn memory_bytes(&self) -> usize {
        self.entries.allocated_bytes()
    }

    /// Every entry is a duplicate-free prefix of at most `cap` slots, and
    /// the slots past it are blank (the 4-wide compare reads all four).
    fn validate(&self) -> Result<(), String> {
        for (dense, adj) in self.entries.iter().enumerate() {
            let len = adj.len as usize;
            if len > self.cap {
                return Err(format!("inline entry {dense}: {len} edges over the cap {}", self.cap));
            }
            for i in 0..INLINE_CAP_MAX {
                let blank = (adj.dsts[i], adj.weights[i]) == (NIL_VERTEX, 0);
                let dup = i < len && adj.dsts[..i].contains(&adj.dsts[i]);
                if (i < len) == (adj.dsts[i] == NIL_VERTEX) || (i >= len && !blank) || dup {
                    return Err(format!("inline entry {dense}: slot {i} of {len} is {adj:?}"));
                }
            }
        }
        Ok(())
    }
}
