//! The single-writer STINGER store.

use gtinker_core::GraphStore;
use gtinker_types::{
    Edge, EdgeBatch, GraphError, Result, StingerConfig, UpdateOp, VertexId, Weight, NIL_U32,
    NIL_VERTEX,
};

/// One edge slot inside a STINGER edgeblock. An invalid slot (deleted edge)
/// keeps its storage and is reused by later insertions, mirroring STINGER's
/// negated-neighbour convention.
///
/// Faithful to STINGER v15.10's edge record, which carries the neighbour,
/// the weight and *two timestamps* (first/recent modification) — the
/// timestamps are part of STINGER's streaming-graph API and their memory
/// traffic is part of the baseline's real cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// Destination, or [`NIL_VERTEX`] when the slot is vacant.
    dst: VertexId,
    weight: Weight,
    /// Operation time of the first insertion of this edge.
    ts_first: u32,
    /// Operation time of the most recent modification.
    ts_recent: u32,
}

const VACANT: Slot = Slot { dst: NIL_VERTEX, weight: 0, ts_first: 0, ts_recent: 0 };

/// Entry of the Logical Vertex Array.
#[derive(Debug, Clone, Copy)]
struct VertexEntry {
    /// First edgeblock of the chain, or `NIL_U32`.
    first_block: u32,
    /// Live out-degree.
    degree: u32,
}

const EMPTY_VERTEX: VertexEntry = VertexEntry { first_block: NIL_U32, degree: 0 };

/// Probe counters for the baseline, mirroring the GraphTinker side so the
/// benches can report both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StingerStats {
    /// Update operations performed.
    pub operations: u64,
    /// Edge slots inspected across all operations.
    pub slots_inspected: u64,
    /// Edgeblocks traversed across all operations.
    pub blocks_traversed: u64,
}

impl StingerStats {
    /// Mean slots inspected per operation.
    pub fn mean_probe(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.slots_inspected as f64 / self.operations as f64
        }
    }

    /// Merges counters from another instance.
    pub fn merge(&mut self, other: &StingerStats) {
        self.operations += other.operations;
        self.slots_inspected += other.slots_inspected;
        self.blocks_traversed += other.blocks_traversed;
    }
}

/// The STINGER adjacency-list dynamic-graph store.
#[derive(Clone)]
pub struct Stinger {
    config: StingerConfig,
    /// Logical Vertex Array, indexed by raw vertex id.
    lva: Vec<VertexEntry>,
    /// Edge-slot arena; block `b` occupies `[b*epb, (b+1)*epb)`.
    slots: Vec<Slot>,
    /// Next block in the owning vertex's chain.
    next: Vec<u32>,
    /// High watermark: slots ever written in each block. Scans stop here.
    high: Vec<u32>,
    live_edges: u64,
    vertex_space: u32,
    stats: StingerStats,
}

impl Stinger {
    /// Creates an empty STINGER store.
    pub fn new(config: StingerConfig) -> Result<Self> {
        config.validate().map_err(GraphError::InvalidConfig)?;
        Ok(Stinger {
            config,
            lva: Vec::new(),
            slots: Vec::new(),
            next: Vec::new(),
            high: Vec::new(),
            live_edges: 0,
            vertex_space: 0,
            stats: StingerStats::default(),
        })
    }

    /// Creates a store with the paper's configuration (edgeblock size 16).
    pub fn with_defaults() -> Self {
        Self::new(StingerConfig::default()).expect("default config is valid")
    }

    /// The active configuration.
    pub fn config(&self) -> &StingerConfig {
        &self.config
    }

    /// Accumulated probe counters.
    #[inline]
    pub fn stats(&self) -> StingerStats {
        self.stats
    }

    /// Clears the probe counters.
    pub fn reset_stats(&mut self) {
        self.stats = StingerStats::default();
    }

    /// Number of allocated edgeblocks.
    pub fn num_blocks(&self) -> usize {
        self.high.len()
    }

    #[inline]
    fn epb(&self) -> usize {
        self.config.edges_per_block
    }

    #[inline]
    fn note_vertex(&mut self, v: VertexId) {
        debug_assert_ne!(v, NIL_VERTEX);
        if v >= self.vertex_space {
            self.vertex_space = v + 1;
        }
        if v as usize >= self.lva.len() {
            self.lva.resize(v as usize + 1, EMPTY_VERTEX);
        }
    }

    fn alloc_block(&mut self) -> u32 {
        let id = self.high.len() as u32;
        self.slots.resize(self.slots.len() + self.epb(), VACANT);
        self.next.push(NIL_U32);
        self.high.push(0);
        id
    }

    /// Inserts an edge, returning `true` if it was new (`false` = weight
    /// update of an existing edge).
    ///
    /// The chain walk is the heart of the baseline's cost model: *every*
    /// slot of *every* block of the source's chain may be touched, because
    /// the edges are neither sorted nor hashed.
    pub fn insert_edge(&mut self, e: Edge) -> bool {
        self.note_vertex(e.src);
        self.note_vertex(e.dst);
        self.stats.operations += 1;
        let epb = self.epb();

        let mut block = self.lva[e.src as usize].first_block;
        let mut last_block = NIL_U32;
        // First vacant slot seen on the walk (deleted slot or below the
        // block's high watermark).
        let mut vacancy: Option<(u32, usize)> = None;
        while block != NIL_U32 {
            self.stats.blocks_traversed += 1;
            let base = block as usize * epb;
            let hw = self.high[block as usize] as usize;
            for off in 0..hw {
                self.stats.slots_inspected += 1;
                let s = self.slots[base + off];
                if s.dst == e.dst {
                    let now = self.stats.operations as u32;
                    let slot = &mut self.slots[base + off];
                    slot.weight = e.weight;
                    slot.ts_recent = now;
                    return false;
                }
                if s.dst == NIL_VERTEX && vacancy.is_none() {
                    vacancy = Some((block, off));
                }
            }
            if hw < epb && vacancy.is_none() {
                vacancy = Some((block, hw));
            }
            last_block = block;
            block = self.next[block as usize];
        }

        // Not present: claim the remembered vacancy, or append a block.
        let (b, off) = match vacancy {
            Some(v) => v,
            None => {
                let nb = self.alloc_block();
                if last_block == NIL_U32 {
                    self.lva[e.src as usize].first_block = nb;
                } else {
                    self.next[last_block as usize] = nb;
                }
                (nb, 0)
            }
        };
        let base = b as usize * epb;
        let now = self.stats.operations as u32;
        self.slots[base + off] =
            Slot { dst: e.dst, weight: e.weight, ts_first: now, ts_recent: now };
        if off as u32 >= self.high[b as usize] {
            self.high[b as usize] = off as u32 + 1;
        }
        self.lva[e.src as usize].degree += 1;
        self.live_edges += 1;
        true
    }

    /// Deletes `(src, dst)`; returns `true` if it existed. The slot is
    /// marked vacant but the chain never shrinks — STINGER's behaviour, and
    /// the reason its deletion throughput degrades in Figs. 14-15.
    pub fn delete_edge(&mut self, src: VertexId, dst: VertexId) -> bool {
        self.stats.operations += 1;
        let Some(entry) = self.lva.get(src as usize) else { return false };
        let mut block = entry.first_block;
        let epb = self.epb();
        while block != NIL_U32 {
            self.stats.blocks_traversed += 1;
            let base = block as usize * epb;
            let hw = self.high[block as usize] as usize;
            for off in 0..hw {
                self.stats.slots_inspected += 1;
                if self.slots[base + off].dst == dst {
                    self.slots[base + off] = VACANT;
                    self.lva[src as usize].degree -= 1;
                    self.live_edges -= 1;
                    return true;
                }
            }
            block = self.next[block as usize];
        }
        false
    }

    /// Applies a batch of updates; returns `(inserted_or_updated, deleted)`.
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> (u64, u64) {
        let mut ins = 0;
        let mut del = 0;
        for op in batch.iter() {
            match *op {
                UpdateOp::Insert(e) => {
                    self.insert_edge(e);
                    ins += 1;
                }
                UpdateOp::Delete { src, dst } => {
                    if self.delete_edge(src, dst) {
                        del += 1;
                    }
                }
            }
        }
        (ins, del)
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.lva.capacity() * std::mem::size_of::<VertexEntry>()
            + (self.next.capacity() + self.high.capacity()) * 4
    }
}

/// The baseline's reads: point queries walk the source's chain, and
/// "streaming" walks every chain in vertex order — STINGER has no
/// compacted copy, which is exactly why Figs. 11-13 favour GraphTinker.
impl GraphStore for Stinger {
    fn vertex_space(&self) -> u32 {
        self.vertex_space
    }
    fn num_edges(&self) -> u64 {
        self.live_edges
    }
    fn out_degree(&self, src: VertexId) -> u32 {
        self.lva.get(src as usize).map_or(0, |e| e.degree)
    }
    fn for_each_out_edge(&self, src: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        let Some(entry) = self.lva.get(src as usize) else { return };
        let mut block = entry.first_block;
        let epb = self.epb();
        while block != NIL_U32 {
            let base = block as usize * epb;
            let hw = self.high[block as usize] as usize;
            for s in &self.slots[base..base + hw] {
                if s.dst != NIL_VERTEX {
                    f(s.dst, s.weight);
                }
            }
            block = self.next[block as usize];
        }
    }
    fn stream_edges(&self, mut f: impl FnMut(VertexId, VertexId, Weight)) {
        for src in 0..self.lva.len() as u32 {
            self.for_each_out_edge(src, |dst, w| f(src, dst, w));
        }
    }
    fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        let entry = self.lva.get(src as usize)?;
        let mut block = entry.first_block;
        let epb = self.epb();
        while block != NIL_U32 {
            let base = block as usize * epb;
            let hw = self.high[block as usize] as usize;
            for off in 0..hw {
                let s = self.slots[base + off];
                if s.dst == dst {
                    return Some(s.weight);
                }
            }
            block = self.next[block as usize];
        }
        None
    }
}

impl std::fmt::Debug for Stinger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stinger")
            .field("edges", &self.live_edges)
            .field("blocks", &self.num_blocks())
            .field("vertex_space", &self.vertex_space)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_lookup_roundtrip() {
        let mut s = Stinger::with_defaults();
        assert!(s.insert_edge(Edge::new(1, 2, 10)));
        assert!(s.insert_edge(Edge::new(1, 3, 20)));
        assert_eq!(s.edge_weight(1, 2), Some(10));
        assert_eq!(s.edge_weight(1, 3), Some(20));
        assert_eq!(s.edge_weight(2, 1), None);
        assert_eq!(s.out_degree(1), 2);
        assert_eq!(s.num_edges(), 2);
    }

    #[test]
    fn duplicate_insert_updates_weight() {
        let mut s = Stinger::with_defaults();
        assert!(s.insert_edge(Edge::new(0, 1, 5)));
        assert!(!s.insert_edge(Edge::new(0, 1, 9)));
        assert_eq!(s.num_edges(), 1);
        assert_eq!(s.edge_weight(0, 1), Some(9));
    }

    #[test]
    fn chains_grow_beyond_one_block() {
        let mut s = Stinger::with_defaults();
        for d in 0..100u32 {
            s.insert_edge(Edge::unit(0, d + 1));
        }
        assert!(s.num_blocks() >= 7, "100 edges at 16/block need >= 7 blocks");
        for d in 0..100u32 {
            assert!(s.has_edge(0, d + 1));
        }
        let mut n = 0;
        s.for_each_out_edge(0, |_, _| n += 1);
        assert_eq!(n, 100);
    }

    #[test]
    fn delete_marks_slot_and_insert_reuses_it() {
        let mut s = Stinger::with_defaults();
        for d in 0..20u32 {
            s.insert_edge(Edge::unit(4, d));
        }
        let blocks_before = s.num_blocks();
        assert!(s.delete_edge(4, 3));
        assert!(!s.delete_edge(4, 3));
        assert!(!s.has_edge(4, 3));
        // New edge should reuse the vacated slot, not grow the chain.
        s.insert_edge(Edge::unit(4, 99));
        assert_eq!(s.num_blocks(), blocks_before);
        assert!(s.has_edge(4, 99));
        assert_eq!(s.out_degree(4), 20);
    }

    #[test]
    fn delete_unknown_vertex_or_edge() {
        let mut s = Stinger::with_defaults();
        s.insert_edge(Edge::unit(1, 2));
        assert!(!s.delete_edge(1, 3));
        assert!(!s.delete_edge(77, 1));
        assert_eq!(s.num_edges(), 1);
    }

    #[test]
    fn probe_cost_grows_linearly_with_degree() {
        // The motivating pathology: inserting the d-th edge walks ~d slots.
        let mut s = Stinger::with_defaults();
        for d in 0..512u32 {
            s.insert_edge(Edge::unit(0, d + 1));
        }
        let mean = s.stats().mean_probe();
        assert!(mean > 100.0, "adjacency-list probe should be O(degree); got mean {mean:.1}");
    }

    #[test]
    fn batch_apply_and_full_scan_consistency() {
        let mut s = Stinger::with_defaults();
        let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for i in 0..3_000u32 {
            let src = i * 7 % 101;
            let dst = i * 13 % 223;
            if i % 4 == 3 {
                let was = model.remove(&(src, dst)).is_some();
                assert_eq!(s.delete_edge(src, dst), was);
            } else {
                model.insert((src, dst), i);
                s.insert_edge(Edge::new(src, dst, i));
            }
        }
        assert_eq!(s.num_edges() as usize, model.len());
        let mut got: Vec<(u32, u32, u32)> = Vec::new();
        s.stream_edges(|a, b, w| got.push((a, b, w)));
        got.sort_unstable();
        let want: Vec<(u32, u32, u32)> = model.iter().map(|(&(a, b), &w)| (a, b, w)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn stats_reset() {
        let mut s = Stinger::with_defaults();
        s.insert_edge(Edge::unit(0, 1));
        assert_eq!(s.stats().operations, 1);
        s.reset_stats();
        assert_eq!(s.stats(), StingerStats::default());
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(Stinger::new(StingerConfig { edges_per_block: 0 }).is_err());
    }

    #[test]
    fn vertex_space_tracks_endpoints() {
        let mut s = Stinger::with_defaults();
        s.insert_edge(Edge::unit(2, 500));
        assert_eq!(s.vertex_space(), 501);
    }

    #[test]
    fn memory_accounting_positive() {
        let mut s = Stinger::with_defaults();
        s.insert_edge(Edge::unit(0, 1));
        assert!(s.memory_bytes() > 0);
    }
}
