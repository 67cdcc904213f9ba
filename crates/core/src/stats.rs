//! Probe-distance and structure statistics.
//!
//! The paper's core claims are about *probe distance* (cells traversed per
//! update) and *compaction* (how densely live edges pack in memory). These
//! counters make both directly observable, so the benchmark harness can
//! report them next to throughput and the tests can assert on them.

use serde::{Deserialize, Serialize};

/// Running counters over update operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeStats {
    /// Update operations performed (inserts + deletes + finds).
    pub operations: u64,
    /// Edge-cells inspected across all operations.
    pub cells_inspected: u64,
    /// Workblocks fetched by the load unit (cells_inspected rounded up to
    /// workblock granularity per subblock visit).
    pub workblocks_fetched: u64,
    /// Subblocks visited.
    pub subblocks_visited: u64,
    /// Branch-out events (child edgeblock created).
    pub branches_created: u64,
    /// Deepest tree level ever reached.
    pub max_depth: u32,
    /// New edges inserted (not counting weight updates).
    pub inserts: u64,
    /// Weight updates to already-present edges.
    pub updates: u64,
    /// Edges deleted.
    pub deletes: u64,
    /// Delete operations that found no matching edge.
    pub delete_misses: u64,
    /// 8-wide SWAR tag groups scanned (RHH subblock fingerprint loads).
    pub tag_group_scans: u64,
    /// Tag fingerprint matches whose full destination compare then missed.
    pub tag_false_positives: u64,
}

impl ProbeStats {
    /// Mean cells inspected per operation.
    pub fn mean_probe(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.cells_inspected as f64 / self.operations as f64
        }
    }

    /// Merges another stats block into this one (used by the parallel
    /// wrapper to aggregate per-instance counters).
    pub fn merge(&mut self, other: &ProbeStats) {
        self.operations += other.operations;
        self.cells_inspected += other.cells_inspected;
        self.workblocks_fetched += other.workblocks_fetched;
        self.subblocks_visited += other.subblocks_visited;
        self.branches_created += other.branches_created;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.inserts += other.inserts;
        self.updates += other.updates;
        self.deletes += other.deletes;
        self.delete_misses += other.delete_misses;
        self.tag_group_scans += other.tag_group_scans;
        self.tag_false_positives += other.tag_false_positives;
    }
}

/// Most page-width classes an edgeblock tier keeps (`PAGEWIDTH/4`,
/// `PAGEWIDTH/2`, `PAGEWIDTH`).
pub const MAX_CLASSES: usize = 3;

/// Edgeblocks of one page-width class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassBlocks {
    /// Cells per page of the class (0 in a slot the layout does not use).
    pub width: usize,
    /// Blocks holding a subtree (main and overflow region).
    pub blocks: usize,
    /// Blocks on the class's free list.
    pub free: usize,
}

/// Point-in-time snapshot of the structure's shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StructureStats {
    /// Live edges.
    pub live_edges: u64,
    /// Distinct non-empty source vertices.
    pub num_sources: usize,
    /// Edgeblocks allocated in the main region.
    pub main_blocks: usize,
    /// Edgeblocks in the overflow region (descendants).
    pub overflow_blocks: usize,
    /// Edgeblocks currently on the free list.
    pub free_blocks: usize,
    /// The three counts above by page-width class, narrowest first; the
    /// fixed-geometry layout has one class.
    pub block_classes: [ClassBlocks; MAX_CLASSES],
    /// Tombstoned cells.
    pub tombstones: usize,
    /// Lazily deleted hub-segment slots awaiting their merge pass (the hub
    /// tier's tombstones; bounded per segment, see
    /// [`MAX_DEAD_SHARE`](crate::hubseg::MAX_DEAD_SHARE)).
    pub hub_dead_slots: usize,
    /// CAL blocks allocated (0 when CAL is disabled).
    pub cal_blocks: usize,
    /// CAL records flagged invalid.
    pub cal_invalid: u64,
    /// Edges held by the edgeblock tier ÷ edge-cells of the blocks in use,
    /// over all page-width classes: the fraction of allocated cells
    /// holding an edge (at most 1). Inline and hub edges occupy no cell
    /// and are not counted.
    pub occupancy: f64,
    /// Vertices with live edges stored in the inline tier (0 on a
    /// fixed-geometry store, where tiering is disabled).
    pub tier_inline_vertices: usize,
    /// Vertices with live edges stored in the RHH edgeblock tier (0 on a
    /// fixed-geometry store — the tier counters only run when adaptive
    /// layout is enabled).
    pub tier_blocks_vertices: usize,
    /// Vertices with live edges stored in the dense hub tier.
    pub tier_hub_vertices: usize,
    /// Tier promotions performed (inline→blocks, blocks→hub).
    pub tier_promotions: u64,
    /// Tier demotions performed (hub→blocks, blocks→inline).
    pub tier_demotions: u64,
    /// Estimated heap bytes of the inline tier.
    pub inline_bytes: usize,
    /// Estimated heap bytes of the hub tier.
    pub hub_bytes: usize,
    /// Heap bytes used by the structure (cells, topology, tiers, CAL, SGH).
    pub memory_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_probe_handles_zero_ops() {
        let s = ProbeStats::default();
        assert_eq!(s.mean_probe(), 0.0);
    }

    #[test]
    fn mean_probe_divides() {
        let s = ProbeStats { operations: 4, cells_inspected: 10, ..Default::default() };
        assert!((s.mean_probe() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = ProbeStats {
            operations: 1,
            cells_inspected: 2,
            workblocks_fetched: 3,
            subblocks_visited: 4,
            branches_created: 5,
            max_depth: 2,
            inserts: 6,
            updates: 7,
            deletes: 8,
            delete_misses: 9,
            tag_group_scans: 10,
            tag_false_positives: 11,
        };
        let b = ProbeStats {
            operations: 10,
            cells_inspected: 20,
            workblocks_fetched: 30,
            subblocks_visited: 40,
            branches_created: 50,
            max_depth: 1,
            inserts: 60,
            updates: 70,
            deletes: 80,
            delete_misses: 90,
            tag_group_scans: 100,
            tag_false_positives: 110,
        };
        a.merge(&b);
        assert_eq!(a.operations, 11);
        assert_eq!(a.cells_inspected, 22);
        assert_eq!(a.workblocks_fetched, 33);
        assert_eq!(a.subblocks_visited, 44);
        assert_eq!(a.branches_created, 55);
        assert_eq!(a.max_depth, 2);
        assert_eq!(a.inserts, 66);
        assert_eq!(a.updates, 77);
        assert_eq!(a.deletes, 88);
        assert_eq!(a.delete_misses, 99);
        assert_eq!(a.tag_group_scans, 110);
        assert_eq!(a.tag_false_positives, 121);
    }
}
