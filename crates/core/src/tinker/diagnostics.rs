//! What a [`GraphTinker`] reports about itself: structure statistics, the
//! memory breakdown, the depth and probe histograms, and the validators the
//! test suites and `gtinker recover --validate` run. Read-only, off every
//! hot path.

use super::GraphTinker;
use crate::stats::StructureStats;
use crate::tier::TierOps;
use crate::vertex::Tier;

impl GraphTinker {
    /// Point-in-time structure statistics.
    pub fn structure_stats(&self) -> StructureStats {
        let block_classes = self.blocks.class_counts();
        let main_blocks = self.blocks.main_blocks();
        let in_use: usize = block_classes.iter().map(|c| c.blocks).sum();
        let allocated_cells: usize = block_classes.iter().map(|c| c.blocks * c.width).sum();
        StructureStats {
            live_edges: self.live_edges,
            num_sources: self.num_sources(),
            main_blocks,
            overflow_blocks: in_use - main_blocks,
            free_blocks: block_classes.iter().map(|c| c.free).sum(),
            block_classes,
            tombstones: self.blocks.count_tombstones(),
            hub_dead_slots: self.hub.dead_slots(),
            cal_blocks: self.blocks.cal().map_or(0, |c| c.num_blocks()),
            cal_invalid: self.blocks.cal().map_or(0, |c| c.num_invalid()),
            occupancy: if allocated_cells == 0 {
                0.0
            } else {
                self.blocks.live_edges() as f64 / allocated_cells as f64
            },
            tier_inline_vertices: self.tier_counts[Tier::Inline as usize] as usize,
            tier_blocks_vertices: self.tier_counts[Tier::Blocks as usize] as usize,
            tier_hub_vertices: self.tier_counts[Tier::Hub as usize] as usize,
            tier_promotions: self.tier_promotions,
            tier_demotions: self.tier_demotions,
            inline_bytes: self.inline.memory_bytes(),
            hub_bytes: self.hub.memory_bytes(),
            memory_bytes: self.memory_breakdown().4,
        }
    }

    /// Publishes the `memory_*_bytes` gauge family from current structure
    /// state (estimated adjacency bytes per tier, CAL, and total). Gauges
    /// are set-from-state, so calling this again simply refreshes them.
    pub fn publish_memory_metrics(&self) {
        let m = crate::metrics::global();
        let (inline, blocks, hub, cal, total) = self.memory_breakdown();
        m.memory_inline_bytes.set(inline as i64);
        m.memory_blocks_bytes.set(blocks as i64);
        m.memory_hub_bytes.set(hub as i64);
        m.memory_cal_bytes.set(cal as i64);
        m.memory_total_bytes.set(total as i64);
    }

    /// Estimated heap bytes per component as
    /// `(inline tier, edgeblock arena, hub tier, CAL, total)`; the total
    /// adds the main region's index and the tier map. The parallel wrapper
    /// sums these across instances before publishing gauges.
    pub fn memory_breakdown(&self) -> (usize, usize, usize, usize, usize) {
        let (inline, hub) = (self.inline.memory_bytes(), self.hub.memory_bytes());
        let cal = self.blocks.cal().map_or(0, |c| c.memory_bytes());
        let total = self.blocks.memory_bytes() + self.tiers.capacity() + inline + hub;
        (inline, self.blocks.arena_bytes(), hub, cal, total)
    }

    /// Histogram of live edges by tree depth: `hist[d]` = edges stored in
    /// blocks `d` generations below a top-parent. Directly exhibits the
    /// `O(log degree)` depth bound of Tree-Based Hashing (an adjacency list
    /// would put the k-th edge at "depth" `k / blocksize`). Inline and hub
    /// adjacency is flat: everything sits at depth 0.
    pub fn depth_histogram(&self) -> Vec<u64> {
        self.blocks.depth_histogram(self.live_edges)
    }

    /// Histogram of stored Robin Hood probe distances over live edges:
    /// `hist[p]` = edges whose cell sits `p` positions from its initial
    /// bucket. RHH keeps this distribution tight (bounded by the subblock
    /// length). Inline and hub probes are position-exact: distance 0.
    pub fn probe_histogram(&self) -> Vec<u64> {
        self.blocks.probe_histogram(self.live_edges)
    }

    /// Checks the Robin Hood invariants over every live edgeblock cell
    /// (diagnostic / test hook); [`BlockTier::validate_rhh`] lists the
    /// three of them. Returns the first violation as an error string.
    ///
    /// [`BlockTier::validate_rhh`]: crate::tier::BlockTier::validate_rhh
    pub fn validate_rhh_invariants(&self) -> Result<(), String> {
        self.blocks.validate_rhh(self.stats.deletes == 0)
    }

    /// Checks the store against ground truth (diagnostic / test hook; valid
    /// in both delete modes):
    ///
    /// 1. every tier passes its own [`TierOps::validate`] — edgeblock tag
    ///    lanes and live counters, inline entries, hub segments (sorted
    ///    main run, exact and bounded dead count, fences, tail-tag lane)
    ///    and their slot table — and the SGH slot-table tag lane (including
    ///    its wrap-around mirror) matches the resident keys;
    /// 2. every source is held by exactly one tier, the one the tier map
    ///    names, and that tier holds exactly its out-degree in live edges;
    /// 3. when a CAL exists, every edgeblock-tier edge points at a valid
    ///    record carrying the same `(src, dst, weight)`, and the CAL holds
    ///    exactly as many live records as the edgeblock tier holds edges (a
    ///    copy leaked by a move out of the tier fails this).
    ///
    /// Returns the first violation as an error string.
    pub fn validate_tag_invariants(&self) -> Result<(), String> {
        self.blocks.validate()?;
        self.inline.validate()?;
        self.hub.validate()?;
        if let Some(sgh) = &self.sgh {
            sgh.validate_tags().map_err(|e| format!("sgh: {e}"))?;
        }
        let (mut live, mut in_blocks) = (0, 0);
        for dense in 0..self.props.len().max(self.tiers.len()) as u32 {
            let tier = self.tier_of(dense);
            for t in [Tier::Inline, Tier::Blocks, Tier::Hub] {
                if Some(t) != tier && on_tier!(self, t, holds(dense)) {
                    return Err(format!("source {dense} is in {tier:?} but {t:?} holds it too"));
                }
            }
            let held = tier.map_or(0, |t| on_tier!(self, t, len(dense)));
            let deg = self.props.out_degree(dense);
            if held != deg as usize {
                return Err(format!("source {dense}: {tier:?} holds {held} edges, degree {deg}"));
            }
            live += held as u64;
            if tier == Some(Tier::Blocks) {
                in_blocks += held as u64;
                self.blocks.validate_cal(dense, self.original_of(dense))?;
            }
        }
        if live != self.live_edges {
            return Err(format!("tiers hold {live} edges, store counts {}", self.live_edges));
        }
        match self.blocks.cal() {
            Some(cal) if cal.num_live() != in_blocks => Err(format!(
                "CAL holds {} live copies, the edgeblock tier {in_blocks} edges",
                cal.num_live()
            )),
            _ => Ok(()),
        }
    }

    /// Mean tree depth of live edges (0 = everything in top-parents).
    pub fn mean_depth(&self) -> f64 {
        let hist = self.depth_histogram();
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = hist.iter().enumerate().map(|(d, &n)| d as u64 * n).sum();
        weighted as f64 / total as f64
    }
}
