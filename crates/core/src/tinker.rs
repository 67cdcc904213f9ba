//! The GraphTinker data structure: ties the EdgeblockArray, SGH unit,
//! VertexPropertyArray and CAL together (paper Figs. 2-5).
//!
//! Operation map from the paper's interface components (§III.B) to this
//! implementation:
//!
//! * **load / writeback units** — the subblock slices handed to the RHH
//!   routines; workblock-granular retrieval is accounted in [`ProbeStats`].
//! * **find-edge unit** — the internal `locate` walk (FIND mode).
//! * **insert-edge unit** — the INSERT-mode walk in
//!   [`GraphTinker::insert_edge`].
//! * **inference / interval units** — the per-depth control flow of the
//!   walks (which subblock next, when to branch out).
//! * **SGH unit** — [`crate::sgh::SghUnit`].

use gtinker_types::{
    DeleteMode, Edge, EdgeBatch, GraphError, Result, TinkerConfig, UpdateOp, VertexId, Weight,
    INLINE_CAP_MAX, NIL_U32, NIL_VERTEX,
};

use crate::cal::CalArray;
use crate::edgeblock::{BlockArena, BlockId, CellState, EdgeCell};
use crate::hash::{dst_tag, edge_hash, source_hash, split_hash, subblock_and_bucket, tag_of_hash};
use crate::hubseg::HubSegment;
use crate::rhh::{
    find_in_subblock, has_vacant_tags, linear_insert, rhh_insert, vacant_tag, Floating, RhhOutcome,
};
use crate::sgh::SghUnit;
use crate::stats::{ProbeStats, StructureStats};
use crate::swar::{TAG_EMPTY, TAG_TOMBSTONE};
use crate::vertex::{InlineAdj, Tier, VertexPropertyArray};

/// Outcome counts of applying an [`EdgeBatch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchResult {
    /// Edges newly inserted.
    pub inserted: u64,
    /// Insertions that found the edge already present (weight updated).
    pub updated: u64,
    /// Edges deleted.
    pub deleted: u64,
    /// Deletions whose target edge was absent.
    pub not_found: u64,
}

impl BatchResult {
    /// Total operations processed.
    pub fn total(&self) -> u64 {
        self.inserted + self.updated + self.deleted + self.not_found
    }

    /// Folds another result into this one (per-shard results of one batch,
    /// or per-batch results of one stream, sum componentwise).
    pub fn merge(&mut self, other: &BatchResult) {
        self.inserted += other.inserted;
        self.updated += other.updated;
        self.deleted += other.deleted;
        self.not_found += other.not_found;
    }
}

/// A store that applies an [`EdgeBatch`]: the one update contract the
/// worker pool, the CLI's incremental driver and the experiment drivers are
/// written against.
pub trait ApplyBatch {
    /// Applies `batch` in order and returns its outcome counts (a store
    /// without per-op outcome tracking leaves the fields it cannot tell
    /// apart at zero).
    fn apply(&mut self, batch: &EdgeBatch) -> BatchResult;
}

impl ApplyBatch for GraphTinker {
    fn apply(&mut self, batch: &EdgeBatch) -> BatchResult {
        self.apply_batch(batch)
    }
}

/// Cost of one FIND-mode walk; folded into [`ProbeStats`] by mutating
/// entry points.
#[derive(Debug, Clone, Copy, Default)]
struct FindCost {
    cells: u64,
    subblocks: u64,
    workblocks: u64,
    depth: u32,
    tag_groups: u64,
    tag_false_positives: u64,
}

/// Resolve-ahead distance of [`GraphTinker::apply_batch`], in operations:
/// each of the window's three read-only stages runs this far ahead of the
/// next, the last this far ahead of execution. A constant, not a knob: 4,
/// 8 and 16 measured alike (DESIGN.md, "The write path as a pipeline").
const WINDOW: usize = 8;

/// Slots in the window's ring of carried resolutions: the `3 * WINDOW + 1`
/// operations in flight, rounded up so the slot index is a mask.
const RING: usize = (3 * WINDOW + 1).next_power_of_two();

/// What an operation's resolve stage hands to its execution: both hashes
/// (each id is mixed once per operation) and the source's dense id.
#[derive(Clone, Copy)]
struct Resolved {
    /// [`source_hash`] of the source.
    src_hash: u64,
    /// Depth-0 [`edge_hash`] of the destination: seeds the depth-0 bucket
    /// split and the SWAR fingerprint.
    h0: u64,
    /// Dense id of the source, or [`NIL_U32`] when the SGH did not know it
    /// at resolve time — execution then probes again, since an earlier
    /// operation may have registered it since. A known id never goes
    /// stale: the SGH neither deletes nor renumbers.
    dense: u32,
}

impl Resolved {
    /// Hashes only, source not looked up: where `insert_edge` and
    /// `delete_edge` start from.
    #[inline]
    fn hashed(src: VertexId, dst: VertexId) -> Self {
        Resolved { src_hash: source_hash(src), h0: edge_hash(dst, 0), dense: NIL_U32 }
    }
}

/// The GraphTinker dynamic-graph data structure.
///
/// See the [crate docs](crate) for an overview and a usage example.
pub struct GraphTinker {
    config: TinkerConfig,
    arena: BlockArena,
    /// Top-parent edgeblock per dense source id (`NIL_U32` = none yet).
    /// This is the main region's index: with SGH enabled the array is
    /// exactly as long as the number of non-empty vertices.
    top_blocks: Vec<u32>,
    /// Dense remapping of source ids; `None` when SGH is disabled (the
    /// ablation), in which case the raw source id indexes `top_blocks`.
    sgh: Option<SghUnit>,
    props: VertexPropertyArray,
    cal: Option<CalArray>,
    stats: ProbeStats,
    live_edges: u64,
    /// One past the largest original vertex id seen (src or dst side).
    vertex_space: u32,
    /// Blocks currently serving as top-parents (main region size).
    main_blocks: usize,
    /// Logical shard count for parallel analytics streaming (see
    /// [`for_each_edge_shard`](Self::for_each_edge_shard)). Purely a read
    /// path setting; ingestion is unaffected.
    analytics_shards: usize,
    /// Cached [`TinkerConfig::adaptive_enabled`]. When false, the tier
    /// vectors below stay empty and every path takes the fixed-geometry
    /// code, byte-identical to the non-tiered structure.
    adaptive: bool,
    /// Adjacency tier per dense source (parallel to `top_blocks`).
    tiers: Vec<Tier>,
    /// Inline-tier adjacency per dense source.
    inline: Vec<InlineAdj>,
    /// Hub-segment slot per dense source (`NIL_U32` = not a hub).
    hub_of: Vec<u32>,
    /// Hub segments, indexed by `hub_of`; slots of demoted hubs are
    /// recycled through `free_hubs`.
    hubs: Vec<HubSegment>,
    free_hubs: Vec<u32>,
    /// Lazily deleted slots across all hub segments (running total of
    /// [`HubSegment::dead_slots`]).
    hub_dead_slots: usize,
    /// Vertices with live edges, per tier (indexed by `Tier as usize`).
    tier_counts: [u64; 3],
    tier_promotions: u64,
    tier_demotions: u64,
}

impl GraphTinker {
    /// Creates an empty GraphTinker with the given configuration.
    pub fn new(config: TinkerConfig) -> Result<Self> {
        config.validate().map_err(GraphError::InvalidConfig)?;
        Ok(GraphTinker {
            arena: BlockArena::new(config.pagewidth, config.subblock),
            top_blocks: Vec::new(),
            sgh: config.enable_sgh.then(SghUnit::new),
            props: VertexPropertyArray::new(),
            cal: config
                .enable_cal
                .then(|| CalArray::new(config.cal_group_size, config.cal_block_size)),
            stats: ProbeStats::default(),
            live_edges: 0,
            vertex_space: 0,
            main_blocks: 0,
            analytics_shards: 1,
            adaptive: config.adaptive_enabled(),
            tiers: Vec::new(),
            inline: Vec::new(),
            hub_of: Vec::new(),
            hubs: Vec::new(),
            free_hubs: Vec::new(),
            hub_dead_slots: 0,
            tier_counts: [0; 3],
            tier_promotions: 0,
            tier_demotions: 0,
            config,
        })
    }

    /// Creates a GraphTinker with the default configuration (the paper's
    /// geometry with the degree-adaptive tiers on).
    pub fn with_defaults() -> Self {
        Self::new(TinkerConfig::default()).expect("default config is valid")
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &TinkerConfig {
        &self.config
    }

    /// Number of live edges in the structure.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.live_edges
    }

    /// Number of distinct non-empty source vertices ever seen.
    ///
    /// (A source whose edges were all deleted still occupies its slot; the
    /// paper's SGH assigns ids monotonically and never reclaims them.)
    #[inline]
    pub fn num_sources(&self) -> usize {
        match &self.sgh {
            Some(s) => s.len(),
            None => self.top_blocks.len(),
        }
    }

    /// One past the largest original vertex id observed on either edge
    /// endpoint — the id space analytics must cover.
    #[inline]
    pub fn vertex_space(&self) -> u32 {
        self.vertex_space
    }

    /// Probe statistics accumulated since the last [`reset_stats`].
    ///
    /// [`reset_stats`]: GraphTinker::reset_stats
    #[inline]
    pub fn stats(&self) -> ProbeStats {
        self.stats
    }

    /// Clears the probe statistics.
    pub fn reset_stats(&mut self) {
        self.stats = ProbeStats::default();
    }

    #[inline]
    fn rhh_enabled(&self) -> bool {
        // The paper disables RHH under delete-and-compact to avoid the
        // edge-tracking overhead of undoing swap chains during backfill.
        self.config.delete_mode == DeleteMode::DeleteOnly
    }

    #[inline]
    fn note_vertex(&mut self, v: VertexId) {
        debug_assert_ne!(v, NIL_VERTEX, "NIL_VERTEX is reserved");
        if v >= self.vertex_space {
            self.vertex_space = v + 1;
        }
    }

    /// Dense id of a source, allocating on first sight. Takes the
    /// precomputed [`source_hash`](crate::hash::source_hash) so the update
    /// path mixes each source id exactly once.
    fn dense_of_mut(&mut self, src: VertexId, src_hash: u64) -> u32 {
        match &mut self.sgh {
            Some(sgh) => sgh.get_or_insert_hashed(src_hash, src),
            None => src,
        }
    }

    /// Original id of a dense source index.
    fn original_of(&self, dense: u32) -> VertexId {
        match &self.sgh {
            Some(sgh) => sgh.original_of(dense),
            None => dense,
        }
    }

    fn top_block(&self, dense: u32) -> Option<BlockId> {
        self.top_blocks.get(dense as usize).copied().filter(|&b| b != NIL_U32)
    }

    fn ensure_top_block(&mut self, dense: u32) -> BlockId {
        let idx = dense as usize;
        if idx >= self.top_blocks.len() {
            self.top_blocks.resize(idx + 1, NIL_U32);
        }
        if self.top_blocks[idx] == NIL_U32 {
            let b = self.arena.alloc_block();
            self.top_blocks[idx] = b;
            self.main_blocks += 1;
        }
        self.top_blocks[idx]
    }

    #[inline]
    fn workblocks_for(&self, cells: u64) -> u64 {
        let wb = self.config.workblock as u64;
        cells.div_ceil(wb)
    }

    /// FIND mode: walks the subblock chain of `top` for `dst`. Pure (no
    /// stats mutation); returns the location and the traversal cost.
    ///
    /// `h0` is the precomputed depth-0 [`edge_hash`] of `dst` — it seeds
    /// both the depth-0 bucket split and the SWAR tag, so the hot find
    /// path mixes the destination exactly once. Only fingerprint-matching
    /// candidate cells are inspected.
    fn locate(&self, top: BlockId, dst: VertexId, h0: u64) -> (Option<(BlockId, usize)>, FindCost) {
        let spb = self.arena.subblocks_per_block();
        let sublen = self.arena.subblock_len();
        let tag = tag_of_hash(h0);
        let mut cost = FindCost::default();
        let mut block = top;
        let mut depth: u32 = 0;
        loop {
            let (sub, _) = if depth == 0 {
                split_hash(h0, spb, sublen)
            } else {
                subblock_and_bucket(dst, depth, spb, sublen)
            };
            cost.subblocks += 1;
            let cells = self.arena.subblock_cells(block, sub);
            let tags = self.arena.subblock_tags(block, sub);
            let scan = find_in_subblock(cells, tags, dst, tag);
            cost.tag_groups += scan.groups;
            cost.tag_false_positives += scan.false_positives;
            cost.cells += scan.inspected;
            // The tag lane itself is one fetch; candidate cells add more.
            cost.workblocks += self.workblocks_for(scan.inspected).max(1);
            cost.depth = depth;
            if let Some(off) = scan.hit {
                return (Some((block, sub * sublen + off)), cost);
            }
            match self.arena.child(block, sub) {
                Some(c) => {
                    block = c;
                    depth += 1;
                }
                None => return (None, cost),
            }
        }
    }

    fn absorb_cost(&mut self, cost: FindCost) {
        self.stats.cells_inspected += cost.cells;
        self.stats.subblocks_visited += cost.subblocks;
        self.stats.workblocks_fetched += cost.workblocks;
        self.stats.max_depth = self.stats.max_depth.max(cost.depth);
        self.stats.tag_group_scans += cost.tag_groups;
        self.stats.tag_false_positives += cost.tag_false_positives;
    }

    /// Inserts an edge; returns `true` if it was new, `false` if an existing
    /// `(src, dst)` edge had its weight updated.
    ///
    /// The FIND and INSERT modes share one walk: while FIND scans the
    /// subblock chain for the edge, it also scouts the first subblock with a
    /// vacant cell, so a miss can anchor the new edge without re-traversing
    /// the chain. RHH displacement still runs within the target subblock.
    pub fn insert_edge(&mut self, e: Edge) -> bool {
        let mark = self.flush_mark();
        let fresh = self.insert_resolved(e, Resolved::hashed(e.src, e.dst));
        let m = crate::metrics::global();
        if fresh {
            m.tinker_inserts.inc();
        } else {
            m.tinker_updates.inc();
        }
        self.flush_since(mark);
        fresh
    }

    /// The instance counters [`flush_since`](Self::flush_since) publishes:
    /// `(tag_group_scans, tag_false_positives, hub_dead_slots)`.
    fn flush_mark(&self) -> (u64, u64, usize) {
        (self.stats.tag_group_scans, self.stats.tag_false_positives, self.hub_dead_slots)
    }

    /// Flushes the delta of the instance counters since `mark` to the
    /// global metrics. Batched entry points mark once per batch so the
    /// instrumented ingest path pays one atomic RMW per counter per batch.
    fn flush_since(&self, mark: (u64, u64, usize)) {
        let m = crate::metrics::global();
        let groups = self.stats.tag_group_scans - mark.0;
        let fps = self.stats.tag_false_positives - mark.1;
        if groups > 0 {
            m.rhh_tag_group_scans.add(groups);
        }
        if fps > 0 {
            m.rhh_tag_false_positive.add(fps);
        }
        if self.hub_dead_slots != mark.2 {
            m.tier_hub_dead_slots.add(self.hub_dead_slots as i64 - mark.2 as i64);
        }
    }

    /// Dense id of `src` for an executing operation: the id its resolve
    /// stage carried, else a probe of the SGH as it is now.
    #[inline]
    fn dense_resolved(&self, src: VertexId, r: Resolved) -> Option<u32> {
        if r.dense != NIL_U32 {
            return Some(r.dense);
        }
        self.dense_lookup_hashed(src, r.src_hash)
    }

    /// Inserts `e` given what its resolve stage carried. Instance stats
    /// only, no global metric counters: `insert_edge` adds them per call,
    /// `apply_batch` flushes them once per batch instead of paying an
    /// atomic RMW per operation.
    fn insert_resolved(&mut self, e: Edge, r: Resolved) -> bool {
        assert!(
            e.src != NIL_VERTEX && e.dst != NIL_VERTEX,
            "NIL_VERTEX is reserved as the empty-cell sentinel"
        );
        self.note_vertex(e.src);
        self.note_vertex(e.dst);
        self.stats.operations += 1;
        let dense = match self.dense_resolved(e.src, r) {
            Some(d) => d,
            None => self.dense_insert_absent(e.src, r.src_hash),
        };
        if self.adaptive {
            self.ensure_tier_slots(dense);
            match self.tiers[dense as usize] {
                Tier::Inline => self.insert_inline(dense, e, r.h0),
                Tier::Blocks => self.insert_blocks(dense, e, r.h0),
                Tier::Hub => self.insert_hub(dense, e, r.h0),
            }
        } else {
            self.insert_blocks(dense, e, r.h0)
        }
    }

    /// Insert into the RHH edgeblock tier (the only tier when adaptive
    /// layout is disabled). `dense` is already resolved; `h0` is the
    /// precomputed depth-0 [`edge_hash`] of the destination.
    fn insert_blocks(&mut self, dense: u32, e: Edge, h0: u64) -> bool {
        let spb = self.arena.subblocks_per_block();
        let sublen = self.arena.subblock_len();
        let tag = tag_of_hash(h0);

        // Existing-edge fast path: a repeat insertion of an un-displaced
        // edge sits in its home bucket of the top block's depth-0 subblock.
        // One probe settles it (weight update + CAL refresh) without the
        // full FIND walk; any miss falls through to the general path.
        if let Some(top) = self.top_block(dense) {
            let (sub, bucket) = split_hash(h0, spb, sublen);
            let cell = self.arena.subblock_cells(top, sub)[bucket];
            if cell.is_occupied() && cell.dst == e.dst {
                self.stats.subblocks_visited += 1;
                self.stats.cells_inspected += 1;
                self.stats.workblocks_fetched += 1;
                let hot = self.arena.cell_mut(top, sub * sublen + bucket);
                hot.weight = e.weight;
                let ptr = hot.cal_ptr;
                if ptr != NIL_U32 {
                    if let Some(cal) = &mut self.cal {
                        cal.update_weight(ptr, e.weight);
                    }
                }
                self.stats.updates += 1;
                return false;
            }
        }

        let top = self.ensure_top_block(dense);

        // FIND mode + vacancy scout.
        let mut block = top;
        let mut depth: u32 = 0;
        let mut candidate: Option<(BlockId, usize, usize)> = None;
        let (tail_block, tail_sub);
        loop {
            let (sub, bucket) = if depth == 0 {
                split_hash(h0, spb, sublen)
            } else {
                subblock_and_bucket(e.dst, depth, spb, sublen)
            };
            self.stats.subblocks_visited += 1;
            let cells = self.arena.subblock_cells(block, sub);
            let tags = self.arena.subblock_tags(block, sub);
            let scan = find_in_subblock(cells, tags, e.dst, tag);
            self.stats.tag_group_scans += scan.groups;
            self.stats.tag_false_positives += scan.false_positives;
            self.stats.cells_inspected += scan.inspected;
            self.stats.workblocks_fetched += self.workblocks_for(scan.inspected).max(1);
            if scan.hit.is_none() && candidate.is_none() && has_vacant_tags(tags) {
                candidate = Some((block, sub, bucket));
            }
            if let Some(off) = scan.hit {
                let offset = sub * sublen + off;
                let cell = self.arena.cell_mut(block, offset);
                cell.weight = e.weight;
                let ptr = cell.cal_ptr;
                if ptr != NIL_U32 {
                    if let Some(cal) = &mut self.cal {
                        cal.update_weight(ptr, e.weight);
                    }
                }
                self.stats.updates += 1;
                return false;
            }
            match self.arena.child(block, sub) {
                Some(c) => {
                    block = c;
                    depth += 1;
                }
                None => {
                    (tail_block, tail_sub) = (block, sub);
                    break;
                }
            }
        }
        self.stats.max_depth = self.stats.max_depth.max(depth);

        // INSERT mode: append the CAL copy (O(1)), then anchor the main
        // copy — in the scouted subblock, or in a fresh branch when every
        // subblock on the path is full (Tree-Based Hashing).
        let cal_ptr = match &mut self.cal {
            Some(cal) => cal.insert(dense, e.src, e.dst, e.weight),
            None => NIL_U32,
        };
        let floating = Floating { dst: e.dst, weight: e.weight, cal_ptr };
        let rhh = self.rhh_enabled();
        let (target_block, target_sub, target_bucket) = match candidate {
            Some(c) => c,
            None => {
                let child = self.arena.alloc_block();
                self.arena.set_child(tail_block, tail_sub, Some(child));
                self.stats.branches_created += 1;
                depth += 1;
                crate::metrics::global().tinker_branch_depth.record(depth as u64);
                crate::trace::instant(crate::trace::SpanId::TinkerBranchOut, depth as u64);
                self.stats.max_depth = self.stats.max_depth.max(depth);
                let (sub, bucket) = subblock_and_bucket(e.dst, depth, spb, sublen);
                (child, sub, bucket)
            }
        };
        let mut touched = 0u64;
        let outcome = {
            let (cells, tags) = self.arena.subblock_cells_and_tags_mut(target_block, target_sub);
            if rhh {
                rhh_insert(cells, tags, target_bucket, floating, tag, &mut touched)
            } else {
                linear_insert(cells, tags, target_bucket, floating, tag, &mut touched)
            }
        };
        self.stats.cells_inspected += touched;
        self.stats.workblocks_fetched += self.workblocks_for(touched);
        debug_assert!(
            matches!(outcome, RhhOutcome::Placed),
            "target subblock was scouted to have a vacancy"
        );
        let RhhOutcome::Placed = outcome else {
            unreachable!("scouted subblock must accept the edge")
        };
        self.arena.add_live(target_block, 1);
        self.note_insert(dense, e.src);
        if self.adaptive
            && self.config.hub_promote > 0
            && self.props.out_degree(dense) >= self.config.hub_promote
        {
            self.promote_blocks_to_hub(dense);
        }
        true
    }

    /// Insert into the inline tier; a full inline entry promotes the vertex
    /// to the edgeblock tier and retries there.
    fn insert_inline(&mut self, dense: u32, e: Edge, h0: u64) -> bool {
        let idx = dense as usize;
        // Nominal probe accounting: one 4-wide compare over the entry.
        self.stats.subblocks_visited += 1;
        self.stats.cells_inspected += INLINE_CAP_MAX as u64;
        self.stats.workblocks_fetched += 1;
        if let Some(slot) = self.inline[idx].find(e.dst) {
            self.inline[idx].weights[slot] = e.weight;
            let ptr = self.inline[idx].cal_ptrs[slot];
            if ptr != NIL_U32 {
                if let Some(cal) = &mut self.cal {
                    cal.update_weight(ptr, e.weight);
                }
            }
            self.stats.updates += 1;
            return false;
        }
        if (self.inline[idx].len as usize) < self.config.inline_cap {
            let cal_ptr = match &mut self.cal {
                Some(cal) => cal.insert(dense, e.src, e.dst, e.weight),
                None => NIL_U32,
            };
            self.inline[idx].push(e.dst, e.weight, cal_ptr);
            self.note_insert(dense, e.src);
            return true;
        }
        self.promote_inline_to_blocks(dense);
        self.insert_blocks(dense, e, h0)
    }

    /// Insert into the dense hub tier.
    fn insert_hub(&mut self, dense: u32, e: Edge, h0: u64) -> bool {
        let h = self.hub_of[dense as usize] as usize;
        let tag = tag_of_hash(h0);
        // Nominal probe accounting: the gallop narrows to a scan window
        // in the main run, plus (at most) one more over the tail.
        self.stats.subblocks_visited += 1;
        self.stats.cells_inspected += 2 * crate::hubseg::SCAN_WINDOW as u64;
        self.stats.workblocks_fetched += 1;
        if let Some(i) = self.hubs[h].find(e.dst, tag) {
            self.hubs[h].set_weight(i, e.weight);
            // Only touch the parallel cal_ptrs array when a CAL exists —
            // otherwise a weight update costs an extra cache line for
            // a pointer that is never used.
            if let Some(cal) = &mut self.cal {
                let ptr = self.hubs[h].cal_ptr(i);
                if ptr != NIL_U32 {
                    cal.update_weight(ptr, e.weight);
                }
            }
            self.stats.updates += 1;
            return false;
        }
        let cal_ptr = match &mut self.cal {
            Some(cal) => cal.insert(dense, e.src, e.dst, e.weight),
            None => NIL_U32,
        };
        // An insert that overflows the tail runs the merge pass, which
        // drops the segment's dead slots.
        let seg = &mut self.hubs[h];
        self.hub_dead_slots -= seg.dead_slots();
        seg.insert(e.dst, e.weight, cal_ptr, tag);
        self.hub_dead_slots += seg.dead_slots();
        self.note_insert(dense, e.src);
        true
    }

    /// Dense id for a source known to be absent from the SGH ([`source_hash`]
    /// already computed by the caller's lookup).
    fn dense_insert_absent(&mut self, src: VertexId, src_hash: u64) -> u32 {
        match &mut self.sgh {
            Some(sgh) => sgh.insert_absent_hashed(src_hash, src),
            None => src,
        }
    }

    /// Grows the tier-tracking vectors (and `top_blocks`, which must stay
    /// the same length) to cover `dense`. Only called on the adaptive path.
    fn ensure_tier_slots(&mut self, dense: u32) {
        let n = dense as usize + 1;
        if self.tiers.len() >= n {
            return;
        }
        let starting = if self.config.inline_cap > 0 { Tier::Inline } else { Tier::Blocks };
        self.tiers.resize(n, starting);
        self.inline.resize(n, InlineAdj::EMPTY);
        self.hub_of.resize(n, NIL_U32);
        if self.top_blocks.len() < n {
            self.top_blocks.resize(n, NIL_U32);
        }
    }

    /// Registers one new live edge of `dense`: degree, live-edge count,
    /// insert stat, and (on the adaptive path) the active-vertex tier count
    /// when the vertex's first edge appears.
    fn note_insert(&mut self, dense: u32, src: VertexId) {
        let p = self.props.ensure(dense, src);
        p.out_degree += 1;
        let deg = p.out_degree;
        self.live_edges += 1;
        self.stats.inserts += 1;
        if self.adaptive && deg == 1 {
            self.tier_active(self.tiers[dense as usize], true);
        }
    }

    /// Mirror of [`note_insert`](Self::note_insert) for deletes; returns the
    /// new out-degree. (`stats.deletes` is counted by the caller, which also
    /// counts misses.)
    fn note_delete(&mut self, dense: u32) -> u32 {
        let p = self.props.get_mut(dense).expect("source with an edge has properties");
        p.out_degree -= 1;
        let deg = p.out_degree;
        self.live_edges -= 1;
        if self.adaptive && deg == 0 {
            self.tier_active(self.tiers[dense as usize], false);
        }
        deg
    }

    /// Adjusts the active-vertex count (and gauge) of a tier.
    fn tier_active(&mut self, tier: Tier, up: bool) {
        let m = crate::metrics::global();
        let g = match tier {
            Tier::Inline => &m.tier_inline_vertices,
            Tier::Blocks => &m.tier_blocks_vertices,
            Tier::Hub => &m.tier_hub_vertices,
        };
        if up {
            self.tier_counts[tier as usize] += 1;
            g.inc();
        } else {
            self.tier_counts[tier as usize] -= 1;
            g.dec();
        }
    }

    /// Moves `dense` to tier `to`, keeping the active-vertex counts honest.
    fn set_tier(&mut self, dense: u32, to: Tier) {
        let from = self.tiers[dense as usize];
        if from == to {
            return;
        }
        self.tiers[dense as usize] = to;
        if self.props.out_degree(dense) > 0 {
            self.tier_active(from, false);
            self.tier_active(to, true);
        }
    }

    /// Anchors a floating edge (CAL copy already registered) into the
    /// edgeblock subtree of `dense` without touching degree, live-edge or
    /// CAL state — the tier-migration primitive. The edge is known absent,
    /// so the walk may stop at the *first* subblock with a vacancy: FIND
    /// scans whole subblocks per depth, so an early anchor stays on the
    /// edge's lookup path.
    fn anchor_in_blocks(&mut self, dense: u32, f: Floating) {
        let spb = self.arena.subblocks_per_block();
        let sublen = self.arena.subblock_len();
        let rhh = self.rhh_enabled();
        // Tier migration is a cold path: recomputing the fingerprint here
        // keeps the hot-path plumbing (which hoists it) uncluttered.
        let tag = dst_tag(f.dst);
        let mut block = self.ensure_top_block(dense);
        let mut depth: u32 = 0;
        let (target_block, target_sub, target_bucket) = loop {
            let (sub, bucket) = subblock_and_bucket(f.dst, depth, spb, sublen);
            if has_vacant_tags(self.arena.subblock_tags(block, sub)) {
                break (block, sub, bucket);
            }
            match self.arena.child(block, sub) {
                Some(c) => {
                    block = c;
                    depth += 1;
                }
                None => {
                    let child = self.arena.alloc_block();
                    self.arena.set_child(block, sub, Some(child));
                    self.stats.branches_created += 1;
                    depth += 1;
                    crate::metrics::global().tinker_branch_depth.record(depth as u64);
                    crate::trace::instant(crate::trace::SpanId::TinkerBranchOut, depth as u64);
                    let (sub, bucket) = subblock_and_bucket(f.dst, depth, spb, sublen);
                    break (child, sub, bucket);
                }
            }
        };
        self.stats.max_depth = self.stats.max_depth.max(depth);
        let mut touched = 0u64;
        let (cells, tags) = self.arena.subblock_cells_and_tags_mut(target_block, target_sub);
        let outcome = if rhh {
            rhh_insert(cells, tags, target_bucket, f, tag, &mut touched)
        } else {
            linear_insert(cells, tags, target_bucket, f, tag, &mut touched)
        };
        let RhhOutcome::Placed = outcome else { unreachable!("vacancy was scouted") };
        self.arena.add_live(target_block, 1);
    }

    /// Inline → edgeblock promotion: re-anchors the inline slots into a
    /// fresh top block, preserving their CAL pointers.
    fn promote_inline_to_blocks(&mut self, dense: u32) {
        let _span = crate::trace::span_arg(crate::trace::SpanId::TierPromote, dense as u64);
        let adj = std::mem::replace(&mut self.inline[dense as usize], InlineAdj::EMPTY);
        self.set_tier(dense, Tier::Blocks);
        for i in 0..adj.len as usize {
            self.anchor_in_blocks(
                dense,
                Floating { dst: adj.dsts[i], weight: adj.weights[i], cal_ptr: adj.cal_ptrs[i] },
            );
        }
        self.tier_promotions += 1;
        crate::metrics::global().tier_promotions.inc();
    }

    /// Edgeblock → hub promotion: drains the whole subtree into a sorted
    /// dense segment and recycles the blocks.
    fn promote_blocks_to_hub(&mut self, dense: u32) {
        let Some(top) = self.top_block(dense) else { return };
        let _span = crate::trace::span_arg(crate::trace::SpanId::TierPromote, dense as u64);
        let edges = self.arena.collect_subtree(top);
        let freed = self.arena.free_subtree(top);
        crate::metrics::global().tinker_blocks_freed.add(freed as u64);
        self.top_blocks[dense as usize] = NIL_U32;
        self.main_blocks -= 1;
        let seg = HubSegment::from_edges(edges);
        let h = match self.free_hubs.pop() {
            Some(h) => {
                self.hubs[h as usize] = seg;
                h
            }
            None => {
                self.hubs.push(seg);
                (self.hubs.len() - 1) as u32
            }
        };
        self.hub_of[dense as usize] = h;
        self.set_tier(dense, Tier::Hub);
        self.tier_promotions += 1;
        crate::metrics::global().tier_promotions.inc();
    }

    /// Hub → edgeblock demotion (hysteresis floor crossed).
    fn demote_hub_to_blocks(&mut self, dense: u32) {
        let _span = crate::trace::span_arg(crate::trace::SpanId::TierPromote, dense as u64);
        let h = self.hub_of[dense as usize];
        let seg = std::mem::take(&mut self.hubs[h as usize]);
        self.hub_dead_slots -= seg.dead_slots();
        self.free_hubs.push(h);
        self.hub_of[dense as usize] = NIL_U32;
        self.set_tier(dense, Tier::Blocks);
        for (dst, weight, cal_ptr) in seg.into_edges() {
            self.anchor_in_blocks(dense, Floating { dst, weight, cal_ptr });
        }
        self.tier_demotions += 1;
        crate::metrics::global().tier_demotions.inc();
    }

    /// Edgeblock → inline demotion: the remaining handful of edges moves
    /// back into the vertex entry and the subtree is recycled.
    fn demote_blocks_to_inline(&mut self, dense: u32) {
        let Some(top) = self.top_block(dense) else {
            self.set_tier(dense, Tier::Inline);
            return;
        };
        let _span = crate::trace::span_arg(crate::trace::SpanId::TierPromote, dense as u64);
        let edges = self.arena.collect_subtree(top);
        debug_assert!(edges.len() <= self.config.inline_cap);
        let freed = self.arena.free_subtree(top);
        crate::metrics::global().tinker_blocks_freed.add(freed as u64);
        self.top_blocks[dense as usize] = NIL_U32;
        self.main_blocks -= 1;
        let mut adj = InlineAdj::EMPTY;
        for (dst, weight, cal_ptr) in edges {
            adj.push(dst, weight, cal_ptr);
        }
        self.inline[dense as usize] = adj;
        self.set_tier(dense, Tier::Inline);
        self.tier_demotions += 1;
        crate::metrics::global().tier_demotions.inc();
    }

    /// Deletes the edge `(src, dst)`. Returns `true` if it existed.
    pub fn delete_edge(&mut self, src: VertexId, dst: VertexId) -> bool {
        let mark = self.flush_mark();
        let deleted = self.delete_resolved(src, dst, Resolved::hashed(src, dst));
        let m = crate::metrics::global();
        if deleted {
            m.tinker_deletes.inc();
        } else {
            m.tinker_delete_misses.inc();
        }
        self.flush_since(mark);
        deleted
    }

    /// Deletes `(src, dst)` given what its resolve stage carried (instance
    /// stats only, see [`insert_resolved`](Self::insert_resolved)).
    fn delete_resolved(&mut self, src: VertexId, dst: VertexId, r: Resolved) -> bool {
        self.stats.operations += 1;
        let deleted = match self.dense_resolved(src, r) {
            None => false,
            Some(dense) if self.adaptive => self.delete_adaptive(dense, dst, r.h0),
            Some(dense) => self.delete_blocks(dense, dst, r.h0),
        };
        if deleted {
            self.stats.deletes += 1;
        } else {
            self.stats.delete_misses += 1;
        }
        deleted
    }

    /// Tier-dispatched delete, with hysteresis demotions.
    fn delete_adaptive(&mut self, dense: u32, dst: VertexId, h0: u64) -> bool {
        // A source registered by `import_sources` but never inserted through
        // the adaptive path has no tier slot (and no edges).
        if dense as usize >= self.tiers.len() {
            return false;
        }
        match self.tiers[dense as usize] {
            Tier::Inline => {
                let idx = dense as usize;
                self.stats.subblocks_visited += 1;
                self.stats.cells_inspected += INLINE_CAP_MAX as u64;
                self.stats.workblocks_fetched += 1;
                let Some(slot) = self.inline[idx].find(dst) else { return false };
                let ptr = self.inline[idx].remove(slot);
                if ptr != NIL_U32 {
                    if let Some(cal) = &mut self.cal {
                        cal.invalidate(ptr);
                    }
                }
                self.note_delete(dense);
                true
            }
            Tier::Blocks => {
                let deleted = self.delete_blocks(dense, dst, h0);
                if deleted
                    && self.config.inline_cap > 0
                    && self.props.out_degree(dense) as usize * 2 <= self.config.inline_cap
                {
                    self.demote_blocks_to_inline(dense);
                }
                deleted
            }
            Tier::Hub => {
                let h = self.hub_of[dense as usize] as usize;
                self.stats.subblocks_visited += 1;
                self.stats.cells_inspected += 2 * crate::hubseg::SCAN_WINDOW as u64;
                self.stats.workblocks_fetched += 1;
                let Some(i) = self.hubs[h].find(dst, tag_of_hash(h0)) else { return false };
                // A main-run delete leaves a dead slot behind (or, at the
                // compaction bound, clears them all).
                let seg = &mut self.hubs[h];
                self.hub_dead_slots -= seg.dead_slots();
                let ptr = seg.remove(i);
                self.hub_dead_slots += seg.dead_slots();
                if ptr != NIL_U32 {
                    if let Some(cal) = &mut self.cal {
                        cal.invalidate(ptr);
                    }
                }
                let deg = self.note_delete(dense);
                if deg < self.config.hub_demote {
                    self.demote_hub_to_blocks(dense);
                }
                true
            }
        }
    }

    /// Delete from the RHH edgeblock tier (the only tier when adaptive
    /// layout is disabled).
    fn delete_blocks(&mut self, dense: u32, dst: VertexId, h0: u64) -> bool {
        let Some(top) = self.top_block(dense) else { return false };
        let (found, cost) = self.locate(top, dst, h0);
        self.absorb_cost(cost);
        let Some((block, offset)) = found else { return false };

        let sublen = self.arena.subblock_len();
        let sub = offset / sublen;
        let tombstone = self.config.delete_mode == DeleteMode::DeleteOnly;
        let cell = self.arena.cell_mut(block, offset);
        let cal_ptr = cell.cal_ptr;
        if tombstone {
            *cell = EdgeCell { state: CellState::Tombstone, ..EdgeCell::EMPTY };
        } else {
            *cell = EdgeCell::EMPTY;
        }
        self.arena.set_tag(block, offset, vacant_tag(tombstone));
        self.arena.add_live(block, -1);
        if cal_ptr != NIL_U32 {
            if let Some(cal) = &mut self.cal {
                cal.invalidate(cal_ptr);
            }
        }
        self.note_delete(dense);

        if self.config.delete_mode == DeleteMode::DeleteAndCompact {
            self.backfill(block, sub, offset);
            self.free_upward(block);
            // Compact mode keeps the *whole* database compact, CAL included:
            // once invalidated records outnumber live ones, rebuild the CAL
            // from the main structure (amortized O(1) per delete).
            if let Some(cal) = &self.cal {
                if cal.num_invalid() > cal.num_live().max(1024) {
                    self.rebuild_cal();
                }
            }
        }
        true
    }

    /// Looks up the dense id without allocating.
    fn dense_lookup(&self, src: VertexId) -> Option<u32> {
        match &self.sgh {
            Some(sgh) => sgh.get(src),
            None => ((src as usize) < self.top_blocks.len()).then_some(src),
        }
    }

    /// [`dense_lookup`](Self::dense_lookup) with the source hash already
    /// computed by the caller.
    #[inline]
    fn dense_lookup_hashed(&self, src: VertexId, src_hash: u64) -> Option<u32> {
        match &self.sgh {
            Some(sgh) => sgh.get_hashed(src_hash, src),
            None => ((src as usize) < self.top_blocks.len()).then_some(src),
        }
    }

    /// Delete-and-compact backfill: pull an edge from the deepest block of
    /// the subtree hanging off `(block, sub)` into the freed cell at
    /// `offset`, then recycle any blocks the pull emptied. Every edge in
    /// that subtree hashed through `(block, sub)` on its way down, so the
    /// freed cell is on its FIND path and the move is invisible to lookups.
    fn backfill(&mut self, block: BlockId, sub: usize, offset: usize) {
        let Some(child) = self.arena.child(block, sub) else { return };

        // DFS for the deepest block holding at least one live edge.
        let mut best: Option<(usize, BlockId)> = None;
        let mut stack: Vec<(BlockId, usize)> = vec![(child, 0)];
        while let Some((b, depth)) = stack.pop() {
            if self.arena.live_count(b) > 0 && best.is_none_or(|(bd, _)| depth > bd) {
                best = Some((depth, b));
            }
            for s in 0..self.arena.subblocks_per_block() {
                if let Some(c) = self.arena.child(b, s) {
                    stack.push((c, depth + 1));
                }
            }
        }
        let Some((_, donor)) = best else { return };

        // Take any live cell from the donor block.
        let pw = self.arena.pagewidth();
        let donor_off = (0..pw)
            .find(|&i| self.arena.cell(donor, i).is_occupied())
            .expect("donor block advertises live edges");
        let moved = *self.arena.cell(donor, donor_off);
        *self.arena.cell_mut(donor, donor_off) = EdgeCell::EMPTY;
        self.arena.set_tag(donor, donor_off, TAG_EMPTY);
        self.arena.add_live(donor, -1);

        // Anchor it in the freed slot. Probe distances carry no meaning in
        // compact mode (finds scan whole subblocks), so store 0. The tag
        // lane follows the edge: fingerprints are depth-independent, so the
        // moved cell's tag is valid at its new depth too.
        *self.arena.cell_mut(block, offset) = EdgeCell { probe: 0, ..moved };
        self.arena.set_tag(block, offset, dst_tag(moved.dst));
        self.arena.add_live(block, 1);
        crate::metrics::global().tinker_backfill_moves.inc();

        // Recycle emptied, childless blocks bottom-up from the donor.
        self.free_upward(donor);
    }

    /// Walks up the parent chain from `start`, recycling every block that is
    /// empty and childless. Top-parent (main region) blocks are never
    /// recycled — the main region is indexed positionally by dense id.
    fn free_upward(&mut self, start: BlockId) {
        let mut b = start;
        loop {
            let Some((parent, psub)) = self.arena.parent(b) else { return };
            let childless = self.arena.child_slots(b).iter().all(|&c| c == NIL_U32);
            if self.arena.live_count(b) != 0 || !childless {
                return;
            }
            self.arena.set_child(parent, psub, None);
            self.arena.free_block(b);
            crate::metrics::global().tinker_blocks_freed.inc();
            b = parent;
        }
    }

    /// Weight of the edge `(src, dst)`, if present.
    pub fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        let dense = self.dense_lookup(src)?;
        if self.adaptive {
            match self.tiers.get(dense as usize) {
                Some(Tier::Inline) => {
                    let adj = &self.inline[dense as usize];
                    return adj.find(dst).map(|i| adj.weights[i]);
                }
                Some(Tier::Hub) => {
                    let seg = &self.hubs[self.hub_of[dense as usize] as usize];
                    return seg.find(dst, dst_tag(dst)).map(|i| seg.weight(i));
                }
                _ => {}
            }
        }
        let top = self.top_block(dense)?;
        let (found, _) = self.locate(top, dst, edge_hash(dst, 0));
        found.map(|(b, off)| self.arena.cell(b, off).weight)
    }

    /// Whether the edge `(src, dst)` is present.
    #[inline]
    pub fn contains_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.edge_weight(src, dst).is_some()
    }

    /// Live out-degree of `src` (0 for unknown vertices).
    pub fn out_degree(&self, src: VertexId) -> u32 {
        self.dense_lookup(src).map_or(0, |d| self.props.out_degree(d))
    }

    /// Applies a batch of updates, returning outcome counts.
    ///
    /// Operations execute strictly in arrival order through the same tier
    /// code as [`insert_edge`](Self::insert_edge) /
    /// [`delete_edge`](Self::delete_edge), but a read-only window runs
    /// ahead of the execute cursor so that the cold lines an operation
    /// will walk are already on their way when it runs: `3 * WINDOW` ops
    /// ahead the source is hashed and looked up in the SGH (the result is
    /// carried to execution), `2 * WINDOW` ahead its vertex entry is
    /// touched, `WINDOW` ahead its depth-0 subblock. The window mutates
    /// nothing and counts nothing, so structure, SGH order, CAL stream and
    /// every statistic equal the op-at-a-time loop's.
    ///
    /// The global op counters are flushed once per batch from the outcome
    /// counts (same totals as per-op increments, one atomic RMW per
    /// counter per batch), keeping the instrumented ingest path within the
    /// metrics-overhead budget.
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> BatchResult {
        let mark = self.flush_mark();
        let mut r = BatchResult::default();
        let ops = batch.ops();
        let n = ops.len();
        let mut ring = [Resolved { src_hash: 0, h0: 0, dense: NIL_U32 }; RING];
        // The warmed values are folded into one word the optimizer must
        // produce, which is what keeps their loads in the program.
        let mut warmed = 0u64;
        for step in 0..n + 3 * WINDOW {
            if step < n {
                ring[step % RING] = self.resolve(&ops[step]);
            }
            if (WINDOW..n + WINDOW).contains(&step) {
                warmed ^= self.warm_vertex(ring[(step - WINDOW) % RING]);
            }
            if (2 * WINDOW..n + 2 * WINDOW).contains(&step) {
                warmed ^= self.warm_subblock(ring[(step - 2 * WINDOW) % RING]);
            }
            let Some(at) = step.checked_sub(3 * WINDOW) else { continue };
            let carried = ring[at % RING];
            match ops[at] {
                UpdateOp::Insert(e) => {
                    if self.insert_resolved(e, carried) {
                        r.inserted += 1;
                    } else {
                        r.updated += 1;
                    }
                }
                UpdateOp::Delete { src, dst } => {
                    if self.delete_resolved(src, dst, carried) {
                        r.deleted += 1;
                    } else {
                        r.not_found += 1;
                    }
                }
            }
        }
        std::hint::black_box(warmed);
        let m = crate::metrics::global();
        m.tinker_inserts.add(r.inserted);
        m.tinker_updates.add(r.updated);
        m.tinker_deletes.add(r.deleted);
        m.tinker_delete_misses.add(r.not_found);
        self.flush_since(mark);
        r
    }

    /// Window stage 1: both hashes of `op` and a plain SGH probe for its
    /// source. `NIL_VERTEX` is left for execution to reject.
    #[inline]
    fn resolve(&self, op: &UpdateOp) -> Resolved {
        let src = op.src();
        let mut r = Resolved::hashed(src, op.dst());
        if src != NIL_VERTEX {
            r.dense = self.dense_lookup_hashed(src, r.src_hash).unwrap_or(NIL_U32);
        }
        r
    }

    /// Window stage 2: loads the resolved source's degree, tier and the
    /// entry its tier dispatch will read first (inline slot, top-block id
    /// or hub slot). Returns the loaded words; the tier may still change
    /// before the operation executes, which only wastes the touch.
    #[inline]
    fn warm_vertex(&self, r: Resolved) -> u64 {
        if r.dense == NIL_U32 {
            return 0;
        }
        let idx = r.dense as usize;
        let entry = match self.tiers.get(idx) {
            Some(Tier::Inline) => self.inline[idx].dsts[0] ^ u32::from(self.inline[idx].len),
            Some(Tier::Hub) => self.hub_of[idx],
            // No tier slot: the fixed layout, or an imported source.
            Some(Tier::Blocks) | None => self.top_blocks.get(idx).copied().unwrap_or(NIL_U32),
        };
        u64::from(entry ^ self.props.out_degree(r.dense))
    }

    /// Window stage 3, edgeblock-tier sources only: loads the tag group
    /// and home cell the depth-0 probe starts at, and the top block's live
    /// count.
    #[inline]
    fn warm_subblock(&self, r: Resolved) -> u64 {
        // Unknown, inline and hub sources own no top block.
        let Some(top) = self.top_block(r.dense) else { return 0 };
        let (sub, bucket) =
            split_hash(r.h0, self.arena.subblocks_per_block(), self.arena.subblock_len());
        u64::from(self.arena.subblock_tags(top, sub)[0])
            ^ u64::from(self.arena.subblock_cells(top, sub)[bucket].dst)
            ^ u64::from(self.arena.live_count(top))
    }

    /// Visits every live out-edge of `src` as `(dst, weight)`, walking the
    /// EdgeblockArray subtree of the vertex. This is the incremental-mode
    /// (random access) retrieval path.
    pub fn for_each_out_edge<F: FnMut(VertexId, Weight)>(&self, src: VertexId, mut f: F) {
        let Some(dense) = self.dense_lookup(src) else { return };
        if self.adaptive {
            match self.tiers.get(dense as usize) {
                Some(Tier::Inline) => {
                    let adj = &self.inline[dense as usize];
                    for i in 0..adj.len as usize {
                        f(adj.dsts[i], adj.weights[i]);
                    }
                    return;
                }
                Some(Tier::Hub) => {
                    self.hubs[self.hub_of[dense as usize] as usize].for_each(|d, w, _| f(d, w));
                    return;
                }
                _ => {}
            }
        }
        let Some(top) = self.top_block(dense) else { return };
        let mut stack = vec![top];
        while let Some(b) = stack.pop() {
            for cell in self.arena.block(b) {
                if cell.is_occupied() {
                    f(cell.dst, cell.weight);
                }
            }
            for &c in self.arena.child_slots(b) {
                if c != NIL_U32 {
                    stack.push(c);
                }
            }
        }
    }

    /// Visits every live edge as `(src, dst, weight)`.
    ///
    /// With CAL enabled this streams the compacted CAL EdgeblockArray
    /// sequentially (the full-processing retrieval path); with CAL disabled
    /// it falls back to scanning the main structure vertex-by-vertex, which
    /// is exactly the non-contiguous access pattern the CAL exists to avoid.
    pub fn for_each_edge<F: FnMut(VertexId, VertexId, Weight)>(&self, f: F) {
        match &self.cal {
            Some(cal) => cal.for_each_edge(f),
            None => self.for_each_edge_main(f),
        }
    }

    /// Visits every live edge by scanning the main EdgeblockArray,
    /// regardless of CAL availability (used by tests and the CAL ablation).
    pub fn for_each_edge_main<F: FnMut(VertexId, VertexId, Weight)>(&self, f: F) {
        self.for_each_edge_main_range(0..self.top_blocks.len() as u32, f);
    }

    /// Main-structure scan restricted to a contiguous dense-source range,
    /// in [`for_each_edge_main`](Self::for_each_edge_main) order.
    pub fn for_each_edge_main_range<F: FnMut(VertexId, VertexId, Weight)>(
        &self,
        dense_range: std::ops::Range<u32>,
        mut f: F,
    ) {
        for dense in dense_range {
            if self.adaptive {
                match self.tiers.get(dense as usize) {
                    Some(Tier::Inline) => {
                        let adj = &self.inline[dense as usize];
                        if adj.len > 0 {
                            let src = self.original_of(dense);
                            for i in 0..adj.len as usize {
                                f(src, adj.dsts[i], adj.weights[i]);
                            }
                        }
                        continue;
                    }
                    Some(Tier::Hub) => {
                        let seg = &self.hubs[self.hub_of[dense as usize] as usize];
                        if !seg.is_empty() {
                            let src = self.original_of(dense);
                            seg.for_each(|d, w, _| f(src, d, w));
                        }
                        continue;
                    }
                    _ => {}
                }
            }
            let Some(top) = self.top_block(dense) else { continue };
            let src = self.original_of(dense);
            let mut stack = vec![top];
            while let Some(b) = stack.pop() {
                for cell in self.arena.block(b) {
                    if cell.is_occupied() {
                        f(src, cell.dst, cell.weight);
                    }
                }
                for &c in self.arena.child_slots(b) {
                    if c != NIL_U32 {
                        stack.push(c);
                    }
                }
            }
        }
    }

    /// Logical shard count used by the sharded analytics read path.
    #[inline]
    pub fn analytics_shards(&self) -> usize {
        self.analytics_shards
    }

    /// Sets the logical shard count for parallel analytics streaming.
    /// The edges are split into `n` balanced, contiguous intervals of the
    /// streaming order (CAL groups when the CAL is enabled, dense source
    /// ids otherwise); ingestion and point queries are unaffected.
    pub fn set_analytics_shards(&mut self, n: usize) {
        assert!(n > 0, "shard count must be positive");
        self.analytics_shards = n;
    }

    /// Streams the edges owned by one analytics shard.
    ///
    /// Concatenating shards `0..analytics_shards()` in order visits exactly
    /// the edges of [`for_each_edge`](Self::for_each_edge), in the same
    /// order — the contract parallel full-processing analytics rely on to
    /// reproduce sequential results.
    pub fn for_each_edge_shard<F: FnMut(VertexId, VertexId, Weight)>(&self, shard: usize, f: F) {
        let n = self.analytics_shards;
        match &self.cal {
            Some(cal) => {
                let r = gtinker_types::shard_range(cal.num_groups(), n, shard);
                cal.for_each_edge_in_groups(r, f);
            }
            None => {
                let r = gtinker_types::shard_range(self.top_blocks.len(), n, shard);
                self.for_each_edge_main_range(r.start as u32..r.end as u32, f);
            }
        }
    }

    /// The analytics shard owning the out-edges of `src` (vertices not in
    /// the store map to shard 0). Matches the intervals streamed by
    /// [`for_each_edge_shard`](Self::for_each_edge_shard).
    pub fn shard_of_source(&self, src: VertexId) -> usize {
        if self.analytics_shards == 1 {
            return 0;
        }
        let Some(dense) = self.dense_lookup(src) else { return 0 };
        let (index, items) = match &self.cal {
            Some(cal) => (cal.group_of(dense), cal.num_groups()),
            None => (dense as usize, self.top_blocks.len()),
        };
        if index >= items {
            // A CAL rebuild drops trailing groups whose edges were all
            // deleted; such sources own no edges, any shard serves.
            return 0;
        }
        gtinker_types::shard_of_index(index, items, self.analytics_shards)
    }

    /// Iterates the original ids of all non-empty source vertices, in SGH
    /// (arrival) order.
    pub fn sources(&self) -> Vec<VertexId> {
        match &self.sgh {
            Some(sgh) => sgh.iter_dense().map(|(_, o)| o).collect(),
            None => (0..self.top_blocks.len() as u32).filter(|&d| self.source_active(d)).collect(),
        }
    }

    /// Whether a dense slot has ever held a source (no-SGH accounting; with
    /// SGH enabled every dense id is a source by construction). Inline and
    /// hub vertices own no top block, so presence is read from the property
    /// array instead.
    fn source_active(&self, dense: u32) -> bool {
        if self.adaptive {
            if let Some(Tier::Inline | Tier::Hub) = self.tiers.get(dense as usize) {
                return self.props.get(dense).is_some_and(|p| p.original_id != NIL_VERTEX);
            }
        }
        self.top_block(dense).is_some()
    }

    /// Pre-assigns dense source ids in the given order, as if each source
    /// had streamed one edge in. Snapshot import calls this with the saved
    /// SGH arrival order before replaying the edge payload, so the restored
    /// store reproduces the original dense remapping (and therefore the
    /// original CAL grouping, shard intervals and analytics stream order).
    /// With SGH disabled the ids are their own dense index and this only
    /// widens the observed vertex space.
    pub fn import_sources(&mut self, sources: &[VertexId]) {
        for &src in sources {
            self.note_vertex(src);
            self.dense_of_mut(src, source_hash(src));
        }
    }

    /// Widens the observed vertex id space to at least `space` (one past
    /// the largest id). Snapshot import restores the space recorded at
    /// save time: endpoints of since-deleted edges are not recoverable
    /// from the live edge payload, yet analytics array sizing depends on
    /// them. Never shrinks.
    pub fn expand_vertex_space(&mut self, space: u32) {
        if space > self.vertex_space {
            self.vertex_space = space;
        }
    }

    /// Rebuilds the CAL from the live edges in the main structure,
    /// discarding accumulated invalid records and refreshing every
    /// CAL-pointer. No-op when CAL is disabled.
    pub fn rebuild_cal(&mut self) {
        if self.cal.is_none() {
            return;
        }
        crate::metrics::global().tinker_cal_rebuilds.inc();
        let mut cal = CalArray::new(self.config.cal_group_size, self.config.cal_block_size);
        for dense in 0..self.top_blocks.len() as u32 {
            let idx = dense as usize;
            if self.adaptive {
                match self.tiers.get(idx) {
                    Some(Tier::Inline) => {
                        if self.inline[idx].len > 0 {
                            let src = self.original_of(dense);
                            for i in 0..self.inline[idx].len as usize {
                                let ptr = cal.insert(
                                    dense,
                                    src,
                                    self.inline[idx].dsts[i],
                                    self.inline[idx].weights[i],
                                );
                                self.inline[idx].cal_ptrs[i] = ptr;
                            }
                        }
                        continue;
                    }
                    Some(Tier::Hub) => {
                        let h = self.hub_of[idx] as usize;
                        if !self.hubs[h].is_empty() {
                            let src = self.original_of(dense);
                            self.hubs[h].remap_cal_ptrs(|dst, w| cal.insert(dense, src, dst, w));
                        }
                        continue;
                    }
                    _ => {}
                }
            }
            let Some(top) = self.top_block(dense) else { continue };
            let src = self.original_of(dense);
            let mut stack = vec![top];
            while let Some(b) = stack.pop() {
                let pw = self.arena.pagewidth();
                for off in 0..pw {
                    let cell = *self.arena.cell(b, off);
                    if cell.is_occupied() {
                        let ptr = cal.insert(dense, src, cell.dst, cell.weight);
                        self.arena.cell_mut(b, off).cal_ptr = ptr;
                    }
                }
                for &c in self.arena.child_slots(b) {
                    if c != NIL_U32 {
                        stack.push(c);
                    }
                }
            }
        }
        self.cal = Some(cal);
    }

    /// Estimated heap bytes of the inline tier.
    fn inline_bytes(&self) -> usize {
        self.inline.capacity() * std::mem::size_of::<InlineAdj>()
    }

    /// Estimated heap bytes of the hub tier (segments + slot table).
    fn hub_bytes(&self) -> usize {
        self.hubs.iter().map(|h| h.memory_bytes()).sum::<usize>()
            + self.hubs.capacity() * std::mem::size_of::<HubSegment>()
            + self.hub_of.capacity() * 4
            + self.free_hubs.capacity() * 4
    }

    /// Point-in-time structure statistics.
    pub fn structure_stats(&self) -> StructureStats {
        let total_blocks = self.arena.num_blocks();
        let free = self.arena.num_free_blocks();
        let allocated_cells = (total_blocks - free) * self.arena.pagewidth();
        StructureStats {
            live_edges: self.live_edges,
            num_sources: self.num_sources(),
            main_blocks: self.main_blocks,
            overflow_blocks: total_blocks - free - self.main_blocks,
            free_blocks: free,
            tombstones: self.arena.count_tombstones(),
            hub_dead_slots: self.hub_dead_slots,
            cal_blocks: self.cal.as_ref().map_or(0, |c| c.num_blocks()),
            cal_invalid: self.cal.as_ref().map_or(0, |c| c.num_invalid()),
            occupancy: if allocated_cells == 0 {
                0.0
            } else {
                self.live_edges as f64 / allocated_cells as f64
            },
            tier_inline_vertices: self.tier_counts[Tier::Inline as usize] as usize,
            tier_blocks_vertices: self.tier_counts[Tier::Blocks as usize] as usize,
            tier_hub_vertices: self.tier_counts[Tier::Hub as usize] as usize,
            tier_promotions: self.tier_promotions,
            tier_demotions: self.tier_demotions,
            inline_bytes: self.inline_bytes(),
            hub_bytes: self.hub_bytes(),
            memory_bytes: self.arena.memory_bytes()
                + self.cal.as_ref().map_or(0, |c| c.memory_bytes())
                + self.top_blocks.capacity() * 4
                + self.tiers.capacity()
                + self.inline_bytes()
                + self.hub_bytes(),
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
    /// `(inline tier, edgeblock arena, hub tier, CAL, total)`. The parallel
    /// wrapper sums these across instances before publishing gauges.
    pub fn memory_breakdown(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.inline_bytes(),
            self.arena.memory_bytes(),
            self.hub_bytes(),
            self.cal.as_ref().map_or(0, |c| c.memory_bytes()),
            self.structure_stats().memory_bytes,
        )
    }

    /// Direct access to the CAL (tests/diagnostics).
    pub fn cal(&self) -> Option<&CalArray> {
        self.cal.as_ref()
    }

    /// Histogram of live edges by tree depth: `hist[d]` = edges stored in
    /// blocks `d` generations below a top-parent. Directly exhibits the
    /// `O(log degree)` depth bound of Tree-Based Hashing (an adjacency list
    /// would put the k-th edge at "depth" `k / blocksize`).
    pub fn depth_histogram(&self) -> Vec<u64> {
        let mut hist: Vec<u64> = Vec::new();
        if self.adaptive {
            // Inline and hub adjacency is flat: everything sits at depth 0.
            let shallow: u64 = self.inline.iter().map(|a| a.len as u64).sum::<u64>()
                + self.hubs.iter().map(|h| h.len() as u64).sum::<u64>();
            if shallow > 0 {
                hist.push(shallow);
            }
        }
        for dense in 0..self.top_blocks.len() as u32 {
            let Some(top) = self.top_block(dense) else { continue };
            let mut stack = vec![(top, 0usize)];
            while let Some((b, depth)) = stack.pop() {
                if hist.len() <= depth {
                    hist.resize(depth + 1, 0);
                }
                hist[depth] += self.arena.live_count(b) as u64;
                for &c in self.arena.child_slots(b) {
                    if c != NIL_U32 {
                        stack.push((c, depth + 1));
                    }
                }
            }
        }
        hist
    }

    /// Histogram of stored Robin Hood probe distances over live edges:
    /// `hist[p]` = edges whose cell sits `p` positions from its initial
    /// bucket. RHH keeps this distribution tight (bounded by the subblock
    /// length).
    pub fn probe_histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; self.arena.subblock_len()];
        if self.adaptive {
            // Inline and hub probes are position-exact: distance 0.
            hist[0] += self.inline.iter().map(|a| a.len as u64).sum::<u64>()
                + self.hubs.iter().map(|h| h.len() as u64).sum::<u64>();
        }
        for dense in 0..self.top_blocks.len() as u32 {
            let Some(top) = self.top_block(dense) else { continue };
            let mut stack = vec![top];
            while let Some(b) = stack.pop() {
                for cell in self.arena.block(b) {
                    if cell.is_occupied() {
                        hist[cell.probe as usize] += 1;
                    }
                }
                for &c in self.arena.child_slots(b) {
                    if c != NIL_U32 {
                        stack.push(c);
                    }
                }
            }
        }
        hist
    }

    /// Checks the Robin Hood invariants over every live cell (diagnostic /
    /// test hook; `Ok(())` immediately in delete-and-compact mode, where RHH
    /// is disabled and probe distances carry no meaning):
    ///
    /// 1. every occupied cell sits in the subblock its destination hashes to
    ///    at that depth, and its stored probe equals the circular distance
    ///    from its hash bucket;
    /// 2. the probe-path predecessor of a probe-`d > 0` cell is never truly
    ///    empty (delete-only mode leaves tombstones, so a hole before a
    ///    displaced edge would break the FIND shortcut);
    /// 3. while the structure has never deleted an edge, the full Robin
    ///    Hood ordering holds: the predecessor's probe is at least `d - 1`.
    ///    Once a delete has happened anywhere, a later insert may legally
    ///    reuse a tombstone slot ahead of a displaced cell, so strict
    ///    ordering is no longer implied — even in subblocks that are
    ///    tombstone-free *now*.
    ///
    /// Returns the first violation as an error string.
    pub fn validate_rhh_invariants(&self) -> std::result::Result<(), String> {
        if !self.rhh_enabled() {
            return Ok(());
        }
        let never_deleted = self.stats.deletes == 0;
        let spb = self.arena.subblocks_per_block();
        let sublen = self.arena.subblock_len();
        for dense in 0..self.top_blocks.len() as u32 {
            let Some(top) = self.top_block(dense) else { continue };
            let mut stack = vec![(top, 0u32)];
            while let Some((b, depth)) = stack.pop() {
                for sub in 0..spb {
                    let cells = self.arena.subblock_cells(b, sub);
                    for (pos, cell) in cells.iter().enumerate() {
                        if !cell.is_occupied() {
                            continue;
                        }
                        let (esub, ebucket) = subblock_and_bucket(cell.dst, depth, spb, sublen);
                        if esub != sub {
                            return Err(format!(
                                "edge to {} stored in subblock {sub} of block {b} at depth \
                                 {depth}, but hashes to subblock {esub}",
                                cell.dst
                            ));
                        }
                        let dist = (pos + sublen - ebucket) % sublen;
                        if dist != cell.probe as usize {
                            return Err(format!(
                                "edge to {} at offset {pos} of block {b} stores probe {} but \
                                 sits {dist} cells from bucket {ebucket}",
                                cell.dst, cell.probe
                            ));
                        }
                        if cell.probe > 0 {
                            let prev = &cells[(pos + sublen - 1) % sublen];
                            if prev.state == CellState::Empty {
                                return Err(format!(
                                    "edge to {} has probe {} but an empty predecessor in block \
                                     {b} subblock {sub}",
                                    cell.dst, cell.probe
                                ));
                            }
                            if never_deleted && (prev.probe as usize) < cell.probe as usize - 1 {
                                return Err(format!(
                                    "Robin Hood ordering violated in block {b} subblock {sub}: \
                                     probe {} follows probe {}",
                                    cell.probe, prev.probe
                                ));
                            }
                        }
                    }
                }
                for &c in self.arena.child_slots(b) {
                    if c != NIL_U32 {
                        stack.push((c, depth + 1));
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks the SWAR tag lanes against ground truth over the whole
    /// structure (diagnostic / test hook; valid in both delete modes):
    ///
    /// 1. every edgeblock cell's tag byte matches its state — the
    ///    destination fingerprint when occupied, [`TAG_EMPTY`] when empty,
    ///    [`TAG_TOMBSTONE`] when tombstoned;
    /// 2. the SGH slot-table tag lane (including its wrap-around mirror)
    ///    matches the resident keys;
    /// 3. every hub segment passes [`HubSegment::validate`] (sorted main
    ///    run, exact and bounded dead count, fences, tail-tag lane), holds
    ///    exactly its vertex's out-degree in live edges, and the dead slots
    ///    sum to the reported `hub_dead_slots`.
    ///
    /// Returns the first violation as an error string.
    pub fn validate_tag_invariants(&self) -> std::result::Result<(), String> {
        let pw = self.arena.pagewidth();
        for dense in 0..self.top_blocks.len() as u32 {
            let Some(top) = self.top_block(dense) else { continue };
            let mut stack = vec![top];
            while let Some(b) = stack.pop() {
                for off in 0..pw {
                    let cell = self.arena.cell(b, off);
                    let expect = match cell.state {
                        CellState::Occupied => dst_tag(cell.dst),
                        CellState::Empty => TAG_EMPTY,
                        CellState::Tombstone => TAG_TOMBSTONE,
                    };
                    let got = self.arena.tag(b, off);
                    if got != expect {
                        return Err(format!(
                            "block {b} offset {off}: cell state {:?} (dst {}) expects tag \
                             {expect:#04x} but the lane holds {got:#04x}",
                            cell.state, cell.dst
                        ));
                    }
                }
                for &c in self.arena.child_slots(b) {
                    if c != NIL_U32 {
                        stack.push(c);
                    }
                }
            }
        }
        if let Some(sgh) = &self.sgh {
            sgh.validate_tags().map_err(|e| format!("sgh: {e}"))?;
        }
        for (h, seg) in self.hubs.iter().enumerate() {
            seg.validate().map_err(|e| format!("hub {h}: {e}"))?;
        }
        for (dense, &h) in self.hub_of.iter().enumerate() {
            if h != NIL_U32 {
                let (held, deg) =
                    (self.hubs[h as usize].len(), self.props.out_degree(dense as u32));
                if held != deg as usize {
                    return Err(format!("hub {h}: {held} live edges but out-degree {deg}"));
                }
            }
        }
        let dead: usize = self.hubs.iter().map(|h| h.dead_slots()).sum();
        if dead != self.hub_dead_slots {
            return Err(format!("hub dead slots: counted {dead}, tracked {}", self.hub_dead_slots));
        }
        Ok(())
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

impl std::fmt::Debug for GraphTinker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphTinker")
            .field("edges", &self.live_edges)
            .field("sources", &self.num_sources())
            .field("vertex_space", &self.vertex_space)
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn tiny_config() -> TinkerConfig {
        // Small geometry so branching kicks in quickly; tiers off, so every
        // vertex exercises the edgeblock tier (`adaptive_tiny` covers tiers).
        TinkerConfig { pagewidth: 16, subblock: 4, workblock: 2, ..TinkerConfig::paper() }
    }

    #[test]
    fn insert_and_lookup_roundtrip() {
        let mut g = GraphTinker::with_defaults();
        assert!(g.insert_edge(Edge::new(1, 2, 10)));
        assert!(g.insert_edge(Edge::new(1, 3, 20)));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(1, 2), Some(10));
        assert_eq!(g.edge_weight(1, 3), Some(20));
        assert_eq!(g.edge_weight(1, 4), None);
        assert_eq!(g.edge_weight(2, 1), None, "edges are directed");
        assert_eq!(g.out_degree(1), 2);
    }

    #[test]
    fn reinsert_updates_weight_not_count() {
        let mut g = GraphTinker::with_defaults();
        assert!(g.insert_edge(Edge::new(5, 6, 1)));
        assert!(!g.insert_edge(Edge::new(5, 6, 99)));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(5), 1);
        assert_eq!(g.edge_weight(5, 6), Some(99));
        // CAL copy tracked the weight update too.
        let mut w = 0;
        g.for_each_edge(|_, _, weight| w = weight);
        assert_eq!(w, 99);
    }

    #[test]
    fn delete_only_tombstones_and_forgets_edge() {
        let mut g = GraphTinker::new(TinkerConfig::paper()).unwrap();
        g.insert_edge(Edge::new(1, 2, 1));
        g.insert_edge(Edge::new(1, 3, 1));
        assert!(g.delete_edge(1, 2));
        assert!(!g.delete_edge(1, 2), "double delete reports missing");
        assert!(!g.contains_edge(1, 2));
        assert!(g.contains_edge(1, 3));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.structure_stats().tombstones, 1);
    }

    #[test]
    fn delete_missing_edge_and_missing_vertex() {
        let mut g = GraphTinker::with_defaults();
        g.insert_edge(Edge::unit(1, 2));
        assert!(!g.delete_edge(1, 99));
        assert!(!g.delete_edge(42, 1), "unknown source");
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn tombstone_slot_reused_by_insert() {
        let mut g = GraphTinker::new(TinkerConfig::paper()).unwrap();
        g.insert_edge(Edge::new(1, 2, 1));
        g.delete_edge(1, 2);
        assert_eq!(g.structure_stats().tombstones, 1);
        // Reinserting the same destination probes the same bucket, so the
        // tombstoned cell is reclaimed ("the INSERT stage can also insert
        // edges into these empty slots").
        g.insert_edge(Edge::new(1, 2, 3));
        assert_eq!(g.structure_stats().tombstones, 0, "insert reclaims the tombstone");
        assert_eq!(g.edge_weight(1, 2), Some(3));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn high_degree_vertex_branches_out() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        for d in 0..200u32 {
            g.insert_edge(Edge::unit(0, d + 1));
        }
        assert_eq!(g.num_edges(), 200);
        assert_eq!(g.out_degree(0), 200);
        let st = g.structure_stats();
        assert!(st.overflow_blocks > 0, "200 edges in 16-cell blocks must branch");
        assert!(g.stats().branches_created > 0);
        assert!(g.stats().max_depth > 0);
        // Every edge still findable.
        for d in 0..200u32 {
            assert!(g.contains_edge(0, d + 1), "lost edge (0, {})", d + 1);
        }
    }

    #[test]
    fn out_edge_iteration_matches_inserts() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        let mut expected = BTreeMap::new();
        for d in 0..100u32 {
            g.insert_edge(Edge::new(7, d, d * 2));
            expected.insert(d, d * 2);
        }
        let mut seen = BTreeMap::new();
        g.for_each_out_edge(7, |dst, w| {
            assert!(seen.insert(dst, w).is_none(), "duplicate dst {dst}");
        });
        assert_eq!(seen, expected);
    }

    #[test]
    fn cal_stream_matches_main_scan() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        for i in 0..500u32 {
            g.insert_edge(Edge::new(i % 37, i, i % 5 + 1));
        }
        for i in (0..500u32).step_by(3) {
            g.delete_edge(i % 37, i);
        }
        let mut from_cal: Vec<(u32, u32, u32)> = Vec::new();
        g.for_each_edge(|s, d, w| from_cal.push((s, d, w)));
        let mut from_main: Vec<(u32, u32, u32)> = Vec::new();
        g.for_each_edge_main(|s, d, w| from_main.push((s, d, w)));
        from_cal.sort_unstable();
        from_main.sort_unstable();
        assert_eq!(from_cal, from_main, "CAL and main structure diverged");
        assert_eq!(from_cal.len() as u64, g.num_edges());
    }

    #[test]
    fn delete_and_compact_shrinks_structure() {
        let cfg = TinkerConfig { delete_mode: DeleteMode::DeleteAndCompact, ..tiny_config() };
        let mut g = GraphTinker::new(cfg).unwrap();
        for d in 0..300u32 {
            g.insert_edge(Edge::unit(0, d + 1));
        }
        let before = g.structure_stats();
        assert!(before.overflow_blocks > 0);
        for d in 0..300u32 {
            assert!(g.delete_edge(0, d + 1), "edge {} should delete", d + 1);
        }
        let after = g.structure_stats();
        assert_eq!(g.num_edges(), 0);
        assert!(
            after.free_blocks > 0,
            "compaction must recycle emptied overflow blocks: {after:?}"
        );
        assert_eq!(after.overflow_blocks, 0, "all overflow blocks recycled when empty");
    }

    #[test]
    fn delete_and_compact_preserves_remaining_edges() {
        let cfg = TinkerConfig { delete_mode: DeleteMode::DeleteAndCompact, ..tiny_config() };
        let mut g = GraphTinker::new(cfg).unwrap();
        for d in 0..120u32 {
            g.insert_edge(Edge::new(3, d, d));
        }
        // Delete every other edge; compaction moves survivors around.
        for d in (0..120u32).step_by(2) {
            assert!(g.delete_edge(3, d));
        }
        for d in 0..120u32 {
            if d % 2 == 0 {
                assert!(!g.contains_edge(3, d), "deleted edge {d} still visible");
            } else {
                assert_eq!(g.edge_weight(3, d), Some(d), "survivor {d} lost or corrupted");
            }
        }
        assert_eq!(g.num_edges(), 60);
    }

    #[test]
    fn sgh_disabled_still_correct() {
        let cfg = TinkerConfig { enable_sgh: false, ..tiny_config() };
        let mut g = GraphTinker::new(cfg).unwrap();
        g.insert_edge(Edge::new(1000, 1, 5));
        g.insert_edge(Edge::new(3, 1000, 6));
        assert_eq!(g.edge_weight(1000, 1), Some(5));
        assert_eq!(g.edge_weight(3, 1000), Some(6));
        // Main region is sparse: indexed by raw id.
        assert_eq!(g.num_sources(), 1001);
        let mut edges = Vec::new();
        g.for_each_edge(|s, d, w| edges.push((s, d, w)));
        edges.sort_unstable();
        assert_eq!(edges, vec![(3, 1000, 6), (1000, 1, 5)]);
    }

    #[test]
    fn cal_disabled_falls_back_to_main_scan() {
        let cfg = TinkerConfig { enable_cal: false, ..tiny_config() };
        let mut g = GraphTinker::new(cfg).unwrap();
        for i in 0..50u32 {
            g.insert_edge(Edge::new(i % 5, i, 1));
        }
        g.delete_edge(0, 0);
        let mut n = 0;
        g.for_each_edge(|_, _, _| n += 1);
        assert_eq!(n, 49);
        assert!(g.cal().is_none());
        assert_eq!(g.structure_stats().cal_blocks, 0);
    }

    #[test]
    fn sgh_compacts_sparse_sources() {
        // The paper's example: sources 34 and 22789 should be adjacent in
        // the main region, not 22755 slots apart.
        let mut g = GraphTinker::with_defaults();
        g.insert_edge(Edge::unit(34, 1));
        g.insert_edge(Edge::unit(22789, 2));
        assert_eq!(g.num_sources(), 2);
        assert_eq!(g.sources(), vec![34, 22789]);
    }

    #[test]
    fn rebuild_cal_drops_invalid_records() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        for i in 0..100u32 {
            g.insert_edge(Edge::new(0, i, i));
        }
        for i in 0..50u32 {
            g.delete_edge(0, i);
        }
        assert_eq!(g.cal().unwrap().num_invalid(), 50);
        g.rebuild_cal();
        assert_eq!(g.cal().unwrap().num_invalid(), 0);
        assert_eq!(g.cal().unwrap().num_live(), 50);
        // Pointers still valid: weight updates must reach the new CAL.
        g.insert_edge(Edge::new(0, 99, 12345));
        let mut found = false;
        g.for_each_edge(|_, d, w| {
            if d == 99 {
                assert_eq!(w, 12345);
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn batch_apply_counts() {
        let mut g = GraphTinker::with_defaults();
        let mut b = EdgeBatch::new();
        b.push_insert(Edge::unit(1, 2));
        b.push_insert(Edge::unit(1, 2)); // duplicate -> update
        b.push_insert(Edge::unit(2, 3));
        b.push_delete(1, 2);
        b.push_delete(9, 9); // missing
        let r = g.apply_batch(&b);
        assert_eq!(r, BatchResult { inserted: 2, updated: 1, deleted: 1, not_found: 1 });
        assert_eq!(r.total(), 5);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn vertex_space_tracks_both_endpoints() {
        let mut g = GraphTinker::with_defaults();
        assert_eq!(g.vertex_space(), 0);
        g.insert_edge(Edge::unit(3, 900));
        assert_eq!(g.vertex_space(), 901);
        g.insert_edge(Edge::unit(1000, 2));
        assert_eq!(g.vertex_space(), 1001);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut g = GraphTinker::with_defaults();
        for i in 0..100u32 {
            g.insert_edge(Edge::unit(0, i));
        }
        let s = g.stats();
        assert_eq!(s.operations, 100);
        assert!(s.cells_inspected >= 100);
        assert!(s.workblocks_fetched > 0);
        assert!(s.mean_probe() >= 1.0);
        g.reset_stats();
        assert_eq!(g.stats(), ProbeStats::default());
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = TinkerConfig { subblock: 5, ..TinkerConfig::default() };
        assert!(matches!(GraphTinker::new(cfg), Err(GraphError::InvalidConfig(_))));
    }

    #[test]
    fn occupancy_reflects_compaction() {
        // Identical inserts; tombstoning keeps blocks allocated, so
        // occupancy must be no better than with compaction.
        let mk = |mode| {
            let cfg = TinkerConfig { delete_mode: mode, ..tiny_config() };
            let mut g = GraphTinker::new(cfg).unwrap();
            for d in 0..400u32 {
                g.insert_edge(Edge::unit(0, d + 1));
            }
            for d in (0..400u32).step_by(2) {
                g.delete_edge(0, d + 1);
            }
            g
        };
        let tomb = mk(DeleteMode::DeleteOnly).structure_stats();
        let comp = mk(DeleteMode::DeleteAndCompact).structure_stats();
        assert!(
            comp.occupancy >= tomb.occupancy,
            "compacted occupancy {:.3} < tombstoned {:.3}",
            comp.occupancy,
            tomb.occupancy
        );
        assert_eq!(comp.tombstones, 0);
    }

    #[test]
    fn compact_mode_keeps_cal_bounded() {
        let cfg = TinkerConfig {
            delete_mode: DeleteMode::DeleteAndCompact,
            cal_block_size: 64,
            ..tiny_config()
        };
        let mut g = GraphTinker::new(cfg).unwrap();
        for d in 0..4_000u32 {
            g.insert_edge(Edge::unit(d % 16, d));
        }
        for d in 0..3_900u32 {
            g.delete_edge(d % 16, d);
        }
        let st = g.structure_stats();
        assert!(
            st.cal_invalid <= st.live_edges.max(1024),
            "CAL GC failed to bound invalid records: {st:?}"
        );
        // Edges still intact after rebuilds.
        for d in 3_900..4_000u32 {
            assert!(g.contains_edge(d % 16, d), "lost edge {d} across CAL GC");
        }
        let mut n = 0;
        g.for_each_edge(|_, _, _| n += 1);
        assert_eq!(n, 100);
    }

    #[test]
    fn depth_histogram_counts_all_edges_and_stays_logarithmic() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        for d in 0..1_000u32 {
            g.insert_edge(Edge::unit(0, d + 1));
        }
        let hist = g.depth_histogram();
        assert_eq!(hist.iter().sum::<u64>(), 1_000);
        // 1000 edges in 16-cell blocks: an adjacency list would need a
        // 63-block chain; the hash tree must stay far shallower.
        assert!(hist.len() <= 16, "tree depth {} not logarithmic", hist.len());
        assert!(g.mean_depth() < 8.0, "mean depth {}", g.mean_depth());
    }

    #[test]
    fn probe_histogram_bounded_by_subblock() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        for i in 0..2_000u32 {
            g.insert_edge(Edge::unit(i % 13, i));
        }
        let hist = g.probe_histogram();
        assert_eq!(hist.len(), 4, "probe distances bounded by subblock length");
        assert_eq!(hist.iter().sum::<u64>(), 2_000);
        // Robin Hood: short probes dominate.
        assert!(hist[0] > hist[3], "probe distribution not front-loaded: {hist:?}");
    }

    #[test]
    fn empty_structure_diagnostics() {
        let g = GraphTinker::with_defaults();
        assert!(g.depth_histogram().is_empty());
        assert_eq!(g.probe_histogram().iter().sum::<u64>(), 0);
        assert_eq!(g.mean_depth(), 0.0);
    }

    #[test]
    fn import_sources_reproduces_dense_order() {
        // Build a store whose SGH order differs from sorted id order...
        let mut orig = GraphTinker::with_defaults();
        for &(s, d) in &[(50u32, 1u32), (3, 2), (97, 3), (3, 4)] {
            orig.insert_edge(Edge::unit(s, d));
        }
        assert_eq!(orig.sources(), vec![50, 3, 97]);
        // ...then rebuild it the snapshot way: sources first, edges after,
        // in an order that would otherwise assign different dense ids.
        let mut restored = GraphTinker::with_defaults();
        restored.import_sources(&orig.sources());
        restored.insert_edge(Edge::unit(97, 3));
        restored.insert_edge(Edge::unit(3, 2));
        restored.insert_edge(Edge::unit(3, 4));
        restored.insert_edge(Edge::unit(50, 1));
        assert_eq!(restored.sources(), orig.sources());
        assert_eq!(restored.num_sources(), 3);
        // Idempotent: re-importing known sources allocates nothing new.
        restored.import_sources(&[3, 50]);
        assert_eq!(restored.num_sources(), 3);
    }

    #[test]
    fn expand_vertex_space_never_shrinks() {
        let mut g = GraphTinker::with_defaults();
        g.insert_edge(Edge::unit(1, 500));
        g.expand_vertex_space(100);
        assert_eq!(g.vertex_space(), 501, "expand must not shrink");
        g.expand_vertex_space(1_000);
        assert_eq!(g.vertex_space(), 1_000);
    }

    fn adaptive_tiny() -> TinkerConfig {
        // Tiny geometry + low thresholds so every tier transition triggers
        // within a few dozen edges.
        tiny_config().tiers(2, 12, 6)
    }

    #[test]
    fn inline_tier_avoids_block_allocation() {
        let mut g = GraphTinker::new(adaptive_tiny()).unwrap();
        g.insert_edge(Edge::new(1, 10, 7));
        g.insert_edge(Edge::new(1, 11, 8));
        let st = g.structure_stats();
        assert_eq!(st.main_blocks, 0, "small vertices must not allocate edgeblocks");
        assert_eq!(st.tier_inline_vertices, 1);
        assert_eq!(g.edge_weight(1, 10), Some(7));
        assert_eq!(g.out_degree(1), 2);
        // Weight update in place.
        assert!(!g.insert_edge(Edge::new(1, 10, 70)));
        assert_eq!(g.edge_weight(1, 10), Some(70));
        // Delete brings it back to one edge, still inline.
        assert!(g.delete_edge(1, 11));
        assert!(!g.contains_edge(1, 11));
        assert_eq!(g.structure_stats().main_blocks, 0);
    }

    #[test]
    fn inline_promotes_to_blocks_then_hub_and_back() {
        let mut g = GraphTinker::new(adaptive_tiny()).unwrap();
        // 3rd edge overflows inline_cap = 2 -> blocks tier.
        for d in 0..3u32 {
            g.insert_edge(Edge::new(5, d + 100, d));
        }
        let st = g.structure_stats();
        assert_eq!(st.tier_blocks_vertices, 1);
        assert_eq!(st.tier_inline_vertices, 0);
        assert!(st.main_blocks > 0);
        assert!(st.tier_promotions >= 1);

        // Degree 12 reaches hub_promote -> hub tier, blocks recycled.
        for d in 3..12u32 {
            g.insert_edge(Edge::new(5, d + 100, d));
        }
        let st = g.structure_stats();
        assert_eq!(st.tier_hub_vertices, 1);
        assert_eq!(st.main_blocks, 0);
        assert!(st.free_blocks > 0, "promotion must recycle the subtree");
        for d in 0..12u32 {
            assert_eq!(g.edge_weight(5, d + 100), Some(d), "edge {d} lost in promotion");
        }

        // Dropping below hub_demote = 6 falls back to blocks, then below
        // inline_cap/2 to inline.
        for d in 0..7u32 {
            assert!(g.delete_edge(5, d + 100));
        }
        let st = g.structure_stats();
        assert_eq!(st.tier_blocks_vertices, 1, "hub must demote below the floor: {st:?}");
        for d in 7..11u32 {
            assert!(g.delete_edge(5, d + 100));
        }
        let st = g.structure_stats();
        assert_eq!(st.tier_inline_vertices, 1, "blocks must demote to inline: {st:?}");
        assert!(st.tier_demotions >= 2);
        assert_eq!(g.edge_weight(5, 111), Some(11), "last survivor intact");
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn adaptive_matches_model_under_churn() {
        for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
            let cfg = TinkerConfig { delete_mode: mode, ..adaptive_tiny() };
            let mut g = GraphTinker::new(cfg).unwrap();
            let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            // Skewed source distribution so a few vertices cross every
            // threshold repeatedly while most stay inline.
            for i in 0..6_000u32 {
                let src = (i * 7 % 97) * (i * 7 % 97) % 61;
                let dst = i * 13 % 211;
                if i % 4 == 3 {
                    let was = model.remove(&(src, dst)).is_some();
                    assert_eq!(g.delete_edge(src, dst), was, "delete mismatch at {i} ({mode:?})");
                } else {
                    let new = model.insert((src, dst), i).is_none();
                    assert_eq!(
                        g.insert_edge(Edge::new(src, dst, i)),
                        new,
                        "insert mismatch at {i} ({mode:?})"
                    );
                }
            }
            assert_eq!(g.num_edges() as usize, model.len());
            let mut got: Vec<(u32, u32, u32)> = Vec::new();
            g.for_each_edge(|s, d, w| got.push((s, d, w)));
            got.sort_unstable();
            let want: Vec<(u32, u32, u32)> = model.iter().map(|(&(s, d), &w)| (s, d, w)).collect();
            assert_eq!(got, want, "CAL stream diverged ({mode:?})");
            // Main-structure scan agrees too (snapshot encode path).
            let mut main: Vec<(u32, u32, u32)> = Vec::new();
            g.for_each_edge_main(|s, d, w| main.push((s, d, w)));
            main.sort_unstable();
            assert_eq!(main, want, "main scan diverged ({mode:?})");
            for src in 0..61u32 {
                let deg = model.keys().filter(|&&(s, _)| s == src).count() as u32;
                assert_eq!(g.out_degree(src), deg, "degree mismatch for {src} ({mode:?})");
            }
            let st = g.structure_stats();
            assert!(st.tier_promotions > 0, "churn must exercise promotions ({mode:?})");
            assert_eq!(
                st.tier_inline_vertices + st.tier_blocks_vertices + st.tier_hub_vertices,
                (0..61).filter(|&s| g.out_degree(s) > 0).count(),
                "tier counts must sum to active vertices ({mode:?})"
            );
        }
    }

    #[test]
    fn adaptive_histograms_count_all_edges() {
        let mut g = GraphTinker::new(adaptive_tiny()).unwrap();
        for i in 0..1_000u32 {
            g.insert_edge(Edge::unit(i % 13, i));
        }
        assert_eq!(g.depth_histogram().iter().sum::<u64>(), 1_000);
        assert_eq!(g.probe_histogram().iter().sum::<u64>(), 1_000);
        assert!(g.validate_rhh_invariants().is_ok());
    }

    #[test]
    fn adaptive_rebuild_cal_spans_all_tiers() {
        let mut g = GraphTinker::new(adaptive_tiny()).unwrap();
        // Source 0 -> hub, source 1 -> blocks, source 2 -> inline.
        for d in 0..20u32 {
            g.insert_edge(Edge::new(0, d + 1000, d));
        }
        for d in 0..5u32 {
            g.insert_edge(Edge::new(1, d + 1000, d));
        }
        g.insert_edge(Edge::new(2, 1000, 9));
        let st = g.structure_stats();
        assert_eq!(
            (st.tier_inline_vertices, st.tier_blocks_vertices, st.tier_hub_vertices),
            (1, 1, 1)
        );
        g.rebuild_cal();
        assert_eq!(g.cal().unwrap().num_invalid(), 0);
        // CAL pointers survived: weight updates land in the new CAL.
        g.insert_edge(Edge::new(0, 1001, 777));
        g.insert_edge(Edge::new(2, 1000, 888));
        let mut seen = BTreeMap::new();
        g.for_each_edge(|s, d, w| {
            seen.insert((s, d), w);
        });
        assert_eq!(seen.get(&(0, 1001)), Some(&777));
        assert_eq!(seen.get(&(2, 1000)), Some(&888));
        assert_eq!(seen.len() as u64, g.num_edges());
    }

    #[test]
    fn adaptive_sources_without_sgh() {
        let cfg = TinkerConfig { enable_sgh: false, ..adaptive_tiny() };
        let mut g = GraphTinker::new(cfg).unwrap();
        g.insert_edge(Edge::unit(3, 1)); // inline tier, no top block
        for d in 0..15u32 {
            g.insert_edge(Edge::unit(7, d + 10)); // hub tier
        }
        let mut s = g.sources();
        s.sort_unstable();
        assert_eq!(s, vec![3, 7], "inline/hub sources must be visible without SGH");
    }

    #[test]
    fn adaptive_memory_accounting_includes_tiers() {
        let mut g = GraphTinker::new(adaptive_tiny()).unwrap();
        for d in 0..40u32 {
            g.insert_edge(Edge::unit(0, d));
        }
        g.insert_edge(Edge::unit(1, 2));
        let st = g.structure_stats();
        assert!(st.hub_bytes > 0, "hub tier must be accounted: {st:?}");
        assert!(st.inline_bytes > 0);
        assert!(st.memory_bytes >= st.hub_bytes + st.inline_bytes);
        g.publish_memory_metrics();
    }

    #[test]
    fn many_sources_many_edges_consistency() {
        let mut g = GraphTinker::new(tiny_config()).unwrap();
        let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        // Mixed inserts/updates/deletes across many vertices.
        for i in 0..5_000u32 {
            let src = i * 7 % 211;
            let dst = i * 13 % 389;
            if i % 5 == 4 {
                let was = model.remove(&(src, dst)).is_some();
                assert_eq!(g.delete_edge(src, dst), was, "delete mismatch at {i}");
            } else {
                let new = model.insert((src, dst), i).is_none();
                assert_eq!(g.insert_edge(Edge::new(src, dst, i)), new, "insert mismatch at {i}");
            }
        }
        assert_eq!(g.num_edges() as usize, model.len());
        let mut got: Vec<(u32, u32, u32)> = Vec::new();
        g.for_each_edge(|s, d, w| got.push((s, d, w)));
        got.sort_unstable();
        let want: Vec<(u32, u32, u32)> = model.iter().map(|(&(s, d), &w)| (s, d, w)).collect();
        assert_eq!(got, want);
        // Degrees agree with the model.
        for src in 0..211u32 {
            let deg = model.keys().filter(|&&(s, _)| s == src).count() as u32;
            assert_eq!(g.out_degree(src), deg, "degree mismatch for {src}");
        }
    }

    /// Mixed churn on one store; returns it for post-hoc validation.
    fn churned(cfg: TinkerConfig) -> GraphTinker {
        let mut g = GraphTinker::new(cfg).unwrap();
        for i in 0..4_000u32 {
            let src = i * 7 % 97;
            let dst = i * 13 % 431;
            if i % 4 == 3 {
                g.delete_edge(src, dst);
            } else {
                g.insert_edge(Edge::new(src, dst, i));
            }
        }
        g
    }

    #[test]
    fn tag_invariants_hold_under_churn_in_both_delete_modes() {
        for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
            let g = churned(TinkerConfig { delete_mode: mode, ..tiny_config() });
            g.validate_rhh_invariants().unwrap();
            g.validate_tag_invariants().unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }

    #[test]
    fn tag_invariants_hold_across_adaptive_tiers() {
        let g = churned(adaptive_tiny());
        let st = g.structure_stats();
        assert!(st.tier_promotions > 0, "churn should exercise tier moves: {st:?}");
        g.validate_tag_invariants().unwrap();
    }

    #[test]
    fn tagged_and_seed_probe_paths_agree() {
        // The tagged FIND walk against the seed probe's answer: a scan of
        // every cell of the main structure that reads no tag lane.
        for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
            let g = churned(TinkerConfig { delete_mode: mode, ..tiny_config() });
            let mut scanned: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            g.for_each_edge_main(|s, d, w| assert!(scanned.insert((s, d), w).is_none()));
            assert_eq!(scanned.len() as u64, g.num_edges(), "{mode:?}");
            for src in 0..97u32 {
                for dst in 0..431u32 {
                    assert_eq!(
                        g.edge_weight(src, dst),
                        scanned.get(&(src, dst)).copied(),
                        "{mode:?}: tagged find and cell scan diverged at ({src}, {dst})"
                    );
                }
            }
            assert!(g.stats().tag_group_scans > 0, "the store must exercise the SWAR engine");
        }
    }
}
