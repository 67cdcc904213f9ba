//! The edgeblock tier: the paper's structure (§III.B–C). Each source owns a
//! top-parent edgeblock in the main region; Robin Hood Hashing places edges
//! within a subblock and Tree-Based Hashing branches a congested subblock
//! out into a child edgeblock of the overflow region.
//!
//! Pages come in up to three width classes — `PAGEWIDTH/4`, `PAGEWIDTH/2`
//! and `PAGEWIDTH`, one [`BlockArena`] each — and a vertex's whole subtree
//! lives in one of them. Only the full-width class branches out: a narrower
//! page whose subblock is congested reports [`Upsert::Full`] and the store
//! [`regrow`](BlockTier::regrow)s the vertex into the next class, so a
//! narrow vertex is one subblock scan deep. With no tier thresholds
//! ([`TinkerConfig::paper`]) `PAGEWIDTH` is the only class.
//!
//! The tier owns the store's optional [`CalArray`] (paper §III.B): every
//! edge it holds has one CAL copy, which its cell points at. An edge gets
//! its copy when it enters the tier — inserted, or adopted from another
//! tier — and loses it when it leaves — deleted, or drained into another
//! tier. A regrow into a wider page class moves each pointer with its cell
//! and leaves the CAL as it is.
//!
//! Operation map from the paper's interface components to this module:
//!
//! * **load / writeback units** — the subblock slices handed to the RHH
//!   routines; workblock-granular retrieval is accounted in [`ProbeStats`].
//! * **find-edge unit** — the `walk` over a source's subblock chain (FIND
//!   mode).
//! * **insert-edge unit** — the INSERT-mode walk in [`TierOps::upsert`].
//! * **inference / interval units** — the per-depth control flow of the
//!   walks (which subblock next, when to branch out).

use gtinker_types::{DeleteMode, Edge, TinkerConfig, VertexId, Weight, NIL_U32};

use super::{TierEdge, TierOps, Upsert};
use crate::cal::{CalArray, CalPtr, CalRecord};
use crate::edgeblock::{BlockArena, BlockId, CellState, EdgeCell};
use crate::hash::{dst_tag, edge_hash, split_hash, subblock_and_bucket, tag_of_hash};
use crate::rhh::{
    find_in_subblock, has_vacant_tags, linear_insert, rhh_insert, vacant_tag, Floating, RhhOutcome,
};
use crate::stats::{ClassBlocks, ProbeStats, MAX_CLASSES};
use crate::swar::{TAG_EMPTY, TAG_TOMBSTONE};

/// A source's entry in the main region's index packs its class into the
/// bits above its top block's id ([`NIL_U32`] would be class 3, which no
/// layout has).
const CLASS_SHIFT: u32 = 30;
const ID_MASK: u32 = (1 << CLASS_SHIFT) - 1;

/// An edge with the pointer to its CAL copy, as a regrow moves it.
type Held = (VertexId, Weight, CalPtr);

/// Appends the CAL copy of a new edge of `dense` and returns its pointer
/// ([`NIL_U32`] when the tier keeps no CAL). With the two functions below,
/// the one place the cells mirror themselves into the optional CAL.
#[inline]
fn cal_append(cal: &mut Option<CalArray>, dense: u32, e: Edge) -> CalPtr {
    match cal {
        Some(cal) => cal.insert(dense, e.src, e.dst, e.weight),
        None => NIL_U32,
    }
}

/// Carries a weight update to the CAL copy behind `ptr`, if there is one.
#[inline]
fn cal_update(cal: &mut Option<CalArray>, ptr: CalPtr, weight: Weight) {
    if let Some(cal) = cal {
        cal.update_weight(ptr, weight);
    }
}

/// Flags the CAL copy of an edge of `dense` behind `ptr` invalid, if there
/// is one.
#[inline]
fn cal_invalidate(cal: &mut Option<CalArray>, dense: u32, ptr: CalPtr) {
    if let Some(cal) = cal {
        cal.invalidate(dense, ptr);
    }
}

/// Page widths of `config`'s classes, narrowest first: the fractions of
/// PAGEWIDTH that still hold two subblocks (tiered layouts only), then
/// PAGEWIDTH itself.
fn class_widths(config: &TinkerConfig) -> Vec<usize> {
    let mut widths = vec![config.pagewidth / 4, config.pagewidth / 2];
    widths.retain(|&w| config.adaptive_enabled() && w >= 2 * config.subblock);
    widths.push(config.pagewidth);
    widths
}

/// What one FIND-mode walk of a source's subblock chain saw.
struct Walk {
    /// `(block, cell offset)` of the edge, if present.
    hit: Option<(BlockId, usize)>,
    /// First `(block, subblock, bucket)` on the path with a vacant cell;
    /// only scouting walks look.
    vacancy: Option<(BlockId, usize, usize)>,
    /// Last `(block, subblock)` visited: where a branch-out hangs its child.
    tail: (BlockId, usize),
    /// Depth of the last subblock visited.
    depth: u32,
}

/// The pages of one width class and the hashing policy over them; every
/// operation takes the top block of the subtree it works on.
#[derive(Debug)]
struct PageClass {
    arena: BlockArena,
    /// Whether a congested subblock branches out (the full-width class) or
    /// the vertex regrows into the next class instead.
    branches: bool,
    /// Cells per workblock (the load unit's retrieval granularity).
    workblock: u64,
    mode: DeleteMode,
}

/// The edgeblock arenas, the main region's index into them and the CAL.
#[derive(Debug)]
pub struct BlockTier {
    /// One class per page width, narrowest first; the last is PAGEWIDTH.
    classes: Vec<PageClass>,
    /// `class << CLASS_SHIFT | top-parent block` per dense source
    /// ([`NIL_U32`] = none).
    tops: Vec<u32>,
    /// One copy of every edge the tier holds; `None` when the layout keeps
    /// no CAL (`TinkerConfig::enable_cal`).
    cal: Option<CalArray>,
}

impl PageClass {
    /// The paper disables RHH under delete-and-compact to avoid the
    /// edge-tracking overhead of undoing swap chains during backfill.
    #[inline]
    fn rhh_enabled(&self) -> bool {
        self.mode == DeleteMode::DeleteOnly
    }

    #[inline]
    fn workblocks_for(&self, cells: u64) -> u64 {
        cells.div_ceil(self.workblock)
    }

    /// FIND mode: walks the subblock chain of `top` for `dst`, counting the
    /// traversal into `stats` (all but `max_depth`, which the callers fold
    /// in from [`Walk::depth`]). A `SCOUT` walk also notes the first
    /// subblock with a vacant cell, so that an insert's miss can anchor the
    /// new edge without re-traversing the chain.
    ///
    /// `h0` is the precomputed depth-0 [`edge_hash`] of `dst` — it seeds
    /// both the depth-0 bucket split and the SWAR tag, so the hot path
    /// mixes the destination exactly once. Only fingerprint-matching
    /// candidate cells are inspected.
    fn walk<const SCOUT: bool>(
        &self,
        top: BlockId,
        dst: VertexId,
        h0: u64,
        stats: &mut ProbeStats,
    ) -> Walk {
        let spb = self.arena.subblocks_per_block();
        let sublen = self.arena.subblock_len();
        let tag = tag_of_hash(h0);
        let mut vacancy = None;
        let mut block = top;
        let mut depth: u32 = 0;
        loop {
            let (sub, bucket) = if depth == 0 {
                split_hash(h0, spb, sublen)
            } else {
                subblock_and_bucket(dst, depth, spb, sublen)
            };
            stats.subblocks_visited += 1;
            let tags = self.arena.subblock_tags(block, sub);
            let scan = find_in_subblock(self.arena.subblock_cells(block, sub), tags, dst, tag);
            stats.tag_group_scans += scan.groups;
            stats.tag_false_positives += scan.false_positives;
            stats.cells_inspected += scan.inspected;
            // The tag lane itself is one fetch; candidate cells add more.
            stats.workblocks_fetched += self.workblocks_for(scan.inspected).max(1);
            let hit = scan.hit.map(|off| (block, sub * sublen + off));
            if SCOUT && hit.is_none() && vacancy.is_none() && has_vacant_tags(tags) {
                vacancy = Some((block, sub, bucket));
            }
            // A page that does not branch has no child to look up (and its
            // child lane stays cold).
            let child = if self.branches { self.arena.child(block, sub) } else { None };
            match (hit, child) {
                (None, Some(c)) => {
                    block = c;
                    depth += 1;
                }
                _ => return Walk { hit, vacancy, tail: (block, sub), depth },
            }
        }
    }

    /// Hangs a fresh child edgeblock off `(block, sub)` (Tree-Based
    /// Hashing's branch-out) and returns it; `depth` is the child's.
    fn branch_out(
        &mut self,
        block: BlockId,
        sub: usize,
        depth: u32,
        stats: &mut ProbeStats,
    ) -> BlockId {
        let child = self.arena.alloc_block();
        self.arena.set_child(block, sub, Some(child));
        stats.branches_created += 1;
        crate::metrics::global().tinker_branch_depth.record(depth as u64);
        crate::trace::instant(crate::trace::SpanId::TinkerBranchOut, depth as u64);
        stats.max_depth = stats.max_depth.max(depth);
        child
    }

    /// Places `f` in a subblock scouted to have a vacancy, starting at
    /// `bucket`; returns the cells the placement touched.
    fn place(&mut self, block: BlockId, sub: usize, bucket: usize, f: Floating, tag: u8) -> u64 {
        let mut touched = 0u64;
        let rhh = self.rhh_enabled();
        let (cells, tags) = self.arena.subblock_cells_and_tags_mut(block, sub);
        let outcome = if rhh {
            rhh_insert(cells, tags, bucket, f, tag, &mut touched)
        } else {
            linear_insert(cells, tags, bucket, f, tag, &mut touched)
        };
        let RhhOutcome::Placed = outcome else {
            unreachable!("scouted subblock must accept the edge")
        };
        self.arena.add_live(block, 1);
        touched
    }

    /// Anchors a floating edge (CAL copy already registered) into the
    /// subtree of `top` — the migration primitive. The edge is known
    /// absent, so the walk may stop at the *first* subblock with a vacancy:
    /// FIND scans whole subblocks per depth, so an early anchor stays on
    /// the edge's lookup path. `false` (nothing written) when a page that
    /// does not branch has no room in the edge's subblock.
    fn anchor(&mut self, top: BlockId, f: Floating, stats: &mut ProbeStats) -> bool {
        let spb = self.arena.subblocks_per_block();
        let sublen = self.arena.subblock_len();
        // One mix of the destination serves the depth-0 split and the tag.
        let h0 = edge_hash(f.dst, 0);
        let (mut sub, mut bucket) = split_hash(h0, spb, sublen);
        let (mut block, mut depth) = (top, 0u32);
        while !has_vacant_tags(self.arena.subblock_tags(block, sub)) {
            if !self.branches {
                return false;
            }
            depth += 1;
            block = match self.arena.child(block, sub) {
                Some(c) => c,
                None => self.branch_out(block, sub, depth, stats),
            };
            (sub, bucket) = subblock_and_bucket(f.dst, depth, spb, sublen);
        }
        stats.max_depth = stats.max_depth.max(depth);
        self.place(block, sub, bucket, f, tag_of_hash(h0));
        true
    }

    /// Delete-and-compact backfill: pull an edge from the deepest block of
    /// the subtree hanging off `(block, sub)` into the freed cell at
    /// `offset`, then recycle any blocks the pull emptied. Every edge in
    /// that subtree hashed through `(block, sub)` on its way down, so the
    /// freed cell is on its FIND path and the move is invisible to lookups.
    fn backfill(&mut self, block: BlockId, sub: usize, offset: usize) {
        let Some(child) = self.arena.child(block, sub) else { return };

        // The deepest block holding at least one live edge.
        let mut best: Option<(u32, BlockId)> = None;
        self.arena.for_each_block(child, |b, depth| {
            if self.arena.live_count(b) > 0 && best.is_none_or(|(bd, _)| depth > bd) {
                best = Some((depth, b));
            }
        });
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

    /// [`TierOps::upsert`] on the subtree of `top`. The FIND and INSERT
    /// modes share one walk: while FIND scans the subblock chain for the
    /// edge, it also scouts the first subblock with a vacant cell, so a
    /// miss can anchor the new edge without re-traversing the chain. RHH
    /// displacement still runs within the target subblock.
    fn upsert(
        &mut self,
        top: BlockId,
        dense: u32,
        e: Edge,
        h0: u64,
        stats: &mut ProbeStats,
        cal: &mut Option<CalArray>,
    ) -> Upsert {
        let spb = self.arena.subblocks_per_block();
        let sublen = self.arena.subblock_len();
        let tag = tag_of_hash(h0);

        // Existing-edge fast path: a repeat insertion of an un-displaced
        // edge sits in its home bucket of the top block's depth-0 subblock.
        // One probe settles it (weight update + CAL refresh) without the
        // full FIND walk; any miss falls through to the general path.
        let (sub, bucket) = split_hash(h0, spb, sublen);
        let cell = self.arena.subblock_cells(top, sub)[bucket];
        if cell.is_occupied() && cell.dst == e.dst {
            stats.subblocks_visited += 1;
            stats.cells_inspected += 1;
            stats.workblocks_fetched += 1;
            self.arena.cell_mut(top, sub * sublen + bucket).weight = e.weight;
            cal_update(cal, cell.cal_ptr, e.weight);
            return Upsert::Updated;
        }

        // FIND mode + vacancy scout.
        let walk = self.walk::<true>(top, e.dst, h0, stats);
        if let Some((block, offset)) = walk.hit {
            let cell = self.arena.cell_mut(block, offset);
            cell.weight = e.weight;
            cal_update(cal, cell.cal_ptr, e.weight);
            return Upsert::Updated;
        }
        stats.max_depth = stats.max_depth.max(walk.depth);
        if walk.vacancy.is_none() && !self.branches {
            return Upsert::Full;
        }

        // INSERT mode: append the CAL copy (O(1)), then anchor the main
        // copy — in the scouted subblock, or in a fresh branch when every
        // subblock on the path is full (Tree-Based Hashing).
        let floating =
            Floating { dst: e.dst, weight: e.weight, cal_ptr: cal_append(cal, dense, e) };
        let (block, sub, bucket) = walk.vacancy.unwrap_or_else(|| {
            let child = self.branch_out(walk.tail.0, walk.tail.1, walk.depth + 1, stats);
            let (sub, bucket) = subblock_and_bucket(e.dst, walk.depth + 1, spb, sublen);
            (child, sub, bucket)
        });
        let touched = self.place(block, sub, bucket, floating, tag);
        stats.cells_inspected += touched;
        stats.workblocks_fetched += self.workblocks_for(touched);
        Upsert::Inserted
    }

    /// [`TierOps::remove`] on the subtree of `top`.
    fn remove(
        &mut self,
        top: BlockId,
        dst: VertexId,
        h0: u64,
        stats: &mut ProbeStats,
    ) -> Option<u32> {
        let walk = self.walk::<false>(top, dst, h0, stats);
        stats.max_depth = stats.max_depth.max(walk.depth);
        let (block, offset) = walk.hit?;

        let tombstone = self.mode == DeleteMode::DeleteOnly;
        let cell = self.arena.cell_mut(block, offset);
        let cal_ptr = cell.cal_ptr;
        *cell = if tombstone {
            EdgeCell { state: CellState::Tombstone, ..EdgeCell::EMPTY }
        } else {
            EdgeCell::EMPTY
        };
        self.arena.set_tag(block, offset, vacant_tag(tombstone));
        self.arena.add_live(block, -1);
        if !tombstone {
            self.backfill(block, offset / self.arena.subblock_len(), offset);
            self.free_upward(block);
        }
        Some(cal_ptr)
    }

    /// The Robin Hood invariants of one block ([`BlockTier::validate_rhh`]).
    fn validate_rhh_block(
        &self,
        b: BlockId,
        depth: u32,
        never_deleted: bool,
    ) -> Result<(), String> {
        let spb = self.arena.subblocks_per_block();
        let sublen = self.arena.subblock_len();
        for sub in 0..spb {
            let cells = self.arena.subblock_cells(b, sub);
            for (pos, cell) in cells.iter().enumerate().filter(|(_, c)| c.is_occupied()) {
                let (esub, ebucket) = subblock_and_bucket(cell.dst, depth, spb, sublen);
                if esub != sub {
                    return Err(format!(
                        "edge to {} stored in subblock {sub} of block {b} at depth {depth}, but \
                         hashes to subblock {esub}",
                        cell.dst
                    ));
                }
                let dist = (pos + sublen - ebucket) % sublen;
                if dist != cell.probe as usize {
                    return Err(format!(
                        "edge to {} at offset {pos} of block {b} stores probe {} but sits {dist} \
                         cells from bucket {ebucket}",
                        cell.dst, cell.probe
                    ));
                }
                if cell.probe > 0 {
                    let prev = &cells[(pos + sublen - 1) % sublen];
                    if prev.state == CellState::Empty {
                        return Err(format!(
                            "edge to {} has probe {} but an empty predecessor in block {b} \
                             subblock {sub}",
                            cell.dst, cell.probe
                        ));
                    }
                    if never_deleted && (prev.probe as usize) < cell.probe as usize - 1 {
                        return Err(format!(
                            "Robin Hood ordering violated in block {b} subblock {sub}: probe {} \
                             follows probe {}",
                            cell.probe, prev.probe
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// One block of [`TierOps::validate`]: tag lane against cell states,
    /// live counter against occupied cells, and no child under a page that
    /// does not branch.
    fn validate_block(&self, b: BlockId) -> Result<(), String> {
        let mut occupied = 0;
        for off in 0..self.arena.pagewidth() {
            let cell = self.arena.cell(b, off);
            let expect = match cell.state {
                CellState::Occupied => dst_tag(cell.dst),
                CellState::Empty => TAG_EMPTY,
                CellState::Tombstone => TAG_TOMBSTONE,
            };
            occupied += u32::from(cell.is_occupied());
            let got = self.arena.tag(b, off);
            if got != expect {
                return Err(format!(
                    "block {b} offset {off}: cell state {:?} (dst {}) expects tag {expect:#04x} \
                     but the lane holds {got:#04x}",
                    cell.state, cell.dst
                ));
            }
        }
        let live = self.arena.live_count(b);
        if live != occupied {
            return Err(format!("block {b}: live count {live} but {occupied} occupied cells"));
        }
        if !self.branches && self.arena.child_slots(b).iter().any(|&c| c != NIL_U32) {
            return Err(format!(
                "block {b} of a {}-cell page branched out",
                self.arena.pagewidth()
            ));
        }
        Ok(())
    }
}

impl BlockTier {
    /// An empty tier with the geometry and delete mode of `config`.
    pub fn new(config: &TinkerConfig) -> Self {
        let class = |width| PageClass {
            arena: BlockArena::new(width, config.subblock),
            branches: width == config.pagewidth,
            workblock: config.workblock as u64,
            mode: config.delete_mode,
        };
        BlockTier {
            classes: class_widths(config).into_iter().map(class).collect(),
            tops: Vec::new(),
            cal: config
                .enable_cal
                .then(|| CalArray::new(config.cal_group_size, config.cal_block_size)),
        }
    }

    /// The tier's CAL, if the layout keeps one.
    #[inline]
    pub fn cal(&self) -> Option<&CalArray> {
        self.cal.as_ref()
    }

    /// Rebuilds the CAL from the live cells, dropping its invalidated
    /// records and re-pointing every cell: sources in dense order, each
    /// subtree in block-walk order. `original_of` maps a dense id to the
    /// source id the records carry. No-op without a CAL.
    pub(crate) fn rebuild_cal(&mut self, original_of: impl Fn(u32) -> VertexId) {
        let Some(old) = &self.cal else { return };
        let mut cal = old.emptied();
        for dense in 0..self.tops.len() as u32 {
            let Some((class, top)) = self.top(dense) else { continue };
            let src = original_of(dense);
            let arena = &mut self.classes[class].arena;
            let mut blocks = Vec::new();
            arena.for_each_block(top, |b, _| blocks.push(b));
            for b in blocks {
                for off in 0..arena.pagewidth() {
                    let cell = arena.cell_mut(b, off);
                    if cell.is_occupied() {
                        cell.cal_ptr = cal.insert(dense, src, cell.dst, cell.weight);
                    }
                }
            }
        }
        self.cal = Some(cal);
    }

    /// Checks that every edge of `dense`, whose original id is `src`,
    /// points at a live CAL copy carrying `(src, dst, weight)`. `Ok`
    /// without a CAL.
    pub fn validate_cal(&self, dense: u32, src: VertexId) -> Result<(), String> {
        let Some(cal) = &self.cal else { return Ok(()) };
        let mut first = Ok(());
        self.for_each_cell(dense, |c| {
            let want = CalRecord { src, dst: c.dst, weight: c.weight, valid: true };
            if first.is_ok() && cal.get(c.cal_ptr) != Some(want) {
                first = Err(format!(
                    "edge ({src}, {}, {}): CAL pointer {} holds {:?}",
                    c.dst,
                    c.weight,
                    c.cal_ptr,
                    cal.get(c.cal_ptr)
                ));
            }
        });
        first
    }

    /// Visits the occupied cells of the subtree of `dense`.
    fn for_each_cell(&self, dense: u32, mut f: impl FnMut(&EdgeCell)) {
        let Some((class, top)) = self.top(dense) else { return };
        let arena = &self.classes[class].arena;
        arena.for_each_block(top, |b, _| {
            arena.block(b).iter().filter(|c| c.is_occupied()).for_each(&mut f);
        });
    }

    /// Takes the edges of `dense` out with their CAL pointers and releases
    /// its subtree; the CAL copies stay live.
    fn take(&mut self, dense: u32) -> Vec<Held> {
        let Some((class, top)) = self.top(dense) else { return Vec::new() };
        let arena = &mut self.classes[class].arena;
        let edges = arena.collect_subtree(top);
        let freed = arena.free_subtree(top);
        crate::metrics::global().tinker_blocks_freed.add(freed as u64);
        self.tops[dense as usize] = NIL_U32;
        edges
    }

    /// `(class, top-parent block)` of `dense`, if it has one.
    #[inline]
    fn top(&self, dense: u32) -> Option<(usize, BlockId)> {
        let packed = *self.tops.get(dense as usize)?;
        (packed != NIL_U32).then_some(((packed >> CLASS_SHIFT) as usize, packed & ID_MASK))
    }

    /// Gives `dense`, which has no subtree, a fresh top block in `class`.
    fn install_top(&mut self, dense: u32, class: usize) -> BlockId {
        let idx = dense as usize;
        if self.tops.len() <= idx {
            self.tops.resize(idx + 1, NIL_U32);
        }
        debug_assert_eq!(self.tops[idx], NIL_U32, "vertex already owns a subtree");
        let top = self.classes[class].arena.alloc_block();
        assert!(top <= ID_MASK, "block id overflows the class-packed index");
        self.tops[idx] = (class as u32) << CLASS_SHIFT | top;
        top
    }

    /// Stores `edges` (CAL copies registered) for `dense` in the narrowest
    /// class from `from` up that takes them at no more than ¾ load with no
    /// depth-0 subblock over capacity; the full-width class takes anything
    /// (it branches out).
    fn adopt_from(&mut self, dense: u32, edges: &[Held], from: usize, stats: &mut ProbeStats) {
        let last = self.classes.len() - 1;
        let roomy = |c: &PageClass| edges.len() * 4 <= c.arena.pagewidth() * 3;
        let mut class = (from..last).find(|&c| roomy(&self.classes[c])).unwrap_or(last);
        loop {
            let top = self.install_top(dense, class);
            let pages = &mut self.classes[class];
            let fits = edges.iter().all(|&(dst, weight, cal_ptr)| {
                pages.anchor(top, Floating { dst, weight, cal_ptr }, stats)
            });
            if fits {
                return;
            }
            // Rare (one subblock crowded): give the page back, go wider.
            self.take(dense);
            class += 1;
        }
    }

    /// Moves the subtree of `dense`, whose page just reported
    /// [`Upsert::Full`], into the next wider class. Each CAL pointer moves
    /// with its cell; the CAL is untouched.
    pub fn regrow(&mut self, dense: u32, stats: &mut ProbeStats) {
        let (class, _) = self.top(dense).expect("a full page belongs to a vertex");
        let edges = self.take(dense);
        self.adopt_from(dense, &edges, class + 1, stats);
    }

    /// Window stage 3 of `apply_batch`: loads the tag group and home cell
    /// the depth-0 probe for `h0` starts at, and the top block's live
    /// count. Sources that own no top block cost nothing.
    #[inline]
    pub fn warm_subblock(&self, dense: u32, h0: u64) -> u64 {
        let Some((class, top)) = self.top(dense) else { return 0 };
        let arena = &self.classes[class].arena;
        let (sub, bucket) = split_hash(h0, arena.subblocks_per_block(), arena.subblock_len());
        u64::from(arena.subblock_tags(top, sub)[0])
            ^ u64::from(arena.subblock_cells(top, sub)[bucket].dst)
            ^ u64::from(arena.live_count(top))
    }

    /// Visits every block of every subtree, in dense-id order, as
    /// `(class, block, depth)`.
    fn each_block(&self, mut f: impl FnMut(&PageClass, BlockId, u32)) {
        for dense in 0..self.tops.len() as u32 {
            let Some((class, top)) = self.top(dense) else { continue };
            let pages = &self.classes[class];
            pages.arena.for_each_block(top, |b, depth| f(pages, b, depth));
        }
    }

    /// Runs `check` over [`each_block`](Self::each_block); its first error.
    fn try_each_block(
        &self,
        mut check: impl FnMut(&PageClass, BlockId, u32) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut first = Ok(());
        self.each_block(|pages, b, depth| {
            if first.is_ok() {
                first = check(pages, b, depth);
            }
        });
        first
    }

    /// Blocks serving as top-parents: the main region's size (O(sources);
    /// diagnostic only).
    pub fn main_blocks(&self) -> usize {
        self.tops.iter().filter(|&&t| t != NIL_U32).count()
    }

    /// Blocks in use and on the free list, per class (unused slots zero).
    pub fn class_counts(&self) -> [ClassBlocks; MAX_CLASSES] {
        let mut counts = [ClassBlocks::default(); MAX_CLASSES];
        for (count, pages) in counts.iter_mut().zip(&self.classes) {
            let free = pages.arena.num_free_blocks();
            *count = ClassBlocks {
                width: pages.arena.pagewidth(),
                blocks: pages.arena.num_blocks() - free,
                free,
            };
        }
        counts
    }

    /// Number of tombstoned cells (O(cells); diagnostic only).
    pub fn count_tombstones(&self) -> usize {
        self.classes.iter().map(|c| c.arena.count_tombstones()).sum()
    }

    /// Heap bytes of the arenas alone (the `memory_blocks_bytes` gauge;
    /// [`TierOps::memory_bytes`] adds the main region's index).
    pub fn arena_bytes(&self) -> usize {
        self.classes.iter().map(|c| c.arena.memory_bytes()).sum()
    }

    /// Edges the tier holds, over every page class.
    pub fn live_edges(&self) -> u64 {
        self.classes.iter().map(|c| c.arena.total_live()).sum()
    }

    /// Edges of a store holding `live_edges` that sit outside the
    /// edgeblocks: inline and hub adjacency is flat (tree depth 0) and
    /// position-exact (probe distance 0), which is where the histograms
    /// count it.
    fn flat_edges(&self, live_edges: u64) -> u64 {
        live_edges - self.live_edges()
    }

    /// Histogram of the store's `live_edges` by tree depth: `hist[d]` =
    /// edges stored in blocks `d` generations below a top-parent.
    pub fn depth_histogram(&self, live_edges: u64) -> Vec<u64> {
        let mut hist: Vec<u64> = Vec::new();
        let flat = self.flat_edges(live_edges);
        if flat > 0 {
            hist.push(flat);
        }
        self.each_block(|pages, b, depth| {
            let depth = depth as usize;
            if hist.len() <= depth {
                hist.resize(depth + 1, 0);
            }
            hist[depth] += u64::from(pages.arena.live_count(b));
        });
        hist
    }

    /// Histogram of stored Robin Hood probe distances over the store's
    /// `live_edges`.
    pub fn probe_histogram(&self, live_edges: u64) -> Vec<u64> {
        let mut hist = vec![0u64; self.classes[0].arena.subblock_len()];
        hist[0] += self.flat_edges(live_edges);
        self.each_block(|pages, b, _| {
            for cell in pages.arena.block(b).iter().filter(|c| c.is_occupied()) {
                hist[cell.probe as usize] += 1;
            }
        });
        hist
    }

    /// Checks the Robin Hood invariants over every live cell (`Ok(())`
    /// immediately in delete-and-compact mode, where RHH is disabled and
    /// probe distances carry no meaning):
    ///
    /// 1. every occupied cell sits in the subblock its destination hashes to
    ///    at that depth, and its stored probe equals the circular distance
    ///    from its hash bucket;
    /// 2. the probe-path predecessor of a probe-`d > 0` cell is never truly
    ///    empty (delete-only mode leaves tombstones, so a hole before a
    ///    displaced edge would break the FIND shortcut);
    /// 3. while the structure has never deleted an edge (`never_deleted`),
    ///    the full Robin Hood ordering holds: the predecessor's probe is at
    ///    least `d - 1`. Once a delete has happened anywhere, a later
    ///    insert may legally reuse a tombstone slot ahead of a displaced
    ///    cell, so strict ordering is no longer implied — even in subblocks
    ///    that are tombstone-free *now*.
    pub fn validate_rhh(&self, never_deleted: bool) -> Result<(), String> {
        if !self.classes[0].rhh_enabled() {
            return Ok(());
        }
        self.try_each_block(|pages, b, depth| pages.validate_rhh_block(b, depth, never_deleted))
    }
}

impl TierOps for BlockTier {
    fn find(&self, dense: u32, dst: VertexId) -> Option<Weight> {
        let (class, top) = self.top(dense)?;
        let pages = &self.classes[class];
        let walk = pages.walk::<false>(top, dst, edge_hash(dst, 0), &mut ProbeStats::default());
        walk.hit.map(|(b, off)| pages.arena.cell(b, off).weight)
    }

    /// [`Upsert::Full`] when the vertex's page is narrower than PAGEWIDTH
    /// and the edge's subblock has no vacancy: nothing was written, the CAL
    /// included, and the caller [`regrow`](BlockTier::regrow)s and retries.
    /// A vertex with no subtree yet starts in the narrowest class.
    fn upsert(&mut self, dense: u32, e: Edge, h0: u64, stats: &mut ProbeStats) -> Upsert {
        let (class, top) = self.top(dense).unwrap_or_else(|| (0, self.install_top(dense, 0)));
        self.classes[class].upsert(top, dense, e, h0, stats, &mut self.cal)
    }

    fn remove(&mut self, dense: u32, dst: VertexId, h0: u64, stats: &mut ProbeStats) -> bool {
        let Some((class, top)) = self.top(dense) else { return false };
        let Some(ptr) = self.classes[class].remove(top, dst, h0, stats) else { return false };
        cal_invalidate(&mut self.cal, dense, ptr);
        true
    }

    fn for_each(&self, dense: u32, mut f: impl FnMut(VertexId, Weight)) {
        self.for_each_cell(dense, |c| f(c.dst, c.weight));
    }

    fn len(&self, dense: u32) -> usize {
        let mut live = 0;
        if let Some((class, top)) = self.top(dense) {
            let arena = &self.classes[class].arena;
            arena.for_each_block(top, |b, _| live += arena.live_count(b) as usize);
        }
        live
    }

    fn holds(&self, dense: u32) -> bool {
        self.top(dense).is_some()
    }

    /// Invalidates the CAL copy of every edge it hands out.
    fn drain(&mut self, dense: u32) -> Vec<TierEdge> {
        let held = self.take(dense);
        let cal = &mut self.cal;
        held.into_iter()
            .map(|(dst, weight, ptr)| {
                cal_invalidate(cal, dense, ptr);
                (dst, weight)
            })
            .collect()
    }

    /// Registers one CAL copy per edge, then picks the narrowest class that
    /// holds `edges` at ¾ load or less; a later move out and back in
    /// re-picks it, so a class only ever grows while the vertex stays in
    /// the tier.
    fn adopt(&mut self, dense: u32, src: VertexId, edges: Vec<TierEdge>, stats: &mut ProbeStats) {
        let cal = &mut self.cal;
        let held: Vec<Held> = edges
            .into_iter()
            .map(|(dst, weight)| (dst, weight, cal_append(cal, dense, Edge::new(src, dst, weight))))
            .collect();
        self.adopt_from(dense, &held, 0, stats);
    }

    #[inline]
    fn warm(&self, dense: u32) -> u32 {
        self.tops.get(dense as usize).copied().unwrap_or(NIL_U32)
    }

    /// The arenas, the main region's index and the CAL.
    fn memory_bytes(&self) -> usize {
        let cal = self.cal.as_ref().map_or(0, CalArray::memory_bytes);
        self.arena_bytes() + self.tops.capacity() * 4 + cal
    }

    /// Every cell's tag byte matches its state — the destination
    /// fingerprint when occupied, [`TAG_EMPTY`] when empty,
    /// [`TAG_TOMBSTONE`] when tombstoned — every block's live counter
    /// equals its occupied cells, and only full-width pages have children.
    fn validate(&self) -> Result<(), String> {
        self.try_each_block(|pages, b, _| pages.validate_block(b))
    }
}
