//! The EdgeblockArray: a flat arena of fixed-width edgeblocks.
//!
//! An edgeblock is PAGEWIDTH edge-cells; it is divided into *subblocks*
//! (the branching granularity of Tree-Based Hashing) which are divided into
//! *workblocks* (the retrieval granularity of the load unit). The paper's
//! Fig. 4 hierarchy maps onto this module as:
//!
//! ```text
//! EdgeblockArray  = BlockArena            (cells: SegVec<EdgeCell>)
//! edgeblock  i    = cells[i*PW .. (i+1)*PW]
//! subblock (i,s)  = cells[i*PW + s*SB .. i*PW + (s+1)*SB]
//! workblock       = SB/WB-sized chunks the inspection loop walks
//! ```
//!
//! Both the paper's *main region* (top-parent edgeblocks, one per hashed
//! source vertex) and *overflow region* (descendant edgeblocks created by
//! branch-out) are blocks in the same arena; the region distinction lives in
//! who points at a block (the vertex table vs. a parent subblock's child
//! pointer). A free list recycles blocks emptied by delete-and-compact.
//!
//! Every lane is a [`SegVec`] whose segments hold whole pages, so the arena
//! grows a segment at a time: no page ever moves and at most one segment
//! per lane is allocated ahead of use.

use crate::segvec::{SegVec, SEGMENT_LEN};
use crate::swar::TAG_EMPTY;
use gtinker_types::{VertexId, Weight, NIL_U32, NIL_VERTEX};

/// Occupancy state of an edge-cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CellState {
    /// Never held an edge (or recycled by compaction).
    Empty = 0,
    /// Holds a live edge.
    Occupied = 1,
    /// Held an edge that was deleted by the delete-only mechanism; still
    /// terminates nothing (scans treat it as vacant for insertion but keep
    /// scanning for finds).
    Tombstone = 2,
}

/// The most primitive unit of the EdgeblockArray: one potential edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCell {
    /// Destination vertex, or [`NIL_VERTEX`] if the cell is not occupied.
    pub dst: VertexId,
    /// Edge weight (meaningful only when occupied).
    pub weight: Weight,
    /// Packed pointer to this edge's copy in the CAL EdgeblockArray, or
    /// [`NIL_U32`] when CAL maintenance is disabled.
    pub cal_ptr: u32,
    /// Robin Hood probe distance: cells between this edge's initial bucket
    /// and its current position, within its subblock.
    pub probe: u8,
    /// Occupancy state.
    pub state: CellState,
}

impl EdgeCell {
    /// An empty cell.
    pub const EMPTY: EdgeCell = EdgeCell {
        dst: NIL_VERTEX,
        weight: 0,
        cal_ptr: NIL_U32,
        probe: 0,
        state: CellState::Empty,
    };

    /// Whether the cell currently holds a live edge.
    #[inline]
    pub fn is_occupied(&self) -> bool {
        self.state == CellState::Occupied
    }

    /// Whether an insertion may claim this cell (empty or tombstoned).
    #[inline]
    pub fn is_vacant(&self) -> bool {
        self.state != CellState::Occupied
    }
}

/// Handle of an edgeblock within a [`BlockArena`].
pub type BlockId = u32;

/// A flat arena of edgeblocks with per-subblock child pointers.
///
/// The arena only manages storage and topology (allocation, recycling,
/// child links, occupancy counts); the hashing policy that decides *where*
/// edges go lives in [`crate::tier::BlockTier`].
#[derive(Debug, Clone)]
pub struct BlockArena {
    cells: SegVec<EdgeCell>,
    /// SWAR tag lane: one control byte per cell (same indexing as `cells`)
    /// holding the 7-bit destination fingerprint when occupied or a vacancy
    /// sentinel ([`TAG_EMPTY`] / [`TAG_TOMBSTONE`]) otherwise, so probes can
    /// scan 8 slots per `u64` load without touching 16-byte cells.
    tags: SegVec<u8>,
    /// Child block per (block, subblock): `children[b * spb + s]`, NIL_U32
    /// if the subblock has not branched out.
    children: SegVec<u32>,
    /// Live (occupied) cells per block, used by compaction to decide when a
    /// block can be recycled.
    live: SegVec<u32>,
    /// Parent block of each block (`NIL_U32` for top-parents), paired with
    /// the parent subblock the child hangs off. Lets compaction detach and
    /// recycle emptied blocks bottom-up without recording DFS paths.
    parent: SegVec<u32>,
    parent_sub: SegVec<u8>,
    /// Recycled block ids available for reuse.
    free: Vec<BlockId>,
    pagewidth: usize,
    subblock: usize,
    subblocks_per_block: usize,
}

impl BlockArena {
    /// Creates an empty arena for the given geometry.
    pub fn new(pagewidth: usize, subblock: usize) -> Self {
        assert!(subblock.is_power_of_two() && pagewidth.is_power_of_two() && subblock <= pagewidth);
        BlockArena {
            cells: SegVec::new(pagewidth.max(SEGMENT_LEN)),
            tags: SegVec::new(pagewidth.max(SEGMENT_LEN)),
            children: SegVec::new((pagewidth / subblock).max(SEGMENT_LEN)),
            live: SegVec::new(SEGMENT_LEN),
            parent: SegVec::new(SEGMENT_LEN),
            parent_sub: SegVec::new(SEGMENT_LEN),
            free: Vec::new(),
            pagewidth,
            subblock,
            subblocks_per_block: pagewidth / subblock,
        }
    }

    /// PAGEWIDTH: cells per edgeblock.
    #[inline]
    pub fn pagewidth(&self) -> usize {
        self.pagewidth
    }

    /// Cells per subblock.
    #[inline]
    pub fn subblock_len(&self) -> usize {
        self.subblock
    }

    /// Subblocks per edgeblock.
    #[inline]
    pub fn subblocks_per_block(&self) -> usize {
        self.subblocks_per_block
    }

    /// Total blocks ever allocated (including currently free ones).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.live.len()
    }

    /// Number of blocks sitting on the free list.
    #[inline]
    pub fn num_free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Allocates a fresh (or recycled) zeroed block and returns its id.
    pub fn alloc_block(&mut self) -> BlockId {
        if let Some(id) = self.free.pop() {
            let base = id as usize * self.pagewidth;
            self.cells.slice_mut(base, self.pagewidth).fill(EdgeCell::EMPTY);
            self.tags.slice_mut(base, self.pagewidth).fill(TAG_EMPTY);
            let cbase = id as usize * self.subblocks_per_block;
            self.children.slice_mut(cbase, self.subblocks_per_block).fill(NIL_U32);
            self.live[id as usize] = 0;
            self.parent[id as usize] = NIL_U32;
            self.parent_sub[id as usize] = 0;
            return id;
        }
        let id = self.num_blocks() as BlockId;
        self.cells.extend_with(self.pagewidth, EdgeCell::EMPTY);
        self.tags.extend_with(self.pagewidth, TAG_EMPTY);
        self.children.extend_with(self.subblocks_per_block, NIL_U32);
        self.live.push(0);
        self.parent.push(NIL_U32);
        self.parent_sub.push(0);
        id
    }

    /// Returns a block to the free list. The caller must have emptied it and
    /// detached it from its parent.
    pub fn free_block(&mut self, id: BlockId) {
        debug_assert_eq!(self.live[id as usize], 0, "freeing a block with live edges");
        debug_assert!(
            self.child_slots(id).iter().all(|&c| c == NIL_U32),
            "freeing a block that still has children"
        );
        self.free.push(id);
    }

    /// The cells of one block.
    #[inline]
    pub fn block(&self, id: BlockId) -> &[EdgeCell] {
        self.cells.slice(id as usize * self.pagewidth, self.pagewidth)
    }

    /// The cells of one subblock of a block.
    #[inline]
    pub fn subblock_cells(&self, id: BlockId, sub: usize) -> &[EdgeCell] {
        self.cells.slice(id as usize * self.pagewidth + sub * self.subblock, self.subblock)
    }

    /// The tag lane of one subblock of a block (parallel to
    /// [`Self::subblock_cells`]).
    #[inline]
    pub fn subblock_tags(&self, id: BlockId, sub: usize) -> &[u8] {
        self.tags.slice(id as usize * self.pagewidth + sub * self.subblock, self.subblock)
    }

    /// The cells *and* tag lane of one subblock, mutably — insertion paths
    /// update both in lockstep.
    #[inline]
    pub fn subblock_cells_and_tags_mut(
        &mut self,
        id: BlockId,
        sub: usize,
    ) -> (&mut [EdgeCell], &mut [u8]) {
        let base = id as usize * self.pagewidth + sub * self.subblock;
        (self.cells.slice_mut(base, self.subblock), self.tags.slice_mut(base, self.subblock))
    }

    /// One tag byte, by (block, offset within block).
    #[inline]
    pub fn tag(&self, id: BlockId, offset: usize) -> u8 {
        self.tags[id as usize * self.pagewidth + offset]
    }

    /// Writes one tag byte. Callers keep it consistent with the cell at the
    /// same offset: fingerprint when occupied, sentinel when vacant.
    #[inline]
    pub fn set_tag(&mut self, id: BlockId, offset: usize, tag: u8) {
        self.tags[id as usize * self.pagewidth + offset] = tag;
    }

    /// One cell, by (block, offset within block).
    #[inline]
    pub fn cell(&self, id: BlockId, offset: usize) -> &EdgeCell {
        &self.cells[id as usize * self.pagewidth + offset]
    }

    /// Mutable access to one cell.
    #[inline]
    pub fn cell_mut(&mut self, id: BlockId, offset: usize) -> &mut EdgeCell {
        &mut self.cells[id as usize * self.pagewidth + offset]
    }

    /// Child block of `(id, sub)`, if any.
    #[inline]
    pub fn child(&self, id: BlockId, sub: usize) -> Option<BlockId> {
        let c = self.children[id as usize * self.subblocks_per_block + sub];
        (c != NIL_U32).then_some(c)
    }

    /// Sets the child pointer of `(id, sub)`, maintaining the child's
    /// back-link.
    #[inline]
    pub fn set_child(&mut self, id: BlockId, sub: usize, child: Option<BlockId>) {
        let slot = id as usize * self.subblocks_per_block + sub;
        let prev = self.children[slot];
        if prev != NIL_U32 {
            self.parent[prev as usize] = NIL_U32;
            self.parent_sub[prev as usize] = 0;
        }
        self.children[slot] = child.unwrap_or(NIL_U32);
        if let Some(c) = child {
            self.parent[c as usize] = id;
            self.parent_sub[c as usize] = sub as u8;
        }
    }

    /// Parent of a block as `(parent_block, parent_subblock)`, or `None` for
    /// top-parent (main region) blocks.
    #[inline]
    pub fn parent(&self, id: BlockId) -> Option<(BlockId, usize)> {
        let p = self.parent[id as usize];
        (p != NIL_U32).then(|| (p, self.parent_sub[id as usize] as usize))
    }

    /// All child slots of a block.
    #[inline]
    pub fn child_slots(&self, id: BlockId) -> &[u32] {
        self.children.slice(id as usize * self.subblocks_per_block, self.subblocks_per_block)
    }

    /// Live-edge count of a block.
    #[inline]
    pub fn live_count(&self, id: BlockId) -> u32 {
        self.live[id as usize]
    }

    /// Adjusts the live-edge count of a block.
    #[inline]
    pub fn add_live(&mut self, id: BlockId, delta: i32) {
        let l = &mut self.live[id as usize];
        *l = l.checked_add_signed(delta).expect("live count underflow");
    }

    /// Visits every block of the subtree rooted at `top` as
    /// `(block, depth below top)`: the one depth-first walk every subtree
    /// scan shares, so they all see blocks in the same order (a block, then
    /// its children from the last subblock to the first).
    pub fn for_each_block(&self, top: BlockId, mut f: impl FnMut(BlockId, u32)) {
        // The stack allocates on the first child pushed: walking a
        // childless top (most vertices) costs no allocation.
        let mut stack = Vec::new();
        let mut next = Some((top, 0u32));
        while let Some((b, depth)) = next {
            f(b, depth);
            for &child in self.child_slots(b) {
                if child != NIL_U32 {
                    stack.push((child, depth + 1));
                }
            }
            next = stack.pop();
        }
    }

    /// Collects every live edge in the subtree rooted at `top` (the block
    /// itself plus all branch-out descendants) as `(dst, weight, cal_ptr)`.
    /// Used by tier promotion/demotion to migrate a vertex's adjacency.
    pub fn collect_subtree(&self, top: BlockId) -> Vec<(VertexId, Weight, u32)> {
        let mut edges = Vec::new();
        self.for_each_block(top, |b, _| {
            edges.extend(
                self.block(b)
                    .iter()
                    .filter(|c| c.is_occupied())
                    .map(|c| (c.dst, c.weight, c.cal_ptr)),
            );
        });
        edges
    }

    /// Detaches and frees the whole subtree rooted at `top`, returning the
    /// number of blocks recycled. Live counts are zeroed; the caller owns
    /// migrating the edges out first (see [`Self::collect_subtree`]).
    pub fn free_subtree(&mut self, top: BlockId) -> usize {
        let mut freed = 0;
        let mut stack = Vec::new();
        let mut next = Some(top);
        while let Some(b) = next {
            for s in 0..self.subblocks_per_block {
                if let Some(child) = self.child(b, s) {
                    stack.push(child);
                    self.set_child(b, s, None);
                }
            }
            self.live[b as usize] = 0;
            self.free_block(b);
            freed += 1;
            next = stack.pop();
        }
        freed
    }

    /// Total occupied cells across the arena (O(blocks), via counters).
    pub fn total_live(&self) -> u64 {
        self.live.iter().map(|&l| l as u64).sum()
    }

    /// Number of tombstoned cells (O(cells); diagnostic only).
    pub fn count_tombstones(&self) -> usize {
        self.cells.iter().filter(|c| c.state == CellState::Tombstone).count()
    }

    /// Heap footprint of the arena in bytes (cells + topology), as
    /// allocated.
    pub fn memory_bytes(&self) -> usize {
        self.cells.allocated_bytes()
            + self.tags.allocated_bytes()
            + self.children.allocated_bytes()
            + self.live.allocated_bytes()
            + self.parent.allocated_bytes()
            + self.parent_sub.allocated_bytes()
            + self.free.capacity() * std::mem::size_of::<BlockId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swar::TAG_TOMBSTONE;

    fn arena() -> BlockArena {
        BlockArena::new(64, 8)
    }

    #[test]
    fn geometry() {
        let a = arena();
        assert_eq!(a.pagewidth(), 64);
        assert_eq!(a.subblock_len(), 8);
        assert_eq!(a.subblocks_per_block(), 8);
        assert_eq!(a.num_blocks(), 0);
    }

    #[test]
    fn alloc_gives_zeroed_blocks() {
        let mut a = arena();
        let b0 = a.alloc_block();
        let b1 = a.alloc_block();
        assert_eq!((b0, b1), (0, 1));
        assert_eq!(a.num_blocks(), 2);
        assert!(a.block(b0).iter().all(|c| c.state == CellState::Empty));
        assert!(a.child_slots(b0).iter().all(|&c| c == NIL_U32));
        assert_eq!(a.live_count(b0), 0);
    }

    #[test]
    fn subblock_slicing_is_disjoint_and_complete() {
        let mut a = arena();
        let b = a.alloc_block();
        for s in 0..a.subblocks_per_block() {
            let (cells, _) = a.subblock_cells_and_tags_mut(b, s);
            for c in cells.iter_mut() {
                c.dst = s as u32;
                c.state = CellState::Occupied;
            }
        }
        for s in 0..8 {
            assert!(a.subblock_cells(b, s).iter().all(|c| c.dst == s as u32));
        }
        // Whole block covered.
        assert!(a.block(b).iter().all(|c| c.is_occupied()));
    }

    #[test]
    fn child_pointers_roundtrip() {
        let mut a = arena();
        let b = a.alloc_block();
        let c = a.alloc_block();
        assert_eq!(a.child(b, 3), None);
        a.set_child(b, 3, Some(c));
        assert_eq!(a.child(b, 3), Some(c));
        a.set_child(b, 3, None);
        assert_eq!(a.child(b, 3), None);
    }

    #[test]
    fn free_list_recycles_and_rezeroes() {
        let mut a = arena();
        let b = a.alloc_block();
        a.cell_mut(b, 5).dst = 99;
        a.cell_mut(b, 5).state = CellState::Occupied;
        a.add_live(b, 1);
        // Empty it back out before freeing.
        *a.cell_mut(b, 5) = EdgeCell::EMPTY;
        a.add_live(b, -1);
        a.free_block(b);
        assert_eq!(a.num_free_blocks(), 1);
        let b2 = a.alloc_block();
        assert_eq!(b2, b, "free list should hand back the recycled id");
        assert!(a.block(b2).iter().all(|c| c.state == CellState::Empty));
        assert_eq!(a.num_free_blocks(), 0);
    }

    #[test]
    fn live_counters_track() {
        let mut a = arena();
        let b = a.alloc_block();
        a.add_live(b, 3);
        a.add_live(b, -1);
        assert_eq!(a.live_count(b), 2);
        assert_eq!(a.total_live(), 2);
    }

    #[test]
    #[should_panic(expected = "live count underflow")]
    fn live_counter_underflow_panics() {
        let mut a = arena();
        let b = a.alloc_block();
        a.add_live(b, -1);
    }

    #[test]
    fn subtree_collect_and_free() {
        let mut a = arena();
        let top = a.alloc_block();
        let mid = a.alloc_block();
        let leaf = a.alloc_block();
        a.set_child(top, 1, Some(mid));
        a.set_child(mid, 2, Some(leaf));
        for (b, off, dst) in [(top, 0, 10), (mid, 3, 20), (leaf, 7, 30)] {
            let c = a.cell_mut(b, off);
            c.dst = dst;
            c.weight = dst * 2;
            c.cal_ptr = dst + 1;
            c.state = CellState::Occupied;
            a.add_live(b, 1);
        }
        let mut edges = a.collect_subtree(top);
        edges.sort_unstable();
        assert_eq!(edges, vec![(10, 20, 11), (20, 40, 21), (30, 60, 31)]);

        assert_eq!(a.free_subtree(top), 3);
        assert_eq!(a.num_free_blocks(), 3);
        assert_eq!(a.total_live(), 0);
        // Recycled blocks come back zeroed.
        let b = a.alloc_block();
        assert!(a.block(b).iter().all(|c| c.state == CellState::Empty));
    }

    #[test]
    fn cell_state_helpers() {
        let mut c = EdgeCell::EMPTY;
        assert!(c.is_vacant());
        assert!(!c.is_occupied());
        c.state = CellState::Occupied;
        assert!(c.is_occupied());
        c.state = CellState::Tombstone;
        assert!(c.is_vacant());
    }

    #[test]
    fn memory_accounting_positive_after_alloc() {
        let mut a = arena();
        a.alloc_block();
        assert!(a.memory_bytes() >= 64 * (std::mem::size_of::<EdgeCell>() + 1));
    }

    #[test]
    fn tag_lane_starts_empty_and_tracks_writes() {
        let mut a = arena();
        let b = a.alloc_block();
        assert!((0..64).all(|off| a.tag(b, off) == TAG_EMPTY));
        a.set_tag(b, 5, 0x2A);
        a.set_tag(b, 9, TAG_TOMBSTONE);
        assert_eq!(a.tag(b, 5), 0x2A);
        assert_eq!(a.subblock_tags(b, 0)[5], 0x2A);
        assert_eq!(a.subblock_tags(b, 1)[1], TAG_TOMBSTONE);
        let (cells, tags) = a.subblock_cells_and_tags_mut(b, 0);
        assert_eq!(cells.len(), tags.len());
        tags[3] = 0x11;
        assert_eq!(a.tag(b, 3), 0x11);
    }

    #[test]
    fn recycled_blocks_get_fresh_tag_lanes() {
        let mut a = arena();
        let b = a.alloc_block();
        a.set_tag(b, 7, 0x33);
        a.free_block(b);
        let b2 = a.alloc_block();
        assert_eq!(b2, b);
        assert!((0..64).all(|off| a.tag(b2, off) == TAG_EMPTY));
    }
}
