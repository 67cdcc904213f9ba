//! The Coarse Adjacency List (CAL) EdgeblockArray.
//!
//! GraphTinker's second level of compaction (§III.B): a separate,
//! append-only copy of the live edges, organized like STINGER's adjacency
//! list *except* that several source vertices share an entry — source
//! vertices are partitioned into groups of `group_size` consecutive (dense)
//! ids, and each group owns a chain of fixed-size CAL blocks. Because
//! edges from different vertices of a group pack into the same blocks, the
//! representation stays dense even when individual degrees are small, and
//! full-processing analytics can stream it sequentially.
//!
//! Every edge in the main EdgeblockArray carries a [`CalPtr`] to its copy
//! here, so insert/update/delete reach the copy in O(1) — "this process of
//! updating the CAL EdgeblockArray does not involve traversing edges". The
//! CAL belongs to the edgeblock tier ([`crate::tier::BlockTier`]): in a
//! tiered layout the inline entries and hub segments are dense runs
//! already and have no copy here (DESIGN.md §5d).
//! Deletion flags the copy invalid and threads its slot onto the group's
//! free list, which the group's next insert pops before it appends — a
//! deviation from the paper, whose CAL never reuses a slot and so grows
//! without bound under churn (DESIGN.md §5d). A reused slot sits in the
//! same group's chain, so a source's copies still stream with its group.
//! [`GraphTinker::rebuild_cal`](crate::GraphTinker) re-compacts a CAL
//! that deletes have left sparse.

use gtinker_types::{VertexId, Weight, NIL_U32};

use crate::segvec::{SegVec, SEGMENT_LEN};

/// Packed pointer to a CAL record: block index in the high bits, slot within
/// the block in the low bits — which is also the record's index in the
/// record table, whose blocks sit a power-of-two stride apart.
pub type CalPtr = u32;

/// One edge copy in the CAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalRecord {
    /// Original source vertex id (kept per-record because edges of several
    /// vertices share a block).
    pub src: VertexId,
    /// Destination vertex id; in an invalidated record, the next slot on
    /// its group's free list ([`NIL_U32`] ends the list).
    pub dst: VertexId,
    /// Edge weight.
    pub weight: Weight,
    /// Whether this copy is live; deletion flips it to `false`.
    pub valid: bool,
}

/// A never-written slot, and the shape of a freed one (whose `dst` links
/// the free list).
const DEAD: CalRecord = CalRecord { src: 0, dst: NIL_U32, weight: 0, valid: false };

/// The CAL EdgeblockArray: per-group chains of fixed-size record blocks.
#[derive(Debug)]
pub struct CalArray {
    /// Record table, indexed by [`CalPtr`]: block `b` occupies
    /// `[b << slot_bits, (b << slot_bits) + block_size)`, whole blocks per
    /// segment.
    records: SegVec<CalRecord>,
    /// Next block in a group's chain, per block.
    next_block: Vec<u32>,
    /// Occupied slots per block (records written, valid or not).
    fill: Vec<u32>,
    /// First block of each group's chain (the paper's Logical Vertex Array,
    /// at group granularity).
    group_head: Vec<u32>,
    /// Last block of each group's chain, where appends go.
    group_tail: Vec<u32>,
    /// Most recently freed slot of each group: the head of an intrusive
    /// list through the dead records' `dst` fields.
    group_free: Vec<u32>,
    block_size: usize,
    group_size: usize,
    slot_bits: u32,
    live: u64,
}

impl CalArray {
    /// Creates an empty CAL with the given group size (source vertices per
    /// group) and block size (records per block).
    pub fn new(group_size: usize, block_size: usize) -> Self {
        assert!(group_size > 0 && block_size > 0);
        let slot_bits = usize::BITS - (block_size - 1).leading_zeros().min(usize::BITS - 1);
        let slot_bits = slot_bits.max(1);
        CalArray {
            records: SegVec::new((1usize << slot_bits).max(SEGMENT_LEN)),
            next_block: Vec::new(),
            fill: Vec::new(),
            group_head: Vec::new(),
            group_tail: Vec::new(),
            group_free: Vec::new(),
            block_size,
            group_size,
            slot_bits,
            live: 0,
        }
    }

    /// An empty CAL with this one's group and block sizes (what a rebuild
    /// refills).
    pub(crate) fn emptied(&self) -> Self {
        CalArray::new(self.group_size, self.block_size)
    }

    /// Number of live (valid) edge copies.
    #[inline]
    pub fn num_live(&self) -> u64 {
        self.live
    }

    /// Number of allocated CAL blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.fill.len()
    }

    /// Number of written slots holding no live copy: freed and not yet
    /// reused.
    pub fn num_invalid(&self) -> u64 {
        let written: u64 = self.fill.iter().map(|&f| f as u64).sum();
        written - self.live
    }

    /// The group a dense source id belongs to.
    #[inline]
    fn group_of(&self, dense_src: u32) -> usize {
        dense_src as usize / self.group_size
    }

    fn alloc_block(&mut self) -> u32 {
        let id = self.fill.len() as u32;
        self.records.extend_with(1 << self.slot_bits, DEAD);
        self.next_block.push(NIL_U32);
        self.fill.push(0);
        id
    }

    /// Stores an edge copy for `dense_src` and returns its CAL pointer: in
    /// the group's most recently freed slot if it has one, else appended.
    ///
    /// The append is the "look up the last assigned edgeblock of the group
    /// and the last unoccupied slot" path of the paper — O(1) either way, no
    /// edge traversal.
    pub fn insert(
        &mut self,
        dense_src: u32,
        src: VertexId,
        dst: VertexId,
        weight: Weight,
    ) -> CalPtr {
        let group = self.group_of(dense_src);
        if group >= self.group_head.len() {
            self.group_head.resize(group + 1, NIL_U32);
            self.group_tail.resize(group + 1, NIL_U32);
            self.group_free.resize(group + 1, NIL_U32);
        }
        let record = CalRecord { src, dst, weight, valid: true };
        self.live += 1;
        let free = self.group_free[group];
        if free != NIL_U32 {
            let slot = &mut self.records[free as usize];
            self.group_free[group] = slot.dst;
            *slot = record;
            return free;
        }
        let mut tail = self.group_tail[group];
        if tail == NIL_U32 || self.fill[tail as usize] as usize == self.block_size {
            let nb = self.alloc_block();
            if tail == NIL_U32 {
                self.group_head[group] = nb;
            } else {
                self.next_block[tail as usize] = nb;
            }
            self.group_tail[group] = nb;
            tail = nb;
        }
        let slot = self.fill[tail as usize];
        self.fill[tail as usize] = slot + 1;
        let ptr = tail << self.slot_bits | slot;
        self.records[ptr as usize] = record;
        ptr
    }

    /// Updates the weight of a live edge copy through its pointer.
    pub fn update_weight(&mut self, ptr: CalPtr, weight: Weight) {
        let r = &mut self.records[ptr as usize];
        debug_assert!(r.valid, "updating an invalidated CAL record");
        r.weight = weight;
    }

    /// Invalidates the copy of an edge of `dense_src` (the paper's delete:
    /// "flagged as invalid") and puts its slot at the head of the group's
    /// free list.
    pub fn invalidate(&mut self, dense_src: u32, ptr: CalPtr) {
        let group = self.group_of(dense_src);
        let r = &mut self.records[ptr as usize];
        debug_assert!(r.valid, "double invalidation of a CAL record");
        *r = CalRecord { dst: self.group_free[group], ..DEAD };
        self.group_free[group] = ptr;
        self.live -= 1;
    }

    /// Reads the record behind a pointer (diagnostics/tests).
    pub fn record(&self, ptr: CalPtr) -> CalRecord {
        self.get(ptr).expect("CAL pointer addresses a written record")
    }

    /// The record behind `ptr`, or `None` when the pointer addresses no
    /// written slot (the validators' checked read).
    pub fn get(&self, ptr: CalPtr) -> Option<CalRecord> {
        let fill = *self.fill.get((ptr >> self.slot_bits) as usize)?;
        (ptr & ((1 << self.slot_bits) - 1) < fill).then(|| self.records[ptr as usize])
    }

    /// Streams every live edge copy sequentially: groups in order, each
    /// group's chain in order, each block front-to-fill. This is the
    /// full-processing retrieval path — the accesses walk the record arena
    /// chain-contiguously instead of hopping per-vertex.
    pub fn for_each_edge<F: FnMut(VertexId, VertexId, Weight)>(&self, mut f: F) {
        for g in 0..self.group_head.len() {
            self.for_each_edge_in_group(g, &mut f);
        }
    }

    /// Streams the live edge copies of group `g` (none for a group no
    /// insert has reached), in [`for_each_edge`](Self::for_each_edge)
    /// order.
    pub fn for_each_edge_in_group<F: FnMut(VertexId, VertexId, Weight)>(&self, g: usize, mut f: F) {
        let mut b = self.group_head.get(g).copied().unwrap_or(NIL_U32);
        while b != NIL_U32 {
            let fill = self.fill[b as usize] as usize;
            for r in self.records.slice((b as usize) << self.slot_bits, fill) {
                if r.valid {
                    f(r.src, r.dst, r.weight);
                }
            }
            b = self.next_block[b as usize];
        }
    }

    /// Heap footprint in bytes, as allocated.
    pub fn memory_bytes(&self) -> usize {
        let group_lanes =
            self.group_head.capacity() + self.group_tail.capacity() + self.group_free.capacity();
        self.records.allocated_bytes()
            + (self.next_block.capacity() + self.fill.capacity() + group_lanes) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_stream_single_group() {
        let mut cal = CalArray::new(1024, 4);
        cal.insert(0, 100, 7, 1);
        cal.insert(1, 101, 8, 2);
        cal.insert(0, 100, 9, 3);
        let mut seen = Vec::new();
        cal.for_each_edge(|s, d, w| seen.push((s, d, w)));
        assert_eq!(seen, vec![(100, 7, 1), (101, 8, 2), (100, 9, 3)]);
        assert_eq!(cal.num_live(), 3);
    }

    #[test]
    fn blocks_chain_when_full() {
        let mut cal = CalArray::new(1024, 2);
        for i in 0..7u32 {
            cal.insert(0, 0, i, 1);
        }
        assert_eq!(cal.num_blocks(), 4, "7 records at block size 2 need 4 blocks");
        let mut n = 0;
        cal.for_each_edge(|_, _, _| n += 1);
        assert_eq!(n, 7);
    }

    #[test]
    fn groups_are_streamed_in_group_order() {
        let mut cal = CalArray::new(2, 8);
        cal.insert(5, 500, 1, 1); // group 2
        cal.insert(0, 0, 2, 1); // group 0
        cal.insert(3, 300, 3, 1); // group 1
        let mut srcs = Vec::new();
        cal.for_each_edge(|s, _, _| srcs.push(s));
        assert_eq!(srcs, vec![0, 300, 500]);
    }

    #[test]
    fn invalidate_hides_record_and_updates_counts() {
        let mut cal = CalArray::new(1024, 8);
        let p0 = cal.insert(0, 0, 1, 1);
        let p1 = cal.insert(0, 0, 2, 1);
        cal.invalidate(0, p0);
        assert_eq!(cal.num_live(), 1);
        assert_eq!(cal.num_invalid(), 1);
        let mut seen = Vec::new();
        cal.for_each_edge(|_, d, _| seen.push(d));
        assert_eq!(seen, vec![2]);
        assert!(cal.record(p1).valid);
        assert!(!cal.record(p0).valid);
    }

    #[test]
    fn update_weight_through_pointer() {
        let mut cal = CalArray::new(1024, 8);
        let p = cal.insert(0, 0, 1, 1);
        cal.update_weight(p, 42);
        assert_eq!(cal.record(p).weight, 42);
        let mut w = 0;
        cal.for_each_edge(|_, _, weight| w = weight);
        assert_eq!(w, 42);
    }

    #[test]
    fn pointers_survive_many_blocks() {
        let mut cal = CalArray::new(64, 16);
        let mut ptrs = Vec::new();
        for i in 0..1000u32 {
            ptrs.push((i, cal.insert(i % 256, i % 256, i, i)));
        }
        for (i, p) in ptrs {
            let r = cal.record(p);
            assert_eq!((r.dst, r.weight, r.valid), (i, i, true));
        }
    }

    #[test]
    fn non_power_of_two_block_size() {
        let mut cal = CalArray::new(8, 3);
        let ptrs: Vec<_> = (0..10u32).map(|i| cal.insert(0, 0, i, i)).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            assert_eq!(cal.record(p).dst, i as u32);
        }
        assert_eq!(cal.num_blocks(), 4);
    }

    /// Interleaved inserts and invalidations over three groups against a
    /// `Vec` model of the live records: a pointer never moves while its
    /// record lives, the stream is exactly the live set with every source
    /// inside its own group's run, and freed slots are reused before a
    /// group's chain grows.
    #[test]
    fn freed_slots_are_reused_within_their_group() {
        let (group_size, block_size) = (4u32, 4);
        let mut cal = CalArray::new(group_size as usize, block_size);
        // (dense source, dst, weight, pointer) of every live record.
        let mut model: Vec<(u32, u32, u32, CalPtr)> = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut peak_blocks = 0;
        for step in 0..4_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Grow to ~200 records, then hold the size: half the steps delete.
            if model.len() < 200 || x.is_multiple_of(2) {
                let dense = (x >> 8) as u32 % (3 * group_size);
                let ptr = cal.insert(dense, dense + 100, step, step % 7);
                assert!(model.iter().all(|m| m.3 != ptr), "slot {ptr} handed out twice");
                model.push((dense, step, step % 7, ptr));
            } else {
                let (dense, _, _, ptr) = model.swap_remove((x >> 8) as usize % model.len());
                cal.invalidate(dense, ptr);
                assert!(!cal.record(ptr).valid);
            }
            if step == 1_000 {
                peak_blocks = cal.num_blocks();
            }
            for &(dense, dst, weight, ptr) in &model {
                assert_eq!(
                    cal.record(ptr),
                    CalRecord { src: dense + 100, dst, weight, valid: true }
                );
            }
            assert_eq!(cal.num_live() as usize, model.len());
            let mut streamed = Vec::new();
            cal.for_each_edge(|s, d, w| streamed.push((s - 100, d, w)));
            assert!(streamed.windows(2).all(|p| p[0].0 / group_size <= p[1].0 / group_size));
            let mut want: Vec<_> = model.iter().map(|&(s, d, w, _)| (s, d, w)).collect();
            streamed.sort_unstable();
            want.sort_unstable();
            assert_eq!(streamed, want);
        }
        // Churn at a size that only random-walks: holes are refilled, so the
        // chains all but stop growing (appending the ~1 500 inserts since
        // step 1 000 would have added 375 blocks) and the invalid count
        // stays a fraction of the live.
        assert!(cal.num_blocks() < 2 * peak_blocks, "{} vs {peak_blocks}", cal.num_blocks());
        assert!(cal.num_invalid() < cal.num_live(), "{} holes", cal.num_invalid());
    }
}
