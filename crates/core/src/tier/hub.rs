//! The hub tier: one sorted dense [`HubSegment`] per high-degree vertex,
//! with lazily deleted slots. Segment slots of demoted hubs are recycled.

use gtinker_types::{Edge, VertexId, Weight, NIL_U32};

use super::{TierEdge, TierOps, Upsert};
use crate::hash::{dst_tag, tag_of_hash};
use crate::hubseg::{HubSegment, SCAN_WINDOW};
use crate::stats::ProbeStats;

/// Hub segments and the table that maps a dense source id to its segment.
#[derive(Debug, Default)]
pub struct HubTier {
    /// Segment slot per dense source ([`NIL_U32`] = not a hub).
    hub_of: Vec<u32>,
    /// Segments, indexed by `hub_of`.
    hubs: Vec<HubSegment>,
    /// Slots of drained hubs, reused before `hubs` grows.
    free_hubs: Vec<u32>,
    /// Lazily deleted slots across all segments (running total of
    /// [`HubSegment::dead_slots`]).
    dead: usize,
}

impl HubTier {
    /// An empty tier.
    pub fn new() -> Self {
        HubTier::default()
    }

    /// Lazily deleted slots awaiting a merge pass, over all segments.
    #[inline]
    pub fn dead_slots(&self) -> usize {
        self.dead
    }

    /// Streams the segments of the hubs among the dense ids in `dense` as
    /// `(src, dst, weight)`, in dense order, naming each source by
    /// `src_of`.
    pub(crate) fn stream(
        &self,
        dense: std::ops::Range<usize>,
        src_of: impl Fn(u32) -> VertexId,
        mut f: impl FnMut(VertexId, VertexId, Weight),
    ) {
        let end = dense.end.min(self.hub_of.len());
        for (d, &h) in self.hub_of[dense.start.min(end)..end].iter().enumerate() {
            if h != NIL_U32 {
                let src = src_of((dense.start + d) as u32);
                self.hubs[h as usize].for_each(|v, w| f(src, v, w));
            }
        }
    }

    /// Segment slot of `dense`, if it is a hub.
    #[inline]
    fn slot(&self, dense: u32) -> Option<usize> {
        self.hub_of.get(dense as usize).filter(|&&h| h != NIL_U32).map(|&h| h as usize)
    }

    #[inline]
    fn segment(&self, dense: u32) -> Option<&HubSegment> {
        self.slot(dense).map(|h| &self.hubs[h])
    }

    /// Installs `seg` as the segment of `dense`, in a recycled slot if any.
    fn install(&mut self, dense: u32, seg: HubSegment) -> usize {
        if self.hub_of.len() <= dense as usize {
            self.hub_of.resize(dense as usize + 1, NIL_U32);
        }
        debug_assert_eq!(self.hub_of[dense as usize], NIL_U32, "vertex is already a hub");
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
        h as usize
    }

    /// Runs `f` on segment `h`, keeping the dead-slot total in step: a tail
    /// overflow merges dead slots away, a main-run delete leaves one behind
    /// (or, at the compaction bound, clears them all).
    #[inline]
    fn mutate<R>(&mut self, h: usize, f: impl FnOnce(&mut HubSegment) -> R) -> R {
        let seg = &mut self.hubs[h];
        self.dead -= seg.dead_slots();
        let r = f(seg);
        self.dead += seg.dead_slots();
        r
    }

    /// Nominal probe accounting: the gallop narrows to a scan window in
    /// the main run, plus (at most) one more over the tail.
    #[inline]
    fn count_probe(stats: &mut ProbeStats) {
        stats.subblocks_visited += 1;
        stats.cells_inspected += 2 * SCAN_WINDOW as u64;
        stats.workblocks_fetched += 1;
    }
}

impl TierOps for HubTier {
    #[inline]
    fn find(&self, dense: u32, dst: VertexId) -> Option<Weight> {
        let seg = self.segment(dense)?;
        seg.find(dst, dst_tag(dst)).map(|i| seg.weight(i))
    }

    #[inline]
    fn upsert(&mut self, dense: u32, e: Edge, h0: u64, stats: &mut ProbeStats) -> Upsert {
        let h = match self.slot(dense) {
            Some(h) => h,
            None => self.install(dense, HubSegment::default()),
        };
        let tag = tag_of_hash(h0);
        Self::count_probe(stats);
        let seg = &mut self.hubs[h];
        if let Some(i) = seg.find(e.dst, tag) {
            seg.set_weight(i, e.weight);
            return Upsert::Updated;
        }
        self.mutate(h, |seg| seg.insert(e.dst, e.weight, tag));
        Upsert::Inserted
    }

    #[inline]
    fn remove(&mut self, dense: u32, dst: VertexId, h0: u64, stats: &mut ProbeStats) -> bool {
        let Some(h) = self.slot(dense) else { return false };
        Self::count_probe(stats);
        let Some(i) = self.hubs[h].find(dst, tag_of_hash(h0)) else { return false };
        self.mutate(h, |seg| seg.remove(i));
        true
    }

    #[inline]
    fn for_each(&self, dense: u32, f: impl FnMut(VertexId, Weight)) {
        if let Some(seg) = self.segment(dense) {
            seg.for_each(f);
        }
    }

    fn len(&self, dense: u32) -> usize {
        self.segment(dense).map_or(0, HubSegment::len)
    }

    fn holds(&self, dense: u32) -> bool {
        self.segment(dense).is_some()
    }

    fn drain(&mut self, dense: u32) -> Vec<TierEdge> {
        let Some(h) = self.slot(dense) else { return Vec::new() };
        let seg = std::mem::take(&mut self.hubs[h]);
        self.dead -= seg.dead_slots();
        self.free_hubs.push(h as u32);
        self.hub_of[dense as usize] = NIL_U32;
        seg.into_edges()
    }

    fn adopt(&mut self, dense: u32, _src: VertexId, edges: Vec<TierEdge>, _: &mut ProbeStats) {
        self.install(dense, HubSegment::from_edges(edges));
    }

    #[inline]
    fn warm(&self, dense: u32) -> u32 {
        self.hub_of.get(dense as usize).copied().unwrap_or(NIL_U32)
    }

    /// Segments, the segment table, the slot table and the free list.
    fn memory_bytes(&self) -> usize {
        self.hubs.iter().map(|h| h.memory_bytes()).sum::<usize>()
            + self.hubs.capacity() * std::mem::size_of::<HubSegment>()
            + self.hub_of.capacity() * 4
            + self.free_hubs.capacity() * 4
    }

    /// Every segment passes [`HubSegment::validate`], the dead slots sum
    /// to the tracked total, and every segment slot is either owned by
    /// exactly one source or empty on the free list.
    fn validate(&self) -> Result<(), String> {
        for (h, seg) in self.hubs.iter().enumerate() {
            seg.validate().map_err(|e| format!("hub {h}: {e}"))?;
        }
        let dead: usize = self.hubs.iter().map(|h| h.dead_slots()).sum();
        if dead != self.dead {
            return Err(format!("hub dead slots: counted {dead}, tracked {}", self.dead));
        }
        let mut owners = vec![0u32; self.hubs.len()];
        for &h in self.hub_of.iter().filter(|&&h| h != NIL_U32) {
            *owners.get_mut(h as usize).ok_or(format!("hub slot {h} out of range"))? += 1;
        }
        for &h in &self.free_hubs {
            if owners[h as usize] != 0 || !self.hubs[h as usize].is_empty() {
                return Err(format!("free hub slot {h} is owned or holds edges"));
            }
            owners[h as usize] = 1;
        }
        match owners.iter().position(|&n| n != 1) {
            Some(h) => Err(format!("hub slot {h} has {} owners", owners[h])),
            None => Ok(()),
        }
    }
}
