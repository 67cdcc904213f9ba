//! Dense hub tier: sorted adjacency segments for high-degree vertices.
//!
//! A vertex promoted out of the RHH edgeblock tier stores its adjacency as a
//! contiguous sorted run of destination keys plus a small append-order tail
//! that absorbs inserts. Lookups first gallop over a small L1-resident fence
//! array (every 64th key), then over one 64-key window of the sorted run,
//! with a branchless binary narrowing loop finishing in a chunked 4-wide compare
//! ([`find_key_chunked`]) that the compiler autovectorizes; no per-probe
//! pointer chasing, no hash displacement. Inserts append to the tail — it is
//! scanned linearly on lookup anyway, so keeping it sorted would only add an
//! O(tail) shift across two parallel arrays per insert — and the tail is
//! sorted and merged into the main run in one backward two-pointer pass when
//! it exceeds [`TAIL_CAP`], so insertion is a push plus an amortized
//! O(degree / TAIL_CAP) share of the merge.
//!
//! Deletes are lazy. A key is stored as `dst << 1 | dead`: deleting a
//! main-run entry sets the low bit in place, which keeps the run sorted
//! (no other key lies between `dst << 1` and `dst << 1 | 1`) and every
//! fence a lower bound of its window, so a delete is the lookup plus one
//! store — no memmove, no fence rebuild. Lookups search for the live key
//! `dst << 1` and therefore never match a dead slot; a re-inserted
//! destination simply lands in the tail. Dead slots are dropped by the
//! merge pass, which is also forced once they exceed
//! `1 / `[`MAX_DEAD_SHARE`] of the main run, so they stay a bounded
//! fraction of the segment. A tail delete is a `swap_remove` across the
//! three parallel lanes (the tail is unordered anyway).
//!
//! The tail additionally carries a SWAR tag lane (one fingerprint byte per
//! tail entry, see [`crate::swar`]): [`HubSegment::find`] scans it eight
//! bytes per `u64` with the shared group-match primitive and touches the
//! 8-byte keys only on fingerprint candidates. The 4-wide key compare over
//! the tail it replaced is the reference model in this module's tests.

use gtinker_types::{VertexId, Weight};

use crate::hash::dst_tag;
use crate::swar::{indices, load_padded, match_tag, GROUP};

/// Maximum unsorted-tail length before it is merged into the main run.
pub const TAIL_CAP: usize = 256;

/// Below this many candidates the gallop switches to the chunked linear scan.
pub const SCAN_WINDOW: usize = 8;

/// A main-run delete that leaves more than `1 / MAX_DEAD_SHARE` of the run
/// dead forces the merge pass, bounding the memory held by dead slots.
pub const MAX_DEAD_SHARE: usize = 4;

/// Low key bit marking a lazily deleted main-run entry.
const DEAD: u64 = 1;

/// Sort key of a live edge to `dst`.
#[inline]
fn live_key(dst: VertexId) -> u64 {
    (dst as u64) << 1
}

/// Destination encoded in `key` (live or dead).
#[inline]
fn key_dst(key: u64) -> VertexId {
    (key >> 1) as VertexId
}

/// Every `2^FENCE_SHIFT`-th main-run key is copied into the fence array.
const FENCE_SHIFT: usize = 6;

/// Keys per fence block (64 keys = 512 B, a handful of cache lines).
const FENCE_STRIDE: usize = 1 << FENCE_SHIFT;

/// Index of the greatest fence `<= key` (0 when `key` precedes every fence),
/// with the same branchless narrowing loop as [`find_key`].
fn lower_block(fences: &[u64], key: u64) -> usize {
    let mut base = 0usize;
    let mut size = fences.len();
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        base = if fences[mid] <= key { mid } else { base };
        size -= half;
    }
    base
}

/// Branchless gallop over a sorted key slice, finishing with a chunked scan.
///
/// The narrowing step `base = if keys[mid] <= key { mid } else { base }`
/// compiles to a conditional move, so the loop runs without branch
/// mispredictions regardless of the key distribution.
pub fn find_key(keys: &[u64], key: u64) -> Option<usize> {
    let mut base = 0usize;
    let mut size = keys.len();
    while size > SCAN_WINDOW {
        let half = size / 2;
        let mid = base + half;
        base = if keys[mid] <= key { mid } else { base };
        size -= half;
    }
    find_key_chunked(&keys[base..base + size], key).map(|i| base + i)
}

/// Linear scan in explicit chunks of four, reduced to a bitmask so the
/// compiler emits a vectorized compare instead of four dependent branches.
pub fn find_key_chunked(keys: &[u64], key: u64) -> Option<usize> {
    let mut chunks = keys.chunks_exact(4);
    let mut base = 0usize;
    for c in chunks.by_ref() {
        let m = (c[0] == key) as u32
            | (((c[1] == key) as u32) << 1)
            | (((c[2] == key) as u32) << 2)
            | (((c[3] == key) as u32) << 3);
        if m != 0 {
            return Some(base + m.trailing_zeros() as usize);
        }
        base += 4;
    }
    for (i, &k) in chunks.remainder().iter().enumerate() {
        if k == key {
            return Some(base + i);
        }
    }
    None
}

/// Sorted, growable adjacency segment for one hub vertex.
///
/// Layout: `keys[0..split)` is the sorted main run (live and dead slots),
/// `keys[split..)` is an append-order insert tail of at most [`TAIL_CAP`]
/// live entries. `weights` is a parallel array carried through every
/// reshuffle.
#[derive(Debug, Default, Clone)]
pub struct HubSegment {
    keys: Vec<u64>,
    weights: Vec<Weight>,
    split: usize,
    /// Dead (lazily deleted) slots in the main run.
    dead: usize,
    /// Every [`FENCE_STRIDE`]-th main-run key, kept contiguous and small so
    /// the first gallop stage runs over an L1-resident array instead of
    /// cache-missing through the full run; a search then only touches one
    /// 64-key window of `keys`. Rebuilt by the merge pass only.
    fences: Vec<u64>,
    /// 256-bit presence filter over the tail (bit `dst & 255`). A fresh
    /// insert is a guaranteed miss, so most of them skip the tail scan on a
    /// clear bit instead of sweeping up to [`TAIL_CAP`] entries.
    tail_filter: [u64; 4],
    /// SWAR fingerprint lane parallel to `keys[split..]`: one
    /// [`dst_tag`] byte per tail entry, cleared on merge. Every tail slot
    /// is occupied, so no sentinel bytes appear here — the scan just
    /// bound-checks padded lanes.
    tail_tags: Vec<u8>,
    /// Merge passes run, and how many of them a delete forced (unit tests
    /// assert deletes cost no passes beyond these).
    #[cfg(test)]
    passes: usize,
    #[cfg(test)]
    forced: usize,
    #[cfg(test)]
    fence_rebuilds: usize,
}

/// Word index and bit mask of `dst` in the 256-bit tail filter.
#[inline]
fn filter_slot(dst: VertexId) -> (usize, u64) {
    let b = dst & 255;
    ((b >> 6) as usize, 1u64 << (b & 63))
}

impl HubSegment {
    /// Builds a segment from an unordered edge list `(dst, weight)`.
    pub fn from_edges(mut edges: Vec<(VertexId, Weight)>) -> Self {
        edges.sort_unstable_by_key(|e| e.0);
        let n = edges.len();
        let mut seg = HubSegment {
            keys: Vec::with_capacity(n),
            weights: Vec::with_capacity(n),
            split: n,
            ..HubSegment::default()
        };
        for (dst, w) in edges {
            seg.keys.push(live_key(dst));
            seg.weights.push(w);
        }
        seg.rebuild_fences();
        seg
    }

    /// Recomputes the fence array from the main run.
    fn rebuild_fences(&mut self) {
        #[cfg(test)]
        {
            self.fence_rebuilds += 1;
        }
        self.fences.clear();
        let mut i = 0;
        while i < self.split {
            self.fences.push(self.keys[i]);
            i += FENCE_STRIDE;
        }
    }

    /// Number of live edges held.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len() - self.dead
    }

    /// True when the segment holds no live edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lazily deleted main-run slots awaiting the next merge pass.
    #[inline]
    pub fn dead_slots(&self) -> usize {
        self.dead
    }

    /// Gallop over the sorted main run (fences first, then one window) for
    /// the live key; a dead slot of the same destination never matches.
    #[inline]
    fn find_main(&self, key: u64) -> Option<usize> {
        if self.fences.len() > 1 {
            let start = lower_block(&self.fences, key) << FENCE_SHIFT;
            let end = (start + FENCE_STRIDE).min(self.split);
            find_key(&self.keys[start..end], key).map(|i| start + i)
        } else {
            find_key(&self.keys[..self.split], key)
        }
    }

    /// Index of `dst`, probing the main run, then the tail through its
    /// SWAR tag lane: eight fingerprint bytes per `u64` load, full 8-byte
    /// keys touched only at candidate lanes. `tag` is the caller's hoisted
    /// [`dst_tag`]`(dst)` byte (derived once per operation in the update
    /// path).
    pub fn find(&self, dst: VertexId, tag: u8) -> Option<usize> {
        debug_assert_eq!(tag, dst_tag(dst));
        let key = live_key(dst);
        let hit = self.find_main(key);
        if hit.is_some() {
            return hit;
        }
        let (w, bit) = filter_slot(dst);
        if self.tail_filter[w] & bit == 0 {
            return None;
        }
        let n = self.tail_tags.len();
        let mut at = 0;
        while at < n {
            for lane in indices(match_tag(load_padded(&self.tail_tags, at), tag)) {
                let i = at + lane;
                // Padding lanes are TAG_EMPTY and cannot fingerprint-match.
                debug_assert!(i < n);
                if self.keys[self.split + i] == key {
                    return Some(self.split + i);
                }
            }
            at += GROUP;
        }
        None
    }

    /// Inserts a new edge with its [`dst_tag`] byte. The caller must have
    /// checked `dst` is absent.
    pub fn insert(&mut self, dst: VertexId, weight: Weight, tag: u8) {
        debug_assert!(self.find(dst, tag).is_none());
        let (w, bit) = filter_slot(dst);
        self.tail_filter[w] |= bit;
        self.keys.push(live_key(dst));
        self.weights.push(weight);
        self.tail_tags.push(tag);
        if self.keys.len() - self.split > TAIL_CAP {
            self.merge_tail();
        }
    }

    /// The merge pass: drops the dead main-run slots (one forward in-place
    /// sweep, skipped when there are none), then sorts the tail and merges
    /// it in with one backward in-place two-pointer pass (the tail is first
    /// copied out, so main-run elements shift right at most once each).
    /// The only place fences are rebuilt.
    fn merge_tail(&mut self) {
        #[cfg(test)]
        {
            self.passes += 1;
        }
        let mut order: Vec<usize> = (self.split..self.keys.len()).collect();
        order.sort_unstable_by_key(|&i| self.keys[i]);
        let tail_keys: Vec<u64> = order.iter().map(|&i| self.keys[i]).collect();
        let tail_weights: Vec<Weight> = order.iter().map(|&i| self.weights[i]).collect();
        let mut main = self.split; // one past the next unmerged main element
        if self.dead > 0 {
            main = 0;
            for i in 0..self.split {
                if self.keys[i] & DEAD == 0 {
                    self.keys[main] = self.keys[i];
                    self.weights[main] = self.weights[i];
                    main += 1;
                }
            }
        }
        let n = main + tail_keys.len();
        self.keys.truncate(n);
        self.weights.truncate(n);
        let mut tail = tail_keys.len();
        let mut out = n;
        while tail > 0 {
            out -= 1;
            if main > 0 && self.keys[main - 1] > tail_keys[tail - 1] {
                main -= 1;
                self.keys[out] = self.keys[main];
                self.weights[out] = self.weights[main];
            } else {
                tail -= 1;
                self.keys[out] = tail_keys[tail];
                self.weights[out] = tail_weights[tail];
            }
        }
        self.split = n;
        self.dead = 0;
        self.tail_filter = [0; 4];
        self.tail_tags.clear();
        self.rebuild_fences();
        debug_assert!(self.keys.is_sorted());
    }

    /// Removes the live edge at `idx` (as returned by a find). Indices into
    /// the segment are invalidated.
    ///
    /// A main-run removal marks the slot dead in place; a tail removal
    /// swaps the last tail entry into the hole. The latter leaves its
    /// filter bit set — a stale bit only costs a spurious tail scan (the
    /// filter tolerates false positives, never false negatives), and the
    /// next merge clears it.
    pub fn remove(&mut self, idx: usize) {
        if idx >= self.split {
            self.keys.swap_remove(idx);
            self.weights.swap_remove(idx);
            self.tail_tags.swap_remove(idx - self.split);
            return;
        }
        debug_assert_eq!(self.keys[idx] & DEAD, 0, "slot {idx} is already dead");
        self.keys[idx] |= DEAD;
        if idx.is_multiple_of(FENCE_STRIDE) {
            self.fences[idx >> FENCE_SHIFT] = self.keys[idx];
        }
        self.dead += 1;
        if self.dead * MAX_DEAD_SHARE > self.split {
            #[cfg(test)]
            {
                self.forced += 1;
            }
            self.merge_tail();
        }
    }

    /// Checks the tail tag lane: one byte per tail entry, each the
    /// [`dst_tag`] of its key.
    pub fn validate_tail_tags(&self) -> Result<(), String> {
        let tail = self.keys.len() - self.split;
        if self.tail_tags.len() != tail {
            return Err(format!("hub tail tags {} != tail len {tail}", self.tail_tags.len()));
        }
        for (i, &t) in self.tail_tags.iter().enumerate() {
            let dst = key_dst(self.keys[self.split + i]);
            if t != dst_tag(dst) {
                return Err(format!("hub tail slot {i} (dst {dst}): tag {t:#04x}"));
            }
        }
        Ok(())
    }

    /// Checks every structural invariant of the segment: parallel lanes
    /// the same length, main run strictly sorted with one slot per
    /// destination, the dead count exact and within the compaction bound,
    /// fences equal to every 64th main-run key, tail entries live, covered
    /// by the filter and absent from the live main run, and the tail tag
    /// lane ([`Self::validate_tail_tags`]). Part of
    /// `validate_tag_invariants`.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.keys.len();
        if self.weights.len() != n || self.split > n {
            return Err(format!(
                "hub lanes diverge: keys {n}, weights {}, split {}",
                self.weights.len(),
                self.split
            ));
        }
        let (main, tail) = self.keys.split_at(self.split);
        if let Some(w) = main.windows(2).find(|w| key_dst(w[0]) >= key_dst(w[1])) {
            return Err(format!("hub main run out of order: {} then {}", w[0], w[1]));
        }
        let dead = main.iter().filter(|&&k| k & DEAD != 0).count();
        if dead != self.dead {
            return Err(format!("hub dead count {} but {dead} dead slots", self.dead));
        }
        if dead * MAX_DEAD_SHARE > self.split {
            return Err(format!(
                "hub dead slots {dead} exceed the bound on a run of {}",
                self.split
            ));
        }
        if !self.fences.iter().eq(main.iter().step_by(FENCE_STRIDE)) {
            return Err("hub fences diverge from the main run".into());
        }
        for &k in tail {
            let (w, bit) = filter_slot(key_dst(k));
            if k & DEAD != 0 || self.tail_filter[w] & bit == 0 || self.find_main(k).is_some() {
                return Err(format!(
                    "hub tail key {k} is dead, unfiltered or also in the main run"
                ));
            }
        }
        self.validate_tail_tags()
    }

    /// Weight at `idx`.
    #[inline]
    pub fn weight(&self, idx: usize) -> Weight {
        self.weights[idx]
    }

    /// Overwrites the weight at `idx`.
    #[inline]
    pub fn set_weight(&mut self, idx: usize, w: Weight) {
        self.weights[idx] = w;
    }

    /// Visits every live edge as `(dst, weight)`.
    pub fn for_each(&self, mut f: impl FnMut(VertexId, Weight)) {
        for (&k, &w) in self.keys.iter().zip(&self.weights) {
            if k & DEAD == 0 {
                f(key_dst(k), w);
            }
        }
    }

    /// Drains the segment into its live edges `(dst, weight)`.
    pub fn into_edges(self) -> Vec<(VertexId, Weight)> {
        self.keys
            .into_iter()
            .zip(self.weights)
            .filter(|(k, _)| k & DEAD == 0)
            .map(|(k, w)| (key_dst(k), w))
            .collect()
    }

    /// Estimated heap bytes held by the segment's allocations (capacity, so
    /// dead slots and merge headroom are counted, never hidden).
    pub fn memory_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.weights.capacity() * std::mem::size_of::<Weight>()
            + self.fences.capacity() * std::mem::size_of::<u64>()
            + self.tail_tags.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model of [`HubSegment::find`]: the same main-run gallop,
    /// then a 4-wide key compare over the whole tail, no filter, no tags.
    fn find_scalar(seg: &HubSegment, dst: VertexId) -> Option<usize> {
        let key = live_key(dst);
        seg.find_main(key)
            .or_else(|| find_key_chunked(&seg.keys[seg.split..], key).map(|i| seg.split + i))
    }

    fn find(seg: &HubSegment, dst: VertexId) -> Option<usize> {
        seg.find(dst, dst_tag(dst))
    }

    fn insert(seg: &mut HubSegment, dst: VertexId, weight: Weight) {
        seg.insert(dst, weight, dst_tag(dst));
    }

    #[test]
    fn find_key_matches_position_on_sorted_input() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(find_key(&keys, k), Some(i));
        }
        assert_eq!(find_key(&keys, 1), None);
        assert_eq!(find_key(&keys, 3000), None);
        assert_eq!(find_key(&[], 0), None);
    }

    #[test]
    fn find_key_chunked_handles_remainders() {
        for n in 0..13 {
            let keys: Vec<u64> = (0..n).map(|i| i * 2).collect();
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(find_key_chunked(&keys, k), Some(i), "n={n}");
            }
            assert_eq!(find_key_chunked(&keys, 999), None);
        }
    }

    #[test]
    fn insert_find_remove_roundtrip() {
        let mut seg = HubSegment::from_edges(vec![(10, 1), (2, 2), (30, 3)]);
        assert_eq!(seg.len(), 3);
        let i = find(&seg, 10).unwrap();
        assert_eq!(seg.weight(i), 1);

        insert(&mut seg, 5, 50);
        insert(&mut seg, 40, 60);
        assert_eq!(seg.len(), 5);
        for d in [2, 5, 10, 30, 40] {
            assert!(find(&seg, d).is_some(), "dst {d}");
        }
        assert!(find(&seg, 7).is_none());

        let i = find(&seg, 5).unwrap();
        seg.remove(i);
        assert!(find(&seg, 5).is_none());
        assert_eq!(seg.len(), 4);
    }

    #[test]
    fn tail_merge_keeps_everything_findable() {
        let mut seg = HubSegment::from_edges((0..100).map(|i| (i * 4, i)).collect());
        // Push well past TAIL_CAP with ids interleaved into the main run.
        for i in 0..(TAIL_CAP as u32 * 2 + 7) {
            insert(&mut seg, i * 4 + 1, 100 + i);
        }
        for i in 0..100u32 {
            let at = find(&seg, i * 4).unwrap();
            assert_eq!(seg.weight(at), i);
        }
        for i in 0..(TAIL_CAP as u32 * 2 + 7) {
            let at = find(&seg, i * 4 + 1).unwrap();
            assert_eq!(seg.weight(at), 100 + i);
        }
        assert_eq!(seg.len(), 100 + TAIL_CAP * 2 + 7);
    }

    #[test]
    fn for_each_and_into_edges_agree() {
        let mut seg = HubSegment::from_edges(vec![(3, 30), (1, 10)]);
        insert(&mut seg, 2, 20);
        let mut seen = Vec::new();
        seg.for_each(|d, w| seen.push((d, w)));
        let mut drained = seg.into_edges();
        drained.sort_unstable();
        seen.sort_unstable();
        assert_eq!(seen, drained);
        assert_eq!(seen, vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn fenced_find_covers_every_window_and_survives_removes() {
        // Main run far larger than one fence stride, odd keys absent.
        let n = FENCE_STRIDE as u32 * 10 + 13;
        let mut seg = HubSegment::from_edges((0..n).map(|i| (i * 2, i)).collect());
        for i in 0..n {
            assert_eq!(find(&seg, i * 2), Some(i as usize), "key {}", i * 2);
            assert_eq!(find(&seg, i * 2 + 1), None);
        }
        // Kill a fence key itself (slot 3 * FENCE_STRIDE) and a mid-window
        // one: neither moves an element, and every other key stays findable.
        let victims = [FENCE_STRIDE as u32 * 6, FENCE_STRIDE as u32 * 3];
        for v in victims {
            let at = find(&seg, v).unwrap();
            seg.remove(at);
            assert_eq!(find(&seg, v), None);
            seg.validate().unwrap();
        }
        assert_eq!((seg.keys.len(), seg.len(), seg.dead_slots()), (n as usize, n as usize - 2, 2));
        for i in 0..n {
            let k = i * 2;
            assert_eq!(find(&seg, k).is_some(), !victims.contains(&k), "key {k}");
        }
    }

    #[test]
    fn dead_key_reinsert_lands_in_tail_and_merge_drops_the_dead_slot() {
        let mut seg = HubSegment::from_edges((0..40).map(|i| (i, i)).collect());
        let at = find(&seg, 7).unwrap();
        seg.remove(at);
        assert_eq!((seg.len(), seg.dead_slots()), (39, 1));
        insert(&mut seg, 7, 70);
        let at = find(&seg, 7).unwrap();
        assert!(at >= seg.split, "the dead slot is not revived");
        assert_eq!(seg.weight(at), 70);
        seg.validate().unwrap();
        // Iteration and draining see the live copy only.
        let mut seen = Vec::new();
        seg.for_each(|d, w| seen.push((d, w)));
        assert_eq!(seen.iter().filter(|e| e.0 == 7).collect::<Vec<_>>(), [&(7, 70)]);
        assert_eq!(seen.len(), 40);
        seg.merge_tail();
        assert_eq!((seg.len(), seg.dead_slots(), seg.keys.len()), (40, 0, 40));
        seg.validate().unwrap();
        let mut drained = seg.into_edges();
        drained.sort_unstable();
        seen.sort_unstable();
        assert_eq!(drained, seen);
    }

    #[test]
    fn dead_slots_force_a_compaction_at_the_bound() {
        let n = 400usize;
        let mut seg = HubSegment::from_edges((0..n as u32).map(|i| (i, i)).collect());
        for d in 0..(n / MAX_DEAD_SHARE) as u32 {
            let at = find(&seg, d).unwrap();
            seg.remove(at);
            seg.validate().unwrap();
        }
        assert_eq!((seg.dead_slots(), seg.forced, seg.keys.len()), (n / MAX_DEAD_SHARE, 0, n));
        let at = find(&seg, 300).unwrap();
        seg.remove(at);
        assert_eq!((seg.dead_slots(), seg.forced, seg.passes), (0, 1, 1));
        assert_eq!(seg.keys.len(), seg.len());
        seg.validate().unwrap();
    }

    /// Deterministic xorshift stream for the churn tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn main_run_deletes_shift_nothing_and_rebuild_no_fences() {
        let n = 10_000u32;
        let mut seg = HubSegment::from_edges((0..n).map(|i| (i * 2, i)).collect());
        // A main-run delete leaves every lane where it was.
        let at = find(&seg, 4_000).unwrap();
        assert!(at < seg.split);
        seg.remove(at);
        assert_eq!((seg.keys.len(), seg.len()), (n as usize, n as usize - 1));
        let base = seg.fence_rebuilds;

        let mut live: Vec<u32> = (0..n).map(|i| i * 2).filter(|&d| d != 4_000).collect();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let (mut inserts, mut deletes) = (0usize, 0usize);
        for fresh in 0..5_000u32 {
            let victim = live.swap_remove(xorshift(&mut rng) as usize % live.len());
            let at = find(&seg, victim).expect("live edge findable");
            seg.remove(at);
            deletes += 1;
            let dst = fresh * 2 + 1; // odd ids: never in the seed run
            insert(&mut seg, dst, dst);
            live.push(dst);
            inserts += 1;
        }
        assert_eq!((inserts, deletes), (5_000, 5_000));
        seg.validate().unwrap();
        assert_eq!(seg.len(), live.len());
        for &d in &live {
            assert!(find(&seg, d).is_some(), "dst {d} lost");
        }
        // Fences are rebuilt by merge passes only, and the number of passes
        // depends on inserts (tail overflows) plus forced compactions —
        // not on how many deletes ran.
        assert_eq!(seg.fence_rebuilds - base, seg.passes);
        assert!(
            seg.passes <= inserts / TAIL_CAP + seg.forced,
            "{} passes for {inserts} inserts, {} forced",
            seg.passes,
            seg.forced
        );
    }

    #[test]
    fn memory_bytes_nonzero_when_populated() {
        let seg = HubSegment::from_edges(vec![(1, 1)]);
        assert!(seg.memory_bytes() >= 16);
    }

    #[test]
    fn tagged_find_matches_seed_through_churn() {
        let mut seg = HubSegment::from_edges((0..50).map(|i| (i * 3, i)).collect());
        // Grow a tail past one merge, removing from both regions along the way.
        for i in 0..(TAIL_CAP as u32 + 40) {
            insert(&mut seg, i * 3 + 1, i);
            seg.validate().unwrap();
            if i % 17 == 0 {
                if let Some(at) = find(&seg, i * 3 + 1) {
                    seg.remove(at);
                }
            }
            if i % 23 == 0 {
                if let Some(at) = find(&seg, (i % 50) * 3) {
                    seg.remove(at);
                }
            }
        }
        seg.validate().unwrap();
        for d in 0..(TAIL_CAP as u32 * 4) {
            assert_eq!(
                seg.find(d, dst_tag(d)),
                find_scalar(&seg, d),
                "tagged/seed find diverged for {d}"
            );
        }
    }

    #[test]
    fn tail_tag_lane_tracks_removals() {
        let mut seg = HubSegment::from_edges(vec![(1, 1)]);
        for d in [100u32, 200, 300, 400] {
            insert(&mut seg, d, d);
        }
        // Remove from the middle of the tail; the last entry (and its lane
        // byte) is swapped into the hole.
        let at = find(&seg, 200).unwrap();
        seg.remove(at);
        seg.validate().unwrap();
        assert_eq!(find(&seg, 400), Some(at));
        for d in [100u32, 300, 400] {
            let i = find(&seg, d).unwrap();
            assert_eq!(seg.weight(i), d);
        }
        assert!(find(&seg, 200).is_none());
    }
}
