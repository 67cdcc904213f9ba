//! The Scatter-Gather Hashing (SGH) unit.
//!
//! SGH is GraphTinker's first level of compaction (§III.B): every source
//! vertex id streamed into the structure is remapped, on first sight, to the
//! next unused index of the EdgeblockArray's main region. The mapping (and
//! its inverse) is maintained by the *Scatter-Gather Hashing table*, so that
//! during analytics only non-empty vertices — exactly the first
//! `len()` indices of the main region — are ever traversed.
//!
//! The table itself is a Robin-Hood open-addressing hash map specialized for
//! `u32 -> u32`, implemented here rather than borrowed from `std`: the SGH
//! lookup sits on the hot path of every single edge update, where SipHash
//! and the generic `HashMap` layout would dominate the cost the structure is
//! designed to avoid.
//!
//! The table carries a SWAR tag lane (see [`crate::swar`]): one fingerprint
//! byte per slot plus a [`GROUP`]-byte mirror of the table's head appended
//! at the tail, so a wrapping probe can always load eight contiguous tag
//! bytes. SGH never deletes, so an empty tag terminates any probe cluster
//! exactly — the lookup scans eight slots per `u64` and touches a full
//! slot only on fingerprint candidates. The slot-walking Robin Hood probe it
//! replaced is the reference model in this module's tests.

use gtinker_types::{VertexId, NIL_VERTEX};

use crate::hash::{mix64, tag_of_hash};
use crate::swar::{indices, load, match_empty, match_tag, GROUP, TAG_EMPTY};

/// A slot in the SGH table.
#[derive(Clone, Copy)]
struct Slot {
    /// Original (external) vertex id; NIL_VERTEX marks an empty slot.
    key: VertexId,
    /// Dense (internal) id assigned to it.
    value: u32,
    /// Robin Hood probe distance of this entry.
    probe: u16,
}

const EMPTY_SLOT: Slot = Slot { key: NIL_VERTEX, value: 0, probe: 0 };

/// Dense remapping unit: original source id <-> dense main-region index.
pub struct SghUnit {
    slots: Vec<Slot>,
    /// Tag lane: `slots.len() + GROUP` bytes, where the trailing [`GROUP`]
    /// bytes mirror the leading ones so wrapping group loads stay
    /// contiguous. Fingerprint byte when occupied, [`TAG_EMPTY`] otherwise
    /// (SGH never deletes, so there is no tombstone state).
    tags: Vec<u8>,
    /// Inverse mapping: dense id -> original id.
    reverse: Vec<VertexId>,
    mask: usize,
    /// Resize when len * 4 > capacity * 3 (load factor 0.75).
    len: usize,
}

impl SghUnit {
    /// Creates an empty unit with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// Creates an empty unit sized for at least `cap` vertices.
    pub fn with_capacity(cap: usize) -> Self {
        let n = cap.next_power_of_two().max(16);
        SghUnit {
            slots: vec![EMPTY_SLOT; n],
            tags: vec![TAG_EMPTY; n + GROUP],
            reverse: Vec::new(),
            mask: n - 1,
            len: 0,
        }
    }

    /// Number of distinct source vertices hashed so far (= number of
    /// non-empty vertices in the main region).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no vertex has been hashed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes a tag byte, maintaining the wrap-around mirror.
    #[inline]
    fn set_tag(&mut self, pos: usize, tag: u8) {
        self.tags[pos] = tag;
        if pos < GROUP {
            self.tags[self.slots.len() + pos] = tag;
        }
    }

    /// Looks up the dense id for an original id, if it has been hashed.
    #[inline]
    pub fn get(&self, orig: VertexId) -> Option<u32> {
        self.get_hashed(mix64(orig as u64), orig)
    }

    /// [`get`](Self::get) with the `mix64(orig)` hash precomputed by the
    /// caller, so one mix per update covers both lookup and insert probes.
    ///
    /// Scans eight tag bytes per step from the home slot, verifies
    /// fingerprint candidates against the full key, and stops at the first
    /// group containing a truly-empty slot (exact — SGH never deletes, so
    /// a probe cluster cannot span an empty slot). The mirror tail makes
    /// the unaligned wrapping loads contiguous.
    #[inline]
    pub fn get_hashed(&self, hash: u64, orig: VertexId) -> Option<u32> {
        debug_assert_ne!(orig, NIL_VERTEX, "NIL_VERTEX is reserved");
        debug_assert_eq!(hash, mix64(orig as u64), "hash must be mix64(orig)");
        let n = self.slots.len();
        let tag = tag_of_hash(hash);
        let mut at = (hash as usize) & self.mask;
        let mut scanned = 0usize;
        loop {
            let group = load(&self.tags, at);
            for lane in indices(match_tag(group, tag)) {
                let i = (at + lane) & self.mask;
                let s = &self.slots[i];
                if s.key == orig {
                    return Some(s.value);
                }
            }
            if match_empty(group) != 0 {
                return None;
            }
            at = (at + GROUP) & self.mask;
            scanned += GROUP;
            if scanned >= n {
                // Defensive: load factor 0.75 guarantees an empty slot, so
                // a full cycle without one cannot happen on a valid table.
                return None;
            }
        }
    }

    /// Returns the dense id for `orig`, assigning the next unused index on
    /// first sight (the paper's "obtaining the next unused index location in
    /// the EdgeblockArray starting from zero").
    pub fn get_or_insert(&mut self, orig: VertexId) -> u32 {
        self.get_or_insert_hashed(mix64(orig as u64), orig)
    }

    /// [`get_or_insert`](Self::get_or_insert) with the hash precomputed:
    /// the miss path reuses it for the fresh insert instead of remixing.
    pub fn get_or_insert_hashed(&mut self, hash: u64, orig: VertexId) -> u32 {
        if let Some(v) = self.get_hashed(hash, orig) {
            return v;
        }
        self.insert_absent_hashed(hash, orig)
    }

    /// Registers a source known to be absent (the caller already probed with
    /// the same `hash` and missed) and returns its new dense id. Lets the
    /// insert hot path compute the source hash exactly once per operation
    /// instead of re-probing on the miss path.
    pub fn insert_absent_hashed(&mut self, hash: u64, orig: VertexId) -> u32 {
        debug_assert!(self.get_hashed(hash, orig).is_none());
        let dense = self.reverse.len() as u32;
        self.reverse.push(orig);
        self.insert_fresh_hashed(hash, orig, dense);
        // New-source path only (not re-hit on grow-rehash): feeds the
        // live-vertex gauge of the telemetry /healthz endpoint.
        crate::metrics::global().sgh_sources.inc();
        dense
    }

    /// Original id for a dense id (panics if out of range).
    #[inline]
    pub fn original_of(&self, dense: u32) -> VertexId {
        self.reverse[dense as usize]
    }

    /// Iterates over `(dense, original)` pairs in dense order.
    pub fn iter_dense(&self) -> impl Iterator<Item = (u32, VertexId)> + '_ {
        self.reverse.iter().enumerate().map(|(d, &o)| (d as u32, o))
    }

    /// Maximum probe distance currently in the table (diagnostic).
    pub fn max_probe(&self) -> u16 {
        self.slots.iter().filter(|s| s.key != NIL_VERTEX).map(|s| s.probe).max().unwrap_or(0)
    }

    /// Checks that every tag byte matches its slot (fingerprint when
    /// occupied, [`TAG_EMPTY`] when free) and that the mirror tail agrees
    /// with the table head. Part of `validate_tag_invariants`.
    pub fn validate_tags(&self) -> Result<(), String> {
        let n = self.slots.len();
        if self.tags.len() != n + GROUP {
            return Err(format!("SGH tag lane length {} != {} + {GROUP}", self.tags.len(), n));
        }
        for (i, s) in self.slots.iter().enumerate() {
            let want =
                if s.key == NIL_VERTEX { TAG_EMPTY } else { tag_of_hash(mix64(s.key as u64)) };
            if self.tags[i] != want {
                return Err(format!(
                    "SGH slot {i} (key {}): tag {:#04x}, want {want:#04x}",
                    s.key, self.tags[i]
                ));
            }
        }
        for i in 0..GROUP {
            if self.tags[n + i] != self.tags[i] {
                return Err(format!(
                    "SGH mirror byte {i}: {:#04x} != head {:#04x}",
                    self.tags[n + i],
                    self.tags[i]
                ));
            }
        }
        Ok(())
    }

    /// Heap footprint of the table in bytes (slots + tags + reverse map).
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.tags.capacity()
            + self.reverse.capacity() * std::mem::size_of::<VertexId>()
    }

    fn insert_fresh(&mut self, key: VertexId, value: u32) {
        self.insert_fresh_hashed(mix64(key as u64), key, value);
    }

    fn insert_fresh_hashed(&mut self, hash: u64, key: VertexId, value: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        self.len += 1;
        let mut floating = Slot { key, value, probe: 0 };
        let mut ftag = tag_of_hash(hash);
        // The mask may have just changed in `grow`; the hash is mask-free.
        let mut pos = (hash as usize) & self.mask;
        loop {
            if self.slots[pos].key == NIL_VERTEX {
                // Probe histogram sampled on the (rare) new-source path, so
                // the per-op lookup path stays free of atomic traffic. The
                // placement probe bounds the lookup probe of this key, and
                // rehash during `grow` re-records the whole table, keeping
                // the histogram tracking table health over time.
                crate::metrics::global().sgh_probe.record(floating.probe as u64);
                self.slots[pos] = floating;
                self.set_tag(pos, ftag);
                return;
            }
            if self.slots[pos].probe < floating.probe {
                // The displaced resident carries its tag byte with it.
                std::mem::swap(&mut self.slots[pos], &mut floating);
                let displaced_tag = self.tags[pos];
                self.set_tag(pos, ftag);
                ftag = displaced_tag;
            }
            pos = (pos + 1) & self.mask;
            floating.probe += 1;
        }
    }

    fn grow(&mut self) {
        crate::metrics::global().sgh_grows.inc();
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_cap]);
        self.tags = vec![TAG_EMPTY; new_cap + GROUP];
        self.mask = self.slots.len() - 1;
        self.len = 0;
        for s in old {
            if s.key != NIL_VERTEX {
                self.insert_fresh(s.key, s.value);
            }
        }
    }
}

impl Default for SghUnit {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SghUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SghUnit")
            .field("len", &self.len)
            .field("capacity", &self.slots.len())
            .field("max_probe", &self.max_probe())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigns_dense_ids_in_arrival_order() {
        let mut sgh = SghUnit::new();
        assert_eq!(sgh.get_or_insert(34), 0);
        assert_eq!(sgh.get_or_insert(22789), 1);
        assert_eq!(sgh.get_or_insert(7), 2);
        // Re-presenting an id returns the original mapping.
        assert_eq!(sgh.get_or_insert(22789), 1);
        assert_eq!(sgh.len(), 3);
    }

    #[test]
    fn reverse_mapping_roundtrips() {
        let mut sgh = SghUnit::new();
        for orig in [100u32, 5, 9_000_000, 0, 42] {
            let d = sgh.get_or_insert(orig);
            assert_eq!(sgh.original_of(d), orig);
        }
    }

    #[test]
    fn get_on_missing_returns_none() {
        let mut sgh = SghUnit::new();
        sgh.get_or_insert(1);
        assert_eq!(sgh.get(2), None);
        assert_eq!(sgh.get(1), Some(0));
    }

    #[test]
    fn survives_growth() {
        let mut sgh = SghUnit::with_capacity(16);
        for i in 0..10_000u32 {
            assert_eq!(sgh.get_or_insert(i * 3 + 1), i);
        }
        for i in 0..10_000u32 {
            assert_eq!(sgh.get(i * 3 + 1), Some(i), "lost mapping after growth");
            assert_eq!(sgh.original_of(i), i * 3 + 1);
        }
        assert_eq!(sgh.len(), 10_000);
        sgh.validate_tags().unwrap();
    }

    #[test]
    fn iter_dense_is_ordered_and_complete() {
        let mut sgh = SghUnit::new();
        let origs = [9u32, 4, 77, 12];
        for &o in &origs {
            sgh.get_or_insert(o);
        }
        let pairs: Vec<_> = sgh.iter_dense().collect();
        assert_eq!(pairs, vec![(0, 9), (1, 4), (2, 77), (3, 12)]);
    }

    #[test]
    fn probe_distances_stay_small_under_load() {
        let mut sgh = SghUnit::with_capacity(16);
        for i in 0..50_000u32 {
            sgh.get_or_insert(i.wrapping_mul(2_654_435_761));
        }
        // Robin Hood at load 0.75 keeps the max probe small; allow slack.
        assert!(sgh.max_probe() < 64, "max probe {} unexpectedly large", sgh.max_probe());
        sgh.validate_tags().unwrap();
    }

    #[test]
    fn hashed_variants_match_unhashed() {
        let mut a = SghUnit::with_capacity(16);
        let mut b = SghUnit::with_capacity(16);
        for i in 0..5_000u32 {
            let orig = i.wrapping_mul(2_654_435_761) | 1;
            let h = mix64(orig as u64);
            assert_eq!(a.get_or_insert(orig), b.get_or_insert_hashed(h, orig));
            assert_eq!(a.get(orig), b.get_hashed(h, orig));
        }
        assert_eq!(a.len(), b.len());
    }

    /// Reference model of [`SghUnit::get`]: the slot-walking Robin Hood
    /// probe, reading no tags.
    fn get_scalar(sgh: &SghUnit, orig: VertexId) -> Option<u32> {
        let mut pos = (mix64(orig as u64) as usize) & sgh.mask;
        let mut probe: u16 = 0;
        loop {
            let s = &sgh.slots[pos];
            if s.key == orig {
                return Some(s.value);
            }
            // Robin Hood invariant: if the resident's probe distance is
            // smaller than ours would be, the key cannot be further on.
            if s.key == NIL_VERTEX || s.probe < probe {
                return None;
            }
            pos = (pos + 1) & sgh.mask;
            probe += 1;
        }
    }

    #[test]
    fn tagged_and_seed_probes_agree() {
        // Every present and absent lookup must agree with the slot walk,
        // through multiple grows (which rebuild the lane) and wrap-around
        // clusters.
        let mut sgh = SghUnit::with_capacity(16);
        for i in 0..20_000u32 {
            let orig = i.wrapping_mul(2_654_435_761) | 1;
            assert_eq!(get_scalar(&sgh, orig), None);
            assert_eq!(sgh.get_or_insert(orig), i);
        }
        for i in 0..40_000u32 {
            let orig = i.wrapping_mul(2_654_435_761) | 1;
            assert_eq!(sgh.get(orig), get_scalar(&sgh, orig), "lookup diverged for {orig}");
            // A key that was never inserted (even ids).
            assert_eq!(sgh.get(orig ^ 1), get_scalar(&sgh, orig ^ 1));
        }
        sgh.validate_tags().unwrap();
    }

    #[test]
    fn mirror_tracks_head_writes() {
        // Keys that land in the first GROUP slots must be visible through
        // the mirror (exercised by wrapping lookups near the table end).
        let mut sgh = SghUnit::with_capacity(16);
        for i in 0..12u32 {
            sgh.get_or_insert(i * 7 + 3);
        }
        sgh.validate_tags().unwrap();
        for i in 0..12u32 {
            assert!(sgh.get(i * 7 + 3).is_some());
        }
    }

    #[test]
    fn empty_unit_behaves() {
        let sgh = SghUnit::new();
        assert!(sgh.is_empty());
        assert_eq!(sgh.get(5), None);
        assert_eq!(sgh.max_probe(), 0);
        assert_eq!(sgh.iter_dense().count(), 0);
        sgh.validate_tags().unwrap();
        assert!(sgh.memory_bytes() > 0);
    }
}
