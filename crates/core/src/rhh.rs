//! Robin Hood Hashing within a subblock.
//!
//! The RHH algorithm (paper §III.A, Fig. 1) keeps the *variance* of probe
//! distances low: when a floating edge meets an occupied bucket, whichever
//! of the two is currently "richer" (smaller probe distance) yields the
//! bucket, and the evicted edge continues probing. In GraphTinker the hash
//! table under RHH is one subblock; when the floating edge has probed every
//! cell of the subblock without finding a vacancy, the subblock is congested
//! and Tree-Based Hashing branches out to a child edgeblock.
//!
//! Every subblock carries a parallel SWAR tag lane (see [`crate::swar`]):
//! one control byte per cell holding the destination's 7-bit fingerprint or
//! a vacancy sentinel. The insertion functions maintain the lane; the scans
//! consult it to match fingerprints eight-at-a-time and touch full-width
//! [`EdgeCell`]s only on candidate hits. The cell-walking scans they
//! replaced survive as reference models in this module's unit tests.
//!
//! The functions here operate on bare `&mut [EdgeCell]` / `&mut [u8]`
//! slices (one subblock) so they can be unit-tested and property-tested in
//! isolation from the arena.

use gtinker_types::{VertexId, Weight};

use crate::edgeblock::{CellState, EdgeCell};
use crate::swar::{
    self, first_index, indices, load, load_padded, low_lanes, match_tag, match_vacant, GROUP,
    TAG_TOMBSTONE,
};

/// An edge not yet anchored in a cell: either a fresh insertion or an edge
/// displaced by a Robin Hood swap. The CAL pointer travels with it, so the
/// CAL copy never has to move when the main copy does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Floating {
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight.
    pub weight: Weight,
    /// CAL pointer of this edge's copy (or `NIL_U32`).
    pub cal_ptr: u32,
}

/// Result of attempting to place a floating edge into a subblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RhhOutcome {
    /// The edge (or, after swaps, *an* edge) was anchored at this offset
    /// within the subblock; every displaced edge was also re-anchored.
    Placed,
    /// The subblock is congested: after probing every cell, this edge is
    /// still floating and must branch out to the child edgeblock.
    Overflow(Floating),
}

/// Outcome of one tagged subblock scan, with the cost accounting the probe
/// statistics need: `inspected` counts full-width cells actually compared
/// (candidates), `groups` counts `u64` tag loads, `false_positives` counts
/// candidates whose full destination then mismatched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagScan {
    /// Offset of the matching cell, if found.
    pub hit: Option<usize>,
    /// Full-width cells compared (candidate verifications).
    pub inspected: u64,
    /// 8-wide tag groups loaded.
    pub groups: u64,
    /// Candidates whose fingerprint matched but whose destination did not.
    pub false_positives: u64,
}

/// SWAR scan of a subblock for a live edge to `dst` with fingerprint `tag`.
///
/// Loads the tag lane eight bytes at a time and compares the full
/// destination only at lanes whose fingerprint matches, so a miss in an
/// 8-cell subblock costs one `u64` load and zero cell touches in the common
/// case. A fingerprint match can never land on a vacant lane (sentinels
/// have the high bit set, fingerprints do not — see [`crate::swar`]), so
/// candidates need no occupancy check. The whole subblock is examined:
/// tombstones do not terminate a probe sequence, and delete-and-compact
/// mode stores edges without the RHH probe invariant.
#[inline]
pub fn find_in_subblock(cells: &[EdgeCell], tags: &[u8], dst: VertexId, tag: u8) -> TagScan {
    let n = cells.len();
    debug_assert_eq!(tags.len(), n);
    let mut scan = TagScan::default();
    let mut at = 0;
    while at < n {
        let group = if n - at >= GROUP { load(tags, at) } else { load_padded(tags, at) };
        scan.groups += 1;
        for lane in indices(match_tag(group, tag)) {
            let i = at + lane;
            debug_assert!(i < n, "padding lanes cannot fingerprint-match");
            scan.inspected += 1;
            if cells[i].dst == dst {
                scan.hit = Some(i);
                return scan;
            }
            scan.false_positives += 1;
        }
        at += GROUP;
    }
    scan
}

/// First vacant (empty or tombstoned) offset on the circular probe path
/// from `bucket`, read from the tag lane alone (the vacancy matcher is
/// exact, so no cell is touched).
#[inline]
pub fn first_vacant(tags: &[u8], bucket: usize) -> Option<usize> {
    let n = tags.len();
    debug_assert!(n.is_power_of_two() && bucket < n);
    if n <= GROUP {
        let v = match_vacant(load_padded(tags, 0)) & low_lanes(n);
        let after = v & !low_lanes(bucket);
        return first_index(if after != 0 { after } else { v });
    }
    // n is a multiple of GROUP: aligned groups tile the subblock exactly.
    let g0 = bucket & !(GROUP - 1);
    let lane0 = bucket - g0;
    for k in 0..n / GROUP {
        let at = (g0 + k * GROUP) & (n - 1);
        let mut v = match_vacant(load(tags, at));
        if k == 0 {
            v &= !low_lanes(lane0);
        }
        if let Some(l) = first_index(v) {
            return Some(at + l);
        }
    }
    // Wrapped all the way around: only the start group's low lanes remain.
    first_index(match_vacant(load(tags, g0)) & low_lanes(lane0)).map(|l| g0 + l)
}

/// Whether the subblock has any vacant slot, answered from the tag lane
/// (one or two `u64` tests for the default geometries). The insertion
/// walk's vacancy scout uses this instead of touching cells.
#[inline]
pub fn has_vacant_tags(tags: &[u8]) -> bool {
    let n = tags.len();
    let mut at = 0;
    while at < n {
        let avail = n - at;
        let v = if avail >= GROUP {
            match_vacant(load(tags, at))
        } else {
            match_vacant(load_padded(tags, at)) & low_lanes(avail)
        };
        if v != 0 {
            return true;
        }
        at += GROUP;
    }
    false
}

/// Robin Hood insertion of `edge` into a subblock, probing from `bucket`.
///
/// `tag` is the floating edge's fingerprint byte; the tag lane is kept in
/// lockstep with the cells through placements and displacement swaps (a
/// displaced resident takes its tag byte along), so it stays valid in both
/// scan modes. The walk itself is inherently scalar — every visited
/// resident's probe distance must be compared to maintain the Robin Hood
/// invariant — so the SWAR win on the insert path comes from the callers'
/// find/vacancy pre-checks, not from this loop.
///
/// `inspected` is incremented once per cell touched, feeding the probe
/// statistics the paper reports. The loop visits at most `cells.len()`
/// positions: each step either places into a vacancy, swaps with a richer
/// resident, or moves on; after a full cycle without a vacancy the current
/// floating edge overflows to the caller for tree-based branching. The
/// `rhh_probe` histogram records the cells inspected by this placement (the
/// same unit [`linear_insert`] records), one observation per call.
pub fn rhh_insert(
    cells: &mut [EdgeCell],
    tags: &mut [u8],
    bucket: usize,
    edge: Floating,
    tag: u8,
    inspected: &mut u64,
) -> RhhOutcome {
    let n = cells.len();
    debug_assert!(bucket < n);
    debug_assert_eq!(tags.len(), n);
    debug_assert!(n.is_power_of_two(), "subblock length must be a power of two");
    debug_assert!(n <= u8::MAX as usize + 1, "probe distance must fit in u8");
    debug_assert!(swar::tag_is_occupied(tag));
    let mask = n - 1;
    let m = crate::metrics::global();
    // Metric traffic is kept to at most one histogram record and one
    // counter add per call, no matter how long the displacement chain gets.
    let mut displacements: u64 = 0;
    let mut touched: u64 = 0;
    let mut floating = edge;
    let mut ftag = tag;
    let mut probe: usize = 0;
    let mut pos = bucket;
    loop {
        if probe == n {
            m.rhh_overflows.inc();
            m.rhh_probe.record(touched);
            if displacements > 0 {
                m.rhh_displacements.add(displacements);
            }
            return RhhOutcome::Overflow(floating);
        }
        *inspected += 1;
        touched += 1;
        let cell = &mut cells[pos];
        if cell.is_vacant() {
            *cell = EdgeCell {
                dst: floating.dst,
                weight: floating.weight,
                cal_ptr: floating.cal_ptr,
                probe: probe as u8,
                state: CellState::Occupied,
            };
            tags[pos] = ftag;
            m.rhh_probe.record(touched);
            if displacements > 0 {
                m.rhh_displacements.add(displacements);
            }
            return RhhOutcome::Placed;
        }
        if (cell.probe as usize) < probe {
            // The resident is richer: it yields the bucket and floats on,
            // carrying its tag byte with it.
            let displaced = Floating { dst: cell.dst, weight: cell.weight, cal_ptr: cell.cal_ptr };
            let displaced_probe = cell.probe as usize;
            *cell = EdgeCell {
                dst: floating.dst,
                weight: floating.weight,
                cal_ptr: floating.cal_ptr,
                probe: probe as u8,
                state: CellState::Occupied,
            };
            std::mem::swap(&mut tags[pos], &mut ftag);
            displacements += 1;
            floating = displaced;
            probe = displaced_probe;
        }
        pos = (pos + 1) & mask;
        probe += 1;
    }
}

/// Insertion without Robin Hood swapping (delete-and-compact mode, where
/// RHH is disabled): claims the first vacancy on the circular probe path
/// from `bucket`, found in the tag lane, touching exactly one cell on
/// success.
pub fn linear_insert(
    cells: &mut [EdgeCell],
    tags: &mut [u8],
    bucket: usize,
    edge: Floating,
    tag: u8,
    inspected: &mut u64,
) -> RhhOutcome {
    let n = cells.len();
    debug_assert!(n.is_power_of_two());
    debug_assert_eq!(tags.len(), n);
    let m = crate::metrics::global();
    match first_vacant(tags, bucket) {
        Some(pos) => {
            *inspected += 1;
            let probe = (pos + n - bucket) & (n - 1);
            cells[pos] = EdgeCell {
                dst: edge.dst,
                weight: edge.weight,
                cal_ptr: edge.cal_ptr,
                probe: probe as u8,
                state: CellState::Occupied,
            };
            tags[pos] = tag;
            m.rhh_probe.record(1);
            RhhOutcome::Placed
        }
        None => {
            m.rhh_overflows.inc();
            m.rhh_probe.record(0);
            RhhOutcome::Overflow(edge)
        }
    }
}

/// The tag byte a vacant cell must carry after a delete:
/// [`TAG_TOMBSTONE`] in delete-only mode, [`swar::TAG_EMPTY`] when the cell
/// is recycled outright.
#[inline]
pub fn vacant_tag(tombstone: bool) -> u8 {
    if tombstone {
        TAG_TOMBSTONE
    } else {
        swar::TAG_EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::dst_tag;
    use crate::swar::TAG_EMPTY;
    use gtinker_types::NIL_U32;

    fn fl(dst: u32) -> Floating {
        Floating { dst, weight: dst, cal_ptr: NIL_U32 }
    }

    fn empty_sub(n: usize) -> (Vec<EdgeCell>, Vec<u8>) {
        (vec![EdgeCell::EMPTY; n], vec![TAG_EMPTY; n])
    }

    /// Reference model of [`find_in_subblock`]: the cell-walking scan the
    /// tag lane replaced. Vacant cells carry the `NIL_VERTEX` sentinel in
    /// `dst`, so one compare per cell suffices.
    fn find_in_subblock_scalar(cells: &[EdgeCell], dst: VertexId) -> Option<usize> {
        debug_assert!(cells.iter().all(|c| c.is_occupied() || c.dst == gtinker_types::NIL_VERTEX));
        cells.iter().position(|c| c.dst == dst)
    }

    /// Reference model of [`first_vacant`], walking cells one at a time.
    fn first_vacant_scalar(cells: &[EdgeCell], bucket: usize) -> Option<usize> {
        let n = cells.len();
        (0..n).map(|i| (bucket + i) & (n - 1)).find(|&p| cells[p].is_vacant())
    }

    /// Reference model of [`linear_insert`]: the same placement, found by
    /// walking cells.
    fn linear_insert_scalar(
        cells: &mut [EdgeCell],
        tags: &mut [u8],
        bucket: usize,
        edge: Floating,
        tag: u8,
    ) -> RhhOutcome {
        let Some(pos) = first_vacant_scalar(cells, bucket) else {
            return RhhOutcome::Overflow(edge);
        };
        cells[pos] = EdgeCell {
            dst: edge.dst,
            weight: edge.weight,
            cal_ptr: edge.cal_ptr,
            probe: ((pos + cells.len() - bucket) & (cells.len() - 1)) as u8,
            state: CellState::Occupied,
        };
        tags[pos] = tag;
        RhhOutcome::Placed
    }

    /// Insert with the destination's real fingerprint.
    fn ins(cells: &mut [EdgeCell], tags: &mut [u8], bucket: usize, f: Floating, n: &mut u64) {
        rhh_insert(cells, tags, bucket, f, dst_tag(f.dst), n);
    }

    fn assert_tags_consistent(cells: &[EdgeCell], tags: &[u8]) {
        for (c, &t) in cells.iter().zip(tags) {
            match c.state {
                CellState::Occupied => assert_eq!(t, dst_tag(c.dst), "tag mismatch for {}", c.dst),
                CellState::Empty => assert_eq!(t, TAG_EMPTY),
                CellState::Tombstone => assert_eq!(t, TAG_TOMBSTONE),
            }
        }
    }

    #[test]
    fn inserts_into_empty_at_bucket() {
        let (mut cells, mut tags) = empty_sub(8);
        let mut n = 0;
        let out = rhh_insert(&mut cells, &mut tags, 3, fl(42), dst_tag(42), &mut n);
        assert_eq!(out, RhhOutcome::Placed);
        assert_eq!(cells[3].dst, 42);
        assert_eq!(cells[3].probe, 0);
        assert_eq!(n, 1);
        assert_tags_consistent(&cells, &tags);
    }

    #[test]
    fn probes_forward_on_collision() {
        let (mut cells, mut tags) = empty_sub(8);
        let mut n = 0;
        ins(&mut cells, &mut tags, 2, fl(1), &mut n);
        ins(&mut cells, &mut tags, 2, fl(2), &mut n);
        // Equal probe (0 vs 0): incumbent keeps the bucket, newcomer steps on.
        assert_eq!(cells[2].dst, 1);
        assert_eq!(cells[3].dst, 2);
        assert_eq!(cells[3].probe, 1);
        assert_tags_consistent(&cells, &tags);
    }

    #[test]
    fn robin_hood_swap_evicts_richer_resident() {
        // Reproduce the paper's Fig. 1 scenario: a floating edge with a
        // larger probe distance displaces a resident with a smaller one.
        let (mut cells, mut tags) = empty_sub(8);
        let mut n = 0;
        ins(&mut cells, &mut tags, 0, fl(10), &mut n); // at 0, probe 0
        ins(&mut cells, &mut tags, 0, fl(11), &mut n); // at 1, probe 1
        ins(&mut cells, &mut tags, 1, fl(12), &mut n); // bucket 1 taken by probe-1 edge
                                                       // Edge 12 (probe 0 at pos 1) loses to 11 (probe 1); steps to pos 2.
        assert_eq!(cells[1].dst, 11);
        assert_eq!(cells[2].dst, 12);
        assert_eq!(cells[2].probe, 1);

        // Now an edge hashed to 0 arriving late has to walk past both and
        // eventually displaces someone poorer than it.
        ins(&mut cells, &mut tags, 0, fl(13), &mut n);
        // 13: pos0 probe0 vs res probe0 -> step; pos1 probe1 vs probe1 -> step;
        // pos2 probe2 vs probe1 -> swap (12 floats, probe1); 12: pos3 empty.
        assert_eq!(cells[2].dst, 13);
        assert_eq!(cells[2].probe, 2);
        assert_eq!(cells[3].dst, 12);
        assert_eq!(cells[3].probe, 2);
        // Displacement chains must carry tag bytes along with the edges.
        assert_tags_consistent(&cells, &tags);
    }

    #[test]
    fn wraps_around_subblock() {
        let (mut cells, mut tags) = empty_sub(4);
        let mut n = 0;
        for pos in 0..3 {
            ins(&mut cells, &mut tags, pos, fl(pos as u32), &mut n);
        }
        ins(&mut cells, &mut tags, 3, fl(99), &mut n);
        ins(&mut cells, &mut tags, 3, fl(100), &mut n); // wraps to 0.. all full? no: 4 cells, 4 edges -> 5th overflows
                                                        // 4 edges fill the subblock; the fifth must overflow.
        let mut occupied = cells.iter().filter(|c| c.is_occupied()).count();
        assert_eq!(occupied, 4);
        let out = rhh_insert(&mut cells, &mut tags, 1, fl(101), dst_tag(101), &mut n);
        assert!(matches!(out, RhhOutcome::Overflow(_)));
        occupied = cells.iter().filter(|c| c.is_occupied()).count();
        assert_eq!(occupied, 4, "overflow must not lose or duplicate edges");
        assert_tags_consistent(&cells, &tags);
    }

    #[test]
    fn overflow_returns_some_edge_preserving_multiset() {
        let (mut cells, mut tags) = empty_sub(4);
        let mut n = 0;
        let mut all: Vec<u32> = Vec::new();
        let mut overflowed: Vec<u32> = Vec::new();
        for d in 0..6u32 {
            all.push(d);
            match rhh_insert(&mut cells, &mut tags, (d as usize * 3) % 4, fl(d), dst_tag(d), &mut n)
            {
                RhhOutcome::Placed => {}
                RhhOutcome::Overflow(f) => overflowed.push(f.dst),
            }
        }
        let mut stored: Vec<u32> =
            cells.iter().filter(|c| c.is_occupied()).map(|c| c.dst).collect();
        stored.extend(&overflowed);
        stored.sort_unstable();
        assert_eq!(stored, all, "stored + overflowed must equal inserted");
        assert_eq!(overflowed.len(), 2);
        assert_tags_consistent(&cells, &tags);
    }

    #[test]
    fn probe_invariant_holds_after_inserts() {
        // Every occupied cell's stored probe equals its circular distance
        // from the bucket it was hashed to. Track buckets externally.
        let (mut cells, mut tags) = empty_sub(8);
        let mut n = 0;
        let buckets: Vec<(u32, usize)> =
            (0..8).map(|d| (d as u32, (d as usize * 5 + 2) % 8)).collect();
        for &(d, b) in &buckets {
            ins(&mut cells, &mut tags, b, fl(d), &mut n);
        }
        for (pos, c) in cells.iter().enumerate() {
            if c.is_occupied() {
                let b = buckets.iter().find(|&&(d, _)| d == c.dst).unwrap().1;
                let dist = (pos + 8 - b) % 8;
                assert_eq!(dist, c.probe as usize, "edge {} at pos {pos} bucket {b}", c.dst);
            }
        }
    }

    #[test]
    fn tombstone_is_reusable() {
        let (mut cells, mut tags) = empty_sub(4);
        let mut n = 0;
        ins(&mut cells, &mut tags, 0, fl(1), &mut n);
        cells[0] = EdgeCell { state: CellState::Tombstone, ..EdgeCell::EMPTY };
        tags[0] = TAG_TOMBSTONE;
        let out = rhh_insert(&mut cells, &mut tags, 0, fl(2), dst_tag(2), &mut n);
        assert_eq!(out, RhhOutcome::Placed);
        assert_eq!(cells[0].dst, 2);
        assert!(cells[0].is_occupied());
        assert_tags_consistent(&cells, &tags);
    }

    #[test]
    fn find_scans_past_tombstones() {
        let (mut cells, mut tags) = empty_sub(4);
        let mut n = 0;
        ins(&mut cells, &mut tags, 0, fl(1), &mut n);
        ins(&mut cells, &mut tags, 0, fl(2), &mut n);
        // Tombstoning clears the cell back to the NIL sentinel (the delete
        // path's invariant).
        cells[0] = EdgeCell { state: CellState::Tombstone, ..EdgeCell::EMPTY };
        tags[0] = TAG_TOMBSTONE;
        assert_eq!(find_in_subblock_scalar(&cells, 2), Some(1));
        assert_eq!(find_in_subblock_scalar(&cells, 1), None, "tombstoned edge must not be found");
        // The tagged scan agrees on both.
        assert_eq!(find_in_subblock(&cells, &tags, 2, dst_tag(2)).hit, Some(1));
        assert_eq!(find_in_subblock(&cells, &tags, 1, dst_tag(1)).hit, None);
    }

    #[test]
    fn tagged_find_matches_seed_scan_and_counts_costs() {
        let (mut cells, mut tags) = empty_sub(8);
        let mut n = 0;
        for d in [5u32, 9, 13, 21] {
            ins(&mut cells, &mut tags, (d as usize) % 8, fl(d), &mut n);
        }
        for d in 0..64u32 {
            let seed = find_in_subblock_scalar(&cells, d);
            let tagged = find_in_subblock(&cells, &tags, d, dst_tag(d));
            assert_eq!(tagged.hit, seed, "scan disagreement for {d}");
            assert_eq!(tagged.groups, 1, "8-cell subblock is one group");
            // Candidate count = hits + false positives; a hit inspects the
            // matching cell, so inspected >= 1 on every hit.
            assert_eq!(tagged.inspected, tagged.false_positives + u64::from(seed.is_some()));
        }
    }

    #[test]
    fn tagged_vacancy_helpers_agree_with_cells() {
        for n in [4usize, 8, 16] {
            let (mut cells, mut tags) = empty_sub(n);
            let mut ctr = 0;
            // Fill every slot, then punch vacancies at varied offsets.
            for d in 0..n as u32 {
                linear_insert(&mut cells, &mut tags, 0, fl(d + 1), dst_tag(d + 1), &mut ctr);
            }
            assert!(!has_vacant_tags(&tags));
            assert_eq!(first_vacant(&tags, 0), None);
            for hole in [0usize, n / 2, n - 1] {
                let (mut cells, mut tags) = (cells.clone(), tags.clone());
                cells[hole] = EdgeCell { state: CellState::Tombstone, ..EdgeCell::EMPTY };
                tags[hole] = TAG_TOMBSTONE;
                assert!(has_vacant_tags(&tags));
                for bucket in 0..n {
                    assert_eq!(
                        first_vacant(&tags, bucket),
                        first_vacant_scalar(&cells, bucket),
                        "n={n} hole={hole} bucket={bucket}"
                    );
                }
            }
        }
    }

    #[test]
    fn linear_insert_takes_first_vacancy_and_overflows_when_full() {
        let (mut cells, mut tags) = empty_sub(4);
        let mut n = 0;
        let t = |d: u32| dst_tag(d);
        assert_eq!(
            linear_insert(&mut cells, &mut tags, 2, fl(7), t(7), &mut n),
            RhhOutcome::Placed
        );
        assert_eq!(cells[2].dst, 7);
        assert_eq!(
            linear_insert(&mut cells, &mut tags, 2, fl(8), t(8), &mut n),
            RhhOutcome::Placed
        );
        assert_eq!(cells[3].dst, 8);
        assert_eq!(
            linear_insert(&mut cells, &mut tags, 2, fl(9), t(9), &mut n),
            RhhOutcome::Placed
        );
        assert_eq!(cells[0].dst, 9, "wraps to position 0");
        assert_eq!(
            linear_insert(&mut cells, &mut tags, 2, fl(10), t(10), &mut n),
            RhhOutcome::Placed
        );
        assert_eq!(cells[1].dst, 10);
        let out = linear_insert(&mut cells, &mut tags, 2, fl(11), t(11), &mut n);
        assert_eq!(out, RhhOutcome::Overflow(fl(11)), "full subblock overflows the same edge");
        assert_tags_consistent(&cells, &tags);
    }

    #[test]
    fn tagged_linear_insert_places_identically_to_seed() {
        // Same stream into a seed-scanned and a tag-scanned subblock must
        // produce cell-for-cell identical layouts (same slots, same stored
        // probe distances), including through tombstone reuse.
        for sub in [4usize, 8, 16] {
            let (mut a_cells, mut a_tags) = empty_sub(sub);
            let (mut b_cells, mut b_tags) = empty_sub(sub);
            let mut ctr = 0;
            for d in 1..=(sub as u32 * 2) {
                let bucket = (d as usize * 5 + 1) % sub;
                let oa = linear_insert_scalar(&mut a_cells, &mut a_tags, bucket, fl(d), dst_tag(d));
                let ob =
                    linear_insert(&mut b_cells, &mut b_tags, bucket, fl(d), dst_tag(d), &mut ctr);
                assert_eq!(oa, ob, "outcome diverged at {d}");
                if d == sub as u32 / 2 {
                    // Tombstone one slot in both and keep going.
                    let hole = (d as usize) % sub;
                    if a_cells[hole].is_occupied() {
                        a_cells[hole] = EdgeCell { state: CellState::Tombstone, ..EdgeCell::EMPTY };
                        a_tags[hole] = TAG_TOMBSTONE;
                        b_cells[hole] = EdgeCell { state: CellState::Tombstone, ..EdgeCell::EMPTY };
                        b_tags[hole] = TAG_TOMBSTONE;
                    }
                }
            }
            assert_eq!(a_cells, b_cells, "sub={sub}");
            assert_eq!(a_tags, b_tags, "sub={sub}");
            assert_tags_consistent(&b_cells, &b_tags);
        }
    }

    #[test]
    fn inspected_counter_counts_cells_touched() {
        let (mut cells, mut tags) = empty_sub(8);
        let mut n = 0;
        ins(&mut cells, &mut tags, 0, fl(1), &mut n);
        assert_eq!(n, 1);
        ins(&mut cells, &mut tags, 0, fl(2), &mut n);
        assert_eq!(n, 3, "collision probe touches two cells");
        // The tagged linear path touches exactly the placed cell.
        let mut n2 = 0;
        linear_insert(&mut cells, &mut tags, 0, fl(3), dst_tag(3), &mut n2);
        assert_eq!(n2, 1);
    }

    #[test]
    fn vacant_tag_maps_delete_modes() {
        assert_eq!(vacant_tag(true), TAG_TOMBSTONE);
        assert_eq!(vacant_tag(false), TAG_EMPTY);
    }
}
