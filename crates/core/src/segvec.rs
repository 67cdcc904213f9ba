//! A growable table stored as a run of fixed-length segments.
//!
//! The store's big flat tables — the arena lanes, the CAL records, the
//! inline entries — only ever grow at the end, a page or a block at a
//! time. Under a `Vec` that growth is amortised doubling: up to half the
//! allocation is slack and every doubling re-copies the table. A
//! [`SegVec`] allocates one segment at a time instead, so allocated bytes
//! exceed used bytes by at most one segment, an element never moves once
//! written, and [`allocated_bytes`](SegVec::allocated_bytes) is exact.
//!
//! The segment length is a power of two (an index splits with a shift and
//! a mask), so whole power-of-two units — pages, CAL blocks — no longer
//! than a segment never straddle one: what [`slice`](SegVec::slice) needs.

use std::ops::{Index, IndexMut};

/// Default segment length in elements; callers whose unit is longer pass
/// the unit length instead.
pub const SEGMENT_LEN: usize = 4096;

/// A growable table of `T` in fixed-length segments.
#[derive(Debug)]
pub struct SegVec<T> {
    /// Every segment is opened at full capacity and all but the last are
    /// full. (A clone's last segment is as long as its contents and grows
    /// like any `Vec`; the accounting stays truthful, only less tight.)
    segs: Vec<Vec<T>>,
    /// log2 of the segment length.
    shift: u32,
    len: usize,
}

impl<T: Copy> SegVec<T> {
    /// An empty table whose segments hold `segment_len` elements (a power
    /// of two). Allocates nothing until the first element arrives.
    pub fn new(segment_len: usize) -> Self {
        assert!(segment_len.is_power_of_two(), "segment length must be a power of two");
        SegVec { segs: Vec::new(), shift: segment_len.trailing_zeros(), len: 0 }
    }

    /// Elements per segment.
    #[inline]
    pub fn segment_len(&self) -> usize {
        1 << self.shift
    }

    /// Elements stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(segment, offset within it)` of element `i`.
    #[inline]
    fn split(&self, i: usize) -> (usize, usize) {
        (i >> self.shift, i & (self.segment_len() - 1))
    }

    /// Appends one element.
    #[inline]
    pub fn push(&mut self, value: T) {
        self.extend_with(1, value);
    }

    /// Appends `n` copies of `value`, opening new segments as the last one
    /// fills.
    pub fn extend_with(&mut self, mut n: usize, value: T) {
        let seg_len = self.segment_len();
        while n > 0 {
            if self.len == self.segs.len() << self.shift {
                self.segs.push(Vec::with_capacity(seg_len));
            }
            let last = self.segs.last_mut().expect("a segment with room was just ensured");
            let take = n.min(seg_len - last.len());
            last.resize(last.len() + take, value);
            self.len += take;
            n -= take;
        }
    }

    /// Element `i`, if stored.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        let (s, o) = self.split(i);
        self.segs.get(s)?.get(o)
    }

    /// Mutable element `i`, if stored.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        let (s, o) = self.split(i);
        self.segs.get_mut(s)?.get_mut(o)
    }

    /// The `len` elements from `start`, which must lie inside one segment
    /// (whole power-of-two units always do).
    #[inline]
    pub fn slice(&self, start: usize, len: usize) -> &[T] {
        let (s, o) = self.split(start);
        &self.segs[s][o..o + len]
    }

    /// Mutable [`slice`](Self::slice).
    #[inline]
    pub fn slice_mut(&mut self, start: usize, len: usize) -> &mut [T] {
        let (s, o) = self.split(start);
        &mut self.segs[s][o..o + len]
    }

    /// Every element in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.segs.iter().flatten()
    }

    /// Heap bytes held: every segment at its capacity plus the segment
    /// directory.
    pub fn allocated_bytes(&self) -> usize {
        self.segs.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<T>()
            + self.segs.capacity() * std::mem::size_of::<Vec<T>>()
    }
}

impl<T: Copy> Index<usize> for SegVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        let (s, o) = self.split(i);
        &self.segs[s][o]
    }
}

impl<T: Copy> IndexMut<usize> for SegVec<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        let (s, o) = self.split(i);
        &mut self.segs[s][o]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_allocates_nothing() {
        let v: SegVec<u32> = SegVec::new(8);
        assert!(v.is_empty());
        assert_eq!((v.len(), v.segment_len(), v.allocated_bytes()), (0, 8, 0));
        assert_eq!(v.get(0), None);
        assert_eq!(v.iter().count(), 0);
    }

    #[test]
    fn indexing_crosses_segment_boundaries() {
        let mut v = SegVec::new(4);
        for i in 0..11u32 {
            v.push(i * 10);
        }
        assert_eq!(v.len(), 11);
        for i in 0..11usize {
            assert_eq!(v[i], i as u32 * 10);
            assert_eq!(v.get(i), Some(&(i as u32 * 10)));
        }
        assert_eq!(v.get(11), None);
        v[4] = 7; // first slot of the second segment
        *v.get_mut(3).unwrap() = 9; // last slot of the first
        assert_eq!(v.iter().copied().take(5).collect::<Vec<_>>(), vec![0, 10, 20, 9, 7]);
    }

    #[test]
    fn extend_with_fills_across_segments_without_moving_elements() {
        let mut v = SegVec::new(4);
        v.extend_with(3, 1u8);
        let first = v.slice(0, 3).as_ptr();
        v.extend_with(6, 2u8);
        assert_eq!(v.len(), 9);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), [1, 1, 1, 2, 2, 2, 2, 2, 2]);
        assert_eq!(v.slice(0, 3).as_ptr(), first, "growth must not re-copy a segment");
    }

    #[test]
    fn whole_units_slice_inside_one_segment() {
        // Units of 4 in segments of 8: two units per segment.
        let mut v = SegVec::new(8);
        for unit in 0..5u32 {
            v.extend_with(4, unit);
        }
        for unit in 0..5usize {
            assert_eq!(v.slice(unit * 4, 4), [unit as u32; 4]);
        }
        v.slice_mut(12, 4).fill(99);
        assert_eq!(v[11], 2);
        assert_eq!(v.slice(12, 4), [99; 4]);
        assert_eq!(v[16], 4);
    }

    #[test]
    #[should_panic]
    fn a_slice_across_a_segment_boundary_panics() {
        let mut v = SegVec::new(4);
        v.extend_with(8, 0u8);
        v.slice(2, 4);
    }

    #[test]
    fn allocated_bytes_is_used_plus_at_most_one_segment() {
        let mut v = SegVec::new(16);
        for n in 1..=100usize {
            v.push(n as u64);
            let used = n * 8;
            let directory = v.allocated_bytes() - n.div_ceil(16) * 16 * 8;
            assert!(v.allocated_bytes() >= used);
            assert!(v.allocated_bytes() - directory < used + 16 * 8, "slack over one segment");
        }
    }
}
