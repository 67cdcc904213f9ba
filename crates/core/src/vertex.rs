//! The VertexPropertyArray: per-vertex metadata, indexed by the (dense)
//! main-region index of the vertex.
//!
//! The paper stores "the degree, value and any flags" of each vertex here;
//! the graph engine reads degrees during inference (total degree of the
//! active set). Algorithm values live in the engine's own arrays, so a
//! slot here holds only the original id and the degree.

use gtinker_types::{VertexId, Weight, NIL_VERTEX};

/// Storage tier of a vertex's adjacency in the degree-adaptive layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tier {
    /// Small-degree: edges packed inline in the vertex entry, no edgeblock.
    Inline = 0,
    /// Mid-degree: the paper's RHH edgeblock hierarchy.
    Blocks = 1,
    /// High-degree: sorted dense segment ([`crate::hubseg::HubSegment`]).
    Hub = 2,
}

/// Fixed-width inline adjacency for the small-degree tier: up to
/// [`gtinker_types::INLINE_CAP_MAX`] edges packed into the vertex entry,
/// probed with one branchless 4-wide compare.
#[derive(Debug, Clone, Copy)]
pub struct InlineAdj {
    /// Destination per slot; empty slots hold [`NIL_VERTEX`].
    pub dsts: [VertexId; 4],
    /// Weight per slot.
    pub weights: [Weight; 4],
    /// Number of occupied slots (always a prefix).
    pub len: u8,
}

impl InlineAdj {
    /// An inline entry with no edges.
    pub const EMPTY: InlineAdj = InlineAdj { dsts: [NIL_VERTEX; 4], weights: [0; 4], len: 0 };

    /// Slot index of `dst`, if present. Empty slots hold [`NIL_VERTEX`] and
    /// `dst` is never the sentinel, so all four lanes compare unconditionally
    /// — one vectorizable bitmask, no length masking.
    #[inline]
    pub fn find(&self, dst: VertexId) -> Option<usize> {
        let d = self.dsts;
        let mask = (d[0] == dst) as u32
            | (((d[1] == dst) as u32) << 1)
            | (((d[2] == dst) as u32) << 2)
            | (((d[3] == dst) as u32) << 3);
        (mask != 0).then(|| mask.trailing_zeros() as usize)
    }

    /// Appends an edge. The caller must have checked capacity and absence.
    #[inline]
    pub fn push(&mut self, dst: VertexId, weight: Weight) {
        debug_assert!(self.find(dst).is_none());
        debug_assert!((self.len as usize) < 4);
        let i = self.len as usize;
        self.dsts[i] = dst;
        self.weights[i] = weight;
        self.len += 1;
    }

    /// Swap-removes the slot at `idx`.
    #[inline]
    pub fn remove(&mut self, idx: usize) {
        debug_assert!(idx < self.len as usize);
        let last = self.len as usize - 1;
        self.dsts[idx] = self.dsts[last];
        self.weights[idx] = self.weights[last];
        self.dsts[last] = NIL_VERTEX;
        self.weights[last] = 0;
        self.len = last as u8;
    }
}

/// Properties of one vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexProperty {
    /// The vertex's original (external) id.
    pub original_id: VertexId,
    /// Current out-degree (live edges owned by this vertex).
    pub out_degree: u32,
}

impl VertexProperty {
    const EMPTY: VertexProperty = VertexProperty { original_id: NIL_VERTEX, out_degree: 0 };
}

/// Dense array of vertex properties.
#[derive(Debug, Default)]
pub struct VertexPropertyArray {
    props: Vec<VertexProperty>,
}

impl VertexPropertyArray {
    /// Creates an empty array.
    pub fn new() -> Self {
        VertexPropertyArray { props: Vec::new() }
    }

    /// Number of slots (= allocated main-region indices).
    #[inline]
    pub fn len(&self) -> usize {
        self.props.len()
    }

    /// Whether no vertex has been registered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }

    /// Ensures slot `dense` exists, registering `original_id` on first
    /// touch, and returns a mutable reference to it.
    pub fn ensure(&mut self, dense: u32, original_id: VertexId) -> &mut VertexProperty {
        let idx = dense as usize;
        if idx >= self.props.len() {
            self.props.resize(idx + 1, VertexProperty::EMPTY);
        }
        let p = &mut self.props[idx];
        if p.original_id == NIL_VERTEX {
            p.original_id = original_id;
        }
        debug_assert_eq!(p.original_id, original_id, "dense slot bound to a different vertex");
        p
    }

    /// The property slot of `dense`, if allocated.
    #[inline]
    pub fn get(&self, dense: u32) -> Option<&VertexProperty> {
        self.props.get(dense as usize)
    }

    /// Mutable access to the property slot of `dense`, if allocated.
    #[inline]
    pub fn get_mut(&mut self, dense: u32) -> Option<&mut VertexProperty> {
        self.props.get_mut(dense as usize)
    }

    /// Out-degree of `dense` (0 if the slot was never allocated).
    #[inline]
    pub fn out_degree(&self, dense: u32) -> u32 {
        self.get(dense).map_or(0, |p| p.out_degree)
    }

    /// Iterates `(dense, &property)` over allocated slots.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &VertexProperty)> {
        self.props.iter().enumerate().map(|(i, p)| (i as u32, p))
    }

    /// Sum of all out-degrees (= live edge count, cross-check).
    pub fn total_degree(&self) -> u64 {
        self.props.iter().map(|p| p.out_degree as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_allocates_and_binds_original_id() {
        let mut v = VertexPropertyArray::new();
        v.ensure(3, 900).out_degree = 5;
        assert_eq!(v.len(), 4);
        assert_eq!(v.get(3).unwrap().original_id, 900);
        assert_eq!(v.out_degree(3), 5);
        // Intermediate slots exist but are unbound.
        assert_eq!(v.get(1).unwrap().original_id, NIL_VERTEX);
    }

    #[test]
    fn get_out_of_range_is_none_and_degree_zero() {
        let v = VertexPropertyArray::new();
        assert!(v.get(0).is_none());
        assert_eq!(v.out_degree(17), 0);
        assert!(v.is_empty());
    }

    #[test]
    fn ensure_is_idempotent() {
        let mut v = VertexPropertyArray::new();
        v.ensure(0, 42).out_degree = 1;
        v.ensure(0, 42).out_degree += 1;
        assert_eq!(v.out_degree(0), 2);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn inline_adj_push_find_remove() {
        let mut a = InlineAdj::EMPTY;
        assert_eq!(a.find(7), None);
        a.push(7, 70);
        a.push(9, 90);
        a.push(11, 110);
        assert_eq!(a.len, 3);
        assert_eq!(a.find(9), Some(1));
        assert_eq!(a.find(8), None);
        // Swap-remove pulls the last slot into the hole.
        a.remove(0);
        assert_eq!(a.len, 2);
        assert_eq!(a.find(7), None);
        let i = a.find(11).unwrap();
        assert_eq!((i, a.dsts[i], a.weights[i]), (0, 11, 110));
        assert!(a.find(9).is_some());
    }

    #[test]
    fn total_degree_sums() {
        let mut v = VertexPropertyArray::new();
        v.ensure(0, 10).out_degree = 3;
        v.ensure(1, 11).out_degree = 4;
        assert_eq!(v.total_degree(), 7);
        let pairs: Vec<_> = v.iter().map(|(d, p)| (d, p.out_degree)).collect();
        assert_eq!(pairs, vec![(0, 3), (1, 4)]);
    }
}
