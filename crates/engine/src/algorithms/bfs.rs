//! Breadth-first search as a GAS program.

use gtinker_types::{VertexId, Weight};

use crate::gas::{GasProgram, IncrementalState};

/// BFS from a root: vertex property = hop count from the root
/// (`u32::MAX` = unreached).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bfs {
    root: VertexId,
}

impl Bfs {
    /// BFS rooted at `root`.
    pub fn new(root: VertexId) -> Self {
        Bfs { root }
    }

    /// The root vertex.
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Sentinel meaning "not reached".
    pub const UNREACHED: u32 = u32::MAX;
}

impl GasProgram for Bfs {
    type Value = u32;

    fn initial_value(&self) -> u32 {
        Self::UNREACHED
    }

    fn process_edge(&self, src_value: u32, _dst: VertexId, _weight: Weight) -> Option<u32> {
        // An unreached vertex (possible among inconsistency seeds) has
        // nothing to propagate.
        (src_value != Self::UNREACHED).then(|| src_value + 1)
    }

    fn reduce(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, old: u32, incoming: u32) -> Option<u32> {
        (incoming < old).then_some(incoming)
    }

    fn roots(&self, _vertex_space: u32) -> Vec<(VertexId, u32)> {
        vec![(self.root, 0)]
    }

    // inconsistent_vertices: default (batch sources) — per the paper, "the
    // vertices affected by the update batch comprise the source vertices of
    // the edges in the update batch" for BFS.
}

// Min-reduce is selective, so the derived witness attribution and invariant
// (`parent_level + 1 == child_level`) are exact: the witness forest is the
// BFS parent tree. Every edge adds one level, so round `k` of a walk from
// the single root reaches exactly the vertices at level `k + 1`.
impl IncrementalState for Bfs {
    const FIRST_REACH_FINAL: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_types::UpdateOp;

    #[test]
    fn process_edge_increments_level() {
        let b = Bfs::new(0);
        assert_eq!(b.process_edge(3, 9, 1), Some(4));
        assert_eq!(b.process_edge(Bfs::UNREACHED, 9, 1), None);
    }

    #[test]
    fn reduce_takes_min_and_apply_is_monotone() {
        let b = Bfs::new(0);
        assert_eq!(b.reduce(7, 3), 3);
        assert_eq!(b.apply(10, 4), Some(4));
        assert_eq!(b.apply(4, 10), None);
        assert_eq!(b.apply(4, 4), None, "equal level is not a change");
    }

    #[test]
    fn roots_seed_the_root_at_zero() {
        assert_eq!(Bfs::new(17).roots(100), vec![(17, 0)]);
    }

    #[test]
    fn inconsistency_unit_uses_sources() {
        let b = Bfs::new(0);
        let ops = [
            UpdateOp::Insert(gtinker_types::Edge::unit(5, 9)),
            UpdateOp::Insert(gtinker_types::Edge::unit(2, 5)),
            UpdateOp::Insert(gtinker_types::Edge::unit(5, 1)),
        ];
        assert_eq!(b.inconsistent_vertices(&ops), vec![2, 5]);
    }
}
