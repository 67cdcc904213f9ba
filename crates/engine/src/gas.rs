//! The edge-centric GAS program abstraction and the inference box.

use gtinker_types::{UpdateOp, VertexId, Weight};

/// Retrieval mode of one engine iteration (paper §IV.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Full processing: stream all edges sequentially, filter by the active
    /// bitset.
    Full,
    /// Incremental processing: random-access the out-edges of each active
    /// vertex.
    Incremental,
}

/// Per-iteration mode selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModePolicy {
    /// Always stream everything (the paper's "FP mode" series).
    AlwaysFull,
    /// Always walk the active list (the paper's "IP mode" series).
    AlwaysIncremental,
    /// The paper's inference box: FP when `T = A / E > threshold`.
    Hybrid {
        /// Decision threshold on the active-fraction estimate; the paper's
        /// separately-tuned optimum is 0.02.
        threshold: f64,
    },
    /// Extension of the inference box along the paper's stated future work
    /// ("factor in other heuristics such as number of degrees of the active
    /// vertices"): compare the *actual* work of each mode — streaming all
    /// `E` edges sequentially (discounted by how much cheaper a sequential
    /// edge is) against randomly retrieving the active set's `D` out-edges.
    DegreeAware {
        /// Measured sequential-over-random per-edge throughput advantage of
        /// the host/store combination (>= 1).
        seq_advantage: f64,
    },
}

impl ModePolicy {
    /// The paper's hybrid policy with its tuned threshold of 0.02.
    pub fn hybrid() -> Self {
        ModePolicy::Hybrid { threshold: 0.02 }
    }

    /// The degree-aware policy with a typical DRAM sequential/random
    /// advantage of 50 (consistent with the paper's 0.02 crossover:
    /// `A / E = 0.02` at an average degree of 1/0.02... the tuned constant
    /// is host-dependent; measure with
    /// `hybrid_accuracy::measure_seq_advantage`).
    pub fn degree_aware() -> Self {
        ModePolicy::DegreeAware { seq_advantage: 50.0 }
    }

    /// The inference-box decision for an iteration with `active` vertices
    /// whose out-degrees sum to `active_degree`, over a graph of
    /// `edges_loaded` edges (the paper's prediction formula, §IV.B; the
    /// degree-aware variant also uses `active_degree`).
    pub fn decide(&self, active: usize, active_degree: u64, edges_loaded: u64) -> ExecMode {
        match *self {
            ModePolicy::AlwaysFull => ExecMode::Full,
            ModePolicy::AlwaysIncremental => ExecMode::Incremental,
            ModePolicy::Hybrid { threshold } => {
                if edges_loaded == 0 {
                    return ExecMode::Incremental;
                }
                let t = active as f64 / edges_loaded as f64;
                if t > threshold {
                    ExecMode::Full
                } else {
                    ExecMode::Incremental
                }
            }
            ModePolicy::DegreeAware { seq_advantage } => {
                let fp_cost = edges_loaded as f64 / seq_advantage.max(1.0);
                if fp_cost < active_degree as f64 {
                    ExecMode::Full
                } else {
                    ExecMode::Incremental
                }
            }
        }
    }
}

/// An algorithm expressed in the edge-centric GAS paradigm (paper §IV.A).
///
/// A conforming algorithm "only needs separate definitions for its
/// processEdge, reduce and apply functions"; the engine supplies the rest.
/// All three algorithms the paper evaluates (BFS, SSSP, CC) are monotone
/// min-propagations, but the trait does not assume that.
///
/// Programs must be `Sync` and their values `Send + Sync`: the engine
/// shares both across the scoped worker threads of its sharded processing
/// phase. [`reduce`](Self::reduce) must be commutative and associative —
/// already implicit in a single-shard run (FP and IP modes deliver the
/// same messages in different orders), and what lets the shard-order merge
/// combine per-shard partial reductions deterministically.
pub trait GasProgram: Sync {
    /// Per-vertex property type (the VPropertyArray element).
    type Value: Copy + PartialEq + std::fmt::Debug + Send + Sync;

    /// Property of a vertex before it is reached.
    fn initial_value(&self) -> Self::Value;

    /// Default property for a specific vertex — what the engine fills new
    /// array slots with. Defaults to [`initial_value`](Self::initial_value);
    /// CC overrides it so every vertex is born labelled with its own id.
    fn default_value(&self, _v: VertexId) -> Self::Value {
        self.initial_value()
    }

    /// processEdge: message an active source with property `src_value`
    /// sends along an out-edge, or `None` to send nothing.
    fn process_edge(
        &self,
        src_value: Self::Value,
        dst: VertexId,
        weight: Weight,
    ) -> Option<Self::Value>;

    /// reduce: combines two messages destined for the same vertex.
    fn reduce(&self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// apply: commits the combined message into the vertex property.
    /// Returns `Some(new)` if the property changed (the vertex becomes
    /// active next iteration), `None` otherwise.
    fn apply(&self, old: Self::Value, incoming: Self::Value) -> Option<Self::Value>;

    /// Root vertices and their seed properties for a from-scratch run
    /// (e.g. the BFS root at level 0; every vertex for CC).
    fn roots(&self, vertex_space: u32) -> Vec<(VertexId, Self::Value)>;

    /// Set-Inconsistency-Vertices unit (paper §IV.C): the vertices whose
    /// properties an update batch may invalidate, used to seed incremental
    /// re-processing. Defaults to the batch's source endpoints (BFS/SSSP);
    /// CC overrides to both endpoints.
    fn inconsistent_vertices(&self, ops: &[UpdateOp]) -> Vec<VertexId> {
        let mut vs: Vec<VertexId> = ops.iter().map(|op| op.src()).collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }
}

/// Witness-aware extension of [`GasProgram`] enabling invalidate-and-repair
/// incremental processing — the delta-driven model that stays sound under
/// *deletions*, not just monotone insertions.
///
/// The engine attributes a **witness** to every committed property: the
/// source vertex of the message that last changed it. Across a run the
/// witnesses form a forest (each commit strictly improves the property, so
/// no witness cycle can close), and at fixpoint every reached vertex
/// satisfies the *witness invariant*: its value is exactly what
/// [`process_edge`](GasProgram::process_edge) produces from its witness's
/// value over the (live) witness edge. Deleting an edge therefore
/// invalidates precisely the vertices whose witness path used it — the
/// subtree of the deletion's target in the witness forest — and repair
/// re-seeds that cone from its still-valid in-boundary.
///
/// Both methods have reduce-derived defaults that are correct for any
/// *selective* reduce (min/max — all of BFS/SSSP/CC); a program whose
/// reduce blends its inputs must override them or stay off this trait.
pub trait IncrementalState: GasProgram {
    /// Whether, in a level-synchronous walk from the program's roots, the
    /// first message to reach a vertex already carries its final value
    /// (BFS: it carries the vertex's level). A property of the program,
    /// not a setting: [`walk`](crate::walk::walk) then skips every vertex
    /// it has reached without reading its value.
    const FIRST_REACH_FINAL: bool = false;

    /// Whether `candidate` strictly improves on `current`, i.e. the reduce
    /// would pick `candidate` over it. This is the order the engine uses
    /// to attribute witnesses.
    fn improves(&self, candidate: Self::Value, current: Self::Value) -> bool {
        self.reduce(current, candidate) == candidate && candidate != current
    }

    /// The witness invariant: whether `child_value` is still justified by
    /// `parent_value` across an edge of weight `weight` into `child`.
    /// Checked when a batch *re-inserts* (weight-updates) a witness edge:
    /// BFS/CC are weight-insensitive and always hold; an SSSP weight raise
    /// breaks the invariant and invalidates the child's subtree.
    fn witness_holds(
        &self,
        parent_value: Self::Value,
        child: VertexId,
        child_value: Self::Value,
        weight: Weight,
    ) -> bool {
        self.process_edge(parent_value, child, weight) == Some(child_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policies_ignore_inputs() {
        assert_eq!(ModePolicy::AlwaysFull.decide(0, 0, 0), ExecMode::Full);
        assert_eq!(
            ModePolicy::AlwaysIncremental.decide(1_000_000, 1_000_000, 1),
            ExecMode::Incremental
        );
    }

    #[test]
    fn hybrid_threshold_matches_paper_formula() {
        let p = ModePolicy::hybrid();
        // T = A/E: 1000 active over 10_000 edges = 0.1 > 0.02 -> FP.
        assert_eq!(p.decide(1_000, 0, 10_000), ExecMode::Full);
        // 100 active over 10_000 edges = 0.01 < 0.02 -> IP.
        assert_eq!(p.decide(100, 0, 10_000), ExecMode::Incremental);
        // Exactly at threshold: formula says FP only when strictly greater.
        assert_eq!(p.decide(200, 0, 10_000), ExecMode::Incremental);
        // Empty graph degenerates to IP (nothing to stream).
        assert_eq!(p.decide(5, 0, 0), ExecMode::Incremental);
    }

    #[test]
    fn custom_threshold() {
        let p = ModePolicy::Hybrid { threshold: 0.5 };
        assert_eq!(p.decide(600, 0, 1_000), ExecMode::Full);
        assert_eq!(p.decide(400, 0, 1_000), ExecMode::Incremental);
    }

    #[test]
    fn degree_aware_compares_costs() {
        let p = ModePolicy::DegreeAware { seq_advantage: 10.0 };
        // FP cost = 10_000/10 = 1_000 < active degree 5_000 -> FP.
        assert_eq!(p.decide(1, 5_000, 10_000), ExecMode::Full);
        // FP cost 1_000 > active degree 200 -> IP.
        assert_eq!(p.decide(1, 200, 10_000), ExecMode::Incremental);
        // seq_advantage is clamped to >= 1.
        let degenerate = ModePolicy::DegreeAware { seq_advantage: 0.0 };
        assert_eq!(degenerate.decide(1, 50, 100), ExecMode::Incremental);
        assert_eq!(degenerate.decide(1, 200, 100), ExecMode::Full);
    }
}
