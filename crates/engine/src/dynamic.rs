//! Dynamic-graph processing drivers: the paper's two classic models
//! (store-and-static-compute, incremental-compute) on top of the engine,
//! the delta-driven **invalidate-and-repair** path that keeps incremental
//! mode sound under deletions, plus helpers for CC symmetrization and
//! hybrid-prediction accuracy.
//!
//! ## Invalidate-and-repair
//!
//! Monotone programs (BFS/SSSP/CC) only ever *improve* vertex properties,
//! so inserted edges are handled by re-activating the batch's inconsistency
//! vertices and running to fixpoint. A deleted edge is adverse: any vertex
//! whose committed value was derived *through* that edge is now stale, and
//! no amount of further improvement fixes a value that is too good. The
//! runner therefore tracks a **witness** per vertex (the source of the
//! message that committed its value — the BFS/SSSP parent tree, the CC
//! label-propagation forest) and, per batch:
//!
//! 1. **Tag**: every op whose target's witness edge it breaks (a deleted
//!    witness edge, or a weight update failing
//!    [`IncrementalState::witness_holds`]) marks an invalidation root.
//! 2. **Sweep**: the roots' subtrees in the witness forest are collected
//!    through the store's out-edges (`witness[child] == parent`) — the
//!    *cone* of the deletion.
//! 3. **Repair**: the cone is reset to per-vertex defaults and activated;
//!    its still-valid in-boundary (read from a lazily built transpose
//!    index) re-injects messages; the ordinary frontier machinery — mode
//!    inference, sharded processing and all — runs to fixpoint.
//!
//! Vertices outside the cone keep values justified by witness paths that
//! avoid every removed edge, so they are exact; the fixpoint over the cone
//! then equals a cold recompute on the post-batch graph (the
//! `incremental_oracle` suite holds this equality after every batch).

use std::collections::HashMap;

use gtinker_types::{Edge, EdgeBatch, UpdateOp, VertexId, Weight};

use crate::engine::{Engine, RunReport};
use crate::gas::{ExecMode, GasProgram, IncrementalState, ModePolicy};
use crate::store::GraphStore;

/// How the analysis restarts after each update batch (paper §II.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Store-and-static-compute: reset all vertex properties and re-run the
    /// algorithm from its roots, as if the updated graph were a new static
    /// graph.
    StaticRecompute,
    /// Incremental-compute: keep the previous analysis, re-activate the
    /// inconsistency vertices of the batch, and invalidate-and-repair the
    /// witness cone of any deletion (see the module docs).
    Incremental,
}

/// In-edge index mirroring the post-batch store, kept by the repair path.
///
/// Every store in the tree is push-oriented (out-edges only), but
/// re-seeding an invalidated cone needs the cone's *in*-boundary. Rather
/// than stream all edges per deletion batch, the runner maintains this
/// transpose — bootstrapped from one full edge stream on first use, then
/// updated in O(ops) per batch — and reads exactly the invalidated
/// vertices' in-edges. (The same trade differential dataflow makes when it
/// arranges a collection by both key orders.)
#[derive(Default)]
struct Transpose {
    /// `in_edges[dst]`: live in-neighbors of `dst` and their edge weights.
    in_edges: Vec<HashMap<VertexId, Weight>>,
}

impl Transpose {
    fn from_store<S: GraphStore>(store: &S) -> Self {
        let mut t = Transpose { in_edges: Vec::new() };
        t.in_edges.resize_with(store.vertex_space() as usize, HashMap::new);
        store.stream_edges(|src, dst, w| {
            t.grow(dst);
            t.in_edges[dst as usize].insert(src, w);
        });
        t
    }

    fn grow(&mut self, dst: VertexId) {
        if self.in_edges.len() <= dst as usize {
            self.in_edges.resize_with(dst as usize + 1, HashMap::new);
        }
    }

    /// Mirrors one applied batch: inserts upsert (stores update the weight
    /// in place on re-insert), deletes remove if present.
    fn apply(&mut self, ops: &[UpdateOp]) {
        for op in ops {
            match *op {
                UpdateOp::Insert(e) => {
                    self.grow(e.dst);
                    self.in_edges[e.dst as usize].insert(e.src, e.weight);
                }
                UpdateOp::Delete { src, dst } => {
                    if let Some(m) = self.in_edges.get_mut(dst as usize) {
                        m.remove(&src);
                    }
                }
            }
        }
    }

    fn in_edges_of(&self, dst: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.in_edges.get(dst as usize).into_iter().flatten().map(|(&s, &w)| (s, w))
    }
}

/// Drives one algorithm across a stream of update batches.
///
/// The caller owns the store and applies each batch to it (stores have
/// different batch APIs); the runner owns the analysis state — committed
/// values, witness parents, and the transpose index of the repair path.
pub struct DynamicRunner<P: GasProgram> {
    engine: Engine<P>,
    restart: RestartPolicy,
    /// Whether deletion batches run invalidate-and-repair (default) or the
    /// legacy counted cold-recompute fallback.
    repair: bool,
    /// In-edge mirror for boundary re-seeding; built lazily by the first
    /// repaired batch.
    transpose: Option<Transpose>,
    /// Reusable invalidation scratch: cone-membership bits and the swept
    /// cone itself (cleared after each repair).
    invalid_bits: Vec<bool>,
    cone: Vec<VertexId>,
}

impl<P: GasProgram> DynamicRunner<P> {
    /// Creates a runner. Under [`RestartPolicy::Incremental`] deletion
    /// repair is enabled by default; see [`set_repair`](Self::set_repair).
    pub fn new(program: P, mode_policy: ModePolicy, restart: RestartPolicy) -> Self {
        DynamicRunner {
            engine: Engine::new(program, mode_policy),
            restart,
            repair: true,
            transpose: None,
            invalid_bits: Vec::new(),
            cone: Vec::new(),
        }
    }

    /// Enables or disables invalidate-and-repair. With repair off, a batch
    /// containing deletions falls back to a cold recompute, counted by the
    /// `engine_delete_fallbacks` metric — the paper's original
    /// monotone-only incremental model, kept for honest A/B comparison.
    pub fn set_repair(&mut self, on: bool) {
        self.repair = on;
    }

    /// The underlying engine (for values and resets).
    pub fn engine(&self) -> &Engine<P> {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut Engine<P> {
        &mut self.engine
    }
}

impl<P: IncrementalState> DynamicRunner<P> {
    /// Re-runs the analysis after `batch` has been applied to `store`.
    ///
    /// `batch` must be exactly the batch the caller applied (symmetrized
    /// if the store was fed symmetrized ops): the repair path mirrors it
    /// into its in-edge index.
    pub fn after_batch<S: GraphStore + Sync>(&mut self, store: &S, batch: &EdgeBatch) -> RunReport {
        match self.restart {
            RestartPolicy::StaticRecompute => self.engine.run_from_roots(store),
            RestartPolicy::Incremental if !self.repair => {
                let has_deletes = batch.iter().any(|op| matches!(op, UpdateOp::Delete { .. }));
                if has_deletes {
                    // Monotone-only mode cannot absorb a deletion: cold
                    // recompute, counted — never silent.
                    gtinker_core::metrics::global().engine_delete_fallbacks.inc();
                    return self.engine.run_from_roots(store);
                }
                let seeds = self.engine.program().inconsistent_vertices(batch.ops());
                self.engine.run_incremental(store, &seeds)
            }
            RestartPolicy::Incremental => self.repair_and_continue(store, batch),
        }
    }

    /// The delta-driven path: mirror the batch into the transpose, sweep
    /// the invalidated witness cone, re-seed it from its valid boundary,
    /// and continue the ordinary frontier machinery to fixpoint.
    fn repair_and_continue<S: GraphStore + Sync>(
        &mut self,
        store: &S,
        batch: &EdgeBatch,
    ) -> RunReport {
        self.engine.set_witness_tracking(true);
        self.engine.ensure_capacity(store.vertex_space());
        match self.transpose.as_mut() {
            // `from_store` runs after the batch applied, so the bootstrap
            // already reflects it; only later batches need mirroring.
            Some(t) => t.apply(batch.ops()),
            None => self.transpose = Some(Transpose::from_store(store)),
        }
        self.sweep_cone(store, batch);
        let m = gtinker_core::metrics::global();
        m.engine_repair_invalidated.add(self.cone.len() as u64);
        let span =
            gtinker_core::trace::span_arg(gtinker_core::SpanId::Repair, self.cone.len() as u64);
        // Reset the cone to per-vertex defaults and activate it, then
        // re-inject every still-valid in-boundary edge's message.
        if !self.cone.is_empty() {
            self.engine.invalidate(&self.cone);
            let transpose = self.transpose.as_ref().expect("transpose built above");
            for i in 0..self.cone.len() {
                let d = self.cone[i];
                for (s, w) in transpose.in_edges_of(d) {
                    let si = s as usize;
                    if self.invalid_bits.get(si).copied().unwrap_or(false) {
                        continue; // in-cone neighbors repair through the run itself
                    }
                    let Some(&sv) = self.engine.values().get(si) else { continue };
                    if let Some(msg) = self.engine.program().process_edge(sv, d, w) {
                        self.engine.inject_message(s, d, msg);
                    }
                }
            }
            for &v in &self.cone {
                self.invalid_bits[v as usize] = false;
            }
        }
        // Inserted edges become *messages*, not frontier seeds: the source's
        // committed value already reached all its pre-existing out-edges at
        // the previous fixpoint, so re-activating it (the monotone path's
        // `inconsistent_vertices` seeding) would rescan its whole out-edge
        // list for one new edge. Depositing `process_edge(values[src])`
        // directly costs O(1) per op, and only destinations the batch
        // actually improves enter the frontier.
        let transpose = self.transpose.as_ref().expect("transpose built above");
        for op in batch.iter() {
            let UpdateOp::Insert(e) = *op else { continue };
            // A later op in the same batch may have deleted or re-weighted
            // this edge; the transpose mirrors the post-batch store, so
            // inject only edges still live, at their final weight.
            let live = transpose.in_edges.get(e.dst as usize).and_then(|m| m.get(&e.src));
            let Some(&w) = live else { continue };
            let Some(&sv) = self.engine.values().get(e.src as usize) else { continue };
            if let Some(msg) = self.engine.program().process_edge(sv, e.dst, w) {
                self.engine.inject_message(e.src, e.dst, msg);
            }
        }
        let report = self.engine.run_incremental(store, &[]);
        m.engine_repair_iters.add(report.iterations.len() as u64);
        drop(span);
        report
    }

    /// Tag-and-sweep over the witness forest: collects into `self.cone`
    /// (bits in `self.invalid_bits`) every vertex whose committed value's
    /// witness path uses an edge this batch removed or weight-broke.
    fn sweep_cone<S: GraphStore>(&mut self, store: &S, batch: &EdgeBatch) {
        self.cone.clear();
        let witness = self.engine.witness();
        if witness.is_empty() {
            return; // nothing committed yet (first repaired batch)
        }
        let values = self.engine.values();
        let program = self.engine.program();
        if self.invalid_bits.len() < witness.len() {
            self.invalid_bits.resize(witness.len(), false);
        }
        let bits = &mut self.invalid_bits;
        let cone = &mut self.cone;
        // Roots: ops that break their target's witness invariant.
        for op in batch.iter() {
            let (u, v, new_weight) = match *op {
                UpdateOp::Delete { src, dst } => (src, dst, None),
                UpdateOp::Insert(e) => (e.src, e.dst, Some(e.weight)),
            };
            let vi = v as usize;
            if vi >= witness.len() || witness[vi] != u || bits[vi] {
                continue;
            }
            let broken = match new_weight {
                // The witness edge is gone outright.
                None => true,
                // Re-inserted (weight-updated) witness edge: broken only
                // if the invariant fails (an SSSP weight raise).
                Some(w) => !values
                    .get(u as usize)
                    .is_some_and(|&pv| program.witness_holds(pv, v, values[vi], w)),
            };
            if broken {
                bits[vi] = true;
                cone.push(v);
            }
        }
        // Sweep the roots' witness-forest subtrees. Every non-root child's
        // witness edge is still live in the store (an op that broke it
        // would have made the child a root above), so the parent's
        // out-edges reach all its witness children.
        let mut i = 0;
        while i < cone.len() {
            let p = cone[i];
            i += 1;
            store.for_each_out_edge(p, |c, _| {
                let ci = c as usize;
                if ci < witness.len() && witness[ci] == p && !bits[ci] {
                    bits[ci] = true;
                    cone.push(c);
                }
            });
        }
    }
}

/// Duplicates every operation in both directions — required for CC (weak
/// connectivity over a push-style engine) and harmless for any algorithm
/// that wants undirected semantics.
pub fn symmetrize(batch: &EdgeBatch) -> EdgeBatch {
    let mut out = EdgeBatch::with_capacity(batch.len() * 2);
    for op in batch.iter() {
        match *op {
            UpdateOp::Insert(e) => {
                out.push_insert(e);
                out.push_insert(Edge::new(e.dst, e.src, e.weight));
            }
            UpdateOp::Delete { src, dst } => {
                out.push_delete(src, dst);
                out.push_delete(dst, src);
            }
        }
    }
    out
}

/// Fraction of iterations where the hybrid inference box picked the mode a
/// cost oracle would have picked.
///
/// The oracle models FP cost as `store_edges / seq_advantage` (sequential
/// streaming is cheaper per edge) and IP cost as `active_degree` (random
/// accesses). `seq_advantage` is the measured sequential-vs-random
/// throughput ratio of the host; the paper's separate experiments put the
/// crossover at `A/E = 0.02`, i.e. a ratio of ~50 on their Xeon.
pub fn prediction_accuracy(report: &RunReport, seq_advantage: f64) -> f64 {
    if report.iterations.is_empty() {
        return 1.0;
    }
    let correct = report
        .iterations
        .iter()
        .filter(|it| {
            let fp_cost = it.store_edges as f64 / seq_advantage;
            let ip_cost = it.active_degree as f64;
            let oracle = if fp_cost < ip_cost { ExecMode::Full } else { ExecMode::Incremental };
            it.mode == oracle
        })
        .count();
    correct as f64 / report.iterations.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bfs, Cc};
    use gtinker_core::GraphTinker;
    use gtinker_types::Edge;

    #[test]
    fn symmetrize_doubles_ops_in_both_directions() {
        let mut b = EdgeBatch::new();
        b.push_insert(Edge::new(1, 2, 7));
        b.push_delete(3, 4);
        let s = symmetrize(&b);
        let ops: Vec<_> = s.iter().copied().collect();
        assert_eq!(
            ops,
            vec![
                UpdateOp::Insert(Edge::new(1, 2, 7)),
                UpdateOp::Insert(Edge::new(2, 1, 7)),
                UpdateOp::Delete { src: 3, dst: 4 },
                UpdateOp::Delete { src: 4, dst: 3 },
            ]
        );
    }

    #[test]
    fn incremental_and_static_runners_agree_on_bfs() {
        let batches = vec![
            EdgeBatch::inserts(&[Edge::unit(0, 1), Edge::unit(1, 2)]),
            EdgeBatch::inserts(&[Edge::unit(2, 3), Edge::unit(0, 3)]),
            EdgeBatch::inserts(&[Edge::unit(3, 4)]),
        ];
        let mut g_inc = GraphTinker::with_defaults();
        let mut g_st = GraphTinker::with_defaults();
        let mut inc =
            DynamicRunner::new(Bfs::new(0), ModePolicy::hybrid(), RestartPolicy::Incremental);
        let mut st =
            DynamicRunner::new(Bfs::new(0), ModePolicy::hybrid(), RestartPolicy::StaticRecompute);
        for b in &batches {
            g_inc.apply_batch(b);
            g_st.apply_batch(b);
            inc.after_batch(&g_inc, b);
            st.after_batch(&g_st, b);
            assert_eq!(inc.engine().values(), st.engine().values());
        }
        assert_eq!(inc.engine().values()[4], 2, "0->3->4");
    }

    #[test]
    fn incremental_cc_merges_components_across_batches() {
        let mut g = GraphTinker::with_defaults();
        let mut runner =
            DynamicRunner::new(Cc::new(), ModePolicy::hybrid(), RestartPolicy::Incremental);
        let b1 = symmetrize(&EdgeBatch::inserts(&[Edge::unit(0, 1), Edge::unit(2, 3)]));
        g.apply_batch(&b1);
        runner.after_batch(&g, &b1);
        assert_eq!(runner.engine().values()[1], 0);
        assert_eq!(runner.engine().values()[3], 2);

        // Bridge the two components.
        let b2 = symmetrize(&EdgeBatch::inserts(&[Edge::unit(1, 2)]));
        g.apply_batch(&b2);
        runner.after_batch(&g, &b2);
        assert_eq!(runner.engine().values()[2], 0, "components must merge");
        assert_eq!(runner.engine().values()[3], 0);
    }

    #[test]
    fn accuracy_is_one_when_oracle_agrees() {
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&EdgeBatch::inserts(&[Edge::unit(0, 1)]));
        let mut e = Engine::new(Bfs::new(0), ModePolicy::AlwaysIncremental);
        let r = e.run_from_roots(&g);
        // Tiny graph: IP is always the oracle's pick at seq_advantage 1.
        assert_eq!(prediction_accuracy(&r, 1.0), 1.0);
        assert_eq!(prediction_accuracy(&RunReport::default(), 4.0), 1.0);
    }

    /// A synthetic iteration record for exercising the cost oracle.
    fn iteration(mode: ExecMode, active_degree: u64, store_edges: u64) -> crate::IterationStats {
        crate::IterationStats {
            mode,
            active_vertices: 1,
            active_degree,
            store_edges,
            edges_processed: 0,
            messages: 0,
            duration: std::time::Duration::ZERO,
            process_time: std::time::Duration::ZERO,
            apply_time: std::time::Duration::ZERO,
            shard_times: Vec::new(),
        }
    }

    fn report_of(iters: Vec<crate::IterationStats>) -> RunReport {
        RunReport { iterations: iters, ..RunReport::default() }
    }

    #[test]
    fn oracle_prefers_ip_for_small_frontiers() {
        // fp_cost = 10_000 / 50 = 200; a frontier touching 40 edges is far
        // cheaper to random-access: the oracle's pick is IP.
        let right = report_of(vec![iteration(ExecMode::Incremental, 40, 10_000)]);
        assert_eq!(prediction_accuracy(&right, 50.0), 1.0);
        let wrong = report_of(vec![iteration(ExecMode::Full, 40, 10_000)]);
        assert_eq!(prediction_accuracy(&wrong, 50.0), 0.0);
    }

    #[test]
    fn oracle_prefers_fp_for_large_frontiers() {
        // fp_cost = 200 < active_degree 5_000: streaming wins; FP correct.
        let right = report_of(vec![iteration(ExecMode::Full, 5_000, 10_000)]);
        assert_eq!(prediction_accuracy(&right, 50.0), 1.0);
        let wrong = report_of(vec![iteration(ExecMode::Incremental, 5_000, 10_000)]);
        assert_eq!(prediction_accuracy(&wrong, 50.0), 0.0);
    }

    #[test]
    fn oracle_crossover_is_fp_cost_vs_ip_cost() {
        // Exactly at the crossover (fp_cost == ip_cost == 200) the oracle
        // keeps IP: FP must be strictly cheaper to win.
        let at = report_of(vec![iteration(ExecMode::Incremental, 200, 10_000)]);
        assert_eq!(prediction_accuracy(&at, 50.0), 1.0);
        // Just past it (degree 201 > 200) the oracle flips to FP.
        let past = report_of(vec![iteration(ExecMode::Full, 201, 10_000)]);
        assert_eq!(prediction_accuracy(&past, 50.0), 1.0);
        // Mixed report: one right, one wrong -> 0.5.
        let mixed = report_of(vec![
            iteration(ExecMode::Incremental, 40, 10_000),
            iteration(ExecMode::Incremental, 5_000, 10_000),
        ]);
        assert_eq!(prediction_accuracy(&mixed, 50.0), 0.5);
    }

    #[test]
    fn seq_advantage_moves_the_crossover() {
        // The same frontier (degree 1_000 on 10_000 edges) is an FP pick on
        // a host where streaming is 50x cheaper, and an IP pick where it is
        // only 5x cheaper (fp_cost 2_000 > 1_000).
        let fast_stream = report_of(vec![iteration(ExecMode::Full, 1_000, 10_000)]);
        assert_eq!(prediction_accuracy(&fast_stream, 50.0), 1.0);
        let slow_stream = report_of(vec![iteration(ExecMode::Incremental, 1_000, 10_000)]);
        assert_eq!(prediction_accuracy(&slow_stream, 5.0), 1.0);
    }

    // ---- invalidate-and-repair ------------------------------------------

    use crate::algorithms::Sssp;
    use crate::engine::NO_WITNESS;

    fn cold<PZ: GasProgram + Copy>(program: PZ, g: &GraphTinker) -> Vec<PZ::Value> {
        let mut e = Engine::new(program, ModePolicy::hybrid());
        e.run_from_roots(g);
        e.values().to_vec()
    }

    #[test]
    fn deleting_a_bfs_tree_edge_repairs_through_the_detour() {
        // 0 -> 1 -> 2 -> 3 with a long detour 0 -> 4 -> 5 -> 2.
        let b1 = EdgeBatch::inserts(&[
            Edge::unit(0, 1),
            Edge::unit(1, 2),
            Edge::unit(2, 3),
            Edge::unit(0, 4),
            Edge::unit(4, 5),
            Edge::unit(5, 2),
        ]);
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&b1);
        let mut r =
            DynamicRunner::new(Bfs::new(0), ModePolicy::hybrid(), RestartPolicy::Incremental);
        r.after_batch(&g, &b1);
        assert_eq!(r.engine().values()[2], 2);
        assert_eq!(r.engine().values()[3], 3);

        let mut b2 = EdgeBatch::new();
        b2.push_delete(1, 2);
        g.apply_batch(&b2);
        r.after_batch(&g, &b2);
        assert_eq!(r.engine().values().to_vec(), cold(Bfs::new(0), &g));
        assert_eq!(r.engine().values()[2], 3, "repaired through the detour");
        assert_eq!(r.engine().values()[3], 4);
    }

    #[test]
    fn deleting_the_sole_path_unreaches_the_subtree() {
        let b1 = EdgeBatch::inserts(&[Edge::unit(0, 1), Edge::unit(1, 2), Edge::unit(2, 3)]);
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&b1);
        let mut r =
            DynamicRunner::new(Bfs::new(0), ModePolicy::hybrid(), RestartPolicy::Incremental);
        r.after_batch(&g, &b1);

        let mut b2 = EdgeBatch::new();
        b2.push_delete(0, 1);
        g.apply_batch(&b2);
        r.after_batch(&g, &b2);
        assert_eq!(r.engine().values().to_vec(), cold(Bfs::new(0), &g));
        assert_eq!(r.engine().values()[1], Bfs::UNREACHED);
        assert_eq!(r.engine().values()[3], Bfs::UNREACHED);
    }

    #[test]
    fn delete_then_reinsert_in_one_batch_is_a_no_op() {
        let b1 = EdgeBatch::inserts(&[Edge::unit(0, 1), Edge::unit(1, 2)]);
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&b1);
        let mut r =
            DynamicRunner::new(Bfs::new(0), ModePolicy::hybrid(), RestartPolicy::Incremental);
        r.after_batch(&g, &b1);

        let mut b2 = EdgeBatch::new();
        b2.push_delete(0, 1);
        b2.push_insert(Edge::unit(0, 1));
        g.apply_batch(&b2);
        r.after_batch(&g, &b2);
        assert_eq!(r.engine().values().to_vec(), cold(Bfs::new(0), &g));
        assert_eq!(r.engine().values()[2], 2);
    }

    #[test]
    fn cc_bridge_deletion_splits_the_component() {
        // 0-1-2 === 3-4-5 joined by the bridge 2-3.
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5)];
        let mut b1 = EdgeBatch::new();
        for &(a, b) in &edges {
            b1.push_insert(Edge::unit(a, b));
        }
        let b1 = symmetrize(&b1);
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&b1);
        let mut r = DynamicRunner::new(Cc::new(), ModePolicy::hybrid(), RestartPolicy::Incremental);
        r.after_batch(&g, &b1);
        assert_eq!(r.engine().values()[5], 0, "one component before the cut");

        let mut b2 = EdgeBatch::new();
        b2.push_delete(2, 3);
        let b2 = symmetrize(&b2);
        g.apply_batch(&b2);
        r.after_batch(&g, &b2);
        assert_eq!(r.engine().values().to_vec(), cold(Cc::new(), &g));
        assert_eq!(r.engine().values()[2], 0);
        assert_eq!(r.engine().values()[3], 3, "anchor-free side re-labels");
        assert_eq!(r.engine().values()[5], 3);
    }

    #[test]
    fn sssp_weight_raise_breaks_the_witness_and_repairs() {
        // 0 -(1)-> 1 -(1)-> 2 and a direct 0 -(5)-> 2: tree goes via 1.
        let b1 = EdgeBatch::inserts(&[Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(0, 2, 5)]);
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&b1);
        let mut r =
            DynamicRunner::new(Sssp::new(0), ModePolicy::hybrid(), RestartPolicy::Incremental);
        r.after_batch(&g, &b1);
        assert_eq!(r.engine().values()[2], 2);

        // Raise the witness edge 1->2 to weight 9: the direct edge wins now.
        let b2 = EdgeBatch::inserts(&[Edge::new(1, 2, 9)]);
        g.apply_batch(&b2);
        r.after_batch(&g, &b2);
        assert_eq!(r.engine().values().to_vec(), cold(Sssp::new(0), &g));
        assert_eq!(r.engine().values()[2], 5, "must abandon the raised path");
    }

    #[test]
    fn witness_parents_satisfy_the_invariant() {
        let b1 = EdgeBatch::inserts(&[
            Edge::unit(0, 1),
            Edge::unit(0, 2),
            Edge::unit(1, 3),
            Edge::unit(2, 3),
            Edge::unit(3, 4),
        ]);
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&b1);
        let mut r =
            DynamicRunner::new(Bfs::new(0), ModePolicy::hybrid(), RestartPolicy::Incremental);
        r.after_batch(&g, &b1);
        let mut b2 = EdgeBatch::new();
        b2.push_delete(1, 3);
        g.apply_batch(&b2);
        r.after_batch(&g, &b2);
        let values = r.engine().values();
        let witness = r.engine().witness();
        for v in 0..values.len() {
            let w = witness[v];
            if w == NO_WITNESS {
                assert!(
                    v == 0 || values[v] == Bfs::UNREACHED,
                    "witness-less vertex {v} must be the root or unreached"
                );
            } else {
                assert!(g.has_edge(w, v as u32), "witness edge {w}->{v} must be live");
                assert_eq!(values[w as usize] + 1, values[v], "invariant at {v}");
            }
        }
    }

    #[test]
    fn repair_disabled_falls_back_cold_and_counts() {
        let b1 = EdgeBatch::inserts(&[Edge::unit(0, 1), Edge::unit(1, 2)]);
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&b1);
        let mut r =
            DynamicRunner::new(Bfs::new(0), ModePolicy::hybrid(), RestartPolicy::Incremental);
        r.set_repair(false);
        r.after_batch(&g, &b1);

        let before = gtinker_core::metrics::global().engine_delete_fallbacks.get();
        let mut b2 = EdgeBatch::new();
        b2.push_delete(1, 2);
        g.apply_batch(&b2);
        r.after_batch(&g, &b2);
        let after = gtinker_core::metrics::global().engine_delete_fallbacks.get();
        assert!(after > before, "fallback must be counted, not silent");
        assert_eq!(r.engine().values().to_vec(), cold(Bfs::new(0), &g));
        assert_eq!(r.engine().values()[2], Bfs::UNREACHED);
    }

    #[test]
    fn repair_counters_and_cone_sizes_accumulate() {
        let b1 = EdgeBatch::inserts(&[Edge::unit(0, 1), Edge::unit(1, 2), Edge::unit(2, 3)]);
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&b1);
        let mut r =
            DynamicRunner::new(Bfs::new(0), ModePolicy::hybrid(), RestartPolicy::Incremental);
        r.after_batch(&g, &b1);
        let m = gtinker_core::metrics::global();
        let (inv0, it0) = (m.engine_repair_invalidated.get(), m.engine_repair_iters.get());
        let mut b2 = EdgeBatch::new();
        b2.push_delete(1, 2); // invalidates {2, 3}
        g.apply_batch(&b2);
        r.after_batch(&g, &b2);
        assert!(m.engine_repair_invalidated.get() >= inv0 + 2, "cone of 2 counted");
        assert!(m.engine_repair_iters.get() > it0);
    }
}
