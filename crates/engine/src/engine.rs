//! The iteration loop: processing phase, apply phase, and the per-iteration
//! mode decision.

use std::time::{Duration, Instant};

use gtinker_types::VertexId;
use serde::{Deserialize, Serialize};

use crate::gas::{ExecMode, GasProgram, ModePolicy};
use crate::store::GraphStore;

/// Witness sentinel: the vertex's committed value has no witness parent —
/// it is a program root, a per-vertex default, or witness tracking was off
/// when it was committed.
pub const NO_WITNESS: VertexId = VertexId::MAX;

/// Record of one engine iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationStats {
    /// Mode the inference box (or fixed policy) chose.
    pub mode: ExecMode,
    /// Active vertices processed this iteration (the formula's `A`).
    pub active_vertices: usize,
    /// Sum of the active vertices' out-degrees (what IP mode would touch).
    /// Computed only when the policy consumes it (degree-aware); recorded
    /// as 0 otherwise to keep forced-mode iterations scan-free.
    pub active_degree: u64,
    /// Edges loaded in the store at decision time (the formula's `E`;
    /// what FP mode streams).
    pub store_edges: u64,
    /// Edges actually visited by the processing phase.
    pub edges_processed: u64,
    /// Messages deposited into the VTempProperty array.
    pub messages: u64,
    /// Wall-clock duration of the iteration.
    pub duration: Duration,
    /// Wall-clock duration of the processing (gather/scatter) phase.
    pub process_time: Duration,
    /// Wall-clock duration of the apply phase.
    pub apply_time: Duration,
    /// Processing-phase wall-clock per store shard, in shard order (one
    /// entry for a single-shard store).
    pub shard_times: Vec<Duration>,
}

/// Summary of one run to fixpoint.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-iteration records, in order.
    pub iterations: Vec<IterationStats>,
    /// Total edges visited across all processing phases.
    pub total_edges_processed: u64,
    /// Total wall-clock time of the run.
    pub elapsed: Duration,
}

impl RunReport {
    /// Number of iterations executed.
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// How many iterations ran in each mode, as `(full, incremental)`.
    pub fn mode_counts(&self) -> (usize, usize) {
        let full = self.iterations.iter().filter(|i| i.mode == ExecMode::Full).count();
        (full, self.iterations.len() - full)
    }

    /// Total processing-phase time spent in each shard across all
    /// iterations, in shard order (longest vector over the run) — the
    /// load-imbalance view of a sharded run.
    pub fn shard_time_totals(&self) -> Vec<Duration> {
        let mut totals: Vec<Duration> = Vec::new();
        for it in &self.iterations {
            if it.shard_times.len() > totals.len() {
                totals.resize(it.shard_times.len(), Duration::ZERO);
            }
            for (t, &d) in totals.iter_mut().zip(&it.shard_times) {
                *t += d;
            }
        }
        totals
    }

    /// Processing throughput in edges per second (edges visited / elapsed).
    pub fn throughput_eps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_edges_processed as f64 / secs
        }
    }

    /// Merges another report into this one (multi-run accumulation).
    pub fn merge(&mut self, other: &RunReport) {
        self.iterations.extend_from_slice(&other.iterations);
        self.total_edges_processed += other.total_edges_processed;
        self.elapsed += other.elapsed;
    }
}

/// A VTempProperty buffer: the combined pending message per vertex, the
/// witness source of each (kept only under witness tracking, empty
/// otherwise), and the vertices holding one. The engine owns the buffer
/// its apply phase reads; every shard worker but shard 0 fills a private
/// one that is merged into it.
struct Inbox<V> {
    temp: Vec<Option<V>>,
    witness: Vec<VertexId>,
    touched: Vec<VertexId>,
}

impl<V> Default for Inbox<V> {
    fn default() -> Self {
        Inbox { temp: Vec::new(), witness: Vec::new(), touched: Vec::new() }
    }
}

impl<V: Copy + PartialEq> Inbox<V> {
    /// Reduces `msg`, sent by `src`, into the pending message of `dst`.
    /// Under witness tracking `src` becomes the witness when its message
    /// is the first or strictly improves the pending one, so a selective
    /// `reduce` keeps the first sender of the winning value.
    #[inline]
    fn deposit<P: GasProgram<Value = V>>(
        &mut self,
        program: &P,
        track: bool,
        src: VertexId,
        dst: VertexId,
        msg: V,
    ) {
        let slot = &mut self.temp[dst as usize];
        *slot = Some(match slot.take() {
            Some(prev) => {
                let combined = program.reduce(prev, msg);
                if track && combined == msg && msg != prev {
                    self.witness[dst as usize] = src;
                }
                combined
            }
            None => {
                self.touched.push(dst);
                if track {
                    self.witness[dst as usize] = src;
                }
                msg
            }
        });
    }
}

/// Reusable scratch of one shard worker (shards 1..n): its inbox and its
/// slice of the active frontier. Kept on the engine so steady-state
/// sharded iterations allocate nothing.
struct WorkerScratch<V> {
    inbox: Inbox<V>,
    frontier: Vec<VertexId>,
}

impl<V> Default for WorkerScratch<V> {
    fn default() -> Self {
        WorkerScratch { inbox: Inbox::default(), frontier: Vec::new() }
    }
}

/// What every shard of one processing phase reads.
struct Phase<'a, P: GasProgram, S> {
    program: &'a P,
    store: &'a S,
    mode: ExecMode,
    values: &'a [P::Value],
    active_bits: &'a [bool],
    track: bool,
}

impl<P: GasProgram, S: GraphStore> Phase<'_, P, S> {
    /// Processes one store shard into `inbox`: full mode streams the
    /// shard's edges and keeps those whose source is active, incremental
    /// mode walks `frontier`. Returns the edges visited, the messages
    /// deposited and the wall-clock spent.
    fn run_shard(
        &self,
        shard: usize,
        frontier: &[VertexId],
        inbox: &mut Inbox<P::Value>,
    ) -> (u64, u64, Duration) {
        let start = Instant::now();
        let Phase { program, store, values, active_bits, track, .. } = *self;
        let mut edges: u64 = 0;
        let mut messages: u64 = 0;
        let mut deposit = |src: VertexId, dst: VertexId, msg: P::Value| {
            messages += 1;
            inbox.deposit(program, track, src, dst, msg);
        };
        match self.mode {
            ExecMode::Full => {
                store.stream_shard_edges(shard, |src, dst, w| {
                    edges += 1;
                    if active_bits[src as usize] {
                        if let Some(m) = program.process_edge(values[src as usize], dst, w) {
                            deposit(src, dst, m);
                        }
                    }
                });
            }
            ExecMode::Incremental => {
                for &v in frontier {
                    let sv = values[v as usize];
                    store.for_each_out_edge(v, |dst, w| {
                        edges += 1;
                        if let Some(m) = program.process_edge(sv, dst, w) {
                            deposit(v, dst, m);
                        }
                    });
                }
            }
        }
        (edges, messages, start.elapsed())
    }
}

/// The edge-centric GAS engine (paper Fig. 7), generic over the graph store
/// and the algorithm.
///
/// Holds the VPropertyArray (`values`), the VTempProperty buffer (`inbox`)
/// and the active set between runs, so incremental processing can continue
/// from a previous analysis after more batches arrive.
///
/// Each iteration's processing phase runs one pass per store shard (see
/// [`GraphStore::num_shards`]): full mode streams the shard's edges,
/// incremental mode walks the part of the frontier whose sources the
/// shard owns. Shard 0 runs on the calling thread and deposits straight
/// into the engine's buffer; shards 1..n run on scoped worker threads into
/// private buffers merged afterwards in shard order through the program's
/// commutative [`GasProgram::reduce`], so the committed result does not
/// depend on the shard count. A single-shard store spawns, routes and
/// merges nothing.
pub struct Engine<P: GasProgram> {
    program: P,
    policy: ModePolicy,
    /// VPropertyArray: committed per-vertex properties.
    values: Vec<P::Value>,
    /// VTempProperty: combined incoming message per vertex with its
    /// witness source, and the vertices holding one; taken by apply.
    inbox: Inbox<P::Value>,
    /// Current active list and its bitset (used by FP-mode filtering).
    active: Vec<VertexId>,
    active_bits: Vec<bool>,
    /// Witness parents: per vertex, the source of the message that set its
    /// committed value ([`NO_WITNESS`] = root/default). Maintained only
    /// under witness tracking; the invalidate-and-repair path reads it.
    witness: Vec<VertexId>,
    /// Whether deposits attribute witnesses (enabled by repair users; a
    /// single predictable branch per deposit otherwise).
    track_witness: bool,
    /// Whether the program's roots have been seeded (first run bootstraps
    /// them even on the incremental path).
    seeded: bool,
    /// Iteration budget per run; guards against programs that never
    /// converge (only monotone programs are guaranteed to).
    max_iterations: usize,
    /// Shard 0's slice of the active frontier when the store has more
    /// than one shard (with one, shard 0 walks `active` itself).
    frontier: Vec<VertexId>,
    /// Scratch of the workers running shards 1..n, reused across
    /// iterations and runs.
    workers: Vec<WorkerScratch<P::Value>>,
}

impl<P: GasProgram> Engine<P> {
    /// Creates an engine for a program under a mode policy.
    pub fn new(program: P, policy: ModePolicy) -> Self {
        Engine {
            program,
            policy,
            values: Vec::new(),
            inbox: Inbox::default(),
            active: Vec::new(),
            active_bits: Vec::new(),
            witness: Vec::new(),
            track_witness: false,
            seeded: false,
            max_iterations: usize::MAX,
            frontier: Vec::new(),
            workers: Vec::new(),
        }
    }

    /// Caps the number of iterations per run. The engine stops (leaving the
    /// active set pending) once the cap is hit — a safety net for programs
    /// whose `apply` is not monotone and may oscillate forever.
    pub fn set_max_iterations(&mut self, cap: usize) {
        self.max_iterations = cap.max(1);
    }

    /// The program driving this engine.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The active mode policy.
    pub fn policy(&self) -> ModePolicy {
        self.policy
    }

    /// Replaces the mode policy (e.g. to compare FP/IP/hybrid on the same
    /// state).
    pub fn set_policy(&mut self, policy: ModePolicy) {
        self.policy = policy;
    }

    /// Committed vertex properties, indexed by vertex id.
    pub fn values(&self) -> &[P::Value] {
        &self.values
    }

    /// Grows engine arrays to cover `n` vertices, filling new slots with the
    /// program's per-vertex default.
    pub(crate) fn ensure_capacity(&mut self, n: u32) {
        let n = n as usize;
        if self.values.len() < n {
            let start = self.values.len() as u32;
            self.values.extend((start..n as u32).map(|v| self.program.default_value(v)));
            self.inbox.temp.resize(n, None);
            self.active_bits.resize(n, false);
        }
        if self.track_witness && self.witness.len() < self.values.len() {
            self.witness.resize(self.values.len(), NO_WITNESS);
            self.inbox.witness.resize(self.values.len(), NO_WITNESS);
        }
    }

    /// Resets all vertex properties to the program's defaults and clears the
    /// active set — the store-and-static-compute entry point.
    pub fn reset(&mut self) {
        for (v, slot) in self.values.iter_mut().enumerate() {
            *slot = self.program.default_value(v as u32);
        }
        self.inbox.temp.fill(None);
        self.inbox.touched.clear();
        for &v in &self.active {
            self.active_bits[v as usize] = false;
        }
        self.active.clear();
        self.witness.fill(NO_WITNESS);
        self.inbox.witness.fill(NO_WITNESS);
        self.seeded = false;
    }

    /// Turns witness attribution on or off. Repair drivers enable it so
    /// every committed property carries the source of its winning message;
    /// the arrays are (re)sized on the next capacity check.
    pub fn set_witness_tracking(&mut self, on: bool) {
        self.track_witness = on;
        if on && self.witness.len() < self.values.len() {
            self.witness.resize(self.values.len(), NO_WITNESS);
            self.inbox.witness.resize(self.values.len(), NO_WITNESS);
        }
    }

    /// Whether witness attribution is enabled.
    pub fn witness_tracking(&self) -> bool {
        self.track_witness
    }

    /// Witness parents, indexed by vertex id ([`NO_WITNESS`] where none).
    /// Empty until witness tracking is enabled and a run commits values.
    pub fn witness(&self) -> &[VertexId] {
        &self.witness
    }

    /// Resets each vertex in `invalidated` to its per-vertex default,
    /// clears its witness, and marks it active — the destructive half of
    /// invalidate-and-repair. The caller then injects the cone's still-
    /// valid boundary messages ([`inject_message`](Self::inject_message))
    /// and runs [`run_incremental`](Self::run_incremental) to repair.
    pub fn invalidate(&mut self, invalidated: &[VertexId]) {
        for &v in invalidated {
            self.ensure_capacity(v + 1);
            let vi = v as usize;
            self.values[vi] = self.program.default_value(v);
            if self.track_witness {
                self.witness[vi] = NO_WITNESS;
            }
            if !self.active_bits[vi] {
                self.active_bits[vi] = true;
                self.active.push(v);
            }
        }
    }

    /// Deposits `msg` into the pending buffer as if `src` had sent it
    /// during a processing phase; the next run's first apply phase reduces
    /// and commits it. The repair path uses this to re-seed an invalidated
    /// cone from its still-valid in-boundary.
    pub fn inject_message(&mut self, src: VertexId, dst: VertexId, msg: P::Value) {
        self.ensure_capacity(dst + 1);
        self.inbox.deposit(&self.program, self.track_witness, src, dst, msg);
    }

    fn seed_roots(&mut self, vertex_space: u32) {
        let roots = self.program.roots(vertex_space);
        for (v, val) in roots {
            self.ensure_capacity(v + 1);
            self.values[v as usize] = val;
            if !self.active_bits[v as usize] {
                self.active_bits[v as usize] = true;
                self.active.push(v);
            }
        }
        self.seeded = true;
    }

    /// Runs to fixpoint from the program's roots over a fresh (or reset)
    /// state — the static model's full recomputation.
    pub fn run_from_roots<S: GraphStore + Sync>(&mut self, store: &S) -> RunReport {
        self.ensure_capacity(store.vertex_space());
        self.reset();
        self.seed_roots(store.vertex_space());
        self.run_to_fixpoint(store)
    }

    /// Continues from the current state with the given seed vertices active
    /// — the incremental model's entry point after a batch update. The
    /// first incremental run bootstraps the program's roots (there is no
    /// prior analysis to continue from yet).
    ///
    /// Incremental continuation is sound only for *monotone* updates (new
    /// edges, or weight changes in the program's improving direction).
    /// Deletions and adverse weight changes invalidate committed
    /// properties first: either re-run [`run_from_roots`](Self::run_from_roots)
    /// cold, or — the delta-driven path [`crate::DynamicRunner`] drives —
    /// [`invalidate`](Self::invalidate) the affected witness cone, inject
    /// its boundary messages ([`inject_message`](Self::inject_message)),
    /// and continue here to repair.
    pub fn run_incremental<S: GraphStore + Sync>(
        &mut self,
        store: &S,
        seeds: &[VertexId],
    ) -> RunReport {
        self.ensure_capacity(store.vertex_space());
        if !self.seeded {
            self.seed_roots(store.vertex_space());
        }
        for &v in seeds {
            self.ensure_capacity(v + 1);
            if !self.active_bits[v as usize] {
                self.active_bits[v as usize] = true;
                self.active.push(v);
            }
        }
        self.run_to_fixpoint(store)
    }

    /// The GAS iteration loop: decide mode, processing phase (one pass per
    /// store shard), apply phase, until no vertex is active.
    fn run_to_fixpoint<S: GraphStore + Sync>(&mut self, store: &S) -> RunReport {
        let mut report = RunReport::default();
        let run_start = Instant::now();
        // The store is borrowed for the whole run, so its edge count (the
        // formula's `E`) is loop-invariant: hoist it out of the iterations.
        let store_edges = store.num_edges();
        // The full-frontier degree scan costs one random lookup per active
        // vertex; only the degree-aware policy consumes it, so forced and
        // hybrid policies skip it entirely.
        let needs_degree = matches!(self.policy, ModePolicy::DegreeAware { .. });
        let num_shards = store.num_shards().max(1);
        // Injected (repair-boundary) messages may be pending with no vertex
        // active yet; the loop must run at least one apply to drain them.
        while (!self.active.is_empty() || !self.inbox.touched.is_empty())
            && report.iterations.len() < self.max_iterations
        {
            let iter_start = Instant::now();
            let active_degree: u64 = if needs_degree {
                self.active.iter().map(|&v| store.out_degree(v) as u64).sum()
            } else {
                0
            };
            let mode = self.policy.decide(self.active.len(), active_degree, store_edges);

            // --- Processing phase -------------------------------------
            // Spans are recorded on the calling thread only: the scoped
            // per-iteration workers are short-lived, and giving each a
            // trace ring would exhaust the ring registry over a long run.
            // Inside a serving request (nonzero thread ctx) the span arg
            // carries the request id so the iteration groups under its
            // timeline; otherwise it stays the iteration index.
            let iter_idx = report.iterations.len() as u64;
            let ctx = gtinker_core::trace::thread_ctx();
            let span_tag = if ctx != 0 { ctx } else { iter_idx };
            let process_start = Instant::now();
            let (edges_processed, messages, shard_times) = {
                let _t =
                    gtinker_core::trace::span_arg(gtinker_core::SpanId::EngineProcess, span_tag);
                self.process(store, mode, num_shards)
            };
            let process_time = process_start.elapsed();

            // --- Apply phase -------------------------------------------
            let apply_span =
                gtinker_core::trace::span_arg(gtinker_core::SpanId::EngineApply, span_tag);
            let apply_start = Instant::now();
            let active_vertices = self.active.len();
            for &v in &self.active {
                self.active_bits[v as usize] = false;
            }
            self.active.clear();
            for &d in &self.inbox.touched {
                if let Some(msg) = self.inbox.temp[d as usize].take() {
                    if let Some(new) = self.program.apply(self.values[d as usize], msg) {
                        self.values[d as usize] = new;
                        if self.track_witness {
                            self.witness[d as usize] = self.inbox.witness[d as usize];
                        }
                        if !self.active_bits[d as usize] {
                            self.active_bits[d as usize] = true;
                            self.active.push(d);
                        }
                    }
                }
            }
            self.inbox.touched.clear();
            let apply_time = apply_start.elapsed();
            drop(apply_span);

            let m = gtinker_core::metrics::global();
            m.engine_iterations.inc();
            m.engine_process_ns.add(process_time.as_nanos() as u64);
            m.engine_apply_ns.add(apply_time.as_nanos() as u64);
            report.iterations.push(IterationStats {
                mode,
                active_vertices,
                active_degree,
                store_edges,
                edges_processed,
                messages,
                duration: iter_start.elapsed(),
                process_time,
                apply_time,
                shard_times,
            });
            report.total_edges_processed += edges_processed;
        }
        report.elapsed = run_start.elapsed();
        report
    }

    /// The processing phase: one pass per store shard (see
    /// [`Phase::run_shard`]). Shard 0 runs here, depositing straight into
    /// the engine's inbox after any injected messages; shards 1..n run on
    /// scoped threads into their own inboxes, which are then folded into
    /// the engine's in shard order. For a selective `reduce` (min, as in
    /// BFS, SSSP and CC) depositing shard 0's messages one by one yields
    /// the same values and witnesses as folding them in afterwards, so the
    /// committed result does not depend on the shard count. Returns the
    /// edges visited, the messages deposited and each shard's wall-clock.
    fn process<S: GraphStore + Sync>(
        &mut self,
        store: &S,
        mode: ExecMode,
        num_shards: usize,
    ) -> (u64, u64, Vec<Duration>) {
        let track = self.track_witness;
        let workers = num_shards - 1;
        if workers > 0 {
            if self.workers.len() < workers {
                self.workers.resize_with(workers, WorkerScratch::default);
            }
            let space = self.inbox.temp.len();
            for w in &mut self.workers[..workers] {
                if w.inbox.temp.len() < space {
                    w.inbox.temp.resize(space, None);
                }
                if track && w.inbox.witness.len() < space {
                    w.inbox.witness.resize(space, NO_WITNESS);
                }
            }
            if mode == ExecMode::Incremental {
                for &v in &self.active {
                    match store.shard_of_source(v).min(workers) {
                        0 => self.frontier.push(v),
                        s => self.workers[s - 1].frontier.push(v),
                    }
                }
            }
        }
        let phase = Phase {
            program: &self.program,
            store,
            mode,
            values: &self.values,
            active_bits: &self.active_bits,
            track,
        };
        let frontier = if workers > 0 { &self.frontier } else { &self.active };
        let inbox = &mut self.inbox;
        let runs: Vec<(u64, u64, Duration)> = std::thread::scope(|scope| {
            let phase = &phase;
            let spawned: Vec<_> = self.workers[..workers]
                .iter_mut()
                .enumerate()
                .map(|(i, w)| {
                    scope.spawn(move || phase.run_shard(i + 1, &w.frontier, &mut w.inbox))
                })
                .collect();
            let first = phase.run_shard(0, frontier, inbox);
            let rest = spawned.into_iter().map(|h| h.join().expect("shard worker panicked"));
            std::iter::once(first).chain(rest).collect()
        });
        // Deterministic merge: fold the workers' inboxes in shard order,
        // independent of thread scheduling.
        for w in &mut self.workers[..workers] {
            for &d in &w.inbox.touched {
                if let Some(msg) = w.inbox.temp[d as usize].take() {
                    let src = if track { w.inbox.witness[d as usize] } else { NO_WITNESS };
                    self.inbox.deposit(&self.program, track, src, d, msg);
                }
            }
            w.inbox.touched.clear();
            w.frontier.clear();
        }
        self.frontier.clear();
        let edges = runs.iter().map(|r| r.0).sum();
        let messages = runs.iter().map(|r| r.1).sum();
        (edges, messages, runs.into_iter().map(|r| r.2).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bfs, Cc, Sssp};
    use gtinker_core::GraphTinker;
    use gtinker_stinger::Stinger;
    use gtinker_types::{Edge, EdgeBatch};

    fn chain_graph(n: u32) -> GraphTinker {
        let mut g = GraphTinker::with_defaults();
        let edges: Vec<Edge> = (0..n - 1).map(|i| Edge::new(i, i + 1, 2)).collect();
        g.apply_batch(&EdgeBatch::inserts(&edges));
        g
    }

    #[test]
    fn bfs_levels_on_a_chain() {
        let g = chain_graph(10);
        for policy in [ModePolicy::AlwaysFull, ModePolicy::AlwaysIncremental, ModePolicy::hybrid()]
        {
            let mut e = Engine::new(Bfs::new(0), policy);
            let report = e.run_from_roots(&g);
            for v in 0..10u32 {
                assert_eq!(e.values()[v as usize], v, "level of {v} under {policy:?}");
            }
            assert_eq!(report.num_iterations(), 10, "9 hops + terminating iteration");
        }
    }

    #[test]
    fn sssp_uses_weights() {
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&EdgeBatch::inserts(&[
            Edge::new(0, 1, 10),
            Edge::new(0, 2, 1),
            Edge::new(2, 1, 2), // 0->2->1 costs 3, beating the direct 10
        ]));
        let mut e = Engine::new(Sssp::new(0), ModePolicy::hybrid());
        e.run_from_roots(&g);
        assert_eq!(e.values()[1], 3);
        assert_eq!(e.values()[2], 1);
    }

    #[test]
    fn cc_labels_on_two_components() {
        let mut g = GraphTinker::with_defaults();
        // Component {0,1,2} and {5,6}; CC runs on symmetrized edges.
        let edges = [(0u32, 1u32), (1, 2), (5, 6)];
        let mut batch = EdgeBatch::new();
        for &(a, b) in &edges {
            batch.push_insert(Edge::unit(a, b));
            batch.push_insert(Edge::unit(b, a));
        }
        g.apply_batch(&batch);
        let mut e = Engine::new(Cc::new(), ModePolicy::hybrid());
        e.run_from_roots(&g);
        let v = e.values();
        assert_eq!(v[0], 0);
        assert_eq!(v[1], 0);
        assert_eq!(v[2], 0);
        assert_eq!(v[5], 5);
        assert_eq!(v[6], 5);
        // Vertices 3, 4 are isolated (never seen as endpoints): own labels.
        assert_eq!(v[3], 3);
        assert_eq!(v[4], 4);
    }

    #[test]
    fn fp_and_ip_agree_on_random_graph() {
        use gtinker_datasets::RmatConfig;
        let edges = RmatConfig::graph500(9, 4_000, 5).generate();
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&EdgeBatch::inserts(&edges));

        let root = edges[0].src;
        let mut full = Engine::new(Bfs::new(root), ModePolicy::AlwaysFull);
        let mut inc = Engine::new(Bfs::new(root), ModePolicy::AlwaysIncremental);
        let mut hyb = Engine::new(Bfs::new(root), ModePolicy::hybrid());
        full.run_from_roots(&g);
        inc.run_from_roots(&g);
        hyb.run_from_roots(&g);
        assert_eq!(full.values(), inc.values(), "FP vs IP BFS divergence");
        assert_eq!(full.values(), hyb.values(), "FP vs hybrid BFS divergence");
    }

    #[test]
    fn graphtinker_and_stinger_agree() {
        use gtinker_datasets::RmatConfig;
        let edges = RmatConfig::graph500(8, 2_000, 9).generate();
        let batch = EdgeBatch::inserts(&edges);
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&batch);
        let mut s = Stinger::with_defaults();
        s.apply_batch(&batch);

        let root = edges[0].src;
        let mut eg = Engine::new(Bfs::new(root), ModePolicy::hybrid());
        let mut es = Engine::new(Bfs::new(root), ModePolicy::hybrid());
        eg.run_from_roots(&g);
        es.run_from_roots(&s);
        assert_eq!(eg.values(), es.values(), "stores disagree on BFS result");
    }

    #[test]
    fn incremental_bfs_matches_recompute_after_batches() {
        let mut g = GraphTinker::with_defaults();
        let b1 = EdgeBatch::inserts(&[Edge::unit(0, 1), Edge::unit(1, 2)]);
        g.apply_batch(&b1);
        let mut inc = Engine::new(Bfs::new(0), ModePolicy::hybrid());
        inc.run_from_roots(&g);

        // Insert a shortcut 0 -> 2 and a fresh tail 2 -> 3.
        let b2 = EdgeBatch::inserts(&[Edge::unit(0, 2), Edge::unit(2, 3)]);
        g.apply_batch(&b2);
        let seeds = inc.program().inconsistent_vertices(b2.ops());
        inc.run_incremental(&g, &seeds);

        let mut fresh = Engine::new(Bfs::new(0), ModePolicy::hybrid());
        fresh.run_from_roots(&g);
        assert_eq!(inc.values(), fresh.values(), "incremental diverged from recompute");
        assert_eq!(inc.values()[2], 1, "shortcut must shorten the path");
        assert_eq!(inc.values()[3], 2);
    }

    #[test]
    fn report_statistics_populate() {
        let g = chain_graph(50);
        let mut e = Engine::new(Bfs::new(0), ModePolicy::AlwaysIncremental);
        let r = e.run_from_roots(&g);
        assert!(r.total_edges_processed >= 49);
        assert_eq!(r.mode_counts().0, 0, "no FP iterations under AlwaysIncremental");
        assert!(r.throughput_eps() > 0.0);
        let mut merged = RunReport::default();
        merged.merge(&r);
        merged.merge(&r);
        assert_eq!(merged.total_edges_processed, 2 * r.total_edges_processed);
    }

    #[test]
    fn unreachable_vertices_stay_at_initial() {
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&EdgeBatch::inserts(&[Edge::unit(0, 1), Edge::unit(3, 4)]));
        let mut e = Engine::new(Bfs::new(0), ModePolicy::hybrid());
        e.run_from_roots(&g);
        assert_eq!(e.values()[1], 1);
        assert_eq!(e.values()[3], u32::MAX);
        assert_eq!(e.values()[4], u32::MAX);
    }

    #[test]
    fn empty_graph_runs_cleanly() {
        let g = GraphTinker::with_defaults();
        let mut e = Engine::new(Bfs::new(0), ModePolicy::hybrid());
        let r = e.run_from_roots(&g);
        // Root 0 exceeds the (empty) vertex space; engine must not panic.
        assert!(r.num_iterations() <= 1);
    }

    /// A deliberately non-monotone program: every message flips the
    /// receiving vertex's parity, so the fixpoint never arrives. Used to
    /// verify the iteration guard.
    struct Oscillator;
    impl crate::gas::GasProgram for Oscillator {
        type Value = u32;
        fn initial_value(&self) -> u32 {
            0
        }
        fn process_edge(&self, src_value: u32, _d: u32, _w: u32) -> Option<u32> {
            Some(src_value + 1)
        }
        fn reduce(&self, a: u32, b: u32) -> u32 {
            a.max(b)
        }
        fn apply(&self, old: u32, incoming: u32) -> Option<u32> {
            // Always "changes": oscillates between parities forever.
            Some(if incoming == old { incoming + 1 } else { incoming })
        }
        fn roots(&self, _n: u32) -> Vec<(u32, u32)> {
            vec![(0, 1)]
        }
    }

    #[test]
    fn iteration_guard_stops_non_convergent_programs() {
        let mut g = GraphTinker::with_defaults();
        // A 2-cycle keeps messages flowing forever.
        g.apply_batch(&EdgeBatch::inserts(&[Edge::unit(0, 1), Edge::unit(1, 0)]));
        let mut e = Engine::new(Oscillator, ModePolicy::AlwaysIncremental);
        e.set_max_iterations(25);
        let r = e.run_from_roots(&g);
        assert_eq!(r.num_iterations(), 25, "guard must cap the run");
    }

    #[test]
    fn guard_does_not_truncate_convergent_runs() {
        let g = chain_graph(10);
        let mut e = Engine::new(Bfs::new(0), ModePolicy::hybrid());
        e.set_max_iterations(1_000);
        e.run_from_roots(&g);
        assert_eq!(e.values()[9], 9);
    }
}
