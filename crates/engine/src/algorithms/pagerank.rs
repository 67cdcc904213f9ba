//! PageRank: the counter-example the hybrid engine's applicability note
//! calls out (§IV.B) — *every* vertex is active in *every* iteration, so
//! incremental processing "is not an option" and the algorithm runs in
//! pure full-processing mode. It uses the same [`GraphStore`] streaming
//! path as the engine's FP iterations (the CAL for GraphTinker), so it
//! also serves as a standalone demonstration of the store abstraction.

use gtinker_types::VertexId;

use crate::store::GraphStore;

/// Power-iteration PageRank over any [`GraphStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRank {
    /// Damping factor (0.85 in the classic formulation).
    pub damping: f64,
    /// Number of power iterations.
    pub iterations: usize,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank { damping: 0.85, iterations: 20 }
    }
}

impl PageRank {
    /// Creates a PageRank configuration.
    pub fn new(damping: f64, iterations: usize) -> Self {
        assert!((0.0..1.0).contains(&damping), "damping must be in [0, 1)");
        PageRank { damping, iterations }
    }

    /// Runs power iteration; returns the rank vector (sums to 1 for a
    /// non-empty graph; dangling mass is redistributed uniformly).
    ///
    /// Each iteration's edge pass streams the store's shards: shard 0 on
    /// the calling thread, shards 1..n on scoped worker threads into
    /// per-shard contribution vectors added in shard order afterwards.
    /// Floating-point addition is not associative, so ranks at different
    /// shard counts can differ in the last few ulps (well inside the
    /// power-iteration convergence tolerance); within a fixed shard count
    /// the result is deterministic.
    pub fn run<S: GraphStore + Sync>(&self, store: &S) -> Vec<f64> {
        self.run_with_tolerance(store, None, 0.0).0
    }

    /// Power iteration with a warm start and an L1 convergence stop.
    ///
    /// Starts from `warm` when given (padded with the uniform rank for
    /// vertices born since, then renormalized to sum 1) and stops as soon
    /// as an iteration moves total rank mass by less than `tol` (L1 norm),
    /// or after [`iterations`](Self::iterations) at the latest. Returns the
    /// rank vector and the number of iterations actually run.
    ///
    /// This is what makes PageRank *incremental*: the fixpoint is a
    /// property of the graph alone, so after a small update batch the old
    /// ranks are already nearly converged and the warm-started iteration
    /// stops in a handful of rounds where a cold start pays the full
    /// budget. `tol = 0` reproduces [`run`](Self::run) exactly.
    pub fn run_with_tolerance<S: GraphStore + Sync>(
        &self,
        store: &S,
        warm: Option<&[f64]>,
        tol: f64,
    ) -> (Vec<f64>, usize) {
        let n = store.vertex_space() as usize;
        if n == 0 {
            return (Vec::new(), 0);
        }
        let num_shards = store.num_shards().max(1);
        let degrees: Vec<u32> = (0..n as u32).map(|v| store.out_degree(v)).collect();
        let mut ranks = match warm {
            Some(w) if !w.is_empty() => {
                let mut r = w.to_vec();
                r.resize(n, 1.0 / n as f64);
                let sum: f64 = r.iter().sum();
                if sum > 0.0 {
                    for x in &mut r {
                        *x /= sum;
                    }
                }
                r
            }
            _ => vec![1.0 / n as f64; n],
        };
        let mut iters_run = 0;
        let mut contrib = vec![0.0f64; n];
        // Contribution partials of shards 1..n, reused across iterations.
        let mut partials = vec![vec![0.0f64; n]; num_shards - 1];
        for _ in 0..self.iterations {
            // Full-processing phase: shard 0 accumulates into `contrib` on
            // this thread, shards 1..n into their partials on scoped
            // workers; the partials are added in shard order.
            let (ranks_ref, degrees_ref) = (&ranks[..], &degrees[..]);
            let pass = |shard: usize, acc: &mut [f64]| {
                store.stream_shard_edges(shard, |src, dst, _| {
                    acc[dst as usize] += ranks_ref[src as usize] / degrees_ref[src as usize] as f64;
                });
            };
            contrib.fill(0.0);
            std::thread::scope(|scope| {
                for (i, part) in partials.iter_mut().enumerate() {
                    scope.spawn(move || {
                        part.fill(0.0);
                        pass(i + 1, part);
                    });
                }
                pass(0, &mut contrib);
            });
            for part in &partials {
                for (c, p) in contrib.iter_mut().zip(part) {
                    *c += p;
                }
            }
            // Dangling vertices spread their rank uniformly.
            let dangling: f64 =
                (0..n).filter(|&v| degrees[v] == 0).map(|v| ranks[v]).sum::<f64>() / n as f64;
            let base = (1.0 - self.damping) / n as f64;
            let mut moved = 0.0f64;
            for v in 0..n {
                let next = base + self.damping * (contrib[v] + dangling);
                moved += (next - ranks[v]).abs();
                ranks[v] = next;
            }
            iters_run += 1;
            if moved < tol {
                break;
            }
        }
        (ranks, iters_run)
    }

    /// The `k` highest-ranked vertices, descending.
    pub fn top_k<S: GraphStore + Sync>(&self, store: &S, k: usize) -> Vec<(VertexId, f64)> {
        let ranks = self.run(store);
        let mut idx: Vec<(VertexId, f64)> =
            ranks.iter().enumerate().map(|(v, &r)| (v as u32, r)).collect();
        idx.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        idx.truncate(k);
        idx
    }
}

/// Incremental PageRank: keeps the rank vector across update batches and
/// warm-starts each re-solve from it.
///
/// PageRank has no monotone frontier to repair — every vertex is active in
/// every iteration — so the incremental leverage is *convergence*, not
/// invalidation: the old fixpoint is an excellent initial guess for the
/// new one, and the tolerance stop ends the power iteration after however
/// few rounds the batch actually perturbed. The `incremental_oracle` suite
/// compares these ranks against a cold solve *at the same tolerance*; both
/// sit within `tol` of the true fixpoint, so they agree to roughly that
/// precision.
#[derive(Debug, Clone)]
pub struct IncrementalPageRank {
    pr: PageRank,
    tol: f64,
    ranks: Vec<f64>,
}

impl IncrementalPageRank {
    /// Creates an incremental solver around `pr`, stopping each re-solve
    /// once an iteration moves less than `tol` total rank mass (L1).
    pub fn new(pr: PageRank, tol: f64) -> Self {
        assert!(tol > 0.0, "tolerance must be positive");
        IncrementalPageRank { pr, tol, ranks: Vec::new() }
    }

    /// Re-solves on the updated store, warm-starting from the previous
    /// ranks. Returns the number of power iterations the re-solve took.
    pub fn after_batch<S: GraphStore + Sync>(&mut self, store: &S) -> usize {
        let warm = (!self.ranks.is_empty()).then_some(&self.ranks[..]);
        let (ranks, iters) = self.pr.run_with_tolerance(store, warm, self.tol);
        self.ranks = ranks;
        iters
    }

    /// The current rank vector (empty before the first batch).
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_core::{GraphTinker, ParallelTinker};
    use gtinker_stinger::Stinger;
    use gtinker_types::{Edge, EdgeBatch};

    fn cycle(n: u32) -> GraphTinker {
        let mut g = GraphTinker::with_defaults();
        let edges: Vec<Edge> = (0..n).map(|i| Edge::unit(i, (i + 1) % n)).collect();
        g.apply_batch(&EdgeBatch::inserts(&edges));
        g
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = cycle(10);
        let ranks = PageRank::default().run(&g);
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn cycle_is_uniform() {
        let g = cycle(8);
        let ranks = PageRank::default().run(&g);
        for &r in &ranks {
            assert!((r - 0.125).abs() < 1e-9, "cycle must be uniform, got {ranks:?}");
        }
    }

    #[test]
    fn sink_of_a_star_ranks_highest() {
        let mut g = GraphTinker::with_defaults();
        let mut batch = EdgeBatch::new();
        for v in 1..=6u32 {
            batch.push_insert(Edge::unit(v, 0)); // everyone points at 0
        }
        g.apply_batch(&batch);
        let pr = PageRank::default();
        let top = pr.top_k(&g, 1);
        assert_eq!(top[0].0, 0);
        let ranks = pr.run(&g);
        assert!(ranks[0] > 3.0 * ranks[1]);
        assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-9, "dangling mass conserved");
    }

    #[test]
    fn stores_agree_on_pagerank() {
        let edges: Vec<Edge> = (0..500u32).map(|i| Edge::unit(i % 37, (i * 7) % 41)).collect();
        let batch = EdgeBatch::inserts(&edges);
        let mut gt = GraphTinker::with_defaults();
        gt.apply_batch(&batch);
        let mut st = Stinger::with_defaults();
        st.apply_batch(&batch);
        let pr = PageRank::new(0.85, 30);
        let a = pr.run(&gt);
        let b = pr.run(&st);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "stores diverged: {x} vs {y}");
        }
    }

    #[test]
    fn sharded_pagerank_matches_sequential() {
        let edges: Vec<Edge> = (0..500u32).map(|i| Edge::unit(i % 37, (i * 7) % 41)).collect();
        let batch = EdgeBatch::inserts(&edges);
        let mut seq = GraphTinker::with_defaults();
        seq.apply_batch(&batch);
        let pr = PageRank::new(0.85, 30);
        let baseline = pr.run(&seq);
        for shards in [1, 2, 3, 4] {
            let g = ParallelTinker::new(Default::default(), shards).unwrap();
            g.apply_batch(&batch);
            let ranks = pr.run(&g);
            if shards == 1 {
                // One instance streams the plain store's order: same bits.
                assert_eq!(ranks, baseline);
            }
            assert_eq!(ranks.len(), baseline.len());
            for (x, y) in baseline.iter().zip(&ranks) {
                assert!((x - y).abs() < 1e-12, "shards={shards} diverged: {x} vs {y}");
            }
        }
    }

    #[test]
    fn empty_graph_yields_empty_ranks() {
        let g = GraphTinker::with_defaults();
        assert!(PageRank::default().run(&g).is_empty());
        assert!(PageRank::default().top_k(&g, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn invalid_damping_rejected() {
        PageRank::new(1.5, 10);
    }

    #[test]
    fn zero_tolerance_reproduces_run() {
        let g = cycle(9);
        let pr = PageRank::default();
        let (ranks, iters) = pr.run_with_tolerance(&g, None, 0.0);
        assert_eq!(ranks, pr.run(&g));
        assert_eq!(iters, pr.iterations);
    }

    #[test]
    fn warm_start_converges_faster_and_agrees() {
        let edges: Vec<Edge> = (0..400u32).map(|i| Edge::unit(i % 31, (i * 11) % 37)).collect();
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&EdgeBatch::inserts(&edges));
        let pr = PageRank::new(0.85, 200);
        let tol = 1e-10;
        let (cold, cold_iters) = pr.run_with_tolerance(&g, None, tol);
        // Perturb with one edge and re-solve warm vs cold.
        g.apply_batch(&EdgeBatch::inserts(&[Edge::unit(3, 5)]));
        let (cold2, cold2_iters) = pr.run_with_tolerance(&g, None, tol);
        let (warm2, warm_iters) = pr.run_with_tolerance(&g, Some(&cold), tol);
        assert!(warm_iters < cold2_iters, "warm {warm_iters} vs cold {cold2_iters}");
        for (x, y) in cold2.iter().zip(&warm2) {
            assert!((x - y).abs() < 1e-7, "warm diverged: {x} vs {y}");
        }
        assert!(cold_iters > 0);
    }

    #[test]
    fn incremental_pagerank_tracks_batches() {
        let mut g = GraphTinker::with_defaults();
        let mut inc = IncrementalPageRank::new(PageRank::new(0.85, 200), 1e-10);
        assert!(inc.ranks().is_empty());
        // Skewed graph: uniform start is far from the fixpoint.
        let b1 = EdgeBatch::inserts(
            &(0..200u32).map(|i| Edge::unit(i % 23, (i * 13) % 29)).collect::<Vec<_>>(),
        );
        g.apply_batch(&b1);
        let first = inc.after_batch(&g);
        // A later small batch re-solves in fewer iterations than the first.
        g.apply_batch(&EdgeBatch::inserts(&[Edge::unit(2, 7)]));
        let second = inc.after_batch(&g);
        assert!(second < first, "warm re-solve {second} vs cold {first}");
        let (cold, _) = PageRank::new(0.85, 200).run_with_tolerance(&g, None, 1e-10);
        for (x, y) in cold.iter().zip(inc.ranks()) {
            assert!((x - y).abs() < 1e-7);
        }
    }
}
