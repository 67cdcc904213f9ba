//! Incremental analytics under churn (no paper counterpart — the paper's
//! incremental model, §II.B, is monotone-only and silently recomputes on
//! deletions): four restart strategies replay the same 1k-op churn stream
//! over the same store and re-solve BFS and CC after every batch.
//!
//! * **cold** — full-processing static recompute from the roots
//!   (`AlwaysFull` + `StaticRecompute`): the floor everything is measured
//!   against.
//! * **hybrid** — the paper's inference-box hybrid, still recomputing from
//!   scratch each batch (`hybrid` + `StaticRecompute`).
//! * **monotone** — the paper's incremental-compute model: continues from
//!   the previous fixpoint on insert-only batches, but any batch with a
//!   deletion falls back to a counted cold recompute
//!   (`engine_delete_fallbacks`) — and every churn batch here has
//!   deletions, which is the point.
//! * **repair** — delta-driven invalidate-and-repair: tag the witness
//!   cone broken by the batch, re-seed it from its still-valid boundary,
//!   and run the ordinary frontier machinery to fixpoint.
//!
//! Alongside the TSV the run emits `BENCH_fig_incremental.json` with the
//! cold and repair per-batch p99 latencies and the steady-state mean
//! speedups (the CI smoke asserts the headline >= 10x at its pinned
//! scale).

use std::time::Instant;

use gtinker_core::GraphTinker;
use gtinker_engine::{
    algorithms::{Bfs, Cc},
    dynamic::symmetrize,
    DynamicRunner, Engine, IncrementalState, ModePolicy, RestartPolicy,
};
use gtinker_types::{EdgeBatch, TinkerConfig};

use crate::cli::Args;
use crate::experiments::common::hollywood;
use crate::report::Table;

/// Operations per churn batch (the issue's 1k-op batches).
const OPS_PER_BATCH: usize = 1000;

/// Fraction of the dataset pre-loaded before the churn stream starts.
const BASE_FRACTION: f64 = 0.75;

/// Deletes per batch: ~30% of the ops, hitting live base edges.
const DELETE_EVERY: usize = 3;

struct Workload {
    /// Pre-loaded graph (one big insert batch).
    base: EdgeBatch,
    /// The churn stream: mixed insert/delete batches of `OPS_PER_BATCH`.
    churn: Vec<EdgeBatch>,
    /// BFS root: the highest-degree base vertex.
    root: u32,
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Splits the dataset into a base load plus `n_batches` churn batches:
/// inserts drawn from the held-out tail, every `DELETE_EVERY`-th op a
/// delete of a seeded-random base edge (live at churn start, so the
/// deletes genuinely break witness trees).
fn workload(args: &Args, sym: bool) -> Workload {
    let spec = hollywood(args.scale_factor);
    let edges = spec.generate();
    let split = ((edges.len() as f64 * BASE_FRACTION) as usize).max(1).min(edges.len());
    let (base, tail) = edges.split_at(split);
    let root = gtinker_datasets::top_degree_vertices(base, 1).first().copied().unwrap_or(0);

    let n_batches = args.batches.max(2);
    let mut churn = Vec::with_capacity(n_batches);
    let mut x = 0x1CEB00D8u64;
    let mut tail_i = 0usize;
    for _ in 0..n_batches {
        let mut b = EdgeBatch::new();
        for i in 0..OPS_PER_BATCH {
            if (i + 1) % DELETE_EVERY == 0 {
                x = lcg(x);
                let victim = base[(x >> 33) as usize % base.len()];
                b.push_delete(victim.src, victim.dst);
            } else {
                // Cycle the tail if the stream outruns it (tiny scales).
                let e = if tail.is_empty() {
                    x = lcg(x);
                    base[(x >> 33) as usize % base.len()]
                } else {
                    let e = tail[tail_i % tail.len()];
                    tail_i += 1;
                    e
                };
                b.push_insert(e);
            }
        }
        churn.push(if sym { symmetrize(&b) } else { b });
    }
    let base = if sym { symmetrize(&EdgeBatch::inserts(base)) } else { EdgeBatch::inserts(base) };
    Workload { base, churn, root }
}

#[derive(Clone, Copy)]
struct Series {
    name: &'static str,
    policy: ModePolicy,
    restart: RestartPolicy,
    repair: bool,
}

const SERIES: [Series; 4] = [
    Series {
        name: "cold",
        policy: ModePolicy::AlwaysFull,
        restart: RestartPolicy::StaticRecompute,
        repair: false,
    },
    Series {
        name: "hybrid",
        policy: ModePolicy::Hybrid { threshold: 0.02 },
        restart: RestartPolicy::StaticRecompute,
        repair: false,
    },
    Series {
        name: "monotone",
        policy: ModePolicy::Hybrid { threshold: 0.02 },
        restart: RestartPolicy::Incremental,
        repair: false,
    },
    Series {
        name: "repair",
        policy: ModePolicy::Hybrid { threshold: 0.02 },
        restart: RestartPolicy::Incremental,
        repair: true,
    },
];

struct Sample {
    mean_us: f64,
    p99_us: f64,
}

fn percentile_us(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

/// Replays the workload under one series; returns per-batch re-solve
/// stats and (for a final sanity check) the fixpoint values.
fn run_series<P>(program: P, w: &Workload, s: Series) -> (Sample, Vec<P::Value>)
where
    P: IncrementalState + Copy,
{
    let mut g = GraphTinker::new(TinkerConfig::default()).expect("store");
    let mut runner = DynamicRunner::new(program, s.policy, s.restart);
    runner.set_repair(s.repair);
    g.apply_batch(&w.base);
    // Warmup solve on the base graph: witness forest and (for the repair
    // series) the transpose bootstrap are paid here, off the clock —
    // steady-state is what the figure is about.
    runner.after_batch(&g, &w.base);
    let mut times_us = Vec::with_capacity(w.churn.len());
    for b in &w.churn {
        g.apply_batch(b);
        let t0 = Instant::now();
        runner.after_batch(&g, b);
        times_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let mean_us = times_us.iter().sum::<f64>() / times_us.len().max(1) as f64;
    times_us.sort_unstable_by(f64::total_cmp);
    let p99_us = percentile_us(&times_us, 0.99);
    (Sample { mean_us, p99_us }, runner.engine().values().to_vec())
}

/// Cold fixpoint on the store as it stands after the whole stream.
fn final_cold<P: IncrementalState + Copy>(program: P, w: &Workload) -> Vec<P::Value> {
    let mut g = GraphTinker::new(TinkerConfig::default()).expect("store");
    g.apply_batch(&w.base);
    for b in &w.churn {
        g.apply_batch(b);
    }
    let mut e = Engine::new(program, ModePolicy::hybrid());
    e.run_from_roots(&g);
    e.values().to_vec()
}

struct AlgoResult {
    samples: Vec<(&'static str, Sample)>,
    speedup_vs_cold: f64,
    /// Mean invalidated-cone size per repaired batch (from the
    /// `engine_repair_invalidated` counter delta).
    mean_cone: f64,
    /// Mean repair-run iterations per repaired batch.
    mean_iters: f64,
}

fn run_algo<P>(program: P, w: &Workload, label: &str) -> AlgoResult
where
    P: IncrementalState + Copy,
    P::Value: PartialEq + std::fmt::Debug,
{
    let want = final_cold(program, w);
    let mut samples = Vec::new();
    let mut cold_mean = 0.0;
    let mut repair_mean = 0.0;
    let mut mean_cone = 0.0;
    let mut mean_iters = 0.0;
    for s in SERIES {
        let m = gtinker_core::metrics::global();
        let (inv0, it0) = (m.engine_repair_invalidated.get(), m.engine_repair_iters.get());
        let (sample, values) = run_series(program, w, s);
        assert_eq!(values, want, "{label}/{}: final state diverged from cold fixpoint", s.name);
        if s.name == "cold" {
            cold_mean = sample.mean_us;
        }
        if s.name == "repair" {
            repair_mean = sample.mean_us;
            let n = w.churn.len().max(1) as f64;
            mean_cone = (m.engine_repair_invalidated.get() - inv0) as f64 / n;
            mean_iters = (m.engine_repair_iters.get() - it0) as f64 / n;
        }
        samples.push((s.name, sample));
    }
    AlgoResult {
        samples,
        speedup_vs_cold: cold_mean / repair_mean.max(1e-9),
        mean_cone,
        mean_iters,
    }
}

fn find<'a>(r: &'a AlgoResult, name: &str) -> &'a Sample {
    &r.samples.iter().find(|(n, _)| *n == name).expect("series present").1
}

/// Runs the incremental-analytics benchmark.
pub fn run(args: &Args) -> Table {
    let bfs_w = workload(args, false);
    let cc_w = workload(args, true);
    let bfs = run_algo(Bfs::new(bfs_w.root), &bfs_w, "bfs");
    let cc = run_algo(Cc::new(), &cc_w, "cc");

    let mut t = Table::new(
        "fig_incremental",
        &format!(
            "Incremental analytics under churn: per-batch re-solve time, {} churn batches of \
             {} ops ({} deletes each), scale factor {}",
            bfs_w.churn.len(),
            OPS_PER_BATCH,
            OPS_PER_BATCH / DELETE_EVERY,
            args.scale_factor
        ),
        &["algo", "series", "mean_us", "p99_us", "speedup_vs_cold"],
    );
    t.fact("scale_factor", args.scale_factor as u64);
    t.fact("batches", bfs_w.churn.len());
    t.fact("ops_per_batch", OPS_PER_BATCH);
    for (algo, r) in [("bfs", &bfs), ("cc", &cc)] {
        let cold_mean = find(r, "cold").mean_us;
        for (name, s) in &r.samples {
            t.push_row(vec![
                algo.into(),
                (*name).into(),
                format!("{:.1}", s.mean_us),
                format!("{:.1}", s.p99_us),
                format!("{:.2}", cold_mean / s.mean_us.max(1e-9)),
            ]);
        }
        t.fact(&format!("cold_{algo}_batch_p99_us"), find(r, "cold").p99_us);
        t.fact(&format!("repair_{algo}_batch_p99_us"), find(r, "repair").p99_us);
        for s in SERIES {
            t.fact(&format!("{}_{algo}_batch_mean", s.name), find(r, s.name).mean_us);
        }
        t.fact(&format!("{algo}_speedup_vs_cold"), r.speedup_vs_cold);
        t.fact(&format!("{algo}_mean_cone"), r.mean_cone);
        t.fact(&format!("{algo}_mean_repair_iters"), r.mean_iters);
    }
    t.fact(
        "delete_fallbacks_observed",
        gtinker_core::metrics::global().engine_delete_fallbacks.get(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile_us(&[], 0.99), 0.0);
        assert_eq!(percentile_us(&[5.0], 0.99), 5.0);
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_us(&s, 0.0), 1.0);
        assert_eq!(percentile_us(&s, 1.0), 4.0);
    }

    #[test]
    fn workload_shape_is_sound() {
        let args = Args { scale_factor: 4096, batches: 3, ..Args::default() };
        let w = workload(&args, false);
        assert_eq!(w.churn.len(), 3);
        for b in &w.churn {
            assert_eq!(b.len(), OPS_PER_BATCH);
            assert!(b.iter().any(|op| matches!(op, gtinker_types::UpdateOp::Delete { .. })));
        }
        let ws = workload(&args, true);
        assert_eq!(ws.churn[0].len(), OPS_PER_BATCH * 2, "symmetrized batches double");
    }

    #[test]
    fn tiny_end_to_end_run() {
        let args = Args { scale_factor: 4096, batches: 3, threads: vec![1], ..Args::default() };
        let t = run(&args);
        let rendered = t.render();
        assert!(rendered.contains("repair"));
        assert!(rendered.contains("monotone"));
        let json = t.json();
        assert!(json.contains("repair_bfs_batch_p99_us"));
        assert!(json.contains("cold_cc_batch_p99_us"));
        assert!(json.contains("bfs_speedup_vs_cold"));
    }
}
