//! Analytics scaling companion to Fig. 10: BFS and PageRank throughput
//! vs. shard (worker-thread) count over the sharded GAS engine, on the
//! Hollywood-2009 RMAT stand-in loaded into a `ParallelTinker` of that
//! many instances.
//!
//! Like the update-side Fig. 10, absolute scaling flattens when the host
//! has fewer cores than shards; the per-shard timing columns expose the
//! partition balance either way. Alongside the TSV the run emits
//! `BENCH_fig10_analytics.json` for machine consumption.

use std::time::{Duration, Instant};

use gtinker_core::ParallelTinker;
use gtinker_engine::{algorithms::Bfs, algorithms::PageRank, Engine, ModePolicy};
use gtinker_types::{EdgeBatch, TinkerConfig};

use crate::cli::Args;
use crate::experiments::common::hollywood;
use crate::report::{f3, meps, Fact, Table};

/// Ratio of the slowest shard's processing time to the mean (1.0 =
/// perfectly balanced; meaningless at one shard, reported as 1.0).
fn imbalance(totals: &[Duration]) -> f64 {
    if totals.len() < 2 {
        return 1.0;
    }
    let sum: f64 = totals.iter().map(|d| d.as_secs_f64()).sum();
    let mean = sum / totals.len() as f64;
    let max = totals.iter().map(|d| d.as_secs_f64()).fold(0.0, f64::max);
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

fn measure(g: &ParallelTinker, root: u32, pr_iters: usize) -> (f64, f64, f64) {
    let mut bfs = Engine::new(Bfs::new(root), ModePolicy::AlwaysFull);
    let t0 = Instant::now();
    let report = bfs.run_from_roots(g);
    let bfs_time = t0.elapsed();
    let bfs_meps = meps(report.total_edges_processed, bfs_time);
    let bfs_imb = imbalance(&report.shard_time_totals());

    let pr = PageRank::new(0.85, pr_iters);
    let t0 = Instant::now();
    let ranks = pr.run(g);
    let pr_time = t0.elapsed();
    assert!(!ranks.is_empty());
    let pr_meps = meps(g.num_edges() * pr_iters as u64, pr_time);
    (bfs_meps, bfs_imb, pr_meps)
}

/// Runs the analytics shard-scaling sweep.
pub fn run(args: &Args) -> Table {
    let spec = hollywood(args.scale_factor);
    let edges = spec.generate();
    let root = edges.first().map(|e| e.src).unwrap_or(0);
    let batch = EdgeBatch::inserts(&edges);
    let pr_iters = 10;

    let mut t = Table::new(
        "fig10_analytics",
        &format!(
            "Analytics throughput (Medges/s) vs shard count, {} ({} edges)",
            spec.name,
            edges.len()
        ),
        &["shards", "BFS_fp", "BFS_imbalance", "PageRank"],
    );
    let mut series = Vec::new();
    for &n in &args.threads {
        let g = ParallelTinker::new(TinkerConfig::paper(), n).expect("valid experiment config");
        g.apply_batch(&batch);
        let (bfs_meps, bfs_imb, pagerank_meps) = measure(&g, root, pr_iters);
        t.push_row(vec![n.to_string(), f3(bfs_meps), f3(bfs_imb), f3(pagerank_meps)]);
        series.push(Fact::Obj(vec![
            ("shards", n.into()),
            ("bfs_meps", bfs_meps.into()),
            ("bfs_imbalance", bfs_imb.into()),
            ("pagerank_meps", pagerank_meps.into()),
        ]));
    }
    t.fact("edges", edges.len());
    t.fact("series", Fact::List(series));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_of_uniform_shards_is_one() {
        let d = Duration::from_millis(5);
        assert!((imbalance(&[d, d, d]) - 1.0).abs() < 1e-9);
        assert_eq!(imbalance(&[d]), 1.0);
        assert_eq!(imbalance(&[]), 1.0);
    }
}
