//! Fig. 10: update throughput vs. number of cores — interval-partitioned
//! GraphTinker vs STINGER instances (paper §III.D), on Hollywood-2009.
//!
//! On a single-core host the absolute scaling flattens (threads are
//! oversubscribed), but both sides are oversubscribed equally so the
//! GraphTinker-vs-STINGER ordering at each thread count is preserved; see
//! EXPERIMENTS.md.

use std::time::{Duration, Instant};

use gtinker_core::ParallelTinker;
use gtinker_stinger::ParallelStinger;
use gtinker_types::{EdgeBatch, StingerConfig, TinkerConfig};

use crate::cli::Args;
use crate::experiments::common::{dataset_batches, hollywood};
use crate::report::{f3, meps, Table};

fn first_last(durations: &[(u64, Duration)]) -> (f64, f64) {
    let first = durations.first().map(|&(o, d)| meps(o, d)).unwrap_or(0.0);
    let last = durations.last().map(|&(o, d)| meps(o, d)).unwrap_or(0.0);
    (first, last)
}

fn run_parallel_tinker(batches: &[EdgeBatch], n: usize) -> Vec<(u64, Duration)> {
    let p = ParallelTinker::new(TinkerConfig::paper(), n).expect("valid config");
    batches
        .iter()
        .map(|b| {
            let t0 = Instant::now();
            p.apply_batch(b);
            (b.len() as u64, t0.elapsed())
        })
        .collect()
}

fn run_parallel_stinger(batches: &[EdgeBatch], n: usize) -> Vec<(u64, Duration)> {
    let p = ParallelStinger::new(StingerConfig::default(), n).expect("valid config");
    batches
        .iter()
        .map(|b| {
            let t0 = Instant::now();
            p.apply_batch(b);
            (b.len() as u64, t0.elapsed())
        })
        .collect()
}

/// Runs the multicore insertion comparison.
pub fn run(args: &Args) -> Table {
    let spec = hollywood(args.scale_factor);
    let batches = dataset_batches(&spec, args.batches, false);
    let total_ops: u64 = batches.iter().map(|b| b.len() as u64).sum();

    let mut t = Table::new(
        "fig10_multicore",
        &format!("Update throughput (Medges/s) vs cores, {} ({} edges)", spec.name, total_ops),
        &["cores", "GT_total", "GT_first", "GT_last", "ST_total", "ST_first", "ST_last"],
    );
    for &n in &args.threads {
        let gt = run_parallel_tinker(&batches, n);
        let st = run_parallel_stinger(&batches, n);
        let gt_total = meps(total_ops, gt.iter().map(|x| x.1).sum());
        let st_total = meps(total_ops, st.iter().map(|x| x.1).sum());
        let (gf, gl) = first_last(&gt);
        let (sf, sl) = first_last(&st);
        t.push_row(vec![n.to_string(), f3(gt_total), f3(gf), f3(gl), f3(st_total), f3(sf), f3(sl)]);
    }
    t
}
