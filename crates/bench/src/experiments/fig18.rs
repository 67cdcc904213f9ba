//! Fig. 18: effect of PAGEWIDTH on BFS throughput in incremental-processing
//! mode (the mode that reads the EdgeblockArray directly). Smaller pages
//! pack live edges denser, so per-vertex retrieval touches fewer dead
//! cells and analytics gets faster — the inverse of Fig. 17's trend.

use std::time::Instant;

use gtinker_core::ApplyBatch;
use gtinker_engine::{algorithms::Bfs, Engine, ModePolicy};
use gtinker_types::TinkerConfig;

use crate::cli::Args;
use crate::experiments::common::{dataset_batches, fresh_tinker_with, hollywood};
use crate::experiments::fig17::PAGEWIDTHS;
use crate::report::{f3, meps, Table};
use gtinker_datasets::top_degree_vertices;

/// Runs the PAGEWIDTH analytics sweep.
pub fn run(args: &Args) -> Table {
    let spec = hollywood(args.scale_factor);
    let edges = spec.generate();
    let root = top_degree_vertices(&edges, 1)[0];
    let batches = dataset_batches(&spec, args.batches, false);

    let mut t = Table::new(
        "fig18_pagewidth_bfs",
        &format!("BFS (IP mode) throughput (Medges/s) per PAGEWIDTH, {}", spec.name),
        &["pagewidth", "bfs_meps", "edges_processed", "iterations"],
    );
    for &pw in &PAGEWIDTHS {
        let mut g = fresh_tinker_with(TinkerConfig { pagewidth: pw, ..TinkerConfig::paper() });
        for b in &batches {
            g.apply(b);
        }
        let mut engine = Engine::new(Bfs::new(root), ModePolicy::AlwaysIncremental);
        let t0 = Instant::now();
        let report = engine.run_from_roots(&g);
        let dur = t0.elapsed();
        t.push_row(vec![
            pw.to_string(),
            f3(meps(report.total_edges_processed, dur)),
            report.total_edges_processed.to_string(),
            report.num_iterations().to_string(),
        ]);
    }
    t
}
