//! Fig. 19: choice of optimal PAGEWIDTH — total elapsed time for mixed
//! update/analytics workloads, averaged over update:analytics ratios, per
//! dataset and PAGEWIDTH.
//!
//! Following the paper: for each (dataset, PAGEWIDTH, ratio u:a), the edge
//! stream is inserted in batches and intercepted `u` times; each
//! interception runs `a` BFS analyses, each from a different root drawn
//! from the dataset's 20 highest-degree vertices. The reported number is
//! the total elapsed time (updates + analytics) averaged across the ratios.

use std::time::Instant;

use gtinker_core::ApplyBatch;
use gtinker_engine::{algorithms::Bfs, Engine, ModePolicy};
use gtinker_types::TinkerConfig;

use crate::cli::Args;
use crate::experiments::common::{dataset_batches, fresh_tinker_with};
use crate::report::Table;
use gtinker_datasets::{scaled_datasets, top_degree_vertices, DatasetKind};

/// PAGEWIDTHs swept by Fig. 19 (extends Figs. 17-18's set down to 8).
pub const PAGEWIDTHS_19: [usize; 6] = [8, 16, 32, 64, 128, 256];

/// Update:analytics ratios; the paper sweeps 1:10 through 10:1.
pub const RATIOS: [(usize, usize); 5] = [(1, 10), (1, 4), (1, 1), (4, 1), (10, 1)];

fn one_experiment(
    batches: &[gtinker_types::EdgeBatch],
    roots: &[u32],
    pw: usize,
    interceptions: usize,
    analytics_per_stop: usize,
) -> f64 {
    let mut g = fresh_tinker_with(TinkerConfig { pagewidth: pw, ..TinkerConfig::paper() });
    let stops = interceptions.clamp(1, batches.len());
    let every = batches.len().div_ceil(stops);
    let mut root_idx = 0usize;
    let t0 = Instant::now();
    for (i, b) in batches.iter().enumerate() {
        g.apply(b);
        if (i + 1) % every == 0 || i + 1 == batches.len() {
            for _ in 0..analytics_per_stop {
                let root = roots[root_idx % roots.len()];
                root_idx += 1;
                let mut engine = Engine::new(Bfs::new(root), ModePolicy::hybrid());
                engine.run_from_roots(&g);
            }
        }
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs the optimal-PAGEWIDTH sweep; cells are mean elapsed milliseconds
/// across ratios (lower is better).
pub fn run(args: &Args) -> Table {
    let datasets: Vec<_> = scaled_datasets(args.scale_factor)
        .into_iter()
        .filter(|d| d.kind == DatasetKind::Rmat && d.name.starts_with("RMAT"))
        .collect();

    let mut t = Table::new(
        "fig19_pagewidth_optimal",
        &format!("Mean elapsed ms across update:analytics ratios {:?} (lower is better)", RATIOS),
        &["dataset", "PW8", "PW16", "PW32", "PW64", "PW128", "PW256"],
    );
    for spec in &datasets {
        let edges = spec.generate();
        let roots = top_degree_vertices(&edges, 20);
        let batches = dataset_batches(spec, args.batches, false);
        let mut row = vec![spec.name.to_string()];
        for &pw in &PAGEWIDTHS_19 {
            let mut total_ms = 0.0;
            for &(u, a) in &RATIOS {
                total_ms += one_experiment(&batches, &roots, pw, u, a);
            }
            row.push(format!("{:.1}", total_ms / RATIOS.len() as f64));
        }
        t.push_row(row);
    }
    t
}
