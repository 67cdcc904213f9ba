//! CAL vs CSR-rebuild: quantifies the paper's central "no pre-processing"
//! claim (§III.B). The store-and-static-compute model of prior work
//! (§II.B) converts the structure to CSR after every batch to regain
//! sequential streaming; GraphTinker's CAL maintains streamability online.
//! This experiment charges each strategy its true cost per batch:
//!
//! * **CAL**: run FP BFS directly off the live structure (CAL stream);
//! * **CSR**: rebuild a [`CsrSnapshot`] from the structure, then run FP BFS
//!   over the snapshot — rebuild time included;
//! * **CSR (analysis only)**: the same, with the rebuild excluded — the
//!   upper bound CSR streaming could reach if snapshots were free.

use std::time::{Duration, Instant};

use gtinker_core::ApplyBatch;
use gtinker_engine::{algorithms::Bfs, CsrSnapshot, Engine, ModePolicy};
use gtinker_types::TinkerConfig;

use crate::cli::Args;
use crate::experiments::common::{dataset_batches, fresh_tinker_with, pick_root};
use crate::report::{f3, meps, speedup, Table};
use gtinker_datasets::scaled_datasets;

/// Runs the CAL-vs-CSR comparison across the catalog.
pub fn run(args: &Args) -> Table {
    let mut t = Table::new(
        "ablation_cal_vs_csr",
        "FP BFS after every batch: CAL stream vs rebuild-CSR-then-stream (Medges/s)",
        &["dataset", "CAL", "CSR_with_rebuild", "CSR_analysis_only", "CAL_vs_CSR"],
    );
    for spec in scaled_datasets(args.scale_factor) {
        let batches = dataset_batches(&spec, args.batches, false);
        let root = pick_root(&batches);

        // CAL path: stream the live structure.
        let mut g = fresh_tinker_with(TinkerConfig::paper());
        let mut cal_time = Duration::ZERO;
        let mut weighted = 0u64;
        for b in &batches {
            g.apply(b);
            let t0 = Instant::now();
            let mut e = Engine::new(Bfs::new(root), ModePolicy::AlwaysFull);
            e.run_from_roots(&g);
            cal_time += t0.elapsed();
            weighted += g.num_edges();
        }

        // CSR path: rebuild a snapshot each batch, then analyze it.
        let mut g = fresh_tinker_with(TinkerConfig::paper());
        let mut rebuild_time = Duration::ZERO;
        let mut analyze_time = Duration::ZERO;
        for b in &batches {
            g.apply(b);
            let t0 = Instant::now();
            let csr = CsrSnapshot::build(&g);
            rebuild_time += t0.elapsed();
            let t0 = Instant::now();
            let mut e = Engine::new(Bfs::new(root), ModePolicy::AlwaysFull);
            e.run_from_roots(&csr);
            analyze_time += t0.elapsed();
        }

        let cal = meps(weighted, cal_time);
        let csr_full = meps(weighted, rebuild_time + analyze_time);
        let csr_pure = meps(weighted, analyze_time);
        t.push_row(vec![
            spec.name.to_string(),
            f3(cal),
            f3(csr_full),
            f3(csr_pure),
            speedup(cal / csr_full),
        ]);
    }
    t
}
