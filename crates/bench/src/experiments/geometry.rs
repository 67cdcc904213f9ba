//! Geometry ablation: subblock and workblock sizes.
//!
//! The paper fixes (PAGEWIDTH, subblock, workblock) = (64, 8, 4) after
//! tuning and sweeps only PAGEWIDTH in its figures; this experiment fills
//! in the other two axes. Subblock size trades RHH residency (larger
//! subblocks overflow later → shallower trees) against per-visit scan cost;
//! workblock size trades retrieval granularity (the paper: larger
//! workblocks raise the chance an RHH attempt completes per fetch but
//! fetch more data) — observable here through the workblocks-fetched
//! counter next to wall-clock throughput.

use std::time::Duration;

use gtinker_types::TinkerConfig;

use crate::cli::Args;
use crate::experiments::common::{dataset_batches, fresh_tinker_with, hollywood, timed_inserts};
use crate::report::{f3, meps, Table};

/// Runs the subblock × workblock sweep at PAGEWIDTH 64.
pub fn run(args: &Args) -> Table {
    let spec = hollywood(args.scale_factor);
    let batches = dataset_batches(&spec, args.batches, false);
    let total_ops: u64 = batches.iter().map(|b| b.len() as u64).sum();

    let mut t = Table::new(
        "ablation_geometry",
        &format!(
            "Insert throughput and probe cost vs subblock/workblock (PAGEWIDTH 64), {}",
            spec.name
        ),
        &[
            "subblock",
            "workblock",
            "insert_meps",
            "cells_per_op",
            "workblocks_per_op",
            "branches",
            "max_depth",
        ],
    );
    for subblock in [4usize, 8, 16, 32] {
        for workblock in [2usize, 4, 8, 16, 32] {
            if workblock > subblock {
                continue;
            }
            let cfg = TinkerConfig { subblock, workblock, ..TinkerConfig::paper() };
            let mut g = fresh_tinker_with(cfg);
            let series = timed_inserts(&mut g, &batches);
            let dur: Duration = series.iter().map(|x| x.1).sum();
            let s = g.stats();
            t.push_row(vec![
                subblock.to_string(),
                workblock.to_string(),
                f3(meps(total_ops, dur)),
                f3(s.mean_probe()),
                f3(s.workblocks_fetched as f64 / s.operations as f64),
                s.branches_created.to_string(),
                s.max_depth.to_string(),
            ]);
        }
    }
    t
}
