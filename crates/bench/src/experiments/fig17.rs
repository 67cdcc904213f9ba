//! Fig. 17: effect of PAGEWIDTH (16/32/64/128/256) on insertion throughput,
//! Hollywood-2009. Larger pages widen the per-block hash range, cutting RHH
//! collisions and branch-outs, so insertion gets faster and more stable.

use gtinker_types::TinkerConfig;

use crate::cli::Args;
use crate::experiments::common::{dataset_batches, fresh_tinker_with, hollywood, timed_inserts};
use crate::report::{f3, meps, Table};

/// PAGEWIDTHs swept by Figs. 17-18.
pub const PAGEWIDTHS: [usize; 5] = [16, 32, 64, 128, 256];

/// Runs the PAGEWIDTH insertion sweep.
pub fn run(args: &Args) -> Table {
    let spec = hollywood(args.scale_factor);
    let batches = dataset_batches(&spec, args.batches, false);

    let series: Vec<Vec<(u64, std::time::Duration)>> = PAGEWIDTHS
        .iter()
        .map(|&pw| {
            let mut g = fresh_tinker_with(TinkerConfig { pagewidth: pw, ..TinkerConfig::paper() });
            timed_inserts(&mut g, &batches)
        })
        .collect();

    let mut t = Table::new(
        "fig17_pagewidth_insert",
        &format!("Insertion throughput (Medges/s) per PAGEWIDTH, {}", spec.name),
        &["batch", "PW16", "PW32", "PW64", "PW128", "PW256"],
    );
    for i in 0..batches.len() {
        let mut row = vec![(i + 1).to_string()];
        for s in &series {
            row.push(f3(meps(s[i].0, s[i].1)));
        }
        t.push_row(row);
    }
    let mut row = vec!["total".to_string()];
    for s in &series {
        let ops: u64 = s.iter().map(|x| x.0).sum();
        let dur: std::time::Duration = s.iter().map(|x| x.1).sum();
        row.push(f3(meps(ops, dur)));
    }
    t.push_row(row);
    t
}
