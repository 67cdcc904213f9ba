//! Fig. 8: insertion throughput vs. input size on Hollywood-2009,
//! single-threaded — GraphTinker with CAL, GraphTinker without CAL, and
//! STINGER. Also reports the paper's load-stability numbers (throughput
//! degradation between the fifth and last batch).

use gtinker_types::TinkerConfig;

use crate::cli::Args;
use crate::experiments::common::{dataset_batches, fresh_stinger, hollywood, timed_inserts};
use crate::report::{f3, meps, Table};

/// Runs the three insertion series batch-by-batch.
pub fn run(args: &Args) -> Table {
    let spec = hollywood(args.scale_factor);
    let batches = dataset_batches(&spec, args.batches, false);

    let mut gt_cal = crate::experiments::common::fresh_tinker();
    let with_cal = timed_inserts(&mut gt_cal, &batches);

    let mut gt_nocal =
        crate::experiments::common::fresh_tinker_with(TinkerConfig::paper().cal(false));
    let no_cal = timed_inserts(&mut gt_nocal, &batches);

    let mut st = fresh_stinger();
    let stinger = timed_inserts(&mut st, &batches);

    let mut t = Table::new(
        "fig08_insert_load",
        &format!(
            "Insertion throughput (Medges/s) vs input size, {} ({} edges, {} batches, 1 thread)",
            spec.name,
            spec.edges,
            batches.len()
        ),
        &["batch", "cum_edges", "GT+CAL", "GT-noCAL", "STINGER"],
    );
    let mut cum = 0u64;
    for (i, ((wc, nc), sg)) in with_cal.iter().zip(&no_cal).zip(&stinger).enumerate() {
        cum += wc.0;
        t.push_row(vec![
            (i + 1).to_string(),
            cum.to_string(),
            f3(meps(wc.0, wc.1)),
            f3(meps(nc.0, nc.1)),
            f3(meps(sg.0, sg.1)),
        ]);
    }

    // Load stability: degradation from the fifth batch to the last
    // (paper: GT ~34%, STINGER ~72%).
    let degradation = |series: &[(u64, std::time::Duration)]| -> f64 {
        if series.len() < 6 {
            return 0.0;
        }
        let fifth = meps(series[4].0, series[4].1);
        let last = meps(series[series.len() - 1].0, series[series.len() - 1].1);
        if fifth <= 0.0 {
            0.0
        } else {
            100.0 * (1.0 - last / fifth)
        }
    };
    let total = |series: &[(u64, std::time::Duration)]| -> f64 {
        let ops: u64 = series.iter().map(|x| x.0).sum();
        let dur: std::time::Duration = series.iter().map(|x| x.1).sum();
        meps(ops, dur)
    };
    t.push_row(vec![
        "total".into(),
        cum.to_string(),
        f3(total(&with_cal)),
        f3(total(&no_cal)),
        f3(total(&stinger)),
    ]);
    t.push_row(vec![
        "degradation_pct".into(),
        "-".into(),
        f3(degradation(&with_cal)),
        f3(degradation(&no_cal)),
        f3(degradation(&stinger)),
    ]);
    t.push_row(vec![
        "speedup_vs_stinger".into(),
        "-".into(),
        f3(total(&with_cal) / total(&stinger)),
        f3(total(&no_cal) / total(&stinger)),
        "1.000".into(),
    ]);
    t
}
