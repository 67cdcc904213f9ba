//! Ablation (§V.B text): disable SGH and/or CAL and measure the
//! full-processing analytics speedup over STINGER. The paper reports ~10X
//! with both features, dropping to ~1.5X with both disabled — a combined
//! feature contribution of over 91%.

use gtinker_types::TinkerConfig;

use crate::cli::Args;
use crate::experiments::common::{
    dataset_batches, fresh_stinger, fresh_tinker_with, hollywood, pick_root, rmat_2m_32m,
    run_analytics, Algo, Series,
};
use crate::report::{f3, speedup, Table};

/// Runs the SGH/CAL ablation with FP BFS, on the high-degree Hollywood
/// stand-in and on RMAT_2M_32M (whose sparser source space is where SGH
/// pays off).
pub fn run(args: &Args) -> Table {
    let configs: [(&str, TinkerConfig); 4] = [
        ("SGH+CAL", TinkerConfig::paper()),
        ("no_SGH", TinkerConfig::paper().sgh(false)),
        ("no_CAL", TinkerConfig::paper().cal(false)),
        ("neither", TinkerConfig::paper().sgh(false).cal(false)),
    ];

    let mut t = Table::new(
        "ablation_sgh_cal",
        "FP-mode BFS throughput with features disabled",
        &["dataset", "config", "throughput_meps", "vs_STINGER", "feature_contribution_pct"],
    );
    for spec in [hollywood(args.scale_factor), rmat_2m_32m(args.scale_factor)] {
        let batches = dataset_batches(&spec, args.batches, false);
        let root = pick_root(&batches);
        let st = run_analytics(fresh_stinger(), &batches, Algo::Bfs, Series::FullProcessing, root);
        let st_meps = st.throughput_meps();
        let mut full_meps = 0.0;
        for (i, (name, cfg)) in configs.into_iter().enumerate() {
            let out = run_analytics(
                fresh_tinker_with(cfg),
                &batches,
                Algo::Bfs,
                Series::FullProcessing,
                root,
            );
            let m = out.throughput_meps();
            if i == 0 {
                full_meps = m;
            }
            let contribution = if full_meps > 0.0 { 100.0 * (1.0 - m / full_meps) } else { 0.0 };
            t.push_row(vec![
                spec.name.to_string(),
                name.to_string(),
                f3(m),
                speedup(m / st_meps),
                if i == 0 { "-".into() } else { f3(contribution) },
            ]);
        }
        t.push_row(vec![
            spec.name.to_string(),
            "STINGER".into(),
            f3(st_meps),
            "1.00x".into(),
            "-".into(),
        ]);
    }
    t
}
