//! Hybrid-engine prediction quality (§V.B text: "we observed up to 97%
//! correctness"). For each dataset and algorithm, run the hybrid engine,
//! then score every iteration's FP/IP decision against a cost oracle
//! calibrated from the host's measured sequential-vs-random retrieval
//! advantage.

use std::time::Instant;

use gtinker_core::ApplyBatch;
use gtinker_engine::{
    algorithms::{Bfs, Cc, Sssp},
    dynamic::prediction_accuracy,
    DynamicRunner, GraphStore, IncrementalState, ModePolicy, RestartPolicy, RunReport,
};

use crate::cli::Args;
use crate::experiments::common::{dataset_batches, fresh_tinker, pick_root, Algo};
use crate::report::{f3, Table};
use gtinker_datasets::scaled_datasets;

/// Measures how much cheaper one sequentially streamed edge is than one
/// randomly retrieved edge on this host/store (the paper's separate
/// experiments that produced `threshold = 0.02`).
pub fn measure_seq_advantage<S: GraphStore>(store: &S) -> f64 {
    let mut n = 0u64;
    let t0 = Instant::now();
    store.stream_edges(|_, _, _| n += 1);
    let seq = t0.elapsed().as_secs_f64() / n.max(1) as f64;

    let mut m = 0u64;
    let t0 = Instant::now();
    for v in 0..store.vertex_space() {
        store.for_each_out_edge(v, |_, _| m += 1);
    }
    let rnd = t0.elapsed().as_secs_f64() / m.max(1) as f64;
    (rnd / seq).max(1.0)
}

fn policy_report<P: IncrementalState>(
    batches: &[gtinker_types::EdgeBatch],
    program: P,
    policy: ModePolicy,
) -> (RunReport, gtinker_core::GraphTinker) {
    let mut store = fresh_tinker();
    let mut runner = DynamicRunner::new(program, policy, RestartPolicy::Incremental);
    let mut merged = RunReport::default();
    for b in batches {
        store.apply(b);
        merged.merge(&runner.after_batch(&store, b));
    }
    (merged, store)
}

/// Runs the prediction-accuracy report.
pub fn run(args: &Args) -> Table {
    let mut t = Table::new(
        "hybrid_accuracy",
        "Inference-box decisions vs cost oracle: paper threshold (0.02) and degree-aware extension",
        &[
            "dataset",
            "algorithm",
            "iters",
            "FP_iters",
            "IP_iters",
            "seq_advantage",
            "accuracy_pct",
            "accuracy_degree_aware_pct",
        ],
    );
    for spec in scaled_datasets(args.scale_factor) {
        for algo in [Algo::Bfs, Algo::Sssp, Algo::Cc] {
            let batches = dataset_batches(&spec, args.batches, algo.needs_symmetry());
            let root = pick_root(&batches);
            let run_with = |policy: ModePolicy| match algo {
                Algo::Bfs => policy_report(&batches, Bfs::new(root), policy),
                Algo::Sssp => policy_report(&batches, Sssp::new(root), policy),
                Algo::Cc => policy_report(&batches, Cc::new(), policy),
            };
            let (report, store) = run_with(ModePolicy::hybrid());
            let adv = measure_seq_advantage(&store);
            let acc = prediction_accuracy(&report, adv);
            let (da_report, _) = run_with(ModePolicy::DegreeAware { seq_advantage: adv });
            let da_acc = prediction_accuracy(&da_report, adv);
            let (fp, ip) = report.mode_counts();
            t.push_row(vec![
                spec.name.to_string(),
                algo.name().to_string(),
                report.num_iterations().to_string(),
                fp.to_string(),
                ip.to_string(),
                f3(adv),
                f3(100.0 * acc),
                f3(100.0 * da_acc),
            ]);
        }
    }
    t
}
