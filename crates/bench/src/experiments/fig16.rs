//! Fig. 16: average BFS / SSSP / CC processing throughput on RMAT_2M_32M
//! while edge deletions are performed — delete-and-compact vs delete-only
//! vs STINGER.

use std::time::{Duration, Instant};

use gtinker_core::ApplyBatch;
use gtinker_engine::{
    algorithms::{Bfs, Cc, Sssp},
    Engine, GasProgram, GraphStore, ModePolicy,
};
use gtinker_types::{DeleteMode, TinkerConfig};

use crate::cli::Args;
use crate::experiments::common::{fresh_stinger, fresh_tinker_with, rmat_2m_32m, Algo};
use crate::report::{f3, meps, Table};
use gtinker_datasets::{deletion_batches, insertion_batches, top_degree_vertices};

fn fp_run<S: GraphStore + Sync, P: GasProgram>(store: &S, program: P) -> (u64, Duration) {
    let mut engine = Engine::new(program, ModePolicy::AlwaysFull);
    let t0 = Instant::now();
    let report = engine.run_from_roots(store);
    (report.total_edges_processed, t0.elapsed())
}

fn fp_by_algo<S: GraphStore + Sync>(store: &S, algo: Algo, root: u32) -> (u64, Duration) {
    match algo {
        Algo::Bfs => fp_run(store, Bfs::new(root)),
        Algo::Sssp => fp_run(store, Sssp::new(root)),
        Algo::Cc => fp_run(store, Cc::new()),
    }
}

/// Runs the deletion-analytics average-throughput comparison.
pub fn run(args: &Args) -> Table {
    let spec = rmat_2m_32m(args.scale_factor);
    let edges = spec.generate();
    let root = top_degree_vertices(&edges, 1)[0];
    let load = insertion_batches(&edges, (edges.len() / args.batches).max(1));
    let dels = deletion_batches(&edges, (edges.len() / args.batches).max(1), 79);

    let mut t = Table::new(
        "fig16_delete_analytics",
        &format!("Average processing throughput (Medges/s) under deletions, {}", spec.name),
        &["algorithm", "GT_compact", "GT_delete_only", "STINGER"],
    );

    for algo in [Algo::Bfs, Algo::Sssp, Algo::Cc] {
        let mut gt_tomb =
            fresh_tinker_with(TinkerConfig::paper().delete_mode(DeleteMode::DeleteOnly));
        let mut gt_comp =
            fresh_tinker_with(TinkerConfig::paper().delete_mode(DeleteMode::DeleteAndCompact));
        let mut st = fresh_stinger();
        for b in &load {
            gt_tomb.apply(b);
            gt_comp.apply(b);
            st.apply(b);
        }
        let mut acc = [(0u64, Duration::ZERO); 3];
        for b in &dels {
            gt_tomb.apply(b);
            gt_comp.apply(b);
            st.apply(b);
            if gt_tomb.num_edges() == 0 {
                break;
            }
            for (slot, run) in acc.iter_mut().zip([
                fp_by_algo(&gt_comp, algo, root),
                fp_by_algo(&gt_tomb, algo, root),
                fp_by_algo(&st, algo, root),
            ]) {
                slot.0 += run.0;
                slot.1 += run.1;
            }
        }
        t.push_row(vec![
            algo.name().to_string(),
            f3(meps(acc[0].0, acc[0].1)),
            f3(meps(acc[1].0, acc[1].1)),
            f3(meps(acc[2].0, acc[2].1)),
        ]);
    }
    t
}
