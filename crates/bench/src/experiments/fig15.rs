//! Fig. 15: BFS throughput (FP mode) as edges are deleted from
//! RMAT_2M_32M — the analytics-side cost of tombstoning vs compaction.
//!
//! Delete-only leaves the structure (and its CAL) full-sized, so each FP
//! stream pays for the dead space while yielding ever fewer live edges;
//! delete-and-compact shrinks both, keeping throughput stable. STINGER's
//! chains never shrink either.

use std::time::Instant;

use gtinker_core::ApplyBatch;
use gtinker_engine::{algorithms::Bfs, Engine, GraphStore, ModePolicy};
use gtinker_types::{DeleteMode, TinkerConfig};

use crate::cli::Args;
use crate::experiments::common::{fresh_stinger, fresh_tinker_with, rmat_2m_32m};
use crate::report::{f3, meps, Table};
use gtinker_datasets::{deletion_batches, insertion_batches, top_degree_vertices};

fn bfs_fp_throughput<S: GraphStore + Sync>(store: &S, root: u32) -> f64 {
    let mut engine = Engine::new(Bfs::new(root), ModePolicy::AlwaysFull);
    let t0 = Instant::now();
    let report = engine.run_from_roots(store);
    meps(report.total_edges_processed, t0.elapsed())
}

/// Runs the BFS-under-deletion comparison.
pub fn run(args: &Args) -> Table {
    let spec = rmat_2m_32m(args.scale_factor);
    let edges = spec.generate();
    let root = top_degree_vertices(&edges, 1)[0];
    let load = insertion_batches(&edges, (edges.len() / args.batches).max(1));
    let dels = deletion_batches(&edges, (edges.len() / args.batches).max(1), 78);

    let mut gt_tomb = fresh_tinker_with(TinkerConfig::paper().delete_mode(DeleteMode::DeleteOnly));
    let mut gt_comp =
        fresh_tinker_with(TinkerConfig::paper().delete_mode(DeleteMode::DeleteAndCompact));
    let mut st = fresh_stinger();
    for b in &load {
        gt_tomb.apply(b);
        gt_comp.apply(b);
        st.apply(b);
    }

    let mut t = Table::new(
        "fig15_bfs_after_delete",
        &format!("BFS (FP) processing throughput (Medges/s) vs edges deleted, {}", spec.name),
        &["batch", "cum_deleted", "live_edges", "GT_delete_only", "GT_compact", "STINGER"],
    );
    let mut cum = 0u64;
    for (i, b) in dels.iter().enumerate() {
        gt_tomb.apply(b);
        gt_comp.apply(b);
        st.apply(b);
        cum += b.len() as u64;
        if gt_tomb.num_edges() == 0 {
            break; // nothing left to analyze
        }
        t.push_row(vec![
            (i + 1).to_string(),
            cum.to_string(),
            gt_tomb.num_edges().to_string(),
            f3(bfs_fp_throughput(&gt_tomb, root)),
            f3(bfs_fp_throughput(&gt_comp, root)),
            f3(bfs_fp_throughput(&st, root)),
        ]);
    }
    t
}
