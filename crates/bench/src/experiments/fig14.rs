//! Fig. 14: edge-deletion throughput vs. amount deleted on RMAT_2M_32M —
//! GraphTinker delete-only, GraphTinker delete-and-compact, and STINGER.
//! The graph is fully loaded first, then deleted in batches until empty.

use std::time::Instant;

use gtinker_core::{ApplyBatch, GraphStore};
use gtinker_types::{DeleteMode, TinkerConfig};

use crate::cli::Args;
use crate::experiments::common::{fresh_stinger, fresh_tinker_with, rmat_2m_32m};
use crate::report::{f3, meps, Table};
use gtinker_datasets::{deletion_batches, insertion_batches};

/// Runs the deletion-throughput comparison.
pub fn run(args: &Args) -> Table {
    let spec = rmat_2m_32m(args.scale_factor);
    let edges = spec.generate();
    let load = insertion_batches(&edges, (edges.len() / args.batches).max(1));
    let dels = deletion_batches(&edges, (edges.len() / args.batches).max(1), 77);

    let mut t = Table::new(
        "fig14_delete",
        &format!(
            "Deletion throughput (Medges/s) vs edges deleted, {} ({} distinct edges)",
            spec.name,
            dels.iter().map(|b| b.len()).sum::<usize>()
        ),
        &["batch", "cum_deleted", "GT_delete_only", "GT_compact", "STINGER"],
    );

    let mut gt_tomb = fresh_tinker_with(TinkerConfig::paper().delete_mode(DeleteMode::DeleteOnly));
    let mut gt_comp =
        fresh_tinker_with(TinkerConfig::paper().delete_mode(DeleteMode::DeleteAndCompact));
    let mut st = fresh_stinger();
    for b in &load {
        gt_tomb.apply(b);
        gt_comp.apply(b);
        st.apply(b);
    }

    let mut cum = 0u64;
    for (i, b) in dels.iter().enumerate() {
        let ops = b.len() as u64;
        let t0 = Instant::now();
        gt_tomb.apply(b);
        let d_tomb = t0.elapsed();
        let t0 = Instant::now();
        gt_comp.apply(b);
        let d_comp = t0.elapsed();
        let t0 = Instant::now();
        st.apply(b);
        let d_st = t0.elapsed();
        cum += ops;
        t.push_row(vec![
            (i + 1).to_string(),
            cum.to_string(),
            f3(meps(ops, d_tomb)),
            f3(meps(ops, d_comp)),
            f3(meps(ops, d_st)),
        ]);
    }
    assert_eq!(gt_tomb.num_edges(), 0, "delete stream must empty the database");
    assert_eq!(gt_comp.num_edges(), 0);
    assert_eq!(st.num_edges(), 0);
    t
}
