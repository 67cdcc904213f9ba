//! Ingestion-pipeline throughput (no paper counterpart): Meps vs shard
//! count for the two parallel apply paths — the persistent
//! [`ShardPool`](gtinker_core::ShardPool) workers applied synchronously,
//! and the same workers with pipelined (submit/flush) batch overlap — plus
//! the durable path, serial vs WAL-overlapped group commit. (The
//! spawn-per-batch baseline the pool replaced is recorded in
//! EXPERIMENTS.md, "Closed experiments".)
//!
//! The stream is sliced into many *small* batches (~1000 ops) so the
//! per-batch fixed costs the pipeline removes (the synchronous wait, WAL
//! stalls) are visible rather than amortized away by giant batches.
//!
//! Alongside the TSV the run emits `BENCH_ingest_pipeline.json`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use gtinker_core::ParallelTinker;
use gtinker_persist::{DurableTinker, SyncPolicy, WalOptions};
use gtinker_types::{Edge, EdgeBatch, TinkerConfig};

use crate::cli::Args;
use crate::experiments::common::hollywood;
use crate::report::{f3, meps, Table};

/// Batch size for the sliced stream: small enough that per-batch fixed
/// costs dominate, large enough that each shard sees real work.
const OPS_PER_BATCH: usize = 1000;

/// The shard counts compared (the acceptance point is 4).
const SHARDS: &[usize] = &[1, 2, 4];

struct ShardSample {
    shards: usize,
    pooled_meps: f64,
    pipelined_meps: f64,
}

struct DurableSample {
    inline_meps: f64,
    pipelined_meps: f64,
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gtinker_bench_ingest_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn slice_batches(edges: &[Edge]) -> Vec<EdgeBatch> {
    edges.chunks(OPS_PER_BATCH).map(EdgeBatch::inserts).collect()
}

fn fresh(n: usize) -> ParallelTinker {
    ParallelTinker::new(TinkerConfig::default(), n).expect("parallel store")
}

fn measure_pooled(batches: &[EdgeBatch], ops: u64, n: usize) -> f64 {
    let g = fresh(n);
    let t0 = Instant::now();
    for b in batches {
        g.apply_batch(b);
    }
    meps(ops, t0.elapsed())
}

fn measure_pipelined(batches: &[Arc<EdgeBatch>], ops: u64, n: usize) -> f64 {
    let g = fresh(n);
    let t0 = Instant::now();
    for b in batches {
        g.submit_shared(Arc::clone(b));
    }
    g.flush();
    meps(ops, t0.elapsed())
}

fn measure_durable(batches: &[EdgeBatch], ops: u64, pipelined: bool) -> f64 {
    let dir = scratch(if pipelined { "dur_pipe" } else { "dur_inline" });
    let opts = WalOptions { sync: SyncPolicy::EveryN(8), ..WalOptions::default() };
    let (mut d, _) = DurableTinker::open(&dir, TinkerConfig::default(), opts).expect("open");
    d.set_pipelined(pipelined).expect("mode switch");
    let t0 = Instant::now();
    for b in batches {
        d.apply_batch(b).expect("durable apply");
    }
    d.sync().expect("sync");
    let rate = meps(ops, t0.elapsed());
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
    rate
}

fn to_json(ops: u64, n_batches: usize, shards: &[ShardSample], durable: &DurableSample) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"ingest_pipeline\",\n");
    out.push_str(&format!("  \"ops\": {ops},\n"));
    out.push_str(&format!("  \"batches\": {n_batches},\n"));
    out.push_str(&format!("  \"ops_per_batch\": {OPS_PER_BATCH},\n"));
    out.push_str("  \"shards\": [\n");
    for (i, s) in shards.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"pooled_meps\": {:.3}, \"pipelined_meps\": {:.3}}}{}\n",
            s.shards,
            s.pooled_meps,
            s.pipelined_meps,
            if i + 1 == shards.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    if let Some(at4) = shards.iter().find(|s| s.shards == 4).or_else(|| shards.last()) {
        out.push_str(&format!(
            "  \"speedup_pipelined_vs_pooled_at_{}\": {:.3},\n",
            at4.shards,
            at4.pipelined_meps / at4.pooled_meps.max(1e-9)
        ));
    }
    out.push_str(&format!(
        "  \"durable\": {{\"inline_meps\": {:.3}, \"pipelined_meps\": {:.3}, \
         \"overlap_speedup\": {:.3}}}\n",
        durable.inline_meps,
        durable.pipelined_meps,
        durable.pipelined_meps / durable.inline_meps.max(1e-9)
    ));
    out.push_str("}\n");
    out
}

/// Runs the ingestion-pipeline benchmark; also writes
/// `<out-dir>/BENCH_ingest_pipeline.json`.
pub fn run(args: &Args) -> Table {
    let spec = hollywood(args.scale_factor);
    let edges = spec.generate();
    let batches = slice_batches(&edges);
    let shared: Vec<Arc<EdgeBatch>> = batches.iter().map(|b| Arc::new(b.clone())).collect();
    let ops = edges.len() as u64;

    let mut t = Table::new(
        "fig_ingest_pipeline",
        &format!(
            "Ingestion pipeline: Medges/s, persistent pool vs pipelined \
             ({}, {} ops in {} batches of {})",
            spec.name,
            ops,
            batches.len(),
            OPS_PER_BATCH
        ),
        &["shards", "pooled_meps", "pipelined_meps", "pipelined_vs_pooled"],
    );

    let mut samples = Vec::new();
    for &n in SHARDS {
        let pooled = measure_pooled(&batches, ops, n);
        let pipelined = measure_pipelined(&shared, ops, n);
        t.push_row(vec![
            n.to_string(),
            f3(pooled),
            f3(pipelined),
            format!("{}x", f3(pipelined / pooled.max(1e-9))),
        ]);
        samples.push(ShardSample { shards: n, pooled_meps: pooled, pipelined_meps: pipelined });
    }

    let durable = DurableSample {
        inline_meps: measure_durable(&batches, ops, false),
        pipelined_meps: measure_durable(&batches, ops, true),
    };
    t.push_row(vec![
        "durable".into(),
        f3(durable.inline_meps),
        f3(durable.pipelined_meps),
        format!("{}x overlap", f3(durable.pipelined_meps / durable.inline_meps.max(1e-9))),
    ]);

    let json = to_json(ops, batches.len(), &samples, &durable);
    let path = std::path::Path::new(&args.out_dir).join("BENCH_ingest_pipeline.json");
    if let Err(e) =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, json))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_enough() {
        let s = to_json(
            4000,
            4,
            &[
                ShardSample { shards: 1, pooled_meps: 1.5, pipelined_meps: 1.6 },
                ShardSample { shards: 4, pooled_meps: 2.0, pipelined_meps: 2.5 },
            ],
            &DurableSample { inline_meps: 0.8, pipelined_meps: 1.2 },
        );
        assert!(s.starts_with('{') && s.trim_end().ends_with('}'));
        assert!(s.contains("\"speedup_pipelined_vs_pooled_at_4\": 1.250"));
        assert!(s.contains("\"overlap_speedup\": 1.500"));
        assert!(!s.contains("},\n  ]"), "no trailing comma before array close");
    }

    #[test]
    fn tiny_end_to_end_run() {
        let dir =
            std::env::temp_dir().join(format!("gtinker_fig_ingest_out_{}", std::process::id()));
        let args = Args {
            scale_factor: 4096,
            batches: 4,
            threads: vec![1],
            out_dir: dir.to_string_lossy().into_owned(),
        };
        let t = run(&args);
        assert!(t.render().contains("durable"));
        assert!(dir.join("BENCH_ingest_pipeline.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
