//! SWAR tag-probe benchmark (no paper counterpart; acceptance gate for
//! the fingerprint-lane probe engine): point-lookup throughput, mixed
//! insert/delete churn throughput, and mean edge-cells inspected per find,
//! with tag probing on vs the seed cell-by-cell scan, on a hub-heavy Zipf
//! stream and on a uniform stream.
//!
//! Both configurations maintain tag lanes (maintenance is unconditional);
//! they differ only in the scan strategy executed, so the comparison
//! isolates the probe loop itself. The tagged engine should win on finds —
//! it touches full-width [`EdgeCell`]s only on fingerprint candidates —
//! and on churn, where every insert and delete starts with a find walk.
//! The cells-inspected ratio is measured structurally (from the store's
//! own probe counters over an identical delete sweep), so it is
//! machine-independent.
//!
//! Alongside the TSV the run emits `BENCH_probe_swar.json`; the acceptance
//! criteria are `zipf_find_tagged_meps >= 1.2 * zipf_find_seed_meps`,
//! `zipf_churn_tagged_meps >= 1.1 * zipf_churn_seed_meps`, and
//! `find_cells_seed >= 2 * find_cells_tagged`. The mean-latency fields
//! carry a `_ns` suffix so `bench_diff` gates them (inverted direction).
//!
//! [`EdgeCell`]: gtinker_core::EdgeCell

use std::collections::HashSet;
use std::time::Instant;

use gtinker_core::{GraphTinker, ProbeStats};
use gtinker_datasets::{churn_batches, dataset_by_name, SourceSkewConfig};
use gtinker_types::{Edge, EdgeBatch, TinkerConfig};

use crate::cli::Args;
use crate::report::{f3, meps, Table};

/// Batch size for the ingest / churn streams.
const OPS_PER_BATCH: usize = 10_000;

/// Interleaved trials per configuration; the best of each side is kept.
const REPS: usize = 3;

/// The engine under test: SWAR tag probing on (the default), CAL off so
/// the measurement stays on the probe structure, tiers off so hub sources
/// stay on the probed edgeblocks. Wide 32-cell subblocks
/// put the store in the scan-bound regime the tag engine targets — a
/// missed subblock costs the seed engine 32 full-cell compares (512 B of
/// cell traffic) but the tagged engine four 8-byte tag loads; the default
/// 8-cell geometry hides scan cost behind pointer-chasing instead.
fn tagged_config() -> TinkerConfig {
    TinkerConfig { pagewidth: 128, subblock: 32, workblock: 8, ..TinkerConfig::paper() }.cal(false)
}

/// The identical store flipped back to the seed scalar scan. Tag lanes are
/// still maintained, so the two differ only in the probe code they run.
fn seed_config() -> TinkerConfig {
    tagged_config().probe_tags(false)
}

fn slice_batches(edges: &[Edge]) -> Vec<EdgeBatch> {
    edges.chunks(OPS_PER_BATCH).map(EdgeBatch::inserts).collect()
}

/// Unique `(src, dst)` pairs in first-seen order: the delete sweep for the
/// structural probe-cost measurement.
fn dedup_queries(edges: &[Edge]) -> Vec<(u32, u32)> {
    let mut seen = HashSet::new();
    edges.iter().filter(|e| seen.insert((e.src, e.dst))).map(|e| (e.src, e.dst)).collect()
}

/// The timed point-lookup stream: every unique edge plus an equal number of
/// guaranteed-absent destinations (`dst + vertex_space`), shuffled with a
/// seeded xorshift so lookups don't ride the insertion-order cache
/// locality. Misses are half of real `contains_edge` traffic and the walk
/// that starts every fresh insert; they scan the whole subblock chain,
/// which is exactly where a tag lane replaces full-cell traffic.
fn lookup_stream(present: &[(u32, u32)], vertex_space: u32, seed: u64) -> Vec<(u32, u32)> {
    let mut q: Vec<(u32, u32)> = Vec::with_capacity(present.len() * 2);
    for &(s, d) in present {
        q.push((s, d));
        q.push((s, d + vertex_space));
    }
    let mut x = seed | 1;
    for i in (1..q.len()).rev() {
        // xorshift64*: deterministic, dependency-free shuffle.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        q.swap(i, (x % (i as u64 + 1)) as usize);
    }
    q
}

fn build(config: TinkerConfig, batches: &[EdgeBatch]) -> GraphTinker {
    let mut g = GraphTinker::new(config).expect("valid bench config");
    for b in batches {
        g.apply_batch(b);
    }
    g
}

/// Times one pass of point lookups; returns `(meps, mean_ns)`. The weight
/// sum is returned through the accumulator so the loop cannot be elided.
fn measure_find(g: &GraphTinker, queries: &[(u32, u32)], acc: &mut u64) -> (f64, f64) {
    let t0 = Instant::now();
    for &(s, d) in queries {
        *acc = acc.wrapping_add(g.edge_weight(s, d).unwrap_or(0) as u64);
    }
    let dur = t0.elapsed();
    (meps(queries.len() as u64, dur), dur.as_nanos() as f64 / queries.len().max(1) as f64)
}

/// Best-of-[`REPS`] interleaved find sampling over two prebuilt stores:
/// `((seed_meps, seed_ns), (tagged_meps, tagged_ns))`.
fn sample_find(
    seed: &GraphTinker,
    tagged: &GraphTinker,
    queries: &[(u32, u32)],
) -> ((f64, f64), (f64, f64)) {
    let (mut sm, mut sn, mut tm, mut tn) = (0.0f64, f64::INFINITY, 0.0f64, f64::INFINITY);
    let mut acc = 0u64;
    for _ in 0..REPS {
        let (m, n) = measure_find(seed, queries, &mut acc);
        sm = sm.max(m);
        sn = sn.min(n);
        let (m, n) = measure_find(tagged, queries, &mut acc);
        tm = tm.max(m);
        tn = tn.min(n);
    }
    // Both stores hold the same edges, so the accumulated weight sums agree;
    // consuming `acc` here keeps the lookup loops observable.
    assert!(acc > 0 || queries.is_empty(), "lookup accumulator must be live");
    ((sm, sn), (tm, tn))
}

/// Applies a mixed insert/delete stream to a fresh store; Mops/s.
fn measure_churn(config: TinkerConfig, batches: &[EdgeBatch], ops: u64) -> f64 {
    let mut g = GraphTinker::new(config).expect("valid bench config");
    let t0 = Instant::now();
    for b in batches {
        g.apply_batch(b);
    }
    meps(ops, t0.elapsed())
}

/// Best-of-[`REPS`] interleaved churn: `(seed_meps, tagged_meps)`.
fn sample_churn(batches: &[EdgeBatch], ops: u64) -> (f64, f64) {
    let (mut seed, mut tagged) = (0.0f64, 0.0f64);
    for _ in 0..REPS {
        seed = seed.max(measure_churn(seed_config(), batches, ops));
        tagged = tagged.max(measure_churn(tagged_config(), batches, ops));
    }
    (seed, tagged)
}

/// Structural probe cost: builds a store, then deletes every unique edge —
/// each delete is a find-hit through the full locate path, which the store
/// instruments — and reports mean cells inspected per find plus the
/// counters. Deterministic, so one pass suffices.
fn probe_cost(
    config: TinkerConfig,
    batches: &[EdgeBatch],
    queries: &[(u32, u32)],
) -> (f64, ProbeStats) {
    let mut g = build(config, batches);
    g.reset_stats();
    for &(s, d) in queries {
        g.delete_edge(s, d);
    }
    let st = g.stats();
    (st.cells_inspected as f64 / st.operations.max(1) as f64, st)
}

struct Side {
    find_meps: f64,
    find_ns: f64,
    churn_meps: f64,
}

fn to_json(
    ops: u64,
    zipf: (Side, Side),
    uniform: (Side, Side),
    cells: (f64, f64),
    tagged_stats: &ProbeStats,
) -> String {
    let (seed_z, tag_z) = (&zipf.0, &zipf.1);
    let (seed_u, tag_u) = (&uniform.0, &uniform.1);
    // FP rate per scanned tag lane (8 per group): the geometry-independent
    // fingerprint quality, bounded near 1/128 per occupied lane.
    let fp_pct = if tagged_stats.tag_group_scans == 0 {
        0.0
    } else {
        tagged_stats.tag_false_positives as f64 / (tagged_stats.tag_group_scans * 8) as f64 * 100.0
    };
    let mut out = String::from("{\n  \"benchmark\": \"probe_swar\",\n");
    out.push_str(&format!("  \"ops\": {ops},\n"));
    out.push_str(&format!("  \"reps\": {REPS},\n"));
    out.push_str(&format!("  \"zipf_find_seed_meps\": {:.3},\n", seed_z.find_meps));
    out.push_str(&format!("  \"zipf_find_tagged_meps\": {:.3},\n", tag_z.find_meps));
    out.push_str(&format!("  \"zipf_churn_seed_meps\": {:.3},\n", seed_z.churn_meps));
    out.push_str(&format!("  \"zipf_churn_tagged_meps\": {:.3},\n", tag_z.churn_meps));
    out.push_str(&format!("  \"uniform_find_seed_meps\": {:.3},\n", seed_u.find_meps));
    out.push_str(&format!("  \"uniform_find_tagged_meps\": {:.3},\n", tag_u.find_meps));
    out.push_str(&format!("  \"uniform_churn_seed_meps\": {:.3},\n", seed_u.churn_meps));
    out.push_str(&format!("  \"uniform_churn_tagged_meps\": {:.3},\n", tag_u.churn_meps));
    out.push_str(&format!("  \"find_seed_mean_ns\": {:.1},\n", seed_z.find_ns));
    out.push_str(&format!("  \"find_tagged_mean_ns\": {:.1},\n", tag_z.find_ns));
    out.push_str(&format!("  \"find_cells_seed\": {:.3},\n", cells.0));
    out.push_str(&format!("  \"find_cells_tagged\": {:.3},\n", cells.1));
    out.push_str(&format!("  \"find_cells_ratio\": {:.3},\n", cells.0 / cells.1.max(1e-9)));
    out.push_str(&format!("  \"tag_group_scans\": {},\n", tagged_stats.tag_group_scans));
    out.push_str(&format!("  \"tag_false_positives\": {},\n", tagged_stats.tag_false_positives));
    out.push_str(&format!("  \"tag_fp_pct\": {fp_pct:.3}\n"));
    out.push_str("}\n");
    out
}

/// Runs one workload end to end: `(seed, tagged, cells, tagged_stats)`.
fn run_workload(edges: &[Edge], churn_seed: u64) -> (Side, Side, (f64, f64), ProbeStats) {
    let batches = slice_batches(edges);
    let queries = dedup_queries(edges);
    let vertex_space = edges.iter().map(|e| e.dst).max().unwrap_or(0) + 1;
    let lookups = lookup_stream(&queries, vertex_space, churn_seed);
    let churn = churn_batches(edges, OPS_PER_BATCH, 3, churn_seed);
    let churn_ops: u64 = churn.iter().map(|b| b.len() as u64).sum();

    let seed_store = build(seed_config(), &batches);
    let tagged_store = build(tagged_config(), &batches);
    let ((seed_m, seed_n), (tag_m, tag_n)) = sample_find(&seed_store, &tagged_store, &lookups);
    drop((seed_store, tagged_store));

    let (churn_seed_m, churn_tag_m) = sample_churn(&churn, churn_ops);

    let (cells_seed, st_seed) = probe_cost(seed_config(), &batches, &queries);
    let (cells_tagged, st_tagged) = probe_cost(tagged_config(), &batches, &queries);
    assert_eq!(st_seed.tag_group_scans, 0, "seed engine must not group-scan");
    assert!(st_tagged.tag_group_scans > 0, "tagged engine never exercised the SWAR path");

    (
        Side { find_meps: seed_m, find_ns: seed_n, churn_meps: churn_seed_m },
        Side { find_meps: tag_m, find_ns: tag_n, churn_meps: churn_tag_m },
        (cells_seed, cells_tagged),
        st_tagged,
    )
}

/// Runs the SWAR probe benchmark; also writes
/// `<out-dir>/BENCH_probe_swar.json`.
pub fn run(args: &Args) -> Table {
    let spec = dataset_by_name("Zipf_SourceSkew", args.scale_factor).expect("catalog dataset");
    let zipf_edges = spec.generate();
    // Uniform control: same size, theta 0 (every source equally likely).
    let uniform_edges = SourceSkewConfig {
        num_vertices: spec.vertices,
        num_edges: spec.edges,
        theta: 0.0,
        seed: spec.seed,
        max_weight: 64,
    }
    .generate();

    let (zs, zt, zipf_cells, zt_stats) = run_workload(&zipf_edges, spec.seed);
    let (us, ut, _, _) = run_workload(&uniform_edges, spec.seed ^ 1);

    let mut t = Table::new(
        "fig_probe_swar",
        &format!(
            "SWAR tag probing vs seed scalar scan: point-lookup and churn Mops/s, \
             cells inspected per find ({}, {} edges, best of {REPS} interleaved trials)",
            spec.name,
            zipf_edges.len()
        ),
        &["workload", "engine", "find_meps", "churn_meps", "cells_per_find"],
    );
    t.push_row(vec![
        "zipf_skew".into(),
        "seed".into(),
        f3(zs.find_meps),
        f3(zs.churn_meps),
        f3(zipf_cells.0),
    ]);
    t.push_row(vec![
        "zipf_skew".into(),
        "tagged".into(),
        f3(zt.find_meps),
        f3(zt.churn_meps),
        f3(zipf_cells.1),
    ]);
    t.push_row(vec![
        "uniform".into(),
        "seed".into(),
        f3(us.find_meps),
        f3(us.churn_meps),
        "-".into(),
    ]);
    t.push_row(vec![
        "uniform".into(),
        "tagged".into(),
        f3(ut.find_meps),
        f3(ut.churn_meps),
        "-".into(),
    ]);

    let json = to_json(zipf_edges.len() as u64, (zs, zt), (us, ut), zipf_cells, &zt_stats);
    let path = std::path::Path::new(&args.out_dir).join("BENCH_probe_swar.json");
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

    fn side(m: f64, n: f64, c: f64) -> Side {
        Side { find_meps: m, find_ns: n, churn_meps: c }
    }

    #[test]
    fn json_has_the_gate_fields() {
        let st =
            ProbeStats { tag_group_scans: 1_000, tag_false_positives: 8, ..Default::default() };
        let s = to_json(
            9_000,
            (side(5.0, 200.0, 8.0), side(9.0, 110.0, 9.5)),
            (side(6.0, 180.0, 8.5), side(7.0, 150.0, 9.0)),
            (24.0, 3.0),
            &st,
        );
        assert!(s.starts_with('{') && s.trim_end().ends_with('}'));
        assert!(s.contains("\"zipf_find_tagged_meps\": 9.000"));
        assert!(s.contains("\"zipf_churn_seed_meps\": 8.000"));
        assert!(s.contains("\"find_tagged_mean_ns\": 110.0"));
        assert!(s.contains("\"find_cells_ratio\": 8.000"));
        assert!(s.contains("\"tag_fp_pct\": 0.100"));
    }

    #[test]
    fn tiny_end_to_end_run() {
        let dir = std::env::temp_dir().join(format!("gtinker_fig_probe_{}", std::process::id()));
        let args = Args {
            scale_factor: 8192,
            batches: 4,
            threads: vec![1],
            out_dir: dir.to_string_lossy().into_owned(),
        };
        let t = run(&args);
        let rendered = t.render();
        assert!(rendered.contains("tagged"));
        assert!(rendered.contains("zipf_skew"));
        let json = std::fs::read_to_string(dir.join("BENCH_probe_swar.json")).unwrap();
        assert!(json.contains("\"zipf_find_tagged_meps\""));
        assert!(json.contains("\"find_cells_ratio\""));
        assert!(json.contains("\"tag_group_scans\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
