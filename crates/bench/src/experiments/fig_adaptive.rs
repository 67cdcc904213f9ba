//! Degree-adaptive tier benchmark (no paper counterpart; acceptance gate
//! for the hybrid vertex representation): insert throughput, memory per
//! edge, and analytics latency of the default tiered layout vs the paper's
//! fixed RHH geometry (`TinkerConfig::paper()`), on a hub-heavy Zipf stream
//! and on a uniform stream.
//!
//! The default layout should win on the skewed stream (the degree-1..4
//! tail skips edgeblock allocation entirely; hubs trade hash probing for a
//! sorted gallop) and must not lose more than noise on the uniform stream,
//! where almost every vertex sits in the edgeblock tier and the only cost
//! is the per-insert tier dispatch.
//!
//! All configurations run with the CAL disabled: CAL-on streaming is
//! identical across tiers by construction (the CAL is tier-transparent),
//! so disabling it makes the analytics comparison exercise the per-tier
//! adjacency walks and the bytes/edge comparison count only adjacency
//! structure.
//!
//! Alongside the TSV the run emits `BENCH_fig_adaptive.json`; the
//! acceptance criteria are `skew_default_meps >= skew_paper_meps`,
//! `default_bytes_per_edge <= paper_bytes_per_edge`, and
//! `uniform_default_meps` within 5 % of `uniform_paper_meps`.

use std::time::Instant;

use gtinker_core::GraphTinker;
use gtinker_datasets::{dataset_by_name, SourceSkewConfig};
use gtinker_engine::{algorithms::Bfs, Engine, ModePolicy};
use gtinker_types::{Edge, EdgeBatch, TinkerConfig};

use crate::cli::Args;
use crate::report::{f3, meps, Table};

/// Batch size for the ingest stream.
const OPS_PER_BATCH: usize = 10_000;

/// Interleaved trials per configuration; the best of each side is kept.
const REPS: usize = 3;

/// The paper's fixed-geometry baseline (CAL off, see module doc).
fn paper_config() -> TinkerConfig {
    TinkerConfig::paper().cal(false)
}

/// The default configuration under test (same geometry, tiers on).
fn default_config() -> TinkerConfig {
    TinkerConfig::default().cal(false)
}

fn slice_batches(edges: &[Edge]) -> Vec<EdgeBatch> {
    edges.chunks(OPS_PER_BATCH).map(EdgeBatch::inserts).collect()
}

/// Ingests all batches into a fresh store, returning Medges/s.
fn measure_insert(config: TinkerConfig, batches: &[EdgeBatch], ops: u64) -> f64 {
    let mut g = GraphTinker::new(config).expect("valid bench config");
    let t0 = Instant::now();
    for b in batches {
        g.apply_batch(b);
    }
    meps(ops, t0.elapsed())
}

/// Best-of-[`REPS`] interleaved: `(paper_meps, default_meps)`.
fn sample_insert(batches: &[EdgeBatch], ops: u64) -> (f64, f64) {
    let (mut paper, mut tiered) = (0.0f64, 0.0f64);
    for _ in 0..REPS {
        paper = paper.max(measure_insert(paper_config(), batches, ops));
        tiered = tiered.max(measure_insert(default_config(), batches, ops));
    }
    (paper, tiered)
}

/// Builds a store once and reports `(bytes_per_edge, bfs_ms, store)`.
fn build_and_probe(
    config: TinkerConfig,
    batches: &[EdgeBatch],
    root: u32,
) -> (f64, f64, GraphTinker) {
    let mut g = GraphTinker::new(config).expect("valid bench config");
    for b in batches {
        g.apply_batch(b);
    }
    let st = g.structure_stats();
    let bpe = st.memory_bytes as f64 / st.live_edges.max(1) as f64;
    let mut best_ms = f64::INFINITY;
    for _ in 0..REPS {
        let mut e = Engine::new(Bfs::new(root), ModePolicy::AlwaysFull);
        let t0 = Instant::now();
        e.run_from_roots(&g);
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (bpe, best_ms, g)
}

/// Runs the adaptive-tier benchmark.
pub fn run(args: &Args) -> Table {
    let skew_spec = dataset_by_name("Zipf_SourceSkew", args.scale_factor).expect("catalog dataset");
    let skew_edges = skew_spec.generate();
    let skew_batches = slice_batches(&skew_edges);
    let skew_ops = skew_edges.len() as u64;

    // Uniform control: same size, theta 0 (every source equally likely).
    let uniform_edges = SourceSkewConfig {
        num_vertices: skew_spec.vertices,
        num_edges: skew_spec.edges,
        theta: 0.0,
        seed: skew_spec.seed,
        max_weight: 64,
    }
    .generate();
    let uniform_batches = slice_batches(&uniform_edges);

    let mut t = Table::new(
        "fig_adaptive",
        &format!(
            "Default tiered layout vs the paper's fixed geometry: insert Medges/s, bytes/edge, \
             BFS latency ({}, {} ops, best of {REPS} interleaved trials)",
            skew_spec.name, skew_ops
        ),
        &["workload", "config", "insert_meps", "bytes_per_edge", "bfs_ms"],
    );

    let skew = sample_insert(&skew_batches, skew_ops);
    let uniform = sample_insert(&uniform_batches, skew_ops);

    // A root with edges: the most frequent Zipf rank always has some.
    let root = skew_edges.first().map(|e| e.src).unwrap_or(0);
    let (paper_bpe, paper_bfs, _) = build_and_probe(paper_config(), &skew_batches, root);
    let (default_bpe, default_bfs, gd) = build_and_probe(default_config(), &skew_batches, root);
    let st = gd.structure_stats();
    assert!(
        st.tier_inline_vertices + st.tier_hub_vertices > 0,
        "the skewed stream must exercise the inline and hub tiers"
    );

    t.push_row(vec!["zipf_skew".into(), "paper".into(), f3(skew.0), f3(paper_bpe), f3(paper_bfs)]);
    t.push_row(vec![
        "zipf_skew".into(),
        "default".into(),
        f3(skew.1),
        f3(default_bpe),
        f3(default_bfs),
    ]);
    t.push_row(vec!["uniform".into(), "paper".into(), f3(uniform.0), "-".into(), "-".into()]);
    t.push_row(vec!["uniform".into(), "default".into(), f3(uniform.1), "-".into(), "-".into()]);

    t.fact("ops", skew_ops);
    t.fact("reps", REPS);
    t.fact("skew_paper_meps", skew.0);
    t.fact("skew_default_meps", skew.1);
    t.fact("uniform_paper_meps", uniform.0);
    t.fact("uniform_default_meps", uniform.1);
    t.fact("paper_bytes_per_edge", paper_bpe);
    t.fact("default_bytes_per_edge", default_bpe);
    t.fact("bfs_paper_ms", paper_bfs);
    t.fact("bfs_default_ms", default_bfs);
    t.fact("tier_inline_vertices", st.tier_inline_vertices);
    t.fact("tier_blocks_vertices", st.tier_blocks_vertices);
    t.fact("tier_hub_vertices", st.tier_hub_vertices);
    t.fact("tier_promotions", st.tier_promotions);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_end_to_end_run() {
        let args = Args { scale_factor: 8192, batches: 4, threads: vec![1], ..Args::default() };
        let t = run(&args);
        let rendered = t.render();
        assert!(rendered.contains("zipf_skew"));
        assert!(rendered.contains("default"));
        let json = t.json();
        assert!(json.contains("\"skew_default_meps\""));
        assert!(json.contains("\"tier_promotions\""));
    }
}
