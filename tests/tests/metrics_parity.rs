//! Metrics parity: the observability layer must be purely observational.
//! Building the same graph with metric collection runtime-enabled vs
//! runtime-disabled must produce bit-identical structures and analytics
//! results, and disabling must actually stop counter movement.
//!
//! These tests flip the process-wide runtime flag, so they live in their
//! own test binary and serialize through a local lock (the flag is always
//! restored to enabled, even on panic, via a drop guard).

use gtinker_core::{metrics, GraphTinker};
use gtinker_datasets::RmatConfig;
use gtinker_engine::{
    algorithms::{Bfs, Cc, PageRank},
    Engine, ModePolicy,
};
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig};

static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Restores the runtime flag when dropped, so a failing assertion can't
/// leave the process with metrics off for unrelated tests.
struct Restore;
impl Drop for Restore {
    fn drop(&mut self) {
        metrics::set_enabled(true);
    }
}

fn build(mode: DeleteMode, collect: bool) -> GraphTinker {
    build_with(TinkerConfig::default().delete_mode(mode), collect)
}

fn build_with(cfg: TinkerConfig, collect: bool) -> GraphTinker {
    metrics::set_enabled(collect);
    let mut g = GraphTinker::new(cfg).unwrap();
    let edges = RmatConfig::graph500(10, 8_000, 55).generate();
    g.apply_batch(&EdgeBatch::inserts(&edges));
    // Mixed tail: deletes (hits and misses) and re-inserts.
    for (i, e) in edges.iter().enumerate().take(2_000) {
        if i % 3 == 0 {
            g.delete_edge(e.src, e.dst);
        } else {
            g.insert_edge(Edge::new(e.src, e.dst, (i % 97) as u32 + 1));
        }
    }
    g
}

fn edge_set(g: &GraphTinker) -> Vec<(u32, u32, u32)> {
    let mut v = Vec::new();
    g.for_each_edge(|s, d, w| v.push((s, d, w)));
    v.sort_unstable();
    v
}

#[test]
fn graph_state_identical_with_metrics_on_and_off() {
    let _guard = LOCK.lock().unwrap();
    let _restore = Restore;
    let configs = [
        TinkerConfig::default(),
        TinkerConfig::default().delete_mode(DeleteMode::DeleteAndCompact),
        TinkerConfig::paper(),
    ];
    for cfg in configs {
        let mode = (cfg.delete_mode, cfg.adaptive_enabled());
        let on = build_with(cfg, true);
        let off = build_with(cfg, false);
        assert_eq!(on.num_edges(), off.num_edges(), "mode {mode:?}");
        assert_eq!(edge_set(&on), edge_set(&off), "mode {mode:?}: edge sets diverged");
        assert_eq!(on.probe_histogram(), off.probe_histogram(), "mode {mode:?}: layout diverged");
        assert_eq!(on.stats(), off.stats(), "mode {mode:?}: per-instance stats diverged");
        // The per-instance counters are part of the structure, not the
        // metrics layer: they must move identically either way.
        assert!(on.stats().deletes > 0, "workload exercised deletion");
    }
}

#[test]
fn analytics_identical_with_metrics_on_and_off() {
    let _guard = LOCK.lock().unwrap();
    let _restore = Restore;
    let on = build(DeleteMode::DeleteOnly, true);
    let off = build(DeleteMode::DeleteOnly, false);
    let root = edge_set(&on)[0].0;

    metrics::set_enabled(true);
    let mut bfs_on = Engine::new(Bfs::new(root), ModePolicy::AlwaysFull);
    bfs_on.run_from_roots(&on);
    let mut cc_on = Engine::new(Cc::new(), ModePolicy::AlwaysFull);
    cc_on.run_from_roots(&on);
    let pr_on = PageRank::default().run(&on);

    metrics::set_enabled(false);
    let mut bfs_off = Engine::new(Bfs::new(root), ModePolicy::AlwaysFull);
    bfs_off.run_from_roots(&off);
    let mut cc_off = Engine::new(Cc::new(), ModePolicy::AlwaysFull);
    cc_off.run_from_roots(&off);
    let pr_off = PageRank::default().run(&off);

    assert_eq!(bfs_on.values(), bfs_off.values(), "BFS diverged");
    assert_eq!(cc_on.values(), cc_off.values(), "CC diverged");
    // Single-shard PageRank is fully deterministic: bit-identical ranks.
    assert_eq!(pr_on, pr_off, "PageRank diverged");
}

#[test]
fn disabled_flag_stops_counter_movement() {
    let _guard = LOCK.lock().unwrap();
    let _restore = Restore;
    if !metrics::enabled() {
        metrics::set_enabled(true);
    }

    // With the metrics feature compiled in, the runtime flag alone must
    // gate collection; with it compiled out everything stays at zero.
    metrics::set_enabled(false);
    let before = metrics::global().snapshot();
    let g = build(DeleteMode::DeleteOnly, false);
    assert!(g.num_edges() > 0);
    let after = metrics::global().snapshot();
    assert_eq!(before.tinker_inserts, after.tinker_inserts, "counter moved while disabled");
    assert_eq!(before.rhh_probe.count(), after.rhh_probe.count(), "histogram moved while disabled");

    // Integration tests build gtinker-core with default features (the
    // `metrics` feature on), so collection must resume once re-enabled.
    metrics::set_enabled(true);
    let mid = metrics::global().snapshot();
    let g = build(DeleteMode::DeleteOnly, true);
    let end = metrics::global().snapshot();
    assert!(end.tinker_inserts - mid.tinker_inserts >= g.stats().inserts);
    assert!(end.rhh_probe.count() > mid.rhh_probe.count());
}

/// JSON and Prometheus renderings stay in sync with the snapshot they
/// were taken from.
#[test]
fn snapshot_renderings_agree() {
    let _guard = LOCK.lock().unwrap();
    let _restore = Restore;
    metrics::set_enabled(true);
    let _g = build(DeleteMode::DeleteOnly, true);
    let snap = metrics::global().snapshot();
    let json = snap.to_json();
    let prom = snap.to_prometheus();
    assert!(json.contains(&format!("\"tinker_inserts\": {}", snap.tinker_inserts)));
    assert!(prom.contains(&format!("gtinker_tinker_inserts {}", snap.tinker_inserts)));
    assert!(prom.contains("gtinker_rhh_probe_count"));
    // Cumulative bucket counts in the Prometheus rendering end at the
    // total sample count.
    assert!(prom
        .contains(&format!("gtinker_rhh_probe_bucket{{le=\"+Inf\"}} {}", snap.rhh_probe.count())));
}
