//! Randomized oracle tests: GraphTinker and STINGER against a
//! `BTreeMap<(src, dst), weight>` model under long mixed operation
//! sequences, across every feature configuration — including the durable
//! store in pipelined group-commit mode, with the per-instance op counters
//! checked against model-derived expected counts.

use std::collections::BTreeMap;

use gtinker_core::{GraphStore, GraphTinker};
use gtinker_persist::{DurableTinker, SyncPolicy, WalOptions};
use gtinker_stinger::Stinger;
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig, UpdateOp, VertexId, Weight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Model = BTreeMap<(VertexId, VertexId), Weight>;

fn random_ops(seed: u64, n: usize, v_range: u32) -> Vec<(bool, u32, u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                rng.gen_bool(0.3), // delete?
                rng.gen_range(0..v_range),
                rng.gen_range(0..v_range),
                rng.gen_range(1..100),
            )
        })
        .collect()
}

fn check_tinker_against_model(config: TinkerConfig, seed: u64, ops: usize, v_range: u32) {
    let mut g = GraphTinker::new(config).unwrap();
    let mut model = Model::new();
    for (i, (del, src, dst, w)) in random_ops(seed, ops, v_range).into_iter().enumerate() {
        if del {
            let expect = model.remove(&(src, dst)).is_some();
            assert_eq!(g.delete_edge(src, dst), expect, "op {i}: delete ({src},{dst})");
        } else {
            let expect_new = !model.contains_key(&(src, dst));
            model.insert((src, dst), w);
            assert_eq!(
                g.insert_edge(Edge::new(src, dst, w)),
                expect_new,
                "op {i}: insert ({src},{dst})"
            );
        }
    }
    assert_eq!(g.num_edges() as usize, model.len());
    // Full-content equality via the stream path (CAL when enabled).
    let mut got: Vec<(u32, u32, u32)> = Vec::new();
    g.for_each_edge(|s, d, w| got.push((s, d, w)));
    got.sort_unstable();
    let want: Vec<(u32, u32, u32)> = model.iter().map(|(&(s, d), &w)| (s, d, w)).collect();
    assert_eq!(got, want, "stream path diverged from model");
    // ... and via the main-structure scan.
    let mut got_main: Vec<(u32, u32, u32)> = Vec::new();
    g.for_each_edge_main(|s, d, w| got_main.push((s, d, w)));
    got_main.sort_unstable();
    assert_eq!(got_main, want, "main-structure scan diverged from model");
    // Point lookups agree on hits and misses.
    for (&(s, d), &w) in model.iter().take(500) {
        assert_eq!(g.edge_weight(s, d), Some(w));
    }
    for i in 0..200u32 {
        let (s, d) = (i * 31 % v_range, i * 17 % v_range);
        assert_eq!(g.edge_weight(s, d), model.get(&(s, d)).copied(), "lookup ({s},{d})");
    }
    // Degrees agree.
    for src in 0..v_range.min(64) {
        let deg = model.keys().filter(|&&(s, _)| s == src).count() as u32;
        assert_eq!(g.out_degree(src), deg, "degree of {src}");
    }
}

#[test]
fn tinker_default_config_matches_oracle() {
    check_tinker_against_model(TinkerConfig::default(), 1, 20_000, 128);
}

#[test]
fn tinker_compact_mode_matches_oracle() {
    let cfg = TinkerConfig::default().delete_mode(DeleteMode::DeleteAndCompact);
    check_tinker_against_model(cfg, 2, 20_000, 128);
}

#[test]
fn tinker_no_sgh_matches_oracle() {
    check_tinker_against_model(TinkerConfig::default().sgh(false), 3, 10_000, 96);
}

#[test]
fn tinker_no_cal_matches_oracle() {
    check_tinker_against_model(TinkerConfig::default().cal(false), 4, 10_000, 96);
}

#[test]
fn tinker_bare_matches_oracle() {
    let cfg = TinkerConfig::default().sgh(false).cal(false);
    check_tinker_against_model(cfg, 5, 10_000, 96);
}

#[test]
fn tinker_tiny_geometry_matches_oracle() {
    // Pathological geometry: maximum branching pressure.
    let cfg = TinkerConfig {
        pagewidth: 8,
        subblock: 4,
        workblock: 2,
        cal_block_size: 8,
        cal_group_size: 4,
        ..TinkerConfig::default()
    };
    check_tinker_against_model(cfg, 6, 15_000, 64);
}

#[test]
fn tinker_tiny_geometry_compact_matches_oracle() {
    let cfg = TinkerConfig {
        pagewidth: 8,
        subblock: 4,
        workblock: 2,
        delete_mode: DeleteMode::DeleteAndCompact,
        ..TinkerConfig::default()
    };
    check_tinker_against_model(cfg, 7, 15_000, 64);
}

#[test]
fn tinker_hub_heavy_workload_matches_oracle() {
    // All edges share very few sources: deep overflow trees.
    check_tinker_against_model(TinkerConfig::default(), 8, 20_000, 8);
}

/// The durable store (`shards` interval shards behind the WAL) against the
/// model: batched mixed ops through the WAL-first pipeline, with the
/// store's op counters (inserts / updates / deletes / misses) checked
/// against counts derived from the model op by op.
fn check_durable_pipelined_against_model(mode: DeleteMode, seed: u64, shards: usize) {
    let dir = std::env::temp_dir()
        .join(format!("gtinker_oracle_durable_{mode:?}_{seed}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = TinkerConfig::default().delete_mode(mode);
    let opts = WalOptions { sync: SyncPolicy::EveryN(8), ..WalOptions::default() };
    let (mut d, report) = DurableTinker::open(&dir, cfg, opts, shards).expect("open durable store");
    assert_eq!(report.replayed_records, 0, "fresh directory");

    let mut model = Model::new();
    let (mut inserts, mut updates, mut deletes, mut misses) = (0u64, 0u64, 0u64, 0u64);
    for chunk in random_ops(seed, 12_000, 96).chunks(256) {
        let mut batch = EdgeBatch::new();
        for &(del, src, dst, w) in chunk {
            if del {
                if model.remove(&(src, dst)).is_some() {
                    deletes += 1;
                } else {
                    misses += 1;
                }
                batch.push(UpdateOp::Delete { src, dst });
            } else {
                if model.insert((src, dst), w).is_some() {
                    updates += 1;
                } else {
                    inserts += 1;
                }
                batch.push(UpdateOp::Insert(Edge::new(src, dst, w)));
            }
        }
        d.apply_batch(batch).expect("pipelined apply");
    }
    d.sync().expect("final sync");

    let g = d.store();
    gtinker_integration::assert_shards_valid(g.as_ref(), "durable store");
    assert_eq!(g.num_edges() as usize, model.len(), "mode {mode:?}");
    let mut got: Vec<(u32, u32, u32)> = Vec::new();
    g.stream_edges(|s, dst, w| got.push((s, dst, w)));
    got.sort_unstable();
    let want: Vec<(u32, u32, u32)> = model.iter().map(|(&(s, dst), &w)| (s, dst, w)).collect();
    assert_eq!(got, want, "mode {mode:?}: stream path diverged from model");

    // Metric counters reconcile with the model-derived expectations.
    let ps = g.stats();
    assert_eq!(ps.inserts, inserts, "mode {mode:?}: insert counter");
    assert_eq!(ps.updates, updates, "mode {mode:?}: update counter");
    assert_eq!(ps.deletes, deletes, "mode {mode:?}: delete counter");
    assert_eq!(ps.delete_misses, misses, "mode {mode:?}: delete-miss counter");
    assert_eq!(ps.inserts - ps.deletes, g.num_edges(), "inserts - deletes == live edges");
    assert_eq!(ps.operations, 12_000, "every op was counted");

    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_pipelined_delete_only_matches_oracle() {
    check_durable_pipelined_against_model(DeleteMode::DeleteOnly, 40, 1);
}

#[test]
fn durable_pipelined_compact_matches_oracle() {
    check_durable_pipelined_against_model(DeleteMode::DeleteAndCompact, 41, 2);
}

#[test]
fn stinger_matches_oracle() {
    let mut s = Stinger::with_defaults();
    let mut model = Model::new();
    for (del, src, dst, w) in random_ops(9, 20_000, 128) {
        if del {
            let expect = model.remove(&(src, dst)).is_some();
            assert_eq!(s.delete_edge(src, dst), expect);
        } else {
            let expect_new = !model.contains_key(&(src, dst));
            model.insert((src, dst), w);
            assert_eq!(s.insert_edge(Edge::new(src, dst, w)), expect_new);
        }
    }
    assert_eq!(s.num_edges() as usize, model.len());
    let mut got: Vec<(u32, u32, u32)> = Vec::new();
    s.stream_edges(|a, b, w| got.push((a, b, w)));
    got.sort_unstable();
    let want: Vec<(u32, u32, u32)> = model.iter().map(|(&(a, b), &w)| (a, b, w)).collect();
    assert_eq!(got, want);
}

#[test]
fn delete_everything_then_reinsert() {
    for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
        let cfg = TinkerConfig { pagewidth: 16, subblock: 8, ..TinkerConfig::default() }
            .delete_mode(mode);
        let mut g = GraphTinker::new(cfg).unwrap();
        for round in 0..3 {
            for i in 0..2_000u32 {
                assert!(g.insert_edge(Edge::new(i % 32, i, round + 1)), "round {round} edge {i}");
            }
            assert_eq!(g.num_edges(), 2_000);
            for i in 0..2_000u32 {
                assert!(g.delete_edge(i % 32, i), "round {round} delete {i}");
            }
            assert_eq!(g.num_edges(), 0, "mode {mode:?} round {round}");
        }
    }
}
