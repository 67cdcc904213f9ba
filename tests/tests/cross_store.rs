//! Cross-structure equivalence: GraphTinker, STINGER, and their parallel
//! wrappers must expose identical graph contents for identical update
//! streams — including under feature ablations and both delete modes.

use gtinker_core::{GraphStore, GraphTinker, ParallelTinker};
use gtinker_datasets::{insertion_batches, RmatConfig};
use gtinker_stinger::{ParallelStinger, Stinger};
use gtinker_types::{DeleteMode, Edge, EdgeBatch, StingerConfig, TinkerConfig, UpdateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sorted_edges_gt(g: &GraphTinker) -> Vec<(u32, u32, u32)> {
    let mut v = Vec::new();
    g.for_each_edge(|s, d, w| v.push((s, d, w)));
    v.sort_unstable();
    v
}

fn sorted_edges_st(s: &Stinger) -> Vec<(u32, u32, u32)> {
    let mut v = Vec::new();
    s.stream_edges(|a, b, w| v.push((a, b, w)));
    v.sort_unstable();
    v
}

fn mixed_stream(seed: u64, n: usize) -> EdgeBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = EdgeBatch::with_capacity(n);
    for _ in 0..n {
        let (s, d) = (rng.gen_range(0..200u32), rng.gen_range(0..400u32));
        if rng.gen_bool(0.25) {
            batch.push_delete(s, d);
        } else {
            batch.push_insert(Edge::new(s, d, rng.gen_range(1..50)));
        }
    }
    batch
}

#[test]
fn all_structures_agree_on_mixed_stream() {
    let stream = mixed_stream(3, 30_000);

    let mut gt = GraphTinker::with_defaults();
    gt.apply_batch(&stream);
    let mut st = Stinger::with_defaults();
    st.apply_batch(&stream);
    let pt = ParallelTinker::new(TinkerConfig::default(), 4).unwrap();
    pt.apply_batch(&stream);
    let ps = ParallelStinger::new(StingerConfig::default(), 4).unwrap();
    ps.apply_batch(&stream);

    let reference = sorted_edges_gt(&gt);
    assert_eq!(sorted_edges_st(&st), reference, "Stinger vs GraphTinker");
    let mut pt_edges = Vec::new();
    pt.stream_edges(|s, d, w| pt_edges.push((s, d, w)));
    pt_edges.sort_unstable();
    assert_eq!(pt_edges, reference, "ParallelTinker vs GraphTinker");
    let mut ps_edges = Vec::new();
    ps.stream_edges(|s, d, w| ps_edges.push((s, d, w)));
    ps_edges.sort_unstable();
    assert_eq!(ps_edges, reference, "ParallelStinger vs GraphTinker");

    assert_eq!(gt.num_edges(), st.num_edges());
    assert_eq!(gt.num_edges(), pt.num_edges());
    assert_eq!(gt.num_edges(), ps.num_edges());
}

#[test]
fn ablated_configs_agree_with_full_config() {
    let stream = mixed_stream(4, 15_000);
    let mut full = GraphTinker::with_defaults();
    full.apply_batch(&stream);
    let reference = sorted_edges_gt(&full);

    for (name, cfg) in [
        ("no_sgh", TinkerConfig::default().sgh(false)),
        ("no_cal", TinkerConfig::default().cal(false)),
        ("bare", TinkerConfig::default().sgh(false).cal(false)),
        ("compact", TinkerConfig::default().delete_mode(DeleteMode::DeleteAndCompact)),
        ("pw16", TinkerConfig::with_pagewidth(16)),
        ("pw256", TinkerConfig::with_pagewidth(256)),
    ] {
        let mut g = GraphTinker::new(cfg).unwrap();
        g.apply_batch(&stream);
        assert_eq!(sorted_edges_gt(&g), reference, "config {name}");
    }
}

#[test]
fn delete_modes_agree_under_interleaved_churn() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut tomb = GraphTinker::new(TinkerConfig::default()).unwrap();
    let mut comp =
        GraphTinker::new(TinkerConfig::default().delete_mode(DeleteMode::DeleteAndCompact))
            .unwrap();
    for round in 0..20 {
        let mut batch = EdgeBatch::new();
        for _ in 0..1_000 {
            let (s, d) = (rng.gen_range(0..40u32), rng.gen_range(0..600u32));
            if rng.gen_bool(0.4) {
                batch.push_delete(s, d);
            } else {
                batch.push_insert(Edge::new(s, d, round + 1));
            }
        }
        tomb.apply_batch(&batch);
        comp.apply_batch(&batch);
        assert_eq!(
            sorted_edges_gt(&tomb),
            sorted_edges_gt(&comp),
            "delete modes diverged at round {round}"
        );
    }
    // Compact mode must actually have recycled something under this churn.
    assert!(comp.structure_stats().free_blocks + comp.structure_stats().overflow_blocks > 0);
}

#[test]
fn parallel_instance_counts_do_not_change_results() {
    let edges = RmatConfig::graph500(10, 8_000, 12).generate();
    let batches = insertion_batches(&edges, 1_000);
    let reference = {
        let mut g = GraphTinker::with_defaults();
        for b in &batches {
            g.apply_batch(b);
        }
        sorted_edges_gt(&g)
    };
    for n in [1, 2, 3, 7, 8] {
        let p = ParallelTinker::new(TinkerConfig::default(), n).unwrap();
        for b in &batches {
            p.apply_batch(b);
        }
        let mut got = Vec::new();
        p.stream_edges(|s, d, w| got.push((s, d, w)));
        got.sort_unstable();
        assert_eq!(got, reference, "{n} instances");
    }
}

#[test]
fn batch_result_counts_match_between_structures() {
    let stream = mixed_stream(6, 5_000);
    let mut gt = GraphTinker::with_defaults();
    let r = gt.apply_batch(&stream);
    // Internal consistency of the counts themselves.
    let inserts = stream.iter().filter(|op| op.is_insert()).count() as u64;
    let deletes = stream.len() as u64 - inserts;
    assert_eq!(r.inserted + r.updated, inserts);
    assert_eq!(r.deleted + r.not_found, deletes);
    assert_eq!(gt.num_edges(), r.inserted - r.deleted);

    // STINGER sees the same live count.
    let mut st = Stinger::with_defaults();
    let (ins, del) = st.apply_batch(&stream);
    assert_eq!(ins, inserts);
    assert_eq!(del, r.deleted);
    assert_eq!(st.num_edges(), gt.num_edges());
}

#[test]
fn degrees_agree_across_structures() {
    let stream = mixed_stream(7, 12_000);
    let mut gt = GraphTinker::with_defaults();
    gt.apply_batch(&stream);
    let mut st = Stinger::with_defaults();
    st.apply_batch(&stream);
    let max_v = stream.iter().map(UpdateOp::src).max().unwrap_or(0);
    for v in 0..=max_v {
        assert_eq!(gt.out_degree(v), st.out_degree(v), "degree of {v}");
    }
}
