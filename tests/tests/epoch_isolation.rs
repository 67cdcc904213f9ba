//! Property suite for epoch-pinned snapshot isolation: readers that pin a
//! view mid-stream must observe **exactly** the edge set (and analytics
//! results) of some acked batch boundary — never a torn mid-batch state —
//! under sequential and pipelined apply and under both delete modes.
//!
//! The oracle replays the same batch stream against a plain `BTreeMap`,
//! recording the full edge set at every batch boundary. A pinned view
//! reports its boundary via `epoch()`, so the check is exact equality
//! against `boundaries[epoch]`, not merely "some plausible subset".

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use gtinker_core::{GraphStore, GraphTinker, ParallelTinker, ReadGuard, ShardAccess};
use gtinker_engine::{algorithms::Bfs, Engine, ModePolicy};
use gtinker_integration::{assert_shards_valid as assert_valid, reference};
use gtinker_types::{partition_of, DeleteMode, Edge, EdgeBatch, TinkerConfig, UpdateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VERTICES: u32 = 181;
const BATCHES: usize = 48;
const OPS_PER_BATCH: usize = 400;

/// The oracle edge set at one batch boundary, sorted by (src, dst).
type Boundary = Vec<(u32, u32, u32)>;

/// Deterministic mixed insert/delete batch stream plus the oracle edge
/// set at every batch boundary (`boundaries[k]` = after the first `k`
/// batches; `boundaries[0]` is the empty graph).
fn workload(seed: u64) -> (Vec<EdgeBatch>, Vec<Boundary>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    let mut batches = Vec::with_capacity(BATCHES);
    let mut boundaries = Vec::with_capacity(BATCHES + 1);
    boundaries.push(Vec::new());
    for _ in 0..BATCHES {
        let mut b = EdgeBatch::new();
        for _ in 0..OPS_PER_BATCH {
            let src = rng.gen_range(0..VERTICES);
            let dst = rng.gen_range(0..VERTICES);
            if rng.gen_bool(0.3) {
                b.push_delete(src, dst);
            } else {
                let w = rng.gen_range(1..1_000u32);
                b.push_insert(Edge::new(src, dst, w));
            }
        }
        for op in b.iter() {
            match *op {
                UpdateOp::Insert(e) => {
                    model.insert((e.src, e.dst), e.weight);
                }
                UpdateOp::Delete { src, dst } => {
                    model.remove(&(src, dst));
                }
            }
        }
        boundaries.push(model.iter().map(|(&(s, d), &w)| (s, d, w)).collect());
        batches.push(b);
    }
    (batches, boundaries)
}

/// A pin's (or a live pool's) edges, sorted.
fn view_edges(view: &impl GraphStore) -> Vec<(u32, u32, u32)> {
    let mut edges = Vec::new();
    view.stream_edges(|s, d, w| edges.push((s, d, w)));
    edges.sort_unstable();
    edges
}

fn config(mode: DeleteMode) -> TinkerConfig {
    TinkerConfig::default().delete_mode(mode)
}

/// Engine BFS levels over a pinned view must equal the textbook BFS over
/// the oracle edge list of the same boundary.
fn check_bfs_at_boundary(view: &ReadGuard, boundary: &[(u32, u32, u32)]) {
    let edges: Vec<Edge> = boundary.iter().map(|&(s, d, w)| Edge::new(s, d, w)).collect();
    let n = view.vertex_space().max(VERTICES);
    let mut levels = reference::bfs_levels(&edges, n, 0);
    let mut e = Engine::new(Bfs::new(0), ModePolicy::hybrid());
    e.run_from_roots(view);
    let mut got = e.values().to_vec();
    // Pad to a common length: unreached tails compare equal.
    levels.resize(n as usize, u32::MAX);
    got.resize(n as usize, u32::MAX);
    assert_eq!(got, levels, "BFS over pinned view diverged from oracle at this boundary");
}

/// CC over a pinned view must match CC over a settled single store built
/// from the oracle edge set of the same boundary (a "settled-store
/// oracle": same engine, same fixpoint, no concurrency).
fn check_cc_at_boundary(view: &ReadGuard, boundary: &[(u32, u32, u32)]) {
    use gtinker_engine::algorithms::Cc;
    let mut oracle = GraphTinker::with_defaults();
    let edges: Vec<Edge> = boundary.iter().map(|&(s, d, w)| Edge::new(s, d, w)).collect();
    oracle.apply_batch(&EdgeBatch::inserts(&edges));
    let mut want_engine = Engine::new(Cc::new(), ModePolicy::hybrid());
    want_engine.run_from_roots(&oracle);
    let mut want = want_engine.values().to_vec();
    let mut got_engine = Engine::new(Cc::new(), ModePolicy::hybrid());
    got_engine.run_from_roots(view);
    let mut got = got_engine.values().to_vec();
    let n = want.len().max(got.len());
    want.resize(n, u32::MAX);
    got.resize(n, u32::MAX);
    assert_eq!(got, want, "CC over pinned view diverged from the settled-store oracle");
}

/// Sequential writer, pins between every batch: epoch and edge set must
/// track the boundaries exactly.
#[test]
fn sequential_pins_observe_every_boundary() {
    // The default layout, the paper's fixed geometry, and thresholds low
    // enough that this stream's ~60-edge vertices live in (and flap
    // through) the hub tier on both the live store and the replicas.
    let layouts =
        [TinkerConfig::default(), TinkerConfig::paper(), TinkerConfig::default().tiers(2, 12, 6)];
    for mode in [DeleteMode::DeleteOnly, DeleteMode::DeleteAndCompact] {
        for layout in layouts {
            let (batches, boundaries) = workload(0xE90C);
            let g = ParallelTinker::new(layout.delete_mode(mode), 4).unwrap();
            for (k, b) in batches.iter().enumerate() {
                g.apply_batch(b);
                assert_valid(&g, &format!("live store, mode {mode:?} batch {k}"));
                let view = g.pin();
                assert_valid(&view, &format!("pinned view, mode {mode:?} batch {k}"));
                assert_eq!(view.epoch(), k as u64 + 1, "mode {mode:?}");
                assert_eq!(view_edges(&view), boundaries[k + 1], "mode {mode:?} at batch {k}");
            }
        }
    }
}

/// The heart of the suite: concurrent readers pin views while a pipelined
/// writer streams every batch. Every observation must equal the oracle at
/// the observed epoch — a torn batch, a lost op, or a half-folded replica
/// all fail the exact-equality check.
fn concurrent_readers_scenario(mode: DeleteMode, pipelined: bool, seed: u64) {
    let (batches, boundaries) = workload(seed);
    let g = ParallelTinker::new(config(mode), 3).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let g = &g;
                let done = &done;
                let boundaries = &boundaries;
                scope.spawn(move || {
                    let mut pins = 0u64;
                    let mut distinct = std::collections::BTreeSet::new();
                    while !done.load(Ordering::Acquire) || pins == 0 {
                        let view = g.pin();
                        let epoch = view.epoch() as usize;
                        assert!(epoch < boundaries.len(), "epoch {epoch} beyond submitted batches");
                        assert_eq!(
                            view_edges(&view),
                            boundaries[epoch],
                            "reader {r} saw a non-boundary state at epoch {epoch}"
                        );
                        // Spot-check analytics on a few pins per reader.
                        if pins.is_multiple_of(16) {
                            check_bfs_at_boundary(&view, &boundaries[epoch]);
                        }
                        distinct.insert(epoch);
                        pins += 1;
                        drop(view);
                        std::thread::yield_now();
                    }
                    (pins, distinct.len())
                })
            })
            .collect();
        for b in &batches {
            if pipelined {
                g.submit(b.clone());
            } else {
                g.apply_batch(b);
            }
        }
        g.flush();
        done.store(true, Ordering::Release);
        for r in readers {
            let (pins, distinct) = r.join().unwrap();
            assert!(pins > 0, "reader never pinned");
            // Not asserted strictly (scheduling-dependent), but record the
            // shape: readers usually catch several distinct boundaries.
            let _ = distinct;
        }
    });
    // After the stream drains, the final pinned view is the final boundary.
    let view = g.pin();
    assert_valid(&view, "final pinned view");
    assert_eq!(view.epoch(), BATCHES as u64);
    assert_eq!(view_edges(&view), *boundaries.last().unwrap());
    check_bfs_at_boundary(&view, boundaries.last().unwrap());
    check_cc_at_boundary(&view, boundaries.last().unwrap());
}

#[test]
fn concurrent_readers_pipelined_delete_only() {
    concurrent_readers_scenario(DeleteMode::DeleteOnly, true, 0xA11CE);
}

#[test]
fn concurrent_readers_pipelined_delete_and_compact() {
    concurrent_readers_scenario(DeleteMode::DeleteAndCompact, true, 0xB0B);
}

#[test]
fn concurrent_readers_sync_apply_delete_only() {
    concurrent_readers_scenario(DeleteMode::DeleteOnly, false, 0xC4A7);
}

#[test]
fn concurrent_readers_sync_apply_delete_and_compact() {
    concurrent_readers_scenario(DeleteMode::DeleteAndCompact, false, 0xD06);
}

/// Readers that pin and drop at seeded random intervals while a pipelined
/// writer streams, so pins land both on a view another reader holds and
/// on a stale one they must fold forward: every view is the oracle at its
/// epoch and passes both validators, a reader's epochs never go back, and
/// a held view does not change while the writer moves on.
fn random_pin_intervals(mode: DeleteMode, seed: u64) {
    let (batches, boundaries) = workload(seed);
    let g = ParallelTinker::new(config(mode), 3).unwrap();
    let done = AtomicBool::new(false);
    let pause = |rng: &mut StdRng| Duration::from_micros(rng.gen_range(0..=2_000));
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4u64)
            .map(|r| {
                let (g, done, boundaries) = (&g, &done, &boundaries);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ r);
                    let (mut last, mut pins) = (0usize, 0u64);
                    while !done.load(Ordering::Acquire) || pins == 0 {
                        let view = g.pin();
                        let epoch = view.epoch() as usize;
                        assert!(
                            epoch >= last,
                            "reader {r}: epoch went back from {last} to {epoch}"
                        );
                        let edges = view_edges(&view);
                        assert_eq!(edges, boundaries[epoch], "reader {r} at epoch {epoch}");
                        assert_valid(&view, &format!("reader {r}, view at epoch {epoch}"));
                        std::thread::sleep(pause(&mut rng));
                        assert_eq!(view_edges(&view), edges, "reader {r}: a held view changed");
                        drop(view);
                        std::thread::sleep(pause(&mut rng));
                        (last, pins) = (epoch, pins + 1);
                    }
                })
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(!seed);
        for b in &batches {
            g.submit(b.clone());
            std::thread::sleep(pause(&mut rng) / 4);
        }
        g.flush();
        done.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
    });
}

#[test]
fn random_pin_intervals_delete_only() {
    random_pin_intervals(DeleteMode::DeleteOnly, 0x5EED);
}

#[test]
fn random_pin_intervals_delete_and_compact() {
    random_pin_intervals(DeleteMode::DeleteAndCompact, 0x5EEE);
}

/// Incremental repair over epoch-pinned views: a reader that pins a view
/// after each acked batch and feeds the *delta since its previous pin*
/// (skipped boundaries concatenated into one combined batch) to an
/// invalidate-and-repair runner must land on exactly the cold fixpoint of
/// a settled store holding the same boundary edge set. This is the repair
/// loop running mid-ingest: the store underneath keeps moving, the pinned
/// view does not.
fn incremental_repair_over_pins(pipelined: bool) {
    use gtinker_engine::{DynamicRunner, RestartPolicy};

    let (batches, boundaries) = workload(0x1CEB);
    let g = ParallelTinker::new(config(DeleteMode::DeleteOnly), 3).unwrap();
    let mut runner =
        DynamicRunner::new(Bfs::new(0), ModePolicy::hybrid(), RestartPolicy::Incremental);
    let mut applied = 0usize; // batches the runner has absorbed so far
    for b in &batches {
        if pipelined {
            g.submit(b.clone());
        } else {
            g.apply_batch(b);
        }
    }
    // Pin repeatedly while (under `pipelined`) the writer may still be
    // draining; each pin advances the runner by the missed delta.
    loop {
        let view = g.pin();
        let epoch = view.epoch() as usize;
        if epoch > applied {
            assert_valid(&view, &format!("pinned view at epoch {epoch}"));
            // The combined delta between the runner's boundary and the
            // pinned one: net effect equals the view's edge set.
            let mut delta = EdgeBatch::new();
            for b in &batches[applied..epoch] {
                for op in b.iter() {
                    match *op {
                        UpdateOp::Insert(e) => delta.push_insert(e),
                        UpdateOp::Delete { src, dst } => delta.push_delete(src, dst),
                    }
                }
            }
            runner.after_batch(&view, &delta);
            applied = epoch;
            // Batch-boundary equality against a settled store of the same
            // boundary, computed cold.
            let mut settled = GraphTinker::with_defaults();
            let edges: Vec<Edge> =
                boundaries[epoch].iter().map(|&(s, d, w)| Edge::new(s, d, w)).collect();
            settled.apply_batch(&EdgeBatch::inserts(&edges));
            let mut want_engine = Engine::new(Bfs::new(0), ModePolicy::hybrid());
            want_engine.run_from_roots(&settled);
            let mut want = want_engine.values().to_vec();
            let mut got = runner.engine().values().to_vec();
            let n = want.len().max(got.len());
            want.resize(n, u32::MAX);
            got.resize(n, u32::MAX);
            assert_eq!(got, want, "repair over pinned view diverged at epoch {epoch}");
        }
        if epoch == BATCHES {
            break;
        }
        drop(view);
        g.flush();
    }
}

#[test]
fn incremental_repair_over_pins_sync() {
    incremental_repair_over_pins(false);
}

#[test]
fn incremental_repair_over_pins_pipelined() {
    incremental_repair_over_pins(true);
}

/// Overlapping pins from many threads share one frozen epoch: while any
/// guard is alive the replicas may not advance, even as the writer keeps
/// acking new batches underneath.
#[test]
fn overlapping_pins_stay_frozen_under_writes() {
    let (batches, boundaries) = workload(0xF00D);
    let g = ParallelTinker::new(config(DeleteMode::DeleteOnly), 2).unwrap();
    let (first, rest) = batches.split_at(8);
    for b in first {
        g.apply_batch(b);
        assert_valid(&g, "live store before the pin");
    }
    let view = g.pin();
    assert_eq!(view.epoch(), 8);
    std::thread::scope(|scope| {
        let g = &g;
        let writer = scope.spawn(move || {
            for b in rest {
                g.apply_batch(b);
            }
        });
        // While the writer advances, this pin and any overlapping pin must
        // stay at the frozen boundary.
        for _ in 0..50 {
            let overlapping = g.pin();
            assert_eq!(overlapping.epoch(), 8, "joiner must share the pinned epoch");
            assert_eq!(view_edges(&overlapping), boundaries[8]);
            std::thread::yield_now();
        }
        assert_eq!(view_edges(&view), boundaries[8]);
        writer.join().unwrap();
    });
    assert_eq!(view_edges(&view), boundaries[8], "still frozen after writer finished");
    drop(view);
    let fresh = g.pin();
    assert_valid(&fresh, "fresh view after the writer finished");
    assert_eq!(fresh.epoch(), BATCHES as u64);
    assert_eq!(view_edges(&fresh), *boundaries.last().unwrap());
}

/// Mixed stream over a keyspace large enough that every shard's overlay
/// crosses the rebase floor: fresh inserts, weight updates, deletes and
/// re-inserts of deleted edges, in batches well under the floor.
fn rebase_workload(shards: usize, seed: u64) -> Vec<EdgeBatch> {
    const BATCH: usize = 4_000;
    let ops = shards * gtinker_core::epoch::REBASE_FLOOR * 5 / 2;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut dead: Vec<(u32, u32)> = Vec::new();
    let mut batches = Vec::new();
    for _ in 0..ops.div_ceil(BATCH) {
        let mut b = EdgeBatch::new();
        for _ in 0..BATCH {
            let roll = rng.gen_range(0..10);
            let w = rng.gen_range(1..1_000u32);
            if roll < 6 || live.is_empty() {
                let (s, d) = (rng.gen_range(0..5_000u32), rng.gen_range(0..5_000u32));
                live.push((s, d));
                b.push_insert(Edge::new(s, d, w));
            } else if roll < 8 {
                let (s, d) = live[rng.gen_range(0..live.len())];
                b.push_insert(Edge::new(s, d, w));
            } else if roll < 9 || dead.is_empty() {
                let (s, d) = live.swap_remove(rng.gen_range(0..live.len()));
                dead.push((s, d));
                b.push_delete(s, d);
            } else {
                let (s, d) = dead.swap_remove(rng.gen_range(0..dead.len()));
                live.push((s, d));
                b.push_insert(Edge::new(s, d, w));
            }
        }
        batches.push(b);
    }
    batches
}

/// One shard's edges and vertex space, replayed batch by batch: the
/// oracle a rebased base is held to.
struct ShardModel {
    shard: usize,
    shards: usize,
    at: usize,
    edges: BTreeMap<(u32, u32), u32>,
    vertex_space: u32,
}

impl ShardModel {
    fn new(shard: usize, shards: usize) -> Self {
        ShardModel { shard, shards, at: 0, edges: BTreeMap::new(), vertex_space: 0 }
    }

    /// The shard's CSR after the first `epoch` batches (`epoch` never
    /// goes back).
    fn csr_at(&mut self, batches: &[EdgeBatch], epoch: usize) -> gtinker_core::CsrSnapshot {
        assert!(epoch >= self.at, "a shard's base epoch went back");
        for b in &batches[self.at..epoch] {
            for op in b.iter().filter(|op| partition_of(op.src(), self.shards) == self.shard) {
                match *op {
                    UpdateOp::Insert(e) => {
                        self.edges.insert((e.src, e.dst), e.weight);
                        self.vertex_space = self.vertex_space.max(e.src.max(e.dst) + 1);
                    }
                    UpdateOp::Delete { src, dst } => {
                        self.edges.remove(&(src, dst));
                    }
                }
            }
        }
        self.at = epoch;
        let edges: Vec<_> = self.edges.iter().map(|(&(s, d), &w)| (s, d, w)).collect();
        gtinker_core::CsrSnapshot::from_edges(&edges, self.vertex_space)
    }
}

/// The whole graph after the first `epoch` batches.
fn boundary_of(batches: &[EdgeBatch], epoch: usize) -> Boundary {
    let mut model = BTreeMap::new();
    for op in batches[..epoch].iter().flat_map(|b| b.iter()) {
        match *op {
            UpdateOp::Insert(e) => {
                model.insert((e.src, e.dst), e.weight);
            }
            UpdateOp::Delete { src, dst } => {
                model.remove(&(src, dst));
            }
        }
    }
    model.into_iter().map(|((s, d), w)| (s, d, w)).collect()
}

/// Pins until every shard's base is past `epoch` (the rebaser runs in the
/// background), checking each new base on the way.
fn await_bases_past(
    g: &ParallelTinker,
    epoch: u64,
    mut check: impl FnMut(&ReadGuard),
) -> ReadGuard {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let view = g.pin();
        check(&view);
        let oldest =
            (0..view.num_shards()).map(|i| view.with_shard(i, |s| s.base_epoch())).min().unwrap();
        if oldest > epoch {
            return view;
        }
        assert!(std::time::Instant::now() < deadline, "no rebase past epoch {epoch}");
        drop(view);
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The walk serving `/query/*` and the engine agree on one pin: BFS and
/// SSSP from a few roots, and CC. Returns whether some shard of the pin
/// has been rebased.
fn check_walk_equals_engine(view: &ReadGuard, at: &str) -> bool {
    use gtinker_engine::algorithms::{Cc, Sssp};
    use gtinker_engine::{walk, IncrementalState};
    fn same<P: IncrementalState + Copy + std::fmt::Debug>(p: P, view: &ReadGuard, at: &str) {
        let mut e = Engine::new(p, ModePolicy::hybrid());
        e.run_from_roots(view);
        assert_eq!(walk(&p, view).values, e.values(), "{at}: {p:?}");
    }
    for root in [0, 1, 2_500] {
        same(Bfs::new(root), view, at);
        same(Sssp::new(root), view, at);
    }
    same(Cc::new(), view, at);
    (0..view.num_shards()).any(|i| view.with_shard(i, |s| s.base_epoch()) > 0)
}

/// After every rebase, each shard's base equals `CsrSnapshot::build` of
/// that shard at the rebase's batch boundary, and every pin still equals
/// the oracle — over a stream that crosses the rebase floor on every shard
/// at 1, 2 and 3 shards.
#[test]
fn rebased_bases_equal_a_fresh_build() {
    for shards in 1..=3 {
        let batches = rebase_workload(shards, 0x4EBA5E ^ shards as u64);
        let g = ParallelTinker::new(config(DeleteMode::DeleteOnly), shards).unwrap();
        let mut models: Vec<_> = (0..shards).map(|i| ShardModel::new(i, shards)).collect();
        let mut seen = vec![0u64; shards];
        let mut rebases = 0;
        // Walk/engine comparisons on pins before any rebase and after one.
        let mut walked = [0; 2];
        let mut check = |view: &ReadGuard| {
            for (i, model) in models.iter_mut().enumerate() {
                let epoch = view.with_shard(i, |s| s.base_epoch());
                if epoch != seen[i] {
                    let want = model.csr_at(&batches, epoch as usize);
                    view.with_shard(i, |s| assert!(*s.base() == want, "shard {i} at {epoch}"));
                    (seen[i], rebases) = (epoch, rebases + 1);
                }
            }
        };
        for (k, b) in batches.iter().enumerate() {
            g.apply_batch(b);
            let view = g.pin();
            assert_eq!(view.epoch(), k as u64 + 1);
            check(&view);
            if k % 16 == 15 {
                assert_valid(&view, &format!("{shards} shards at batch {k}"));
                assert_eq!(view_edges(&view), boundary_of(&batches, k + 1), "batch {k}");
            }
            if k % 16 == 15 || k == 3 {
                let rebased = check_walk_equals_engine(&view, &format!("batch {k}"));
                walked[usize::from(rebased)] += 1;
            }
        }
        assert!(walked[0] > 0 && walked[1] > 0, "{shards} shards: walks {walked:?}");
        let view = await_bases_past(&g, 0, &mut check);
        check_walk_equals_engine(&view, "after the rebases");
        assert!(rebases >= shards, "{shards} shards: {rebases} rebases");
        assert_valid(&view, "after the rebases");
        assert_eq!(view_edges(&view), boundary_of(&batches, batches.len()));
        let live: Vec<_> = {
            let mut e = Vec::new();
            g.stream_edges(|s, d, w| e.push((s, d, w)));
            e.sort_unstable();
            e
        };
        assert_eq!(view_edges(&view), live, "{shards} shards: the final view is the live store");
        assert_eq!(view.vertex_space(), g.vertex_space());
        for v in (0..5_000).step_by(7) {
            assert_eq!(view.out_degree(v), g.out_degree(v), "degree of {v}");
        }
    }
}

/// A guard held while the rebaser replaces every shard's base keeps
/// answering its own epoch: its stream, degrees and point reads stay the
/// oracle's. Joiners share it, and their pins are what lets the rebaser
/// fold and merge the batches piling up behind it.
#[test]
fn held_guard_survives_rebases() {
    let shards = 2;
    let batches = rebase_workload(shards, 0x601D);
    let g = ParallelTinker::new(config(DeleteMode::DeleteAndCompact), shards).unwrap();
    let held_at = 5;
    for b in &batches[..held_at] {
        g.apply_batch(b);
    }
    let held = g.pin();
    let want = boundary_of(&batches, held_at);
    assert_eq!(view_edges(&held), want);
    for b in &batches[held_at..] {
        g.apply_batch(b);
        let joiner = g.pin();
        assert_eq!(joiner.epoch(), held_at as u64, "a joiner shares the held epoch");
    }
    // The rebaser folded and merged behind the held guard.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while g.read_side_stats().0 <= held_at as u64 {
        assert!(std::time::Instant::now() < deadline, "no rebase behind the held guard");
        drop(g.pin());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(held.epoch(), held_at as u64);
    assert_valid(&held, "held guard after the rebases");
    assert_eq!(view_edges(&held), want, "a held guard changed under a rebase");
    for &(s, d, w) in want.iter().step_by(13) {
        assert_eq!(held.edge_weight(s, d), Some(w));
    }
    let degree = |v: u32| want.iter().filter(|e| e.0 == v).count() as u32;
    for v in (0..5_000).step_by(11) {
        assert_eq!(held.out_degree(v), degree(v), "degree of {v} in the held view");
    }
    drop(held);
    let fresh = g.pin();
    assert_eq!(fresh.epoch(), batches.len() as u64);
    assert_eq!(view_edges(&fresh), boundary_of(&batches, batches.len()));
}

/// A pool nobody pins keeps at most one rebase floor of ops for its read
/// side and rebases nothing; the first pin then bootstraps bases that
/// equal the live shards.
#[test]
fn unpinned_pool_retains_at_most_one_floor() {
    for shards in [1, 3] {
        let batches = rebase_workload(shards, 0x0FF ^ shards as u64);
        let g = ParallelTinker::new(config(DeleteMode::DeleteOnly), shards).unwrap();
        for (k, b) in batches.iter().enumerate() {
            g.apply_batch(b);
            let (base_epoch, held) = g.read_side_stats();
            assert_eq!(base_epoch, 0, "{shards} shards, batch {k}: nothing rebases");
            assert!(
                held as usize <= gtinker_core::epoch::REBASE_FLOOR,
                "{shards} shards, batch {k}: {held} ops held"
            );
        }
        let view = g.pin();
        assert_eq!(view.epoch(), batches.len() as u64);
        assert_eq!(g.read_side_stats(), (batches.len() as u64, 0), "bootstrapped at the boundary");
        assert_valid(&view, "bootstrapped view");
        assert_eq!(view_edges(&view), boundary_of(&batches, batches.len()));
        for i in 0..shards {
            let live = g.with_shard(i, gtinker_core::CsrSnapshot::build);
            view.with_shard(i, |s| assert!(*s.base() == live, "shard {i} base"));
        }
    }
}

/// A `ParallelStinger` pins like a `ParallelTinker`: fed the same mixed
/// stream — inserts, deletes, then every deleted pair inserted again with a
/// new weight — the two pins equal each other, their live pools and the
/// oracle at every boundary on the sorted edge stream, every out-degree
/// and `walk(Bfs)` from a fixed root.
#[test]
fn parallel_stinger_pins_like_parallel_tinker() {
    use gtinker_engine::walk;
    use gtinker_stinger::ParallelStinger;
    use gtinker_types::StingerConfig;

    let (mut batches, mut boundaries) = workload(0x5719);
    let mut model: BTreeMap<(u32, u32), u32> =
        boundaries[BATCHES].iter().map(|&(s, d, w)| ((s, d), w)).collect();
    let mut again = EdgeBatch::new();
    for op in batches.iter().flat_map(|b| b.iter()) {
        if let UpdateOp::Delete { src, dst } = *op {
            if let std::collections::btree_map::Entry::Vacant(gone) = model.entry((src, dst)) {
                gone.insert(src + dst + 1);
                again.push_insert(Edge::new(src, dst, src + dst + 1));
            }
        }
    }
    assert!(!again.is_empty(), "the stream deletes pairs it can re-insert");
    batches.push(again);
    boundaries.push(model.iter().map(|(&(s, d), &w)| (s, d, w)).collect());

    let tinker = ParallelTinker::new(TinkerConfig::default(), 3).unwrap();
    let stinger = ParallelStinger::new(StingerConfig::default(), 3).unwrap();
    for (k, b) in batches.iter().enumerate() {
        tinker.apply_batch(b);
        stinger.apply_batch(b);
        let (tv, sv) = (tinker.pin(), stinger.pin());
        assert_eq!((tv.epoch(), sv.epoch()), (k as u64 + 1, k as u64 + 1));
        let want = &boundaries[k + 1];
        assert_eq!(&view_edges(&tv), want, "tinker pin, batch {k}");
        assert_eq!(&view_edges(&sv), want, "stinger pin, batch {k}");
        assert_eq!(&view_edges(&tinker), want, "live tinker pool, batch {k}");
        assert_eq!(&view_edges(&stinger), want, "live stinger pool, batch {k}");
        let n = tv.vertex_space().max(sv.vertex_space());
        for v in 0..n {
            let d = tinker.out_degree(v);
            assert_eq!(
                (tv.out_degree(v), sv.out_degree(v), stinger.out_degree(v)),
                (d, d, d),
                "out-degree of {v}, batch {k}"
            );
        }
        let bfs = walk(&Bfs::new(0), &tinker).values;
        assert_eq!(walk(&Bfs::new(0), &tv).values, bfs, "tinker pin BFS, batch {k}");
        assert_eq!(walk(&Bfs::new(0), &sv).values, bfs, "stinger pin BFS, batch {k}");
        assert_eq!(walk(&Bfs::new(0), &stinger).values, bfs, "live stinger BFS, batch {k}");
    }
}
