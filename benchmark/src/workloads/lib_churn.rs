//! `lib_churn`: the paper's own setting. One in-process `GraphTinker` with
//! the default config loads an RMAT graph in 10k-op batches, then takes
//! churn batches (half deletes of live edges, half fresh inserts) while an
//! incremental BFS is kept current after every batch and point reads run
//! between batches. `core.tinker`/`core.sgh`/`core.cal` and
//! `engine.dynamic` do the work; `persist`, `core.pool`, `core.epoch` and
//! `cli.serve` do none. It is the only workload with deletes, so the only
//! one where tombstones and space under churn show.
//!
//! A run makes one plan from its seed and passes over it several times,
//! each pass on a fresh store. The passes do identical work, so every step
//! is timed once per pass and reported by its fastest pass
//! ([`stats::fastest`]).

use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use gtinker_core::{metrics, GraphTinker, SghUnit};
use gtinker_engine::algorithms::Bfs;
use gtinker_engine::{DynamicRunner, Engine, ModePolicy, RestartPolicy};
use gtinker_types::{Edge, EdgeBatch, TinkerConfig};

use super::{reps, secs, set_percentiles};
use crate::catalog::{BATCH, LIB_EDGES, LIB_PASSES, LIB_SCALE, LIB_STEPS, SETUPS};
use crate::input::{self, Model};
use crate::rng::{mix, Rng};
use crate::spans::Tracer;
use crate::stats::{self, median};
use crate::{Ctx, Report, Tally};

/// Point reads between two churn batches; one latency sample is the mean
/// of a block (a single read is too short to time by itself).
const READS_PER_BLOCK: usize = 256;

/// Edges checked with `contains_edge` after the last batch: half live,
/// half deleted.
const CONTAINS_SAMPLES: usize = 10_000;

/// Batches behind `trace.overhead_share`: every other one is applied
/// inside a span, on the same store, so both halves see the same memory
/// state (two whole passes differ by more than any span costs).
const OVERHEAD_BATCHES: usize = 60;

struct Step {
    batch: EdgeBatch,
    /// `(vertex, out-degree after this batch)` for the read block.
    reads: Vec<(u32, u32)>,
}

/// Everything one pass applies and expects, made in set-up.
struct Plan {
    load: Vec<EdgeBatch>,
    load_ops: u64,
    load_distinct: u64,
    root: u32,
    steps: Vec<Step>,
    live_edges: u64,
    present: Vec<(u32, u32)>,
    absent: Vec<(u32, u32)>,
    /// Reference BFS distances from `root` over the final graph.
    distances: Vec<u32>,
    /// The base stream's source column (SGH micro-measurement).
    sources: Vec<u32>,
    /// Extra insert batches the traced run applies alternately with and
    /// without a span around the call (empty on an end-to-end run).
    spare: Vec<EdgeBatch>,
}

fn key(s: u32, d: u32) -> u64 {
    u64::from(s) << 32 | u64::from(d)
}

impl Plan {
    fn build(
        seed: u64,
        scale: u32,
        edges: u64,
        steps: usize,
        traced: bool,
    ) -> Result<Plan, String> {
        let base = input::rmat(scale, edges, seed);
        // Fresh inserts come from a second stream; a few percent collide
        // with live edges and are skipped.
        let spare = (steps * BATCH / 2) as u64 * 5 / 4 + 1_000;
        let mut fresh = input::rmat(scale, spare, mix(seed, 2)).into_iter();
        let mut rng = Rng::new(mix(seed, 3));
        let root = input::query_sources(&base)[0];

        let mut live: HashSet<u64> = HashSet::with_capacity(base.len() * 2);
        let mut list: Vec<(u32, u32)> = Vec::with_capacity(base.len());
        let mut degree = vec![0u32; 1 << scale];
        for e in &base {
            if live.insert(key(e.src, e.dst)) {
                list.push((e.src, e.dst));
                degree[e.src as usize] += 1;
            }
        }
        let load_distinct = list.len() as u64;
        let targets = input::sample_vertices(&base, scale, steps * READS_PER_BLOCK, &mut rng);

        let mut deleted: Vec<(u32, u32)> = Vec::new();
        let mut plan_steps = Vec::with_capacity(steps);
        for block in targets.chunks(READS_PER_BLOCK) {
            let mut batch = EdgeBatch::with_capacity(BATCH);
            for _ in 0..BATCH / 2 {
                let (s, d) = list.swap_remove(rng.below(list.len()));
                live.remove(&key(s, d));
                degree[s as usize] -= 1;
                batch.push_delete(s, d);
                deleted.push((s, d));
                let e: Edge = loop {
                    let e = fresh.next().ok_or("lib_churn: fresh-edge stream ran dry")?;
                    if live.insert(key(e.src, e.dst)) {
                        break e;
                    }
                };
                list.push((e.src, e.dst));
                degree[e.src as usize] += 1;
                batch.push_insert(e);
            }
            let reads = block.iter().map(|&v| (v, degree[v as usize])).collect();
            plan_steps.push(Step { batch, reads });
        }

        let half = CONTAINS_SAMPLES / 2;
        let present = (0..half).map(|_| list[rng.below(list.len())]).collect();
        let absent: Vec<(u32, u32)> =
            deleted.into_iter().filter(|&(s, d)| !live.contains(&key(s, d))).take(half).collect();
        let distances = Model::from_pairs(scale, list.iter().copied()).bfs_distances(root);
        let spare = if traced {
            let extra = input::rmat(scale, (OVERHEAD_BATCHES * BATCH) as u64, mix(seed, 4));
            extra.chunks(BATCH).map(EdgeBatch::inserts).collect()
        } else {
            Vec::new()
        };
        Ok(Plan {
            load: base.chunks(BATCH).map(EdgeBatch::inserts).collect(),
            load_ops: base.len() as u64,
            load_distinct,
            root,
            steps: plan_steps,
            live_edges: list.len() as u64,
            present,
            absent,
            distances,
            sources: base.iter().map(|e| e.src).collect(),
            spare,
        })
    }
}

/// What one pass over a plan measured; the vectors hold one entry per
/// load batch or churn step, in plan order.
#[derive(Default)]
struct Pass {
    load_ms: Vec<f64>,
    cold: Duration,
    churn_ops: u64,
    apply_ms: Vec<f64>,
    repair_ms: Vec<f64>,
    refresh_ms: Vec<f64>,
    read_ms: Vec<f64>,
    bytes_per_edge: f64,
    /// `apply_batch` time of each spare batch (traced run only); whether
    /// one ran inside a span is [`spanned`] of its position.
    spare_ms: Vec<f64>,
    wall: Duration,
    tally: Tally,
}

/// Whether spare batch `i` is applied inside a span: ABBA order, so that a
/// drift along the sequence cancels.
fn spanned(i: usize) -> bool {
    matches!(i % 4, 0 | 3)
}

/// Loads, churns and checks one plan. With `layers`, also takes the
/// single-layer measurements into `report` (traced run only).
fn measure(plan: &Plan, tr: &mut Tracer, layers: Option<&mut Report>) -> Result<Pass, String> {
    let mut pass = Pass::default();
    metrics::global().reset();
    let started = Instant::now();
    let mut g = GraphTinker::new(TinkerConfig::default()).map_err(|e| e.to_string())?;

    let mut inserted = 0;
    for batch in &plan.load {
        let (r, took) = tr.time("core.tinker.apply_batch", || g.apply_batch(batch));
        pass.load_ms.push(took.as_secs_f64() * 1e3);
        inserted += r.inserted;
    }
    pass.tally.attempted += plan.load_ops;
    pass.tally.failed += plan.load_distinct.abs_diff(inserted);
    let mut runner =
        DynamicRunner::new(Bfs::new(plan.root), ModePolicy::hybrid(), RestartPolicy::Incremental);
    let (_, cold) =
        tr.time("engine.dynamic.after_batch", || runner.after_batch(&g, &EdgeBatch::new()));
    pass.cold = cold;

    for step in &plan.steps {
        let handed_over = Instant::now();
        let (r, apply) = tr.time("core.tinker.apply_batch", || g.apply_batch(&step.batch));
        let (_, repair) =
            tr.time("engine.dynamic.after_batch", || runner.after_batch(&g, &step.batch));
        pass.refresh_ms.push(handed_over.elapsed().as_secs_f64() * 1e3);
        pass.apply_ms.push(apply.as_secs_f64() * 1e3);
        pass.repair_ms.push(repair.as_secs_f64() * 1e3);
        pass.churn_ops += step.batch.len() as u64;
        pass.tally.attempted += step.batch.len() as u64;
        // Every delete names a live edge and every insert a fresh one.
        pass.tally.failed += r.not_found + r.updated;

        let (wrong, took) = tr.time("core.tinker.point_reads", || {
            let mut wrong = 0u64;
            for &(v, want) in &step.reads {
                let mut seen = 0u32;
                g.for_each_out_edge(v, |d, _| {
                    black_box(d);
                    seen += 1;
                });
                wrong += u64::from(g.out_degree(v) != want || seen != want);
            }
            wrong
        });
        pass.read_ms.push(took.as_secs_f64() * 1e3 / step.reads.len() as f64);
        pass.tally.attempted += step.reads.len() as u64;
        pass.tally.failed += wrong;
    }

    let (shape, _) = tr.time("core.tinker.structure_stats", || g.structure_stats());
    pass.bytes_per_edge = shape.memory_bytes as f64 / shape.live_edges.max(1) as f64;

    // Output checks: the edge set, then the standing BFS result.
    pass.tally.check(g.num_edges() == plan.live_edges, "lib_churn: num_edges vs model");
    let (wrong, find) = tr.time("core.tinker.contains_edge", || {
        let missing = plan.present.iter().filter(|&&(s, d)| !g.contains_edge(s, d)).count();
        let ghosts = plan.absent.iter().filter(|&&(s, d)| g.contains_edge(s, d)).count();
        (missing + ghosts) as u64
    });
    let finds = (plan.present.len() + plan.absent.len()) as u64;
    pass.tally.attempted += finds;
    pass.tally.failed += wrong;
    let values = runner.engine().values();
    let agree = plan
        .distances
        .iter()
        .enumerate()
        .all(|(v, &want)| values.get(v).copied().unwrap_or(u32::MAX) == want);
    pass.tally.check(agree, "lib_churn: incremental BFS distances vs queue BFS over the model");

    if let Some(report) = layers {
        let probes = g.stats();
        let ops = probes.operations.max(1) as f64;
        let load_ns = pass.load_ms.iter().sum::<f64>() * 1e6 / plan.load_ops as f64;
        report.set("core.tinker.insert_ns_per_op", load_ns, plan.load.len());
        report.set("core.tinker.find_ns_per_op", find.as_nanos() as f64 / finds as f64, 1);
        report.set("core.tinker.cells_per_op", probes.cells_inspected as f64 / ops, 0);
        report.set("core.tinker.tag_scans_per_op", probes.tag_group_scans as f64 / ops, 0);
        let lanes = (probes.tag_group_scans * 8).max(1) as f64;
        report.set("core.tinker.tag_fp_share", probes.tag_false_positives as f64 / lanes, 0);
        report.set("core.tinker.branches_per_kop", probes.branches_created as f64 / ops * 1e3, 0);
        report.set("core.tinker.max_depth", f64::from(probes.max_depth), 0);
        let live = shape.live_edges as f64;
        let dead = shape.tombstones as f64;
        report.set("core.tinker.tombstone_share", dead / (dead + live), 0);
        report.set("core.tinker.occupancy", shape.occupancy, 0);
        let blocks = (shape.main_blocks + shape.overflow_blocks).max(1) as f64;
        report.set("core.tinker.overflow_block_share", shape.overflow_blocks as f64 / blocks, 0);
        let invalid = shape.cal_invalid as f64;
        report.set("core.cal.invalid_share", invalid / (invalid + live), 0);

        let (streamed, took) = tr.time("core.cal.for_each_edge", || {
            let mut n = 0u64;
            g.for_each_edge(|s, d, _| {
                black_box((s, d));
                n += 1;
            });
            n
        });
        pass.tally.check(streamed == plan.live_edges, "lib_churn: for_each_edge count vs model");
        report.set(
            "core.cal.stream_ns_per_edge",
            took.as_nanos() as f64 / streamed.max(1) as f64,
            1,
        );

        let mut engine = Engine::new(Bfs::new(plan.root), ModePolicy::hybrid());
        let (run, took) = tr.time("engine.run_from_roots", || engine.run_from_roots(&g));
        report.set("engine.bfs_full_ms", took.as_secs_f64() * 1e3, 1);
        let medges = run.total_edges_processed as f64 / took.as_secs_f64() / 1e6;
        report.set("engine.bfs_medges_per_s", medges, 1);
        report.set("engine.bfs_iterations", run.num_iterations() as f64, 0);

        let counters = metrics::global().snapshot();
        report.set(
            "engine.dynamic.repair_invalidated",
            counters.engine_repair_invalidated as f64,
            0,
        );
        report.set("engine.dynamic.delete_fallbacks", counters.engine_delete_fallbacks as f64, 0);

        // A delete-only batch of live edges, then the SGH alone over the
        // base stream's source column.
        let victims = EdgeBatch::deletes(&plan.present[..plan.present.len().min(BATCH / 2)]);
        let (_, took) = tr.time("core.tinker.apply_batch", || g.apply_batch(&victims));
        report.set(
            "core.tinker.delete_ns_per_op",
            took.as_nanos() as f64 / victims.len() as f64,
            1,
        );
        let mut sgh = SghUnit::new();
        let keys = plan.sources.len() as f64;
        let (_, took) = tr.time("core.sgh.get_or_insert", || {
            for &s in &plan.sources {
                black_box(sgh.get_or_insert(s));
            }
        });
        report.set("core.sgh.insert_ns_per_key", took.as_nanos() as f64 / keys, 1);
        let (_, took) = tr.time("core.sgh.get", || {
            for &s in &plan.sources {
                black_box(sgh.get(s));
            }
        });
        report.set("core.sgh.lookup_ns_per_key", took.as_nanos() as f64 / keys, 1);
    }
    let mut bare = Tracer::new(false, Instant::now());
    for (i, batch) in plan.spare.iter().enumerate() {
        let recorder = if spanned(i) { &mut *tr } else { &mut bare };
        let took = recorder.time("core.tinker.apply_batch", || g.apply_batch(batch)).1;
        pass.spare_ms.push(took.as_secs_f64() * 1e3);
    }
    pass.wall = started.elapsed();
    Ok(pass)
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    // Set-up, timed each time; every build of one seed is the same plan.
    let mut setups = Vec::new();
    let mut plan = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let built = Plan::build(ctx.seed, LIB_SCALE, LIB_EDGES, LIB_STEPS, ctx.trace)?;
        setups.push(t.elapsed());
        plan = Some(built);
    }
    let plan = plan.expect("SETUPS is at least one");

    // The single-layer measurements ride on the first pass only.
    let mut passes = Vec::new();
    for pass in 0..reps(ctx, LIB_PASSES) {
        let layers = if ctx.trace && pass == 0 { Some(&mut report) } else { None };
        passes.push(measure(&plan, tr, layers)?);
    }

    let n = passes.len();
    passes.iter().for_each(|p| report.tally.add(p.tally));
    let fastest = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        stats::fastest(&passes.iter().map(|p| f(p).clone()).collect::<Vec<_>>())
    };
    let apply_ms = fastest(|p| &p.apply_ms);
    let cold_ms: Vec<f64> = passes.iter().map(|p| p.cold.as_secs_f64() * 1e3).collect();
    report.set("setup_s", median(secs(&setups)), SETUPS);
    // Ops per second through `apply_batch`, from the median churn batch.
    report.set("write_meps", BATCH as f64 / median(apply_ms.clone()) / 1e3, apply_ms.len() * n);
    // Time to the first standing answer: the load, batch by batch, and
    // the cold BFS.
    let ready_ms = fastest(|p| &p.load_ms).iter().sum::<f64>() + stats::least(&cold_ms);
    report.set("ready_s", ready_ms / 1e3, n);
    let points = [("point_read_p50_ms", 50.0), ("point_read_p90_ms", 90.0)];
    set_percentiles(&mut report, fastest(|p| &p.read_ms), &points);
    let refresh = [("query_p50_ms", 50.0), ("engine.dynamic.refresh_ms_p90", 90.0)];
    set_percentiles(&mut report, fastest(|p| &p.refresh_ms), &refresh);
    report.set("bytes_per_edge", median(passes.iter().map(|p| p.bytes_per_edge).collect()), n);
    if ctx.trace {
        let wall: f64 = passes.iter().map(|p| p.wall.as_secs_f64()).sum();
        report.set("trace.coverage_share", tr.top_level_ns() as f64 / 1e9 / wall, 0);
        let spare_ms = fastest(|p| &p.spare_ms);
        let sum = |inside: bool| -> f64 {
            spare_ms
                .iter()
                .enumerate()
                .filter(|&(i, _)| spanned(i) == inside)
                .map(|(_, ms)| ms)
                .sum()
        };
        report.set("trace.overhead_share", sum(true) / sum(false).max(1e-9) - 1.0, spare_ms.len());
        let repair =
            [("engine.dynamic.repair_ms_p50", 50.0), ("engine.dynamic.repair_ms_p90", 90.0)];
        set_percentiles(&mut report, fastest(|p| &p.repair_ms), &repair);
        set_percentiles(&mut report, apply_ms, &[("core.tinker.batch_ms_p90", 90.0)]);
        report.set("engine.dynamic.cold_ms_p50", median(cold_ms), n);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(plan: &Plan) -> Vec<gtinker_types::UpdateOp> {
        plan.load
            .iter()
            .chain(plan.steps.iter().map(|s| &s.batch))
            .flat_map(|b| b.ops().to_vec())
            .collect()
    }

    #[test]
    fn same_seed_same_batches_other_seed_differs() {
        let a = Plan::build(5, 12, 40_000, 3, false).unwrap();
        let b = Plan::build(5, 12, 40_000, 3, false).unwrap();
        let c = Plan::build(6, 12, 40_000, 3, false).unwrap();
        assert_eq!(ops(&a), ops(&b));
        assert_ne!(ops(&a), ops(&c));
        assert_eq!(a.steps[2].reads, b.steps[2].reads);
        assert_eq!(a.distances, b.distances);
        // Half of every churn batch deletes, half inserts.
        let deletes = a.steps[0].batch.iter().filter(|op| !op.is_insert()).count();
        assert_eq!((a.steps[0].batch.len(), deletes), (BATCH, BATCH / 2));
    }

    #[test]
    fn a_small_plan_passes_its_own_checks_and_a_wrong_model_does_not() {
        let mut plan = Plan::build(9, 12, 40_000, 4, false).unwrap();
        let mut report = Report::default();
        let mut tr = Tracer::new(true, Instant::now());
        let pass = measure(&plan, &mut tr, Some(&mut report)).unwrap();
        assert_eq!(pass.tally.failed, 0);
        assert!(pass.tally.attempted > 40_000 + 4 * BATCH as u64);
        assert!(pass.churn_ops == 4 * BATCH as u64 && pass.bytes_per_edge > 0.0);
        assert!(report.metrics["core.tinker.cells_per_op"] > 0.0);
        assert!(tr.top_level_ns() as f64 / 1e9 <= pass.wall.as_secs_f64());

        // A mismatch is a failed operation, not a panic.
        plan.live_edges += 1;
        plan.distances[plan.root as usize] = 7;
        plan.steps[0].reads[0].1 += 1;
        let pass = measure(&plan, &mut Tracer::new(false, Instant::now()), None).unwrap();
        assert_eq!(pass.tally.failed, 3);
    }
}
