//! `durable_ingest`: the operator's write path with no readers, then the
//! reads on the quiescent store it leaves behind. A
//! subprocess `gtinker ingest FILE --wal DIR` (no `--serve`, so no epoch
//! views) is timed spawn-to-exit, then `gtinker recover DIR` likewise,
//! several times over on the same file; the last repetition's log is then
//! served (`gtinker serve DIR`) and read back against the model, which
//! checks that what was logged is what was sent and is the control for
//! `serve_mixed`'s reads: same requests, no writer, no fold after the
//! first pin, so an epoch or WAL change predicts no movement in them and
//! an HTTP-path change predicts movement there first.
//! `datasets.io` parse, `persist.wal` and `core.pool` claim/apply dominate
//! the write; `core.epoch`, `engine` and `cli.serve` are out of it. It is
//! the writes-only control for `serve_mixed`: same flags, same file shape.

use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtinker_core::{metrics, GraphTinker, ParallelTinker};
use gtinker_datasets::io;
use gtinker_persist::{recover_tinker, SyncPolicy, WalOptions, WalWriter};
use gtinker_types::{EdgeBatch, TinkerConfig};

use super::{dir_bytes, fresh_wal_dir, number_before, remove, reps, CliInput, CliReps};
use crate::catalog::{BATCH, CLI_EDGES, DURABLE_REPS, INGEST_FLAGS, SERVE_FLAGS};
use crate::child::run_to_exit;
use crate::http::{prom_value, Client};
use crate::loadgen::open_loop;
use crate::serve::{self, Expect, ReadPlan, ReadResult, Until, CHILD_TIMEOUT};
use crate::spans::Tracer;
use crate::stats;
use crate::{Ctx, Report, Tally};

/// Share of `--seconds` the read-back spends on point reads: long enough
/// for 100 samples on the seed commit.
const POINT_SHARE: f64 = 0.1;

/// Cycles through the BFS sources in the read-back.
const QUERY_CYCLES: usize = 2;

/// The traced run's rate ladder, requests/s.
const LADDER: [f64; 4] = [10.0, 250.0, 1000.0, 4000.0];

/// How long each rung offers its rate.
const RUNG: Duration = Duration::from_millis(1500);

/// A rung holds if its tail latency stays within this, milliseconds.
const LADDER_LIMIT_MS: f64 = 5.0;

/// Requests per route in the traced run's closed-loop floor measurement.
const FLOOR_REQUESTS: usize = 50;

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let mut all = CliReps { quiescent: true, ..CliReps::default() };
    let reps = reps(ctx, DURABLE_REPS);
    let input = all.input(ctx, "durable_ingest")?;

    for rep in 0..reps {
        let dir = fresh_wal_dir(ctx, "durable_ingest", rep)?;
        let dir_arg = dir.to_str().expect("benchmark paths are UTF-8");

        let mut args = vec!["ingest", input.file_arg(), "--wal", dir_arg];
        args.extend(INGEST_FLAGS);
        if ctx.trace {
            args.push("--stats");
        }
        let open = tr.begin("cli.commands.ingest");
        let (took, rss, lines) = run_to_exit(&ctx.gtinker, &args, CHILD_TIMEOUT)?;
        tr.end(open);
        let status = lines
            .iter()
            .find(|l| l.starts_with("ingested "))
            .ok_or("ingest printed no status line")?;
        let live = number_before(status, "live").unwrap_or(0);
        all.tally.attempted += CLI_EDGES;
        all.tally.check(live == input.model.live_edges(), "durable_ingest: live edges vs model");
        all.wrote(took);
        all.resident(rss, live);
        all.logged(&dir);
        if ctx.trace && rep == 0 {
            let stats = lines.join("\n");
            let get = |name: &str| prom_value(&stats, name).unwrap_or(0.0);
            report.set("core.pool.settle_waits", get("gtinker_pool_settle_waits"), 0);
            let claims = get("gtinker_pool_claims") / get("gtinker_pool_batches").max(1.0);
            report.set("core.pool.claims_per_batch", claims, 0);
        }

        let open = tr.begin("cli.commands.recover");
        let (took, _, lines) = run_to_exit(&ctx.gtinker, &["recover", dir_arg], CHILD_TIMEOUT)?;
        tr.end(open);
        let recovered = lines.iter().find_map(|l| number_before(l, "edges"));
        all.tally.check(
            recovered == Some(live),
            "durable_ingest: recovered edge count vs ingest's live count",
        );
        all.ready(took);

        if rep == reps - 1 {
            all.reads = read_back(ctx, &input, dir_arg, tr, &mut report, &mut all.tally)?;
        }
        if ctx.trace && rep == 0 {
            replay_in_process(ctx, &input, tr, &mut report, &mut all.tally)?;
        }
        remove(&dir)?;
    }
    remove(&input.file)?;
    Ok(all.into_report(report, ctx.trace))
}

/// Serves the log as a restarted operator would and reads it back: every
/// answer must equal the model of what was sent. The traced run then
/// looks at `cli.serve` alone on the same server.
fn read_back(
    ctx: &Ctx,
    input: &CliInput,
    dir: &str,
    tr: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<ReadResult, String> {
    let mut args = vec!["serve", dir];
    args.extend(SERVE_FLAGS);
    let (proc, addr, _) = serve::spawn_server(&ctx.gtinker, &args)?;
    serve::wait_ready(addr)?;
    let plan = input.plan();
    let window = Duration::from_secs_f64(ctx.seconds * POINT_SHARE);
    let mut out = serve::point_phase(addr, &plan, window, tr);
    let cycles = Until::Cycles(QUERY_CYCLES);
    out.absorb(serve::query_phase(addr, plan.sources, Expect::Final, cycles, tr, |_, _| {}));
    if ctx.trace {
        serve_layers(addr, &plan, tr, report, tally)?;
    }
    serve::quit(proc, addr)?;
    Ok(out)
}

/// Median and mean round trip of `FLOOR_REQUESTS` back-to-back requests,
/// microseconds.
fn floor_us(
    client: &mut Client,
    tr: &mut Tracer,
    tally: &mut Tally,
    path: impl Fn(usize) -> String,
) -> (f64, f64) {
    let mut us = Vec::with_capacity(FLOOR_REQUESTS);
    for i in 0..FLOOR_REQUESTS {
        let t = Instant::now();
        let ok = matches!(client.get(&path(i), tr), Ok(r) if r.status == 200);
        us.push(t.elapsed().as_secs_f64() * 1e6);
        tally.check(ok, "durable_ingest: floor request");
    }
    let mean = us.iter().sum::<f64>() / us.len() as f64;
    (stats::median(us), mean)
}

/// The traced run's look at `cli.serve` alone: per-route closed-loop
/// floors, the wire share of a round trip, and the rate ladder.
fn serve_layers(
    addr: SocketAddr,
    plan: &ReadPlan<'_>,
    tr: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut client = Client::new(addr);
    let vertex = |i: usize| plan.vertices[i % plan.vertices.len()];
    let (healthz, _) = floor_us(&mut client, tr, tally, |_| "/healthz".into());
    client.close();
    let before = serve::scrape_metrics(addr)?;
    let (degree, degree_mean) =
        floor_us(&mut client, tr, tally, |i| format!("/degree?v={}", vertex(i)));
    client.close();
    let after = serve::scrape_metrics(addr)?;
    let (neighbors, _) =
        floor_us(&mut client, tr, tally, |i| format!("/neighbors?v={}", vertex(i)));
    client.close();
    report.set("cli.serve.healthz_us_p50", healthz, FLOOR_REQUESTS);
    report.set("cli.serve.degree_us_p50", degree, FLOOR_REQUESTS);
    report.set("cli.serve.neighbors_us_p50", neighbors, FLOOR_REQUESTS);

    // Server-side handler time of exactly the /degree requests above.
    let delta = |name: &str| {
        prom_value(&after, name).unwrap_or(0.0) - prom_value(&before, name).unwrap_or(0.0)
    };
    let handled = delta("gtinker_serve_query_ns_count").max(1.0);
    let engine_us = delta("gtinker_serve_query_ns_sum") / handled / 1e3;
    report.set("cli.serve.engine_us_mean", engine_us, handled as usize);
    report.set("cli.serve.wire_us_mean", degree_mean - engine_us, FLOOR_REQUESTS);
    let pins = prom_value(&after, "gtinker_epoch_pins").unwrap_or(0.0).max(1.0);
    // Everything was folded by the readiness probe's pin; later pins find
    // nothing to fold, so per pin this tends to 0 as reads accumulate.
    let folds = prom_value(&after, "gtinker_epoch_fold_batches").unwrap_or(0.0);
    report.set("core.epoch.fold_batches_per_pin", folds / pins, 0);

    // The open-loop ladder: each rung offers a fixed rate over the two
    // connections, every request timed from when it was due.
    let never = AtomicBool::new(false);
    let (mut max_rps, mut late, mut offered) = (0.0, 0, 0);
    for rate in LADDER {
        let lanes = serve::two_clients(tr, "loadgen.ladder_rung", |lane, tr| {
            let mut client = Client::new(addr);
            open_loop(rate / 2.0, RUNG, &never, |i| {
                let v = plan.vertices[(2 * i + lane) as usize % plan.vertices.len()];
                serve::point_read(&mut client, tr, plan.model, v, i, Expect::Final).is_some()
            })
        });
        let mut due_ms: Vec<f64> =
            lanes.iter().flat_map(|l| l.latency_ns.iter().map(|&ns| ns as f64 / 1e6)).collect();
        stats::sort(&mut due_ms);
        // Requests a rung abandons because the server cannot hold its rate
        // are the ladder's answer, not failed operations; wrong answers are.
        let abandoned: u64 = lanes.iter().map(|l| l.abandoned).sum();
        let rung = Tally {
            attempted: lanes.iter().map(|l| l.sent()).sum(),
            failed: lanes.iter().map(|l| l.failed).sum::<u64>() - abandoned,
        };
        tally.add(rung);
        let rung_late: u64 = lanes.iter().map(|l| l.late).sum();
        let tail = stats::highest_percentile(due_ms.len()).unwrap_or(50.0);
        late += rung_late;
        offered += rung.attempted;
        // Latency counts from the due time, so a rung whose tail holds
        // the limit has no backlog worth the name either.
        let holds = rung.failed == 0
            && abandoned == 0
            && stats::percentile(&due_ms, tail) <= LADDER_LIMIT_MS;
        if !holds {
            break;
        }
        max_rps = rate;
    }
    report.set("cli.serve.late_share", late as f64 / offered.max(1) as f64, offered as usize);
    report.set("cli.serve.max_rps", max_rps, LADDER.len());
    Ok(())
}

/// The traced run's in-process replay of the same write path, one span per
/// call into a layer: parse, WAL append/sync, pooled apply (pipelined and
/// not), a single store for the ratio, then recovery from the log.
fn replay_in_process(
    ctx: &Ctx,
    input: &CliInput,
    tr: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    // The replay's spans go to a recorder of their own, so that its
    // coverage can be taken apart from the subprocess and socket spans.
    let replay = tr.begin("durable_ingest.replay");
    let mut spans = tr.sibling();
    let started = Instant::now();
    let err = |e: &dyn std::fmt::Display| format!("durable_ingest replay: {e}");

    let (edges, took) =
        spans.time("datasets.io.read_edge_list", || io::read_edge_list(&input.file));
    let edges = edges.map_err(|e| err(&e))?;
    let ops = edges.len() as f64;
    tally.check(edges == input.edges, "durable_ingest: parsed file vs generated stream");
    report.set("datasets.io.parse_s", took.as_secs_f64(), 1);
    report.set("datasets.io.parse_meps", ops / took.as_secs_f64() / 1e6, 1);

    // As `gtinker ingest --pool 2 --pipeline --sync 8` does it: log first,
    // then hand the batch to the pool; flush and sync at the end.
    let dir = fresh_wal_dir(ctx, "durable_ingest-replay", 0)?;
    metrics::global().reset();
    let opts = WalOptions { sync: SyncPolicy::EveryN(8), ..WalOptions::default() };
    let (wal, _) = spans.time("persist.wal.open", || WalWriter::open(&dir, opts));
    let (mut wal, _) = wal.map_err(|e| err(&e))?;
    let pool = ParallelTinker::new(TinkerConfig::default(), 2).map_err(|e| err(&e))?;
    let (mut append, mut submit) = (Duration::ZERO, Duration::ZERO);
    for chunk in edges.chunks(BATCH) {
        let batch = EdgeBatch::inserts(chunk);
        let (r, took) = spans.time("persist.wal.append", || wal.append(&batch));
        r.map_err(|e| err(&e))?;
        append += took;
        submit += spans.time("core.pool.submit_shared", || pool.submit_shared(Arc::new(batch))).1;
    }
    submit += spans.time("core.pool.flush", || pool.flush()).1;
    let (r, took) = spans.time("persist.wal.sync", || wal.sync());
    r.map_err(|e| err(&e))?;
    append += took;
    drop(wal);
    let counters = metrics::global().snapshot();
    report.set("persist.wal.append_ns_per_op", append.as_nanos() as f64 / ops, 1);
    report.set("persist.wal.syncs", counters.wal_syncs as f64, 0);
    let sync_p50 = counters.wal_sync_ns.quantile_approx(0.5) as f64 / 1e6;
    report.set("persist.wal.sync_ms_p50", sync_p50, counters.wal_sync_ns.count() as usize);
    report.set("persist.wal.bytes_per_op", dir_bytes(&dir) as f64 / ops, 0);
    report.set("core.pool.pipeline_ns_per_op", submit.as_nanos() as f64 / ops, 1);
    tally.check(
        pool.num_edges() == input.model.live_edges(),
        "durable_ingest: pooled replay edge count",
    );
    drop(pool);

    let pool = ParallelTinker::new(TinkerConfig::default(), 2).map_err(|e| err(&e))?;
    let mut single = GraphTinker::new(TinkerConfig::default()).map_err(|e| err(&e))?;
    let (mut pooled, mut alone) = (Duration::ZERO, Duration::ZERO);
    for chunk in edges.chunks(BATCH) {
        let batch = EdgeBatch::inserts(chunk);
        pooled += spans.time("core.pool.apply_batch", || pool.apply_batch(&batch)).1;
        alone += spans.time("core.tinker.apply_batch", || single.apply_batch(&batch)).1;
    }
    report.set("core.pool.apply_ns_per_op", pooled.as_nanos() as f64 / ops, 1);
    report.set("core.tinker.insert_ns_per_op", alone.as_nanos() as f64 / ops, 1);
    report.set("core.pool.vs_single", pooled.as_secs_f64() / alone.as_secs_f64(), 1);
    drop((pool, single));

    let (recovered, took) = spans
        .time("persist.recover.recover_tinker", || recover_tinker(&dir, TinkerConfig::default()));
    let (store, _) = recovered.map_err(|e| err(&e))?;
    tally.check(
        store.num_edges() == input.model.live_edges(),
        "durable_ingest: recover_tinker edge count",
    );
    report.set("persist.recover.replay_s", took.as_secs_f64(), 1);
    report.set("persist.recover.replay_meps", ops / took.as_secs_f64() / 1e6, 1);
    drop(store);

    let wall = started.elapsed().as_secs_f64();
    report.set("trace.coverage_share", spans.top_level_ns() as f64 / 1e9 / wall, 0);
    tr.absorb(spans, replay);
    tr.end(replay);
    remove(&dir)
}
