//! `serve_mixed`: writes beside reads on the same store. A subprocess
//! `gtinker ingest FILE --wal DIR --serve 127.0.0.1:0 --hold` is fed for
//! its whole write phase (spawn until its `ingested ...` line) by thread A,
//! paced closed-loop point reads on one connection (10 ms think time), and
//! thread B, closed-loop `/query/bfs` on another. `core.epoch` (every batch
//! applied to the live shards and again to the read replicas, plus the fold
//! a pin pays) contends with `core.pool`, `persist.wal`, `cli.serve` and
//! `engine`. Same flags and file shape as `durable_ingest`, which is its
//! control without readers or views. The write phase is repeated on the
//! same file; its length and the first answer are reported by the fastest
//! repetition, the read latencies over the reads of all repetitions.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gtinker_core::ParallelTinker;
use gtinker_types::{EdgeBatch, TinkerConfig};

use super::{fresh_wal_dir, number_before, remove, reps, set_percentiles, CliInput, CliReps};
use crate::catalog::{BATCH, CLI_EDGES, INGEST_FLAGS, MIXED_REPS};
use crate::http::{json_u64, prom_value, Client};
use crate::serve::{self, Expect, Until, CHILD_TIMEOUT};
use crate::spans::Tracer;
use crate::{Ctx, Report, Tally};

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let mut all = CliReps::default();
    let mut backlog_max = 0u64;
    let started = Instant::now();
    let reps = reps(ctx, MIXED_REPS);
    let input = all.input(ctx, "serve_mixed")?;

    for rep in 0..reps {
        let dir = fresh_wal_dir(ctx, "serve_mixed", rep)?;
        let dir_arg = dir.to_str().expect("benchmark paths are UTF-8");
        let mut args = vec!["ingest", input.file_arg(), "--wal", dir_arg];
        args.extend(["--serve", "127.0.0.1:0", "--hold"]);
        args.extend(INGEST_FLAGS);

        let open = tr.begin("cli.commands.ingest_serve");
        let (mut proc, addr, _) = serve::spawn_server(&ctx.gtinker, &args)?;
        let stop = AtomicBool::new(false);
        let (mut tr_a, mut tr_b) = (tr.sibling(), tr.sibling());
        let traced = ctx.trace;
        let plan = input.plan();
        // Answers may lag the final graph but never exceed it.
        let lag = Expect::AtMostFinal;
        let (points, bfs, ingested) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                serve::point_client(addr, &plan, 0, lag, CHILD_TIMEOUT, &stop, &mut tr_a)
            });
            let b = s.spawn(|| {
                let mut depth = 0u64;
                let between = |client: &mut Client, tr: &mut Tracer| {
                    if traced {
                        if let Ok(r) = client.get("/debug/vars", tr) {
                            depth = depth.max(json_u64(&r.body, "backlog_depth").unwrap_or(0));
                        }
                    }
                };
                let until = Until::Raised(&stop);
                let run = serve::query_phase(addr, plan.sources, lag, until, &mut tr_b, between);
                (run, depth)
            });
            let line = proc.wait_line(|l| l.starts_with("ingested "), CHILD_TIMEOUT);
            stop.store(true, Ordering::Relaxed);
            (a.join().expect("thread A panicked"), b.join().expect("thread B panicked"), line)
        });
        tr.absorb(tr_a, open);
        tr.absorb(tr_b, open);
        tr.end(open);
        let (ingested_at, status) = ingested?;
        let ((points, first_answer), (bfs, depth)) = (points, bfs);
        backlog_max = backlog_max.max(depth);

        let live = number_before(&status, "live").unwrap_or(0);
        all.tally.attempted += CLI_EDGES;
        all.tally.check(live == input.model.live_edges(), "serve_mixed: live edges vs model");
        all.wrote(ingested_at.duration_since(proc.spawned));
        let first = first_answer.ok_or("serve_mixed: no point read was answered")?;
        all.ready(first.duration_since(proc.spawned));
        all.resident(proc.peak_rss_bytes(), live);
        all.logged(&dir);
        all.reads.absorb(points);
        all.reads.absorb(bfs);

        if ctx.trace && rep == reps - 1 {
            let text = serve::scrape_metrics(addr)?;
            let get = |name: &str| prom_value(&text, name).unwrap_or(0.0);
            let folds = get("gtinker_epoch_fold_batches") / get("gtinker_epoch_pins").max(1.0);
            report.set("core.epoch.fold_batches_per_pin", folds, 0);
            report.set("core.pool.settle_waits", get("gtinker_pool_settle_waits"), 0);
            let claims = get("gtinker_pool_claims") / get("gtinker_pool_batches").max(1.0);
            report.set("core.pool.claims_per_batch", claims, 0);
            let handled = get("gtinker_serve_query_ns_count").max(1.0);
            let engine_us = get("gtinker_serve_query_ns_sum") / handled / 1e3;
            report.set("cli.serve.engine_us_mean", engine_us, handled as usize);
        }
        serve::quit(proc, addr)?;
        if ctx.trace && rep == 0 {
            epoch_layers(&input, tr, &mut report, &mut all.tally)?;
        }
        remove(&dir)?;
    }
    remove(&input.file)?;

    if ctx.trace {
        report.set("core.epoch.backlog_depth_max", backlog_max as f64, 0);
        let wall = started.elapsed().as_secs_f64();
        report.set("trace.coverage_share", tr.top_level_ns() as f64 / 1e9 / wall, 0);
    }
    Ok(all.into_report(report, ctx.trace))
}

/// The traced run's in-process look at `core.epoch`: what keeping read
/// replicas costs the writer, and what a pin costs while batches apply.
fn epoch_layers(
    input: &CliInput,
    tr: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let batches: Vec<EdgeBatch> = input.edges.chunks(BATCH).map(EdgeBatch::inserts).collect();
    let ops = input.edges.len() as f64;
    let err = |e: &dyn std::fmt::Display| format!("serve_mixed epoch layers: {e}");
    let mut ns_per_op = |name: &'static str, store: &ParallelTinker| {
        let open = tr.begin(name);
        for b in &batches {
            store.apply_batch(b);
        }
        tr.end(open).as_nanos() as f64 / ops
    };
    let plain = ParallelTinker::new(TinkerConfig::default(), 2).map_err(|e| err(&e))?;
    let plain_ns = ns_per_op("core.pool.apply_batch", &plain);
    drop(plain);
    let viewed = ParallelTinker::new_with_views(TinkerConfig::default(), 2).map_err(|e| err(&e))?;
    let views_ns = ns_per_op("core.epoch.apply_batch", &viewed);
    tally.check(
        viewed.num_edges() == input.model.live_edges(),
        "serve_mixed: viewed store edge count",
    );
    drop(viewed);
    report.set("core.epoch.plain_ns_per_op", plain_ns, 1);
    report.set("core.epoch.views_ns_per_op", views_ns, 1);
    report.set("core.epoch.write_overhead", views_ns / plain_ns, 1);

    // Pins on this thread while a second thread applies the stream.
    let store = ParallelTinker::new_with_views(TinkerConfig::default(), 2).map_err(|e| err(&e))?;
    let done = AtomicBool::new(false);
    let mut pin_us = Vec::new();
    let mut epochs_ok = true;
    std::thread::scope(|s| {
        s.spawn(|| {
            for b in &batches {
                store.apply_batch(b);
            }
            done.store(true, Ordering::Release);
        });
        let mut last = 0;
        while !done.load(Ordering::Acquire) {
            let (view, took) = tr.time("core.epoch.pin_view", || store.pin_view());
            pin_us.push(took.as_secs_f64() * 1e6);
            let epoch = view.map_or(0, |v| v.epoch());
            epochs_ok &= epoch >= last;
            last = epoch;
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    tally.check(epochs_ok, "serve_mixed: pinned epochs never step back");
    let pins = [("core.epoch.pin_us_p50", 50.0), ("core.epoch.pin_us_p90", 90.0)];
    set_percentiles(report, pin_us, &pins);
    Ok(())
}
