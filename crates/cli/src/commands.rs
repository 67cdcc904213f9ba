//! Implementation of the `gtinker` subcommands.

use std::path::Path;
use std::time::Instant;

use gtinker_core::{ApplyBatch, GraphTinker, ParallelTinker};
use gtinker_datasets::{dataset_by_name, io, RmatConfig};
use gtinker_engine::{
    algorithms::{Bfs, Cc, PageRank, Sssp, TriangleCount},
    dynamic::{symmetrize, DynamicRunner, RestartPolicy},
    Engine, GasProgram, GraphStore, IncrementalState, ModePolicy,
};
use gtinker_persist::{
    recover_sharded, recover_tinker, replay, write_tinker_snapshot, DurableTinker, SyncPolicy,
    WalOptions,
};
use gtinker_stinger::Stinger;
use gtinker_types::{DeleteMode, Edge, EdgeBatch, TinkerConfig, UpdateOp};

use crate::args::Parsed;

/// Top-level help text.
pub const USAGE: &str = "\
gtinker — the GraphTinker dynamic-graph store (IPDPS 2019 reproduction)

USAGE:
  gtinker generate (--dataset NAME | --rmat-scale N --edges M) [--seed S]
                   [--scale-factor F] --out FILE
  gtinker stats FILE|WALDIR [--format text|json|prom] [--pagewidth N]
                [--no-sgh] [--no-cal] [--compact] [--paper-layout]
  gtinker bfs FILE --root R [--mode hybrid|da|fp|ip] [--shards N]
              [--restart static|incremental] [--churn-every K]
              [--batch N] [--verify]
  gtinker sssp FILE --root R [options as bfs]
  gtinker cc FILE [--mode hybrid|da|fp|ip] [--shards N]
             [--restart static|incremental] [--churn-every K]
             [--batch N] [--verify]
  gtinker pagerank FILE [--iterations N] [--top K] [--shards N]
  gtinker triangles FILE
  gtinker bench-insert FILE [--batch N] [--baseline]
  gtinker ingest FILE --wal DIR [--batch N] [--sync never|always|N]
                 [--snapshot-every K] [--final-snapshot] [--pool N]
                 [--stats] [--serve HOST:PORT] [--hold]
                 [--workers N] [--slow-query-ms N]
  gtinker trace FILE --wal DIR [--out TRACE.json] [--analytics]
                [--batch N] [--pool N] [--sync never|always|N]
  gtinker serve [FILE|WALDIR] [--addr HOST:PORT] [--shards N] [--workers N]
                [--slow-query-ms N]
  gtinker snapshot FILE --dir DIR
  gtinker recover DIR [--root R] [--validate]
  gtinker help

Datasets for --dataset: RMAT_1M_10M, RMAT_500K_8M, RMAT_1M_16M,
RMAT_2M_32M, Hollywood-2009, Kron_g500-logn21 (paper Table 1; scaled by
--scale-factor, default 64), plus Zipf_SourceSkew (hub-heavy Zipf
sources, the degree-adaptive tier stress stream).

Stores use the degree-adaptive layout: vertices with <= 4 edges stay
inline in the vertex entry, ordinary vertices use the RHH edgeblock
tree on a page of PAGEWIDTH/4, /2 or PAGEWIDTH cells (16 / 32 / 64; a
full page regrows into the next width, only the widest branches out),
and sources crossing 128 edges move to a dense sorted hub segment
(demoted below 64); 'stats' reports per-tier vertex counts, blocks per
page width, hub dead slots and the memory_*_bytes gauge family. --paper-layout (any command
that builds a GraphTinker) selects the paper's fixed geometry instead:
every vertex on PAGEWIDTH edgeblocks, no inline or hub tier. A
recovered snapshot keeps the layout it was written with.

--restart picks how bfs/sssp/cc consume FILE: 'static' (default) loads
everything and solves one cold fixpoint; 'incremental' streams FILE
through the delta engine in --batch-op batches (default 10000),
repairing the standing result after each batch instead of re-solving —
deletions invalidate the broken witness cone, which is re-seeded from
its still-valid boundary. --churn-every K (implies --restart
incremental) turns every K-th op into a delete of a pseudo-random
earlier edge, so a plain insert-only edge list exercises the
invalidate-and-repair path end to end. --verify (any restart policy)
recomputes a cold AlwaysFull fixpoint on the final store and asserts
the standing result equals it, printing a greppable 'verify: PASS'
line.

FILE is a plain edge list: 'src dst [weight]' per line, '#' comments.
--shards N (> 1) runs the analytic over an interval-partitioned parallel
store. 'ingest' streams FILE through a write-ahead log in DIR so a crash
at any point recovers via 'gtinker recover DIR': each batch is logged
first, then applied by --pool N interval-partitioned shard workers
(default 1) while the next one is logged (ack stays WAL-first). A DIR
that already holds a log or snapshots is resumed, at any --pool, and
--snapshot-every / --final-snapshot write one image of all shards.
--pipeline is accepted and does nothing (that overlap is the only path;
the flag goes with the next benchmark PR). 'stats' reports structure
stats plus the hot-path metric registry (probe/displacement histograms,
WAL latencies); give it a WAL DIR to profile recovery instead of a fresh
ingest, and --format json|prom for machine-readable output. 'ingest
--stats' dumps the same registry after the run.

'trace' runs the same ingest with span tracing enabled and writes the
timeline as Chrome trace-event JSON (--out, default trace.json): load it
in https://ui.perfetto.dev and each shard worker and the driver (parse +
WAL) is its own track (--analytics appends a traced BFS plus a
delete/re-insert churn round through the incremental repair engine, so
'repair' spans carry per-batch cone sizes). 'serve'
(optionally after loading FILE or recovering WALDIR into --shards N
shards) exposes /metrics (Prometheus), /healthz (build info +
live gauges), /trace (timeline JSON), /debug/vars (per-endpoint RED
windows with p50/p95/p99), /debug/requests (last completed requests with
phase timings) and — when a store is loaded — the query API /neighbors?v=
/degree?v= /query/{bfs,sssp}?src= /query/cc /query/pagerank over HTTP on
--addr (default 127.0.0.1:0, port printed at startup), answered by
--workers N request threads (default 4) from epoch snapshots; GET
/quitquitquit from loopback shuts the server down cleanly.
Every response carries an X-Request-Id header; with tracing on, the
request's pin/engine/serialize spans in /trace carry that id as their
arg. --slow-query-ms N logs a structured warn record with a per-phase
breakdown (queue/pin/engine/serialize) for any request slower than N ms.
'ingest --serve' runs the same endpoint in-process against the live
store while batches apply: a query pins a batch boundary and reads each
shard's CSR base plus the batches acked after it, netted on the query's
own thread (a pin never waits for a shard worker); --hold keeps serving
after the ingest finishes until /quitquitquit.

--log LEVEL (any command) sets the structured key=value log level on
stderr: error|warn|info|debug|off (default warn). Records are
line-oriented 'ts=... level=... target=... msg=\"...\" k=v' pairs.

An option name gtinker does not know is an error ('unknown option
--NAME'), whichever command it is given to.
";

/// Runs a parsed command; returns an error message on failure.
pub fn run(parsed: &Parsed) -> Result<(), String> {
    if let Some(level) = parsed.get("log") {
        if !gtinker_core::log::set_level_by_name(level) {
            return Err(format!("unknown --log level '{level}' (error|warn|info|debug|off)"));
        }
    }
    match parsed.command.as_str() {
        "generate" => generate(parsed),
        "stats" => stats(parsed),
        "bfs" => bfs(parsed),
        "sssp" => sssp(parsed),
        "cc" => cc(parsed),
        "pagerank" => pagerank(parsed),
        "triangles" => triangles(parsed),
        "bench-insert" => bench_insert(parsed),
        "ingest" => ingest(parsed),
        "trace" => trace_cmd(parsed),
        "serve" => serve_cmd(parsed),
        "snapshot" => snapshot(parsed),
        "recover" => recover(parsed),
        "help" | "" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'gtinker help')")),
    }
}

fn mode_policy(parsed: &Parsed) -> Result<ModePolicy, String> {
    match parsed.get("mode").unwrap_or("hybrid") {
        "hybrid" => Ok(ModePolicy::hybrid()),
        "da" | "degree-aware" => Ok(ModePolicy::degree_aware()),
        "fp" | "full" => Ok(ModePolicy::AlwaysFull),
        "ip" | "incremental" => Ok(ModePolicy::AlwaysIncremental),
        other => Err(format!("unknown mode '{other}' (hybrid|da|fp|ip)")),
    }
}

/// Whether `--restart incremental` (or `--churn-every`, which implies it)
/// routes this analytic through the [`DynamicRunner`] delta engine.
fn incremental_restart(parsed: &Parsed) -> Result<bool, String> {
    let churn = parsed.num("churn-every", 0usize)?;
    match parsed.get("restart") {
        None => Ok(churn > 0),
        Some("incremental") => Ok(true),
        Some("static") if churn > 0 => {
            Err("option --churn-every requires --restart incremental".into())
        }
        Some("static") => Ok(false),
        Some(other) => Err(format!("unknown restart policy '{other}' (static|incremental)")),
    }
}

/// The input edge list as an update stream: when `churn > 0`, every
/// `churn`-th op is followed by a delete of a pseudo-randomly chosen
/// earlier insert, so a plain insert-only file exercises the
/// invalidate-and-repair path.
fn churn_ops(edges: &[Edge], churn: usize) -> Vec<UpdateOp> {
    let extra = edges.len().checked_div(churn).unwrap_or(0);
    let mut ops = Vec::with_capacity(edges.len() + extra);
    let mut live: Vec<Edge> = Vec::new();
    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
    for (i, &e) in edges.iter().enumerate() {
        ops.push(UpdateOp::Insert(e));
        live.push(e);
        if churn > 0 && (i + 1) % churn == 0 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let victim = live.swap_remove((lcg >> 33) as usize % live.len());
            ops.push(UpdateOp::Delete { src: victim.src, dst: victim.dst });
        }
    }
    ops
}

/// Refuses a root outside `0..space`: the engine sizes its arrays from it.
fn check_roots<P: GasProgram>(program: &P, space: u32) -> Result<(), String> {
    let Some(&(v, _)) = program.roots(space).iter().find(|r| r.0 >= space) else { return Ok(()) };
    Err(format!("option --root: {v} is outside the graph (vertex space {space})"))
}

/// `--verify`: recomputes a cold AlwaysFull fixpoint on the final store
/// and compares it vertex by vertex against the standing result. Prints
/// a greppable equality line, or fails with the first mismatch.
fn verify_against_cold<S: GraphStore + Sync, P: GasProgram + Copy>(
    g: &S,
    engine: &Engine<P>,
) -> Result<(), String> {
    let p = *engine.program();
    let mut cold = Engine::new(p, ModePolicy::AlwaysFull);
    cold.run_from_roots(g);
    let (a, b) = (engine.values(), cold.values());
    let n = a.len().max(b.len());
    for v in 0..n {
        let x = a.get(v).copied().unwrap_or_else(|| p.default_value(v as u32));
        let y = b.get(v).copied().unwrap_or_else(|| p.default_value(v as u32));
        if x != y {
            return Err(format!(
                "verify: MISMATCH at vertex {v}: standing {x:?} != cold fixpoint {y:?}"
            ));
        }
    }
    println!("verify: PASS (standing result == cold fixpoint over {n} vertices)");
    Ok(())
}

fn config(parsed: &Parsed) -> Result<TinkerConfig, String> {
    let mut cfg = TinkerConfig::with_pagewidth(parsed.num("pagewidth", 64usize)?);
    cfg.enable_sgh = !parsed.flag("no-sgh");
    cfg.enable_cal = !parsed.flag("no-cal");
    if parsed.flag("compact") {
        cfg.delete_mode = DeleteMode::DeleteAndCompact;
    }
    if parsed.flag("paper-layout") {
        cfg = cfg.tiers(0, 0, 0);
    }
    cfg.validate().map_err(|e| format!("invalid configuration: {e}"))?;
    Ok(cfg)
}

/// A [`GraphTinker`] built from the command's configuration flags.
fn tinker(parsed: &Parsed) -> Result<GraphTinker, String> {
    GraphTinker::new(config(parsed)?).map_err(|e| e.to_string())
}

/// A [`ParallelTinker`] of `n` shards built from the configuration flags.
fn sharded(parsed: &Parsed, n: usize) -> Result<ParallelTinker, String> {
    ParallelTinker::new(config(parsed)?, n).map_err(|e| e.to_string())
}

/// The one way a command loads a whole file: the input edge list (made
/// symmetric when `sym`, for the undirected analytics) into `g` through
/// [`ApplyBatch::load`]. `placed_whole` reads what the load placed whole.
fn load<S: ApplyBatch + GraphStore>(
    parsed: &Parsed,
    sym: bool,
    mut g: S,
    placed_whole: fn(&S) -> u64,
) -> Result<S, String> {
    let path = parsed.input()?;
    let mut batch = EdgeBatch::inserts(&io::read_edge_list(path).map_err(|e| e.to_string())?);
    if sym {
        batch = symmetrize(&batch);
    }
    let (ops, t0) = (batch.len(), Instant::now());
    g.load(batch.into_iter().collect());
    eprintln!(
        "loaded {ops} ops ({} live) from {path} in {:.2?}, {} sources placed whole",
        g.num_edges(),
        t0.elapsed(),
        placed_whole(&g)
    );
    Ok(g)
}

fn generate(parsed: &Parsed) -> Result<(), String> {
    let out = parsed.get("out").ok_or("generate requires --out FILE")?;
    let seed = parsed.num("seed", 42u64)?;
    let edges = if let Some(name) = parsed.get("dataset") {
        let sf = parsed.num("scale-factor", 64u32)?;
        let spec = dataset_by_name(name, sf)
            .ok_or_else(|| format!("unknown dataset '{name}' (see 'gtinker help')"))?;
        eprintln!(
            "generating {} at scale factor {sf}: {} vertices, {} edges",
            spec.name, spec.vertices, spec.edges
        );
        spec.generate()
    } else {
        let scale = parsed.num("rmat-scale", 0u32)?;
        if scale == 0 {
            return Err("generate requires --dataset NAME or --rmat-scale N".into());
        }
        let m = parsed.num("edges", 1u64 << (scale + 4))?;
        eprintln!("generating RMAT scale {scale} with {m} edges");
        RmatConfig::graph500(scale, m, seed).generate()
    };
    io::write_edge_list(out, &edges).map_err(|e| e.to_string())?;
    eprintln!("wrote {} edges to {out}", edges.len());
    Ok(())
}

/// `gtinker stats INPUT`: structure statistics plus the hot-path metric
/// registry accumulated while building the store. INPUT is either an edge
/// list (live ingest into a fresh store) or a WAL directory (recovery).
fn stats(parsed: &Parsed) -> Result<(), String> {
    let format = parsed.get("format").unwrap_or("text");
    if !matches!(format, "text" | "json" | "prom" | "prometheus") {
        return Err(format!("option --format: expected text|json|prom, got '{format}'"));
    }
    let input = parsed.input()?.to_string();
    // The registry is process-global; start from zero so the report
    // covers exactly the ingest/recovery performed by this command.
    gtinker_core::metrics::global().reset();
    let recovered = Path::new(&input).is_dir();
    let g = if recovered {
        let (g, report) =
            recover_tinker(Path::new(&input), config(parsed)?).map_err(|e| e.to_string())?;
        eprintln!(
            "recovered {} edges from {input} (snapshot lsn {}, {} records replayed)",
            g.num_edges(),
            report.snapshot_lsn,
            report.replayed_records
        );
        g
    } else {
        // The per-batch insert path, on purpose: it is what this profiles.
        let mut g = tinker(parsed)?;
        g.apply_batch(&EdgeBatch::inserts(&io::read_edge_list(&input).map_err(|e| e.to_string())?));
        g
    };
    // Refresh the memory_*_bytes gauge family from the final structure
    // state so every output format reports it.
    g.publish_memory_metrics();
    let snap = gtinker_core::metrics::global().snapshot();
    match format {
        "json" => println!("{}", stats_json(&g, &input, recovered, &snap)),
        "prom" | "prometheus" => print!("{}", snap.to_prometheus()),
        _ => {
            print!("{}", structure_report(&g, false));
            for (d, n) in g.depth_histogram().iter().enumerate() {
                println!("  depth {d}: {n} edges");
            }
            println!("-- hot-path metrics (this run) --");
            let (rp50, rp95, rp99) = snap.rhh_probe.quantiles();
            println!(
                "rhh placements    : {} (mean probe {:.2}, p50/p95/p99 {rp50}/{rp95}/{rp99}, \
                 max <= {}, {} displacements, {} overflows)",
                snap.rhh_probe.count(),
                snap.rhh_probe.mean_approx(),
                snap.rhh_probe.max_bound(),
                snap.rhh_displacements,
                snap.rhh_overflows
            );
            let (sp50, sp95, sp99) = snap.sgh_probe.quantiles();
            println!(
                "sgh placements    : {} (mean probe {:.2}, p50/p95/p99 {sp50}/{sp95}/{sp99}, \
                 {} grows)",
                snap.sgh_probe.count(),
                snap.sgh_probe.mean_approx(),
                snap.sgh_grows
            );
            println!(
                "ops               : {} inserts, {} updates, {} deletes, {} delete misses",
                snap.tinker_inserts,
                snap.tinker_updates,
                snap.tinker_deletes,
                snap.tinker_delete_misses
            );
            println!(
                "branch-outs       : {} (wal: {} appends, {} syncs; {} snapshots)",
                snap.tinker_branch_depth.count(),
                snap.wal_appends,
                snap.wal_syncs,
                snap.snapshot_writes
            );
            if snap.wal_appends > 0 {
                let (ap50, ap95, ap99) = snap.wal_append_ns.quantiles();
                let (yp50, yp95, yp99) = snap.wal_sync_ns.quantiles();
                println!(
                    "wal latency (ns)  : append p50/p95/p99 {ap50}/{ap95}/{ap99}, \
                     sync p50/p95/p99 {yp50}/{yp95}/{yp99}"
                );
            }
        }
    }
    Ok(())
}

/// How one structure field prints. JSON takes the raw number (reals to
/// six places); the text report rounds reals to the given places and shows
/// byte counts as MiB. The page-width classes are one `[width, blocks,
/// free]` triple each in JSON, `width x blocks (+free free)` in text.
enum Num {
    Int(u64),
    Real(f64, usize),
    Mib(usize),
    Classes([gtinker_core::ClassBlocks; gtinker_core::stats::MAX_CLASSES]),
}

/// The structure fields of `gtinker stats`, one `(key, lead, value, trail)`
/// row each, rendered either as JSON members (`"key": value`, one per line,
/// sed/grep-friendly) or as the text report (`lead value trail`, so several
/// fields can share a line).
fn structure_report(g: &GraphTinker, json: bool) -> String {
    use Num::{Classes, Int, Mib, Real};
    let st = g.structure_stats();
    let n = |v: usize| Int(v as u64);
    let head = [
        ("live_edges", "live edges        : ", Int(st.live_edges), "\n"),
        ("num_sources", "vertices (sources): ", n(st.num_sources), "\n"),
        ("vertex_space", "vertex space      : ", Int(g.vertex_space().into()), "\n"),
        ("main_blocks", "main blocks       : ", n(st.main_blocks), "\n"),
        ("overflow_blocks", "overflow blocks   : ", n(st.overflow_blocks), "\n"),
        ("free_blocks", "free blocks       : ", n(st.free_blocks), "\n"),
        ("block_classes", "block classes     : ", Classes(st.block_classes), "\n"),
        ("tombstones", "tombstones        : ", n(st.tombstones), ""),
        ("hub_dead_slots", " (+ ", n(st.hub_dead_slots), " hub dead slots)\n"),
        ("cal_blocks", "CAL blocks        : ", n(st.cal_blocks), ""),
        ("cal_invalid", " (", Int(st.cal_invalid), " invalid records)\n"),
        ("occupancy", "occupancy         : ", Real(st.occupancy, 3), "\n"),
        ("memory_bytes", "memory            : ", Mib(st.memory_bytes), " MiB\n"),
    ];
    let tiers = [
        ("tier_inline_vertices", "tiers             : ", n(st.tier_inline_vertices), " inline"),
        ("tier_blocks_vertices", " / ", n(st.tier_blocks_vertices), " blocks"),
        ("tier_hub_vertices", " / ", n(st.tier_hub_vertices), " hub vertices"),
        ("tier_promotions", " (", Int(st.tier_promotions), " promotions"),
        ("tier_demotions", ", ", Int(st.tier_demotions), " demotions)\n"),
        ("inline_bytes", "tier memory       : inline ", n(st.inline_bytes), " B"),
        ("hub_bytes", ", hub ", n(st.hub_bytes), " B\n"),
    ];
    let tail = [
        ("mean_probe", "mean probe        : ", Real(g.stats().mean_probe(), 2), " cells/op\n"),
        ("mean_depth", "mean tree depth   : ", Real(g.mean_depth(), 3), "\n"),
    ];
    // JSON lists every field, live_edges first; the text report leads with
    // the vertex counts and shows the tier lines for tiered layouts only.
    let tiered = json || g.config().adaptive_enabled();
    let (first, rest) = head.split_at(if json { 0 } else { 1 });
    let rows = rest[..2].iter().chain(first).chain(&rest[2..]);
    let mut out = String::new();
    for (key, lead, num, trail) in rows.chain(tiers.iter().filter(|_| tiered)).chain(&tail) {
        let value = match *num {
            Classes(classes) => {
                let used = classes.iter().filter(|c| c.width > 0);
                if json {
                    let each: Vec<String> =
                        used.map(|c| format!("[{}, {}, {}]", c.width, c.blocks, c.free)).collect();
                    format!("[{}]", each.join(", "))
                } else {
                    let each: Vec<String> = used
                        .map(|c| format!("{} x {} (+{} free)", c.width, c.blocks, c.free))
                        .collect();
                    each.join(" / ")
                }
            }
            Int(v) => v.to_string(),
            Real(v, _) if json => format!("{v:.6}"),
            Real(v, places) => format!("{v:.places$}"),
            Mib(bytes) if json => bytes.to_string(),
            Mib(bytes) => format!("{:.1}", bytes as f64 / (1024.0 * 1024.0)),
        };
        if json {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        } else {
            out.push_str(&format!("{lead}{value}{trail}"));
        }
    }
    out
}

/// Renders `gtinker stats` output as one JSON object: the structure fields
/// of [`structure_report`] plus the full metric registry under `"metrics"`.
fn stats_json(
    g: &GraphTinker,
    input: &str,
    recovered: bool,
    snap: &gtinker_core::MetricsSnapshot,
) -> String {
    // Indent the metrics object to nest under this one.
    let metrics = snap.to_json().replace('\n', "\n  ");
    format!(
        "{{\n  \"input\": \"{}\",\n  \"recovered\": {recovered},\n{}  \"metrics\": {metrics}\n}}",
        gtinker_core::trace::json_escape(input),
        structure_report(g, true)
    )
}

/// Number of shards requested via `--shards` (1 = single store).
fn shards(parsed: &Parsed) -> Result<usize, String> {
    let n = parsed.num("shards", 1usize)?;
    if n == 0 {
        return Err("option --shards: must be at least 1".into());
    }
    Ok(n)
}

fn bfs(parsed: &Parsed) -> Result<(), String> {
    let root = parsed.num("root", 0u32)?;
    analytic(parsed, Bfs::new(root), false, true, |levels| {
        let reached = levels.iter().filter(|&&v| v != u32::MAX).count();
        let max_level = levels.iter().filter(|&&v| v != u32::MAX).max().copied().unwrap_or(0);
        format!("BFS from {root}: {reached} reached, eccentricity {max_level}")
    })
}

fn sssp(parsed: &Parsed) -> Result<(), String> {
    let root = parsed.num("root", 0u32)?;
    analytic(parsed, Sssp::new(root), false, false, |dist| {
        let reached = dist.iter().filter(|&&v| v != u32::MAX).count();
        let max = dist.iter().filter(|&&v| v != u32::MAX).max().copied().unwrap_or(0);
        format!("SSSP from {root}: {reached} reached, max distance {max}")
    })
}

fn cc(parsed: &Parsed) -> Result<(), String> {
    analytic(parsed, Cc::new(), true, false, |labels| {
        let mut distinct = labels.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        format!("CC: {} components over {} vertices", distinct.len(), labels.len())
    })
}

/// The one driver behind `bfs`, `sssp` and `cc`: builds the store
/// `--shards` asks for (the input symmetrized when `sym`), solves
/// `program` the way `--restart` asks for, and prints `summary` of the
/// final values followed by how the fixpoint was reached. `mode_split`
/// adds the FP / IP split of a cold solve's iterations.
fn analytic<P: IncrementalState<Value = u32> + Copy>(
    parsed: &Parsed,
    program: P,
    sym: bool,
    mode_split: bool,
    summary: impl Fn(&[u32]) -> String,
) -> Result<(), String> {
    let n = shards(parsed)?;
    if incremental_restart(parsed)? {
        return match n {
            1 => solve_incremental(&mut tinker(parsed)?, parsed, program, sym, summary),
            n => solve_incremental(&mut sharded(parsed, n)?, parsed, program, sym, summary),
        };
    }
    match n {
        1 => {
            let g = load(parsed, sym, tinker(parsed)?, GraphTinker::placed_whole)?;
            solve_cold(&g, parsed, program, mode_split, summary)
        }
        n => {
            let g = load(parsed, sym, sharded(parsed, n)?, ParallelTinker::placed_whole)?;
            solve_cold(&g, parsed, program, mode_split, summary)
        }
    }
}

fn solve_cold<S: GraphStore + Sync, P: GasProgram<Value = u32> + Copy>(
    g: &S,
    parsed: &Parsed,
    program: P,
    mode_split: bool,
    summary: impl Fn(&[u32]) -> String,
) -> Result<(), String> {
    check_roots(&program, g.vertex_space())?;
    let mut e = Engine::new(program, mode_policy(parsed)?);
    let t0 = Instant::now();
    let r = e.run_from_roots(g);
    let split = if mode_split {
        let (fp, ip) = r.mode_counts();
        format!(" ({fp} FP / {ip} IP)")
    } else {
        String::new()
    };
    println!(
        "{}, {} iterations{split} in {:.2?}",
        summary(e.values()),
        r.num_iterations(),
        t0.elapsed()
    );
    if parsed.flag("verify") {
        verify_against_cold(g, &e)?;
    }
    Ok(())
}

/// Streams the input through a [`DynamicRunner`] in `--batch`-op batches,
/// repairing the standing result after each, and prints `summary` of it.
fn solve_incremental<S, P>(
    g: &mut S,
    parsed: &Parsed,
    program: P,
    sym: bool,
    summary: impl Fn(&[u32]) -> String,
) -> Result<(), String>
where
    S: ApplyBatch + GraphStore + Sync,
    P: IncrementalState<Value = u32> + Copy,
{
    let path = parsed.input()?;
    let edges = io::read_edge_list(path).map_err(|e| e.to_string())?;
    let space = edges.iter().map(|e| e.src.max(e.dst).saturating_add(1)).max().unwrap_or(0);
    check_roots(&program, space)?;
    let ops = churn_ops(&edges, parsed.num("churn-every", 0usize)?);
    let batch_size = parsed.num("batch", 10_000usize)?.max(1);
    let mut runner = DynamicRunner::new(program, mode_policy(parsed)?, RestartPolicy::Incremental);
    let m = gtinker_core::metrics::global();
    let (cone0, iters0) = (m.engine_repair_invalidated.get(), m.engine_repair_iters.get());
    let t0 = Instant::now();
    let batches = ops.len().div_ceil(batch_size);
    for chunk in ops.chunks(batch_size) {
        let batch: EdgeBatch = chunk.iter().copied().collect();
        let batch = if sym { symmetrize(&batch) } else { batch };
        g.apply(&batch);
        runner.after_batch(&*g, &batch);
    }
    eprintln!(
        "incremental: {} ops over {batches} batches from {path} in {:.2?} \
         ({} vertices invalidated, {} repair iterations)",
        ops.len(),
        t0.elapsed(),
        m.engine_repair_invalidated.get() - cone0,
        m.engine_repair_iters.get() - iters0,
    );
    let e = runner.engine();
    println!("{}, {batches} incremental batches in {:.2?}", summary(e.values()), t0.elapsed());
    if parsed.flag("verify") {
        verify_against_cold(&*g, e)?;
    }
    Ok(())
}

fn pagerank(parsed: &Parsed) -> Result<(), String> {
    match shards(parsed)? {
        1 => pagerank_on(&load(parsed, false, tinker(parsed)?, GraphTinker::placed_whole)?, parsed),
        n => pagerank_on(
            &load(parsed, false, sharded(parsed, n)?, ParallelTinker::placed_whole)?,
            parsed,
        ),
    }
}

fn pagerank_on<S: GraphStore + Sync>(g: &S, parsed: &Parsed) -> Result<(), String> {
    let iterations = parsed.num("iterations", 20usize)?;
    let k = parsed.num("top", 10usize)?;
    let pr = PageRank::new(0.85, iterations);
    let t0 = Instant::now();
    let top = pr.top_k(g, k);
    println!("PageRank ({iterations} iterations) in {:.2?}; top {k}:", t0.elapsed());
    for (v, rank) in top {
        println!("  vertex {v:>10}  {rank:.6}");
    }
    Ok(())
}

fn triangles(parsed: &Parsed) -> Result<(), String> {
    let g = load(parsed, true, tinker(parsed)?, GraphTinker::placed_whole)?;
    let t0 = Instant::now();
    let n = TriangleCount::new().count(&g);
    println!("{n} triangles ({} edges, symmetrized) in {:.2?}", g.num_edges(), t0.elapsed());
    Ok(())
}

fn bench_insert(parsed: &Parsed) -> Result<(), String> {
    let path = parsed.input()?;
    let edges = io::read_edge_list(path).map_err(|e| e.to_string())?;
    let batch_size = parsed.num("batch", 1_000_000usize)?;
    let batches: Vec<EdgeBatch> = edges.chunks(batch_size.max(1)).map(EdgeBatch::inserts).collect();

    let mut g = tinker(parsed)?;
    let t0 = Instant::now();
    for b in &batches {
        g.apply_batch(b);
    }
    let gt_dur = t0.elapsed();
    println!(
        "GraphTinker: {} edges in {:.2?} ({:.3} Medges/s), mean probe {:.2}",
        edges.len(),
        gt_dur,
        edges.len() as f64 / gt_dur.as_secs_f64() / 1e6,
        g.stats().mean_probe()
    );
    if parsed.flag("baseline") {
        let mut s = Stinger::with_defaults();
        let t0 = Instant::now();
        for b in &batches {
            s.apply_batch(b);
        }
        let st_dur = t0.elapsed();
        println!(
            "STINGER    : {} edges in {:.2?} ({:.3} Medges/s), mean probe {:.2}",
            edges.len(),
            st_dur,
            edges.len() as f64 / st_dur.as_secs_f64() / 1e6,
            s.stats().mean_probe()
        );
        println!("speedup    : {:.2}x", st_dur.as_secs_f64() / gt_dur.as_secs_f64());
    }
    Ok(())
}

/// `--sync never|always|N` → a WAL [`SyncPolicy`].
fn sync_policy(parsed: &Parsed) -> Result<SyncPolicy, String> {
    match parsed.get("sync").unwrap_or("always") {
        "never" => Ok(SyncPolicy::Never),
        "always" | "record" => Ok(SyncPolicy::EveryRecord),
        n => n
            .parse::<u64>()
            .map(SyncPolicy::EveryN)
            .map_err(|_| format!("option --sync: expected never|always|N, got '{n}'")),
    }
}

/// The parse stage of `ingest`: the input file, one `--batch` of edges at
/// a time, so that batch k+2 is still text while k+1 is being logged and
/// k applied. A malformed line (or a failed read) ends the stream early
/// and is held until [`finish`](Self::finish), after the batches before
/// it have been made durable.
struct IngestInput {
    reader: io::EdgeListReader<std::io::BufReader<std::fs::File>>,
    chunk: Vec<Edge>,
    batch_size: usize,
    edges: u64,
    batches: u64,
    failed: Option<String>,
}

impl IngestInput {
    fn open(path: &str, batch_size: usize) -> Result<Self, String> {
        Ok(IngestInput {
            reader: io::EdgeListReader::open(path).map_err(|e| e.to_string())?,
            chunk: Vec::new(),
            batch_size,
            edges: 0,
            batches: 0,
            failed: None,
        })
    }

    /// The next batch of inserts, `None` once the input has ended.
    fn next_batch(&mut self) -> Option<EdgeBatch> {
        if self.failed.is_some() {
            return None;
        }
        let timer = gtinker_core::metrics::timer();
        let _t = gtinker_core::trace::span_arg(gtinker_core::SpanId::IngestParse, self.batches);
        self.chunk.clear();
        let read = self.reader.read_chunk(&mut self.chunk, self.batch_size);
        let m = gtinker_core::metrics::global();
        m.ingest_parse_ns.record_since(timer);
        match read {
            Ok(0) => None,
            Ok(n) => {
                m.ingest_parsed_edges_total.add(n as u64);
                self.edges += n as u64;
                self.batches += 1;
                Some(EdgeBatch::inserts(&self.chunk))
            }
            Err(e) => {
                self.failed = Some(e.to_string());
                None
            }
        }
    }

    /// `(edges, batches)` handed out, or the error that cut the input
    /// short. Call once everything handed out is logged and synced.
    fn finish(self) -> Result<(u64, u64), String> {
        match self.failed {
            None => Ok((self.edges, self.batches)),
            Some(e) => Err(format!(
                "{e} (the {} edges in {} batches before it were logged)",
                self.edges, self.batches
            )),
        }
    }
}

/// `gtinker ingest FILE --wal DIR`: streams FILE through the durable store
/// — logged on this thread, applied by `--pool N` shard workers (default
/// 1), so the apply of batch k overlaps the WAL append of batch k+1 and
/// the parse of batch k+2. A non-empty DIR is resumed, whatever `--pool`
/// wrote it. With `--serve` the store is shared with the HTTP workers
/// (listening before the first byte is parsed), so `/query/*` reads pinned
/// snapshots while batches keep applying; `--hold`
/// keeps serving after the ingest finishes until `/quitquitquit`.
fn ingest(parsed: &Parsed) -> Result<(), String> {
    let path = parsed.input()?;
    let dir = parsed.get("wal").ok_or("ingest requires --wal DIR")?;
    let batch_size = parsed.num("batch", 100_000usize)?.max(1);
    let snapshot_every = parsed.num("snapshot-every", 0u64)?;
    let opts = WalOptions { sync: sync_policy(parsed)?, ..WalOptions::default() };
    let pool = parsed.num("pool", 1usize)?;
    if pool == 0 {
        return Err("option --pool: must be at least 1".into());
    }
    let workers = parsed.num("workers", crate::serve::DEFAULT_WORKERS)?.max(1);
    let slow_query_ms = slow_query_ms(parsed)?;
    let input = IngestInput::open(path, batch_size)?;
    let listener = parsed.get("serve").map(crate::serve::bind).transpose()?;
    let (mut d, report) = DurableTinker::open(Path::new(dir), config(parsed)?, opts, pool)
        .map_err(|e| e.to_string())?;
    if report.next_lsn > 0 {
        eprintln!(
            "recovered {} edges at lsn {} ({} records replayed)",
            d.store().num_edges(),
            report.next_lsn,
            report.replayed_records
        );
    }
    let server = listener.map(|listener| {
        let store = Some(std::sync::Arc::clone(d.store()));
        let ctx = crate::serve::ServeCtx::with_options(Instant::now(), store, slow_query_ms);
        crate::serve::spawn(listener, ctx, workers)
    });
    let t0 = Instant::now();
    let driven = drive_ingest(&mut d, input, snapshot_every, parsed.flag("final-snapshot"));
    if let Ok((edges, batches)) = driven {
        let dur = t0.elapsed();
        println!(
            "ingested {edges} edges in {batches} batches across {pool} shards in {dur:.2?} \
             ({:.3} Medges/s durable), {} live, next lsn {}",
            edges as f64 / dur.as_secs_f64() / 1e6,
            d.store().num_edges(),
            d.next_lsn()
        );
        if parsed.flag("stats") {
            d.store().publish_memory_metrics();
            print!("{}", gtinker_core::metrics::global().snapshot().to_prometheus());
        }
    }
    if let Some(server) = server {
        if driven.is_ok() && parsed.flag("hold") {
            eprintln!(
                "ingest done; serving queries on http://{} until GET /quitquitquit",
                server.addr()
            );
            server.join();
        } else {
            server.shutdown();
        }
    }
    driven.map(|_| ())
}

/// The write loop of `ingest`: every batch of `input` logged and handed to
/// the shards, a snapshot every `snapshot_every` batches (0 = never) and,
/// if asked, one at the end. Returns the `(edges, batches)` made durable;
/// a parse error surfaces only after what preceded it is synced.
fn drive_ingest(
    d: &mut DurableTinker,
    mut input: IngestInput,
    snapshot_every: u64,
    final_snapshot: bool,
) -> Result<(u64, u64), String> {
    while let Some(batch) = input.next_batch() {
        gtinker_core::trace::instant(gtinker_core::SpanId::IngestBatch, input.batches - 1);
        d.apply_batch(batch).map_err(|e| e.to_string())?;
        if snapshot_every > 0 && input.batches.is_multiple_of(snapshot_every) {
            let p = d.snapshot().map_err(|e| e.to_string())?;
            eprintln!("snapshot at lsn {}: {}", d.next_lsn(), p.display());
        }
    }
    d.sync().map_err(|e| e.to_string())?;
    let totals = input.finish()?;
    if final_snapshot {
        let p = d.snapshot().map_err(|e| e.to_string())?;
        eprintln!("final snapshot: {}", p.display());
    }
    Ok(totals)
}

/// `gtinker trace FILE --wal DIR`: the same durable ingest as `ingest`,
/// run with span tracing enabled, then exported as a Chrome trace-event
/// timeline. The file shows the write pipeline's overlap directly:
/// `wal_append` of batch k+1 on the driver track running while the shard
/// tracks apply batch k. `--analytics` appends a traced BFS so the
/// engine's process/apply phases appear too.
fn trace_cmd(parsed: &Parsed) -> Result<(), String> {
    let out = parsed.get("out").unwrap_or("trace.json").to_string();
    gtinker_core::trace::set_enabled(true);
    gtinker_core::trace::clear();
    ingest(parsed)?;
    // Snapshot the rings at the phase boundary: the analytics load's
    // branch-out instants must not evict the ingest's WAL/pool spans.
    let mut dump = gtinker_core::trace::dump();
    if parsed.flag("analytics") {
        let mut g = load(parsed, false, tinker(parsed)?, GraphTinker::placed_whole)?;
        let root = parsed.num("root", 0u32)?;
        check_roots(&Bfs::new(root), g.vertex_space())?;
        let mut runner =
            DynamicRunner::new(Bfs::new(root), mode_policy(parsed)?, RestartPolicy::Incremental);
        let r = runner.after_batch(&g, &EdgeBatch::new());
        // A delete + re-insert churn round of 256 stored edges so the
        // timeline carries 'repair' spans with real cone sizes, not just
        // the cold solve.
        let mut edges = Vec::new();
        g.for_each_edge(|s, d, w| edges.extend((edges.len() < 256).then(|| Edge::new(s, d, w))));
        let pairs: Vec<_> = edges.iter().map(|e| (e.src, e.dst)).collect();
        let del = EdgeBatch::deletes(&pairs);
        g.apply_batch(&del);
        runner.after_batch(&g, &del);
        let ins = EdgeBatch::inserts(&edges);
        g.apply_batch(&ins);
        runner.after_batch(&g, &ins);
        eprintln!(
            "traced BFS from {root}: {} iterations, then 2 repair batches ({} ops each)",
            r.num_iterations(),
            edges.len()
        );
    }
    gtinker_core::trace::set_enabled(false);
    dump.merge(gtinker_core::trace::dump());
    std::fs::write(&out, dump.to_chrome_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    let dropped: u64 = dump.threads.iter().map(|t| t.dropped).sum();
    println!(
        "trace: {} events on {} tracks -> {out}{} (open in https://ui.perfetto.dev)",
        dump.events.len(),
        dump.threads.len(),
        if dropped > 0 {
            format!(" ({dropped} oldest events evicted by ring wrap)")
        } else {
            String::new()
        }
    );
    Ok(())
}

/// Parses `--slow-query-ms` (None = slow-query log disabled; 0 logs
/// every request, handy for smoke tests).
fn slow_query_ms(parsed: &Parsed) -> Result<Option<u64>, String> {
    match parsed.get("slow-query-ms") {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("bad --slow-query-ms: '{v}' (expected milliseconds)")),
    }
}

/// `gtinker serve [FILE|WALDIR]`: loads a file, or recovers a directory
/// (snapshot layout and vertex space kept, the WAL tail replayed once,
/// grouped by source), into a parallel store (`--shards N`), then serves
/// the telemetry routes plus the `/query/*` API over HTTP until SIGTERM or
/// a loopback `GET /quitquitquit`.
fn serve_cmd(parsed: &Parsed) -> Result<(), String> {
    let started = Instant::now();
    let shards = shards(parsed)?;
    let workers = parsed.num("workers", crate::serve::DEFAULT_WORKERS)?.max(1);
    let store = match parsed.positional.first() {
        None => None,
        Some(input) => {
            gtinker_core::metrics::global().reset();
            let g = if Path::new(input).is_dir() {
                let dir = Path::new(input);
                let scan = replay(dir).map_err(|e| e.to_string())?;
                let (g, report) = recover_sharded(dir, scan, config(parsed)?, shards)
                    .map_err(|e| e.to_string())?;
                eprintln!(
                    "recovered {} edges from {input} ({} records replayed)",
                    g.num_edges(),
                    report.replayed_records
                );
                g
            } else {
                load(parsed, false, sharded(parsed, shards)?, ParallelTinker::placed_whole)?
            };
            eprintln!("serving {} edges over {shards} shard(s)", g.num_edges());
            Some(std::sync::Arc::new(g))
        }
    };
    let listener = crate::serve::bind(parsed.get("addr").unwrap_or("127.0.0.1:0"))?;
    let ctx = crate::serve::ServeCtx::with_options(started, store, slow_query_ms(parsed)?);
    crate::serve::serve_until_shutdown(listener, ctx, workers);
    eprintln!("serve: shut down cleanly");
    Ok(())
}

fn snapshot(parsed: &Parsed) -> Result<(), String> {
    let dir = parsed.get("dir").ok_or("snapshot requires --dir DIR")?;
    let dir = Path::new(dir);
    let t0 = Instant::now();
    let g = load(parsed, false, tinker(parsed)?, GraphTinker::placed_whole)?;
    let out = write_tinker_snapshot(dir, &g, 0).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    let dur = t0.elapsed();
    println!(
        "snapshot {} ({bytes} bytes) in {dur:.2?} ({:.1} MB/s)",
        out.display(),
        bytes as f64 / dur.as_secs_f64() / 1e6
    );
    Ok(())
}

fn recover(parsed: &Parsed) -> Result<(), String> {
    let dir = Path::new(parsed.input()?);
    // Only opening a durable store may treat a missing directory as empty.
    if !dir.is_dir() {
        return Err(format!("recover: {} is not a directory", dir.display()));
    }
    let t0 = Instant::now();
    let (g, report) = recover_tinker(dir, config(parsed)?).map_err(|e| e.to_string())?;
    println!(
        "recovered GraphTinker: {} edges, {} sources, snapshot lsn {}{}, \
         {} records replayed{}{} in {:.2?}, {} sources placed whole",
        g.num_edges(),
        g.num_sources(),
        report.snapshot_lsn,
        report.snapshot_path.as_deref().map(|p| format!(" ({})", p.display())).unwrap_or_default(),
        report.replayed_records,
        if report.wal_truncated { " (torn tail truncated)" } else { "" },
        if report.snapshots_skipped > 0 {
            format!(" ({} corrupt snapshot(s) skipped)", report.snapshots_skipped)
        } else {
            String::new()
        },
        t0.elapsed(),
        report.placed_whole
    );
    if parsed.flag("validate") {
        g.validate_rhh_invariants().map_err(|e| format!("RHH invariant violated: {e}"))?;
        g.validate_tag_invariants().map_err(|e| format!("tag invariant violated: {e}"))?;
        println!("validated: RHH probe distances and SWAR tag lanes consistent");
    }
    if let Some(root) = parsed.get("root") {
        let root: u32 = root.parse().map_err(|_| format!("option --root: bad value '{root}'"))?;
        check_roots(&Bfs::new(root), g.vertex_space())?;
        let mut e = Engine::new(Bfs::new(root), mode_policy(parsed)?);
        let r = e.run_from_roots(&g);
        let reached = e.values().iter().filter(|&&v| v != u32::MAX).count();
        println!("BFS from {root}: {reached} reached, {} iterations", r.num_iterations());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn parsed(args: &[&str]) -> Parsed {
        parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn unknown_command_errors() {
        let e = run(&parsed(&["frobnicate"])).unwrap_err();
        assert!(e.contains("unknown command"));
    }

    #[test]
    fn help_succeeds() {
        assert!(run(&parsed(&["help"])).is_ok());
        assert!(run(&parsed(&[])).is_ok());
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(mode_policy(&parsed(&["bfs", "f"])).unwrap(), ModePolicy::hybrid());
        assert_eq!(
            mode_policy(&parsed(&["bfs", "f", "--mode", "fp"])).unwrap(),
            ModePolicy::AlwaysFull
        );
        assert!(mode_policy(&parsed(&["bfs", "f", "--mode", "x"])).is_err());
    }

    #[test]
    fn config_flags() {
        let c =
            config(&parsed(&["stats", "f", "--no-cal", "--compact", "--pagewidth", "32"])).unwrap();
        assert!(!c.enable_cal);
        assert!(c.enable_sgh);
        assert_eq!(c.pagewidth, 32);
        assert_eq!(c.delete_mode, DeleteMode::DeleteAndCompact);
        assert!(config(&parsed(&["stats", "f", "--pagewidth", "33"])).is_err());
        // Tiers are on unless --paper-layout.
        assert_eq!(config(&parsed(&["stats", "f"])).unwrap(), TinkerConfig::default());
        assert_eq!(
            config(&parsed(&["stats", "f", "--paper-layout"])).unwrap(),
            TinkerConfig::paper()
        );
        assert!(!USAGE.contains("--adaptive") && USAGE.contains("--paper-layout"));
    }

    #[test]
    fn stats_and_analytics_run_under_both_layouts() {
        let dir = std::env::temp_dir().join("gtinker_cli_adaptive");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.txt");
        // One hub source (200 edges, over the promote threshold of 128),
        // a handful of inline-sized sources.
        let mut edges = String::new();
        for d in 0..200u32 {
            edges.push_str(&format!("0 {}\n", d + 10));
        }
        for s in 1..5u32 {
            edges.push_str(&format!("{s} {}\n", s + 100));
        }
        std::fs::write(&file, edges).unwrap();
        let file_s = file.to_str().unwrap();
        for layout in [&[][..], &["--paper-layout"][..]] {
            let with = |args: &[&str]| parsed(&[args, layout].concat());
            run(&with(&["stats", file_s])).unwrap();
            run(&with(&["stats", file_s, "--format", "json"])).unwrap();
            run(&with(&["stats", file_s, "--format", "prom"])).unwrap();
            run(&with(&["bfs", file_s, "--root", "0"])).unwrap();
            run(&with(&["cc", file_s])).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_json_has_tier_fields() {
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&EdgeBatch::inserts(&[Edge::unit(0, 1), Edge::unit(0, 2)]));
        let snap = gtinker_core::metrics::global().snapshot();
        let s = stats_json(&g, "x", false, &snap);
        assert!(s.contains("\"tier_inline_vertices\": 1"), "{s}");
        assert!(s.contains("\"tier_hub_vertices\": 0"));
        assert!(s.contains("\"hub_dead_slots\": 0"));
        assert!(s.contains("\"inline_bytes\""));
    }

    #[test]
    fn generate_requires_out_and_source() {
        assert!(run(&parsed(&["generate"])).unwrap_err().contains("--out"));
        assert!(run(&parsed(&["generate", "--out", "/tmp/x"])).unwrap_err().contains("--dataset"));
    }

    #[test]
    fn end_to_end_generate_stats_bfs() {
        let dir = std::env::temp_dir().join("gtinker_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.txt");
        let file_s = file.to_str().unwrap();
        run(&parsed(&[
            "generate",
            "--rmat-scale",
            "8",
            "--edges",
            "2000",
            "--seed",
            "7",
            "--out",
            file_s,
        ]))
        .unwrap();
        run(&parsed(&["stats", file_s])).unwrap();
        run(&parsed(&["bfs", file_s, "--root", "0"])).unwrap();
        run(&parsed(&["cc", file_s])).unwrap();
        run(&parsed(&["pagerank", file_s, "--iterations", "5", "--top", "3"])).unwrap();
        run(&parsed(&["triangles", file_s])).unwrap();
        run(&parsed(&["bench-insert", file_s, "--baseline", "--batch", "500"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_analytics_run() {
        let dir = std::env::temp_dir().join("gtinker_cli_shards");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.txt");
        let file_s = file.to_str().unwrap();
        run(&parsed(&[
            "generate",
            "--rmat-scale",
            "8",
            "--edges",
            "1500",
            "--seed",
            "3",
            "--out",
            file_s,
        ]))
        .unwrap();
        run(&parsed(&["bfs", file_s, "--root", "0", "--shards", "4"])).unwrap();
        run(&parsed(&["sssp", file_s, "--root", "0", "--shards", "2"])).unwrap();
        run(&parsed(&["cc", file_s, "--shards", "3"])).unwrap();
        run(&parsed(&["pagerank", file_s, "--iterations", "3", "--shards", "2"])).unwrap();
        assert!(run(&parsed(&["bfs", file_s, "--shards", "0"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_and_churn_parsing() {
        assert!(!incremental_restart(&parsed(&["bfs", "f"])).unwrap());
        assert!(!incremental_restart(&parsed(&["bfs", "f", "--restart", "static"])).unwrap());
        assert!(incremental_restart(&parsed(&["bfs", "f", "--restart", "incremental"])).unwrap());
        assert!(incremental_restart(&parsed(&["bfs", "f", "--churn-every", "8"])).unwrap());
        let e = incremental_restart(&parsed(&[
            "bfs",
            "f",
            "--restart",
            "static",
            "--churn-every",
            "8",
        ]))
        .unwrap_err();
        assert!(e.contains("--churn-every"), "got: {e}");
        assert!(incremental_restart(&parsed(&["bfs", "f", "--restart", "sometimes"])).is_err());
    }

    #[test]
    fn churn_ops_interleave_deletes_of_earlier_inserts() {
        let edges: Vec<Edge> = (0..20).map(|i| Edge::unit(i, i + 1)).collect();
        let ops = churn_ops(&edges, 5);
        assert_eq!(ops.len(), 24, "20 inserts + 4 churn deletes");
        let mut inserted = std::collections::HashSet::new();
        for op in &ops {
            match *op {
                UpdateOp::Insert(e) => {
                    inserted.insert((e.src, e.dst));
                }
                UpdateOp::Delete { src, dst } => {
                    assert!(inserted.contains(&(src, dst)), "delete of a never-inserted edge");
                }
            }
        }
        assert_eq!(churn_ops(&edges, 0).len(), 20, "no churn without --churn-every");
    }

    #[test]
    fn incremental_analytics_verify_against_cold() {
        let dir = std::env::temp_dir().join("gtinker_cli_incremental");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.txt");
        let mut edges = String::new();
        for i in 0u32..600 {
            edges.push_str(&format!("{} {} {}\n", i % 53, (i * 7 + 1) % 59, i % 9 + 1));
        }
        std::fs::write(&file, edges).unwrap();
        let f = file.to_str().unwrap();
        // Every analytic, churn-heavy incremental restart, checked
        // against a cold fixpoint on the final store.
        for cmd in ["bfs", "sssp", "cc"] {
            run(&parsed(&[
                cmd,
                f,
                "--root",
                "0",
                "--restart",
                "incremental",
                "--churn-every",
                "7",
                "--batch",
                "100",
                "--verify",
            ]))
            .unwrap();
        }
        // Sharded incremental, and --verify on the static path.
        run(&parsed(&[
            "bfs",
            f,
            "--root",
            "0",
            "--shards",
            "3",
            "--restart",
            "incremental",
            "--batch",
            "150",
            "--verify",
        ]))
        .unwrap();
        run(&parsed(&["cc", f, "--verify"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_pool_and_zero_shards_are_rejected() {
        let dir = std::env::temp_dir().join("gtinker_cli_zero");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.txt");
        std::fs::write(&file, "0 1\n1 2\n").unwrap();
        let file_s = file.to_str().unwrap();
        let db = dir.join("db");
        let db_s = db.to_str().unwrap();
        let e = run(&parsed(&["ingest", file_s, "--wal", db_s, "--pool", "0"])).unwrap_err();
        assert!(e.contains("--pool") && e.contains("at least 1"), "got: {e}");
        assert!(!db.exists(), "rejected ingest must not create the WAL dir");
        let e = run(&parsed(&["bfs", file_s, "--shards", "0"])).unwrap_err();
        assert!(e.contains("--shards") && e.contains("at least 1"), "got: {e}");
        for cmd in ["sssp", "cc", "pagerank", "serve"] {
            let e = run(&parsed(&[cmd, file_s, "--shards", "0"])).unwrap_err();
            assert!(e.contains("--shards"), "{cmd}: {e}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roots_outside_the_graph_are_refused() {
        let dir = std::env::temp_dir().join("gtinker_cli_roots");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.txt");
        std::fs::write(&file, "0 1\n1 2\n2 3\n").unwrap();
        let f = file.to_str().unwrap();
        let db = dir.join("db");
        let db_s = db.to_str().unwrap();
        run(&parsed(&["ingest", f, "--wal", db_s, "--sync", "never"])).unwrap();
        // Vertex space 4 whichever way the store is built: a cold load at
        // 1 or 2 shards, the input's largest id for an incremental restart,
        // a recovered log.
        let ways: [&[&str]; 4] = [
            &[],
            &["--shards", "2"],
            &["--restart", "incremental"],
            &["--shards", "2", "--churn-every", "2"],
        ];
        for root in [u32::MAX.to_string(), "4".to_string()] {
            let refused = format!("option --root: {root} is outside the graph (vertex space 4)");
            for cmd in ["bfs", "sssp"] {
                for way in ways {
                    let e = run(&parsed(&[&[cmd, f, "--root", &root][..], way].concat()));
                    assert_eq!(e.unwrap_err(), refused, "{cmd} {way:?}");
                }
            }
            let e = run(&parsed(&["recover", db_s, "--root", &root])).unwrap_err();
            assert_eq!(e, refused, "recover");
        }
        run(&parsed(&["bfs", f, "--root", "3", "--shards", "2"])).unwrap();
        run(&parsed(&["sssp", f, "--root", "3", "--restart", "incremental"])).unwrap();
        run(&parsed(&["recover", db_s, "--root", "3"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_refuses_a_path_that_is_not_a_directory() {
        let dir = std::env::temp_dir().join("gtinker_cli_recover_missing");
        let _ = std::fs::remove_dir_all(&dir);
        let e = run(&parsed(&["recover", dir.to_str().unwrap(), "--root", "1"])).unwrap_err();
        assert!(e.contains("is not a directory"), "got: {e}");
        assert!(!dir.exists(), "a read-only recover creates nothing");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.txt");
        std::fs::write(&file, "0 1\n").unwrap();
        let e = run(&parsed(&["recover", file.to_str().unwrap()])).unwrap_err();
        assert!(e.contains("is not a directory"), "got: {e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_formats_and_recovered_store() {
        let dir = std::env::temp_dir().join("gtinker_cli_statsfmt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.txt");
        std::fs::write(&file, "0 1\n0 2\n1 2\n2 3\n").unwrap();
        let file_s = file.to_str().unwrap();
        // All three formats over a file load.
        run(&parsed(&["stats", file_s])).unwrap();
        run(&parsed(&["stats", file_s, "--format", "json"])).unwrap();
        run(&parsed(&["stats", file_s, "--format", "prom"])).unwrap();
        let e = run(&parsed(&["stats", file_s, "--format", "xml"])).unwrap_err();
        assert!(e.contains("--format"));
        // And over a recovered WAL directory.
        let db = dir.join("db");
        let db_s = db.to_str().unwrap();
        run(&parsed(&["ingest", file_s, "--wal", db_s, "--sync", "never", "--stats"])).unwrap();
        run(&parsed(&["stats", db_s, "--format", "json"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_json_shape() {
        let mut g = GraphTinker::with_defaults();
        g.apply_batch(&EdgeBatch::inserts(&[Edge::unit(0, 1), Edge::unit(0, 2)]));
        let snap = gtinker_core::metrics::global().snapshot();
        let s = stats_json(&g, "some/in\"put\\\t\n\u{1}.txt", false, &snap);
        assert!(s.starts_with("{\n") && s.ends_with('}'));
        assert!(s.contains(r#"  "input": "some/in\"put\\\t\n\u0001.txt","#), "{s}");
        assert!(s.contains("\"live_edges\": 2"));
        assert!(s.contains("\"recovered\": false"));
        assert!(s.contains("\"metrics\": {"));
        assert!(s.contains("\"rhh_probe\""));
    }

    #[test]
    fn sync_policy_parsing() {
        assert_eq!(sync_policy(&parsed(&["ingest", "f"])).unwrap(), SyncPolicy::EveryRecord);
        assert_eq!(
            sync_policy(&parsed(&["ingest", "f", "--sync", "never"])).unwrap(),
            SyncPolicy::Never
        );
        assert_eq!(
            sync_policy(&parsed(&["ingest", "f", "--sync", "8"])).unwrap(),
            SyncPolicy::EveryN(8)
        );
        assert!(sync_policy(&parsed(&["ingest", "f", "--sync", "sometimes"])).is_err());
    }

    #[test]
    fn end_to_end_ingest_snapshot_recover() {
        let dir = std::env::temp_dir().join("gtinker_cli_persist");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.txt");
        let file_s = file.to_str().unwrap();
        let db = dir.join("db");
        let db_s = db.to_str().unwrap();
        run(&parsed(&[
            "generate",
            "--rmat-scale",
            "8",
            "--edges",
            "1200",
            "--seed",
            "9",
            "--out",
            file_s,
        ]))
        .unwrap();
        run(&parsed(&[
            "ingest",
            file_s,
            "--wal",
            db_s,
            "--batch",
            "300",
            "--sync",
            "never",
            "--snapshot-every",
            "2",
        ]))
        .unwrap();
        run(&parsed(&["recover", db_s, "--root", "0", "--validate"])).unwrap();
        // A direct snapshot of the same input.
        let sd = dir.join("snaps");
        let sd_s = sd.to_str().unwrap();
        run(&parsed(&["snapshot", file_s, "--dir", sd_s])).unwrap();
        run(&parsed(&["recover", sd_s])).unwrap();
        assert!(run(&parsed(&["ingest", file_s])).unwrap_err().contains("--wal"));
        assert!(run(&parsed(&["snapshot", file_s])).unwrap_err().contains("--dir"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_pooled_ingest_writes_chrome_json() {
        // The trace command toggles the process-global trace flag and
        // clears the rings; serialize against serve tests that do too.
        let _g = crate::serve::OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("gtinker_cli_trace");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.txt");
        let mut edges = String::new();
        for i in 0u32..800 {
            edges.push_str(&format!("{} {}\n", i % 97, (i * 7) % 101));
        }
        std::fs::write(&file, edges).unwrap();
        let file_s = file.to_str().unwrap();
        let db = dir.join("db");
        let out = dir.join("timeline.json");
        run(&parsed(&[
            "trace",
            file_s,
            "--wal",
            db.to_str().unwrap(),
            "--batch",
            "100",
            "--sync",
            "never",
            "--pool",
            "2",
            "--pipeline",
            "--analytics",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.starts_with("{\"displayTimeUnit\""), "not chrome trace JSON");
        assert!(json.contains("\"traceEvents\":["));
        // Driver-side chunk reads and WAL appends and worker-side applies
        // share the file, each worker on its own named track.
        assert!(json.contains("\"ingest_parse\""), "missing ingest_parse events");
        assert!(json.contains("\"wal_append\""), "missing wal_append events");
        assert!(json.contains("\"pool_apply\""), "missing pool_apply events");
        assert!(json.contains("\"engine_process\""), "missing traced analytics");
        assert!(json.contains("\"name\":\"gtinker-shard-0\""), "missing shard track name");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_with_serve_endpoint_answers_healthz() {
        let dir = std::env::temp_dir().join("gtinker_cli_serve");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.txt");
        std::fs::write(&file, "0 1\n1 2\n2 3\n").unwrap();
        let db = dir.join("db");
        // Bad address is rejected before any ingest work happens.
        let e = run(&parsed(&[
            "ingest",
            file.to_str().unwrap(),
            "--wal",
            db.to_str().unwrap(),
            "--sync",
            "never",
            "--serve",
            "256.0.0.1:bad",
        ]))
        .unwrap_err();
        assert!(e.contains("bind"), "got: {e}");
        // A good ephemeral address serves for the (short) ingest lifetime.
        run(&parsed(&[
            "ingest",
            file.to_str().unwrap(),
            "--wal",
            db.to_str().unwrap(),
            "--sync",
            "never",
            "--serve",
            "127.0.0.1:0",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The ingest shapes: one shard, two, and three with the inert flag.
    const INGEST_MODES: [&[&str]; 3] = [&[], &["--pool", "2"], &["--pool", "3", "--pipeline"]];

    /// `ingest FILE --wal DB --batch 100` plus `rest`.
    fn ingest_100(file: &Path, db: &Path, rest: &[&[&str]]) -> Parsed {
        let head = ["ingest", file.to_str().unwrap(), "--wal", db.to_str().unwrap()];
        parsed(&[&head[..], &["--batch", "100"], &rest.concat()].concat())
    }

    #[test]
    fn ingest_streams_a_messy_file_to_the_same_store_as_its_clean_twin() {
        let dir = std::env::temp_dir().join("gtinker_cli_stream");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (clean, messy) = (dir.join("clean.txt"), dir.join("messy.txt"));
        let (mut clean_text, mut messy_text) = (String::new(), String::from("# header\r\n\r\n"));
        for i in 0u32..950 {
            let (s, d, w) = (i % 89, (i * 7) % 97, i % 5 + 1);
            clean_text.push_str(&format!("{s} {d} {w}\n"));
            messy_text.push_str(&format!(" {s}\t{d}  {w} \r\n"));
            if i % 100 == 0 {
                messy_text.push_str("# note\n\n");
            }
        }
        std::fs::write(&clean, clean_text).unwrap();
        std::fs::write(&messy, messy_text.trim_end()).unwrap();
        let want = gtinker_datasets::stream::distinct_edge_count(
            &io::read_edge_list(&clean).expect("clean file parses"),
        );
        for (m, mode) in INGEST_MODES.iter().enumerate() {
            for (f, file) in [&clean, &messy].into_iter().enumerate() {
                let db = dir.join(format!("db_{m}_{f}"));
                run(&ingest_100(file, &db, &[&["--sync", "never"], mode])).unwrap();
                let (g, report) = recover_tinker(&db, TinkerConfig::default()).unwrap();
                assert_eq!(report.replayed_records, 10, "950 edges in batches of 100");
                assert_eq!(g.num_edges(), want, "mode {mode:?}, file {f}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_parse_error_names_the_line_after_logging_what_preceded_it() {
        let dir = std::env::temp_dir().join("gtinker_cli_badline");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("g.txt");
        let mut text = String::new();
        for i in 0u32..250 {
            text.push_str(&format!("{i} {}\n", i + 1));
        }
        text.push_str("250 oops\n251 252\n");
        std::fs::write(&file, text).unwrap();
        for (m, mode) in INGEST_MODES.iter().enumerate() {
            let db = dir.join(format!("db_{m}"));
            let e = run(&ingest_100(&file, &db, &[&["--sync", "8"], mode])).unwrap_err();
            assert!(e.contains("line 251"), "mode {mode:?}: {e}");
            assert!(e.contains("200 edges in 2 batches"), "mode {mode:?}: {e}");
            // Whole batches before the bad line are durable and replay into
            // a valid store; the partial one was never logged.
            run(&parsed(&["recover", db.to_str().unwrap(), "--validate"])).unwrap();
            let (g, report) = recover_tinker(&db, TinkerConfig::default()).unwrap();
            assert_eq!((report.replayed_records, g.num_edges()), (2, 200), "mode {mode:?}");
        }
        // With --serve the listener is already up when the line is met; the
        // command still fails (and stops serving) instead of holding.
        let db = dir.join("db_serve");
        let serve = ["--sync", "never", "--serve", "127.0.0.1:0", "--hold"];
        let e = run(&ingest_100(&file, &db, &[&serve])).unwrap_err();
        assert!(e.contains("line 251"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_and_pooled_ingest_recover() {
        let dir = std::env::temp_dir().join("gtinker_cli_pipeline");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // One stream in three files, ingested into one directory by three
        // runs of different shapes: each resumes what the last one left.
        let edges = RmatConfig::graph500(8, 1200, 11).generate();
        let parts: Vec<_> = (0..3).map(|i| dir.join(format!("g{i}.txt"))).collect();
        for (part, chunk) in parts.iter().zip(edges.chunks(400)) {
            io::write_edge_list(part, chunk).unwrap();
        }
        let db = dir.join("db");
        let pooled: [&[&str]; 2] = [&["--pool", "2", "--snapshot-every", "1"], &["--sync", "4"]];
        run(&ingest_100(&parts[0], &db, &pooled)).unwrap();
        assert!(!gtinker_persist::list_snapshots(&db).unwrap().is_empty());
        let resumed: [&[&str]; 2] = [&["--pool", "3", "--final-snapshot"], &["--sync", "never"]];
        run(&ingest_100(&parts[1], &db, &resumed)).unwrap();
        let serving: [&[&str]; 1] = [&["--serve", "127.0.0.1:0", "--sync", "never"]];
        run(&ingest_100(&parts[2], &db, &serving)).unwrap();
        run(&parsed(&["recover", db.to_str().unwrap(), "--root", "0", "--validate"])).unwrap();
        let (g, report) = recover_tinker(&db, TinkerConfig::default()).unwrap();
        assert_eq!(report.snapshot_lsn, 8, "the second run's final snapshot");
        assert_eq!(report.next_lsn, 12, "three runs of four batches each");
        assert_eq!(g.num_edges(), gtinker_datasets::stream::distinct_edge_count(&edges));
        std::fs::remove_dir_all(&dir).ok();
    }
}
