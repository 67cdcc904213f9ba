//! The benchmark's contract in one place: workloads, metrics, bounds and
//! sizes. `BENCHMARK.json` at the repo root is rendered from these tables
//! (`--print-benchmark-json`; a unit test keeps the file in step).

/// Run length the tables are sized for, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 30;

/// Times a run builds its inputs from the seed; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// How often a run repeats its measured work on those same inputs, at
/// [`RUN_SECONDS`] (scaled with `--seconds`, never below three). Every
/// timing is the fastest of these repetitions, step by step where the
/// steps can be seen (`lib_churn`), as a whole where the work is a
/// subprocess: what interference from the shared host adds to one
/// repetition, another passes undisturbed.
pub const LIB_PASSES: usize = 12;
pub const DURABLE_REPS: usize = 7;
pub const MIXED_REPS: usize = 10;

/// Churn batches in one `lib_churn` pass.
pub const LIB_STEPS: usize = 100;

/// What a point-read client waits between an answer and its next
/// request. Point reads are a closed loop paced by this think time, not an
/// open loop at a fixed rate, because of how the seed server answers a
/// kept-alive connection: it writes header and body separately without
/// TCP_NODELAY, so once requests follow answers by less than the kernel's
/// 40 ms delayed-ACK timeout every body waits ~44 ms for an ACK, and a
/// connection sustains ~22 requests/s at most. An open loop above that only
/// measures a backlog; one far below it (10 requests/s) times mostly the
/// wake-up of two idle cores (0.45-1.1 ms from run to run for 0.1 ms of
/// work); in between, a connection flips between the two states by chance.
/// With a 10 ms think time every connection is in the stalled state from
/// its second request on, whatever the box does, and once the server is
/// fixed the load stays bounded at 100 requests/s per connection.
pub const THINK: std::time::Duration = std::time::Duration::from_millis(10);

/// RMAT scale and edge count of the file the CLI workloads ingest/serve.
pub const CLI_SCALE: u32 = 19;
pub const CLI_EDGES: u64 = 2_000_000;

/// RMAT scale and edge count of the in-process (`lib_churn`) base graph.
pub const LIB_SCALE: u32 = 18;
pub const LIB_EDGES: u64 = 1_000_000;

/// Ops per update batch, everywhere.
pub const BATCH: usize = 10_000;

/// Flags every `gtinker ingest` of the benchmark runs with.
pub const INGEST_FLAGS: [&str; 9] =
    ["--batch", "10000", "--sync", "8", "--pool", "2", "--pipeline", "--workers", "2"];

/// Flags every `gtinker serve` of the benchmark runs with.
pub const SERVE_FLAGS: [&str; 4] = ["--shards", "2", "--workers", "2"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "lib_churn",
        why: "In-process GraphTinker: load RMAT-18 1M edges, then 100 10k-op 50/50 delete/insert \
              batches with incremental BFS; core+engine do all the work, WAL/pool/epoch/HTTP none.",
    },
    Workload {
        name: "durable_ingest",
        why: "gtinker ingest RMAT-19 2M --wal (batch 10000, sync 8, pool 2, pipeline), no --serve, then \
              recover, serve the log and read it back: parse+WAL+pool, no epoch views; control for serve_mixed.",
    },
    Workload {
        name: "serve_mixed",
        why: "Same ingest with --serve --hold while paced closed-loop point reads (10 ms think) and \
              closed-loop BFS hit it: epoch double-apply and pin-time fold contend with WAL, pool and HTTP.",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median a later change may lose (end-to-end
    /// metrics only; per-layer metrics carry no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric { name, unit, higher_is_better: higher, bound }
}

/// What a user of the system sees. Every workload reports every one of
/// them; README.md says what each means on each workload.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("write_meps", "Mops/s", true, 0.25),
    e2e("ready_s", "s", false, 0.25),
    e2e("point_read_p90_ms", "ms", false, 0.25),
    e2e("query_p50_ms", "ms", false, 0.25),
    e2e("bytes_per_edge", "B", false, 0.05),
];

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric { name, unit, higher_is_better: higher, bound: 0.0 }
}

/// Single-layer metrics from the traced run; a workload that bypasses a
/// layer reports 0 for it. README.md lists which end-to-end metric each
/// should move, and on which workload.
pub const PER_LAYER: [Metric; 62] = [
    layer("datasets.io.parse_s", "s", false),
    layer("datasets.io.parse_meps", "Mops/s", true),
    layer("core.sgh.insert_ns_per_key", "ns", false),
    layer("core.sgh.lookup_ns_per_key", "ns", false),
    layer("core.tinker.insert_ns_per_op", "ns", false),
    layer("core.tinker.delete_ns_per_op", "ns", false),
    layer("core.tinker.find_ns_per_op", "ns", false),
    layer("core.tinker.batch_ms_p90", "ms", false),
    layer("core.tinker.cells_per_op", "count", false),
    layer("core.tinker.tag_scans_per_op", "count", false),
    layer("core.tinker.tag_fp_share", "ratio", false),
    layer("core.tinker.branches_per_kop", "count", false),
    layer("core.tinker.max_depth", "count", false),
    layer("core.tinker.tombstone_share", "ratio", false),
    layer("core.tinker.occupancy", "ratio", true),
    layer("core.tinker.overflow_block_share", "ratio", false),
    layer("core.cal.stream_ns_per_edge", "ns", false),
    layer("core.cal.invalid_share", "ratio", false),
    layer("core.pool.apply_ns_per_op", "ns", false),
    layer("core.pool.pipeline_ns_per_op", "ns", false),
    layer("core.pool.vs_single", "ratio", false),
    layer("core.pool.settle_waits", "count", false),
    layer("core.pool.claims_per_batch", "count", false),
    layer("core.epoch.write_overhead", "ratio", false),
    layer("core.epoch.plain_ns_per_op", "ns", false),
    layer("core.epoch.views_ns_per_op", "ns", false),
    layer("core.epoch.pin_us_p50", "us", false),
    layer("core.epoch.pin_us_p90", "us", false),
    layer("core.epoch.fold_batches_per_pin", "count", false),
    layer("core.epoch.backlog_depth_max", "count", false),
    layer("persist.wal.append_ns_per_op", "ns", false),
    layer("persist.wal.sync_ms_p50", "ms", false),
    layer("persist.wal.syncs", "count", false),
    layer("persist.wal.bytes_per_op", "B", false),
    layer("persist.wal.dir_bytes_per_edge", "B", false),
    layer("persist.recover.replay_s", "s", false),
    layer("persist.recover.replay_meps", "Mops/s", true),
    layer("engine.bfs_full_ms", "ms", false),
    layer("engine.bfs_medges_per_s", "Mops/s", true),
    layer("engine.bfs_iterations", "count", false),
    layer("engine.dynamic.repair_ms_p50", "ms", false),
    layer("engine.dynamic.repair_ms_p90", "ms", false),
    layer("engine.dynamic.cold_ms_p50", "ms", false),
    layer("engine.dynamic.refresh_ms_p90", "ms", false),
    layer("engine.dynamic.repair_invalidated", "count", false),
    layer("engine.dynamic.delete_fallbacks", "count", false),
    layer("cli.serve.healthz_us_p50", "us", false),
    layer("cli.serve.degree_us_p50", "us", false),
    layer("cli.serve.neighbors_us_p50", "us", false),
    layer("cli.serve.connect_us_p50", "us", false),
    layer("cli.serve.reconnects", "count", false),
    layer("cli.serve.wire_us_mean", "us", false),
    layer("cli.serve.late_share", "ratio", false),
    layer("cli.serve.max_rps", "1/s", true),
    layer("point_read_p50_ms", "ms", false),
    layer("cli.serve.query_ms_p90", "ms", false),
    layer("cli.serve.engine_us_mean", "us", false),
    layer("cli.commands.ready_s", "s", false),
    layer("cli.peak_rss_mb", "MB", false),
    layer("trace.coverage_share", "ratio", true),
    layer("trace.overhead_share", "ratio", false),
    layer("trace.spans", "count", false),
];

fn metric_json(m: &Metric, with_bound: bool) -> String {
    let better = if m.higher_is_better { "higher" } else { "lower" };
    let bound = if with_bound { format!(", \"bound\": {}", m.bound) } else { String::new() };
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
        m.name, m.unit
    )
}

/// The exact text of the repo-root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(|m| metric_json(m, true)).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|m| metric_json(m, false)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_stay_within_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s present");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn the_committed_benchmark_json_is_rendered_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "rerun --print-benchmark-json > BENCHMARK.json");
        assert!(on_disk.len() <= 64 << 10);
    }
}
