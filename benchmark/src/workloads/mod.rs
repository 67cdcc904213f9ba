//! The three workloads. Each builds its inputs from the seed
//! [`SETUPS`](crate::catalog::SETUPS) times (`setup_s` is the median), then
//! repeats its measured work on those inputs and reports every timing by
//! its fastest repetition; see [`stats::fastest`].

mod durable_ingest;
mod lib_churn;
mod serve_mixed;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gtinker_types::Edge;

use crate::catalog::{CLI_EDGES, CLI_SCALE, RUN_SECONDS, SETUPS};
use crate::input::{self, Model, QUERY_SOURCES};
use crate::rng::{mix, Rng};
use crate::serve::{ReadPlan, ReadResult};
use crate::spans::Tracer;
use crate::stats::{self, median};
use crate::{Ctx, Report, Tally};

pub fn run(name: &str, ctx: &Ctx, tr: &mut Tracer) -> Result<Report, String> {
    match name {
        "lib_churn" => lib_churn::run(ctx, tr),
        "durable_ingest" => durable_ingest::run(ctx, tr),
        "serve_mixed" => serve_mixed::run(ctx, tr),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Repetitions of a workload that makes `at_run_seconds` of them in a run
/// of the catalogued length: in proportion to `--seconds`, never fewer
/// than three.
pub fn reps(ctx: &Ctx, at_run_seconds: usize) -> usize {
    ((ctx.seconds / RUN_SECONDS as f64 * at_run_seconds as f64).round() as usize).max(3)
}

/// Point-read targets drawn per repetition (cycled if a run needs more).
const READ_TARGETS: usize = 8192;

/// A run's input for the CLI workloads: the edge file on disk, the
/// reference model and the read plan.
pub struct CliInput {
    pub file: PathBuf,
    pub edges: Vec<Edge>,
    pub model: Model,
    pub vertices: Vec<u32>,
    /// BFS sources with the final graph's `reached` for each.
    pub sources: Vec<(u32, u64)>,
}

impl CliInput {
    /// Generates, writes and models the input of run seed `ctx.seed`.
    pub fn make(ctx: &Ctx, workload: &str) -> Result<CliInput, String> {
        let edges = input::rmat(CLI_SCALE, CLI_EDGES, ctx.seed);
        let file = ctx.out_dir.join("data").join(format!("{workload}.txt"));
        input::write_edge_file(&file, &edges)?;
        let model = Model::build(CLI_SCALE, &edges);
        let mut rng = Rng::new(mix(ctx.seed, 1));
        let vertices = input::sample_vertices(&edges, CLI_SCALE, READ_TARGETS, &mut rng);
        let sources =
            input::query_sources(&edges).into_iter().map(|s| (s, model.bfs_reached(s))).collect();
        Ok(CliInput { file, edges, model, vertices, sources })
    }

    pub fn file_arg(&self) -> &str {
        self.file.to_str().expect("benchmark paths are UTF-8")
    }

    pub fn plan(&self) -> ReadPlan<'_> {
        ReadPlan { model: &self.model, vertices: &self.vertices, sources: &self.sources }
    }
}

/// A fresh, empty WAL directory for repetition `rep`.
pub fn fresh_wal_dir(ctx: &Ctx, workload: &str, rep: usize) -> Result<PathBuf, String> {
    let dir = ctx.out_dir.join("data").join(format!("{workload}-{rep}.wal"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Ok(dir)
}

/// Deletes a generated file or a WAL directory once it has been used.
pub fn remove(path: &Path) -> Result<(), String> {
    let gone =
        if path.is_dir() { std::fs::remove_dir_all(path) } else { std::fs::remove_file(path) };
    gone.map_err(|e| format!("{}: {e}", path.display()))
}

/// Total size of the files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// The number before ` {word}` in a `gtinker` status line, e.g. `live` in
/// `... 1964136 live, next lsn 200`.
pub fn number_before(line: &str, word: &str) -> Option<u64> {
    let head = line.split_once(&format!(" {word}"))?.0;
    head.rsplit(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// Sets one metric per `(name, percentile)` from pooled samples, warning
/// when the count does not carry a percentile by the ten-beyond rule.
pub fn set_percentiles(report: &mut Report, mut samples: Vec<f64>, named: &[(&'static str, f64)]) {
    if samples.is_empty() {
        return;
    }
    stats::sort(&mut samples);
    for &(name, p) in named {
        if !stats::carries(samples.len(), p) {
            eprintln!("warning: {name}: {} samples do not carry p{p}", samples.len());
        }
        report.set(name, stats::percentile(&samples, p), samples.len());
    }
}

/// What the repetitions of a CLI workload collect, and the metrics all
/// three derive from it in the same way.
#[derive(Default)]
pub struct CliReps {
    /// The reads ran on a store nobody wrote to, cycling the BFS sources:
    /// a query is then reported by the fastest answer for its source.
    pub quiescent: bool,
    setups: Vec<Duration>,
    wrote: Vec<Duration>,
    ready: Vec<Duration>,
    bytes_per_edge: Vec<f64>,
    peak_mb: Vec<f64>,
    log_bytes_per_edge: Vec<f64>,
    pub reads: ReadResult,
    pub tally: Tally,
}

impl CliReps {
    /// Builds the run's input [`SETUPS`] times, booking each set-up time;
    /// every build of one seed is the same input.
    pub fn input(&mut self, ctx: &Ctx, workload: &str) -> Result<CliInput, String> {
        let mut input = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            input = Some(CliInput::make(ctx, workload)?);
            self.setups.push(t.elapsed());
        }
        Ok(input.expect("SETUPS is at least one"))
    }

    /// The whole edge file became queryable (or durable) in `took`.
    pub fn wrote(&mut self, took: Duration) {
        self.wrote.push(took);
    }

    pub fn ready(&mut self, took: Duration) {
        self.ready.push(took);
    }

    /// Peak resident memory of the child holding `live` edges.
    pub fn resident(&mut self, rss_bytes: u64, live: u64) {
        self.bytes_per_edge.push(rss_bytes as f64 / live.max(1) as f64);
        self.peak_mb.push(rss_bytes as f64 / 1e6);
    }

    pub fn logged(&mut self, wal_dir: &Path) {
        self.log_bytes_per_edge.push(dir_bytes(wal_dir) as f64 / CLI_EDGES as f64);
    }

    /// The fastest repetition for the whole-process timings, the median
    /// for set-up and memory, percentiles over the pooled reads.
    pub fn into_report(mut self, mut report: Report, traced: bool) -> Report {
        let n = self.wrote.len();
        self.tally.add(self.reads.tally);
        report.tally = self.tally;
        report.set("setup_s", median(secs(&self.setups)), self.setups.len());
        report.set("write_meps", CLI_EDGES as f64 / stats::least(&secs(&self.wrote)) / 1e6, n);
        report.set("ready_s", stats::least(&secs(&self.ready)), self.ready.len());
        report.set("bytes_per_edge", median(self.bytes_per_edge), n);
        let points = [("point_read_p50_ms", 50.0), ("point_read_p90_ms", 90.0)];
        set_percentiles(&mut report, self.reads.point_ms, &points);
        let query_ms = self.reads.query_ms;
        if traced {
            set_percentiles(&mut report, query_ms.clone(), &[("cli.serve.query_ms_p90", 90.0)]);
        }
        if self.quiescent && !query_ms.is_empty() {
            // One repetition per cycle through the sources; the median is
            // over the sources, each by its fastest answer.
            let cycles: Vec<Vec<f64>> =
                query_ms.chunks(QUERY_SOURCES).map(<[f64]>::to_vec).collect();
            report.set("query_p50_ms", median(stats::fastest(&cycles)), query_ms.len());
        } else {
            set_percentiles(&mut report, query_ms, &[("query_p50_ms", 50.0)]);
        }
        if traced {
            let connects = self.reads.connect_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
            set_percentiles(&mut report, connects, &[("cli.serve.connect_us_p50", 50.0)]);
            report.set("cli.serve.reconnects", self.reads.reconnects as f64, 0);
            report.set("cli.commands.ready_s", median(secs(&self.ready)), n);
            report.set("cli.peak_rss_mb", median(self.peak_mb), n);
            if !self.log_bytes_per_edge.is_empty() {
                report.set("persist.wal.dir_bytes_per_edge", median(self.log_bytes_per_edge), n);
            }
        }
        report
    }
}

pub fn secs(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(Duration::as_secs_f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_counts_out_of_status_lines() {
        let ingest = "ingested 2000000 edges in 200 batches across 2 shards (pipelined) in 1.21s \
                      (1.651 Medges/s durable), 1964136 live, next lsn 200";
        assert_eq!(number_before(ingest, "live"), Some(1_964_136));
        assert_eq!(number_before(ingest, "edges"), Some(2_000_000));
        let recover = "recovered GraphTinker: 978074 edges, 95301 sources, snapshot lsn 0";
        assert_eq!(number_before(recover, "edges"), Some(978_074));
        assert_eq!(number_before(recover, "live"), None);
    }
}
