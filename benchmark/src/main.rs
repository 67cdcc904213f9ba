//! The repo's benchmark. One run measures one workload for `--seconds`
//! seconds on inputs made from `--seed`, checks the outputs, and prints
//! the metrics; the last stdout line is the machine-readable result.
//! See README.md for the workloads, the metrics and what may be called.

mod catalog;
mod child;
mod http;
mod input;
mod loadgen;
mod rng;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use catalog::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use spans::Tracer;

/// Operations attempted and failed: a failed one is a request that did not
/// answer 200, did not parse, or answered wrongly, or an output check that
/// did not hold.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Counts one output check.
    pub fn check(&mut self, holds: bool, what: &str) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// What one run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `gtinker` built from the commit under test.
    pub gtinker: PathBuf,
    /// Scratch and result files (`benchmark/out`, git-ignored).
    pub out_dir: PathBuf,
}

/// What one run measured. Metrics missing from a map print as 0: a
/// workload that bypasses a layer has nothing to report for it.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each timing metric.
    pub samples: BTreeMap<&'static str, usize>,
    pub tally: Tally,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, value);
        self.samples.insert(name, samples);
    }
}

/// The command line: what to run, and the run's parameters.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
}

const USAGE: &str = "usage: gtinker-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--check-repeat] | --print-benchmark-json\n\
                     Without --workload every workload runs in turn.";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        check_repeat: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
        return Err("--seconds must be within 1..=60".into());
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|k| k.name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|k| k.name).collect();
            return Err(format!("unknown workload '{w}' (one of {})", names.join(", ")));
        }
    }
    Ok(args)
}

/// Builds `gtinker` from the checkout the benchmark runs in (untimed) and
/// returns the binary. Cargo decides whether anything needs rebuilding.
fn build_gtinker() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "-p", "gtinker-cli"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building gtinker failed ({status}); run from the repo root"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("gtinker");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is missing after the build", bin.display()))
    }
}

/// Where the numbers came from, echoed in every result file.
fn environment() -> String {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"cores\":{},\"git\":\"{}\",\"rustc\":\"{}\",\"cli_graph\":\"rmat{}x{}\",\
         \"lib_graph\":\"rmat{}x{}\",\"box\":\"shared 2-core guest, ext4 on a virtio disk\"}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        run("git", &["rev-parse", "--short", "HEAD"]),
        run("rustc", &["--version"]),
        catalog::CLI_SCALE,
        catalog::CLI_EDGES,
        catalog::LIB_SCALE,
        catalog::LIB_EDGES,
    )
}

/// The contract's result object for the metric set this run reports.
fn result_json(report: &Report, set: &[Metric]) -> String {
    let metrics: Vec<String> = set
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a ratio over nothing reads 0.
            let v = report.metrics.get(m.name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted.max(1),
        report.tally.failed,
        metrics.join(", ")
    )
}

fn print_table(workload: &str, report: &Report, set: &[Metric]) {
    println!("# {workload}");
    for m in set {
        let v = report.metrics.get(m.name).copied().unwrap_or(0.0);
        let n = report.samples.get(m.name).copied().unwrap_or(0);
        let better = if m.higher_is_better { "higher" } else { "lower" };
        println!("{:<34} {v:>14.4} {:<7} ({better} is better, n={n})", m.name, m.unit);
    }
    let t = report.tally;
    println!(
        "{:<34} {:>14.6} ratio   ({} failed of {} attempted)",
        "failed_share",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
}

/// Where the traced time went: per span name, calls and self time (the
/// span's duration minus what its direct children cover).
fn print_self_times(tracer: &Tracer) {
    let total = tracer.top_level_ns().max(1) as f64;
    println!("# self time by span ({:.3} s traced)", total / 1e9);
    for (name, (self_ns, calls)) in tracer.self_times() {
        let share = self_ns as f64 / total * 100.0;
        println!("{name:<34} {:>14.3} ms      ({calls} calls, {share:.1} %)", self_ns as f64 / 1e6);
    }
}

/// The metrics a run reports: per-layer when traced, end-to-end otherwise.
fn metric_set(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Runs one workload, writes its result (and span) files, prints its table.
fn run_workload(name: &str, ctx: &Ctx, env: &str) -> Result<Report, String> {
    let write = |file: String, body: String| {
        let path = ctx.out_dir.join(file);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut tracer = Tracer::new(ctx.trace, Instant::now());
    let mut report = workloads::run(name, ctx, &mut tracer)?;
    let set = metric_set(ctx.trace);
    if ctx.trace {
        report.set("trace.spans", tracer.spans().len() as f64, 0);
        write(format!("trace-{name}.json"), tracer.to_json())?;
    }
    print_table(name, &report, set);
    if ctx.trace {
        print_self_times(&tracer);
    }
    let kind = if ctx.trace { "traced" } else { "e2e" };
    let body = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"environment\":{env},\"result\":{}}}\n",
        ctx.seed,
        ctx.seconds,
        result_json(&report, set)
    );
    write(format!("result-{name}-{kind}-seed{}.json", ctx.seed), body)?;
    Ok(report)
}

/// Runs the whole set twice on the same seed and prints, per metric and
/// workload, how far the two runs lie apart beside the metric's bound.
fn check_repeat(ctx: &Ctx, env: &str) -> Result<bool, String> {
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for w in &WORKLOADS {
            set.push(run_workload(w.name, ctx, env)?);
        }
        runs.push(set);
    }
    let mut within = true;
    println!("# check-repeat: |second - first| / first, beside the bound");
    for (i, w) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let a = runs[0][i].metrics.get(m.name).copied().unwrap_or(0.0);
            let b = runs[1][i].metrics.get(m.name).copied().unwrap_or(0.0);
            let diff = if a == 0.0 { f64::INFINITY } else { (b - a).abs() / a };
            let ok = diff <= m.bound;
            within &= ok;
            println!(
                "{:<16} {:<20} {a:>12.4} {b:>12.4} {:>7.2}% bound {:>5.1}% {}",
                w.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
        let failed = runs[0][i].tally.failed + runs[1][i].tally.failed;
        within &= failed == 0;
        println!("{:<16} {:<20} {failed} failed operations", w.name, "failed");
    }
    Ok(within)
}

fn real_main() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--print-benchmark-json") {
        print!("{}", catalog::benchmark_json());
        return Ok(true);
    }
    let args = parse_args(&raw).map_err(|e| format!("{e}\n{USAGE}"))?;
    let out_dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(out_dir.join("data")).map_err(|e| format!("benchmark/out: {e}"))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        gtinker: build_gtinker()?,
        out_dir,
    };
    let env = environment();
    if args.check_repeat {
        return check_repeat(&ctx, &env);
    }
    match &args.workload {
        Some(name) => {
            let report = run_workload(name, &ctx, &env)?;
            println!("{}", result_json(&report, metric_set(ctx.trace)));
        }
        None => {
            for w in &WORKLOADS {
                run_workload(w.name, &ctx, &env)?;
            }
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
