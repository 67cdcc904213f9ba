//! Overhead of the three observability layers on the ingest hot path (no
//! paper counterpart; acceptance gate for each layer): ingest throughput
//! with the layer collecting vs runtime-disabled, one experiment per
//! [`Layer`] the way Figs. 11-13 are one experiment per algorithm.
//!
//! * **metrics** — the metric registry ([`metrics::set_enabled`]), gated
//!   on the sequential single-store path, where every insert crosses the
//!   RHH/SGH/tinker hooks; the pooled 4-shard path (pool queue/claim
//!   hooks) is reported beside it.
//! * **trace** — span collection ([`trace::set_enabled`]), gated on the
//!   pooled path: every batch crosses the dispatch instant plus a claim
//!   and an apply span *per shard worker*, the highest span rate the
//!   pipeline produces. A third configuration runs with metrics off too.
//! * **log** — the pool's per-batch dispatch record (`msg="batch
//!   dispatched" seq=.. ops=..`), the densest record the ingest path
//!   produces, at `debug` level into the in-memory capture sink (so the
//!   measurement covers level check, formatting and sink handoff without
//!   timing a terminal) vs level `off`, which reduces every site to one
//!   relaxed atomic load.
//!
//! All three layers are gated at run time only; `gtinker-core` has no
//! cargo features. Each layer's batch size is chosen so its hooks fire
//! often relative to the work they bracket. Trials interleave the
//! configurations so allocator warm-up and frequency drift do not bias
//! one side; metrics and trace compare the best of each side, log — whose
//! bar is checked in CI on a box where five pool threads share a core —
//! the **median per-pair overhead**, which a single slow trial cannot
//! move, alternating which side of a pair goes first.
//!
//! The gated path's overhead is the `overhead_pct` fact (acceptance: < 5 %),
//! and each run carries proof that the enabled side actually recorded
//! (`samples_recorded` / `events_recorded` / `lines_captured` nonzero).

use std::time::Instant;

use gtinker_core::{log, metrics, trace, ApplyBatch, GraphTinker, ParallelTinker};
use gtinker_types::{EdgeBatch, TinkerConfig};

use crate::cli::Args;
use crate::experiments::common::hollywood;
use crate::report::{f3, meps, Table};

/// Shard count for the pooled path (matches the acceptance workload).
const SHARDS: usize = 4;

/// The observability layer under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Hot-path metric hooks.
    Metrics,
    /// Span tracing.
    Trace,
    /// Structured logging.
    Log,
}

/// One layer's constants.
struct Spec {
    /// Table (and registry) name.
    name: &'static str,
    /// What the caption says is compared.
    what: &'static str,
    /// Operations per ingest batch: small enough that the layer's hooks
    /// fire often relative to the work they bracket.
    ops_per_batch: usize,
    /// Interleaved trials per configuration.
    reps: usize,
    /// Measured paths as `(row name, fact prefix, pooled)`, the gated one
    /// first.
    paths: &'static [(&'static str, &'static str, bool)],
    /// Name of the fact proving the enabled side recorded something.
    recorded_fact: &'static str,
}

impl Layer {
    fn spec(self) -> Spec {
        match self {
            Layer::Metrics => Spec {
                name: "fig_metrics_overhead",
                what: "Metric instrumentation overhead: Medges/s with collection on vs off",
                ops_per_batch: 10_000,
                reps: 5,
                paths: &[("sequential", "seq_", false), ("pooled4", "pooled_", true)],
                recorded_fact: "samples_recorded",
            },
            Layer::Trace => Spec {
                name: "fig_trace_overhead",
                what: "Span-tracing overhead: Medges/s with tracing on vs runtime-off vs all \
                       observability off",
                ops_per_batch: 5_000,
                reps: 5,
                paths: &[("pooled4", "pooled_", true), ("sequential", "seq_", false)],
                recorded_fact: "events_recorded",
            },
            Layer::Log => Spec {
                name: "fig_log_overhead",
                what: "Structured-log overhead: pooled 4-shard ingest Medges/s at debug level \
                       vs logger off",
                ops_per_batch: 1_000,
                reps: 15,
                paths: &[("pooled4", "", true)],
                recorded_fact: "lines_captured",
            },
        }
    }

    fn set_enabled(self, on: bool) {
        match self {
            Layer::Metrics => metrics::set_enabled(on),
            Layer::Trace => trace::set_enabled(on),
            Layer::Log => {
                log::set_max_level(on.then_some(log::Level::Debug));
                log::set_capture(on);
            }
        }
    }

    /// What the layer recorded during the enabled trial that just ended.
    fn recorded(self) -> u64 {
        match self {
            Layer::Metrics => metrics::global().rhh_probe.snapshot().count(),
            Layer::Trace => {
                let n = trace::dump().events.len() as u64;
                trace::clear();
                n
            }
            Layer::Log => log::drain_capture().len() as u64,
        }
    }

    /// Back to the process defaults: metrics on, tracing off, level warn.
    fn restore(self) {
        match self {
            Layer::Metrics => metrics::set_enabled(true),
            Layer::Trace => trace::set_enabled(false),
            Layer::Log => {
                log::set_capture(false);
                log::set_max_level(Some(log::Level::Warn));
            }
        }
    }
}

struct Sample {
    /// Best throughput with the layer collecting.
    enabled_meps: f64,
    /// Best throughput with the layer runtime-disabled.
    disabled_meps: f64,
    /// Trace only: best throughput with metrics disabled as well.
    alloff_meps: f64,
    /// Relative throughput cost of collecting, `(off - on) / off` in
    /// percent. Negative values are measurement noise (enabled ran faster).
    overhead_pct: f64,
    /// [`Layer::recorded`] after the last enabled trial.
    recorded: u64,
}

/// Median of an unsorted slice (mean of the middle two when even).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN overheads"));
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn overhead_pct(off: f64, on: f64) -> f64 {
    (off - on) / off.max(1e-9) * 100.0
}

/// Ingests all batches into the (fresh) store, returning Medges/s.
fn measure(mut store: impl ApplyBatch, batches: &[EdgeBatch], ops: u64) -> f64 {
    let t0 = Instant::now();
    for b in batches {
        store.apply(b);
    }
    meps(ops, t0.elapsed())
}

/// Runs [`Spec::reps`] interleaved (disabled, enabled) trials of one
/// measurement function — for log after one untimed warm-up, the enabled
/// side going first on odd reps so monotonic machine drift cancels within
/// each pair — and restores the process defaults.
fn sample(layer: Layer, mut measure: impl FnMut() -> f64) -> Sample {
    let mut recorded = 0;
    let mut timed = |on: bool| {
        layer.set_enabled(on);
        let meps = measure();
        if on {
            recorded = layer.recorded();
        }
        meps
    };
    if layer == Layer::Log {
        timed(false);
    }
    let (mut enabled_meps, mut disabled_meps, mut alloff_meps) = (0.0f64, 0.0f64, 0.0f64);
    let mut pairs = Vec::new();
    for rep in 0..layer.spec().reps {
        if layer == Layer::Trace {
            metrics::set_enabled(false);
            alloff_meps = alloff_meps.max(timed(false));
            metrics::set_enabled(true);
        }
        let (off, on) = if layer == Layer::Log && rep % 2 == 1 {
            let on = timed(true);
            (timed(false), on)
        } else {
            (timed(false), timed(true))
        };
        disabled_meps = disabled_meps.max(off);
        enabled_meps = enabled_meps.max(on);
        pairs.push(overhead_pct(off, on));
    }
    layer.restore();
    let overhead_pct = match layer {
        Layer::Log => median(&mut pairs),
        _ => overhead_pct(disabled_meps, enabled_meps),
    };
    Sample { enabled_meps, disabled_meps, alloff_meps, overhead_pct, recorded }
}

/// Runs one layer's overhead experiment.
pub fn run(args: &Args, layer: Layer) -> Table {
    let spec = layer.spec();
    let dataset = hollywood(args.scale_factor);
    let edges = dataset.generate();
    let batches: Vec<EdgeBatch> =
        edges.chunks(spec.ops_per_batch).map(EdgeBatch::inserts).collect();
    let ops = edges.len() as u64;

    let trials = match layer {
        Layer::Log => format!("median of {} paired trials", spec.reps),
        _ => format!("best of {} interleaved trials", spec.reps),
    };
    let mut headers = vec!["path", "enabled_meps", "disabled_meps"];
    if layer == Layer::Trace {
        headers.push("alloff_meps");
    }
    headers.push("overhead_pct");
    if layer == Layer::Log {
        headers.push("lines_captured");
    }
    let mut t = Table::new(
        spec.name,
        &format!("{} ({}, {ops} ops, {trials})", spec.what, dataset.name),
        &headers,
    );
    t.fact("ops", ops);
    t.fact("ops_per_batch", spec.ops_per_batch);
    t.fact("reps", spec.reps);
    t.fact("shards", SHARDS);

    for (i, &(path, prefix, pooled)) in spec.paths.iter().enumerate() {
        let s = sample(layer, || {
            if pooled {
                let config = TinkerConfig::default();
                measure(ParallelTinker::new(config, SHARDS).expect("parallel store"), &batches, ops)
            } else {
                measure(GraphTinker::with_defaults(), &batches, ops)
            }
        });
        let mut row = vec![path.to_string(), f3(s.enabled_meps), f3(s.disabled_meps)];
        t.fact(&format!("{prefix}enabled_meps"), s.enabled_meps);
        t.fact(&format!("{prefix}disabled_meps"), s.disabled_meps);
        if layer == Layer::Trace {
            row.push(f3(s.alloff_meps));
            t.fact(&format!("{prefix}alloff_meps"), s.alloff_meps);
        }
        row.push(format!("{:.2}%", s.overhead_pct));
        if i == 0 {
            // The gated path; it is also the one whose proof of
            // collection is reported (zero would mean we measured nothing).
            t.fact("overhead_pct", s.overhead_pct);
            t.fact(spec.recorded_fact, s.recorded);
        } else {
            t.fact(&format!("{prefix}overhead_pct"), s.overhead_pct);
        }
        if layer == Layer::Log {
            row.push(s.recorded.to_string());
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Fact;

    #[test]
    fn median_is_robust_to_one_outlier() {
        let mut odd = [1.0, 50.0, -2.0, 0.5, 1.5];
        assert_eq!(median(&mut odd), 1.0);
        let mut even = [4.0, 2.0];
        assert_eq!(median(&mut even), 3.0);
        assert_eq!(median(&mut []), 0.0);
    }

    /// One tiny end-to-end run of `layer`, under the lock that serialises
    /// tests toggling the process-global observability flags.
    fn tiny_end_to_end_run(layer: Layer) {
        let _g = crate::experiments::common::OBS_TEST_LOCK.lock().unwrap();
        let args = Args { scale_factor: 4096, batches: 4, threads: vec![1], ..Args::default() };
        let t = run(&args, layer);
        assert!(metrics::enabled(), "run must leave metrics collection on");
        assert!(!trace::enabled(), "run must leave tracing off");
        assert_eq!(log::max_level(), Some(log::Level::Warn), "run must restore the level");
        let spec = layer.spec();
        assert_eq!(t.name, spec.name);
        assert_eq!(t.rows.len(), spec.paths.len());
        assert_eq!(t.rows[0][0], spec.paths[0].0);
        let fact = |name: &str| t.facts.iter().find(|(n, _)| n == name).map(|(_, v)| v);
        assert!(matches!(fact("overhead_pct"), Some(Fact::Float(_))));
        // Every path dispatches batches and probes the RHH, so the enabled
        // side must have recorded something.
        match fact(spec.recorded_fact) {
            Some(&Fact::Int(n)) => assert!(n > 0, "enabled trial recorded nothing"),
            other => panic!("{} is {other:?}", spec.recorded_fact),
        }
    }

    #[test]
    fn tiny_end_to_end_run_metrics() {
        tiny_end_to_end_run(Layer::Metrics);
    }

    #[test]
    fn tiny_end_to_end_run_trace() {
        tiny_end_to_end_run(Layer::Trace);
    }

    #[test]
    fn tiny_end_to_end_run_log() {
        tiny_end_to_end_run(Layer::Log);
    }
}
