//! Process-wide observability registry: relaxed-atomic counters, gauges,
//! and fixed-bucket histograms instrumenting the hot paths of the store
//! ([`rhh`](crate::rhh) probes/displacements, [`GraphTinker`](crate::GraphTinker)
//! branch-outs and compaction work, [`SghUnit`](crate::SghUnit) remap probes,
//! [`ShardPool`](crate::ShardPool) queueing) plus the persistence and engine
//! layers in the downstream crates.
//!
//! # Design
//!
//! Everything is hand-rolled on `std::sync::atomic` — no external metric
//! crates. The hot-path cost budget is a single `Relaxed` read-modify-write
//! per event:
//!
//! - [`Counter::inc`] / [`Counter::add`] are one `fetch_add`.
//! - [`Histogram::record`] maps the value to one of [`HIST_BUCKETS`] fixed
//!   buckets (exact below [`HIST_LINEAR`], power-of-two ranges above) and
//!   does one `fetch_add` on that bucket. Count, max, and mean are *derived*
//!   from the buckets at snapshot time instead of being maintained online.
//! - [`Gauge`] tracks a balanced up/down quantity (queue depth) and is the
//!   one primitive that ignores the runtime enable flag, so increments and
//!   decrements always pair up even if collection is toggled mid-flight.
//!
//! One switch controls collection: a runtime flag ([`set_enabled`], on by
//! default) checked with one relaxed load inside each recording method. A
//! single binary (the `fig_metrics_overhead` bench, the `metrics_parity`
//! suite) measures and compares enabled-vs-disabled ingest back to back.
//!
//! The registry is a process-wide static ([`global`]). [`Metrics::snapshot`]
//! materialises it into a plain-data [`MetricsSnapshot`] with hand-rolled
//! JSON ([`MetricsSnapshot::to_json`]) and Prometheus-style text
//! ([`MetricsSnapshot::to_prometheus`]) renderings.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of buckets in every [`Histogram`].
pub const HIST_BUCKETS: usize = 40;

/// Values below this threshold get an exact bucket each; larger values fall
/// into power-of-two ranges.
pub const HIST_LINEAR: u64 = 16;

/// Maps a recorded value to its bucket index: exact for `v < HIST_LINEAR`,
/// then one bucket per power-of-two range, clamped to the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < HIST_LINEAR {
        v as usize
    } else {
        let bits = 64 - v.leading_zeros() as usize; // >= 5 here
        (HIST_LINEAR as usize + bits - 5).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the overflow bucket).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i < HIST_LINEAR as usize {
        i as u64
    } else if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i - 11)) - 1
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i <= HIST_LINEAR as usize {
        i as u64
    } else {
        bucket_upper_bound(i - 1) + 1
    }
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether runtime collection is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Toggles runtime collection. Collection starts enabled.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Starts a wall-clock timer for latency histograms, or `None` when
/// collection is off so the `Instant::now()` syscall is skipped too.
/// Pair with [`Histogram::record_since`].
#[inline]
pub fn timer() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// A monotonically increasing event count (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter (const so it can live in a static).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one to the counter if collection is enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter if collection is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A balanced up/down quantity (e.g. in-flight batch count). Unlike
/// [`Counter`] and [`Histogram`], a gauge does **not** consult the runtime
/// enable flag: increments and decrements must pair up even if collection
/// is toggled between them, otherwise the gauge would drift permanently.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Adds a signed delta (a batch's net movement in one RMW).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrites the value (used by gauges published from store state,
    /// e.g. memory footprints, rather than maintained by paired inc/dec).
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets the gauge to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram ([`HIST_BUCKETS`] buckets: exact below
/// [`HIST_LINEAR`], power-of-two ranges above). [`record`](Self::record) is a
/// single relaxed `fetch_add`; count/max/mean are derived at snapshot time.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a zeroed histogram (const so it can live in a static).
    pub const fn new() -> Self {
        Histogram { buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS] }
    }

    /// Records one observation of `v` if collection is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the elapsed nanoseconds since `start` (from [`timer`]);
    /// a no-op when `start` is `None`.
    #[inline]
    pub fn record_since(&self, start: Option<Instant>) {
        if let Some(t) = start {
            self.record(t.elapsed().as_nanos() as u64);
        }
    }

    /// Materialises the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }

    /// Resets all buckets to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Plain-data view of a [`Histogram`] with derived statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts, length [`HIST_BUCKETS`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Inclusive upper bound of the highest non-empty bucket — every
    /// recorded value is `<=` this. Zero when empty.
    pub fn max_bound(&self) -> u64 {
        self.buckets.iter().rposition(|&c| c > 0).map(bucket_upper_bound).unwrap_or(0)
    }

    /// Bucket-resolution quantile estimate: the inclusive upper bound of
    /// the bucket holding the `q`-quantile observation (lower bound for
    /// the open-ended overflow bucket). Exact for values below
    /// [`HIST_LINEAR`]; within one power-of-two range above it. Zero when
    /// empty.
    pub fn quantile_approx(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based: p50 of 10 samples is
        // the 5th, p99 of 10 samples is the 10th.
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return if i >= HIST_BUCKETS - 1 {
                    bucket_lower_bound(i)
                } else {
                    bucket_upper_bound(i)
                };
            }
        }
        self.max_bound()
    }

    /// `(p50, p95, p99)` via [`quantile_approx`](Self::quantile_approx).
    pub fn quantiles(&self) -> (u64, u64, u64) {
        (self.quantile_approx(0.50), self.quantile_approx(0.95), self.quantile_approx(0.99))
    }

    /// Bucket-midpoint approximation of the mean. Exact for values below
    /// [`HIST_LINEAR`]; within a factor of ~1.5 above it.
    pub fn mean_approx(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = bucket_lower_bound(i) as f64;
            // Clamp the open-ended overflow bucket to its lower bound.
            let hi = if i >= HIST_BUCKETS - 1 { lo } else { bucket_upper_bound(i) as f64 };
            sum += c as f64 * (lo + hi) / 2.0;
        }
        sum / count as f64
    }

    /// Per-bucket saturating subtraction: the observations present in
    /// `self` but not in `baseline`. With a cumulative snapshot and an
    /// earlier baseline of the same histogram this is exact (buckets only
    /// grow), which is what gives [`WindowedHistogram`] its sliding
    /// window.
    pub fn saturating_diff(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| c.saturating_sub(baseline.buckets.get(i).copied().unwrap_or(0)))
            .collect();
        HistogramSnapshot { buckets }
    }
}

/// Number of baseline snapshots a [`WindowedHistogram`] retains; together
/// with the caller's rotation cadence this bounds the window span (e.g.
/// rotating every 10 s keeps roughly the last minute of observations).
pub const WINDOW_SLOTS: usize = 6;

/// A [`Histogram`] paired with a ring of baseline [`HistogramSnapshot`]s
/// so quantiles can be reported over a sliding window instead of
/// process-lifetime.
///
/// [`record`](Self::record) stays the single relaxed `fetch_add` of the
/// underlying histogram — the ring is touched only by the (caller-paced,
/// coarse) [`rotate`](Self::rotate) and the read-side
/// [`window`](Self::window), both behind a `Mutex` that is never on the
/// hot path. `rotate()` pushes the current cumulative snapshot as a new
/// baseline and evicts beyond [`WINDOW_SLOTS`]; `window()` subtracts the
/// oldest retained baseline from the current cumulative counts, so
/// observations older than `WINDOW_SLOTS` rotations age out.
#[derive(Debug, Default)]
pub struct WindowedHistogram {
    hist: Histogram,
    baselines: Mutex<Vec<HistogramSnapshot>>,
}

impl WindowedHistogram {
    /// Creates an empty windowed histogram (const so it can live in a
    /// static).
    pub const fn new() -> Self {
        WindowedHistogram { hist: Histogram::new(), baselines: Mutex::new(Vec::new()) }
    }

    /// Records one observation of `v` (single relaxed `fetch_add`).
    #[inline]
    pub fn record(&self, v: u64) {
        self.hist.record(v);
    }

    /// Closes the current slot: the cumulative counts become the newest
    /// baseline and baselines older than [`WINDOW_SLOTS`] rotations are
    /// evicted, sliding the window forward.
    pub fn rotate(&self) {
        let snap = self.hist.snapshot();
        let mut ring = self.baselines.lock().expect("window baselines poisoned");
        ring.push(snap);
        while ring.len() > WINDOW_SLOTS {
            ring.remove(0);
        }
    }

    /// The observations recorded within the last [`WINDOW_SLOTS`]
    /// rotations (everything since startup until the first rotation).
    pub fn window(&self) -> HistogramSnapshot {
        let snap = self.hist.snapshot();
        let ring = self.baselines.lock().expect("window baselines poisoned");
        match ring.first() {
            Some(oldest) => snap.saturating_diff(oldest),
            None => snap,
        }
    }

    /// The process-lifetime cumulative snapshot (ignores the window).
    pub fn cumulative(&self) -> HistogramSnapshot {
        self.hist.snapshot()
    }
}

macro_rules! registry {
    (
        $(#[$meta:meta])* struct $Reg:ident / $Snap:ident {
            $( $(#[$fmeta:meta])* $name:ident : $kind:ident ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $Reg {
            $( $(#[$fmeta])* pub $name : registry!(@live $kind), )*
        }

        impl $Reg {
            /// Creates a zeroed registry (const so it can live in a static).
            pub const fn new() -> Self {
                $Reg { $( $name : registry!(@new $kind), )* }
            }

            /// Materialises every metric into a plain-data snapshot.
            pub fn snapshot(&self) -> $Snap {
                $Snap { $( $name : registry!(@snap self.$name, $kind), )* }
            }

            /// Resets every metric to zero.
            pub fn reset(&self) {
                $( self.$name.reset(); )*
            }
        }

        /// Plain-data view of every metric in the registry at one instant.
        /// Renderable as JSON ([`to_json`](Self::to_json)) or
        /// Prometheus-style text ([`to_prometheus`](Self::to_prometheus)).
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $Snap {
            $( $(#[$fmeta])* pub $name : registry!(@snapty $kind), )*
        }

        impl $Snap {
            /// Renders the snapshot as a JSON object, one `"name": value`
            /// line per scalar so shell pipelines can grep/sed fields out.
            pub fn to_json(&self) -> String {
                let mut parts: Vec<String> = Vec::new();
                $( registry!(@json parts, stringify!($name), self.$name, $kind); )*
                format!("{{\n{}\n}}", parts.join(",\n"))
            }

            /// Renders the snapshot as Prometheus-style exposition text
            /// (`gtinker_`-prefixed metric families).
            pub fn to_prometheus(&self) -> String {
                let mut out = String::new();
                $( registry!(@prom out, stringify!($name), self.$name, $kind); )*
                out
            }
        }
    };

    (@live counter) => { Counter };
    (@live gauge) => { Gauge };
    (@live histogram) => { Histogram };
    (@new counter) => { Counter::new() };
    (@new gauge) => { Gauge::new() };
    (@new histogram) => { Histogram::new() };
    (@snap $f:expr, counter) => { $f.get() };
    (@snap $f:expr, gauge) => { $f.get() };
    (@snap $f:expr, histogram) => { $f.snapshot() };
    (@snapty counter) => { u64 };
    (@snapty gauge) => { i64 };
    (@snapty histogram) => { HistogramSnapshot };
    (@json $parts:ident, $n:expr, $v:expr, counter) => {
        $parts.push(format!("  \"{}\": {}", $n, $v));
    };
    (@json $parts:ident, $n:expr, $v:expr, gauge) => {
        $parts.push(format!("  \"{}\": {}", $n, $v));
    };
    (@json $parts:ident, $n:expr, $v:expr, histogram) => {
        $parts.push(hist_json($n, &$v));
    };
    (@prom $out:ident, $n:expr, $v:expr, counter) => {
        prom_scalar(&mut $out, $n, "counter", $v as i64);
    };
    (@prom $out:ident, $n:expr, $v:expr, gauge) => {
        prom_scalar(&mut $out, $n, "gauge", $v);
    };
    (@prom $out:ident, $n:expr, $v:expr, histogram) => {
        prom_hist(&mut $out, $n, &$v);
    };
}

registry! {
    /// The full metric catalogue. Field names double as the metric names in
    /// both renderings (prefixed `gtinker_` in Prometheus text).
    struct Metrics / MetricsSnapshot {
        /// Edge-cells inspected per RHH placement: one observation per
        /// insertion attempt, recording how many full-width cells the
        /// placement touched: the Robin Hood walk's whole displacement
        /// chain, or the one cell the no-swap path jumps to via the tag
        /// lane.
        rhh_probe: histogram,
        /// Robin Hood swaps: residents displaced to seat a richer arrival.
        rhh_displacements: counter,
        /// Inserts that ran off the end of a full subblock (workblock fetch
        /// / branch-out follows).
        rhh_overflows: counter,
        /// 8-wide SWAR tag groups scanned across RHH subblock probes (one
        /// per `u64` fingerprint load). Nonzero proves the tag engine is
        /// live; together with `rhh_tag_false_positive` it prices the scan
        /// in cells-inspected terms.
        rhh_tag_group_scans: counter,
        /// Tag fingerprint candidates whose full destination compare then
        /// missed (7-bit collisions). The false-positive *rate* is this
        /// over scanned tag lanes (`rhh_tag_group_scans` × 8); the CI
        /// probe smoke bounds it at 2 %.
        rhh_tag_false_positive: counter,
        /// SGH source-remap placement probe distances: recorded when a new
        /// source is inserted (and for every key on a grow-rehash), not on
        /// lookups — the lookup path is too hot to instrument, and a key's
        /// placement probe bounds its lookup probe.
        sgh_probe: histogram,
        /// SGH table rehashes (grow + reinsert-all).
        sgh_grows: counter,
        /// Distinct source vertices registered in the SGH remap — the live
        /// vertex gauge served by the telemetry `/healthz` endpoint. A
        /// gauge (not a counter) so it ignores the runtime flag and never
        /// undercounts a toggled run.
        sgh_sources: gauge,
        /// Depth at which each tree branch-out created a child edgeblock.
        tinker_branch_depth: histogram,
        /// New edges inserted.
        tinker_inserts: counter,
        /// Weight updates to already-present edges.
        tinker_updates: counter,
        /// Edges deleted.
        tinker_deletes: counter,
        /// Deletes that found no matching edge.
        tinker_delete_misses: counter,
        /// Cells pulled toward the root by compact-mode backfill.
        tinker_backfill_moves: counter,
        /// Child edgeblocks returned to the free list by compaction.
        tinker_blocks_freed: counter,
        /// CAL array rebuilds triggered by invalid-slot accumulation.
        tinker_cal_rebuilds: counter,
        /// Batches dispatched to the shard pool.
        pool_batches: counter,
        /// Per-worker claim passes over dispatched batches.
        pool_claims: counter,
        /// Operations claimed by pool workers (sums to ops across shards).
        pool_claimed_ops: counter,
        /// `settle()` calls that actually had to wait for in-flight batches.
        pool_settle_waits: counter,
        /// In-flight (submitted, not yet reaped) pool batches right now.
        pool_queue_depth: gauge,
        /// Time `gtinker ingest` spent reading and parsing one `--batch` of
        /// its input file, nanoseconds (one observation per chunk read).
        ingest_parse_ns: histogram,
        /// Edges `gtinker ingest` parsed from its input file.
        ingest_parsed_edges_total: counter,
        /// WAL records appended.
        wal_appends: counter,
        /// WAL append latency in nanoseconds (encode + write + any sync).
        wal_append_ns: histogram,
        /// Explicit WAL data syncs.
        wal_syncs: counter,
        /// WAL sync latency in nanoseconds.
        wal_sync_ns: histogram,
        /// Snapshot files written.
        snapshot_writes: counter,
        /// Snapshot encode time in nanoseconds.
        snapshot_encode_ns: histogram,
        /// Snapshot file write+rename time in nanoseconds.
        snapshot_write_ns: histogram,
        /// Analytics engine iterations completed.
        engine_iterations: counter,
        /// Total engine gather/scatter processing time, nanoseconds.
        engine_process_ns: counter,
        /// Total engine apply-phase time, nanoseconds.
        engine_apply_ns: counter,
        /// Deletion batches that forced a cold recompute because
        /// invalidate-and-repair was unavailable (legacy monotone-only
        /// incremental mode) — never a silent fallback.
        engine_delete_fallbacks: counter,
        /// Vertices invalidated by delete-cone sweeps (tag-and-sweep over
        /// the witness forest), summed across repair batches.
        engine_repair_invalidated: counter,
        /// Engine iterations spent repairing invalidated cones.
        engine_repair_iters: counter,
        /// Active vertices currently stored in the inline tier.
        tier_inline_vertices: gauge,
        /// Active vertices currently stored in the RHH edgeblock tier.
        tier_blocks_vertices: gauge,
        /// Active vertices currently stored in the dense hub tier.
        tier_hub_vertices: gauge,
        /// Lazily deleted hub-segment slots not yet dropped by a merge
        /// pass — the hub tier's tombstone population.
        tier_hub_dead_slots: gauge,
        /// Tier promotions (inline→blocks and blocks→hub).
        tier_promotions: counter,
        /// Tier demotions (hub→blocks and blocks→inline).
        tier_demotions: counter,
        /// Estimated inline-tier adjacency bytes (set from store state).
        memory_inline_bytes: gauge,
        /// Estimated edgeblock-arena bytes (set from store state).
        memory_blocks_bytes: gauge,
        /// Estimated hub-segment bytes (set from store state).
        memory_hub_bytes: gauge,
        /// Estimated CAL bytes (set from store state).
        memory_cal_bytes: gauge,
        /// Estimated total structure bytes (set from store state).
        memory_total_bytes: gauge,
        /// Epoch pins taken by readers (one per `ReadGuard`).
        epoch_pins: counter,
        /// `ReadGuard`s currently alive (replicas frozen while > 0).
        epoch_active_pins: gauge,
        /// Backlogged batches folded into read replicas (deferred apply).
        epoch_fold_batches: counter,
        /// Un-folded batches queued behind the read replicas right now.
        epoch_backlog_depth: gauge,
        /// HTTP query-API requests served (the `/query/*` family plus
        /// `/neighbors` and `/degree`).
        serve_queries: counter,
        /// End-to-end query handler latency in nanoseconds.
        serve_query_ns: histogram,
    }
}

fn hist_json(name: &str, h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
    let (p50, p95, p99) = h.quantiles();
    format!(
        "  \"{name}\": {{\"count\": {}, \"max_le\": {}, \"mean_approx\": {:.3}, \
         \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \
         \"buckets\": [{}]}}",
        h.count(),
        h.max_bound(),
        h.mean_approx(),
        buckets.join(", ")
    )
}

fn prom_scalar(out: &mut String, name: &str, kind: &str, v: i64) {
    out.push_str(&format!("# TYPE gtinker_{name} {kind}\ngtinker_{name} {v}\n"));
}

fn prom_hist(out: &mut String, name: &str, h: &HistogramSnapshot) {
    out.push_str(&format!("# TYPE gtinker_{name} histogram\n"));
    let mut cum = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        cum += c;
        // Only emit boundaries that carry information (non-empty bucket or
        // the first/last) to keep the exposition readable.
        if c > 0 {
            let le = if i >= HIST_BUCKETS - 1 {
                "+Inf".to_string()
            } else {
                bucket_upper_bound(i).to_string()
            };
            out.push_str(&format!("gtinker_{name}_bucket{{le=\"{le}\"}} {cum}\n"));
        }
    }
    let count = h.count();
    out.push_str(&format!("gtinker_{name}_bucket{{le=\"+Inf\"}} {count}\n"));
    out.push_str(&format!("gtinker_{name}_sum {:.0}\n", h.mean_approx() * count as f64));
    out.push_str(&format!("gtinker_{name}_count {count}\n"));
    // Bucket-derived quantile estimates, rendered as gauges (a Prometheus
    // histogram family cannot carry quantile series itself).
    for (q, v) in [
        ("p50", h.quantile_approx(0.50)),
        ("p95", h.quantile_approx(0.95)),
        ("p99", h.quantile_approx(0.99)),
    ] {
        out.push_str(&format!("# TYPE gtinker_{name}_{q} gauge\ngtinker_{name}_{q} {v}\n"));
    }
}

static GLOBAL: Metrics = Metrics::new();

/// The process-wide metric registry that all instrumentation hooks feed.
#[inline]
pub fn global() -> &'static Metrics {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that flip the global enable flag or reset the
    /// global registry, since the rest of the suite runs in parallel.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn bucket_bounds_are_consistent() {
        for v in [0u64, 1, 5, 15, 16, 17, 31, 32, 1000, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower_bound(i) <= v, "lower({i}) <= {v}");
            assert!(v <= bucket_upper_bound(i), "{v} <= upper({i})");
        }
        // Buckets tile the axis with no gaps.
        for i in 1..HIST_BUCKETS {
            assert_eq!(bucket_lower_bound(i), bucket_upper_bound(i - 1) + 1);
        }
    }

    #[test]
    fn histogram_derives_count_max_mean() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        let h = Histogram::new();
        for v in [0u64, 3, 3, 15, 40] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        // 40 lands in the 32..=63 bucket.
        assert_eq!(s.max_bound(), 63);
        assert!(s.max_bound() >= 40);
        // Exact values below HIST_LINEAR contribute exactly.
        assert!(s.mean_approx() > 0.0);
    }

    #[test]
    fn disabled_records_nothing_but_gauge_still_moves() {
        let _g = LOCK.lock().unwrap();
        set_enabled(false);
        let c = Counter::new();
        let h = Histogram::new();
        let g = Gauge::new();
        c.inc();
        h.record(7);
        g.inc();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count(), 0);
        assert_eq!(g.get(), 1);
        assert!(timer().is_none());
        set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
        assert!(timer().is_some());
    }

    #[test]
    fn quantiles_from_buckets() {
        // Empty histogram: all quantiles zero.
        assert_eq!(HistogramSnapshot { buckets: vec![0; HIST_BUCKETS] }.quantiles(), (0, 0, 0));
        // 100 observations: 90 at value 2, 9 at value 10, 1 at value 40.
        let mut buckets = vec![0u64; HIST_BUCKETS];
        buckets[bucket_index(2)] = 90;
        buckets[bucket_index(10)] = 9;
        buckets[bucket_index(40)] = 1;
        let h = HistogramSnapshot { buckets };
        let (p50, p95, p99) = h.quantiles();
        assert_eq!(p50, 2, "p50 lands in the exact value-2 bucket");
        assert_eq!(p95, 10, "rank 95 of 100 is among the nine 10s");
        // Rank 99 is still a 10; rank 100 (p100 == max) is the 40.
        assert_eq!(p99, 10);
        assert_eq!(h.quantile_approx(1.0), 63, "40 lands in the 32..=63 bucket");
        // Quantiles are monotone in q.
        assert!(p50 <= p95 && p95 <= p99);
        // Overflow bucket reports its lower bound, not u64::MAX.
        let mut top = vec![0u64; HIST_BUCKETS];
        top[HIST_BUCKETS - 1] = 5;
        let t = HistogramSnapshot { buckets: top };
        assert_eq!(t.quantile_approx(0.5), bucket_lower_bound(HIST_BUCKETS - 1));
    }

    #[test]
    fn snapshot_renders_json_and_prometheus() {
        let _g = LOCK.lock().unwrap();
        let m = Metrics::new();
        m.tinker_inserts.add(3);
        m.rhh_probe.record(2);
        m.pool_queue_depth.inc();
        let s = m.snapshot();
        let json = s.to_json();
        assert!(json.starts_with("{\n") && json.trim_end().ends_with('}'));
        let prom = s.to_prometheus();
        assert!(prom.contains("# TYPE gtinker_tinker_inserts counter"));
        assert!(prom.contains("gtinker_rhh_probe_count"));
        assert!(json.contains("\"tinker_inserts\": 3"));
        assert!(json.contains("\"pool_queue_depth\": 1"));
        assert!(prom.contains("gtinker_tinker_inserts 3"));
        m.reset();
        assert_eq!(m.snapshot().tinker_inserts, 0);
        assert_eq!(m.snapshot().pool_queue_depth, 0);
        assert_eq!(m.snapshot().rhh_probe.count(), 0);
    }

    #[test]
    fn saturating_diff_subtracts_per_bucket() {
        let mut now = vec![0u64; HIST_BUCKETS];
        let mut base = vec![0u64; HIST_BUCKETS];
        now[3] = 10;
        now[7] = 2;
        base[3] = 4;
        base[9] = 5; // never shrinks below zero
        let d = HistogramSnapshot { buckets: now }
            .saturating_diff(&HistogramSnapshot { buckets: base });
        assert_eq!(d.buckets[3], 6);
        assert_eq!(d.buckets[7], 2);
        assert_eq!(d.buckets[9], 0);
        assert_eq!(d.count(), 8);
    }

    #[test]
    fn windowed_histogram_evicts_old_observations() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        let w = WindowedHistogram::new();
        // Before any rotation the window is the cumulative view.
        for _ in 0..10 {
            w.record(2);
        }
        assert_eq!(w.window().count(), 10);
        // One rotation: those 10 become the oldest baseline and drop out.
        w.rotate();
        assert_eq!(w.window().count(), 0);
        for _ in 0..5 {
            w.record(40);
        }
        let win = w.window();
        assert_eq!(win.count(), 5);
        assert_eq!(win.quantile_approx(0.5), 63, "old value-2 samples must not drag p50 down");
        assert_eq!(w.cumulative().count(), 15, "cumulative view keeps everything");
        // The 40s stay visible while their baseline is retained...
        for _ in 0..WINDOW_SLOTS - 1 {
            w.rotate();
            assert_eq!(w.window().count(), 5);
        }
        // ...and age out once WINDOW_SLOTS further rotations evict it.
        w.rotate();
        assert_eq!(w.window().count(), 0, "observations older than WINDOW_SLOTS rotations evict");
    }

    #[test]
    fn global_registry_is_reachable() {
        let _ = global().snapshot();
    }
}
