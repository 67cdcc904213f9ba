//! Span tracing: time-resolved observability for the ingest pipeline.
//!
//! The [`metrics`](crate::metrics) registry answers *how much* (counts,
//! latency histograms); this module answers *when*: a per-thread ring
//! buffer of timestamped begin/end/instant events whose merged stream
//! shows the PR 3 pipelining overlap — WAL append of batch *k+1* running
//! while the shard workers apply batch *k* — as parallel tracks on a
//! timeline, the same per-phase breakdown GraphTango and CuckooGraph use
//! to motivate their designs.
//!
//! # Design
//!
//! Everything is hand-rolled on `std` — no tracing crates, no `unsafe`.
//!
//! - **Per-thread rings.** The first event a thread records registers a
//!   fixed-capacity ring ([`RING_CAP`] slots) in a process-wide registry.
//!   Recording is one relaxed-atomic cursor bump plus three relaxed slot
//!   stores; there is no lock and no allocation on the hot path. When the
//!   ring wraps, the *oldest* events are overwritten — a dump always holds
//!   the newest [`RING_CAP`] events per thread.
//! - **Fixed catalogue.** Event names come from the [`SpanId`] enum, so a
//!   slot stores a byte, not a string, and the set of traceable phases is
//!   auditable in one place.
//! - **Racy-tolerant dumps.** [`dump`] reads other threads' rings with
//!   relaxed loads while they may still be recording. Each slot embeds its
//!   sequence number; a slot whose sequence does not match the expected
//!   one (it was overwritten mid-read) is skipped rather than mis-read.
//!   Dumps are diagnostics, not ground truth, and are documented as such.
//! - **One gate**, like the metrics layer's: a runtime flag, one relaxed
//!   load per call site. It starts **disabled** — tracing is opt-in per
//!   run, unlike metrics, because a timeline is only meaningful for a
//!   deliberately traced workload.
//!
//! A [`SpanGuard`] records `Begin` on creation and `End` on drop. The
//! `End` is recorded even if the runtime flag was switched off mid-span,
//! so per-thread begin/end nesting stays balanced (the same reasoning as
//! [`Gauge`](crate::metrics::Gauge) ignoring the metrics flag).
//!
//! [`TraceDump::to_chrome_json`] renders the merged, time-sorted stream in
//! the Chrome trace-event format: load the file in
//! <https://ui.perfetto.dev> (or `chrome://tracing`) and each thread —
//! `gtinker-shard-0..n`, the caller — is its own track.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Capacity (events) of each per-thread ring buffer. Must be a power of
/// two; at ~24 bytes a slot a full ring is ~96 KiB.
pub const RING_CAP: usize = 4096;

/// Upper bound on registered per-thread rings; threads past the cap
/// record into a shared discard ring that never appears in dumps (a
/// backstop against unbounded registry growth from thread churn).
pub const MAX_RINGS: usize = 256;

/// The fixed catalogue of traceable phases. One variant per named span;
/// the variant's [`name`](Self::name) doubles as the event name in the
/// exported timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanId {
    /// Shard worker scanning the shared batch, claiming its interval
    /// (the parallelized partition pass).
    PoolClaim = 0,
    /// Shard worker applying its claimed sub-batch under the shard lock.
    PoolApply = 1,
    /// Query-side pipeline barrier waiting out in-flight batches.
    PoolSettle = 2,
    /// Instant: a batch was dispatched to every shard queue.
    PoolDispatch = 3,
    /// WAL record encode + write (+ policy-driven sync).
    WalAppend = 4,
    /// Explicit WAL data sync.
    WalSync = 5,
    /// Snapshot encode (store -> bytes).
    SnapshotEncode = 6,
    /// Snapshot write + atomic rename publish.
    SnapshotWrite = 7,
    /// Engine gather/scatter processing phase of one iteration.
    EngineProcess = 8,
    /// Engine apply phase of one iteration.
    EngineApply = 9,
    /// Instant: a congested subblock branched out a child edgeblock
    /// (arg = tree depth of the new child).
    TinkerBranchOut = 10,
    /// Instant: the ingest driver handed batch `arg` to the pipeline.
    IngestBatch = 11,
    /// Instant: the telemetry server answered an HTTP request.
    ServeRequest = 12,
    /// A vertex changed adjacency tier (arg = its dense index). Covers the
    /// migration work: collecting, freeing and re-anchoring edges.
    TierPromote = 13,
    /// Invalidate-and-repair pass after a batch containing deletions
    /// (arg = size of the invalidated cone). Covers the witness sweep,
    /// boundary re-seeding, and the repair fixpoint.
    Repair = 14,
    /// Epoch pin: acquiring a read guard, including any first-pin backlog
    /// fold (arg = requesting thread's [`thread_ctx`], i.e. the serving
    /// request id, or 0 outside a request).
    EpochPin = 15,
    /// Serializing + writing one HTTP response (arg = request id).
    ServeSerialize = 16,
    /// The ingest driver reading and parsing one `--batch` of the input
    /// file (arg = batch seq) — the first stage of the write pipeline,
    /// running while earlier batches are logged and applied.
    IngestParse = 17,
}

/// Every catalogue entry, for iteration in exports and tests.
pub const ALL_SPANS: [SpanId; 18] = [
    SpanId::PoolClaim,
    SpanId::PoolApply,
    SpanId::PoolSettle,
    SpanId::PoolDispatch,
    SpanId::WalAppend,
    SpanId::WalSync,
    SpanId::SnapshotEncode,
    SpanId::SnapshotWrite,
    SpanId::EngineProcess,
    SpanId::EngineApply,
    SpanId::TinkerBranchOut,
    SpanId::IngestBatch,
    SpanId::ServeRequest,
    SpanId::TierPromote,
    SpanId::Repair,
    SpanId::EpochPin,
    SpanId::ServeSerialize,
    SpanId::IngestParse,
];

impl SpanId {
    /// The event name shown on the exported timeline.
    pub fn name(self) -> &'static str {
        match self {
            SpanId::PoolClaim => "pool_claim",
            SpanId::PoolApply => "pool_apply",
            SpanId::PoolSettle => "pool_settle",
            SpanId::PoolDispatch => "pool_dispatch",
            SpanId::WalAppend => "wal_append",
            SpanId::WalSync => "wal_sync",
            SpanId::SnapshotEncode => "snapshot_encode",
            SpanId::SnapshotWrite => "snapshot_write",
            SpanId::EngineProcess => "engine_process",
            SpanId::EngineApply => "engine_apply",
            SpanId::TinkerBranchOut => "tinker_branch_out",
            SpanId::IngestBatch => "ingest_batch",
            SpanId::ServeRequest => "serve_request",
            SpanId::TierPromote => "tier_promote",
            SpanId::Repair => "repair",
            SpanId::EpochPin => "epoch_pin",
            SpanId::ServeSerialize => "serve_serialize",
            SpanId::IngestParse => "ingest_parse",
        }
    }

    fn from_u8(v: u8) -> Option<SpanId> {
        ALL_SPANS.get(v as usize).copied()
    }
}

/// What a recorded event marks: the start of a span, its end, or a point
/// occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened ([`span`] / [`span_arg`]).
    Begin,
    /// Span closed ([`SpanGuard`] drop).
    End,
    /// Point event ([`instant`]).
    Instant,
}

/// One decoded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Per-thread sequence number (monotonic within `tid`).
    pub seq: u64,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Registration id of the recording thread (index into
    /// [`TraceDump::threads`]).
    pub tid: u64,
    /// Which catalogue phase the event belongs to.
    pub span: SpanId,
    /// Begin, end, or instant.
    pub kind: EventKind,
    /// Span-specific payload (batch number, LSN, tree depth, ...).
    pub arg: u64,
}

/// Identity of one registered recording thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadInfo {
    /// Registration id, matching [`TraceEvent::tid`].
    pub tid: u64,
    /// Thread name at registration (`t<tid>` if unnamed).
    pub name: String,
    /// Events overwritten by ring wraparound (newest-kept eviction).
    pub dropped: u64,
}

/// A merged, time-sorted view of every registered ring at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDump {
    /// Every thread that has recorded at least one event.
    pub threads: Vec<ThreadInfo>,
    /// All readable events, sorted by timestamp (ties by thread + seq).
    pub events: Vec<TraceEvent>,
}

/// Closes its span on drop. Hold it for the duration of the phase:
///
/// ```
/// use gtinker_core::trace::{self, SpanId};
/// let _guard = trace::span(SpanId::PoolApply);
/// // ... phase body ...
/// ```
#[must_use = "dropping the guard immediately makes a zero-length span"]
#[derive(Debug)]
pub struct SpanGuard {
    id: Option<SpanId>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            // Forced: the End must pair the recorded Begin even if the
            // runtime flag was toggled off mid-span.
            record(EventKind::End, id, 0, true);
        }
    }
}

/// Opens a span on the calling thread's track; the returned guard closes
/// it on drop. Records nothing (and costs one relaxed load) when
/// collection is disabled.
#[inline]
pub fn span(id: SpanId) -> SpanGuard {
    span_arg(id, 0)
}

/// [`span`] with a payload value (batch number, LSN, ...), shown in the
/// exported timeline as `args.v`.
#[inline]
pub fn span_arg(id: SpanId, arg: u64) -> SpanGuard {
    if record(EventKind::Begin, id, arg, false) {
        SpanGuard { id: Some(id) }
    } else {
        SpanGuard { id: None }
    }
}

/// Records a point event on the calling thread's track.
#[inline]
pub fn instant(id: SpanId, arg: u64) {
    record(EventKind::Instant, id, arg, false);
}

impl TraceDump {
    /// Merges `other` into this dump: events union by `(tid, seq)` and the
    /// combined stream is re-sorted; thread rows join by `tid`, keeping the
    /// larger dropped count. Lets a driver snapshot the rings at phase
    /// boundaries so a later high-rate phase (say, a branch-out-heavy bulk
    /// load) cannot evict an earlier phase's events before the final
    /// export.
    pub fn merge(&mut self, other: TraceDump) {
        for t in other.threads {
            match self.threads.iter_mut().find(|mine| mine.tid == t.tid) {
                Some(mine) => mine.dropped = mine.dropped.max(t.dropped),
                None => self.threads.push(t),
            }
        }
        let seen: std::collections::HashSet<(u64, u64)> =
            self.events.iter().map(|e| (e.tid, e.seq)).collect();
        self.events.extend(other.events.into_iter().filter(|e| !seen.contains(&(e.tid, e.seq))));
        self.events.sort_by_key(|e| (e.ts_ns, e.tid, e.seq));
    }

    /// Renders the dump in the Chrome trace-event JSON format (an object
    /// with a `traceEvents` array), loadable in Perfetto or
    /// `chrome://tracing`. Each thread is one track (`tid`), named via
    /// thread-name metadata events; span args surface as `args.v`.
    pub fn to_chrome_json(&self) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(self.events.len() + self.threads.len() + 1);
        parts.push(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"gtinker\"}}"
                .to_string(),
        );
        for t in &self.threads {
            parts.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.tid,
                json_escape(&t.name)
            ));
        }
        for e in &self.events {
            let ts_us = e.ts_ns as f64 / 1000.0;
            let common = format!(
                "\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},\"name\":\"{}\"",
                e.tid,
                e.span.name()
            );
            parts.push(match e.kind {
                EventKind::Begin => {
                    format!("{{\"ph\":\"B\",{common},\"args\":{{\"v\":{}}}}}", e.arg)
                }
                EventKind::End => format!("{{\"ph\":\"E\",{common}}}"),
                EventKind::Instant => {
                    format!("{{\"ph\":\"i\",\"s\":\"t\",{common},\"args\":{{\"v\":{}}}}}", e.arg)
                }
            });
        }
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", parts.join(",\n"))
    }
}

/// Escapes a string for embedding in a JSON string literal: quote and
/// backslash, then `\n` / `\t` / `\u00XX` for control characters. The one
/// escaper of the workspace (trace export, the serve endpoints, the bench
/// emitter).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());
/// Overflow ring shared by threads past [`MAX_RINGS`]; never dumped.
static DISCARD: OnceLock<Arc<ThreadRing>> = OnceLock::new();

const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

fn pack(seq: u64, span: SpanId, kind: EventKind) -> u64 {
    let k = match kind {
        EventKind::Begin => 0u64,
        EventKind::End => 1,
        EventKind::Instant => 2,
    };
    (k << 62) | ((span as u64) << SEQ_BITS) | (seq & SEQ_MASK)
}

fn unpack(meta: u64) -> (u64, Option<SpanId>, EventKind) {
    let kind = match meta >> 62 {
        0 => EventKind::Begin,
        1 => EventKind::End,
        _ => EventKind::Instant,
    };
    let span = SpanId::from_u8(((meta >> SEQ_BITS) & 0xff) as u8);
    (meta & SEQ_MASK, span, kind)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct ThreadRing {
    tid: u64,
    name: String,
    /// Total events ever recorded by this ring (the next slot is
    /// `cursor % RING_CAP`). Bumped with one relaxed `fetch_add`.
    cursor: AtomicU64,
    /// Dump watermark: events with `seq <` this are hidden ([`clear`]).
    cleared: AtomicU64,
    meta: Vec<AtomicU64>,
    ts: Vec<AtomicU64>,
    arg: Vec<AtomicU64>,
}

impl ThreadRing {
    fn new(tid: u64, name: String) -> Self {
        ThreadRing {
            tid,
            name,
            cursor: AtomicU64::new(0),
            cleared: AtomicU64::new(0),
            meta: (0..RING_CAP).map(|_| AtomicU64::new(0)).collect(),
            ts: (0..RING_CAP).map(|_| AtomicU64::new(0)).collect(),
            arg: (0..RING_CAP).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, kind: EventKind, span: SpanId, arg: u64) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = (seq as usize) & (RING_CAP - 1);
        // The meta word embeds the sequence number so a concurrent
        // dump can detect (and skip) a slot it caught mid-overwrite.
        self.meta[slot].store(pack(seq, span, kind), Ordering::Relaxed);
        self.arg[slot].store(arg, Ordering::Relaxed);
        self.ts[slot].store(now_ns(), Ordering::Relaxed);
    }

    fn read_into(&self, out: &mut Vec<TraceEvent>) -> ThreadInfo {
        let cursor = self.cursor.load(Ordering::Relaxed);
        let cleared = self.cleared.load(Ordering::Relaxed);
        let start = cursor.saturating_sub(RING_CAP as u64).max(cleared);
        for seq in start..cursor {
            let slot = (seq as usize) & (RING_CAP - 1);
            let (got_seq, span, kind) = unpack(self.meta[slot].load(Ordering::Relaxed));
            // Torn read: the owner lapped this slot while we scanned.
            if got_seq != (seq & SEQ_MASK) {
                continue;
            }
            let Some(span) = span else { continue };
            out.push(TraceEvent {
                seq,
                ts_ns: self.ts[slot].load(Ordering::Relaxed),
                tid: self.tid,
                span,
                kind,
                arg: self.arg[slot].load(Ordering::Relaxed),
            });
        }
        ThreadInfo {
            tid: self.tid,
            name: self.name.clone(),
            dropped: cursor.saturating_sub(RING_CAP as u64),
        }
    }
}

thread_local! {
    static RING: std::cell::OnceCell<Arc<ThreadRing>> =
        const { std::cell::OnceCell::new() };
    static CTX: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Tags the calling thread with a request context id (0 = none). The
/// serving path sets this to the per-request `RequestId` before doing any
/// work, and instrumentation sites deep in the stack (epoch pin, pool
/// settle, engine iterations) read it back via [`thread_ctx`] to stamp
/// their span args — so every span a request touches carries the same id
/// without threading a parameter through every API.
#[inline]
pub fn set_thread_ctx(id: u64) {
    CTX.with(|c| c.set(id));
}

/// The calling thread's request context id (0 when unset or outside a
/// request).
#[inline]
pub fn thread_ctx() -> u64 {
    CTX.with(|c| c.get())
}

fn register_current_thread() -> Arc<ThreadRing> {
    let mut reg = REGISTRY.lock().expect("trace registry poisoned");
    if reg.len() >= MAX_RINGS {
        return Arc::clone(
            DISCARD.get_or_init(|| Arc::new(ThreadRing::new(u64::MAX, "discard".into()))),
        );
    }
    let tid = reg.len() as u64 + 1; // tid 0 is the process metadata row
    let name =
        std::thread::current().name().map(str::to_string).unwrap_or_else(|| format!("t{tid}"));
    let ring = Arc::new(ThreadRing::new(tid, name));
    reg.push(Arc::clone(&ring));
    ring
}

/// Whether runtime trace collection is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Toggles runtime collection (starts **disabled**).
pub fn set_enabled(on: bool) {
    // Pin the epoch before the first event so timestamps are
    // comparable across threads from the very first record.
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Hides all previously recorded events from future dumps. Rings are kept
/// (threads keep recording into them); only the dump watermark moves.
pub fn clear() {
    let reg = REGISTRY.lock().expect("trace registry poisoned");
    for ring in reg.iter() {
        ring.cleared.store(ring.cursor.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Records one event; returns whether it was recorded. `force`
/// bypasses the runtime flag (span End pairing).
#[inline]
fn record(kind: EventKind, span: SpanId, arg: u64, force: bool) -> bool {
    if !force && !enabled() {
        return false;
    }
    RING.with(|cell| {
        let ring = cell.get_or_init(register_current_thread);
        ring.record(kind, span, arg);
    });
    true
}

/// Merges every registered ring into one time-sorted dump. Concurrent
/// recorders are not paused: slots overwritten mid-read are skipped, so a
/// dump taken during ingest is a consistent *sample*, not a barrier.
pub fn dump() -> TraceDump {
    let rings: Vec<Arc<ThreadRing>> = {
        let reg = REGISTRY.lock().expect("trace registry poisoned");
        reg.iter().map(Arc::clone).collect()
    };
    let mut d = TraceDump::default();
    for ring in &rings {
        d.threads.push(ring.read_into(&mut d.events));
    }
    d.events.sort_by_key(|e| (e.ts_ns, e.tid, e.seq));
    d
}

/// Starts a wall-clock timer when tracing is enabled (the [`Instant`]
/// mirror of [`metrics::timer`](crate::metrics::timer); handy for callers
/// that want both a span and a latency sample without two clock reads).
#[inline]
pub fn timer() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that flip the global enable flag or clear the
    /// global rings; the rest of the suite runs in parallel.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn my_events(d: &TraceDump) -> Vec<TraceEvent> {
        let me = std::thread::current();
        let name = me.name().unwrap_or("");
        let Some(t) = d.threads.iter().find(|t| t.name == name) else {
            return Vec::new();
        };
        d.events.iter().filter(|e| e.tid == t.tid).cloned().collect()
    }

    #[test]
    fn span_names_round_trip() {
        for (i, s) in ALL_SPANS.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert!(!s.name().is_empty());
        }
        let names: std::collections::HashSet<_> = ALL_SPANS.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), ALL_SPANS.len(), "span names must be unique");
    }

    #[test]
    fn records_begin_end_and_instant() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        clear();
        {
            let _s = span_arg(SpanId::PoolApply, 7);
            instant(SpanId::TinkerBranchOut, 3);
        }
        set_enabled(false);
        let mine = my_events(&dump());
        let kinds: Vec<(SpanId, EventKind, u64)> =
            mine.iter().map(|e| (e.span, e.kind, e.arg)).collect();
        assert_eq!(
            kinds,
            vec![
                (SpanId::PoolApply, EventKind::Begin, 7),
                (SpanId::TinkerBranchOut, EventKind::Instant, 3),
                (SpanId::PoolApply, EventKind::End, 0),
            ]
        );
        // Timestamps are monotone within a thread's track.
        assert!(mine.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn disabled_records_nothing_but_open_spans_still_close() {
        let _g = LOCK.lock().unwrap();
        set_enabled(false);
        clear();
        instant(SpanId::IngestBatch, 1);
        let g = span(SpanId::WalAppend);
        drop(g);
        assert!(my_events(&dump()).is_empty(), "disabled span must not record");
        // Begin recorded enabled, End after disabling: still balanced.
        set_enabled(true);
        clear();
        let g = span(SpanId::WalAppend);
        set_enabled(false);
        drop(g);
        let mine = my_events(&dump());
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].kind, EventKind::Begin);
        assert_eq!(mine[1].kind, EventKind::End);
    }

    #[test]
    fn wraparound_keeps_newest_events() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        clear();
        let total = RING_CAP as u64 + 100;
        for i in 0..total {
            instant(SpanId::IngestBatch, i);
        }
        set_enabled(false);
        let mine: Vec<TraceEvent> =
            my_events(&dump()).into_iter().filter(|e| e.span == SpanId::IngestBatch).collect();
        assert!(mine.len() <= RING_CAP);
        let args: Vec<u64> = mine.iter().map(|e| e.arg).collect();
        assert!(args.contains(&(total - 1)), "newest event must survive");
        assert!(!args.contains(&0), "oldest events must be evicted");
        // The surviving window is contiguous and ordered.
        assert!(args.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn clear_hides_old_events_only() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        clear();
        instant(SpanId::WalSync, 1);
        clear();
        instant(SpanId::WalSync, 2);
        set_enabled(false);
        let mine: Vec<u64> = my_events(&dump())
            .into_iter()
            .filter(|e| e.span == SpanId::WalSync)
            .map(|e| e.arg)
            .collect();
        assert_eq!(mine, vec![2]);
    }

    #[test]
    fn thread_ctx_is_per_thread_and_resettable() {
        assert_eq!(thread_ctx(), 0);
        set_thread_ctx(42);
        assert_eq!(thread_ctx(), 42);
        let other = std::thread::spawn(thread_ctx).join().unwrap();
        assert_eq!(other, 0, "ctx must not leak across threads");
        set_thread_ctx(0);
        assert_eq!(thread_ctx(), 0);
    }

    #[test]
    fn chrome_json_shape() {
        let d = TraceDump {
            threads: vec![ThreadInfo { tid: 1, name: "gtinker-shard-0".into(), dropped: 0 }],
            events: vec![
                TraceEvent {
                    seq: 0,
                    ts_ns: 1_500,
                    tid: 1,
                    span: SpanId::PoolApply,
                    kind: EventKind::Begin,
                    arg: 4,
                },
                TraceEvent {
                    seq: 1,
                    ts_ns: 2_500,
                    tid: 1,
                    span: SpanId::PoolApply,
                    kind: EventKind::End,
                    arg: 0,
                },
                TraceEvent {
                    seq: 2,
                    ts_ns: 3_000,
                    tid: 1,
                    span: SpanId::TinkerBranchOut,
                    kind: EventKind::Instant,
                    arg: 2,
                },
            ],
        };
        let j = d.to_chrome_json();
        assert!(j.starts_with("{\"displayTimeUnit\""));
        assert!(j.contains("\"traceEvents\":["));
        assert!(j.contains("\"thread_name\""));
        assert!(j.contains("\"name\":\"gtinker-shard-0\""));
        assert!(j.contains("{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1.500,\"name\":\"pool_apply\",\"args\":{\"v\":4}}"));
        assert!(
            j.contains("{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2.500,\"name\":\"pool_apply\"}")
        );
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.trim_end().ends_with("]}"));
    }

    #[test]
    fn merge_unions_by_tid_and_seq() {
        let mk = |tid: u64, seq: u64, ts: u64| TraceEvent {
            seq,
            ts_ns: ts,
            tid,
            span: SpanId::IngestBatch,
            kind: EventKind::Instant,
            arg: seq,
        };
        let mut a = TraceDump {
            threads: vec![ThreadInfo { tid: 1, name: "main".into(), dropped: 0 }],
            events: vec![mk(1, 0, 10), mk(1, 1, 20)],
        };
        let b = TraceDump {
            threads: vec![
                ThreadInfo { tid: 1, name: "main".into(), dropped: 5 },
                ThreadInfo { tid: 2, name: "w".into(), dropped: 0 },
            ],
            // seq 1 overlaps dump `a`; seq 2 and the tid-2 event are new.
            events: vec![mk(1, 1, 20), mk(1, 2, 30), mk(2, 0, 15)],
        };
        a.merge(b);
        assert_eq!(a.threads.len(), 2);
        assert_eq!(a.threads[0].dropped, 5, "dropped joins by max");
        let keys: Vec<(u64, u64)> = a.events.iter().map(|e| (e.tid, e.seq)).collect();
        assert_eq!(keys, vec![(1, 0), (2, 0), (1, 1), (1, 2)], "deduped and time-sorted");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd\te\u{1}é"), "a\\\"b\\\\c\\nd\\te\\u0001é");
    }
}
