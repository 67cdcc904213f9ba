//! Persistent shard worker pool for pipelined ingestion: the interval-
//! sharded store itself ([`ParallelTinker`](crate::ParallelTinker) is a
//! `ShardPool<GraphTinker>`).
//!
//! A per-batch `thread::scope` would pay thread creation plus a serial
//! partition scan on the hot path. The [`ShardPool`] keeps one long-lived
//! worker per interval shard instead:
//!
//! * **Spawned once, joined on drop.** Workers are created with the pool
//!   and fed per-shard job queues over channels; dropping the pool closes
//!   the queues, lets workers drain any queued batches, and joins them.
//! * **Claim-based partitioning.** There is no serial `partition_into`
//!   pass: every worker scans the shared batch (an `Arc<EdgeBatch>`) and
//!   claims the operations whose source hashes to its interval into a
//!   reusable scratch batch. Partitioning itself is parallelized, and a
//!   worker whose interval received nothing skips the apply entirely.
//! * **Double-buffering.** [`submit`](ShardPool::submit) is asynchronous
//!   with a bounded pipeline depth of 2: while batch *k* is being applied,
//!   batch *k+1* can already be claimed/partitioned by idle workers, and
//!   the producer can prepare batch *k+2*. [`flush`](ShardPool::flush)
//!   drains the pipeline and returns the merged outcome counts.
//!
//! Each shard sits behind its own `Mutex`: each worker locks only its own
//! shard, exactly once per non-empty batch, so the locks are uncontended
//! in steady state; queries ([`GraphStore`], routed through
//! [`ShardAccess`]) lock on demand after a pipeline barrier, or read an
//! epoch pin ([`pin`](ShardPool::pin), a [`ReadGuard`]) with no barrier at
//! all. The pool hands every batch it dispatches to that read side too, so
//! a pin needs nothing from the workers.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use gtinker_types::{partition_of, EdgeBatch, Result, TinkerConfig};

use crate::csr::CsrSnapshot;
use crate::epoch::{ReadGuard, ReadSide};
use crate::parallel::ShardAccess;
use crate::store::GraphStore;
use crate::tinker::{ApplyBatch, BatchResult, GraphTinker};
use crate::trace::{self, SpanId};

/// How many batches may be in flight before [`ShardPool::submit`] blocks:
/// one applying, one staged — classic double-buffering.
pub const PIPELINE_DEPTH: usize = 2;

/// A store that can own one interval shard of a [`ShardPool`]: it applies
/// its claimed sub-batches ([`ApplyBatch`]) and answers the [`GraphStore`]
/// reads the pool routes to it (and a pin's bootstrap builds its CSR base
/// from).
pub trait ShardStore: GraphStore + ApplyBatch + Sized + Send + Sync + 'static {
    /// Construction parameters shared by every shard of one store.
    type Config: Copy;

    /// An empty store.
    fn with_config(config: Self::Config) -> Result<Self>;
}

impl ShardStore for GraphTinker {
    type Config = TinkerConfig;

    fn with_config(config: TinkerConfig) -> Result<Self> {
        GraphTinker::new(config)
    }
}

/// Completion tracker for one submitted batch: workers decrement the
/// remaining count and merge their per-shard results in; waiters block on
/// the condvar until every shard has reported.
struct Ticket {
    state: Mutex<TicketState>,
    done: Condvar,
}

struct TicketState {
    remaining: usize,
    result: BatchResult,
}

impl Ticket {
    fn new(workers: usize) -> Self {
        Ticket {
            state: Mutex::new(TicketState { remaining: workers, result: BatchResult::default() }),
            done: Condvar::new(),
        }
    }

    /// Merges one worker's result in. `on_last` runs for the worker that
    /// makes the batch fully applied, while the ticket lock is still held
    /// — so anything it publishes (the acked epoch boundary) is visible
    /// before any `wait`er can return.
    fn complete(&self, r: BatchResult, on_last: impl FnOnce()) {
        let mut s = self.state.lock().expect("ticket state poisoned");
        s.result.merge(&r);
        s.remaining -= 1;
        if s.remaining == 0 {
            on_last();
            self.done.notify_all();
        }
    }

    fn wait(&self) -> BatchResult {
        let mut s = self.state.lock().expect("ticket state poisoned");
        while s.remaining > 0 {
            s = self.done.wait(s).expect("ticket state poisoned");
        }
        s.result
    }
}

struct Job {
    batch: Arc<EdgeBatch>,
    ticket: Arc<Ticket>,
    /// Pool-local dispatch sequence number, threaded into the trace spans
    /// so the timeline shows which batch each worker is claiming/applying
    /// (the visual proof that batch k+1 partitions while k applies).
    seq: u64,
    /// The batch is grouped by source: a claim keeps batch order, so each
    /// shard's claim is grouped too and goes to
    /// [`ApplyBatch::apply_grouped`].
    grouped: bool,
}

/// The per-worker job queues and the batch count, behind one lock so that
/// jobs sent by two threads reach every queue (and the read side) in the
/// same order.
struct Outbox {
    txs: Vec<Sender<Job>>,
    /// Batches dispatched so far (the next batch's seq).
    seq: u64,
}

/// One interval shard and the batch boundary its worker has reached.
struct Slot<S> {
    store: Mutex<S>,
    /// Batches this shard's worker has finished (stored under the shard
    /// lock when the claim changed the shard), so a pin's bootstrap knows
    /// the boundary of the copy it builds.
    applied: AtomicU64,
}

#[derive(Default)]
struct Inflight {
    /// Tickets of submitted batches, oldest first.
    queue: VecDeque<Arc<Ticket>>,
    /// Merged results of batches reaped from the queue but not yet
    /// returned by [`ShardPool::flush`].
    reaped: BatchResult,
}

/// A pool of long-lived worker threads, one per interval shard.
pub struct ShardPool<S> {
    shards: Arc<Vec<Slot<S>>>,
    outbox: Mutex<Outbox>,
    handles: Vec<JoinHandle<()>>,
    inflight: Mutex<Inflight>,
    /// Number of submitted-but-unreaped batches; lets the query-side
    /// pipeline barrier exit with one atomic load when nothing is in
    /// flight (the common case for read-heavy parallel analytics).
    pending: AtomicUsize,
    /// One past the highest fully-applied batch seq (monotone; published
    /// by the last worker to complete each ticket).
    acked: Arc<AtomicU64>,
    /// What readers pin: CSR bases, netted deltas and the batches handed
    /// over since.
    read: Arc<ReadSide>,
    rebaser: Option<JoinHandle<()>>,
}

fn worker_loop<S: ShardStore>(
    index: usize,
    shards: Arc<Vec<Slot<S>>>,
    acked: Arc<AtomicU64>,
    rx: mpsc::Receiver<Job>,
) {
    let n = shards.len();
    let slot = &shards[index];
    let mut claim = EdgeBatch::new();
    while let Ok(Job { batch, ticket, seq, grouped }) = rx.recv() {
        {
            let _t = trace::span_arg(SpanId::PoolClaim, seq);
            claim.clear();
            for &op in batch.ops() {
                if partition_of(op.src(), n) == index {
                    claim.push(op);
                }
            }
        }
        let m = crate::metrics::global();
        m.pool_claims.inc();
        m.pool_claimed_ops.add(claim.len() as u64);
        // Empty interval: report without touching (or locking) the shard.
        let result = if claim.is_empty() {
            slot.applied.store(seq + 1, Ordering::Release);
            BatchResult::default()
        } else {
            let _t = trace::span_arg(SpanId::PoolApply, seq);
            let mut shard = slot.store.lock().expect("shard poisoned");
            // A grouped claim is handed over whole; the next one starts empty.
            let r = if grouped {
                shard.apply_grouped(std::mem::take(&mut claim))
            } else {
                shard.apply(&claim)
            };
            slot.applied.store(seq + 1, Ordering::Release);
            r
        };
        // Queues are FIFO and every worker sees every batch, so when the
        // last worker completes seq, every batch up to seq is applied.
        ticket.complete(result, || {
            acked.fetch_max(seq + 1, Ordering::AcqRel);
        });
    }
}

impl<S: ShardStore> ShardPool<S> {
    /// Creates `n` empty shards sharing one configuration, and spawns the
    /// `n` worker threads that own them until drop.
    pub fn new(config: S::Config, n: usize) -> Result<Self> {
        assert!(n > 0, "need at least one shard");
        Ok(Self::over((0..n).map(|_| S::with_config(config)).collect::<Result<_>>()?))
    }

    /// Builds a pool over the given shard stores, spawning one worker per
    /// shard. Store `i` owns interval `i` of `stores.len()`.
    pub fn over(stores: Vec<S>) -> Self {
        assert!(!stores.is_empty(), "need at least one shard");
        let acked = Arc::new(AtomicU64::new(0));
        // Empty stores are boundary 0 of an empty base: a pin before the
        // first batch is acked costs nothing.
        let empty = stores.iter().all(|s| s.num_edges() == 0 && s.vertex_space() == 0);
        let read = Arc::new(ReadSide::new(stores.len(), empty, Arc::clone(&acked)));
        let rebaser = {
            let read = Arc::clone(&read);
            std::thread::Builder::new()
                .name("gtinker-rebase".into())
                .spawn(move || read.run_rebaser())
                .expect("spawn rebaser")
        };
        let slot = |s| Slot { store: Mutex::new(s), applied: AtomicU64::new(0) };
        let shards: Arc<Vec<Slot<S>>> = Arc::new(stores.into_iter().map(slot).collect());
        let mut txs = Vec::with_capacity(shards.len());
        let mut handles = Vec::with_capacity(shards.len());
        for i in 0..shards.len() {
            let (tx, rx) = mpsc::channel::<Job>();
            let shards = Arc::clone(&shards);
            let acked = Arc::clone(&acked);
            let handle = std::thread::Builder::new()
                .name(format!("gtinker-shard-{i}"))
                .spawn(move || worker_loop(i, shards, acked, rx))
                .expect("spawn shard worker");
            txs.push(tx);
            handles.push(handle);
        }
        ShardPool {
            shards,
            outbox: Mutex::new(Outbox { txs, seq: 0 }),
            handles,
            inflight: Mutex::new(Inflight::default()),
            pending: AtomicUsize::new(0),
            acked,
            read,
            rebaser: Some(rebaser),
        }
    }

    pub(crate) fn read_side(&self) -> &ReadSide {
        &self.read
    }

    /// Every shard's CSR, each built under its shard's lock, with the batch
    /// boundary it holds: a pin's bootstrap, which waits for at most the
    /// claim each worker is applying.
    pub(crate) fn build_bases(&self) -> Vec<(u64, CsrSnapshot)> {
        self.shards
            .iter()
            .map(|slot| {
                let shard = slot.store.lock().expect("shard poisoned");
                (slot.applied.load(Ordering::Acquire), CsrSnapshot::build(&*shard))
            })
            .collect()
    }

    /// `(base_epoch, delta_ops)` of the read side: the batch boundary of
    /// the oldest shard base, and the ops held after the bases (netted or
    /// not yet). A single short lock; no barrier.
    pub fn read_side_stats(&self) -> (u64, u64) {
        self.read.stats()
    }

    /// Number of shards (= worker threads).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of submitted batches not yet reaped (diagnostic; racy by
    /// nature — another thread may be reaping concurrently).
    #[inline]
    pub fn pending_batches(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// One past the highest fully-applied batch seq (a single atomic
    /// load).
    #[inline]
    pub fn acked_batches(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    /// Hands `batch` to every worker under a fresh ticket.
    fn dispatch(&self, batch: Arc<EdgeBatch>, grouped: bool) -> Arc<Ticket> {
        crate::metrics::global().pool_batches.inc();
        let ticket = Arc::new(Ticket::new(self.num_shards()));
        let seq = {
            let mut out = self.outbox.lock().expect("outbox poisoned");
            let seq = out.seq;
            out.seq += 1;
            self.read.offer(seq, &batch);
            for tx in &out.txs {
                let (batch, ticket) = (Arc::clone(&batch), Arc::clone(&ticket));
                let job = Job { batch, ticket, seq, grouped };
                tx.send(job).expect("shard worker exited early");
            }
            seq
        };
        trace::instant(SpanId::PoolDispatch, seq);
        crate::log::debug("pool")
            .msg("batch dispatched")
            .field("seq", seq)
            .field("ops", batch.len())
            .emit();
        ticket
    }

    /// Waits until no batch is in flight, merging finished batches into
    /// the reaped accumulator. When the queue is empty but batches are
    /// still pending, another thread holds their tickets; yield until it
    /// finishes reaping so readers never observe a half-applied pipeline.
    fn settle(&self) {
        let mut waited = false;
        let mut barrier = None;
        while self.pending.load(Ordering::Acquire) > 0 {
            if !waited {
                waited = true;
                crate::metrics::global().pool_settle_waits.inc();
                // Arg = the serving request id when a query path pays for
                // this barrier (0 on the ingest path).
                barrier = Some(trace::span_arg(SpanId::PoolSettle, trace::thread_ctx()));
            }
            let next = self.inflight.lock().expect("inflight poisoned").queue.pop_front();
            match next {
                Some(ticket) => self.reap(&ticket),
                None => std::thread::yield_now(),
            }
        }
        // Close the barrier span (if one was opened) before readers go on.
        drop(barrier);
    }

    /// Waits for a batch popped off the in-flight queue and merges its
    /// outcome into the reaped accumulator.
    fn reap(&self, ticket: &Ticket) {
        let r = ticket.wait();
        self.inflight.lock().expect("inflight poisoned").reaped.merge(&r);
        self.pending.fetch_sub(1, Ordering::Release);
        crate::metrics::global().pool_queue_depth.dec();
    }

    /// Applies one batch synchronously: the batch is claimed, partitioned
    /// and applied by all workers in parallel, and the merged outcome is
    /// returned. Any previously [`submit`](Self::submit)ted batches finish
    /// first (their results stay buffered for [`flush`](Self::flush)).
    pub fn apply_batch(&self, batch: &EdgeBatch) -> BatchResult {
        self.settle();
        self.dispatch(Arc::new(batch.clone()), false).wait()
    }

    /// [`apply_batch`](Self::apply_batch) for a batch grouped by source,
    /// taken without a copy: each worker hands its claim to
    /// [`ApplyBatch::apply_grouped`].
    pub fn apply_grouped(&self, batch: EdgeBatch) -> BatchResult {
        self.settle();
        self.dispatch(Arc::new(batch), true).wait()
    }

    /// Queues a batch asynchronously (pipelined ingestion): the call
    /// returns as soon as the batch is staged, so the caller can prepare
    /// batch *k+1* — and the workers can claim-partition it — while batch
    /// *k* is still applying. At most [`PIPELINE_DEPTH`] batches are in
    /// flight; beyond that, `submit` blocks on the oldest one, so the
    /// producer never runs unboundedly ahead of the workers. Results are
    /// collected by [`flush`](Self::flush); reads barrier on the in-flight
    /// batches themselves.
    pub fn submit(&self, batch: EdgeBatch) {
        self.submit_shared(Arc::new(batch));
    }

    /// [`submit`](Self::submit) without re-owning the batch, for callers
    /// (e.g. a WAL writer) that keep a reference to it.
    pub fn submit_shared(&self, batch: Arc<EdgeBatch>) {
        loop {
            let front = {
                let mut inflight = self.inflight.lock().expect("inflight poisoned");
                if inflight.queue.len() < PIPELINE_DEPTH {
                    break;
                }
                inflight.queue.pop_front()
            };
            if let Some(ticket) = front {
                self.reap(&ticket);
            }
        }
        let ticket = self.dispatch(batch, false);
        let mut inflight = self.inflight.lock().expect("inflight poisoned");
        inflight.queue.push_back(ticket);
        self.pending.fetch_add(1, Ordering::Release);
        crate::metrics::global().pool_queue_depth.inc();
    }

    /// Drains the pipeline and returns the merged outcome counts of every
    /// batch submitted since the last flush.
    pub fn flush(&self) -> BatchResult {
        self.settle();
        let mut inflight = self.inflight.lock().expect("inflight poisoned");
        std::mem::take(&mut inflight.reaped)
    }

    /// Runs `f` over shard `i` read-only, after a pipeline barrier so
    /// every submitted batch is visible.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&S) -> R) -> R {
        self.settle();
        f(&self.shards[i].store.lock().expect("shard poisoned"))
    }

    /// Runs `f` over shard `i` mutably after a pipeline barrier. State that
    /// does not travel in batches (a restored SGH order, a recorded vertex
    /// space) changes the shard between batch boundaries, so the read side
    /// drops its bases and the next pin builds them afresh. (A guard still
    /// holding the old view keeps reading it unchanged.)
    pub fn with_shard_mut(&mut self, i: usize, f: impl FnOnce(&mut S)) {
        self.settle();
        f(&mut self.shards[i].store.lock().expect("shard poisoned"));
        self.read.disarm();
    }

    // The `benchmark/` harness's names for `new`, `pin` and the
    // `GraphStore` read (it does not import the trait); nothing else calls
    // them (ROADMAP item 11).
    #[doc(hidden)]
    pub fn new_with_views(config: S::Config, n: usize) -> Result<Self> {
        Self::new(config, n)
    }

    #[doc(hidden)]
    pub fn pin_view(&self) -> Option<ReadGuard> {
        Some(self.pin())
    }

    #[doc(hidden)]
    pub fn num_edges(&self) -> u64 {
        GraphStore::num_edges(self)
    }
}

/// The live shards, after a pipeline barrier so every submitted batch is
/// visible.
impl<S: ShardStore> ShardAccess for ShardPool<S> {
    type Shard = S;

    fn shard_count(&self) -> usize {
        self.num_shards()
    }
    fn with_shard<R>(&self, i: usize, f: impl FnOnce(&S) -> R) -> R {
        ShardPool::with_shard(self, i, f)
    }
}

impl<S: ShardStore> ApplyBatch for ShardPool<S> {
    fn apply(&mut self, batch: &EdgeBatch) -> BatchResult {
        self.apply_batch(batch)
    }

    fn apply_grouped(&mut self, batch: EdgeBatch) -> BatchResult {
        ShardPool::apply_grouped(self, batch)
    }
}

impl<S> Drop for ShardPool<S> {
    /// Closes every job queue and joins the workers. Queued batches are
    /// still drained (channel receivers yield buffered jobs before
    /// reporting disconnection), so a pool dropped mid-stream shuts down
    /// cleanly without deadlocking or losing submitted work.
    fn drop(&mut self) {
        self.read.shut_down();
        if let Some(h) = self.rebaser.take() {
            let _ = h.join();
        }
        self.outbox.get_mut().unwrap_or_else(PoisonError::into_inner).txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl<S> std::fmt::Debug for ShardPool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool").field("shards", &self.shards.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_types::Edge;

    fn pool(n: usize) -> ShardPool<GraphTinker> {
        ShardPool::over((0..n).map(|_| GraphTinker::with_defaults()).collect())
    }

    fn batch(n: u32, salt: u32) -> EdgeBatch {
        EdgeBatch::inserts(
            &(0..n).map(|i| Edge::new((i * 7 + salt) % 113, i % 251, i + 1)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn apply_counts_match_sequential() {
        let b = batch(3_000, 0);
        let mut seq = GraphTinker::with_defaults();
        let want = seq.apply_batch(&b);
        let p = pool(4);
        let got = p.apply_batch(&b);
        assert_eq!(got, want);
        let edges: u64 = (0..4).map(|i| p.with_shard(i, |g| g.num_edges())).sum();
        assert_eq!(edges, seq.num_edges());
    }

    #[test]
    fn submit_flush_pipeline_matches_sync_apply() {
        let p = pool(3);
        let q = pool(3);
        let mut want = BatchResult::default();
        for round in 0..10 {
            let b = batch(500, round * 31);
            want.merge(&q.apply_batch(&b));
            p.submit(b);
        }
        assert_eq!(p.flush(), want);
        for i in 0..3 {
            let (a, b) = (p.with_shard(i, |g| g.num_edges()), q.with_shard(i, |g| g.num_edges()));
            assert_eq!(a, b, "shard {i} diverged");
        }
    }

    #[test]
    fn empty_shard_intervals_are_skipped() {
        // A single-source batch lands in exactly one of 8 intervals; the
        // other workers must report zero without applying anything.
        let p = pool(8);
        let b = EdgeBatch::inserts(&(0..64).map(|d| Edge::unit(42, d)).collect::<Vec<_>>());
        let r = p.apply_batch(&b);
        assert_eq!(r.inserted, 64);
        let owner = partition_of(42, 8);
        for i in 0..8 {
            let edges = p.with_shard(i, |g| g.num_edges());
            assert_eq!(edges, if i == owner { 64 } else { 0 });
        }
    }

    #[test]
    fn drop_mid_stream_joins_cleanly() {
        let p = pool(4);
        for round in 0..6 {
            p.submit(batch(2_000, round * 17));
        }
        // No flush: the pool is dropped with batches still in flight.
        drop(p);
    }

    #[test]
    fn flush_without_submissions_is_zero() {
        let p = pool(2);
        assert_eq!(p.flush(), BatchResult::default());
    }

    #[test]
    fn pinned_view_matches_settled_store_after_flush() {
        let p = pool(4);
        for round in 0..6 {
            p.submit(batch(800, round * 13));
        }
        p.flush();
        let view = p.pin();
        assert_eq!(view.epoch(), 6);
        let live: u64 = (0..4).map(|i| p.with_shard(i, |g| g.num_edges())).sum();
        let pinned: u64 = (0..4).map(|i| view.with_shard(i, |g| g.num_edges())).sum();
        assert_eq!(pinned, live);
    }

    #[test]
    fn pinned_view_is_frozen_while_writer_advances() {
        let p = pool(3);
        p.apply_batch(&batch(1_000, 0));
        let view = p.pin();
        assert_eq!(view.epoch(), 1);
        let before: u64 = (0..3).map(|i| view.with_shard(i, |g| g.num_edges())).sum();
        // Writer keeps going while the pin is held.
        p.apply_batch(&batch(1_000, 7));
        let during: u64 = (0..3).map(|i| view.with_shard(i, |g| g.num_edges())).sum();
        assert_eq!(before, during, "pinned replicas must not move");
        drop(view);
        let fresh = p.pin();
        assert_eq!(fresh.epoch(), 2);
        let after: u64 = (0..3).map(|i| fresh.with_shard(i, |g| g.num_edges())).sum();
        let live: u64 = (0..3).map(|i| p.with_shard(i, |g| g.num_edges())).sum();
        assert_eq!(after, live);
    }

    #[test]
    fn concurrent_pins_share_one_epoch() {
        let p = pool(2);
        p.apply_batch(&batch(500, 3));
        let a = p.pin();
        p.apply_batch(&batch(500, 9));
        let b = p.pin();
        // b joined while a was pinned: it must see a's epoch, not a newer
        // one, so the two readers agree on the graph.
        assert_eq!(a.epoch(), b.epoch());
        let ea: u64 = (0..2).map(|i| a.with_shard(i, |g| g.num_edges())).sum();
        let eb: u64 = (0..2).map(|i| b.with_shard(i, |g| g.num_edges())).sum();
        assert_eq!(ea, eb);
    }

    #[test]
    fn views_survive_deletes_and_mixed_batches() {
        let p = pool(3);
        p.apply_batch(&batch(1_000, 0));
        let mut mixed = EdgeBatch::new();
        for i in 0..400u32 {
            mixed.push_delete((i * 7) % 113, i % 251);
        }
        for i in 0..100u32 {
            mixed.push_insert(Edge::new(i % 113, i % 251, 9_999));
        }
        p.apply_batch(&mixed);
        let view = p.pin();
        let live: u64 = (0..3).map(|i| p.with_shard(i, |g| g.num_edges())).sum();
        let pinned: u64 = (0..3).map(|i| view.with_shard(i, |g| g.num_edges())).sum();
        assert_eq!(pinned, live);
        assert_eq!(view.epoch(), 2);
    }
}
