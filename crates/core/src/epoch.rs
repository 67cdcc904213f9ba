//! Epoch-pinned read isolation for the shard pool.
//!
//! Every query path used to pay a full [`settle`](crate::ShardPool)
//! barrier: readers blocked until the pipeline drained, and the writer
//! stalled behind the reader's shard locks. This module removes the
//! barrier with a **dual-store deferred-apply** scheme:
//!
//! * Each shard keeps its **live store** (applied immediately, exactly as
//!   before — batch outcome counts stay exact at ack time) plus a **read
//!   replica** that lags behind at an *acked batch boundary*.
//! * Workers append `(seq, Arc<EdgeBatch>)` to a per-shard **backlog**
//!   before completing the batch's ticket. Per-shard job channels are
//!   FIFO and every worker receives every batch, so ticket completion is
//!   monotone in `seq`: when the last worker completes batch `k`, every
//!   batch `≤ k` is fully applied and fully backlogged. That worker
//!   publishes `acked = k + 1` with a single `fetch_max`.
//! * A reader **pins** an epoch: while no other pin is active it folds
//!   each shard's backlog entries with `seq < acked` into the replicas
//!   (deferred apply — this is also the reclamation point, since folded
//!   entries drop their `Arc` on the batch), then marks the epoch pinned.
//!   While any pin is active the replicas are immutable, so every reader
//!   traverses a consistent acked-batch-boundary view while the pipeline
//!   keeps applying later batches to the live stores.
//!
//! Visibility is a pure function of `acked`, and folding happens only at
//! whole-batch granularity, so a pinned view can never observe a torn
//! mid-batch state. Workers opportunistically fold their own shard when
//! its backlog grows past a threshold (and no pin is active), bounding
//! memory when the store serves no readers for a while.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

use gtinker_types::{partition_of, EdgeBatch};

use crate::pool::ShardStore;

/// Backlog length past which a worker folds its own shard eagerly (when
/// no reader holds a pin) instead of waiting for the next pin to catch
/// the replica up. Bounds retained batch memory under write-only load.
pub const FOLD_THRESHOLD: usize = 32;

/// Reader-pin bookkeeping, guarded by the gate mutex: how many
/// [`ReadGuard`]s are live and which acked boundary the replicas sit at.
struct Gate {
    pins: usize,
    epoch: u64,
}

/// Per-shard queue of batches applied to the live store but not yet
/// folded into the read replica. Entries are `(dispatch seq, batch)`.
type Backlog = VecDeque<(u64, Arc<EdgeBatch>)>;

/// The read-isolation layer owned by a [`ShardPool`](crate::ShardPool):
/// one lagging replica and one backlog per shard, plus the shared acked
/// counter the workers publish batch boundaries through.
pub struct ViewLayer<S> {
    replicas: Vec<RwLock<S>>,
    backlogs: Vec<Mutex<Backlog>>,
    gate: Mutex<Gate>,
    /// One past the highest fully-applied batch seq (monotone; published
    /// by the last worker to complete each ticket).
    acked: AtomicU64,
}

impl<S: ShardStore> ViewLayer<S> {
    /// Builds a layer with one fresh (empty) replica per shard, or a
    /// disabled layer when `replicas` is empty.
    pub(crate) fn new(replicas: Vec<S>) -> Self {
        let n = replicas.len();
        ViewLayer {
            replicas: replicas.into_iter().map(RwLock::new).collect(),
            backlogs: (0..n).map(|_| Mutex::new(Backlog::new())).collect(),
            gate: Mutex::new(Gate { pins: 0, epoch: 0 }),
            acked: AtomicU64::new(0),
        }
    }

    /// Whether replicas exist (views were requested at pool build time).
    #[inline]
    pub fn enabled(&self) -> bool {
        !self.replicas.is_empty()
    }

    /// One past the highest acked batch seq.
    #[inline]
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    /// Worker-side: records `batch` in shard `i`'s backlog. Must run
    /// before the batch's ticket completes so `acked` implies presence.
    pub(crate) fn record(&self, i: usize, seq: u64, batch: &Arc<EdgeBatch>) {
        if !self.enabled() {
            return;
        }
        let len = {
            let mut backlog = self.backlogs[i].lock().expect("backlog poisoned");
            backlog.push_back((seq, Arc::clone(batch)));
            backlog.len()
        };
        crate::metrics::global().epoch_backlog_depth.set(len as i64);
        if len > FOLD_THRESHOLD {
            // Opportunistic fold: only if no reader holds a pin right now
            // (try_lock — a worker never waits behind readers).
            if let Ok(gate) = self.gate.try_lock() {
                if gate.pins == 0 {
                    // Safe while holding the gate: no pin can start, and a
                    // per-shard fold to any boundary ≤ acked keeps the
                    // replica at a batch boundary the next pin extends.
                    self.fold_shard(i, self.acked());
                }
            }
        }
    }

    /// Worker-side: publishes that every batch with seq ≤ `seq` is fully
    /// applied (called by the last worker to complete a ticket).
    pub(crate) fn publish_acked(&self, seq: u64) {
        self.acked.fetch_max(seq + 1, Ordering::AcqRel);
    }

    /// Folds shard `i`'s backlog entries with `seq < target` into its
    /// replica, in dispatch order. Caller must guarantee no reader pin is
    /// active (the replica write lock alone would un-tear nothing: the
    /// epoch contract is that pinned replicas do not move at all).
    fn fold_shard(&self, i: usize, target: u64) {
        let n = self.replicas.len();
        let mut backlog = self.backlogs[i].lock().expect("backlog poisoned");
        if backlog.front().is_none_or(|&(seq, _)| seq >= target) {
            return;
        }
        let mut claim = EdgeBatch::new();
        let mut replica = self.replicas[i].write().expect("replica poisoned");
        let mut folded = 0u64;
        while let Some(&(seq, _)) = backlog.front() {
            if seq >= target {
                break;
            }
            let (_, batch) = backlog.pop_front().expect("front just checked");
            claim.clear();
            for &op in batch.ops() {
                if partition_of(op.src(), n) == i {
                    claim.push(op);
                }
            }
            if !claim.is_empty() {
                replica.apply(&claim);
            }
            folded += 1;
        }
        let m = crate::metrics::global();
        m.epoch_fold_batches.add(folded);
        m.epoch_backlog_depth.set(backlog.len() as i64);
    }

    /// Runs `f` over replica `i` (nothing to do when the layer is
    /// disabled), after folding its backlog up to `acked` so the mutation
    /// lands behind every batch acked before it, as it does on the live
    /// shard. The caller holds the pool exclusively: no pin is alive and
    /// no worker is folding.
    pub(crate) fn with_replica_mut(&self, i: usize, f: impl FnOnce(&mut S)) {
        if self.enabled() {
            self.fold_shard(i, self.acked());
            f(&mut self.replicas[i].write().expect("replica poisoned"));
        }
    }

    /// Pins the current acked epoch and returns a guard for reading the
    /// replicas, or `None` when the layer is disabled. The first pin
    /// catches every replica up to `acked`; joiners share the already
    /// pinned epoch (which only ever lags `acked`, never tears).
    pub fn pin(&self) -> Option<ReadGuard<'_, S>> {
        if !self.enabled() {
            return None;
        }
        // Covers the gate wait plus any first-pin fold; the arg carries
        // the serving request id (0 outside a request) so a slow pin can
        // be attributed to the query that paid for the fold.
        let _span =
            crate::trace::span_arg(crate::trace::SpanId::EpochPin, crate::trace::thread_ctx());
        let mut gate = self.gate.lock().expect("gate poisoned");
        if gate.pins == 0 {
            let target = self.acked();
            for i in 0..self.replicas.len() {
                self.fold_shard(i, target);
            }
            gate.epoch = target;
        }
        gate.pins += 1;
        let epoch = gate.epoch;
        drop(gate);
        let m = crate::metrics::global();
        m.epoch_pins.inc();
        m.epoch_active_pins.inc();
        Some(ReadGuard { layer: self, epoch })
    }
}

impl<S> std::fmt::Debug for ViewLayer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewLayer")
            .field("shards", &self.replicas.len())
            .field("acked", &self.acked.load(Ordering::Relaxed))
            .finish()
    }
}

/// An epoch pin over the pool's read replicas: while any guard is live
/// the replicas are frozen at one acked batch boundary, so every query
/// through the guard observes exactly the graph after `epoch()` batches.
/// Dropping the last guard lets the replicas advance again.
pub struct ReadGuard<'a, S: ShardStore> {
    layer: &'a ViewLayer<S>,
    epoch: u64,
}

impl<'a, S: ShardStore> ReadGuard<'a, S> {
    /// The pinned batch boundary: this view reflects exactly the first
    /// `epoch()` submitted batches, in order.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of replica shards (same partitioning as the live pool).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.layer.replicas.len()
    }

    /// Read-locks replica `i` and runs `f` over it. No pipeline barrier:
    /// the writer keeps applying later batches to the live stores.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&S) -> R) -> R {
        f(&self.layer.replicas[i].read().expect("replica poisoned"))
    }

    /// Borrows replica `i` read-locked, for callers that need a guard
    /// with its own lifetime (e.g. streaming iteration).
    pub fn shard(&self, i: usize) -> RwLockReadGuard<'a, S> {
        self.layer.replicas[i].read().expect("replica poisoned")
    }
}

impl<S: ShardStore> Drop for ReadGuard<'_, S> {
    fn drop(&mut self) {
        let mut gate = self.layer.gate.lock().expect("gate poisoned");
        gate.pins -= 1;
        crate::metrics::global().epoch_active_pins.dec();
    }
}

impl<S: ShardStore> std::fmt::Debug for ReadGuard<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadGuard").field("epoch", &self.epoch).finish()
    }
}
