//! Epoch-pinned read isolation for the shard pool.
//!
//! Every query path used to pay a full [`settle`](crate::ShardPool)
//! barrier: readers blocked until the pipeline drained, and the writer
//! stalled behind the reader's shard locks. A reader here reads a
//! **snapshot** instead — a copy of every shard taken at one batch
//! boundary — while the workers keep applying later batches to the live
//! shards.
//!
//! * The pool keeps at most one snapshot, starting with a copy of the
//!   stores it was built over (epoch 0). [`pin`](ShardPool::pin) shares it
//!   while a [`ReadGuard`] still holds it (joiners read the same frozen
//!   epoch), and while no batch was acked since it was taken and nothing
//!   changed the shards outside batches
//!   ([`with_shard_mut`](ShardPool::with_shard_mut) drops it).
//! * Otherwise the pin **refreshes** it in place, and the refresh is a job
//!   in the batches' FIFO: every worker reaches it behind the batches
//!   dispatched before it, copies its shard into the snapshot's copy with
//!   `clone_from` (which reuses the copy's buffers) and hands it back. The
//!   snapshot's epoch is the number of batches dispatched before the job,
//!   so every shard is copied at the same boundary, and never mid-batch.
//! * A refresh never runs while a guard is alive, so a pool holds at most
//!   the live shards plus one snapshot, and a pool nobody pins pays
//!   nothing.
//!
//! The trade: a refresh costs the shards' bytes once per pin cycle, where
//! keeping a replica costs one more apply of every batch, pinned or not.

use std::sync::Arc;

use crate::parallel::ShardAccess;
use crate::pool::{ShardPool, ShardStore};
use crate::trace::{self, SpanId};

/// Every shard of a pool, copied at one batch boundary.
pub(crate) struct Snapshot<S> {
    /// Batches dispatched before the copy: exactly these are visible.
    pub(crate) epoch: u64,
    pub(crate) shards: Vec<S>,
}

impl<S: ShardStore> ShardPool<S> {
    /// Pins a snapshot of every shard at one batch boundary, at or after
    /// every batch acked before the call. The writer keeps applying later
    /// batches while the guard is held; the guard never changes.
    pub fn pin(&self) -> ReadGuard<S> {
        // Covers the slot wait plus any refresh; the arg carries the
        // serving request id (0 outside a request) so a slow pin can be
        // attributed to the query that paid for the copy.
        let _span = trace::span_arg(SpanId::EpochPin, trace::thread_ctx());
        let mut latest = self.latest.lock().expect("snapshot slot poisoned");
        let snapshot = match latest.take() {
            Some(s) if Arc::strong_count(&s) > 1 || s.epoch >= self.acked_batches() => s,
            stale => Arc::new(self.refresh(stale.and_then(Arc::into_inner))),
        };
        *latest = Some(Arc::clone(&snapshot));
        drop(latest);
        let m = crate::metrics::global();
        m.epoch_pins.inc();
        m.epoch_active_pins.inc();
        ReadGuard { snapshot }
    }

    /// Copies every shard at the next batch boundary, into `old`'s buffers
    /// when there is an old snapshot to reuse.
    fn refresh(&self, old: Option<Snapshot<S>>) -> Snapshot<S> {
        crate::metrics::global().epoch_refreshes.inc();
        let copies = match old {
            Some(old) => old.shards.into_iter().map(Some).collect(),
            None => (0..self.num_shards()).map(|_| None).collect(),
        };
        let (epoch, replies) = self.queue_refresh(copies);
        let shards =
            replies.into_iter().map(|r| r.recv().expect("shard worker exited early")).collect();
        Snapshot { epoch, shards }
    }
}

/// An epoch pin: every query through the guard observes exactly the graph
/// after [`epoch`](Self::epoch) batches, however far the writer has moved
/// on. Dropping the last guard lets the next pin refresh the snapshot.
pub struct ReadGuard<S> {
    snapshot: Arc<Snapshot<S>>,
}

impl<S> ReadGuard<S> {
    /// The pinned batch boundary: this view reflects exactly the first
    /// `epoch()` submitted batches, in order.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch
    }
}

/// The snapshot taken at the pinned epoch, with the live pool's
/// partitioning; no barrier.
impl<S: ShardStore> ShardAccess for ReadGuard<S> {
    type Shard = S;

    fn num_shards(&self) -> usize {
        self.snapshot.shards.len()
    }
    fn with_shard<R>(&self, i: usize, f: impl FnOnce(&S) -> R) -> R {
        f(&self.snapshot.shards[i])
    }
}

impl<S> Drop for ReadGuard<S> {
    fn drop(&mut self) {
        crate::metrics::global().epoch_active_pins.dec();
    }
}

impl<S> std::fmt::Debug for ReadGuard<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadGuard").field("epoch", &self.epoch()).finish()
    }
}
