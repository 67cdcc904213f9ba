//! Epoch-pinned read isolation for the shard pool: a CSR base per shard
//! plus a netted delta, rebased off the writer.
//!
//! A reader pins a **view** of every shard at one batch boundary while the
//! workers keep applying later batches to the live shards. A view is, per
//! shard, an immutable [`CsrSnapshot`] base built at batch *b* plus an
//! overlay of that shard's ops acked after *b*, netted per
//! `(src, dst)` ([`crate::delta`]). Nothing on the pin path touches a
//! worker or its queue:
//!
//! * **Hand-off.** The pool hands every batch's `Arc<EdgeBatch>` to the
//!   read side as it dispatches it (the same `Arc` the workers claim
//!   from), so the ops of every acked batch are already here.
//! * **Pin.** [`pin`](ShardPool::pin) shares the latest view while a
//!   [`ReadGuard`] still holds it (joiners read the same frozen epoch) or
//!   no batch was acked since; sharing takes one short lock and never
//!   waits for a fold. Otherwise it folds the acked batches not netted yet
//!   into each shard's overlay — O(overlay + new ops) on the reader's
//!   thread, dropping the raw batches — and publishes a view of `Arc`
//!   clones at the acked boundary.
//! * **Rebase.** One background thread merges a shard's base and overlay
//!   into the next base when the overlay reaches [`REBASE_FLOOR`] netted
//!   ops or `1/REBASE_RATIO` of the base, whichever is larger, so merge
//!   work is amortised O(1) per op. It rebases one shard at a time, into
//!   the buffers of the base it retired last once the views reading that
//!   one let go, so the read side holds one base plus one spare. It also
//!   folds raw batches that pile up behind a long-held view.
//! * **Nobody pinning costs nothing.** The read side starts armed over an
//!   empty base at epoch 0 (every production pool starts empty). Raw
//!   batches wait for a pin; once they reach the floor with no pin since
//!   the last fold, the read side is dropped instead of merged and keeps
//!   only the batches not yet acked. The next pin then bootstraps: it
//!   builds each base from its shard under the shard's lock, at the
//!   batch the shard's worker last applied, and nets the batches after
//!   it, so it waits for at most the one claim being applied, never for
//!   the batches queued behind it. A change outside batches
//!   ([`with_shard_mut`](ShardPool::with_shard_mut)) forces the same.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gtinker_types::{partition_of, EdgeBatch, UpdateOp};

use crate::csr::CsrSnapshot;
use crate::delta::{merge, Claim, PinnedShard};
use crate::parallel::ShardAccess;
use crate::pool::{ShardPool, ShardStore};
use crate::trace::{self, SpanId};

/// Netted ops at which a shard's overlay is merged into a new base, for a
/// base of fewer than `REBASE_FLOOR * REBASE_RATIO` edges; also the raw
/// ops the read side keeps for a pool nobody pins.
pub const REBASE_FLOOR: usize = 1 << 15;

/// A shard's overlay is merged once it holds `1 / REBASE_RATIO` of its
/// base's edges (or [`REBASE_FLOOR`] ops, if that is more).
pub const REBASE_RATIO: u64 = 8;

/// How long the rebaser waits for the views reading its spare base to let
/// go before it builds the next base in fresh memory.
const SPARE_WAIT: Duration = Duration::from_millis(250);

/// The overlay size that makes a shard over `base` due for a rebase.
fn rebase_size(base: &CsrSnapshot) -> usize {
    REBASE_FLOOR.max((base.dsts.len() as u64 / REBASE_RATIO) as usize)
}

/// The batches handed over and not yet netted, and the flags the
/// dispatcher, the pins and the rebaser coordinate through. Every holder
/// keeps this lock briefly and takes no other lock under it.
struct Inbox {
    /// Dispatched batches from seq `first` on.
    batches: VecDeque<Arc<EdgeBatch>>,
    first: u64,
    /// Ops in `batches`.
    ops: usize,
    /// Raw ops at which a pinned read side has the rebaser fold them: half
    /// the shards' rebase sizes summed, so raw ops stay below the overlays'
    /// bound while folds stay large enough to amortise their copy.
    fold_at: usize,
    /// The state holds bases; when false, the next pin bootstraps and
    /// `batches` keeps only what is not acked yet.
    armed: bool,
    /// A pin arrived since the rebaser last folded.
    pinned: bool,
    /// Work for the rebaser.
    signal: bool,
    shutdown: bool,
}

/// The bases and overlays, at one netted epoch. Held only for `Arc` swaps.
#[derive(Default)]
struct State {
    parts: Vec<PinnedShard>,
    /// The overlays hold every batch before this one.
    netted: u64,
    /// The latest view, at `netted`.
    view: Option<Arc<View>>,
    /// Bumped whenever `parts` is replaced wholesale, so a rebase that ran
    /// across a bootstrap or a drop discards its result.
    generation: u64,
}

/// The base a rebase retired last, whose buffers the next one reuses;
/// owned by whoever holds the fold lock.
type Spare = Option<Arc<CsrSnapshot>>;

/// Every shard at one batch boundary.
pub(crate) struct View {
    epoch: u64,
    shards: Vec<PinnedShard>,
}

/// A pool's read side: its bases, its overlays and the batches not netted
/// yet. Shared by the pool and its rebaser thread.
///
/// Locks, always taken in this order: `fold` serialises every change of
/// the parts (folds, bootstraps, rebase installs, drops) and owns the
/// spare base; `state` guards the parts and the latest view for `Arc`
/// swaps only, so a pin that shares a view never waits for a fold; the
/// inbox is a leaf.
pub(crate) struct ReadSide {
    inbox: Mutex<Inbox>,
    wake: Condvar,
    fold: Mutex<Spare>,
    state: Mutex<State>,
    /// The pool's acked boundary.
    acked: Arc<AtomicU64>,
    shards: usize,
    /// Smallest base epoch over the shards (for `/debug/vars`).
    base_epoch: AtomicU64,
    /// Netted ops in the overlays.
    netted_ops: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("read side poisoned")
}

impl ReadSide {
    /// A read side over `shards` shards. `empty` says every shard starts
    /// empty, so the read side is armed over empty bases at epoch 0;
    /// otherwise the first pin bootstraps.
    pub(crate) fn new(shards: usize, empty: bool, acked: Arc<AtomicU64>) -> Self {
        let parts = match empty {
            true => (0..shards).map(|_| part(Arc::default(), 0)).collect(),
            false => Vec::new(),
        };
        ReadSide {
            inbox: Mutex::new(Inbox {
                batches: VecDeque::new(),
                first: 0,
                ops: 0,
                fold_at: REBASE_FLOOR * shards,
                armed: empty,
                pinned: false,
                signal: false,
                shutdown: false,
            }),
            wake: Condvar::new(),
            fold: Mutex::new(None),
            state: Mutex::new(State { parts, ..State::default() }),
            acked,
            shards,
            base_epoch: AtomicU64::new(0),
            netted_ops: AtomicU64::new(0),
        }
    }

    fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    fn signal(&self, ib: &mut Inbox) {
        ib.signal = true;
        self.wake.notify_one();
    }

    /// Takes batch `seq` as the pool dispatches it (before any worker can
    /// apply it).
    pub(crate) fn offer(&self, seq: u64, batch: &Arc<EdgeBatch>) {
        let mut ib = lock(&self.inbox);
        debug_assert_eq!(ib.first + ib.batches.len() as u64, seq, "batches arrive in order");
        ib.batches.push_back(Arc::clone(batch));
        ib.ops += batch.len();
        if ib.armed && !ib.pinned && ib.ops >= REBASE_FLOOR {
            // Nobody reads: drop the read side instead of netting.
            ib.armed = false;
            self.signal(&mut ib);
        } else if ib.armed && ib.ops >= ib.fold_at {
            self.signal(&mut ib);
        }
        if !ib.armed {
            self.prune(&mut ib);
        }
    }

    /// Drops the batches every shard has applied (a disarmed read side
    /// keeps only what a bootstrap may still need).
    fn prune(&self, ib: &mut Inbox) {
        let acked = self.acked();
        while ib.first < acked {
            let Some(b) = ib.batches.pop_front() else { break };
            ib.ops -= b.len();
            ib.first += 1;
        }
    }

    /// The latest view, if a pin at `acked` may share it: a guard holds it,
    /// or no batch was acked since.
    fn shared(&self, acked: u64) -> Option<Arc<View>> {
        let st = lock(&self.state);
        let v = st.view.as_ref().filter(|v| Arc::strong_count(v) > 1 || v.epoch >= acked)?;
        let v = Arc::clone(v);
        lock(&self.inbox).pinned = true;
        Some(v)
    }

    /// The view [`ShardPool::pin`] hands out. `bootstrap` builds every
    /// shard's base from the live shard, with the batch boundary it was
    /// built at.
    fn pin(&self, bootstrap: impl FnOnce() -> Vec<(u64, CsrSnapshot)>) -> Arc<View> {
        let acked = self.acked();
        if let Some(v) = self.shared(acked) {
            return v;
        }
        let mut spare = lock(&self.fold);
        // Another pin may have folded while this one waited.
        if let Some(v) = self.shared(acked) {
            return v;
        }
        let armed = {
            let mut ib = lock(&self.inbox);
            // No offer drops the read side while this pin runs, and every
            // batch from here on is kept: a bootstrap nets from the oldest
            // boundary a shard is built at, which is ≥ acked.
            ib.pinned = true;
            std::mem::replace(&mut ib.armed, true)
        };
        if armed {
            self.fold(&spare, acked, false);
        } else {
            let built = bootstrap();
            let epoch = built.iter().map(|&(b, _)| b).max().unwrap_or(0).max(acked);
            let from: Vec<u64> = built.iter().map(|&(b, _)| b).collect();
            let mut parts: Vec<_> =
                built.into_iter().map(|(b, csr)| part(Arc::new(csr), b)).collect();
            let batches = self.take_batches(from.iter().copied().min().unwrap_or(epoch), epoch);
            *spare = None;
            self.net(&mut parts, &batches, Some(&from));
            let mut st = lock(&self.state);
            let generation = st.generation + 1;
            *st = State { parts, netted: epoch, view: None, generation };
            self.publish(&st, &spare);
        }
        let mut st = lock(&self.state);
        let view = Arc::new(View { epoch: st.netted, shards: st.parts.clone() });
        st.view = Some(Arc::clone(&view));
        if st.parts.iter().any(|p| p.overlay.len() >= rebase_size(&p.base)) {
            self.signal(&mut lock(&self.inbox));
        }
        view
    }

    /// Pops the batches before `target`, keeping those from `start` on.
    fn take_batches(&self, start: u64, target: u64) -> Vec<(u64, Arc<EdgeBatch>)> {
        let mut ib = lock(&self.inbox);
        debug_assert!(ib.first <= start, "batch {start} was dropped before it was netted");
        let mut out = Vec::new();
        while ib.first < target {
            let b = ib.batches.pop_front().expect("every dispatched batch was offered");
            ib.ops -= b.len();
            if ib.first >= start {
                out.push((ib.first, b));
            }
            ib.first += 1;
        }
        out
    }

    /// Nets the batches up to `target` into every shard's overlay, dropping
    /// them, with the fold lock held (`spare`). The rebaser's fold clears
    /// the pin flag, and gives up if an offer dropped the read side.
    fn fold(&self, spare: &Spare, target: u64, rebaser: bool) {
        let (mut parts, netted, generation) = {
            let st = lock(&self.state);
            (st.parts.clone(), st.netted, st.generation)
        };
        if target <= netted {
            return;
        }
        if rebaser {
            let mut ib = lock(&self.inbox);
            if !ib.armed {
                return;
            }
            ib.pinned = false;
        }
        let batches = self.take_batches(netted, target);
        self.net(&mut parts, &batches, None);
        let mut st = lock(&self.state);
        debug_assert_eq!(st.generation, generation, "parts change only under the fold lock");
        st.parts = parts;
        st.netted = target;
        self.publish(&st, spare);
    }

    /// Folds `batches` into `parts`' overlays. `from` gives each shard's
    /// first batch after its base when the bases were just built.
    fn net(
        &self,
        parts: &mut [PinnedShard],
        batches: &[(u64, Arc<EdgeBatch>)],
        from: Option<&[u64]>,
    ) {
        let n = self.shards;
        let mut claims: Vec<Claim> = (0..n).map(|_| Claim::default()).collect();
        for (seq, b) in batches {
            for op in b.ops() {
                let i = partition_of(op.src(), n);
                if from.is_none_or(|f| *seq >= f[i]) {
                    claims[i].push(op);
                }
            }
        }
        for (p, mut ops) in parts.iter_mut().zip(claims) {
            if !ops.is_empty() {
                p.overlay = Arc::new(p.overlay.fold(&p.base, &mut ops));
            }
        }
    }

    /// Updates the read side's gauges and the rebaser's fold trigger.
    fn publish(&self, st: &State, spare: &Spare) {
        let netted: usize = st.parts.iter().map(|p| p.overlay.len()).sum();
        let bytes: usize = st
            .parts
            .iter()
            .map(|p| p.base.memory_bytes() + p.overlay.memory_bytes())
            .chain(spare.iter().map(|s| s.memory_bytes()))
            .sum();
        let raw = {
            let mut ib = lock(&self.inbox);
            let sizes: usize = st.parts.iter().map(|p| rebase_size(&p.base)).sum();
            ib.fold_at = (sizes / 2).max(REBASE_FLOOR);
            ib.ops
        };
        let base_epoch = st.parts.iter().map(|p| p.base_epoch).min().unwrap_or(0);
        self.base_epoch.store(base_epoch, Ordering::Relaxed);
        self.netted_ops.store(netted as u64, Ordering::Relaxed);
        let m = crate::metrics::global();
        m.epoch_delta_ops.set((netted + raw) as i64);
        m.epoch_read_side_bytes.set((bytes + raw * std::mem::size_of::<UpdateOp>()) as i64);
    }

    /// The rebaser's loop: sleeps until signalled, then folds, drops or
    /// rebases until nothing is due.
    pub(crate) fn run_rebaser(&self) {
        loop {
            {
                let mut ib = lock(&self.inbox);
                while !ib.signal && !ib.shutdown {
                    ib = self.wake.wait(ib).expect("read side poisoned");
                }
                if ib.shutdown {
                    return;
                }
                ib.signal = false;
            }
            while self.step() {}
        }
    }

    /// One round of the rebaser; true when it rebased a shard and should
    /// look again.
    fn step(&self) -> bool {
        let mut spare = lock(&self.fold);
        let (armed, fold) = {
            let ib = lock(&self.inbox);
            (ib.armed, ib.armed && ib.ops >= ib.fold_at)
        };
        if !armed {
            self.drop_parts(&mut spare);
            return false;
        }
        if fold {
            self.fold(&spare, self.acked(), true);
        }
        if due(&lock(&self.state)).is_none() {
            return false;
        }
        let buffers = spare.take();
        drop(spare);
        let buffers = self.reclaim(buffers);
        let (i, base, overlay, epoch, generation) = {
            let _fold = lock(&self.fold);
            let st = lock(&self.state);
            let Some(i) = due(&st) else { return false };
            let p = &st.parts[i];
            (i, Arc::clone(&p.base), Arc::clone(&p.overlay), st.netted, st.generation)
        };

        let t = crate::metrics::timer();
        let next = merge(&base, &overlay, buffers);
        let mut spare = lock(&self.fold);
        let mut st = lock(&self.state);
        if st.generation != generation {
            *spare = Some(Arc::new(next));
            return true;
        }
        let p = &mut st.parts[i];
        p.overlay = Arc::new(p.overlay.rebased(&overlay, &base));
        let retired = std::mem::replace(&mut p.base, Arc::new(next));
        p.base_epoch = epoch;
        drop((base, overlay));
        *spare = Some(retired);
        // A cached view no guard holds would keep the retired base alive.
        if st.view.as_ref().is_some_and(|v| Arc::strong_count(v) == 1) {
            st.view = None;
        }
        self.publish(&st, &spare);
        let m = crate::metrics::global();
        m.epoch_rebases.inc();
        m.epoch_rebase_ns.record_since(t);
        true
    }

    /// The spare base's buffers, once the views that still read it let
    /// go: waiting a little keeps the read side at one spare base, where
    /// allocating afresh would leave a freed base resident. Gives up after
    /// [`SPARE_WAIT`] (a long query holds its view).
    fn reclaim(&self, spare: Spare) -> CsrSnapshot {
        let Some(mut spare) = spare else { return CsrSnapshot::default() };
        let deadline = Instant::now() + SPARE_WAIT;
        loop {
            match Arc::try_unwrap(spare) {
                Ok(csr) => return csr,
                Err(held) if Instant::now() < deadline && !lock(&self.inbox).shutdown => {
                    spare = held;
                    // The cached view may be the last holder.
                    let mut st = lock(&self.state);
                    if st.view.as_ref().is_some_and(|v| Arc::strong_count(v) == 1) {
                        st.view = None;
                    }
                    drop(st);
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => return CsrSnapshot::default(),
            }
        }
    }

    /// Drops the bases, overlays and spare (with the fold lock held).
    fn drop_parts(&self, spare: &mut Spare) {
        *spare = None;
        let mut st = lock(&self.state);
        if !st.parts.is_empty() || st.view.is_some() {
            let generation = st.generation + 1;
            *st = State { generation, ..State::default() };
            self.publish(&st, spare);
        }
    }

    /// Drops the bases: state changed outside batches, so the next pin
    /// bootstraps. Called with the pipeline settled.
    pub(crate) fn disarm(&self) {
        let mut spare = lock(&self.fold);
        self.drop_parts(&mut spare);
        let mut ib = lock(&self.inbox);
        ib.armed = false;
        self.prune(&mut ib);
    }

    /// Stops the rebaser.
    pub(crate) fn shut_down(&self) {
        lock(&self.inbox).shutdown = true;
        self.wake.notify_all();
    }

    /// `(base_epoch, delta_ops)`: the oldest shard base's batch boundary,
    /// and the ops netted after the bases plus those not yet netted.
    pub(crate) fn stats(&self) -> (u64, u64) {
        let raw = lock(&self.inbox).ops as u64;
        (self.base_epoch.load(Ordering::Relaxed), self.netted_ops.load(Ordering::Relaxed) + raw)
    }
}

/// The shard whose overlay is furthest past its rebase size, if any is.
fn due(st: &State) -> Option<usize> {
    st.parts
        .iter()
        .enumerate()
        .filter(|(_, p)| p.overlay.len() >= rebase_size(&p.base))
        .max_by_key(|(_, p)| p.overlay.len() * 1024 / rebase_size(&p.base))
        .map(|(i, _)| i)
}

fn part(base: Arc<CsrSnapshot>, base_epoch: u64) -> PinnedShard {
    PinnedShard { base, base_epoch, overlay: Arc::default() }
}

impl<S: ShardStore> ShardPool<S> {
    /// Pins a view of every shard at one batch boundary, at or after every
    /// batch acked before the call — or the view another live guard holds,
    /// so overlapping readers agree. The writer keeps applying later
    /// batches while the guard is held; the guard never changes.
    pub fn pin(&self) -> ReadGuard {
        // Covers any fold or bootstrap; the arg carries the serving request
        // id (0 outside a request) so a slow pin can be attributed.
        let _span = trace::span_arg(SpanId::EpochPin, trace::thread_ctx());
        let view = self.read_side().pin(|| self.build_bases());
        let m = crate::metrics::global();
        m.epoch_pins.inc();
        m.epoch_active_pins.inc();
        ReadGuard { view }
    }
}

/// An epoch pin: every query through the guard observes exactly the graph
/// after [`epoch`](Self::epoch) batches, however far the writer has moved
/// on. It is a [`GraphStore`](crate::GraphStore) with the pool's shards
/// and routing ([`ShardAccess`]), read with no pipeline barrier.
pub struct ReadGuard {
    view: Arc<View>,
}

impl ReadGuard {
    /// The pinned batch boundary: this view reflects exactly the first
    /// `epoch()` submitted batches, in order.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.view.epoch
    }
}

/// The bases and overlays at the pinned epoch, with the live pool's
/// partitioning; no barrier.
impl ShardAccess for ReadGuard {
    type Shard = PinnedShard;

    fn shard_count(&self) -> usize {
        self.view.shards.len()
    }
    fn with_shard<R>(&self, i: usize, f: impl FnOnce(&PinnedShard) -> R) -> R {
        f(&self.view.shards[i])
    }
}

impl Drop for ReadGuard {
    fn drop(&mut self) {
        crate::metrics::global().epoch_active_pins.dec();
    }
}

impl std::fmt::Debug for ReadGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadGuard").field("epoch", &self.epoch()).finish()
    }
}
