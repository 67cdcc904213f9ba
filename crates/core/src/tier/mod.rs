//! The three adjacency tiers of the degree-adaptive layout, one module
//! each: [`InlineTier`] (a handful of edges packed into the vertex entry),
//! [`BlockTier`] (the paper's hashed edgeblock tree) and [`HubTier`] (one
//! sorted dense segment per high-degree vertex).
//!
//! Every tier owns its storage and its per-source side table, and answers
//! the same [`TierOps`] on a dense source id. [`GraphTinker`] keeps what
//! is shared — SGH, vertex properties, CAL, [`ProbeStats`], the per-vertex
//! tier map and the threshold policy — and reaches a tier through one
//! static `match` on the vertex's [`Tier`](crate::vertex::Tier); moving a
//! vertex between tiers is [`drain`](TierOps::drain) from one and
//! [`adopt`](TierOps::adopt) into the other. A tier's table grows on its
//! first write to a source and its reads go through `.get()`, so a tier no
//! vertex enters allocates nothing.
//!
//! [`GraphTinker`]: crate::GraphTinker

mod blocks;
mod hub;
mod inline;

pub use blocks::BlockTier;
pub use hub::HubTier;
pub use inline::InlineTier;

use gtinker_types::{Edge, VertexId, Weight};

use crate::cal::CalArray;
use crate::stats::ProbeStats;

/// A stored edge as the tiers exchange it: `(dst, weight, cal_ptr)`. The
/// CAL pointer travels with the edge, so a migration never touches the CAL.
pub type TierEdge = (VertexId, Weight, u32);

/// Outcome of [`TierOps::upsert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Upsert {
    /// The edge was new: main copy anchored, CAL copy appended.
    Inserted,
    /// The edge was present: weight overwritten in both copies.
    Updated,
    /// The edge is new and the tier has no room for it; nothing was
    /// written. An inline entry at its cap and an edgeblock page narrower
    /// than PAGEWIDTH whose subblock is congested report it; the store
    /// moves the vertex up and retries.
    Full,
}

/// The operations every tier answers for one dense source id. `h0` is the
/// hoisted depth-0 [`edge_hash`](crate::hash::edge_hash) of the destination
/// (the update path mixes each destination once); `stats` takes the probe
/// accounting of the walk, `cal` the store's optional CAL.
pub trait TierOps {
    /// Weight of the edge to `dst`, if the tier holds it. Pure.
    fn find(&self, dense: u32, dst: VertexId) -> Option<Weight>;

    /// Inserts `e` or overwrites its weight, mirroring either into `cal`.
    fn upsert(
        &mut self,
        dense: u32,
        e: Edge,
        h0: u64,
        stats: &mut ProbeStats,
        cal: &mut Option<CalArray>,
    ) -> Upsert;

    /// Removes the edge to `dst`, returning its CAL pointer for the caller
    /// to invalidate; `None` when the tier does not hold it.
    fn remove(&mut self, dense: u32, dst: VertexId, h0: u64, stats: &mut ProbeStats)
        -> Option<u32>;

    /// Visits the live edges of `dense` as `(dst, weight, cal_ptr)`, in the
    /// tier's storage order (the order [`drain`](Self::drain) returns).
    fn for_each(&self, dense: u32, f: impl FnMut(VertexId, Weight, u32));

    /// Live edges held for `dense`.
    fn len(&self, dense: u32) -> usize;

    /// Whether the tier owns storage for `dense` (an occupied inline entry,
    /// a top block, a hub slot). A vertex is held by at most one tier.
    fn holds(&self, dense: u32) -> bool;

    /// Takes every edge of `dense` out of the tier and releases its
    /// storage. Order: inline slots, edgeblock subtree walk, hub key array.
    fn drain(&mut self, dense: u32) -> Vec<TierEdge>;

    /// Stores `edges` (absent from the tier, CAL copies already registered)
    /// for `dense`, which the tier must not hold.
    fn adopt(&mut self, dense: u32, edges: Vec<TierEdge>, stats: &mut ProbeStats);

    /// Replaces the CAL pointer of every live edge of `dense` with
    /// `f(dst, weight)`, in [`for_each`](Self::for_each) order (the CAL
    /// rebuild re-registers each edge and hands back its new slot).
    fn remap_cal_ptrs(&mut self, dense: u32, f: impl FnMut(VertexId, Weight) -> u32);

    /// Loads the word an operation on `dense` reads first and returns it
    /// (the resolve-ahead window's touch; mutates and counts nothing).
    fn warm(&self, dense: u32) -> u32;

    /// Estimated heap bytes held by the tier.
    fn memory_bytes(&self) -> usize;

    /// Checks the tier's own structural invariants; the first violation is
    /// returned as an error string.
    fn validate(&self) -> Result<(), String>;
}
