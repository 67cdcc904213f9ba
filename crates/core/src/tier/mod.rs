//! The three adjacency tiers of the degree-adaptive layout, one module
//! each: [`InlineTier`] (a handful of edges packed into the vertex entry),
//! [`BlockTier`] (the paper's hashed edgeblock tree) and [`HubTier`] (one
//! sorted dense segment per high-degree vertex).
//!
//! Every tier owns its storage and its per-source side table, and answers
//! the same [`TierOps`] on a dense source id. [`GraphTinker`] keeps what
//! is shared — SGH, vertex properties, [`ProbeStats`], the per-vertex tier
//! map and the threshold policy — and reaches a tier through one static
//! `match` on the vertex's [`Tier`](crate::vertex::Tier); moving a vertex
//! between tiers is [`drain`](TierOps::drain) from one and
//! [`adopt`](TierOps::adopt) into the other. A tier's table grows on its
//! first write to a source and its reads go through `.get()`, so a tier no
//! vertex enters allocates nothing.
//!
//! The CAL is the edgeblock tier's own: only [`BlockTier`] edges have a
//! CAL copy, registered when an edge enters the tier (insert or adopt) and
//! invalidated when it leaves (delete or drain). Inline entries and hub
//! segments are dense runs already, which the store streams in place.
//!
//! [`GraphTinker`]: crate::GraphTinker

mod blocks;
mod hub;
mod inline;

pub use blocks::BlockTier;
pub use hub::HubTier;
pub use inline::InlineTier;

use gtinker_types::{Edge, VertexId, Weight};

use crate::stats::ProbeStats;

/// A stored edge as the tiers exchange it: `(dst, weight)`.
pub type TierEdge = (VertexId, Weight);

/// Outcome of [`TierOps::upsert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Upsert {
    /// The edge was new and is stored.
    Inserted,
    /// The edge was present: its weight is overwritten.
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
/// accounting of the walk.
pub trait TierOps {
    /// Weight of the edge to `dst`, if the tier holds it. Pure.
    fn find(&self, dense: u32, dst: VertexId) -> Option<Weight>;

    /// Inserts `e` or overwrites its weight.
    fn upsert(&mut self, dense: u32, e: Edge, h0: u64, stats: &mut ProbeStats) -> Upsert;

    /// Removes the edge to `dst`; `false` when the tier does not hold it.
    fn remove(&mut self, dense: u32, dst: VertexId, h0: u64, stats: &mut ProbeStats) -> bool;

    /// Visits the live edges of `dense` as `(dst, weight)`, in the tier's
    /// storage order (the order [`drain`](Self::drain) returns).
    fn for_each(&self, dense: u32, f: impl FnMut(VertexId, Weight));

    /// Live edges held for `dense`.
    fn len(&self, dense: u32) -> usize;

    /// Whether the tier owns storage for `dense` (an occupied inline entry,
    /// a top block, a hub slot). A vertex is held by at most one tier.
    fn holds(&self, dense: u32) -> bool;

    /// Takes every edge of `dense` out of the tier and releases its
    /// storage. Order: inline slots, edgeblock subtree walk, hub key array.
    fn drain(&mut self, dense: u32) -> Vec<TierEdge>;

    /// Stores `edges` (absent from the tier) for `dense`, whose original
    /// id is `src`; the tier must not hold `dense`.
    fn adopt(&mut self, dense: u32, src: VertexId, edges: Vec<TierEdge>, stats: &mut ProbeStats);

    /// Loads the word an operation on `dense` reads first and returns it
    /// (the resolve-ahead window's touch; mutates and counts nothing).
    fn warm(&self, dense: u32) -> u32;

    /// Estimated heap bytes held by the tier.
    fn memory_bytes(&self) -> usize;

    /// Checks the tier's own structural invariants; the first violation is
    /// returned as an error string.
    fn validate(&self) -> Result<(), String>;
}
