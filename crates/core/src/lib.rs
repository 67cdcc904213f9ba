//! # GraphTinker
//!
//! A from-scratch Rust implementation of **GraphTinker** (Jaiyeoba &
//! Skadron, IPDPS 2019): a dynamic-graph data structure that replaces the
//! adjacency-list edgeblock chains of STINGER with a hierarchy of hashed
//! edgeblocks, combining
//!
//! * **Robin Hood Hashing** (within subblocks) to bound probe distance,
//! * **Tree-Based Hashing** ("branching out" congested subblocks into child
//!   edgeblocks in an overflow region) to grow arbitrarily while keeping the
//!   average probe distance `O(log n)` in the vertex degree,
//! * a **Scatter-Gather Hashing (SGH)** unit that densely remaps source
//!   vertex ids so only non-empty vertices occupy the main region, and
//! * a **Coarse Adjacency List (CAL)** — a compacted, sequentially
//!   streamable copy of the edgeblocks' live edges, maintained in real time
//!   through per-edge CAL-pointers so analytics never needs a
//!   pre-processing pass (the tiered layout's inline and hub runs stream in
//!   place).
//!
//! The crate is 100 % safe Rust: the edge store is a flat arena of
//! fixed-width blocks addressed by index, so there are no linked-list
//! pointers and no `unsafe`.
//!
//! ## Quick start
//!
//! ```
//! use gtinker_core::GraphTinker;
//! use gtinker_types::{Edge, EdgeBatch, TinkerConfig};
//!
//! let mut g = GraphTinker::new(TinkerConfig::default()).unwrap();
//! g.apply_batch(&EdgeBatch::inserts(&[
//!     Edge::unit(0, 1),
//!     Edge::unit(0, 2),
//!     Edge::unit(1, 2),
//! ]));
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.out_degree(0), 2);
//! assert!(g.contains_edge(0, 1));
//!
//! // Sequential, compacted retrieval (serves full-processing analytics):
//! let mut n = 0;
//! g.for_each_edge(|_src, _dst, _w| n += 1);
//! assert_eq!(n, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cal;
pub mod csr;
pub mod delta;
pub mod edgeblock;
pub mod epoch;
pub mod hash;
pub mod hubseg;
pub mod log;
pub mod metrics;
pub mod parallel;
pub mod pool;
pub mod rhh;
pub mod segvec;
pub mod sgh;
pub mod stats;
pub mod store;
pub mod swar;
pub mod tier;
pub mod tinker;
pub mod trace;
pub mod vertex;

pub use cal::{CalArray, CalPtr};
pub use csr::CsrSnapshot;
pub use delta::PinnedShard;
pub use edgeblock::{BlockArena, CellState, EdgeCell};
pub use epoch::ReadGuard;
pub use hubseg::HubSegment;
pub use metrics::{HistogramSnapshot, Metrics, MetricsSnapshot};
pub use parallel::{ParallelTinker, ShardAccess};
pub use pool::{ShardPool, ShardStore};
pub use sgh::SghUnit;
pub use stats::{ClassBlocks, ProbeStats, StructureStats};
pub use store::GraphStore;
pub use tier::{BlockTier, HubTier, InlineTier, TierEdge, TierOps, Upsert};
pub use tinker::{ApplyBatch, BatchResult, GraphTinker};
pub use trace::{SpanId, TraceDump, TraceEvent};
pub use vertex::{InlineAdj, Tier, VertexProperty, VertexPropertyArray};
