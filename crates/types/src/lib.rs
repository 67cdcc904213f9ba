//! Shared primitive types for the GraphTinker workspace.
//!
//! This crate defines the vocabulary every other crate speaks: vertex ids,
//! edges, update operations, batches of updates, and the configuration
//! structures that parameterize the GraphTinker data structure
//! ([`TinkerConfig`]) and the STINGER baseline ([`StingerConfig`]).
//!
//! Keeping these in a leaf crate lets the data-structure crates
//! (`gtinker-core`, `gtinker-stinger`), the engine (`gtinker-engine`), the
//! workload generators (`gtinker-datasets`) and the benchmark harness
//! (`gtinker-bench`) interoperate without depending on one another.

#![forbid(unsafe_code)]

mod config;
mod edge;
mod error;

pub use config::{DeleteMode, StingerConfig, TinkerConfig, INLINE_CAP_MAX};
pub use edge::{partition_of, Edge, EdgeBatch, UpdateOp};
pub use error::{GraphError, Result};

/// Identifier of a vertex. The paper's datasets top out at ~2 M vertices, so
/// 32 bits is ample; using the narrow type halves edge-cell size versus
/// `u64` and measurably improves cache behaviour (see perf-book, Type Sizes).
pub type VertexId = u32;

/// Edge weight. Unit weights are used for BFS/CC; the SSSP workloads assign
/// small random weights.
pub type Weight = u32;

/// Sentinel meaning "no vertex" / "empty slot".
pub const NIL_VERTEX: VertexId = VertexId::MAX;

/// Sentinel meaning "no index" for 32-bit intra-structure indices
/// (block pointers, CAL pointers, free-list links).
pub const NIL_U32: u32 = u32::MAX;
