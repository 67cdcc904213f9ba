//! The hybrid graph engine (paper §IV).
//!
//! An **edge-centric Gather-Apply-Scatter** engine over any dynamic graph
//! store, with three execution policies per iteration:
//!
//! * **Full processing (FP)** — stream *all* edges sequentially (GraphTinker
//!   serves this from the compacted CAL) and filter by the active bitset;
//!   wins when many vertices are active.
//! * **Incremental processing (IP)** — walk only the active vertices'
//!   out-edges (random access into the EdgeblockArray); wins when few are.
//! * **Hybrid** — the paper's inference box picks FP or IP *per iteration*
//!   from the prediction formula `T = A / E` with `threshold = 0.02`
//!   (A = active vertices for the next iteration, E = edges loaded so far).
//!
//! Graph algorithms are expressed as [`GasProgram`]s (processEdge / reduce /
//! apply); BFS, SSSP and weakly-connected components ship in
//! [`algorithms`]. The engine is generic over [`GraphStore`] — the one
//! store contract, declared in `gtinker-core` and re-exported here —
//! implemented by [`gtinker_core::GraphTinker`], its sharded forms and the
//! [`gtinker_stinger::Stinger`] baseline, so every comparison in the
//! paper's Figs. 11-16 runs through identical engine code.
//!
//! [`walk()`] is the cold solver beside it for selective programs
//! ([`IncrementalState`]: BFS, SSSP, CC): a frontier walk that commits
//! each improvement in place, which the served `/query/*` routes use.
//!
//! ## Example: BFS over a dynamic graph
//!
//! ```
//! use gtinker_core::GraphTinker;
//! use gtinker_engine::{algorithms::Bfs, Engine, ModePolicy};
//! use gtinker_types::{Edge, EdgeBatch};
//!
//! let mut g = GraphTinker::with_defaults();
//! g.apply_batch(&EdgeBatch::inserts(&[
//!     Edge::unit(0, 1),
//!     Edge::unit(1, 2),
//!     Edge::unit(2, 3),
//! ]));
//!
//! let mut engine = Engine::new(Bfs::new(0), ModePolicy::hybrid());
//! let report = engine.run_from_roots(&g);
//! assert_eq!(engine.values()[3], 3); // three hops from the root
//! assert!(report.iterations.len() >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod csr;
pub mod dynamic;
pub mod engine;
pub mod gas;
pub mod store;
pub mod walk;

pub use csr::CsrSnapshot;
pub use dynamic::{DynamicRunner, RestartPolicy};
pub use engine::{Engine, IterationStats, RunReport, NO_WITNESS};
pub use gas::{ExecMode, GasProgram, IncrementalState, ModePolicy};
pub use store::GraphStore;
pub use walk::{walk, Walk};
