//! Workload substrate for the GraphTinker reproduction.
//!
//! The paper evaluates on four synthetic RMAT graphs (Graph500 generator)
//! and two real-world graphs from the UF Sparse Matrix Collection
//! (Hollywood-2009 and Kron_g500-logn21). The real datasets are not
//! redistributable here, so this crate provides *shape-preserving stand-ins*
//! (see DESIGN.md §3):
//!
//! * [`rmat`] — a seeded Graph500 RMAT generator (a/b/c/d = .57/.19/.19/.05),
//!   which is also the family Kron_g500-logn21 belongs to;
//! * [`powerlaw`] — a Chung-Lu style power-law generator tuned to
//!   Hollywood-2009's signature: heavy degree skew with a very high average
//!   degree (~100);
//! * [`catalog`] — Table 1's dataset list with paper-reported sizes and a
//!   `scale_factor` knob that shrinks every dataset proportionally so the
//!   full evaluation fits on a laptop;
//! * [`stream`] — batching utilities (1 M-edge update batches, deletion
//!   streams, high-degree root pre-collection for Fig. 19);
//! * [`io`] — plain edge-list file I/O.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod io;
pub mod powerlaw;
pub mod rmat;
pub mod stream;

pub use catalog::{dataset_by_name, scaled_datasets, DatasetKind, DatasetSpec};
pub use powerlaw::{PowerLawConfig, SourceSkewConfig};
pub use rmat::RmatConfig;
pub use stream::{churn_batches, deletion_batches, insertion_batches, top_degree_vertices};
