//! Benchmark harness for the GraphTinker reproduction.
//!
//! Every table and figure of the paper's evaluation (§V) has a
//! corresponding experiment module under [`experiments`], named in
//! [`experiments::REGISTRY`]; the one binary, `gtinker-bench`, runs the
//! named experiments (`all` = the full suite) and writes each result to
//! `results/<name>.tsv`.
//!
//! All experiments honor two environment knobs (also settable as CLI
//! flags):
//!
//! * `GT_SCALE_FACTOR` (default 64) — divides every dataset's vertex and
//!   edge counts; 1 reproduces the paper-reported sizes (needs tens of GB
//!   and hours).
//! * `GT_BATCHES` (default 10) — number of update batches each stream is
//!   split into (the paper uses fixed 1 M-edge batches; at reduced scale a
//!   fixed batch count keeps every figure's x-axis shape).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod plot;
pub mod report;

pub use cli::Args;
pub use report::Table;
