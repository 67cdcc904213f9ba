//! Durable ingest for the GraphTinker workspace: checksummed snapshots, a
//! write-ahead log, and crash recovery.
//!
//! The paper's GraphTinker is an in-memory structure; this crate gives it
//! a persistence story without touching the hot update path's design:
//!
//! * [`snapshot`] — versioned, section-checksummed binary images of a
//!   [`GraphTinker`](gtinker_core::GraphTinker) (one store or every shard
//!   of a [`ParallelTinker`](gtinker_core::ParallelTinker)), published
//!   atomically (`.tmp` + rename), restoring to an equivalent store at any
//!   shard count.
//! * [`wal`] — an append-only log of [`EdgeBatch`](gtinker_types::EdgeBatch)
//!   records with per-record CRC-32, configurable [`SyncPolicy`], and
//!   size-based segment rotation.
//! * [`recover`] — newest valid snapshot + longest-valid-prefix WAL
//!   replay; torn or bit-flipped tails are truncated, corrupt snapshots
//!   fall back to older ones.
//! * [`fault`] — deterministic corruption of bytes at rest
//!   (truncate-at-byte, short write, bit flip) the recovery tests sweep
//!   over every interesting offset.
//! * [`DurableTinker`] — the one durable write path: a WAL on the caller's
//!   thread in front of N ≥ 1 interval shards. Log, then hand to the shard
//!   workers (which apply while the next batch is logged); snapshot folds
//!   and prunes the log; a directory reopens at any shard count.
//!
//! ```no_run
//! use gtinker_core::GraphStore;
//! use gtinker_persist::{DurableTinker, WalOptions};
//! use gtinker_types::{Edge, EdgeBatch, TinkerConfig};
//!
//! let dir = std::path::Path::new("graph.db");
//! // Two shards; readers of `db.store()` may pin epoch views meanwhile.
//! let (mut db, report) =
//!     DurableTinker::open(dir, TinkerConfig::default(), WalOptions::default(), 2)?;
//! println!("recovered {} batches", report.replayed_records);
//! db.apply_batch(EdgeBatch::inserts(&[Edge::unit(1, 2)]))?; // durable on return
//! assert!(db.store().has_edge(1, 2)); // reads wait for the apply
//! db.snapshot()?; // fold the log into an image, prune segments
//! # Ok::<(), gtinker_persist::PersistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod fault;
pub mod format;
pub mod recover;
pub mod snapshot;
pub mod wal;

pub use durable::DurableTinker;
pub use fault::{apply_fault, corrupt_file, Fault};
pub use format::{crc32, PersistError, Result};
pub use recover::{recover_sharded, recover_tinker, RecoveryReport};
pub use snapshot::{
    list_snapshots, load_tinker_snapshot, write_tinker_snapshot, SnapshotEntry, SNAPSHOT_MAGIC,
};
pub use wal::{
    list_segments, prune_segments, replay, SyncPolicy, WalOptions, WalReplay, WalWriter, WAL_MAGIC,
};
