//! Shared experiment machinery.

use std::time::{Duration, Instant};

use gtinker_core::{ApplyBatch, GraphTinker};
use gtinker_datasets::{dataset_by_name, insertion_batches, DatasetSpec};
use gtinker_engine::{
    algorithms::{Bfs, Cc, Sssp},
    dynamic::symmetrize,
    DynamicRunner, GraphStore, IncrementalState, ModePolicy, RestartPolicy,
};
use gtinker_stinger::Stinger;
use gtinker_types::{EdgeBatch, TinkerConfig, VertexId};

pub use gtinker_datasets::catalog::scaled_datasets;

/// The Hollywood-2009 stand-in at the requested scale.
pub fn hollywood(scale_factor: u32) -> DatasetSpec {
    dataset_by_name("Hollywood-2009", scale_factor).expect("catalog dataset")
}

/// The RMAT_2M_32M dataset at the requested scale (deletion experiments).
pub fn rmat_2m_32m(scale_factor: u32) -> DatasetSpec {
    dataset_by_name("RMAT_2M_32M", scale_factor).expect("catalog dataset")
}

/// Splits a dataset into `n` insertion batches, optionally symmetrized
/// (CC needs undirected semantics).
pub fn dataset_batches(spec: &DatasetSpec, n: usize, sym: bool) -> Vec<EdgeBatch> {
    let edges = spec.generate();
    let batch_size = edges.len().div_ceil(n).max(1);
    let batches = insertion_batches(&edges, batch_size);
    if sym {
        batches.iter().map(symmetrize).collect()
    } else {
        batches
    }
}

/// Inserts each batch, timing it; returns `(ops, duration)` per batch.
pub fn timed_inserts<S: ApplyBatch>(store: &mut S, batches: &[EdgeBatch]) -> Vec<(u64, Duration)> {
    batches
        .iter()
        .map(|b| {
            let t0 = Instant::now();
            store.apply(b);
            (b.len() as u64, t0.elapsed())
        })
        .collect()
}

/// The benchmark algorithms, selectable at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Breadth-first search.
    Bfs,
    /// Single-source shortest paths.
    Sssp,
    /// Weakly-connected components (symmetrized input).
    Cc,
}

impl Algo {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Bfs => "BFS",
            Algo::Sssp => "SSSP",
            Algo::Cc => "CC",
        }
    }

    /// Whether the algorithm needs symmetrized (undirected) edges.
    pub fn needs_symmetry(&self) -> bool {
        matches!(self, Algo::Cc)
    }
}

/// An engine-policy series of the analytics figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// Hybrid engine: incremental continuation, inference-box per iteration.
    Hybrid,
    /// Full-processing mode: the store-and-static-compute model.
    FullProcessing,
    /// Incremental-processing mode: incremental continuation, always IP.
    Incremental,
    /// Degree-aware hybrid (this reproduction's extension of the paper's
    /// future-work direction): incremental continuation, per-iteration
    /// FP/IP choice by comparing actual per-mode work.
    DegreeAware,
}

impl Series {
    fn policies(&self) -> (ModePolicy, RestartPolicy) {
        match self {
            Series::Hybrid => (ModePolicy::hybrid(), RestartPolicy::Incremental),
            Series::FullProcessing => (ModePolicy::AlwaysFull, RestartPolicy::StaticRecompute),
            Series::Incremental => (ModePolicy::AlwaysIncremental, RestartPolicy::Incremental),
            Series::DegreeAware => (ModePolicy::degree_aware(), RestartPolicy::Incremental),
        }
    }
}

/// Outcome of one dynamic-analytics run (insert batches, re-analyze after
/// each).
#[derive(Debug, Clone, Copy)]
pub struct AnalyticsOutcome {
    /// Σ over analysis points of the live edge count — the figures'
    /// common throughput numerator.
    pub weighted_edges: u64,
    /// Total analytics wall time (updates excluded).
    pub analytics_time: Duration,
}

impl AnalyticsOutcome {
    /// Effective processing throughput in million edges/second.
    pub fn throughput_meps(&self) -> f64 {
        crate::report::meps(self.weighted_edges, self.analytics_time)
    }
}

fn drive<S: ApplyBatch + GraphStore + Sync, P: IncrementalState>(
    store: &mut S,
    batches: &[EdgeBatch],
    program: P,
    series: Series,
) -> AnalyticsOutcome {
    let (mode, restart) = series.policies();
    let mut runner = DynamicRunner::new(program, mode, restart);
    let mut weighted = 0u64;
    let mut time = Duration::ZERO;
    for b in batches {
        store.apply(b);
        let t0 = Instant::now();
        runner.after_batch(&*store, b);
        time += t0.elapsed();
        weighted += store.num_edges();
    }
    AnalyticsOutcome { weighted_edges: weighted, analytics_time: time }
}

/// Runs one algorithm under one series over a fresh store of type `S`,
/// streaming the given batches.
pub fn run_analytics<S: ApplyBatch + GraphStore + Sync>(
    mut store: S,
    batches: &[EdgeBatch],
    algo: Algo,
    series: Series,
    root: VertexId,
) -> AnalyticsOutcome {
    match algo {
        Algo::Bfs => drive(&mut store, batches, Bfs::new(root), series),
        Algo::Sssp => drive(&mut store, batches, Sssp::new(root), series),
        Algo::Cc => drive(&mut store, batches, Cc::new(), series),
    }
}

/// A root vertex guaranteed to have outgoing edges: the first batch's first
/// insert source.
pub fn pick_root(batches: &[EdgeBatch]) -> VertexId {
    batches.iter().flat_map(|b| b.iter()).find(|op| op.is_insert()).map(|op| op.src()).unwrap_or(0)
}

/// Fresh GraphTinker with the paper's fixed layout ([`TinkerConfig::paper`]),
/// which every paper-figure experiment measures.
pub fn fresh_tinker() -> GraphTinker {
    fresh_tinker_with(TinkerConfig::paper())
}

/// Fresh GraphTinker with a custom configuration.
pub fn fresh_tinker_with(config: TinkerConfig) -> GraphTinker {
    GraphTinker::new(config).expect("valid experiment config")
}

/// Fresh STINGER with the paper-default configuration (edgeblock size 16).
pub fn fresh_stinger() -> Stinger {
    Stinger::with_defaults()
}

/// Serialises tests that toggle the process-global observability flags
/// (metrics/trace runtime enables), so parallel test threads cannot
/// observe each other's mid-measurement state.
#[cfg(test)]
pub(crate) static OBS_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
