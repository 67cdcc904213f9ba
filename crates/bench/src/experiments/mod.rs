//! One module per paper table/figure. Each exposes
//! `pub fn run(args: &Args) -> Table` (Fig. 19 returns one table too); the
//! binaries print the table and persist it as TSV, and `run_all` chains
//! them.

pub mod ablation;
pub mod cal_vs_csr;
pub mod common;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig10_analytics;
pub mod fig11_13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig_adaptive;
pub mod fig_incremental;
pub mod fig_ingest_pipeline;
pub mod fig_log_overhead;
pub mod fig_metrics_overhead;
pub mod fig_persist;
pub mod fig_serve_concurrent;
pub mod fig_trace_overhead;
pub mod geometry;
pub mod hybrid_accuracy;
pub mod table1;
