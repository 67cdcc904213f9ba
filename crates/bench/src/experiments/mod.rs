//! One module per paper table/figure, each exposing `run(&Args) -> Table`,
//! and the [`REGISTRY`] that names them for the `gtinker-bench` binary.

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
pub mod fig_overhead;
pub mod fig_persist;
pub mod geometry;
pub mod hybrid_accuracy;
pub mod table1;

use crate::{Args, Table};
use common::Algo;
use fig_overhead::Layer;

/// One runnable experiment.
pub struct Experiment {
    /// What the command line calls it; also the name of the [`Table`] it
    /// returns, so `<name>.tsv` and `BENCH_<name>.json` are its outputs.
    pub name: &'static str,
    /// The paper table/figure (or the extension) it regenerates.
    pub label: &'static str,
    /// Runs it.
    pub run: fn(&Args) -> Table,
}

/// Every experiment, in the order `all` runs them.
pub const REGISTRY: &[Experiment] = &[
    Experiment { name: "table1_datasets", label: "Table 1", run: table1::run },
    Experiment { name: "fig08_insert_load", label: "Fig 8", run: fig08::run },
    Experiment { name: "fig09_insert_datasets", label: "Fig 9", run: fig09::run },
    Experiment { name: "fig10_multicore", label: "Fig 10", run: fig10::run },
    Experiment { name: "fig10_analytics", label: "Fig 10 analytics", run: fig10_analytics::run },
    Experiment { name: "fig11_bfs", label: "Fig 11", run: |a| fig11_13::run(a, Algo::Bfs) },
    Experiment { name: "fig12_sssp", label: "Fig 12", run: |a| fig11_13::run(a, Algo::Sssp) },
    Experiment { name: "fig13_cc", label: "Fig 13", run: |a| fig11_13::run(a, Algo::Cc) },
    Experiment { name: "fig14_delete", label: "Fig 14", run: fig14::run },
    Experiment { name: "fig15_bfs_after_delete", label: "Fig 15", run: fig15::run },
    Experiment { name: "fig16_delete_analytics", label: "Fig 16", run: fig16::run },
    Experiment { name: "fig17_pagewidth_insert", label: "Fig 17", run: fig17::run },
    Experiment { name: "fig18_pagewidth_bfs", label: "Fig 18", run: fig18::run },
    Experiment { name: "fig19_pagewidth_optimal", label: "Fig 19", run: fig19::run },
    Experiment { name: "ablation_sgh_cal", label: "Ablation", run: ablation::run },
    Experiment { name: "ablation_cal_vs_csr", label: "CAL vs CSR", run: cal_vs_csr::run },
    Experiment { name: "ablation_geometry", label: "Geometry ablation", run: geometry::run },
    Experiment { name: "hybrid_accuracy", label: "Hybrid accuracy", run: hybrid_accuracy::run },
    Experiment { name: "fig_persist", label: "Persistence", run: fig_persist::run },
    Experiment {
        name: "fig_metrics_overhead",
        label: "Metrics overhead",
        run: |a| fig_overhead::run(a, Layer::Metrics),
    },
    Experiment {
        name: "fig_trace_overhead",
        label: "Trace overhead",
        run: |a| fig_overhead::run(a, Layer::Trace),
    },
    Experiment {
        name: "fig_log_overhead",
        label: "Log overhead",
        run: |a| fig_overhead::run(a, Layer::Log),
    },
    Experiment { name: "fig_adaptive", label: "Adaptive tiers", run: fig_adaptive::run },
    Experiment {
        name: "fig_incremental",
        label: "Incremental analytics",
        run: fig_incremental::run,
    },
];

/// Resolves command-line experiment names (`all` = the whole registry)
/// against the registry; an unknown name is an error naming it.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names == ["all"] {
        return Ok(REGISTRY.iter().collect());
    }
    names
        .iter()
        .map(|n| {
            REGISTRY.iter().find(|e| e.name == n).ok_or_else(|| format!("unknown experiment {n}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let names: std::collections::HashSet<_> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn select_resolves_names_in_order_and_rejects_unknown_ones() {
        let all = select(&["all".to_string()]).unwrap();
        assert_eq!(all.len(), REGISTRY.len());
        let two = select(&["fig13_cc".to_string(), "fig_persist".to_string()]).unwrap();
        assert_eq!(two.iter().map(|e| e.name).collect::<Vec<_>>(), ["fig13_cc", "fig_persist"]);
        let e = select(&["fig11_bfs".to_string(), "fig99".to_string()]).err().unwrap();
        assert_eq!(e, "unknown experiment fig99");
    }
}
