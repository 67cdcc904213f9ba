//! Runs the complete evaluation suite (every table and figure) and writes
//! each result to `<out-dir>/<experiment>.tsv`.

use gtinker_bench::experiments::{self, common::Algo};
use gtinker_bench::{Args, Table};

type Experiment = Box<dyn Fn(&Args) -> Table>;

fn main() {
    let args = Args::parse();
    println!(
        "GraphTinker evaluation suite — scale factor {}, {} batches, threads {:?}\n",
        args.scale_factor, args.batches, args.threads
    );
    let suite: Vec<(&str, Experiment)> = vec![
        ("Table 1", Box::new(experiments::table1::run)),
        ("Fig 8", Box::new(experiments::fig08::run)),
        ("Fig 9", Box::new(experiments::fig09::run)),
        ("Fig 10", Box::new(experiments::fig10::run)),
        ("Fig 10 analytics", Box::new(experiments::fig10_analytics::run)),
        ("Fig 11", Box::new(|a: &Args| experiments::fig11_13::run(a, Algo::Bfs))),
        ("Fig 12", Box::new(|a: &Args| experiments::fig11_13::run(a, Algo::Sssp))),
        ("Fig 13", Box::new(|a: &Args| experiments::fig11_13::run(a, Algo::Cc))),
        ("Fig 14", Box::new(experiments::fig14::run)),
        ("Fig 15", Box::new(experiments::fig15::run)),
        ("Fig 16", Box::new(experiments::fig16::run)),
        ("Fig 17", Box::new(experiments::fig17::run)),
        ("Fig 18", Box::new(experiments::fig18::run)),
        ("Fig 19", Box::new(experiments::fig19::run)),
        ("Ablation", Box::new(experiments::ablation::run)),
        ("CAL vs CSR", Box::new(experiments::cal_vs_csr::run)),
        ("Geometry ablation", Box::new(experiments::geometry::run)),
        ("Hybrid accuracy", Box::new(experiments::hybrid_accuracy::run)),
        ("Persistence", Box::new(experiments::fig_persist::run)),
        ("Ingest pipeline", Box::new(experiments::fig_ingest_pipeline::run)),
        ("Metrics overhead", Box::new(experiments::fig_metrics_overhead::run)),
        ("Trace overhead", Box::new(experiments::fig_trace_overhead::run)),
        ("Log overhead", Box::new(experiments::fig_log_overhead::run)),
        ("Adaptive tiers", Box::new(experiments::fig_adaptive::run)),
        ("Serve concurrent", Box::new(experiments::fig_serve_concurrent::run)),
        ("Incremental analytics", Box::new(experiments::fig_incremental::run)),
    ];
    for (label, f) in suite {
        let t0 = std::time::Instant::now();
        let table = f(&args);
        table.print();
        if let Err(e) = table.write_tsv(&args.out_dir) {
            eprintln!("warning: could not write TSV for {label}: {e}");
        }
        println!("[{label} done in {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
}
