//! The benchmark harness: runs registered experiments, printing each
//! table and writing `<out-dir>/<name>.tsv` (plus `BENCH_<name>.json` for
//! the experiments that report facts).
//!
//! ```text
//! gtinker-bench list                      # the registry
//! gtinker-bench all                       # every experiment, in order
//! gtinker-bench fig08_insert_load fig11_bfs --scale-factor 128
//! gtinker-bench plot [results/fig08_insert_load.tsv ...]
//! gtinker-bench diag_probe
//! ```

use gtinker_bench::experiments::common::{dataset_batches, fresh_stinger, fresh_tinker, hollywood};
use gtinker_bench::experiments::{select, REGISTRY};
use gtinker_bench::plot::{filter_series, parse_tsv, render_chart};
use gtinker_bench::Args;

/// Prints `error` and the usage to stderr and exits 2.
fn usage(error: &str) -> ! {
    eprintln!("error: {error}\n");
    eprintln!("usage: gtinker-bench list | all | <experiment>... | plot [TSV...] | diag_probe");
    eprintln!("       [--scale-factor N] [--batches N] [--threads a,b,c] [--out-dir PATH]");
    eprintln!("experiments:");
    for e in REGISTRY {
        eprintln!("  {}", e.name);
    }
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, words) = Args::parse(&argv).unwrap_or_else(|e| usage(&e));
    match words.split_first() {
        None => usage("nothing to run"),
        Some((cmd, [])) if cmd == "list" => {
            for e in REGISTRY {
                println!("{}\t{}", e.name, e.label);
            }
        }
        Some((cmd, paths)) if cmd == "plot" => plot(paths),
        Some((cmd, [])) if cmd == "diag_probe" => diag_probe(&args),
        Some(_) => {
            let picked = select(&words).unwrap_or_else(|e| usage(&e));
            println!(
                "GraphTinker evaluation suite — scale factor {}, {} batches, threads {:?}\n",
                args.scale_factor, args.batches, args.threads
            );
            for e in picked {
                let t0 = std::time::Instant::now();
                let table = (e.run)(&args);
                assert_eq!(table.name, e.name, "an experiment's table carries its registry name");
                println!("{}", table.render());
                if let Err(err) = table.write(&args.out_dir) {
                    eprintln!("warning: could not write results for {}: {err}", e.label);
                }
                println!("[{} done in {:.1}s]\n", e.label, t0.elapsed().as_secs_f64());
            }
        }
    }
}

/// Renders experiment TSVs (every TSV in `./results` when no path is
/// given) as ASCII charts.
fn plot(args: &[String]) {
    fn plot_file(path: &str) {
        match std::fs::read_to_string(path) {
            Ok(content) => match parse_tsv(&content) {
                Ok((caption, xs, series)) => {
                    let series = filter_series(series);
                    println!("== {path}");
                    println!("{}", render_chart(&caption, &xs, &series, 64, 16));
                }
                Err(e) => eprintln!("{path}: {e}"),
            },
            Err(e) => eprintln!("{path}: {e}"),
        }
    }

    if args.is_empty() {
        let mut entries: Vec<_> = std::fs::read_dir("results")
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "tsv"))
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        entries.sort();
        if entries.is_empty() {
            eprintln!("no TSVs found; run an experiment first or pass paths");
            std::process::exit(1);
        }
        for p in entries {
            plot_file(p.to_str().unwrap());
        }
    } else {
        for p in args {
            plot_file(p);
        }
    }
}

/// Probe-distance diagnostics: the measurable mechanism behind every
/// speedup figure. Prints per-operation inspection counts, the tree-depth
/// histogram (GraphTinker's O(log degree) bound) and the Robin Hood probe
/// distribution, next to STINGER's O(degree) chain-walk counts.
fn diag_probe(args: &Args) {
    let spec = hollywood(args.scale_factor);
    let batches = dataset_batches(&spec, args.batches, false);
    let mut gt = fresh_tinker();
    let mut st = fresh_stinger();
    for b in &batches {
        gt.apply_batch(b);
        st.apply_batch(b);
    }

    let gs = gt.stats();
    let ss = st.stats();
    println!("dataset: {} ({} edges inserted)\n", spec.name, gs.operations);
    println!(
        "GraphTinker: {:.2} cells/op, {:.2} workblocks/op, {} branch-outs, max depth {}",
        gs.mean_probe(),
        gs.workblocks_fetched as f64 / gs.operations as f64,
        gs.branches_created,
        gs.max_depth
    );
    println!(
        "STINGER    : {:.2} slots/op, {:.2} blocks/op\n",
        ss.mean_probe(),
        ss.blocks_traversed as f64 / ss.operations as f64
    );

    println!("GraphTinker tree-depth histogram (live edges per generation):");
    for (d, n) in gt.depth_histogram().iter().enumerate() {
        println!("  depth {d}: {n}");
    }
    println!("mean depth: {:.3}\n", gt.mean_depth());

    println!("Robin Hood probe-distance histogram:");
    for (p, n) in gt.probe_histogram().iter().enumerate() {
        println!("  probe {p}: {n}");
    }
    println!("\nstructure: {:?}", gt.structure_stats());
}
