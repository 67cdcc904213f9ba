//! `gtinker` — command-line front end for the GraphTinker dynamic-graph
//! store: generate datasets, inspect structure statistics, run analytics
//! (BFS / SSSP / CC / PageRank) under any engine mode, and benchmark
//! insertion against the STINGER baseline.
//!
//! Run `gtinker help` for usage.

#![forbid(unsafe_code)]

mod args;
mod commands;
mod serve;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::parse(raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    if parsed.flag("help") {
        print!("{}", commands::USAGE);
        return;
    }
    if let Err(e) = commands::run(&parsed) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
