//! Ingestion-pipeline benchmark: persistent shard pool vs pipelined
//! submit, plus durable ingest with/without WAL overlap.
fn main() {
    let args = gtinker_bench::Args::parse();
    let table = gtinker_bench::experiments::fig_ingest_pipeline::run(&args);
    table.print();
    if let Err(e) = table.write_tsv(&args.out_dir) {
        eprintln!("warning: could not write TSV: {e}");
    }
}
