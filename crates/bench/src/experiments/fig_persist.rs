//! Durability costs (no paper counterpart — the paper's GraphTinker is
//! memory-only): snapshot write/load bandwidth, WAL append throughput per
//! sync policy, and recovery time as a function of how much log must be
//! replayed, on the Hollywood-2009 RMAT stand-in.
//!
//! Alongside the TSV the run emits `BENCH_fig_persist.json`.

use std::path::PathBuf;
use std::time::Instant;

use gtinker_core::GraphTinker;
use gtinker_persist::{
    load_tinker_snapshot, recover_tinker, write_tinker_snapshot, SyncPolicy, WalOptions, WalWriter,
};
use gtinker_types::{EdgeBatch, TinkerConfig};

use crate::cli::Args;
use crate::experiments::common::{dataset_batches, hollywood};
use crate::report::{f3, meps, Fact, Table};

struct SnapshotSample {
    bytes: u64,
    write_ms: f64,
    load_ms: f64,
    write_mbps: f64,
    load_mbps: f64,
}

struct AppendSample {
    ms: f64,
    meps: f64,
}

struct RecoverySample {
    records: u64,
    ops: u64,
    ms: f64,
    meps: f64,
}

fn mbps(bytes: u64, secs: f64) -> f64 {
    if secs == 0.0 {
        0.0
    } else {
        bytes as f64 / secs / 1e6
    }
}

/// A scratch directory under the system temp dir, fresh for this run.
fn scratch(tag: &str) -> PathBuf {
    let d =
        std::env::temp_dir().join(format!("gtinker_bench_persist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn measure_snapshot(g: &GraphTinker) -> SnapshotSample {
    let dir = scratch("snap");
    let t0 = Instant::now();
    let path = write_tinker_snapshot(&dir, g, 0).expect("snapshot write");
    let write_secs = t0.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let t0 = Instant::now();
    let (back, _) = load_tinker_snapshot(&path).expect("snapshot load");
    let load_secs = t0.elapsed().as_secs_f64();
    assert_eq!(back.num_edges(), g.num_edges(), "snapshot must restore every edge");
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotSample {
        bytes,
        write_ms: write_secs * 1e3,
        load_ms: load_secs * 1e3,
        write_mbps: mbps(bytes, write_secs),
        load_mbps: mbps(bytes, load_secs),
    }
}

fn measure_append(batches: &[EdgeBatch], policy: SyncPolicy, label: &str) -> AppendSample {
    let dir = scratch(label);
    let opts = WalOptions { sync: policy, ..WalOptions::default() };
    let (mut wal, _) = WalWriter::open(&dir, opts).expect("wal open");
    let ops: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let t0 = Instant::now();
    for b in batches {
        wal.append(b).expect("wal append");
    }
    wal.sync().expect("wal sync");
    let dur = t0.elapsed();
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    AppendSample { ms: dur.as_secs_f64() * 1e3, meps: meps(ops, dur) }
}

fn measure_recovery(batches: &[EdgeBatch], records: usize) -> RecoverySample {
    let dir = scratch(&format!("rec{records}"));
    let opts = WalOptions { sync: SyncPolicy::Never, ..WalOptions::default() };
    let (mut wal, _) = WalWriter::open(&dir, opts).expect("wal open");
    let mut ops = 0u64;
    for b in &batches[..records] {
        wal.append(b).expect("wal append");
        ops += b.len() as u64;
    }
    wal.sync().expect("wal sync");
    drop(wal);
    let t0 = Instant::now();
    let (g, report) = recover_tinker(&dir, TinkerConfig::default()).expect("recover");
    let dur = t0.elapsed();
    assert_eq!(report.replayed_records, records as u64);
    assert!(g.num_edges() > 0 || ops == 0);
    let _ = std::fs::remove_dir_all(&dir);
    RecoverySample {
        records: records as u64,
        ops,
        ms: dur.as_secs_f64() * 1e3,
        meps: meps(ops, dur),
    }
}

/// Runs the durability benchmark.
pub fn run(args: &Args) -> Table {
    let spec = hollywood(args.scale_factor);
    let batches = dataset_batches(&spec, args.batches, false);
    let total_ops: u64 = batches.iter().map(|b| b.len() as u64).sum();

    let mut g = GraphTinker::with_defaults();
    for b in &batches {
        g.apply_batch(b);
    }

    let mut t = Table::new(
        "fig_persist",
        &format!(
            "Durability: snapshot MB/s, WAL append Medges/s, recovery vs log length \
             ({}, {} ops, {} batches)",
            spec.name,
            total_ops,
            batches.len()
        ),
        &["stage", "size", "time_ms", "throughput"],
    );

    t.fact("edges", total_ops);
    let snap = measure_snapshot(&g);
    t.push_row(vec![
        "snapshot_write".into(),
        format!("{} B", snap.bytes),
        f3(snap.write_ms),
        format!("{} MB/s", f3(snap.write_mbps)),
    ]);
    t.push_row(vec![
        "snapshot_load".into(),
        format!("{} B", snap.bytes),
        f3(snap.load_ms),
        format!("{} MB/s", f3(snap.load_mbps)),
    ]);
    t.fact(
        "snapshot",
        Fact::Obj(vec![
            ("bytes", snap.bytes.into()),
            ("write_mbps", snap.write_mbps.into()),
            ("load_mbps", snap.load_mbps.into()),
        ]),
    );

    let mut wal_append_meps = Vec::new();
    for (policy, label) in [
        (SyncPolicy::Never, "never"),
        (SyncPolicy::EveryN(8), "every8"),
        (SyncPolicy::EveryRecord, "always"),
    ] {
        let a = measure_append(&batches, policy, label);
        t.push_row(vec![
            format!("wal_append[{label}]"),
            format!("{total_ops} ops"),
            f3(a.ms),
            format!("{} Medges/s", f3(a.meps)),
        ]);
        wal_append_meps.push((label, a.meps.into()));
    }
    t.fact("wal_append_meps", Fact::Obj(wal_append_meps));

    let mut lengths: Vec<usize> = [batches.len() / 4, batches.len() / 2, batches.len()]
        .into_iter()
        .filter(|&n| n > 0)
        .collect();
    lengths.dedup();
    let mut recovery = Vec::new();
    for n in lengths {
        let r = measure_recovery(&batches, n);
        t.push_row(vec![
            format!("recover[{} records]", r.records),
            format!("{} ops", r.ops),
            f3(r.ms),
            format!("{} Medges/s", f3(r.meps)),
        ]);
        recovery.push(Fact::Obj(vec![
            ("records", r.records.into()),
            ("ops", r.ops.into()),
            ("ms", r.ms.into()),
            ("meps", r.meps.into()),
        ]));
    }
    t.fact("recovery", Fact::List(recovery));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_end_to_end_run() {
        let args = Args { scale_factor: 4096, batches: 4, threads: vec![1], ..Args::default() };
        let t = run(&args);
        assert!(t.render().contains("snapshot_write"));
        let json = t.json();
        for key in
            ["\"snapshot\": {\"bytes\"", "\"wal_append_meps\": {\"never\"", "\"recovery\": [{"]
        {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }
}
