//! The `gtinker-bench` binary's command line, end to end.

use std::process::{Command, Output};

use gtinker_bench::experiments::REGISTRY;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gtinker-bench")).args(args).output().expect("binary runs")
}

#[test]
fn list_prints_exactly_the_registry_in_order() {
    let out = bench(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let want: Vec<String> = REGISTRY.iter().map(|e| format!("{}\t{}", e.name, e.label)).collect();
    assert_eq!(stdout.lines().collect::<Vec<_>>(), want);
}

#[test]
fn bad_input_prints_usage_and_exits_2() {
    for (args, what) in [
        (&["table1_datasets", "--scale-factor", "2o48"][..], "'2o48' is not a number"),
        (&["table1_datasets", "--scale", "64"][..], "unknown flag --scale"),
        (&["table1_datasets", "fig99"][..], "unknown experiment fig99"),
        (&[][..], "nothing to run"),
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something before failing");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(what), "{args:?}: {stderr}");
        for e in REGISTRY {
            assert!(stderr.contains(e.name), "{args:?}: usage lacks {}", e.name);
        }
    }
}

#[test]
fn a_named_experiment_writes_its_tsv() {
    let dir = std::env::temp_dir().join(format!("gtinker_bench_cli_{}", std::process::id()));
    let out = bench(&["table1_datasets", "--out-dir", dir.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("## table1_datasets"));
    assert!(dir.join("table1_datasets.tsv").exists());
    std::fs::remove_dir_all(&dir).ok();
}
