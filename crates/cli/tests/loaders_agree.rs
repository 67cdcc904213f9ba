//! Every way the CLI builds a store from one file answers the same: the
//! whole-file load (`ApplyBatch::load`) at 1, 2 and 3 shards, the
//! incremental restart's per-batch `apply_batch`, and a recovered log.
//!
//! Out of process, so the answers are read from what `gtinker` prints.

use std::path::PathBuf;
use std::process::Command;

const GT: &str = env!("CARGO_BIN_EXE_gtinker");

/// `gtinker args` must succeed; returns `(stdout, stderr)`.
fn gtinker(args: &[&str]) -> (String, String) {
    let out = Command::new(GT).args(args).output().unwrap();
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    let (stdout, stderr) = (text(out.stdout), text(out.stderr));
    assert!(out.status.success(), "gtinker {args:?}: {stderr}");
    (stdout, stderr)
}

/// The answer of a `bfs`/`sssp` run: its first stdout line up to the
/// iteration count (`BFS from 3: 180 reached, eccentricity 4`).
fn answer(stdout: &str) -> String {
    let line = stdout.lines().next().unwrap_or_default();
    line.splitn(3, ", ").take(2).collect::<Vec<_>>().join(", ")
}

/// A shuffled edge list with sources of every tier size (inline, each
/// page width, hub) and keys listed twice under far apart weights, the
/// later weight the one that counts (it moves SSSP's distances).
fn write_graph() -> PathBuf {
    let mut lines = Vec::new();
    for src in 0..60u32 {
        let degree = [2, 9, 25, 50, 150][src as usize % 5];
        for d in 0..degree {
            let dst = (src * 7 + d * 13) % 400;
            lines.push(format!("{src} {dst} {}", (src + d) % 9 + 1));
            if d % 4 == 0 {
                lines.push(format!("{src} {dst} {}", 20 + (src * d) % 20));
            }
        }
    }
    let mut lcg = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..lines.len()).rev() {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        lines.swap(i, (lcg >> 33) as usize % (i + 1));
    }
    let dir = std::env::temp_dir().join(format!("gtinker_loaders_agree_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("g.txt"), lines.join("\n") + "\n").unwrap();
    dir
}

#[test]
fn bfs_and_sssp_agree_across_shard_counts_and_recovery() {
    let dir = write_graph();
    let file = dir.join("g.txt");
    let f = file.to_str().unwrap();
    for cmd in ["bfs", "sssp"] {
        let incremental = answer(&gtinker(&[cmd, f, "--root", "3", "--restart", "incremental"]).0);
        assert!(incremental.contains(" reached"), "{incremental}");
        for shards in ["1", "2", "3"] {
            let (stdout, stderr) = gtinker(&[cmd, f, "--root", "3", "--shards", shards]);
            assert_eq!(answer(&stdout), incremental, "{cmd} at {shards} shards");
            let placed = stderr.split(" sources placed whole").next().unwrap();
            let placed: u64 = placed.rsplit(' ').next().unwrap().parse().expect(&stderr);
            assert!(placed > 0, "{cmd} at {shards} shards: {stderr}");
        }
    }
    let db = dir.join("db");
    let db = db.to_str().unwrap();
    gtinker(&["ingest", f, "--wal", db, "--batch", "100", "--sync", "never", "--pool", "2"]);
    let recovered = gtinker(&["recover", db, "--root", "3"]).0;
    let reached = |text: &str| {
        let line = text.lines().find(|l| l.starts_with("BFS from 3: ")).unwrap().to_string();
        line.split(" reached").next().unwrap().to_string()
    };
    let cold = gtinker(&["bfs", f, "--root", "3"]).0;
    assert_eq!(reached(&recovered), reached(&cold));
    std::fs::remove_dir_all(&dir).ok();
}
