//! `gtinker serve WALDIR` serves the store the directory describes — the
//! snapshot's layout and recorded vertex space, every logged op replayed
//! into the serving shards exactly once — not one rebuilt from
//! command-line flags. And `gtinker trace … --serve` is the server with
//! tracing on: its `/trace` ties each request's spans to its id.
//!
//! Out of process on purpose: the tier gauges, `gtinker_pool_batches` and
//! the trace switch are process-global, and a test thread next door would
//! move them.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use gtinker_engine::{algorithms::Cc, Engine, ModePolicy};
use gtinker_persist::{recover_tinker, DurableTinker, WalOptions};
use gtinker_types::{EdgeBatch, TinkerConfig};

const GT: &str = env!("CARGO_BIN_EXE_gtinker");

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gtinker_serve_dir_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// One hub source (200 edges, over the promote threshold), a spread of
/// inline-sized sources, and one edge alone in touching vertex 900.
fn write_graph(file: &Path) -> usize {
    let mut text = String::new();
    for d in 0..200u32 {
        text.push_str(&format!("0 {}\n", d + 10));
    }
    for s in 1..40u32 {
        text.push_str(&format!("{s} {}\n", s + 300));
    }
    text.push_str("7 900\n");
    std::fs::write(file, &text).unwrap();
    text.lines().count()
}

fn gtinker(args: &[&str]) {
    let status = Command::new(GT).args(args).stderr(Stdio::null()).status().unwrap();
    assert!(status.success(), "gtinker {args:?} exited with {status}");
}

/// A spawned `gtinker serve`; killed on drop, so a failed assertion does
/// not leave it behind.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `gtinker serve DIR --shards 2` and waits for its address.
fn serve(dir: &Path) -> Server {
    spawn(&["serve", dir.to_str().unwrap(), "--shards", "2", "--addr", "127.0.0.1:0"])
}

/// Spawns `gtinker ARGS…`, a command whose first stdout line is the
/// server's `serving on http://ADDR …`, and waits for that address.
fn spawn(args: &[&str]) -> Server {
    let mut child =
        Command::new(GT).args(args).stdout(Stdio::piped()).stderr(Stdio::null()).spawn().unwrap();
    // The pipe stays open with the child: a later status line must not
    // meet a closed stdout.
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().unwrap()).read_line(&mut line).unwrap();
    let addr = line
        .strip_prefix("serving on http://")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no listen address in: {line:?}"))
        .to_string();
    Server { child, addr }
}

/// Head and body of `GET path` (the server closes the connection after
/// answering).
fn request(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{path}: {response}");
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (head.to_string(), body.to_string())
}

fn get(addr: &str, path: &str) -> String {
    request(addr, path).1
}

fn quit(mut server: Server) {
    get(&server.addr, "/quitquitquit");
    assert!(server.child.wait().unwrap().success());
}

/// Value of the Prometheus sample `name` in a `/metrics` body.
fn sample(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample {name}"))
}

/// Value of the integer member `key` of a flat JSON object.
fn member(json: &str, key: &str) -> u64 {
    let rest = json.split_once(&format!("\"{key}\":")).unwrap_or_else(|| panic!("{key}: {json}")).1;
    rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap()].parse().unwrap()
}

#[test]
fn serve_keeps_the_snapshots_layout_and_vertex_space() {
    let dir = scratch("snap");
    let (file, db) = (dir.join("g.txt"), dir.join("db"));
    write_graph(&file);
    let (file_s, db_s) = (file.to_str().unwrap(), db.to_str().unwrap());
    let layout = ["--paper-layout", "--snapshot-every", "2", "--pool", "2"];
    gtinker(&[&["ingest", file_s, "--wal", db_s, "--batch", "100"], &layout[..]].concat());
    // The only edge touching the highest vertex id goes before the last
    // snapshot: from then on the id space is on record, not in any edge.
    let (mut d, _) =
        DurableTinker::open(&db, TinkerConfig::default(), WalOptions::default(), 2).unwrap();
    d.apply_batch(EdgeBatch::deletes(&[(7, 900)])).unwrap();
    d.snapshot().unwrap();
    drop(d);

    let (truth, report) = recover_tinker(&db, TinkerConfig::default()).unwrap();
    assert_eq!(report.replayed_records, 0, "the last snapshot covers the log");
    assert_eq!(*truth.config(), TinkerConfig::paper());
    assert_eq!(truth.vertex_space(), 901);
    let mut cc = Engine::new(Cc::new(), ModePolicy::hybrid());
    cc.run_from_roots(&truth);
    let mut labels: Vec<u32> = cc.values().iter().copied().filter(|&l| l != u32::MAX).collect();
    labels.sort_unstable();
    labels.dedup();

    // No layout flag: the directory decides.
    let server = serve(&db);
    let addr = &server.addr;
    let metrics = get(addr, "/metrics");
    assert_eq!(sample(&metrics, "gtinker_tier_inline_vertices"), 0);
    assert_eq!(sample(&metrics, "gtinker_tier_hub_vertices"), 0);
    assert_eq!(sample(&metrics, "gtinker_tinker_deletes"), 0, "nothing was replayed");
    let answer = get(addr, "/query/cc");
    assert_eq!(member(&answer, "vertices"), u64::from(truth.vertex_space()), "{answer}");
    assert_eq!(member(&answer, "components"), labels.len() as u64, "{answer}");
    quit(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// The log's tail reaches the shards as one stream grouped by source, in
/// at most one dispatch per record: every logged insert is counted once as
/// an insert or an update, none twice.
#[test]
fn serve_hands_each_logged_op_to_the_shards_once() {
    let dir = scratch("wal");
    let (file, db) = (dir.join("g.txt"), dir.join("db"));
    let inserts = write_graph(&file) as u64;
    let records = inserts.div_ceil(100);
    gtinker(&["ingest", file.to_str().unwrap(), "--wal", db.to_str().unwrap(), "--batch", "100"]);
    let (truth, report) = recover_tinker(&db, TinkerConfig::default()).unwrap();
    assert_eq!((report.snapshot_lsn, report.replayed_records), (0, records));

    let server = serve(&db);
    let addr = &server.addr;
    let metrics = get(addr, "/metrics");
    let applied =
        sample(&metrics, "gtinker_tinker_inserts") + sample(&metrics, "gtinker_tinker_updates");
    assert_eq!(applied, inserts, "every logged insert applied once");
    let dispatches = sample(&metrics, "gtinker_pool_batches");
    assert!((1..=records).contains(&dispatches), "{dispatches} dispatches for {records} records");
    assert_eq!(sample(&metrics, "gtinker_wal_appends"), 0, "serving a directory writes nothing");
    assert_eq!(member(&get(addr, "/healthz"), "live_edges"), truth.num_edges());
    quit(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// `gtinker trace FILE --wal DIR --serve ADDR --hold` is the way to trace
/// a server: `/healthz` reports tracing on, and a query's `X-Request-Id`
/// is the arg of the `epoch_pin` span its pin recorded in `/trace`.
#[test]
fn traced_server_tags_a_requests_pin_with_its_id() {
    let dir = scratch("trace");
    let (file, db, out) = (dir.join("g.txt"), dir.join("db"), dir.join("t.json"));
    write_graph(&file);
    let [file, db, out] = [&file, &db, &out].map(|p| p.to_str().unwrap());
    let server =
        spawn(&["trace", file, "--wal", db, "--serve", "127.0.0.1:0", "--hold", "--out", out]);
    let addr = &server.addr;
    assert!(get(addr, "/healthz").contains("\"trace_enabled\":true"));
    let (head, _) = request(addr, "/degree?v=0");
    let id = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Request-Id: "))
        .unwrap_or_else(|| panic!("no X-Request-Id in {head}"));
    let trace = get(addr, "/trace");
    let pin = format!("\"name\":\"epoch_pin\",\"args\":{{\"v\":{id}}}");
    assert!(trace.contains(&pin), "no epoch_pin span of request {id} in /trace");
    quit(server);
    std::fs::remove_dir_all(&dir).ok();
}
