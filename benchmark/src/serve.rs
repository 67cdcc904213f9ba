//! What the three socket workloads share: starting and stopping a
//! `gtinker` that serves, the checked requests, and the two read loads
//! (paced closed-loop point reads, closed-loop BFS).

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::catalog::THINK;
use crate::child::Proc;
use crate::http::{self, json_u64, Client, Response};
use crate::input::{neighbors_digest, Model};
use crate::spans::Tracer;
use crate::Tally;

/// Longest any child phase (load, ingest, shutdown) may take.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Spawns a serving `gtinker` and waits for its `serving on http://ADDR`
/// line (printed at bind: after a `serve` preload, before an `ingest`
/// starts applying). Returns the line's arrival time too.
pub fn spawn_server(bin: &Path, args: &[&str]) -> Result<(Proc, SocketAddr, Instant), String> {
    let mut proc = Proc::spawn(bin, args)?;
    let (at, line) = proc.wait_line(|l| l.starts_with("serving on http://"), CHILD_TIMEOUT)?;
    let addr = line
        .strip_prefix("serving on http://")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("cannot parse the listen address from: {line}"))?;
    Ok((proc, addr, at))
}

/// Polls `/healthz` (one connection per probe) until it answers 200.
pub fn wait_ready(addr: SocketAddr) -> Result<Instant, String> {
    let deadline = Instant::now() + CHILD_TIMEOUT;
    while Instant::now() < deadline {
        if matches!(http::get_once(addr, "/healthz"), Ok(r) if r.status == 200) {
            return Ok(Instant::now());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err("server did not become ready".into())
}

/// Asks the server to shut down and waits until the process has ended.
pub fn quit(mut proc: Proc, addr: SocketAddr) -> Result<(), String> {
    http::get_once(addr, "/quitquitquit").map_err(|e| format!("quitquitquit: {e}"))?;
    let exit = proc.wait_exit(CHILD_TIMEOUT)?;
    if exit.status.success() {
        Ok(())
    } else {
        Err(format!("server exited with {}", exit.status))
    }
}

/// A 200 response whose body parsed, or `None` (a failed request).
fn ok_body(r: std::io::Result<Response>) -> Option<String> {
    r.ok().filter(|r| r.status == 200).map(|r| r.body)
}

/// What a point read must answer: exactly the model on a quiescent store,
/// at most the final graph while the ingest is still running.
#[derive(Clone, Copy, PartialEq)]
pub enum Expect {
    Final,
    AtMostFinal,
}

/// Request `i` of a point-read stream: `/degree` and `/neighbors`
/// alternate. Returns the response's epoch if it was correct.
pub fn point_read(
    client: &mut Client,
    tr: &mut Tracer,
    model: &Model,
    v: u32,
    i: u64,
    expect: Expect,
) -> Option<u64> {
    let want = u64::from(model.degree(v));
    if i.is_multiple_of(2) {
        let body = ok_body(client.get(&format!("/degree?v={v}"), tr))?;
        let got = json_u64(&body, "degree")?;
        (if expect == Expect::Final { got == want } else { got <= want }).then_some(())?;
        json_u64(&body, "epoch")
    } else {
        let body = ok_body(client.get(&format!("/neighbors?v={v}"), tr))?;
        let (count, sum) = neighbors_digest(&body)?;
        let want_sum = model.neighbors(v).iter().fold(0u64, |s, &d| s.wrapping_add(u64::from(d)));
        let right = match expect {
            Expect::Final => count == want && sum == want_sum,
            Expect::AtMostFinal => count <= want,
        };
        (right && json_u64(&body, "degree")? == count).then_some(())?;
        json_u64(&body, "epoch")
    }
}

/// `/query/bfs?src=`: returns the epoch if `reached` was correct.
pub fn bfs_query(
    client: &mut Client,
    tr: &mut Tracer,
    src: u32,
    want_reached: u64,
    expect: Expect,
) -> Option<u64> {
    let body = ok_body(client.get(&format!("/query/bfs?src={src}"), tr))?;
    let got = json_u64(&body, "reached")?;
    let fits = if expect == Expect::Final { got == want_reached } else { got <= want_reached };
    fits.then_some(())?;
    json_u64(&body, "epoch")
}

/// The read load of one repetition.
pub struct ReadPlan<'a> {
    pub model: &'a Model,
    /// Point-read targets, cycled.
    pub vertices: &'a [u32],
    /// BFS sources with the reference `reached` of each.
    pub sources: &'a [(u32, u64)],
}

#[derive(Default)]
pub struct ReadResult {
    /// Point reads, milliseconds from send to complete response.
    pub point_ms: Vec<f64>,
    /// BFS queries, milliseconds.
    pub query_ms: Vec<f64>,
    pub reconnects: u64,
    pub connect_ns: Vec<u64>,
    pub tally: Tally,
}

impl ReadResult {
    pub fn absorb(&mut self, other: ReadResult) {
        self.point_ms.extend(other.point_ms);
        self.query_ms.extend(other.query_ms);
        self.reconnects += other.reconnects;
        self.connect_ns.extend(other.connect_ns);
        self.tally.add(other.tally);
    }

    /// Folds a finished client's connection counts in.
    fn close(&mut self, mut client: Client) {
        client.close();
        self.reconnects += client.reconnects;
        self.connect_ns.extend(client.connect_ns);
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One paced closed-loop point-read client on one keep-alive connection:
/// send, wait for the answer, think for [`THINK`], send again, until
/// `duration` has passed or `stop` is raised. Request `i` reads vertex
/// `2 i + lane` of the plan's list. `epoch_floor` is the lowest epoch an
/// answer may carry (views only move forward).
pub fn point_client(
    addr: SocketAddr,
    plan: &ReadPlan<'_>,
    lane: u64,
    expect: Expect,
    duration: Duration,
    stop: &AtomicBool,
    tr: &mut Tracer,
) -> (ReadResult, Option<Instant>) {
    let mut out = ReadResult::default();
    let mut client = Client::new(addr);
    let mut first_answer = None;
    let mut epoch_floor = 0;
    let start = Instant::now();
    for i in 0u64.. {
        if start.elapsed() >= duration || stop.load(Ordering::Relaxed) {
            break;
        }
        let v = plan.vertices[(2 * i + lane) as usize % plan.vertices.len()];
        let sent = Instant::now();
        let epoch = point_read(&mut client, tr, plan.model, v, i, expect);
        out.point_ms.push(ms(sent.elapsed().as_nanos() as u64));
        out.tally.attempted += 1;
        match epoch {
            Some(e) if e >= epoch_floor => {
                epoch_floor = e;
                first_answer.get_or_insert_with(Instant::now);
            }
            _ => out.tally.failed += 1,
        }
        std::thread::sleep(THINK);
    }
    out.close(client);
    (out, first_answer)
}

/// Runs `client(lane, tracer)` on two threads (two connections), hanging
/// their spans under a span named `phase`.
pub fn two_clients<R: Send>(
    tr: &mut Tracer,
    phase: &'static str,
    client: impl Fn(u64, &mut Tracer) -> R + Sync,
) -> Vec<R> {
    let open = tr.begin(phase);
    let done: Vec<(R, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|lane| {
                let mut tr = tr.sibling();
                let client = &client;
                s.spawn(move || (client(lane, &mut tr), tr))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut out = Vec::with_capacity(done.len());
    for (result, thread_tr) in done {
        tr.absorb(thread_tr, open);
        out.push(result);
    }
    tr.end(open);
    out
}

/// Paced closed-loop point reads on two connections for `duration` on a
/// quiescent store, every answer checked against the model.
pub fn point_phase(
    addr: SocketAddr,
    plan: &ReadPlan<'_>,
    duration: Duration,
    tr: &mut Tracer,
) -> ReadResult {
    let never = AtomicBool::new(false);
    let mut out = ReadResult::default();
    let lanes = two_clients(tr, "loadgen.point_phase", |lane, tr| {
        point_client(addr, plan, lane, Expect::Final, duration, &never, tr).0
    });
    lanes.into_iter().for_each(|lane| out.absorb(lane));
    out
}

/// How long a query load runs.
pub enum Until<'a> {
    /// Until the flag is raised (by the end of a write phase).
    Raised(&'a AtomicBool),
    /// For this many whole cycles through the sources.
    Cycles(usize),
}

/// Closed-loop `/query/bfs` on one connection, cycling the sources, for as
/// long as `until` says. `between` runs after every query on the same
/// connection (the traced run scrapes there, so that no third connection
/// competes for the two workers).
pub fn query_phase(
    addr: SocketAddr,
    sources: &[(u32, u64)],
    expect: Expect,
    until: Until<'_>,
    tr: &mut Tracer,
    mut between: impl FnMut(&mut Client, &mut Tracer),
) -> ReadResult {
    let mut out = ReadResult::default();
    let mut client = Client::new(addr);
    let start = Instant::now();
    let mut last_epoch = 0;
    for (i, &(src, want)) in sources.iter().cycle().enumerate() {
        let done = match until {
            Until::Raised(stop) => stop.load(Ordering::Relaxed) || start.elapsed() >= CHILD_TIMEOUT,
            Until::Cycles(n) => i >= n * sources.len(),
        };
        if done {
            break;
        }
        let t = Instant::now();
        let epoch = bfs_query(&mut client, tr, src, want, expect);
        out.query_ms.push(ms(t.elapsed().as_nanos() as u64));
        out.tally.attempted += 1;
        // Views only move forward: an epoch below the previous answer's
        // would be a reader seeing time run backwards.
        match epoch {
            Some(e) if e >= last_epoch => last_epoch = e,
            _ => out.tally.failed += 1,
        }
        between(&mut client, tr);
    }
    out.close(client);
    out
}

/// Server-side counters scraped from `/metrics` on a connection of its
/// own (call only when no keep-alive client holds a worker).
pub fn scrape_metrics(addr: SocketAddr) -> Result<String, String> {
    match http::get_once(addr, "/metrics") {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(r) => Err(format!("/metrics answered {}", r.status)),
        Err(e) => Err(format!("/metrics: {e}")),
    }
}
