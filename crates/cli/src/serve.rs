//! A std-only HTTP/1.1 endpoint (no external crates): telemetry routes
//! answered from process-global observability state, plus — when a store
//! is attached — a query API served from epoch-pinned views.
//!
//! | route              | payload                                          |
//! |--------------------|--------------------------------------------------|
//! | `/metrics`         | the metric registry in Prometheus text format    |
//! | `/healthz`         | JSON liveness: build info, uptime, acked seq     |
//! | `/trace`           | the span-trace rings as Chrome trace-event JSON  |
//! | `/debug/vars`      | live server vars + per-endpoint RED windows      |
//! | `/debug/requests`  | ring of the last completed request summaries     |
//! | `/neighbors?v=`    | out-edges of one vertex                          |
//! | `/degree?v=`       | out-degree of one vertex                         |
//! | `/query/bfs?src=`  | BFS from a root: reached count, eccentricity     |
//! | `/query/sssp?src=` | SSSP from a root: reached count, max distance    |
//! | `/query/cc`        | connected components count                       |
//! | `/query/pagerank`  | top-k PageRank (`?iterations=` ≤ 100, `&top=`)   |
//! | `/quitquitquit`    | graceful shutdown (loopback clients only)        |
//!
//! Requests are handled by a small worker pool so a slow analytics query
//! (BFS over a large graph) does not block a `/healthz` probe. Every
//! query pins an epoch view ([`ParallelTinker::pin_view`]) instead of
//! draining the ingest pipeline: readers traverse, per shard, an
//! immutable CSR base plus the batches acked after it netted into a
//! sorted delta, all at one batch boundary and shared by every query that
//! overlaps it, while the writer keeps applying later batches. Telemetry
//! routes read lock-free global state and never touch the store at all.
//!
//! BFS, SSSP and CC run [`walk()`], not the GAS [`Engine`]: one cold answer
//! needs no message inbox, apply pass, FP stream or per-shard thread,
//! and for a selective (min) reduce committing each improvement in place
//! reaches the engine's fixpoint exactly. `iterations` is the walk's
//! rounds and `edges_processed` the out-edges its frontiers read.
//! PageRank, which blends messages, keeps its own pass.
//!
//! [`Engine`]: gtinker_engine::Engine
//!
//! # Request-scoped observability
//!
//! Every request is minted a process-unique `RequestId`, echoed in the
//! `X-Request-Id` response header. The id rides the thread context
//! ([`trace::set_thread_ctx`]) for the duration of the request, so the
//! trace spans recorded underneath it — `serve_request`, `epoch_pin`,
//! `engine_process` (one per walk round), `serve_serialize` — all carry the id
//! as their `args.v` payload: grep the `/trace` dump for one id and you
//! have that request's full timeline. On top of that the server keeps
//! per-endpoint RED stats (request/error counters plus a sliding-window
//! latency histogram, surfaced with p50/p95/p99 at `/debug/vars`), a ring
//! of completed request summaries (`/debug/requests`), and a
//! threshold-gated slow-query log record with a per-phase breakdown
//! (queue-wait / pin / engine / serialize) in the structured key=value
//! format of [`gtinker_core::log`].
//!
//! # HTTP support
//!
//! Deliberately minimal: `GET`/`HEAD` only (anything else draws `405`
//! with an `Allow` header and closes), request bodies ignored, and a
//! request head bounded by [`MAX_HEAD_LINE_BYTES`] per line and
//! [`MAX_HEADER_LINES`] headers (`414` / `431`, then close). A client
//! that sends `Connection: keep-alive` may reuse the connection for up to
//! [`MAX_KEEPALIVE_REQUESTS`] requests with a [`KEEPALIVE_IDLE`] idle
//! timeout between them; everyone else gets the classic
//! one-request-per-connection `Connection: close` behaviour. That is
//! enough for `curl`, Prometheus scrapes, and Perfetto downloads, and
//! keeps the whole server dependency-free and small enough to audit.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gtinker_core::log;
use gtinker_core::metrics::{Counter, WindowedHistogram};
use gtinker_core::trace::{self, json_escape, SpanId};
use gtinker_core::{GraphStore, ParallelTinker, StoreView};
use gtinker_engine::{
    algorithms::{Bfs, Cc, PageRank, Sssp},
    walk, IncrementalState,
};

/// Route catalogue; each entry owns one [`EndpointStats`] slot (the extra
/// trailing slot aggregates unmatched paths as `other`).
const ROUTES: &[&str] = &[
    "/healthz",
    "/metrics",
    "/trace",
    "/debug/vars",
    "/debug/requests",
    "/neighbors",
    "/degree",
    "/query/bfs",
    "/query/sssp",
    "/query/cc",
    "/query/pagerank",
];

/// Default number of request-worker threads.
pub const DEFAULT_WORKERS: usize = 4;

/// Largest `/query/pagerank?iterations=` answered: one request must not pin
/// a worker for hours.
const MAX_PAGERANK_ITERATIONS: usize = 100;

/// Per-connection socket timeout: a client that stalls mid-request (or
/// never reads the response) cannot wedge a worker forever.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Idle timeout between requests on a kept-alive connection (shorter than
/// [`IO_TIMEOUT`]: an idle client holds no interesting state).
const KEEPALIVE_IDLE: Duration = Duration::from_secs(5);

/// Requests served on one connection before the server forces a close (a
/// fairness valve: one chatty client cannot monopolise a worker forever).
pub const MAX_KEEPALIVE_REQUESTS: u64 = 100;

/// Longest request or header line read, terminator included: a longer
/// request line draws `414`, a longer header line `431`.
const MAX_HEAD_LINE_BYTES: usize = 8 << 10;

/// Most header lines read per request; one more draws `431`. With
/// [`MAX_HEAD_LINE_BYTES`] this bounds what a worker buffers for a head.
const MAX_HEADER_LINES: usize = 64;

/// How long the unread rest of a refused request head is discarded before
/// the close, so the close does not reset the connection before the
/// client has read the refusal.
const REFUSED_LINGER: Duration = Duration::from_secs(1);

/// How many completed request summaries `/debug/requests` retains.
const REQUEST_RING: usize = 64;

/// Sliding-window rotation cadence for the per-endpoint latency
/// histograms; with [`gtinker_core::metrics::WINDOW_SLOTS`] baselines the
/// `/debug/vars` quantiles cover roughly the last minute.
const WINDOW_ROTATE_SECS: u64 = 10;

/// Crate version, baked in at compile time.
const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Git hash injected via the `GTINKER_GIT_HASH` env var at compile time
/// (ci.sh exports it); "unknown" for plain `cargo build`.
const GIT_HASH: &str = match option_env!("GTINKER_GIT_HASH") {
    Some(h) => h,
    None => "unknown",
};

/// Process-unique request id source (starts at 1 so 0 means "no request"
/// in the trace thread context).
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// RED (rate / errors / duration) stats for one endpoint.
struct EndpointStats {
    requests: Counter,
    errors: Counter,
    latency_ns: WindowedHistogram,
}

impl EndpointStats {
    const fn new() -> Self {
        EndpointStats {
            requests: Counter::new(),
            errors: Counter::new(),
            latency_ns: WindowedHistogram::new(),
        }
    }
}

/// Stats slot for paths not in [`ROUTES`] (404s, `/`, `/quitquitquit`).
const OTHER_ENDPOINT: usize = ROUTES.len();

static ENDPOINT_STATS: [EndpointStats; ROUTES.len() + 1] =
    [const { EndpointStats::new() }; ROUTES.len() + 1];

/// Uptime period (in [`WINDOW_ROTATE_SECS`] units) of the last window
/// rotation; requests compare-and-swap it forward so exactly one request
/// per period pays the rotation.
static LAST_ROTATION: AtomicU64 = AtomicU64::new(0);

fn endpoint_index(path: &str) -> usize {
    ROUTES.iter().position(|&r| r == path).unwrap_or(OTHER_ENDPOINT)
}

fn endpoint_name(i: usize) -> &'static str {
    ROUTES.get(i).copied().unwrap_or("other")
}

/// Rotates every endpoint's latency window when a new
/// [`WINDOW_ROTATE_SECS`] period of uptime has begun. Driven lazily from
/// the request path (no timer thread); one CAS winner per period rotates.
fn maybe_rotate_windows(ctx: &ServeCtx) {
    let period = ctx.start.elapsed().as_secs() / WINDOW_ROTATE_SECS;
    let prev = LAST_ROTATION.load(Ordering::Relaxed);
    if period > prev
        && LAST_ROTATION
            .compare_exchange(prev, period, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    {
        for s in &ENDPOINT_STATS {
            s.latency_ns.rotate();
        }
    }
}

/// One completed request, as shown by `/debug/requests`.
#[derive(Debug, Clone)]
struct RequestSummary {
    id: u64,
    path: String,
    status: u16,
    queue_us: u64,
    pin_us: u64,
    engine_us: u64,
    serialize_us: u64,
    total_us: u64,
}

/// Shared server state: the optional store queries run against, the
/// process start time for uptime, the shutdown latch, the slow-query
/// threshold, and the completed-request ring.
pub struct ServeCtx {
    store: Option<Arc<ParallelTinker>>,
    start: Instant,
    shutdown: AtomicBool,
    /// Requests slower than this (total, ns) emit a warn-level slow-query
    /// record; `u64::MAX` disables the log.
    slow_query_ns: u64,
    completed: Mutex<VecDeque<RequestSummary>>,
}

impl ServeCtx {
    /// Telemetry-only context (no store: query routes answer 503).
    #[cfg(test)]
    pub fn telemetry(start: Instant) -> Arc<Self> {
        Self::with_options(start, None, None)
    }

    /// Builds a context: an optional store queries run against (`None`
    /// serves telemetry only) plus the slow-query log threshold in
    /// milliseconds (`None` disables; `Some(0)` logs every
    /// request — handy for smoke tests).
    pub fn with_options(
        start: Instant,
        store: Option<Arc<ParallelTinker>>,
        slow_query_ms: Option<u64>,
    ) -> Arc<Self> {
        Arc::new(ServeCtx {
            store,
            start,
            shutdown: AtomicBool::new(false),
            slow_query_ns: slow_query_ms.map(|ms| ms.saturating_mul(1_000_000)).unwrap_or(u64::MAX),
            completed: Mutex::new(VecDeque::new()),
        })
    }

    /// Whether graceful shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn push_summary(&self, s: RequestSummary) {
        let mut ring = self.completed.lock().expect("request ring poisoned");
        ring.push_back(s);
        while ring.len() > REQUEST_RING {
            ring.pop_front();
        }
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and announces the
/// resolved address on stdout — line-flushed, so scripts that pipe the
/// output can discover the port before the first request.
pub fn bind(addr: &str) -> Result<TcpListener, String> {
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("serve: cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("serve: {e}"))?;
    println!("serving on http://{local} (/healthz /metrics /trace /debug/* /query/*)");
    std::io::stdout().flush().ok();
    Ok(listener)
}

/// A running server: the acceptor thread plus its shared context.
/// Dropping the handle does NOT stop the server; call
/// [`shutdown`](Self::shutdown) or [`join`](Self::join).
pub struct ServeHandle {
    addr: SocketAddr,
    ctx: Arc<ServeCtx>,
    thread: JoinHandle<()>,
}

impl ServeHandle {
    /// The bound address (for self-connects and log lines).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the acceptor + workers to exit.
    pub fn shutdown(self) {
        self.ctx.shutdown.store(true, Ordering::Release);
        // Wake the acceptor if it is parked in accept().
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }

    /// Waits until the server shuts down on its own (`/quitquitquit`).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Starts the server on a background thread and returns immediately.
pub fn spawn(listener: TcpListener, ctx: Arc<ServeCtx>, workers: usize) -> ServeHandle {
    let addr = listener.local_addr().expect("bound listener has an address");
    let actx = Arc::clone(&ctx);
    let thread = std::thread::Builder::new()
        .name("gtinker-serve".into())
        .spawn(move || serve_until_shutdown(listener, actx, workers))
        .expect("spawn serve acceptor");
    ServeHandle { addr, ctx, thread }
}

/// A freshly accepted connection, stamped so the first request can report
/// its queue wait (accept to worker pickup).
struct Conn {
    stream: TcpStream,
    accepted: Instant,
}

/// Accept loop: distributes connections to `workers` handler threads and
/// serves until shutdown is requested (`/quitquitquit` from a loopback
/// client, or [`ServeHandle::shutdown`]). Per-connection errors are
/// logged and skipped — a dropped scrape must not kill the server.
pub fn serve_until_shutdown(listener: TcpListener, ctx: Arc<ServeCtx>, workers: usize) {
    let addr = listener.local_addr().expect("bound listener has an address");
    let (tx, rx) = mpsc::channel::<Conn>();
    let rx = Arc::new(Mutex::new(rx));
    let mut handles = Vec::with_capacity(workers.max(1));
    for w in 0..workers.max(1) {
        let rx = Arc::clone(&rx);
        let ctx = Arc::clone(&ctx);
        let handle = std::thread::Builder::new()
            .name(format!("gtinker-http-{w}"))
            .spawn(move || worker_loop(rx, ctx, addr))
            .expect("spawn http worker");
        handles.push(handle);
    }
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if ctx.is_shutdown() {
                    break;
                }
                // A send can only fail if every worker panicked; drop the
                // connection rather than poisoning the acceptor.
                if tx.send(Conn { stream, accepted: Instant::now() }).is_err() {
                    break;
                }
            }
            Err(e) => {
                if ctx.is_shutdown() {
                    break;
                }
                log::error("serve").msg("accept failed").field_str("error", &e.to_string()).emit();
            }
        }
    }
    drop(tx);
    for h in handles {
        let _ = h.join();
    }
}

/// Request-worker body: pull connections off the shared queue until the
/// acceptor hangs up.
fn worker_loop(rx: Arc<Mutex<Receiver<Conn>>>, ctx: Arc<ServeCtx>, addr: SocketAddr) {
    loop {
        let conn = match rx.lock().expect("serve queue poisoned").recv() {
            Ok(c) => c,
            Err(_) => return,
        };
        if let Err(e) = handle_connection(conn, &ctx, addr) {
            log::error("serve").msg("connection failed").field_str("error", &e.to_string()).emit();
        }
    }
}

/// Serves one connection: a single request/response by default, or a
/// bounded request loop when the client asked for keep-alive.
fn handle_connection(conn: Conn, ctx: &ServeCtx, addr: SocketAddr) -> std::io::Result<()> {
    let Conn { stream, accepted } = conn;
    // Answers are small and written whole; never let Nagle hold one back
    // waiting for the client's delayed ACK.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let peer = stream.peer_addr().ok();
    let mut reader = BufReader::new(stream);
    let mut served: u64 = 0;
    // Only the first request on a connection waited in the accept queue.
    let mut queue_wait = accepted.elapsed();
    let result = loop {
        let mut request_line = String::new();
        match read_head_line(&mut reader, &mut request_line) {
            Ok(Some(0)) => break Ok(()), // client closed between requests
            Ok(Some(_)) => {}
            Ok(None) => break refuse_head(&mut reader, 414),
            // An expired keep-alive idle timeout is a normal close.
            Err(e)
                if served > 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                break Ok(());
            }
            Err(e) => break Err(e),
        }
        if request_line.trim().is_empty() {
            break Ok(());
        }
        // Drain the remaining headers, noting the Connection request.
        let mut wants_keep_alive = false;
        let mut line = String::new();
        let mut headers = 0;
        let too_large = loop {
            line.clear();
            match read_head_line(&mut reader, &mut line)? {
                Some(n) if n <= 2 => break false,
                Some(_) if headers < MAX_HEADER_LINES => headers += 1,
                _ => break true,
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("connection") {
                    wants_keep_alive = v.trim().eq_ignore_ascii_case("keep-alive");
                }
            }
        };
        if too_large {
            break refuse_head(&mut reader, 431);
        }
        served += 1;
        match handle_request(
            reader.get_mut(),
            ctx,
            addr,
            peer,
            &request_line,
            wants_keep_alive && served < MAX_KEEPALIVE_REQUESTS,
            queue_wait,
        ) {
            Ok(true) => {
                queue_wait = Duration::ZERO;
                // Between kept-alive requests, idle out faster than the
                // in-request IO timeout.
                reader.get_ref().set_read_timeout(Some(KEEPALIVE_IDLE))?;
            }
            Ok(false) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    log::debug("serve")
        .msg("connection closed")
        .field("requests", served)
        .field_str("peer", &peer.map(|p| p.to_string()).unwrap_or_default())
        .emit();
    result
}

/// Reads one head line of at most [`MAX_HEAD_LINE_BYTES`] into `line`,
/// returning its length, or `None` if the line is longer (the rest of it
/// stays unread).
fn read_head_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
) -> std::io::Result<Option<usize>> {
    let n = reader.by_ref().take(MAX_HEAD_LINE_BYTES as u64).read_line(line)?;
    Ok((n < MAX_HEAD_LINE_BYTES || line.ends_with('\n')).then_some(n))
}

/// Answers a request whose head broke a size limit with `status`, counts
/// it as an error of the `other` endpoint, and ends the connection: the
/// reply is followed by a FIN, and for up to [`REFUSED_LINGER`] what the
/// client still sends is discarded so the close does not reset the reply
/// away.
fn refuse_head(reader: &mut BufReader<TcpStream>, status: u16) -> std::io::Result<()> {
    let stats = &ENDPOINT_STATS[OTHER_ENDPOINT];
    stats.requests.inc();
    stats.errors.inc();
    let id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
    log::warn("serve").msg("request head refused").field("id", id).field("status", status).emit();
    let body = if status == 414 { "request line too long\n" } else { "request head too large\n" };
    let stream = reader.get_mut();
    respond(stream, status, "text/plain; charset=utf-8", body, false, id, false)?;
    stream.shutdown(std::net::Shutdown::Write)?;
    stream.set_read_timeout(Some(REFUSED_LINGER))?;
    let deadline = Instant::now() + REFUSED_LINGER;
    let mut discard = [0u8; 4096];
    while Instant::now() < deadline && matches!(reader.read(&mut discard), Ok(n) if n > 0) {}
    Ok(())
}

/// Handles one already-parsed-headers request on `stream`. Returns
/// whether the connection should stay open for another request.
#[allow(clippy::too_many_arguments)]
fn handle_request(
    stream: &mut TcpStream,
    ctx: &ServeCtx,
    addr: SocketAddr,
    peer: Option<SocketAddr>,
    request_line: &str,
    keep_alive_wanted: bool,
    queue_wait: Duration,
) -> std::io::Result<bool> {
    let started = Instant::now();
    let id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
    // From here until the response is written, every trace span recorded
    // on this thread (pin, engine, serialize, ...) carries this id.
    trace::set_thread_ctx(id);
    trace::instant(SpanId::ServeRequest, id);

    let mut words = request_line.split_whitespace();
    let method = words.next().unwrap_or("");
    let target = words.next().unwrap_or("");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let head_only = method == "HEAD";
    let ep = endpoint_index(path);
    ENDPOINT_STATS[ep].requests.inc();
    maybe_rotate_windows(ctx);

    let mut shutdown_after = false;
    // Non-GET methods may carry a body this server never parses, so the
    // connection position would be unknown afterwards: always close.
    let mut keep_alive = keep_alive_wanted && !ctx.is_shutdown() && (head_only || method == "GET");
    let (status, ctype, body, pin_ns) = if !head_only && method != "GET" {
        keep_alive = false;
        (405, "text/plain; charset=utf-8", "method not allowed\n".to_string(), 0)
    } else if path == "/quitquitquit" {
        keep_alive = false;
        // Shutdown is local-only: refuse anything not from loopback.
        if peer.is_some_and(|p| p.ip().is_loopback()) {
            shutdown_after = true;
            (200, "text/plain; charset=utf-8", "shutting down\n".to_string(), 0)
        } else {
            (403, "text/plain; charset=utf-8", "shutdown is loopback-only\n".to_string(), 0)
        }
    } else {
        route(path, query, ctx)
    };
    // Handler time minus the pin wait = the engine/render phase.
    let engine_ns = (started.elapsed().as_nanos() as u64).saturating_sub(pin_ns);

    let serialize_start = Instant::now();
    let write_result = {
        let _s = trace::span_arg(SpanId::ServeSerialize, id);
        respond(stream, status, ctype, &body, head_only, id, keep_alive)
    };
    let serialize_ns = serialize_start.elapsed().as_nanos() as u64;
    let queue_ns = queue_wait.as_nanos() as u64;
    let total_ns = queue_ns + started.elapsed().as_nanos() as u64;

    ENDPOINT_STATS[ep].latency_ns.record(total_ns);
    if status >= 400 {
        // RED "E": count it per endpoint and attribute it in the log.
        ENDPOINT_STATS[ep].errors.inc();
        let level = if status >= 500 { log::Level::Error } else { log::Level::Warn };
        log::record(level, "serve")
            .msg("request failed")
            .field("id", id)
            .field_str("route", path)
            .field("status", status)
            .emit();
    }
    if total_ns >= ctx.slow_query_ns {
        log::warn("serve")
            .msg("slow query")
            .field("id", id)
            .field_str("route", path)
            .field("status", status)
            .field("queue_us", queue_ns / 1_000)
            .field("pin_us", pin_ns / 1_000)
            .field("engine_us", engine_ns / 1_000)
            .field("serialize_us", serialize_ns / 1_000)
            .field("total_us", total_ns / 1_000)
            .emit();
    }
    log::info("serve")
        .msg("request")
        .field("id", id)
        .field_str("route", path)
        .field("status", status)
        .field("total_us", total_ns / 1_000)
        .emit();
    ctx.push_summary(RequestSummary {
        id,
        path: path.to_string(),
        status,
        queue_us: queue_ns / 1_000,
        pin_us: pin_ns / 1_000,
        engine_us: engine_ns / 1_000,
        serialize_us: serialize_ns / 1_000,
        total_us: total_ns / 1_000,
    });
    trace::set_thread_ctx(0);

    if shutdown_after {
        ctx.shutdown.store(true, Ordering::Release);
        // Wake the acceptor so it notices the latch.
        let _ = TcpStream::connect(addr);
    }
    write_result.map(|()| keep_alive && !shutdown_after)
}

/// Computes the response for one path. The fourth element is the epoch
/// pin wait in nanoseconds (nonzero only for store-backed routes), kept
/// separate so the slow-query log can break the phases apart.
fn route(path: &str, query: &str, ctx: &ServeCtx) -> (u16, &'static str, String, u64) {
    match path {
        "/healthz" => (200, "application/json", healthz_json(ctx), 0),
        "/metrics" => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            gtinker_core::metrics::global().snapshot().to_prometheus(),
            0,
        ),
        "/trace" => (200, "application/json", trace::dump().to_chrome_json(), 0),
        "/debug/vars" => (200, "application/json", debug_vars_json(ctx), 0),
        "/debug/requests" => (200, "application/json", debug_requests_json(ctx), 0),
        "/neighbors" | "/degree" | "/query/bfs" | "/query/sssp" | "/query/cc"
        | "/query/pagerank" => query_route(path, query, ctx),
        "/" => (
            200,
            "text/plain; charset=utf-8",
            "gtinker: /healthz /metrics /trace /debug/vars /debug/requests \
             /neighbors?v= /degree?v= /query/{bfs,sssp}?src= /query/cc /query/pagerank\n"
                .to_string(),
            0,
        ),
        _ => (404, "text/plain; charset=utf-8", "not found (try / for the route list)\n".into(), 0),
    }
}

/// Dispatches one store-backed query against a freshly pinned epoch view.
fn query_route(path: &str, query: &str, ctx: &ServeCtx) -> (u16, &'static str, String, u64) {
    let Some(store) = ctx.store.as_deref() else {
        return (503, "application/json", error_json("no store attached"), 0);
    };
    let pin_start = Instant::now();
    let view = store.pin_view().expect("a pool always pins");
    let pin_ns = pin_start.elapsed().as_nanos() as u64;
    let m = gtinker_core::metrics::global();
    m.serve_queries.inc();
    let t = gtinker_core::metrics::timer();
    let out = match path {
        "/neighbors" => neighbors_json(&view, query),
        "/degree" => degree_json(&view, query),
        "/query/bfs" => bfs_json(&view, query),
        "/query/sssp" => sssp_json(&view, query),
        "/query/cc" => cc_json(&view),
        "/query/pagerank" => pagerank_json(&view, query),
        _ => unreachable!("query_route called for non-query path"),
    };
    m.serve_query_ns.record_since(t);
    match out {
        Ok(body) => (200, "application/json", body, pin_ns),
        Err(msg) => (400, "application/json", error_json(&msg), pin_ns),
    }
}

/// The JSON body of an error answer. `msg` may echo request bytes, so it
/// is escaped.
fn error_json(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}\n", json_escape(msg))
}

/// `?key=value` lookup in a raw query string.
fn param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|kv| match kv.split_once('=') {
        Some((k, v)) if k == key => Some(v),
        _ => None,
    })
}

fn num_param<T: std::str::FromStr>(query: &str, key: &str, default: T) -> Result<T, String> {
    match param(query, key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad {key}: '{v}'")),
    }
}

fn required_u32(query: &str, key: &str) -> Result<u32, String> {
    param(query, key)
        .ok_or_else(|| format!("missing ?{key}="))?
        .parse()
        .map_err(|_| format!("bad {key}"))
}

fn neighbors_json(view: &StoreView, query: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let v = required_u32(query, "v")?;
    let degree = view.out_degree(v);
    // One buffer sized for the head and about 12 bytes a pair.
    let mut body = String::with_capacity(64 + 12 * degree as usize);
    let _ =
        write!(body, "{{\"v\":{v},\"epoch\":{},\"degree\":{degree},\"neighbors\":[", view.epoch());
    let mut sep = "";
    view.for_each_out_edge(v, |d, w| {
        let _ = write!(body, "{sep}[{d},{w}]");
        sep = ",";
    });
    body.push_str("]}\n");
    Ok(body)
}

fn degree_json(view: &StoreView, query: &str) -> Result<String, String> {
    let v = required_u32(query, "v")?;
    Ok(format!("{{\"v\":{v},\"epoch\":{},\"degree\":{}}}\n", view.epoch(), view.out_degree(v)))
}

/// Runs a single-root program (BFS or SSSP from `src`) over the view with
/// [`walk()`] and returns the vertices it reached, the largest value among
/// them, the rounds and the edges walked. A root at or beyond the view's
/// vertex space has no edges, so it reaches only itself, at 0, without a
/// walk: no array is sized by a request parameter.
fn reach<P: IncrementalState<Value = u32>>(
    view: &StoreView,
    src: u32,
    program: P,
) -> (usize, u32, usize, u64) {
    if src >= view.vertex_space() {
        return (1, 0, 0, 0);
    }
    let w = walk(&program, view);
    let reached = w.values.iter().filter(|&&v| v != u32::MAX);
    let max = reached.clone().max().copied().unwrap_or(0);
    (reached.count(), max, w.rounds, w.edges)
}

fn bfs_json(view: &StoreView, query: &str) -> Result<String, String> {
    let src = required_u32(query, "src")?;
    let (reached, ecc, iterations, edges) = reach(view, src, Bfs::new(src));
    Ok(format!(
        "{{\"src\":{src},\"epoch\":{},\"reached\":{reached},\"eccentricity\":{ecc},\
         \"iterations\":{iterations},\"edges_processed\":{edges}}}\n",
        view.epoch(),
    ))
}

fn sssp_json(view: &StoreView, query: &str) -> Result<String, String> {
    let src = required_u32(query, "src")?;
    let (reached, max_dist, iterations, _) = reach(view, src, Sssp::new(src));
    Ok(format!(
        "{{\"src\":{src},\"epoch\":{},\"reached\":{reached},\"max_distance\":{max_dist},\
         \"iterations\":{iterations}}}\n",
        view.epoch(),
    ))
}

fn cc_json(view: &StoreView) -> Result<String, String> {
    let w = walk(&Cc::new(), view);
    // A label is the smallest id that reaches its vertices, so it labels
    // itself: the components are the vertices that keep their own id.
    let components = w.values.iter().enumerate().filter(|&(v, &l)| l == v as u32).count();
    Ok(format!(
        "{{\"epoch\":{},\"components\":{components},\"vertices\":{},\"iterations\":{}}}\n",
        view.epoch(),
        w.values.len(),
        w.rounds,
    ))
}

fn pagerank_json(view: &StoreView, query: &str) -> Result<String, String> {
    let iterations: usize = num_param(query, "iterations", 10)?;
    if iterations > MAX_PAGERANK_ITERATIONS {
        return Err(format!("iterations must be at most {MAX_PAGERANK_ITERATIONS}"));
    }
    let k: usize = num_param(query, "top", 10)?;
    let pr = PageRank::new(0.85, iterations);
    let top = pr.top_k(view, k);
    let ranks: Vec<String> = top.iter().map(|(v, score)| format!("[{v},{score:.6}]")).collect();
    Ok(format!(
        "{{\"epoch\":{},\"iterations\":{iterations},\"top\":[{}]}}\n",
        view.epoch(),
        ranks.join(",")
    ))
}

/// Liveness JSON. With a store attached, live edges and the epoch come
/// from a pinned view (exact, no pipeline barrier; the pin may net the
/// batches acked since the last one into the delta). Without one, live
/// edges fall back to the hot-path
/// counters (inserts − deletes) — NOT `num_edges()`, which is a pipeline
/// barrier on a pooled store, and a health probe must never stall ingest.
/// Build info and the acked seq are plain loads.
fn healthz_json(ctx: &ServeCtx) -> String {
    let m = gtinker_core::metrics::global();
    let (live_edges, epoch) = match ctx.store.as_deref().and_then(|s| s.pin_view()) {
        Some(view) => (view.num_edges(), view.epoch() as i64),
        None => (m.tinker_inserts.get().saturating_sub(m.tinker_deletes.get()), -1),
    };
    format!(
        "{{\"status\":\"ok\",\"version\":\"{}\",\"git_hash\":\"{}\",\"uptime_s\":{:.3},\
         \"live_edges\":{},\"live_vertices\":{},\"epoch\":{},\"acked_batches\":{},\
         \"trace_enabled\":{}}}\n",
        json_escape(VERSION),
        json_escape(GIT_HASH),
        ctx.start.elapsed().as_secs_f64(),
        live_edges,
        m.sgh_sources.get().max(0),
        epoch,
        ctx.store.as_deref().map(|s| s.acked_batches()).unwrap_or(0),
        trace::enabled(),
    )
}

/// Live server variables: build info, ingest progress, pin state, the
/// read side's delta (`base_epoch`: the oldest shard base's batch
/// boundary; `delta_ops`: ops held after the bases; `rebase_lag_batches`:
/// acked batches since that base), and the per-endpoint RED windows
/// (sliding-window p50/p95/p99 over the last
/// ~[`WINDOW_ROTATE_SECS`]×[`gtinker_core::metrics::WINDOW_SLOTS`]
/// seconds). Everything here is atomic loads plus short locks; no store
/// barrier, no pin.
fn debug_vars_json(ctx: &ServeCtx) -> String {
    let m = gtinker_core::metrics::global();
    let store = ctx.store.as_deref();
    let mut endpoints = Vec::with_capacity(ENDPOINT_STATS.len());
    for (i, s) in ENDPOINT_STATS.iter().enumerate() {
        let w = s.latency_ns.window();
        let (p50, p95, p99) = w.quantiles();
        endpoints.push(format!(
            "\"{}\":{{\"requests\":{},\"errors\":{},\"window\":{{\"count\":{},\
             \"p50_ns\":{p50},\"p95_ns\":{p95},\"p99_ns\":{p99}}}}}",
            json_escape(endpoint_name(i)),
            s.requests.get(),
            s.errors.get(),
            w.count(),
        ));
    }
    let acked = store.map(|s| s.acked_batches()).unwrap_or(0);
    let (base_epoch, delta_ops) = store.map(|s| s.read_side_stats()).unwrap_or((0, 0));
    format!(
        "{{\"version\":\"{}\",\"git_hash\":\"{}\",\"uptime_s\":{:.3},\
         \"acked_batches\":{acked},\"pending_batches\":{},\"active_pins\":{},\"epoch_pins\":{},\
         \"base_epoch\":{base_epoch},\"delta_ops\":{delta_ops},\"rebase_lag_batches\":{},\
         \"trace_enabled\":{},\"log_level\":\"{}\",\
         \"window_rotate_s\":{WINDOW_ROTATE_SECS},\"endpoints\":{{{}}}}}\n",
        json_escape(VERSION),
        json_escape(GIT_HASH),
        ctx.start.elapsed().as_secs_f64(),
        store.map(|s| s.pending_batches()).unwrap_or(0),
        m.epoch_active_pins.get().max(0),
        m.epoch_pins.get(),
        acked.saturating_sub(base_epoch),
        trace::enabled(),
        log::max_level().map(|l| l.name()).unwrap_or("off"),
        endpoints.join(","),
    )
}

/// The last-N completed request summaries, newest first.
fn debug_requests_json(ctx: &ServeCtx) -> String {
    let ring = ctx.completed.lock().expect("request ring poisoned");
    let rows: Vec<String> = ring
        .iter()
        .rev()
        .map(|r| {
            format!(
                "{{\"id\":{},\"route\":\"{}\",\"status\":{},\"queue_us\":{},\"pin_us\":{},\
                 \"engine_us\":{},\"serialize_us\":{},\"total_us\":{}}}",
                r.id,
                json_escape(&r.path),
                r.status,
                r.queue_us,
                r.pin_us,
                r.engine_us,
                r.serialize_us,
                r.total_us,
            )
        })
        .collect();
    format!("{{\"count\":{},\"requests\":[{}]}}\n", rows.len(), rows.join(","))
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    ctype: &str,
    body: &str,
    head_only: bool,
    req_id: u64,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    // 405 advertises what IS allowed, per RFC 9110 §15.5.6.
    let allow = if status == 405 { "Allow: GET, HEAD\r\n" } else { "" };
    let conn = if keep_alive { "keep-alive" } else { "close" };
    // Header and body leave in one write, hence one segment for a small
    // answer: two writes would stall a kept-alive client ~40 ms (Nagle
    // holding the body until the header's delayed ACK arrives).
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\n\
         Content-Length: {}\r\nX-Request-Id: {req_id}\r\n{allow}Connection: {conn}\r\n\r\n",
        body.len()
    );
    if !head_only {
        response.push_str(body);
    }
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Serialises tests (across this crate's test binary) that toggle the
/// process-global trace flag or the log capture sink.
#[cfg(test)]
pub(crate) static OBS_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use gtinker_types::{Edge, EdgeBatch};
    use std::io::Read;
    use std::net::TcpStream;

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        c.read_to_string(&mut out).unwrap();
        out
    }

    /// Spins up a full server (acceptor + workers), runs `f` against it,
    /// then shuts it down gracefully via the handle.
    fn with_server(ctx: Arc<ServeCtx>, f: impl FnOnce(SocketAddr)) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = spawn(listener, ctx, 2);
        let addr = handle.addr();
        f(addr);
        handle.shutdown();
    }

    fn get_at(addr: SocketAddr, path: &str) -> String {
        request(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    /// One telemetry-only round-trip.
    fn get(path: &str) -> String {
        let mut out = String::new();
        with_server(ServeCtx::telemetry(Instant::now()), |addr| out = get_at(addr, path));
        out
    }

    fn store_ctx() -> Arc<ServeCtx> {
        store_ctx_with(None)
    }

    fn store_ctx_with(slow_query_ms: Option<u64>) -> Arc<ServeCtx> {
        let store = ParallelTinker::new(Default::default(), 2).unwrap();
        store.apply_batch(&EdgeBatch::inserts(&[
            Edge::new(0, 1, 5),
            Edge::new(1, 2, 3),
            Edge::new(0, 2, 7),
        ]));
        ServeCtx::with_options(Instant::now(), Some(Arc::new(store)), slow_query_ms)
    }

    fn request_id(response: &str) -> u64 {
        response
            .lines()
            .find_map(|l| l.strip_prefix("X-Request-Id: "))
            .expect("response carries X-Request-Id")
            .trim()
            .parse()
            .expect("request id is decimal")
    }

    /// Reads one full HTTP response (headers + Content-Length body) off a
    /// possibly kept-alive connection.
    fn read_response(r: &mut BufReader<TcpStream>) -> String {
        let mut out = String::new();
        let mut len = 0usize;
        loop {
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            assert!(!line.is_empty(), "connection closed mid-response: {out}");
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                len = v.trim().parse().unwrap();
            }
            let done = line == "\r\n" || line == "\n";
            out.push_str(&line);
            if done {
                break;
            }
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body).unwrap();
        out.push_str(&String::from_utf8(body).unwrap());
        out
    }

    #[test]
    fn healthz_is_json_with_gauges_and_build_info() {
        let r = get("/healthz");
        assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
        assert!(r.contains("Content-Type: application/json"));
        assert!(r.contains("\"status\":\"ok\""));
        assert!(r.contains("\"live_edges\":"));
        assert!(r.contains("\"live_vertices\":"));
        assert!(r.contains("\"uptime_s\":"));
        assert!(r.contains(&format!("\"version\":\"{VERSION}\"")), "got: {r}");
        assert!(r.contains("\"git_hash\":\""), "got: {r}");
        assert!(r.contains("\"acked_batches\":"), "got: {r}");
    }

    #[test]
    fn metrics_renders_prometheus() {
        let r = get("/metrics");
        assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
        assert!(r.contains("gtinker_tinker_inserts"), "got: {r}");
    }

    #[test]
    fn trace_route_is_chrome_json() {
        let r = get("/trace");
        assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
        let body = r.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.starts_with("{\"displayTimeUnit\""), "got: {body}");
        assert!(body.contains("\"traceEvents\":["));
    }

    #[test]
    fn every_response_carries_a_request_id() {
        with_server(ServeCtx::telemetry(Instant::now()), |addr| {
            let a = request_id(&get_at(addr, "/healthz"));
            let b = request_id(&get_at(addr, "/metrics"));
            let c = request_id(&get_at(addr, "/nope"));
            assert!(a > 0 && b > 0 && c > 0);
            assert!(a != b && b != c && a != c, "ids must be unique: {a} {b} {c}");
        });
    }

    #[test]
    fn debug_vars_reports_endpoint_windows() {
        with_server(store_ctx(), |addr| {
            // Generate traffic: two queries and one error.
            get_at(addr, "/degree?v=0");
            get_at(addr, "/degree?v=0");
            get_at(addr, "/query/bfs");
            let r = get_at(addr, "/debug/vars");
            assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
            assert!(r.contains(&format!("\"version\":\"{VERSION}\"")), "got: {r}");
            assert!(r.contains("\"acked_batches\":1"), "got: {r}");
            assert!(r.contains("\"endpoints\":{"), "got: {r}");
            assert!(r.contains("\"/degree\":{\"requests\":"), "got: {r}");
            assert!(r.contains("\"p50_ns\":"), "got: {r}");
            assert!(r.contains("\"p95_ns\":"), "got: {r}");
            assert!(r.contains("\"p99_ns\":"), "got: {r}");
            // /query/bfs without ?src= is a 400: the error counter moved.
            assert!(r.contains("\"/query/bfs\":{\"requests\":"), "got: {r}");
            let bfs = r.split("\"/query/bfs\":").nth(1).unwrap();
            let errors: u64 = bfs
                .split("\"errors\":")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(errors >= 1, "bad bfs request must count as an error: {r}");
        });
    }

    #[test]
    fn debug_requests_lists_completed_summaries() {
        with_server(store_ctx(), |addr| {
            let first = request_id(&get_at(addr, "/degree?v=0"));
            let r = get_at(addr, "/debug/requests");
            assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
            assert!(r.contains(&format!("\"id\":{first}")), "got: {r}");
            assert!(r.contains("\"route\":\"/degree\""), "got: {r}");
            assert!(r.contains("\"queue_us\":"), "got: {r}");
            assert!(r.contains("\"pin_us\":"), "got: {r}");
            assert!(r.contains("\"engine_us\":"), "got: {r}");
            assert!(r.contains("\"serialize_us\":"), "got: {r}");
        });
    }

    #[test]
    fn unknown_route_is_404_and_root_lists_routes() {
        assert!(get("/nope").starts_with("HTTP/1.1 404"));
        let r = get("/");
        assert!(r.starts_with("HTTP/1.1 200"));
        assert!(r.contains("/query/"));
        assert!(r.contains("/debug/vars"));
    }

    #[test]
    fn non_get_is_405_with_allow_and_connection_close() {
        with_server(ServeCtx::telemetry(Instant::now()), |addr| {
            for method in ["POST", "PUT", "DELETE", "PATCH"] {
                let out = request(addr, &format!("{method} /metrics HTTP/1.1\r\nHost: x\r\n\r\n"));
                assert!(out.starts_with("HTTP/1.1 405"), "{method} got: {out}");
                assert!(out.contains("Allow: GET, HEAD"), "{method} missing Allow: {out}");
                assert!(out.contains("Connection: close"), "{method} must close: {out}");
            }
        });
    }

    #[test]
    fn head_omits_body_and_closes() {
        with_server(ServeCtx::telemetry(Instant::now()), |addr| {
            let out = request(addr, "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
            assert!(out.starts_with("HTTP/1.1 200"), "got: {out}");
            assert!(
                out.trim_end().ends_with("Connection: close"),
                "HEAD must omit the body: {out}"
            );
        });
    }

    #[test]
    fn oversized_request_heads_are_refused_and_closed() {
        let errors = || ENDPOINT_STATS[OTHER_ENDPOINT].errors.get();
        let before = errors();
        with_server(ServeCtx::telemetry(Instant::now()), |addr| {
            let long_line = format!("GET /{} HTTP/1.1\r\nHost: x\r\n\r\n", "a".repeat(64 << 10));
            let out = request(addr, &long_line);
            assert!(out.starts_with("HTTP/1.1 414 URI Too Long"), "got: {out}");
            assert!(out.contains("Connection: close"), "got: {out}");
            let headers: String = (0..100).map(|i| format!("X-H{i}: v\r\n")).collect();
            let out = request(addr, &format!("GET /healthz HTTP/1.1\r\n{headers}\r\n"));
            assert!(out.starts_with("HTTP/1.1 431 Request Header Fields Too Large"), "got: {out}");
            assert!(out.contains("Connection: close"), "got: {out}");
            assert!(get_at(addr, "/healthz").starts_with("HTTP/1.1 200"));
        });
        assert!(errors() >= before + 2, "both refusals count as `other` errors");
    }

    #[test]
    fn keep_alive_reuses_the_connection() {
        with_server(store_ctx(), |addr| {
            let c = TcpStream::connect(addr).unwrap();
            let mut w = c.try_clone().unwrap();
            let mut r = BufReader::new(c);
            w.write_all(b"GET /degree?v=0 HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n")
                .unwrap();
            let first = read_response(&mut r);
            assert!(first.starts_with("HTTP/1.1 200"), "got: {first}");
            assert!(first.contains("Connection: keep-alive"), "got: {first}");
            assert!(first.contains("\"degree\":2"), "got: {first}");
            // Same socket, second request: without keep-alive it closes.
            w.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let second = read_response(&mut r);
            assert!(second.starts_with("HTTP/1.1 200"), "reuse failed: {second}");
            assert!(second.contains("Connection: close"), "got: {second}");
            assert!(second.contains("\"status\":\"ok\""), "got: {second}");
            assert!(
                request_id(&second) > request_id(&first),
                "each request on the connection gets its own id"
            );
            // The server closed after the non-keep-alive response.
            let mut rest = String::new();
            r.read_to_string(&mut rest).unwrap();
            assert!(rest.is_empty(), "expected EOF, got: {rest}");
        });
    }

    #[test]
    fn keep_alive_round_trips_do_not_stall() {
        with_server(ServeCtx::telemetry(Instant::now()), |addr| {
            let c = TcpStream::connect(addr).unwrap();
            let mut w = c.try_clone().unwrap();
            let mut r = BufReader::new(c);
            let t0 = Instant::now();
            for _ in 0..20 {
                w.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n")
                    .unwrap();
                let resp = read_response(&mut r);
                assert!(resp.starts_with("HTTP/1.1 200"), "got: {resp}");
            }
            // A split header/body write costs ~44 ms per answer (880 ms here).
            let took = t0.elapsed();
            assert!(took < Duration::from_millis(200), "20 keep-alive round trips took {took:?}");
        });
    }

    #[test]
    fn slow_query_log_fires_above_threshold_and_stays_silent_below() {
        let _g = OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        if !log::enabled(log::Level::Warn) {
            return; // log feature compiled out
        }
        // Threshold 0: every request is "slow" and must produce a record
        // with the full phase breakdown.
        log::set_capture(true);
        with_server(store_ctx_with(Some(0)), |addr| {
            let r = get_at(addr, "/query/bfs?src=0");
            assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
            let id = request_id(&r);
            let lines = log::drain_capture();
            let slow: Vec<&String> =
                lines.iter().filter(|l| l.contains("msg=\"slow query\"")).collect();
            assert!(!slow.is_empty(), "expected a slow-query record, got: {lines:?}");
            let line = slow
                .iter()
                .find(|l| l.contains(&format!(" id={id} ")))
                .unwrap_or_else(|| panic!("no slow-query record for id {id} in {slow:?}"));
            for key in ["queue_us=", "pin_us=", "engine_us=", "serialize_us=", "total_us="] {
                assert!(line.contains(key), "missing {key} in: {line}");
            }
            assert!(line.contains("route=\"/query/bfs\""), "got: {line}");
        });
        // Threshold far above anything local: silent.
        log::drain_capture();
        with_server(store_ctx_with(Some(3_600_000)), |addr| {
            let r = get_at(addr, "/query/bfs?src=0");
            assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
            let lines = log::drain_capture();
            assert!(
                !lines.iter().any(|l| l.contains("msg=\"slow query\"")),
                "sub-threshold request must not log: {lines:?}"
            );
        });
        log::set_capture(false);
    }

    #[test]
    fn request_errors_emit_structured_records_with_ids() {
        let _g = OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        if !log::enabled(log::Level::Warn) {
            return; // log feature compiled out
        }
        log::set_capture(true);
        with_server(store_ctx(), |addr| {
            let r = get_at(addr, "/query/bfs?src=banana");
            assert!(r.starts_with("HTTP/1.1 400"), "got: {r}");
            let id = request_id(&r);
            let lines = log::drain_capture();
            let hit = lines.iter().find(|l| {
                l.contains("msg=\"request failed\"") && l.contains(&format!(" id={id} "))
            });
            assert!(hit.is_some(), "expected an error record for id {id}, got: {lines:?}");
            assert!(hit.unwrap().contains("status=400"), "got: {}", hit.unwrap());
        });
        log::set_capture(false);
    }

    #[test]
    fn request_id_locates_its_spans_in_the_trace_dump() {
        let _g = OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        trace::set_enabled(true);
        if !trace::enabled() {
            return; // trace feature compiled out
        }
        let mut id = 0u64;
        with_server(store_ctx(), |addr| {
            let r = get_at(addr, "/query/bfs?src=0");
            assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
            id = request_id(&r);
        });
        trace::set_enabled(false);
        let d = trace::dump();
        let spans: std::collections::HashSet<SpanId> =
            d.events.iter().filter(|e| e.arg == id).map(|e| e.span).collect();
        for want in
            [SpanId::ServeRequest, SpanId::EpochPin, SpanId::EngineProcess, SpanId::ServeSerialize]
        {
            assert!(
                spans.contains(&want),
                "span {want:?} for request {id} missing from dump: {spans:?}"
            );
        }
    }

    #[test]
    fn query_strings_are_ignored_in_telemetry_routing() {
        let r = get("/healthz?probe=1");
        assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
        assert!(r.contains("\"status\":\"ok\""));
    }

    #[test]
    fn query_routes_answer_503_without_a_store() {
        for path in ["/query/bfs?src=0", "/neighbors?v=0", "/degree?v=0", "/query/cc"] {
            let r = get(path);
            assert!(r.starts_with("HTTP/1.1 503"), "{path} got: {r}");
            assert!(r.contains("no store attached"), "{path} got: {r}");
        }
    }

    #[test]
    fn query_routes_serve_pinned_views() {
        with_server(store_ctx(), |addr| {
            let r = get_at(addr, "/degree?v=0");
            assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
            assert!(r.contains("\"degree\":2"), "got: {r}");
            assert!(r.contains("\"epoch\":1"), "got: {r}");

            let r = get_at(addr, "/neighbors?v=0");
            assert!(r.contains("\"neighbors\":["), "got: {r}");
            assert!(r.contains("[1,5]") && r.contains("[2,7]"), "got: {r}");

            let r = get_at(addr, "/query/bfs?src=0");
            assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
            assert!(r.contains("\"reached\":3"), "got: {r}");
            assert!(r.contains("\"eccentricity\":1"), "got: {r}");

            let r = get_at(addr, "/query/sssp?src=0");
            assert!(r.contains("\"reached\":3"), "got: {r}");
            // 0→1→2 via weight 5+3=8 vs direct 7: SSSP takes 7.
            assert!(r.contains("\"max_distance\":7"), "got: {r}");

            let r = get_at(addr, "/query/cc");
            assert!(r.contains("\"components\":1"), "got: {r}");

            let r = get_at(addr, "/query/pagerank?iterations=5&top=2");
            assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
            assert!(r.contains("\"top\":[["), "got: {r}");
        });
    }

    /// `/neighbors` writes one buffer; its body is byte for byte the
    /// per-neighbour-`String` format it replaced, for a hub row, a
    /// one-edge row, an empty row and a vertex past the store.
    #[test]
    fn neighbors_body_matches_the_joined_format() {
        let store = ParallelTinker::new(Default::default(), 2).unwrap();
        let hub: Vec<Edge> = (0..3_000).map(|d| Edge::new(3, d * 7 + 1, d % 97 + 1)).collect();
        store.apply_batch(&EdgeBatch::inserts(&hub));
        store.apply_batch(&EdgeBatch::inserts(&[Edge::new(5, 4_000_000, u32::MAX)]));
        store.apply_batch(&EdgeBatch::deletes(&[(3, 8), (3, 701)]));
        let view = store.pin_view().unwrap();
        for v in [3, 5, 7, 9_000_000] {
            let mut out = Vec::new();
            view.for_each_out_edge(v, |d, w| out.push(format!("[{d},{w}]")));
            let want = format!(
                "{{\"v\":{v},\"epoch\":{},\"degree\":{},\"neighbors\":[{}]}}\n",
                view.epoch(),
                out.len(),
                out.join(",")
            );
            assert_eq!(neighbors_json(&view, &format!("v={v}")).unwrap(), want, "row {v}");
        }
    }

    #[test]
    fn bad_and_missing_params_are_400() {
        with_server(store_ctx(), |addr| {
            for path in ["/query/bfs", "/query/bfs?src=banana", "/neighbors", "/degree?v=-3"] {
                let r = get_at(addr, path);
                assert!(r.starts_with("HTTP/1.1 400"), "{path} got: {r}");
                assert!(r.contains("\"error\""), "{path} got: {r}");
            }
            // A quote and a backslash in the echoed value stay inside the
            // JSON string.
            let r = get_at(addr, "/query/pagerank?top=a\"b\\c");
            assert!(r.starts_with("HTTP/1.1 400"), "got: {r}");
            let body = r.split_once("\r\n\r\n").map(|(_, b)| b);
            assert_eq!(body, Some("{\"error\":\"bad top: 'a\\\"b\\\\c'\"}\n"), "got: {r}");
        });
    }

    #[test]
    fn out_of_space_roots_and_oversized_pagerank_leave_the_server_up() {
        // One worker: a panic in it would leave nothing to answer /healthz.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = spawn(listener, store_ctx(), 1);
        let addr = handle.addr();
        for src in [u32::MAX, 3_000_000_000, 3] {
            let r = get_at(addr, &format!("/query/bfs?src={src}"));
            assert!(r.starts_with("HTTP/1.1 200"), "bfs {src} got: {r}");
            assert!(r.contains("\"reached\":1,\"eccentricity\":0"), "bfs {src} got: {r}");
            let r = get_at(addr, &format!("/query/sssp?src={src}"));
            assert!(r.starts_with("HTTP/1.1 200"), "sssp {src} got: {r}");
            assert!(r.contains("\"reached\":1,\"max_distance\":0"), "sssp {src} got: {r}");
        }
        // Inside the vertex space a root with no out-edges answers alike.
        let r = get_at(addr, "/query/bfs?src=2");
        assert!(r.contains("\"reached\":1,\"eccentricity\":0"), "got: {r}");

        let r = get_at(addr, &format!("/query/pagerank?iterations={MAX_PAGERANK_ITERATIONS}"));
        assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
        let r =
            get_at(addr, &format!("/query/pagerank?iterations={}", MAX_PAGERANK_ITERATIONS + 1));
        assert!(r.starts_with("HTTP/1.1 400"), "got: {r}");
        assert!(r.contains(&format!("at most {MAX_PAGERANK_ITERATIONS}")), "got: {r}");

        let r = get_at(addr, "/healthz");
        assert!(r.starts_with("HTTP/1.1 200"), "got: {r}");
        handle.shutdown();
    }

    #[test]
    fn healthz_reports_exact_counts_and_epoch_with_store() {
        with_server(store_ctx(), |addr| {
            let r = get_at(addr, "/healthz");
            assert!(r.contains("\"live_edges\":3"), "got: {r}");
            assert!(r.contains("\"epoch\":1"), "got: {r}");
            assert!(r.contains("\"acked_batches\":1"), "got: {r}");
        });
    }

    #[test]
    fn quitquitquit_stops_the_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = spawn(listener, ServeCtx::telemetry(Instant::now()), 2);
        let addr = handle.addr();
        let out = request(addr, "GET /quitquitquit HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"), "got: {out}");
        assert!(out.contains("shutting down"), "got: {out}");
        // join (not shutdown): the quit route alone must stop the server.
        handle.join();
    }
}
