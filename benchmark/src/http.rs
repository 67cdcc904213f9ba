//! A minimal HTTP/1.1 client for the `gtinker serve` socket: keep-alive
//! with reconnect when the server closes, plus the text scrapers for
//! `/metrics` and the JSON bodies.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::spans::Tracer;

/// Longest a single response may take; a full BFS stays far below this.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// The `X-Request-Id` header (0 if absent).
    pub request_id: u64,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
}

/// One logical client: at most one open connection, reused until the
/// server closes it (its 100-request cap or idle timeout), then reopened.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened, the first included.
    pub connects: u64,
    /// Connections reopened because the server closed the previous one.
    pub reconnects: u64,
    /// Time of each connect, nanoseconds.
    pub connect_ns: Vec<u64>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr, conn: None, connects: 0, reconnects: 0, connect_ns: Vec::new() }
    }

    /// Drops the connection, so the server's worker is free for another
    /// client.
    pub fn close(&mut self) {
        self.conn = None;
    }

    /// `GET path` with keep-alive. A request that fails before any byte of
    /// the response arrived on a reused connection is retried once on a
    /// fresh one: the server may have idled the old one out.
    pub fn get(&mut self, path: &str, tr: &mut Tracer) -> io::Result<Response> {
        let open = tr.begin("cli.serve.request");
        let reused = self.conn.is_some();
        let mut result = self.exchange(path, tr);
        if reused && matches!(&result, Err(e) if is_stale(e)) {
            self.conn = None;
            result = self.exchange(path, tr);
        }
        let req = result.as_ref().map_or(0, |r| r.request_id);
        tr.end_req(open, req);
        if !matches!(&result, Ok(r) if r.keep_alive) {
            self.conn = None;
        }
        result
    }

    fn exchange(&mut self, path: &str, tr: &mut Tracer) -> io::Result<Response> {
        if self.conn.is_none() {
            let (stream, took) = tr.time("cli.serve.connect", || connect(self.addr));
            self.conn = Some(BufReader::new(stream?));
            self.connect_ns.push(took.as_nanos() as u64);
            if self.connects > 0 {
                self.reconnects += 1;
            }
            self.connects += 1;
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        let request =
            format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n");
        conn.get_mut().write_all(request.as_bytes())?;
        read_response(conn)
    }
}

/// An error that means "the peer had already closed this connection",
/// seen before any response byte.
fn is_stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// One request on a connection of its own (`Connection: close`): used for
/// readiness probes, scrapes and shutdown, which must not hold a worker.
pub fn get_once(addr: SocketAddr, path: &str) -> io::Result<Response> {
    let mut conn = BufReader::new(connect(addr)?);
    let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    conn.get_mut().write_all(request.as_bytes())?;
    read_response(&mut conn)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn read_response<R: BufRead>(r: &mut R) -> io::Result<Response> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed before status line"));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let (mut len, mut request_id, mut keep_alive) = (0usize, 0u64, false);
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("closed inside headers"));
        }
        let Some((key, value)) = line.trim_end().split_once(':') else {
            break; // the blank line
        };
        let value = value.trim();
        if key.eq_ignore_ascii_case("content-length") {
            len = value.parse().map_err(|_| bad("bad Content-Length"))?;
        } else if key.eq_ignore_ascii_case("x-request-id") {
            request_id = value.parse().unwrap_or(0);
        } else if key.eq_ignore_ascii_case("connection") {
            keep_alive = value.eq_ignore_ascii_case("keep-alive");
        }
    }
    // The largest body is /metrics, a few tens of KiB.
    if len > 16 << 20 {
        return Err(bad("Content-Length beyond 16 MiB"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    Ok(Response { status, body, request_id, keep_alive })
}

/// The value of series `name` in Prometheus exposition text (an exact
/// name match: `x_sum` does not match `x`; labelled series are skipped).
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// The unsigned integer after `"key":` in a flat JSON body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// A stand-in for `gtinker serve`: answers `{"n":<count>}` and closes
    /// every connection after `cap` requests, as the real server does
    /// after `MAX_KEEPALIVE_REQUESTS`.
    fn capped_server(cap: usize, total: usize) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut served, mut accepted) = (0usize, 0usize);
            while served < total {
                let (stream, _) = listener.accept().unwrap();
                accepted += 1;
                let mut r = BufReader::new(stream);
                for on_conn in 1..=cap {
                    let mut line = String::new();
                    if r.read_line(&mut line).unwrap() == 0 {
                        break;
                    }
                    while r.read_line(&mut line).unwrap() > 2 {
                        line.clear();
                    }
                    served += 1;
                    let body = format!("{{\"n\":{served}}}\n");
                    let conn = if on_conn < cap { "keep-alive" } else { "close" };
                    let head = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nX-Request-Id: {served}\r\n\
                         Connection: {conn}\r\n\r\n",
                        body.len()
                    );
                    // One write: a header and a body written separately
                    // stall ~40 ms per kept-alive request (Nagle holds the
                    // body until the client's delayed ACK).
                    r.get_mut().write_all(format!("{head}{body}").as_bytes()).unwrap();
                    if served == total {
                        break;
                    }
                }
            }
            accepted
        });
        (addr, handle)
    }

    #[test]
    fn reconnects_after_the_keepalive_cap_and_counts_it() {
        let (addr, server) = capped_server(100, 250);
        let mut client = Client::new(addr);
        let mut tr = Tracer::new(true, Instant::now());
        for i in 1..=250u64 {
            let r = client.get("/degree?v=1", &mut tr).unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(json_u64(&r.body, "n"), Some(i));
            assert_eq!(r.request_id, i);
        }
        assert_eq!(server.join().unwrap(), 3);
        assert_eq!(client.connects, 3);
        assert_eq!(client.reconnects, 2);
        assert_eq!(client.connect_ns.len(), 3);
        // Every request is a span carrying its id; connects nest inside.
        let requests: Vec<_> =
            tr.spans().iter().filter(|s| s.name == "cli.serve.request").collect();
        assert_eq!(requests.len(), 250);
        assert_eq!(requests[99].req, 100);
        let connects: Vec<_> =
            tr.spans().iter().filter(|s| s.name == "cli.serve.connect").collect();
        assert_eq!(connects.len(), 3);
        assert!(connects.iter().all(|s| s.parent.is_some()));
    }

    #[test]
    fn a_stale_connection_is_retried_once() {
        // The server closes after one request but says keep-alive, as an
        // idle timeout would look to the client.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut r = BufReader::new(stream);
                let mut line = String::new();
                while r.read_line(&mut line).unwrap() > 2 {
                    line.clear();
                }
                let head = "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n";
                r.get_mut().write_all(head.as_bytes()).unwrap();
            }
        });
        let mut client = Client::new(addr);
        let mut tr = Tracer::new(false, Instant::now());
        assert_eq!(client.get("/a", &mut tr).unwrap().status, 200);
        assert_eq!(client.get("/b", &mut tr).unwrap().status, 200);
        server.join().unwrap();
        assert_eq!(client.reconnects, 1);
    }

    #[test]
    fn scrapes_prometheus_text_by_exact_series_name() {
        let text = "# TYPE gtinker_epoch_pins counter\ngtinker_epoch_pins 42\n\
                    gtinker_serve_query_ns_bucket{le=\"1023\"} 7\n\
                    gtinker_serve_query_ns_sum 123456\ngtinker_serve_query_ns_count 10\n\
                    gtinker_epoch_backlog_depth -3\n";
        assert_eq!(prom_value(text, "gtinker_epoch_pins"), Some(42.0));
        assert_eq!(prom_value(text, "gtinker_serve_query_ns_sum"), Some(123456.0));
        assert_eq!(prom_value(text, "gtinker_serve_query_ns_count"), Some(10.0));
        assert_eq!(prom_value(text, "gtinker_serve_query_ns"), None);
        assert_eq!(prom_value(text, "gtinker_epoch_backlog_depth"), Some(-3.0));
        assert_eq!(prom_value(text, "gtinker_missing"), None);
    }

    #[test]
    fn extracts_json_fields_and_rejects_malformed_responses() {
        let body = "{\"v\":7,\"epoch\":12,\"degree\":345}\n";
        assert_eq!(json_u64(body, "degree"), Some(345));
        assert_eq!(json_u64(body, "epoch"), Some(12));
        assert_eq!(json_u64(body, "v"), Some(7));
        assert_eq!(json_u64(body, "reached"), None);
        assert_eq!(json_u64("{\"degree\":x}", "degree"), None);

        let mut ok = io::Cursor::new(
            "HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\nX-Request-Id: 9\r\n\r\nhi",
        );
        let r = read_response(&mut ok).unwrap();
        assert_eq!((r.status, r.body.as_str(), r.request_id, r.keep_alive), (404, "hi", 9, false));
        assert!(read_response(&mut io::Cursor::new("garbage\r\n\r\n")).is_err());
        assert!(read_response(&mut io::Cursor::new(
            "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhi"
        ))
        .is_err());
        assert_eq!(
            read_response(&mut io::Cursor::new("")).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }
}
