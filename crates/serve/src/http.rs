//! A dependency-free `std::net` HTTP/1.1 listener for operational
//! endpoints.
//!
//! The offline workspace has no hyper/axum, and an ops plane doesn't need
//! one: this module serves **GET-only, closed-connection** responses from
//! caller-provided handlers — enough for `/healthz` and `/metrics`
//! scrapers, and nothing more. One accept thread handles connections
//! serially (an ops endpoint is scraped a few times a second, not load
//! tested); a request head is capped at [`MAX_HEAD`] bytes and must
//! arrive within [`HEAD_DEADLINE`], so no client holds that thread for
//! long; malformed or oversized requests get `400`, unknown paths `404`,
//! and every response carries `Content-Length` + `Connection: close` so
//! plain `curl` and probe scripts work unmodified.
//!
//! The integration with the sharded server lives in
//! [`ShardedServer::serve_http`](crate::ShardedServer::serve_http);
//! this module knows nothing about serving — handlers are opaque
//! closures, so tests drive the listener with plain canned responses.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The most bytes of request head (request line and headers) the listener
/// reads; a longer head gets `400`.
pub const MAX_HEAD: usize = 8 * 1024;

/// How long a client has to send its whole request head.
pub const HEAD_DEADLINE: Duration = Duration::from_secs(1);

/// One response from a route handler.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code (200, 404, 503, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            body,
        }
    }

    /// A JSON response with an explicit status (health endpoints signal
    /// degradation through the status code).
    pub fn json_with_status(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A `200 OK` Prometheus text-exposition response (the version suffix
    /// in the content type is what scrapers key the parser on).
    pub fn prometheus(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// A GET route: exact path (e.g. `"/healthz"`) and the handler producing
/// its response. Handlers run on the accept thread — keep them to
/// snapshot-and-format work.
pub type Route = (String, Arc<dyn Fn() -> HttpResponse + Send + Sync>);

/// Handle to a running listener; [`HttpHandle::shutdown`] (or drop) stops
/// it.
#[derive(Debug)]
pub struct HttpHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    worker: Option<JoinHandle<()>>,
}

impl HttpHandle {
    /// The bound address (port resolved, so `addr = "127.0.0.1:0"` works
    /// for tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the worker. Idempotent; also runs
    /// on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(worker) = self.worker.take() {
            // A blocking `accept` only notices the flag on its next
            // connection — give it one.
            let _ = TcpStream::connect(self.addr);
            let _ = worker.join();
        }
    }
}

impl Drop for HttpHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and serves `routes` until the handle shuts down. Routes
/// match exactly (no prefixes, no query strings).
pub fn spawn(addr: impl ToSocketAddrs, routes: Vec<Route>) -> std::io::Result<HttpHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let worker_stop = Arc::clone(&stop);
    let worker = std::thread::Builder::new()
        .name("nnlut-serve-http".into())
        .spawn(move || accept_loop(listener, routes, worker_stop))?;
    Ok(HttpHandle {
        addr,
        stop,
        worker: Some(worker),
    })
}

fn accept_loop(listener: TcpListener, routes: Vec<Route>, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A stuck client must not wedge the ops plane: its head is capped
        // and has one deadline (`read_head`), and the reply 500 ms.
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        let _ = serve_one(stream, &routes);
    }
}

/// Reads the request head through the blank line that ends it (or to
/// EOF): its text, or `None` once it outgrows [`MAX_HEAD`]. The whole
/// head shares one [`HEAD_DEADLINE`] — each read waits only for what is
/// left of it — so a client trickling bytes cannot hold the accept thread.
fn read_head(stream: &TcpStream) -> std::io::Result<Option<String>> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut limited = stream.take(MAX_HEAD as u64 + 1);
    let (mut head, mut chunk) = (Vec::new(), [0u8; 1024]);
    let ended =
        |h: &[u8]| h.windows(2).any(|w| w == b"\n\n") || h.windows(3).any(|w| w == b"\n\r\n");
    while !ended(&head) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        match limited.read(&mut chunk)? {
            0 => break,
            n => head.extend_from_slice(&chunk[..n]),
        }
    }
    Ok((head.len() <= MAX_HEAD).then(|| String::from_utf8_lossy(&head).into_owned()))
}

fn serve_one(mut stream: TcpStream, routes: &[Route]) -> std::io::Result<()> {
    // The headers are ignored (GET has no body); only the request line
    // routes.
    let head = read_head(&stream)?;
    let request_line = head.as_deref().and_then(|head| head.lines().next());
    let response = match request_line.and_then(parse_get_path) {
        Some(path) => match routes.iter().find(|(p, _)| p == &path) {
            Some((_, handler)) => handler(),
            None => HttpResponse {
                status: 404,
                content_type: "text/plain",
                body: format!("no route for {path}\n"),
            },
        },
        None => HttpResponse {
            status: 400,
            content_type: "text/plain",
            body: "only GET <path> HTTP/1.x is served here\n".into(),
        },
    };
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        response.body,
    )?;
    stream.flush()
}

/// `"GET /healthz HTTP/1.1"` → `Some("/healthz")`; anything else `None`.
fn parse_get_path(request_line: &str) -> Option<String> {
    let mut parts = request_line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("GET"), Some(path), Some(version)) if version.starts_with("HTTP/1") => {
            Some(path.to_string())
        }
        _ => None,
    }
}

/// Blocking one-shot GET against a listener spawned by this module —
/// what the example and tests use instead of curl. Returns
/// `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: nnlut\r\n\r\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    // Skip headers, then read the body to EOF (the listener closes).
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut body = String::new();
    std::io::Read::read_to_string(&mut reader, &mut body)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canned(routes: Vec<(&str, u16, &str)>) -> HttpHandle {
        let routes: Vec<Route> = routes
            .into_iter()
            .map(|(path, status, body)| {
                let body = body.to_string();
                let handler: Arc<dyn Fn() -> HttpResponse + Send + Sync> =
                    Arc::new(move || HttpResponse::json_with_status(status, body.clone()));
                (path.to_string(), handler)
            })
            .collect();
        spawn("127.0.0.1:0", routes).expect("bind an ephemeral port")
    }

    #[test]
    fn routes_resolve_and_unknown_paths_404() {
        let handle = canned(vec![("/healthz", 200, "{\"ok\":true}")]);
        let (status, body) = get(handle.addr(), "/healthz").expect("listener is up");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        let (status, _) = get(handle.addr(), "/nope").expect("404 still answers");
        assert_eq!(status, 404);
    }

    #[test]
    fn handler_status_passes_through() {
        let handle = canned(vec![("/healthz", 503, "{\"ok\":false}")]);
        let (status, body) = get(handle.addr(), "/healthz").expect("listener is up");
        assert_eq!(status, 503);
        assert_eq!(body, "{\"ok\":false}");
    }

    #[test]
    fn malformed_requests_get_400() {
        let handle = canned(vec![("/x", 200, "{}")]);
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        write!(stream, "BREW /x HTCPCP/1.0\r\n\r\n").expect("write");
        let mut reply = String::new();
        std::io::Read::read_to_string(&mut BufReader::new(stream), &mut reply).expect("read");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    }

    /// A head past the cap is refused at the cap: a 64 KiB request line
    /// gets `400` at once, not a read of all of it and a wait for more.
    #[test]
    fn oversized_head_gets_400_promptly() {
        let handle = canned(vec![("/x", 200, "{}")]);
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        let start = Instant::now();
        // The listener may close before taking it all; only the reply counts.
        let _ = write!(stream, "GET /{} HTTP/1.1", "a".repeat(64 * 1024));
        let mut reply = Vec::new();
        // A reset after the reply (the rest of the line went unread) ends
        // the read; what arrived before it is kept.
        let _ = stream.read_to_end(&mut reply);
        let reply = String::from_utf8_lossy(&reply);
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply:?}");
        assert!(start.elapsed() < HEAD_DEADLINE, "{:?}", start.elapsed());
    }

    /// A client sending one header line every 400 ms loses the accept
    /// thread when its head's deadline passes, so a scrape queued behind
    /// it is still served (within `get`'s 2 s read timeout).
    #[test]
    fn trickling_client_cannot_hold_the_listener() {
        let handle = canned(vec![("/healthz", 200, "{\"ok\":true}")]);
        let mut slow = TcpStream::connect(handle.addr()).expect("connect");
        write!(slow, "GET /healthz HTTP/1.1\r\n").expect("write");
        let stop = Arc::new(AtomicBool::new(false));
        let trickle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) && write!(slow, "X-Slow: 1\r\n").is_ok() {
                    std::thread::sleep(Duration::from_millis(400));
                }
            })
        };
        // The accept queue is FIFO: the trickler, connected first, is
        // accepted first, and the scrape waits behind it.
        let start = Instant::now();
        let served = get(handle.addr(), "/healthz");
        stop.store(true, Ordering::SeqCst);
        trickle.join().expect("trickler");
        let (status, body) = served.expect("healthz served while a client trickles");
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
        assert!(start.elapsed() < 2 * HEAD_DEADLINE, "{:?}", start.elapsed());
    }

    #[test]
    fn shutdown_is_idempotent_and_unblocks_accept() {
        let mut handle = canned(vec![]);
        handle.shutdown();
        handle.shutdown();
        assert!(get(handle.addr(), "/x").is_err(), "listener is gone");
    }
}
