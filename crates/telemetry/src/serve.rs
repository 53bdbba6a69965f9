//! Live serving: a shared snapshot hub and a minimal std-only HTTP server
//! (the `intellinoc serve` control plane and its `GET /metrics`).
//!
//! Determinism contract: the simulation thread *publishes* rendered
//! exposition text into a [`MetricsHub`] at points it fully controls (once
//! per control step). Serving — the TCP accept loop, response writing,
//! wall-clock pacing of scrapers — happens on a separate thread that only
//! ever *reads* the latest snapshot. Nothing on the serving side can feed
//! back into simulation state, so publishing cannot change a single
//! simulated byte (pinned by same-seed byte-identity tests).
//!
//! Robustness contract: the accept loop never dies. Transient `accept()`
//! errors (`EMFILE`/`ENFILE` descriptor exhaustion, `ECONNABORTED`,
//! `EINTR`) are survived with capped exponential backoff, and every error
//! emits one structured JSONL event on stderr so operators can see
//! descriptor pressure instead of a silently wedged endpoint.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Shared holder of the most recent rendered exposition snapshot.
///
/// Cheap to clone behind an [`Arc`]; the publisher replaces the whole
/// snapshot string atomically under a mutex held only for the swap.
#[derive(Debug, Default)]
pub struct MetricsHub {
    snapshot: Mutex<String>,
    version: AtomicU64,
}

impl MetricsHub {
    /// A hub with an empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        MetricsHub::default()
    }

    /// Replaces the current snapshot with freshly rendered exposition text.
    pub fn publish(&self, exposition: String) {
        *self.snapshot.lock().expect("metrics hub poisoned") = exposition;
        self.version.fetch_add(1, Ordering::Release);
    }

    /// The latest published exposition text (empty before first publish).
    #[must_use]
    pub fn snapshot(&self) -> String {
        self.snapshot.lock().expect("metrics hub poisoned").clone()
    }

    /// How many times [`MetricsHub::publish`] has run — lets tests and
    /// scrapers detect staleness without comparing bodies.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

/// One parsed HTTP request as seen by an [`HttpServer`] handler.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...), upper-cased as received.
    pub method: String,
    /// Request path (query string included verbatim).
    pub path: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes, possibly empty).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of a header, by case-insensitive name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The request body as UTF-8 (lossy).
    #[must_use]
    pub fn body_string(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The response a handler returns; rendered as HTTP/1.0 with
/// `Connection: close` (one request per connection, like a scraper).
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (the reason phrase is derived from it).
    pub status: u16,
    /// Extra header `(name, value)` pairs (Content-Type etc.).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A `text/plain` response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header pair.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> HttpResponse {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serializes status line + headers + body to wire bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!("HTTP/1.0 {} {}\r\n", self.status, self.reason());
        for (n, v) in &self.headers {
            head.push_str(n);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\nConnection: close\r\n\r\n", self.body.len()));
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Handler invoked per request on the serving thread.
pub type HttpHandler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// Largest request head and body the server will buffer.
const MAX_HEAD_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Most the server discards of request bytes that have arrived unread by
/// the time it answers (the rest of a refused head or body, or bytes past
/// `Content-Length`): closing with them unread would reset the connection
/// under a response the client has yet to read.
const DRAIN_BYTES: u64 = 64 * 1024;

/// Why a request was refused: the status and the reason sent back.
type Refusal = (u16, &'static str);
const MALFORMED: Refusal = (400, "malformed request\n");

/// Per-connection socket timeout: a stalled client cannot wedge the
/// serving thread for longer than this.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Accept-loop backoff: starts at [`ACCEPT_BACKOFF_BASE_MS`] on the first
/// error, doubles per consecutive error, and never exceeds
/// [`ACCEPT_BACKOFF_CAP_MS`]; a successful accept resets it.
pub const ACCEPT_BACKOFF_BASE_MS: u64 = 10;
/// Upper bound of the accept-loop backoff ladder (milliseconds).
pub const ACCEPT_BACKOFF_CAP_MS: u64 = 1_000;

/// The backoff delay after `consecutive` accept errors (1-based).
#[must_use]
pub fn accept_backoff_ms(consecutive: u32) -> u64 {
    let doublings = consecutive.saturating_sub(1).min(63);
    ACCEPT_BACKOFF_BASE_MS.saturating_mul(1u64 << doublings.min(20)).min(ACCEPT_BACKOFF_CAP_MS)
}

/// A minimal std-only HTTP/1.0 server: one accept thread, one request per
/// connection, handler invoked inline. Exactly what a Prometheus scraper,
/// `curl`, or the `intellinoc serve` control plane needs — no HTTP library
/// dependency, no connection pooling to go wrong.
pub struct HttpServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_errors: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept thread with `handler` serving every request.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn bind(addr: &str, handler: HttpHandler) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_errors = Arc::new(AtomicU64::new(0));
        let thread_stop = Arc::clone(&stop);
        let thread_errors = Arc::clone(&accept_errors);
        let handle = std::thread::Builder::new()
            .name("noc-http-serve".into())
            .spawn(move || accept_loop(&listener, &thread_stop, &thread_errors, &handler))?;
        Ok(HttpServer { addr, stop, accept_errors, handle: Some(handle) })
    }

    /// The bound address (resolves port `0` to the actual ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Accept errors survived so far (monotonic).
    #[must_use]
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors.load(Ordering::Relaxed)
    }

    /// Stops the accept thread and waits for it to exit.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Wake the blocking accept() with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    errors: &AtomicU64,
    handler: &HttpHandler,
) {
    let mut consecutive = 0u32;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                consecutive = 0;
                stream
            }
            Err(e) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                // Transient accept failures (descriptor exhaustion, client
                // aborts, signal interrupts) must not kill the endpoint:
                // back off with a capped exponential ladder and log one
                // structured event per error instead of dying silently or
                // hot-spinning.
                consecutive = consecutive.saturating_add(1);
                errors.fetch_add(1, Ordering::Relaxed);
                let backoff = accept_backoff_ms(consecutive);
                eprintln!(
                    "{{\"event\":\"http-accept-error\",\"kind\":\"{:?}\",\"error\":\"{}\",\
                     \"consecutive\":{consecutive},\"backoff_ms\":{backoff}}}",
                    e.kind(),
                    e.to_string().replace('"', "'"),
                );
                std::thread::sleep(Duration::from_millis(backoff));
                continue;
            }
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        // Serve inline: control-plane and scrape traffic is low frequency,
        // and one thread keeps shutdown trivially race-free.
        let _ = serve_one(stream, handler);
    }
}

/// Reads one request head + body off `stream`, or the refusal to answer
/// instead: 413 for a head or declared body over its limit, 400 for a
/// malformed request or a body that ends before its `Content-Length`.
fn read_request(stream: &mut TcpStream) -> std::io::Result<Result<HttpRequest, Refusal>> {
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let mut buf = [0u8; 1024];
    let mut head = Vec::new();
    let split;
    loop {
        if let Some(i) = find_head_end(&head) {
            split = i;
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Ok(Err((413, "request head too large\n")));
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(Err(MALFORMED));
        }
        head.extend_from_slice(&buf[..n]);
    }
    let (head_bytes, mut rest) = {
        let (h, r) = head.split_at(split.0);
        (h.to_vec(), r[split.1..].to_vec())
    };
    let text = String::from_utf8_lossy(&head_bytes).into_owned();
    let mut lines = text.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Ok(Err(MALFORMED));
    };
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let declared = headers.iter().find(|(n, _)| n == "content-length");
    let Ok(content_length) = declared.map_or(Ok(0), |(_, v)| v.parse::<usize>()) else {
        return Ok(Err(MALFORMED));
    };
    if content_length > MAX_BODY_BYTES {
        return Ok(Err((413, "request body too large\n")));
    }
    while rest.len() < content_length {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(Err((400, "request body shorter than its Content-Length\n")));
        }
        rest.extend_from_slice(&buf[..n]);
    }
    rest.truncate(content_length);
    Ok(Ok(HttpRequest {
        method: method.to_ascii_uppercase(),
        path: path.to_owned(),
        headers,
        body: rest,
    }))
}

/// Byte offset of the blank line ending the request head, as
/// `(head_len, separator_len)`.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
        return Some((i, 4));
    }
    buf.windows(2).position(|w| w == b"\n\n").map(|i| (i, 2))
}

fn serve_one(mut stream: TcpStream, handler: &HttpHandler) -> std::io::Result<()> {
    let response = match read_request(&mut stream)? {
        Ok(req) => handler(&req),
        Err((status, reason)) => HttpResponse::text(status, reason),
    };
    stream.write_all(&response.to_bytes())?;
    stream.flush()?;
    stream.shutdown(Shutdown::Write)?;
    // Discard only what has arrived: a client that keeps its end open must
    // not hold up the one serving thread.
    stream.set_nonblocking(true)?;
    let _ = std::io::copy(&mut (&stream).take(DRAIN_BYTES), &mut std::io::sink());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_publishes_and_versions() {
        let hub = MetricsHub::new();
        assert_eq!(hub.snapshot(), "");
        assert_eq!(hub.version(), 0);
        hub.publish("a 1\n".into());
        hub.publish("a 2\n".into());
        assert_eq!(hub.snapshot(), "a 2\n");
        assert_eq!(hub.version(), 2);
    }

    #[test]
    fn http_server_routes_method_path_headers_and_body() {
        let handler: HttpHandler =
            Arc::new(|req: &HttpRequest| match (req.method.as_str(), req.path.as_str()) {
                ("GET", "/healthz") => HttpResponse::text(200, "ok\n"),
                ("POST", "/echo") => {
                    let tenant = req.header("X-Tenant").unwrap_or("-").to_owned();
                    HttpResponse::json(
                        200,
                        format!("{{\"tenant\":\"{tenant}\",\"len\":{}}}", req.body.len()),
                    )
                    .with_header("Retry-After", "1")
                }
                _ => HttpResponse::text(404, "not found\n"),
            });
        let mut server = HttpServer::bind("127.0.0.1:0", handler).unwrap();
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /echo HTTP/1.0\r\nX-Tenant: alice\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("Retry-After: 1"), "{response}");
        assert!(response.ends_with("{\"tenant\":\"alice\",\"len\":5}"), "{response}");

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 404 Not Found"), "{response}");

        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400_and_do_not_kill_the_server() {
        let handler: HttpHandler = Arc::new(|_| HttpResponse::text(200, "ok"));
        let mut server = HttpServer::bind("127.0.0.1:0", handler).unwrap();
        let addr = server.local_addr();

        // Empty request line.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 400"), "{response}");

        // The server still answers well-formed requests afterwards.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200"), "{response}");
        server.shutdown();
    }

    #[test]
    fn accept_backoff_ladder_is_capped_exponential() {
        assert_eq!(accept_backoff_ms(1), ACCEPT_BACKOFF_BASE_MS);
        assert_eq!(accept_backoff_ms(2), 2 * ACCEPT_BACKOFF_BASE_MS);
        assert_eq!(accept_backoff_ms(3), 4 * ACCEPT_BACKOFF_BASE_MS);
        assert_eq!(accept_backoff_ms(8), ACCEPT_BACKOFF_CAP_MS);
        assert_eq!(accept_backoff_ms(63), ACCEPT_BACKOFF_CAP_MS);
        assert_eq!(accept_backoff_ms(u32::MAX), ACCEPT_BACKOFF_CAP_MS);
    }
}
