//! The HTTP/1.1 scoring endpoint: a hand-rolled server over
//! `std::net::TcpListener` — no framework, no async runtime, fully hermetic
//! on loopback.
//!
//! Architecture: one accept thread feeds connections through a bounded
//! channel into a fixed pool of worker threads. Each worker owns its
//! connection for the connection's whole life and loops `read_request →
//! route → respond`:
//!
//! * **Keep-alive**: HTTP/1.1 requests keep the connection open by default
//!   (HTTP/1.0 closes by default); `Connection: close` / `keep-alive`
//!   override either way. A connection is closed after
//!   [`ServeConfig::max_requests_per_connection`] responses (the last one
//!   advertises `Connection: close`) or after sitting idle between requests
//!   for [`ServeConfig::idle_timeout`] (a quiet close, counted in
//!   [`ServerStats::idle_closes`] — no bogus 408 for a well-behaved pooled
//!   client).
//! * **Pipelining**: requests are framed by `Content-Length`, and bytes
//!   read past one request's body are kept as the start of the next
//!   request, so a client may write a burst of requests and read the
//!   responses back in order.
//! * **Models** come from a [`ModelRegistry`]:
//!   `POST /score` uses the default version, `?model=<fingerprint>` pins an
//!   explicit one, and `GET /models` lists what is loaded. A request clones
//!   the model's `Arc` once up front, so a hot reload mid-request can never
//!   mix versions — the response's fingerprint always matches the scores.
//!
//! Shutdown is graceful: a flag plus a self-connection unblock the accept
//! loop, the channel closes, idle keep-alive workers notice within one poll
//! slice, and every thread joins.
//!
//! Endpoints:
//!
//! * `GET /healthz` — liveness, default model fingerprint, connection and
//!   request counters.
//! * `GET /models` — every loaded model version and which is the default.
//! * `GET /model[?model=<fp>]` — one model's embedded schema: feature
//!   names, tree/node counts.
//! * `POST /score[?output=margin][&model=<fp>]` — body is the
//!   [`frame`](crate::frame) CSV (header of feature names + rows);
//!   responds with the scores in row order. Columns are aligned by name,
//!   missing model features are scored as NaN, and both gaps are echoed
//!   back. Non-finite scores serialize as JSON `null` (bare `NaN`/`inf`
//!   are not JSON), so the response body always parses strictly.
//!
//! Error handling distinguishes the wire from the peer: malformed input
//! maps to a typed 4xx JSON response (and closes, since framing can no
//! longer be trusted), a read *timeout* or a request still incomplete at
//! its [`ServeConfig::read_timeout`] deadline maps to 408, but a peer
//! reset or broken pipe closes without writing into the dead socket and is
//! counted in [`ServerStats::peer_resets`]. The worker never panics on wire
//! bytes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::{
    escape_json, Counter, Gauge, Histogram, MetricsRegistry, Telemetry, TraceValue,
    DEFAULT_LATENCY_BUCKETS,
};

use crate::batch::{ScoreMode, ScoreOutput};
use crate::frame::FeatureFrame;
use crate::registry::ModelRegistry;
use crate::ServedModel;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads handling connections (the pool is the concurrency
    /// bound: a keep-alive connection occupies its worker until it closes).
    pub workers: usize,
    /// Largest accepted request body; larger requests get 413.
    pub max_body_bytes: usize,
    /// Deadline for a whole request, headers and body, counted from its
    /// first byte (from the start of the read when pipelined bytes are
    /// already buffered); a request still incomplete past it gets 408 and
    /// the connection closes. Also the per-read socket timeout while a
    /// request is in flight, so a client that goes silent is answered at
    /// most one `read_timeout` past the deadline.
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle *between* requests
    /// before the server closes it quietly.
    pub idle_timeout: Duration,
    /// Requests served per connection before the server closes it (the
    /// final response advertises the close). Bounds how long one client can
    /// monopolise a pool worker.
    pub max_requests_per_connection: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_body_bytes: 8 << 20,
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(2),
            max_requests_per_connection: 1024,
        }
    }
}

/// Counters the server publishes on `/healthz` and returns from
/// [`ScoreServer::shutdown`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Requests answered (any status).
    pub requests: u64,
    /// Rows scored by `/score` responses.
    pub scored_rows: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections that died under us — peer reset / broken pipe on read
    /// or write. Closed without writing a response into the dead socket
    /// (never reported as a bogus 408).
    pub peer_resets: u64,
    /// Keep-alive connections closed because they sat idle past
    /// [`ServeConfig::idle_timeout`] between requests.
    pub idle_closes: u64,
}

/// The routes the server pre-creates latency series for, plus the
/// catch-all. Pre-creation keeps the per-request path free of registry
/// lookups: recording into an already-held [`Histogram`] handle is
/// lock-free.
const ROUTES: [&str; 7] = [
    "/score", "/healthz", "/models", "/model", "/metrics", "/stats", "other",
];

/// The latency/counter label for a request line.
fn route_key(method: &str, path: &str) -> &'static str {
    match (method, path) {
        (_, "/score") => "/score",
        ("GET", "/healthz") => "/healthz",
        ("GET", "/models") => "/models",
        ("GET", "/model") => "/model",
        ("GET", "/metrics") => "/metrics",
        ("GET", "/stats") => "/stats",
        _ => "other",
    }
}

/// Static status-label table so the per-response counter never allocates.
fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        408 => "408",
        413 => "413",
        431 => "431",
        501 => "501",
        503 => "503",
        505 => "505",
        _ => "other",
    }
}

/// The server's instrument set. The five [`ServerStats`] counters are
/// always-active `obs` atomics — [`ScoreServer::stats`] and `/metrics` read
/// the *same cores*, one bookkeeping path instead of two — while the
/// histograms, per-route series and gauges are noops unless a metrics
/// registry is attached.
struct ServerMetrics {
    telemetry: Telemetry,
    requests: Counter,
    scored_rows: Counter,
    connections: Counter,
    peer_resets: Counter,
    idle_closes: Counter,
    connections_active: Gauge,
    in_flight: Gauge,
    /// Set at `/metrics` scrape time from the model registry.
    models_loaded: Gauge,
    route_latency: Vec<(&'static str, Histogram)>,
}

impl ServerMetrics {
    fn new(telemetry: &Telemetry, models: &ModelRegistry) -> Self {
        let requests = Counter::active();
        let scored_rows = Counter::active();
        let connections = Counter::active();
        let peer_resets = Counter::active();
        let idle_closes = Counter::active();
        let connections_active = Gauge::active();
        let in_flight = Gauge::active();
        let models_loaded = match telemetry.registry() {
            Some(reg) => {
                reg.adopt_counter(
                    "http_requests_total",
                    "Requests answered (any status).",
                    &[],
                    &requests,
                );
                reg.adopt_counter(
                    "scored_rows_total",
                    "Rows scored by /score responses.",
                    &[],
                    &scored_rows,
                );
                reg.adopt_counter(
                    "http_connections_total",
                    "Connections accepted.",
                    &[],
                    &connections,
                );
                reg.adopt_counter(
                    "http_peer_resets_total",
                    "Connections that died under us: peer reset or broken pipe.",
                    &[],
                    &peer_resets,
                );
                reg.adopt_counter(
                    "http_idle_closes_total",
                    "Keep-alive connections closed for sitting idle past the timeout.",
                    &[],
                    &idle_closes,
                );
                reg.adopt_gauge(
                    "http_connections_active",
                    "Connections currently open.",
                    &[],
                    &connections_active,
                );
                reg.adopt_gauge(
                    "http_requests_in_flight",
                    "Requests currently being handled.",
                    &[],
                    &in_flight,
                );
                let lifecycle = models.lifecycle();
                reg.adopt_counter(
                    "model_registry_publishes_total",
                    "Models published into the registry (replacements included).",
                    &[],
                    &lifecycle.publishes,
                );
                reg.adopt_counter(
                    "model_registry_retires_total",
                    "Model versions retired from the registry.",
                    &[],
                    &lifecycle.retires,
                );
                reg.adopt_counter(
                    "model_registry_default_swaps_total",
                    "Times the default model version changed.",
                    &[],
                    &lifecycle.default_swaps,
                );
                reg.gauge(
                    "model_registry_models",
                    "Model versions loaded (sampled at scrape time).",
                    &[],
                )
            }
            None => Gauge::noop(),
        };
        let route_latency = ROUTES
            .iter()
            .map(|route| {
                let hist = telemetry.histogram(
                    "http_request_duration_seconds",
                    "Request handling latency by route (routing to response body built).",
                    &DEFAULT_LATENCY_BUCKETS,
                    &[("route", route)],
                );
                (*route, hist)
            })
            .collect();
        Self {
            telemetry: telemetry.clone(),
            requests,
            scored_rows,
            connections,
            peer_resets,
            idle_closes,
            connections_active,
            in_flight,
            models_loaded,
            route_latency,
        }
    }

    fn latency(&self, route: &str) -> &Histogram {
        self.route_latency
            .iter()
            .find(|(r, _)| *r == route)
            .map(|(_, h)| h)
            .unwrap_or(&self.route_latency[ROUTES.len() - 1].1)
    }

    /// Count one response in `http_responses_total{route,status}`. The
    /// series is get-or-create (a read-lock hit after the first response of
    /// its kind); disabled metrics skip it entirely.
    fn response(&self, route: &'static str, status: u16) {
        self.telemetry
            .counter(
                "http_responses_total",
                "Responses by route and status.",
                &[("route", route), ("status", status_label(status))],
            )
            .inc();
    }

    /// Emit one per-request trace event, when a sink is attached.
    fn trace_request(&self, route: &str, status: u16, wall: Duration, keep: bool) {
        self.telemetry.emit(
            "request",
            route,
            &[
                ("status", TraceValue::U64(status as u64)),
                ("duration_us", TraceValue::U64(wall.as_micros() as u64)),
                ("keep_alive", TraceValue::U64(keep as u64)),
            ],
        );
    }
}

/// Decrements a gauge on drop — active-connection / in-flight bookkeeping
/// that survives every early return in the connection loop.
struct GaugeGuard<'a>(&'a Gauge);

impl GaugeGuard<'_> {
    fn acquire(gauge: &Gauge) -> GaugeGuard<'_> {
        gauge.add(1.0);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.add(-1.0);
    }
}

struct Shared {
    registry: Arc<ModelRegistry>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    metrics: ServerMetrics,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.metrics.requests.value(),
            scored_rows: self.metrics.scored_rows.value(),
            connections: self.metrics.connections.value(),
            peer_resets: self.metrics.peer_resets.value(),
            idle_closes: self.metrics.idle_closes.value(),
        }
    }
}

/// A running scoring server bound to a local address.
pub struct ScoreServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: JoinHandle<()>,
    worker_handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ScoreServer {
    /// Start on an ephemeral loopback port with a single-model registry and
    /// a private metrics registry behind `GET /metrics` and `GET /stats`
    /// (the hermetic-test entry point).
    pub fn start(served: ServedModel, config: ServeConfig) -> std::io::Result<Self> {
        Self::bind(
            "127.0.0.1:0",
            Arc::new(ModelRegistry::with_model(served)),
            config,
            &Telemetry::with_metrics(Arc::new(MetricsRegistry::new())),
        )
    }

    /// Start on `addr` (`"127.0.0.1:0"` for an ephemeral loopback port) over
    /// a shared model registry, recording into `telemetry`.
    ///
    /// Publishing or retiring on `registry` while the server runs is the
    /// hot-reload path: new requests see the swap atomically. `telemetry`
    /// decides what the server exports: a registry shared with the pipeline
    /// puts both layers on one `/metrics` scrape, an attached trace sink
    /// receives one event per request, and [`Telemetry::disabled`] runs noop
    /// instruments with `/metrics` answering 503.
    pub fn bind(
        addr: &str,
        registry: Arc<ModelRegistry>,
        config: ServeConfig,
        telemetry: &Telemetry,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = ServerMetrics::new(telemetry, &registry);
        let shared = Arc::new(Shared {
            registry,
            config,
            shutdown: Arc::clone(&shutdown),
            metrics,
        });
        let workers = config.workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(workers * 2);
        let rx = Arc::new(Mutex::new(rx));
        let worker_handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("redsus-serve-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only for the recv, not the handling.
                        let next = rx.lock().expect("worker queue poisoned").recv();
                        match next {
                            Ok(stream) => handle_connection(stream, &shared),
                            Err(_) => break, // channel closed: shutting down
                        }
                    })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("redsus-serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(stream) = stream {
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                    }
                    // Dropping `tx` (and the listener) releases the workers
                    // and the port.
                })?
        };
        Ok(Self {
            addr,
            shutdown,
            accept_handle,
            worker_handles,
            shared,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://…` base URL of the server.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// The model registry this server scores from. Publishing or retiring
    /// through it is the programmatic hot-reload path.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// A point-in-time snapshot of the request counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The metrics registry this server records into — the one `/metrics`
    /// scrapes — or `None` when metrics are disabled. Useful for reading
    /// server series in-process without an HTTP round trip.
    pub fn metrics_registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.shared.metrics.telemetry.registry()
    }

    /// Gracefully stop: unblock the accept loop, drain the workers, join
    /// every thread, release the port. Returns the final counters.
    pub fn shutdown(self) -> ServerStats {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a self-connection; the flag makes
        // the loop break instead of queueing it.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_handle.join();
        for handle in self.worker_handles {
            let _ = handle.join();
        }
        self.shared.stats()
    }
}

// ---------------------------------------------------------------------------
// Request parsing

struct Request {
    method: String,
    path: String,
    query: Option<String>,
    body: Vec<u8>,
    /// Whether request semantics allow keeping the connection open
    /// afterwards (HTTP version default + `Connection` header override).
    keep_alive: bool,
}

/// A routable failure: HTTP status plus a human-readable message, and how
/// many request bytes the client may still be sending (so the connection
/// can be drained before the close instead of resetting under the error
/// response).
#[derive(Debug, PartialEq)]
struct HttpError {
    status: u16,
    message: String,
    unread_bytes: usize,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
            unread_bytes: 0,
        }
    }

    fn with_unread(mut self, bytes: usize) -> Self {
        self.unread_bytes = bytes;
        self
    }
}

/// Why a connection ended without a response being owed.
enum CloseReason {
    /// Clean EOF at a request boundary: the client is done.
    CleanEof,
    /// A keep-alive connection sat idle past the idle timeout.
    Idle,
    /// Peer reset / broken pipe: the socket is dead, write nothing.
    Aborted,
    /// The server is shutting down.
    ShuttingDown,
}

/// How [`read_request`] can fail.
enum ReadEnd {
    /// Respond with this error, then close (wire framing is unreliable).
    Error(HttpError),
    /// Close without writing anything.
    Close(CloseReason),
}

/// Hard bound on post-error draining, whatever Content-Length claims: a
/// client declaring terabytes gets its error response attempted after this
/// much discard, reset or not.
const MAX_DRAIN_BYTES: usize = 64 << 20;

/// Drain allowance for rejections where no body length is known (chunked
/// uploads, unparseable Content-Length, oversized headers): enough to absorb
/// what a well-meaning client has in flight without letting a hostile one
/// stream forever.
const DRAIN_SLACK_BYTES: usize = 1 << 20;

const MAX_HEADER_BYTES: usize = 16 << 10;

/// Granularity of the idle/shutdown poll while waiting for a request to
/// start: the worker re-checks the shutdown flag this often, so shutdown
/// latency is one slice, not one idle timeout.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Per-connection parse state surviving across requests: bytes read past
/// the previous request's body are the start of the next request
/// (pipelining), and `scanned` remembers how far the header-end scan got so
/// drip-fed headers cost O(n), not O(n²).
#[derive(Default)]
struct ConnBuf {
    buf: Vec<u8>,
    scanned: usize,
}

/// One socket read, with I/O errors folded into the four cases the
/// connection loop distinguishes.
enum ReadStep {
    Data(usize),
    Eof,
    TimedOut,
    Aborted,
}

fn read_step(stream: &mut TcpStream, chunk: &mut [u8]) -> ReadStep {
    loop {
        match stream.read(chunk) {
            Ok(0) => return ReadStep::Eof,
            Ok(n) => return ReadStep::Data(n),
            Err(e) => {
                return match e.kind() {
                    // Only genuine timeouts may become 408s.
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                        ReadStep::TimedOut
                    }
                    std::io::ErrorKind::Interrupted => continue,
                    // Reset, aborted, broken pipe, anything else fatal: the
                    // peer is gone — there is nobody to respond to.
                    _ => ReadStep::Aborted,
                };
            }
        }
    }
}

/// [`read_step`] for a request in flight: a read that returns after the
/// request's `deadline` counts as a timeout, so a client trickling bytes
/// cannot stretch one request past [`ServeConfig::read_timeout`].
fn read_before(stream: &mut TcpStream, chunk: &mut [u8], deadline: Instant) -> ReadStep {
    match read_step(stream, chunk) {
        ReadStep::Data(_) if Instant::now() >= deadline => ReadStep::TimedOut,
        step => step,
    }
}

/// Read one request out of the connection, honouring leftover pipelined
/// bytes in `conn` and leaving any over-read bytes there for the next call.
/// The whole request must arrive within `read_timeout` of its first byte.
///
/// `first` selects the wait-for-request-start semantics: the first request
/// of a connection that never arrives is a client error (408 after
/// `read_timeout`), while a later one simply means the pooled connection
/// went idle (quiet close after `idle_timeout`).
fn read_request(
    stream: &mut TcpStream,
    conn: &mut ConnBuf,
    shared: &Shared,
    first: bool,
) -> Result<Request, ReadEnd> {
    let config = &shared.config;
    let mut chunk = [0u8; 4096];

    // Phase 1: wait for the request to start (skipped entirely when
    // pipelined leftovers are already buffered). Poll in short slices so an
    // idle worker notices shutdown quickly.
    if conn.buf.is_empty() {
        let wait = if first {
            config.read_timeout
        } else {
            config.idle_timeout
        };
        let deadline = Instant::now() + wait;
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return Err(ReadEnd::Close(CloseReason::ShuttingDown));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(if first {
                    ReadEnd::Error(HttpError::new(408, "no request arrived before the timeout"))
                } else {
                    ReadEnd::Close(CloseReason::Idle)
                });
            }
            let _ = stream.set_read_timeout(Some(IDLE_POLL.min(deadline - now)));
            match read_step(stream, &mut chunk) {
                ReadStep::Data(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    break;
                }
                ReadStep::Eof => return Err(ReadEnd::Close(CloseReason::CleanEof)),
                ReadStep::TimedOut => continue,
                ReadStep::Aborted => return Err(ReadEnd::Close(CloseReason::Aborted)),
            }
        }
    }
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let deadline = Instant::now() + config.read_timeout;

    // Phase 2: read until the blank line ending the headers. The scan for
    // `\r\n\r\n` resumes where the last one stopped (minus 3 bytes in case
    // the terminator straddles a read boundary) instead of rescanning the
    // whole buffer per read.
    let header_end = loop {
        if let Some(pos) = find_header_end(&conn.buf, conn.scanned) {
            conn.scanned = 0;
            break pos;
        }
        conn.scanned = conn.buf.len().saturating_sub(3);
        if conn.buf.len() > MAX_HEADER_BYTES {
            conn.scanned = 0;
            return Err(ReadEnd::Error(
                HttpError::new(431, "request headers too large").with_unread(DRAIN_SLACK_BYTES),
            ));
        }
        match read_before(stream, &mut chunk, deadline) {
            ReadStep::Data(n) => conn.buf.extend_from_slice(&chunk[..n]),
            ReadStep::Eof => {
                return Err(ReadEnd::Error(HttpError::new(
                    400,
                    "connection closed mid-headers",
                )))
            }
            ReadStep::TimedOut => {
                return Err(ReadEnd::Error(HttpError::new(
                    408,
                    "timed out reading request headers",
                )))
            }
            ReadStep::Aborted => return Err(ReadEnd::Close(CloseReason::Aborted)),
        }
    };

    let head = std::str::from_utf8(&conn.buf[..header_end])
        .map_err(|_| ReadEnd::Error(HttpError::new(400, "request head is not UTF-8")))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadEnd::Error(HttpError::new(400, "empty request line")))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ReadEnd::Error(HttpError::new(400, "request line has no target")))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadEnd::Error(HttpError::new(400, "request line has no version")))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadEnd::Error(HttpError::new(
            505,
            format!("unsupported {version}"),
        )));
    }
    // HTTP/1.1 (and later 1.x) defaults to keep-alive; HTTP/1.0 to close.
    let version_keep_alive = version != "HTTP/1.0";
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    let mut content_length = 0usize;
    let mut keep_alive = version_keep_alive;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().map_err(|_| {
                    ReadEnd::Error(
                        HttpError::new(400, "invalid Content-Length")
                            .with_unread(DRAIN_SLACK_BYTES),
                    )
                })?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Bodies are framed by Content-Length only; silently reading
                // a chunked body as empty would score nothing and blame the
                // client's CSV. The client may be mid-stream, so grant it
                // the drain slack or the 501 risks being reset away.
                return Err(ReadEnd::Error(
                    HttpError::new(
                        501,
                        "transfer encodings are not supported; send Content-Length",
                    )
                    .with_unread(DRAIN_SLACK_BYTES),
                ));
            } else if name.eq_ignore_ascii_case("connection") {
                // Token list; `close` wins over `keep-alive` if both appear.
                let mut close = false;
                let mut keep = false;
                for token in value.split(',') {
                    let token = token.trim();
                    close |= token.eq_ignore_ascii_case("close");
                    keep |= token.eq_ignore_ascii_case("keep-alive");
                }
                keep_alive = if close {
                    false
                } else {
                    keep || version_keep_alive
                };
            }
        }
    }
    if content_length > config.max_body_bytes {
        let buffered_body = conn.buf.len().saturating_sub(header_end + 4);
        return Err(ReadEnd::Error(
            HttpError::new(
                413,
                format!(
                    "body of {content_length} bytes exceeds the {} byte limit",
                    config.max_body_bytes
                ),
            )
            .with_unread(content_length.saturating_sub(buffered_body)),
        ));
    }

    // Phase 3: read the body. Bytes past it stay buffered as the start of
    // the next pipelined request.
    let total = header_end + 4 + content_length;
    while conn.buf.len() < total {
        match read_before(stream, &mut chunk, deadline) {
            ReadStep::Data(n) => conn.buf.extend_from_slice(&chunk[..n]),
            ReadStep::Eof => {
                return Err(ReadEnd::Error(HttpError::new(
                    400,
                    "connection closed mid-body",
                )))
            }
            ReadStep::TimedOut => {
                return Err(ReadEnd::Error(HttpError::new(
                    408,
                    "timed out reading request body",
                )))
            }
            ReadStep::Aborted => return Err(ReadEnd::Close(CloseReason::Aborted)),
        }
    }
    let body = conn.buf[header_end + 4..total].to_vec();
    conn.buf.drain(..total);
    conn.scanned = 0;
    Ok(Request {
        method,
        path,
        query,
        body,
        keep_alive,
    })
}

/// Find the `\r\n\r\n` ending the headers, scanning only from `from`
/// onwards. Callers resume with `from = buf.len() - 3` after a miss so each
/// byte is scanned once however the headers drip in.
fn find_header_end(buf: &[u8], from: usize) -> Option<usize> {
    let start = from.min(buf.len());
    buf[start..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + start)
}

// ---------------------------------------------------------------------------
// Connection lifecycle

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let metrics = &shared.metrics;
    metrics.connections.inc();
    let _conn_gauge = GaugeGuard::acquire(&metrics.connections_active);
    let _ = stream.set_nodelay(true);
    let mut conn = ConnBuf::default();
    let mut served = 0u64;
    loop {
        match read_request(&mut stream, &mut conn, shared, served == 0) {
            Ok(request) => {
                served += 1;
                let keep = request.keep_alive
                    && served < shared.config.max_requests_per_connection
                    && !shared.shutdown.load(Ordering::SeqCst);
                let route_name = route_key(&request.method, &request.path);
                let started = Instant::now();
                let in_flight = GaugeGuard::acquire(&metrics.in_flight);
                let (status, body) = match route(&request, shared) {
                    Ok(body) => (200, body),
                    Err(e) => (e.status, RouteBody::json(error_body(&e.message))),
                };
                let wall = started.elapsed();
                drop(in_flight);
                metrics.latency(route_name).observe(wall.as_secs_f64());
                metrics.requests.inc();
                metrics.response(route_name, status);
                metrics.trace_request(route_name, status, wall, keep);
                let keep_header = keep.then(|| KeepAliveHeader {
                    idle: shared.config.idle_timeout,
                    remaining: shared
                        .config
                        .max_requests_per_connection
                        .saturating_sub(served),
                });
                if write_response(
                    &mut stream,
                    status,
                    &body.body,
                    body.content_type,
                    keep_header,
                )
                .is_err()
                {
                    // The response never made it: the peer is gone.
                    metrics.peer_resets.inc();
                    return;
                }
                if !keep {
                    return;
                }
            }
            Err(ReadEnd::Error(e)) => {
                // A wire-level failure: answer it if the socket still
                // listens, then close — the request framing can no longer
                // be trusted, so the connection must not be reused.
                metrics.requests.inc();
                metrics.response("other", e.status);
                let body = error_body(&e.message);
                if write_response(&mut stream, e.status, &body, "application/json", None).is_err() {
                    metrics.peer_resets.inc();
                } else if e.unread_bytes > 0 {
                    drain_unread(&mut stream, e.unread_bytes);
                }
                return;
            }
            Err(ReadEnd::Close(reason)) => {
                match reason {
                    CloseReason::Idle => {
                        metrics.idle_closes.inc();
                    }
                    CloseReason::Aborted => {
                        metrics.peer_resets.inc();
                    }
                    CloseReason::CleanEof | CloseReason::ShuttingDown => {}
                }
                return;
            }
        }
    }
}

/// The request was rejected before its body was consumed (413 and kin).
/// Closing now, with unread bytes still arriving, would RST the connection
/// and the client would never see the error response. Discard what the
/// client declared it is still sending — bounded by an absolute cap and the
/// socket read timeout — so the close is clean.
fn drain_unread(stream: &mut TcpStream, unread: usize) {
    // A client mid-upload sends continuously; a short gap means whatever
    // was in flight has arrived and the drain is done. The full
    // `read_timeout` would just stall the close.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut chunk = [0u8; 4096];
    let mut remaining = unread.min(MAX_DRAIN_BYTES);
    while remaining > 0 {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => remaining = remaining.saturating_sub(n),
        }
    }
}

// ---------------------------------------------------------------------------
// Routing and responses

/// A successful response body with its media type. Everything the server
/// emits is JSON except the Prometheus exposition on `/metrics`.
struct RouteBody {
    body: String,
    content_type: &'static str,
}

impl RouteBody {
    fn json(body: String) -> Self {
        Self {
            body,
            content_type: "application/json",
        }
    }
}

fn route(request: &Request, shared: &Shared) -> Result<RouteBody, HttpError> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Ok(RouteBody::json(healthz_body(shared))),
        ("GET", "/models") => Ok(RouteBody::json(models_body(shared))),
        ("GET", "/model") => model_body(request, shared).map(RouteBody::json),
        ("POST", "/score") => score_route(request, shared).map(RouteBody::json),
        ("GET", "/score") => Err(HttpError::new(405, "POST a feature frame to /score")),
        ("GET", "/metrics") => metrics_route(shared),
        ("GET", "/stats") => Ok(RouteBody::json(stats_body(shared))),
        _ => Err(HttpError::new(
            404,
            format!("no route for {} {}", request.method, request.path),
        )),
    }
}

/// `GET /metrics`: the Prometheus text exposition of every series in the
/// server's registry — including any pipeline/streaming families recorded
/// into a shared registry handed to [`ScoreServer::bind`].
fn metrics_route(shared: &Shared) -> Result<RouteBody, HttpError> {
    let Some(registry) = shared.metrics.telemetry.registry() else {
        return Err(HttpError::new(503, "metrics are disabled on this server"));
    };
    // Model count is sampled at scrape time: the registry swap path stays
    // free of gauge bookkeeping.
    shared
        .metrics
        .models_loaded
        .set(shared.registry.len() as f64);
    Ok(RouteBody {
        body: registry.encode_prometheus(),
        content_type: "text/plain; version=0.0.4; charset=utf-8",
    })
}

/// `GET /stats`: the same numbers as `/metrics`, as one strict-JSON
/// document — the counters `/healthz` shows plus the gauge snapshot and the
/// full registry dump (or `null` when metrics are disabled).
fn stats_body(shared: &Shared) -> String {
    let metrics = &shared.metrics;
    let stats = shared.stats();
    let mut body = format!(
        "{{\"server\":{{\"models\":{},\"requests\":{},\"scored_rows\":{},\"connections\":{},\"connections_active\":{},\"requests_in_flight\":{},\"peer_resets\":{},\"idle_closes\":{}}},\"metrics\":",
        shared.registry.len(),
        stats.requests,
        stats.scored_rows,
        stats.connections,
        metrics.connections_active.value() as i64,
        metrics.in_flight.value() as i64,
        stats.peer_resets,
        stats.idle_closes,
    );
    match metrics.telemetry.registry() {
        Some(registry) => {
            metrics.models_loaded.set(shared.registry.len() as f64);
            body.push_str(&registry.snapshot_json());
        }
        None => body.push_str("null"),
    }
    body.push('}');
    body
}

/// Resolve the request's `?model=<fingerprint>` selector (default model
/// when absent) to a pinned `Arc` for the rest of the request.
fn resolve_model(request: &Request, shared: &Shared) -> Result<Arc<ServedModel>, HttpError> {
    let selector = model_param(request.query.as_deref())?;
    shared.registry.get(selector).ok_or_else(|| match selector {
        Some(fp) => HttpError::new(
            404,
            format!("no model with fingerprint {fp:#018x} is loaded"),
        ),
        None => HttpError::new(503, "no model loaded"),
    })
}

fn score_route(request: &Request, shared: &Shared) -> Result<String, HttpError> {
    let output = output_param(request.query.as_deref())?;
    // One Arc clone up front: the fingerprint echoed below and the forest
    // that scores are the same object even if the registry swaps mid-call.
    let served = resolve_model(request, shared)?;
    let text =
        std::str::from_utf8(&request.body).map_err(|_| HttpError::new(400, "body is not UTF-8"))?;
    let frame = FeatureFrame::parse_csv(text).map_err(|e| HttpError::new(400, e.to_string()))?;
    let aligned = frame.align(served.forest());
    // Sequential: under concurrent load the worker pool is the parallelism.
    let scores = served.score_block(&aligned.data, output, ScoreMode::Sequential);
    shared.metrics.scored_rows.add(scores.len() as u64);

    let mut body = String::with_capacity(64 + scores.len() * 20);
    body.push_str("{\"fingerprint\":\"");
    body.push_str(&served.fingerprint_hex());
    body.push_str("\",\"output\":\"");
    body.push_str(output.name());
    body.push_str("\",\"n_rows\":");
    body.push_str(&scores.len().to_string());
    body.push_str(",\"scores\":[");
    for (i, s) in scores.iter().enumerate() {
        use std::fmt::Write as _;
        if i > 0 {
            body.push(',');
        }
        if s.is_finite() {
            // `{}` on f64 prints the shortest decimal that parses back to
            // the same bits — the property the end-to-end equivalence test
            // relies on. Formatted straight into the buffer: this loop is
            // the hot part of every response.
            let _ = write!(body, "{s}");
        } else {
            // Bare `NaN`/`inf` are not JSON; a missing-everything row must
            // not corrupt the whole response.
            body.push_str("null");
        }
    }
    body.push_str("],\"missing_features\":");
    push_json_str_array(&mut body, &aligned.missing_features);
    body.push_str(",\"ignored_columns\":");
    push_json_str_array(&mut body, &aligned.ignored_columns);
    body.push('}');
    Ok(body)
}

/// Parse the `output=` selector (`probability` when absent); an unknown
/// name is a 400 that quotes it.
fn output_param(query: Option<&str>) -> Result<ScoreOutput, HttpError> {
    let Some(query) = query else {
        return Ok(ScoreOutput::Probability);
    };
    for pair in query.split('&') {
        if let Some(value) = pair.strip_prefix("output=") {
            return ScoreOutput::from_name(value).ok_or_else(|| {
                HttpError::new(
                    400,
                    format!("output must be \"probability\" or \"margin\", not {value:?}"),
                )
            });
        }
    }
    Ok(ScoreOutput::Probability)
}

/// Parse the `model=<fingerprint>` selector: `0x`-prefixed or bare hex.
/// `Ok(None)` when the query names no model; anything but hex is a 400
/// that quotes it.
fn model_param(query: Option<&str>) -> Result<Option<u64>, HttpError> {
    let Some(query) = query else { return Ok(None) };
    for pair in query.split('&') {
        if let Some(value) = pair.strip_prefix("model=") {
            let hex = value.strip_prefix("0x").unwrap_or(value);
            return u64::from_str_radix(hex, 16).map(Some).map_err(|_| {
                HttpError::new(
                    400,
                    format!("model selector {value:?} is not a fingerprint"),
                )
            });
        }
    }
    Ok(None)
}

fn healthz_body(shared: &Shared) -> String {
    let stats = shared.stats();
    let counters = format!(
        "\"models\":{},\"requests\":{},\"scored_rows\":{},\"connections\":{},\"peer_resets\":{},\"idle_closes\":{}",
        shared.registry.len(),
        stats.requests,
        stats.scored_rows,
        stats.connections,
        stats.peer_resets,
        stats.idle_closes,
    );
    match shared.registry.default_model() {
        Some(served) => format!(
            "{{\"status\":\"ok\",\"fingerprint\":\"{}\",\"kernel\":\"{}\",\"trees\":{},\"features\":{},{counters}}}",
            served.fingerprint_hex(),
            served.kernel().name(),
            served.forest().n_trees(),
            served.forest().n_features(),
        ),
        None => format!("{{\"status\":\"no-model\",{counters}}}"),
    }
}

fn models_body(shared: &Shared) -> String {
    let mut body = String::from("{\"default\":");
    match shared.registry.default_fingerprint() {
        Some(fp) => {
            body.push('"');
            body.push_str(&format!("{fp:#018x}"));
            body.push('"');
        }
        None => body.push_str("null"),
    }
    body.push_str(",\"models\":[");
    for (i, info) in shared.registry.infos().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"fingerprint\":\"{:#018x}\",\"trees\":{},\"features\":{},\"kernel\":\"{}\",\"default\":{}}}",
            info.fingerprint,
            info.trees,
            info.features,
            info.kernel.name(),
            info.is_default,
        ));
    }
    body.push_str("]}");
    body
}

fn model_body(request: &Request, shared: &Shared) -> Result<String, HttpError> {
    let served = resolve_model(request, shared)?;
    let forest = served.forest();
    let mut body = format!(
        "{{\"fingerprint\":\"{}\",\"artifact_version\":{},\"trees\":{},\"nodes\":{},\"base_margin\":{},\"features\":",
        served.fingerprint_hex(),
        crate::ARTIFACT_VERSION,
        forest.n_trees(),
        forest.n_nodes(),
        forest.base_margin(),
    );
    push_json_str_array(&mut body, forest.feature_names());
    body.push('}');
    Ok(body)
}

fn error_body(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}", escape_json(message))
}

fn push_json_str_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&escape_json(item));
        out.push('"');
    }
    out.push(']');
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Error",
    }
}

/// The keep-alive advertisement of a response that leaves the connection
/// open: the idle timeout and how many more requests this connection may
/// carry.
struct KeepAliveHeader {
    idle: Duration,
    remaining: u64,
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    content_type: &str,
    keep: Option<KeepAliveHeader>,
) -> std::io::Result<()> {
    let connection = match &keep {
        Some(k) => format!(
            "Connection: keep-alive\r\nKeep-Alive: timeout={}, max={}",
            k.idle.as_secs(),
            k.remaining,
        ),
        None => "Connection: close".to_string(),
    };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{connection}\r\n\r\n",
        status_reason(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nrest", 0), Some(14));
        assert_eq!(find_header_end(b"partial\r\n", 0), None);
    }

    /// The incremental scan finds a terminator that straddles the resume
    /// offset, and never re-finds one before it.
    #[test]
    fn header_end_scan_resumes_across_reads() {
        let full = b"GET / HTTP/1.1\r\nHost: x\r\n\r\nnext";
        // Drip the bytes in and scan exactly as read_request does.
        let mut buf: Vec<u8> = Vec::new();
        let mut scanned = 0usize;
        let mut found = None;
        for chunk in full.chunks(5) {
            buf.extend_from_slice(chunk);
            if let Some(pos) = find_header_end(&buf, scanned) {
                found = Some(pos);
                break;
            }
            scanned = buf.len().saturating_sub(3);
        }
        assert_eq!(found, find_header_end(full, 0));
        assert_eq!(found, Some(23));
        // Scanning from past the terminator misses it (the caller resets
        // `scanned` between requests).
        assert_eq!(find_header_end(full, 24), None);
        // An offset beyond the buffer is safe.
        assert_eq!(find_header_end(b"ab", 10), None);
    }

    #[test]
    fn json_escaping_covers_control_characters() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn output_param_parsing() {
        assert_eq!(output_param(None), Ok(ScoreOutput::Probability));
        assert_eq!(output_param(Some("output=margin")), Ok(ScoreOutput::Margin));
        assert_eq!(
            output_param(Some("a=b&output=probability")),
            Ok(ScoreOutput::Probability)
        );
        assert_eq!(output_param(Some("a=b")), Ok(ScoreOutput::Probability));
        assert_eq!(
            output_param(Some("output=shap")),
            Err(HttpError::new(
                400,
                "output must be \"probability\" or \"margin\", not \"shap\""
            ))
        );
    }

    #[test]
    fn model_param_parsing() {
        assert_eq!(model_param(None), Ok(None));
        assert_eq!(model_param(Some("output=margin")), Ok(None));
        assert_eq!(
            model_param(Some("model=0x00ff00ff00ff00ff")),
            Ok(Some(0x00ff_00ff_00ff_00ff))
        );
        assert_eq!(model_param(Some("model=ff")), Ok(Some(0xff)));
        assert_eq!(
            model_param(Some("output=margin&model=0x12")),
            Ok(Some(0x12))
        );
        for bad in ["zebra", "0xzebra"] {
            assert_eq!(
                model_param(Some(&format!("model={bad}"))),
                Err(HttpError::new(
                    400,
                    format!("model selector {bad:?} is not a fingerprint")
                ))
            );
        }
    }
}
