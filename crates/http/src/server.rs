//! The HTTP/1.1 server: one accept loop and the connection workers
//! scheduled on a [`cosmo_exec::WorkerPool`], keep-alive connection
//! handling, and bounded connection backpressure that reuses the serving
//! crate's [`AdmissionPolicy`].
//!
//! Topology (COSMO Figure 5's "serving endpoint" made concrete):
//!
//! ```text
//!             ┌───────────── supervisor thread ─────────────┐
//!   TCP ───▶  │ acceptor (1 job)    ─▶ queue ─▶ workers (M) │ ─▶ ServingSystem
//!             │        nonblocking      bounded, admission-  │     (frozen
//!             │        accept loop      policed VecDeque     │    snapshot)
//!             └─────────────────────────────────────────────┘
//! ```
//!
//! When the connection queue is full, [`AdmissionPolicy::RejectNew`]
//! answers the *new* connection `503` with `Retry-After` and closes it,
//! while [`AdmissionPolicy::DropOldest`] sheds the oldest queued (not yet
//! served) connection to make room — the same two strategies the cache's
//! pending queue applies to queries, lifted to the transport layer.

use crate::wire::{read_request, write_response, ReadError, Request, Response};
use cosmo_exec::WorkerPool;
use cosmo_kg::{KgSnapshotView, FORMAT_VERSION_V2};
use cosmo_nav::Suggestion;
use cosmo_serving::{
    AdmissionPolicy, ErrorBody, NavigateItem, NavigateRequest, NavigateResponse, ReloadRequest,
    ReloadResponse, ServeRequest, ServeStatus, ServingSystem, SnapshotVersion, PROTOCOL_VERSION,
};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The acceptor's total time budget for reading one rejected connection's
/// request, whatever the peer sends. `read_timeout` bounds each read, not
/// the whole request, so a silent peer would otherwise hold the accept loop
/// for `read_timeout` and a byte-dripping one for up to `max_header_bytes`
/// reads; nobody else is accepted meanwhile.
const REJECT_READ_BUDGET: Duration = Duration::from_millis(100);

/// Server tuning knobs. The defaults favour test determinism over raw
/// throughput; callers that measure load override them.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Connection-serving jobs on the pool (at least one runs).
    pub conn_workers: usize,
    /// Max connections queued between the acceptor and the workers.
    pub conn_backlog: usize,
    /// What to do when the connection queue is full.
    pub admission: AdmissionPolicy,
    /// Request body cap → `413`.
    pub max_body_bytes: usize,
    /// Request-line + header cap → `431`.
    pub max_header_bytes: usize,
    /// Keep-alive requests served per connection before a polite close.
    pub max_requests_per_conn: usize,
    /// Per-read socket timeout; an idle keep-alive connection is closed
    /// after this long.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            conn_workers: 4,
            conn_backlog: 64,
            admission: AdmissionPolicy::RejectNew,
            max_body_bytes: 64 * 1024,
            max_header_bytes: 8 * 1024,
            max_requests_per_conn: 1024,
            read_timeout: Duration::from_millis(2000),
        }
    }
}

/// Monotonic counters for the HTTP layer itself (the serving-layer
/// counters live in [`cosmo_serving::OpsStats`]).
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    requests: AtomicU64,
    rejected_conns: AtomicU64,
    shed_conns: AtomicU64,
    bad_requests: AtomicU64,
    oversized: AtomicU64,
}

/// A point-in-time copy of the HTTP layer counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpStats {
    /// Connections accepted (including later-shed ones).
    pub accepted: u64,
    /// Requests answered (any status).
    pub requests: u64,
    /// Connections answered `503` at admission ([`AdmissionPolicy::RejectNew`]).
    pub rejected_conns: u64,
    /// Queued connections dropped to make room ([`AdmissionPolicy::DropOldest`]).
    pub shed_conns: u64,
    /// Requests answered `400`.
    pub bad_requests: u64,
    /// Requests answered `413`/`431`.
    pub oversized: u64,
}

/// State shared between the handle, the acceptor, and the workers.
struct Shared {
    router: Router,
    config: ServerConfig,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_signal: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
}

/// The running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the supervisor thread.
pub struct HttpServer;

/// Controls a started server: its bound address and shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `config.addr` and start serving `system` in the background.
    ///
    /// Every route answers from the system's current snapshot generation.
    /// `/v1/navigate` uses the navigation engine that generation was built
    /// with, over the same frozen view `/v1/serve-intents` answers from,
    /// so the two can never disagree about graph contents — including
    /// across a hot swap, which builds the next engine before publishing.
    pub fn start(system: Arc<ServingSystem>, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            router: Router::new(system),
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_signal: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });

        let sup_shared = Arc::clone(&shared);
        let supervisor = std::thread::Builder::new()
            .name("cosmo-http-supervisor".to_string())
            .spawn(move || supervise(listener, sup_shared))?;

        Ok(ServerHandle {
            addr,
            shared,
            supervisor: Some(supervisor),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolved ephemeral port included).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// HTTP-layer counters so far.
    pub fn stats(&self) -> HttpStats {
        let c = &self.shared.counters;
        HttpStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            rejected_conns: c.rejected_conns.load(Ordering::Relaxed),
            shed_conns: c.shed_conns.load(Ordering::Relaxed),
            bad_requests: c.bad_requests.load(Ordering::Relaxed),
            oversized: c.oversized.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, drain every queued and in-flight connection, and
    /// join the supervisor. In-flight keep-alive connections finish their
    /// current request and are then closed.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_signal.notify_all();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

/// Runs on the supervisor thread: owns the worker pool for the server's
/// lifetime. `scope` blocks until the acceptor and every worker job
/// returns, which is exactly the drain semantics `shutdown` needs. The
/// pool has one thread per job, so the accept loop never runs inline and
/// starves the workers.
fn supervise(listener: TcpListener, shared: Arc<Shared>) {
    let workers = shared.config.conn_workers.max(1);
    let pool = WorkerPool::new(1 + workers);
    pool.scope(|s| {
        let listener = &listener;
        let acceptor = Arc::clone(&shared);
        s.spawn(move || accept_loop(listener, &acceptor));
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            s.spawn(move || worker_loop(&shared));
        }
    });
}

/// Poll-accept until shutdown, applying the admission policy at the
/// connection queue.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                admit(stream, shared);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Enqueue an accepted connection, applying [`AdmissionPolicy`] when the
/// queue is at capacity.
fn admit(stream: TcpStream, shared: &Shared) {
    let mut queue = match shared.queue.lock() {
        Ok(q) => q,
        Err(_) => {
            // A worker panicked while holding the queue lock. Shed this
            // connection with a 503 instead of tearing down the acceptor.
            shared
                .counters
                .rejected_conns
                .fetch_add(1, Ordering::Relaxed);
            reject_connection(stream, shared);
            return;
        }
    };
    if queue.len() >= shared.config.conn_backlog.max(1) {
        match shared.config.admission {
            AdmissionPolicy::RejectNew => {
                drop(queue);
                shared
                    .counters
                    .rejected_conns
                    .fetch_add(1, Ordering::Relaxed);
                reject_connection(stream, shared);
                return;
            }
            AdmissionPolicy::DropOldest => {
                // the popped stream drops here, closing the socket before
                // the peer was ever read — a deliberate shed
                let _ = queue.pop_front();
                shared.counters.shed_conns.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    queue.push_back(stream);
    drop(queue);
    shared.queue_signal.notify_one();
}

/// Answer one over-capacity connection `503` + `Retry-After` and close it.
/// Runs on the acceptor, so the request read stops at
/// [`REJECT_READ_BUDGET`].
fn reject_connection(stream: TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(stream) => DeadlineReader {
            stream,
            deadline: Instant::now() + REJECT_READ_BUDGET,
        },
        Err(_) => return,
    });
    // read (and discard) the request so the peer sees the 503 as the
    // answer to what it sent, not a connection reset mid-write
    let _ = read_request(
        &mut reader,
        shared.config.max_header_bytes,
        shared.config.max_body_bytes,
    );
    let body = ErrorBody::new("overloaded", "connection queue full; retry shortly").to_json();
    let resp = Response::json(503, body).with_header("retry-after", "1");
    let mut writer = BufWriter::new(stream);
    let _ = write_response(&mut writer, &resp, false);
}

/// A socket reader with a total deadline: each read's timeout is the time
/// left, and a read past the deadline fails with `TimedOut`.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Serve queued connections until shutdown *and* the queue is empty —
/// shutdown drains rather than abandons.
fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            // Recover the guard on poison: a sibling worker panicked, but
            // the queue itself (a VecDeque of sockets) stays structurally
            // sound, and exiting here would strand queued connections.
            let mut queue = shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = match shared
                    .queue_signal
                    .wait_timeout(queue, Duration::from_millis(50))
                {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        match stream {
            Some(s) => serve_connection(s, shared),
            None => return,
        }
    }
}

/// The keep-alive loop for one connection.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    if stream
        .set_read_timeout(Some(shared.config.read_timeout))
        .is_err()
    {
        return;
    }
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);

    let max_requests = shared.config.max_requests_per_conn.max(1);
    for served in 1..=max_requests {
        let req = match read_request(
            &mut reader,
            shared.config.max_header_bytes,
            shared.config.max_body_bytes,
        ) {
            Ok(req) => req,
            Err(ReadError::Eof) | Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(detail)) => {
                shared.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                let body = ErrorBody::new("bad_request", detail).to_json();
                let _ = write_response(&mut writer, &Response::json(400, body), false);
                return;
            }
            Err(ReadError::TooLarge(detail)) => {
                shared.counters.oversized.fetch_add(1, Ordering::Relaxed);
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                let status = if detail.contains("header") { 431 } else { 413 };
                let body = ErrorBody::new("too_large", detail).to_json();
                let _ = write_response(&mut writer, &Response::json(status, body), false);
                return;
            }
            // Valid HTTP we refuse on purpose (Transfer-Encoding): answer
            // 501 and close so no unread body bytes can desync the
            // connection into a smuggled second request.
            Err(ReadError::Unsupported(detail)) => {
                shared.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                let body = ErrorBody::new("not_implemented", detail).to_json();
                let _ = write_response(&mut writer, &Response::json(501, body), false);
                return;
            }
        };

        let draining = shared.shutdown.load(Ordering::SeqCst);
        let keep_alive = !req.close && served < max_requests && !draining;
        let resp = shared.router.route(&req);
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        match resp.status.0 {
            400 => {
                shared.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            }
            413 | 431 => {
                shared.counters.oversized.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        if write_response(&mut writer, &resp, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Maps parsed requests to responses. Pure routing — no socket I/O — so
/// the integration tests can prove the HTTP body is byte-identical to
/// the in-process [`ServingSystem::handle`] answer.
///
/// The router holds no state of its own: each request takes the current
/// snapshot generation once and answers from it, so `/v1/navigate` uses
/// the navigation engine that was built over that generation's graph
/// before the generation was published.
pub struct Router {
    system: Arc<ServingSystem>,
}

impl Router {
    /// Build a router over `system`. Builds nothing: every generation
    /// already carries its navigation engine.
    pub fn new(system: Arc<ServingSystem>) -> Router {
        Router { system }
    }

    /// The serving system this router answers from.
    pub fn system(&self) -> &Arc<ServingSystem> {
        &self.system
    }

    /// Map one parsed request to a response.
    pub fn route(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/serve-intents") => self.serve_intents(&req.body),
            ("POST", "/v1/navigate") => self.navigate(&req.body),
            ("POST", "/ops/reload") => self.reload(&req.body),
            ("GET", "/v1/snapshot-version") => {
                Response::json(200, self.snapshot_version().to_json())
            }
            ("GET", "/ops/stats") => Response::json(200, self.system.ops().to_json()),
            ("GET", "/v1/serve-intents") | ("GET", "/v1/navigate") | ("GET", "/ops/reload") => {
                Response::json(
                    405,
                    ErrorBody::new("method_not_allowed", "use POST").to_json(),
                )
            }
            ("POST", "/v1/snapshot-version") | ("POST", "/ops/stats") => Response::json(
                405,
                ErrorBody::new("method_not_allowed", "use GET").to_json(),
            ),
            _ => Response::json(404, ErrorBody::new("not_found", "unknown route").to_json()),
        }
    }

    /// `POST /v1/serve-intents`: decode, delegate to the serving read
    /// path, and map [`ServeStatus::Rejected`] to `503` + `Retry-After`
    /// — with the *same* body bytes `handle` would return in-process.
    fn serve_intents(&self, body: &[u8]) -> Response {
        let req = match decode_body(body, ServeRequest::from_json) {
            Ok(req) => req,
            Err(resp) => return resp,
        };
        let resp = self.system.handle(&req);
        if resp.status == ServeStatus::Rejected {
            Response::json(503, resp.to_json()).with_header("retry-after", "1")
        } else {
            Response::json(200, resp.to_json())
        }
    }

    /// `POST /v1/navigate`: interpret a broad query with the navigation
    /// engine of the current generation.
    fn navigate(&self, body: &[u8]) -> Response {
        let req = match decode_body(body, NavigateRequest::from_json) {
            Ok(req) => req,
            Err(resp) => return resp,
        };
        let suggestions = self
            .system
            .current()
            .nav
            .interpret(&req.query, req.k)
            .into_iter()
            .map(|s| NavigateItem {
                kind: match s {
                    Suggestion::Intent(_) => "intent",
                    Suggestion::Attribute(_) => "attribute",
                }
                .to_string(),
                label: s.label().to_string(),
            })
            .collect();
        let resp = NavigateResponse {
            protocol_version: PROTOCOL_VERSION,
            query: req.query,
            suggestions,
        };
        Response::json(200, resp.to_json())
    }

    /// `POST /ops/reload`: open + fully verify the snapshot file named in
    /// the body, then atomically publish it as the next generation. The
    /// new generation is visible to every request that starts after the
    /// swap; in-flight requests finish on the old one. A snapshot that
    /// fails verification is refused with `400` and the server keeps
    /// serving the current generation untouched.
    fn reload(&self, body: &[u8]) -> Response {
        let req = match decode_body(body, ReloadRequest::from_json) {
            Ok(req) => req,
            Err(resp) => return resp,
        };
        match KgSnapshotView::open_verified(std::path::Path::new(&req.path)) {
            Ok(view) => {
                let (nodes, edges) = (view.num_nodes() as u64, view.num_edges() as u64);
                let generation = self.system.swap_snapshot(view);
                let resp = ReloadResponse {
                    protocol_version: PROTOCOL_VERSION,
                    generation,
                    format_version: FORMAT_VERSION_V2,
                    nodes,
                    edges,
                };
                Response::json(200, resp.to_json())
            }
            Err(e) => Response::json(
                400,
                ErrorBody::new("reload_failed", e.to_string()).to_json(),
            ),
        }
    }

    /// The identity of the snapshot the current generation answers from.
    fn snapshot_version(&self) -> SnapshotVersion {
        let generation = self.system.current();
        let view = &generation.view;
        SnapshotVersion {
            protocol_version: PROTOCOL_VERSION,
            format_version: FORMAT_VERSION_V2,
            nodes: view.num_nodes() as u64,
            edges: view.num_edges() as u64,
            relations: view.num_relations() as u64,
            arena_bytes: view.arena_len() as u64,
            model_version: self.system.model_version(),
            generation: generation.generation,
        }
    }
}

/// UTF-8 + typed-JSON decode with a `400` [`ErrorBody`] on failure.
fn decode_body<T>(
    body: &[u8],
    parse: impl FnOnce(&str) -> Result<T, cosmo_serving::ProtocolError>,
) -> Result<T, Response> {
    let text = std::str::from_utf8(body).map_err(|_| {
        Response::json(
            400,
            ErrorBody::new("bad_request", "body is not UTF-8").to_json(),
        )
    })?;
    parse(text)
        .map_err(|e| Response::json(400, ErrorBody::new("bad_request", e.to_string()).to_json()))
}
