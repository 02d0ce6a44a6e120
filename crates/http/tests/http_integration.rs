//! End-to-end tests for the HTTP front end: keep-alive, pipelining,
//! malformed/oversized input, connection backpressure, byte-identity
//! with the in-process serving path, closed-loop load, hot swaps and
//! clean shutdown draining.

use cosmo_http::{run_load, HttpClient, HttpServer, LoadConfig, ServerConfig};
use cosmo_kg::{BehaviorKind, Edge, KnowledgeGraph, NodeKind, Relation};
use cosmo_lm::{CosmoLm, StudentConfig};
use cosmo_serving::{
    AdmissionPolicy, ErrorBody, NavigateResponse, OpsStats, ServeRequest, ServeResponse,
    ServingConfig, ServingSystem, SnapshotVersion,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small KG with real intent edges so `/v1/serve-intents` can hit and
/// `/v1/navigate` has something to suggest.
fn test_kg() -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    let pairs = [
        ("sleeping bag", "sleeping outdoors", Relation::UsedForFunc),
        ("sleeping bag", "keeping warm", Relation::CapableOf),
        ("tent", "sleeping outdoors", Relation::UsedForFunc),
        ("air mattress", "sleeping outdoors", Relation::UsedForFunc),
    ];
    for (i, (product, intent, relation)) in pairs.iter().enumerate() {
        let head = kg.intern_node(NodeKind::Product, product);
        let tail = kg.intern_node(NodeKind::Intention, intent);
        kg.add_edge(Edge {
            head,
            relation: *relation,
            tail,
            behavior: BehaviorKind::SearchBuy,
            category: 0,
            plausibility: 0.9,
            typicality: 0.5 + (i as f32) * 0.05,
            support: 3,
        });
    }
    kg
}

fn test_system(cfg: ServingConfig, preload: &[&str]) -> Arc<ServingSystem> {
    let lm = Arc::new(CosmoLm::new(
        StudentConfig::default(),
        vec![
            ("sleeping outdoors".into(), Some(Relation::UsedForFunc)),
            ("keeping warm".into(), Some(Relation::CapableOf)),
        ],
    ));
    Arc::new(
        ServingSystem::builder()
            .view(test_kg().freeze())
            .lm(lm)
            .preload(preload.iter().copied())
            .config(cfg)
            .build()
            .expect("test serving config is valid"),
    )
}

fn start_default() -> (Arc<ServingSystem>, cosmo_http::ServerHandle) {
    let system = test_system(ServingConfig::default(), &["sleeping bag", "tent"]);
    let handle =
        HttpServer::start(Arc::clone(&system), ServerConfig::default()).expect("bind ephemeral");
    (system, handle)
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (_system, handle) = start_default();
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    for _ in 0..5 {
        let resp = client
            .request("GET", "/v1/snapshot-version", "")
            .expect("keep-alive request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        let version = SnapshotVersion::from_json(&resp.body).expect("typed body");
        assert_eq!(version.nodes, 5); // 3 products + 2 intentions interned above
        assert!(version.edges >= 4);
    }
    let stats = handle.stats();
    assert_eq!(stats.accepted, 1, "one connection served every request");
    assert_eq!(stats.requests, 5);
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (_system, handle) = start_default();
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    // write both requests before reading either response
    client.send("GET", "/v1/snapshot-version", "").unwrap();
    client
        .send(
            "POST",
            "/v1/serve-intents",
            &ServeRequest::new("sleeping bag").to_json(),
        )
        .unwrap();
    let first = client.read_response().unwrap();
    let second = client.read_response().unwrap();
    assert_eq!(first.status, 200);
    assert!(SnapshotVersion::from_json(&first.body).is_ok());
    assert_eq!(second.status, 200);
    let served = ServeResponse::from_json(&second.body).unwrap();
    assert_eq!(served.query, "sleeping bag");
    handle.shutdown();
}

#[test]
fn malformed_requests_get_400_and_close() {
    let (_system, handle) = start_default();
    for raw in [
        "BOGUS\r\n\r\n",
        "GET / HTTP/2\r\n\r\n",
        "POST /v1/serve-intents HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
    ] {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap(); // server closes → EOF
        assert!(out.starts_with("HTTP/1.1 400 "), "got {out:?} for {raw:?}");
        assert!(out.contains("\r\nconnection: close\r\n"));
    }
    // bad JSON in a well-formed request is also a 400, but keep-alive
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let resp = client
        .request("POST", "/v1/serve-intents", "{\"no_query\":1}")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("bad_request"));
    assert!(handle.stats().bad_requests >= 4);
    handle.shutdown();
}

#[test]
fn oversized_requests_get_413_or_431_without_panicking() {
    let system = test_system(ServingConfig::default(), &[]);
    let config = ServerConfig {
        max_body_bytes: 256,
        max_header_bytes: 512,
        ..ServerConfig::default()
    };
    let handle = HttpServer::start(system, config).expect("bind ephemeral");

    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let huge = format!(
        "{{\"query\":\"{}\"}}",
        "sleeping bag ".repeat(64) // > 256 bytes of body
    );
    let resp = client.request("POST", "/v1/serve-intents", &huge).unwrap();
    assert_eq!(resp.status, 413);

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let raw = format!(
        "GET /v1/snapshot-version HTTP/1.1\r\nx-pad: {}\r\n\r\n",
        "a".repeat(1024)
    );
    stream.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 431 "), "got {out:?}");

    // a header line that never ends is cut off at the cap, not buffered
    // until the peer stops sending
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let raw = format!(
        "GET /v1/snapshot-version HTTP/1.1\r\nx-pad: {}",
        "a".repeat(2048)
    );
    stream.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 431 "), "got {out:?}");

    assert_eq!(handle.stats().oversized, 3);
    // the server survived all three: a normal request still works
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let ok = client.request("GET", "/v1/snapshot-version", "").unwrap();
    assert_eq!(ok.status, 200);
    handle.shutdown();
}

/// With a single worker pinned by an idle connection, a one-deep queue,
/// and `RejectNew`, the third connection must be answered `503` with
/// `Retry-After` at admission.
#[test]
fn connection_backpressure_rejects_with_503() {
    let system = test_system(ServingConfig::default(), &["sleeping bag"]);
    let config = ServerConfig {
        conn_workers: 1,
        conn_backlog: 1,
        admission: AdmissionPolicy::RejectNew,
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let handle = HttpServer::start(system, config).expect("bind ephemeral");

    // _pinned occupies the single worker (idle until its read times out);
    // _queued fills the one-deep queue.
    let _pinned = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let _queued = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let resp = client
        .request(
            "POST",
            "/v1/serve-intents",
            &ServeRequest::new("tent").to_json(),
        )
        .unwrap();
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(resp.body.contains("overloaded"));
    assert_eq!(handle.stats().rejected_conns, 1);
    handle.shutdown();
}

/// A rejected connection holds the acceptor only briefly, whatever it
/// sends: after one that stays silent, or one that drips a header byte
/// every 50 ms (each read well inside `read_timeout`), the next client
/// over capacity is still answered `503` within a second.
#[test]
fn rejected_connection_cannot_stall_the_acceptor() {
    for drip in [false, true] {
        let system = test_system(ServingConfig::default(), &["sleeping bag"]);
        let config = ServerConfig {
            conn_workers: 1,
            conn_backlog: 1,
            admission: AdmissionPolicy::RejectNew,
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        };
        let handle = HttpServer::start(system, config).expect("bind ephemeral");

        // the pinned connection holds the single worker for read_timeout;
        // the queued one fills the one-deep queue
        let pinned = TcpStream::connect(handle.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let queued = TcpStream::connect(handle.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(150));

        let stalling = TcpStream::connect(handle.addr()).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let dripper = drip.then(|| {
            let stop = Arc::clone(&stop);
            let mut stalling = stalling.try_clone().unwrap();
            std::thread::spawn(move || {
                let head = b"GET /v1/snapshot-version HTTP/1.1\r\nx-drip: ";
                for i in 0..200 {
                    let byte = head.get(i).copied().unwrap_or(b'a');
                    if stop.load(Ordering::SeqCst) || stalling.write_all(&[byte]).is_err() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
        });

        let started = Instant::now();
        let mut next = TcpStream::connect(handle.addr()).unwrap();
        next.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        next.write_all(b"GET /v1/snapshot-version HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        let read = next.read_to_string(&mut out);
        let waited = started.elapsed();
        stop.store(true, Ordering::SeqCst);
        if let Some(dripper) = dripper {
            dripper.join().unwrap();
        }

        assert!(
            read.is_ok() && out.starts_with("HTTP/1.1 503 "),
            "drip={drip}: got {read:?} / {out:?} after {waited:?}"
        );
        assert!(waited < Duration::from_secs(1), "drip={drip}: {waited:?}");
        assert_eq!(handle.stats().rejected_conns, 2, "drip={drip}");
        drop((pinned, queued, stalling));
        handle.shutdown();
    }
}

/// Same overload under `DropOldest`: the queued-but-unserved connection
/// is shed (closed without a response) and the new one takes its place.
#[test]
fn connection_backpressure_sheds_oldest() {
    let system = test_system(ServingConfig::default(), &["sleeping bag"]);
    let config = ServerConfig {
        conn_workers: 1,
        conn_backlog: 1,
        admission: AdmissionPolicy::DropOldest,
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let handle = HttpServer::start(system, config).expect("bind ephemeral");

    let _pinned = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let mut shed_victim = TcpStream::connect(handle.addr()).unwrap();
    shed_victim
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let resp = client
        .request(
            "POST",
            "/v1/serve-intents",
            &ServeRequest::new("sleeping bag").to_json(),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "newest connection is served");
    // the shed connection sees EOF, never a response
    let mut buf = Vec::new();
    let shed_read = shed_victim.read_to_end(&mut buf);
    assert!(
        shed_read.is_ok() && buf.is_empty(),
        "shed connection got {buf:?}"
    );
    assert_eq!(handle.stats().shed_conns, 1);
    handle.shutdown();
}

/// `conn_workers: 0` still runs one connection worker beside the accept
/// loop: a request is answered instead of waiting behind an accept loop
/// that owns the only thread.
#[test]
fn zero_conn_workers_still_serves() {
    let system = test_system(ServingConfig::default(), &[]);
    let config = ServerConfig {
        conn_workers: 0,
        ..ServerConfig::default()
    };
    let handle = HttpServer::start(system, config).expect("bind ephemeral");

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    stream
        .write_all(b"GET /v1/snapshot-version HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    stream
        .read_to_string(&mut out)
        .expect("answered within the read timeout");
    assert!(out.starts_with("HTTP/1.1 200 "), "got {out:?}");
    handle.shutdown();
}

/// The acceptance bar for the whole front end: for hit, miss, and
/// repeat-miss traffic the HTTP response body equals
/// `ServingSystem::handle(&req).to_json()` byte for byte.
#[test]
fn http_bodies_are_byte_identical_to_in_process_handle() {
    let (system, handle) = start_default();
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let cases = [
        ServeRequest::new("sleeping bag"), // L1 hit
        ServeRequest {
            query: "tent".into(),
            top_k: 1,
        }, // hit, truncated
        ServeRequest::new("never seen before"), // miss → enqueued
        ServeRequest::new("never seen before"), // repeat miss → enqueued
        ServeRequest::new(""),             // empty query
    ];
    for req in &cases {
        let http = client
            .request("POST", "/v1/serve-intents", &req.to_json())
            .unwrap();
        // the HTTP call above already enqueued any miss, so this
        // in-process call observes the same cache state
        let in_process = system.handle(req);
        assert_eq!(
            http.body,
            in_process.to_json(),
            "HTTP and in-process bodies diverge for {:?}",
            req.query
        );
        let expected_status = if in_process.status == cosmo_serving::ServeStatus::Rejected {
            503
        } else {
            200
        };
        assert_eq!(http.status, expected_status);
    }
    handle.shutdown();
}

/// A serving-layer `Rejected` (pending queue full under `RejectNew`)
/// must surface as HTTP 503 + `Retry-After` while still carrying the
/// byte-identical `ServeResponse` body.
#[test]
fn serving_layer_rejection_maps_to_503_with_identical_body() {
    let system = test_system(
        ServingConfig {
            shards: 1,
            pending_bound: 1,
            admission: AdmissionPolicy::RejectNew,
            ..ServingConfig::default()
        },
        &[],
    );
    let handle =
        HttpServer::start(Arc::clone(&system), ServerConfig::default()).expect("bind ephemeral");
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let filler = ServeRequest::new("fills the only pending slot");
    let first = client
        .request("POST", "/v1/serve-intents", &filler.to_json())
        .unwrap();
    assert_eq!(first.status, 200); // enqueued

    let rejected = ServeRequest::new("no room for this one");
    let resp = client
        .request("POST", "/v1/serve-intents", &rejected.to_json())
        .unwrap();
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    let in_process = system.handle(&rejected);
    assert_eq!(in_process.status, cosmo_serving::ServeStatus::Rejected);
    assert_eq!(resp.body, in_process.to_json());
    handle.shutdown();
}

#[test]
fn navigate_and_ops_routes_answer_typed_bodies() {
    let (system, handle) = start_default();
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let resp = client
        .request(
            "POST",
            "/v1/navigate",
            "{\"query\":\"sleeping outdoors\",\"k\":3}",
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let nav = NavigateResponse::from_json(&resp.body).expect("typed navigate body");
    assert_eq!(nav.query, "sleeping outdoors");
    for item in &nav.suggestions {
        assert!(
            ["intent", "attribute"].contains(&item.kind.as_str()),
            "unknown kind {:?}",
            item.kind
        );
    }

    let resp = client.request("GET", "/ops/stats", "").unwrap();
    assert_eq!(resp.status, 200);
    let ops = OpsStats::from_json(&resp.body).expect("typed ops body");
    assert_eq!(ops.to_json(), system.ops().to_json());

    // routing edges: wrong method and unknown path
    assert_eq!(
        client
            .request("GET", "/v1/serve-intents", "")
            .unwrap()
            .status,
        405
    );
    assert_eq!(
        client.request("POST", "/ops/stats", "{}").unwrap().status,
        405
    );
    assert_eq!(client.request("GET", "/nope", "").unwrap().status, 404);
    handle.shutdown();
}

/// Shutdown must drain: every connection queued before shutdown gets its
/// answer, and in-flight keep-alive connections are closed politely
/// (`connection: close` on the final response), not reset.
#[test]
fn shutdown_drains_queued_and_in_flight_connections() {
    let system = test_system(ServingConfig::default(), &["sleeping bag"]);
    let config = ServerConfig {
        conn_workers: 2,
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let handle = HttpServer::start(system, config).expect("bind ephemeral");

    let mut clients: Vec<HttpClient> = (0..6)
        .map(|_| HttpClient::connect(handle.addr()).unwrap())
        .collect();
    // write all requests first so several sit queued when shutdown lands
    for c in &mut clients {
        c.send(
            "POST",
            "/v1/serve-intents",
            &ServeRequest::new("sleeping bag").to_json(),
        )
        .unwrap();
    }
    let shutdown = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        handle.shutdown();
    });
    let mut answered = 0;
    for c in &mut clients {
        if let Ok(resp) = c.read_response() {
            assert_eq!(resp.status, 200);
            answered += 1;
        }
    }
    shutdown.join().unwrap();
    assert_eq!(answered, 6, "every pre-shutdown request was answered");
}

/// Request-smuggling hardening over real sockets: conflicting duplicate
/// `Content-Length` headers are refused with `400`, any
/// `Transfer-Encoding` with `501`, and both close the connection so no
/// unread body bytes can desync the framing.
#[test]
fn smuggling_vectors_are_refused_and_closed() {
    let (_system, handle) = start_default();
    let cases = [
        (
            // CL.CL desync attempt: two disagreeing lengths
            "POST /v1/serve-intents HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 11\r\n\r\nabcd",
            "HTTP/1.1 400 ",
        ),
        (
            // TE.CL desync attempt: chunked framing we do not implement
            "POST /v1/serve-intents HTTP/1.1\r\ntransfer-encoding: chunked\r\ncontent-length: 4\r\n\r\n0\r\n\r\n",
            "HTTP/1.1 501 ",
        ),
        (
            // even a benign-looking TE is refused rather than half-implemented
            "GET /v1/snapshot-version HTTP/1.1\r\ntransfer-encoding: identity\r\n\r\n",
            "HTTP/1.1 501 ",
        ),
    ];
    for (raw, expected) in cases {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap(); // server closes → EOF
        assert!(out.starts_with(expected), "got {out:?} for {raw:?}");
        assert!(out.contains("\r\nconnection: close\r\n"), "got {out:?}");
    }
    // agreeing duplicates are allowed (RFC 9112 §6.3) and served normally
    let raw = "GET /v1/snapshot-version HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200 "), "got {out:?}");
    handle.shutdown();
}

/// The workspace's load generator against a live server: closed-loop
/// clients over preloaded hits and enqueued misses, with a batch cycle
/// racing to fill the misses, finish with every request answered `200`
/// and no transport error.
#[test]
fn run_load_over_hits_misses_and_batch_cycles_has_no_errors() {
    let queries = ["sleeping bag", "tent", "air mattress", "camp stove"];
    let system = test_system(ServingConfig::default(), &queries[..2]);
    let handle =
        HttpServer::start(Arc::clone(&system), ServerConfig::default()).expect("bind ephemeral");

    let stop = Arc::new(AtomicBool::new(false));
    let batch = {
        let system = Arc::clone(&system);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                system.run_batch_cycle().expect("batch cycle");
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let report = run_load(
        handle.addr(),
        &LoadConfig {
            concurrency: 2,
            duration: Duration::from_millis(200),
            bodies: queries
                .iter()
                .map(|q| ServeRequest::new(*q).to_json())
                .collect(),
        },
    );
    stop.store(true, Ordering::Relaxed);
    batch.join().unwrap();
    handle.shutdown();

    assert!(report.requests > 0, "no request answered: {report:?}");
    assert_eq!(report.ok, report.requests, "{report:?}");
    assert_eq!(report.rejected, 0, "{report:?}");
    assert_eq!(report.other_errors, 0, "{report:?}");
    assert_eq!(report.transport_errors, 0, "{report:?}");
    assert!(report.p50_us <= report.p99_us, "{report:?}");
}

/// The acceptance bar for the hot swap: ten snapshot reloads land under
/// concurrent serve-intents and navigate traffic with **zero 5xx**
/// responses, and within any one snapshot generation the response body
/// for a given query is byte-identical across every thread that observed
/// it. Each reload builds its generation's navigation engine before it
/// returns, so the first navigate after the last reload already answers
/// from the final snapshot.
#[test]
fn hot_swap_under_load_is_zero_downtime_and_generation_consistent() {
    use std::collections::HashMap;
    use std::sync::Mutex;

    const SWAPS: u64 = 10;
    let queries = ["sleeping bag", "tent", "air mattress"];
    let system = test_system(ServingConfig::default(), &queries);
    let handle =
        HttpServer::start(Arc::clone(&system), ServerConfig::default()).expect("bind ephemeral");
    let addr = handle.addr();

    // Pre-write the snapshot files the swaps will load: the base graph
    // plus i extra edges, so every generation really is a different KG.
    // Only the last one holds an intent that refines "lighting a campsite".
    const NAV_QUERY: &str = "lighting a campsite";
    const FINAL_INTENT: &str = "lighting a campsite at night";
    let dir = std::env::temp_dir().join(format!("cosmo_swap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<_> = (1..=SWAPS)
        .map(|i| {
            let mut kg = test_kg();
            for j in 0..i {
                let head = kg.intern_node(NodeKind::Product, &format!("lantern mk{j}"));
                let tail = kg.intern_node(NodeKind::Intention, "lighting a campsite");
                kg.add_edge(Edge {
                    head,
                    relation: Relation::UsedForFunc,
                    tail,
                    behavior: BehaviorKind::SearchBuy,
                    category: 0,
                    plausibility: 0.8,
                    typicality: 0.4,
                    support: 2,
                });
            }
            if i == SWAPS {
                let head = kg.intern_node(NodeKind::Product, "headlamp");
                let tail = kg.intern_node(NodeKind::Intention, FINAL_INTENT);
                kg.add_edge(Edge {
                    head,
                    relation: Relation::UsedForFunc,
                    tail,
                    behavior: BehaviorKind::SearchBuy,
                    category: 0,
                    plausibility: 0.8,
                    typicality: 0.4,
                    support: 2,
                });
            }
            let path = dir.join(format!("swap_{i}.kg2"));
            std::fs::write(&path, kg.freeze().as_bytes()).unwrap();
            path
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    // (query, generation) → body; any divergence within a generation is
    // a torn read across the swap boundary
    let seen: Arc<Mutex<HashMap<(String, u64), String>>> = Arc::new(Mutex::new(HashMap::new()));
    let readers: Vec<_> = (0..4)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let mut count = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let query = queries[(t + count as usize) % queries.len()];
                    let resp = client
                        .request(
                            "POST",
                            "/v1/serve-intents",
                            &ServeRequest::new(query).to_json(),
                        )
                        .unwrap();
                    assert!(
                        resp.status < 500,
                        "5xx under swap: {} {}",
                        resp.status,
                        resp.body
                    );
                    assert_eq!(resp.status, 200, "preloaded query must hit");
                    let body = ServeResponse::from_json(&resp.body).unwrap();
                    let mut seen = seen.lock().unwrap();
                    let prior = seen
                        .entry((query.to_string(), body.snapshot_generation))
                        .or_insert_with(|| resp.body.clone());
                    assert_eq!(
                        *prior, resp.body,
                        "bodies diverge within generation {} for {query:?}",
                        body.snapshot_generation
                    );
                    count += 1;
                }
                count
            })
        })
        .collect();
    let nav_body = format!("{{\"query\":{NAV_QUERY:?},\"k\":3}}");
    let navigator = {
        let stop = Arc::clone(&stop);
        let nav_body = nav_body.clone();
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            let mut count = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let resp = client.request("POST", "/v1/navigate", &nav_body).unwrap();
                assert!(
                    resp.status < 500,
                    "5xx navigate under swap: {} {}",
                    resp.status,
                    resp.body
                );
                assert_eq!(resp.status, 200, "navigate must answer: {}", resp.body);
                count += 1;
            }
            count
        })
    };

    let mut ops_client = HttpClient::connect(addr).unwrap();
    let suggests_final = |client: &mut HttpClient| {
        let resp = client.request("POST", "/v1/navigate", &nav_body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let nav = NavigateResponse::from_json(&resp.body).unwrap();
        nav.suggestions.iter().any(|s| s.label == FINAL_INTENT)
    };
    assert!(!suggests_final(&mut ops_client), "the base graph lacks it");
    for (i, path) in paths.iter().enumerate() {
        std::thread::sleep(Duration::from_millis(30));
        let body = format!("{{\"path\":{:?}}}", path.display().to_string());
        let resp = ops_client.request("POST", "/ops/reload", &body).unwrap();
        assert_eq!(resp.status, 200, "reload failed: {}", resp.body);
        let reloaded = cosmo_serving::ReloadResponse::from_json(&resp.body).unwrap();
        assert_eq!(
            reloaded.generation,
            i as u64 + 2,
            "generations are sequential"
        );
        assert_eq!(reloaded.format_version, 2, "reload served the v2 mmap path");
    }
    // the reload built the final generation's engine: the very next
    // navigate answers over the final snapshot
    assert!(
        suggests_final(&mut ops_client),
        "navigate after the last reload missed the final snapshot"
    );
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers made progress");
    assert!(navigator.join().unwrap() > 0, "the navigator made progress");

    // the final generation is live and identifies the last snapshot
    let resp = ops_client
        .request("GET", "/v1/snapshot-version", "")
        .unwrap();
    let version = SnapshotVersion::from_json(&resp.body).unwrap();
    assert_eq!(version.generation, SWAPS + 1);
    assert_eq!(version.format_version, 2);
    // traffic really did span multiple generations
    let generations: std::collections::BTreeSet<u64> =
        seen.lock().unwrap().keys().map(|(_, g)| *g).collect();
    assert!(
        generations.len() >= 2,
        "expected traffic across generations, saw {generations:?}"
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A reload that names a bad input is refused with `400 reload_failed`
/// and leaves the serving generation untouched: a file in the retired
/// version-1 layout, a truncated snapshot and a missing path each get the
/// typed error, and afterwards the generation and every serve-intents
/// body are exactly what they were before.
#[test]
fn failed_reloads_are_typed_400s_and_leave_the_generation_untouched() {
    let (_system, handle) = start_default();
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let serve_bodies = |client: &mut HttpClient| -> Vec<String> {
        ["sleeping bag", "tent"]
            .iter()
            .map(|q| {
                let resp = client
                    .request(
                        "POST",
                        "/v1/serve-intents",
                        &ServeRequest::new(*q).to_json(),
                    )
                    .unwrap();
                assert_eq!(resp.status, 200);
                resp.body
            })
            .collect()
    };
    let version_before = client
        .request("GET", "/v1/snapshot-version", "")
        .unwrap()
        .body;
    let bodies_before = serve_bodies(&mut client);

    let dir = std::env::temp_dir().join(format!("cosmo_bad_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // version-1 header: magic, version 1, node/edge counts, arena length
    // and checksum, then a payload
    let mut v1 = b"COSMOKG\0".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.resize(v1.len() + 4 + 4 + 8 + 8 + 512, 0);
    let v1_path = dir.join("old.snap");
    std::fs::write(&v1_path, &v1).unwrap();
    let frozen = test_kg().freeze();
    let truncated_path = dir.join("truncated.kg2");
    std::fs::write(
        &truncated_path,
        &frozen.as_bytes()[..frozen.as_bytes().len() / 2],
    )
    .unwrap();
    let missing_path = dir.join("missing.kg2");

    for (path, detail) in [
        (&v1_path, "unsupported snapshot version 1"),
        (&truncated_path, "corrupt snapshot"),
        (&missing_path, "io error"),
    ] {
        let body = format!("{{\"path\":{:?}}}", path.display().to_string());
        let resp = client.request("POST", "/ops/reload", &body).unwrap();
        assert_eq!(resp.status, 400, "{}: {}", path.display(), resp.body);
        let err = ErrorBody::from_json(&resp.body).expect("typed error body");
        assert_eq!(err.error, "reload_failed");
        assert!(
            err.detail.contains(detail),
            "{}: detail {:?} lacks {detail:?}",
            path.display(),
            err.detail
        );
    }

    let version_after = client
        .request("GET", "/v1/snapshot-version", "")
        .unwrap()
        .body;
    assert_eq!(version_after, version_before);
    assert_eq!(
        SnapshotVersion::from_json(&version_after)
            .unwrap()
            .generation,
        1
    );
    assert_eq!(serve_bodies(&mut client), bodies_before);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
