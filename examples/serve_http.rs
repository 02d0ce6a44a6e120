//! The full network stack end-to-end: build a KG, freeze it, stand up
//! the HTTP/1.1 front end on an ephemeral port, and curl ourselves over
//! a keep-alive connection — every route, typed bodies both ways.
//!
//! ```text
//! cargo run --release --example serve_http
//! ```
//!
//! It asserts as it goes (the serve-intents body equals the in-process
//! answer, navigate suggests something for "camping"), so a non-zero exit
//! means a route broke.
//!
//! While it runs you can also poke the server from a real shell:
//! the bound address is printed first, e.g.
//! `curl -s -X POST http://127.0.0.1:PORT/v1/serve-intents -d '{"query":"dog leash"}'`.

use cosmo::core::{run, PipelineConfig};
use cosmo::http::{HttpClient, HttpServer, ServerConfig};
use cosmo::lm::{build_instructions, tail_vocab_from_pipeline, CosmoLm, StudentConfig};
use cosmo::serving::{
    NavigateResponse, OpsStats, ServeRequest, ServeResponse, ServingSystem, SnapshotVersion,
};
use std::sync::Arc;

fn main() {
    // Offline: pipeline + student, then freeze the KG for serving.
    let out = run(PipelineConfig::tiny(7));
    let instructions = build_instructions(&out.world, &out.filtered, &out.annotation, 8);
    let mut student = CosmoLm::new(StudentConfig::default(), tail_vocab_from_pipeline(&out));
    student.train(&instructions);
    let preload: Vec<String> = out
        .world
        .queries
        .iter()
        .take(25)
        .map(|q| q.text.clone())
        .collect();
    let system = Arc::new(
        ServingSystem::builder()
            .view(out.kg.freeze())
            .lm(Arc::new(student))
            .preload(preload.clone())
            .build()
            .expect("default serving config is valid"),
    );

    // Online: bind an ephemeral port and serve in the background.
    let handle = HttpServer::start(Arc::clone(&system), ServerConfig::default())
        .expect("bind an ephemeral localhost port");
    println!("serving on http://{}", handle.addr());

    // Curl ourselves: one keep-alive connection, all four routes.
    let mut client = HttpClient::connect(handle.addr()).expect("connect to ourselves");

    let resp = client
        .request("GET", "/v1/snapshot-version", "")
        .expect("GET /v1/snapshot-version");
    let version = SnapshotVersion::from_json(&resp.body).expect("typed body");
    println!(
        "\nGET /v1/snapshot-version → {} (format v{}, {} nodes / {} edges, model v{})",
        resp.status, version.format_version, version.nodes, version.edges, version.model_version
    );

    let req = ServeRequest {
        query: preload[0].clone(),
        top_k: 3,
    };
    let resp = client
        .request("POST", "/v1/serve-intents", &req.to_json())
        .expect("POST /v1/serve-intents");
    let served = ServeResponse::from_json(&resp.body).expect("typed body");
    println!(
        "POST /v1/serve-intents \"{}\" → {} ({}, {} intents)",
        req.query,
        resp.status,
        served.status.as_str(),
        served.intents.len()
    );
    for item in &served.intents {
        println!("  [{}] {} ({:.2})", item.relation, item.tail, item.score);
    }
    // the network answer IS the in-process answer, byte for byte
    assert_eq!(resp.body, system.handle(&req).to_json());

    let resp = client
        .request("POST", "/v1/navigate", "{\"query\":\"camping\",\"k\":4}")
        .expect("POST /v1/navigate");
    let nav = NavigateResponse::from_json(&resp.body).expect("typed body");
    println!(
        "POST /v1/navigate \"camping\" → {} suggestions:",
        nav.suggestions.len()
    );
    for s in &nav.suggestions {
        println!("  [{}] {}", s.kind, s.label);
    }
    assert_eq!(resp.status, 200);
    assert!(
        !nav.suggestions.is_empty(),
        "the served generation's navigation engine interprets \"camping\""
    );

    let resp = client
        .request("GET", "/ops/stats", "")
        .expect("GET /ops/stats");
    let ops = OpsStats::from_json(&resp.body).expect("typed body");
    println!(
        "GET /ops/stats → hit rate {:.0}%, {} pending, p99 {}µs",
        ops.hit_rate * 100.0,
        ops.pending,
        ops.p99_us
    );

    let stats = handle.stats();
    println!(
        "\nhttp layer: {} connection(s), {} requests, {} rejected",
        stats.accepted, stats.requests, stats.rejected_conns
    );
    handle.shutdown();
    println!("server drained and shut down cleanly");
}
