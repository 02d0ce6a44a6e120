//! The traced run's per-layer probes: timed calls into each crate's
//! public functions, made from the benchmark's own code on the workload's
//! own system and inputs.

use crate::load::{closed_loop, http_request};
use crate::report::Report;
use crate::setup::{Serving, Stages};
use crate::util::median;
use cosmo_http::{read_request, write_response, Router, ServerConfig};
use cosmo_kg::{GraphView, KgSnapshotView, NodeKind};
use cosmo_nav::NavigationEngine;
use cosmo_serving::features::compute_features_batch;
use cosmo_serving::{ServeRequest, ServingSystem};
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries per batched probe: the serving batch size.
const BATCH: usize = 256;

/// Median over `rounds` of the mean cost of one call, in µs, with `calls`
/// calls per round.
fn per_call_us(rounds: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t.elapsed().as_secs_f64() * 1e6 / calls as f64
        })
        .collect();
    median(&times)
}

/// Median wall clock of `rounds` calls, in ms.
fn per_run_ms(rounds: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Counters the workload's traffic left behind. Read before the probes,
/// which add traffic of their own.
pub fn counters(report: &mut Report, s: &Serving) {
    let http = s.server.stats();
    let ops = s.system.ops();
    report.set("http.conns_accepted", http.accepted as f64);
    report.set("http.rejected_conns", http.rejected_conns as f64);
    report.set("http.shed_conns", http.shed_conns as f64);
    report.set("serving.l1_hits", ops.l1_hits as f64);
    report.set("serving.l2_hits", ops.l2_hits as f64);
    report.set("serving.misses", ops.misses as f64);
    report.set("serving.dropped", ops.dropped as f64);
    report.set("serving.rejected", ops.rejected as f64);
    report.set("serving.queue_high_water", ops.queue_high_water as f64);
    report.set("exec.batch_failed_chunks", ops.batch_failed_chunks as f64);
}

/// The refresh stages the workload ran (its set-up, or the offline
/// refresh itself).
pub fn stages(report: &mut Report, st: &Stages, freeze: &cosmo_core::ScaleFreezeReport) {
    report.set("synth.world_s", st.world_s);
    report.set("synth.log_s", st.log_s);
    report.set("core.run_over_s", st.run_over_s);
    report.set("lm.instructions_s", st.instructions_s);
    report.set("lm.train_s", st.train_s);
    report.set("core.candidates", st.candidates as f64);
    report.set(
        "core.kept_ratio",
        st.kept as f64 / st.candidates.max(1) as f64,
    );
    report.set("core.edges_admitted", st.edges_admitted as f64);
    report.set(
        "kg.freeze_edges_per_s",
        freeze.stats.raw_edges as f64 / st.freeze_s.max(1e-9),
    );
    report.set("kg.spill_runs", freeze.stats.spill_runs as f64);
    report.set(
        "kg.file_mb",
        freeze.stats.file_bytes as f64 / (1024.0 * 1024.0),
    );
}

/// Shard generation alone, without the writer: the `synth` share of a
/// streaming freeze.
pub fn shards(report: &mut Report, seed: u64) {
    let cfg = cosmo_synth::ScaleConfig::mid(seed);
    let t = Instant::now();
    for shard in 0..cfg.num_shards() {
        black_box(cosmo_synth::generate_shard(&cfg, shard));
    }
    report.set("synth.shards_s", t.elapsed().as_secs_f64());
}

/// In-process stage medians of one `POST /v1/serve-intents`, and the
/// client's p50 over one closed-loop connection; prints the
/// reconciliation of the two.
pub fn request_path(report: &mut Report, s: &Serving) {
    let hits = &s.preload;
    let bodies: Vec<String> = hits
        .iter()
        .map(|q| ServeRequest::new(q.clone()).to_json())
        .collect();
    let messages: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| http_request("/v1/serve-intents", b))
        .collect();
    let cfg = ServerConfig::default();
    let n = messages.len();
    let rounds = 7;
    let calls = 2000;

    let parse_us = per_call_us(rounds, calls, |i| {
        let mut reader = Cursor::new(&messages[i % n]);
        black_box(read_request(&mut reader, cfg.max_header_bytes, cfg.max_body_bytes).ok());
    });
    let requests: Vec<_> = messages
        .iter()
        .map(|m| {
            read_request(
                &mut Cursor::new(m),
                cfg.max_header_bytes,
                cfg.max_body_bytes,
            )
            .expect("the benchmark's own request parses")
        })
        .collect();
    let router = Router::new(Arc::clone(&s.system));
    let route_us = per_call_us(rounds, calls, |i| {
        black_box(router.route(&requests[i % n]));
    });
    let responses: Vec<_> = requests.iter().take(64).map(|r| router.route(r)).collect();
    let mut sink = Vec::with_capacity(4096);
    let write_us = per_call_us(rounds, calls, |i| {
        sink.clear();
        black_box(write_response(&mut sink, &responses[i % responses.len()], true).is_ok());
    });
    let decode_us = per_call_us(rounds, calls, |i| {
        black_box(ServeRequest::from_json(&bodies[i % n]).ok());
    });
    let decoded: Vec<ServeRequest> = bodies
        .iter()
        .map(|b| ServeRequest::from_json(b).expect("the benchmark's own body decodes"))
        .collect();
    let lookup_us = per_call_us(rounds, calls, |i| {
        black_box(s.system.serve(&decoded[i % n]));
    });
    let served: Vec<_> = decoded
        .iter()
        .take(64)
        .map(|r| s.system.handle(r))
        .collect();
    let encode_us = per_call_us(rounds, calls, |i| {
        black_box(served[i % served.len()].to_json());
    });

    let client = closed_loop(s.server.addr(), 1, &bodies, Duration::from_millis(1500));
    let in_process = parse_us + route_us + write_us;
    let transport_us = client.p50_us - in_process;
    report.set("http.parse_us", parse_us);
    report.set("http.route_us", route_us);
    report.set("http.write_us", write_us);
    report.set("http.transport_us", transport_us);
    report.set("serving.decode_us", decode_us);
    report.set("serving.lookup_us", lookup_us);
    report.set("serving.encode_us", encode_us);
    println!(
        "reconcile: client p50 {:.2} us (closed loop, 1 connection) = in-process {:.2} us \
         [parse {parse_us:.2} + route {route_us:.2} (decode {decode_us:.2} + lookup \
         {lookup_us:.2} + encode {encode_us:.2} + rest {:.2}) + write {write_us:.2}] \
         + transport residual {transport_us:.2} us",
        client.p50_us,
        in_process,
        route_us - decode_us - lookup_us - encode_us,
    );
}

/// Graph, model, navigation and swap costs on the served snapshot.
/// `misses` are queries the cache does not hold; `cold` are those the
/// graph does not hold either.
pub fn layers(
    report: &mut Report,
    s: &Serving,
    misses: &[String],
    cold: &[String],
    swap_to: &std::path::Path,
) {
    let view = s.system.kg_view();
    let n = misses.len();
    report.set(
        "kg.intents_us",
        per_call_us(7, 2000, |i| {
            if let Some(node) = view.find_node(NodeKind::Query, &misses[i % n]) {
                black_box(view.top_intents(node, 5));
            }
        }),
    );
    report.set(
        "kg.open_verified_ms",
        per_run_ms(3, || {
            black_box(KgSnapshotView::open_verified(&s.file).expect("served file verifies"));
        }),
    );
    let t = Instant::now();
    let nav = NavigationEngine::new(Arc::clone(&view));
    report.set("nav.build_ms", t.elapsed().as_secs_f64() * 1e3);
    let hits = &s.preload;
    report.set(
        "nav.interpret_us",
        per_call_us(5, 500, |i| {
            black_box(nav.interpret(&hits[i % hits.len()], 5));
        }),
    );
    let batch: Vec<&str> = misses.iter().take(BATCH).map(String::as_str).collect();
    let cold_batch: Vec<&str> = cold.iter().take(BATCH).map(String::as_str).collect();
    report.set(
        "lm.generate_batch_ms",
        per_run_ms(3, || {
            black_box(s.lm.generate_batch(&cold_batch, None, 5));
        }),
    );
    report.set(
        "lm.embed_batch_ms",
        per_run_ms(3, || {
            black_box(s.lm.embed_batch(&batch));
        }),
    );
    report.set(
        "serving.features_batch_ms",
        per_run_ms(3, || {
            black_box(compute_features_batch(&batch, &*view, &s.lm));
        }),
    );
    drop(nav);
    drop(view);
    report.set(
        "serving.swap_ms",
        per_run_ms(2, || {
            let next = KgSnapshotView::open(swap_to).expect("open the swap target");
            black_box(s.system.swap_snapshot(next));
        }),
    );
}

/// One batch cycle over `BATCH` fresh misses, for workloads that run no
/// batch driver of their own: time from enqueue to cycle start, the
/// cycle, and how full it was.
pub fn batch_cycle(report: &mut Report, system: &ServingSystem, misses: &[String]) {
    let t0 = Instant::now();
    for q in misses.iter().take(BATCH) {
        system.serve(&ServeRequest::new(q.clone()));
    }
    let t1 = Instant::now();
    let queries = system.run_batch_cycle().unwrap_or(0);
    let t2 = Instant::now();
    report.set("serving.batch_wait_ms", (t1 - t0).as_secs_f64() * 1e3 / 2.0);
    report.set("serving.batch_cycle_ms", (t2 - t1).as_secs_f64() * 1e3);
    report.set("serving.batch_queries", queries as f64);
    report.set(
        "serving.batch_fill",
        queries as f64 / system.config().batch_size as f64,
    );
}
