//! Online serving (Figure 5): stand up the feature store + two-layer
//! asynchronous cache over a frozen KG snapshot and drive it through the
//! typed request API — the same `ServeRequest → ServeResponse` pair the
//! HTTP front end speaks on the wire.
//!
//! ```text
//! cargo run --release --example serve_intents
//! ```

use cosmo::core::{run, PipelineConfig};
use cosmo::lm::{build_instructions, tail_vocab_from_pipeline, CosmoLm, StudentConfig};
use cosmo::serving::{ServeRequest, ServeStatus, ServingSystem};
use std::sync::Arc;

fn main() {
    // Offline: pipeline + student.
    let out = run(PipelineConfig::tiny(99));
    let instructions = build_instructions(&out.world, &out.filtered, &out.annotation, 100);
    let mut student = CosmoLm::new(StudentConfig::default(), tail_vocab_from_pipeline(&out));
    student.train(&instructions);

    // Online: pre-load the "yearly frequent" cache layer with the world's
    // most engaged queries, exactly like the deployment strategy of §3.5.
    let mut hot: Vec<_> = out.world.queries.iter().collect();
    hot.sort_by(|a, b| {
        b.engagement
            .total_cmp(&a.engagement)
            .then(a.text.cmp(&b.text))
    });
    let preload: Vec<String> = hot.iter().take(50).map(|q| q.text.clone()).collect();
    let system = ServingSystem::builder()
        .view(out.kg.freeze())
        .lm(Arc::new(student))
        .preload(preload.clone())
        .build()
        .expect("default serving config is valid");

    // Typed request path: hot query → L1 hit with rendered intents.
    let req = ServeRequest {
        query: preload[0].clone(),
        top_k: 3,
    };
    let served = system.serve(&req);
    let resp = &served.response;
    println!(
        "request \"{}\" → {} from {:?} in {}µs",
        req.query,
        resp.status.as_str(),
        resp.layer,
        served.latency_us
    );
    for item in &resp.intents {
        println!(
            "  intent [{}] {} ({:.2})",
            item.relation, item.tail, item.score
        );
    }
    if let Some(strong) = &resp.strong_intent {
        println!("  strong intent: {strong}");
    }
    println!("  wire body: {}", resp.to_json());

    // Cold query → asynchronous miss, then batch processing, then L2 hit.
    let cold = ServeRequest::new("glow in the dark dog harness");
    let miss = system.handle(&cold);
    assert_eq!(miss.status, ServeStatus::Enqueued);
    println!(
        "\nrequest \"{}\" → {} (forwarded to batch)",
        cold.query,
        miss.status.as_str()
    );
    let processed = system.run_batch_cycle().expect("batch workers healthy");
    println!("batch cycle processed {processed} pending queries");
    let hit = system.handle(&cold);
    println!(
        "request \"{}\" again → {} from {:?}",
        cold.query,
        hit.status.as_str(),
        hit.layer
    );

    // Daily refresh: hot L2 entries promote into L1, model version bumps.
    let promoted = system.daily_refresh();
    println!(
        "\ndaily refresh: promoted {promoted} entries to L1, model now v{}",
        system.model_version()
    );

    // Feedback loop: record an interaction for the next offline run.
    system.record_feedback(&cold.query, "acme glow dog harness");
    println!(
        "feedback recorded: {} events queued",
        system.drain_feedback().len()
    );

    // The versioned ops schema a dashboard would scrape (also served as
    // JSON at `GET /ops/stats` by the HTTP front end).
    let ops = system.ops();
    println!(
        "\nops: {}\ncache hit rate {:.0}%, p99 latency {}µs",
        ops.render(),
        ops.hit_rate * 100.0,
        ops.p99_us
    );
}
