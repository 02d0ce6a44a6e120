//! The Figure 5 feedback loop end-to-end: serve traffic, record the
//! interactions the cache missed, and run an incremental offline refresh
//! that makes those queries servable — without rebuilding the pipeline.
//!
//! ```text
//! cargo run --release --example incremental_refresh
//! ```

use cosmo::core::{apply_feedback, run, PipelineConfig};
use cosmo::kg::NodeKind;
use cosmo::lm::{build_instructions, tail_vocab_from_pipeline, CosmoLm, StudentConfig};
use cosmo::serving::{ServeRequest, ServingSystem};
use std::sync::Arc;

fn main() {
    let cfg = PipelineConfig::tiny(0xDA11);
    let mut out = run(cfg.clone());
    println!(
        "day 0: KG has {} edges, {} nodes",
        out.kg.num_edges(),
        out.kg.num_nodes()
    );

    // Stand up serving over the day-0 KG.
    let instructions = build_instructions(&out.world, &out.filtered, &out.annotation, 1);
    let mut student = CosmoLm::new(
        StudentConfig {
            epochs: 4,
            ..StudentConfig::default()
        },
        tail_vocab_from_pipeline(&out),
    );
    student.train(&instructions);
    let system = ServingSystem::builder()
        .view(out.kg.freeze())
        .lm(Arc::new(student))
        .build()
        .expect("default serving config is valid");

    // A day of traffic that includes queries the KG has never seen. Each
    // request that leads to a purchase is recorded through the feedback
    // loop (we simulate the purchase as the query's top target product).
    let mut served_cold = 0;
    for q in out.world.queries.iter().take(400) {
        system.serve(&ServeRequest::new(q.text.clone()));
        if out.kg.find_node(NodeKind::Query, &q.text).is_none() && !q.target_types.is_empty() {
            served_cold += 1;
            let p = out.world.products_of_type(q.target_types[0])[0];
            system.record_feedback(&q.text, &out.world.product(p).title);
        }
    }
    system.run_batch_cycle().expect("batch workers healthy");
    let ops = system.ops();
    println!(
        "day 1 traffic: hit rate {:.0}%, {} cold queries fed back, L2 holds {} entries",
        ops.hit_rate * 100.0,
        served_cold,
        ops.l2_size
    );

    // Nightly refresh: consume the feedback into the offline pipeline.
    let feedback = system.drain_feedback();
    let update = apply_feedback(&mut out, &cfg, &feedback, /*day=*/ 1);
    println!(
        "refresh: {} pairs resolved → {} candidates → {} kept → {} new edges",
        update.resolved_pairs, update.candidates, update.kept, update.edges
    );
    println!(
        "day 1: KG has {} edges; {}/{} fed-back queries now servable",
        out.kg.num_edges(),
        feedback
            .iter()
            .filter(|(q, _)| out.kg.find_node(NodeKind::Query, q).is_some())
            .count(),
        feedback.len()
    );
}
