//! Quickstart: run the full COSMO pipeline end-to-end at test scale and
//! inspect what it produced.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cosmo::core::{run, PipelineConfig};
use cosmo::kg::NodeKind;
use cosmo::lm::{tail_vocab_from_pipeline, CosmoLm, StudentConfig};
use cosmo::serving::{ServeRequest, ServingSystem};
use std::sync::Arc;

fn main() {
    // The whole offline system — synthetic world, behaviour logs, teacher
    // LLM generation, coarse filtering, simulated human annotation, critic
    // training, knowledge-graph construction — in one call.
    let out = run(PipelineConfig::tiny(42));

    println!("== pipeline funnel ==");
    println!(
        "sampled behaviour pairs: {} co-buy + {} search-buy",
        out.report.sampling.cobuy_selected, out.report.sampling.searchbuy_selected
    );
    println!("teacher candidates:      {}", out.report.candidates);
    println!("after coarse filtering:  {}", out.report.kept_after_filter);
    println!("annotated:               {}", out.report.annotations);
    println!(
        "critic: plausibility acc {:.1}%, AUC {:.3}",
        out.report.critic.plausible_accuracy * 100.0,
        out.report.critic.plausible_auc
    );
    println!("edges admitted to KG:    {}", out.report.edges_admitted);

    println!("\n== knowledge graph ==");
    println!(
        "{} nodes, {} edges, {} relation types",
        out.kg.num_nodes(),
        out.kg.num_edges(),
        out.kg.num_relations()
    );

    // Look up the intentions COSMO mined for one query.
    let query = out
        .kg
        .nodes()
        .find(|&(_, kind, _)| kind == NodeKind::Query)
        .map(|(id, _, text)| (id, text.to_string()))
        .expect("the KG contains query nodes");
    println!("\n== intentions for query \"{}\" ==", query.1);
    for edge in out.kg.top_intents(query.0, 5) {
        println!(
            "  [{}] {} (typicality {:.2}, support {})",
            edge.relation.name(),
            out.kg.node_text(edge.tail),
            edge.typicality,
            edge.support
        );
    }

    // Serve the same query through the typed request API, over the frozen
    // CSR snapshot production uses (the HTTP front end serialises exactly
    // this response body — see `examples/serve_http.rs`).
    println!("\n== typed serving ==");
    let lm = Arc::new(CosmoLm::new(
        StudentConfig::default(),
        tail_vocab_from_pipeline(&out),
    ));
    let system = ServingSystem::builder()
        .view(out.kg.freeze())
        .lm(lm)
        .preload([query.1.clone()])
        .build()
        .expect("default serving config is valid");
    let response = system.handle(&ServeRequest::new(&query.1));
    println!("wire body: {}", response.to_json());
}
