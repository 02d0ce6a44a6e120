//! Build a knowledge graph step by step — running each pipeline stage
//! manually instead of through `cosmo::core::run`, and saving the result
//! as a verified v2 snapshot file.
//!
//! ```text
//! cargo run --release --example build_kg -- /tmp/cosmo_kg.kg2
//! ```

use cosmo::core::{
    annotate, sample_behaviors, AnnotationConfig, CoarseFilter, FilterConfig, SamplingConfig,
};
use cosmo::synth::{corpus, BehaviorConfig, BehaviorLog, SpecificityService, World, WorldConfig};
use cosmo::teacher::{Teacher, TeacherConfig};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/cosmo_kg.kg2".to_string());

    // 1. A synthetic e-commerce world with ground-truth intent profiles.
    let world = World::generate(WorldConfig::tiny(7));
    println!(
        "world: {} product types, {} products, {} queries, {} intents",
        world.product_types.len(),
        world.products.len(),
        world.queries.len(),
        world.intents.len()
    );

    // 2. One day of behaviour logs.
    let log = BehaviorLog::generate(&world, &BehaviorConfig::tiny(8));
    println!(
        "log: {} search-buys ({} distinct pairs), {} co-buys ({} distinct)",
        log.search_buys.len(),
        log.distinct_searchbuy_pairs(),
        log.cobuys.len(),
        log.distinct_cobuy_pairs()
    );

    // 3. Fine-grained behaviour sampling (§3.2.1).
    let specificity = SpecificityService::new(9, 0.05);
    let sampled = sample_behaviors(&world, &log, &specificity, &SamplingConfig::default());
    println!(
        "sampled: {} co-buy pairs, {} search-buy pairs ({} broad)",
        sampled.cobuys.len(),
        sampled.search_buys.len(),
        sampled.report.broad_selected
    );

    // 4. QA-prompted teacher generation (§3.2.2).
    let mut teacher = Teacher::new(&world, TeacherConfig::default());
    let mut candidates = Vec::new();
    for &(q, p) in sampled.search_buys.iter().take(600) {
        candidates.push(teacher.generate_search_buy(q, p));
    }
    for &(p1, p2) in sampled.cobuys.iter().take(600) {
        candidates.push(teacher.generate_cobuy(p1, p2));
    }
    println!(
        "teacher: {} candidates, simulated cost {:.2e} FLOPs",
        candidates.len(),
        teacher.meter.total_flops()
    );

    // 5. Coarse filtering (§3.3.1).
    let filter = CoarseFilter::fit(&corpus(&world), FilterConfig::default());
    let filtered = filter.filter(&world, candidates);
    let kept = filtered.iter().filter(|f| f.decision.kept()).count();
    println!("filter: kept {kept}/{} candidates", filtered.len());

    // 6. Simulated human annotation (§3.3.2).
    let annotation = annotate(
        &world,
        &log,
        &filtered,
        &AnnotationConfig {
            budget_per_behavior: 150,
            ..AnnotationConfig::default()
        },
    );
    println!(
        "annotation: {} labels, audit accuracy {:.1}%",
        annotation.annotations.len(),
        annotation.audit_accuracy * 100.0
    );

    // 7. Build the KG directly from high-typicality annotations.
    let mut kg = cosmo::kg::KnowledgeGraph::new();
    for a in &annotation.annotations {
        if a.answers.typical != cosmo::core::Ans::Yes {
            continue;
        }
        let f = &filtered[a.candidate_idx];
        let Some(parsed) = &f.parsed else { continue };
        let tail = kg.intern_node(cosmo::kg::NodeKind::Intention, &parsed.tail);
        let head = match f.candidate.behavior {
            cosmo::teacher::BehaviorRef::SearchBuy(q, _) => {
                kg.intern_node(cosmo::kg::NodeKind::Query, &world.query(q).text)
            }
            cosmo::teacher::BehaviorRef::CoBuy(p1, _) => {
                kg.intern_node(cosmo::kg::NodeKind::Product, &world.product(p1).title)
            }
        };
        kg.add_edge(cosmo::kg::Edge {
            head,
            relation: f.candidate.relation,
            tail,
            behavior: f.candidate.behavior.kind(),
            category: f.candidate.domain.0,
            plausibility: 1.0,
            typicality: 1.0,
            support: 1,
        });
    }
    println!("kg: {} nodes, {} edges", kg.num_nodes(), kg.num_edges());

    // 8. Freeze to a v2 snapshot file and reopen it fully verified.
    std::fs::write(&path, kg.freeze().as_bytes()).expect("write snapshot");
    let reloaded = cosmo::kg::KgSnapshotView::open_verified(std::path::Path::new(&path))
        .expect("open snapshot");
    println!(
        "snapshot round-trip ok: {} ({} bytes)",
        path,
        std::fs::metadata(&path).unwrap().len()
    );
    assert_eq!(cosmo::kg::GraphView::num_edges(&reloaded), kg.num_edges());
}
