//! Cross-crate integration: the full COSMO loop — offline pipeline →
//! instruction tuning → online serving → navigation — on one shared
//! tiny-scale run.

use cosmo::core::{run, PipelineConfig, PipelineOutput};
use cosmo::kg::{BehaviorKind, GraphView, KgSnapshotView, NodeKind};
use cosmo::lm::{build_instructions, tail_vocab_from_pipeline, CosmoLm, StudentConfig};
use cosmo::nav::{NavSession, NavigationEngine};
use cosmo::serving::{ServeRequest, ServingConfig, ServingSystem};
use std::sync::{Arc, OnceLock};

fn pipeline() -> &'static PipelineOutput {
    static OUT: OnceLock<PipelineOutput> = OnceLock::new();
    OUT.get_or_init(|| run(PipelineConfig::tiny(0xE2E)))
}

#[test]
fn pipeline_builds_a_multirelation_graph() {
    let out = pipeline();
    assert!(out.kg.num_nodes() > 100);
    assert!(out.kg.num_edges() > 200);
    assert!(
        out.kg.num_relations() >= 10,
        "relations: {}",
        out.kg.num_relations()
    );
    // both behaviour types contribute edges
    let (_, _, cb) = out.stats.totals(BehaviorKind::CoBuy);
    let (_, _, sb) = out.stats.totals(BehaviorKind::SearchBuy);
    assert!(cb > 0 && sb > 0);
}

#[test]
fn pipeline_is_deterministic_per_seed() {
    let a = run(PipelineConfig::tiny(123));
    let b = run(PipelineConfig::tiny(123));
    assert_eq!(a.kg.num_nodes(), b.kg.num_nodes());
    assert_eq!(a.kg.num_edges(), b.kg.num_edges());
    assert_eq!(a.report.candidates, b.report.candidates);
    assert_eq!(a.report.kept_after_filter, b.report.kept_after_filter);
}

#[test]
fn student_trains_from_pipeline_annotations() {
    let out = pipeline();
    let instructions = build_instructions(&out.world, &out.filtered, &out.annotation, 1);
    assert!(instructions.len() > 100);
    let mut student = CosmoLm::new(
        StudentConfig {
            epochs: 4,
            ..StudentConfig::default()
        },
        tail_vocab_from_pipeline(out),
    );
    let report = student.train(&instructions);
    assert!(report.n_generate > 0 && report.n_predict > 0);
    // the student produces non-empty generations for arbitrary queries
    let gens = student.generate("search query: camping gear for the lake", None, 3);
    assert_eq!(gens.len(), 3);
    assert!(gens.iter().all(|(t, _)| !t.is_empty()));
}

#[test]
fn serving_round_trip_over_pipeline_kg() {
    let out = pipeline();
    let instructions = build_instructions(&out.world, &out.filtered, &out.annotation, 2);
    let mut student = CosmoLm::new(
        StudentConfig {
            epochs: 2,
            ..StudentConfig::default()
        },
        tail_vocab_from_pipeline(out),
    );
    student.train(&instructions);
    // preload the queries that actually appear in the KG
    let preload: Vec<String> = out
        .kg
        .nodes()
        .filter(|&(_, kind, _)| kind == NodeKind::Query)
        .take(20)
        .map(|(_, _, text)| text.to_string())
        .collect();
    assert!(!preload.is_empty());
    let system = ServingSystem::builder()
        .view(out.kg.freeze())
        .lm(Arc::new(student))
        .preload(preload.clone())
        .config(ServingConfig {
            workers: 2,
            ..Default::default()
        })
        .build()
        .expect("serving config is valid");
    // hot path
    let r = system.serve(&ServeRequest::new(preload[0].clone()));
    let features = r.features.expect("preloaded query must hit");
    assert!(!features.intents.is_empty());
    // cold path: async miss → batch → hit
    let novel = ServeRequest::new("entirely novel query");
    assert!(system.serve(&novel).features.is_none());
    assert_eq!(system.run_batch_cycle().expect("healthy workers"), 1);
    assert!(system.serve(&novel).features.is_some());
}

#[test]
fn navigation_runs_over_pipeline_kg() {
    let out = pipeline();
    let engine = NavigationEngine::new(out.kg.clone());
    let mut navigable = 0;
    for q in out.world.queries.iter().take(400) {
        let (session, suggestions) = NavSession::start(&engine, &q.text, 5);
        if !suggestions.is_empty() && !session.candidates.is_empty() {
            navigable += 1;
        }
    }
    assert!(navigable > 10, "only {navigable} navigable queries");
}

#[test]
fn kg_snapshot_survives_serialisation() {
    let out = pipeline();
    let path = std::env::temp_dir().join(format!("cosmo_e2e_kg_{}.kg2", std::process::id()));
    std::fs::write(&path, out.kg.freeze().as_bytes()).unwrap();
    let opened = KgSnapshotView::open_verified(&path);
    std::fs::remove_file(&path).ok();
    let snap = opened.expect("frozen pipeline KG reopens verified");
    assert_eq!(GraphView::num_nodes(&snap), out.kg.num_nodes());
    assert_eq!(GraphView::num_edges(&snap), out.kg.num_edges());
    // the reopened file ranks a query's intents exactly as the store does
    let (q, _, _) = out
        .kg
        .nodes()
        .find(|&(id, kind, _)| kind == NodeKind::Query && out.kg.out_degree(id) > 0)
        .unwrap();
    let expected = out.kg.top_intents(q, 3);
    assert!(!expected.is_empty());
    assert_eq!(GraphView::top_intents(&snap, q, 3), expected);
}
