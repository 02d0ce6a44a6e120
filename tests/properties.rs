//! Property-based invariants across the workspace: KG index consistency,
//! n-gram probability normalisation, canonicalisation idempotence, metric
//! bounds, cache coherence.

use cosmo::kg::{
    BehaviorKind, Edge, GraphView, KgSnapshotView, KnowledgeGraph, NodeKind, Relation, Verify,
};
use cosmo::text;
use proptest::prelude::*;

/// Build a graph from proptest-generated edge tuples
/// `(head text, relation index, tail text, is_cobuy, category)`.
fn graph_from(edges: &[(String, usize, String, bool, u8)]) -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    for (i, (head_text, rel_idx, tail_text, is_cobuy, cat)) in edges.iter().enumerate() {
        let head = kg.intern_node(NodeKind::Product, head_text);
        let tail = kg.intern_node(NodeKind::Intention, tail_text);
        kg.add_edge(Edge {
            head,
            relation: Relation::from_index(*rel_idx).unwrap(),
            tail,
            behavior: if *is_cobuy {
                BehaviorKind::CoBuy
            } else {
                BehaviorKind::SearchBuy
            },
            category: *cat,
            plausibility: 0.5 + (i % 5) as f32 / 10.0,
            typicality: (i % 7) as f32 / 7.0,
            support: 1 + (i as u32 % 4),
        });
    }
    kg
}

fn word() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "camping", "tent", "dog", "leash", "warm", "winter", "walking", "the", "holding", "snacks",
        "used", "for", "keeping", "mattress", "air",
    ])
    .prop_map(|s| s.to_string())
}

fn phrase() -> impl Strategy<Value = String> {
    prop::collection::vec(word(), 1..5).prop_map(|w| w.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonicalize_tail_is_idempotent(raw in phrase()) {
        let once = text::canonicalize_tail(&raw);
        let twice = text::canonicalize_tail(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn tokenize_roundtrip_is_stable(raw in "[a-z0-9 ,.!-]{0,60}") {
        // tokenizing the detokenised form must be a fixed point
        let t1 = text::tokenize(&raw);
        let joined = t1.join(" ");
        let t2 = text::tokenize(&joined);
        prop_assert_eq!(t1, t2);
    }

    #[test]
    fn edit_distance_triangle_inequality(
        a in "[a-z]{0,10}", b in "[a-z]{0,10}", c in "[a-z]{0,10}",
    ) {
        let ab = text::edit_distance(&a, &b);
        let bc = text::edit_distance(&b, &c);
        let ac = text::edit_distance(&a, &c);
        prop_assert!(ac <= ab + bc, "d(a,c)={ac} > d(a,b)+d(b,c)={}", ab + bc);
        prop_assert_eq!(text::edit_distance(&a, &b), text::edit_distance(&b, &a));
    }

    #[test]
    fn ngram_next_token_distribution_normalises(
        sentences in prop::collection::vec(phrase(), 3..10),
        history in prop::collection::vec(word(), 0..3),
    ) {
        let (vocab, lm) = text::ngram::train_lm(&sentences, 3);
        let hist_ids: Vec<u32> = history.iter().map(|w| vocab.get(w)).collect();
        let mut sum = 0.0;
        for id in 0..vocab.len() as u32 {
            let p = lm.prob(&hist_ids, id);
            prop_assert!(p > 0.0 && p <= 1.0, "p={p}");
            sum += p;
        }
        prop_assert!((sum - 1.0).abs() < 0.12, "sum={sum}");
    }

    #[test]
    fn kg_indexes_stay_consistent(
        edges in prop::collection::vec(
            (phrase(), 0usize..15, phrase(), prop::bool::ANY, 0u8..18),
            1..40,
        ),
    ) {
        let kg = graph_from(&edges);
        // 1. out-degree sum equals in-degree sum equals edge count
        let out_sum: usize = kg.nodes().map(|(id, _, _)| kg.out_degree(id)).sum();
        let in_sum: usize = kg.nodes().map(|(id, _, _)| kg.in_degree(id)).sum();
        prop_assert_eq!(out_sum, kg.num_edges());
        prop_assert_eq!(in_sum, kg.num_edges());
        // 2. every edge reachable via its head's adjacency
        for (_, e) in kg.edges() {
            prop_assert!(kg.tails_of(e.head).any(|e2| e2.tail == e.tail && e2.relation == e.relation));
        }
    }

    /// Every answer from the frozen snapshot equals the mutable store's
    /// own `GraphView` answer — an independent implementation — in the
    /// same order, bit for bit, for every node and every relation.
    #[test]
    fn snapshot_answers_match_store(
        edges in prop::collection::vec(
            (phrase(), 0usize..15, phrase(), prop::bool::ANY, 0u8..18),
            1..40,
        ),
    ) {
        let kg = graph_from(&edges);
        let snap = kg.freeze();
        prop_assert_eq!(GraphView::num_nodes(&snap), kg.num_nodes());
        prop_assert_eq!(GraphView::num_edges(&snap), kg.num_edges());
        for (id, kind, text) in kg.nodes() {
            prop_assert_eq!(GraphView::node_kind(&snap, id), kind);
            prop_assert_eq!(GraphView::node_text(&snap, id), text);
            prop_assert_eq!(GraphView::find_node(&snap, kind, text), Some(id));
            prop_assert_eq!(GraphView::out_degree(&snap, id), kg.out_degree(id));
            prop_assert_eq!(GraphView::in_degree(&snap, id), kg.in_degree(id));
            prop_assert_eq!(
                GraphView::tails_of(&snap, id).collect::<Vec<_>>(),
                GraphView::tails_of(&kg, id).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                GraphView::heads_of(&snap, id).collect::<Vec<_>>(),
                GraphView::heads_of(&kg, id).collect::<Vec<_>>()
            );
            for &rel in &Relation::ALL {
                prop_assert_eq!(
                    GraphView::tails_of_rel(&snap, id, rel).collect::<Vec<_>>(),
                    GraphView::tails_of_rel(&kg, id, rel).collect::<Vec<_>>()
                );
            }
            for k in [1, 3, 50] {
                prop_assert_eq!(
                    GraphView::top_intents(&snap, id, k),
                    GraphView::top_intents(&kg, id, k)
                );
            }
        }
    }

    /// Freeze → reopen under full verification is lossless and
    /// byte-stable: the reopened snapshot holds exactly the frozen bytes,
    /// and freezing again reproduces them.
    #[test]
    fn snapshot_binary_roundtrip_byte_stable(
        edges in prop::collection::vec(
            (phrase(), 0usize..15, phrase(), prop::bool::ANY, 0u8..18),
            0..40,
        ),
    ) {
        let kg = graph_from(&edges);
        let snap = kg.freeze();
        let bytes = snap.as_bytes().to_vec();
        let reloaded = KgSnapshotView::from_bytes(bytes.clone(), Verify::Full).unwrap();
        prop_assert_eq!(reloaded.as_bytes(), &bytes[..]);
        prop_assert_eq!(kg.freeze().as_bytes(), &bytes[..]);
    }

    #[test]
    fn rank_metrics_are_bounded_and_ordered(
        scores in prop::collection::vec(-10.0f32..10.0, 2..30),
        target_seed in 0usize..1000,
    ) {
        let target = target_seed % scores.len();
        let mut m = cosmo::sessrec::RankMetrics::default();
        m.record(&scores, target, 10);
        prop_assert!(m.hits() >= 0.0 && m.hits() <= 100.0);
        prop_assert!(m.ndcg() <= m.hits() + 1e-9, "NDCG {} > Hits {}", m.ndcg(), m.hits());
        prop_assert!(m.mrr() <= m.hits() + 1e-9);
    }

    #[test]
    fn confusion_micro_macro_bounds(
        pairs in prop::collection::vec((0usize..4, 0usize..4), 1..60),
    ) {
        let mut c = cosmo::relevance::Confusion::new(4);
        for (t, p) in &pairs {
            c.record(*t, *p);
        }
        prop_assert!(c.micro_f1() >= 0.0 && c.micro_f1() <= 1.0);
        prop_assert!(c.macro_f1() >= 0.0 && c.macro_f1() <= 1.0);
        prop_assert_eq!(c.total() as usize, pairs.len());
    }

    #[test]
    fn embedder_similarity_is_symmetric_and_bounded(a in phrase(), b in phrase()) {
        let corpus: Vec<String> = vec![a.clone(), b.clone(), "used for camping".into()];
        let e = text::HashedEmbedder::fit(&corpus, 64);
        let s1 = e.similarity(&a, &b);
        let s2 = e.similarity(&b, &a);
        prop_assert!((s1 - s2).abs() < 1e-6);
        prop_assert!((-1.0001..=1.0001).contains(&s1), "s={s1}");
        prop_assert!(e.similarity(&a, &a) > 0.999 || a.trim().is_empty());
    }
}

#[test]
fn cache_coherent_under_concurrent_mixed_ops() {
    use cosmo::serving::{CacheStore, ServingConfig, StructuredFeatures};
    use std::sync::Arc;
    let cache = Arc::new(CacheStore::new(
        vec![],
        &ServingConfig {
            l2_capacity: 256,
            ..ServingConfig::default()
        },
    ));
    let mut handles = Vec::new();
    for t in 0..4 {
        let c = cache.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..300 {
                let q = format!("q{}", (t * 31 + i) % 50);
                if c.get(&q).is_none() {
                    let drained = c.drain_pending(4);
                    let feats = drained
                        .into_iter()
                        .map(|query| {
                            Arc::new(StructuredFeatures {
                                query,
                                intents: vec![],
                                subcategory: vec![0.0; 4],
                                strong_intent: None,
                            })
                        })
                        .collect();
                    c.install(feats);
                }
                if i % 97 == 0 {
                    c.daily_refresh();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // every installed entry is retrievable and consistent
    for i in 0..50 {
        let q = format!("q{i}");
        if let Some((f, _)) = cache.get(&q) {
            assert_eq!(f.query, q);
        }
    }
}
