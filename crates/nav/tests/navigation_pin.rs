//! Pinned navigation answers over a pipeline-produced KG.
//!
//! `run(PipelineConfig::tiny(141))` builds a KG; the engine over it (and
//! over its frozen snapshot) answers every world query, every intention
//! text's refinements and every suggested label's products. Those answers
//! and the hierarchy's size, root count and depth are folded into one
//! 64-bit FNV-1a digest, which must equal the pinned constant. A changed
//! digest means navigation answers changed. Run with `--nocapture` to
//! print the observed digest and shape.

use cosmo_core::{run, PipelineConfig};
use cosmo_kg::{BehaviorKind, Edge, GraphView, KnowledgeGraph, NodeId, NodeKind, Relation};
use cosmo_nav::{NavSession, NavigationEngine, Suggestion};
use std::collections::{BTreeMap, BTreeSet};

/// Expected digest of [`navigation_digest`] over `tiny(141)`; the same
/// with and without the `fast-math` kernel tier.
const NAV_PIN: u64 = 0x9f86_7cdf_6cb2_8b49;

/// Expected `(len, roots, depth)` of the hierarchy over `tiny(141)`.
const SHAPE_PIN: (usize, usize, usize) = (494, 23, 2);

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Fold a length-prefixed string, so adjacent strings cannot alias.
fn fnv_str(h: &mut u64, s: &str) {
    fnv(h, &(s.len() as u64).to_le_bytes());
    fnv(h, s.as_bytes());
}

fn fnv_suggestions(h: &mut u64, suggestions: &[Suggestion]) {
    fnv(h, &(suggestions.len() as u64).to_le_bytes());
    for s in suggestions {
        let tag: u8 = if matches!(s, Suggestion::Intent(_)) {
            1
        } else if matches!(s, Suggestion::Attribute(_)) {
            3
        } else {
            2
        };
        fnv(h, &[tag]);
        fnv_str(h, s.label());
    }
}

fn fnv_products(h: &mut u64, products: &[(NodeId, String)]) {
    fnv(h, &(products.len() as u64).to_le_bytes());
    for (id, title) in products {
        fnv(h, &id.0.to_le_bytes());
        fnv_str(h, title);
    }
}

/// Digest every navigation answer of `engine`, and return it with the
/// hierarchy's `(len, roots, depth)`. The root count is derived from the
/// refinement walk: an intention with refinements that is no other
/// intention's refinement.
fn navigation_digest<G: GraphView>(
    engine: &NavigationEngine<G>,
    queries: &[&str],
) -> (u64, (usize, usize, usize)) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut labels: BTreeSet<String> = BTreeSet::new();
    for q in queries {
        fnv_str(&mut h, q);
        let suggestions = engine.interpret(q, 5);
        fnv_suggestions(&mut h, &suggestions);
        labels.extend(suggestions.iter().map(|s| s.label().to_string()));
    }

    let kg = engine.kg();
    let intents: Vec<&str> = (0..kg.num_nodes() as u32)
        .map(NodeId)
        .filter(|&id| kg.node_kind(id) == NodeKind::Intention)
        .map(|id| kg.node_text(id))
        .collect();
    // Every refinement of every intention, through one session turn with
    // `k` above any node's child count; its candidates are that intent's
    // products.
    let mut children: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for &text in &intents {
        let (mut session, _) = NavSession::start(engine, "", 64);
        let next = session.select(&Suggestion::Intent(text.to_string()), 64);
        fnv_str(&mut h, text);
        fnv_suggestions(&mut h, &next);
        fnv_products(&mut h, &session.candidates);
        let refinements: Vec<String> = next
            .iter()
            .filter(|s| matches!(s, Suggestion::Intent(_)))
            .map(|s| s.label().to_string())
            .collect();
        labels.extend(refinements.iter().cloned());
        children.insert(text, refinements);
    }
    for label in &labels {
        fnv_str(&mut h, label);
        fnv_products(&mut h, &engine.products_for_intent(label, 8));
    }

    let refined: BTreeSet<&str> = children.values().flatten().map(|s| s.as_str()).collect();
    let roots = children
        .iter()
        .filter(|(text, c)| !c.is_empty() && !refined.contains(*text))
        .count();
    let shape = (engine.hierarchy().len(), roots, engine.hierarchy().depth());
    for n in [shape.0, shape.1, shape.2] {
        fnv(&mut h, &(n as u64).to_le_bytes());
    }
    (h, shape)
}

#[test]
fn pipeline_navigation_answers_match_pin() {
    let out = run(PipelineConfig::tiny(141));
    let queries: Vec<&str> = out.world.queries.iter().map(|q| q.text.as_str()).collect();
    let (got, shape) = navigation_digest(&NavigationEngine::new(out.kg.clone()), &queries);
    eprintln!("navigation pin: observed {got:#018x}, (len, roots, depth) {shape:?}");
    let (snap, snap_shape) = navigation_digest(&NavigationEngine::new(out.kg.freeze()), &queries);
    assert_eq!(
        (snap, snap_shape),
        (got, shape),
        "snapshot backend diverged"
    );
    assert_eq!(shape, SHAPE_PIN, "hierarchy shape moved");
    assert_eq!(got, NAV_PIN, "navigation answers moved");
}

#[test]
fn tokenless_intention_is_outside_hierarchy_but_has_products() {
    let mut kg = KnowledgeGraph::new();
    let product = kg.intern_node(NodeKind::Product, "acme winter air mattress");
    for (i, text) in ["camping", "winter camping", "!!!"].iter().enumerate() {
        let tail = kg.intern_node(NodeKind::Intention, text);
        kg.add_edge(Edge {
            head: product,
            relation: Relation::UsedForEve,
            tail,
            behavior: BehaviorKind::SearchBuy,
            category: 1,
            plausibility: 0.9,
            typicality: 0.8,
            support: 1 + i as u32,
        });
    }
    let engine = NavigationEngine::new(kg);
    assert_eq!(engine.hierarchy().len(), 2, "\"!!!\" has no tokens");
    assert_eq!(engine.hierarchy().depth(), 2);
    assert_eq!(
        engine.products_for_intent("!!!", 8),
        vec![(product, "acme winter air mattress".to_string())]
    );
    assert!(engine.interpret("!!!", 5).is_empty());
}
