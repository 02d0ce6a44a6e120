//! Multi-turn search navigation (§4.3.1, Figures 8 & 9).
//!
//! COSMO "moves away from traditional product-centric taxonomies towards a
//! customer-focused approach", organised in three layers:
//!
//! 1. **Broad conception interpretation** — a broad query ("camping") is
//!    mapped to intent refinements via the KG intent hierarchy's links,
//!    ranked by each refinement's support in the graph;
//! 2. **Product type and subtype discovery** — a selected intent surfaces
//!    the product types and subtypes linked to it;
//! 3. **Attribute-based refinement** — the final layer filters by
//!    attribute tokens.
//!
//! The **multi-turn** flow of Figure 9 ("camping" → "air mattress" →
//! "camping air mattress" → lakeside/mountain/4-person variants) is a
//! stateful walk down these layers, implemented by [`NavSession`].

use cosmo_kg::{GraphView, IntentHierarchy, KnowledgeGraph, NodeId, NodeKind};
use cosmo_text::{tokenize, FxHashSet};

/// A suggestion shown to the customer at some navigation turn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Suggestion {
    /// A finer-grained intent ("winter camping").
    Intent(String),
    /// An attribute filter token ("portable").
    Attribute(String),
}

impl Suggestion {
    /// The display label.
    pub fn label(&self) -> &str {
        match self {
            Suggestion::Intent(s) | Suggestion::Attribute(s) => s,
        }
    }
}

/// The navigation service: a KG plus the intent hierarchy's links over its
/// intention nodes; text, lookup and products come from the KG.
///
/// Generic over the graph backend: the mutable [`KnowledgeGraph`] builder
/// (the default, for tests and offline tooling) and the frozen
/// [`cosmo_kg::KgSnapshotView`] (production serving) yield identical
/// suggestions — both enumerate adjacency in the same content-determined
/// order.
pub struct NavigationEngine<G: GraphView = KnowledgeGraph> {
    kg: G,
    hierarchy: IntentHierarchy,
}

impl<G: GraphView> NavigationEngine<G> {
    /// Build the engine (constructs the Figure 8 hierarchy).
    pub fn new(kg: G) -> Self {
        let hierarchy = IntentHierarchy::build(&kg);
        NavigationEngine { kg, hierarchy }
    }

    /// The underlying graph.
    pub fn kg(&self) -> &G {
        &self.kg
    }

    /// The intent hierarchy.
    pub fn hierarchy(&self) -> &IntentHierarchy {
        &self.hierarchy
    }

    /// The top-`k` refinements (hierarchy children) of an intention text,
    /// ranked by the support summed over each child's incoming edges, then
    /// by text.
    fn refinements(&self, intent: &str, k: usize) -> Vec<Suggestion> {
        let Some(node) = self.kg.find_node(NodeKind::Intention, intent) else {
            return Vec::new();
        };
        let mut children: Vec<(u32, &str)> = self
            .hierarchy
            .children(node)
            .map(|c| {
                let support = self.kg.heads_of(c).map(|e| e.support).sum();
                (support, self.kg.node_text(c))
            })
            .collect();
        children.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
        children
            .into_iter()
            .take(k)
            .map(|(_, text)| Suggestion::Intent(text.to_string()))
            .collect()
    }

    /// Layer 1: interpret a broad query into intent suggestions — hierarchy
    /// refinements of the matching intent when one exists, otherwise the
    /// query node's top intents from the KG.
    pub fn interpret(&self, query: &str, k: usize) -> Vec<Suggestion> {
        let refinements = self.refinements(query, k);
        if !refinements.is_empty() {
            return refinements;
        }
        let Some(node) = self.kg.find_node(NodeKind::Query, query) else {
            return Vec::new();
        };
        self.kg
            .top_intents(node, k)
            .into_iter()
            .map(|e| Suggestion::Intent(self.kg.node_text(e.tail).to_string()))
            .collect()
    }

    /// Layer 2: products linked to an intent tail (via the KG's incoming
    /// edges), returned as `(product node, title)`.
    pub fn products_for_intent(&self, intent: &str, k: usize) -> Vec<(NodeId, String)> {
        let Some(node) = self.kg.find_node(NodeKind::Intention, intent) else {
            return Vec::new();
        };
        let mut out: Vec<(NodeId, String)> = Vec::new();
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        let mut edges: Vec<_> = self.kg.heads_of(node).collect();
        edges.sort_by(|a, b| {
            (b.typicality * b.support as f32)
                .total_cmp(&(a.typicality * a.support as f32))
                .then(a.head.cmp(&b.head))
        });
        for e in edges {
            if self.kg.node_kind(e.head) == NodeKind::Product && seen.insert(e.head) {
                out.push((e.head, self.kg.node_text(e.head).to_string()));
                if out.len() >= k {
                    break;
                }
            }
        }
        out
    }

    /// Layer 3: attribute tokens appearing across a product list (the
    /// refinement chips of the final layer).
    pub fn attributes_of(&self, products: &[(NodeId, String)], k: usize) -> Vec<Suggestion> {
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for (_, title) in products {
            for t in tokenize(title) {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let mut scored: Vec<(String, usize)> = counts
            .into_iter()
            // an informative attribute splits the set: present in some but
            // not all products
            .filter(|(_, c)| *c > 1 && *c < products.len())
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
            .into_iter()
            .take(k)
            .map(|(t, _)| Suggestion::Attribute(t))
            .collect()
    }
}

/// A multi-turn navigation walk (Figure 9).
pub struct NavSession<'e, G: GraphView = KnowledgeGraph> {
    engine: &'e NavigationEngine<G>,
    /// The trail of selections made so far.
    pub trail: Vec<Suggestion>,
    /// Current candidate products.
    pub candidates: Vec<(NodeId, String)>,
}

impl<'e, G: GraphView> NavSession<'e, G> {
    /// Start a session from a broad query; returns the first-turn
    /// suggestions.
    pub fn start(
        engine: &'e NavigationEngine<G>,
        query: &str,
        k: usize,
    ) -> (Self, Vec<Suggestion>) {
        let suggestions = engine.interpret(query, k);
        let candidates = engine
            .kg
            .find_node(NodeKind::Query, query)
            .map(|node| {
                let mut seen = FxHashSet::default();
                engine
                    .kg
                    .tails_of(node)
                    .flat_map(|e| engine.kg.heads_of(e.tail))
                    .filter(|e2| engine.kg.node_kind(e2.head) == NodeKind::Product)
                    .filter(|e2| seen.insert(e2.head))
                    .map(|e2| (e2.head, engine.kg.node_text(e2.head).to_string()))
                    .collect()
            })
            .unwrap_or_default();
        (
            NavSession {
                engine,
                trail: Vec::new(),
                candidates,
            },
            suggestions,
        )
    }

    /// Select a suggestion; returns the next turn's suggestions. Intent
    /// selections narrow candidates to that intent's products and offer
    /// deeper refinements; attribute selections filter the candidate list.
    pub fn select(&mut self, suggestion: &Suggestion, k: usize) -> Vec<Suggestion> {
        self.trail.push(suggestion.clone());
        match suggestion {
            Suggestion::Intent(intent) => {
                self.candidates = self.engine.products_for_intent(intent, 64);
                let mut next = self.engine.refinements(intent, k);
                if next.len() < k {
                    next.extend(self.engine.attributes_of(&self.candidates, k - next.len()));
                }
                next
            }
            Suggestion::Attribute(t) => {
                let token = t.clone();
                self.candidates.retain(|(_, title)| {
                    tokenize(title).iter().any(|tok| tok == &token)
                        || title.contains(token.as_str())
                });
                self.engine.attributes_of(&self.candidates, k)
            }
        }
    }

    /// Number of navigation turns taken.
    pub fn depth(&self) -> usize {
        self.trail.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_kg::{BehaviorKind, Edge, Relation};

    /// Figure-9-style KG: "camping" expands to winter/lakeside camping,
    /// each backed by products.
    fn camping_kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let q = kg.intern_node(NodeKind::Query, "camping");
        let base = kg.intern_node(NodeKind::Intention, "camping");
        let winter = kg.intern_node(NodeKind::Intention, "winter camping");
        let lakeside = kg.intern_node(NodeKind::Intention, "lakeside camping");
        let products = [
            ("acme winter air mattress", winter),
            ("zenit lakeside air mattress", lakeside),
            ("homely portable air mattress", base),
            ("acme winter boots", winter),
        ];
        let add = |kg: &mut KnowledgeGraph, head: NodeId, tail: NodeId, support: u32| {
            kg.add_edge(Edge {
                head,
                relation: Relation::UsedForEve,
                tail,
                behavior: BehaviorKind::SearchBuy,
                category: 1,
                plausibility: 0.9,
                typicality: 0.8,
                support,
            });
        };
        add(&mut kg, q, base, 5);
        for (i, (title, intent)) in products.iter().enumerate() {
            let p = kg.intern_node(NodeKind::Product, title);
            add(&mut kg, p, *intent, 3 - (i as u32 % 2));
            add(&mut kg, p, base, 1);
        }
        kg
    }

    #[test]
    fn broad_query_interprets_to_refinements() {
        let engine = NavigationEngine::new(camping_kg());
        let suggestions = engine.interpret("camping", 5);
        let labels: Vec<&str> = suggestions.iter().map(|s| s.label()).collect();
        assert!(labels.contains(&"winter camping"), "{labels:?}");
        assert!(labels.contains(&"lakeside camping"));
    }

    #[test]
    fn unknown_query_yields_nothing() {
        let engine = NavigationEngine::new(camping_kg());
        assert!(engine.interpret("quantum flux", 5).is_empty());
    }

    #[test]
    fn intent_selection_narrows_candidates() {
        let engine = NavigationEngine::new(camping_kg());
        let (mut session, suggestions) = NavSession::start(&engine, "camping", 5);
        assert!(!session.candidates.is_empty());
        let before = session.candidates.len();
        let winter = suggestions
            .iter()
            .find(|s| s.label() == "winter camping")
            .unwrap()
            .clone();
        session.select(&winter, 5);
        assert!(session.candidates.len() < before);
        assert!(session.candidates.iter().all(|(_, t)| t.contains("winter")));
        assert_eq!(session.depth(), 1);
    }

    #[test]
    fn attribute_layer_filters_titles() {
        let engine = NavigationEngine::new(camping_kg());
        let (mut session, _) = NavSession::start(&engine, "camping", 5);
        let n_before = session.candidates.len();
        session.select(&Suggestion::Attribute("air".into()), 5);
        assert!(session.candidates.len() <= n_before);
        assert!(session.candidates.iter().all(|(_, t)| t.contains("air")));
    }

    #[test]
    fn products_for_intent_ranked_by_support() {
        let engine = NavigationEngine::new(camping_kg());
        let prods = engine.products_for_intent("winter camping", 10);
        assert_eq!(prods.len(), 2);
        assert!(prods[0].1.contains("winter"));
    }

    #[test]
    fn refinements_ranked_by_support() {
        // "camping" refines to "winter camping" (products at support 3
        // and 2: 5) and "lakeside camping" (one product at support 2)
        let engine = NavigationEngine::new(camping_kg());
        assert_eq!(
            engine.refinements("camping", 5),
            vec![
                Suggestion::Intent("winter camping".into()),
                Suggestion::Intent("lakeside camping".into()),
            ]
        );
        assert_eq!(engine.refinements("camping", 1).len(), 1);
        assert!(engine.refinements("winter camping", 5).is_empty());
        assert!(engine.refinements("no such intent", 5).is_empty());
    }

    #[test]
    fn snapshot_backend_yields_identical_navigation() {
        let kg = camping_kg();
        let store_engine = NavigationEngine::new(kg.clone());
        let snap_engine = NavigationEngine::new(kg.freeze());
        for query in ["camping", "quantum flux"] {
            assert_eq!(
                store_engine.interpret(query, 5),
                snap_engine.interpret(query, 5)
            );
            let (a, sa) = NavSession::start(&store_engine, query, 5);
            let (b, sb) = NavSession::start(&snap_engine, query, 5);
            assert_eq!(sa, sb);
            assert_eq!(a.candidates, b.candidates);
        }
        for intent in ["camping", "winter camping", "lakeside camping"] {
            assert_eq!(
                store_engine.products_for_intent(intent, 10),
                snap_engine.products_for_intent(intent, 10)
            );
        }
    }

    #[test]
    fn attributes_exclude_universal_tokens() {
        let engine = NavigationEngine::new(camping_kg());
        let prods = engine.products_for_intent("camping", 10);
        let attrs = engine.attributes_of(&prods, 10);
        // "air" and "mattress" appear in 3/4 products; "acme" in 2
        assert!(attrs.iter().all(|a| {
            let l = a.label();
            l != "camping" // never a discriminating attribute here
        }));
        assert!(!attrs.is_empty());
    }
}
