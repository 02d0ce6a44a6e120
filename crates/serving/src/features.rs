//! Feature store (Figure 5, §3.5.1).
//!
//! "This store is essential for transferring model responses to structured
//! features, making them actionable for downstream applications. It
//! handles features like product key-value pairs, semantic subcategory
//! representations, and strong intent detection."
//!
//! A [`FeatureStore`] maps query strings to [`StructuredFeatures`]
//! computed from COSMO-LM responses: the top intention tails per relation
//! (key-value pairs), a dense semantic representation (the student's text
//! embedding), and a strong-intent flag when the top generation dominates.
//!
//! The map is **sharded by query hash** so that concurrent request
//! threads and the batch writer contend only when they touch the same
//! shard, mirroring the cache store's layout.

use cosmo_kg::{GraphView, NodeKind, Relation};
use cosmo_lm::CosmoLm;
use cosmo_text::hash::hash_str_ns;
use cosmo_text::FxHashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// Hash namespace for feature-store shard routing.
const FEATURE_SHARD_NS: u32 = 0x5EEE;

/// Structured features derived from a model response for one query.
#[derive(Debug, Clone, Default)]
pub struct StructuredFeatures {
    /// The query these features describe.
    pub query: String,
    /// Intention key-value pairs: `(relation, tail, score)`, best first.
    pub intents: Vec<(Relation, String, f32)>,
    /// Semantic subcategory representation (dense embedding).
    pub subcategory: Vec<f32>,
    /// Detected strong intent, when the top tail clearly dominates.
    pub strong_intent: Option<String>,
}

/// How far the top score must exceed the runner-up for strong-intent
/// detection.
const STRONG_INTENT_MARGIN: f32 = 0.3;

/// Structured features for one query: a one-query
/// [`compute_features_batch`].
pub fn compute_features<G: GraphView>(query: &str, kg: &G, lm: &CosmoLm) -> StructuredFeatures {
    compute_features_batch(&[query], kg, lm)
        .pop()
        .unwrap_or_default()
}

/// Compute structured features for each query: KG intents when the query
/// node exists (cheap per-query snapshot reads), falling back to COSMO-LM
/// generation, plus the student embedding as the subcategory
/// representation. Every cold query's generation goes through one
/// [`CosmoLm::generate_batch`] call and every subcategory embedding
/// through one [`CosmoLm::embed_batch`] call — one matmul per stage for
/// the whole slice. The student's rows are the same at any batch size, so
/// each query's features do not depend on the slice it arrives in.
///
/// Generic over the graph backend: the mutable [`cosmo_kg::KnowledgeGraph`]
/// and the frozen [`cosmo_kg::KgSnapshotView`] produce bitwise-identical
/// features (both enumerate adjacency in the same content-determined
/// order); production serving uses the snapshot.
pub fn compute_features_batch<G: GraphView>(
    queries: &[&str],
    kg: &G,
    lm: &CosmoLm,
) -> Vec<StructuredFeatures> {
    let mut intents: Vec<Vec<(Relation, String, f32)>> =
        queries.iter().map(|q| kg_intents(q, kg)).collect();
    let cold: Vec<usize> = intents
        .iter()
        .enumerate()
        .filter(|(_, i)| i.is_empty())
        .map(|(i, _)| i)
        .collect();
    // PANIC: cold holds enumerate() indices over these same slices
    let prompts: Vec<String> = cold.iter().map(|&i| cold_prompt(queries[i])).collect();
    let prompt_refs: Vec<&str> = prompts.iter().map(String::as_str).collect();
    for (&i, generated) in cold.iter().zip(lm.generate_batch(&prompt_refs, None, 5)) {
        for (tail, score) in generated {
            intents[i].push((Relation::UsedForFunc, tail, score)); // PANIC: i < len
        }
        squash_cold_scores(&mut intents[i]); // PANIC: i < len, as above
    }
    let embeds = lm.embed_batch(queries);
    queries
        .iter()
        .zip(intents)
        .zip(embeds)
        .map(|((q, ints), emb)| assemble_features(q, ints, emb))
        .collect()
}

/// The query node's top KG intents; empty when the query is cold.
fn kg_intents<G: GraphView>(query: &str, kg: &G) -> Vec<(Relation, String, f32)> {
    let mut intents = Vec::new();
    if let Some(node) = kg.find_node(NodeKind::Query, query) {
        for e in kg.top_intents(node, 5) {
            intents.push((e.relation, kg.node_text(e.tail).to_string(), e.typicality));
        }
    }
    intents
}

/// The cold-query generation prompt.
fn cold_prompt(query: &str) -> String {
    format!("generate a USED_FOR_FUNC explanation in domain unknown for: search query: {query}")
}

/// Normalise cold-generation scores into (0,1) via softmax-ish squashing.
fn squash_cold_scores(intents: &mut [(Relation, String, f32)]) {
    if let Some(max) = intents.iter().map(|(_, _, s)| *s).reduce(f32::max) {
        for (_, _, s) in intents.iter_mut() {
            *s = 1.0 / (1.0 + (max - *s).exp());
        }
    }
}

/// Strong-intent detection + struct assembly.
fn assemble_features(
    query: &str,
    intents: Vec<(Relation, String, f32)>,
    subcategory: Vec<f32>,
) -> StructuredFeatures {
    let strong_intent = match intents.as_slice() {
        [] => None,
        [only] => Some(only.1.clone()),
        [first, second, ..] => {
            (first.2 - second.2 >= STRONG_INTENT_MARGIN).then(|| first.1.clone())
        }
    };
    StructuredFeatures {
        query: query.to_string(),
        subcategory,
        intents,
        strong_intent,
    }
}

/// Thread-safe, sharded query → features map.
#[derive(Debug)]
pub struct FeatureStore {
    shards: Vec<RwLock<FxHashMap<String, Arc<StructuredFeatures>>>>,
}

impl FeatureStore {
    /// Empty store with an explicit shard count (min 1).
    pub fn with_shards(shards: usize) -> Self {
        FeatureStore {
            shards: (0..shards.max(1)).map(|_| RwLock::default()).collect(),
        }
    }

    fn shard_of(&self, query: &str) -> &RwLock<FxHashMap<String, Arc<StructuredFeatures>>> {
        let idx = (hash_str_ns(query, FEATURE_SHARD_NS) % self.shards.len() as u64) as usize;
        // PANIC: idx is hash mod len; shards is clamped to >= 1 entry
        &self.shards[idx]
    }

    /// Insert (or replace) features for a query.
    pub fn put(&self, features: StructuredFeatures) -> Arc<StructuredFeatures> {
        let arc = Arc::new(features);
        self.shard_of(&arc.query)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(arc.query.clone(), arc.clone());
        arc
    }

    /// Look up features.
    pub fn get(&self, query: &str) -> Option<Arc<StructuredFeatures>> {
        self.shard_of(query)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(query)
            .cloned()
    }

    /// Number of stored queries (summed across shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_kg::{BehaviorKind, Edge, KnowledgeGraph};
    use cosmo_lm::StudentConfig;

    fn lm() -> CosmoLm {
        CosmoLm::new(
            StudentConfig::default(),
            vec![
                ("sleeping outdoors".into(), Some(Relation::UsedForFunc)),
                ("keeping warm".into(), Some(Relation::CapableOf)),
            ],
        )
    }

    fn kg_with_query(query: &str) -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let q = kg.intern_node(NodeKind::Query, query);
        for (tail, typ) in [("sleeping outdoors", 0.9f32), ("lakeside trips", 0.4)] {
            let t = kg.intern_node(NodeKind::Intention, tail);
            kg.add_edge(Edge {
                head: q,
                relation: Relation::UsedForEve,
                tail: t,
                behavior: BehaviorKind::SearchBuy,
                category: 1,
                plausibility: 0.9,
                typicality: typ,
                support: 3,
            });
        }
        kg
    }

    #[test]
    fn kg_backed_features_prefer_graph() {
        let kg = kg_with_query("camping");
        let f = compute_features("camping", &kg, &lm());
        assert_eq!(f.intents.len(), 2);
        assert_eq!(f.intents[0].1, "sleeping outdoors");
        assert_eq!(f.strong_intent.as_deref(), Some("sleeping outdoors"));
        assert_eq!(f.subcategory.len(), lm().dim());
    }

    #[test]
    fn cold_query_falls_back_to_student() {
        let kg = KnowledgeGraph::new();
        let f = compute_features("brand new query", &kg, &lm());
        assert!(
            !f.intents.is_empty(),
            "student fallback must produce intents"
        );
    }

    #[test]
    fn store_roundtrip() {
        let store = FeatureStore::with_shards(8);
        assert!(store.is_empty());
        let kg = kg_with_query("camping");
        let f = compute_features("camping", &kg, &lm());
        store.put(f);
        assert_eq!(store.len(), 1);
        assert!(store.get("camping").is_some());
        assert!(store.get("missing").is_none());
    }

    #[test]
    fn sharded_store_spreads_and_counts() {
        let store = FeatureStore::with_shards(4);
        let kg = KnowledgeGraph::new();
        let model = lm();
        for i in 0..32 {
            store.put(compute_features(&format!("query {i}"), &kg, &model));
        }
        assert_eq!(store.len(), 32);
        for i in 0..32 {
            assert!(store.get(&format!("query {i}")).is_some());
        }
        // replacing an existing key does not grow the store
        store.put(compute_features("query 0", &kg, &model));
        assert_eq!(store.len(), 32);
    }

    #[test]
    fn snapshot_features_bitwise_identical_to_store() {
        let kg = kg_with_query("camping");
        let snap = kg.freeze();
        let model = lm();
        for query in ["camping", "brand new query", ""] {
            let a = compute_features(query, &kg, &model);
            let b = compute_features(query, &snap, &model);
            assert_eq!(a.query, b.query);
            assert_eq!(a.strong_intent, b.strong_intent);
            assert_eq!(a.intents.len(), b.intents.len());
            for ((ra, ta, sa), (rb, tb, sb)) in a.intents.iter().zip(&b.intents) {
                assert_eq!(ra, rb);
                assert_eq!(ta, tb);
                assert_eq!(sa.to_bits(), sb.to_bits());
            }
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.subcategory), bits(&b.subcategory));
        }
    }

    /// The batched path must be bitwise identical to per-query
    /// `compute_features` across a mix of KG-hit, cold, and empty queries,
    /// on both graph backends.
    #[test]
    fn batched_features_bitwise_identical_to_per_query() {
        let kg = kg_with_query("camping");
        let snap = kg.freeze();
        let model = lm();
        let queries = ["camping", "brand new query", "", "another cold one"];
        let assert_same = |a: &StructuredFeatures, b: &StructuredFeatures| {
            assert_eq!(a.query, b.query);
            assert_eq!(a.strong_intent, b.strong_intent);
            assert_eq!(a.intents.len(), b.intents.len());
            for ((ra, ta, sa), (rb, tb, sb)) in a.intents.iter().zip(&b.intents) {
                assert_eq!((ra, ta), (rb, tb));
                assert_eq!(sa.to_bits(), sb.to_bits(), "{ta} score bits");
            }
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.subcategory), bits(&b.subcategory));
        };
        let batched = compute_features_batch(&queries, &kg, &model);
        let snap_batched = compute_features_batch(&queries, &snap, &model);
        assert_eq!(batched.len(), queries.len());
        for ((q, b), sb) in queries.iter().zip(&batched).zip(&snap_batched) {
            assert_same(b, &compute_features(q, &kg, &model));
            assert_same(sb, b);
        }
        assert!(compute_features_batch::<KnowledgeGraph>(&[], &kg, &model).is_empty());
    }

    #[test]
    fn no_strong_intent_when_scores_close() {
        let mut kg = KnowledgeGraph::new();
        let q = kg.intern_node(NodeKind::Query, "gift");
        for tail in ["for mom", "for dad"] {
            let t = kg.intern_node(NodeKind::Intention, tail);
            kg.add_edge(Edge {
                head: q,
                relation: Relation::UsedForAud,
                tail: t,
                behavior: BehaviorKind::SearchBuy,
                category: 0,
                plausibility: 0.9,
                typicality: 0.5,
                support: 1,
            });
        }
        let f = compute_features("gift", &kg, &lm());
        assert!(f.strong_intent.is_none());
    }
}
