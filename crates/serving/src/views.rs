//! Downstream application views (Figure 5: "Communication with Downstream
//! Applications — structured data from the cache enhances various
//! downstream applications, providing enriched features for improved user
//! interaction").
//!
//! Each consumer of the serving stack needs the cached
//! [`StructuredFeatures`] in a different shape:
//!
//! * **search relevance** consumes the knowledge feature `G` — a rendered
//!   text span concatenated into the cross-encoder input (§4.1);
//! * **session recommendation** consumes a dense/sparse knowledge vector
//!   per query (§4.2.3);
//! * **search navigation** consumes ranked refinement labels (§4.3).
//!
//! These adapters are pure functions of the cached features, so every
//! downstream surface shares one cache entry per query.

use crate::features::StructuredFeatures;
use cosmo_text::hash::hash_str_ns;

/// Render the relevance feature `G` for a query's cached features: the
/// intent key-value pairs as a text span ready to concatenate into a
/// `[Q, P, G]` cross-encoder input.
pub fn relevance_view(f: &StructuredFeatures) -> String {
    let mut parts: Vec<String> = f
        .intents
        .iter()
        .map(|(rel, tail, _)| format!("query intent [{}] {}", rel.name(), tail))
        .collect();
    if let Some(strong) = &f.strong_intent {
        parts.push(format!("strong intent {strong}"));
    }
    parts.join(" . ")
}

/// Render the recommendation knowledge vector for a query's cached
/// features: a sparse indicator over hashed tail ids (buckets `0..dim/2`)
/// weighted by intent scores, plus a query-identity bucket
/// (`dim/2..dim`) — the encoding COSMO-GNN consumes (§4.2.3).
pub fn recommendation_view(f: &StructuredFeatures, dim: usize) -> Vec<f32> {
    assert!(
        dim >= 4 && dim.is_multiple_of(2),
        "dim must be even and ≥ 4"
    );
    let half = dim / 2;
    let mut v = vec![0.0f32; dim];
    let total: f32 = f.intents.iter().map(|(_, _, s)| s.max(0.0)).sum();
    for (_, tail, score) in &f.intents {
        let h = (hash_str_ns(tail, 77) % half as u64) as usize;
        // PANIC: h < half <= dim, enforced by the assert above
        v[h] += if total > 0.0 {
            score.max(0.0) / total
        } else {
            0.0
        };
    }
    let qh = half + (hash_str_ns(&f.query, 78) % half as u64) as usize;
    v[qh] = 1.0; // PANIC: qh < 2 * half = dim
    v
}

/// Render navigation refinements for a query's cached features: the intent
/// tails ranked by score, deduplicated — the widget labels of Figure 9.
pub fn navigation_view(f: &StructuredFeatures, k: usize) -> Vec<String> {
    let mut ranked: Vec<(&str, f32)> = f
        .intents
        .iter()
        .map(|(_, tail, score)| (tail.as_str(), *score))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    let mut out: Vec<String> = Vec::with_capacity(k);
    for (tail, _) in ranked {
        if !out.iter().any(|t| t == tail) {
            out.push(tail.to_string());
            if out.len() >= k {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_kg::Relation;

    fn features() -> StructuredFeatures {
        StructuredFeatures {
            query: "camping".into(),
            intents: vec![
                (Relation::UsedForEve, "sleeping outdoors".into(), 0.9),
                (Relation::CapableOf, "keeping warm".into(), 0.6),
                (Relation::UsedForEve, "sleeping outdoors".into(), 0.5), // dup
            ],
            subcategory: vec![0.1; 8],
            strong_intent: Some("sleeping outdoors".into()),
        }
    }

    #[test]
    fn relevance_view_renders_relations_and_strong_intent() {
        let g = relevance_view(&features());
        assert!(g.contains("[USED_FOR_EVE] sleeping outdoors"));
        assert!(g.contains("[CAPABLE_OF] keeping warm"));
        assert!(g.contains("strong intent sleeping outdoors"));
    }

    #[test]
    fn recommendation_view_is_normalised_with_query_bucket() {
        let v = recommendation_view(&features(), 64);
        assert_eq!(v.len(), 64);
        let tail_mass: f32 = v[..32].iter().sum();
        assert!((tail_mass - 1.0).abs() < 1e-5, "tail mass {tail_mass}");
        let query_mass: f32 = v[32..].iter().sum();
        assert_eq!(query_mass, 1.0);
        // deterministic
        assert_eq!(v, recommendation_view(&features(), 64));
    }

    #[test]
    fn navigation_view_ranks_and_dedupes() {
        let labels = navigation_view(&features(), 5);
        assert_eq!(labels, vec!["sleeping outdoors", "keeping warm"]);
        let top1 = navigation_view(&features(), 1);
        assert_eq!(top1, vec!["sleeping outdoors"]);
    }

    #[test]
    fn empty_features_yield_empty_views() {
        let f = StructuredFeatures {
            query: "q".into(),
            intents: vec![],
            subcategory: vec![],
            strong_intent: None,
        };
        assert!(relevance_view(&f).is_empty());
        assert!(navigation_view(&f, 3).is_empty());
        let v = recommendation_view(&f, 8);
        assert_eq!(v[..4].iter().sum::<f32>(), 0.0);
        assert_eq!(v[4..].iter().sum::<f32>(), 1.0, "query bucket always set");
    }
}
