//! Downstream application views (Figure 5: "Communication with Downstream
//! Applications — structured data from the cache enhances various
//! downstream applications, providing enriched features for improved user
//! interaction").
//!
//! Session recommendation consumes the cached [`StructuredFeatures`] as a
//! dense/sparse knowledge vector per query (§4.2.3). The adapter is a pure
//! function of the cached features, so it shares the query's one cache
//! entry with every other consumer. Search relevance renders its own
//! knowledge span (`cosmo-relevance`) and navigation answers through
//! `cosmo-nav`'s `NavigationEngine`.

use crate::features::StructuredFeatures;
use cosmo_text::hash::hash_str_ns;

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
    fn empty_features_yield_empty_views() {
        let f = StructuredFeatures {
            query: "q".into(),
            intents: vec![],
            subcategory: vec![],
            strong_intent: None,
        };
        let v = recommendation_view(&f, 8);
        assert_eq!(v[..4].iter().sum::<f32>(), 0.0);
        assert_eq!(v[4..].iter().sum::<f32>(), 1.0, "query bucket always set");
    }
}
