//! Query-rewrite analysis — the paper's explicit future work (§4.2.4:
//! "More investigations like how COSMO reduces query rewrites are left for
//! future work").
//!
//! Mechanism: a user rewrites their query when the current results don't
//! surface what they now want. A recommender that ranks well **right after
//! an intent drift** (the step where the query just changed) removes the
//! need for further refinement. We therefore split next-item evaluation
//! into *drift steps* (query at the prediction step differs from the
//! previous step) and *stable steps*, and report Hits@K on each.
//! A query-aware model (COSMO-GNN) should hold its accuracy on drift
//! steps, where history-only models have stale evidence.

use crate::dataset::SessionDataset;
use crate::metrics::RankMetrics;
use crate::models::SessionModel;

/// Drift-vs-stable accuracy of one model.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Model name.
    pub model: String,
    /// Hits@K on steps where the query just changed.
    pub drift_hits: f64,
    /// Hits@K on steps with an unchanged query.
    pub stable_hits: f64,
    /// Number of drift steps evaluated.
    pub n_drift: usize,
    /// Number of stable steps evaluated.
    pub n_stable: usize,
}

impl DriftReport {
    /// How much accuracy the model loses when the intent drifts
    /// (`stable − drift`, in points; lower = more rewrite-resistant).
    pub fn drift_penalty(&self) -> f64 {
        self.stable_hits - self.drift_hits
    }
}

/// Evaluate a trained model at every step of every test session, split by
/// whether the query drifted at the prediction step. Steps are capped per
/// session (`max_steps`) to bound cost; 0 = all.
pub fn drift_analysis(
    ds: &SessionDataset,
    model: &dyn SessionModel,
    k: usize,
    max_steps: usize,
) -> DriftReport {
    let mut drift = RankMetrics::default();
    let mut stable = RankMetrics::default();
    for s in &ds.test {
        let n = s.items.len();
        let upper = if max_steps == 0 {
            n
        } else {
            (2 + max_steps).min(n)
        };
        for t in 2..upper {
            let scores = model.score_prefix(ds, &s.items[..t], &s.queries[..t + 1]);
            if s.queries[t] != s.queries[t - 1] {
                drift.record(&scores, s.items[t], k);
            } else {
                stable.record(&scores, s.items[t], k);
            }
        }
    }
    DriftReport {
        model: model.name().to_string(),
        drift_hits: drift.hits(),
        stable_hits: stable.hits(),
        n_drift: drift.n,
        n_stable: stable.n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{attach_knowledge, generate_sessions, SessionConfig};
    use crate::models::gnn::CosmoGnn;
    use crate::models::seq::Gru4Rec;
    use crate::models::TrainConfig;
    use cosmo_synth::{World, WorldConfig};

    fn dataset() -> SessionDataset {
        let w = World::generate(WorldConfig::tiny(401));
        // electronics: frequent drift (Table 7's 2.47 unique queries)
        let mut ds = generate_sessions(&w, &SessionConfig::electronics(11, 80));
        attach_knowledge(&mut ds, |text| {
            let mut v = vec![0.0f32; 32];
            v[(cosmo_text::hash::hash_str_ns(text, 77) % 32) as usize] = 1.0;
            v
        });
        ds
    }

    #[test]
    fn cosmo_gnn_is_more_drift_resistant_than_gru() {
        let ds = dataset();
        let cfg = TrainConfig {
            epochs: 4,
            dim: 16,
            ..Default::default()
        };
        let mut cosmo = CosmoGnn::new();
        cosmo.fit(&ds, &cfg);
        let mut gru = Gru4Rec::new();
        gru.fit(&ds, &cfg);
        let rc = drift_analysis(&ds, &cosmo, 10, 6);
        let rg = drift_analysis(&ds, &gru, 10, 6);
        assert!(rc.n_drift > 30, "need drift steps: {}", rc.n_drift);
        assert!(
            rc.drift_hits > rg.drift_hits,
            "COSMO drift hits {:.1} must beat GRU {:.1} (the rewrite-reduction mechanism)",
            rc.drift_hits,
            rg.drift_hits
        );
    }

    #[test]
    fn stable_steps_are_easier_than_drift_steps() {
        let ds = dataset();
        let cfg = TrainConfig {
            epochs: 3,
            dim: 16,
            ..Default::default()
        };
        let mut gru = Gru4Rec::new();
        gru.fit(&ds, &cfg);
        let r = drift_analysis(&ds, &gru, 10, 6);
        assert!(
            r.drift_penalty() > 0.0,
            "a history-only model must lose accuracy on drift steps: {r:?}"
        );
    }

    #[test]
    fn step_counts_partition_the_session_steps() {
        let ds = dataset();
        let cfg = TrainConfig {
            epochs: 1,
            dim: 8,
            max_sessions: 10,
            ..Default::default()
        };
        let mut gru = Gru4Rec::new();
        gru.fit(&ds, &cfg);
        let r = drift_analysis(&ds, &gru, 10, 0);
        let expected: usize = ds
            .test
            .iter()
            .map(|s| s.items.len().saturating_sub(2))
            .sum();
        assert_eq!(r.n_drift + r.n_stable, expected);
    }
}
