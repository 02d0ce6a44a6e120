//! Session-based recommendation models (§4.2.2–§4.2.3).
//!
//! Eight models, each implemented around its defining mechanism:
//! [`seq`] hosts the sequential baselines (FPMC, GRU4Rec, STAMP, CSRM),
//! [`gnn`] the graph models (SR-GNN, GC-SAN, GCE-GNN) and COSMO-GNN.
//! They share this module's training/evaluation harness: next-item
//! prediction with full-softmax cross-entropy, evaluated with
//! Hits/NDCG/MRR@10 on the last item of each test session.

pub mod gnn;
pub mod seq;

use crate::dataset::SessionDataset;
use crate::metrics::RankMetrics;
use cosmo_text::FxHashMap;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Shared training configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// RNG seed.
    pub seed: u64,
    /// Embedding / hidden width.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Per-session prefix instances for final-position models (session
    /// augmentation); 0 = use every prefix.
    pub prefixes_per_session: usize,
    /// Cap on training sessions per epoch (0 = all).
    pub max_sessions: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            seed: 0x5E55,
            dim: 32,
            epochs: 6,
            lr: 0.005,
            prefixes_per_session: 0,
            max_sessions: 0,
        }
    }
}

/// The common model interface.
pub trait SessionModel {
    /// Model name as printed in Table 8.
    fn name(&self) -> &'static str;
    /// Train on the dataset's train split.
    fn fit(&mut self, ds: &SessionDataset, cfg: &TrainConfig);
    /// Score every item as the next item after the given prefix. `queries`
    /// carries one more entry than `items`: the search query active at the
    /// prediction step (the recommender always sees the current query,
    /// §4.2 — only COSMO-GNN exploits it).
    fn score_prefix(&self, ds: &SessionDataset, items: &[usize], queries: &[usize]) -> Vec<f32>;
}

/// One Table 8 cell triple.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelScores {
    /// Model name.
    pub model: String,
    /// Hits@K (%).
    pub hits: f64,
    /// NDCG@K (%).
    pub ndcg: f64,
    /// MRR@K (%).
    pub mrr: f64,
}

/// Evaluate a trained model on the test split (predict the last item of
/// each session from its prefix).
pub fn evaluate(model: &dyn SessionModel, ds: &SessionDataset, k: usize) -> ModelScores {
    let mut m = RankMetrics::default();
    for s in &ds.test {
        let n = s.items.len();
        if n < 2 {
            continue;
        }
        let scores = model.score_prefix(ds, &s.items[..n - 1], &s.queries[..n]);
        m.record(&scores, s.items[n - 1], k);
    }
    ModelScores {
        model: model.name().to_string(),
        hits: m.hits(),
        ndcg: m.ndcg(),
        mrr: m.mrr(),
    }
}

/// Training instances for final-position models: `(session index,
/// prefix length)` pairs, up to `prefixes_per_session` per session,
/// always including the full prefix.
pub fn prefix_instances(
    ds: &SessionDataset,
    cfg: &TrainConfig,
    rng: &mut StdRng,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut session_ids: Vec<usize> = (0..ds.train.len()).collect();
    if cfg.max_sessions > 0 && cfg.max_sessions < session_ids.len() {
        session_ids.shuffle(rng);
        session_ids.truncate(cfg.max_sessions);
    }
    for &si in &session_ids {
        let n = ds.train[si].items.len();
        if n < 2 {
            continue;
        }
        if cfg.prefixes_per_session == 0 {
            // every prefix (matches the per-position training of the
            // sequential models)
            for len in 2..=n {
                out.push((si, len));
            }
        } else {
            out.push((si, n)); // full session: predict last from rest
            let extra = cfg.prefixes_per_session.saturating_sub(1);
            for _ in 0..extra {
                let len = 2 + (rand::Rng::gen_range(rng, 0..(n - 1)));
                out.push((si, len));
            }
        }
    }
    out.shuffle(rng);
    out
}

/// Global item co-occurrence neighbours (GCE-GNN's global graph): for each
/// item, its top-`k` co-occurring items (window ±1 within training
/// sessions) with normalised weights.
pub fn global_cooccurrence(ds: &SessionDataset, k: usize) -> Vec<Vec<(usize, f32)>> {
    let v = ds.num_items();
    let mut counts: Vec<FxHashMap<usize, u32>> = vec![FxHashMap::default(); v];
    for s in &ds.train {
        for w in s.items.windows(2) {
            if w[0] != w[1] {
                *counts[w[0]].entry(w[1]).or_insert(0) += 1;
                *counts[w[1]].entry(w[0]).or_insert(0) += 1;
            }
        }
    }
    counts
        .into_iter()
        .map(|m| {
            let mut pairs: Vec<(usize, u32)> = m.into_iter().collect();
            pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            pairs.truncate(k);
            let total: f32 = pairs.iter().map(|(_, c)| *c as f32).sum();
            pairs
                .into_iter()
                .map(|(i, c)| (i, c as f32 / total.max(1.0)))
                .collect()
        })
        .collect()
}

/// Deterministic RNG for a config.
pub fn rng_for(cfg: &TrainConfig) -> StdRng {
    StdRng::seed_from_u64(cfg.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_sessions, SessionConfig};
    use cosmo_synth::{World, WorldConfig};

    fn ds() -> SessionDataset {
        let w = World::generate(WorldConfig::tiny(111));
        generate_sessions(&w, &SessionConfig::clothing(7, 30))
    }

    #[test]
    fn prefix_instances_include_full_sessions() {
        let ds = ds();
        let cfg = TrainConfig::default();
        let mut rng = rng_for(&cfg);
        let inst = prefix_instances(&ds, &cfg, &mut rng);
        assert!(inst.len() >= ds.train.len());
        for &(si, len) in &inst {
            assert!(len >= 2 && len <= ds.train[si].items.len());
        }
    }

    #[test]
    fn global_graph_symmetric_and_normalised() {
        let ds = ds();
        let g = global_cooccurrence(&ds, 5);
        assert_eq!(g.len(), ds.num_items());
        for nbrs in &g {
            assert!(nbrs.len() <= 5);
            if !nbrs.is_empty() {
                let sum: f32 = nbrs.iter().map(|(_, w)| w).sum();
                assert!(sum <= 1.0001);
            }
        }
    }

    #[test]
    fn max_sessions_caps_instances() {
        let ds = ds();
        let cfg = TrainConfig {
            max_sessions: 5,
            prefixes_per_session: 1,
            ..Default::default()
        };
        let mut rng = rng_for(&cfg);
        let inst = prefix_instances(&ds, &cfg, &mut rng);
        assert!(inst.len() <= 5);
    }
}
