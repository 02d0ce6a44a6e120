//! Session dataset generation (§4.2.1, Table 7).
//!
//! The paper collects one week of sessions from *clothing* and
//! *electronics* logs: each session is a chronological item sequence with
//! the search query issued at each step, capped at 20 minutes, ending in a
//! purchase; days 1–5 train, day 6 dev, day 7 test.
//!
//! The generator reproduces the Table 7 statistics that matter to the
//! models: electronics sessions are longer (≈12.3 vs ≈8.8 items) and have
//! far more *unique* queries per session (≈2.47 vs ≈1.36) — electronics
//! users revise their search terms as their intent sharpens, which is
//! exactly the signal COSMO-GNN exploits. Mechanically, a session follows
//! a latent intent; each step buys/clicks an item of a type serving the
//! intent; with a domain-specific probability the intent *drifts*, which
//! emits a new query.

use cosmo_synth::{DomainId, ProductId, QueryId, QueryKind, World};
use cosmo_text::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One session: parallel item / query index sequences (indices into the
/// dataset vocabularies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// Item indices, chronological.
    pub items: Vec<usize>,
    /// Query index active at each step (same length as `items`).
    pub queries: Vec<usize>,
    /// Day of week (0–6).
    pub day: usize,
}

impl Session {
    /// Unique query count.
    pub fn unique_queries(&self) -> usize {
        let mut q: Vec<usize> = self.queries.clone();
        q.sort_unstable();
        q.dedup();
        q.len()
    }
}

/// A per-domain session dataset.
#[derive(Debug)]
pub struct SessionDataset {
    /// Domain display name ("clothing" / "electronics").
    pub domain: String,
    /// Item vocabulary (dataset index → world product).
    pub item_vocab: Vec<ProductId>,
    /// Item surface titles (for knowledge generation).
    pub item_titles: Vec<String>,
    /// Query vocabulary (dataset index → world query).
    pub query_vocab: Vec<QueryId>,
    /// Query surface texts.
    pub query_texts: Vec<String>,
    /// Per-query knowledge embeddings (filled by [`attach_knowledge`];
    /// empty vectors until then).
    pub query_knowledge: Vec<Vec<f32>>,
    /// Training sessions (days 0–4).
    pub train: Vec<Session>,
    /// Dev sessions (day 5).
    pub dev: Vec<Session>,
    /// Test sessions (day 6).
    pub test: Vec<Session>,
}

impl SessionDataset {
    /// Number of items in the vocabulary.
    pub fn num_items(&self) -> usize {
        self.item_vocab.len()
    }

    /// Table 7 row: `(sessions, avg session length, avg query length,
    /// avg unique query length)` for a split.
    pub fn split_stats(&self, split: &[Session]) -> (usize, f64, f64, f64) {
        let n = split.len().max(1) as f64;
        let avg_len = split.iter().map(|s| s.items.len()).sum::<usize>() as f64 / n;
        let avg_q = split.iter().map(|s| s.queries.len()).sum::<usize>() as f64 / n;
        let avg_uq = split.iter().map(|s| s.unique_queries()).sum::<usize>() as f64 / n;
        (split.len(), avg_len, avg_q, avg_uq)
    }
}

/// Generation parameters for one domain.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// RNG seed.
    pub seed: u64,
    /// World domain to draw from.
    pub domain: u8,
    /// Display name.
    pub name: String,
    /// Sessions per day.
    pub sessions_per_day: usize,
    /// Mean session length.
    pub mean_length: f64,
    /// Per-step probability the latent intent drifts (emitting a new
    /// query) — higher for electronics.
    pub drift: f64,
    /// Per-step probability of a purely random item (noise).
    pub noise: f64,
    /// Per-step probability the next item complements the previous one
    /// (bundle purchases — the second-order structure GNN models exploit).
    pub complement: f64,
    /// Per-step probability of revisiting an earlier session item.
    pub revisit: f64,
}

impl SessionConfig {
    /// The paper's *clothing* configuration (domain 0).
    pub fn clothing(seed: u64, sessions_per_day: usize) -> Self {
        SessionConfig {
            seed,
            domain: 0,
            name: "clothing".into(),
            sessions_per_day,
            mean_length: 8.8,
            drift: 0.055,
            noise: 0.05,
            complement: 0.15,
            revisit: 0.05,
        }
    }

    /// The paper's *electronics* configuration (domain 8).
    pub fn electronics(seed: u64, sessions_per_day: usize) -> Self {
        SessionConfig {
            seed,
            domain: 8,
            name: "electronics".into(),
            sessions_per_day,
            mean_length: 12.3,
            drift: 0.145,
            noise: 0.05,
            complement: 0.15,
            revisit: 0.05,
        }
    }
}

/// Generate the dataset for one domain.
pub fn generate_sessions(world: &World, cfg: &SessionConfig) -> SessionDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let d = DomainId(cfg.domain);

    // vocabularies: all products of the domain; broad queries of the domain
    let item_vocab: Vec<ProductId> = world.products_in_domain(d).to_vec();
    let item_index: FxHashMap<ProductId, usize> = item_vocab
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i))
        .collect();
    let query_vocab: Vec<QueryId> = world
        .queries_in_domain(d)
        .iter()
        .copied()
        .filter(|&q| matches!(world.query(q).kind, QueryKind::Broad(_)))
        .collect();
    assert!(!query_vocab.is_empty(), "domain must have broad queries");
    let query_index: FxHashMap<QueryId, usize> = query_vocab
        .iter()
        .enumerate()
        .map(|(i, &q)| (q, i))
        .collect();

    let mut splits: [Vec<Session>; 7] = Default::default();
    for (day, split) in splits.iter_mut().enumerate() {
        for _ in 0..cfg.sessions_per_day {
            let len = sample_length(cfg.mean_length, &mut rng);
            let mut items = Vec::with_capacity(len);
            let mut queries = Vec::with_capacity(len);
            // start with a random broad query (a latent intent)
            let mut q_idx = rng.gen_range(0..query_vocab.len());
            for _ in 0..len {
                // drift: the user revises the query
                if rng.gen_bool(cfg.drift) {
                    q_idx = rng.gen_range(0..query_vocab.len());
                }
                let q = world.query(query_vocab[q_idx]);
                let item = if rng.gen_bool(cfg.noise) || q.target_types.is_empty() {
                    // random click
                    item_vocab[rng.gen_range(0..item_vocab.len())]
                } else if !items.is_empty() && rng.gen_bool(cfg.revisit) {
                    // revisit an earlier item in the session
                    item_vocab[items[rng.gen_range(0..items.len())]]
                } else if !items.is_empty() && rng.gen_bool(cfg.complement) {
                    // bundle: complement of the previous item's type
                    let prev = world.product(item_vocab[*items.last().unwrap()]);
                    let comps: Vec<_> = world
                        .ptype(prev.ptype)
                        .complements
                        .iter()
                        .copied()
                        .filter(|&t| world.ptype(t).domain == d)
                        .collect();
                    if comps.is_empty() {
                        item_vocab[rng.gen_range(0..item_vocab.len())]
                    } else {
                        let t = comps[rng.gen_range(0..comps.len())];
                        let prods = world.products_of_type(t);
                        prods[rng.gen_range(0..prods.len())]
                    }
                } else {
                    let t = q.target_types[rng.gen_range(0..q.target_types.len())];
                    let prods = world.products_of_type(t);
                    // popularity-weighted pick within type
                    let weights: Vec<f64> =
                        prods.iter().map(|p| world.product(*p).popularity).collect();
                    let total: f64 = weights.iter().sum();
                    let mut x = rng.gen_range(0.0..total);
                    let mut chosen = prods[prods.len() - 1];
                    for (p, w) in prods.iter().zip(weights.iter()) {
                        if x < *w {
                            chosen = *p;
                            break;
                        }
                        x -= w;
                    }
                    chosen
                };
                items.push(item_index[&item]);
                queries.push(query_index[&query_vocab[q_idx]]);
            }
            split.push(Session {
                items,
                queries,
                day,
            });
        }
    }
    let mut train = Vec::new();
    for s in splits.iter().take(5) {
        train.extend_from_slice(s);
    }
    let dev = splits[5].clone();
    let test = splits[6].clone();

    let item_titles = item_vocab
        .iter()
        .map(|&p| world.product(p).title.clone())
        .collect();
    let query_texts: Vec<String> = query_vocab
        .iter()
        .map(|&q| world.query(q).text.clone())
        .collect();
    SessionDataset {
        domain: cfg.name.clone(),
        item_vocab,
        item_titles,
        query_knowledge: vec![Vec::new(); query_vocab.len()],
        query_vocab,
        query_texts,
        train,
        dev,
        test,
    }
}

/// Session lengths: shifted Poisson-ish via rounded exponential mixture,
/// min 3 (a session must have a prefix and a target).
fn sample_length(mean: f64, rng: &mut StdRng) -> usize {
    let lambda = mean - 3.0;
    // sum of 4 uniform draws approximates a concentrated distribution
    let x: f64 = (0..4).map(|_| rng.gen_range(0.0..lambda / 2.0)).sum();
    (3.0 + x).round() as usize
}

/// Fill per-query knowledge embeddings with `f(query_text) → vector`
/// (typically the COSMO-LM embedding of generated knowledge).
pub fn attach_knowledge(ds: &mut SessionDataset, mut f: impl FnMut(&str) -> Vec<f32>) {
    for (i, text) in ds.query_texts.iter().enumerate() {
        ds.query_knowledge[i] = f(text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_synth::WorldConfig;
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static W: OnceLock<World> = OnceLock::new();
        W.get_or_init(|| World::generate(WorldConfig::tiny(101)))
    }

    #[test]
    fn splits_follow_days() {
        let ds = generate_sessions(world(), &SessionConfig::clothing(1, 40));
        assert_eq!(ds.train.len(), 200);
        assert_eq!(ds.dev.len(), 40);
        assert_eq!(ds.test.len(), 40);
        assert!(ds.train.iter().all(|s| s.day < 5));
        assert!(ds.test.iter().all(|s| s.day == 6));
    }

    #[test]
    fn electronics_sessions_longer_with_more_unique_queries() {
        let w = world();
        let c = generate_sessions(w, &SessionConfig::clothing(2, 120));
        let e = generate_sessions(w, &SessionConfig::electronics(2, 120));
        let (_, c_len, _, c_uq) = c.split_stats(&c.train);
        let (_, e_len, _, e_uq) = e.split_stats(&e.train);
        assert!(
            e_len > c_len + 1.5,
            "electronics {e_len:.1} vs clothing {c_len:.1}"
        );
        assert!(
            e_uq > c_uq + 0.4,
            "unique queries {e_uq:.2} vs {c_uq:.2} (Table 7)"
        );
        assert!(
            (c_len - 8.8).abs() < 1.5,
            "clothing length {c_len:.1} off Table 7"
        );
        assert!((c_uq - 1.36).abs() < 0.6, "clothing uniq queries {c_uq:.2}");
    }

    #[test]
    fn sessions_have_min_length_and_valid_indices() {
        let ds = generate_sessions(world(), &SessionConfig::electronics(3, 50));
        for s in ds.train.iter().chain(ds.test.iter()) {
            assert!(s.items.len() >= 3);
            assert_eq!(s.items.len(), s.queries.len());
            assert!(s.items.iter().all(|&i| i < ds.num_items()));
            assert!(s.queries.iter().all(|&q| q < ds.query_vocab.len()));
        }
    }

    #[test]
    fn items_mostly_serve_active_query() {
        let w = world();
        let ds = generate_sessions(w, &SessionConfig::clothing(4, 80));
        let mut on_target = 0;
        let mut total = 0;
        for s in &ds.train {
            for (&it, &qt) in s.items.iter().zip(s.queries.iter()) {
                let q = w.query(ds.query_vocab[qt]);
                let p = w.product(ds.item_vocab[it]);
                total += 1;
                on_target += usize::from(q.target_types.contains(&p.ptype));
            }
        }
        let frac = on_target as f64 / total as f64;
        assert!(frac > 0.85, "on-target fraction {frac}");
    }

    #[test]
    fn attach_knowledge_fills_embeddings() {
        let mut ds = generate_sessions(world(), &SessionConfig::clothing(5, 10));
        attach_knowledge(&mut ds, |text| vec![text.len() as f32; 8]);
        assert!(ds.query_knowledge.iter().all(|v| v.len() == 8));
    }

    #[test]
    fn deterministic() {
        let a = generate_sessions(world(), &SessionConfig::clothing(6, 20));
        let b = generate_sessions(world(), &SessionConfig::clothing(6, 20));
        assert_eq!(a.train, b.train);
    }
}
