//! Synthetic ESCI dataset generation (§4.1.1, Table 5).
//!
//! The paper evaluates on the KDD Cup 2022 shopping-queries dataset plus
//! private per-locale datasets (US, CA, UK, IN). Task 2 labels each
//! query–product pair **E**xact / **S**ubstitute / **C**omplement /
//! **I**rrelevant. We generate the equivalent from the world model:
//!
//! * **Exact** — the product's type genuinely satisfies the query;
//! * **Substitute** — the product shares a typical intent with a target
//!   type but is not itself a target;
//! * **Complement** — the product's type complements a target type;
//! * **Irrelevant** — none of the above.
//!
//! The class mix is skewed towards Exact, as in Table 5 (`# Exact Pairs`
//! dominates). Per-locale variation: a locale-specific seed, spelling
//! shifts (e.g. "color"→"colour" for UK-style locales) and differing
//! volumes — enough to show generalisation without pretending to model
//! real market differences.
//!
//! Crucially, the generator preserves the **semantic gap**: broad queries
//! are intent phrases while product titles are brand + type tokens, so
//! lexical overlap alone cannot decide E vs S vs C — only the latent
//! intent does, which is exactly what the COSMO knowledge feature G
//! surfaces.

use cosmo_synth::{DomainId, ProductTypeId, World};
use cosmo_text::FxHashSet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// ESCI label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EsciLabel {
    /// Exact match.
    Exact,
    /// Substitute.
    Substitute,
    /// Complement.
    Complement,
    /// Irrelevant.
    Irrelevant,
}

impl EsciLabel {
    /// All four classes.
    pub const ALL: [EsciLabel; 4] = [
        EsciLabel::Exact,
        EsciLabel::Substitute,
        EsciLabel::Complement,
        EsciLabel::Irrelevant,
    ];

    /// Class index.
    pub fn index(self) -> usize {
        EsciLabel::ALL.iter().position(|&l| l == self).unwrap()
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EsciLabel::Exact => "Exact",
            EsciLabel::Substitute => "Substitute",
            EsciLabel::Complement => "Complement",
            EsciLabel::Irrelevant => "Irrelevant",
        }
    }
}

/// One labelled query–product pair.
#[derive(Debug, Clone)]
pub struct EsciExample {
    /// Query surface text (locale-shifted).
    pub query: String,
    /// Product surface text (title + type, locale-shifted).
    pub product: String,
    /// COSMO knowledge feature `G` for the pair (filled by the caller —
    /// empty for the no-intent baselines).
    pub knowledge: String,
    /// Ground-truth label.
    pub label: EsciLabel,
}

/// A locale's dataset.
#[derive(Debug, Clone)]
pub struct EsciDataset {
    /// Locale name.
    pub locale: String,
    /// Training split.
    pub train: Vec<EsciExample>,
    /// Test split.
    pub test: Vec<EsciExample>,
}

impl EsciDataset {
    /// Table 5 statistics:
    /// `(train pairs, test pairs, exact pairs, unique queries, unique products)`.
    pub fn stats(&self) -> (usize, usize, usize, usize, usize) {
        let all = self.train.iter().chain(self.test.iter());
        let mut queries: FxHashSet<&str> = FxHashSet::default();
        let mut products: FxHashSet<&str> = FxHashSet::default();
        let mut exact = 0;
        for e in all {
            queries.insert(&e.query);
            products.insert(&e.product);
            exact += usize::from(e.label == EsciLabel::Exact);
        }
        (
            self.train.len(),
            self.test.len(),
            exact,
            queries.len(),
            products.len(),
        )
    }
}

/// Locale descriptors: `(name, seed offset, size multiplier, uk spelling)`.
pub const LOCALES: [(&str, u64, f64, bool); 5] = [
    ("KDD Cup", 0, 1.0, false),
    ("US", 1, 0.85, false),
    ("CA", 2, 0.18, false),
    ("UK", 3, 0.35, true),
    ("IN", 4, 1.05, true),
];

/// Dataset-size parameters.
#[derive(Debug, Clone)]
pub struct EsciConfig {
    /// RNG seed.
    pub seed: u64,
    /// Base pair count (scaled per locale).
    pub base_pairs: usize,
    /// Test fraction.
    pub test_fraction: f64,
    /// Class mixture `(exact, substitute, complement, irrelevant)` —
    /// Exact dominates as in Table 5.
    pub class_mix: [f64; 4],
    /// Fraction of pairs whose query is broad (the semantic-gap case that
    /// motivates COSMO — §4.1: "winter clothes" ↛ "keep warm" lexically).
    pub broad_fraction: f64,
}

impl Default for EsciConfig {
    fn default() -> Self {
        EsciConfig {
            seed: 0xE5C1,
            base_pairs: 6_000,
            test_fraction: 0.25,
            class_mix: [0.62, 0.16, 0.10, 0.12],
            broad_fraction: 0.8,
        }
    }
}

/// Apply a light spelling/locale shift to text.
fn localize(text: &str, uk: bool) -> String {
    if uk {
        text.replace("color", "colour")
            .replace("organize", "organise")
    } else {
        text.to_string()
    }
}

/// Generate the dataset for one locale. Knowledge features start empty;
/// use [`attach_knowledge`] to fill them.
pub fn generate_locale(world: &World, cfg: &EsciConfig, locale_idx: usize) -> EsciDataset {
    let (name, seed_off, size_mult, uk) = LOCALES[locale_idx];
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (seed_off.wrapping_mul(0x9E37_79B9)));
    let n = ((cfg.base_pairs as f64) * size_mult) as usize;
    let mut examples = Vec::with_capacity(n);

    // index: intent -> product types carrying it typically (for substitutes)
    let num_types = world.product_types.len();
    while examples.len() < n {
        // pick a query
        let d = DomainId(rng.gen_range(0..18u8));
        let want_broad = rng.gen_bool(cfg.broad_fraction);
        let qid = world.sample_query(d, &mut rng);
        let q = world.query(qid);
        if q.target_types.is_empty() {
            continue;
        }
        let is_broad = matches!(q.kind, cosmo_synth::QueryKind::Broad(_));
        if want_broad != is_broad {
            continue;
        }
        // decide the class
        let x: f64 = rng.gen_range(0.0..cfg.class_mix.iter().sum());
        let mut label = EsciLabel::Irrelevant;
        let mut acc = 0.0;
        for (i, &w) in cfg.class_mix.iter().enumerate() {
            acc += w;
            if x < acc {
                label = EsciLabel::ALL[i];
                break;
            }
        }
        // pick a product realising that class
        let target = q.target_types[rng.gen_range(0..q.target_types.len())];
        let ptype: Option<ProductTypeId> = match label {
            EsciLabel::Exact => Some(target),
            EsciLabel::Substitute => {
                // shares a typical intent with the target, but not a target
                let tgt_profile = &world.ptype(target).profile;
                let typical: Vec<_> = tgt_profile
                    .iter()
                    .filter(|(_, w)| *w >= 0.5)
                    .map(|(i, _)| *i)
                    .collect();
                let mut found = None;
                for _ in 0..40 {
                    let cand = ProductTypeId(rng.gen_range(0..num_types as u32));
                    if q.target_types.contains(&cand) || cand == target {
                        continue;
                    }
                    let pt = world.ptype(cand);
                    if typical.iter().any(|&i| pt.weight_of(i) >= 0.4) {
                        found = Some(cand);
                        break;
                    }
                }
                found
            }
            EsciLabel::Complement => {
                let comps = &world.ptype(target).complements;
                let eligible: Vec<_> = comps
                    .iter()
                    .copied()
                    .filter(|c| !q.target_types.contains(c))
                    .collect();
                eligible.choose(&mut rng).copied()
            }
            EsciLabel::Irrelevant => {
                // a type sharing nothing with the query targets
                let mut found = None;
                for _ in 0..40 {
                    let cand = ProductTypeId(rng.gen_range(0..num_types as u32));
                    if q.target_types.contains(&cand) {
                        continue;
                    }
                    let pt = world.ptype(cand);
                    let target_profile = &world.ptype(target).profile;
                    let shares = target_profile.iter().any(|(i, _)| pt.weight_of(*i) > 0.0);
                    let complements = world.ptype(target).complements.contains(&cand);
                    if !shares && !complements {
                        found = Some(cand);
                        break;
                    }
                }
                found
            }
        };
        let Some(ptype) = ptype else { continue };
        let prods = world.products_of_type(ptype);
        let product = world.product(prods[rng.gen_range(0..prods.len())]);
        examples.push(EsciExample {
            query: localize(&q.text, uk),
            product: localize(&product.title, uk),
            knowledge: String::new(),
            label,
        });
    }
    examples.shuffle(&mut rng);
    // Split by *query*, as the real ESCI task does: test queries never
    // appear in training, so the classifier cannot memorise per-query
    // lexical shortcuts and must rely on generalising features (which is
    // exactly where the COSMO knowledge earns its keep).
    let mut queries: Vec<&str> = examples.iter().map(|e| e.query.as_str()).collect();
    queries.sort_unstable();
    queries.dedup();
    let test_queries: FxHashSet<String> = queries
        .iter()
        .filter(|q| {
            let h = cosmo_text::hash::hash_str_ns(q, 99 + seed_off as u32);
            (h % 1000) as f64 / 1000.0 < cfg.test_fraction
        })
        .map(|q| q.to_string())
        .collect();
    let (test, train): (Vec<EsciExample>, Vec<EsciExample>) = examples
        .into_iter()
        .partition(|e| test_queries.contains(&e.query));
    EsciDataset {
        locale: name.to_string(),
        train,
        test,
    }
}

/// Attach COSMO knowledge features to every example using `knowledge_fn`
/// (typically the serving stack's `compute_features` or the student's
/// generation). The same function serves train and test, as in deployment.
pub fn attach_knowledge(
    dataset: &mut EsciDataset,
    mut knowledge_fn: impl FnMut(&str, &str) -> String,
) {
    for e in dataset.train.iter_mut().chain(dataset.test.iter_mut()) {
        e.knowledge = knowledge_fn(&e.query, &e.product);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_synth::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig::tiny(91))
    }

    fn small_cfg() -> EsciConfig {
        EsciConfig {
            base_pairs: 600,
            ..Default::default()
        }
    }

    #[test]
    fn all_locales_generate() {
        let w = world();
        for i in 0..LOCALES.len() {
            let ds = generate_locale(&w, &small_cfg(), i);
            assert!(!ds.train.is_empty(), "{}", ds.locale);
            assert!(!ds.test.is_empty());
        }
    }

    #[test]
    fn exact_dominates_class_mix() {
        let w = world();
        let ds = generate_locale(&w, &small_cfg(), 0);
        let (train, test, exact, uq, up) = ds.stats();
        assert_eq!(train + test, ds.train.len() + ds.test.len());
        assert!(
            exact * 2 > train + test,
            "Exact should be the majority class"
        );
        assert!(uq > 10 && up > 10);
    }

    #[test]
    fn all_four_classes_present() {
        let w = world();
        let ds = generate_locale(&w, &small_cfg(), 0);
        for label in EsciLabel::ALL {
            assert!(
                ds.train.iter().any(|e| e.label == label),
                "missing class {label:?}"
            );
        }
    }

    #[test]
    fn locales_differ_in_size_and_content() {
        let w = world();
        let us = generate_locale(&w, &small_cfg(), 1);
        let ca = generate_locale(&w, &small_cfg(), 2);
        assert!(
            us.train.len() > ca.train.len() * 2,
            "US must dwarf CA (Table 5)"
        );
        let uk = generate_locale(&w, &small_cfg(), 3);
        let _ = uk; // UK spelling shift exercised in localize test below
    }

    #[test]
    fn uk_spelling_shift() {
        assert_eq!(localize("color organizer", true), "colour organiser");
        assert_eq!(localize("color", false), "color");
    }

    #[test]
    fn deterministic() {
        let w = world();
        let a = generate_locale(&w, &small_cfg(), 0);
        let b = generate_locale(&w, &small_cfg(), 0);
        assert_eq!(a.train.len(), b.train.len());
        assert_eq!(a.train[0].query, b.train[0].query);
    }

    #[test]
    fn attach_knowledge_fills_all() {
        let w = world();
        let mut ds = generate_locale(&w, &small_cfg(), 0);
        attach_knowledge(&mut ds, |q, _| format!("intent of {q}"));
        assert!(ds.train.iter().all(|e| !e.knowledge.is_empty()));
        assert!(ds.test.iter().all(|e| !e.knowledge.is_empty()));
    }
}
