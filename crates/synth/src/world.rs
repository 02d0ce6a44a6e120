//! The synthetic e-commerce world model.
//!
//! A [`World`] is a fully materialised, seeded universe: 18 domains of
//! product types, each with a **ground-truth intent profile** (which
//! intentions, under which of the 15 relations, with which typicality
//! weight, explain buying this kind of product), a complement graph
//! (ground-truth co-purchase structure), Zipf-popular products, and search
//! queries ranging from broad intent queries ("camping") to specific
//! product-type queries ("air mattress").
//!
//! Everything downstream — teacher generations, annotation oracles, critic
//! labels, student evaluation, the ESCI and session datasets — derives from
//! these profiles, which is what makes the pipeline *measurable*: we know
//! which knowledge is typical because the world says so.

use crate::domain::{DomainId, BODY_PARTS, BRANDS, MODIFIERS, SPECS, TIMES};
use crate::util::{sample_weighted, zipf_weight};
use cosmo_kg::Relation;
use cosmo_text::{canonicalize_tail, FxHashMap};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Handle to an intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntentId(pub u32);

/// Handle to a product type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProductTypeId(pub u32);

/// Handle to a product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProductId(pub u32);

/// Handle to a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

/// A ground-truth intention: a relation-typed tail phrase rooted in one
/// domain's lexicon.
#[derive(Debug, Clone)]
pub struct Intent {
    /// Relation under which this tail explains behaviour.
    pub relation: Relation,
    /// Canonicalised tail phrase ("walking the dog").
    pub tail: String,
    /// Home domain.
    pub domain: DomainId,
}

/// A product type with its ground-truth intent profile.
#[derive(Debug, Clone)]
pub struct ProductType {
    /// Display name ("portable air mattress").
    pub name: String,
    /// Base noun ("air mattress").
    pub base: String,
    /// Home domain.
    pub domain: DomainId,
    /// `(intent, typicality weight)` — weight in `(0,1]`; ≥ 0.5 counts as
    /// a *typical* reason to buy this type.
    pub profile: Vec<(IntentId, f32)>,
    /// Ground-truth complementary types (co-purchase structure).
    pub complements: Vec<ProductTypeId>,
}

impl ProductType {
    /// Profile weight of an intent (0 when absent).
    pub fn weight_of(&self, intent: IntentId) -> f32 {
        self.profile
            .iter()
            .find(|(i, _)| *i == intent)
            .map_or(0.0, |(_, w)| *w)
    }
}

/// A concrete product.
#[derive(Debug, Clone)]
pub struct Product {
    /// Product type.
    pub ptype: ProductTypeId,
    /// Title shown to users ("acme portable air mattress").
    pub title: String,
    /// Zipf popularity weight (unnormalised).
    pub popularity: f64,
}

/// How a query was generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Broad intent query ("camping") — the semantic-gap case the paper
    /// says is most valuable to generate knowledge for.
    Broad(IntentId),
    /// Specific product-type query ("air mattress").
    Specific(ProductTypeId),
}

/// A search query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Surface text.
    pub text: String,
    /// Home domain.
    pub domain: DomainId,
    /// Generation provenance (ground truth, hidden from the pipeline).
    pub kind: QueryKind,
    /// Ground-truth specificity in `(0,1]` (1 = fully specific).
    pub specificity: f32,
    /// Engagement level in `(0,1]` (click volume proxy).
    pub engagement: f32,
    /// Product types that genuinely satisfy the query.
    pub target_types: Vec<ProductTypeId>,
}

/// World generation parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// RNG seed: the whole world is a pure function of this config.
    pub seed: u64,
    /// Derived product-type variants per base noun (1 = bases only).
    pub variants_per_base: usize,
    /// Products per product type.
    pub products_per_type: usize,
    /// Zipf exponent for product popularity.
    pub zipf_exponent: f64,
    /// Extra fringe intents per product type (low-weight, plausible but
    /// atypical knowledge the filters and critics must grade down).
    pub fringe_intents: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0x000C_0530,
            variants_per_base: 2,
            products_per_type: 6,
            zipf_exponent: 0.8,
            fringe_intents: 2,
        }
    }
}

impl WorldConfig {
    /// A small world for unit tests (fast to build).
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            seed,
            variants_per_base: 1,
            products_per_type: 2,
            zipf_exponent: 0.8,
            fringe_intents: 1,
        }
    }
}

/// The generated world.
#[derive(Debug)]
pub struct World {
    /// Generation parameters.
    pub config: WorldConfig,
    /// All intents.
    pub intents: Vec<Intent>,
    /// All product types.
    pub product_types: Vec<ProductType>,
    /// All products.
    pub products: Vec<Product>,
    /// All queries.
    pub queries: Vec<Query>,
    intent_index: FxHashMap<(Relation, String), IntentId>,
    types_by_domain: Vec<Vec<ProductTypeId>>,
    products_by_type: Vec<Vec<ProductId>>,
    products_by_domain: Vec<Vec<ProductId>>,
    queries_by_domain: Vec<Vec<QueryId>>,
}

impl World {
    /// Generate a world from `config` (deterministic per seed).
    pub fn generate(config: WorldConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut w = World {
            config,
            intents: Vec::new(),
            product_types: Vec::new(),
            products: Vec::new(),
            queries: Vec::new(),
            intent_index: FxHashMap::default(),
            types_by_domain: vec![Vec::new(); SPECS.len()],
            products_by_type: Vec::new(),
            products_by_domain: vec![Vec::new(); SPECS.len()],
            queries_by_domain: vec![Vec::new(); SPECS.len()],
        };
        w.build_intents();
        w.build_product_types(&mut rng);
        w.build_complements(&mut rng);
        w.build_products(&mut rng);
        w.build_queries(&mut rng);
        w
    }

    /// Intern an intent (idempotent per `(relation, canonical tail)`).
    fn intern_intent(&mut self, relation: Relation, tail: &str, domain: DomainId) -> IntentId {
        let canon = canonicalize_tail(tail);
        if let Some(&id) = self.intent_index.get(&(relation, canon.clone())) {
            return id;
        }
        let id = IntentId(self.intents.len() as u32);
        self.intents.push(Intent {
            relation,
            tail: canon.clone(),
            domain,
        });
        self.intent_index.insert((relation, canon), id);
        id
    }

    fn build_intents(&mut self) {
        for domain in DomainId::all() {
            let spec = domain.spec();
            // Functions rotate across the three function-typed relations so
            // the same bank yields distinct (relation, tail) intents.
            let func_rels = [Relation::UsedForFunc, Relation::CapableOf, Relation::UsedTo];
            for (i, &f) in spec.functions.iter().enumerate() {
                self.intern_intent(func_rels[i % 3], f, domain);
            }
            for &e in spec.events {
                self.intern_intent(Relation::UsedForEve, e, domain);
            }
            let aud_rels = [Relation::UsedBy, Relation::UsedForAud, Relation::XIsA];
            for (i, &a) in spec.audiences.iter().enumerate() {
                self.intern_intent(aud_rels[i % 3], a, domain);
            }
            for &l in spec.locations {
                self.intern_intent(Relation::UsedInLoc, l, domain);
            }
            for &i in spec.interests {
                self.intern_intent(Relation::XInterestedIn, i, domain);
            }
            for &a in spec.activities {
                self.intern_intent(Relation::XWant, a, domain);
            }
            for (i, &t) in TIMES.iter().enumerate() {
                // Each domain carries a subset of the global time bank.
                if (i + domain.0 as usize).is_multiple_of(2) {
                    self.intern_intent(Relation::UsedOn, t, domain);
                }
            }
            // Body-part intents only where they make sense.
            if matches!(domain.0, 0 | 9 | 11) {
                for &b in BODY_PARTS {
                    self.intern_intent(Relation::UsedInBody, b, domain);
                }
            }
            // IS_A concept intents from the base nouns.
            for &b in spec.bases {
                self.intern_intent(Relation::IsA, b, domain);
                self.intern_intent(Relation::UsedAs, b, domain);
            }
        }
    }

    /// Intents of a domain under a relation.
    fn domain_intents(&self, domain: DomainId, relation: Relation) -> Vec<IntentId> {
        self.intents
            .iter()
            .enumerate()
            .filter(|(_, i)| i.domain == domain && i.relation == relation)
            .map(|(i, _)| IntentId(i as u32))
            .collect()
    }

    fn build_product_types(&mut self, rng: &mut StdRng) {
        for domain in DomainId::all() {
            let spec = domain.spec();
            for &base in spec.bases {
                for variant in 0..self.config.variants_per_base.max(1) {
                    let name = if variant == 0 {
                        base.to_string()
                    } else {
                        let m = MODIFIERS[rng.gen_range(0..MODIFIERS.len())];
                        format!("{m} {base}")
                    };
                    let profile = self.sample_profile(domain, base, rng);
                    let id = ProductTypeId(self.product_types.len() as u32);
                    self.product_types.push(ProductType {
                        name,
                        base: base.to_string(),
                        domain,
                        profile,
                        complements: Vec::new(),
                    });
                    self.types_by_domain[domain.0 as usize].push(id);
                }
            }
        }
    }

    fn sample_profile(
        &mut self,
        domain: DomainId,
        base: &str,
        rng: &mut StdRng,
    ) -> Vec<(IntentId, f32)> {
        let mut profile: Vec<(IntentId, f32)> = Vec::new();
        let add_from = |w: &mut World,
                        rels: &[Relation],
                        count: usize,
                        weights: &[f32],
                        rng: &mut StdRng,
                        profile: &mut Vec<(IntentId, f32)>| {
            let mut pool: Vec<IntentId> = rels
                .iter()
                .flat_map(|&r| w.domain_intents(domain, r))
                .collect();
            pool.shuffle(rng);
            for (k, id) in pool.into_iter().take(count).enumerate() {
                let base_w = weights[k.min(weights.len() - 1)];
                let jitter = rng.gen_range(-0.05f32..0.05);
                let w_final = (base_w + jitter).clamp(0.15, 1.0);
                if !profile.iter().any(|(i, _)| *i == id) {
                    profile.push((id, w_final));
                }
            }
        };
        add_from(
            self,
            &[Relation::UsedForFunc, Relation::CapableOf, Relation::UsedTo],
            3,
            &[0.9, 0.65, 0.35],
            rng,
            &mut profile,
        );
        add_from(
            self,
            &[Relation::UsedForEve],
            2,
            &[0.8, 0.45],
            rng,
            &mut profile,
        );
        add_from(
            self,
            &[Relation::UsedBy, Relation::UsedForAud, Relation::XIsA],
            2,
            &[0.7, 0.4],
            rng,
            &mut profile,
        );
        add_from(self, &[Relation::UsedInLoc], 1, &[0.6], rng, &mut profile);
        add_from(self, &[Relation::UsedOn], 1, &[0.4], rng, &mut profile);
        add_from(
            self,
            &[Relation::XInterestedIn],
            1,
            &[0.5],
            rng,
            &mut profile,
        );
        add_from(self, &[Relation::XWant], 1, &[0.6], rng, &mut profile);
        if matches!(domain.0, 0 | 9 | 11) {
            add_from(self, &[Relation::UsedInBody], 1, &[0.5], rng, &mut profile);
        }
        // The type's own concept identity is maximally typical.
        let isa = self.intern_intent(Relation::IsA, base, domain);
        profile.push((isa, 1.0));
        // Fringe intents: plausible-but-atypical knowledge.
        let fringe = self.config.fringe_intents;
        add_from(
            self,
            &[
                Relation::UsedForEve,
                Relation::XWant,
                Relation::XInterestedIn,
            ],
            fringe,
            &[0.2],
            rng,
            &mut profile,
        );
        profile
    }

    fn build_complements(&mut self, rng: &mut StdRng) {
        for domain in DomainId::all() {
            let ids = self.types_by_domain[domain.0 as usize].clone();
            for &tid in &ids {
                let n_comp = rng.gen_range(1..=3usize);
                // Prefer complements sharing an intent; fall back to random
                // same-domain types.
                let my_intents: Vec<IntentId> = self.product_types[tid.0 as usize]
                    .profile
                    .iter()
                    .map(|(i, _)| *i)
                    .collect();
                let mut scored: Vec<(ProductTypeId, usize)> = ids
                    .iter()
                    .filter(|&&o| {
                        o != tid
                            && self.product_types[o.0 as usize].base
                                != self.product_types[tid.0 as usize].base
                    })
                    .map(|&o| {
                        let shared = self.product_types[o.0 as usize]
                            .profile
                            .iter()
                            .filter(|(i, _)| my_intents.contains(i))
                            .count();
                        (o, shared)
                    })
                    .collect();
                scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let chosen: Vec<ProductTypeId> =
                    scored.into_iter().take(n_comp).map(|(o, _)| o).collect();
                for o in chosen {
                    if !self.product_types[tid.0 as usize].complements.contains(&o) {
                        self.product_types[tid.0 as usize].complements.push(o);
                    }
                    if !self.product_types[o.0 as usize].complements.contains(&tid) {
                        self.product_types[o.0 as usize].complements.push(tid);
                    }
                    // Record the UsedWith intent both ways.
                    let o_base = self.product_types[o.0 as usize].base.clone();
                    let t_base = self.product_types[tid.0 as usize].base.clone();
                    let iw1 = self.intern_intent(Relation::UsedWith, &o_base, domain);
                    let iw2 = self.intern_intent(Relation::UsedWith, &t_base, domain);
                    if self.product_types[tid.0 as usize].weight_of(iw1) == 0.0 {
                        self.product_types[tid.0 as usize].profile.push((iw1, 0.7));
                    }
                    if self.product_types[o.0 as usize].weight_of(iw2) == 0.0 {
                        self.product_types[o.0 as usize].profile.push((iw2, 0.7));
                    }
                }
            }
        }
    }

    fn build_products(&mut self, rng: &mut StdRng) {
        self.products_by_type = vec![Vec::new(); self.product_types.len()];
        for domain in DomainId::all() {
            let type_ids = self.types_by_domain[domain.0 as usize].clone();
            let mut domain_products: Vec<ProductId> = Vec::new();
            for tid in type_ids {
                for _ in 0..self.config.products_per_type {
                    let brand = BRANDS[rng.gen_range(0..BRANDS.len())];
                    let tname = &self.product_types[tid.0 as usize].name;
                    let title = if rng.gen_bool(0.4) {
                        let m = MODIFIERS[rng.gen_range(0..MODIFIERS.len())];
                        format!("{brand} {m} {tname}")
                    } else {
                        format!("{brand} {tname}")
                    };
                    let pid = ProductId(self.products.len() as u32);
                    self.products.push(Product {
                        ptype: tid,
                        title,
                        popularity: 0.0,
                    });
                    self.products_by_type[tid.0 as usize].push(pid);
                    domain_products.push(pid);
                }
            }
            // Zipf popularity over a random permutation of the domain.
            domain_products.shuffle(rng);
            for (rank, pid) in domain_products.iter().enumerate() {
                self.products[pid.0 as usize].popularity =
                    zipf_weight(rank + 1, self.config.zipf_exponent);
            }
            self.products_by_domain[domain.0 as usize] = domain_products;
        }
    }

    fn build_queries(&mut self, rng: &mut StdRng) {
        for domain in DomainId::all() {
            // Broad queries from event / audience / activity / function intents.
            let broad_rels = [
                Relation::UsedForEve,
                Relation::UsedBy,
                Relation::XWant,
                Relation::UsedForFunc,
                Relation::XInterestedIn,
            ];
            for rel in broad_rels {
                for iid in self.domain_intents(domain, rel) {
                    let targets: Vec<ProductTypeId> = self.types_by_domain[domain.0 as usize]
                        .iter()
                        .copied()
                        .filter(|&t| self.product_types[t.0 as usize].weight_of(iid) >= 0.35)
                        .collect();
                    if targets.is_empty() {
                        continue;
                    }
                    let tail = self.intents[iid.0 as usize].tail.clone();
                    let text = broad_query_text(&tail);
                    let specificity = (1.0 / (1.0 + targets.len() as f32)).clamp(0.05, 0.6);
                    let engagement = rng.gen_range(0.2f32..1.0);
                    let qid = QueryId(self.queries.len() as u32);
                    self.queries.push(Query {
                        text,
                        domain,
                        kind: QueryKind::Broad(iid),
                        specificity,
                        engagement,
                        target_types: targets,
                    });
                    self.queries_by_domain[domain.0 as usize].push(qid);
                }
            }
            // Specific queries: one per product type.
            for &tid in &self.types_by_domain[domain.0 as usize].clone() {
                let text = self.product_types[tid.0 as usize].name.clone();
                let engagement = rng.gen_range(0.3f32..1.0);
                let qid = QueryId(self.queries.len() as u32);
                self.queries.push(Query {
                    text,
                    domain,
                    kind: QueryKind::Specific(tid),
                    specificity: rng.gen_range(0.8f32..0.98),
                    engagement,
                    target_types: vec![tid],
                });
                self.queries_by_domain[domain.0 as usize].push(qid);
            }
        }
    }

    // ------------------------------------------------------------ accessors

    /// Product payload.
    pub fn product(&self, id: ProductId) -> &Product {
        &self.products[id.0 as usize]
    }

    /// Product-type payload.
    pub fn ptype(&self, id: ProductTypeId) -> &ProductType {
        &self.product_types[id.0 as usize]
    }

    /// Product type of a product.
    pub fn ptype_of(&self, id: ProductId) -> &ProductType {
        self.ptype(self.product(id).ptype)
    }

    /// Query payload.
    pub fn query(&self, id: QueryId) -> &Query {
        &self.queries[id.0 as usize]
    }

    /// Intent payload.
    pub fn intent(&self, id: IntentId) -> &Intent {
        &self.intents[id.0 as usize]
    }

    /// Products of a domain.
    pub fn products_in_domain(&self, d: DomainId) -> &[ProductId] {
        &self.products_by_domain[d.0 as usize]
    }

    /// Product types of a domain.
    pub fn types_in_domain(&self, d: DomainId) -> &[ProductTypeId] {
        &self.types_by_domain[d.0 as usize]
    }

    /// Queries of a domain.
    pub fn queries_in_domain(&self, d: DomainId) -> &[QueryId] {
        &self.queries_by_domain[d.0 as usize]
    }

    /// Products of a type.
    pub fn products_of_type(&self, t: ProductTypeId) -> &[ProductId] {
        &self.products_by_type[t.0 as usize]
    }

    /// Look up an intent by `(relation, raw tail)` (tail is canonicalised).
    pub fn lookup_intent(&self, relation: Relation, tail: &str) -> Option<IntentId> {
        self.intent_index
            .get(&(relation, canonicalize_tail(tail)))
            .copied()
    }

    /// Sample a product in a domain proportional to popularity.
    pub fn sample_product(&self, d: DomainId, rng: &mut impl Rng) -> ProductId {
        let ids = &self.products_by_domain[d.0 as usize];
        let weights: Vec<f64> = ids.iter().map(|p| self.product(*p).popularity).collect();
        ids[sample_weighted(&weights, rng)]
    }

    /// Sample a query in a domain proportional to engagement.
    pub fn sample_query(&self, d: DomainId, rng: &mut impl Rng) -> QueryId {
        let ids = &self.queries_by_domain[d.0 as usize];
        let weights: Vec<f64> = ids
            .iter()
            .map(|q| self.query(*q).engagement as f64)
            .collect();
        ids[sample_weighted(&weights, rng)]
    }
}

/// Strip a leading article so intent tails read like queries
/// ("a wedding party" → "wedding party").
fn broad_query_text(tail: &str) -> String {
    for prefix in ["a ", "an ", "the "] {
        if let Some(rest) = tail.strip_prefix(prefix) {
            return rest.to_string();
        }
    }
    tail.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> World {
        World::generate(WorldConfig::tiny(7))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.products.len(), b.products.len());
        assert_eq!(a.queries.len(), b.queries.len());
        assert_eq!(a.products[5].title, b.products[5].title);
        assert_eq!(a.queries[3].text, b.queries[3].text);
    }

    #[test]
    fn all_domains_populated() {
        let w = tiny();
        for d in DomainId::all() {
            assert!(!w.types_in_domain(d).is_empty(), "{}", d.name());
            assert!(!w.products_in_domain(d).is_empty(), "{}", d.name());
            assert!(!w.queries_in_domain(d).is_empty(), "{}", d.name());
        }
    }

    #[test]
    fn profiles_have_typical_and_fringe() {
        let w = tiny();
        for pt in &w.product_types {
            assert!(
                pt.profile.iter().any(|(_, wt)| *wt >= 0.5),
                "{} has no typical intent",
                pt.name
            );
            assert!(pt.profile.len() >= 5, "{} profile too small", pt.name);
            // no duplicate intents
            let mut ids: Vec<u32> = pt.profile.iter().map(|(i, _)| i.0).collect();
            ids.sort_unstable();
            let n = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), n, "{} has duplicate profile intents", pt.name);
        }
    }

    #[test]
    fn complements_are_symmetric_and_in_profile() {
        let w = tiny();
        for (i, pt) in w.product_types.iter().enumerate() {
            for &c in &pt.complements {
                assert!(
                    w.ptype(c).complements.contains(&ProductTypeId(i as u32)),
                    "complement graph must be symmetric"
                );
            }
        }
    }

    #[test]
    fn broad_queries_have_multiple_targets_and_low_specificity() {
        let w = tiny();
        let mut saw_broad = false;
        for q in &w.queries {
            match q.kind {
                QueryKind::Broad(_) => {
                    saw_broad = true;
                    assert!(q.specificity <= 0.6, "broad query too specific: {}", q.text);
                    assert!(!q.target_types.is_empty());
                }
                QueryKind::Specific(t) => {
                    assert_eq!(q.target_types, vec![t]);
                    assert!(q.specificity >= 0.8);
                }
            }
        }
        assert!(saw_broad);
    }

    #[test]
    fn popularity_is_zipf_like() {
        let w = tiny();
        let d = DomainId(2);
        let mut pops: Vec<f64> = w
            .products_in_domain(d)
            .iter()
            .map(|p| w.product(*p).popularity)
            .collect();
        pops.sort_by(|a, b| b.total_cmp(a));
        assert!(
            pops[0] > pops[pops.len() - 1] * 2.0,
            "head should dominate tail"
        );
    }

    #[test]
    fn intent_lookup_roundtrip() {
        let w = tiny();
        for (i, intent) in w.intents.iter().enumerate() {
            assert_eq!(
                w.lookup_intent(intent.relation, &intent.tail),
                Some(IntentId(i as u32))
            );
        }
        assert_eq!(w.lookup_intent(Relation::IsA, "no such tail zzz"), None);
    }

    #[test]
    fn isa_intent_is_fully_typical() {
        let w = tiny();
        for pt in &w.product_types {
            let isa = w
                .lookup_intent(Relation::IsA, &pt.base)
                .expect("base IsA intent must exist");
            assert!(pt.weight_of(isa) >= 0.99);
        }
    }

    #[test]
    fn weighted_samplers_run() {
        let w = tiny();
        let mut rng = StdRng::seed_from_u64(3);
        let d = DomainId(1);
        let p = w.sample_product(d, &mut rng);
        assert_eq!(w.ptype_of(p).domain, d);
        let q = w.sample_query(d, &mut rng);
        assert_eq!(w.query(q).domain, d);
    }
}

/// Per-domain and global world statistics (diagnostics, docs, and the
/// generator-calibration reports).
#[derive(Debug, Clone)]
pub struct WorldSummary {
    /// Product types per domain (index = domain id).
    pub types_per_domain: Vec<usize>,
    /// Products per domain.
    pub products_per_domain: Vec<usize>,
    /// Queries per domain.
    pub queries_per_domain: Vec<usize>,
    /// Total ground-truth intents.
    pub intents: usize,
    /// Mean intent-profile size across product types.
    pub mean_profile_len: f64,
    /// Mean complements per product type.
    pub mean_complements: f64,
    /// Fraction of queries that are broad.
    pub broad_query_fraction: f64,
}

impl World {
    /// Compute the world summary.
    pub fn summary(&self) -> WorldSummary {
        let n_domains = crate::domain::SPECS.len();
        let mut types_per_domain = vec![0usize; n_domains];
        let mut products_per_domain = vec![0usize; n_domains];
        let mut queries_per_domain = vec![0usize; n_domains];
        for d in DomainId::all() {
            types_per_domain[d.0 as usize] = self.types_in_domain(d).len();
            products_per_domain[d.0 as usize] = self.products_in_domain(d).len();
            queries_per_domain[d.0 as usize] = self.queries_in_domain(d).len();
        }
        let mean_profile_len = self
            .product_types
            .iter()
            .map(|t| t.profile.len())
            .sum::<usize>() as f64
            / self.product_types.len().max(1) as f64;
        let mean_complements = self
            .product_types
            .iter()
            .map(|t| t.complements.len())
            .sum::<usize>() as f64
            / self.product_types.len().max(1) as f64;
        let broad = self
            .queries
            .iter()
            .filter(|q| matches!(q.kind, QueryKind::Broad(_)))
            .count();
        WorldSummary {
            types_per_domain,
            products_per_domain,
            queries_per_domain,
            intents: self.intents.len(),
            mean_profile_len,
            mean_complements,
            broad_query_fraction: broad as f64 / self.queries.len().max(1) as f64,
        }
    }
}

#[cfg(test)]
mod summary_tests {
    use super::*;

    #[test]
    fn summary_is_consistent_with_accessors() {
        let w = World::generate(WorldConfig::tiny(701));
        let s = w.summary();
        assert_eq!(
            s.types_per_domain.iter().sum::<usize>(),
            w.product_types.len()
        );
        assert_eq!(
            s.products_per_domain.iter().sum::<usize>(),
            w.products.len()
        );
        assert_eq!(s.queries_per_domain.iter().sum::<usize>(), w.queries.len());
        assert_eq!(s.intents, w.intents.len());
        assert!(
            s.mean_profile_len >= 5.0,
            "profiles too thin: {}",
            s.mean_profile_len
        );
        assert!(s.mean_complements >= 1.0);
        assert!(s.broad_query_fraction > 0.2 && s.broad_query_fraction < 0.9);
    }
}
