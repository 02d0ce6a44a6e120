//! User-behaviour log generation (§3.1–§3.2.1).
//!
//! The paper consumes two behaviour types: **search-buy** `(q, p)` pairs
//! (query clicked, product purchased within a short session) and **co-buy**
//! `(p1, p2)` pairs. Real logs contain "noises or non-intentional random
//! ones"; the generator therefore mixes intent-driven pairs with a
//! configurable fraction of random pairs, and the per-domain volume follows
//! the Table 3 proportions via the `cobuy_weight` / `searchbuy_weight`
//! lexicon fields.

use crate::domain::DomainId;
use crate::util::{sample_weighted, Cdf};
use crate::world::{ProductId, QueryId, World};
use cosmo_text::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One search-buy event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SearchBuy {
    /// The clicked query.
    pub query: QueryId,
    /// The purchased product.
    pub product: ProductId,
    /// Product's domain.
    pub domain: DomainId,
}

/// One co-buy event (unordered pair, stored with `p1 <= p2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoBuy {
    /// First product.
    pub p1: ProductId,
    /// Second product.
    pub p2: ProductId,
    /// Domain of `p1` (co-buys may cross domains when random).
    pub domain: DomainId,
}

/// Behaviour-log generation parameters.
#[derive(Debug, Clone)]
pub struct BehaviorConfig {
    /// RNG seed.
    pub seed: u64,
    /// Total search-buy events across all domains.
    pub total_search_buys: usize,
    /// Total co-buy events across all domains.
    pub total_cobuys: usize,
    /// Fraction of search-buys where the purchase ignores the query intent.
    pub searchbuy_noise: f64,
    /// Fraction of co-buys that are random (non-complementary) pairs.
    pub cobuy_noise: f64,
}

impl Default for BehaviorConfig {
    fn default() -> Self {
        BehaviorConfig {
            seed: 0xBEAF,
            total_search_buys: 40_000,
            total_cobuys: 60_000,
            searchbuy_noise: 0.12,
            cobuy_noise: 0.15,
        }
    }
}

impl BehaviorConfig {
    /// Small log for unit tests.
    pub fn tiny(seed: u64) -> Self {
        BehaviorConfig {
            seed,
            total_search_buys: 1_500,
            total_cobuys: 2_000,
            searchbuy_noise: 0.12,
            cobuy_noise: 0.15,
        }
    }
}

/// A generated behaviour log with aggregation indexes.
#[derive(Debug)]
pub struct BehaviorLog {
    /// All search-buy events.
    pub search_buys: Vec<SearchBuy>,
    /// All co-buy events.
    pub cobuys: Vec<CoBuy>,
    /// Event count per `(query, product)` pair.
    pub searchbuy_counts: FxHashMap<(QueryId, ProductId), u32>,
    /// Event count per co-buy pair (`p1 <= p2`).
    pub cobuy_counts: FxHashMap<(ProductId, ProductId), u32>,
    /// Degree of each query in the query–product interaction graph
    /// (the `pop(q)` of Eq. 2).
    pub query_degree: FxHashMap<QueryId, u32>,
    /// Degree of each product across both graphs (the `pop(p)` of Eq. 2).
    pub product_degree: FxHashMap<ProductId, u32>,
}

impl BehaviorLog {
    /// Generate a log over `world`.
    pub fn generate(world: &World, config: &BehaviorConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Per-domain volume allocation from the lexicon weights.
        let sb_weights: Vec<f64> = DomainId::all().map(|d| d.spec().searchbuy_weight).collect();
        let cb_weights: Vec<f64> = DomainId::all().map(|d| d.spec().cobuy_weight).collect();
        let sb_cdf = Cdf::new(&sb_weights);
        let cb_cdf = Cdf::new(&cb_weights);

        let mut search_buys = Vec::with_capacity(config.total_search_buys);
        for _ in 0..config.total_search_buys {
            let d = DomainId(sb_cdf.sample(&mut rng) as u8);
            let q = world.sample_query(d, &mut rng);
            let product = if rng.gen_bool(config.searchbuy_noise) {
                // noise: popularity-driven purchase unrelated to the query
                world.sample_product(d, &mut rng)
            } else {
                // intent-driven: buy from one of the query's target types
                let targets = &world.query(q).target_types;
                let t = targets[rng.gen_range(0..targets.len())];
                let prods = world.products_of_type(t);
                let weights: Vec<f64> =
                    prods.iter().map(|p| world.product(*p).popularity).collect();
                prods[sample_weighted(&weights, &mut rng)]
            };
            search_buys.push(SearchBuy {
                query: q,
                product,
                domain: d,
            });
        }

        let mut cobuys = Vec::with_capacity(config.total_cobuys);
        for _ in 0..config.total_cobuys {
            let d = DomainId(cb_cdf.sample(&mut rng) as u8);
            let p1 = world.sample_product(d, &mut rng);
            let p2 = if rng.gen_bool(config.cobuy_noise) {
                // random co-purchase, occasionally cross-domain
                let d2 = if rng.gen_bool(0.3) {
                    DomainId(cb_cdf.sample(&mut rng) as u8)
                } else {
                    d
                };
                world.sample_product(d2, &mut rng)
            } else {
                // complementary co-purchase
                let t1 = world.product(p1).ptype;
                let comps = &world.ptype(t1).complements;
                if comps.is_empty() {
                    world.sample_product(d, &mut rng)
                } else {
                    let t2 = comps[rng.gen_range(0..comps.len())];
                    let prods = world.products_of_type(t2);
                    let weights: Vec<f64> =
                        prods.iter().map(|p| world.product(*p).popularity).collect();
                    prods[sample_weighted(&weights, &mut rng)]
                }
            };
            if p1 == p2 {
                continue;
            }
            let (a, b) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            cobuys.push(CoBuy {
                p1: a,
                p2: b,
                domain: d,
            });
        }

        let mut log = BehaviorLog {
            search_buys,
            cobuys,
            searchbuy_counts: FxHashMap::default(),
            cobuy_counts: FxHashMap::default(),
            query_degree: FxHashMap::default(),
            product_degree: FxHashMap::default(),
        };
        log.aggregate();
        log
    }

    fn aggregate(&mut self) {
        for sb in &self.search_buys {
            *self
                .searchbuy_counts
                .entry((sb.query, sb.product))
                .or_insert(0) += 1;
        }
        for cb in &self.cobuys {
            *self.cobuy_counts.entry((cb.p1, cb.p2)).or_insert(0) += 1;
        }
        // DETERMINISM: integer `+=` into per-key counters is commutative;
        // the final degree maps do not depend on key visit order.
        for &(q, p) in self.searchbuy_counts.keys() {
            *self.query_degree.entry(q).or_insert(0) += 1;
            *self.product_degree.entry(p).or_insert(0) += 1;
        }
        // DETERMINISM: commutative integer accumulation, as above.
        for &(a, b) in self.cobuy_counts.keys() {
            *self.product_degree.entry(a).or_insert(0) += 1;
            *self.product_degree.entry(b).or_insert(0) += 1;
        }
    }

    /// Distinct `(query, product)` pairs (the "behaviour pairs" of Table 3).
    pub fn distinct_searchbuy_pairs(&self) -> usize {
        self.searchbuy_counts.len()
    }

    /// Distinct co-buy pairs.
    pub fn distinct_cobuy_pairs(&self) -> usize {
        self.cobuy_counts.len()
    }

    /// `pop(q)`: query degree (≥ 1 for observed queries).
    pub fn pop_query(&self, q: QueryId) -> u32 {
        self.query_degree.get(&q).copied().unwrap_or(0).max(1)
    }

    /// `pop(p)`: product degree.
    pub fn pop_product(&self, p: ProductId) -> u32 {
        self.product_degree.get(&p).copied().unwrap_or(0).max(1)
    }
}

/// The "in-house service from Amazon Search" that scores query specificity
/// (§3.2.1) — a noisy view of the world's ground-truth specificity.
#[derive(Debug)]
pub struct SpecificityService {
    noise: f32,
    seed: u64,
}

impl SpecificityService {
    /// Service with ±`noise` uniform measurement error.
    pub fn new(seed: u64, noise: f32) -> Self {
        SpecificityService { noise, seed }
    }

    /// Score a query (deterministic per query id).
    pub fn score(&self, world: &World, q: QueryId) -> f32 {
        let truth = world.query(q).specificity;
        // hash-seeded jitter keeps the service deterministic per query
        let mut rng = StdRng::seed_from_u64(self.seed ^ (q.0 as u64).wrapping_mul(0x9E37_79B9));
        (truth + rng.gen_range(-self.noise..=self.noise)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn setup() -> (World, BehaviorLog) {
        let world = World::generate(WorldConfig::tiny(1));
        let log = BehaviorLog::generate(&world, &BehaviorConfig::tiny(2));
        (world, log)
    }

    #[test]
    fn log_sizes_match_config() {
        let (_, log) = setup();
        assert_eq!(log.search_buys.len(), 1_500);
        // co-buys may skip self-pairs, so allow slight shortfall
        assert!(log.cobuys.len() > 1_900);
    }

    #[test]
    fn deterministic_per_seed() {
        let world = World::generate(WorldConfig::tiny(1));
        let a = BehaviorLog::generate(&world, &BehaviorConfig::tiny(2));
        let b = BehaviorLog::generate(&world, &BehaviorConfig::tiny(2));
        assert_eq!(a.search_buys, b.search_buys);
        assert_eq!(a.cobuys, b.cobuys);
    }

    #[test]
    fn most_searchbuys_hit_target_types() {
        let (world, log) = setup();
        let on_target = log
            .search_buys
            .iter()
            .filter(|sb| {
                world
                    .query(sb.query)
                    .target_types
                    .contains(&world.product(sb.product).ptype)
            })
            .count();
        let frac = on_target as f64 / log.search_buys.len() as f64;
        assert!(frac > 0.8, "on-target fraction {frac} too low");
        assert!(frac < 1.0, "noise should produce some off-target purchases");
    }

    #[test]
    fn most_cobuys_are_complementary() {
        let (world, log) = setup();
        let comp = log
            .cobuys
            .iter()
            .filter(|cb| {
                let t1 = world.product(cb.p1).ptype;
                let t2 = world.product(cb.p2).ptype;
                world.ptype(t1).complements.contains(&t2)
            })
            .count();
        let frac = comp as f64 / log.cobuys.len() as f64;
        assert!(frac > 0.6, "complementary fraction {frac} too low");
    }

    #[test]
    fn cobuy_pairs_are_canonical() {
        let (_, log) = setup();
        for cb in &log.cobuys {
            assert!(cb.p1 < cb.p2);
        }
    }

    #[test]
    fn degrees_cover_observed_entities() {
        let (_, log) = setup();
        for sb in &log.search_buys {
            assert!(log.pop_query(sb.query) >= 1);
            assert!(log.pop_product(sb.product) >= 1);
        }
    }

    /// Byte-identity lock for the `// DETERMINISM:` contracts in
    /// [`BehaviorLog::aggregate`]: the degree maps are built by iterating
    /// `searchbuy_counts` / `cobuy_counts` in hash-table order, and the
    /// justification claims the result cannot depend on that order. Rerun
    /// aggregation with reversed event order AND a different table
    /// capacity history (both change FxHashMap iteration order) and
    /// require identical degree maps.
    #[test]
    fn aggregate_is_iteration_order_insensitive() {
        let (_, log) = setup();

        let mut reordered = BehaviorLog {
            search_buys: log.search_buys.iter().rev().cloned().collect(),
            cobuys: log.cobuys.iter().rev().cloned().collect(),
            searchbuy_counts: FxHashMap::default(),
            cobuy_counts: FxHashMap::default(),
            query_degree: FxHashMap::default(),
            product_degree: FxHashMap::default(),
        };
        // A large pre-reserve gives the tables a different capacity
        // history than the incrementally-grown originals, reshuffling
        // SwissTable slot order even for identical key sets.
        reordered.searchbuy_counts.reserve(1 << 14);
        reordered.cobuy_counts.reserve(1 << 14);
        reordered.aggregate();

        assert_eq!(log.searchbuy_counts, reordered.searchbuy_counts);
        assert_eq!(log.cobuy_counts, reordered.cobuy_counts);
        assert_eq!(log.query_degree, reordered.query_degree);
        assert_eq!(log.product_degree, reordered.product_degree);
    }

    #[test]
    fn domain_volumes_follow_weights() {
        let (_, log) = setup();
        let mut counts = [0usize; 18];
        for cb in &log.cobuys {
            counts[cb.domain.0 as usize] += 1;
        }
        // Home & Kitchen (2) should far exceed Video Games (13)
        assert!(
            counts[2] > counts[13] * 3,
            "hk={} vg={}",
            counts[2],
            counts[13]
        );
    }

    #[test]
    fn specificity_service_is_noisy_but_deterministic() {
        let (world, _) = setup();
        let svc = SpecificityService::new(9, 0.1);
        let q = QueryId(0);
        let s1 = svc.score(&world, q);
        let s2 = svc.score(&world, q);
        assert_eq!(s1, s2);
        assert!((0.0..=1.0).contains(&s1));
    }
}
