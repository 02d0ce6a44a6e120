//! User-behaviour sampling (§3.2.1).
//!
//! "Huge-volume behaviors contain noises or are non-intentional random
//! ones" — so COSMO performs fine-grained sampling before prompting the
//! teacher. This module implements each strategy the paper lists:
//!
//! * **Product sampling**: top-tier products with relatively large
//!   interaction volume, covering the popular categories; product-type
//!   labels are used to de-duplicate at the abstract level.
//! * **Co-buy pair sampling**: each edge must cover at least one selected
//!   product; product types are cross-checked and per-type-pair quotas
//!   avoid duplicated sampling "from the abstract level"; singleton
//!   cross-domain pairs are dropped as likely random.
//! * **Search-buy pair sampling**: thresholds on click/purchase engagement;
//!   the in-house specificity service is used to *prefer broad queries*
//!   (the semantic-gap case where generated knowledge is most valuable),
//!   while also keeping a slice of low-engagement queries to probe the LLM
//!   directly.

use cosmo_synth::{BehaviorLog, ProductId, ProductTypeId, QueryId, SpecificityService, World};
use cosmo_text::{FxHashMap, FxHashSet};

/// Sampling strategy parameters.
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Keep products whose interaction degree is in the top fraction
    /// (e.g. 0.6 keeps the most-interacted 60%).
    pub top_product_fraction: f64,
    /// Max sampled co-buy pairs per product-type pair (abstract dedup).
    pub max_pairs_per_type_pair: usize,
    /// Drop cross-domain co-buy pairs observed only once.
    pub drop_singleton_cross_domain: bool,
    /// Minimum query engagement to pass the engagement threshold.
    pub min_engagement: f32,
    /// Queries at or below this specificity count as broad.
    pub broad_specificity: f32,
    /// Fraction of the search-buy sample reserved for broad queries.
    pub broad_fraction: f64,
    /// Fraction reserved for low-engagement probe queries.
    pub probe_fraction: f64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            top_product_fraction: 0.7,
            max_pairs_per_type_pair: 40,
            drop_singleton_cross_domain: true,
            min_engagement: 0.3,
            broad_specificity: 0.45,
            broad_fraction: 0.6,
            probe_fraction: 0.1,
        }
    }
}

/// The selected behaviour pairs that will be prompted to the teacher.
#[derive(Debug)]
pub struct SampledBehaviors {
    /// Selected co-buy pairs (`p1 <= p2`).
    pub cobuys: Vec<(ProductId, ProductId)>,
    /// Selected search-buy pairs.
    pub search_buys: Vec<(QueryId, ProductId)>,
    /// Stage-by-stage counts for reporting.
    pub report: SamplingReport,
}

/// Funnel counts per stage.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SamplingReport {
    /// Distinct co-buy pairs in the raw log.
    pub cobuy_pairs_in: usize,
    /// After top-product coverage check.
    pub cobuy_after_product: usize,
    /// After cross-domain singleton rule.
    pub cobuy_after_random_rule: usize,
    /// After abstract-level (type-pair) dedup quotas.
    pub cobuy_selected: usize,
    /// Distinct search-buy pairs in the raw log.
    pub searchbuy_pairs_in: usize,
    /// After engagement thresholds.
    pub searchbuy_after_engagement: usize,
    /// Selected (broad-preferred) pairs.
    pub searchbuy_selected: usize,
    /// How many selected search-buy pairs have broad queries.
    pub broad_selected: usize,
}

/// Run the sampling strategies over a behaviour log.
pub fn sample_behaviors(
    world: &World,
    log: &BehaviorLog,
    specificity: &SpecificityService,
    cfg: &SamplingConfig,
) -> SampledBehaviors {
    let mut report = SamplingReport::default();

    // ---- product sampling: top-tier by interaction degree
    let mut degrees: Vec<u32> = log.product_degree.values().copied().collect();
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    let cut_idx = ((degrees.len() as f64) * cfg.top_product_fraction).ceil() as usize;
    let min_degree = degrees
        .get(
            cut_idx
                .saturating_sub(1)
                .min(degrees.len().saturating_sub(1)),
        )
        .copied()
        .unwrap_or(0);
    let selected_products: FxHashSet<ProductId> = log
        .product_degree
        .iter()
        .filter(|(_, &d)| d >= min_degree.max(1))
        .map(|(&p, _)| p)
        .collect();

    // ---- co-buy pair sampling
    let mut cobuy_pairs: Vec<(ProductId, ProductId, u32)> = log
        .cobuy_counts
        .iter()
        .map(|(&(a, b), &c)| (a, b, c))
        .collect();
    report.cobuy_pairs_in = cobuy_pairs.len();
    // deterministic order: by count desc then ids
    cobuy_pairs.sort_by(|x, y| y.2.cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1))));

    // coverage: at least one selected product
    cobuy_pairs.retain(|(a, b, _)| selected_products.contains(a) || selected_products.contains(b));
    report.cobuy_after_product = cobuy_pairs.len();

    // heuristic: singleton cross-domain pairs are likely random
    if cfg.drop_singleton_cross_domain {
        cobuy_pairs
            .retain(|(a, b, c)| *c > 1 || world.ptype_of(*a).domain == world.ptype_of(*b).domain);
    }
    report.cobuy_after_random_rule = cobuy_pairs.len();

    // abstract-level dedup: quota per product-type pair
    let mut type_pair_counts: FxHashMap<(ProductTypeId, ProductTypeId), usize> =
        FxHashMap::default();
    let mut cobuys = Vec::new();
    for (a, b, _) in cobuy_pairs {
        let (t1, t2) = (world.product(a).ptype, world.product(b).ptype);
        let key = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let slot = type_pair_counts.entry(key).or_insert(0);
        if *slot < cfg.max_pairs_per_type_pair {
            *slot += 1;
            cobuys.push((a, b));
        }
    }
    report.cobuy_selected = cobuys.len();

    // ---- search-buy pair sampling
    let mut sb_pairs: Vec<(QueryId, ProductId, u32)> = log
        .searchbuy_counts
        .iter()
        .map(|(&(q, p), &c)| (q, p, c))
        .collect();
    report.searchbuy_pairs_in = sb_pairs.len();
    sb_pairs.sort_by(|x, y| y.2.cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1))));

    let engaged: Vec<(QueryId, ProductId, u32)> = sb_pairs
        .iter()
        .copied()
        .filter(|(q, _, _)| world.query(*q).engagement >= cfg.min_engagement)
        .collect();
    report.searchbuy_after_engagement = engaged.len();

    // broad-query preference via the specificity service
    let mut broad: Vec<(QueryId, ProductId)> = Vec::new();
    let mut specific: Vec<(QueryId, ProductId)> = Vec::new();
    for (q, p, _) in &engaged {
        if specificity.score(world, *q) <= cfg.broad_specificity {
            broad.push((*q, *p));
        } else {
            specific.push((*q, *p));
        }
    }
    // probe slice: low-engagement queries, sampled even below the threshold
    let probes: Vec<(QueryId, ProductId)> = sb_pairs
        .iter()
        .filter(|(q, _, _)| world.query(*q).engagement < cfg.min_engagement)
        .map(|(q, p, _)| (*q, *p))
        .collect();

    let budget = engaged.len();
    let broad_budget = ((budget as f64) * cfg.broad_fraction) as usize;
    let probe_budget = ((budget as f64) * cfg.probe_fraction) as usize;
    let mut search_buys: Vec<(QueryId, ProductId)> = Vec::new();
    search_buys.extend(
        broad
            .iter()
            .copied()
            .take(broad_budget.max(broad.len().min(broad_budget))),
    );
    let taken_broad = search_buys.len();
    search_buys.extend(
        specific
            .iter()
            .copied()
            .take(budget.saturating_sub(taken_broad)),
    );
    search_buys.extend(probes.iter().copied().take(probe_budget));
    // dedup while preserving order
    let mut seen: FxHashSet<(QueryId, ProductId)> = FxHashSet::default();
    search_buys.retain(|pair| seen.insert(*pair));
    report.broad_selected = search_buys
        .iter()
        .filter(|(q, _)| specificity.score(world, *q) <= cfg.broad_specificity)
        .count();
    report.searchbuy_selected = search_buys.len();

    SampledBehaviors {
        cobuys,
        search_buys,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_synth::{BehaviorConfig, WorldConfig};

    fn setup() -> (World, BehaviorLog) {
        let w = World::generate(WorldConfig::tiny(31));
        let log = BehaviorLog::generate(&w, &BehaviorConfig::tiny(32));
        (w, log)
    }

    #[test]
    fn sampling_shrinks_the_log() {
        let (w, log) = setup();
        let svc = SpecificityService::new(33, 0.05);
        let s = sample_behaviors(&w, &log, &svc, &SamplingConfig::default());
        assert!(s.report.cobuy_selected <= s.report.cobuy_pairs_in);
        assert!(s.report.searchbuy_selected <= s.report.searchbuy_pairs_in);
        assert!(!s.cobuys.is_empty());
        assert!(!s.search_buys.is_empty());
    }

    #[test]
    fn type_pair_quota_enforced() {
        let (w, log) = setup();
        let svc = SpecificityService::new(33, 0.05);
        let cfg = SamplingConfig {
            max_pairs_per_type_pair: 3,
            ..Default::default()
        };
        let s = sample_behaviors(&w, &log, &svc, &cfg);
        let mut counts: FxHashMap<(ProductTypeId, ProductTypeId), usize> = FxHashMap::default();
        for (a, b) in &s.cobuys {
            let (t1, t2) = (w.product(*a).ptype, w.product(*b).ptype);
            let key = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            *counts.entry(key).or_insert(0) += 1;
        }
        assert!(counts.values().all(|&c| c <= 3));
    }

    #[test]
    fn broad_queries_preferred() {
        let (w, log) = setup();
        let svc = SpecificityService::new(33, 0.05);
        let s = sample_behaviors(&w, &log, &svc, &SamplingConfig::default());
        let frac = s.report.broad_selected as f64 / s.report.searchbuy_selected.max(1) as f64;
        assert!(frac > 0.3, "broad fraction {frac} too low");
    }

    #[test]
    fn no_duplicate_searchbuy_pairs() {
        let (w, log) = setup();
        let svc = SpecificityService::new(33, 0.05);
        let s = sample_behaviors(&w, &log, &svc, &SamplingConfig::default());
        let set: FxHashSet<_> = s.search_buys.iter().collect();
        assert_eq!(set.len(), s.search_buys.len());
    }

    #[test]
    fn deterministic() {
        let (w, log) = setup();
        let svc = SpecificityService::new(33, 0.05);
        let a = sample_behaviors(&w, &log, &svc, &SamplingConfig::default());
        let b = sample_behaviors(&w, &log, &svc, &SamplingConfig::default());
        assert_eq!(a.cobuys, b.cobuys);
        assert_eq!(a.search_buys, b.search_buys);
    }
}
