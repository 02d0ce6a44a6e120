//! Online A/B test simulation (§4.3.2).
//!
//! The paper reports months of A/B tests on ≈10% of US traffic: a single
//! navigation widget "with limited showroom visibility" produced a **0.7%
//! relative increase in product sales** and an **8% increase in navigation
//! engagement**. We simulate the mechanism behind those numbers:
//!
//! * users arrive with a latent intent and issue a broad query;
//! * **control** shows the popularity-ranked result page;
//! * **treatment** additionally renders the COSMO navigation widget (seen
//!   only with `visibility` probability — the limited showroom); a user
//!   who sees a refinement matching their latent intent clicks it, which
//!   narrows the page to intent-matching products;
//! * purchase probability grows with the rank-weighted intent match of the
//!   page the user actually browsed.
//!
//! Lift comes only from better intent matching, so its sign is structural;
//! its magnitude is small because visibility and match rates are small —
//! the same reason the paper calls its 0.7% "especially significant".

use crate::engine::{NavSession, NavigationEngine};
use cosmo_synth::{DomainId, IntentId, ProductTypeId, QueryKind, World};
use cosmo_text::{FxHashMap, FxHashSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct AbTestConfig {
    /// RNG seed.
    pub seed: u64,
    /// Total simulated users.
    pub users: usize,
    /// Fraction assigned to treatment (the paper's ≈10%).
    pub traffic_fraction: f64,
    /// Probability a treatment user notices the widget ("limited showroom
    /// visibility").
    pub visibility: f64,
    /// Probability an interested user clicks a matching refinement.
    pub click_through: f64,
    /// Results examined per page.
    pub page_size: usize,
    /// Base purchase probability for a perfectly matching product.
    pub base_purchase: f64,
}

impl Default for AbTestConfig {
    fn default() -> Self {
        AbTestConfig {
            seed: 0xAB_7E57,
            users: 60_000,
            traffic_fraction: 0.10,
            visibility: 0.012,
            click_through: 0.65,
            page_size: 8,
            base_purchase: 0.35,
        }
    }
}

/// A/B outcome.
#[derive(Debug, Clone)]
pub struct AbTestReport {
    /// Users in control.
    pub control_users: usize,
    /// Users in treatment.
    pub treatment_users: usize,
    /// Sales per control user.
    pub control_sales_rate: f64,
    /// Sales per treatment user.
    pub treatment_sales_rate: f64,
    /// Relative sales lift (%) — the paper's 0.7%.
    pub sales_lift_pct: f64,
    /// Navigation engagement rate in control (baseline nav feature usage).
    pub control_engagement: f64,
    /// Navigation engagement rate in treatment.
    pub treatment_engagement: f64,
    /// Relative engagement lift (%) — the paper's 8%.
    pub engagement_lift_pct: f64,
}

/// Run the simulation over a world and its navigation engine.
pub fn run_abtest<G: cosmo_kg::GraphView>(
    world: &World,
    engine: &NavigationEngine<G>,
    cfg: &AbTestConfig,
) -> AbTestReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Broad queries are the widget's target surface.
    let broad: Vec<_> = (0..world.queries.len())
        .filter(|&i| matches!(world.queries[i].kind, QueryKind::Broad(_)))
        .collect();
    assert!(!broad.is_empty());

    // tail text → intents sharing it (for matching widget labels against
    // the user's desire)
    let mut tail_intents: FxHashMap<&str, Vec<IntentId>> = FxHashMap::default();
    for (i, intent) in world.intents.iter().enumerate() {
        tail_intents
            .entry(intent.tail.as_str())
            .or_default()
            .push(IntentId(i as u32));
    }
    // product title → type (for page matching)
    let title_types: FxHashMap<&str, ProductTypeId> = world
        .products
        .iter()
        .map(|p| (p.title.as_str(), p.ptype))
        .collect();

    let mut control_sales = 0u64;
    let mut treatment_sales = 0u64;
    let mut control_engaged = 0u64;
    let mut treatment_engaged = 0u64;
    let mut control_users = 0usize;
    let mut treatment_users = 0usize;

    for _ in 0..cfg.users {
        let qi = broad[rng.gen_range(0..broad.len())];
        let query = &world.queries[qi];
        let QueryKind::Broad(_) = query.kind else {
            unreachable!()
        };
        // The user's latent desire is *finer* than the broad query: one
        // specific product type among the query's targets (the Figure 9
        // story — searching "camping" while wanting an air mattress).
        let wanted: ProductTypeId = query.target_types[rng.gen_range(0..query.target_types.len())];
        let in_treatment = rng.gen_bool(cfg.traffic_fraction);

        // Baseline result page: popularity-ranked products of the query's
        // domain (the search engine's view without intent narrowing).
        let page = baseline_page(world, query.domain, cfg.page_size, &mut rng);

        // Baseline navigation feature (category chips) engaged at a low
        // background rate in both arms.
        let baseline_engage = rng.gen_bool(0.02);

        let (browsed, engaged) = if in_treatment && rng.gen_bool(cfg.visibility) {
            // the widget shows intent refinements for the query text
            let (mut session, suggestions) = NavSession::start(engine, &query.text, 6);
            // the user recognises a refinement that describes why they
            // would buy their wanted type (its profile carries the intent)
            let matching = suggestions.iter().find(|s| {
                tail_intents.get(s.label()).is_some_and(|ids| {
                    ids.iter()
                        .any(|&i| world.ptype(wanted).weight_of(i) >= 0.45)
                })
            });
            match matching {
                Some(s) if rng.gen_bool(cfg.click_through) => {
                    session.select(&s.clone(), 6);
                    if session.candidates.is_empty() {
                        (page.clone(), baseline_engage)
                    } else {
                        // narrowed page: the widget's candidates
                        let narrowed: Vec<String> = session
                            .candidates
                            .iter()
                            .take(cfg.page_size)
                            .map(|(_, t)| t.clone())
                            .collect();
                        (narrowed, true)
                    }
                }
                _ => (page.clone(), baseline_engage),
            }
        } else {
            (page.clone(), baseline_engage)
        };

        // Purchase decision: rank-weighted share of the browsed page
        // showing the wanted product type.
        let match_quality = page_match(&title_types, &browsed, wanted);
        let p = (cfg.base_purchase * (0.15 + match_quality)).clamp(0.0, 1.0);
        let bought = rng.gen_bool(p);

        if in_treatment {
            treatment_users += 1;
            treatment_sales += u64::from(bought);
            treatment_engaged += u64::from(engaged);
        } else {
            control_users += 1;
            control_sales += u64::from(bought);
            control_engaged += u64::from(engaged);
        }
    }

    let control_sales_rate = control_sales as f64 / control_users.max(1) as f64;
    let treatment_sales_rate = treatment_sales as f64 / treatment_users.max(1) as f64;
    let control_engagement = control_engaged as f64 / control_users.max(1) as f64;
    let treatment_engagement = treatment_engaged as f64 / treatment_users.max(1) as f64;
    AbTestReport {
        control_users,
        treatment_users,
        control_sales_rate,
        treatment_sales_rate,
        sales_lift_pct: 100.0 * (treatment_sales_rate / control_sales_rate.max(1e-12) - 1.0),
        control_engagement,
        treatment_engagement,
        engagement_lift_pct: 100.0 * (treatment_engagement / control_engagement.max(1e-12) - 1.0),
    }
}

/// Popularity-ranked result page for a domain.
fn baseline_page(world: &World, domain: DomainId, k: usize, rng: &mut StdRng) -> Vec<String> {
    let mut page = Vec::with_capacity(k);
    let mut seen = FxHashSet::default();
    for _ in 0..k * 4 {
        let p = world.sample_product(domain, rng);
        if seen.insert(p) {
            page.push(world.product(p).title.clone());
            if page.len() >= k {
                break;
            }
        }
    }
    page
}

/// Rank-weighted fraction of the page showing the wanted product type.
fn page_match(
    title_types: &FxHashMap<&str, ProductTypeId>,
    page: &[String],
    wanted: ProductTypeId,
) -> f64 {
    if page.is_empty() {
        return 0.0;
    }
    let mut score = 0.0;
    let mut norm = 0.0;
    for (rank, title) in page.iter().enumerate() {
        let w = 1.0 / (rank + 1) as f64;
        norm += w;
        if title_types.get(title.as_str()) == Some(&wanted) {
            score += w;
        }
    }
    score / norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_core::{run, PipelineConfig};
    use std::sync::OnceLock;

    struct Fixture {
        world: World,
        engine: NavigationEngine,
    }

    fn fixture() -> &'static Fixture {
        static F: OnceLock<Fixture> = OnceLock::new();
        F.get_or_init(|| {
            let out = run(PipelineConfig::tiny(141));
            Fixture {
                engine: NavigationEngine::new(out.kg),
                world: out.world,
            }
        })
    }

    #[test]
    fn treatment_lifts_sales_and_engagement() {
        let f = fixture();
        // Use a high-visibility regime so the structural lift clears the
        // sampling noise at test-sized populations (the paper needed
        // months of live traffic to resolve +0.7%).
        let cfg = AbTestConfig {
            users: 600_000,
            visibility: 0.3,
            ..Default::default()
        };
        let report = run_abtest(&f.world, &f.engine, &cfg);
        assert!(report.treatment_users > 10_000);
        assert!(
            report.sales_lift_pct > 0.5,
            "sales lift must be clearly positive at high visibility: {:.2}%",
            report.sales_lift_pct
        );
        assert!(
            report.sales_lift_pct < 60.0,
            "lift bounded by the engaged fraction: {:.2}%",
            report.sales_lift_pct
        );
        assert!(
            report.engagement_lift_pct > report.sales_lift_pct,
            "engagement lift ({:.1}%) should exceed sales lift ({:.1}%) — Figure 9 shape",
            report.engagement_lift_pct,
            report.sales_lift_pct
        );
    }

    #[test]
    fn traffic_split_respected() {
        let f = fixture();
        let cfg = AbTestConfig {
            users: 20_000,
            traffic_fraction: 0.1,
            ..Default::default()
        };
        let report = run_abtest(&f.world, &f.engine, &cfg);
        let frac = report.treatment_users as f64 / cfg.users as f64;
        assert!((frac - 0.1).abs() < 0.02, "treatment fraction {frac}");
    }

    #[test]
    fn zero_visibility_means_no_lift() {
        let f = fixture();
        let cfg = AbTestConfig {
            users: 300_000,
            visibility: 0.0,
            ..Default::default()
        };
        let report = run_abtest(&f.world, &f.engine, &cfg);
        assert!(
            report.sales_lift_pct.abs() < 6.0,
            "without the widget the arms should be statistically close: {:.2}%",
            report.sales_lift_pct
        );
    }

    #[test]
    fn deterministic() {
        let f = fixture();
        let cfg = AbTestConfig {
            users: 5_000,
            ..Default::default()
        };
        let a = run_abtest(&f.world, &f.engine, &cfg);
        let b = run_abtest(&f.world, &f.engine, &cfg);
        assert_eq!(a.sales_lift_pct, b.sales_lift_pct);
    }
}
