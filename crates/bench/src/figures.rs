//! Reproduction of the paper's figures and online experiments.

use crate::context::{Ctx, Scale};
use crate::tables::esci_with_knowledge;
use cosmo_kg::{IntentHierarchy, NodeId, NodeKind, Relation};
use cosmo_lm::{simulated_comparison, CosmoLm};
use cosmo_nav::{run_abtest, AbTestConfig, NavSession, NavigationEngine};
use cosmo_relevance::{Architecture, RelevanceConfig};
use cosmo_serving::{query_universe, simulate, ServingSystem, TrafficConfig};
use cosmo_teacher::{cobuy_prompt, search_buy_prompt};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Figure 3: the QA prompts used for knowledge harvesting.
pub fn figure3(ctx: &Ctx) -> String {
    let world = &ctx.out.world;
    let sb = &ctx.out.log.search_buys[0];
    let cb = &ctx.out.log.cobuys[0];
    let p1 = search_buy_prompt(
        &world.query(sb.query).text,
        &world.product(sb.product).title,
        Relation::CapableOf,
    );
    let p2 = cobuy_prompt(
        &world.product(cb.p1).title,
        &world.product(cb.p2).title,
        Relation::UsedWith,
    );
    format!(
        "--- search-buy prompt ---\n{}\n\n--- co-buy prompt ---\n{}\n",
        p1.text, p2.text
    )
}

/// Figure 5: deployment traffic replay — per-day hit rates and latency.
pub fn figure5(ctx: &Ctx) -> String {
    let traffic = match ctx.scale {
        Scale::Tiny => TrafficConfig {
            days: 4,
            requests_per_day: 2_000,
            query_universe: 600,
            ..TrafficConfig::default()
        },
        _ => TrafficConfig::default(),
    };
    let universe = query_universe(&traffic);
    let preload: Vec<String> = universe
        .iter()
        .take(traffic.query_universe / 10)
        .cloned()
        .collect();
    let system = ServingSystem::builder()
        .view(ctx.out.kg.freeze())
        .lm(ctx.student.clone())
        .preload(preload)
        .build()
        .expect("default serving config is valid");
    let reports = simulate(&system, &traffic);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Day", "HitRate", "L1 hits", "L2 hits", "Misses", "p50(µs)", "p99(µs)", "Promoted"
    );
    for r in &reports {
        let _ = writeln!(
            out,
            "{:>4} {:>8.1}% {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            r.day + 1,
            r.hit_rate * 100.0,
            r.l1_hits,
            r.l2_hits,
            r.misses,
            r.p50_us,
            r.p99_us,
            r.promoted
        );
    }
    let _ = writeln!(
        out,
        "(request path is cache-only: misses are answered asynchronously by batch cycles)"
    );
    out
}

/// Figure 7: private ESCI results across four locales, fixed and tuned.
pub fn figure7(ctx: &Ctx) -> String {
    let base = match ctx.scale {
        Scale::Tiny => 700,
        Scale::Small => 2_500,
        Scale::Full => 5_000,
    };
    let epochs = if ctx.scale == Scale::Tiny { 10 } else { 14 };
    // the frozen-encoder regime trains only the head on random projections
    // and needs a longer schedule to surface the intent features
    let fixed_cfg = RelevanceConfig {
        epochs: epochs * 3,
        lr: 0.02,
        trainable_encoder: false,
        ..RelevanceConfig::default()
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<26} {:>14} {:>14}",
        "Locale", "Method", "MacroF1 fixed", "MacroF1 tuned"
    );
    for locale_idx in 1..5 {
        let ds = esci_with_knowledge(ctx, locale_idx, base);
        for arch in [
            Architecture::CrossEncoder,
            Architecture::CrossEncoderWithIntent,
        ] {
            let fixed = crate::tables::run_avg(&ds, arch, &fixed_cfg, 3);
            let tuned = crate::tables::run_avg(
                &ds,
                arch,
                &RelevanceConfig {
                    epochs,
                    trainable_encoder: true,
                    ..RelevanceConfig::default()
                },
                3,
            );
            let _ = writeln!(
                out,
                "{:<8} {:<26} {:>14.2} {:>14.2}",
                ds.locale,
                arch.name(),
                fixed.macro_f1,
                tuned.macro_f1
            );
        }
    }
    out
}

/// Figure 8: a slice of the intent hierarchy.
pub fn figure8(ctx: &Ctx) -> String {
    let kg = &ctx.out.kg;
    let h = IntentHierarchy::build(kg);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "intent hierarchy: {} nodes, {} roots, depth {}",
        h.len(),
        h.roots().count(),
        h.depth()
    );
    for r in h.roots().take(6) {
        let _ = writeln!(out, "{}", kg.node_text(r));
        for c in h.children(r).take(4) {
            let products: BTreeSet<NodeId> = kg
                .heads_of(c)
                .map(|e| e.head)
                .filter(|&p| kg.node_kind(p) == NodeKind::Product)
                .collect();
            let _ = writeln!(
                out,
                "  └─ {} ({} products)",
                kg.node_text(c),
                products.len()
            );
            for g in h.children(c).take(2) {
                let _ = writeln!(out, "      └─ {}", kg.node_text(g));
            }
        }
    }
    out
}

/// Figure 9: a multi-turn navigation session trace.
pub fn figure9(ctx: &Ctx) -> String {
    let engine = NavigationEngine::new(ctx.out.kg.clone());
    // pick a broad query with suggestions
    let mut out = String::new();
    for q in &ctx.out.world.queries {
        let (mut session, suggestions) = NavSession::start(&engine, &q.text, 5);
        if suggestions.len() < 2 || session.candidates.len() < 4 {
            continue;
        }
        let _ = writeln!(
            out,
            "query: \"{}\" ({} candidates)",
            q.text,
            session.candidates.len()
        );
        let _ = writeln!(
            out,
            "  turn 1 suggestions: {:?}",
            suggestions.iter().map(|s| s.label()).collect::<Vec<_>>()
        );
        let pick = suggestions[0].clone();
        let next = session.select(&pick, 5);
        let _ = writeln!(
            out,
            "  selected \"{}\" → {} candidates; turn 2 suggestions: {:?}",
            pick.label(),
            session.candidates.len(),
            next.iter().map(|s| s.label()).collect::<Vec<_>>()
        );
        if let Some(second) = next.first() {
            let third = session.select(second, 5);
            let _ = writeln!(
                out,
                "  selected \"{}\" → {} candidates; turn 3 suggestions: {:?}",
                second.label(),
                session.candidates.len(),
                third.iter().map(|s| s.label()).collect::<Vec<_>>()
            );
        }
        let _ = writeln!(
            out,
            "  final candidates: {:?}",
            session
                .candidates
                .iter()
                .take(4)
                .map(|(_, t)| t.as_str())
                .collect::<Vec<_>>()
        );
        break;
    }
    if out.is_empty() {
        out.push_str("(no navigable broad query found at this scale)\n");
    }
    out
}

/// Figure 10: one generation with its alternatives and scores.
pub fn figure10(ctx: &Ctx) -> String {
    let world = &ctx.out.world;
    let sb = &ctx.out.log.search_buys[3];
    let input = format!(
        "generate a USED_FOR_FUNC explanation in domain {} for: search query: {} | purchased product: {}",
        world.ptype_of(sb.product).domain.name(),
        world.query(sb.query).text,
        world.product(sb.product).title
    );
    let mut out = String::new();
    let _ = writeln!(out, "input: {input}");
    let _ = writeln!(out, "top-5 COSMO-LM generations:");
    for (tail, score) in ctx.student.generate(&input, None, 5) {
        let _ = writeln!(out, "  {score:>7.3}  {tail}");
    }
    out
}

/// §4.3.2: the online A/B experiment.
pub fn abtest(ctx: &Ctx) -> String {
    let engine = NavigationEngine::new(ctx.out.kg.clone());
    let users = match ctx.scale {
        Scale::Tiny => 200_000,
        Scale::Small => 500_000,
        Scale::Full => 1_000_000,
    };
    // The deployed widget had ~1% showroom visibility; at that level the
    // +0.7% lift needs months of live traffic to resolve, so we simulate
    // at 25% visibility (where the effect clears sampling noise) and
    // extrapolate linearly back — lift scales with the engaged fraction.
    let visibility = 0.25;
    let report = run_abtest(
        &ctx.out.world,
        &engine,
        &AbTestConfig {
            users,
            visibility,
            ..Default::default()
        },
    );
    let lift_at_deploy = report.sales_lift_pct * (0.012 / visibility);
    let eng_at_deploy = report.engagement_lift_pct * (0.012 / visibility);
    format!(
        "traffic: {} control / {} treatment ({}% allocation), widget visibility {:.0}%\n\
         sales rate: control {:.4} vs treatment {:.4} → relative lift {:+.2}%\n\
         extrapolated to the deployment's ~1.2% visibility: {:+.2}% (paper: +0.7%)\n\
         nav engagement: control {:.3}% vs treatment {:.3}% → relative lift {:+.1}%\n\
         extrapolated to deployment visibility: {:+.1}% (paper: +8%)\n",
        report.control_users,
        report.treatment_users,
        (report.treatment_users as f64 / (report.control_users + report.treatment_users) as f64
            * 100.0)
            .round(),
        visibility * 100.0,
        report.control_sales_rate,
        report.treatment_sales_rate,
        report.sales_lift_pct,
        lift_at_deploy,
        report.control_engagement * 100.0,
        report.treatment_engagement * 100.0,
        report.engagement_lift_pct,
        eng_at_deploy
    )
}

/// §1/§5: inference-efficiency comparison.
pub fn efficiency(ctx: &Ctx) -> String {
    let prompt = "The following search query caused the following product purchases. \
                  Query: camping. Product: acme air mattress. Question: why?";
    let generation = "1. they are capable of sleeping outdoors comfortably.";
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<40} {:>10} {:>14} {:>16}",
        "Configuration", "Params", "Latency (ms)", "FLOPs/request"
    );
    for row in simulated_comparison(prompt, generation) {
        let _ = writeln!(
            out,
            "{:<40} {:>9.0}B {:>14.1} {:>16.2e}",
            row.name,
            row.params / 1e9,
            row.sim_latency_ms,
            row.sim_flops_per_req
        );
    }
    let inputs: Vec<String> = ctx
        .out
        .world
        .queries
        .iter()
        .take(200)
        .map(|q| format!("generate explanation for: search query: {}", q.text))
        .collect();
    let tput = measured_student_throughput(&ctx.student, &inputs);
    let _ = writeln!(
        out,
        "\nmeasured: our COSMO-LM stand-in serves {tput:.0} generations/s single-threaded on this machine"
    );
    out
}

/// Measured student throughput: generations per second on this machine.
///
/// Lives here rather than in `cosmo-lm` because the student crate is
/// deterministic and may not read the clock (audit lint A04); benchmarks
/// are the designated wall-clock surface.
pub fn measured_student_throughput(student: &CosmoLm, inputs: &[String]) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let start = std::time::Instant::now();
    let mut sink = 0usize;
    for input in inputs {
        sink += student.generate(input, None, 1).len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(sink > 0);
    inputs.len() as f64 / elapsed.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_lm::StudentConfig;

    #[test]
    fn measured_throughput_positive() {
        let lm = CosmoLm::new(
            StudentConfig::default(),
            vec![
                ("sleeping outdoors".into(), None),
                ("peeling potatoes".into(), None),
            ],
        );
        let inputs: Vec<String> = (0..50)
            .map(|i| format!("user searched camping {i}"))
            .collect();
        let tput = measured_student_throughput(&lm, &inputs);
        assert!(tput > 0.0);
    }
}
