//! Smoke tests: every repro experiment runs at tiny scale and produces the
//! structure its table/figure requires. (Numeric shape assertions live in
//! the owning crates' tests; here we guard the harness itself.)

use cosmo_bench::{build_context, run_experiment, Ctx, Scale, EXPERIMENTS};
use std::sync::OnceLock;

fn ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| build_context(Scale::Tiny, 0x57_0CE))
}

#[test]
fn every_fast_experiment_runs() {
    // the heavier experiments (table6/8, figure5/7, abtest) have their own
    // tests below / in their crates; these must all render instantly
    for name in [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "table7",
        "table9",
        "figure3",
        "figure8",
        "figure9",
        "figure10",
        "efficiency",
        "kgstats",
    ] {
        let out = run_experiment(ctx(), name).unwrap_or_else(|| panic!("unknown {name}"));
        assert!(out.len() > 40, "{name} produced almost no output: {out:?}");
    }
    assert!(run_experiment(ctx(), "no-such-experiment").is_none());
    assert_eq!(EXPERIMENTS.len(), 23);
}

#[test]
fn table1_contains_ours_and_literature() {
    let t = run_experiment(ctx(), "table1").unwrap();
    for name in [
        "ConceptNet",
        "ATOMIC",
        "FolkScope",
        "COSMO (paper)",
        "COSMO-rs (ours)",
    ] {
        assert!(t.contains(name), "missing row {name}");
    }
}

#[test]
fn table2_lists_all_relations() {
    let t = run_experiment(ctx(), "table2").unwrap();
    for rel in ["USED_FOR_FUNC", "CAPABLE_OF", "USED_WITH", "xWant", "xIs_A"] {
        assert!(t.contains(rel), "missing relation {rel}");
    }
}

#[test]
fn table3_has_18_categories_and_totals() {
    let t = run_experiment(ctx(), "table3").unwrap();
    assert!(t.contains("Home & Kitchen"));
    assert!(t.contains("Pet Supplies"));
    assert!(t.contains("Total"));
}

#[test]
fn table4_shape_searchbuy_more_typical() {
    use cosmo_kg::BehaviorKind;
    let c = ctx();
    let (sp, st) = c.out.annotation.table4_ratios(BehaviorKind::SearchBuy);
    let (cp, ct) = c.out.annotation.table4_ratios(BehaviorKind::CoBuy);
    assert!(
        st > ct,
        "Table 4 shape: search-buy typicality {st} vs co-buy {ct}"
    );
    assert!(sp > cp, "plausibility {sp} vs {cp}");
    assert!(
        (0.15..=0.55).contains(&st),
        "search-buy typicality {st} off Table 4 ballpark"
    );
}

#[test]
fn table5_reports_five_locales() {
    let t = run_experiment(ctx(), "table5").unwrap();
    for l in ["KDD Cup", "US", "CA", "UK", "IN"] {
        assert!(t.contains(l), "missing locale {l}");
    }
}

#[test]
fn table9_has_all_18_categories_and_quality_gap() {
    let t = run_experiment(ctx(), "table9").unwrap();
    assert!(t.contains("Video Games"));
    assert!(t.contains("COSMO-LM: typical"));
    // the student must beat the raw teacher on typicality at any scale
    let student_line = t.lines().find(|l| l.contains("COSMO-LM: typical")).unwrap();
    let teacher_line = t
        .lines()
        .find(|l| l.contains("raw teacher: typical"))
        .unwrap();
    let grab = |line: &str| -> f64 {
        line.split("typical ")
            .nth(1)
            .unwrap()
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(
        grab(student_line) > grab(teacher_line),
        "student must out-typical the teacher: {student_line} vs {teacher_line}"
    );
}

#[test]
fn figure5_hit_rate_reaches_steady_state() {
    let t = run_experiment(ctx(), "figure5").unwrap();
    // last day's hit rate printed as "NN.N%"
    let rates: Vec<f64> = t
        .lines()
        .filter(|l| l.contains('%') && l.trim().starts_with(char::is_numeric))
        .filter_map(|l| {
            l.split_whitespace()
                .nth(1)
                .and_then(|x| x.trim_end_matches('%').parse().ok())
        })
        .collect();
    assert!(rates.len() >= 3, "need day rows: {t}");
    assert!(
        rates.last().unwrap() > &50.0,
        "steady-state hit rate too low: {rates:?}"
    );
}

#[test]
fn efficiency_orders_models_correctly() {
    let t = run_experiment(ctx(), "efficiency").unwrap();
    let opt175 = t.lines().find(|l| l.contains("OPT-175B")).unwrap();
    let llama7 = t
        .lines()
        .find(|l| l.contains("LLaMA-7B") && l.contains("COSMO-LM"))
        .unwrap();
    let latency = |line: &str| -> f64 {
        line.split_whitespace()
            .rev()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(
        latency(opt175) > latency(llama7) * 10.0,
        "teacher must cost ≫ student"
    );
    assert!(t.contains("generations/s"));
}
