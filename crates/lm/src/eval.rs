//! Evaluation of COSMO-LM against the teacher and the world oracle.
//!
//! The paper's central quality claim: instruction tuning aligns the model
//! with human preference, so COSMO-LM's generations are *typical* far more
//! often than the raw teacher's (whose annotated typicality is only ~35% /
//! "notably low", Table 4). We measure both on held-out behaviours with
//! the ground-truth oracle — something the paper can only approximate with
//! annotators. Also renders the per-category generation examples of
//! Table 9 and Figure 10.

use crate::instruction::render_behavior;
use crate::student::CosmoLm;
use cosmo_kg::Relation;
use cosmo_synth::{BehaviorLog, DomainId, Oracle, World};
use cosmo_teacher::{parse_candidate, BehaviorRef, Teacher};

/// Generation-quality comparison on held-out behaviours.
#[derive(Debug, Clone, Default)]
pub struct GenerationEval {
    /// Behaviours evaluated.
    pub n: usize,
    /// Student top-1 typical rate (oracle-judged).
    pub student_typical: f64,
    /// Student top-1 plausible rate.
    pub student_plausible: f64,
    /// Raw teacher typical rate on the same behaviours.
    pub teacher_typical: f64,
    /// Raw teacher plausible rate.
    pub teacher_plausible: f64,
}

/// Compare student generations against raw teacher generations on
/// held-out search-buy behaviours.
pub fn eval_generation(
    world: &World,
    log: &BehaviorLog,
    student: &CosmoLm,
    teacher: &mut Teacher<'_>,
    skip: usize,
    n: usize,
) -> GenerationEval {
    let oracle = Oracle::new(world);
    let mut eval = GenerationEval::default();
    for sb in log.search_buys.iter().skip(skip).take(n) {
        let b = BehaviorRef::SearchBuy(sb.query, sb.product);
        // student: same rendered input as instruction data
        let input = format!(
            "generate a USED_FOR_FUNC explanation in domain {} for: {}",
            world.ptype_of(sb.product).domain.name(),
            render_behavior(world, b, 0)
        );
        if let Some((tail, _)) = student.generate(&input, None, 1).into_iter().next() {
            // the tail's relation is whatever the student's vocab hints; judge
            // under each relation and take the best-matching (the KG merges
            // by canonical tail anyway)
            let j = Relation::ALL
                .iter()
                .map(|&r| oracle.judge_search_buy(sb.query, sb.product, r, &tail))
                .max_by_key(|j| (j.typical, j.plausible))
                .unwrap();
            eval.student_typical += f64::from(j.typical);
            eval.student_plausible += f64::from(j.plausible);
        }
        // teacher: one raw generation
        let cand = teacher.generate_search_buy(sb.query, sb.product);
        if let Some(parsed) = parse_candidate(&cand.raw) {
            let j = oracle.judge_search_buy(sb.query, sb.product, cand.relation, &parsed.tail);
            eval.teacher_typical += f64::from(j.typical);
            eval.teacher_plausible += f64::from(j.plausible);
        }
        eval.n += 1;
    }
    let n = eval.n.max(1) as f64;
    eval.student_typical /= n;
    eval.student_plausible /= n;
    eval.teacher_typical /= n;
    eval.teacher_plausible /= n;
    eval
}

/// One Table 9 row: a generation example for a category.
#[derive(Debug, Clone)]
pub struct Table9Row {
    /// Category name.
    pub category: String,
    /// Example generated tail.
    pub example: String,
}

/// Generate one example per category (Table 9 / Figure 10).
pub fn table9(world: &World, log: &BehaviorLog, student: &CosmoLm) -> Vec<Table9Row> {
    let mut rows = Vec::new();
    for d in DomainId::all() {
        // first search-buy behaviour in this domain
        let Some(sb) = log.search_buys.iter().find(|sb| sb.domain == d) else {
            rows.push(Table9Row {
                category: d.name().to_string(),
                example: "-".into(),
            });
            continue;
        };
        let b = BehaviorRef::SearchBuy(sb.query, sb.product);
        let input = format!(
            "generate a USED_FOR_FUNC explanation in domain {} for: {}",
            d.name(),
            render_behavior(world, b, 0)
        );
        let example = student
            .generate(&input, None, 1)
            .into_iter()
            .next()
            .map(|(t, _)| t)
            .unwrap_or_else(|| "-".into());
        rows.push(Table9Row {
            category: d.name().to_string(),
            example,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::build_instructions;
    use crate::student::StudentConfig;
    use cosmo_core::{run, PipelineConfig};
    use cosmo_teacher::TeacherConfig;

    #[test]
    fn student_beats_raw_teacher_on_typicality() {
        let out = run(PipelineConfig::tiny(81));
        let instructions = build_instructions(&out.world, &out.filtered, &out.annotation, 82);
        let tails: Vec<(String, Option<Relation>)> = out
            .filtered
            .iter()
            .filter(|f| f.decision.kept())
            .filter_map(|f| f.parsed.as_ref().map(|p| (p.tail.clone(), p.relation_hint)))
            .collect();
        let mut student = CosmoLm::new(
            StudentConfig {
                epochs: 8,
                ..Default::default()
            },
            tails,
        );
        student.train(&instructions);
        let mut teacher = Teacher::new(&out.world, TeacherConfig::default());
        let eval = eval_generation(&out.world, &out.log, &student, &mut teacher, 1000, 250);
        assert!(eval.n > 100);
        assert!(
            eval.student_typical > eval.teacher_typical,
            "student typicality {:.3} must beat teacher {:.3}",
            eval.student_typical,
            eval.teacher_typical
        );
        // plausibility: the raw teacher samples straight from in-profile
        // intents much of the time, so parity is the expectation here —
        // the student's win is *typicality* (alignment), per §3.4
        assert!(
            eval.student_plausible > eval.teacher_plausible - 0.15,
            "student plausibility {:.3} collapsed vs teacher {:.3}",
            eval.student_plausible,
            eval.teacher_plausible
        );
    }

    #[test]
    fn table9_has_all_categories() {
        let out = run(PipelineConfig::tiny(81));
        let instructions = build_instructions(&out.world, &out.filtered, &out.annotation, 82);
        let tails: Vec<(String, Option<Relation>)> = out
            .filtered
            .iter()
            .filter_map(|f| f.parsed.as_ref().map(|p| (p.tail.clone(), p.relation_hint)))
            .collect();
        let mut student = CosmoLm::new(
            StudentConfig {
                epochs: 3,
                ..Default::default()
            },
            tails,
        );
        student.train(&instructions);
        let rows = table9(&out.world, &out.log, &student);
        assert_eq!(rows.len(), 18);
        assert!(rows.iter().filter(|r| r.example != "-").count() >= 15);
    }
}
