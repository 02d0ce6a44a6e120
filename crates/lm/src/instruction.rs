//! Instruction-data construction (§3.4, Figure 4).
//!
//! "After collecting human judgments on 30k diverse knowledge samples, we
//! can create large-scale instruction data based on annotated data." Five
//! task types:
//!
//! 1. **Knowledge generation** — the behaviour pair is the input, a
//!    *typical* tail is the desired output ("we select knowledge with
//!    high-typicality scores as desired model outputs");
//! 2. **Plausibility prediction** — behaviour + knowledge → yes/no;
//! 3. **Typicality prediction** — behaviour + knowledge → yes/no;
//! 4. **Co-purchase prediction** — product pair → genuine/random (derived
//!    from the relevance annotations of random co-buy pairs);
//! 5. **Search-relevance prediction** — query–product pair → relevant or
//!    not.
//!
//! "To make the model robust to different formats, we design different
//! templates to verbalize the instructions" — each instance is rendered
//! with one of several surface templates ("search query:", "user input:",
//! "user searched:", …).

use cosmo_core::{AnnotationOutput, Ans, FilteredCandidate};
use cosmo_kg::Relation;
use cosmo_synth::{DomainId, World};
use cosmo_teacher::BehaviorRef;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The five instruction-tuning task types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskType {
    /// Generate a typical knowledge tail for a behaviour.
    Generate,
    /// Judge plausibility of a (behaviour, knowledge) pair.
    Plausibility,
    /// Judge typicality.
    Typicality,
    /// Is this co-buy pair genuine or random?
    CopurchasePrediction,
    /// Is this product relevant to the query?
    RelevancePrediction,
}

impl TaskType {
    /// All five task types.
    pub const ALL: [TaskType; 5] = [
        TaskType::Generate,
        TaskType::Plausibility,
        TaskType::Typicality,
        TaskType::CopurchasePrediction,
        TaskType::RelevancePrediction,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TaskType::Generate => "knowledge-generation",
            TaskType::Plausibility => "plausibility-prediction",
            TaskType::Typicality => "typicality-prediction",
            TaskType::CopurchasePrediction => "copurchase-prediction",
            TaskType::RelevancePrediction => "search-relevance-prediction",
        }
    }
}

/// The structured content of one instruction instance (the model trains on
/// hashed features of the rendered text; the structured view is kept for
/// evaluation and debugging).
#[derive(Debug, Clone)]
pub struct Instruction {
    /// Task type.
    pub task: TaskType,
    /// Which surface template rendered it.
    pub template_id: usize,
    /// Rendered input text.
    pub input: String,
    /// Desired output: a tail string for [`TaskType::Generate`],
    /// "yes"/"no" for prediction tasks.
    pub output: String,
    /// For Generate: the canonical tail (same as `output`).
    pub tail: Option<String>,
    /// Binary label for prediction tasks.
    pub label: Option<bool>,
    /// Relation context.
    pub relation: Option<Relation>,
    /// Domain of the underlying behaviour.
    pub domain: DomainId,
    /// The underlying behaviour (for evaluation splits).
    pub behavior: BehaviorRef,
}

/// Query prefixes used to vary the surface form (§3.4).
const QUERY_PREFIXES: [&str; 3] = ["search query:", "user input:", "user searched:"];
/// Product-pair prefixes.
const PAIR_PREFIXES: [&str; 2] = ["bought together:", "co-purchased items:"];

/// Render the behaviour's surface text under template `t`.
pub fn render_behavior(world: &World, b: BehaviorRef, t: usize) -> String {
    match b {
        BehaviorRef::SearchBuy(q, p) => format!(
            "{} {} | purchased product: {}",
            QUERY_PREFIXES[t % QUERY_PREFIXES.len()],
            world.query(q).text,
            world.product(p).title
        ),
        BehaviorRef::CoBuy(p1, p2) => format!(
            "{} {} + {}",
            PAIR_PREFIXES[t % PAIR_PREFIXES.len()],
            world.product(p1).title,
            world.product(p2).title
        ),
    }
}

/// Build the instruction dataset from the pipeline's annotations.
pub fn build_instructions(
    world: &World,
    filtered: &[FilteredCandidate],
    annotation: &AnnotationOutput,
    seed: u64,
) -> Vec<Instruction> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for a in &annotation.annotations {
        let f = &filtered[a.candidate_idx];
        let Some(parsed) = &f.parsed else { continue };
        let tail = parsed.tail.clone();
        let b = f.candidate.behavior;
        let domain = f.candidate.domain;
        let relation = f.candidate.relation;
        let t = rng.gen_range(0..QUERY_PREFIXES.len());
        let behavior_text = render_behavior(world, b, t);

        // Task 1: generation — typical knowledge only.
        if a.answers.typical == Ans::Yes && !tail.is_empty() {
            out.push(Instruction {
                task: TaskType::Generate,
                template_id: t,
                input: format!(
                    "generate a {} explanation in domain {} for: {}",
                    relation.name(),
                    domain.name(),
                    behavior_text
                ),
                output: tail.clone(),
                tail: Some(tail.clone()),
                label: None,
                relation: Some(relation),
                domain,
                behavior: b,
            });
        }
        // Tasks 2 & 3: plausibility / typicality prediction.
        for (task, ans) in [
            (TaskType::Plausibility, a.answers.plausible),
            (TaskType::Typicality, a.answers.typical),
        ] {
            if let Some(label) = ans.as_bool() {
                out.push(Instruction {
                    task,
                    template_id: t,
                    input: format!(
                        "is the explanation \"{tail}\" {} for: {behavior_text}",
                        if task == TaskType::Plausibility {
                            "plausible"
                        } else {
                            "typical"
                        },
                    ),
                    output: if label { "yes" } else { "no" }.to_string(),
                    tail: Some(tail.clone()),
                    label: Some(label),
                    relation: Some(relation),
                    domain,
                    behavior: b,
                });
            }
        }
        // Tasks 4 & 5: behaviour-level predictions from the relevance
        // annotations (irrelevant pairs ≈ random behaviours).
        if let Some(relevant) = a.answers.relevant.as_bool() {
            match b {
                BehaviorRef::CoBuy(..) => out.push(Instruction {
                    task: TaskType::CopurchasePrediction,
                    template_id: t,
                    input: format!("are these genuinely bought together: {behavior_text}"),
                    output: if relevant { "yes" } else { "no" }.to_string(),
                    tail: None,
                    label: Some(relevant),
                    relation: None,
                    domain,
                    behavior: b,
                }),
                BehaviorRef::SearchBuy(..) => out.push(Instruction {
                    task: TaskType::RelevancePrediction,
                    template_id: t,
                    input: format!("is the product relevant to the query: {behavior_text}"),
                    output: if relevant { "yes" } else { "no" }.to_string(),
                    tail: None,
                    label: Some(relevant),
                    relation: None,
                    domain,
                    behavior: b,
                }),
            }
        }
    }
    out
}

/// Dataset composition summary (instances per task).
pub fn task_histogram(instructions: &[Instruction]) -> Vec<(TaskType, usize)> {
    TaskType::ALL
        .iter()
        .map(|&t| (t, instructions.iter().filter(|i| i.task == t).count()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_core::{run, PipelineConfig};

    #[test]
    fn builds_all_five_task_types() {
        let out = run(PipelineConfig::tiny(71));
        let instructions = build_instructions(&out.world, &out.filtered, &out.annotation, 72);
        let hist = task_histogram(&instructions);
        for (task, n) in &hist {
            assert!(*n > 0, "no instances for task {:?}", task);
        }
        // prediction tasks should dominate (every annotation yields them)
        let gen = hist[0].1;
        let plaus = hist[1].1;
        assert!(plaus > gen, "generation uses only typical=yes annotations");
    }

    #[test]
    fn generation_outputs_are_typical_tails() {
        let out = run(PipelineConfig::tiny(71));
        let instructions = build_instructions(&out.world, &out.filtered, &out.annotation, 72);
        for i in instructions.iter().filter(|i| i.task == TaskType::Generate) {
            assert_eq!(i.tail.as_deref(), Some(i.output.as_str()));
            assert!(!i.output.is_empty());
            assert!(i.relation.is_some());
        }
    }

    #[test]
    fn templates_vary() {
        let out = run(PipelineConfig::tiny(71));
        let instructions = build_instructions(&out.world, &out.filtered, &out.annotation, 72);
        let distinct: std::collections::HashSet<usize> =
            instructions.iter().map(|i| i.template_id).collect();
        assert!(distinct.len() >= 2, "should use multiple templates");
    }

    #[test]
    fn deterministic_per_seed() {
        let out = run(PipelineConfig::tiny(71));
        let a = build_instructions(&out.world, &out.filtered, &out.annotation, 72);
        let b = build_instructions(&out.world, &out.filtered, &out.annotation, 72);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].input, b[0].input);
    }
}

#[cfg(test)]
mod consistency_tests {
    use super::*;
    use cosmo_core::{run, PipelineConfig};
    use std::sync::OnceLock;

    fn instructions() -> &'static Vec<Instruction> {
        static I: OnceLock<Vec<Instruction>> = OnceLock::new();
        I.get_or_init(|| {
            let out = run(PipelineConfig::tiny(601));
            build_instructions(&out.world, &out.filtered, &out.annotation, 602)
        })
    }

    #[test]
    fn prediction_outputs_match_labels() {
        for i in instructions() {
            if let Some(label) = i.label {
                let expected = if label { "yes" } else { "no" };
                assert_eq!(i.output, expected, "{:?}", i.task);
            }
        }
    }

    #[test]
    fn task_inputs_carry_behaviour_surface_forms() {
        for i in instructions().iter().take(400) {
            match i.behavior {
                BehaviorRef::SearchBuy(..) => assert!(
                    i.input.contains("search query")
                        || i.input.contains("user input")
                        || i.input.contains("user searched"),
                    "{}",
                    i.input
                ),
                BehaviorRef::CoBuy(..) => assert!(
                    i.input.contains("bought together") || i.input.contains("co-purchased"),
                    "{}",
                    i.input
                ),
            }
        }
    }

    #[test]
    fn cobuy_behaviours_never_feed_relevance_prediction() {
        for i in instructions() {
            if i.task == TaskType::RelevancePrediction {
                assert!(matches!(i.behavior, BehaviorRef::SearchBuy(..)));
            }
            if i.task == TaskType::CopurchasePrediction {
                assert!(matches!(i.behavior, BehaviorRef::CoBuy(..)));
            }
        }
    }
}
