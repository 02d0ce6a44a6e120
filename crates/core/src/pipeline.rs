//! The end-to-end offline knowledge-generation pipeline (Figure 2).
//!
//! world → behaviour logs → fine-grained sampling (§3.2.1) → QA-prompted
//! teacher generation (§3.2.2) → coarse filtering (§3.3.1) → human-in-the-
//! loop annotation (§3.3.2) → critic training and scoring → knowledge graph
//! (plausibility > 0.5) with Table 3 statistics.
//!
//! The output bundles everything downstream stages need: the KG for
//! serving/navigation, the annotations for instruction-data construction
//! (§3.4), the kept candidates with critic scores, and a stage-by-stage
//! report used by the repro binaries and ablations.
//!
//! The expensive stages — teacher generation, per-candidate filter
//! decisions, feature extraction, critic scoring, and edge
//! materialisation — fan out over a [`cosmo_exec::WorkerPool`]. Every
//! fan-out merges index-ordered and every teacher task owns an RNG stream
//! derived from its `(behaviour, generation)` coordinates, so the output is
//! identical at any thread count; `threads = 1` runs inline on the caller
//! thread with no worker threads at all.

use crate::annotation::{annotate, AnnotationConfig, AnnotationOutput};
use crate::critic::{features, Critic, CriticConfig, CriticExample, CriticReport};
use crate::filter::{CoarseFilter, FilterConfig, FilterReport, FilteredCandidate};
use crate::sampling::{sample_behaviors, SamplingConfig, SamplingReport};
use cosmo_exec::WorkerPool;
use cosmo_kg::{BehaviorKind, Edge, KgStats, KnowledgeGraph, NodeKind, Relation};
use cosmo_synth::{BehaviorConfig, BehaviorLog, SpecificityService, World, WorldConfig};
use cosmo_teacher::{BehaviorRef, Candidate, CostMeter, Teacher, TeacherConfig};

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// World generation.
    pub world: WorldConfig,
    /// Behaviour-log generation.
    pub behavior: BehaviorConfig,
    /// Behaviour sampling strategies.
    pub sampling: SamplingConfig,
    /// Teacher LLM simulation.
    pub teacher: TeacherConfig,
    /// Coarse filtering thresholds.
    pub filter: FilterConfig,
    /// Annotation process.
    pub annotation: AnnotationConfig,
    /// Critic training.
    pub critic: CriticConfig,
    /// Generations prompted per sampled search-buy pair.
    pub gens_per_searchbuy: usize,
    /// Generations prompted per sampled co-buy pair.
    pub gens_per_cobuy: usize,
    /// Keep candidates with critic plausibility above this (§3.3.2: 0.5).
    pub plausibility_threshold: f32,
    /// Worker threads for the parallel stages. `0` = auto-detect the
    /// available parallelism; `1` = run everything inline on the caller
    /// thread. Any value produces byte-identical output.
    pub threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            world: WorldConfig::default(),
            behavior: BehaviorConfig::default(),
            sampling: SamplingConfig::default(),
            teacher: TeacherConfig::default(),
            filter: FilterConfig::default(),
            annotation: AnnotationConfig::default(),
            critic: CriticConfig::default(),
            gens_per_searchbuy: 4,
            gens_per_cobuy: 6,
            plausibility_threshold: 0.5,
            threads: 0,
        }
    }
}

impl PipelineConfig {
    /// Resolve the `threads` knob: `0` means every available core.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            WorkerPool::available_parallelism()
        } else {
            self.threads
        }
    }

    /// A fast configuration for tests.
    pub fn tiny(seed: u64) -> Self {
        PipelineConfig {
            world: WorldConfig::tiny(seed),
            behavior: BehaviorConfig::tiny(seed ^ 1),
            annotation: AnnotationConfig {
                budget_per_behavior: 400,
                ..Default::default()
            },
            critic: CriticConfig {
                epochs: 6,
                ..Default::default()
            },
            gens_per_searchbuy: 2,
            gens_per_cobuy: 2,
            ..Default::default()
        }
    }
}

/// Per-stage counters of one pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineReport {
    /// Behaviour-sampling funnel.
    pub sampling: SamplingReport,
    /// Candidates generated.
    pub candidates: usize,
    /// Candidates surviving coarse filtering.
    pub kept_after_filter: usize,
    /// Filter quality vs hidden provenance.
    pub filter: FilterReport,
    /// Annotations collected.
    pub annotations: usize,
    /// Annotator disagreement rate.
    pub disagreement_rate: f64,
    /// Audit accuracy.
    pub audit_accuracy: f64,
    /// Critic metrics.
    pub critic: CriticReport,
    /// Candidates admitted to the KG.
    pub edges_admitted: usize,
    /// Simulated teacher FLOPs spent on generation.
    pub teacher_flops: f64,
}

/// Everything the pipeline produces.
pub struct PipelineOutput {
    /// The world it ran over (downstream tasks reuse it).
    pub world: World,
    /// The raw behaviour log.
    pub log: BehaviorLog,
    /// Filtered candidates (all, with decisions).
    pub filtered: Vec<FilteredCandidate>,
    /// Annotation output (instruction-data source).
    pub annotation: AnnotationOutput,
    /// Trained critic.
    pub critic: Critic,
    /// Critic scores for kept candidates, indexed like `filtered`
    /// (`None` for dropped candidates).
    pub scores: Vec<Option<(f32, f32)>>,
    /// The knowledge graph.
    pub kg: KnowledgeGraph,
    /// Table 3 statistics.
    pub stats: KgStats,
    /// Stage report.
    pub report: PipelineReport,
}

/// Run the full pipeline.
pub fn run(cfg: PipelineConfig) -> PipelineOutput {
    let world = World::generate(cfg.world.clone());
    let log = BehaviorLog::generate(&world, &cfg.behavior);
    run_over(world, log, &cfg)
}

/// Everything needed to add one admitted candidate's edges to the KG,
/// computed in parallel and merged sequentially in candidate order.
struct EdgeSpec {
    /// Head nodes in intern order.
    heads: Vec<(NodeKind, String)>,
    /// Relation type.
    relation: Relation,
    /// Canonicalised tail text.
    tail: String,
    /// Source behaviour kind.
    behavior: BehaviorKind,
    /// Product category index.
    category: u8,
    /// Critic plausibility.
    plausibility: f32,
    /// Critic typicality.
    typicality: f32,
}

/// Run the pipeline over a pre-built world and log (used by ablations that
/// share the same world across configurations).
pub fn run_over(world: World, log: BehaviorLog, cfg: &PipelineConfig) -> PipelineOutput {
    let mut report = PipelineReport::default();
    let specificity = SpecificityService::new(cfg.world.seed ^ 0x5FEC, 0.05);
    let pool = WorkerPool::new(cfg.effective_threads());

    // §3.2.1 sampling
    let sampled = sample_behaviors(&world, &log, &specificity, &cfg.sampling);
    report.sampling = sampled.report.clone();

    // §3.2.2 generation. Each (behaviour, generation) pair is one task
    // whose RNG stream is derived from its coordinates, not from a shared
    // sequential stream — so the fan-out cannot change what is generated.
    let mut tasks: Vec<(u64, u64, BehaviorRef)> = Vec::new();
    for (bi, &(q, p)) in sampled.search_buys.iter().enumerate() {
        for gi in 0..cfg.gens_per_searchbuy {
            tasks.push((bi as u64, gi as u64, BehaviorRef::SearchBuy(q, p)));
        }
    }
    let cobuy_base = sampled.search_buys.len() as u64;
    for (bi, &(p1, p2)) in sampled.cobuys.iter().enumerate() {
        for gi in 0..cfg.gens_per_cobuy {
            tasks.push((
                cobuy_base + bi as u64,
                gi as u64,
                BehaviorRef::CoBuy(p1, p2),
            ));
        }
    }
    let generated: Vec<(Candidate, CostMeter)> = pool.map(
        &tasks,
        pool.chunk_for(tasks.len()),
        |_, &(bi, gi, behavior)| {
            let mut teacher = Teacher::for_task(&world, cfg.teacher.clone(), bi, gi);
            let candidate = match behavior {
                BehaviorRef::SearchBuy(q, p) => teacher.generate_search_buy(q, p),
                BehaviorRef::CoBuy(p1, p2) => teacher.generate_cobuy(p1, p2),
            };
            (candidate, teacher.meter)
        },
    );
    let mut meter = CostMeter::new(cfg.teacher.model);
    let mut candidates = Vec::with_capacity(generated.len());
    for (c, m) in generated {
        meter.merge(&m);
        candidates.push(c);
    }
    report.candidates = candidates.len();
    report.teacher_flops = meter.total_flops();

    // Table 3: behaviour-pair counts per category
    let mut stats = KgStats::new();
    for &(q, _) in &sampled.search_buys {
        stats.add_behavior_pairs(BehaviorKind::SearchBuy, world.query(q).domain.0, 1);
    }
    for &(p1, _) in &sampled.cobuys {
        stats.add_behavior_pairs(BehaviorKind::CoBuy, world.ptype_of(p1).domain.0, 1);
    }

    // §3.3.1 coarse filtering (per-candidate decisions fan out)
    let filter = CoarseFilter::fit(&cosmo_synth::corpus(&world), cfg.filter.clone());
    let filtered = filter.filter_with(&world, candidates, &pool);
    report.kept_after_filter = filtered.iter().filter(|f| f.decision.kept()).count();
    report.filter = FilterReport::evaluate(&filtered);

    // §3.3.2 annotation
    let annotation = annotate(&world, &log, &filtered, &cfg.annotation);
    report.annotations = annotation.annotations.len();
    report.disagreement_rate = annotation.disagreement_rate;
    report.audit_accuracy = annotation.audit_accuracy;
    for a in &annotation.annotations {
        let c = &filtered[a.candidate_idx].candidate;
        stats.add_annotations(c.behavior.kind(), c.domain.0, 1);
    }

    // critic training (example construction fans out; the steps are
    // sequential, each splitting its large tensors across the pool)
    let mut critic = Critic::new(cfg.critic.clone());
    let examples: Vec<CriticExample> = pool.map(
        &annotation.annotations,
        pool.chunk_for(annotation.annotations.len()),
        |_, a| {
            let f = &filtered[a.candidate_idx];
            let tail = f.parsed.as_ref().map(|p| p.tail.as_str()).unwrap_or("");
            CriticExample {
                features: features(&world, &f.candidate, tail, cfg.critic.buckets),
                plausible: a.answers.plausible.as_bool(),
                typical: a.answers.typical.as_bool(),
            }
        },
    );
    report.critic = critic.train_with(&examples, &pool);

    // critic scoring of every kept candidate
    let kept_idx: Vec<usize> = filtered
        .iter()
        .enumerate()
        .filter(|(_, f)| f.decision.kept())
        .map(|(i, _)| i)
        .collect();
    let feats: Vec<Vec<usize>> = pool.map(&kept_idx, pool.chunk_for(kept_idx.len()), |_, &i| {
        let f = &filtered[i];
        let tail = f.parsed.as_ref().map(|p| p.tail.as_str()).unwrap_or("");
        features(&world, &f.candidate, tail, cfg.critic.buckets)
    });
    // score in fixed chunks to bound scratch size; each chunk is one
    // batched tape-free forward (`Critic::score_batch` packs the whole
    // chunk into a single matmul per head), chunks fan out across the
    // pool, and the merge is index-ordered
    const SCORE_CHUNK: usize = 512;
    let starts: Vec<usize> = (0..feats.len()).step_by(SCORE_CHUNK).collect();
    let chunk_scores: Vec<Vec<(f32, f32)>> = pool.map(&starts, 1, |_, &start| {
        let end = (start + SCORE_CHUNK).min(feats.len());
        critic.score_batch(&feats[start..end])
    });
    let mut scores: Vec<Option<(f32, f32)>> = vec![None; filtered.len()];
    for (&start, chunk) in starts.iter().zip(chunk_scores) {
        for (j, s) in chunk.into_iter().enumerate() {
            scores[kept_idx[start + j]] = Some(s);
        }
    }

    // §3.3.2: keep plausibility > threshold, build the KG. The string
    // materialisation per admitted candidate fans out; the merge interns
    // nodes sequentially in candidate order (tail first, then heads) so
    // node-id assignment matches the sequential run exactly.
    let specs: Vec<Option<EdgeSpec>> = pool.map(
        &filtered,
        pool.chunk_for(filtered.len()),
        |i, f: &FilteredCandidate| -> Option<EdgeSpec> {
            let (plausibility, typicality) = scores[i]?;
            if plausibility <= cfg.plausibility_threshold {
                return None;
            }
            let parsed = f.parsed.as_ref()?;
            if parsed.tail.is_empty() {
                return None;
            }
            let heads = match f.candidate.behavior {
                BehaviorRef::SearchBuy(q, p) => vec![
                    (NodeKind::Query, world.query(q).text.clone()),
                    (NodeKind::Product, world.product(p).title.clone()),
                ],
                BehaviorRef::CoBuy(p1, p2) => vec![
                    (NodeKind::Product, world.product(p1).title.clone()),
                    (NodeKind::Product, world.product(p2).title.clone()),
                ],
            };
            Some(EdgeSpec {
                heads,
                relation: f.candidate.relation,
                tail: parsed.tail.clone(),
                behavior: f.candidate.behavior.kind(),
                category: f.candidate.domain.0,
                plausibility,
                typicality,
            })
        },
    );
    let mut kg = KnowledgeGraph::new();
    for spec in specs.into_iter().flatten() {
        let tail_node = kg.intern_node(NodeKind::Intention, &spec.tail);
        for (kind, text) in &spec.heads {
            let head = kg.intern_node(*kind, text);
            kg.add_edge(Edge {
                head,
                relation: spec.relation,
                tail: tail_node,
                behavior: spec.behavior,
                category: spec.category,
                plausibility: spec.plausibility,
                typicality: spec.typicality,
                support: 1,
            });
            report.edges_admitted += 1;
        }
    }
    stats.count_edges(&kg);

    PipelineOutput {
        world,
        log,
        filtered,
        annotation,
        critic,
        scores,
        kg,
        stats,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_teacher::Provenance;

    fn output() -> PipelineOutput {
        run(PipelineConfig::tiny(61))
    }

    #[test]
    fn pipeline_produces_a_graph() {
        let out = output();
        assert!(out.kg.num_nodes() > 50, "nodes: {}", out.kg.num_nodes());
        assert!(out.kg.num_edges() > 100, "edges: {}", out.kg.num_edges());
        assert!(
            out.kg.num_relations() >= 8,
            "relations: {}",
            out.kg.num_relations()
        );
    }

    #[test]
    fn funnel_is_monotone() {
        let out = output();
        let r = &out.report;
        assert!(r.kept_after_filter <= r.candidates);
        assert!(r.annotations <= r.kept_after_filter);
        assert!(r.edges_admitted <= 2 * r.kept_after_filter);
        assert!(r.teacher_flops > 0.0);
    }

    #[test]
    fn admitted_edges_are_mostly_plausible_truth() {
        let out = output();
        // Of the candidates the critic admitted, most should genuinely be
        // in-profile knowledge (typical / atypical / shared co-buy).
        let mut good = 0;
        let mut total = 0;
        for (i, f) in out.filtered.iter().enumerate() {
            if let Some((p, _)) = out.scores[i] {
                if p > 0.5 {
                    total += 1;
                    if matches!(
                        f.candidate.provenance,
                        Provenance::Typical | Provenance::PlausibleAtypical
                    ) {
                        good += 1;
                    }
                }
            }
        }
        assert!(total > 50);
        let precision = good as f64 / total as f64;
        assert!(precision > 0.5, "KG precision {precision} too low");
    }

    #[test]
    fn stats_totals_match_graph() {
        let out = output();
        let (_, _, cb_edges) = out.stats.totals(BehaviorKind::CoBuy);
        let (_, _, sb_edges) = out.stats.totals(BehaviorKind::SearchBuy);
        assert_eq!((cb_edges + sb_edges) as usize, out.kg.num_edges());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let mut sequential = PipelineConfig::tiny(61);
        sequential.threads = 1;
        let mut parallel = PipelineConfig::tiny(61);
        parallel.threads = 4;
        let a = run(sequential);
        let b = run(parallel);
        assert_eq!(a.report, b.report);
        assert_eq!(a.kg.num_nodes(), b.kg.num_nodes());
        assert_eq!(a.kg.num_edges(), b.kg.num_edges());
        assert_eq!(a.scores, b.scores);
        for (fa, fb) in a.filtered.iter().zip(&b.filtered) {
            assert_eq!(fa.candidate.raw, fb.candidate.raw);
            assert_eq!(fa.decision, fb.decision);
        }
    }

    #[test]
    fn table4_shape_holds_end_to_end() {
        let out = output();
        let (sp, st) = out.annotation.table4_ratios(BehaviorKind::SearchBuy);
        let (cp, ct) = out.annotation.table4_ratios(BehaviorKind::CoBuy);
        assert!(st > ct, "search-buy typicality {st} vs co-buy {ct}");
        assert!(sp > cp);
    }
}
