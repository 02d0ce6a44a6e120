//! The feedback loop (Figure 5, §3.5.2): "continuous model refinement is
//! achieved by feeding back user interactions into COSMO-LM, ensuring
//! up-to-date responsiveness to evolving user behaviors."
//!
//! [`apply_feedback`] closes the loop offline-side: interactions recorded
//! by the serving stack (`(query text, purchased product title)` pairs)
//! are resolved back to behaviour pairs, prompted through the teacher,
//! passed through the *already fitted* coarse filter and critic, and the
//! surviving knowledge is appended to the existing KG — an incremental
//! daily refresh rather than a full rebuild.

use crate::critic::features;
use crate::filter::CoarseFilter;
use crate::pipeline::{PipelineConfig, PipelineOutput};
use cosmo_kg::{BehaviorKind, Edge, NodeKind};
use cosmo_synth::{ProductId, QueryId};
use cosmo_teacher::{BehaviorRef, Teacher, TeacherConfig};
use cosmo_text::FxHashMap;

/// Counters from one incremental refresh.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalUpdate {
    /// Feedback events that resolved to known (query, product) pairs.
    pub resolved_pairs: usize,
    /// Feedback events that could not be resolved (logged and skipped).
    pub unresolved: usize,
    /// Teacher candidates generated.
    pub candidates: usize,
    /// Candidates surviving the coarse filter.
    pub kept: usize,
    /// New or reinforced KG edges.
    pub edges: usize,
}

/// Apply serving feedback to an existing pipeline output, growing its KG.
///
/// Deterministic per `refresh_seed` (use e.g. the day number), so repeated
/// daily refreshes are reproducible.
pub fn apply_feedback(
    out: &mut PipelineOutput,
    cfg: &PipelineConfig,
    feedback: &[(String, String)],
    refresh_seed: u64,
) -> IncrementalUpdate {
    let mut update = IncrementalUpdate::default();

    // resolve surface forms back to world entities
    let query_index: FxHashMap<&str, QueryId> = out
        .world
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| (q.text.as_str(), QueryId(i as u32)))
        .collect();
    let product_index: FxHashMap<&str, ProductId> = out
        .world
        .products
        .iter()
        .enumerate()
        .map(|(i, p)| (p.title.as_str(), ProductId(i as u32)))
        .collect();
    let mut pairs: Vec<(QueryId, ProductId)> = Vec::new();
    for (q, p) in feedback {
        match (query_index.get(q.as_str()), product_index.get(p.as_str())) {
            (Some(&qid), Some(&pid)) => pairs.push((qid, pid)),
            _ => update.unresolved += 1,
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    update.resolved_pairs = pairs.len();
    if pairs.is_empty() {
        return update;
    }

    // generate fresh candidates for the fed-back behaviours
    let teacher_cfg = TeacherConfig {
        seed: cfg.teacher.seed ^ refresh_seed.wrapping_mul(0x9E37_79B9),
        ..cfg.teacher.clone()
    };
    let mut teacher = Teacher::new(&out.world, teacher_cfg);
    let mut candidates = Vec::new();
    for &(q, p) in &pairs {
        for _ in 0..cfg.gens_per_searchbuy {
            candidates.push(teacher.generate_search_buy(q, p));
        }
    }
    update.candidates = candidates.len();

    // coarse filter (re-fit on the world corpus — the corpus is stable, so
    // this reproduces the production filter exactly)
    let filter = CoarseFilter::fit(&cosmo_synth::corpus(&out.world), cfg.filter.clone());
    let filtered = filter.filter(&out.world, candidates);
    update.kept = filtered.iter().filter(|f| f.decision.kept()).count();

    // score with the *existing* critic and admit above threshold
    for f in &filtered {
        if !f.decision.kept() {
            continue;
        }
        let Some(parsed) = &f.parsed else { continue };
        if parsed.tail.is_empty() {
            continue;
        }
        let feats = features(&out.world, &f.candidate, &parsed.tail, out.critic.buckets());
        let (plaus, typ) = out.critic.score(&feats);
        if plaus <= cfg.plausibility_threshold {
            continue;
        }
        let BehaviorRef::SearchBuy(q, p) = f.candidate.behavior else {
            continue;
        };
        let tail = out.kg.intern_node(NodeKind::Intention, &parsed.tail);
        let qn = out
            .kg
            .intern_node(NodeKind::Query, &out.world.query(q).text);
        let pn = out
            .kg
            .intern_node(NodeKind::Product, &out.world.product(p).title);
        for head in [qn, pn] {
            out.kg.add_edge(Edge {
                head,
                relation: f.candidate.relation,
                tail,
                behavior: BehaviorKind::SearchBuy,
                category: f.candidate.domain.0,
                plausibility: plaus,
                typicality: typ,
                support: 1,
            });
            update.edges += 1;
        }
        out.stats
            .add_behavior_pairs(BehaviorKind::SearchBuy, f.candidate.domain.0, 0);
    }
    out.stats.count_edges(&out.kg);
    update
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run;

    fn setup() -> (PipelineOutput, PipelineConfig) {
        let cfg = PipelineConfig::tiny(0xFEED);
        (run(cfg.clone()), cfg)
    }

    /// A (query, product) pair the KG has no knowledge for yet.
    fn novel_pair(out: &PipelineOutput) -> (String, String) {
        for q in &out.world.queries {
            if out.kg.find_node(NodeKind::Query, &q.text).is_none() && !q.target_types.is_empty() {
                let p = out.world.products_of_type(q.target_types[0])[0];
                return (q.text.clone(), out.world.product(p).title.clone());
            }
        }
        panic!("no novel query found");
    }

    #[test]
    fn feedback_grows_the_graph() {
        let (mut out, cfg) = setup();
        let before_edges = out.kg.num_edges();
        let (q, p) = novel_pair(&out);
        let feedback: Vec<(String, String)> = vec![(q.clone(), p)];
        let update = apply_feedback(&mut out, &cfg, &feedback, 1);
        assert_eq!(update.resolved_pairs, 1);
        assert_eq!(update.unresolved, 0);
        assert!(update.candidates > 0);
        assert!(out.kg.num_edges() >= before_edges);
        if update.edges > 0 {
            // the fed-back query is now servable from the KG
            assert!(out.kg.find_node(NodeKind::Query, &q).is_some());
        }
    }

    #[test]
    fn unresolvable_feedback_is_counted_not_fatal() {
        let (mut out, cfg) = setup();
        let feedback = vec![("no such query".to_string(), "no such product".to_string())];
        let update = apply_feedback(&mut out, &cfg, &feedback, 2);
        assert_eq!(update.unresolved, 1);
        assert_eq!(update.resolved_pairs, 0);
        assert_eq!(update.edges, 0);
    }

    #[test]
    fn refresh_is_deterministic_per_seed() {
        let (out0, cfg) = setup();
        let (q, p) = novel_pair(&out0);
        let feedback = vec![(q, p)];
        let mut a = run(cfg.clone());
        let mut b = run(cfg.clone());
        let ua = apply_feedback(&mut a, &cfg, &feedback, 7);
        let ub = apply_feedback(&mut b, &cfg, &feedback, 7);
        assert_eq!(ua, ub);
        assert_eq!(a.kg.num_edges(), b.kg.num_edges());
    }

    #[test]
    fn repeated_feedback_reinforces_support() {
        let (mut out, cfg) = setup();
        let (q, p) = novel_pair(&out);
        let feedback = vec![(q.clone(), p.clone())];
        let u1 = apply_feedback(&mut out, &cfg, &feedback, 1);
        let edges_after_first = out.kg.num_edges();
        // a second refresh with the same feedback re-generates the same
        // candidates (same derived seed per day) or merges duplicates
        let u2 = apply_feedback(&mut out, &cfg, &feedback, 1);
        assert_eq!(u1.resolved_pairs, u2.resolved_pairs);
        assert_eq!(
            out.kg.num_edges(),
            edges_after_first,
            "identical refresh must merge into existing edges"
        );
    }
}
