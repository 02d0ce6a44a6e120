//! # cosmo-relevance
//!
//! Search-relevance application (§4.1): synthetic ESCI datasets for five
//! locales (Table 5), the three architectures of Figure 6 (bi-encoder,
//! cross-encoder, cross-encoder w/ COSMO intent) under fixed and trainable
//! encoder regimes, and Macro/Micro F1 evaluation — the machinery behind
//! Table 6 and Figure 7.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod metrics;
pub mod models;

pub use dataset::{
    attach_knowledge, generate_locale, EsciConfig, EsciDataset, EsciExample, EsciLabel, LOCALES,
};
pub use metrics::{render_per_class, Confusion};
pub use models::{
    run_architecture, Architecture, RelevanceConfig, RelevanceModel, RelevanceResult,
};

use cosmo_kg::{KnowledgeGraph, NodeKind, Relation};
use cosmo_lm::CosmoLm;

/// The production knowledge feature `G` for a query–product pair (§4.1:
/// "we leverage COSMO-LM to generate commonsense knowledge G behind the
/// query-product pairs and explicitly enhance their connections"):
///
/// * intention tails for the query and the product — from the COSMO KG
///   when the node exists, otherwise generated on the fly by COSMO-LM
///   (the cold-query path of the serving stack);
/// * explicit `shared <tail>` markers when the two sides express the same
///   intention — the connection a cross-encoder's attention would
///   otherwise have to discover;
/// * `complement <tail>` markers when a query-side `USED_WITH` tail names
///   something the product title matches.
pub fn pair_knowledge(kg: &KnowledgeGraph, lm: &CosmoLm, query: &str, product: &str) -> String {
    let side_tails = |kind: NodeKind, text: &str, role: &str| -> Vec<(Option<Relation>, String)> {
        if let Some(n) = kg.find_node(kind, text) {
            let mut tails: Vec<(Option<Relation>, String)> = kg
                .top_intents(n, 4)
                .iter()
                .map(|e| (Some(e.relation), kg.node_text(e.tail).to_string()))
                .collect();
            // USED_WITH tails carry the complement structure; surface the
            // best two even when they rank below the generic top-4
            let mut with: Vec<(usize, f32, String)> = kg
                .tails_of_rel(n, Relation::UsedWith)
                .enumerate()
                .map(|(i, e)| {
                    (
                        i,
                        e.typicality * (1.0 + e.support as f32).ln(),
                        kg.node_text(e.tail).to_string(),
                    )
                })
                .collect();
            with.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for (_, _, t) in with.into_iter().take(2) {
                if !tails.iter().any(|(_, x)| x == &t) {
                    tails.push((Some(Relation::UsedWith), t));
                }
            }
            if !tails.is_empty() {
                return tails;
            }
        }
        // cold entity: generate with the student
        let input =
            format!("generate a USED_FOR_FUNC explanation in domain unknown for: {role}: {text}");
        lm.generate(&input, None, 2)
            .into_iter()
            .map(|(t, _)| (None, t))
            .collect()
    };
    let q_tails = side_tails(NodeKind::Query, query, "search query");
    let p_tails = side_tails(NodeKind::Product, product, "purchased product");
    let mut parts: Vec<String> = Vec::new();
    for (_, t) in &q_tails {
        parts.push(format!("query intent {t}"));
    }
    for (_, t) in &p_tails {
        parts.push(format!("product intent {t}"));
    }
    for (_, t) in &q_tails {
        if p_tails.iter().any(|(_, pt)| pt == t) {
            parts.push(format!("shared {t}"));
        }
    }
    // complement markers: a USED_WITH tail on one side naming the other
    // side — either literally (tokens inside the surface text) or via the
    // other side's own tails
    let mut mark_complement =
        |tail: &str, other_text: &str, other_tails: &[(Option<Relation>, String)]| {
            let toks = cosmo_text::tokenize(tail);
            let literal =
                !toks.is_empty() && toks.iter().all(|tok| other_text.contains(tok.as_str()));
            let via_tails = other_tails.iter().any(|(_, t)| t == tail);
            if literal || via_tails {
                parts.push(format!("complement {tail}"));
            }
        };
    for (r, t) in &q_tails {
        if *r == Some(Relation::UsedWith) {
            mark_complement(t, product, &p_tails);
        }
    }
    for (r, t) in &p_tails {
        if *r == Some(Relation::UsedWith) {
            mark_complement(t, query, &q_tails);
        }
    }
    parts.join(" . ")
}
