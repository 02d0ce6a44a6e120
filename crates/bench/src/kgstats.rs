//! KG-analytics experiment: structural diagnostics of the built graph
//! (global intent importance, connectivity, degree distribution) —
//! the health checks an operator of the production KG would watch.

use crate::context::Ctx;
use cosmo_kg::{connected_components, degree_histogram, giant_component_size, top_intents_global};
use std::fmt::Write as _;

/// Render the KG analytics report. The analytics iterate CSR slices, so
/// the built graph is frozen into a [`cosmo_kg::KgSnapshotView`] first.
pub fn kgstats(ctx: &Ctx) -> String {
    let kg = ctx.out.kg.freeze();
    let kg = &kg;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "graph: {} nodes, {} edges, {} relation types",
        kg.num_nodes(),
        kg.num_edges(),
        kg.num_relations()
    );

    let (_, components) = connected_components(kg);
    let giant = giant_component_size(kg);
    let _ = writeln!(
        out,
        "connectivity: {} components; giant component covers {:.1}% of nodes",
        components,
        100.0 * giant as f64 / kg.num_nodes().max(1) as f64
    );

    // degree distribution summary (long-tail shape)
    let hist = degree_histogram(kg);
    let mut degrees: Vec<(usize, usize)> = hist.into_iter().collect();
    degrees.sort_unstable();
    let total_nodes: usize = degrees.iter().map(|(_, c)| c).sum();
    let mut cum = 0usize;
    let mut median_degree = 0;
    for &(d, c) in &degrees {
        cum += c;
        if cum * 2 >= total_nodes {
            median_degree = d;
            break;
        }
    }
    let max_degree = degrees.last().map(|(d, _)| *d).unwrap_or(0);
    let _ = writeln!(
        out,
        "degree distribution: median {median_degree}, max {max_degree} (long tail: {} nodes with degree ≥ 32)",
        degrees.iter().filter(|(d, _)| *d >= 32).map(|(_, c)| c).sum::<usize>()
    );

    let _ = writeln!(
        out,
        "\ntop intentions by PageRank (global behavioural mass):"
    );
    for (node, score) in top_intents_global(kg, 10) {
        let _ = writeln!(out, "  {:>8.5}  {}", score, kg.node_text(node));
    }
    out
}
