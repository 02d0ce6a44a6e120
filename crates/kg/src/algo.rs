//! Graph algorithms over the frozen knowledge-graph snapshot.
//!
//! Used by the serving/navigation stack beyond plain adjacency lookups:
//!
//! * **intent importance** — a PageRank-style score over the bipartite
//!   head↔intention structure, ranking intentions by how much behavioural
//!   mass flows into them (navigation uses it to order root suggestions);
//! * **connected components** — diagnostics for KG fragmentation (a
//!   healthy pipeline run yields one giant component per domain cluster);
//! * **degree distribution** — the long-tail shape reports of the KG
//!   statistics pages.
//!
//! All algorithms take a [`KgSnapshotView`] and iterate its CSR slices
//! directly — no temporary per-node adjacency vectors are materialised.
//! Freeze a [`crate::store::KnowledgeGraph`] first (`kg.freeze()`); the
//! freeze cost is amortised across every traversal that follows.

use crate::snapshot::KgSnapshotView;
use crate::store::NodeId;
use cosmo_text::FxHashMap;

/// PageRank over the undirected view of the KG.
///
/// Damping `d`, `iterations` rounds of synchronous updates; returns a score
/// per node id (dense, indexed by `NodeId.0`). Deterministic.
pub fn pagerank(snap: &KgSnapshotView, d: f64, iterations: usize) -> Vec<f64> {
    let n = snap.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let edges = snap.edges();
    // Undirected weighted degree (edge weight = support): out-edges plus
    // in-edges, both read straight from the CSR slices.
    let out_weight: Vec<f64> = (0..n)
        .map(|i| {
            let id = NodeId(i as u32);
            let out: f64 = snap.out_slice(id).iter().map(|e| e.support as f64).sum();
            let inw: f64 = snap
                .in_slice(id)
                .iter()
                .map(|&j| edges[j as usize].support as f64)
                .sum();
            out + inw
        })
        .collect();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        next.iter_mut().for_each(|x| *x = (1.0 - d) / n as f64);
        let mut dangling = 0.0;
        for i in 0..n {
            if out_weight[i] == 0.0 {
                dangling += rank[i];
                continue;
            }
            let id = NodeId(i as u32);
            let share = d * rank[i] / out_weight[i];
            for e in snap.out_slice(id) {
                next[e.tail.0 as usize] += share * e.support as f64;
            }
            for &j in snap.in_slice(id) {
                let e = &edges[j as usize];
                next[e.head.0 as usize] += share * e.support as f64;
            }
        }
        // dangling mass is redistributed uniformly
        let dangling_share = d * dangling / n as f64;
        for x in next.iter_mut() {
            *x += dangling_share;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Connected components over the undirected view: returns
/// `(component id per node, number of components)`.
pub fn connected_components(snap: &KgSnapshotView) -> (Vec<usize>, usize) {
    let n = snap.num_nodes();
    let edges = snap.edges();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = count;
        stack.push(start as u32);
        while let Some(v) = stack.pop() {
            let id = NodeId(v);
            for e in snap.out_slice(id) {
                let u = e.tail.0;
                if comp[u as usize] == usize::MAX {
                    comp[u as usize] = count;
                    stack.push(u);
                }
            }
            for &j in snap.in_slice(id) {
                let u = edges[j as usize].head.0;
                if comp[u as usize] == usize::MAX {
                    comp[u as usize] = count;
                    stack.push(u);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Size of the largest connected component.
pub fn giant_component_size(snap: &KgSnapshotView) -> usize {
    let (comp, count) = connected_components(snap);
    let mut sizes = vec![0usize; count];
    for &c in &comp {
        sizes[c] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

/// Degree histogram of the KG (`degree → node count`), for the long-tail
/// shape diagnostics.
pub fn degree_histogram(snap: &KgSnapshotView) -> FxHashMap<usize, usize> {
    let mut hist: FxHashMap<usize, usize> = FxHashMap::default();
    for i in 0..snap.num_nodes() {
        let id = NodeId(i as u32);
        let deg = snap.out_slice(id).len() + snap.in_slice(id).len();
        *hist.entry(deg).or_insert(0) += 1;
    }
    hist
}

/// Top-`k` intention nodes by PageRank, with scores.
pub fn top_intents_global(snap: &KgSnapshotView, k: usize) -> Vec<(NodeId, f64)> {
    use crate::schema::NodeKind;
    let rank = pagerank(snap, 0.85, 30);
    let mut scored: Vec<(NodeId, f64)> = (0..snap.num_nodes())
        .map(|i| NodeId(i as u32))
        .filter(|&id| snap.node_kind(id) == NodeKind::Intention)
        .map(|id| (id, rank[id.0 as usize]))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{BehaviorKind, NodeKind, Relation};
    use crate::store::{Edge, KnowledgeGraph};

    fn star_graph(leaves: usize) -> KnowledgeGraph {
        // one hub intention fed by `leaves` products
        let mut kg = KnowledgeGraph::new();
        let hub = kg.intern_node(NodeKind::Intention, "hub intent");
        let rare = kg.intern_node(NodeKind::Intention, "rare intent");
        for i in 0..leaves {
            let p = kg.intern_node(NodeKind::Product, &format!("product {i}"));
            kg.add_edge(Edge {
                head: p,
                relation: Relation::CapableOf,
                tail: hub,
                behavior: BehaviorKind::CoBuy,
                category: 0,
                plausibility: 0.9,
                typicality: 0.9,
                support: 1,
            });
            if i == 0 {
                kg.add_edge(Edge {
                    head: p,
                    relation: Relation::UsedForEve,
                    tail: rare,
                    behavior: BehaviorKind::CoBuy,
                    category: 0,
                    plausibility: 0.9,
                    typicality: 0.9,
                    support: 1,
                });
            }
        }
        kg
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hub_highest() {
        let kg = star_graph(8);
        let snap = kg.freeze();
        let rank = pagerank(&snap, 0.85, 40);
        let sum: f64 = rank.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum={sum}");
        let hub = kg.find_node(NodeKind::Intention, "hub intent").unwrap();
        let max_idx = rank
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, hub.0 as usize, "hub must dominate");
    }

    #[test]
    fn pagerank_empty_graph() {
        let snap = KnowledgeGraph::new().freeze();
        assert!(pagerank(&snap, 0.85, 10).is_empty());
    }

    #[test]
    fn components_of_star_is_one() {
        let kg = star_graph(5);
        let snap = kg.freeze();
        let (_, count) = connected_components(&snap);
        assert_eq!(count, 1);
        assert_eq!(giant_component_size(&snap), kg.num_nodes());
    }

    #[test]
    fn disconnected_subgraphs_counted() {
        let mut kg = star_graph(3);
        // isolated pair
        let a = kg.intern_node(NodeKind::Query, "island query");
        let b = kg.intern_node(NodeKind::Intention, "island intent");
        kg.add_edge(Edge {
            head: a,
            relation: Relation::XWant,
            tail: b,
            behavior: BehaviorKind::SearchBuy,
            category: 1,
            plausibility: 0.9,
            typicality: 0.9,
            support: 1,
        });
        let snap = kg.freeze();
        let (_, count) = connected_components(&snap);
        assert_eq!(count, 2);
        assert_eq!(giant_component_size(&snap), kg.num_nodes() - 2);
    }

    #[test]
    fn degree_histogram_counts_everything() {
        let kg = star_graph(4);
        let snap = kg.freeze();
        let hist = degree_histogram(&snap);
        let total: usize = hist.values().sum();
        assert_eq!(total, kg.num_nodes());
        // the hub has degree 4
        assert_eq!(hist.get(&4), Some(&1));
    }

    #[test]
    fn top_global_intents_prefers_hub() {
        let kg = star_graph(6);
        let snap = kg.freeze();
        let top = top_intents_global(&snap, 2);
        assert_eq!(kg.node_text(top[0].0), "hub intent");
        assert!(top[0].1 > top[1].1);
    }
}
