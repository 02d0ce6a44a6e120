//! Hierarchical organisation of intention tails (Figure 8).
//!
//! §4.3: "COSMO intention knowledge can be further organized into
//! hierarchies that expand coarse-grained ones (*camping*) to fine-grained
//! ones (*winter camping*), and intention concepts are further linked to
//! product concepts such as *winter boots*."
//!
//! The hierarchy is structure laid over the graph's intention nodes, not a
//! second store of them: it keeps only the links the graph cannot answer.
//! An intention A is a parent of intention B when A's token set is a
//! strict subset of B's (so "camping" ⊃-specialises into "winter camping"
//! and "lakeside camping"). Node text, lookup by text and the product
//! heads that express an intention stay in the [`GraphView`] the caller
//! already holds, which is what the multi-turn navigation engine in
//! `cosmo-nav` walks alongside these links.

use crate::schema::NodeKind;
use crate::store::NodeId;
use crate::view::GraphView;
use cosmo_text::{tokenize, FxHashMap};

/// The intent hierarchy: a DAG of immediate strict-subset links between
/// the graph's intention nodes.
#[derive(Debug, Clone, Default)]
pub struct IntentHierarchy {
    /// Intention nodes whose text has at least one token.
    len: usize,
    /// Every link as a sorted `(child, parent)` pair.
    up: Vec<(NodeId, NodeId)>,
    /// Every link as a sorted `(parent, child)` pair.
    down: Vec<(NodeId, NodeId)>,
}

impl IntentHierarchy {
    /// Build the hierarchy from every intention node in the graph. Works
    /// over any [`GraphView`] backend — the mutable store or a frozen
    /// snapshot — and produces identical hierarchies for equal graphs.
    pub fn build<G: GraphView>(kg: &G) -> Self {
        // Each intention node's token set as sorted distinct token ids
        // (interned here), and each token id's posting list of the nodes
        // containing it, to avoid O(n²) subset checks; filled in node
        // order, so every posting list is ascending and row indices
        // ascend with node ids.
        let mut token_ids: FxHashMap<String, u32> = FxHashMap::default();
        let mut ids: Vec<NodeId> = Vec::new();
        let mut tokens: Vec<Vec<u32>> = Vec::new();
        let mut postings: Vec<Vec<u32>> = Vec::new();
        for id in (0..kg.num_nodes() as u32).map(NodeId) {
            if kg.node_kind(id) != NodeKind::Intention {
                continue;
            }
            let mut row: Vec<u32> = Vec::new();
            for token in tokenize(kg.node_text(id)) {
                let next = token_ids.len() as u32;
                row.push(*token_ids.entry(token).or_insert(next));
            }
            row.sort_unstable();
            row.dedup();
            if row.is_empty() {
                continue;
            }
            postings.resize_with(token_ids.len(), Vec::new);
            for &t in &row {
                postings[t as usize].push(ids.len() as u32);
            }
            ids.push(id);
            tokens.push(row);
        }
        drop(token_ids);

        // A is parent of B iff tokens(A) ⊊ tokens(B). We only link
        // *immediate* parents (no grandparent shortcuts) to keep the DAG
        // navigable one refinement at a time.
        //
        // Enumerate candidates from the *parent* side: every child of A
        // contains ALL of A's tokens, in particular A's rarest one — so
        // scanning the rarest token's posting list finds every child, and
        // its length bounds the work. (The child-side union of items
        // sharing *any* token blows up quadratically once common tokens
        // dominate: at the paper-scale world's 2.5M intentions it made
        // the build effectively unbounded.) Sorted `(child, parent)` pairs
        // group each child's parents in ascending order.
        let mut links: Vec<(u32, u32)> = Vec::new();
        for (a, atoks) in tokens.iter().enumerate() {
            let rare = atoks
                .iter()
                .min_by_key(|&&t| postings[t as usize].len())
                .unwrap(); // PANIC: atoks is non-empty (filtered at insertion)
            for &b in &postings[*rare as usize] {
                if a != b as usize && strict_subset(atoks, &tokens[b as usize]) {
                    links.push((b, a as u32));
                }
            }
        }
        links.sort_unstable();
        // Keep only maximal parents (immediate): drop a parent P when some
        // other parent Q of the same child has tokens(P) ⊂ tokens(Q).
        let mut up: Vec<(NodeId, NodeId)> = Vec::new();
        for ps in links.chunk_by(|x, y| x.0 == y.0) {
            for &(b, p) in ps {
                let p_toks = &tokens[p as usize];
                if !ps
                    .iter()
                    .any(|&(_, q)| q != p && strict_subset(p_toks, &tokens[q as usize]))
                {
                    up.push((ids[b as usize], ids[p as usize]));
                }
            }
        }
        // Row indices ascend with node ids, so `up` is already sorted.
        up.shrink_to_fit();
        let mut down: Vec<(NodeId, NodeId)> = up.iter().map(|&(c, p)| (p, c)).collect();
        down.sort_unstable();
        IntentHierarchy {
            len: ids.len(),
            up,
            down,
        }
    }

    /// Immediate children (more specific intents) of an intention node,
    /// in ascending node-id order.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        linked(&self.down, id)
    }

    /// Immediate parents (more general intents) of an intention node, in
    /// ascending node-id order.
    pub fn parents(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        linked(&self.up, id)
    }

    /// Roots: intentions with children and no parent, in ascending
    /// node-id order.
    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.down
            .chunk_by(|x, y| x.0 == y.0)
            .filter_map(|links| links.first())
            .map(|&(p, _)| p)
            .filter(|&p| self.parents(p).next().is_none())
    }

    /// Depth of the hierarchy (longest root-to-leaf chain; 0 when no
    /// intention has a child).
    pub fn depth(&self) -> usize {
        fn height(h: &IntentHierarchy, id: NodeId, memo: &mut FxHashMap<NodeId, usize>) -> usize {
            if let Some(&d) = memo.get(&id) {
                return d;
            }
            // The links are acyclic (strict subset ordering), so this
            // recursion terminates.
            let d = 1 + h
                .children(id)
                .map(|c| height(h, c, memo))
                .max()
                .unwrap_or(0);
            memo.insert(id, d);
            d
        }
        let mut memo = FxHashMap::default();
        self.roots()
            .map(|r| height(self, r, &mut memo))
            .max()
            .unwrap_or(0)
    }

    /// Number of intention nodes in the hierarchy (those whose text has at
    /// least one token), linked or not.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the graph has no intention with a token.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The second members of the sorted `pairs` whose first member is `id`.
fn linked(pairs: &[(NodeId, NodeId)], id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    let start = pairs.partition_point(|&(a, _)| a < id);
    pairs
        .iter()
        .skip(start)
        .take_while(move |&&(a, _)| a == id)
        .map(|&(_, b)| b)
}

/// `a ⊊ b` for sorted, deduplicated token-id lists.
fn strict_subset(a: &[u32], b: &[u32]) -> bool {
    a.len() < b.len() && a.iter().all(|t| b.binary_search(t).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{BehaviorKind, Relation};
    use crate::store::{Edge, KnowledgeGraph};

    fn graph_with_intents(tails: &[&str]) -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let p = kg.intern_node(NodeKind::Product, "air mattress");
        for (i, t) in tails.iter().enumerate() {
            let tail = kg.intern_node(NodeKind::Intention, t);
            kg.add_edge(Edge {
                head: p,
                relation: Relation::UsedForEve,
                tail,
                behavior: BehaviorKind::SearchBuy,
                category: 1,
                plausibility: 0.9,
                typicality: 0.8,
                support: (tails.len() - i) as u32,
            });
        }
        kg
    }

    /// Texts of `ids`, for readable asserts.
    fn texts(kg: &KnowledgeGraph, ids: impl Iterator<Item = NodeId>) -> Vec<&str> {
        ids.map(|id| kg.node_text(id)).collect()
    }

    fn intent(kg: &KnowledgeGraph, text: &str) -> NodeId {
        kg.find_node(NodeKind::Intention, text).unwrap()
    }

    #[test]
    fn camping_expands_to_specialisations() {
        let kg = graph_with_intents(&[
            "camping",
            "winter camping",
            "lakeside camping",
            "4-person camping",
            "hiking",
        ]);
        let h = IntentHierarchy::build(&kg);
        assert_eq!(
            texts(&kg, h.children(intent(&kg, "camping"))),
            vec!["winter camping", "lakeside camping", "4-person camping"]
        );
        assert_eq!(h.children(intent(&kg, "hiking")).count(), 0);
        assert_eq!(texts(&kg, h.roots()), vec!["camping"]);
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn immediate_parents_only() {
        let kg = graph_with_intents(&["camping", "winter camping", "cold winter camping"]);
        let h = IntentHierarchy::build(&kg);
        // "cold winter camping" should hang off "winter camping", not "camping"
        assert_eq!(
            texts(&kg, h.parents(intent(&kg, "cold winter camping"))),
            vec!["winter camping"]
        );
        assert_eq!(
            texts(&kg, h.children(intent(&kg, "camping"))),
            vec!["winter camping"]
        );
        assert_eq!(h.parents(intent(&kg, "camping")).count(), 0);
    }

    #[test]
    fn depth_counts_chain() {
        let kg = graph_with_intents(&["camping", "winter camping", "cold winter camping"]);
        let h = IntentHierarchy::build(&kg);
        assert_eq!(h.depth(), 3);
        // unlinked intentions count in `len` but form no chain
        let flat = IntentHierarchy::build(&graph_with_intents(&["camping", "hiking"]));
        assert_eq!((flat.len(), flat.depth(), flat.roots().count()), (2, 0, 0));
    }

    #[test]
    fn empty_graph_empty_hierarchy() {
        let kg = KnowledgeGraph::new();
        let h = IntentHierarchy::build(&kg);
        assert!(h.is_empty());
        assert_eq!(h.depth(), 0);
        // an intention without tokens stays out of the hierarchy
        let h = IntentHierarchy::build(&graph_with_intents(&["!!!"]));
        assert!(h.is_empty());
    }

    #[test]
    fn build_over_snapshot_matches_store() {
        let kg = graph_with_intents(&[
            "camping",
            "winter camping",
            "lakeside camping",
            "cold winter camping",
            "hiking",
        ]);
        let snap = kg.freeze();
        let from_store = IntentHierarchy::build(&kg);
        let from_snap = IntentHierarchy::build(&snap);
        assert_eq!(from_store.len(), from_snap.len());
        assert_eq!(from_store.up, from_snap.up);
        assert_eq!(from_store.down, from_snap.down);
        assert_eq!(
            from_store.roots().collect::<Vec<_>>(),
            from_snap.roots().collect::<Vec<_>>()
        );
    }

    #[test]
    fn find_scales_to_ten_thousand_intents() {
        // Regression test for the sorted-pair link lookup: 10k intents,
        // every one found in the graph with its one refinement, unknown
        // texts rejected — exercising the binary search far beyond the
        // toy fixtures.
        let mut tails: Vec<String> = Vec::new();
        for i in 0..5000 {
            tails.push(format!("activity{i}"));
            tails.push(format!("outdoor{i} activity{i}"));
        }
        let refs: Vec<&str> = tails.iter().map(|s| s.as_str()).collect();
        let kg = graph_with_intents(&refs);
        let h = IntentHierarchy::build(&kg);
        assert_eq!(h.len(), 10_000);
        assert_eq!(h.roots().count(), 5000);
        for i in (0..5000).step_by(97) {
            let base = intent(&kg, &format!("activity{i}"));
            let fine = format!("outdoor{i} activity{i}");
            assert_eq!(texts(&kg, h.children(base)), vec![fine.as_str()]);
            assert_eq!(
                h.parents(intent(&kg, &fine)).collect::<Vec<_>>(),
                vec![base]
            );
        }
        assert!(kg.find_node(NodeKind::Intention, "activity5000").is_none());
        assert!(kg.find_node(NodeKind::Intention, "").is_none());
        // a node outside the hierarchy has no links
        let product = kg.find_node(NodeKind::Product, "air mattress").unwrap();
        assert_eq!(h.children(product).count() + h.parents(product).count(), 0);
    }
}
