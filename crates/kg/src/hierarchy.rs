//! Hierarchical organisation of intention tails (Figure 8).
//!
//! §4.3: "COSMO intention knowledge can be further organized into
//! hierarchies that expand coarse-grained ones (*camping*) to fine-grained
//! ones (*winter camping*), and intention concepts are further linked to
//! product concepts such as *winter boots*."
//!
//! The builder derives the hierarchy from the tail strings themselves: an
//! intention A is a parent of intention B when A's token set is a strict
//! subset of B's (so "camping" ⊃-specialises into "winter camping" and
//! "lakeside camping"). Each hierarchy node is then linked to the product
//! heads that express it in the graph, which is what the multi-turn
//! navigation engine in `cosmo-nav` walks.

use crate::schema::NodeKind;
use crate::store::NodeId;
use crate::view::GraphView;
use cosmo_text::{tokenize, FxHashMap};

/// A node in the intent hierarchy.
#[derive(Debug, Clone)]
pub struct HierNode {
    /// The KG intention node.
    pub intent: NodeId,
    /// Surface text of the intention tail.
    pub text: String,
    /// Child hierarchy-node indices (more specific intents).
    pub children: Vec<usize>,
    /// Parent hierarchy-node indices (more general intents).
    pub parents: Vec<usize>,
    /// Product nodes linked to this intention in the KG.
    pub products: Vec<NodeId>,
    /// Total support of the intention's edges (popularity proxy).
    pub support: u32,
}

/// The intent hierarchy: a DAG over intention tails.
#[derive(Debug, Clone, Default)]
pub struct IntentHierarchy {
    /// All hierarchy nodes.
    pub nodes: Vec<HierNode>,
    /// Indices of root nodes (no parents).
    pub roots: Vec<usize>,
    /// Node indices sorted by tail text — the binary-searched index behind
    /// [`IntentHierarchy::find`]. Serialised (it is plain data), so lookups
    /// survive deserialisation without a rebuild step.
    by_text: Vec<u32>,
}

impl IntentHierarchy {
    /// Build the hierarchy from every intention node in the graph. Works
    /// over any [`GraphView`] backend — the mutable store or a frozen
    /// snapshot — and produces identical hierarchies for equal graphs.
    pub fn build<G: GraphView>(kg: &G) -> Self {
        // Each intention node's token set as sorted distinct token ids
        // (interned here), and each token id's posting list of the nodes
        // containing it, to avoid O(n²) subset checks; filled in node
        // order, so every posting list is ascending.
        let intentions: Vec<NodeId> = (0..kg.num_nodes() as u32)
            .map(NodeId)
            .filter(|&id| kg.node_kind(id) == NodeKind::Intention)
            .collect();
        let mut token_ids: FxHashMap<String, u32> = FxHashMap::default();
        let mut tokens: Vec<Vec<u32>> = Vec::new();
        let mut postings: Vec<Vec<u32>> = Vec::new();
        let mut nodes: Vec<HierNode> = Vec::with_capacity(intentions.len());
        for id in intentions {
            let text = kg.node_text(id);
            let mut row: Vec<u32> = Vec::new();
            for token in tokenize(text) {
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
                postings[t as usize].push(nodes.len() as u32);
            }
            tokens.push(row);
            let mut products = Vec::new();
            let mut support = 0;
            for e in kg.heads_of(id) {
                support += e.support;
                if kg.node_kind(e.head) == NodeKind::Product {
                    products.push(e.head);
                }
            }
            products.sort_unstable();
            products.dedup();
            products.shrink_to_fit();
            nodes.push(HierNode {
                intent: id,
                text: text.to_string(),
                children: Vec::new(),
                parents: Vec::new(),
                products,
                support,
            });
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
        for ps in links.chunk_by(|x, y| x.0 == y.0) {
            let b = ps[0].0 as usize;
            for &(_, p) in ps {
                let p_toks = &tokens[p as usize];
                if !ps
                    .iter()
                    .any(|&(_, q)| q != p && strict_subset(p_toks, &tokens[q as usize]))
                {
                    nodes[b].parents.push(p as usize);
                    nodes[p as usize].children.push(b);
                }
            }
        }
        let roots = (0..nodes.len())
            .filter(|&i| nodes[i].parents.is_empty() && !nodes[i].children.is_empty())
            .collect();
        let mut by_text: Vec<u32> = (0..nodes.len() as u32).collect();
        by_text.sort_unstable_by(|&a, &b| nodes[a as usize].text.cmp(&nodes[b as usize].text));
        IntentHierarchy {
            nodes,
            roots,
            by_text,
        }
    }

    /// Binary search the sorted text index; intention texts are unique
    /// (nodes are interned per `(kind, text)`), so at most one node matches.
    fn find_index(&self, text: &str) -> Option<usize> {
        self.by_text
            .binary_search_by(|&i| self.nodes[i as usize].text.as_str().cmp(text))
            .ok()
            .map(|pos| self.by_text[pos] as usize)
    }

    /// Find a hierarchy node by exact tail text.
    pub fn find(&self, text: &str) -> Option<&HierNode> {
        self.find_index(text).map(|i| &self.nodes[i])
    }

    /// Refinements (child intents) of a tail text, ranked by support.
    pub fn refinements_of(&self, text: &str) -> Vec<&HierNode> {
        let Some(i) = self.find_index(text) else {
            return Vec::new();
        };
        let mut children: Vec<&HierNode> = self.nodes[i]
            .children
            .iter()
            .map(|&c| &self.nodes[c])
            .collect();
        children.sort_by(|a, b| b.support.cmp(&a.support).then(a.text.cmp(&b.text)));
        children
    }

    /// Depth of the hierarchy (longest root-to-leaf chain; 0 when empty).
    pub fn depth(&self) -> usize {
        fn dfs(h: &IntentHierarchy, i: usize, memo: &mut [Option<usize>]) -> usize {
            if let Some(d) = memo[i] {
                return d;
            }
            // The parent links are acyclic (strict subset ordering), so this
            // recursion terminates.
            let d = 1 + h.nodes[i]
                .children
                .iter()
                .map(|&c| dfs(h, c, memo))
                .max()
                .unwrap_or(0);
            memo[i] = Some(d);
            d
        }
        let mut memo = vec![None; self.nodes.len()];
        self.roots
            .iter()
            .map(|&r| dfs(self, r, &mut memo))
            .max()
            .unwrap_or(0)
    }

    /// Number of hierarchy nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no intents were found.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
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
        let refs = h.refinements_of("camping");
        let texts: Vec<&str> = refs.iter().map(|n| n.text.as_str()).collect();
        assert_eq!(texts.len(), 3);
        assert!(texts.contains(&"winter camping"));
        assert!(texts.contains(&"lakeside camping"));
        assert!(texts.contains(&"4-person camping"));
        assert!(h.refinements_of("hiking").is_empty());
    }

    #[test]
    fn immediate_parents_only() {
        let kg = graph_with_intents(&["camping", "winter camping", "cold winter camping"]);
        let h = IntentHierarchy::build(&kg);
        // "cold winter camping" should hang off "winter camping", not "camping"
        let grand = h.find("cold winter camping").unwrap();
        assert_eq!(grand.parents.len(), 1);
        assert_eq!(h.nodes[grand.parents[0]].text, "winter camping");
        let refs = h.refinements_of("camping");
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].text, "winter camping");
    }

    #[test]
    fn products_linked() {
        let kg = graph_with_intents(&["camping"]);
        let h = IntentHierarchy::build(&kg);
        let node = h.find("camping").unwrap();
        assert_eq!(node.products.len(), 1);
        assert_eq!(kg.node_text(node.products[0]), "air mattress");
    }

    #[test]
    fn depth_counts_chain() {
        let kg = graph_with_intents(&["camping", "winter camping", "cold winter camping"]);
        let h = IntentHierarchy::build(&kg);
        assert_eq!(h.depth(), 3);
    }

    #[test]
    fn refinements_ranked_by_support() {
        let kg = graph_with_intents(&["camping", "winter camping", "lakeside camping"]);
        let h = IntentHierarchy::build(&kg);
        let refs = h.refinements_of("camping");
        // "winter camping" was inserted earlier → higher support
        assert_eq!(refs[0].text, "winter camping");
    }

    #[test]
    fn empty_graph_empty_hierarchy() {
        let kg = KnowledgeGraph::new();
        let h = IntentHierarchy::build(&kg);
        assert!(h.is_empty());
        assert_eq!(h.depth(), 0);
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
        assert_eq!(from_store.roots, from_snap.roots);
        for (a, b) in from_store.nodes.iter().zip(&from_snap.nodes) {
            assert_eq!(a.intent, b.intent);
            assert_eq!(a.text, b.text);
            assert_eq!(a.children, b.children);
            assert_eq!(a.parents, b.parents);
            assert_eq!(a.products, b.products);
            assert_eq!(a.support, b.support);
        }
    }

    #[test]
    fn find_scales_to_ten_thousand_intents() {
        // Regression test for the sorted-index lookup: 10k intents, every
        // one findable, refinements correct, unknown texts rejected —
        // exercising the binary search far beyond the toy fixtures.
        let mut tails: Vec<String> = Vec::new();
        for i in 0..5000 {
            tails.push(format!("activity{i}"));
            tails.push(format!("outdoor{i} activity{i}"));
        }
        let refs: Vec<&str> = tails.iter().map(|s| s.as_str()).collect();
        let kg = graph_with_intents(&refs);
        let h = IntentHierarchy::build(&kg);
        assert_eq!(h.len(), 10_000);
        for i in (0..5000).step_by(97) {
            let base = format!("activity{i}");
            let node = h.find(&base).expect("base intent must be found");
            assert_eq!(node.text, base);
            let fine = h.refinements_of(&base);
            assert_eq!(fine.len(), 1, "refinements of {base}");
            assert_eq!(fine[0].text, format!("outdoor{i} activity{i}"));
        }
        assert!(h.find("activity5000").is_none());
        assert!(h.find("").is_none());
        assert!(h.refinements_of("no such intent").is_empty());
    }
}
