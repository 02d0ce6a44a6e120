//! Read-only graph abstraction shared by the mutable store and the frozen
//! snapshot.
//!
//! The serving tier (feature computation, navigation, hierarchy building)
//! only ever *reads* the graph, so it is written against [`GraphView`] and
//! works identically over the append-oriented [`KnowledgeGraph`] builder and
//! the read-optimised [`crate::snapshot::KgSnapshotView`]. Both
//! implementations enumerate adjacency in the same content-determined order
//! — out-edges by (relation, tail), in-edges by (head, relation) — so every
//! answer, including float-ranked ones, is bitwise-identical across the two
//! backends (locked by the snapshot property tests).

use crate::schema::{NodeKind, Relation};
use crate::store::{Edge, KnowledgeGraph, NodeId};

/// Read-only queries over a knowledge graph with dense node ids `0..n`.
pub trait GraphView {
    /// Number of nodes (ids are dense: `0..num_nodes`).
    fn num_nodes(&self) -> usize;
    /// Number of (merged) edges.
    fn num_edges(&self) -> usize;
    /// Look up a node by kind and exact text.
    fn find_node(&self, kind: NodeKind, text: &str) -> Option<NodeId>;
    /// Kind of a node.
    fn node_kind(&self, id: NodeId) -> NodeKind;
    /// Surface text of a node.
    fn node_text(&self, id: NodeId) -> &str;
    /// Out-degree of a node.
    fn out_degree(&self, id: NodeId) -> usize;
    /// In-degree of a node.
    fn in_degree(&self, id: NodeId) -> usize;
    /// Outgoing edges of `head`, ordered by (relation, tail).
    fn tails_of(&self, head: NodeId) -> impl Iterator<Item = &Edge>;
    /// Outgoing edges of `head` restricted to one relation.
    fn tails_of_rel(&self, head: NodeId, relation: Relation) -> impl Iterator<Item = &Edge>;
    /// Incoming edges of `tail`, ordered by (head, relation).
    fn heads_of(&self, tail: NodeId) -> impl Iterator<Item = &Edge>;

    /// Top-`k` intention tails for `head` ranked by
    /// `typicality · ln(1 + support)` — the serving-time ranking.
    fn top_intents(&self, head: NodeId, k: usize) -> Vec<&Edge> {
        rank_intents(self.tails_of(head).collect(), k)
    }
}

/// Serving-time intent ranking: score descending with a total-order tiebreak
/// on (tail, relation) — `(head, relation, tail)` is unique, so for a fixed
/// head the result order is fully determined by edge content.
pub(crate) fn rank_intents(mut edges: Vec<&Edge>, k: usize) -> Vec<&Edge> {
    edges.sort_by(|a, b| {
        let sa = a.typicality * (1.0 + a.support as f32).ln();
        let sb = b.typicality * (1.0 + b.support as f32).ln();
        sb.total_cmp(&sa)
            .then(a.tail.cmp(&b.tail))
            .then(a.relation.index().cmp(&b.relation.index()))
    });
    edges.truncate(k);
    edges
}

impl GraphView for KnowledgeGraph {
    fn num_nodes(&self) -> usize {
        KnowledgeGraph::num_nodes(self)
    }

    fn num_edges(&self) -> usize {
        KnowledgeGraph::num_edges(self)
    }

    fn find_node(&self, kind: NodeKind, text: &str) -> Option<NodeId> {
        KnowledgeGraph::find_node(self, kind, text)
    }

    fn node_kind(&self, id: NodeId) -> NodeKind {
        KnowledgeGraph::node_kind(self, id)
    }

    fn node_text(&self, id: NodeId) -> &str {
        KnowledgeGraph::node_text(self, id)
    }

    fn out_degree(&self, id: NodeId) -> usize {
        KnowledgeGraph::out_degree(self, id)
    }

    fn in_degree(&self, id: NodeId) -> usize {
        KnowledgeGraph::in_degree(self, id)
    }

    fn tails_of(&self, head: NodeId) -> impl Iterator<Item = &Edge> {
        KnowledgeGraph::tails_of(self, head)
    }

    fn tails_of_rel(&self, head: NodeId, relation: Relation) -> impl Iterator<Item = &Edge> {
        KnowledgeGraph::tails_of_rel(self, head, relation)
    }

    fn heads_of(&self, tail: NodeId) -> impl Iterator<Item = &Edge> {
        KnowledgeGraph::heads_of(self, tail)
    }

    fn top_intents(&self, head: NodeId, k: usize) -> Vec<&Edge> {
        KnowledgeGraph::top_intents(self, head, k)
    }
}

/// Shared-ownership views serve like their referent: the HTTP front end
/// and other long-lived services hold `Arc<KgSnapshotView>` and want to pass
/// it straight to `GraphView`-generic consumers (navigation, feature
/// computation) without re-borrowing games.
impl<G: GraphView> GraphView for std::sync::Arc<G> {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    fn find_node(&self, kind: NodeKind, text: &str) -> Option<NodeId> {
        (**self).find_node(kind, text)
    }

    fn node_kind(&self, id: NodeId) -> NodeKind {
        (**self).node_kind(id)
    }

    fn node_text(&self, id: NodeId) -> &str {
        (**self).node_text(id)
    }

    fn out_degree(&self, id: NodeId) -> usize {
        (**self).out_degree(id)
    }

    fn in_degree(&self, id: NodeId) -> usize {
        (**self).in_degree(id)
    }

    fn tails_of(&self, head: NodeId) -> impl Iterator<Item = &Edge> {
        (**self).tails_of(head)
    }

    fn tails_of_rel(&self, head: NodeId, relation: Relation) -> impl Iterator<Item = &Edge> {
        (**self).tails_of_rel(head, relation)
    }

    fn heads_of(&self, tail: NodeId) -> impl Iterator<Item = &Edge> {
        (**self).heads_of(tail)
    }

    fn top_intents(&self, head: NodeId, k: usize) -> Vec<&Edge> {
        (**self).top_intents(head, k)
    }
}
