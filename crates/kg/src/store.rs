//! The COSMO knowledge-graph store.
//!
//! Nodes are interned `(kind, text)` pairs — products, queries, and
//! canonicalised intention tails (§3.1). Edges are typed by one of the 15
//! relations, tagged with the behaviour that produced them, the product
//! category, and the critic scores that survived refinement (§3.3).
//!
//! The store is append-oriented (the pipeline only ever adds knowledge) with
//! duplicate-edge merging, and maintains adjacency indexes for the serving
//! path: `tails_of` powers intent lookup for a query/product, `heads_of`
//! powers reverse navigation from an intention to products. Nodes live in
//! a [`StreamInterner`], the same table the streaming writer encodes, so
//! [`KnowledgeGraph::freeze`] hands it to the encoder as is.

use crate::schema::{BehaviorKind, NodeKind, Relation};
use crate::snapshot::{KgSnapshotView, Verify};
use crate::stream_writer::{SnapshotStreamWriter, StreamInterner, StreamOptions};
use cosmo_text::FxHashMap;

/// Dense node handle. `repr(transparent)` over `u32` so edge records in
/// the v2 snapshot can be cast directly from validated file bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct NodeId(pub u32);

/// Dense edge handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub u32);

/// A knowledge edge `(head, relation, tail)` with provenance and scores.
///
/// `repr(C)` pins the field layout (28 bytes, align 4, with padding at
/// offsets 5..8 and 14..16): the v2 snapshot writes this exact layout to
/// disk and reads edges back as a borrowed `&[Edge]` over the mapped
/// file, with no per-edge decode. The layout is locked by compile-time
/// offset assertions in `cosmo_kg::snapshot`.
#[derive(Debug, Clone, PartialEq)]
#[repr(C)]
pub struct Edge {
    /// Head node (product or query).
    pub head: NodeId,
    /// Relation type.
    pub relation: Relation,
    /// Tail node (intention, concept, …).
    pub tail: NodeId,
    /// Behaviour that produced this edge.
    pub behavior: BehaviorKind,
    /// Product category index (0..18, Table 3 rows).
    pub category: u8,
    /// Critic plausibility score in `[0,1]`.
    pub plausibility: f32,
    /// Critic typicality score in `[0,1]`.
    pub typicality: f32,
    /// How many generations merged into this edge.
    pub support: u32,
}

/// The knowledge graph.
#[derive(Debug, Default, Clone)]
pub struct KnowledgeGraph {
    nodes: StreamInterner,
    edges: Vec<Edge>,
    edge_index: FxHashMap<(NodeId, Relation, NodeId), EdgeId>,
    out_adj: FxHashMap<NodeId, Vec<EdgeId>>,
    in_adj: FxHashMap<NodeId, Vec<EdgeId>>,
}

impl KnowledgeGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a node, returning its id (idempotent per `(kind, text)`).
    pub fn intern_node(&mut self, kind: NodeKind, text: &str) -> NodeId {
        self.nodes.intern(kind, text)
    }

    /// Look up an existing node.
    pub fn find_node(&self, kind: NodeKind, text: &str) -> Option<NodeId> {
        self.nodes.find(kind, text)
    }

    /// Kind of a node.
    pub fn node_kind(&self, id: NodeId) -> NodeKind {
        self.nodes.node_kind(id.0)
    }

    /// Surface text of a node (canonicalised for intentions).
    pub fn node_text(&self, id: NodeId) -> &str {
        self.nodes.node_text(id.0)
    }

    /// Edge payload.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0 as usize]
    }

    /// Add (or merge into an existing) edge. On merge, `support` is
    /// incremented and the scores keep the running maximum — repeated
    /// generation of the same knowledge is evidence for it.
    pub fn add_edge(&mut self, edge: Edge) -> EdgeId {
        let key = (edge.head, edge.relation, edge.tail);
        if let Some(&eid) = self.edge_index.get(&key) {
            let e = &mut self.edges[eid.0 as usize];
            e.support += edge.support.max(1);
            e.plausibility = e.plausibility.max(edge.plausibility);
            e.typicality = e.typicality.max(edge.typicality);
            return eid;
        }
        let eid = EdgeId(self.edges.len() as u32);
        // Adjacency lists are kept sorted — out by (relation, tail), in by
        // (head, relation) — so iteration order is a function of graph
        // *content*, not insertion history, and matches the frozen
        // [`KgSnapshotView`] CSR order exactly.
        let out = self.out_adj.entry(edge.head).or_default();
        let out_key = (edge.relation.index(), edge.tail);
        let pos = out.partition_point(|&e| {
            let o = &self.edges[e.0 as usize];
            (o.relation.index(), o.tail) < out_key
        });
        out.insert(pos, eid);
        let inl = self.in_adj.entry(edge.tail).or_default();
        let in_key = (edge.head, edge.relation.index());
        let pos = inl.partition_point(|&e| {
            let i = &self.edges[e.0 as usize];
            (i.head, i.relation.index()) < in_key
        });
        inl.insert(pos, eid);
        self.edge_index.insert(key, eid);
        self.edges.push(edge);
        eid
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (merged) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of distinct relation types present.
    pub fn num_relations(&self) -> usize {
        let mut seen = [false; Relation::ALL.len()];
        for e in &self.edges {
            seen[e.relation.index()] = true;
        }
        seen.iter().filter(|&&b| b).count()
    }

    /// Iterate all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Iterate all nodes as `(id, kind, text)`, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, NodeKind, &str)> {
        (0..self.nodes.len() as u32)
            .map(|i| (NodeId(i), self.nodes.node_kind(i), self.nodes.node_text(i)))
    }

    /// Outgoing edges of `head` (knowledge about a product/query).
    pub fn tails_of(&self, head: NodeId) -> impl Iterator<Item = &Edge> {
        self.out_adj
            .get(&head)
            .into_iter()
            .flatten()
            .map(move |eid| &self.edges[eid.0 as usize])
    }

    /// Outgoing edges of `head` restricted to one relation.
    pub fn tails_of_rel<'a>(
        &'a self,
        head: NodeId,
        relation: Relation,
    ) -> impl Iterator<Item = &'a Edge> + 'a {
        self.tails_of(head).filter(move |e| e.relation == relation)
    }

    /// Incoming edges of `tail` (which heads express this intention).
    pub fn heads_of(&self, tail: NodeId) -> impl Iterator<Item = &Edge> {
        self.in_adj
            .get(&tail)
            .into_iter()
            .flatten()
            .map(move |eid| &self.edges[eid.0 as usize])
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.out_adj.get(&id).map_or(0, |v| v.len())
    }

    /// In-degree of a node.
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.in_adj.get(&id).map_or(0, |v| v.len())
    }

    /// Top-`k` intention tails for `head` ranked by
    /// `typicality · ln(1 + support)` — the serving-time ranking.
    pub fn top_intents(&self, head: NodeId, k: usize) -> Vec<&Edge> {
        crate::view::rank_intents(self.tails_of(head).collect(), k)
    }

    /// Freeze into a read-optimised [`KgSnapshotView`]: the node table
    /// and the edges go through the one snapshot encoder, which finishes
    /// into an owned buffer — no disk is touched.
    pub fn freeze(&self) -> KgSnapshotView {
        // A buffer no store can fill: the writer never spills.
        let mut writer = SnapshotStreamWriter::new(StreamOptions {
            buffer_edges: usize::MAX,
            spill_dir: None,
        });
        let frozen = self
            .edges
            .iter()
            .try_for_each(|e| writer.push(e.clone()))
            .and_then(|()| writer.finish_in_memory(&self.nodes))
            .and_then(|bytes| KgSnapshotView::from_bytes(bytes, Verify::Structural));
        // PANIC: without spills the encode is pure in-memory work over
        // the store's own dense u32 ids, so no I/O or range error exists
        frozen.expect("in-memory freeze of a valid store")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let q = kg.intern_node(NodeKind::Query, "camping");
        let p = kg.intern_node(NodeKind::Product, "air mattress");
        let t1 = kg.intern_node(NodeKind::Intention, "sleeping outdoors");
        let t2 = kg.intern_node(NodeKind::Intention, "lakeside camping");
        kg.add_edge(Edge {
            head: q,
            relation: Relation::UsedForEve,
            tail: t1,
            behavior: BehaviorKind::SearchBuy,
            category: 1,
            plausibility: 0.9,
            typicality: 0.8,
            support: 1,
        });
        kg.add_edge(Edge {
            head: p,
            relation: Relation::UsedForEve,
            tail: t2,
            behavior: BehaviorKind::CoBuy,
            category: 1,
            plausibility: 0.7,
            typicality: 0.3,
            support: 1,
        });
        kg
    }

    #[test]
    fn interning_is_idempotent() {
        let mut kg = KnowledgeGraph::new();
        let a = kg.intern_node(NodeKind::Product, "tent");
        let b = kg.intern_node(NodeKind::Product, "tent");
        let c = kg.intern_node(NodeKind::Query, "tent");
        assert_eq!(a, b);
        assert_ne!(a, c, "same text, different kind → different node");
        assert_eq!(kg.num_nodes(), 2);
    }

    #[test]
    fn duplicate_edges_merge() {
        let mut kg = KnowledgeGraph::new();
        let h = kg.intern_node(NodeKind::Product, "leash");
        let t = kg.intern_node(NodeKind::Intention, "walking the dog");
        let mk = |p: f32, ty: f32| Edge {
            head: h,
            relation: Relation::UsedForEve,
            tail: t,
            behavior: BehaviorKind::CoBuy,
            category: 0,
            plausibility: p,
            typicality: ty,
            support: 1,
        };
        let e1 = kg.add_edge(mk(0.6, 0.2));
        let e2 = kg.add_edge(mk(0.9, 0.1));
        assert_eq!(e1, e2);
        assert_eq!(kg.num_edges(), 1);
        let e = kg.edge(e1);
        assert_eq!(e.support, 2);
        assert!((e.plausibility - 0.9).abs() < 1e-6);
        assert!((e.typicality - 0.2).abs() < 1e-6);
    }

    #[test]
    fn adjacency_queries() {
        let kg = tiny_graph();
        let q = kg.find_node(NodeKind::Query, "camping").unwrap();
        let t1 = kg
            .find_node(NodeKind::Intention, "sleeping outdoors")
            .unwrap();
        assert_eq!(kg.out_degree(q), 1);
        assert_eq!(kg.in_degree(t1), 1);
        assert_eq!(kg.tails_of(q).count(), 1);
        assert_eq!(kg.heads_of(t1).next().unwrap().head, q);
        assert_eq!(kg.tails_of_rel(q, Relation::IsA).count(), 0);
    }

    #[test]
    fn top_intents_ranked_by_typicality() {
        let mut kg = KnowledgeGraph::new();
        let h = kg.intern_node(NodeKind::Query, "winter clothes");
        for (i, (tail, ty)) in [("keep warm", 0.9f32), ("fashion", 0.2), ("gift", 0.5)]
            .iter()
            .enumerate()
        {
            let t = kg.intern_node(NodeKind::Intention, tail);
            kg.add_edge(Edge {
                head: h,
                relation: Relation::CapableOf,
                tail: t,
                behavior: BehaviorKind::SearchBuy,
                category: i as u8,
                plausibility: 0.9,
                typicality: *ty,
                support: 1,
            });
        }
        let top = kg.top_intents(h, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(kg.node_text(top[0].tail), "keep warm");
        assert_eq!(kg.node_text(top[1].tail), "gift");
    }

    #[test]
    fn top_intents_survives_nan_typicality() {
        // A NaN score must neither panic the sort nor destabilise the
        // ranking of the finite-scored edges.
        let mut kg = KnowledgeGraph::new();
        let h = kg.intern_node(NodeKind::Query, "winter clothes");
        for (i, (tail, ty)) in [("keep warm", 0.9f32), ("broken", f32::NAN), ("gift", 0.5)]
            .iter()
            .enumerate()
        {
            let t = kg.intern_node(NodeKind::Intention, tail);
            kg.add_edge(Edge {
                head: h,
                relation: Relation::CapableOf,
                tail: t,
                behavior: BehaviorKind::SearchBuy,
                category: i as u8,
                plausibility: 0.9,
                typicality: *ty,
                support: 1,
            });
        }
        let top = kg.top_intents(h, 3);
        assert_eq!(top.len(), 3);
        // total_cmp orders NaN above every finite float, so the NaN edge
        // ranks first under the descending sort — deterministically.
        assert_eq!(kg.node_text(top[0].tail), "broken");
        assert_eq!(kg.node_text(top[1].tail), "keep warm");
        assert_eq!(kg.node_text(top[2].tail), "gift");
    }

    #[test]
    fn num_relations_counts_distinct() {
        let kg = tiny_graph();
        assert_eq!(kg.num_relations(), 1);
    }

    #[test]
    fn adjacency_order_independent_of_insertion() {
        // Two graphs with the same edges added in opposite orders must
        // enumerate adjacency identically — the invariant that makes store
        // and snapshot read paths bitwise-interchangeable.
        let mk_edge = |head, relation, tail| Edge {
            head,
            relation,
            tail,
            behavior: BehaviorKind::SearchBuy,
            category: 0,
            plausibility: 0.5,
            typicality: 0.5,
            support: 1,
        };
        let mut fwd = KnowledgeGraph::new();
        let mut rev = KnowledgeGraph::new();
        for kg in [&mut fwd, &mut rev] {
            kg.intern_node(NodeKind::Query, "q");
            for i in 0..6 {
                kg.intern_node(NodeKind::Intention, &format!("t{i}"));
            }
        }
        let q = NodeId(0);
        let edges: Vec<Edge> = (0..6)
            .map(|i| {
                mk_edge(
                    q,
                    Relation::ALL[(5 - (i % 3)) % Relation::ALL.len()],
                    NodeId(1 + i as u32),
                )
            })
            .collect();
        for e in &edges {
            fwd.add_edge(e.clone());
        }
        for e in edges.iter().rev() {
            rev.add_edge(e.clone());
        }
        let a: Vec<&Edge> = fwd.tails_of(q).collect();
        let b: Vec<&Edge> = rev.tails_of(q).collect();
        assert_eq!(a, b);
        assert!(a
            .windows(2)
            .all(|w| (w[0].relation.index(), w[0].tail) < (w[1].relation.index(), w[1].tail)));
        for i in 1..7 {
            let t = NodeId(i);
            let ia: Vec<&Edge> = fwd.heads_of(t).collect();
            let ib: Vec<&Edge> = rev.heads_of(t).collect();
            assert_eq!(ia, ib);
        }
    }
}
