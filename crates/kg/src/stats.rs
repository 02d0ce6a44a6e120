//! Per-category knowledge-graph statistics — the machinery behind Table 3
//! ("Statistics of COSMO knowledge graph") and Table 1 (the KG comparison).

use crate::schema::{BehaviorKind, Relation};
use crate::store::KnowledgeGraph;

/// The 18 product categories of Table 3, in paper order ("Others" last).
pub const CATEGORIES: [&str; 18] = [
    "Clothing, Shoes & Jewelry",
    "Sports & Outdoors",
    "Home & Kitchen",
    "Patio, Lawn & Garden",
    "Tools & Home Improvement",
    "Musical Instruments",
    "Industrial & Scientific",
    "Automotive",
    "Electronics",
    "Baby Products",
    "Arts, Crafts & Sewing",
    "Health & Household",
    "Toys & Games",
    "Video Games",
    "Grocery & Gourmet Food",
    "Office Products",
    "Pet Supplies",
    "Others",
];

/// One row of Table 3 (for one behaviour type).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CategoryRow {
    /// Sampled behaviour pairs feeding the pipeline.
    pub behavior_pairs: u64,
    /// Knowledge candidates sent to annotation.
    pub annotations: u64,
    /// Edges surviving refinement.
    pub edges: u64,
}

/// Table 3: per-category, per-behaviour statistics.
#[derive(Debug, Clone)]
pub struct KgStats {
    /// Rows indexed by category (0..18).
    pub cobuy: Vec<CategoryRow>,
    /// Rows indexed by category (0..18).
    pub searchbuy: Vec<CategoryRow>,
}

impl Default for KgStats {
    fn default() -> Self {
        KgStats {
            cobuy: vec![CategoryRow::default(); CATEGORIES.len()],
            searchbuy: vec![CategoryRow::default(); CATEGORIES.len()],
        }
    }
}

impl KgStats {
    /// Empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    fn row_mut(&mut self, behavior: BehaviorKind, category: u8) -> &mut CategoryRow {
        let rows = match behavior {
            BehaviorKind::CoBuy => &mut self.cobuy,
            BehaviorKind::SearchBuy => &mut self.searchbuy,
        };
        &mut rows[category as usize % CATEGORIES.len()]
    }

    /// Record sampled behaviour pairs.
    pub fn add_behavior_pairs(&mut self, behavior: BehaviorKind, category: u8, n: u64) {
        self.row_mut(behavior, category).behavior_pairs += n;
    }

    /// Record annotated candidates.
    pub fn add_annotations(&mut self, behavior: BehaviorKind, category: u8, n: u64) {
        self.row_mut(behavior, category).annotations += n;
    }

    /// Recount the edge column from a graph.
    pub fn count_edges(&mut self, kg: &KnowledgeGraph) {
        for r in self.cobuy.iter_mut().chain(self.searchbuy.iter_mut()) {
            r.edges = 0;
        }
        for (_, e) in kg.edges() {
            self.row_mut(e.behavior, e.category).edges += 1;
        }
    }

    /// Column totals `(behavior_pairs, annotations, edges)` for a behaviour.
    pub fn totals(&self, behavior: BehaviorKind) -> (u64, u64, u64) {
        let rows = match behavior {
            BehaviorKind::CoBuy => &self.cobuy,
            BehaviorKind::SearchBuy => &self.searchbuy,
        };
        rows.iter().fold((0, 0, 0), |acc, r| {
            (
                acc.0 + r.behavior_pairs,
                acc.1 + r.annotations,
                acc.2 + r.edges,
            )
        })
    }

    /// Render the Table 3 layout as text (one row per category, both
    /// behaviours side by side, totals last).
    pub fn render_table3(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12}\n",
            "Category", "CB pairs", "CB annot", "CB edges", "SB pairs", "SB annot", "SB edges"
        ));
        for (i, name) in CATEGORIES.iter().enumerate() {
            let c = &self.cobuy[i];
            let s = &self.searchbuy[i];
            out.push_str(&format!(
                "{:<28} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12}\n",
                name,
                c.behavior_pairs,
                c.annotations,
                c.edges,
                s.behavior_pairs,
                s.annotations,
                s.edges
            ));
        }
        let ct = self.totals(BehaviorKind::CoBuy);
        let st = self.totals(BehaviorKind::SearchBuy);
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12}\n",
            "Total", ct.0, ct.1, ct.2, st.0, st.1, st.2
        ));
        out
    }
}

/// One row of Table 1 (KG comparison).
#[derive(Debug, Clone)]
pub struct KgComparisonRow {
    /// Graph name.
    pub name: &'static str,
    /// Node count (approximate, as reported).
    pub nodes: &'static str,
    /// Edge count.
    pub edges: &'static str,
    /// Relation-type count.
    pub rels: &'static str,
    /// Construction source.
    pub source: &'static str,
    /// Covers e-commerce?
    pub ecommerce: &'static str,
    /// Models intentions?
    pub intention: &'static str,
    /// Grounded in user behaviours?
    pub behavior: &'static str,
}

/// The literature rows of Table 1 (constants from the paper).
pub fn table1_literature() -> Vec<KgComparisonRow> {
    vec![
        KgComparisonRow {
            name: "ConceptNet",
            nodes: "8M",
            edges: "21M",
            rels: "36",
            source: "Crowdsource",
            ecommerce: "no",
            intention: "yes",
            behavior: "no",
        },
        KgComparisonRow {
            name: "ATOMIC",
            nodes: "300K",
            edges: "870K",
            rels: "9",
            source: "Crowdsource",
            ecommerce: "no",
            intention: "yes",
            behavior: "no",
        },
        KgComparisonRow {
            name: "AliCoCo",
            nodes: "163K",
            edges: "813K",
            rels: "91",
            source: "Extraction",
            ecommerce: "yes",
            intention: "no",
            behavior: "search logs",
        },
        KgComparisonRow {
            name: "AliCG",
            nodes: "5M",
            edges: "13.5M",
            rels: "1",
            source: "Extraction",
            ecommerce: "no",
            intention: "no",
            behavior: "search logs",
        },
        KgComparisonRow {
            name: "FolkScope",
            nodes: "1.2M",
            edges: "12M",
            rels: "19",
            source: "LLM Generation",
            ecommerce: "2 domains",
            intention: "yes",
            behavior: "co-buy",
        },
        KgComparisonRow {
            name: "COSMO (paper)",
            nodes: "6.3M",
            edges: "29M",
            rels: "15",
            source: "LLM Generation",
            ecommerce: "18 domains",
            intention: "yes",
            behavior: "co-buy&search-buy",
        },
    ]
}

/// Summary of our built KG for the Table 1 "ours" row.
#[derive(Debug, Clone)]
pub struct KgSummary {
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Distinct relations present.
    pub rels: usize,
    /// Distinct categories present on edges.
    pub domains: usize,
    /// Per-relation edge histogram (index = [`Relation::index`]).
    pub relation_histogram: Vec<usize>,
}

/// Summarise a graph.
pub fn summarize(kg: &KnowledgeGraph) -> KgSummary {
    let mut relation_histogram = vec![0usize; Relation::ALL.len()];
    let mut cats = [false; CATEGORIES.len()];
    for (_, e) in kg.edges() {
        relation_histogram[e.relation.index()] += 1;
        cats[e.category as usize % CATEGORIES.len()] = true;
    }
    KgSummary {
        nodes: kg.num_nodes(),
        edges: kg.num_edges(),
        rels: kg.num_relations(),
        domains: cats.iter().filter(|&&b| b).count(),
        relation_histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::NodeKind;
    use crate::store::Edge;

    #[test]
    fn eighteen_categories() {
        assert_eq!(CATEGORIES.len(), 18);
        assert_eq!(CATEGORIES[17], "Others");
    }

    #[test]
    fn totals_accumulate() {
        let mut s = KgStats::new();
        s.add_behavior_pairs(BehaviorKind::CoBuy, 0, 10);
        s.add_behavior_pairs(BehaviorKind::CoBuy, 3, 5);
        s.add_annotations(BehaviorKind::SearchBuy, 0, 7);
        assert_eq!(s.totals(BehaviorKind::CoBuy), (15, 0, 0));
        assert_eq!(s.totals(BehaviorKind::SearchBuy), (0, 7, 0));
    }

    #[test]
    fn count_edges_splits_by_behavior_and_category() {
        let mut kg = KnowledgeGraph::new();
        let h = kg.intern_node(NodeKind::Product, "p");
        for (i, b) in [
            BehaviorKind::CoBuy,
            BehaviorKind::SearchBuy,
            BehaviorKind::CoBuy,
        ]
        .iter()
        .enumerate()
        {
            let t = kg.intern_node(NodeKind::Intention, &format!("t{i}"));
            kg.add_edge(Edge {
                head: h,
                relation: Relation::CapableOf,
                tail: t,
                behavior: *b,
                category: (i % 2) as u8,
                plausibility: 0.9,
                typicality: 0.5,
                support: 1,
            });
        }
        let mut s = KgStats::new();
        s.count_edges(&kg);
        assert_eq!(s.cobuy[0].edges, 2);
        assert_eq!(s.searchbuy[1].edges, 1);
        // recounting is idempotent
        s.count_edges(&kg);
        assert_eq!(s.cobuy[0].edges, 2);
    }

    #[test]
    fn render_includes_all_rows() {
        let s = KgStats::new();
        let table = s.render_table3();
        for c in CATEGORIES {
            assert!(table.contains(c), "missing category {c}");
        }
        assert!(table.contains("Total"));
    }

    #[test]
    fn summary_counts_relations_and_domains() {
        let mut kg = KnowledgeGraph::new();
        let h = kg.intern_node(NodeKind::Query, "q");
        let t = kg.intern_node(NodeKind::Intention, "i");
        kg.add_edge(Edge {
            head: h,
            relation: Relation::XWant,
            tail: t,
            behavior: BehaviorKind::SearchBuy,
            category: 4,
            plausibility: 1.0,
            typicality: 1.0,
            support: 1,
        });
        let sum = summarize(&kg);
        assert_eq!(sum.nodes, 2);
        assert_eq!(sum.edges, 1);
        assert_eq!(sum.rels, 1);
        assert_eq!(sum.domains, 1);
        assert_eq!(sum.relation_histogram[Relation::XWant.index()], 1);
    }

    #[test]
    fn literature_table_has_six_rows() {
        assert_eq!(table1_literature().len(), 6);
    }
}
