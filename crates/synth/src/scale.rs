//! Sharded deterministic generation of a paper-magnitude knowledge graph.
//!
//! COSMO reports 6.3M nodes / 29M edges over 18 domains; the world model in
//! [`crate::world`] tops out around half a million edges because every
//! product carries a full ground-truth intent profile. This module trades
//! the profiles away for *scale*: it composes query, product and intention
//! surface texts straight out of the per-domain lexicons and derives every
//! structural choice (degree, tails, relations, scores) from a splitmix64
//! stream keyed only by `(seed, head index, edge index)`.
//!
//! The head space is cut into fixed shards of [`ScaleConfig::shard_heads`]
//! heads. [`generate_shard`] is a pure function of `(config, shard index)`
//! — it interns nodes into a shard-local table and emits edges over local
//! ids — so shards can be generated on any number of worker threads and
//! merged in shard order through a global interner (the sequential-intern
//! pattern of the Figure-2 pipeline, orchestrated by `cosmo-core`), with
//! byte-identical output at any `threads` value. Each intention node
//! carries its global index, so the merge can map an index it has seen
//! before straight to its global id. Intention tails are drawn from a shared
//! global index space, so distinct shards intentionally collide on tails
//! (that is what gives intentions their in-degree) and a slice of draws is
//! funnelled through a small "hub" subset to reproduce the heavy-tailed
//! in-degree profile a real co-buy graph shows. A small fraction of edges
//! duplicates the head's previous `(relation, tail)` choice with fresh
//! scores, exercising the store's `add_edge` merge semantics at scale.

use crate::domain::{BRANDS, MODIFIERS, SPECS, TIMES};
use cosmo_kg::{BehaviorKind, NodeKind, Relation};
use cosmo_text::FxHashMap;
use std::fmt::Write;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shape of the generated world. All fields feed the per-shard splitmix
/// streams, so two equal configs generate identical graphs.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Master seed.
    pub seed: u64,
    /// Query head count.
    pub queries: u64,
    /// Product head count.
    pub products: u64,
    /// Intention tail index space (distinct tails actually touched is
    /// slightly below this for sparse configs).
    pub intentions: u64,
    /// Mean out-degree of query heads (per-head jitter of ±2).
    pub query_degree: u32,
    /// Mean out-degree of product heads (per-head jitter of ±2).
    pub product_degree: u32,
    /// Heads per generation shard — fixed by config, *never* by thread
    /// count, which is what keeps the merged graph thread-invariant.
    pub shard_heads: u32,
    /// Per-edge probability (‰) of re-emitting the head's previous
    /// `(relation, tail)` with fresh scores, to exercise duplicate merge.
    pub duplicate_permille: u32,
}

impl ScaleConfig {
    /// The paper-magnitude point: ~6.3M nodes, ~29M raw edges, 18 domains.
    pub fn paper(seed: u64) -> ScaleConfig {
        ScaleConfig {
            seed,
            queries: 1_500_000,
            products: 2_300_000,
            intentions: 2_500_000,
            query_degree: 9,
            product_degree: 7,
            shard_heads: 65_536,
            duplicate_permille: 20,
        }
    }

    /// A mid-size point (~200k nodes, ~1M raw edges) for the default bench
    /// tier.
    pub fn mid(seed: u64) -> ScaleConfig {
        ScaleConfig {
            seed,
            queries: 55_000,
            products: 80_000,
            intentions: 60_000,
            query_degree: 8,
            product_degree: 7,
            shard_heads: 16_384,
            duplicate_permille: 20,
        }
    }

    /// A smoke-test point (~7k nodes, ~28k raw edges) small enough for CI
    /// yet spanning several shards and both head kinds.
    pub fn tiny(seed: u64) -> ScaleConfig {
        ScaleConfig {
            seed,
            queries: 1_600,
            products: 2_400,
            intentions: 3_000,
            query_degree: 8,
            product_degree: 6,
            shard_heads: 512,
            duplicate_permille: 25,
        }
    }

    /// Total head count (queries + products).
    pub fn total_heads(&self) -> u64 {
        self.queries + self.products
    }

    /// Expected raw (pre-merge) edge count.
    pub fn expected_raw_edges(&self) -> u64 {
        self.queries * self.query_degree as u64 + self.products * self.product_degree as u64
    }

    /// Number of fixed generation shards.
    pub fn num_shards(&self) -> usize {
        self.total_heads().div_ceil(self.shard_heads.max(1) as u64) as usize
    }
}

/// An edge over *shard-local* node ids (indexes into [`ShardOutput::nodes`]).
#[derive(Debug, Clone)]
pub struct ShardEdge {
    /// Local id of the head node.
    pub head: u32,
    /// Relation type.
    pub relation: Relation,
    /// Local id of the tail node.
    pub tail: u32,
    /// Behaviour provenance (queries → search-buy, products → co-buy).
    pub behavior: BehaviorKind,
    /// Domain index (Table 3 row).
    pub category: u8,
    /// Critic plausibility in `[0.5, 1.0)` — generated edges are "admitted".
    pub plausibility: f32,
    /// Critic typicality in `[0, 1)`.
    pub typicality: f32,
    /// Generation support (always 1; merging accumulates it).
    pub support: u32,
}

/// One generated shard: a local intern table in first-use order plus edges
/// over local ids. Merging shards in shard order through a global interner
/// reproduces one deterministic global graph.
///
/// Node texts live in one arena `String` with per-node end offsets, so a
/// shard of tens of thousands of nodes is a handful of allocations, and
/// every intention node carries its global intention index, which lets a
/// merge recognise a tail it has already interned without reading its
/// text.
#[derive(Debug)]
pub struct ShardOutput {
    /// Shard index this output came from.
    pub shard: usize,
    /// Per-node kind, arena end and intention index, in local-id order.
    nodes: Vec<LocalNode>,
    /// Every node's text, concatenated in local-id order.
    arena: String,
    /// Edges over local ids, in arrival order.
    pub edges: Vec<ShardEdge>,
}

/// A local node's fixed-size record; its text is `arena[prev end..end]`.
#[derive(Debug, Clone, Copy)]
struct LocalNode {
    end: u32,
    kind: NodeKind,
    /// Global intention index, `NOT_INTENTION` for a head.
    intention: u64,
}

const NOT_INTENTION: u64 = u64::MAX;

/// One node of a [`ShardOutput`], borrowed from its arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardNode<'a> {
    /// Node kind.
    pub kind: NodeKind,
    /// Surface text.
    pub text: &'a str,
    /// Global intention index `t` (the text is [`intent_text`]`(cfg, t)`);
    /// `None` for a query or product head.
    pub intention: Option<u64>,
}

impl ShardOutput {
    /// Every local node, in local-id order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = ShardNode<'_>> + '_ {
        let mut start = 0usize;
        self.nodes.iter().map(move |n| {
            let text = &self.arena[start..n.end as usize];
            start = n.end as usize;
            ShardNode {
                kind: n.kind,
                text,
                intention: (n.intention != NOT_INTENTION).then_some(n.intention),
            }
        })
    }

    fn push_node(&mut self, kind: NodeKind, intention: u64) -> u32 {
        // PANIC: a shard is at most `shard_heads` heads and their tails;
        // its texts and ids stay far below the u32 range.
        let end = u32::try_from(self.arena.len()).expect("shard arena exceeds u32 offsets");
        let local = u32::try_from(self.nodes.len()).expect("shard exceeds u32 local ids");
        self.nodes.push(LocalNode {
            end,
            kind,
            intention,
        });
        local
    }
}

/// Surface text of head `h` (query heads come first, then products).
/// Texts embed the head serial, so every head is a distinct node and the
/// global node count is exact.
pub fn head_text(cfg: &ScaleConfig, h: u64) -> (NodeKind, String) {
    let mut text = String::new();
    let kind = write_head_text(cfg, h, &mut text);
    (kind, text)
}

/// Append head `h`'s text to `out` and return its kind.
fn write_head_text(cfg: &ScaleConfig, h: u64, out: &mut String) -> NodeKind {
    let d = (h % SPECS.len() as u64) as usize;
    let spec = &SPECS[d];
    let r = mix64(cfg.seed ^ mix64(h.wrapping_add(0x5EED_5EED)));
    let modifier = MODIFIERS[(r % MODIFIERS.len() as u64) as usize];
    let base = spec.bases[((r >> 8) % spec.bases.len() as u64) as usize];
    // Writing into a String cannot fail.
    if h < cfg.queries {
        let function = spec.functions[((r >> 16) % spec.functions.len() as u64) as usize];
        let _ = write!(out, "{modifier} {base} for {function} {h:07}");
        NodeKind::Query
    } else {
        let brand = BRANDS[((r >> 16) % BRANDS.len() as u64) as usize];
        let serial = h - cfg.queries;
        let _ = write!(out, "{brand} {modifier} {base} {serial:07}");
        NodeKind::Product
    }
}

/// Surface text of intention `t` — a lexicon phrase from `t`'s domain with
/// the index embedded so tails are distinct across the index space.
pub fn intent_text(cfg: &ScaleConfig, t: u64) -> String {
    let mut text = String::new();
    write_intent_text(cfg, t, &mut text);
    text
}

/// Append intention `t`'s text to `out`.
fn write_intent_text(cfg: &ScaleConfig, t: u64, out: &mut String) {
    let d = (t % SPECS.len() as u64) as usize;
    let spec = &SPECS[d];
    let r = mix64(cfg.seed ^ mix64(t.wrapping_add(0x7A11_7A11)));
    let pools: [&[&str]; 6] = [
        spec.functions,
        spec.events,
        spec.audiences,
        spec.locations,
        spec.activities,
        TIMES,
    ];
    let pool = pools[((r >> 4) % pools.len() as u64) as usize];
    let phrase = pool[((r >> 12) % pool.len() as u64) as usize];
    // Writing into a String cannot fail.
    let _ = write!(out, "{phrase} #{t}");
}

/// Generate shard `shard` — a pure function of `(cfg, shard)`.
pub fn generate_shard(cfg: &ScaleConfig, shard: usize) -> ShardOutput {
    let start = shard as u64 * cfg.shard_heads.max(1) as u64;
    let end = (start + cfg.shard_heads.max(1) as u64).min(cfg.total_heads());
    let mut out = ShardOutput {
        shard,
        nodes: Vec::new(),
        arena: String::new(),
        edges: Vec::new(),
    };
    // Global intention index → local id; first use appends the node.
    let mut tails: FxHashMap<u64, u32> = FxHashMap::default();
    let hubs = (cfg.intentions / 64).max(1);

    for h in start..end {
        let is_query = h < cfg.queries;
        let d = (h % SPECS.len() as u64) as u8;
        let kind = write_head_text(cfg, h, &mut out.arena);
        let head_local = out.push_node(kind, NOT_INTENTION);

        let r0 = mix64(cfg.seed ^ mix64(h.wrapping_mul(0x2545_F491_4F6C_DD1D)));
        let base = if is_query {
            cfg.query_degree
        } else {
            cfg.product_degree
        } as i64;
        let degree = (base + (r0 % 5) as i64 - 2).max(1) as u64;

        let mut prev: Option<(Relation, u32)> = None;
        for j in 0..degree {
            let r = mix64(cfg.seed ^ mix64(h.wrapping_mul(31).wrapping_add(j).wrapping_add(1)));
            let duplicate = prev.is_some() && r % 1000 < cfg.duplicate_permille as u64;
            let (relation, tail_local) = match (duplicate, prev) {
                (true, Some(p)) => p,
                _ => {
                    // 1 draw in 8 lands in the hub subset: a few intents
                    // absorb outsized in-degree, like real co-buy graphs.
                    let t = if (r >> 10).is_multiple_of(8) {
                        (r >> 13) % hubs
                    } else {
                        (r >> 13) % cfg.intentions.max(1)
                    };
                    let next_local = out.nodes.len() as u32;
                    let local = *tails.entry(t).or_insert(next_local);
                    if local == next_local {
                        write_intent_text(cfg, t, &mut out.arena);
                        out.push_node(NodeKind::Intention, t);
                    }
                    let rel = Relation::ALL[((r >> 3) % Relation::ALL.len() as u64) as usize];
                    (rel, local)
                }
            };
            out.edges.push(ShardEdge {
                head: head_local,
                relation,
                tail: tail_local,
                behavior: if is_query {
                    BehaviorKind::SearchBuy
                } else {
                    BehaviorKind::CoBuy
                },
                category: d,
                plausibility: 0.5 + ((r >> 20) % 500) as f32 / 1000.0,
                typicality: ((r >> 33) % 1000) as f32 / 1000.0,
                support: 1,
            });
            prev = Some((relation, tail_local));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_generation_is_pure() {
        let cfg = ScaleConfig::tiny(7);
        for shard in [0, 1, cfg.num_shards() - 1] {
            let a = generate_shard(&cfg, shard);
            let b = generate_shard(&cfg, shard);
            assert!(a.nodes().eq(b.nodes()));
            assert_eq!(a.edges.len(), b.edges.len());
            for (x, y) in a.edges.iter().zip(&b.edges) {
                assert_eq!((x.head, x.relation, x.tail), (y.head, y.relation, y.tail));
                assert_eq!(x.plausibility.to_bits(), y.plausibility.to_bits());
                assert_eq!(x.typicality.to_bits(), y.typicality.to_bits());
            }
        }
    }

    #[test]
    fn shards_cover_every_head_exactly_once() {
        let cfg = ScaleConfig::tiny(11);
        let mut heads = 0u64;
        let mut raw_edges = 0u64;
        for shard in 0..cfg.num_shards() {
            let out = generate_shard(&cfg, shard);
            let shard_heads = out
                .nodes()
                .filter(|n| n.kind != NodeKind::Intention)
                .count() as u64;
            heads += shard_heads;
            raw_edges += out.edges.len() as u64;
            // Local ids are in-range and heads precede their edges.
            let nodes: Vec<ShardNode> = out.nodes().collect();
            for e in &out.edges {
                assert!((e.head as usize) < nodes.len());
                assert!((e.tail as usize) < nodes.len());
                assert_ne!(nodes[e.head as usize].kind, NodeKind::Intention);
                assert_eq!(nodes[e.tail as usize].kind, NodeKind::Intention);
            }
            // Texts and intention tags agree with the per-node generators.
            for node in nodes {
                match node.intention {
                    Some(t) => assert_eq!(node.text, intent_text(&cfg, t)),
                    None => assert_ne!(node.kind, NodeKind::Intention),
                }
            }
        }
        assert_eq!(heads, cfg.total_heads());
        // Degree jitter is zero-mean; the realised count stays within ±25%.
        let expect = cfg.expected_raw_edges();
        assert!(
            raw_edges * 4 > expect * 3 && raw_edges * 4 < expect * 5,
            "raw edges {raw_edges} vs expected {expect}"
        );
    }

    #[test]
    fn head_and_intent_texts_are_unique_and_deterministic() {
        let cfg = ScaleConfig::tiny(3);
        let mut seen = std::collections::HashSet::new();
        for h in 0..cfg.total_heads() {
            let (kind, text) = head_text(&cfg, h);
            assert_eq!(
                kind,
                if h < cfg.queries {
                    NodeKind::Query
                } else {
                    NodeKind::Product
                }
            );
            assert!(seen.insert((kind, text.clone())), "duplicate head {text}");
            assert_eq!(head_text(&cfg, h).1, text);
        }
        for t in 0..cfg.intentions {
            assert!(
                seen.insert((NodeKind::Intention, intent_text(&cfg, t))),
                "duplicate intent #{t}"
            );
        }
    }

    #[test]
    fn duplicates_present_for_merge_exercise() {
        let cfg = ScaleConfig::tiny(5);
        let mut dups = 0usize;
        for shard in 0..cfg.num_shards() {
            let out = generate_shard(&cfg, shard);
            let mut keys = std::collections::HashSet::new();
            for e in &out.edges {
                if !keys.insert((e.head, e.relation.index(), e.tail)) {
                    dups += 1;
                }
            }
        }
        assert!(dups > 0, "duplicate_permille produced no duplicate edges");
    }
}
