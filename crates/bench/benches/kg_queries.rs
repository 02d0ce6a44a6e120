//! Knowledge-graph store benchmarks: the serving path's lookups (hashmap
//! adjacency vs frozen CSR snapshot), the navigation hierarchy build and
//! the snapshot freeze.

use cosmo_kg::{BehaviorKind, Edge, IntentHierarchy, KnowledgeGraph, NodeKind, Relation};
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

fn build_graph(n_heads: usize, tails_per_head: usize) -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    for h in 0..n_heads {
        let head = kg.intern_node(NodeKind::Query, &format!("query {h}"));
        for t in 0..tails_per_head {
            let tail = kg.intern_node(
                NodeKind::Intention,
                &format!("intent {} phrase {}", (h + t) % 97, t % 13),
            );
            kg.add_edge(Edge {
                head,
                relation: Relation::ALL[(h + t) % 15],
                tail,
                behavior: BehaviorKind::SearchBuy,
                category: (h % 18) as u8,
                plausibility: 0.9,
                typicality: (t % 10) as f32 / 10.0,
                support: 1 + (t % 5) as u32,
            });
        }
    }
    kg
}

fn bench_insert(c: &mut Criterion) {
    c.bench_function("kg/build_2k_edges", |b| b.iter(|| build_graph(200, 10)));
}

fn bench_lookup(c: &mut Criterion) {
    let kg = build_graph(2_000, 12);
    let node = kg.find_node(NodeKind::Query, "query 1000").unwrap();
    c.bench_function("kg/find_node", |b| {
        b.iter(|| kg.find_node(NodeKind::Query, black_box("query 1234")))
    });
    c.bench_function("kg/top_intents_k5", |b| {
        b.iter(|| kg.top_intents(black_box(node), 5).len())
    });
    c.bench_function("kg/tails_of_rel", |b| {
        b.iter(|| {
            kg.tails_of_rel(black_box(node), Relation::CapableOf)
                .count()
        })
    });

    // the same lookups over the frozen CSR snapshot
    let snap = kg.freeze();
    c.bench_function("kg/snapshot_find_node", |b| {
        b.iter(|| snap.find_node(NodeKind::Query, black_box("query 1234")))
    });
    c.bench_function("kg/snapshot_top_intents_k5", |b| {
        b.iter(|| cosmo_kg::GraphView::top_intents(&snap, black_box(node), 5).len())
    });
    c.bench_function("kg/snapshot_tails_of_rel", |b| {
        b.iter(|| {
            snap.tails_of_rel_slice(black_box(node), Relation::CapableOf)
                .len()
        })
    });
}

fn bench_hierarchy(c: &mut Criterion) {
    let kg = build_graph(400, 10);
    let mut g = c.benchmark_group("kg");
    g.sample_size(20);
    g.bench_function("hierarchy_build", |b| {
        b.iter_batched(|| &kg, IntentHierarchy::build, BatchSize::SmallInput)
    });
    let snap = kg.freeze();
    g.bench_function("hierarchy_build_snapshot", |b| {
        b.iter_batched(|| &snap, IntentHierarchy::build, BatchSize::SmallInput)
    });
    g.finish();
}

fn bench_snapshot_freeze(c: &mut Criterion) {
    let kg = build_graph(500, 8);
    let mut g = c.benchmark_group("kg");
    g.sample_size(20);
    g.bench_function("snapshot_freeze", |b| b.iter(|| kg.freeze().num_edges()));
    g.finish();
}

fn bench_embed(c: &mut Criterion) {
    let corpus: Vec<String> = (0..200)
        .map(|i| format!("product {i} for outdoor camping and hiking trips {}", i % 9))
        .collect();
    let embedder = cosmo_text::HashedEmbedder::fit(&corpus, 128);
    let text = "winter camping air mattress portable lightweight";
    let mut g = c.benchmark_group("embed");
    g.bench_function("embed_alloc", |b| {
        b.iter(|| embedder.embed(black_box(text))[0])
    });
    let mut scratch = cosmo_text::EmbedScratch::default();
    let mut out = vec![0.0f32; 128];
    g.bench_function("embed_into_scratch", |b| {
        b.iter(|| {
            embedder.embed_into(black_box(text), &mut scratch, &mut out);
            out[0]
        })
    });
    let others: Vec<String> = (0..16).map(|i| format!("context phrase {i}")).collect();
    g.bench_function("similarity_many_16", |b| {
        b.iter(|| embedder.similarity_many(black_box(text), &others).len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_lookup,
    bench_hierarchy,
    bench_snapshot_freeze,
    bench_embed
);
criterion_main!(benches);
