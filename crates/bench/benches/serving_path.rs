//! Serving-path latency: the Figure 5 request path must stay within
//! "Amazon's restricted search latency requirements" — here we measure the
//! cache hit path, the miss (enqueue) path, and a full batch cycle.

use cosmo_kg::{KnowledgeGraph, Relation};
use cosmo_lm::{CosmoLm, StudentConfig};
use cosmo_serving::{ServeRequest, ServingConfig, ServingSystem};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

fn system(preload_n: usize) -> ServingSystem {
    let lm = Arc::new(CosmoLm::new(
        StudentConfig::default(),
        vec![
            ("sleeping outdoors".into(), Some(Relation::UsedForFunc)),
            ("keeping warm".into(), Some(Relation::CapableOf)),
            ("walking the dog".into(), Some(Relation::UsedForEve)),
        ],
    ));
    let preload: Vec<String> = (0..preload_n).map(|i| format!("hot query {i}")).collect();
    ServingSystem::builder()
        .view(KnowledgeGraph::new().freeze())
        .lm(lm)
        .preload(preload)
        .config(ServingConfig {
            workers: 2,
            ..Default::default()
        })
        .build()
        .expect("valid bench config")
}

fn bench_hit(c: &mut Criterion) {
    let sys = system(1_000);
    let req = ServeRequest::new("hot query 500");
    c.bench_function("serving/l1_hit", |b| {
        b.iter(|| sys.serve(black_box(&req)).latency_us)
    });
}

fn bench_miss(c: &mut Criterion) {
    let sys = system(10);
    let mut i = 0u64;
    c.bench_function("serving/miss_enqueue", |b| {
        b.iter(|| {
            i += 1;
            sys.serve(&ServeRequest::new(format!("cold query {i}")))
                .latency_us
        })
    });
}

fn bench_batch_cycle(c: &mut Criterion) {
    let sys = system(0);
    let mut g = c.benchmark_group("serving");
    g.sample_size(10);
    g.throughput(Throughput::Elements(64));
    let mut round = 0u64;
    g.bench_function("batch_cycle_64", |b| {
        b.iter(|| {
            round += 1;
            for i in 0..64 {
                sys.serve(&ServeRequest::new(format!("batch query {round}-{i}")));
            }
            sys.run_batch_cycle().expect("no worker panics in bench")
        })
    });
    g.finish();
}

/// Four threads hammering the hit path of one shared system: the number
/// the sharded cache layout is designed to move.
fn bench_concurrent_hits(c: &mut Criterion) {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 1_000;
    let sys = system(1_000);
    let queries: Vec<Vec<ServeRequest>> = (0..THREADS)
        .map(|t| {
            (0..PER_THREAD)
                .map(|i| ServeRequest::new(format!("hot query {}", (t * 31 + i * 7) % 1_000)))
                .collect()
        })
        .collect();
    let mut g = c.benchmark_group("serving");
    g.sample_size(10);
    g.throughput(Throughput::Elements((THREADS * PER_THREAD) as u64));
    g.bench_function("concurrent_hits_4x1000", |b| {
        b.iter(|| {
            let sys = &sys;
            std::thread::scope(|s| {
                for qs in &queries {
                    s.spawn(move || {
                        for q in qs {
                            black_box(sys.serve(q).latency_us);
                        }
                    });
                }
            })
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_hit,
    bench_miss,
    bench_batch_cycle,
    bench_concurrent_hits
);
criterion_main!(benches);
