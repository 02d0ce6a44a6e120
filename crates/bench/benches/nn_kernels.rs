//! Autograd-kernel benchmarks: matmul, a full GRU training step, and the
//! segment-mean embedding bag that all critics/students/recommenders sit
//! on.

use cosmo_nn::layers::{Embedding, GruCell, Linear};
use cosmo_nn::opt::Adam;
use cosmo_nn::{ParamStore, Tape, Tensor};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = cosmo_nn::init::uniform(64, 128, -1.0, 1.0, &mut rng);
    let b = cosmo_nn::init::uniform(128, 256, -1.0, 1.0, &mut rng);
    let mut g = c.benchmark_group("nn");
    g.throughput(Throughput::Elements((64 * 128 * 256) as u64));
    g.bench_function("matmul_64x128x256", |bch| bch.iter(|| a.matmul(&b).sum()));
    g.bench_function("matmul_nt_64x128x256", |bch| {
        let bt = b.transpose();
        bch.iter(|| a.matmul_nt(&bt).sum())
    });
    g.finish();
}

/// The production kernel against the seed-era scalar loop and the 4-thread
/// row-partitioned variant, at the shape the `nn-scaling` experiment's
/// speedup figure quotes. Within one configuration all dispatch paths and
/// thread counts produce identical bytes; only the wall clock differs.
/// The scalar oracle is configuration-dependent: the naive chain at
/// default features, the fused reduction tree under `fast-math`.
fn bench_matmul_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let a = cosmo_nn::init::uniform(256, 256, -1.0, 1.0, &mut rng);
    let b = cosmo_nn::init::uniform(256, 256, -1.0, 1.0, &mut rng);
    let pool = cosmo_exec::WorkerPool::new(4);
    #[cfg(not(feature = "fast-math"))]
    assert_eq!(a.matmul(&b).data(), a.matmul_reference(&b).data());
    #[cfg(feature = "fast-math")]
    assert_eq!(a.matmul(&b).data(), a.matmul_fma_reference(&b).data());
    assert_eq!(a.matmul_par(&b, &pool).data(), a.matmul(&b).data());
    let mut g = c.benchmark_group("nn/matmul_256");
    g.throughput(Throughput::Elements((256u64).pow(3)));
    g.bench_function("reference_scalar", |bch| {
        bch.iter(|| a.matmul_reference(&b).sum())
    });
    g.bench_function("blocked", |bch| bch.iter(|| a.matmul(&b).sum()));
    g.bench_function("threaded_4", |bch| {
        bch.iter(|| a.matmul_par(&b, &pool).sum())
    });
    g.finish();
}

/// FMA reduction-tree kernel vs the no-FMA blocked tier, both compiled in
/// the same `fast-math` binary (`matmul_unfused` ignores the feature by
/// design so the two tiers can be compared in one run).
#[cfg(feature = "fast-math")]
fn bench_fma_vs_blocked(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let a = cosmo_nn::init::uniform(256, 256, -1.0, 1.0, &mut rng);
    let b = cosmo_nn::init::uniform(256, 256, -1.0, 1.0, &mut rng);
    let mut g = c.benchmark_group("nn/matmul_256_fast_math");
    g.throughput(Throughput::Elements((256u64).pow(3)));
    g.bench_function("fma_tree", |bch| bch.iter(|| a.matmul(&b).sum()));
    g.bench_function("blocked_unfused", |bch| {
        bch.iter(|| a.matmul_unfused(&b).sum())
    });
    g.finish();
}

#[cfg(not(feature = "fast-math"))]
fn bench_fma_vs_blocked(_c: &mut Criterion) {}

fn bench_gru_training_step(c: &mut Criterion) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(2);
    let gru = GruCell::new(&mut store, "g", 32, 32, &mut rng);
    let head = Linear::new(&mut store, "h", 32, 64, &mut rng);
    let xs: Vec<Tensor> = (0..10)
        .map(|_| cosmo_nn::init::uniform(1, 32, -1.0, 1.0, &mut rng))
        .collect();
    let mut opt = Adam::new(0.01);
    c.bench_function("nn/gru_seq10_train_step", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let inputs: Vec<_> = xs.iter().map(|x| tape.input(x.clone())).collect();
            let h0 = tape.input(Tensor::zeros(1, 32));
            let hs = gru.run(&mut tape, &store, &inputs, h0);
            let logits = head.forward(&mut tape, &store, *hs.last().unwrap());
            let loss = tape.cross_entropy(logits, &[7]);
            tape.backward(loss);
            store.zero_grads();
            tape.accumulate_param_grads(&mut store);
            opt.step(&mut store);
            tape.value(loss).item()
        })
    });
}

fn bench_embedding_bag(c: &mut Criterion) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(3);
    let emb = Embedding::new(&mut store, "e", 8192, 32, &mut rng);
    // batch of 64 bags × 30 features
    let ids: Vec<usize> = (0..64 * 30).map(|i| (i * 131) % 8192).collect();
    let segments: Vec<usize> = (0..64 * 30).map(|i| i / 30).collect();
    let mut g = c.benchmark_group("nn");
    g.throughput(Throughput::Elements(64));
    g.bench_function("segment_mean_bag_64x30", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let rows = emb.forward(&mut tape, &store, &ids);
            let pooled = tape.segment_mean(rows, &segments, 64);
            tape.value(pooled).sum()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_kernels,
    bench_fma_vs_blocked,
    bench_gru_training_step,
    bench_embedding_bag
);
criterion_main!(benches);
