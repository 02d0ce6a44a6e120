//! Pinned kernel-output goldens.
//!
//! Each golden is a 64-bit FNV-1a digest over the exact output bits of a
//! matmul on fixed pseudo-random inputs. The constants are pinned **per
//! feature configuration**: the default build must reproduce the no-FMA
//! chain bit-for-bit forever (byte-compatibility with every artifact
//! trained before the `fast-math` tier existed), and the `fast-math` build
//! must reproduce its fixed-shape reduction tree bit-for-bit on every ISA
//! dispatch path and thread count. A changed digest means the numeric
//! contract broke — not a tolerance issue, a wrong-bits issue.
//!
//! If a golden legitimately needs re-pinning (it shouldn't, short of a
//! deliberate contract revision documented in DESIGN.md), run with
//! `--nocapture`: each assert prints the observed digest.

use cosmo_nn::Tensor;

/// Deterministic pseudo-random tensor (splitmix64-ish), same construction
/// as the in-crate kernel tests.
fn pseudo(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut s = seed;
    let data = (0..rows * cols)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z >> 40) as f32 / (1 << 24) as f32) * 4.0 - 2.0
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// FNV-1a over the little-endian output bits.
fn digest(t: &Tensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in t.data() {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Expected digests for (matmul 48·96·64, matmul_tn 96·48·64,
/// matmul_nt 48·96·64, matmul 130·130·130) in the active configuration.
/// The k = 96 and k = 130 cases straddle the fast-math `FM_KBLOCK = 64`
/// boundary, so the reduction-tree fold itself is pinned, not just the
/// within-block chain.
#[cfg(not(feature = "fast-math"))]
const GOLDENS: [u64; 4] = [
    0xdb2717bd44b8960b,
    0x09d0c11cdc815e22,
    0x731a300c6454ee94,
    0x179f887422634fc8,
];
#[cfg(feature = "fast-math")]
const GOLDENS: [u64; 4] = [
    0x3c565028a1471a96,
    0x835d2c5491d54947,
    0x2357924b174d1984,
    0x3916624c255f4945,
];

#[test]
fn matmul_kernel_bits_match_pinned_goldens() {
    let a = pseudo(48, 96, 0x517E);
    let b = pseudo(96, 64, 0x9A11);
    let ta = pseudo(96, 48, 0x7E57);
    let nb = pseudo(64, 96, 0xD1CE);
    let big_a = pseudo(130, 130, 0xF00D);
    let big_b = pseudo(130, 130, 0xBEEF);

    let got = [
        digest(&a.matmul(&b)),
        digest(&ta.matmul_tn(&b)),
        digest(&a.matmul_nt(&nb)),
        digest(&big_a.matmul(&big_b)),
    ];
    let names = ["matmul", "matmul_tn", "matmul_nt", "matmul_130"];
    for (&have, name) in got.iter().zip(names) {
        eprintln!("golden {name}: observed {have:#018x}");
    }
    for ((&want, &have), name) in GOLDENS.iter().zip(got.iter()).zip(names) {
        assert_eq!(want, have, "{name} kernel bits drifted from pinned golden");
    }
}

/// The unfused tier is configuration-independent by design: its digests
/// must equal the default build's goldens even when `fast-math` is on.
#[test]
fn unfused_tier_matches_default_goldens_in_every_config() {
    const UNFUSED: [u64; 2] = [0xdb2717bd44b8960b, 0x09d0c11cdc815e22];
    let a = pseudo(48, 96, 0x517E);
    let b = pseudo(96, 64, 0x9A11);
    let ta = pseudo(96, 48, 0x7E57);
    let got = [
        digest(&a.matmul_unfused(&b)),
        digest(&ta.matmul_tn_unfused(&b)),
    ];
    for (&want, &have) in UNFUSED.iter().zip(got.iter()) {
        eprintln!("unfused golden: observed {have:#018x}");
        assert_eq!(want, have, "unfused tier bits drifted");
    }
}

/// Bag ids per example: bag `a` draws rows `0..20` of the shared table,
/// bag `b` rows `20..40`; both repeat ids within a bag and across the
/// examples of a shard.
fn training_examples() -> Vec<(Vec<usize>, Vec<usize>, usize)> {
    (0..12)
        .map(|i| {
            let a = vec![i % 7, (i * 3) % 20, i % 7, (i * 5 + 1) % 20];
            let b = vec![20 + (i * 2) % 20, 20 + i % 4, 20 + (i * 2) % 20];
            (a, b, i % 3)
        })
        .collect()
}

/// Flatten the bags of `examples` into one gather's ids plus segment ids.
fn flat_bags<'a>(bags: impl Iterator<Item = &'a Vec<usize>>) -> (Vec<usize>, Vec<usize>) {
    let mut ids = Vec::new();
    let mut segments = Vec::new();
    for (seg, bag) in bags.enumerate() {
        ids.extend_from_slice(bag);
        segments.extend(std::iter::repeat_n(seg, bag.len()));
    }
    (ids, segments)
}

/// Two-tower bag classifier loss over `examples`: the shared table is
/// gathered twice on one tape, once per bag.
fn two_tower_loss(
    tape: &mut cosmo_nn::Tape,
    store: &cosmo_nn::ParamStore,
    emb: &cosmo_nn::layers::Embedding,
    head: &cosmo_nn::layers::Linear,
    examples: &[(Vec<usize>, Vec<usize>, usize)],
) -> cosmo_nn::Var {
    let n = examples.len();
    let (ids_a, seg_a) = flat_bags(examples.iter().map(|e| &e.0));
    let (ids_b, seg_b) = flat_bags(examples.iter().map(|e| &e.1));
    let targets: Vec<usize> = examples.iter().map(|e| e.2).collect();
    let rows_a = emb.forward(tape, store, &ids_a);
    let pooled_a = tape.segment_mean(rows_a, &seg_a, n);
    let rows_b = emb.forward(tape, store, &ids_b);
    let pooled_b = tape.segment_mean(rows_b, &seg_b, n);
    let cat = tape.concat_cols(pooled_a, pooled_b);
    let logits = head.forward(tape, store, cat);
    tape.cross_entropy(logits, &targets)
}

/// FNV-1a over every parameter's value bits, in registration order.
fn store_digest(store: &cosmo_nn::ParamStore) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in store.ids() {
        let d = digest(store.value(id));
        for b in d.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Expected trained-weight digests for (Adam with weight decay over whole
/// batches, SGD with momentum and weight decay over whole batches) in the
/// active configuration.
#[cfg(not(feature = "fast-math"))]
const TRAINING_GOLDENS: [u64; 2] = [0xd98a3f460fb54530, 0xf09ff2dcc36c28ed];
#[cfg(feature = "fast-math")]
const TRAINING_GOLDENS: [u64; 2] = [0xa45eef8de384b3f3, 0x2ca35cd9dae2f2e5];

/// Pins the bits of whole training runs through the embedding gather,
/// segment means, a dense head and both optimizers.
///
/// Each step records the whole 12-example batch on one reused tape. The
/// Adam run's two bags draw disjoint rows of the table. The SGD run lets
/// the two bags share rows, so one table row collects gradient from both
/// gathers of a tape.
#[test]
fn training_bits_match_pinned_goldens() {
    use cosmo_nn::layers::{Embedding, Linear};
    use cosmo_nn::opt::{Adam, Sgd};
    use cosmo_nn::{ParamStore, Tape};
    use rand::{rngs::StdRng, SeedableRng};

    let build = || {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0x601D);
        let emb = Embedding::new(&mut store, "emb", 40, 6, &mut rng);
        let head = Linear::new(&mut store, "head", 12, 3, &mut rng);
        (store, emb, head)
    };
    let examples = training_examples();
    let mut tape = Tape::new();

    let (mut store, emb, head) = build();
    let mut adam = Adam::new(0.05);
    adam.weight_decay = 0.01;
    for _ in 0..6 {
        tape.grad_step(&mut store, |tape, s| {
            two_tower_loss(tape, s, &emb, &head, &examples)
        });
        adam.step(&mut store, &cosmo_exec::WorkerPool::new(1));
    }
    let adam_digest = store_digest(&store);

    // shift bag `b` into rows 10..30 so it overlaps bag `a`'s rows
    let overlapping: Vec<_> = examples
        .iter()
        .map(|(a, b, t)| (a.clone(), b.iter().map(|&x| x - 10).collect(), *t))
        .collect();
    let (mut store, emb, head) = build();
    let mut sgd = Sgd::with_momentum(0.2, 0.9);
    sgd.weight_decay = 0.001;
    for _ in 0..6 {
        tape.grad_step(&mut store, |tape, s| {
            two_tower_loss(tape, s, &emb, &head, &overlapping)
        });
        sgd.step(&mut store);
    }
    let sgd_digest = store_digest(&store);

    let got = [adam_digest, sgd_digest];
    let names = ["adam_whole_batch", "sgd_momentum"];
    for (&have, name) in got.iter().zip(names) {
        eprintln!("training golden {name}: observed {have:#018x}");
    }
    for ((&want, &have), name) in TRAINING_GOLDENS.iter().zip(got.iter()).zip(names) {
        assert_eq!(
            want, have,
            "{name} trained-weight bits drifted from pinned golden"
        );
    }
}
