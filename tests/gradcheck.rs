//! Property-based gradient verification: for randomly shaped/valued
//! computation graphs, analytic gradients from `cosmo-nn`'s tape must
//! match central finite differences.

use cosmo::nn::{ParamStore, Tape, Tensor};
use proptest::prelude::*;

fn finite_diff(
    store: &mut ParamStore,
    id: cosmo::nn::ParamId,
    f: &dyn Fn(&ParamStore) -> f32,
) -> Tensor {
    let eps = 1e-3f32;
    let (r, c) = store.value(id).shape();
    let mut out = Tensor::zeros(r, c);
    for i in 0..r * c {
        let orig = store.value(id).data()[i];
        store.value_mut(id).data_mut()[i] = orig + eps;
        let plus = f(store);
        store.value_mut(id).data_mut()[i] = orig - eps;
        let minus = f(store);
        store.value_mut(id).data_mut()[i] = orig;
        out.data_mut()[i] = (plus - minus) / (2.0 * eps);
    }
    out
}

fn check(store: &mut ParamStore, build: &dyn Fn(&mut Tape, &ParamStore) -> cosmo::nn::Var) {
    let mut tape = Tape::new();
    let loss = build(&mut tape, store);
    tape.backward(loss);
    store.zero_grads();
    tape.accumulate_param_grads(store);
    for id in store.ids() {
        let analytic = store.grad(id).clone();
        let numeric = finite_diff(store, id, &|s| {
            let mut t = Tape::new();
            let l = build(&mut t, s);
            t.value(l).item()
        });
        for (a, n) in analytic.data().iter().zip(numeric.data().iter()) {
            prop_assert_close(*a, *n);
        }
    }
}

fn prop_assert_close(a: f32, b: f32) {
    let tol = 2e-2 * (1.0 + a.abs().max(b.abs()));
    assert!((a - b).abs() < tol, "analytic {a} vs numeric {b}");
}

fn small_vals() -> impl Strategy<Value = f32> {
    // keep activations in the well-conditioned range for finite differences
    (-0.9f32..0.9).prop_map(|x| (x * 100.0).round() / 100.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn affine_softmax_ce_gradients(
        w_vals in prop::collection::vec(small_vals(), 12),
        x_vals in prop::collection::vec(small_vals(), 6),
        target in 0usize..4,
    ) {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(3, 4, w_vals));
        check(&mut store, &move |tape, s| {
            let x = tape.input(Tensor::from_vec(2, 3, x_vals.clone()));
            let wv = tape.param(s, w);
            let h = tape.matmul(x, wv);
            let h = tape.tanh(h);
            tape.cross_entropy(h, &[target, (target + 1) % 4])
        });
    }

    #[test]
    fn gather_segment_mean_bce_gradients(
        e_vals in prop::collection::vec(small_vals(), 12),
        idx in prop::collection::vec(0usize..6, 4..9),
        label in prop::bool::ANY,
    ) {
        let mut store = ParamStore::new();
        let e = store.add("e", Tensor::from_vec(6, 2, e_vals));
        let w = store.add("w", Tensor::from_vec(2, 1, vec![0.3, -0.4]));
        let idx2 = idx.clone();
        check(&mut store, &move |tape, s| {
            let wv = tape.param(s, w);
            let g = tape.gather(s, e, &idx2);
            let segs: Vec<usize> = (0..idx2.len()).map(|i| i % 2).collect();
            let m = tape.segment_mean(g, &segs, 2);
            let logits = tape.matmul(m, wv);
            tape.bce_with_logits(logits, &[f32::from(label), f32::from(!label)])
        });
    }

    #[test]
    fn attention_softmax_gradients(
        q_vals in prop::collection::vec(small_vals(), 3),
        k_vals in prop::collection::vec(small_vals(), 12),
    ) {
        let mut store = ParamStore::new();
        let q = store.add("q", Tensor::from_vec(1, 3, q_vals));
        let k = store.add("k", Tensor::from_vec(4, 3, k_vals));
        check(&mut store, &move |tape, s| {
            let qv = tape.param(s, q);
            let kv = tape.param(s, k);
            let scores = tape.matmul_nt(qv, kv);
            let w = tape.softmax(scores);
            let ctx = tape.matmul(w, kv);
            let sq = tape.mul(ctx, ctx);
            tape.mean_all(sq)
        });
    }

    #[test]
    fn elementwise_chain_gradients(
        vals in prop::collection::vec(small_vals(), 8),
    ) {
        let mut store = ParamStore::new();
        let p = store.add("p", Tensor::from_vec(2, 4, vals));
        check(&mut store, &move |tape, s| {
            let x = tape.param(s, p);
            let a = tape.sigmoid(x);
            let b = tape.one_minus(a);
            let m = tape.mul(a, b);
            let r = tape.relu(m);
            let sc = tape.scale(r, 1.5);
            let shifted = tape.add_scalar(sc, 0.5);
            let l = tape.log(shifted);
            tape.sum_all(l)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn broadcast_ops_gradients(
        a_vals in prop::collection::vec(small_vals(), 6),
        row_vals in prop::collection::vec(small_vals(), 3),
    ) {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(2, 3, a_vals));
        let row = store.add("row", Tensor::from_vec(1, 3, row_vals));
        check(&mut store, &move |tape, s| {
            let av = tape.param(s, a);
            let rv = tape.param(s, row);
            let added = tape.add_row(av, rv);
            let gated = tape.mul_row(added, rv);
            let d = tape.sub(gated, av);
            let m = tape.mean_rows(d);
            let sq = tape.mul(m, m);
            tape.sum_all(sq)
        });
    }

    #[test]
    fn concat_transpose_sumrows_gradients(
        a_vals in prop::collection::vec(small_vals(), 6),
        b_vals in prop::collection::vec(small_vals(), 4),
    ) {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(2, 3, a_vals));
        let b = store.add("b", Tensor::from_vec(2, 2, b_vals));
        check(&mut store, &move |tape, s| {
            let av = tape.param(s, a);
            let bv = tape.param(s, b);
            let cat = tape.concat_cols(av, bv);
            let t = tape.transpose(cat);
            let sums = tape.sum_rows(t);
            let sq = tape.mul(sums, sums);
            tape.mean_all(sq)
        });
    }

    #[test]
    fn bpr_loss_gradients(diff_vals in prop::collection::vec(small_vals(), 4)) {
        let mut store = ParamStore::new();
        let d = store.add("d", Tensor::from_vec(4, 1, diff_vals));
        check(&mut store, &move |tape, s| {
            let dv = tape.param(s, d);
            tape.bpr_loss(dv)
        });
    }
}

/// Deterministic well-conditioned values for the non-proptest checks below
/// (kept in [-0.9, 0.9] like `small_vals`).
fn hash_vals(n: usize, salt: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 33) % 1801) as f32 / 1000.0 - 0.9
        })
        .collect()
}

/// Shapes chosen to push the backward pass through the *tiled fast path*
/// of every matmul variant: the forward `[9×8]·[8×34]` matmul backward
/// computes `dW = Xᵀ·g` via `matmul_tn` with an `8×34` output (a full
/// 8-row register tile plus a column edge) and `dX = g·Wᵀ` via `matmul_nt`.
/// The proptest graphs above only cover the edge path (tiny shapes).
#[test]
fn tiled_matmul_backward_gradients() {
    let mut store = ParamStore::new();
    let x = store.add("x", Tensor::from_vec(9, 8, hash_vals(72, 1)));
    let w = store.add("w", Tensor::from_vec(8, 34, hash_vals(272, 2)));
    let targets: Vec<usize> = (0..9).map(|i| (i * 7) % 34).collect();
    let t2 = targets.clone();
    check(&mut store, &move |tape, s| {
        let xv = tape.param(s, x);
        let wv = tape.param(s, w);
        let h = tape.matmul(xv, wv);
        tape.cross_entropy(h, &t2)
    });
}

/// Transpose backward at tile-exceeding shapes (`transpose_into` runs the
/// blocked copy in both directions), composed with a tiled matmul.
#[test]
fn tiled_transpose_backward_gradients() {
    let mut store = ParamStore::new();
    let a = store.add("a", Tensor::from_vec(34, 9, hash_vals(306, 3)));
    let b = store.add("b", Tensor::from_vec(34, 5, hash_vals(170, 4)));
    check(&mut store, &move |tape, s| {
        let av = tape.param(s, a);
        let bv = tape.param(s, b);
        let at = tape.transpose(av);
        let h = tape.matmul(at, bv);
        let sq = tape.mul(h, h);
        tape.mean_all(sq)
    });
}

/// A reused-workspace tape (`reset()` between builds, buffers retained)
/// must produce gradients bitwise identical to a fresh tape — and they
/// must still pass the finite-difference check after several reuse cycles.
#[test]
fn reused_workspace_tape_matches_fresh_tape_bitwise() {
    let mut store = ParamStore::new();
    let x = store.add("x", Tensor::from_vec(9, 8, hash_vals(72, 5)));
    let w = store.add("w", Tensor::from_vec(8, 34, hash_vals(272, 6)));
    let targets: Vec<usize> = (0..9).map(|i| (i * 11) % 34).collect();

    let build = |tape: &mut Tape, s: &ParamStore| {
        let xv = tape.param(s, x);
        let wv = tape.param(s, w);
        let h = tape.matmul(xv, wv);
        let h = tape.tanh(h);
        tape.cross_entropy(h, &targets)
    };

    // Fresh tape: the baseline gradients.
    let mut fresh = Tape::new();
    let loss = build(&mut fresh, &store);
    fresh.backward(loss);
    store.zero_grads();
    fresh.accumulate_param_grads(&mut store);
    let base: Vec<(cosmo::nn::ParamId, Vec<f32>)> = store
        .ids()
        .into_iter()
        .map(|id| (id, store.grad(id).data().to_vec()))
        .collect();

    // One tape reused across cycles; graph sizes vary between resets so
    // the retained buffers get both grown and shrunk.
    let mut reused = Tape::new();
    for cycle in 0..4 {
        reused.reset();
        if cycle % 2 == 1 {
            // interleave a differently-shaped graph to perturb the pool
            let small = build_small(&mut reused, &store, x);
            reused.backward(small);
        }
        reused.reset();
        let loss = build(&mut reused, &store);
        reused.backward(loss);
        store.zero_grads();
        reused.accumulate_param_grads(&mut store);
        for (id, want) in &base {
            assert_eq!(
                store.grad(*id).data(),
                &want[..],
                "reused-tape gradients drifted on cycle {cycle}"
            );
        }
    }

    // And the reused tape's gradients are not just self-consistent but
    // numerically correct.
    store.zero_grads();
    reused.reset();
    let loss = build(&mut reused, &store);
    reused.backward(loss);
    reused.accumulate_param_grads(&mut store);
    for id in store.ids() {
        let analytic = store.grad(id).clone();
        let numeric = finite_diff(&mut store, id, &|s| {
            let mut t = Tape::new();
            let l = build(&mut t, s);
            t.value(l).item()
        });
        for (a, n) in analytic.data().iter().zip(numeric.data().iter()) {
            prop_assert_close(*a, *n);
        }
    }
}

fn build_small(tape: &mut Tape, s: &ParamStore, x: cosmo::nn::ParamId) -> cosmo::nn::Var {
    let xv = tape.param(s, x);
    let sq = tape.mul(xv, xv);
    tape.sum_all(sq)
}
