//! Property tests for the tensor kernels: algebraic identities that the
//! hand-rolled matmul variants must satisfy.
//!
//! Skipped under Miri: proptest's RNG-driven case generation is far too
//! slow in the interpreter, and the same kernels are Miri-covered by the
//! unit tests in `src/tensor.rs`.
#![cfg(not(miri))]

use cosmo_nn::Tensor;
use proptest::prelude::*;

fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

fn assert_close(a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.data().iter().zip(b.data().iter()) {
        assert!(
            (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())),
            "{x} vs {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_nt_equals_explicit_transpose(a in tensor(3, 4), b in tensor(5, 4)) {
        assert_close(&a.matmul_nt(&b), &a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose(a in tensor(4, 3), b in tensor(4, 5)) {
        assert_close(&a.matmul_tn(&b), &a.transpose().matmul(&b));
    }

    #[test]
    fn transpose_of_product(a in tensor(3, 4), b in tensor(4, 2)) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert_close(&lhs, &rhs);
    }

    #[test]
    fn matmul_distributes_over_addition(a in tensor(3, 4), b in tensor(4, 2), c in tensor(4, 2)) {
        // A·(B+C) = A·B + A·C
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        assert_close(&lhs, &rhs);
    }

    #[test]
    fn hadamard_commutes(a in tensor(4, 4), b in tensor(4, 4)) {
        assert_close(&a.hadamard(&b), &b.hadamard(&a));
    }

    #[test]
    fn scale_distributes(a in tensor(3, 3), s in -3.0f32..3.0) {
        let mut lhs = a.clone();
        lhs.scale_assign(s);
        let rhs = a.map(|x| s * x);
        assert_close(&lhs, &rhs);
    }
}
