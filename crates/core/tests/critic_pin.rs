//! Pinned bits of a trained critic.
//!
//! A fixed example set trains the critic at its default knobs. The
//! report's numbers and the plausibility/typicality scores of a few probe
//! feature lists are folded into a 64-bit FNV-1a digest over their exact
//! bits, which must equal the pinned constant for the active kernel tier.
//! A changed digest means training produced different weights: not a
//! tolerance issue, a wrong-bits issue. Run with `--nocapture` to print
//! the observed digest.

use cosmo_core::{Critic, CriticConfig, CriticExample};
use cosmo_nn::Tensor;

/// Expected digest with the default kernels and with the `fast-math` tier.
const DEFAULT_PIN: u64 = 0xa7c085c78242a366;
const FAST_MATH_PIN: u64 = 0xa7c085c78242a366;

fn examples() -> Vec<CriticExample> {
    (0..200)
        .map(|i| CriticExample {
            features: vec![i % 97, (i * 31) % 4096 + 100, 7 + (i % 2) * 6, i % 5],
            plausible: (i % 7 != 3).then_some(i % 2 == 0),
            typical: (i % 5 != 0).then_some(i % 3 == 0),
        })
        .collect()
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn trained_digest() -> u64 {
    let mut critic = Critic::new(CriticConfig {
        epochs: 3,
        ..Default::default()
    });
    let report = critic.train(&examples());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, &(report.n_plausible as u64).to_le_bytes());
    fnv(&mut h, &(report.n_typical as u64).to_le_bytes());
    fnv(&mut h, &report.final_loss.to_bits().to_le_bytes());
    for x in [
        report.plausible_accuracy,
        report.typical_accuracy,
        report.plausible_auc,
    ] {
        fnv(&mut h, &x.to_bits().to_le_bytes());
    }
    let probes: &[&[usize]] = &[&[], &[7], &[7, 13, 150], &[5, 5, 5, 40], &[96, 0, 4195]];
    for &feats in probes {
        let (p, t) = critic.score(feats);
        fnv(&mut h, &p.to_bits().to_le_bytes());
        fnv(&mut h, &t.to_bits().to_le_bytes());
    }
    h
}

/// True when cosmo-nn was built with its `fast-math` kernel tier, which
/// is the tier whose `matmul` differs from the unfused kernel.
fn fast_math_kernels() -> bool {
    let a = Tensor::from_vec(2, 3, vec![0.1, 0.7, -0.3, 1.3, -0.9, 0.45]);
    let b = Tensor::from_vec(3, 2, vec![0.77, -1.1, 0.31, 0.9, -0.6, 0.2]);
    a.matmul(&b).data() != a.matmul_unfused(&b).data()
}

#[test]
fn trained_critic_bits_match_pin() {
    let got = trained_digest();
    eprintln!("critic pin: observed {got:#018x}");
    let want = if fast_math_kernels() {
        FAST_MATH_PIN
    } else {
        DEFAULT_PIN
    };
    assert_eq!(got, want, "trained critic bits drifted from the pin");
}
