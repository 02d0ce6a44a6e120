//! Pinned bits of a trained relevance model.
//!
//! The cross-encoder with intent features trains at its default knobs on
//! a small ESCI-style dataset whose knowledge field verbalises the
//! world's latent connection. The test result's Macro/Micro F1 bits are
//! folded into a 64-bit FNV-1a digest, which must equal the pinned
//! constant for the active kernel tier. Run with `--nocapture` to print
//! the observed digest.

use cosmo_nn::Tensor;
use cosmo_relevance::dataset::{attach_knowledge, generate_locale, EsciConfig};
use cosmo_relevance::models::{run_architecture, Architecture, RelevanceConfig};
use cosmo_synth::{World, WorldConfig};

/// Expected digest with the default kernels and with the `fast-math` tier.
const DEFAULT_PIN: u64 = 0x6712ee736ba40498;
const FAST_MATH_PIN: u64 = 0x6712ee736ba40498;

/// Shared intents, complement and target markers between the query's
/// target types and the product's type.
fn oracle_knowledge(w: &World, query: &str, product: &str) -> String {
    let q = w.queries.iter().find(|q| q.text == query);
    let prod = w.products.iter().find(|p| p.title == product);
    let (Some(q), Some(p)) = (q, prod) else {
        return String::new();
    };
    let pt = w.ptype(p.ptype);
    let mut parts = Vec::new();
    for &t in &q.target_types {
        let target = w.ptype(t);
        for (i, wt) in &target.profile {
            if *wt >= 0.5 && pt.weight_of(*i) >= 0.4 {
                parts.push(format!("shared {}", w.intent(*i).tail));
            }
        }
        if target.complements.contains(&p.ptype) {
            parts.push(format!("complement {}", pt.base));
        }
        if t == p.ptype {
            parts.push(format!("target {}", pt.base));
        }
    }
    parts.join(" . ")
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn trained_digest() -> u64 {
    let world = World::generate(WorldConfig::tiny(95));
    let cfg = EsciConfig {
        base_pairs: 600,
        ..Default::default()
    };
    let mut ds = generate_locale(&world, &cfg, 0);
    attach_knowledge(&mut ds, |q, p| oracle_knowledge(&world, q, p));
    let result = run_architecture(
        &ds,
        Architecture::CrossEncoderWithIntent,
        RelevanceConfig {
            epochs: 3,
            ..Default::default()
        },
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, result.architecture.as_bytes());
    fnv(&mut h, &[u8::from(result.trainable_encoder)]);
    fnv(&mut h, &result.macro_f1.to_bits().to_le_bytes());
    fnv(&mut h, &result.micro_f1.to_bits().to_le_bytes());
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
fn trained_relevance_bits_match_pin() {
    let got = trained_digest();
    eprintln!("relevance pin: observed {got:#018x}");
    let want = if fast_math_kernels() {
        FAST_MATH_PIN
    } else {
        DEFAULT_PIN
    };
    assert_eq!(got, want, "trained relevance bits drifted from the pin");
}
