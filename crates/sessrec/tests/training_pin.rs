//! Pinned bits of trained session recommenders.
//!
//! FPMC (one tape per chunk of transition pairs), GRU4Rec (one tape per
//! session), STAMP (one tape per prefix instance) and SR-GNN (the graph
//! fit loop) each train at the default knobs. Each model's evaluation
//! report and its raw scores for one probe prefix are folded into a
//! 64-bit FNV-1a digest over their exact bits, which must equal the pinned
//! constant for the active kernel tier. Run with `--nocapture` to print
//! the observed digests.

use cosmo_nn::Tensor;
use cosmo_sessrec::{
    evaluate, generate_sessions, Fpmc, Gru4Rec, SessionConfig, SessionDataset, SessionModel, SrGnn,
    Stamp, TrainConfig,
};
use cosmo_synth::{World, WorldConfig};

/// Expected digests for (FPMC, GRU4Rec, STAMP, SR-GNN) with the default
/// kernels and with the `fast-math` tier.
const DEFAULT_PINS: [u64; 4] = [
    0x2183e03f24a2988f,
    0x58d8c07ed390c3f0,
    0x42b9baf49c2d2e9d,
    0xcd82213ef6ac2fdc,
];
const FAST_MATH_PINS: [u64; 4] = [
    0x74ad939e91656734,
    0x519a3962652a5212,
    0x4bf30b86f23f79c1,
    0xc268d3432a381a04,
];

fn dataset() -> SessionDataset {
    let w = World::generate(WorldConfig::tiny(111));
    generate_sessions(&w, &SessionConfig::clothing(7, 30))
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Train `model` and digest its report plus its raw scores for one probe
/// prefix.
fn fit_and_probe(model: &mut dyn SessionModel, ds: &SessionDataset) -> u64 {
    let cfg = TrainConfig {
        dim: 8,
        epochs: 2,
        prefixes_per_session: 1,
        max_sessions: 12,
        ..Default::default()
    };
    model.fit(ds, &cfg);
    let probe = ds
        .test
        .iter()
        .find(|s| s.items.len() >= 2)
        .expect("a scorable test session");
    let n = probe.items.len();
    let scores = model.score_prefix(ds, &probe.items[..n - 1], &probe.queries[..n]);
    let report = evaluate(model, ds, 10);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, report.model.as_bytes());
    for x in [report.hits, report.ndcg, report.mrr] {
        fnv(&mut h, &x.to_bits().to_le_bytes());
    }
    for x in scores {
        fnv(&mut h, &x.to_bits().to_le_bytes());
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
fn trained_session_models_match_pins() {
    let ds = dataset();
    let got = [
        fit_and_probe(&mut Fpmc::new(), &ds),
        fit_and_probe(&mut Gru4Rec::new(), &ds),
        fit_and_probe(&mut Stamp::new(), &ds),
        fit_and_probe(&mut SrGnn::new(), &ds),
    ];
    for (have, name) in got.iter().zip(["FPMC", "GRU4Rec", "STAMP", "SR-GNN"]) {
        eprintln!("sessrec pin {name}: observed {have:#018x}");
    }
    let want = if fast_math_kernels() {
        FAST_MATH_PINS
    } else {
        DEFAULT_PINS
    };
    assert_eq!(
        got, want,
        "trained session-model bits drifted from the pins"
    );
}
