//! Pinned output bits of a trained student.
//!
//! A fixed small instruction set trains the student on whole batches. The
//! trained model's `generate`, `predict` and `embed_text` outputs are
//! folded into a 64-bit FNV-1a digest over their exact bits, which must
//! equal the pinned constant for the active kernel tier. A changed digest means training produced
//! different weights: not a tolerance issue, a wrong-bits issue. Run with
//! `--nocapture` to print the observed digests.

use cosmo_kg::Relation;
use cosmo_lm::{CosmoLm, Instruction, StudentConfig, TaskType};
use cosmo_nn::Tensor;
use cosmo_synth::{DomainId, ProductId, QueryId};
use cosmo_teacher::BehaviorRef;

const TASKS: [TaskType; 4] = [
    TaskType::Plausibility,
    TaskType::Typicality,
    TaskType::CopurchasePrediction,
    TaskType::RelevancePrediction,
];

/// Expected whole-batch digest with the default kernels and with the
/// `fast-math` tier.
const DEFAULT_PIN: u64 = 0xdd4f6b23b4be3f86;
const FAST_MATH_PIN: u64 = 0xa1d92a62dfb8a824;

/// Generation instructions over three tails plus every prediction task.
fn instructions() -> Vec<Instruction> {
    let topics = [
        ("camping", "sleeping outdoors", Relation::UsedForFunc),
        ("kitchen", "peeling potatoes", Relation::UsedForFunc),
        ("leash", "walking the dog", Relation::UsedForEve),
    ];
    let mut out = Vec::new();
    for i in 0..150 {
        let (word, tail, relation) = topics[i % 3];
        let behavior = BehaviorRef::SearchBuy(QueryId(i as u32 % 7), ProductId(i as u32));
        let instruction = |task, input: String, label: Option<bool>| Instruction {
            task,
            template_id: i % 3,
            input,
            output: match label {
                None => tail.to_string(),
                Some(true) => "yes".to_string(),
                Some(false) => "no".to_string(),
            },
            tail: Some(tail.to_string()),
            label,
            relation: Some(relation),
            domain: DomainId(1),
            behavior,
        };
        out.push(instruction(
            TaskType::Generate,
            format!("generate explanation {i}: user searched {word} item"),
            None,
        ));
        let task = TASKS[i % 4];
        out.push(instruction(
            task,
            format!("is \"{tail}\" right for {word} item {}", i % 11),
            Some(i % 3 != 1),
        ));
    }
    out
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Train on [`instructions`] and digest the trained model's outputs.
fn trained_digest() -> u64 {
    let mut lm = CosmoLm::new(
        StudentConfig {
            epochs: 2,
            ..Default::default()
        },
        vec![
            ("sleeping outdoors".to_string(), Some(Relation::UsedForFunc)),
            ("peeling potatoes".to_string(), Some(Relation::UsedForFunc)),
            ("walking the dog".to_string(), Some(Relation::UsedForEve)),
        ],
    );
    lm.train(&instructions());
    let probes = [
        "user searched camping item fresh",
        "kitchen gadget for peeling",
        "",
        "walking the dog at dawn with a camping lantern",
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for input in probes {
        for relation in [None, Some(Relation::UsedForFunc)] {
            for (tail, score) in lm.generate(input, relation, 3) {
                fnv(&mut h, tail.as_bytes());
                fnv(&mut h, &score.to_bits().to_le_bytes());
            }
        }
        for task in TASKS {
            fnv(&mut h, &lm.predict(task, input).to_bits().to_le_bytes());
        }
        for x in lm.embed_text(input) {
            fnv(&mut h, &x.to_bits().to_le_bytes());
        }
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
fn trained_student_outputs_match_pins() {
    let got = trained_digest();
    eprintln!("student pin whole_batch: observed {got:#018x}");
    let want = if fast_math_kernels() {
        FAST_MATH_PIN
    } else {
        DEFAULT_PIN
    };
    assert_eq!(
        got, want,
        "trained student output bits drifted from the pins"
    );
}
