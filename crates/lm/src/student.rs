//! COSMO-LM: the instruction-tuned student model (§3.4).
//!
//! The paper fine-tunes LLaMA-7B/13B on the instruction data so that a
//! *small* model (a) generates typical knowledge directly, (b) judges
//! plausibility/typicality, and (c) handles the auxiliary behaviour-level
//! predictions — one model, five tasks, cheap enough for online serving.
//!
//! The offline stand-in keeps that exact contract: a shared hashed-feature
//! text encoder (embedding bag) with
//!
//! * a **generation head** — constrained decoding over the canonicalised
//!   tail vocabulary: `score(tail | input) = enc(input) · E_tail`, trained
//!   with full-softmax cross-entropy on the typical-knowledge instructions;
//! * four **binary heads** (plausibility, typicality, co-purchase,
//!   search-relevance) trained with BCE on the prediction instructions.
//!
//! Constrained decoding over a closed tail vocabulary is the right
//! simulation: the paper's student also only ever emits canonicalised
//! tails (Table 2 structure), and it lets us measure typicality of
//! generations exactly via the world oracle.

use crate::instruction::{Instruction, TaskType};
use cosmo_exec::WorkerPool;
use cosmo_kg::Relation;
use cosmo_nn::infer::{self, InferScratch, ScratchPool};
use cosmo_nn::layers::{Embedding, Linear};
use cosmo_nn::opt::Adam;
use cosmo_nn::{ParamStore, Tape};
use cosmo_text::hash::hash_str_ns;
use cosmo_text::{tokenize, FxHashMap};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const NS_TOK: u32 = 31;
const NS_BI: u32 = 32;

/// Student hyperparameters.
#[derive(Debug, Clone)]
pub struct StudentConfig {
    /// RNG seed.
    pub seed: u64,
    /// Hash buckets for input features.
    pub buckets: usize,
    /// Embedding width.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl Default for StudentConfig {
    fn default() -> Self {
        StudentConfig {
            seed: 0x10_C0_5A,
            buckets: 1 << 13,
            dim: 48,
            epochs: 12,
            batch: 64,
            lr: 0.01,
        }
    }
}

/// Training/eval metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StudentReport {
    /// Generation instances trained on.
    pub n_generate: usize,
    /// Prediction instances trained on.
    pub n_predict: usize,
    /// Final-epoch mean generation loss.
    pub gen_loss: f32,
    /// Held-out top-1 generation accuracy (exact tail match).
    pub gen_top1: f64,
    /// Held-out prediction accuracy per task.
    pub predict_accuracy: Vec<(String, f64)>,
}

/// The COSMO-LM student.
pub struct CosmoLm {
    store: ParamStore,
    enc: Embedding,
    tail_emb: Embedding,
    heads: [Linear; 4],
    tail_vocab: Vec<String>,
    tail_rel: Vec<Option<Relation>>,
    tail_index: FxHashMap<String, usize>,
    cfg: StudentConfig,
    /// Recycled scratches for the tape-free inference forwards.
    scratch_pool: ScratchPool,
}

fn head_slot(task: TaskType) -> Option<usize> {
    match task {
        TaskType::Generate => None,
        TaskType::Plausibility => Some(0),
        TaskType::Typicality => Some(1),
        TaskType::CopurchasePrediction => Some(2),
        TaskType::RelevancePrediction => Some(3),
    }
}

impl CosmoLm {
    /// Create an untrained student with a closed tail vocabulary
    /// (`(canonical tail, relation hint)` pairs; duplicates merged).
    pub fn new(cfg: StudentConfig, tails: Vec<(String, Option<Relation>)>) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut tail_vocab = Vec::new();
        let mut tail_rel = Vec::new();
        let mut tail_index = FxHashMap::default();
        for (t, r) in tails {
            if t.is_empty() || tail_index.contains_key(&t) {
                continue;
            }
            tail_index.insert(t.clone(), tail_vocab.len());
            tail_vocab.push(t);
            tail_rel.push(r);
        }
        assert!(!tail_vocab.is_empty(), "student needs a tail vocabulary");
        let enc = Embedding::new(&mut store, "lm.enc", cfg.buckets, cfg.dim, &mut rng);
        let tail_emb = Embedding::new(&mut store, "lm.tails", tail_vocab.len(), cfg.dim, &mut rng);
        let heads = [
            Linear::new(&mut store, "lm.plaus", cfg.dim, 1, &mut rng),
            Linear::new(&mut store, "lm.typ", cfg.dim, 1, &mut rng),
            Linear::new(&mut store, "lm.cobuy", cfg.dim, 1, &mut rng),
            Linear::new(&mut store, "lm.rel", cfg.dim, 1, &mut rng),
        ];
        CosmoLm {
            store,
            enc,
            tail_emb,
            heads,
            tail_vocab,
            tail_rel,
            tail_index,
            cfg,
            scratch_pool: ScratchPool::new(),
        }
    }

    /// Size of the tail vocabulary.
    pub fn num_tails(&self) -> usize {
        self.tail_vocab.len()
    }

    /// Instruction-tune on the dataset; last 15% of each task held out.
    ///
    /// Each training instruction's input is hashed into encoder features
    /// once, up front, and every epoch reads those lists. The optimizer
    /// splits its large tensors across a pool of one worker per core that
    /// lives only as long as this call; the trained bits do not depend on
    /// its size.
    pub fn train(&mut self, instructions: &[Instruction]) -> StudentReport {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xF1E7);
        let mut report = StudentReport::default();

        // split per task
        let mut train_set: Vec<usize> = Vec::new();
        let mut test_set: Vec<usize> = Vec::new();
        for task in TaskType::ALL {
            let mut idx: Vec<usize> = instructions
                .iter()
                .enumerate()
                .filter(|(_, i)| i.task == task)
                .map(|(i, _)| i)
                .collect();
            idx.shuffle(&mut rng);
            let split = (idx.len() as f64 * 0.85) as usize;
            train_set.extend_from_slice(&idx[..split]);
            test_set.extend_from_slice(&idx[split..]);
        }
        for &i in &train_set {
            if instructions[i].task == TaskType::Generate {
                report.n_generate += 1;
            } else {
                report.n_predict += 1;
            }
        }

        // every training input's features back to back; `spans[i]` is
        // instruction i's run (empty for held-out ones)
        let mut features = Vec::new();
        let mut spans = vec![0..0; instructions.len()];
        for &i in &train_set {
            let start = features.len();
            features.extend(hash_features(self.cfg.buckets, &instructions[i].input));
            spans[i] = start..features.len();
        }
        let mut opt = Adam::new(self.cfg.lr);
        let mut tape = Tape::new();
        let pool = WorkerPool::new(WorkerPool::available_parallelism());
        for _epoch in 0..self.cfg.epochs {
            train_set.shuffle(&mut rng);
            let mut gen_loss = 0.0f32;
            let mut gen_steps = 0usize;
            for chunk in train_set.chunks(self.cfg.batch) {
                // split the chunk by task kind
                let gens: Vec<(&Instruction, &[usize])> = chunk
                    .iter()
                    .map(|&i| (&instructions[i], &features[spans[i].clone()]))
                    .filter(|(i, _)| i.task == TaskType::Generate)
                    .collect();
                if !gens.is_empty() {
                    gen_loss += self.gen_step(&gens, &mut opt, &mut tape, &pool);
                    gen_steps += 1;
                }
                for slot in 0..4 {
                    let preds: Vec<(&Instruction, &[usize])> = chunk
                        .iter()
                        .map(|&i| (&instructions[i], &features[spans[i].clone()]))
                        .filter(|(i, _)| head_slot(i.task) == Some(slot) && i.label.is_some())
                        .collect();
                    if !preds.is_empty() {
                        self.predict_step(slot, &preds, &mut opt, &mut tape, &pool);
                    }
                }
            }
            report.gen_loss = gen_loss / gen_steps.max(1) as f32;
        }

        // held-out evaluation
        let mut gen_hits = 0usize;
        let mut gen_total = 0usize;
        let mut pred_hits = [0usize; 4];
        let mut pred_total = [0usize; 4];
        for &i in &test_set {
            let inst = &instructions[i];
            match inst.task {
                TaskType::Generate => {
                    gen_total += 1;
                    let top = self.generate(&inst.input, inst.relation, 1);
                    if top.first().map(|(t, _)| t.as_str()) == inst.tail.as_deref() {
                        gen_hits += 1;
                    }
                }
                t => {
                    let slot = head_slot(t).unwrap();
                    let p = self.predict(t, &inst.input);
                    pred_total[slot] += 1;
                    if (p > 0.5) == inst.label.unwrap() {
                        pred_hits[slot] += 1;
                    }
                }
            }
        }
        report.gen_top1 = gen_hits as f64 / gen_total.max(1) as f64;
        report.predict_accuracy = TaskType::ALL
            .iter()
            .filter_map(|&t| {
                let slot = head_slot(t)?;
                Some((
                    t.name().to_string(),
                    pred_hits[slot] as f64 / pred_total[slot].max(1) as f64,
                ))
            })
            .collect();
        report
    }

    /// One generation step over the whole batch (each instruction with its
    /// hashed features); returns its mean loss.
    fn gen_step(
        &mut self,
        batch: &[(&Instruction, &[usize])],
        opt: &mut Adam,
        tape: &mut Tape,
        pool: &WorkerPool,
    ) -> f32 {
        let CosmoLm {
            store,
            enc,
            tail_emb,
            tail_index,
            ..
        } = self;
        let loss = tape.grad_step(store, |tape, s| {
            let targets: Vec<usize> = batch
                .iter()
                .map(|(i, _)| tail_index[i.tail.as_ref().unwrap()])
                .collect();
            let features: Vec<&[usize]> = batch.iter().map(|&(_, f)| f).collect();
            let e = encode_inputs(tape, s, enc, &features);
            let tails = tail_emb.table(tape, s);
            let logits = tape.matmul_nt(e, tails);
            tape.cross_entropy(logits, &targets)
        });
        opt.step(store, pool);
        loss
    }

    fn predict_step(
        &mut self,
        slot: usize,
        batch: &[(&Instruction, &[usize])],
        opt: &mut Adam,
        tape: &mut Tape,
        pool: &WorkerPool,
    ) {
        let CosmoLm {
            store, enc, heads, ..
        } = self;
        let head = &heads[slot];
        tape.grad_step(store, |tape, s| {
            let labels: Vec<f32> = batch
                .iter()
                .map(|(i, _)| f32::from(i.label.unwrap()))
                .collect();
            let features: Vec<&[usize]> = batch.iter().map(|&(_, f)| f).collect();
            let e = encode_inputs(tape, s, enc, &features);
            let logits = head.forward(tape, s, e);
            tape.bce_with_logits(logits, &labels)
        });
        opt.step(store, pool);
    }

    /// Generate the top-`k` tails for an input, optionally constrained to
    /// tails compatible with `relation`: a one-row
    /// [`CosmoLm::generate_batch`].
    pub fn generate(
        &self,
        input: &str,
        relation: Option<Relation>,
        k: usize,
    ) -> Vec<(String, f32)> {
        self.generate_batch(&[input], relation, k)
            .pop()
            .unwrap_or_default()
    }

    /// Rank one `[1×tails]` logit row against the (optional) relation
    /// constraint.
    fn rank_tail_row(
        &self,
        row: &[f32],
        relation: Option<Relation>,
        k: usize,
    ) -> Vec<(String, f32)> {
        let mut scored: Vec<(usize, f32)> = row
            .iter()
            .enumerate()
            .filter(|(i, _)| match (relation, self.tail_rel[*i]) {
                (Some(want), Some(have)) => want == have,
                _ => true,
            })
            .map(|(i, &s)| (i, s))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
            .into_iter()
            .take(k)
            .map(|(i, s)| (self.tail_vocab[i].clone(), s))
            .collect()
    }

    /// Top-`k` tails for each input: one embedding-bag encode and one
    /// `[batch×dim]·[tails×dim]ᵀ` matmul over the whole batch, through
    /// reused tape-free scratch buffers. Per-element reduction chains are
    /// a pure function of the inner dimension, so every output row — and
    /// therefore every ranking — is the same at any batch size, in both
    /// feature configurations.
    pub fn generate_batch(
        &self,
        inputs: &[&str],
        relation: Option<Relation>,
        k: usize,
    ) -> Vec<Vec<(String, f32)>> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let mut s = self.scratch_pool.take();
        self.encode_into(&mut s, inputs);
        infer::matmul_nt_into(
            &s.pooled,
            self.tail_emb.table_value(&self.store),
            &mut s.nt_scratch,
            &mut s.out,
        );
        let out = (0..inputs.len())
            .map(|r| self.rank_tail_row(s.out.row_slice(r), relation, k))
            .collect();
        self.scratch_pool.put(s);
        out
    }

    /// Probability output of a prediction head: a one-row
    /// [`CosmoLm::predict_batch`].
    pub fn predict(&self, task: TaskType, input: &str) -> f32 {
        self.predict_batch(task, &[input]).pop().unwrap_or_default()
    }

    /// Prediction-head probabilities for each input: encodes the whole
    /// batch into one `[batch×dim]` tensor and runs one head matmul,
    /// tape-free, through reused scratch buffers. Each row is the same at
    /// any batch size, in both feature configurations — locked by a
    /// proptest.
    pub fn predict_batch(&self, task: TaskType, inputs: &[&str]) -> Vec<f32> {
        let slot = head_slot(task).expect("predict needs a prediction task");
        if inputs.is_empty() {
            return Vec::new();
        }
        let mut s = self.scratch_pool.take();
        self.encode_into(&mut s, inputs);
        let (w, b) = self.heads[slot].params(&self.store);
        infer::linear_into(&s.pooled, w, b, &mut s.out);
        let out = s
            .out
            .data()
            .iter()
            .map(|&x| 1.0 / (1.0 + (-x).exp()))
            .collect();
        self.scratch_pool.put(s);
        out
    }

    /// Dense embedding of arbitrary text under the student's encoder —
    /// "we leverage the same LM to vectorize generated knowledge" (§4.2.3,
    /// COSMO-GNN's knowledge embeddings). A one-row
    /// [`CosmoLm::embed_batch`].
    pub fn embed_text(&self, text: &str) -> Vec<f32> {
        self.embed_batch(&[text]).pop().unwrap_or_default()
    }

    /// Dense embeddings for each text: one embedding-bag encode for the
    /// whole batch; each row is the same at any batch size.
    pub fn embed_batch(&self, texts: &[&str]) -> Vec<Vec<f32>> {
        if texts.is_empty() {
            return Vec::new();
        }
        let mut s = self.scratch_pool.take();
        self.encode_into(&mut s, texts);
        let out = (0..texts.len())
            .map(|r| s.pooled.row_slice(r).to_vec())
            .collect();
        self.scratch_pool.put(s);
        out
    }

    /// Stage hashed features for `inputs` in `scratch` and mean-pool them
    /// into `scratch.pooled` (`[batch×dim]`), reading the encoder table in
    /// place. Mirrors the training encoder [`encode_inputs`] over the same
    /// [`hash_features`] lists bit-for-bit without the tape.
    fn encode_into(&self, scratch: &mut InferScratch, inputs: &[&str]) {
        scratch.clear_ids();
        for (seg, input) in inputs.iter().enumerate() {
            for f in hash_features(self.cfg.buckets, input) {
                scratch.ids.push(f);
                scratch.segments.push(seg);
            }
        }
        infer::embed_bag_into(
            self.enc.table_value(&self.store),
            &scratch.ids,
            &scratch.segments,
            inputs.len(),
            &mut scratch.counts,
            &mut scratch.pooled,
        );
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }
}

/// Hash an input text into encoder features (free function so training
/// closures can use it while the store is mutably borrowed).
fn hash_features(buckets: usize, input: &str) -> Vec<usize> {
    let toks = tokenize(input);
    let mut out = Vec::with_capacity(toks.len() * 2);
    for t in &toks {
        out.push((hash_str_ns(t, NS_TOK) % buckets as u64) as usize);
    }
    for w in toks.windows(2) {
        out.push((hash_str_ns(&format!("{} {}", w[0], w[1]), NS_BI) % buckets as u64) as usize);
    }
    if out.is_empty() {
        out.push(0);
    }
    out
}

/// Encode a batch of inputs on `tape` from their [`hash_features`] lists:
/// hashed-feature embedding bag with per-input segment means.
fn encode_inputs(
    tape: &mut Tape,
    store: &ParamStore,
    enc: &Embedding,
    features: &[&[usize]],
) -> cosmo_nn::Var {
    let mut ids = Vec::new();
    let mut segments = Vec::new();
    for (s, feats) in features.iter().enumerate() {
        ids.extend_from_slice(feats);
        segments.resize(ids.len(), s);
    }
    let rows = enc.forward(tape, store, &ids);
    tape.segment_mean(rows, &segments, features.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmo_synth::{DomainId, ProductId, QueryId};
    use cosmo_teacher::BehaviorRef;

    fn toy_instructions() -> Vec<Instruction> {
        // Learnable mapping: input mentions "camping" → tail "sleeping
        // outdoors"; mentions "kitchen" → tail "peeling potatoes".
        let mut out = Vec::new();
        for i in 0..240 {
            let camping = i % 2 == 0;
            let (word, tail) = if camping {
                ("camping", "sleeping outdoors")
            } else {
                ("kitchen", "peeling potatoes")
            };
            out.push(Instruction {
                task: TaskType::Generate,
                template_id: i % 3,
                input: format!("generate explanation {i}: user searched {word} item"),
                output: tail.to_string(),
                tail: Some(tail.to_string()),
                label: None,
                relation: Some(Relation::UsedForFunc),
                domain: DomainId(1),
                behavior: BehaviorRef::SearchBuy(QueryId(0), ProductId(i as u32)),
            });
            // plausibility task: label = camping
            out.push(Instruction {
                task: TaskType::Plausibility,
                template_id: i % 3,
                input: format!("is \"{tail}\" plausible for {word} item {i}"),
                output: if camping { "yes" } else { "no" }.to_string(),
                tail: Some(tail.to_string()),
                label: Some(camping),
                relation: Some(Relation::UsedForFunc),
                domain: DomainId(1),
                behavior: BehaviorRef::SearchBuy(QueryId(0), ProductId(i as u32)),
            });
        }
        out
    }

    fn tails() -> Vec<(String, Option<Relation>)> {
        vec![
            ("sleeping outdoors".to_string(), Some(Relation::UsedForFunc)),
            ("peeling potatoes".to_string(), Some(Relation::UsedForFunc)),
            ("walking the dog".to_string(), Some(Relation::UsedForEve)),
        ]
    }

    #[test]
    fn student_learns_toy_generation() {
        let mut lm = CosmoLm::new(
            StudentConfig {
                epochs: 15,
                ..Default::default()
            },
            tails(),
        );
        let report = lm.train(&toy_instructions());
        assert!(report.gen_top1 > 0.8, "gen top1 {}", report.gen_top1);
        let top = lm.generate(
            "user searched camping item fresh",
            Some(Relation::UsedForFunc),
            1,
        );
        assert_eq!(top[0].0, "sleeping outdoors");
    }

    #[test]
    fn relation_constraint_masks_vocabulary() {
        let lm = CosmoLm::new(StudentConfig::default(), tails());
        let constrained = lm.generate("anything", Some(Relation::UsedForEve), 5);
        assert_eq!(constrained.len(), 1);
        assert_eq!(constrained[0].0, "walking the dog");
        let unconstrained = lm.generate("anything", None, 5);
        assert_eq!(unconstrained.len(), 3);
    }

    #[test]
    fn prediction_head_learns() {
        let mut lm = CosmoLm::new(
            StudentConfig {
                epochs: 15,
                ..Default::default()
            },
            tails(),
        );
        let report = lm.train(&toy_instructions());
        let plaus = report
            .predict_accuracy
            .iter()
            .find(|(n, _)| n == "plausibility-prediction")
            .unwrap();
        assert!(plaus.1 > 0.8, "plausibility accuracy {}", plaus.1);
    }

    #[test]
    fn duplicate_tails_are_merged() {
        let lm = CosmoLm::new(
            StudentConfig::default(),
            vec![
                ("a".to_string(), None),
                ("a".to_string(), Some(Relation::IsA)),
                ("b".to_string(), None),
            ],
        );
        assert_eq!(lm.num_tails(), 2);
    }

    #[test]
    fn embed_text_has_configured_dim() {
        let lm = CosmoLm::new(StudentConfig::default(), tails());
        let v = lm.embed_text("winter camping gear");
        assert_eq!(v.len(), lm.dim());
    }

    #[test]
    #[should_panic(expected = "tail vocabulary")]
    fn empty_vocab_rejected() {
        let _ = CosmoLm::new(StudentConfig::default(), vec![]);
    }

    fn trained_student() -> CosmoLm {
        let mut lm = CosmoLm::new(
            StudentConfig {
                epochs: 2,
                ..Default::default()
            },
            tails(),
        );
        lm.train(&toy_instructions());
        lm
    }

    /// Repeated per-item calls must be bitwise stable: the second call runs
    /// on a recycled scratch rather than a fresh one, and any drift would
    /// mean scratch reuse leaks state into results.
    #[test]
    fn scratch_reuse_inference_is_bitwise_stable_across_calls() {
        let lm = trained_student();
        let input = "user searched camping item fresh";
        let first = (
            lm.predict(TaskType::Plausibility, input),
            lm.generate(input, None, 3),
            lm.embed_text(input),
        );
        for _ in 0..3 {
            assert_eq!(lm.predict(TaskType::Plausibility, input), first.0);
            assert_eq!(lm.generate(input, None, 3), first.1);
            assert_eq!(lm.embed_text(input), first.2);
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn ranked_bits(ranked: &[(String, f32)]) -> Vec<(&str, u32)> {
        ranked
            .iter()
            .map(|(t, s)| (t.as_str(), s.to_bits()))
            .collect()
    }

    /// The per-item entry points (one-row batches through the tape-free
    /// forward) against the training tape's forward, bit for bit: every
    /// generation ranking with and without a relation constraint, all four
    /// prediction heads, and the text embedding, including the empty input.
    #[test]
    fn per_item_inference_matches_tape_forward_bitwise() {
        let lm = trained_student();
        let heads = [
            TaskType::Plausibility,
            TaskType::Typicality,
            TaskType::CopurchasePrediction,
            TaskType::RelevancePrediction,
        ];
        let k = lm.num_tails();
        for input in ["user searched camping item fresh", "kitchen gadget", ""] {
            let mut tape = Tape::new();
            let feats = hash_features(lm.cfg.buckets, input);
            let enc = encode_inputs(&mut tape, &lm.store, &lm.enc, &[&feats]);
            let tails = lm.tail_emb.table(&mut tape, &lm.store);
            let logits = tape.matmul_nt(enc, tails);
            for relation in [None, Some(Relation::UsedForFunc)] {
                let want = lm.rank_tail_row(tape.value(logits).row_slice(0), relation, k);
                let got = lm.generate(input, relation, k);
                assert_eq!(
                    ranked_bits(&got),
                    ranked_bits(&want),
                    "{input:?} {relation:?}"
                );
            }
            for task in heads {
                let slot = head_slot(task).unwrap();
                let logit = lm.heads[slot].forward(&mut tape, &lm.store, enc);
                let want = 1.0 / (1.0 + (-tape.value(logit).item()).exp());
                let got = lm.predict(task, input);
                assert_eq!(got.to_bits(), want.to_bits(), "{input:?} {task:?}");
            }
            let want = tape.value(enc).row_slice(0);
            assert_eq!(bits(&lm.embed_text(input)), bits(want), "{input:?}");
        }
    }

    #[test]
    fn generate_batch_is_batch_size_invariant_bitwise() {
        let lm = trained_student();
        let inputs = [
            "user searched camping item fresh",
            "kitchen gadget for peeling",
            "",
            "walking the dog at dawn with a camping lantern",
        ];
        for relation in [None, Some(Relation::UsedForFunc)] {
            let batched = lm.generate_batch(&inputs, relation, 3);
            for (input, rows) in inputs.iter().zip(batched.iter()) {
                let single = lm.generate(input, relation, 3);
                assert_eq!(ranked_bits(rows), ranked_bits(&single), "input {input:?}");
            }
        }
    }

    #[test]
    fn embed_batch_is_batch_size_invariant_bitwise() {
        let lm = trained_student();
        let texts = ["winter camping gear", "", "potato peeler", "dog leash"];
        let batched = lm.embed_batch(&texts);
        for (text, row) in texts.iter().zip(batched.iter()) {
            assert_eq!(bits(row), bits(&lm.embed_text(text)), "text {text:?}");
        }
        assert!(lm.predict_batch(TaskType::Typicality, &[]).is_empty());
        assert!(lm.embed_batch(&[]).is_empty());
    }

    proptest::proptest! {
        /// Each batch row must be *bitwise* equal to its one-row call for
        /// arbitrary input text, at any batch size — the contract that
        /// lets serving batch queries freely.
        #[test]
        fn predict_batch_is_batch_size_invariant_bitwise(
            inputs in proptest::collection::vec("[ a-z0-9]{0,40}", 1..12),
            slot in 0usize..4,
        ) {
            let lm = CosmoLm::new(StudentConfig::default(), tails());
            let task = [
                TaskType::Plausibility,
                TaskType::Typicality,
                TaskType::CopurchasePrediction,
                TaskType::RelevancePrediction,
            ][slot];
            let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
            let batched = lm.predict_batch(task, &refs);
            proptest::prop_assert_eq!(batched.len(), refs.len());
            for (input, &p) in refs.iter().zip(batched.iter()) {
                let single = lm.predict(task, input);
                proptest::prop_assert_eq!(
                    p.to_bits(), single.to_bits(),
                    "input {:?}: batched {} vs single {}", input, p, single
                );
            }
        }
    }
}
