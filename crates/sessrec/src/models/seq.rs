//! Sequential baselines: FPMC, GRU4Rec, STAMP, CSRM (§4.2.2).
//!
//! Every fit loop owns one reused [`Tape`] and takes each gradient step
//! through [`Tape::grad_step`]: FPMC one step per chunk of transition
//! pairs, GRU4Rec one per session, STAMP and CSRM one per prefix instance.

use super::{prefix_instances, rng_for, SessionModel, TrainConfig};
use crate::dataset::SessionDataset;
use cosmo_exec::WorkerPool;
use cosmo_nn::layers::{attention_pool, Embedding, GruCell, Linear};
use cosmo_nn::opt::Adam;
use cosmo_nn::{ParamId, ParamStore, Tape, Tensor, Var};
use rand::Rng;

/// FPMC (Rendle et al. 2010): a factorized first-order Markov chain —
/// `score(i | last) = ⟨L[last], I[i]⟩ + b[i]`. Session-anonymous, so the
/// user factor of the original model drops out; only the transition
/// factorisation remains, which is exactly what the paper's baseline
/// measures (no history beyond the last item).
pub struct Fpmc {
    store: ParamStore,
    last_emb: Option<Embedding>,
    item_emb: Option<Embedding>,
    bias: Option<ParamId>,
}

impl Fpmc {
    /// Untrained model.
    pub fn new() -> Self {
        Fpmc {
            store: ParamStore::new(),
            last_emb: None,
            item_emb: None,
            bias: None,
        }
    }
}

impl Default for Fpmc {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionModel for Fpmc {
    fn name(&self) -> &'static str {
        "FPMC"
    }

    fn fit(&mut self, ds: &SessionDataset, cfg: &TrainConfig) {
        let mut rng = rng_for(cfg);
        let v = ds.num_items();
        self.last_emb = Some(Embedding::new(
            &mut self.store,
            "fpmc.last",
            v,
            cfg.dim,
            &mut rng,
        ));
        self.item_emb = Some(Embedding::new(
            &mut self.store,
            "fpmc.item",
            v,
            cfg.dim,
            &mut rng,
        ));
        self.bias = Some(self.store.add("fpmc.bias", Tensor::zeros(1, v)));
        let (last_emb, item_emb, bias) = (
            self.last_emb.unwrap(),
            self.item_emb.unwrap(),
            self.bias.unwrap(),
        );
        let mut opt = Adam::new(cfg.lr);
        let mut tape = Tape::new();
        let pool = WorkerPool::new(1);
        for _ in 0..cfg.epochs {
            let mut order: Vec<usize> = (0..ds.train.len()).collect();
            use rand::seq::SliceRandom;
            order.shuffle(&mut rng);
            if cfg.max_sessions > 0 {
                order.truncate(cfg.max_sessions);
            }
            for chunk in order.chunks(16) {
                let mut lasts = Vec::new();
                let mut targets = Vec::new();
                for &si in chunk {
                    let s = &ds.train[si];
                    for w in s.items.windows(2) {
                        lasts.push(w[0]);
                        targets.push(w[1]);
                    }
                }
                if lasts.is_empty() {
                    continue;
                }
                tape.grad_step(&mut self.store, |tape, st| {
                    let l = last_emb.forward(tape, st, &lasts);
                    let table = item_emb.table(tape, st);
                    let logits = tape.matmul_nt(l, table);
                    let b = tape.param(st, bias);
                    let logits = tape.add_row(logits, b);
                    tape.cross_entropy(logits, &targets)
                });
                opt.step(&mut self.store, &pool);
            }
        }
    }

    fn score_prefix(&self, _ds: &SessionDataset, items: &[usize], _queries: &[usize]) -> Vec<f32> {
        let last = *items.last().expect("non-empty prefix");
        let mut tape = Tape::new();
        let l = self
            .last_emb
            .unwrap()
            .forward(&mut tape, &self.store, &[last]);
        let table = self.item_emb.unwrap().table(&mut tape, &self.store);
        let logits = tape.matmul_nt(l, table);
        let b = tape.param(&self.store, self.bias.unwrap());
        let logits = tape.add_row(logits, b);
        tape.value(logits).row_slice(0).to_vec()
    }
}

/// Run a GRU over an item prefix, returning all hidden states `[T×d]`
/// stacked on the tape.
fn gru_hidden_states(
    emb: Embedding,
    gru: GruCell,
    dim: usize,
    tape: &mut Tape,
    store: &ParamStore,
    items: &[usize],
) -> Vec<Var> {
    let xs: Vec<Var> = items
        .iter()
        .map(|&i| emb.forward(tape, store, &[i]))
        .collect();
    let h0 = tape.input(Tensor::zeros(1, dim));
    gru.run(tape, store, &xs, h0)
}

/// GRU4Rec (Hidasi et al. 2016): item embeddings → GRU → hidden state →
/// full-softmax scores with tied output embeddings, trained on every
/// position of every session.
pub struct Gru4Rec {
    store: ParamStore,
    emb: Option<Embedding>,
    gru: Option<GruCell>,
    dim: usize,
}

impl Gru4Rec {
    /// Untrained model.
    pub fn new() -> Self {
        Gru4Rec {
            store: ParamStore::new(),
            emb: None,
            gru: None,
            dim: 0,
        }
    }
}

impl Default for Gru4Rec {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionModel for Gru4Rec {
    fn name(&self) -> &'static str {
        "GRU4Rec"
    }

    fn fit(&mut self, ds: &SessionDataset, cfg: &TrainConfig) {
        let mut rng = rng_for(cfg);
        self.dim = cfg.dim;
        self.emb = Some(Embedding::new(
            &mut self.store,
            "gru.emb",
            ds.num_items(),
            cfg.dim,
            &mut rng,
        ));
        self.gru = Some(GruCell::new(
            &mut self.store,
            "gru.cell",
            cfg.dim,
            cfg.dim,
            &mut rng,
        ));
        let (emb, gru, dim) = (self.emb.unwrap(), self.gru.unwrap(), self.dim);
        let mut opt = Adam::new(cfg.lr);
        let mut tape = Tape::new();
        let pool = WorkerPool::new(1);
        for _ in 0..cfg.epochs {
            let mut order: Vec<usize> = (0..ds.train.len()).collect();
            use rand::seq::SliceRandom;
            order.shuffle(&mut rng);
            if cfg.max_sessions > 0 {
                order.truncate(cfg.max_sessions);
            }
            order.retain(|&si| ds.train[si].items.len() >= 2);
            for &si in &order {
                let s = &ds.train[si];
                tape.grad_step(&mut self.store, |tape, st| {
                    let hs =
                        gru_hidden_states(emb, gru, dim, tape, st, &s.items[..s.items.len() - 1]);
                    // stack hidden states via repeated concat-free gather trick:
                    // score each state against the table and stack losses
                    let table = emb.table(tape, st);
                    let targets: Vec<usize> = s.items[1..].to_vec();
                    let mut total: Option<Var> = None;
                    for (h, &t) in hs.iter().zip(targets.iter()) {
                        let logits = tape.matmul_nt(*h, table);
                        let loss = tape.cross_entropy(logits, &[t]);
                        total = Some(match total {
                            Some(acc) => tape.add(acc, loss),
                            None => loss,
                        });
                    }
                    tape.scale(total.unwrap(), 1.0 / targets.len() as f32)
                });
                opt.step(&mut self.store, &pool);
            }
        }
    }

    fn score_prefix(&self, _ds: &SessionDataset, items: &[usize], _queries: &[usize]) -> Vec<f32> {
        let mut tape = Tape::new();
        let hs = gru_hidden_states(
            self.emb.unwrap(),
            self.gru.unwrap(),
            self.dim,
            &mut tape,
            &self.store,
            items,
        );
        let table = self.emb.unwrap().table(&mut tape, &self.store);
        let logits = tape.matmul_nt(*hs.last().unwrap(), table);
        tape.value(logits).row_slice(0).to_vec()
    }
}

/// STAMP's session representation: attention over the history queried by
/// the *last* item plus the session mean, combined through two MLP
/// "cells".
fn stamp_rep(
    emb: Embedding,
    mlp_a: Linear,
    mlp_b: Linear,
    tape: &mut Tape,
    store: &ParamStore,
    items: &[usize],
) -> Var {
    let seq = emb.forward(tape, store, items); // [T×d]
    let last = emb.forward(tape, store, &[*items.last().unwrap()]);
    let mean = tape.mean_rows(seq);
    // attention with (last + mean) as the query
    let q = tape.add(last, mean);
    let ma = attention_pool(tape, q, seq);
    let hs = mlp_a.forward(tape, store, ma);
    let hs = tape.tanh(hs);
    let ht = mlp_b.forward(tape, store, last);
    let ht = tape.tanh(ht);
    tape.mul(hs, ht)
}

/// STAMP (Liu et al. 2018): short-term attention/memory priority — an
/// attention over the history queried by the *last* item plus the session
/// mean, combined through two MLP "cells", scored trilinearly against the
/// item table.
pub struct Stamp {
    store: ParamStore,
    emb: Option<Embedding>,
    mlp_a: Option<Linear>,
    mlp_b: Option<Linear>,
}

impl Stamp {
    /// Untrained model.
    pub fn new() -> Self {
        Stamp {
            store: ParamStore::new(),
            emb: None,
            mlp_a: None,
            mlp_b: None,
        }
    }
}

impl Default for Stamp {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionModel for Stamp {
    fn name(&self) -> &'static str {
        "STAMP"
    }

    fn fit(&mut self, ds: &SessionDataset, cfg: &TrainConfig) {
        let mut rng = rng_for(cfg);
        self.emb = Some(Embedding::new(
            &mut self.store,
            "stamp.emb",
            ds.num_items(),
            cfg.dim,
            &mut rng,
        ));
        self.mlp_a = Some(Linear::new(
            &mut self.store,
            "stamp.a",
            cfg.dim,
            cfg.dim,
            &mut rng,
        ));
        self.mlp_b = Some(Linear::new(
            &mut self.store,
            "stamp.b",
            cfg.dim,
            cfg.dim,
            &mut rng,
        ));
        let (emb, mlp_a, mlp_b) = (self.emb.unwrap(), self.mlp_a.unwrap(), self.mlp_b.unwrap());
        let mut opt = Adam::new(cfg.lr);
        let mut tape = Tape::new();
        let pool = WorkerPool::new(1);
        for _ in 0..cfg.epochs {
            let instances = prefix_instances(ds, cfg, &mut rng);
            for &(si, len) in &instances {
                let s = &ds.train[si];
                let prefix = &s.items[..len - 1];
                let target = s.items[len - 1];
                tape.grad_step(&mut self.store, |tape, st| {
                    let rep = stamp_rep(emb, mlp_a, mlp_b, tape, st, prefix);
                    let table = emb.table(tape, st);
                    let logits = tape.matmul_nt(rep, table);
                    tape.cross_entropy(logits, &[target])
                });
                opt.step(&mut self.store, &pool);
            }
        }
    }

    fn score_prefix(&self, _ds: &SessionDataset, items: &[usize], _queries: &[usize]) -> Vec<f32> {
        let mut tape = Tape::new();
        let rep = stamp_rep(
            self.emb.unwrap(),
            self.mlp_a.unwrap(),
            self.mlp_b.unwrap(),
            &mut tape,
            &self.store,
            items,
        );
        let table = self.emb.unwrap().table(&mut tape, &self.store);
        let logits = tape.matmul_nt(rep, table);
        tape.value(logits).row_slice(0).to_vec()
    }
}

/// CSRM's session representation: inner GRU memory plus attention over a
/// learned matrix of latent session prototypes, fused through a linear
/// gate.
#[allow(clippy::too_many_arguments)]
fn csrm_rep(
    emb: Embedding,
    gru: GruCell,
    memory: ParamId,
    fuse: Linear,
    dim: usize,
    tape: &mut Tape,
    store: &ParamStore,
    items: &[usize],
) -> Var {
    let hs = gru_hidden_states(emb, gru, dim, tape, store, items);
    let inner = *hs.last().unwrap();
    let mem = tape.param(store, memory);
    let outer = attention_pool(tape, inner, mem);
    let cat = tape.concat_cols(inner, outer);
    fuse.forward(tape, store, cat)
}

/// CSRM (Wang et al. 2019): an inner memory encoder (GRU over the session)
/// plus an *outer* memory — attention over a learned matrix of latent
/// session prototypes — fused through a linear gate.
pub struct Csrm {
    store: ParamStore,
    emb: Option<Embedding>,
    gru: Option<GruCell>,
    memory: Option<ParamId>,
    fuse: Option<Linear>,
    dim: usize,
}

impl Csrm {
    /// Untrained model with `slots` memory prototypes.
    pub fn new() -> Self {
        Csrm {
            store: ParamStore::new(),
            emb: None,
            gru: None,
            memory: None,
            fuse: None,
            dim: 0,
        }
    }
}

impl Default for Csrm {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionModel for Csrm {
    fn name(&self) -> &'static str {
        "CSRM"
    }

    fn fit(&mut self, ds: &SessionDataset, cfg: &TrainConfig) {
        let mut rng = rng_for(cfg);
        self.dim = cfg.dim;
        self.emb = Some(Embedding::new(
            &mut self.store,
            "csrm.emb",
            ds.num_items(),
            cfg.dim,
            &mut rng,
        ));
        self.gru = Some(GruCell::new(
            &mut self.store,
            "csrm.gru",
            cfg.dim,
            cfg.dim,
            &mut rng,
        ));
        self.memory = Some(self.store.add(
            "csrm.memory",
            cosmo_nn::init::xavier_uniform(16, cfg.dim, &mut rng),
        ));
        self.fuse = Some(Linear::new(
            &mut self.store,
            "csrm.fuse",
            2 * cfg.dim,
            cfg.dim,
            &mut rng,
        ));
        let (emb, gru, memory, fuse, dim) = (
            self.emb.unwrap(),
            self.gru.unwrap(),
            self.memory.unwrap(),
            self.fuse.unwrap(),
            self.dim,
        );
        let mut opt = Adam::new(cfg.lr);
        let mut tape = Tape::new();
        let pool = WorkerPool::new(1);
        for _ in 0..cfg.epochs {
            let instances = prefix_instances(ds, cfg, &mut rng);
            for &(si, len) in &instances {
                let s = &ds.train[si];
                let prefix = &s.items[..len - 1];
                let target = s.items[len - 1];
                tape.grad_step(&mut self.store, |tape, st| {
                    let rep = csrm_rep(emb, gru, memory, fuse, dim, tape, st, prefix);
                    let table = emb.table(tape, st);
                    let logits = tape.matmul_nt(rep, table);
                    tape.cross_entropy(logits, &[target])
                });
                opt.step(&mut self.store, &pool);
            }
        }
    }

    fn score_prefix(&self, _ds: &SessionDataset, items: &[usize], _queries: &[usize]) -> Vec<f32> {
        let mut tape = Tape::new();
        let rep = csrm_rep(
            self.emb.unwrap(),
            self.gru.unwrap(),
            self.memory.unwrap(),
            self.fuse.unwrap(),
            self.dim,
            &mut tape,
            &self.store,
            items,
        );
        let table = self.emb.unwrap().table(&mut tape, &self.store);
        let logits = tape.matmul_nt(rep, table);
        tape.value(logits).row_slice(0).to_vec()
    }
}

// rand::Rng is used by prefix_instances callers indirectly; silence lint
// in case of cfg changes.
#[allow(unused)]
fn _rng_assert(r: &mut impl Rng) {}
