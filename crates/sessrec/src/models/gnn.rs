//! Graph models: SR-GNN, GC-SAN, GCE-GNN and COSMO-GNN (§4.2.2–§4.2.3).
//!
//! The shared fit loop ([`gnn_fit_loop!`]) owns one reused [`Tape`] and
//! takes one [`Tape::grad_step`] plus one optimizer step per prefix
//! instance.

use super::{global_cooccurrence, prefix_instances, rng_for, SessionModel, TrainConfig};
use crate::dataset::SessionDataset;
use cosmo_exec::WorkerPool;
use cosmo_nn::layers::{attention_pool, Embedding, Linear, Mlp};
use cosmo_nn::opt::Adam;
use cosmo_nn::{ParamStore, Tape, Tensor, Var};
use cosmo_text::FxHashMap;

/// Build the directed session graph: unique nodes, per-position alias, and
/// the in/out normalised adjacency matrices of SR-GNN.
pub fn session_graph(items: &[usize]) -> (Vec<usize>, Vec<usize>, Tensor, Tensor) {
    let mut nodes: Vec<usize> = Vec::new();
    let mut index: FxHashMap<usize, usize> = FxHashMap::default();
    let mut alias = Vec::with_capacity(items.len());
    for &it in items {
        let idx = *index.entry(it).or_insert_with(|| {
            nodes.push(it);
            nodes.len() - 1
        });
        alias.push(idx);
    }
    let n = nodes.len();
    let mut a_out = Tensor::zeros(n, n);
    for w in alias.windows(2) {
        if w[0] != w[1] {
            let v = a_out.get(w[0], w[1]);
            a_out.set(w[0], w[1], v + 1.0);
        }
    }
    let a_in = normalize_rows(&a_out.transpose());
    let a_out = normalize_rows(&a_out);
    (nodes, alias, a_in, a_out)
}

fn normalize_rows(t: &Tensor) -> Tensor {
    let mut out = t.clone();
    for r in 0..out.rows() {
        let sum: f32 = out.row_slice(r).iter().sum();
        if sum > 0.0 {
            for x in out.row_slice_mut(r) {
                *x /= sum;
            }
        }
    }
    out
}

/// The graph propagation shared by SR-GNN / GC-SAN / GCE-GNN: residual
/// message passing `H ← H + tanh(concat[A_in·H·W_in, A_out·H·W_out]·W_m)`
/// over the session graph's nodes. (SR-GNN's original GRU gate is replaced
/// by the residual form, which preserves item identity at initialisation —
/// essential at this data scale; the learned message path plays the same
/// structural role.)
struct GgnnCore {
    emb: Embedding,
    w_in: Linear,
    w_out: Linear,
    merge: Linear,
    readout_combine: Linear,
    dim: usize,
}

impl GgnnCore {
    fn new(
        store: &mut ParamStore,
        name: &str,
        v: usize,
        dim: usize,
        rng: &mut impl rand::Rng,
    ) -> Self {
        GgnnCore {
            emb: Embedding::new(store, &format!("{name}.emb"), v, dim, rng),
            w_in: Linear::new(store, &format!("{name}.win"), dim, dim, rng),
            w_out: Linear::new(store, &format!("{name}.wout"), dim, dim, rng),
            merge: Linear::new(store, &format!("{name}.merge"), 2 * dim, dim, rng),
            readout_combine: Linear::new(store, &format!("{name}.combine"), 3 * dim, dim, rng),
            dim,
        }
    }

    /// Propagated node representations `[n×d]`.
    fn propagate(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        nodes: &[usize],
        a_in: &Tensor,
        a_out: &Tensor,
        steps: usize,
    ) -> Var {
        let mut h = self.emb.forward(tape, store, nodes);
        let ain = tape.input(a_in.clone());
        let aout = tape.input(a_out.clone());
        for _ in 0..steps {
            let hw_in = self.w_in.forward(tape, store, h);
            let hw_out = self.w_out.forward(tape, store, h);
            let m_in = tape.matmul(ain, hw_in);
            let m_out = tape.matmul(aout, hw_out);
            let a = tape.concat_cols(m_in, m_out);
            let msg = self.merge.forward(tape, store, a);
            let msg = tape.tanh(msg);
            let msg = tape.scale(msg, 0.4);
            h = tape.add(h, msg);
        }
        h
    }

    /// SR-GNN readout: attention over nodes queried by the last item's
    /// node, combined with the last item representation and the session
    /// mean (soft global preference).
    fn readout(&self, tape: &mut Tape, store: &ParamStore, h: Var, alias: &[usize]) -> Var {
        let last = tape.select_rows(h, &[*alias.last().unwrap()]);
        let mean = tape.mean_rows(h);
        let q = tape.add(last, mean);
        let pooled = attention_pool(tape, q, h);
        let a = tape.concat_cols(pooled, last);
        let cat = tape.concat_cols(a, mean);
        self.readout_combine.forward(tape, store, cat)
    }
}

/// SR-GNN session representation: propagate over the session graph, then
/// the standard attention readout.
fn ggnn_rep(core: &GgnnCore, store: &ParamStore, tape: &mut Tape, items: &[usize]) -> Var {
    let (nodes, alias, a_in, a_out) = session_graph(items);
    let h = core.propagate(tape, store, &nodes, &a_in, &a_out, 1);
    core.readout(tape, store, h, &alias)
}

/// Global aggregation matrix for a session's nodes: `[n×V]` rows of
/// neighbour weights, multiplied against the full item table.
fn global_matrix(global_nbrs: &[Vec<(usize, f32)>], nodes: &[usize], v: usize) -> Tensor {
    let mut g = Tensor::zeros(nodes.len(), v);
    for (r, &node) in nodes.iter().enumerate() {
        for &(nbr, w) in &global_nbrs[node] {
            g.set(r, nbr, w);
        }
    }
    g
}

macro_rules! gnn_fit_loop {
    ($self:ident, $ds:ident, $cfg:ident, $rng:ident, $core:ident, $rep_fn:expr) => {{
        let mut opt = Adam::new($cfg.lr);
        let mut tape = Tape::new();
        let pool = WorkerPool::new(1);
        for _ in 0..$cfg.epochs {
            let instances = prefix_instances($ds, $cfg, &mut $rng);
            for &(si, len) in &instances {
                let s = &$ds.train[si];
                let prefix = &s.items[..len - 1];
                let queries = &s.queries[..len];
                let target = s.items[len - 1];
                tape.grad_step(&mut $self.store, |tape, st| {
                    // $rep_fn is a macro argument, not a literal closure
                    #[allow(clippy::redundant_closure_call)]
                    let rep: Var = ($rep_fn)(tape, st, $ds, prefix, queries);
                    let table = $core.emb.table(tape, st);
                    let logits = tape.matmul_nt(rep, table);
                    tape.cross_entropy(logits, &[target])
                });
                opt.step(&mut $self.store, &pool);
            }
        }
    }};
}

/// SR-GNN (Wu et al. 2019): the first GNN session recommender — gated
/// graph propagation over the session graph with attention readout.
pub struct SrGnn {
    store: ParamStore,
    core: Option<GgnnCore>,
}

impl SrGnn {
    /// Untrained model.
    pub fn new() -> Self {
        SrGnn {
            store: ParamStore::new(),
            core: None,
        }
    }
}

impl Default for SrGnn {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionModel for SrGnn {
    fn name(&self) -> &'static str {
        "SRGNN"
    }

    fn fit(&mut self, ds: &SessionDataset, cfg: &TrainConfig) {
        let mut rng = rng_for(cfg);
        self.core = Some(GgnnCore::new(
            &mut self.store,
            "srgnn",
            ds.num_items(),
            cfg.dim,
            &mut rng,
        ));
        let core = self.core.as_ref().unwrap();
        gnn_fit_loop!(
            self,
            ds,
            cfg,
            rng,
            core,
            |tape: &mut Tape,
             st: &ParamStore,
             _ds: &SessionDataset,
             items: &[usize],
             _q: &[usize]| { ggnn_rep(core, st, tape, items) }
        );
    }

    fn score_prefix(&self, _ds: &SessionDataset, items: &[usize], _queries: &[usize]) -> Vec<f32> {
        let core = self.core.as_ref().unwrap();
        let mut tape = Tape::new();
        let rep = ggnn_rep(core, &self.store, &mut tape, items);
        let table = core.emb.table(&mut tape, &self.store);
        let logits = tape.matmul_nt(rep, table);
        tape.value(logits).row_slice(0).to_vec()
    }
}

/// GC-SAN session representation: SR-GNN propagation followed by a
/// single-head self-attention block over the position sequence,
/// residually combined.
fn gcsan_rep(
    core: &GgnnCore,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    store: &ParamStore,
    tape: &mut Tape,
    items: &[usize],
) -> Var {
    let (nodes, alias, a_in, a_out) = session_graph(items);
    let h = core.propagate(tape, store, &nodes, &a_in, &a_out, 1);
    // sequence view + single-head self-attention
    let seq = tape.select_rows(h, &alias);
    let q = wq.forward(tape, store, seq);
    let k = wk.forward(tape, store, seq);
    let v = wv.forward(tape, store, seq);
    let scores = tape.matmul_nt(q, k);
    let scaled = tape.scale(scores, 1.0 / (core.dim as f32).sqrt());
    let attn = tape.softmax(scaled);
    let ctx = tape.matmul(attn, v);
    let ctx = tape.scale(ctx, 0.5);
    let residual = tape.add(ctx, seq);
    // readout: last position + attention pool + sequence mean
    let last = tape.select_rows(residual, &[alias.len() - 1]);
    let mean = tape.mean_rows(residual);
    let q = tape.add(last, mean);
    let pooled = attention_pool(tape, q, residual);
    let a = tape.concat_cols(pooled, last);
    let cat = tape.concat_cols(a, mean);
    core.readout_combine.forward(tape, store, cat)
}

/// GC-SAN (Xu et al. 2019): SR-GNN propagation followed by a self-attention
/// block over the position sequence, residually combined.
pub struct GcSan {
    store: ParamStore,
    core: Option<GgnnCore>,
    wq: Option<Linear>,
    wk: Option<Linear>,
    wv: Option<Linear>,
}

impl GcSan {
    /// Untrained model.
    pub fn new() -> Self {
        GcSan {
            store: ParamStore::new(),
            core: None,
            wq: None,
            wk: None,
            wv: None,
        }
    }
}

impl Default for GcSan {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionModel for GcSan {
    fn name(&self) -> &'static str {
        "GC-SAN"
    }

    fn fit(&mut self, ds: &SessionDataset, cfg: &TrainConfig) {
        let mut rng = rng_for(cfg);
        self.core = Some(GgnnCore::new(
            &mut self.store,
            "gcsan",
            ds.num_items(),
            cfg.dim,
            &mut rng,
        ));
        self.wq = Some(Linear::new(
            &mut self.store,
            "gcsan.wq",
            cfg.dim,
            cfg.dim,
            &mut rng,
        ));
        self.wk = Some(Linear::new(
            &mut self.store,
            "gcsan.wk",
            cfg.dim,
            cfg.dim,
            &mut rng,
        ));
        self.wv = Some(Linear::new(
            &mut self.store,
            "gcsan.wv",
            cfg.dim,
            cfg.dim,
            &mut rng,
        ));
        let core = self.core.as_ref().unwrap();
        let (wq, wk, wv) = (self.wq.unwrap(), self.wk.unwrap(), self.wv.unwrap());
        gnn_fit_loop!(
            self,
            ds,
            cfg,
            rng,
            core,
            |tape: &mut Tape,
             st: &ParamStore,
             _ds: &SessionDataset,
             items: &[usize],
             _q: &[usize]| { gcsan_rep(core, wq, wk, wv, st, tape, items) }
        );
    }

    fn score_prefix(&self, _ds: &SessionDataset, items: &[usize], _queries: &[usize]) -> Vec<f32> {
        let core = self.core.as_ref().unwrap();
        let mut tape = Tape::new();
        let rep = gcsan_rep(
            core,
            self.wq.unwrap(),
            self.wk.unwrap(),
            self.wv.unwrap(),
            &self.store,
            &mut tape,
            items,
        );
        let table = core.emb.table(&mut tape, &self.store);
        let logits = tape.matmul_nt(rep, table);
        tape.value(logits).row_slice(0).to_vec()
    }
}

/// GCE-GNN session representation: session-level propagation fused with
/// the global co-occurrence aggregation, then the standard readout.
fn gce_rep(
    core: &GgnnCore,
    global_proj: Linear,
    global_nbrs: &[Vec<(usize, f32)>],
    store: &ParamStore,
    tape: &mut Tape,
    items: &[usize],
) -> Var {
    let (nodes, alias, a_in, a_out) = session_graph(items);
    let h_sess = core.propagate(tape, store, &nodes, &a_in, &a_out, 1);
    // global-level aggregation
    let table = core.emb.table(tape, store);
    let g = tape.input(global_matrix(global_nbrs, &nodes, core.emb.vocab()));
    let h_glob_raw = tape.matmul(g, table);
    let h_glob = global_proj.forward(tape, store, h_glob_raw);
    let h = tape.add(h_sess, h_glob);
    core.readout(tape, store, h, &alias)
}

/// GCE-GNN (Wang et al. 2020): session-level propagation fused with a
/// *global* co-occurrence graph aggregation (neighbourhood statistics
/// pooled across all training sessions).
pub struct GceGnn {
    store: ParamStore,
    core: Option<GgnnCore>,
    global_proj: Option<Linear>,
    global_nbrs: Vec<Vec<(usize, f32)>>,
}

impl GceGnn {
    /// Untrained model.
    pub fn new() -> Self {
        GceGnn {
            store: ParamStore::new(),
            core: None,
            global_proj: None,
            global_nbrs: Vec::new(),
        }
    }
}

impl Default for GceGnn {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionModel for GceGnn {
    fn name(&self) -> &'static str {
        "GCE-GNN"
    }

    fn fit(&mut self, ds: &SessionDataset, cfg: &TrainConfig) {
        let mut rng = rng_for(cfg);
        self.core = Some(GgnnCore::new(
            &mut self.store,
            "gce",
            ds.num_items(),
            cfg.dim,
            &mut rng,
        ));
        self.global_proj = Some(Linear::new(
            &mut self.store,
            "gce.glob",
            cfg.dim,
            cfg.dim,
            &mut rng,
        ));
        self.global_nbrs = global_cooccurrence(ds, 8);
        let core = self.core.as_ref().unwrap();
        let global_proj = self.global_proj.unwrap();
        let global_nbrs = &self.global_nbrs;
        gnn_fit_loop!(
            self,
            ds,
            cfg,
            rng,
            core,
            |tape: &mut Tape,
             st: &ParamStore,
             _ds: &SessionDataset,
             items: &[usize],
             _q: &[usize]| { gce_rep(core, global_proj, global_nbrs, st, tape, items) }
        );
    }

    fn score_prefix(&self, _ds: &SessionDataset, items: &[usize], _queries: &[usize]) -> Vec<f32> {
        let core = self.core.as_ref().unwrap();
        let mut tape = Tape::new();
        let rep = gce_rep(
            core,
            self.global_proj.unwrap(),
            &self.global_nbrs,
            &self.store,
            &mut tape,
            items,
        );
        let table = core.emb.table(&mut tape, &self.store);
        let logits = tape.matmul_nt(rep, table);
        tape.value(logits).row_slice(0).to_vec()
    }
}

/// Per-query knowledge embedding matrix `[T×knowledge_dim]` for a
/// session's query sequence (zero rows where knowledge is missing).
fn knowledge_matrix(ds: &SessionDataset, queries: &[usize], knowledge_dim: usize) -> Tensor {
    let mut t = Tensor::zeros(queries.len(), knowledge_dim);
    for (r, &q) in queries.iter().enumerate() {
        let k = &ds.query_knowledge[q];
        if k.len() == knowledge_dim {
            t.row_slice_mut(r).copy_from_slice(k);
        }
    }
    t
}

/// COSMO-GNN session representation: GCE-GNN style fusion plus the
/// knowledge-conditioned readout of §4.2.3.
#[allow(clippy::too_many_arguments)]
fn cosmo_rep(
    core: &GgnnCore,
    global_proj: Linear,
    knowledge_mlp: Mlp,
    fuse: Linear,
    global_nbrs: &[Vec<(usize, f32)>],
    knowledge_dim: usize,
    store: &ParamStore,
    tape: &mut Tape,
    ds: &SessionDataset,
    items: &[usize],
    queries: &[usize],
) -> Var {
    let (nodes, alias, a_in, a_out) = session_graph(items);
    let h_sess = core.propagate(tape, store, &nodes, &a_in, &a_out, 1);
    let table = core.emb.table(tape, store);
    let g = tape.input(global_matrix(global_nbrs, &nodes, core.emb.vocab()));
    let h_glob_raw = tape.matmul(g, table);
    let h_glob = global_proj.forward(tape, store, h_glob_raw);
    let h = tape.add(h_sess, h_glob);
    // knowledge-conditioned readout: the current step's transformed
    // knowledge embedding joins the attention query, steering the
    // readout towards items serving the active intent
    let know_pre = tape.input(knowledge_matrix(ds, queries, knowledge_dim));
    let ghat_pre = knowledge_mlp.forward(tape, store, know_pre);
    let glast_pre = tape.select_rows(ghat_pre, &[queries.len() - 1]);
    let last_n = tape.select_rows(h, &[*alias.last().unwrap()]);
    let mean_n = tape.mean_rows(h);
    let q0 = tape.add(last_n, mean_n);
    let q = tape.add(q0, glast_pre);
    let pooled = attention_pool(tape, q, h);
    let a0 = tape.concat_cols(pooled, last_n);
    let cat0 = tape.concat_cols(a0, mean_n);
    let base = core.readout_combine.forward(tape, store, cat0);
    // per-step knowledge embeddings g_t → MLP → ĝ_t (§4.2.3: the same
    // LM vectorises the generated knowledge; a two-layer perceptron
    // aligns it with the GNN feature space)
    // average pooling over steps plus the current (last) step
    let gmean = tape.mean_rows(ghat_pre);
    let glast = tape.select_rows(ghat_pre, &[queries.len() - 1]);
    let kno = tape.concat_cols(gmean, glast);
    let all = tape.concat_cols(base, kno);
    fuse.forward(tape, store, all)
}

/// COSMO-GNN (§4.2.3): GCE-GNN extended with COSMO knowledge — each step's
/// item representation is concatenated with the (MLP-transformed) COSMO-LM
/// embedding of the knowledge generated for its `(query, item)` pair; the
/// session representation is the average pooling over the concatenated
/// step representations.
pub struct CosmoGnn {
    store: ParamStore,
    core: Option<GgnnCore>,
    global_proj: Option<Linear>,
    knowledge_mlp: Option<Mlp>,
    fuse: Option<Linear>,
    global_nbrs: Vec<Vec<(usize, f32)>>,
    knowledge_dim: usize,
}

impl CosmoGnn {
    /// Untrained model.
    pub fn new() -> Self {
        CosmoGnn {
            store: ParamStore::new(),
            core: None,
            global_proj: None,
            knowledge_mlp: None,
            fuse: None,
            global_nbrs: Vec::new(),
            knowledge_dim: 0,
        }
    }
}

impl Default for CosmoGnn {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionModel for CosmoGnn {
    fn name(&self) -> &'static str {
        "COSMO-GNN"
    }

    fn fit(&mut self, ds: &SessionDataset, cfg: &TrainConfig) {
        let mut rng = rng_for(cfg);
        self.knowledge_dim = ds
            .query_knowledge
            .iter()
            .map(|v| v.len())
            .find(|&l| l > 0)
            .expect("COSMO-GNN requires attach_knowledge() first");
        self.global_nbrs = global_cooccurrence(ds, 8);
        self.core = Some(GgnnCore::new(
            &mut self.store,
            "cosmo",
            ds.num_items(),
            cfg.dim,
            &mut rng,
        ));
        self.global_proj = Some(Linear::new(
            &mut self.store,
            "cosmo.glob",
            cfg.dim,
            cfg.dim,
            &mut rng,
        ));
        self.knowledge_mlp = Some(Mlp::new(
            &mut self.store,
            "cosmo.know",
            self.knowledge_dim,
            cfg.dim,
            cfg.dim,
            &mut rng,
        ));
        self.fuse = Some(Linear::new(
            &mut self.store,
            "cosmo.fuse",
            3 * cfg.dim,
            cfg.dim,
            &mut rng,
        ));
        let core = self.core.as_ref().unwrap();
        let (global_proj, knowledge_mlp, fuse) = (
            self.global_proj.unwrap(),
            self.knowledge_mlp.unwrap(),
            self.fuse.unwrap(),
        );
        let global_nbrs = &self.global_nbrs;
        let knowledge_dim = self.knowledge_dim;
        gnn_fit_loop!(
            self,
            ds,
            cfg,
            rng,
            core,
            |tape: &mut Tape,
             st: &ParamStore,
             ds: &SessionDataset,
             items: &[usize],
             q: &[usize]| {
                cosmo_rep(
                    core,
                    global_proj,
                    knowledge_mlp,
                    fuse,
                    global_nbrs,
                    knowledge_dim,
                    st,
                    tape,
                    ds,
                    items,
                    q,
                )
            }
        );
    }

    fn score_prefix(&self, ds: &SessionDataset, items: &[usize], queries: &[usize]) -> Vec<f32> {
        let core = self.core.as_ref().unwrap();
        let mut tape = Tape::new();
        let rep = cosmo_rep(
            core,
            self.global_proj.unwrap(),
            self.knowledge_mlp.unwrap(),
            self.fuse.unwrap(),
            &self.global_nbrs,
            self.knowledge_dim,
            &self.store,
            &mut tape,
            ds,
            items,
            queries,
        );
        let table = core.emb.table(&mut tape, &self.store);
        let logits = tape.matmul_nt(rep, table);
        tape.value(logits).row_slice(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_graph_structure() {
        // session 3 → 5 → 3 → 7
        let (nodes, alias, a_in, a_out) = session_graph(&[3, 5, 3, 7]);
        assert_eq!(nodes, vec![3, 5, 7]);
        assert_eq!(alias, vec![0, 1, 0, 2]);
        // out edges: 3→5, 5→3, 3→7; row for node 0 (item 3): edges to 5 and 7
        let row0: f32 = a_out.row_slice(0).iter().sum();
        assert!((row0 - 1.0).abs() < 1e-6, "out rows normalised");
        // in adjacency row for node 0 (item 3): from 5
        assert!(a_in.get(0, 1) > 0.0);
    }

    #[test]
    fn repeated_item_sessions_supported() {
        let (nodes, alias, a_in, a_out) = session_graph(&[1, 1, 1]);
        assert_eq!(nodes, vec![1]);
        assert_eq!(alias, vec![0, 0, 0]);
        assert_eq!(a_in.shape(), (1, 1));
        assert_eq!(a_out.get(0, 0), 0.0, "self loops excluded");
    }
}
