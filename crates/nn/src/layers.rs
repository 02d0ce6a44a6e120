//! Reusable model components built on the autograd tape.

use crate::init;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::Rng;

/// Affine map `x·W + b` with `W: [in×out]`, `b: [1×out]`.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Register a new layer's parameters in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.add(
            &format!("{name}.w"),
            init::xavier_uniform(in_dim, out_dim, rng),
        );
        let b = store.add(
            &format!("{name}.b"),
            crate::tensor::Tensor::zeros(1, out_dim),
        );
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Apply to a `[n×in]` batch.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        debug_assert_eq!(tape.value(x).cols(), self.in_dim, "Linear input width");
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let h = tape.matmul(x, w);
        tape.add_row(h, b)
    }

    /// The raw `(W, b)` tensors, for tape-free inference forwards
    /// ([`crate::infer::linear_into`]).
    pub fn params<'a>(&self, store: &'a ParamStore) -> (&'a Tensor, &'a Tensor) {
        (store.value(self.w), store.value(self.b))
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }
}

/// Token/item embedding table `[vocab×dim]` with row-gather lookup.
#[derive(Debug, Clone, Copy)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Register a new table.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let table = store.add(name, init::embedding(vocab, dim, rng));
        Embedding { table, vocab, dim }
    }

    /// Look up a batch of ids → `[n×dim]`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, ids: &[usize]) -> Var {
        tape.gather(store, self.table, ids)
    }

    /// The whole table as a tape node (for full-vocabulary scoring).
    pub fn table(&self, tape: &mut Tape, store: &ParamStore) -> Var {
        tape.param(store, self.table)
    }

    /// The raw table tensor, for tape-free inference forwards
    /// ([`crate::infer::embed_bag_into`]).
    pub fn table_value<'a>(&self, store: &'a ParamStore) -> &'a Tensor {
        store.value(self.table)
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// Gated recurrent unit cell (Cho et al. 2014), the building block of
/// GRU4Rec and of the session encoders.
#[derive(Debug, Clone, Copy)]
pub struct GruCell {
    wz: ParamId,
    uz: ParamId,
    bz: ParamId,
    wr: ParamId,
    ur: ParamId,
    br: ParamId,
    wh: ParamId,
    uh: ParamId,
    bh: ParamId,
    in_dim: usize,
    hidden: usize,
}

impl GruCell {
    /// Register a new cell's nine parameter tensors.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        fn weight(
            s: &mut ParamStore,
            name: &str,
            suffix: &str,
            r: usize,
            c: usize,
            rng: &mut impl Rng,
        ) -> ParamId {
            s.add(&format!("{name}.{suffix}"), init::xavier_uniform(r, c, rng))
        }
        let wz = weight(store, name, "wz", in_dim, hidden, rng);
        let uz = weight(store, name, "uz", hidden, hidden, rng);
        let bz = store.add(
            &format!("{name}.bz"),
            crate::tensor::Tensor::zeros(1, hidden),
        );
        let wr = weight(store, name, "wr", in_dim, hidden, rng);
        let ur = weight(store, name, "ur", hidden, hidden, rng);
        let br = store.add(
            &format!("{name}.br"),
            crate::tensor::Tensor::zeros(1, hidden),
        );
        let wh = weight(store, name, "wh", in_dim, hidden, rng);
        let uh = weight(store, name, "uh", hidden, hidden, rng);
        let bh = store.add(
            &format!("{name}.bh"),
            crate::tensor::Tensor::zeros(1, hidden),
        );
        GruCell {
            wz,
            uz,
            bz,
            wr,
            ur,
            br,
            wh,
            uh,
            bh,
            in_dim,
            hidden,
        }
    }

    /// One step: `h' = z⊙h + (1−z)⊙tanh(x·Wh + (r⊙h)·Uh + bh)`.
    pub fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, h: Var) -> Var {
        let wz = tape.param(store, self.wz);
        let uz = tape.param(store, self.uz);
        let bz = tape.param(store, self.bz);
        let wr = tape.param(store, self.wr);
        let ur = tape.param(store, self.ur);
        let br = tape.param(store, self.br);
        let wh = tape.param(store, self.wh);
        let uh = tape.param(store, self.uh);
        let bh = tape.param(store, self.bh);

        let xz = tape.matmul(x, wz);
        let hz = tape.matmul(h, uz);
        let zs = tape.add(xz, hz);
        let zs = tape.add_row(zs, bz);
        let z = tape.sigmoid(zs);

        let xr = tape.matmul(x, wr);
        let hr = tape.matmul(h, ur);
        let rs = tape.add(xr, hr);
        let rs = tape.add_row(rs, br);
        let r = tape.sigmoid(rs);

        let rh = tape.mul(r, h);
        let xh = tape.matmul(x, wh);
        let hh = tape.matmul(rh, uh);
        let cs = tape.add(xh, hh);
        let cs = tape.add_row(cs, bh);
        let c = tape.tanh(cs);

        let zh = tape.mul(z, h);
        let omz = tape.one_minus(z);
        let zc = tape.mul(omz, c);
        tape.add(zh, zc)
    }

    /// Run over a sequence of `[n×in]` steps, returning every hidden state.
    pub fn run(&self, tape: &mut Tape, store: &ParamStore, xs: &[Var], h0: Var) -> Vec<Var> {
        let mut h = h0;
        let mut out = Vec::with_capacity(xs.len());
        for &x in xs {
            h = self.step(tape, store, x, h);
            out.push(h);
        }
        out
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }
}

/// Scaled-dot attention pooling of a sequence `[n×d]` with a query `[1×d]`:
/// `softmax(q·Kᵀ/√d)·K` → `[1×d]`. Used by STAMP and the GNN readouts.
pub fn attention_pool(tape: &mut Tape, query: Var, keys: Var) -> Var {
    let d = tape.value(keys).cols() as f32;
    let scores = tape.matmul_nt(query, keys); // [1×n]
    let scaled = tape.scale(scores, 1.0 / d.sqrt());
    let w = tape.softmax(scaled);
    tape.matmul(w, keys)
}

/// A feed-forward block: `relu(x·W1+b1)·W2+b2`.
#[derive(Debug, Clone, Copy)]
pub struct Mlp {
    l1: Linear,
    l2: Linear,
}

impl Mlp {
    /// Register a two-layer MLP.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Mlp {
            l1: Linear::new(store, &format!("{name}.l1"), in_dim, hidden, rng),
            l2: Linear::new(store, &format!("{name}.l2"), hidden, out_dim, rng),
        }
    }

    /// Apply to a `[n×in]` batch.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let h = self.l1.forward(tape, store, x);
        let h = tape.relu(h);
        self.l2.forward(tape, store, h)
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.l2.out_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(&mut store, "l", 4, 3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(5, 4));
        let y = l.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (5, 3));
    }

    #[test]
    fn gru_step_bounded() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let g = GruCell::new(&mut store, "g", 4, 8, &mut rng);
        let mut tape = Tape::new();
        let x = tape.input(init::uniform(2, 4, -1.0, 1.0, &mut rng));
        let h0 = tape.input(Tensor::zeros(2, 8));
        let h1 = g.step(&mut tape, &store, x, h0);
        assert_eq!(tape.value(h1).shape(), (2, 8));
        // GRU output is a convex combination of h (0) and tanh (|.|<1)
        assert!(tape.value(h1).data().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn gru_run_length() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let g = GruCell::new(&mut store, "g", 2, 4, &mut rng);
        let mut tape = Tape::new();
        let xs: Vec<_> = (0..5)
            .map(|_| tape.input(init::uniform(1, 2, -1.0, 1.0, &mut rng)))
            .collect();
        let h0 = tape.input(Tensor::zeros(1, 4));
        let hs = g.run(&mut tape, &store, &xs, h0);
        assert_eq!(hs.len(), 5);
    }

    #[test]
    fn gru_is_trainable_end_to_end() {
        // Learn to output h with positive first component for input +1
        // and negative for input −1 — a sanity check that gradients flow
        // through all nine parameter tensors.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let g = GruCell::new(&mut store, "g", 1, 4, &mut rng);
        let head = Linear::new(&mut store, "head", 4, 1, &mut rng);
        let mut opt = crate::opt::Adam::new(0.05);
        let mut last_loss = f32::INFINITY;
        for _ in 0..120 {
            let mut tape = Tape::new();
            let x_pos = tape.input(Tensor::from_vec(1, 1, vec![1.0]));
            let x_neg = tape.input(Tensor::from_vec(1, 1, vec![-1.0]));
            let h0 = tape.input(Tensor::zeros(1, 4));
            let hp = g.step(&mut tape, &store, x_pos, h0);
            let hn = g.step(&mut tape, &store, x_neg, h0);
            let lp = head.forward(&mut tape, &store, hp);
            let ln = head.forward(&mut tape, &store, hn);
            let logits = tape.concat_cols(lp, ln);
            let t = tape.transpose(logits);
            let loss = tape.bce_with_logits(t, &[1.0, 0.0]);
            last_loss = tape.value(loss).item();
            tape.backward(loss);
            store.zero_grads();
            tape.accumulate_param_grads(&mut store);
            opt.step(&mut store, &cosmo_exec::WorkerPool::new(1));
        }
        assert!(
            last_loss < 0.1,
            "GRU failed to fit toy task: loss={last_loss}"
        );
    }

    #[test]
    fn attention_pool_shape_and_weights() {
        let mut tape = Tape::new();
        let q = tape.input(Tensor::row(vec![1.0, 0.0]));
        let k = tape.input(Tensor::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, -1.0, 0.0]));
        let out = attention_pool(&mut tape, q, k);
        assert_eq!(tape.value(out).shape(), (1, 2));
        // pooled vector leans towards the key most similar to q
        assert!(tape.value(out).get(0, 0) > 0.0);
    }

    #[test]
    fn mlp_learns_xor() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let mlp = Mlp::new(&mut store, "m", 2, 8, 2, &mut rng);
        let mut opt = crate::opt::Adam::new(0.05);
        let xs = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = [0usize, 1, 1, 0];
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut tape = Tape::new();
            let x = tape.input(xs.clone());
            let logits = mlp.forward(&mut tape, &store, x);
            let loss = tape.cross_entropy(logits, &ys);
            last = tape.value(loss).item();
            tape.backward(loss);
            store.zero_grads();
            tape.accumulate_param_grads(&mut store);
            opt.step(&mut store, &cosmo_exec::WorkerPool::new(1));
        }
        assert!(last < 0.1, "MLP failed to fit XOR: loss={last}");
    }
}
