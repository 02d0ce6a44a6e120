//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a DAG of tensor operations built during a forward
//! pass; [`Tape::backward`] then walks the nodes in reverse, propagating
//! gradients with hand-derived rules per op. Parameters enter the tape
//! as leaves tagged with their [`ParamId`]: a whole-tensor copy
//! ([`Tape::param`]) or just the rows a lookup needs ([`Tape::gather`]).
//! After backward, [`Tape::accumulate_param_grads`] adds leaf gradients
//! into the [`ParamStore`] so an optimizer can step. [`Tape::grad_step`]
//! runs that whole sequence on a reused tape; every trainer in the
//! workspace takes its gradient steps through it.
//!
//! The op set is exactly what the COSMO models need: affine maps, GRU gates,
//! attention (softmax + matmul), GNN message passing (matmul with a constant
//! adjacency), embedding gather, classification and ranking losses.
//! Every op's gradient is verified against central finite differences in
//! the tests at the bottom of this file and property-tested in
//! `tests/gradcheck.rs`.
//!
//! # Workspace reuse
//!
//! A tape owns a free list of `f32` buffers. Every node value, every
//! gradient, and every backward temporary is carved out of that pool, and
//! [`Tape::reset`] returns all of them to it — so a training loop that
//! calls `reset()` between minibatches stops paying an allocator
//! round-trip per recorded op after the first step. Buffer reuse never
//! changes any computed value: the arithmetic (and therefore every result
//! bit) is identical to a freshly allocated tape.
//!
//! # Row gathers
//!
//! An embedding lookup touches a handful of rows of a large table, so
//! [`Tape::gather`] copies only those rows and keeps their `[n×d]`
//! gradient; no table-sized buffer is built in either direction. The
//! store receives exactly the bits a dense gradient (a zero table with
//! each gathered row's gradient added in) would have given it:
//!
//! * each distinct row's contributions are summed in output-row order,
//!   starting from `+0.0`, as the dense scatter summed them;
//! * several gathers from one table on one tape combine those row sums
//!   last gather first, the order in which a dense backward folds their
//!   table gradients into one, and the result is added into the store
//!   once;
//! * rows no gather touched are skipped. A dense gradient adds `+0.0` to
//!   them, which changes nothing: store gradients start at `+0.0` and
//!   only ever receive sums, so they are never `-0.0`.

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// Recorded operation (parents referenced by [`Var`]).
#[derive(Debug, Clone)]
enum Op {
    /// Constant input; receives a gradient but propagates nowhere.
    Input,
    /// Parameter leaf: gradient is exported to the [`ParamStore`].
    Param(ParamId),
    Matmul(Var, Var),
    /// `A · Bᵀ` — used for scoring a batch against an embedding table.
    MatmulNT(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// `[n×d] + [1×d]` broadcast (bias addition).
    AddRow(Var, Var),
    /// `[n×d] ⊙ [1×d]` broadcast (per-feature gating).
    MulRow(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Relu(Var),
    Tanh(Var),
    Sigmoid(Var),
    /// Elementwise natural log (inputs must be positive).
    Log(Var),
    /// Parameter row gather: output row `i` is row `rows[i]` of the
    /// parameter. A leaf; its gradient is scattered into the store by
    /// [`Tape::accumulate_param_grads`].
    Gather(ParamId, Vec<usize>),
    /// Row selection over a node: output row `i` is parent row `idx[i]`.
    SelectRows(Var, Vec<usize>),
    MeanRows(Var),
    SumRows(Var),
    SumAll(Var),
    MeanAll(Var),
    /// Per-segment mean of rows: row `i` of the output is the mean of the
    /// parent rows whose segment id is `i` (zero row for empty segments).
    /// The batched embedding-bag used by the critic and student models.
    SegmentMean(Var, Vec<usize>, usize),
    ConcatCols(Var, Var),
    Transpose(Var),
    /// Row-wise softmax.
    Softmax(Var),
    /// Mean negative log-likelihood of `targets` under row-wise softmax of
    /// the logits.
    CrossEntropy(Var, Vec<usize>),
    /// Mean binary cross-entropy with logits (`[n×1]` logits).
    BceWithLogits(Var, Vec<f32>),
    /// BPR ranking loss: `-mean log σ(x)` over an `[n×1]` score-difference
    /// column.
    BprLoss(Var),
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
}

/// A forward-pass recording.
///
/// Create one per training step, or — cheaper — keep one per worker and
/// call [`Tape::reset`] between steps to recycle every buffer it owns.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Recycled backing buffers for node values, gradients and backward
    /// temporaries.
    free: Vec<Vec<f32>>,
    /// Reused `(table row, gather node, output row)` order for scattering
    /// gather gradients into the store.
    scatter: Vec<(usize, usize, usize)>,
}

// ----------------------------------------------------------- pool helpers
// Free functions over the pool (not methods) so `backward` can borrow
// `nodes` and `free` independently.

/// Pop a cleared buffer from the pool (or a fresh one).
fn take_buf(free: &mut Vec<Vec<f32>>) -> Vec<f32> {
    match free.pop() {
        Some(mut b) => {
            b.clear();
            b
        }
        None => Vec::new(),
    }
}

/// A pooled `rows×cols` tensor filled with `fill`.
fn pooled_full(free: &mut Vec<Vec<f32>>, rows: usize, cols: usize, fill: f32) -> Tensor {
    let mut buf = take_buf(free);
    buf.resize(rows * cols, fill);
    Tensor::from_vec(rows, cols, buf)
}

/// A pooled copy of `src`.
fn pooled_copy(free: &mut Vec<Vec<f32>>, src: &Tensor) -> Tensor {
    let mut buf = take_buf(free);
    buf.extend_from_slice(src.data());
    Tensor::from_vec(src.rows(), src.cols(), buf)
}

/// A pooled elementwise map of `src`.
fn pooled_map(free: &mut Vec<Vec<f32>>, src: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut buf = take_buf(free);
    buf.extend(src.data().iter().map(|&x| f(x)));
    Tensor::from_vec(src.rows(), src.cols(), buf)
}

/// A pooled elementwise combine of `a` and `b` (equal shapes).
fn pooled_zip(
    free: &mut Vec<Vec<f32>>,
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Tensor {
    let mut buf = take_buf(free);
    buf.extend(a.data().iter().zip(b.data().iter()).map(|(&x, &y)| f(x, y)));
    Tensor::from_vec(a.rows(), a.cols(), buf)
}

/// Add `g` into the node's gradient slot (in place when one exists),
/// recycling `g`'s buffer if it is not kept.
fn accum_grad(slot: &mut Option<Tensor>, g: Tensor, free: &mut Vec<Vec<f32>>) {
    match slot {
        Some(existing) => {
            existing.add_assign(&g);
            free.push(g.into_data());
        }
        slot @ None => *slot = Some(g),
    }
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Clear all recorded nodes, returning every value and gradient buffer
    /// to the internal pool so the next forward pass allocates (almost)
    /// nothing. Results computed on a reset tape are bitwise identical to
    /// a fresh one.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.free.push(node.value.into_data());
            if let Some(g) = node.grad {
                self.free.push(g.into_data());
            }
        }
    }

    /// Number of pooled buffers currently available for reuse.
    pub fn pooled_buffers(&self) -> usize {
        self.free.len()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Current value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Gradient of a node (populated by [`Tape::backward`]).
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---------------------------------------------------------------- leaves

    /// Record a constant input.
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Input)
    }

    /// Record a parameter leaf (copies the current value out of the store).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let v = pooled_copy(&mut self.free, store.value(id));
        self.push(v, Op::Param(id))
    }

    // ------------------------------------------------------------------- ops

    /// `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (n, m) = (self.nodes[a.0].value.rows(), self.nodes[b.0].value.cols());
        let mut out = pooled_full(&mut self.free, n, m, 0.0);
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[b.0].value, &mut out);
        self.push(out, Op::Matmul(a, b))
    }

    /// `a · bᵀ`.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let (n, m) = (self.nodes[a.0].value.rows(), self.nodes[b.0].value.rows());
        let mut out = pooled_full(&mut self.free, n, m, 0.0);
        let mut scratch = take_buf(&mut self.free);
        self.nodes[a.0]
            .value
            .matmul_nt_into(&self.nodes[b.0].value, &mut out, &mut scratch);
        self.free.push(scratch);
        self.push(out, Op::MatmulNT(a, b))
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(av.shape(), bv.shape(), "add_assign shape mismatch");
        let v = pooled_zip(&mut self.free, av, bv, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise `a − b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(av.shape(), bv.shape(), "sub shape mismatch");
        let v = pooled_zip(&mut self.free, av, bv, |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise `a ⊙ b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(av.shape(), bv.shape(), "hadamard shape mismatch");
        let v = pooled_zip(&mut self.free, av, bv, |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    /// Broadcast add a `[1×d]` row to every row of `[n×d]`.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let rv = &self.nodes[row.0].value;
        assert_eq!(rv.rows(), 1, "add_row rhs must be a row vector");
        assert_eq!(av.cols(), rv.cols(), "add_row width mismatch");
        let mut v = pooled_copy(&mut self.free, &self.nodes[a.0].value);
        let rv = &self.nodes[row.0].value;
        for r in 0..v.rows() {
            let row_s = v.row_slice_mut(r);
            for (x, &y) in row_s.iter_mut().zip(rv.data().iter()) {
                *x += y;
            }
        }
        self.push(v, Op::AddRow(a, row))
    }

    /// Broadcast multiply every row of `[n×d]` by a `[1×d]` row.
    pub fn mul_row(&mut self, a: Var, row: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let rv = &self.nodes[row.0].value;
        assert_eq!(rv.rows(), 1, "mul_row rhs must be a row vector");
        assert_eq!(av.cols(), rv.cols(), "mul_row width mismatch");
        let mut v = pooled_copy(&mut self.free, &self.nodes[a.0].value);
        let rv = &self.nodes[row.0].value;
        for r in 0..v.rows() {
            let row_s = v.row_slice_mut(r);
            for (x, &y) in row_s.iter_mut().zip(rv.data().iter()) {
                *x *= y;
            }
        }
        self.push(v, Op::MulRow(a, row))
    }

    /// `s · a`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = pooled_map(&mut self.free, &self.nodes[a.0].value, |x| s * x);
        self.push(v, Op::Scale(a, s))
    }

    /// `a + s` elementwise.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = pooled_map(&mut self.free, &self.nodes[a.0].value, |x| x + s);
        self.push(v, Op::AddScalar(a))
    }

    /// `1 − a` elementwise (GRU update-gate complement).
    pub fn one_minus(&mut self, a: Var) -> Var {
        let neg = self.scale(a, -1.0);
        self.add_scalar(neg, 1.0)
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = pooled_map(&mut self.free, &self.nodes[a.0].value, |x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = pooled_map(&mut self.free, &self.nodes[a.0].value, f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = pooled_map(&mut self.free, &self.nodes[a.0].value, sigmoid_scalar);
        self.push(v, Op::Sigmoid(a))
    }

    /// Elementwise `ln`; caller guarantees positivity.
    pub fn log(&mut self, a: Var) -> Var {
        let v = pooled_map(&mut self.free, &self.nodes[a.0].value, f32::ln);
        self.push(v, Op::Log(a))
    }

    /// Gather rows `rows` of parameter `id` straight from the store →
    /// `[n×d]`, copying only those rows (see the module docs for how the
    /// gradient reaches the store).
    pub fn gather(&mut self, store: &ParamStore, id: ParamId, rows: &[usize]) -> Var {
        let mut buf = take_buf(&mut self.free);
        let table = store.value(id);
        for &r in rows {
            assert!(r < table.rows(), "gather index {r} out of range");
            buf.extend_from_slice(table.row_slice(r));
        }
        let v = Tensor::from_vec(rows.len(), table.cols(), buf);
        self.push(v, Op::Gather(id, rows.to_vec()))
    }

    /// Select rows `idx` of node `a` (e.g. one position of a sequence of
    /// hidden states).
    pub fn select_rows(&mut self, a: Var, idx: &[usize]) -> Var {
        let mut buf = take_buf(&mut self.free);
        let av = &self.nodes[a.0].value;
        let cols = av.cols();
        for &r in idx {
            assert!(r < av.rows(), "select_rows index {r} out of range");
            buf.extend_from_slice(av.row_slice(r));
        }
        let v = Tensor::from_vec(idx.len(), cols, buf);
        self.push(v, Op::SelectRows(a, idx.to_vec()))
    }

    /// Mean over rows: `[n×d] → [1×d]`.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let mut v = pooled_full(&mut self.free, 1, self.nodes[a.0].value.cols(), 0.0);
        let av = &self.nodes[a.0].value;
        let n = av.rows().max(1);
        for r in 0..av.rows() {
            for (o, &x) in v.data_mut().iter_mut().zip(av.row_slice(r).iter()) {
                *o += x;
            }
        }
        v.scale_assign(1.0 / n as f32);
        self.push(v, Op::MeanRows(a))
    }

    /// Sum over rows: `[n×d] → [1×d]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let mut v = pooled_full(&mut self.free, 1, self.nodes[a.0].value.cols(), 0.0);
        let av = &self.nodes[a.0].value;
        for r in 0..av.rows() {
            for (o, &x) in v.data_mut().iter_mut().zip(av.row_slice(r).iter()) {
                *o += x;
            }
        }
        self.push(v, Op::SumRows(a))
    }

    /// Per-segment mean over rows: `[n×d] → [k×d]` with `segments[i] < k`
    /// giving row `i`'s destination. Empty segments yield zero rows.
    pub fn segment_mean(&mut self, a: Var, segments: &[usize], k: usize) -> Var {
        let d = self.nodes[a.0].value.cols();
        let mut v = pooled_full(&mut self.free, k, d, 0.0);
        let av = &self.nodes[a.0].value;
        assert_eq!(av.rows(), segments.len(), "segment_mean length mismatch");
        let mut counts = vec![0usize; k];
        for (r, &s) in segments.iter().enumerate() {
            assert!(s < k, "segment id {s} out of range");
            counts[s] += 1;
            for (o, &x) in v.row_slice_mut(s).iter_mut().zip(av.row_slice(r)) {
                *o += x;
            }
        }
        for (s, &c) in counts.iter().enumerate() {
            if c > 1 {
                let inv = 1.0 / c as f32;
                for x in v.row_slice_mut(s) {
                    *x *= inv;
                }
            }
        }
        self.push(v, Op::SegmentMean(a, segments.to_vec(), k))
    }

    /// Sum of all elements: `→ [1×1]`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.nodes[a.0].value.sum();
        let v = pooled_full(&mut self.free, 1, 1, s);
        self.push(v, Op::SumAll(a))
    }

    /// Mean of all elements: `→ [1×1]`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let t = &self.nodes[a.0].value;
        let s = t.sum() / t.len().max(1) as f32;
        let v = pooled_full(&mut self.free, 1, 1, s);
        self.push(v, Op::MeanAll(a))
    }

    /// Concatenate along columns: `[n×c1] ++ [n×c2] → [n×(c1+c2)]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let mut buf = take_buf(&mut self.free);
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(av.rows(), bv.rows(), "concat_cols row mismatch");
        let (n, c1, c2) = (av.rows(), av.cols(), bv.cols());
        for r in 0..n {
            buf.extend_from_slice(av.row_slice(r));
            buf.extend_from_slice(bv.row_slice(r));
        }
        let v = Tensor::from_vec(n, c1 + c2, buf);
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = pooled_full(&mut self.free, c, r, 0.0);
        self.nodes[a.0].value.transpose_into(&mut v);
        self.push(v, Op::Transpose(a))
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, a: Var) -> Var {
        let mut v = pooled_copy(&mut self.free, &self.nodes[a.0].value);
        for r in 0..v.rows() {
            softmax_row(v.row_slice_mut(r));
        }
        self.push(v, Op::Softmax(a))
    }

    /// Mean cross-entropy of `targets` under softmax of `logits` (stable
    /// log-sum-exp formulation). Returns a scalar node.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let lv = &self.nodes[logits.0].value;
        assert_eq!(lv.rows(), targets.len(), "cross_entropy batch mismatch");
        let mut loss = 0.0f64;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < lv.cols(), "target class out of range");
            let row = lv.row_slice(r);
            loss += (log_sum_exp(row) - row[t]) as f64;
        }
        let s = (loss / targets.len().max(1) as f64) as f32;
        let v = pooled_full(&mut self.free, 1, 1, s);
        self.push(v, Op::CrossEntropy(logits, targets.to_vec()))
    }

    /// Mean binary cross-entropy with logits over an `[n×1]` column.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        let lv = &self.nodes[logits.0].value;
        assert_eq!(lv.cols(), 1, "bce expects a column of logits");
        assert_eq!(lv.rows(), targets.len(), "bce batch mismatch");
        let mut loss = 0.0f64;
        for (r, &t) in targets.iter().enumerate() {
            let x = lv.get(r, 0);
            // max(x,0) - x*t + ln(1 + e^{-|x|})  (numerically stable)
            loss += (x.max(0.0) - x * t + (-x.abs()).exp().ln_1p()) as f64;
        }
        let s = (loss / targets.len().max(1) as f64) as f32;
        let v = pooled_full(&mut self.free, 1, 1, s);
        self.push(v, Op::BceWithLogits(logits, targets.to_vec()))
    }

    /// BPR loss `−mean log σ(x)` over an `[n×1]` column of positive-minus-
    /// negative score differences.
    pub fn bpr_loss(&mut self, diffs: Var) -> Var {
        let dv = &self.nodes[diffs.0].value;
        assert_eq!(dv.cols(), 1, "bpr expects a column of score diffs");
        let mut loss = 0.0f64;
        for r in 0..dv.rows() {
            let x = dv.get(r, 0);
            // -ln σ(x) = ln(1 + e^{-x}) = max(-x, 0) + ln(1 + e^{-|x|})
            loss += ((-x).max(0.0) + (-x.abs()).exp().ln_1p()) as f64;
        }
        let s = (loss / dv.rows().max(1) as f64) as f32;
        let v = pooled_full(&mut self.free, 1, 1, s);
        self.push(v, Op::BprLoss(diffs))
    }

    // -------------------------------------------------------------- backward

    /// Run reverse-mode differentiation from the scalar node `loss`.
    ///
    /// Gradients are carved out of the tape's buffer pool and accumulated
    /// in place; no node value or op is cloned. The reverse walk splits the
    /// node array at the current index — every parent lives strictly below
    /// its child, so the child's gradient and op can be read while the
    /// parents' gradient slots are written.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward root must be a scalar"
        );
        let Tape { nodes, free, .. } = self;
        for n in nodes.iter_mut() {
            if let Some(g) = n.grad.take() {
                free.push(g.into_data());
            }
        }
        nodes[loss.0].grad = Some(pooled_full(free, 1, 1, 1.0));
        for i in (0..=loss.0).rev() {
            // Parents of node `i` always have smaller indices, so the slice
            // below `i` holds every gradient slot this op writes.
            let (parents, rest) = nodes.split_at_mut(i);
            let node = &rest[0];
            let Some(g) = node.grad.as_ref() else {
                continue;
            };
            match &node.op {
                Op::Input | Op::Param(_) | Op::Gather(..) => {}
                Op::Matmul(a, b) => {
                    let (av, bv) = (&parents[a.0].value, &parents[b.0].value);
                    let mut da = pooled_full(free, g.rows(), av.cols(), 0.0);
                    let mut scratch = take_buf(free);
                    g.matmul_nt_into(bv, &mut da, &mut scratch);
                    free.push(scratch);
                    let mut db = pooled_full(free, av.cols(), g.cols(), 0.0);
                    av.matmul_tn_into(g, &mut db);
                    accum_grad(&mut parents[a.0].grad, da, free);
                    accum_grad(&mut parents[b.0].grad, db, free);
                }
                Op::MatmulNT(a, b) => {
                    let (av, bv) = (&parents[a.0].value, &parents[b.0].value);
                    let mut da = pooled_full(free, g.rows(), bv.cols(), 0.0);
                    g.matmul_into(bv, &mut da);
                    let mut db = pooled_full(free, g.cols(), av.cols(), 0.0);
                    g.matmul_tn_into(av, &mut db);
                    accum_grad(&mut parents[a.0].grad, da, free);
                    accum_grad(&mut parents[b.0].grad, db, free);
                }
                Op::Add(a, b) => {
                    let ga = pooled_copy(free, g);
                    accum_grad(&mut parents[a.0].grad, ga, free);
                    let gb = pooled_copy(free, g);
                    accum_grad(&mut parents[b.0].grad, gb, free);
                }
                Op::Sub(a, b) => {
                    let ga = pooled_copy(free, g);
                    let ng = pooled_map(free, g, |x| -x);
                    accum_grad(&mut parents[a.0].grad, ga, free);
                    accum_grad(&mut parents[b.0].grad, ng, free);
                }
                Op::Mul(a, b) => {
                    let da = pooled_zip(free, g, &parents[b.0].value, |x, y| x * y);
                    let db = pooled_zip(free, g, &parents[a.0].value, |x, y| x * y);
                    accum_grad(&mut parents[a.0].grad, da, free);
                    accum_grad(&mut parents[b.0].grad, db, free);
                }
                Op::AddRow(a, row) => {
                    let mut drow = pooled_full(free, 1, g.cols(), 0.0);
                    for r in 0..g.rows() {
                        for (o, &x) in drow.data_mut().iter_mut().zip(g.row_slice(r)) {
                            *o += x;
                        }
                    }
                    let ga = pooled_copy(free, g);
                    accum_grad(&mut parents[a.0].grad, ga, free);
                    accum_grad(&mut parents[row.0].grad, drow, free);
                }
                Op::MulRow(a, row) => {
                    let av = &parents[a.0].value;
                    let rv = &parents[row.0].value;
                    let mut da = pooled_copy(free, g);
                    for r in 0..da.rows() {
                        for (x, &y) in da.row_slice_mut(r).iter_mut().zip(rv.data()) {
                            *x *= y;
                        }
                    }
                    let mut drow = pooled_full(free, 1, g.cols(), 0.0);
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            drow.data_mut()[c] += g.get(r, c) * av.get(r, c);
                        }
                    }
                    accum_grad(&mut parents[a.0].grad, da, free);
                    accum_grad(&mut parents[row.0].grad, drow, free);
                }
                Op::Scale(a, s) => {
                    let mut da = pooled_copy(free, g);
                    da.scale_assign(*s);
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::AddScalar(a) => {
                    let da = pooled_copy(free, g);
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::Relu(a) => {
                    let da =
                        pooled_zip(
                            free,
                            g,
                            &parents[a.0].value,
                            |gx, x| {
                                if x > 0.0 {
                                    gx
                                } else {
                                    0.0
                                }
                            },
                        );
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::Tanh(a) => {
                    let da = pooled_zip(free, g, &node.value, |gx, y| gx * (1.0 - y * y));
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::Sigmoid(a) => {
                    let da = pooled_zip(free, g, &node.value, |gx, y| gx * y * (1.0 - y));
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::Log(a) => {
                    let da = pooled_zip(free, g, &parents[a.0].value, |gx, x| gx / x);
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::SelectRows(a, idx) => {
                    let (rows, cols) = parents[a.0].value.shape();
                    let mut da = pooled_full(free, rows, cols, 0.0);
                    for (i_out, &r) in idx.iter().enumerate() {
                        for (o, &x) in da.row_slice_mut(r).iter_mut().zip(g.row_slice(i_out)) {
                            *o += x;
                        }
                    }
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::MeanRows(a) => {
                    let (n, c) = parents[a.0].value.shape();
                    let mut da = pooled_full(free, n, c, 0.0);
                    let inv = 1.0 / n.max(1) as f32;
                    for r in 0..n {
                        for (o, &x) in da.row_slice_mut(r).iter_mut().zip(g.data()) {
                            *o = x * inv;
                        }
                    }
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::SumRows(a) => {
                    let (n, c) = parents[a.0].value.shape();
                    let mut da = pooled_full(free, n, c, 0.0);
                    for r in 0..n {
                        da.row_slice_mut(r).copy_from_slice(g.data());
                    }
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::SegmentMean(a, segments, k) => {
                    let (n, d) = parents[a.0].value.shape();
                    let mut counts = vec![0usize; *k];
                    for &s in segments {
                        counts[s] += 1;
                    }
                    let mut da = pooled_full(free, n, d, 0.0);
                    for (r, &s) in segments.iter().enumerate() {
                        let inv = 1.0 / counts[s] as f32;
                        for (o, &x) in da.row_slice_mut(r).iter_mut().zip(g.row_slice(s)) {
                            *o = x * inv;
                        }
                    }
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::SumAll(a) => {
                    let (n, c) = parents[a.0].value.shape();
                    let da = pooled_full(free, n, c, g.item());
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::MeanAll(a) => {
                    let (n, c) = parents[a.0].value.shape();
                    let v = g.item() / (n * c).max(1) as f32;
                    let da = pooled_full(free, n, c, v);
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::ConcatCols(a, b) => {
                    let c1 = parents[a.0].value.cols();
                    let c2 = parents[b.0].value.cols();
                    let n = g.rows();
                    let mut da = pooled_full(free, n, c1, 0.0);
                    let mut db = pooled_full(free, n, c2, 0.0);
                    for r in 0..n {
                        da.row_slice_mut(r).copy_from_slice(&g.row_slice(r)[..c1]);
                        db.row_slice_mut(r).copy_from_slice(&g.row_slice(r)[c1..]);
                    }
                    accum_grad(&mut parents[a.0].grad, da, free);
                    accum_grad(&mut parents[b.0].grad, db, free);
                }
                Op::Transpose(a) => {
                    let mut da = pooled_full(free, g.cols(), g.rows(), 0.0);
                    g.transpose_into(&mut da);
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::Softmax(a) => {
                    let y = &node.value;
                    let mut da = pooled_full(free, y.rows(), y.cols(), 0.0);
                    for r in 0..y.rows() {
                        let yr = y.row_slice(r);
                        let gr = g.row_slice(r);
                        let dot: f32 = yr.iter().zip(gr.iter()).map(|(&a, &b)| a * b).sum();
                        for c in 0..y.cols() {
                            da.set(r, c, yr[c] * (gr[c] - dot));
                        }
                    }
                    accum_grad(&mut parents[a.0].grad, da, free);
                }
                Op::CrossEntropy(logits, targets) => {
                    let lv = &parents[logits.0].value;
                    let gscale = g.item() / targets.len().max(1) as f32;
                    let mut da = pooled_full(free, lv.rows(), lv.cols(), 0.0);
                    let mut row = take_buf(free);
                    for (r, &t) in targets.iter().enumerate() {
                        row.clear();
                        row.extend_from_slice(lv.row_slice(r));
                        softmax_row(&mut row);
                        for (c, &p) in row.iter().enumerate() {
                            let indicator = if c == t { 1.0 } else { 0.0 };
                            da.set(r, c, gscale * (p - indicator));
                        }
                    }
                    free.push(row);
                    accum_grad(&mut parents[logits.0].grad, da, free);
                }
                Op::BceWithLogits(logits, targets) => {
                    let lv = &parents[logits.0].value;
                    let gscale = g.item() / targets.len().max(1) as f32;
                    let mut da = pooled_full(free, lv.rows(), 1, 0.0);
                    for (r, &t) in targets.iter().enumerate() {
                        let p = sigmoid_scalar(lv.get(r, 0));
                        da.set(r, 0, gscale * (p - t));
                    }
                    accum_grad(&mut parents[logits.0].grad, da, free);
                }
                Op::BprLoss(diffs) => {
                    let dv = &parents[diffs.0].value;
                    let gscale = g.item() / dv.rows().max(1) as f32;
                    let mut da = pooled_full(free, dv.rows(), 1, 0.0);
                    for r in 0..dv.rows() {
                        let s = sigmoid_scalar(dv.get(r, 0));
                        da.set(r, 0, gscale * (s - 1.0));
                    }
                    accum_grad(&mut parents[diffs.0].grad, da, free);
                }
            }
        }
    }

    /// One gradient step on this (reused) tape: reset it, record the
    /// forward pass with `build`, backpropagate from the scalar loss it
    /// returns, then replace the store's gradients with this tape's.
    /// Returns the loss value; the caller runs the optimizer.
    pub fn grad_step(
        &mut self,
        store: &mut ParamStore,
        build: impl FnOnce(&mut Tape, &ParamStore) -> Var,
    ) -> f32 {
        self.reset();
        let loss = build(self, store);
        self.backward(loss);
        store.zero_grads();
        self.accumulate_param_grads(store);
        self.value(loss).item()
    }

    /// Add the gradients of all parameter leaves into the store's gradient
    /// buffers (call after [`Tape::backward`]), in node order. All gathers
    /// from one table are added together at the first of them.
    pub fn accumulate_param_grads(&mut self, store: &mut ParamStore) {
        let Tape {
            nodes,
            free,
            scatter,
        } = self;
        for (i, node) in nodes.iter().enumerate() {
            match (&node.op, &node.grad) {
                (Op::Param(id), Some(g)) => store.grad_mut(*id).add_assign(g),
                (Op::Gather(id, _), _)
                    if !nodes[..i]
                        .iter()
                        .any(|n| matches!(&n.op, Op::Gather(p, _) if p == id)) =>
                {
                    scatter_gathers(nodes, *id, store.grad_mut(*id), free, scatter);
                }
                _ => {}
            }
        }
    }
}

/// Add the row gradients of every gather from parameter `id` into its
/// store gradient `grad`, with the bits of the dense formulation (see the
/// module docs).
fn scatter_gathers(
    nodes: &[Node],
    id: ParamId,
    grad: &mut Tensor,
    free: &mut Vec<Vec<f32>>,
    order: &mut Vec<(usize, usize, usize)>,
) {
    // Gathers last first, output rows in order within each; the stable
    // sort by table row keeps both orders inside every row's run.
    order.clear();
    for (k, node) in nodes.iter().enumerate().rev() {
        if let (Op::Gather(p, rows), Some(_)) = (&node.op, &node.grad) {
            if *p == id {
                order.extend(rows.iter().enumerate().map(|(i, &r)| (r, k, i)));
            }
        }
    }
    order.sort_by_key(|&(r, _, _)| r);
    let mut sum = pooled_full(free, 1, grad.cols(), 0.0);
    let mut part = pooled_full(free, 1, grad.cols(), 0.0);
    for row_run in order.chunk_by(|a, b| a.0 == b.0) {
        for (j, node_run) in row_run.chunk_by(|a, b| a.1 == b.1).enumerate() {
            // the first gather's row sum is the running sum; later ones
            // are summed apart and then folded in
            let dst = if j == 0 { &mut sum } else { &mut part };
            dst.zero_();
            for &(_, k, i) in node_run {
                if let Some(g) = &nodes[k].grad {
                    for (o, &x) in dst.data_mut().iter_mut().zip(g.row_slice(i)) {
                        *o += x;
                    }
                }
            }
            if j > 0 {
                sum.add_assign(&part);
            }
        }
        for (o, &x) in grad.row_slice_mut(row_run[0].0).iter_mut().zip(sum.data()) {
            *o += x;
        }
    }
    free.push(sum.into_data());
    free.push(part.into_data());
}

#[inline]
fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

fn softmax_row(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in row.iter_mut() {
        *x /= sum;
    }
}

fn log_sum_exp(row: &[f32]) -> f32 {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let sum: f32 = row.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    /// Every FD_STRIDE-th parameter element gets a central-difference probe.
    /// Natively that is every element; under Miri (where each probe is two
    /// fully interpreted forward passes) a strided subset keeps the
    /// gradchecks to seconds while still touching every parameter tensor.
    const FD_STRIDE: usize = if cfg!(miri) { 5 } else { 1 };

    /// Central-difference derivative of `f` w.r.t. element `i` of a parameter.
    fn finite_diff_at(
        store: &mut ParamStore,
        id: ParamId,
        i: usize,
        f: &dyn Fn(&ParamStore) -> f32,
    ) -> f32 {
        let eps = 1e-3f32;
        let orig = store.value(id).data()[i];
        store.value_mut(id).data_mut()[i] = orig + eps;
        let plus = f(store);
        store.value_mut(id).data_mut()[i] = orig - eps;
        let minus = f(store);
        store.value_mut(id).data_mut()[i] = orig;
        (plus - minus) / (2.0 * eps)
    }

    /// Check a whole-model gradient: builds the loss via `build`, compares
    /// analytic param grads against central differences.
    fn gradcheck(store: &mut ParamStore, build: &dyn Fn(&mut Tape, &ParamStore) -> Var) {
        let mut tape = Tape::new();
        let loss = build(&mut tape, store);
        tape.backward(loss);
        store.zero_grads();
        tape.accumulate_param_grads(store);
        let tol = 2e-2f32;
        for id in store.ids() {
            let analytic = store.grad(id).clone();
            let (r, c) = store.value(id).shape();
            for i in (0..r * c).step_by(FD_STRIDE) {
                let numeric = finite_diff_at(store, id, i, &|s| {
                    let mut t = Tape::new();
                    let l = build(&mut t, s);
                    t.value(l).item()
                });
                let x = analytic.data()[i];
                assert!(
                    (x - numeric).abs() < tol,
                    "gradient mismatch at element {i}: analytic={x} numeric={numeric}"
                );
            }
        }
    }

    #[test]
    fn gradcheck_affine_relu_ce() {
        let mut store = ParamStore::new();
        let w = store.add(
            "w",
            Tensor::from_vec(3, 4, (0..12).map(|i| 0.1 * i as f32 - 0.5).collect()),
        );
        let b = store.add("b", Tensor::row(vec![0.1, -0.2, 0.3, 0.0]));
        gradcheck(&mut store, &move |tape, s| {
            let x = tape.input(Tensor::from_vec(
                2,
                3,
                vec![1.0, -0.5, 0.25, 0.8, 0.2, -1.0],
            ));
            let wv = tape.param(s, w);
            let bv = tape.param(s, b);
            let h = tape.matmul(x, wv);
            let h = tape.add_row(h, bv);
            let h = tape.relu(h);
            tape.cross_entropy(h, &[2, 0])
        });
    }

    #[test]
    fn gradcheck_gather_mean_bce() {
        let mut store = ParamStore::new();
        let e = store.add(
            "emb",
            Tensor::from_vec(5, 3, (0..15).map(|i| (i as f32 * 0.37).sin()).collect()),
        );
        let w = store.add("w", Tensor::from_vec(3, 1, vec![0.3, -0.4, 0.2]));
        gradcheck(&mut store, &move |tape, s| {
            let wv = tape.param(s, w);
            let g = tape.gather(s, e, &[0, 3, 3, 1]);
            let m = tape.mean_rows(g);
            let logit = tape.matmul(m, wv);
            tape.bce_with_logits(logit, &[1.0])
        });
    }

    #[test]
    fn gradcheck_gru_like_gates() {
        let mut store = ParamStore::new();
        let wz = store.add("wz", Tensor::from_vec(2, 2, vec![0.2, -0.1, 0.4, 0.3]));
        let uz = store.add("uz", Tensor::from_vec(2, 2, vec![0.1, 0.2, -0.3, 0.05]));
        gradcheck(&mut store, &move |tape, s| {
            let x = tape.input(Tensor::from_vec(1, 2, vec![0.5, -0.7]));
            let h0 = tape.input(Tensor::from_vec(1, 2, vec![0.1, 0.9]));
            let wzv = tape.param(s, wz);
            let uzv = tape.param(s, uz);
            let xz = tape.matmul(x, wzv);
            let hz = tape.matmul(h0, uzv);
            let zsum = tape.add(xz, hz);
            let z = tape.sigmoid(zsum);
            let omz = tape.one_minus(z);
            let cand = tape.tanh(xz);
            let a = tape.mul(z, h0);
            let b = tape.mul(omz, cand);
            let h1 = tape.add(a, b);
            let sq = tape.mul(h1, h1);
            tape.mean_all(sq)
        });
    }

    #[test]
    fn gradcheck_softmax_attention() {
        let mut store = ParamStore::new();
        let q = store.add("q", Tensor::from_vec(1, 3, vec![0.3, -0.2, 0.5]));
        let keys = store.add(
            "k",
            Tensor::from_vec(
                4,
                3,
                (0..12).map(|i| ((i * 7) % 5) as f32 * 0.2 - 0.4).collect(),
            ),
        );
        gradcheck(&mut store, &move |tape, s| {
            let qv = tape.param(s, q);
            let kv = tape.param(s, keys);
            let scores = tape.matmul_nt(qv, kv); // [1x4]
            let w = tape.softmax(scores);
            let ctx = tape.matmul(w, kv); // [1x3]
            let sq = tape.mul(ctx, ctx);
            tape.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_bpr_and_concat() {
        let mut store = ParamStore::new();
        let e = store.add(
            "emb",
            Tensor::from_vec(4, 2, vec![0.3, 0.1, -0.2, 0.5, 0.7, -0.6, 0.05, 0.2]),
        );
        gradcheck(&mut store, &move |tape, s| {
            let pos = tape.gather(s, e, &[0, 1]);
            let neg = tape.gather(s, e, &[2, 3]);
            let cat = tape.concat_cols(pos, neg); // exercise concat grad
            let half = tape.scale(cat, 0.5);
            let both = tape.mul(half, half);
            let sums = tape.sum_rows(both);
            let t = tape.transpose(sums); // exercise transpose grad
            let diff_in = tape.sub(pos, neg);
            let col = tape.sum_rows(diff_in);
            let colt = tape.transpose(col);
            let bpr = tape.bpr_loss(colt);
            let reg = tape.mean_all(t);
            tape.add(bpr, reg)
        });
    }

    #[test]
    fn gradcheck_segment_mean() {
        let mut store = ParamStore::new();
        let e = store.add(
            "emb",
            Tensor::from_vec(6, 2, (0..12).map(|i| (i as f32 * 0.31).cos()).collect()),
        );
        gradcheck(&mut store, &move |tape, s| {
            let g = tape.gather(s, e, &[0, 1, 2, 3, 4, 4]);
            // segments: {0,1} -> 0, {2} -> 1, segment 2 empty, {3,4,4} -> 3
            let m = tape.segment_mean(g, &[0, 0, 1, 3, 3, 3], 4);
            let sq = tape.mul(m, m);
            tape.mean_all(sq)
        });
    }

    #[test]
    fn segment_mean_values() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let m = tape.segment_mean(x, &[1, 1, 0], 3);
        assert_eq!(tape.value(m).row_slice(0), &[5.0, 6.0]);
        assert_eq!(tape.value(m).row_slice(1), &[2.0, 3.0]);
        assert_eq!(tape.value(m).row_slice(2), &[0.0, 0.0]); // empty segment
    }

    #[test]
    fn gradcheck_log_mulrow() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row(vec![0.5, 1.5, 2.0]));
        gradcheck(&mut store, &move |tape, s| {
            let x = tape.input(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 0.5, 1.0, 4.0]));
            let wv = tape.param(s, w);
            let scaled = tape.mul_row(x, wv);
            let pos = tape.mul(scaled, scaled);
            let shifted = tape.add_scalar(pos, 1.0);
            let l = tape.log(shifted);
            tape.mean_all(l)
        });
    }

    #[test]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::row(vec![1.0, 2.0]));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut t2 = Tape::new();
            std::mem::swap(&mut t2, &mut tape);
            t2.backward(x);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        // y = x + x => dy/dx = 2
        let mut store = ParamStore::new();
        let p = store.add("p", Tensor::scalar(3.0));
        let mut tape = Tape::new();
        let x = tape.param(&store, p);
        let y = tape.add(x, x);
        let l = tape.sum_all(y);
        tape.backward(l);
        tape.accumulate_param_grads(&mut store);
        assert_eq!(store.grad(p).item(), 2.0);
    }

    #[test]
    fn cross_entropy_value_matches_manual() {
        let mut tape = Tape::new();
        let logits = tape.input(Tensor::from_vec(1, 2, vec![0.0, 0.0]));
        let l = tape.cross_entropy(logits, &[0]);
        assert!((tape.value(l).item() - (2.0f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let s = tape.softmax(x);
        for r in 0..2 {
            let sum: f32 = tape.value(s).row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    /// A `[rows×cols]` tensor whose entries span seven orders of magnitude,
    /// so that regrouping a sum of them changes its rounding.
    fn varied(rows: usize, cols: usize, seed: usize) -> Tensor {
        let scales = [1e-3f32, 0.37, 1.0, 311.0, 7e3];
        let data = (0..rows * cols)
            .map(|i| {
                let k = (i + seed) * 2_654_435_761 % 1000;
                scales[(i + seed) % 5] * (k as f32 / 997.0 - 0.5)
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// The dense table gradient of one gather: a zero table with output
    /// row `i`'s gradient added into row `rows[i]`, in output-row order.
    fn dense_scatter(table_rows: usize, rows: &[usize], g: &Tensor) -> Tensor {
        let mut d = Tensor::zeros(table_rows, g.cols());
        for (i, &r) in rows.iter().enumerate() {
            for (o, &x) in d.row_slice_mut(r).iter_mut().zip(g.row_slice(i)) {
                *o += x;
            }
        }
        d
    }

    /// Gather `rows` of `e` with `sum(gather ⊙ w)` as its loss term, so the
    /// gather's gradient is exactly `w`. Returns the term and `w`.
    fn weighted_gather(
        tape: &mut Tape,
        store: &ParamStore,
        e: ParamId,
        rows: &[usize],
    ) -> (Var, Tensor) {
        let w = varied(rows.len(), 4, rows.len() * 3 + rows[0]);
        let g = tape.gather(store, e, rows);
        let wv = tape.input(w.clone());
        let p = tape.mul(g, wv);
        (tape.sum_all(p), w)
    }

    fn table_store() -> (ParamStore, ParamId) {
        let mut store = ParamStore::new();
        let e = store.add("emb", varied(6, 4, 11));
        (store, e)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gather_copies_the_requested_rows() {
        let (store, e) = table_store();
        let mut tape = Tape::new();
        let g = tape.gather(&store, e, &[4, 0, 4]);
        assert_eq!(tape.value(g).shape(), (3, 4));
        assert_eq!(tape.value(g).row_slice(0), store.value(e).row_slice(4));
        assert_eq!(tape.value(g).row_slice(1), store.value(e).row_slice(0));
        assert_eq!(tape.value(g).row_slice(2), store.value(e).row_slice(4));
    }

    #[test]
    fn gather_with_repeated_ids_matches_dense_scatter_bitwise() {
        let (mut store, e) = table_store();
        let rows: Vec<usize> = (0..64).map(|i| [3, 1, 3, 3, 0, 1, 3, 5][i % 8]).collect();
        let mut tape = Tape::new();
        let (l, w) = weighted_gather(&mut tape, &store, e, &rows);
        tape.backward(l);
        store.zero_grads();
        tape.accumulate_param_grads(&mut store);
        let mut want = Tensor::zeros(6, 4);
        want.add_assign(&dense_scatter(6, &rows, &w));
        assert_eq!(bits(store.grad(e)), bits(&want));
    }

    #[test]
    fn gathers_on_one_param_match_dense_backward_bitwise() {
        let (mut store, e) = table_store();
        let rows: [&[usize]; 3] = [&[2, 5, 2, 0, 2], &[5, 2, 1, 2], &[2, 0, 5, 5]];
        // a non-zero store gradient, so the grouping of the adds shows
        store.grad_mut(e).add_assign(&varied(6, 4, 5));
        let before = store.grad(e).clone();
        let mut tape = Tape::new();
        let mut loss = None;
        let mut dense = Vec::new();
        for r in rows {
            let (l, w) = weighted_gather(&mut tape, &store, e, r);
            dense.push(dense_scatter(6, r, &w));
            loss = Some(match loss {
                Some(acc) => tape.add(acc, l),
                None => l,
            });
        }
        // a whole-table leaf of the same parameter after the gathers
        let whole = tape.param(&store, e);
        let ww = tape.input(varied(6, 4, 17));
        let pw = tape.mul(whole, ww);
        let lw = tape.sum_all(pw);
        let l = tape.add(loss.unwrap(), lw);
        tape.backward(l);
        tape.accumulate_param_grads(&mut store);

        // dense backward: the shared table node's gradient folds the
        // gathers' scatters last first; the store adds it, then the
        // whole-table leaf's gradient
        let fold = |order: &[usize]| {
            let mut table = dense[order[0]].clone();
            for &k in &order[1..] {
                table.add_assign(&dense[k]);
            }
            let mut out = before.clone();
            out.add_assign(&table);
            out.add_assign(tape.value(ww));
            out
        };
        let want = fold(&[2, 1, 0]);
        assert_eq!(bits(store.grad(e)), bits(&want));

        // the data is order-sensitive: folding first gather first, or
        // adding each gather into the store on its own, gives other bits
        assert_ne!(bits(&fold(&[0, 1, 2])), bits(&want));
        let mut separate = before;
        for d in &dense {
            separate.add_assign(d);
        }
        separate.add_assign(tape.value(ww));
        assert_ne!(bits(&separate), bits(&want));
    }

    #[test]
    fn sharded_gathers_accumulate_in_shard_order_bitwise() {
        let (mut store, e) = table_store();
        let shard_rows: [&[usize]; 3] = [&[1, 4, 1, 1], &[4, 4, 0, 1, 3], &[1, 3, 4]];
        let mut shards: Vec<(Tape, Tensor)> = shard_rows
            .iter()
            .map(|rows| {
                let mut tape = Tape::new();
                let (l, w) = weighted_gather(&mut tape, &store, e, rows);
                tape.backward(l);
                (tape, w)
            })
            .collect();
        store.zero_grads();
        let mut want = Tensor::zeros(6, 4);
        for ((tape, w), rows) in shards.iter_mut().zip(shard_rows) {
            tape.accumulate_param_grads(&mut store);
            want.add_assign(&dense_scatter(6, rows, w));
        }
        assert_eq!(bits(store.grad(e)), bits(&want));
    }

    #[test]
    #[should_panic(expected = "gather index 6 out of range")]
    fn gather_out_of_range_panics() {
        let (store, e) = table_store();
        let mut tape = Tape::new();
        tape.gather(&store, e, &[0, 6]);
    }

    /// One forward/backward through most of the op set, parameterized so a
    /// reused tape can be compared against fresh ones.
    fn mixed_step(tape: &mut Tape, store: &ParamStore, ids: &[ParamId], shift: f32) -> Var {
        let w = tape.param(store, ids[1]);
        let g = tape.gather(store, ids[0], &[0, 2, 2, 1]);
        let m = tape.segment_mean(g, &[0, 0, 1, 1], 2);
        let h = tape.matmul(m, w);
        let h = tape.tanh(h);
        let shifted = tape.add_scalar(h, shift);
        let sm = tape.softmax(shifted);
        let ce = tape.cross_entropy(sm, &[1, 0]);
        let att = tape.matmul_nt(m, m);
        let reg = tape.mean_all(att);
        tape.add(ce, reg)
    }

    /// `reset()` must recycle buffers *and* leave every computed value and
    /// gradient bitwise identical to a fresh tape.
    #[test]
    fn reset_tape_reproduces_fresh_tape_bitwise() {
        let mut store = ParamStore::new();
        let e = store.add(
            "emb",
            Tensor::from_vec(3, 4, (0..12).map(|i| (i as f32 * 0.7).sin()).collect()),
        );
        let w = store.add(
            "w",
            Tensor::from_vec(
                4,
                4,
                (0..16).map(|i| (i as f32 * 0.3).cos() * 0.5).collect(),
            ),
        );
        let ids = [e, w];

        let steps = if cfg!(miri) { 2 } else { 3 };
        let mut reused = Tape::new();
        for step in 0..steps {
            let shift = step as f32 * 0.1;

            let mut fresh = Tape::new();
            let fl = mixed_step(&mut fresh, &store, &ids, shift);
            fresh.backward(fl);
            store.zero_grads();
            fresh.accumulate_param_grads(&mut store);
            let fresh_grads: Vec<Tensor> = ids.iter().map(|&id| store.grad(id).clone()).collect();

            reused.reset();
            let rl = mixed_step(&mut reused, &store, &ids, shift);
            reused.backward(rl);
            store.zero_grads();
            reused.accumulate_param_grads(&mut store);

            assert_eq!(
                fresh.value(fl).data(),
                reused.value(rl).data(),
                "loss diverged on reused tape at step {step}"
            );
            for (&id, fg) in ids.iter().zip(&fresh_grads) {
                assert_eq!(
                    store.grad(id).data(),
                    fg.data(),
                    "grad diverged on reused tape at step {step}"
                );
            }
        }
        assert!(
            reused.pooled_buffers() == 0 || !reused.is_empty(),
            "reused tape should be holding its buffers in nodes"
        );
        reused.reset();
        assert!(
            reused.pooled_buffers() > 0,
            "reset must return buffers to the pool"
        );
    }

    /// After the first step, a reset tape should run the same graph without
    /// growing its pool demand (i.e. it reuses rather than reallocates).
    #[test]
    fn reset_tape_reaches_steady_state_pool() {
        let mut store = ParamStore::new();
        let e = store.add(
            "emb",
            Tensor::from_vec(3, 4, (0..12).map(|i| i as f32 * 0.1).collect()),
        );
        let w = store.add("w", Tensor::from_vec(4, 4, vec![0.25; 16]));
        let ids = [e, w];
        let mut tape = Tape::new();
        let l = mixed_step(&mut tape, &store, &ids, 0.0);
        tape.backward(l);
        tape.reset();
        let after_first = tape.pooled_buffers();
        let iters = if cfg!(miri) { 2 } else { 4 };
        for _ in 0..iters {
            let l = mixed_step(&mut tape, &store, &ids, 0.0);
            tape.backward(l);
            tape.reset();
            assert_eq!(
                tape.pooled_buffers(),
                after_first,
                "pool should neither grow nor shrink across identical steps"
            );
        }
    }

    fn toy_store() -> (ParamStore, ParamId) {
        let mut store = ParamStore::new();
        let w = store.add(
            "w",
            Tensor::from_vec(4, 2, (0..8).map(|i| 0.1 * i as f32 - 0.3).collect()),
        );
        (store, w)
    }

    /// Mean squared output of a fixed toy regression batch.
    fn toy_loss(tape: &mut Tape, store: &ParamStore, w: ParamId) -> Var {
        let xs: Vec<f32> = (0..8 * 4)
            .map(|i| ((i * 13) % 7) as f32 * 0.25 - 0.75)
            .collect();
        let x = tape.input(Tensor::from_vec(8, 4, xs));
        let wv = tape.param(store, w);
        let y = tape.matmul(x, wv);
        let sq = tape.mul(y, y);
        tape.mean_all(sq)
    }

    /// `grad_step` is the plain backward / zero / accumulate sequence on a
    /// fresh tape, bit for bit.
    #[test]
    fn grad_step_matches_plain_tape_bitwise() {
        let (mut store, w) = toy_store();
        let mut tape = Tape::new();
        let loss = toy_loss(&mut tape, &store, w);
        tape.backward(loss);
        store.zero_grads();
        tape.accumulate_param_grads(&mut store);
        let expect_loss = tape.value(loss).item();
        let expect_grad = store.grad(w).clone();

        let (mut store2, w2) = toy_store();
        let got = Tape::new().grad_step(&mut store2, |tape, s| toy_loss(tape, s, w2));
        assert_eq!(got.to_bits(), expect_loss.to_bits());
        assert_eq!(store2.grad(w2).data(), expect_grad.data());
    }

    /// The tape is reused across steps; results must not drift, and each
    /// step replaces the store's gradients instead of adding to them.
    #[test]
    fn grad_step_reuses_the_tape_without_drift() {
        let (mut store, w) = toy_store();
        let mut tape = Tape::new();
        let first = tape.grad_step(&mut store, |tape, s| toy_loss(tape, s, w));
        let first_grad = store.grad(w).clone();
        for step in 0..3 {
            let again = tape.grad_step(&mut store, |tape, s| toy_loss(tape, s, w));
            assert_eq!(
                again.to_bits(),
                first.to_bits(),
                "loss drifted at step {step}"
            );
            assert_eq!(store.grad(w).data(), first_grad.data());
        }
    }
}
