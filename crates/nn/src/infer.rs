//! Tape-free inference forwards and reusable scratch pools.
//!
//! Training runs through [`crate::tape::Tape`], which copies every parameter
//! it touches (so gradients can be accumulated against a frozen value) and
//! records an op per node. Inference needs neither: this module provides the
//! same forward computations reading parameters *in place* from the
//! [`crate::ParamStore`], writing into caller-owned scratch tensors, with zero
//! autodiff bookkeeping and zero steady-state allocation. It is the only
//! inference forward: a per-item call is a one-row batch through these
//! functions, and the tape formulation survives as the test reference.
//!
//! Every function here is bitwise identical to the tape formulation it
//! replaces, in both feature configurations: the per-element reduction
//! chains run through the same [`Tensor`] kernels, gathers and segment
//! means visit rows in the same order, and broadcasts apply in the same
//! row-major order as the tape ops. Tests at the bottom lock this.

use crate::tensor::Tensor;
use std::sync::{Mutex, PoisonError};

/// Reusable buffers for a tape-free forward pass. One scratch serves one
/// forward at a time; park it in a [`ScratchPool`] to share across calls
/// and threads. All fields are plain buffers the caller stages data in —
/// there is no hidden state between calls.
#[derive(Debug)]
pub struct InferScratch {
    /// Flattened feature ids across the batch (gather source rows).
    pub ids: Vec<usize>,
    /// Destination batch row per id, parallel to `ids`, non-decreasing.
    pub segments: Vec<usize>,
    /// Per-segment id counts (filled by [`embed_bag_into`]).
    pub counts: Vec<usize>,
    /// Pooled `[batch × dim]` encodings.
    pub pooled: Tensor,
    /// Intermediate layer output.
    pub hidden: Tensor,
    /// Final layer output.
    pub out: Tensor,
    /// Transpose scratch for [`Tensor::matmul_nt_into`].
    pub nt_scratch: Vec<f32>,
}

impl Default for InferScratch {
    fn default() -> Self {
        InferScratch {
            ids: Vec::new(),
            segments: Vec::new(),
            counts: Vec::new(),
            pooled: Tensor::zeros(0, 0),
            hidden: Tensor::zeros(0, 0),
            out: Tensor::zeros(0, 0),
            nt_scratch: Vec::new(),
        }
    }
}

impl InferScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear the id staging buffers (tensors are reshaped by the ops that
    /// write them, so only the append-style buffers need explicit clears).
    pub fn clear_ids(&mut self) {
        self.ids.clear();
        self.segments.clear();
    }
}

/// Mean-pooled bag embedding for a whole batch, equivalent to the tape's
/// `param → gather → segment_mean` chain but reading `table` in place and
/// never materialising the gathered rows: row `r` of the gather *is*
/// `table[ids[r]]`, so its value is summed straight into segment
/// `segments[r]` in increasing `r` order — the exact order
/// [`crate::tape::Tape::segment_mean`] uses. Empty segments stay zero
/// rows, and (as on the tape) a segment's sum is only rescaled when it
/// holds ≥ 2 rows, so single-id bags keep the table row's exact bits.
pub fn embed_bag_into(
    table: &Tensor,
    ids: &[usize],
    segments: &[usize],
    batch: usize,
    counts: &mut Vec<usize>,
    out: &mut Tensor,
) {
    assert_eq!(ids.len(), segments.len(), "embed_bag id/segment mismatch");
    out.reset_zeroed(batch, table.cols());
    counts.clear();
    counts.resize(batch, 0);
    for (&id, &s) in ids.iter().zip(segments.iter()) {
        assert!(id < table.rows(), "gather index {id} out of range");
        assert!(s < batch, "segment id {s} out of range");
        counts[s] += 1;
        for (o, &x) in out.row_slice_mut(s).iter_mut().zip(table.row_slice(id)) {
            *o += x;
        }
    }
    for (s, &c) in counts.iter().enumerate() {
        if c > 1 {
            let inv = 1.0 / c as f32;
            for x in out.row_slice_mut(s) {
                *x *= inv;
            }
        }
    }
}

/// Affine forward `x·W + b` into `out`, equivalent to the tape's
/// `matmul → add_row`: the matmul runs through the same kernel entry
/// point, then the bias row is added to each output row in increasing
/// row-major order.
pub fn linear_into(x: &Tensor, w: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(b.rows(), 1, "linear bias must be a row vector");
    assert_eq!(w.cols(), b.cols(), "linear weight/bias width mismatch");
    out.reset_zeroed(x.rows(), w.cols());
    x.matmul_into(w, out);
    for r in 0..out.rows() {
        for (o, &y) in out.row_slice_mut(r).iter_mut().zip(b.data().iter()) {
            *o += y;
        }
    }
}

/// `x · tableᵀ` into `out`, equivalent to the tape's `matmul_nt`; the
/// transpose scratch is caller-owned so repeated calls reuse capacity.
pub fn matmul_nt_into(x: &Tensor, table: &Tensor, scratch: &mut Vec<f32>, out: &mut Tensor) {
    out.reset_zeroed(x.rows(), table.rows());
    x.matmul_nt_into(table, out, scratch);
}

/// A lock-protected free list of [`InferScratch`] buffers. `take` pops a
/// recycled scratch (or builds a fresh one), `put` parks it for the next
/// caller; the mutex is held only for the push/pop, never across a forward
/// pass. A poisoned lock just hands back the inner list — the scratches
/// hold no invariants a panic could break (every op overwrites its output).
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<InferScratch>>,
}

impl ScratchPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pop a recycled scratch, or allocate one if the pool is dry.
    pub fn take(&self) -> InferScratch {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    /// Park a scratch for reuse.
    pub fn put(&self, scratch: InferScratch) {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::layers::{Embedding, Linear};
    use crate::params::ParamStore;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (ParamStore, Embedding, Linear, StdRng) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(97);
        let emb = Embedding::new(&mut store, "emb", 64, 12, &mut rng);
        let lin = Linear::new(&mut store, "head", 12, 5, &mut rng);
        (store, emb, lin, rng)
    }

    #[test]
    fn embed_bag_into_matches_tape_gather_segment_mean_bitwise() {
        let (store, emb, _, _) = fixture();
        // Batch of 4 bags: multi-id, single-id, empty, repeated-id.
        let ids = vec![3usize, 17, 9, 5, 20, 20];
        let segments = vec![0usize, 0, 0, 1, 3, 3];
        let batch = 4;

        let mut tape = Tape::new();
        let g = emb.forward(&mut tape, &store, &ids);
        let want = tape.segment_mean(g, &segments, batch);

        let mut counts = Vec::new();
        let mut got = Tensor::zeros(1, 1);
        embed_bag_into(
            emb.table_value(&store),
            &ids,
            &segments,
            batch,
            &mut counts,
            &mut got,
        );
        assert_eq!(got.shape(), (batch, emb.dim()));
        assert_eq!(got.data(), tape.value(want).data());
        assert_eq!(counts, vec![3, 1, 0, 2]);
    }

    #[test]
    fn linear_into_matches_tape_forward_bitwise() {
        let (store, _, lin, mut rng) = fixture();
        let x = init::uniform(7, 12, -1.0, 1.0, &mut rng);

        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let want = lin.forward(&mut tape, &store, xv);

        let (w, b) = lin.params(&store);
        let mut got = Tensor::zeros(1, 1);
        linear_into(&x, w, b, &mut got);
        assert_eq!(got.data(), tape.value(want).data());
    }

    #[test]
    fn matmul_nt_into_matches_tape_bitwise_for_single_and_batch() {
        let (_, _, _, mut rng) = fixture();
        let table = init::uniform(33, 12, -1.0, 1.0, &mut rng);
        for batch in [1usize, 6] {
            let x = init::uniform(batch, 12, -1.0, 1.0, &mut rng);
            let mut tape = Tape::new();
            let xv = tape.input(x.clone());
            let tv = tape.input(table.clone());
            let want = tape.matmul_nt(xv, tv);

            let mut scratch = Vec::new();
            let mut got = Tensor::zeros(1, 1);
            matmul_nt_into(&x, &table, &mut scratch, &mut got);
            assert_eq!(got.data(), tape.value(want).data(), "batch={batch}");
        }
    }

    /// Each batch row of the nt product must carry the exact bits of the
    /// corresponding single-row product — the property that makes batched
    /// student inference bitwise equal to the per-item loop.
    #[test]
    fn batched_nt_rows_match_single_row_calls_bitwise() {
        let (_, _, _, mut rng) = fixture();
        let table = init::uniform(21, 16, -1.0, 1.0, &mut rng);
        let x = init::uniform(5, 16, -1.0, 1.0, &mut rng);
        let mut scratch = Vec::new();
        let mut batched = Tensor::zeros(1, 1);
        matmul_nt_into(&x, &table, &mut scratch, &mut batched);
        for r in 0..x.rows() {
            let row = Tensor::from_vec(1, x.cols(), x.row_slice(r).to_vec());
            let mut single = Tensor::zeros(1, 1);
            matmul_nt_into(&row, &table, &mut scratch, &mut single);
            assert_eq!(single.data(), batched.row_slice(r), "row {r}");
        }
    }

    #[test]
    fn pools_recycle_buffers() {
        let pool = ScratchPool::new();
        let mut s = pool.take();
        s.ids.reserve(1024);
        let cap = s.ids.capacity();
        pool.put(s);
        assert!(
            pool.take().ids.capacity() >= cap,
            "scratch was not recycled"
        );
    }
}
