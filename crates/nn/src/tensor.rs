//! Dense 2-D `f32` tensors.
//!
//! Every value in the autograd engine is a row-major 2-D matrix; scalars are
//! `[1×1]`, row vectors `[1×d]`. This is deliberately minimal: the models in
//! this reproduction (MLPs, GRUs, attention, GNN message passing) only need
//! 2-D linear algebra, and a single concrete layout keeps the hot matmul
//! loops simple enough for the compiler to vectorise.

use cosmo_exec::WorkerPool;

/// A row-major 2-D matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from a flat row-major buffer. Panics if sizes disagree.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor data length mismatch");
        Tensor { rows, cols, data }
    }

    /// Build a `1×n` row vector.
    pub fn row(data: Vec<f32>) -> Self {
        let cols = data.len();
        Tensor {
            rows: 1,
            cols,
            data,
        }
    }

    /// Build a `1×1` scalar.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            rows: 1,
            cols: 1,
            data: vec![v],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat read-only view.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Consume the tensor and take its backing buffer (for buffer pools).
    #[inline]
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Flat mutable view.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a `1×1` tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a scalar tensor");
        self.data[0]
    }

    /// Matrix product `self · other` (`[n×k]·[k×m] → [n×m]`).
    ///
    /// Cache-blocked, register-tiled kernel (see [`kernels`]). Every output
    /// element is accumulated in strictly increasing-`k` order — the same
    /// order as the naive i-k-j loop — so the result is bitwise identical
    /// to [`Tensor::matmul_reference`] for finite inputs, and `0 × NaN`/
    /// `0 × ∞` propagate per IEEE 754 (the old kernel's `a == 0` skip
    /// silently flushed them to `0`).
    ///
    /// Under the opt-in `fast-math` cargo feature this same entry point
    /// routes to the FMA reduction-tree kernel instead: different bytes
    /// than the default build, but bitwise identical to
    /// [`Tensor::matmul_fma_reference`] across every ISA dispatch path and
    /// thread count (see the module docs of [`kernels`]).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// The no-FMA blocked kernel, unconditionally — the exact computation
    /// [`Tensor::matmul`] performs at default features. Exists so a
    /// `fast-math` build can still measure (`repro -- nn-scaling`) and
    /// test the unfused tier it replaced; with the feature off this *is*
    /// `matmul`.
    pub fn matmul_unfused(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(n, m);
        kernels::mm_band_unfused(&self.data, &other.data, &mut out.data, k, m);
        out
    }

    /// Scalar oracle of the `fast-math` reduction tree: for each output
    /// element, fold `FM_KBLOCK`-sized fused-multiply-add chains in
    /// strictly increasing block order. [`Tensor::matmul`] — and every
    /// ISA/band variant behind it — must match this bitwise when the
    /// feature is on; it is the fast-math analogue of
    /// [`Tensor::matmul_reference`].
    #[cfg(feature = "fast-math")]
    pub fn matmul_fma_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0f32;
                let mut k0 = 0;
                while k0 < k {
                    let ke = (k0 + kernels::FM_KBLOCK).min(k);
                    let mut part = 0.0f32;
                    for kk in k0..ke {
                        part = self.data[i * k + kk].mul_add(other.data[kk * m + j], part);
                    }
                    acc += part;
                    k0 = ke;
                }
                out.data[i * m + j] = acc;
            }
        }
        out
    }

    /// Reference scalar matmul: the seed i-k-j loop, kept as the baseline
    /// the blocked kernel is benchmarked against (`BENCH_nn.json`) and as
    /// a correctness oracle in tests. Dense — no zero skipping.
    pub fn matmul_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(n, m);
        for i in 0..n {
            let out_row = &mut out.data[i * m..(i + 1) * m];
            for kk in 0..k {
                let a = self.data[i * k + kk];
                let b_row = &other.data[kk * m..(kk + 1) * m];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · other` with the output rows partitioned across `pool`.
    ///
    /// Each worker runs the identical blocked kernel over a disjoint band
    /// of output rows, so the accumulation order of every element is
    /// unchanged and the result is byte-identical to [`Tensor::matmul`]
    /// at any thread count. Small products run inline.
    pub fn matmul_par(&self, other: &Tensor, pool: &WorkerPool) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        if pool.threads() == 1 || n < 2 || n * k * m < kernels::MIN_PAR_WORK {
            return self.matmul(other);
        }
        let mut out = Tensor::zeros(n, m);
        let band = n.div_ceil(pool.threads());
        let b = &other.data;
        pool.scope(|s| {
            for (a_band, out_band) in self
                .data
                .chunks(band * k)
                .zip(out.data.chunks_mut(band * m))
            {
                s.spawn(move || kernels::mm_band(a_band, b, out_band, k, m));
            }
        });
        out
    }

    /// `self · otherᵀ` (`[n×k]·[m×k]ᵀ → [n×m]`).
    ///
    /// For `n ≥ 2` the transpose is materialised once and the blocked
    /// [`Tensor::matmul`] kernel runs on it; for a single row the contiguous
    /// dot-product loop is already optimal (and the transpose would cost as
    /// much as the product). Both paths accumulate in strictly increasing-`k`
    /// order, so the result is bitwise identical to
    /// `self.matmul(&other.transpose())`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out, &mut Vec::new());
        out
    }

    /// `selfᵀ · other` (`[k×n]ᵀ·[k×m] → [n×m]`).
    ///
    /// Blocked kernel with strided reads of `self`; accumulation per output
    /// element is strictly increasing-`k`, bitwise identical to
    /// `self.transpose().matmul(&other)` (and IEEE-faithful: no zero skip).
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// The no-FMA blocked tier of [`Tensor::matmul_tn`], unconditionally —
    /// the companion of [`Tensor::matmul_unfused`].
    pub fn matmul_tn_unfused(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn shape mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            other.shape()
        );
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(n, m);
        kernels::mm_tn_band_unfused(&self.data, &other.data, &mut out.data, k, n, m, 0);
        out
    }

    /// [`Tensor::matmul`] into a caller-provided output tensor (shape
    /// `[n×m]`), overwriting it. Lets buffer pools avoid an allocation;
    /// the allocating variant is this call on a fresh zeroed tensor.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul_into output shape"
        );
        kernels::mm_band(
            &self.data,
            &other.data,
            &mut out.data,
            self.cols,
            other.cols,
        );
    }

    /// [`Tensor::matmul_nt`] into a caller-provided output tensor (shape
    /// `[n×m]`). `scratch` holds the materialised `otherᵀ` when the blocked
    /// path is taken, so repeated calls reuse its capacity.
    pub fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor, scratch: &mut Vec<f32>) {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_nt shape mismatch: {:?} x {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        let (n, k, m) = (self.rows, self.cols, other.rows);
        assert_eq!(out.shape(), (n, m), "matmul_nt_into output shape");
        if n >= 2 && k >= 2 {
            scratch.clear();
            scratch.resize(k * m, 0.0);
            for r in 0..m {
                for c in 0..k {
                    scratch[c * m + r] = other.data[r * k + c];
                }
            }
            kernels::mm_band(&self.data, scratch, &mut out.data, k, m);
            return;
        }
        for i in 0..n {
            let a_row = &self.data[i * k..(i + 1) * k];
            for j in 0..m {
                let b_row = &other.data[j * k..(j + 1) * k];
                out.data[i * m + j] = kernels::nt_dot(a_row, b_row);
            }
        }
    }

    /// [`Tensor::matmul_tn`] into a caller-provided output tensor (shape
    /// `[n×m]`), overwriting it.
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn shape mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            other.shape()
        );
        let (k, n, m) = (self.rows, self.cols, other.cols);
        assert_eq!(out.shape(), (n, m), "matmul_tn_into output shape");
        kernels::mm_tn_band(&self.data, &other.data, &mut out.data, k, n, m, 0);
    }

    /// Materialised transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a caller-provided `[cols×rows]` tensor.
    pub fn transpose_into(&self, out: &mut Tensor) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose_into shape");
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// `self += other` elementwise; shapes must match.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Elementwise sum into a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Elementwise product (Hadamard) into a new tensor.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .collect();
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Multiply all elements by `s` in place.
    pub fn scale_assign(&mut self, s: f32) {
        for x in self.data.iter_mut() {
            *x *= s;
        }
    }

    /// Set every element to zero (for reusable gradient buffers).
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Reshape in place to `[rows×cols]`, zero-filled, reusing the backing
    /// buffer's capacity (for reusable inference scratch tensors).
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }
}

/// The Adam element pass over one tensor's equal-length slices; see
/// [`crate::opt::AdamStep::apply`].
pub(crate) use kernels::{adam_body, adam_pass};

/// Cache-blocked, register-tiled matmul kernels.
///
/// The micro-kernel holds an `MR × NR` accumulator tile in registers and,
/// for each `k`, broadcasts one element of `A` against a contiguous
/// `NR`-wide strip of a `B` row (a broadcast-FMA). The vector lanes run
/// across the *output columns*, never across `k`, so each output element is
/// still a single scalar chain `((a₀b₀) + a₁b₁) + …` in strictly
/// increasing-`k` order — the compiler can vectorise freely without
/// reassociating the float sum. That is the determinism contract: blocked,
/// banded, and multi-threaded variants are all bitwise identical to the
/// naive scalar loop.
///
/// # The `fast-math` tier
///
/// Keeping mul and add as separate instructions (so the wide paths match
/// the seed scalar loop bitwise) leaves the FMA ports half idle. The
/// opt-in `fast-math` feature trades *cross-config* stability for that
/// throughput while keeping *within-config* determinism: each output
/// element is accumulated through a **fixed-shape reduction tree** whose
/// split points are a pure function of `k` alone — `k` is cut at multiples
/// of [`FM_KBLOCK`], each block partial is one fused-multiply-add chain in
/// strictly increasing-`k` order, and the partials fold in strictly
/// increasing block order. Lane width and tile shape still only choose how
/// many *column* chains progress concurrently, and bands still split rows,
/// so every ISA dispatch path and every thread count produces identical
/// bytes under the feature (asserted against
/// [`Tensor::matmul_fma_reference`], the scalar oracle of the tree).
///
/// # The Adam pass
///
/// The optimizer's element loop lives here too, behind the same runtime
/// ISA dispatch. It has no reduction and no FMA tier: one body serves
/// both feature configurations.
mod kernels {
    use crate::opt::AdamStep;

    /// Output columns per register strip (f32 lanes the compiler can pack)
    /// on the baseline (no runtime-detected ISA) path.
    const NR: usize = 16;
    /// Output rows per micro-tile on the baseline path.
    const MR: usize = 4;
    /// Below this many multiply-adds a parallel dispatch costs more than
    /// it saves; shapes (not thread count) decide, keeping results
    /// identical at every thread count.
    pub(super) const MIN_PAR_WORK: usize = 1 << 16;
    /// `k`-block width of the `fast-math` reduction tree. The tree's split
    /// points are the multiples of this constant — a pure function of `k`,
    /// never of ISA lane width, tile shape, or thread count.
    #[cfg(feature = "fast-math")]
    pub(super) const FM_KBLOCK: usize = 64;

    /// Tiled micro-kernel body, generic over the `TM × TN` register tile.
    ///
    /// The tile size and the vector width only decide how many *column*
    /// chains make progress concurrently; each output element is always
    /// one scalar chain in strictly increasing-`k` order, so every
    /// instantiation (and every ISA it is compiled for) produces the same
    /// bits. `U2` unrolls the `k` loop by two — the two updates stay
    /// sequential per element (`acc += a₀·b₀` then `acc += a₁·b₁`), so the
    /// chain (and the bits) are unchanged; it only gives the scheduler two
    /// independent `B`-row loads per iteration. The wide-ISA paths want it
    /// (~1.5× there); the 16-register SSE2 baseline spills under it, so it
    /// stays off there.
    #[inline(always)]
    fn mm_band_impl<const TM: usize, const TN: usize, const U2: bool>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        m: usize,
    ) {
        let n = out.len().checked_div(m).unwrap_or(0);
        debug_assert_eq!(a.len(), n * k);
        debug_assert_eq!(b.len(), k * m);
        let mut i0 = 0;
        while i0 < n {
            let ib = TM.min(n - i0);
            let mut j0 = 0;
            while j0 < m {
                let jb = TN.min(m - j0);
                let mut acc = [[0.0f32; TN]; TM];
                if ib == TM && jb == TN {
                    let mut kk = 0;
                    if U2 {
                        while kk + 2 <= k {
                            let b0: &[f32; TN] =
                                b[kk * m + j0..kk * m + j0 + TN].try_into().unwrap();
                            let b1: &[f32; TN] = b[(kk + 1) * m + j0..(kk + 1) * m + j0 + TN]
                                .try_into()
                                .unwrap();
                            for r in 0..TM {
                                let av0 = a[(i0 + r) * k + kk];
                                let av1 = a[(i0 + r) * k + kk + 1];
                                for c in 0..TN {
                                    acc[r][c] += av0 * b0[c];
                                }
                                for c in 0..TN {
                                    acc[r][c] += av1 * b1[c];
                                }
                            }
                            kk += 2;
                        }
                    }
                    while kk < k {
                        let brow: &[f32; TN] = b[kk * m + j0..kk * m + j0 + TN].try_into().unwrap();
                        for r in 0..TM {
                            let av = a[(i0 + r) * k + kk];
                            for c in 0..TN {
                                acc[r][c] += av * brow[c];
                            }
                        }
                        kk += 1;
                    }
                } else {
                    for kk in 0..k {
                        let brow = &b[kk * m + j0..kk * m + j0 + jb];
                        for (r, accr) in acc.iter_mut().enumerate().take(ib) {
                            let av = a[(i0 + r) * k + kk];
                            for (c, &bv) in brow.iter().enumerate() {
                                accr[c] += av * bv;
                            }
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate().take(ib) {
                    let base = (i0 + r) * m + j0;
                    out[base..base + jb].copy_from_slice(&accr[..jb]);
                }
                j0 += TN;
            }
            i0 += TM;
        }
    }

    /// Transposed-A micro-kernel body; see [`mm_band_impl`] for the tile,
    /// unroll, and determinism story.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // kernel ABI: three slices + four dims beats a struct in the hot loop
    fn mm_tn_band_impl<const TM: usize, const TN: usize, const U2: bool>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        m: usize,
        i0: usize,
    ) {
        let nb = out.len().checked_div(m).unwrap_or(0);
        debug_assert_eq!(a.len(), k * n);
        debug_assert_eq!(b.len(), k * m);
        debug_assert!(i0 + nb <= n);
        let mut r0 = 0;
        while r0 < nb {
            let ib = TM.min(nb - r0);
            let mut j0 = 0;
            while j0 < m {
                let jb = TN.min(m - j0);
                let mut acc = [[0.0f32; TN]; TM];
                if ib == TM && jb == TN {
                    let mut kk = 0;
                    if U2 {
                        while kk + 2 <= k {
                            let b0: &[f32; TN] =
                                b[kk * m + j0..kk * m + j0 + TN].try_into().unwrap();
                            let b1: &[f32; TN] = b[(kk + 1) * m + j0..(kk + 1) * m + j0 + TN]
                                .try_into()
                                .unwrap();
                            for r in 0..TM {
                                let av0 = a[kk * n + i0 + r0 + r];
                                let av1 = a[(kk + 1) * n + i0 + r0 + r];
                                for c in 0..TN {
                                    acc[r][c] += av0 * b0[c];
                                }
                                for c in 0..TN {
                                    acc[r][c] += av1 * b1[c];
                                }
                            }
                            kk += 2;
                        }
                    }
                    while kk < k {
                        let brow: &[f32; TN] = b[kk * m + j0..kk * m + j0 + TN].try_into().unwrap();
                        for r in 0..TM {
                            let av = a[kk * n + i0 + r0 + r];
                            for c in 0..TN {
                                acc[r][c] += av * brow[c];
                            }
                        }
                        kk += 1;
                    }
                } else {
                    for kk in 0..k {
                        let brow = &b[kk * m + j0..kk * m + j0 + jb];
                        for (r, accr) in acc.iter_mut().enumerate().take(ib) {
                            let av = a[kk * n + i0 + r0 + r];
                            for (c, &bv) in brow.iter().enumerate() {
                                accr[c] += av * bv;
                            }
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate().take(ib) {
                    let base = (r0 + r) * m + j0;
                    out[base..base + jb].copy_from_slice(&accr[..jb]);
                }
                j0 += TN;
            }
            r0 += TM;
        }
    }

    // Runtime-dispatched ISA variants: the binary is built for baseline
    // x86-64 (SSE2), so the compiler packs 4 lanes; recompiling the same
    // body under a wider target feature lets it pack 8 (AVX2) or 16
    // (AVX-512) without changing a single arithmetic step. mul and add
    // stay separate instructions (rustc never contracts to FMA), so the
    // wide paths are bitwise identical to the scalar chain — the kernel
    // tests assert exactly that against the reference loop.

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    // SAFETY: callers must verify `avx512f` via `is_x86_feature_detected!`
    // before calling — that is the *only* obligation `unsafe` marks here.
    // The body is the bounds-checked generic tile over plain slices; the
    // feature gate merely lets the autovectorizer pack 16 f32 lanes.
    unsafe fn mm_band_avx512(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize) {
        debug_assert!(std::arch::is_x86_feature_detected!("avx512f"));
        // 8×32 tile: 16 zmm accumulators keep both FMA ports busy across
        // the 4-cycle add latency.
        mm_band_impl::<8, 32, true>(a, b, out, k, m)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: callers must verify `avx2` at runtime; body is the same
    // bounds-checked generic tile, packed 8 lanes wide.
    unsafe fn mm_band_avx2(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize) {
        debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
        mm_band_impl::<4, 16, true>(a, b, out, k, m)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)] // kernel ABI mirrors mm_tn_band_impl
                                         // SAFETY: callers must verify `avx512f` at runtime; body is the
                                         // bounds-checked transposed-A generic tile.
    unsafe fn mm_tn_band_avx512(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        m: usize,
        i0: usize,
    ) {
        debug_assert!(std::arch::is_x86_feature_detected!("avx512f"));
        mm_tn_band_impl::<8, 32, true>(a, b, out, k, n, m, i0)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)] // kernel ABI mirrors mm_tn_band_impl
                                         // SAFETY: callers must verify `avx2` at runtime; body is the
                                         // bounds-checked transposed-A generic tile.
    unsafe fn mm_tn_band_avx2(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        m: usize,
        i0: usize,
    ) {
        debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
        mm_tn_band_impl::<4, 16, true>(a, b, out, k, n, m, i0)
    }

    /// `out = a · b` where `a` is the band's rows (`out.len() / m` of
    /// them, `k` wide) and `b` is the full `[k×m]` right-hand side.
    /// Routes to the tier the build selected: the unfused blocked kernel
    /// at default features, the FMA reduction tree under `fast-math`.
    pub(super) fn mm_band(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize) {
        #[cfg(feature = "fast-math")]
        {
            fm_mm_band(a, b, out, k, m)
        }
        #[cfg(not(feature = "fast-math"))]
        {
            mm_band_unfused(a, b, out, k, m)
        }
    }

    /// The no-FMA tier of [`mm_band`]: mul and add stay separate
    /// instructions, so every path is bitwise identical to the seed scalar
    /// loop. Always compiled — the `fast-math` build benchmarks against it.
    pub(super) fn mm_band_unfused(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize) {
        debug_assert_eq!(b.len(), k * m, "mm_band rhs shape");
        debug_assert_eq!(a.len() * m, out.len() * k, "mm_band band shape");
        // Under Miri the runtime ISA dispatch is skipped: feature
        // detection is a host-CPU read Miri cannot model, and the wide
        // wrappers re-instantiate the identical generic body anyway, so
        // the portable path below gives full interpreter coverage.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: avx512f was verified on this CPU on the line
                // above, which is the wrapper's only precondition.
                return unsafe { mm_band_avx512(a, b, out, k, m) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 was verified on this CPU on the line above.
                return unsafe { mm_band_avx2(a, b, out, k, m) };
            }
        }
        mm_band_impl::<MR, NR, false>(a, b, out, k, m)
    }

    /// `out[i − i0][j] = Σₖ a[k][i] · b[k][j]` for the band of output rows
    /// `i0 .. i0 + out.len() / m`, with `a` the full `[k×n]` matrix read
    /// column-wise (strided) and `b` the full `[k×m]` matrix. Routes to
    /// the build-selected tier like [`mm_band`].
    #[allow(clippy::too_many_arguments)] // kernel ABI mirrors mm_tn_band_impl
    pub(super) fn mm_tn_band(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        m: usize,
        i0: usize,
    ) {
        #[cfg(feature = "fast-math")]
        {
            fm_mm_tn_band(a, b, out, k, n, m, i0)
        }
        #[cfg(not(feature = "fast-math"))]
        {
            mm_tn_band_unfused(a, b, out, k, n, m, i0)
        }
    }

    /// The no-FMA tier of [`mm_tn_band`]; see [`mm_band_unfused`].
    #[allow(clippy::too_many_arguments)] // kernel ABI mirrors mm_tn_band_impl
    pub(super) fn mm_tn_band_unfused(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        m: usize,
        i0: usize,
    ) {
        debug_assert_eq!(a.len(), k * n, "mm_tn_band lhs shape");
        debug_assert_eq!(b.len(), k * m, "mm_tn_band rhs shape");
        debug_assert!(i0 + out.len() / m <= n, "mm_tn_band band range");
        // See `mm_band` for why Miri takes the portable path.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: avx512f was verified on this CPU on the line
                // above, which is the wrapper's only precondition.
                return unsafe { mm_tn_band_avx512(a, b, out, k, n, m, i0) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 was verified on this CPU on the line above.
                return unsafe { mm_tn_band_avx2(a, b, out, k, n, m, i0) };
            }
        }
        mm_tn_band_impl::<MR, NR, false>(a, b, out, k, n, m, i0)
    }

    /// The Adam element loop, monomorphised on whether weight decay is on
    /// (a loop-invariant branch that would otherwise block packing). Each
    /// element is an independent chain of IEEE operations: division and
    /// square root round every lane exactly and rustc never contracts the
    /// mul/add pairs to FMA, so the loop gives the same bits at any lane
    /// width and in either feature configuration. It writes `+0.0` back
    /// into each gradient it has read.
    #[inline(always)]
    fn adam_impl<const WD: bool>(
        step: &AdamStep,
        w: &mut [f32],
        g: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        let AdamStep {
            lr,
            beta1: b1,
            beta2: b2,
            eps,
            weight_decay: wd,
            bias1,
            bias2,
        } = *step;
        let (c1, c2) = (1.0 - b1, 1.0 - b2);
        for (((w, g), m), v) in w.iter_mut().zip(g.iter_mut()).zip(m).zip(v) {
            let gx = if WD { *g + wd * *w } else { *g };
            *m = b1 * *m + c1 * gx;
            *v = b2 * *v + c2 * gx * gx;
            let mhat = *m / bias1;
            let vhat = *v / bias2;
            *w -= lr * mhat / (vhat.sqrt() + eps);
            *g = 0.0;
        }
    }

    /// The portable Adam body: [`adam_impl`] for the step's weight decay.
    #[inline(always)]
    pub(crate) fn adam_body(
        step: &AdamStep,
        w: &mut [f32],
        g: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        if step.weight_decay != 0.0 {
            adam_impl::<true>(step, w, g, m, v)
        } else {
            adam_impl::<false>(step, w, g, m, v)
        }
    }

    // The same Adam body recompiled for wider lanes, exactly as the
    // matmul wrappers above: 16 (AVX-512) or 8 (AVX2) lanes per divide
    // and square root instead of SSE2's 4, with no FMA enabled.

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    // SAFETY: callers must verify `avx512f` at runtime; the body is the
    // safe zipped-slice Adam loop, packed 16 lanes wide.
    unsafe fn adam_avx512(
        step: &AdamStep,
        w: &mut [f32],
        g: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        debug_assert!(std::arch::is_x86_feature_detected!("avx512f"));
        adam_body(step, w, g, m, v)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: callers must verify `avx2` at runtime; the body is the safe
    // zipped-slice Adam loop, packed 8 lanes wide.
    unsafe fn adam_avx2(
        step: &AdamStep,
        w: &mut [f32],
        g: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
        adam_body(step, w, g, m, v)
    }

    /// The Adam element pass on the widest tier this CPU has; every tier
    /// gives the portable body's bits.
    pub(crate) fn adam_pass(
        step: &AdamStep,
        w: &mut [f32],
        g: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        // See `mm_band` for why Miri takes the portable path.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: avx512f was verified on this CPU on the line
                // above, which is the wrapper's only precondition.
                return unsafe { adam_avx512(step, w, g, m, v) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 was verified on this CPU on the line above.
                return unsafe { adam_avx2(step, w, g, m, v) };
            }
        }
        adam_body(step, w, g, m, v)
    }

    /// Dot product with the build-selected per-element chain: plain
    /// `acc += x·y` in increasing order at default features, the
    /// [`FM_KBLOCK`] fused reduction tree under `fast-math` — so the
    /// single-row `matmul_nt` fallback stays bitwise identical to the
    /// blocked transposed path in both configurations.
    pub(super) fn nt_dot(x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len(), "nt_dot length mismatch");
        #[cfg(feature = "fast-math")]
        {
            fm_dot(x, y)
        }
        #[cfg(not(feature = "fast-math"))]
        {
            let mut acc = 0.0f32;
            for (a, b) in x.iter().zip(y.iter()) {
                acc += a * b;
            }
            acc
        }
    }

    /// The `fast-math` per-element chain on contiguous slices: one fused
    /// chain per `FM_KBLOCK` block, partials folded in increasing block
    /// order. This *defines* the tree every fast-math kernel must match.
    #[cfg(feature = "fast-math")]
    fn fm_dot(x: &[f32], y: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for (xb, yb) in x.chunks(FM_KBLOCK).zip(y.chunks(FM_KBLOCK)) {
            let mut part = 0.0f32;
            for (a, b) in xb.iter().zip(yb.iter()) {
                part = a.mul_add(*b, part);
            }
            acc += part;
        }
        acc
    }

    /// `fast-math` micro-kernel body, generic over the `TM × TN` register
    /// tile. Holds one accumulator tile and one block-partial tile; within
    /// a `k`-block every element advances its fused chain in strictly
    /// increasing `kk`, and at each [`FM_KBLOCK`] boundary the partial is
    /// folded into the accumulator with a plain add. The tile shape only
    /// decides how many column chains progress concurrently — the
    /// per-element chain is exactly [`fm_dot`]'s, for every instantiation
    /// and every ISA it is compiled for.
    #[cfg(feature = "fast-math")]
    #[inline(always)]
    // `r` indexes both `part` and the strided `a` loads; the iterator form
    // perturbs the tuned full-tile codegen.
    #[allow(clippy::needless_range_loop)]
    fn fm_band_impl<const TM: usize, const TN: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        m: usize,
    ) {
        let n = out.len().checked_div(m).unwrap_or(0);
        // Real asserts (not debug): they establish the bounds the unchecked
        // full-tile loads below rely on, at a cost of two compares per call.
        assert_eq!(a.len(), n * k, "fm band lhs shape");
        assert_eq!(b.len(), k * m, "fm band rhs shape");
        let mut i0 = 0;
        while i0 < n {
            let ib = TM.min(n - i0);
            let mut j0 = 0;
            while j0 < m {
                let jb = TN.min(m - j0);
                // The out tile is the cross-block accumulator: zeroed, then
                // each block's register partial folds in with a plain add in
                // increasing block order — `(0 + p₀) + p₁ + …`, exactly
                // [`fm_dot`]'s tree. Keeping the accumulator in memory makes
                // the block partial the *only* tile live in the hot loop
                // (one fold per `FM_KBLOCK` `k` steps is cold); a second
                // register tile forces the allocator to spill the partial
                // every iteration, which costs ~3× on AVX-512.
                for r in 0..ib {
                    let base = (i0 + r) * m + j0;
                    out[base..base + jb].fill(0.0);
                }
                let mut k0 = 0;
                while k0 < k {
                    let ke = (k0 + FM_KBLOCK).min(k);
                    let mut part = [[0.0f32; TN]; TM];
                    if ib == TM && jb == TN {
                        // Unrolled by two like the unfused kernel: the two
                        // updates stay sequential per element, so the chain
                        // (and the bits) are unchanged — the scheduler just
                        // gets two independent `B`-row loads per iteration.
                        // Loads are unchecked: a checked `a[(i0+r)*k + kk]`
                        // carries a multiply the range analysis cannot see
                        // through, and the resulting per-iteration side
                        // exits make the allocator spill the partial tile —
                        // measured ~2.5× slower than this loop.
                        //
                        // SAFETY: `a.len() = n·k` and `b.len() = k·m` are
                        // asserted on entry; in this branch `i0 + TM ≤ n`,
                        // `j0 + TN ≤ m`, and `kk + 1 < ke ≤ k`, so every
                        // `(i0+r)·k + kk (+1)` is `< n·k` and every B-row
                        // window `kk·m + j0 .. + TN` ends `≤ k·m`.
                        unsafe {
                            let mut kk = k0;
                            while kk + 2 <= ke {
                                let b0 = &*(b.as_ptr().add(kk * m + j0) as *const [f32; TN]);
                                let b1 = &*(b.as_ptr().add((kk + 1) * m + j0) as *const [f32; TN]);
                                for r in 0..TM {
                                    let av0 = *a.get_unchecked((i0 + r) * k + kk);
                                    let av1 = *a.get_unchecked((i0 + r) * k + kk + 1);
                                    for c in 0..TN {
                                        part[r][c] = av0.mul_add(b0[c], part[r][c]);
                                    }
                                    for c in 0..TN {
                                        part[r][c] = av1.mul_add(b1[c], part[r][c]);
                                    }
                                }
                                kk += 2;
                            }
                            while kk < ke {
                                let brow = &*(b.as_ptr().add(kk * m + j0) as *const [f32; TN]);
                                for r in 0..TM {
                                    let av = *a.get_unchecked((i0 + r) * k + kk);
                                    for c in 0..TN {
                                        part[r][c] = av.mul_add(brow[c], part[r][c]);
                                    }
                                }
                                kk += 1;
                            }
                        }
                    } else {
                        for kk in k0..ke {
                            let brow = &b[kk * m + j0..kk * m + j0 + jb];
                            for (r, partr) in part.iter_mut().enumerate().take(ib) {
                                let av = a[(i0 + r) * k + kk];
                                for (c, &bv) in brow.iter().enumerate() {
                                    partr[c] = av.mul_add(bv, partr[c]);
                                }
                            }
                        }
                    }
                    for (r, partr) in part.iter().enumerate().take(ib) {
                        let base = (i0 + r) * m + j0;
                        for (x, &p) in out[base..base + jb].iter_mut().zip(partr.iter()) {
                            *x += p;
                        }
                    }
                    k0 = ke;
                }
                j0 += TN;
            }
            i0 += TM;
        }
    }

    /// Transposed-A `fast-math` micro-kernel body; strided `A` reads,
    /// same reduction tree as [`fm_band_impl`].
    #[cfg(feature = "fast-math")]
    #[inline(always)]
    // kernel ABI: three slices + four dims beats a struct in the hot loop
    #[allow(clippy::too_many_arguments)]
    // `r` indexes both `part` and the strided `a` loads; the iterator form
    // perturbs the tuned full-tile codegen.
    #[allow(clippy::needless_range_loop)]
    fn fm_tn_band_impl<const TM: usize, const TN: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        m: usize,
        i0: usize,
    ) {
        let nb = out.len().checked_div(m).unwrap_or(0);
        // Real asserts: they establish the bounds the unchecked full-tile
        // loads below rely on.
        assert_eq!(a.len(), k * n, "fm tn band lhs shape");
        assert_eq!(b.len(), k * m, "fm tn band rhs shape");
        assert!(i0 + nb <= n, "fm tn band range");
        let mut r0 = 0;
        while r0 < nb {
            let ib = TM.min(nb - r0);
            let mut j0 = 0;
            while j0 < m {
                let jb = TN.min(m - j0);
                // Same memory-accumulator structure as [`fm_band_impl`]:
                // the out tile folds the register block partials in
                // increasing block order, keeping one tile live.
                for r in 0..ib {
                    let base = (r0 + r) * m + j0;
                    out[base..base + jb].fill(0.0);
                }
                let mut k0 = 0;
                while k0 < k {
                    let ke = (k0 + FM_KBLOCK).min(k);
                    let mut part = [[0.0f32; TN]; TM];
                    if ib == TM && jb == TN {
                        // Unrolled by two; the per-element chain order is
                        // untouched (av0's update precedes av1's). Unchecked
                        // loads for the same reason as [`fm_band_impl`].
                        //
                        // SAFETY: `a.len() = k·n` and `b.len() = k·m` are
                        // asserted on entry; in this branch
                        // `i0 + r0 + TM ≤ i0 + nb ≤ n`, `j0 + TN ≤ m`, and
                        // `kk + 1 < ke ≤ k`, so every `kk·n + i0 + r0 + r`
                        // is `< k·n` and every B-row window ends `≤ k·m`.
                        unsafe {
                            let mut kk = k0;
                            while kk + 2 <= ke {
                                let b0 = &*(b.as_ptr().add(kk * m + j0) as *const [f32; TN]);
                                let b1 = &*(b.as_ptr().add((kk + 1) * m + j0) as *const [f32; TN]);
                                for r in 0..TM {
                                    let av0 = *a.get_unchecked(kk * n + i0 + r0 + r);
                                    let av1 = *a.get_unchecked((kk + 1) * n + i0 + r0 + r);
                                    for c in 0..TN {
                                        part[r][c] = av0.mul_add(b0[c], part[r][c]);
                                    }
                                    for c in 0..TN {
                                        part[r][c] = av1.mul_add(b1[c], part[r][c]);
                                    }
                                }
                                kk += 2;
                            }
                            while kk < ke {
                                let brow = &*(b.as_ptr().add(kk * m + j0) as *const [f32; TN]);
                                for r in 0..TM {
                                    let av = *a.get_unchecked(kk * n + i0 + r0 + r);
                                    for c in 0..TN {
                                        part[r][c] = av.mul_add(brow[c], part[r][c]);
                                    }
                                }
                                kk += 1;
                            }
                        }
                    } else {
                        for kk in k0..ke {
                            let brow = &b[kk * m + j0..kk * m + j0 + jb];
                            for (r, partr) in part.iter_mut().enumerate().take(ib) {
                                let av = a[kk * n + i0 + r0 + r];
                                for (c, &bv) in brow.iter().enumerate() {
                                    partr[c] = av.mul_add(bv, partr[c]);
                                }
                            }
                        }
                    }
                    for (r, partr) in part.iter().enumerate().take(ib) {
                        let base = (r0 + r) * m + j0;
                        for (x, &p) in out[base..base + jb].iter_mut().zip(partr.iter()) {
                            *x += p;
                        }
                    }
                    k0 = ke;
                }
                j0 += TN;
            }
            r0 += TM;
        }
    }

    // `fast-math` ISA variants. `mul_add` lowers to a hardware vfmadd
    // wherever the enabled target features include FMA; on the portable
    // fallback it is a (slow, but bit-exact) libm fma call — the chain is
    // an IEEE operation either way, which is why every path agrees.

    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    #[target_feature(enable = "avx512f,fma")]
    // SAFETY: callers must verify `avx512f` and `fma` via
    // `is_x86_feature_detected!` before calling — that is the *only*
    // obligation `unsafe` marks here. The body is the bounds-checked
    // generic tile over plain slices.
    unsafe fn fm_band_avx512(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize) {
        debug_assert!(std::arch::is_x86_feature_detected!("avx512f"));
        // 8×32 tile: 16 zmm block partials — b-row loads amortise over 8
        // output rows and the chains cover the FMA latency, no spills.
        fm_band_impl::<8, 32>(a, b, out, k, m)
    }

    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2,fma")]
    // SAFETY: callers must verify `avx2` and `fma` at runtime; body is the
    // same bounds-checked generic tile, packed 8 lanes wide.
    unsafe fn fm_band_avx2(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize) {
        debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
        fm_band_impl::<4, 16>(a, b, out, k, m)
    }

    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    #[target_feature(enable = "avx512f,fma")]
    #[allow(clippy::too_many_arguments)] // kernel ABI mirrors fm_tn_band_impl
                                         // SAFETY: callers must verify `avx512f` and `fma` at runtime;
                                         // body is the bounds-checked transposed-A generic tile.
    unsafe fn fm_tn_band_avx512(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        m: usize,
        i0: usize,
    ) {
        debug_assert!(std::arch::is_x86_feature_detected!("avx512f"));
        fm_tn_band_impl::<8, 32>(a, b, out, k, n, m, i0)
    }

    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)] // kernel ABI mirrors fm_tn_band_impl
                                         // SAFETY: callers must verify `avx2` and `fma` at runtime;
                                         // body is the bounds-checked transposed-A generic tile.
    unsafe fn fm_tn_band_avx2(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        m: usize,
        i0: usize,
    ) {
        debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
        fm_tn_band_impl::<4, 16>(a, b, out, k, n, m, i0)
    }

    /// The `fast-math` tier of [`mm_band`]: FMA reduction-tree kernel with
    /// runtime ISA dispatch. All paths re-instantiate the same generic
    /// body, so they agree bitwise; Miri takes the portable path for the
    /// same reason the unfused dispatch does.
    #[cfg(feature = "fast-math")]
    pub(super) fn fm_mm_band(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize) {
        debug_assert_eq!(b.len(), k * m, "mm_band rhs shape");
        debug_assert_eq!(a.len() * m, out.len() * k, "mm_band band shape");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // SAFETY: avx512f and fma were verified on this CPU on the
                // line above, which is the wrapper's only precondition.
                return unsafe { fm_band_avx512(a, b, out, k, m) };
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // SAFETY: avx2 and fma were verified on this CPU above.
                return unsafe { fm_band_avx2(a, b, out, k, m) };
            }
        }
        fm_band_impl::<MR, NR>(a, b, out, k, m)
    }

    /// The `fast-math` tier of [`mm_tn_band`]; see [`fm_mm_band`].
    #[cfg(feature = "fast-math")]
    #[allow(clippy::too_many_arguments)] // kernel ABI mirrors fm_tn_band_impl
    pub(super) fn fm_mm_tn_band(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        m: usize,
        i0: usize,
    ) {
        debug_assert_eq!(a.len(), k * n, "mm_tn_band lhs shape");
        debug_assert_eq!(b.len(), k * m, "mm_tn_band rhs shape");
        debug_assert!(i0 + out.len() / m <= n, "mm_tn_band band range");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // SAFETY: avx512f and fma were verified on this CPU on the
                // line above, which is the wrapper's only precondition.
                return unsafe { fm_tn_band_avx512(a, b, out, k, n, m, i0) };
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // SAFETY: avx2 and fma were verified on this CPU above.
                return unsafe { fm_tn_band_avx2(a, b, out, k, n, m, i0) };
            }
        }
        fm_tn_band_impl::<MR, NR>(a, b, out, k, n, m, i0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_vec(2, 2, vec![58., 64., 139., 154.]));
    }

    #[test]
    fn matmul_nt_matches_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(4, 3, vec![1., 0., 1., 2., 1., 0., 0., 3., 1., 1., 1., 1.]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_tn_matches_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 4, (0..12).map(|x| x as f32).collect());
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn hadamard_and_scale() {
        let a = Tensor::row(vec![1., 2., 3.]);
        let b = Tensor::row(vec![2., 0.5, -1.]);
        let mut h = a.hadamard(&b);
        assert_eq!(h.data(), &[2., 1., -3.]);
        h.scale_assign(2.0);
        assert_eq!(h.data(), &[4., 2., -6.]);
    }

    /// Deterministic pseudo-random tensor (splitmix64-ish) for kernel tests.
    fn pseudo(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut s = seed;
        let data = (0..rows * cols)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z >> 40) as f32 / (1 << 24) as f32) * 4.0 - 2.0
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// The scalar oracle the production kernel must match bitwise in the
    /// active build: the naive increasing-`k` chain at default features,
    /// the `FM_KBLOCK` fused reduction tree under `fast-math`.
    fn oracle(a: &Tensor, b: &Tensor) -> Tensor {
        #[cfg(feature = "fast-math")]
        {
            a.matmul_fma_reference(b)
        }
        #[cfg(not(feature = "fast-math"))]
        {
            a.matmul_reference(b)
        }
    }

    /// The production kernel keeps a fixed per-element accumulation chain,
    /// so it must match the scalar oracle *bitwise* — including ragged
    /// edges that don't fill a full register tile.
    #[test]
    fn blocked_matmul_is_bitwise_equal_to_reference() {
        let shapes: &[(usize, usize, usize)] = if cfg!(miri) {
            &[(1, 1, 1), (3, 5, 7), (5, 17, 33)]
        } else {
            &[
                (1, 1, 1),
                (3, 5, 7),
                (4, 16, 16),
                (5, 17, 33),
                (13, 9, 21),
                (32, 24, 48),
            ]
        };
        for &(n, k, m) in shapes {
            let a = pseudo(n, k, 0xA0 + n as u64);
            let b = pseudo(k, m, 0xB0 + m as u64);
            assert_eq!(
                a.matmul(&b).data(),
                oracle(&a, &b).data(),
                "shape ({n},{k},{m})"
            );
        }
    }

    /// `matmul_unfused` is the always-available no-FMA tier: it must match
    /// the naive scalar reference bitwise in *both* feature configurations
    /// (it ignores `fast-math` by design, so benches can compare tiers
    /// inside one binary).
    #[test]
    fn unfused_matmul_is_bitwise_equal_to_reference_in_every_config() {
        let shapes: &[(usize, usize, usize)] = if cfg!(miri) {
            &[(3, 5, 7)]
        } else {
            &[(1, 1, 1), (3, 5, 7), (4, 16, 16), (13, 9, 21), (32, 24, 48)]
        };
        for &(n, k, m) in shapes {
            let a = pseudo(n, k, 0x1A0 + n as u64);
            let b = pseudo(k, m, 0x1B0 + m as u64);
            assert_eq!(
                a.matmul_unfused(&b).data(),
                a.matmul_reference(&b).data(),
                "shape ({n},{k},{m})"
            );
            let ta = pseudo(k, n, 0x1C0 + n as u64);
            assert_eq!(
                ta.matmul_tn_unfused(&b).data(),
                ta.transpose().matmul_reference(&b).data(),
                "tn shape ({n},{k},{m})"
            );
        }
    }

    /// Under `fast-math` the fused kernel must differ from the unfused tier
    /// somewhere on real data (otherwise the feature is wired to nothing),
    /// while agreeing with its own reduction-tree oracle bitwise.
    #[cfg(feature = "fast-math")]
    #[test]
    fn fast_math_kernel_actually_contracts() {
        let (n, k, m) = (16, 130, 24);
        let a = pseudo(n, k, 0x2A);
        let b = pseudo(k, m, 0x2B);
        let fused = a.matmul(&b);
        assert_eq!(fused.data(), a.matmul_fma_reference(&b).data());
        assert_ne!(
            fused.data(),
            a.matmul_unfused(&b).data(),
            "fused and unfused tiers should disagree in low bits on random data"
        );
    }

    #[test]
    fn matmul_tn_is_bitwise_equal_to_explicit_transpose() {
        let shapes: &[(usize, usize, usize)] = if cfg!(miri) {
            &[(1, 1, 1), (5, 3, 7), (17, 5, 33)]
        } else {
            &[(1, 1, 1), (5, 3, 7), (16, 4, 16), (17, 5, 33), (9, 13, 21)]
        };
        for &(k, n, m) in shapes {
            let a = pseudo(k, n, 0xC0 + n as u64);
            let b = pseudo(k, m, 0xD0 + m as u64);
            assert_eq!(
                a.matmul_tn(&b).data(),
                oracle(&a.transpose(), &b).data(),
                "shape ({k},{n},{m})"
            );
        }
    }

    #[test]
    fn matmul_nt_is_bitwise_equal_to_explicit_transpose() {
        let shapes: &[(usize, usize, usize)] = if cfg!(miri) {
            &[(1, 1, 1), (3, 5, 7), (5, 17, 33)]
        } else {
            &[(1, 1, 1), (1, 8, 40), (3, 5, 7), (5, 17, 33), (13, 9, 21)]
        };
        for &(n, k, m) in shapes {
            let a = pseudo(n, k, 0xE0 + n as u64);
            let b = pseudo(m, k, 0xF0 + m as u64);
            assert_eq!(
                a.matmul_nt(&b).data(),
                oracle(&a, &b.transpose()).data(),
                "shape ({n},{k},{m})"
            );
        }
    }

    /// Regression for the removed `a == 0.0` fast path: a zero coefficient
    /// against NaN/∞ must produce NaN per IEEE 754, not silently flush to 0.
    #[test]
    fn zero_times_non_finite_propagates_nan() {
        let a = Tensor::from_vec(2, 2, vec![0.0, 0.0, 1.0, 0.0]);
        let b = Tensor::from_vec(2, 2, vec![f32::NAN, f32::INFINITY, 1.0, 2.0]);
        let c = a.matmul(&b);
        assert!(c.get(0, 0).is_nan(), "0·NaN + 0·1 must be NaN");
        assert!(c.get(0, 1).is_nan(), "0·∞ + 0·2 must be NaN");
        assert!(c.get(1, 0).is_nan(), "1·NaN must be NaN");
        let tn = a.transpose().matmul_tn(&b);
        assert!(tn.get(0, 0).is_nan(), "matmul_tn must propagate NaN too");
        let r = a.matmul_reference(&b);
        assert!(r.get(0, 0).is_nan() && r.get(0, 1).is_nan());
    }

    /// The row-banded parallel matmul must be byte-identical to sequential
    /// at every thread count (disjoint output rows, same per-element order).
    ///
    /// The shape must satisfy `n·k·m ≥ MIN_PAR_WORK` or `matmul_par`
    /// silently falls back to sequential and the test is vacuous:
    /// 37·29·63 = 67,599 ≥ 65,536 crosses the threshold while keeping
    /// ragged (non-tile-multiple) edges in every dimension. Under Miri that
    /// much arithmetic takes minutes, so we drop below the threshold and
    /// only check the fallback agrees — the banded path's soundness story
    /// (disjoint `split_at_mut` bands) is covered by cosmo-exec's own
    /// Miri-run scope tests.
    #[test]
    fn parallel_matmuls_match_sequential_bitwise() {
        let (n, k, m) = if cfg!(miri) { (7, 5, 9) } else { (37, 29, 63) };
        if !cfg!(miri) {
            assert!(
                n * k * m >= kernels::MIN_PAR_WORK,
                "shape must hit band path"
            );
        }
        let a = pseudo(n, k, 1);
        let b = pseudo(k, m, 2);
        let seq = a.matmul(&b);
        let thread_grid: &[usize] = if cfg!(miri) {
            &[1, 4]
        } else {
            &[1, 2, 3, 4, 8]
        };
        for &threads in thread_grid {
            let pool = WorkerPool::new(threads);
            assert_eq!(a.matmul_par(&b, &pool).data(), seq.data(), "t={threads}");
        }
    }
}
