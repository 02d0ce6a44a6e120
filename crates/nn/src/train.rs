//! Deterministic data-parallel minibatch training.
//!
//! [`ShardRunner`] owns a [`WorkerPool`] and one reusable [`Tape`] per
//! shard. A gradient step splits the minibatch into shards, runs each
//! shard's forward/backward on its own tape (in parallel when the pool has
//! workers), then merges parameter gradients **in shard-index order** on
//! the calling thread.
//!
//! # Determinism
//!
//! Two properties make a step's result a pure function of the data and the
//! shard structure, independent of thread count:
//!
//! 1. Shards are contiguous ranges computed from the batch size and the
//!    `microbatch` knob alone — never from `threads`. The same batch always
//!    produces the same shards.
//! 2. Each shard's tape touches only its own buffers during the parallel
//!    region (the [`crate::params::ParamStore`] is shared read-only), and
//!    the merge `Σ shards` runs sequentially in a fixed order afterwards.
//!
//! So `threads = 1` and `threads = 8` produce byte-identical parameters.
//! Sharding a batch *does* regroup the floating-point sums relative to the
//! single-tape whole-batch formulation, which is why trainers default to
//! one shard (`microbatch = 0`) and only split when asked.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use cosmo_exec::WorkerPool;

use crate::params::ParamStore;
use crate::tape::{Tape, Var};

/// Resolve a `threads` knob the same way `PipelineConfig` does:
/// `0` = every available core.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        WorkerPool::available_parallelism()
    } else {
        threads
    }
}

/// Split `n_items` into contiguous shards of at most `microbatch` items.
/// `microbatch = 0` (or ≥ `n_items`) keeps the whole batch in one shard —
/// the exact single-tape formulation. The split depends only on these two
/// numbers, never on thread count.
pub fn shard_ranges(n_items: usize, microbatch: usize) -> Vec<Range<usize>> {
    if n_items == 0 {
        return Vec::new();
    }
    let size = if microbatch == 0 { n_items } else { microbatch };
    (0..n_items.div_ceil(size))
        .map(|s| s * size..((s + 1) * size).min(n_items))
        .collect()
}

/// A worker pool plus per-shard reusable tapes for gradient steps.
pub struct ShardRunner {
    pool: WorkerPool,
    tapes: Vec<Tape>,
}

impl ShardRunner {
    /// Build a runner with the given thread count (`0` = all cores,
    /// `1` = run shards inline on the calling thread).
    pub fn new(threads: usize) -> Self {
        ShardRunner {
            pool: WorkerPool::new(effective_threads(threads)),
            tapes: Vec::new(),
        }
    }

    /// Worker count of the underlying pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// One gradient step over `shards.len()` shards.
    ///
    /// For each shard index `i`, `build(tape, store, i)` records the
    /// shard's forward pass and returns its scalar loss node; the shard's
    /// contribution must already be scaled so that the *sum* over shards
    /// equals the intended batch loss (e.g. scale each shard's mean by
    /// `shard_len / batch_len`). The runner then backpropagates every
    /// shard, zeroes the store's gradients, and accumulates shard
    /// gradients in shard-index order.
    ///
    /// Returns the per-shard loss values (sum them for the batch loss).
    /// Panics from shard closures are re-raised on the calling thread,
    /// first shard first.
    pub fn grad_step<F>(&mut self, store: &mut ParamStore, n_shards: usize, build: F) -> Vec<f32>
    where
        F: Fn(&mut Tape, &ParamStore, usize) -> Var + Sync,
    {
        while self.tapes.len() < n_shards {
            self.tapes.push(Tape::new());
        }
        let tapes = &mut self.tapes[..n_shards];
        let shared: &ParamStore = store;
        let mut losses = vec![0.0f32; n_shards];
        let mut panics: Vec<_> = (0..n_shards).map(|_| None).collect();
        let build = &build;
        self.pool.scope(|s| {
            for ((i, tape), (loss_slot, panic_slot)) in tapes
                .iter_mut()
                .enumerate()
                .zip(losses.iter_mut().zip(panics.iter_mut()))
            {
                s.spawn(move || {
                    // Scope::spawn swallows panics to protect the pool;
                    // capture the payload and re-raise it below instead.
                    match catch_unwind(AssertUnwindSafe(|| {
                        tape.reset();
                        let loss = build(tape, shared, i);
                        tape.backward(loss);
                        tape.value(loss).item()
                    })) {
                        Ok(l) => *loss_slot = l,
                        Err(p) => *panic_slot = Some(p),
                    }
                });
            }
        });
        for p in panics.iter_mut() {
            if let Some(payload) = p.take() {
                resume_unwind(payload);
            }
        }
        store.zero_grads();
        for tape in tapes.iter_mut() {
            tape.accumulate_param_grads(store);
        }
        losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn shard_ranges_cover_and_ignore_threads() {
        assert_eq!(shard_ranges(10, 0), vec![0..10]);
        assert_eq!(shard_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(shard_ranges(10, 16), vec![0..10]);
        assert_eq!(shard_ranges(0, 4), Vec::<Range<usize>>::new());
    }

    fn toy_store() -> (ParamStore, crate::params::ParamId) {
        let mut store = ParamStore::new();
        let w = store.add(
            "w",
            Tensor::from_vec(4, 2, (0..8).map(|i| 0.1 * i as f32 - 0.3).collect()),
        );
        (store, w)
    }

    /// Shard loss for rows `range` of a fixed toy regression problem,
    /// scaled so shard losses sum to the batch mean.
    fn toy_shard_loss(
        tape: &mut Tape,
        store: &ParamStore,
        w: crate::params::ParamId,
        range: Range<usize>,
        batch_len: usize,
    ) -> Var {
        let xs: Vec<f32> = (0..8 * 4)
            .map(|i| ((i * 13) % 7) as f32 * 0.25 - 0.75)
            .collect();
        let shard: Vec<f32> = xs[range.start * 4..range.end * 4].to_vec();
        let x = tape.input(Tensor::from_vec(range.len(), 4, shard));
        let wv = tape.param(store, w);
        let y = tape.matmul(x, wv);
        let sq = tape.mul(y, y);
        let mean = tape.mean_all(sq);
        tape.scale(mean, range.len() as f32 / batch_len as f32)
    }

    /// The whole point: gradients and losses must be byte-identical at
    /// every thread count, given the same shard structure.
    #[test]
    fn grad_step_is_bitwise_identical_across_thread_counts() {
        let shards = shard_ranges(8, 3);
        let mut reference: Option<(Vec<f32>, Tensor)> = None;
        let thread_grid: &[usize] = if cfg!(miri) { &[1, 4] } else { &[1, 2, 4, 8] };
        for &threads in thread_grid {
            let (mut store, w) = toy_store();
            let mut runner = ShardRunner::new(threads);
            let ranges = shards.clone();
            let losses = runner.grad_step(&mut store, ranges.len(), |tape, s, i| {
                toy_shard_loss(tape, s, w, ranges[i].clone(), 8)
            });
            let grad = store.grad(w).clone();
            match &reference {
                None => reference = Some((losses, grad)),
                Some((rl, rg)) => {
                    assert_eq!(&losses, rl, "losses diverged at threads={threads}");
                    assert_eq!(
                        grad.data(),
                        rg.data(),
                        "grads diverged at threads={threads}"
                    );
                }
            }
        }
    }

    /// One shard (`microbatch = 0`) must reproduce the plain single-tape
    /// step exactly — the default trainer path is the legacy math.
    #[test]
    fn single_shard_matches_plain_tape_bitwise() {
        let (mut store, w) = toy_store();
        let mut tape = Tape::new();
        let loss = toy_shard_loss(&mut tape, &store, w, 0..8, 8);
        tape.backward(loss);
        store.zero_grads();
        tape.accumulate_param_grads(&mut store);
        let expect_loss = tape.value(loss).item();
        let expect_grad = store.grad(w).clone();

        let (mut store2, w2) = toy_store();
        let mut runner = ShardRunner::new(4);
        let losses = runner.grad_step(&mut store2, 1, |tape, s, _| {
            toy_shard_loss(tape, s, w2, 0..8, 8)
        });
        assert_eq!(losses, vec![expect_loss]);
        assert_eq!(store2.grad(w2).data(), expect_grad.data());
    }

    /// Tapes are reused across steps; results must not drift.
    #[test]
    fn runner_reuses_tapes_without_drift() {
        let (mut store, w) = toy_store();
        let mut runner = ShardRunner::new(2);
        let shards = shard_ranges(8, 4);
        let first = runner.grad_step(&mut store, shards.len(), |tape, s, i| {
            toy_shard_loss(tape, s, w, shards[i].clone(), 8)
        });
        let first_grad = store.grad(w).clone();
        for step in 0..3 {
            let again = runner.grad_step(&mut store, shards.len(), |tape, s, i| {
                toy_shard_loss(tape, s, w, shards[i].clone(), 8)
            });
            assert_eq!(again, first, "loss drifted at step {step}");
            assert_eq!(store.grad(w).data(), first_grad.data());
        }
    }

    #[test]
    fn shard_panic_is_reraised() {
        let (mut store, w) = toy_store();
        let mut runner = ShardRunner::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            runner.grad_step(&mut store, 2, |tape, s, i| {
                if i == 1 {
                    panic!("shard failure");
                }
                toy_shard_loss(tape, s, w, 0..4, 8)
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
    }
}
