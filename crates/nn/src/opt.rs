//! First-order optimizers over a [`ParamStore`].
//!
//! Each step makes one pass per parameter tensor, reading the gradient in
//! place and updating the value and the optimizer state element by
//! element; no gradient is copied.
//!
//! [`Adam`]'s pass also clears each gradient it reads and marks it clean
//! in the store, so the next [`ParamStore::zero_grads`] skips it. The
//! element loop is a runtime-dispatched kernel in `tensor.rs`, and a
//! tensor above [`ADAM_SPLIT`] elements is cut into one contiguous chunk
//! per pool worker. Every element is updated on its own, so neither the
//! lane width nor the cut changes a bit.

use crate::params::{ParamId, ParamStore};
use crate::tensor::{self, Tensor};
use cosmo_exec::WorkerPool;

/// Tensors with more elements than this are split across the pool in
/// [`Adam::step`]; smaller ones run on the calling thread. 16k elements
/// take ~18 µs at the measured 1.1 ns per element.
pub const ADAM_SPLIT: usize = 1 << 14;

/// Stochastic gradient descent with optional momentum and weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    /// L2 weight decay added to gradients.
    pub weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Apply one update from the store's current gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        let ids = store.ids();
        if self.velocity.len() < ids.len() {
            for id in ids.iter().skip(self.velocity.len()) {
                let (r, c) = store.value(*id).shape();
                self.velocity.push(Tensor::zeros(r, c));
            }
        }
        let (lr, mom, wd) = (self.lr, self.momentum, self.weight_decay);
        for (i, id) in ids.into_iter().enumerate() {
            if store.is_frozen(id) {
                continue;
            }
            let (value, grad) = store.value_mut_and_grad(id);
            let wg = value.data_mut().iter_mut().zip(grad.data());
            if mom != 0.0 {
                for ((w, &gx), vel) in wg.zip(self.velocity[i].data_mut()) {
                    let g = if wd != 0.0 { gx + wd * *w } else { gx };
                    *vel = *vel * mom + g;
                    *w += -lr * *vel;
                }
            } else {
                for (w, &gx) in wg {
                    let g = if wd != 0.0 { gx + wd * *w } else { gx };
                    *w += -lr * g;
                }
            }
        }
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    /// L2 weight decay added to gradients.
    pub weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

/// The constants of one Adam step, shared by every element it updates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamStep {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    /// L2 weight decay added to gradients (0 skips the add).
    pub weight_decay: f32,
    /// First-moment bias correction `1 − β₁ᵗ`.
    pub bias1: f32,
    /// Second-moment bias correction `1 − β₂ᵗ`.
    pub bias2: f32,
}

impl AdamStep {
    /// Update the values `w` and moments `m`, `v` from the gradients `g`
    /// element by element, then set every `g` to `+0.0`. Runs on the
    /// widest ISA tier this CPU has (the portable one under Miri); every
    /// tier gives [`AdamStep::apply_portable`]'s bits.
    pub fn apply(&self, w: &mut [f32], g: &mut [f32], m: &mut [f32], v: &mut [f32]) {
        check_lengths(w, g, m, v);
        tensor::adam_pass(self, w, g, m, v)
    }

    /// [`AdamStep::apply`] on the baseline-ISA build of the same body:
    /// the oracle of the dispatched tiers.
    pub fn apply_portable(&self, w: &mut [f32], g: &mut [f32], m: &mut [f32], v: &mut [f32]) {
        check_lengths(w, g, m, v);
        tensor::adam_body(self, w, g, m, v)
    }
}

fn check_lengths(w: &[f32], g: &[f32], m: &[f32], v: &[f32]) {
    let n = w.len();
    assert!(
        g.len() == n && m.len() == n && v.len() == n,
        "Adam slices differ in length: w {n}, g {}, m {}, v {}",
        g.len(),
        m.len(),
        v.len()
    );
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Step count so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one update from the store's current gradients and clear
    /// them. Each tensor above [`ADAM_SPLIT`] elements is cut into one
    /// contiguous chunk per `pool` worker; the bits are the same at any
    /// pool size. Frozen parameters are skipped and keep their gradients.
    pub fn step(&mut self, store: &mut ParamStore, pool: &WorkerPool) {
        let n = store.len();
        while self.m.len() < n {
            let (r, c) = store.value(ParamId(self.m.len())).shape();
            self.m.push(Tensor::zeros(r, c));
            self.v.push(Tensor::zeros(r, c));
        }
        self.t += 1;
        let step = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            weight_decay: self.weight_decay,
            bias1: 1.0 - self.beta1.powi(self.t as i32),
            bias2: 1.0 - self.beta2.powi(self.t as i32),
        };
        let lanes = pool.threads();
        let moments = self.m.iter_mut().zip(self.v.iter_mut());
        pool.scope(|s| {
            for (param, (m, v)) in store.params_to_clear().zip(moments) {
                let Some((w, g)) = param else { continue };
                let (m, v) = (m.data_mut(), v.data_mut());
                if lanes == 1 || w.len() <= ADAM_SPLIT {
                    step.apply(w, g, m, v);
                    continue;
                }
                let chunk = w.len().div_ceil(lanes);
                let chunks = w
                    .chunks_mut(chunk)
                    .zip(g.chunks_mut(chunk))
                    .zip(m.chunks_mut(chunk).zip(v.chunks_mut(chunk)));
                for ((w, g), (m, v)) in chunks {
                    s.spawn(move || step.apply(w, g, m, v));
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimise f(w) = (w − 3)² with each optimizer.
    fn quadratic_descends(mut step: impl FnMut(&mut ParamStore)) -> f32 {
        let mut store = ParamStore::new();
        let p = store.add("w", Tensor::scalar(0.0));
        for _ in 0..200 {
            let mut tape = Tape::new();
            let w = tape.param(&store, p);
            let c = tape.add_scalar(w, -3.0);
            let sq = tape.mul(c, c);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            store.zero_grads();
            tape.accumulate_param_grads(&mut store);
            step(&mut store);
        }
        store.value(p).item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let w = quadratic_descends(move |s| opt.step(s));
        assert!((w - 3.0).abs() < 1e-3, "w={w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let w = quadratic_descends(move |s| opt.step(s));
        assert!((w - 3.0).abs() < 1e-2, "w={w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = quadratic_descends(move |s| opt.step(s, &WorkerPool::new(1)));
        assert!((w - 3.0).abs() < 1e-2, "w={w}");
    }

    #[test]
    fn weight_decay_shrinks_solution() {
        let mut opt = Adam::new(0.1);
        opt.weight_decay = 0.5;
        let w = quadratic_descends(move |s| opt.step(s, &WorkerPool::new(1)));
        assert!(
            w < 3.0 && w > 1.0,
            "decayed optimum should sit below 3, got {w}"
        );
    }

    #[test]
    fn adam_counts_steps() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::scalar(1.0));
        let mut opt = Adam::new(0.01);
        let pool = WorkerPool::new(1);
        opt.step(&mut store, &pool);
        opt.step(&mut store, &pool);
        assert_eq!(opt.steps(), 2);
    }
}

#[cfg(test)]
mod freeze_tests {
    use super::*;
    use crate::tape::Tape;

    #[test]
    fn frozen_params_do_not_move() {
        let mut store = ParamStore::new();
        let free = store.add("free", Tensor::scalar(0.0));
        let ice = store.add("ice", Tensor::scalar(0.0));
        store.freeze(ice);
        let mut opt = Adam::new(0.1);
        for _ in 0..30 {
            let mut tape = Tape::new();
            let a = tape.param(&store, free);
            let b = tape.param(&store, ice);
            let s = tape.add(a, b);
            let c = tape.add_scalar(s, -2.0);
            let sq = tape.mul(c, c);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            store.zero_grads();
            tape.accumulate_param_grads(&mut store);
            opt.step(&mut store, &WorkerPool::new(1));
        }
        assert_eq!(store.value(ice).item(), 0.0, "frozen param moved");
        assert!(store.value(free).item() > 0.5, "free param should train");
    }
}

#[cfg(test)]
mod pass_tests {
    use super::*;
    use crate::tape::Tape;

    /// Deterministic values in [-1, 1] (splitmix-style).
    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let mut h = (i as u64 ^ seed.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 31;
                ((h >> 40) % 2001) as f32 / 1000.0 - 1.0
            })
            .collect()
    }

    /// Gradients that cycle through the edge cases among ordinary values.
    fn edgy_grads(n: usize, seed: u64) -> Vec<f32> {
        let special = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            -f32::MIN_POSITIVE / 3.0,
            1e30,
            -3e29,
            f32::MAX,
            f32::NAN,
        ];
        pseudo(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, x)| {
                if i % 3 == 1 {
                    special[i / 3 % special.len()]
                } else {
                    x
                }
            })
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn step_consts(weight_decay: f32) -> AdamStep {
        AdamStep {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            bias1: 1.0 - 0.9f32.powi(3),
            bias2: 1.0 - 0.999f32.powi(3),
        }
    }

    /// The dispatched pass against the portable body, bit for bit, on
    /// every length up to a few vector widths past 64 (all loop tails) and
    /// one long tensor, with and without weight decay.
    #[test]
    fn dispatched_adam_pass_matches_portable_body_bitwise() {
        let long = if cfg!(miri) { 1_000 } else { 100_000 };
        for wd in [0.0, 0.01] {
            let step = step_consts(wd);
            for n in (0..=67).chain([long]) {
                let seed = n as u64;
                let g = edgy_grads(n, seed);
                let w = pseudo(n, seed ^ 1);
                let m: Vec<f32> = pseudo(n, seed ^ 2).iter().map(|x| x * 0.1).collect();
                let v: Vec<f32> = pseudo(n, seed ^ 3).iter().map(|x| x * x).collect();
                let (mut w0, mut g0, mut m0, mut v0) = (w.clone(), g.clone(), m.clone(), v.clone());
                step.apply_portable(&mut w0, &mut g0, &mut m0, &mut v0);
                let (mut w1, mut g1, mut m1, mut v1) = (w, g, m, v);
                step.apply(&mut w1, &mut g1, &mut m1, &mut v1);
                assert_eq!(bits(&w1), bits(&w0), "w, n={n} wd={wd}");
                assert_eq!(bits(&m1), bits(&m0), "m, n={n} wd={wd}");
                assert_eq!(bits(&v1), bits(&v0), "v, n={n} wd={wd}");
                assert!(g0.iter().chain(&g1).all(|x| x.to_bits() == 0), "n={n}");
            }
        }
    }

    /// A store with one tensor above the split size, one below and one
    /// frozen; `fill` writes this step's gradients.
    fn split_store() -> ParamStore {
        let mut store = ParamStore::new();
        let rows = if cfg!(miri) { 2 } else { ADAM_SPLIT / 7 + 3 };
        store.add("big", Tensor::from_vec(rows, 21, pseudo(rows * 21, 5)));
        store.add("small", Tensor::from_vec(3, 5, pseudo(15, 6)));
        let ice = store.add("ice", Tensor::from_vec(2, 2, pseudo(4, 7)));
        store.freeze(ice);
        store
    }

    fn fill(store: &mut ParamStore, step: u64) {
        for id in store.ids() {
            let grad = store.grad_mut(id).data_mut();
            let g = edgy_grads(grad.len(), step * 31 + id.0 as u64);
            grad.copy_from_slice(&g);
        }
    }

    #[test]
    fn adam_step_bits_do_not_depend_on_the_pool_size() {
        if !cfg!(miri) {
            assert!(split_store().value(ParamId(0)).data().len() > ADAM_SPLIT);
        }
        let run = |threads: usize| {
            let pool = WorkerPool::new(threads);
            let mut store = split_store();
            let mut opt = Adam::new(0.05);
            opt.weight_decay = 0.01;
            for step in 0..3 {
                fill(&mut store, step);
                opt.step(&mut store, &pool);
            }
            store
                .ids()
                .into_iter()
                .map(|id| bits(store.value(id).data()))
                .collect::<Vec<_>>()
        };
        let one = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), one, "pool of {threads}");
        }
    }

    fn toy_loss(tape: &mut Tape, store: &ParamStore) -> crate::Var {
        let w = tape.param(store, ParamId(0));
        let s = tape.param(store, ParamId(1));
        let x = tape.input(Tensor::from_vec(1, 2, vec![0.5, -1.5]));
        let a = tape.sum_all(w);
        let b = tape.mul(s, s);
        let b = tape.sum_all(b);
        let c = tape.sum_all(x);
        let ab = tape.add(a, b);
        tape.add(ab, c)
    }

    /// Adam leaves every unfrozen gradient at `+0.0` and marked clean; the
    /// next `grad_step` must still replace the gradients, exactly as on a
    /// store whose gradients were cleared densely.
    #[test]
    fn adam_clears_gradients_and_grad_step_still_replaces_them() {
        let mut store = split_store();
        fill(&mut store, 0);
        Adam::new(0.05).step(&mut store, &WorkerPool::new(2));
        for id in store.ids().into_iter().filter(|&id| !store.is_frozen(id)) {
            assert!(store.grad(id).data().iter().all(|x| x.to_bits() == 0));
        }
        let mut dense = store.clone();
        fill(&mut dense, 9);
        dense.zero_grads();
        let mut tape = Tape::new();
        let a = tape.grad_step(&mut store, toy_loss);
        let b = tape.grad_step(&mut dense, toy_loss);
        assert_eq!(a.to_bits(), b.to_bits());
        for id in store.ids() {
            assert_eq!(bits(store.grad(id).data()), bits(dense.grad(id).data()));
        }
        let again = tape.grad_step(&mut store, toy_loss);
        assert_eq!(again.to_bits(), a.to_bits());
        assert_eq!(
            bits(store.grad(ParamId(1)).data()),
            bits(dense.grad(ParamId(1)).data())
        );
    }

    /// Gradients no pass has cleared — a frozen parameter's under Adam,
    /// every one under Sgd — keep their values until `zero_grads` clears
    /// them densely.
    #[test]
    fn frozen_and_sgd_gradients_get_the_dense_clear() {
        let mut store = split_store();
        fill(&mut store, 1);
        Adam::new(0.05).step(&mut store, &WorkerPool::new(1));
        let ice = ParamId(2);
        assert!(store.grad(ice).data().iter().any(|&x| x != 0.0));
        store.zero_grads();
        assert!(store.grad(ice).data().iter().all(|x| x.to_bits() == 0));

        fill(&mut store, 2);
        let before = store.grad(ParamId(1)).clone();
        Sgd::with_momentum(0.1, 0.9).step(&mut store);
        assert_eq!(bits(store.grad(ParamId(1)).data()), bits(before.data()));
        store.zero_grads();
        for id in store.ids() {
            assert!(store.grad(id).data().iter().all(|x| x.to_bits() == 0));
        }
    }
}
