//! First-order optimizers over a [`ParamStore`].
//!
//! Each step makes one pass per parameter tensor, reading the gradient in
//! place and updating the value and the optimizer state element by
//! element; no gradient is copied.

use crate::params::ParamStore;
use crate::tensor::Tensor;

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

    /// Apply one update from the store's current gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        let ids = store.ids();
        while self.m.len() < ids.len() {
            let (r, c) = store.value(ids[self.m.len()]).shape();
            self.m.push(Tensor::zeros(r, c));
            self.v.push(Tensor::zeros(r, c));
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (b1, b2, lr, eps, wd) = (self.beta1, self.beta2, self.lr, self.eps, self.weight_decay);
        for (i, id) in ids.into_iter().enumerate() {
            if store.is_frozen(id) {
                continue;
            }
            let (value, grad) = store.value_mut_and_grad(id);
            for (((w, &gx), mx), vx) in value
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(self.m[i].data_mut())
                .zip(self.v[i].data_mut())
            {
                let g = if wd != 0.0 { gx + wd * *w } else { gx };
                *mx = b1 * *mx + (1.0 - b1) * g;
                *vx = b2 * *vx + (1.0 - b2) * g * g;
                let mhat = *mx / bc1;
                let vhat = *vx / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
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
        let w = quadratic_descends(move |s| opt.step(s));
        assert!((w - 3.0).abs() < 1e-2, "w={w}");
    }

    #[test]
    fn weight_decay_shrinks_solution() {
        let mut opt = Adam::new(0.1);
        opt.weight_decay = 0.5;
        let w = quadratic_descends(move |s| opt.step(s));
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
        opt.step(&mut store);
        opt.step(&mut store);
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
            opt.step(&mut store);
        }
        assert_eq!(store.value(ice).item(), 0.0, "frozen param moved");
        assert!(store.value(free).item() > 0.5, "free param should train");
    }
}
