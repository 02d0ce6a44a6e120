//! Named parameter storage with gradient buffers.
//!
//! A [`ParamStore`] owns every trainable tensor of a model. One training
//! step is [`crate::Tape::grad_step`]: its closure references parameters
//! with `tape.param(store, id)` (or gathers rows of one with
//! `tape.gather(store, id, rows)`) and returns the loss; the step
//! backpropagates, replaces the store's gradients with the tape's, and the
//! caller then steps an optimizer from [`crate::opt`].
//!
//! Each gradient buffer carries a clean flag: set when the buffer is known
//! to read `+0.0` everywhere, cleared by any mutable borrow of it.
//! [`ParamStore::zero_grads`] clears only the buffers that are not clean.
//! [`crate::opt::Adam`] clears every gradient it reads in the same pass
//! that reads it and marks it clean, so a step leaves nothing for the next
//! `zero_grads` but frozen parameters; `Sgd` leaves its gradients as they
//! are, and they get the dense clear.

use crate::tensor::Tensor;

/// Opaque handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// Container of named parameters and their gradients.
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
    frozen: Vec<bool>,
    /// `clean[i]`: every element of `grads[i]` is `+0.0`.
    clean: Vec<bool>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter; the gradient buffer starts at zero.
    pub fn add(&mut self, name: &str, value: Tensor) -> ParamId {
        let (r, c) = value.shape();
        self.names.push(name.to_string());
        self.values.push(value);
        self.grads.push(Tensor::zeros(r, c));
        self.frozen.push(false);
        self.clean.push(true);
        ParamId(self.values.len() - 1)
    }

    /// Current value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable value (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Current gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Mutable gradient buffer.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.clean[id.0] = false;
        &mut self.grads[id.0]
    }

    /// Mutable value and its gradient together (for optimizer steps that
    /// read the gradient while writing the value).
    pub fn value_mut_and_grad(&mut self, id: ParamId) -> (&mut Tensor, &Tensor) {
        (&mut self.values[id.0], &self.grads[id.0])
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All parameter ids.
    pub fn ids(&self) -> Vec<ParamId> {
        (0..self.values.len()).map(ParamId).collect()
    }

    /// Freeze a parameter: optimizers will skip it (used for the
    /// fixed-encoder regimes of the relevance experiments).
    pub fn freeze(&mut self, id: ParamId) {
        self.frozen[id.0] = true;
    }

    /// Is the parameter frozen?
    pub fn is_frozen(&self, id: ParamId) -> bool {
        self.frozen[id.0]
    }

    /// Each parameter's value and gradient for an optimizer pass that
    /// sets every gradient element it reads to `+0.0`, with `None` for
    /// frozen parameters. Each gradient handed out is marked clean, so the
    /// caller must clear all of it.
    pub(crate) fn params_to_clear(
        &mut self,
    ) -> impl Iterator<Item = Option<(&mut [f32], &mut [f32])>> + '_ {
        self.values
            .iter_mut()
            .zip(self.grads.iter_mut())
            .zip(self.frozen.iter().zip(self.clean.iter_mut()))
            .map(|((value, grad), (&frozen, clean))| {
                if frozen {
                    return None;
                }
                *clean = true;
                Some((value.data_mut(), grad.data_mut()))
            })
    }

    /// Reset all gradient buffers to zero, skipping those already clean.
    pub fn zero_grads(&mut self) {
        for (g, clean) in self.grads.iter_mut().zip(self.clean.iter_mut()) {
            if !*clean {
                g.zero_();
                *clean = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::zeros(2, 3));
        let b = s.add("b", Tensor::zeros(1, 3));
        assert_eq!(s.len(), 2);
        assert_eq!(s.name(a), "w");
        assert_eq!(s.value(b).shape(), (1, 3));
        assert_eq!(s.grad(a).shape(), (2, 3));
    }

    #[test]
    fn zero_grads_resets() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::zeros(1, 2));
        s.grad_mut(a).data_mut()[0] = 5.0;
        s.zero_grads();
        assert_eq!(s.grad(a).data(), &[0.0, 0.0]);
    }
}
