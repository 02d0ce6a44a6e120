//! # cosmo-nn
//!
//! A compact, dependency-free neural-network substrate: dense 2-D tensors,
//! tape-based reverse-mode automatic differentiation, common layers and
//! first-order optimizers.
//!
//! The COSMO paper fine-tunes DeBERTa critics (§3.3.2), instruction-tunes
//! LLaMA student models (§3.4), and trains cross-encoders, GRU/attention
//! session models and graph neural networks in its evaluation (§4). None of
//! those frameworks exist offline in Rust, so this crate provides the
//! training machinery that the rest of the workspace builds those models
//! from. Gradients for every operation are hand-derived and verified
//! against central finite differences (see `tape.rs` tests and the
//! proptest suite in `tests/`).
//!
//! ## Example
//!
//! ```
//! use cosmo_exec::WorkerPool;
//! use cosmo_nn::{ParamStore, Tape, Tensor, layers::Mlp, opt::Adam};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut store = ParamStore::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let mlp = Mlp::new(&mut store, "clf", 2, 8, 2, &mut rng);
//! let mut opt = Adam::new(0.05);
//! let mut tape = Tape::new();
//! let pool = WorkerPool::new(1);
//! for _ in 0..50 {
//!     tape.grad_step(&mut store, |tape, s| {
//!         let x = tape.input(Tensor::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]));
//!         let logits = mlp.forward(tape, s, x);
//!         tape.cross_entropy(logits, &[1, 0])
//!     });
//!     opt.step(&mut store, &pool);
//! }
//! ```

pub mod infer;
pub mod init;
pub mod layers;
pub mod opt;
pub mod params;
pub mod tape;
pub mod tensor;

pub use params::{ParamId, ParamStore};
pub use tape::{Tape, Var};
pub use tensor::Tensor;
