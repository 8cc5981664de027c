//! Minimal neural-network substrate for the GLOVA actor and ensemble critic.
//!
//! The paper's agent (Algorithm 1) is DDPG-derived: a 4-layer actor maps the
//! previous design vector to a new one, and an **ensemble** of 4-layer critic
//! base models predicts the worst-case reward. Two requirements shape this
//! crate and rule out a "just matrices" shortcut:
//!
//! 1. The **actor update** differentiates *through the critic*: the loss
//!    `MSE(0.2, Q(A(x)))` needs `∂Q/∂input` at the critic's input, chained
//!    into the actor's parameter gradients. Besides the parameter backward
//!    [`Mlp::backward_batch`], the network therefore offers an input-only
//!    backward, [`Mlp::input_gradient_batch`].
//! 2. The **risk-sensitive aggregation** `Q = E[Q_i] + β₁σ[Q_i]` (paper
//!    Eq. 6) must be differentiated exactly across the ensemble; that
//!    backward pass lives in `glova-rl`, but it relies on the per-model
//!    input gradients exposed here.
//!
//! Training runs a minibatch at a time over a caller-owned
//! [`BatchWorkspace`], with the samples as lanes (see [`batch`]). Every
//! lane is bit-for-bit the one-sample computation, so batching changes
//! no trajectory. No deep-learning crate exists in the offline set, so
//! backprop is implemented from scratch and validated against central
//! finite differences in this crate's tests.
//!
//! # Example
//!
//! ```
//! use glova_nn::{Activation, Adam, BatchWorkspace, Gradients, Mlp, MlpConfig};
//!
//! let mut rng = glova_stats::rng::seeded(0);
//! // Learn y = 2x on [0, 1].
//! let mut net = Mlp::new(&MlpConfig::new(1, &[8, 8], 1, Activation::Tanh), &mut rng);
//! let mut adam = Adam::new(1e-2);
//! let mut ws = BatchWorkspace::new();
//! let mut grads = Gradients::zeros_like(&net);
//! let xs: Vec<[f64; 1]> = (0..10).map(|i| [i as f64 / 10.0]).collect();
//! for _ in 0..400 {
//!     // One minibatch of ten samples: forward, then ∂MSE/∂y per lane.
//!     ws.load(&net, xs.iter().map(|x| &x[..]));
//!     net.forward_batch(&mut ws);
//!     let grad_out: Vec<f64> =
//!         ws.output().iter().zip(&xs).map(|(o, x)| 2.0 * (o - 2.0 * x[0]) / 10.0).collect();
//!     grads.clear();
//!     net.backward_batch(&mut ws, &grad_out, &mut grads);
//!     adam.step(&mut net, &grads);
//! }
//! let pred = net.forward(&[0.35]);
//! assert!((pred[0] - 0.7).abs() < 0.1);
//! ```

pub mod activation;
pub mod batch;
pub mod init;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod optimizer;

pub use activation::Activation;
pub use batch::BatchWorkspace;
pub use layer::Linear;
pub use loss::{mse, mse_gradient};
pub use mlp::{Gradients, Mlp, MlpConfig};
pub use optimizer::{Adam, Sgd};
