//! Multi-layer perceptrons composed of [`Linear`] layers.

use crate::layer::LayerGradients;
use crate::{Activation, BatchWorkspace, Linear};
use rand::Rng;

/// Architecture description for an [`Mlp`].
///
/// # Example
///
/// ```
/// use glova_nn::{Activation, MlpConfig};
/// // The paper's 4-layer actor for a 14-parameter design space:
/// let cfg = MlpConfig::new(14, &[64, 64, 64], 14, Activation::Relu)
///     .with_output_activation(Activation::Sigmoid);
/// assert_eq!(cfg.layer_sizes(), vec![(14, 64), (64, 64), (64, 64), (64, 14)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    input_dim: usize,
    hidden: Vec<usize>,
    output_dim: usize,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl MlpConfig {
    /// Creates a config with the given hidden widths; the output layer
    /// defaults to [`Activation::Identity`].
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `output_dim` is zero.
    pub fn new(
        input_dim: usize,
        hidden: &[usize],
        output_dim: usize,
        hidden_activation: Activation,
    ) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        assert!(output_dim > 0, "output_dim must be positive");
        assert!(hidden.iter().all(|&h| h > 0), "hidden widths must be positive");
        Self {
            input_dim,
            hidden: hidden.to_vec(),
            output_dim,
            hidden_activation,
            output_activation: Activation::Identity,
        }
    }

    /// Sets the output activation (builder style).
    pub fn with_output_activation(mut self, activation: Activation) -> Self {
        self.output_activation = activation;
        self
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// `(fan_in, fan_out)` per layer, in order.
    pub fn layer_sizes(&self) -> Vec<(usize, usize)> {
        let mut sizes = Vec::with_capacity(self.hidden.len() + 1);
        let mut prev = self.input_dim;
        for &h in &self.hidden {
            sizes.push((prev, h));
            prev = h;
        }
        sizes.push((prev, self.output_dim));
        sizes
    }
}

/// A feed-forward network.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Parameter gradients for an entire [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    layers: Vec<LayerGradients>,
}

impl Gradients {
    /// Zero gradients shaped like `net`.
    pub fn zeros_like(net: &Mlp) -> Self {
        Self {
            layers: net
                .layers
                .iter()
                .map(|l| LayerGradients::zeros(l.fan_in(), l.fan_out()))
                .collect(),
        }
    }

    /// Resets every gradient to `+0.0`, keeping the buffers.
    pub fn clear(&mut self) {
        for l in &mut self.layers {
            l.weights.fill(0.0);
            l.biases.fill(0.0);
        }
    }

    /// Per-layer gradient list.
    pub fn layers(&self) -> &[LayerGradients] {
        &self.layers
    }

    /// Mutable per-layer gradient list (used by optimizer state buffers).
    pub fn layers_mut(&mut self) -> &mut [LayerGradients] {
        &mut self.layers
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, other: &Gradients) {
        assert_eq!(self.layers.len(), other.layers.len(), "gradient layer count mismatch");
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.accumulate(b);
        }
    }

    /// In-place scaling (e.g. `1/batch`).
    pub fn scale(&mut self, s: f64) {
        for l in &mut self.layers {
            l.scale(s);
        }
    }

    /// Global L2 norm across all parameters — for gradient clipping.
    pub fn global_norm(&self) -> f64 {
        let mut sum = 0.0;
        for l in &self.layers {
            sum += l.weights.iter().map(|g| g * g).sum::<f64>();
            sum += l.biases.iter().map(|g| g * g).sum::<f64>();
        }
        sum.sqrt()
    }

    /// Clips the global norm to `max_norm` (no-op when already below).
    pub fn clip_global_norm(&mut self, max_norm: f64) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
    }
}

impl Mlp {
    /// Builds a freshly initialized network.
    pub fn new<R: Rng + ?Sized>(config: &MlpConfig, rng: &mut R) -> Self {
        let sizes = config.layer_sizes();
        let last = sizes.len() - 1;
        let layers = sizes
            .iter()
            .enumerate()
            .map(|(i, &(fan_in, fan_out))| {
                let act =
                    if i == last { config.output_activation } else { config.hidden_activation };
                Linear::new(fan_in, fan_out, act, rng)
            })
            .collect();
        Self { layers }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::fan_in)
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::fan_out)
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable access to the layers (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.fan_in() * l.fan_out() + l.fan_out()).sum()
    }

    /// Forward pass of one sample: the one-lane case of
    /// [`Mlp::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut ws = BatchWorkspace::new();
        ws.load(self, [x]);
        self.forward_batch(&mut ws);
        ws.output().to_vec()
    }

    /// Gradient of a scalar-output network with respect to its input: the
    /// one-lane case of [`Mlp::input_gradient_batch`] with `∂L/∂y = 1`.
    ///
    /// # Panics
    ///
    /// Panics if the network output is not 1-dimensional.
    pub fn input_gradient(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.output_dim(), 1, "input_gradient requires a scalar head");
        let mut ws = BatchWorkspace::new();
        ws.load(self, [x]);
        self.forward_batch(&mut ws);
        self.input_gradient_batch(&mut ws, &[1.0]).to_vec()
    }

    /// Plain SGD parameter update (optimizers provide fancier rules).
    pub fn apply_gradients(&mut self, grads: &Gradients, lr: f64) {
        assert_eq!(grads.layers.len(), self.layers.len(), "gradient layer count mismatch");
        for (layer, g) in self.layers.iter_mut().zip(&grads.layers) {
            layer.apply_gradients(g, lr);
        }
    }

    /// Soft update `self = τ·source + (1−τ)·self` (DDPG target networks).
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f64) {
        assert_eq!(self.layers.len(), source.layers.len(), "architecture mismatch");
        for (dst, src) in self.layers.iter_mut().zip(&source.layers) {
            let (sw, sb) = src.params();
            let (dw, db) = dst.params_mut();
            assert_eq!(sw.len(), dw.len(), "architecture mismatch");
            for (d, s) in dw.iter_mut().zip(sw) {
                *d = tau * s + (1.0 - tau) * *d;
            }
            for (d, s) in db.iter_mut().zip(sb) {
                *d = tau * s + (1.0 - tau) * *d;
            }
        }
    }
}

/// Caches of the one-sample oracle, one entry per layer.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MlpCache {
    caches: Vec<crate::layer::LayerCache>,
}

/// The one-sample passes the lane kernels replaced, kept as the oracles
/// their bitwise tests compare against.
#[cfg(test)]
impl Mlp {
    /// Forward pass recording per-layer caches for [`Mlp::backward`].
    pub(crate) fn forward_cached(&self, x: &[f64]) -> (Vec<f64>, MlpCache) {
        let mut h = x.to_vec();
        let mut caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (out, cache) = layer.forward_cached(&h);
            caches.push(cache);
            h = out;
        }
        (h, MlpCache { caches })
    }

    /// Backward pass from `∂L/∂output`; returns parameter gradients and
    /// `∂L/∂input`.
    pub(crate) fn backward(&self, cache: &MlpCache, grad_output: &[f64]) -> (Gradients, Vec<f64>) {
        assert_eq!(cache.caches.len(), self.layers.len(), "cache/layer count mismatch");
        let mut grad = grad_output.to_vec();
        let mut layer_grads: Vec<LayerGradients> = Vec::with_capacity(self.layers.len());
        for (layer, layer_cache) in self.layers.iter().zip(&cache.caches).rev() {
            let (g, g_in) = layer.backward(layer_cache, &grad);
            layer_grads.push(g);
            grad = g_in;
        }
        layer_grads.reverse();
        (Gradients { layers: layer_grads }, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_stats::rng::seeded;
    use proptest::prelude::*;

    fn tiny_net(seed: u64) -> Mlp {
        let mut rng = seeded(seed);
        Mlp::new(&MlpConfig::new(3, &[5, 4], 2, Activation::Tanh), &mut rng)
    }

    #[test]
    fn shapes() {
        let net = tiny_net(1);
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.layers().len(), 3);
        assert_eq!(net.param_count(), 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2);
    }

    #[test]
    fn forward_and_cached_agree() {
        let net = tiny_net(2);
        let x = [0.2, -0.1, 0.7];
        let (out, _) = net.forward_cached(&x);
        assert_eq!(net.forward(&x), out);
    }

    #[test]
    fn full_gradient_check() {
        // The decisive test for the whole crate: every parameter gradient and
        // the input gradient must match central finite differences.
        let net = tiny_net(3);
        let x = [0.3, -0.5, 0.9];
        let target = [0.1, -0.2];
        let eps = 1e-6;

        let loss_of = |n: &Mlp| -> f64 {
            let y = n.forward(&x);
            y.iter().zip(&target).map(|(o, t)| (o - t) * (o - t)).sum()
        };

        let mut ws = BatchWorkspace::new();
        ws.load(&net, [&x[..]]);
        net.forward_batch(&mut ws);
        let grad_out: Vec<f64> =
            ws.output().iter().zip(&target).map(|(o, t)| 2.0 * (o - t)).collect();
        let mut grads = Gradients::zeros_like(&net);
        net.backward_batch(&mut ws, &grad_out, &mut grads);
        let grad_in = net.input_gradient_batch(&mut ws, &grad_out).to_vec();

        // Input gradient.
        for i in 0..3 {
            let mut xp = x;
            let mut xm = x;
            xp[i] += eps;
            xm[i] -= eps;
            let yp = net.forward(&xp);
            let ym = net.forward(&xm);
            let lp: f64 = yp.iter().zip(&target).map(|(o, t)| (o - t) * (o - t)).sum();
            let lm: f64 = ym.iter().zip(&target).map(|(o, t)| (o - t) * (o - t)).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-4,
                "input grad {i}: {numeric} vs {}",
                grad_in[i]
            );
        }

        // Every weight and bias of every layer.
        for li in 0..net.layers().len() {
            let n_w = net.layers()[li].fan_in() * net.layers()[li].fan_out();
            for wi in 0..n_w {
                let mut np = net.clone();
                let mut nm = net.clone();
                np.layers_mut()[li].params_mut().0[wi] += eps;
                nm.layers_mut()[li].params_mut().0[wi] -= eps;
                let numeric = (loss_of(&np) - loss_of(&nm)) / (2.0 * eps);
                let analytic = grads.layers()[li].weights[wi];
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "layer {li} weight {wi}: {numeric} vs {analytic}"
                );
            }
            for bi in 0..net.layers()[li].fan_out() {
                let mut np = net.clone();
                let mut nm = net.clone();
                np.layers_mut()[li].params_mut().1[bi] += eps;
                nm.layers_mut()[li].params_mut().1[bi] -= eps;
                let numeric = (loss_of(&np) - loss_of(&nm)) / (2.0 * eps);
                let analytic = grads.layers()[li].biases[bi];
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "layer {li} bias {bi}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn input_gradient_scalar_head() {
        let mut rng = seeded(5);
        let net = Mlp::new(&MlpConfig::new(2, &[6], 1, Activation::Tanh), &mut rng);
        let x = [0.4, -0.3];
        let g = net.input_gradient(&x);
        let eps = 1e-6;
        for i in 0..2 {
            let mut xp = x;
            let mut xm = x;
            xp[i] += eps;
            xm[i] -= eps;
            let numeric = (net.forward(&xp)[0] - net.forward(&xm)[0]) / (2.0 * eps);
            assert!((numeric - g[i]).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "scalar head")]
    fn input_gradient_requires_scalar() {
        tiny_net(1).input_gradient(&[0.0, 0.0, 0.0]);
    }

    #[test]
    fn soft_update_converges_to_source() {
        let mut a = tiny_net(6);
        let b = tiny_net(7);
        for _ in 0..200 {
            a.soft_update_from(&b, 0.1);
        }
        let x = [0.1, 0.2, 0.3];
        let ya = a.forward(&x);
        let yb = b.forward(&x);
        for (p, q) in ya.iter().zip(&yb) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_clipping_reduces_norm() {
        let net = tiny_net(8);
        let mut ws = BatchWorkspace::new();
        ws.load(&net, [&[1.0, 1.0, 1.0][..]]);
        net.forward_batch(&mut ws);
        let mut grads = Gradients::zeros_like(&net);
        net.backward_batch(&mut ws, &vec![1e3; net.output_dim()], &mut grads);
        grads.clip_global_norm(1.0);
        assert!(grads.global_norm() <= 1.0 + 1e-9);
    }

    #[test]
    fn sigmoid_output_bounded() {
        let mut rng = seeded(9);
        let net = Mlp::new(
            &MlpConfig::new(4, &[8], 4, Activation::Relu)
                .with_output_activation(Activation::Sigmoid),
            &mut rng,
        );
        let y = net.forward(&[10.0, -10.0, 3.0, -3.0]);
        assert!(y.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    proptest! {
        #[test]
        fn prop_forward_finite(
            x in proptest::collection::vec(-10.0f64..10.0, 3),
            seed in 0u64..32,
        ) {
            let net = tiny_net(seed);
            let y = net.forward(&x);
            prop_assert!(y.iter().all(|v| v.is_finite()));
        }

        #[test]
        fn prop_gradients_finite(
            x in proptest::collection::vec(-5.0f64..5.0, 3),
            seed in 0u64..16,
        ) {
            let net = tiny_net(seed);
            let mut ws = BatchWorkspace::new();
            ws.load(&net, [&x[..]]);
            net.forward_batch(&mut ws);
            let grad_out = vec![1.0; net.output_dim()];
            let mut grads = Gradients::zeros_like(&net);
            net.backward_batch(&mut ws, &grad_out, &mut grads);
            let grad_in = net.input_gradient_batch(&mut ws, &grad_out);
            prop_assert!(grad_in.iter().all(|v| v.is_finite()));
            prop_assert!(grads.global_norm().is_finite());
        }
    }
}
