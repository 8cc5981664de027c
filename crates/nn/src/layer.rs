//! A fully connected layer: parameters, initialization and gradient
//! buffers. Its forward and backward passes run a minibatch at a time in
//! [`crate::batch`].

use crate::init::Init;
use crate::Activation;
use glova_stats::normal::StandardNormal;
use rand::Rng;

/// A dense layer `y = act(W x + b)`.
///
/// Weights are stored row-major, one row per output unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weights: Vec<f64>, // out × in, row-major
    biases: Vec<f64>,  // out
    fan_in: usize,
    fan_out: usize,
    activation: Activation,
}

/// Parameter gradients for one layer, same shapes as the parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGradients {
    /// `∂L/∂W`, row-major `out × in`.
    pub weights: Vec<f64>,
    /// `∂L/∂b`.
    pub biases: Vec<f64>,
}

impl LayerGradients {
    /// Zero gradients for a `fan_in → fan_out` layer.
    pub fn zeros(fan_in: usize, fan_out: usize) -> Self {
        Self { weights: vec![0.0; fan_in * fan_out], biases: vec![0.0; fan_out] }
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, other: &LayerGradients) {
        assert_eq!(self.weights.len(), other.weights.len(), "gradient shape mismatch");
        glova_linalg_axpy(&other.weights, &mut self.weights);
        glova_linalg_axpy(&other.biases, &mut self.biases);
    }

    /// In-place scaling (used to average over a batch).
    pub fn scale(&mut self, s: f64) {
        for w in &mut self.weights {
            *w *= s;
        }
        for b in &mut self.biases {
            *b *= s;
        }
    }
}

// Tiny local helper; avoids a dependency edge from nn to linalg for one axpy.
fn glova_linalg_axpy(src: &[f64], dst: &mut [f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

impl Linear {
    /// Creates a layer with activation-appropriate random initialization.
    pub fn new<R: Rng + ?Sized>(
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let normal = StandardNormal::new();
        let init = Init::for_activation(activation);
        let weights =
            (0..fan_in * fan_out).map(|_| init.sample(rng, &normal, fan_in, fan_out)).collect();
        Self { weights, biases: vec![0.0; fan_out], fan_in, fan_out, activation }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable parameter views `(weights, biases)`.
    pub fn params(&self) -> (&[f64], &[f64]) {
        (&self.weights, &self.biases)
    }

    /// Mutable parameter views `(weights, biases)`.
    pub fn params_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.weights, &mut self.biases)
    }

    /// Applies `params -= lr * grads` (plain SGD step, used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics if gradient shapes differ from parameter shapes.
    pub fn apply_gradients(&mut self, grads: &LayerGradients, lr: f64) {
        assert_eq!(grads.weights.len(), self.weights.len(), "gradient shape mismatch");
        for (w, g) in self.weights.iter_mut().zip(&grads.weights) {
            *w -= lr * g;
        }
        for (b, g) in self.biases.iter_mut().zip(&grads.biases) {
            *b -= lr * g;
        }
    }
}

/// Per-layer cache of the one-sample oracle: the layer input and its
/// pre-activations.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LayerCache {
    pub(crate) input: Vec<f64>,
    pub(crate) pre_activation: Vec<f64>,
}

/// The one-sample passes the lane kernels in [`crate::batch`] replaced,
/// kept as the oracles their bitwise tests compare against.
#[cfg(test)]
impl Linear {
    /// Forward pass without caching.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != fan_in`.
    pub(crate) fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.fan_in, "layer input width mismatch");
        let mut out = Vec::with_capacity(self.fan_out);
        for o in 0..self.fan_out {
            let row = &self.weights[o * self.fan_in..(o + 1) * self.fan_in];
            let z: f64 = row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>() + self.biases[o];
            out.push(self.activation.apply(z));
        }
        out
    }

    /// Forward pass that records the cache needed by [`Linear::backward`].
    pub(crate) fn forward_cached(&self, x: &[f64]) -> (Vec<f64>, LayerCache) {
        assert_eq!(x.len(), self.fan_in, "layer input width mismatch");
        let mut pre = Vec::with_capacity(self.fan_out);
        for o in 0..self.fan_out {
            let row = &self.weights[o * self.fan_in..(o + 1) * self.fan_in];
            pre.push(row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>() + self.biases[o]);
        }
        let out = pre.iter().map(|&z| self.activation.apply(z)).collect();
        (out, LayerCache { input: x.to_vec(), pre_activation: pre })
    }

    /// Backward pass.
    ///
    /// `grad_output` is `∂L/∂y` (post-activation); returns the parameter
    /// gradients and `∂L/∂x`.
    ///
    /// # Panics
    ///
    /// Panics if `grad_output.len() != fan_out`.
    pub(crate) fn backward(
        &self,
        cache: &LayerCache,
        grad_output: &[f64],
    ) -> (LayerGradients, Vec<f64>) {
        assert_eq!(grad_output.len(), self.fan_out, "grad width mismatch");
        let mut grads = LayerGradients::zeros(self.fan_in, self.fan_out);
        let mut grad_input = vec![0.0; self.fan_in];
        for o in 0..self.fan_out {
            // δ = ∂L/∂z = ∂L/∂y · act'(z)
            let delta = grad_output[o] * self.activation.derivative(cache.pre_activation[o]);
            grads.biases[o] = delta;
            let w_row = &self.weights[o * self.fan_in..(o + 1) * self.fan_in];
            let g_row = &mut grads.weights[o * self.fan_in..(o + 1) * self.fan_in];
            for i in 0..self.fan_in {
                g_row[i] = delta * cache.input[i];
                grad_input[i] += delta * w_row[i];
            }
        }
        (grads, grad_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_stats::rng::seeded;

    fn tiny_layer() -> Linear {
        let mut rng = seeded(1);
        Linear::new(3, 2, Activation::Tanh, &mut rng)
    }

    #[test]
    fn forward_matches_cached_forward() {
        let layer = tiny_layer();
        let x = [0.1, -0.2, 0.3];
        let (cached_out, _) = layer.forward_cached(&x);
        assert_eq!(layer.forward(&x), cached_out);
    }

    #[test]
    fn identity_layer_is_affine() {
        let mut rng = seeded(2);
        let mut layer = Linear::new(2, 2, Activation::Identity, &mut rng);
        {
            let (w, b) = layer.params_mut();
            w.copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
            b.copy_from_slice(&[0.5, -0.5]);
        }
        assert_eq!(layer.forward(&[1.0, 2.0]), vec![1.5, 1.5]);
    }

    #[test]
    fn gradient_check_weights_and_input() {
        let layer = tiny_layer();
        let x = [0.4, -0.7, 0.2];
        let eps = 1e-6;

        // Loss: sum of outputs (grad_output = ones).
        let (_, cache) = layer.forward_cached(&x);
        let (grads, grad_in) = layer.backward(&cache, &[1.0, 1.0]);

        // Check input gradient by finite differences.
        for i in 0..3 {
            let mut xp = x;
            let mut xm = x;
            xp[i] += eps;
            xm[i] -= eps;
            let fp: f64 = layer.forward(&xp).iter().sum();
            let fm: f64 = layer.forward(&xm).iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-5,
                "input grad {i}: numeric {numeric} vs {got}",
                got = grad_in[i]
            );
        }

        // Check a few weight gradients.
        for idx in [0usize, 2, 5] {
            let mut lp = layer.clone();
            let mut lm = layer.clone();
            lp.params_mut().0[idx] += eps;
            lm.params_mut().0[idx] -= eps;
            let fp: f64 = lp.forward(&x).iter().sum();
            let fm: f64 = lm.forward(&x).iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grads.weights[idx]).abs() < 1e-5,
                "weight grad {idx}: numeric {numeric} vs {got}",
                got = grads.weights[idx]
            );
        }

        // Bias gradient check.
        for idx in [0usize, 1] {
            let mut lp = layer.clone();
            let mut lm = layer.clone();
            lp.params_mut().1[idx] += eps;
            lm.params_mut().1[idx] -= eps;
            let fp: f64 = lp.forward(&x).iter().sum();
            let fm: f64 = lm.forward(&x).iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - grads.biases[idx]).abs() < 1e-5);
        }
    }

    #[test]
    fn accumulate_and_scale() {
        let mut a = LayerGradients::zeros(2, 1);
        let b = LayerGradients { weights: vec![1.0, 2.0], biases: vec![3.0] };
        a.accumulate(&b);
        a.accumulate(&b);
        a.scale(0.5);
        assert_eq!(a.weights, vec![1.0, 2.0]);
        assert_eq!(a.biases, vec![3.0]);
    }

    #[test]
    fn apply_gradients_moves_downhill() {
        let mut layer = tiny_layer();
        let x = [0.5, 0.5, -0.5];
        let target = 0.3;
        let loss = |l: &Linear| {
            let y: f64 = l.forward(&x).iter().sum();
            (y - target) * (y - target)
        };
        let before = loss(&layer);
        for _ in 0..50 {
            let (out, cache) = layer.forward_cached(&x);
            let y: f64 = out.iter().sum();
            let grad_out = vec![2.0 * (y - target); 2];
            let (grads, _) = layer.backward(&cache, &grad_out);
            layer.apply_gradients(&grads, 0.05);
        }
        assert!(loss(&layer) < before * 0.1, "did not descend: {before} -> {}", loss(&layer));
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        tiny_layer().forward(&[1.0]);
    }
}
