//! First-order optimizers: SGD (with momentum) and Adam.
//!
//! Optimizer state is kept in buffers shaped like the network's gradients
//! and lazily initialized on the first step, so one optimizer instance is
//! bound to one network for its lifetime.

use crate::mlp::{Gradients, Mlp};

/// Stochastic gradient descent with optional classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Option<Gradients>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr, momentum: 0.0, velocity: None }
    }

    /// Adds momentum `m ∈ [0, 1)` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `[0, 1)`.
    pub fn with_momentum(mut self, m: f64) -> Self {
        assert!((0.0..1.0).contains(&m), "momentum must be in [0, 1)");
        self.momentum = m;
        self
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Applies one update to `net` from `grads`.
    pub fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        if self.momentum == 0.0 {
            net.apply_gradients(grads, self.lr);
            return;
        }
        let velocity = self.velocity.get_or_insert_with(|| Gradients::zeros_like(net));
        velocity.scale(self.momentum);
        velocity.accumulate(grads);
        let v = velocity.clone();
        net.apply_gradients(&v, self.lr);
    }
}

/// Adam optimizer (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Option<Gradients>,
    v: Option<Gradients>,
}

impl Adam {
    /// Adam with learning rate `lr` and standard defaults
    /// `β₁ = 0.9, β₂ = 0.999, ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: None, v: None }
    }

    /// Overrides the exponential-decay rates (builder style).
    ///
    /// # Panics
    ///
    /// Panics if either beta is outside `[0, 1)`.
    pub fn with_betas(mut self, beta1: f64, beta2: f64) -> Self {
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update to `net` from `grads`.
    pub fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        self.t += 1;
        let m = self.m.get_or_insert_with(|| Gradients::zeros_like(net));
        let v = self.v.get_or_insert_with(|| Gradients::zeros_like(net));

        let rule = AdamRule {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        };
        let layers = net.layers_mut().iter_mut().zip(grads.layers());
        for ((layer, g), (lm, lv)) in layers.zip(m.layers_mut().iter_mut().zip(v.layers_mut())) {
            let (w, b) = layer.params_mut();
            rule.apply(w, &g.weights, &mut lm.weights, &mut lv.weights);
            rule.apply(b, &g.biases, &mut lm.biases, &mut lv.biases);
        }
    }
}

/// One Adam step's constants, bias corrections included.
struct AdamRule {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    bc1: f64,
    bc2: f64,
}

impl AdamRule {
    /// Updates parameters `p` and moments `m`, `v` from gradients `g`.
    /// Zipped slices carry no bounds checks, so the loop vectorises; each
    /// element keeps the scalar rule's operation order.
    fn apply(&self, p: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64]) {
        assert!(g.len() == p.len() && m.len() == p.len() && v.len() == p.len());
        for (((p, &g), m), v) in p.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / self.bc1;
            let v_hat = *v / self.bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, BatchWorkspace, Mlp, MlpConfig};
    use glova_stats::rng::seeded;
    use rand::Rng;

    fn regression_task() -> (Vec<[f64; 1]>, Vec<[f64; 1]>) {
        // y = sin(3x) on [-1, 1]
        let xs: Vec<[f64; 1]> = (0..40).map(|i| [-1.0 + i as f64 / 19.5]).collect();
        let ys: Vec<[f64; 1]> = xs.iter().map(|x| [(3.0 * x[0]).sin()]).collect();
        (xs, ys)
    }

    fn train_and_measure(optimize: &mut dyn FnMut(&mut Mlp, &Gradients)) -> f64 {
        let mut rng = seeded(77);
        let mut net = Mlp::new(&MlpConfig::new(1, &[16, 16], 1, Activation::Tanh), &mut rng);
        let (xs, ys) = regression_task();
        let mut ws = BatchWorkspace::new();
        let mut total = Gradients::zeros_like(&net);
        for _ in 0..300 {
            ws.load(&net, xs.iter().map(|x| &x[..]));
            net.forward_batch(&mut ws);
            let grad_out: Vec<f64> = ws
                .output()
                .iter()
                .zip(&ys)
                .map(|(o, y)| crate::mse_gradient(&[*o], y)[0])
                .collect();
            total.clear();
            net.backward_batch(&mut ws, &grad_out, &mut total);
            total.scale(1.0 / xs.len() as f64);
            optimize(&mut net, &total);
        }
        let mut loss = 0.0;
        for (x, y) in xs.iter().zip(&ys) {
            loss += crate::mse(&net.forward(x), y);
        }
        loss / xs.len() as f64
    }

    #[test]
    fn adam_fits_sine() {
        let mut adam = Adam::new(1e-2);
        let loss = train_and_measure(&mut |net, g| adam.step(net, g));
        assert!(loss < 0.01, "adam failed to fit: loss {loss}");
    }

    #[test]
    fn sgd_with_momentum_fits_sine() {
        let mut sgd = Sgd::new(0.05).with_momentum(0.9);
        let loss = train_and_measure(&mut |net, g| sgd.step(net, g));
        assert!(loss < 0.05, "sgd failed to fit: loss {loss}");
    }

    #[test]
    fn adam_converges_on_convex_quadratic() {
        // Adam steps are not individually monotone (normalized step size),
        // but on a convex quadratic it must converge to near-zero loss.
        let mut rng = seeded(5);
        let mut net = Mlp::new(&MlpConfig::new(2, &[], 1, Activation::Identity), &mut rng);
        let mut adam = Adam::new(5e-2);
        let x = [1.0, -1.0];
        let target = [3.0];
        let initial = crate::mse(&net.forward(&x), &target);
        let mut last = initial;
        let mut ws = BatchWorkspace::new();
        let mut g = Gradients::zeros_like(&net);
        for _ in 0..500 {
            ws.load(&net, [&x[..]]);
            net.forward_batch(&mut ws);
            last = crate::mse(ws.output(), &target);
            let grad_out = crate::mse_gradient(ws.output(), &target);
            g.clear();
            net.backward_batch(&mut ws, &grad_out, &mut g);
            adam.step(&mut net, &g);
        }
        assert!(last < 1e-3, "adam did not converge: {initial} -> {last}");
    }

    #[test]
    fn step_counter_increments() {
        let mut rng = seeded(6);
        let mut net = Mlp::new(&MlpConfig::new(1, &[2], 1, Activation::Relu), &mut rng);
        let mut adam = Adam::new(1e-3);
        assert_eq!(adam.steps(), 0);
        let g = Gradients::zeros_like(&net);
        adam.step(&mut net, &g);
        adam.step(&mut net, &g);
        assert_eq!(adam.steps(), 2);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_panics() {
        Adam::new(0.0);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn bad_momentum_panics() {
        let _ = Sgd::new(0.1).with_momentum(1.0);
    }

    /// The indexed per-layer loop the zipped update replaced.
    fn adam_indexed_oracle(
        net: &mut Mlp,
        grads: &Gradients,
        m: &mut Gradients,
        v: &mut Gradients,
        t: u64,
        (lr, beta1, beta2, eps): (f64, f64, f64, f64),
    ) {
        let bc1 = 1.0 - beta1.powi(t as i32);
        let bc2 = 1.0 - beta2.powi(t as i32);
        for (layer_idx, layer) in net.layers_mut().iter_mut().enumerate() {
            let g = &grads.layers()[layer_idx];
            let lm = &mut m.layers_mut()[layer_idx];
            let lv = &mut v.layers_mut()[layer_idx];
            let (w, b) = layer.params_mut();
            for i in 0..w.len() {
                lm.weights[i] = beta1 * lm.weights[i] + (1.0 - beta1) * g.weights[i];
                lv.weights[i] = beta2 * lv.weights[i] + (1.0 - beta2) * g.weights[i] * g.weights[i];
                let m_hat = lm.weights[i] / bc1;
                let v_hat = lv.weights[i] / bc2;
                w[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            for i in 0..b.len() {
                lm.biases[i] = beta1 * lm.biases[i] + (1.0 - beta1) * g.biases[i];
                lv.biases[i] = beta2 * lv.biases[i] + (1.0 - beta2) * g.biases[i] * g.biases[i];
                let m_hat = lm.biases[i] / bc1;
                let v_hat = lv.biases[i] / bc2;
                b[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }

    #[test]
    fn zipped_adam_matches_the_indexed_loop_bitwise() {
        let mut rng = seeded(8);
        let mut net = Mlp::new(&MlpConfig::new(14, &[64, 17], 3, Activation::Relu), &mut rng);
        let mut oracle = net.clone();
        let (mut m, mut v) = (Gradients::zeros_like(&net), Gradients::zeros_like(&net));
        let mut adam = Adam::new(3e-4).with_betas(0.85, 0.995);
        let mut grads = Gradients::zeros_like(&net);
        for t in 1..=50 {
            for layer in grads.layers_mut() {
                for g in layer.weights.iter_mut().chain(&mut layer.biases) {
                    // Mixed magnitudes and signed zeros.
                    *g = match rng.gen_range(0u32..10) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => {
                            rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(0u32..9) as i32 - 6)
                        }
                    };
                }
            }
            adam.step(&mut net, &grads);
            adam_indexed_oracle(&mut oracle, &grads, &mut m, &mut v, t, (3e-4, 0.85, 0.995, 1e-8));
            for (a, b) in net.layers().iter().zip(oracle.layers()) {
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a.params().0), bits(b.params().0), "weights after step {t}");
                assert_eq!(bits(a.params().1), bits(b.params().1), "biases after step {t}");
            }
        }
    }
}
