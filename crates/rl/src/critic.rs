//! The ensemble-based critic (paper §IV.B).
//!
//! Modeling true worst-case reliability bounds would need >1000 MC samples
//! per iteration; instead GLOVA trains an ensemble of base models on the
//! few (`N' = 2–5`) sampled worst cases and uses the ensemble spread as an
//! epistemic-uncertainty proxy:
//!
//! ```text
//! Q(x) = E[Q_i(x)] + β₁ · σ[Q_i(x)],   β₁ < 0  (risk avoidance)
//! ```
//!
//! Each base model trains on its own independently drawn batch, so the
//! ensemble retains diversity ("randomness and varying initialization").

use glova_nn::{Activation, Adam, Gradients, Mlp, MlpConfig};
use rand::Rng;

/// Ensemble critic with the risk-sensitive aggregation of Eq. 6.
#[derive(Debug, Clone)]
pub struct EnsembleCritic {
    bases: Vec<Mlp>,
    optimizers: Vec<Adam>,
    beta1: f64,
    bias: f64,
}

impl EnsembleCritic {
    /// Creates an ensemble of `ensemble_size` base models for designs of
    /// dimension `input_dim`.
    ///
    /// `beta1` is the risk parameter of Eq. 6 (the paper uses −3);
    /// `bias` is the constant reward offset of Algorithm 1's losses
    /// (see `docs/DESIGN.md` §5, default 0).
    ///
    /// # Panics
    ///
    /// Panics if `ensemble_size == 0` or `input_dim == 0`.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        ensemble_size: usize,
        hidden: &[usize],
        beta1: f64,
        learning_rate: f64,
        bias: f64,
        rng: &mut R,
    ) -> Self {
        assert!(ensemble_size > 0, "ensemble must have at least one base model");
        let config = MlpConfig::new(input_dim, hidden, 1, Activation::Relu);
        let bases: Vec<Mlp> = (0..ensemble_size).map(|_| Mlp::new(&config, rng)).collect();
        let optimizers = (0..ensemble_size).map(|_| Adam::new(learning_rate)).collect();
        Self { bases, optimizers, beta1, bias }
    }

    /// Number of base models.
    pub fn ensemble_size(&self) -> usize {
        self.bases.len()
    }

    /// The risk parameter β₁.
    pub fn beta1(&self) -> f64 {
        self.beta1
    }

    /// Raw base-model predictions at `x`.
    pub fn base_predictions(&self, x: &[f64]) -> Vec<f64> {
        self.bases.iter().map(|b| b.forward(x)[0] + self.bias).collect()
    }

    /// Ensemble mean and (population) standard deviation at `x`.
    pub fn predict_detail(&self, x: &[f64]) -> (f64, f64) {
        let preds = self.base_predictions(x);
        let stats: glova_stats::descriptive::RunningStats = preds.into_iter().collect();
        (stats.mean(), stats.std_dev())
    }

    /// The design reliability bound `Q(x) = E[Q_i] + β₁σ[Q_i]` (Eq. 6).
    pub fn predict(&self, x: &[f64]) -> f64 {
        let (mean, std) = self.predict_detail(x);
        mean + self.beta1 * std
    }

    /// Exact gradient `∂Q/∂x` of the risk-sensitive aggregate.
    ///
    /// With `µ = Σ Q_i/n` and `σ = √(Σ(Q_i−µ)²/n)`:
    /// `∂Q/∂Q_i = 1/n + β₁(Q_i − µ)/(nσ)`, then chained through each base
    /// model's input gradient. The σ-term is dropped when σ ≈ 0
    /// (subgradient at the non-differentiable point).
    pub fn input_gradient(&self, x: &[f64]) -> Vec<f64> {
        let n = self.bases.len() as f64;
        let preds = self.base_predictions(x);
        let mean = preds.iter().sum::<f64>() / n;
        let var = preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
        let std = var.sqrt();

        let mut grad = vec![0.0; x.len()];
        for (base, &pred) in self.bases.iter().zip(&preds) {
            let mut weight = 1.0 / n;
            if std > 1e-12 {
                weight += self.beta1 * (pred - mean) / (n * std);
            }
            let (_, cache) = base.forward_cached(x);
            let (_, g_in) = base.backward(&cache, &[weight]);
            for (g, gi) in grad.iter_mut().zip(&g_in) {
                *g += gi;
            }
        }
        grad
    }

    /// One training step: base model `i` regresses its own batch
    /// `(x̂, r̂)` with the loss `MSE(r̂, Q_i(x̂) + bias)` (Algorithm 1).
    ///
    /// `batches` must contain one batch per base model; empty batches are
    /// skipped.
    ///
    /// # Panics
    ///
    /// Panics if `batches.len() != ensemble_size()`.
    pub fn train_batches(&mut self, batches: &[Vec<(&[f64], f64)>]) {
        assert_eq!(batches.len(), self.bases.len(), "need one batch per base model");
        for ((base, opt), batch) in self.bases.iter_mut().zip(&mut self.optimizers).zip(batches) {
            if batch.is_empty() {
                continue;
            }
            let mut total = Gradients::zeros_like(base);
            for (x, r) in batch {
                let (out, cache) = base.forward_cached(x);
                let pred = out[0] + self.bias;
                let grad_out = vec![2.0 * (pred - r) / batch.len() as f64];
                let (g, _) = base.backward(&cache, &grad_out);
                total.accumulate(&g);
            }
            total.clip_global_norm(10.0);
            opt.step(base, &total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_stats::rng::seeded;

    fn small_critic(seed: u64, ensemble: usize, beta1: f64) -> EnsembleCritic {
        let mut rng = seeded(seed);
        EnsembleCritic::new(2, ensemble, &[16, 16], beta1, 1e-2, 0.0, &mut rng)
    }

    #[test]
    fn single_model_has_zero_spread() {
        let critic = small_critic(1, 1, -3.0);
        let (_, std) = critic.predict_detail(&[0.3, 0.7]);
        assert_eq!(std, 0.0);
        // And predict == mean (risk term inactive).
        let (mean, _) = critic.predict_detail(&[0.3, 0.7]);
        assert_eq!(critic.predict(&[0.3, 0.7]), mean);
    }

    #[test]
    fn negative_beta_lowers_bound_under_disagreement() {
        let critic = small_critic(2, 5, -3.0);
        let x = [0.2, 0.8];
        let (mean, std) = critic.predict_detail(&x);
        assert!(std > 0.0, "fresh ensemble should disagree");
        assert!(critic.predict(&x) < mean);
    }

    #[test]
    fn training_fits_target_function_and_shrinks_spread() {
        let mut rng = seeded(3);
        let mut critic = small_critic(4, 5, -3.0);
        // Target: r(x) = x0 - x1.
        let xs: Vec<Vec<f64>> = (0..50).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let spread_before: f64 = xs.iter().map(|x| critic.predict_detail(x).1).sum::<f64>();
        for _ in 0..300 {
            let batches: Vec<Vec<(&[f64], f64)>> = (0..5)
                .map(|_| {
                    (0..10)
                        .map(|_| {
                            let i = rng.gen_range(0..xs.len());
                            (xs[i].as_slice(), xs[i][0] - xs[i][1])
                        })
                        .collect()
                })
                .collect();
            critic.train_batches(&batches);
        }
        let mut max_err = 0.0f64;
        let mut spread_after = 0.0;
        for x in &xs {
            let (mean, std) = critic.predict_detail(x);
            max_err = max_err.max((mean - (x[0] - x[1])).abs());
            spread_after += std;
        }
        assert!(max_err < 0.15, "critic did not fit: max err {max_err}");
        assert!(
            spread_after < spread_before,
            "spread should shrink with data: {spread_after} vs {spread_before}"
        );
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let critic = small_critic(5, 4, -2.0);
        let x = [0.4, 0.6];
        let grad = critic.input_gradient(&x);
        let eps = 1e-6;
        for d in 0..2 {
            let mut xp = x;
            let mut xm = x;
            xp[d] += eps;
            xm[d] -= eps;
            let numeric = (critic.predict(&xp) - critic.predict(&xm)) / (2.0 * eps);
            assert!(
                (numeric - grad[d]).abs() < 1e-4,
                "dim {d}: numeric {numeric} vs analytic {}",
                grad[d]
            );
        }
    }

    #[test]
    fn bias_offsets_predictions() {
        let mut rng = seeded(6);
        let c0 = EnsembleCritic::new(2, 3, &[8], -1.0, 1e-3, 0.0, &mut rng);
        let mut rng = seeded(6);
        let c1 = EnsembleCritic::new(2, 3, &[8], -1.0, 1e-3, 0.5, &mut rng);
        let x = [0.5, 0.5];
        let (m0, s0) = c0.predict_detail(&x);
        let (m1, s1) = c1.predict_detail(&x);
        assert!((m1 - m0 - 0.5).abs() < 1e-12);
        assert!((s1 - s0).abs() < 1e-12, "bias must not change spread");
    }

    #[test]
    #[should_panic(expected = "one batch per base model")]
    fn wrong_batch_count_panics() {
        let mut critic = small_critic(7, 3, -1.0);
        critic.train_batches(&[]);
    }
}
