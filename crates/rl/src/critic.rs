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
//!
//! The actor update scores a whole minibatch with one **fused pass**: each
//! base runs one forward over the batch, the bound and the σ-weights of
//! its gradient are formed from that one set of predictions, and each base
//! then runs one input-only backward. [`EnsembleCritic::predict`] and
//! [`EnsembleCritic::input_gradient`] are its one-sample case.

use glova_nn::{Activation, Adam, BatchWorkspace, Gradients, Mlp, MlpConfig};
use glova_stats::descriptive::RunningStats;
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

    /// The base models, in ensemble order.
    #[cfg(test)]
    pub(crate) fn bases(&self) -> &[Mlp] {
        &self.bases
    }

    /// The risk parameter β₁.
    pub fn beta1(&self) -> f64 {
        self.beta1
    }

    /// Raw base-model predictions at `x`.
    pub fn base_predictions(&self, x: &[f64]) -> Vec<f64> {
        let mut scratch = CriticScratch::default();
        self.input_mut(&mut scratch, 1).copy_from_slice(x);
        self.forward_lanes(&mut scratch);
        scratch.preds
    }

    /// Ensemble mean and (population) standard deviation at `x`.
    pub fn predict_detail(&self, x: &[f64]) -> (f64, f64) {
        moments(self.base_predictions(x))
    }

    /// The design reliability bound `Q(x) = E[Q_i] + β₁σ[Q_i]` (Eq. 6).
    pub fn predict(&self, x: &[f64]) -> f64 {
        let (mean, std) = self.predict_detail(x);
        mean + self.beta1 * std
    }

    /// Exact gradient `∂Q/∂x` of the risk-sensitive aggregate: the
    /// one-sample case of the fused pass.
    ///
    /// With `µ = Σ Q_i/n` and `σ = √(Σ(Q_i−µ)²/n)`:
    /// `∂Q/∂Q_i = 1/n + β₁(Q_i − µ)/(nσ)`, then chained through each base
    /// model's input gradient. The σ-term is dropped when σ ≈ 0
    /// (subgradient at the non-differentiable point).
    pub fn input_gradient(&self, x: &[f64]) -> Vec<f64> {
        let mut scratch = CriticScratch::default();
        self.input_mut(&mut scratch, 1).copy_from_slice(x);
        self.score(&mut scratch);
        scratch.grad
    }

    /// Shapes `scratch` for `batch` lanes and returns the input block
    /// (`input_dim × batch`, feature-major) for the caller to fill.
    pub(crate) fn input_mut<'s>(
        &self,
        scratch: &'s mut CriticScratch,
        batch: usize,
    ) -> &'s mut [f64] {
        scratch.ws.input_mut(&self.bases[0], batch)
    }

    /// Every base's forward over the loaded lanes: fills `preds`
    /// (base-major) and keeps each base's pre-activations in its slab.
    fn forward_lanes(&self, s: &mut CriticScratch) {
        s.preds.clear();
        s.slabs.resize_with(self.bases.len(), Vec::new);
        for (base, slab) in self.bases.iter().zip(&mut s.slabs) {
            base.forward_batch(&mut s.ws);
            s.preds.extend(s.ws.output().iter().map(|y| y + self.bias));
            s.ws.swap_pre_activations(slab);
        }
    }

    /// The fused pass over the loaded lanes: per lane, the bound `Q`
    /// (into `bound`) and `∂Q/∂input` (into `grad`, feature-major), both
    /// from one forward per base.
    ///
    /// The bound takes its moments from [`RunningStats`] (Welford), as
    /// [`Self::predict`] always has; the gradient's σ-weights take a
    /// two-pass mean and variance, as [`Self::input_gradient`] always
    /// has. The two σ can differ in the last bits. Each is kept because
    /// the trajectories are pinned bit for bit: unifying them would move
    /// every trained actor.
    pub(crate) fn score(&self, s: &mut CriticScratch) {
        self.forward_lanes(s);
        let b = s.ws.batch();
        let n = self.bases.len() as f64;
        s.bound.clear();
        s.weights.resize(s.preds.len(), 0.0);
        let mut lane = Vec::with_capacity(self.bases.len());
        for l in 0..b {
            lane.clear();
            lane.extend(s.preds.iter().skip(l).step_by(b));
            let (mean, std) = moments(lane.iter().copied());
            s.bound.push(mean + self.beta1 * std);

            let mean = lane.iter().sum::<f64>() / n;
            let var = lane.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
            let std = var.sqrt();
            for (k, &pred) in lane.iter().enumerate() {
                let mut weight = 1.0 / n;
                if std > 1e-12 {
                    weight += self.beta1 * (pred - mean) / (n * std);
                }
                s.weights[k * b + l] = weight;
            }
        }
        s.grad.clear();
        s.grad.resize(self.bases[0].input_dim() * b, 0.0);
        for ((base, slab), weights) in
            self.bases.iter().zip(&mut s.slabs).zip(s.weights.chunks_exact(b.max(1)))
        {
            s.ws.swap_pre_activations(slab);
            let g_in = base.input_gradient_batch(&mut s.ws, weights);
            for (g, gi) in s.grad.iter_mut().zip(g_in) {
                *g += gi;
            }
        }
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
        self.train_batches_in(batches, &mut CriticScratch::default());
    }

    /// [`Self::train_batches`] over a caller's scratch: each base runs one
    /// forward and one backward over its batch in the shared workspace.
    pub(crate) fn train_batches_in(
        &mut self,
        batches: &[Vec<(&[f64], f64)>],
        s: &mut CriticScratch,
    ) {
        assert_eq!(batches.len(), self.bases.len(), "need one batch per base model");
        let grads = s.grads.get_or_insert_with(|| Gradients::zeros_like(&self.bases[0]));
        for ((base, opt), batch) in self.bases.iter_mut().zip(&mut self.optimizers).zip(batches) {
            if batch.is_empty() {
                continue;
            }
            s.ws.load(base, batch.iter().map(|(x, _)| *x));
            base.forward_batch(&mut s.ws);
            s.grad_out.clear();
            s.grad_out.extend(s.ws.output().iter().zip(batch).map(|(y, (_, r))| {
                let pred = y + self.bias;
                2.0 * (pred - r) / batch.len() as f64
            }));
            grads.clear();
            base.backward_batch(&mut s.ws, &s.grad_out, grads);
            grads.clip_global_norm(10.0);
            opt.step(base, grads);
        }
    }
}

/// Ensemble mean and population σ of one sample's base predictions, from
/// [`RunningStats`] (Welford) — the moments of the bound `Q`.
fn moments(preds: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let stats: RunningStats = preds.into_iter().collect();
    (stats.mean(), stats.std_dev())
}

/// Buffers for the ensemble's minibatch passes. They live for one
/// training call: every base runs in the one shared workspace, and each
/// keeps only its own pre-activation slab between its forward and its
/// input-only backward.
#[derive(Debug, Default)]
pub(crate) struct CriticScratch {
    ws: BatchWorkspace,
    /// Each base's pre-activations over the current batch.
    slabs: Vec<Vec<f64>>,
    /// Base predictions, base-major: base `k`, lane `l` at `k * batch + l`.
    preds: Vec<f64>,
    /// `∂Q/∂Q_k` per base and lane, laid out like `preds`.
    weights: Vec<f64>,
    /// The bound `Q` per lane, after [`EnsembleCritic::score`].
    pub(crate) bound: Vec<f64>,
    /// `∂Q/∂input` per lane (feature-major), after
    /// [`EnsembleCritic::score`].
    pub(crate) grad: Vec<f64>,
    /// `∂L/∂Q_k` of the base being trained.
    grad_out: Vec<f64>,
    /// Parameter gradients, shaped like a base.
    grads: Option<Gradients>,
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
    fn fused_pass_matches_predict_and_input_gradient_bitwise() {
        // Lane l of one fused pass over a batch must be exactly what the
        // one-sample `predict` and `input_gradient` return for sample l,
        // on trained ensembles (so the bases disagree) and the no-ensemble
        // ablation (σ = 0, the subgradient branch).
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = seeded(40);
        for (ensemble, batch, bias) in [(5, 10, 0.0), (3, 7, 0.25), (1, 3, 0.0), (2, 1, -0.5)] {
            let mut critic =
                EnsembleCritic::new(14, ensemble, &[64, 64, 64], -3.0, 1e-3, bias, &mut rng);
            let xs: Vec<Vec<f64>> =
                (0..batch).map(|_| (0..14).map(|_| rng.gen::<f64>()).collect()).collect();
            let data: Vec<(&[f64], f64)> = xs.iter().map(|x| (x.as_slice(), x[0] - x[1])).collect();
            for _ in 0..5 {
                critic.train_batches(&vec![data.clone(); ensemble]);
            }
            let mut scratch = CriticScratch::default();
            let input = critic.input_mut(&mut scratch, batch);
            for (l, x) in xs.iter().enumerate() {
                for (f, &v) in x.iter().enumerate() {
                    input[f * batch + l] = v;
                }
            }
            critic.score(&mut scratch);
            for (l, x) in xs.iter().enumerate() {
                assert_eq!(scratch.bound[l].to_bits(), critic.predict(x).to_bits(), "bound {l}");
                let lane: Vec<f64> = scratch.grad.iter().skip(l).step_by(batch).copied().collect();
                assert_eq!(bits(&lane), bits(&critic.input_gradient(x)), "gradient {l}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one batch per base model")]
    fn wrong_batch_count_panics() {
        let mut critic = small_critic(7, 3, -1.0);
        critic.train_batches(&[]);
    }
}
