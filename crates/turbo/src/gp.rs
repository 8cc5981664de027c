//! Gaussian-process regression with marginal-likelihood hyperparameter
//! search.
//!
//! A fit lays its training inputs out once, twice over: row-major (one
//! point contiguous) and dimension-major (one coordinate of every point
//! contiguous). Both hot loops then run in lanes across independent sums
//! and never inside one:
//!
//! - the kernel matrix is built row by row over the lower triangle, the
//!   only part [`Cholesky::factor`] reads, with lanes over the columns;
//! - the posterior of a block of queries is one forward solve over all
//!   of them, with lanes over the queries.
//!
//! Every lane adds its terms in the order the pair-by-pair, query-by-query
//! formulation does, so the results are bit-for-bit the same.

use crate::kernel::Matern52;
use glova_linalg::{Cholesky, Matrix};
use rand::Rng;

/// A fitted Gaussian process over observations `(X, y)`.
///
/// Targets are standardized internally; predictions are returned in the
/// original scale.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Matern52,
    noise_variance: f64,
    /// Training inputs, row-major: point `i` is `x[i * dim..(i + 1) * dim]`.
    x: Vec<f64>,
    y_standardized: Vec<f64>,
    alpha: Vec<f64>,
    chol: Cholesky,
    y_mean: f64,
    y_std: f64,
}

impl GaussianProcess {
    /// Jitter added to the kernel matrix diagonal for numerical stability.
    const JITTER: f64 = 1e-8;

    /// Fits a GP with fixed hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty, lengths differ, or the kernel matrix cannot
    /// be factored (should not happen with positive noise).
    pub fn fit(kernel: Matern52, noise_variance: f64, x: &[Vec<f64>], y: &[f64]) -> Self {
        let data = Training::new(x, y);
        assert!(noise_variance > 0.0, "noise variance must be positive");
        let n = y.len();
        let (chol, alpha) = data.factor(&kernel, noise_variance, &mut Matrix::zeros(n, n));
        data.into_gp(kernel, noise_variance, chol, alpha)
    }

    /// Fits hyperparameters by random search over log-space, maximizing the
    /// log marginal likelihood, then returns the best fitted GP.
    ///
    /// The inputs are laid out and the targets standardized once; the
    /// trials share them and one kernel-matrix buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or lengths differ.
    pub fn fit_auto<P: AsRef<[f64]>, R: Rng + ?Sized>(x: &[P], y: &[f64], rng: &mut R) -> Self {
        let data = Training::new(x, y);
        let (n, dim) = (y.len(), data.dim);
        let mut k = Matrix::zeros(n, n);
        let mut best: Option<(f64, Matern52, f64, Cholesky, Vec<f64>)> = None;
        // Random search: isotropic seeds plus ARD perturbations.
        const TRIALS: usize = 24;
        for trial in 0..TRIALS {
            let base_ls = 10f64.powf(rng.gen_range(-1.2..0.5));
            let lengthscales: Vec<f64> = (0..dim)
                .map(|_| {
                    if trial < TRIALS / 2 {
                        base_ls
                    } else {
                        base_ls * 10f64.powf(rng.gen_range(-0.4..0.4))
                    }
                })
                .collect();
            let noise = 10f64.powf(rng.gen_range(-6.0..-2.0));
            let kernel = Matern52::new(1.0, lengthscales);
            let (chol, alpha) = data.factor(&kernel, noise, &mut k);
            let lml = log_marginal_likelihood(&alpha, &data.y_n, &chol);
            if best.as_ref().is_none_or(|(b, ..)| lml > *b) {
                best = Some((lml, kernel, noise, chol, alpha));
            }
        }
        let (_, kernel, noise, chol, alpha) = best.expect("at least one trial");
        data.into_gp(kernel, noise, chol, alpha)
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.alpha.len()
    }

    /// Whether the GP has no training points (never true post-`fit`).
    pub fn is_empty(&self) -> bool {
        self.alpha.is_empty()
    }

    /// Log marginal likelihood of the training data (standardized space).
    pub fn log_marginal_likelihood(&self) -> f64 {
        log_marginal_likelihood(&self.alpha, &self.y_standardized, &self.chol)
    }

    /// Posterior mean and variance at `query` (original target scale).
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong dimension.
    pub fn predict(&self, query: &[f64]) -> (f64, f64) {
        assert_eq!(query.len(), self.dim(), "kernel input dimension mismatch");
        let (mut mean, mut var) = ([0.0], [0.0]);
        self.posterior_block(query, &mut Vec::new(), &mut mean, &mut var);
        (mean[0], var[0])
    }

    /// Posterior means and variances (original target scale) of the
    /// `m = mean.len()` queries stored dimension-major in `queries`,
    /// coordinate `d` of query `c` at `queries[d * m + c]`.
    ///
    /// One forward solve `L V = K*` covers every query, lanes over the
    /// queries; `v` is the reused `n × m` workspace. Each lane keeps the
    /// single-query operation order (`k*·α` and `Σ v²` summed from `−0.0`
    /// in ascending training index, the solve's subtractions in ascending
    /// column), so query `c` gets bit-for-bit its one-query posterior.
    pub(crate) fn posterior_block(
        &self,
        queries: &[f64],
        v: &mut Vec<f64>,
        mean: &mut [f64],
        var: &mut [f64],
    ) {
        let (n, m, dim) = (self.len(), mean.len(), self.dim());
        assert_eq!(var.len(), m, "mean/variance length mismatch");
        assert_eq!(queries.len(), dim * m, "query block shape mismatch");
        if m == 0 {
            return;
        }
        v.clear();
        v.resize(n * m, 0.0);
        // `mean` accumulates k*·α and `var` accumulates Σ v², per query.
        mean.fill(-0.0);
        var.fill(-0.0);
        let l = self.chol.factor_matrix();
        for i in 0..n {
            let (solved, rest) = v.split_at_mut(i * m);
            let vi = &mut rest[..m];
            self.kernel.eval_lanes(queries, m, &self.x[i * dim..(i + 1) * dim], vi);
            let ai = self.alpha[i];
            for (mu, &k) in mean.iter_mut().zip(vi.iter()) {
                *mu += k * ai;
            }
            let li = l.row(i);
            for (&lik, vk) in li.iter().zip(solved.chunks_exact(m)) {
                for (s, &x) in vi.iter_mut().zip(vk) {
                    *s -= lik * x;
                }
            }
            let lii = li[i];
            for (s, ss) in vi.iter_mut().zip(var.iter_mut()) {
                *s /= lii;
                *ss += *s * *s;
            }
        }
        // k(q, q) is σ² exactly for a finite query (zero distance); a
        // non-finite one makes `v` NaN, which the clamp below maps to the
        // same floor either way.
        let k_ss = self.kernel.signal_variance() + self.noise_variance;
        for (mu, s2) in mean.iter_mut().zip(var.iter_mut()) {
            let var_n = (k_ss - *s2).max(1e-12);
            *mu = self.y_mean + self.y_std * *mu;
            *s2 = var_n * self.y_std * self.y_std;
        }
    }

    /// Input dimension.
    fn dim(&self) -> usize {
        self.kernel.lengthscales().len()
    }
}

/// Log marginal likelihood of standardized targets `y_n` given their
/// factored kernel matrix and `α = K⁻¹ y_n`.
fn log_marginal_likelihood(alpha: &[f64], y_n: &[f64], chol: &Cholesky) -> f64 {
    let n = y_n.len() as f64;
    let data_fit: f64 = -0.5 * alpha.iter().zip(y_n).map(|(a, y)| a * y).sum::<f64>();
    data_fit - 0.5 * chol.log_determinant() - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
}

/// Training data laid out once per fit and shared by its trials.
struct Training {
    dim: usize,
    /// Row-major inputs: point `i` is `rows[i * dim..(i + 1) * dim]`.
    rows: Vec<f64>,
    /// Dimension-major inputs: coordinate `d` of point `i` is
    /// `cols[d * n + i]`.
    cols: Vec<f64>,
    y_n: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

impl Training {
    fn new<P: AsRef<[f64]>>(x: &[P], y: &[f64]) -> Self {
        assert!(!x.is_empty(), "cannot fit a GP to zero observations");
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        let (n, dim) = (x.len(), x[0].as_ref().len());
        let mut rows = Vec::with_capacity(n * dim);
        for p in x {
            assert_eq!(p.as_ref().len(), dim, "kernel input dimension mismatch");
            rows.extend_from_slice(p.as_ref());
        }
        let cols = (0..dim * n).map(|k| rows[(k % n) * dim + k / n]).collect();
        let y_mean = glova_stats::descriptive::mean(y);
        let y_std = glova_stats::descriptive::std_dev(y).max(1e-9);
        let y_n = y.iter().map(|v| (v - y_mean) / y_std).collect();
        Self { dim, rows, cols, y_n, y_mean, y_std }
    }

    /// Factors `K + (noise + jitter)·I` for one set of hyperparameters,
    /// writing the kernel matrix's lower triangle into `k`, and returns the
    /// factor with `α = K⁻¹ y`.
    fn factor(
        &self,
        kernel: &Matern52,
        noise_variance: f64,
        k: &mut Matrix,
    ) -> (Cholesky, Vec<f64>) {
        let n = self.y_n.len();
        for i in 0..n {
            let row = &mut k.row_mut(i)[..=i];
            kernel.eval_lanes(&self.cols, n, &self.rows[i * self.dim..(i + 1) * self.dim], row);
            row[i] += noise_variance + GaussianProcess::JITTER;
        }
        let chol = k.cholesky(0.0).expect("kernel matrix must be SPD with positive noise");
        let alpha = chol.solve(&self.y_n);
        (chol, alpha)
    }

    fn into_gp(
        self,
        kernel: Matern52,
        noise_variance: f64,
        chol: Cholesky,
        alpha: Vec<f64>,
    ) -> GaussianProcess {
        GaussianProcess {
            kernel,
            noise_variance,
            x: self.rows,
            y_standardized: self.y_n,
            alpha,
            chol,
            y_mean: self.y_mean,
            y_std: self.y_std,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_stats::normal::StandardNormal;
    use glova_stats::rng::seeded;

    fn toy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (xs, ys) = toy_data();
        let gp = GaussianProcess::fit(Matern52::isotropic(1.0, 0.2, 1), 1e-6, &xs, &ys);
        for (x, y) in xs.iter().zip(&ys) {
            let (mu, _) = gp.predict(x);
            assert!((mu - y).abs() < 0.01, "at {x:?}: {mu} vs {y}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (xs, ys) = toy_data();
        let gp = GaussianProcess::fit(Matern52::isotropic(1.0, 0.1, 1), 1e-6, &xs, &ys);
        let (_, var_near) = gp.predict(&[0.5]);
        let (_, var_far) = gp.predict(&[3.0]);
        assert!(var_far > 10.0 * var_near, "{var_far} vs {var_near}");
    }

    #[test]
    fn auto_fit_generalizes() {
        let (xs, ys) = toy_data();
        let mut rng = seeded(8);
        let gp = GaussianProcess::fit_auto(&xs, &ys, &mut rng);
        // Predict at held-out midpoints.
        for i in 0..10 {
            let x = [(2.0 * i as f64 + 1.0) / 38.0];
            let truth = (6.0 * x[0]).sin();
            let (mu, _) = gp.predict(&x);
            assert!((mu - truth).abs() < 0.1, "at {x:?}: {mu} vs {truth}");
        }
    }

    #[test]
    fn lml_prefers_sane_lengthscales() {
        let (xs, ys) = toy_data();
        let good = GaussianProcess::fit(Matern52::isotropic(1.0, 0.15, 1), 1e-4, &xs, &ys);
        let bad = GaussianProcess::fit(Matern52::isotropic(1.0, 1e-3, 1), 1e-4, &xs, &ys);
        assert!(good.log_marginal_likelihood() > bad.log_marginal_likelihood());
    }

    #[test]
    fn thompson_samples_spread_with_variance() {
        // The draw `Turbo::ask` scores candidates with: µ + σ·z.
        let (xs, ys) = toy_data();
        let gp = GaussianProcess::fit(Matern52::isotropic(1.0, 0.1, 1), 1e-6, &xs, &ys);
        let normal = StandardNormal::new();
        let mut rng = seeded(10);
        let mut draws = |query: f64| -> Vec<f64> {
            let (mu, var) = gp.predict(&[query]);
            (0..200).map(|_| mu + var.sqrt() * normal.sample(&mut rng)).collect()
        };
        let far = draws(5.0);
        let near = draws(0.5);
        assert!(glova_stats::descriptive::std_dev(&far) > glova_stats::descriptive::std_dev(&near));
    }

    /// The one-query posterior as computed before the block path: a
    /// scalar kernel evaluation per training point and one forward solve
    /// per query. The bitwise oracle for `posterior_block`.
    fn predict_oracle(gp: &GaussianProcess, query: &[f64]) -> (f64, f64) {
        let dim = gp.dim();
        let k_star: Vec<f64> = gp.x.chunks_exact(dim).map(|xi| gp.kernel.eval(xi, query)).collect();
        let mean_n: f64 = k_star.iter().zip(&gp.alpha).map(|(k, a)| k * a).sum();
        let v = gp.chol.solve_lower(&k_star);
        let k_ss = gp.kernel.eval(query, query) + gp.noise_variance;
        let var_n = (k_ss - v.iter().map(|vi| vi * vi).sum::<f64>()).max(1e-12);
        (gp.y_mean + gp.y_std * mean_n, var_n * gp.y_std * gp.y_std)
    }

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = seeded(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect()).collect()
    }

    /// A 14-dimensional GP with ARD lengthscales, fit the way `Turbo::ask`
    /// fits one.
    fn sal_like_gp() -> GaussianProcess {
        let xs = random_points(54, 14, 21);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x.iter().enumerate().map(|(d, v)| (d as f64 + 1.0) * (v - 0.4).powi(2)).sum())
            .collect();
        let gp = GaussianProcess::fit_auto(&xs, &ys, &mut seeded(22));
        assert!(gp.kernel.lengthscales().windows(2).any(|w| w[0] != w[1]), "want an ARD fit");
        gp
    }

    #[test]
    fn block_posterior_matches_scalar_oracle_bitwise() {
        let gp = sal_like_gp();
        let dim = gp.dim();
        let queries = random_points(1400, dim, 23);
        let mut v = Vec::new();
        for m in [1, 63, 64, 65, 1400] {
            let block: Vec<f64> = (0..dim * m).map(|k| queries[k % m][k / m]).collect();
            let (mut mean, mut var) = (vec![0.0; m], vec![0.0; m]);
            gp.posterior_block(&block, &mut v, &mut mean, &mut var);
            for (c, q) in queries[..m].iter().enumerate() {
                let (mu, s2) = predict_oracle(&gp, q);
                assert_eq!(mean[c].to_bits(), mu.to_bits(), "mean of query {c} in a block of {m}");
                assert_eq!(
                    var[c].to_bits(),
                    s2.to_bits(),
                    "variance of query {c} in a block of {m}"
                );
            }
        }
        let (mu, s2) = gp.predict(&queries[7]);
        assert_eq!((mu.to_bits(), s2.to_bits()), {
            let (a, b) = predict_oracle(&gp, &queries[7]);
            (a.to_bits(), b.to_bits())
        });
    }

    #[test]
    fn fit_matches_pairwise_kernel_matrix_bitwise() {
        // The lane-built lower triangle factors to exactly what the full
        // pair-by-pair kernel matrix does.
        let xs = random_points(40, 14, 24);
        let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>().sin()).collect();
        let kernel = Matern52::new(1.7, (0..14).map(|d| 0.1 + 0.05 * d as f64).collect());
        let gp = GaussianProcess::fit(kernel.clone(), 1e-4, &xs, &ys);
        let mut k = Matrix::from_fn(40, 40, |i, j| kernel.eval(&xs[i], &xs[j]));
        k.add_diagonal(1e-4 + GaussianProcess::JITTER);
        let chol = k.cholesky(0.0).unwrap();
        let bits = |m: &Matrix| {
            (0..m.rows()).flat_map(|i| m.row(i).to_vec()).map(f64::to_bits).collect::<Vec<_>>()
        };
        assert_eq!(bits(gp.chol.factor_matrix()), bits(chol.factor_matrix()));
        let alpha = chol.solve(&gp.y_standardized);
        assert!(gp.alpha.iter().zip(&alpha).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    #[should_panic(expected = "zero observations")]
    fn empty_fit_panics() {
        GaussianProcess::fit(Matern52::isotropic(1.0, 0.1, 1), 1e-6, &[], &[]);
    }

    #[test]
    fn prediction_scale_restored() {
        // Targets far from zero: prediction must come back in original units.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 500.0 + 3.0 * x[0]).collect();
        let gp = GaussianProcess::fit(Matern52::isotropic(1.0, 0.5, 1), 1e-6, &xs, &ys);
        let (mu, _) = gp.predict(&[0.5]);
        assert!((mu - 501.5).abs() < 0.5, "{mu}");
    }
}
