//! Covariance kernels.

/// Matérn-5/2 kernel with automatic relevance determination (per-dimension
/// lengthscales) — the standard choice for TuRBO's GP surrogate.
///
/// `k(a, b) = σ² (1 + √5 r + 5r²/3) exp(−√5 r)` with
/// `r² = Σ_d ((a_d − b_d)/ℓ_d)²`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matern52 {
    signal_variance: f64,
    lengthscales: Vec<f64>,
}

impl Matern52 {
    /// Creates a kernel.
    ///
    /// # Panics
    ///
    /// Panics if `signal_variance <= 0` or any lengthscale `<= 0`.
    pub fn new(signal_variance: f64, lengthscales: Vec<f64>) -> Self {
        assert!(signal_variance > 0.0, "signal variance must be positive");
        assert!(
            lengthscales.iter().all(|&l| l > 0.0),
            "lengthscales must be positive: {lengthscales:?}"
        );
        Self { signal_variance, lengthscales }
    }

    /// Isotropic kernel with a single lengthscale replicated over `dim`.
    pub fn isotropic(signal_variance: f64, lengthscale: f64, dim: usize) -> Self {
        Self::new(signal_variance, vec![lengthscale; dim])
    }

    /// Signal variance σ².
    pub fn signal_variance(&self) -> f64 {
        self.signal_variance
    }

    /// Per-dimension lengthscales.
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// Evaluates `k(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if input dimensions differ from the kernel's.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), self.lengthscales.len(), "kernel input dimension mismatch");
        assert_eq!(b.len(), self.lengthscales.len(), "kernel input dimension mismatch");
        let r2: f64 = a
            .iter()
            .zip(b)
            .zip(&self.lengthscales)
            .map(|((&x, &y), &l)| {
                let d = (x - y) / l;
                d * d
            })
            .sum();
        self.at_sq_dist(r2)
    }

    /// Lane kernel: `out[j] = k(x_j, y)` for `out.len()` points stored
    /// dimension-major, coordinate `d` of point `j` at `xt[d * stride + j]`.
    ///
    /// Each lane is its own sum: `r²[j]` starts from `−0.0` (where
    /// `f64::sum` starts) and adds `((x_jd − y_d)/ℓ_d)²` over `d` in
    /// order, so every lane is bit-for-bit [`Matern52::eval`] of its
    /// point. The argument order does not matter: `(a − b)/ℓ` and
    /// `(b − a)/ℓ` differ only in sign, so their squares are equal.
    ///
    /// # Panics
    ///
    /// Panics if `y` has the wrong dimension or `xt` is too short.
    pub(crate) fn eval_lanes(&self, xt: &[f64], stride: usize, y: &[f64], out: &mut [f64]) {
        assert_eq!(y.len(), self.lengthscales.len(), "kernel input dimension mismatch");
        let m = out.len();
        out.fill(-0.0);
        for (d, (&yd, &l)) in y.iter().zip(&self.lengthscales).enumerate() {
            for (r2, &x) in out.iter_mut().zip(&xt[d * stride..d * stride + m]) {
                let t = (x - yd) / l;
                *r2 += t * t;
            }
        }
        for v in out.iter_mut() {
            *v = self.at_sq_dist(*v);
        }
    }

    /// `σ² (1 + √5 r + 5r²/3) exp(−√5 r)` from the scaled squared
    /// distance `r²`.
    fn at_sq_dist(&self, r2: f64) -> f64 {
        let r = r2.sqrt();
        let sqrt5_r = 5.0f64.sqrt() * r;
        self.signal_variance * (1.0 + sqrt5_r + 5.0 * r2 / 3.0) * (-sqrt5_r).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn self_covariance_is_signal_variance() {
        let k = Matern52::isotropic(2.5, 0.3, 4);
        let x = [0.1, 0.2, 0.3, 0.4];
        assert!((k.eval(&x, &x) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn decays_with_distance() {
        let k = Matern52::isotropic(1.0, 0.2, 1);
        let k0 = k.eval(&[0.0], &[0.0]);
        let k1 = k.eval(&[0.0], &[0.1]);
        let k2 = k.eval(&[0.0], &[0.5]);
        assert!(k0 > k1 && k1 > k2);
        assert!(k2 > 0.0);
    }

    #[test]
    fn ard_weights_dimensions() {
        // A short lengthscale in dim 0 makes distance in dim 0 matter more.
        let k = Matern52::new(1.0, vec![0.05, 1.0]);
        let near_in_0 = k.eval(&[0.0, 0.0], &[0.05, 0.0]);
        let near_in_1 = k.eval(&[0.0, 0.0], &[0.0, 0.05]);
        assert!(near_in_1 > near_in_0);
    }

    #[test]
    #[should_panic(expected = "lengthscales must be positive")]
    fn zero_lengthscale_panics() {
        Matern52::new(1.0, vec![0.0]);
    }

    #[test]
    fn lanes_match_eval_bitwise_with_ard() {
        let k = Matern52::new(1.3, vec![0.07, 0.5, 2.0, 0.013, 1.0]);
        let dim = k.lengthscales().len();
        let mut rng = glova_stats::rng::seeded(11);
        let points: Vec<Vec<f64>> =
            (0..37).map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect()).collect();
        // Lay the points out dimension-major with a stride wider than the
        // lane count, and include a lane equal to `y` (zero distance).
        let stride = 40;
        let mut xt = vec![f64::NAN; dim * stride];
        for (j, p) in points.iter().enumerate() {
            for d in 0..dim {
                xt[d * stride + j] = p[d];
            }
        }
        for y in [&points[0], &points[20], &vec![0.5; dim]] {
            let mut out = vec![0.0; points.len()];
            k.eval_lanes(&xt, stride, y, &mut out);
            for (j, p) in points.iter().enumerate() {
                assert_eq!(out[j].to_bits(), k.eval(p, y).to_bits(), "lane {j}");
                assert_eq!(out[j].to_bits(), k.eval(y, p).to_bits(), "lane {j} swapped");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_symmetric_and_bounded(
            a in proptest::collection::vec(0.0f64..1.0, 3),
            b in proptest::collection::vec(0.0f64..1.0, 3),
        ) {
            let k = Matern52::isotropic(1.7, 0.4, 3);
            let kab = k.eval(&a, &b);
            let kba = k.eval(&b, &a);
            prop_assert!((kab - kba).abs() < 1e-12);
            prop_assert!(kab > 0.0 && kab <= 1.7 + 1e-12);
        }
    }
}
