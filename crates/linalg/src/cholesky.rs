//! Cholesky factorization for symmetric positive-definite matrices.
//!
//! The Gaussian-process surrogate in `glova-turbo` factors its kernel matrix
//! once per hyperparameter trial, solves for its weights, runs blocked
//! forward solves against the factor for its posterior, and needs the
//! log-determinant for the marginal likelihood — exactly the [`Cholesky`]
//! API here.

use crate::{LinalgError, Matrix};

/// The lower-triangular Cholesky factor `L` of `A + jitter·I = L Lᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read. `jitter` is added to the
    /// diagonal before factorization; Gaussian process kernels are
    /// routinely near-singular and a `1e-8`-scale jitter keeps them
    /// factorable without visibly changing the posterior.
    ///
    /// The factor is built column by column (left-looking). Each column's
    /// update runs in lanes over its rows: every entry is an independent
    /// sum that subtracts `l_ik·l_jk` in ascending `k`, exactly the
    /// operation sequence of the textbook row-by-row loop, so the factor
    /// is bit-for-bit the same while the inner loop vectorizes instead of
    /// waiting on one dependent subtraction chain.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// - [`LinalgError::NotPositiveDefinite`] if a pivot is `<= 0`.
    pub fn factor(a: &Matrix, jitter: f64) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::DimensionMismatch {
                context: "cholesky of non-square matrix",
            });
        }
        let n = a.rows();
        // Column-major working copy: `cols[j * n + i]` holds `L[i][j]`
        // for `i >= j`, so a column's rows are contiguous lanes.
        let mut cols = vec![0.0; n * n];
        for j in 0..n {
            for i in j..n {
                cols[j * n + i] = a[(i, j)] + if i == j { jitter } else { 0.0 };
            }
        }
        for j in 0..n {
            let (done, rest) = cols.split_at_mut(j * n);
            let col = &mut rest[j..n];
            for k in 0..j {
                let lk = &done[k * n + j..(k + 1) * n];
                let ljk = lk[0];
                for (s, &lik) in col.iter_mut().zip(lk) {
                    *s -= lik * ljk;
                }
            }
            let pivot = col[0];
            if pivot <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite { index: j, pivot });
            }
            let ljj = pivot.sqrt();
            col[0] = ljj;
            for s in &mut col[1..] {
                *s /= ljj;
            }
        }
        let l = Matrix::from_fn(n, n, |i, j| if j <= i { cols[j * n + i] } else { 0.0 });
        Ok(Self { l })
    }

    /// The lower-triangular factor `L`.
    pub fn factor_matrix(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via forward/backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let y = self.solve_lower(b);
        self.solve_lower_transpose(&y)
    }

    /// Solves `L y = b` (forward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        y
    }

    /// Solves `Lᵀ x = y` (backward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != dim()`.
    pub fn solve_lower_transpose(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(y.len(), n, "rhs length mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }

    /// `log |A|` computed from the factor (numerically stable).
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Applies `L` to a vector: `L v`. Used to draw correlated Gaussian
    /// samples (`x = µ + L z` with `z ~ N(0, I)`).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim()`.
    pub fn lower_mat_vec(&self, v: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(v.len(), n, "vector length mismatch");
        (0..n).map(|i| (0..=i).map(|k| self.l[(i, k)] * v[k]).sum()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The row-by-row loop [`Cholesky::factor`] replaced, kept as the
    /// bitwise oracle: entry `(i, j)` subtracts `l_ik·l_jk` in ascending
    /// `k` as one dependent chain.
    fn factor_row_loop(a: &Matrix, jitter: f64) -> Result<Matrix, LinalgError> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)] + if i == j { jitter } else { 0.0 };
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { index: i, pivot: sum });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Whether `factor` and the row-loop oracle agree bit for bit: the
    /// same factor, or the same failing pivot index and value.
    fn same_as_row_loop(a: &Matrix, jitter: f64) -> Result<(), String> {
        match (Cholesky::factor(a, jitter), factor_row_loop(a, jitter)) {
            (Ok(chol), Ok(oracle)) => {
                let l = chol.factor_matrix();
                for i in 0..a.rows() {
                    for j in 0..a.rows() {
                        if l[(i, j)].to_bits() != oracle[(i, j)].to_bits() {
                            return Err(format!(
                                "L[{i}][{j}]: {} vs {}",
                                l[(i, j)],
                                oracle[(i, j)]
                            ));
                        }
                    }
                }
                Ok(())
            }
            (
                Err(LinalgError::NotPositiveDefinite { index, pivot }),
                Err(LinalgError::NotPositiveDefinite { index: oi, pivot: op }),
            ) if index == oi && pivot.to_bits() == op.to_bits() => Ok(()),
            (got, oracle) => {
                Err(format!("{:?} vs oracle {:?}", got.map(|_| ()), oracle.map(|_| ())))
            }
        }
    }

    fn spd_from_seedlike(entries: &[f64], n: usize) -> Matrix {
        // A = B Bᵀ + n·I is SPD for any B.
        let b = Matrix::from_fn(n, n, |i, j| entries[i * n + j]);
        let mut a = b.mat_mul(&b.transpose()).unwrap();
        a.add_diagonal(n as f64);
        a
    }

    #[test]
    fn factor_known_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let chol = Cholesky::factor(&a, 0.0).unwrap();
        let l = chol.factor_matrix();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]);
        let chol = a.cholesky(0.0).unwrap();
        let x = chol.solve(&[1.0, -2.0, 0.5]);
        let b = a.mat_vec(&x);
        assert!((b[0] - 1.0).abs() < 1e-10);
        assert!((b[1] + 2.0).abs() < 1e-10);
        assert!((b[2] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn log_det_matches_direct() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        // |A| = 12 - 4 = 8
        let chol = a.cholesky(0.0).unwrap();
        assert!((chol.log_determinant() - 8.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn not_positive_definite_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        match Cholesky::factor(&a, 0.0) {
            Err(LinalgError::NotPositiveDefinite { index, .. }) => assert_eq!(index, 1),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 matrix: PSD but not PD.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(Cholesky::factor(&a, 0.0).is_err());
        assert!(Cholesky::factor(&a, 1e-8).is_ok());
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Cholesky::factor(&a, 0.0), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn lower_mat_vec_reconstructs() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let chol = a.cholesky(0.0).unwrap();
        // L (Lᵀ x) = A x
        let x = [1.0, 2.0];
        let ltx = {
            let l = chol.factor_matrix();
            vec![l[(0, 0)] * x[0] + l[(1, 0)] * x[1], l[(1, 1)] * x[1]]
        };
        let ax = chol.lower_mat_vec(&ltx);
        let expect = a.mat_vec(&x);
        assert!((ax[0] - expect[0]).abs() < 1e-12);
        assert!((ax[1] - expect[1]).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_reconstruction(
            entries in proptest::collection::vec(-2.0f64..2.0, 16),
            rhs in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            let a = spd_from_seedlike(&entries, 4);
            let chol = Cholesky::factor(&a, 0.0).unwrap();
            // L Lᵀ == A
            let l = chol.factor_matrix();
            let recon = l.mat_mul(&l.transpose()).unwrap();
            for i in 0..4 {
                for j in 0..4 {
                    prop_assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-8 * (1.0 + a.max_abs()));
                }
            }
            // solve residual
            let x = chol.solve(&rhs);
            let back = a.mat_vec(&x);
            for (bi, ri) in back.iter().zip(&rhs) {
                prop_assert!((bi - ri).abs() < 1e-6 * (1.0 + ri.abs()));
            }
        }

        #[test]
        fn prop_factor_matches_row_loop_bitwise(
            n in 1usize..91,
            entries in proptest::collection::vec(-1.0f64..1.0, 90 * 90),
            jitter in 0.0f64..1e-6,
            spot in 0.0f64..1.0,
        ) {
            // SPD: B Bᵀ plus a small ridge, kernel-matrix-like conditioning.
            let b = Matrix::from_fn(n, n, |i, j| entries[i * n + j]);
            let mut spd = b.mat_mul(&b.transpose()).unwrap();
            spd.add_diagonal(0.1);
            prop_assert!(Cholesky::factor(&spd, jitter).is_ok());

            // Indefinite at a known pivot: a negative diagonal entry fails
            // exactly there, after every earlier column succeeded.
            let p = ((spot * n as f64) as usize).min(n - 1);
            let mut bad = spd.clone();
            bad[(p, p)] = -1.0 - spot;
            let failed_at = match Cholesky::factor(&bad, jitter) {
                Err(LinalgError::NotPositiveDefinite { index, .. }) => Some(index),
                _ => None,
            };
            prop_assert_eq!(failed_at, Some(p));

            // Random symmetric: fails (or not) wherever the data says.
            let sym = Matrix::from_fn(n, n, |i, j| {
                let (r, c) = if i >= j { (i, j) } else { (j, i) };
                entries[r * n + c] + if r == c { 0.5 + spot } else { 0.0 }
            });

            for (what, a) in [("SPD", &spd), ("indefinite", &bad), ("symmetric", &sym)] {
                let parity = same_as_row_loop(a, jitter);
                prop_assert!(parity.is_ok(), "{what} n={n}: {parity:?}");
            }
        }

        #[test]
        fn prop_logdet_positive_for_diagonally_dominant(
            diag in proptest::collection::vec(2.0f64..10.0, 3)
        ) {
            let mut a = Matrix::zeros(3, 3);
            for i in 0..3 {
                a[(i, i)] = diag[i];
            }
            let chol = a.cholesky(0.0).unwrap();
            let expect: f64 = diag.iter().map(|d| d.ln()).sum();
            prop_assert!((chol.log_determinant() - expect).abs() < 1e-9);
        }
    }
}
