//! LU factorization with partial pivoting.
//!
//! The MNA circuit engine solves `G x = b` at every Newton iteration and
//! every transient time step; the matrices are unsymmetric (voltage-source
//! branch equations), so Cholesky does not apply and LU with partial
//! pivoting is the workhorse.

use crate::{LinalgError, Matrix};

/// Compact LU factorization `P A = L U` with partial pivoting.
///
/// `L` (unit lower) and `U` (upper) are stored interleaved in a single
/// matrix; `perm` records row swaps.
#[derive(Debug, Clone, PartialEq)]
pub struct Lu {
    lu: Matrix,
    perm: Vec<usize>,
    sign: f64,
}

impl Lu {
    /// Pivot threshold below which a step is declared singular. A pivot
    /// passes if **either** its absolute magnitude or its magnitude
    /// *relative to its row's largest original entry* reaches this
    /// floor: an absolute-only threshold misclassifies rows that are
    /// uniformly tiny but well-conditioned relative to themselves —
    /// exactly what a long unloaded mid-rail inverter chain produces on
    /// the final `gmin` rungs, where cutoff-device node rows carry only
    /// `gmin`-scale conductances and border-block cancellation leaves
    /// pivots far below any fixed absolute floor while the row itself is
    /// equally small. Accepting on either criterion makes the check a
    /// strict relaxation of the historical absolute test, so every
    /// previously working factorization is bitwise unchanged.
    const SINGULARITY_EPS: f64 = 1e-13;

    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// - [`LinalgError::Singular`] if a pivot column is all (numerically)
    ///   zero.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::DimensionMismatch { context: "lu of non-square matrix" });
        }
        let n = a.rows();
        let mut this = Self { lu: a.clone(), perm: (0..n).collect(), sign: 1.0 };
        this.eliminate()?;
        Ok(this)
    }

    /// Re-factors an equally sized matrix **in place**, reusing this
    /// factorization's storage — no allocation on the Newton hot path,
    /// where the MNA Jacobian is re-factored whenever chord iteration
    /// stalls.
    ///
    /// On error the factorization is left in an unspecified state and
    /// must not be used for solves.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] if `a`'s shape differs from
    ///   the factored matrix.
    /// - [`LinalgError::Singular`] as in [`Lu::factor`].
    pub fn refactor(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        if a.rows() != self.lu.rows() || a.cols() != self.lu.cols() {
            return Err(LinalgError::DimensionMismatch { context: "lu refactor shape mismatch" });
        }
        self.lu.copy_from(a);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        self.sign = 1.0;
        self.eliminate()
    }

    /// Scaled-partial-pivoting elimination over `self.lu` (which holds the
    /// original matrix on entry and the packed `L`/`U` factors on success).
    fn eliminate(&mut self) -> Result<(), LinalgError> {
        let n = self.lu.rows();
        let lu = &mut self.lu;

        // Scale factors for scaled partial pivoting: more robust for the
        // badly scaled MNA matrices (conductances span ~1e-12..1e3).
        let scale: Vec<f64> =
            (0..n).map(|i| lu.row(i).iter().fold(0.0f64, |m, v| m.max(v.abs()))).collect();

        for k in 0..n {
            // Find pivot row.
            let mut pivot_row = k;
            let mut best = 0.0;
            for i in k..n {
                let s = if scale[self.perm[i]] > 0.0 { scale[self.perm[i]] } else { 1.0 };
                let mag = lu[(i, k)].abs() / s;
                if mag > best {
                    best = mag;
                    pivot_row = i;
                }
            }
            // Singular only when the chosen pivot fails BOTH floors: the
            // historical absolute test (so every previously working
            // factorization is untouched) and the scaled test (`best` is
            // already |pivot| / row scale, which rescues uniformly tiny
            // but self-consistent rows). A pivot failing both is also
            // guaranteed nonzero-safe to reject before the division
            // below; an all-zero row (scale substituted by 1.0) fails
            // both floors.
            if lu[(pivot_row, k)].abs() < Self::SINGULARITY_EPS && best < Self::SINGULARITY_EPS {
                return Err(LinalgError::Singular { index: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                self.perm.swap(k, pivot_row);
                self.sign = -self.sign;
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in k + 1..n {
                    lu[(i, j)] -= factor * lu[(k, j)];
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A x = b` into a caller-provided buffer, reusing its
    /// allocation — the per-iteration solve of the Newton loop.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Apply permutation, then forward/backward substitution.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        for i in 1..n {
            let mut sum = x[i];
            for k in 0..i {
                sum -= self.lu[(i, k)] * x[k];
            }
            x[i] = sum;
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in i + 1..n {
                sum -= self.lu[(i, k)] * x[k];
            }
            x[i] = sum / self.lu[(i, i)];
        }
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        self.sign * (0..self.dim()).map(|i| self.lu[(i, i)]).product::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let lu = a.lu().unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        // 2x + y = 3, x + 3y = 5 → x = 4/5, y = 7/5
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = a.lu().unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(3, 2);
        assert!(matches!(a.lu(), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn determinant_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!((a.lu().unwrap().determinant() + 2.0).abs() < 1e-12);
        let eye = Matrix::identity(4);
        assert!((eye.lu().unwrap().determinant() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn refactor_matches_fresh_factorization() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = Matrix::from_rows(&[&[0.0, 4.0], &[-1.0, 2.0]]);
        let mut lu = a.lu().unwrap();
        lu.refactor(&b).unwrap();
        let fresh = b.lu().unwrap();
        assert_eq!(lu, fresh);
        let x = lu.solve(&[8.0, 1.0]);
        let back = b.mat_vec(&x);
        assert!((back[0] - 8.0).abs() < 1e-12 && (back[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn refactor_rejects_shape_mismatch_and_singularity() {
        let mut lu = Matrix::identity(2).lu().unwrap();
        assert!(matches!(
            lu.refactor(&Matrix::identity(3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(lu.refactor(&singular), Err(LinalgError::Singular { .. })));
        // Recoverable: a subsequent good refactor restores a usable state.
        lu.refactor(&Matrix::identity(2)).unwrap();
        assert_eq!(lu.solve(&[5.0, 7.0]), vec![5.0, 7.0]);
    }

    #[test]
    fn solve_into_reuses_buffer() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let lu = a.lu().unwrap();
        let mut buf = vec![99.0; 7];
        lu.solve_into(&[3.0, 5.0], &mut buf);
        assert_eq!(buf.len(), 2);
        assert!((buf[0] - 0.8).abs() < 1e-12);
        assert!((buf[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn uniformly_tiny_rows_are_not_singular() {
        // A row whose every entry sits at gmin scale (1e-12) has pivots
        // far below any absolute floor, yet the system is perfectly
        // conditioned relative to itself — the scaled threshold must
        // factor it. This is the dense-robustness case of long unloaded
        // mid-rail inverter chains (cutoff devices leave node rows with
        // only gmin-scale conductances).
        let g = 1e-12;
        let a = Matrix::from_rows(&[&[2.0 * g, -g, 0.0], &[-g, 2.0 * g, -g], &[0.0, -g, 2.0 * g]]);
        let lu = a.lu().expect("tiny but well-conditioned rows must factor");
        let x_true = [1.0, -2.0, 3.0];
        let b = a.mat_vec(&x_true);
        let x = lu.solve(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        // A genuinely dependent system is still rejected.
        let singular = Matrix::from_rows(&[&[g, 2.0 * g], &[2.0 * g, 4.0 * g]]);
        assert!(matches!(singular.lu(), Err(LinalgError::Singular { .. })));
        // An all-zero row (scale 0, substituted by 1.0) is singular, not
        // a division by zero.
        let zero_row = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0]]);
        assert!(matches!(zero_row.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn badly_scaled_system() {
        // Conductance-like scaling: entries spanning 12 orders of magnitude.
        let a = Matrix::from_rows(&[&[1e-9, 1.0], &[1.0, 1e3]]);
        let lu = a.lu().unwrap();
        let x_true = [2.0, 3.0];
        let b = a.mat_vec(&x_true);
        let x = lu.solve(&b);
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!((x[1] - 3.0).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_solve_residual_small(
            entries in proptest::collection::vec(-5.0f64..5.0, 16),
            rhs in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            // Diagonally dominate to guarantee non-singularity.
            let mut a = Matrix::from_fn(4, 4, |i, j| entries[i * 4 + j]);
            for i in 0..4 {
                a[(i, i)] += 25.0;
            }
            let lu = a.lu().unwrap();
            let x = lu.solve(&rhs);
            let back = a.mat_vec(&x);
            for (bi, ri) in back.iter().zip(&rhs) {
                prop_assert!((bi - ri).abs() < 1e-8 * (1.0 + ri.abs()));
            }
        }

        #[test]
        fn prop_determinant_of_permutation_is_pm_one(swap in 0usize..2) {
            let a = if swap == 0 {
                Matrix::identity(3)
            } else {
                Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]])
            };
            let det = a.lu().unwrap().determinant();
            prop_assert!((det.abs() - 1.0).abs() < 1e-12);
        }
    }
}
