//! LU factorization with partial pivoting.
//!
//! The MNA circuit engine solves `G x = b` at every Newton iteration and
//! every transient time step; the matrices are unsymmetric (voltage-source
//! branch equations), so Cholesky does not apply and LU with partial
//! pivoting is the workhorse.
//!
//! Elimination and both substitutions run over row slices of the packed
//! factor, and the pivot scales live in the factorization, so a
//! [`Lu::refactor`] allocates nothing. Each entry sees the same IEEE-754
//! operations in the same order as the index-based loops they replaced,
//! which the unit tests keep as bitwise oracles.

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
    /// Pivot scale of each row in its current position: the row's
    /// largest original magnitude, or 1 for an all-zero row. Kept so a
    /// refactor reuses it.
    scale: Vec<f64>,
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
        let mut this =
            Self { lu: a.clone(), perm: (0..n).collect(), sign: 1.0, scale: Vec::with_capacity(n) };
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
    /// original matrix on entry and the packed `L`/`U` factors on success),
    /// one row slice at a time.
    fn eliminate(&mut self) -> Result<(), LinalgError> {
        let n = self.lu.rows();
        if n == 0 {
            return Ok(());
        }
        let lu = self.lu.as_mut_slice();
        // Scale factors for scaled partial pivoting: more robust for the
        // badly scaled MNA matrices (conductances span ~1e-12..1e3). The
        // buffer follows its row through every swap.
        self.scale.clear();
        self.scale.extend(lu.chunks_exact(n).map(|row| {
            let s = row.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if s > 0.0 {
                s
            } else {
                1.0
            }
        }));

        for k in 0..n {
            // Find pivot row.
            let mut pivot_row = k;
            let mut best = 0.0;
            for i in k..n {
                let mag = lu[i * n + k].abs() / self.scale[i];
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
            if lu[pivot_row * n + k].abs() < Self::SINGULARITY_EPS && best < Self::SINGULARITY_EPS {
                return Err(LinalgError::Singular { index: k });
            }
            if pivot_row != k {
                let (upper, lower) = lu.split_at_mut(pivot_row * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                self.perm.swap(k, pivot_row);
                self.scale.swap(k, pivot_row);
                self.sign = -self.sign;
            }
            let (upper, lower) = lu.split_at_mut((k + 1) * n);
            let pivot_row = &upper[k * n..];
            let pivot = pivot_row[k];
            let u = &pivot_row[k + 1..];
            for row in lower.chunks_exact_mut(n) {
                let factor = row[k] / pivot;
                row[k] = factor;
                for (target, &uj) in row[k + 1..].iter_mut().zip(u) {
                    *target -= factor * uj;
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
        // Apply permutation, then forward/backward substitution, each
        // row's sum accumulated in ascending column order.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        let lu = self.lu.as_slice();
        for i in 1..n {
            let (solved, rest) = x.split_at_mut(i);
            let mut sum = rest[0];
            for (l, xk) in lu[i * n..i * n + i].iter().zip(solved.iter()) {
                sum -= l * xk;
            }
            rest[0] = sum;
        }
        for i in (0..n).rev() {
            let (head, solved) = x.split_at_mut(i + 1);
            let row = &lu[i * n..(i + 1) * n];
            let mut sum = head[i];
            for (u, xk) in row[i + 1..].iter().zip(solved.iter()) {
                sum -= u * xk;
            }
            head[i] = sum / row[i];
        }
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        self.sign * (0..self.dim()).map(|i| self.lu[(i, i)]).product::<f64>()
    }
}

/// The index-based elimination and substitutions the row-slice kernels
/// replaced — the bitwise oracles of the unit tests.
#[cfg(test)]
impl Lu {
    /// [`Lu::factor`] through the index-based elimination (pivot scales
    /// recomputed per call and read through the permutation).
    fn factor_indexed(a: &Matrix) -> Result<Self, LinalgError> {
        let n = a.rows();
        let mut this = Self { lu: a.clone(), perm: (0..n).collect(), sign: 1.0, scale: Vec::new() };
        this.eliminate_indexed()?;
        Ok(this)
    }

    fn eliminate_indexed(&mut self) -> Result<(), LinalgError> {
        let n = self.lu.rows();
        let lu = &mut self.lu;
        let scale: Vec<f64> =
            (0..n).map(|i| lu.row(i).iter().fold(0.0f64, |m, v| m.max(v.abs()))).collect();
        for k in 0..n {
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

    fn solve_into_indexed(&self, b: &[f64], x: &mut Vec<f64>) {
        let n = self.dim();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// A random `n × n` matrix with zero entries: an entry vanishes
    /// where its `zeros` draw is below 0.3, a diagonal entry where its
    /// `zero_diag` draw is below 0.4 (forcing row swaps), and a
    /// `copy_row` in `1..n` duplicates row 0 there, which makes most such
    /// matrices singular.
    fn random_matrix(
        n: usize,
        entries: &[f64],
        zeros: &[f64],
        zero_diag: &[f64],
        copy_row: usize,
    ) -> Matrix {
        let mut a =
            Matrix::from_fn(
                n,
                n,
                |i, j| if zeros[i * n + j] < 0.3 { 0.0 } else { entries[i * n + j] },
            );
        for i in 0..n {
            if zero_diag[i] < 0.4 {
                a[(i, i)] = 0.0;
            }
        }
        if (1..n).contains(&copy_row) {
            for j in 0..n {
                a[(copy_row, j)] = a[(0, j)];
            }
        }
        a
    }

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
        // The row-slice elimination and substitutions agree with the
        // index-based oracle bit for bit: packed factors, permutation,
        // sign and solutions, and a singular input fails at the same
        // step. A refactor over a factorization of another matrix runs
        // the same kernel.
        #[test]
        fn prop_row_slice_kernels_match_indexed_oracle(
            n in 1usize..8,
            entries in proptest::collection::vec(-10.0f64..10.0, 49),
            zeros in proptest::collection::vec(0.0f64..1.0, 49),
            zero_diag in proptest::collection::vec(0.0f64..1.0, 7),
            copy_row in 0usize..24,
            rhs in proptest::collection::vec(-10.0f64..10.0, 7),
        ) {
            let a = random_matrix(n, &entries, &zeros, &zero_diag, copy_row);
            let oracle = Lu::factor_indexed(&a);
            let mut refactored = Matrix::identity(n).lu().unwrap();
            let refactor = refactored.refactor(&a);
            match (Lu::factor(&a), oracle) {
                (Ok(fast), Ok(slow)) => {
                    prop_assert_eq!(bits(fast.lu.as_slice()), bits(slow.lu.as_slice()));
                    prop_assert_eq!(&fast.perm, &slow.perm);
                    prop_assert_eq!(fast.sign.to_bits(), slow.sign.to_bits());
                    prop_assert_eq!(refactor, Ok(()));
                    prop_assert_eq!(bits(refactored.lu.as_slice()), bits(slow.lu.as_slice()));
                    prop_assert_eq!(&refactored.perm, &slow.perm);
                    let (mut x_fast, mut x_slow) = (Vec::new(), Vec::new());
                    fast.solve_into(&rhs[..n], &mut x_fast);
                    slow.solve_into_indexed(&rhs[..n], &mut x_slow);
                    prop_assert_eq!(bits(&x_fast), bits(&x_slow));
                }
                (Err(fast), Err(slow)) => {
                    prop_assert_eq!(&fast, &slow);
                    prop_assert_eq!(refactor, Err(slow));
                }
                (fast, slow) => prop_assert!(false, "{fast:?} vs {slow:?}"),
            }
        }
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
