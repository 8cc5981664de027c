//! Dense row-major matrix.

use crate::LinalgError;

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use glova_linalg::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.mat_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable access to row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Every entry in row-major order: entry `(i, j)` sits at
    /// `i * cols + j`.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to every entry in row-major order (see
    /// [`as_slice`](Self::as_slice)) — the flat value array kernels
    /// index by precomputed slot.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copies every entry from an equally sized matrix without
    /// reallocating — the restamp primitive of the MNA assembly cache.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn copy_from(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "copy_from shape mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mat_vec dimension mismatch");
        (0..self.rows).map(|i| crate::vector::dot(self.row(i), x)).collect()
    }

    /// Matrix–vector product `A x` into a caller-provided buffer —
    /// allocation-free variant for iteration hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn mat_vec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mat_vec dimension mismatch");
        assert_eq!(out.len(), self.rows, "mat_vec output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = crate::vector::dot(self.row(i), x);
        }
    }

    /// Matrix–matrix product `A B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols != b.rows`.
    pub fn mat_mul(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != b.rows {
            return Err(LinalgError::DimensionMismatch { context: "mat_mul" });
        }
        let mut out = Matrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Adds `value` to every diagonal entry (in place). Used for GP jitter
    /// and MNA `gmin` regularization.
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |acc, v| acc.max(v.abs()))
    }

    /// Cholesky factorization `A = L Lᵀ` with additive `jitter` on the
    /// diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if a pivot is not
    /// strictly positive, and [`LinalgError::DimensionMismatch`] if the
    /// matrix is not square.
    pub fn cholesky(&self, jitter: f64) -> Result<crate::Cholesky, LinalgError> {
        crate::Cholesky::factor(self, jitter)
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] for singular matrices and
    /// [`LinalgError::DimensionMismatch`] if the matrix is not square.
    pub fn lu(&self) -> Result<crate::Lu, LinalgError> {
        crate::Lu::factor(self)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.4e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_mat_vec_is_identity() {
        let eye = Matrix::identity(3);
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(eye.mat_vec(&x), x);
    }

    #[test]
    fn mat_mul_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mat_mul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn mat_mul_dimension_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.mat_mul(&b), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut a = Matrix::zeros(2, 2);
        a.add_diagonal(3.0);
        assert_eq!(a, Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 3.0]]));
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let a = Matrix::from_rows(&[]);
        assert_eq!(a.rows(), 0);
        assert_eq!(a.max_abs(), 0.0);
    }

    #[test]
    fn display_contains_entries() {
        let a = Matrix::identity(2);
        let s = format!("{a}");
        assert!(s.contains("1.0000e0"));
    }

    proptest! {
        #[test]
        fn prop_transpose_preserves_frobenius(
            entries in proptest::collection::vec(-1e3f64..1e3, 12)
        ) {
            let a = Matrix::from_fn(3, 4, |i, j| entries[i * 4 + j]);
            prop_assert!((a.frobenius_norm() - a.transpose().frobenius_norm()).abs() < 1e-9);
        }

        #[test]
        fn prop_matvec_linearity(
            entries in proptest::collection::vec(-1e2f64..1e2, 9),
            x in proptest::collection::vec(-1e2f64..1e2, 3),
            y in proptest::collection::vec(-1e2f64..1e2, 3),
        ) {
            let a = Matrix::from_fn(3, 3, |i, j| entries[i * 3 + j]);
            let lhs = a.mat_vec(&crate::vector::add(&x, &y));
            let rhs = crate::vector::add(&a.mat_vec(&x), &a.mat_vec(&y));
            for (l, r) in lhs.iter().zip(&rhs) {
                prop_assert!((l - r).abs() < 1e-6);
            }
        }
    }
}
