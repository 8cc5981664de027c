//! Small dense linear-algebra kernels for the GLOVA workspace.
//!
//! Two subsystems need linear algebra:
//!
//! - the **Gaussian-process** surrogate inside the TuRBO initial sampler
//!   (kernel matrices, Cholesky factorization, log-determinants), and
//! - the **modified-nodal-analysis** SPICE engine (sparse-ish but small
//!   system matrices solved by LU with partial pivoting at every Newton
//!   iteration / time step).
//!
//! The GP matrices are small and dense, so a straightforward row-major
//! implementation beats bringing in a BLAS stack (none of which is
//! available offline anyway). MNA matrices, however, are `O(n)`-sparse,
//! and from a few dozen unknowns the dense `O(n³)` factorization dominates
//! every solve — the [`sparse`] module provides CSR storage and a
//! Markowitz-ordered sparse LU with symbolic-factorization reuse for that
//! path (one numeric refresh path: a compiled elimination schedule over
//! every row), with the dense [`Lu`] retained as the small-system fast
//! path and parity oracle.
//!
//! # Example
//!
//! ```
//! use glova_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let chol = a.cholesky(0.0).expect("SPD");
//! let x = chol.solve(&[1.0, 2.0]);
//! // verify A x = b
//! let b = a.mat_vec(&x);
//! assert!((b[0] - 1.0).abs() < 1e-12 && (b[1] - 2.0).abs() < 1e-12);
//! ```

pub mod cholesky;
mod kernel;
pub mod lu;
pub mod matrix;
pub mod ordering;
pub mod sparse;
pub mod vector;

pub use cholesky::Cholesky;
pub use lu::Lu;
pub use matrix::Matrix;
pub use ordering::{amd_order, FillOrdering};
pub use sparse::{CsrMatrix, Scalar, SparseLu, Triplets};
pub use vector::{add, axpy, dot, norm2, scale, sub};

/// Errors produced by factorizations in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix was not (numerically) positive definite at pivot `index`.
    NotPositiveDefinite {
        /// Row/column of the failing pivot.
        index: usize,
        /// Value of the failing pivot.
        pivot: f64,
    },
    /// The matrix was singular to working precision at pivot `index`.
    Singular {
        /// Row/column of the failing pivot.
        index: usize,
    },
    /// An operation received dimensionally incompatible operands.
    DimensionMismatch {
        /// Human-readable description of the offending operation.
        context: &'static str,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { index, pivot } => {
                write!(f, "matrix not positive definite: pivot {pivot:.3e} at index {index}")
            }
            LinalgError::Singular { index } => {
                write!(f, "matrix singular to working precision at pivot {index}")
            }
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch in {context}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}
