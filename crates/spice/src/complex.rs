//! Minimal complex arithmetic for AC analysis.
//!
//! The standard library has no complex type and the offline crate set has
//! no `num-complex`, so the complex scalar AC analysis factors through
//! the sparse LU lives here. The unit tests keep a dense complex LU
//! (`ComplexMatrix`) as the oracle the sparse AC solves are checked
//! against.

/// A complex number `re + j·im`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates `re + j·im`.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Purely real value.
    pub fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Purely imaginary value `j·im`.
    pub fn imag(im: f64) -> Self {
        Self { re: 0.0, im }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl std::ops::Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.re * rhs.re + rhs.im * rhs.im;
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl std::ops::Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// Lets the complex AC systems run through the sparse LU in
/// `glova_linalg::sparse` — same AMD pre-order, same
/// symbolic-pattern reuse across an entire frequency sweep.
impl glova_linalg::sparse::Scalar for Complex {
    fn zero() -> Self {
        Self::ZERO
    }

    fn one() -> Self {
        Self::ONE
    }

    fn modulus(self) -> f64 {
        self.abs()
    }
}

/// Dense complex matrix (row-major) with LU-with-partial-pivoting solve —
/// just enough for MNA AC systems; a test oracle.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ComplexMatrix {
    n: usize,
    data: Vec<Complex>,
}

#[cfg(test)]
impl ComplexMatrix {
    /// Creates an `n × n` zero matrix.
    pub(crate) fn zeros(n: usize) -> Self {
        Self { n, data: vec![Complex::ZERO; n * n] }
    }

    /// Entry accessor.
    pub(crate) fn at(&self, i: usize, j: usize) -> Complex {
        self.data[i * self.n + j]
    }

    /// Adds `value` at `(i, j)`.
    pub(crate) fn add_at(&mut self, i: usize, j: usize, value: Complex) {
        self.data[i * self.n + j] += value;
    }

    /// Solves `A x = b` into `x` via LU with partial pivoting, factoring
    /// the matrix **in place**: on return it holds the packed factors,
    /// not `A`. Allocates nothing once `x` has grown to the dimension.
    ///
    /// Eliminates and substitutes over row slices, each entry seeing the
    /// same operations in the same order as the index-based solve the
    /// unit tests keep as its oracle, so the two agree bit for bit.
    ///
    /// # Errors
    ///
    /// Returns `Err(pivot_index)` if the matrix is numerically singular
    /// (`x` then holds partial results).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub(crate) fn solve_in_place(
        &mut self,
        b: &[Complex],
        x: &mut Vec<Complex>,
    ) -> Result<(), usize> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let n = self.n;
        x.clear();
        x.extend_from_slice(b);
        let a = &mut self.data;
        for k in 0..n {
            // Partial pivot on magnitude.
            let mut pivot_row = k;
            let mut best = 0.0;
            for i in k..n {
                let mag = a[i * n + k].abs();
                if mag > best {
                    best = mag;
                    pivot_row = i;
                }
            }
            if best < 1e-300 {
                return Err(k);
            }
            if pivot_row != k {
                let (upper, lower) = a.split_at_mut(pivot_row * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                x.swap(k, pivot_row);
            }
            let (upper, lower) = a.split_at_mut((k + 1) * n);
            let pivot_row = &upper[k * n..];
            let pivot = pivot_row[k];
            let u = &pivot_row[k + 1..];
            let (x_head, x_tail) = x.split_at_mut(k + 1);
            let xk = x_head[k];
            for (row, xi) in lower.chunks_exact_mut(n).zip(x_tail.iter_mut()) {
                let factor = row[k] / pivot;
                row[k] = factor;
                for (target, &uj) in row[k + 1..].iter_mut().zip(u) {
                    *target -= factor * uj;
                }
                *xi -= factor * xk;
            }
        }
        // Back substitution.
        for i in (0..n).rev() {
            let (head, solved) = x.split_at_mut(i + 1);
            let row = &a[i * n..(i + 1) * n];
            let mut sum = head[i];
            for (aij, xj) in row[i + 1..].iter().zip(solved.iter()) {
                sum -= *aij * *xj;
            }
            head[i] = sum / row[i];
        }
        Ok(())
    }

    /// The index-based solve [`Self::solve_in_place`] replaced — the
    /// unit tests' bitwise oracle. Consumes the matrix and allocates the
    /// solution and a permutation.
    ///
    /// # Errors
    ///
    /// Returns `Err(pivot_index)` if the matrix is numerically singular.
    pub(crate) fn solve(mut self, b: &[Complex]) -> Result<Vec<Complex>, usize> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let n = self.n;
        let mut x: Vec<Complex> = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut pivot_row = k;
            let mut best = 0.0;
            for i in k..n {
                let mag = self.at(i, k).abs();
                if mag > best {
                    best = mag;
                    pivot_row = i;
                }
            }
            if best < 1e-300 {
                return Err(k);
            }
            if pivot_row != k {
                for j in 0..n {
                    self.data.swap(k * n + j, pivot_row * n + j);
                }
                perm.swap(k, pivot_row);
                x.swap(k, pivot_row);
            }
            let pivot = self.at(k, k);
            for i in k + 1..n {
                let factor = self.at(i, k) / pivot;
                self.data[i * n + k] = factor;
                for j in k + 1..n {
                    let sub = factor * self.at(k, j);
                    self.data[i * n + j] -= sub;
                }
                let sub = factor * x[k];
                x[i] -= sub;
            }
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in i + 1..n {
                sum -= self.at(i, j) * x[j];
            }
            x[i] = sum / self.at(i, i);
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(3.0, 4.0);
        let b = Complex::new(-1.0, 2.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!((a + b), Complex::new(2.0, 6.0));
        assert_eq!((a * Complex::ONE), a);
        let quotient = a / b;
        let back = quotient * b;
        assert!((back - a).abs() < 1e-12);
        assert_eq!(a.conj().im, -4.0);
    }

    #[test]
    fn j_squared_is_minus_one() {
        let j = Complex::imag(1.0);
        assert!((j * j - Complex::real(-1.0)).abs() < 1e-15);
    }

    #[test]
    fn solve_complex_system() {
        // (1+j) x0 + 2 x1 = 3 + j;  x0 - j x1 = 1
        let mut a = ComplexMatrix::zeros(2);
        a.add_at(0, 0, Complex::new(1.0, 1.0));
        a.add_at(0, 1, Complex::real(2.0));
        a.add_at(1, 0, Complex::ONE);
        a.add_at(1, 1, Complex::imag(-1.0));
        let b = [Complex::new(3.0, 1.0), Complex::ONE];
        let x = a.clone().solve(&b).expect("nonsingular");
        // Verify residual.
        for i in 0..2 {
            let mut acc = Complex::ZERO;
            for j in 0..2 {
                acc += a.at(i, j) * x[j];
            }
            assert!((acc - b[i]).abs() < 1e-12, "row {i} residual");
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let a = ComplexMatrix::zeros(2);
        assert!(a.solve(&[Complex::ONE, Complex::ONE]).is_err());
    }

    fn bits(x: &[Complex]) -> Vec<(u64, u64)> {
        x.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
    }

    proptest::proptest! {
        // The in-place row-slice solve agrees with the consuming
        // index-based oracle bit for bit on random systems with zero entries (an entry vanishes where
        // its `zeros` draw is below 0.3) and zeroed diagonals that force
        // row swaps; a `copy_row` in `1..n` duplicates row 0, and a
        // singular input fails at the same pivot.
        #[test]
        fn prop_in_place_solve_matches_consuming_oracle(
            n in 1usize..8,
            re in proptest::collection::vec(-4.0f64..4.0, 49),
            im in proptest::collection::vec(-4.0f64..4.0, 49),
            zeros in proptest::collection::vec(0.0f64..1.0, 49),
            zero_diag in proptest::collection::vec(0.0f64..1.0, 7),
            copy_row in 0usize..24,
            rhs in proptest::collection::vec(-2.0f64..2.0, 14),
        ) {
            let mut a = ComplexMatrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    let k = i * n + j;
                    let diag_zero = i == j && zero_diag[i] < 0.4;
                    if zeros[k] >= 0.3 && !diag_zero {
                        a.add_at(i, j, Complex::new(re[k], im[k]));
                    }
                }
            }
            if (1..n).contains(&copy_row) {
                for j in 0..n {
                    let v = a.at(0, j);
                    a.data[copy_row * n + j] = v;
                }
            }
            let b: Vec<Complex> = (0..n).map(|i| Complex::new(rhs[i], rhs[7 + i])).collect();
            let oracle = a.clone().solve(&b);
            let mut factored = a.clone();
            let mut x = vec![Complex::ONE; 3];
            match (factored.solve_in_place(&b, &mut x), oracle) {
                (Ok(()), Ok(want)) => proptest::prop_assert_eq!(bits(&x), bits(&want)),
                (Err(k), Err(want)) => proptest::prop_assert_eq!(k, want),
                (got, want) => proptest::prop_assert!(false, "{got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let mut a = ComplexMatrix::zeros(2);
        a.add_at(0, 1, Complex::ONE);
        a.add_at(1, 0, Complex::ONE);
        let x = a.solve(&[Complex::real(2.0), Complex::real(3.0)]).unwrap();
        assert!((x[0] - Complex::real(3.0)).abs() < 1e-12);
        assert!((x[1] - Complex::real(2.0)).abs() < 1e-12);
    }
}
