//! Sparse linear algebra: CSR storage and a sparse LU with
//! symbolic-factorization reuse.
//!
//! MNA circuit matrices are extremely sparse — a device touches at most a
//! handful of nodes, so an `n`-unknown system carries `O(n)` nonzeros while
//! the dense LU pays `O(n³)` per factorization. This module provides the
//! sparse analogue of the dense [`Lu`](crate::Lu) workflow used on the
//! SPICE hot path:
//!
//! - [`Triplets`]: an order-insensitive coordinate builder (duplicates
//!   sum, explicit zeros are kept so a stamp *pattern* can be reserved
//!   before values exist),
//! - [`CsrMatrix`]: compressed-sparse-row storage with in-place value
//!   rewrites ([`CsrMatrix::values_mut`], [`CsrMatrix::value_index`]) so
//!   an assembly template can memcpy constant stamps and restamp
//!   nonlinear devices without touching the pattern,
//! - [`SparseLu`]: LU factorization with Markowitz pivot ordering
//!   (fill-minimizing, threshold-pivoted for stability) whose **symbolic
//!   step runs once per topology** — [`SparseLu::factor`] chooses the
//!   pivot order and fill pattern, then [`SparseLu::refactor`] re-runs
//!   only the numeric elimination over the frozen pattern — every row,
//!   as an elimination schedule compiled once per symbolic analysis and
//!   run in place over the packed factor — and [`SparseLu::solve_into`]
//!   reuses its workspace allocation. This is the classic SPICE arrangement:
//!   the Newton loop, the `gmin` ladder and corner/mismatch sweeps all
//!   solve the *same topology* with different values, so pivot search
//!   and fill analysis are paid once.
//!   The symbolic phase itself runs on sorted-vec working rows with
//!   bucketed Markowitz candidate lists (no tree maps, no full-matrix
//!   scan per pivot), keeping the cold-start cost that solver pools
//!   amortize low even past a hundred unknowns. For genuinely 2-D
//!   coupling patterns (grids, sense-amp arrays) where even that scan
//!   grows with fill, [`SparseLu::factor_with`] accepts a fill-reducing
//!   **pre-order** ([`FillOrdering::Amd`](crate::ordering::FillOrdering),
//!   computed by [`amd_order`](crate::ordering::amd_order)) consumed as a
//!   static pivot sequence with Markowitz threshold pivoting retained as
//!   the per-step numeric fallback.
//!
//! Everything is generic over [`Scalar`] so the AC engine's complex MNA
//! systems factor through the same machinery (and the same reuse) as the
//! real DC/transient systems.
//!
//! # Example
//!
//! ```
//! use glova_linalg::sparse::{SparseLu, Triplets};
//!
//! // A tridiagonal conductance ladder.
//! let mut t = Triplets::new(3, 3);
//! for i in 0..3 {
//!     t.push(i, i, 2.0);
//! }
//! for i in 0..2 {
//!     t.push(i, i + 1, -1.0);
//!     t.push(i + 1, i, -1.0);
//! }
//! let a = t.to_csr();
//! let mut lu = SparseLu::factor(&a).expect("nonsingular");
//! let mut x = Vec::new();
//! lu.solve_into(&[1.0, 0.0, 1.0], &mut x);
//! let mut back = vec![0.0; 3];
//! a.mat_vec_into(&x, &mut back);
//! assert!((back[0] - 1.0).abs() < 1e-12);
//! ```

use crate::kernel::{self, BlockedPlan};
use crate::LinalgError;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::Arc;

/// Field-like scalar the sparse kernels are generic over.
///
/// Implemented for `f64` here and for the SPICE engine's complex type in
/// `glova-spice`, so real (DC/transient) and complex (AC) MNA systems
/// share one sparse LU. `modulus` drives pivot-magnitude comparisons.
pub trait Scalar:
    Copy
    + PartialEq
    + std::fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// Magnitude used for pivot comparisons (`|x|`).
    fn modulus(self) -> f64;
}

impl Scalar for f64 {
    fn zero() -> Self {
        0.0
    }

    fn one() -> Self {
        1.0
    }

    fn modulus(self) -> f64 {
        self.abs()
    }
}

/// Coordinate-format builder for a [`CsrMatrix`].
///
/// Entries may be pushed in any order; duplicates at the same `(row, col)`
/// **sum** (the natural semantics for MNA stamps) and explicit zeros are
/// preserved, which is how an assembly template reserves pattern slots for
/// values that only exist at restamp time (nonlinear-device stamps, the
/// `gmin` diagonal).
#[derive(Debug, Clone)]
pub struct Triplets<T = f64> {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> Triplets<T> {
    /// An empty builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols, entries: Vec::new() }
    }

    /// Adds `value` at `(row, col)` (summing with any earlier entry there).
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.rows && col < self.cols, "triplet ({row}, {col}) out of bounds");
        self.entries.push((row, col, value));
    }

    /// Number of raw (pre-merge) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The raw entries in push order — lets a caller that re-stamps the
    /// same pattern repeatedly precompute a push-order → value-index map
    /// against [`CsrMatrix::value_index`] instead of rebuilding and
    /// re-sorting a builder per assembly.
    pub fn entries(&self) -> &[(usize, usize, T)] {
        &self.entries
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Compresses to CSR: sorts by `(row, col)`, sums duplicates, keeps
    /// explicit zeros.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut sorted: Vec<(usize, usize, T)> = self.entries.clone();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut rows_of = Vec::with_capacity(sorted.len());
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<T> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match values.last_mut() {
                Some(last) if rows_of.last() == Some(&r) && col_idx.last() == Some(&c) => {
                    *last = *last + v;
                }
                _ => {
                    rows_of.push(r);
                    col_idx.push(c);
                    values.push(v);
                }
            }
        }
        let mut row_ptr = vec![0usize; self.rows + 1];
        for &r in &rows_of {
            row_ptr[r + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix { rows: self.rows, cols: self.cols, row_ptr, col_idx, values }
    }
}

/// Compressed-sparse-row matrix.
///
/// The pattern (`row_ptr`, `col_idx`) is immutable after construction;
/// values are rewritable in place, which is what lets an MNA assembly
/// template treat the value array exactly like the dense template treats
/// its base matrix: one `memcpy` of the constant stamps, then per-index
/// nonlinear restamps.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T = f64> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (explicit zeros included).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored column indices of `row` (ascending).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_cols(&self, row: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[row]..self.row_ptr[row + 1]]
    }

    /// Stored values of `row` (parallel to [`Self::row_cols`]).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_values(&self, row: usize) -> &[T] {
        &self.values[self.row_ptr[row]..self.row_ptr[row + 1]]
    }

    /// The flat value array, in `(row, col)`-sorted order.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to the flat value array (the pattern is fixed).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Index into [`Self::values`] of the entry at `(row, col)`, if the
    /// pattern stores one — the primitive behind precomputed
    /// stamp-to-nonzero maps.
    pub fn value_index(&self, row: usize, col: usize) -> Option<usize> {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.col_idx[lo..hi].binary_search(&col).ok().map(|p| lo + p)
    }

    /// Value at `(row, col)` (zero for positions outside the pattern).
    pub fn get(&self, row: usize, col: usize) -> T {
        self.value_index(row, col).map_or_else(T::zero, |i| self.values[i])
    }

    /// `out = A x`, allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` have the wrong length.
    pub fn mat_vec_into(&self, x: &[T], out: &mut [T]) {
        assert_eq!(x.len(), self.cols, "mat_vec dimension mismatch");
        assert_eq!(out.len(), self.rows, "mat_vec output length mismatch");
        for i in 0..self.rows {
            let mut acc = T::zero();
            for (idx, &j) in (self.row_ptr[i]..self.row_ptr[i + 1]).zip(self.row_cols(i).iter()) {
                acc = acc + self.values[idx] * x[j];
            }
            out[i] = acc;
        }
    }
}

impl CsrMatrix<f64> {
    /// Densifies into a [`Matrix`](crate::Matrix) — parity-test helper,
    /// not a hot-path operation.
    pub fn to_dense(&self) -> crate::Matrix {
        let mut m = crate::Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (&j, &v) in self.row_cols(i).iter().zip(self.row_values(i)) {
                m[(i, j)] += v;
            }
        }
        m
    }
}

/// Sparse LU factorization `P A Q = L U` with Markowitz pivot ordering
/// and a frozen fill pattern.
///
/// [`SparseLu::factor`] runs the **symbolic + numeric** first
/// factorization: threshold-pivoted Markowitz ordering (minimum
/// fill-cost pivot whose magnitude is at least [`Self::PIVOT_THRESHOLD`]
/// of its column's largest active entry), recording row/column
/// permutations, the filled `L`/`U` pattern, and a map from the input
/// matrix's nonzeros into that pattern. [`SparseLu::refactor`] then
/// re-runs the numeric elimination only — no pivot search, no pattern
/// growth, no allocation — which is the per-refresh cost the Newton
/// chord loop, the `gmin` ladder and AC frequency sweeps actually pay.
#[derive(Debug, Clone)]
pub struct SparseLu<T = f64> {
    n: usize,
    a_nnz: usize,
    /// `perm_r[p]` = original row eliminated at step `p`.
    perm_r: Vec<usize>,
    /// `perm_c[p]` = original column chosen as pivot at step `p`.
    perm_c: Vec<usize>,
    /// Packed `L` (cols `< p`, unit diagonal implicit) and `U`
    /// (cols `>= p`) rows in pivot order, columns in permuted space.
    lu_ptr: Vec<usize>,
    lu_cols: Vec<usize>,
    lu_vals: Vec<T>,
    /// Position of the diagonal within each packed row.
    diag_idx: Vec<usize>,
    /// Input nonzero `k` (CSR order) lands at `lu_vals[a_to_lu[k]]`.
    a_to_lu: Vec<usize>,
    /// Dense scatter workspace for elimination and solves.
    work: Vec<T>,
    /// Pre-ordered factorizations only: elimination steps where the
    /// static pivot failed the numeric stability test and Markowitz
    /// threshold pivoting chose instead. Zero for [`Self::factor`].
    fallback_steps: usize,
    /// The compiled elimination schedule [`Self::refactor`] runs —
    /// pattern-only, so clones share it with the symbolic analysis.
    schedule: Arc<BlockedPlan>,
}

impl<T: Scalar> SparseLu<T> {
    /// Pivot magnitude below which a step is declared singular (matches
    /// the dense [`Lu`](crate::Lu) threshold).
    const SINGULARITY_EPS: f64 = 1e-13;

    /// Markowitz threshold-pivoting tolerance: a candidate pivot must
    /// reach this fraction of its column's largest active magnitude.
    /// 0.1 trades a little extra fill for pivots that stay numerically
    /// acceptable across refactors with drifting values (Newton
    /// iterations, `gmin` rungs).
    pub const PIVOT_THRESHOLD: f64 = 0.1;

    /// Factors a square CSR matrix: Markowitz symbolic analysis plus the
    /// first numeric elimination.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// - [`LinalgError::Singular`] if some elimination step finds no
    ///   pivot above the numeric floor.
    pub fn factor(a: &CsrMatrix<T>) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::DimensionMismatch {
                context: "sparse lu of non-square matrix",
            });
        }
        let n = a.rows();
        let mut this = Self::symbolic(a)?;
        this.refactor(a)?;
        debug_assert_eq!(this.n, n);
        Ok(this)
    }

    /// Factors with an explicit [`FillOrdering`](crate::ordering::FillOrdering):
    /// [`FillOrdering::Markowitz`](crate::ordering::FillOrdering::Markowitz)
    /// is [`Self::factor`]; [`FillOrdering::Amd`](crate::ordering::FillOrdering::Amd)
    /// computes an [`amd_order`](crate::ordering::amd_order) pre-order
    /// over the symmetrized pattern and consumes it through
    /// [`Self::factor_preordered`]. Both include everything a cold start
    /// pays — ordering, symbolic analysis and the first numeric
    /// elimination — so their costs are directly comparable.
    ///
    /// # Errors
    ///
    /// As [`Self::factor`].
    pub fn factor_with(
        a: &CsrMatrix<T>,
        ordering: crate::ordering::FillOrdering,
    ) -> Result<Self, LinalgError> {
        match ordering {
            crate::ordering::FillOrdering::Markowitz => Self::factor(a),
            crate::ordering::FillOrdering::Amd => {
                if a.rows() != a.cols() {
                    return Err(LinalgError::DimensionMismatch {
                        context: "sparse lu of non-square matrix",
                    });
                }
                let seq = crate::ordering::amd_order(a);
                Self::factor_preordered(a, &seq)
            }
        }
    }

    /// Factors down a **static pivot sequence**: step `k` proposes the
    /// diagonal `(seq[k], seq[k])` as pivot, and only falls back to a
    /// full Markowitz threshold search when that proposal fails the
    /// numeric stability test (below [`Self::PIVOT_THRESHOLD`] of its
    /// column's largest active magnitude, below the singularity floor, or
    /// structurally absent — MNA voltage-source branch rows have zero
    /// diagonals, for example). [`Self::preorder_fallbacks`] reports how
    /// often the fallback fired.
    ///
    /// The result is an ordinary [`SparseLu`] — refactors, clones and
    /// solves behave identically to a Markowitz-ordered factor, and the
    /// pivot choice is a deterministic function of the input alone.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] if `a` is not square or `seq`
    ///   is not a permutation of its indices.
    /// - [`LinalgError::Singular`] as [`Self::factor`].
    pub fn factor_preordered(a: &CsrMatrix<T>, seq: &[usize]) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::DimensionMismatch {
                context: "sparse lu of non-square matrix",
            });
        }
        let n = a.rows();
        let mut seen = vec![false; n];
        if seq.len() != n || !seq.iter().all(|&s| s < n && !std::mem::replace(&mut seen[s], true)) {
            return Err(LinalgError::DimensionMismatch {
                context: "pivot sequence is not a permutation of the matrix indices",
            });
        }
        let mut this = Self::symbolic_ordered(a, seq)?;
        this.refactor(a)?;
        Ok(this)
    }

    /// Elimination steps where a pre-ordered pivot failed the stability
    /// test and Markowitz threshold pivoting chose instead; zero for
    /// Markowitz-ordered factorizations. Clones share the value (it is
    /// part of the symbolic analysis).
    pub fn preorder_fallbacks(&self) -> usize {
        self.fallback_steps
    }

    /// Symbolic + threshold analysis down a static pivot sequence.
    ///
    /// Mirrors [`Self::symbolic`]'s working-row representation (sorted
    /// vecs, lazily pruned column candidate lists) but replaces the
    /// bucketed pivot *search* with a cursor over `seq` — the per-step
    /// cost is one column-max scan for the stability test plus the
    /// elimination merge itself. The Markowitz fallback (rare: voltage
    /// -source borders, numerically collapsed diagonals) scans the whole
    /// active submatrix, trading speed for the exact greedy choice on
    /// precisely the steps where the pre-order's proposal is unusable.
    fn symbolic_ordered(a: &CsrMatrix<T>, seq: &[usize]) -> Result<Self, LinalgError> {
        let n = a.rows();
        let mut rows: Vec<Vec<(usize, T)>> = (0..n)
            .map(|i| a.row_cols(i).iter().copied().zip(a.row_values(i).iter().copied()).collect())
            .collect();
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut col_count = vec![0usize; n];
        for (i, row) in rows.iter().enumerate() {
            for &(j, _) in row {
                col_rows[j].push(i);
                col_count[j] += 1;
            }
        }
        let mut row_active = vec![true; n];
        let mut col_active = vec![true; n];
        let mut colmax_step = vec![usize::MAX; n];
        let mut colmax_val = vec![0.0f64; n];
        let mut merge_scratch: Vec<(usize, T)> = Vec::new();

        let mut perm_r = Vec::with_capacity(n);
        let mut perm_c = Vec::with_capacity(n);
        let mut u_cols: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut l_cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut seq_pos = 0usize;
        let mut fallbacks = 0usize;

        for step in 0..n {
            // Largest active magnitude in column `j`, pruning the
            // candidate list as a side effect (same invariant as
            // `symbolic`: only the eliminated pivot column loses entries
            // from an active row, so misses are stale fill-era
            // candidates).
            let mut col_max =
                |j: usize, col_rows: &mut Vec<Vec<usize>>, rows: &Vec<Vec<(usize, T)>>| -> f64 {
                    if colmax_step[j] == step {
                        return colmax_val[j];
                    }
                    let mut mx = 0.0f64;
                    col_rows[j].retain(|&i| {
                        if !row_active[i] {
                            return false;
                        }
                        match rows[i].binary_search_by_key(&j, |e| e.0) {
                            Ok(p) => {
                                mx = mx.max(rows[i][p].1.modulus());
                                true
                            }
                            Err(_) => false,
                        }
                    });
                    colmax_step[j] = step;
                    colmax_val[j] = mx;
                    mx
                };

            // Next unconsumed sequence entry whose row and column are
            // both still active (a fallback step may have consumed one
            // side of an earlier proposal).
            while seq_pos < n && !(row_active[seq[seq_pos]] && col_active[seq[seq_pos]]) {
                seq_pos += 1;
            }
            let mut chosen: Option<(usize, usize)> = None;
            if seq_pos < n {
                let s = seq[seq_pos];
                if let Ok(pos) = rows[s].binary_search_by_key(&s, |e| e.0) {
                    let mag = rows[s][pos].1.modulus();
                    if mag >= Self::SINGULARITY_EPS
                        && mag >= Self::PIVOT_THRESHOLD * col_max(s, &mut col_rows, &rows)
                    {
                        chosen = Some((s, s));
                        seq_pos += 1;
                    }
                }
            }
            let (pr, pc) = match chosen {
                Some(p) => p,
                None => {
                    // Markowitz threshold fallback: exact greedy search
                    // over the remaining active submatrix for this step
                    // (column maxima memoized per step, so the threshold
                    // checks cost one column scan each, like the bucketed
                    // path's).
                    fallbacks += 1;
                    let mut best: Option<(usize, usize, usize, f64)> = None;
                    for (i, row) in rows.iter().enumerate() {
                        if !row_active[i] {
                            continue;
                        }
                        for &(j, v) in row {
                            if !col_active[j] {
                                continue;
                            }
                            let mag = v.modulus();
                            if mag < Self::SINGULARITY_EPS
                                || mag < Self::PIVOT_THRESHOLD * col_max(j, &mut col_rows, &rows)
                            {
                                continue;
                            }
                            let cost = (row.len() - 1) * (col_count[j] - 1);
                            let better = match best {
                                None => true,
                                Some((_, _, c, m)) => cost < c || (cost == c && mag > m),
                            };
                            if better {
                                best = Some((i, j, cost, mag));
                            }
                        }
                    }
                    let Some((pr, pc, _, _)) = best else {
                        return Err(LinalgError::Singular { index: step });
                    };
                    (pr, pc)
                }
            };

            perm_r.push(pr);
            perm_c.push(pc);
            row_active[pr] = false;
            col_active[pc] = false;
            let pivot_row: Vec<(usize, T)> = std::mem::take(&mut rows[pr]);
            let pivot_val = pivot_row[pivot_row
                .binary_search_by_key(&pc, |e| e.0)
                .expect("pivot entry present in pivot row")]
            .1;
            u_cols.push(pivot_row.iter().map(|&(j, _)| j).collect());
            for &(j, _) in &pivot_row {
                col_count[j] -= 1;
            }

            // Eliminate the pivot column from every remaining active row
            // — identical merge to `symbolic`, minus the candidate-bucket
            // bookkeeping the ordered path doesn't need.
            let below: Vec<usize> = std::mem::take(&mut col_rows[pc])
                .into_iter()
                .filter(|&r| row_active[r] && rows[r].binary_search_by_key(&pc, |e| e.0).is_ok())
                .collect();
            for &i in &below {
                let old_row = std::mem::take(&mut rows[i]);
                let pc_pos = old_row
                    .binary_search_by_key(&pc, |e| e.0)
                    .expect("below rows contain the pivot column");
                let f = old_row[pc_pos].1 / pivot_val;
                l_cols[i].push(step);
                merge_scratch.clear();
                let mut ai = 0;
                let mut bi = 0;
                while ai < old_row.len() || bi < pivot_row.len() {
                    if ai == pc_pos {
                        ai += 1;
                        continue;
                    }
                    if bi < pivot_row.len() && pivot_row[bi].0 == pc {
                        bi += 1;
                        continue;
                    }
                    let a_col = old_row.get(ai).map(|e| e.0);
                    let b_col = pivot_row.get(bi).map(|e| e.0);
                    match (a_col, b_col) {
                        (Some(ac), Some(bc)) if ac == bc => {
                            merge_scratch.push((ac, old_row[ai].1 - f * pivot_row[bi].1));
                            ai += 1;
                            bi += 1;
                        }
                        (Some(ac), Some(bc)) if ac < bc => {
                            merge_scratch.push((ac, old_row[ai].1));
                            ai += 1;
                        }
                        (Some(ac), None) => {
                            merge_scratch.push((ac, old_row[ai].1));
                            ai += 1;
                        }
                        (_, Some(bc)) => {
                            merge_scratch.push((bc, T::zero() - f * pivot_row[bi].1));
                            col_rows[bc].push(i);
                            col_count[bc] += 1;
                            bi += 1;
                        }
                        (None, None) => unreachable!("loop condition"),
                    }
                }
                rows[i] = std::mem::replace(&mut merge_scratch, old_row);
                merge_scratch.clear();
            }
        }

        let mut this = Self::pack(a, perm_r, perm_c, u_cols, l_cols);
        this.fallback_steps = fallbacks;
        Ok(this)
    }

    /// Markowitz ordering + fill pattern from the values of `a`.
    ///
    /// Working rows are **sorted vecs** of `(col, value)` and pivot
    /// candidates come from **buckets** of rows/columns keyed by their
    /// current active count, scanned in increasing count order with the
    /// classic Duff termination bound (once the best cost found is
    /// `≤ (k−1)²`, no candidate in a row *and* column of count `> k` can
    /// beat it). This replaces the original tree-map working rows and the
    /// per-step full-matrix scans — the cold-start cost that solver pools
    /// amortize — without changing the cost function, the threshold rule
    /// or the deterministic (input-only-dependent) pivot choice.
    fn symbolic(a: &CsrMatrix<T>) -> Result<Self, LinalgError> {
        let n = a.rows();
        // Working rows, sorted by column (CSR rows already are). First
        // factorization only — the hot path never touches these again.
        let mut rows: Vec<Vec<(usize, T)>> = (0..n)
            .map(|i| a.row_cols(i).iter().copied().zip(a.row_values(i).iter().copied()).collect())
            .collect();
        // Per-column: candidate rows (lazily pruned) and an exact active
        // count, maintained incrementally — the Markowitz cost lookup
        // must be O(1), not a column-list scan.
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut col_count = vec![0usize; n];
        for (i, row) in rows.iter().enumerate() {
            for &(j, _) in row {
                col_rows[j].push(i);
                col_count[j] += 1;
            }
        }
        let mut row_active = vec![true; n];
        let mut col_active = vec![true; n];
        // Candidate buckets by current row nnz / column count. Entries go
        // stale as counts change (a row/col is re-pushed on every count
        // change, never removed); scans validate against the live count.
        let mut row_buckets: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        let mut col_buckets: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        for i in 0..n {
            row_buckets[rows[i].len()].push(i);
        }
        for (j, &c) in col_count.iter().enumerate() {
            col_buckets[c].push(j);
        }
        // Per-step scratch: dedup stamps for bucket scans and a memo for
        // on-demand column maxima (threshold pivoting needs the largest
        // active magnitude of a candidate's column, but only for columns
        // the bucket scan actually reaches).
        let mut seen_row = vec![usize::MAX; n];
        let mut seen_col = vec![usize::MAX; n];
        let mut colmax_step = vec![usize::MAX; n];
        let mut colmax_val = vec![0.0f64; n];
        let mut merge_scratch: Vec<(usize, T)> = Vec::new();

        let mut perm_r = Vec::with_capacity(n);
        let mut perm_c = Vec::with_capacity(n);
        // U rows in original column space, L entries per original row as
        // (step, fill) column lists; values are discarded — `refactor`
        // recomputes them over the final pattern.
        let mut u_cols: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut l_cols: Vec<Vec<usize>> = vec![Vec::new(); n];

        for step in 0..n {
            // Largest active magnitude in column `j`, pruning the
            // candidate list as a side effect; memoized per step.
            let mut col_max =
                |j: usize, col_rows: &mut Vec<Vec<usize>>, rows: &Vec<Vec<(usize, T)>>| -> f64 {
                    if colmax_step[j] == step {
                        return colmax_val[j];
                    }
                    let mut mx = 0.0f64;
                    col_rows[j].retain(|&i| {
                        if !row_active[i] {
                            return false;
                        }
                        match rows[i].binary_search_by_key(&j, |e| e.0) {
                            Ok(p) => {
                                mx = mx.max(rows[i][p].1.modulus());
                                true
                            }
                            // Only the eliminated pivot column ever loses
                            // entries from an active row, so a miss here is a
                            // stale candidate from before that row's entry
                            // was created as fill — prune it.
                            Err(_) => false,
                        }
                    });
                    colmax_step[j] = step;
                    colmax_val[j] = mx;
                    mx
                };

            // Markowitz search: minimize (r_nnz−1)·(c_count−1) over
            // numerically acceptable candidates (|v| ≥ EPS and ≥
            // threshold × column max); tie-break on magnitude. Buckets
            // are scanned in increasing count; at the top of iteration
            // `k` every unscanned candidate lives in a row of nnz ≥ k
            // AND a column of count ≥ k, so its cost is ≥ (k−1)² — the
            // Duff bound. The break is strict so equal-cost candidates
            // are still scanned and the magnitude tie-break is honored:
            // a not-yet-seen candidate of cost exactly (k−1)² must have
            // row nnz = column count = k, i.e. it sits in this very
            // iteration's buckets.
            let mut best: Option<(usize, usize, usize, f64)> = None;
            for k in 1..=n {
                if let Some((_, _, c, _)) = best {
                    if c < (k - 1) * (k - 1) {
                        break;
                    }
                }
                // Columns of count k: every active entry of the column is
                // a candidate with cost (r_nnz−1)(k−1).
                let mut ci = 0;
                while ci < col_buckets[k].len() {
                    let j = col_buckets[k][ci];
                    ci += 1;
                    if !col_active[j] || col_count[j] != k || seen_col[j] == step {
                        continue;
                    }
                    seen_col[j] = step;
                    let cmax = col_max(j, &mut col_rows, &rows);
                    for idx in 0..col_rows[j].len() {
                        let i = col_rows[j][idx];
                        let p = rows[i]
                            .binary_search_by_key(&j, |e| e.0)
                            .expect("column candidate list pruned above");
                        let mag = rows[i][p].1.modulus();
                        if mag < Self::SINGULARITY_EPS || mag < Self::PIVOT_THRESHOLD * cmax {
                            continue;
                        }
                        let cost = (rows[i].len() - 1) * (k - 1);
                        let better = match best {
                            None => true,
                            Some((_, _, c, m)) => cost < c || (cost == c && mag > m),
                        };
                        if better {
                            best = Some((i, j, cost, mag));
                        }
                    }
                }
                // Rows of nnz k: every active-column entry is a candidate
                // with cost (k−1)(c_count−1).
                let mut ri = 0;
                while ri < row_buckets[k].len() {
                    let i = row_buckets[k][ri];
                    ri += 1;
                    if !row_active[i] || rows[i].len() != k || seen_row[i] == step {
                        continue;
                    }
                    seen_row[i] = step;
                    for p in 0..rows[i].len() {
                        let (j, v) = rows[i][p];
                        if !col_active[j] {
                            continue;
                        }
                        let mag = v.modulus();
                        if mag < Self::SINGULARITY_EPS {
                            continue;
                        }
                        let cmax = col_max(j, &mut col_rows, &rows);
                        if mag < Self::PIVOT_THRESHOLD * cmax {
                            continue;
                        }
                        let cost = (k - 1) * (col_count[j] - 1);
                        let better = match best {
                            None => true,
                            Some((_, _, c, m)) => cost < c || (cost == c && mag > m),
                        };
                        if better {
                            best = Some((i, j, cost, mag));
                        }
                    }
                }
            }
            let Some((pr, pc, _, _)) = best else {
                return Err(LinalgError::Singular { index: step });
            };
            perm_r.push(pr);
            perm_c.push(pc);
            row_active[pr] = false;
            col_active[pc] = false;
            let pivot_row: Vec<(usize, T)> = std::mem::take(&mut rows[pr]);
            let pivot_val = pivot_row[pivot_row
                .binary_search_by_key(&pc, |e| e.0)
                .expect("pivot entry present in pivot row")]
            .1;
            u_cols.push(pivot_row.iter().map(|&(j, _)| j).collect());
            // The pivot row leaves the active submatrix.
            for &(j, _) in &pivot_row {
                col_count[j] -= 1;
                if col_active[j] {
                    col_buckets[col_count[j]].push(j);
                }
            }

            // Eliminate the pivot column from every remaining active row,
            // inserting fill (kept even when numerically zero — the
            // pattern must be closed under elimination for refactor).
            // `col_rows` lists are pruned lazily: skip rows that went
            // inactive or whose entry was already eliminated.
            let below: Vec<usize> = std::mem::take(&mut col_rows[pc])
                .into_iter()
                .filter(|&r| row_active[r] && rows[r].binary_search_by_key(&pc, |e| e.0).is_ok())
                .collect();
            for &i in &below {
                let old_row = std::mem::take(&mut rows[i]);
                let pc_pos = old_row
                    .binary_search_by_key(&pc, |e| e.0)
                    .expect("below rows contain the pivot column");
                let f = old_row[pc_pos].1 / pivot_val;
                l_cols[i].push(step);
                // Sorted merge of (old_row − pivot col) with the pivot
                // row's non-pivot columns: shared columns update in
                // place, pivot-only columns become fill.
                merge_scratch.clear();
                let mut ai = 0;
                let mut bi = 0;
                while ai < old_row.len() || bi < pivot_row.len() {
                    if ai == pc_pos {
                        ai += 1;
                        continue;
                    }
                    if bi < pivot_row.len() && pivot_row[bi].0 == pc {
                        bi += 1;
                        continue;
                    }
                    let a_col = old_row.get(ai).map(|e| e.0);
                    let b_col = pivot_row.get(bi).map(|e| e.0);
                    match (a_col, b_col) {
                        (Some(ac), Some(bc)) if ac == bc => {
                            merge_scratch.push((ac, old_row[ai].1 - f * pivot_row[bi].1));
                            ai += 1;
                            bi += 1;
                        }
                        (Some(ac), Some(bc)) if ac < bc => {
                            merge_scratch.push((ac, old_row[ai].1));
                            ai += 1;
                        }
                        (Some(ac), None) => {
                            merge_scratch.push((ac, old_row[ai].1));
                            ai += 1;
                        }
                        (_, Some(bc)) => {
                            // Fill: the column enters this row.
                            merge_scratch.push((bc, T::zero() - f * pivot_row[bi].1));
                            col_rows[bc].push(i);
                            col_count[bc] += 1;
                            col_buckets[col_count[bc]].push(bc);
                            bi += 1;
                        }
                        (None, None) => unreachable!("loop condition"),
                    }
                }
                // Recycle the old row's allocation as the next scratch.
                rows[i] = std::mem::replace(&mut merge_scratch, old_row);
                merge_scratch.clear();
                row_buckets[rows[i].len()].push(i);
            }
        }

        Ok(Self::pack(a, perm_r, perm_c, u_cols, l_cols))
    }

    /// Packs a finished elimination (pivot order + per-step `U` columns +
    /// per-row `L` columns) into the frozen factor layout — the tail
    /// shared by [`Self::symbolic`] and [`Self::symbolic_ordered`].
    ///
    /// Per pivot step: L columns (< step, already step indices) then U
    /// columns mapped through the column permutation, everything sorted
    /// ascending.
    fn pack(
        a: &CsrMatrix<T>,
        perm_r: Vec<usize>,
        perm_c: Vec<usize>,
        u_cols: Vec<Vec<usize>>,
        l_cols: Vec<Vec<usize>>,
    ) -> Self {
        let n = a.rows();
        let mut col_perm_inv = vec![0usize; n];
        for (p, &c) in perm_c.iter().enumerate() {
            col_perm_inv[c] = p;
        }
        let mut lu_ptr = Vec::with_capacity(n + 1);
        let mut lu_cols = Vec::new();
        let mut diag_idx = Vec::with_capacity(n);
        lu_ptr.push(0);
        for p in 0..n {
            let mut cols: Vec<usize> = l_cols[perm_r[p]].clone();
            cols.extend(u_cols[p].iter().map(|&j| col_perm_inv[j]));
            cols.sort_unstable();
            debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "duplicate pattern column");
            let d = cols.binary_search(&p).expect("diagonal in pattern");
            diag_idx.push(lu_ptr[p] + d);
            lu_cols.extend_from_slice(&cols);
            lu_ptr.push(lu_cols.len());
        }

        // Input-nonzero → packed-pattern map (the refactor scatter).
        let mut row_perm_inv = vec![0usize; n];
        for (p, &r) in perm_r.iter().enumerate() {
            row_perm_inv[r] = p;
        }
        let mut a_to_lu = Vec::with_capacity(a.nnz());
        for i in 0..n {
            let p = row_perm_inv[i];
            let lo = lu_ptr[p];
            let hi = lu_ptr[p + 1];
            for &j in a.row_cols(i) {
                let pc = col_perm_inv[j];
                let pos = lu_cols[lo..hi]
                    .binary_search(&pc)
                    .expect("input nonzero inside the filled pattern");
                a_to_lu.push(lo + pos);
            }
        }

        let nnz = lu_cols.len();
        let schedule = Arc::new(kernel::build_plan(&lu_ptr, &lu_cols, &diag_idx));
        Self {
            n,
            a_nnz: a.nnz(),
            perm_r,
            perm_c,
            lu_ptr,
            lu_cols,
            lu_vals: vec![T::zero(); nnz],
            diag_idx,
            a_to_lu,
            work: vec![T::zero(); n],
            fallback_steps: 0,
            schedule,
        }
    }

    /// Up-looking elimination of packed row `p` over the frozen pattern —
    /// the row loop of the [`Self::refactor_scalar`] oracle.
    /// Free-standing over split borrows. Bitwise identical to the
    /// compiled schedule [`Self::refactor`] runs over the same row (see
    /// the `kernel` module's parity contract).
    #[cfg(test)]
    fn eliminate_row(
        lu_ptr: &[usize],
        lu_cols: &[usize],
        diag_idx: &[usize],
        lu_vals: &mut [T],
        work: &mut [T],
        p: usize,
    ) {
        let (lo, hi) = (lu_ptr[p], lu_ptr[p + 1]);
        for idx in lo..hi {
            work[lu_cols[idx]] = lu_vals[idx];
        }
        for idx in lo..diag_idx[p] {
            let k = lu_cols[idx];
            let f = work[k] / lu_vals[diag_idx[k]];
            work[k] = f;
            for jdx in diag_idx[k] + 1..lu_ptr[k + 1] {
                let j = lu_cols[jdx];
                work[j] = work[j] - f * lu_vals[jdx];
            }
        }
        for idx in lo..hi {
            let j = lu_cols[idx];
            lu_vals[idx] = work[j];
            work[j] = T::zero();
        }
    }

    /// Numeric-only refactorization over the frozen pattern and pivot
    /// order — the hot-path refresh. `a` must have the **same pattern**
    /// as the matrix this factorization was built from (same topology;
    /// only values may differ).
    ///
    /// On error the factor values are unspecified and must not be used
    /// for solves until a successful `refactor` (or a fresh
    /// [`SparseLu::factor`]).
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] if `a`'s shape or nonzero
    ///   count differs from the factored matrix.
    /// - [`LinalgError::Singular`] if a frozen-order pivot has drifted
    ///   below the numeric floor.
    pub fn refactor(&mut self, a: &CsrMatrix<T>) -> Result<(), LinalgError> {
        self.scatter_input(a)?;
        kernel::refactor_blocked(
            &self.schedule,
            &self.diag_idx,
            &mut self.lu_vals,
            Self::SINGULARITY_EPS,
        )
    }

    /// Checks `a` against the factored pattern, then zeroes the packed
    /// values and scatters `a` through the precomputed map (pattern
    /// slots that are pure fill stay zero) — the common head of every
    /// refactor.
    fn scatter_input(&mut self, a: &CsrMatrix<T>) -> Result<(), LinalgError> {
        if a.rows() != self.n || a.cols() != self.n || a.nnz() != self.a_nnz {
            return Err(LinalgError::DimensionMismatch {
                context: "sparse refactor pattern mismatch",
            });
        }
        for v in &mut self.lu_vals {
            *v = T::zero();
        }
        for (k, &dst) in self.a_to_lu.iter().enumerate() {
            self.lu_vals[dst] = a.values()[k];
        }
        Ok(())
    }

    /// The up-looking scalar full refactor: [`Self::eliminate_row`] over
    /// every row — the oracle the compiled schedule of
    /// [`Self::refactor`] must match bit for bit.
    #[cfg(test)]
    pub(crate) fn refactor_scalar(&mut self, a: &CsrMatrix<T>) -> Result<(), LinalgError> {
        self.scatter_input(a)?;
        for p in 0..self.n {
            Self::eliminate_row(
                &self.lu_ptr,
                &self.lu_cols,
                &self.diag_idx,
                &mut self.lu_vals,
                &mut self.work,
                p,
            );
            if self.lu_vals[self.diag_idx[p]].modulus() < Self::SINGULARITY_EPS {
                return Err(LinalgError::Singular { index: p });
            }
        }
        Ok(())
    }

    /// The packed `L`/`U` values, for bitwise kernel comparisons.
    #[cfg(test)]
    pub(crate) fn packed_values(&self) -> &[T] {
        &self.lu_vals
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries in the `L + U` pattern (fill included).
    pub fn factor_nnz(&self) -> usize {
        self.lu_cols.len()
    }

    /// Solves `A x = b` into a caller-provided buffer, reusing both the
    /// buffer and the internal permutation workspace (hence `&mut self`;
    /// the factor values are not modified).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_into(&mut self, b: &[T], x: &mut Vec<T>) {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        // y = P b, then unit-lower forward then upper backward
        // substitution, then x = Q y.
        for p in 0..n {
            self.work[p] = b[self.perm_r[p]];
        }
        for p in 0..n {
            let mut acc = self.work[p];
            for idx in self.lu_ptr[p]..self.diag_idx[p] {
                acc = acc - self.lu_vals[idx] * self.work[self.lu_cols[idx]];
            }
            self.work[p] = acc;
        }
        for p in (0..n).rev() {
            let mut acc = self.work[p];
            for idx in self.diag_idx[p] + 1..self.lu_ptr[p + 1] {
                acc = acc - self.lu_vals[idx] * self.work[self.lu_cols[idx]];
            }
            self.work[p] = acc / self.lu_vals[self.diag_idx[p]];
        }
        x.clear();
        x.resize(n, T::zero());
        for p in 0..n {
            x[self.perm_c[p]] = self.work[p];
            self.work[p] = T::zero();
        }
    }

    /// Solves `A x = b`, allocating the result.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve(&mut self, b: &[T]) -> Vec<T> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;
    use proptest::prelude::*;

    fn csr_from_dense(m: &Matrix) -> CsrMatrix<f64> {
        let mut t = Triplets::new(m.rows(), m.cols());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                if m[(i, j)] != 0.0 {
                    t.push(i, j, m[(i, j)]);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn triplets_merge_duplicates_and_keep_zeros() {
        let mut t = Triplets::new(2, 3);
        t.push(0, 1, 2.0);
        t.push(0, 1, 3.0);
        t.push(1, 2, 0.0);
        t.push(1, 0, -1.0);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 1), 5.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(1, 2), 0.0, "explicit zero stays in the pattern");
        assert_eq!(a.value_index(1, 2), Some(2));
        assert_eq!(a.value_index(0, 0), None);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn csr_rows_are_sorted_and_indexable() {
        let mut t = Triplets::new(3, 3);
        t.push(1, 2, 3.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 2.0);
        let a = t.to_csr();
        assert_eq!(a.row_cols(1), &[0, 1, 2]);
        assert_eq!(a.row_values(1), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row_cols(0), &[] as &[usize]);
        let mut out = vec![0.0; 3];
        a.mat_vec_into(&[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, vec![0.0, 6.0, 0.0]);
    }

    #[test]
    fn solve_matches_dense_on_small_system() {
        let dense = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let a = csr_from_dense(&dense);
        let mut lu = SparseLu::factor(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = lu.solve(&b);
        let x_dense = dense.lu().unwrap().solve(&b);
        for (s, d) in x.iter().zip(&x_dense) {
            assert!((s - d).abs() < 1e-12, "sparse {s} vs dense {d}");
        }
    }

    #[test]
    fn zero_diagonal_needs_pivoting() {
        // MNA-style voltage-source block: zero diagonal in the branch row.
        let dense = Matrix::from_rows(&[&[1e-3, 0.0, 1.0], &[0.0, 2e-3, -1.0], &[1.0, -1.0, 0.0]]);
        let a = csr_from_dense(&dense);
        let mut lu = SparseLu::factor(&a).unwrap();
        let x_true = [1.5, -0.25, 3e-3];
        let mut b = vec![0.0; 3];
        a.mat_vec_into(&x_true, &mut b);
        let x = lu.solve(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 4.0);
        assert!(matches!(SparseLu::factor(&t.to_csr()), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn non_square_rejected() {
        let t = Triplets::<f64>::new(2, 3);
        assert!(matches!(
            SparseLu::factor(&t.to_csr()),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn refactor_reuses_pattern_for_new_values() {
        // Same tridiagonal topology, two value sets: refactor must match
        // a fresh dense solve on the second.
        let n = 8;
        let build = |shift: f64| {
            let mut t = Triplets::new(n, n);
            for i in 0..n {
                t.push(i, i, 4.0 + shift + i as f64 * 0.1);
            }
            for i in 0..n - 1 {
                t.push(i, i + 1, -1.0 - shift * 0.5);
                t.push(i + 1, i, -1.0 + shift * 0.25);
            }
            t.to_csr()
        };
        let a0 = build(0.0);
        let a1 = build(1.5);
        let mut lu = SparseLu::factor(&a0).unwrap();
        lu.refactor(&a1).unwrap();
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        let x = lu.solve(&b);
        let x_dense = a1.to_dense().lu().unwrap().solve(&b);
        for (s, d) in x.iter().zip(&x_dense) {
            assert!((s - d).abs() < 1e-10, "sparse {s} vs dense {d}");
        }
    }

    #[test]
    fn refactor_rejects_shape_or_pattern_mismatch() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        let mut lu = SparseLu::factor(&t.to_csr()).unwrap();
        // Extra nonzero = different pattern.
        t.push(0, 1, 0.5);
        assert!(matches!(lu.refactor(&t.to_csr()), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn refactor_detects_pivot_collapse_and_recovers() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        let good = t.to_csr();
        let mut lu = SparseLu::factor(&good).unwrap();
        let mut bad = good.clone();
        bad.values_mut()[1] = 0.0;
        assert!(matches!(lu.refactor(&bad), Err(LinalgError::Singular { .. })));
        // A subsequent good refactor restores a usable factorization.
        lu.refactor(&good).unwrap();
        assert_eq!(lu.solve(&[3.0, 4.0]), vec![3.0, 4.0]);
    }

    /// A `rows × cols` 2-D grid Laplacian — the coupling shape of the
    /// sense-amp array workload, where fill-reducing ordering matters.
    fn grid_laplacian(rows: usize, cols: usize) -> CsrMatrix<f64> {
        let n = rows * cols;
        let at = |r: usize, c: usize| r * cols + c;
        let mut t = Triplets::new(n, n);
        for r in 0..rows {
            for c in 0..cols {
                t.push(at(r, c), at(r, c), 4.5);
                if r + 1 < rows {
                    t.push(at(r, c), at(r + 1, c), -1.0);
                    t.push(at(r + 1, c), at(r, c), -1.0);
                }
                if c + 1 < cols {
                    t.push(at(r, c), at(r, c + 1), -1.0);
                    t.push(at(r, c + 1), at(r, c), -1.0);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn amd_factor_matches_dense_oracle_on_grid() {
        let a = grid_laplacian(6, 7);
        let mut lu = SparseLu::factor_with(&a, crate::FillOrdering::Amd).unwrap();
        assert_eq!(lu.preorder_fallbacks(), 0, "SPD-ish grid diagonals pass the threshold");
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let x = lu.solve(&b);
        let x_dense = a.to_dense().lu().unwrap().solve(&b);
        for (s, d) in x.iter().zip(&x_dense) {
            assert!((s - d).abs() < 1e-9, "amd {s} vs dense {d}");
        }
    }

    #[test]
    fn amd_factor_handles_zero_diagonal_via_markowitz_fallback() {
        // MNA voltage-source border: the branch row/column has a zero
        // diagonal, so its pre-ordered pivot proposal must fail the
        // stability test and fall through to the Markowitz search.
        let dense = mna_shaped(8, &[0.3, -0.7, 0.5, 0.1, -0.2, 0.9], 1e-9);
        let a = csr_from_dense(&dense);
        let mut lu = SparseLu::factor_with(&a, crate::FillOrdering::Amd).unwrap();
        assert!(lu.preorder_fallbacks() >= 1, "zero-diagonal branch row needs the fallback");
        let rhs: Vec<f64> = (0..dense.rows()).map(|i| (i as f64).sin()).collect();
        let x = lu.solve(&rhs);
        let x_dense = dense.lu().unwrap().solve(&rhs);
        for (s, d) in x.iter().zip(&x_dense) {
            assert!((s - d).abs() < 1e-9, "amd {s} vs dense {d}");
        }
    }

    #[test]
    fn amd_factor_is_bitwise_stable_across_clone_and_refactor() {
        // The pooled-solver contract must hold for pre-ordered factors
        // exactly as for Markowitz ones: clones share the symbolic
        // analysis, and refactor + solve is bitwise reproducible.
        let a = grid_laplacian(5, 5);
        let mut b = a.clone();
        for (k, v) in b.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 1e-3 * (k % 7) as f64;
        }
        let proto = SparseLu::factor_with(&a, crate::FillOrdering::Amd).unwrap();
        let rhs: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.9).sin()).collect();
        let solve_cloned = |m: &CsrMatrix<f64>| -> Vec<f64> {
            let mut lu = proto.clone();
            lu.refactor(m).unwrap();
            lu.solve(&rhs)
        };
        let seq = solve_cloned(&b);
        let (t1, t2) = std::thread::scope(|s| {
            let h1 = s.spawn(|| solve_cloned(&b));
            let h2 = s.spawn(|| solve_cloned(&b));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        for (a_bits, b_bits) in seq.iter().zip(t1.iter().chain(t2.iter())) {
            assert_eq!(a_bits.to_bits(), b_bits.to_bits());
        }
    }

    #[test]
    fn amd_reduces_symbolic_work_on_grids() {
        // The whole point of the pre-order: on a 2-D pattern the AMD
        // factor must not carry grossly more fill than the greedy
        // Markowitz one (it usually carries less; allow headroom since
        // threshold pivoting perturbs both).
        let a = grid_laplacian(16, 16);
        let markowitz = SparseLu::factor(&a).unwrap();
        let amd = SparseLu::factor_with(&a, crate::FillOrdering::Amd).unwrap();
        assert!(
            (amd.factor_nnz() as f64) <= 1.25 * markowitz.factor_nnz() as f64,
            "amd fill {} vs markowitz fill {}",
            amd.factor_nnz(),
            markowitz.factor_nnz()
        );
    }

    #[test]
    fn factor_preordered_rejects_non_permutations() {
        let a = grid_laplacian(3, 3);
        for bad in [vec![0usize; 9], (0..8).collect::<Vec<_>>(), (1..10).collect::<Vec<_>>()] {
            assert!(matches!(
                SparseLu::factor_preordered(&a, &bad),
                Err(LinalgError::DimensionMismatch { .. })
            ));
        }
    }

    #[test]
    fn fill_stays_sparse_on_a_ladder() {
        // A 64-section RC-ladder-shaped tridiagonal system: the Markowitz
        // order must keep the factor O(n), not densify it.
        let n = 64;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0);
        }
        for i in 0..n - 1 {
            t.push(i, i + 1, -1.0);
            t.push(i + 1, i, -1.0);
        }
        let a = t.to_csr();
        let lu = SparseLu::factor(&a).unwrap();
        assert!(
            lu.factor_nnz() <= 4 * n,
            "tridiagonal factor should stay O(n): {} nonzeros for n = {n}",
            lu.factor_nnz()
        );
    }

    /// Random MNA-shaped system: a conductance grid (diagonally loaded,
    /// symmetric pattern) bordered by voltage-source incidence rows with
    /// zero diagonal — the structure every SPICE solve presents.
    fn mna_shaped(n_nodes: usize, entries: &[f64], gmin: f64) -> Matrix {
        let n = n_nodes + 1;
        let mut m = Matrix::zeros(n, n);
        let mut e = entries.iter().copied().cycle();
        for i in 0..n_nodes {
            m[(i, i)] += gmin + 1e-3;
            if i + 1 < n_nodes {
                let g = 1e-3 * (1.0 + e.next().unwrap_or(0.0).abs());
                m[(i, i)] += g;
                m[(i + 1, i + 1)] += g;
                m[(i, i + 1)] -= g;
                m[(i + 1, i)] -= g;
            }
        }
        // One voltage source on node 0.
        m[(0, n - 1)] = 1.0;
        m[(n - 1, 0)] = 1.0;
        m
    }

    proptest! {
        #[test]
        fn prop_sparse_matches_dense_on_spd_ish(
            entries in proptest::collection::vec(-2.0f64..2.0, 25),
            rhs in proptest::collection::vec(-1.0f64..1.0, 5),
        ) {
            // Diagonally dominant 5×5 with a random sparsity mask.
            let mut dense = Matrix::zeros(5, 5);
            for i in 0..5 {
                for j in 0..5 {
                    let v = entries[i * 5 + j];
                    if i == j || v.abs() > 1.0 {
                        dense[(i, j)] = v;
                    }
                }
                dense[(i, i)] += 10.0;
            }
            let a = csr_from_dense(&dense);
            let mut lu = SparseLu::factor(&a).unwrap();
            let x = lu.solve(&rhs);
            let x_dense = dense.lu().unwrap().solve(&rhs);
            for (s, d) in x.iter().zip(&x_dense) {
                prop_assert!((s - d).abs() < 1e-9, "sparse {} vs dense {}", s, d);
            }
        }

        #[test]
        fn prop_cloned_symbolic_refactors_identically_across_threads(
            entries in proptest::collection::vec(-1.0f64..1.0, 12),
            shift_a in -0.4f64..0.4,
            shift_b in -0.4f64..0.4,
        ) {
            // The per-worker-solver contract: a symbolic factorization
            // cloned from one primed prototype, then numerically
            // refactored with *different* values on concurrent threads,
            // must produce solutions bitwise identical to the same
            // clone-and-refactor done single-threaded — the frozen pivot
            // order and fill pattern are the only symbolic state, and
            // cloning shares nothing mutable.
            let base = mna_shaped(8, &entries, 1e-9);
            let reshape = |shift: f64| {
                let mut m = base.clone();
                for i in 0..8 {
                    m[(i, i)] *= 1.0 + shift;
                }
                m
            };
            let a0 = csr_from_dense(&base);
            let prototype = SparseLu::factor(&a0).unwrap();
            let rhs: Vec<f64> = (0..base.rows()).map(|i| (i as f64 + 0.5).cos()).collect();

            // Sequential reference: one clone per value set.
            let solve_cloned = |m: &Matrix| -> Vec<f64> {
                let mut lu = prototype.clone();
                lu.refactor(&csr_from_dense(m)).unwrap();
                lu.solve(&rhs)
            };
            let (ma, mb) = (reshape(shift_a), reshape(shift_b));
            let (seq_a, seq_b) = (solve_cloned(&ma), solve_cloned(&mb));

            // Two threads, each with its own clone and its own values.
            let (thr_a, thr_b) = std::thread::scope(|scope| {
                let ta = scope.spawn(|| solve_cloned(&ma));
                let tb = scope.spawn(|| solve_cloned(&mb));
                (ta.join().unwrap(), tb.join().unwrap())
            });
            for (s, t) in seq_a.iter().zip(&thr_a) {
                prop_assert_eq!(s.to_bits(), t.to_bits(), "thread A diverged: {} vs {}", s, t);
            }
            for (s, t) in seq_b.iter().zip(&thr_b) {
                prop_assert_eq!(s.to_bits(), t.to_bits(), "thread B diverged: {} vs {}", s, t);
            }

            // And the refactored clones stay consistent with fresh
            // single-threaded factorizations of the same values (fresh
            // symbolic analysis may pick different pivots, so this bound
            // is numerical, not bitwise).
            let mut fresh = SparseLu::factor(&csr_from_dense(&ma)).unwrap();
            let x_fresh = fresh.solve(&rhs);
            for (c, f) in thr_a.iter().zip(&x_fresh) {
                prop_assert!((c - f).abs() < 1e-9, "clone {} vs fresh {}", c, f);
            }
        }

        #[test]
        fn prop_amd_order_is_a_valid_permutation(
            edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
        ) {
            // Any square pattern — including asymmetric, disconnected and
            // empty-row cases — must order every index exactly once.
            let n = 12;
            let mut t = Triplets::new(n, n);
            for i in 0..n {
                t.push(i, i, 1.0);
            }
            for &(i, j) in &edges {
                t.push(i, j, -1.0);
            }
            let perm = crate::ordering::amd_order(&t.to_csr());
            prop_assert_eq!(perm.len(), n);
            let mut seen = vec![false; n];
            for &p in &perm {
                prop_assert!(p < n && !seen[p], "index {} repeated or out of range", p);
                seen[p] = true;
            }
        }

        #[test]
        fn prop_amd_factor_matches_dense_on_mna_shaped(
            entries in proptest::collection::vec(-1.0f64..1.0, 12),
            gmin_exp in 3.0f64..12.0,
        ) {
            // Pre-ordered factorization against the dense oracle on the
            // exact structure every SPICE solve presents (zero-diagonal
            // voltage-source border included, which exercises the
            // Markowitz fallback path).
            let dense = mna_shaped(8, &entries, 10f64.powf(-gmin_exp));
            let a = csr_from_dense(&dense);
            let mut lu = SparseLu::factor_with(&a, crate::FillOrdering::Amd).unwrap();
            let rhs: Vec<f64> = (0..dense.rows()).map(|i| (i as f64).sin()).collect();
            let x = lu.solve(&rhs);
            let x_dense = dense.lu().unwrap().solve(&rhs);
            for (s, d) in x.iter().zip(&x_dense) {
                prop_assert!((s - d).abs() < 1e-9, "amd {} vs dense {}", s, d);
            }
        }

        #[test]
        fn prop_sparse_matches_dense_on_mna_shaped(
            entries in proptest::collection::vec(-1.0f64..1.0, 12),
            gmin_exp in 3.0f64..12.0,
        ) {
            let dense = mna_shaped(8, &entries, 10f64.powf(-gmin_exp));
            let a = csr_from_dense(&dense);
            let mut lu = SparseLu::factor(&a).unwrap();
            let rhs: Vec<f64> = (0..dense.rows()).map(|i| (i as f64).sin()).collect();
            let x = lu.solve(&rhs);
            let x_dense = dense.lu().unwrap().solve(&rhs);
            for (s, d) in x.iter().zip(&x_dense) {
                prop_assert!((s - d).abs() < 1e-9, "sparse {} vs dense {}", s, d);
            }
        }
    }
}
