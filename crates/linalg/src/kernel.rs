//! The compiled numeric elimination schedule behind
//! [`SparseLu::refactor`](crate::sparse::SparseLu::refactor).
//!
//! A refactor re-runs the numeric elimination over a frozen fill
//! pattern, so every update's destination is known at symbolic time.
//! The whole elimination is therefore compiled once into a flat
//! schedule of source operations over the packed value array: each
//! packed target row acts as its own dense panel, updated **in place**
//! (no gather, no workspace zeroing, no scatter), with per-update
//! destination offsets resolved at plan time instead of per refactor.
//! Where a source row's `U` segment lands on consecutive packed
//! positions of the target row — the common case in the dense trailing
//! block an AMD-ordered 2-D pattern produces — the update is encoded as
//! a **contiguous fused-multiply-add run** that the compiler vectorizes;
//! elsewhere the precomputed offsets stream linearly from the plan.
//!
//! # Parity contract
//!
//! The schedule replays exactly the up-looking scalar row elimination's
//! update sequence (rows ascending, each row's sources ascending, each
//! source's `U` entries in packed order) on exactly the same operands,
//! so the two agree **bit for bit** on success and fail on the same
//! first singular pivot. A kernel that reassociates cannot replace this
//! one. The unit tests below check the schedule bitwise against a
//! `#[cfg(test)]` scalar full-refactor oracle.

use crate::sparse::Scalar;
use crate::LinalgError;

/// Marker in [`SourceOp::dst_base`]: destinations come from the side
/// stream instead of a contiguous run.
const INDIRECT: u32 = u32::MAX;

/// One compiled update: "divide the target row's `L` entry by the source
/// diagonal, then subtract `f ×` the source row's `U` segment from the
/// target row" — all positions packed-value indices resolved at plan
/// time.
#[derive(Debug, Clone)]
struct SourceOp {
    /// Packed position of the target row's `L` entry (becomes `f`).
    fpos: u32,
    /// Packed position of the source row's diagonal.
    dpos: u32,
    /// First packed position of the source row's `U` segment.
    ubase: u32,
    /// `U` segment length.
    ulen: u32,
    /// First destination position of a contiguous run, or [`INDIRECT`]
    /// when the next `ulen` side-stream entries hold the destinations.
    dst_base: u32,
}

/// The compiled elimination schedule for one symbolic analysis —
/// pattern-only, shared (via `Arc`) by every clone of the
/// factorization.
#[derive(Debug, Clone)]
pub(crate) struct BlockedPlan {
    /// All updates, target-row-major, sources ascending within a row —
    /// the exact scalar row elimination order.
    ops: Vec<SourceOp>,
    /// Destination positions for non-contiguous ops, consumed in order.
    dsts: Vec<u32>,
    /// Per pivot row: end index into `ops` (the row's updates are
    /// `row_end[p-1]..row_end[p]`).
    row_end: Vec<u32>,
}

/// Compiles the frozen elimination pattern into the flat update
/// schedule. For every target row `p` and `L` source `k` (ascending,
/// like the scalar loop), the source's `U` columns are resolved to
/// packed positions inside row `p` by a sorted merge; runs of
/// consecutive destinations encode as contiguous ops.
pub(crate) fn build_plan(lu_ptr: &[usize], lu_cols: &[usize], diag_idx: &[usize]) -> BlockedPlan {
    let n = diag_idx.len();
    let mut ops = Vec::new();
    let mut dsts: Vec<u32> = Vec::new();
    let mut row_end = Vec::with_capacity(n);
    let mut scratch: Vec<u32> = Vec::new();
    for p in 0..n {
        let (lo, hi) = (lu_ptr[p], lu_ptr[p + 1]);
        let row_cols = &lu_cols[lo..hi];
        for idx in lo..diag_idx[p] {
            let k = lu_cols[idx];
            let (ulo, uhi) = (diag_idx[k] + 1, lu_ptr[k + 1]);
            // Resolve each U column of the source inside the target row
            // (both sorted — one merge scan). Every U column is present:
            // the fill pattern is closed under elimination.
            scratch.clear();
            let mut t = 0usize;
            for &j in &lu_cols[ulo..uhi] {
                while row_cols[t] != j {
                    t += 1;
                }
                scratch.push((lo + t) as u32);
            }
            let contiguous = scratch.windows(2).all(|w| w[1] == w[0] + 1);
            let dst_base = match (contiguous, scratch.first()) {
                (true, Some(&first)) => first,
                (true, None) => 0, // empty U segment — run base unused
                (false, _) => {
                    dsts.extend_from_slice(&scratch);
                    INDIRECT
                }
            };
            ops.push(SourceOp {
                fpos: idx as u32,
                dpos: diag_idx[k] as u32,
                ubase: ulo as u32,
                ulen: (uhi - ulo) as u32,
                dst_base,
            });
        }
        row_end.push(ops.len() as u32);
    }
    BlockedPlan { ops, dsts, row_end }
}

/// Runs the compiled elimination over the scattered input values (the
/// caller has already zeroed `lu_vals` and scattered the input through
/// its `a_to_lu` map). Bitwise identical to the scalar row elimination
/// on success.
///
/// # Errors
///
/// [`LinalgError::Singular`] at the first pivot row whose diagonal falls
/// below `eps` (checked ascending, like the scalar row loop); the factor
/// values are unspecified on error.
pub(crate) fn refactor_blocked<T: Scalar>(
    plan: &BlockedPlan,
    diag_idx: &[usize],
    lu_vals: &mut [T],
    eps: f64,
) -> Result<(), LinalgError> {
    let mut oi = 0usize;
    let mut di = 0usize;
    for (p, &end) in plan.row_end.iter().enumerate() {
        while oi < end as usize {
            let op = &plan.ops[oi];
            oi += 1;
            let fpos = op.fpos as usize;
            let f = lu_vals[fpos] / lu_vals[op.dpos as usize];
            lu_vals[fpos] = f;
            let ub = op.ubase as usize;
            let ul = op.ulen as usize;
            if op.dst_base != INDIRECT {
                let db = op.dst_base as usize;
                // Source (row k) and destination (row p > k) segments
                // live in different packed rows, so the ranges are
                // disjoint and the loop iterations independent.
                debug_assert!(db >= ub + ul || db + ul <= ub, "rows overlap");
                for m in 0..ul {
                    lu_vals[db + m] = lu_vals[db + m] - f * lu_vals[ub + m];
                }
            } else {
                for m in 0..ul {
                    let d = plan.dsts[di + m] as usize;
                    lu_vals[d] = lu_vals[d] - f * lu_vals[ub + m];
                }
                di += ul;
            }
        }
        if lu_vals[diag_idx[p]].modulus() < eps {
            return Err(LinalgError::Singular { index: p });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::sparse::{CsrMatrix, SparseLu, Triplets};
    use crate::{FillOrdering, LinalgError};

    /// A banded-plus-border pattern with enough coupling to produce fill
    /// (deterministic pseudo-random values from a splitmix-style hash).
    fn test_matrix(n: usize, seed: u64) -> CsrMatrix<f64> {
        let mut t = Triplets::new(n, n);
        let mut h = seed;
        let mut next = move || {
            h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((h >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for i in 0..n {
            t.push(i, i, 4.0 + next().abs());
            for off in [1usize, 7, 13] {
                if i + off < n {
                    let v = next();
                    t.push(i, i + off, v);
                    t.push(i + off, i, next());
                }
            }
            // Border row/column — the V-source-branch shape.
            if i + 1 < n {
                t.push(i, n - 1, next() * 0.1);
                t.push(n - 1, i, next() * 0.1);
            }
        }
        t.to_csr()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn blocked_refactor_matches_scalar_bitwise() {
        for ordering in [FillOrdering::Markowitz, FillOrdering::Amd] {
            let a = test_matrix(120, 7);
            let proto = SparseLu::factor_with(&a, ordering).expect("factors");
            // Refresh with values the symbolic analysis never saw, so
            // every row really re-eliminates.
            let mut b = a.clone();
            for (k, v) in b.values_mut().iter_mut().enumerate() {
                *v *= 1.0 + 0.03 * ((k % 11) as f64 - 5.0);
            }
            let (mut blocked, mut scalar) = (proto.clone(), proto.clone());
            blocked.refactor(&b).expect("blocked refactor");
            scalar.refactor_scalar(&b).expect("scalar refactor");
            assert_eq!(
                bits(blocked.packed_values()),
                bits(scalar.packed_values()),
                "{ordering}: packed factor values diverge"
            );
            let rhs: Vec<f64> = (0..120).map(|i| (i as f64 * 0.37).sin()).collect();
            assert_eq!(
                bits(&blocked.solve(&rhs)),
                bits(&scalar.solve(&rhs)),
                "{ordering}: solutions diverge"
            );
            // Zeroing one original row's values leaves its pivot at
            // exactly zero after elimination: both kernels must stop at
            // the same packed row.
            for row in [0usize, 57, 119] {
                let mut singular = a.clone();
                let lo: usize = (0..row).map(|r| a.row_cols(r).len()).sum();
                let hi = lo + a.row_cols(row).len();
                singular.values_mut()[lo..hi].fill(0.0);
                let got = proto.clone().refactor(&singular);
                let want = proto.clone().refactor_scalar(&singular);
                assert!(
                    matches!(want, Err(LinalgError::Singular { .. })),
                    "{ordering}: zeroed row {row} must be singular, got {want:?}"
                );
                assert_eq!(got, want, "{ordering}: zeroed row {row}");
            }
        }
    }

    #[test]
    fn blocked_refactor_repeats_bitwise() {
        let a = test_matrix(90, 3);
        let mut lu = SparseLu::factor(&a).expect("factors");
        let b: Vec<f64> = (0..90).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut x1 = vec![0.0; 90];
        let mut x2 = vec![0.0; 90];
        lu.refactor(&a).expect("first blocked refactor");
        lu.solve_into(&b, &mut x1);
        lu.refactor(&a).expect("second blocked refactor");
        lu.solve_into(&b, &mut x2);
        assert_eq!(
            bits(&x1),
            bits(&x2),
            "blocked kernel must be bitwise reproducible against itself"
        );
    }
}
