//! Fill-reducing orderings for the sparse LU.
//!
//! The Markowitz symbolic phase in [`sparse`](crate::sparse) interleaves
//! pivot *search* with elimination: every step scans candidate buckets,
//! validates column maxima and re-ranks rows — robust, but the scan cost
//! grows with fill and dominates the cold start on genuinely 2-D coupling
//! patterns (grids, arrays) where 1-D chains stayed cheap. The classic
//! answer is to split ordering from factorization: compute a
//! **fill-reducing pre-order** once from the pattern alone, then run the
//! symbolic elimination down that static pivot sequence with only a local
//! numeric stability check per step.
//!
//! [`amd_order`] implements an approximate-minimum-degree (AMD) ordering
//! over the **symmetrized** nonzero pattern (MNA matrices are structurally
//! near-symmetric — device stamps are, and the voltage-source border
//! blocks symmetrize to themselves):
//!
//! - **quotient-graph elimination**: eliminated pivots become *elements*
//!   whose boundary lists stand in for the clique their fill would create,
//!   so no fill is ever materialized while ordering;
//! - **approximate external degrees**: a variable's degree is bounded by
//!   `|A_i| + |L_p \ i| + Σ_e |L_e \ L_p|` using per-element external
//!   weights computed in one pass per pivot — the AMD bound, cheaper than
//!   exact set unions and experimentally just as good;
//! - **supervariable detection / mass elimination**: boundary variables
//!   with identical adjacency (hash-grouped, then exactly compared) merge
//!   into one supervariable that is ordered — and later eliminated — as a
//!   unit;
//! - **aggressive element absorption**: an element whose boundary is
//!   covered by the new pivot's is dropped from the quotient graph;
//! - **assembly-tree postorder**: the final permutation is a postorder of
//!   the element absorption tree, which keeps each subtree's pivots
//!   contiguous (better locality for the numeric sweeps) without changing
//!   the fill bound.
//!
//! The result feeds [`SparseLu::factor`](crate::sparse::SparseLu::factor)
//! as a static pivot sequence; numeric threshold pivoting stays in the
//! loop as a per-step fallback, so stability is never traded for the
//! pre-order.
//!
//! Everything here is deterministic: ties break on the smallest variable
//! index, iteration orders come from sorted vectors, and the permutation
//! depends only on the input pattern — the same bitwise-reproducibility
//! contract the rest of the solver stack is built on.

use crate::sparse::{CsrMatrix, Scalar};

/// Lifecycle of a node in the quotient graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Uneliminated (principal) variable.
    Live,
    /// Eliminated pivot, now an element of the quotient graph.
    Elem,
    /// Nonprincipal variable absorbed into a supervariable.
    Merged,
}

/// Approximate-minimum-degree ordering of `a`'s symmetrized pattern.
///
/// Returns `perm` with `perm[k]` = the original index proposed as the
/// `k`-th pivot; always a valid permutation of `0..a.rows()`. Values are
/// ignored — the ordering is a pure function of the pattern, so it can be
/// computed once per topology and shared.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn amd_order<T: Scalar>(a: &CsrMatrix<T>) -> Vec<usize> {
    assert_eq!(a.rows(), a.cols(), "amd ordering of non-square matrix");
    let n = a.rows();
    if n == 0 {
        return Vec::new();
    }

    // Symmetrized adjacency (pattern of A + Aᵀ, diagonal dropped), sorted
    // so every downstream iteration and comparison is deterministic.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for &j in a.row_cols(i) {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }

    let mut state = vec![NodeState::Live; n];
    // Supervariable mass (number of original variables represented).
    let mut nv = vec![1usize; n];
    // Original variables absorbed into each principal (flattened).
    let mut absorbed: Vec<Vec<usize>> = vec![Vec::new(); n];
    // E_i: elements adjacent to variable i (chronological by creation, so
    // equal sets imply equal sequences — supervariable comparison relies
    // on this).
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    // L_e: boundary variables of element e.
    let mut elem_vars: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Assembly-tree parent of an element (the pivot that absorbed it);
    // MAX while the element is live, or for roots.
    let mut parent = vec![usize::MAX; n];
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    // Degree buckets with lazy invalidation: entries are re-pushed on
    // every degree change and validated against the live degree on scan.
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for (i, &d) in degree.iter().enumerate() {
        buckets[d].push(i);
    }

    let mut vmark = vec![0usize; n];
    let mut vstamp = 0usize;
    let mut emark = vec![0usize; n];
    let mut estamp = 0usize;
    // Per-step external element weights: w[e] = mass of L_e \ L_p.
    let mut w = vec![0i64; n];
    let mut order: Vec<usize> = Vec::new();
    let mut eliminated_mass = 0usize;

    while eliminated_mass < n {
        // Pivot: minimum approximate degree, smallest index on ties.
        let mut pivot = usize::MAX;
        for d in 0..=n {
            buckets[d].retain(|&i| state[i] == NodeState::Live && degree[i] == d);
            if let Some(&min) = buckets[d].iter().min() {
                pivot = min;
                break;
            }
        }
        debug_assert_ne!(pivot, usize::MAX, "a live variable must remain");
        let p = pivot;
        state[p] = NodeState::Elem;
        order.push(p);
        eliminated_mass += nv[p];

        // L_p = (A_p ∪ ⋃_{e ∈ E_p} L_e) restricted to live variables;
        // every element reached here is absorbed into p (tree edge).
        vstamp += 1;
        vmark[p] = vstamp;
        let mut lp: Vec<usize> = Vec::new();
        for &i in &adj[p] {
            if state[i] == NodeState::Live && vmark[i] != vstamp {
                vmark[i] = vstamp;
                lp.push(i);
            }
        }
        for e in std::mem::take(&mut elems[p]) {
            if state[e] != NodeState::Elem || parent[e] != usize::MAX {
                continue;
            }
            for &i in &elem_vars[e] {
                if state[i] == NodeState::Live && vmark[i] != vstamp {
                    vmark[i] = vstamp;
                    lp.push(i);
                }
            }
            parent[e] = p;
            elem_vars[e] = Vec::new();
        }
        lp.sort_unstable();
        adj[p] = Vec::new();

        // One pass over the boundary computes every adjacent element's
        // external weight w[e] = |L_e \ L_p| (mass-weighted): initialize
        // to |L_e| on first touch (pruning dead boundary entries while
        // there), then subtract each shared variable's mass.
        estamp += 1;
        let mut touched: Vec<usize> = Vec::new();
        for &i in &lp {
            for &e in &elems[i] {
                if state[e] != NodeState::Elem || parent[e] != usize::MAX {
                    continue;
                }
                if emark[e] != estamp {
                    emark[e] = estamp;
                    elem_vars[e].retain(|&v| state[v] == NodeState::Live);
                    w[e] = elem_vars[e].iter().map(|&v| nv[v] as i64).sum();
                    touched.push(e);
                }
                w[e] -= nv[i] as i64;
            }
        }
        // Aggressive absorption: an element whose live boundary is inside
        // L_p adds nothing the new element doesn't.
        for &e in &touched {
            if w[e] <= 0 {
                parent[e] = p;
                elem_vars[e] = Vec::new();
            }
        }

        let lp_mass: i64 = lp.iter().map(|&i| nv[i] as i64).sum();

        // Update every boundary variable: compress its adjacency (L_p
        // members are now reachable through element p), refresh its
        // element list, and recompute the AMD degree bound.
        for &i in &lp {
            adj[i].retain(|&v| state[v] == NodeState::Live && vmark[v] != vstamp);
            elems[i].retain(|&e| state[e] == NodeState::Elem && parent[e] == usize::MAX);
            elems[i].push(p);
            let a_mass: i64 = adj[i].iter().map(|&v| nv[v] as i64).sum();
            let e_mass: i64 = elems[i][..elems[i].len() - 1].iter().map(|&e| w[e].max(0)).sum();
            let d = (a_mass + (lp_mass - nv[i] as i64) + e_mass).clamp(0, n as i64) as usize;
            degree[i] = d;
            buckets[d].push(i);
        }

        // Supervariable detection: boundary variables with identical
        // compressed adjacency are indistinguishable — merge the larger
        // index into the smaller (mass elimination: the merged block is
        // ordered, and later eliminated, as one pivot).
        let mut hashed: Vec<(u64, usize)> = lp
            .iter()
            .filter(|&&i| state[i] == NodeState::Live)
            .map(|&i| {
                let h = adj[i].iter().chain(elems[i].iter()).fold(0x100_0000_01b3u64, |acc, &x| {
                    (acc ^ x as u64).wrapping_mul(0x100_0000_01b3)
                });
                (h, i)
            })
            .collect();
        hashed.sort_unstable();
        let mut run = 0;
        while run < hashed.len() {
            let mut end = run + 1;
            while end < hashed.len() && hashed[end].0 == hashed[run].0 {
                end += 1;
            }
            for a_idx in run..end {
                let i = hashed[a_idx].1;
                if state[i] != NodeState::Live {
                    continue;
                }
                for b_idx in a_idx + 1..end {
                    let j = hashed[b_idx].1;
                    if state[j] != NodeState::Live {
                        continue;
                    }
                    if adj[i] == adj[j] && elems[i] == elems[j] {
                        let mass_j = nv[j];
                        nv[i] += mass_j;
                        nv[j] = 0;
                        state[j] = NodeState::Merged;
                        let mut grand = std::mem::take(&mut absorbed[j]);
                        absorbed[i].push(j);
                        absorbed[i].append(&mut grand);
                        adj[j] = Vec::new();
                        elems[j] = Vec::new();
                        degree[i] = degree[i].saturating_sub(mass_j);
                        buckets[degree[i]].push(i);
                    }
                }
            }
            run = end;
        }

        elem_vars[p] = lp.into_iter().filter(|&i| state[i] == NodeState::Live).collect();
    }

    // Assembly-tree postorder: children (absorbed elements) before
    // parents, subtrees contiguous, children visited in elimination
    // order. Each element expands to its principal variable followed by
    // the variables its supervariable absorbed.
    let mut step_of = vec![usize::MAX; n];
    for (k, &e) in order.iter().enumerate() {
        step_of[e] = k;
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut roots: Vec<usize> = Vec::new();
    for &e in &order {
        if parent[e] == usize::MAX {
            roots.push(e);
        } else {
            children[parent[e]].push(e);
        }
    }
    for c in &mut children {
        c.sort_unstable_by_key(|&e| step_of[e]);
    }
    let mut perm = Vec::with_capacity(n);
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for &r in &roots {
        stack.push((r, 0));
        while let Some(frame) = stack.last_mut() {
            let e = frame.0;
            if frame.1 < children[e].len() {
                let c = children[e][frame.1];
                frame.1 += 1;
                stack.push((c, 0));
            } else {
                stack.pop();
                perm.push(e);
                perm.extend_from_slice(&absorbed[e]);
            }
        }
    }
    debug_assert_eq!(perm.len(), n, "amd ordering must emit every variable exactly once");
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;

    fn is_permutation(perm: &[usize], n: usize) -> bool {
        if perm.len() != n {
            return false;
        }
        let mut seen = vec![false; n];
        for &p in perm {
            if p >= n || seen[p] {
                return false;
            }
            seen[p] = true;
        }
        true
    }

    #[test]
    fn empty_and_singleton() {
        let t = Triplets::<f64>::new(0, 0);
        assert!(amd_order(&t.to_csr()).is_empty());
        let mut t = Triplets::new(1, 1);
        t.push(0, 0, 1.0);
        assert_eq!(amd_order(&t.to_csr()), vec![0]);
    }

    #[test]
    fn diagonal_matrix_orders_all_variables() {
        let mut t = Triplets::new(5, 5);
        for i in 0..5 {
            t.push(i, i, 1.0 + i as f64);
        }
        let perm = amd_order(&t.to_csr());
        assert!(is_permutation(&perm, 5));
    }

    #[test]
    fn tridiagonal_orders_endpoints_before_centers() {
        // On a path graph, minimum degree eliminates from the endpoints
        // inward; the center vertex (degree 2 until the very end) must
        // not come first.
        let n = 9;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
        }
        for i in 0..n - 1 {
            t.push(i, i + 1, -1.0);
            t.push(i + 1, i, -1.0);
        }
        let perm = amd_order(&t.to_csr());
        assert!(is_permutation(&perm, n));
        assert_ne!(perm[0], n / 2, "path center cannot be the first pivot");
    }

    #[test]
    fn asymmetric_pattern_is_symmetrized() {
        // Only the upper triangle is stored; the ordering must still see
        // the full (symmetrized) structure and produce a permutation.
        let n = 6;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        for i in 0..n - 1 {
            t.push(i, i + 1, -1.0);
        }
        t.push(0, n - 1, 0.5);
        let perm = amd_order(&t.to_csr());
        assert!(is_permutation(&perm, n));
    }

    #[test]
    fn star_graph_merges_leaves_into_a_supervariable() {
        // A star: hub adjacent to every leaf. Leaves are indistinguishable
        // after the first elimination step touches them; all of them must
        // still be emitted, and the hub (max degree) cannot lead.
        let n = 8;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        for leaf in 1..n {
            t.push(0, leaf, -1.0);
            t.push(leaf, 0, -1.0);
        }
        let perm = amd_order(&t.to_csr());
        assert!(is_permutation(&perm, n));
        assert_ne!(perm[0], 0, "the hub has maximum degree");
    }

    #[test]
    fn deterministic_across_calls() {
        let n = 12;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0);
            t.push(i, (i * 5 + 1) % n, -1.0);
            t.push((i * 7 + 2) % n, i, -1.0);
        }
        let a = t.to_csr();
        let first = amd_order(&a);
        for _ in 0..3 {
            assert_eq!(amd_order(&a), first);
        }
    }
}
