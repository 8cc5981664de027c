//! Correctness contract of the SPICE solver: on every analysis (DC, AC,
//! transient), under both Jacobian strategies and across circuit sizes,
//! the AMD-pre-ordered sparse LU every system factors on must agree with
//! the dense `Lu` oracle solving the same assembled systems to well
//! within the Newton tolerance. The dense path survives only as that
//! oracle; the sparse path is the solver.

use glova_linalg::sparse::{CsrMatrix, SparseLu};
use glova_spice::ac::{ac_sweep, log_sweep};
use glova_spice::dc::{operating_point_with_options, OpSolver};
use glova_spice::mna::{JacobianStrategy, MnaTemplate, NewtonOptions, StampContext};
use glova_spice::netlist::{inverter_chain, rc_ladder, Netlist};
use glova_spice::transient::{transient_from_with_options, TransientSpec};

/// The `gmin` every converged DC operating point solves under.
const FINAL_GMIN: f64 = 1e-12;

/// Max |a − b| over all unknowns.
fn max_gap(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max)
}

/// The system `netlist` assembles around `x` under `ctx`.
fn assembled(netlist: &Netlist, x: &[f64], ctx: &StampContext<'_>) -> (CsrMatrix<f64>, Vec<f64>) {
    let template = MnaTemplate::new(netlist, netlist.values(), ctx);
    let mut a = template.new_system();
    let mut rhs = vec![0.0; template.dim()];
    template.assemble_into(&mut a, &mut rhs, x, ctx.gmin);
    (a, rhs)
}

/// Solves the DC system `netlist` assembles around `x` under `gmin` on
/// the sparse LU and on the dense `Lu`, and checks that the two agree.
fn assert_linear_solves_agree(netlist: &Netlist, x: &[f64], gmin: f64, what: &str) {
    let ctx = StampContext { time: 0.0, step: None, gmin };
    let (a, rhs) = assembled(netlist, x, &ctx);
    let sparse = SparseLu::factor(&a).expect("the sparse LU factors").solve(&rhs);
    let dense = a.to_dense().lu().expect("the dense oracle factors").solve(&rhs);
    for (s, d) in sparse.iter().zip(&dense) {
        assert!((s - d).abs() <= 1e-9 * (1.0 + d.abs()), "{what}: sparse {s} vs dense {d}");
    }
}

/// Checks that `x` — a DC operating point the sparse solver returned —
/// is a fixed point of full Newton on the same final-rung system solved
/// by the dense `Lu`: the step the oracle asks for moves no node by
/// `1e-9` V or more.
fn assert_dense_fixed_point(netlist: &Netlist, x: &[f64], what: &str) {
    let ctx = StampContext { time: 0.0, step: None, gmin: FINAL_GMIN };
    let (a, rhs) = assembled(netlist, x, &ctx);
    let a = a.to_dense();
    let residual: Vec<f64> = rhs.iter().zip(a.mat_vec(x)).map(|(b, v)| b - v).collect();
    let step = a.lu().expect("the dense oracle factors").solve(&residual);
    let n_nodes = netlist.node_count() - 1;
    let moved = step[..n_nodes].iter().fold(0.0f64, |m, d| m.max(d.abs()));
    assert!(moved < 1e-9, "{what}: the dense oracle moves the operating point by {moved:.3e} V");
}

#[test]
fn operating_points_match_across_backends_and_strategies() {
    // Under the chord default and full Newton, each chain's operating
    // point is a fixed point of the dense oracle, the two strategies
    // land on the same point, and the sparse and dense solves of the
    // systems at the start and the end of the ladder agree.
    for stages in [4, 24] {
        let netlist = inverter_chain(stages);
        let x0 = vec![0.0; netlist.unknown_count()];
        let mut points = Vec::new();
        for strategy in [JacobianStrategy::CHORD_DEFAULT, JacobianStrategy::Full] {
            let options = NewtonOptions { strategy, ..NewtonOptions::default() };
            let what = format!("inv_chain{stages} {strategy:?}");
            let op = operating_point_with_options(&netlist, &x0, &options)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_dense_fixed_point(&netlist, op.raw(), &what);
            assert_linear_solves_agree(&netlist, &x0, 1e-3, &what);
            assert_linear_solves_agree(&netlist, op.raw(), FINAL_GMIN, &what);
            points.push(op);
        }
        let gap = max_gap(points[0].raw(), points[1].raw());
        assert!(gap < 1e-9, "inv_chain{stages}: chord vs full Newton diverge by {gap:.3e}");
    }
}

#[test]
fn op_solver_sweep_reuse_is_result_identical() {
    // An unprimed OpSolver (symbolic factorization reused across
    // solves, no warm start) returns the one-shot ladder's bits on every
    // repeat. A primed one solves from its warm start — another path to
    // the same fixed point — and returns the same bits on every repeat.
    let netlist = inverter_chain(24);
    let x0 = vec![0.0; netlist.unknown_count()];
    let options = NewtonOptions::default();
    let oneshot = operating_point_with_options(&netlist, &x0, &options).unwrap();
    let mut cold = OpSolver::new(netlist.clone(), options);
    assert!(cold.warm_start().is_none());
    let mut warm = OpSolver::primed(netlist.clone(), options).unwrap();
    assert!(warm.warm_start().is_some());
    let first_warm = warm.solve().unwrap();
    for repeat in 0..3 {
        assert_eq!(cold.solve().unwrap().raw(), oneshot.raw(), "cold repeat {repeat}");
        assert_eq!(warm.solve().unwrap().raw(), first_warm.raw(), "warm repeat {repeat}");
    }
    let gap = max_gap(oneshot.raw(), first_warm.raw());
    assert!(gap < 1e-9, "warm start and ladder diverge by {gap:.3e}");
}

#[test]
fn rc_ladder_dc_matches_analytic_and_both_backends() {
    // No DC current flows in the ladder (capacitors are open), so every
    // node must sit at the source voltage — an absolute reference on top
    // of the dense oracle.
    let netlist = rc_ladder(64, 1e3, 1e-12);
    let x0 = vec![0.0; netlist.unknown_count()];
    let op = operating_point_with_options(&netlist, &x0, &NewtonOptions::default()).unwrap();
    let n_nodes = netlist.node_count() - 1;
    for i in 0..n_nodes {
        // The gmin regularization leaks ~1e-12 A per node through up
        // to 64 kΩ of ladder, so "equal" means within a few µV.
        assert!((op.raw()[i] - 1.0).abs() < 1e-4, "ladder node {i} at {} V", op.raw()[i]);
    }
    assert_dense_fixed_point(&netlist, op.raw(), "rc_ladder64");
    assert_linear_solves_agree(&netlist, op.raw(), FINAL_GMIN, "rc_ladder64");
}

#[test]
fn large_chain_converges_on_sparse() {
    // 64 stages (68 unknowns): a physically sane chain — railed outputs
    // alternating within the supply — that the dense oracle agrees with.
    let netlist = inverter_chain(64);
    let x0 = vec![0.0; netlist.unknown_count()];
    let op = operating_point_with_options(&netlist, &x0, &NewtonOptions::default()).unwrap();
    for v in &op.raw()[..netlist.node_count() - 1] {
        assert!((-1e-6..=0.9 + 1e-6).contains(v), "node voltage {v} outside the supply");
    }
    assert_dense_fixed_point(&netlist, op.raw(), "inv_chain64");
}

#[test]
fn ac_sweep_backends_agree_on_magnitude_and_phase() {
    // A 16-section RC ladder AC sweep (the pattern reused across the
    // whole sweep) against the ladder's complex nodal system — the
    // `jωC` and conductance stamps plus the AC `gmin` on every node —
    // solved densely as the real system [[G, −B], [B, G]].
    let (sections, r, c) = (16, 1e3, 1e-12);
    let netlist = rc_ladder(sections, r, c);
    let freqs = log_sweep(1e3, 1e10, 4);
    let ac = ac_sweep(&netlist, "VIN", &freqs).unwrap();
    let ladder_nodes: Vec<_> = (0..sections)
        .map(|s| {
            let name = if s + 1 == sections { "out".to_string() } else { format!("l{s}") };
            netlist.find_node(&name).expect("ladder node")
        })
        .collect();
    let (g, gmin) = (1.0 / r, 1e-12);
    for (i, &f) in freqs.iter().enumerate() {
        let omega = 2.0 * std::f64::consts::PI * f;
        // Unknowns: the ladder nodes' real parts, then their imaginary
        // parts; the driven input sits at 1 + 0j.
        let n = sections;
        let mut m = glova_linalg::Matrix::zeros(2 * n, 2 * n);
        let mut rhs = vec![0.0; 2 * n];
        for k in 0..n {
            let diag = if k + 1 == n { g } else { 2.0 * g } + gmin;
            let b = omega * c;
            m[(k, k)] = diag;
            m[(n + k, n + k)] = diag;
            m[(k, n + k)] = -b;
            m[(n + k, k)] = b;
            for j in [k.wrapping_sub(1), k + 1] {
                if j < n {
                    m[(k, j)] = -g;
                    m[(n + k, n + j)] = -g;
                }
            }
        }
        rhs[0] = g;
        let x = m.lu().expect("the ladder system factors").solve(&rhs);
        for (k, &node) in ladder_nodes.iter().enumerate() {
            let (dense_re, dense_im) = (x[k], x[n + k]);
            let dense_mag = dense_re.hypot(dense_im);
            let sparse = ac.voltage(node, i);
            assert!(
                (sparse.abs() - dense_mag).abs() <= 1e-9 * (1.0 + dense_mag),
                "f = {f:.3e} node {k}: magnitude {} vs dense {dense_mag}",
                sparse.abs()
            );
            if dense_mag > 1e-6 {
                let phase_gap = (sparse.arg() - dense_im.atan2(dense_re)).abs();
                assert!(phase_gap < 1e-6, "f = {f:.3e} node {k}: phase gap {phase_gap:.3e}");
            }
        }
    }
}

#[test]
fn transient_backends_agree_on_rc_ladder_step() {
    // Backward-Euler steps exercise the capacitor companion stamps in
    // the template; every step must match the dense `Lu` solving the
    // same step's assembled (linear) system. A distributed RC line's
    // delay is ~½·n²·R·C ≈ 50 ns here, so the 200 ns window settles the
    // far end.
    let netlist = rc_ladder(32, 1e3, 1e-13);
    let spec = TransientSpec { dt: 1e-9, t_stop: 2e-7, start_from_dc: false };
    let n = netlist.unknown_count();
    let sparse =
        transient_from_with_options(&netlist, &spec, vec![0.0; n], &NewtonOptions::default())
            .unwrap();
    assert_eq!(sparse.len(), spec.steps() + 1);
    let nodes: Vec<_> = std::iter::once("vin".to_string())
        .chain((0..31).map(|s| format!("l{s}")))
        .chain(std::iter::once("out".to_string()))
        .map(|name| netlist.find_node(&name).expect("ladder node"))
        .collect();
    let mut prev = vec![0.0; n];
    for k in 1..=spec.steps() {
        let ctx =
            StampContext { time: k as f64 * spec.dt, step: Some((spec.dt, &prev)), gmin: 1e-12 };
        let (a, rhs) = assembled(&netlist, &prev, &ctx);
        let dense = a.to_dense().lu().expect("the dense oracle factors").solve(&rhs);
        for &node in &nodes {
            let (s, d) = (sparse.voltage_at(node, k), dense[node.index() - 1]);
            assert!((s - d).abs() < 1e-9, "step {k}: sparse {s} vs dense {d}");
        }
        prev = dense;
    }
    // The ladder must actually charge toward the source.
    let out = nodes[nodes.len() - 1];
    let settled = sparse.voltage_at(out, sparse.len() - 1);
    assert!(settled > 0.5, "ladder end should charge toward 1 V, got {settled}");
}
