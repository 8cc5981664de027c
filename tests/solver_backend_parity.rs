//! Correctness contract of the sparse solver backend: on every analysis
//! (DC, AC, transient), every Jacobian strategy and every circuit size,
//! the sparse backend must land on the same solutions as the dense
//! reference to well within the Newton tolerance — the dense path stays
//! the parity oracle while the sparse path carries the scaling.

use glova_spice::ac::{ac_sweep_with_backend, log_sweep};
use glova_spice::dc::{operating_point_with_options, OpSolver};
use glova_spice::mna::{JacobianStrategy, NewtonOptions, SolverBackend};
use glova_spice::netlist::{inverter_chain, rc_ladder};
use glova_spice::transient::{transient_from_with_options, TransientSpec};

/// Max |dense − sparse| over all unknowns.
fn max_gap(dense: &[f64], sparse: &[f64]) -> f64 {
    dense.iter().zip(sparse).map(|(d, s)| (d - s).abs()).fold(0.0f64, f64::max)
}

#[test]
fn operating_points_match_across_backends_and_strategies() {
    // inv_chain4 sits below the Auto threshold, inv_chain24 above it —
    // both are forced through each backend explicitly, under both the
    // chord default and full Newton.
    for stages in [4, 24] {
        let netlist = inverter_chain(stages);
        let x0 = vec![0.0; netlist.unknown_count()];
        for strategy in [JacobianStrategy::CHORD_DEFAULT, JacobianStrategy::Full] {
            let solve = |backend| {
                let options = NewtonOptions { strategy, backend, ..NewtonOptions::default() };
                operating_point_with_options(&netlist, &x0, &options)
                    .unwrap_or_else(|e| panic!("inv_chain{stages} {backend} {strategy:?}: {e}"))
            };
            let dense = solve(SolverBackend::Dense);
            let sparse = solve(SolverBackend::Sparse);
            let gap = max_gap(dense.raw(), sparse.raw());
            assert!(
                gap < 1e-9,
                "inv_chain{stages} {strategy:?}: dense vs sparse node voltages \
                 diverge by {gap:.3e}"
            );
        }
    }
}

#[test]
fn op_solver_sweep_reuse_is_result_identical() {
    // The persistent OpSolver (symbolic factorization reused across
    // solves) must return the same operating point on every repeat as
    // the one-shot API.
    let netlist = inverter_chain(24);
    let x0 = vec![0.0; netlist.unknown_count()];
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let options = NewtonOptions::default().with_backend(backend);
        let oneshot = operating_point_with_options(&netlist, &x0, &options).unwrap();
        let mut solver = OpSolver::new(netlist.clone(), options);
        assert_eq!(solver.is_sparse(), backend == SolverBackend::Sparse);
        for repeat in 0..3 {
            let swept = solver.solve().unwrap();
            let gap = max_gap(oneshot.raw(), swept.raw());
            assert!(
                gap < 1e-12,
                "{backend} repeat {repeat}: OpSolver drifted from one-shot by {gap:.3e}"
            );
        }
    }
}

#[test]
fn rc_ladder_dc_matches_analytic_and_both_backends() {
    // No DC current flows in the ladder (capacitors are open), so every
    // node must sit at the source voltage — an absolute reference on top
    // of the cross-backend agreement.
    let netlist = rc_ladder(64, 1e3, 1e-12);
    let x0 = vec![0.0; netlist.unknown_count()];
    let mut results = Vec::new();
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let options = NewtonOptions::default().with_backend(backend);
        let op = operating_point_with_options(&netlist, &x0, &options).unwrap();
        let n_nodes = netlist.node_count() - 1;
        for i in 0..n_nodes {
            // The gmin regularization leaks ~1e-12 A per node through up
            // to 64 kΩ of ladder, so "equal" means within a few µV.
            assert!(
                (op.raw()[i] - 1.0).abs() < 1e-4,
                "{backend}: ladder node {i} at {} V, expected 1.0",
                op.raw()[i]
            );
        }
        results.push(op);
    }
    let gap = max_gap(results[0].raw(), results[1].raw());
    assert!(gap < 1e-9, "ladder backends diverge by {gap:.3e}");
}

#[test]
fn large_chain_auto_selects_sparse_and_converges() {
    // 64 stages (68 unknowns) is far past the Auto threshold; the
    // auto-selected backend must agree with forced-sparse bitwise (it
    // *is* the sparse backend) and produce a physically sane chain:
    // railed outputs alternating within the supply.
    let netlist = inverter_chain(64);
    let x0 = vec![0.0; netlist.unknown_count()];
    let auto = operating_point_with_options(&netlist, &x0, &NewtonOptions::default()).unwrap();
    let forced = operating_point_with_options(
        &netlist,
        &x0,
        &NewtonOptions::default().with_backend(SolverBackend::Sparse),
    )
    .unwrap();
    assert_eq!(auto.raw(), forced.raw(), "auto at 68 unknowns must be the sparse backend");
    for v in &auto.raw()[..netlist.node_count() - 1] {
        assert!((-1e-6..=0.9 + 1e-6).contains(v), "node voltage {v} outside the supply");
    }
}

#[test]
fn ac_sweep_backends_agree_on_magnitude_and_phase() {
    // A 24-stage chain AC sweep: complex sparse solves with the pattern
    // reused across the whole sweep vs the dense complex LU.
    let netlist = inverter_chain(24);
    let freqs = log_sweep(1e3, 1e8, 4);
    let out = {
        // Recover the final stage's node id by rebuilding the name.
        let mut nl = inverter_chain(24);
        nl.node("n23")
    };
    let dense = ac_sweep_with_backend(&netlist, "VIN", &freqs, SolverBackend::Dense).unwrap();
    let sparse = ac_sweep_with_backend(&netlist, "VIN", &freqs, SolverBackend::Sparse).unwrap();
    for i in 0..freqs.len() {
        let d = dense.voltage(out, i);
        let s = sparse.voltage(out, i);
        assert!(
            (d - s).abs() < 1e-9 * (1.0 + d.abs()),
            "f = {:.3e}: dense {d:?} vs sparse {s:?}",
            freqs[i]
        );
    }
}

#[test]
fn transient_backends_agree_on_rc_ladder_step() {
    // Backward-Euler steps exercise the capacitor companion stamps in
    // the sparse template; the waveforms must track the dense reference.
    // A distributed RC line's delay is ~½·n²·R·C ≈ 50 ns here, so the
    // 200 ns window settles the far end.
    let netlist = rc_ladder(32, 1e3, 1e-13);
    let spec = TransientSpec { dt: 1e-9, t_stop: 2e-7, start_from_dc: false };
    let n = netlist.unknown_count();
    let run = |backend| {
        transient_from_with_options(
            &netlist,
            &spec,
            vec![0.0; n],
            &NewtonOptions::default().with_backend(backend),
        )
        .unwrap()
    };
    let dense = run(SolverBackend::Dense);
    let sparse = run(SolverBackend::Sparse);
    let out = {
        let mut nl = rc_ladder(32, 1e3, 1e-13);
        nl.node("out")
    };
    assert_eq!(dense.len(), sparse.len());
    for i in 0..dense.len() {
        let (d, s) = (dense.voltage_at(out, i), sparse.voltage_at(out, i));
        assert!((d - s).abs() < 1e-9, "step {i}: dense {d} vs sparse {s}");
    }
    // The ladder must actually charge toward the source.
    let settled = dense.voltage_at(out, dense.len() - 1);
    assert!(settled > 0.5, "ladder end should charge toward 1 V, got {settled}");
}
