//! Property tests for the sweep fast paths:
//!
//! - **value-only retarget** (`MnaState::retarget_values`, behind
//!   [`OpSolver::retarget`]) must be bitwise identical to retargeting to a
//!   freshly built template ([`MnaState::retarget`]) across random
//!   device-parameter perturbations — the fast path is an optimization,
//!   never a semantic change;
//! - a **refactor after value perturbations** ([`SparseLu::refactor`]
//!   over the frozen pattern, the compiled elimination schedule) must
//!   agree with the dense LU oracle to ≤ 1e-9 for arbitrary perturbed
//!   value subsets on the inverter-chain and RC-ladder patterns;
//! - **history independence** of the pooled solver's refreshes: a
//!   solver that walked a random retarget+solve sequence must return, on
//!   its last netlist, the same bits as a fresh clone of the primed
//!   prototype retargeted straight to it — on the mixed netlist and a
//!   sparse sense-amp array.
//!
//! The sparse AC sweep's event template is held to the netlist re-walk
//! in the `ac` module's unit tests, next to the re-walk oracle.

use glova_linalg::sparse::{CsrMatrix, SparseLu};
use glova_spice::dc::OpSolver;
use glova_spice::mna::{
    newton_solve_with_state, MnaState, MnaTemplate, NewtonOptions, RetargetOutcome, SolverBackend,
    SparseAssemblyTemplate, StampContext,
};
use glova_spice::model::MosModel;
use glova_spice::netlist::{
    inverter_chain_with_load, rc_ladder, sense_amp_array_with, Netlist, SenseAmpParams, GROUND,
};
use proptest::prelude::*;

/// A mixed DC netlist exercising every stamp kind the DC walk emits
/// (resistors, V/I sources, both MOSFET polarities), parameterized so
/// every device value — including the model cards — moves with `p` while
/// the topology stays fixed.
fn mixed_netlist(p: &[f64]) -> Netlist {
    let scale = |i: usize| 1.0 + 0.4 * p[i % p.len()];
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");
    let vin = nl.node("vin");
    let out = nl.node("out");
    let tail = nl.node("tail");
    nl.vsource("VDD", vdd, GROUND, 0.9 * scale(0).clamp(0.8, 1.2));
    nl.vsource("VIN", vin, GROUND, 0.42 * scale(1));
    nl.resistor("RL", vdd, out, 10e3 * scale(2));
    nl.isource("IB", GROUND, tail, 50e-6 * scale(3));
    nl.resistor("RT", tail, GROUND, 40e3 * scale(4));
    let pmos = MosModel::pmos_28nm().with_mismatch(0.01 * p[5 % p.len()], 0.05 * p[6 % p.len()]);
    let nmos = MosModel::nmos_28nm().with_mismatch(0.01 * p[7 % p.len()], 0.05 * p[0]);
    nl.mosfet("MP", out, vin, vdd, pmos, 2.0 * scale(1), 0.05);
    nl.mosfet("MN", out, vin, tail, nmos, 1.0 * scale(2), 0.05);
    nl
}

/// The DC `gmin` continuation over prebuilt state (each rung starts
/// from the previous rung's solution), returned as solution bits.
fn ladder_bits(state: &mut MnaState, n: usize, options: &NewtonOptions) -> Vec<u64> {
    let mut x = vec![0.0; n];
    for gmin in [1e-3, 1e-5, 1e-7, 1e-9, 1e-12] {
        x = newton_solve_with_state(state, &x, gmin, options).expect("mixed netlist converges");
    }
    x.iter().map(|v| v.to_bits()).collect()
}

/// Retargets `solver` to `nl` and solves, as solution bits.
fn solve_bits(solver: &mut OpSolver, nl: &Netlist) -> Vec<u64> {
    assert_ne!(solver.retarget(nl), RetargetOutcome::Topology, "history shares one topology");
    let op = solver.solve().expect("history netlist converges");
    op.raw().iter().map(|v| v.to_bits()).collect()
}

/// History independence of the pooled solver: a clone of the primed
/// `proto` that retargeted to and solved every netlist of `history` in
/// turn must return, on the last one, the same bits as a fresh clone
/// retargeted straight to it. The two clones reach the last solve
/// through different refresh histories, which must not move a bit.
fn check_history_independence(proto: &OpSolver, history: &[Netlist]) -> Result<(), TestCaseError> {
    let (last, earlier) = history.split_last().expect("non-empty history");
    let mut walked = proto.clone();
    for nl in earlier {
        solve_bits(&mut walked, nl);
    }
    // The property is the pool's: a pool retires any solver that left
    // the canonical pivot order, so the walked one must not have.
    prop_assert_eq!(walked.noncanonical_events(), 0);
    let via_history = solve_bits(&mut walked, last);
    let direct = solve_bits(&mut proto.clone(), last);
    prop_assert_eq!(via_history, direct, "solve history moved the result");
    Ok(())
}

/// A 6×6 sense-amp array with the wordline drive, latch width and cell
/// anchor taken from `v` (each in `0..1`), topology fixed.
fn senseamp(v: (f64, f64, f64)) -> Netlist {
    sense_amp_array_with(
        6,
        6,
        &SenseAmpParams {
            r_wordline: 600.0 + 1000.0 * v.0,
            w_latch_um: 0.35 + 0.35 * v.1,
            r_cell: 50e3 + 150e3 * v.2,
            ..SenseAmpParams::default()
        },
    )
}

proptest! {
    // Value-only retarget == retarget to a rebuilt template, bitwise:
    // same outcome classification, identical assembled systems,
    // identical operating points, on both backends.
    #[test]
    fn prop_value_retarget_matches_rebuild_bitwise(
        base in proptest::collection::vec(-1.0f64..1.0, 8),
        target in proptest::collection::vec(-1.0f64..1.0, 8),
    ) {
        let base_nl = mixed_netlist(&base);
        let target_nl = mixed_netlist(&target);
        prop_assert_eq!(base_nl.topology_fingerprint(), target_nl.topology_fingerprint());
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-3 };
        let n = target_nl.unknown_count();
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let options = NewtonOptions::default().with_backend(backend);
            let mut fast = MnaTemplate::new(&base_nl, &ctx, backend).into_state();
            fast.prime(ctx.gmin).unwrap();
            let mut slow = fast.clone();
            prop_assert!(fast.retarget_values(&target_nl, &ctx));
            prop_assert_eq!(
                slow.retarget(MnaTemplate::new(&target_nl, &ctx, backend)),
                RetargetOutcome::Pattern
            );
            prop_assert_eq!(
                ladder_bits(&mut fast, n, &options),
                ladder_bits(&mut slow, n, &options),
                "{} backend: value retarget vs rebuilt template", backend
            );
            prop_assert_eq!(fast.repivots(), 0);
        }
    }

    // The patched sparse template assembles systems bitwise identical
    // to a freshly built template of the target netlist, at several
    // estimates and gmin values.
    #[test]
    fn prop_patched_template_assembles_identically(
        base in proptest::collection::vec(-1.0f64..1.0, 8),
        target in proptest::collection::vec(-1.0f64..1.0, 8),
        estimate in -0.2f64..1.0,
    ) {
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-9 };
        let mut patched = SparseAssemblyTemplate::new(&mixed_netlist(&base), &ctx);
        let target_nl = mixed_netlist(&target);
        prop_assert!(patched.retarget_values(&target_nl, &ctx));
        let fresh = SparseAssemblyTemplate::new(&target_nl, &ctx);
        let n = fresh.dim();
        let mut a_patched = patched.new_system();
        let mut a_fresh = fresh.new_system();
        let (mut rhs_patched, mut rhs_fresh) = (vec![0.0; n], vec![0.0; n]);
        for gmin in [1e-3, 1e-9] {
            let x = vec![estimate; n];
            patched.assemble_into(&mut a_patched, &mut rhs_patched, &x, gmin);
            fresh.assemble_into(&mut a_fresh, &mut rhs_fresh, &x, gmin);
            for (p, f) in a_patched.values().iter().zip(a_fresh.values()) {
                prop_assert_eq!(p.to_bits(), f.to_bits(), "matrix value {} vs {}", p, f);
            }
            for (p, f) in rhs_patched.iter().zip(&rhs_fresh) {
                prop_assert_eq!(p.to_bits(), f.to_bits(), "rhs value {} vs {}", p, f);
            }
        }
    }

    // A refactor after random value perturbations on the inverter-chain
    // pattern stays ≤ 1e-9 from the dense oracle.
    #[test]
    fn prop_perturbed_refactor_matches_dense_on_inverter_chain(
        mask in proptest::collection::vec(0.0f64..1.0, 12),
        bumps in proptest::collection::vec(0.6f64..1.6, 12),
    ) {
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-3 };
        let template = SparseAssemblyTemplate::new(&inverter_chain_with_load(8, Some(10e3)), &ctx);
        let n = template.dim();
        let mut a = template.new_system();
        let mut rhs = vec![0.0; n];
        template.assemble_into(&mut a, &mut rhs, &vec![0.0; n], 1e-3);
        check_perturbed_refactor(a, &mask, &bumps)?;
    }

    // The same property on the RC-ladder (tridiagonal-plus-border)
    // pattern.
    #[test]
    fn prop_perturbed_refactor_matches_dense_on_rc_ladder(
        mask in proptest::collection::vec(0.0f64..1.0, 12),
        bumps in proptest::collection::vec(0.6f64..1.6, 12),
    ) {
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-6 };
        let template = SparseAssemblyTemplate::new(&rc_ladder(16, 1e3, 1e-12), &ctx);
        let n = template.dim();
        let mut a = template.new_system();
        let mut rhs = vec![0.0; n];
        template.assemble_into(&mut a, &mut rhs, &vec![0.0; n], 1e-6);
        check_perturbed_refactor(a, &mask, &bumps)?;
    }

    // History independence on the mixed netlist: random retarget
    // sequences where only a random subset of device parameters moves
    // per step.
    #[test]
    fn prop_pooled_solver_is_history_independent(
        base in proptest::collection::vec(-1.0f64..1.0, 8),
        steps in proptest::collection::vec(
            (proptest::collection::vec(-1.0f64..1.0, 8), 1u64..256), 3),
    ) {
        let options = NewtonOptions::default().with_backend(SolverBackend::Sparse);
        let proto = OpSolver::primed(&mixed_netlist(&base), options).unwrap();
        let mut cur = base.clone();
        let mut history = Vec::new();
        for (delta, mask) in &steps {
            // The mask picks which parameters (device dirty set) move.
            for (i, d) in delta.iter().enumerate() {
                if *mask & (1u64 << (i % 8)) != 0 {
                    cur[i] = *d;
                }
            }
            history.push(mixed_netlist(&cur));
        }
        check_history_independence(&proto, &history)?;
    }

    // History independence on a sparse sense-amp array with random
    // wordline, latch and cell values — a 2-D pattern.
    #[test]
    fn prop_pooled_solver_is_history_independent_on_senseamp(
        base in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        steps in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 3),
    ) {
        let options = NewtonOptions::default().with_backend(SolverBackend::Sparse);
        let proto = OpSolver::primed(&senseamp(base), options).unwrap();
        let history: Vec<Netlist> = steps.iter().map(|&v| senseamp(v)).collect();
        check_history_independence(&proto, &history)?;
    }
}

/// Shared body: factor `a`, perturb a masked subset of its values, then
/// refactor over the frozen pattern and compare against the dense LU
/// oracle.
fn check_perturbed_refactor(
    a: CsrMatrix<f64>,
    mask: &[f64],
    bumps: &[f64],
) -> Result<(), TestCaseError> {
    let mut lu = SparseLu::factor(&a).unwrap();
    // Random perturbed subset: indices k where mask[k % mask.len()] holds
    // a marker — always including index 0, so some value moves.
    let mut b = a.clone();
    for k in (0..b.nnz()).filter(|&k| k == 0 || (mask[k % mask.len()] > 0.5 && k % 3 == 0)) {
        b.values_mut()[k] *= bumps[k % bumps.len()];
    }
    // A perturbation could in principle collapse a frozen pivot; the
    // refresh then reports it and the solver re-pivots, so only compare
    // solves when the refactor succeeds.
    if lu.refactor(&b).is_err() {
        return Ok(());
    }
    let rhs: Vec<f64> = (0..b.rows()).map(|i| (i as f64 * 0.31).cos()).collect();
    let x = lu.solve(&rhs);
    let x_dense = b.to_dense().lu().unwrap().solve(&rhs);
    for (s, d) in x.iter().zip(&x_dense) {
        prop_assert!((s - d).abs() < 1e-9 * (1.0 + d.abs()), "sparse {} vs dense {}", s, d);
    }
    Ok(())
}

/// The transient-context patch path: capacitor companion stamps and
/// waveform updates flow through `retarget_values` too.
#[test]
fn transient_template_value_retarget_matches_fresh() {
    let build = |r: f64, c: f64, v: f64| {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", vin, GROUND, v);
        nl.resistor("R1", vin, out, r);
        nl.capacitor("C1", out, GROUND, c);
        nl
    };
    let prev = vec![0.1, 0.2, -0.3];
    let ctx = StampContext { time: 2e-9, step: Some((1e-9, &prev)), gmin: 1e-12 };
    let mut patched = SparseAssemblyTemplate::new(&build(1e3, 1e-9, 1.0), &ctx);
    let target = build(2.2e3, 3.3e-10, 0.7);
    assert!(patched.retarget_values(&target, &ctx));
    let fresh = SparseAssemblyTemplate::new(&target, &ctx);
    let n = fresh.dim();
    let (mut ap, mut af) = (patched.new_system(), fresh.new_system());
    let (mut rp, mut rf) = (vec![0.0; n], vec![0.0; n]);
    let x = vec![0.05; n];
    patched.assemble_into(&mut ap, &mut rp, &x, 1e-12);
    fresh.assemble_into(&mut af, &mut rf, &x, 1e-12);
    assert_eq!(ap.values(), af.values());
    assert_eq!(rp, rf);
}

/// A DC-built template must refuse a transient retarget context (the
/// matrix values bake the analysis kind in).
#[test]
#[should_panic(expected = "analysis kind")]
fn value_retarget_rejects_context_kind_change() {
    let nl = inverter_chain_with_load(4, Some(10e3));
    let dc = StampContext { time: 0.0, step: None, gmin: 1e-9 };
    let mut template = SparseAssemblyTemplate::new(&nl, &dc);
    let prev = vec![0.0; template.dim()];
    let transient = StampContext { time: 1e-9, step: Some((1e-9, &prev)), gmin: 1e-9 };
    template.retarget_values(&nl, &transient);
}
