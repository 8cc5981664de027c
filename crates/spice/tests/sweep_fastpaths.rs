//! Property tests for the sweep fast paths:
//!
//! - a **refactor after value perturbations** ([`SparseLu::refactor`]
//!   over the frozen pattern, the compiled elimination schedule) must
//!   agree with the dense LU oracle to ≤ 1e-9 for arbitrary perturbed
//!   value subsets on the inverter-chain and RC-ladder patterns;
//! - **history independence** of the pooled solver's refreshes: a
//!   solver that walked a random retarget+solve sequence must return, on
//!   its last value slice, the same bits as a fresh clone of the primed
//!   prototype retargeted straight to it — on the mixed netlist and a
//!   sparse sense-amp array.
//!
//! The in-place value write itself ([`OpSolver::retarget_values`]) is
//! held to a freshly built template in the `mna` module's unit tests,
//! and the sparse AC sweep's event template to the netlist re-walk in
//! the `ac` module's.

use glova_linalg::sparse::{CsrMatrix, SparseLu};
use glova_spice::dc::OpSolver;
use glova_spice::mna::{MnaTemplate, NewtonOptions, StampContext};
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

/// Retargets `solver` at `nl`'s device values and solves, as solution
/// bits.
fn solve_bits(solver: &mut OpSolver, nl: &Netlist) -> Vec<u64> {
    solver.retarget_values(nl.values());
    let op = solver.solve().expect("history netlist converges");
    op.raw().iter().map(|v| v.to_bits()).collect()
}

/// History independence of the pooled solver: a clone of the primed
/// `proto` that retargeted at and solved the values of every netlist of
/// `history` in turn must return, on the last one, the same bits as a
/// fresh clone retargeted straight to it. The two clones reach the last solve
/// through different refresh histories, which must not move a bit.
fn check_history_independence(proto: &OpSolver, history: &[Netlist]) -> Result<(), TestCaseError> {
    let (last, earlier) = history.split_last().expect("non-empty history");
    let mut walked = proto.clone();
    for nl in earlier {
        solve_bits(&mut walked, nl);
    }
    // The property is the pool's: a pool retires any solver that left
    // the canonical pivot order, so the walked one must not have.
    prop_assert_eq!(walked.repivots(), 0);
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
    // A refactor after random value perturbations on the inverter-chain
    // pattern stays ≤ 1e-9 from the dense oracle.
    #[test]
    fn prop_perturbed_refactor_matches_dense_on_inverter_chain(
        mask in proptest::collection::vec(0.0f64..1.0, 12),
        bumps in proptest::collection::vec(0.6f64..1.6, 12),
    ) {
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-3 };
        let nl = inverter_chain_with_load(8, Some(10e3));
        let template = MnaTemplate::new(&nl, nl.values(), &ctx);
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
        let nl = rc_ladder(16, 1e3, 1e-12);
        let template = MnaTemplate::new(&nl, nl.values(), &ctx);
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
        let options = NewtonOptions::default();
        let proto = OpSolver::primed(mixed_netlist(&base), options).unwrap();
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
        let options = NewtonOptions::default();
        let proto = OpSolver::primed(senseamp(base), options).unwrap();
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
