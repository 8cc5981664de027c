//! Fixed-step transient analysis (backward Euler).
//!
//! Backward Euler is A-stable and damps the numerical ringing that trips up
//! regenerative circuits (latches); the fixed step keeps simulation cost
//! strictly proportional to `t_stop / dt`, which the GLOVA harness relies on
//! when counting simulation effort.

use crate::dc::operating_point;
use crate::mna::{newton_solve_with_state, MnaState, MnaTemplate, NewtonOptions, StampContext};
use crate::netlist::{Netlist, NodeId};
use crate::SpiceError;

/// Transient-run parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSpec {
    /// Time step, seconds.
    pub dt: f64,
    /// Stop time, seconds.
    pub t_stop: f64,
    /// Start from the DC operating point (`true`) or from all-zeros
    /// (`false`, e.g. when initial conditions are forced by sources).
    pub start_from_dc: bool,
}

impl TransientSpec {
    /// Creates a spec with DC initialization.
    ///
    /// # Panics
    ///
    /// Panics if `dt` or `t_stop` is non-positive, or `dt > t_stop`.
    pub fn new(dt: f64, t_stop: f64) -> Self {
        assert!(dt > 0.0 && t_stop > 0.0, "dt and t_stop must be positive");
        assert!(dt <= t_stop, "dt must not exceed t_stop");
        Self { dt, t_stop, start_from_dc: true }
    }

    /// Number of steps (excluding the initial point).
    pub fn steps(&self) -> usize {
        (self.t_stop / self.dt).round() as usize
    }
}

/// Result of a transient run: time points and the full solution at each.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    times: Vec<f64>,
    solutions: Vec<Vec<f64>>,
    n_nodes: usize,
}

impl TransientResult {
    /// The simulated time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the run stored no points.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage waveform of `node` across all time points.
    pub fn voltage_waveform(&self, node: NodeId) -> Vec<f64> {
        if node.is_ground() {
            return vec![0.0; self.len()];
        }
        self.solutions.iter().map(|s| s[node.index() - 1]).collect()
    }

    /// Branch-current waveform of voltage source `branch`.
    pub fn branch_current_waveform(&self, branch: usize) -> Vec<f64> {
        self.solutions.iter().map(|s| s[self.n_nodes + branch]).collect()
    }

    /// Voltage of `node` at time index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn voltage_at(&self, node: NodeId, idx: usize) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.solutions[idx][node.index() - 1]
        }
    }
}

/// Runs a transient analysis.
///
/// # Errors
///
/// Propagates DC-initialization and per-step Newton failures.
pub fn transient(netlist: &Netlist, spec: &TransientSpec) -> Result<TransientResult, SpiceError> {
    let n = netlist.unknown_count();
    let initial: Vec<f64> =
        if spec.start_from_dc { operating_point(netlist)?.raw().to_vec() } else { vec![0.0; n] };
    transient_from(netlist, spec, initial)
}

/// Runs a transient analysis from an explicit initial solution (e.g. a
/// pre-charged latch state).
///
/// # Errors
///
/// Propagates per-step Newton failures.
///
/// # Panics
///
/// Panics if `initial.len()` differs from the netlist unknown count.
pub fn transient_from(
    netlist: &Netlist,
    spec: &TransientSpec,
    initial: Vec<f64>,
) -> Result<TransientResult, SpiceError> {
    transient_from_with_options(netlist, spec, initial, &NewtonOptions::default())
}

/// [`transient_from`] with explicit Newton controls — e.g. to disable
/// the chord LU reuse.
///
/// The assembly template (netlist walk, CSR pattern, stamp maps) is built
/// once at the first step and re-pointed at each later step with a
/// value-only RHS update ([`MnaState::update_context`]): the backward-Euler
/// companion conductances `C/dt` are constant for a fixed step, so only
/// the companion currents and source waveform values change. The
/// **symbolic factorization is computed once for the whole run** and
/// every step pays numeric-only
/// refactorizations — the same reuse structure DC sweeps have.
///
/// # Errors
///
/// Propagates per-step Newton failures.
///
/// # Panics
///
/// Panics if `initial.len()` differs from the netlist unknown count.
pub fn transient_from_with_options(
    netlist: &Netlist,
    spec: &TransientSpec,
    initial: Vec<f64>,
    options: &NewtonOptions,
) -> Result<TransientResult, SpiceError> {
    assert_eq!(initial.len(), netlist.unknown_count(), "initial state dimension mismatch");
    let steps = spec.steps();
    let mut times = Vec::with_capacity(steps + 1);
    let mut solutions = Vec::with_capacity(steps + 1);
    times.push(0.0);
    solutions.push(initial);

    let mut state: Option<MnaState> = None;
    for k in 1..=steps {
        let t = k as f64 * spec.dt;
        let prev = solutions.last().expect("at least the initial point").clone();
        let ctx = StampContext { time: t, step: Some((spec.dt, &prev)), gmin: 1e-12 };
        let state = match state.as_mut() {
            Some(s) => {
                s.update_context(&ctx);
                s
            }
            None => state.insert(MnaTemplate::new(netlist, netlist.values(), &ctx).into_state()),
        };
        let sol = newton_solve_with_state(state, &prev, ctx.gmin, options)?;
        times.push(t);
        solutions.push(sol);
    }
    Ok(TransientResult { times, solutions, n_nodes: netlist.node_count() - 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MosModel;
    use crate::netlist::{SourceWaveform, GROUND};

    #[test]
    fn rc_charging_matches_analytic() {
        // Step a 1 V source into R = 1 kΩ, C = 1 nF: v(t) = 1 − e^{−t/RC}.
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource_waveform(
            "V1",
            vin,
            GROUND,
            SourceWaveform::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 1.0,
            },
        );
        nl.resistor("R1", vin, out, 1e3);
        nl.capacitor("C1", out, GROUND, 1e-9);
        let spec = TransientSpec { dt: 1e-8, t_stop: 5e-6, start_from_dc: false };
        let result = transient(&nl, &spec).unwrap();
        let tau = 1e3 * 1e-9;
        for (i, &t) in result.times().iter().enumerate() {
            if t < 5.0 * 1e-8 {
                continue; // skip the source edge
            }
            let expect = 1.0 - (-t / tau).exp();
            let got = result.voltage_at(out, i);
            assert!((got - expect).abs() < 0.01, "t={t:.2e}: got {got:.4}, expected {expect:.4}");
        }
        // Fully settled at 5 τ.
        let last = result.voltage_at(out, result.len() - 1);
        assert!((last - 1.0).abs() < 1e-2);
    }

    #[test]
    fn inverter_switches_dynamically() {
        // CMOS inverter driving a load cap; input pulse flips the output.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, GROUND, 0.9);
        nl.vsource_waveform(
            "VIN",
            vin,
            GROUND,
            SourceWaveform::Pulse {
                low: 0.0,
                high: 0.9,
                delay: 1e-9,
                rise: 50e-12,
                fall: 50e-12,
                width: 5e-9,
            },
        );
        nl.mosfet("MP", out, vin, vdd, MosModel::pmos_28nm(), 2.0, 0.05);
        nl.mosfet("MN", out, vin, GROUND, MosModel::nmos_28nm(), 1.0, 0.05);
        nl.capacitor("CL", out, GROUND, 10e-15);
        let spec = TransientSpec::new(20e-12, 4e-9);
        let result = transient(&nl, &spec).unwrap();
        // Before the pulse the output is high; well after the input rises it
        // must be low.
        assert!(result.voltage_at(out, 0) > 0.85);
        let last = result.voltage_at(out, result.len() - 1);
        assert!(last < 0.1, "inverter failed to switch: {last}");
    }

    #[test]
    fn energy_conservation_rc() {
        // Energy delivered by the source into an RC equals C·V²: half stored,
        // half dissipated. Check the source integral ≈ C·V².
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource_waveform(
            "V1",
            vin,
            GROUND,
            SourceWaveform::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 1.0,
            },
        );
        nl.resistor("R1", vin, out, 1e3);
        nl.capacitor("C1", out, GROUND, 1e-9);
        let spec = TransientSpec { dt: 1e-8, t_stop: 10e-6, start_from_dc: false };
        let result = transient(&nl, &spec).unwrap();
        let branch = nl.vsource_branch("V1").unwrap();
        let current = result.branch_current_waveform(branch);
        let voltage = result.voltage_waveform(vin);
        // Source delivers −i·v (branch current flows into plus terminal).
        let mut energy = 0.0;
        for i in 1..result.len() {
            let dt = result.times()[i] - result.times()[i - 1];
            energy += -current[i] * voltage[i] * dt;
        }
        let expect = 1e-9; // C·V² = 1e-9 · 1
        assert!((energy - expect).abs() < 0.05 * expect, "energy {energy:.3e} vs {expect:.3e}");
    }

    #[test]
    fn template_reuse_matches_fresh_assembly_per_step() {
        // The persistent-state path (template built once, value-only RHS
        // update per step) must track a reference that rebuilds the
        // template from the netlist at every step — on a nonlinear
        // circuit where the chord iteration actually carries
        // factorization state across steps.
        use crate::mna::newton_solve;
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, GROUND, 0.9);
        nl.vsource_waveform(
            "VIN",
            vin,
            GROUND,
            SourceWaveform::Pulse {
                low: 0.0,
                high: 0.9,
                delay: 0.2e-9,
                rise: 100e-12,
                fall: 100e-12,
                width: 1e-9,
            },
        );
        nl.mosfet("MP", out, vin, vdd, MosModel::pmos_28nm(), 2.0, 0.05);
        nl.mosfet("MN", out, vin, GROUND, MosModel::nmos_28nm(), 1.0, 0.05);
        nl.capacitor("CL", out, GROUND, 20e-15);
        let spec = TransientSpec { dt: 25e-12, t_stop: 2e-9, start_from_dc: false };
        let options = NewtonOptions::default();
        let reused =
            transient_from_with_options(&nl, &spec, vec![0.0; nl.unknown_count()], &options)
                .unwrap();
        // Fresh-assembly reference: new template and a fresh symbolic
        // analysis every step.
        let mut prev = vec![0.0; nl.unknown_count()];
        for k in 1..=spec.steps() {
            let t = k as f64 * spec.dt;
            let ctx = StampContext { time: t, step: Some((spec.dt, &prev)), gmin: 1e-12 };
            let sol = newton_solve(&nl, &prev, &ctx, &options).unwrap();
            for (r, f) in reused.solutions[k].iter().zip(&sol) {
                assert!((r - f).abs() <= 1e-12, "step {k}: template-reuse {r} vs fresh {f}");
            }
            prev = sol;
        }
    }

    #[test]
    fn steps_counting() {
        let spec = TransientSpec::new(1e-9, 10e-9);
        assert_eq!(spec.steps(), 10);
    }

    #[test]
    #[should_panic(expected = "dt and t_stop must be positive")]
    fn bad_spec_panics() {
        TransientSpec::new(0.0, 1.0);
    }
}
