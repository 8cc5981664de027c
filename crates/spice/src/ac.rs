//! Small-signal AC analysis.
//!
//! Linearizes the circuit around its DC operating point (MOSFETs become
//! `g_m`/`g_ds` elements, capacitors become `jωC` admittances) and solves
//! the complex MNA system across a frequency sweep. The excitation is a
//! unit AC source superimposed on one voltage source, so node results are
//! transfer functions relative to it.
//!
//! The sweep solves its points in order. On either backend it walks the
//! topology and its values once into a compiled event template and
//! replays it per frequency point into one reused system — bitwise
//! identical to re-walking the stamp loop, which survives only as the
//! unit tests' oracle. Dense points factor that one matrix in place.

use crate::complex::{Complex, ComplexMatrix};
use crate::dc::{operating_point, OperatingPoint};
use crate::device::{Device, DeviceValue};
use crate::mna::SolverBackend;
use crate::model::MosPolarity;
use crate::netlist::{Netlist, NodeId};
use crate::SpiceError;
use glova_linalg::sparse::{CsrMatrix, SparseLu, Triplets};

/// Result of an AC sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AcResult {
    frequencies: Vec<f64>,
    /// Node voltages point by point: point `idx` occupies
    /// `idx * n_nodes..(idx + 1) * n_nodes`.
    solutions: Vec<Complex>,
    n_nodes: usize,
}

impl AcResult {
    /// The swept frequencies, Hz.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Number of frequency points.
    pub fn len(&self) -> usize {
        self.frequencies.len()
    }

    /// Whether the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.frequencies.is_empty()
    }

    /// Complex node voltage (transfer function vs. the AC source) at
    /// frequency index `idx`.
    pub fn voltage(&self, node: NodeId, idx: usize) -> Complex {
        if node.is_ground() {
            Complex::ZERO
        } else {
            self.solutions[idx * self.n_nodes + node.index() - 1]
        }
    }

    /// Magnitude response of `node` in dB across the sweep.
    pub fn magnitude_db(&self, node: NodeId) -> Vec<f64> {
        (0..self.len()).map(|i| 20.0 * self.voltage(node, i).abs().max(1e-30).log10()).collect()
    }

    /// −3 dB bandwidth of `node` relative to its first-point gain, Hz
    /// (`None` if the response never drops 3 dB within the sweep).
    pub fn bandwidth_3db(&self, node: NodeId) -> Option<f64> {
        let mags = self.magnitude_db(node);
        let reference = *mags.first()?;
        for (i, &m) in mags.iter().enumerate() {
            if m <= reference - 3.0 {
                return Some(self.frequencies[i]);
            }
        }
        None
    }
}

/// Logarithmic frequency sweep: `points_per_decade` points from `f_start`
/// to `f_stop` (inclusive-ish).
///
/// # Panics
///
/// Panics if frequencies are non-positive or inverted, or
/// `points_per_decade == 0`.
pub fn log_sweep(f_start: f64, f_stop: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(f_start > 0.0 && f_stop > f_start, "invalid sweep range");
    assert!(points_per_decade > 0, "need at least one point per decade");
    let decades = (f_stop / f_start).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize + 1;
    (0..n)
        .map(|i| f_start * 10f64.powf(i as f64 / points_per_decade as f64))
        .take_while(|&f| f <= f_stop * 1.0001)
        .collect()
}

/// Runs an AC sweep with a 1 V AC excitation on voltage source
/// `ac_source_name` (all other sources AC-grounded).
///
/// # Errors
///
/// - [`SpiceError::InvalidNetlist`] if the named source does not exist.
/// - DC or complex-solve failures propagate as their respective errors.
pub fn ac_sweep(
    netlist: &Netlist,
    ac_source_name: &str,
    frequencies: &[f64],
) -> Result<AcResult, SpiceError> {
    ac_sweep_with_backend(netlist, ac_source_name, frequencies, SolverBackend::Auto)
}

/// [`ac_sweep`] with an explicit [`SolverBackend`].
///
/// The small-signal pattern is frequency-independent (only the `jωC`
/// values change), so on the sparse backend the Markowitz pivot order and
/// fill pattern are computed once and every point pays a numeric-only
/// complex refactorization — the same symbolic reuse the DC path gets
/// across Newton iterations.
///
/// # Errors
///
/// See [`ac_sweep`].
pub fn ac_sweep_with_backend(
    netlist: &Netlist,
    ac_source_name: &str,
    frequencies: &[f64],
    backend: SolverBackend,
) -> Result<AcResult, SpiceError> {
    let op = operating_point(netlist)?;
    ac_sweep_with_backend_from_op(
        netlist,
        netlist.values(),
        op,
        ac_source_name,
        frequencies,
        backend,
    )
}

/// [`ac_sweep_with_backend`] over `topology` with device values
/// `values` (pass `netlist.values()` for a netlist's own), linearized
/// around a caller-provided DC operating point — for circuits that
/// already solved DC through a pooled solver (power metrics) and
/// linearize around that same solution for AC metrics, skipping the
/// second Newton solve and any netlist build per evaluation.
///
/// # Errors
///
/// See [`ac_sweep`] (minus the DC-solve failures).
///
/// # Panics
///
/// Panics unless `topology` [accepts](Netlist::accepts) `values`.
pub fn ac_sweep_with_backend_from_op(
    topology: &Netlist,
    values: &[DeviceValue],
    op: OperatingPoint,
    ac_source_name: &str,
    frequencies: &[f64],
    backend: SolverBackend,
) -> Result<AcResult, SpiceError> {
    AcSweep::new(topology, values, &op, ac_source_name, frequencies, backend)?.run(frequencies)
}

/// One compiled small-signal stamp event: the value added to value slot
/// `slot` (packed CSR position, or row-major dense position) at angular
/// frequency ω is `re + j·ω·c`. Every stamp the
/// linearized system produces is purely real (conductances, source
/// couplings) or purely ω-proportional imaginary (capacitive
/// admittances), so this two-scalar form loses nothing — and because
/// IEEE-754 multiplication is sign-magnitude exact, `ω·(−c)` is bitwise
/// `−(ω·c)`, making the replayed value bitwise identical to the one the
/// full stamp walk computes.
#[derive(Debug, Clone, Copy)]
struct AcEvent {
    slot: u32,
    re: f64,
    c: f64,
}

/// The per-point system a sweep solves on, its values rewritten for
/// every point: a dense matrix factored in place, or the CSR system with
/// a complex [`SparseLu`] cloned from the sweep's primed prototype, so
/// every sparse point refactors over the same canonical symbolic
/// analysis.
// One worker (plus the prototype) exists per sweep, so the variant size
// imbalance costs nothing — boxing would only add an indirection to the
// per-point path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum AcWorker {
    Dense(ComplexMatrix),
    Sparse { system: CsrMatrix<Complex>, lu: SparseLu<Complex> },
}

impl AcWorker {
    /// The value array the compiled events address.
    fn values_mut(&mut self) -> &mut [Complex] {
        match self {
            AcWorker::Dense(a) => a.values_mut(),
            AcWorker::Sparse { system, .. } => system.values_mut(),
        }
    }
}

/// One AC sweep, solved point by point in frequency order.
///
/// The stamp walk runs once, at construction, into the compiled event
/// template; on the sparse backend the primed [`SparseLu`] prototype is
/// built there too. Each point then rewrites the worker's value array in
/// place and solves: a dense point factors the one reused matrix in
/// place, a sparse point runs a numeric-only complex refactorization.
///
/// # Determinism
///
/// A point's solution is a pure function of `(topology, values,
/// operating point, frequency)` plus, on the sparse backend, the
/// canonical symbolic analysis: every stored value is rewritten before
/// factoring, so no per-point state leaks between points, and a sparse
/// point whose refactor had to fall back to a fresh factorization (still
/// a pure function of the point) hands the next point a fresh clone of
/// the prototype.
struct AcSweep {
    n_nodes: usize,
    /// The unit excitation: 1 on the AC source's branch row.
    excitation: Vec<Complex>,
    /// Compiled value-retarget template: the stamp walk flattened into
    /// `(slot, re, c)` events replayed per point without touching the
    /// topology.
    events: Vec<AcEvent>,
    /// The worker every run starts from (the primed prototype on the
    /// sparse backend); `None` for an empty sweep.
    proto: Option<AcWorker>,
}

impl AcSweep {
    /// Builds the sweep over a solved operating point: resolves the AC
    /// source, compiles the event template and (sparse backend, non-empty
    /// sweep) primes the prototype at the sweep's first frequency.
    ///
    /// # Errors
    ///
    /// - [`SpiceError::InvalidNetlist`] if the named source is missing.
    /// - A structurally singular small-signal system surfaces as
    ///   [`SpiceError::SingularMatrix`] at priming time on the sparse
    ///   backend.
    fn new(
        topology: &Netlist,
        values: &[DeviceValue],
        op: &OperatingPoint,
        ac_source_name: &str,
        frequencies: &[f64],
        backend: SolverBackend,
    ) -> Result<Self, SpiceError> {
        assert!(topology.accepts(values), "device values do not fit the topology");
        let ac_branch =
            topology.vsource_branch(ac_source_name).ok_or_else(|| SpiceError::InvalidNetlist {
                reason: format!("no voltage source named {ac_source_name}"),
            })?;
        let n_nodes = topology.node_count() - 1;
        let n = topology.unknown_count();
        let mut excitation = vec![Complex::ZERO; n];
        excitation[n_nodes + ac_branch] = Complex::ONE;
        let Some(&f_first) = frequencies.first() else {
            return Ok(Self { n_nodes, excitation, events: Vec::new(), proto: None });
        };
        // The stamp pattern is frequency-invariant (only the jωC values
        // change) and the device walk is deterministic, so the stamp
        // walk is run exactly once here, in `(re, c)` parts form: it
        // yields the compiled event template every point replays.
        let mut parts: Vec<(usize, usize, f64, f64)> = Vec::new();
        stamp_ac_parts(topology, values, op, &mut |i, j, re, c| parts.push((i, j, re, c)));
        let event = |slot: usize, re: f64, c: f64| AcEvent {
            slot: u32::try_from(slot).expect("AC value slot fits the event"),
            re,
            c,
        };
        let (events, proto) = if backend.resolves_to_sparse(n) {
            // The CSR pattern comes from the same walk; the symbolic
            // analysis is primed at the first sweep frequency.
            let omega = 2.0 * std::f64::consts::PI * f_first;
            let mut t = Triplets::new(n, n);
            for &(i, j, re, c) in &parts {
                t.push(i, j, Complex::new(re, omega * c));
            }
            let system = t.to_csr();
            let events = parts
                .iter()
                .map(|&(i, j, re, c)| {
                    event(system.value_index(i, j).expect("pushed entry is in the pattern"), re, c)
                })
                .collect();
            let lu = SparseLu::factor(&system).map_err(|_| SpiceError::SingularMatrix)?;
            (events, AcWorker::Sparse { system, lu })
        } else {
            let events = parts.iter().map(|&(i, j, re, c)| event(i * n + j, re, c)).collect();
            (events, AcWorker::Dense(ComplexMatrix::zeros(n)))
        };
        Ok(Self { n_nodes, excitation, events, proto: Some(proto) })
    }

    /// Solves every point in order on one worker. Sparse points run on a
    /// clone of the primed prototype, never on the prototype itself, so
    /// that a point whose refactor re-pivots can hand the next point a
    /// fresh clone.
    fn run(&self, frequencies: &[f64]) -> Result<AcResult, SpiceError> {
        let mut solutions = Vec::with_capacity(frequencies.len() * self.n_nodes);
        if let Some(proto) = &self.proto {
            let mut worker = proto.clone();
            let mut x = Vec::with_capacity(self.excitation.len());
            for &freq in frequencies {
                self.solve_point(&mut worker, freq, &mut x)?;
                solutions.extend_from_slice(&x[..self.n_nodes]);
            }
        }
        Ok(AcResult { frequencies: frequencies.to_vec(), solutions, n_nodes: self.n_nodes })
    }

    /// Solves the point at `freq_hz` into `x` (every unknown): the
    /// worker's values come from the compiled event template
    /// (value-only retargeting) — no netlist walk per point, yet bitwise
    /// identical to re-walking the netlist's stamp loop (the unit tests
    /// hold that parity against the walk on both backends).
    fn solve_point(
        &self,
        w: &mut AcWorker,
        freq_hz: f64,
        x: &mut Vec<Complex>,
    ) -> Result<(), SpiceError> {
        let omega = 2.0 * std::f64::consts::PI * freq_hz;
        // Rewrite every stored value for this point — no state carries
        // over from the point the worker solved last.
        let values = w.values_mut();
        values.fill(Complex::ZERO);
        for ev in &self.events {
            values[ev.slot as usize] += Complex::new(ev.re, omega * ev.c);
        }
        self.solve_worker(w, x)
    }

    /// Factors and solves a worker whose system holds the point's
    /// values. A dense matrix is factored in place. A sparse worker
    /// refreshes numerically over the canonical symbolic analysis; a
    /// pivot that collapsed at this frequency falls back to a fresh
    /// factorization (pure per point), after which the worker is
    /// replaced by a fresh prototype clone.
    fn solve_worker(&self, w: &mut AcWorker, x: &mut Vec<Complex>) -> Result<(), SpiceError> {
        let repivoted = match w {
            AcWorker::Dense(a) => {
                return a
                    .solve_in_place(&self.excitation, x)
                    .map_err(|_| SpiceError::SingularMatrix)
            }
            AcWorker::Sparse { system, lu } => {
                let repivoted = lu.refactor(system).is_err();
                if repivoted {
                    *lu = SparseLu::factor(system).map_err(|_| SpiceError::SingularMatrix)?;
                }
                lu.solve_into(&self.excitation, x);
                repivoted
            }
        };
        if repivoted {
            *w = self.proto.clone().expect("a non-empty sweep has a prototype");
        }
        Ok(())
    }
}

/// Stamps the linearized (small-signal) system at angular frequency ω
/// into an `(i, j, value)` sink — the per-point re-walk the compiled
/// event template replaced, kept as the unit tests' oracle.
///
/// A thin wrapper over [`stamp_ac_parts`]: every small-signal stamp is
/// purely real or purely ω-proportional imaginary, and IEEE-754
/// multiplication is sign-magnitude exact, so reconstructing
/// `re + j·ω·c` here is bitwise identical to computing each stamp
/// directly at ω.
#[cfg(test)]
fn stamp_ac(
    topology: &Netlist,
    values: &[DeviceValue],
    op: &OperatingPoint,
    omega: f64,
    add: &mut impl FnMut(usize, usize, Complex),
) {
    stamp_ac_parts(topology, values, op, &mut |i, j, re, c| add(i, j, Complex::new(re, omega * c)));
}

/// The frequency-independent decomposition of the small-signal stamp
/// walk over `topology`'s connectivity and `values` (checked by the
/// caller): each emitted `(i, j, re, c)` contributes `re + j·ω·c` at
/// angular frequency ω. Run once per sweep, this walk yields the compiled
/// event template [`AcSweep`] replays per point; signed zeros in
/// the `re`/`c` parts are chosen so the reconstruction matches the
/// direct stamps (which negate whole [`Complex`] values) bitwise.
fn stamp_ac_parts(
    topology: &Netlist,
    values: &[DeviceValue],
    op: &OperatingPoint,
    add: &mut impl FnMut(usize, usize, f64, f64),
) {
    let n_nodes = topology.node_count() - 1;
    let idx = |node: NodeId| -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    };
    // Small gmin keeps floating nodes solvable.
    for i in 0..n_nodes {
        add(i, i, 1e-12, 0.0);
    }

    let mut stamp = |i: Option<usize>, j: Option<usize>, re: f64, c: f64| {
        if let (Some(i), Some(j)) = (i, j) {
            add(i, j, re, c);
        }
    };

    for (device, value) in topology.devices().iter().zip(values) {
        match (device, *value) {
            (Device::Resistor { a: na, b: nb, .. }, DeviceValue::Resistor { ohms }) => {
                let g = 1.0 / ohms;
                let (i, j) = (idx(*na), idx(*nb));
                stamp(i, i, g, 0.0);
                stamp(j, j, g, 0.0);
                stamp(i, j, -g, -0.0);
                stamp(j, i, -g, -0.0);
            }
            (Device::Capacitor { a: na, b: nb, .. }, DeviceValue::Capacitor { farads }) => {
                let (i, j) = (idx(*na), idx(*nb));
                stamp(i, j, -0.0, -farads);
                stamp(j, i, -0.0, -farads);
                stamp(i, i, 0.0, farads);
                stamp(j, j, 0.0, farads);
            }
            (Device::Vsource { plus, minus, branch, .. }, DeviceValue::Vsource { .. }) => {
                let k = Some(n_nodes + branch);
                let (p, m) = (idx(*plus), idx(*minus));
                stamp(p, k, 1.0, 0.0);
                stamp(m, k, -1.0, -0.0);
                stamp(k, p, 1.0, 0.0);
                stamp(k, m, -1.0, -0.0);
                // RHS handled by the caller (AC source selection).
            }
            (Device::Isource { .. }, DeviceValue::Isource { .. }) => {
                // Independent current sources are AC-open.
            }
            (
                Device::Mosfet { drain, gate, source, .. },
                DeviceValue::Mosfet { model, w_um, l_um },
            ) => {
                // Small-signal conductances at the DC operating point, in
                // the same carrier-space formulation as the DC stamps.
                let p = match model.polarity {
                    MosPolarity::Nmos => 1.0,
                    MosPolarity::Pmos => -1.0,
                };
                let v = |n: NodeId| -> f64 { op.voltage(n) };
                let wd = p * v(*drain);
                let wg = p * v(*gate);
                let ws = p * v(*source);
                let (nd, ns, wdd, wss) =
                    if wd >= ws { (*drain, *source, wd, ws) } else { (*source, *drain, ws, wd) };
                let ratio = w_um / l_um;
                let (_, gm0, gds0) = model.ids(wg - wss, wdd - wss);
                let gm = gm0 * ratio;
                let gds = gds0 * ratio;
                let (d, s, g) = (idx(nd), idx(ns), idx(*gate));
                stamp(d, g, gm, 0.0);
                stamp(d, d, gds, 0.0);
                stamp(d, s, -(gm + gds), -0.0);
                stamp(s, g, -gm, -0.0);
                stamp(s, d, -gds, -0.0);
                stamp(s, s, gm + gds, 0.0);
                // Gate capacitance loads the driving node.
                stamp(g, g, 0.0, crate::model_gate_cap(w_um, l_um));
            }
            (device, _) => unreachable!("device {} holds a value of another kind", device.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MosModel;
    use crate::netlist::GROUND;

    #[test]
    fn rc_lowpass_pole_at_expected_frequency() {
        // R = 1 kΩ, C = 159.15 pF → f_3dB ≈ 1 MHz.
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("VIN", vin, GROUND, 0.0);
        nl.resistor("R1", vin, out, 1e3);
        nl.capacitor("C1", out, GROUND, 159.15e-12);
        let freqs = log_sweep(1e3, 1e8, 20);
        let ac = ac_sweep(&nl, "VIN", &freqs).unwrap();
        let bw = ac.bandwidth_3db(out).expect("pole inside sweep");
        assert!((bw / 1e6 - 1.0).abs() < 0.15, "RC pole at {bw:.3e} Hz, expected ~1 MHz");
        // DC gain ≈ 0 dB.
        assert!(ac.magnitude_db(out)[0].abs() < 0.1);
        // Phase approaches −90° well past the pole.
        let last = ac.voltage(out, ac.len() - 1);
        assert!(last.arg().to_degrees() < -80.0);
    }

    #[test]
    fn rc_highpass_blocks_dc() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("VIN", vin, GROUND, 0.0);
        nl.capacitor("C1", vin, out, 1e-9);
        nl.resistor("R1", out, GROUND, 1e3);
        let freqs = log_sweep(1e2, 1e9, 10);
        let ac = ac_sweep(&nl, "VIN", &freqs).unwrap();
        let mags = ac.magnitude_db(out);
        assert!(mags[0] < -20.0, "low-frequency gain should be tiny: {}", mags[0]);
        assert!(mags[mags.len() - 1] > -1.0, "high-frequency gain should be ~0 dB");
    }

    #[test]
    fn common_source_amplifier_has_gain_and_rolls_off() {
        // Resistor-loaded common-source stage biased in saturation:
        // |A_v| = gm·(RL ∥ ro) at low frequency, rolling off with CL.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, GROUND, 0.9);
        nl.vsource("VIN", vin, GROUND, 0.5);
        nl.resistor("RL", vdd, out, 20e3);
        nl.mosfet("M1", out, vin, GROUND, MosModel::nmos_28nm(), 2.0, 0.2);
        nl.capacitor("CL", out, GROUND, 1e-12);
        let freqs = log_sweep(1e3, 1e10, 10);
        let ac = ac_sweep(&nl, "VIN", &freqs).unwrap();
        let mags = ac.magnitude_db(out);
        assert!(mags[0] > 6.0, "expected low-frequency voltage gain, got {} dB", mags[0]);
        let bw = ac.bandwidth_3db(out).expect("rolloff inside sweep");
        assert!(bw > 1e5 && bw < 1e9, "bandwidth {bw:.3e}");
        // Inverting stage: output phase ≈ 180° at low frequency.
        let phase0 = ac.voltage(out, 0).arg().to_degrees().abs();
        assert!((phase0 - 180.0).abs() < 15.0, "phase {phase0}");
    }

    #[test]
    fn sparse_backend_matches_dense_across_sweep() {
        // Common-source stage: MOSFET small-signal stamps, gate caps and
        // load caps all present; sparse (with its pattern reused across
        // the sweep) must track dense to solver precision everywhere.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, GROUND, 0.9);
        nl.vsource("VIN", vin, GROUND, 0.5);
        nl.resistor("RL", vdd, out, 20e3);
        nl.mosfet("M1", out, vin, GROUND, MosModel::nmos_28nm(), 2.0, 0.2);
        nl.capacitor("CL", out, GROUND, 1e-12);
        let freqs = log_sweep(1e3, 1e9, 5);
        let dense =
            ac_sweep_with_backend(&nl, "VIN", &freqs, crate::mna::SolverBackend::Dense).unwrap();
        let sparse =
            ac_sweep_with_backend(&nl, "VIN", &freqs, crate::mna::SolverBackend::Sparse).unwrap();
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
    fn unknown_source_is_an_error() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, GROUND, 1.0);
        nl.resistor("R", a, GROUND, 1e3);
        assert!(matches!(ac_sweep(&nl, "NOPE", &[1e3]), Err(SpiceError::InvalidNetlist { .. })));
    }

    #[test]
    fn log_sweep_is_logarithmic() {
        let f = log_sweep(1e3, 1e6, 1);
        assert_eq!(f.len(), 4);
        assert!((f[1] / f[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid sweep range")]
    fn inverted_sweep_panics() {
        log_sweep(1e6, 1e3, 10);
    }

    /// A mixed netlist exercising every AC stamp kind (resistor
    /// conductances, source branch rows, both MOSFET polarities' gm/gds
    /// and gate caps), every device value moving with `p` while the
    /// topology stays fixed.
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
        let pmos =
            MosModel::pmos_28nm().with_mismatch(0.01 * p[5 % p.len()], 0.05 * p[6 % p.len()]);
        let nmos = MosModel::nmos_28nm().with_mismatch(0.01 * p[7 % p.len()], 0.05 * p[0]);
        nl.mosfet("MP", out, vin, vdd, pmos, 2.0 * scale(1), 0.05);
        nl.mosfet("MN", out, vin, tail, nmos, 1.0 * scale(2), 0.05);
        nl
    }

    fn point_bits(x: &[Complex]) -> Vec<(u64, u64)> {
        x.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
    }

    /// A sweep over `nl` on `backend`, its operating point, and a clone
    /// of its starting worker to solve points on.
    fn sweep_on(
        nl: &Netlist,
        source: &str,
        freqs: &[f64],
        backend: SolverBackend,
    ) -> (AcSweep, OperatingPoint, AcWorker) {
        let op = operating_point(nl).unwrap();
        let sweep = AcSweep::new(nl, nl.values(), &op, source, freqs, backend).unwrap();
        let worker = sweep.proto.clone().expect("a non-empty sweep has a worker");
        (sweep, op, worker)
    }

    /// The node voltages of one point solved through the event template.
    fn solve_fast(sweep: &AcSweep, w: &mut AcWorker, freq_hz: f64) -> Vec<Complex> {
        let mut x = Vec::new();
        sweep.solve_point(w, freq_hz, &mut x).unwrap();
        x.truncate(sweep.n_nodes);
        x
    }

    /// The per-point re-walk the event template replaced, on the
    /// worker's backend — the parity oracle the template is tested
    /// against. Sparse: the stamp loop re-walked into the worker's CSR
    /// values (same slots, same addends, same order). Dense: a fresh
    /// matrix built by the walk and solved by the consuming index-based
    /// solve.
    fn solve_rewalk(
        sweep: &AcSweep,
        nl: &Netlist,
        op: &OperatingPoint,
        w: &mut AcWorker,
        freq_hz: f64,
    ) -> Vec<Complex> {
        let omega = 2.0 * std::f64::consts::PI * freq_hz;
        let mut x = match w {
            AcWorker::Dense(_) => {
                let mut a = ComplexMatrix::zeros(sweep.excitation.len());
                stamp_ac(nl, nl.values(), op, omega, &mut |i, j, v| a.add_at(i, j, v));
                a.solve(&sweep.excitation).unwrap()
            }
            AcWorker::Sparse { system, .. } => {
                system.values_mut().fill(Complex::ZERO);
                stamp_ac(nl, nl.values(), op, omega, &mut |i, j, v| {
                    let slot = system.value_index(i, j).expect("stamp slot in the pattern");
                    system.values_mut()[slot] += v;
                });
                let mut x = Vec::new();
                sweep.solve_worker(w, &mut x).unwrap();
                x
            }
        };
        x.truncate(sweep.n_nodes);
        x
    }

    proptest::proptest! {
        // Event-template replay == per-point netlist re-walk, bitwise,
        // across random device parameters on both backends.
        #[test]
        fn prop_ac_retarget_matches_rebuild_bitwise(
            p in proptest::collection::vec(-1.0f64..1.0, 8),
        ) {
            let nl = mixed_netlist(&p);
            let freqs = log_sweep(1e3, 1e9, 2);
            for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
                let (sweep, op, mut w) = sweep_on(&nl, "VIN", &freqs, backend);
                for &f in &freqs {
                    let fast = solve_fast(&sweep, &mut w, f);
                    let slow = solve_rewalk(&sweep, &nl, &op, &mut w, f);
                    proptest::prop_assert_eq!(
                        point_bits(&fast), point_bits(&slow), "{} template vs re-walk @ {} Hz", backend, f
                    );
                }
            }
        }
    }

    #[test]
    fn event_template_matches_rewalk_on_ota() {
        // The OTA has 10 unknowns — dense under `Auto`; forcing sparse
        // exercises the other backend's template. Each point also
        // re-solves to the same bits and matches the whole sweep.
        let nl = crate::netlist::ota_two_stage(&crate::netlist::OtaParams::nominal());
        let freqs = log_sweep(1e3, 1e9, 3);
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let (sweep, op, mut w) = sweep_on(&nl, "VINP", &freqs, backend);
            let swept = sweep.run(&freqs).unwrap();
            let n_nodes = sweep.n_nodes;
            for (i, &f) in freqs.iter().enumerate() {
                let fast = solve_fast(&sweep, &mut w, f);
                let again = solve_fast(&sweep, &mut w, f);
                let slow = solve_rewalk(&sweep, &nl, &op, &mut w, f);
                let point = &swept.solutions[i * n_nodes..(i + 1) * n_nodes];
                assert_eq!(point_bits(&fast), point_bits(&slow), "{backend} vs re-walk @ {f} Hz");
                assert_eq!(point_bits(&fast), point_bits(&again), "{backend} re-solve @ {f} Hz");
                assert_eq!(point_bits(&fast), point_bits(point), "{backend} sweep @ {f} Hz");
            }
        }
    }

    #[test]
    fn refactor_fallback_hands_the_next_point_a_fresh_prototype() {
        // A factor of another pattern cannot be refactored over the
        // point's system, so the first point solved falls back to a
        // fresh factorization.
        let nl = crate::netlist::ota_two_stage(&crate::netlist::OtaParams::nominal());
        let freqs = log_sweep(1e3, 1e9, 3);
        let (sweep, _, mut w) = sweep_on(&nl, "VINP", &freqs, SolverBackend::Sparse);
        let n = sweep.excitation.len();
        let mut identity = Triplets::new(n, n);
        for i in 0..n {
            identity.push(i, i, Complex::ONE);
        }
        let AcWorker::Sparse { lu, .. } = &mut w else { panic!("sparse sweep") };
        *lu = SparseLu::factor(&identity.to_csr()).unwrap();
        let alone = |f: f64| solve_fast(&sweep, &mut sweep.proto.clone().unwrap(), f);
        // At the top frequency the fresh factorization pivots away from
        // the prototype's order: other bits, the same values.
        let top = *freqs.last().unwrap();
        let (fallback, canonical) = (solve_fast(&sweep, &mut w, top), alone(top));
        assert_ne!(point_bits(&fallback), point_bits(&canonical));
        for (a, b) in fallback.iter().zip(&canonical) {
            assert!((*a - *b).abs() <= 1e-9 * (1.0 + b.abs()), "{a:?} vs {b:?}");
        }
        // Every later point runs on a fresh prototype clone again.
        for &f in &freqs {
            assert_eq!(point_bits(&solve_fast(&sweep, &mut w, f)), point_bits(&alone(f)));
        }
    }

    /// Digests of [`golden_solver_digest`], recorded while the AC sweep
    /// ran on a thread-safe solver pool and the Newton loop carried a
    /// warm-start flag; the code that replaced both must reproduce them.
    const GOLDEN_AC: u64 = 0xb103_1b8b_8ecd_72c6;
    const GOLDEN_DC: u64 = 0xb2d7_a7c2_8b60_f0f0;

    /// Every output bit of AC sweeps on both entry points and every
    /// backend, and of DC operating points with their Newton iteration
    /// counts under four option sets. No workload reaches the sparse AC
    /// path (the OTA resolves to dense), so this is its bit-level guard.
    #[test]
    fn golden_solver_digest() {
        use crate::dc::OpSolver;
        use crate::mna::NewtonOptions;
        use crate::netlist::{
            inverter_chain, ota_two_stage, rc_ladder, sense_amp_array, OtaParams,
        };
        use glova_stats::hash::Fnv1a;

        fn absorb(digest: &mut Fnv1a, ac: &AcResult) {
            digest.write_f64_slice(&ac.frequencies);
            for v in &ac.solutions {
                digest.write_f64(v.re);
                digest.write_f64(v.im);
            }
        }

        let freqs = log_sweep(1e3, 1e9, 7);
        let backends = [SolverBackend::Dense, SolverBackend::Sparse, SolverBackend::Auto];
        let nominal = OtaParams::nominal();
        let sizings = [
            nominal,
            OtaParams { w_in_um: 4.0, itail_ua: 40.0, ..nominal },
            OtaParams { w_mir_um: 3.0, w_out_um: 12.0, ..nominal },
            OtaParams { l_um: 0.2, cc_ff: 400.0, ..nominal },
            OtaParams { rl_kohm: 20.0, cl_ff: 1000.0, ..nominal },
            OtaParams { w_in_um: 1.0, w_out_um: 3.0, itail_ua: 10.0, vcm: 0.5, ..nominal },
        ];
        let mut ac = Fnv1a::new();
        for p in &sizings {
            let nl = ota_two_stage(p);
            for backend in backends {
                absorb(&mut ac, &ac_sweep_with_backend(&nl, "VINP", &freqs, backend).unwrap());
                let op = OpSolver::new(nl.clone(), NewtonOptions::default().with_backend(backend))
                    .solve()
                    .unwrap();
                let swept =
                    ac_sweep_with_backend_from_op(&nl, nl.values(), op, "VINP", &freqs, backend);
                absorb(&mut ac, &swept.unwrap());
            }
        }
        let ladder = rc_ladder(40, 1e3, 1e-12);
        for backend in backends {
            absorb(&mut ac, &ac_sweep_with_backend(&ladder, "VIN", &freqs, backend).unwrap());
        }

        let mut dc = Fnv1a::new();
        let circuits =
            [inverter_chain(4), inverter_chain(24), sense_amp_array(5, 4), ota_two_stage(&nominal)];
        let options = [
            NewtonOptions::default(),
            NewtonOptions::default().with_backend(SolverBackend::Sparse),
            NewtonOptions::default().with_backend(SolverBackend::Dense),
            NewtonOptions::full_newton(),
        ];
        for nl in &circuits {
            for o in options {
                let mut solver = OpSolver::new(nl.clone(), o);
                dc.write_f64_slice(solver.solve().unwrap().raw());
                dc.write_u64(solver.newton_iterations());
            }
        }
        assert_eq!(
            (ac.finish(), dc.finish()),
            (GOLDEN_AC, GOLDEN_DC),
            "digests {:016x} {:016x}",
            ac.finish(),
            dc.finish()
        );
    }
}
