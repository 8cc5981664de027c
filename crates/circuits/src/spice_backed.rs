//! The SPICE-backed testcases: every evaluation solves a real netlist.
//!
//! The three paper testcases ([`StrongArmLatch`](crate::StrongArmLatch)
//! etc.) are physics-based *analytic* models layered over the 28 nm
//! device cards — fast, but they never exercise the MNA solver stack.
//! [`SpiceInverterChain`], [`SpiceOta`] and [`SpiceSenseAmpArray`] close
//! that gap. Each builds its topology once, at construction, from the
//! `glova_spice::netlist` generator that defines it, and resolves there
//! the node and branch ids its metrics read. Each `evaluate` then only
//! writes the point's corner- and mismatch-specialized device values,
//! one per device in topology order, and solves them through one private
//! pooled-solve harness. The harness holds the [`OpSolverPool`] (private,
//! or shared through a [`SolverRegistry`]), writes the values into a
//! pooled solver's primed template and solves it, retries a
//! non-convergent solve once with full Newton, and keeps the failure
//! ledger behind [`Circuit::failure_stats`].
//! SPICE-backed corner/mismatch sweeps flow through the same
//! [`EvalEngine`](../../glova/engine/trait.EvalEngine.html)-dispatched
//! [`SizingProblem`](../../glova/problem/struct.SizingProblem.html) batch
//! entry points as every other circuit — with each engine worker
//! checking out its own per-thread solver (a clone of one primed
//! prototype, so the symbolic factorization is analyzed once per
//! topology and every solve anywhere in the sweep pays only numeric
//! refactorizations).
//!
//! # Determinism
//!
//! `evaluate` is a pure function of `(x, corner, h)`: every point's
//! values are written in full over the one topology, the solver runs
//! plain Newton from its pool's fixed warm start — the operating point of
//! the testcase's own prototype values, solved once when the pool is
//! primed — and falls back to the full `gmin` ladder from zeros only when
//! that fails, and the pool keeps every worker's solver on the canonical
//! symbolic factorization (retiring any solver that re-pivoted). A
//! registry-shared pool keeps the first prototype's start, and every
//! testcase primes the same nominal prototype for its topology, so
//! sharing changes nothing. Sequential and threaded sweeps are therefore
//! bitwise identical — `tests/spice_engine_parity.rs` is the battery
//! that locks this in, and `golden_evaluation_digest` pins the bits
//! themselves.

use crate::spec::{DesignSpec, MetricSpec};
use crate::{denormalize_within, Circuit, FailureStats};
use glova_spice::ac::{ac_sweep_from_op, log_sweep};
use glova_spice::dc::{OpSolver, OpSolverPool, OperatingPoint};
use glova_spice::device::DeviceValue;
use glova_spice::mna::{JacobianStrategy, NewtonOptions};
use glova_spice::model::MosModel;
use glova_spice::netlist::{
    inverter_chain, ota_two_stage, sense_amp_array, Netlist, NodeId, OtaParams, SenseAmpParams,
};
use glova_spice::registry::SolverRegistry;
use glova_variation::corner::PvtCorner;
use glova_variation::mismatch::{DeviceSpec, MismatchDomain, PelgromModel};
use glova_variation::sampler::MismatchVector;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The pooled-solve harness every SPICE testcase evaluates through: the
/// solver pool (private, or shared through a [`SolverRegistry`]), which
/// holds the testcase's topology, the retarget–solve–retry sequence, and
/// the failure ledger behind [`Circuit::failure_stats`].
#[derive(Debug)]
struct PooledSolve {
    /// [`Netlist::topology_fingerprint`] of the topology, hashed once.
    fingerprint: u64,
    pool: Arc<OpSolverPool>,
    nonconvergent: AtomicU64,
    recovered: AtomicU64,
    degraded: AtomicU64,
}

impl PooledSolve {
    /// Primes a private pool for the testcase's topology `prototype`, or
    /// resolves the shared one through `registry` (the `glova-serve`
    /// path — concurrent campaigns over one topology share one primed
    /// symbolic analysis and warm start; trajectories are unaffected,
    /// see the determinism notes on [`SolverRegistry`]).
    ///
    /// The prototype's devices fix the topology; its values are the
    /// testcase's mid-range sizing at the typical corner without
    /// mismatch. They prime the pool, so they fix the canonical pivot
    /// order every evaluation refactors over and the warm start every
    /// evaluation's Newton iteration begins at.
    fn new(prototype: Netlist, registry: Option<&SolverRegistry>) -> Self {
        let options = NewtonOptions::default();
        let fingerprint = prototype.topology_fingerprint();
        let pool = match registry {
            Some(registry) => registry.pool_for(prototype, options),
            None => OpSolverPool::new(prototype, options).map(Arc::new),
        };
        Self {
            fingerprint,
            pool: pool.expect("testcase netlists are structurally sound"),
            nonconvergent: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// The operating point under device values `values` (one per device
    /// of the topology, in device order), solved on a pooled solver
    /// retargeted at them, or `None` when the point degrades.
    ///
    /// The pooled solve runs Newton from the pool's warm start and falls
    /// back to the `gmin` ladder from zeros (see [`OpSolver::solve`]).
    /// A non-convergent pooled solve retries once on a fresh cold solver
    /// running the full `gmin` ladder from zeros with a full-Newton
    /// Jacobian and a much larger iteration budget. A transient failure
    /// (a chord iteration stalling on an extreme point the pooled
    /// solver's reused LU linearized badly) recovers there; a genuinely
    /// unsolvable point fails again and degrades. Both paths are pure
    /// functions of `(values, options)`, so engine parity and trajectory
    /// bitwise identity hold — every engine retries the same points the
    /// same way.
    fn solve(&self, values: &[DeviceValue]) -> Option<OperatingPoint> {
        let solved = self.pool.with_solver(|solver| {
            solver.retarget_values(values);
            solver.solve()
        });
        if let Ok(op) = solved {
            return Some(op);
        }
        self.nonconvergent.fetch_add(1, Ordering::Relaxed);
        let base = self.pool.options();
        let escalated = NewtonOptions {
            max_iterations: (base.max_iterations * 4).max(800),
            strategy: JacobianStrategy::Full,
            ..*base
        };
        let topology = Arc::clone(self.pool.topology());
        let retried = OpSolver::with_values(topology, values, escalated).solve().ok();
        let outcome = if retried.is_some() { &self.recovered } else { &self.degraded };
        outcome.fetch_add(1, Ordering::Relaxed);
        retried
    }

    /// Books a failure that has no retry path: one nonconvergent and one
    /// degraded evaluation together.
    fn degrade(&self) {
        self.nonconvergent.fetch_add(1, Ordering::Relaxed);
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> FailureStats {
        FailureStats {
            nonconvergent: self.nonconvergent.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}

/// A `stages`-stage CMOS inverter chain sized by 4 parameters and
/// evaluated by DC operating-point SPICE solves.
///
/// Design vector (normalized to `[0,1]`, physical bounds in
/// [`Circuit::bounds`]): NMOS width, PMOS width, channel length, and the
/// per-stage output load resistance. Metrics (all from one operating
/// point):
///
/// 1. `supply_current_ua` (≤): total VDD branch current — static power.
/// 2. `out_high_v` (≥): the higher of the last two stage outputs — the
///    chain must regenerate a solid logic high.
/// 3. `out_low_v` (≤): the lower of the last two stage outputs — and a
///    solid logic low.
///
/// A non-convergent operating point (possible at extreme
/// corner × mismatch combinations) reports NaN metrics, which the reward
/// machinery treats as a constraint violation — deterministically, so
/// engine parity is unaffected.
#[derive(Debug)]
pub struct SpiceInverterChain {
    stages: usize,
    spec: DesignSpec,
    solve: PooledSolve,
    /// The VDD branch and the last two stage outputs the metrics read.
    vdd_branch: usize,
    outputs: [NodeId; 2],
}

/// Mismatch components contributed per stage: `ΔV_th`/`Δβ` for the PMOS,
/// then the same for the NMOS (netlist device order).
const MISMATCH_PER_STAGE: usize = 4;

impl SpiceInverterChain {
    /// Builds the chain testcase on a private solver pool.
    ///
    /// # Panics
    ///
    /// Panics if `stages < 2` (the output metrics read the last two
    /// stage outputs).
    pub fn new(stages: usize) -> Self {
        Self::build(stages, None)
    }

    /// Builds the chain testcase on a pool resolved through `registry`,
    /// so every concurrent campaign over a `stages`-stage chain shares
    /// one primed symbolic analysis instead of paying its own.
    ///
    /// # Panics
    ///
    /// Panics if `stages < 2`.
    pub fn from_registry(stages: usize, registry: &SolverRegistry) -> Self {
        Self::build(stages, Some(registry))
    }

    fn build(stages: usize, registry: Option<&SolverRegistry>) -> Self {
        assert!(stages >= 2, "the chain metrics need at least two stages");
        let mut prototype = inverter_chain(stages);
        prototype.set_values(&Self::values_for(
            &denormalize_within(&Self::static_bounds(), &[0.5; 4]),
            &PvtCorner::typical(),
            &MismatchVector::nominal(stages * MISMATCH_PER_STAGE),
        ));
        let vdd_branch = prototype.vsource_branch("VDD").expect("VDD source present");
        let output = |s: usize| prototype.find_node(&format!("n{s}")).expect("stage output");
        let outputs = [output(stages - 1), output(stages - 2)];
        let solve = PooledSolve::new(prototype, registry);
        Self { stages, spec: Self::static_spec(stages), solve, vdd_branch, outputs }
    }

    /// Number of inverter stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Fingerprint of the evaluated topology — the key this circuit's
    /// pool registers under, and an identity word for shared eval
    /// caches.
    pub fn topology_fingerprint(&self) -> u64 {
        self.solve.fingerprint
    }

    fn static_spec(stages: usize) -> DesignSpec {
        // The static current grows ~linearly with the stage count
        // (~37 µA/stage at nominal sizing, worst-corner ~1.1× that), so
        // the power budget scales with the chain: mid-range sizings pass
        // at every corner with ~1.5× headroom while aggressive
        // wide/short-channel sizings (~2–3× the nominal current) violate
        // it — a non-trivial feasibility boundary for the optimizer.
        DesignSpec::new(vec![
            MetricSpec::below("supply_current_ua", 60.0 * stages as f64 + 60.0),
            MetricSpec::above("out_high_v", 0.6),
            MetricSpec::below("out_low_v", 0.15),
        ])
    }

    /// The shared solver pool (counters are useful in tests and benches:
    /// solvers spawned == peak concurrent workers).
    pub fn solver_pool(&self) -> &OpSolverPool {
        &self.solve.pool
    }

    fn static_bounds() -> Vec<(f64, f64)> {
        vec![
            (0.6, 2.0),   // wn_um
            (1.2, 4.0),   // wp_um
            (0.03, 0.08), // l_um
            (5e3, 20e3),  // rl_ohm
        ]
    }

    /// The device values of one `(x, corner, h)` point, in the device
    /// order of [`inverter_chain`]: the VDD and VIN sources, then per
    /// stage its PMOS, NMOS and load. The topology (and therefore the
    /// MNA pattern) depends only on `stages`; the point enters
    /// exclusively through these values, which is what lets the solver
    /// pool keep one frozen symbolic factorization for the whole sweep.
    fn values_for(x_phys: &[f64], corner: &PvtCorner, h: &MismatchVector) -> Vec<DeviceValue> {
        let (wn, wp, l, rl) = (x_phys[0], x_phys[1], x_phys[2], x_phys[3]);
        let pmos = MosModel::pmos_28nm().at_corner(corner);
        let nmos = MosModel::nmos_28nm().at_corner(corner);
        let mut values = Vec::with_capacity(2 + 3 * (h.dim() / MISMATCH_PER_STAGE));
        values.push(DeviceValue::vsource(corner.vdd));
        // Input biased near the switching threshold, tracking the supply.
        values.push(DeviceValue::vsource(corner.vdd * (0.42 / 0.9)));
        for hs in h.values().chunks_exact(MISMATCH_PER_STAGE) {
            values.push(DeviceValue::mosfet(pmos.with_mismatch(hs[0], hs[1]), wp, l));
            values.push(DeviceValue::mosfet(nmos.with_mismatch(hs[2], hs[3]), wn, l));
            values.push(DeviceValue::resistor(rl));
        }
        values
    }
}

impl Circuit for SpiceInverterChain {
    fn name(&self) -> &str {
        "SPICE-INV"
    }

    fn dim(&self) -> usize {
        4
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        Self::static_bounds()
    }

    fn parameter_names(&self) -> Vec<String> {
        ["wn_um", "wp_um", "l_um", "rl_ohm"].map(String::from).to_vec()
    }

    fn spec(&self) -> &DesignSpec {
        &self.spec
    }

    fn mismatch_domain(&self, x_norm: &[f64]) -> MismatchDomain {
        let x = self.denormalize(x_norm);
        let (wn, wp, l) = (x[0], x[1], x[2]);
        let mut devices = Vec::with_capacity(2 * self.stages);
        for s in 0..self.stages {
            devices.push(DeviceSpec::pmos(format!("MP{s}"), wp, l));
            devices.push(DeviceSpec::nmos(format!("MN{s}"), wn, l));
        }
        MismatchDomain::new(devices, PelgromModel::cmos28())
    }

    fn evaluate(&self, x_norm: &[f64], corner: &PvtCorner, mismatch: &MismatchVector) -> Vec<f64> {
        assert_eq!(x_norm.len(), self.dim(), "design vector dimension mismatch");
        assert_eq!(
            mismatch.dim(),
            self.stages * MISMATCH_PER_STAGE,
            "mismatch vector dimension mismatch"
        );
        let x = self.denormalize(x_norm);
        match self.solve.solve(&Self::values_for(&x, corner, mismatch)) {
            Some(op) => {
                let supply_current_ua = op.branch_current(self.vdd_branch).abs() * 1e6;
                let va = op.voltage(self.outputs[0]);
                let vb = op.voltage(self.outputs[1]);
                vec![supply_current_ua, va.max(vb), va.min(vb)]
            }
            // NaN metrics fail every constraint.
            None => vec![f64::NAN; self.spec.len()],
        }
    }

    fn failure_stats(&self) -> FailureStats {
        self.solve.stats()
    }
}

/// A SPICE-backed two-stage Miller OTA: every evaluation is a **DC plus
/// AC** solve of [`ota_two_stage`]'s topology — the first testcase whose
/// metrics exercise the whole solver stack (Newton DC through the pooled
/// per-worker [`OpSolver`]s with value-only
/// retargeting, then a complex small-signal sweep linearized around that
/// same operating point).
///
/// Design vector (normalized to `[0,1]`): input-pair width, mirror
/// width, second-stage width, channel length, tail current and
/// second-stage load. Metrics:
///
/// 1. `dc_gain_db` (≥): low-frequency gain `vinp → out`.
/// 2. `gbw_mhz` (≥): gain–bandwidth product (single-pole estimate:
///    −3 dB frequency × linear gain).
/// 3. `supply_current_ua` (≤): VDD branch current — static power.
///
/// # Determinism
///
/// `evaluate` is a pure function of `(x, corner, h)`: the DC pool keeps
/// every worker canonical (same contract as [`SpiceInverterChain`]) and
/// the AC sweep per evaluation is self-contained. Non-convergence at an
/// extreme point reports NaN metrics, deterministically.
#[derive(Debug)]
pub struct SpiceOta {
    spec: DesignSpec,
    solve: PooledSolve,
    freqs: Vec<f64>,
    /// The VDD branch and the output node the metrics read.
    vdd_branch: usize,
    out: NodeId,
}

/// Mismatch components: `ΔV_th`/`Δβ` for M1, M2, M3, M4, M6 in order.
const OTA_MISMATCH_DIM: usize = 10;

impl SpiceOta {
    /// Builds the OTA testcase on a private solver pool.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// Builds the OTA testcase on a pool resolved through `registry`, so
    /// concurrent campaigns share one primed symbolic analysis.
    pub fn from_registry(registry: &SolverRegistry) -> Self {
        Self::build(Some(registry))
    }

    fn build(registry: Option<&SolverRegistry>) -> Self {
        let mut prototype = ota_two_stage(&OtaParams::nominal());
        prototype.set_values(&Self::values_for(
            &denormalize_within(&Self::static_bounds(), &[0.5; 6]),
            &PvtCorner::typical(),
            &MismatchVector::nominal(OTA_MISMATCH_DIM),
        ));
        let vdd_branch = prototype.vsource_branch("VDD").expect("VDD source present");
        let out = prototype.find_node("out").expect("OTA output node");
        Self {
            spec: Self::static_spec(),
            solve: PooledSolve::new(prototype, registry),
            freqs: log_sweep(1e3, 1e9, 3),
            vdd_branch,
            out,
        }
    }

    /// The shared DC solver pool (counters useful in tests/benches).
    pub fn solver_pool(&self) -> &OpSolverPool {
        &self.solve.pool
    }

    /// Fingerprint of the evaluated DC topology — the key this
    /// circuit's pool registers under, and an identity word for shared
    /// eval caches.
    pub fn topology_fingerprint(&self) -> u64 {
        self.solve.fingerprint
    }

    fn static_spec() -> DesignSpec {
        // Thresholds sit under the nominal point (≈63 dB, ≈300 MHz GBW,
        // ≈73 µA at mid-range sizing, feasible across the industrial
        // 30-corner set) while e.g. maximal wide/short sizings drop the
        // gain to ~35 dB — a real feasibility boundary for the
        // optimizer.
        DesignSpec::new(vec![
            MetricSpec::above("dc_gain_db", 40.0),
            MetricSpec::above("gbw_mhz", 30.0),
            MetricSpec::below("supply_current_ua", 150.0),
        ])
    }

    fn static_bounds() -> Vec<(f64, f64)> {
        vec![
            (1.0, 4.0),   // w_in_um
            (0.8, 3.0),   // w_mir_um
            (3.0, 12.0),  // w_out_um
            (0.06, 0.2),  // l_um
            (10.0, 40.0), // itail_ua
            (5.0, 20.0),  // rl_kohm
        ]
    }

    /// The device values of one `(x, corner, h)` point, in the device
    /// order of [`ota_two_stage`]: the VDD, VINP and VINN sources, M1–M4,
    /// the tail source, M6, the load resistor and the two capacitors.
    /// Topology (and the MNA pattern) is fixed; the point enters purely
    /// through these values.
    fn values_for(x_phys: &[f64], corner: &PvtCorner, h: &MismatchVector) -> Vec<DeviceValue> {
        let hv = h.values();
        let p = OtaParams {
            w_in_um: x_phys[0],
            w_mir_um: x_phys[1],
            w_out_um: x_phys[2],
            l_um: x_phys[3],
            itail_ua: x_phys[4],
            rl_kohm: x_phys[5],
            vdd: corner.vdd,
            vcm: corner.vdd * (0.55 / 0.9),
            ..OtaParams::nominal()
        };
        let nmos = MosModel::nmos_28nm().at_corner(corner);
        let pmos = MosModel::pmos_28nm().at_corner(corner);
        vec![
            DeviceValue::vsource(p.vdd),
            DeviceValue::vsource(p.vcm),
            DeviceValue::vsource(p.vcm),
            DeviceValue::mosfet(nmos.with_mismatch(hv[0], hv[1]), p.w_in_um, p.l_um),
            DeviceValue::mosfet(nmos.with_mismatch(hv[2], hv[3]), p.w_in_um, p.l_um),
            DeviceValue::mosfet(pmos.with_mismatch(hv[4], hv[5]), p.w_mir_um, p.l_um),
            DeviceValue::mosfet(pmos.with_mismatch(hv[6], hv[7]), p.w_mir_um, p.l_um),
            DeviceValue::isource(p.itail_ua * 1e-6),
            DeviceValue::mosfet(pmos.with_mismatch(hv[8], hv[9]), p.w_out_um, p.l_um),
            DeviceValue::resistor(p.rl_kohm * 1e3),
            DeviceValue::capacitor(p.cc_ff * 1e-15),
            DeviceValue::capacitor(p.cl_ff * 1e-15),
        ]
    }
}

impl Default for SpiceOta {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit for SpiceOta {
    fn name(&self) -> &str {
        "SPICE-OTA"
    }

    fn dim(&self) -> usize {
        6
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        Self::static_bounds()
    }

    fn parameter_names(&self) -> Vec<String> {
        ["w_in_um", "w_mir_um", "w_out_um", "l_um", "itail_ua", "rl_kohm"]
            .map(String::from)
            .to_vec()
    }

    fn spec(&self) -> &DesignSpec {
        &self.spec
    }

    fn mismatch_domain(&self, x_norm: &[f64]) -> MismatchDomain {
        let x = self.denormalize(x_norm);
        let (w_in, w_mir, w_out, l) = (x[0], x[1], x[2], x[3]);
        MismatchDomain::new(
            vec![
                DeviceSpec::nmos("M1".to_string(), w_in, l),
                DeviceSpec::nmos("M2".to_string(), w_in, l),
                DeviceSpec::pmos("M3".to_string(), w_mir, l),
                DeviceSpec::pmos("M4".to_string(), w_mir, l),
                DeviceSpec::pmos("M6".to_string(), w_out, l),
            ],
            PelgromModel::cmos28(),
        )
    }

    fn evaluate(&self, x_norm: &[f64], corner: &PvtCorner, mismatch: &MismatchVector) -> Vec<f64> {
        assert_eq!(x_norm.len(), self.dim(), "design vector dimension mismatch");
        assert_eq!(mismatch.dim(), OTA_MISMATCH_DIM, "mismatch vector dimension mismatch");
        let x = self.denormalize(x_norm);
        let values = Self::values_for(&x, corner, mismatch);
        let Some(op) = self.solve.solve(&values) else {
            return vec![f64::NAN; self.spec.len()];
        };
        let supply_current_ua = op.branch_current(self.vdd_branch).abs() * 1e6;
        let topology = self.solve.pool.topology();
        match ac_sweep_from_op(topology, &values, op, "VINP", &self.freqs) {
            Ok(ac) => {
                let (gain_db, f3) =
                    ac.gain_and_bandwidth_3db(self.out).expect("the OTA sweep has points");
                // Single-pole GBW estimate; a response that never drops
                // 3 dB inside the sweep is credited with the sweep edge.
                let f3 = f3.unwrap_or_else(|| *self.freqs.last().unwrap());
                let gbw_mhz = f3 * 10f64.powf(gain_db / 20.0) / 1e6;
                vec![gain_db, gbw_mhz, supply_current_ua]
            }
            Err(_) => {
                // A failed small-signal sweep has no retry path (it is
                // already a direct factorization, not an iteration).
                self.solve.degrade();
                vec![f64::NAN; self.spec.len()]
            }
        }
    }

    fn failure_stats(&self) -> FailureStats {
        self.solve.stats()
    }
}

/// A SPICE-backed `rows × cols` DRAM sense-amplifier array — the
/// testcase whose MNA pattern is genuinely **2-D** (cell `(r, c)`
/// couples wordline `r` and bitline `c`), built on
/// [`glova_spice::netlist::sense_amp_array_with`]'s topology and
/// evaluated by pooled DC operating-point solves like the other
/// SPICE-backed circuits.
///
/// Design vector (normalized to `[0,1]`): access width, latch width,
/// channel length, precharge resistance. Metrics (all from one DC
/// operating point):
///
/// 1. `bl_diff_mv` (≥): the worst-column pre-sensing differential
///    `v(blb) − v(bl)` — the cells load only the true bitline half
///    (open-bitline organization), and the latch must regenerate that
///    offset, not collapse it. Latch `ΔV_th` mismatch eats directly
///    into this margin — the classic sense-amp yield mechanism.
/// 2. `droop_mv` (≤): worst-column common-mode droop of the pair below
///    the `vdd/2` precharge rail; wide access devices over-discharge
///    the bitlines through the cell anchors.
/// 3. `supply_current_ua` (≤): VDD branch current — the static burn of
///    all `2·cols` latch half-cells.
///
/// # Determinism
///
/// Same contract as [`SpiceInverterChain`]: `evaluate` is a pure
/// function of `(x, corner, h)`, the pool keeps every worker on the
/// canonical symbolic factorization, and non-convergence reports NaN
/// metrics deterministically.
#[derive(Debug)]
pub struct SpiceSenseAmpArray {
    rows: usize,
    cols: usize,
    spec: DesignSpec,
    solve: PooledSolve,
    /// The VDD branch and each column's `(bl, blb)` pair the metrics
    /// read.
    vdd_branch: usize,
    bitlines: Vec<(NodeId, NodeId)>,
}

/// Mismatch components contributed per column: `ΔV_th`/`Δβ` for the
/// true-side latch NMOS, then the same for the reference side (netlist
/// device order).
const MISMATCH_PER_COLUMN: usize = 4;

impl SpiceSenseAmpArray {
    /// Builds the array testcase on a private solver pool
    /// (`rows·cols + rows + 2·cols + 4` unknowns).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::build(rows, cols, None)
    }

    /// Builds the array testcase on a pool resolved through `registry`,
    /// so concurrent campaigns over one array shape share one primed
    /// symbolic analysis.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn from_registry(rows: usize, cols: usize, registry: &SolverRegistry) -> Self {
        Self::build(rows, cols, Some(registry))
    }

    fn build(rows: usize, cols: usize, registry: Option<&SolverRegistry>) -> Self {
        assert!(rows > 0 && cols > 0, "a sense-amp array needs at least one row and column");
        let mut prototype = sense_amp_array(rows, cols);
        prototype.set_values(&Self::values_for(
            rows,
            &denormalize_within(&Self::static_bounds(), &[0.5; 4]),
            &PvtCorner::typical(),
            &MismatchVector::nominal(cols * MISMATCH_PER_COLUMN),
        ));
        let vdd_branch = prototype.vsource_branch("VDD").expect("VDD source present");
        let node = |name: String| prototype.find_node(&name).expect("bitline node");
        let bitlines =
            (0..cols).map(|c| (node(format!("bl{c}")), node(format!("blb{c}")))).collect();
        let solve = PooledSolve::new(prototype, registry);
        Self { rows, cols, spec: Self::static_spec(rows, cols), solve, vdd_branch, bitlines }
    }

    /// Array shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Fingerprint of the evaluated topology — the key this circuit's
    /// pool registers under, and an identity word for shared eval
    /// caches.
    pub fn topology_fingerprint(&self) -> u64 {
        self.solve.fingerprint
    }

    fn static_spec(rows: usize, cols: usize) -> DesignSpec {
        // Measured at the typical corner, 5×4, mid-range sizing: ≈29 mV
        // of differential, ≈14 mV of droop, ≈3.6 µA/column of static
        // current (droop and differential grow roughly linearly with the
        // row count — each extra row adds an access device pulling on
        // the same bitline, hence the shape-aware thresholds). Mid-range
        // sizings pass with ~2× headroom while minimal latch widths
        // (differential), maximal access widths (droop) and
        // wide-everything sizings (current) violate — a real
        // feasibility boundary for the optimizer.
        DesignSpec::new(vec![
            MetricSpec::above("bl_diff_mv", 12.0),
            MetricSpec::below("droop_mv", 3.5 * rows as f64),
            MetricSpec::below("supply_current_ua", 5.0 * cols as f64 + 0.1 * (rows * cols) as f64),
        ])
    }

    /// The shared solver pool (counters useful in tests and benches).
    pub fn solver_pool(&self) -> &OpSolverPool {
        &self.solve.pool
    }

    fn static_bounds() -> Vec<(f64, f64)> {
        // The latch bounds are deliberately subcritical: with the loop
        // gain `(gm_n + gm_p)·R_eff` held below one over the whole box
        // (narrow, longer-channel latch devices against a stiff ≤2 kΩ
        // precharge anchor), the DC solution stays in the pre-sensing
        // small-signal regime — the regime the differential metric is
        // meaningful in — instead of regenerating to a rail-to-rail
        // basin-dependent latch state.
        vec![
            (0.5, 4.0),   // w_access_um
            (0.1, 0.5),   // w_latch_um
            (0.08, 0.2),  // l_um
            (0.5e3, 2e3), // r_precharge_ohm
        ]
    }

    /// The device values of one `(x, corner, h)` point, in the device
    /// order of [`sense_amp_array`]: the VDD and VPRE sources, the
    /// wordline drivers, per column its precharge resistors, bitline
    /// capacitors and latch (the true-side and reference NMOS carrying
    /// the column's mismatch, then the PMOS pair), then per cell its
    /// access device, storage capacitor and anchor. The corner is folded
    /// into every model card; the point enters only through these values.
    fn values_for(
        rows: usize,
        x_phys: &[f64],
        corner: &PvtCorner,
        h: &MismatchVector,
    ) -> Vec<DeviceValue> {
        let (w_access, w_latch, l, r_pre) = (x_phys[0], x_phys[1], x_phys[2], x_phys[3]);
        let p = SenseAmpParams {
            vdd: corner.vdd,
            r_precharge: r_pre,
            w_latch_um: w_latch,
            w_access_um: w_access,
            l_um: l,
            ..SenseAmpParams::default()
        };
        let nmos = MosModel::nmos_28nm().at_corner(corner);
        let pmos = MosModel::pmos_28nm().at_corner(corner);
        let cols = h.dim() / MISMATCH_PER_COLUMN;
        let mut values = Vec::with_capacity(2 + rows + 8 * cols + 3 * rows * cols);
        values.push(DeviceValue::vsource(p.vdd));
        values.push(DeviceValue::vsource(p.vdd / 2.0));
        values.extend(std::iter::repeat_n(DeviceValue::resistor(p.r_wordline), rows));
        let precharge = DeviceValue::resistor(p.r_precharge);
        let bitline = DeviceValue::capacitor(p.c_bitline_f);
        let latch_p = DeviceValue::mosfet(pmos, p.w_latch_um, p.l_um);
        for hc in h.values().chunks_exact(MISMATCH_PER_COLUMN) {
            values.extend([precharge, precharge, bitline, bitline]);
            values.push(DeviceValue::mosfet(
                nmos.with_mismatch(hc[0], hc[1]),
                p.w_latch_um,
                p.l_um,
            ));
            values.push(DeviceValue::mosfet(
                nmos.with_mismatch(hc[2], hc[3]),
                p.w_latch_um,
                p.l_um,
            ));
            values.extend([latch_p, latch_p]);
        }
        let cell = [
            DeviceValue::mosfet(nmos, p.w_access_um, p.l_um),
            DeviceValue::capacitor(p.c_cell_f),
            DeviceValue::resistor(p.r_cell),
        ];
        for _ in 0..rows * cols {
            values.extend(cell);
        }
        values
    }
}

impl Circuit for SpiceSenseAmpArray {
    fn name(&self) -> &str {
        "SPICE-SENSEAMP"
    }

    fn dim(&self) -> usize {
        4
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        Self::static_bounds()
    }

    fn parameter_names(&self) -> Vec<String> {
        ["w_access_um", "w_latch_um", "l_um", "r_precharge_ohm"].map(String::from).to_vec()
    }

    fn spec(&self) -> &DesignSpec {
        &self.spec
    }

    fn mismatch_domain(&self, x_norm: &[f64]) -> MismatchDomain {
        let x = self.denormalize(x_norm);
        let (w_latch, l) = (x[1], x[2]);
        let mut devices = Vec::with_capacity(2 * self.cols);
        for c in 0..self.cols {
            devices.push(DeviceSpec::nmos(format!("MN1_{c}"), w_latch, l));
            devices.push(DeviceSpec::nmos(format!("MN2_{c}"), w_latch, l));
        }
        MismatchDomain::new(devices, PelgromModel::cmos28())
    }

    fn evaluate(&self, x_norm: &[f64], corner: &PvtCorner, mismatch: &MismatchVector) -> Vec<f64> {
        assert_eq!(x_norm.len(), self.dim(), "design vector dimension mismatch");
        assert_eq!(
            mismatch.dim(),
            self.cols * MISMATCH_PER_COLUMN,
            "mismatch vector dimension mismatch"
        );
        let x = self.denormalize(x_norm);
        match self.solve.solve(&Self::values_for(self.rows, &x, corner, mismatch)) {
            Some(op) => {
                let vpre = corner.vdd / 2.0;
                let mut worst_diff = f64::INFINITY;
                let mut worst_droop = f64::NEG_INFINITY;
                for &(bl, blb) in &self.bitlines {
                    let (bl, blb) = (op.voltage(bl), op.voltage(blb));
                    worst_diff = worst_diff.min((blb - bl) * 1e3);
                    worst_droop = worst_droop.max((vpre - 0.5 * (bl + blb)) * 1e3);
                }
                let supply_current_ua = op.branch_current(self.vdd_branch).abs() * 1e6;
                vec![worst_diff, worst_droop, supply_current_ua]
            }
            None => vec![f64::NAN; self.spec.len()],
        }
    }

    fn failure_stats(&self) -> FailureStats {
        self.solve.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_variation::corner::ProcessCorner;

    #[test]
    fn topology_fingerprints_keep_their_recorded_values() {
        // Fingerprints are cache-identity words in `glova-serve`, so
        // their values are pinned, not just their equalities. They are
        // the generators' values that `glova_spice::netlist` pins.
        assert_eq!(SpiceInverterChain::new(8).topology_fingerprint(), 0x3da0_a003_c7d7_a7fc);
        assert_eq!(SpiceOta::new().topology_fingerprint(), 0xe7ad_f9de_d49d_0a66);
        assert_eq!(SpiceSenseAmpArray::new(5, 4).topology_fingerprint(), 0x1e02_052c_ecc3_fe61);
        assert_eq!(SpiceSenseAmpArray::new(12, 12).topology_fingerprint(), 0x64dd_73ae_1535_fc46);
    }

    #[test]
    fn sense_amp_nominal_is_feasible_and_deterministic() {
        let array = SpiceSenseAmpArray::new(5, 4);
        let x = vec![0.5; array.dim()];
        let h = MismatchVector::nominal(array.mismatch_domain(&x).dim());
        let m = array.evaluate(&x, &PvtCorner::typical(), &h);
        assert_eq!(m.len(), 3);
        assert!(array.spec().satisfied(&m), "nominal array must meet spec: {m:?}");
        let again = array.evaluate(&x, &PvtCorner::typical(), &h);
        for (a, b) in m.iter().zip(&again) {
            assert_eq!(a.to_bits(), b.to_bits(), "repeat evaluation drifted");
        }
        assert_eq!(array.solver_pool().solvers_spawned(), 1);
    }

    #[test]
    fn registry_circuits_share_one_pool_and_match_locals() {
        let registry = SolverRegistry::new();
        let a = SpiceInverterChain::from_registry(4, &registry);
        let b = SpiceInverterChain::from_registry(4, &registry);
        assert_eq!(registry.primes(), 1, "one topology must prime once");
        assert!(std::ptr::eq(a.solver_pool(), b.solver_pool()), "same shape shares one pool");
        assert_eq!(a.topology_fingerprint(), b.topology_fingerprint());
        // Registry-resolved evaluations must be bitwise identical to a
        // privately-pooled circuit's — sharing is unobservable in the
        // outcomes.
        let local = SpiceInverterChain::new(4);
        let x = vec![0.5; local.dim()];
        let h = MismatchVector::nominal(local.mismatch_domain(&x).dim());
        let corner = PvtCorner::typical();
        let shared = a.evaluate(&x, &corner, &h);
        let private = local.evaluate(&x, &corner, &h);
        for (s, p) in shared.iter().zip(&private) {
            assert_eq!(s.to_bits(), p.to_bits(), "registry sharing changed results");
        }
        // Distinct circuits register distinct entries under the same
        // registry.
        let ota = SpiceOta::from_registry(&registry);
        let array = SpiceSenseAmpArray::from_registry(5, 4, &registry);
        assert_eq!(registry.primes(), 3);
        assert_ne!(a.topology_fingerprint(), ota.topology_fingerprint());
        assert_ne!(ota.topology_fingerprint(), array.topology_fingerprint());
    }

    #[test]
    fn sense_amp_metrics_respond_to_sizing_corner_and_mismatch() {
        let array = SpiceSenseAmpArray::new(5, 4);
        let x = vec![0.5; array.dim()];
        let dim = array.mismatch_domain(&x).dim();
        let h = MismatchVector::nominal(dim);
        let typical = array.evaluate(&x, &PvtCorner::typical(), &h);
        // Maximal access width over-discharges the bitlines: more droop.
        let wide = array.evaluate(&[1.0, 0.5, 0.5, 0.5], &PvtCorner::typical(), &h);
        assert!(wide[1] > typical[1], "wider access must increase droop");
        // A low-supply corner moves every metric.
        let low = PvtCorner { vdd: 0.8, ..PvtCorner::typical() };
        assert_ne!(array.evaluate(&x, &low, &h), typical);
        // Latch threshold mismatch on the true side eats the worst-column
        // differential.
        let mut skew = vec![0.0; dim];
        skew[0] = 0.05; // ΔV_th of MN1_0 (true side conducts less… or more)
        let skewed = array.evaluate(&x, &PvtCorner::typical(), &MismatchVector::from_values(skew));
        assert_ne!(skewed[0], typical[0], "latch mismatch must move the differential");
    }

    #[test]
    fn nominal_design_is_feasible_at_typical() {
        let chain = SpiceInverterChain::new(8);
        let x = vec![0.5; chain.dim()];
        let h = MismatchVector::nominal(chain.mismatch_domain(&x).dim());
        let m = chain.evaluate(&x, &PvtCorner::typical(), &h);
        assert_eq!(m.len(), 3);
        assert!(chain.spec().satisfied(&m), "nominal point must meet spec: {m:?}");
        assert_eq!(chain.spec().reward(&m), crate::spec::SATISFIED_REWARD);
    }

    #[test]
    fn corners_and_mismatch_move_the_metrics() {
        let chain = SpiceInverterChain::new(8);
        let x = vec![0.5; chain.dim()];
        let dim = chain.mismatch_domain(&x).dim();
        let typical = chain.evaluate(&x, &PvtCorner::typical(), &MismatchVector::nominal(dim));
        let low_v = PvtCorner { vdd: 0.8, ..PvtCorner::typical() };
        let at_low = chain.evaluate(&x, &low_v, &MismatchVector::nominal(dim));
        assert!(at_low[1] < typical[1], "lower supply must lower the high level");
        let skewed = chain.evaluate(
            &x,
            &PvtCorner::typical(),
            &MismatchVector::from_values(vec![0.02; dim]),
        );
        assert_ne!(skewed, typical, "mismatch must perturb the solve");
    }

    #[test]
    fn evaluation_is_deterministic_and_reuses_one_solver_sequentially() {
        let chain = SpiceInverterChain::new(12);
        let x = vec![0.6, 0.4, 0.5, 0.5];
        let h = MismatchVector::from_values(vec![1e-3; chain.mismatch_domain(&x).dim()]);
        let corner = PvtCorner { vdd: 0.8, temp_c: 80.0, ..PvtCorner::typical() };
        let first = chain.evaluate(&x, &corner, &h);
        for _ in 0..3 {
            let again = chain.evaluate(&x, &corner, &h);
            for (a, b) in first.iter().zip(&again) {
                assert_eq!(a.to_bits(), b.to_bits(), "repeat evaluation drifted");
            }
        }
        assert_eq!(chain.solver_pool().solvers_spawned(), 1, "sequential use needs one solver");
    }

    #[test]
    fn ota_nominal_is_feasible_and_deterministic() {
        let ota = SpiceOta::new();
        let x = vec![0.5; ota.dim()];
        let h = MismatchVector::nominal(ota.mismatch_domain(&x).dim());
        let m = ota.evaluate(&x, &PvtCorner::typical(), &h);
        assert_eq!(m.len(), 3);
        assert!(ota.spec().satisfied(&m), "nominal OTA must meet spec: {m:?}");
        assert!(m[0] > 55.0 && m[0] < 75.0, "two-stage gain in a plausible band: {} dB", m[0]);
        // Repeat evaluations through the pooled solver are bitwise
        // stable, and sequential use materializes exactly one solver.
        let again = ota.evaluate(&x, &PvtCorner::typical(), &h);
        for (a, b) in m.iter().zip(&again) {
            assert_eq!(a.to_bits(), b.to_bits(), "repeat OTA evaluation drifted");
        }
        assert_eq!(ota.solver_pool().solvers_spawned(), 1);
    }

    #[test]
    fn ota_metrics_respond_to_sizing_corner_and_mismatch() {
        let ota = SpiceOta::new();
        let x = vec![0.5; ota.dim()];
        let h = MismatchVector::nominal(10);
        let typical = ota.evaluate(&x, &PvtCorner::typical(), &h);
        // Maximal widths at minimal length collapse the gain below spec.
        let over = ota.evaluate(&[0.9; 6], &PvtCorner::typical(), &h);
        assert!(over[0] < typical[0], "oversizing must cost gain");
        assert!(!ota.spec().satisfied(&over), "oversized point violates the gain floor: {over:?}");
        // A hot, low-supply corner moves the metrics.
        let hot = PvtCorner { vdd: 0.8, temp_c: 80.0, ..PvtCorner::typical() };
        assert_ne!(ota.evaluate(&x, &hot, &h), typical);
        // Input-pair mismatch perturbs the solve.
        let mut skew = vec![0.0; 10];
        skew[0] = 0.02;
        let skewed = ota.evaluate(&x, &PvtCorner::typical(), &MismatchVector::from_values(skew));
        assert_ne!(skewed, typical, "mismatch must perturb the OTA metrics");
    }

    /// The Newton iterations of solving every seeded point — a uniform
    /// design vector, a corner of the industrial set and local mismatch
    /// from that design's own domain — on one solver checked out of
    /// `pool` (warm start), and on unprimed solvers running the `gmin`
    /// ladder from zeros.
    fn newton_totals(
        circuit: &dyn Circuit,
        pool: &OpSolverPool,
        values_for: impl Fn(&[f64], &PvtCorner, &MismatchVector) -> Vec<DeviceValue>,
    ) -> (u64, u64) {
        use glova_stats::rng::{seeded, Rng};
        use glova_variation::corner::CornerSet;
        use glova_variation::sampler::{MismatchSampler, VarianceLayers};
        let corners = CornerSet::industrial_30();
        let mut rng = seeded(0x5eed);
        let mut pooled = pool.with_solver(|solver| solver.clone());
        let start = pooled.newton_iterations();
        let mut ladder = 0;
        for _ in 0..24 {
            let x: Vec<f64> = (0..circuit.dim()).map(|_| rng.gen::<f64>()).collect();
            let corner = corners.corner(rng.gen_range(0..corners.len()));
            let sampler = MismatchSampler::new(circuit.mismatch_domain(&x), VarianceLayers::LOCAL);
            let h = sampler.sample_independent(&mut rng, 1).remove(0);
            let values = values_for(&circuit.denormalize(&x), &corner, &h);
            pooled.retarget_values(&values);
            pooled.solve().expect("seeded point converges from the warm start");
            let mut cold =
                OpSolver::with_values(Arc::clone(pool.topology()), &values, *pool.options());
            cold.solve().expect("seeded point converges on the ladder");
            ladder += cold.newton_iterations();
        }
        (pooled.newton_iterations() - start, ladder)
    }

    #[test]
    fn warm_start_halves_the_newton_iterations() {
        // A deterministic count, not a timing: on every testcase shape,
        // solving from the pool's warm start takes at most half the
        // Newton iterations of the ladder from zeros on the same points.
        let ota = SpiceOta::new();
        let chain = SpiceInverterChain::new(8);
        let array = SpiceSenseAmpArray::new(5, 4);
        let totals = [
            ("ota", newton_totals(&ota, ota.solver_pool(), SpiceOta::values_for)),
            ("chain8", newton_totals(&chain, chain.solver_pool(), SpiceInverterChain::values_for)),
            (
                "array5x4",
                newton_totals(&array, array.solver_pool(), |x, corner, h| {
                    SpiceSenseAmpArray::values_for(5, x, corner, h)
                }),
            ),
        ];
        for (name, (warm, ladder)) in totals {
            assert!(2 * warm <= ladder, "{name}: {warm} warm vs {ladder} ladder iterations");
        }
    }

    /// Evaluates a point whose pooled solve fails to converge and checks
    /// that the escalated retry recovers it: the ledger moves by exactly
    /// one nonconvergent and one recovered, and the metrics keep their
    /// recorded bits.
    fn assert_recovers_once(
        circuit: &dyn Circuit,
        x: &[f64],
        corner: PvtCorner,
        h: &[f64],
        bits: [u64; 3],
    ) {
        let before = circuit.failure_stats();
        let m = circuit.evaluate(x, &corner, &MismatchVector::from_values(h.to_vec()));
        let moved = circuit.failure_stats().since(before);
        assert_eq!(moved, FailureStats { nonconvergent: 1, recovered: 1, degraded: 0 });
        assert_eq!(m.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits, "metrics {m:?}");
        // Nominal mismatch at the same design converges on the pool.
        circuit.evaluate(x, &corner, &MismatchVector::nominal(h.len()));
        assert_eq!(circuit.failure_stats().since(before).nonconvergent, 1);
    }

    /// A recorded OTA point whose pooled solve — Newton from the warm
    /// start, then the ladder from zeros — fails to converge and whose
    /// escalated retry recovers: an extreme design at a fast, cold,
    /// low-supply corner.
    const OTA_RETRY_X: [f64; 6] = [1.0, 0.5720632950372748, 1.0, 0.0, 1.0, 0.8683992990655602];
    const OTA_RETRY_H: [f64; 10] = [
        -0.008357612319124142,
        -0.01044521704384766,
        -0.00908718530292888,
        0.009844731093626158,
        0.019485202354127203,
        -0.07783685255411298,
        0.013671628963836698,
        -0.07498850719012799,
        0.01821626335071631,
        -0.0581834918199403,
    ];
    const OTA_RETRY_CORNER: PvtCorner =
        PvtCorner { process: ProcessCorner::Ff, vdd: 0.8, temp_c: -40.0 };

    /// The same for the 8-stage chain, at twenty times its mismatch
    /// spread with the relative β shifts floored at −0.99 (the chain
    /// needs stages whose devices keep only 1% of their β before a
    /// pooled solve fails).
    const CHAIN_RETRY_X: [f64; 4] =
        [0.8352355648531832, 0.1398843090347197, 0.32909817327506563, 0.10471616603032308];
    const CHAIN_RETRY_H: [f64; 32] = [
        0.4795257755246055,
        -0.99,
        -0.1419602455574861,
        0.011650963287355431,
        -0.2724081452872635,
        -0.99,
        -0.4975841014565058,
        0.9036015126636274,
        -0.2634941071057794,
        0.43938782619958994,
        -0.3559667080568656,
        1.2000860231586494,
        -0.16161393700729568,
        0.062036914767322954,
        -0.20605425578071948,
        1.1151533514439298,
        0.15764581081830142,
        -0.980653625486258,
        -0.6964925750828725,
        0.6187722801237073,
        0.06611642296814646,
        1.2641579584313987,
        -0.619626804423927,
        0.8859519105506614,
        -0.03944416768783689,
        0.8333599151738584,
        -0.3475420292774333,
        1.2925728831603476,
        -0.16495936465622424,
        1.0628283009779351,
        -0.020835384537921595,
        2.3350662823492274,
    ];
    const CHAIN_RETRY_CORNER: PvtCorner =
        PvtCorner { process: ProcessCorner::Ss, vdd: 0.8, temp_c: 27.0 };

    #[test]
    fn ota_escalated_retry_recovers_a_nonconvergent_point() {
        let bits = [0xc04c_0fc2_b4e4_e7a0, 0x3ff9_0058_a88f_b27c, 0x4044_0005_4e61_f570];
        assert_recovers_once(&SpiceOta::new(), &OTA_RETRY_X, OTA_RETRY_CORNER, &OTA_RETRY_H, bits);
    }

    #[test]
    fn chain_escalated_retry_recovers_a_nonconvergent_point() {
        let bits = [0x4091_590a_b392_2b5a, 0x3fe8_7e62_25b6_c91b, 0x3fc1_9dff_ca66_6fdc];
        let chain = SpiceInverterChain::new(8);
        assert_recovers_once(&chain, &CHAIN_RETRY_X, CHAIN_RETRY_CORNER, &CHAIN_RETRY_H, bits);
    }

    /// Every metric bit and every failure-ledger move of `evaluate` on a
    /// fixed point list per SPICE testcase shape that sizing jobs run:
    /// 24 seeded points (a uniform design vector, a corner of the
    /// industrial 30-corner set, global-local mismatch drawn from that
    /// design's own domain), the two corners of the design box at
    /// nominal mismatch, and the recorded retry points. A device value
    /// written out of order, or any other change to the evaluation
    /// arithmetic, moves this digest. Re-recorded when pooled solves
    /// began at the pool's warm start, every factor took the AMD
    /// pre-order and the retry points were searched anew.
    #[test]
    fn golden_evaluation_digest() {
        use glova_stats::hash::Fnv1a;
        use glova_stats::rng::{seeded, Rng};
        use glova_variation::corner::CornerSet;
        use glova_variation::sampler::{MismatchSampler, VarianceLayers};

        const GOLDEN_EVALUATION: u64 = 0xe7ca_bef5_c498_8629;

        fn absorb(
            digest: &mut Fnv1a,
            circuit: &dyn Circuit,
            x: &[f64],
            corner: &PvtCorner,
            h: &MismatchVector,
        ) {
            let before = circuit.failure_stats();
            digest.write_f64_slice(&circuit.evaluate(x, corner, h));
            let moved = circuit.failure_stats().since(before);
            for count in [moved.nonconvergent, moved.recovered, moved.degraded] {
                digest.write_u64(count);
            }
        }

        let ota = SpiceOta::new();
        let chain = SpiceInverterChain::new(8);
        let small = SpiceSenseAmpArray::new(5, 4);
        let large = SpiceSenseAmpArray::new(12, 12);
        let corners = CornerSet::industrial_30();
        let mut rng = seeded(0x5eed);
        let mut digest = Fnv1a::new();
        for circuit in [&ota as &dyn Circuit, &chain, &small, &large] {
            for _ in 0..24 {
                let x: Vec<f64> = (0..circuit.dim()).map(|_| rng.gen::<f64>()).collect();
                let corner = corners.corner(rng.gen_range(0..corners.len()));
                let sampler =
                    MismatchSampler::new(circuit.mismatch_domain(&x), VarianceLayers::GLOBAL_LOCAL);
                let h = sampler.sample_independent(&mut rng, 1).remove(0);
                absorb(&mut digest, circuit, &x, &corner, &h);
            }
            for edge in [0.0, 1.0] {
                let x = vec![edge; circuit.dim()];
                let corner = corners.corner(rng.gen_range(0..corners.len()));
                let h = MismatchVector::nominal(circuit.mismatch_domain(&x).dim());
                absorb(&mut digest, circuit, &x, &corner, &h);
            }
        }
        let retry = |h: &[f64]| MismatchVector::from_values(h.to_vec());
        absorb(&mut digest, &ota, &OTA_RETRY_X, &OTA_RETRY_CORNER, &retry(&OTA_RETRY_H));
        absorb(&mut digest, &chain, &CHAIN_RETRY_X, &CHAIN_RETRY_CORNER, &retry(&CHAIN_RETRY_H));
        assert_eq!(digest.finish(), GOLDEN_EVALUATION, "digest {:016x}", digest.finish());
    }
}
