//! DC operating-point analysis with `gmin` stepping.
//!
//! [`operating_point`] and its variants run the `gmin` ladder from a
//! caller's guess (all zeros by default). [`OpSolver`] keeps one
//! topology, template, factorization and set of Newton working vectors
//! across solves; [`OpSolver::retarget_values`] writes a new value slice
//! into the template in place. A primed solver also keeps a warm start —
//! the operating point of the values it was primed on — and solves each
//! point by plain Newton at the final `gmin` from there, falling back to
//! the ladder from zeros only when that fails. [`OpSolverPool`] clones
//! one primed solver, warm start included, per worker thread.

use crate::device::DeviceValue;
use crate::mna::{MnaState, MnaTemplate, NewtonOptions, StampContext};
use crate::netlist::{Netlist, NodeId};
use crate::SpiceError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A solved DC operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    solution: Vec<f64>,
    n_nodes: usize,
}

impl OperatingPoint {
    pub(crate) fn new(solution: Vec<f64>, n_nodes: usize) -> Self {
        Self { solution, n_nodes }
    }

    /// Voltage of `node` (0 V for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.solution[node.index() - 1]
        }
    }

    /// Branch current of voltage source `branch` (positive into the plus
    /// terminal).
    pub fn branch_current(&self, branch: usize) -> f64 {
        self.solution[self.n_nodes + branch]
    }

    /// The raw MNA solution vector.
    pub fn raw(&self) -> &[f64] {
        &self.solution
    }
}

/// The `gmin` continuation ladder: start heavily regularized, relax to the
/// final operating point.
const GMIN_LADDER: [f64; 5] = [1e-3, 1e-5, 1e-7, 1e-9, 1e-12];

/// The `gmin` of the final rung — the system every converged operating
/// point solves.
const FINAL_GMIN: f64 = GMIN_LADDER[GMIN_LADDER.len() - 1];

/// The stamp context every DC template is built and retargeted under.
const DC_CONTEXT: StampContext<'static> =
    StampContext { time: 0.0, step: None, gmin: GMIN_LADDER[0] };

/// A reusable operating-point solver for one netlist topology.
///
/// [`operating_point`] rebuilds the assembly template and solver state on
/// every call; sweep-style callers — corner/mismatch campaigns, parameter
/// sweeps, benchmark loops — solve the *same topology* thousands of
/// times, so this wrapper builds both once and keeps them across
/// [`solve`](Self::solve) calls: the pivot order and fill pattern are
/// computed once for the whole sweep, and every later factorization
/// anywhere in a solve is numeric-only.
///
/// # Warm start
///
/// A [`primed`](Self::primed) solver also keeps the operating point of
/// the values it was primed on (the full `gmin` ladder from zeros), and
/// every clone carries it. Its [`solve`](Self::solve) runs plain Newton
/// at the final `gmin` from that point, and falls back to the ladder from
/// zeros only when that fails. The start is fixed at priming, so a
/// solve stays a pure function of the values it is retargeted at and the
/// values the solver was primed on — never of the solves before it,
/// unless one of those re-pivoted (see [`repivots`](Self::repivots);
/// [`OpSolverPool`] retires such a solver). An unprimed solver
/// ([`new`](Self::new), [`with_values`](Self::with_values)) has no
/// start and runs the ladder from zeros, like [`operating_point`].
///
/// For sweeps whose *device values* change per point (corner/mismatch
/// campaigns), [`retarget_values`](Self::retarget_values) writes each
/// point's value slice into the template of the one topology while
/// keeping the factorization — and [`OpSolverPool`] extends the pattern
/// across worker threads by cloning one primed solver per worker. The
/// topology and the warm start are shared, never copied, between clones.
#[derive(Debug, Clone)]
pub struct OpSolver {
    state: MnaState,
    options: NewtonOptions,
    /// The topology the template was walked over (its values are the
    /// construction-time ones; value retargets leave them alone).
    topology: Arc<Netlist>,
    /// The operating point of the priming values, where every solve's
    /// Newton iteration starts; `None` when unprimed or when that solve
    /// failed.
    warm_start: Option<Arc<[f64]>>,
}

impl OpSolver {
    /// Builds the template once for `netlist`, which the solver keeps as
    /// its topology without copying it.
    pub fn new(netlist: Netlist, options: NewtonOptions) -> Self {
        let topology = Arc::new(netlist);
        Self::with_values(Arc::clone(&topology), topology.values(), options)
    }

    /// Builds the template once over the shared `topology` with device
    /// values `values` — [`new`](Self::new) over a netlist carrying
    /// `values`, bit for bit, without building or copying one.
    ///
    /// # Panics
    ///
    /// Panics unless `topology` [accepts](Netlist::accepts) `values`.
    pub fn with_values(
        topology: Arc<Netlist>,
        values: &[DeviceValue],
        options: NewtonOptions,
    ) -> Self {
        let state = MnaTemplate::new(&topology, values, &DC_CONTEXT).into_state();
        Self { state, options, topology, warm_start: None }
    }

    /// [`new`](Self::new) plus an eager [`prime`](Self::prime) and the
    /// warm start: the returned solver already carries a factorization,
    /// so its clones share one symbolic analysis, and the operating point
    /// of `netlist`'s own values, solved on a clone by the ladder from
    /// zeros, which every later [`solve`](Self::solve) starts from. If
    /// that solve fails, the solver keeps no start.
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] for structurally singular netlists.
    pub fn primed(netlist: Netlist, options: NewtonOptions) -> Result<Self, SpiceError> {
        let mut solver = Self::new(netlist, options);
        solver.prime()?;
        solver.warm_start = solver.clone().solve().ok().map(|op| op.raw().into());
        Ok(solver)
    }

    /// Assembles and factors the system at the all-zeros estimate under
    /// the first `gmin` rung — exactly the system the first iteration of
    /// a ladder from zeros factors, so priming never changes results.
    /// After priming, the solver (and every clone of it) carries the
    /// symbolic factorization; see [`MnaState::prime`].
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] for structurally singular netlists.
    pub fn prime(&mut self) -> Result<(), SpiceError> {
        self.state.prime(GMIN_LADDER[0])
    }

    /// Writes `values` — one per device of the solver's topology, in
    /// device order — into the template in place: the sweep primitive.
    /// No template rebuild, no allocation, no pattern change, and the
    /// factorization and warm start survive; the assembled systems are
    /// bitwise identical to those of a solver freshly built over a
    /// netlist carrying `values`. The slice is checked against the
    /// topology by count and per-device kind.
    ///
    /// # Panics
    ///
    /// Panics unless the solver's topology [accepts](Netlist::accepts)
    /// `values`.
    pub fn retarget_values(&mut self, values: &[DeviceValue]) {
        assert!(self.topology.accepts(values), "device values do not fit the solver's topology");
        self.state.write_values(&self.topology, values, &DC_CONTEXT);
    }

    /// The Newton options this solver runs with.
    pub fn options(&self) -> &NewtonOptions {
        &self.options
    }

    /// The warm start every solve begins from (see the
    /// [type docs](Self#warm-start)); `None` for an unprimed solver.
    pub fn warm_start(&self) -> Option<&[f64]> {
        self.warm_start.as_deref()
    }

    /// Times the solver abandoned its frozen pivot order for a fresh
    /// analysis after a numeric pivot collapse (see
    /// [`MnaState::repivots`]).
    pub fn repivots(&self) -> u64 {
        self.state.repivots()
    }

    /// Computes the operating point: plain Newton at the final `gmin`
    /// from the warm start, or — without a start, or when that fails —
    /// the `gmin` ladder from all zeros. A failed warm attempt leaves
    /// nothing the ladder reads: every Newton run refreshes the factor
    /// from its own assembled values first, and a warm attempt that
    /// re-pivoted hands the ladder back the primed pivot order.
    ///
    /// # Errors
    ///
    /// See [`operating_point`].
    pub fn solve(&mut self) -> Result<OperatingPoint, SpiceError> {
        let n_nodes = self.topology.node_count() - 1;
        if let Some(warm) = &self.warm_start {
            let repivots = self.state.repivots();
            let start = self.state.start_mut();
            start.clear();
            start.extend_from_slice(warm);
            if self.state.newton_from_start(FINAL_GMIN, &self.options).is_ok() {
                return Ok(OperatingPoint::new(self.state.start().to_vec(), n_nodes));
            }
            if self.state.repivots() != repivots {
                self.state.restore_primed_factor();
            }
        }
        let start = self.state.start_mut();
        start.clear();
        start.resize(self.topology.unknown_count(), 0.0);
        ladder_solve(&mut self.state, &self.options, n_nodes)
    }

    /// Cumulative Newton/chord iterations this solver has run (all
    /// solves, warm attempts and `gmin` rungs) — the deterministic work
    /// measure of a solve sequence.
    pub fn newton_iterations(&self) -> u64 {
        self.state.newton_iterations()
    }
}

/// A thread-safe pool of per-worker [`OpSolver`]s sharing one symbolic
/// analysis — the execution substrate for thread-parallel SPICE
/// corner/mismatch sweeps.
///
/// The pool holds one **primed prototype** (template built, system
/// factored — including the pivot order and fill pattern, the expensive
/// symbolic step — and the warm start solved). Each concurrent
/// [`with_solver`](Self::with_solver) caller checks a solver out of the
/// free list, or clones the prototype when the list is empty — so a
/// `Threaded` engine with `N` workers materializes at most `N` solvers,
/// each a symbolic clone paying only numeric refactorizations, while a
/// sequential sweep materializes exactly one.
///
/// # Determinism
///
/// Every pooled solver derives from the same prototype, so all of them
/// carry the *canonical* symbolic factorization and the same warm start;
/// a solve is a pure function of the values it is retargeted at and of
/// the pool (Newton runs from the pool's fixed start, the ladder from
/// zeros, and refactoring overwrites all numeric state). If a solve has
/// to re-pivot (a frozen pivot collapsed on some
/// extreme point), that solver's pivot order is no longer canonical — the
/// pool detects this via [`OpSolver::repivots`] and retires the solver,
/// replacing it with a fresh prototype clone, so results stay bitwise
/// independent of worker count and of which worker solved which point.
/// `tests/spice_engine_parity.rs` locks this in end to end.
#[derive(Debug)]
pub struct OpSolverPool {
    prototype: OpSolver,
    free: Mutex<Vec<OpSolver>>,
    /// Upper bound on the free list — see [`Self::DEFAULT_FREE_CAPACITY`].
    free_capacity: usize,
    spawned: AtomicUsize,
    retired: AtomicUsize,
    retired_panic: AtomicUsize,
    dropped: AtomicUsize,
}

impl OpSolverPool {
    /// Default bound on idle solvers retained by the free list.
    ///
    /// The free list grows to the *peak* concurrent checkout count, and —
    /// before this cap existed — never shrank. That was harmless for a
    /// sweep-local pool that dies with its sweep, but a process-wide
    /// registry resident would pin peak-burst × per-solver factorization
    /// memory forever. Solvers returned while the list is full are
    /// dropped instead (counted by [`Self::solvers_dropped`]); a later
    /// burst simply re-clones the prototype, which is cheap next to the
    /// symbolic analysis the prototype already amortizes.
    pub const DEFAULT_FREE_CAPACITY: usize = 32;

    /// Builds and primes the prototype solver for `netlist`, whose values
    /// fix the pool's pivot order and warm start (see
    /// [`OpSolver::primed`]).
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] for structurally singular netlists.
    pub fn new(netlist: Netlist, options: NewtonOptions) -> Result<Self, SpiceError> {
        Ok(Self {
            prototype: OpSolver::primed(netlist, options)?,
            free: Mutex::new(Vec::new()),
            free_capacity: Self::DEFAULT_FREE_CAPACITY,
            spawned: AtomicUsize::new(0),
            retired: AtomicUsize::new(0),
            retired_panic: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
        })
    }

    /// Overrides the free-list bound (clamped to ≥ 1; builder style).
    pub fn with_free_capacity(mut self, capacity: usize) -> Self {
        self.free_capacity = capacity.max(1);
        self
    }

    /// The Newton options every pooled solver runs with.
    pub fn options(&self) -> &NewtonOptions {
        self.prototype.options()
    }

    /// The topology every pooled solver was built over, shared by all of
    /// them (and by any caller that needs its connectivity) without a
    /// copy.
    pub fn topology(&self) -> &Arc<Netlist> {
        &self.prototype.topology
    }

    /// Solvers materialized so far (prototype clones). Bounded by the
    /// peak number of concurrent [`with_solver`](Self::with_solver)
    /// callers — one per engine worker.
    pub fn solvers_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Solvers retired after a re-pivot (each replaced by a fresh
    /// prototype clone on return). Includes panic retirements.
    pub fn solvers_retired(&self) -> usize {
        self.retired.load(Ordering::Relaxed)
    }

    /// Solvers retired specifically because their checkout unwound —
    /// the pool-hygiene counter fault-injection batteries assert on
    /// (every injected panic inside a solve must show up here, never as
    /// a leaked or aliased solver).
    pub fn solvers_retired_panic(&self) -> usize {
        self.retired_panic.load(Ordering::Relaxed)
    }

    /// Solvers dropped on return because the free list was at its bound.
    pub fn solvers_dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Idle solvers currently parked on the free list (bounded by the
    /// configured free capacity).
    pub fn free_len(&self) -> usize {
        self.free.lock().expect("solver pool poisoned").len()
    }

    /// Runs `f` with a checked-out per-worker solver, returning it to the
    /// pool afterwards. Never blocks on other workers' solves: the free
    /// list is only locked for the O(1) pop/push, and an empty list
    /// clones the prototype instead of waiting.
    ///
    /// A solver whose [`OpSolver::repivots`] moved during the checkout
    /// is retired; one that only took value retargets and solves always
    /// returns to the free list.
    ///
    /// Panic-safe: if `f` unwinds, the solver is still returned —
    /// retired to a fresh prototype clone, since a solve abandoned
    /// mid-flight may carry non-canonical state — so the pool's size
    /// stays bounded by the peak worker count even under panicking
    /// callers.
    pub fn with_solver<R>(&self, f: impl FnOnce(&mut OpSolver) -> R) -> R {
        /// Returns the checked-out solver on every exit path (normal or
        /// unwind), applying the canonical-symbolic retirement rule.
        struct Checkout<'a> {
            pool: &'a OpSolverPool,
            solver: Option<OpSolver>,
            repivots_before: u64,
        }
        impl Drop for Checkout<'_> {
            fn drop(&mut self) {
                let Some(solver) = self.solver.take() else { return };
                let canonical =
                    !std::thread::panicking() && solver.repivots() == self.repivots_before;
                let returned = if canonical {
                    solver
                } else {
                    // The solver's pivot order diverged from the
                    // canonical one (or its solve unwound mid-flight) —
                    // retire it so every future checkout still sees the
                    // prototype's symbolic factorization.
                    self.pool.retired.fetch_add(1, Ordering::Relaxed);
                    if std::thread::panicking() {
                        self.pool.retired_panic.fetch_add(1, Ordering::Relaxed);
                    }
                    self.pool.prototype.clone()
                };
                // During an unwind a poisoned lock must not escalate to
                // a double panic; losing the return there only costs a
                // future re-clone. A full free list drops the solver
                // instead of parking it, bounding a long-lived pool's
                // memory at `free_capacity` idle factorizations.
                if let Ok(mut free) = self.pool.free.lock() {
                    if free.len() < self.pool.free_capacity {
                        free.push(returned);
                    } else {
                        drop(free);
                        self.pool.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }

        let solver = self.free.lock().expect("solver pool poisoned").pop().unwrap_or_else(|| {
            self.spawned.fetch_add(1, Ordering::Relaxed);
            self.prototype.clone()
        });
        let repivots_before = solver.repivots();
        let mut checkout = Checkout { pool: self, solver: Some(solver), repivots_before };
        f(checkout.solver.as_mut().expect("solver present until drop"))
    }
}

/// Computes the DC operating point (capacitors open, sources at `t = 0`).
///
/// Uses `gmin` stepping: each rung of the ladder reuses the previous rung's
/// solution as its Newton starting point, which makes strongly nonlinear
/// (positive-feedback) circuits like latches converge reliably.
///
/// # Errors
///
/// [`SpiceError::NonConvergent`] if even the most regularized rung fails,
/// [`SpiceError::SingularMatrix`] for structurally singular netlists.
pub fn operating_point(netlist: &Netlist) -> Result<OperatingPoint, SpiceError> {
    operating_point_from(netlist, &vec![0.0; netlist.unknown_count()])
}

/// Like [`operating_point`] but starting from a caller-provided guess
/// (e.g. a previous solve of a slightly perturbed netlist).
///
/// # Errors
///
/// See [`operating_point`].
pub fn operating_point_from(
    netlist: &Netlist,
    initial: &[f64],
) -> Result<OperatingPoint, SpiceError> {
    operating_point_with_options(netlist, initial, &NewtonOptions::default())
}

/// Like [`operating_point_from`] with explicit Newton controls — e.g.
/// [`NewtonOptions::full_newton`] to disable the chord-iteration LU reuse
/// when parity-checking the two Jacobian strategies.
///
/// # Errors
///
/// See [`operating_point`].
pub fn operating_point_with_options(
    netlist: &Netlist,
    initial: &[f64],
    options: &NewtonOptions,
) -> Result<OperatingPoint, SpiceError> {
    // One assembly template serves every rung: the ladder varies only
    // gmin, which the template applies per solve — the netlist is walked
    // once for the whole continuation, not once per rung. The shared
    // solver state likewise persists across rungs, so the pivot order
    // and fill pattern are computed once and every later rung pays
    // numeric-only refactorizations.
    let mut state = MnaTemplate::new(netlist, netlist.values(), &DC_CONTEXT).into_state();
    state.start_mut().extend_from_slice(initial);
    ladder_solve(&mut state, options, netlist.node_count() - 1)
}

/// The `gmin` continuation over prebuilt solver state, from the initial
/// guess the caller wrote into [`MnaState::start_mut`]. Each rung starts
/// from the last converged solution, which the state keeps in place.
fn ladder_solve(
    state: &mut MnaState,
    options: &NewtonOptions,
    n_nodes: usize,
) -> Result<OperatingPoint, SpiceError> {
    let mut last_err = None;
    let mut converged_any = false;

    for (rung, &gmin) in GMIN_LADDER.iter().enumerate() {
        match state.newton_from_start(gmin, options) {
            Ok(()) => converged_any = true,
            // A singular matrix on the *most-regularized* rung (with its
            // large gmin on every node diagonal) is structural — a
            // floating node or V-source loop that every later rung would
            // hit identically, so abort. On later rungs a singular pivot
            // is a numerical event at some wild Newton iterate (e.g. an
            // all-devices-off excursion on a long inverter chain);
            // treat it like non-convergence and let the continuation
            // recover from the best solution so far.
            Err(e @ SpiceError::SingularMatrix) if rung == 0 && !converged_any => return Err(e),
            Err(e) => last_err = Some(e),
        }
    }

    // The final rung must have converged for the result to be meaningful.
    match state.newton_from_start(FINAL_GMIN, options) {
        Ok(()) => Ok(OperatingPoint::new(state.start().to_vec(), n_nodes)),
        Err(e) => {
            if converged_any {
                Err(e)
            } else {
                Err(last_err.unwrap_or(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MosModel;
    use crate::netlist::GROUND;

    #[test]
    fn resistor_divider() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let mid = nl.node("mid");
        nl.vsource("V1", vin, GROUND, 1.0);
        nl.resistor("R1", vin, mid, 1e3);
        nl.resistor("R2", mid, GROUND, 1e3);
        let op = operating_point(&nl).unwrap();
        assert!((op.voltage(mid) - 0.5).abs() < 1e-8);
        assert!((op.voltage(vin) - 1.0).abs() < 1e-10);
        assert_eq!(op.voltage(GROUND), 0.0);
    }

    #[test]
    fn diode_connected_nmos_sits_above_vth() {
        // Current source into a diode-connected NMOS: V settles at
        // vth + sqrt(2 I / (kp W/L)).
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let model = MosModel::nmos_28nm();
        nl.isource("I1", GROUND, d, 100e-6);
        nl.mosfet("M1", d, d, GROUND, model, 10.0, 0.1);
        let op = operating_point(&nl).unwrap();
        let v = op.voltage(d);
        let expect = model.vth0 + (2.0 * 100e-6 / (model.kp * 100.0)).sqrt();
        assert!((v - expect).abs() < 0.02, "diode voltage {v} vs {expect}");
    }

    #[test]
    fn nmos_inverter_transfer_points() {
        // Resistor-loaded NMOS inverter: input low → output high; input
        // high → output pulled low.
        let build = |vin_v: f64| {
            let mut nl = Netlist::new();
            let vdd = nl.node("vdd");
            let vin = nl.node("vin");
            let out = nl.node("out");
            nl.vsource("VDD", vdd, GROUND, 0.9);
            nl.vsource("VIN", vin, GROUND, vin_v);
            nl.resistor("RL", vdd, out, 10e3);
            nl.mosfet("M1", out, vin, GROUND, MosModel::nmos_28nm(), 2.0, 0.1);
            nl
        };
        let op_low = operating_point(&build(0.0)).unwrap();
        let op_high = operating_point(&build(0.9)).unwrap();
        let out_low = {
            let mut nl = build(0.0);
            let out = nl.node("out");
            op_low.voltage(out)
        };
        let out_high = {
            let mut nl = build(0.9);
            let out = nl.node("out");
            op_high.voltage(out)
        };
        assert!(out_low > 0.85, "output should be high, got {out_low}");
        assert!(out_high < 0.2, "output should be pulled low, got {out_high}");
    }

    #[test]
    fn cmos_inverter_rails() {
        let build = |vin_v: f64| -> (Netlist, NodeId) {
            let mut nl = Netlist::new();
            let vdd = nl.node("vdd");
            let vin = nl.node("vin");
            let out = nl.node("out");
            nl.vsource("VDD", vdd, GROUND, 0.9);
            nl.vsource("VIN", vin, GROUND, vin_v);
            nl.mosfet("MP", out, vin, vdd, MosModel::pmos_28nm(), 2.0, 0.05);
            nl.mosfet("MN", out, vin, GROUND, MosModel::nmos_28nm(), 1.0, 0.05);
            (nl, out)
        };
        let (nl_low, out) = build(0.0);
        let op = operating_point(&nl_low).unwrap();
        assert!(op.voltage(out) > 0.88, "inverter high: {}", op.voltage(out));
        let (nl_high, out) = build(0.9);
        let op = operating_point(&nl_high).unwrap();
        assert!(op.voltage(out) < 0.02, "inverter low: {}", op.voltage(out));
    }

    #[test]
    fn branch_current_measures_supply_draw() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        nl.vsource("VDD", vdd, GROUND, 1.0);
        nl.resistor("R", vdd, GROUND, 1e3);
        let op = operating_point(&nl).unwrap();
        let branch = nl.vsource_branch("VDD").unwrap();
        assert!((op.branch_current(branch) + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn empty_netlist_is_trivially_solved() {
        let nl = Netlist::new();
        let op = operating_point(&nl).unwrap();
        assert!(op.raw().is_empty());
    }

    #[test]
    fn value_slices_must_fit_the_topology() {
        use crate::device::DeviceValue;
        use crate::mna::NewtonOptions;
        use crate::netlist::inverter_chain;
        let fits = |values: &[DeviceValue]| {
            let mut solver = OpSolver::new(inverter_chain(4), NewtonOptions::default());
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                solver.retarget_values(values);
            }))
            .is_ok()
        };
        let values = inverter_chain(4).values().to_vec();
        assert!(fits(&values));
        // One device short, one too many, and a resistor value where a
        // MOSFET sits.
        assert!(!fits(&values[1..]));
        assert!(!fits(inverter_chain(5).values()));
        let mut swapped = values.clone();
        swapped.swap(2, 4);
        assert!(!fits(&swapped));
    }

    #[test]
    fn narrow_refresh_matches_full_newton_fixed_point() {
        use crate::mna::{JacobianStrategy, NewtonOptions};
        use crate::netlist::inverter_chain_with_load;
        // Chord iterates through a stale factor between refreshes; full
        // Newton refreshes every iteration. Both must reach the same
        // fixed point.
        let nl = inverter_chain_with_load(12, Some(10e3));
        let chord = NewtonOptions::default();
        let full = NewtonOptions { strategy: JacobianStrategy::Full, ..NewtonOptions::default() };
        let op_chord = OpSolver::primed(nl.clone(), chord).unwrap().solve().unwrap();
        let op_full = OpSolver::primed(nl, full).unwrap().solve().unwrap();
        for (a, b) in op_chord.raw().iter().zip(op_full.raw()) {
            assert!((a - b).abs() < 1e-7, "chord+partial {a} vs full Newton {b}");
        }
    }

    /// Pooled solver digest: every operating-point bit (or, for a point
    /// that does not converge, its error kind), the checked-out solver's
    /// cumulative `newton_iterations()` after each point and the final
    /// `solvers_retired()` of one [`OpSolverPool`] per sparse pattern
    /// the workloads reach, each retargeted at the value slices of a fixed
    /// sequence of variants of its topology — the bit-level guard for the
    /// retargeted sparse refresh and the warm start. Re-recorded when
    /// pooled solves began at the pool's warm start and every factor
    /// took the AMD pre-order (the Markowitz order and the ladder from
    /// zeros had produced the earlier bits).
    #[test]
    fn golden_pooled_sweep_digest() {
        use crate::mna::NewtonOptions;
        use crate::netlist::{inverter_chain_with_load, sense_amp_array_with, SenseAmpParams};
        use glova_stats::hash::Fnv1a;

        const GOLDEN_POOLED: u64 = 0xd7ab_f87b_92d9_b558;

        fn sweep(digest: &mut Fnv1a, options: NewtonOptions, variants: &[Netlist]) {
            let pool = OpSolverPool::new(variants[0].clone(), options).unwrap();
            for nl in variants {
                pool.with_solver(|solver| {
                    solver.retarget_values(nl.values());
                    match solver.solve() {
                        Ok(op) => digest.write_f64_slice(op.raw()),
                        Err(e) => digest.write_u64(match e {
                            SpiceError::InvalidNetlist { .. } => 1,
                            SpiceError::NonConvergent { .. } => 2,
                            SpiceError::SingularMatrix => 3,
                        }),
                    }
                    digest.write_u64(solver.newton_iterations());
                });
            }
            digest.write_u64(pool.solvers_retired() as u64);
        }

        let d = SenseAmpParams::default();
        let senseamp_params = [
            d,
            SenseAmpParams { r_wordline: 600.0, w_latch_um: 0.7, ..d },
            SenseAmpParams { r_cell: 50e3, r_precharge: 3e3, ..d },
            SenseAmpParams { r_cell: 50e3, r_precharge: 3e3, ..d },
            SenseAmpParams { vdd: 0.81, w_access_um: 1.2, ..d },
            SenseAmpParams { vdd: 0.99, l_um: 0.06, w_latch_um: 0.35, ..d },
            SenseAmpParams { r_wordline: 1.6e3, r_cell: 200e3, ..d },
            SenseAmpParams { w_latch_um: 2.0, w_access_um: 4.0, ..d },
            SenseAmpParams { r_precharge: 500.0, l_um: 0.2, ..d },
            SenseAmpParams { vdd: 0.4, ..d },
            SenseAmpParams { r_cell: 1e9, w_latch_um: 5.0, ..d },
            d,
        ];
        let loads = [10e3, 4.7e3, 4.7e3, 22e3, 1e3, 100e3, 2.2e3, 15e3, 330.0, 1e6, 6.8e3, 10e3];
        let mut digest = Fnv1a::new();
        for (rows, cols) in [(5, 4), (12, 12)] {
            let variants: Vec<Netlist> =
                senseamp_params.iter().map(|p| sense_amp_array_with(rows, cols, p)).collect();
            sweep(&mut digest, NewtonOptions::default(), &variants);
        }
        for stages in [24, 8] {
            let variants: Vec<Netlist> =
                loads.iter().map(|&r| inverter_chain_with_load(stages, Some(r))).collect();
            sweep(&mut digest, NewtonOptions::default(), &variants);
        }
        assert_eq!(digest.finish(), GOLDEN_POOLED, "digest {:016x}", digest.finish());
    }

    /// A supply driving a four-node resistor network through a floating
    /// voltage source (`b`–`c`), resistances `r`. The floating source's
    /// branch is what lets a retarget collapse a frozen pivot of the
    /// pre-ordered factor.
    fn floating_source_network(r: [f64; 8]) -> Netlist {
        let mut nl = Netlist::new();
        let (a, b, c, d) = (nl.node("a"), nl.node("b"), nl.node("c"), nl.node("d"));
        nl.vsource("V1", a, GROUND, 1.0);
        nl.vsource("V2", b, c, 0.3);
        let ends = [(a, b), (b, c), (c, GROUND), (b, d), (d, GROUND), (c, d), (a, d), (b, GROUND)];
        for (k, ((p, q), ohms)) in ends.into_iter().zip(r).enumerate() {
            nl.resistor(&format!("R{k}"), p, q, ohms);
        }
        nl
    }

    /// The values every [`floating_source_network`] pool is primed on.
    const FLOATING_PRIMED: [f64; 8] = [0.044, 38e3, 8.2e3, 2e-3, 9.9, 87e3, 64e3, 610.0];

    /// A solve's outcome in comparable form: the operating point's bits,
    /// or the error.
    fn outcome(solved: Result<OperatingPoint, SpiceError>) -> Result<Vec<u64>, String> {
        solved
            .map(|op| op.raw().iter().map(|v| v.to_bits()).collect())
            .map_err(|e| format!("{e:?}"))
    }

    #[test]
    fn failed_warm_attempt_falls_back_to_the_ladder_bitwise() {
        use crate::mna::NewtonOptions;
        // Retargets whose Newton from the pool's warm start fails — once
        // plainly, once after re-pivoting, once where the ladder fails
        // too. Each pooled solve must return exactly what the ladder from
        // zeros returns over the pool's primed pivot order: a failed warm
        // attempt leaves no factor or pivot state the ladder reads.
        let options = NewtonOptions::default();
        let primed = floating_source_network(FLOATING_PRIMED);
        let pool = OpSolverPool::new(primed.clone(), options).unwrap();
        let cases = [
            ([1.6e8, 0.014, 7.6e10, 1300.0, 2.6e10, 0.047, 2.1e8, 2e11], false, true),
            ([2.1e10, 1e-6, 19.0, 1.7e8, 0.024, 7.5e10, 2100.0, 4.7e7], true, true),
            ([9000.0, 1.3e-5, 1.3e9, 4.9e9, 3.2, 9e5, 1.2e10, 2.2e6], false, false),
        ];
        for (r, warm_repivots, ladder_converges) in cases {
            let target = floating_source_network(r);
            let mut warm = pool.prototype.clone();
            warm.retarget_values(target.values());
            let start = warm.warm_start().expect("the primed network solves").to_vec();
            *warm.state.start_mut() = start;
            assert!(warm.state.newton_from_start(FINAL_GMIN, &options).is_err(), "{r:?}");
            assert_eq!(warm.repivots() > 0, warm_repivots, "{r:?}: warm re-pivot");

            let mut ladder = OpSolver::new(primed.clone(), options);
            ladder.prime().unwrap();
            ladder.retarget_values(target.values());
            let want = outcome(ladder.solve());
            assert_eq!(want.is_ok(), ladder_converges, "{r:?}: {want:?}");
            let got = pool.with_solver(|solver| {
                solver.retarget_values(target.values());
                outcome(solver.solve())
            });
            assert_eq!(got, want, "{r:?}");
        }
    }

    #[test]
    fn pool_retires_a_solver_whose_frozen_pivot_collapsed() {
        use crate::device::DeviceValue;
        use crate::mna::NewtonOptions;
        // The pool freezes its pivot order on moderate resistances; a
        // retarget to near-open (0.5–640 GΩ) and near-shorted (0.1 mΩ)
        // ones collapses a frozen pivot, so that solve re-pivots.
        let options = NewtonOptions::default();
        let primed = floating_source_network(FLOATING_PRIMED);
        let collapsing =
            floating_source_network([1.9e9, 1.1e-4, 30.0, 6.4e11, 2.2e9, 430.0, 1.1e6, 4.6e11]);
        let ordinary = floating_source_network([1e3, 2.2e3, 4.7e3, 10e3, 22e3, 47e3, 3.3e3, 6.8e3]);
        let solve_ordinary = |pool: &OpSolverPool| {
            pool.with_solver(|solver| {
                assert_eq!(solver.repivots(), 0, "checkouts carry the canonical pivot order");
                solver.retarget_values(ordinary.values());
                let op = solver.solve().expect("ordinary point solves");
                (
                    op.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    solver.newton_iterations(),
                )
            })
        };

        let pool = OpSolverPool::new(primed.clone(), options).unwrap();
        let before = solve_ordinary(&pool);
        let target: Vec<DeviceValue> = collapsing.values().to_vec();
        pool.with_solver(|solver| {
            solver.retarget_values(&target);
            solver.solve().expect("the re-pivoted solve converges");
            assert_eq!(solver.repivots(), 1, "the frozen pivot order collapsed once");
        });
        assert_eq!(pool.solvers_retired(), 1, "the re-pivoted solver is retired");
        assert_eq!(pool.solvers_retired_panic(), 0);
        assert_eq!(pool.solvers_spawned(), 1, "its replacement is a prototype clone");
        // The replacement solves an ordinary point to the bits (and
        // Newton iterations) a fresh pool's first solve gives.
        let fresh = OpSolverPool::new(primed, options).unwrap();
        let after = solve_ordinary(&pool);
        assert_eq!(after, solve_ordinary(&fresh));
        assert_eq!(after.0, before.0);
    }

    #[test]
    fn pool_free_list_is_bounded() {
        use crate::mna::NewtonOptions;
        use crate::netlist::inverter_chain_with_load;
        let pool =
            OpSolverPool::new(inverter_chain_with_load(4, Some(10e3)), NewtonOptions::default())
                .unwrap()
                .with_free_capacity(2);
        // Nested checkouts force four concurrent solvers into existence…
        pool.with_solver(|a| {
            a.solve().unwrap();
            pool.with_solver(|b| {
                b.solve().unwrap();
                pool.with_solver(|c| {
                    c.solve().unwrap();
                    pool.with_solver(|d| {
                        d.solve().unwrap();
                    });
                });
            });
        });
        assert_eq!(pool.solvers_spawned(), 4, "peak concurrency materializes four solvers");
        // …but only `free_capacity` of them are parked; the rest are
        // dropped on return instead of pinning memory forever.
        assert_eq!(pool.free_len(), 2, "free list must not exceed its bound");
        assert_eq!(pool.solvers_dropped(), 2);
        // The pool still serves checkouts normally afterwards.
        pool.with_solver(|solver| {
            solver.solve().unwrap();
        });
        assert_eq!(pool.solvers_spawned(), 4, "parked solvers are reused, not re-cloned");
    }

    #[test]
    fn pool_survives_panicking_callers() {
        use crate::mna::NewtonOptions;
        use crate::netlist::inverter_chain_with_load;
        let pool =
            OpSolverPool::new(inverter_chain_with_load(4, Some(10e3)), NewtonOptions::default())
                .unwrap();
        for _ in 0..3 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.with_solver(|_| panic!("caller failure"));
            }));
            assert!(caught.is_err());
        }
        // Every unwound checkout was retired and replaced — the pool
        // stays bounded and usable.
        assert_eq!(pool.solvers_spawned(), 1, "unwinds must not leak checkouts");
        assert_eq!(pool.solvers_retired(), 3);
        assert_eq!(
            pool.solvers_retired_panic(),
            3,
            "panic retirements must be attributed to the unwind path"
        );
        pool.with_solver(|solver| {
            assert_eq!(solver.repivots(), 0, "post-panic checkout is a canonical clone");
            solver.solve().unwrap();
        });
        // A clean checkout after the panics must not move the panic
        // counter; only repivot retirements are reason-neutral.
        assert_eq!(pool.solvers_retired_panic(), 3);
    }
}
