//! Modified nodal analysis: matrix/RHS assembly and Newton iteration.
//!
//! Unknowns are the non-ground node voltages followed by one branch current
//! per voltage source. Nonlinear devices (MOSFETs) are linearized around the
//! current solution estimate with companion stamps; capacitors contribute
//! backward-Euler companion conductances during transient steps and are open
//! in DC.
//!
//! The sparse backend has one numeric refresh path
//! (`MnaState::refresh_factor`): the first factorization fixes the pivot
//! order and fill pattern, and every later refresh re-runs the compiled
//! elimination over every row of that frozen pattern. The factor is a
//! function of the assembled values alone, so a solve's result never
//! depends on the refreshes that came before it.

use crate::device::{Device, DeviceValue};
use crate::model::MosModel;
use crate::netlist::{Netlist, NodeId, SourceWaveform};
use crate::SpiceError;
use glova_linalg::sparse::{CsrMatrix, SparseLu, Triplets};
use glova_linalg::{FillOrdering, LinalgError, Lu, Matrix};

/// Assembly context: DC or one implicit transient step.
#[derive(Debug, Clone, Copy)]
pub struct StampContext<'a> {
    /// Simulation time for source waveform evaluation, seconds.
    pub time: f64,
    /// `Some((dt, previous_solution))` during a transient step.
    pub step: Option<(f64, &'a [f64])>,
    /// Conductance from every node to ground (convergence aid + floating
    /// node protection).
    pub gmin: f64,
}

/// Which linear-algebra backend the Newton iterations factor and solve
/// on.
///
/// Both backends produce node voltages that agree to well within the
/// Newton tolerance (locked in by `tests/solver_backend_parity.rs`); the
/// dense path is the long-standing reference/oracle, the sparse path is
/// the scaling one — MNA matrices carry `O(n)` nonzeros, so from a few
/// dozen unknowns the dense `O(n³)` factorization dominates every solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Pick by system size: dense below
    /// [`AUTO_SPARSE_THRESHOLD`](Self::AUTO_SPARSE_THRESHOLD) unknowns,
    /// sparse at or above it.
    #[default]
    Auto,
    /// Always the dense LU (`glova_linalg::Lu`).
    Dense,
    /// Always the sparse LU (`glova_linalg::sparse::SparseLu`).
    Sparse,
}

impl SolverBackend {
    /// Unknown count at which [`SolverBackend::Auto`] switches to the
    /// sparse backend. Below this the dense factorization's tiny constant
    /// factors win; at and above it the sparse solver's `O(nnz)`
    /// elimination pulls ahead (measured crossover on inverter chains is
    /// between the 4-stage and 24-stage sizes).
    pub const AUTO_SPARSE_THRESHOLD: usize = 20;

    /// Whether this backend resolves to sparse for a system of
    /// `unknowns` unknowns.
    pub fn resolves_to_sparse(self, unknowns: usize) -> bool {
        match self {
            SolverBackend::Auto => unknowns >= Self::AUTO_SPARSE_THRESHOLD,
            SolverBackend::Dense => false,
            SolverBackend::Sparse => true,
        }
    }

    /// Parses `auto` / `dense` / `sparse` (the CLI override format).
    ///
    /// # Errors
    ///
    /// Returns a usage message for anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(SolverBackend::Auto),
            "dense" => Ok(SolverBackend::Dense),
            "sparse" => Ok(SolverBackend::Sparse),
            other => Err(format!("unknown solver backend `{other}` (use auto|dense|sparse)")),
        }
    }
}

impl std::fmt::Display for SolverBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SolverBackend::Auto => "auto",
            SolverBackend::Dense => "dense",
            SolverBackend::Sparse => "sparse",
        })
    }
}

/// How a retarget was applied — and, for solver pools, whether the
/// retargeted state still carries the canonical symbolic factorization.
///
/// Returned by [`MnaState::retarget`] /
/// [`OpSolver::retarget`](crate::dc::OpSolver::retarget) so callers act
/// on an explicit classification instead of inferring the topology case
/// from side-channel counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetargetOutcome {
    /// Value-only fast path: same topology fingerprint, stamp values
    /// rewritten in place. Template, pattern and any frozen factorization
    /// all survive.
    Values,
    /// Same backend/dimension/pattern, but the template was rebuilt from
    /// a netlist walk and swapped in. The frozen factorization survives.
    Pattern,
    /// Different topology: the state was rebuilt wholesale, abandoning
    /// the factorization and (on the sparse backend) the canonical pivot
    /// order — solver pools must retire the instance.
    Topology,
}

/// Maps a node to its row/column in the MNA system (`None` for ground).
fn node_index(node: NodeId) -> Option<usize> {
    if node.is_ground() {
        None
    } else {
        Some(node.index() - 1)
    }
}

/// Adds `value` at `(row(a), col(b))` when both are non-ground.
fn stamp(matrix: &mut Matrix, a: Option<usize>, b: Option<usize>, value: f64) {
    if let (Some(i), Some(j)) = (a, b) {
        matrix[(i, j)] += value;
    }
}

/// Adds `value` into the RHS at `row(a)` when non-ground.
fn stamp_rhs(rhs: &mut [f64], a: Option<usize>, value: f64) {
    if let Some(i) = a {
        rhs[i] += value;
    }
}

/// One MOSFET's pre-resolved nonlinear stamp: node indices, polarity and
/// geometry ratio extracted once per Newton solve so the per-iteration
/// restamp touches no netlist structure.
#[derive(Debug, Clone, Copy)]
struct MosStamp {
    drain: Option<usize>,
    gate: Option<usize>,
    source: Option<usize>,
    model: MosModel,
    ratio: f64,
    /// Polarity factor: +1 NMOS, −1 PMOS (carrier-space transform).
    p: f64,
}

/// One MOSFET linearization around a solution estimate — the numbers
/// both backends stamp, computed identically so dense and sparse
/// assemblies agree bit for bit.
#[derive(Debug, Clone, Copy)]
struct MosLin {
    /// Whether the physical source acts as the drain at this estimate
    /// (the device is symmetric; the higher carrier-space terminal wins).
    swapped: bool,
    gm: f64,
    gds: f64,
    /// Polarity-signed equivalent current `p · ieq`.
    ieq_signed: f64,
}

impl MosStamp {
    /// Linearizes around estimate `x` (ground = 0 V).
    fn linearize(&self, x: &[f64]) -> MosLin {
        // Polarity factor: work in "carrier space" w = p·v so PMOS
        // reuses the NMOS equations; p² = 1 keeps the conductance
        // stamps sign-free while the equivalent current gets p.
        let volt = |idx: Option<usize>| -> f64 { idx.map_or(0.0, |i| x[i]) };
        let p = self.p;
        let wd = p * volt(self.drain);
        let wg = p * volt(self.gate);
        let ws = p * volt(self.source);
        let swapped = wd < ws;
        let (wdd, wss) = if swapped { (ws, wd) } else { (wd, ws) };
        let vgs_c = wg - wss;
        let vds_c = wdd - wss;
        let (id0, gm0, gds0) = self.model.ids(vgs_c, vds_c);
        let (id, gm, gds) = (id0 * self.ratio, gm0 * self.ratio, gds0 * self.ratio);
        MosLin { swapped, gm, gds, ieq_signed: p * (id - gm * vgs_c - gds * vds_c) }
    }
}

/// One context-dependent RHS stamp: the part of the base RHS that varies
/// with [`StampContext`] `time` / `step` while the matrix pattern *and*
/// values stay fixed — voltage-source waveform values and backward-Euler
/// capacitor companion currents. Recording these lets a template be
/// re-pointed at a new time step ([`AssemblyTemplate::update_context`])
/// with a value-only RHS rebuild instead of a full netlist re-walk, so
/// transient stepping inherits the same symbolic/pattern reuse DC sweeps
/// have.
#[derive(Debug, Clone)]
enum DynamicRhs {
    /// Backward-Euler companion current `ieq = geq (v_prev(a) − v_prev(b))`
    /// into rows `ia`/`ib`. `geq = C/dt` is baked into the matrix, so the
    /// step size must not change across updates.
    Cap { ia: Option<usize>, ib: Option<usize>, geq: f64 },
    /// Voltage-source branch row set to the waveform value at the context
    /// time.
    Vsrc { row: usize, waveform: SourceWaveform },
}

/// The context-dependent half of a template's base RHS, shared by the
/// dense and sparse assembly templates (the split is purely about
/// *values*, with no backend dependency): the static contributions
/// (current sources), the [`DynamicRhs`] stamps, and the materialized
/// base vector the per-iteration assembly copies from.
#[derive(Debug, Clone)]
struct RhsTemplate {
    /// The materialized base RHS for the current context.
    base: Vec<f64>,
    /// Context-independent contributions (current sources).
    stat: Vec<f64>,
    /// Context-dependent stamps (see [`DynamicRhs`]).
    dynamic: Vec<DynamicRhs>,
    /// The time step baked into the owning template's matrix values
    /// (capacitor companion conductances); `None` for DC.
    step_dt: Option<f64>,
}

impl RhsTemplate {
    /// Materializes the base RHS for `ctx` from the recorded stamps.
    fn new(stat: Vec<f64>, dynamic: Vec<DynamicRhs>, ctx: &StampContext<'_>) -> Self {
        let mut this =
            Self { base: Vec::new(), stat, dynamic, step_dt: ctx.step.map(|(dt, _)| dt) };
        this.rebuild(ctx);
        this
    }

    /// Value-only rebuild for a new context **of the same kind** (same
    /// analysis, same `dt` — the matrix values bake those in).
    ///
    /// # Panics
    ///
    /// Panics if the context changes analysis kind or time step.
    fn update_context(&mut self, ctx: &StampContext<'_>) {
        assert_eq!(
            self.step_dt,
            ctx.step.map(|(dt, _)| dt),
            "template context update must keep the analysis kind and time step"
        );
        self.rebuild(ctx);
    }

    fn rebuild(&mut self, ctx: &StampContext<'_>) {
        self.base.clear();
        self.base.extend_from_slice(&self.stat);
        let prev = ctx.step.map(|(_, p)| p);
        for stamp in &self.dynamic {
            match stamp {
                DynamicRhs::Cap { ia, ib, geq } => {
                    let prev = prev.expect("capacitor companion stamp outside a transient step");
                    let v_prev = |idx: Option<usize>| idx.map_or(0.0, |i| prev[i]);
                    let ieq = geq * (v_prev(*ia) - v_prev(*ib));
                    stamp_rhs(&mut self.base, *ia, ieq);
                    stamp_rhs(&mut self.base, *ib, -ieq);
                }
                // Branch rows belong exclusively to their voltage
                // source, so assignment (not accumulation) is exact.
                DynamicRhs::Vsrc { row, waveform } => self.base[*row] = waveform.value_at(ctx.time),
            }
        }
    }

    /// Swaps in re-walked RHS content of the same analysis kind (the
    /// value-only retarget path) and re-materializes the base vector.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` changes the analysis kind or time step the
    /// template's matrix values bake in.
    fn repoint(&mut self, stat: Vec<f64>, dynamic: Vec<DynamicRhs>, ctx: &StampContext<'_>) {
        assert_eq!(
            self.step_dt,
            ctx.step.map(|(dt, _)| dt),
            "value-only retarget must keep the analysis kind and time step"
        );
        self.stat = stat;
        self.dynamic = dynamic;
        self.rebuild(ctx);
    }
}

/// One event of the deterministic netlist→stamps walk shared by the
/// dense and sparse assembly templates — both template construction
/// (`new`) **and** the in-place value rewrite (`write_values`, behind
/// `retarget_values` and [`OpSolver::retarget_values`](crate::dc::OpSolver::retarget_values))
/// consume the identical event stream, which is what makes a patched
/// template bitwise equal to a freshly built one: same stamps, same
/// order, same summation sequence.
enum StampEvent {
    /// Matrix stamp at `(row(a), col(b))` — dropped when either side is
    /// ground. MOSFETs emit six zero-valued events to reserve their
    /// restamp slots (a no-op for the dense matrix, pattern slots for
    /// the CSR builder).
    Mat { a: Option<usize>, b: Option<usize>, v: f64 },
    /// Context-independent RHS contribution (current sources).
    StatRhs { node: Option<usize>, v: f64 },
    /// Context-dependent RHS stamp (see [`DynamicRhs`]).
    Dynamic(DynamicRhs),
    /// One nonlinear device's pre-resolved restamp data.
    Mos(MosStamp),
}

/// Walks `topology` in device order, taking each device's connectivity
/// from the netlist and its values from `values` (one per device, of the
/// device's kind — [`Netlist::accepts`]), and emits every constant stamp
/// for the analysis `ctx` describes. The event sequence is a pure
/// function of the connectivity, the values and the analysis kind
/// (`ctx.step` presence and `dt`); one topology produces event streams of
/// identical shape (same variants, same node indices, same emission
/// order) under every value slice, differing only in values.
fn walk_stamps(
    topology: &Netlist,
    values: &[DeviceValue],
    ctx: &StampContext<'_>,
    sink: &mut impl FnMut(StampEvent),
) {
    debug_assert!(topology.accepts(values), "values checked against the topology");
    let n_nodes = topology.node_count() - 1;
    for (device, value) in topology.devices().iter().zip(values) {
        match (device, *value) {
            (Device::Resistor { a: na, b: nb, .. }, DeviceValue::Resistor { ohms }) => {
                let g = 1.0 / ohms;
                let (ia, ib) = (node_index(*na), node_index(*nb));
                sink(StampEvent::Mat { a: ia, b: ia, v: g });
                sink(StampEvent::Mat { a: ib, b: ib, v: g });
                sink(StampEvent::Mat { a: ia, b: ib, v: -g });
                sink(StampEvent::Mat { a: ib, b: ia, v: -g });
            }
            (Device::Capacitor { a: na, b: nb, .. }, DeviceValue::Capacitor { farads }) => {
                if let Some((dt, _)) = ctx.step {
                    // Backward-Euler companion: geq ∥ ieq. The
                    // conductance goes into the matrix; the companion
                    // current is context-dependent (previous step) and
                    // recorded as a dynamic RHS stamp.
                    let geq = farads / dt;
                    let (ia, ib) = (node_index(*na), node_index(*nb));
                    sink(StampEvent::Mat { a: ia, b: ia, v: geq });
                    sink(StampEvent::Mat { a: ib, b: ib, v: geq });
                    sink(StampEvent::Mat { a: ia, b: ib, v: -geq });
                    sink(StampEvent::Mat { a: ib, b: ia, v: -geq });
                    sink(StampEvent::Dynamic(DynamicRhs::Cap { ia, ib, geq }));
                }
                // DC: capacitor is open — no stamp.
            }
            (Device::Vsource { plus, minus, branch, .. }, DeviceValue::Vsource { waveform }) => {
                let k = Some(n_nodes + branch);
                let (ip, im) = (node_index(*plus), node_index(*minus));
                // Branch current enters the plus node.
                sink(StampEvent::Mat { a: ip, b: k, v: 1.0 });
                sink(StampEvent::Mat { a: im, b: k, v: -1.0 });
                sink(StampEvent::Mat { a: k, b: ip, v: 1.0 });
                sink(StampEvent::Mat { a: k, b: im, v: -1.0 });
                sink(StampEvent::Dynamic(DynamicRhs::Vsrc { row: n_nodes + branch, waveform }));
            }
            (Device::Isource { from, to, .. }, DeviceValue::Isource { amps }) => {
                sink(StampEvent::StatRhs { node: node_index(*to), v: amps });
                sink(StampEvent::StatRhs { node: node_index(*from), v: -amps });
            }
            (
                Device::Mosfet { drain, gate, source, .. },
                DeviceValue::Mosfet { model, w_um, l_um },
            ) => {
                let p = match model.polarity {
                    crate::model::MosPolarity::Nmos => 1.0,
                    crate::model::MosPolarity::Pmos => -1.0,
                };
                let (d, g, s) = (node_index(*drain), node_index(*gate), node_index(*source));
                // Reserve the six conductance slots (explicit zeros) —
                // restamped every iteration.
                sink(StampEvent::Mat { a: d, b: g, v: 0.0 });
                sink(StampEvent::Mat { a: d, b: d, v: 0.0 });
                sink(StampEvent::Mat { a: d, b: s, v: 0.0 });
                sink(StampEvent::Mat { a: s, b: g, v: 0.0 });
                sink(StampEvent::Mat { a: s, b: d, v: 0.0 });
                sink(StampEvent::Mat { a: s, b: s, v: 0.0 });
                sink(StampEvent::Mos(MosStamp {
                    drain: d,
                    gate: g,
                    source: s,
                    model,
                    ratio: w_um / l_um,
                    p,
                }));
            }
            (device, _) => unreachable!("device {} holds a value of another kind", device.name()),
        }
    }
}

/// Cached MNA assembly for one `(topology, values, context)` triple.
///
/// Everything except the MOSFETs is affine in the unknowns and constant
/// across Newton iterations — resistor/capacitor-companion conductances,
/// voltage-source incidence rows, source currents and the `gmin`
/// diagonal. The template stamps that constant part **once**; each
/// iteration then copies it ([`Matrix::copy_from`], a `memcpy`) and
/// restamps only the nonlinear devices, instead of re-walking the whole
/// netlist and re-zeroing the system.
#[derive(Debug, Clone)]
pub struct AssemblyTemplate {
    base: Matrix,
    rhs: RhsTemplate,
    mosfets: Vec<MosStamp>,
    n_nodes: usize,
    /// Topology fingerprint of the netlist this template was walked
    /// from — the key guarding [`retarget_values`](Self::retarget_values).
    fingerprint: u64,
}

impl AssemblyTemplate {
    /// Builds the template over `topology` with device values `values`:
    /// stamps every constant device, extracts the nonlinear ones. The
    /// template bakes in `ctx.time` and `ctx.step` (source values,
    /// capacitor companions) but **not** `ctx.gmin` — the gmin diagonal
    /// is applied per [`assemble_into`](Self::assemble_into) call, so one
    /// template serves an entire gmin continuation ladder. Pass
    /// `netlist.values()` to build from a netlist's own values.
    ///
    /// # Panics
    ///
    /// Panics unless `topology` [accepts](Netlist::accepts) `values`.
    pub fn new(topology: &Netlist, values: &[DeviceValue], ctx: &StampContext<'_>) -> Self {
        assert!(topology.accepts(values), "device values do not fit the topology");
        let n_nodes = topology.node_count() - 1;
        let n = topology.unknown_count();
        let mut a = Matrix::zeros(n, n);
        let mut rhs_static = vec![0.0; n];
        let mut dynamic_rhs = Vec::new();
        let mut mosfets = Vec::new();

        walk_stamps(topology, values, ctx, &mut |event| match event {
            StampEvent::Mat { a: ia, b: ib, v } => stamp(&mut a, ia, ib, v),
            StampEvent::StatRhs { node, v } => stamp_rhs(&mut rhs_static, node, v),
            StampEvent::Dynamic(d) => dynamic_rhs.push(d),
            StampEvent::Mos(m) => mosfets.push(m),
        });
        Self {
            base: a,
            rhs: RhsTemplate::new(rhs_static, dynamic_rhs, ctx),
            mosfets,
            n_nodes,
            fingerprint: topology.topology_fingerprint(),
        }
    }

    /// Value-only retarget: if `netlist` has the same topology as the
    /// one this template was built from (checked via
    /// [`Netlist::topology_fingerprint`]), rewrites every
    /// device-parameter-dependent stamp value in place — no matrix
    /// allocation, no template rebuild — and returns `true`. The result
    /// is bitwise identical to a freshly built template: both paths
    /// consume the same stamp-walk event stream in the same order.
    /// Returns `false` (template untouched) on a topology mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `netlist` has this template's topology and `ctx`
    /// changes the analysis kind or time step.
    pub fn retarget_values(&mut self, netlist: &Netlist, ctx: &StampContext<'_>) -> bool {
        if netlist.topology_fingerprint() != self.fingerprint {
            return false;
        }
        self.write_values(netlist, netlist.values(), ctx);
        true
    }

    /// The in-place rewrite behind [`retarget_values`](Self::retarget_values):
    /// `topology` must be the one this template was built over and
    /// accept `values` — the caller's check, not repeated here.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` changes the analysis kind or time step.
    pub(crate) fn write_values(
        &mut self,
        topology: &Netlist,
        values: &[DeviceValue],
        ctx: &StampContext<'_>,
    ) {
        assert_eq!(
            self.rhs.step_dt,
            ctx.step.map(|(dt, _)| dt),
            "value-only retarget must keep the analysis kind and time step"
        );
        let n = self.base.rows();
        for i in 0..n {
            for v in self.base.row_mut(i) {
                *v = 0.0;
            }
        }
        let mut rhs_static = vec![0.0; n];
        let mut dynamic_rhs = Vec::with_capacity(self.rhs.dynamic.len());
        let mut mos_i = 0;
        let base = &mut self.base;
        let mosfets = &mut self.mosfets;
        walk_stamps(topology, values, ctx, &mut |event| match event {
            StampEvent::Mat { a: ia, b: ib, v } => stamp(base, ia, ib, v),
            StampEvent::StatRhs { node, v } => stamp_rhs(&mut rhs_static, node, v),
            StampEvent::Dynamic(d) => dynamic_rhs.push(d),
            StampEvent::Mos(m) => {
                mosfets[mos_i] = m;
                mos_i += 1;
            }
        });
        debug_assert_eq!(mos_i, self.mosfets.len(), "same-topology walk changed shape");
        self.rhs.repoint(rhs_static, dynamic_rhs, ctx);
    }

    /// Re-points the template at a new context **of the same kind**: same
    /// analysis (DC stays DC, transient keeps the same `dt`), new source
    /// time and/or previous-step solution. Only the context-dependent RHS
    /// values are rebuilt — the matrix base, the stamp maps and (for the
    /// sparse analogue) the frozen factorization pattern are untouched,
    /// which is what lets every backward-Euler step after the first skip
    /// the netlist walk and the symbolic analysis.
    ///
    /// # Panics
    ///
    /// Panics if the context changes analysis kind or time step.
    pub fn update_context(&mut self, ctx: &StampContext<'_>) {
        self.rhs.update_context(ctx);
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.base.rows()
    }

    /// Number of nonlinear devices restamped per iteration.
    pub fn nonlinear_count(&self) -> usize {
        self.mosfets.len()
    }

    /// Assembles the linearized system around estimate `x` into
    /// caller-provided storage: constant part copied, the gmin diagonal
    /// applied, MOSFETs restamped.
    ///
    /// # Panics
    ///
    /// Panics if `a`, `rhs` or `x` have the wrong dimensions.
    pub fn assemble_into(&self, a: &mut Matrix, rhs: &mut [f64], x: &[f64], gmin: f64) {
        a.copy_from(&self.base);
        rhs.copy_from_slice(&self.rhs.base);
        assert_eq!(x.len(), self.dim(), "solution estimate dimension mismatch");

        // Floating-node / convergence gmin.
        for i in 0..self.n_nodes {
            a[(i, i)] += gmin;
        }

        for mos in &self.mosfets {
            let lin = mos.linearize(x);
            let (idx_d, idx_s) =
                if lin.swapped { (mos.source, mos.drain) } else { (mos.drain, mos.source) };
            let idx_g = mos.gate;
            stamp(a, idx_d, idx_g, lin.gm);
            stamp(a, idx_d, idx_d, lin.gds);
            stamp(a, idx_d, idx_s, -(lin.gm + lin.gds));
            stamp(a, idx_s, idx_g, -lin.gm);
            stamp(a, idx_s, idx_d, -lin.gds);
            stamp(a, idx_s, idx_s, lin.gm + lin.gds);
            stamp_rhs(rhs, idx_d, -lin.ieq_signed);
            stamp_rhs(rhs, idx_s, lin.ieq_signed);
        }
    }
}

/// One MOSFET's pre-resolved stamp for the sparse assembly: the node/
/// model data plus the **CSR value indices** of its six conductance
/// positions, so the per-iteration restamp is direct array writes — no
/// pattern search, mirroring the dense template's indexed stores.
#[derive(Debug, Clone, Copy)]
struct SparseMosStamp {
    stamp: MosStamp,
    /// Value indices of ((d,g), (d,d), (d,s), (s,g), (s,d), (s,s)) in the
    /// *physical* drain/source naming; `None` where a terminal is ground.
    pdg: Option<usize>,
    pdd: Option<usize>,
    pds: Option<usize>,
    psg: Option<usize>,
    psd: Option<usize>,
    pss: Option<usize>,
}

/// Cached **CSR** MNA assembly for one `(topology, values, context)`
/// triple — the sparse analogue of [`AssemblyTemplate`].
///
/// The CSR pattern is built once from the netlist with slots reserved for
/// everything that varies per iteration (MOSFET conductances, the `gmin`
/// diagonal); constant stamps live in the base value array. Each
/// [`assemble_into`](Self::assemble_into) is then a value-array `memcpy`
/// plus indexed restamps through a precomputed stamp→nonzero map — the
/// pattern never changes, which is also what lets [`SparseLu`] freeze its
/// symbolic factorization across the whole Newton/`gmin`-ladder/sweep
/// lifetime of the template.
#[derive(Debug, Clone)]
pub struct SparseAssemblyTemplate {
    base: CsrMatrix<f64>,
    rhs: RhsTemplate,
    mosfets: Vec<SparseMosStamp>,
    /// Value index of each node's diagonal (the `gmin` slots).
    gmin_idx: Vec<usize>,
    /// Push-order → value-index map over the stamp walk (gmin slots
    /// appended last): the `k`-th emitted non-ground matrix stamp lands
    /// at `base.values()[slot_of[k]]` — the value-only retarget writes
    /// through this instead of re-sorting a triplet builder.
    slot_of: Vec<usize>,
    n_nodes: usize,
    /// Topology fingerprint of the netlist this template was walked
    /// from — the key guarding [`retarget_values`](Self::retarget_values).
    fingerprint: u64,
}

impl SparseAssemblyTemplate {
    /// Builds the template over `topology` with device values `values`:
    /// reserves the full pattern, stamps every constant device, resolves
    /// the nonzero indices of the per-iteration stamps. Like the dense
    /// template it bakes in `ctx.time` / `ctx.step` but not `ctx.gmin`.
    ///
    /// # Panics
    ///
    /// Panics unless `topology` [accepts](Netlist::accepts) `values`.
    pub fn new(topology: &Netlist, values: &[DeviceValue], ctx: &StampContext<'_>) -> Self {
        assert!(topology.accepts(values), "device values do not fit the topology");
        let n_nodes = topology.node_count() - 1;
        let n = topology.unknown_count();
        let mut t = Triplets::new(n, n);
        let mut rhs_static = vec![0.0; n];
        let mut dynamic_rhs = Vec::new();
        let mut mos_stamps: Vec<MosStamp> = Vec::new();

        walk_stamps(topology, values, ctx, &mut |event| match event {
            StampEvent::Mat { a, b, v } => {
                if let (Some(i), Some(j)) = (a, b) {
                    t.push(i, j, v);
                }
            }
            StampEvent::StatRhs { node, v } => stamp_rhs(&mut rhs_static, node, v),
            StampEvent::Dynamic(d) => dynamic_rhs.push(d),
            StampEvent::Mos(m) => mos_stamps.push(m),
        });
        // The gmin diagonal slots for every node.
        for i in 0..n_nodes {
            t.push(i, i, 0.0);
        }

        let base = t.to_csr();
        // Push-order → value-index map (the retarget scatter).
        let slot_of: Vec<usize> = t
            .entries()
            .iter()
            .map(|&(i, j, _)| base.value_index(i, j).expect("pushed entry is in the pattern"))
            .collect();
        let pos = |a: Option<usize>, b: Option<usize>| -> Option<usize> {
            match (a, b) {
                (Some(i), Some(j)) => {
                    Some(base.value_index(i, j).expect("reserved stamp slot in pattern"))
                }
                _ => None,
            }
        };
        let mosfets: Vec<SparseMosStamp> = mos_stamps
            .into_iter()
            .map(|stamp| SparseMosStamp {
                stamp,
                pdg: pos(stamp.drain, stamp.gate),
                pdd: pos(stamp.drain, stamp.drain),
                pds: pos(stamp.drain, stamp.source),
                psg: pos(stamp.source, stamp.gate),
                psd: pos(stamp.source, stamp.drain),
                pss: pos(stamp.source, stamp.source),
            })
            .collect();
        let gmin_idx: Vec<usize> = (0..n_nodes)
            .map(|i| base.value_index(i, i).expect("node diagonal in pattern"))
            .collect();
        let rhs = RhsTemplate::new(rhs_static, dynamic_rhs, ctx);
        Self {
            base,
            rhs,
            mosfets,
            gmin_idx,
            slot_of,
            n_nodes,
            fingerprint: topology.topology_fingerprint(),
        }
    }

    /// Value-only retarget — the sparse analogue of
    /// [`AssemblyTemplate::retarget_values`]: on a fingerprint match,
    /// rewrites the CSR value array through the precomputed push-order →
    /// nonzero map (no triplet builder, no sort, no `value_index`
    /// searches) and refreshes the MOSFET restamp parameters, leaving
    /// the pattern — and therefore any frozen symbolic factorization
    /// built on it — untouched. Bitwise identical to a fresh
    /// [`SparseAssemblyTemplate::new`]: both paths accumulate the same
    /// stamp stream in push order, exactly as [`Triplets::to_csr`]
    /// merges duplicates. Returns `false` on a topology mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `netlist` has this template's topology and `ctx`
    /// changes the analysis kind or time step.
    pub fn retarget_values(&mut self, netlist: &Netlist, ctx: &StampContext<'_>) -> bool {
        if netlist.topology_fingerprint() != self.fingerprint {
            return false;
        }
        self.write_values(netlist, netlist.values(), ctx);
        true
    }

    /// The in-place rewrite behind [`retarget_values`](Self::retarget_values)
    /// (see [`AssemblyTemplate::write_values`]).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` changes the analysis kind or time step.
    pub(crate) fn write_values(
        &mut self,
        topology: &Netlist,
        values: &[DeviceValue],
        ctx: &StampContext<'_>,
    ) {
        assert_eq!(
            self.rhs.step_dt,
            ctx.step.map(|(dt, _)| dt),
            "value-only retarget must keep the analysis kind and time step"
        );
        let n = self.base.rows();
        for v in self.base.values_mut() {
            *v = 0.0;
        }
        let mut rhs_static = vec![0.0; n];
        let mut dynamic_rhs = Vec::with_capacity(self.rhs.dynamic.len());
        let mut slot = 0usize;
        let mut mos_i = 0usize;
        let stored = self.base.values_mut();
        // Pre-borrow the pieces the closure needs (splitting the
        // template's fields keeps the borrows disjoint).
        let slot_of = &self.slot_of;
        let mosfets = &mut self.mosfets;
        walk_stamps(topology, values, ctx, &mut |event| match event {
            StampEvent::Mat { a, b, v } => {
                if a.is_some() && b.is_some() {
                    stored[slot_of[slot]] += v;
                    slot += 1;
                }
            }
            StampEvent::StatRhs { node, v } => stamp_rhs(&mut rhs_static, node, v),
            StampEvent::Dynamic(d) => dynamic_rhs.push(d),
            StampEvent::Mos(m) => {
                mosfets[mos_i].stamp = m;
                mos_i += 1;
            }
        });
        debug_assert_eq!(
            slot + self.n_nodes,
            self.slot_of.len(),
            "same-topology walk changed shape"
        );
        debug_assert_eq!(mos_i, self.mosfets.len(), "same-topology walk changed shape");
        self.rhs.repoint(rhs_static, dynamic_rhs, ctx);
    }

    /// Re-points the template at a new context of the same kind — the
    /// sparse analogue of [`AssemblyTemplate::update_context`]: a
    /// value-only RHS rebuild, leaving the CSR pattern (and therefore any
    /// frozen symbolic factorization built on it) untouched.
    ///
    /// # Panics
    ///
    /// Panics if the context changes analysis kind or time step.
    pub fn update_context(&mut self, ctx: &StampContext<'_>) {
        self.rhs.update_context(ctx);
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.base.rows()
    }

    /// Number of nonlinear devices restamped per iteration.
    pub fn nonlinear_count(&self) -> usize {
        self.mosfets.len()
    }

    /// Stored pattern entries.
    pub fn nnz(&self) -> usize {
        self.base.nnz()
    }

    /// A working system with this template's pattern (assembled values
    /// are overwritten by [`assemble_into`](Self::assemble_into)).
    pub fn new_system(&self) -> CsrMatrix<f64> {
        self.base.clone()
    }

    /// Assembles the linearized system around estimate `x` into `a` /
    /// `rhs`: base values memcpy'd, `gmin` diagonal applied, MOSFETs
    /// restamped through the precomputed index map.
    ///
    /// # Panics
    ///
    /// Panics if `a` does not share this template's pattern size, or
    /// `rhs` / `x` have the wrong dimensions.
    pub fn assemble_into(&self, a: &mut CsrMatrix<f64>, rhs: &mut [f64], x: &[f64], gmin: f64) {
        assert_eq!(a.nnz(), self.base.nnz(), "working system pattern mismatch");
        assert_eq!(x.len(), self.dim(), "solution estimate dimension mismatch");
        a.values_mut().copy_from_slice(self.base.values());
        rhs.copy_from_slice(&self.rhs.base);
        let vals = a.values_mut();
        for &i in &self.gmin_idx {
            vals[i] += gmin;
        }
        for mos in &self.mosfets {
            let lin = mos.stamp.linearize(x);
            // Select the six positions under the current drain/source
            // role assignment (the reserved set is closed under the
            // swap).
            let (pdg, pdd, pds, psg, psd, pss) = if lin.swapped {
                (mos.psg, mos.pss, mos.psd, mos.pdg, mos.pds, mos.pdd)
            } else {
                (mos.pdg, mos.pdd, mos.pds, mos.psg, mos.psd, mos.pss)
            };
            let mut add = |idx: Option<usize>, v: f64| {
                if let Some(i) = idx {
                    vals[i] += v;
                }
            };
            add(pdg, lin.gm);
            add(pdd, lin.gds);
            add(pds, -(lin.gm + lin.gds));
            add(psg, -lin.gm);
            add(psd, -lin.gds);
            add(pss, lin.gm + lin.gds);
            let (idx_d, idx_s) = if lin.swapped {
                (mos.stamp.source, mos.stamp.drain)
            } else {
                (mos.stamp.drain, mos.stamp.source)
            };
            stamp_rhs(rhs, idx_d, -lin.ieq_signed);
            stamp_rhs(rhs, idx_s, lin.ieq_signed);
        }
    }
}

/// A backend-resolved MNA assembly template: the topology and its values
/// walked once, the constant stamps cached in the representation the
/// chosen [`SolverBackend`] factors.
#[derive(Debug, Clone)]
pub enum MnaTemplate {
    /// Dense base matrix + dense LU.
    Dense(AssemblyTemplate),
    /// CSR base + sparse LU with symbolic reuse.
    Sparse(SparseAssemblyTemplate),
}

impl MnaTemplate {
    /// Builds the template over `topology` with device values `values`,
    /// resolving `backend` by the system's unknown count.
    ///
    /// # Panics
    ///
    /// Panics unless `topology` [accepts](Netlist::accepts) `values`.
    pub fn new(
        topology: &Netlist,
        values: &[DeviceValue],
        ctx: &StampContext<'_>,
        backend: SolverBackend,
    ) -> Self {
        if backend.resolves_to_sparse(topology.unknown_count()) {
            MnaTemplate::Sparse(SparseAssemblyTemplate::new(topology, values, ctx))
        } else {
            MnaTemplate::Dense(AssemblyTemplate::new(topology, values, ctx))
        }
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        match self {
            MnaTemplate::Dense(t) => t.dim(),
            MnaTemplate::Sparse(t) => t.dim(),
        }
    }

    /// Non-ground node count (the `gmin` / damping prefix of the
    /// unknowns).
    pub fn n_nodes(&self) -> usize {
        match self {
            MnaTemplate::Dense(t) => t.n_nodes,
            MnaTemplate::Sparse(t) => t.n_nodes,
        }
    }

    /// Whether the sparse backend was selected.
    pub fn is_sparse(&self) -> bool {
        matches!(self, MnaTemplate::Sparse(_))
    }

    /// Re-points the template at a new context of the same kind (see
    /// [`AssemblyTemplate::update_context`]).
    ///
    /// # Panics
    ///
    /// Panics if the context changes analysis kind or time step.
    pub fn update_context(&mut self, ctx: &StampContext<'_>) {
        match self {
            MnaTemplate::Dense(t) => t.update_context(ctx),
            MnaTemplate::Sparse(t) => t.update_context(ctx),
        }
    }

    /// Consumes the template into working state (system storage +
    /// factorization slot) for Newton solves. Keep one state across
    /// repeated solves — `gmin`-ladder rungs, corner/mismatch re-solves,
    /// benchmark sweeps — and the factorization storage (for sparse: the
    /// symbolic pattern and pivot order) is reused instead of recomputed.
    pub fn into_state(self) -> MnaState {
        let n = self.dim();
        MnaState {
            inner: match self {
                MnaTemplate::Dense(t) => StateInner::Dense {
                    a: Matrix::zeros(n, n),
                    rhs: vec![0.0; n],
                    lu: None,
                    template: t,
                },
                MnaTemplate::Sparse(t) => StateInner::Sparse {
                    a: t.new_system(),
                    rhs: vec![0.0; n],
                    lu: None,
                    template: t,
                },
            },
            repivots: 0,
            ordering: FillOrdering::default(),
            newton_iterations: 0,
        }
    }
}

/// Working storage for Newton solves over one [`MnaTemplate`]: the
/// template, the assembled system and the (re)usable factorization.
///
/// `MnaState` is `Clone` + `Send`, which is what per-worker solver
/// pooling builds on: clone a **primed** state (one that already carries
/// a factorization — see [`MnaState::prime`]) once per worker thread and
/// every clone shares the prototype's symbolic analysis (sparse pivot
/// order + fill pattern) while owning its own numeric storage. Cloning
/// shares no mutable state, so concurrently refactoring the clones with
/// different values is race-free and bitwise-deterministic.
#[derive(Debug, Clone)]
pub struct MnaState {
    inner: StateInner,
    /// Times the sparse path abandoned its frozen pivot order for a
    /// fresh Markowitz analysis (see [`MnaState::repivots`]).
    repivots: u64,
    /// Fill-reducing ordering for fresh sparse symbolic analyses (first
    /// factor and post-collapse re-pivots). Markowitz by default;
    /// threaded in from [`NewtonOptions::ordering`] by the solve entry
    /// points.
    ordering: FillOrdering,
    /// Cumulative Newton/chord iterations run through this state — the
    /// deterministic work measure of a solve sequence (wall time would be
    /// noisy; iteration count is exact).
    newton_iterations: u64,
}

// One `MnaState` exists per solver (never collections of them), so the
// dense/sparse variant size imbalance costs nothing — boxing would only
// add an indirection to the hot assemble/solve path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum StateInner {
    Dense {
        template: AssemblyTemplate,
        a: Matrix,
        rhs: Vec<f64>,
        lu: Option<Lu>,
    },
    Sparse {
        template: SparseAssemblyTemplate,
        a: CsrMatrix<f64>,
        rhs: Vec<f64>,
        lu: Option<SparseLu<f64>>,
    },
}

impl MnaState {
    fn dim(&self) -> usize {
        match &self.inner {
            StateInner::Dense { template, .. } => template.dim(),
            StateInner::Sparse { template, .. } => template.dim(),
        }
    }

    fn n_nodes(&self) -> usize {
        match &self.inner {
            StateInner::Dense { template, .. } => template.n_nodes,
            StateInner::Sparse { template, .. } => template.n_nodes,
        }
    }

    /// Whether a factorization from an earlier refresh is available.
    fn has_factor(&self) -> bool {
        match &self.inner {
            StateInner::Dense { lu, .. } => lu.is_some(),
            StateInner::Sparse { lu, .. } => lu.is_some(),
        }
    }

    /// Assembles the linearized system around `x`.
    pub(crate) fn assemble(&mut self, x: &[f64], gmin: f64) {
        match &mut self.inner {
            StateInner::Dense { template, a, rhs, .. } => {
                template.assemble_into(a, rhs, x, gmin);
            }
            StateInner::Sparse { template, a, rhs, .. } => {
                template.assemble_into(a, rhs, x, gmin);
            }
        }
    }

    /// `out = rhs − A·x` over the currently assembled system.
    fn residual_into(&self, x: &[f64], out: &mut [f64]) {
        match &self.inner {
            StateInner::Dense { a, rhs, .. } => {
                a.mat_vec_into(x, out);
                for (r, b) in out.iter_mut().zip(rhs) {
                    *r = b - *r;
                }
            }
            StateInner::Sparse { a, rhs, .. } => {
                a.mat_vec_into(x, out);
                for (r, b) in out.iter_mut().zip(rhs) {
                    *r = b - *r;
                }
            }
        }
    }

    /// Factors (first use) or numerically re-factors the assembled
    /// system. The sparse path reuses the frozen pivot order and pattern
    /// and re-runs the compiled elimination over every row; if drifting
    /// values break a frozen pivot it transparently re-pivots (fresh
    /// symbolic analysis, counted in [`Self::repivots`]) before giving
    /// up.
    pub(crate) fn refresh_factor(&mut self) -> Result<(), SpiceError> {
        match &mut self.inner {
            StateInner::Dense { a, lu, .. } => match lu {
                Some(f) => f.refactor(a).map_err(SpiceError::from)?,
                None => *lu = Some(a.lu().map_err(SpiceError::from)?),
            },
            StateInner::Sparse { a, lu, .. } => {
                let had_factor = lu.is_some();
                match lu.as_mut().map(|f| f.refactor(a)) {
                    Some(Ok(())) => {}
                    // A collapsed frozen pivot, or a first-use factor:
                    // fresh symbolic analysis under the configured
                    // fill-reducing ordering.
                    Some(Err(LinalgError::Singular { .. })) | None => {
                        *lu = Some(
                            SparseLu::factor_with(a, self.ordering).map_err(SpiceError::from)?,
                        );
                        if had_factor {
                            self.repivots += 1;
                        }
                    }
                    Some(Err(e)) => return Err(SpiceError::from(e)),
                }
            }
        }
        Ok(())
    }

    /// Times a frozen sparse pivot collapsed numerically and a fresh
    /// Markowitz analysis replaced it. A state that re-pivoted no longer
    /// carries the *canonical* pivot order its pool siblings share, so
    /// pools retire it (replacing it with a fresh prototype clone) to
    /// keep results independent of which worker solved which point.
    /// Topology changes are **not** counted here — they are reported
    /// explicitly as [`RetargetOutcome::Topology`] by
    /// [`retarget`](Self::retarget).
    pub fn repivots(&self) -> u64 {
        self.repivots
    }

    /// Whether this state runs the sparse backend.
    pub fn is_sparse(&self) -> bool {
        matches!(self.inner, StateInner::Sparse { .. })
    }

    /// Sets the fill-reducing ordering used for **fresh** sparse symbolic
    /// analyses (the first factorization and any post-collapse re-pivot).
    /// A factorization already frozen is untouched — call this before
    /// [`prime`](Self::prime) to control the symbolic analysis every
    /// clone of this state will share.
    pub fn set_ordering(&mut self, ordering: FillOrdering) {
        self.ordering = ordering;
    }

    /// The fill-reducing ordering fresh symbolic analyses run under.
    pub fn ordering(&self) -> FillOrdering {
        self.ordering
    }

    /// Cumulative Newton/chord iterations run through this state (all
    /// solves, all `gmin` rungs) — survives topology retargets, like the
    /// re-pivot counter.
    pub fn newton_iterations(&self) -> u64 {
        self.newton_iterations
    }

    /// Assembles the system at the all-zeros estimate under `gmin` and
    /// factors it, so the state carries a factorization before any solve
    /// — on the sparse backend that is the **symbolic analysis** (pivot
    /// order + fill pattern). Priming a prototype once and cloning it per
    /// worker is how a sweep shares one symbolic analysis across threads;
    /// priming never changes results (the Newton loop always refreshes
    /// the factor numerically before its first solve).
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] if the primed system cannot be
    /// factored (structurally singular netlist).
    pub fn prime(&mut self, gmin: f64) -> Result<(), SpiceError> {
        let x = vec![0.0; self.dim()];
        self.assemble(&x, gmin);
        self.refresh_factor()
    }

    /// Re-points the state at a freshly built template of the **same
    /// topology** (same backend, dimension and sparsity pattern), keeping
    /// the factorization storage so the next refresh stays numeric-only —
    /// the sweep primitive behind corner/mismatch campaigns, where every
    /// point is the same circuit graph with different device values
    /// (returns [`RetargetOutcome::Pattern`]). A template of a different
    /// shape or pattern replaces the state wholesale (working storage
    /// rebuilt, factorization dropped — [`RetargetOutcome::Topology`],
    /// the signal on which solver pools retire the instance).
    ///
    /// Callers that still hold the netlist should prefer
    /// [`retarget_values`](Self::retarget_values), which skips the
    /// template build entirely when the topology is unchanged.
    pub fn retarget(&mut self, template: MnaTemplate) -> RetargetOutcome {
        match (&mut self.inner, template) {
            (StateInner::Dense { template: slot, a, .. }, MnaTemplate::Dense(t))
                if t.dim() == a.rows() =>
            {
                // The dense refactor overwrites the factor storage in
                // full, so keeping the stale `lu` slot is purely an
                // allocation reuse.
                *slot = t;
                RetargetOutcome::Pattern
            }
            (StateInner::Sparse { template: slot, .. }, MnaTemplate::Sparse(t))
                if t.base.same_pattern(&slot.base) =>
            {
                // Identical pattern: the working system and the frozen
                // symbolic factorization both remain valid; assembly
                // overwrites every value before the next refresh.
                *slot = t;
                RetargetOutcome::Pattern
            }
            (_, template) => {
                // Wholesale replacement abandons whatever factorization
                // (and, on sparse, canonical pivot order) the state
                // carried — reported explicitly so solver pools retire
                // this instance instead of returning it to the free
                // list with non-canonical symbolic state. The numeric
                // re-pivot counter is preserved: it tracks collapsed
                // frozen pivots, not topology changes. The ordering
                // choice likewise survives — it is solver configuration,
                // not per-topology state.
                let repivots = self.repivots;
                let ordering = self.ordering;
                let newton_iterations = self.newton_iterations;
                *self = template.into_state();
                self.repivots = repivots;
                self.ordering = ordering;
                self.newton_iterations = newton_iterations;
                RetargetOutcome::Topology
            }
        }
    }

    /// Value-only retarget: rewrites the template's stamp values in
    /// place from `netlist` when its topology fingerprint matches —
    /// no template rebuild, no allocation, factorization kept. Returns
    /// `false` (state untouched) on a mismatch; the caller then falls
    /// back to [`retarget`](Self::retarget) with a freshly built
    /// template.
    ///
    /// # Panics
    ///
    /// Panics if `netlist` has the template's topology and `ctx` changes
    /// the analysis kind or time step the template was built for.
    pub fn retarget_values(&mut self, netlist: &Netlist, ctx: &StampContext<'_>) -> bool {
        match &mut self.inner {
            StateInner::Dense { template, .. } => template.retarget_values(netlist, ctx),
            StateInner::Sparse { template, .. } => template.retarget_values(netlist, ctx),
        }
    }

    /// Rewrites the template's stamp values in place from `values` over
    /// `topology`, which must be the template's own topology and accept
    /// `values` (the caller's check — no fingerprint is computed here).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` changes the analysis kind or time step the
    /// template was built for.
    pub(crate) fn write_values(
        &mut self,
        topology: &Netlist,
        values: &[DeviceValue],
        ctx: &StampContext<'_>,
    ) {
        match &mut self.inner {
            StateInner::Dense { template, .. } => template.write_values(topology, values, ctx),
            StateInner::Sparse { template, .. } => template.write_values(topology, values, ctx),
        }
    }

    /// Re-points the underlying template at a new context of the same
    /// kind (see [`AssemblyTemplate::update_context`]).
    ///
    /// # Panics
    ///
    /// Panics if the context changes analysis kind or time step.
    pub fn update_context(&mut self, ctx: &StampContext<'_>) {
        match &mut self.inner {
            StateInner::Dense { template, .. } => template.update_context(ctx),
            StateInner::Sparse { template, .. } => template.update_context(ctx),
        }
    }

    /// Solves the factored system for `b` into `dx`.
    ///
    /// # Panics
    ///
    /// Panics if no factorization is present.
    fn solve_into(&mut self, b: &[f64], dx: &mut Vec<f64>) {
        match &mut self.inner {
            StateInner::Dense { lu, .. } => {
                lu.as_ref().expect("factorization present after refresh").solve_into(b, dx);
            }
            StateInner::Sparse { lu, .. } => {
                lu.as_mut().expect("factorization present after refresh").solve_into(b, dx);
            }
        }
    }
}

/// When the Newton loop re-factors the Jacobian.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JacobianStrategy {
    /// Textbook Newton: factor a fresh Jacobian every iteration.
    Full,
    /// Chord (frozen-Jacobian) iteration: reuse the last LU factorization
    /// while the update norm keeps contracting, re-factoring only on slow
    /// convergence. The residual is always evaluated against the *fresh*
    /// linearization, so the converged solution is the same fixed point
    /// as full Newton — only the path (and the per-iteration O(n³)
    /// factorization cost) changes.
    Chord {
        /// Max-delta (volts) above which the Jacobian is always refreshed
        /// — far from the solution the linearization changes too fast for
        /// a stale factorization to help.
        refactor_threshold: f64,
        /// Required shrink ratio of the update norm for a stale
        /// factorization to be kept another iteration; a chord step whose
        /// `max_delta > contraction × previous` triggers a refresh.
        contraction: f64,
    },
}

impl JacobianStrategy {
    /// The default chord parameters: reuse the factorization inside the
    /// 50 mV convergence basin, demand 2× contraction per step.
    pub const CHORD_DEFAULT: Self = Self::Chord { refactor_threshold: 0.05, contraction: 0.5 };
}

impl Default for JacobianStrategy {
    fn default() -> Self {
        Self::CHORD_DEFAULT
    }
}

/// Newton-iteration controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum iterations before declaring non-convergence.
    pub max_iterations: usize,
    /// Convergence threshold on the max voltage update, volts.
    pub tolerance: f64,
    /// Per-iteration clamp on any voltage update, volts (damping).
    pub max_step: f64,
    /// Jacobian refresh policy (chord reuse by default).
    pub strategy: JacobianStrategy,
    /// Linear-solver backend (size-based auto-selection by default).
    pub backend: SolverBackend,
    /// Fill-reducing ordering for fresh sparse symbolic analyses
    /// (Markowitz greedy by default; [`FillOrdering::Amd`] pre-orders
    /// the pattern with approximate minimum degree, which wins on 2-D
    /// coupling structures like sense-amp arrays).
    pub ordering: FillOrdering,
}

impl NewtonOptions {
    /// Options forcing a fresh factorization every iteration — the
    /// reference semantics the chord path is parity-tested against.
    pub fn full_newton() -> Self {
        Self { strategy: JacobianStrategy::Full, ..Self::default() }
    }

    /// Overrides the solver backend (builder style).
    pub fn with_backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the sparse fill-reducing ordering (builder style).
    pub fn with_ordering(mut self, ordering: FillOrdering) -> Self {
        self.ordering = ordering;
        self
    }
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            tolerance: 1e-9,
            max_step: 0.5,
            strategy: JacobianStrategy::default(),
            backend: SolverBackend::default(),
            ordering: FillOrdering::default(),
        }
    }
}

/// Runs damped Newton iteration from `initial`, returning the solution.
///
/// # Errors
///
/// [`SpiceError::NonConvergent`] if the iteration stalls,
/// [`SpiceError::SingularMatrix`] if a linear solve fails.
pub fn newton_solve(
    netlist: &Netlist,
    initial: &[f64],
    ctx: &StampContext<'_>,
    options: &NewtonOptions,
) -> Result<Vec<f64>, SpiceError> {
    // The constant stamps are assembled once; per-iteration work is a
    // memcpy of the base system plus the nonlinear restamp.
    let mut state = MnaTemplate::new(netlist, netlist.values(), ctx, options.backend).into_state();
    newton_solve_with_state(&mut state, initial, ctx.gmin, options)
}

/// The Newton/chord iteration over persistent working state.
///
/// The state owns the assembled system and the factorization. On the
/// dense backend the factorization slot avoids per-refresh allocation;
/// on the sparse backend it additionally carries the **symbolic
/// factorization** (pivot order + fill pattern), so every refresh after
/// the first — across iterations, `gmin` rungs and repeated solves of a
/// perturbed system — is a numeric-only re-elimination.
///
/// # Errors
///
/// [`SpiceError::NonConvergent`] if the iteration stalls,
/// [`SpiceError::SingularMatrix`] if a linear solve fails.
///
/// # Panics
///
/// Panics if `initial.len()` differs from the state dimension.
pub fn newton_solve_with_state(
    state: &mut MnaState,
    initial: &[f64],
    gmin: f64,
    options: &NewtonOptions,
) -> Result<Vec<f64>, SpiceError> {
    let n = state.dim();
    assert_eq!(initial.len(), n, "initial guess dimension mismatch");
    // Fresh symbolic analyses inside this solve (first factor, re-pivot
    // recovery) honor the caller's ordering choice. A factorization the
    // state already carries is never re-ordered here.
    state.set_ordering(options.ordering);
    let n_nodes = state.n_nodes();
    let mut x = initial.to_vec();

    let mut residual = vec![0.0; n];
    let mut dx = Vec::with_capacity(n);
    // Whether the factorization is from an *earlier* iterate (chord
    // state). A factor inherited from a previous solve is always stale.
    let mut lu_is_stale = state.has_factor();
    let mut refresh_next = false;
    // Whether the current factorization carries a singularity-recovery
    // diagonal boost (see below). A boosted Jacobian shrinks the step —
    // a small update no longer implies a stationary point — so
    // convergence is never accepted off a boosted factor.
    let mut boosted = false;
    let mut last_max_delta = f64::INFINITY;

    for _ in 0..options.max_iterations {
        state.newton_iterations += 1;
        state.assemble(&x, gmin);
        // residual = rhs − A·x; the Newton/chord step solves J·dx = residual.
        state.residual_into(&x, &mut residual);

        let refresh = match options.strategy {
            JacobianStrategy::Full => true,
            JacobianStrategy::Chord { refactor_threshold, .. } => {
                !state.has_factor() || refresh_next || last_max_delta > refactor_threshold
            }
        };
        if refresh {
            match state.refresh_factor() {
                Ok(()) => boosted = false,
                Err(SpiceError::SingularMatrix) => {
                    // Elimination-level cancellation at a wild iterate
                    // (classically: the V-source border block of a long
                    // unloaded mid-rail chain with every device cut off).
                    // Retry with an escalating diagonal boost: the boosted
                    // matrix is only the *Jacobian* — the step still
                    // targets the residual of the true system, so this is
                    // an inexact-Newton step whose fixed point is
                    // unchanged, and the path only activates where the
                    // solve previously aborted outright.
                    let mut recovered = false;
                    for boost in [1e3, 1e6, 1e9] {
                        state.assemble(&x, gmin * boost);
                        if state.refresh_factor().is_ok() {
                            recovered = true;
                            break;
                        }
                    }
                    if !recovered {
                        return Err(SpiceError::SingularMatrix);
                    }
                    boosted = true;
                }
                Err(e) => return Err(e),
            }
            lu_is_stale = false;
        }
        state.solve_into(&residual, &mut dx);

        // Damped update with per-component clamp on node voltages.
        let mut max_delta = 0.0f64;
        for i in 0..n {
            let mut delta = dx[i];
            if i < n_nodes {
                delta = delta.clamp(-options.max_step, options.max_step);
            }
            x[i] += delta;
            if i < n_nodes {
                max_delta = max_delta.max(delta.abs());
            }
        }
        // Convergence requires a small update AND a finite iterate:
        // `f64::max` silently discards NaN deltas and branch-current
        // rows (i ≥ n_nodes) are not folded into `max_delta` at all, so
        // without the finiteness check a NaN/inf excursion could return
        // as a "converged" operating point instead of erroring out
        // through the iteration budget.
        if max_delta < options.tolerance && x.iter().all(|v| v.is_finite()) {
            if !boosted {
                return Ok(x);
            }
            // A tiny step through a heavily boosted Jacobian is not
            // evidence of convergence (dx ≈ residual / boost). Force a
            // nominal-Jacobian refresh and keep iterating; only a small
            // step under the true Jacobian returns. If the nominal
            // system stays singular here the recovery re-boosts, and the
            // iteration budget eventually reports non-convergence loudly
            // instead of a silently wrong operating point.
            refresh_next = true;
            lu_is_stale = true;
            last_max_delta = f64::INFINITY;
            continue;
        }
        // A stale-Jacobian step that failed to contract enough means the
        // chord iteration is stalling: refresh on the next pass.
        refresh_next = matches!(
            options.strategy,
            JacobianStrategy::Chord { contraction, .. }
                if lu_is_stale && max_delta > contraction * last_max_delta
        );
        lu_is_stale = true;
        last_max_delta = max_delta;
    }
    // Measure the final update magnitude as the reported residual.
    state.assemble(&x, gmin);
    state.residual_into(&x, &mut residual);
    let residual = residual.iter().fold(0.0f64, |m, r| m.max(r.abs()));
    Err(SpiceError::NonConvergent { residual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GROUND;

    /// One-shot dense assembly of the linearized system around `x`: the
    /// template built and assembled once — the reference the reusable
    /// template path is compared against.
    fn assemble(netlist: &Netlist, x: &[f64], ctx: &StampContext<'_>) -> (Matrix, Vec<f64>) {
        let template = AssemblyTemplate::new(netlist, netlist.values(), ctx);
        let n = template.dim();
        let mut a = Matrix::zeros(n, n);
        let mut rhs = vec![0.0; n];
        template.assemble_into(&mut a, &mut rhs, x, ctx.gmin);
        (a, rhs)
    }

    #[test]
    fn divider_assembles_and_solves_linearly() {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let mid = nl.node("mid");
        nl.vsource("V1", vin, GROUND, 2.0);
        nl.resistor("R1", vin, mid, 1e3);
        nl.resistor("R2", mid, GROUND, 3e3);
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-12 };
        let x0 = vec![0.0; nl.unknown_count()];
        let x = newton_solve(&nl, &x0, &ctx, &NewtonOptions::default()).unwrap();
        assert!((x[vin.index() - 1] - 2.0).abs() < 1e-9);
        assert!((x[mid.index() - 1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn isource_into_resistor() {
        let mut nl = Netlist::new();
        let out = nl.node("out");
        nl.isource("I1", GROUND, out, 1e-3);
        nl.resistor("R1", out, GROUND, 2e3);
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-12 };
        let x = newton_solve(&nl, &[0.0], &ctx, &NewtonOptions::default()).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn vsource_branch_current_is_reported() {
        // 1 V across 1 kΩ: branch current = −1 mA (flows out of plus
        // terminal through the external circuit).
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, GROUND, 1.0);
        nl.resistor("R1", a, GROUND, 1e3);
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-12 };
        let x = newton_solve(&nl, &[0.0, 0.0], &ctx, &NewtonOptions::default()).unwrap();
        let n_nodes = nl.node_count() - 1;
        let branch = n_nodes + nl.vsource_branch("V1").unwrap();
        assert!((x[branch] + 1e-3).abs() < 1e-9, "branch current {}", x[branch]);
    }

    #[test]
    fn template_matches_direct_assembly() {
        // Mixed linear + nonlinear netlist: template restamp must agree
        // with a from-scratch assembly at several estimates.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, GROUND, 0.9);
        nl.vsource("VIN", vin, GROUND, 0.45);
        nl.resistor("RL", vdd, out, 10e3);
        nl.mosfet("M1", out, vin, GROUND, crate::model::MosModel::nmos_28nm(), 2.0, 0.1);
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-9 };
        let template = AssemblyTemplate::new(&nl, nl.values(), &ctx);
        assert_eq!(template.nonlinear_count(), 1);
        let n = nl.unknown_count();
        for estimate in [vec![0.0; n], vec![0.3; n], vec![0.9; n]] {
            let (a_direct, rhs_direct) = assemble(&nl, &estimate, &ctx);
            let mut a = glova_linalg::Matrix::zeros(n, n);
            let mut rhs = vec![0.0; n];
            template.assemble_into(&mut a, &mut rhs, &estimate, ctx.gmin);
            assert_eq!(a, a_direct);
            assert_eq!(rhs, rhs_direct);
        }
    }

    #[test]
    fn chord_and_full_newton_agree() {
        // Strongly nonlinear CMOS inverter at mid-rail input: the chord
        // iteration must land on the same operating point as full Newton
        // to well within the Newton tolerance.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let vin = nl.node("vin");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, GROUND, 0.9);
        nl.vsource("VIN", vin, GROUND, 0.42);
        nl.mosfet("MP", out, vin, vdd, crate::model::MosModel::pmos_28nm(), 2.0, 0.05);
        nl.mosfet("MN", out, vin, GROUND, crate::model::MosModel::nmos_28nm(), 1.0, 0.05);
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-9 };
        let x0 = vec![0.0; nl.unknown_count()];
        let full = newton_solve(&nl, &x0, &ctx, &NewtonOptions::full_newton()).unwrap();
        let chord = newton_solve(&nl, &x0, &ctx, &NewtonOptions::default()).unwrap();
        for (c, f) in chord.iter().zip(&full) {
            assert!((c - f).abs() < 1e-9, "chord {c} vs full {f}");
        }
    }

    #[test]
    fn backend_parse_and_auto_resolution() {
        assert_eq!(SolverBackend::parse("dense"), Ok(SolverBackend::Dense));
        assert_eq!(SolverBackend::parse("sparse"), Ok(SolverBackend::Sparse));
        assert_eq!(SolverBackend::parse("auto"), Ok(SolverBackend::Auto));
        assert!(SolverBackend::parse("lapack").is_err());
        let t = SolverBackend::AUTO_SPARSE_THRESHOLD;
        assert!(!SolverBackend::Auto.resolves_to_sparse(t - 1));
        assert!(SolverBackend::Auto.resolves_to_sparse(t));
        assert!(SolverBackend::Sparse.resolves_to_sparse(1));
        assert!(!SolverBackend::Dense.resolves_to_sparse(10_000));
        assert_eq!(SolverBackend::Sparse.to_string(), "sparse");
    }

    /// A small mixed netlist exercising every stamp kind in DC.
    fn mixed_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let vin = nl.node("vin");
        let out = nl.node("out");
        let tail = nl.node("tail");
        nl.vsource("VDD", vdd, GROUND, 0.9);
        nl.vsource("VIN", vin, GROUND, 0.42);
        nl.resistor("RL", vdd, out, 10e3);
        nl.isource("IB", GROUND, tail, 50e-6);
        nl.resistor("RT", tail, GROUND, 40e3);
        nl.mosfet("MP", out, vin, vdd, crate::model::MosModel::pmos_28nm(), 2.0, 0.05);
        nl.mosfet("MN", out, vin, tail, crate::model::MosModel::nmos_28nm(), 1.0, 0.05);
        nl
    }

    #[test]
    fn sparse_template_assembles_identically_to_dense() {
        // The CSR assembly, densified, must agree entry-for-entry with
        // the dense template at several estimates and gmin values —
        // both run the same linearization, so equality is exact.
        let nl = mixed_netlist();
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-9 };
        let dense = AssemblyTemplate::new(&nl, nl.values(), &ctx);
        let sparse = SparseAssemblyTemplate::new(&nl, nl.values(), &ctx);
        assert_eq!(sparse.dim(), dense.dim());
        assert_eq!(sparse.nonlinear_count(), dense.nonlinear_count());
        let n = nl.unknown_count();
        let mut a_sparse = sparse.new_system();
        let mut rhs_sparse = vec![0.0; n];
        let mut a_dense = Matrix::zeros(n, n);
        let mut rhs_dense = vec![0.0; n];
        for (estimate, gmin) in [(vec![0.0; n], 1e-3), (vec![0.3; n], 1e-9), (vec![0.9; n], 1e-12)]
        {
            dense.assemble_into(&mut a_dense, &mut rhs_dense, &estimate, gmin);
            sparse.assemble_into(&mut a_sparse, &mut rhs_sparse, &estimate, gmin);
            assert_eq!(a_sparse.to_dense(), a_dense);
            assert_eq!(rhs_sparse, rhs_dense);
        }
    }

    #[test]
    fn sparse_backend_matches_dense_operating_point() {
        let nl = mixed_netlist();
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-9 };
        let x0 = vec![0.0; nl.unknown_count()];
        for strategy in [JacobianStrategy::Full, JacobianStrategy::CHORD_DEFAULT] {
            let opts = |backend| NewtonOptions { strategy, backend, ..NewtonOptions::default() };
            let dense = newton_solve(&nl, &x0, &ctx, &opts(SolverBackend::Dense)).unwrap();
            let sparse = newton_solve(&nl, &x0, &ctx, &opts(SolverBackend::Sparse)).unwrap();
            for (d, s) in dense.iter().zip(&sparse) {
                assert!((d - s).abs() < 1e-9, "dense {d} vs sparse {s} ({strategy:?})");
            }
        }
    }

    #[test]
    fn transient_step_sparse_matches_dense() {
        // Capacitor companion stamps flow through the sparse template
        // during a transient step.
        let nl = {
            let mut nl = Netlist::new();
            let vin = nl.node("in");
            let out = nl.node("out");
            nl.vsource("V1", vin, GROUND, 1.0);
            nl.resistor("R1", vin, out, 1e3);
            nl.capacitor("C1", out, GROUND, 1e-9);
            nl
        };
        let prev = vec![0.0; nl.unknown_count()];
        let ctx = StampContext { time: 1e-9, step: Some((1e-9, &prev)), gmin: 1e-12 };
        let dense = newton_solve(
            &nl,
            &prev,
            &ctx,
            &NewtonOptions::default().with_backend(SolverBackend::Dense),
        )
        .unwrap();
        let sparse = newton_solve(
            &nl,
            &prev,
            &ctx,
            &NewtonOptions::default().with_backend(SolverBackend::Sparse),
        )
        .unwrap();
        for (d, s) in dense.iter().zip(&sparse) {
            assert!((d - s).abs() < 1e-12, "dense {d} vs sparse {s}");
        }
    }

    #[test]
    fn floating_gate_does_not_singularize() {
        // A MOSFET whose gate is driven only through the gmin path.
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let g = nl.node("g");
        nl.vsource("VD", d, GROUND, 0.9);
        nl.mosfet("M1", d, g, GROUND, crate::model::MosModel::nmos_28nm(), 1.0, 0.03);
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-9 };
        let x0 = vec![0.0; nl.unknown_count()];
        assert!(newton_solve(&nl, &x0, &ctx, &NewtonOptions::default()).is_ok());
    }
}
