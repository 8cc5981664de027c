//! Modified nodal analysis: matrix/RHS assembly and Newton iteration.
//!
//! Unknowns are the non-ground node voltages followed by one branch current
//! per voltage source. Nonlinear devices (MOSFETs) are linearized around the
//! current solution estimate with companion stamps; capacitors contribute
//! backward-Euler companion conductances during transient steps and are open
//! in DC.
//!
//! Every system is assembled into a CSR pattern built once per template
//! and factored by the AMD-pre-ordered sparse LU
//! (`glova_linalg::SparseLu`). Each MOSFET is a compact record of its
//! card, its terminal unknowns and the six value slots it stamps into
//! the CSR values, listed for both drain/source orientations, so an
//! iteration's assembly is a `memcpy` of the constant part plus indexed
//! adds. The Newton loop's working vectors live in [`MnaState`], so an
//! iteration allocates nothing.
//!
//! There is one numeric refresh path (`MnaState::refresh_factor`): the
//! first factorization fixes the pivot order and fill pattern, and every
//! later refresh re-runs the compiled elimination over every row of that
//! frozen pattern. The factor is a function of the assembled values
//! alone, so a solve's result never depends on the refreshes that came
//! before it. The dense `Lu` survives only in the unit tests, as the
//! oracle the sparse solves are checked against.

use crate::device::{Device, DeviceValue};
use crate::model::MosModel;
use crate::netlist::{Netlist, NodeId, SourceWaveform};
use crate::SpiceError;
use glova_linalg::sparse::{CsrMatrix, SparseLu, Triplets};
use glova_linalg::LinalgError;
#[cfg(test)]
use glova_linalg::{Lu, Matrix};
use std::sync::Arc;

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

/// Maps a node to its row/column in the MNA system (`None` for ground).
fn node_index(node: NodeId) -> Option<usize> {
    if node.is_ground() {
        None
    } else {
        Some(node.index() - 1)
    }
}

/// Adds `value` at `(row(a), col(b))` when both are non-ground.
#[cfg(test)]
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

/// Marks a grounded terminal, or a stamp slot on a grounded row or
/// column, in a [`MosRecord`].
const GROUNDED: u32 = u32::MAX;

/// The value half of one MOSFET's restamp: everything
/// [`OpSolver::retarget_values`](crate::dc::OpSolver::retarget_values)
/// may change about the device.
#[derive(Debug, Clone, Copy)]
struct MosCard {
    model: MosModel,
    /// Geometry ratio W/L.
    ratio: f64,
    /// Polarity factor: +1 NMOS, −1 PMOS (carrier-space transform).
    p: f64,
}

/// One MOSFET's restamp record: its card (refreshed by the value
/// write), its terminal unknowns and the six value slots it stamps into
/// the CSR values, in the order each drain/source
/// orientation stamps them. Ground is resolved when the template is
/// built, so the per-iteration restamp indexes no netlist structure,
/// computes no matrix position and picks its orientation's slots
/// without a data-dependent branch.
#[derive(Debug, Clone, Copy)]
struct MosRecord {
    card: MosCard,
    /// Unknown indices of drain, gate and source; [`GROUNDED`] for
    /// ground.
    terminals: [u32; 3],
    /// Value slots of (d,g), (d,d), (d,s), (s,g), (s,d), (s,s) in the
    /// drain/source roles of each orientation — `[0]` in the physical
    /// naming, `[1]` with source and drain swapped; [`GROUNDED`] where
    /// either side is ground.
    slots: [[u32; 6]; 2],
}

impl MosRecord {
    /// Resolves the record of a MOSFET on unknowns `terminals` (drain,
    /// gate, source; `None` for ground), `slot(i, j)` giving the value
    /// slot of matrix entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if an index or slot does not fit the compact record.
    fn new(
        card: MosCard,
        terminals: [Option<usize>; 3],
        slot: impl Fn(usize, usize) -> usize,
    ) -> Self {
        let compact = |i: usize| u32::try_from(i).ok().filter(|&i| i != GROUNDED);
        let index = |t: Option<usize>| {
            t.map_or(GROUNDED, |i| compact(i).expect("MOSFET terminal index fits the record"))
        };
        let [d, g, s] = terminals;
        let pos = |a: Option<usize>, b: Option<usize>| match (a, b) {
            (Some(i), Some(j)) => compact(slot(i, j)).expect("MOSFET stamp slot fits the record"),
            _ => GROUNDED,
        };
        let [dg, dd, ds, sg, sd, ss] =
            [pos(d, g), pos(d, d), pos(d, s), pos(s, g), pos(s, d), pos(s, s)];
        Self {
            card,
            terminals: [index(d), index(g), index(s)],
            slots: [[dg, dd, ds, sg, sd, ss], [sg, ss, sd, dg, ds, dd]],
        }
    }

    /// Linearizes the device around estimate `x` (ground = 0 V) and adds
    /// its companion stamp into `vals` and `rhs`.
    fn restamp(&self, vals: &mut [f64], rhs: &mut [f64], x: &[f64]) {
        // Polarity factor: work in "carrier space" w = p·v so PMOS
        // reuses the NMOS equations; p² = 1 keeps the conductance
        // stamps sign-free while the equivalent current gets p.
        let volt = |t: u32| if t == GROUNDED { 0.0 } else { x[t as usize] };
        let MosCard { model, ratio, p } = self.card;
        let [d, g, s] = self.terminals;
        let wd = p * volt(d);
        let wg = p * volt(g);
        let ws = p * volt(s);
        // The device is symmetric: the higher carrier-space terminal
        // acts as the drain.
        let swapped = wd < ws;
        let (wdd, wss) = if swapped { (ws, wd) } else { (wd, ws) };
        let vgs_c = wg - wss;
        let vds_c = wdd - wss;
        let (id0, gm0, gds0) = model.ids(vgs_c, vds_c);
        let (id, gm, gds) = (id0 * ratio, gm0 * ratio, gds0 * ratio);
        let ieq_signed = p * (id - gm * vgs_c - gds * vds_c);
        let addends = [gm, gds, -(gm + gds), -gm, -gds, gm + gds];
        for (&slot, v) in self.slots[usize::from(swapped)].iter().zip(addends) {
            if slot != GROUNDED {
                vals[slot as usize] += v;
            }
        }
        let (rd, rs) = if swapped { (s, d) } else { (d, s) };
        if rd != GROUNDED {
            rhs[rd as usize] += -ieq_signed;
        }
        if rs != GROUNDED {
            rhs[rs as usize] += ieq_signed;
        }
    }
}

/// The per-iteration half of an assembly over the CSR value array: the
/// `gmin` diagonal slots and the MOSFET records.
#[derive(Debug, Clone)]
struct Restamp {
    /// Value slot of each node's diagonal.
    gmin_slots: Vec<usize>,
    mosfets: Vec<MosRecord>,
}

impl Restamp {
    /// Adds `gmin` on every node diagonal, then every MOSFET's
    /// linearization around `x`, in device order.
    fn apply(&self, vals: &mut [f64], rhs: &mut [f64], x: &[f64], gmin: f64) {
        for &i in &self.gmin_slots {
            vals[i] += gmin;
        }
        for mos in &self.mosfets {
            mos.restamp(vals, rhs, x);
        }
    }
}

/// One context-dependent RHS stamp: the part of the base RHS that varies
/// with [`StampContext`] `time` / `step` while the matrix pattern *and*
/// values stay fixed — voltage-source waveform values and backward-Euler
/// capacitor companion currents. Recording these lets a template be
/// re-pointed at a new time step ([`MnaTemplate::update_context`])
/// with a value-only RHS rebuild instead of a full netlist re-walk, so
/// transient stepping inherits the same symbolic/pattern reuse DC sweeps
/// have.
#[derive(Debug, Clone, Copy)]
enum DynamicRhs {
    /// Backward-Euler companion current `ieq = geq (v_prev(a) − v_prev(b))`
    /// into rows `ia`/`ib`. `geq = C/dt` is baked into the matrix, so the
    /// step size must not change across updates.
    Cap { ia: Option<usize>, ib: Option<usize>, geq: f64 },
    /// Voltage-source branch row set to the waveform value at the context
    /// time.
    Vsrc { row: usize, waveform: SourceWaveform },
}

/// The context-dependent half of a template's base RHS: the static
/// contributions
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
    /// An empty record for an `n`-unknown system under `ctx`'s analysis
    /// kind, to be filled in walk order and materialized by
    /// [`Self::rebuild`].
    fn empty(n: usize, ctx: &StampContext<'_>) -> Self {
        Self {
            base: Vec::with_capacity(n),
            stat: vec![0.0; n],
            dynamic: Vec::new(),
            step_dt: ctx.step.map(|(dt, _)| dt),
        }
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

    /// Materializes the base RHS for `ctx` from the recorded stamps.
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

    /// Empties the recorded stamps for an in-place refill from a
    /// same-topology walk of the same analysis kind (the value write):
    /// the static contributions are zeroed and the dynamic stamps
    /// cleared, keeping both allocations.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` changes the analysis kind or time step the
    /// template's matrix values bake in.
    fn clear_for_refill(&mut self, ctx: &StampContext<'_>) {
        assert_eq!(
            self.step_dt,
            ctx.step.map(|(dt, _)| dt),
            "value-only retarget must keep the analysis kind and time step"
        );
        self.stat.fill(0.0);
        self.dynamic.clear();
    }
}

/// One event of the deterministic netlist→stamps walk — both template
/// construction
/// (`new`) **and** the in-place value rewrite (`write_values`, behind
/// [`OpSolver::retarget_values`](crate::dc::OpSolver::retarget_values))
/// consume the identical event stream, which is what makes a patched
/// template bitwise equal to a freshly built one: same stamps, same
/// order, same summation sequence.
enum StampEvent {
    /// Matrix stamp at `(row(a), col(b))` — dropped when either side is
    /// ground. MOSFETs emit six zero-valued events to reserve their
    /// restamp slots in the CSR pattern.
    Mat { a: Option<usize>, b: Option<usize>, v: f64 },
    /// Context-independent RHS contribution (current sources).
    StatRhs { node: Option<usize>, v: f64 },
    /// Context-dependent RHS stamp (see [`DynamicRhs`]).
    Dynamic(DynamicRhs),
    /// One MOSFET's card and terminal unknowns (`None` for ground).
    Mos { card: MosCard, terminals: [Option<usize>; 3] },
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
                sink(StampEvent::Mos {
                    card: MosCard { model, ratio: w_um / l_um, p },
                    terminals: [d, g, s],
                });
            }
            (device, _) => unreachable!("device {} holds a value of another kind", device.name()),
        }
    }
}

/// Cached **CSR** MNA assembly for one `(topology, values, context)`
/// triple.
///
/// Everything except the MOSFETs is affine in the unknowns and constant
/// across Newton iterations — resistor/capacitor-companion conductances,
/// voltage-source incidence rows, source currents. The CSR pattern is
/// built once from the netlist with slots reserved for everything that
/// varies per iteration (MOSFET conductances, the `gmin` diagonal);
/// constant stamps live in the base value array. Each
/// [`assemble_into`](Self::assemble_into) is then a value-array `memcpy`
/// plus the slot-indexed MOSFET restamp — the pattern never changes,
/// which is also what lets [`SparseLu`] freeze its symbolic
/// factorization across the whole Newton/`gmin`-ladder/sweep lifetime
/// of the template.
#[derive(Debug, Clone)]
pub struct MnaTemplate {
    base: CsrMatrix<f64>,
    rhs: RhsTemplate,
    restamp: Restamp,
    /// Push-order → value-index map over the stamp walk (gmin slots
    /// appended last): the `k`-th emitted non-ground matrix stamp lands
    /// at `base.values()[slot_of[k]]` — the value-only retarget writes
    /// through this instead of re-sorting a triplet builder.
    slot_of: Vec<usize>,
    n_nodes: usize,
}

impl MnaTemplate {
    /// Builds the template over `topology` with device values `values`:
    /// reserves the full pattern, stamps every constant device, resolves
    /// the nonzero indices of the per-iteration stamps. The template
    /// bakes in `ctx.time` and `ctx.step` (source values, capacitor
    /// companions) but **not** `ctx.gmin` — the gmin diagonal is applied
    /// per [`assemble_into`](Self::assemble_into) call, so one template
    /// serves an entire gmin continuation ladder. Pass
    /// `netlist.values()` to build from a netlist's own values.
    ///
    /// # Panics
    ///
    /// Panics unless `topology` [accepts](Netlist::accepts) `values`.
    pub fn new(topology: &Netlist, values: &[DeviceValue], ctx: &StampContext<'_>) -> Self {
        assert!(topology.accepts(values), "device values do not fit the topology");
        let n_nodes = topology.node_count() - 1;
        let n = topology.unknown_count();
        let mut t = Triplets::new(n, n);
        let mut rhs = RhsTemplate::empty(n, ctx);
        let mut mos_events = Vec::new();

        walk_stamps(topology, values, ctx, &mut |event| match event {
            StampEvent::Mat { a, b, v } => {
                if let (Some(i), Some(j)) = (a, b) {
                    t.push(i, j, v);
                }
            }
            StampEvent::StatRhs { node, v } => stamp_rhs(&mut rhs.stat, node, v),
            StampEvent::Dynamic(d) => rhs.dynamic.push(d),
            StampEvent::Mos { card, terminals } => mos_events.push((card, terminals)),
        });
        rhs.rebuild(ctx);
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
        let slot = |i: usize, j: usize| base.value_index(i, j).expect("reserved slot in pattern");
        let mosfets = mos_events
            .into_iter()
            .map(|(card, terminals)| MosRecord::new(card, terminals, slot))
            .collect();
        let gmin_slots = (0..n_nodes).map(|i| slot(i, i)).collect();
        Self { base, rhs, restamp: Restamp { gmin_slots, mosfets }, slot_of, n_nodes }
    }

    /// Rewrites every device-value-dependent stamp in place from
    /// `values` through the precomputed push-order → nonzero map (no
    /// triplet builder, no sort, no `value_index` searches) and refreshes
    /// the MOSFET cards, leaving the pattern — and therefore any frozen
    /// symbolic factorization built on it — untouched. Bitwise identical
    /// to a fresh [`MnaTemplate::new`]: both paths accumulate the same
    /// stamp stream in push order, exactly as [`Triplets::to_csr`] merges
    /// duplicates. `topology` must be the one this template was built
    /// over and accept `values` — the caller's check, not repeated here
    /// (a foreign topology with the same device kinds would pass it,
    /// which is why the write stays crate-private).
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
        self.rhs.clear_for_refill(ctx);
        self.base.values_mut().fill(0.0);
        let mut slot = 0usize;
        let mut mos_i = 0usize;
        // Split the template's fields so the closure's borrows stay
        // disjoint.
        let stored = self.base.values_mut();
        let (rhs, slot_of, mosfets) = (&mut self.rhs, &self.slot_of, &mut self.restamp.mosfets);
        walk_stamps(topology, values, ctx, &mut |event| match event {
            StampEvent::Mat { a, b, v } => {
                if a.is_some() && b.is_some() {
                    stored[slot_of[slot]] += v;
                    slot += 1;
                }
            }
            StampEvent::StatRhs { node, v } => stamp_rhs(&mut rhs.stat, node, v),
            StampEvent::Dynamic(d) => rhs.dynamic.push(d),
            StampEvent::Mos { card, .. } => {
                mosfets[mos_i].card = card;
                mos_i += 1;
            }
        });
        debug_assert_eq!(slot + self.n_nodes, slot_of.len(), "same-topology walk changed shape");
        debug_assert_eq!(mos_i, mosfets.len(), "same-topology walk changed shape");
        self.rhs.rebuild(ctx);
    }

    /// Re-points the template at a new context **of the same kind**: same
    /// analysis (DC stays DC, transient keeps the same `dt`), new source
    /// time and/or previous-step solution. Only the context-dependent RHS
    /// values are rebuilt — the CSR pattern and values (and therefore any
    /// frozen factorization built on them) are untouched, which is what
    /// lets every backward-Euler step after the first skip the netlist
    /// walk and the symbolic analysis.
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

    /// Non-ground node count (the `gmin` / damping prefix of the
    /// unknowns).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of nonlinear devices restamped per iteration.
    pub fn nonlinear_count(&self) -> usize {
        self.restamp.mosfets.len()
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
    /// restamped through their precomputed value slots.
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
        self.restamp.apply(a.values_mut(), rhs, x, gmin);
    }

    /// Consumes the template into working state (system storage +
    /// factorization slot) for Newton solves. Keep one state across
    /// repeated solves — `gmin`-ladder rungs, corner/mismatch re-solves,
    /// benchmark sweeps — and the symbolic factorization (pivot order
    /// and fill pattern) is reused instead of recomputed.
    pub fn into_state(self) -> MnaState {
        let n = self.dim();
        MnaState {
            a: self.new_system(),
            rhs: vec![0.0; n],
            lu: None,
            primed_lu: None,
            template: self,
            repivots: 0,
            newton_iterations: 0,
            work: NewtonWork::default(),
        }
    }
}

/// The Newton loop's working vectors, kept in [`MnaState`] so that an
/// iteration, a `gmin` rung or a repeated solve allocates nothing once
/// they have grown to the system size.
#[derive(Debug, Clone, Default)]
struct NewtonWork {
    /// The starting point of the next Newton run; after a converged run
    /// it holds the solution.
    start: Vec<f64>,
    /// The iterate.
    x: Vec<f64>,
    residual: Vec<f64>,
    dx: Vec<f64>,
}

/// Working storage for Newton solves over one [`MnaTemplate`]: the
/// template, the assembled system, the (re)usable sparse factorization
/// and the Newton loop's working vectors.
///
/// `MnaState` is `Clone` + `Send`, which is what per-worker solver
/// pooling builds on: clone a **primed** state (one that already carries
/// a factorization — see [`MnaState::prime`]) once per worker thread and
/// every clone shares the prototype's symbolic analysis (pivot order +
/// fill pattern) while owning its own numeric storage. Cloning shares no
/// mutable state, so concurrently refactoring the clones with different
/// values is race-free and bitwise-deterministic.
#[derive(Debug, Clone)]
pub struct MnaState {
    template: MnaTemplate,
    a: CsrMatrix<f64>,
    rhs: Vec<f64>,
    lu: Option<SparseLu<f64>>,
    /// The factorization [`MnaState::prime`] produced — the canonical
    /// pivot order every clone starts from — shared by the clones.
    primed_lu: Option<Arc<SparseLu<f64>>>,
    /// Times the frozen pivot order was abandoned for a fresh symbolic
    /// analysis (see [`MnaState::repivots`]).
    repivots: u64,
    /// Cumulative Newton/chord iterations run through this state — the
    /// deterministic work measure of a solve sequence (wall time would be
    /// noisy; iteration count is exact).
    newton_iterations: u64,
    work: NewtonWork,
}

impl MnaState {
    fn dim(&self) -> usize {
        self.template.dim()
    }

    /// Assembles the linearized system around `x`.
    pub(crate) fn assemble(&mut self, x: &[f64], gmin: f64) {
        self.template.assemble_into(&mut self.a, &mut self.rhs, x, gmin);
    }

    /// `out = rhs − A·x` over the currently assembled system.
    fn residual_into(&self, x: &[f64], out: &mut [f64]) {
        self.a.mat_vec_into(x, out);
        for (r, b) in out.iter_mut().zip(&self.rhs) {
            *r = b - *r;
        }
    }

    /// Factors (first use) or numerically re-factors the assembled
    /// system over the frozen pivot order and pattern, re-running the
    /// compiled elimination over every row; if drifting values break a
    /// frozen pivot it transparently re-pivots (fresh symbolic analysis,
    /// counted in [`Self::repivots`]) before giving up.
    pub(crate) fn refresh_factor(&mut self) -> Result<(), SpiceError> {
        let had_factor = self.lu.is_some();
        match self.lu.as_mut().map(|f| f.refactor(&self.a)) {
            Some(Ok(())) => {}
            // A collapsed frozen pivot, or a first-use factor: fresh
            // symbolic analysis.
            Some(Err(LinalgError::Singular { .. })) | None => {
                self.lu = Some(SparseLu::factor(&self.a).map_err(SpiceError::from)?);
                if had_factor {
                    self.repivots += 1;
                }
            }
            Some(Err(e)) => return Err(SpiceError::from(e)),
        }
        Ok(())
    }

    /// Times a frozen pivot collapsed numerically and a fresh symbolic
    /// analysis replaced it. A state that re-pivoted no longer carries
    /// the *canonical* pivot order its pool siblings share, so pools
    /// retire it (replacing it with a fresh prototype clone) to keep
    /// results independent of which worker solved which point.
    pub fn repivots(&self) -> u64 {
        self.repivots
    }

    /// Cumulative Newton/chord iterations run through this state (all
    /// solves, all `gmin` rungs).
    pub fn newton_iterations(&self) -> u64 {
        self.newton_iterations
    }

    /// Assembles the system at the all-zeros estimate under `gmin` and
    /// factors it, so the state carries a factorization before any solve
    /// — the **symbolic analysis** (pivot order + fill pattern), which
    /// the state also keeps as its canonical factor, to hand back after
    /// a re-pivot. Priming a prototype once and
    /// cloning it per worker is how a sweep shares one symbolic analysis
    /// across threads; priming never changes a solve's numeric values
    /// (the Newton loop always refreshes the factor numerically before
    /// its first solve).
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] if the primed system cannot be
    /// factored (structurally singular netlist).
    pub fn prime(&mut self, gmin: f64) -> Result<(), SpiceError> {
        let x = vec![0.0; self.dim()];
        self.assemble(&x, gmin);
        self.refresh_factor()?;
        self.primed_lu = self.lu.clone().map(Arc::new);
        Ok(())
    }

    /// Puts the factor [`Self::prime`] produced back in place (a no-op on
    /// an unprimed state), so that the next solve refactors over the
    /// canonical pivot order again after a re-pivot. The re-pivot stays
    /// counted.
    pub(crate) fn restore_primed_factor(&mut self) {
        if let Some(primed) = &self.primed_lu {
            self.lu = Some(SparseLu::clone(primed));
        }
    }

    /// The starting point of the next [`Self::newton_from_start`], which
    /// the caller fills.
    pub(crate) fn start_mut(&mut self) -> &mut Vec<f64> {
        &mut self.work.start
    }

    /// The starting point; after a converged [`Self::newton_from_start`]
    /// the solution.
    pub(crate) fn start(&self) -> &[f64] {
        &self.work.start
    }

    /// Runs the Newton/chord iteration from [`Self::start`] and, if it
    /// converges, leaves the solution there; on an error the starting
    /// point is untouched.
    ///
    /// # Errors
    ///
    /// As [`newton_solve_with_state`].
    ///
    /// # Panics
    ///
    /// Panics if the starting point's length differs from the state
    /// dimension.
    pub(crate) fn newton_from_start(
        &mut self,
        gmin: f64,
        options: &NewtonOptions,
    ) -> Result<(), SpiceError> {
        let mut work = std::mem::take(&mut self.work);
        work.x.clear();
        work.x.extend_from_slice(&work.start);
        let outcome = newton_iterate(self, &mut work, gmin, options);
        if outcome.is_ok() {
            std::mem::swap(&mut work.start, &mut work.x);
        }
        self.work = work;
        outcome
    }

    /// Rewrites the template's stamp values in place from `values` over
    /// `topology`, which must be the template's own topology and accept
    /// `values` (the caller's check) — no template rebuild, no
    /// allocation, factorization kept.
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
        self.template.write_values(topology, values, ctx);
    }

    /// Re-points the underlying template at a new context of the same
    /// kind (see [`MnaTemplate::update_context`]).
    ///
    /// # Panics
    ///
    /// Panics if the context changes analysis kind or time step.
    pub fn update_context(&mut self, ctx: &StampContext<'_>) {
        self.template.update_context(ctx);
    }

    /// Solves the factored system for `b` into `dx`.
    ///
    /// # Panics
    ///
    /// Panics if no factorization is present.
    fn solve_into(&mut self, b: &[f64], dx: &mut Vec<f64>) {
        self.lu.as_mut().expect("factorization present after refresh").solve_into(b, dx);
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
}

impl NewtonOptions {
    /// Options forcing a fresh factorization every iteration — the
    /// reference semantics the chord path is parity-tested against.
    pub fn full_newton() -> Self {
        Self { strategy: JacobianStrategy::Full, ..Self::default() }
    }
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            tolerance: 1e-9,
            max_step: 0.5,
            strategy: JacobianStrategy::default(),
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
    let mut state = MnaTemplate::new(netlist, netlist.values(), ctx).into_state();
    newton_solve_with_state(&mut state, initial, ctx.gmin, options)
}

/// The Newton/chord iteration over persistent working state.
///
/// The state owns the assembled system, the factorization and the
/// Newton working vectors, so an iteration allocates nothing; only the
/// returned solution is a new vector. The factorization slot carries
/// the **symbolic factorization** (pivot order + fill pattern), so every
/// refresh after
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
    let start = state.start_mut();
    start.clear();
    start.extend_from_slice(initial);
    state.newton_from_start(gmin, options)?;
    Ok(state.start().to_vec())
}

/// The iteration behind [`newton_solve_with_state`], over the working
/// vectors `work` (taken out of `state` for the run): iterates `work.x`
/// in place.
fn newton_iterate(
    state: &mut MnaState,
    work: &mut NewtonWork,
    gmin: f64,
    options: &NewtonOptions,
) -> Result<(), SpiceError> {
    let n = state.dim();
    assert_eq!(work.x.len(), n, "initial guess dimension mismatch");
    let n_nodes = state.template.n_nodes();
    let NewtonWork { x, residual, dx, .. } = work;
    residual.clear();
    residual.resize(n, 0.0);
    // Whether the factorization is from an *earlier* iterate (chord
    // state). A factor inherited from a previous solve is always stale.
    let mut lu_is_stale = state.lu.is_some();
    let mut refresh_next = false;
    // Whether the current factorization carries a singularity-recovery
    // diagonal boost (see below). A boosted Jacobian shrinks the step —
    // a small update no longer implies a stationary point — so
    // convergence is never accepted off a boosted factor.
    let mut boosted = false;
    let mut last_max_delta = f64::INFINITY;

    for _ in 0..options.max_iterations {
        state.newton_iterations += 1;
        state.assemble(x, gmin);
        // residual = rhs − A·x; the Newton/chord step solves J·dx = residual.
        state.residual_into(x, residual);

        let refresh = match options.strategy {
            JacobianStrategy::Full => true,
            JacobianStrategy::Chord { refactor_threshold, .. } => {
                state.lu.is_none() || refresh_next || last_max_delta > refactor_threshold
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
                        state.assemble(x, gmin * boost);
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
        state.solve_into(residual, dx);

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
                return Ok(());
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
    state.assemble(x, gmin);
    state.residual_into(x, residual);
    let residual = residual.iter().fold(0.0f64, |m, r| m.max(r.abs()));
    Err(SpiceError::NonConvergent { residual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GROUND;

    /// Direct dense assembly of the linearized system around `x`: the
    /// stamp walk into a dense matrix, the RHS built from its events,
    /// the `gmin` diagonal and every MOSFET restamped through 2-D
    /// indexing — the oracle the CSR template and the sparse solves are
    /// checked against.
    fn assemble(netlist: &Netlist, x: &[f64], ctx: &StampContext<'_>) -> (Matrix, Vec<f64>) {
        let n = netlist.unknown_count();
        let mut a = Matrix::zeros(n, n);
        let mut rhs = RhsTemplate::empty(n, ctx);
        walk_stamps(netlist, netlist.values(), ctx, &mut |event| match event {
            StampEvent::Mat { a: ia, b: ib, v } => stamp(&mut a, ia, ib, v),
            StampEvent::StatRhs { node, v } => stamp_rhs(&mut rhs.stat, node, v),
            StampEvent::Dynamic(d) => rhs.dynamic.push(d),
            StampEvent::Mos { .. } => {}
        });
        rhs.rebuild(ctx);
        for i in 0..netlist.node_count() - 1 {
            a[(i, i)] += ctx.gmin;
        }
        let mut b = rhs.base;
        restamp_dense_oracle(&MosStamp::all(netlist), &mut a, &mut b, x);
        (a, b)
    }

    /// Damped full Newton over [`assemble`], each step solved by the
    /// dense `Lu` — the oracle the sparse Newton solves are checked
    /// against.
    fn dense_newton(
        netlist: &Netlist,
        x0: &[f64],
        ctx: &StampContext<'_>,
        options: &NewtonOptions,
    ) -> Vec<f64> {
        let n_nodes = netlist.node_count() - 1;
        let mut x = x0.to_vec();
        for _ in 0..options.max_iterations {
            let (a, rhs) = assemble(netlist, &x, ctx);
            let ax = a.mat_vec(&x);
            let residual: Vec<f64> = rhs.iter().zip(&ax).map(|(b, v)| b - v).collect();
            let lu: Lu = a.lu().expect("the dense oracle factors");
            let dx = lu.solve(&residual);
            let mut max_delta = 0.0f64;
            for (i, (xi, d)) in x.iter_mut().zip(dx).enumerate() {
                let d = if i < n_nodes { d.clamp(-options.max_step, options.max_step) } else { d };
                *xi += d;
                if i < n_nodes {
                    max_delta = max_delta.max(d.abs());
                }
            }
            if max_delta < options.tolerance {
                return x;
            }
        }
        panic!("the dense Newton oracle did not converge");
    }

    /// One MOSFET's stamp in the layout the oracle restamps read:
    /// node indices (`None` for ground), card, geometry ratio and
    /// polarity factor.
    #[derive(Debug, Clone, Copy)]
    struct MosStamp {
        drain: Option<usize>,
        gate: Option<usize>,
        source: Option<usize>,
        model: MosModel,
        ratio: f64,
        p: f64,
    }

    /// One linearization: the numbers both oracle restamps stamp.
    #[derive(Debug, Clone, Copy)]
    struct MosLin {
        swapped: bool,
        gm: f64,
        gds: f64,
        ieq_signed: f64,
    }

    impl MosStamp {
        /// Every MOSFET of `netlist`, in device order, read straight off
        /// its devices and values.
        fn all(netlist: &Netlist) -> Vec<Self> {
            netlist
                .devices()
                .iter()
                .zip(netlist.values())
                .filter_map(|(device, value)| match (device, *value) {
                    (
                        Device::Mosfet { drain, gate, source, .. },
                        DeviceValue::Mosfet { model, w_um, l_um },
                    ) => Some(Self {
                        drain: node_index(*drain),
                        gate: node_index(*gate),
                        source: node_index(*source),
                        model,
                        ratio: w_um / l_um,
                        p: match model.polarity {
                            crate::model::MosPolarity::Nmos => 1.0,
                            crate::model::MosPolarity::Pmos => -1.0,
                        },
                    }),
                    _ => None,
                })
                .collect()
        }

        fn linearize(&self, x: &[f64]) -> MosLin {
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

    /// The per-device restamp into a dense matrix, through 2-D indexing.
    fn restamp_dense_oracle(mosfets: &[MosStamp], a: &mut Matrix, rhs: &mut [f64], x: &[f64]) {
        for mos in mosfets {
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

    /// The per-device restamp into a CSR matrix, through CSR value
    /// positions resolved per record.
    fn restamp_sparse_oracle(
        mosfets: &[MosStamp],
        a: &mut CsrMatrix<f64>,
        rhs: &mut [f64],
        x: &[f64],
    ) {
        let pos = |a: &CsrMatrix<f64>, i: Option<usize>, j: Option<usize>| match (i, j) {
            (Some(i), Some(j)) => Some(a.value_index(i, j).expect("reserved stamp slot")),
            _ => None,
        };
        for mos in mosfets {
            let (d, g, s) = (mos.drain, mos.gate, mos.source);
            let (pdg, pdd, pds) = (pos(a, d, g), pos(a, d, d), pos(a, d, s));
            let (psg, psd, pss) = (pos(a, s, g), pos(a, s, d), pos(a, s, s));
            let lin = mos.linearize(x);
            let (pdg, pdd, pds, psg, psd, pss) = if lin.swapped {
                (psg, pss, psd, pdg, pds, pdd)
            } else {
                (pdg, pdd, pds, psg, psd, pss)
            };
            let vals = a.values_mut();
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
            let (idx_d, idx_s) = if lin.swapped { (s, d) } else { (d, s) };
            stamp_rhs(rhs, idx_d, -lin.ieq_signed);
            stamp_rhs(rhs, idx_s, lin.ieq_signed);
        }
    }

    /// A netlist whose MOSFETs cover every restamp shape: both
    /// polarities, a grounded drain, gate and source, and a
    /// diode-connected device whose drain and gate slots coincide.
    fn restamp_netlist() -> Netlist {
        use crate::model::MosModel;
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let vin = nl.node("vin");
        let out = nl.node("out");
        let mid = nl.node("mid");
        nl.vsource("VDD", vdd, GROUND, 0.9);
        nl.vsource("VIN", vin, GROUND, 0.42);
        nl.resistor("RL", vdd, out, 10e3);
        nl.resistor("RM", mid, GROUND, 20e3);
        nl.mosfet("MP", out, vin, vdd, MosModel::pmos_28nm(), 2.0, 0.05);
        nl.mosfet("MN", out, vin, mid, MosModel::nmos_28nm(), 1.0, 0.05);
        nl.mosfet("MD", GROUND, vin, mid, MosModel::nmos_28nm(), 1.5, 0.06);
        nl.mosfet("MG", mid, GROUND, out, MosModel::pmos_28nm(), 3.0, 0.08);
        nl.mosfet("MS", mid, out, GROUND, MosModel::nmos_28nm(), 0.8, 0.04);
        nl.mosfet("MX", out, out, mid, MosModel::nmos_28nm(), 1.2, 0.05);
        nl
    }

    /// The slot restamp against the per-device oracles, bit for bit, at
    /// estimate `x` under `gmin`: the CSR values against the oracle
    /// restamp through CSR positions, and the densified system against
    /// the direct dense assembly.
    fn check_restamp_against_oracles(
        nl: &Netlist,
        x: &[f64],
        gmin: f64,
    ) -> Result<(), proptest::TestCaseError> {
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let ctx = StampContext { time: 0.0, step: None, gmin };
        let mosfets = MosStamp::all(nl);
        let n = nl.unknown_count();
        let n_nodes = nl.node_count() - 1;

        let sparse = MnaTemplate::new(nl, nl.values(), &ctx);
        let (mut a, mut rhs) = (sparse.new_system(), vec![0.0; n]);
        sparse.assemble_into(&mut a, &mut rhs, x, gmin);
        let (mut a_oracle, mut rhs_oracle) = (sparse.base.clone(), sparse.rhs.base.clone());
        for i in 0..n_nodes {
            let slot = a_oracle.value_index(i, i).expect("node diagonal in pattern");
            a_oracle.values_mut()[slot] += gmin;
        }
        restamp_sparse_oracle(&mosfets, &mut a_oracle, &mut rhs_oracle, x);
        proptest::prop_assert_eq!(bits(a.values()), bits(a_oracle.values()), "sparse matrix");
        proptest::prop_assert_eq!(bits(&rhs), bits(&rhs_oracle), "sparse rhs");

        let (dense, dense_rhs) = assemble(nl, x, &ctx);
        proptest::prop_assert_eq!(
            bits(a.to_dense().as_slice()),
            bits(dense.as_slice()),
            "densified matrix"
        );
        proptest::prop_assert_eq!(bits(&rhs), bits(&dense_rhs), "dense rhs");
        Ok(())
    }

    proptest::proptest! {
        // The slot restamp agrees with the per-device oracle restamps,
        // bit for bit, at random estimates.
        #[test]
        fn prop_slot_restamp_matches_per_backend_oracles(
            x in proptest::collection::vec(-0.6f64..1.5, 6),
            gmin in 1e-12f64..1e-3,
        ) {
            check_restamp_against_oracles(&restamp_netlist(), &x, gmin)?;
        }
    }

    #[test]
    fn restamp_oracle_grid_covers_every_orientation_and_region() {
        // Every device on a grid of estimates: the parity check holds at
        // each, and between them the estimates reach both drain/source
        // orientations in all three regions (cutoff, triode,
        // saturation).
        let nl = restamp_netlist();
        let mosfets = MosStamp::all(&nl);
        let levels = [-0.3, 0.0, 0.2, 0.45, 0.9, 1.3];
        let mut seen = std::collections::BTreeSet::new();
        let n = nl.unknown_count();
        for k in 0..levels.len().pow(4) {
            let mut x = vec![0.0; n];
            let mut code = k;
            for v in x.iter_mut().take(4) {
                *v = levels[code % levels.len()];
                code /= levels.len();
            }
            check_restamp_against_oracles(&nl, &x, 1e-9).unwrap();
            for mos in &mosfets {
                let lin = mos.linearize(&x);
                let volt = |i: Option<usize>| mos.p * i.map_or(0.0, |i| x[i]);
                let (wd, wg, ws) = (volt(mos.drain), volt(mos.gate), volt(mos.source));
                let (hi, lo) = if lin.swapped { (ws, wd) } else { (wd, ws) };
                let vov = wg - lo - mos.model.vth0;
                let region = if vov <= 0.0 {
                    0
                } else if hi - lo < vov {
                    1
                } else {
                    2
                };
                seen.insert((lin.swapped, region));
            }
        }
        assert_eq!(seen.len(), 6, "orientation × region combinations reached: {seen:?}");
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
        let template = MnaTemplate::new(&nl, nl.values(), &ctx);
        assert_eq!(template.nonlinear_count(), 1);
        let n = nl.unknown_count();
        for estimate in [vec![0.0; n], vec![0.3; n], vec![0.9; n]] {
            let (a_direct, rhs_direct) = assemble(&nl, &estimate, &ctx);
            let mut a = template.new_system();
            let mut rhs = vec![0.0; n];
            template.assemble_into(&mut a, &mut rhs, &estimate, ctx.gmin);
            assert_eq!(a.to_dense(), a_direct);
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

    /// A small mixed netlist exercising every stamp kind the DC walk
    /// emits (resistors, V/I sources, both MOSFET polarities), every
    /// device value — the model cards included — moving with `p` while
    /// the topology stays fixed.
    fn mixed_netlist(p: &[f64]) -> Netlist {
        use crate::model::MosModel;
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

    #[test]
    fn sparse_template_assembles_identically_to_dense() {
        // The CSR assembly, densified, must agree entry-for-entry with
        // the direct dense assembly at several estimates and gmin values
        // — both run the same linearization, so equality is exact.
        let nl = mixed_netlist(&[0.0]);
        let template =
            MnaTemplate::new(&nl, nl.values(), &StampContext { time: 0.0, step: None, gmin: 1e-9 });
        let n = nl.unknown_count();
        let mut a_sparse = template.new_system();
        let mut rhs_sparse = vec![0.0; n];
        for (estimate, gmin) in [(vec![0.0; n], 1e-3), (vec![0.3; n], 1e-9), (vec![0.9; n], 1e-12)]
        {
            let ctx = StampContext { time: 0.0, step: None, gmin };
            template.assemble_into(&mut a_sparse, &mut rhs_sparse, &estimate, gmin);
            let (a_dense, rhs_dense) = assemble(&nl, &estimate, &ctx);
            assert_eq!(a_sparse.to_dense(), a_dense);
            assert_eq!(rhs_sparse, rhs_dense);
        }
    }

    #[test]
    fn sparse_backend_matches_dense_operating_point() {
        // The sparse Newton solve, under both Jacobian strategies,
        // against damped full Newton on the same assembled systems
        // solved by the dense `Lu`.
        let nl = mixed_netlist(&[0.0]);
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-9 };
        let x0 = vec![0.0; nl.unknown_count()];
        let dense = dense_newton(&nl, &x0, &ctx, &NewtonOptions::default());
        for strategy in [JacobianStrategy::Full, JacobianStrategy::CHORD_DEFAULT] {
            let options = NewtonOptions { strategy, ..NewtonOptions::default() };
            let sparse = newton_solve(&nl, &x0, &ctx, &options).unwrap();
            for (d, s) in dense.iter().zip(&sparse) {
                assert!((d - s).abs() < 1e-9, "dense {d} vs sparse {s} ({strategy:?})");
            }
        }
    }

    #[test]
    fn transient_step_sparse_matches_dense() {
        // Capacitor companion stamps flow through the CSR template
        // during a transient step; the dense `Lu` solves the same step.
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
        let options = NewtonOptions::default();
        let dense = dense_newton(&nl, &prev, &ctx, &options);
        let sparse = newton_solve(&nl, &prev, &ctx, &options).unwrap();
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

    /// The system `state` assembles around `x` under `gmin`, as CSR
    /// value bits and RHS bits.
    fn assembled_bits(state: &mut MnaState, x: &[f64], gmin: f64) -> (Vec<u64>, Vec<u64>) {
        state.assemble(x, gmin);
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        (bits(state.a.values()), bits(&state.rhs))
    }

    /// `write_values` of `target`'s values into a state built over
    /// `base` against a state freshly built over `target`: the assembled
    /// systems must agree bit for bit at every `(estimate, gmin)` in
    /// `points`.
    fn check_patched_assembly(
        base: &Netlist,
        target: &Netlist,
        ctx: &StampContext<'_>,
        points: &[(Vec<f64>, f64)],
    ) -> Result<(), proptest::TestCaseError> {
        let mut patched = MnaTemplate::new(base, base.values(), ctx).into_state();
        patched.write_values(base, target.values(), ctx);
        let mut fresh = MnaTemplate::new(target, target.values(), ctx).into_state();
        for (x, gmin) in points {
            proptest::prop_assert_eq!(
                assembled_bits(&mut patched, x, *gmin),
                assembled_bits(&mut fresh, x, *gmin),
                "gmin {}",
                gmin
            );
        }
        Ok(())
    }

    proptest::proptest! {
        // A template built over one value slice and rewritten in place
        // with another assembles systems bitwise identical to a template
        // freshly built over the second, at several estimates and gmin
        // values.
        #[test]
        fn prop_patched_template_assembles_identically(
            base in proptest::collection::vec(-1.0f64..1.0, 8),
            target in proptest::collection::vec(-1.0f64..1.0, 8),
            estimate in -0.2f64..1.0,
        ) {
            let ctx = StampContext { time: 0.0, step: None, gmin: 1e-9 };
            let (base, target) = (mixed_netlist(&base), mixed_netlist(&target));
            let x = vec![estimate; base.unknown_count()];
            check_patched_assembly(&base, &target, &ctx, &[(x.clone(), 1e-3), (x, 1e-9)])?;
        }
    }

    /// The transient-context write: capacitor companion stamps and
    /// waveform updates flow through `write_values` too.
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
        let (base, target) = (build(1e3, 1e-9, 1.0), build(2.2e3, 3.3e-10, 0.7));
        check_patched_assembly(&base, &target, &ctx, &[(vec![0.05; 3], 1e-12)]).unwrap();
    }

    /// A DC-built template must refuse a transient write context (the
    /// matrix values bake the analysis kind in).
    #[test]
    #[should_panic(expected = "analysis kind")]
    fn value_retarget_rejects_context_kind_change() {
        let nl = crate::netlist::inverter_chain_with_load(4, Some(10e3));
        let dc = StampContext { time: 0.0, step: None, gmin: 1e-9 };
        let mut template = MnaTemplate::new(&nl, nl.values(), &dc);
        let prev = vec![0.0; template.dim()];
        let transient = StampContext { time: 1e-9, step: Some((1e-9, &prev)), gmin: 1e-9 };
        template.write_values(&nl, nl.values(), &transient);
    }
}
