//! Netlist representation.
//!
//! A [`Netlist`] is a flat list of device instances over named nodes,
//! with one [`DeviceValue`] per device beside it. Nodes are created
//! through [`Netlist::node`]; ground is the pre-existing node [`GROUND`].
//! The devices alone are the circuit's topology: a sweep over device
//! values keeps one netlist and hands the solver value slices
//! ([`OpSolver::retarget_values`](crate::dc::OpSolver::retarget_values)).

use crate::device::{Device, DeviceValue};
use crate::model::MosModel;
use std::collections::HashMap;

/// Index of a circuit node. Node 0 is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// The ground node (reference, 0 V).
pub const GROUND: NodeId = NodeId(0);

impl NodeId {
    /// Raw index (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// Whether this is the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// Time-dependent source waveform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceWaveform {
    /// Constant value.
    Dc(f64),
    /// Single pulse: `low` until `delay`, then `high` until `delay + width`
    /// (with linear `rise`/`fall` edges), then `low` again.
    Pulse {
        /// Level before/after the pulse.
        low: f64,
        /// Pulse level.
        high: f64,
        /// Pulse start time, s.
        delay: f64,
        /// Rise time, s.
        rise: f64,
        /// Fall time, s.
        fall: f64,
        /// Time spent at `high`, s.
        width: f64,
    },
}

impl SourceWaveform {
    /// Value of the waveform at time `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        match *self {
            SourceWaveform::Dc(v) => v,
            SourceWaveform::Pulse { low, high, delay, rise, fall, width } => {
                if t < delay {
                    low
                } else if t < delay + rise {
                    low + (high - low) * (t - delay) / rise.max(1e-18)
                } else if t < delay + rise + width {
                    high
                } else if t < delay + rise + width + fall {
                    high - (high - low) * (t - delay - rise - width) / fall.max(1e-18)
                } else {
                    low
                }
            }
        }
    }
}

/// A circuit: nodes, device instances and one value per device.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    node_names: Vec<String>,
    name_to_node: HashMap<String, NodeId>,
    devices: Vec<Device>,
    values: Vec<DeviceValue>,
    vsource_count: usize,
}

impl Netlist {
    /// Creates an empty netlist (ground pre-registered).
    pub fn new() -> Self {
        let mut nl = Self {
            node_names: Vec::new(),
            name_to_node: HashMap::new(),
            devices: Vec::new(),
            values: Vec::new(),
            vsource_count: 0,
        };
        nl.node_names.push("0".to_string());
        nl.name_to_node.insert("0".to_string(), GROUND);
        nl
    }

    /// Returns the node with the given name, creating it if needed.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.name_to_node.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.to_string());
        self.name_to_node.insert(name.to_string(), id);
        id
    }

    /// The node named `name`, if the netlist has one (never creates a
    /// node, unlike [`node`](Self::node)).
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.name_to_node.get(name).copied()
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this netlist.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of voltage sources (each adds one MNA branch unknown).
    pub fn vsource_count(&self) -> usize {
        self.vsource_count
    }

    /// The devices in insertion order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The device values, one per device in insertion order.
    pub fn values(&self) -> &[DeviceValue] {
        &self.values
    }

    /// Whether `values` holds exactly one value per device, each of its
    /// device's kind — the check a value slice passes before it is
    /// stamped over this netlist's topology.
    pub fn accepts(&self, values: &[DeviceValue]) -> bool {
        values.len() == self.devices.len()
            && self.devices.iter().zip(values).all(|(device, value)| value.fits(device))
    }

    /// Replaces every device value, keeping the topology.
    ///
    /// # Panics
    ///
    /// Panics unless [`accepts`](Self::accepts) holds for `values`.
    pub fn set_values(&mut self, values: &[DeviceValue]) {
        assert!(self.accepts(values), "device values do not fit the netlist's devices");
        self.values.copy_from_slice(values);
    }

    fn push(&mut self, device: Device, value: DeviceValue) -> &mut Self {
        self.devices.push(device);
        self.values.push(value);
        self
    }

    /// Adds a resistor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms <= 0`.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, ohms: f64) -> &mut Self {
        let value = DeviceValue::resistor(ohms);
        self.push(Device::Resistor { name: name.to_string(), a, b }, value)
    }

    /// Adds a capacitor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `farads <= 0`.
    pub fn capacitor(&mut self, name: &str, a: NodeId, b: NodeId, farads: f64) -> &mut Self {
        let value = DeviceValue::capacitor(farads);
        self.push(Device::Capacitor { name: name.to_string(), a, b }, value)
    }

    /// Adds a DC voltage source: `v(plus) − v(minus) = volts`.
    pub fn vsource(&mut self, name: &str, plus: NodeId, minus: NodeId, volts: f64) -> &mut Self {
        self.vsource_waveform(name, plus, minus, SourceWaveform::Dc(volts))
    }

    /// Adds a voltage source with an arbitrary waveform.
    pub fn vsource_waveform(
        &mut self,
        name: &str,
        plus: NodeId,
        minus: NodeId,
        waveform: SourceWaveform,
    ) -> &mut Self {
        let branch = self.vsource_count;
        self.vsource_count += 1;
        let device = Device::Vsource { name: name.to_string(), plus, minus, branch };
        self.push(device, DeviceValue::Vsource { waveform })
    }

    /// Adds a DC current source pushing `amps` from `from` into `to`.
    pub fn isource(&mut self, name: &str, from: NodeId, to: NodeId, amps: f64) -> &mut Self {
        self.push(Device::Isource { name: name.to_string(), from, to }, DeviceValue::isource(amps))
    }

    /// Adds a MOSFET. `w_um`/`l_um` in micrometers; the model card fixes
    /// polarity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is non-positive.
    pub fn mosfet(
        &mut self,
        name: &str,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        model: MosModel,
        w_um: f64,
        l_um: f64,
    ) -> &mut Self {
        let value = DeviceValue::mosfet(model, w_um, l_um);
        self.push(Device::Mosfet { name: name.to_string(), drain, gate, source }, value)
    }

    /// Index of the MNA branch unknown of voltage source `name`, if any.
    pub fn vsource_branch(&self, name: &str) -> Option<usize> {
        self.devices.iter().find_map(|d| match d {
            Device::Vsource { name: n, branch, .. } if n == name => Some(*branch),
            _ => None,
        })
    }

    /// Total number of MNA unknowns: non-ground nodes + V-source branches.
    pub fn unknown_count(&self) -> usize {
        (self.node_count() - 1) + self.vsource_count
    }

    /// A 64-bit fingerprint of the netlist **topology**: node and
    /// voltage-source counts plus, per device in insertion order, the
    /// device kind and its node/branch connectivity. Device
    /// [`values`](Self::values) (resistances, source levels, waveform
    /// parameters, MOSFET model cards and geometry) and names are
    /// deliberately excluded — two netlists with equal fingerprints
    /// assemble MNA systems with identical sparsity patterns and stamp
    /// ordering, which is the precondition for one primed solver pool to
    /// serve both (the solver registry buckets pools by this digest).
    pub fn topology_fingerprint(&self) -> u64 {
        // The registry's bucket digest of the structural words;
        // collisions are negligible at 64 bits and the consumers
        // additionally check dimensions. The process-wide solver
        // registry (`glova_spice::registry`) cannot tolerate even a
        // negligible collision silently reusing a wrong symbolic
        // analysis, so it confirms hits against the full
        // [`structural_signature`](Self::structural_signature) word
        // sequence this digest is computed from.
        crate::registry::fnv1a(&self.structural_signature())
    }

    /// The exact structural word sequence [`Self::topology_fingerprint`]
    /// digests: counts, then per device (in insertion order) a kind tag
    /// and the node/branch connectivity. Two netlists are
    /// topology-equivalent — identical MNA sparsity pattern and stamp
    /// order — **iff** their signatures are equal, which makes this the
    /// collision-proof confirm behind fingerprint-keyed registries.
    pub fn structural_signature(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(3 + 4 * self.devices.len());
        words.push(self.node_count() as u64);
        words.push(self.vsource_count as u64);
        words.push(self.devices.len() as u64);
        for device in &self.devices {
            match device {
                Device::Resistor { a, b, .. } => {
                    words.extend([1, a.0 as u64, b.0 as u64]);
                }
                Device::Capacitor { a, b, .. } => {
                    words.extend([2, a.0 as u64, b.0 as u64]);
                }
                Device::Vsource { plus, minus, branch, .. } => {
                    words.extend([3, plus.0 as u64, minus.0 as u64, *branch as u64]);
                }
                Device::Isource { from, to, .. } => {
                    words.extend([4, from.0 as u64, to.0 as u64]);
                }
                Device::Mosfet { drain, gate, source, .. } => {
                    words.extend([5, drain.0 as u64, gate.0 as u64, source.0 as u64]);
                }
            }
        }
        words
    }
}

/// A CMOS inverter chain biased at mid-rail: `stages` nonlinear stages,
/// `2 + stages` non-ground nodes, `4 + stages` MNA unknowns.
///
/// The canonical solver-scaling workload: every stage adds one node,
/// two MOSFETs and a 10 kΩ output load, so sweeping `stages` sweeps the
/// MNA dimension while the per-node connectivity (and hence the sparse
/// nonzero count per row) stays constant. The load resistor keeps every
/// output conductively tied at all Newton iterates — a long *unloaded*
/// mid-rail chain drives the dense factorization into catastrophic
/// cancellation in the V-source border block during wild early iterates
/// (numerically singular from ~60 stages), which would leave the dense
/// reference unable to solve exactly the sizes the dense-vs-sparse
/// comparison needs. Stage `s` output is node `n{s}`.
pub fn inverter_chain(stages: usize) -> Netlist {
    inverter_chain_with_load(stages, Some(10e3))
}

/// [`inverter_chain`] with an explicit per-stage output load: `Some(ohms)`
/// ties every stage output to ground through a resistor, `None` leaves
/// the outputs **unloaded** — the dense-robustness stress case, where
/// cutoff devices leave node rows at `gmin` scale and the dense LU's
/// historical absolute singularity threshold misfired from ~60 stages
/// (the scaled threshold now covers it; see
/// `tests/spice_engine_parity.rs`).
///
/// # Panics
///
/// Panics if `load_ohms` is `Some` and non-positive.
pub fn inverter_chain_with_load(stages: usize, load_ohms: Option<f64>) -> Netlist {
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");
    let vin = nl.node("vin");
    nl.vsource("VDD", vdd, GROUND, 0.9);
    nl.vsource("VIN", vin, GROUND, 0.42);
    let mut prev = vin;
    for s in 0..stages {
        let out = nl.node(&format!("n{s}"));
        nl.mosfet(&format!("MP{s}"), out, prev, vdd, MosModel::pmos_28nm(), 2.0, 0.05);
        nl.mosfet(&format!("MN{s}"), out, prev, GROUND, MosModel::nmos_28nm(), 1.0, 0.05);
        if let Some(ohms) = load_ohms {
            nl.resistor(&format!("RL{s}"), out, GROUND, ohms);
        }
        prev = out;
    }
    nl
}

/// Element values for the [`ota_two_stage`] generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OtaParams {
    /// Input-pair (M1/M2, NMOS) width, µm.
    pub w_in_um: f64,
    /// Mirror-load (M3/M4, PMOS) width, µm.
    pub w_mir_um: f64,
    /// Second-stage (M6, PMOS) width, µm.
    pub w_out_um: f64,
    /// Shared channel length, µm.
    pub l_um: f64,
    /// Tail bias current, µA.
    pub itail_ua: f64,
    /// Second-stage load resistance, kΩ.
    pub rl_kohm: f64,
    /// Miller compensation capacitance, fF.
    pub cc_ff: f64,
    /// Output load capacitance, fF.
    pub cl_ff: f64,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Input common-mode voltage, V.
    pub vcm: f64,
}

impl OtaParams {
    /// A mid-range sizing that biases every device in saturation at the
    /// nominal 28 nm cards: ~62 dB DC gain from `vinp` to `out`.
    pub fn nominal() -> Self {
        Self {
            w_in_um: 2.0,
            w_mir_um: 1.5,
            w_out_um: 6.0,
            l_um: 0.1,
            itail_ua: 20.0,
            rl_kohm: 11.0,
            cc_ff: 200.0,
            cl_ff: 500.0,
            vdd: 0.9,
            vcm: 0.55,
        }
    }
}

/// Per-device model cards for [`ota_two_stage_with_cards`] — the hook
/// through which corner- and mismatch-specialized cards enter without the
/// generator knowing about the variation layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OtaCards {
    /// Input pair, inverting side (M1, NMOS).
    pub m1: MosModel,
    /// Input pair, non-inverting side (M2, NMOS).
    pub m2: MosModel,
    /// Mirror diode (M3, PMOS).
    pub m3: MosModel,
    /// Mirror output (M4, PMOS).
    pub m4: MosModel,
    /// Second stage (M6, PMOS).
    pub m6: MosModel,
}

impl OtaCards {
    /// The nominal 28 nm cards (TT, 27 °C, no mismatch).
    pub fn nominal() -> Self {
        Self {
            m1: MosModel::nmos_28nm(),
            m2: MosModel::nmos_28nm(),
            m3: MosModel::pmos_28nm(),
            m4: MosModel::pmos_28nm(),
            m6: MosModel::pmos_28nm(),
        }
    }
}

/// A two-stage Miller OTA: NMOS input pair (`M1`/`M2`) under a PMOS
/// current-mirror load (`M3` diode / `M4`), current-source tail, and a
/// PMOS common-source second stage (`M6`) with a resistive load plus
/// Miller (`CC`) and output (`CL`) capacitors.
///
/// The first multi-stage amplifier testcase exercising the full solver
/// stack: the DC operating point carries five nonlinear devices across
/// two gain stages, and the AC small-signal system sees both the Miller
/// pole split and the resistive output pole. Nodes: `vdd`, `vinp`
/// (non-inverting input — the AC excitation source is `VINP`), `vinn`,
/// `tail`, `mir` (mirror gate), `o1` (first-stage output), `out`. The
/// second-stage load resistor pins the output operating point, so the DC
/// solve stays robust across corner/mismatch perturbations (a pure
/// current-source load would slam the output to a rail under a few
/// percent of systematic current imbalance at these `λ`).
///
/// The topology — and therefore the MNA pattern and the value-only
/// retarget fast path — is independent of every [`OtaParams`] /
/// [`OtaCards`] value.
///
/// # Panics
///
/// Panics if any width, length, resistance or capacitance is
/// non-positive.
pub fn ota_two_stage(p: &OtaParams) -> Netlist {
    ota_two_stage_with_cards(p, &OtaCards::nominal())
}

/// [`ota_two_stage`] with explicit per-device model cards (corner- and
/// mismatch-specialized by the caller).
///
/// # Panics
///
/// See [`ota_two_stage`].
pub fn ota_two_stage_with_cards(p: &OtaParams, cards: &OtaCards) -> Netlist {
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");
    let vinp = nl.node("vinp");
    let vinn = nl.node("vinn");
    let tail = nl.node("tail");
    let mir = nl.node("mir");
    let o1 = nl.node("o1");
    let out = nl.node("out");
    nl.vsource("VDD", vdd, GROUND, p.vdd);
    nl.vsource("VINP", vinp, GROUND, p.vcm);
    nl.vsource("VINN", vinn, GROUND, p.vcm);
    // First stage: diff pair into the mirror; the non-inverting input
    // (vinp) drives M1 on the diode side so the signal to `out` goes
    // through two inversions.
    nl.mosfet("M1", mir, vinp, tail, cards.m1, p.w_in_um, p.l_um);
    nl.mosfet("M2", o1, vinn, tail, cards.m2, p.w_in_um, p.l_um);
    nl.mosfet("M3", mir, mir, vdd, cards.m3, p.w_mir_um, p.l_um);
    nl.mosfet("M4", o1, mir, vdd, cards.m4, p.w_mir_um, p.l_um);
    nl.isource("ITAIL", tail, GROUND, p.itail_ua * 1e-6);
    // Second stage: PMOS common source with a resistive load, Miller
    // compensation across it, capacitive load at the output.
    nl.mosfet("M6", out, o1, vdd, cards.m6, p.w_out_um, p.l_um);
    nl.resistor("RL", out, GROUND, p.rl_kohm * 1e3);
    nl.capacitor("CC", o1, out, p.cc_ff * 1e-15);
    nl.capacitor("CL", out, GROUND, p.cl_ff * 1e-15);
    nl
}

/// An RC ladder driven by a 1 V source: `sections` series resistors of
/// `r_ohms` with `c_farads` to ground at every intermediate node.
///
/// The MNA matrix is tridiagonal-plus-border — the best case for a
/// fill-minimizing sparse ordering (the factor stays `O(n)`) and the
/// worst case for dense `O(n³)` factorization. Section `s` node is
/// `l{s}`; the final node is also reachable as `out`.
///
/// # Panics
///
/// Panics if `sections == 0` or a component value is non-positive.
pub fn rc_ladder(sections: usize, r_ohms: f64, c_farads: f64) -> Netlist {
    assert!(sections > 0, "an RC ladder needs at least one section");
    let mut nl = Netlist::new();
    let vin = nl.node("vin");
    nl.vsource("VIN", vin, GROUND, 1.0);
    let mut prev = vin;
    for s in 0..sections {
        let name = if s + 1 == sections { "out".to_string() } else { format!("l{s}") };
        let node = nl.node(&name);
        nl.resistor(&format!("R{s}"), prev, node, r_ohms);
        nl.capacitor(&format!("C{s}"), node, GROUND, c_farads);
        prev = node;
    }
    nl
}

/// Device values for [`sense_amp_array`] — see
/// [`sense_amp_array_with`] for the topology the values land on.
///
/// The capacitances default to the constants of the analytic
/// `glova_circuits` DRAM testcase (10 fF cell, 85 fF bitline) so the
/// netlist's charge-sharing signal cross-checks against its closed-form
/// `v_sig = vdd/2 · C_cell / (C_cell + C_bl)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseAmpParams {
    /// Supply voltage, volts (the precharge rail sits at `vdd / 2`).
    pub vdd: f64,
    /// Wordline driver resistance, ohms (vdd → each wordline).
    pub r_wordline: f64,
    /// Precharge resistance, ohms (vdd/2 rail → each bitline half).
    pub r_precharge: f64,
    /// Cell leakage/anchor resistance, ohms (each cell node → ground).
    pub r_cell: f64,
    /// Latch transistor width, µm (all four cross-coupled devices).
    pub w_latch_um: f64,
    /// Access transistor width, µm.
    pub w_access_um: f64,
    /// Channel length, µm (all devices).
    pub l_um: f64,
    /// Storage-cell capacitance, farads (cell node → ground; DC-open).
    pub c_cell_f: f64,
    /// Bitline capacitance, farads (each bitline half → ground; DC-open).
    pub c_bitline_f: f64,
}

impl Default for SenseAmpParams {
    fn default() -> Self {
        Self {
            vdd: 0.9,
            r_wordline: 1e3,
            r_precharge: 2e3,
            r_cell: 100e3,
            w_latch_um: 0.5,
            w_access_um: 2.0,
            l_um: 0.1,
            c_cell_f: 10e-15,
            c_bitline_f: 85e-15,
        }
    }
}

/// [`sense_amp_array_with`] under the default [`SenseAmpParams`].
pub fn sense_amp_array(rows: usize, cols: usize) -> Netlist {
    sense_amp_array_with(rows, cols, &SenseAmpParams::default())
}

/// A `rows × cols` DRAM sense-amplifier array — the repo's genuinely
/// **2-D** MNA coupling pattern (every other generator is a chain or a
/// ladder, i.e. 1-D).
///
/// Topology per the classic open-bitline organization:
///
/// - `vdd` and a `vpre = vdd/2` precharge rail (one V-source branch
///   each);
/// - one wordline node `wl{r}` per row, anchored to `vdd` through
///   `r_wordline` (gates draw no DC current, so the wordline sits at
///   `vdd` — every access device is on);
/// - one bitline pair `bl{c}` / `blb{c}` per column, each half precharged
///   to `vpre` through `r_precharge` and loaded by `c_bitline_f`, with a
///   cross-coupled CMOS latch (two NMOS to ground, two PMOS to `vdd`)
///   regenerating the differential signal;
/// - one storage cell per `(r, c)`: an access NMOS from `bl{c}` gated by
///   `wl{r}` into cell node `cell{r}_{c}`, which carries `c_cell_f` and a
///   `r_cell` leakage anchor to ground.
///
/// Cell `(r, c)` therefore couples row node `wl{r}` and column node
/// `bl{c}` in the Jacobian (drain rows pick up gate-column `gm` entries),
/// giving the grid-like fill structure that separates fill-reducing
/// orderings from greedy ones. Unknowns: `rows·cols + rows + 2·cols + 4`
/// (cells + wordlines + bitline pairs + two rails + two branches).
///
/// The DC operating point is well-defined for every size: each node has
/// a resistive path to a rail, and the `gmin` ladder handles the latch
/// bistability. The organization is open-bitline — cells load only the
/// true half of each pair — so the DC solution carries a genuine
/// pre-sensing differential (`bl` below its `blb` reference).
///
/// # Panics
///
/// Panics if `rows == 0` or `cols == 0`.
pub fn sense_amp_array_with(rows: usize, cols: usize, p: &SenseAmpParams) -> Netlist {
    assert!(rows > 0 && cols > 0, "a sense-amp array needs at least one row and column");
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");
    let vpre = nl.node("vpre");
    nl.vsource("VDD", vdd, GROUND, p.vdd);
    nl.vsource("VPRE", vpre, GROUND, p.vdd / 2.0);
    let nmos = MosModel::nmos_28nm();
    let pmos = MosModel::pmos_28nm();

    let wordlines: Vec<NodeId> = (0..rows)
        .map(|r| {
            let wl = nl.node(&format!("wl{r}"));
            nl.resistor(&format!("RWL{r}"), vdd, wl, p.r_wordline);
            wl
        })
        .collect();

    let bitlines: Vec<NodeId> = (0..cols)
        .map(|c| {
            let bl = nl.node(&format!("bl{c}"));
            let blb = nl.node(&format!("blb{c}"));
            nl.resistor(&format!("RPB{c}"), vpre, bl, p.r_precharge);
            nl.resistor(&format!("RPBB{c}"), vpre, blb, p.r_precharge);
            nl.capacitor(&format!("CBL{c}"), bl, GROUND, p.c_bitline_f);
            nl.capacitor(&format!("CBLB{c}"), blb, GROUND, p.c_bitline_f);
            // Cross-coupled sense-amp latch on the pair.
            nl.mosfet(&format!("MN1_{c}"), bl, blb, GROUND, nmos, p.w_latch_um, p.l_um);
            nl.mosfet(&format!("MN2_{c}"), blb, bl, GROUND, nmos, p.w_latch_um, p.l_um);
            nl.mosfet(&format!("MP1_{c}"), bl, blb, vdd, pmos, p.w_latch_um, p.l_um);
            nl.mosfet(&format!("MP2_{c}"), blb, bl, vdd, pmos, p.w_latch_um, p.l_um);
            bl
        })
        .collect();

    for (r, &wl) in wordlines.iter().enumerate() {
        for (c, &bl) in bitlines.iter().enumerate() {
            let cell = nl.node(&format!("cell{r}_{c}"));
            nl.mosfet(&format!("MA{r}_{c}"), bl, wl, cell, nmos, p.w_access_um, p.l_um);
            nl.capacitor(&format!("CC{r}_{c}"), cell, GROUND, p.c_cell_f);
            nl.resistor(&format!("RC{r}_{c}"), cell, GROUND, p.r_cell);
        }
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sense_amp_array_counts_and_fingerprint() {
        let nl = sense_amp_array(3, 4);
        // cells + wordlines + bitline pairs + two rails + two branches.
        assert_eq!(nl.unknown_count(), 3 * 4 + 3 + 2 * 4 + 4);
        assert_eq!(nl.vsource_count(), 2);
        // Same shape ⇒ same topology fingerprint even under different
        // device values (the value-only retarget precondition); a
        // different shape must differ.
        let resized = SenseAmpParams { r_precharge: 3e3, ..SenseAmpParams::default() };
        assert_eq!(
            nl.topology_fingerprint(),
            sense_amp_array_with(3, 4, &resized).topology_fingerprint()
        );
        assert_ne!(nl.topology_fingerprint(), sense_amp_array(4, 3).topology_fingerprint());
    }

    #[test]
    fn sense_amp_array_operating_point_is_sane() {
        let p = SenseAmpParams::default();
        let mut nl = sense_amp_array(3, 3);
        let op = crate::dc::operating_point(&nl).unwrap();
        // Wordlines carry no DC gate current: exactly vdd.
        let wl = nl.node("wl1");
        assert!((op.voltage(wl) - p.vdd).abs() < 1e-6, "wordline at {}", op.voltage(wl));
        // Open-bitline asymmetry: the cells load only the true half, so
        // `bl` is pulled below its reference `blb` — the pre-sensing
        // differential the latch amplifies.
        let bl = nl.node("bl1");
        let blb = nl.node("blb1");
        assert!(
            op.voltage(bl) < op.voltage(blb),
            "cell-loaded half below reference: {} vs {}",
            op.voltage(bl),
            op.voltage(blb)
        );
        assert!(op.voltage(bl) < p.vdd / 2.0, "bitline below precharge: {}", op.voltage(bl));
        assert!(op.voltage(bl) > 0.0, "bitline above ground: {}", op.voltage(bl));
        assert!(op.voltage(blb) < p.vdd, "reference below vdd: {}", op.voltage(blb));
        // Cells leak to ground through the anchor, so they sit between
        // ground and the bitline.
        let cell = nl.node("cell1_1");
        assert!(op.voltage(cell) > 0.0 && op.voltage(cell) < op.voltage(bl));
    }

    #[test]
    fn node_interning() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let a2 = nl.node("a");
        let b = nl.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(nl.node_count(), 3); // ground + a + b
        assert_eq!(nl.node_name(a), "a");
        assert!(GROUND.is_ground());
        assert!(!a.is_ground());
    }

    #[test]
    fn unknown_count_includes_branches() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, GROUND, 1.0);
        nl.resistor("R1", a, b, 100.0);
        assert_eq!(nl.unknown_count(), 3); // 2 nodes + 1 branch
        assert_eq!(nl.vsource_branch("V1"), Some(0));
        assert_eq!(nl.vsource_branch("nope"), None);
    }

    #[test]
    fn pulse_waveform_shape() {
        let w = SourceWaveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 1e-9,
            rise: 1e-10,
            fall: 1e-10,
            width: 2e-9,
        };
        assert_eq!(w.value_at(0.0), 0.0);
        assert!((w.value_at(1.05e-9) - 0.5).abs() < 1e-9); // mid-rise
        assert_eq!(w.value_at(2e-9), 1.0);
        assert_eq!(w.value_at(5e-9), 0.0);
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn negative_resistor_panics() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R", a, GROUND, -5.0);
    }

    #[test]
    fn inverter_chain_scales_linearly() {
        for stages in [1, 4, 64] {
            let nl = inverter_chain(stages);
            assert_eq!(nl.node_count(), 3 + stages, "{stages} stages");
            assert_eq!(nl.unknown_count(), 4 + stages);
            assert_eq!(
                nl.devices().len(),
                2 + 3 * stages,
                "two sources plus a P/N pair and a load per stage"
            );
        }
    }

    #[test]
    fn rc_ladder_shape() {
        let nl = rc_ladder(8, 1e3, 1e-12);
        assert_eq!(nl.node_count(), 10); // ground + vin + 8 ladder nodes
        assert_eq!(nl.unknown_count(), 10); // 9 nodes + 1 branch
        assert_eq!(nl.devices().len(), 17); // VIN + 8 R + 8 C
                                            // Looking up "out" must intern to an *existing* node (the final
                                            // ladder node), not create a fresh floating one.
        let mut check = rc_ladder(8, 1e3, 1e-12);
        let nodes_before = check.node_count();
        let out = check.node("out");
        assert_eq!(check.node_count(), nodes_before, "out already existed");
        assert_eq!(out.index(), nodes_before - 1, "out is the last ladder node");
    }

    #[test]
    #[should_panic(expected = "at least one section")]
    fn empty_rc_ladder_panics() {
        rc_ladder(0, 1e3, 1e-12);
    }

    #[test]
    fn topology_fingerprint_ignores_values_but_not_structure() {
        // Same topology, different values: identical fingerprints.
        let a = inverter_chain_with_load(6, Some(10e3));
        let b = inverter_chain_with_load(6, Some(17e3));
        assert_eq!(a.topology_fingerprint(), b.topology_fingerprint());
        // Structural changes move the fingerprint.
        let longer = inverter_chain_with_load(7, Some(10e3));
        assert_ne!(a.topology_fingerprint(), longer.topology_fingerprint());
        let unloaded = inverter_chain_with_load(6, None);
        assert_ne!(a.topology_fingerprint(), unloaded.topology_fingerprint());
        // Device kind matters even with identical connectivity.
        let mut r = Netlist::new();
        let n1 = r.node("a");
        r.resistor("X", n1, GROUND, 1e3);
        let mut c = Netlist::new();
        let n2 = c.node("a");
        c.capacitor("X", n2, GROUND, 1e-12);
        assert_ne!(r.topology_fingerprint(), c.topology_fingerprint());
        // MOSFET model-card changes (corner/mismatch) are values too.
        let mut m1 = Netlist::new();
        let d = m1.node("d");
        m1.mosfet("M", d, d, GROUND, MosModel::nmos_28nm(), 1.0, 0.1);
        let mut m2 = Netlist::new();
        let d2 = m2.node("d");
        m2.mosfet("M", d2, d2, GROUND, MosModel::pmos_28nm().with_mismatch(0.01, 0.02), 2.0, 0.05);
        assert_eq!(m1.topology_fingerprint(), m2.topology_fingerprint());
    }

    #[test]
    fn topology_fingerprints_keep_their_recorded_values() {
        // Fingerprints are cache-identity words in `glova-serve` and key
        // the solver registry, so their values are pinned, not just
        // their equalities.
        assert_eq!(inverter_chain(8).topology_fingerprint(), 0x3da0_a003_c7d7_a7fc);
        assert_eq!(rc_ladder(8, 1e3, 1e-12).topology_fingerprint(), 0x288e_bd3e_d6f7_7e15);
        assert_eq!(
            ota_two_stage(&OtaParams::nominal()).topology_fingerprint(),
            0xe7ad_f9de_d49d_0a66
        );
        assert_eq!(sense_amp_array(5, 4).topology_fingerprint(), 0x1e02_052c_ecc3_fe61);
    }

    #[test]
    fn ota_two_stage_shape_and_fingerprint_stability() {
        let nominal = ota_two_stage(&OtaParams::nominal());
        // 7 non-ground nodes + 3 V-source branches.
        assert_eq!(nominal.node_count(), 8);
        assert_eq!(nominal.unknown_count(), 10);
        assert_eq!(nominal.vsource_count(), 3);
        // 3 V + 5 M + 1 I + 1 R + 2 C.
        assert_eq!(nominal.devices().len(), 12);
        assert!(nominal.vsource_branch("VINP").is_some());
        // Every params/cards combination keeps the topology — the
        // precondition for the value-only retarget path across an OTA
        // sizing sweep.
        let sized = ota_two_stage_with_cards(
            &OtaParams { w_in_um: 3.0, itail_ua: 35.0, rl_kohm: 7.0, ..OtaParams::nominal() },
            &OtaCards {
                m1: MosModel::nmos_28nm().with_mismatch(5e-3, -0.01),
                ..OtaCards::nominal()
            },
        );
        assert_eq!(nominal.topology_fingerprint(), sized.topology_fingerprint());
    }
}
