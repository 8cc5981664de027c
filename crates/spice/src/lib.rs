//! A small SPICE-like circuit simulator.
//!
//! The paper sizes circuits against HSPICE with a proprietary 28 nm PDK —
//! neither is available here, so this crate provides the simulation
//! substrate (see `docs/DESIGN.md` §2 for the substitution argument): a
//! modified-nodal-analysis (MNA) engine with
//!
//! - linear devices (resistors, capacitors, independent V/I sources),
//! - a level-1 (square-law) MOSFET with channel-length modulation whose
//!   model card responds to **process corner, temperature, supply and
//!   per-device mismatch** ([`model::MosModel`]),
//! - Newton–Raphson DC operating-point analysis with `gmin` stepping
//!   ([`dc`]) over dense or sparse MNA systems ([`mna`]; the sparse
//!   backend refreshes its factor through one compiled refactorization
//!   path),
//! - small-signal AC sweeps ([`ac`]), and
//! - fixed-step backward-Euler / trapezoidal transient analysis
//!   ([`transient`]) with waveform measurement helpers ([`analysis`]).
//!
//! The fast analytic testcase models in `glova-circuits` are cross-checked
//! against this engine in integration tests; the engine itself is exercised
//! directly by the `spice_playground` example.
//!
//! # Example
//!
//! ```
//! use glova_spice::netlist::{Netlist, GROUND};
//!
//! // A 1 kΩ / 1 kΩ divider from a 1 V source.
//! let mut net = Netlist::new();
//! let vin = net.node("in");
//! let mid = net.node("mid");
//! net.vsource("V1", vin, GROUND, 1.0);
//! net.resistor("R1", vin, mid, 1e3);
//! net.resistor("R2", mid, GROUND, 1e3);
//! let op = glova_spice::dc::operating_point(&net).unwrap();
//! assert!((op.voltage(mid) - 0.5).abs() < 1e-9);
//! ```

pub mod ac;
pub mod analysis;
pub mod complex;
pub mod dc;
pub mod device;
pub mod mna;
pub mod model;
pub mod netlist;
pub mod registry;
pub mod transient;

pub use ac::{ac_sweep, ac_sweep_with_backend, log_sweep, AcResult};
pub use complex::Complex;
pub use dc::{operating_point, OpSolver, OpSolverPool, OperatingPoint};
pub use glova_linalg::FillOrdering;
pub use mna::SolverBackend;
pub use model::{MosModel, MosPolarity};
pub use netlist::{
    inverter_chain, ota_two_stage, rc_ladder, sense_amp_array, sense_amp_array_with, Netlist,
    NodeId, OtaCards, OtaParams, SenseAmpParams, GROUND,
};
pub use registry::{RegistryConfig, SolverRegistry};
pub use transient::{TransientResult, TransientSpec};

/// Gate capacitance of a `w × l` µm device, farads (30 fF/µm² at 28 nm) —
/// shared between the transient parasitics and AC gate loading.
pub(crate) fn model_gate_cap(w_um: f64, l_um: f64) -> f64 {
    30e-15 * w_um * l_um
}

/// Errors produced by simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// The netlist is structurally invalid.
    InvalidNetlist {
        /// What was wrong.
        reason: String,
    },
    /// Newton iteration failed to converge even with `gmin` stepping.
    NonConvergent {
        /// Residual at the last iteration.
        residual: f64,
    },
    /// The system matrix was singular (floating node, V-source loop, …).
    SingularMatrix,
}

impl std::fmt::Display for SpiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpiceError::InvalidNetlist { reason } => write!(f, "invalid netlist: {reason}"),
            SpiceError::NonConvergent { residual } => {
                write!(f, "newton iteration did not converge (residual {residual:.3e})")
            }
            SpiceError::SingularMatrix => f.write_str("singular system matrix"),
        }
    }
}

impl std::error::Error for SpiceError {}

impl From<glova_linalg::LinalgError> for SpiceError {
    fn from(err: glova_linalg::LinalgError) -> Self {
        match err {
            glova_linalg::LinalgError::Singular { .. } => SpiceError::SingularMatrix,
            other => SpiceError::InvalidNetlist { reason: other.to_string() },
        }
    }
}
