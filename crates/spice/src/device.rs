//! Device instances stored in a netlist: each device's connectivity
//! ([`Device`]) and, beside it, its values ([`DeviceValue`]).
//!
//! The split is what lets a sweep keep one topology: every corner,
//! mismatch or sizing point of a circuit is the same device list with a
//! different value slice, and the MNA stamp walk reads its connectivity
//! from the one and its values from the other.

use crate::model::MosModel;
use crate::netlist::{NodeId, SourceWaveform};

/// One device instance's kind, name and connectivity.
///
/// Kept as an enum rather than trait objects: the device set is closed (a
/// SPICE engine's device library is part of its definition), matching is
/// exhaustive at the stamping site, and instances stay `Clone`-able for
/// netlist templating.
#[derive(Debug, Clone, PartialEq)]
pub enum Device {
    /// Linear resistor.
    Resistor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
    },
    /// Linear capacitor.
    Capacitor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
    },
    /// Independent voltage source.
    Vsource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        plus: NodeId,
        /// Negative terminal.
        minus: NodeId,
        /// MNA branch-unknown index.
        branch: usize,
    },
    /// Independent current source (its current flows `from → to` through
    /// the source, i.e. it is injected into `to`).
    Isource {
        /// Instance name.
        name: String,
        /// Terminal the current leaves.
        from: NodeId,
        /// Terminal the current enters.
        to: NodeId,
    },
    /// Level-1 MOSFET (three-terminal; bulk tied to source).
    Mosfet {
        /// Instance name.
        name: String,
        /// Drain.
        drain: NodeId,
        /// Gate.
        gate: NodeId,
        /// Source.
        source: NodeId,
    },
}

impl Device {
    /// Instance name.
    pub fn name(&self) -> &str {
        match self {
            Device::Resistor { name, .. }
            | Device::Capacitor { name, .. }
            | Device::Vsource { name, .. }
            | Device::Isource { name, .. }
            | Device::Mosfet { name, .. } => name,
        }
    }
}

/// One device instance's values: everything the stamp walk reads about a
/// device apart from its connectivity.
///
/// Build values through the constructors ([`resistor`](Self::resistor),
/// [`mosfet`](Self::mosfet), …), which hold the same positivity checks as
/// [`Netlist::resistor`](crate::netlist::Netlist::resistor) and the other
/// methods that add devices to a netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceValue {
    /// Resistance, Ω.
    Resistor {
        /// Resistance, Ω.
        ohms: f64,
    },
    /// Capacitance, F.
    Capacitor {
        /// Capacitance, F.
        farads: f64,
    },
    /// Voltage-source waveform.
    Vsource {
        /// Source waveform.
        waveform: SourceWaveform,
    },
    /// Current-source current, A.
    Isource {
        /// Current, A.
        amps: f64,
    },
    /// MOSFET model card and geometry.
    Mosfet {
        /// Model card (already specialized to corner/mismatch).
        model: MosModel,
        /// Gate width, µm.
        w_um: f64,
        /// Gate length, µm.
        l_um: f64,
    },
}

impl DeviceValue {
    /// A resistance.
    ///
    /// # Panics
    ///
    /// Panics if `ohms <= 0` (or NaN).
    pub fn resistor(ohms: f64) -> Self {
        assert!(ohms > 0.0, "resistance must be positive");
        Self::Resistor { ohms }
    }

    /// A capacitance.
    ///
    /// # Panics
    ///
    /// Panics if `farads <= 0` (or NaN).
    pub fn capacitor(farads: f64) -> Self {
        assert!(farads > 0.0, "capacitance must be positive");
        Self::Capacitor { farads }
    }

    /// A DC voltage-source level.
    pub fn vsource(volts: f64) -> Self {
        Self::Vsource { waveform: SourceWaveform::Dc(volts) }
    }

    /// A DC current-source level.
    pub fn isource(amps: f64) -> Self {
        Self::Isource { amps }
    }

    /// A MOSFET card and geometry (`w_um`/`l_um` in micrometers).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is non-positive (or NaN).
    pub fn mosfet(model: MosModel, w_um: f64, l_um: f64) -> Self {
        assert!(w_um > 0.0 && l_um > 0.0, "MOSFET geometry must be positive");
        Self::Mosfet { model, w_um, l_um }
    }

    /// Whether this value is of `device`'s kind.
    pub(crate) fn fits(&self, device: &Device) -> bool {
        matches!(
            (device, self),
            (Device::Resistor { .. }, DeviceValue::Resistor { .. })
                | (Device::Capacitor { .. }, DeviceValue::Capacitor { .. })
                | (Device::Vsource { .. }, DeviceValue::Vsource { .. })
                | (Device::Isource { .. }, DeviceValue::Isource { .. })
                | (Device::Mosfet { .. }, DeviceValue::Mosfet { .. })
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GROUND;

    #[test]
    fn names_accessible() {
        let d = Device::Resistor { name: "R1".into(), a: GROUND, b: GROUND };
        assert_eq!(d.name(), "R1");
        let m = Device::Mosfet { name: "M1".into(), drain: GROUND, gate: GROUND, source: GROUND };
        assert_eq!(m.name(), "M1");
        assert!(DeviceValue::mosfet(MosModel::nmos_28nm(), 1.0, 0.03).fits(&m));
        assert!(!DeviceValue::resistor(1.0).fits(&m));
    }

    #[test]
    #[should_panic(expected = "MOSFET geometry must be positive")]
    fn nan_width_panics() {
        DeviceValue::mosfet(MosModel::nmos_28nm(), f64::NAN, 0.03);
    }
}
