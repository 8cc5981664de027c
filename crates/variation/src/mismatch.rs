//! Device descriptions and Pelgrom mismatch-variance models.
//!
//! The paper's Σ matrices (Eq. 3) are diagonal: `Σ_Local(x)` holds the
//! per-device-parameter variances, which follow Pelgrom's law — standard
//! deviation inversely proportional to the square root of device area — so
//! they depend on the sizing vector `x`. `Σ_Global` holds the die-to-die
//! process-parameter variances.
//!
//! Each transistor contributes **two** mismatch components: a threshold
//! shift `ΔV_th` (volts) and a relative current-factor error `Δβ/β`
//! (unitless). Each capacitor contributes one relative error `ΔC/C`.

/// Kind of a matched device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// N-channel MOSFET.
    Nmos,
    /// P-channel MOSFET.
    Pmos,
    /// Capacitor (MIM/MOM).
    Capacitor,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeviceKind::Nmos => "nmos",
            DeviceKind::Pmos => "pmos",
            DeviceKind::Capacitor => "cap",
        };
        f.write_str(s)
    }
}

/// One physical device instance subject to mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Instance name (diagnostics and reports).
    pub name: String,
    /// Device kind.
    pub kind: DeviceKind,
    /// Gate width in µm (transistors) — ignored for capacitors.
    pub width_um: f64,
    /// Gate length in µm (transistors) — ignored for capacitors.
    pub length_um: f64,
    /// Capacitance in farads — ignored for transistors.
    pub cap_f: f64,
}

impl DeviceSpec {
    /// Describes an NMOS transistor.
    pub fn nmos(name: impl Into<String>, width_um: f64, length_um: f64) -> Self {
        Self { name: name.into(), kind: DeviceKind::Nmos, width_um, length_um, cap_f: 0.0 }
    }

    /// Describes a PMOS transistor.
    pub fn pmos(name: impl Into<String>, width_um: f64, length_um: f64) -> Self {
        Self { name: name.into(), kind: DeviceKind::Pmos, width_um, length_um, cap_f: 0.0 }
    }

    /// Describes a capacitor.
    pub fn capacitor(name: impl Into<String>, cap_f: f64) -> Self {
        Self {
            name: name.into(),
            kind: DeviceKind::Capacitor,
            width_um: 0.0,
            length_um: 0.0,
            cap_f,
        }
    }

    /// Gate area in µm² (transistors) or plate area for capacitors assuming
    /// MIM density [`PelgromModel::DEFAULT_CAP_DENSITY`].
    pub fn area_um2(&self) -> f64 {
        match self.kind {
            DeviceKind::Nmos | DeviceKind::Pmos => self.width_um * self.length_um,
            DeviceKind::Capacitor => self.cap_f / PelgromModel::DEFAULT_CAP_DENSITY,
        }
    }

    /// Number of mismatch components this device contributes.
    pub fn mismatch_components(&self) -> usize {
        match self.kind {
            DeviceKind::Nmos | DeviceKind::Pmos => 2, // ΔV_th, Δβ/β
            DeviceKind::Capacitor => 1,               // ΔC/C
        }
    }
}

/// Pelgrom matching coefficients and global process-variation sigmas,
/// calibrated to published 28 nm bulk-CMOS magnitudes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PelgromModel {
    /// Threshold matching coefficient `A_VT` in V·µm
    /// (`σ(ΔV_th) = A_VT / √(W·L)`).
    pub a_vt: f64,
    /// Current-factor matching coefficient `A_β` in µm
    /// (`σ(Δβ/β) = A_β / √(W·L)`).
    pub a_beta: f64,
    /// Capacitor matching coefficient in µm (`σ(ΔC/C) = A_C / √area`).
    pub a_cap: f64,
    /// Die-to-die σ of the global V_th shift, volts.
    pub global_vth_sigma: f64,
    /// Die-to-die σ of the global relative current-factor shift.
    pub global_beta_sigma: f64,
    /// Die-to-die σ of the global relative capacitance shift.
    pub global_cap_sigma: f64,
}

impl PelgromModel {
    /// MIM capacitor density used to convert capacitance to area, F/µm².
    pub const DEFAULT_CAP_DENSITY: f64 = 2e-15;

    /// 28 nm-calibrated defaults: `A_VT = 3.5 mV·µm`, `A_β = 1 %·µm`,
    /// `A_C = 0.5 %·µm`, global σ(V_th) = 12 mV, σ(β) = 4 %, σ(C) = 2 %.
    pub fn cmos28() -> Self {
        Self {
            a_vt: 3.5e-3,
            a_beta: 0.01,
            a_cap: 0.005,
            global_vth_sigma: 0.012,
            global_beta_sigma: 0.04,
            global_cap_sigma: 0.02,
        }
    }

    /// Local `σ(ΔV_th)` for a transistor of the given geometry, volts.
    ///
    /// # Panics
    ///
    /// Panics in debug builds for non-positive geometry.
    pub fn local_vth_sigma(&self, width_um: f64, length_um: f64) -> f64 {
        debug_assert!(width_um > 0.0 && length_um > 0.0, "non-positive device geometry");
        self.a_vt / (width_um * length_um).sqrt()
    }

    /// Local `σ(Δβ/β)` for a transistor of the given geometry.
    pub fn local_beta_sigma(&self, width_um: f64, length_um: f64) -> f64 {
        debug_assert!(width_um > 0.0 && length_um > 0.0, "non-positive device geometry");
        self.a_beta / (width_um * length_um).sqrt()
    }

    /// Local `σ(ΔC/C)` for a capacitor of the given value.
    pub fn local_cap_sigma(&self, cap_f: f64) -> f64 {
        debug_assert!(cap_f > 0.0, "non-positive capacitance");
        let area = cap_f / Self::DEFAULT_CAP_DENSITY;
        self.a_cap / area.sqrt()
    }
}

impl Default for PelgromModel {
    fn default() -> Self {
        Self::cmos28()
    }
}

/// Index of a global process parameter within the broadcast global draw.
///
/// Global (die-to-die) variation is physically *shared*: one die-level
/// V_th shift applies to every NMOS device on the die. The paper's Eq. 3
/// writes `Σ_Global` as diagonal over the device-parameter space; we realize
/// the physical sharing by drawing one value per process parameter and
/// broadcasting it into the device-parameter vector (see `docs/DESIGN.md` §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalParameter {
    /// Shared NMOS threshold shift.
    VthN,
    /// Shared PMOS threshold shift.
    VthP,
    /// Shared NMOS current-factor shift.
    BetaN,
    /// Shared PMOS current-factor shift.
    BetaP,
    /// Shared capacitance density shift.
    Cap,
}

impl GlobalParameter {
    /// All global parameters, in broadcast order.
    pub const ALL: [GlobalParameter; 5] = [
        GlobalParameter::VthN,
        GlobalParameter::VthP,
        GlobalParameter::BetaN,
        GlobalParameter::BetaP,
        GlobalParameter::Cap,
    ];
}

/// The mismatch domain of one circuit design: the device list plus the
/// Pelgrom model, from which `Σ_Global` and `Σ_Local(x)` follow.
///
/// # Example
///
/// ```
/// use glova_variation::mismatch::{DeviceSpec, MismatchDomain, PelgromModel};
///
/// let domain = MismatchDomain::new(
///     vec![DeviceSpec::nmos("M1", 1.0, 0.03), DeviceSpec::capacitor("C1", 1e-13)],
///     PelgromModel::cmos28(),
/// );
/// assert_eq!(domain.dim(), 3); // ΔVth + Δβ for M1, ΔC for C1
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MismatchDomain {
    devices: Vec<DeviceSpec>,
    model: PelgromModel,
    dim: usize,
}

/// Layout entry: which device/parameter a mismatch component belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentKind {
    /// Threshold-voltage shift of device `device_index`, volts.
    Vth {
        /// Index into [`MismatchDomain::devices`].
        device_index: usize,
    },
    /// Relative current-factor error of device `device_index`.
    Beta {
        /// Index into [`MismatchDomain::devices`].
        device_index: usize,
    },
    /// Relative capacitance error of device `device_index`.
    Cap {
        /// Index into [`MismatchDomain::devices`].
        device_index: usize,
    },
}

impl MismatchDomain {
    /// Builds a domain from the device list.
    pub fn new(devices: Vec<DeviceSpec>, model: PelgromModel) -> Self {
        let dim = devices.iter().map(DeviceSpec::mismatch_components).sum();
        Self { devices, model, dim }
    }

    /// Dimension `r` of the mismatch vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The devices in this domain.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// The Pelgrom model in use.
    pub fn model(&self) -> &PelgromModel {
        &self.model
    }

    /// Layout of the mismatch vector: one entry per component, in order.
    pub fn layout(&self) -> Vec<ComponentKind> {
        let mut layout = Vec::with_capacity(self.dim);
        for (di, dev) in self.devices.iter().enumerate() {
            match dev.kind {
                DeviceKind::Nmos | DeviceKind::Pmos => {
                    layout.push(ComponentKind::Vth { device_index: di });
                    layout.push(ComponentKind::Beta { device_index: di });
                }
                DeviceKind::Capacitor => layout.push(ComponentKind::Cap { device_index: di }),
            }
        }
        layout
    }

    /// Diagonal of `Σ_Local(x)` as standard deviations, one per component.
    pub fn local_sigmas(&self) -> Vec<f64> {
        let mut sigmas = Vec::with_capacity(self.dim);
        for dev in &self.devices {
            match dev.kind {
                DeviceKind::Nmos | DeviceKind::Pmos => {
                    sigmas.push(self.model.local_vth_sigma(dev.width_um, dev.length_um));
                    sigmas.push(self.model.local_beta_sigma(dev.width_um, dev.length_um));
                }
                DeviceKind::Capacitor => sigmas.push(self.model.local_cap_sigma(dev.cap_f)),
            }
        }
        sigmas
    }

    /// Standard deviation of each *global* process parameter, in
    /// [`GlobalParameter::ALL`] order.
    pub fn global_parameter_sigmas(&self) -> [f64; 5] {
        [
            self.model.global_vth_sigma,
            self.model.global_vth_sigma,
            self.model.global_beta_sigma,
            self.model.global_beta_sigma,
            self.model.global_cap_sigma,
        ]
    }

    /// Broadcasts a global parameter draw (5 values in
    /// [`GlobalParameter::ALL`] order) into the `r`-dimensional
    /// device-component space.
    ///
    /// # Panics
    ///
    /// Panics if `draw.len() != 5`.
    pub fn broadcast_global(&self, draw: &[f64]) -> Vec<f64> {
        assert_eq!(draw.len(), 5, "global draw must have 5 parameters");
        let mut out = Vec::with_capacity(self.dim);
        for dev in &self.devices {
            match dev.kind {
                DeviceKind::Nmos => {
                    out.push(draw[0]); // VthN
                    out.push(draw[2]); // BetaN
                }
                DeviceKind::Pmos => {
                    out.push(draw[1]); // VthP
                    out.push(draw[3]); // BetaP
                }
                DeviceKind::Capacitor => out.push(draw[4]), // Cap
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toy_domain() -> MismatchDomain {
        MismatchDomain::new(
            vec![
                DeviceSpec::nmos("MN", 2.0, 0.05),
                DeviceSpec::pmos("MP", 4.0, 0.05),
                DeviceSpec::capacitor("CL", 2e-13),
            ],
            PelgromModel::cmos28(),
        )
    }

    #[test]
    fn dimension_counts_components() {
        assert_eq!(toy_domain().dim(), 5);
        assert_eq!(toy_domain().layout().len(), 5);
    }

    #[test]
    fn pelgrom_scaling_quarters_with_4x_area() {
        let m = PelgromModel::cmos28();
        let small = m.local_vth_sigma(1.0, 0.03);
        let big = m.local_vth_sigma(4.0, 0.03);
        assert!((small / big - 2.0).abs() < 1e-12);
    }

    #[test]
    fn local_sigmas_match_layout() {
        let d = toy_domain();
        let sigmas = d.local_sigmas();
        let m = d.model();
        assert!((sigmas[0] - m.local_vth_sigma(2.0, 0.05)).abs() < 1e-15);
        assert!((sigmas[1] - m.local_beta_sigma(2.0, 0.05)).abs() < 1e-15);
        assert!((sigmas[2] - m.local_vth_sigma(4.0, 0.05)).abs() < 1e-15);
        assert!((sigmas[4] - m.local_cap_sigma(2e-13)).abs() < 1e-15);
    }

    #[test]
    fn broadcast_routes_by_kind() {
        let d = toy_domain();
        let h = d.broadcast_global(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(h, vec![1.0, 3.0, 2.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "5 parameters")]
    fn broadcast_wrong_width_panics() {
        toy_domain().broadcast_global(&[1.0]);
    }

    #[test]
    fn cap_area_from_density() {
        let c = DeviceSpec::capacitor("C", 2e-13);
        assert!((c.area_um2() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sigma_magnitudes_are_physical() {
        // A minimum-size 28 nm device (0.28 µm × 0.03 µm) should show tens of
        // millivolts of local V_th sigma; a large device should show a few mV.
        let m = PelgromModel::cmos28();
        let tiny = m.local_vth_sigma(0.28, 0.03);
        let large = m.local_vth_sigma(10.0, 0.3);
        assert!(tiny > 0.02 && tiny < 0.08, "tiny-device sigma {tiny}");
        assert!(large < 0.005, "large-device sigma {large}");
    }

    proptest! {
        #[test]
        fn prop_sigmas_positive_and_monotone_in_area(
            w in 0.28f64..32.8,
            l in 0.03f64..0.33,
            scale in 1.1f64..4.0,
        ) {
            let m = PelgromModel::cmos28();
            let s1 = m.local_vth_sigma(w, l);
            let s2 = m.local_vth_sigma(w * scale, l);
            prop_assert!(s1 > 0.0);
            prop_assert!(s2 < s1, "sigma must shrink with area");
        }

        #[test]
        fn prop_layout_and_sigmas_agree(n_nmos in 0usize..5, n_caps in 0usize..4) {
            let mut devices = Vec::new();
            for i in 0..n_nmos {
                devices.push(DeviceSpec::nmos(format!("M{i}"), 1.0, 0.1));
            }
            for i in 0..n_caps {
                devices.push(DeviceSpec::capacitor(format!("C{i}"), 1e-13));
            }
            let d = MismatchDomain::new(devices, PelgromModel::cmos28());
            prop_assert_eq!(d.dim(), 2 * n_nmos + n_caps);
            prop_assert_eq!(d.local_sigmas().len(), d.dim());
            prop_assert_eq!(d.layout().len(), d.dim());
        }
    }
}
