//! GLOVA testcase circuits and the sizing-problem abstractions.
//!
//! A [`Circuit`] is the paper's `F(x | t, h)`: a nonlinear map from a
//! normalized sizing vector `x ∈ [0,1]^p`, a PVT corner `t` and a mismatch
//! condition `h` to a vector of raw performance metrics. A [`DesignSpec`]
//! attaches constraint targets and orientations to those metrics and
//! produces the paper's normalized metrics `f_i` (Eq. 5) and reward
//! (Eq. 4).
//!
//! Three real-world testcases from the paper are implemented, each a
//! physics-based analytic model layered over the 28 nm device cards of
//! `glova-spice` (see `docs/DESIGN.md` §2 for the HSPICE-substitution argument):
//!
//! - [`StrongArmLatch`] — 14 parameters; power / set delay / reset delay /
//!   input noise.
//! - [`FloatingInverterAmp`] — 6 parameters; energy per conversion /
//!   output noise.
//! - [`DramCoreSense`] — 12 parameters (OCSA + subhole in a DRAM core);
//!   low/high data sensing voltages (maximize) and energy per bit.
//!
//! A fast synthetic [`ToyQuadratic`] circuit supports unit tests of the
//! optimization stack.
//!
//! # Example
//!
//! ```
//! use glova_circuits::{Circuit, StrongArmLatch};
//! use glova_variation::corner::PvtCorner;
//! use glova_variation::sampler::MismatchVector;
//!
//! let sal = StrongArmLatch::new();
//! let x = vec![0.5; sal.dim()];
//! let h = MismatchVector::nominal(sal.mismatch_domain(&x).dim());
//! let metrics = sal.evaluate(&x, &PvtCorner::typical(), &h);
//! assert_eq!(metrics.len(), sal.spec().len());
//! let reward = sal.spec().reward(&metrics);
//! assert!(reward <= 0.2);
//! ```

pub mod dram;
pub mod fia;
pub mod physics;
pub mod sal;
pub mod spec;
pub mod spice_backed;
pub mod toy;

pub use dram::DramCoreSense;
pub use fia::FloatingInverterAmp;
pub use sal::StrongArmLatch;
pub use spec::{DesignSpec, Goal, MetricSpec};
pub use spice_backed::{SpiceInverterChain, SpiceOta, SpiceSenseAmpArray};
pub use toy::ToyQuadratic;

use glova_variation::corner::PvtCorner;
use glova_variation::mismatch::MismatchDomain;
use glova_variation::sampler::MismatchVector;

/// Cumulative solver-failure ledger of one circuit instance.
///
/// SPICE-backed circuits do not unwind when a pooled Newton solve fails
/// to converge: the point retries once on an escalated cold solve
/// (full-Newton Jacobian, enlarged iteration budget, fresh `gmin`
/// ladder) and, if that also fails, degrades to NaN metrics — a
/// deterministic worst-reward observation. These counters record how
/// often each path fired, so campaigns can report transient-failure
/// handling instead of silently absorbing it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureStats {
    /// Pooled solves that failed to converge (each triggers the retry).
    pub nonconvergent: u64,
    /// Failures recovered by the escalated cold retry.
    pub recovered: u64,
    /// Failures that degraded to NaN metrics after the retry also failed.
    pub degraded: u64,
}

impl FailureStats {
    /// Counters accumulated since `baseline` (saturating — a reset
    /// between snapshots yields zeros rather than wrapping).
    pub fn since(self, baseline: FailureStats) -> FailureStats {
        FailureStats {
            nonconvergent: self.nonconvergent.saturating_sub(baseline.nonconvergent),
            recovered: self.recovered.saturating_sub(baseline.recovered),
            degraded: self.degraded.saturating_sub(baseline.degraded),
        }
    }
}

/// A sizing problem's circuit: the paper's performance map `F(x | t, h)`.
///
/// Implementations must be deterministic: identical `(x, t, h)` inputs give
/// identical metrics. All stochasticity lives in the mismatch sampling.
pub trait Circuit: Send + Sync {
    /// Short circuit name (table row labels).
    fn name(&self) -> &str;

    /// Design-space dimension `p`.
    fn dim(&self) -> usize;

    /// Physical bounds `(lo, hi)` of each design parameter, in SI-adjacent
    /// units (µm for geometry, F for capacitance).
    fn bounds(&self) -> Vec<(f64, f64)>;

    /// Human-readable parameter names, in order.
    fn parameter_names(&self) -> Vec<String>;

    /// The constraint specification.
    fn spec(&self) -> &DesignSpec;

    /// The mismatch domain (device list) implied by the sizing `x_norm`;
    /// its dimension is the mismatch-vector length `r`.
    fn mismatch_domain(&self, x_norm: &[f64]) -> MismatchDomain;

    /// Evaluates the raw performance metrics under corner `t` and mismatch
    /// condition `h`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x_norm.len() != dim()` or the mismatch
    /// dimension is wrong.
    fn evaluate(&self, x_norm: &[f64], corner: &PvtCorner, mismatch: &MismatchVector) -> Vec<f64>;

    /// Cumulative solver-failure ledger for this instance. Analytic
    /// circuits never fail and report zeros (the default); SPICE-backed
    /// circuits count non-convergent solves, escalated-retry recoveries
    /// and degraded evaluations (see [`FailureStats`]).
    fn failure_stats(&self) -> FailureStats {
        FailureStats::default()
    }

    /// Maps a normalized point into physical parameter values.
    fn denormalize(&self, x_norm: &[f64]) -> Vec<f64> {
        assert_eq!(x_norm.len(), self.dim(), "design vector dimension mismatch");
        denormalize_within(&self.bounds(), x_norm)
    }
}

/// Maps each normalized coordinate (clamped to `[0, 1]`) linearly into
/// its `(lo, hi)` bound — the formula behind [`Circuit::denormalize`].
fn denormalize_within(bounds: &[(f64, f64)], x_norm: &[f64]) -> Vec<f64> {
    bounds.iter().zip(x_norm).map(|(&(lo, hi), &u)| lo + (hi - lo) * u.clamp(0.0, 1.0)).collect()
}
