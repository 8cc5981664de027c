//! Hierarchical mismatch sampling — the paper's Eq. 3.
//!
//! A mismatch condition set `H̃_N` is generated by first drawing a die-level
//! global offset `h⁽¹⁾ ~ N(0, Σ_Global)`, then drawing `N` local samples
//! `h⁽²⁾ ~ N(h⁽¹⁾, Σ_Local(x))` around it. Within one set, samples share the
//! global draw — they model devices on the *same die*; across sets the
//! global draw is refreshed.

use crate::mismatch::MismatchDomain;
use glova_stats::normal::StandardNormal;
use rand::Rng;

/// One sampled mismatch condition: an `r`-dimensional vector whose layout
/// is given by [`MismatchDomain::layout`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MismatchVector {
    values: Vec<f64>,
}

impl MismatchVector {
    /// The all-zero (nominal) mismatch condition of dimension `r`.
    pub fn nominal(dim: usize) -> Self {
        Self { values: vec![0.0; dim] }
    }

    /// Wraps raw component values.
    pub fn from_values(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// The component values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Dimension `r`.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Whether every component is exactly zero.
    pub fn is_nominal(&self) -> bool {
        self.values.iter().all(|&v| v == 0.0)
    }
}

impl From<Vec<f64>> for MismatchVector {
    fn from(values: Vec<f64>) -> Self {
        Self { values }
    }
}

/// Sampler configuration: which variance layers are active.
///
/// Mirrors Table I of the paper: corner-only verification uses no mismatch,
/// `C-MC_L` local only, `C-MC_G-L` global + local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarianceLayers {
    /// Include die-to-die (global) variation.
    pub global: bool,
    /// Include within-die (local) mismatch.
    pub local: bool,
}

impl VarianceLayers {
    /// No variation at all (corner-only verification).
    pub const NONE: Self = Self { global: false, local: false };
    /// Local mismatch only.
    pub const LOCAL: Self = Self { global: false, local: true };
    /// Global and local variation.
    pub const GLOBAL_LOCAL: Self = Self { global: true, local: true };
}

/// Hierarchical sampler over a [`MismatchDomain`].
#[derive(Debug, Clone)]
pub struct MismatchSampler {
    domain: MismatchDomain,
    layers: VarianceLayers,
    local_sigmas: Vec<f64>,
    normal: StandardNormal,
}

impl MismatchSampler {
    /// Creates a sampler for `domain` with the given active layers.
    pub fn new(domain: MismatchDomain, layers: VarianceLayers) -> Self {
        let local_sigmas = domain.local_sigmas();
        Self { domain, layers, local_sigmas, normal: StandardNormal::new() }
    }

    /// The underlying domain.
    pub fn domain(&self) -> &MismatchDomain {
        &self.domain
    }

    /// The active variance layers.
    pub fn layers(&self) -> VarianceLayers {
        self.layers
    }

    /// Draws the die-level global offset `h⁽¹⁾` (Eq. 3, first stage).
    ///
    /// Physically one value per global process parameter, broadcast into
    /// device-component space; all-zero when the global layer is disabled.
    pub fn sample_global<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        if !self.layers.global {
            return vec![0.0; self.domain.dim()];
        }
        let sigmas = self.domain.global_parameter_sigmas();
        let draw: Vec<f64> =
            sigmas.iter().map(|&s| self.normal.sample_scaled(rng, 0.0, s)).collect();
        self.domain.broadcast_global(&draw)
    }

    /// Draws one local sample `h⁽²⁾ ~ N(h⁽¹⁾, Σ_Local)` (Eq. 3, second
    /// stage).
    ///
    /// # Panics
    ///
    /// Panics if `global.len()` differs from the domain dimension.
    pub fn sample_local_around<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        global: &[f64],
    ) -> MismatchVector {
        assert_eq!(global.len(), self.domain.dim(), "global offset dimension mismatch");
        if !self.layers.local {
            return MismatchVector::from_values(global.to_vec());
        }
        let values = global
            .iter()
            .zip(&self.local_sigmas)
            .map(|(&g, &s)| self.normal.sample_scaled(rng, g, s))
            .collect();
        MismatchVector::from_values(values)
    }

    /// Samples a mismatch condition set `H̃_N` exactly per Eq. 3: one global
    /// draw shared by `n` local samples (one die).
    pub fn sample_set<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<MismatchVector> {
        if self.layers == VarianceLayers::NONE {
            return vec![MismatchVector::nominal(self.domain.dim()); n];
        }
        let global = self.sample_global(rng);
        (0..n).map(|_| self.sample_local_around(rng, &global)).collect()
    }

    /// Samples `n` conditions with a **fresh global draw per sample** —
    /// every Monte-Carlo point is its own die. This is the industrial
    /// semantics of full global-local MC verification (each sign-off
    /// sample models an independent die), in contrast to the Eq.-3
    /// shared-die set used during optimization (see `docs/DESIGN.md` §5).
    pub fn sample_independent<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
    ) -> Vec<MismatchVector> {
        (0..n)
            .map(|_| {
                let global = self.sample_global(rng);
                self.sample_local_around(rng, &global)
            })
            .collect()
    }

    /// Samples `dies × per_die` conditions across multiple dies (fresh
    /// global draw per die) — the wafer structure of the paper's Fig. 1.
    pub fn sample_wafer<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        dies: usize,
        per_die: usize,
    ) -> Vec<Vec<MismatchVector>> {
        (0..dies).map(|_| self.sample_set(rng, per_die)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mismatch::{DeviceSpec, PelgromModel};
    use glova_stats::descriptive::RunningStats;
    use glova_stats::rng::seeded;
    use proptest::prelude::*;

    fn domain() -> MismatchDomain {
        MismatchDomain::new(
            vec![
                DeviceSpec::nmos("M1", 1.0, 0.05),
                DeviceSpec::nmos("M2", 1.0, 0.05),
                DeviceSpec::capacitor("C1", 1e-13),
            ],
            PelgromModel::cmos28(),
        )
    }

    #[test]
    fn none_layers_yield_nominal() {
        let sampler = MismatchSampler::new(domain(), VarianceLayers::NONE);
        let mut rng = seeded(1);
        let set = sampler.sample_set(&mut rng, 4);
        assert_eq!(set.len(), 4);
        assert!(set.iter().all(MismatchVector::is_nominal));
    }

    #[test]
    fn local_only_moments() {
        let sampler = MismatchSampler::new(domain(), VarianceLayers::LOCAL);
        let mut rng = seeded(2);
        let expect = sampler.domain().local_sigmas();
        let mut stats = vec![RunningStats::new(); sampler.domain().dim()];
        // Each set refreshes everything; gather many singleton sets.
        for _ in 0..20_000 {
            let set = sampler.sample_set(&mut rng, 1);
            for (s, v) in stats.iter_mut().zip(set[0].values()) {
                s.push(*v);
            }
        }
        for (s, e) in stats.iter().zip(&expect) {
            assert!(s.mean().abs() < 3.0 * e / 100.0, "mean {} vs sigma {e}", s.mean());
            assert!((s.std_dev() - e).abs() < 0.05 * e, "std {} vs {e}", s.std_dev());
        }
    }

    #[test]
    fn global_layer_correlates_same_kind_devices() {
        // With global+local, the two same-kind NMOS V_th components share the
        // broadcast global draw, so across sets they must correlate.
        let sampler = MismatchSampler::new(domain(), VarianceLayers::GLOBAL_LOCAL);
        let mut rng = seeded(3);
        let mut v1 = Vec::new();
        let mut v2 = Vec::new();
        for _ in 0..4000 {
            let set = sampler.sample_set(&mut rng, 1);
            v1.push(set[0].values()[0]); // M1 ΔVth
            v2.push(set[0].values()[2]); // M2 ΔVth
        }
        let rho = glova_stats::correlation::pearson(&v1, &v2);
        assert!(rho > 0.3, "die-level correlation missing: rho = {rho}");

        // Local-only must not correlate.
        let sampler_l = MismatchSampler::new(domain(), VarianceLayers::LOCAL);
        let mut v1l = Vec::new();
        let mut v2l = Vec::new();
        for _ in 0..4000 {
            let set = sampler_l.sample_set(&mut rng, 1);
            v1l.push(set[0].values()[0]);
            v2l.push(set[0].values()[2]);
        }
        let rho_l = glova_stats::correlation::pearson(&v1l, &v2l);
        assert!(rho_l.abs() < 0.1, "unexpected local correlation: {rho_l}");
    }

    #[test]
    fn within_set_samples_share_global() {
        let sampler = MismatchSampler::new(domain(), VarianceLayers::GLOBAL_LOCAL);
        let mut rng = seeded(4);
        // Same-die samples scatter around the same global mean, so their
        // per-component mean approaches the global offset, not zero.
        let set = sampler.sample_set(&mut rng, 2000);
        let mean0 =
            glova_stats::descriptive::mean(&set.iter().map(|v| v.values()[0]).collect::<Vec<_>>());
        let local_sigma = sampler.domain().local_sigmas()[0];
        // The standard error of the mean is tiny; a |mean| larger than a few
        // standard errors implies a shared non-zero global offset.
        let sem = local_sigma / (set.len() as f64).sqrt();
        assert!(mean0.abs() > 5.0 * sem, "expected shared global offset, mean {mean0}, sem {sem}");
    }

    #[test]
    fn compound_variance_exceeds_local() {
        let dom = domain();
        let local = MismatchSampler::new(dom.clone(), VarianceLayers::LOCAL);
        let both = MismatchSampler::new(dom, VarianceLayers::GLOBAL_LOCAL);
        let mut rng = seeded(5);
        let collect_std = |sampler: &MismatchSampler, rng: &mut glova_stats::rng::Rng64| {
            let mut s = RunningStats::new();
            for _ in 0..8000 {
                s.push(sampler.sample_set(rng, 1)[0].values()[0]);
            }
            s.std_dev()
        };
        let sd_local = collect_std(&local, &mut rng);
        let sd_both = collect_std(&both, &mut rng);
        // Expected ratio: √(σ_L² + σ_G²)/σ_L ≈ 1.26 for this geometry.
        assert!(sd_both > sd_local * 1.15, "global layer too weak: {sd_both} vs {sd_local}");
    }

    #[test]
    fn wafer_shape() {
        let sampler = MismatchSampler::new(domain(), VarianceLayers::GLOBAL_LOCAL);
        let mut rng = seeded(6);
        let wafer = sampler.sample_wafer(&mut rng, 3, 7);
        assert_eq!(wafer.len(), 3);
        assert!(wafer.iter().all(|die| die.len() == 7));
    }

    proptest! {
        #[test]
        fn prop_sample_dimensions(n in 1usize..16, seed in 0u64..64) {
            let sampler = MismatchSampler::new(domain(), VarianceLayers::GLOBAL_LOCAL);
            let mut rng = seeded(seed);
            let set = sampler.sample_set(&mut rng, n);
            prop_assert_eq!(set.len(), n);
            for v in &set {
                prop_assert_eq!(v.dim(), sampler.domain().dim());
                prop_assert!(v.values().iter().all(|x| x.is_finite()));
            }
        }
    }
}
