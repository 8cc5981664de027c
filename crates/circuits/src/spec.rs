//! Constraint specifications, normalized metrics and the reward function.
//!
//! The paper consolidates multiple objectives into one reward (Eq. 4–5):
//!
//! ```text
//! f_i = (c_i − F_i) / (c_i + F_i)        (normalized metric, ≤ targets)
//! r'  = Σ_i min(f_i, 0)
//! r   = 0.2        if all constraints satisfied, else r'
//! ```
//!
//! Metrics that must be *maximized* (the DRAM sensing voltages) are handled
//! with an orientation flag rather than sign-flipping the raw values: for a
//! `≥` target the normalized metric is `(F_i − c_i)/(F_i + c_i)`. Both
//! orientations give `f_i > 0 ⇔ satisfied` and keep `f_i` scale-free, which
//! is what the reward and the µ-σ machinery rely on. This matches the
//! formulation GLOVA inherits from RobustAnalog/PVTSizing (refs \[8\], \[9\]).

/// Constraint orientation for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Goal {
    /// Metric must satisfy `F ≤ limit` (power, delay, noise, energy).
    Below,
    /// Metric must satisfy `F ≥ limit` (sensing voltages).
    Above,
}

/// One performance metric and its constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name (units included, e.g. `"power_uw"`).
    pub name: String,
    /// Constraint orientation.
    pub goal: Goal,
    /// Constraint target `c_i` in the metric's raw units.
    pub limit: f64,
}

impl MetricSpec {
    /// A `F ≤ limit` metric.
    pub fn below(name: impl Into<String>, limit: f64) -> Self {
        Self { name: name.into(), goal: Goal::Below, limit }
    }

    /// A `F ≥ limit` metric.
    pub fn above(name: impl Into<String>, limit: f64) -> Self {
        Self { name: name.into(), goal: Goal::Above, limit }
    }

    /// Whether `value` satisfies this constraint.
    pub fn satisfied(&self, value: f64) -> bool {
        match self.goal {
            Goal::Below => value <= self.limit,
            Goal::Above => value >= self.limit,
        }
    }

    /// Normalized metric `f_i` (paper Eq. 5); positive iff satisfied.
    ///
    /// Values and limits are assumed positive in raw units (all testcase
    /// metrics are); the denominator is guarded to stay positive.
    pub fn normalized(&self, value: f64) -> f64 {
        let denom = (self.limit + value).abs().max(1e-30);
        match self.goal {
            Goal::Below => (self.limit - value) / denom,
            Goal::Above => (value - self.limit) / denom,
        }
    }

    /// Scale-free violation margin: `0` when satisfied, positive and
    /// growing with violation severity otherwise. Used by the t-SCORE
    /// corner reordering (Eq. 8, normalized per `docs/DESIGN.md` §5).
    pub fn violation(&self, value: f64) -> f64 {
        let rel = (value - self.limit) / self.limit.abs().max(1e-30);
        match self.goal {
            Goal::Below => rel.max(0.0),
            Goal::Above => (-rel).max(0.0),
        }
    }

    /// Signed degradation: larger = worse, zero at the constraint boundary.
    /// Used as the `g` aggregate in the h-SCORE MC reordering (Eq. 9–10,
    /// orientation per `docs/DESIGN.md` §5).
    pub fn degradation(&self, value: f64) -> f64 {
        let rel = (value - self.limit) / self.limit.abs().max(1e-30);
        match self.goal {
            Goal::Below => rel,
            Goal::Above => -rel,
        }
    }

    /// The conservative µ-σ bound of Eq. 7, oriented so that *larger is
    /// worse*: `E[F] + β₂σ[F]` for `≤` metrics, `E[F] − β₂σ[F]` for `≥`
    /// metrics. Passing requires the bound to still satisfy the constraint.
    pub fn mu_sigma_bound(&self, mean: f64, std_dev: f64, beta2: f64) -> f64 {
        match self.goal {
            Goal::Below => mean + beta2 * std_dev,
            Goal::Above => mean - beta2 * std_dev,
        }
    }

    /// Whether the µ-σ bound passes the constraint (Eq. 7).
    pub fn mu_sigma_pass(&self, mean: f64, std_dev: f64, beta2: f64) -> bool {
        self.satisfied(self.mu_sigma_bound(mean, std_dev, beta2))
    }

    /// The same metric with its limit multiplied by `factor` — the
    /// per-metric building block of a goal-conditioned spec family.
    ///
    /// Whether a factor tightens or relaxes depends on the orientation:
    /// for a [`Goal::Below`] metric `factor < 1` tightens, for a
    /// [`Goal::Above`] metric `factor > 1` tightens.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn with_scaled_limit(&self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "scale factor must be positive: {factor}");
        Self { name: self.name.clone(), goal: self.goal, limit: self.limit * factor }
    }
}

/// The full constraint set of a sizing problem.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DesignSpec {
    metrics: Vec<MetricSpec>,
}

/// The reward granted when every constraint is satisfied (paper Eq. 4).
pub const SATISFIED_REWARD: f64 = 0.2;

impl DesignSpec {
    /// Builds a spec from metric definitions.
    pub fn new(metrics: Vec<MetricSpec>) -> Self {
        Self { metrics }
    }

    /// The metric definitions, in evaluation order.
    pub fn metrics(&self) -> &[MetricSpec] {
        &self.metrics
    }

    /// Number of metrics `m`.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the spec is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Normalized metrics `f_i` for a raw metric vector.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != len()`.
    pub fn normalized(&self, values: &[f64]) -> Vec<f64> {
        assert_eq!(values.len(), self.metrics.len(), "metric count mismatch");
        self.metrics.iter().zip(values).map(|(m, &v)| m.normalized(v)).collect()
    }

    /// Whether all constraints are satisfied.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != len()`.
    pub fn satisfied(&self, values: &[f64]) -> bool {
        assert_eq!(values.len(), self.metrics.len(), "metric count mismatch");
        self.metrics.iter().zip(values).all(|(m, &v)| m.satisfied(v))
    }

    /// The paper's reward (Eq. 4–5): `0.2` when feasible, else
    /// `Σ min(f_i, 0) < 0`.
    ///
    /// A `NaN` metric (a diverged simulation) makes the reward `NaN`:
    /// `f64::min` would drop it and score the design as if that metric
    /// were met. The pipeline's NaN-propagating reductions then poison
    /// the batch, and storage boundaries sanitize it to their decisively
    /// infeasible stand-in (`glova_stats::reduce::finite_worst`).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != len()`.
    pub fn reward(&self, values: &[f64]) -> f64 {
        if self.satisfied(values) {
            SATISFIED_REWARD
        } else {
            self.normalized(values).iter().map(|&f| if f.is_nan() { f } else { f.min(0.0) }).sum()
        }
    }

    /// A goal-scaled member of this spec's family: metric `i`'s limit is
    /// multiplied by `factors[i]` (see [`MetricSpec::with_scaled_limit`]
    /// for the tighten/relax orientation). A factor of `1.0` leaves a
    /// metric unchanged, so the all-ones vector reproduces this spec.
    ///
    /// This is the spec-family encoding behind PPAAS-style goal
    /// conditioning: a campaign appends `factors` to the agent's
    /// observation and rewards against the scaled spec, letting one agent
    /// serve every member of the family.
    ///
    /// # Panics
    ///
    /// Panics if `factors.len() != len()` or any factor is not positive
    /// and finite.
    pub fn with_scaled_limits(&self, factors: &[f64]) -> Self {
        assert_eq!(factors.len(), self.metrics.len(), "one scale factor per metric");
        Self {
            metrics: self
                .metrics
                .iter()
                .zip(factors)
                .map(|(m, &f)| m.with_scaled_limit(f))
                .collect(),
        }
    }

    /// Aggregate degradation `g = Σ_i degradation_i` (larger = worse),
    /// the target quantity of the h-SCORE correlation (Eq. 9).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != len()`.
    pub fn degradation(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.metrics.len(), "metric count mismatch");
        self.metrics.iter().zip(values).map(|(m, &v)| m.degradation(v)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec() -> DesignSpec {
        DesignSpec::new(vec![
            MetricSpec::below("power_uw", 40.0),
            MetricSpec::above("margin_mv", 85.0),
        ])
    }

    #[test]
    fn satisfied_logic() {
        let s = spec();
        assert!(s.satisfied(&[30.0, 100.0]));
        assert!(!s.satisfied(&[50.0, 100.0]));
        assert!(!s.satisfied(&[30.0, 60.0]));
    }

    #[test]
    fn reward_is_0_2_when_feasible() {
        let s = spec();
        assert_eq!(s.reward(&[30.0, 100.0]), SATISFIED_REWARD);
    }

    #[test]
    fn reward_negative_when_infeasible() {
        let s = spec();
        let r = s.reward(&[50.0, 100.0]);
        assert!(r < 0.0);
        // Worse violation ⇒ lower reward.
        let r_worse = s.reward(&[80.0, 100.0]);
        assert!(r_worse < r);
    }

    #[test]
    fn diverged_metric_rewards_nan_and_ranks_below_every_finite_reward() {
        use glova_stats::reduce::{finite_worst, DIVERGED_REWARD};
        let s = spec();
        for metrics in [[f64::NAN, 100.0], [30.0, f64::NAN], [f64::NAN, f64::NAN]] {
            let r = s.reward(&metrics);
            assert!(r.is_nan(), "{metrics:?} rewarded {r}");
            assert_eq!(finite_worst(r), DIVERGED_REWARD);
        }
        // Every finite reward of this spec — feasible or violating by any
        // margin — outranks the diverged stand-in.
        for metrics in [[30.0, 100.0], [50.0, 100.0], [1e6, 1e-6]] {
            assert!(s.reward(&metrics) > finite_worst(s.reward(&[f64::NAN, 100.0])));
        }
    }

    #[test]
    fn satisfied_metrics_do_not_dilute_reward() {
        // min(f_i, 0) zeroes satisfied metrics: improving an already-feasible
        // metric must not change the reward of an infeasible design.
        let s = spec();
        let r1 = s.reward(&[50.0, 86.0]);
        let r2 = s.reward(&[50.0, 300.0]);
        assert!((r1 - r2).abs() < 1e-12);
    }

    #[test]
    fn normalized_sign_tracks_satisfaction() {
        let below = MetricSpec::below("m", 10.0);
        assert!(below.normalized(5.0) > 0.0);
        assert!(below.normalized(15.0) < 0.0);
        assert!(below.normalized(10.0).abs() < 1e-12);

        let above = MetricSpec::above("m", 10.0);
        assert!(above.normalized(15.0) > 0.0);
        assert!(above.normalized(5.0) < 0.0);
    }

    #[test]
    fn mu_sigma_orientation() {
        let below = MetricSpec::below("m", 10.0);
        // mean 8, std 1, beta 4 → bound 12 > 10: fail.
        assert!(!below.mu_sigma_pass(8.0, 1.0, 4.0));
        assert!(below.mu_sigma_pass(8.0, 0.2, 4.0));

        let above = MetricSpec::above("m", 10.0);
        // mean 12, std 1, beta 4 → bound 8 < 10: fail.
        assert!(!above.mu_sigma_pass(12.0, 1.0, 4.0));
        assert!(above.mu_sigma_pass(12.0, 0.2, 4.0));
    }

    #[test]
    fn degradation_orientation() {
        let below = MetricSpec::below("m", 10.0);
        assert!(below.degradation(15.0) > below.degradation(5.0));
        let above = MetricSpec::above("m", 10.0);
        assert!(above.degradation(5.0) > above.degradation(15.0));
    }

    #[test]
    fn violation_zero_when_satisfied() {
        let below = MetricSpec::below("m", 10.0);
        assert_eq!(below.violation(9.0), 0.0);
        assert!(below.violation(12.0) > 0.0);
        let above = MetricSpec::above("m", 10.0);
        assert_eq!(above.violation(11.0), 0.0);
        assert!(above.violation(8.0) > 0.0);
    }

    #[test]
    fn scaled_limits_shift_feasibility() {
        let s = spec();
        // Identity factors reproduce the spec exactly.
        assert_eq!(s.with_scaled_limits(&[1.0, 1.0]), s);
        // Tighten power (Below: factor < 1) and margin (Above: factor > 1).
        let tight = s.with_scaled_limits(&[0.5, 1.2]);
        assert_eq!(tight.metrics()[0].limit, 20.0);
        assert_eq!(tight.metrics()[1].limit, 102.0);
        // A point feasible under the base spec fails the tight member.
        assert!(s.satisfied(&[30.0, 100.0]));
        assert!(!tight.satisfied(&[30.0, 100.0]));
        assert!(tight.satisfied(&[15.0, 110.0]));
    }

    #[test]
    #[should_panic(expected = "scale factor must be positive")]
    fn nonpositive_scale_factor_panics() {
        spec().with_scaled_limits(&[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "one scale factor per metric")]
    fn scale_factor_count_must_match() {
        spec().with_scaled_limits(&[1.0]);
    }

    proptest! {
        #[test]
        fn prop_reward_upper_bounded(
            v1 in 0.1f64..1000.0,
            v2 in 0.1f64..1000.0,
        ) {
            let r = spec().reward(&[v1, v2]);
            prop_assert!(r <= SATISFIED_REWARD);
            // Either exactly the satisfied reward, or strictly negative.
            prop_assert!(r == SATISFIED_REWARD || r < 0.0);
        }

        #[test]
        fn prop_normalized_bounded(v in 0.0f64..1e6) {
            // |f_i| ≤ 1 for non-negative raw values.
            let m = MetricSpec::below("m", 10.0);
            prop_assert!(m.normalized(v).abs() <= 1.0 + 1e-12);
        }

        #[test]
        fn prop_reward_monotone_in_violation(
            base in 41.0f64..100.0,
            extra in 1.0f64..100.0,
        ) {
            let s = spec();
            let r1 = s.reward(&[base, 100.0]);
            let r2 = s.reward(&[base + extra, 100.0]);
            prop_assert!(r2 <= r1);
        }
    }
}
