//! The µ-σ evaluation method (paper §V.A, Eq. 7).
//!
//! From a small pre-sampled subset of `N'` Monte-Carlo points, estimate
//! whether the *full* distribution would pass: every metric's conservative
//! bound `E[F_i] + β₂σ[F_i]` (orientation-aware, see
//! [`MetricSpec::mu_sigma_bound`](glova_circuits::spec::MetricSpec))
//! must still satisfy its constraint. β₂ ≥ 4 compensates for the
//! incompleteness of the small sample.

use crate::problem::SimOutcome;
use glova_circuits::spec::DesignSpec;
use glova_stats::descriptive::RunningStats;

/// Result of a µ-σ evaluation over one corner's sampled outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct MuSigmaEvaluation {
    /// Conservative bound `e_i` per metric (already oriented so that
    /// "satisfies constraint" has its usual meaning).
    pub bounds: Vec<f64>,
    /// Whether every bound satisfies its constraint.
    pub passed: bool,
    /// Normalized violation margins of the bounds (0 when satisfied) —
    /// the summands of the t-SCORE (Eq. 8, normalized per `docs/DESIGN.md` §5).
    pub violations: Vec<f64>,
}

impl MuSigmaEvaluation {
    /// Evaluates Eq. 7 over the sampled outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is empty or metric counts disagree with the
    /// spec.
    pub fn evaluate(spec: &DesignSpec, outcomes: &[SimOutcome], beta2: f64) -> Self {
        Self::evaluate_with_pool(spec, outcomes, beta2, None)
    }

    /// Like [`MuSigmaEvaluation::evaluate`], but when a pooled per-metric σ
    /// estimate is available (from other corners' samples of the same
    /// design), each metric uses `min(σ̂_local, σ_pooled)`.
    ///
    /// With `N'` as small as 2–5, the per-corner σ̂ is χ-distributed with
    /// enormous spread; a single unlucky draw inflates the bound and
    /// falsely rejects a robust design. Mismatch-induced variance is
    /// corner-independent in scale to first order, so pooling
    /// within-corner deviations across corners is statistically sound
    /// (see `docs/DESIGN.md` §5).
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is empty or metric counts disagree.
    pub fn evaluate_with_pool(
        spec: &DesignSpec,
        outcomes: &[SimOutcome],
        beta2: f64,
        pooled_sigma: Option<&[f64]>,
    ) -> Self {
        assert!(!outcomes.is_empty(), "µ-σ evaluation needs at least one sample");
        let m = spec.len();
        if let Some(p) = pooled_sigma {
            assert_eq!(p.len(), m, "pooled sigma count mismatch");
        }
        let mut stats = vec![RunningStats::new(); m];
        for outcome in outcomes {
            assert_eq!(outcome.metrics.len(), m, "metric count mismatch");
            for (s, &v) in stats.iter_mut().zip(&outcome.metrics) {
                s.push(v);
            }
        }
        let mut bounds = Vec::with_capacity(m);
        let mut violations = Vec::with_capacity(m);
        let mut passed = true;
        for (i, (metric, s)) in spec.metrics().iter().zip(&stats).enumerate() {
            let sigma = match pooled_sigma {
                Some(p) => s.std_dev().min(p[i]),
                None => s.std_dev(),
            };
            let bound = metric.mu_sigma_bound(s.mean(), sigma, beta2);
            passed &= metric.satisfied(bound);
            violations.push(metric.violation(bound));
            bounds.push(bound);
        }
        Self { bounds, passed, violations }
    }

    /// The t-SCORE contribution of this corner: the sum of normalized
    /// bound violations (higher = more likely to fail, Eq. 8).
    pub fn t_score(&self) -> f64 {
        self.violations.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_circuits::spec::{DesignSpec, MetricSpec};

    fn spec() -> DesignSpec {
        DesignSpec::new(vec![MetricSpec::below("power", 40.0), MetricSpec::above("margin", 85.0)])
    }

    fn outcome(power: f64, margin: f64) -> SimOutcome {
        SimOutcome { metrics: vec![power, margin], reward: 0.0 }
    }

    #[test]
    fn comfortable_margins_pass() {
        let outcomes = vec![outcome(20.0, 120.0), outcome(21.0, 118.0), outcome(19.5, 122.0)];
        let eval = MuSigmaEvaluation::evaluate(&spec(), &outcomes, 4.0);
        assert!(eval.passed);
        assert_eq!(eval.t_score(), 0.0);
    }

    #[test]
    fn high_variance_fails_despite_good_mean() {
        // Mean power 30 < 40, but σ ≈ 8 → bound ≈ 62 → fail. This is the
        // defining property of the µ-σ gate: it rejects designs whose
        // *distribution* will fail even when the samples pass.
        let outcomes = vec![outcome(22.0, 120.0), outcome(30.0, 120.0), outcome(38.0, 120.0)];
        let eval = MuSigmaEvaluation::evaluate(&spec(), &outcomes, 4.0);
        assert!(!eval.passed);
        assert!(eval.t_score() > 0.0);
    }

    #[test]
    fn above_metrics_use_lower_bound() {
        // Margin mean 95 ≥ 85, but σ 5 → bound 95 − 20 = 75 < 85 → fail.
        let outcomes = vec![outcome(20.0, 90.0), outcome(20.0, 95.0), outcome(20.0, 100.0)];
        let eval = MuSigmaEvaluation::evaluate(&spec(), &outcomes, 4.0);
        assert!(!eval.passed);
    }

    #[test]
    fn beta2_zero_reduces_to_mean_check() {
        let outcomes = vec![outcome(39.0, 86.0), outcome(41.0, 84.0)];
        // Means: power 40 (= limit, pass), margin 85 (= limit, pass).
        let eval = MuSigmaEvaluation::evaluate(&spec(), &outcomes, 0.0);
        assert!(eval.passed);
        // With β₂ = 4 the same data fail.
        let eval4 = MuSigmaEvaluation::evaluate(&spec(), &outcomes, 4.0);
        assert!(!eval4.passed);
    }

    #[test]
    fn single_sample_has_zero_sigma() {
        let outcomes = vec![outcome(39.9, 85.1)];
        let eval = MuSigmaEvaluation::evaluate(&spec(), &outcomes, 4.0);
        assert!(eval.passed, "σ = 0 for one sample → bound = mean");
    }

    #[test]
    fn t_score_orders_severity() {
        let mild = MuSigmaEvaluation::evaluate(&spec(), &[outcome(45.0, 120.0)], 4.0);
        let severe = MuSigmaEvaluation::evaluate(&spec(), &[outcome(80.0, 50.0)], 4.0);
        assert!(severe.t_score() > mild.t_score());
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_outcomes_panic() {
        MuSigmaEvaluation::evaluate(&spec(), &[], 4.0);
    }
}
