//! Post-sign-off Monte-Carlo yield estimation with confidence bounds.
//!
//! Full verification (Algorithm 2) is a pass/fail gate; after a design
//! passes, a designer typically wants a *yield number* — "what fraction of
//! dies meet spec, and how sure are we?" This module runs an independent
//! fresh-die MC campaign over the problem's corners and reports the
//! Clopper–Pearson confidence interval on the pass proportion.

use crate::problem::SizingProblem;
use glova_circuits::spec::DesignSpec;
use glova_stats::binomial::clopper_pearson;
use glova_stats::rng::Rng64;

/// Result of a yield-estimation campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldEstimate {
    /// Total Monte-Carlo samples simulated (across all corners).
    pub samples: u64,
    /// Samples that met every constraint.
    pub passes: u64,
    /// Point estimate of yield (pass proportion).
    pub yield_point: f64,
    /// Clopper–Pearson confidence interval at the requested level.
    pub confidence_interval: (f64, f64),
    /// The confidence level used (e.g. 0.95).
    pub confidence: f64,
    /// Worst corner index by per-corner pass rate.
    pub worst_corner: usize,
    /// Pass rate at the worst corner.
    pub worst_corner_yield: f64,
}

impl std::fmt::Display for YieldEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "yield {:.3}% [{:.3}%, {:.3}%] at {:.0}% confidence ({} / {} samples)",
            self.yield_point * 100.0,
            self.confidence_interval.0 * 100.0,
            self.confidence_interval.1 * 100.0,
            self.confidence * 100.0,
            self.passes,
            self.samples
        )
    }
}

/// Estimates the yield of design `x` with `samples_per_corner` fresh-die
/// MC samples on every corner of the problem's configuration.
///
/// The full `corner × sample` grid is pre-sampled in deterministic order
/// and fanned out through the problem's
/// [`EvalEngine`](crate::engine::EvalEngine) in one batch — the sweep has
/// no early abort, so it parallelizes across the entire campaign and the
/// estimate is engine-independent.
///
/// # Panics
///
/// Panics if `samples_per_corner == 0` or `confidence` is outside `(0,1)`.
pub fn estimate_yield(
    problem: &SizingProblem,
    x: &[f64],
    samples_per_corner: usize,
    confidence: f64,
    rng: &mut Rng64,
) -> YieldEstimate {
    let spec = problem.circuit().spec();
    estimate_yield_against(problem, spec, x, samples_per_corner, confidence, rng)
}

/// [`estimate_yield`] judging each sample against `spec` instead of the
/// circuit's own — the goal-spec yield a goal-conditioned campaign
/// reports.
pub(crate) fn estimate_yield_against(
    problem: &SizingProblem,
    spec: &DesignSpec,
    x: &[f64],
    samples_per_corner: usize,
    confidence: f64,
    rng: &mut Rng64,
) -> YieldEstimate {
    assert!(samples_per_corner > 0, "need at least one sample per corner");
    assert!(confidence > 0.0 && confidence < 1.0, "confidence must be in (0, 1)");
    let per_corner = problem.simulate_corner_grid_independent(x, samples_per_corner, rng);

    let mut passes = 0u64;
    let mut total = 0u64;
    let mut worst_corner = 0usize;
    let mut worst_rate = f64::INFINITY;
    for (ci, outcomes) in per_corner.iter().enumerate() {
        let corner_passes = outcomes.iter().filter(|o| spec.satisfied(&o.metrics)).count() as u64;
        total += outcomes.len() as u64;
        passes += corner_passes;
        let rate = corner_passes as f64 / samples_per_corner as f64;
        if rate < worst_rate {
            worst_rate = rate;
            worst_corner = ci;
        }
    }
    let (lo, hi) = clopper_pearson(passes, total, 1.0 - confidence);
    YieldEstimate {
        samples: total,
        passes,
        yield_point: passes as f64 / total as f64,
        confidence_interval: (lo, hi),
        confidence,
        worst_corner,
        worst_corner_yield: worst_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_circuits::ToyQuadratic;
    use glova_stats::rng::seeded;
    use glova_variation::config::VerificationMethod;
    use std::sync::Arc;

    fn problem() -> SizingProblem {
        SizingProblem::new(
            Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05)),
            VerificationMethod::CornerLocalMc,
        )
    }

    #[test]
    fn optimum_yields_near_one() {
        let p = problem();
        let x = ToyQuadratic::standard().optimum().to_vec();
        let mut rng = seeded(1);
        let est = estimate_yield(&p, &x, 30, 0.95, &mut rng);
        assert_eq!(est.samples, 30 * 30);
        assert!(est.yield_point > 0.98, "{est}");
        assert!(est.confidence_interval.0 > 0.9);
        assert!(est.confidence_interval.0 <= est.yield_point);
        assert!(est.confidence_interval.1 >= est.yield_point);
    }

    #[test]
    fn far_design_yields_near_zero() {
        let p = problem();
        let x = vec![0.0; 4];
        let mut rng = seeded(2);
        let est = estimate_yield(&p, &x, 10, 0.95, &mut rng);
        assert!(est.yield_point < 0.05, "{est}");
    }

    #[test]
    fn marginal_design_identifies_worst_corner() {
        // A design offset toward the corner-penalty direction: the worst
        // corner must be one of the SS/0.8V family (the largest penalty).
        let p = problem();
        let mut x = ToyQuadratic::standard().optimum().to_vec();
        x[0] += 0.14;
        let mut rng = seeded(3);
        let est = estimate_yield(&p, &x, 40, 0.95, &mut rng);
        assert!(est.yield_point < 1.0, "design should be marginal: {est}");
        let corner = p.config().corners.corner(est.worst_corner);
        assert!(
            est.worst_corner_yield <= est.yield_point + 1e-12,
            "worst corner rate must not exceed overall"
        );
        // Worst corner must be a low-voltage one for this toy.
        assert!(corner.vdd < 0.85, "unexpected worst corner {corner}");
    }

    #[test]
    fn display_is_informative() {
        let p = problem();
        let x = ToyQuadratic::standard().optimum().to_vec();
        let mut rng = seeded(4);
        let est = estimate_yield(&p, &x, 5, 0.9, &mut rng);
        let s = est.to_string();
        assert!(s.contains("yield"));
        assert!(s.contains("confidence"));
    }
}
