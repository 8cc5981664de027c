//! RobustAnalog's corner policy — the one piece of
//! [`Framework::RobustAnalog`](crate::optimizer::Framework::RobustAnalog)
//! the sizing loop does not share with the other frameworks.
//!
//! Corners are tasks, clustered with k-means on their last worst reward
//! and operating condition; each iteration simulates the worst corner of
//! every cluster (the "dominant corners"), and the clustering is redrawn
//! every [`RECLUSTER_EVERY`] iterations.

use crate::kmeans::kmeans;
use glova_rl::LastWorstBuffer;
use glova_stats::rng::Rng64;
use glova_variation::corner::CornerSet;

/// Number of corner clusters (dominant corners per iteration).
pub(crate) const CLUSTERS: usize = 4;

/// The corners are re-clustered every this many iterations.
pub(crate) const RECLUSTER_EVERY: usize = 25;

/// Clusters the corners on their last worst reward and operating
/// condition, and returns the worst corner of each cluster, ascending.
pub(crate) fn dominant_corners(
    corners: &CornerSet,
    last_worst: &LastWorstBuffer,
    rng: &mut Rng64,
) -> Vec<usize> {
    // Feature: (reward, normalized vdd, normalized temp, process skews).
    let points: Vec<Vec<f64>> = corners
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            vec![
                last_worst.last(ci),
                (c.vdd - 0.85) * 10.0,
                c.temp_c / 120.0,
                c.process.nmos_skew() * 0.5,
                c.process.pmos_skew() * 0.5,
            ]
        })
        .collect();
    let k = CLUSTERS.min(points.len());
    let assignments = kmeans(&points, k, 30, rng).assignments;
    let mut dominant: Vec<usize> = (0..k)
        .filter_map(|cluster| {
            (0..points.len()).filter(|&ci| assignments[ci] == cluster).min_by(|&a, &b| {
                last_worst.last(a).partial_cmp(&last_worst.last(b)).expect("finite rewards")
            })
        })
        .collect();
    dominant.sort_unstable();
    dominant.dedup();
    dominant
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Framework, GlovaConfig, GlovaOptimizer};
    use glova_circuits::{Circuit, ToyQuadratic};
    use glova_stats::rng::seeded;
    use glova_variation::config::VerificationMethod;
    use std::sync::Arc;

    fn toy() -> Arc<dyn Circuit> {
        Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05))
    }

    fn quick(method: VerificationMethod) -> GlovaConfig {
        GlovaConfig {
            framework: Framework::RobustAnalog,
            max_iterations: 200,
            turbo_budget: 150,
            ..GlovaConfig::quick(method)
        }
    }

    #[test]
    fn solves_toy_under_corner_verification() {
        let result = GlovaOptimizer::new(toy(), quick(VerificationMethod::Corner)).run(3);
        assert!(result.success, "failed: {result}");
    }

    #[test]
    fn simulates_only_dominant_corners_per_iteration() {
        // The dominant corners are distinct, at most one per cluster, and
        // include the worst corner overall (the worst of its cluster).
        let corners = CornerSet::industrial_30();
        let mut last_worst = LastWorstBuffer::new(corners.len());
        for ci in 0..corners.len() {
            last_worst.record(ci, -((ci * 7 % 30) as f64));
        }
        let dominant = dominant_corners(&corners, &last_worst, &mut seeded(5));
        assert!((1..=CLUSTERS).contains(&dominant.len()), "{dominant:?}");
        assert!(dominant.windows(2).all(|w| w[0] < w[1]), "{dominant:?}");
        assert!(dominant.contains(&last_worst.worst_corner()), "{dominant:?}");

        // On a toy no design satisfies, seeding spends its whole budget and
        // no verification fires; within one clustering period every
        // iteration then simulates the same dominant corners, N' samples
        // each, past the initial grid of 3 designs × 30 corners.
        let iterations = RECLUSTER_EVERY;
        let config = GlovaConfig {
            hidden: vec![16, 16],
            updates_per_step: 2,
            max_iterations: iterations,
            turbo_budget: 10,
            ..quick(VerificationMethod::CornerLocalMc)
        };
        let n_prime = config.method.operating_config().optim_samples as u64;
        let infeasible = Arc::new(ToyQuadratic::new(vec![2.0, 2.0], 1e-6));
        let result = GlovaOptimizer::new(infeasible, config).run(999);
        assert!(!result.success);
        assert_eq!(result.verification_attempts, 0);
        let in_loop = result.simulations - 10 - 3 * 30 * n_prime;
        let per_iteration = in_loop / (iterations as u64 * n_prime);
        assert_eq!(in_loop, per_iteration * iterations as u64 * n_prime);
        assert!((1..=CLUSTERS as u64).contains(&per_iteration), "{per_iteration} corners");
    }

    #[test]
    fn deterministic_given_seed() {
        let r1 = GlovaOptimizer::new(toy(), quick(VerificationMethod::Corner)).run(7);
        let r2 = GlovaOptimizer::new(toy(), quick(VerificationMethod::Corner)).run(7);
        assert_eq!(r1.rl_iterations, r2.rl_iterations);
        assert_eq!(r1.simulations, r2.simulations);
        assert_eq!(r1.final_design, r2.final_design);
    }
}
