//! PVTSizing as a configuration of the paper-run loop.
//!
//! It owns no code: [`Framework::PvtSizing`](crate::optimizer::Framework::PvtSizing)
//! documents what sets it apart, and
//! [`GlovaOptimizer::run`](crate::optimizer::GlovaOptimizer::run) selects
//! those pieces. Its unit tests live here, beside RobustAnalog's.

#[cfg(test)]
mod tests {
    use crate::optimizer::{Framework, GlovaConfig, GlovaOptimizer};
    use glova_circuits::{Circuit, ToyQuadratic};
    use glova_variation::config::VerificationMethod;
    use std::sync::Arc;

    fn toy() -> Arc<dyn Circuit> {
        Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05))
    }

    fn quick() -> GlovaConfig {
        GlovaConfig {
            framework: Framework::PvtSizing,
            ..GlovaConfig::quick(VerificationMethod::Corner)
        }
    }

    #[test]
    fn solves_toy_under_corner_verification() {
        let result = GlovaOptimizer::new(toy(), quick()).run(3);
        assert!(result.success, "failed: {result}");
    }

    #[test]
    fn uses_more_simulations_per_iteration_than_glova() {
        // PVTSizing simulates all 30 corners per iteration, GLOVA only the
        // worst one. On a toy no design satisfies, seeding spends its whole
        // budget and no verification fires, so with N' = 1 (the corner
        // method) a run costs exactly 5 seeding + 3 designs × 30 corners,
        // then 30 or 1 per iteration.
        let infeasible: Arc<dyn Circuit> = Arc::new(ToyQuadratic::new(vec![2.0, 2.0], 1e-6));
        let simulations = |framework: Framework| {
            let config = GlovaConfig {
                framework,
                hidden: vec![16],
                updates_per_step: 1,
                max_iterations: 5,
                turbo_budget: 5,
                ..quick()
            };
            let result = GlovaOptimizer::new(infeasible.clone(), config).run(999);
            assert!(!result.success);
            assert_eq!(result.verification_attempts, 0);
            result.simulations
        };
        assert_eq!(simulations(Framework::PvtSizing), 5 + 3 * 30 + 5 * 30);
        assert_eq!(simulations(Framework::GLOVA), 5 + 3 * 30 + 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let config = GlovaConfig {
                hidden: vec![16, 16],
                max_iterations: 20,
                turbo_budget: 40,
                ..quick()
            };
            GlovaOptimizer::new(toy(), config)
        };
        let r1 = mk().run(5);
        let r2 = mk().run(5);
        assert_eq!(r1.rl_iterations, r2.rl_iterations);
        assert_eq!(r1.simulations, r2.simulations);
        assert_eq!(r1.final_design, r2.final_design);
    }
}
