//! The verification phase — Algorithm 2 of the paper.
//!
//! Full verification simulates `N` mismatch conditions on every corner
//! (Table I). To stop early on failing designs, verification proceeds in
//! two passes:
//!
//! 1. **µ-σ pass** — corners are visited worst-first (last-worst-case
//!    buffer order); each corner's `N'` pre-samples are simulated and the
//!    µ-σ criterion (Eq. 7) must pass, else verification fails
//!    immediately. The worst corner's pre-samples are *reused* from the
//!    optimization phase. t-SCOREs and correlation vectors are collected.
//! 2. **full pass** — corners are revisited in descending t-SCORE order
//!    (Eq. 8); each corner's remaining `N − N'` conditions are simulated
//!    in descending h-SCORE order (Eq. 9–10); the first constraint
//!    violation aborts.
//!
//! # Engines and deterministic early abort
//!
//! All batch simulation dispatches through the problem's
//! [`EvalEngine`](crate::engine::EvalEngine). The phase-2 abort is
//! *block-synchronous*: conditions are evaluated in deterministic blocks
//! (geometrically growing from [`MC_BLOCK_MIN`] to [`MC_BLOCK_MAX`]),
//! the violation check and the NaN-propagating worst-reward reduction
//! run over each completed block in a fixed order, and verification
//! aborts at block granularity. Block boundaries depend only on the
//! condition count — never on the engine — so sequential and threaded
//! engines simulate the same set of conditions, spend the same
//! simulation budget, and populate [`VerificationOutcome`] identically.

use crate::engine::map_indexed;
use crate::evaluation::MuSigmaEvaluation;
use crate::problem::{SimOutcome, SizingProblem};
use crate::reorder;
use glova_circuits::spec::SATISFIED_REWARD;
use glova_stats::reduce;
use glova_stats::rng::Rng64;
use glova_variation::sampler::MismatchVector;

/// First phase-2 block size: blocks grow geometrically from here, so a
/// failure that h-SCORE reordering front-loads aborts after a single
/// simulation — preserving the Eq. 9–10 early-abort economics.
pub const MC_BLOCK_MIN: usize = 1;

/// Phase-2 block-size cap: bounds both the abort latency on designs that
/// fail deep into a corner and the batch the engine fans out at once.
pub const MC_BLOCK_MAX: usize = 64;

/// Pre-simulated conditions for one corner, reusable from the
/// optimization phase.
#[derive(Debug, Clone)]
pub struct ReusableSamples {
    /// Corner index within the problem's corner set.
    pub corner_index: usize,
    /// The sampled mismatch conditions.
    pub conditions: Vec<MismatchVector>,
    /// Their simulation outcomes.
    pub outcomes: Vec<SimOutcome>,
}

/// Result of a verification attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationOutcome {
    /// Whether the design passed full verification.
    pub passed: bool,
    /// Corner index where verification failed, if it failed.
    pub failed_corner: Option<usize>,
    /// Simulations spent inside this verification attempt.
    pub simulations_used: u64,
    /// Worst reward observed per corner index (for last-worst updates).
    pub per_corner_worst: Vec<(usize, f64)>,
}

/// Algorithm-2 verifier over a sizing problem.
#[derive(Debug, Clone, Copy)]
pub struct Verifier<'a> {
    problem: &'a SizingProblem,
    beta2: f64,
    use_mu_sigma: bool,
    use_reordering: bool,
}

impl<'a> Verifier<'a> {
    /// Creates a verifier with the paper's defaults (`β₂`, both
    /// accelerations enabled).
    pub fn new(problem: &'a SizingProblem, beta2: f64) -> Self {
        Self { problem, beta2, use_mu_sigma: true, use_reordering: true }
    }

    /// Disables the µ-σ gate (Table III "w/o µ-σ" ablation): phase 1 then
    /// only fails on outright sample violations.
    pub fn without_mu_sigma(mut self) -> Self {
        self.use_mu_sigma = false;
        self
    }

    /// Disables both reordering methods (Table III "w/o SR" ablation):
    /// corners and conditions are visited in natural order.
    pub fn without_reordering(mut self) -> Self {
        self.use_reordering = false;
        self
    }

    /// Runs Algorithm 2 on design `x`.
    ///
    /// `corner_order_hint` is the worst-first corner order from the
    /// last-worst-case buffer (ignored when reordering is disabled);
    /// `reuse` optionally provides the worst corner's already-simulated
    /// `N'` conditions.
    pub fn verify(
        &self,
        x: &[f64],
        corner_order_hint: &[usize],
        reuse: Option<&ReusableSamples>,
        rng: &mut Rng64,
    ) -> VerificationOutcome {
        let config = self.problem.config();
        let spec = self.problem.circuit().spec();
        let n_corners = config.corners.len();
        let n_prime = config.optim_samples;
        let n_full = config.verif_samples_per_corner;
        let sims_before = self.problem.simulations();

        let mut per_corner_worst: Vec<(usize, f64)> = Vec::new();
        let fail =
            |failed_corner: usize, per_corner_worst: Vec<(usize, f64)>| -> VerificationOutcome {
                VerificationOutcome {
                    passed: false,
                    failed_corner: Some(failed_corner),
                    simulations_used: self.problem.simulations() - sims_before,
                    per_corner_worst,
                }
            };

        // ---- Phase 1: µ-σ over N' pre-samples per corner -----------------
        let phase1_order: Vec<usize> = if self.use_reordering {
            assert_eq!(corner_order_hint.len(), n_corners, "corner hint length mismatch");
            corner_order_hint.to_vec()
        } else {
            (0..n_corners).collect()
        };

        let mut t_scores = vec![0.0; n_corners];
        // Phase-1 samples pooled across corners: with N' as small as 2–5,
        // a per-corner Pearson estimate (Eq. 9 literal) is mostly noise;
        // pooling the normalized degradations over all corners gives the
        // h-SCORE a usable correlation vector (see `docs/DESIGN.md` §5).
        let mut pooled_conditions: Vec<MismatchVector> = Vec::new();
        let mut pooled_outcomes: Vec<SimOutcome> = Vec::new();
        let mut pooled_ssd = vec![0.0f64; spec.len()];
        let mut pooled_dof = 0usize;
        for &ci in &phase1_order {
            let corner = config.corners.corner(ci);
            let (conditions, outcomes) = match reuse {
                Some(r) if r.corner_index == ci => (r.conditions.clone(), r.outcomes.clone()),
                _ => {
                    let conditions = self.problem.sample_conditions(x, n_prime, rng);
                    let (outcomes, _) = self.problem.simulate_conditions(x, &corner, &conditions);
                    (conditions, outcomes)
                }
            };
            pooled_conditions.extend(conditions.iter().cloned());
            pooled_outcomes.extend(outcomes.iter().cloned());

            // Pooled within-corner σ per metric from all corners processed
            // so far (χ²-robust once ≥ 10 degrees of freedom accumulate).
            for (mi, ssd) in pooled_ssd.iter_mut().enumerate() {
                let mean =
                    outcomes.iter().map(|o| o.metrics[mi]).sum::<f64>() / outcomes.len() as f64;
                *ssd += outcomes.iter().map(|o| (o.metrics[mi] - mean).powi(2)).sum::<f64>();
            }
            pooled_dof += outcomes.len().saturating_sub(1);
            let pooled_sigma: Option<Vec<f64>> = if pooled_dof >= 10 {
                Some(pooled_ssd.iter().map(|s| (s / pooled_dof as f64).sqrt()).collect())
            } else {
                None
            };
            let sample_worst = reduce::worst(outcomes.iter().map(|o| o.reward));
            let eval = MuSigmaEvaluation::evaluate_with_pool(
                spec,
                &outcomes,
                self.beta2,
                pooled_sigma.as_deref(),
            );
            // The corner's recorded worst folds in the µ-σ bound reward:
            // a corner whose samples pass but whose bound fails must read
            // as "not robust" to the last-worst buffer and the agent.
            let worst = if self.use_mu_sigma {
                reduce::nan_min(sample_worst, spec.reward(&eval.bounds))
            } else {
                sample_worst
            };
            per_corner_worst.push((ci, worst));

            if self.use_mu_sigma {
                // Reject on the µ-σ bound only once the pooled σ is
                // χ²-stable; before that, a single unlucky 3-sample draw
                // would falsely reject robust designs. Outright sample
                // violations always reject.
                let sigma_stable = pooled_sigma.is_some();
                let sample_violation = outcomes.iter().any(|o| o.reward != SATISFIED_REWARD);
                if (sigma_stable && !eval.passed) || sample_violation {
                    return fail(ci, per_corner_worst);
                }
            } else if outcomes.iter().any(|o| o.reward != SATISFIED_REWARD) {
                return fail(ci, per_corner_worst);
            }
            t_scores[ci] = eval.t_score();
        }
        let rho = reorder::correlation_vector(spec, &pooled_conditions, &pooled_outcomes);

        // ---- Phase 2: remaining N − N' samples per corner -----------------
        if n_full > n_prime {
            let phase2_order: Vec<usize> = if self.use_reordering {
                reorder::order_corners_by_t_score(&t_scores)
            } else {
                (0..n_corners).collect()
            };
            for &ci in &phase2_order {
                let corner = config.corners.corner(ci);
                // Fresh die per MC point: independent global draws.
                let conditions =
                    self.problem.sample_conditions_independent(x, n_full - n_prime, rng);
                let order: Vec<usize> = if self.use_reordering {
                    reorder::order_conditions_by_h_score(&conditions, &rho)
                } else {
                    (0..conditions.len()).collect()
                };
                // Block-synchronous sweep: each block fans out through the
                // engine, then the violation check and worst-reward
                // reduction run deterministically over the completed block.
                let mut corner_worst = f64::INFINITY;
                let mut start = 0usize;
                let mut block = MC_BLOCK_MIN;
                while start < order.len() {
                    let chunk = &order[start..(start + block).min(order.len())];
                    let outcomes = map_indexed(self.problem.engine().as_ref(), chunk.len(), |j| {
                        self.problem.simulate(x, &corner, &conditions[chunk[j]])
                    });
                    corner_worst = reduce::nan_min(
                        corner_worst,
                        reduce::worst(outcomes.iter().map(|o| o.reward)),
                    );
                    if outcomes.iter().any(|o| o.reward != SATISFIED_REWARD) {
                        per_corner_worst.push((ci, corner_worst));
                        return fail(ci, per_corner_worst);
                    }
                    start += chunk.len();
                    block = (block * 2).min(MC_BLOCK_MAX);
                }
                per_corner_worst.push((ci, corner_worst));
            }
        }

        VerificationOutcome {
            passed: true,
            failed_corner: None,
            simulations_used: self.problem.simulations() - sims_before,
            per_corner_worst,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_circuits::ToyQuadratic;
    use glova_stats::rng::seeded;
    use glova_variation::config::VerificationMethod;
    use std::sync::Arc;

    fn problem(method: VerificationMethod) -> SizingProblem {
        // Mismatch-insensitive toy so corner-only feasibility is exact.
        SizingProblem::new(
            Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05)),
            method,
        )
    }

    fn natural_order(p: &SizingProblem) -> Vec<usize> {
        (0..p.config().corners.len()).collect()
    }

    #[test]
    fn good_design_passes_corner_verification() {
        let p = problem(VerificationMethod::Corner);
        let x = ToyQuadratic::standard().optimum().to_vec();
        let verifier = Verifier::new(&p, 4.0);
        let mut rng = seeded(1);
        let outcome = verifier.verify(&x, &natural_order(&p), None, &mut rng);
        assert!(outcome.passed);
        // C config: N = N' = 1 → exactly 30 simulations.
        assert_eq!(outcome.simulations_used, 30);
    }

    #[test]
    fn bad_design_fails_early_with_mu_sigma() {
        let p = problem(VerificationMethod::CornerLocalMc);
        let x = vec![0.0; 4]; // far from optimum
        let verifier = Verifier::new(&p, 4.0);
        let mut rng = seeded(2);
        let outcome = verifier.verify(&x, &natural_order(&p), None, &mut rng);
        assert!(!outcome.passed);
        // Early abort: far fewer than the full 3000 simulations.
        assert!(
            outcome.simulations_used <= 3,
            "expected first-corner abort, used {}",
            outcome.simulations_used
        );
        assert!(outcome.failed_corner.is_some());
    }

    #[test]
    fn full_mc_verification_uses_full_budget_when_passing() {
        let p = problem(VerificationMethod::CornerLocalMc);
        let x = ToyQuadratic::standard().optimum().to_vec();
        let verifier = Verifier::new(&p, 4.0);
        let mut rng = seeded(3);
        let outcome = verifier.verify(&x, &natural_order(&p), None, &mut rng);
        assert!(outcome.passed, "optimum should verify");
        assert_eq!(outcome.simulations_used, 3000, "100 samples × 30 corners");
    }

    #[test]
    fn reuse_skips_worst_corner_presamples() {
        let p = problem(VerificationMethod::CornerLocalMc);
        let x = ToyQuadratic::standard().optimum().to_vec();
        let mut rng = seeded(4);
        // Pre-simulate corner 0's N' samples.
        let conditions = p.sample_conditions(&x, 3, &mut rng);
        let corner = p.config().corners.corner(0);
        let (outcomes, _) = p.simulate_conditions(&x, &corner, &conditions);
        let reuse = ReusableSamples { corner_index: 0, conditions, outcomes };
        let sims_before_verify = p.simulations();
        let verifier = Verifier::new(&p, 4.0);
        let outcome = verifier.verify(&x, &natural_order(&p), Some(&reuse), &mut rng);
        assert!(outcome.passed);
        // 3 samples were reused: phase 1 costs 29×3, phase 2 30×97.
        assert_eq!(outcome.simulations_used, 29 * 3 + 30 * 97);
        assert_eq!(p.simulations() - sims_before_verify, outcome.simulations_used);
    }

    #[test]
    fn reordering_finds_failures_faster_on_average() {
        // A design just at the feasibility edge: some mismatch samples fail.
        let toy = ToyQuadratic::standard().with_mismatch_sensitivity(3.0);
        let mut x = toy.optimum().to_vec();
        x[0] += 0.13; // near-boundary design
        let p = SizingProblem::new(Arc::new(toy), VerificationMethod::CornerLocalMc);
        let natural = natural_order(&p);

        let mut sims_with = 0u64;
        let mut sims_without = 0u64;
        let mut fails = 0;
        for seed in 0..12 {
            let mut rng = seeded(100 + seed);
            let with = Verifier::new(&p, 4.0).verify(&x, &natural, None, &mut rng);
            let mut rng = seeded(100 + seed);
            let without =
                Verifier::new(&p, 4.0).without_reordering().verify(&x, &natural, None, &mut rng);
            // Only compare runs where both fail in phase 2 (same data).
            if !with.passed && !without.passed {
                fails += 1;
                sims_with += with.simulations_used;
                sims_without += without.simulations_used;
            }
        }
        assert!(fails >= 3, "edge design should fail verification often");
        assert!(
            sims_with <= sims_without,
            "reordering should not cost more sims: {sims_with} vs {sims_without}"
        );
    }

    #[test]
    fn per_corner_worst_is_populated() {
        let p = problem(VerificationMethod::Corner);
        let x = ToyQuadratic::standard().optimum().to_vec();
        let verifier = Verifier::new(&p, 4.0);
        let mut rng = seeded(5);
        let outcome = verifier.verify(&x, &natural_order(&p), None, &mut rng);
        assert_eq!(outcome.per_corner_worst.len(), 30);
    }

    #[test]
    fn without_mu_sigma_only_rejects_outright_violations() {
        // Construct samples that pass individually but have high variance:
        // with µ-σ they fail, without they pass phase 1.
        let p = problem(VerificationMethod::CornerLocalMc);
        let toy = ToyQuadratic::standard();
        let mut x = toy.optimum().to_vec();
        // Marginal by construction: samples sit just below the limit
        // (≈ 0.046 vs 0.05) so they pass individually, while the µ-σ bound
        // (mean + β₂σ) crosses the limit.
        x[1] += 0.167;
        let natural = natural_order(&p);
        let mut strict_rejects = 0;
        let mut lax_rejects = 0;
        let mut strict_sims = 0u64;
        let mut lax_sims = 0u64;
        for seed in 0..8 {
            let mut rng = seeded(200 + seed);
            let strict = Verifier::new(&p, 6.0).verify(&x, &natural, None, &mut rng);
            let mut rng = seeded(200 + seed);
            let lax =
                Verifier::new(&p, 6.0).without_mu_sigma().verify(&x, &natural, None, &mut rng);
            strict_rejects += usize::from(!strict.passed);
            lax_rejects += usize::from(!lax.passed);
            strict_sims += strict.simulations_used;
            lax_sims += lax.simulations_used;
        }
        // The µ-σ verifier must reject marginal designs at least as often,
        // spending no more simulations overall.
        assert!(strict_rejects >= lax_rejects, "{strict_rejects} vs {lax_rejects}");
        assert!(strict_rejects > 0, "marginal design should be rejected sometimes");
        assert!(strict_sims <= lax_sims, "µ-σ should not cost sims: {strict_sims} vs {lax_sims}");
    }
}
