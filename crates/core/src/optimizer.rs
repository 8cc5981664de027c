//! The GLOVA optimization loop — Fig. 2 of the paper.
//!
//! 1. **Initial sampling** with TuRBO under the typical condition.
//! 2. The initial designs are simulated across sampled mismatch
//!    conditions on every corner; the worst rewards seed the worst-case
//!    replay buffer and the last-worst-case (per-corner) buffer.
//! 3. Each RL iteration: the actor proposes a design; the *worst corner*
//!    (from the last-worst buffer) is simulated under `N'` sampled
//!    mismatch conditions; the µ-σ gate decides whether to attempt full
//!    verification (Algorithm 2); the worst reward is stored and the agent
//!    trained (Algorithm 1).
//!
//! Every simulation batch in the loop — the TuRBO space-filling prefix,
//! the initial corner × condition grids, the per-iteration `N'`-condition
//! sweeps and the Algorithm-2 verification — dispatches through the
//! [`engine`](crate::engine) layer selected by [`GlovaConfig::engine`]:
//! [`Sequential`](crate::engine::Sequential) reproduces the reference
//! semantics, [`Threaded`](crate::engine::Threaded) fans the same batches
//! out over worker threads with bitwise-identical results (mismatch
//! conditions are pre-sampled in deterministic order, reductions are
//! order-independent).

use crate::cache::EvalCacheConfig;
use crate::engine::{map_indexed, EngineSpec};
use crate::problem::SizingProblem;
use crate::report::{IterationTrace, RunResult};
use crate::verification::{ReusableSamples, Verifier};
use glova_circuits::Circuit;
use glova_rl::{AgentConfig, LastWorstBuffer, RiskSensitiveAgent};
use glova_stats::reduce::{self, finite_worst};
use glova_stats::rng::forked;
use glova_turbo::{Turbo, TurboConfig};
use glova_variation::config::VerificationMethod;
use std::sync::Arc;
use std::time::Instant;

/// GLOVA configuration (paper §VI.B defaults unless noted).
#[derive(Debug, Clone, PartialEq)]
pub struct GlovaConfig {
    /// Target verification method (Table I).
    pub method: VerificationMethod,
    /// Risk-avoidance parameter β₁ of the ensemble critic (paper: −3).
    pub beta1: f64,
    /// Reliability factor β₂ of the µ-σ evaluation (paper: 4).
    pub beta2: f64,
    /// Critic ensemble size.
    pub ensemble_size: usize,
    /// RL training batch size (paper: 10).
    pub batch_size: usize,
    /// Hidden layer widths of the actor/critic networks.
    pub hidden: Vec<usize>,
    /// Gradient updates per RL iteration.
    pub updates_per_step: usize,
    /// TuRBO evaluation budget for initial sampling.
    pub turbo_budget: usize,
    /// Number of initial designs carried into the RL phase.
    pub n_initial_designs: usize,
    /// Maximum RL iterations before declaring failure.
    pub max_iterations: usize,
    /// Ablation: enable the ensemble critic (Table III "w/o EC" when
    /// `false` — single base model, risk-neutral).
    pub use_ensemble_critic: bool,
    /// Ablation: enable the µ-σ evaluation gate (Table III "w/o µ-σ").
    pub use_mu_sigma: bool,
    /// Ablation: enable simulation reordering (Table III "w/o SR").
    pub use_reordering: bool,
    /// Record the per-iteration reliability-bound trace (Fig. 3).
    pub trace: bool,
    /// Feed the actor the best-known design instead of the raw previous
    /// proposal. Algorithm 1 writes `x_new = A(x_last) + noise`; anchoring
    /// `x_last` to the incumbent keeps the proposal chain from drifting
    /// (see `docs/DESIGN.md` §5).
    pub anchor_to_best: bool,
    /// Clamp each proposal into a box of this half-width around the
    /// incumbent (`None` disables). DDPG-style actors on bandit-shaped
    /// problems can chase critic-extrapolation artifacts early in
    /// training; the clamp is a trust region on the policy output
    /// (see `docs/DESIGN.md` §5).
    pub proposal_clip: Option<f64>,
    /// Evaluation engine for simulation batches (sequential by default;
    /// results are engine-independent).
    pub engine: EngineSpec,
    /// Evaluation-cache configuration (`None` disables memoization;
    /// results are cache-independent, only wall time changes).
    pub cache: Option<EvalCacheConfig>,
}

impl GlovaConfig {
    /// Paper-default configuration for a verification method.
    pub fn paper(method: VerificationMethod) -> Self {
        Self {
            method,
            beta1: -3.0,
            beta2: 4.0,
            ensemble_size: 5,
            batch_size: 10,
            hidden: vec![64, 64, 64],
            updates_per_step: 8,
            turbo_budget: 150,
            n_initial_designs: 3,
            max_iterations: 500,
            use_ensemble_critic: true,
            use_mu_sigma: true,
            use_reordering: true,
            trace: false,
            anchor_to_best: true,
            proposal_clip: Some(0.2),
            engine: EngineSpec::Sequential,
            cache: None,
        }
    }

    /// A reduced configuration for fast unit tests.
    pub fn quick(method: VerificationMethod) -> Self {
        Self {
            hidden: vec![32, 32],
            updates_per_step: 4,
            turbo_budget: 100,
            max_iterations: 100,
            ..Self::paper(method)
        }
    }

    /// Disables the ensemble critic (builder style).
    pub fn without_ensemble_critic(mut self) -> Self {
        self.use_ensemble_critic = false;
        self
    }

    /// Disables the µ-σ gate (builder style).
    pub fn without_mu_sigma(mut self) -> Self {
        self.use_mu_sigma = false;
        self
    }

    /// Disables simulation reordering (builder style).
    pub fn without_reordering(mut self) -> Self {
        self.use_reordering = false;
        self
    }

    /// Enables Fig.-3 tracing (builder style).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Selects the evaluation engine (builder style).
    pub fn with_engine(mut self, engine: EngineSpec) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches an evaluation cache (builder style).
    pub fn with_cache(mut self, cache: EvalCacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }
}

/// The GLOVA sizing optimizer.
#[derive(Debug)]
pub struct GlovaOptimizer {
    problem: SizingProblem,
    config: GlovaConfig,
}

impl GlovaOptimizer {
    /// Creates an optimizer for `circuit` under `config`.
    pub fn new(circuit: Arc<dyn Circuit>, config: GlovaConfig) -> Self {
        let mut problem = SizingProblem::with_engine(circuit, config.method, config.engine.build());
        if let Some(cache) = config.cache {
            problem = problem.with_cache(cache);
        }
        Self { problem, config }
    }

    /// The underlying problem (simulation counters, …).
    pub fn problem(&self) -> &SizingProblem {
        &self.problem
    }

    /// Runs one complete sizing campaign with the given seed.
    pub fn run(&mut self, seed: u64) -> RunResult {
        let start = Instant::now();
        self.problem.reset_simulations();
        let mut turbo_rng = forked(seed, 1);
        let mut agent_rng = forked(seed, 2);
        let mut sample_rng = forked(seed, 3);

        let dim = self.problem.dim();
        let spec_reward = glova_circuits::spec::SATISFIED_REWARD;
        let corners = self.problem.config().corners.clone();
        let n_prime = self.problem.config().optim_samples;

        // ---- Phase 0: TuRBO initial sampling at the typical condition ----
        let mut turbo = Turbo::new(TurboConfig::new(dim), &mut turbo_rng);
        let mut evaluated: Vec<(Vec<f64>, f64)> = Vec::new();
        let mut feasible: Vec<Vec<f64>> = Vec::new();
        // The space-filling prefix consumes no RNG per ask and depends on
        // no tells, so it fans out through the engine as one batch. Block
        // boundaries are engine-independent: every engine evaluates the
        // same prefix, then the same sequential ask/tell suffix.
        let init_batch: Vec<Vec<f64>> = (0..turbo.init_remaining().min(self.config.turbo_budget))
            .map(|_| turbo.ask(&mut turbo_rng))
            .collect();
        let init_outcomes = map_indexed(self.problem.engine().as_ref(), init_batch.len(), |i| {
            self.problem.simulate_typical(&init_batch[i])
        });
        for (x, outcome) in init_batch.into_iter().zip(init_outcomes) {
            // Diverged (NaN) typical-condition rewards read as decisively
            // infeasible: `Turbo::tell` and the sort below require finite.
            let reward = finite_worst(outcome.reward);
            turbo.tell(x.clone(), reward);
            evaluated.push((x.clone(), reward));
            if reward == spec_reward {
                feasible.push(x);
            }
        }
        // Surrogate-guided suffix: each ask depends on all prior tells, so
        // this stays sequential by construction.
        while evaluated.len() < self.config.turbo_budget
            && feasible.len() < self.config.n_initial_designs
        {
            let x = turbo.ask(&mut turbo_rng);
            let reward = finite_worst(self.problem.simulate_typical(&x).reward);
            turbo.tell(x.clone(), reward);
            evaluated.push((x.clone(), reward));
            if reward == spec_reward {
                feasible.push(x);
            }
        }
        // Initial design set: feasible solutions first (capped — the
        // batched prefix can surface more than the sequential early break
        // ever did), then the best of the rest.
        feasible.truncate(self.config.n_initial_designs);
        evaluated.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite rewards"));
        let mut initial: Vec<Vec<f64>> = feasible;
        for (x, _) in &evaluated {
            if initial.len() >= self.config.n_initial_designs {
                break;
            }
            if !initial.iter().any(|e| e == x) {
                initial.push(x.clone());
            }
        }

        // ---- Build the initial dataset across all corners ----------------
        let agent_config = AgentConfig {
            ensemble_size: if self.config.use_ensemble_critic {
                self.config.ensemble_size
            } else {
                1
            },
            beta1: self.config.beta1,
            batch_size: self.config.batch_size,
            hidden: self.config.hidden.clone(),
            updates_per_step: self.config.updates_per_step,
            ..AgentConfig::new(dim)
        };
        let mut agent = RiskSensitiveAgent::new(agent_config, &mut agent_rng);
        let mut last_worst = LastWorstBuffer::new(corners.len());

        // The incumbent carries *worst-case* reward semantics only.
        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        for x in &initial {
            // The whole corner × condition grid fans out through the
            // engine in one dispatch (conditions pre-sampled corner-major
            // inside `simulate_corner_grid` — the engine-parity invariant).
            let per_corner = self.problem.simulate_corner_grid(x, n_prime, &mut sample_rng);
            let mut overall_worst = f64::INFINITY;
            for (ci, corner_outcomes) in per_corner.iter().enumerate() {
                let worst = finite_worst(reduce::worst(corner_outcomes.iter().map(|o| o.reward)));
                last_worst.record(ci, worst);
                overall_worst = overall_worst.min(worst);
            }
            agent.observe(x.clone(), overall_worst);
            if incumbent.as_ref().is_none_or(|(_, r)| overall_worst > *r) {
                incumbent = Some((x.clone(), overall_worst));
            }
        }
        let mut x_last =
            incumbent.as_ref().map(|(x, _)| x.clone()).unwrap_or_else(|| vec![0.5; dim]);
        // Behaviour-clone the fresh actor toward the incumbent so early
        // proposals explore around it instead of an arbitrary fixed point.
        agent.pretrain_actor_towards(&x_last.clone(), 200, &mut agent_rng);

        // ---- Main loop (Fig. 2 steps 1–6) ---------------------------------
        let mut trace = Vec::new();
        let mut verification_attempts = 0usize;
        let mut stagnation = 0usize;
        for iteration in 1..=self.config.max_iterations {
            // Step 1: generate a design solution.
            if self.config.anchor_to_best {
                if let Some((best, _)) = &incumbent {
                    x_last = best.clone();
                }
            }
            let mut x_new = agent.propose(&x_last, &mut agent_rng);
            if let Some(clip) = self.config.proposal_clip {
                for (v, anchor) in x_new.iter_mut().zip(&x_last) {
                    *v = v.clamp((anchor - clip).max(0.0), (anchor + clip).min(1.0));
                }
            }

            // Step 2: pick the worst corner; sample N' mismatch conditions.
            let worst_ci = last_worst.worst_corner();
            let corner = corners.corner(worst_ci);
            let conditions = self.problem.sample_conditions(&x_new, n_prime, &mut sample_rng);

            // Step 3: simulate.
            let (outcomes, sampled_worst) =
                self.problem.simulate_conditions(&x_new, &corner, &conditions);
            let mut worst_reward = finite_worst(sampled_worst);
            last_worst.record(worst_ci, worst_reward);

            if self.config.trace {
                let (mean, std) = agent.critic().predict_detail(&x_new);
                trace.push(IterationTrace {
                    iteration,
                    critic_mean: mean,
                    critic_bound: mean + self.config.beta1 * std,
                    sampled_worst: worst_reward,
                    corner_index: worst_ci,
                });
            }

            // Step 4: µ-σ gate (or plain sample-feasibility without it).
            // With the gate enabled, the *stored* reward is also tightened
            // to the reward of the conservative µ-σ bounds: a design whose
            // samples pass but whose mean+β₂σ bound violates a constraint
            // is not yet robust and must not look like one to the critic —
            // this grades the otherwise flat 0.2 plateau by robustness
            // margin (Eq. 7 folded into Eq. 4, see `docs/DESIGN.md` §5).
            let gate = if self.config.use_mu_sigma {
                let eval = crate::evaluation::MuSigmaEvaluation::evaluate(
                    self.problem.circuit().spec(),
                    &outcomes,
                    self.config.beta2,
                );
                let bound_reward = self.problem.circuit().spec().reward(&eval.bounds);
                worst_reward = worst_reward.min(finite_worst(bound_reward));
                eval.passed
            } else {
                outcomes.iter().all(|o| o.reward == spec_reward)
            };

            // Step 5: full verification.
            if gate {
                verification_attempts += 1;
                let mut verifier = Verifier::new(&self.problem, self.config.beta2);
                if !self.config.use_mu_sigma {
                    verifier = verifier.without_mu_sigma();
                }
                if !self.config.use_reordering {
                    verifier = verifier.without_reordering();
                }
                let reuse = ReusableSamples {
                    corner_index: worst_ci,
                    conditions: conditions.clone(),
                    outcomes: outcomes.clone(),
                };
                let hint = last_worst.corners_worst_first();
                let outcome = verifier.verify(&x_new, &hint, Some(&reuse), &mut sample_rng);
                for &(ci, worst) in &outcome.per_corner_worst {
                    let worst = finite_worst(worst);
                    last_worst.record(ci, worst);
                    if ci == worst_ci {
                        worst_reward = worst_reward.min(worst);
                    }
                }
                if outcome.passed {
                    return RunResult {
                        success: true,
                        rl_iterations: iteration,
                        simulations: self.problem.simulations(),
                        verification_attempts,
                        wall_time: start.elapsed(),
                        final_design: Some(x_new),
                        trace,
                    };
                }
                // Verification failed: fold the newly discovered worst
                // reward into this iteration's stored observation.
                let verified_worst =
                    finite_worst(reduce::worst(outcome.per_corner_worst.iter().map(|&(_, w)| w)));
                worst_reward = worst_reward.min(verified_worst);
            }

            // Step 6: store the worst reward; update the agent.
            agent.observe(x_new.clone(), worst_reward);
            if incumbent.as_ref().is_none_or(|(_, r)| worst_reward > *r) {
                incumbent = Some((x_new.clone(), worst_reward));
                stagnation = 0;
            } else {
                stagnation += 1;
                // Exploration restart: a long streak without incumbent
                // improvement means the local neighbourhood is exhausted.
                if stagnation >= 60 {
                    agent.reset_noise(0.12);
                    stagnation = 0;
                }
            }
            agent.set_proximal_target(incumbent.as_ref().map(|(x, _)| x.clone()));
            agent.train_step(&mut agent_rng);
            x_last = x_new;
        }

        let mut result = RunResult::failed(
            self.config.max_iterations,
            self.problem.simulations(),
            start.elapsed(),
        );
        result.verification_attempts = verification_attempts;
        result.trace = trace;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_circuits::ToyQuadratic;
    use glova_variation::config::VerificationMethod;

    fn toy() -> Arc<dyn Circuit> {
        // Sensitivity chosen so the µ-σ bound is satisfiable near the
        // optimum under local MC (the standard instance's limit is 0.05 and
        // the worst-corner penalty ≈ 0.026).
        Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05))
    }

    #[test]
    fn solves_toy_under_corner_verification() {
        let mut opt = GlovaOptimizer::new(toy(), GlovaConfig::quick(VerificationMethod::Corner));
        let result = opt.run(7);
        assert!(result.success, "failed: {result}");
        assert!(result.rl_iterations <= 60);
        assert!(result.simulations > 0);
        let x = result.final_design.expect("successful runs carry a design");
        assert_eq!(x.len(), 4);
    }

    #[test]
    fn solves_toy_under_local_mc() {
        let mut config = GlovaConfig::quick(VerificationMethod::CornerLocalMc);
        // MC feasibility needs deeper robustness margins than corner-only;
        // give the agent more room.
        config.max_iterations = 250;
        let mut opt = GlovaOptimizer::new(toy(), config);
        let result = opt.run(11);
        assert!(result.success, "failed: {result}");
        // A successful MC run must include the full verification cost.
        assert!(result.simulations >= 3000);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut opt1 = GlovaOptimizer::new(toy(), GlovaConfig::quick(VerificationMethod::Corner));
        let mut opt2 = GlovaOptimizer::new(toy(), GlovaConfig::quick(VerificationMethod::Corner));
        let r1 = opt1.run(3);
        let r2 = opt2.run(3);
        assert_eq!(r1.rl_iterations, r2.rl_iterations);
        assert_eq!(r1.simulations, r2.simulations);
        assert_eq!(r1.final_design, r2.final_design);
    }

    #[test]
    fn trace_records_bounds() {
        let config = GlovaConfig::quick(VerificationMethod::Corner).with_trace();
        let mut opt = GlovaOptimizer::new(toy(), config);
        let result = opt.run(5);
        assert!(!result.trace.is_empty());
        for t in &result.trace {
            // With β₁ < 0 the bound never exceeds the mean.
            assert!(t.critic_bound <= t.critic_mean + 1e-12);
        }
    }

    #[test]
    fn infeasible_problem_reports_failure() {
        // An optimum outside the unit cube cannot be reached: limit tiny.
        let circuit = Arc::new(ToyQuadratic::new(vec![2.0, 2.0], 1e-6));
        let mut config = GlovaConfig::quick(VerificationMethod::Corner);
        config.max_iterations = 10;
        config.turbo_budget = 10;
        let mut opt = GlovaOptimizer::new(circuit, config);
        let result = opt.run(1);
        assert!(!result.success);
        assert_eq!(result.rl_iterations, 10);
    }

    #[test]
    fn ablations_run_and_succeed_on_toy() {
        for config in [
            GlovaConfig::quick(VerificationMethod::Corner).without_ensemble_critic(),
            GlovaConfig::quick(VerificationMethod::Corner).without_mu_sigma(),
            GlovaConfig::quick(VerificationMethod::Corner).without_reordering(),
        ] {
            let mut opt = GlovaOptimizer::new(toy(), config.clone());
            let result = opt.run(13);
            assert!(result.success, "ablation failed: {config:?}");
        }
    }
}
