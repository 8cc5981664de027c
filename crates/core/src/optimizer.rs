//! The paper-run loop — Fig. 2 of the paper — and the two Table II
//! baselines as configurations of it.
//!
//! [`GlovaOptimizer::run`] is one loop for every [`Framework`]:
//!
//! 1. **Seeding** at the typical condition: TuRBO (GLOVA, PVTSizing) or
//!    uniform random designs (RobustAnalog).
//! 2. The initial designs are simulated across sampled mismatch
//!    conditions on every corner; the worst rewards seed the worst-case
//!    replay buffer and the last-worst-case (per-corner) buffer.
//! 3. Each RL iteration: the actor proposes a design anchored at the
//!    incumbent; the framework's corners for this iteration are simulated
//!    under `N'` sampled mismatch conditions each; a gate (µ-σ, or every
//!    sample passing) decides whether to attempt full verification
//!    (Algorithm 2); the worst reward is stored and the agent trained
//!    (Algorithm 1).
//!
//! The frameworks differ only in the pieces [`Framework`] documents per
//! variant — RNG streams, seeding, corners per iteration, the Table III
//! switches, and how verification feeds back — so Table II differences
//! come from the algorithms rather than from implementation quality.
//!
//! Every simulation batch in the loop — the TuRBO space-filling prefix,
//! the initial corner × condition grids, the per-iteration corner ×
//! `N'`-condition sweeps and the Algorithm-2 verification — dispatches
//! through the [`engine`](crate::engine) layer selected by
//! [`GlovaConfig::engine`]: [`Sequential`](crate::engine::Sequential)
//! reproduces the reference semantics,
//! [`Threaded`](crate::engine::Threaded) fans the same batches out over
//! worker threads with bitwise-identical results (mismatch conditions are
//! pre-sampled in deterministic order, reductions are order-independent).

use crate::cache::EvalCacheConfig;
use crate::engine::{map_indexed, EngineSpec};
use crate::evaluation::MuSigmaEvaluation;
use crate::problem::{SimOutcome, SizingProblem};
use crate::report::{IterationTrace, RunResult};
use crate::robustanalog::{dominant_corners, RECLUSTER_EVERY};
use crate::verification::{ReusableSamples, Verifier};
use glova_circuits::spec::SATISFIED_REWARD;
use glova_circuits::Circuit;
use glova_rl::{AgentConfig, LastWorstBuffer, RiskSensitiveAgent};
use glova_stats::reduce::{self, finite_worst};
use glova_stats::rng::{forked, Rng, Rng64};
use glova_turbo::{Turbo, TurboConfig};
use glova_variation::config::VerificationMethod;
use glova_variation::sampler::MismatchVector;
use std::sync::Arc;
use std::time::Instant;

/// Half-width of the trust box each proposal is clamped into around the
/// incumbent (clipped to `[0, 1]`). DDPG-style actors on bandit-shaped
/// problems chase critic-extrapolation artifacts early in training; the
/// clamp is a trust region on the policy output (see `docs/DESIGN.md`
/// §5). Campaigns clamp with the same box.
pub(crate) const PROPOSAL_CLIP: f64 = 0.2;

/// The sizing framework a [`GlovaOptimizer`] runs — the rows of the
/// paper's Table II.
///
/// All three share the loop, the agent, the verifier and every
/// hyperparameter of [`GlovaConfig`]. The baselines are closed source and
/// reimplemented from their published descriptions (`docs/DESIGN.md`
/// §2); what sets each apart is documented on its variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framework {
    /// GLOVA, the proposed framework. TuRBO seeding (the space-filling
    /// prefix as one engine batch, then ask/tell); each iteration
    /// simulates only the last-worst buffer's worst corner; verification
    /// reuses that corner's `N'` samples, and a failed verification
    /// tightens the stored reward. The switches are the Table III
    /// ablations.
    Glova {
        /// The ensemble critic; off is "w/o EC" (a single base model,
        /// risk-neutral).
        ensemble_critic: bool,
        /// The µ-σ gate and the µ-σ-tightened stored reward; off is
        /// "w/o µ-σ" (the gate becomes "every sample passes").
        mu_sigma: bool,
        /// Simulation reordering in verification; off is "w/o SR".
        reordering: bool,
    },
    /// PVTSizing — *"PVTSizing: a TuRBO-RL-based batch-sampling
    /// optimization framework for PVT-robust analog circuit synthesis"*
    /// (DAC 2024, the paper's ref \[9\]). TuRBO seeding asked one design
    /// at a time from the first point, stopping as soon as
    /// `n_initial_designs` are feasible; every iteration simulates
    /// **all** corners (batch sampling); a risk-neutral critic;
    /// verification whenever every sampled condition passes, with neither
    /// the µ-σ gate nor reordering. A failed verification does not feed
    /// the stored reward — PVTSizing trains only on its batch-sampled
    /// rewards, the inefficiency the paper's µ-σ machinery addresses.
    PvtSizing,
    /// RobustAnalog — *"RobustAnalog: fast variation-aware analog
    /// circuit design via multi-task RL"* (MLCAD 2022, ref \[8\]).
    /// **Uniform random** seeding (the weakness TuRBO seeding fixes);
    /// corners are tasks, clustered with k-means into 4 clusters on
    /// their last worst rewards and conditions (re-clustered every 25
    /// iterations), and each iteration simulates the worst corner of
    /// every cluster; a risk-neutral critic; verification as for
    /// PVTSizing, whose per-corner worsts refresh the clustering input.
    RobustAnalog,
}

impl Framework {
    /// GLOVA with every Table III switch on — the paper configuration.
    pub const GLOVA: Framework =
        Framework::Glova { ensemble_critic: true, mu_sigma: true, reordering: true };

    /// The frameworks of Table II, in table order.
    pub const ALL: [Framework; 3] =
        [Framework::GLOVA, Framework::PvtSizing, Framework::RobustAnalog];

    /// The Table II row label.
    pub fn name(self) -> &'static str {
        match self {
            Framework::Glova { .. } => "Ours",
            Framework::PvtSizing => "PVTSizing",
            Framework::RobustAnalog => "RobustAnalog",
        }
    }

    /// RNG stream ids forked from the run seed: seeding, agent, sample.
    fn streams(self) -> [u64; 3] {
        match self {
            Framework::Glova { .. } => [1, 2, 3],
            Framework::PvtSizing => [11, 12, 13],
            Framework::RobustAnalog => [21, 22, 23],
        }
    }

    /// The Table III switches: ensemble critic, µ-σ, reordering (all off
    /// for the baselines).
    fn switches(self) -> [bool; 3] {
        match self {
            Framework::Glova { ensemble_critic, mu_sigma, reordering } => {
                [ensemble_critic, mu_sigma, reordering]
            }
            Framework::PvtSizing | Framework::RobustAnalog => [false; 3],
        }
    }
}

/// Paper-run configuration (paper §VI.B defaults unless noted).
#[derive(Debug, Clone, PartialEq)]
pub struct GlovaConfig {
    /// Target verification method (Table I).
    pub method: VerificationMethod,
    /// The framework to run: GLOVA (with its Table III switches) or one
    /// of the Table II baselines.
    pub framework: Framework,
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
    /// Seeding budget: typical-condition simulations before the RL phase
    /// (TuRBO evaluations, or RobustAnalog's random designs).
    pub turbo_budget: usize,
    /// Number of initial designs carried into the RL phase.
    pub n_initial_designs: usize,
    /// Maximum RL iterations before declaring failure.
    pub max_iterations: usize,
    /// Record the per-iteration reliability-bound trace (Fig. 3).
    pub trace: bool,
    /// Evaluation engine for simulation batches (sequential by default;
    /// results are engine-independent).
    pub engine: EngineSpec,
    /// Evaluation-cache configuration (`None` disables memoization;
    /// results are cache-independent, only wall time changes).
    pub cache: Option<EvalCacheConfig>,
}

impl GlovaConfig {
    /// Paper-default GLOVA configuration for a verification method.
    pub fn paper(method: VerificationMethod) -> Self {
        Self {
            method,
            framework: Framework::GLOVA,
            beta1: -3.0,
            beta2: 4.0,
            ensemble_size: 5,
            batch_size: 10,
            hidden: vec![64, 64, 64],
            updates_per_step: 8,
            turbo_budget: 150,
            n_initial_designs: 3,
            max_iterations: 500,
            trace: false,
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

/// The paper-run optimizer: GLOVA or a Table II baseline, per
/// [`GlovaConfig::framework`].
#[derive(Debug)]
pub struct GlovaOptimizer {
    problem: SizingProblem,
    config: GlovaConfig,
}

impl GlovaOptimizer {
    /// Creates an optimizer for `circuit` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.turbo_budget == 0` or
    /// `config.n_initial_designs == 0`.
    pub fn new(circuit: Arc<dyn Circuit>, config: GlovaConfig) -> Self {
        assert!(config.turbo_budget > 0, "need a seeding budget of at least one simulation");
        assert!(config.n_initial_designs > 0, "need at least one initial design");
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
        let framework = self.config.framework;
        let [seed_stream, agent_stream, sample_stream] = framework.streams();
        let [ensemble_critic, mu_sigma, reordering] = framework.switches();
        let mut agent_rng = forked(seed, agent_stream);
        let mut sample_rng = forked(seed, sample_stream);

        let corners = &self.problem.config().corners;
        let all_corners: Vec<usize> = (0..corners.len()).collect();
        let spec = self.problem.circuit().spec();

        // ---- Phase 0: seeding at the typical condition ------------------
        let initial = self.seed_designs(&mut forked(seed, seed_stream));

        // ---- Build the initial dataset across all corners ----------------
        let agent_config = AgentConfig {
            ensemble_size: if ensemble_critic { self.config.ensemble_size } else { 1 },
            beta1: self.config.beta1,
            batch_size: self.config.batch_size,
            hidden: self.config.hidden.clone(),
            updates_per_step: self.config.updates_per_step,
            ..AgentConfig::new(self.problem.dim())
        };
        let mut agent = RiskSensitiveAgent::new(agent_config, &mut agent_rng);
        let mut last_worst = LastWorstBuffer::new(corners.len());

        // The incumbent carries *worst-case* reward semantics only.
        let mut incumbent = (initial[0].clone(), f64::NEG_INFINITY);
        for x in initial {
            let (_, outcomes) = self.simulate_corners(&x, &all_corners, &mut sample_rng);
            let (worst, _) = record_worst(&mut last_worst, &all_corners, &outcomes);
            agent.observe(x.clone(), worst);
            if worst > incumbent.1 {
                incumbent = (x, worst);
            }
        }
        // Behaviour-clone the fresh actor toward the incumbent so early
        // proposals explore around it instead of an arbitrary fixed point.
        agent.pretrain_actor_towards(&incumbent.0, 200, &mut agent_rng);
        agent.set_proximal_target(Some(incumbent.0.clone()));

        // ---- Main loop (Fig. 2 steps 1–6) ---------------------------------
        let mut trace = Vec::new();
        let mut verification_attempts = 0usize;
        let mut stagnation = 0usize;
        let mut clusters: Vec<usize> = Vec::new();
        for iteration in 1..=self.config.max_iterations {
            // Step 1: generate a design solution. Algorithm 1 writes
            // `x_new = A(x_last) + noise`; anchoring `x_last` to the
            // incumbent keeps the proposal chain from drifting (see
            // `docs/DESIGN.md` §5), and the clip bounds the step.
            let anchor = &incumbent.0;
            let mut x_new = agent.propose(anchor, &mut agent_rng);
            for (v, a) in x_new.iter_mut().zip(anchor) {
                *v = v.clamp((a - PROPOSAL_CLIP).max(0.0), (a + PROPOSAL_CLIP).min(1.0));
            }

            // Step 2: pick this iteration's corners and sample N' mismatch
            // conditions for each.
            let selected = match framework {
                Framework::Glova { .. } => vec![last_worst.worst_corner()],
                Framework::PvtSizing => all_corners.clone(),
                Framework::RobustAnalog => {
                    if (iteration - 1) % RECLUSTER_EVERY == 0 {
                        clusters = dominant_corners(corners, &last_worst, &mut sample_rng);
                    }
                    clusters.clone()
                }
            };

            // Step 3: simulate.
            let (mut conditions, mut outcomes) =
                self.simulate_corners(&x_new, &selected, &mut sample_rng);
            let (mut worst_reward, worst_corner) =
                record_worst(&mut last_worst, &selected, &outcomes);

            if self.config.trace {
                let (mean, std) = agent.critic().predict_detail(&x_new);
                trace.push(IterationTrace {
                    iteration,
                    critic_mean: mean,
                    critic_bound: mean + self.config.beta1 * std,
                    sampled_worst: worst_reward,
                    corner_index: worst_corner,
                });
            }

            // Step 4: µ-σ gate (or plain sample-feasibility without it).
            // With the gate enabled, the *stored* reward is also tightened
            // to the reward of the conservative µ-σ bounds: a design whose
            // samples pass but whose mean+β₂σ bound violates a constraint
            // is not yet robust and must not look like one to the critic —
            // this grades the otherwise flat 0.2 plateau by robustness
            // margin (Eq. 7 folded into Eq. 4, see `docs/DESIGN.md` §5).
            let gate = if mu_sigma {
                let eval = MuSigmaEvaluation::evaluate(spec, &outcomes.concat(), self.config.beta2);
                worst_reward = worst_reward.min(finite_worst(spec.reward(&eval.bounds)));
                eval.passed
            } else {
                worst_reward == SATISFIED_REWARD
            };

            // Step 5: full verification. GLOVA hands the verifier the
            // samples it just simulated on its one corner.
            if gate {
                verification_attempts += 1;
                let mut verifier = Verifier::new(&self.problem, self.config.beta2);
                if !mu_sigma {
                    verifier = verifier.without_mu_sigma();
                }
                if !reordering {
                    verifier = verifier.without_reordering();
                }
                let reuse = match framework {
                    Framework::Glova { .. } => Some(ReusableSamples {
                        corner_index: selected[0],
                        conditions: conditions.swap_remove(0),
                        outcomes: outcomes.swap_remove(0),
                    }),
                    Framework::PvtSizing | Framework::RobustAnalog => None,
                };
                let hint = last_worst.corners_worst_first();
                let outcome = verifier.verify(&x_new, &hint, reuse.as_ref(), &mut sample_rng);
                for &(ci, worst) in &outcome.per_corner_worst {
                    last_worst.record(ci, finite_worst(worst));
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
                // GLOVA folds the failed verification into this
                // iteration's stored observation: first the iteration
                // corner's own entries, then the overall verified worst.
                // The first fold is not redundant — the overall worst of a
                // batch holding a diverged (NaN) corner sanitizes to
                // DIVERGED_REWARD and would hide a corner reward below it.
                if let Framework::Glova { .. } = framework {
                    for &(ci, worst) in &outcome.per_corner_worst {
                        if ci == selected[0] {
                            worst_reward = worst_reward.min(finite_worst(worst));
                        }
                    }
                    let verified_worst =
                        reduce::worst(outcome.per_corner_worst.iter().map(|w| w.1));
                    worst_reward = worst_reward.min(finite_worst(verified_worst));
                }
            }

            // Step 6: store the worst reward; update the agent.
            agent.observe(x_new.clone(), worst_reward);
            if worst_reward > incumbent.1 {
                incumbent = (x_new, worst_reward);
                agent.set_proximal_target(Some(incumbent.0.clone()));
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
            agent.train_step(&mut agent_rng);
        }

        RunResult {
            success: false,
            rl_iterations: self.config.max_iterations,
            simulations: self.problem.simulations(),
            verification_attempts,
            wall_time: start.elapsed(),
            final_design: None,
            trace,
        }
    }

    /// Phase 0: simulates seed designs at the typical condition until
    /// `n_initial_designs` are feasible or the budget is spent, and
    /// returns the initial design set — feasible designs first (capped:
    /// GLOVA's batched prefix can surface more), then the best of the
    /// rest.
    fn seed_designs(&self, rng: &mut Rng64) -> Vec<Vec<f64>> {
        let dim = self.problem.dim();
        let budget = self.config.turbo_budget;
        let n_initial = self.config.n_initial_designs;
        let mut turbo = match self.config.framework {
            Framework::Glova { .. } | Framework::PvtSizing => {
                Some(Turbo::new(TurboConfig::new(dim), rng))
            }
            Framework::RobustAnalog => None,
        };
        let batched_prefix = matches!(self.config.framework, Framework::Glova { .. });
        let mut evaluated: Vec<(Vec<f64>, f64)> = Vec::new();
        let mut feasible: Vec<Vec<f64>> = Vec::new();
        while evaluated.len() < budget && feasible.len() < n_initial {
            let batch: Vec<Vec<f64>> = match &mut turbo {
                // The space-filling prefix consumes no RNG per ask and
                // depends on no tells, so GLOVA fans it out through the
                // engine as one batch. Block boundaries are
                // engine-independent: every engine evaluates the same
                // prefix, then the same sequential ask/tell suffix, where
                // each ask depends on all prior tells.
                Some(turbo) if batched_prefix && turbo.init_remaining() > 0 => {
                    let n = turbo.init_remaining().min(budget - evaluated.len());
                    (0..n).map(|_| turbo.ask(rng)).collect()
                }
                Some(turbo) => vec![turbo.ask(rng)],
                None => vec![(0..dim).map(|_| rng.gen()).collect()],
            };
            let outcomes = map_indexed(self.problem.engine().as_ref(), batch.len(), |i| {
                self.problem.simulate_typical(&batch[i])
            });
            for (x, outcome) in batch.into_iter().zip(outcomes) {
                // Diverged (NaN) typical-condition rewards read as
                // decisively infeasible: `Turbo::tell` and the sort below
                // require finite.
                let reward = finite_worst(outcome.reward);
                if let Some(turbo) = &mut turbo {
                    turbo.tell(x.clone(), reward);
                }
                if reward == SATISFIED_REWARD {
                    feasible.push(x.clone());
                }
                evaluated.push((x, reward));
            }
        }
        feasible.truncate(n_initial);
        evaluated.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite rewards"));
        let mut initial = feasible;
        for (x, _) in evaluated {
            if initial.len() >= n_initial {
                break;
            }
            if !initial.contains(&x) {
                initial.push(x);
            }
        }
        initial
    }

    /// Samples `N'` shared-die conditions for each selected corner and
    /// simulates them in one engine dispatch. The RNG is consumed
    /// corner-major *before* dispatch — the engine-parity invariant.
    fn simulate_corners(
        &self,
        x: &[f64],
        selected: &[usize],
        rng: &mut Rng64,
    ) -> (Vec<Vec<MismatchVector>>, Vec<Vec<SimOutcome>>) {
        let n_prime = self.problem.config().optim_samples;
        let conditions: Vec<Vec<MismatchVector>> =
            selected.iter().map(|_| self.problem.sample_conditions(x, n_prime, rng)).collect();
        let outcomes = self.problem.simulate_selected_corners(x, selected, &conditions);
        (conditions, outcomes)
    }
}

/// Records each selected corner's worst reward (NaN-sanitized) and
/// returns the overall worst with the corner it came from.
fn record_worst(
    last_worst: &mut LastWorstBuffer,
    selected: &[usize],
    outcomes: &[Vec<SimOutcome>],
) -> (f64, usize) {
    let mut overall = (f64::INFINITY, selected[0]);
    for (&ci, corner_outcomes) in selected.iter().zip(outcomes) {
        let worst = finite_worst(reduce::worst(corner_outcomes.iter().map(|o| o.reward)));
        last_worst.record(ci, worst);
        if worst < overall.0 {
            overall.1 = ci;
        }
        overall.0 = overall.0.min(worst);
    }
    overall
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

    fn quick(framework: Framework) -> GlovaConfig {
        GlovaConfig { framework, ..GlovaConfig::quick(VerificationMethod::Corner) }
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
    #[should_panic(expected = "at least one initial design")]
    fn zero_initial_designs_panics() {
        let config = GlovaConfig { n_initial_designs: 0, ..quick(Framework::GLOVA) };
        GlovaOptimizer::new(toy(), config);
    }

    #[test]
    #[should_panic(expected = "seeding budget of at least one")]
    fn zero_seeding_budget_panics() {
        let config = GlovaConfig { turbo_budget: 0, ..quick(Framework::PvtSizing) };
        GlovaOptimizer::new(toy(), config);
    }

    #[test]
    fn ablations_run_and_succeed_on_toy() {
        for framework in [
            Framework::Glova { ensemble_critic: false, mu_sigma: true, reordering: true },
            Framework::Glova { ensemble_critic: true, mu_sigma: false, reordering: true },
            Framework::Glova { ensemble_critic: true, mu_sigma: true, reordering: false },
        ] {
            let result = GlovaOptimizer::new(toy(), quick(framework)).run(13);
            assert!(result.success, "ablation failed: {framework:?}");
        }
    }
}
