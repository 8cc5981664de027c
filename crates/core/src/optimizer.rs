//! The sizing loop — Fig. 2 and Algorithm 1 of the paper — and the
//! paper-run configurations of it.
//!
//! One crate-private loop serves every caller: [`GlovaOptimizer::run`]
//! for GLOVA, its Table III ablations and the two Table II baselines, and
//! [`SizingCampaign`](crate::campaign::SizingCampaign) for campaigns and
//! served jobs. The initial designs are simulated on every corner; their
//! worst rewards seed the worst-case replay buffer and the per-corner
//! last-worst buffer. Then each step:
//!
//! 1. the actor proposes a design anchored at the incumbent, clamped to a
//!    trust box around it;
//! 2. the step's corners are simulated under `N'` sampled mismatch
//!    conditions each;
//! 3. a sign-off judges the design;
//! 4. the worst reward is stored and the agent trained (Algorithm 1).
//!
//! The callers differ only in the initial designs, the corners per step,
//! the sign-off, and numbers each already sets:
//!
//! | caller | initial designs | corners per step | sign-off |
//! |---|---|---|---|
//! | GLOVA | TuRBO, its prefix as one batch | the last-worst corner | µ-σ gate, then Algorithm 2 |
//! | PVTSizing | TuRBO, one ask at a time | the full grid | every sample passing, then Algorithm 2 |
//! | RobustAnalog | uniform random | k-means cluster leaders | as PVTSizing |
//! | campaign | Latin hypercube | the full grid, or the `k` worst | every sample on every corner |
//!
//! [`Framework`] documents what sets each paper framework apart, so
//! Table II differences come from the algorithms rather than from
//! implementation quality; [`crate::campaign`] documents the campaign's
//! corner pruning and goal conditioning.
//!
//! Every simulation batch in the loop — the TuRBO space-filling prefix,
//! the initial corner × condition grids, the per-step corner × `N'`
//! sweeps and the Algorithm-2 verification — dispatches through the
//! [`engine`](crate::engine) layer selected by [`GlovaConfig::engine`]:
//! [`Sequential`](crate::engine::Sequential) reproduces the reference
//! semantics, [`Threaded`](crate::engine::Threaded) fans the same batches
//! out over worker threads with bitwise-identical results (mismatch
//! conditions are pre-sampled in deterministic order, reductions are
//! order-independent).

use crate::cache::EvalCacheConfig;
use crate::campaign::{
    CampaignControl, CampaignStep, CampaignTermination, CornerPolicy, CornerScheduler, PruningStats,
};
use crate::engine::{map_indexed, EngineSpec};
use crate::evaluation::MuSigmaEvaluation;
use crate::problem::{SimOutcome, SizingProblem};
use crate::report::{IterationTrace, RunResult};
use crate::verification::{ReusableSamples, Verifier};
use glova_circuits::spec::{DesignSpec, SATISFIED_REWARD};
use glova_circuits::Circuit;
use glova_rl::{AgentConfig, RiskSensitiveAgent};
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
/// §5).
const PROPOSAL_CLIP: f64 = 0.2;

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
        let initial = self.seed_designs(&mut forked(seed, seed_stream));

        let agent_config = AgentConfig {
            ensemble_size: if ensemble_critic { self.config.ensemble_size } else { 1 },
            beta1: self.config.beta1,
            batch_size: self.config.batch_size,
            hidden: self.config.hidden.clone(),
            updates_per_step: self.config.updates_per_step,
            ..AgentConfig::new(self.problem.dim())
        };
        let mut agent_rng = forked(seed, agent_stream);
        let mut agent = RiskSensitiveAgent::new(agent_config, &mut agent_rng);
        let corners = match framework {
            Framework::Glova { .. } => CornerPolicy::LastWorst,
            Framework::PvtSizing => CornerPolicy::Grid(None),
            Framework::RobustAnalog => {
                CornerPolicy::Clusters(self.problem.config().corners.clone())
            }
        };
        let sizing = SizingLoop {
            problem: &self.problem,
            spec: self.problem.circuit().spec(),
            goal_obs: &[],
            corners,
            sign_off: SignOff::Algorithm2 {
                beta2: self.config.beta2,
                mu_sigma,
                reordering,
                reuse: matches!(framework, Framework::Glova { .. }),
            },
            max_steps: self.config.max_iterations,
            pretrain_steps: 200,
            stagnation_restart: 60,
            trace: self.config.trace,
        };
        let out = sizing.run(
            &initial,
            &mut agent,
            &mut agent_rng,
            &mut forked(seed, sample_stream),
            &CampaignControl::new(),
            &mut |_| {},
        );
        let success = out.final_design.is_some();
        RunResult {
            success,
            rl_iterations: if success { out.steps.len() } else { self.config.max_iterations },
            simulations: self.problem.simulations(),
            verification_attempts: out.verification_attempts,
            wall_time: start.elapsed(),
            final_design: out.final_design,
            trace: out.trace,
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
}

/// How the [`SizingLoop`] signs a design off. Each variant also fixes
/// what a pass does to the run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SignOff {
    /// Every `N'` sample on every corner meets the spec: the step's own
    /// corners, then the corners a pruned step skipped (campaigns). It
    /// judges the initial designs too; a signed-off initial design skips
    /// pretraining, and a signed-off step is still stored and trained on.
    Grid,
    /// A gate on the step's samples, then Algorithm 2 against the
    /// circuit's own spec (paper runs; no caller pairs it with a goal). A
    /// verified design ends the run before it is stored or trained on.
    Algorithm2 {
        /// Reliability factor β₂ of the µ-σ evaluation.
        beta2: f64,
        /// Gate on the µ-σ bounds and tighten the stored reward to them;
        /// off, the gate is every sample passing.
        mu_sigma: bool,
        /// Simulation reordering inside Algorithm 2.
        reordering: bool,
        /// Hand Algorithm 2 the step's samples on its one corner, and fold
        /// a failed verification into the stored reward (GLOVA).
        reuse: bool,
    },
}

/// The sizing loop of the [module docs](self), configured by a caller.
pub(crate) struct SizingLoop<'a> {
    pub(crate) problem: &'a SizingProblem,
    /// The spec rewards are judged against: the circuit's, or a goal's.
    pub(crate) spec: &'a DesignSpec,
    /// Appended to every design the agent sees (empty without a goal).
    pub(crate) goal_obs: &'a [f64],
    pub(crate) corners: CornerPolicy,
    pub(crate) sign_off: SignOff,
    pub(crate) max_steps: usize,
    /// Behaviour-cloning steps pulling the fresh actor toward the best
    /// initial design.
    pub(crate) pretrain_steps: usize,
    /// Steps without incumbent improvement before the exploration noise
    /// restarts.
    pub(crate) stagnation_restart: usize,
    /// Record the reliability-bound trace (Fig. 3).
    pub(crate) trace: bool,
}

/// What one run of the [`SizingLoop`] produced.
pub(crate) struct LoopOutcome {
    /// The signed-off design, if any.
    pub(crate) final_design: Option<Vec<f64>>,
    /// The incumbent and its worst-case reward; `None` when the control
    /// stopped the run before the first initial design.
    pub(crate) best: Option<(Vec<f64>, f64)>,
    pub(crate) steps: Vec<CampaignStep>,
    /// Simulations spent on the initial designs.
    pub(crate) init_sims: u64,
    /// Simulations spent when the design was signed off.
    pub(crate) sims_to_success: Option<u64>,
    pub(crate) termination: CampaignTermination,
    pub(crate) pruning: PruningStats,
    pub(crate) verification_attempts: usize,
    pub(crate) trace: Vec<IterationTrace>,
}

/// One corner sweep's samples and their reduction under the loop's spec.
struct Sweep {
    conditions: Vec<Vec<MismatchVector>>,
    outcomes: Vec<Vec<SimOutcome>>,
    /// The worst reward over the swept corners (NaN-sanitized) and the
    /// corner it came from.
    worst: f64,
    worst_corner: usize,
    /// Samples that met the spec, out of `trials`.
    passes: u64,
    trials: u64,
}

impl SizingLoop<'_> {
    /// Runs the loop from `initial` designs. `agent` may carry experience
    /// from earlier runs (a campaign family shares one); `agent_rng`
    /// drives proposals and training, `sample_rng` the mismatch samples
    /// and the corner policy. `control` is checked before every dispatch
    /// it can price, and `on_step` sees each step's record as it
    /// completes.
    pub(crate) fn run(
        &self,
        initial: &[Vec<f64>],
        agent: &mut RiskSensitiveAgent,
        agent_rng: &mut Rng64,
        sample_rng: &mut Rng64,
        control: &CampaignControl,
        on_step: &mut dyn FnMut(&CampaignStep),
    ) -> LoopOutcome {
        let problem = self.problem;
        let sims_start = problem.simulations();
        let spent = || problem.simulations() - sims_start;
        let n_corners = problem.config().corners.len();
        let n_prime = problem.config().optim_samples as u64;
        let all_corners: Vec<usize> = (0..n_corners).collect();
        let mut scheduler = CornerScheduler::new(n_corners, self.corners.clone());
        let obs = |x: &[f64]| -> Vec<f64> { x.iter().chain(self.goal_obs).copied().collect() };
        let mut out = LoopOutcome {
            final_design: None,
            best: None,
            steps: Vec::new(),
            init_sims: 0,
            sims_to_success: None,
            termination: CampaignTermination::Completed,
            pruning: PruningStats::default(),
            verification_attempts: 0,
            trace: Vec::new(),
        };

        // ---- Initial designs on the full grid ----------------------------
        // Ranks every corner and fills the replay buffer with genuine
        // worst-case rewards before any step.
        let mut best: Option<(Vec<f64>, f64)> = None;
        for x in initial {
            if let Some(t) = control.interruption(spent(), n_corners as u64 * n_prime) {
                out.termination = t;
                break;
            }
            let worst = self.sweep(x, &all_corners, &mut scheduler, sample_rng).worst;
            agent.observe(obs(x), worst);
            if best.as_ref().is_none_or(|(_, r)| worst > *r) {
                best = Some((x.clone(), worst));
            }
        }
        out.init_sims = spent();
        let Some(mut best) = best else {
            return out;
        };
        if matches!(self.sign_off, SignOff::Grid) && best.1 >= SATISFIED_REWARD {
            // Signed off before any step, even if the control cut later
            // initial designs short; the agent is left untouched.
            out.final_design = Some(best.0.clone());
            out.sims_to_success = Some(out.init_sims);
            out.termination = CampaignTermination::Completed;
        } else if out.termination == CampaignTermination::Completed {
            // Behaviour-clone the fresh actor toward the incumbent so early
            // proposals explore around it instead of an arbitrary point.
            agent.pretrain_actor_towards(&best.0, self.pretrain_steps, agent_rng);
            agent.set_proximal_target(Some(best.0.clone()));
        }

        // ---- Steps (Fig. 2 steps 1–6) ------------------------------------
        let mut stagnation = 0usize;
        for step in 1..=self.max_steps {
            if out.final_design.is_some() || out.termination != CampaignTermination::Completed {
                break;
            }
            // Price the step before taking it: pricing moves no counter and
            // draws no sample, so an untaken step disturbs nothing.
            let cost = scheduler.next_step_corners() as u64 * n_prime;
            if let Some(t) = control.interruption(spent(), cost) {
                out.termination = t;
                break;
            }
            let t0 = Instant::now();
            let sims_before = problem.simulations();

            // Step 1: generate a design. Algorithm 1 writes
            // `x_new = A(x_last) + noise`; anchoring `x_last` to the
            // incumbent keeps the proposal chain from drifting (see
            // `docs/DESIGN.md` §5), and the clip bounds the step.
            let anchor = &best.0;
            let mut x_new = agent.propose(&obs(anchor), agent_rng);
            for (v, a) in x_new.iter_mut().zip(anchor) {
                *v = v.clamp((a - PROPOSAL_CLIP).max(0.0), (a + PROPOSAL_CLIP).min(1.0));
            }

            // Steps 2–3: simulate this step's corners.
            let corners = scheduler.plan_step(sample_rng);
            let mut sweep = self.sweep(&x_new, &corners, &mut scheduler, sample_rng);
            let mut worst = sweep.worst;
            if self.trace {
                let (mean, std) = agent.critic().predict_detail(&obs(&x_new));
                out.trace.push(IterationTrace {
                    iteration: step,
                    critic_mean: mean,
                    critic_bound: mean + agent.config().beta1 * std,
                    sampled_worst: worst,
                    corner_index: sweep.worst_corner,
                });
            }
            let (mut passes, mut trials) = (sweep.passes, sweep.trials);
            let mut full_grid = corners.len() == n_corners;

            // Steps 4–5: sign-off.
            let verified = match self.sign_off {
                SignOff::Grid => {
                    // Pruning must not weaken the success criterion, so the
                    // skipped corners are confirmed before success; their
                    // worst rewards refresh the ranking either way.
                    if worst >= SATISFIED_REWARD && !full_grid {
                        let rest: Vec<usize> =
                            (0..n_corners).filter(|ci| !corners.contains(ci)).collect();
                        let rest_cost = rest.len() as u64 * n_prime;
                        if let Some(t) = control.interruption(spent(), rest_cost) {
                            // Unpaid, the candidate stays unconfirmed.
                            out.termination = t;
                        } else {
                            let rest_sweep = self.sweep(&x_new, &rest, &mut scheduler, sample_rng);
                            worst = worst.min(rest_sweep.worst);
                            passes += rest_sweep.passes;
                            trials += rest_sweep.trials;
                            scheduler.note_confirmation(rest.len());
                            full_grid = true;
                        }
                    }
                    if worst >= SATISFIED_REWARD && full_grid {
                        out.final_design = Some(x_new.clone());
                    }
                    false
                }
                SignOff::Algorithm2 { beta2, mu_sigma, reordering, reuse } => {
                    // The µ-σ gate also tightens the stored reward to the
                    // reward of the µ-σ bounds: a design whose samples pass
                    // but whose mean+β₂σ bound violates a constraint is not
                    // yet robust and must not look like one to the critic
                    // (Eq. 7 folded into Eq. 4, see `docs/DESIGN.md` §5).
                    let gate = if mu_sigma {
                        let samples = sweep.outcomes.concat();
                        let eval = MuSigmaEvaluation::evaluate(self.spec, &samples, beta2);
                        worst = worst.min(finite_worst(self.spec.reward(&eval.bounds)));
                        eval.passed
                    } else {
                        worst == SATISFIED_REWARD
                    };
                    if gate {
                        out.verification_attempts += 1;
                        let mut verifier = Verifier::new(problem, beta2);
                        if !mu_sigma {
                            verifier = verifier.without_mu_sigma();
                        }
                        if !reordering {
                            verifier = verifier.without_reordering();
                        }
                        let reused = reuse.then(|| ReusableSamples {
                            corner_index: corners[0],
                            conditions: sweep.conditions.swap_remove(0),
                            outcomes: sweep.outcomes.swap_remove(0),
                        });
                        let hint = scheduler.corners_worst_first();
                        let verdict = verifier.verify(&x_new, &hint, reused.as_ref(), sample_rng);
                        for &(ci, w) in &verdict.per_corner_worst {
                            scheduler.record(ci, finite_worst(w));
                        }
                        // GLOVA folds a failed verification into the stored
                        // reward: first the step corner's own entries, then
                        // the overall verified worst. The first fold is not
                        // redundant — the overall worst of a batch holding a
                        // diverged (NaN) corner sanitizes to DIVERGED_REWARD
                        // and would hide a corner reward below it.
                        if reuse && !verdict.passed {
                            for &(ci, w) in &verdict.per_corner_worst {
                                if ci == corners[0] {
                                    worst = worst.min(finite_worst(w));
                                }
                            }
                            let verified_worst =
                                reduce::worst(verdict.per_corner_worst.iter().map(|w| w.1));
                            worst = worst.min(finite_worst(verified_worst));
                        }
                        verdict.passed
                    } else {
                        false
                    }
                }
            };

            if verified {
                out.final_design = Some(x_new);
            } else {
                // Step 6: store the worst reward, update the incumbent,
                // train.
                agent.observe(obs(&x_new), worst);
                if worst > best.1 {
                    best = (x_new, worst);
                    agent.set_proximal_target(Some(best.0.clone()));
                    stagnation = 0;
                } else {
                    stagnation += 1;
                    // Exploration restart: a long streak without incumbent
                    // improvement means the neighbourhood is exhausted.
                    if stagnation >= self.stagnation_restart {
                        agent.reset_noise(0.12);
                        stagnation = 0;
                    }
                }
                agent.train_step(agent_rng);
            }
            let record = CampaignStep {
                step,
                active_corners: corners.len(),
                corner_count: n_corners,
                sims: problem.simulations() - sims_before,
                worst_reward: worst,
                best_reward: best.1,
                pass_fraction: if trials == 0 { 0.0 } else { passes as f64 / trials as f64 },
                full_grid,
                wall: t0.elapsed(),
            };
            on_step(&record);
            out.steps.push(record);
            if out.final_design.is_some() {
                out.sims_to_success = Some(spent());
            }
        }
        out.best = Some(best);
        out.pruning = scheduler.stats().clone();
        out
    }

    /// Samples `N'` conditions on each of `corners` — corner-major and
    /// before dispatch, the engine-parity invariant — simulates them in
    /// one engine dispatch, and records each corner's worst reward.
    fn sweep(
        &self,
        x: &[f64],
        corners: &[usize],
        scheduler: &mut CornerScheduler,
        rng: &mut Rng64,
    ) -> Sweep {
        let n_prime = self.problem.config().optim_samples;
        let conditions: Vec<Vec<MismatchVector>> =
            corners.iter().map(|_| self.problem.sample_conditions(x, n_prime, rng)).collect();
        let outcomes = self.problem.simulate_selected_corners(x, corners, &conditions);
        let mut sweep = Sweep {
            conditions,
            outcomes: Vec::new(),
            worst: f64::INFINITY,
            worst_corner: corners[0],
            passes: 0,
            trials: 0,
        };
        for (&ci, corner_outcomes) in corners.iter().zip(&outcomes) {
            // Rewards are re-derived from the metrics under the loop's
            // spec: a cached `SimOutcome` carries the circuit spec's
            // reward, which a goal does not share.
            let rewards = corner_outcomes.iter().map(|o| self.spec.reward(&o.metrics));
            let worst = finite_worst(reduce::worst(rewards));
            scheduler.record(ci, worst);
            if worst < sweep.worst {
                sweep.worst_corner = ci;
            }
            sweep.worst = sweep.worst.min(worst);
            sweep.trials += corner_outcomes.len() as u64;
            sweep.passes +=
                corner_outcomes.iter().filter(|o| self.spec.satisfied(&o.metrics)).count() as u64;
        }
        sweep.outcomes = outcomes;
        sweep
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
