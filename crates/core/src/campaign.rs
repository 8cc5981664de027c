//! End-to-end risk-sensitive sizing campaigns over the engine layer.
//!
//! [`GlovaOptimizer`](crate::optimizer::GlovaOptimizer) reproduces the
//! paper's Algorithm 1/2 loop faithfully — one worst-corner mini-batch per
//! iteration. A *campaign* is the production-shaped variant of that loop:
//! every policy step's candidate × corner × mismatch grid is flattened
//! into a **single** [`EvalEngine`](crate::engine::EvalEngine) dispatch
//! (via [`SizingProblem::simulate_selected_corners`]), so per-worker SPICE
//! solver pools, value-only retargeting and the
//! [`EvalCache`](crate::cache::EvalCache) stay hot across the whole run,
//! and two throughput ideas from the related work slot directly onto that
//! batched dispatch:
//!
//! - **Corner-set pruning** (RobustAnalog, Shi et al.): the
//!   [`CornerScheduler`] tracks the most recent worst reward per corner and
//!   simulates only the current `k`-worst set, re-ranking the full grid
//!   every `R` steps. A candidate that satisfies the active set is
//!   *confirmed* on the remaining corners before being declared feasible,
//!   so pruning never weakens the success criterion — it only skips
//!   simulations on corners that were not close to binding.
//! - **Goal conditioning** (PPAAS, Kim et al.): the spec target — encoded
//!   as per-metric limit scale factors
//!   ([`DesignSpec::with_scaled_limits`]) — is appended to the agent's
//!   observation, so one agent generalizes across a spec family
//!   ([`SizingCampaign::run_family`]) instead of being retrained per
//!   target.
//!
//! Determinism contract: conditions are pre-sampled in deterministic order
//! *before* every dispatch, reductions are NaN-propagating and
//! order-independent, and the agent's RNG streams are forked per phase —
//! the full trajectory is bitwise-identical across
//! [`Sequential`](crate::engine::Sequential) and
//! [`Threaded`](crate::engine::Threaded) engines at any worker count
//! (`tests/campaign_determinism.rs`).
//!
//! # Example
//!
//! ```
//! use glova::campaign::{CampaignConfig, PruningConfig, SizingCampaign};
//! use glova_variation::config::VerificationMethod;
//! use std::sync::Arc;
//!
//! let circuit = Arc::new(glova_circuits::ToyQuadratic::standard());
//! let config = CampaignConfig::quick(VerificationMethod::Corner)
//!     .with_pruning(PruningConfig::new(2, 5));
//! let campaign = SizingCampaign::new(circuit, config);
//! let result = campaign.run(7);
//! assert!(result.success);
//! // Pruned steps simulated a strict subset of the corner grid …
//! assert!(result.pruning.pruned_fraction() > 0.0);
//! // … yet the final design was confirmed on the *full* grid.
//! assert!(result.steps.iter().last().unwrap().full_grid);
//! ```

use crate::cache::EvalCacheConfig;
use crate::engine::EngineSpec;
use crate::fault::FaultPlan;
use crate::optimizer::PROPOSAL_CLIP;
use crate::problem::SizingProblem;
use crate::yield_est::{estimate_yield_against, YieldEstimate};
use glova_circuits::spec::{DesignSpec, SATISFIED_REWARD};
use glova_circuits::{Circuit, FailureStats};
use glova_rl::{AgentConfig, LastWorstBuffer, RiskSensitiveAgent};
use glova_stats::reduce::{self, finite_worst};
use glova_stats::rng::{forked, Rng64};
use glova_turbo::latin_hypercube;
use glova_variation::config::VerificationMethod;
use glova_variation::sampler::MismatchVector;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Corner-set pruning parameters (RobustAnalog-style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruningConfig {
    /// Number of worst corners simulated on a pruned step.
    pub k: usize,
    /// Re-rank cadence: every `rerank_every`-th step simulates the full
    /// corner grid and refreshes the ranking (1 disables pruning).
    pub rerank_every: usize,
}

impl PruningConfig {
    /// Creates a pruning schedule: `k`-worst corners per step, full
    /// re-rank every `rerank_every` steps.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `rerank_every == 0`.
    pub fn new(k: usize, rerank_every: usize) -> Self {
        assert!(k > 0, "need at least one active corner");
        assert!(rerank_every > 0, "re-rank cadence must be positive");
        Self { k, rerank_every }
    }
}

/// Cumulative corner-scheduling counters of one campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruningStats {
    /// Steps that simulated the full corner grid (re-ranks included).
    pub full_steps: u64,
    /// Steps that simulated only the k-worst subset.
    pub pruned_steps: u64,
    /// Corner slots actually simulated across all steps.
    pub corners_simulated: u64,
    /// Corner slots a full-grid campaign would have simulated.
    pub corners_available: u64,
}

impl PruningStats {
    /// Fraction of corner slots skipped by pruning (0 for full-grid runs).
    pub fn pruned_fraction(&self) -> f64 {
        if self.corners_available == 0 {
            return 0.0;
        }
        1.0 - self.corners_simulated as f64 / self.corners_available as f64
    }
}

/// One step's corner selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepPlan {
    /// Corner indices to simulate, ascending (corner-major sampling order).
    pub corners: Vec<usize>,
    /// Whether this plan covers the full grid (re-rank step).
    pub full: bool,
}

/// Tracks per-corner worst rewards and plans which corners each policy
/// step simulates (RobustAnalog-style corner-set pruning).
///
/// The scheduler keeps the most recent worst reward seen per corner
/// (`-∞` until first visited — unranked corners force a full step). On a
/// pruned step it selects the `k` corners with the lowest recorded worst
/// reward (ties broken by index, selection returned in ascending index
/// order so condition sampling stays corner-major deterministic); every
/// `rerank_every`-th step it schedules the full grid to refresh the
/// ranking.
#[derive(Debug, Clone)]
pub struct CornerScheduler {
    worst: LastWorstBuffer,
    pruning: Option<PruningConfig>,
    steps_since_rerank: usize,
    stats: PruningStats,
}

impl CornerScheduler {
    /// Creates a scheduler over `corner_count` corners; `None` pruning
    /// plans the full grid every step.
    ///
    /// # Panics
    ///
    /// Panics if `corner_count == 0`, or if `pruning` has `k == 0` or
    /// `rerank_every == 0` — the contract of [`PruningConfig::new`],
    /// which a struct literal can bypass.
    pub fn new(corner_count: usize, pruning: Option<PruningConfig>) -> Self {
        assert!(corner_count > 0, "need at least one corner");
        if let Some(p) = &pruning {
            assert!(p.k > 0, "need at least one active corner");
            assert!(p.rerank_every > 0, "re-rank cadence must be positive");
        }
        Self {
            worst: LastWorstBuffer::new(corner_count),
            pruning,
            steps_since_rerank: 0,
            stats: PruningStats::default(),
        }
    }

    /// Number of corners under management.
    pub fn corner_count(&self) -> usize {
        self.worst.len()
    }

    /// Cumulative scheduling counters.
    pub fn stats(&self) -> &PruningStats {
        &self.stats
    }

    /// Records the worst reward observed at `corner_index` (most recent
    /// observation wins).
    ///
    /// # Panics
    ///
    /// Panics if `corner_index` is out of range.
    pub fn record(&mut self, corner_index: usize, worst_reward: f64) {
        self.worst.record(corner_index, worst_reward);
    }

    /// Computes the next step's corner plan **without** committing it:
    /// no counters move and the re-rank cadence does not advance, so an
    /// immediately following [`Self::plan_step`] returns the identical
    /// plan. Campaigns use this to price the next dispatch against a
    /// simulation budget before deciding to take the step at all —
    /// pricing an untaken step must not disturb the accounting.
    pub fn peek_plan(&self) -> StepPlan {
        let n = self.worst.len();
        let full = match &self.pruning {
            None => true,
            Some(p) => {
                p.k >= n
                    || (0..n).any(|ci| self.worst.last(ci) == f64::NEG_INFINITY)
                    || self.steps_since_rerank + 1 >= p.rerank_every
            }
        };
        let corners: Vec<usize> = if full {
            (0..n).collect()
        } else {
            let k = self.pruning.as_ref().expect("pruned plans require a config").k;
            let mut selected: Vec<usize> =
                self.worst.corners_worst_first().into_iter().take(k).collect();
            selected.sort_unstable();
            selected
        };
        StepPlan { corners, full }
    }

    /// Plans the next step's corner set and updates the counters.
    ///
    /// Full-grid plans are issued when pruning is disabled, `k` covers the
    /// grid, any corner is still unranked, or the re-rank cadence is due;
    /// otherwise the current `k`-worst corners are selected.
    pub fn plan_step(&mut self) -> StepPlan {
        let plan = self.peek_plan();
        if plan.full {
            self.steps_since_rerank = 0;
            self.stats.full_steps += 1;
        } else {
            self.steps_since_rerank += 1;
            self.stats.pruned_steps += 1;
        }
        self.stats.corners_simulated += plan.corners.len() as u64;
        self.stats.corners_available += self.worst.len() as u64;
        plan
    }

    /// Notes that a feasibility-confirmation dispatch simulated
    /// `corners_confirmed` extra corner slots outside
    /// [`Self::plan_step`]: resets the re-rank clock (the confirmation
    /// refreshed every ranking) and counts the slots into
    /// [`PruningStats::corners_simulated`].
    ///
    /// The counting half fixes a real accounting bug: confirmations used
    /// to go uncounted, so [`PruningStats::pruned_fraction`] over-stated
    /// pruning savings on exactly the campaigns where confirmations fire
    /// most (`corners_simulated × N'` must equal the simulations the
    /// policy loop actually paid — the invariant the campaign accounting
    /// regression tests pin down). `corners_available` is untouched: the
    /// step's full-grid denominator was already added by
    /// [`Self::plan_step`], and a confirmed step costs exactly a
    /// full-grid step, driving its marginal pruned fraction to zero.
    pub fn note_confirmation(&mut self, corners_confirmed: usize) {
        self.steps_since_rerank = 0;
        self.stats.corners_simulated += corners_confirmed as u64;
    }
}

/// Why a campaign stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignTermination {
    /// Ran to success or to the step budget — the pre-control semantics.
    Completed,
    /// Stopped at a checkpoint because [`CampaignControl::cancel`] fired.
    Cancelled,
    /// Stopped because the next dispatch would burst the simulation
    /// budget, or the wall-clock deadline passed.
    BudgetExhausted,
}

/// Cooperative cancellation / budget token for one campaign run.
///
/// A control is checked at every dispatch boundary of
/// [`SizingCampaign::run_controlled`] — before each seeding dispatch,
/// each policy step, each feasibility-confirmation sweep and the final
/// yield estimate. Checks are **pre-dispatch and exact**: a simulation
/// budget of `max_sims` is never exceeded, because a dispatch whose cost
/// would cross it is not started. Cancellation and deadlines stop the
/// run at the same boundaries, so the partial trajectory recorded up to
/// that point is complete and bitwise-identical to the same prefix of an
/// uninterrupted run.
///
/// The token is `Sync`: hand an `Arc<CampaignControl>` to the running
/// thread and call [`cancel`](Self::cancel) from any other.
#[derive(Debug, Default)]
pub struct CampaignControl {
    cancelled: AtomicBool,
    max_sims: Option<u64>,
    deadline: Mutex<Option<Instant>>,
}

impl CampaignControl {
    /// An unlimited control: never cancels, never exhausts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps total simulations for the run (builder style). The campaign
    /// stops with [`CampaignTermination::BudgetExhausted`] *before* the
    /// dispatch that would cross the cap — the count never exceeds it.
    pub fn with_max_sims(mut self, max_sims: u64) -> Self {
        self.max_sims = Some(max_sims);
        self
    }

    /// Sets (or tightens) an absolute wall-clock deadline (builder
    /// style).
    pub fn with_deadline(self, deadline: Instant) -> Self {
        self.tighten_deadline(deadline);
        self
    }

    /// Requests cancellation: the run stops at its next checkpoint with
    /// [`CampaignTermination::Cancelled`]. Idempotent; safe from any
    /// thread.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](Self::cancel) has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// The simulation cap, if one is set.
    pub fn max_sims(&self) -> Option<u64> {
        self.max_sims
    }

    /// Moves the deadline to `deadline` if that is earlier than the
    /// current one (a deadline never moves later) — how `glova-serve`
    /// applies a per-job `max_wall` measured from job *start*, not
    /// submission.
    pub fn tighten_deadline(&self, deadline: Instant) {
        let mut slot = self.deadline.lock().expect("campaign control poisoned");
        *slot = Some(slot.map_or(deadline, |d| d.min(deadline)));
    }

    /// The checkpoint test: with `sims_used` spent so far and a next
    /// dispatch costing `next_cost` simulations, returns why the run
    /// must stop now — or `None` to proceed. Cancellation outranks
    /// budget exhaustion when both hold.
    pub fn interruption(&self, sims_used: u64, next_cost: u64) -> Option<CampaignTermination> {
        if self.is_cancelled() {
            return Some(CampaignTermination::Cancelled);
        }
        if let Some(deadline) = *self.deadline.lock().expect("campaign control poisoned") {
            if Instant::now() >= deadline {
                return Some(CampaignTermination::BudgetExhausted);
            }
        }
        if let Some(max) = self.max_sims {
            if sims_used + next_cost > max {
                return Some(CampaignTermination::BudgetExhausted);
            }
        }
        None
    }
}

/// Campaign configuration.
///
/// Mirrors [`GlovaConfig`](crate::optimizer::GlovaConfig) where the two
/// loops overlap (agent hyperparameters, engine/cache selection) and adds
/// the campaign-only knobs: corner pruning, goal conditioning and the
/// final yield estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Verification method (Table I) — sets the corner set and `N'`.
    pub method: VerificationMethod,
    /// Evaluation engine for the batched dispatches (results are
    /// engine-independent).
    pub engine: EngineSpec,
    /// Evaluation-cache configuration (`None` disables memoization).
    pub cache: Option<EvalCacheConfig>,
    /// Maximum policy steps before declaring failure.
    pub max_steps: usize,
    /// Latin-hypercube seed designs evaluated on the full grid before the
    /// RL loop (ranks every corner and seeds the replay buffer).
    pub init_designs: usize,
    /// Behaviour-cloning steps pulling the fresh actor toward the best
    /// seed design.
    pub pretrain_steps: usize,
    /// Steps without incumbent improvement before the exploration noise
    /// restarts.
    pub stagnation_restart: usize,
    /// Corner-set pruning schedule (`None` = full grid every step).
    pub pruning: Option<PruningConfig>,
    /// Per-metric spec-limit scale factors (goal conditioning). `None`
    /// runs the circuit's base spec without a goal observation.
    pub goal_factors: Option<Vec<f64>>,
    /// Critic ensemble size.
    pub ensemble_size: usize,
    /// Hidden layer widths of the actor/critic networks.
    pub hidden: Vec<usize>,
    /// RL training batch size.
    pub batch_size: usize,
    /// Gradient updates per policy step.
    pub updates_per_step: usize,
    /// Risk parameter β₁ of the ensemble critic.
    pub beta1: f64,
    /// Fresh-die MC samples per corner for the final yield estimate on a
    /// successful design (0 skips the estimate).
    pub yield_samples: usize,
    /// Confidence level of the yield interval, in `(0, 1)` whenever
    /// `yield_samples > 0`.
    pub yield_confidence: f64,
}

impl CampaignConfig {
    /// Paper-default hyperparameters under the given verification method.
    pub fn paper(method: VerificationMethod) -> Self {
        Self {
            method,
            engine: EngineSpec::Sequential,
            cache: None,
            max_steps: 500,
            init_designs: 3,
            pretrain_steps: 200,
            stagnation_restart: 60,
            pruning: None,
            goal_factors: None,
            ensemble_size: 5,
            hidden: vec![64, 64, 64],
            batch_size: 10,
            updates_per_step: 8,
            beta1: -3.0,
            yield_samples: 0,
            yield_confidence: 0.95,
        }
    }

    /// A reduced configuration for fast tests and CI gates.
    pub fn quick(method: VerificationMethod) -> Self {
        Self {
            hidden: vec![32, 32],
            updates_per_step: 4,
            pretrain_steps: 100,
            max_steps: 150,
            ..Self::paper(method)
        }
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

    /// Enables corner-set pruning (builder style).
    pub fn with_pruning(mut self, pruning: PruningConfig) -> Self {
        self.pruning = Some(pruning);
        self
    }

    /// Sets the goal-conditioned spec target (builder style): metric `i`'s
    /// limit is scaled by `factors[i]` and the factors are appended to the
    /// agent's observation.
    pub fn with_goal(mut self, factors: Vec<f64>) -> Self {
        self.goal_factors = Some(factors);
        self
    }

    /// Sets the step budget (builder style).
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Enables the final yield estimate (builder style).
    pub fn with_yield_estimate(mut self, samples_per_corner: usize) -> Self {
        self.yield_samples = samples_per_corner;
        self
    }
}

/// One policy step of a campaign trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStep {
    /// 1-based step index.
    pub step: usize,
    /// Corners in this step's planned (possibly pruned) set.
    pub active_corners: usize,
    /// Total corners in the grid.
    pub corner_count: usize,
    /// Simulations spent this step (confirmation dispatches included).
    pub sims: u64,
    /// Worst goal-spec reward of the proposed design over every corner
    /// simulated this step.
    pub worst_reward: f64,
    /// Incumbent best worst-case reward after this step.
    pub best_reward: f64,
    /// Fraction of this step's simulations that met the goal spec — a
    /// per-step yield proxy.
    pub pass_fraction: f64,
    /// Whether this step achieved full-grid coverage (re-rank step or
    /// feasibility confirmation).
    pub full_grid: bool,
    /// Wall-clock time of this step (simulation + training).
    pub wall: Duration,
}

impl CampaignStep {
    /// Fraction of the corner grid this step's plan skipped.
    pub fn pruned_fraction(&self) -> f64 {
        1.0 - self.active_corners as f64 / self.corner_count as f64
    }
}

/// Result of one sizing campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Whether a design satisfied the goal spec on the full corner grid.
    pub success: bool,
    /// The feasible design (on success).
    pub final_design: Option<Vec<f64>>,
    /// Best design seen (the incumbent), feasible or not.
    pub best_design: Vec<f64>,
    /// The incumbent's worst-case reward.
    pub best_reward: f64,
    /// Per-step trajectory.
    pub steps: Vec<CampaignStep>,
    /// Simulations spent on the initial full-grid seeding phase.
    pub init_sims: u64,
    /// Cumulative simulations when the feasible design was confirmed
    /// (init phase included; `None` on failure).
    pub sims_to_success: Option<u64>,
    /// Total simulations across the campaign (yield estimate included).
    pub total_sims: u64,
    /// Goal-spec yield of the final design (when requested and
    /// successful).
    pub yield_estimate: Option<YieldEstimate>,
    /// Corner-scheduling counters.
    pub pruning: PruningStats,
    /// Goal factors this campaign optimized for (`None` = base spec).
    pub goal_factors: Option<Vec<f64>>,
    /// Why the run stopped — [`CampaignTermination::Completed`] unless a
    /// [`CampaignControl`] interrupted it. An interrupted result carries
    /// the partial trajectory in [`steps`](Self::steps), bitwise
    /// identical to the same prefix of an uninterrupted run.
    pub termination: CampaignTermination,
    /// Solver-failure ledger accumulated during this run (escalated
    /// retries and degraded evaluations — see
    /// [`glova_circuits::FailureStats`]).
    pub failures: FailureStats,
    /// Total wall-clock time.
    pub wall: Duration,
}

/// Checks goal factors against a spec of `metric_count` metrics: one
/// factor per metric, each finite and positive — what
/// [`DesignSpec::with_scaled_limits`] needs. [`SizingCampaign`] asserts
/// it; `glova-serve` rejects a request that fails it at submission.
///
/// # Errors
///
/// A message naming the first violation.
pub fn check_goal_factors(factors: &[f64], metric_count: usize) -> Result<(), String> {
    if factors.len() != metric_count {
        return Err(format!(
            "one goal factor per spec metric: {} factors for {metric_count} metrics",
            factors.len()
        ));
    }
    match factors.iter().find(|f| !(f.is_finite() && **f > 0.0)) {
        Some(f) => Err(format!("goal factors must be finite and positive, got {f}")),
        None => Ok(()),
    }
}

/// An end-to-end risk-sensitive sizing campaign (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct SizingCampaign {
    problem: SizingProblem,
    config: CampaignConfig,
}

impl SizingCampaign {
    /// Creates a campaign for `circuit` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.init_designs == 0`, the goal factors fail
    /// [`check_goal_factors`] against the circuit's spec (a count other
    /// than one factor per metric, or a factor that is not finite and
    /// positive), or `config.yield_samples > 0` with a
    /// `config.yield_confidence` outside `(0, 1)`.
    pub fn new(circuit: Arc<dyn Circuit>, config: CampaignConfig) -> Self {
        Self::build(circuit, config, None)
    }

    /// Like [`Self::new`], but memoizing through a **shared**
    /// [`EvalCache`](crate::cache::EvalCache) handle (normally obtained
    /// from the process-wide
    /// [`CacheRegistry`](crate::cache::CacheRegistry)) instead of a
    /// private cache — the serving path, where concurrent campaigns on
    /// one circuit answer each other's repeated points. Overrides
    /// `config.cache`; trajectories are bitwise-identical to a private
    /// cache (hits return the outcome a recompute would produce).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::new`].
    pub fn with_shared_cache(
        circuit: Arc<dyn Circuit>,
        config: CampaignConfig,
        cache: Arc<crate::cache::EvalCache>,
    ) -> Self {
        Self::build(circuit, config, Some(cache))
    }

    /// The constructors' common body: checks the contract they document
    /// under `# Panics`, then memoizes through the `shared` cache handle
    /// when given and through `config.cache` otherwise.
    fn build(
        circuit: Arc<dyn Circuit>,
        config: CampaignConfig,
        shared: Option<Arc<crate::cache::EvalCache>>,
    ) -> Self {
        assert!(config.init_designs > 0, "need at least one seed design");
        if let Some(factors) = &config.goal_factors {
            check_goal_factors(factors, circuit.spec().len()).unwrap_or_else(|why| panic!("{why}"));
        }
        if config.yield_samples > 0 {
            assert!(
                config.yield_confidence > 0.0 && config.yield_confidence < 1.0,
                "yield confidence must be in (0, 1), got {}",
                config.yield_confidence
            );
        }
        let problem = SizingProblem::with_engine(circuit, config.method, config.engine.build());
        let problem = match (shared, config.cache) {
            (Some(handle), _) => problem.with_cache_handle(handle),
            (None, Some(cache)) => problem.with_cache(cache),
            (None, None) => problem,
        };
        Self { problem, config }
    }

    /// Attaches a deterministic [`FaultPlan`] to the underlying problem
    /// (builder style) — the test seam that forces chosen simulation
    /// ordinals to fail, panic or stall (see [`crate::fault`]).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.problem = self.problem.with_fault_plan(plan);
        self
    }

    /// The underlying problem (simulation counters, cache stats, …).
    pub fn problem(&self) -> &SizingProblem {
        &self.problem
    }

    /// The configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs one campaign with the given seed.
    ///
    /// With [`CampaignConfig::goal_factors`] set, the agent is
    /// goal-conditioned on that single target; otherwise it optimizes the
    /// circuit's base spec with no goal observation.
    pub fn run(&self, seed: u64) -> CampaignResult {
        self.run_with(seed, &mut |_| {})
    }

    /// [`Self::run`] with a streaming step observer: `on_step` is called
    /// with every [`CampaignStep`] the moment it completes, **before**
    /// the next proposal is made — the hook `glova-serve` uses to publish
    /// pollable progress snapshots while a job is still running. The
    /// observer cannot influence the trajectory; `run_with(seed, …)` and
    /// `run(seed)` produce identical results.
    pub fn run_with(&self, seed: u64, on_step: &mut dyn FnMut(&CampaignStep)) -> CampaignResult {
        self.run_controlled(seed, &CampaignControl::new(), on_step)
    }

    /// [`Self::run_with`] under a [`CampaignControl`]: the run honours
    /// cooperative cancellation and simulation / wall-clock budgets,
    /// checked at every dispatch boundary. With an unlimited control the
    /// trajectory is identical to [`Self::run`]; an interrupted run
    /// returns a [`CampaignResult`] whose
    /// [`termination`](CampaignResult::termination) names the cause and
    /// whose partial trajectory matches the same prefix of the
    /// uninterrupted run bitwise.
    pub fn run_controlled(
        &self,
        seed: u64,
        control: &CampaignControl,
        on_step: &mut dyn FnMut(&CampaignStep),
    ) -> CampaignResult {
        let (goal_spec, goal_obs) = self.goal(self.config.goal_factors.as_deref());
        let mut agent = self.make_agent(goal_obs.len(), &mut forked(seed, 2));
        self.run_goal(
            &mut agent,
            &goal_spec,
            &goal_obs,
            self.config.goal_factors.clone(),
            seed,
            control,
            on_step,
        )
    }

    /// Runs one campaign per goal **sharing a single agent** — the
    /// PPAAS-style spec-family mode. Observations carry the goal factors,
    /// so experience from earlier goals transfers to later ones through
    /// the shared replay buffer and networks.
    ///
    /// # Panics
    ///
    /// Panics if `goals` is empty or any goal fails
    /// [`check_goal_factors`] against the circuit's spec — checked for
    /// every goal before the first one runs.
    pub fn run_family(&self, goals: &[Vec<f64>], seed: u64) -> Vec<CampaignResult> {
        assert!(!goals.is_empty(), "need at least one goal");
        let m = self.problem.circuit().spec().len();
        for g in goals {
            check_goal_factors(g, m).unwrap_or_else(|why| panic!("{why}"));
        }
        let mut agent = self.make_agent(m, &mut forked(seed, 2));
        let control = CampaignControl::new();
        goals
            .iter()
            .enumerate()
            .map(|(i, factors)| {
                let (goal_spec, goal_obs) = self.goal(Some(factors));
                self.run_goal(
                    &mut agent,
                    &goal_spec,
                    &goal_obs,
                    Some(factors.clone()),
                    glova_stats::rng::fork(seed, 100 + i as u64),
                    &control,
                    &mut |_| {},
                )
            })
            .collect()
    }

    fn goal(&self, factors: Option<&[f64]>) -> (DesignSpec, Vec<f64>) {
        let base = self.problem.circuit().spec().clone();
        match factors {
            Some(f) => (base.with_scaled_limits(f), f.to_vec()),
            None => (base, Vec::new()),
        }
    }

    fn make_agent(&self, goal_dim: usize, rng: &mut Rng64) -> RiskSensitiveAgent {
        let config = AgentConfig {
            ensemble_size: self.config.ensemble_size,
            beta1: self.config.beta1,
            batch_size: self.config.batch_size,
            hidden: self.config.hidden.clone(),
            updates_per_step: self.config.updates_per_step,
            ..AgentConfig::new(self.problem.dim()).with_goal_dim(goal_dim)
        };
        RiskSensitiveAgent::new(config, rng)
    }

    /// The campaign loop for one goal. `agent` may carry experience from
    /// earlier goals of a family run; its `goal_dim` must equal
    /// `goal_obs.len()`.
    #[allow(clippy::too_many_arguments)]
    fn run_goal(
        &self,
        agent: &mut RiskSensitiveAgent,
        goal_spec: &DesignSpec,
        goal_obs: &[f64],
        goal_factors: Option<Vec<f64>>,
        seed: u64,
        control: &CampaignControl,
        on_step: &mut dyn FnMut(&CampaignStep),
    ) -> CampaignResult {
        let start = Instant::now();
        let sims_start = self.problem.simulations();
        let failures_start = self.problem.circuit().failure_stats();
        let mut init_rng = forked(seed, 1);
        let mut agent_rng = forked(seed, 4);
        let mut sample_rng = forked(seed, 3);

        let n_corners = self.problem.config().corners.len();
        let n_prime = self.problem.config().optim_samples;
        let all_corners: Vec<usize> = (0..n_corners).collect();
        let mut scheduler = CornerScheduler::new(n_corners, self.config.pruning.clone());
        let obs = |x: &[f64]| -> Vec<f64> { x.iter().chain(goal_obs).copied().collect() };

        // ---- Seeding: LHS designs on the full grid ----------------------
        // Ranks every corner for the scheduler and fills the replay buffer
        // with genuine worst-case rewards before any policy step.
        let init_points =
            latin_hypercube(self.config.init_designs, self.problem.dim(), &mut init_rng);
        let mut best: Option<(Vec<f64>, f64)> = None;
        let mut termination = CampaignTermination::Completed;
        let seed_cost = all_corners.len() as u64 * n_prime as u64;
        for x in &init_points {
            if let Some(t) =
                control.interruption(self.problem.simulations() - sims_start, seed_cost)
            {
                termination = t;
                break;
            }
            let worst = self.dispatch(
                x,
                &all_corners,
                n_prime,
                goal_spec,
                &mut scheduler,
                &mut sample_rng,
                &mut 0,
                &mut 0,
            );
            agent.observe(obs(x), worst);
            if best.as_ref().is_none_or(|(_, r)| worst > *r) {
                best = Some((x.clone(), worst));
            }
        }
        let init_sims = self.problem.simulations() - sims_start;
        let Some(mut best) = best else {
            // Interrupted before the first seed dispatch: no incumbent
            // exists, only the (empty) accounting does.
            return CampaignResult {
                success: false,
                final_design: None,
                best_design: Vec::new(),
                best_reward: f64::NEG_INFINITY,
                steps: Vec::new(),
                init_sims,
                sims_to_success: None,
                total_sims: self.problem.simulations() - sims_start,
                yield_estimate: None,
                pruning: scheduler.stats().clone(),
                goal_factors,
                termination,
                failures: self.problem.circuit().failure_stats().since(failures_start),
                wall: start.elapsed(),
            };
        };

        // A seed design can already satisfy the goal on the full grid —
        // the campaign is then complete before any policy step, even if
        // the control cut later seeds short, and the agent (shared across
        // a family run) is left untouched.
        let mut success = best.1 >= SATISFIED_REWARD;
        let mut final_design = success.then(|| best.0.clone());
        let mut sims_to_success = success.then_some(init_sims);
        if success {
            termination = CampaignTermination::Completed;
        } else if termination == CampaignTermination::Completed {
            agent.pretrain_actor_towards(&best.0, self.config.pretrain_steps, &mut agent_rng);
            agent.set_proximal_target(Some(best.0.clone()));
        }

        // ---- Policy loop ------------------------------------------------
        let mut steps: Vec<CampaignStep> = Vec::new();
        let mut stagnation = 0usize;
        for step in 1..=self.config.max_steps {
            if success || termination != CampaignTermination::Completed {
                break;
            }
            // Price the next dispatch before committing to the step:
            // peeking moves no scheduler counters, so an untaken step
            // leaves the accounting (and the RNG streams) untouched.
            let step_cost = scheduler.peek_plan().corners.len() as u64 * n_prime as u64;
            if let Some(t) =
                control.interruption(self.problem.simulations() - sims_start, step_cost)
            {
                termination = t;
                break;
            }
            let t0 = Instant::now();
            let sims_before = self.problem.simulations();

            // Propose anchored at the incumbent, clamped to its trust box.
            let anchor = &best.0;
            let mut x_new = agent.propose(&obs(anchor), &mut agent_rng);
            for (v, a) in x_new.iter_mut().zip(anchor) {
                *v = v.clamp((a - PROPOSAL_CLIP).max(0.0), (a + PROPOSAL_CLIP).min(1.0));
            }

            // Simulate the planned (possibly pruned) corner set in one
            // engine dispatch.
            let plan = scheduler.plan_step();
            let mut passes = 0u64;
            let mut trials = 0u64;
            let mut worst = self.dispatch(
                &x_new,
                &plan.corners,
                n_prime,
                goal_spec,
                &mut scheduler,
                &mut sample_rng,
                &mut passes,
                &mut trials,
            );
            let mut full_grid = plan.full;

            // Feasible across the active set: pruning must not weaken the
            // success criterion, so confirm the skipped corners before
            // declaring success. Their worst rewards refresh the ranking
            // either way (a failed confirmation is a fresh re-rank).
            if worst >= SATISFIED_REWARD && !plan.full {
                let rest: Vec<usize> =
                    (0..n_corners).filter(|ci| !plan.corners.contains(ci)).collect();
                let rest_cost = rest.len() as u64 * n_prime as u64;
                if let Some(t) =
                    control.interruption(self.problem.simulations() - sims_start, rest_cost)
                {
                    // The control cannot pay the confirmation sweep, so the
                    // candidate stays unconfirmed — pruning never weakens
                    // the success criterion, not even at the budget edge.
                    termination = t;
                } else {
                    let rest_worst = self.dispatch(
                        &x_new,
                        &rest,
                        n_prime,
                        goal_spec,
                        &mut scheduler,
                        &mut sample_rng,
                        &mut passes,
                        &mut trials,
                    );
                    worst = worst.min(rest_worst);
                    scheduler.note_confirmation(rest.len());
                    full_grid = true;
                }
            }
            if worst >= SATISFIED_REWARD && full_grid {
                success = true;
                final_design = Some(x_new.clone());
            }

            // Store, update the incumbent, train.
            agent.observe(obs(&x_new), worst);
            if worst > best.1 {
                best = (x_new.clone(), worst);
                agent.set_proximal_target(Some(best.0.clone()));
                stagnation = 0;
            } else {
                stagnation += 1;
                if stagnation >= self.config.stagnation_restart {
                    agent.reset_noise(0.12);
                    stagnation = 0;
                }
            }
            agent.train_step(&mut agent_rng);

            let sims_now = self.problem.simulations();
            let step_record = CampaignStep {
                step,
                active_corners: plan.corners.len(),
                corner_count: n_corners,
                sims: sims_now - sims_before,
                worst_reward: worst,
                best_reward: best.1,
                pass_fraction: if trials == 0 { 0.0 } else { passes as f64 / trials as f64 },
                full_grid,
                wall: t0.elapsed(),
            };
            on_step(&step_record);
            steps.push(step_record);
            if success {
                sims_to_success = Some(sims_now - sims_start);
                break;
            }
            if termination != CampaignTermination::Completed {
                break;
            }
        }

        // ---- Final yield estimate (goal-spec, fresh dies) ---------------
        // The estimate is a post-success extra: it never fires on an
        // interrupted campaign and is itself subject to the budget.
        let yield_cost = (n_corners * self.config.yield_samples) as u64;
        let yield_estimate = match (&final_design, self.config.yield_samples) {
            (Some(x), samples)
                if samples > 0
                    && control
                        .interruption(self.problem.simulations() - sims_start, yield_cost)
                        .is_none() =>
            {
                Some(estimate_yield_against(
                    &self.problem,
                    goal_spec,
                    x,
                    samples,
                    self.config.yield_confidence,
                    &mut sample_rng,
                ))
            }
            _ => None,
        };

        CampaignResult {
            success,
            final_design,
            best_design: best.0,
            best_reward: best.1,
            steps,
            init_sims,
            sims_to_success,
            total_sims: self.problem.simulations() - sims_start,
            yield_estimate,
            pruning: scheduler.stats().clone(),
            goal_factors,
            termination,
            failures: self.problem.circuit().failure_stats().since(failures_start),
            wall: start.elapsed(),
        }
    }

    /// Samples conditions corner-major, dispatches the whole
    /// corner-subset × condition grid through the engine in one batch,
    /// records per-corner worst goal rewards into the scheduler and
    /// returns the overall worst (NaN-sanitized).
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        x: &[f64],
        corner_indices: &[usize],
        n_prime: usize,
        goal_spec: &DesignSpec,
        scheduler: &mut CornerScheduler,
        sample_rng: &mut Rng64,
        passes: &mut u64,
        trials: &mut u64,
    ) -> f64 {
        let conditions: Vec<Vec<MismatchVector>> = corner_indices
            .iter()
            .map(|_| self.problem.sample_conditions(x, n_prime, sample_rng))
            .collect();
        let per_corner = self.problem.simulate_selected_corners(x, corner_indices, &conditions);
        let mut overall = f64::INFINITY;
        for (j, outcomes) in per_corner.iter().enumerate() {
            // The goal spec re-derives rewards from the raw metrics, so the
            // cache-friendly `SimOutcome` (whose `reward` is the *base*
            // spec's) stays valid across goals.
            let worst =
                finite_worst(reduce::worst(outcomes.iter().map(|o| goal_spec.reward(&o.metrics))));
            for o in outcomes {
                *trials += 1;
                if goal_spec.satisfied(&o.metrics) {
                    *passes += 1;
                }
            }
            scheduler.record(corner_indices[j], worst);
            overall = overall.min(worst);
        }
        overall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineSpec;
    use glova_circuits::ToyQuadratic;
    use glova_variation::corner::PvtCorner;

    fn toy() -> Arc<dyn Circuit> {
        Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05))
    }

    fn quick() -> CampaignConfig {
        CampaignConfig::quick(VerificationMethod::Corner)
    }

    // ---- CornerScheduler ------------------------------------------------

    #[test]
    fn scheduler_without_pruning_always_plans_full() {
        let mut s = CornerScheduler::new(6, None);
        for _ in 0..5 {
            let plan = s.plan_step();
            assert!(plan.full);
            assert_eq!(plan.corners, vec![0, 1, 2, 3, 4, 5]);
        }
        assert_eq!(s.stats().pruned_steps, 0);
        assert_eq!(s.stats().pruned_fraction(), 0.0);
    }

    #[test]
    fn scheduler_selects_k_worst_in_index_order() {
        let mut s = CornerScheduler::new(5, Some(PruningConfig::new(2, 100)));
        // Unranked corners force a full step first.
        assert!(s.plan_step().full);
        for (ci, w) in [(0, 0.1), (1, -0.5), (2, 0.2), (3, -0.9), (4, 0.0)] {
            s.record(ci, w);
        }
        let plan = s.plan_step();
        assert!(!plan.full);
        // Worst two are corners 3 (−0.9) and 1 (−0.5), ascending order.
        assert_eq!(plan.corners, vec![1, 3]);
    }

    #[test]
    fn scheduler_reranks_on_cadence() {
        let mut s = CornerScheduler::new(4, Some(PruningConfig::new(1, 3)));
        for ci in 0..4 {
            s.record(ci, ci as f64);
        }
        let pattern: Vec<bool> = (0..7).map(|_| s.plan_step().full).collect();
        // Period 3: two pruned steps, then a full re-rank.
        assert_eq!(pattern, vec![false, false, true, false, false, true, false]);
        assert_eq!(s.stats().full_steps, 2);
        assert_eq!(s.stats().pruned_steps, 5);
        assert!(s.stats().pruned_fraction() > 0.5);
    }

    #[test]
    fn scheduler_ties_break_by_index() {
        let mut s = CornerScheduler::new(4, Some(PruningConfig::new(2, 100)));
        for ci in 0..4 {
            s.record(ci, -1.0);
        }
        assert_eq!(s.plan_step().corners, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "re-rank cadence must be positive")]
    fn zero_cadence_panics() {
        PruningConfig::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "need at least one active corner")]
    fn scheduler_rejects_a_zero_k_literal() {
        CornerScheduler::new(4, Some(PruningConfig { k: 0, rerank_every: 10 }));
    }

    #[test]
    fn confirmation_slots_count_as_simulated() {
        // Regression: a feasibility confirmation simulates the complement
        // of the pruned set, but those slots used to go uncounted —
        // `pruned_fraction` over-stated savings on every confirmed step.
        let mut s = CornerScheduler::new(6, Some(PruningConfig::new(2, 100)));
        assert!(s.plan_step().full); // unranked corners force a full step
        for ci in 0..6 {
            s.record(ci, ci as f64);
        }
        let plan = s.plan_step();
        assert_eq!(plan.corners.len(), 2);
        s.note_confirmation(4); // the confirmation covered the other 4
        let stats = s.stats();
        assert_eq!(stats.corners_simulated, 6 + 2 + 4);
        assert_eq!(stats.corners_available, 12);
        // A confirmed pruned step costs exactly a full step: its marginal
        // pruned fraction is zero.
        assert_eq!(stats.pruned_fraction(), 0.0);
        // The confirmation also reset the re-rank clock.
        assert!(!s.plan_step().full, "fresh clock: next step prunes again");
    }

    // ---- Campaign runs --------------------------------------------------

    #[test]
    fn full_grid_campaign_solves_toy() {
        let campaign = SizingCampaign::new(toy(), quick());
        let result = campaign.run(7);
        assert!(result.success, "campaign failed: best {}", result.best_reward);
        assert!(result.sims_to_success.is_some());
        assert_eq!(result.pruning.pruned_steps, 0);
        let x = result.final_design.expect("success carries a design");
        assert_eq!(x.len(), 4);
        // Trajectory accounting: per-step sims sum to total − init.
        let step_sims: u64 = result.steps.iter().map(|s| s.sims).sum();
        assert_eq!(step_sims + result.init_sims, result.total_sims);
    }

    #[test]
    fn pruned_campaign_solves_toy_with_fewer_sims() {
        let full = SizingCampaign::new(toy(), quick()).run(7);
        let pruned =
            SizingCampaign::new(toy(), quick().with_pruning(PruningConfig::new(2, 5))).run(7);
        assert!(full.success && pruned.success);
        assert!(pruned.pruning.pruned_fraction() > 0.0);
        assert!(
            pruned.sims_to_success.unwrap() < full.sims_to_success.unwrap(),
            "pruning saved nothing: {:?} vs {:?}",
            pruned.sims_to_success,
            full.sims_to_success
        );
    }

    #[test]
    fn pruned_success_is_feasible_on_the_full_grid() {
        let campaign = SizingCampaign::new(toy(), quick().with_pruning(PruningConfig::new(2, 5)));
        let result = campaign.run(11);
        assert!(result.success);
        // The success step itself achieved full-grid coverage.
        assert!(result.steps.last().is_none_or(|s| s.full_grid));
        // Independent re-check: the final design satisfies the base spec
        // at every corner of the grid.
        let x = result.final_design.unwrap();
        let corners = campaign.problem().config().corners.clone();
        for ci in 0..corners.len() {
            let corner: PvtCorner = corners.corner(ci);
            let h = glova_variation::sampler::MismatchVector::nominal(
                campaign.problem().circuit().mismatch_domain(&x).dim(),
            );
            let outcome = campaign.problem().simulate(&x, &corner, &h);
            assert_eq!(
                outcome.reward, SATISFIED_REWARD,
                "corner {ci} infeasible after pruned success"
            );
        }
    }

    #[test]
    fn pruning_accounting_matches_simulations_paid() {
        // With confirmations counted, the policy loop's simulation bill
        // must reconcile exactly: corner slots simulated × N' conditions
        // per slot == the per-step sims total. (Failed before the
        // confirmation-accounting fix whenever a confirmation fired.)
        let campaign = SizingCampaign::new(toy(), quick().with_pruning(PruningConfig::new(2, 5)));
        let result = campaign.run(11);
        assert!(result.success, "fixture must exercise a confirmation (success step)");
        let n_prime = campaign.problem().config().optim_samples as u64;
        let step_sims: u64 = result.steps.iter().map(|s| s.sims).sum();
        assert_eq!(
            result.pruning.corners_simulated * n_prime,
            step_sims,
            "PruningStats must account for every simulation the policy loop paid"
        );
        assert_eq!(step_sims + result.init_sims, result.total_sims);
    }

    #[test]
    fn stagnation_restarts_keep_accounting_exact() {
        // Force the restart path to fire on every non-improving step: the
        // noise reset must not disturb per-step simulation accounting or
        // the sims_to_success bookkeeping.
        let config = CampaignConfig { stagnation_restart: 1, ..quick() };
        let result = SizingCampaign::new(toy(), config).run(7);
        let step_sims: u64 = result.steps.iter().map(|s| s.sims).sum();
        assert_eq!(step_sims + result.init_sims, result.total_sims);
        if let Some(to_success) = result.sims_to_success {
            assert!(result.success);
            assert_eq!(to_success, result.total_sims, "no yield estimate: success ends the run");
        }
    }

    #[test]
    fn family_goal_switches_keep_per_goal_accounting_exact() {
        // The problem's simulation counter accumulates across a family;
        // each per-goal result must still reconcile against its own
        // baseline, and sims_to_success must stay within the goal's own
        // total (regression guard for the run_goal baseline capture).
        let campaign = SizingCampaign::new(toy(), quick().with_pruning(PruningConfig::new(2, 5)));
        let results = campaign.run_family(&[vec![1.0], vec![0.9]], 19);
        let n_prime = campaign.problem().config().optim_samples as u64;
        for r in &results {
            let step_sims: u64 = r.steps.iter().map(|s| s.sims).sum();
            assert_eq!(step_sims + r.init_sims, r.total_sims);
            assert_eq!(r.pruning.corners_simulated * n_prime, step_sims);
            if let Some(to_success) = r.sims_to_success {
                assert!(to_success <= r.total_sims);
                assert!(to_success >= r.init_sims);
            }
        }
    }

    #[test]
    fn run_with_streams_every_step_and_matches_run() {
        let campaign = SizingCampaign::new(toy(), quick().with_pruning(PruningConfig::new(2, 5)));
        let mut streamed: Vec<CampaignStep> = Vec::new();
        let observed = campaign.run_with(7, &mut |s| streamed.push(s.clone()));
        assert_eq!(streamed, observed.steps, "observer sees exactly the recorded trajectory");
        // The observer must not perturb the run.
        let plain =
            SizingCampaign::new(toy(), quick().with_pruning(PruningConfig::new(2, 5))).run(7);
        assert_eq!(observed.final_design, plain.final_design);
        assert_eq!(observed.total_sims, plain.total_sims);
        assert_eq!(observed.steps.len(), plain.steps.len());
    }

    #[test]
    fn campaign_is_deterministic_across_engines() {
        let mk = |engine| {
            SizingCampaign::new(
                toy(),
                quick().with_pruning(PruningConfig::new(2, 5)).with_engine(engine),
            )
            .run(13)
        };
        let seq = mk(EngineSpec::Sequential);
        let thr = mk(EngineSpec::Threaded(4));
        assert_eq!(seq.success, thr.success);
        assert_eq!(seq.final_design, thr.final_design);
        assert_eq!(seq.total_sims, thr.total_sims);
        assert_eq!(seq.steps.len(), thr.steps.len());
        for (a, b) in seq.steps.iter().zip(&thr.steps) {
            assert_eq!(a.worst_reward.to_bits(), b.worst_reward.to_bits());
            assert_eq!(a.sims, b.sims);
            assert_eq!(a.active_corners, b.active_corners);
        }
    }

    #[test]
    fn tight_goal_is_harder_than_base_spec() {
        // Scaling the Below-limit down tightens the spec; the toy optimum
        // region shrinks, so the goal reward can only be <= the base one.
        let base = SizingCampaign::new(toy(), quick()).run(17);
        let tight = SizingCampaign::new(toy(), quick().with_goal(vec![0.5])).run(17);
        assert!(base.success);
        assert!(tight.best_reward <= base.best_reward + 1e-12);
        assert_eq!(tight.goal_factors, Some(vec![0.5]));
    }

    #[test]
    fn goal_family_shares_one_agent() {
        let campaign = SizingCampaign::new(toy(), quick());
        let results = campaign.run_family(&[vec![1.0], vec![0.8]], 19);
        assert_eq!(results.len(), 2);
        assert!(results[0].success, "relaxed family member must be solvable");
        for (r, factors) in results.iter().zip([vec![1.0], vec![0.8]]) {
            assert_eq!(r.goal_factors, Some(factors));
        }
    }

    #[test]
    fn yield_estimate_reports_goal_spec_yield() {
        let config =
            CampaignConfig { yield_samples: 5, ..quick().with_pruning(PruningConfig::new(2, 5)) };
        let result = SizingCampaign::new(toy(), config).run(7);
        assert!(result.success);
        let y = result.yield_estimate.expect("requested yield estimate");
        let corners = result.steps.first().map_or(30, |s| s.corner_count) as u64;
        assert_eq!(y.samples, 5 * corners);
        assert!(y.yield_point > 0.5, "feasible design should mostly pass: {y}");
        // The estimate's sims are part of the campaign total.
        assert!(result.total_sims > result.sims_to_success.unwrap());
    }

    #[test]
    fn seeding_success_still_runs_the_requested_yield_estimate() {
        // A goal this loose is met by a seed design, so the campaign
        // succeeds before any policy step; the estimate it asked for must
        // still run, and its sims land in the total.
        let config = CampaignConfig { yield_samples: 5, ..quick().with_goal(vec![100.0]) };
        let result = SizingCampaign::new(toy(), config).run(7);
        assert!(result.success && result.steps.is_empty(), "goal must be met at seeding");
        assert_eq!(result.termination, CampaignTermination::Completed);
        assert_eq!(result.sims_to_success, Some(result.init_sims));
        let y = result.yield_estimate.expect("requested yield estimate");
        assert_eq!(y.samples, 30 * 5);
        assert_eq!(result.total_sims, result.init_sims + 150);
    }

    #[test]
    #[should_panic(expected = "goal factors must be finite and positive, got 0")]
    fn nonpositive_goal_factor_is_rejected_at_construction() {
        let chain: Arc<dyn Circuit> = Arc::new(glova_circuits::SpiceInverterChain::new(2));
        SizingCampaign::new(chain, quick().with_goal(vec![1.0, 0.0, 1.0]));
    }

    #[test]
    fn run_family_checks_every_goal_before_running_the_first() {
        let campaign = SizingCampaign::new(toy(), quick());
        let goals = [vec![1.0], vec![f64::NAN]];
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            campaign.run_family(&goals, 19);
        }));
        assert!(run.is_err(), "a NaN goal factor must be rejected");
        assert_eq!(campaign.problem().simulations(), 0, "no goal may run before the check");
    }

    #[test]
    #[should_panic(expected = "yield confidence must be in (0, 1)")]
    fn out_of_range_yield_confidence_is_rejected() {
        // A percentage instead of a fraction: caught at construction, not
        // after the campaign has paid for its yield sims.
        let config = CampaignConfig { yield_samples: 2, yield_confidence: 95.0, ..quick() };
        SizingCampaign::new(toy(), config);
    }
}
