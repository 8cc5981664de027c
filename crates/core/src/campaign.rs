//! End-to-end risk-sensitive sizing campaigns over the engine layer.
//!
//! A *campaign* is the production-shaped configuration of the paper's
//! sizing loop (see [`crate::optimizer`]): Latin-hypercube initial designs
//! on the full corner grid, then per policy step one engine dispatch over
//! the step's candidate × corner × mismatch grid (via
//! [`SizingProblem::simulate_selected_corners`]), so per-worker SPICE
//! solver pools, value-only retargeting and the
//! [`EvalCache`](crate::cache::EvalCache) stay hot across the whole run.
//! A design is signed off once every `N'` sample on every corner meets
//! the spec. Two throughput ideas from the related work slot onto that
//! batched dispatch:
//!
//! - **Corner-set pruning** (RobustAnalog, Shi et al.): the loop tracks
//!   the most recent worst reward per corner and simulates only the
//!   current `k`-worst set, re-ranking the full grid every `R` steps
//!   ([`PruningConfig`]). A candidate that satisfies the active set is
//!   *confirmed* on the remaining corners before being declared feasible,
//!   so pruning never weakens the success criterion — it only skips
//!   simulations on corners that were not close to binding.
//! - **Goal conditioning** (PPAAS, Kim et al.): the spec target — encoded
//!   as per-metric limit scale factors
//!   ([`DesignSpec::with_scaled_limits`](glova_circuits::spec::DesignSpec::with_scaled_limits))
//!   — is appended to the agent's observation, so one agent generalizes
//!   across a spec family ([`SizingCampaign::run_family`]) instead of
//!   being retrained per target.
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
use crate::optimizer::{SignOff, SizingLoop};
use crate::problem::SizingProblem;
use crate::robustanalog::{dominant_corners, CLUSTERS, RECLUSTER_EVERY};
use crate::yield_est::{estimate_yield_against, YieldEstimate};
use glova_circuits::{Circuit, FailureStats};
use glova_rl::{AgentConfig, LastWorstBuffer, RiskSensitiveAgent};
use glova_stats::rng::{fork, forked, Rng64};
use glova_turbo::latin_hypercube;
use glova_variation::config::VerificationMethod;
use glova_variation::corner::CornerSet;
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

/// Which corners each step of the sizing loop simulates.
#[derive(Debug, Clone)]
pub(crate) enum CornerPolicy {
    /// The corner with the lowest last worst reward (GLOVA).
    LastWorst,
    /// The worst corner of each k-means cluster of these corners,
    /// re-clustered every [`RECLUSTER_EVERY`] steps (RobustAnalog).
    Clusters(CornerSet),
    /// The full grid, or with pruning the `k` worst corners and the full
    /// grid every `rerank_every`-th step (campaigns; PVTSizing runs the
    /// full grid).
    Grid(Option<PruningConfig>),
}

/// The per-corner last-worst buffer, and the [`CornerPolicy`] that plans
/// each step's corners from it.
///
/// The buffer keeps the most recent worst reward seen per corner (`-∞`
/// until first visited; an unranked corner forces a full grid step). A
/// pruned grid step selects the `k` corners with the lowest recorded
/// worst reward, ties broken by index. Every plan is in ascending index
/// order, so condition sampling stays corner-major deterministic.
#[derive(Debug, Clone)]
pub(crate) struct CornerScheduler {
    worst: LastWorstBuffer,
    policy: CornerPolicy,
    /// Steps since the grid was re-ranked or the corners re-clustered.
    since_refresh: usize,
    clusters: Vec<usize>,
    stats: PruningStats,
}

impl CornerScheduler {
    /// Creates a scheduler over `corner_count` corners.
    pub(crate) fn new(corner_count: usize, policy: CornerPolicy) -> Self {
        Self {
            worst: LastWorstBuffer::new(corner_count),
            policy,
            since_refresh: 0,
            clusters: Vec::new(),
            stats: PruningStats::default(),
        }
    }

    /// Cumulative scheduling counters.
    pub(crate) fn stats(&self) -> &PruningStats {
        &self.stats
    }

    /// Records the worst reward observed at `corner_index` (most recent
    /// observation wins).
    pub(crate) fn record(&mut self, corner_index: usize, worst_reward: f64) {
        self.worst.record(corner_index, worst_reward);
    }

    /// Corner indices worst first — Algorithm 2's visiting order.
    pub(crate) fn corners_worst_first(&self) -> Vec<usize> {
        self.worst.corners_worst_first()
    }

    /// Whether the next grid step covers the full grid: pruning is off,
    /// `k` covers the grid, a corner is still unranked, or the re-rank
    /// cadence is due.
    fn full_grid_due(&self) -> bool {
        let n = self.worst.len();
        match &self.policy {
            CornerPolicy::Grid(Some(p)) => {
                p.k >= n
                    || (0..n).any(|ci| self.worst.last(ci) == f64::NEG_INFINITY)
                    || self.since_refresh + 1 >= p.rerank_every
            }
            _ => true,
        }
    }

    /// The most corners the next step simulates, found without planning
    /// it: pricing moves no counter and draws no sample, so pricing an
    /// untaken step disturbs nothing. Re-clustering draws samples, so the
    /// cluster policy is priced by its bound.
    pub(crate) fn next_step_corners(&self) -> usize {
        match &self.policy {
            CornerPolicy::LastWorst => 1,
            CornerPolicy::Clusters(_) => CLUSTERS.min(self.worst.len()),
            CornerPolicy::Grid(Some(p)) if !self.full_grid_due() => p.k,
            CornerPolicy::Grid(_) => self.worst.len(),
        }
    }

    /// Plans the next step's corners, ascending, and updates the counters.
    /// Only re-clustering draws from `rng`.
    pub(crate) fn plan_step(&mut self, rng: &mut Rng64) -> Vec<usize> {
        let n = self.worst.len();
        let corners = match &self.policy {
            CornerPolicy::LastWorst => vec![self.worst.worst_corner()],
            CornerPolicy::Clusters(set) => {
                if self.since_refresh == 0 {
                    self.clusters = dominant_corners(set, &self.worst, rng);
                }
                self.clusters.clone()
            }
            CornerPolicy::Grid(Some(p)) if !self.full_grid_due() => {
                let mut k_worst: Vec<usize> =
                    self.worst.corners_worst_first().into_iter().take(p.k).collect();
                k_worst.sort_unstable();
                k_worst
            }
            CornerPolicy::Grid(_) => (0..n).collect(),
        };
        let full = corners.len() == n;
        self.since_refresh = match &self.policy {
            CornerPolicy::Clusters(_) => (self.since_refresh + 1) % RECLUSTER_EVERY,
            _ if full => 0,
            _ => self.since_refresh + 1,
        };
        if full {
            self.stats.full_steps += 1;
        } else {
            self.stats.pruned_steps += 1;
        }
        self.stats.corners_simulated += corners.len() as u64;
        self.stats.corners_available += n as u64;
        corners
    }

    /// Notes that a feasibility-confirmation dispatch simulated
    /// `corners_confirmed` extra corner slots outside
    /// [`Self::plan_step`]: resets the re-rank clock (the confirmation
    /// refreshed every ranking) and counts the slots into
    /// [`PruningStats::corners_simulated`].
    ///
    /// Counting them keeps [`PruningStats::pruned_fraction`] honest on
    /// exactly the campaigns where confirmations fire most:
    /// `corners_simulated × N'` equals the simulations the steps paid.
    /// `corners_available` is untouched: the step's full-grid denominator
    /// was already added by [`Self::plan_step`], and a confirmed step
    /// costs exactly a full-grid step, driving its marginal pruned
    /// fraction to zero.
    pub(crate) fn note_confirmation(&mut self, corners_confirmed: usize) {
        self.since_refresh = 0;
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
            // Saturating: a price that wrapped would let the budget pay it.
            if sims_used.saturating_add(next_cost) > max {
                return Some(CampaignTermination::BudgetExhausted);
            }
        }
        None
    }
}

/// Campaign configuration.
///
/// Mirrors [`GlovaConfig`](crate::optimizer::GlovaConfig) where the two
/// configurations of the sizing loop overlap (agent hyperparameters,
/// engine/cache selection) and adds the campaign-only knobs: corner
/// pruning, goal conditioning and the final yield estimate.
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

    /// Checks the rules a campaign over a circuit with `metric_count`
    /// spec metrics needs: at least one seed design; a positive ensemble
    /// size, hidden width and batch size (the agent panics on the first
    /// two, and a zero batch trains nothing); a pruning schedule with a
    /// positive `k` and re-rank cadence (the fields are public, so a
    /// literal can bypass [`PruningConfig::new`]); a yield confidence in
    /// `(0, 1)` whenever a yield estimate is asked for; and one finite,
    /// positive goal factor per metric. [`SizingCampaign::new`] panics on
    /// a broken rule, and `glova-serve` rejects the request.
    ///
    /// # Errors
    ///
    /// A message naming the first rule broken.
    pub fn check(&self, metric_count: usize) -> Result<(), String> {
        let rule = |holds: bool, why: &str| if holds { Ok(()) } else { Err(why.to_string()) };
        rule(self.init_designs > 0, "need at least one seed design")?;
        rule(self.ensemble_size > 0, "ensemble_size must be positive")?;
        rule(!self.hidden.contains(&0), "hidden widths must be positive")?;
        rule(self.batch_size > 0, "batch_size must be positive")?;
        if let Some(p) = &self.pruning {
            rule(p.k > 0, "need at least one active corner")?;
            rule(p.rerank_every > 0, "re-rank cadence must be positive")?;
        }
        if self.yield_samples > 0 && !(self.yield_confidence > 0.0 && self.yield_confidence < 1.0) {
            return Err(format!(
                "yield confidence must be in (0, 1), got {}",
                self.yield_confidence
            ));
        }
        match &self.goal_factors {
            Some(factors) => check_goal_factors(factors, metric_count),
            None => Ok(()),
        }
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
/// [`DesignSpec::with_scaled_limits`](glova_circuits::spec::DesignSpec::with_scaled_limits)
/// needs.
fn check_goal_factors(factors: &[f64], metric_count: usize) -> Result<(), String> {
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
    /// Panics with the message of [`CampaignConfig::check`] if `config`
    /// breaks one of its rules against the circuit's spec — among them a
    /// zero ensemble size, hidden width or batch size, which the agent
    /// cannot train with.
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
        config.check(circuit.spec().len()).unwrap_or_else(|why| panic!("{why}"));
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
        let factors = self.config.goal_factors.as_deref();
        let mut agent = self.make_agent(factors.map_or(0, <[f64]>::len), &mut forked(seed, 2));
        self.run_goal(&mut agent, factors, seed, control, on_step)
    }

    /// Runs one campaign per goal **sharing a single agent** — the
    /// PPAAS-style spec-family mode. Observations carry the goal factors,
    /// so experience from earlier goals transfers to later ones through
    /// the shared replay buffer and networks.
    ///
    /// # Panics
    ///
    /// Panics if `goals` is empty or any goal is not one finite, positive
    /// factor per spec metric — checked for every goal before the first
    /// one runs.
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
                let seed = fork(seed, 100 + i as u64);
                self.run_goal(&mut agent, Some(factors), seed, &control, &mut |_| {})
            })
            .collect()
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

    /// One campaign for one goal: the sizing loop from Latin-hypercube
    /// initial designs under the grid sign-off, then the yield estimate.
    /// `agent` may carry experience from earlier goals of a family run;
    /// its goal dimension must equal the factor count.
    fn run_goal(
        &self,
        agent: &mut RiskSensitiveAgent,
        goal_factors: Option<&[f64]>,
        seed: u64,
        control: &CampaignControl,
        on_step: &mut dyn FnMut(&CampaignStep),
    ) -> CampaignResult {
        let start = Instant::now();
        let sims_start = self.problem.simulations();
        let failures_start = self.problem.circuit().failure_stats();
        let base = self.problem.circuit().spec();
        let goal_spec = goal_factors.map(|f| base.with_scaled_limits(f));
        let sizing = SizingLoop {
            problem: &self.problem,
            spec: goal_spec.as_ref().unwrap_or(base),
            goal_obs: goal_factors.unwrap_or_default(),
            corners: CornerPolicy::Grid(self.config.pruning.clone()),
            sign_off: SignOff::Grid,
            max_steps: self.config.max_steps,
            pretrain_steps: self.config.pretrain_steps,
            stagnation_restart: self.config.stagnation_restart,
            trace: false,
        };
        let initial =
            latin_hypercube(self.config.init_designs, self.problem.dim(), &mut forked(seed, 1));
        let mut sample_rng = forked(seed, 3);
        let out =
            sizing.run(&initial, agent, &mut forked(seed, 4), &mut sample_rng, control, on_step);

        // ---- Final yield estimate (goal-spec, fresh dies) ---------------
        // The estimate is a post-success extra: it never fires on an
        // interrupted campaign and is itself subject to the budget. Its
        // price saturates, so a huge sample count cannot wrap to a price
        // the budget pays.
        let corners = self.problem.config().corners.len() as u64;
        let yield_cost = corners.saturating_mul(self.config.yield_samples as u64);
        let yield_estimate = match (&out.final_design, self.config.yield_samples) {
            (Some(x), samples)
                if samples > 0
                    && control
                        .interruption(self.problem.simulations() - sims_start, yield_cost)
                        .is_none() =>
            {
                Some(estimate_yield_against(
                    &self.problem,
                    sizing.spec,
                    x,
                    samples,
                    self.config.yield_confidence,
                    &mut sample_rng,
                ))
            }
            _ => None,
        };

        // Interrupted before the first initial design, no incumbent exists.
        let (best_design, best_reward) = out.best.unwrap_or((Vec::new(), f64::NEG_INFINITY));
        CampaignResult {
            success: out.final_design.is_some(),
            final_design: out.final_design,
            best_design,
            best_reward,
            steps: out.steps,
            init_sims: out.init_sims,
            sims_to_success: out.sims_to_success,
            total_sims: self.problem.simulations() - sims_start,
            yield_estimate,
            pruning: out.pruning,
            goal_factors: goal_factors.map(<[f64]>::to_vec),
            termination: out.termination,
            failures: self.problem.circuit().failure_stats().since(failures_start),
            wall: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineSpec;
    use glova_circuits::spec::SATISFIED_REWARD;
    use glova_circuits::ToyQuadratic;
    use glova_variation::corner::PvtCorner;

    fn toy() -> Arc<dyn Circuit> {
        Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05))
    }

    fn quick() -> CampaignConfig {
        CampaignConfig::quick(VerificationMethod::Corner)
    }

    // ---- CornerScheduler ------------------------------------------------

    fn grid(corner_count: usize, pruning: Option<PruningConfig>) -> CornerScheduler {
        CornerScheduler::new(corner_count, CornerPolicy::Grid(pruning))
    }

    /// Plans a grid step; grid plans draw no samples.
    fn plan(s: &mut CornerScheduler) -> Vec<usize> {
        s.plan_step(&mut glova_stats::rng::seeded(0))
    }

    #[test]
    fn scheduler_without_pruning_always_plans_full() {
        let mut s = grid(6, None);
        for _ in 0..5 {
            assert_eq!(plan(&mut s), vec![0, 1, 2, 3, 4, 5]);
        }
        assert_eq!(s.stats().pruned_steps, 0);
        assert_eq!(s.stats().pruned_fraction(), 0.0);
    }

    #[test]
    fn scheduler_selects_k_worst_in_index_order() {
        let mut s = grid(5, Some(PruningConfig::new(2, 100)));
        // Unranked corners force a full step first.
        assert_eq!(plan(&mut s).len(), 5);
        for (ci, w) in [(0, 0.1), (1, -0.5), (2, 0.2), (3, -0.9), (4, 0.0)] {
            s.record(ci, w);
        }
        // Worst two are corners 3 (−0.9) and 1 (−0.5), ascending order.
        assert_eq!(plan(&mut s), vec![1, 3]);
    }

    #[test]
    fn scheduler_reranks_on_cadence() {
        let mut s = grid(4, Some(PruningConfig::new(1, 3)));
        for ci in 0..4 {
            s.record(ci, ci as f64);
        }
        let pattern: Vec<bool> = (0..7)
            .map(|_| {
                let priced = s.next_step_corners();
                let corners = plan(&mut s);
                assert_eq!(priced, corners.len(), "pricing matches the plan");
                corners.len() == 4
            })
            .collect();
        // Period 3: two pruned steps, then a full re-rank.
        assert_eq!(pattern, vec![false, false, true, false, false, true, false]);
        assert_eq!(s.stats().full_steps, 2);
        assert_eq!(s.stats().pruned_steps, 5);
        assert!(s.stats().pruned_fraction() > 0.5);
    }

    #[test]
    fn scheduler_ties_break_by_index() {
        let mut s = grid(4, Some(PruningConfig::new(2, 100)));
        for ci in 0..4 {
            s.record(ci, -1.0);
        }
        assert_eq!(plan(&mut s), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "re-rank cadence must be positive")]
    fn zero_cadence_panics() {
        PruningConfig::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "need at least one active corner")]
    fn scheduler_rejects_a_zero_k_literal() {
        let config =
            CampaignConfig { pruning: Some(PruningConfig { k: 0, rerank_every: 10 }), ..quick() };
        SizingCampaign::new(toy(), config);
    }

    #[test]
    fn confirmation_slots_count_as_simulated() {
        // Regression: a feasibility confirmation simulates the complement
        // of the pruned set, but those slots used to go uncounted —
        // `pruned_fraction` over-stated savings on every confirmed step.
        let mut s = grid(6, Some(PruningConfig::new(2, 100)));
        assert_eq!(plan(&mut s).len(), 6); // unranked corners force a full step
        for ci in 0..6 {
            s.record(ci, ci as f64);
        }
        assert_eq!(plan(&mut s).len(), 2);
        s.note_confirmation(4); // the confirmation covered the other 4
        let stats = s.stats();
        assert_eq!(stats.corners_simulated, 6 + 2 + 4);
        assert_eq!(stats.corners_available, 12);
        // A confirmed pruned step costs exactly a full step: its marginal
        // pruned fraction is zero.
        assert_eq!(stats.pruned_fraction(), 0.0);
        // The confirmation also reset the re-rank clock.
        assert_eq!(plan(&mut s).len(), 2, "fresh clock: next step prunes again");
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
    fn a_huge_yield_estimate_cannot_wrap_its_price_under_a_budget() {
        // Regression: 30 corners × this count wrapped to a price of 14
        // sims, so a 200-sim budget let the estimate start, and the run
        // panicked allocating it (on the multiplication in a debug build).
        let config = quick().with_goal(vec![100.0]).with_yield_estimate(614_891_469_123_651_721);
        let control = CampaignControl::new().with_max_sims(200);
        let result = SizingCampaign::new(toy(), config).run_controlled(7, &control, &mut |_| {});
        assert!(result.success && result.steps.is_empty(), "goal must be met at seeding");
        assert!(result.yield_estimate.is_none(), "the budget cannot pay the estimate");
        assert_eq!(result.total_sims, result.init_sims);
        assert!(result.total_sims <= 200);
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
