//! Campaign determinism and pruning-parity battery.
//!
//! The campaign layer promises two things the in-crate unit tests only
//! spot-check:
//!
//! 1. **Engine-independence** — a campaign's full trajectory (per-step
//!    worst rewards, simulation counts, corner selections, the final
//!    design) is bitwise-identical whether the batched dispatches run on
//!    the sequential engine or a threaded one at any worker count. The
//!    determinism is by construction (conditions pre-sampled corner-major
//!    before dispatch, index-ordered collection, order-independent
//!    NaN-propagating reductions) — this battery checks the construction
//!    end-to-end on a SPICE-backed circuit, where every point is a real
//!    DC operating-point solve through per-worker solver pools.
//! 2. **Pruning parity** — RobustAnalog-style corner-set pruning may only
//!    change *which corners are simulated*, never what "success" means: a
//!    pruned campaign's final design must satisfy the goal spec at every
//!    corner of the full grid, re-checked here independently of the
//!    campaign's own confirmation dispatch.
//!
//! A golden digest ([`golden_campaign_digest`]) pins the bits of every
//! campaign path across builds: full and pruned runs, goals and a goal
//! family, every budget checkpoint, a seed success, an injected fault
//! plan, stagnation restarts and a SPICE run.

use glova::cache::EvalCacheConfig;
use glova::campaign::{
    CampaignConfig, CampaignControl, CampaignResult, CampaignTermination, PruningConfig,
    SizingCampaign,
};
use glova::engine::EngineSpec;
use glova::fault::{FaultKind, FaultPlan};
use glova_circuits::{Circuit, ToyQuadratic};
use glova_stats::hash::Fnv1a;
use glova_variation::config::VerificationMethod;
use glova_variation::sampler::MismatchVector;
use std::sync::Arc;

fn chain() -> Arc<dyn Circuit> {
    Arc::new(glova_circuits::SpiceInverterChain::new(8))
}

/// The perfsuite gate's inverter-chain goal: tight enough that the LHS
/// seeds fail and the policy loop actually runs.
fn config() -> CampaignConfig {
    CampaignConfig::quick(VerificationMethod::Corner)
        .with_cache(EvalCacheConfig::default())
        .with_goal(vec![0.44, 1.25, 0.4])
        .with_max_steps(60)
        .with_pruning(PruningConfig::new(5, 10))
}

fn run_with(engine: EngineSpec, seed: u64) -> CampaignResult {
    SizingCampaign::new(chain(), config().with_engine(engine)).run(seed)
}

/// Asserts two trajectories are bitwise-identical, step by step.
fn assert_trajectories_identical(a: &CampaignResult, b: &CampaignResult, label: &str) {
    assert_eq!(a.success, b.success, "{label}: success mismatch");
    assert_eq!(a.final_design, b.final_design, "{label}: final design mismatch");
    assert_eq!(a.best_reward.to_bits(), b.best_reward.to_bits(), "{label}: best reward");
    assert_eq!(a.init_sims, b.init_sims, "{label}: init sims");
    assert_eq!(a.sims_to_success, b.sims_to_success, "{label}: sims to success");
    assert_eq!(a.total_sims, b.total_sims, "{label}: total sims");
    assert_eq!(a.pruning, b.pruning, "{label}: pruning counters");
    assert_eq!(a.steps.len(), b.steps.len(), "{label}: step count");
    for (sa, sb) in a.steps.iter().zip(&b.steps) {
        assert_eq!(
            sa.worst_reward.to_bits(),
            sb.worst_reward.to_bits(),
            "{label}: step {} worst reward",
            sa.step
        );
        assert_eq!(
            sa.best_reward.to_bits(),
            sb.best_reward.to_bits(),
            "{label}: step {} best reward",
            sa.step
        );
        assert_eq!(sa.sims, sb.sims, "{label}: step {} sims", sa.step);
        assert_eq!(
            sa.active_corners, sb.active_corners,
            "{label}: step {} corner selection",
            sa.step
        );
        assert_eq!(sa.full_grid, sb.full_grid, "{label}: step {} coverage", sa.step);
        assert_eq!(
            sa.pass_fraction.to_bits(),
            sb.pass_fraction.to_bits(),
            "{label}: step {} pass fraction",
            sa.step
        );
    }
}

#[test]
fn spice_campaign_trajectory_is_engine_invariant() {
    let seq = run_with(EngineSpec::Sequential, 1);
    assert!(seq.success, "reference campaign must solve the gate goal");
    assert!(!seq.steps.is_empty(), "goal must force the policy loop to run");
    for workers in [2usize, 4] {
        let thr = run_with(EngineSpec::Threaded(workers), 1);
        assert_trajectories_identical(&seq, &thr, &format!("threaded:{workers}"));
    }
}

#[test]
fn engine_invariance_holds_on_a_failing_campaign() {
    // An unreachable goal exercises the full step budget — stagnation
    // restarts, re-rank cadence, noise resets — with no early exit.
    let hard = config().with_goal(vec![0.05, 1.25, 0.4]).with_max_steps(25);
    let mk = |engine| SizingCampaign::new(chain(), hard.clone().with_engine(engine)).run(3);
    let seq = mk(EngineSpec::Sequential);
    assert!(!seq.success, "goal chosen to be unreachable");
    assert_eq!(seq.steps.len(), 25, "failing campaign runs the whole budget");
    let thr = mk(EngineSpec::Threaded(4));
    assert_trajectories_identical(&seq, &thr, "failing campaign");
}

#[test]
fn pruned_final_design_is_feasible_on_the_full_grid() {
    let campaign = SizingCampaign::new(chain(), config());
    let result = campaign.run(1);
    assert!(result.success);
    assert!(result.pruning.pruned_steps > 0, "campaign must actually have pruned corner sets");
    assert!(
        result.steps.last().is_some_and(|s| s.full_grid),
        "the success step must have confirmed full-grid coverage"
    );

    // Independent re-check: the goal-scaled spec holds at every corner
    // of the grid, nominal mismatch.
    let x = result.final_design.expect("successful campaign carries a design");
    let goal_spec = campaign
        .problem()
        .circuit()
        .spec()
        .with_scaled_limits(result.goal_factors.as_ref().expect("goal campaign"));
    let corners = campaign.problem().config().corners.clone();
    for ci in 0..corners.len() {
        let h = MismatchVector::nominal(campaign.problem().circuit().mismatch_domain(&x).dim());
        let outcome = campaign.problem().simulate(&x, &corners.corner(ci), &h);
        assert!(
            goal_spec.satisfied(&outcome.metrics),
            "pruned-campaign design violates the goal spec at corner {ci}: {:?}",
            outcome.metrics
        );
    }
}

#[test]
fn pruning_only_changes_corner_selection_not_the_grid() {
    // Structural parity between the arms: identical seeding phase
    // (same sims before the first policy step) and identical corner
    // grid; the pruned arm's per-step simulations never exceed the full
    // arm's grid size times N'.
    let full =
        SizingCampaign::new(chain(), config().with_pruning(PruningConfig::new(30, 1))).run(1);
    let pruned = SizingCampaign::new(chain(), config()).run(1);
    assert_eq!(full.init_sims, pruned.init_sims, "seeding phase is pruning-independent");
    let grid = full.steps.first().map(|s| s.corner_count);
    assert_eq!(grid, pruned.steps.first().map(|s| s.corner_count));
    assert!(pruned.pruning.pruned_fraction() > 0.0);
    assert_eq!(full.pruning.pruned_fraction(), 0.0, "k = grid disables pruning");
    for s in &pruned.steps {
        assert!(s.active_corners <= s.corner_count);
        assert!(s.full_grid || s.active_corners == 5, "pruned plans use k corners");
    }
}

fn toy() -> Arc<dyn Circuit> {
    Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05))
}

/// A small agent on short budgets, so the golden runs in seconds in a
/// debug build.
fn small(method: VerificationMethod) -> CampaignConfig {
    CampaignConfig {
        hidden: vec![16, 16],
        updates_per_step: 2,
        pretrain_steps: 50,
        max_steps: 40,
        ..CampaignConfig::quick(method)
    }
}

fn pruned(method: VerificationMethod) -> CampaignConfig {
    small(method).with_pruning(PruningConfig::new(2, 5))
}

fn capped(campaign: &SizingCampaign, seed: u64, max_sims: u64) -> CampaignResult {
    let control = CampaignControl::new().with_max_sims(max_sims);
    campaign.run_controlled(seed, &control, &mut |_| {})
}

/// Absorbs every deterministic field of a result: all of it but `wall`.
fn absorb(h: &mut Fnv1a, r: &CampaignResult) {
    let slice = |h: &mut Fnv1a, x: Option<&[f64]>| match x {
        Some(x) => {
            h.write_u64(x.len() as u64);
            h.write_f64_slice(x);
        }
        None => h.write_u64(u64::MAX),
    };
    h.write_u64(u64::from(r.success));
    slice(h, r.final_design.as_deref());
    slice(h, Some(&r.best_design));
    h.write_f64(r.best_reward);
    h.write_u64(r.steps.len() as u64);
    for s in &r.steps {
        h.write_u64(s.step as u64);
        h.write_u64(s.active_corners as u64);
        h.write_u64(s.corner_count as u64);
        h.write_u64(s.sims);
        h.write_f64(s.worst_reward);
        h.write_f64(s.best_reward);
        h.write_f64(s.pass_fraction);
        h.write_u64(u64::from(s.full_grid));
    }
    h.write_u64(r.init_sims);
    h.write_u64(r.sims_to_success.unwrap_or(u64::MAX));
    h.write_u64(r.total_sims);
    match &r.yield_estimate {
        Some(y) => {
            h.write_u64(y.samples);
            h.write_u64(y.passes);
            h.write_f64(y.yield_point);
            h.write_f64(y.confidence_interval.0);
            h.write_f64(y.confidence_interval.1);
            h.write_f64(y.confidence);
            h.write_u64(y.worst_corner as u64);
            h.write_f64(y.worst_corner_yield);
        }
        None => h.write_u64(u64::MAX),
    }
    h.write_u64(r.pruning.full_steps);
    h.write_u64(r.pruning.pruned_steps);
    h.write_u64(r.pruning.corners_simulated);
    h.write_u64(r.pruning.corners_available);
    slice(h, r.goal_factors.as_deref());
    h.write_u64(match r.termination {
        CampaignTermination::Completed => 0,
        CampaignTermination::Cancelled => 1,
        CampaignTermination::BudgetExhausted => 2,
    });
    h.write_u64(r.failures.nonconvergent);
    h.write_u64(r.failures.recovered);
    h.write_u64(r.failures.degraded);
}

/// Pins the bits of every campaign path. Each budgeted case derives its
/// cap from the uncapped run it cuts short and asserts where it stopped,
/// so the cases keep covering what they name.
#[test]
fn golden_campaign_digest() {
    use VerificationMethod::{Corner as C, CornerLocalMc as Cl};
    let mut runs: Vec<(&str, CampaignResult)> = Vec::new();
    for (label, config) in [
        ("C full", small(C)),
        ("C pruned", pruned(C)),
        ("C-MCL full", small(Cl)),
        ("C-MCL pruned", pruned(Cl)),
        ("goal", pruned(C).with_goal(vec![0.8])),
    ] {
        runs.push((label, SizingCampaign::new(toy(), config).run(7)));
    }
    let family = SizingCampaign::new(toy(), pruned(C));
    for r in family.run_family(&[vec![1.0], vec![0.8], vec![0.6]], 11) {
        runs.push(("family", r));
    }

    // Budget checkpoints, cut from the uncapped goal run, which succeeds
    // on a confirmed pruned step: before the first seed, after one seed,
    // before a step, between a step's dispatch and its confirmation, and
    // before the yield estimate.
    let goal = || pruned(C).with_goal(vec![0.8]);
    let reference = runs[4].1.clone();
    let last = reference.steps.last().expect("the goal run takes steps");
    assert!(reference.success && last.full_grid && last.active_corners < last.corner_count);
    let before_last = reference.total_sims - last.sims;
    let campaign = SizingCampaign::new(toy(), goal());
    for (label, cap) in [
        ("cap before seeding", 10),
        ("cap in seeding", 45),
        ("cap at a step", before_last - 1),
        ("cap at the confirmation", before_last + last.active_corners as u64),
    ] {
        let r = capped(&campaign, 7, cap);
        assert_eq!(r.termination, CampaignTermination::BudgetExhausted, "{label}");
        assert!(!r.success && r.total_sims <= cap, "{label}");
        runs.push((label, r));
    }
    let confirmation = &runs.last().expect("just pushed").1;
    assert!(confirmation.steps.last().is_some_and(|s| !s.full_grid && s.worst_reward >= 0.0));
    let yielding = SizingCampaign::new(toy(), goal().with_yield_estimate(5));
    let r = capped(&yielding, 7, reference.total_sims + 149);
    assert!(r.success && r.yield_estimate.is_none(), "the estimate must not fit the cap");
    runs.push(("cap before the yield estimate", r));

    let loose = small(C).with_goal(vec![100.0]).with_yield_estimate(5);
    let r = SizingCampaign::new(toy(), loose).run(7);
    assert!(r.success && r.steps.is_empty() && r.yield_estimate.is_some());
    runs.push(("seed success with a yield estimate", r));

    let faults = Arc::new(FaultPlan::seeded(5, 2000, 40, FaultKind::NonConvergence));
    let r = SizingCampaign::new(toy(), small(Cl)).with_fault_plan(faults).run(7);
    runs.push(("NonConvergence faults", r));

    let stagnant = CampaignConfig { stagnation_restart: 3, ..small(C).with_goal(vec![0.01]) };
    let r = SizingCampaign::new(toy(), stagnant.with_max_steps(25)).run(7);
    assert!(!r.success && r.steps.len() == 25);
    runs.push(("stagnation restarts", r));

    let spice = CampaignConfig {
        hidden: vec![16, 16],
        updates_per_step: 2,
        pretrain_steps: 50,
        ..config().with_max_steps(8)
    };
    runs.push(("SPICE chain", SizingCampaign::new(chain(), spice).run(1)));

    let mut h = Fnv1a::new();
    let mut per_run = Vec::new();
    for (label, r) in &runs {
        absorb(&mut h, r);
        let mut one = Fnv1a::new();
        absorb(&mut one, r);
        per_run.push(format!("{label}: {:016x}", one.finish()));
    }
    assert_eq!(runs.len(), 17);
    let digest = h.finish();
    assert_eq!(
        digest,
        0x138d_3948_5547_f097,
        "campaign bits moved to {digest:016x}; per run:\n{}",
        per_run.join("\n")
    );
}
