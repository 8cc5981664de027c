//! Robustness battery for `glova-serve`: cancellation, budgets,
//! deterministic fault injection, priority scheduling, shed-load
//! backpressure and registry eviction.
//!
//! The contracts under test:
//!
//! - **Budget exactness** — a `max_sims` budget is a hard cap checked
//!   before every dispatch, so a budgeted job's simulation count never
//!   exceeds it, and the trajectory it did record is a bitwise prefix of
//!   the unbudgeted run (the control checks consume no RNG). A
//!   `max_wall` past the last representable instant sets no deadline.
//! - **Cancellation** — queued jobs cancel immediately to a terminal
//!   status without running; running jobs stop cooperatively with their
//!   partial trajectory preserved.
//! - **Fault isolation** — an injected panic fails only its own job;
//!   injected non-convergence degrades observations without unwinding;
//!   neither perturbs a concurrent clean job's trajectory by a single
//!   bit, even with a shared evaluation cache (injected outcomes bypass
//!   it by construction).
//! - **Eviction** — LRU-bounded registries hold ≤ `max_entries` across a
//!   1000-distinct-key churn, and forced expiry re-primes exactly once
//!   while outstanding handles stay alive.

use glova::cache::{CacheRegistry, EvalCache, EvalCacheConfig, RegistryConfig};
use glova::campaign::{CampaignConfig, CampaignResult, CampaignStep, CampaignTermination};
use glova::fault::{FaultKind, FaultPlan};
use glova::prelude::*;
use glova_circuits::FailureStats;
use glova_serve::{
    CampaignServer, CircuitSpec, JobBudget, JobPriority, JobStatus, ServeError, SizingRequest,
};
use glova_spice::mna::NewtonOptions;
use glova_spice::netlist::rc_ladder;
use glova_spice::registry::SolverRegistry;
use glova_stats::reduce::DIVERGED_REWARD;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn quick_config() -> CampaignConfig {
    CampaignConfig::quick(VerificationMethod::Corner)
        .with_max_steps(5)
        .with_cache(EvalCacheConfig::default())
}

fn chain_request(seed: u64) -> SizingRequest {
    SizingRequest::new(CircuitSpec::InverterChain { stages: 2 }, quick_config(), seed)
}

fn step_bits(s: &CampaignStep) -> (usize, usize, usize, u64, u64, u64, u64, bool) {
    (
        s.step,
        s.active_corners,
        s.corner_count,
        s.sims,
        s.worst_reward.to_bits(),
        s.best_reward.to_bits(),
        s.pass_fraction.to_bits(),
        s.full_grid,
    )
}

fn design_bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_trajectory(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.success, b.success);
    assert_eq!(
        a.final_design.as_deref().map(design_bits),
        b.final_design.as_deref().map(design_bits)
    );
    assert_eq!(design_bits(&a.best_design), design_bits(&b.best_design));
    assert_eq!(a.best_reward.to_bits(), b.best_reward.to_bits());
    assert_eq!(a.init_sims, b.init_sims);
    assert_eq!(a.total_sims, b.total_sims);
    assert_eq!(a.steps.len(), b.steps.len());
    for (sa, sb) in a.steps.iter().zip(&b.steps) {
        assert_eq!(step_bits(sa), step_bits(sb), "step {} diverged", sa.step);
    }
}

/// Fault-free single-job reference run.
fn reference_run(request: SizingRequest) -> CampaignResult {
    let server = CampaignServer::new(1);
    let id = server.submit(request).unwrap();
    let snapshot = server.wait(id).unwrap();
    assert_eq!(snapshot.status, JobStatus::Done);
    snapshot.result.unwrap()
}

/// Polls until the job leaves `Queued` (it is running or terminal).
fn wait_until_started(server: &CampaignServer, id: glova_serve::JobId) {
    loop {
        if server.snapshot(id).unwrap().status != JobStatus::Queued {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn budget_caps_sims_exactly_and_preserves_a_bitwise_prefix() {
    let reference = reference_run(chain_request(1));
    assert_eq!(reference.termination, CampaignTermination::Completed);
    assert_eq!(reference.failures, FailureStats::default(), "clean run has a clean ledger");
    assert!(
        reference.total_sims > reference.init_sims,
        "reference must run policy steps for the budget to bite"
    );
    // Cap the budget midway through the policy phase.
    let cap = reference.init_sims + (reference.total_sims - reference.init_sims) / 2;

    let server = CampaignServer::new(1);
    let id = server
        .submit(chain_request(1).with_budget(JobBudget::unlimited().with_max_sims(cap)))
        .unwrap();
    let snapshot = server.wait(id).unwrap();
    assert_eq!(snapshot.status, JobStatus::BudgetExhausted);
    let partial = snapshot.result.expect("budget exhaustion preserves the partial result");
    assert_eq!(partial.termination, CampaignTermination::BudgetExhausted);
    assert!(
        partial.total_sims <= cap,
        "budget is exact: {} sims ran against a cap of {cap}",
        partial.total_sims
    );
    assert!(!partial.steps.is_empty(), "partial trajectory must be preserved");
    assert_eq!(snapshot.steps.len(), partial.steps.len(), "streamed steps match the result");
    // Control checks consume no RNG, so every *fully completed* step is
    // bitwise identical to the unbudgeted run. (The final recorded step
    // may legitimately differ if the budget interrupted its
    // confirmation sweep, so it is excluded from the prefix.)
    let confirmed_prefix = partial.steps.len() - 1;
    for (sa, sb) in partial.steps[..confirmed_prefix].iter().zip(&reference.steps) {
        assert_eq!(step_bits(sa), step_bits(sb), "budgeted step {} diverged", sa.step);
    }
    assert_eq!(partial.init_sims, reference.init_sims);
    let report = server.shutdown();
    assert_eq!(report.jobs_budget_exhausted, 1);
}

/// A `max_wall` past the last representable instant sets no deadline:
/// the job runs to completion, and so does the job queued behind it on
/// the same worker. Polls under a bounded wait so that a worker killed by
/// the deadline arithmetic fails the test instead of hanging it.
#[test]
fn unbounded_max_wall_runs_to_completion_and_keeps_the_worker() {
    let server = CampaignServer::new(1);
    let unbounded = server
        .submit(chain_request(1).with_budget(JobBudget::unlimited().with_max_wall(Duration::MAX)))
        .unwrap();
    let behind = server.submit(chain_request(2)).unwrap();
    let give_up = Instant::now() + Duration::from_secs(120);
    let statuses = loop {
        let statuses = [unbounded, behind].map(|id| server.snapshot(id).unwrap().status);
        if statuses.iter().all(|s| !matches!(s, JobStatus::Queued | JobStatus::Running))
            || Instant::now() > give_up
        {
            break statuses;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(statuses, [JobStatus::Done, JobStatus::Done]);
    assert_eq!(server.shutdown().jobs_completed, 2);
}

#[test]
fn cancelling_a_running_job_stops_it_with_partial_trajectory() {
    // Slow faults stretch the run so the cancel reliably lands while
    // the campaign is in flight.
    let plan = Arc::new(FaultPlan::seeded(7, 4000, 60, FaultKind::Slow(Duration::from_millis(10))));
    let server = CampaignServer::new(1);
    let id = server.submit(chain_request(1).with_fault_plan(plan)).unwrap();
    wait_until_started(&server, id);
    let cancelled_at = Instant::now();
    server.cancel(id).unwrap();
    let snapshot = server.wait(id).unwrap();
    let latency = cancelled_at.elapsed();
    assert_eq!(snapshot.status, JobStatus::Cancelled);
    let partial = snapshot.result.expect("running-cancel preserves the partial result");
    assert_eq!(partial.termination, CampaignTermination::Cancelled);
    assert!(
        latency < Duration::from_secs(30),
        "cooperative cancel took {latency:?} — the control check is per dispatch, not per job"
    );
    // Cancelling again is a harmless no-op.
    server.cancel(id).unwrap();
    assert_eq!(server.wait(id).unwrap().status, JobStatus::Cancelled);
    let report = server.shutdown();
    assert_eq!(report.jobs_cancelled, 1);
}

#[test]
fn cancelling_a_queued_job_is_immediate_and_it_never_runs() {
    let slow = Arc::new(FaultPlan::seeded(3, 4000, 60, FaultKind::Slow(Duration::from_millis(10))));
    let server = CampaignServer::new(1);
    let running = server.submit(chain_request(1).with_fault_plan(slow)).unwrap();
    wait_until_started(&server, running);
    let queued = server.submit(chain_request(2)).unwrap();
    assert_eq!(server.queue_depth(), 1);
    server.cancel(queued).unwrap();
    // No wait needed: a queued cancel is terminal immediately.
    let snapshot = server.snapshot(queued).unwrap();
    assert_eq!(snapshot.status, JobStatus::Cancelled);
    assert!(snapshot.result.is_none(), "a job that never ran has no result");
    assert!(snapshot.steps.is_empty());
    assert_eq!(server.queue_depth(), 0);
    server.cancel(running).unwrap();
    let report = server.shutdown();
    assert_eq!(report.jobs_cancelled, 2);
}

#[test]
fn injected_panic_fails_one_job_and_leaves_neighbours_bitwise_intact() {
    let clean_a = reference_run(chain_request(1));
    let clean_b = reference_run(chain_request(3));

    let server = CampaignServer::new(2);
    let a = server.submit(chain_request(1)).unwrap();
    let poisoned = server
        .submit(
            chain_request(2)
                .with_fault_plan(Arc::new(FaultPlan::new().with_fault(120, FaultKind::Panic))),
        )
        .unwrap();
    let b = server.submit(chain_request(3)).unwrap();

    let failed = server.wait(poisoned).unwrap();
    assert_eq!(failed.status, JobStatus::Failed);
    assert!(
        failed.error.as_deref().unwrap_or("").contains("injected fault"),
        "panic message must surface in the snapshot"
    );
    // The neighbours — same topology, same shared cache — are untouched.
    assert_same_trajectory(&clean_a, &server.wait(a).unwrap().result.unwrap());
    assert_same_trajectory(&clean_b, &server.wait(b).unwrap().result.unwrap());
    let report = server.shutdown();
    assert_eq!((report.jobs_completed, report.jobs_failed), (2, 1));
}

#[test]
fn injected_nonconvergence_degrades_without_unwinding_or_polluting_the_cache() {
    let reference = reference_run(chain_request(5));
    let server = CampaignServer::new(1);
    // Degrade a handful of evaluations past the seeding sweep, so they
    // land in policy steps: the campaign must absorb them as worst-reward
    // observations and still terminate normally.
    let faults: Vec<u64> = [3, 40, 75].iter().map(|k| reference.init_sims + k).collect();
    let plan = faults.iter().fold(FaultPlan::new(), |plan, &ordinal| {
        plan.with_fault(ordinal, FaultKind::NonConvergence)
    });
    let faulted = server.submit(chain_request(5).with_fault_plan(Arc::new(plan))).unwrap();
    let snapshot = server.wait(faulted).unwrap();
    assert_eq!(snapshot.status, JobStatus::Done, "degraded observations must not unwind the job");
    let degraded = snapshot.result.unwrap();
    assert_eq!(degraded.termination, CampaignTermination::Completed);
    assert_eq!(degraded.total_sims, reference.total_sims, "accounting counts requests, not faults");

    // A diverged evaluation poisons its step: the step's worst reward is
    // the decisively infeasible stand-in, never a score a real design
    // could beat.
    let mut first_ordinal = degraded.init_sims;
    let mut faulted_steps = 0;
    for step in &degraded.steps {
        let ordinals = first_ordinal..first_ordinal + step.sims;
        if faults.iter().any(|o| ordinals.contains(o)) {
            assert_eq!(step.worst_reward, DIVERGED_REWARD, "step {} holds a fault", step.step);
            faulted_steps += 1;
        }
        first_ordinal = ordinals.end;
    }
    assert_eq!(faulted_steps, faults.len(), "every fault lands in its own policy step");

    // The same request fault-free on the same (warm, shared-cache)
    // server must replay the clean reference exactly: injected outcomes
    // bypass the cache, so none of the NaN degradations leaked into it.
    let clean = server.submit(chain_request(5)).unwrap();
    assert_same_trajectory(&reference, &server.wait(clean).unwrap().result.unwrap());
    server.shutdown();
}

#[test]
fn slow_faults_change_wall_time_only() {
    let reference = reference_run(chain_request(1));
    let slowed = {
        let server = CampaignServer::new(1);
        let id = server
            .submit(chain_request(1).with_fault_plan(Arc::new(FaultPlan::seeded(
                9,
                1000,
                20,
                FaultKind::Slow(Duration::from_millis(2)),
            ))))
            .unwrap();
        let snapshot = server.wait(id).unwrap();
        assert_eq!(snapshot.status, JobStatus::Done);
        snapshot.result.unwrap()
    };
    assert_same_trajectory(&reference, &slowed);
}

#[test]
fn interactive_jobs_overtake_queued_batch_work() {
    let slow = Arc::new(FaultPlan::seeded(5, 4000, 60, FaultKind::Slow(Duration::from_millis(10))));
    let server = CampaignServer::new(1);
    let running = server.submit(chain_request(1).with_fault_plan(slow)).unwrap();
    wait_until_started(&server, running);
    // Batch submitted first, interactive second — the worker must pop
    // the interactive job first anyway.
    let batch = server.submit(chain_request(2)).unwrap();
    let interactive =
        server.submit(chain_request(3).with_priority(JobPriority::Interactive)).unwrap();
    assert_eq!(server.queue_depth(), 2);
    server.cancel(running).unwrap();
    let probe = server.wait(interactive).unwrap();
    assert_eq!(probe.status, JobStatus::Done);
    // The single worker ran the interactive probe to completion before
    // even starting the batch job, so the batch job cannot be terminal
    // yet.
    assert!(
        !server.snapshot(batch).unwrap().status.is_terminal(),
        "batch job must not finish before the later-submitted interactive probe"
    );
    assert_eq!(server.wait(batch).unwrap().status, JobStatus::Done);
    server.shutdown();
}

#[test]
fn full_queue_sheds_load_and_reports_high_water() {
    let slow =
        Arc::new(FaultPlan::seeded(13, 4000, 60, FaultKind::Slow(Duration::from_millis(10))));
    let server = CampaignServer::new(1).with_queue_capacity(2);
    let running = server.submit(chain_request(1).with_fault_plan(slow)).unwrap();
    wait_until_started(&server, running);
    let q1 = server.submit(chain_request(2)).unwrap();
    let q2 = server.submit(chain_request(3)).unwrap();
    assert_eq!(server.queue_depth(), 2);
    match server.submit(chain_request(4)) {
        Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Shed load is a fast-fail, not a silent drop: nothing was enqueued.
    assert_eq!(server.queue_depth(), 2);
    // Immediate shutdown drains the queued jobs into terminal Cancelled
    // (no silent disappearance) and cancels the running one.
    let report = server.shutdown_now();
    assert_eq!(report.jobs_cancelled, 3, "running + two queued jobs all land in Cancelled");
    assert_eq!(report.jobs_completed, 0);
    assert_eq!(report.queue_high_water, 2);
    let _ = (q1, q2);
}

#[test]
fn forced_registry_expiry_reprimes_once_and_changes_nothing() {
    let solvers = Arc::new(SolverRegistry::new());
    let caches = Arc::new(CacheRegistry::new());
    let server = CampaignServer::with_registries(1, solvers.clone(), caches.clone());
    let first = server.submit(chain_request(4)).unwrap();
    let cold = server.wait(first).unwrap().result.unwrap();
    assert_eq!(solvers.primes(), 1);

    // Expire everything while the server (and any in-flight circuit)
    // may still hold Arc handles — the next request re-primes exactly
    // once and replays the identical trajectory.
    solvers.force_expire_all();
    caches.force_expire_all();
    let second = server.submit(chain_request(4)).unwrap();
    let warm = server.wait(second).unwrap().result.unwrap();
    assert_same_trajectory(&cold, &warm);
    assert_eq!(solvers.primes(), 2, "exactly one re-prime after expiry");
    assert_eq!(solvers.evictions(), 1);
    assert_eq!(caches.creations(), 2, "exactly one cache re-create after expiry");
    server.shutdown();
}

#[test]
fn bounded_registries_hold_max_entries_across_thousand_key_churn() {
    // Solver registry: 1000 distinct (topology × options) keys via
    // distinct Newton tolerances on one tiny ladder — cheap primes,
    // genuine distinct entries.
    let solvers = SolverRegistry::with_config(RegistryConfig::default().with_max_entries(8));
    let ladder = rc_ladder(2, 1e3, 1e-12);
    for i in 0..1000u32 {
        let options = NewtonOptions {
            tolerance: 1e-9 * (1.0 + f64::from(i) * 1e-3),
            ..NewtonOptions::default()
        };
        solvers.pool_for(ladder.clone(), options).unwrap();
        assert!(solvers.len() <= 8, "solver registry cap must hold at every step");
    }
    assert_eq!(solvers.len(), 8);
    assert_eq!(solvers.evictions(), 992);

    // Cache registry: 1000 distinct identities.
    let caches = CacheRegistry::with_config(RegistryConfig::default().with_max_entries(8));
    for i in 0..1000u64 {
        caches.get_or_insert_with(&[i], EvalCacheConfig::default(), EvalCache::new);
        assert!(caches.len() <= 8, "cache registry cap must hold at every step");
    }
    assert_eq!(caches.len(), 8);
    assert_eq!(caches.evictions(), 992);
}
