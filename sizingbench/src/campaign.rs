//! `campaign_spice`: risk-sensitive sizing campaigns
//! (`SizingCampaign::run`) over the SPICE testcases, full-grid and
//! pruned arms, closed loop, each job with a private cache. Circuit
//! evaluation dominates the wall and the cache is only written.

use crate::common::{
    check_rounds, closed_loop, emit_end_to_end, feasible_on_full_grid, goal_spec, peak_rss_mb,
    run_campaign, timed_setup, workload_digest, Args, CampaignRun, Layers, Pass, Report, Rounds,
    HOST_SAMPLES,
};
use glova::cache::{CachePolicy, EvalCacheConfig};
use glova::campaign::{CampaignConfig, PruningConfig};
use glova_circuits::{Circuit, SpiceInverterChain, SpiceOta, SpiceSenseAmpArray};
use glova_spice::dc::OpSolverPool;
use glova_variation::config::VerificationMethod;
use sizingbench::calibrate::HostSpeed;
use sizingbench::schedule::SplitMix64;
use std::sync::Arc;
use std::time::Duration;

/// A SPICE testcase kept with its concrete type, so the benchmark can
/// read its solver-pool counters.
pub enum Spice {
    Ota(Arc<SpiceOta>),
    Chain(Arc<SpiceInverterChain>),
    Array(Arc<SpiceSenseAmpArray>),
}

impl Spice {
    pub fn circuit(&self) -> Arc<dyn Circuit> {
        match self {
            Spice::Ota(c) => c.clone(),
            Spice::Chain(c) => c.clone(),
            Spice::Array(c) => c.clone(),
        }
    }

    pub fn pool(&self) -> &OpSolverPool {
        match self {
            Spice::Ota(c) => c.solver_pool(),
            Spice::Chain(c) => c.solver_pool(),
            Spice::Array(c) => c.solver_pool(),
        }
    }
}

/// Inverter-chain length of every workload.
pub const CHAIN_STAGES: usize = 8;
/// Sense-amp array shape of this workload.
const ARRAY_SHAPE: (usize, usize) = (12, 12);
/// Step budget per campaign: 60 keeps a round near 2 s, so a run holds
/// enough rounds for per-job medians to ride out the host's bursts.
const STEPS: usize = 60;
/// A fixed seed list, for the reason given on the paper workload's.
const JOB_SEEDS: [u64; 1] = [1];
const SETUP_BATCHES: usize = 15;

/// `(circuit index, method, goal factors)`: the `campaign` bin's
/// per-circuit goals, which tighten each base spec past what seed designs
/// meet. The bin's array goal is set for a 5×4 array and the seed designs
/// of the 12×12 array already meet it, so that goal is tightened here;
/// the array runs corners only, since under C-MCL one array job outlasts
/// the rest of the round together.
const CASES: [(usize, VerificationMethod, [f64; 3]); 3] = [
    (0, VerificationMethod::CornerLocalMc, [1.4, 5.0, 0.5]),
    (1, VerificationMethod::CornerLocalMc, [0.44, 1.25, 0.4]),
    (2, VerificationMethod::Corner, [2.5, 0.5, 0.5]),
];
const CIRCUIT_NAMES: [&str; 3] = ["SpiceOta", "SpiceInverterChain", "SpiceSenseAmpArray"];

fn build() -> [Spice; 3] {
    [
        Spice::Ota(Arc::new(SpiceOta::new())),
        Spice::Chain(Arc::new(SpiceInverterChain::new(CHAIN_STAGES))),
        Spice::Array(Arc::new(SpiceSenseAmpArray::new(ARRAY_SHAPE.0, ARRAY_SHAPE.1))),
    ]
}

struct Job {
    circuit: usize,
    config: CampaignConfig,
    seed: u64,
}

/// The job list: every case, both arms, every job seed, in an order
/// drawn from the workload seed.
fn jobs(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for &(circuit, method, goal) in &CASES {
        for &job_seed in &JOB_SEEDS {
            let base = CampaignConfig::quick(method)
                .with_cache(EvalCacheConfig::with_policy(CachePolicy::On))
                .with_goal(goal.to_vec())
                .with_max_steps(STEPS);
            for config in [base.clone(), base.with_pruning(PruningConfig::new(5, 10))] {
                jobs.push(Job { circuit, config, seed: job_seed });
            }
        }
    }
    SplitMix64::new(seed).shuffle(&mut jobs);
    jobs
}

fn pass(
    circuits: &[Spice; 3],
    jobs: &[Job],
    rounds: Rounds,
    host: &mut HostSpeed,
    traced: bool,
) -> Pass<CampaignRun> {
    closed_loop(jobs.len(), rounds, host, |j| {
        let job = &jobs[j];
        run_campaign(&circuits[job.circuit].circuit(), &job.config, None, job.seed, traced)
    })
}

fn arm(config: &CampaignConfig) -> &'static str {
    if config.pruning.is_some() {
        "pruned"
    } else {
        "full"
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new("campaign_spice");
    let setup_factor = report.host.sample(HOST_SAMPLES);
    let (setup_s, circuits) = timed_setup(SETUP_BATCHES, 1, build);
    let jobs = jobs(args.seed);
    let budget =
        Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let plain = pass(&circuits, &jobs, Rounds::Fill(budget), &mut report.host, false);
    let rss = peak_rss_mb();
    report.attempted = plain.execs.len() as u64;
    check_rounds(&mut report, &plain, |o| o.digest);

    let first = plain.first_round();
    for (job, e) in jobs.iter().zip(first) {
        let r = &e.outcome.result;
        report.note(format!(
            "{} {} seed {}: {} steps, {} sims, {}, digest {:016x}",
            CIRCUIT_NAMES[job.circuit],
            arm(&job.config),
            job.seed,
            r.steps.len(),
            r.total_sims,
            if r.success { "verified" } else { "failed" },
            e.outcome.digest
        ));
        if let Some(x) = &r.final_design {
            let c = circuits[job.circuit].circuit();
            let spec = goal_spec(&c, &job.config);
            report.check(feasible_on_full_grid(&c, job.config.method, &spec, x), || {
                format!(
                    "{} {} seed {}: final design infeasible on the full grid",
                    CIRCUIT_NAMES[job.circuit],
                    arm(&job.config),
                    job.seed
                )
            });
        }
    }
    let n = first.len() as f64;
    let sims_per_job = first.iter().map(|e| e.outcome.result.total_sims as f64).sum::<f64>() / n;
    let successes = first.iter().filter(|e| e.outcome.result.success).count();
    report.note(format!(
        "seed {}: {} jobs × {} rounds, {successes} verified designs, workload digest {:016x}",
        args.seed,
        jobs.len(),
        plain.rounds,
        workload_digest(first.iter().map(|e| e.outcome.digest))
    ));

    if !args.trace {
        emit_end_to_end(
            &mut report,
            setup_s * setup_factor,
            &plain.job_medians(),
            plain.jobs_per_s(),
            sims_per_job,
            successes as f64 / n,
            rss,
        );
        return report;
    }

    let traced = pass(&circuits, &jobs, Rounds::Exactly(plain.rounds), &mut report.host, true);
    report.attempted += traced.execs.len() as u64;
    let mut layers = Layers::default();
    layers.add_closed_loop(&traced);
    for c in &circuits {
        layers.solvers_spawned += c.pool().solvers_spawned() as u64;
        layers.solvers_retired += c.pool().solvers_retired() as u64;
    }
    for (j, (a, b)) in plain.first_round().iter().zip(traced.first_round()).enumerate() {
        let (a, b) = (&a.outcome, &b.outcome);
        report.check(a.digest == b.digest, || format!("job {j}: traced run differs from untraced"));
        // Each cache miss is one evaluation: the untraced count from the
        // public counters must equal what the wrapper saw.
        let evals = b.sample.expect("traced").evals;
        report.check(a.cache == b.cache && a.cache.misses == evals, || {
            format!("job {j}: cache {:?} vs traced {:?}, {evals} evaluations", a.cache, b.cache)
        });
        layers.add_campaign(b);
    }
    layers.emit(&mut report, traced.busy_s() / plain.busy_s() - 1.0);
    report
}
