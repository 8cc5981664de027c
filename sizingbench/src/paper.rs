//! `paper_analytic`: GLOVA paper runs (`GlovaOptimizer::run`) on the
//! analytic StrongARM latch and floating-inverter amplifier, closed loop,
//! one run at a time. Simulation is a sliver of the wall here, so the
//! workload isolates TuRBO seeding, the agent and the verifier.

use crate::common::{
    check_rounds, closed_loop, emit_end_to_end, feasible_on_full_grid, peak_rss_mb, timed_setup,
    workload_digest, Args, Layers, Pass, Report, Rounds, HOST_SAMPLES,
};
use glova::optimizer::{GlovaConfig, GlovaOptimizer};
use glova::report::RunResult;
use glova_circuits::{Circuit, FloatingInverterAmp, StrongArmLatch};
use glova_variation::config::VerificationMethod;
use sizingbench::calibrate::HostSpeed;
use sizingbench::digest;
use sizingbench::probe::ProbedCircuit;
use sizingbench::schedule::SplitMix64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// (circuit index, verification method) of each case; the job list
/// runs every case on every seed of [`JOB_SEEDS`].
const CASES: [(usize, VerificationMethod); 4] = [
    (0, VerificationMethod::CornerLocalMc),
    (0, VerificationMethod::CornerGlobalLocalMc),
    (1, VerificationMethod::CornerLocalMc),
    (1, VerificationMethod::CornerGlobalLocalMc),
];
const CIRCUIT_NAMES: [&str; 2] = ["SAL", "FIA"];
/// A fixed seed list: one paper run costs 45 ms to over 10 s depending
/// on its seed, so a seed-derived job list would swamp every bound.
const JOB_SEEDS: [u64; 2] = [1, 2];
/// Building the analytic circuits takes about 100 ns, so set-up is
/// timed in batches.
const SETUP_BATCHES: usize = 31;
const SETUP_PER_BATCH: usize = 1000;

struct Job {
    case: usize,
    seed: u64,
}

/// The job list: every case on every job seed, in an order drawn from
/// the workload seed.
fn jobs(seed: u64) -> Vec<Job> {
    let mut jobs: Vec<Job> = (0..CASES.len())
        .flat_map(|case| JOB_SEEDS.iter().map(move |&seed| Job { case, seed }))
        .collect();
    SplitMix64::new(seed).shuffle(&mut jobs);
    jobs
}

struct Outcome {
    result: RunResult,
    digest: u64,
    /// `(evals, eval_s, seed_s, eval_after_seed_s)` of a traced run.
    probe: Option<(u64, f64, f64, f64)>,
}

fn pass(
    circuits: &[Arc<dyn Circuit>; 2],
    jobs: &[Job],
    rounds: Rounds,
    host: &mut HostSpeed,
    traced: bool,
) -> Pass<Outcome> {
    closed_loop(jobs.len(), rounds, host, |j| {
        let job = &jobs[j];
        let (circuit, method) = CASES[job.case];
        let probe = traced.then(|| Arc::new(ProbedCircuit::new(circuits[circuit].clone())));
        let evaluated: Arc<dyn Circuit> = match &probe {
            Some(p) => p.clone(),
            None => circuits[circuit].clone(),
        };
        let mut optimizer = GlovaOptimizer::new(evaluated, GlovaConfig::paper(method));
        let start = Instant::now();
        let result = optimizer.run(job.seed);
        let end = Instant::now();
        let probe = probe.map(|p| {
            let seed_end = p.first_off_typical().unwrap_or(end);
            (
                p.evals(),
                p.eval_time().as_secs_f64(),
                (seed_end - start).as_secs_f64(),
                p.eval_time_since(seed_end).as_secs_f64(),
            )
        });
        let digest = digest::run_result(&result);
        (Outcome { result, digest, probe }, start, end)
    })
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new("paper_analytic");
    let setup_factor = report.host.sample(HOST_SAMPLES);
    let (setup_s, circuits) =
        timed_setup(SETUP_BATCHES, SETUP_PER_BATCH, || -> [Arc<dyn Circuit>; 2] {
            [Arc::new(StrongArmLatch::new()), Arc::new(FloatingInverterAmp::new())]
        });
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
        let (circuit, method) = CASES[job.case];
        report.note(format!(
            "{} {method:?} seed {}: {} RL iterations, {} sims, {}, digest {:016x}",
            CIRCUIT_NAMES[circuit],
            job.seed,
            r.rl_iterations,
            r.simulations,
            if r.success { "verified" } else { "failed" },
            e.outcome.digest
        ));
        if let Some(x) = &r.final_design {
            let c = &circuits[circuit];
            report.check(feasible_on_full_grid(c, method, c.spec(), x), || {
                format!(
                    "{} {method:?} seed {}: verified design infeasible on the full grid",
                    CIRCUIT_NAMES[circuit], job.seed
                )
            });
        }
    }
    let n = first.len() as f64;
    let sims_per_job = first.iter().map(|e| e.outcome.result.simulations as f64).sum::<f64>() / n;
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
    for (j, (a, b)) in plain.first_round().iter().zip(traced.first_round()).enumerate() {
        report.check(a.outcome.digest == b.outcome.digest, || {
            format!("job {j}: traced run differs from the untraced run")
        });
    }
    for e in traced.first_round() {
        let r = &e.outcome.result;
        let (evals, eval_s, seed_s, after_seed) = e.outcome.probe.expect("traced");
        let wall = e.job_s();
        layers.jobs += 1;
        layers.wall_s += wall;
        layers.seed_s += seed_s;
        layers.step_s += wall - seed_s;
        layers.steps += r.rl_iterations as u64;
        layers.verification_attempts += r.verification_attempts as u64;
        layers.evals += evals;
        layers.eval_s += eval_s;
        layers.learn_s += wall - seed_s - after_seed;
        // Without a cache every simulation is one evaluation.
        report.check(evals == r.simulations, || {
            format!("{evals} evaluations but {} simulations counted", r.simulations)
        });
    }
    report.check(
        traced
            .first_round()
            .iter()
            .map(|e| e.outcome.result.simulations)
            .eq(plain.first_round().iter().map(|e| e.outcome.result.simulations)),
        || "traced sims_per_job differs from untraced".to_string(),
    );
    layers.emit(&mut report, traced.busy_s() / plain.busy_s() - 1.0);
    report
}
