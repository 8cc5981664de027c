//! Pieces the three workloads share: arguments, the report and its JSON
//! line, set-up timing, the closed loop, the feasibility re-check and the
//! per-layer accumulator.

use glova::cache::{CacheStats, EvalCache};
use glova::campaign::{CampaignConfig, CampaignResult, SizingCampaign};
use glova::problem::SizingProblem;
use glova_circuits::{Circuit, DesignSpec, FailureStats};
use glova_variation::config::VerificationMethod;
use glova_variation::sampler::MismatchVector;
use sizingbench::calibrate::HostSpeed;
use sizingbench::digest;
use sizingbench::probe::ProbedCircuit;
use sizingbench::stats::{beyond, median, percentile};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Reference-kernel samples taken before a workload starts (and, on the
/// open loop, again after it ends).
pub const HOST_SAMPLES: usize = 15;
/// Reference-kernel samples taken before each closed-loop job.
pub const HOST_SAMPLES_PER_JOB: usize = 5;

pub const USAGE: &str = "usage: sizingbench --workload paper_analytic|campaign_spice|serve_open \
                         --seed N --seconds S --trace 0|1";

impl Args {
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let argv: Vec<String> = argv.collect();
        let value = |flag: &str| -> Result<&str, String> {
            let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
            argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
        };
        let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        let trace = match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        Ok(Self {
            workload: value("--workload")?.to_string(),
            seed: value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace,
        })
    }
}

/// What one invocation reports: human-readable notes, the metrics, and
/// every failed job or output check.
pub struct Report {
    workload: &'static str,
    pub attempted: u64,
    /// Reference-kernel samples of this run (see [`Report::time`]).
    pub host: HostSpeed,
    failures: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            host: HostSpeed::default(),
            failures: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a metric as given.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push((name, unit, value));
    }

    /// Records a time (`s`, `ms`) or rate (`1/s`) measured on this host,
    /// scaled to the nominal host speed with this run's reference samples.
    pub fn time(&mut self, name: &'static str, unit: &'static str, raw: f64) {
        let factor = self.host.factor();
        let value = if unit == "1/s" { raw / factor } else { raw * factor };
        self.metric(name, unit, value);
    }

    /// Records an output check; a failed check counts as a failed job.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.2.is_finite())
    }

    /// Prints the notes, every metric by name with its unit, the failed
    /// checks, and last the one-line JSON result.
    pub fn print(&self) {
        println!("== sizingbench {} ==", self.workload);
        for line in &self.notes {
            println!("  {line}");
        }
        println!(
            "  host: reference kernel {:.4} ms (nominal {:.4} ms); times are scaled by {:.4}",
            1e3 * self.host.reference_s(),
            1e3 * sizingbench::calibrate::NOMINAL_REFERENCE_S,
            self.host.factor()
        );
        for &(name, unit, value) in &self.metrics {
            if value.abs() >= 0.01 || value == 0.0 {
                println!("  {name:<30} {value:>14.6} {unit}");
            } else {
                println!("  {name:<30} {value:>14.4e} {unit}");
            }
        }
        let failed = self.failures.len() as u64;
        println!(
            "  error_rate {:.4} ({failed} failed of {} attempted)",
            failed as f64 / self.attempted.max(1) as f64,
            self.attempted
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                let value = json_number(value);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            metrics.join(", ")
        );
    }
}

/// Full-precision JSON number; non-finite values (already counted as
/// incorrect) print as 0 to keep the line parseable.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Times `batches` batches of `per_batch` set-ups each, returning the
/// median over batches of the mean set-up time in seconds, and the last
/// product. Products are dropped outside the timed region.
pub fn timed_setup<T>(batches: usize, per_batch: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let per_batch = per_batch.max(1);
    let mut times = Vec::with_capacity(batches);
    let mut products = Vec::with_capacity(per_batch);
    for _ in 0..batches.max(1) {
        products.clear();
        let t0 = Instant::now();
        for _ in 0..per_batch {
            products.push(setup());
        }
        times.push(t0.elapsed().as_secs_f64() / per_batch as f64);
    }
    (percentile(&times, 0.5), products.pop().expect("at least one set-up"))
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One job execution of a closed loop. Job `k + 1` is due the instant
/// job `k`'s run call returned; `sent` is when the loop, after its
/// host-speed samples, began building it; `start`/`end` bracket the run
/// call.
pub struct Exec<T> {
    pub outcome: T,
    /// Host-speed factor sampled just before the job (see
    /// [`HostSpeed::factor`]).
    pub factor: f64,
    pub due: Instant,
    pub sent: Instant,
    pub start: Instant,
    pub end: Instant,
}

impl<T> Exec<T> {
    pub fn job_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// How many rounds over the job list a closed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Rounds {
    /// As many whole rounds as fit the budget, judged from the first
    /// round (at least one).
    Fill(Duration),
    /// Exactly this many (a traced pass repeats its untraced twin).
    Exactly(usize),
}

/// The executions of one closed-loop pass, round-major.
pub struct Pass<T> {
    pub execs: Vec<Exec<T>>,
    pub jobs: usize,
    pub rounds: usize,
}

impl<T> Pass<T> {
    /// The first round: one execution per job, in job-list order.
    pub fn first_round(&self) -> &[Exec<T>] {
        &self.execs[..self.jobs]
    }

    /// Each job's median run-call time over the rounds, each execution
    /// scaled by the host factor sampled just before it, in job order.
    pub fn job_medians(&self) -> Vec<f64> {
        (0..self.jobs)
            .map(|j| {
                let times: Vec<f64> = self
                    .execs
                    .iter()
                    .skip(j)
                    .step_by(self.jobs)
                    .map(|e| e.job_s() * e.factor)
                    .collect();
                median(&times)
            })
            .collect()
    }

    /// Jobs per second of a round's wall (first due to last return),
    /// scaled by the round's median host factor; median over rounds.
    pub fn jobs_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .execs
            .chunks(self.jobs)
            .map(|r| {
                let factors: Vec<f64> = r.iter().map(|e| e.factor).collect();
                let wall = (r[r.len() - 1].end - r[0].due).as_secs_f64();
                r.len() as f64 / (wall * median(&factors))
            })
            .collect();
        median(&rates)
    }

    /// Σ run-call time.
    pub fn busy_s(&self) -> f64 {
        self.execs.iter().map(Exec::job_s).sum()
    }
}

/// Runs `jobs` jobs round after round, closed loop, taking
/// [`HOST_SAMPLES_PER_JOB`] host-speed samples before each. `run(j)`
/// builds job `j`, runs it and returns its outcome with the instants
/// bracketing the run call.
pub fn closed_loop<T>(
    jobs: usize,
    rounds: Rounds,
    host: &mut HostSpeed,
    mut run: impl FnMut(usize) -> (T, Instant, Instant),
) -> Pass<T> {
    let mut execs = Vec::new();
    let mut due = Instant::now();
    let mut round = |execs: &mut Vec<Exec<T>>| {
        for j in 0..jobs {
            let factor = host.sample(HOST_SAMPLES_PER_JOB);
            let sent = Instant::now();
            let (outcome, start, end) = run(j);
            execs.push(Exec { outcome, factor, due, sent, start, end });
            due = end;
        }
    };
    let t0 = Instant::now();
    round(&mut execs);
    let total = match rounds {
        Rounds::Exactly(n) => n.max(1),
        Rounds::Fill(budget) => {
            let per_round = t0.elapsed().as_secs_f64().max(1e-9);
            ((budget.as_secs_f64() / per_round).round() as usize).max(1)
        }
    };
    for _ in 1..total {
        round(&mut execs);
    }
    Pass { execs, jobs, rounds: total }
}

/// Checks that every later round reproduced the first bit for bit.
pub fn check_rounds<T>(report: &mut Report, pass: &Pass<T>, digest: impl Fn(&T) -> u64) {
    let first: Vec<u64> = pass.first_round().iter().map(|e| digest(&e.outcome)).collect();
    for (i, e) in pass.execs.iter().enumerate().skip(pass.jobs) {
        let j = i % pass.jobs;
        report.check(digest(&e.outcome) == first[j], || {
            format!("job {j} round {} differs from round 1", i / pass.jobs + 1)
        });
    }
}

/// Folds per-job digests into one workload digest. The digests are
/// sorted first: the job order is drawn from the workload seed, the jobs
/// are not, so every seed must print the same digest.
pub fn workload_digest(digests: impl Iterator<Item = u64>) -> u64 {
    let mut sorted: Vec<u64> = digests.collect();
    sorted.sort_unstable();
    let mut d = digest::Digest::default();
    for v in sorted {
        d.word(v);
    }
    d.value()
}

/// Independent feasibility re-check of a final design: a fresh
/// [`SizingProblem`] sweeps the method's full corner grid at nominal
/// mismatch, and `spec` must hold at every corner.
pub fn feasible_on_full_grid(
    circuit: &Arc<dyn Circuit>,
    method: VerificationMethod,
    spec: &DesignSpec,
    x: &[f64],
) -> bool {
    let problem = SizingProblem::new(circuit.clone(), method);
    let corners: Vec<usize> = (0..problem.config().corners.len()).collect();
    let nominal = MismatchVector::nominal(circuit.mismatch_domain(x).dim());
    let conditions = vec![vec![nominal]; corners.len()];
    problem
        .simulate_selected_corners(x, &corners, &conditions)
        .iter()
        .all(|outcomes| outcomes.iter().all(|o| spec.satisfied(&o.metrics)))
}

/// The spec a campaign result was judged against.
pub fn goal_spec(circuit: &Arc<dyn Circuit>, config: &CampaignConfig) -> DesignSpec {
    match &config.goal_factors {
        Some(f) => circuit.spec().with_scaled_limits(f),
        None => circuit.spec().clone(),
    }
}

/// Layer split of one traced campaign run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignSample {
    pub wall_s: f64,
    pub evals: u64,
    pub eval_s: f64,
    pub seed_s: f64,
    pub step_s: f64,
    pub learn_s: f64,
}

/// One campaign run and what the benchmark measured around it.
pub struct CampaignRun {
    pub result: CampaignResult,
    pub digest: u64,
    /// This run's share of the cache counters.
    pub cache: CacheStats,
    pub sample: Option<CampaignSample>,
}

/// Builds and runs one campaign through `SizingCampaign::run` (untraced)
/// or `run_with` over a [`ProbedCircuit`] with a step observer (traced).
/// `shared` selects `with_shared_cache`; otherwise the config's private
/// cache applies. Returns the run and the instants around the run call.
pub fn run_campaign(
    circuit: &Arc<dyn Circuit>,
    config: &CampaignConfig,
    shared: Option<&Arc<EvalCache>>,
    seed: u64,
    traced: bool,
) -> (CampaignRun, Instant, Instant) {
    let probe = traced.then(|| Arc::new(ProbedCircuit::new(circuit.clone())));
    let evaluated: Arc<dyn Circuit> = match &probe {
        Some(p) => p.clone(),
        None => circuit.clone(),
    };
    let campaign = match shared {
        Some(cache) => SizingCampaign::with_shared_cache(evaluated, config.clone(), cache.clone()),
        None => SizingCampaign::new(evaluated, config.clone()),
    };
    let stats = |c: &SizingCampaign| c.problem().cache_stats().unwrap_or_default();
    let before = stats(&campaign);
    let mut first_step: Option<Instant> = None;
    let mut step_s = 0.0;
    let start = Instant::now();
    let result = if traced {
        campaign.run_with(seed, &mut |step| {
            first_step.get_or_insert_with(|| Instant::now() - step.wall);
            step_s += step.wall.as_secs_f64();
        })
    } else {
        campaign.run(seed)
    };
    let end = Instant::now();
    let after = stats(&campaign);
    let cache = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
    };
    let sample = probe.map(|p| {
        let seed_end = first_step.unwrap_or(end);
        let after_seed = p.eval_time_since(seed_end).as_secs_f64();
        CampaignSample {
            wall_s: (end - start).as_secs_f64(),
            evals: p.evals(),
            eval_s: p.eval_time().as_secs_f64(),
            seed_s: (seed_end - start).as_secs_f64(),
            step_s,
            learn_s: (end - seed_end).as_secs_f64() - after_seed,
        }
    });
    let digest = digest::campaign_result(&result);
    (CampaignRun { result, digest, cache, sample }, start, end)
}

/// Per-layer totals of a traced pass; [`Layers::emit`] prints every
/// per-layer metric, as per-job means where the metric is a count or a
/// time per job.
#[derive(Debug, Default)]
pub struct Layers {
    pub jobs: u64,
    pub wall_s: f64,
    pub seed_s: f64,
    pub step_s: f64,
    pub steps: u64,
    pub init_sims: u64,
    pub corners_simulated: u64,
    pub corners_available: u64,
    pub verification_attempts: u64,
    pub evals: u64,
    pub eval_s: f64,
    pub learn_s: f64,
    pub failures: FailureStats,
    pub cache: CacheStats,
    pub solvers_spawned: u64,
    pub solvers_retired: u64,
    pub queue_wait_s: Vec<f64>,
    pub gen_lag_s: Vec<f64>,
    pub queue_depth_max: u64,
    pub solver_primes: u64,
    pub solver_hits: u64,
    pub cache_handle_hits: u64,
}

impl Layers {
    /// Adds one traced campaign run.
    pub fn add_campaign(&mut self, run: &CampaignRun) {
        let s = run.sample.expect("traced runs carry a sample");
        let r = &run.result;
        self.jobs += 1;
        self.wall_s += s.wall_s;
        self.seed_s += s.seed_s;
        self.step_s += s.step_s;
        self.steps += r.steps.len() as u64;
        self.init_sims += r.init_sims;
        self.corners_simulated += r.pruning.corners_simulated;
        self.corners_available += r.pruning.corners_available;
        self.evals += s.evals;
        self.eval_s += s.eval_s;
        self.learn_s += s.learn_s;
        self.add_failures(r.failures);
        self.cache.hits += run.cache.hits;
        self.cache.misses += run.cache.misses;
    }

    pub fn add_failures(&mut self, f: FailureStats) {
        self.failures.nonconvergent += f.nonconvergent;
        self.failures.recovered += f.recovered;
        self.failures.degraded += f.degraded;
    }

    /// Closed-loop waits of a direct pass: due → run call, and due →
    /// the loop starting to build the job.
    pub fn add_closed_loop<T>(&mut self, pass: &Pass<T>) {
        for e in &pass.execs {
            self.queue_wait_s.push((e.start - e.due).as_secs_f64());
            self.gen_lag_s.push((e.sent - e.due).as_secs_f64());
        }
    }

    pub fn emit(&self, report: &mut Report, trace_overhead: f64) {
        let per_job = |v: f64| v / self.jobs.max(1) as f64;
        let wait = |q: f64| {
            if self.queue_wait_s.is_empty() {
                0.0
            } else {
                percentile(&self.queue_wait_s, q)
            }
        };
        let lag_max = self.gen_lag_s.iter().copied().fold(0.0, f64::max);
        report.time("serve.queue_wait_s.p50", "s", wait(0.5));
        report.time("serve.queue_wait_s.p90", "s", wait(0.9));
        report.metric("serve.queue_depth.max", "count", self.queue_depth_max as f64);
        report.time("serve.gen_lag_s.max", "s", lag_max);
        report.metric("serve.solver_primes", "count", self.solver_primes as f64);
        report.metric("serve.solver_hits", "count", self.solver_hits as f64);
        report.metric("serve.cache_handle_hits", "count", self.cache_handle_hits as f64);
        report.time("loop.seed_s", "s", per_job(self.seed_s));
        report.time("loop.step_s", "s", per_job(self.step_s));
        report.metric("loop.steps", "count", per_job(self.steps as f64));
        report.metric("campaign.init_sims", "sims", per_job(self.init_sims as f64));
        let pruned = if self.corners_available == 0 {
            0.0
        } else {
            1.0 - self.corners_simulated as f64 / self.corners_available as f64
        };
        report.metric("campaign.pruned_fraction", "ratio", pruned);
        report.metric(
            "paper.verification_attempts",
            "count",
            per_job(self.verification_attempts as f64),
        );
        report.metric("circuit.evals", "count", per_job(self.evals as f64));
        report.time("circuit.eval_s", "s", per_job(self.eval_s));
        report.metric("circuit.eval_share", "ratio", self.eval_s / self.wall_s.max(1e-12));
        report.metric(
            "circuit.nonconvergent",
            "count",
            per_job(self.failures.nonconvergent as f64),
        );
        report.metric("circuit.recovered", "count", per_job(self.failures.recovered as f64));
        report.metric("circuit.degraded", "count", per_job(self.failures.degraded as f64));
        report.metric("spice.solvers_spawned", "count", self.solvers_spawned as f64);
        report.metric("spice.solvers_retired", "count", self.solvers_retired as f64);
        report.metric("cache.lookups", "count", per_job(self.cache.lookups() as f64));
        report.metric("cache.hits", "count", per_job(self.cache.hits as f64));
        report.metric("cache.hit_rate", "ratio", self.cache.hit_rate());
        report.time("learn.self_s", "s", per_job(self.learn_s));
        report.time("learn.ms_per_step", "ms", 1e3 * self.learn_s / self.steps.max(1) as f64);
        report.metric("trace.overhead", "ratio", trace_overhead);
        if !self.queue_wait_s.is_empty() {
            report.note(format!(
                "serve.queue_wait_s.p90 rests on {} of {} samples",
                beyond(&self.queue_wait_s, 0.9),
                self.queue_wait_s.len()
            ));
        }
    }
}

/// Prints the end-to-end metrics of an untraced pass; the times and the
/// rate arrive scaled to the nominal host speed.
pub fn emit_end_to_end(
    report: &mut Report,
    setup_s: f64,
    job_s: &[f64],
    jobs_per_s: f64,
    sims_per_job: f64,
    success_rate: f64,
    peak_rss_mb: f64,
) {
    report.metric("setup_s", "s", setup_s);
    report.metric("job_s.p50", "s", percentile(job_s, 0.5));
    report.metric("job_s.p90", "s", percentile(job_s, 0.9));
    report.metric("jobs_per_s", "1/s", jobs_per_s);
    report.metric("sims_per_job", "sims", sims_per_job);
    report.metric("success_rate", "ratio", success_rate);
    report.metric("peak_rss_mb", "MB", peak_rss_mb);
    report.note(format!(
        "job_s over {} samples; p90 rests on {} samples beyond it",
        job_s.len(),
        beyond(job_s, 0.9)
    ));
}
