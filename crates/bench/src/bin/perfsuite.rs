//! The perf aggregator: runs a fixed matrix of (circuit × engine ×
//! batch-size) scenarios plus the cache and SPICE hot-path scenarios,
//! prints a throughput table, and optionally writes
//! `BENCH_perfsuite.json` / gates on regressions.
//!
//! ```sh
//! cargo run --release -p glova-bench --bin perfsuite
//! cargo run --release -p glova-bench --bin perfsuite -- --report
//! cargo run --release -p glova-bench --bin perfsuite -- --report --gate \
//!     --min-speedup 1.0 --max-wall-seconds 120
//! cargo run --release -p glova-bench --bin perfsuite -- --quick
//! ```
//!
//! Scenarios:
//!
//! - `yield_grid` — the fresh-die Monte-Carlo yield campaign (the
//!   pipeline's dominant workload) per circuit, batch size and engine;
//!   threaded records carry their speedup over the matching sequential
//!   run. The analytic grids (SAL, FIA) evaluate in about a microsecond
//!   per point, too little for two threads to beat the dispatch, so they
//!   are reported only; the SPICE grids (the 5×4 sense-amp array and the
//!   8-stage chain on pooled solvers) carry the gate.
//! - `verify_resweep` — two identically seeded Algorithm-2 verifications
//!   of a passing design (the re-verification pattern of ablation and
//!   parity arms): with the [`EvalCache`](glova::cache::EvalCache)
//!   attached, the second sweep's phase-2 points are answered from
//!   memory, so the scenario measures a real hit rate and the wall-time
//!   ratio vs the cache-off reference.
//! - `spice_op` — repeated DC operating-point solves of CMOS inverter
//!   chains (4 and 24 stages) through a persistent [`OpSolver`],
//!   chord-Newton (the default) vs full Newton; the LU reuse wins grow
//!   with the MNA dimension.
//! - `spice_threaded` — a SPICE-backed corner × mismatch yield grid
//!   ([`SpiceInverterChain`](glova_circuits::SpiceInverterChain), 24
//!   stages) dispatched through the engine layer, sequential vs a
//!   4-worker threaded engine with per-worker `OpSolver`s cloned from
//!   one primed prototype — the thread-parallel sweep the engine work
//!   exists for, gated at ≥ `--min-spice-speedup` (default 1.5×).
//! - `campaign` — end-to-end risk-sensitive sizing campaigns
//!   ([`SizingCampaign`]) on the SPICE OTA and inverter chain, full
//!   30-corner grid vs RobustAnalog-style corner-set pruning with the
//!   same seed and goal. Gated on the **simulation ratio**
//!   `full.sims_to_success / pruned.sims_to_success ≥
//!   --min-pruning-sim-ratio` (default 1.5×) — a deterministic count,
//!   not a timing, so the gate holds on 1-core runners — plus an
//!   independent full-grid feasibility re-check of the pruned arm's
//!   final design (pruning must never weaken the success criterion).
//! - `serve` — K=4 same-topology sizing jobs through the
//!   [`glova-serve`](glova_serve) campaign server: one-at-a-time on
//!   fresh registries vs one 4-worker fleet sharing a
//!   [`SolverRegistry`] and [`CacheRegistry`]. Gated on the
//!   deterministic aggregate symbolic-prime count (shared must pay
//!   strictly fewer, ratio ≥ `--min-serve-prime-ratio`, default 2.0)
//!   and on cross-arm agreement of every job's simulation count;
//!   throughput is reported ungated.
//!
//! The `--gate` mode enforces: per-scenario wall ceiling, every threaded
//! speedup across the SPICE yield grids ≥ `--min-speedup` (skipped on
//! single-core machines, where a threaded engine cannot win), a nonzero
//! cache hit rate on the re-sweep scenario with the cache pinned on, the
//! threaded SPICE sweep floor (≥ 1.5× sequential on 4 workers,
//! skipped below 4 cores), and the deterministic gates of
//! `spice_ota`, `campaign`, `serve` and `serve_robust` above.
//! Timings gate on the best of several runs per measurement — single
//! samples of millisecond-scale batches are CI-noise, not signal; the
//! yield grids also warm each arm up and alternate its engines.

use glova::cache::{CachePolicy, CacheRegistry, CacheStats, EvalCacheConfig};
use glova::campaign::{CampaignConfig, PruningConfig, SizingCampaign};
use glova::engine::EngineSpec;
use glova::fault::{FaultKind, FaultPlan};
use glova::problem::SizingProblem;
use glova::verification::Verifier;
use glova::yield_est::estimate_yield;
use glova_bench::report::{BenchRecord, BenchReport};
use glova_bench::{report_requested, write_report};
use glova_circuits::{Circuit, ToyQuadratic};
use glova_serve::{CampaignServer, CircuitSpec, JobBudget, JobStatus, SizingRequest};
use glova_spice::dc::OpSolver;
use glova_spice::mna::NewtonOptions;
use glova_spice::netlist::{inverter_chain, Netlist};
use glova_spice::registry::SolverRegistry;
use glova_stats::rng::seeded;
use glova_variation::config::VerificationMethod;
use glova_variation::corner::PvtCorner;
use glova_variation::sampler::MismatchVector;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn print_record(r: &BenchRecord) {
    let speedup =
        r.speedup_vs_sequential.map_or_else(|| "     -".to_string(), |s| format!("{s:5.2}x"));
    let cache = r.cache.map_or_else(String::new, |c| {
        format!("  cache {}/{} ({:.0}% hits)", c.hits, c.lookups(), c.hit_rate() * 100.0)
    });
    println!(
        "{:<28} {:<14} {:<12} {:>7} sims {:>9.1} sims/s {:>7} {}",
        r.scenario, r.circuit, r.engine, r.sims, r.sims_per_sec, speedup, cache
    );
}

/// Timed rounds per yield-grid arm; each round runs the sequential and
/// then the threaded campaign, and each engine keeps its best wall.
const YIELD_GRID_ROUNDS: usize = 3;

/// One yield-grid campaign on `engine`: its simulation count and wall.
fn yield_grid_once(
    circuit: &Arc<dyn Circuit>,
    engine: EngineSpec,
    batch: usize,
) -> (u64, Duration) {
    let problem = SizingProblem::with_engine(
        circuit.clone(),
        VerificationMethod::CornerLocalMc,
        engine.build(),
    );
    let x = vec![0.5; circuit.dim()];
    let mut rng = seeded(2025);
    let start = Instant::now();
    let _ = estimate_yield(&problem, &x, batch, 0.95, &mut rng);
    (problem.simulations(), start.elapsed())
}

/// The sequential and the `threaded` yield-grid campaign's simulation
/// counts and best walls: one untimed warm-up, then
/// [`YIELD_GRID_ROUNDS`] rounds alternating the two engines. Single
/// timings of millisecond-scale batches are too noisy to gate on, and a
/// circuit's first campaign pays its warm-up; alternating spreads the
/// host's slow phases over both engines.
fn yield_grid(
    circuit: &Arc<dyn Circuit>,
    threaded: EngineSpec,
    batch: usize,
) -> [(u64, Duration); 2] {
    yield_grid_once(circuit, EngineSpec::Sequential, batch);
    let mut best = [(0, Duration::MAX); 2];
    for _ in 0..YIELD_GRID_ROUNDS {
        for (slot, engine) in best.iter_mut().zip([EngineSpec::Sequential, threaded]) {
            let (sims, wall) = yield_grid_once(circuit, engine, batch);
            *slot = (sims, slot.1.min(wall));
        }
    }
    best
}

/// Two identically seeded verifications of a passing design; returns
/// (sims, wall) — the caller reads cache stats off the problem.
fn verify_twice(problem: &SizingProblem, x: &[f64]) -> (u64, Duration) {
    let corner_order: Vec<usize> = (0..problem.config().corners.len()).collect();
    let verifier = Verifier::new(problem, 4.0);
    let start = Instant::now();
    for _ in 0..2 {
        let mut rng = seeded(7);
        let outcome = verifier.verify(x, &corner_order, None, &mut rng);
        assert!(outcome.passed, "perfsuite re-sweep design must pass verification");
    }
    (problem.simulations(), start.elapsed())
}

/// [`verify_twice`] on two fresh problems from `problem` (cache state
/// must not leak between timing repeats); returns (sims, best wall,
/// cache stats), the counts from the first run — identical across runs
/// by construction.
fn verify_resweep(
    problem: impl Fn() -> SizingProblem,
    x: &[f64],
) -> (u64, Duration, Option<CacheStats>) {
    let first = problem();
    let (sims, wall) = verify_twice(&first, x);
    let (_, again) = verify_twice(&problem(), x);
    (sims, wall.min(again), first.cache_stats())
}

/// Repeated DC operating-point solves through a persistent
/// [`OpSolver`] (template and symbolic factorization built once — the
/// corner-sweep usage pattern); returns the best-of-two wall time (both
/// timing loops run warm solver state, so the repeats are symmetric).
fn solve_op(netlist: &Netlist, options: &NewtonOptions, solves: usize) -> Duration {
    let mut solver = OpSolver::new(netlist.clone(), *options);
    let mut best = Duration::MAX;
    for _ in 0..2 {
        let start = Instant::now();
        for _ in 0..solves {
            solver.solve().expect("operating point converges");
        }
        best = best.min(start.elapsed());
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let min_speedup: f64 = flag(&args, "--min-speedup").and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let max_wall: f64 =
        flag(&args, "--max-wall-seconds").and_then(|s| s.parse().ok()).unwrap_or(120.0);

    let batches: &[usize] = if quick { &[16, 64] } else { &[64, 256] };
    // (name, circuit, gated): the analytic grids are reported, the
    // SPICE grids carry the threaded-speedup gate.
    let circuits: Vec<(&str, Arc<dyn Circuit>, bool)> = vec![
        ("SAL", Arc::new(glova_circuits::StrongArmLatch::new()) as Arc<dyn Circuit>, false),
        ("FIA", Arc::new(glova_circuits::FloatingInverterAmp::new()), false),
        ("SPICE-SA5x4", Arc::new(glova_circuits::SpiceSenseAmpArray::new(5, 4)), true),
        ("SPICE-INV8", Arc::new(glova_circuits::SpiceInverterChain::new(8)), true),
    ];
    let threaded = EngineSpec::Threaded(0);
    let cores = threaded.resolved_workers();

    println!("=== perfsuite: fixed scenario matrix ===");
    println!(
        "(batches {batches:?}, threaded engine resolves to {cores} worker(s){})\n",
        if quick { ", quick" } else { "" }
    );

    let mut report = BenchReport::new("perfsuite");
    let mut failures: Vec<String> = Vec::new();

    // ---- yield_grid: circuit × batch × engine --------------------------
    // The gate checks the *slowest* threaded speedup across the SPICE
    // grids: each point there is a pooled DC solve that dwarfs the
    // dispatch, so two workers read well above 1.0x on every arm, while
    // an engine that runs every point on one worker reads about 1.0x on
    // each and so at least one arm falls below the floor. The analytic
    // grids' points cost about a microsecond, so their threaded arms
    // measure the dispatch, not the engine, and read below 1.0x on
    // untouched code; they stay in the report.
    let mut slowest_spice_speedup = f64::INFINITY;
    for (name, circuit, gated) in &circuits {
        for &batch in batches {
            let [(seq_sims, seq_wall), (thr_sims, thr_wall)] = yield_grid(circuit, threaded, batch);
            let seq =
                BenchRecord::new("yield_grid", *name, "sequential", batch, seq_sims, seq_wall);
            print_record(&seq);
            report.push(seq);

            let speedup = seq_wall.as_secs_f64() / thr_wall.as_secs_f64().max(1e-12);
            if *gated {
                slowest_spice_speedup = slowest_spice_speedup.min(speedup);
            }
            let thr = BenchRecord::new(
                "yield_grid",
                *name,
                format!("threaded:{cores}"),
                batch,
                thr_sims,
                thr_wall,
            )
            .with_speedup(speedup);
            print_record(&thr);
            report.push(thr);
        }
    }
    if gate {
        if cores <= 1 {
            eprintln!("gate: skipping threaded-speedup check (single core)");
        } else if slowest_spice_speedup < min_speedup {
            failures.push(format!(
                "yield_grid: slowest threaded speedup {slowest_spice_speedup:.2}x \
                 across the SPICE grids is below {min_speedup:.2}x"
            ));
        }
    }

    // ---- verify_resweep: cache off vs pinned on ------------------------
    // A mismatch-tolerant toy at its optimum: verification passes, so
    // both runs execute the full phase-2 sweep; the second, identically
    // seeded run re-visits every point, which the cached record must see
    // as hits.
    let toy: Arc<dyn Circuit> = Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05));
    let x_opt = ToyQuadratic::standard().optimum().to_vec();
    let problem = || SizingProblem::new(toy.clone(), VerificationMethod::CornerLocalMc);
    let (off_sims, off_wall, _) = verify_resweep(problem, &x_opt);
    let off =
        BenchRecord::new("verify_resweep", "ToyQuadratic", "sequential", 2, off_sims, off_wall);
    print_record(&off);
    report.push(off);

    let (on_sims, on_wall, stats) = verify_resweep(
        || problem().with_cache(EvalCacheConfig::with_policy(CachePolicy::On)),
        &x_opt,
    );
    let stats = stats.expect("cache attached");
    let cache_speedup = off_wall.as_secs_f64() / on_wall.as_secs_f64().max(1e-12);
    let on =
        BenchRecord::new("verify_resweep", "ToyQuadratic", "sequential+cache", 2, on_sims, on_wall)
            .with_speedup(cache_speedup)
            .with_cache(stats);
    print_record(&on);
    report.push(on);
    if gate && stats.hit_rate() <= 0.0 {
        failures.push("verify_resweep: cache hit rate is zero".to_string());
    }

    // ---- spice_op: chord vs full Newton ---------------------------------
    let solves = if quick { 200 } else { 1000 };
    for (name, netlist) in [("inv_chain4", inverter_chain(4)), ("inv_chain24", inverter_chain(24))]
    {
        let full_wall = solve_op(&netlist, &NewtonOptions::full_newton(), solves);
        let full =
            BenchRecord::new("spice_op", name, "full-newton", solves, solves as u64, full_wall);
        print_record(&full);
        report.push(full);

        let chord_wall = solve_op(&netlist, &NewtonOptions::default(), solves);
        let chord_speedup = full_wall.as_secs_f64() / chord_wall.as_secs_f64().max(1e-12);
        let chord =
            BenchRecord::new("spice_op", name, "chord-newton", solves, solves as u64, chord_wall)
                .with_speedup(chord_speedup);
        print_record(&chord);
        report.push(chord);
    }

    // ---- spice_threaded: SPICE-backed sweep through the engine layer ----
    // The tentpole workload: a corner × mismatch yield grid whose every
    // point is a DC operating-point solve of inv_chain24, dispatched
    // through the EvalEngine with one per-worker OpSolver cloned from a
    // shared primed prototype. The threaded record
    // carries its speedup over the matching sequential sweep; the gate
    // enforces the 4-worker floor (skipped on machines with fewer than 4
    // cores, where a 4-worker engine cannot realize its speedup).
    let spice_workers = 4usize;
    let spice_floor: f64 =
        flag(&args, "--min-spice-speedup").and_then(|s| s.parse().ok()).unwrap_or(1.5);
    let spice_batch = if quick { 8 } else { 16 };
    let spice_chain: Arc<dyn Circuit> = Arc::new(glova_circuits::SpiceInverterChain::new(24));
    let [(sp_seq_sims, sp_seq_wall), (sp_thr_sims, sp_thr_wall)] =
        yield_grid(&spice_chain, EngineSpec::Threaded(spice_workers), spice_batch);
    let sp_seq = BenchRecord::new(
        "spice_threaded",
        "inv_chain24",
        "sequential",
        spice_batch,
        sp_seq_sims,
        sp_seq_wall,
    );
    print_record(&sp_seq);
    report.push(sp_seq);
    let sp_speedup = sp_seq_wall.as_secs_f64() / sp_thr_wall.as_secs_f64().max(1e-12);
    let sp_thr = BenchRecord::new(
        "spice_threaded",
        "inv_chain24",
        format!("threaded:{spice_workers}"),
        spice_batch,
        sp_thr_sims,
        sp_thr_wall,
    )
    .with_speedup(sp_speedup);
    print_record(&sp_thr);
    report.push(sp_thr);
    if gate {
        if cores < spice_workers {
            eprintln!(
                "gate: skipping spice_threaded speedup check \
                 ({cores} core(s) < {spice_workers} workers)"
            );
        } else if sp_speedup < spice_floor {
            failures.push(format!(
                "spice_threaded: {spice_workers}-worker SPICE sweep is {sp_speedup:.2}x \
                 sequential (floor {spice_floor:.1}x)"
            ));
        }
    }

    // ---- spice_ota: DC+AC evaluations through the full solver stack ----
    // The two-stage Miller OTA testcase: every evaluation is a pooled DC
    // solve plus a complex small-signal sweep. Gated on feasibility (the
    // nominal point must meet spec at the typical corner — a solver
    // regression anywhere in the DC/AC stack shows up as a broken
    // metric, deterministically) plus the global wall ceiling.
    let ota = glova_circuits::SpiceOta::new();
    let ota_x = vec![0.5; ota.dim()];
    let ota_h = MismatchVector::nominal(ota.mismatch_domain(&ota_x).dim());
    let ota_metrics = ota.evaluate(&ota_x, &PvtCorner::typical(), &ota_h);
    let ota_feasible = ota.spec().satisfied(&ota_metrics);
    let ota_circuit: Arc<dyn Circuit> = Arc::new(ota);
    let ota_batch = if quick { 4 } else { 8 };
    let (ota_sims, ota_wall) = yield_grid_once(&ota_circuit, EngineSpec::Sequential, ota_batch);
    let ota_rec =
        BenchRecord::new("spice_ota", "ota_two_stage", "sequential", ota_batch, ota_sims, ota_wall);
    print_record(&ota_rec);
    report.push(ota_rec);
    if gate && !ota_feasible {
        failures.push(format!(
            "spice_ota: nominal OTA point violates its spec at the typical corner \
             (metrics {ota_metrics:?}) — DC/AC solver stack regression"
        ));
    }

    // ---- campaign: corner-set pruning on end-to-end sizing runs --------
    // Two identically seeded campaigns per SPICE circuit — full grid vs
    // k-worst pruning — under a goal spec tight enough that the LHS
    // seeds fail and the agent has to search (the factors come from the
    // campaign bin's --probe mode; see docs/CAMPAIGNS.md). The gate is
    // wall-clock-free: it compares deterministic simulation counts, so
    // it holds on a 1-core runner, and it re-checks the pruned arm's
    // final design on the full corner grid independently of the
    // campaign's own confirmation dispatch.
    let pruning_floor: f64 =
        flag(&args, "--min-pruning-sim-ratio").and_then(|s| s.parse().ok()).unwrap_or(1.5);
    let campaign_cases: Vec<(&str, Arc<dyn Circuit>, Vec<f64>)> = vec![
        ("SpiceOta", Arc::new(glova_circuits::SpiceOta::new()), vec![1.4, 5.0, 0.5]),
        (
            "SpiceInverterChain",
            Arc::new(glova_circuits::SpiceInverterChain::new(8)),
            vec![0.44, 1.25, 0.4],
        ),
    ];
    for (name, circuit, goal) in &campaign_cases {
        let base = CampaignConfig::quick(VerificationMethod::Corner)
            .with_cache(EvalCacheConfig::default())
            .with_goal(goal.clone())
            .with_max_steps(120);
        let corner_count = 30usize;
        let run = |config: CampaignConfig| {
            let campaign = SizingCampaign::new(circuit.clone(), config);
            let result = campaign.run(1);
            (campaign, result)
        };
        let (_, full) = run(base.clone());
        let full_sims = full.sims_to_success.unwrap_or(full.total_sims);
        let full_rec =
            BenchRecord::new("campaign", *name, "full-grid", corner_count, full_sims, full.wall);
        print_record(&full_rec);
        report.push(full_rec);

        let (pruned_campaign, pruned) = run(base.with_pruning(PruningConfig::new(5, 10)));
        let pruned_sims = pruned.sims_to_success.unwrap_or(pruned.total_sims);
        let sim_ratio = full_sims as f64 / pruned_sims.max(1) as f64;
        let pruned_rec =
            BenchRecord::new("campaign", *name, "pruned", corner_count, pruned_sims, pruned.wall)
                .with_speedup(sim_ratio);
        print_record(&pruned_rec);
        report.push(pruned_rec);

        if gate {
            if !full.success || !pruned.success {
                failures.push(format!(
                    "campaign: {name} arm failed to reach a feasible design \
                     (full {}, pruned {})",
                    full.success, pruned.success
                ));
                continue;
            }
            if sim_ratio < pruning_floor {
                failures.push(format!(
                    "campaign: {name} pruned arm needed {pruned_sims} sims vs \
                     {full_sims} full-grid ({sim_ratio:.2}x, floor {pruning_floor:.1}x)"
                ));
            }
            // Pruning must not weaken success: the pruned design must
            // satisfy the goal spec at every corner of the full grid.
            let x = pruned.final_design.as_ref().expect("successful campaign carries a design");
            let goal_spec = circuit.spec().with_scaled_limits(goal);
            let problem = pruned_campaign.problem();
            let corners = problem.config().corners.clone();
            for ci in 0..corners.len() {
                let h = MismatchVector::nominal(circuit.mismatch_domain(x).dim());
                let outcome = problem.simulate(x, &corners.corner(ci), &h);
                if !goal_spec.satisfied(&outcome.metrics) {
                    failures.push(format!(
                        "campaign: {name} pruned design violates the goal spec at \
                         corner {ci} on the full-grid re-check"
                    ));
                }
            }
        }
    }

    // ---- serve: concurrent campaigns over shared registries ------------
    // K=4 same-topology sizing jobs through `glova-serve`: one-at-a-time
    // on fresh registries (the pre-registry cost model — every campaign
    // pays its own symbolic prime) vs one 4-worker server sharing a
    // SolverRegistry and CacheRegistry. Gated on the deterministic
    // aggregate prime count: the shared fleet must pay strictly fewer
    // primes, with the ratio floored at `--min-serve-prime-ratio`
    // (default 2.0; one prime instead of four measures 4.0) — and on
    // cross-arm agreement of every job's simulation count, since
    // registry sharing must be unobservable in the trajectories.
    // Throughput is reported ungated: on a 1-core runner the concurrent
    // fleet cannot win wall time, but it still pays 1 prime instead
    // of 4.
    let serve_floor: f64 =
        flag(&args, "--min-serve-prime-ratio").and_then(|s| s.parse().ok()).unwrap_or(2.0);
    let serve_config = CampaignConfig::quick(VerificationMethod::Corner)
        .with_cache(EvalCacheConfig::default())
        .with_max_steps(if quick { 3 } else { 6 });
    let serve_jobs: Vec<SizingRequest> = (1..=4)
        .map(|seed| {
            SizingRequest::new(CircuitSpec::InverterChain { stages: 8 }, serve_config.clone(), seed)
        })
        .collect();

    let mut solo_primes = 0u64;
    let mut solo_sims: Vec<u64> = Vec::new();
    let solo_start = Instant::now();
    for request in &serve_jobs {
        let solvers = Arc::new(SolverRegistry::new());
        let server =
            CampaignServer::with_registries(1, solvers.clone(), Arc::new(CacheRegistry::new()));
        let id = server.submit(request.clone()).expect("serve request is valid");
        let result = server.wait(id).expect("job exists").result.expect("campaign completes");
        solo_sims.push(result.total_sims);
        server.shutdown();
        solo_primes += solvers.primes();
    }
    let solo_wall = solo_start.elapsed();
    let solo_rec = BenchRecord::new(
        "serve",
        "SpiceInverterChain",
        "one-at-a-time",
        4,
        solo_sims.iter().sum(),
        solo_wall,
    );
    print_record(&solo_rec);
    report.push(solo_rec);

    let shared_solvers = Arc::new(SolverRegistry::new());
    let server =
        CampaignServer::with_registries(4, shared_solvers.clone(), Arc::new(CacheRegistry::new()));
    let shared_start = Instant::now();
    let serve_ids: Vec<_> = serve_jobs
        .iter()
        .map(|r| server.submit(r.clone()).expect("serve request is valid"))
        .collect();
    let shared_sims: Vec<u64> = serve_ids
        .iter()
        .map(|&id| {
            server.wait(id).expect("job exists").result.expect("campaign completes").total_sims
        })
        .collect();
    let shared_wall = shared_start.elapsed();
    let shared_primes = shared_solvers.primes();
    server.shutdown();
    let prime_ratio = solo_primes as f64 / shared_primes.max(1) as f64;
    let shared_rec = BenchRecord::new(
        "serve",
        "SpiceInverterChain",
        "4-concurrent",
        4,
        shared_sims.iter().sum(),
        shared_wall,
    )
    .with_speedup(prime_ratio);
    print_record(&shared_rec);
    report.push(shared_rec);
    println!(
        "  serve: symbolic primes {solo_primes} one-at-a-time vs {shared_primes} \
         shared ({prime_ratio:.1}x)"
    );
    if gate {
        if shared_primes >= solo_primes || prime_ratio < serve_floor {
            failures.push(format!(
                "serve: shared fleet paid {shared_primes} symbolic primes vs {solo_primes} \
                 one-at-a-time ({prime_ratio:.2}x, floor {serve_floor:.1}x)"
            ));
        }
        if solo_sims != shared_sims {
            failures.push(format!(
                "serve: per-job simulation counts diverged between arms \
                 (one-at-a-time {solo_sims:?}, concurrent {shared_sims:?}) — registry \
                 sharing must be unobservable in the trajectories"
            ));
        }
    }

    // ---- serve_robust: fault-injected and budget-capped neighbours -----
    // K=4 same-topology jobs again, but the robust arm injects
    // deterministic non-convergence faults into the seed-2 job and caps
    // the seed-3 job at roughly half its fault-free simulation budget.
    // Gates: (a) the two *unaffected* jobs' simulation counts are
    // bitwise equal to the fault-free arm — fault isolation and budget
    // enforcement must be unobservable outside the afflicted jobs; (b)
    // the budgeted job terminates BudgetExhausted with sims ≤ cap, with
    // the cap/spent headroom floored at `--min-budget-headroom`
    // (default 1.0 — "never exceeds the cap"; enforcement exactness is
    // the property, not slack).
    let headroom_floor: f64 =
        flag(&args, "--min-budget-headroom").and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let clean_server = CampaignServer::with_registries(
        4,
        Arc::new(SolverRegistry::new()),
        Arc::new(CacheRegistry::new()),
    );
    let clean_start = Instant::now();
    let clean_ids: Vec<_> = serve_jobs
        .iter()
        .map(|r| clean_server.submit(r.clone()).expect("serve request is valid"))
        .collect();
    let clean_sims: Vec<u64> = clean_ids
        .iter()
        .map(|&id| {
            clean_server.wait(id).expect("job exists").result.expect("campaign ran").total_sims
        })
        .collect();
    let clean_wall = clean_start.elapsed();
    let clean_rec = BenchRecord::new(
        "serve_robust",
        "SpiceInverterChain",
        "fault-free",
        4,
        clean_sims.iter().sum(),
        clean_wall,
    );
    print_record(&clean_rec);
    report.push(clean_rec);

    let sim_cap = (clean_sims[2] / 2).max(1);
    let robust_jobs: Vec<SizingRequest> = serve_jobs
        .iter()
        .enumerate()
        .map(|(i, r)| match i {
            1 => r.clone().with_fault_plan(Arc::new(FaultPlan::seeded(
                2,
                clean_sims[1],
                8,
                FaultKind::NonConvergence,
            ))),
            2 => r.clone().with_budget(JobBudget::unlimited().with_max_sims(sim_cap)),
            _ => r.clone(),
        })
        .collect();
    let robust_server = CampaignServer::with_registries(
        4,
        Arc::new(SolverRegistry::new()),
        Arc::new(CacheRegistry::new()),
    );
    let robust_start = Instant::now();
    let robust_ids: Vec<_> = robust_jobs
        .iter()
        .map(|r| robust_server.submit(r.clone()).expect("serve request is valid"))
        .collect();
    let robust: Vec<(JobStatus, u64)> = robust_ids
        .iter()
        .map(|&id| {
            let snapshot = robust_server.wait(id).expect("job exists");
            (snapshot.status, snapshot.result.expect("campaign ran").total_sims)
        })
        .collect();
    let robust_wall = robust_start.elapsed();
    robust_server.shutdown();
    let budget_headroom = sim_cap as f64 / robust[2].1.max(1) as f64;
    let robust_rec = BenchRecord::new(
        "serve_robust",
        "SpiceInverterChain",
        "faulted+budgeted",
        4,
        robust.iter().map(|&(_, sims)| sims).sum(),
        robust_wall,
    )
    .with_speedup(budget_headroom);
    print_record(&robust_rec);
    report.push(robust_rec);
    println!(
        "  serve_robust: budgeted job spent {} of {sim_cap} sims \
         ({budget_headroom:.2}x headroom), statuses {:?}",
        robust[2].1,
        robust.iter().map(|&(status, _)| status).collect::<Vec<_>>()
    );
    if gate {
        for &i in &[0usize, 3] {
            if robust[i].1 != clean_sims[i] || robust[i].0 != JobStatus::Done {
                failures.push(format!(
                    "serve_robust: unaffected job {i} diverged from the fault-free arm \
                     ({:?} with {} sims vs Done with {})",
                    robust[i].0, robust[i].1, clean_sims[i]
                ));
            }
        }
        if robust[2].0 != JobStatus::BudgetExhausted {
            failures.push(format!(
                "serve_robust: budget-capped job ended {:?}, expected BudgetExhausted",
                robust[2].0
            ));
        }
        if budget_headroom < headroom_floor {
            failures.push(format!(
                "serve_robust: budgeted job spent {} sims against a cap of {sim_cap} \
                 ({budget_headroom:.2}x, floor {headroom_floor:.1}x)",
                robust[2].1
            ));
        }
        if robust[1].0 != JobStatus::Done {
            failures.push(format!(
                "serve_robust: fault-injected job must degrade, not die (got {:?})",
                robust[1].0
            ));
        }
    }
    clean_server.shutdown();

    // ---- gate: wall ceiling over every record --------------------------
    if gate {
        for r in &report.records {
            if r.wall_seconds > max_wall {
                failures.push(format!(
                    "{} {} {}: wall {:.1}s exceeds ceiling {max_wall:.1}s",
                    r.scenario, r.circuit, r.engine, r.wall_seconds
                ));
            }
        }
    }

    if report_requested(&args) {
        write_report(&report);
    }

    if !failures.is_empty() {
        eprintln!("\nperf gate FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    if gate {
        println!("\nperf gate passed ✓");
    }
}
