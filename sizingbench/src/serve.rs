//! `serve_open`: one `CampaignServer` with a worker per core, fed by a
//! single generator thread on a seeded Poisson schedule (open loop). The
//! stream mixes the three SPICE circuits, full and pruned arms and two
//! goals per circuit; both arms of a seed are submitted back to back, so
//! the shared solver and cache registries answer repeats.

use crate::campaign::{Spice, CHAIN_STAGES};
use crate::common::{
    emit_end_to_end, feasible_on_full_grid, goal_spec, peak_rss_mb, run_campaign, timed_setup,
    workload_digest, Args, CampaignRun, Layers, Report, HOST_SAMPLES,
};
use glova::cache::{CachePolicy, CacheRegistry, EvalCache, EvalCacheConfig};
use glova::campaign::{CampaignConfig, CampaignResult, PruningConfig};
use glova_circuits::{SpiceInverterChain, SpiceOta, SpiceSenseAmpArray};
use glova_serve::{CampaignServer, CircuitSpec, JobId, JobPriority, JobStatus, SizingRequest};
use glova_spice::registry::SolverRegistry;
use glova_stats::rng::fork;
use glova_variation::config::VerificationMethod;
use sizingbench::calibrate::HostSpeed;
use sizingbench::digest;
use sizingbench::schedule::{drive_open_loop, poisson_offsets, Arrival, SplitMix64};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered load in jobs per second. The two-worker fleet completed this
/// mix at about 20 jobs/s in the host's fast phase and 15/s in its slow
/// phase; 10/s is two thirds of the slow-phase capacity, so the queue
/// works without a slow phase tipping it into a growing backlog.
pub const RATE: f64 = 7.0;
const ARRAY_SHAPE: (usize, usize) = (5, 4);
const STEPS: usize = 20;
/// Each template runs on each of these seeds (see [`requests`]).
const JOB_SEEDS: [u64; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 9];
const QUEUE_CAPACITY: usize = 256;
/// Threads blocked in `CampaignServer::wait`, so a job that finishes
/// ahead of an earlier one is still seen at once.
const WAITERS: usize = 8;
/// One job in this many is `Interactive`.
const INTERACTIVE_ONE_IN: usize = 8;
const SETUP_BATCHES: usize = 101;

/// `(circuit, goal factors)` templates; a request group is one template,
/// one job seed and both arms. Two goals per circuit, each tighter than
/// the seed designs of nearly every job seed meet, so jobs search.
fn templates() -> [(usize, [f64; 3]); 6] {
    [
        (0, [1.5, 6.0, 0.45]),
        (0, [1.6, 7.0, 0.4]),
        (1, [0.44, 1.25, 0.4]),
        (1, [0.4, 1.3, 0.35]),
        (2, [1.5, 0.85, 0.75]),
        (2, [1.7, 0.8, 0.7]),
    ]
}

const SPECS: [CircuitSpec; 3] = [
    CircuitSpec::Ota,
    CircuitSpec::InverterChain { stages: CHAIN_STAGES },
    CircuitSpec::SenseAmpArray { rows: ARRAY_SHAPE.0, cols: ARRAY_SHAPE.1 },
];

fn cache_config() -> EvalCacheConfig {
    EvalCacheConfig::with_policy(CachePolicy::On)
}

/// One request of the stream and the catalogue index of its circuit.
struct Request {
    circuit: usize,
    request: SizingRequest,
}

/// The request stream of a workload seed: every template on every job
/// seed, both arms of a group back to back, groups in an order drawn
/// from the workload seed, and a seeded one in [`INTERACTIVE_ONE_IN`]
/// jobs interactive. The jobs themselves are a fixed list: with job
/// seeds drawn from the workload seed, five workload seeds gave
/// `sims_per_job` 341–455 and a median job time spread of 0.93.
fn requests(seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed);
    let mut groups: Vec<(usize, u64)> =
        (0..templates().len()).flat_map(|t| JOB_SEEDS.map(|s| (t, s))).collect();
    rng.shuffle(&mut groups);
    let mut out = Vec::with_capacity(2 * groups.len());
    for (template, job_seed) in groups {
        let (circuit, goal) = templates()[template];
        let base = CampaignConfig::quick(VerificationMethod::Corner)
            .with_cache(cache_config())
            .with_goal(goal.to_vec())
            .with_max_steps(STEPS);
        for config in [base.clone(), base.with_pruning(PruningConfig::new(5, 10))] {
            let priority = if rng.below(INTERACTIVE_ONE_IN) == 0 {
                JobPriority::Interactive
            } else {
                JobPriority::Batch
            };
            let request =
                SizingRequest::new(SPECS[circuit], config, job_seed).with_priority(priority);
            out.push(Request { circuit, request });
        }
    }
    out
}

fn server(workers: usize) -> CampaignServer {
    CampaignServer::with_registries(
        workers,
        Arc::new(SolverRegistry::new()),
        Arc::new(CacheRegistry::new()),
    )
    .with_queue_capacity(QUEUE_CAPACITY)
}

/// When a job's `wait` returned, with its terminal status and result
/// (`None` when the submit was refused).
type Finished = Option<(Instant, JobStatus, Option<CampaignResult>)>;

/// What one served pass observed.
struct Served {
    arrivals: Vec<Arrival>,
    finished: Vec<Finished>,
    queue_depth_max: u64,
    solver_primes: u64,
    solver_hits: u64,
    cache_handle_hits: u64,
}

impl Served {
    fn done(&self) -> impl Iterator<Item = (&Arrival, Instant, &CampaignResult)> {
        self.arrivals.iter().zip(&self.finished).filter_map(|(a, f)| match f {
            Some((t, JobStatus::Done, Some(r))) => Some((a, *t, r)),
            _ => None,
        })
    }
}

/// Submits the stream on its schedule, sampling the host after each
/// submit, and waits for every job. With `traced`, a poller samples
/// `queue_depth()` every millisecond.
fn serve_pass(
    server: CampaignServer,
    stream: &[Request],
    offsets: &[Duration],
    host: &mut HostSpeed,
    traced: bool,
) -> Served {
    let slots: Vec<Mutex<Finished>> = stream.iter().map(|_| Mutex::new(None)).collect();
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, JobId)>();
    let rx = Mutex::new(rx);
    let (arrivals, queue_depth_max) = std::thread::scope(|s| {
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                s.spawn(|| loop {
                    let next = rx.lock().expect("waiter queue poisoned").recv();
                    let Ok((i, id)) = next else { break };
                    let snapshot = server.wait(id).expect("a submitted job is known");
                    let seen = Instant::now();
                    *slots[i].lock().expect("slot poisoned") =
                        Some((seen, snapshot.status, snapshot.result));
                })
            })
            .collect();
        let poller = traced.then(|| {
            s.spawn(|| {
                let mut max = 0;
                while !stop.load(Ordering::Relaxed) {
                    max = max.max(server.queue_depth());
                    std::thread::sleep(Duration::from_millis(1));
                }
                max as u64
            })
        });
        let start = Instant::now();
        let arrivals = drive_open_loop(start, offsets, |i| {
            // A refused submit leaves its slot empty: counted as failed.
            if let Ok(id) = server.submit(stream[i].request.clone()) {
                tx.send((i, id)).expect("waiters outlive the generator");
            }
            // The generator idles between arrivals: sample the host then.
            host.sample(1);
        });
        drop(tx);
        for w in waiters {
            w.join().expect("waiter thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
        let depth = poller.map_or(0, |p| p.join().expect("poller thread panicked"));
        (arrivals, depth)
    });
    let solver_primes = server.solver_registry().primes();
    let solver_hits = server.solver_registry().hits();
    let cache_handle_hits = server.cache_registry().hits();
    server.shutdown();
    Served {
        arrivals,
        finished: slots.into_iter().map(|m| m.into_inner().expect("slot poisoned")).collect(),
        queue_depth_max,
        solver_primes,
        solver_hits,
        cache_handle_hits,
    }
}

/// Replays the stream directly, in submission order, over one shared
/// `EvalCache` per circuit and registry-built circuits — the path a
/// served job takes, minus the server.
fn replay(stream: &[Request], traced: bool) -> (Vec<CampaignRun>, [Spice; 3]) {
    let registry = SolverRegistry::new();
    let circuits = [
        Spice::Ota(Arc::new(SpiceOta::from_registry(&registry))),
        Spice::Chain(Arc::new(SpiceInverterChain::from_registry(CHAIN_STAGES, &registry))),
        Spice::Array(Arc::new(SpiceSenseAmpArray::from_registry(
            ARRAY_SHAPE.0,
            ARRAY_SHAPE.1,
            &registry,
        ))),
    ];
    let caches: Vec<Arc<EvalCache>> =
        (0..circuits.len()).map(|_| Arc::new(EvalCache::new(cache_config()))).collect();
    let runs = stream
        .iter()
        .map(|r| {
            let c = circuits[r.circuit].circuit();
            let cache = Some(&caches[r.circuit]);
            run_campaign(&c, &r.request.config, cache, r.request.seed, traced).0
        })
        .collect();
    (runs, circuits)
}

/// Output checks of a served pass against its replay: every job done,
/// every served result bitwise equal to its replay, every verified
/// design feasible on the full grid.
fn check_served(
    report: &mut Report,
    stream: &[Request],
    served: &Served,
    runs: &[CampaignRun],
    circuits: &[Spice; 3],
) {
    for (i, ((req, fin), run)) in stream.iter().zip(&served.finished).zip(runs).enumerate() {
        match fin {
            Some((_, JobStatus::Done, Some(result))) => {
                report.check(digest::campaign_result(result) == run.digest, || {
                    format!("job {i}: served result differs from its direct replay")
                });
            }
            Some((_, status, _)) => report.check(false, || format!("job {i}: ended {status:?}")),
            None => report.check(false, || format!("job {i}: submit refused")),
        }
        if let Some(x) = &run.result.final_design {
            let c = circuits[req.circuit].circuit();
            let spec = goal_spec(&c, &req.request.config);
            report.check(feasible_on_full_grid(&c, req.request.config.method, &spec, x), || {
                format!("job {i}: final design infeasible on the full grid")
            });
        }
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new("serve_open");
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The window is set by the fixed stream (`--seconds` does not
    // apply): 108 jobs at 7/s, each window followed by its replay.
    let setup_factor = report.host.sample(HOST_SAMPLES);
    let (setup_s, (first_server, stream, offsets)) = timed_setup(SETUP_BATCHES, 1, || {
        let stream = requests(args.seed);
        let window = stream.len() as f64 / RATE;
        let offsets = poisson_offsets(fork(args.seed, u64::MAX), RATE, window);
        (server(workers), stream, offsets)
    });
    let served = serve_pass(first_server, &stream, &offsets, &mut report.host, false);
    let rss = peak_rss_mb();
    report.attempted = stream.len() as u64;
    let (runs, circuits) = replay(&stream, false);
    check_served(&mut report, &stream, &served, &runs, &circuits);

    let done: Vec<(&Arrival, Instant, &CampaignResult)> = served.done().collect();
    let n = done.len().max(1) as f64;
    report.host.sample(HOST_SAMPLES);
    let factor = report.host.factor();
    let job_s: Vec<f64> =
        done.iter().map(|(a, t, _)| a.latency_until(*t).as_secs_f64() * factor).collect();
    let busy: f64 = done.iter().map(|(_, _, r)| r.wall.as_secs_f64()).sum();
    let first_due = served.arrivals.first().map(|a| a.due);
    let last_seen = done.iter().map(|d| d.1).max();
    let jobs_per_s = match (first_due, last_seen) {
        // An open loop's throughput follows its arrival rate, not the
        // host's speed: it is reported as measured.
        (Some(a), Some(b)) => done.len() as f64 / (b - a).as_secs_f64(),
        _ => f64::NAN,
    };
    let distinct = {
        let mut seen = [false; 3];
        stream.iter().for_each(|r| seen[r.circuit] = true);
        seen.iter().filter(|&&s| s).count() as u64
    };
    report.check(served.solver_primes == distinct, || {
        format!("{} solver primes for {distinct} topologies", served.solver_primes)
    });
    report.note(format!(
        "seed {}: {} jobs at {RATE}/s on {workers} workers, offered load {:.2}, {} verified, workload digest {:016x}",
        args.seed,
        stream.len(),
        RATE * busy / n / workers as f64,
        done.iter().filter(|d| d.2.success).count(),
        workload_digest(runs.iter().map(|r| r.digest))
    ));

    if !args.trace {
        if !job_s.is_empty() {
            emit_end_to_end(
                &mut report,
                setup_s * setup_factor,
                &job_s,
                jobs_per_s,
                done.iter().map(|d| d.2.total_sims as f64).sum::<f64>() / n,
                done.iter().filter(|d| d.2.success).count() as f64 / n,
                rss,
            );
        }
        return report;
    }

    let traced = serve_pass(server(workers), &stream, &offsets, &mut report.host, true);
    report.attempted += stream.len() as u64;
    let (traced_runs, traced_circuits) = replay(&stream, true);
    check_served(&mut report, &stream, &traced, &traced_runs, &traced_circuits);
    report.check(traced.solver_primes == served.solver_primes, || {
        format!(
            "solver primes {} traced vs {} untraced",
            traced.solver_primes, served.solver_primes
        )
    });
    let mut layers = Layers {
        queue_depth_max: traced.queue_depth_max,
        solver_primes: traced.solver_primes,
        solver_hits: traced.solver_hits,
        cache_handle_hits: traced.cache_handle_hits,
        ..Layers::default()
    };
    for (a, t, r) in traced.done() {
        layers.queue_wait_s.push(a.latency_until(t).saturating_sub(r.wall).as_secs_f64());
        layers.gen_lag_s.push(a.lag().as_secs_f64());
    }
    for (j, (a, b)) in runs.iter().zip(&traced_runs).enumerate() {
        let evals = b.sample.expect("traced").evals;
        report.check(a.digest == b.digest, || format!("job {j}: traced replay differs"));
        report.check(a.cache == b.cache && a.cache.misses == evals, || {
            format!("job {j}: cache {:?} vs traced {:?}, {evals} evaluations", a.cache, b.cache)
        });
        layers.add_campaign(b);
    }
    for c in &traced_circuits {
        layers.solvers_spawned += c.pool().solvers_spawned() as u64;
        layers.solvers_retired += c.pool().solvers_retired() as u64;
    }
    let traced_busy: f64 = traced.done().map(|(_, _, r)| r.wall.as_secs_f64()).sum();
    layers.emit(&mut report, traced_busy / busy - 1.0);
    report
}
