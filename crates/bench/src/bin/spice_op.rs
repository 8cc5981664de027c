//! SPICE operating-point microbenchmark: DC solves across circuit sizes,
//! solver backends and Jacobian strategies, plus the sparse symbolic
//! cold-start and refactor costs.
//!
//! ```sh
//! cargo run --release -p glova-bench --bin spice_op
//! cargo run --release -p glova-bench --bin spice_op -- --backend sparse
//! cargo run --release -p glova-bench --bin spice_op -- \
//!     --sizes 4,24,64,128 --solves 500 --report
//! cargo run --release -p glova-bench --bin spice_op -- --engine threaded:4
//! cargo run --release -p glova-bench --bin spice_op -- --circuits inv,rc,ota,senseamp
//! cargo run --release -p glova-bench --bin spice_op -- --order amd
//! ```
//!
//! Without `--backend`, every size runs **both** dense and sparse (plus
//! the auto selection as a sanity row), which is the dense-vs-sparse
//! scaling curve the perf trajectory tracks; `--backend dense|sparse|auto`
//! restricts the matrix to one backend — the CLI override for the
//! size-based auto-selection. `--engine threaded:N` runs the solve sweep
//! through an [`EvalEngine`](glova::engine::EvalEngine) over an
//! [`OpSolverPool`] — per-worker solvers cloned from one primed
//! prototype, the execution model of the pipeline's threaded
//! corner/mismatch sweeps. `--circuits inv,rc,ota,senseamp` picks the
//! circuit set (default `inv,rc`; `ota` adds the two-stage Miller OTA;
//! `senseamp` adds 2-D DRAM sense-amp arrays out to 508 and 1026
//! unknowns — the fill-heavy workload the AMD pre-ordering targets).
//! `--order amd|markowitz` selects the sparse fill-reducing ordering
//! used by every solve (default `markowitz`, the historical behaviour);
//! the symbolic section always times **both** orderings side by side
//! and reports the AMD speedup plus its threshold-pivot fallback count,
//! next to the sparse factor / refactor pair per pattern. Timings are
//! best-of-two; `--report` writes
//! `BENCH_spice_op.json`.

use glova::engine::EngineSpec;
use glova_bench::report::{BenchRecord, BenchReport};
use glova_bench::{report_requested, write_report};
use glova_linalg::sparse::SparseLu;
use glova_linalg::FillOrdering;
use glova_spice::dc::{OpSolver, OpSolverPool};
use glova_spice::mna::{NewtonOptions, SolverBackend, SparseAssemblyTemplate, StampContext};
use glova_spice::netlist::{
    inverter_chain, ota_two_stage, rc_ladder, sense_amp_array, Netlist, OtaParams,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// Best-of-two wall time for `solves` repeated operating-point solves
/// through a persistent [`OpSolver`] — the sweep pattern (template and,
/// on the sparse backend, the symbolic factorization built once).
/// `None` when the backend cannot solve the circuit.
fn solve_op(netlist: &Netlist, options: &NewtonOptions, solves: usize) -> Option<Duration> {
    let mut solver = OpSolver::new(netlist, *options);
    let mut best = Duration::MAX;
    for _ in 0..2 {
        let start = Instant::now();
        for _ in 0..solves {
            if solver.solve().is_err() {
                return None;
            }
        }
        best = best.min(start.elapsed());
    }
    Some(best)
}

/// [`solve_op`] dispatched through an [`EvalEngine`](glova::engine::EvalEngine): the batch of
/// repeated solves fans out over the engine's workers, each checking a
/// per-worker solver out of a shared [`OpSolverPool`] (symbolic analysis
/// once, numeric refactorizations per worker).
fn solve_op_engine(
    netlist: &Netlist,
    options: &NewtonOptions,
    solves: usize,
    engine: EngineSpec,
) -> Option<Duration> {
    let pool = OpSolverPool::new(netlist, *options).ok()?;
    let engine = engine.build();
    let failed = AtomicBool::new(false);
    let mut best = Duration::MAX;
    for _ in 0..2 {
        let start = Instant::now();
        engine.run(solves, &|_| {
            if pool.with_solver(|solver| solver.solve().is_err()) {
                failed.store(true, Ordering::Relaxed);
            }
        });
        if failed.load(Ordering::Relaxed) {
            return None;
        }
        best = best.min(start.elapsed());
    }
    Some(best)
}

/// Best-of-two wall time for `reps` back-to-back calls of `f`.
fn best_of_two(reps: u64, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..2 {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(start.elapsed());
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let solves: usize = flag(&args, "--solves").and_then(|s| s.parse().ok()).unwrap_or(200);
    let sizes: Vec<usize> = flag(&args, "--sizes")
        .map(|s| {
            s.split(',')
                .map(|v| {
                    v.trim().parse().unwrap_or_else(|_| {
                        eprintln!("--sizes expects a comma-separated list of stage counts");
                        std::process::exit(2);
                    })
                })
                .collect()
        })
        .unwrap_or_else(|| vec![4, 24, 64, 128]);
    let only: Option<SolverBackend> = flag(&args, "--backend").map(|s| {
        SolverBackend::parse(&s).unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(2);
        })
    });
    let backends: Vec<SolverBackend> = match only {
        Some(b) => vec![b],
        None => vec![SolverBackend::Dense, SolverBackend::Sparse, SolverBackend::Auto],
    };
    let engine: EngineSpec = flag(&args, "--engine")
        .map(|s| {
            EngineSpec::parse(&s).unwrap_or_else(|err| {
                eprintln!("{err}");
                std::process::exit(2);
            })
        })
        .unwrap_or(EngineSpec::Sequential);

    let order: FillOrdering = flag(&args, "--order")
        .map(|s| {
            FillOrdering::parse(&s).unwrap_or_else(|err| {
                eprintln!("{err}");
                std::process::exit(2);
            })
        })
        .unwrap_or_default();

    let circuit_set: Vec<String> = flag(&args, "--circuits")
        .unwrap_or_else(|| "inv,rc".to_string())
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();
    for kind in &circuit_set {
        if !matches!(kind.as_str(), "inv" | "rc" | "ota" | "senseamp") {
            eprintln!("--circuits expects a comma-separated subset of inv,rc,ota,senseamp");
            std::process::exit(2);
        }
    }

    println!(
        "=== spice_op: DC operating-point solves ({solves} solves, best of 2, {order} ordering) ===\n"
    );
    let mut report = BenchReport::new("spice_op");

    let mut circuits: Vec<(String, Netlist)> = Vec::new();
    if circuit_set.iter().any(|k| k == "inv") {
        circuits.extend(sizes.iter().map(|&s| (format!("inv_chain{s}"), inverter_chain(s))));
    }
    if circuit_set.iter().any(|k| k == "rc") {
        circuits.push(("rc_ladder64".to_string(), rc_ladder(64, 1e3, 1e-12)));
    }
    if circuit_set.iter().any(|k| k == "ota") {
        circuits.push(("ota_two_stage".to_string(), ota_two_stage(&OtaParams::nominal())));
    }
    if circuit_set.iter().any(|k| k == "senseamp") {
        // 2-D sense-amp arrays: unknowns = rows·cols + rows + 2·cols + 4,
        // so these shapes land the scaling curve at 92 / 508 / 1026
        // unknowns — the last two are the 512- and 1024-unknown rungs.
        circuits.extend(
            [(8usize, 8usize), (21, 21), (30, 31)]
                .iter()
                .map(|&(r, c)| (format!("senseamp{r}x{c}"), sense_amp_array(r, c))),
        );
    }

    // The dense reference is O(n³) per Newton iteration — past a few
    // hundred unknowns it stops being a reference and becomes the whole
    // benchmark, so the dense rows stop there and the large arrays trim
    // the solve count (the per-op rates stay comparable).
    const DENSE_CUTOFF: usize = 300;
    for (name, netlist) in &circuits {
        let n = netlist.unknown_count();
        let solves = if n > 400 { (solves / 10).max(10) } else { solves };
        let mut dense_wall: Option<Duration> = None;
        for &backend in &backends {
            if backend == SolverBackend::Dense && n > DENSE_CUTOFF {
                println!("{name:<14} {n:>4} unknowns  dense   skipped (past dense cutoff)");
                continue;
            }
            let options = NewtonOptions::default().with_backend(backend).with_ordering(order);
            let Some(wall) = solve_op(netlist, &options, solves) else {
                // The dense reference runs out of numerical headroom on
                // the largest chains (border-block cancellation) — report
                // the gap instead of crashing the whole matrix.
                println!(
                    "{:<14} {:>4} unknowns  {:<7} does not converge",
                    name,
                    netlist.unknown_count(),
                    format!("{backend}"),
                );
                continue;
            };
            let mut record = BenchRecord::new(
                "spice_op",
                name.clone(),
                format!("{backend}"),
                netlist.unknown_count(),
                solves as u64,
                wall,
            );
            if backend == SolverBackend::Dense {
                dense_wall = Some(wall);
            } else if let Some(reference) = dense_wall {
                record =
                    record.with_speedup(reference.as_secs_f64() / wall.as_secs_f64().max(1e-12));
            }
            let speedup = record
                .speedup_vs_sequential
                .map_or_else(|| "      -".to_string(), |s| format!("{s:6.2}x"));
            println!(
                "{:<14} {:>4} unknowns  {:<7} {:>9.1} ops/s  vs dense {}",
                record.circuit, record.batch, record.engine, record.sims_per_sec, speedup
            );
            report.push(record);

            // Engine-dispatched sweep: same workload fanned out over
            // per-worker pool solvers, speedup vs this backend's
            // sequential wall.
            if engine != EngineSpec::Sequential {
                let workers = engine.resolved_workers();
                match solve_op_engine(netlist, &options, solves, engine) {
                    Some(thr_wall) => {
                        let thr = BenchRecord::new(
                            "spice_op",
                            name.clone(),
                            format!("{backend}+threaded:{workers}"),
                            netlist.unknown_count(),
                            solves as u64,
                            thr_wall,
                        )
                        .with_speedup(wall.as_secs_f64() / thr_wall.as_secs_f64().max(1e-12));
                        println!(
                            "{:<14} {:>4} unknowns  {:<7} {:>9.1} ops/s  vs seq   {:6.2}x",
                            thr.circuit,
                            thr.batch,
                            thr.engine,
                            thr.sims_per_sec,
                            thr.speedup_vs_sequential.unwrap_or(0.0)
                        );
                        report.push(thr);
                    }
                    // A convergence failure must be as loud as on the
                    // plain path — a missing row reads as "not
                    // requested", hiding exactly the regression the
                    // artifact exists to surface.
                    None => println!(
                        "{:<14} {:>4} unknowns  {:<7} does not converge",
                        name,
                        netlist.unknown_count(),
                        format!("{backend}+threaded:{workers}"),
                    ),
                }
            }
        }
    }

    // ---- symbolic: sparse cold-start vs numeric refresh -----------------
    // factor = symbolic analysis + first numeric elimination at the
    // primed point (all-zeros estimate, gmin 1e-3); refactor =
    // numeric-only over the frozen pattern, the per-refresh cost.
    println!("\n--- sparse symbolic / refactor costs ---");
    let mut symbolic_circuits: Vec<(String, Netlist)> = Vec::new();
    if circuit_set.iter().any(|k| k == "inv") {
        symbolic_circuits.extend(
            sizes
                .iter()
                .filter(|&&s| s + 4 >= SolverBackend::AUTO_SPARSE_THRESHOLD)
                .map(|&s| (format!("inv_chain{s}"), inverter_chain(s))),
        );
    }
    if circuit_set.iter().any(|k| k == "rc") {
        symbolic_circuits.push(("rc_ladder64".to_string(), rc_ladder(64, 1e3, 1e-12)));
    }
    if circuit_set.iter().any(|k| k == "senseamp") {
        symbolic_circuits.extend(
            [(8usize, 8usize), (21, 21), (30, 31)]
                .iter()
                .map(|&(r, c)| (format!("senseamp{r}x{c}"), sense_amp_array(r, c))),
        );
    }
    for (name, nl) in &symbolic_circuits {
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-3 };
        let template = SparseAssemblyTemplate::new(nl, nl.values(), &ctx);
        let n = template.dim();
        let mut a = template.new_system();
        let mut rhs = vec![0.0; n];
        template.assemble_into(&mut a, &mut rhs, &vec![0.0; n], 1e-3);
        let reps: u64 = 200;
        let mut lu = None;
        let best_factor = best_of_two(reps, || lu = SparseLu::factor(&a).ok());
        let Some(mut lu) = lu else {
            println!("{name:<14} singular at the primed point — skipped");
            continue;
        };
        let best_refactor = best_of_two(reps, || lu.refactor(&a).unwrap());
        // Cold symbolic+factor under the AMD pre-ordering — the number
        // the ≥1.5× perfsuite gate compares against the Markowitz
        // `factor` row on the sense-amp arrays.
        let mut amd_fallbacks = 0;
        let best_amd = best_of_two(reps, || {
            if let Ok(amd_lu) = SparseLu::factor_with(&a, FillOrdering::Amd) {
                amd_fallbacks = amd_lu.preorder_fallbacks();
            }
        });
        let us = |d: Duration| d.as_secs_f64() * 1e6 / reps as f64;
        println!(
            "{name:<14} {n:>4} unknowns  factor {:8.1} us  refactor {:6.2} us  \
             symbolic ~{:.1} us",
            us(best_factor),
            us(best_refactor),
            us(best_factor) - us(best_refactor),
        );
        println!(
            "{:<14} {n:>4} unknowns  factor-amd {:6.1} us  {:6.2}x vs markowitz  \
             ({amd_fallbacks} pivot fallbacks)",
            "",
            us(best_amd),
            us(best_factor) / us(best_amd).max(1e-9),
        );
        for (engine, wall) in [("factor", best_factor), ("refactor", best_refactor)] {
            report.push(BenchRecord::new("spice_symbolic", name.clone(), engine, n, reps, wall));
        }
        report.push(
            BenchRecord::new("spice_symbolic", name.clone(), "factor-amd", n, reps, best_amd)
                .with_speedup(us(best_factor) / us(best_amd).max(1e-9)),
        );
    }

    if report_requested(&args) {
        write_report(&report);
    }
}
