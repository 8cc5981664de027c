//! SPICE operating-point microbenchmark: DC solves across circuit sizes
//! on the AMD-pre-ordered sparse LU, plus the sparse symbolic cold-start
//! and refactor costs.
//!
//! ```sh
//! cargo run --release -p glova-bench --bin spice_op
//! cargo run --release -p glova-bench --bin spice_op -- \
//!     --sizes 4,24,64,128 --solves 500 --report
//! cargo run --release -p glova-bench --bin spice_op -- --engine threaded:4
//! cargo run --release -p glova-bench --bin spice_op -- --circuits inv,rc,ota,senseamp
//! ```
//!
//! Every row times one configuration: `solves` repeated operating-point
//! solves through a persistent unprimed [`OpSolver`], each running the
//! `gmin` ladder from zeros (template and symbolic factorization built
//! once). `--engine threaded:N` adds a batch of the same size through
//! an [`OpSolverPool`] — per-worker solvers cloned from one primed
//! prototype, the execution model of the pipeline's threaded
//! corner/mismatch sweeps — on the sequential and on the requested
//! engine, the threaded row carrying its speedup over the sequential
//! one. Each pooled solve retargets the solver at one of [`VARIANTS`]
//! value slices (every resistance and MOSFET width scaled), so it
//! starts from the pool's warm start away from its solution, as a sweep
//! point does. `--circuits inv,rc,ota,senseamp` picks the circuit set
//! (default `inv,rc`; `ota` adds the two-stage Miller OTA; `senseamp`
//! adds 2-D DRAM sense-amp arrays out to 508 and 1026 unknowns). The
//! symbolic section times the sparse factor (AMD pre-order, symbolic
//! analysis and first numeric elimination) and the numeric-only
//! refactor per pattern. Every timing is the median of [`RUNS`] runs;
//! `--report` writes `BENCH_spice_op.json`.

use glova::engine::EngineSpec;
use glova_bench::report::{BenchRecord, BenchReport};
use glova_bench::{report_requested, write_report};
use glova_linalg::sparse::SparseLu;
use glova_spice::dc::{OpSolver, OpSolverPool};
use glova_spice::device::DeviceValue;
use glova_spice::mna::{MnaTemplate, NewtonOptions, StampContext};
use glova_spice::netlist::{
    inverter_chain, ota_two_stage, rc_ladder, sense_amp_array, Netlist, OtaParams,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Timed runs per row; the row reports their median.
const RUNS: usize = 5;

/// Value slices the pooled rows cycle through.
const VARIANTS: usize = 16;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// The median wall time of [`RUNS`] runs of `run`, or `None` as soon as a
/// run fails.
fn median_of_runs(mut run: impl FnMut() -> Option<Duration>) -> Option<Duration> {
    let mut walls = (0..RUNS).map(|_| run()).collect::<Option<Vec<_>>>()?;
    walls.sort_unstable();
    Some(walls[RUNS / 2])
}

/// Median wall time for `solves` repeated operating-point solves through
/// one persistent unprimed [`OpSolver`] (template and symbolic
/// factorization built once, every solve the ladder from zeros). `None`
/// when the circuit does not converge.
fn solve_op(netlist: &Netlist, solves: usize) -> Option<Duration> {
    let mut solver = OpSolver::new(netlist.clone(), NewtonOptions::default());
    median_of_runs(|| {
        let start = Instant::now();
        for _ in 0..solves {
            solver.solve().ok()?;
        }
        Some(start.elapsed())
    })
}

/// `netlist`'s device values with every resistance and MOSFET width
/// scaled by `1 + 0.2·sin(k + i)` for device `i` — variant `k` of a
/// sweep over one topology.
fn variant(netlist: &Netlist, k: usize) -> Vec<DeviceValue> {
    let scale = |i: usize| 1.0 + 0.2 * ((k + i) as f64).sin();
    let scaled = |(i, value): (usize, &DeviceValue)| match *value {
        DeviceValue::Resistor { ohms } => DeviceValue::resistor(ohms * scale(i)),
        DeviceValue::Mosfet { model, w_um, l_um } => {
            DeviceValue::mosfet(model, w_um * scale(i), l_um)
        }
        other => other,
    };
    netlist.values().iter().enumerate().map(scaled).collect()
}

/// A batch of `solves` value-variant solves dispatched through an
/// [`EvalEngine`](glova::engine::EvalEngine): the solves fan out over the
/// engine's workers, each checking a per-worker solver out of one
/// [`OpSolverPool`] (symbolic analysis and warm start once, numeric
/// refactorizations per worker) and retargeting it at the solve's
/// variant.
fn solve_op_pooled(netlist: &Netlist, solves: usize, engine: EngineSpec) -> Option<Duration> {
    let pool = OpSolverPool::new(netlist.clone(), NewtonOptions::default()).ok()?;
    let variants: Vec<Vec<DeviceValue>> = (0..VARIANTS).map(|k| variant(netlist, k)).collect();
    let engine = engine.build();
    let failed = AtomicBool::new(false);
    median_of_runs(|| {
        let start = Instant::now();
        engine.run(solves, &|i| {
            let solved = pool.with_solver(|solver| {
                solver.retarget_values(&variants[i % VARIANTS]);
                solver.solve().is_ok()
            });
            if !solved {
                failed.store(true, Ordering::Relaxed);
            }
        });
        (!failed.load(Ordering::Relaxed)).then(|| start.elapsed())
    })
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
    let engine: EngineSpec = flag(&args, "--engine")
        .map(|s| {
            EngineSpec::parse(&s).unwrap_or_else(|err| {
                eprintln!("{err}");
                std::process::exit(2);
            })
        })
        .unwrap_or(EngineSpec::Sequential);

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
    let wants = |kind: &str| circuit_set.iter().any(|k| k == kind);

    println!("=== spice_op: DC operating-point solves ({solves} solves, median of {RUNS}) ===\n");
    let mut report = BenchReport::new("spice_op");

    // 2-D sense-amp arrays: unknowns = rows·cols + rows + 2·cols + 4, so
    // these shapes land the scaling curve at 92 / 508 / 1026 unknowns.
    let arrays = || {
        [(8usize, 8usize), (21, 21), (30, 31)]
            .map(|(r, c)| (format!("senseamp{r}x{c}"), sense_amp_array(r, c)))
    };
    let mut circuits: Vec<(String, Netlist)> = Vec::new();
    if wants("inv") {
        circuits.extend(sizes.iter().map(|&s| (format!("inv_chain{s}"), inverter_chain(s))));
    }
    if wants("rc") {
        circuits.push(("rc_ladder64".to_string(), rc_ladder(64, 1e3, 1e-12)));
    }
    if wants("ota") {
        circuits.push(("ota_two_stage".to_string(), ota_two_stage(&OtaParams::nominal())));
    }
    if wants("senseamp") {
        circuits.extend(arrays());
    }

    for (name, netlist) in &circuits {
        let n = netlist.unknown_count();
        // The large arrays trim the solve count (the per-op rates stay
        // comparable).
        let solves = if n > 400 { (solves / 10).max(10) } else { solves };
        let Some(wall) = solve_op(netlist, solves) else {
            println!("{name:<14} {n:>4} unknowns  does not converge");
            continue;
        };
        let record = BenchRecord::new("spice_op", name.clone(), "ladder", n, solves as u64, wall);
        println!("{name:<14} {n:>4} unknowns  ladder   {:>9.1} ops/s", record.sims_per_sec);
        report.push(record);

        // Engine-dispatched sweep over per-worker pool solvers, its
        // speedup taken against the same pooled batch run sequentially.
        if engine != EngineSpec::Sequential {
            let label = format!("pooled+{engine}");
            let walls = solve_op_pooled(netlist, solves, EngineSpec::Sequential)
                .zip(solve_op_pooled(netlist, solves, engine));
            // A convergence failure must be as loud as on the plain path
            // — a missing row reads as "not requested", hiding exactly
            // the regression the artifact exists to surface.
            let Some((seq_wall, thr_wall)) = walls else {
                println!("{name:<14} {n:>4} unknowns  {label} does not converge");
                continue;
            };
            let record = |engine: &str, wall| {
                BenchRecord::new("spice_op", name.clone(), engine, n, solves as u64, wall)
            };
            let speedup = seq_wall.as_secs_f64() / thr_wall.as_secs_f64().max(1e-12);
            for record in
                [record("pooled", seq_wall), record(&label, thr_wall).with_speedup(speedup)]
            {
                let vs_seq = record
                    .speedup_vs_sequential
                    .map_or_else(String::new, |s| format!("  vs seq {s:6.2}x"));
                println!(
                    "{name:<14} {n:>4} unknowns  {:<8} {:>9.1} ops/s{vs_seq}",
                    record.engine, record.sims_per_sec
                );
                report.push(record);
            }
        }
    }

    // ---- symbolic: sparse cold-start vs numeric refresh -----------------
    // factor = AMD pre-order, symbolic analysis and first numeric
    // elimination at the primed point (all-zeros estimate, gmin 1e-3);
    // refactor = numeric-only over the frozen pattern, the per-refresh
    // cost.
    println!("\n--- sparse symbolic / refactor costs ---");
    let mut symbolic_circuits: Vec<(String, Netlist)> = Vec::new();
    if wants("inv") {
        symbolic_circuits
            .extend(sizes.iter().map(|&s| (format!("inv_chain{s}"), inverter_chain(s))));
    }
    if wants("rc") {
        symbolic_circuits.push(("rc_ladder64".to_string(), rc_ladder(64, 1e3, 1e-12)));
    }
    if wants("senseamp") {
        symbolic_circuits.extend(arrays());
    }
    for (name, nl) in &symbolic_circuits {
        let ctx = StampContext { time: 0.0, step: None, gmin: 1e-3 };
        let template = MnaTemplate::new(nl, nl.values(), &ctx);
        let n = template.dim();
        let mut a = template.new_system();
        let mut rhs = vec![0.0; n];
        template.assemble_into(&mut a, &mut rhs, &vec![0.0; n], 1e-3);
        let reps: u64 = 200;
        let Ok(mut lu) = SparseLu::factor(&a) else {
            println!("{name:<14} singular at the primed point — skipped");
            continue;
        };
        let timed = |f: &mut dyn FnMut()| {
            median_of_runs(|| {
                let start = Instant::now();
                for _ in 0..reps {
                    f();
                }
                Some(start.elapsed())
            })
            .expect("timing runs never fail")
        };
        let factor = timed(&mut || drop(SparseLu::factor(&a)));
        let refactor = timed(&mut || lu.refactor(&a).expect("the primed point refactors"));
        let us = |d: Duration| d.as_secs_f64() * 1e6 / reps as f64;
        println!(
            "{name:<14} {n:>4} unknowns  factor {:8.1} us  refactor {:6.2} us  \
             symbolic ~{:.1} us  ({} pivot fallbacks)",
            us(factor),
            us(refactor),
            us(factor) - us(refactor),
            lu.preorder_fallbacks(),
        );
        for (engine, wall) in [("factor", factor), ("refactor", refactor)] {
            report.push(BenchRecord::new("spice_symbolic", name.clone(), engine, n, reps, wall));
        }
    }

    if report_requested(&args) {
        write_report(&report);
    }
}
