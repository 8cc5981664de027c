//! The SPICE × engine determinism battery.
//!
//! PR-level contract: routing SPICE-backed evaluation through the
//! [`EvalEngine`](glova::engine::EvalEngine) layer — with every worker
//! thread owning its own `OpSolver` cloned from one primed prototype,
//! warm start included — must be a pure performance knob. Sequential
//! and threaded sweeps, on every worker count {1, 2, 4, 8} and every
//! cache policy {On, Off}, must produce **bitwise-identical** yield grids
//! and verification outcomes, with identical simulation accounting.
//!
//! Threading a Newton/LU pipeline is exactly where silent nondeterminism
//! creeps in (shared factorization state, stale numeric storage,
//! worker-order-dependent symbolic analyses), so this suite is the
//! foregrounded deliverable riding along the threaded-sweep work.

use glova::cache::{CachePolicy, EvalCacheConfig};
use glova::engine::{map_indexed, EngineSpec};
use glova::problem::SizingProblem;
use glova::verification::Verifier;
use glova::yield_est::{estimate_yield, YieldEstimate};
use glova_circuits::{Circuit, SpiceInverterChain};
use glova_spice::dc::{OpSolver, OpSolverPool};
use glova_spice::device::DeviceValue;
use glova_spice::mna::{MnaTemplate, NewtonOptions, StampContext};
use glova_spice::model::MosModel;
use glova_spice::netlist::{inverter_chain, inverter_chain_with_load, Netlist};
use glova_spice::registry::SolverRegistry;
use glova_stats::rng::seeded;
use glova_variation::config::VerificationMethod;
use glova_variation::corner::PvtCorner;
use glova_variation::sampler::MismatchVector;
use std::sync::Arc;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const CACHE_POLICIES: [Option<CachePolicy>; 2] = [Some(CachePolicy::On), Some(CachePolicy::Off)];

/// 18 stages → 22 unknowns.
const GRID_STAGES: usize = 18;

fn problem(
    circuit: &Arc<dyn Circuit>,
    engine: EngineSpec,
    cache: Option<CachePolicy>,
) -> SizingProblem {
    let p = SizingProblem::with_engine(
        circuit.clone(),
        VerificationMethod::CornerLocalMc,
        engine.build(),
    );
    match cache {
        Some(policy) => p.with_cache(EvalCacheConfig::with_policy(policy)),
        None => p,
    }
}

fn assert_estimates_bitwise_equal(a: &YieldEstimate, b: &YieldEstimate, what: &str) {
    assert_eq!(a, b, "{what}");
    assert_eq!(a.yield_point.to_bits(), b.yield_point.to_bits(), "{what}: yield bits");
    assert_eq!(
        a.confidence_interval.0.to_bits(),
        b.confidence_interval.0.to_bits(),
        "{what}: CI lower bits"
    );
    assert_eq!(
        a.confidence_interval.1.to_bits(),
        b.confidence_interval.1.to_bits(),
        "{what}: CI upper bits"
    );
}

/// Seed and mismatch samples per corner of every yield grid below.
const GRID_SEED: u64 = 2025;
const GRID_SAMPLES: usize = 3;

/// One SPICE-backed yield grid (the engine-dispatched
/// `simulate_corner_grid_independent` fan-out) for a fixed seed.
fn yield_grid(
    circuit: &Arc<dyn Circuit>,
    engine: EngineSpec,
    cache: Option<CachePolicy>,
) -> (YieldEstimate, u64) {
    let p = problem(circuit, engine, cache);
    let x = vec![0.5; circuit.dim()];
    let mut rng = seeded(GRID_SEED);
    let est = estimate_yield(&p, &x, GRID_SAMPLES, 0.95, &mut rng);
    (est, p.simulations())
}

/// Checks that `x` — a DC operating point the sparse solver returned —
/// is a fixed point of full Newton on the same final-rung system solved
/// by the dense `Lu` oracle: the step the oracle asks for moves no node
/// by `1e-9` V or more.
fn assert_dense_fixed_point(netlist: &Netlist, x: &[f64], what: &str) {
    let ctx = StampContext { time: 0.0, step: None, gmin: 1e-12 };
    let template = MnaTemplate::new(netlist, netlist.values(), &ctx);
    let mut a = template.new_system();
    let mut rhs = vec![0.0; template.dim()];
    template.assemble_into(&mut a, &mut rhs, x, ctx.gmin);
    let a = a.to_dense();
    let residual: Vec<f64> = rhs.iter().zip(a.mat_vec(x)).map(|(b, v)| b - v).collect();
    let step = a.lu().expect("the dense oracle factors").solve(&residual);
    let n_nodes = netlist.node_count() - 1;
    let moved = step[..n_nodes].iter().fold(0.0f64, |m, d| m.max(d.abs()));
    assert!(moved < 1e-9, "{what}: the dense oracle moves the operating point by {moved:.3e} V");
}

/// The chain testcase's device values at one point, rebuilt from the
/// public device-model API in [`inverter_chain`]'s device order: the VDD
/// and VIN sources, then per stage its PMOS, NMOS and load, each
/// transistor carrying its four mismatch components (`ΔV_th`/`Δβ` for
/// the PMOS, then the NMOS).
fn chain_values(x_phys: &[f64], corner: &PvtCorner, h: &MismatchVector) -> Vec<DeviceValue> {
    let (wn, wp, l, rl) = (x_phys[0], x_phys[1], x_phys[2], x_phys[3]);
    let pmos = MosModel::pmos_28nm().at_corner(corner);
    let nmos = MosModel::nmos_28nm().at_corner(corner);
    let mut values =
        vec![DeviceValue::vsource(corner.vdd), DeviceValue::vsource(corner.vdd * (0.42 / 0.9))];
    for hs in h.values().chunks_exact(4) {
        values.push(DeviceValue::mosfet(pmos.with_mismatch(hs[0], hs[1]), wp, l));
        values.push(DeviceValue::mosfet(nmos.with_mismatch(hs[2], hs[3]), wn, l));
        values.push(DeviceValue::resistor(rl));
    }
    values
}

/// Every system factors on the AMD-pre-ordered sparse LU, the one solver
/// configuration.
#[test]
fn yield_grid_bitwise_parity_sparse() {
    let circuit: Arc<dyn Circuit> = Arc::new(SpiceInverterChain::new(GRID_STAGES));
    let (reference, ref_sims) = yield_grid(&circuit, EngineSpec::Sequential, None);
    assert_eq!(ref_sims, 30 * GRID_SAMPLES as u64, "full corner × sample grid simulated");
    for workers in WORKER_COUNTS {
        for cache in CACHE_POLICIES {
            let (est, sims) = yield_grid(&circuit, EngineSpec::Threaded(workers), cache);
            let what = format!("workers={workers} cache={cache:?}");
            assert_estimates_bitwise_equal(&reference, &est, &what);
            assert_eq!(sims, ref_sims, "{what}: simulation accounting");
        }
    }
}

/// The dense `Lu` oracle over the yield grid: every system the grid
/// solves — the chain at each corner × mismatch point, replayed from the
/// grid's own seed — solved again on the testcase's pool reproduces the
/// grid's metrics bitwise, and each operating point is a fixed point of
/// full Newton on the same assembled system solved densely.
#[test]
fn yield_grid_bitwise_parity_dense() {
    let chain = Arc::new(SpiceInverterChain::new(GRID_STAGES));
    let circuit: Arc<dyn Circuit> = chain.clone();
    let p = problem(&circuit, EngineSpec::Sequential, None);
    let x = vec![0.5; circuit.dim()];
    let grid = p.simulate_corner_grid_independent(&x, GRID_SAMPLES, &mut seeded(GRID_SEED));
    // The grid draws every corner's conditions up front, in corner order.
    let mut rng = seeded(GRID_SEED);
    let conditions: Vec<Vec<MismatchVector>> =
        grid.iter().map(|_| p.sample_conditions_independent(&x, GRID_SAMPLES, &mut rng)).collect();

    let x_phys = circuit.denormalize(&x);
    let mut netlist = inverter_chain(GRID_STAGES);
    let vdd = netlist.vsource_branch("VDD").expect("VDD source present");
    let output = |s: usize| netlist.find_node(&format!("n{s}")).expect("stage output");
    let outputs = [output(GRID_STAGES - 1), output(GRID_STAGES - 2)];
    for (ci, (outcomes, hs)) in grid.iter().zip(&conditions).enumerate() {
        let corner = p.config().corners.corner(ci);
        for (si, (outcome, h)) in outcomes.iter().zip(hs).enumerate() {
            let what = format!("corner {ci} sample {si}");
            netlist.set_values(&chain_values(&x_phys, &corner, h));
            let op = chain
                .solver_pool()
                .with_solver(|solver| {
                    solver.retarget_values(netlist.values());
                    solver.solve()
                })
                .unwrap_or_else(|e| panic!("{what}: the pooled solve must converge: {e}"));
            let (va, vb) = (op.voltage(outputs[0]), op.voltage(outputs[1]));
            let metrics = [op.branch_current(vdd).abs() * 1e6, va.max(vb), va.min(vb)];
            assert_eq!(metrics.len(), outcome.metrics.len(), "{what}: metric count");
            for (m, g) in metrics.iter().zip(&outcome.metrics) {
                assert_eq!(m.to_bits(), g.to_bits(), "{what}: replayed vs grid metric bits");
            }
            assert_dense_fixed_point(&netlist, op.raw(), &what);
        }
    }
    assert_eq!(chain.failure_stats().nonconvergent, 0, "every grid point converges on the pool");
}

/// The auto-sized engine (`Threaded(0)`, what `--engine threaded` runs)
/// over chains whose pool a [`SolverRegistry`] shares with an earlier
/// campaign: the registry hands back the first testcase's pool — its
/// warm start, and worker solvers a full grid has already used — and
/// the grid must still match the private-pool sequential reference
/// bitwise, on every cache policy.
#[test]
fn yield_grid_bitwise_parity_auto() {
    let private: Arc<dyn Circuit> = Arc::new(SpiceInverterChain::new(GRID_STAGES));
    let (reference, ref_sims) = yield_grid(&private, EngineSpec::Sequential, None);
    let registry = SolverRegistry::new();
    let first = Arc::new(SpiceInverterChain::from_registry(GRID_STAGES, &registry));
    let first_circuit: Arc<dyn Circuit> = first.clone();
    let (first_est, _) = yield_grid(&first_circuit, EngineSpec::Threaded(2), None);
    assert_estimates_bitwise_equal(&reference, &first_est, "first registry campaign");
    for cache in CACHE_POLICIES {
        let chain = Arc::new(SpiceInverterChain::from_registry(GRID_STAGES, &registry));
        assert!(
            std::ptr::eq(chain.solver_pool(), first.solver_pool()),
            "one shared pool per topology"
        );
        let circuit: Arc<dyn Circuit> = chain;
        let (est, sims) = yield_grid(&circuit, EngineSpec::Threaded(0), cache);
        let what = format!("auto-sized engine, shared pool, cache={cache:?}");
        assert_estimates_bitwise_equal(&reference, &est, &what);
        assert_eq!(sims, ref_sims, "{what}: simulation accounting");
    }
    assert_eq!(registry.creations(), 1, "the topology is primed once");
}

/// The verifier's phase-2 re-sweep: two identically seeded Algorithm-2
/// runs per configuration (the second replays the first's points — the
/// cache-hit pattern), across engines and cache policies. Outcomes,
/// per-corner worst rewards and simulation spend must match the
/// sequential cache-off reference bitwise, on both verification passes.
#[test]
fn verifier_resweep_bitwise_parity() {
    // 6 stages → 10 unknowns: keeps the full 3 000-simulation pass
    // affordable in debug builds.
    let circuit: Arc<dyn Circuit> = Arc::new(SpiceInverterChain::new(6));
    // One design that verifies clean and one far corner of the design
    // space that fails (wide, short-channel devices blow the power
    // budget) — the failing arm exercises the deterministic early-abort
    // block boundaries under threading.
    let designs = [vec![0.5; 4], vec![1.0, 1.0, 0.0, 0.0]];
    for (di, x) in designs.iter().enumerate() {
        let verify_twice = |engine: EngineSpec, cache: Option<CachePolicy>| {
            let p = problem(&circuit, engine, cache);
            let hint: Vec<usize> = (0..p.config().corners.len()).collect();
            let verifier = Verifier::new(&p, 4.0);
            let outcomes: Vec<_> = (0..2)
                .map(|_| {
                    let mut rng = seeded(900 + di as u64);
                    verifier.verify(x, &hint, None, &mut rng)
                })
                .collect();
            (outcomes, p.simulations())
        };
        let (ref_outcomes, ref_sims) = verify_twice(EngineSpec::Sequential, Some(CachePolicy::Off));
        assert_eq!(
            ref_outcomes[0], ref_outcomes[1],
            "design {di}: identically seeded re-sweep must reproduce"
        );
        for (engine, cache) in [
            (EngineSpec::Sequential, Some(CachePolicy::On)),
            (EngineSpec::Threaded(4), Some(CachePolicy::Off)),
            (EngineSpec::Threaded(4), Some(CachePolicy::On)),
            (EngineSpec::Threaded(8), Some(CachePolicy::On)),
        ] {
            let (outcomes, sims) = verify_twice(engine, cache);
            assert_eq!(
                outcomes, ref_outcomes,
                "design {di} {engine} cache={cache:?}: verification outcomes"
            );
            assert_eq!(sims, ref_sims, "design {di} {engine} cache={cache:?}: simulation spend");
            for (o, r) in outcomes.iter().zip(&ref_outcomes) {
                for ((ci, w), (rci, rw)) in o.per_corner_worst.iter().zip(&r.per_corner_worst) {
                    assert_eq!(ci, rci);
                    assert_eq!(w.to_bits(), rw.to_bits(), "per-corner worst bits");
                }
            }
        }
    }
}

/// The pool primitive itself: a threaded retarget/solve sweep through
/// one `OpSolverPool` must match both a sequential sweep through the
/// same pool and per-point fresh `OpSolver`s carrying the same warm
/// start (primed on the pool's prototype, then retargeted), bitwise.
#[test]
fn solver_pool_sweep_matches_fresh_solvers_bitwise() {
    let points = 48;
    let options = NewtonOptions::default();
    // Same topology, different values per point — the sweep shape a
    // corner/mismatch campaign presents to the pool.
    let netlist_at = |i: usize| inverter_chain_with_load(12, Some(8e3 + 200.0 * i as f64));
    let fresh: Vec<Vec<f64>> = (0..points)
        .map(|i| {
            let mut solver = OpSolver::primed(netlist_at(0), options).expect("primes");
            solver.retarget_values(netlist_at(i).values());
            solver.solve().expect("converges").raw().to_vec()
        })
        .collect();

    let pool = OpSolverPool::new(netlist_at(0), options).expect("primes");
    let sweep = |engine: EngineSpec| -> Vec<Vec<f64>> {
        map_indexed(engine.build().as_ref(), points, |i| {
            pool.with_solver(|solver| {
                solver.retarget_values(netlist_at(i).values());
                solver.solve().expect("converges").raw().to_vec()
            })
        })
    };
    let sequential = sweep(EngineSpec::Sequential);
    let threaded = sweep(EngineSpec::Threaded(4));
    for i in 0..points {
        for ((s, t), f) in sequential[i].iter().zip(&threaded[i]).zip(&fresh[i]) {
            assert_eq!(s.to_bits(), t.to_bits(), "point {i}: sequential vs threaded pool");
            assert_eq!(s.to_bits(), f.to_bits(), "point {i}: pool vs fresh solver");
        }
    }
    assert!(
        (1..=5).contains(&pool.solvers_spawned()),
        "pool must materialize between 1 and workers+1 solvers, got {}",
        pool.solvers_spawned()
    );
}

/// Pool solvers spawned under an engine-dispatched circuit evaluation
/// stay bounded by the worker count — per-worker ownership, not
/// per-point allocation.
#[test]
fn per_worker_solver_ownership_is_bounded() {
    let chain = Arc::new(SpiceInverterChain::new(8));
    let circuit: Arc<dyn Circuit> = chain.clone();
    let p = SizingProblem::with_engine(
        circuit.clone(),
        VerificationMethod::CornerLocalMc,
        EngineSpec::Threaded(4).build(),
    );
    let x = vec![0.5; circuit.dim()];
    let mut rng = seeded(11);
    let _ = estimate_yield(&p, &x, 4, 0.95, &mut rng);
    let spawned = chain.solver_pool().solvers_spawned();
    assert!(
        (1..=4).contains(&spawned),
        "4-worker sweep must materialize at most 4 solvers, got {spawned}"
    );
}

/// Robustness regression (ROADMAP "Dense robustness" item): the
/// 80-stage *unloaded* mid-rail chain — cutoff devices leave node rows
/// at `gmin` scale and border-block cancellation once read as a singular
/// matrix — must solve, and its operating point must be a fixed point of
/// full Newton on the same assembled system solved by the dense `Lu`
/// oracle.
#[test]
fn dense_oracle_covers_80_stage_unloaded_chain() {
    let nl = inverter_chain_with_load(80, None);
    let x0 = vec![0.0; nl.unknown_count()];
    let op = glova_spice::dc::operating_point_with_options(&nl, &x0, &NewtonOptions::default())
        .unwrap_or_else(|e| panic!("80-stage unloaded chain must solve: {e}"));
    assert_dense_fixed_point(&nl, op.raw(), "80-stage unloaded chain");
    // Mid-rail chain with no loads: node voltages must stay inside the
    // supply (sanity that the recovered solve is physical, not garbage).
    for v in &op.raw()[..nl.node_count() - 1] {
        assert!((-1e-6..=0.9 + 1e-6).contains(v), "node voltage {v} outside the supply");
    }
}
