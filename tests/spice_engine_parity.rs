//! The SPICE × engine determinism battery.
//!
//! PR-level contract: routing SPICE-backed evaluation through the
//! [`EvalEngine`](glova::engine::EvalEngine) layer — with every worker
//! thread owning its own `OpSolver` cloned from one primed prototype —
//! must be a pure performance knob. Sequential and threaded sweeps, on
//! every solver backend (Dense / Sparse / Auto), every worker count
//! {1, 2, 4, 8} and every cache policy {On, Off}, must produce
//! **bitwise-identical** yield grids and verification outcomes, with
//! identical simulation accounting.
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
use glova_spice::mna::{NewtonOptions, SolverBackend};
use glova_spice::netlist::inverter_chain_with_load;
use glova_stats::rng::seeded;
use glova_variation::config::VerificationMethod;
use std::sync::Arc;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const CACHE_POLICIES: [Option<CachePolicy>; 2] = [Some(CachePolicy::On), Some(CachePolicy::Off)];

/// 18 stages → 22 unknowns: above the `Auto` sparse threshold, so the
/// three backend arms genuinely run dense, sparse and (auto-resolved)
/// sparse code paths on the same circuit.
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

/// One SPICE-backed yield grid (the engine-dispatched
/// `simulate_corner_grid_independent` fan-out) for a fixed seed.
fn yield_grid(
    circuit: &Arc<dyn Circuit>,
    engine: EngineSpec,
    cache: Option<CachePolicy>,
) -> (YieldEstimate, u64) {
    let p = problem(circuit, engine, cache);
    let x = vec![0.5; circuit.dim()];
    let mut rng = seeded(2025);
    let est = estimate_yield(&p, &x, 3, 0.95, &mut rng);
    (est, p.simulations())
}

fn yield_grid_battery(backend: SolverBackend) {
    let circuit: Arc<dyn Circuit> =
        Arc::new(SpiceInverterChain::with_backend(GRID_STAGES, backend));
    let (reference, ref_sims) = yield_grid(&circuit, EngineSpec::Sequential, None);
    assert_eq!(ref_sims, 30 * 3, "full corner × sample grid simulated");
    for workers in WORKER_COUNTS {
        for cache in CACHE_POLICIES {
            let (est, sims) = yield_grid(&circuit, EngineSpec::Threaded(workers), cache);
            let what = format!("{backend} workers={workers} cache={cache:?}");
            assert_estimates_bitwise_equal(&reference, &est, &what);
            assert_eq!(sims, ref_sims, "{what}: simulation accounting");
        }
    }
}

#[test]
fn yield_grid_bitwise_parity_dense() {
    yield_grid_battery(SolverBackend::Dense);
}

#[test]
fn yield_grid_bitwise_parity_sparse() {
    yield_grid_battery(SolverBackend::Sparse);
}

#[test]
fn yield_grid_bitwise_parity_auto() {
    yield_grid_battery(SolverBackend::Auto);
}

/// The verifier's phase-2 re-sweep: two identically seeded Algorithm-2
/// runs per configuration (the second replays the first's points — the
/// cache-hit pattern), across engines and cache policies. Outcomes,
/// per-corner worst rewards and simulation spend must match the
/// sequential cache-off reference bitwise, on both verification passes.
#[test]
fn verifier_resweep_bitwise_parity() {
    // 6 stages → 10 unknowns (Auto resolves dense): keeps the full
    // 3 000-simulation pass affordable in debug builds.
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
/// same pool and per-point fresh `OpSolver`s, bitwise, on every backend.
#[test]
fn solver_pool_sweep_matches_fresh_solvers_bitwise() {
    let points = 48;
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let options = NewtonOptions::default().with_backend(backend);
        // Same topology, different values per point — the sweep shape a
        // corner/mismatch campaign presents to the pool.
        let netlist_at = |i: usize| inverter_chain_with_load(12, Some(8e3 + 200.0 * i as f64));
        let fresh: Vec<Vec<f64>> = (0..points)
            .map(|i| {
                OpSolver::new(netlist_at(i), options).solve().expect("converges").raw().to_vec()
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
                assert_eq!(
                    s.to_bits(),
                    t.to_bits(),
                    "{backend} point {i}: sequential vs threaded pool"
                );
                assert_eq!(s.to_bits(), f.to_bits(), "{backend} point {i}: pool vs fresh solver");
            }
        }
        assert!(
            (1..=5).contains(&pool.solvers_spawned()),
            "{backend}: pool must materialize between 1 and workers+1 solvers, got {}",
            pool.solvers_spawned()
        );
    }
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

/// Dense-robustness regression (ROADMAP "Dense robustness" item): the
/// previously-failing 80-stage *unloaded* mid-rail chain — cutoff
/// devices leave node rows at `gmin` scale and border-block cancellation
/// used to read as a singular matrix — must now solve on the dense
/// backend and agree with the sparse backend, keeping the dense path a
/// parity oracle over the sparse backend's whole range.
#[test]
fn dense_oracle_covers_80_stage_unloaded_chain() {
    let nl = inverter_chain_with_load(80, None);
    let x0 = vec![0.0; nl.unknown_count()];
    let solve = |backend| {
        let options = NewtonOptions::default().with_backend(backend);
        glova_spice::dc::operating_point_with_options(&nl, &x0, &options)
            .unwrap_or_else(|e| panic!("80-stage unloaded chain must solve on {backend}: {e}"))
    };
    let dense = solve(SolverBackend::Dense);
    let sparse = solve(SolverBackend::Sparse);
    let gap =
        dense.raw().iter().zip(sparse.raw()).map(|(d, s)| (d - s).abs()).fold(0.0f64, f64::max);
    assert!(gap < 1e-9, "dense vs sparse diverge by {gap:.3e} on the unloaded chain");
    // Mid-rail chain with no loads: node voltages must stay inside the
    // supply (sanity that the recovered solve is physical, not garbage).
    for v in &dense.raw()[..nl.node_count() - 1] {
        assert!((-1e-6..=0.9 + 1e-6).contains(v), "node voltage {v} outside the supply");
    }
}
