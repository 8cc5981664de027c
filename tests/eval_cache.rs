//! Correctness contract of the speed layers added for the perf
//! subsystem: the evaluation cache must never change results (only wall
//! time), and the chord-Newton LU reuse must land on the same operating
//! points as full Newton.

use glova::cache::{CachePolicy, EvalCacheConfig};
use glova::engine::EngineSpec;
use glova::optimizer::{GlovaConfig, GlovaOptimizer};
use glova::problem::SizingProblem;
use glova::report::RunResult;
use glova::verification::Verifier;
use glova_circuits::{Circuit, ToyQuadratic};
use glova_spice::dc::operating_point_with_options;
use glova_spice::mna::NewtonOptions;
use glova_spice::model::MosModel;
use glova_spice::netlist::{Netlist, GROUND};
use glova_stats::rng::seeded;
use glova_variation::config::VerificationMethod;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Cache accounting through the problem layer
// ---------------------------------------------------------------------

#[test]
fn repeated_sweeps_hit_the_cache_and_counters_stay_request_based() {
    let toy: Arc<dyn Circuit> = Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05));
    // `CachePolicy::On` pins memoization for the counter assertions
    // below.
    let problem = SizingProblem::new(toy, VerificationMethod::CornerLocalMc)
        .with_cache(EvalCacheConfig::with_policy(CachePolicy::On));
    let x = vec![0.5; 4];
    let corner = problem.config().corners.corner(0);
    let mut rng = seeded(3);
    let conditions = problem.sample_conditions(&x, 20, &mut rng);

    let (first, worst_first) = problem.simulate_conditions(&x, &corner, &conditions);
    let stats = problem.cache_stats().unwrap();
    assert_eq!(stats.hits, 0, "cold cache has no hits");
    assert_eq!(stats.misses, 20);

    let (second, worst_second) = problem.simulate_conditions(&x, &corner, &conditions);
    let stats = problem.cache_stats().unwrap();
    assert_eq!(stats.hits, 20, "identical sweep must be fully cached");
    assert_eq!(stats.misses, 20);
    assert!(stats.hit_rate() > 0.0);

    // Outcomes are bitwise-identical and the counter counts *requests*
    // (cache-independent accounting).
    assert_eq!(first, second);
    assert_eq!(worst_first.to_bits(), worst_second.to_bits());
    assert_eq!(problem.simulations(), 40);
}

#[test]
fn lru_bound_caps_residency_and_counts_evictions() {
    let toy: Arc<dyn Circuit> = Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05));
    let problem = SizingProblem::new(toy, VerificationMethod::CornerLocalMc)
        .with_cache(EvalCacheConfig { capacity: 8, policy: CachePolicy::On, shards: 1 });
    let x = vec![0.5; 4];
    let corner = problem.config().corners.corner(0);
    let mut rng = seeded(4);
    let conditions = problem.sample_conditions(&x, 30, &mut rng);
    let _ = problem.simulate_conditions(&x, &corner, &conditions);

    let cache = problem.cache().unwrap();
    assert_eq!(cache.len(), 8, "residency must respect the LRU bound");
    let stats = cache.stats();
    assert_eq!(stats.evictions, 30 - 8);
    assert_eq!(stats.misses, 30);
}

// ---------------------------------------------------------------------
// End-to-end identity: cache on/off × both engines
// ---------------------------------------------------------------------

/// Strips the only legitimately nondeterministic field.
fn normalized(mut result: RunResult) -> RunResult {
    result.wall_time = Duration::ZERO;
    result
}

#[test]
fn run_results_identical_with_cache_on_and_off_across_engines() {
    let reference: Option<RunResult> = None;
    let mut reference = reference;
    for engine in [EngineSpec::Sequential, EngineSpec::Threaded(4)] {
        for cached in [false, true] {
            let mut config =
                GlovaConfig::quick(VerificationMethod::CornerLocalMc).with_engine(engine);
            if cached {
                config = config.with_cache(EvalCacheConfig::default());
            }
            let circuit = Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05));
            let result = normalized(GlovaOptimizer::new(circuit, config).run(42));
            match &reference {
                None => reference = Some(result),
                Some(expect) => assert_eq!(
                    expect, &result,
                    "engine {engine} cached={cached} diverged from reference"
                ),
            }
        }
    }
    assert!(reference.expect("ran").success, "quick run on the toy should succeed");
}

#[test]
fn verification_outcome_identical_with_cache_under_both_engines() {
    let x = ToyQuadratic::standard().optimum().to_vec();
    let mut outcomes = Vec::new();
    for engine in [EngineSpec::Sequential, EngineSpec::Threaded(3)] {
        for cached in [false, true] {
            let toy: Arc<dyn Circuit> =
                Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05));
            let mut problem =
                SizingProblem::with_engine(toy, VerificationMethod::CornerLocalMc, engine.build());
            if cached {
                problem = problem.with_cache(EvalCacheConfig::default());
            }
            let order: Vec<usize> = (0..problem.config().corners.len()).collect();
            let mut rng = seeded(11);
            let outcome = Verifier::new(&problem, 4.0).verify(&x, &order, None, &mut rng);
            assert!(outcome.passed);
            outcomes.push(outcome);
        }
    }
    for other in &outcomes[1..] {
        assert_eq!(&outcomes[0], other);
    }
}

// ---------------------------------------------------------------------
// Chord-Newton vs full Newton on testcase-shaped operating points
// ---------------------------------------------------------------------

/// The ToyQuadratic analogue in SPICE terms: a square-law (quadratic)
/// diode-connected device against a current source — the simplest
/// nonlinear operating point.
fn toy_quadratic_netlist() -> Netlist {
    let mut nl = Netlist::new();
    let d = nl.node("d");
    nl.isource("I1", GROUND, d, 100e-6);
    nl.mosfet("M1", d, d, GROUND, MosModel::nmos_28nm(), 10.0, 0.1);
    nl
}

/// The StrongArm latch core: cross-coupled NMOS pair with resistive
/// loads and an input-imbalance current — the regenerative
/// (positive-feedback) operating point the SAL testcase is built
/// around, and the hardest DC topology in the suite.
fn strongarm_latch_netlist() -> Netlist {
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");
    let a = nl.node("outp");
    let b = nl.node("outn");
    nl.vsource("VDD", vdd, GROUND, 0.9);
    nl.resistor("RA", vdd, a, 20e3);
    nl.resistor("RB", vdd, b, 20e3);
    nl.mosfet("MA", a, b, GROUND, MosModel::nmos_28nm(), 2.0, 0.05);
    nl.mosfet("MB", b, a, GROUND, MosModel::nmos_28nm(), 2.0, 0.05);
    nl.isource("IIN", GROUND, a, 1e-6);
    nl
}

#[test]
fn chord_newton_matches_full_newton_on_testcase_operating_points() {
    for (name, netlist) in
        [("ToyQuadratic", toy_quadratic_netlist()), ("StrongArmLatch", strongarm_latch_netlist())]
    {
        let zeros = vec![0.0; netlist.unknown_count()];
        let full = operating_point_with_options(&netlist, &zeros, &NewtonOptions::full_newton())
            .unwrap_or_else(|e| panic!("{name}: full Newton failed: {e}"));
        let chord = operating_point_with_options(&netlist, &zeros, &NewtonOptions::default())
            .unwrap_or_else(|e| panic!("{name}: chord Newton failed: {e}"));
        assert_eq!(full.raw().len(), chord.raw().len());
        for (i, (f, c)) in full.raw().iter().zip(chord.raw()).enumerate() {
            assert!(
                (f - c).abs() < 1e-9,
                "{name} unknown {i}: chord {c} vs full {f} (|Δ| = {:.3e})",
                (f - c).abs()
            );
        }
    }
}
