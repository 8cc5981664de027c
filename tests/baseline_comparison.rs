//! Framework-versus-framework behaviour — the algorithmic contrasts that
//! Table II quantifies, checked on the fast toy circuit — plus exact
//! simulation identities per corner policy and golden trajectory digests
//! for every [`Framework`].

use glova::optimizer::{Framework, GlovaConfig, GlovaOptimizer};
use glova::report::RunResult;
use glova_circuits::{Circuit, StrongArmLatch, ToyQuadratic};
use glova_stats::hash::Fnv1a;
use glova_variation::config::VerificationMethod;
use glova_variation::corner::PvtCorner;
use glova_variation::sampler::MismatchVector;
use std::sync::Arc;

/// GLOVA with every Table III switch off.
const GLOVA_OFF: Framework =
    Framework::Glova { ensemble_critic: false, mu_sigma: false, reordering: false };

fn toy() -> Arc<dyn Circuit> {
    Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05))
}

/// An optimum outside the unit cube and a tiny limit: no design is ever
/// feasible, so seeding spends its whole budget and no verification fires.
fn infeasible_toy() -> Arc<dyn Circuit> {
    Arc::new(ToyQuadratic::new(vec![2.0, 2.0], 1e-6))
}

/// A limit far above every metric value in the unit cube: every design
/// is feasible.
fn generous_toy() -> ToyQuadratic {
    ToyQuadratic::new(vec![0.7, 0.3, 0.5, 0.6], 10.0).with_mismatch_sensitivity(0.05)
}

/// A small configuration that keeps debug-build runs fast.
fn small(
    framework: Framework,
    method: VerificationMethod,
    max_iterations: usize,
    turbo_budget: usize,
) -> GlovaConfig {
    GlovaConfig {
        framework,
        hidden: vec![16, 16],
        updates_per_step: 2,
        turbo_budget,
        max_iterations,
        trace: matches!(framework, Framework::Glova { .. }),
        ..GlovaConfig::quick(method)
    }
}

#[test]
fn glova_uses_fewer_simulations_than_pvtsizing_on_average() {
    // GLOVA simulates only the worst corner per iteration; PVTSizing all 30.
    let seeds = [1u64, 2, 3];
    let mut glova_sims = 0.0;
    let mut pvt_sims = 0.0;
    let mut glova_ok = 0;
    let mut pvt_ok = 0;
    for &seed in &seeds {
        let mut g = GlovaOptimizer::new(toy(), GlovaConfig::paper(VerificationMethod::Corner));
        let rg = g.run(seed);
        if rg.success {
            glova_sims += rg.simulations as f64;
            glova_ok += 1;
        }
        let config = GlovaConfig {
            framework: Framework::PvtSizing,
            ..GlovaConfig::paper(VerificationMethod::Corner)
        };
        let rp = GlovaOptimizer::new(toy(), config).run(seed);
        if rp.success {
            pvt_sims += rp.simulations as f64;
            pvt_ok += 1;
        }
    }
    assert!(glova_ok >= 2, "GLOVA should succeed on most seeds");
    assert!(pvt_ok >= 1, "PVTSizing should succeed on some seeds");
    let glova_mean = glova_sims / glova_ok as f64;
    let pvt_mean = pvt_sims / pvt_ok as f64;
    assert!(
        glova_mean < pvt_mean,
        "GLOVA should be more sample-efficient: {glova_mean} vs {pvt_mean}"
    );
}

#[test]
fn robustanalog_runs_and_can_succeed_on_easy_problem() {
    let config = GlovaConfig {
        framework: Framework::RobustAnalog,
        max_iterations: 400,
        ..GlovaConfig::paper(VerificationMethod::Corner)
    };
    let mut opt = GlovaOptimizer::new(toy(), config);
    let mut successes = 0;
    for seed in [1u64, 2, 3] {
        if opt.run(seed).success {
            successes += 1;
        }
    }
    assert!(successes >= 1, "RobustAnalog should solve the toy at least once");
}

/// Simulations a run on the infeasible toy spent past seeding and the
/// initial grid, in units of `N'` — the corners its iterations simulated.
fn corner_slots(framework: Framework, method: VerificationMethod) -> (RunResult, u64) {
    let config = small(framework, method, 30, 10);
    let n_prime = method.operating_config().optim_samples as u64;
    let result = GlovaOptimizer::new(infeasible_toy(), config.clone()).run(7);
    assert!(!result.success);
    assert_eq!(result.rl_iterations, 30);
    assert_eq!(result.verification_attempts, 0, "no design is feasible, so none is verified");
    // Seeding spends its whole budget; the initial grid is every corner
    // for every initial design.
    let before_loop = config.turbo_budget as u64 + config.n_initial_designs as u64 * 30 * n_prime;
    let in_loop = result.simulations - before_loop;
    assert_eq!(in_loop % n_prime, 0, "{framework:?}: a partial corner was simulated");
    (result, in_loop / n_prime)
}

#[test]
fn every_iteration_simulates_exactly_its_corner_policy() {
    // sims = seeding + n_init·30·N' + Σ|corners|·N', with |corners| = 1
    // for GLOVA, 30 for PVTSizing and at most 4 (the clusters) for
    // RobustAnalog. 30 iterations span RobustAnalog's re-cluster at 26.
    for method in [VerificationMethod::Corner, VerificationMethod::CornerLocalMc] {
        for framework in [Framework::GLOVA, GLOVA_OFF] {
            assert_eq!(corner_slots(framework, method).1, 30, "{framework:?} under {method}");
        }
        assert_eq!(corner_slots(Framework::PvtSizing, method).1, 30 * 30, "{method}");
        let slots = corner_slots(Framework::RobustAnalog, method).1;
        assert!((30..=4 * 30).contains(&slots), "RobustAnalog under {method}: {slots}");
    }
}

#[test]
fn robustanalog_spends_fewer_sims_per_iteration_than_pvtsizing() {
    // Corner clustering means RobustAnalog simulates at most its 4
    // cluster leaders per iteration vs PVTSizing's full 30.
    for method in [VerificationMethod::Corner, VerificationMethod::CornerLocalMc] {
        let (pvt, pvt_slots) = corner_slots(Framework::PvtSizing, method);
        let (ra, ra_slots) = corner_slots(Framework::RobustAnalog, method);
        assert!(ra_slots * 7 < pvt_slots, "{ra_slots} vs {pvt_slots} corner slots");
        assert!(ra.simulations < pvt.simulations);
    }
}

#[test]
fn all_frameworks_count_simulations_consistently() {
    // The counter resets between runs: a second run on the same optimizer
    // counts exactly what a fresh optimizer counts for that seed.
    for framework in Framework::ALL {
        let config = small(framework, VerificationMethod::Corner, 20, 20);
        let mut reused = GlovaOptimizer::new(toy(), config.clone());
        let r1 = reused.run(1);
        assert!(r1.simulations > 0);
        let r2 = reused.run(2);
        let fresh = GlovaOptimizer::new(toy(), config).run(2);
        assert_eq!(r2.simulations, fresh.simulations, "{framework:?}");
        assert_eq!(reused.problem().simulations(), r2.simulations, "{framework:?}");
    }
}

#[test]
fn generous_limit_stops_pvtsizing_inside_the_turbo_prefix() {
    let toy = generous_toy();
    // The metric is convex in the design, so its maximum over the cube
    // sits at the vertex farthest from the optimum — and even there the
    // typical condition is feasible: every seed design is.
    let far: Vec<f64> = toy.optimum().iter().map(|&o| if o < 0.5 { 1.0 } else { 0.0 }).collect();
    let nominal = MismatchVector::nominal(toy.mismatch_domain(&far).dim());
    assert!(toy.spec().satisfied(&toy.evaluate(&far, &PvtCorner::typical(), &nominal)));

    // With no RL iteration, sims = seeding + 3 designs × 30 corners × N' (1).
    let seeding = |framework: Framework| {
        let config = small(framework, VerificationMethod::Corner, 0, 20);
        GlovaOptimizer::new(Arc::new(toy.clone()), config).run(1).simulations - 3 * 30
    };
    // TuRBO's space-filling prefix for 4 dimensions: max(2·4, 6) points.
    let turbo_prefix = 8;
    // PVTSizing asks one design at a time and stops at 3 feasible designs,
    // inside the prefix …
    assert_eq!(seeding(Framework::PvtSizing), 3);
    // … while GLOVA's batched prefix finds all 8 feasible, more than the
    // 3 initial designs it keeps.
    assert_eq!(seeding(Framework::GLOVA), turbo_prefix);
    assert_eq!(seeding(GLOVA_OFF), turbo_prefix);
}

/// Fingerprint of a run: the counts, the final design's bits and the
/// trace's bits.
fn digest(r: &RunResult) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(u64::from(r.success));
    h.write_u64(r.rl_iterations as u64);
    h.write_u64(r.simulations);
    h.write_u64(r.verification_attempts as u64);
    match &r.final_design {
        Some(x) => {
            h.write_u64(x.len() as u64);
            h.write_f64_slice(x);
        }
        None => h.write_u64(u64::MAX),
    }
    h.write_u64(r.trace.len() as u64);
    for t in &r.trace {
        h.write_u64(t.iteration as u64);
        h.write_f64(t.critic_mean);
        h.write_f64(t.critic_bound);
        h.write_f64(t.sampled_worst);
        h.write_u64(t.corner_index as u64);
    }
    h.finish()
}

/// One golden case: framework, method, seed, max iterations, seeding
/// budget, the expected `(success, iterations)` and the digest recorded
/// before the three paper-run loops were merged into one.
type Golden = (Framework, VerificationMethod, u64, usize, usize, (bool, usize), u64);

fn check_goldens(circuit: &Arc<dyn Circuit>, cases: &[Golden]) {
    let mut mismatches = Vec::new();
    for &(framework, method, seed, iterations, budget, outcome, want) in cases {
        let config = small(framework, method, iterations, budget);
        let r = GlovaOptimizer::new(circuit.clone(), config).run(seed);
        assert_eq!((r.success, r.rl_iterations), outcome, "{framework:?} {method} seed {seed}");
        if digest(&r) != want {
            mismatches.push(format!("{framework:?} {method} seed {seed}: {:016x}", digest(&r)));
        }
    }
    assert!(mismatches.is_empty(), "trajectories moved:\n{}", mismatches.join("\n"));
}

#[test]
fn golden_trajectories_on_toy() {
    use VerificationMethod::{Corner as C, CornerLocalMc as Cl};
    check_goldens(
        &toy(),
        &[
            (Framework::GLOVA, C, 1, 60, 20, (true, 16), 0xe0a33e640ea04ecd),
            (GLOVA_OFF, C, 1, 60, 20, (true, 2), 0xefad418e42c56a24),
            (Framework::PvtSizing, C, 1, 60, 20, (true, 8), 0xf796c8ffbe24e6fe),
            (Framework::RobustAnalog, C, 1, 60, 20, (true, 6), 0x2c83a4a1c6067506),
            (Framework::GLOVA, Cl, 1, 60, 20, (true, 17), 0xb1437fabb0f41213),
            (GLOVA_OFF, Cl, 1, 60, 20, (true, 31), 0xaccd8e039c24a26a),
            (Framework::PvtSizing, Cl, 1, 60, 20, (true, 12), 0x0530a81d49971929),
            (Framework::RobustAnalog, Cl, 1, 60, 20, (true, 6), 0xb984dda111ae0bd2),
            // RobustAnalog successes after the re-cluster at iteration 26:
            // their final designs depend on it.
            (Framework::RobustAnalog, C, 3, 60, 20, (true, 31), 0x805515e96d92e8a5),
            (Framework::RobustAnalog, Cl, 3, 60, 20, (true, 31), 0xc6ace2b2f21ee5e6),
        ],
    );
    // The generous limit: PVTSizing stops inside TuRBO's prefix, GLOVA's
    // batch keeps 3 of 8 feasible designs.
    let generous: Arc<dyn Circuit> = Arc::new(generous_toy());
    check_goldens(
        &generous,
        &[
            (Framework::GLOVA, C, 1, 60, 20, (true, 1), 0x9dc5282195763fd3),
            (GLOVA_OFF, C, 1, 60, 20, (true, 1), 0xd20e34bfaa2efb1a),
            (Framework::PvtSizing, C, 1, 60, 20, (true, 1), 0x5bfcfc1118858d60),
            (Framework::RobustAnalog, C, 1, 60, 20, (true, 1), 0x5dbddf96101f434c),
        ],
    );
}

#[test]
fn golden_trajectories_on_sal() {
    use VerificationMethod::{Corner as C, CornerLocalMc as Cl};
    let sal: Arc<dyn Circuit> = Arc::new(StrongArmLatch::new());
    check_goldens(
        &sal,
        &[
            (Framework::GLOVA, C, 4, 120, 40, (true, 62), 0x07f92a0990f302ef),
            (GLOVA_OFF, C, 4, 120, 40, (true, 108), 0xaa0dfed9d710d02f),
            (Framework::PvtSizing, C, 1, 120, 40, (true, 95), 0x96fa924718bd381e),
            (Framework::RobustAnalog, C, 4, 120, 40, (false, 120), 0xa9f79dd967f1f6d6),
            (Framework::GLOVA, Cl, 4, 100, 40, (true, 62), 0xd2b3c599c5145a80),
            (GLOVA_OFF, Cl, 5, 100, 40, (true, 97), 0x23b1eeea9dc0defa),
            (Framework::PvtSizing, Cl, 1, 100, 40, (true, 95), 0xcb9a2b50f994861b),
            (Framework::RobustAnalog, Cl, 1, 100, 40, (false, 100), 0x121f4b6624210f38),
        ],
    );
}
