//! The benchmark's probes must not change what they measure: a run over a
//! `ProbedCircuit`, with a step observer attached, is bitwise identical
//! to the plain run.

use glova::cache::{CachePolicy, EvalCacheConfig};
use glova::campaign::{CampaignConfig, CampaignResult, PruningConfig, SizingCampaign};
use glova::optimizer::{GlovaConfig, GlovaOptimizer};
use glova_circuits::{Circuit, SpiceInverterChain, ToyQuadratic};
use glova_variation::config::VerificationMethod;
use sizingbench::digest;
use sizingbench::probe::ProbedCircuit;
use std::sync::Arc;

fn without_wall(mut r: CampaignResult) -> CampaignResult {
    r.wall = Default::default();
    for s in &mut r.steps {
        s.wall = Default::default();
    }
    r
}

#[test]
fn a_wrapped_campaign_is_bitwise_equal_to_an_unwrapped_one() {
    let circuit: Arc<dyn Circuit> = Arc::new(SpiceInverterChain::new(2));
    let config = CampaignConfig::quick(VerificationMethod::Corner)
        .with_cache(EvalCacheConfig::with_policy(CachePolicy::On))
        .with_pruning(PruningConfig::new(5, 10))
        .with_max_steps(4);
    let plain = SizingCampaign::new(circuit.clone(), config.clone()).run(7);

    let probe = Arc::new(ProbedCircuit::new(circuit));
    let wrapped = SizingCampaign::new(probe.clone(), config);
    let mut observed = Vec::new();
    let traced = wrapped.run_with(7, &mut |step| observed.push(step.clone()));

    assert_eq!(digest::campaign_result(&plain), digest::campaign_result(&traced));
    assert_eq!(without_wall(plain.clone()), without_wall(traced.clone()));
    assert_eq!(observed, traced.steps, "the observer saw every step");
    // With a private cache and no repeated points, every simulation is
    // one evaluation through the probe.
    let cache = wrapped.problem().cache_stats().expect("cache attached");
    assert_eq!(probe.evals(), cache.misses);
    assert_eq!(cache.lookups(), traced.total_sims);
    assert!(probe.eval_time() > std::time::Duration::ZERO);
}

#[test]
fn a_wrapped_paper_run_is_bitwise_equal_and_marks_the_end_of_seeding() {
    let circuit: Arc<dyn Circuit> =
        Arc::new(ToyQuadratic::standard().with_mismatch_sensitivity(0.05));
    let config = GlovaConfig::quick(VerificationMethod::Corner);
    let plain = GlovaOptimizer::new(circuit.clone(), config.clone()).run(3);
    let probe = Arc::new(ProbedCircuit::new(circuit));
    let start = std::time::Instant::now();
    let traced = GlovaOptimizer::new(probe.clone(), config).run(3);

    assert_eq!(digest::run_result(&plain), digest::run_result(&traced));
    assert_eq!(probe.evals(), traced.simulations, "no cache: one evaluation per simulation");
    let seed_end = probe.first_off_typical().expect("the corner grid follows seeding");
    assert!(seed_end > start);
    assert!(probe.eval_time_since(seed_end) <= probe.eval_time());
}
