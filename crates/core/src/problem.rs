//! The sizing problem: circuit × verification method, with simulation
//! accounting and engine-driven batch evaluation.

use crate::cache::{CacheStats, EvalCache, EvalCacheConfig};
use crate::engine::{map_indexed, EvalEngine, Sequential};
use crate::fault::{FaultKind, FaultPlan};
use glova_circuits::Circuit;
use glova_stats::reduce;
use glova_stats::rng::Rng64;
use glova_variation::config::{OperatingConfig, VerificationMethod};
use glova_variation::corner::PvtCorner;
use glova_variation::sampler::{MismatchSampler, MismatchVector};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Raw metrics in spec order.
    pub metrics: Vec<f64>,
    /// The consolidated reward (paper Eq. 4–5).
    pub reward: f64,
}

/// A sizing problem: the circuit under a chosen verification method.
///
/// Every call to [`SizingProblem::simulate`] increments the simulation
/// counter — the `# Simulation` column of the paper's Table II. The
/// counter is atomic, and [`Circuit`] implementations are `Send + Sync`
/// by trait bound, so a problem can be shared across the worker threads
/// of a [`Threaded`](crate::engine::Threaded) engine; batch entry points
/// ([`simulate_conditions`](Self::simulate_conditions)) fan out through
/// the problem's [`EvalEngine`].
///
/// This includes SPICE-backed circuits
/// (`glova_circuits::SpiceInverterChain`): their `evaluate` checks a
/// per-worker DC solver out of a shared pool, so corner/mismatch sweeps,
/// verifier phase-2 re-sweeps and yield grids all thread through the
/// engine layer end to end instead of looping over netlist solves
/// inline — with `tests/spice_engine_parity.rs` holding
/// sequential == threaded bitwise.
pub struct SizingProblem {
    circuit: Arc<dyn Circuit>,
    config: OperatingConfig,
    engine: Arc<dyn EvalEngine>,
    cache: Option<Arc<EvalCache>>,
    fault_plan: Option<Arc<FaultPlan>>,
    simulations: AtomicU64,
}

impl Clone for SizingProblem {
    fn clone(&self) -> Self {
        Self {
            circuit: self.circuit.clone(),
            config: self.config.clone(),
            engine: self.engine.clone(),
            cache: self.cache.clone(),
            fault_plan: self.fault_plan.clone(),
            simulations: AtomicU64::new(self.simulations()),
        }
    }
}

impl std::fmt::Debug for SizingProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SizingProblem")
            .field("circuit", &self.circuit.name())
            .field("method", &self.config.method)
            .field("engine", &self.engine.name())
            .field("cache", &self.cache.as_ref().map(|c| c.stats()))
            .field("fault_plan", &self.fault_plan.as_ref().map(|p| p.len()))
            .field("simulations", &self.simulations())
            .finish()
    }
}

impl SizingProblem {
    /// Creates a problem for `circuit` under `method`, evaluating batches
    /// sequentially.
    pub fn new(circuit: Arc<dyn Circuit>, method: VerificationMethod) -> Self {
        Self::with_engine(circuit, method, Arc::new(Sequential))
    }

    /// Creates a problem whose batch evaluations run on `engine`.
    pub fn with_engine(
        circuit: Arc<dyn Circuit>,
        method: VerificationMethod,
        engine: Arc<dyn EvalEngine>,
    ) -> Self {
        Self {
            circuit,
            config: method.operating_config(),
            engine,
            cache: None,
            fault_plan: None,
            simulations: AtomicU64::new(0),
        }
    }

    /// Attaches an [`EvalCache`] (builder style): repeated
    /// `(design, corner, mismatch)` points are answered from memory with
    /// bitwise-identical outcomes. The simulation counter keeps counting
    /// *requests*, so accounting is unchanged; [`Self::cache_stats`]
    /// reports the evaluations actually saved.
    pub fn with_cache(mut self, config: EvalCacheConfig) -> Self {
        self.cache = Some(Arc::new(EvalCache::new(config)));
        self
    }

    /// Attaches an **existing** [`EvalCache`] handle (builder style) —
    /// the sharing entry point behind the process-wide
    /// [`CacheRegistry`](crate::cache::CacheRegistry): concurrent
    /// campaigns on the same circuit answer each other's repeated points.
    /// Outcomes are unchanged by sharing (a hit is bitwise-identical to a
    /// recompute), so per-problem accounting and trajectories stay
    /// exactly as with a private cache.
    pub fn with_cache_handle(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a deterministic [`FaultPlan`] (builder style): simulation
    /// ordinals named by the plan are forced to fail, panic or stall (see
    /// [`crate::fault`]). Production problems carry no plan and pay one
    /// pointer check per simulation.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The evaluation cache, if one is attached.
    pub fn cache(&self) -> Option<&Arc<EvalCache>> {
        self.cache.as_ref()
    }

    /// Cache counters (`None` when no cache is attached).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The circuit.
    pub fn circuit(&self) -> &Arc<dyn Circuit> {
        &self.circuit
    }

    /// The operating configuration (Table I row).
    pub fn config(&self) -> &OperatingConfig {
        &self.config
    }

    /// The evaluation engine batch entry points dispatch through.
    pub fn engine(&self) -> &Arc<dyn EvalEngine> {
        &self.engine
    }

    /// Design-space dimension.
    pub fn dim(&self) -> usize {
        self.circuit.dim()
    }

    /// Total simulations run so far.
    pub fn simulations(&self) -> u64 {
        self.simulations.load(Ordering::Relaxed)
    }

    /// Resets the simulation counter (between experiment arms).
    pub fn reset_simulations(&self) {
        self.simulations.store(0, Ordering::Relaxed);
    }

    /// Runs one simulation: metrics + consolidated reward.
    ///
    /// With an attached [`EvalCache`], a previously evaluated point is
    /// answered from memory (bitwise-identical outcome, the counter still
    /// increments); the circuit is only consulted on misses.
    pub fn simulate(&self, x: &[f64], corner: &PvtCorner, h: &MismatchVector) -> SimOutcome {
        let ordinal = self.simulations.fetch_add(1, Ordering::Relaxed);
        if let Some(kind) = self.fault_plan.as_ref().and_then(|p| p.fault_at(ordinal)) {
            match kind {
                FaultKind::Panic => panic!("injected fault: panic at simulation {ordinal}"),
                FaultKind::Slow(pause) => std::thread::sleep(*pause),
                FaultKind::NonConvergence => {
                    // Degrade exactly as an unrecovered solve would —
                    // and bypass the cache, so the injected outcome can
                    // never alias a clean result for a campaign sharing
                    // this cache.
                    let metrics = vec![f64::NAN; self.circuit.spec().len()];
                    let reward = self.circuit.spec().reward(&metrics);
                    return SimOutcome { metrics, reward };
                }
            }
        }
        if let Some(cache) = &self.cache {
            return cache.get_or_compute(x, corner, h, || self.evaluate_uncached(x, corner, h));
        }
        self.evaluate_uncached(x, corner, h)
    }

    fn evaluate_uncached(&self, x: &[f64], corner: &PvtCorner, h: &MismatchVector) -> SimOutcome {
        let metrics = self.circuit.evaluate(x, corner, h);
        let reward = self.circuit.spec().reward(&metrics);
        SimOutcome { metrics, reward }
    }

    /// Simulates under the typical condition without mismatch (initial
    /// TuRBO sampling target).
    pub fn simulate_typical(&self, x: &[f64]) -> SimOutcome {
        let h = MismatchVector::nominal(self.circuit.mismatch_domain(x).dim());
        self.simulate(x, &PvtCorner::typical(), &h)
    }

    /// Samples `n` mismatch conditions for design `x` per Eq. 3 under this
    /// problem's variance layers (one shared global draw — a single die).
    pub fn sample_conditions(&self, x: &[f64], n: usize, rng: &mut Rng64) -> Vec<MismatchVector> {
        let sampler =
            MismatchSampler::new(self.circuit.mismatch_domain(x), self.config.variance_layers());
        sampler.sample_set(rng, n)
    }

    /// Samples `n` mismatch conditions with a fresh global draw per sample
    /// (one die per Monte-Carlo point) — used by full verification, where
    /// each sign-off sample models an independent die.
    pub fn sample_conditions_independent(
        &self,
        x: &[f64],
        n: usize,
        rng: &mut Rng64,
    ) -> Vec<MismatchVector> {
        let sampler =
            MismatchSampler::new(self.circuit.mismatch_domain(x), self.config.variance_layers());
        sampler.sample_independent(rng, n)
    }

    /// Simulates `x` under one corner across a set of pre-sampled mismatch
    /// conditions; returns the per-condition outcomes (in condition order)
    /// and the worst reward.
    ///
    /// The batch is dispatched through the problem's [`EvalEngine`]: each
    /// condition is an independent job, results are collected in index
    /// order, and the worst-reward fold is NaN-propagating and
    /// order-independent ([`glova_stats::reduce::worst`]) — so every
    /// engine produces identical outcomes.
    pub fn simulate_conditions(
        &self,
        x: &[f64],
        corner: &PvtCorner,
        conditions: &[MismatchVector],
    ) -> (Vec<SimOutcome>, f64) {
        let outcomes = map_indexed(self.engine.as_ref(), conditions.len(), |i| {
            self.simulate(x, corner, &conditions[i])
        });
        let worst = reduce::worst(outcomes.iter().map(|o| o.reward));
        (outcomes, worst)
    }

    /// Samples `n` conditions per corner with a fresh global draw per
    /// sample (independent dies — yield estimation) and simulates the full
    /// corner × condition grid in one engine dispatch. Returns the
    /// outcomes grouped per corner, in corner order.
    ///
    /// The RNG is consumed corner-major *before* dispatch — the
    /// determinism-critical invariant behind engine parity.
    pub fn simulate_corner_grid_independent(
        &self,
        x: &[f64],
        n: usize,
        rng: &mut Rng64,
    ) -> Vec<Vec<SimOutcome>> {
        let corners: Vec<usize> = (0..self.config.corners.len()).collect();
        let conditions: Vec<Vec<MismatchVector>> =
            corners.iter().map(|_| self.sample_conditions_independent(x, n, rng)).collect();
        self.simulate_selected_corners(x, &corners, &conditions)
    }

    /// Simulates `x` over an arbitrary subset of this problem's corners —
    /// `corner_indices[j]` paired with the pre-sampled `conditions[j]` —
    /// in **one** engine dispatch, returning outcomes grouped per selected
    /// corner in the given order.
    ///
    /// This is the one corner-batch path: a sizing-loop step's
    /// candidate × corner × mismatch grid ([`crate::optimizer`], for paper
    /// runs and campaigns alike) and the yield grid each flatten into a
    /// single [`map_indexed`] batch, so a
    /// threaded engine keeps its per-worker SPICE solvers hot instead of
    /// draining between per-corner mini-batches. Conditions are sampled by
    /// the caller *before* dispatch (the engine-parity invariant); results
    /// are bitwise-identical across engines.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or a corner index is out
    /// of range.
    pub fn simulate_selected_corners(
        &self,
        x: &[f64],
        corner_indices: &[usize],
        conditions: &[Vec<MismatchVector>],
    ) -> Vec<Vec<SimOutcome>> {
        assert_eq!(corner_indices.len(), conditions.len(), "one condition set per corner");
        let selected: Vec<PvtCorner> =
            corner_indices.iter().map(|&ci| self.config.corners.corner(ci)).collect();
        let pairs: Vec<(&PvtCorner, &MismatchVector)> = selected
            .iter()
            .zip(conditions)
            .flat_map(|(corner, hs)| hs.iter().map(move |h| (corner, h)))
            .collect();
        let outcomes = map_indexed(self.engine.as_ref(), pairs.len(), |i| {
            let (corner, h) = pairs[i];
            self.simulate(x, corner, h)
        });
        let mut grouped = Vec::with_capacity(conditions.len());
        let mut offset = 0;
        for hs in conditions {
            grouped.push(outcomes[offset..offset + hs.len()].to_vec());
            offset += hs.len();
        }
        grouped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Threaded;
    use glova_circuits::ToyQuadratic;
    use glova_stats::rng::seeded;

    fn problem(method: VerificationMethod) -> SizingProblem {
        SizingProblem::new(Arc::new(ToyQuadratic::standard()), method)
    }

    #[test]
    fn simulation_counter_counts() {
        let p = problem(VerificationMethod::Corner);
        let x = vec![0.5; 4];
        let h = MismatchVector::nominal(p.circuit().mismatch_domain(&x).dim());
        assert_eq!(p.simulations(), 0);
        p.simulate(&x, &PvtCorner::typical(), &h);
        p.simulate(&x, &PvtCorner::typical(), &h);
        assert_eq!(p.simulations(), 2);
        p.reset_simulations();
        assert_eq!(p.simulations(), 0);
    }

    #[test]
    fn corner_method_samples_nominal_conditions() {
        let p = problem(VerificationMethod::Corner);
        let mut rng = seeded(1);
        let conditions = p.sample_conditions(&[0.5; 4], 3, &mut rng);
        assert_eq!(conditions.len(), 3);
        assert!(conditions.iter().all(MismatchVector::is_nominal));
    }

    #[test]
    fn mc_methods_sample_nonzero_conditions() {
        let p = problem(VerificationMethod::CornerLocalMc);
        let mut rng = seeded(2);
        let conditions = p.sample_conditions(&[0.5; 4], 3, &mut rng);
        assert!(conditions.iter().all(|c| !c.is_nominal()));
    }

    #[test]
    fn worst_reward_is_minimum() {
        let p = problem(VerificationMethod::CornerLocalMc);
        let mut rng = seeded(3);
        let x = vec![0.5; 4];
        let conditions = p.sample_conditions(&x, 5, &mut rng);
        let (outcomes, worst) = p.simulate_conditions(&x, &PvtCorner::typical(), &conditions);
        let min = outcomes.iter().map(|o| o.reward).fold(f64::INFINITY, f64::min);
        assert_eq!(worst, min);
        assert_eq!(p.simulations(), 5);
    }

    #[test]
    fn feasible_design_earns_satisfied_reward() {
        let toy = ToyQuadratic::standard();
        let optimum = toy.optimum().to_vec();
        let p = SizingProblem::new(Arc::new(toy), VerificationMethod::Corner);
        let outcome = p.simulate_typical(&optimum);
        assert_eq!(outcome.reward, glova_circuits::spec::SATISFIED_REWARD);
    }

    #[test]
    fn threaded_conditions_match_sequential() {
        let toy = Arc::new(ToyQuadratic::standard());
        let seq = SizingProblem::new(toy.clone(), VerificationMethod::CornerLocalMc);
        let thr = SizingProblem::with_engine(
            toy,
            VerificationMethod::CornerLocalMc,
            Arc::new(Threaded::new(4)),
        );
        let x = vec![0.4; 4];
        let mut rng = seeded(9);
        let conditions = seq.sample_conditions(&x, 24, &mut rng);
        let corner = PvtCorner::typical();
        let (outcomes_s, worst_s) = seq.simulate_conditions(&x, &corner, &conditions);
        let (outcomes_t, worst_t) = thr.simulate_conditions(&x, &corner, &conditions);
        assert_eq!(outcomes_s, outcomes_t);
        assert_eq!(worst_s.to_bits(), worst_t.to_bits());
        assert_eq!(seq.simulations(), 24);
        assert_eq!(thr.simulations(), 24);
    }

    #[test]
    fn selected_corner_subset_matches_per_corner_batches() {
        let p = problem(VerificationMethod::CornerLocalMc);
        let x = vec![0.45; 4];
        let mut rng = seeded(21);
        let indices = [4usize, 0, 2];
        let conditions: Vec<Vec<MismatchVector>> =
            indices.iter().map(|_| p.sample_conditions(&x, 3, &mut rng)).collect();
        let grouped = p.simulate_selected_corners(&x, &indices, &conditions);
        assert_eq!(grouped.len(), 3);
        for (j, &ci) in indices.iter().enumerate() {
            let corner = p.config().corners.corner(ci);
            let (reference, _) = p.simulate_conditions(&x, &corner, &conditions[j]);
            assert_eq!(grouped[j], reference, "corner {ci} diverged from per-corner dispatch");
        }
    }

    #[test]
    fn selected_corner_subset_is_engine_invariant() {
        let toy = Arc::new(ToyQuadratic::standard());
        let seq = SizingProblem::new(toy.clone(), VerificationMethod::CornerLocalMc);
        let thr = SizingProblem::with_engine(
            toy,
            VerificationMethod::CornerLocalMc,
            Arc::new(Threaded::new(4)),
        );
        let x = vec![0.6; 4];
        let mut rng = seeded(22);
        let indices = [1usize, 3, 5, 2];
        let conditions: Vec<Vec<MismatchVector>> =
            indices.iter().map(|_| seq.sample_conditions(&x, 6, &mut rng)).collect();
        let a = seq.simulate_selected_corners(&x, &indices, &conditions);
        let b = thr.simulate_selected_corners(&x, &indices, &conditions);
        assert_eq!(a, b);
        assert_eq!(seq.simulations(), 24);
        assert_eq!(thr.simulations(), 24);
    }

    #[test]
    #[should_panic(expected = "one condition set per corner")]
    fn selected_corner_subset_requires_matching_lengths() {
        let p = problem(VerificationMethod::Corner);
        p.simulate_selected_corners(&[0.5; 4], &[0, 1], &[]);
    }

    #[test]
    fn counter_is_accurate_under_concurrency() {
        let p = Arc::new(SizingProblem::with_engine(
            Arc::new(ToyQuadratic::standard()),
            VerificationMethod::CornerLocalMc,
            Arc::new(Threaded::new(8)),
        ));
        let x = vec![0.5; 4];
        let mut rng = seeded(10);
        let conditions = p.sample_conditions(&x, 250, &mut rng);
        let (outcomes, _) = p.simulate_conditions(&x, &PvtCorner::typical(), &conditions);
        assert_eq!(outcomes.len(), 250);
        assert_eq!(p.simulations(), 250, "atomic counter must not drop increments");
    }
}
