//! Memoization of simulation outcomes — the evaluation cache.
//!
//! GLOVA's pipeline re-simulates identical `(design, corner, mismatch)`
//! points more often than it first appears: the verifier's phase-2
//! re-sweeps after a failed attempt replay the same seeded condition
//! stream, engine-parity and ablation arms re-run identical campaigns,
//! and yield grids revisit points already visited during verification.
//! [`EvalCache`] memoizes those points with an LRU bound.
//!
//! # Correctness contract
//!
//! A hit returns a **bitwise-identical** clone of the outcome the circuit
//! produced on the original miss. Keys are a word-FNV digest of the
//! exact bit patterns of the design vector, corner and mismatch
//! condition, and every entry additionally stores those input bits — a
//! lookup only hits when they match exactly, so a digest collision is a
//! miss, never an aliased answer. (Keying on a *quantized* design vector
//! was considered and rejected: with exact-bit validation required
//! anyway, coarser keys cannot produce extra hits — they can only make
//! distinct near-identical points fight over one map slot.) The cache
//! can change wall time, never results. `tests/eval_cache.rs` locks
//! this in.
//!
//! The [simulation counter](crate::problem::SizingProblem::simulations)
//! counts *requests* and is unaffected by caching — accounting stays
//! identical across engines and cache configurations, while
//! [`CacheStats::misses`] counts the circuit evaluations actually paid
//! for.
//!
//! # Sharing across campaigns
//!
//! [`CacheRegistry`] hands one cache per circuit identity to every
//! campaign in a process. It is an instantiation of the generic
//! [`Registry`] that the solver-pool registry shares, so lookup, the
//! identity-and-config confirm, eviction and the counters have one
//! implementation.

use crate::problem::SimOutcome;
use glova_spice::registry::Registry;
pub use glova_spice::registry::RegistryConfig;
use glova_stats::hash::Fnv1a;
use glova_variation::corner::{ProcessCorner, PvtCorner};
use glova_variation::sampler::MismatchVector;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Pass-through hasher: cache keys are already 64-bit FNV digests, so
/// running them through SipHash again would only burn lookup-path cycles.
#[derive(Debug, Default, Clone, Copy)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("cache keys hash via write_u64");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type KeyMap = HashMap<u64, Entry, BuildHasherDefault<IdentityHasher>>;

/// Whether the cache memoizes.
///
/// Memoization is only a win when one circuit evaluation costs more than
/// the digest + locked-map traffic of a lookup/insert round trip.
/// SPICE-backed evaluations cost hundreds of µs and cache handsomely; the
/// analytic testcase models evaluate in ~1 µs, where hashing costs more
/// than recomputing (measured 0.84× on `verify_resweep` with the cache
/// on), so paper runs on them attach no cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Always memoize.
    #[default]
    On,
    /// Never memoize: [`EvalCache::get_or_compute`] evaluates directly.
    Off,
}

/// Evaluation-cache tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCacheConfig {
    /// Maximum resident entries before LRU eviction (summed over shards).
    pub capacity: usize,
    /// Memoization policy ([`CachePolicy::On`] by default).
    pub policy: CachePolicy,
    /// Lock shards the key space is striped over (clamped to
    /// `1..=capacity`). One shard recovers the strict global-LRU order;
    /// the default spreads concurrent lookups over
    /// [`Self::DEFAULT_SHARDS`] independent mutexes.
    pub shards: usize,
}

impl EvalCacheConfig {
    /// Default bound: generous for verification sweeps (a full 30-corner
    /// × 100-sample campaign is 3 000 points) without unbounded growth.
    pub const DEFAULT_CAPACITY: usize = 8192;

    /// Default shard count. A single coarse map mutex serializes every
    /// lookup of every worker of every concurrent campaign once the
    /// cache is a process-wide registry resident; 8 shards keep the
    /// critical sections disjoint for typical fleet widths while the
    /// per-shard LRU stays a good approximation of the global one.
    pub const DEFAULT_SHARDS: usize = 8;

    /// Default config with an explicit policy.
    pub fn with_policy(policy: CachePolicy) -> Self {
        Self { policy, ..Self::default() }
    }

    /// Overrides the shard count (builder style).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

impl Default for EvalCacheConfig {
    fn default() -> Self {
        Self {
            capacity: Self::DEFAULT_CAPACITY,
            policy: CachePolicy::default(),
            shards: Self::DEFAULT_SHARDS,
        }
    }
}

/// Hit/miss/eviction counters (monotonic over the cache's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a circuit evaluation.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0 when none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Resident entry: the exact inputs it was computed from, the outcome,
/// and its last-use tick. The map key is the 64-bit word-FNV of
/// (design bits, corner bits, mismatch bits); a digest collision between
/// distinct points is caught by the exact-bits validation below and
/// treated as a miss (the newer point overwrites on insert).
#[derive(Debug, Clone)]
struct Entry {
    x_bits: Box<[u64]>,
    h_bits: Box<[u64]>,
    process: ProcessCorner,
    vdd_bits: u64,
    temp_bits: u64,
    outcome: SimOutcome,
    tick: u64,
}

impl Entry {
    fn matches(&self, x: &[f64], corner: &PvtCorner, h: &MismatchVector) -> bool {
        self.process == corner.process
            && self.vdd_bits == corner.vdd.to_bits()
            && self.temp_bits == corner.temp_c.to_bits()
            && self.x_bits.iter().copied().eq(x.iter().map(|v| v.to_bits()))
            && self.h_bits.iter().copied().eq(h.values().iter().map(|v| v.to_bits()))
    }
}

/// A bounded, thread-safe memo table over simulation points.
///
/// Shared by every worker of a [`Threaded`](crate::engine::Threaded)
/// engine — and, when resident in the process-wide
/// [`CacheRegistry`], by every worker of every concurrent campaign on
/// the same circuit. The key space is striped over
/// [`EvalCacheConfig::shards`] independently locked shards (selected by
/// key bits, so a given point always resolves to the same shard);
/// lookups and inserts lock only their shard, while circuit evaluations
/// (the expensive part) happen outside any lock — two threads racing on
/// the same point at worst both evaluate and insert the same
/// deterministic value. Each shard runs its own LRU bound of
/// `capacity / shards`; with one shard this degenerates to the exact
/// global LRU order.
///
/// # Counter accuracy (the `Relaxed` audit)
///
/// `tick`, `hits`, `misses` and `evictions` are `AtomicU64`s updated
/// with `fetch_add(Relaxed)`. A relaxed atomic RMW cannot lose updates —
/// every `fetch_add` is serialized on the cell — so the counters are
/// exact under any concurrency; `Relaxed` only waives ordering *between*
/// cells, which nothing here relies on ([`Self::stats`] reads the three
/// counters non-atomically, so a snapshot taken mid-lookup may be torn
/// by one in-flight event — a display artifact, not drift; totals are
/// exact once the dispatch quiesces, which is what the accounting tests
/// assert). The LRU `tick` is allocated from the same atomic, so ticks
/// are unique across shards and recency comparisons stay globally
/// meaningful.
///
/// # Per-worker safety under SPICE-backed circuits
///
/// With SPICE-backed circuits the closure passed to
/// [`get_or_compute`](Self::get_or_compute) checks a per-worker solver
/// out of the circuit's `OpSolverPool`; because the evaluation runs
/// outside the cache lock, a worker holding a solver never blocks on
/// another worker's lookup, and the lock-ordering is always
/// cache-then-pool (never nested the other way), so the two mutexes
/// cannot deadlock. A hit returns the bitwise-identical outcome a
/// recompute would produce, which is what keeps the parity batteries
/// green across every `CachePolicy` × engine combination.
#[derive(Debug)]
pub struct EvalCache {
    shards: Box<[Mutex<KeyMap>]>,
    /// LRU bound per shard; the total bound is `shards.len() ×` this.
    shard_capacity: usize,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Whether [`Self::get_or_compute`] memoizes ([`CachePolicy::On`]).
    memoize: bool,
}

impl EvalCache {
    /// Creates an empty cache (capacity clamped to ≥ 1, shard count
    /// clamped to `1..=capacity` so per-shard capacities stay ≥ 1).
    pub fn new(config: EvalCacheConfig) -> Self {
        let capacity = config.capacity.max(1);
        let shard_count = config.shards.clamp(1, capacity);
        Self {
            shards: (0..shard_count).map(|_| Mutex::new(KeyMap::default())).collect(),
            shard_capacity: capacity.div_ceil(shard_count),
            capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            memoize: config.policy == CachePolicy::On,
        }
    }

    /// The configured LRU bound (summed over shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The resolved shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key is striped to. The map's `IdentityHasher` feeds
    /// the key's *low* bits to the bucket index, so the stripe reads the
    /// *high* bits — shard choice and in-shard placement stay
    /// uncorrelated.
    fn shard(&self, key: u64) -> &Mutex<KeyMap> {
        &self.shards[(key >> 48) as usize % self.shards.len()]
    }

    /// Resident entries (summed over shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache poisoned").len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// One allocation-free word-FNV pass over the exact bit patterns of
    /// (design, corner, mismatch).
    fn key(&self, x: &[f64], corner: &PvtCorner, h: &MismatchVector) -> u64 {
        let mut hasher = Fnv1a::new();
        for &v in x {
            hasher.write_word(v.to_bits());
        }
        hasher.write_word(corner.process as u64);
        hasher.write_word(corner.vdd.to_bits());
        hasher.write_word(corner.temp_c.to_bits());
        for &v in h.values() {
            hasher.write_word(v.to_bits());
        }
        hasher.finish()
    }

    /// Looks up a point, counting the hit or miss.
    pub fn lookup(&self, x: &[f64], corner: &PvtCorner, h: &MismatchVector) -> Option<SimOutcome> {
        self.lookup_keyed(self.key(x, corner, h), x, corner, h)
    }

    fn lookup_keyed(
        &self,
        key: u64,
        x: &[f64],
        corner: &PvtCorner,
        h: &MismatchVector,
    ) -> Option<SimOutcome> {
        let mut map = self.shard(key).lock().expect("cache poisoned");
        if let Some(entry) = map.get_mut(&key) {
            // Exact-bits validation: a digest collision is a miss, never
            // an aliased answer.
            if entry.matches(x, corner, h) {
                entry.tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(entry.outcome.clone());
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts (or replaces) a point, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&self, x: &[f64], corner: &PvtCorner, h: &MismatchVector, outcome: SimOutcome) {
        self.insert_keyed(self.key(x, corner, h), x, corner, h, outcome);
    }

    fn insert_keyed(
        &self,
        key: u64,
        x: &[f64],
        corner: &PvtCorner,
        h: &MismatchVector,
        outcome: SimOutcome,
    ) {
        let entry = Entry {
            x_bits: x.iter().map(|v| v.to_bits()).collect(),
            h_bits: h.values().iter().map(|v| v.to_bits()).collect(),
            process: corner.process,
            vdd_bits: corner.vdd.to_bits(),
            temp_bits: corner.temp_c.to_bits(),
            outcome,
            tick: self.tick.fetch_add(1, Ordering::Relaxed) + 1,
        };
        let mut map = self.shard(key).lock().expect("cache poisoned");
        if map.len() >= self.shard_capacity && !map.contains_key(&key) {
            // O(n) LRU scan over the shard: eviction is rare relative to
            // the simulation cost a resident entry amortizes, so a
            // linked-list LRU isn't worth the per-hit bookkeeping.
            if let Some(&oldest) = map.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| k) {
                map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(key, entry);
    }

    /// The memoizing entry point: one key computation, `compute` only on
    /// a miss (and outside the lock, so concurrent workers never block on
    /// a simulation).
    ///
    /// Under [`CachePolicy::Off`] it evaluates directly — no digest, no
    /// lock — and still counts the evaluation as a miss, so
    /// [`CacheStats::misses`] keeps meaning "circuit evaluations actually
    /// executed". Outcomes are identical under both policies; only wall
    /// time changes.
    pub fn get_or_compute(
        &self,
        x: &[f64],
        corner: &PvtCorner,
        h: &MismatchVector,
        compute: impl FnOnce() -> SimOutcome,
    ) -> SimOutcome {
        if !self.memoize {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return compute();
        }
        let key = self.key(x, corner, h);
        if let Some(outcome) = self.lookup_keyed(key, x, corner, h) {
            return outcome;
        }
        let outcome = compute();
        self.insert_keyed(key, x, corner, h, outcome.clone());
        outcome
    }
}

/// A process-wide map from circuit identity to a shared [`EvalCache`] —
/// the [`Registry`] instantiation the serving layer resolves caches
/// through (`registry.get_or_insert_with(&identity, config, EvalCache::new)`).
///
/// Concurrent campaigns on the same circuit revisit each other's
/// `(design, corner, mismatch)` points (seed grids, confirmation sweeps,
/// goal families re-deriving rewards from the same raw metrics), so a
/// server should hand them **one** cache per circuit instead of a cold
/// private cache per request.
///
/// # Identity, not topology
///
/// Keying by netlist topology alone would be wrong for caches: a
/// [`SimOutcome`] bakes in the circuit's metric extraction and base-spec
/// reward, so two *different* circuits sharing one topology must not
/// share memoized outcomes. Callers therefore present a full **identity
/// word sequence** — circuit name, dimension, bounds bits, spec digest,
/// topology fingerprint, whatever distinguishes evaluation semantics
/// (`glova-serve` builds this per circuit). Hits confirm the entire
/// sequence, so a digest collision creates a separate entry and can
/// never alias outcomes; the cache *config* is part of the match too, so
/// requests with different capacity or policy get distinct caches rather
/// than surprising each other.
///
/// Goal conditioning stays safe under sharing: campaigns re-derive
/// goal-spec rewards from the cached raw metrics, so one cache serves a
/// whole goal family (see [`crate::campaign`]).
pub type CacheRegistry = Registry<EvalCacheConfig, EvalCache>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn outcome(v: f64) -> SimOutcome {
        SimOutcome { metrics: vec![v, v + 1.0], reward: -v }
    }

    fn corner() -> PvtCorner {
        PvtCorner::typical()
    }

    #[test]
    fn miss_then_hit_roundtrips_exact_outcome() {
        let cache = EvalCache::new(EvalCacheConfig::default());
        let x = [0.25, 0.75];
        let h = MismatchVector::from_values(vec![1e-3, -2e-3]);
        assert!(cache.lookup(&x, &corner(), &h).is_none());
        cache.insert(&x, &corner(), &h, outcome(3.5));
        assert_eq!(cache.lookup(&x, &corner(), &h), Some(outcome(3.5)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn near_identical_designs_are_distinct_points() {
        // Designs differing in a single bit are distinct cache points:
        // the second must miss, and must not displace the first.
        let cache = EvalCache::new(EvalCacheConfig { capacity: 16, ..Default::default() });
        let h = MismatchVector::nominal(2);
        let x_a = [0.5, 0.5];
        let x_b = [0.5 + 1e-16, 0.5];
        cache.insert(&x_a, &corner(), &h, outcome(1.0));
        assert!(cache.lookup(&x_b, &corner(), &h).is_none());
        cache.insert(&x_b, &corner(), &h, outcome(2.0));
        assert_eq!(cache.lookup(&x_a, &corner(), &h), Some(outcome(1.0)));
        assert_eq!(cache.lookup(&x_b, &corner(), &h), Some(outcome(2.0)));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_corners_and_mismatch_are_distinct_points() {
        let cache = EvalCache::new(EvalCacheConfig::default());
        let x = [0.4];
        let h0 = MismatchVector::nominal(1);
        let h1 = MismatchVector::from_values(vec![1e-3]);
        cache.insert(&x, &corner(), &h0, outcome(1.0));
        let other = PvtCorner { vdd: 0.8, ..corner() };
        assert!(cache.lookup(&x, &other, &h0).is_none());
        assert!(cache.lookup(&x, &corner(), &h1).is_none());
        assert_eq!(cache.lookup(&x, &corner(), &h0), Some(outcome(1.0)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One shard pins the exact global LRU order the assertions need.
        let cache =
            EvalCache::new(EvalCacheConfig { capacity: 2, shards: 1, ..Default::default() });
        let h = MismatchVector::nominal(1);
        cache.insert(&[0.1], &corner(), &h, outcome(1.0));
        cache.insert(&[0.2], &corner(), &h, outcome(2.0));
        // Touch 0.1 so 0.2 becomes the LRU entry.
        assert!(cache.lookup(&[0.1], &corner(), &h).is_some());
        cache.insert(&[0.3], &corner(), &h, outcome(3.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&[0.2], &corner(), &h).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&[0.1], &corner(), &h).is_some());
        assert!(cache.lookup(&[0.3], &corner(), &h).is_some());
    }

    #[test]
    fn capacity_clamped_to_one() {
        let cache = EvalCache::new(EvalCacheConfig { capacity: 0, ..Default::default() });
        assert_eq!(cache.capacity(), 1);
        let h = MismatchVector::nominal(1);
        cache.insert(&[0.1], &corner(), &h, outcome(1.0));
        cache.insert(&[0.2], &corner(), &h, outcome(2.0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shard_count_is_clamped_and_reported() {
        let cache = EvalCache::new(EvalCacheConfig::default());
        assert_eq!(cache.shard_count(), EvalCacheConfig::DEFAULT_SHARDS);
        // Shards never outnumber capacity (per-shard bound stays ≥ 1)…
        let tiny = EvalCache::new(EvalCacheConfig { capacity: 3, ..Default::default() });
        assert_eq!(tiny.shard_count(), 3);
        // …and zero shards degrade to one.
        let one = EvalCache::new(EvalCacheConfig::default().with_shards(0));
        assert_eq!(one.shard_count(), 1);
    }

    #[test]
    fn sharded_cache_roundtrips_and_respects_total_bound() {
        // Many distinct points through a small sharded cache: every
        // lookup right after its insert must hit regardless of which
        // shard the key stripes to, and residency must never exceed the
        // summed per-shard bounds.
        let config = EvalCacheConfig { capacity: 8, shards: 4, ..Default::default() };
        let cache = EvalCache::new(config);
        let h = MismatchVector::nominal(1);
        for i in 0..100 {
            let x = [i as f64 * 0.01];
            cache.insert(&x, &corner(), &h, outcome(i as f64));
            assert_eq!(cache.lookup(&x, &corner(), &h), Some(outcome(i as f64)));
            assert!(cache.len() <= 8, "resident entries exceeded the bound");
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 100, "atomic hit counting is exact");
        assert_eq!(stats.misses, 0);
        assert!(stats.evictions >= 92, "displaced entries are counted per shard");
    }

    #[test]
    fn concurrent_workers_count_exactly_under_sharding() {
        // 8 threads × 200 disjoint points: the relaxed atomic counters
        // must not drop a single event (fetch_add is a read-modify-write;
        // Relaxed waives ordering, not atomicity).
        let cache = Arc::new(EvalCache::new(EvalCacheConfig {
            capacity: 4096,
            policy: CachePolicy::On,
            shards: 8,
        }));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = cache.clone();
                scope.spawn(move || {
                    let h = MismatchVector::nominal(1);
                    for i in 0..200u64 {
                        let x = [(t * 1000 + i) as f64];
                        // Miss + insert, then a guaranteed hit.
                        cache.get_or_compute(&x, &corner(), &h, || outcome(i as f64));
                        cache.get_or_compute(&x, &corner(), &h, || outcome(i as f64));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1600, "every evaluation counted");
        assert_eq!(stats.hits, 1600, "every hit counted");
        assert_eq!(cache.len(), 1600);
    }

    #[test]
    fn empty_stats_are_zero() {
        let cache = EvalCache::new(EvalCacheConfig::default());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert_eq!(cache.stats().lookups(), 0);
    }

    #[test]
    fn policy_off_bypasses_but_counts_evaluations() {
        let cache = EvalCache::new(EvalCacheConfig::with_policy(CachePolicy::Off));
        let h = MismatchVector::nominal(1);
        let mut evals = 0;
        for _ in 0..3 {
            let got = cache.get_or_compute(&[0.5], &corner(), &h, || {
                evals += 1;
                outcome(1.0)
            });
            assert_eq!(got, outcome(1.0));
        }
        assert_eq!(evals, 3, "pass-through recomputes every time");
        assert!(cache.is_empty(), "nothing is memoized");
        let stats = cache.stats();
        assert_eq!(stats.misses, 3, "misses still count executed evaluations");
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn policy_on_always_memoizes() {
        assert_eq!(EvalCacheConfig::default().policy, CachePolicy::On, "memoizing is the default");
        let cache = EvalCache::new(EvalCacheConfig::with_policy(CachePolicy::On));
        let h = MismatchVector::nominal(1);
        let mut evals = 0;
        for _ in 0..3 {
            cache.get_or_compute(&[0.5], &corner(), &h, || {
                evals += 1;
                outcome(1.0)
            });
        }
        assert_eq!(evals, 1, "one miss, then hits");
        assert_eq!(cache.stats().hits, 2);
    }

    // ---- CacheRegistry --------------------------------------------------

    #[test]
    fn registry_shares_one_cache_per_identity() {
        let registry = CacheRegistry::new();
        let config = EvalCacheConfig::default();
        let id = [1u64, 2, 3];
        let a = registry.get_or_insert_with(&id, config, EvalCache::new);
        let b = registry.get_or_insert_with(&id, config, EvalCache::new);
        assert!(Arc::ptr_eq(&a, &b), "one identity must resolve to one shared cache");
        assert_eq!((registry.creations(), registry.hits()), (1, 1));
        // Writes through one handle are visible through the other.
        let h = MismatchVector::nominal(1);
        a.insert(&[0.5], &corner(), &h, outcome(1.0));
        assert_eq!(b.lookup(&[0.5], &corner(), &h), Some(outcome(1.0)));
    }

    #[test]
    fn registry_separates_identities_and_configs() {
        let registry = CacheRegistry::new();
        let config = EvalCacheConfig::default();
        let a = registry.get_or_insert_with(&[1, 2, 3], config, EvalCache::new);
        let b = registry.get_or_insert_with(&[1, 2, 4], config, EvalCache::new);
        assert!(!Arc::ptr_eq(&a, &b), "distinct identities must not share outcomes");
        // Same identity under a different config is a distinct cache.
        let off = EvalCacheConfig::with_policy(CachePolicy::Off);
        let c = registry.get_or_insert_with(&[1, 2, 3], off, EvalCache::new);
        assert!(!Arc::ptr_eq(&a, &c));
        let h = MismatchVector::nominal(1);
        c.get_or_compute(&[0.5], &corner(), &h, || outcome(1.0));
        assert!(c.is_empty(), "the entry is built from the requested config");
        assert_eq!(registry.creations(), 3);
        assert_eq!(registry.collisions(), 0);
    }
}
