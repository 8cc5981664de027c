//! Process-wide residents — one shared value per identity, created
//! once and handed to every concurrent campaign.
//!
//! [`Registry`] is the one implementation behind both of the serving
//! layer's residents:
//!
//! - [`SolverRegistry`] holds one primed [`OpSolverPool`] per netlist
//!   topology. A sweep-local pool amortizes its prototype's symbolic
//!   factorization across the points of *one* sweep; a long-running
//!   server multiplexing N campaigns over one topology should pay that
//!   prime exactly **once per process**, not once per request.
//! - `glova::cache::CacheRegistry` holds one evaluation cache per
//!   circuit identity, so campaigns on one circuit answer each other's
//!   repeated points.
//!
//! An entry is keyed by a caller-supplied **identity word sequence** (a
//! netlist's [`structural_signature`](Netlist::structural_signature),
//! or a circuit's identity words) and a **config** (the
//! [`NewtonOptions`] that bake into a primed prototype, or a cache
//! config). The bucket key is a 64-bit FNV digest of the identity — for
//! a netlist signature that digest is exactly
//! [`Netlist::topology_fingerprint`].
//!
//! # Collision safety
//!
//! A 64-bit digest collision is negligible but not impossible, and
//! silently reusing a wrong resident would be a correctness bug (a wrong
//! sparsity pattern means wrong solves; a wrong cache means aliased
//! outcomes), not a slow path. Every hit therefore **confirms** the
//! candidate entry against the full identity sequence and the config. A
//! digest match whose identity differs is counted as a collision and
//! resolved by creating a *separate* entry in the same bucket — never by
//! aliasing.
//!
//! # Determinism
//!
//! Sharing a pool cannot change results: every pooled solver is a clone
//! of one canonical primed prototype, a solve is a pure function of the
//! values it is retargeted at, and non-canonical solvers are retired on return
//! (see [`OpSolverPool`]). Which campaign's worker happens to check a
//! given solver out is therefore unobservable in the outcomes — the
//! property the concurrent-campaign determinism battery locks in.
//!
//! Lookup-or-create holds the registry lock across the creation, so
//! exactly one creation happens per unique key no matter how many
//! campaigns race on a cold key — which also makes the
//! [`primes`](SolverRegistry::primes) counter a deterministic quantity
//! the perfsuite `serve` scenario can gate on.

use crate::dc::OpSolverPool;
use crate::mna::NewtonOptions;
use crate::netlist::Netlist;
use crate::SpiceError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Eviction policy of a [`Registry`].
///
/// The default policy is unbounded and non-expiring. Eviction is
/// `Arc`-safe by construction: the registry hands out `Arc` handles, so
/// evicting an entry only drops the *registry's* reference. In-flight
/// holders keep the evicted value alive and fully usable; the next miss
/// on that key creates a fresh entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Maximum resident entries; the least-recently-used entry is
    /// evicted when an insert would exceed this. `None` = unbounded.
    pub max_entries: Option<usize>,
    /// Entries untouched for longer than this are evicted on the next
    /// registry access. `None` = entries never expire.
    pub ttl: Option<Duration>,
}

impl RegistryConfig {
    /// Caps resident entries (builder style).
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = Some(max_entries.max(1));
        self
    }

    /// Expires idle entries after `ttl` (builder style).
    pub fn with_ttl(mut self, ttl: Duration) -> Self {
        self.ttl = Some(ttl);
        self
    }
}

/// Byte-wise 64-bit FNV-1a over `words` (little-endian): the registry's
/// bucket digest, and [`Netlist::topology_fingerprint`] of a structural
/// signature.
pub(crate) fn fnv1a(words: &[u64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(OFFSET, |h, byte| (h ^ u64::from(byte)).wrapping_mul(PRIME))
}

/// One resident: the full identity and config it was created for, plus
/// the shared value.
#[derive(Debug)]
struct Entry<C, V> {
    identity: Vec<u64>,
    config: C,
    value: Arc<V>,
    last_used: Instant,
    expired: bool,
}

/// A process-wide map from `(identity, config)` to one shared `Arc<V>`
/// (see the [module docs](self)).
#[derive(Debug)]
pub struct Registry<C, V> {
    /// Digest → entries. A bucket normally holds one entry; it holds
    /// several only under a genuine digest collision or when one
    /// identity is requested under different configs.
    buckets: Mutex<HashMap<u64, Vec<Entry<C, V>>>>,
    config: RegistryConfig,
    creations: AtomicU64,
    hits: AtomicU64,
    collisions: AtomicU64,
    evictions: AtomicU64,
}

/// The process-wide map from netlist topology to a shared, primed
/// [`OpSolverPool`], keyed by structural signature and [`NewtonOptions`].
pub type SolverRegistry = Registry<NewtonOptions, OpSolverPool>;

impl<C, V> Default for Registry<C, V> {
    fn default() -> Self {
        Self {
            buckets: Mutex::default(),
            config: RegistryConfig::default(),
            creations: AtomicU64::default(),
            hits: AtomicU64::default(),
            collisions: AtomicU64::default(),
            evictions: AtomicU64::default(),
        }
    }
}

impl<C: Copy + PartialEq, V> Registry<C, V> {
    /// Creates an empty, unbounded registry. Callers that want one
    /// shared across servers or campaigns hand each the same instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry under an eviction policy.
    pub fn with_config(config: RegistryConfig) -> Self {
        Self { config, ..Self::default() }
    }

    /// Returns the shared value for `identity` under `config`, creating
    /// (and registering) one with `create` if no confirmed entry exists.
    ///
    /// Hits confirm the full identity sequence and the config — a digest
    /// collision creates a separate entry, it never aliases. The
    /// registry lock is held across `create`, so racing requesters of one
    /// key produce exactly one creation.
    ///
    /// # Errors
    ///
    /// Whatever `create` returns; nothing is registered on error.
    pub fn get_or_try_insert_with<E>(
        &self,
        identity: &[u64],
        config: C,
        create: impl FnOnce(C) -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        self.get_or_try_insert_keyed(fnv1a(identity), identity, config, create)
    }

    /// [`Self::get_or_try_insert_with`] for a `create` that cannot fail.
    pub fn get_or_insert_with(
        &self,
        identity: &[u64],
        config: C,
        create: impl FnOnce(C) -> V,
    ) -> Arc<V> {
        let Ok(value) = self.get_or_try_insert_with(identity, config, |config| {
            Ok::<_, std::convert::Infallible>(create(config))
        });
        value
    }

    /// [`Self::get_or_try_insert_with`] under a caller-supplied digest —
    /// the seam that lets the collision-confirm test force two
    /// identities into one bucket.
    fn get_or_try_insert_keyed<E>(
        &self,
        digest: u64,
        identity: &[u64],
        config: C,
        create: impl FnOnce(C) -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let mut buckets = self.buckets.lock().expect("registry poisoned");
        self.sweep_expired(&mut buckets);
        let bucket = buckets.entry(digest).or_default();
        if let Some(entry) =
            bucket.iter_mut().find(|e| e.config == config && e.identity == identity)
        {
            entry.last_used = Instant::now();
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(entry.value.clone());
        }
        if bucket.iter().any(|e| e.identity != identity) {
            // Same digest, different identity: a genuine collision.
            // Count it and fall through to a separate entry in the same
            // bucket.
            self.collisions.fetch_add(1, Ordering::Relaxed);
        }
        let value = Arc::new(create(config)?);
        self.creations.fetch_add(1, Ordering::Relaxed);
        bucket.push(Entry {
            identity: identity.to_vec(),
            config,
            value: value.clone(),
            last_used: Instant::now(),
            expired: false,
        });
        self.enforce_capacity(&mut buckets);
        Ok(value)
    }

    /// Drops TTL-expired and force-expired entries (lock held by caller).
    fn sweep_expired(&self, buckets: &mut HashMap<u64, Vec<Entry<C, V>>>) {
        let ttl = self.config.ttl;
        let now = Instant::now();
        let mut evicted = 0u64;
        buckets.retain(|_, bucket| {
            bucket.retain(|e| {
                let stale =
                    e.expired || ttl.is_some_and(|ttl| now.duration_since(e.last_used) >= ttl);
                if stale {
                    evicted += 1;
                }
                !stale
            });
            !bucket.is_empty()
        });
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Evicts globally-LRU entries until `max_entries` holds (lock held
    /// by caller). The just-inserted entry is the newest, so it is never
    /// the victim.
    fn enforce_capacity(&self, buckets: &mut HashMap<u64, Vec<Entry<C, V>>>) {
        let Some(max) = self.config.max_entries else { return };
        loop {
            let total: usize = buckets.values().map(Vec::len).sum();
            if total <= max {
                return;
            }
            let Some((&digest, idx)) = buckets
                .iter()
                .flat_map(|(digest, bucket)| {
                    bucket.iter().enumerate().map(move |(i, e)| ((digest, i), e.last_used))
                })
                .min_by_key(|&(_, last_used)| last_used)
                .map(|(slot, _)| slot)
            else {
                return;
            };
            let bucket = buckets.get_mut(&digest).expect("victim bucket exists");
            bucket.remove(idx);
            if bucket.is_empty() {
                buckets.remove(&digest);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Marks every resident entry expired, forcing eviction on the next
    /// registry access — a test seam standing in for TTL elapse, so
    /// contention batteries need no wall-clock sleeps. Outstanding `Arc`
    /// handles are unaffected (eviction only drops the registry's
    /// reference).
    pub fn force_expire_all(&self) {
        let mut buckets = self.buckets.lock().expect("registry poisoned");
        for entry in buckets.values_mut().flatten() {
            entry.expired = true;
        }
    }

    /// Values created, including re-creations after eviction. Under
    /// sharing this counts **unique keys**, not requests.
    pub fn creations(&self) -> u64 {
        self.creations.load(Ordering::Relaxed)
    }

    /// Requests answered by an existing confirmed entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Digest matches whose identity confirm failed (each resolved by a
    /// separate entry, never by aliasing).
    pub fn collisions(&self) -> u64 {
        self.collisions.load(Ordering::Relaxed)
    }

    /// Entries evicted by TTL expiry, forced expiry or the
    /// `max_entries` LRU cap.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Registered entries (unique identity × config keys).
    pub fn len(&self) -> usize {
        self.buckets.lock().expect("registry poisoned").values().map(Vec::len).sum()
    }

    /// Whether the registry holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SolverRegistry {
    /// Returns the shared pool for `netlist`'s topology under `options`,
    /// priming (and registering) one if no confirmed entry exists.
    ///
    /// Hits are confirmed against the full structural signature and the
    /// Newton options (the options bake into the primed prototype).
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] for structurally singular netlists
    /// (nothing is registered on error).
    pub fn pool_for(
        &self,
        netlist: Netlist,
        options: NewtonOptions,
    ) -> Result<Arc<OpSolverPool>, SpiceError> {
        self.get_or_try_insert_with(&netlist.structural_signature(), options, |options| {
            OpSolverPool::new(netlist, options)
        })
    }

    /// Prototype primes performed (cold topologies × option sets,
    /// re-primes after eviction included) — the deterministic quantity
    /// the perfsuite `serve` gate compares against one-pool-per-campaign
    /// construction.
    pub fn primes(&self) -> u64 {
        self.creations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::SolverBackend;
    use crate::netlist::{inverter_chain, rc_ladder};

    #[test]
    fn same_topology_shares_one_pool() {
        let registry = SolverRegistry::new();
        let options = NewtonOptions::default();
        let a = registry.pool_for(inverter_chain(8), options).unwrap();
        let b = registry.pool_for(inverter_chain(8), options).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one topology must resolve to one shared pool");
        assert_eq!((registry.primes(), registry.hits()), (1, 1));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn distinct_topologies_and_options_get_distinct_pools() {
        let registry = SolverRegistry::new();
        let options = NewtonOptions::default();
        let chain = registry.pool_for(inverter_chain(8), options).unwrap();
        let ladder = registry.pool_for(rc_ladder(8, 1e3, 1e-12), options).unwrap();
        assert!(!Arc::ptr_eq(&chain, &ladder));
        // Same topology under different options is a different prime:
        // the options bake into the prototype.
        let sparse = registry
            .pool_for(
                inverter_chain(8),
                NewtonOptions::default().with_backend(SolverBackend::Sparse),
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&chain, &sparse));
        assert!(sparse.is_sparse() && !chain.is_sparse());
        assert_eq!(registry.primes(), 3);
        assert_eq!(registry.collisions(), 0, "distinct fingerprints are not collisions");
    }

    #[test]
    fn forced_fingerprint_clash_confirms_structure_and_never_aliases() {
        // Force two structurally different netlists into one bucket by
        // keying both under the same fingerprint: the confirm must refuse
        // to reuse the first entry, count a collision, and prime a
        // separate pool — silently aliasing the wrong symbolic analysis
        // is the failure mode this registry exists to rule out.
        let registry = SolverRegistry::new();
        let options = NewtonOptions::default();
        let pool_at_forced_key = |nl: &Netlist| {
            registry
                .get_or_try_insert_keyed(
                    0xdead_beef_cafe_f00d,
                    &nl.structural_signature(),
                    options,
                    |options| OpSolverPool::new(nl.clone(), options),
                )
                .unwrap()
        };
        let chain = pool_at_forced_key(&inverter_chain(8));
        let ladder = pool_at_forced_key(&rc_ladder(8, 1e3, 1e-12));
        assert!(!Arc::ptr_eq(&chain, &ladder), "collision must not alias pools");
        assert_eq!(registry.collisions(), 1);
        assert_eq!(registry.primes(), 2);
        assert_eq!(registry.len(), 2, "both entries live under one bucket");
        // Both entries stay individually reachable and confirmed.
        let chain2 = pool_at_forced_key(&inverter_chain(8));
        let ladder2 = pool_at_forced_key(&rc_ladder(8, 1e3, 1e-12));
        assert!(Arc::ptr_eq(&chain, &chain2));
        assert!(Arc::ptr_eq(&ladder, &ladder2));
        assert_eq!(registry.hits(), 2);
    }

    #[test]
    fn racing_cold_requests_prime_exactly_once() {
        let registry = SolverRegistry::new();
        let options = NewtonOptions::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    registry.pool_for(inverter_chain(8), options).unwrap();
                });
            }
        });
        assert_eq!(registry.primes(), 1, "racing requesters must share one prime");
        assert_eq!(registry.hits(), 7);
    }

    #[test]
    fn lru_cap_bounds_entries_under_churn() {
        let registry = SolverRegistry::with_config(RegistryConfig::default().with_max_entries(4));
        let options = NewtonOptions::default();
        for i in 0..100 {
            registry.pool_for(rc_ladder(2 + i, 1e3, 1e-12), options).unwrap();
            assert!(registry.len() <= 4, "cap must hold at every step");
        }
        assert_eq!(registry.len(), 4);
        assert_eq!(registry.evictions(), 96);
        assert_eq!(registry.primes(), 100);
    }

    #[test]
    fn lru_evicts_the_coldest_entry_first() {
        let registry = SolverRegistry::with_config(RegistryConfig::default().with_max_entries(2));
        let options = NewtonOptions::default();
        let a = registry.pool_for(rc_ladder(2, 1e3, 1e-12), options).unwrap();
        registry.pool_for(rc_ladder(3, 1e3, 1e-12), options).unwrap();
        // Touch `a` so the size-3 ladder becomes the LRU victim.
        let a2 = registry.pool_for(rc_ladder(2, 1e3, 1e-12), options).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        registry.pool_for(rc_ladder(4, 1e3, 1e-12), options).unwrap();
        assert_eq!(registry.evictions(), 1);
        // `a` survived the eviction; the size-3 ladder did not.
        let a3 = registry.pool_for(rc_ladder(2, 1e3, 1e-12), options).unwrap();
        assert!(Arc::ptr_eq(&a, &a3), "recently-used entry must survive");
        assert_eq!(registry.primes(), 3, "no re-prime for the surviving entry");
    }

    #[test]
    fn forced_expiry_reprimes_once_and_keeps_old_handles_alive() {
        let registry = SolverRegistry::new();
        let options = NewtonOptions::default();
        let old = registry.pool_for(inverter_chain(8), options).unwrap();
        registry.force_expire_all();
        // The held Arc stays alive and usable across the eviction.
        let fresh = registry.pool_for(inverter_chain(8), options).unwrap();
        assert!(!Arc::ptr_eq(&old, &fresh), "expired entry must re-prime, not alias");
        assert_eq!(registry.evictions(), 1);
        assert_eq!(registry.primes(), 2);
        old.with_solver(|s| s.solve().unwrap());
        fresh.with_solver(|s| s.solve().unwrap());
    }

    #[test]
    fn racing_requests_after_forced_expiry_reprime_exactly_once() {
        let registry = SolverRegistry::with_config(
            RegistryConfig::default().with_ttl(Duration::from_secs(3600)),
        );
        let options = NewtonOptions::default();
        let held = registry.pool_for(inverter_chain(8), options).unwrap();
        registry.force_expire_all();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let pool = registry.pool_for(inverter_chain(8), options).unwrap();
                    assert!(!Arc::ptr_eq(&held, &pool), "evicted pool must not be handed out");
                });
            }
        });
        assert_eq!(registry.primes(), 2, "one original prime + exactly one re-prime");
        assert_eq!(registry.evictions(), 1);
        assert_eq!(registry.len(), 1);
        // The racing holder's handle still works after all of it.
        held.with_solver(|s| s.solve().unwrap());
    }

    #[test]
    fn singular_netlist_registers_nothing() {
        // Two voltage sources across the same node pair duplicate the
        // branch rows — singular regardless of `gmin` regularization.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, crate::netlist::GROUND, 1.0);
        nl.vsource("V2", a, crate::netlist::GROUND, 2.0);
        let registry = SolverRegistry::new();
        assert!(registry.pool_for(nl, NewtonOptions::default()).is_err());
        assert!(registry.is_empty());
        assert_eq!(registry.primes(), 0);
    }
}
