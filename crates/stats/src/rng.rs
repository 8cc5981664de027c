//! Deterministic RNG construction and stream fan-out.
//!
//! Every stochastic component in the workspace takes a seed or an `impl Rng`.
//! Experiment harnesses need *independent* streams per arm (circuit ×
//! verification method × framework × seed); [`fork`] derives child seeds
//! from a parent seed and a stream label with a SplitMix64 mix so that
//! adjacent labels produce decorrelated streams.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The draw methods of [`Rng64`] (`gen`, `gen_range`, …), re-exported so
/// a crate that only draws from the workspace RNG needs no `rand`
/// dependency of its own.
pub use rand::Rng;

/// The concrete RNG used throughout the workspace.
///
/// A type alias keeps call sites readable and allows swapping the generator
/// in one place.
pub type Rng64 = StdRng;

/// Creates a deterministic RNG from a 64-bit seed.
///
/// # Example
///
/// ```
/// use rand::Rng;
/// let mut a = glova_stats::rng::seeded(7);
/// let mut b = glova_stats::rng::seeded(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded(seed: u64) -> Rng64 {
    StdRng::seed_from_u64(split_mix64(seed))
}

/// Derives an independent child seed from `(parent, stream)`.
///
/// Uses two rounds of SplitMix64 over a combination of the inputs; distinct
/// `(parent, stream)` pairs map to well-separated seeds even when the inputs
/// are small consecutive integers (the common case in experiment sweeps).
///
/// # Example
///
/// ```
/// let s0 = glova_stats::rng::fork(42, 0);
/// let s1 = glova_stats::rng::fork(42, 1);
/// assert_ne!(s0, s1);
/// ```
pub fn fork(parent: u64, stream: u64) -> u64 {
    split_mix64(split_mix64(parent).wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1)))
}

/// Creates a deterministic RNG for a named sub-stream of a parent seed.
pub fn forked(parent: u64, stream: u64) -> Rng64 {
    seeded(fork(parent, stream))
}

/// SplitMix64 finalizer — a high-quality 64-bit mixing function.
fn split_mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashSet;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(123);
        let mut b = seeded(123);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_produces_distinct_streams() {
        let mut seen = HashSet::new();
        for parent in 0..50u64 {
            for stream in 0..50u64 {
                assert!(seen.insert(fork(parent, stream)), "collision at ({parent},{stream})");
            }
        }
    }

    #[test]
    fn fork_is_deterministic() {
        assert_eq!(fork(99, 3), fork(99, 3));
    }

    #[test]
    fn forked_streams_are_decorrelated() {
        // Crude check: first draws from consecutive streams should not be
        // monotone in the stream index.
        let draws: Vec<u64> = (0..16).map(|s| forked(7, s).gen::<u64>()).collect();
        let ascending = draws.windows(2).all(|w| w[0] < w[1]);
        let descending = draws.windows(2).all(|w| w[0] > w[1]);
        assert!(!ascending && !descending);
    }

    #[test]
    fn split_mix_avalanche() {
        // Flipping one input bit should flip roughly half the output bits.
        let base = split_mix64(0xDEAD_BEEF);
        let flipped = split_mix64(0xDEAD_BEEF ^ 1);
        let distance = (base ^ flipped).count_ones();
        assert!((16..=48).contains(&distance), "poor avalanche: {distance}");
    }
}
