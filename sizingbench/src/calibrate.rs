//! Host-speed calibration with a benchmark-owned reference kernel.
//!
//! Shared build hosts change speed in phases that last about a minute
//! (one 150 s sample on a 2-core VM alternated between two levels 1.6×
//! apart), which swamps any bound on raw wall time. The benchmark times
//! [`reference_kernel`] — fixed work that no change to the library can
//! touch — through each run, and scales every time it reports by
//! `NOMINAL_REFERENCE_S / median reference time`: seconds on a host
//! running at the nominal speed.

use std::hint::black_box;
use std::time::Instant;

/// The nominal host speed: a round figure for the reference kernel's
/// time on the 2-core Xeon VM the bounds were set on (it read 0.14 to
/// 0.25 ms there as the host's phases changed).
pub const NOMINAL_REFERENCE_S: f64 = 0.2e-3;

/// Fixed floating-point work: a power iteration with a dense 48×48
/// matrix, hashing every iterate. Of the kernels tried (this one, a
/// random walk over a 256 KiB table, one over a 32 MiB table), this one
/// tracked the run times of paper jobs and SPICE campaigns most closely
/// through the host's slow and fast phases. Returns a digest so the work
/// cannot be elided.
pub fn reference_kernel() -> u64 {
    const N: usize = 48;
    let m: Vec<f64> = (0..N * N).map(|i| ((i * 7919) % 101) as f64 / 101.0).collect();
    let mut v: Vec<f64> = (0..N).map(|i| (i + 1) as f64 / N as f64).collect();
    let mut w = vec![0.0; N];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..200 {
        for (wi, row) in w.iter_mut().zip(m.chunks_exact(N)) {
            *wi = row.iter().zip(&v).map(|(a, b)| a * b).sum();
        }
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = wi / norm;
            digest = (digest ^ vi.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// Reference-kernel timings gathered through one run.
#[derive(Debug, Default, Clone)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Times `n` runs of the reference kernel, keeps them, and returns
    /// the factor (see [`Self::factor`]) of these `n` alone.
    pub fn sample(&mut self, n: usize) -> f64 {
        let fresh: Vec<f64> = (0..n.max(1))
            .map(|_| {
                let t0 = Instant::now();
                black_box(reference_kernel());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        self.samples.extend_from_slice(&fresh);
        NOMINAL_REFERENCE_S / crate::stats::median(&fresh)
    }

    /// Median reference time (seconds); the nominal time when nothing was
    /// sampled.
    pub fn reference_s(&self) -> f64 {
        if self.samples.is_empty() {
            NOMINAL_REFERENCE_S
        } else {
            crate::stats::median(&self.samples)
        }
    }

    /// The factor that turns a wall time measured on this host, now,
    /// into seconds at the nominal host speed.
    pub fn factor(&self) -> f64 {
        NOMINAL_REFERENCE_S / self.reference_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_kernel_is_fixed_work() {
        assert_eq!(reference_kernel(), reference_kernel());
    }

    #[test]
    fn an_unsampled_host_runs_at_the_nominal_speed() {
        assert_eq!(HostSpeed::default().factor(), 1.0);
        let mut h = HostSpeed::default();
        h.sample(3);
        assert!(h.factor() > 0.0 && h.factor().is_finite());
    }
}
