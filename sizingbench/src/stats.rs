//! Order statistics for the reported timings.

/// Nearest-rank percentile: the smallest sample with at least a share
/// `q` of the samples at or below it (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty sample, a NaN sample or `q` outside `[0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "percentile rank {q} outside [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1)]
}

/// Number of samples strictly above the `q` percentile — how many
/// observations the percentile's tail rests on.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let p = percentile(samples, q);
    samples.iter().filter(|&&s| s > p).count()
}

/// The median (nearest-rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(beyond(&xs, 0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentiles_ignore_input_order() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let mut b = a;
        b.reverse();
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(percentile(&a, q).to_bits(), percentile(&b, q).to_bits());
        }
    }
}
