//! Waveform measurement utilities.
//!
//! The paper's delay metrics are waveform measurements: set/reset delays
//! are threshold-crossing times.

/// Edge direction for crossing searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Value crosses the threshold from below.
    Rising,
    /// Value crosses the threshold from above.
    Falling,
}

/// First time `values` crosses `threshold` in the given direction, linearly
/// interpolated between samples. Returns `None` if no crossing occurs.
///
/// # Panics
///
/// Panics if `times.len() != values.len()`.
pub fn crossing_time(times: &[f64], values: &[f64], threshold: f64, edge: Edge) -> Option<f64> {
    assert_eq!(times.len(), values.len(), "waveform length mismatch");
    for i in 1..values.len() {
        let (v0, v1) = (values[i - 1], values[i]);
        let crossed = match edge {
            Edge::Rising => v0 < threshold && v1 >= threshold,
            Edge::Falling => v0 > threshold && v1 <= threshold,
        };
        if crossed {
            let frac = (threshold - v0) / (v1 - v0);
            return Some(times[i - 1] + frac * (times[i] - times[i - 1]));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rising_crossing_interpolates() {
        let times = [0.0, 1.0, 2.0];
        let values = [0.0, 0.4, 1.0];
        let t = crossing_time(&times, &values, 0.7, Edge::Rising).unwrap();
        assert!((t - 1.5).abs() < 1e-12);
    }

    #[test]
    fn falling_crossing() {
        let times = [0.0, 1.0];
        let values = [1.0, 0.0];
        let t = crossing_time(&times, &values, 0.25, Edge::Falling).unwrap();
        assert!((t - 0.75).abs() < 1e-12);
    }

    #[test]
    fn no_crossing_returns_none() {
        let times = [0.0, 1.0];
        let values = [0.0, 0.5];
        assert_eq!(crossing_time(&times, &values, 0.9, Edge::Rising), None);
        assert_eq!(crossing_time(&times, &values, 0.2, Edge::Falling), None);
    }
}
