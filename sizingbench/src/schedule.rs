//! Seeded inputs and the open-loop arrival generator.

use std::time::{Duration, Instant};

/// SplitMix64: a small, fully specified generator, so the benchmark's
/// inputs depend only on the seed and never on a library's RNG choice.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Arrival offsets of a Poisson stream with `rate` arrivals per second
/// over a window of `window` seconds, conditioned on its expected count
/// `round(rate × window)`: given that count, Poisson arrival times are
/// independent uniform draws over the window, sorted. Fixing the count
/// keeps the offered load of a short run equal to the nominal rate.
///
/// # Panics
///
/// Panics unless `rate` and `window` are finite and positive.
pub fn poisson_offsets(seed: u64, rate: f64, window: f64) -> Vec<Duration> {
    assert!(rate.is_finite() && rate > 0.0, "arrival rate must be positive");
    assert!(window.is_finite() && window > 0.0, "arrival window must be positive");
    let mut rng = SplitMix64::new(seed);
    let count = (rate * window).round() as usize;
    let mut offsets: Vec<f64> = (0..count).map(|_| rng.next_f64() * window).collect();
    offsets.sort_by(f64::total_cmp);
    offsets.into_iter().map(Duration::from_secs_f64).collect()
}

/// When one open-loop request was due and when the generator actually
/// handed it over.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// The scheduled send instant.
    pub due: Instant,
    /// The instant the generator called the submit hook.
    pub sent: Instant,
}

impl Arrival {
    /// How late the generator ran for this request.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }

    /// A request's latency counted from when it was due, so a stalled
    /// generator's lateness is charged to the requests it delayed.
    pub fn latency_until(&self, finished: Instant) -> Duration {
        finished.saturating_duration_since(self.due)
    }
}

/// Drives an open loop: request `i` is due at `start + offsets[i]`; the
/// generator sleeps until that instant when it is early and sends at once
/// when it is late (it never skips or bunches the schedule forward).
/// `send(i)` is called in order on the calling thread.
pub fn drive_open_loop(
    start: Instant,
    offsets: &[Duration],
    mut send: impl FnMut(usize),
) -> Vec<Arrival> {
    offsets
        .iter()
        .enumerate()
        .map(|(i, &offset)| {
            let due = start + offset;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            send(i);
            Arrival { due, sent }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_and_seeded() {
        let a = poisson_offsets(7, 20.0, 10.0);
        let b = poisson_offsets(7, 20.0, 10.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_offsets(8, 20.0, 10.0));
        assert_eq!(a.len(), 200, "the count is the expected one");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets are sorted");
        assert!(a.iter().all(|d| d.as_secs_f64() < 10.0), "offsets lie in the window");
        // Exponential gaps: about 1 - 1/e of them are shorter than the
        // mean gap of 1/20 s.
        let short = a.windows(2).filter(|w| (w[1] - w[0]).as_secs_f64() < 0.05).count();
        assert!((100..160).contains(&short), "{short} short gaps");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b = a.clone();
        SplitMix64::new(3).shuffle(&mut a);
        SplitMix64::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }

    #[test]
    fn generator_lateness_is_charged_to_later_requests() {
        // Requests are due every millisecond, but each send stalls for
        // 5 ms: the generator falls behind, and each request's latency
        // must include the lag it suffered before being sent.
        let offsets: Vec<Duration> = (0..6).map(Duration::from_millis).collect();
        let start = Instant::now();
        let arrivals =
            drive_open_loop(start, &offsets, |_| std::thread::sleep(Duration::from_millis(5)));
        let done = Instant::now();
        let lags: Vec<Duration> = arrivals.iter().map(Arrival::lag).collect();
        assert!(lags.windows(2).all(|w| w[1] >= w[0]), "lag grows while behind: {lags:?}");
        assert!(lags[5] >= Duration::from_millis(20), "last lag {:?}", lags[5]);
        for (a, &offset) in arrivals.iter().zip(&offsets) {
            assert_eq!(a.due, start + offset, "latency is counted from the schedule");
            assert!(a.latency_until(done) >= done - a.sent);
            assert!(a.latency_until(done) >= a.lag());
        }
    }

    #[test]
    fn an_early_generator_waits_for_the_due_instant() {
        let offsets = [Duration::from_millis(15)];
        let start = Instant::now();
        let arrivals = drive_open_loop(start, &offsets, |_| {});
        assert!(arrivals[0].sent >= start + offsets[0]);
        assert!(arrivals[0].lag() < Duration::from_millis(15));
    }
}
