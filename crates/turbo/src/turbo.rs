//! The TuRBO-1 ask/tell optimizer.

use crate::design::latin_hypercube;
use crate::gp::GaussianProcess;
use crate::trust_region::TrustRegion;
use glova_stats::normal::StandardNormal;
use rand::Rng;

/// Thompson candidates scored per posterior block. The block's `n × 64`
/// solve workspace stays cache-resident for the GP sizes TuRBO reaches
/// (30 KB at 60 training points), where scoring every candidate at once
/// would hold `n × 2000` values live and raise peak memory.
const BLOCK: usize = 64;

/// TuRBO configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TurboConfig {
    dim: usize,
    n_init: usize,
    n_candidates: usize,
    max_gp_points: usize,
}

impl TurboConfig {
    /// Standard configuration for a `dim`-dimensional problem:
    /// `2·dim` initial LHS points (min 6), `100·dim` capped at 2000
    /// candidates per ask, GP history capped at 256 points.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            n_init: (2 * dim).max(6),
            n_candidates: (100 * dim).min(2000),
            max_gp_points: 256,
        }
    }

    /// Overrides the number of initial space-filling points.
    pub fn with_init_points(mut self, n: usize) -> Self {
        self.n_init = n.max(1);
        self
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// TuRBO-1 optimizer (maximization) over `[0, 1]^dim`.
///
/// Use [`Turbo::ask`] to obtain the next point and [`Turbo::tell`] to
/// report its objective value.
#[derive(Debug, Clone)]
pub struct Turbo {
    config: TurboConfig,
    trust_region: TrustRegion,
    init_queue: Vec<Vec<f64>>,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    told: usize,
    best_idx: Option<usize>,
    normal: StandardNormal,
}

impl Turbo {
    /// Creates an optimizer; the first `n_init` asks return Latin-hypercube
    /// points.
    pub fn new<R: Rng + ?Sized>(config: TurboConfig, rng: &mut R) -> Self {
        let mut init_queue = latin_hypercube(config.n_init, config.dim, rng);
        init_queue.reverse(); // pop() returns them in order
        Self {
            trust_region: TrustRegion::new(config.dim),
            init_queue,
            xs: Vec::new(),
            ys: Vec::new(),
            told: 0,
            best_idx: None,
            normal: StandardNormal::new(),
            config,
        }
    }

    /// Number of queued initial (space-filling) design points not yet
    /// returned by [`Turbo::ask`].
    ///
    /// Queued asks consume no randomness and depend on no observations,
    /// so callers may drain them up front and evaluate the whole batch in
    /// parallel before telling the results back.
    pub fn init_remaining(&self) -> usize {
        self.init_queue.len()
    }

    /// Number of observations told so far.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether no observations have been told yet.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The incumbent best `(x, y)`, if any observation was told.
    pub fn best(&self) -> Option<(&[f64], f64)> {
        self.best_idx.map(|i| (self.xs[i].as_slice(), self.ys[i]))
    }

    /// The current trust region (diagnostics).
    pub fn trust_region(&self) -> &TrustRegion {
        &self.trust_region
    }

    /// Proposes the next point to evaluate.
    pub fn ask<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<f64> {
        if let Some(x) = self.init_queue.pop() {
            return x;
        }
        let Some(best_idx) = self.best_idx else {
            // No observations yet and the queue is exhausted (told() never
            // called): fall back to uniform sampling.
            return (0..self.config.dim).map(|_| rng.gen()).collect();
        };

        // Fit the surrogate on the (most recent) history window.
        let window = self.history_window();
        let xs: Vec<&[f64]> = window.iter().map(|&i| self.xs[i].as_slice()).collect();
        let ys: Vec<f64> = window.iter().map(|&i| self.ys[i]).collect();
        let gp = GaussianProcess::fit_auto(&xs, &ys, rng);

        // The candidate box is isotropic: every side gets the same
        // half-width. TuRBO §4 (and `bounds_around`) shapes it by the
        // fitted ARD lengthscales; unit lengthscales stay because shaping
        // the box would move every paper trajectory (docs/DESIGN.md §5).
        let dim = self.config.dim;
        let center = &self.xs[best_idx];
        let bounds = self.trust_region.bounds_around(center, &vec![1.0; dim]);

        // Perturbation candidates: each candidate perturbs a random subset
        // of coordinates within the box (TuRBO's sobol+mask scheme,
        // approximated with uniform draws) and is scored by one Thompson
        // draw µ + σ·z. Candidates are scored in blocks of `BLOCK`, stored
        // dimension-major. The RNG order is part of the trajectory: each
        // candidate's coordinates, then its deviate, candidate by
        // candidate (`StandardNormal` caches a spare deviate, so drawing a
        // block's deviates after all its coordinates would move every
        // later ask). The first maximum wins.
        let p_perturb = (20.0 / dim as f64).min(1.0);
        let mut best_candidate = center.clone();
        let mut best_value = f64::NEG_INFINITY;
        let mut block = vec![0.0; dim * BLOCK];
        let (mut z, mut mean, mut var) = ([0.0; BLOCK], [0.0; BLOCK], [0.0; BLOCK]);
        let mut v = Vec::new();
        let mut remaining = self.config.n_candidates;
        while remaining > 0 {
            let m = remaining.min(BLOCK);
            remaining -= m;
            let cands = &mut block[..dim * m];
            for c in 0..m {
                for d in 0..dim {
                    cands[d * m + c] = center[d];
                }
                let mut any = false;
                for d in 0..dim {
                    if rng.gen::<f64>() < p_perturb {
                        cands[d * m + c] = rng.gen_range(bounds[d].0..=bounds[d].1);
                        any = true;
                    }
                }
                if !any {
                    let d = rng.gen_range(0..dim);
                    cands[d * m + c] = rng.gen_range(bounds[d].0..=bounds[d].1);
                }
                z[c] = self.normal.sample(rng);
            }
            gp.posterior_block(cands, &mut v, &mut mean[..m], &mut var[..m]);
            for c in 0..m {
                let value = mean[c] + var[c].sqrt() * z[c];
                if value > best_value {
                    best_value = value;
                    for (d, x) in best_candidate.iter_mut().enumerate() {
                        *x = cands[d * m + c];
                    }
                }
            }
        }
        best_candidate
    }

    /// Reports the objective value of a previously asked point.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension or `y` is not finite.
    pub fn tell(&mut self, x: Vec<f64>, y: f64) {
        assert_eq!(x.len(), self.config.dim, "design dimension mismatch");
        assert!(y.is_finite(), "objective must be finite, got {y}");
        let improved = self.best().is_none_or(|(_, best_y)| y > best_y + 1e-12);
        self.xs.push(x);
        self.ys.push(y);
        self.told += 1;
        if improved {
            self.best_idx = Some(self.xs.len() - 1);
        }
        // Only count trust-region outcomes once the initial design is
        // done. Counting *told observations* (not queue emptiness) keeps
        // the semantics identical when a caller drains the init queue as
        // one batch before telling any results.
        if self.told >= self.config.n_init {
            let restarted = self.trust_region.update(improved);
            if restarted {
                // Keep the incumbent but forget the local history bias by
                // clearing everything except the best point.
                if let Some(bi) = self.best_idx {
                    let best_x = self.xs[bi].clone();
                    let best_y = self.ys[bi];
                    self.xs = vec![best_x];
                    self.ys = vec![best_y];
                    self.best_idx = Some(0);
                }
            }
        }
    }

    /// Indices of the GP training window (most recent points, capped).
    fn history_window(&self) -> Vec<usize> {
        let n = self.xs.len();
        let start = n.saturating_sub(self.config.max_gp_points);
        let mut window: Vec<usize> = (start..n).collect();
        // Always include the incumbent.
        if let Some(bi) = self.best_idx {
            if bi < start {
                window.push(bi);
            }
        }
        window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_stats::rng::seeded;

    fn run_on<F: Fn(&[f64]) -> f64>(f: F, dim: usize, budget: usize, seed: u64) -> f64 {
        let mut rng = seeded(seed);
        let mut turbo = Turbo::new(TurboConfig::new(dim), &mut rng);
        for _ in 0..budget {
            let x = turbo.ask(&mut rng);
            let y = f(&x);
            turbo.tell(x, y);
        }
        turbo.best().expect("budget > 0").1
    }

    #[test]
    fn optimizes_sphere() {
        let best = run_on(|x| -x.iter().map(|v| (v - 0.6) * (v - 0.6)).sum::<f64>(), 4, 80, 1);
        assert!(best > -0.02, "sphere best {best}");
    }

    #[test]
    fn optimizes_separable_multimodal() {
        // Rastrigin-lite on [0,1]: optimum at 0.5.
        let best = run_on(
            |x| {
                -x.iter()
                    .map(|v| {
                        let z = v - 0.5;
                        z * z + 0.05 * (1.0 - (8.0 * std::f64::consts::PI * z).cos())
                    })
                    .sum::<f64>()
            },
            3,
            150,
            2,
        );
        // Ripple amplitude is 0.05/dim (0.15 total): landing within one
        // ripple of the optimum is success for this budget.
        assert!(best > -0.15, "multimodal best {best}");
    }

    #[test]
    fn beats_random_search_on_sphere() {
        let dim = 6;
        let budget = 90;
        let f = |x: &[f64]| -x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum::<f64>();
        let turbo_best = run_on(f, dim, budget, 3);
        // Random search baseline with the same budget.
        let mut rng = seeded(4);
        let mut rand_best = f64::NEG_INFINITY;
        for _ in 0..budget {
            let x: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
            rand_best = rand_best.max(f(&x));
        }
        assert!(turbo_best > rand_best, "turbo {turbo_best} should beat random {rand_best}");
    }

    #[test]
    fn ask_returns_unit_cube_points() {
        let mut rng = seeded(5);
        let mut turbo = Turbo::new(TurboConfig::new(5), &mut rng);
        for i in 0..40 {
            let x = turbo.ask(&mut rng);
            assert!(x.iter().all(|v| (0.0..=1.0).contains(v)), "iter {i}: {x:?}");
            let y = -x[0];
            turbo.tell(x, y);
        }
    }

    #[test]
    fn best_tracks_maximum() {
        let mut rng = seeded(6);
        let mut turbo = Turbo::new(TurboConfig::new(2).with_init_points(3), &mut rng);
        turbo.tell(vec![0.1, 0.1], 1.0);
        turbo.tell(vec![0.2, 0.2], 3.0);
        turbo.tell(vec![0.3, 0.3], 2.0);
        let (x, y) = turbo.best().unwrap();
        assert_eq!(y, 3.0);
        assert_eq!(x, &[0.2, 0.2]);
    }

    #[test]
    #[should_panic(expected = "objective must be finite")]
    fn non_finite_tell_panics() {
        let mut rng = seeded(7);
        let mut turbo = Turbo::new(TurboConfig::new(2), &mut rng);
        turbo.tell(vec![0.5, 0.5], f64::NAN);
    }

    /// Digest of [`golden_trajectory_digest_14d_across_restart`]'s asks,
    /// recorded with the scalar pair-by-pair GP and per-candidate scoring
    /// that the lane code replaced.
    const GOLDEN: u64 = 0x7bfd_b711_7866_634d;

    /// Every point a fixed-seed 14-dimensional run asks for, digested bit
    /// for bit. The run spans the initial design, Thompson asks on up to
    /// 133 points, one trust-region restart and asks on the few points
    /// kept after it.
    #[test]
    fn golden_trajectory_digest_14d_across_restart() {
        let mut rng = seeded(13);
        let mut turbo = Turbo::new(TurboConfig::new(14), &mut rng);
        let mut digest = glova_stats::hash::Fnv1a::new();
        let mut restarts = 0;
        for _ in 0..140 {
            let x = turbo.ask(&mut rng);
            digest.write_f64_slice(&x);
            // A terraced bowl: its plateaus stall progress until the
            // region collapses and restarts.
            let y = -(4.0 * x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum::<f64>()).floor() / 4.0;
            let told = turbo.len();
            turbo.tell(x, y);
            if turbo.len() <= told {
                restarts += 1;
            }
        }
        assert_eq!(restarts, 1, "the run must cross one trust-region restart");
        assert_eq!(digest.finish(), GOLDEN, "digest {:016x}", digest.finish());
    }
}
