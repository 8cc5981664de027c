//! A delegating [`Circuit`] that times every evaluation.

use glova_circuits::{Circuit, DesignSpec, FailureStats};
use glova_variation::corner::PvtCorner;
use glova_variation::mismatch::MismatchDomain;
use glova_variation::sampler::MismatchVector;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Wraps a circuit and records, from outside the library, every call to
/// `Circuit::evaluate` (when it started and how long it took) and when
/// the first evaluation away from the typical, no-mismatch condition
/// happened — the end of the paper loop's TuRBO seeding.
///
/// Every trait method delegates unchanged, so a run over the wrapper is
/// bitwise identical to a run over the wrapped circuit.
pub struct ProbedCircuit {
    inner: Arc<dyn Circuit>,
    epoch: Instant,
    /// `(start, duration)` of each evaluation, in nanoseconds since
    /// `epoch`.
    evals: Mutex<Vec<(u64, u64)>>,
    first_off_typical: OnceLock<Instant>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl ProbedCircuit {
    /// Wraps `inner` with an empty record.
    pub fn new(inner: Arc<dyn Circuit>) -> Self {
        Self {
            inner,
            epoch: Instant::now(),
            evals: Mutex::new(Vec::new()),
            first_off_typical: OnceLock::new(),
        }
    }

    /// Evaluations delegated so far.
    pub fn evals(&self) -> u64 {
        self.evals.lock().expect("probe record poisoned").len() as u64
    }

    /// Wall time spent inside the wrapped `evaluate`, summed over calls.
    pub fn eval_time(&self) -> Duration {
        self.eval_time_since(self.epoch)
    }

    /// Wall time of the evaluations that started at or after `t`.
    pub fn eval_time_since(&self, t: Instant) -> Duration {
        let from = nanos(t.saturating_duration_since(self.epoch));
        let evals = self.evals.lock().expect("probe record poisoned");
        Duration::from_nanos(evals.iter().filter(|e| e.0 >= from).map(|e| e.1).sum())
    }

    /// When the first evaluation away from the typical corner or with a
    /// non-nominal mismatch vector started (`None` if none happened).
    pub fn first_off_typical(&self) -> Option<Instant> {
        self.first_off_typical.get().copied()
    }
}

impl Circuit for ProbedCircuit {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.inner.bounds()
    }

    fn parameter_names(&self) -> Vec<String> {
        self.inner.parameter_names()
    }

    fn spec(&self) -> &DesignSpec {
        self.inner.spec()
    }

    fn mismatch_domain(&self, x_norm: &[f64]) -> MismatchDomain {
        self.inner.mismatch_domain(x_norm)
    }

    fn evaluate(&self, x_norm: &[f64], corner: &PvtCorner, mismatch: &MismatchVector) -> Vec<f64> {
        let t0 = Instant::now();
        if self.first_off_typical.get().is_none()
            && (*corner != PvtCorner::typical() || !mismatch.is_nominal())
        {
            let _ = self.first_off_typical.set(t0);
        }
        let metrics = self.inner.evaluate(x_norm, corner, mismatch);
        let record = (nanos(t0 - self.epoch), nanos(t0.elapsed()));
        self.evals.lock().expect("probe record poisoned").push(record);
        metrics
    }

    fn failure_stats(&self) -> FailureStats {
        self.inner.failure_stats()
    }

    fn denormalize(&self, x_norm: &[f64]) -> Vec<f64> {
        self.inner.denormalize(x_norm)
    }
}
