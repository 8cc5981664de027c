//! Shared experiment infrastructure for the table/figure harnesses.
//!
//! The paper's Table II reports, per (circuit × verification method ×
//! framework) cell: mean RL iterations, mean simulation count, normalized
//! runtime and success rate — averaged over repeated seeded runs, counting
//! only successful runs for the means (the paper's `*` footnote).

pub mod report;

use glova::engine::EngineSpec;
use glova::optimizer::{Framework, GlovaConfig, GlovaOptimizer};
use glova::report::RunResult;
use glova_circuits::Circuit;
use glova_variation::config::VerificationMethod;
use std::sync::Arc;
use std::time::Duration;

/// The testcase circuits of Table II.
pub fn table2_circuits() -> Vec<(&'static str, Arc<dyn Circuit>)> {
    vec![
        ("SAL", Arc::new(glova_circuits::StrongArmLatch::new()) as Arc<dyn Circuit>),
        ("FIA", Arc::new(glova_circuits::FloatingInverterAmp::new())),
        ("OCSA+SH", Arc::new(glova_circuits::DramCoreSense::new())),
    ]
}

/// Aggregated results of one table cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Mean RL iterations over successful runs (0 if none).
    pub mean_iterations: f64,
    /// Mean simulation count over successful runs (0 if none).
    pub mean_simulations: f64,
    /// Mean wall time over successful runs (zero if none).
    pub mean_wall: Duration,
    /// Fraction of runs that succeeded.
    pub success_rate: f64,
    /// Individual run results.
    pub runs: Vec<RunResult>,
}

impl CellResult {
    /// Aggregates per-run results (means over successful runs only).
    pub fn from_runs(runs: Vec<RunResult>) -> Self {
        let successes: Vec<&RunResult> = runs.iter().filter(|r| r.success).collect();
        let n = successes.len().max(1) as f64;
        let mean_iterations = successes.iter().map(|r| r.rl_iterations as f64).sum::<f64>() / n;
        let mean_simulations = successes.iter().map(|r| r.simulations as f64).sum::<f64>() / n;
        let mean_wall = Duration::from_secs_f64(
            successes.iter().map(|r| r.wall_time.as_secs_f64()).sum::<f64>() / n,
        );
        Self {
            mean_iterations,
            mean_simulations,
            mean_wall,
            success_rate: if runs.is_empty() {
                0.0
            } else {
                successes.len() as f64 / runs.len() as f64
            },
            runs,
        }
    }

    /// Whether any run succeeded (means are meaningful).
    pub fn any_success(&self) -> bool {
        self.success_rate > 0.0
    }
}

/// Per-framework iteration budgets: RobustAnalog is given more room, as in
/// the paper where it consumes up to ~17× more iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Max RL iterations for GLOVA / PVTSizing.
    pub base_iterations: usize,
    /// Max RL iterations for RobustAnalog.
    pub robustanalog_iterations: usize,
}

impl Budget {
    /// Budget for a circuit (DRAM gets more room) under a quickness level.
    pub fn for_circuit(circuit_name: &str, quick: bool) -> Self {
        let base = match (circuit_name, quick) {
            ("OCSA+SH", false) => 1200,
            ("OCSA+SH", true) => 600,
            (_, false) => 500,
            (_, true) => 250,
        };
        Self { base_iterations: base, robustanalog_iterations: base * 2 }
    }
}

/// Runs one Table-II cell: `seeds` runs of `framework` on `circuit` under
/// `method`, dispatching simulation batches through `engine` (results are
/// engine-independent; only wall time changes).
pub fn run_cell(
    circuit: &Arc<dyn Circuit>,
    method: VerificationMethod,
    framework: Framework,
    seeds: u64,
    budget: Budget,
    engine: EngineSpec,
) -> CellResult {
    let (max_iterations, first_seed) = match framework {
        Framework::Glova { .. } => (budget.base_iterations, 1000),
        Framework::PvtSizing => (budget.base_iterations, 2000),
        Framework::RobustAnalog => (budget.robustanalog_iterations, 3000),
    };
    let config =
        GlovaConfig { framework, max_iterations, ..GlovaConfig::paper(method).with_engine(engine) };
    let runs: Vec<RunResult> = (0..seeds)
        .map(|seed| GlovaOptimizer::new(circuit.clone(), config.clone()).run(first_seed + seed))
        .collect();
    CellResult::from_runs(runs)
}

/// Parses the shared `--engine sequential|threaded|threaded:N` flag of
/// the bench bins (defaults to [`EngineSpec::Sequential`] when the flag
/// is absent).
///
/// Exits with a usage message when the flag is present without a value
/// or with a malformed one — bins call this before any long-running
/// work, so a typo fails fast instead of silently running sequentially.
pub fn engine_from_args(args: &[String]) -> EngineSpec {
    let Some(flag_pos) = args.iter().position(|a| a == "--engine") else {
        return EngineSpec::Sequential;
    };
    let Some(value) = args.get(flag_pos + 1) else {
        eprintln!("--engine requires a value: `sequential`, `threaded` or `threaded:N`");
        std::process::exit(2);
    };
    EngineSpec::parse(value).unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2);
    })
}

/// Whether the shared `--report` flag is present: bins then serialize
/// what they measured to `BENCH_<name>.json` via [`report::BenchReport`].
pub fn report_requested(args: &[String]) -> bool {
    args.iter().any(|a| a == "--report")
}

/// Writes a report to the repo root, logging the outcome to stderr (bins
/// should not fail their primary job over an artifact write).
pub fn write_report(report: &report::BenchReport) {
    match report.write_to_repo_root() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write {}: {err}", report.file_name()),
    }
}

/// Formats a float with at most one decimal, or `-` for NaN.
pub fn fmt_mean(v: f64) -> String {
    if v.is_nan() || v == 0.0 {
        "-".to_string()
    } else if v >= 1000.0 {
        format!("{:.0}", v)
    } else {
        format!("{:.1}", v)
    }
}

/// Formats a runtime ratio (`-` for undefined).
pub fn fmt_ratio(v: f64) -> String {
    if v.is_finite() && v > 0.0 {
        format!("{v:.2}")
    } else {
        "-".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_result_means_ignore_failures() {
        let ok = RunResult {
            success: true,
            rl_iterations: 10,
            simulations: 100,
            verification_attempts: 1,
            wall_time: Duration::from_millis(10),
            final_design: Some(vec![0.5]),
            trace: Vec::new(),
        };
        let bad = RunResult::failed(500, 9999, Duration::from_millis(99));
        let cell = CellResult::from_runs(vec![ok.clone(), bad]);
        assert_eq!(cell.mean_iterations, 10.0);
        assert_eq!(cell.mean_simulations, 100.0);
        assert_eq!(cell.success_rate, 0.5);
        assert!(cell.any_success());
    }

    #[test]
    fn empty_cell_is_zero_rate() {
        let cell = CellResult::from_runs(Vec::new());
        assert_eq!(cell.success_rate, 0.0);
        assert!(!cell.any_success());
    }

    #[test]
    fn budgets_scale_for_dram() {
        let sal = Budget::for_circuit("SAL", false);
        let dram = Budget::for_circuit("OCSA+SH", false);
        assert!(dram.base_iterations > sal.base_iterations);
        assert_eq!(dram.robustanalog_iterations, 2 * dram.base_iterations);
    }

    #[test]
    fn formatting_handles_nan() {
        assert_eq!(fmt_mean(f64::NAN), "-");
        assert_eq!(fmt_mean(12.34), "12.3");
        assert_eq!(fmt_ratio(f64::INFINITY), "-");
        assert_eq!(fmt_ratio(2.5), "2.50");
    }

    #[test]
    fn circuits_list_matches_paper() {
        let circuits = table2_circuits();
        assert_eq!(circuits.len(), 3);
        assert_eq!(circuits[0].0, "SAL");
        assert_eq!(circuits[2].1.dim(), 12);
    }
}
