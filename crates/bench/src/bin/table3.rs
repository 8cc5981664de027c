//! Regenerates **Table III** of the paper: the ablation study on the DRAM
//! core (OCSA + SH) removing, one at a time, the ensemble critic (EC),
//! the µ-σ evaluation, and simulation reordering (SR).
//!
//! ```sh
//! cargo run --release -p glova-bench --bin table3
//! cargo run --release -p glova-bench --bin table3 -- --quick
//! cargo run --release -p glova-bench --bin table3 -- --circuit SAL  # faster variant
//! cargo run --release -p glova-bench --bin table3 -- --engine threaded:8 --report
//! ```
//!
//! `--report` writes per-ablation simulation throughput to
//! `BENCH_table3.json`.
//!
//! Expected shape: every ablation costs iterations and/or simulations;
//! "w/o SR" inflates the *simulation* count most, "w/o EC" the iteration
//! count, matching the paper's Table III.

use glova::optimizer::{Framework, GlovaConfig, GlovaOptimizer};
use glova_bench::report::{BenchRecord, BenchReport};
use glova_bench::{
    engine_from_args, fmt_mean, fmt_ratio, report_requested, write_report, CellResult,
};
use glova_circuits::Circuit;
use glova_variation::config::VerificationMethod;
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Copy)]
enum Ablation {
    Proposed,
    WithoutEc,
    WithoutMuSigma,
    WithoutSr,
}

impl Ablation {
    const ALL: [Ablation; 4] =
        [Ablation::Proposed, Ablation::WithoutEc, Ablation::WithoutMuSigma, Ablation::WithoutSr];

    fn name(self) -> &'static str {
        match self {
            Ablation::Proposed => "Proposed",
            Ablation::WithoutEc => "w/o EC",
            Ablation::WithoutMuSigma => "w/o mu-sigma",
            Ablation::WithoutSr => "w/o SR",
        }
    }

    fn configure(self, method: VerificationMethod) -> GlovaConfig {
        let framework = match self {
            Ablation::Proposed => Framework::GLOVA,
            Ablation::WithoutEc => {
                Framework::Glova { ensemble_critic: false, mu_sigma: true, reordering: true }
            }
            Ablation::WithoutMuSigma => {
                Framework::Glova { ensemble_critic: true, mu_sigma: false, reordering: true }
            }
            Ablation::WithoutSr => {
                Framework::Glova { ensemble_critic: true, mu_sigma: true, reordering: false }
            }
        };
        GlovaConfig { framework, ..GlovaConfig::paper(method) }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seeds: u64 = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 2 } else { 3 });
    let circuit_name = args
        .iter()
        .position(|a| a == "--circuit")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "OCSA+SH".to_string());
    let engine = engine_from_args(&args);

    let circuit: Arc<dyn Circuit> = match circuit_name.as_str() {
        "SAL" => Arc::new(glova_circuits::StrongArmLatch::new()),
        "FIA" => Arc::new(glova_circuits::FloatingInverterAmp::new()),
        _ => Arc::new(glova_circuits::DramCoreSense::new()),
    };
    let max_iterations = match (circuit_name.as_str(), quick) {
        ("OCSA+SH", false) => 1200,
        ("OCSA+SH", true) => 600,
        (_, false) => 500,
        (_, true) => 250,
    };

    println!("=== Table III: ablation study on {circuit_name} ({seeds} seeds/cell) ===\n");

    let methods = VerificationMethod::ALL;
    let mut results: Vec<Vec<CellResult>> = Vec::new();
    for ablation in Ablation::ALL {
        let mut per_method = Vec::new();
        for method in methods {
            eprintln!("running {} / {method}...", ablation.name());
            let runs = (0..seeds)
                .map(|seed| {
                    let mut config = ablation.configure(method).with_engine(engine);
                    config.max_iterations = max_iterations;
                    GlovaOptimizer::new(circuit.clone(), config).run(4000 + seed)
                })
                .collect();
            per_method.push(CellResult::from_runs(runs));
        }
        results.push(per_method);
    }

    print!("{:<14}", "Verification");
    for m in methods {
        print!("{:^12}", m.short_name());
    }
    println!();

    println!("\n-- RL Iteration --");
    for (ai, ablation) in Ablation::ALL.iter().enumerate() {
        print!("{:<14}", ablation.name());
        for cell in &results[ai] {
            print!("{:^12}", fmt_mean(cell.mean_iterations));
        }
        println!();
    }
    println!("\n-- # Simulation --");
    for (ai, ablation) in Ablation::ALL.iter().enumerate() {
        print!("{:<14}", ablation.name());
        for cell in &results[ai] {
            print!("{:^12}", fmt_mean(cell.mean_simulations));
        }
        println!();
    }
    println!("\n-- Norm. Runtime (vs Proposed) --");
    for (ai, ablation) in Ablation::ALL.iter().enumerate() {
        print!("{:<14}", ablation.name());
        for (mi, cell) in results[ai].iter().enumerate() {
            let baseline = &results[0][mi];
            let ratio = if baseline.any_success() && cell.any_success() {
                fmt_ratio(
                    cell.mean_wall.as_secs_f64() / baseline.mean_wall.as_secs_f64().max(1e-12),
                )
            } else {
                "-".to_string()
            };
            print!("{ratio:^12}");
        }
        println!();
    }
    println!("\n-- Success Rate --");
    for (ai, ablation) in Ablation::ALL.iter().enumerate() {
        print!("{:<14}", ablation.name());
        for cell in &results[ai] {
            print!("{:^12}", format!("{:.0}%", cell.success_rate * 100.0));
        }
        println!();
    }

    if report_requested(&args) {
        let mut report = BenchReport::new("table3");
        for (ai, ablation) in Ablation::ALL.iter().enumerate() {
            for (method, cell) in methods.iter().zip(&results[ai]) {
                let sims: u64 = cell.runs.iter().map(|r| r.simulations).sum();
                let wall: Duration = cell.runs.iter().map(|r| r.wall_time).sum();
                report.push(BenchRecord::new(
                    format!("{}/{}", method.short_name(), ablation.name()),
                    &circuit_name,
                    engine.to_string(),
                    seeds as usize,
                    sims,
                    wall,
                ));
            }
        }
        write_report(&report);
    }
}
