//! Regenerates **Table II** of the paper: optimization results on the
//! three real-world circuits under all three verification methods, for
//! GLOVA (Ours), PVTSizing and RobustAnalog.
//!
//! ```sh
//! cargo run --release -p glova-bench --bin table2            # full (default 3 seeds)
//! cargo run --release -p glova-bench --bin table2 -- --quick # reduced budgets, 2 seeds
//! cargo run --release -p glova-bench --bin table2 -- --seeds 5
//! cargo run --release -p glova-bench --bin table2 -- --engine threaded:8 --report
//! ```
//!
//! `--report` writes per-cell simulation throughput to
//! `BENCH_table2.json`.
//!
//! Expected *shape* (absolute numbers depend on the analytic substrate,
//! see `EXPERIMENTS.md`): GLOVA needs the fewest iterations and
//! simulations in every cell, PVTSizing sits in between, RobustAnalog is
//! the most expensive and drops success rate on the hard DRAM cells.

use glova::optimizer::Framework;
use glova_bench::report::{BenchRecord, BenchReport};
use glova_bench::{
    engine_from_args, fmt_mean, fmt_ratio, report_requested, run_cell, table2_circuits,
    write_report, Budget, CellResult,
};
use glova_variation::config::VerificationMethod;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seeds: u64 = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 2 } else { 3 });
    let engine = engine_from_args(&args);

    println!("=== Table II: optimization results on real-world circuits ===");
    println!(
        "(seeds per cell: {seeds}{}; engine: {engine}; means over successful runs only, as in the paper)\n",
        if quick { ", quick budgets" } else { "" }
    );

    let circuits = table2_circuits();
    let methods = VerificationMethod::ALL;

    // results[circuit][method][framework]
    let mut results: Vec<Vec<Vec<CellResult>>> = Vec::new();
    for (name, circuit) in &circuits {
        let budget = Budget::for_circuit(name, quick);
        let mut per_method = Vec::new();
        for method in methods {
            let mut per_framework = Vec::new();
            for framework in Framework::ALL {
                eprintln!("running {name} / {method} / {}...", framework.name());
                per_framework.push(run_cell(circuit, method, framework, seeds, budget, engine));
            }
            per_method.push(per_framework);
        }
        results.push(per_method);
    }

    // Header
    print!("{:<22}", "Testcases");
    for (name, _) in &circuits {
        print!("{:^33}", name);
    }
    println!();
    print!("{:<22}", "Verification");
    for _ in &circuits {
        for m in methods {
            print!("{:^11}", m.short_name());
        }
    }
    println!();

    let row = |label: &str, f: &dyn Fn(&CellResult, &CellResult) -> String, fw: usize| {
        print!("{label:<22}");
        for per_method in &results {
            for per_framework in per_method {
                let ours = &per_framework[0];
                print!("{:^11}", f(&per_framework[fw], ours));
            }
        }
        println!();
    };

    println!("\n-- RL Iteration --");
    for (fi, fw) in Framework::ALL.iter().enumerate() {
        row(fw.name(), &|c, _| fmt_mean(c.mean_iterations), fi);
    }
    println!("\n-- # Simulation --");
    for (fi, fw) in Framework::ALL.iter().enumerate() {
        row(fw.name(), &|c, _| fmt_mean(c.mean_simulations), fi);
    }
    println!("\n-- Norm. Runtime (vs Ours) --");
    for (fi, fw) in Framework::ALL.iter().enumerate() {
        row(
            fw.name(),
            &|c, ours| {
                if !ours.any_success() || !c.any_success() {
                    "-".to_string()
                } else {
                    fmt_ratio(c.mean_wall.as_secs_f64() / ours.mean_wall.as_secs_f64().max(1e-12))
                }
            },
            fi,
        );
    }
    println!("\n-- Success Rate --");
    for (fi, fw) in Framework::ALL.iter().enumerate() {
        row(fw.name(), &|c, _| format!("{:.0}%", c.success_rate * 100.0), fi);
    }

    println!("\n(cells with '-' had no successful run within the iteration budget)");

    if report_requested(&args) {
        let mut report = BenchReport::new("table2");
        for ((name, _), per_method) in circuits.iter().zip(&results) {
            for (method, per_framework) in methods.iter().zip(per_method) {
                for (framework, cell) in Framework::ALL.iter().zip(per_framework) {
                    // Totals over every run (failed runs also burn wall
                    // clock and simulations — throughput counts them).
                    let sims: u64 = cell.runs.iter().map(|r| r.simulations).sum();
                    let wall: Duration = cell.runs.iter().map(|r| r.wall_time).sum();
                    report.push(BenchRecord::new(
                        format!("{method}/{}", framework.name()),
                        *name,
                        engine.to_string(),
                        seeds as usize,
                        sims,
                        wall,
                    ));
                }
            }
        }
        write_report(&report);
    }
}
