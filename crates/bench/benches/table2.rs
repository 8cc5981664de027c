//! Criterion bench regenerating a scaled-down **Table II** cell per
//! framework: one full sizing campaign on the StrongARM latch under
//! corner verification. The full table is produced by the `table2` binary;
//! this bench tracks the end-to-end cost of a campaign per framework.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use glova::optimizer::{Framework, GlovaConfig, GlovaOptimizer};
use glova_circuits::{Circuit, StrongArmLatch};
use glova_variation::config::VerificationMethod;
use std::sync::Arc;

fn bench_table2_cell(c: &mut Criterion) {
    let circuit: Arc<dyn Circuit> = Arc::new(StrongArmLatch::new());
    let mut group = c.benchmark_group("table2_sal_corner");
    group.sample_size(10);

    for (name, framework, max_iterations) in [
        ("glova", Framework::GLOVA, 100),
        ("pvtsizing", Framework::PvtSizing, 100),
        ("robustanalog", Framework::RobustAnalog, 200),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let config = GlovaConfig {
                        framework,
                        max_iterations,
                        ..GlovaConfig::paper(VerificationMethod::Corner)
                    };
                    GlovaOptimizer::new(circuit.clone(), config)
                },
                |mut opt| opt.run(1),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table2_cell);
criterion_main!(benches);
