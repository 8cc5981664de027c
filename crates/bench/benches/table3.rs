//! Criterion bench regenerating a scaled-down **Table III** comparison:
//! the cost of a GLOVA campaign on the DRAM core with and without each
//! proposed component (corner verification for speed). The full ablation
//! table is produced by the `table3` binary.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use glova::optimizer::{Framework, GlovaConfig, GlovaOptimizer};
use glova_circuits::{Circuit, DramCoreSense};
use glova_variation::config::VerificationMethod;
use std::sync::Arc;

fn bench_ablations(c: &mut Criterion) {
    let circuit: Arc<dyn Circuit> = Arc::new(DramCoreSense::new());
    let mut group = c.benchmark_group("table3_dram_corner");
    group.sample_size(10);

    let variants = [
        ("proposed", Framework::GLOVA),
        (
            "without_ec",
            Framework::Glova { ensemble_critic: false, mu_sigma: true, reordering: true },
        ),
        (
            "without_mu_sigma",
            Framework::Glova { ensemble_critic: true, mu_sigma: false, reordering: true },
        ),
        (
            "without_sr",
            Framework::Glova { ensemble_critic: true, mu_sigma: true, reordering: false },
        ),
    ];
    for (name, framework) in variants {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let config = GlovaConfig {
                        framework,
                        max_iterations: 120,
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

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
