//! Component micro-benchmarks: the building blocks whose throughput
//! determines end-to-end experiment cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use glova_circuits::{Circuit, DramCoreSense, FloatingInverterAmp, StrongArmLatch};
use glova_nn::{Activation, Adam, BatchWorkspace, Gradients, Mlp, MlpConfig};
use glova_rl::{AgentConfig, EnsembleCritic, RiskSensitiveAgent};
use glova_stats::rng::seeded;
use glova_turbo::GaussianProcess;
use glova_variation::corner::PvtCorner;
use glova_variation::sampler::{MismatchSampler, MismatchVector, VarianceLayers};

fn bench_circuit_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_eval");
    let corner = PvtCorner::typical();
    let sal = StrongArmLatch::new();
    let x_sal = sal.reference_design();
    let h_sal = MismatchVector::nominal(sal.mismatch_domain(&x_sal).dim());
    group.bench_function("sal", |b| {
        b.iter(|| black_box(sal.evaluate(black_box(&x_sal), &corner, &h_sal)))
    });
    let fia = FloatingInverterAmp::new();
    let x_fia = fia.reference_design();
    let h_fia = MismatchVector::nominal(fia.mismatch_domain(&x_fia).dim());
    group.bench_function("fia", |b| {
        b.iter(|| black_box(fia.evaluate(black_box(&x_fia), &corner, &h_fia)))
    });
    let dram = DramCoreSense::new();
    let x_dram = dram.reference_design();
    let h_dram = MismatchVector::nominal(dram.mismatch_domain(&x_dram).dim());
    group.bench_function("dram", |b| {
        b.iter(|| black_box(dram.evaluate(black_box(&x_dram), &corner, &h_dram)))
    });
    group.finish();
}

fn bench_mismatch_sampling(c: &mut Criterion) {
    let sal = StrongArmLatch::new();
    let x = sal.reference_design();
    let sampler = MismatchSampler::new(sal.mismatch_domain(&x), VarianceLayers::GLOBAL_LOCAL);
    let mut rng = seeded(1);
    c.bench_function("sample_set_n3", |b| b.iter(|| black_box(sampler.sample_set(&mut rng, 3))));
    c.bench_function("sample_independent_n100", |b| {
        b.iter(|| black_box(sampler.sample_independent(&mut rng, 100)))
    });
}

fn bench_nn(c: &mut Criterion) {
    let mut rng = seeded(2);
    let net = Mlp::new(&MlpConfig::new(14, &[64, 64, 64], 14, Activation::Relu), &mut rng);
    let x = vec![0.5; 14];
    c.bench_function("mlp_forward_64x3", |b| b.iter(|| black_box(net.forward(&x))));
    // One paper-sized training minibatch: forward, backward, Adam step.
    let batch: Vec<Vec<f64>> =
        (0..10).map(|i| (0..14).map(|d| ((i * 14 + d) % 17) as f64 / 17.0).collect()).collect();
    let mut trainable = net.clone();
    let mut adam = Adam::new(1e-3);
    let mut ws = BatchWorkspace::new();
    let mut grads = Gradients::zeros_like(&trainable);
    c.bench_function("mlp_train_step_64x3", |b| {
        b.iter(|| {
            ws.load(&trainable, batch.iter().map(Vec::as_slice));
            trainable.forward_batch(&mut ws);
            let grad: Vec<f64> = ws.output().iter().map(|o| 2.0 * o / 10.0).collect();
            grads.clear();
            trainable.backward_batch(&mut ws, &grad, &mut grads);
            adam.step(&mut trainable, &grads);
        })
    });
}

/// A paper-configuration agent (`AgentConfig::new(14)`) with 40 replayed
/// designs and a proximal target.
fn paper_agent() -> (RiskSensitiveAgent, Vec<f64>, glova_stats::rng::Rng64) {
    let mut rng = seeded(5);
    let mut agent = RiskSensitiveAgent::new(AgentConfig::new(14), &mut rng);
    for i in 0..40 {
        let x: Vec<f64> = (0..14).map(|d| ((i * 7 + d * 3) % 19) as f64 / 18.0).collect();
        let reward = -x.iter().map(|v| (v - 0.4) * (v - 0.4)).sum::<f64>();
        agent.observe(x, reward);
    }
    let target = agent.best_design().map(|(x, _)| x.to_vec()).expect("designs observed");
    agent.set_proximal_target(Some(target.clone()));
    (agent, target, rng)
}

fn bench_agent(c: &mut Criterion) {
    let (mut agent, _, mut rng) = paper_agent();
    c.bench_function("agent_train_step_paper", |b| b.iter(|| agent.train_step(&mut rng)));
    let (mut agent, target, mut rng) = paper_agent();
    c.bench_function("agent_pretrain_200", |b| {
        b.iter(|| agent.pretrain_actor_towards(&target, 200, &mut rng))
    });
}

fn bench_critic(c: &mut Criterion) {
    let mut rng = seeded(3);
    let critic = EnsembleCritic::new(14, 5, &[64, 64, 64], -3.0, 1e-3, 0.0, &mut rng);
    let x = vec![0.5; 14];
    c.bench_function("ensemble_critic_predict", |b| b.iter(|| black_box(critic.predict(&x))));
    c.bench_function("ensemble_critic_input_grad", |b| {
        b.iter(|| black_box(critic.input_gradient(&x)))
    });
}

fn bench_gp(c: &mut Criterion) {
    let mut rng = seeded(4);
    let xs: Vec<Vec<f64>> =
        (0..60).map(|i| vec![(i as f64 / 59.0), ((i * 7 % 60) as f64 / 59.0)]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 0.3).powi(2) + x[1]).collect();
    c.bench_function("gp_fit_auto_60pts", |b| {
        b.iter(|| black_box(GaussianProcess::fit_auto(&xs, &ys, &mut rng)))
    });
    let gp = GaussianProcess::fit_auto(&xs, &ys, &mut rng);
    c.bench_function("gp_predict", |b| b.iter(|| black_box(gp.predict(&[0.4, 0.6]))));
}

criterion_group!(
    benches,
    bench_circuit_eval,
    bench_mismatch_sampling,
    bench_nn,
    bench_agent,
    bench_critic,
    bench_gp
);
criterion_main!(benches);
