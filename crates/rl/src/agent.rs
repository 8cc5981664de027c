//! The risk-sensitive agent — Algorithm 1 of the paper.

use crate::critic::{CriticScratch, EnsembleCritic};
use crate::noise::GaussianNoise;
use crate::replay::WorstCaseReplayBuffer;
use glova_nn::{Activation, Adam, BatchWorkspace, Gradients, Mlp, MlpConfig};
use rand::Rng;

/// Reward target for the actor loss `MSE(0.2, Q(A(x̂)))` (paper Eq. 4).
pub const SATISFIED_REWARD: f64 = 0.2;

/// Agent hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentConfig {
    /// Design-space dimension `p` — the actor's *action* width.
    pub dim: usize,
    /// Width of the goal vector appended to every observation (PPAAS-style
    /// goal conditioning; 0 disables it). With `goal_dim > 0` the actor and
    /// critic take `dim + goal_dim` inputs — the design followed by the
    /// spec-target encoding — while the actor still outputs `dim` values,
    /// so one trained agent serves a family of spec targets.
    pub goal_dim: usize,
    /// Number of critic base models (1 disables the ensemble — the
    /// "w/o EC" ablation of Table III).
    pub ensemble_size: usize,
    /// Risk parameter β₁ of Eq. 6 (paper: −3).
    pub beta1: f64,
    /// Training batch size (paper: 10).
    pub batch_size: usize,
    /// Hidden widths of both networks (4-layer nets per the paper).
    pub hidden: Vec<usize>,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Gradient steps per [`RiskSensitiveAgent::train_step`] call.
    pub updates_per_step: usize,
    /// Constant reward offset in Algorithm 1's losses.
    pub bias: f64,
    /// Weight of the DDPG-style critic-through gradient in the actor loss.
    pub ddpg_weight: f64,
    /// Weight of the proximal behaviour-cloning term pulling `A(x̂)`
    /// toward the incumbent target (see
    /// [`RiskSensitiveAgent::set_proximal_target`]). Stabilizes the actor
    /// against critic-extrapolation artifacts early in training.
    pub proximal_weight: f64,
}

impl AgentConfig {
    /// Paper-default configuration for a `dim`-dimensional problem.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            goal_dim: 0,
            ensemble_size: 5,
            beta1: -3.0,
            batch_size: 10,
            hidden: vec![64, 64, 64],
            actor_lr: 3e-4,
            critic_lr: 1e-3,
            updates_per_step: 8,
            bias: 0.0,
            ddpg_weight: 0.2,
            proximal_weight: 1.0,
        }
    }

    /// Disables the ensemble (single base model, risk-neutral) — the
    /// Table III "w/o EC" ablation.
    pub fn without_ensemble(mut self) -> Self {
        self.ensemble_size = 1;
        self
    }

    /// Enables goal conditioning with a `goal_dim`-wide spec-target
    /// encoding appended to every observation (builder style).
    pub fn with_goal_dim(mut self, goal_dim: usize) -> Self {
        self.goal_dim = goal_dim;
        self
    }

    /// Observation width `dim + goal_dim` — what [`RiskSensitiveAgent::observe`]
    /// and [`RiskSensitiveAgent::propose`] expect.
    pub fn obs_dim(&self) -> usize {
        self.dim + self.goal_dim
    }
}

/// The risk-sensitive RL agent: actor, ensemble critic, worst-case replay
/// buffer and exploration noise.
#[derive(Debug, Clone)]
pub struct RiskSensitiveAgent {
    config: AgentConfig,
    actor: Mlp,
    actor_opt: Adam,
    critic: EnsembleCritic,
    buffer: WorstCaseReplayBuffer,
    noise: GaussianNoise,
    proximal_target: Option<Vec<f64>>,
}

impl RiskSensitiveAgent {
    /// Creates an agent with freshly initialized networks.
    ///
    /// With `config.goal_dim > 0` both networks take the full
    /// `dim + goal_dim` observation (design ++ goal encoding); the actor's
    /// output stays `dim`-wide.
    ///
    /// # Panics
    ///
    /// Panics if `config.batch_size == 0`, if `config.ensemble_size == 0`
    /// or if a hidden width is zero.
    pub fn new<R: Rng + ?Sized>(config: AgentConfig, rng: &mut R) -> Self {
        assert!(config.batch_size >= 1, "batch_size must be at least 1");
        let actor_cfg =
            MlpConfig::new(config.obs_dim(), &config.hidden, config.dim, Activation::Relu)
                .with_output_activation(Activation::Sigmoid);
        let actor = Mlp::new(&actor_cfg, rng);
        let critic = EnsembleCritic::new(
            config.obs_dim(),
            config.ensemble_size,
            &config.hidden,
            config.beta1,
            config.critic_lr,
            config.bias,
            rng,
        );
        Self {
            actor,
            actor_opt: Adam::new(config.actor_lr),
            critic,
            buffer: WorstCaseReplayBuffer::new(),
            noise: GaussianNoise::standard(),
            proximal_target: None,
            config,
        }
    }

    /// Restarts exploration at the given σ (stagnation recovery).
    pub fn reset_noise(&mut self, sigma: f64) {
        self.noise.reset(sigma);
    }

    /// Sets (or clears) the proximal behaviour-cloning target — typically
    /// the incumbent best design, refreshed every iteration.
    ///
    /// # Panics
    ///
    /// Panics if the target dimension is wrong.
    pub fn set_proximal_target(&mut self, target: Option<Vec<f64>>) {
        if let Some(t) = &target {
            assert_eq!(t.len(), self.config.dim, "target dimension mismatch");
        }
        self.proximal_target = target;
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// The critic (read access for reliability-bound tracing, Fig. 3).
    pub fn critic(&self) -> &EnsembleCritic {
        &self.critic
    }

    /// The replay buffer.
    pub fn buffer(&self) -> &WorstCaseReplayBuffer {
        &self.buffer
    }

    /// Stores an `(observation, worst-case reward)` pair (Algorithm 1's
    /// "store the data in B_worst").
    ///
    /// Without goal conditioning the observation is the design itself; with
    /// `goal_dim > 0` it is the design with the goal encoding appended
    /// (see [`AgentConfig::obs_dim`]).
    ///
    /// # Panics
    ///
    /// Panics if the observation dimension is wrong.
    pub fn observe(&mut self, observation: Vec<f64>, worst_reward: f64) {
        assert_eq!(observation.len(), self.config.obs_dim(), "observation dimension mismatch");
        self.buffer.push(observation, worst_reward);
    }

    /// Proposes the next design from the last observation:
    /// `A(x_last) + noise`, clamped to the unit cube. The returned action
    /// is always `dim`-wide (the goal suffix, if any, is input-only).
    pub fn propose<R: Rng + ?Sized>(&self, x_last: &[f64], rng: &mut R) -> Vec<f64> {
        assert_eq!(x_last.len(), self.config.obs_dim(), "observation dimension mismatch");
        let mut next = self.actor.forward(x_last);
        self.noise.perturb(&mut next, rng);
        next
    }

    /// Runs `updates_per_step` critic+actor gradient steps on replayed
    /// worst-case data, then decays the exploration noise.
    ///
    /// Each step trains a minibatch at a time: every critic base runs one
    /// forward and one backward over its batch, and the actor's batch is
    /// scored by one fused ensemble pass. The workspaces live for this
    /// call only. No-op when the buffer is empty.
    pub fn train_step<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.buffer.is_empty() {
            return;
        }
        let mut s = TrainScratch::new(&self.actor);
        let mut critic = CriticScratch::default();
        let dim = self.config.dim;
        for _ in 0..self.config.updates_per_step {
            // Critic: one independent batch per base model.
            let batches: Vec<Vec<(&[f64], f64)>> = (0..self.critic.ensemble_size())
                .map(|_| self.buffer.sample(self.config.batch_size, rng))
                .collect();
            self.critic.train_batches_in(&batches, &mut critic);

            // Actor: minimize MSE(0.2, Q(A(x̂))) (Algorithm 1) plus the
            // proximal cloning term toward the incumbent.
            let batch = self.buffer.sample(self.config.batch_size, rng);
            let b = batch.len();
            s.forward(&self.actor, &batch);
            // The critic scores each proposed action under the same goal
            // as its replayed observation; the goal suffix is a constant
            // input, so only the action rows of ∂Q/∂input flow back
            // through the actor.
            let critic_in = self.critic.input_mut(&mut critic, b);
            let (actions, goals) = critic_in.split_at_mut(dim * b);
            actions.copy_from_slice(s.ws.output());
            for (l, (x, _)) in batch.iter().enumerate() {
                for (row, &g) in goals.chunks_exact_mut(b).zip(&x[dim..]) {
                    row[l] = g;
                }
            }
            self.critic.score(&mut critic);
            let dl_dq = |q: f64| self.config.ddpg_weight * 2.0 * (q - SATISFIED_REWARD) / b as f64;
            s.grad_out.clear();
            for dq_da in critic.grad[..dim * b].chunks_exact(b) {
                s.grad_out.extend(dq_da.iter().zip(&critic.bound).map(|(g, &q)| dl_dq(q) * g));
            }
            if let Some(target) = &self.proximal_target {
                let actions = s.ws.output().chunks_exact(b);
                for ((g, a), t) in s.grad_out.chunks_exact_mut(b).zip(actions).zip(target) {
                    for (g, a) in g.iter_mut().zip(a) {
                        *g += self.config.proximal_weight * 2.0 * (a - t) / b as f64;
                    }
                }
            }
            s.step(&mut self.actor, &mut self.actor_opt);
        }
        self.noise.step();
    }

    /// The best stored observation by worst-case reward, if any.
    ///
    /// With goal conditioning the observation carries the goal suffix; the
    /// design part is the leading `config.dim` components.
    pub fn best_design(&self) -> Option<(&[f64], f64)> {
        self.buffer.best()
    }

    /// Warm-starts the actor by behaviour cloning: `steps` gradient steps
    /// of `‖A(x̂) − target‖²` over designs replayed from the buffer.
    ///
    /// A freshly initialized actor maps every input to its own arbitrary
    /// fixed point; cloning toward the incumbent best design puts the
    /// proposal distribution in a sane region before critic-driven updates
    /// take over. No-op when the buffer is empty.
    pub fn pretrain_actor_towards<R: Rng + ?Sized>(
        &mut self,
        target: &[f64],
        steps: usize,
        rng: &mut R,
    ) {
        assert_eq!(target.len(), self.config.dim, "target dimension mismatch");
        if self.buffer.is_empty() {
            return;
        }
        let mut s = TrainScratch::new(&self.actor);
        for _ in 0..steps {
            let batch = self.buffer.sample(self.config.batch_size, rng);
            let b = batch.len();
            s.forward(&self.actor, &batch);
            s.grad_out.clear();
            for (action, t) in s.ws.output().chunks_exact(b).zip(target) {
                s.grad_out.extend(action.iter().map(|a| 2.0 * (a - t) / b as f64));
            }
            s.step(&mut self.actor, &mut self.actor_opt);
        }
    }
}

/// The actor's minibatch buffers for one training call.
struct TrainScratch {
    ws: BatchWorkspace,
    /// `∂L/∂action` (`dim × batch`, feature-major).
    grad_out: Vec<f64>,
    grads: Gradients,
}

impl TrainScratch {
    fn new(actor: &Mlp) -> Self {
        Self {
            ws: BatchWorkspace::new(),
            grad_out: Vec::new(),
            grads: Gradients::zeros_like(actor),
        }
    }

    /// The actor's forward over the replayed observations of `batch`.
    fn forward(&mut self, actor: &Mlp, batch: &[(&[f64], f64)]) {
        self.ws.load(actor, batch.iter().map(|(x, _)| *x));
        actor.forward_batch(&mut self.ws);
    }

    /// Backward from `grad_out`, clipped to global norm 5, then one Adam
    /// step.
    fn step(&mut self, actor: &mut Mlp, opt: &mut Adam) {
        self.grads.clear();
        actor.backward_batch(&mut self.ws, &self.grad_out, &mut self.grads);
        self.grads.clip_global_norm(5.0);
        opt.step(actor, &self.grads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_stats::rng::seeded;

    /// Synthetic worst-case reward: feasible ball of radius 0.25 around a
    /// known optimum; outside the ball, negative distance margin.
    fn toy_reward(x: &[f64]) -> f64 {
        let optimum = [0.65, 0.35, 0.55];
        let dist: f64 = x.iter().zip(&optimum).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        if dist < 0.25 {
            SATISFIED_REWARD
        } else {
            -(dist - 0.25)
        }
    }

    fn config() -> AgentConfig {
        AgentConfig { hidden: vec![32, 32], updates_per_step: 4, ..AgentConfig::new(3) }
    }

    #[test]
    fn agent_improves_worst_case_reward() {
        let mut rng = seeded(11);
        let mut agent = RiskSensitiveAgent::new(config(), &mut rng);
        // Seed with mediocre random designs.
        let mut x = vec![0.1, 0.9, 0.1];
        let initial_reward = toy_reward(&x);
        agent.observe(x.clone(), initial_reward);
        let mut best = initial_reward;
        for _ in 0..60 {
            agent.train_step(&mut rng);
            let next = agent.propose(&x, &mut rng);
            let r = toy_reward(&next);
            agent.observe(next.clone(), r);
            best = best.max(r);
            x = next;
            if best >= SATISFIED_REWARD {
                break;
            }
        }
        assert!(best > initial_reward + 0.2, "agent failed to improve: {initial_reward} -> {best}");
    }

    #[test]
    fn proposals_live_in_unit_cube() {
        let mut rng = seeded(12);
        let mut agent = RiskSensitiveAgent::new(config(), &mut rng);
        agent.observe(vec![0.5, 0.5, 0.5], -0.1);
        agent.train_step(&mut rng);
        for _ in 0..20 {
            let p = agent.propose(&[0.2, 0.8, 0.5], &mut rng);
            assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn train_step_on_empty_buffer_is_noop() {
        let mut rng = seeded(13);
        let mut agent = RiskSensitiveAgent::new(config(), &mut rng);
        agent.train_step(&mut rng); // must not panic
        assert!(agent.best_design().is_none());
    }

    #[test]
    fn risk_sensitive_critic_is_conservative_on_sparse_data() {
        // With few observations, the ensemble bound must sit below the
        // ensemble mean at unexplored points (risk avoidance).
        let mut rng = seeded(14);
        let mut agent = RiskSensitiveAgent::new(config(), &mut rng);
        agent.observe(vec![0.6, 0.4, 0.5], 0.2);
        agent.observe(vec![0.2, 0.2, 0.2], -0.4);
        for _ in 0..10 {
            agent.train_step(&mut rng);
        }
        let unexplored = [0.95, 0.05, 0.95];
        let (mean, std) = agent.critic().predict_detail(&unexplored);
        assert!(std > 0.0);
        assert!(agent.critic().predict(&unexplored) < mean);
    }

    #[test]
    fn without_ensemble_ablation_is_risk_neutral() {
        let mut rng = seeded(15);
        let agent = RiskSensitiveAgent::new(config().without_ensemble(), &mut rng);
        let x = [0.3, 0.3, 0.3];
        let (mean, std) = agent.critic().predict_detail(&x);
        assert_eq!(std, 0.0);
        assert_eq!(agent.critic().predict(&x), mean);
    }

    #[test]
    fn goal_conditioned_agent_keeps_action_width() {
        let mut rng = seeded(21);
        let cfg = config().with_goal_dim(2);
        assert_eq!(cfg.obs_dim(), 5);
        let mut agent = RiskSensitiveAgent::new(cfg, &mut rng);
        // Observations carry the goal suffix; actions stay 3-wide.
        agent.observe(vec![0.2, 0.4, 0.6, 1.0, 0.8], -0.3);
        agent.observe(vec![0.6, 0.4, 0.5, 0.9, 1.1], 0.2);
        agent.set_proximal_target(Some(vec![0.6, 0.4, 0.5]));
        for _ in 0..5 {
            agent.train_step(&mut rng);
        }
        let action = agent.propose(&[0.6, 0.4, 0.5, 0.9, 1.1], &mut rng);
        assert_eq!(action.len(), 3);
        assert!(action.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn goal_suffix_changes_the_policy() {
        // The same design under two different goal encodings must map to
        // different proposals — the goal is a real input, not dead weight.
        let mut rng = seeded(22);
        let agent = RiskSensitiveAgent::new(config().with_goal_dim(1), &mut rng);
        let mut ra = seeded(23);
        let mut rb = seeded(23);
        let a = agent.propose(&[0.5, 0.5, 0.5, 0.8], &mut ra);
        let b = agent.propose(&[0.5, 0.5, 0.5, 1.2], &mut rb);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "observation dimension mismatch")]
    fn goal_conditioned_agent_rejects_bare_designs() {
        let mut rng = seeded(24);
        let mut agent = RiskSensitiveAgent::new(config().with_goal_dim(1), &mut rng);
        agent.observe(vec![0.5, 0.5, 0.5], 0.0);
    }

    /// Digest of a seeded training run: every proposal, then every actor
    /// and critic parameter after `pretrain_actor_towards(200)` and 20
    /// `train_step`s. A proximal target is set throughout, and with
    /// `goal_dim > 0` each observation carries a fixed goal suffix.
    fn training_digest(config: AgentConfig, seed: u64) -> u64 {
        let (dim, goal_dim) = (config.dim, config.goal_dim);
        let optimum: Vec<f64> = (0..dim).map(|d| 0.25 + 0.5 * (d % 3) as f64 / 2.0).collect();
        let reward = |x: &[f64]| -> f64 {
            let dist: f64 =
                x.iter().zip(&optimum).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            if dist < 0.1 * (dim as f64).sqrt() {
                SATISFIED_REWARD
            } else {
                -dist
            }
        };
        let goal: Vec<f64> = (0..goal_dim).map(|g| 0.9 + 0.1 * g as f64).collect();
        let obs = |x: &[f64]| -> Vec<f64> { x.iter().chain(&goal).copied().collect() };

        let mut rng = seeded(seed);
        let mut agent = RiskSensitiveAgent::new(config, &mut rng);
        let mut digest = glova_stats::hash::Fnv1a::new();
        for _ in 0..6 {
            let x: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
            agent.observe(obs(&x), reward(&x));
        }
        let best = agent.best_design().map(|(x, _)| x[..dim].to_vec()).unwrap();
        agent.set_proximal_target(Some(best.clone()));
        agent.pretrain_actor_towards(&best, 200, &mut rng);
        let mut last = obs(&best);
        for _ in 0..20 {
            agent.train_step(&mut rng);
            let next = agent.propose(&last, &mut rng);
            digest.write_f64_slice(&next);
            agent.observe(obs(&next), reward(&next));
            let best = agent.best_design().map(|(x, _)| x[..dim].to_vec()).unwrap();
            agent.set_proximal_target(Some(best));
            last = obs(&next);
        }
        for net in std::iter::once(&agent.actor).chain(agent.critic.bases()) {
            for layer in net.layers() {
                let (w, b) = layer.params();
                digest.write_f64_slice(w);
                digest.write_f64_slice(b);
            }
        }
        digest.finish()
    }

    /// Golden digests of [`training_digest`], recorded with the
    /// one-sample-at-a-time forward and backward passes.
    const GOLDEN_PAPER_14: u64 = 0xe9c2_a574_bd16_1f24;
    const GOLDEN_QUICK_GOAL: u64 = 0xef21_9236_9d16_6fe5;

    #[test]
    fn golden_training_digest_paper_config() {
        let digest = training_digest(AgentConfig::new(14), 31);
        assert_eq!(digest, GOLDEN_PAPER_14, "digest {digest:016x}");
    }

    #[test]
    fn golden_training_digest_quick_goal_config() {
        // The campaign quick configuration: hidden [32, 32], 4 updates per
        // step, a 2-wide goal suffix.
        let config =
            AgentConfig { hidden: vec![32, 32], updates_per_step: 4, ..AgentConfig::new(6) }
                .with_goal_dim(2);
        let digest = training_digest(config, 32);
        assert_eq!(digest, GOLDEN_QUICK_GOAL, "digest {digest:016x}");
    }

    #[test]
    fn best_design_tracks_buffer() {
        let mut rng = seeded(16);
        let mut agent = RiskSensitiveAgent::new(config(), &mut rng);
        agent.observe(vec![0.1, 0.1, 0.1], -0.5);
        agent.observe(vec![0.6, 0.4, 0.5], 0.2);
        let (x, r) = agent.best_design().unwrap();
        assert_eq!(r, 0.2);
        assert_eq!(x, &[0.6, 0.4, 0.5]);
    }
}
