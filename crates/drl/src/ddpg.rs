//! Deep Deterministic Policy Gradient (Lillicrap et al., 2015) — the
//! algorithm DeepPower's top-level agent uses (§4.3, §4.5, Algorithm 2).
//!
//! Four networks: actor `π_θ`, critic `Q_w`, and slow-moving target copies
//! `π_θ'`, `Q_w'` updated by Polyak averaging. The critic regresses the
//! one-step bootstrap target `y = r + γ·Q_w'(s', π_θ'(s'))`; the actor
//! ascends `Q_w(s, π_θ(s))` via the chain rule through the critic's action
//! input (`dQ/da`, supplied by [`Critic::backward`]).

use crate::actor::{ActorTape, TwoHeadActor};
use crate::critic::{Critic, CriticTape};
use crate::noise::{clamp_action, GaussianNoise};
use crate::replay::{ReplayBuffer, Transition};
use deeppower_nn::{mse_loss, Adam, AdamConfig, Matrix, Params};
use deeppower_telemetry::Profiler;
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};

/// DDPG hyper-parameters. Defaults follow the paper where it is explicit
/// (noise `N(0.3, 1)`, batch 64) and the DDPG paper elsewhere.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DdpgConfig {
    pub state_dim: usize,
    pub action_dim: usize,
    /// Discount factor γ.
    pub gamma: f32,
    /// Polyak coefficient τ for the target-network soft update.
    pub tau: f32,
    pub actor_lr: f32,
    pub critic_lr: f32,
    pub batch_size: usize,
    pub replay_capacity: usize,
    /// Exploration noise added to actions during training (§4.6).
    pub noise_mu: f32,
    pub noise_sigma: f32,
    /// Steps of uniform-random actions before the policy takes over
    /// (Algorithm 2's WARMUP).
    pub warmup: usize,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
    /// Multiplicative decay applied to the exploration noise sigma after
    /// every update (1.0 = the paper's constant noise).
    pub noise_decay: f32,
    /// Floor under the decayed sigma — exploration never fully dies.
    pub noise_sigma_min: f32,
    pub seed: u64,
    /// Fault-injection knob: corrupt the bootstrap targets of update
    /// number `inject_nan_update` (1-based) with NaN to exercise the
    /// divergence-rollback path. `0` disables. Test-only; excluded from
    /// serialized checkpoints.
    #[serde(skip)]
    pub inject_nan_update: u64,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        Self {
            state_dim: 8,
            action_dim: 2,
            gamma: 0.95,
            tau: 0.005,
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            batch_size: 64,
            replay_capacity: 100_000,
            noise_mu: 0.3,
            noise_sigma: 1.0,
            warmup: 64,
            grad_clip: 5.0,
            noise_decay: 1.0,
            noise_sigma_min: 0.05,
            seed: 0,
            inject_nan_update: 0,
        }
    }
}

/// Losses and diagnostics from one [`Ddpg::update`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateStats {
    pub critic_loss: f32,
    /// Mean `Q(s, π(s))` over the batch — the quantity the actor maximizes.
    pub actor_q: f32,
    /// Global L2 gradient norms *before* clipping: a norm persistently at
    /// `grad_clip` means the clip is active; an exploding norm is the
    /// classic DDPG divergence signal.
    pub actor_grad_norm: f32,
    pub critic_grad_norm: f32,
    /// The update produced a non-finite loss, Q-value, gradient norm or
    /// weight and was rolled back to the last-good network snapshot.
    pub diverged: bool,
}

/// The DDPG agent.
pub struct Ddpg {
    pub cfg: DdpgConfig,
    pub actor: TwoHeadActor,
    pub critic: Critic,
    actor_target: TwoHeadActor,
    critic_target: Critic,
    actor_opt: Adam,
    critic_opt: Adam,
    pub replay: ReplayBuffer,
    noise: GaussianNoise,
    rng: StdRng,
    updates: u64,
    /// The sampled mini-batch, its bootstrap targets and the loss
    /// gradient `d_q`, reshaped on first use and reused by every update.
    states: Matrix,
    actions: Matrix,
    next_states: Matrix,
    targets: Matrix,
    d_q: Matrix,
    /// The single state of [`Ddpg::act_explore`], as a one-row batch.
    state_row: Matrix,
    /// Buffers of every actor and critic pass; each target network
    /// shares its online network's tape, since their passes never
    /// overlap.
    actor_tape: ActorTape,
    critic_tape: CriticTape,
    /// Last known-finite `(actor, critic)` weights, refreshed after every
    /// finite update; the rollback target when an update diverges.
    last_good: (Vec<f32>, Vec<f32>),
    rollbacks: u64,
    /// Span profiler for `update` stages (`ddpg.*`); disabled by default
    /// so every span call is one branch.
    prof: Profiler,
}

impl Ddpg {
    pub fn new(cfg: DdpgConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let actor = TwoHeadActor::paper_default(&mut rng, cfg.state_dim, cfg.action_dim);
        let critic = Critic::paper_default(&mut rng, cfg.state_dim, cfg.action_dim);
        let actor_target = actor.clone();
        let critic_target = critic.clone();
        let actor_opt = Adam::new(
            AdamConfig {
                lr: cfg.actor_lr,
                ..Default::default()
            },
            &actor,
        );
        let critic_opt = Adam::new(
            AdamConfig {
                lr: cfg.critic_lr,
                ..Default::default()
            },
            &critic,
        );
        let last_good = (actor.snapshot(), critic.snapshot());
        Self {
            noise: GaussianNoise::new(cfg.noise_mu, cfg.noise_sigma),
            replay: ReplayBuffer::new(cfg.replay_capacity),
            actor,
            critic,
            actor_target,
            critic_target,
            actor_opt,
            critic_opt,
            rng,
            updates: 0,
            states: Matrix::default(),
            actions: Matrix::default(),
            next_states: Matrix::default(),
            targets: Matrix::default(),
            d_q: Matrix::default(),
            state_row: Matrix::default(),
            actor_tape: ActorTape::default(),
            critic_tape: CriticTape::default(),
            last_good,
            rollbacks: 0,
            prof: Profiler::disabled(),
            cfg,
        }
    }

    /// Attach a span [`Profiler`]: `update` stages then open `ddpg.*`
    /// spans (sample / target / critic / actor / soft-update).
    /// Profiling never touches the learning math.
    pub fn set_profiler(&mut self, prof: &Profiler) {
        self.prof = prof.clone();
    }

    /// Deterministic (evaluation) action — what runs after training.
    pub fn act(&self, state: &[f32]) -> Vec<f32> {
        self.actor.act(state)
    }

    /// Deterministic actions for the selected `rows` of a stacked
    /// `N × state_dim` state matrix, in one batched pass: row `k` of the
    /// result equals [`Ddpg::act`] on `states.row(rows[k])` exactly. A
    /// heterogeneous fleet batches only the nodes sharing this policy's
    /// profile this way. The agent's own buffers carry the pass, so it
    /// allocates nothing once they have seen the batch size.
    pub fn act_batch_rows(&mut self, states: &Matrix, rows: &[usize]) -> &Matrix {
        self.actor
            .act_batch_rows(states, rows, &mut self.actor_tape)
    }

    /// Training action: before `warmup` transitions have been observed a
    /// uniform-random action is returned (Algorithm 2 line 7), afterwards
    /// the actor output plus Gaussian noise, clamped to `[0, 1]`.
    pub fn act_explore(&mut self, state: &[f32]) -> Vec<f32> {
        let mut a = if (self.replay.total_pushed() as usize) < self.cfg.warmup {
            (0..self.cfg.action_dim)
                .map(|_| rand::Rng::random_range(&mut self.rng, 0.0..1.0))
                .collect()
        } else {
            self.state_row.reshape(1, state.len());
            self.state_row.set_row(0, state);
            let mut a = self
                .actor
                .forward(&self.state_row, &mut self.actor_tape)
                .as_slice()
                .to_vec();
            self.noise.perturb(&mut self.rng, &mut a);
            a
        };
        clamp_action(&mut a, 0.0, 1.0);
        a
    }

    /// Store a transition in the replay pool. Returns `false` when the
    /// pool rejected it as non-finite (a NaN or infinity anywhere in the
    /// state, action, reward or next state).
    pub fn observe(&mut self, t: Transition) -> bool {
        debug_assert_eq!(t.state.len(), self.cfg.state_dim);
        debug_assert_eq!(t.action.len(), self.cfg.action_dim);
        self.replay.push(t)
    }

    /// Whether enough experience has accumulated to train.
    pub fn ready(&self) -> bool {
        self.replay.len() >= self.cfg.batch_size
            && self.replay.total_pushed() as usize >= self.cfg.warmup
    }

    /// Diverged updates rolled back to the last-good snapshot.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// One gradient step on a sampled mini-batch (Algorithm 2 lines 14–18):
    /// critic MSE regression to the bootstrap target, actor ascent on
    /// `Q(s, π(s))`, then soft target updates.
    pub fn update(&mut self) -> UpdateStats {
        assert!(self.ready(), "update called before replay warm-up");
        let n = self.cfg.batch_size;

        // Gather the mini-batch straight out of the replay pool into the
        // reusable batch matrices — no transition clones.
        let sp = self.prof.span("ddpg.sample");
        self.states.reshape(n, self.cfg.state_dim);
        self.actions.reshape(n, self.cfg.action_dim);
        self.next_states.reshape(n, self.cfg.state_dim);
        self.targets.reshape(n, 1);
        let sampled = self.replay.sample(&mut self.rng, n);
        for (i, t) in sampled.clone().enumerate() {
            self.states.set_row(i, &t.state);
            self.actions.set_row(i, &t.action);
            self.next_states.set_row(i, &t.next_state);
        }
        drop(sp);

        // Bootstrap target y = r + γ (1 - done) Q'(s', π'(s')).
        let sp = self.prof.span("ddpg.target");
        let next_actions = self
            .actor_target
            .forward(&self.next_states, &mut self.actor_tape);
        let q_next =
            self.critic_target
                .forward(&self.next_states, next_actions, &mut self.critic_tape);
        for (i, t) in sampled.enumerate() {
            let cont = if t.done { 0.0 } else { 1.0 };
            self.targets
                .set(i, 0, t.reward + self.cfg.gamma * cont * q_next.get(i, 0));
        }
        if self.cfg.inject_nan_update != 0 && self.updates + 1 == self.cfg.inject_nan_update {
            self.targets.as_mut_slice().fill(f32::NAN);
        }
        drop(sp);

        // Critic step.
        let sp = self.prof.span("ddpg.critic");
        self.critic.zero_grad();
        let q = self
            .critic
            .forward(&self.states, &self.actions, &mut self.critic_tape);
        let critic_loss = mse_loss(q, &self.targets, &mut self.d_q);
        self.critic.backward(&self.d_q, &mut self.critic_tape);
        let critic_grad_norm = self.critic.grad_norm();
        if self.cfg.grad_clip > 0.0 {
            self.critic.clip_grad_norm(self.cfg.grad_clip);
        }
        self.critic_opt.step(&mut self.critic);
        drop(sp);

        let sp = self.prof.span("ddpg.actor");
        // Actor step: maximize mean Q(s, π(s)) ⇒ descend on its negation.
        // The critic accumulates gradients here too, but they are zeroed at
        // the start of the next critic step, so they never reach its
        // optimizer.
        self.actor.zero_grad();
        self.critic.zero_grad();
        let pred_actions = self.actor.forward(&self.states, &mut self.actor_tape);
        let q_pi = self
            .critic
            .forward(&self.states, pred_actions, &mut self.critic_tape);
        let actor_q = q_pi.mean();
        self.d_q.reshape(n, 1);
        self.d_q.as_mut_slice().fill(-1.0 / n as f32);
        let d_actions = self.critic.backward(&self.d_q, &mut self.critic_tape);
        self.actor.backward(d_actions, &mut self.actor_tape);
        let actor_grad_norm = self.actor.grad_norm();
        if self.cfg.grad_clip > 0.0 {
            self.actor.clip_grad_norm(self.cfg.grad_clip);
        }
        self.actor_opt.step(&mut self.actor);
        drop(sp);

        // Divergence check *before* the target networks absorb the new
        // weights: a non-finite loss, Q-value, gradient norm or weight
        // means this update poisoned the networks. Roll everything back
        // to the last-good snapshot (the optimizers' moment estimates
        // are poisoned too, so they are rebuilt from scratch) rather
        // than letting NaNs propagate into the targets and the policy.
        let finite = critic_loss.is_finite()
            && actor_q.is_finite()
            && actor_grad_norm.is_finite()
            && critic_grad_norm.is_finite()
            && self.actor.all_finite()
            && self.critic.all_finite();
        self.updates += 1;
        if !finite {
            let (good_actor, good_critic) = &self.last_good;
            self.actor.load_snapshot(good_actor);
            self.actor_target.load_snapshot(good_actor);
            self.critic.load_snapshot(good_critic);
            self.critic_target.load_snapshot(good_critic);
            self.actor_opt = Adam::new(
                AdamConfig {
                    lr: self.cfg.actor_lr,
                    ..Default::default()
                },
                &self.actor,
            );
            self.critic_opt = Adam::new(
                AdamConfig {
                    lr: self.cfg.critic_lr,
                    ..Default::default()
                },
                &self.critic,
            );
            self.rollbacks += 1;
            return UpdateStats {
                critic_loss,
                actor_q,
                actor_grad_norm,
                critic_grad_norm,
                diverged: true,
            };
        }

        // Soft target updates.
        let sp = self.prof.span("ddpg.soft_update");
        let (good_actor, good_critic) = &mut self.last_good;
        self.actor.snapshot_into(good_actor);
        self.critic.snapshot_into(good_critic);
        self.actor_target.soft_update_from(good_actor, self.cfg.tau);
        self.critic_target
            .soft_update_from(good_critic, self.cfg.tau);
        drop(sp);

        self.noise.sigma = (self.noise.sigma * self.cfg.noise_decay).max(self.cfg.noise_sigma_min);
        UpdateStats {
            critic_loss,
            actor_q,
            actor_grad_norm,
            critic_grad_norm,
            diverged: false,
        }
    }

    /// Flat weight snapshot of the actor (checkpointing the learned policy).
    pub fn actor_snapshot(&self) -> Vec<f32> {
        self.actor.snapshot()
    }

    /// Restore actor weights (and sync its target copy).
    pub fn load_actor_snapshot(&mut self, flat: &[f32]) {
        self.actor.load_snapshot(flat);
        self.actor_target.load_snapshot(flat);
    }

    /// Flat weight snapshot of the critic (checkpointed alongside the
    /// actor so introspection tools can query the trained Q-function).
    pub fn critic_snapshot(&self) -> Vec<f32> {
        self.critic.snapshot()
    }

    /// Restore critic weights (and sync its target copy).
    pub fn load_critic_snapshot(&mut self, flat: &[f32]) {
        self.critic.load_snapshot(flat);
        self.critic_target.load_snapshot(flat);
    }

    /// `Q_w(state, action)` under the current critic — scalar value of
    /// one state–action pair, for policy introspection.
    pub fn q_value(&self, state: &[f32], action: &[f32]) -> f32 {
        self.critic.q_value(state, action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-dimensional continuous bandit: reward peaks at a = (0.8, 0.2)
    /// regardless of state. DDPG should steer the deterministic policy
    /// toward that optimum.
    #[test]
    fn ddpg_solves_continuous_bandit() {
        let cfg = DdpgConfig {
            state_dim: 3,
            action_dim: 2,
            gamma: 0.0, // bandit: no bootstrapping needed
            warmup: 128,
            batch_size: 32,
            actor_lr: 5e-3,
            critic_lr: 5e-3,
            noise_mu: 0.0,
            noise_sigma: 0.3,
            seed: 7,
            ..Default::default()
        };
        let mut agent = Ddpg::new(cfg);
        let state = vec![0.1, -0.2, 0.4];
        for _ in 0..2500 {
            let a = agent.act_explore(&state);
            let r = 1.0 - (a[0] - 0.8).powi(2) - (a[1] - 0.2).powi(2);
            agent.observe(Transition {
                state: state.clone(),
                action: a,
                reward: r,
                next_state: state.clone(),
                done: true,
            });
            if agent.ready() {
                agent.update();
            }
        }
        let a = agent.act(&state);
        assert!(
            (a[0] - 0.8).abs() < 0.2 && (a[1] - 0.2).abs() < 0.2,
            "policy did not converge: {a:?}"
        );
    }

    #[test]
    fn warmup_actions_are_random_and_bounded() {
        let mut agent = Ddpg::new(DdpgConfig {
            warmup: 100,
            seed: 1,
            ..Default::default()
        });
        let s = vec![0.0; 8];
        let a1 = agent.act_explore(&s);
        let a2 = agent.act_explore(&s);
        assert_ne!(a1, a2, "warm-up actions should vary");
        for a in [&a1, &a2] {
            assert!(a.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn explore_actions_clamped_after_warmup() {
        let mut agent = Ddpg::new(DdpgConfig {
            warmup: 0,
            noise_mu: 5.0, // force saturation
            noise_sigma: 0.0,
            ..Default::default()
        });
        let a = agent.act_explore(&[0.0; 8]);
        assert!(a.iter().all(|&x| x == 1.0), "{a:?}");
    }

    #[test]
    fn update_before_warmup_panics() {
        let mut agent = Ddpg::new(DdpgConfig {
            warmup: 10,
            ..Default::default()
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            agent.update();
        }));
        assert!(result.is_err());
    }

    #[test]
    fn critic_loss_decreases_on_fixed_batch_distribution() {
        let mut agent = Ddpg::new(DdpgConfig {
            state_dim: 2,
            action_dim: 2,
            warmup: 0,
            batch_size: 32,
            seed: 3,
            gamma: 0.0,
            ..Default::default()
        });
        // Deterministic reward structure: r = a0 - a1.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..256 {
            let a = vec![
                rand::Rng::random_range(&mut rng, 0.0..1.0),
                rand::Rng::random_range(&mut rng, 0.0..1.0),
            ];
            agent.observe(Transition {
                state: vec![0.5, 0.5],
                action: a.clone(),
                reward: a[0] - a[1],
                next_state: vec![0.5, 0.5],
                done: true,
            });
        }
        let first: f32 = (0..5).map(|_| agent.update().critic_loss).sum::<f32>() / 5.0;
        for _ in 0..200 {
            agent.update();
        }
        let last: f32 = (0..5).map(|_| agent.update().critic_loss).sum::<f32>() / 5.0;
        assert!(last < first, "critic loss did not fall: {first} -> {last}");
    }

    #[test]
    fn profiled_update_is_bit_identical_and_captures_stage_spans() {
        let cfg = DdpgConfig {
            state_dim: 2,
            action_dim: 2,
            warmup: 0,
            batch_size: 16,
            seed: 11,
            ..Default::default()
        };
        let fill = |agent: &mut Ddpg| {
            let mut rng = StdRng::seed_from_u64(9);
            for _ in 0..64 {
                let a = vec![
                    rand::Rng::random_range(&mut rng, 0.0..1.0),
                    rand::Rng::random_range(&mut rng, 0.0..1.0),
                ];
                agent.observe(Transition {
                    state: vec![0.5, 0.5],
                    action: a.clone(),
                    reward: a[0] - a[1],
                    next_state: vec![0.5, 0.5],
                    done: true,
                });
            }
        };
        let mut plain = Ddpg::new(cfg);
        fill(&mut plain);
        let mut profiled = Ddpg::new(cfg);
        fill(&mut profiled);
        let prof = deeppower_telemetry::Profiler::enabled();
        profiled.set_profiler(&prof);

        for _ in 0..10 {
            plain.update();
            profiled.update();
        }
        // Profiling must not perturb the learning math.
        let (pa, qa) = (plain.actor_snapshot(), profiled.actor_snapshot());
        assert_eq!(pa.len(), qa.len());
        assert!(pa.iter().zip(&qa).all(|(a, b)| a.to_bits() == b.to_bits()));
        let (pc, qc) = (plain.critic_snapshot(), profiled.critic_snapshot());
        assert!(pc.iter().zip(&qc).all(|(a, b)| a.to_bits() == b.to_bits()));

        let rows = prof.phase_table();
        for stage in [
            "ddpg.sample",
            "ddpg.target",
            "ddpg.critic",
            "ddpg.actor",
            "ddpg.soft_update",
        ] {
            let row = rows.iter().find(|r| r.name == stage);
            assert_eq!(row.map_or(0, |r| r.count), 10, "missing spans for {stage}");
        }
    }

    #[test]
    fn critic_snapshot_round_trips_q_values() {
        let cfg = DdpgConfig {
            state_dim: 2,
            action_dim: 2,
            warmup: 0,
            batch_size: 16,
            seed: 4,
            ..Default::default()
        };
        let mut trained = Ddpg::new(cfg);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..64 {
            let a = vec![
                rand::Rng::random_range(&mut rng, 0.0..1.0),
                rand::Rng::random_range(&mut rng, 0.0..1.0),
            ];
            trained.observe(Transition {
                state: vec![0.5, 0.5],
                action: a.clone(),
                reward: a[0] - a[1],
                next_state: vec![0.5, 0.5],
                done: true,
            });
        }
        for _ in 0..20 {
            trained.update();
        }
        let mut fresh = Ddpg::new(cfg);
        let (s, a) = ([0.3f32, 0.7], [0.6f32, 0.1]);
        assert_ne!(
            trained.q_value(&s, &a).to_bits(),
            fresh.q_value(&s, &a).to_bits(),
            "training should move the critic"
        );
        fresh.load_critic_snapshot(&trained.critic_snapshot());
        assert_eq!(
            trained.q_value(&s, &a).to_bits(),
            fresh.q_value(&s, &a).to_bits()
        );
    }

    #[test]
    fn update_stats_expose_finite_grad_norms() {
        let mut agent = Ddpg::new(DdpgConfig {
            state_dim: 2,
            action_dim: 2,
            warmup: 0,
            batch_size: 16,
            seed: 11,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..64 {
            let a = vec![
                rand::Rng::random_range(&mut rng, 0.0..1.0),
                rand::Rng::random_range(&mut rng, 0.0..1.0),
            ];
            agent.observe(Transition {
                state: vec![0.1, 0.9],
                action: a.clone(),
                reward: a[0],
                next_state: vec![0.1, 0.9],
                done: true,
            });
        }
        let stats = agent.update();
        assert!(stats.critic_grad_norm.is_finite() && stats.critic_grad_norm > 0.0);
        assert!(stats.actor_grad_norm.is_finite() && stats.actor_grad_norm > 0.0);
        assert!(stats.critic_loss.is_finite());
    }

    #[test]
    fn injected_nan_update_rolls_back_to_last_good_weights() {
        let mut agent = Ddpg::new(DdpgConfig {
            state_dim: 2,
            action_dim: 2,
            warmup: 0,
            batch_size: 16,
            seed: 13,
            inject_nan_update: 3,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..64 {
            let a = vec![
                rand::Rng::random_range(&mut rng, 0.0..1.0),
                rand::Rng::random_range(&mut rng, 0.0..1.0),
            ];
            agent.observe(Transition {
                state: vec![0.3, 0.7],
                action: a.clone(),
                reward: a[0] - a[1],
                next_state: vec![0.3, 0.7],
                done: true,
            });
        }
        agent.update();
        agent.update();
        let before = agent.actor_snapshot();
        let stats = agent.update(); // the corrupted one
        assert!(stats.diverged, "injected NaN batch not flagged");
        assert_eq!(agent.rollbacks(), 1);
        // Rolled back to the weights of update 2, all finite.
        let after = agent.actor_snapshot();
        assert_eq!(before, after, "rollback did not restore last-good actor");
        // Training continues normally past the fault.
        for _ in 0..5 {
            let s = agent.update();
            assert!(!s.diverged);
            assert!(s.critic_loss.is_finite());
        }
        assert!(agent.act(&[0.3, 0.7]).iter().all(|x| x.is_finite()));
    }

    #[test]
    fn observe_rejects_non_finite_transition() {
        let mut agent = Ddpg::new(DdpgConfig {
            state_dim: 2,
            action_dim: 2,
            ..Default::default()
        });
        let ok = agent.observe(Transition {
            state: vec![0.0, 1.0],
            action: vec![0.5, 0.5],
            reward: f32::NAN,
            next_state: vec![0.0, 1.0],
            done: false,
        });
        assert!(!ok);
        assert_eq!(agent.replay.len(), 0);
    }

    #[test]
    fn actor_snapshot_roundtrip_changes_then_restores_policy() {
        let mut agent = Ddpg::new(DdpgConfig {
            seed: 9,
            ..Default::default()
        });
        let s = vec![0.2; 8];
        let before = agent.act(&s);
        let snap = agent.actor_snapshot();
        // Corrupt weights.
        let zeros = vec![0.0; snap.len()];
        agent.load_actor_snapshot(&zeros);
        assert_ne!(agent.act(&s), before);
        agent.load_actor_snapshot(&snap);
        let after = agent.act(&s);
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-6);
        }
    }
}
