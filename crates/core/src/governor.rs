//! The hierarchical control loop — the heart of DeepPower (§3.2, §4.1).
//!
//! "The top layer outputs an action in a longer interval, and trains the
//! neural network based on the state transition and reward function.
//! Meanwhile, the bottom layer selects a frequency for each CPU core in
//! shorter intervals, guided by the action of the top layer."
//!
//! [`DeepPowerGovernor`] plugs into the simulator's [`Governor`] hook at
//! `ShortTime` granularity. Every tick it runs Algorithm 1 (the thread
//! controller); every `LongTime` it additionally performs one DRL step:
//! observe the 8-dim state, compute the reward for the elapsed step, push
//! the transition into the replay pool, (in training mode) run a DDPG
//! update, and emit the next `(BaseFreq, ScalingCoef)` action.

use crate::config::DeepPowerConfig;
use crate::reward::{RewardCalculator, RewardTerms};
use crate::state::{StateObserver, STATE_DIM};
use crate::thread_controller::{ControllerParams, ThreadController};
use deeppower_drl::{Ddpg, Transition, UpdateStats};
use deeppower_simd_server::{FreqCommands, Governor, Nanos, ServerView};
use deeppower_telemetry::{event, Event, FaultKind, Recorder};
use serde::{Deserialize, Serialize};

/// Whether the agent explores and learns, or just executes its policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Train,
    Eval,
}

/// One DRL-step log entry — the raw material for Fig. 8's time series.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StepLog {
    /// Step end time.
    pub t: Nanos,
    /// The normalized 8-dim observation at the step boundary — the
    /// input the row's action was computed from (on the terminal row
    /// flushed by `on_run_end` it is the final observation, while the
    /// action columns keep the previous step's action: no new action is
    /// taken at episode end). Introspection tools replay decisions
    /// through the actor/critic from this.
    pub state: [f32; STATE_DIM],
    /// Arrivals during the step (the RPS curve).
    pub num_req: u64,
    /// Average socket power over the step, watts.
    pub power_w: f64,
    /// Action taken *for the next step*.
    pub base_freq: f32,
    pub scaling_coef: f32,
    /// Commanded admission threshold (1.0 — admit everything — for
    /// two-action agents).
    pub admit_frac: f32,
    /// Mean commanded core frequency at the step boundary, MHz.
    pub avg_freq_mhz: f64,
    pub queue_len: usize,
    /// Timeouts during the step.
    pub timeouts: u64,
    /// Reward granted for the elapsed step.
    pub reward: f64,
    pub(crate) terms: RewardTerms,
}

/// Hierarchical DeepPower governor. Borrows the DDPG agent so training
/// state persists across episodes.
pub struct DeepPowerGovernor<'a> {
    agent: &'a mut Ddpg,
    cfg: DeepPowerConfig,
    controller: ThreadController,
    observer: StateObserver,
    reward: RewardCalculator,
    mode: Mode,
    ticks_per_long: u64,
    tick_count: u64,
    /// `(state, action)` awaiting its outcome (next state + reward).
    pending: Option<([f32; STATE_DIM], Vec<f32>)>,
    /// When the currently-open DRL window started (`None` before the
    /// first step). Rewards and power telemetry are computed over the
    /// *actually elapsed* interval, not the nominal `long_time` — the
    /// two differ at the first step and at episode end.
    last_step_t: Option<Nanos>,
    /// Per-step telemetry (Fig. 8).
    pub log: Vec<StepLog>,
    // Counters for the log's per-step deltas.
    prev_arrived: u64,
    prev_timeouts: u64,
    prev_energy_uj: u64,
    /// DDPG updates performed through this governor.
    pub updates_done: u64,
    /// `false` after the actor emitted a non-finite action; the
    /// [`crate::SafetyGovernor`] polls this through
    /// [`Governor::healthy`] and pins max frequency while it is down.
    /// Recovers as soon as the actor produces a finite action again.
    policy_healthy: bool,
    /// Telemetry handle (disabled by default; see
    /// [`with_recorder`](Self::with_recorder)).
    recorder: Recorder,
}

impl<'a> DeepPowerGovernor<'a> {
    pub fn new(agent: &'a mut Ddpg, cfg: DeepPowerConfig, mode: Mode) -> Self {
        cfg.validate().expect("invalid DeepPower config");
        assert_eq!(agent.cfg.state_dim, STATE_DIM, "agent state dim mismatch");
        assert!(
            agent.cfg.action_dim == 2 || agent.cfg.action_dim == 3,
            "agent action dim mismatch: need 2 (freq-only) or 3 (freq + admission), got {}",
            agent.cfg.action_dim
        );
        let mut reward = RewardCalculator::new(cfg.alpha, cfg.beta, cfg.gamma_q, cfg.eta);
        reward.kappa = cfg.kappa;
        // Tie the energy normalization band to nothing app-specific: the
        // defaults inside RewardCalculator cover the Xeon socket model.
        reward.reset();
        Self {
            controller: ThreadController::new(ControllerParams::default()),
            observer: StateObserver::new(cfg.state_norm),
            reward,
            mode,
            ticks_per_long: cfg.ticks_per_long(),
            tick_count: 0,
            pending: None,
            last_step_t: None,
            log: Vec::new(),
            prev_arrived: 0,
            prev_timeouts: 0,
            prev_energy_uj: 0,
            updates_done: 0,
            policy_healthy: true,
            recorder: Recorder::disabled(),
            agent,
            cfg,
        }
    }

    /// Attach a telemetry recorder: every DRL step then emits an
    /// [`event::DrlStep`] mirroring the [`StepLog`] entry, and (in
    /// training mode) an [`event::TrainUpdate`] with the DDPG internals
    /// of the step's last gradient update — one event per step, not per
    /// update, so event volume is bounded by the step count. The
    /// recorder's profiler goes to the agent, whose update stages then
    /// open `ddpg.*` spans.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.agent.set_profiler(recorder.profiler());
        self.recorder = recorder;
        self
    }

    /// Record an internal fault the governor detected (socket-wide).
    fn emit_fault(&self, t: Nanos, kind: FaultKind, magnitude: f64) {
        self.recorder.emit(|| {
            Event::FaultInjected(event::FaultInjected {
                t,
                kind,
                core: -1,
                magnitude,
            })
        });
    }

    fn drl_step(&mut self, view: &ServerView<'_>) {
        let next_state = self.observer.observe(view);
        let closed = self.close_window(view, &next_state, false);

        let action = match self.mode {
            Mode::Train => self.agent.act_explore(&next_state),
            Mode::Eval => self.agent.act(&next_state),
        };
        self.policy_healthy = action.iter().all(|a| a.is_finite());
        if !self.policy_healthy {
            self.emit_fault(view.now, FaultKind::ActionNan, 0.0);
        }
        // `ControllerParams::new` maps non-finite components to 0.0, so
        // the controller keeps a well-defined (minimum-frequency) policy
        // even while unhealthy.
        self.controller.params = ControllerParams::from_action(&action);

        if let Some((r, terms, elapsed)) = closed {
            self.push_log(view, &next_state, r, terms, elapsed);
        }

        self.pending = Some((next_state, self.action_vec()));
        self.last_step_t = Some(view.now);
    }

    /// Close the currently open DRL window at `view.now`: compute the
    /// reward over the *elapsed* interval, emit the pending transition
    /// (terminal iff `done`), and run training updates. Returns `None` at
    /// the very first step, where no window has elapsed yet — there the
    /// monotone counters are merely latched so the next window measures a
    /// real delta instead of averaging over a `long_time` that never ran.
    fn close_window(
        &mut self,
        view: &ServerView<'_>,
        next_state: &[f32; STATE_DIM],
        done: bool,
    ) -> Option<(f64, RewardTerms, Nanos)> {
        let Some(t0) = self.last_step_t else {
            self.reward.latch(
                view.energy_uj,
                view.total_timeouts,
                view.total_arrived,
                view.total_wasted,
                view.queue.len(),
            );
            self.prev_arrived = view.total_arrived;
            self.prev_timeouts = view.total_timeouts;
            self.prev_energy_uj = view.energy_uj;
            return None;
        };
        let elapsed = view.now.saturating_sub(t0);
        let (r, terms) = self.reward.step(
            view.energy_uj,
            view.total_timeouts,
            view.total_arrived,
            view.total_wasted,
            view.queue.len(),
            elapsed.max(1),
        );

        if let Some((state, action)) = self.pending.take() {
            let accepted = self.agent.observe(Transition {
                state: state.to_vec(),
                action,
                reward: r as f32,
                next_state: next_state.to_vec(),
                done,
            });
            if !accepted {
                self.emit_fault(view.now, FaultKind::ReplayReject, 0.0);
            }
            if self.mode == Mode::Train && self.agent.ready() {
                let mut last = UpdateStats::default();
                for _ in 0..self.cfg.updates_per_step.max(1) {
                    last = self.agent.update();
                    self.updates_done += 1;
                    if last.diverged {
                        let rollbacks = self.agent.rollbacks() as f64;
                        self.emit_fault(view.now, FaultKind::TrainDiverged, rollbacks);
                    }
                }
                self.recorder.emit(|| {
                    Event::TrainUpdate(event::TrainUpdate {
                        t: view.now,
                        updates: self.updates_done,
                        critic_loss: last.critic_loss as f64,
                        actor_q: last.actor_q as f64,
                        actor_grad_norm: last.actor_grad_norm as f64,
                        critic_grad_norm: last.critic_grad_norm as f64,
                        replay_len: self.agent.replay.len() as u64,
                        replay_capacity: self.agent.replay.capacity() as u64,
                    })
                });
            }
        }
        Some((r, terms, elapsed))
    }

    fn push_log(
        &mut self,
        view: &ServerView<'_>,
        state: &[f32; STATE_DIM],
        r: f64,
        terms: RewardTerms,
        elapsed: Nanos,
    ) {
        let num_req = view.total_arrived - self.prev_arrived;
        let timeouts = view.total_timeouts - self.prev_timeouts;
        let d_energy_j = (view.energy_uj - self.prev_energy_uj) as f64 * 1e-6;
        let power_w = d_energy_j / (elapsed as f64 * 1e-9).max(1e-12);
        self.prev_arrived = view.total_arrived;
        self.prev_timeouts = view.total_timeouts;
        self.prev_energy_uj = view.energy_uj;
        let avg_freq = if view.cores.is_empty() {
            0.0
        } else {
            view.cores.iter().map(|c| c.freq_mhz as f64).sum::<f64>() / view.cores.len() as f64
        };
        self.log.push(StepLog {
            t: view.now,
            state: *state,
            num_req,
            power_w,
            base_freq: self.controller.params.base_freq,
            scaling_coef: self.controller.params.scaling_coef,
            admit_frac: self.controller.params.admit_frac,
            avg_freq_mhz: avg_freq,
            queue_len: view.queue.len(),
            timeouts,
            reward: r,
            terms,
        });
        self.recorder.emit(|| {
            Event::DrlStep(event::DrlStep {
                t: view.now,
                num_req,
                power_w,
                base_freq: self.controller.params.base_freq as f64,
                scaling_coef: self.controller.params.scaling_coef as f64,
                admit_frac: self.controller.params.admit_frac as f64,
                avg_freq_mhz: avg_freq,
                queue_len: view.queue.len() as u64,
                timeouts,
                reward: r,
                r_energy: terms.energy,
                r_timeout: terms.timeout,
                r_queue: terms.queue,
                r_wasted: terms.wasted,
            })
        });
    }

    fn action_vec(&self) -> Vec<f32> {
        let mut a = vec![
            self.controller.params.base_freq,
            self.controller.params.scaling_coef,
        ];
        if self.agent.cfg.action_dim == 3 {
            a.push(self.controller.params.admit_frac);
        }
        a
    }
}

impl Governor for DeepPowerGovernor<'_> {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        if self.tick_count.is_multiple_of(self.ticks_per_long) {
            self.drl_step(view);
        }
        self.tick_count += 1;
        self.controller.scale_all(view, cmds);
    }

    fn healthy(&self) -> bool {
        self.policy_healthy
    }

    /// Episode-end flush: the last `(state, action)` pair would otherwise
    /// be dropped and no transition would ever carry `done: true`. Close
    /// the open window over its partial elapsed interval, push the
    /// terminal transition, and log the partial step.
    fn on_run_end(&mut self, view: &ServerView<'_>) {
        if self.pending.is_none() {
            return;
        }
        let next_state = self.observer.observe(view);
        if let Some((r, terms, elapsed)) = self.close_window(view, &next_state, true) {
            if elapsed > 0 {
                self.push_log(view, &next_state, r, terms, elapsed);
            }
        }
        self.last_step_t = Some(view.now);
    }

    fn name(&self) -> &str {
        match self.mode {
            Mode::Train => "deeppower-train",
            Mode::Eval => "deeppower",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeppower_drl::DdpgConfig;
    use deeppower_simd_server::{RunOptions, Server, ServerConfig, MILLISECOND, SECOND};
    use deeppower_workload::{constant_rate_arrivals, App, AppSpec};

    fn agent(warmup: usize) -> Ddpg {
        Ddpg::new(DdpgConfig {
            state_dim: STATE_DIM,
            action_dim: 2,
            warmup,
            batch_size: 16,
            seed: 1,
            ..Default::default()
        })
    }

    fn small_cfg() -> DeepPowerConfig {
        DeepPowerConfig {
            short_time: MILLISECOND,
            long_time: 100 * MILLISECOND, // fast DRL cadence for tests
            ..Default::default()
        }
    }

    #[test]
    fn drl_steps_fire_at_long_time_cadence() {
        let mut ag = agent(1_000_000); // never trains in this test
        let cfg = small_cfg();
        let mut gov = DeepPowerGovernor::new(&mut ag, cfg, Mode::Train);
        let spec = AppSpec::get(App::Xapian);
        let arrivals = constant_rate_arrivals(&spec, 2000.0, SECOND, 3);
        let server = Server::new(ServerConfig::paper_default(8));
        let _ = server.run(&arrivals, &mut gov, RunOptions::default());
        // 1 s of workload at a 100 ms DRL period → ~10-12 steps.
        assert!(
            (9..=14).contains(&gov.log.len()),
            "unexpected DRL step count {}",
            gov.log.len()
        );
    }

    #[test]
    fn transitions_accumulate_in_replay() {
        let mut ag = agent(1_000_000);
        let mut gov = DeepPowerGovernor::new(&mut ag, small_cfg(), Mode::Train);
        let spec = AppSpec::get(App::Xapian);
        let arrivals = constant_rate_arrivals(&spec, 2000.0, SECOND, 4);
        let server = Server::new(ServerConfig::paper_default(8));
        let _ = server.run(&arrivals, &mut gov, RunOptions::default());
        let steps = gov.log.len();
        drop(gov);
        // Every logged step produced a transition: each interior step
        // closes the previous window, and the episode-end flush emits the
        // final (terminal) one instead of dropping it.
        assert_eq!(ag.replay.len(), steps);
        let done_flags: Vec<bool> = ag.replay.iter().map(|t| t.done).collect();
        assert_eq!(
            done_flags.iter().filter(|&&d| d).count(),
            1,
            "exactly one terminal"
        );
        assert_eq!(
            done_flags.last(),
            Some(&true),
            "the last transition is terminal"
        );
    }

    #[test]
    fn training_mode_performs_updates_once_warm() {
        let mut ag = agent(4);
        let mut gov = DeepPowerGovernor::new(&mut ag, small_cfg(), Mode::Train);
        let spec = AppSpec::get(App::Xapian);
        let arrivals = constant_rate_arrivals(&spec, 2000.0, 3 * SECOND, 5);
        let server = Server::new(ServerConfig::paper_default(8));
        let _ = server.run(&arrivals, &mut gov, RunOptions::default());
        assert!(gov.updates_done > 0, "no DDPG updates happened");
    }

    #[test]
    fn eval_mode_never_updates_and_is_deterministic() {
        let spec = AppSpec::get(App::Xapian);
        let arrivals = constant_rate_arrivals(&spec, 2000.0, SECOND, 6);
        let server = Server::new(ServerConfig::paper_default(8));

        let run = |seed| {
            let mut ag = Ddpg::new(DdpgConfig {
                state_dim: STATE_DIM,
                action_dim: 2,
                seed,
                ..Default::default()
            });
            let mut gov = DeepPowerGovernor::new(&mut ag, small_cfg(), Mode::Eval);
            let res = server.run(&arrivals, &mut gov, RunOptions::default());
            let updates = gov.updates_done;
            let actions: Vec<(f32, f32)> = gov
                .log
                .iter()
                .map(|l| (l.base_freq, l.scaling_coef))
                .collect();
            (res.energy_j, updates, actions)
        };
        let (e1, u1, a1) = run(7);
        let (e2, _, a2) = run(7);
        assert_eq!(u1, 0);
        assert_eq!(e1, e2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn actions_stay_in_unit_box() {
        let mut ag = agent(0);
        let mut gov = DeepPowerGovernor::new(&mut ag, small_cfg(), Mode::Train);
        let spec = AppSpec::get(App::Xapian);
        let arrivals = constant_rate_arrivals(&spec, 3000.0, 2 * SECOND, 8);
        let server = Server::new(ServerConfig::paper_default(8));
        let _ = server.run(&arrivals, &mut gov, RunOptions::default());
        for l in &gov.log {
            assert!((0.0..=1.0).contains(&l.base_freq));
            assert!((0.0..=1.0).contains(&l.scaling_coef));
        }
    }

    #[test]
    fn log_power_matches_simulated_average() {
        let mut ag = agent(1_000_000);
        let mut gov = DeepPowerGovernor::new(&mut ag, small_cfg(), Mode::Eval);
        let spec = AppSpec::get(App::Xapian);
        let arrivals = constant_rate_arrivals(&spec, 2000.0, 2 * SECOND, 9);
        let server = Server::new(ServerConfig::paper_default(8));
        let res = server.run(&arrivals, &mut gov, RunOptions::default());
        // Mean of per-step powers ≈ overall average power (same socket).
        // Every step — including the first and the partial final one — is
        // now averaged over its actually-elapsed window, so no entry needs
        // to be skipped.
        let mean_step: f64 = gov.log.iter().map(|l| l.power_w).sum::<f64>() / gov.log.len() as f64;
        assert!(
            (mean_step - res.avg_power_w).abs() / res.avg_power_w < 0.25,
            "per-step power {mean_step} vs run average {}",
            res.avg_power_w
        );
    }

    #[test]
    fn three_action_agent_co_manages_admission_deterministically() {
        use deeppower_simd_server::{AdmissionMode, OverloadPlan};
        let spec = AppSpec::get(App::Xapian);
        let arrivals = constant_rate_arrivals(&spec, 2000.0, SECOND, 12);
        let server = Server::new(ServerConfig::paper_default(8));
        let run = || {
            let mut ag = Ddpg::new(DdpgConfig {
                state_dim: STATE_DIM,
                action_dim: 3,
                seed: 11,
                ..Default::default()
            });
            let mut gov = DeepPowerGovernor::new(&mut ag, small_cfg(), Mode::Eval);
            let opts = RunOptions {
                overload: OverloadPlan {
                    seed: 5,
                    admission: AdmissionMode::Drl,
                    ..OverloadPlan::none()
                },
                ..Default::default()
            };
            let res = server.run(&arrivals, &mut gov, opts);
            let fracs: Vec<f32> = gov.log.iter().map(|l| l.admit_frac).collect();
            (res, fracs)
        };
        let (r1, f1) = run();
        let (r2, f2) = run();
        assert!(!f1.is_empty());
        assert!(f1.iter().all(|f| (0.0..=1.0).contains(f)));
        assert_eq!(f1, f2, "admission actions must replay bit-identically");
        assert_eq!(r1.records, r2.records);
        assert_eq!(r1.shed, r2.shed);
        // Conservation still holds with the DRL-managed gate in the loop.
        assert_eq!(r1.goodput + r1.wasted, r1.stats.count);
    }

    #[test]
    fn poisoned_actor_output_never_escapes_the_admission_clamp() {
        // Satellite audit of `admit_frac` clamping: an actor whose
        // weights have gone NaN must degrade to admit-all, and every
        // admission value that reaches the queue gate and the step log
        // stays in [0, 1] — never NaN, never out of range.
        use deeppower_simd_server::{AdmissionMode, OverloadPlan};
        let spec = AppSpec::get(App::Xapian);
        let arrivals = constant_rate_arrivals(&spec, 2000.0, SECOND, 12);
        let server = Server::new(ServerConfig::paper_default(8));
        let mut ag = Ddpg::new(DdpgConfig {
            state_dim: STATE_DIM,
            action_dim: 3,
            seed: 11,
            ..Default::default()
        });
        let poisoned = vec![f32::NAN; ag.actor_snapshot().len()];
        ag.load_actor_snapshot(&poisoned);
        let mut gov = DeepPowerGovernor::new(&mut ag, small_cfg(), Mode::Eval);
        let opts = RunOptions {
            overload: OverloadPlan {
                seed: 5,
                admission: AdmissionMode::Drl,
                ..OverloadPlan::none()
            },
            ..Default::default()
        };
        let res = server.run(&arrivals, &mut gov, opts);
        assert!(!gov.log.is_empty());
        for l in &gov.log {
            assert!(
                (0.0..=1.0).contains(&l.admit_frac),
                "admit_frac {} escaped [0, 1]",
                l.admit_frac
            );
            assert_eq!(
                l.admit_frac, 1.0,
                "non-finite admission head must degrade to admit-all"
            );
            assert!((0.0..=1.0).contains(&l.base_freq));
            assert!(l.scaling_coef >= 0.0);
        }
        // Admit-all: the DRL gate sheds nothing, and conservation holds.
        assert_eq!(res.shed, 0);
        assert_eq!(res.goodput + res.wasted, res.stats.count);
    }

    #[test]
    #[should_panic(expected = "state dim mismatch")]
    fn rejects_mismatched_agent() {
        let mut ag = Ddpg::new(DdpgConfig {
            state_dim: 4,
            ..Default::default()
        });
        let _ = DeepPowerGovernor::new(&mut ag, small_cfg(), Mode::Eval);
    }
}
