//! Ablation comparators for DeepPower's design choices.
//!
//! [`FlatDrlGovernor`] removes the hierarchy (§3.2's central design
//! argument): the DDPG agent still acts once per `LongTime`, but its
//! action is a *single socket-wide frequency* held constant for the whole
//! interval — there is no thread controller reacting per millisecond to
//! each request's elapsed time. Everything else (state, reward, replay,
//! training cadence) is identical, so any gap against
//! [`crate::DeepPowerGovernor`] isolates the value of hierarchical
//! control.

use crate::config::DeepPowerConfig;
use crate::governor::Mode;
use crate::reward::RewardCalculator;
use crate::state::{StateObserver, STATE_DIM};
use deeppower_drl::{Ddpg, Transition};
use deeppower_simd_server::{FreqCommands, FreqPlan, Governor, Nanos, ServerView};

/// DRL-only control: one frequency per DRL interval, no bottom layer.
pub struct FlatDrlGovernor<'a> {
    agent: &'a mut Ddpg,
    cfg: DeepPowerConfig,
    observer: StateObserver,
    reward: RewardCalculator,
    mode: Mode,
    plan: FreqPlan,
    ticks_per_long: u64,
    tick_count: u64,
    pending: Option<([f32; STATE_DIM], Vec<f32>)>,
    /// Start of the open DRL window (`None` before the first step) — same
    /// elapsed-interval accounting as [`crate::DeepPowerGovernor`].
    last_step_t: Option<Nanos>,
    current_mhz: u32,
    pub updates_done: u64,
}

impl<'a> FlatDrlGovernor<'a> {
    pub fn new(agent: &'a mut Ddpg, cfg: DeepPowerConfig, plan: FreqPlan, mode: Mode) -> Self {
        cfg.validate().expect("invalid config");
        assert_eq!(agent.cfg.state_dim, STATE_DIM);
        let current_mhz = plan.max_mhz();
        Self {
            observer: StateObserver::new(cfg.state_norm),
            reward: RewardCalculator::new(cfg.alpha, cfg.beta, cfg.gamma_q, cfg.eta),
            mode,
            ticks_per_long: cfg.ticks_per_long(),
            tick_count: 0,
            pending: None,
            last_step_t: None,
            current_mhz,
            updates_done: 0,
            plan,
            agent,
            cfg,
        }
    }

    fn drl_step(&mut self, view: &ServerView<'_>) {
        let next_state = self.observer.observe(view);
        self.close_window(view, &next_state, false);
        let action = match self.mode {
            Mode::Train => self.agent.act_explore(&next_state),
            Mode::Eval => self.agent.act(&next_state),
        };
        // Only action[0] matters: the socket frequency. action[1] is kept
        // so the same 2-output actor architecture is reused.
        self.current_mhz = self.plan.interpolate(action[0]);
        self.pending = Some((next_state, action));
        self.last_step_t = Some(view.now);
    }

    /// Same window accounting as `DeepPowerGovernor::close_window`: the
    /// first step only latches counters; later steps reward over the
    /// actually-elapsed interval and emit the pending transition.
    fn close_window(&mut self, view: &ServerView<'_>, next_state: &[f32; STATE_DIM], done: bool) {
        let Some(t0) = self.last_step_t else {
            self.reward.latch(
                view.energy_uj,
                view.total_timeouts,
                view.total_arrived,
                view.total_wasted,
                view.queue.len(),
            );
            return;
        };
        let elapsed = view.now.saturating_sub(t0).max(1);
        let (r, _) = self.reward.step(
            view.energy_uj,
            view.total_timeouts,
            view.total_arrived,
            view.total_wasted,
            view.queue.len(),
            elapsed,
        );
        if let Some((state, action)) = self.pending.take() {
            self.agent.observe(Transition {
                state: state.to_vec(),
                action,
                reward: r as f32,
                next_state: next_state.to_vec(),
                done,
            });
            if self.mode == Mode::Train && self.agent.ready() {
                for _ in 0..self.cfg.updates_per_step.max(1) {
                    self.agent.update();
                    self.updates_done += 1;
                }
            }
        }
    }
}

impl Governor for FlatDrlGovernor<'_> {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        if self.tick_count.is_multiple_of(self.ticks_per_long) {
            self.drl_step(view);
        }
        self.tick_count += 1;
        cmds.set_all(self.current_mhz);
    }

    fn on_run_end(&mut self, view: &ServerView<'_>) {
        if self.pending.is_none() {
            return;
        }
        let next_state = self.observer.observe(view);
        self.close_window(view, &next_state, true);
        self.last_step_t = Some(view.now);
    }

    fn name(&self) -> &str {
        "flat-drl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeppower_drl::DdpgConfig;
    use deeppower_simd_server::{RunOptions, Server, ServerConfig, MILLISECOND, SECOND};
    use deeppower_workload::{constant_rate_arrivals, App, AppSpec};

    #[test]
    fn flat_governor_holds_one_frequency_per_interval() {
        let mut agent = Ddpg::new(DdpgConfig {
            state_dim: STATE_DIM,
            action_dim: 2,
            warmup: 1_000_000,
            seed: 2,
            ..Default::default()
        });
        let cfg = DeepPowerConfig {
            long_time: 50 * MILLISECOND,
            ..Default::default()
        };
        let mut gov =
            FlatDrlGovernor::new(&mut agent, cfg, FreqPlan::xeon_gold_5218r(), Mode::Eval);
        let spec = AppSpec::get(App::Xapian);
        let arrivals = constant_rate_arrivals(&spec, 2000.0, SECOND, 1);
        let server = Server::new(ServerConfig::paper_default(8));
        let rec = deeppower_telemetry::Recorder::ring(1 << 16);
        let res = server.run_recorded(
            &arrivals,
            &mut gov,
            RunOptions {
                tick_ns: MILLISECOND,
                trace: deeppower_simd_server::TraceConfig { events: true },
                ..Default::default()
            },
            &rec,
        );
        assert_eq!(rec.dropped_events(), 0);
        let events = rec.drain_events();
        // All cores share one frequency at every millisecond.
        let series = |core| {
            deeppower_telemetry::freq_series(
                &events,
                core,
                server.config().initial_mhz,
                res.duration_ns,
                MILLISECOND,
            )
        };
        let core0 = series(0);
        for core in 1..8 {
            assert_eq!(series(core), core0, "core {core} diverged from core 0");
        }
    }

    #[test]
    fn flat_governor_trains_without_panic() {
        let mut agent = Ddpg::new(DdpgConfig {
            state_dim: STATE_DIM,
            action_dim: 2,
            warmup: 4,
            batch_size: 8,
            seed: 3,
            ..Default::default()
        });
        let cfg = DeepPowerConfig {
            long_time: 100 * MILLISECOND,
            ..Default::default()
        };
        let mut gov =
            FlatDrlGovernor::new(&mut agent, cfg, FreqPlan::xeon_gold_5218r(), Mode::Train);
        let spec = AppSpec::get(App::Xapian);
        let arrivals = constant_rate_arrivals(&spec, 2000.0, 2 * SECOND, 4);
        let server = Server::new(ServerConfig::paper_default(8));
        let _ = server.run(&arrivals, &mut gov, RunOptions::default());
        assert!(gov.updates_done > 0);
    }
}
