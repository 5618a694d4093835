//! Safety/degradation layer — a [`Governor`] combinator that bounds how
//! badly any wrapped policy (learned or heuristic) can degrade the SLA
//! when the platform or the policy itself misbehaves.
//!
//! [`SafetyGovernor`] composes over any [`Governor`] the same way
//! [`crate::SleepAware`] does and adds three independent mechanisms:
//!
//! 1. **SLA watchdog** — a rolling window of request completions tracks
//!    the recent timeout rate; when it crosses
//!    [`SafetyConfig::timeout_rate_threshold`] the wrapper snaps every
//!    busy core to turbo for [`SafetyConfig::turbo_hold_ns`], re-issuing
//!    the command every tick so DVFS faults that drop a write get
//!    retried.
//! 2. **Hold-last-good-action** — when the wrapped policy goes silent on
//!    a core (no command for [`SafetyConfig::stale_action_ns`]) the last
//!    commanded frequency is re-issued, and after
//!    [`SafetyConfig::decay_after_ns`] of continued silence the held
//!    command decays *upward* toward the plan's max frequency (the safe
//!    direction for an LC application: burn power, not latency).
//! 3. **MaxFreq fallback** — when the wrapped policy reports
//!    [`Governor::healthy`]` == false` (e.g. a DRL actor emitting NaN),
//!    every core is pinned at the nominal max frequency until the policy
//!    recovers.
//!
//! When none of the mechanisms trigger the wrapper is byte-transparent:
//! it forwards every hook and never touches the command buffer, so a
//! fault-free run of `SafetyGovernor(P)` is bit-identical to `P` (the
//! `robustness_matrix` bench asserts this).
//!
//! Every intervention is recorded as a typed
//! [`deeppower_telemetry::SafetyAction`] event; watchdog trips, holds
//! and fallbacks are also counted in the governor's public fields.

use std::collections::VecDeque;

use deeppower_simd_server::{FreqCommands, Governor, Nanos, Request, ServerView};
use deeppower_telemetry::{event, Event, Recorder, SafetyKind};

/// Thresholds for the three safety mechanisms. Defaults follow the
/// paper's time scales: the watchdog window is one `LongTime` (1 s) so
/// it reacts at the same granularity as the DRL agent, and the turbo
/// hold is 50 `ShortTime`s — long enough to drain a queue built up
/// during a fault, short enough to give control back quickly.
#[derive(Clone, Copy, Debug)]
pub struct SafetyConfig {
    /// Rolling window over which the timeout rate is measured.
    pub window_ns: Nanos,
    /// Timeout fraction above which the watchdog trips.
    pub timeout_rate_threshold: f64,
    /// Minimum completions inside the window before the rate is trusted
    /// (avoids tripping on the first timed-out request of a run).
    pub min_completions: usize,
    /// How long a watchdog trip holds busy cores at turbo.
    pub turbo_hold_ns: Nanos,
    /// Silence (no command for a core) after which the last command is
    /// re-issued.
    pub stale_action_ns: Nanos,
    /// Silence after which the held command starts decaying toward the
    /// plan's max frequency.
    pub decay_after_ns: Nanos,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        Self {
            window_ns: 1_000_000_000,
            timeout_rate_threshold: 0.3,
            min_completions: 16,
            turbo_hold_ns: 50_000_000,
            stale_action_ns: 10_000_000,
            decay_after_ns: 100_000_000,
        }
    }
}

impl SafetyConfig {
    /// Panics on thresholds that cannot work (zero window, rate outside
    /// `(0, 1]`, decay before hold).
    fn validate(&self) {
        assert!(self.window_ns > 0, "watchdog window must be positive");
        assert!(
            self.timeout_rate_threshold > 0.0 && self.timeout_rate_threshold <= 1.0,
            "timeout_rate_threshold must be in (0, 1]"
        );
        assert!(
            self.stale_action_ns <= self.decay_after_ns,
            "hold threshold must not exceed the decay one"
        );
    }
}

/// Governor combinator adding SLA-watchdog / hold-last-action / MaxFreq
/// fallback protection to `inner`. See the module docs for semantics.
pub struct SafetyGovernor<G> {
    pub inner: G,
    cfg: SafetyConfig,
    name: String,
    recorder: Recorder,
    /// Rolling `(completion time, timed_out)` window for the watchdog.
    window: VecDeque<(Nanos, bool)>,
    timeouts_in_window: usize,
    /// Turbo boost active until this instant (0 = inactive).
    boost_until: Nanos,
    /// Last frequency the wrapped policy commanded per core, and when.
    last_cmd: Vec<Option<u32>>,
    last_cmd_t: Vec<Nanos>,
    /// Edge detector for the MaxFreq fallback event.
    was_healthy: bool,
    /// Number of watchdog trips (rising edges, not boosted ticks).
    pub watchdog_trips: u64,
    /// Number of re-issued (held) commands.
    pub holds: u64,
    /// Number of unhealthy episodes that triggered the MaxFreq fallback.
    pub fallbacks: u64,
}

impl<G: Governor> SafetyGovernor<G> {
    pub fn new(inner: G, n_cores: usize, cfg: SafetyConfig) -> Self {
        cfg.validate();
        assert!(n_cores > 0, "need at least one core");
        let name = format!("safe+{}", inner.name());
        Self {
            inner,
            cfg,
            name,
            recorder: Recorder::disabled(),
            window: VecDeque::new(),
            timeouts_in_window: 0,
            boost_until: 0,
            last_cmd: vec![None; n_cores],
            last_cmd_t: vec![0; n_cores],
            was_healthy: true,
            watchdog_trips: 0,
            holds: 0,
            fallbacks: 0,
        }
    }

    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    fn record(&self, t: Nanos, action: SafetyKind, core: i64) {
        self.recorder
            .emit(|| Event::SafetyAction(event::SafetyAction { t, action, core }));
    }

    /// Record any command the wrapped policy issued this callback so the
    /// hold mechanism knows what "last good" means per core.
    fn latch_commands(&mut self, now: Nanos, cmds: &FreqCommands) {
        for core in 0..self.last_cmd.len() {
            if let Some(mhz) = cmds.get(core) {
                self.last_cmd[core] = Some(mhz);
                self.last_cmd_t[core] = now;
            }
        }
    }

    fn prune_window(&mut self, now: Nanos) {
        let horizon = now.saturating_sub(self.cfg.window_ns);
        while let Some(&(t, timed_out)) = self.window.front() {
            if t >= horizon {
                break;
            }
            self.window.pop_front();
            if timed_out {
                self.timeouts_in_window -= 1;
            }
        }
    }
}

impl<G: Governor> Governor for SafetyGovernor<G> {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        let now = view.now;
        self.inner.on_tick(view, cmds);

        // 1. Hold / decay: re-issue the last command for cores the
        //    wrapped policy went silent on. Decay steps the held command
        //    toward max — over-clocking is the recoverable failure mode.
        let (min_mhz, max_mhz) = cmds.freq_band_mhz();
        let decay_step = ((max_mhz - min_mhz) / 10).max(1);
        for core in 0..self.last_cmd.len() {
            if cmds.get(core).is_some() {
                self.last_cmd[core] = cmds.get(core);
                self.last_cmd_t[core] = now;
                continue;
            }
            let Some(held) = self.last_cmd[core] else {
                continue;
            };
            let silent_for = now.saturating_sub(self.last_cmd_t[core]);
            if silent_for < self.cfg.stale_action_ns {
                continue;
            }
            let held = if silent_for >= self.cfg.decay_after_ns && held < max_mhz {
                let stepped = (held + decay_step).min(max_mhz);
                self.last_cmd[core] = Some(stepped);
                self.record(now, SafetyKind::HoldDecay, core as i64);
                stepped
            } else {
                held
            };
            cmds.set(core, held);
            self.holds += 1;
        }

        // 2. SLA watchdog: trip on a high rolling timeout rate, then
        //    re-issue turbo on busy cores every tick until the hold
        //    expires (re-issuing retries through injected DVFS drops).
        self.prune_window(now);
        let completions = self.window.len();
        if completions >= self.cfg.min_completions && now >= self.boost_until {
            let rate = self.timeouts_in_window as f64 / completions as f64;
            if rate > self.cfg.timeout_rate_threshold {
                self.boost_until = now + self.cfg.turbo_hold_ns;
                self.watchdog_trips += 1;
                self.record(now, SafetyKind::WatchdogTurbo, -1);
            }
        }
        if now < self.boost_until {
            for (core, cv) in view.cores.iter().enumerate() {
                if cv.busy() {
                    cmds.set_turbo(core);
                }
            }
        }

        // 3. MaxFreq fallback: a policy emitting non-finite actions gets
        //    every core pinned at nominal max until it recovers.
        let healthy = self.inner.healthy();
        if !healthy {
            if self.was_healthy {
                self.fallbacks += 1;
                self.record(now, SafetyKind::MaxfreqFallback, -1);
            }
            cmds.set_all(max_mhz);
        }
        self.was_healthy = healthy;
    }

    fn on_request_start(
        &mut self,
        view: &ServerView<'_>,
        core_id: usize,
        req: &Request,
        cmds: &mut FreqCommands,
    ) {
        self.inner.on_request_start(view, core_id, req, cmds);
        self.latch_commands(view.now, cmds);
    }

    fn on_request_complete(&mut self, now: Nanos, core_id: usize, req: &Request, latency: Nanos) {
        let timed_out = latency > req.sla;
        self.window.push_back((now, timed_out));
        if timed_out {
            self.timeouts_in_window += 1;
        }
        self.inner.on_request_complete(now, core_id, req, latency);
    }

    fn on_run_end(&mut self, view: &ServerView<'_>) {
        self.inner.on_run_end(view);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn healthy(&self) -> bool {
        // The wrapper itself is always healthy: it exists to absorb the
        // wrapped policy's failures, so it must not propagate them.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_controller::{ControllerParams, ThreadController};
    use deeppower_simd_server::{
        FaultPlan, FixedFrequency, RunOptions, Server, ServerConfig, MILLISECOND, SECOND,
    };
    use deeppower_workload::{constant_rate_arrivals, App, AppSpec};

    fn workload(load: f64, seed: u64) -> (ServerConfig, Vec<Request>) {
        let spec = AppSpec::get(App::Masstree);
        let cfg = ServerConfig::paper_default(spec.n_threads);
        let arrivals = constant_rate_arrivals(&spec, spec.rps_for_load(load), SECOND, seed);
        (cfg, arrivals)
    }

    #[test]
    fn transparent_without_faults() {
        // No watchdog trip, no stale commands, healthy policy: the
        // wrapper must be bit-identical to the plain governor.
        let (cfg, arrivals) = workload(0.4, 7);
        let server = Server::new(cfg);
        let params = ControllerParams::new(0.3, 1.0);
        let mut plain = ThreadController::new(params);
        let base = server.run(&arrivals, &mut plain, RunOptions::default());
        let mut safe = SafetyGovernor::new(
            ThreadController::new(params),
            server.config().n_cores,
            SafetyConfig::default(),
        );
        let res = server.run(&arrivals, &mut safe, RunOptions::default());
        assert_eq!(res.energy_j.to_bits(), base.energy_j.to_bits());
        assert_eq!(res.records, base.records);
        assert_eq!(safe.watchdog_trips, 0);
        assert_eq!(safe.holds, 0);
        assert_eq!(safe.fallbacks, 0);
    }

    #[test]
    fn name_composes_over_inner() {
        let safe = SafetyGovernor::new(FixedFrequency { mhz: 800 }, 1, SafetyConfig::default());
        assert_eq!(safe.name(), "safe+fixed");
    }

    #[test]
    fn watchdog_bounds_timeouts_under_dvfs_failures() {
        // A low-frequency thread controller under near-certain DVFS
        // write failures gets stuck slow and times out heavily; the
        // watchdog's re-issued turbo commands must claw the timeout
        // rate back down.
        let (cfg, arrivals) = workload(0.7, 11);
        let server = Server::new(cfg);
        let faults = FaultPlan {
            seed: 5,
            dvfs_fail_prob: 0.9,
            ..FaultPlan::none()
        };
        let opts = RunOptions {
            faults,
            ..Default::default()
        };
        let params = ControllerParams::new(0.0, 0.4);
        let mut plain = ThreadController::new(params);
        let base = server.run(&arrivals, &mut plain, opts);
        let mut safe = SafetyGovernor::new(
            ThreadController::new(params),
            server.config().n_cores,
            SafetyConfig::default(),
        );
        let res = server.run(&arrivals, &mut safe, opts);
        assert!(
            base.stats.timeout_rate() > 0.3,
            "scenario too mild to exercise the watchdog: {:.3}",
            base.stats.timeout_rate()
        );
        assert!(safe.watchdog_trips > 0, "watchdog never tripped");
        assert!(
            res.stats.timeout_rate() < base.stats.timeout_rate() * 0.5,
            "watchdog barely helped: {:.3} vs {:.3}",
            res.stats.timeout_rate(),
            base.stats.timeout_rate()
        );
    }

    /// A policy that commands once and then goes silent forever.
    struct OneShot {
        mhz: u32,
        issued: bool,
    }

    impl Governor for OneShot {
        fn on_tick(&mut self, _view: &ServerView<'_>, cmds: &mut FreqCommands) {
            if !self.issued {
                cmds.set_all(self.mhz);
                self.issued = true;
            }
        }

        fn name(&self) -> &str {
            "one-shot"
        }
    }

    #[test]
    fn held_commands_decay_toward_max() {
        let (cfg, arrivals) = workload(0.3, 3);
        let n = cfg.n_cores;
        let server = Server::new(cfg);
        let rec = Recorder::ring(1 << 16);
        let mut safe = SafetyGovernor::new(
            OneShot {
                mhz: 800,
                issued: false,
            },
            n,
            SafetyConfig::default(),
        )
        .with_recorder(rec.clone());
        let _ = server.run(&arrivals, &mut safe, RunOptions::default());
        assert!(safe.holds > 0, "silent policy never triggered a hold");
        let decays = rec
            .drain_events()
            .iter()
            .filter(|e| matches!(e, Event::SafetyAction(a) if a.action == SafetyKind::HoldDecay))
            .count();
        assert!(decays > 0, "held command never decayed");
        // After decay completes every held command sits at nominal max.
        let plan = deeppower_simd_server::FreqPlan::xeon_gold_5218r();
        for held in &safe.last_cmd {
            assert_eq!(*held, Some(plan.max_mhz()));
        }
    }

    /// A policy that reports unhealthy from the first tick.
    struct Broken;

    impl Governor for Broken {
        fn name(&self) -> &str {
            "broken"
        }

        fn healthy(&self) -> bool {
            false
        }
    }

    #[test]
    fn unhealthy_policy_falls_back_to_max_frequency() {
        let (cfg, arrivals) = workload(0.5, 9);
        let n = cfg.n_cores;
        let server = Server::new(cfg);
        // Max-frequency reference: what the fallback should converge to.
        let plan = deeppower_simd_server::FreqPlan::xeon_gold_5218r();
        let mut maxed = FixedFrequency {
            mhz: plan.max_mhz(),
        };
        let reference = server.run(&arrivals, &mut maxed, RunOptions::default());
        let mut safe = SafetyGovernor::new(Broken, n, SafetyConfig::default());
        let res = server.run(&arrivals, &mut safe, RunOptions::default());
        assert_eq!(safe.fallbacks, 1, "fallback should fire once (one edge)");
        assert_eq!(res.stats.count, reference.stats.count);
        // Identical commands from the first tick: identical outcome.
        assert_eq!(res.energy_j.to_bits(), reference.energy_j.to_bits());
    }

    #[test]
    #[should_panic(expected = "hold threshold")]
    fn config_threshold_order_enforced() {
        let cfg = SafetyConfig {
            stale_action_ns: 10 * MILLISECOND,
            decay_after_ns: MILLISECOND,
            ..SafetyConfig::default()
        };
        let _ = SafetyGovernor::new(FixedFrequency { mhz: 800 }, 1, cfg);
    }
}
