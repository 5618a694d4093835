//! Sleep-state extension — the paper's future work (§6), implemented.
//!
//! "Moreover, there exist power management methodologies that utilize the
//! sleep states. … The integration of sleep states into our methods
//! represents a significant challenge. We leave this to future work."
//!
//! [`SleepAware`] wraps any [`Governor`] (DeepPower's hierarchical
//! governor included) with a DynSleep-style idle policy: a core that has
//! been idle longer than `idle_to_c1` enters C1, and longer than
//! `idle_to_deep` enters the deepest available state (C6). The wrapped
//! governor keeps full control of frequencies; waking is handled by the
//! engine, which charges the C-state's wake latency to the next request
//! dispatched onto a sleeping core.
//!
//! The trade-off this exposes is exactly the one §6 describes: deep sleep
//! slashes idle power but risks timeouts for latency budgets comparable
//! to the ~100 µs C6 wake latency (Masstree's 1 ms SLA feels it; Xapian's
//! 8 ms does not). The `ablation_sleep` bench quantifies both sides.

use deeppower_simd_server::{FreqCommands, Governor, Nanos, ServerView};

/// Idle-time thresholds for entering sleep states.
#[derive(Clone, Copy, Debug)]
pub struct SleepPolicy {
    /// Idle time after which a core enters the shallowest state.
    pub idle_to_c1: Nanos,
    /// Idle time after which a core enters the deepest state.
    pub idle_to_deep: Nanos,
}

impl Default for SleepPolicy {
    fn default() -> Self {
        // Idle gaps on a loaded LC server are sub-millisecond; enter C1
        // almost immediately and C6 after a few hundred microseconds.
        Self {
            idle_to_c1: 20_000,
            idle_to_deep: 300_000,
        }
    }
}

/// Governor combinator adding idle sleep management to `inner`.
pub struct SleepAware<G> {
    pub inner: G,
    policy: SleepPolicy,
    /// Per-core time at which the current idle period began
    /// (`None` while busy).
    idle_since: Vec<Option<Nanos>>,
}

impl<G: Governor> SleepAware<G> {
    pub fn new(inner: G, n_cores: usize, policy: SleepPolicy) -> Self {
        assert!(
            policy.idle_to_c1 <= policy.idle_to_deep,
            "shallow threshold must not exceed the deep one"
        );
        Self {
            inner,
            policy,
            idle_since: vec![None; n_cores],
        }
    }
}

impl<G: Governor> Governor for SleepAware<G> {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        self.inner.on_tick(view, cmds);
        for (i, core) in view.cores.iter().enumerate() {
            if core.busy() {
                self.idle_since[i] = None;
                continue;
            }
            let since = *self.idle_since[i].get_or_insert(view.now);
            let idle_for = view.now.saturating_sub(since);
            if idle_for >= self.policy.idle_to_deep {
                // Deepest state is index 1 in the Xeon plan (C6); the
                // engine ignores out-of-range levels, so this is safe for
                // any plan with ≥1 state.
                cmds.set_sleep(i, 1);
            } else if idle_for >= self.policy.idle_to_c1 {
                cmds.set_sleep(i, 0);
            }
        }
    }

    fn on_request_start(
        &mut self,
        view: &ServerView<'_>,
        core_id: usize,
        req: &deeppower_simd_server::Request,
        cmds: &mut FreqCommands,
    ) {
        self.idle_since[core_id] = None;
        self.inner.on_request_start(view, core_id, req, cmds);
    }

    fn on_request_complete(
        &mut self,
        now: Nanos,
        core_id: usize,
        req: &deeppower_simd_server::Request,
        latency: Nanos,
    ) {
        self.idle_since[core_id] = Some(now);
        self.inner.on_request_complete(now, core_id, req, latency);
    }

    fn on_run_end(&mut self, view: &ServerView<'_>) {
        self.inner.on_run_end(view);
    }

    fn name(&self) -> &str {
        "sleep-aware"
    }

    fn healthy(&self) -> bool {
        self.inner.healthy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_controller::{ControllerParams, ThreadController};
    use deeppower_simd_server::{
        FixedFrequency, Request, RunOptions, Server, ServerConfig, MILLISECOND, SECOND,
    };
    use deeppower_workload::{constant_rate_arrivals, App, AppSpec};

    fn sparse_workload() -> Vec<Request> {
        // One short request every 100 ms on a single core: 99 % idle.
        (0..10u64)
            .map(|i| Request {
                id: i,
                client_id: i,
                attempt: 0,
                arrival: i * 100 * MILLISECOND,
                first_arrival: i * 100 * MILLISECOND,
                work_ref_ns: MILLISECOND,
                freq_sensitivity: 1.0,
                sla: 50 * MILLISECOND,
                features: Default::default(),
            })
            .collect()
    }

    #[test]
    fn sleeping_idle_cores_cut_power() {
        // A mostly-idle 20-core socket clocked at max: C6 should recover
        // most of the clocked-idle power (~0.9 W/core at 2.1 GHz).
        let server = Server::new(ServerConfig::paper_with_cstates(20));
        let arrivals = sparse_workload();
        let mut plain = FixedFrequency { mhz: 2100 };
        let base = server.run(&arrivals, &mut plain, RunOptions::default());
        let mut sleepy = SleepAware::new(FixedFrequency { mhz: 2100 }, 20, SleepPolicy::default());
        let res = server.run(&arrivals, &mut sleepy, RunOptions::default());
        assert!(
            res.avg_power_w < base.avg_power_w - 5.0,
            "sleep saved too little: {:.2} vs {:.2} W",
            res.avg_power_w,
            base.avg_power_w
        );
        assert_eq!(res.stats.count, base.stats.count);
    }

    #[test]
    fn wake_latency_is_charged_to_the_next_request() {
        let server = Server::new(ServerConfig::paper_with_cstates(1));
        let arrivals = sparse_workload();
        let mut plain = FixedFrequency { mhz: 2100 };
        let awake = server.run(&arrivals, &mut plain, RunOptions::default());
        let mut sleepy = SleepAware::new(FixedFrequency { mhz: 2100 }, 1, SleepPolicy::default());
        let slept = server.run(&arrivals, &mut sleepy, RunOptions::default());
        // Requests after the first land on a C6-sleeping core: +100 us.
        let lat = |r: &deeppower_simd_server::SimResult, id: u64| {
            r.records.iter().find(|x| x.id == id).unwrap().latency
        };
        for id in 1..10u64 {
            let delta = lat(&slept, id) as i64 - lat(&awake, id) as i64;
            assert!(
                (90_000..=110_000).contains(&delta),
                "req {id}: expected ~100us wake penalty, got {delta} ns"
            );
        }
        // First request arrives at t=0 before any idle period: no penalty.
        assert!(lat(&slept, 0) == lat(&awake, 0));
    }

    #[test]
    fn sleep_ignored_without_cstate_plan() {
        // Same policy against a server with no C-states: commands are
        // no-ops, results identical to the plain governor.
        let server = Server::new(ServerConfig::paper_default(1));
        let arrivals = sparse_workload();
        let mut plain = FixedFrequency { mhz: 1500 };
        let base = server.run(&arrivals, &mut plain, RunOptions::default());
        let mut sleepy = SleepAware::new(FixedFrequency { mhz: 1500 }, 1, SleepPolicy::default());
        let res = server.run(&arrivals, &mut sleepy, RunOptions::default());
        assert_eq!(res.energy_j, base.energy_j);
        assert_eq!(res.stats.count, base.stats.count);
    }

    #[test]
    fn sleep_aware_thread_controller_holds_sla_on_xapian() {
        // DeepPower's bottom layer + sleep states on a light load: power
        // drops below the plain controller with no SLA damage (8 ms SLA
        // dwarfs the 100 us wake).
        let spec = AppSpec::get(App::Xapian);
        let server = Server::new(ServerConfig::paper_with_cstates(spec.n_threads));
        let arrivals = constant_rate_arrivals(&spec, spec.rps_for_load(0.15), 5 * SECOND, 9);
        let params = ControllerParams::new(0.2, 1.0);
        let mut plain = ThreadController::new(params);
        let base = server.run(&arrivals, &mut plain, RunOptions::default());
        let mut sleepy = SleepAware::new(
            ThreadController::new(params),
            spec.n_threads,
            SleepPolicy::default(),
        );
        let res = server.run(&arrivals, &mut sleepy, RunOptions::default());
        assert!(
            res.avg_power_w < base.avg_power_w * 0.95,
            "sleep states saved too little at low load: {:.1} vs {:.1} W",
            res.avg_power_w,
            base.avg_power_w
        );
        assert!(
            res.stats.p99_ns <= spec.sla,
            "sleep wake latency broke the SLA"
        );
    }

    #[test]
    fn per_tick_idle_commands_neither_wake_nor_rearm_sleeping_cores() {
        // `ThreadController::scale_all` re-commands every idle core's
        // BaseFreq level on every ShortTime tick. Under a SleepAware
        // wrapper those per-tick commands land on C1/C6-sleeping cores;
        // they must neither exit the sleep state nor reset the idle
        // timer — only a request dispatch wakes a core.
        let server = Server::new(ServerConfig::paper_with_cstates(1));
        let arrivals = sparse_workload();
        let opts = deeppower_simd_server::RunOptions {
            trace: deeppower_simd_server::TraceConfig::millisecond(),
            ..Default::default()
        };
        // base 0.3 interpolates well below the 2100 MHz start, so a real
        // frequency command is pending on the core when it goes to sleep.
        let params = ControllerParams::new(0.3, 1.0);
        let mut awake = ThreadController::new(params);
        let base = server.run(&arrivals, &mut awake, opts);
        let mut sleepy = SleepAware::new(ThreadController::new(params), 1, SleepPolicy::default());
        let slept = server.run(&arrivals, &mut sleepy, opts);

        // (1) Every post-gap request pays the full C6 wake latency: the
        // core was still in deep sleep at dispatch, so the per-tick
        // commands never woke it early.
        let lat = |r: &deeppower_simd_server::SimResult, id: u64| {
            r.records.iter().find(|x| x.id == id).unwrap().latency
        };
        for id in 1..10u64 {
            let delta = lat(&slept, id) as i64 - lat(&base, id) as i64;
            assert!(
                (90_000..=110_000).contains(&delta),
                "req {id}: commands disturbed the sleep state, wake delta {delta} ns"
            );
        }

        // (2) Sleep-entry timing is unchanged by the command stream: the
        // controller run reaches the C6 power floor just like a governor
        // that stops commanding idle cores entirely.
        let mut quiet = SleepAware::new(FixedFrequency { mhz: 1200 }, 1, SleepPolicy::default());
        let quiet_res = server.run(&arrivals, &mut quiet, opts);
        let idle_floor = |r: &deeppower_simd_server::SimResult| {
            r.traces
                .power
                .iter()
                .filter(|&&(_, _, _, busy)| busy == 0)
                .map(|&(_, p, _, _)| p)
                .fold(f64::INFINITY, f64::min)
        };
        let tc_floor = idle_floor(&slept);
        let quiet_floor = idle_floor(&quiet_res);
        assert!(
            (tc_floor - quiet_floor).abs() < 1e-9,
            "idle power floor differs: {tc_floor} vs {quiet_floor} W"
        );
        // And the floor is held for the bulk of each ~99 ms gap — a reset
        // idle timer would push C6 entry out by another idle_to_deep and
        // shrink this count. 10 gaps × ≥ 90 deep samples each.
        let deep_samples = |r: &deeppower_simd_server::SimResult, floor: f64| {
            r.traces
                .power
                .iter()
                .filter(|&&(_, p, _, busy)| busy == 0 && (p - floor).abs() < 1e-9)
                .count()
        };
        let tc_deep = deep_samples(&slept, tc_floor);
        let quiet_deep = deep_samples(&quiet_res, quiet_floor);
        assert!(
            tc_deep >= 850 && quiet_deep >= 850,
            "deep-sleep residency lost: controller {tc_deep} vs quiet {quiet_deep} samples"
        );
        assert!(
            (tc_deep as i64 - quiet_deep as i64).abs() <= 20,
            "idle timer rearmed by per-tick commands: {tc_deep} vs {quiet_deep} deep samples"
        );
    }

    #[test]
    #[should_panic(expected = "shallow threshold")]
    fn policy_threshold_order_enforced() {
        let _ = SleepAware::new(
            FixedFrequency { mhz: 800 },
            1,
            SleepPolicy {
                idle_to_c1: 10,
                idle_to_deep: 5,
            },
        );
    }
}
