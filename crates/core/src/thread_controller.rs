//! The thread controller — Algorithm 1 of the paper.
//!
//! Every `ShortTime` the controller walks all cores. For core *i*
//! processing a request that began at `beginTimes[i]`:
//!
//! ```text
//! consumed = (curTime − beginTimes[i]) / SLA
//! score    = consumed · ScalingCoef + BaseFreq
//! if score ≥ 1 → turbo
//! else        → freq = f_min + (f_max − f_min) · score
//! ```
//!
//! so short requests finish at low frequency while long-running ones are
//! *gradually* accelerated toward turbo — the per-millisecond ramps
//! visible in Fig. 4. Idle cores sit at the `BaseFreq`-interpolated
//! frequency (Fig. 4: "If there is no request processing, the frequency is
//! set to BaseFreq").
//!
//! "Begin time" is the request's *arrival* (the score must reflect how
//! close the request is to its latency SLA, which is measured from
//! arrival — a request that queued for long must be boosted immediately).

use deeppower_simd_server::{FreqCommands, Governor, ServerView};
use serde::{Deserialize, Serialize};

/// The parameters the DRL agent controls (§4.4.3), all in `[0, 1]`
/// (`scaling_coef` may exceed 1; the score cap handles it).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ControllerParams {
    pub base_freq: f32,
    pub scaling_coef: f32,
    /// Admission threshold for the overload co-management extension, as
    /// a fraction of the server's admission scale. `1.0` — the value
    /// two-action (paper-faithful) policies always carry — admits up to
    /// the full scale, i.e. the legacy behaviour.
    pub admit_frac: f32,
}

impl ControllerParams {
    pub fn new(base_freq: f32, scaling_coef: f32) -> Self {
        // `clamp`/`max` pass NaN through, and a NaN `base_freq` would
        // interpolate to the *minimum* frequency level — the worst
        // possible response to a broken actor. Sanitize to 0.0 so a
        // non-finite action degrades to a well-defined (if conservative)
        // controller; the safety layer handles the recovery.
        let base_freq = if base_freq.is_finite() {
            base_freq
        } else {
            0.0
        };
        let scaling_coef = if scaling_coef.is_finite() {
            scaling_coef
        } else {
            0.0
        };
        Self {
            base_freq: base_freq.clamp(0.0, 1.0),
            scaling_coef: scaling_coef.max(0.0),
            admit_frac: 1.0,
        }
    }

    /// From a raw DRL action vector: `[base_freq, scaling_coef]` for the
    /// paper's two-action policy, or `[base_freq, scaling_coef,
    /// admit_frac]` for the admission-co-managed extension.
    pub fn from_action(action: &[f32]) -> Self {
        assert!(
            action.len() == 2 || action.len() == 3,
            "controller action must be 2- or 3-dimensional, got {}",
            action.len()
        );
        let mut p = Self::new(action[0], action[1]);
        if action.len() == 3 {
            // Same sanitization as the frequency knobs: a non-finite
            // admission head degrades to admit-all, never to reject-all.
            p.admit_frac = if action[2].is_finite() {
                action[2].clamp(0.0, 1.0)
            } else {
                1.0
            };
        }
        p
    }
}

impl Default for ControllerParams {
    fn default() -> Self {
        // A safe mid-range starting point before the agent takes over.
        Self {
            base_freq: 0.5,
            scaling_coef: 0.5,
            admit_frac: 1.0,
        }
    }
}

/// Algorithm 1 as a standalone [`Governor`]. With fixed parameters this is
/// exactly the Fig. 11 experiment; inside [`crate::DeepPowerGovernor`] the
/// parameters are re-written by the DRL agent every `LongTime`.
#[derive(Clone, Copy, Debug)]
pub struct ThreadController {
    pub params: ControllerParams,
}

impl ThreadController {
    pub fn new(params: ControllerParams) -> Self {
        Self { params }
    }

    /// The score of Algorithm 1 line 5 for a request that has consumed
    /// `consumed_frac` of its SLA.
    pub fn score(&self, consumed_frac: f32) -> f32 {
        consumed_frac * self.params.scaling_coef + self.params.base_freq
    }

    /// Apply Algorithm 1's body to every core given the current view,
    /// and publish the admission threshold (consumed only by servers
    /// running a DRL-admission overload plan; a no-op everywhere else).
    pub fn scale_all(&self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        cmds.set_admission(self.params.admit_frac);
        for (core_id, core) in view.cores.iter().enumerate() {
            match &core.running {
                Some(run) => {
                    let consumed = (view.now.saturating_sub(run.arrival)) as f32 / run.sla as f32;
                    let score = self.score(consumed);
                    if score >= 1.0 {
                        cmds.set_turbo(core_id); // Algorithm 1 line 7
                    } else {
                        let mhz = cmds.interpolate(score); // Algorithm 1 line 9
                        cmds.set(core_id, mhz);
                    }
                }
                None => {
                    // Idle: hold at the BaseFreq level.
                    let score = self.params.base_freq;
                    if score >= 1.0 {
                        cmds.set_turbo(core_id);
                    } else {
                        let mhz = cmds.interpolate(score);
                        cmds.set(core_id, mhz);
                    }
                }
            }
        }
    }
}

impl Governor for ThreadController {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        self.scale_all(view, cmds);
    }

    fn name(&self) -> &str {
        "thread-controller"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeppower_simd_server::{
        ContentionModel, FreqPlan, PowerModel, Request, RunOptions, Server, ServerConfig,
        SimResult, TraceConfig, MILLISECOND,
    };
    use deeppower_telemetry::{freq_series, Event, Recorder};

    fn server(n: usize) -> Server {
        Server::new(ServerConfig {
            n_cores: n,
            freq_plan: FreqPlan::xeon_gold_5218r(),
            power: PowerModel::default(),
            contention: ContentionModel::none(),
            initial_mhz: 2100,
            cstates: deeppower_simd_server::CStatePlan::none(),
            core_max_mhz: Vec::new(),
        })
    }

    fn req(id: u64, arrival: u64, work: u64, sla: u64) -> Request {
        Request {
            id,
            client_id: id,
            attempt: 0,
            arrival,
            first_arrival: arrival,
            work_ref_ns: work,
            freq_sensitivity: 1.0,
            sla,
            features: Default::default(),
        }
    }

    /// Run `arrivals` under `tc` at 1 ms ticks with the per-core event
    /// stream on.
    fn run_traced(
        s: &Server,
        arrivals: &[Request],
        tc: &mut ThreadController,
    ) -> (SimResult, Vec<Event>) {
        let rec = Recorder::ring(1 << 14);
        let res = s.run_recorded(
            arrivals,
            tc,
            RunOptions {
                tick_ns: MILLISECOND,
                trace: TraceConfig { events: true },
                ..Default::default()
            },
            &rec,
        );
        assert_eq!(rec.dropped_events(), 0);
        (res, rec.drain_events())
    }

    /// Every frequency level any core (or only `core`) held for a
    /// nonzero time.
    fn levels(events: &[Event], core: Option<u64>) -> Vec<u32> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::CoreResidency(r) if core.is_none_or(|c| c == r.core) => Some(r.mhz),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn params_clamped_to_unit_range() {
        let p = ControllerParams::new(-0.5, 1.5);
        assert_eq!(p.base_freq, 0.0);
        assert_eq!(p.scaling_coef, 1.5); // coef may exceed 1 (score cap handles it)
        let p = ControllerParams::from_action(&[0.3, 0.9]);
        assert_eq!(p, ControllerParams::new(0.3, 0.9));
        assert_eq!(p.admit_frac, 1.0, "2-action policies admit everything");
        let p3 = ControllerParams::from_action(&[0.3, 0.9, 0.4]);
        assert_eq!(p3.admit_frac, 0.4);
        let p3 = ControllerParams::from_action(&[0.3, 0.9, f32::NAN]);
        assert_eq!(p3.admit_frac, 1.0, "broken admission head → admit-all");
        assert!(std::panic::catch_unwind(|| ControllerParams::from_action(&[0.1])).is_err());
    }

    #[test]
    fn score_formula_matches_algorithm1() {
        let tc = ThreadController::new(ControllerParams::new(0.4, 1.0));
        assert!((tc.score(0.0) - 0.4).abs() < 1e-6);
        assert!((tc.score(0.3) - 0.7).abs() < 1e-6);
        assert!(tc.score(0.6) >= 1.0); // turbo region
    }

    #[test]
    fn long_request_ramps_frequency_up_to_turbo() {
        // One request with SLA 10 ms and ~18 ms of min-frequency work:
        // the controller must ramp it through the levels into turbo.
        let s = server(1);
        let mut tc = ThreadController::new(ControllerParams::new(0.2, 1.2));
        let arrivals = vec![req(0, 0, 7 * MILLISECOND, 10 * MILLISECOND)];
        let (res, events) = run_traced(&s, &arrivals, &mut tc);
        let freqs: Vec<u32> = freq_series(&events, 0, 2100, res.duration_ns, MILLISECOND)
            .into_iter()
            .map(|(_, f)| f)
            .collect();
        // Frequency is non-decreasing while the request runs.
        assert!(
            freqs.windows(2).all(|w| w[1] >= w[0] || w[1] == 800),
            "freq not ramping: {freqs:?}"
        );
        // Reaches turbo before completion (score crosses 1 at 6.67 ms).
        assert!(freqs.contains(&3000), "never hit turbo: {freqs:?}");
        assert_eq!(res.stats.count, 1);
    }

    #[test]
    fn short_request_finishes_at_low_frequency() {
        let s = server(1);
        let mut tc = ThreadController::new(ControllerParams::new(0.1, 0.5));
        // 0.35 ms of work at reference; at the initial interpolated level
        // (~930 MHz) it still finishes well within 10 % of SLA → never
        // leaves the bottom levels.
        let arrivals = vec![req(0, 0, 350_000, 10 * MILLISECOND)];
        let (res, events) = run_traced(&s, &arrivals, &mut tc);
        let max_freq = levels(&events, None).into_iter().max().unwrap();
        assert!(
            max_freq <= 1000,
            "short request over-accelerated: {max_freq}"
        );
        assert_eq!(res.stats.timeouts, 0);
    }

    #[test]
    fn idle_cores_sit_at_base_freq_level() {
        let s = server(2);
        let mut tc = ThreadController::new(ControllerParams::new(0.5, 1.0));
        // Only one long request → core 1 stays idle.
        let arrivals = vec![req(0, 0, 3 * MILLISECOND, 100 * MILLISECOND)];
        let (_, events) = run_traced(&s, &arrivals, &mut tc);
        let idle_freqs = levels(&events, Some(1));
        // base 0.5 → 800 + 1300·0.5 = 1450 → snaps to 1400 or 1500.
        assert!(
            idle_freqs.iter().all(|&f| f == 1400 || f == 1500),
            "idle core not at base level: {idle_freqs:?}"
        );
    }

    #[test]
    fn interpolation_follows_the_servers_plan_not_the_xeon_band() {
        // Regression: interpolate_cmd used to hardcode the Xeon
        // 800–2100 MHz band, so a server on FreqPlan::test_plan()
        // (1000–2000 MHz) received out-of-band commands. The controller
        // must interpolate inside the *actual* plan.
        let plan = FreqPlan::test_plan();
        let s = Server::new(ServerConfig {
            n_cores: 2,
            freq_plan: plan.clone(),
            power: PowerModel::default(),
            contention: ContentionModel::none(),
            initial_mhz: 2000,
            cstates: deeppower_simd_server::CStatePlan::none(),
            core_max_mhz: Vec::new(),
        });
        // base 0.5 → 1000 + 1000·0.5 = 1500 exactly (a plan level).
        let mut tc = ThreadController::new(ControllerParams::new(0.5, 0.0));
        let arrivals = vec![req(0, 0, 3 * MILLISECOND, 100 * MILLISECOND)];
        let (_, events) = run_traced(&s, &arrivals, &mut tc);
        let freqs = levels(&events, None);
        assert!(!freqs.is_empty());
        assert!(
            freqs.iter().all(|&f| f == 1500),
            "expected every core at the plan midpoint 1500, got {freqs:?}"
        );

        // And the command buffer interpolates the plan band directly.
        let cmds = FreqCommands::new(1, &plan);
        assert_eq!(cmds.freq_band_mhz(), (1000, 2000));
        assert_eq!(cmds.interpolate(0.0), 1000);
        assert_eq!(cmds.interpolate(1.0), 2000);
        assert_eq!(cmds.interpolate(0.5), 1500);
    }

    #[test]
    fn base_freq_one_means_permanent_turbo() {
        let s = server(1);
        let mut tc = ThreadController::new(ControllerParams::new(1.0, 0.0));
        let arrivals = vec![req(0, 0, MILLISECOND, 10 * MILLISECOND)];
        let (_, events) = run_traced(&s, &arrivals, &mut tc);
        assert_eq!(levels(&events, None), [3000]);
    }

    #[test]
    fn queued_wait_time_counts_toward_score() {
        // Two requests on one core; the second queues behind the first.
        // When it finally starts, its consumed fraction is already high →
        // immediate boost. We verify it runs faster than the first did.
        let s = server(1);
        let mut tc = ThreadController::new(ControllerParams::new(0.0, 1.1));
        let arrivals = vec![
            req(0, 0, 4 * MILLISECOND, 10 * MILLISECOND),
            req(1, 0, 4 * MILLISECOND, 10 * MILLISECOND),
        ];
        let res = s.run(
            &arrivals,
            &mut tc,
            RunOptions {
                tick_ns: MILLISECOND,
                ..Default::default()
            },
        );
        let r0 = res.records.iter().find(|r| r.id == 0).unwrap();
        let r1 = res.records.iter().find(|r| r.id == 1).unwrap();
        let service0 = r0.completed - r0.started;
        let service1 = r1.completed - r1.started;
        assert!(
            service1 < service0,
            "queued request was not boosted: {service1} vs {service0}"
        );
    }
}
