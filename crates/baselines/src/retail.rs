//! ReTail (Chen et al., HPCA 2022), as described by the DeepPower paper.
//!
//! §2.2: "Retail selects the minimum frequency at which the execution of
//! all requests in the queue will not result in a timeout. Then Retail
//! uses this frequency to execute the first request in the queue." And
//! §6: "When a request arrives, Retail enumerates all the frequency levels
//! from small to large and stops when the frequency level is large enough
//! to avoid timing out."
//!
//! Frequency is therefore chosen **once per request**, at dequeue time
//! (the coarse granularity Fig. 9b contrasts against DeepPower's ramps):
//!
//! 1. predict the request's service time at the reference frequency with
//!    an OLS model over observable features;
//! 2. walk the levels from lowest to highest and pick the first `f` whose
//!    scaled prediction `pred · f_ref / f` (plus a safety margin) meets
//!    the request's remaining latency budget **and** drains the current
//!    backlog fast enough that queued requests keep their budgets;
//! 3. fall back to turbo if no level suffices.

use crate::linreg::LinReg;
use crate::profile::ProfileSample;
use deeppower_simd_server::{FreqCommands, FreqPlan, Governor, Request, ServerView};

/// ReTail tuning knobs.
#[derive(Clone, Debug)]
pub struct RetailConfig {
    /// Multiplicative safety margin on predictions (ReTail over-provisions
    /// slightly to absorb model error).
    pub margin: f64,
    /// Fraction of the SLA the backlog ahead of a queued request may
    /// consume before the dequeue frequency is raised.
    pub queue_budget_frac: f64,
}

impl Default for RetailConfig {
    fn default() -> Self {
        Self {
            margin: 1.25,
            queue_budget_frac: 0.2,
        }
    }
}

/// The ReTail governor.
pub struct RetailGovernor {
    model: LinReg,
    plan: FreqPlan,
    cfg: RetailConfig,
    /// Mean predicted service time (for backlog estimates).
    mean_pred_ns: f64,
}

impl RetailGovernor {
    /// Train from profiling samples (collected at a fixed load — the
    /// assumption §3.1 critiques).
    pub fn train(samples: &[ProfileSample], plan: FreqPlan, cfg: RetailConfig) -> Self {
        let xs: Vec<Vec<f32>> = samples.iter().map(|s| s.features.clone()).collect();
        let ys: Vec<f64> = samples.iter().map(|s| s.service_ns).collect();
        let model = LinReg::fit(&xs, &ys).expect("profile data degenerate");
        let mean_pred_ns = ys.iter().sum::<f64>() / ys.len() as f64;
        Self {
            model,
            plan,
            cfg,
            mean_pred_ns,
        }
    }

    /// Predicted service time of a request at the reference frequency.
    pub fn predict_ns(&self, features: &[f32]) -> f64 {
        self.model.predict(features).max(0.0)
    }

    /// The per-request frequency selection described above.
    fn select_freq(&self, view: &ServerView<'_>, req: &Request) -> u32 {
        let pred = self.predict_ns(&req.features) * self.cfg.margin;
        let budget = (req.arrival + req.sla).saturating_sub(view.now) as f64;
        let n_cores = view.cores.len().max(1) as f64;
        // Backlog the queue represents, per core, at reference frequency.
        let backlog_ref = view.queue.len() as f64 * self.mean_pred_ns / n_cores;
        let queue_budget = req.sla as f64 * self.cfg.queue_budget_frac;

        for &level in &self.plan.levels_mhz {
            let scale = self.plan.reference_mhz as f64 / level as f64;
            let own_ok = pred * scale <= budget;
            let queue_ok = backlog_ref * scale <= queue_budget;
            if own_ok && queue_ok {
                return level;
            }
        }
        self.plan.turbo_mhz
    }
}

impl Governor for RetailGovernor {
    fn on_request_start(
        &mut self,
        view: &ServerView<'_>,
        core_id: usize,
        req: &Request,
        cmds: &mut FreqCommands,
    ) {
        cmds.set(core_id, self.select_freq(view, req));
    }

    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        // Idle cores drop to the lowest level (ReTail only raises
        // frequency while a request is executing).
        for (i, core) in view.cores.iter().enumerate() {
            if !core.busy() {
                cmds.set(i, self.plan.min_mhz());
            }
        }
    }

    fn name(&self) -> &str {
        "retail"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::collect_profile;
    use deeppower_simd_server::{
        ContentionModel, PowerModel, RunOptions, Server, ServerConfig, MILLISECOND,
    };
    use deeppower_simd_server::{Features, SECOND};
    use deeppower_workload::{constant_rate_arrivals, App, AppSpec};

    fn trained(spec: &AppSpec) -> RetailGovernor {
        let samples = collect_profile(spec, 0.3, 2, 11);
        RetailGovernor::train(
            &samples,
            FreqPlan::xeon_gold_5218r(),
            RetailConfig::default(),
        )
    }

    #[test]
    fn short_requests_get_low_frequency_long_ones_high() {
        let spec = AppSpec::get(App::Xapian);
        let gov = trained(&spec);
        // A tiny predicted request with full budget → minimum level.
        // Feature ≈ normalized size; size 0.2 → short, size 5 → long tail.
        let plan = FreqPlan::xeon_gold_5218r();
        let mk = |feat: f32, budget_ms: u64| Request {
            id: 0,
            client_id: 0,
            attempt: 0,
            arrival: 0,
            first_arrival: 0,
            work_ref_ns: 0,
            freq_sensitivity: 1.0,
            sla: budget_ms * MILLISECOND,
            features: Features::from_slice(&[feat]),
        };
        let cores: Vec<deeppower_simd_server::CoreView> = Vec::new();
        let queue = std::collections::VecDeque::new();
        let view = ServerView {
            now: 0,
            queue: &queue,
            cores: &cores,
            total_arrived: 0,
            total_completed: 0,
            total_timeouts: 0,
            total_shed: 0,
            total_wasted: 0,
            energy_uj: 0,
        };
        let f_short = gov.select_freq(&view, &mk(0.2, 8));
        let f_long = gov.select_freq(&view, &mk(5.0, 8));
        assert!(f_short < f_long, "short {f_short} vs long {f_long}");
        assert_eq!(f_short, plan.min_mhz());
    }

    #[test]
    fn meets_sla_at_moderate_load_with_less_energy_than_max() {
        let spec = AppSpec::get(App::Xapian);
        let server = Server::new(ServerConfig {
            n_cores: spec.n_threads,
            freq_plan: FreqPlan::xeon_gold_5218r(),
            power: PowerModel::default(),
            contention: ContentionModel::default(),
            initial_mhz: 2100,
            cstates: deeppower_simd_server::CStatePlan::none(),
            core_max_mhz: Vec::new(),
        });
        let arrivals = constant_rate_arrivals(&spec, spec.rps_for_load(0.4), 5 * SECOND, 21);

        let mut retail = trained(&spec);
        let res_retail = server.run(&arrivals, &mut retail, RunOptions::default());

        let mut maxf = crate::max_freq_governor();
        let res_max = server.run(&arrivals, &mut maxf, RunOptions::default());

        assert!(
            res_retail.avg_power_w < res_max.avg_power_w * 0.95,
            "retail saved no power: {} vs {}",
            res_retail.avg_power_w,
            res_max.avg_power_w
        );
        // The paper's Fig. 7c shows ReTail with a small but non-zero
        // timeout rate (it "slightly violate[s] the SLA in Xapian").
        assert!(
            res_retail.stats.timeout_rate() < 0.03,
            "retail violated SLA: {}",
            res_retail.stats.timeout_rate()
        );
    }

    #[test]
    fn congested_queue_forces_higher_frequency() {
        let spec = AppSpec::get(App::Xapian);
        let gov = trained(&spec);
        let req = Request {
            id: 0,
            client_id: 0,
            attempt: 0,
            arrival: 0,
            first_arrival: 0,
            work_ref_ns: 0,
            freq_sensitivity: 1.0,
            sla: 8 * MILLISECOND,
            features: Features::from_slice(&[0.2]),
        };
        let cores: Vec<deeppower_simd_server::CoreView> = Vec::new();
        let empty = std::collections::VecDeque::new();
        let mut crowded = std::collections::VecDeque::new();
        for i in 0..400 {
            crowded.push_back(Request {
                id: i,
                client_id: i,
                attempt: 0,
                arrival: 0,
                first_arrival: 0,
                work_ref_ns: 0,
                freq_sensitivity: 1.0,
                sla: 8 * MILLISECOND,
                features: Features::from_slice(&[1.0]),
            });
        }
        let view_of = |q| ServerView {
            now: 0,
            queue: q,
            cores: &cores,
            total_arrived: 0,
            total_completed: 0,
            total_timeouts: 0,
            total_shed: 0,
            total_wasted: 0,
            energy_uj: 0,
        };
        let f_idle = gov.select_freq(&view_of(&empty), &req);
        let f_crowded = gov.select_freq(&view_of(&crowded), &req);
        assert!(
            f_crowded > f_idle,
            "queue pressure ignored: {f_crowded} vs {f_idle}"
        );
    }

    #[test]
    fn exhausted_budget_falls_back_to_turbo() {
        let spec = AppSpec::get(App::Xapian);
        let gov = trained(&spec);
        let req = Request {
            id: 0,
            client_id: 0,
            attempt: 0,
            arrival: 0,
            first_arrival: 0,
            work_ref_ns: 0,
            freq_sensitivity: 1.0,
            sla: 8 * MILLISECOND,
            features: Features::from_slice(&[3.0]),
        };
        let cores: Vec<deeppower_simd_server::CoreView> = Vec::new();
        let queue = std::collections::VecDeque::new();
        // The request has been queued for almost its whole SLA.
        let view = ServerView {
            now: 7_900_000,
            queue: &queue,
            cores: &cores,
            total_arrived: 0,
            total_completed: 0,
            total_timeouts: 0,
            total_shed: 0,
            total_wasted: 0,
            energy_uj: 0,
        };
        assert_eq!(
            gov.select_freq(&view, &req),
            FreqPlan::xeon_gold_5218r().turbo_mhz
        );
    }
}
