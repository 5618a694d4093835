//! Gemini (Zhou et al., MICRO 2020), as described by the DeepPower paper.
//!
//! §2.2: "Gemini created a two-stage frequency boost method utilizing the
//! prediction model. The method sets a baseline frequency, and will
//! increase it to the maximum frequency if the queue of waiting requests
//! risks timing out." And §6: "Gemini … uses a neural network for service
//! time prediction. Gemini selects a low frequency of a request and boosts
//! the frequency when the request is going to time out."
//!
//! Two stages per request:
//!
//! 1. **Base stage** (at dequeue): pick the lowest level whose scaled
//!    NN-predicted service time fits in a fraction of the remaining
//!    budget.
//! 2. **Boost stage** (checked every tick): if the predicted remaining
//!    work no longer fits the remaining budget — or queued requests are
//!    close to their deadlines — jump the core to the maximum frequency.
//!    The boost is one-way for the request's lifetime (the "once or twice
//!    per request" granularity Fig. 9c shows).

use crate::profile::ProfileSample;
use deeppower_nn::{mse_loss, ActivationKind, Adam, AdamConfig, Matrix, Sequential};
use deeppower_simd_server::{FreqCommands, FreqPlan, Governor, Nanos, Request, ServerView};
use rand::{rngs::StdRng, SeedableRng};

/// Small-MLP service-time predictor (Gemini's neural network).
pub(crate) struct NnPredictor {
    net: Sequential,
    /// Feature/target scales for stable training.
    y_scale: f64,
}

impl NnPredictor {
    /// Train on profiling samples: features → service time (ns).
    pub(crate) fn train(samples: &[ProfileSample], epochs: usize, seed: u64) -> Self {
        assert!(
            !samples.is_empty(),
            "cannot train predictor on empty profile"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let in_dim = samples[0].features.len();
        let mut net = Sequential::mlp(
            &mut rng,
            &[in_dim, 16, 8, 1],
            ActivationKind::Relu,
            ActivationKind::Identity,
        );
        let y_scale = samples.iter().map(|s| s.service_ns).sum::<f64>() / samples.len() as f64;
        let mut opt = Adam::new(
            AdamConfig {
                lr: 3e-3,
                ..Default::default()
            },
            &net,
        );

        // Mini-batch SGD over shuffled windows.
        let batch = 64.min(samples.len());
        let n_batches = samples.len() / batch;
        for epoch in 0..epochs {
            for b in 0..n_batches {
                // Deterministic "shuffle": stride through the data with an
                // epoch-dependent offset.
                let rows: Vec<&ProfileSample> = (0..batch)
                    .map(|i| &samples[(b * batch + i * 7 + epoch * 13) % samples.len()])
                    .collect();
                let x = Matrix::from_rows(
                    &rows
                        .iter()
                        .map(|s| s.features.as_slice())
                        .collect::<Vec<_>>(),
                );
                let t_rows: Vec<Vec<f32>> = rows
                    .iter()
                    .map(|s| vec![(s.service_ns / y_scale) as f32])
                    .collect();
                let t = Matrix::from_rows(&t_rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>());
                net.zero_grad();
                let y = net.forward(&x);
                let (_, g) = mse_loss(&y, &t);
                let _ = net.backward(&g);
                opt.step(&mut net);
            }
        }
        Self { net, y_scale }
    }

    /// Predicted service time at the reference frequency, ns.
    pub(crate) fn predict_ns(&self, features: &[f32]) -> f64 {
        let y = self.net.forward_inference(&Matrix::from_row(features));
        (y.as_slice()[0] as f64 * self.y_scale).max(0.0)
    }
}

/// Gemini tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct GeminiConfig {
    /// Fraction of the remaining budget the base-stage prediction may
    /// consume (the rest is boost headroom).
    pub base_budget_frac: f64,
    /// Safety margin on predictions.
    pub margin: f64,
    /// Boost when remaining budget falls below `boost_slack_frac · SLA`
    /// with predicted work still outstanding.
    pub boost_slack_frac: f64,
}

impl Default for GeminiConfig {
    fn default() -> Self {
        Self {
            base_budget_frac: 0.7,
            margin: 1.1,
            boost_slack_frac: 0.25,
        }
    }
}

struct InFlight {
    /// Predicted total service time at reference frequency.
    pred_ref_ns: f64,
    base_mhz: u32,
    started: Nanos,
    deadline: Nanos,
    boosted: bool,
}

/// The Gemini governor.
pub struct GeminiGovernor {
    predictor: NnPredictor,
    plan: FreqPlan,
    cfg: GeminiConfig,
    inflight: Vec<Option<InFlight>>,
}

impl GeminiGovernor {
    pub(crate) fn new(
        predictor: NnPredictor,
        plan: FreqPlan,
        n_cores: usize,
        cfg: GeminiConfig,
    ) -> Self {
        Self {
            predictor,
            plan,
            cfg,
            inflight: (0..n_cores).map(|_| None).collect(),
        }
    }

    /// Train the NN predictor from profile data and build the governor.
    pub fn train(
        samples: &[ProfileSample],
        plan: FreqPlan,
        n_cores: usize,
        cfg: GeminiConfig,
        seed: u64,
    ) -> Self {
        Self::new(NnPredictor::train(samples, 12, seed), plan, n_cores, cfg)
    }

    fn base_freq_for(&self, pred_ns: f64, budget_ns: f64) -> u32 {
        let usable = budget_ns * self.cfg.base_budget_frac;
        for &level in &self.plan.levels_mhz {
            let scale = self.plan.reference_mhz as f64 / level as f64;
            if pred_ns * scale <= usable {
                return level;
            }
        }
        self.plan.max_mhz()
    }
}

impl Governor for GeminiGovernor {
    fn on_request_start(
        &mut self,
        view: &ServerView<'_>,
        core_id: usize,
        req: &Request,
        cmds: &mut FreqCommands,
    ) {
        let pred = self.predictor.predict_ns(&req.features) * self.cfg.margin;
        let deadline = req.arrival + req.sla;
        let budget = deadline.saturating_sub(view.now) as f64;
        let base = self.base_freq_for(pred, budget);
        cmds.set(core_id, base);
        self.inflight[core_id] = Some(InFlight {
            pred_ref_ns: pred,
            base_mhz: base,
            started: view.now,
            deadline,
            boosted: false,
        });
    }

    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        for (core_id, core) in view.cores.iter().enumerate() {
            match (&core.running, &mut self.inflight[core_id]) {
                (Some(run), Some(fl)) if !fl.boosted => {
                    // Work retired so far, in reference time, assuming the
                    // base frequency's linear scaling.
                    let elapsed = view.now.saturating_sub(fl.started) as f64;
                    let scale = self.plan.reference_mhz as f64 / fl.base_mhz as f64;
                    let retired_ref = elapsed / scale;
                    let remaining_ref = (fl.pred_ref_ns - retired_ref).max(0.0);
                    let remaining_budget = fl.deadline.saturating_sub(view.now) as f64;
                    let slack_floor = run.sla as f64 * self.cfg.boost_slack_frac;
                    let at_risk = remaining_ref * scale + slack_floor > remaining_budget;
                    if at_risk {
                        cmds.set(core_id, self.plan.max_mhz());
                        fl.boosted = true;
                    }
                }
                (None, slot @ Some(_)) => {
                    // Completed since the last tick; idle to the floor.
                    *slot = None;
                    cmds.set(core_id, self.plan.min_mhz());
                }
                (None, None) => cmds.set(core_id, self.plan.min_mhz()),
                _ => {}
            }
        }
    }

    fn on_request_complete(&mut self, _now: Nanos, core_id: usize, _req: &Request, _lat: Nanos) {
        self.inflight[core_id] = None;
    }

    fn name(&self) -> &str {
        "gemini"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::collect_profile;
    use deeppower_simd_server::{Features, RunOptions, Server, ServerConfig, SECOND};
    use deeppower_workload::{constant_rate_arrivals, App, AppSpec};

    fn trained(spec: &AppSpec) -> GeminiGovernor {
        let samples = collect_profile(spec, 0.3, 2, 31);
        GeminiGovernor::train(
            &samples,
            FreqPlan::xeon_gold_5218r(),
            spec.n_threads,
            GeminiConfig::default(),
            5,
        )
    }

    #[test]
    fn nn_predictor_learns_service_time() {
        let spec = AppSpec::get(App::Xapian);
        let samples = collect_profile(&spec, 0.3, 2, 41);
        let predictor = NnPredictor::train(&samples, 12, 1);
        // Relative RMSE against held-in data should be small.
        let sse: f64 = samples
            .iter()
            .map(|s| {
                let e = predictor.predict_ns(&s.features) - s.service_ns;
                e * e
            })
            .sum();
        let rmse = (sse / samples.len() as f64).sqrt();
        let mean = samples.iter().map(|s| s.service_ns).sum::<f64>() / samples.len() as f64;
        // The hidden service-time variance bounds how good any predictor
        // can be; the NN should still clearly beat a mean predictor.
        assert!(rmse / mean < 0.7, "NN relative RMSE {}", rmse / mean);
        // Larger feature → longer prediction.
        assert!(predictor.predict_ns(&[3.0]) > predictor.predict_ns(&[0.3]));
    }

    #[test]
    fn base_stage_picks_low_frequency_with_ample_budget() {
        let spec = AppSpec::get(App::Xapian);
        let gov = trained(&spec);
        let pred = 500_000.0; // 0.5 ms
        let f = gov.base_freq_for(pred, 8_000_000.0);
        assert_eq!(f, gov.plan.min_mhz());
        // Tight budget → max.
        let f = gov.base_freq_for(pred, 520_000.0);
        assert!(f >= 2000, "tight budget got {f}");
    }

    #[test]
    fn gemini_saves_power_and_roughly_meets_sla() {
        let spec = AppSpec::get(App::Xapian);
        let server = Server::new(ServerConfig::paper_default(spec.n_threads));
        let arrivals = constant_rate_arrivals(&spec, spec.rps_for_load(0.4), 5 * SECOND, 51);

        let mut gem = trained(&spec);
        let res_gem = server.run(&arrivals, &mut gem, RunOptions::default());
        let mut maxf = crate::max_freq_governor();
        let res_max = server.run(&arrivals, &mut maxf, RunOptions::default());

        assert!(
            res_gem.avg_power_w < res_max.avg_power_w * 0.95,
            "gemini saved no power: {} vs {}",
            res_gem.avg_power_w,
            res_max.avg_power_w
        );
        assert!(
            res_gem.stats.timeout_rate() < 0.05,
            "gemini timeout rate {}",
            res_gem.stats.timeout_rate()
        );
    }

    #[test]
    fn boost_fires_when_request_runs_long() {
        // Build a predictor that underestimates: a request that actually
        // takes much longer than predicted must get boosted to max.
        let spec = AppSpec::get(App::Xapian);
        let server = Server::new(ServerConfig::paper_default(1));
        let samples = collect_profile(&spec, 0.2, 1, 61);
        let mut gov = GeminiGovernor::train(
            &samples,
            FreqPlan::xeon_gold_5218r(),
            1,
            GeminiConfig::default(),
            5,
        );
        // True work far above what feature 0.5 suggests (~0.45 ms).
        let req = deeppower_simd_server::Request {
            id: 0,
            client_id: 0,
            attempt: 0,
            arrival: 0,
            first_arrival: 0,
            work_ref_ns: 5_000_000,
            freq_sensitivity: 1.0,
            sla: 8_000_000,
            features: Features::from_slice(&[0.5]),
        };
        let rec = deeppower_telemetry::Recorder::ring(1 << 10);
        let res = server.run_recorded(&[req], &mut gov, RunOptions::default(), &rec);
        let max_seen = rec
            .drain_events()
            .iter()
            .filter_map(|e| match e {
                deeppower_telemetry::Event::CoreResidency(r) => Some(r.mhz),
                _ => None,
            })
            .max()
            .unwrap();
        assert_eq!(max_seen, 2100, "boost to max never happened");
        assert_eq!(res.stats.count, 1);
    }
}
