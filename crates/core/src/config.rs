//! DeepPower configuration.

use deeppower_drl::DdpgConfig;
use deeppower_simd_server::{Nanos, MILLISECOND, SECOND};
use serde::{Deserialize, Serialize};

/// Normalization caps for the 8-dimensional state vector (§4.4.1 asks for
/// "a normalized state vector"; the caps put every component on a roughly
/// unit scale so the small actor MLP trains well).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StateNorm {
    /// Expected arrivals per `LongTime` at full load (NumReq divisor).
    pub num_req_cap: f32,
    /// Queue-length divisor (QueueLen and QueueX).
    pub queue_cap: f32,
    /// Core-count divisor (CoreX) — the number of worker threads.
    pub core_cap: f32,
}

impl Default for StateNorm {
    fn default() -> Self {
        Self {
            num_req_cap: 1000.0,
            queue_cap: 200.0,
            core_cap: 20.0,
        }
    }
}

/// All DeepPower hyper-parameters. Paper defaults throughout (§4.4, §4.6).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DeepPowerConfig {
    /// Thread-controller period (`ShortTime`, 1 ms default).
    pub short_time: Nanos,
    /// DRL decision period (`LongTime`, 1 s default).
    pub long_time: Nanos,
    /// Reward weight on energy.
    pub alpha: f64,
    /// Reward weight on timeouts.
    pub beta: f64,
    /// Reward weight on queue growth.
    pub gamma_q: f64,
    /// Reward weight on wasted work — completions whose client already
    /// abandoned (overload co-management extension). `0.0` keeps the
    /// paper's three-term reward bit-identically.
    pub kappa: f64,
    /// Queue-penalty threshold η of `scaleFunc` (§4.4.2; Fig. 5 uses 100).
    pub eta: f64,
    pub state_norm: StateNorm,
    /// DDPG gradient updates performed per DRL step (the paper does one;
    /// more squeezes extra learning out of short simulated episodes).
    pub updates_per_step: u32,
    pub ddpg: DdpgConfig,
}

impl Default for DeepPowerConfig {
    fn default() -> Self {
        Self {
            short_time: MILLISECOND,
            long_time: SECOND,
            alpha: 1.0,
            beta: 4.0,
            gamma_q: 1.0,
            kappa: 0.0,
            eta: 100.0,
            state_norm: StateNorm::default(),
            updates_per_step: 1,
            ddpg: DdpgConfig::default(),
        }
    }
}

impl DeepPowerConfig {
    /// Scale the state caps and controller cadence to an application: the
    /// paper notes `ShortTime`/`LongTime` "can be changed according to the
    /// service time of different applications" (§4.6). Long-service apps
    /// (Sphinx) use a coarser controller tick; caps follow the app's
    /// capacity.
    pub(crate) fn for_app(n_threads: usize, capacity_rps: f64, mean_service_ns: f64) -> Self {
        let mut cfg = Self::default();
        cfg.state_norm.core_cap = n_threads as f32;
        cfg.state_norm.num_req_cap = (capacity_rps * cfg.long_time as f64 / SECOND as f64) as f32;
        cfg.state_norm.queue_cap = (cfg.state_norm.num_req_cap * 0.2).max(50.0);
        // Controller period ≈ service time / 5, clamped to [1 ms, 100 ms].
        let st = (mean_service_ns / 5.0) as Nanos;
        cfg.short_time = st.clamp(MILLISECOND, 100 * MILLISECOND);
        cfg.eta = (cfg.state_norm.queue_cap as f64 * 0.5).max(20.0);
        cfg
    }

    /// Ticks of the thread controller per DRL step.
    pub(crate) fn ticks_per_long(&self) -> u64 {
        (self.long_time / self.short_time).max(1)
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.short_time == 0 || self.long_time == 0 {
            return Err("control periods must be positive".into());
        }
        if self.long_time < self.short_time {
            return Err("LongTime must be >= ShortTime".into());
        }
        if self.alpha < 0.0 || self.beta < 0.0 || self.gamma_q < 0.0 || self.kappa < 0.0 {
            return Err("reward weights must be non-negative".into());
        }
        if self.eta <= 0.0 {
            return Err("eta must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = DeepPowerConfig::default();
        assert_eq!(c.short_time, MILLISECOND);
        assert_eq!(c.long_time, SECOND);
        assert_eq!(c.ticks_per_long(), 1000);
        assert_eq!(c.eta, 100.0);
        c.validate().unwrap();
    }

    #[test]
    fn for_app_scales_caps_and_cadence() {
        // Sphinx-like: 20 threads, 620 ms mean service → coarse ticks.
        let c = DeepPowerConfig::for_app(20, 32.0, 620.0 * MILLISECOND as f64);
        assert_eq!(c.short_time, 100 * MILLISECOND);
        assert_eq!(c.state_norm.core_cap, 20.0);
        assert!((c.state_norm.num_req_cap - 32.0).abs() < 1.0);
        c.validate().unwrap();
        // Masstree-like: sub-ms service clamps to 1 ms.
        let c = DeepPowerConfig::for_app(8, 94_000.0, 85_000.0);
        assert_eq!(c.short_time, MILLISECOND);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let d = DeepPowerConfig::default();
        let c = DeepPowerConfig {
            long_time: d.short_time / 2,
            ..d
        };
        assert!(c.validate().is_err());
        let c = DeepPowerConfig { eta: 0.0, ..d };
        assert!(c.validate().is_err());
        let c = DeepPowerConfig { beta: -1.0, ..d };
        assert!(c.validate().is_err());
    }
}
