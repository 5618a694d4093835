//! Diurnal RPS trace generation — the stand-in for the Alibaba e-commerce
//! search benchmark trace of Fig. 6.
//!
//! §4.3/§5.2: "RPS exhibits a diurnal pattern … we utilize the E-commerce
//! search benchmark, which records RPS of an e-commerce search system
//! during one month … We downsample the time series to shorten the period
//! (360 s by default) and multiply the RPS by a factor to make the tail
//! latency close to SLA when running without frequency scaling."
//!
//! The generator reproduces those qualitative features deterministically:
//! a dominant daily harmonic, a secondary half-day harmonic (lunch/evening
//! peaks), occasional flash-crowd bursts, and AR(1) jitter.

use crate::distributions::standard_normal;
use deeppower_simd_server::{Nanos, SECOND};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Trace generation parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DiurnalConfig {
    /// Downsampled period length in seconds (paper default: 360 s).
    pub period_s: u64,
    /// Sampling slot width in seconds.
    pub slot_s: u64,
    /// Mean RPS around which the pattern oscillates.
    pub base_rps: f64,
    /// Relative amplitude of the daily harmonic (0.5 ⇒ ±50 %).
    pub daily_amplitude: f64,
    /// Relative amplitude of the half-day harmonic.
    pub half_day_amplitude: f64,
    /// Per-slot probability of starting a flash-crowd burst.
    pub burst_prob: f64,
    /// Burst magnitude relative to base (e.g. 0.6 ⇒ +60 %).
    pub burst_magnitude: f64,
    /// Burst duration in slots.
    pub burst_slots: u64,
    /// AR(1) jitter: correlation coefficient and innovation scale
    /// (relative to base).
    pub jitter_rho: f64,
    pub jitter_scale: f64,
}

impl Default for DiurnalConfig {
    fn default() -> Self {
        Self {
            period_s: 360,
            slot_s: 1,
            base_rps: 1000.0,
            daily_amplitude: 0.45,
            half_day_amplitude: 0.15,
            burst_prob: 0.01,
            burst_magnitude: 0.5,
            burst_slots: 8,
            jitter_rho: 0.8,
            jitter_scale: 0.05,
        }
    }
}

/// A concrete RPS time series with linear interpolation between slots.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DiurnalTrace {
    slot_ns: Nanos,
    rps: Vec<f64>,
}

impl DiurnalTrace {
    /// Generate a trace from config and seed (fully deterministic).
    pub fn generate(cfg: &DiurnalConfig, seed: u64) -> Self {
        assert!(
            cfg.period_s > 0 && cfg.slot_s > 0,
            "period and slot must be positive"
        );
        assert!(cfg.base_rps > 0.0, "base rps must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let n_slots = (cfg.period_s / cfg.slot_s).max(1) as usize;
        let mut rps = Vec::with_capacity(n_slots);
        let mut jitter = 0.0f64;
        let mut burst_left = 0u64;
        for i in 0..n_slots {
            let phase = i as f64 / n_slots as f64 * std::f64::consts::TAU;
            // Daily harmonic peaks mid-period ("afternoon"), trough at the
            // edges ("early morning").
            let daily = cfg.daily_amplitude * (phase - std::f64::consts::FRAC_PI_2).sin();
            let half_day = cfg.half_day_amplitude * (2.0 * phase).sin();
            jitter = cfg.jitter_rho * jitter
                + cfg.jitter_scale
                    * standard_normal(&mut rng)
                    * (1.0 - cfg.jitter_rho.powi(2)).sqrt();
            if burst_left == 0 && rng.random::<f64>() < cfg.burst_prob {
                burst_left = cfg.burst_slots;
            }
            let burst = if burst_left > 0 {
                burst_left -= 1;
                cfg.burst_magnitude
            } else {
                0.0
            };
            let v = cfg.base_rps * (1.0 + daily + half_day + jitter + burst);
            rps.push(v.max(cfg.base_rps * 0.05));
        }
        Self {
            slot_ns: cfg.slot_s * SECOND,
            rps,
        }
    }

    /// Build directly from samples (e.g. replaying a recorded trace).
    pub fn from_samples(slot_ns: Nanos, rps: Vec<f64>) -> Self {
        assert!(!rps.is_empty(), "trace needs at least one slot");
        assert!(rps.iter().all(|&x| x >= 0.0), "negative RPS");
        Self { slot_ns, rps }
    }

    /// Total trace duration.
    pub fn duration_ns(&self) -> Nanos {
        self.slot_ns * self.rps.len() as Nanos
    }

    pub fn n_slots(&self) -> usize {
        self.rps.len()
    }

    pub(crate) fn slot_ns(&self) -> Nanos {
        self.slot_ns
    }

    /// Instantaneous RPS at `t` (linear interpolation; clamps past the end).
    pub fn rps_at(&self, t: Nanos) -> f64 {
        let pos = t as f64 / self.slot_ns as f64;
        let i = pos.floor() as usize;
        if i + 1 >= self.rps.len() {
            return *self.rps.last().unwrap();
        }
        let frac = pos - i as f64;
        self.rps[i] * (1.0 - frac) + self.rps[i + 1] * frac
    }

    /// Maximum slot RPS (the thinning bound for arrival generation).
    pub fn max_rps(&self) -> f64 {
        self.rps.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean slot RPS.
    pub fn mean_rps(&self) -> f64 {
        self.rps.iter().sum::<f64>() / self.rps.len() as f64
    }

    /// Multiply the whole trace by `factor` (the paper scales the trace so
    /// unmanaged tail latency lands near the SLA).
    pub(crate) fn scale(&mut self, factor: f64) {
        assert!(factor > 0.0, "scale factor must be positive");
        for r in &mut self.rps {
            *r *= factor;
        }
    }

    /// Rescale so the *peak* equals `peak_rps`.
    pub fn scale_peak_to(&mut self, peak_rps: f64) {
        let max = self.max_rps();
        if max > 0.0 {
            self.scale(peak_rps / max);
        }
    }

    /// Raw slot values (reporting / Fig. 6).
    pub fn samples(&self) -> &[f64] {
        &self.rps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = DiurnalConfig::default();
        let a = DiurnalTrace::generate(&cfg, 7);
        let b = DiurnalTrace::generate(&cfg, 7);
        assert_eq!(a.samples(), b.samples());
        let c = DiurnalTrace::generate(&cfg, 8);
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn trace_has_meaningful_diurnal_swing() {
        let trace = DiurnalTrace::generate(&DiurnalConfig::default(), 1);
        let max = trace.max_rps();
        let min = trace
            .samples()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(max / min > 1.8, "swing too small: {min}..{max}");
        assert!(min > 0.0);
    }

    #[test]
    fn peak_is_midway_not_at_edges() {
        // "requests in the afternoon are generally more than in the early
        // morning" — peak should fall in the middle half of the period.
        let trace = DiurnalTrace::generate(
            &DiurnalConfig {
                burst_prob: 0.0,
                jitter_scale: 0.0,
                ..Default::default()
            },
            3,
        );
        let n = trace.n_slots();
        let (peak_idx, _) = trace
            .samples()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!(
            peak_idx > n / 4 && peak_idx < 3 * n / 4,
            "peak at {peak_idx}/{n}"
        );
    }

    #[test]
    fn interpolation_between_slots() {
        let trace = DiurnalTrace::from_samples(SECOND, vec![100.0, 200.0, 100.0]);
        assert_eq!(trace.rps_at(0), 100.0);
        assert_eq!(trace.rps_at(SECOND / 2), 150.0);
        assert_eq!(trace.rps_at(SECOND), 200.0);
        // Clamps past the end.
        assert_eq!(trace.rps_at(10 * SECOND), 100.0);
    }

    #[test]
    fn scaling_operations() {
        let mut trace = DiurnalTrace::from_samples(SECOND, vec![100.0, 300.0]);
        trace.scale(2.0);
        assert_eq!(trace.samples(), &[200.0, 600.0]);
        trace.scale_peak_to(1200.0);
        assert_eq!(trace.max_rps(), 1200.0);
        assert_eq!(trace.samples()[0], 400.0);
    }

    #[test]
    fn duration_and_mean() {
        let cfg = DiurnalConfig {
            period_s: 360,
            slot_s: 1,
            ..Default::default()
        };
        let trace = DiurnalTrace::generate(&cfg, 2);
        assert_eq!(trace.duration_ns(), 360 * SECOND);
        assert_eq!(trace.n_slots(), 360);
        let mean = trace.mean_rps();
        assert!((mean / cfg.base_rps - 1.0).abs() < 0.25, "mean {mean}");
    }

    #[test]
    fn bursts_create_local_spikes() {
        let no_burst = DiurnalTrace::generate(
            &DiurnalConfig {
                burst_prob: 0.0,
                jitter_scale: 0.0,
                ..Default::default()
            },
            11,
        );
        let bursty = DiurnalTrace::generate(
            &DiurnalConfig {
                burst_prob: 0.05,
                burst_magnitude: 1.0,
                jitter_scale: 0.0,
                ..Default::default()
            },
            11,
        );
        assert!(bursty.max_rps() > no_burst.max_rps() * 1.3);
    }
}
