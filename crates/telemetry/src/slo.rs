//! Declarative SLO specifications and burn-rate alerting rules.
//!
//! An [`SloSpec`] names the service-level objectives the fleet monitor
//! evaluates per tumbling window: a p99 latency target, a timeout-rate
//! ceiling, and a fleet power budget (each disabled when 0). Sustained
//! breaches escalate through SRE-style **multi-window burn-rate
//! rules**: each window's *burn rate* is how fast it consumes the
//! metric's error budget (1.0 = exactly on budget), and a
//! [`BurnRateRule`] fires only when the trailing average burn over
//! *both* a long and a short window count meets its threshold — the
//! long window keeps one noisy spike from paging, the short window
//! makes the alert reset quickly once the burn stops.
//!
//! [`EwmaDetector`] is the companion anomaly detector: an exponentially
//! weighted mean/variance with z-score tripping, used on power, latency
//! and train-loss series where no explicit objective exists.
//!
//! Everything here is pure arithmetic over simulated-time data; specs
//! are serde round-trippable so they can be loaded from JSON by the CLI
//! (`deeppower monitor --slo spec.json`).

use serde::{Deserialize, Serialize};

/// Stable metric tags used in `SloViolation`/`Alert` events.
pub(crate) const METRIC_P99: &str = "p99-latency";
pub(crate) const METRIC_TIMEOUT: &str = "timeout-rate";
pub(crate) const METRIC_POWER: &str = "power";
pub const METRIC_GOODPUT: &str = "goodput";

/// One multi-window burn-rate rule: fire when the trailing mean burn
/// over the last `long_windows` windows *and* the last `short_windows`
/// windows are both `>= max_burn`. Needs `long_windows` of history
/// before it can fire at all.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BurnRateRule {
    pub long_windows: u64,
    pub short_windows: u64,
    pub max_burn: f64,
}

impl BurnRateRule {
    /// Stable label used in `Alert`/`AlertResolved` events, e.g.
    /// `burn>=2/5w:2w`.
    pub(crate) fn label(&self) -> String {
        format!(
            "burn>={}/{}w:{}w",
            self.max_burn, self.long_windows, self.short_windows
        )
    }

    fn validate(&self) -> Result<(), String> {
        if self.short_windows == 0 {
            return Err("burn-rate rule: short_windows must be >= 1".into());
        }
        if self.long_windows < self.short_windows {
            return Err(format!(
                "burn-rate rule: long_windows ({}) must be >= short_windows ({})",
                self.long_windows, self.short_windows
            ));
        }
        if !(self.max_burn.is_finite() && self.max_burn > 0.0) {
            return Err(format!(
                "burn-rate rule: max_burn must be finite and positive, got {}",
                self.max_burn
            ));
        }
        Ok(())
    }
}

/// The default rule pair: a fast page (high burn sustained briefly)
/// and a slow one (any above-budget burn sustained long).
pub(crate) fn default_rules() -> Vec<BurnRateRule> {
    vec![
        BurnRateRule {
            long_windows: 5,
            short_windows: 2,
            max_burn: 2.0,
        },
        BurnRateRule {
            long_windows: 15,
            short_windows: 5,
            max_burn: 1.0,
        },
    ]
}

/// Fraction of windowed requests allowed above the p99 latency target
/// (the "error budget" a latency burn rate is measured against).
pub(crate) const LATENCY_BUDGET: f64 = 0.01;

/// A declarative SLO specification. A target of 0 disables that
/// objective; an empty `rules` list means the default burn-rate rules.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    pub name: String,
    /// p99 latency target in milliseconds (0 = disabled).
    pub p99_ms: f64,
    /// Timeout-rate ceiling per window, 0..1 (0 = disabled).
    pub timeout_rate: f64,
    /// Fleet power budget in watts (0 = disabled).
    pub power_w: f64,
    /// Goodput floor as a fraction of offered load per window, 0..1
    /// (0 = disabled). Only meaningful for closed-loop overload runs:
    /// open-loop windows report everything as goodput and never
    /// violate.
    pub goodput_ratio: f64,
    /// Burn-rate rules applied to every enabled objective.
    pub rules: Vec<BurnRateRule>,
}

impl Default for SloSpec {
    fn default() -> Self {
        Self {
            name: "default".into(),
            p99_ms: 0.0,
            timeout_rate: 0.05,
            power_w: 0.0,
            goodput_ratio: 0.0,
            rules: default_rules(),
        }
    }
}

impl SloSpec {
    /// Spec derived from an application SLA: p99 target at the SLA,
    /// default timeout ceiling, no power budget.
    pub fn for_sla_ns(name: &str, sla_ns: u64) -> Self {
        Self {
            name: name.into(),
            p99_ms: sla_ns as f64 / 1e6,
            ..Self::default()
        }
    }

    /// Parse and validate a spec from JSON (the `--slo FILE` format).
    pub fn from_json(json: &str) -> Result<Self, String> {
        let mut spec: SloSpec =
            serde_json::from_str(json).map_err(|e| format!("bad SLO spec: {e}"))?;
        if spec.rules.is_empty() {
            spec.rules = default_rules();
        }
        spec.validate()?;
        Ok(spec)
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        for (label, v) in [
            ("p99_ms", self.p99_ms),
            ("timeout_rate", self.timeout_rate),
            ("power_w", self.power_w),
            ("goodput_ratio", self.goodput_ratio),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!(
                    "SLO spec `{}`: {label} must be finite and >= 0, got {v}",
                    self.name
                ));
            }
        }
        if self.timeout_rate > 1.0 {
            return Err(format!(
                "SLO spec `{}`: timeout_rate must be <= 1, got {}",
                self.name, self.timeout_rate
            ));
        }
        if self.goodput_ratio > 1.0 {
            return Err(format!(
                "SLO spec `{}`: goodput_ratio must be <= 1, got {}",
                self.name, self.goodput_ratio
            ));
        }
        if self.p99_ms == 0.0
            && self.timeout_rate == 0.0
            && self.power_w == 0.0
            && self.goodput_ratio == 0.0
        {
            return Err(format!(
                "SLO spec `{}`: every objective is disabled (all targets 0)",
                self.name
            ));
        }
        if self.rules.is_empty() {
            return Err(format!("SLO spec `{}`: no burn-rate rules", self.name));
        }
        for rule in &self.rules {
            rule.validate()
                .map_err(|e| format!("SLO spec `{}`: {e}", self.name))?;
        }
        Ok(())
    }

    /// The enabled objectives as `(metric tag, target)` pairs, stable
    /// order.
    pub(crate) fn objectives(&self) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        if self.p99_ms > 0.0 {
            out.push((METRIC_P99, self.p99_ms));
        }
        if self.timeout_rate > 0.0 {
            out.push((METRIC_TIMEOUT, self.timeout_rate));
        }
        if self.power_w > 0.0 {
            out.push((METRIC_POWER, self.power_w));
        }
        if self.goodput_ratio > 0.0 {
            out.push((METRIC_GOODPUT, self.goodput_ratio));
        }
        out
    }
}

/// EWMA mean/variance z-score anomaly detector. Feed a series in
/// order; [`EwmaDetector::observe`] returns the z-score of each point
/// against the estimate *before* that point is folded in, or `None`
/// during warm-up. The variance floor (a fraction of the running
/// |mean|) keeps a near-constant series from flagging microscopic
/// jitter as anomalous.
#[derive(Clone, Debug)]
pub(crate) struct EwmaDetector {
    alpha: f64,
    z_threshold: f64,
    warmup: u64,
    seen: u64,
    mean: f64,
    var: f64,
}

/// EWMA configuration shared by the monitor's anomaly detectors.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct EwmaConfig {
    /// Smoothing factor in (0, 1]; higher tracks faster.
    pub alpha: f64,
    /// |z| at or above which a point is anomalous.
    pub z_threshold: f64,
    /// Points folded in before scoring starts.
    pub warmup: u64,
}

impl Default for EwmaConfig {
    fn default() -> Self {
        Self {
            alpha: 0.3,
            z_threshold: 4.0,
            warmup: 5,
        }
    }
}

/// Relative variance floor: std is never taken below this fraction of
/// the running |mean| (plus a tiny absolute epsilon).
const EWMA_STD_FLOOR_FRAC: f64 = 0.05;
const EWMA_STD_FLOOR_ABS: f64 = 1e-9;

impl EwmaDetector {
    pub(crate) fn new(cfg: EwmaConfig) -> Self {
        Self {
            alpha: cfg.alpha.clamp(1e-6, 1.0),
            z_threshold: cfg.z_threshold,
            warmup: cfg.warmup.max(1),
            seen: 0,
            mean: 0.0,
            var: 0.0,
        }
    }

    /// Fold in one point; returns its z-score against the pre-update
    /// estimate once warm-up is over.
    pub(crate) fn observe(&mut self, v: f64) -> Option<f64> {
        if !v.is_finite() {
            // Non-finite points score as maximally anomalous without
            // poisoning the running estimate.
            return (self.seen >= self.warmup).then_some(f64::INFINITY);
        }
        let z = if self.seen >= self.warmup {
            let floor = EWMA_STD_FLOOR_FRAC * self.mean.abs() + EWMA_STD_FLOOR_ABS;
            let std = self.var.sqrt().max(floor);
            Some((v - self.mean) / std)
        } else {
            None
        };
        if self.seen == 0 {
            self.mean = v;
            self.var = 0.0;
        } else {
            let diff = v - self.mean;
            // Standard EWMA variance recurrence (Welford-style).
            self.var = (1.0 - self.alpha) * (self.var + self.alpha * diff * diff);
            self.mean += self.alpha * diff;
        }
        self.seen += 1;
        z
    }

    /// `observe` + threshold: `Some(z)` only when `|z|` trips.
    pub(crate) fn observe_anomalous(&mut self, v: f64) -> Option<f64> {
        let z = self.observe(v)?;
        (z.abs() >= self.z_threshold).then_some(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates_and_roundtrips() {
        let spec = SloSpec::default();
        spec.validate().unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back = SloSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.objectives(), vec![(METRIC_TIMEOUT, 0.05)]);
    }

    #[test]
    fn sla_spec_enables_latency_objective() {
        let spec = SloSpec::for_sla_ns("masstree", 1_000_000);
        spec.validate().unwrap();
        assert_eq!(
            spec.objectives(),
            vec![(METRIC_P99, 1.0), (METRIC_TIMEOUT, 0.05)]
        );
    }

    #[test]
    fn goodput_objective_enables_and_validates() {
        let mut spec = SloSpec {
            goodput_ratio: 0.5,
            ..Default::default()
        };
        spec.validate().unwrap();
        assert_eq!(
            spec.objectives(),
            vec![(METRIC_TIMEOUT, 0.05), (METRIC_GOODPUT, 0.5)]
        );
        spec.goodput_ratio = 1.5;
        assert!(spec.validate().unwrap_err().contains("goodput_ratio"));
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        // Not JSON at all.
        assert!(SloSpec::from_json("{nope").unwrap_err().contains("bad SLO"));
        // All objectives disabled.
        let all_off = r#"{"name":"x","p99_ms":0.0,"timeout_rate":0.0,"power_w":0.0,"goodput_ratio":0.0,"rules":[]}"#;
        assert!(SloSpec::from_json(all_off)
            .unwrap_err()
            .contains("disabled"));
        // Negative target.
        let neg = r#"{"name":"x","p99_ms":-1.0,"timeout_rate":0.0,"power_w":0.0,"goodput_ratio":0.0,"rules":[]}"#;
        assert!(SloSpec::from_json(neg).unwrap_err().contains("p99_ms"));
        // Rule with long < short.
        let bad_rule = r#"{"name":"x","p99_ms":1.0,"timeout_rate":0.0,"power_w":0.0,"goodput_ratio":0.0,
            "rules":[{"long_windows":1,"short_windows":3,"max_burn":1.0}]}"#;
        assert!(SloSpec::from_json(bad_rule)
            .unwrap_err()
            .contains("long_windows"));
        // Zero burn threshold.
        let zero_burn = r#"{"name":"x","p99_ms":1.0,"timeout_rate":0.0,"power_w":0.0,"goodput_ratio":0.0,
            "rules":[{"long_windows":3,"short_windows":1,"max_burn":0.0}]}"#;
        assert!(SloSpec::from_json(zero_burn)
            .unwrap_err()
            .contains("max_burn"));
    }

    #[test]
    fn empty_rules_fall_back_to_defaults() {
        let json = r#"{"name":"x","p99_ms":2.0,"timeout_rate":0.0,"power_w":0.0,"goodput_ratio":0.0,"rules":[]}"#;
        let spec = SloSpec::from_json(json).unwrap();
        assert_eq!(spec.rules, default_rules());
    }

    #[test]
    fn rule_labels_are_stable() {
        assert_eq!(default_rules()[0].label(), "burn>=2/5w:2w");
        assert_eq!(default_rules()[1].label(), "burn>=1/15w:5w");
    }

    #[test]
    fn ewma_flags_step_change_not_steady_series() {
        let mut d = EwmaDetector::new(EwmaConfig::default());
        // Steady series with tiny jitter: never anomalous thanks to the
        // variance floor.
        for i in 0..50u64 {
            let v = 80.0 + (i % 3) as f64 * 0.01;
            assert!(d.observe_anomalous(v).is_none(), "steady point {i} flagged");
        }
        // A 50% step is well past the floor.
        let z = d.observe_anomalous(120.0).expect("step change missed");
        assert!(z > 0.0);
    }

    #[test]
    fn ewma_warmup_suppresses_scores() {
        let mut d = EwmaDetector::new(EwmaConfig {
            alpha: 0.5,
            z_threshold: 1.0,
            warmup: 3,
        });
        assert!(d.observe(1.0).is_none());
        assert!(d.observe(100.0).is_none());
        assert!(d.observe(1.0).is_none());
        assert!(d.observe(50.0).is_some());
    }

    #[test]
    fn ewma_nonfinite_points_flag_without_poisoning() {
        let mut d = EwmaDetector::new(EwmaConfig {
            alpha: 0.3,
            z_threshold: 4.0,
            warmup: 2,
        });
        d.observe(10.0);
        d.observe(10.0);
        assert_eq!(d.observe(f64::NAN), Some(f64::INFINITY));
        // The estimate survived: a normal point still scores finitely.
        let z = d.observe(10.0).unwrap();
        assert!(z.is_finite());
    }
}
