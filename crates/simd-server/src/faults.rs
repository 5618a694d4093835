//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes the failure modes a run should experience —
//! DVFS writes that are dropped or pay an extra-latency spike, cores that
//! transiently stall (a bounded hotplug/offline episode), and sensor
//! faults (stale `MetricsCollector` observations, noisy energy readings).
//! Everything is drawn from seeded [`StdRng`] streams owned by the run's
//! [`FaultState`], one stream per fault axis, so the same
//! `(seed, config, FaultPlan)` replays bit-identically regardless of what
//! the other axes drew. A plan with every knob at zero
//! ([`FaultPlan::none`]) performs no draws and perturbs nothing: the run
//! is bit-identical to one without the fault subsystem.
//!
//! Every *discrete* injected fault is counted in
//! [`FaultState::injected`] (the run's `faults_injected`) and recorded
//! as a typed [`Event::FaultInjected`]; continuous perturbations
//! (per-refresh power-reading noise) are parameters of the sensor model
//! and are neither counted nor recorded.

use crate::clock::Nanos;
use deeppower_telemetry::{event, Event, FaultKind, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Outcome drawn for one attempted DVFS transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DvfsFault {
    /// The write lands instantly (the fault-free behaviour).
    None,
    /// The write is silently dropped: the core keeps its frequency.
    Fail,
    /// The write lands only after an extra latency of this many ns.
    Spike(Nanos),
}

/// Seeded, config-driven description of the faults to inject into a run.
///
/// `Copy` on purpose: it rides inside [`crate::RunOptions`] and job specs
/// without allocation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the fault streams (independent of the workload seed).
    pub seed: u64,
    /// Probability an attempted DVFS transition is silently dropped.
    pub dvfs_fail_prob: f64,
    /// Probability an attempted DVFS transition pays an extra-latency
    /// spike before taking effect (disjoint from `dvfs_fail_prob`; their
    /// sum must be ≤ 1).
    pub dvfs_spike_prob: f64,
    /// Spike duration bounds, ns (uniform draw, inclusive of min).
    pub dvfs_spike_min_ns: Nanos,
    pub dvfs_spike_max_ns: Nanos,
    /// A core stall window opens every `stall_period_ns` (0 disables):
    /// one core — drawn from the stall stream — retires no work and
    /// accepts no dispatches for `stall_duration_ns`.
    pub stall_period_ns: Nanos,
    pub stall_duration_ns: Nanos,
    /// Probability a governor-tick sensor refresh is dropped, leaving the
    /// governor observing the previous (stale) counters.
    pub sensor_drop_prob: f64,
    /// Relative noise on the energy-counter *reading* shown to governors
    /// (uniform in `±frac` per refresh, applied to the energy delta so
    /// the reading stays monotone). Accounting is never perturbed.
    pub power_noise_frac: f64,
}

impl FaultPlan {
    /// No faults: the plan every run uses unless told otherwise.
    pub fn none() -> Self {
        Self {
            seed: 0,
            dvfs_fail_prob: 0.0,
            dvfs_spike_prob: 0.0,
            dvfs_spike_min_ns: 0,
            dvfs_spike_max_ns: 0,
            stall_period_ns: 0,
            stall_duration_ns: 0,
            sensor_drop_prob: 0.0,
            power_noise_frac: 0.0,
        }
    }

    /// Whether any fault axis is enabled.
    pub fn is_active(&self) -> bool {
        self.dvfs_fail_prob > 0.0
            || self.dvfs_spike_prob > 0.0
            || self.stall_period_ns > 0
            || self.sensor_drop_prob > 0.0
            || self.power_noise_frac > 0.0
    }

    /// Validate invariants; called by the engine before a run.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("dvfs_fail_prob", self.dvfs_fail_prob),
            ("dvfs_spike_prob", self.dvfs_spike_prob),
            ("sensor_drop_prob", self.sensor_drop_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        if self.dvfs_fail_prob + self.dvfs_spike_prob > 1.0 {
            return Err("dvfs_fail_prob + dvfs_spike_prob must be <= 1".into());
        }
        if self.dvfs_spike_prob > 0.0 && self.dvfs_spike_max_ns < self.dvfs_spike_min_ns {
            return Err("dvfs_spike_max_ns must be >= dvfs_spike_min_ns".into());
        }
        if self.stall_period_ns > 0 {
            if self.stall_duration_ns == 0 {
                return Err("stall_duration_ns must be positive when stalls are on".into());
            }
            if self.stall_duration_ns >= self.stall_period_ns {
                return Err("stall_duration_ns must be < stall_period_ns".into());
            }
        }
        if !(0.0..1.0).contains(&self.power_noise_frac) {
            return Err(format!(
                "power_noise_frac must be in [0, 1), got {}",
                self.power_noise_frac
            ));
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Counter values a governor observes through its [`crate::ServerView`].
/// With sensor faults on, these may be stale or carry a noisy energy
/// reading; the engine's own accounting always uses the true values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SensorReading {
    pub arrived: u64,
    pub completed: u64,
    pub timeouts: u64,
    pub energy_uj: u64,
    /// Requests shed at admission (overload plans only; 0 otherwise).
    pub shed: u64,
    /// Completions after client abandonment (wasted work).
    pub wasted: u64,
}

/// Per-run fault machinery: the seeded streams plus stall/sensor state.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    n_cores: usize,
    dvfs_rng: StdRng,
    stall_rng: StdRng,
    sensor_rng: StdRng,
    /// Stall windows opened so far (window `k` starts at `(k+1)·period`).
    stall_windows: u64,
    /// Currently stalled core and when it comes back.
    stalled: Option<(usize, Nanos)>,
    /// Last reading served to the governor (sensor faults only).
    latched: Option<SensorReading>,
    /// True energy at the last refresh, and the noisy running reading.
    true_energy_prev: u64,
    noisy_energy: u64,
    /// Discrete faults injected so far.
    pub injected: u64,
}

impl FaultState {
    /// Build the per-run state. Panics on an invalid plan (mirrors the
    /// engine's config validation).
    pub fn new(plan: FaultPlan, n_cores: usize) -> Self {
        plan.validate().expect("invalid fault plan");
        // Decoupled streams per fault axis: each axis's draws are
        // independent of how many draws the others made.
        Self {
            plan,
            n_cores,
            dvfs_rng: StdRng::seed_from_u64(plan.seed.wrapping_mul(3).wrapping_add(0x0d5f5)),
            stall_rng: StdRng::seed_from_u64(plan.seed.wrapping_mul(5).wrapping_add(0x57a11)),
            sensor_rng: StdRng::seed_from_u64(plan.seed.wrapping_mul(7).wrapping_add(0x5e502)),
            stall_windows: 0,
            stalled: None,
            latched: None,
            true_energy_prev: 0,
            noisy_energy: 0,
            injected: 0,
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Record one discrete injected fault: count + typed event.
    pub fn record(&mut self, rec: &Recorder, t: Nanos, kind: FaultKind, core: i64, magnitude: f64) {
        self.injected += 1;
        rec.emit(|| {
            Event::FaultInjected(event::FaultInjected {
                t,
                kind,
                core,
                magnitude,
            })
        });
    }

    // ---- DVFS faults ----

    /// Draw the fate of one attempted DVFS transition.
    pub fn draw_dvfs(&mut self) -> DvfsFault {
        let (pf, ps) = (self.plan.dvfs_fail_prob, self.plan.dvfs_spike_prob);
        if pf <= 0.0 && ps <= 0.0 {
            return DvfsFault::None;
        }
        let u: f64 = self.dvfs_rng.random();
        if u < pf {
            DvfsFault::Fail
        } else if u < pf + ps {
            let extra = if self.plan.dvfs_spike_max_ns > self.plan.dvfs_spike_min_ns {
                self.dvfs_rng
                    .random_range(self.plan.dvfs_spike_min_ns..self.plan.dvfs_spike_max_ns + 1)
            } else {
                self.plan.dvfs_spike_min_ns
            };
            DvfsFault::Spike(extra.max(1))
        } else {
            DvfsFault::None
        }
    }

    // ---- Core stalls ----

    /// The next time the stall state machine changes (window opens or
    /// closes), if stalls are enabled.
    pub fn next_stall_change(&self) -> Option<Nanos> {
        if self.plan.stall_period_ns == 0 {
            return None;
        }
        match self.stalled {
            Some((_, until)) => Some(until),
            None => Some((self.stall_windows + 1) * self.plan.stall_period_ns),
        }
    }

    /// Advance the stall state machine to `now`, emitting begin/end
    /// events. Call at the top of every engine iteration.
    pub fn poll_stalls(&mut self, now: Nanos, rec: &Recorder) {
        if self.plan.stall_period_ns == 0 {
            return;
        }
        while let Some(t) = self.next_stall_change() {
            if now < t {
                break;
            }
            match self.stalled.take() {
                Some((core, until)) => {
                    rec.emit(|| {
                        Event::FaultInjected(event::FaultInjected {
                            t: until,
                            kind: FaultKind::CoreOnline,
                            core: core as i64,
                            magnitude: 0.0,
                        })
                    });
                }
                None => {
                    let core = self.stall_rng.random_range(0..self.n_cores);
                    let until = t + self.plan.stall_duration_ns;
                    self.stalled = Some((core, until));
                    self.stall_windows += 1;
                    self.record(
                        rec,
                        t,
                        FaultKind::CoreStall,
                        core as i64,
                        self.plan.stall_duration_ns as f64,
                    );
                }
            }
        }
    }

    /// The currently stalled core (retires no work, accepts no
    /// dispatches), if a stall window is open.
    pub fn stalled_core(&self) -> Option<usize> {
        self.stalled.map(|(core, _)| core)
    }

    /// Whether `core` is currently stalled (retires no work, accepts no
    /// dispatches).
    pub fn is_stalled(&self, core: usize) -> bool {
        matches!(self.stalled, Some((c, _)) if c == core)
    }

    // ---- Sensor faults ----

    /// Pass one governor-tick sensor refresh through the fault model:
    /// either the fresh reading (with the energy delta possibly scaled by
    /// noise, keeping the reading monotone) or the previous stale one.
    pub fn observe(&mut self, now: Nanos, fresh: SensorReading, rec: &Recorder) -> SensorReading {
        if self.plan.sensor_drop_prob <= 0.0 && self.plan.power_noise_frac <= 0.0 {
            return fresh;
        }
        if self.latched.is_some() && self.plan.sensor_drop_prob > 0.0 {
            let u: f64 = self.sensor_rng.random();
            if u < self.plan.sensor_drop_prob {
                self.record(rec, now, FaultKind::SensorStale, -1, 0.0);
                return self.latched.expect("latched reading present");
            }
        }
        let delta = fresh.energy_uj - self.true_energy_prev;
        let noisy_delta = if self.plan.power_noise_frac > 0.0 {
            let u: f64 = self.sensor_rng.random();
            let factor = 1.0 + self.plan.power_noise_frac * (2.0 * u - 1.0);
            (delta as f64 * factor).round() as u64
        } else {
            delta
        };
        self.true_energy_prev = fresh.energy_uj;
        self.noisy_energy += noisy_delta;
        let served = SensorReading {
            energy_uj: self.noisy_energy,
            ..fresh
        };
        self.latched = Some(served);
        served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(e: u64) -> SensorReading {
        SensorReading {
            arrived: 10,
            completed: 8,
            timeouts: 1,
            energy_uj: e,
            shed: 0,
            wasted: 0,
        }
    }

    #[test]
    fn inactive_plan_is_transparent() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        plan.validate().unwrap();
        let mut st = FaultState::new(plan, 4);
        assert_eq!(st.draw_dvfs(), DvfsFault::None);
        assert_eq!(st.next_stall_change(), None);
        assert!(!st.is_stalled(0));
        let r = reading(12345);
        assert_eq!(st.observe(0, r, &Recorder::disabled()), r);
        assert_eq!(st.injected, 0);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let mut p = FaultPlan::none();
        p.dvfs_fail_prob = 1.5;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.dvfs_fail_prob = 0.7;
        p.dvfs_spike_prob = 0.7;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.dvfs_spike_prob = 0.1;
        p.dvfs_spike_min_ns = 10;
        p.dvfs_spike_max_ns = 5;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.stall_period_ns = 100;
        p.stall_duration_ns = 100;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.power_noise_frac = 1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn dvfs_draws_are_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 9,
            dvfs_fail_prob: 0.3,
            dvfs_spike_prob: 0.3,
            dvfs_spike_min_ns: 1_000,
            dvfs_spike_max_ns: 9_000,
            ..FaultPlan::none()
        };
        let mut a = FaultState::new(plan, 4);
        let mut b = FaultState::new(plan, 4);
        let seq_a: Vec<DvfsFault> = (0..64).map(|_| a.draw_dvfs()).collect();
        let seq_b: Vec<DvfsFault> = (0..64).map(|_| b.draw_dvfs()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|f| matches!(f, DvfsFault::Fail)));
        assert!(seq_a.iter().any(|f| matches!(f, DvfsFault::Spike(_))));
        for f in &seq_a {
            if let DvfsFault::Spike(ns) = f {
                assert!((1_000..=9_000).contains(ns));
            }
        }
    }

    #[test]
    fn stall_windows_open_and_close_on_schedule() {
        let plan = FaultPlan {
            seed: 1,
            stall_period_ns: 1_000,
            stall_duration_ns: 200,
            ..FaultPlan::none()
        };
        let rec = Recorder::ring(64);
        let mut st = FaultState::new(plan, 3);
        assert_eq!(st.next_stall_change(), Some(1_000));
        st.poll_stalls(999, &rec);
        assert!((0..3).all(|c| !st.is_stalled(c)));
        st.poll_stalls(1_000, &rec);
        let stalled: Vec<usize> = (0..3).filter(|&c| st.is_stalled(c)).collect();
        assert_eq!(stalled.len(), 1);
        assert_eq!(st.next_stall_change(), Some(1_200));
        st.poll_stalls(1_200, &rec);
        assert!((0..3).all(|c| !st.is_stalled(c)));
        // Next window opens one period after the previous one.
        assert_eq!(st.next_stall_change(), Some(2_000));
        let events = rec.drain_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["FaultInjected", "FaultInjected"]);
        assert_eq!(st.injected, 1); // only the stall begin
    }

    #[test]
    fn sensor_drops_serve_stale_readings() {
        let plan = FaultPlan {
            seed: 3,
            sensor_drop_prob: 0.5,
            ..FaultPlan::none()
        };
        let rec = Recorder::ring(1024);
        let mut st = FaultState::new(plan, 2);
        let mut served = Vec::new();
        for i in 0..200u64 {
            served.push(st.observe(i, reading(i * 100), &rec));
        }
        // The very first observation is always fresh.
        assert_eq!(served[0], reading(0));
        // Some observations must be stale (equal to their predecessor).
        let stale = served.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(stale > 20, "expected stale readings, got {stale}");
        assert_eq!(st.injected as usize, stale);
        // Energy readings stay monotone.
        assert!(served.windows(2).all(|w| w[0].energy_uj <= w[1].energy_uj));
    }

    #[test]
    fn power_noise_keeps_energy_monotone_and_close() {
        let plan = FaultPlan {
            seed: 5,
            power_noise_frac: 0.2,
            ..FaultPlan::none()
        };
        let rec = Recorder::disabled();
        let mut st = FaultState::new(plan, 2);
        let mut last = 0u64;
        for i in 1..=500u64 {
            let r = st.observe(i, reading(i * 1_000), &rec);
            assert!(r.energy_uj >= last);
            last = r.energy_uj;
        }
        // Zero-mean noise: the cumulative reading stays within the band.
        let true_total = 500_000f64;
        assert!((last as f64 - true_total).abs() < true_total * 0.2);
    }
}
