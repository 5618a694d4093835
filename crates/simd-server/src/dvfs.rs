//! DVFS frequency plan: the discrete frequency levels a core may run at.
//!
//! Mirrors the paper's testbed: "The frequency range from 0.8GHz to 2.1GHz
//! and can be scaled with the help of the 'userspace' governor of the Linux
//! ACPI frequency driver" (§5.2), plus turbo boost (§4.3). On real hardware
//! a write to `scaling_setspeed` takes effect within a few microseconds;
//! the plan records a per-transition latency for the overhead accounting of
//! §5.5 but applies new frequencies at the commanded instant (the paper's
//! controller treats the switch as effectively immediate).

use crate::clock::Nanos;
use crate::faults::DvfsFault;
use serde::{Deserialize, Serialize};

/// MHz per GHz, for conversions in power/reporting code.
pub(crate) const MHZ_PER_GHZ: f64 = 1000.0;

/// The set of frequencies a core can be driven at.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FreqPlan {
    /// Nominal levels in MHz, ascending (turbo not included).
    pub levels_mhz: Vec<u32>,
    /// Turbo frequency in MHz (> max nominal level).
    pub turbo_mhz: u32,
    /// Reference frequency used for `work_ref_ns` calibration — the max
    /// nominal level, matching how the paper's "no power management"
    /// baseline runs.
    pub reference_mhz: u32,
    /// Cost of one frequency transition (accounting only; §5.5 reports
    /// "less than 10us" per set operation).
    pub transition_ns: u64,
}

impl FreqPlan {
    /// The paper's Xeon Gold 5218R plan: 0.8–2.1 GHz in 100 MHz steps plus
    /// a 3.0 GHz turbo level.
    pub fn xeon_gold_5218r() -> Self {
        let levels_mhz: Vec<u32> = (8..=21).map(|x| x * 100).collect();
        Self {
            levels_mhz,
            turbo_mhz: 3000,
            reference_mhz: 2100,
            transition_ns: 5_000,
        }
    }

    /// A tiny three-level plan for unit tests.
    pub fn test_plan() -> Self {
        Self {
            levels_mhz: vec![1000, 1500, 2000],
            turbo_mhz: 2500,
            reference_mhz: 2000,
            transition_ns: 1_000,
        }
    }

    pub fn min_mhz(&self) -> u32 {
        self.levels_mhz[0]
    }

    /// Highest nominal (non-turbo) level.
    pub fn max_mhz(&self) -> u32 {
        *self.levels_mhz.last().expect("empty frequency plan")
    }

    /// Validate invariants; call after hand-building a plan.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels_mhz.is_empty() {
            return Err("no frequency levels".into());
        }
        if !self.levels_mhz.windows(2).all(|w| w[0] < w[1]) {
            return Err("levels must be strictly ascending".into());
        }
        if self.turbo_mhz <= self.max_mhz() {
            return Err("turbo must exceed the max nominal level".into());
        }
        // `reference_mhz` is a *calibration* frequency, not a commanded
        // one: heterogeneous fleets share one fleet-wide reference so
        // `work_ref_ns` means the same thing on every node, and a little
        // core's plan may top out below it. Anything at or above this
        // plan's max nominal level is therefore legal; below it, the
        // reference must be an actual level (or turbo).
        if self.reference_mhz < self.max_mhz()
            && !self.levels_mhz.contains(&self.reference_mhz)
            && self.reference_mhz != self.turbo_mhz
        {
            return Err("reference frequency must be an available level".into());
        }
        Ok(())
    }

    /// Snap an arbitrary MHz value to the nearest available nominal level
    /// (never snaps *to* turbo; turbo must be requested explicitly, as in
    /// Algorithm 1 line 7).
    pub(crate) fn snap(&self, mhz: u32) -> u32 {
        *self
            .levels_mhz
            .iter()
            .min_by_key(|&&l| l.abs_diff(mhz))
            .expect("empty frequency plan")
    }

    /// Linear interpolation of Algorithm 1 line 9:
    /// `freq = f_min + (f_max − f_min) · score`, snapped to a level.
    /// `score` is clamped to `[0, 1)` by the caller's turbo check.
    pub fn interpolate(&self, score: f32) -> u32 {
        let score = score.clamp(0.0, 1.0) as f64;
        let f = self.min_mhz() as f64 + (self.max_mhz() - self.min_mhz()) as f64 * score;
        self.snap(f.round() as u32)
    }

    /// Whether `mhz` is a legal commanded frequency (a nominal level or
    /// turbo).
    pub(crate) fn is_valid(&self, mhz: u32) -> bool {
        mhz == self.turbo_mhz || self.levels_mhz.contains(&mhz)
    }
}

/// What happened to one requested frequency transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TransitionOutcome {
    /// The write landed instantly (the fault-free path).
    Applied,
    /// The write was accepted but takes effect only at `ready_at`
    /// (an injected extra-latency spike).
    Deferred { ready_at: Nanos },
    /// The core is mid-transition; the write was rejected (a stuck
    /// cpufreq write — retry on a later tick).
    Rejected,
    /// An injected failure silently dropped the write.
    Failed,
    /// The target equals the current frequency; nothing to do.
    NoOp,
}

#[derive(Clone, Copy, Debug)]
struct PendingTransition {
    target_mhz: u32,
    ready_at: Nanos,
}

/// Per-core DVFS transition state machine.
///
/// The paper's controller treats frequency writes as effectively
/// immediate, and with no faults injected this controller preserves that:
/// every request applies instantly ([`TransitionOutcome::Applied`]) and
/// nothing is ever pending. Injected faults surface the two real-hardware
/// failure modes: a dropped write ([`TransitionOutcome::Failed`]) and a
/// slow write that keeps the core busy until `ready_at`
/// ([`TransitionOutcome::Deferred`]), during which further writes are
/// [`TransitionOutcome::Rejected`].
#[derive(Clone, Debug)]
pub(crate) struct DvfsController {
    pending: Vec<Option<PendingTransition>>,
    /// How many entries of `pending` are `Some`, so the engine's
    /// per-event [`poll`](Self::poll) and [`next_ready`](Self::next_ready)
    /// passes cost nothing while no transition is in flight.
    in_flight: usize,
}

impl DvfsController {
    pub(crate) fn new(n_cores: usize) -> Self {
        assert!(n_cores > 0, "DvfsController needs at least one core");
        Self {
            pending: vec![None; n_cores],
            in_flight: 0,
        }
    }

    /// Whether any core has a transition in flight.
    pub(crate) fn any_in_flight(&self) -> bool {
        self.in_flight > 0
    }

    /// Whether `core` has a transition in flight.
    pub(crate) fn in_transition(&self, core: usize) -> bool {
        self.pending[core].is_some()
    }

    /// Request a transition for `core` from `current_mhz` to
    /// `target_mhz`, under the drawn `fault`. The caller applies the
    /// frequency itself on [`TransitionOutcome::Applied`]; deferred
    /// transitions land through [`poll`](Self::poll).
    pub(crate) fn request(
        &mut self,
        core: usize,
        now: Nanos,
        current_mhz: u32,
        target_mhz: u32,
        fault: DvfsFault,
    ) -> TransitionOutcome {
        if let Some(p) = &self.pending[core] {
            debug_assert!(now < p.ready_at, "pending transition not polled");
            return TransitionOutcome::Rejected;
        }
        if target_mhz == current_mhz {
            return TransitionOutcome::NoOp;
        }
        match fault {
            DvfsFault::None => TransitionOutcome::Applied,
            DvfsFault::Fail => TransitionOutcome::Failed,
            DvfsFault::Spike(extra_ns) => {
                let ready_at = now + extra_ns.max(1);
                self.pending[core] = Some(PendingTransition {
                    target_mhz,
                    ready_at,
                });
                self.in_flight += 1;
                TransitionOutcome::Deferred { ready_at }
            }
        }
    }

    /// Complete `core`'s pending transition if it is due at `now`,
    /// returning the frequency that just took effect.
    pub(crate) fn poll(&mut self, core: usize, now: Nanos) -> Option<u32> {
        match &self.pending[core] {
            Some(p) if now >= p.ready_at => {
                let target = p.target_mhz;
                self.pending[core] = None;
                self.in_flight -= 1;
                Some(target)
            }
            _ => None,
        }
    }

    /// Earliest pending-transition completion time across all cores
    /// (feeds the engine's next-event computation).
    pub(crate) fn next_ready(&self) -> Option<Nanos> {
        if !self.any_in_flight() {
            return None;
        }
        self.pending.iter().flatten().map(|p| p.ready_at).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_plan_is_valid_and_matches_paper_range() {
        let p = FreqPlan::xeon_gold_5218r();
        p.validate().unwrap();
        assert_eq!(p.min_mhz(), 800);
        assert_eq!(p.max_mhz(), 2100);
        assert_eq!(p.levels_mhz.len(), 14);
        assert!(p.turbo_mhz > 2100);
    }

    #[test]
    fn snap_picks_nearest_level() {
        let p = FreqPlan::xeon_gold_5218r();
        assert_eq!(p.snap(840), 800);
        assert_eq!(p.snap(860), 900);
        assert_eq!(p.snap(5_000), 2100);
        assert_eq!(p.snap(0), 800);
    }

    #[test]
    fn interpolate_endpoints_and_midpoint() {
        let p = FreqPlan::xeon_gold_5218r();
        assert_eq!(p.interpolate(0.0), 800);
        assert_eq!(p.interpolate(1.0), 2100);
        // midpoint: 800 + 1300*0.5 = 1450 → snaps to 1400 or 1500
        let mid = p.interpolate(0.5);
        assert!(mid == 1400 || mid == 1500);
        // Out-of-range scores clamp.
        assert_eq!(p.interpolate(-3.0), 800);
        assert_eq!(p.interpolate(7.0), 2100);
    }

    #[test]
    fn interpolation_is_monotone_in_score() {
        let p = FreqPlan::xeon_gold_5218r();
        let mut prev = 0;
        for i in 0..=20 {
            let f = p.interpolate(i as f32 / 20.0);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let mut p = FreqPlan::test_plan();
        p.turbo_mhz = 1500;
        assert!(p.validate().is_err());
        let mut p = FreqPlan::test_plan();
        p.levels_mhz = vec![2000, 1000];
        assert!(p.validate().is_err());
        let mut p = FreqPlan::test_plan();
        p.levels_mhz.clear();
        assert!(p.validate().is_err());
        // A reference *below* the max level must be a real level...
        let mut p = FreqPlan::test_plan();
        p.reference_mhz = 1700;
        assert!(p.validate().is_err());
        // ...but a fleet-wide reference above this plan's range is fine
        // (a little core calibrated against the fleet's big cores).
        let mut p = FreqPlan::test_plan();
        p.reference_mhz = 2100;
        assert!(p.validate().is_ok());
    }

    #[test]
    fn is_valid_accepts_levels_and_turbo_only() {
        let p = FreqPlan::test_plan();
        assert!(p.is_valid(1500));
        assert!(p.is_valid(2500));
        assert!(!p.is_valid(1700));
    }

    #[test]
    fn controller_applies_instantly_without_faults() {
        let mut c = DvfsController::new(2);
        assert_eq!(
            c.request(0, 100, 1000, 2000, DvfsFault::None),
            TransitionOutcome::Applied
        );
        assert!(!c.in_transition(0));
        assert_eq!(c.next_ready(), None);
    }

    #[test]
    fn transition_to_current_level_is_a_noop() {
        let mut c = DvfsController::new(1);
        assert_eq!(
            c.request(0, 0, 1500, 1500, DvfsFault::None),
            TransitionOutcome::NoOp
        );
        // Even a drawn fault does not fire on a no-op target.
        assert_eq!(
            c.request(0, 0, 1500, 1500, DvfsFault::Spike(1_000)),
            TransitionOutcome::NoOp
        );
        assert!(!c.in_transition(0));
    }

    #[test]
    fn request_mid_transition_is_rejected_until_ready() {
        let mut c = DvfsController::new(1);
        let out = c.request(0, 1_000, 1000, 2000, DvfsFault::Spike(500));
        assert_eq!(out, TransitionOutcome::Deferred { ready_at: 1_500 });
        assert!(c.in_transition(0));
        assert!(c.any_in_flight());
        // A second write while the first is in flight is rejected —
        // including a write back to the current frequency.
        assert_eq!(
            c.request(0, 1_200, 1000, 1500, DvfsFault::None),
            TransitionOutcome::Rejected
        );
        assert_eq!(
            c.request(0, 1_400, 1000, 1000, DvfsFault::None),
            TransitionOutcome::Rejected
        );
        // Not done early; done exactly at ready_at.
        assert_eq!(c.poll(0, 1_499), None);
        assert_eq!(c.next_ready(), Some(1_500));
        assert_eq!(c.poll(0, 1_500), Some(2000));
        assert!(!c.in_transition(0));
        assert!(!c.any_in_flight());
        assert_eq!(c.next_ready(), None);
        // After completion, new requests land again.
        assert_eq!(
            c.request(0, 1_500, 2000, 1000, DvfsFault::None),
            TransitionOutcome::Applied
        );
    }

    #[test]
    fn turbo_entry_under_injected_failure_then_retry() {
        let p = FreqPlan::test_plan();
        let mut c = DvfsController::new(1);
        // The turbo write is dropped: frequency must stay put.
        assert_eq!(
            c.request(0, 0, 2000, p.turbo_mhz, DvfsFault::Fail),
            TransitionOutcome::Failed
        );
        assert!(!c.in_transition(0));
        // Retrying on the next tick (fault-free draw) succeeds.
        assert_eq!(
            c.request(0, 1_000_000, 2000, p.turbo_mhz, DvfsFault::None),
            TransitionOutcome::Applied
        );
    }

    #[test]
    fn next_ready_reports_earliest_across_cores() {
        let mut c = DvfsController::new(3);
        c.request(2, 0, 1000, 1500, DvfsFault::Spike(900));
        c.request(0, 0, 1000, 2000, DvfsFault::Spike(300));
        assert_eq!(c.next_ready(), Some(300));
        assert_eq!(c.poll(0, 300), Some(2000));
        assert_eq!(c.next_ready(), Some(900));
    }
}
