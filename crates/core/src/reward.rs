//! The reward calculator — §4.4.2.
//!
//! `R_total = −(α·R_energy + β·R_timeout + γ·R_queue)` where
//!
//! * `R_energy` — power consumed in the previous DRL step,
//! * `R_timeout` — requests that timed out in the step,
//! * `R_queue` — `scaleFunc(ql_t) · max(ql_t − ql_{t−1}, 0)`: queue growth
//!   is only punished once the queue is already long (Fig. 5's η gate).
//!
//! This implementation normalizes each term to a roughly unit scale before
//! weighting (energy against the idle↔max power band, timeouts against
//! the step's arrivals, queue growth against η) — the paper folds those
//! magnitudes into α/β/γ; factoring them out makes the default weights
//! portable across the five applications.

use serde::{Deserialize, Serialize};

/// `scaleFunc(x) = (x/η) / (x/η + η/(x+ε))` — §4.4.2, Fig. 5.
///
/// ≈0 for `x ≪ η`, crosses ½ at `x = η` (with ε → 0), → 1 as `x → ∞`.
pub fn scale_func(x: f64, eta: f64) -> f64 {
    const EPS: f64 = 1e-9;
    debug_assert!(eta > 0.0);
    let a = x / eta;
    let b = eta / (x + EPS);
    a / (a + b)
}

/// The reward components of one step, pre-weighting (all ≥ 0; useful for
/// diagnostics and the reward-weight ablation). `wasted` is the overload
/// extension's term — service effort spent on requests whose client had
/// already abandoned — and stays 0 unless an overload plan is active.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct RewardTerms {
    pub energy: f64,
    pub timeout: f64,
    pub queue: f64,
    pub wasted: f64,
}

impl RewardTerms {
    /// Combine with weights into the (negative) total reward, normalized by
    /// the weight sum so the reward scale stays ~[-2, 0] regardless of how
    /// aggressively β is tuned — unbounded negative rewards destabilize the
    /// DDPG critic (its targets compound by 1/(1−γ)). With `kappa = 0` the
    /// weight sum and the total are bit-identical to the paper's
    /// three-term reward.
    pub(crate) fn total(&self, alpha: f64, beta: f64, gamma_q: f64, kappa: f64) -> f64 {
        let wsum = (alpha + beta + gamma_q + kappa).max(1e-9);
        -(alpha * self.energy + beta * self.timeout + gamma_q * self.queue + kappa * self.wasted)
            / wsum
    }
}

/// Stateful reward calculator: tracks the previous energy counter, timeout
/// counter, arrival counter and queue length across DRL steps.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RewardCalculator {
    pub alpha: f64,
    pub beta: f64,
    pub gamma_q: f64,
    /// Weight on the wasted-work term (overload extension; 0 = the paper's
    /// three-term reward, bit-identically).
    pub kappa: f64,
    pub eta: f64,
    /// Normalization band for the energy term: socket power at idle/min
    /// frequency and at all-cores-max (watts).
    pub idle_power_w: f64,
    pub max_power_w: f64,
    prev_energy_uj: u64,
    prev_timeouts: u64,
    prev_arrived: u64,
    prev_wasted: u64,
    prev_queue_len: usize,
}

impl RewardCalculator {
    pub(crate) fn new(alpha: f64, beta: f64, gamma_q: f64, eta: f64) -> Self {
        Self {
            alpha,
            beta,
            gamma_q,
            kappa: 0.0,
            eta,
            idle_power_w: 40.0,
            max_power_w: 130.0,
            prev_energy_uj: 0,
            prev_timeouts: 0,
            prev_arrived: 0,
            prev_wasted: 0,
            prev_queue_len: 0,
        }
    }

    /// Reset counters at an episode boundary.
    pub(crate) fn reset(&mut self) {
        self.prev_energy_uj = 0;
        self.prev_timeouts = 0;
        self.prev_arrived = 0;
        self.prev_wasted = 0;
        self.prev_queue_len = 0;
    }

    /// Latch the internal counters to the given cumulative values without
    /// computing a reward.
    ///
    /// `reset()` zeroes the latches, which is only correct when the
    /// underlying counters also start from zero. When (re)starting the
    /// calculator mid-run — the monotone RAPL/request counters keep
    /// counting across episodes — latch to the *current* counters so the
    /// next `step` measures a real delta instead of the entire history.
    pub(crate) fn latch(
        &mut self,
        energy_uj: u64,
        timeouts: u64,
        arrived: u64,
        wasted: u64,
        queue_len: usize,
    ) {
        self.prev_energy_uj = energy_uj;
        self.prev_timeouts = timeouts;
        self.prev_arrived = arrived;
        self.prev_wasted = wasted;
        self.prev_queue_len = queue_len;
    }

    /// Compute the step reward from the current cumulative counters.
    ///
    /// * `energy_uj` — RAPL counter (monotone),
    /// * `timeouts` / `arrived` — cumulative request counters,
    /// * `wasted` — cumulative wasted completions (served after the client
    ///   abandoned; 0 unless an overload plan is active),
    /// * `queue_len` — current queue length,
    /// * `step_ns` — length of the DRL step (to convert energy to power).
    pub(crate) fn step(
        &mut self,
        energy_uj: u64,
        timeouts: u64,
        arrived: u64,
        wasted: u64,
        queue_len: usize,
        step_ns: u64,
    ) -> (f64, RewardTerms) {
        let d_energy_j = (energy_uj.saturating_sub(self.prev_energy_uj)) as f64 * 1e-6;
        let d_timeouts = timeouts.saturating_sub(self.prev_timeouts) as f64;
        let d_arrived = arrived.saturating_sub(self.prev_arrived) as f64;
        let d_wasted = wasted.saturating_sub(self.prev_wasted) as f64;
        let queue_growth = queue_len.saturating_sub(self.prev_queue_len) as f64;

        self.prev_energy_uj = energy_uj;
        self.prev_timeouts = timeouts;
        self.prev_arrived = arrived;
        self.prev_wasted = wasted;
        self.prev_queue_len = queue_len;

        let power_w = d_energy_j / (step_ns as f64 * 1e-9).max(1e-12);
        let energy_term = ((power_w - self.idle_power_w) / (self.max_power_w - self.idle_power_w))
            .clamp(0.0, 2.0);
        let timeout_term = if d_arrived > 0.0 {
            (d_timeouts / d_arrived).min(1.0)
        } else {
            0.0
        };
        let queue_term = scale_func(queue_len as f64, self.eta) * queue_growth / self.eta;
        // Like the timeout term: fraction of the step's offered load whose
        // service turned out to be wasted work.
        let wasted_term = if d_arrived > 0.0 {
            (d_wasted / d_arrived).min(1.0)
        } else {
            0.0
        };

        let terms = RewardTerms {
            energy: energy_term,
            timeout: timeout_term,
            queue: queue_term,
            wasted: wasted_term,
        };
        (
            terms.total(self.alpha, self.beta, self.gamma_q, self.kappa),
            terms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_func_shape_matches_fig5() {
        let eta = 100.0;
        // Near zero for small x.
        assert!(scale_func(1.0, eta) < 0.01);
        assert!(scale_func(30.0, eta) < 0.1);
        // Crosses 1/2 at x = η.
        assert!((scale_func(100.0, eta) - 0.5).abs() < 1e-6);
        // Approaches 1 for large x.
        assert!(scale_func(10_000.0, eta) > 0.99);
        // Monotone.
        let mut prev = 0.0;
        for i in 1..200 {
            let v = scale_func(i as f64 * 10.0, eta);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn zero_at_origin_and_bounded() {
        assert!(scale_func(0.0, 100.0) < 1e-12);
        for x in [0.0, 1.0, 100.0, 1e9] {
            let v = scale_func(x, 100.0);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn reward_penalizes_higher_power() {
        let mut rc_low = RewardCalculator::new(1.0, 0.0, 0.0, 100.0);
        let mut rc_high = RewardCalculator::new(1.0, 0.0, 0.0, 100.0);
        // 1 s steps: 50 J (50 W) vs 120 J (120 W).
        let (r_low, _) = rc_low.step(50_000_000, 0, 100, 0, 0, 1_000_000_000);
        let (r_high, _) = rc_high.step(120_000_000, 0, 100, 0, 0, 1_000_000_000);
        assert!(r_high < r_low, "more power must mean lower reward");
    }

    #[test]
    fn reward_penalizes_timeouts() {
        let mut rc = RewardCalculator::new(0.0, 1.0, 0.0, 100.0);
        let (r_none, t) = rc.step(0, 0, 100, 0, 0, 1_000_000_000);
        assert_eq!(t.timeout, 0.0);
        let (r_some, t) = rc.step(0, 20, 200, 0, 0, 1_000_000_000);
        assert!((t.timeout - 0.2).abs() < 1e-9);
        assert!(r_some < r_none);
    }

    #[test]
    fn queue_growth_below_eta_barely_punished() {
        let mut rc = RewardCalculator::new(0.0, 0.0, 1.0, 100.0);
        // Queue grows 0 → 20 (well below η): tiny penalty.
        let (_, t) = rc.step(0, 0, 0, 0, 20, 1_000_000_000);
        assert!(
            t.queue < 0.01,
            "small queue growth over-punished: {}",
            t.queue
        );
        // Queue grows 20 → 400 (above η): large penalty.
        let (_, t) = rc.step(0, 0, 0, 0, 400, 1_000_000_000);
        assert!(
            t.queue > 1.0,
            "large queue growth under-punished: {}",
            t.queue
        );
    }

    #[test]
    fn queue_shrinkage_not_rewarded() {
        let mut rc = RewardCalculator::new(0.0, 0.0, 1.0, 100.0);
        let _ = rc.step(0, 0, 0, 0, 500, 1_000_000_000);
        let (_, t) = rc.step(0, 0, 0, 0, 100, 1_000_000_000);
        assert_eq!(t.queue, 0.0, "max(Δql, 0) clips shrinkage");
    }

    #[test]
    fn wasted_term_is_fraction_of_offered_load() {
        let mut rc = RewardCalculator::new(0.0, 0.0, 0.0, 100.0);
        rc.kappa = 1.0;
        let (r0, t0) = rc.step(0, 0, 100, 0, 0, 1_000_000_000);
        assert_eq!(t0.wasted, 0.0);
        assert_eq!(r0, 0.0);
        // 100 new offers, 25 of them served-after-abandon → 0.25.
        let (r1, t1) = rc.step(0, 0, 200, 25, 0, 1_000_000_000);
        assert!((t1.wasted - 0.25).abs() < 1e-12);
        assert!(r1 < r0, "wasted work must lower the reward when κ > 0");
    }

    #[test]
    fn counters_are_deltas_not_cumulative() {
        let mut rc = RewardCalculator::new(1.0, 1.0, 0.0, 100.0);
        let (_, t1) = rc.step(60_000_000, 5, 100, 0, 0, 1_000_000_000);
        // Same cumulative counters again → zero deltas.
        let (_, t2) = rc.step(60_000_000, 5, 100, 0, 0, 1_000_000_000);
        assert!(t1.energy > 0.0 || t1.timeout > 0.0);
        assert_eq!(t2.timeout, 0.0);
        assert!(t2.energy <= 0.0 + 1e-12); // clamped at 0 (power below idle band)
    }

    #[test]
    fn latch_rebases_on_live_counters_where_reset_does_not() {
        // An episode boundary in the middle of a run: the monotone
        // counters are already large. `reset()` would zero the latches
        // and the next step would bill the governor for the whole
        // history; `latch(...)` rebases so only post-boundary deltas
        // count.
        let mut rc = RewardCalculator::new(1.0, 1.0, 0.0, 100.0);
        let _ = rc.step(500_000_000, 40, 1_000, 0, 0, 1_000_000_000);

        let mut via_reset = rc;
        via_reset.reset();
        let (_, t_reset) = via_reset.step(501_000_000, 40, 1_010, 0, 0, 1_000_000_000);
        // 501 J "consumed in one second" — a spurious, clamped-out blowup.
        assert!(
            t_reset.energy >= 2.0 - 1e-12,
            "reset should show the bug: {t_reset:?}"
        );
        assert!(
            t_reset.timeout > 0.0,
            "reset re-bills old timeouts: {t_reset:?}"
        );

        let mut via_latch = rc;
        via_latch.latch(500_000_000, 40, 1_000, 0, 0);
        let (_, t_latch) = via_latch.step(501_000_000, 40, 1_010, 0, 0, 1_000_000_000);
        // Real delta: 1 J over 1 s = 1 W, far below the idle band → 0.
        assert_eq!(
            t_latch.energy, 0.0,
            "latch must see only the real delta: {t_latch:?}"
        );
        assert_eq!(
            t_latch.timeout, 0.0,
            "no new timeouts after the latch: {t_latch:?}"
        );
    }

    #[test]
    fn weights_trade_off_terms_and_normalize() {
        let terms = RewardTerms {
            energy: 1.0,
            timeout: 0.5,
            queue: 0.2,
            wasted: 0.4,
        };
        // Single-term weights: total = -term value.
        assert!((terms.total(1.0, 0.0, 0.0, 0.0) + 1.0).abs() < 1e-12);
        assert!((terms.total(0.0, 2.0, 0.0, 0.0) + 0.5).abs() < 1e-12);
        assert!((terms.total(0.0, 0.0, 0.0, 3.0) + 0.4).abs() < 1e-12);
        // Mixed weights normalize by the weight sum.
        let expected = -(1.0 + 2.0 * 0.5 + 5.0 * 0.2) / 8.0;
        assert!((terms.total(1.0, 2.0, 5.0, 0.0) - expected).abs() < 1e-12);
        // Scaling all weights together leaves the reward unchanged.
        assert!((terms.total(2.0, 4.0, 10.0, 0.0) - expected).abs() < 1e-12);
        // κ joins the normalization: the four-term total.
        let expected4 = -(1.0 + 2.0 * 0.5 + 5.0 * 0.2 + 2.0 * 0.4) / 10.0;
        assert!((terms.total(1.0, 2.0, 5.0, 2.0) - expected4).abs() < 1e-12);
    }
}
