//! Shared-resource contention.
//!
//! §3.1 of the paper: "Since many threads process the requests in the same
//! machine, different threads have contention for memory, cache, and disk
//! … When the RPS changes, the impact of this contention on service time
//! also varies together, which may mislead the prediction."
//!
//! The simulator models this as a multiplicative service-time inflation
//! that grows with the fraction of busy sibling cores:
//!
//! `inflation = 1 + coeff · (busy / total)^exponent`
//!
//! The engine recomputes it whenever the busy count changes (a core starts
//! or finishes a request), so a request slows down while the socket is
//! crowded and speeds back up as siblings drain — exactly the load-coupled
//! drift that makes fixed-load service-time models (Fig. 2) inaccurate
//! across load levels.

use serde::{Deserialize, Serialize};

/// Load-dependent service-time inflation model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ContentionModel {
    /// Inflation at full occupancy (e.g. 0.35 ⇒ 35 % slower when every
    /// core is busy).
    pub coeff: f64,
    /// Shape: 1 = linear in occupancy, 2 = convex (contention bites mostly
    /// near saturation — the realistic choice for shared caches/memory BW).
    pub exponent: f64,
}

impl Default for ContentionModel {
    fn default() -> Self {
        Self {
            coeff: 0.35,
            exponent: 2.0,
        }
    }
}

impl ContentionModel {
    /// No contention at all (useful for analytic unit tests).
    pub fn none() -> Self {
        Self {
            coeff: 0.0,
            exponent: 1.0,
        }
    }

    /// Inflation factor (≥ 1) given busy and total core counts.
    pub(crate) fn inflation(&self, busy: usize, total: usize) -> f64 {
        debug_assert!(busy <= total);
        if total == 0 || self.coeff == 0.0 {
            return 1.0;
        }
        let occupancy = busy as f64 / total as f64;
        1.0 + self.coeff * occupancy.powf(self.exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_contention_when_idle_or_disabled() {
        let m = ContentionModel::default();
        assert_eq!(m.inflation(0, 20), 1.0);
        assert_eq!(ContentionModel::none().inflation(20, 20), 1.0);
    }

    #[test]
    fn inflation_monotone_in_occupancy() {
        let m = ContentionModel::default();
        let mut prev = 0.0;
        for busy in 0..=20 {
            let i = m.inflation(busy, 20);
            assert!(i >= prev);
            prev = i;
        }
    }

    #[test]
    fn full_occupancy_matches_coeff() {
        let m = ContentionModel {
            coeff: 0.4,
            exponent: 2.0,
        };
        assert!((m.inflation(20, 20) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn convex_shape_bites_near_saturation() {
        let m = ContentionModel {
            coeff: 0.4,
            exponent: 2.0,
        };
        let half = m.inflation(10, 20) - 1.0;
        let full = m.inflation(20, 20) - 1.0;
        assert!(half < full / 2.0, "convexity: {half} vs {full}");
    }

    #[test]
    fn zero_total_cores_is_safe() {
        assert_eq!(ContentionModel::default().inflation(0, 0), 1.0);
    }
}
