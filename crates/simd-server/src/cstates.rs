//! CPU idle (sleep) states — the paper's future work (§6).
//!
//! "Entering the sleep state significantly reduces the power consumption
//! of a core, but returning it to normal state takes a considerable amount
//! of time (i.e. about 100us for C6 state). … The integration of sleep
//! states into our methods represents a significant challenge. We leave
//! this to future work."
//!
//! This module models that trade-off so sleep-aware governors (DynSleep-
//! or µDPM-style, and DeepPower's own sleep extension in
//! `deeppower-core::sleep`) can be built and evaluated: an idle core may
//! be commanded into a [`CState`], where it draws a small fixed power
//! instead of its clocked-idle power; dispatching a request to a sleeping
//! core first pays the state's wake latency.

/// One idle state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct CState {
    pub name: &'static str,
    /// Residual core power while in this state, watts.
    pub power_w: f64,
    /// Latency to return to C0 and start executing, nanoseconds.
    pub wake_ns: u64,
}

/// The set of idle states a core may enter (ordered shallow → deep:
/// increasing savings, increasing wake latency).
#[derive(Clone, Debug, PartialEq)]
pub struct CStatePlan {
    pub(crate) states: Vec<CState>,
}

impl CStatePlan {
    /// No sleep states available (the paper's main evaluation setting —
    /// the `userspace` governor keeps cores clocked).
    pub fn none() -> Self {
        Self { states: Vec::new() }
    }

    /// Xeon-like plan: C1 (halt) and C6 (deep), with the paper's ~100 µs
    /// C6 wake latency.
    pub(crate) fn xeon() -> Self {
        Self {
            states: vec![
                // Residual powers sit below clocked idle at any frequency
                // (clocked idle at 800 MHz ≈ 0.13 W in the default model):
                // C1 halts the pipeline, C6 power-gates the core.
                CState {
                    name: "C1",
                    power_w: 0.08,
                    wake_ns: 2_000,
                },
                CState {
                    name: "C6",
                    power_w: 0.01,
                    wake_ns: 100_000,
                },
            ],
        }
    }

    /// Validate ordering invariants: deeper states save more and wake
    /// slower.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for w in self.states.windows(2) {
            if w[1].power_w >= w[0].power_w {
                return Err("deeper C-state must draw less power".into());
            }
            if w[1].wake_ns <= w[0].wake_ns {
                return Err("deeper C-state must wake slower".into());
            }
        }
        if self.states.iter().any(|s| s.power_w < 0.0) {
            return Err("negative residual power".into());
        }
        Ok(())
    }

    pub(crate) fn get(&self, idx: usize) -> Option<&CState> {
        self.states.get(idx)
    }

    /// Index of the deepest state, if any.
    pub fn deepest(&self) -> Option<usize> {
        self.states.len().checked_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_plan_is_valid_and_matches_paper_wake_latency() {
        let p = CStatePlan::xeon();
        p.validate().unwrap();
        let c6 = p.get(p.deepest().unwrap()).unwrap();
        assert_eq!(c6.name, "C6");
        assert_eq!(c6.wake_ns, 100_000, "paper: ~100 us for C6");
        assert!(c6.power_w < p.get(0).unwrap().power_w);
    }

    #[test]
    fn empty_plan_is_valid() {
        let p = CStatePlan::none();
        assert!(p.states.is_empty());
        p.validate().unwrap();
        assert_eq!(p.deepest(), None);
    }

    #[test]
    fn validate_rejects_disordered_plans() {
        let mut p = CStatePlan::xeon();
        p.states.swap(0, 1);
        assert!(p.validate().is_err());
        let p = CStatePlan {
            states: vec![
                CState {
                    name: "a",
                    power_w: 1.0,
                    wake_ns: 10,
                },
                CState {
                    name: "b",
                    power_w: 0.5,
                    wake_ns: 5,
                },
            ],
        };
        assert!(p.validate().is_err());
    }
}
