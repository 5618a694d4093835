//! Socket power model and energy meter — the RAPL stand-in.
//!
//! Paper §5.2: "The energy consumption is recorded in Machine Specific
//! Register (MSR) and can be read with Intel Running Average Power Limit
//! (RAPL) interface." RAPL exposes a monotone microjoule counter per
//! socket; [`EnergyMeter`] reproduces that interface over the simulated
//! power model.
//!
//! Power model (standard DVFS abstraction — dynamic power is `C·V²·f` and
//! voltage scales roughly linearly with frequency, giving a cubic term):
//!
//! `P_socket = P_static + Σ_cores u_c · (a·f_c³ + b·f_c)`
//!
//! where `u_c` is 1 for a busy core and `idle_activity` (< 1, the cost of a
//! clocked-but-idle core under the `userspace` governor, which does not
//! enter deep C-states) for an idle core. The defaults calibrate to the
//! Xeon Gold 5218R's ~125 W TDP with 20 busy cores at 2.1 GHz.

use crate::clock::Nanos;
use crate::dvfs::MHZ_PER_GHZ;
use serde::{Deserialize, Serialize};

/// Per-socket power model parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PowerModel {
    /// Static/uncore power of the socket in watts.
    pub static_w: f64,
    /// Cubic dynamic coefficient: watts per core per GHz³.
    pub dyn_coef: f64,
    /// Linear dynamic coefficient: watts per core per GHz (leakage and
    /// clock-tree power that scales with f but not f³).
    pub lin_coef: f64,
    /// Activity factor of an idle core relative to a busy one (clock still
    /// toggling at the commanded frequency, pipeline mostly quiescent).
    pub idle_activity: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::xeon_gold_5218r()
    }
}

impl PowerModel {
    /// Calibrated to the paper's socket: 20 cores × 4.5 W at 2.1 GHz busy
    /// + 25 W static/uncore ≈ 115 W, inside the 125 W TDP.
    pub fn xeon_gold_5218r() -> Self {
        Self {
            static_w: 25.0,
            dyn_coef: 0.35,
            lin_coef: 0.60,
            idle_activity: 0.20,
        }
    }

    /// Power draw of one core at `freq_mhz`, busy or idle.
    pub fn core_power_w(&self, freq_mhz: u32, busy: bool) -> f64 {
        let f_ghz = freq_mhz as f64 / MHZ_PER_GHZ;
        let dynamic = self.dyn_coef * f_ghz.powi(3) + self.lin_coef * f_ghz;
        if busy {
            dynamic
        } else {
            dynamic * self.idle_activity
        }
    }
}

/// Monotone energy accumulator with a RAPL-like microjoule counter.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct EnergyMeter {
    joules: f64,
    /// Time over which energy was integrated (for average-power reporting).
    elapsed_ns: Nanos,
}

impl EnergyMeter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Integrate `power_w` over `dt` nanoseconds.
    pub fn accumulate(&mut self, power_w: f64, dt: Nanos) {
        debug_assert!(power_w >= 0.0, "negative power");
        self.joules += power_w * dt as f64 * 1e-9;
        self.elapsed_ns += dt;
    }

    /// Total energy in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// RAPL-style monotone counter in microjoules.
    pub fn read_energy_uj(&self) -> u64 {
        (self.joules * 1e6) as u64
    }

    /// Average power over everything integrated so far.
    pub fn average_power_w(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.joules / (self.elapsed_ns as f64 * 1e-9)
        }
    }

    pub fn elapsed_ns(&self) -> Nanos {
        self.elapsed_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SECOND;

    /// Socket power with 20 cores all at `freq_mhz`, busy or idle.
    fn socket_w(m: &PowerModel, freq_mhz: u32, busy: bool) -> f64 {
        m.static_w + (0..20).map(|_| m.core_power_w(freq_mhz, busy)).sum::<f64>()
    }

    #[test]
    fn default_calibration_near_tdp_at_full_load() {
        let m = PowerModel::xeon_gold_5218r();
        let p = socket_w(&m, 2100, true);
        assert!((100.0..130.0).contains(&p), "full-load power {p}");
    }

    #[test]
    fn idle_low_frequency_power_is_much_lower() {
        let m = PowerModel::xeon_gold_5218r();
        let p = socket_w(&m, 800, false);
        // Mostly static power.
        assert!(p < 35.0, "idle power {p}");
        assert!(p > m.static_w);
    }

    #[test]
    fn power_is_monotone_in_frequency() {
        let m = PowerModel::default();
        let mut prev = 0.0;
        for f in [800u32, 1200, 1600, 2100, 3000] {
            let p = m.core_power_w(f, true);
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn turbo_power_is_disproportionate() {
        // Cubic term: going 2.1 → 3.0 GHz (+43%) should cost more than
        // +43% extra power on the dynamic part.
        let m = PowerModel::default();
        let p21 = m.core_power_w(2100, true);
        let p30 = m.core_power_w(3000, true);
        assert!(p30 / p21 > 1.43 * 1.3, "turbo ratio {}", p30 / p21);
    }

    #[test]
    fn meter_integrates_power_over_time() {
        let mut e = EnergyMeter::new();
        e.accumulate(100.0, SECOND); // 100 W for 1 s = 100 J
        assert!((e.joules() - 100.0).abs() < 1e-9);
        assert_eq!(e.read_energy_uj(), 100_000_000);
        assert!((e.average_power_w() - 100.0).abs() < 1e-9);
        e.accumulate(0.0, SECOND);
        assert!((e.average_power_w() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn idle_core_cheaper_than_busy_at_same_frequency() {
        let m = PowerModel::default();
        assert!(m.core_power_w(2100, false) < m.core_power_w(2100, true));
    }
}
