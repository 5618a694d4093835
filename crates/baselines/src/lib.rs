//! # deeppower-baselines
//!
//! The state-of-the-art comparison points of the paper's evaluation (§5.2):
//!
//! * **ReTail** (Chen et al., HPCA 2022) — "argues that linear regression
//!   is accurate enough for applications in Tailbench … When a request
//!   arrives, Retail enumerates all the frequency levels from small to
//!   large and stops when the frequency level is large enough to avoid
//!   timing out." Implemented in [`RetailGovernor`] over an OLS predictor
//!   ([`LinReg`]).
//! * **Gemini** (Zhou et al., MICRO 2020) — "uses a neural network for
//!   service time prediction … selects a low frequency of a request and
//!   boosts the frequency when the request is going to time out."
//!   Implemented in [`GeminiGovernor`] over a small MLP predictor.
//! * **Rubik** (Kasture et al., MICRO 2015) — related work (§6): feature-
//!   free statistical tail planning; "takes the tail of the distribution
//!   as the predicted latency", implemented in [`RubikGovernor`].
//! * **MaxFreq** — the paper's no-power-management baseline (all cores at
//!   the maximum nominal frequency), plus arbitrary fixed frequencies.
//!
//! Both predictor-based baselines train on profiling data collected from a
//! fixed-load run ([`collect_profile`]) — exactly the static-load
//! modeling assumption §3.1 shows breaks under dynamic load (Fig. 2).

mod gemini;
mod linreg;
mod profile;
mod retail;
mod rubik;

pub use gemini::{GeminiConfig, GeminiGovernor};
pub use linreg::LinReg;
pub use profile::{collect_profile, ProfileSample};
pub use retail::{RetailConfig, RetailGovernor};
pub use rubik::{RubikConfig, RubikGovernor};

/// The paper's unmanaged baseline: every core pinned at max nominal
/// frequency.
pub fn max_freq_governor() -> deeppower_simd_server::FixedFrequency {
    deeppower_simd_server::FixedFrequency {
        mhz: deeppower_simd_server::FreqPlan::xeon_gold_5218r().max_mhz(),
    }
}
