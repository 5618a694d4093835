//! The Soft Actor-Critic (Haarnoja et al., 2018) policy network, forward
//! only: a tanh-squashed Gaussian policy.
//!
//! The paper uses SAC for its single-state inference time in Table 2
//! (§3.2), where it is the slowest of the four agents at 472 µs.
//! [`Sac::act_explore`] does the work that figure reflects: one forward
//! pass, a reparameterised Gaussian sample, the tanh squash and the
//! sample's log-probability.
//!
//! Actions live in `[-1, 1]` per dimension (tanh squashing); callers that
//! need `[0, 1]` map affinely.

use crate::noise::sample_standard_normal;
use deeppower_nn::{ActivationKind, Matrix, Sequential};
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};

const LOG_STD_MIN: f32 = -5.0;
const LOG_STD_MAX: f32 = 2.0;
const TANH_EPS: f32 = 1e-6;

/// Shape and seed of a [`Sac`] policy.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SacConfig {
    pub state_dim: usize,
    pub action_dim: usize,
    /// Seeds both the weight initialisation and the sampling stream.
    pub seed: u64,
}

impl Default for SacConfig {
    fn default() -> Self {
        Self {
            state_dim: 8,
            action_dim: 2,
            seed: 0,
        }
    }
}

/// SAC policy.
pub struct Sac {
    pub cfg: SacConfig,
    /// Policy network: state → `2 * action_dim` outputs (means, log-stds).
    pub policy: Sequential,
    rng: StdRng,
}

impl Sac {
    pub fn new(cfg: SacConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let policy = Sequential::mlp(
            &mut rng,
            &[cfg.state_dim, 32, 24, 2 * cfg.action_dim],
            ActivationKind::Relu,
            ActivationKind::Identity,
        );
        Self { cfg, policy, rng }
    }

    /// Stochastic action and its log-probability `log π(a|s)`.
    pub fn act_explore(&mut self, state: &[f32]) -> (Vec<f32>, f32) {
        let out = self.policy.forward_inference(&Matrix::from_row(state));
        let (a, log_prob) = self.sample(&out);
        (a.row(0).to_vec(), log_prob[0])
    }

    /// Sample squashed actions from raw policy outputs `[mu | log_std]`,
    /// one row per state, with each row's log-probability.
    fn sample(&mut self, out: &Matrix) -> (Matrix, Vec<f32>) {
        let (n, ad) = (out.rows(), self.cfg.action_dim);
        let mut a = Matrix::zeros(n, ad);
        let mut log_prob = vec![0.0f32; n];
        let half_ln_2pi = 0.5 * (2.0 * std::f32::consts::PI).ln();
        for (i, lp) in log_prob.iter_mut().enumerate() {
            for j in 0..ad {
                let ls = out.get(i, ad + j).clamp(LOG_STD_MIN, LOG_STD_MAX);
                let e = sample_standard_normal(&mut self.rng);
                let act = (out.get(i, j) + ls.exp() * e).tanh();
                a.set(i, j, act);
                *lp += -0.5 * e * e - ls - half_ln_2pi - (1.0 - act * act + TANH_EPS).ln();
            }
        }
        (a, log_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_bounded_in_unit_ball() {
        let mut agent = Sac::new(SacConfig {
            seed: 1,
            ..Default::default()
        });
        let (a, _) = agent.act_explore(&[0.5; 8]);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|&x| (-1.0..=1.0).contains(&x)));
    }

    #[test]
    fn log_prob_decreases_with_wider_policy() {
        // For a fixed sampled epsilon near 0, increasing sigma lowers density.
        let mut agent = Sac::new(SacConfig {
            action_dim: 1,
            seed: 3,
            ..Default::default()
        });
        let narrow = Matrix::from_row(&[0.0, -2.0]); // mu=0, log_std=-2
        let wide = Matrix::from_row(&[0.0, 0.5]);
        // Use same RNG position for both by reseeding.
        agent.rng = StdRng::seed_from_u64(42);
        let (_, s1) = agent.sample(&narrow);
        agent.rng = StdRng::seed_from_u64(42);
        let (_, s2) = agent.sample(&wide);
        assert!(s1[0] > s2[0]);
    }
}
