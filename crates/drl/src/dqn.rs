//! The DQN Q-network (Mnih et al., 2015), forward only.
//!
//! The paper uses DQN and Double DQN for one thing: their single-state
//! inference time in Table 2 (§3.2). Double DQN (van Hasselt et al.,
//! 2016) changes only the training target, so both time this network's
//! greedy [`Dqn::act`].

use deeppower_nn::{ActivationKind, Matrix, Sequential, Tape};
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Shape and initialisation seed of a [`Dqn`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DqnConfig {
    pub state_dim: usize,
    pub n_actions: usize,
    pub seed: u64,
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self {
            state_dim: 8,
            n_actions: 16,
            seed: 0,
        }
    }
}

/// Deep Q-network with the same lightweight hidden sizes as the paper's
/// actor (32, 24, 16), so the Table 2 comparison is apples to apples.
pub struct Dqn {
    pub net: Sequential,
}

impl Dqn {
    pub fn new(cfg: DqnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let net = Sequential::mlp(
            &mut rng,
            &[cfg.state_dim, 32, 24, 16, cfg.n_actions],
            ActivationKind::Relu,
            ActivationKind::Identity,
        );
        Self { net }
    }

    /// Greedy action (the path Table 2 times).
    pub fn act(&self, state: &[f32]) -> usize {
        let mut tape = Tape::default();
        argmax(self.net.forward(&Matrix::from_row(state), &mut tape).row(0))
    }
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_picks_first_max_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }
}
