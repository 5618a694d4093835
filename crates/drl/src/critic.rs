//! The DeepPower critic network (§4.6).
//!
//! "As for critic, we concatenate the output of the first hidden layer with
//! the action, and then pass through two fully-connected layers."
//!
//! Structure: `state → Linear(S→32) → ReLU → h`; `concat(h, action)` →
//! `Linear(32+A→24) → ReLU → Linear(24→16) → ReLU → Linear(16→1)`.
//!
//! The backward pass returns the gradient with respect to the action
//! input (`dQ/da`), which DDPG's deterministic policy-gradient actor
//! update consumes.

use deeppower_nn::{
    ActivationKind, Dense, Matrix, ParamVisitor, ParamVisitorMut, Params, Sequential, Tape,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Action-concatenating Q-network `Q(s, a) → ℝ`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Critic {
    /// `state → h`: the first hidden layer.
    state_path: Sequential,
    /// `concat(h, action) → Q`: the remaining three layers.
    joint: Sequential,
    state_dim: usize,
    action_dim: usize,
    hidden1: usize,
}

/// Caller-owned buffers of one [`Critic`] pass. Reused across calls, a
/// tape stops allocating once it has seen its largest batch.
#[derive(Default)]
pub(crate) struct CriticTape {
    state: Tape,
    joint: Tape,
    /// `concat(h, action)`, the joint path's input.
    joined: Matrix,
    /// The two halves of the gradient w.r.t. `joined`.
    d_h: Matrix,
    d_actions: Matrix,
}

impl Critic {
    /// The paper's sizes: 32 state units, then (32+A) → 24 → 16 → 1.
    pub fn paper_default<R: Rng>(rng: &mut R, state_dim: usize, action_dim: usize) -> Self {
        Self::new(rng, state_dim, action_dim, 32, 24, 16)
    }

    pub(crate) fn new<R: Rng>(
        rng: &mut R,
        state_dim: usize,
        action_dim: usize,
        h1: usize,
        h2: usize,
        h3: usize,
    ) -> Self {
        use ActivationKind::{Identity, Relu};
        let state_path = Sequential::from_layers(vec![Dense::new_he(rng, state_dim, h1, Relu)]);
        let joint = Sequential::from_layers(vec![
            Dense::new_he(rng, h1 + action_dim, h2, Relu),
            Dense::new_he(rng, h2, h3, Relu),
            Dense::new_xavier(rng, h3, 1, Identity),
        ]);
        Self {
            state_path,
            joint,
            state_dim,
            action_dim,
            hidden1: h1,
        }
    }

    /// Forward pass: `Q(s, a)` as an `n × 1` matrix, which lives in
    /// `tape`. Serves training and inference alike.
    pub(crate) fn forward<'t>(
        &self,
        states: &Matrix,
        actions: &Matrix,
        tape: &'t mut CriticTape,
    ) -> &'t Matrix {
        assert_eq!(states.cols(), self.state_dim, "critic state width mismatch");
        assert_eq!(
            actions.cols(),
            self.action_dim,
            "critic action width mismatch"
        );
        assert_eq!(states.rows(), actions.rows(), "critic batch mismatch");
        let h = self.state_path.forward(states, &mut tape.state);
        h.hconcat_into(actions, &mut tape.joined);
        self.joint.forward(&tape.joined, &mut tape.joint)
    }

    /// Scalar Q-value for one `(state, action)` pair.
    pub fn q_value(&self, state: &[f32], action: &[f32]) -> f32 {
        let (s, a) = (Matrix::from_row(state), Matrix::from_row(action));
        self.forward(&s, &a, &mut CriticTape::default()).get(0, 0)
    }

    /// Backward pass of the last [`forward`](Self::forward) on `tape`,
    /// given `d_q (n × 1)`; accumulates parameter gradients and returns
    /// `d_actions`, which lives in `tape`.
    pub(crate) fn backward<'t>(&mut self, d_q: &Matrix, tape: &'t mut CriticTape) -> &'t Matrix {
        let d_joined = self.joint.backward(d_q, &mut tape.joint);
        d_joined.hsplit_into(self.hidden1, &mut tape.d_h, &mut tape.d_actions);
        self.state_path.backward(&tape.d_h, &mut tape.state);
        &tape.d_actions
    }

    pub(crate) fn zero_grad(&mut self) {
        self.state_path.zero_grad();
        self.joint.zero_grad();
    }
}

impl Params for Critic {
    fn visit_params(&self, f: &mut ParamVisitor<'_>) {
        self.state_path.visit_params(f);
        self.joint.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut ParamVisitorMut<'_>) {
        self.state_path.visit_params_mut(f);
        self.joint.visit_params_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn shapes_and_param_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let critic = Critic::paper_default(&mut rng, 8, 2);
        // 8*32+32 + 34*24+24 + 24*16+16 + 16*1+1
        assert_eq!(critic.num_params(), 288 + 840 + 400 + 17);
    }

    #[test]
    fn gradient_check_parameters() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut critic = Critic::new(&mut rng, 3, 2, 5, 4, 3);
        let s = Matrix::from_rows(&[&[0.2, -0.1, 0.7], &[0.5, 0.5, -0.5]]);
        let a = Matrix::from_rows(&[&[0.3, 0.6], &[0.8, 0.1]]);

        critic.zero_grad();
        let mut tape = CriticTape::default();
        let q = critic.forward(&s, &a, &mut tape);
        let d_q = Matrix::full(q.rows(), q.cols(), 1.0);
        critic.backward(&d_q, &mut tape);

        let max_err = deeppower_nn::finite_diff_max_rel_err(
            &mut critic,
            |c| c.forward(&s, &a, &mut tape).as_slice().iter().sum(),
            1e-3,
        );
        assert!(
            max_err < deeppower_nn::GRAD_CHECK_TOL,
            "max rel err {max_err}"
        );
    }

    #[test]
    fn action_gradient_matches_finite_difference() {
        // dQ/da is the quantity DDPG's actor update relies on — check it
        // numerically, not just the parameter gradients.
        let mut rng = StdRng::seed_from_u64(4);
        let mut critic = Critic::paper_default(&mut rng, 8, 2);
        let s = Matrix::from_row(&[0.4; 8]);
        let a = Matrix::from_row(&[0.5, 0.5]);
        let mut tape = CriticTape::default();
        critic.forward(&s, &a, &mut tape);
        let d_a = critic
            .backward(&Matrix::from_row(&[1.0]), &mut tape)
            .clone();
        for i in 0..2 {
            let eps = 1e-3;
            let mut up = a.clone();
            up.as_mut_slice()[i] += eps;
            let mut dn = a.clone();
            dn.as_mut_slice()[i] -= eps;
            let q = |a: &Matrix| critic.q_value(s.as_slice(), a.as_slice());
            let numeric = (q(&up) - q(&dn)) / (2.0 * eps);
            let analytic = d_a.as_slice()[i];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "dim {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn q_value_depends_on_action() {
        let mut rng = StdRng::seed_from_u64(5);
        let critic = Critic::paper_default(&mut rng, 8, 2);
        let s = [0.3f32; 8];
        let q1 = critic.q_value(&s, &[0.0, 0.0]);
        let q2 = critic.q_value(&s, &[1.0, 1.0]);
        assert_ne!(q1, q2);
    }
}
