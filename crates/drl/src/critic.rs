//! The DeepPower critic network (§4.6).
//!
//! "As for critic, we concatenate the output of the first hidden layer with
//! the action, and then pass through two fully-connected layers."
//!
//! Structure: `state → Linear(S→32) → ReLU → h`; `concat(h, action)` →
//! `Linear(32+A→24) → ReLU → Linear(24→16) → ReLU → Linear(16→1)`.
//!
//! The backward pass returns gradients with respect to **both** the state
//! and the action input. The action gradient (`dQ/da`) is what DDPG's
//! deterministic policy-gradient actor update consumes.

use deeppower_nn::{Activation, Linear, Matrix, ParamVisitor, ParamVisitorMut, Params};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Action-concatenating Q-network `Q(s, a) → ℝ`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Critic {
    state_layer: Linear,
    state_act: Activation,
    joint1: Linear,
    joint1_act: Activation,
    joint2: Linear,
    joint2_act: Activation,
    out: Linear,
    state_dim: usize,
    action_dim: usize,
    hidden1: usize,
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
        Self {
            state_layer: Linear::new_he(rng, state_dim, h1),
            state_act: Activation::relu(),
            joint1: Linear::new_he(rng, h1 + action_dim, h2),
            joint1_act: Activation::relu(),
            joint2: Linear::new_he(rng, h2, h3),
            joint2_act: Activation::relu(),
            out: Linear::new_xavier(rng, h3, 1),
            state_dim,
            action_dim,
            hidden1: h1,
        }
    }

    /// Training forward: `Q(s, a)` as an `n × 1` matrix.
    pub(crate) fn forward(&mut self, states: &Matrix, actions: &Matrix) -> Matrix {
        assert_eq!(states.cols(), self.state_dim, "critic state width mismatch");
        assert_eq!(
            actions.cols(),
            self.action_dim,
            "critic action width mismatch"
        );
        assert_eq!(states.rows(), actions.rows(), "critic batch mismatch");
        let h = self.state_act.forward(&self.state_layer.forward(states));
        let joined = h.hconcat(actions);
        let z1 = self.joint1_act.forward(&self.joint1.forward(&joined));
        let z2 = self.joint2_act.forward(&self.joint2.forward(&z1));
        self.out.forward(&z2)
    }

    /// Inference forward (no caching).
    pub(crate) fn forward_inference(&self, states: &Matrix, actions: &Matrix) -> Matrix {
        let h = self
            .state_act
            .forward_inference(&self.state_layer.forward_inference(states));
        let joined = h.hconcat(actions);
        let z1 = self
            .joint1_act
            .forward_inference(&self.joint1.forward_inference(&joined));
        let z2 = self
            .joint2_act
            .forward_inference(&self.joint2.forward_inference(&z1));
        self.out.forward_inference(&z2)
    }

    /// Scalar Q-value for one `(state, action)` pair.
    pub fn q_value(&self, state: &[f32], action: &[f32]) -> f32 {
        self.forward_inference(&Matrix::from_row(state), &Matrix::from_row(action))
            .as_slice()[0]
    }

    /// Backward pass given `d_q (n × 1)`; accumulates parameter gradients
    /// and returns `(d_states, d_actions)`.
    pub(crate) fn backward(&mut self, d_q: &Matrix) -> (Matrix, Matrix) {
        let d_z2 = self.joint2_act.backward(&self.out.backward(d_q));
        let d_z1 = self.joint1_act.backward(&self.joint2.backward(&d_z2));
        let d_joined = self.joint1.backward(&d_z1);
        let (d_h, d_actions) = d_joined.hsplit(self.hidden1);
        let d_states = self.state_layer.backward(&self.state_act.backward(&d_h));
        (d_states, d_actions)
    }

    pub(crate) fn zero_grad(&mut self) {
        self.state_layer.zero_grad();
        self.joint1.zero_grad();
        self.joint2.zero_grad();
        self.out.zero_grad();
    }
}

impl Params for Critic {
    fn visit_params(&self, f: &mut ParamVisitor<'_>) {
        self.state_layer.visit_params(f);
        self.joint1.visit_params(f);
        self.joint2.visit_params(f);
        self.out.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut ParamVisitorMut<'_>) {
        self.state_layer.visit_params_mut(f);
        self.joint1.visit_params_mut(f);
        self.joint2.visit_params_mut(f);
        self.out.visit_params_mut(f);
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
    fn forward_matches_inference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut critic = Critic::paper_default(&mut rng, 8, 2);
        let s = Matrix::from_rows(&[&[0.1; 8], &[0.5; 8]]);
        let a = Matrix::from_rows(&[&[0.3, 0.7], &[0.9, 0.2]]);
        assert_eq!(critic.forward(&s, &a), critic.forward_inference(&s, &a));
    }

    #[test]
    fn gradient_check_parameters() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut critic = Critic::new(&mut rng, 3, 2, 5, 4, 3);
        let s = Matrix::from_rows(&[&[0.2, -0.1, 0.7], &[0.5, 0.5, -0.5]]);
        let a = Matrix::from_rows(&[&[0.3, 0.6], &[0.8, 0.1]]);

        critic.zero_grad();
        let q = critic.forward(&s, &a);
        let _ = critic.backward(&Matrix::full(q.rows(), q.cols(), 1.0));

        let max_err = deeppower_nn::finite_diff_max_rel_err(
            &mut critic,
            |c| c.forward_inference(&s, &a).as_slice().iter().sum(),
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
        let _ = critic.forward(&s, &a);
        let (_, d_a) = critic.backward(&Matrix::from_row(&[1.0]));
        for i in 0..2 {
            let eps = 1e-3;
            let mut up = a.clone();
            up.as_mut_slice()[i] += eps;
            let mut dn = a.clone();
            dn.as_mut_slice()[i] -= eps;
            let numeric = (critic.forward_inference(&s, &up).as_slice()[0]
                - critic.forward_inference(&s, &dn).as_slice()[0])
                / (2.0 * eps);
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
