//! A plain layer stack with forward/backward over alternating
//! linear/activation layers.

use crate::layers::{Activation, ActivationKind, Linear};
use crate::matrix::Matrix;
use crate::params::{ParamVisitor, ParamVisitorMut, Params};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A single stage in a [`Sequential`] stack.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) enum Stage {
    Linear(Linear),
    Activation(Activation),
}

/// Feed-forward stack of linear and activation layers.
///
/// Used directly for the DQN/DDQN value networks, Gemini's service-time
/// predictor, and as a building block for the DDPG actor/critic (which need
/// extra structure: a two-headed actor and an action-concatenating critic —
/// see `deeppower-drl`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Sequential {
    stages: Vec<Stage>,
}

impl Sequential {
    pub(crate) fn new() -> Self {
        Self { stages: Vec::new() }
    }

    /// Build an MLP `dims[0] → dims[1] → … → dims[n-1]` with `hidden`
    /// activation between layers and `output` activation at the end
    /// (use [`ActivationKind::Identity`] for a linear head).
    ///
    /// Hidden layers are He-initialized; the output layer Xavier.
    pub fn mlp<R: Rng>(
        rng: &mut R,
        dims: &[usize],
        hidden: ActivationKind,
        output: ActivationKind,
    ) -> Self {
        assert!(dims.len() >= 2, "mlp needs at least input and output dims");
        let mut stages = Vec::new();
        for i in 0..dims.len() - 1 {
            let last = i == dims.len() - 2;
            let layer = if last {
                Linear::new_xavier(rng, dims[i], dims[i + 1])
            } else {
                Linear::new_he(rng, dims[i], dims[i + 1])
            };
            stages.push(Stage::Linear(layer));
            let act = if last { output } else { hidden };
            if act != ActivationKind::Identity {
                stages.push(Stage::Activation(Activation::new(act)));
            }
        }
        Self { stages }
    }

    /// Training forward pass (caches intermediates).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for s in &mut self.stages {
            cur = match s {
                Stage::Linear(l) => l.forward(&cur),
                Stage::Activation(a) => a.forward(&cur),
            };
        }
        cur
    }

    /// Inference forward pass (no caching, `&self`). This is the path whose
    /// latency Table 2 measures.
    ///
    /// `Linear → Activation` pairs run through the fused
    /// bias+activation kernel, ping-ponging between the current value and
    /// one scratch matrix so a whole stack performs O(1) allocations.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        let mut scratch = Matrix::zeros(0, 0);
        let mut i = 0;
        while i < self.stages.len() {
            match (&self.stages[i], self.stages.get(i + 1)) {
                (Stage::Linear(l), Some(Stage::Activation(a))) => {
                    l.forward_inference_act_into(&cur, a.kind, &mut scratch);
                    std::mem::swap(&mut cur, &mut scratch);
                    i += 2;
                }
                (Stage::Linear(l), _) => {
                    cur = l.forward_inference(&cur);
                    i += 1;
                }
                (Stage::Activation(a), _) => {
                    cur = a.forward_inference(&cur);
                    i += 1;
                }
            }
        }
        cur
    }

    /// [`Sequential::forward_inference`] into caller-owned storage: the
    /// result lands in `cur`, with `scratch` as the ping-pong partner.
    /// Once both matrices have seen the stack's widest shape no further
    /// allocation happens — hot callers (the fleet lockstep driver runs
    /// this every epoch) keep the pair across calls and go fully
    /// allocation-free. Bit-identical to `forward_inference`: same
    /// fused kernels in the same order, only the storage is reused.
    pub fn forward_inference_into(&self, x: &Matrix, cur: &mut Matrix, scratch: &mut Matrix) {
        cur.reshape(x.rows(), x.cols());
        cur.as_mut_slice().copy_from_slice(x.as_slice());
        let mut i = 0;
        while i < self.stages.len() {
            match (&self.stages[i], self.stages.get(i + 1)) {
                (Stage::Linear(l), Some(Stage::Activation(a))) => {
                    l.forward_inference_act_into(cur, a.kind, scratch);
                    std::mem::swap(cur, scratch);
                    i += 2;
                }
                (Stage::Linear(l), _) => {
                    // Identity-fused = plain linear (Identity applies as
                    // exactly `x`, so the floats are untouched).
                    l.forward_inference_act_into(cur, ActivationKind::Identity, scratch);
                    std::mem::swap(cur, scratch);
                    i += 1;
                }
                (Stage::Activation(a), _) => {
                    let kind = a.kind;
                    cur.map_inplace(|v| kind.apply(v));
                    i += 1;
                }
            }
        }
    }

    /// Backward pass; returns gradient w.r.t. the stack input.
    pub fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let mut cur = d_out.clone();
        for s in self.stages.iter_mut().rev() {
            cur = match s {
                Stage::Linear(l) => l.backward(&cur),
                Stage::Activation(a) => a.backward(&cur),
            };
        }
        cur
    }

    pub fn zero_grad(&mut self) {
        for s in &mut self.stages {
            if let Stage::Linear(l) = s {
                l.zero_grad();
            }
        }
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Params for Sequential {
    fn visit_params(&self, f: &mut ParamVisitor<'_>) {
        for s in &self.stages {
            if let Stage::Linear(l) = s {
                l.visit_params(f);
            }
        }
    }

    fn visit_params_mut(&mut self, f: &mut ParamVisitorMut<'_>) {
        for s in &mut self.stages {
            if let Stage::Linear(l) = s {
                l.visit_params_mut(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_loss;
    use crate::optim::{Adam, AdamConfig};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn mlp_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Sequential::mlp(
            &mut rng,
            &[8, 32, 24, 16, 2],
            ActivationKind::Relu,
            ActivationKind::Sigmoid,
        );
        let y = net.forward(&Matrix::from_row(&[0.1; 8]));
        assert_eq!((y.rows(), y.cols()), (1, 2));
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // 8*32+32 + 32*24+24 + 24*16+16 + 16*2+2
        assert_eq!(net.num_params(), 288 + 792 + 400 + 34);
    }

    #[test]
    fn gradient_check_small_mlp() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = Sequential::mlp(
            &mut rng,
            &[3, 5, 2],
            ActivationKind::Tanh,
            ActivationKind::Identity,
        );
        let x = Matrix::from_rows(&[&[0.3, -0.2, 0.9], &[-0.5, 0.1, 0.4]]);
        let target = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);

        // Populate analytic grads.
        net.zero_grad();
        let y = net.forward(&x);
        let (_, grad) = mse_loss(&y, &target);
        let _ = net.backward(&grad);

        let max_err = crate::finite_diff_max_rel_err(
            &mut net,
            |n| {
                let y = n.forward_inference(&x);
                mse_loss(&y, &target).0
            },
            1e-3,
        );
        assert!(max_err < crate::GRAD_CHECK_TOL, "max rel err {max_err}");
    }

    #[test]
    fn training_reduces_loss_on_toy_regression() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut net = Sequential::mlp(
            &mut rng,
            &[2, 16, 1],
            ActivationKind::Relu,
            ActivationKind::Identity,
        );
        let mut opt = Adam::new(
            AdamConfig {
                lr: 1e-2,
                ..Default::default()
            },
            &net,
        );
        // Fit y = x0 + 2*x1 on a fixed mini-dataset.
        let x = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[0.5, 0.5],
        ]);
        let t = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0], &[1.5]]);
        let initial = {
            let y = net.forward_inference(&x);
            mse_loss(&y, &t).0
        };
        for _ in 0..500 {
            net.zero_grad();
            let y = net.forward(&x);
            let (_, g) = mse_loss(&y, &t);
            let _ = net.backward(&g);
            opt.step(&mut net);
        }
        let final_loss = {
            let y = net.forward_inference(&x);
            mse_loss(&y, &t).0
        };
        assert!(
            final_loss < initial * 0.05,
            "loss did not drop enough: {initial} -> {final_loss}"
        );
    }

    #[test]
    fn backward_returns_input_gradient_of_right_shape() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Sequential::mlp(
            &mut rng,
            &[4, 8, 3],
            ActivationKind::Relu,
            ActivationKind::Identity,
        );
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let y = net.forward(&x);
        let d_in = net.backward(&Matrix::full(y.rows(), y.cols(), 1.0));
        assert_eq!((d_in.rows(), d_in.cols()), (1, 4));
    }

    #[test]
    fn forward_inference_into_is_bit_identical_and_reuses_storage() {
        let mut rng = StdRng::seed_from_u64(17);
        let net = Sequential::mlp(
            &mut rng,
            &[6, 24, 24, 3],
            ActivationKind::Relu,
            ActivationKind::Identity, // ends on a bare Linear stage
        );
        let mut cur = Matrix::zeros(0, 0);
        let mut scratch = Matrix::zeros(0, 0);
        for batch in [1usize, 4, 9] {
            let mut x = Matrix::zeros(batch, 6);
            for r in 0..batch {
                let row: Vec<f32> = (0..6).map(|c| ((r * 6 + c) as f32).sin()).collect();
                x.set_row(r, &row);
            }
            let want = net.forward_inference(&x);
            net.forward_inference_into(&x, &mut cur, &mut scratch);
            assert_eq!(want, cur, "batch {batch} diverged");
        }
    }

    #[test]
    fn forward_inference_matches_training_forward() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = Sequential::mlp(
            &mut rng,
            &[5, 10, 4],
            ActivationKind::Sigmoid,
            ActivationKind::Tanh,
        );
        let x = Matrix::from_row(&[0.1, -0.4, 0.7, 0.0, 2.0]);
        let a = net.forward(&x);
        let b = net.forward_inference(&x);
        assert_eq!(a, b);
    }
}
