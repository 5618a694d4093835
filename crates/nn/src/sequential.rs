//! A plain stack of dense layers with one forward and one backward
//! pass, and the [`Tape`] that carries a pass's buffers.

use crate::layers::{ActivationKind, Dense};
use crate::matrix::Matrix;
use crate::params::{ParamVisitor, ParamVisitorMut, Params};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Feed-forward stack of [`Dense`] layers.
///
/// Used directly for the DQN value network, the SAC policy, Gemini's
/// service-time predictor, and as a building block for the DDPG
/// actor/critic (which need extra structure: a two-headed actor and an
/// action-concatenating critic — see `deeppower-drl`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Sequential {
    layers: Vec<Dense>,
}

/// Caller-owned buffers of one [`Sequential`] pass: each layer's input
/// and output, and the gradients of the backward pass. A tape kept
/// across calls reaches its largest shape once and then never
/// allocates; [`Sequential::forward`] fills it and
/// [`Sequential::backward`] reads it.
#[derive(Debug, Default)]
pub struct Tape {
    /// `acts[0]` is the input, `acts[l + 1]` the output of layer `l`.
    acts: Vec<Matrix>,
    /// `grads[l]` is the loss gradient with respect to `acts[l]`.
    grads: Vec<Matrix>,
    /// One layer's `d_out ⊙ f'(y)`, reused layer by layer.
    d_pre: Matrix,
}

impl Sequential {
    /// A stack of the given layers, applied in order.
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        Self { layers }
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
        let last = dims.len() - 2;
        let layers = (0..=last)
            .map(|i| {
                if i == last {
                    Dense::new_xavier(rng, dims[i], dims[i + 1], output)
                } else {
                    Dense::new_he(rng, dims[i], dims[i + 1], hidden)
                }
            })
            .collect();
        Self { layers }
    }

    /// Forward pass of `x` through every layer; returns the output,
    /// which lives in `tape`. Serves training (the tape then feeds
    /// [`Sequential::backward`]) and inference alike.
    pub fn forward<'t>(&self, x: &Matrix, tape: &'t mut Tape) -> &'t Matrix {
        tape.acts
            .resize_with(self.layers.len() + 1, Matrix::default);
        tape.acts[0].copy_from(x);
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, next) = tape.acts.split_at_mut(l + 1);
            layer.forward(&done[l], &mut next[0]);
        }
        &tape.acts[self.layers.len()]
    }

    /// Backward pass of the last [`Sequential::forward`] on `tape`,
    /// given the loss gradient `d_out` of its output. Accumulates every
    /// layer's parameter gradients and returns the gradient with respect
    /// to the stack input, which lives in `tape`.
    pub fn backward<'t>(&mut self, d_out: &Matrix, tape: &'t mut Tape) -> &'t Matrix {
        let n = self.layers.len();
        assert_eq!(
            tape.acts.len(),
            n + 1,
            "Sequential::backward called before forward"
        );
        tape.grads.resize_with(n, Matrix::default);
        for (l, layer) in self.layers.iter_mut().enumerate().rev() {
            let (d_in, later) = tape.grads.split_at_mut(l + 1);
            let d_out = later.first().unwrap_or(d_out);
            let (x, y) = (&tape.acts[l], &tape.acts[l + 1]);
            layer.backward(x, y, d_out, &mut tape.d_pre, &mut d_in[l]);
        }
        &tape.grads[0]
    }

    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }
}

impl Params for Sequential {
    fn visit_params(&self, f: &mut ParamVisitor<'_>) {
        for l in &self.layers {
            l.visit_params(f);
        }
    }

    fn visit_params_mut(&mut self, f: &mut ParamVisitorMut<'_>) {
        for l in &mut self.layers {
            l.visit_params_mut(f);
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
        let net = Sequential::mlp(
            &mut rng,
            &[8, 32, 24, 16, 2],
            ActivationKind::Relu,
            ActivationKind::Sigmoid,
        );
        let mut tape = Tape::default();
        let y = net.forward(&Matrix::from_row(&[0.1; 8]), &mut tape);
        assert_eq!((y.rows(), y.cols()), (1, 2));
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // 8*32+32 + 32*24+24 + 24*16+16 + 16*2+2
        assert_eq!(net.num_params(), 288 + 792 + 400 + 34);
    }

    /// MSE of `net` on `(x, target)` through a fresh tape.
    fn loss(net: &Sequential, x: &Matrix, target: &Matrix) -> f32 {
        mse_loss(
            net.forward(x, &mut Tape::default()),
            target,
            &mut Matrix::default(),
        )
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
        let (mut tape, mut grad) = (Tape::default(), Matrix::default());
        mse_loss(net.forward(&x, &mut tape), &target, &mut grad);
        net.backward(&grad, &mut tape);

        let max_err = crate::finite_diff_max_rel_err(&mut net, |n| loss(n, &x, &target), 1e-3);
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
        let initial = loss(&net, &x, &t);
        let (mut tape, mut g) = (Tape::default(), Matrix::default());
        for _ in 0..500 {
            net.zero_grad();
            mse_loss(net.forward(&x, &mut tape), &t, &mut g);
            net.backward(&g, &mut tape);
            opt.step(&mut net);
        }
        let final_loss = loss(&net, &x, &t);
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
        let mut tape = Tape::default();
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let y = net.forward(&x, &mut tape);
        let d_out = Matrix::full(y.rows(), y.cols(), 1.0);
        let d_in = net.backward(&d_out, &mut tape);
        assert_eq!((d_in.rows(), d_in.cols()), (1, 4));
    }

    #[test]
    fn forward_inference_matches_training_forward() {
        // A tape reused across passes of other shapes (the training
        // path) gives the floats of a fresh tape (the inference path).
        let mut rng = StdRng::seed_from_u64(13);
        let net = Sequential::mlp(
            &mut rng,
            &[5, 10, 4],
            ActivationKind::Sigmoid,
            ActivationKind::Tanh,
        );
        let x = Matrix::from_row(&[0.1, -0.4, 0.7, 0.0, 2.0]);
        let mut reused = Tape::default();
        net.forward(&Matrix::full(3, 5, 0.8), &mut reused);
        let a = net.forward(&x, &mut reused).clone();
        let b = net.forward(&x, &mut Tape::default()).clone();
        assert_eq!(a, b);
    }
}
