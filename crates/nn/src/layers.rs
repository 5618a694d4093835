//! The dense layer: `y = f(x·W + b)` with an explicit backward pass.
//!
//! The backward contract used throughout the crate:
//!
//! * `forward(&self, x, y)` writes the layer output into `y`, a buffer
//!   the caller owns and keeps for the backward pass.
//! * `backward(&mut self, x, y, d_out, d_pre, d_in)` reads the same `x`
//!   and `y`, **accumulates** parameter gradients into the layer's `g*`
//!   buffers and writes `d_in`, the gradient of the loss with respect to
//!   the layer *input*. Accumulation (rather than overwrite) lets
//!   multi-head networks sum gradients flowing into a shared trunk; call
//!   [`Dense::zero_grad`] before each optimizer step.

use crate::init::{he_init, xavier_init};
use crate::matrix::Matrix;
use crate::params::{ParamVisitor, ParamVisitorMut, Params};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Fully connected layer with a fused element-wise activation,
/// `y = f(x·W + b)` with `W: in×out`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dense {
    /// Weights, `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f32>,
    /// The activation `f` applied to every output element.
    pub act: ActivationKind,
    /// Weight gradient accumulator.
    pub gw: Matrix,
    /// Bias gradient accumulator.
    pub gb: Vec<f32>,
}

impl Dense {
    /// He-initialized layer (use before ReLU).
    pub fn new_he<R: Rng>(rng: &mut R, in_dim: usize, out_dim: usize, act: ActivationKind) -> Self {
        Self::from_weight(he_init(rng, in_dim, out_dim), act)
    }

    /// Xavier-initialized layer (use before sigmoid/tanh or linear output).
    pub fn new_xavier<R: Rng>(
        rng: &mut R,
        in_dim: usize,
        out_dim: usize,
        act: ActivationKind,
    ) -> Self {
        Self::from_weight(xavier_init(rng, in_dim, out_dim), act)
    }

    fn from_weight(w: Matrix, act: ActivationKind) -> Self {
        let (in_dim, out_dim) = (w.rows(), w.cols());
        Self {
            w,
            b: vec![0.0; out_dim],
            act,
            gw: Matrix::zeros(in_dim, out_dim),
            gb: vec![0.0; out_dim],
        }
    }

    /// Forward pass `y = f(x·W + b)`: one fused kernel into `y`.
    pub fn forward(&self, x: &Matrix, y: &mut Matrix) {
        assert_eq!(x.cols(), self.w.rows(), "Dense input width mismatch");
        let act = self.act;
        x.matmul_bias_act_into(&self.w, &self.b, y, |v| act.apply(v));
    }

    /// Backward pass for the `x → y` of the last [`Dense::forward`]:
    /// with `d_pre = d_out ⊙ f'(y)` (written into `d_pre`), accumulates
    /// `gw += xᵀ·d_pre` and `gb += Σrows d_pre`, and writes
    /// `d_in = d_pre·Wᵀ`.
    pub fn backward(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        d_out: &Matrix,
        d_pre: &mut Matrix,
        d_in: &mut Matrix,
    ) {
        assert_eq!(d_out.cols(), self.w.cols(), "Dense grad width mismatch");
        assert_eq!(
            (y.rows(), y.cols()),
            (d_out.rows(), d_out.cols()),
            "Dense backward called before forward"
        );
        let act = self.act;
        d_pre.reshape(d_out.rows(), d_out.cols());
        for ((p, &g), &y) in d_pre
            .as_mut_slice()
            .iter_mut()
            .zip(d_out.as_slice())
            .zip(y.as_slice())
        {
            *p = g * act.derivative_from_output(y);
        }
        x.t_matmul_acc(d_pre, &mut self.gw);
        d_pre.col_sums_acc(&mut self.gb);
        d_pre.matmul_t_into(&self.w, d_in);
    }

    /// Reset gradient accumulators to zero.
    pub fn zero_grad(&mut self) {
        self.gw.as_mut_slice().fill(0.0);
        self.gb.fill(0.0);
    }
}

impl Params for Dense {
    fn visit_params(&self, f: &mut ParamVisitor<'_>) {
        f(self.w.as_slice(), self.gw.as_slice());
        f(&self.b, &self.gb);
    }

    fn visit_params_mut(&mut self, f: &mut ParamVisitorMut<'_>) {
        f(self.w.as_mut_slice(), self.gw.as_mut_slice());
        f(&mut self.b, &mut self.gb);
    }
}

/// Element-wise activations a [`Dense`] layer applies to its output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActivationKind {
    Relu,
    Sigmoid,
    Tanh,
    /// Identity — a plain linear layer. Applies as exactly `x`, and its
    /// derivative 1.0 multiplies exactly, so no float changes.
    Identity,
}

impl ActivationKind {
    #[inline]
    pub(crate) fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)` — all four
    /// supported activations admit this form, which lets the backward pass
    /// read only the layer output.
    #[inline]
    pub(crate) fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Sigmoid => y * (1.0 - y),
            ActivationKind::Tanh => 1.0 - y * y,
            ActivationKind::Identity => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::{Sequential, Tape};
    use rand::{rngs::StdRng, SeedableRng};

    /// Forward then backward of one layer; returns `d_in`.
    fn round_trip(l: &mut Dense, x: &Matrix, d_out: &Matrix) -> Matrix {
        let (mut y, mut d_pre, mut d_in) = Default::default();
        l.forward(x, &mut y);
        l.backward(x, &y, d_out, &mut d_pre, &mut d_in);
        d_in
    }

    #[test]
    fn linear_forward_known_values() {
        let mut l = Dense::from_weight(
            Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]),
            ActivationKind::Identity,
        );
        l.b = vec![0.5, -0.5];
        let mut y = Matrix::default();
        l.forward(&Matrix::from_row(&[1.0, 1.0]), &mut y);
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn linear_backward_shapes_and_bias_grad() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Dense::new_he(&mut rng, 3, 2, ActivationKind::Identity);
        let x = Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[0.5, 0.5, 0.5]]);
        let d_out = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let d_in = round_trip(&mut l, &x, &d_out);
        assert_eq!((d_in.rows(), d_in.cols()), (2, 3));
        // Bias gradient is the column sum of d_out over the batch.
        assert_eq!(l.gb, vec![2.0, 2.0]);
    }

    #[test]
    fn backward_accumulates_until_zero_grad() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = Dense::new_he(&mut rng, 2, 2, ActivationKind::Identity);
        let x = Matrix::from_row(&[1.0, 2.0]);
        let g = Matrix::from_row(&[1.0, 1.0]);
        round_trip(&mut l, &x, &g);
        let first = l.gb.clone();
        round_trip(&mut l, &x, &g);
        assert_eq!(l.gb[0], 2.0 * first[0]);
        l.zero_grad();
        assert!(l.gb.iter().all(|&v| v == 0.0));
        assert!(l.gw.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn activation_derivatives_match_definitions() {
        for &(kind, x) in &[
            (ActivationKind::Relu, 0.7f32),
            (ActivationKind::Relu, -0.7),
            (ActivationKind::Sigmoid, 0.3),
            (ActivationKind::Tanh, -1.2),
            (ActivationKind::Identity, 5.0),
        ] {
            let y = kind.apply(x);
            let eps = 1e-3;
            let numeric = (kind.apply(x + eps) - kind.apply(x - eps)) / (2.0 * eps);
            let analytic = kind.derivative_from_output(y);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "{kind:?} at {x}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn sigmoid_output_bounded() {
        let w = Matrix::from_vec(1, 3, vec![-100.0, 0.0, 100.0]);
        let l = Dense::from_weight(w, ActivationKind::Sigmoid);
        let mut y = Matrix::default();
        l.forward(&Matrix::from_row(&[1.0]), &mut y);
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::mlp(
            &mut rng,
            &[1, 1],
            ActivationKind::Relu,
            ActivationKind::Relu,
        );
        let _ = net.backward(&Matrix::from_row(&[1.0]), &mut Tape::default());
    }
}
