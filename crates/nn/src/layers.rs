//! Layers with explicit forward/backward passes.
//!
//! The backward contract used throughout the crate:
//!
//! * `forward(&mut self, x)` caches whatever the backward pass needs and
//!   returns the layer output.
//! * `backward(&mut self, d_out)` **accumulates** parameter gradients into
//!   the layer's `g*` buffers and returns `d_in`, the gradient of the loss
//!   with respect to the layer *input*. Accumulation (rather than
//!   overwrite) lets multi-head networks sum gradients flowing into a
//!   shared trunk; call [`Linear::zero_grad`] before each optimizer step.

use crate::init::{he_init, xavier_init};
use crate::matrix::Matrix;
use crate::params::{ParamVisitor, ParamVisitorMut, Params};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Fully connected layer `y = x·W + b` with `W: in×out`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linear {
    /// Weights, `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f32>,
    /// Weight gradient accumulator.
    pub gw: Matrix,
    /// Bias gradient accumulator.
    pub gb: Vec<f32>,
    #[serde(skip)]
    cached_input: Option<Matrix>,
}

impl Linear {
    /// He-initialized layer (use before ReLU).
    pub fn new_he<R: Rng>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        Self::from_weight(he_init(rng, in_dim, out_dim))
    }

    /// Xavier-initialized layer (use before sigmoid/tanh or linear output).
    pub fn new_xavier<R: Rng>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        Self::from_weight(xavier_init(rng, in_dim, out_dim))
    }

    fn from_weight(w: Matrix) -> Self {
        let (in_dim, out_dim) = (w.rows(), w.cols());
        Self {
            w,
            b: vec![0.0; out_dim],
            gw: Matrix::zeros(in_dim, out_dim),
            gb: vec![0.0; out_dim],
            cached_input: None,
        }
    }

    pub(crate) fn in_dim(&self) -> usize {
        self.w.rows()
    }

    pub(crate) fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass; caches the input for the backward pass.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "Linear input width mismatch");
        let mut y = Matrix::zeros(0, 0);
        x.matmul_bias_into(&self.w, &self.b, &mut y);
        self.cached_input = Some(x.clone());
        y
    }

    /// Inference-only forward: does not cache, usable through `&self`.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(0, 0);
        x.matmul_bias_into(&self.w, &self.b, &mut y);
        y
    }

    /// Fused inference of this layer followed by an element-wise
    /// activation, into a caller-provided scratch matrix: one kernel, no
    /// intermediate pre-activation matrix.
    pub(crate) fn forward_inference_act_into(
        &self,
        x: &Matrix,
        act: ActivationKind,
        out: &mut Matrix,
    ) {
        assert_eq!(x.cols(), self.in_dim(), "Linear input width mismatch");
        x.matmul_bias_act_into(&self.w, &self.b, out, |v| act.apply(v));
    }

    /// Backward pass: accumulates `gw += xᵀ·d_out`, `gb += Σrows d_out`,
    /// returns `d_in = d_out·Wᵀ`.
    pub fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .as_ref()
            .expect("Linear::backward called before forward");
        assert_eq!(d_out.cols(), self.out_dim(), "Linear grad width mismatch");
        x.t_matmul_acc(d_out, &mut self.gw);
        for (g, s) in self.gb.iter_mut().zip(d_out.col_sums()) {
            *g += s;
        }
        d_out.matmul_t(&self.w)
    }

    /// Reset gradient accumulators to zero.
    pub fn zero_grad(&mut self) {
        self.gw.as_mut_slice().fill(0.0);
        self.gb.fill(0.0);
    }
}

impl Params for Linear {
    fn visit_params(&self, f: &mut ParamVisitor<'_>) {
        f(self.w.as_slice(), self.gw.as_slice());
        f(&self.b, &self.gb);
    }

    fn visit_params_mut(&mut self, f: &mut ParamVisitorMut<'_>) {
        f(self.w.as_mut_slice(), self.gw.as_mut_slice());
        f(&mut self.b, &mut self.gb);
    }
}

/// Element-wise activation kinds supported by [`Activation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActivationKind {
    Relu,
    Sigmoid,
    Tanh,
    /// Identity — convenient for uniform layer stacks.
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
    /// cache only the output.
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

/// Stateless element-wise activation layer (caches its output for backward).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Activation {
    pub kind: ActivationKind,
    #[serde(skip)]
    cached_output: Option<Matrix>,
}

impl Activation {
    pub(crate) fn new(kind: ActivationKind) -> Self {
        Self {
            kind,
            cached_output: None,
        }
    }

    pub fn relu() -> Self {
        Self::new(ActivationKind::Relu)
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let kind = self.kind;
        let y = x.map(|v| kind.apply(v));
        self.cached_output = Some(y.clone());
        y
    }

    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let kind = self.kind;
        x.map(|v| kind.apply(v))
    }

    pub fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let y = self
            .cached_output
            .as_ref()
            .expect("Activation::backward called before forward");
        let kind = self.kind;
        let deriv = y.map(|v| kind.derivative_from_output(v));
        d_out.hadamard(&deriv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn linear_forward_known_values() {
        let mut l = Linear::from_weight(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        l.b = vec![0.5, -0.5];
        let y = l.forward(&Matrix::from_row(&[1.0, 1.0]));
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn linear_backward_shapes_and_bias_grad() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new_he(&mut rng, 3, 2);
        let x = Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[0.5, 0.5, 0.5]]);
        let _ = l.forward(&x);
        let d_out = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let d_in = l.backward(&d_out);
        assert_eq!((d_in.rows(), d_in.cols()), (2, 3));
        // Bias gradient is the column sum of d_out over the batch.
        assert_eq!(l.gb, vec![2.0, 2.0]);
    }

    #[test]
    fn backward_accumulates_until_zero_grad() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = Linear::new_he(&mut rng, 2, 2);
        let x = Matrix::from_row(&[1.0, 2.0]);
        let g = Matrix::from_row(&[1.0, 1.0]);
        let _ = l.forward(&x);
        let _ = l.backward(&g);
        let first = l.gb.clone();
        let _ = l.forward(&x);
        let _ = l.backward(&g);
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
        let mut a = Activation::new(ActivationKind::Sigmoid);
        let y = a.forward(&Matrix::from_row(&[-100.0, 0.0, 100.0]));
        assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut a = Activation::relu();
        let _ = a.backward(&Matrix::from_row(&[1.0]));
    }
}
