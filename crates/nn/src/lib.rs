//! # deeppower-nn
//!
//! A small, dependency-light dense neural-network stack used by the DeepPower
//! reproduction. The paper's actor network has ~2k parameters, so nothing
//! heavier than hand-rolled row-major matrices and manual backpropagation is
//! warranted (the Rust RL ecosystem note in the reproduction brief calls
//! `tch-rs` out as thin; this crate removes that dependency entirely).
//!
//! Design points:
//!
//! * [`Matrix`] is a row-major `f32` matrix with the handful of BLAS-1/2/3
//!   kernels the MLPs need (`matmul`, transposed variants, AXPY-style
//!   element-wise ops). Everything is bounds-checked in debug builds and
//!   iterator/slice-driven so the optimizer can vectorize.
//! * [`Linear`], [`Activation`] and [`Sequential`] implement forward and
//!   backward passes explicitly. `backward` *returns the gradient with
//!   respect to the layer input*, which is what DDPG needs to push critic
//!   gradients through the action input (`dQ/da`).
//! * [`Adam`] walks a network's parameters through the [`Params`]
//!   visitor trait, so its optimizer state lines up with any
//!   parameter layout (plain stacks, two-headed actors, critics with a
//!   concatenated action input).
//! * Weights serialize to a flat `Vec<f32>` snapshot (serde-friendly) for
//!   checkpointing and for the soft target-network updates of DDPG.
//!
//! The crate is deterministic: all initialization takes an explicit
//! [`rand::rngs::StdRng`].

mod init;
mod layers;
mod loss;
mod matrix;
mod optim;
mod params;
mod sequential;

pub use layers::{Activation, ActivationKind, Linear};
pub use loss::mse_loss;
pub use matrix::Matrix;
pub use optim::{Adam, AdamConfig};
pub use params::{ParamVisitor, ParamVisitorMut, Params};
pub use sequential::Sequential;

/// Numerical tolerance used by tests and the finite-difference gradient
/// checker. Loose enough for `f32` accumulation error over small nets.
pub const GRAD_CHECK_TOL: f32 = 2e-2;

/// Finite-difference gradient check helper: perturbs each parameter of `net`
/// by `eps`, re-evaluates `loss_fn`, and compares the numerical slope with
/// the analytic gradient recorded in the layer `g*` buffers.
///
/// Returns the maximum relative error over all parameters. Intended for
/// tests; O(P) forward passes.
pub fn finite_diff_max_rel_err<N, F>(net: &mut N, mut loss_fn: F, eps: f32) -> f32
where
    N: Params,
    F: FnMut(&mut N) -> f32,
{
    // Snapshot analytic grads first (loss_fn must have been run with backward
    // by the caller so grads are populated).
    let mut analytic = Vec::new();
    net.visit_params(&mut |_, g: &[f32]| analytic.extend_from_slice(g));

    let mut max_rel = 0.0f32;
    for (p, &a) in analytic.iter().enumerate() {
        // Perturb parameter p upward.
        perturb_param(net, p, eps);
        let up = loss_fn(net);
        perturb_param(net, p, -2.0 * eps);
        let down = loss_fn(net);
        perturb_param(net, p, eps); // restore
        let numeric = (up - down) / (2.0 * eps);
        let denom = numeric.abs().max(a.abs()).max(1e-4);
        let rel = (numeric - a).abs() / denom;
        if rel > max_rel {
            max_rel = rel;
        }
    }
    max_rel
}

fn perturb_param<N: Params>(net: &mut N, target: usize, delta: f32) {
    let mut seen = 0usize;
    net.visit_params_mut(&mut |w: &mut [f32], _g: &mut [f32]| {
        if target >= seen && target < seen + w.len() {
            w[target - seen] += delta;
        }
        seen += w.len();
    });
}
