//! Parameter traversal.
//!
//! Optimizers and target-network synchronization need to walk every
//! trainable parameter of a network in a *stable order*. The [`Params`]
//! trait provides that: implementors visit `(weights, gradients)` slice
//! pairs in a deterministic sequence, so an optimizer can maintain flat
//! per-parameter state (Adam moments) indexed by position.

/// Visitor over immutable `(params, grads)` slice pairs.
pub type ParamVisitor<'a> = dyn FnMut(&[f32], &[f32]) + 'a;
/// Visitor over mutable `(params, grads)` slice pairs.
pub type ParamVisitorMut<'a> = dyn FnMut(&mut [f32], &mut [f32]) + 'a;

/// A network (or layer) exposing its trainable parameters.
///
/// The visit order must be identical between `visit_params` and
/// `visit_params_mut`, and stable across calls — optimizer state and
/// weight snapshots depend on it.
pub trait Params {
    fn visit_params(&self, f: &mut ParamVisitor<'_>);
    fn visit_params_mut(&mut self, f: &mut ParamVisitorMut<'_>);

    /// Total number of trainable scalars.
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |w, _| n += w.len());
        n
    }

    /// Flatten all weights into one vector (checkpointing, target sync).
    fn snapshot(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.snapshot_into(&mut out);
        out
    }

    /// [`snapshot`](Params::snapshot) into `out`, reusing its buffer.
    fn snapshot_into(&self, out: &mut Vec<f32>) {
        out.clear();
        self.visit_params(&mut |w, _| out.extend_from_slice(w));
    }

    /// Whether every weight is finite.
    fn all_finite(&self) -> bool {
        let mut finite = true;
        self.visit_params(&mut |w, _| finite &= w.iter().all(|x| x.is_finite()));
        finite
    }

    /// Load a flat snapshot previously produced by [`Params::snapshot`].
    /// Panics if the length does not match the parameter count.
    fn load_snapshot(&mut self, flat: &[f32]) {
        let mut offset = 0usize;
        self.visit_params_mut(&mut |w, _| {
            w.copy_from_slice(&flat[offset..offset + w.len()]);
            offset += w.len();
        });
        assert_eq!(offset, flat.len(), "snapshot length mismatch");
    }

    /// Polyak / soft update: `self = tau * source + (1 - tau) * self`.
    /// This is the DDPG target-network update (`tau` ≈ 0.005).
    fn soft_update_from(&mut self, source_snapshot: &[f32], tau: f32) {
        let mut offset = 0usize;
        self.visit_params_mut(&mut |w, _| {
            let len = w.len();
            for (t, &s) in w.iter_mut().zip(&source_snapshot[offset..offset + len]) {
                *t = tau * s + (1.0 - tau) * *t;
            }
            offset += w.len();
        });
        assert_eq!(offset, source_snapshot.len(), "soft update length mismatch");
    }

    /// Zero every gradient accumulator.
    fn zero_grads(&mut self) {
        self.visit_params_mut(&mut |_, g| g.fill(0.0));
    }

    /// Global L2 norm of all gradients (for clipping / diagnostics).
    fn grad_norm(&self) -> f32 {
        let mut acc = 0.0f32;
        self.visit_params(&mut |_, g| {
            acc += g.iter().map(|&x| x * x).sum::<f32>();
        });
        acc.sqrt()
    }

    /// Scale all gradients so the global norm is at most `max_norm`.
    fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            self.visit_params_mut(&mut |_, g| {
                for x in g.iter_mut() {
                    *x *= s;
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{ActivationKind, Dense};
    use crate::matrix::Matrix;

    fn tiny_linear() -> Dense {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut l = Dense::new_he(&mut rng, 2, 1, ActivationKind::Identity);
        l.w = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        l.b = vec![3.0];
        l
    }

    use rand::SeedableRng;

    #[test]
    fn snapshot_roundtrip() {
        let mut l = tiny_linear();
        let snap = l.snapshot();
        assert_eq!(snap, vec![1.0, 2.0, 3.0]);
        l.w.as_mut_slice().fill(0.0);
        l.load_snapshot(&snap);
        assert_eq!(l.snapshot(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn soft_update_interpolates() {
        let mut target = tiny_linear();
        let source = vec![3.0, 4.0, 5.0];
        target.soft_update_from(&source, 0.5);
        assert_eq!(target.snapshot(), vec![2.0, 3.0, 4.0]);
        // tau = 1 copies exactly.
        target.soft_update_from(&source, 1.0);
        assert_eq!(target.snapshot(), source);
    }

    #[test]
    fn grad_norm_and_clip() {
        let mut l = tiny_linear();
        l.gw.as_mut_slice().copy_from_slice(&[3.0, 4.0]);
        l.gb[0] = 0.0;
        assert!((l.grad_norm() - 5.0).abs() < 1e-6);
        l.clip_grad_norm(1.0);
        assert!((l.grad_norm() - 1.0).abs() < 1e-5);
        // Clipping below the threshold is a no-op.
        l.clip_grad_norm(10.0);
        assert!((l.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn num_params_counts_weights_and_bias() {
        assert_eq!(tiny_linear().num_params(), 3);
    }
}
