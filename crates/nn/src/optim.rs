//! The Adam optimizer over [`Params`]-visiting networks.
//!
//! State is kept flat and positional: the visitor order defines the
//! parameter indexing, which [`Params`] guarantees is stable.

use crate::params::Params;

/// Adam hyper-parameters. Defaults follow Kingma & Ba (and the PyTorch
/// defaults the paper's implementation would have used).
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Decoupled-style L2 weight decay (0 disables).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Adam with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    pub cfg: AdamConfig,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    pub fn new(cfg: AdamConfig, net: &impl Params) -> Self {
        let n = net.num_params();
        Self {
            cfg,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Apply one update using the gradients currently accumulated in the
    /// network. Does *not* zero gradients — callers do that before the
    /// next backward pass.
    pub fn step<N: Params>(&mut self, net: &mut N) {
        self.t += 1;
        let cfg = self.cfg;
        let bc1 = 1.0 - cfg.beta1.powi(self.t as i32);
        let bc2 = 1.0 - cfg.beta2.powi(self.t as i32);
        let mut offset = 0usize;
        let (m, v) = (&mut self.m, &mut self.v);
        net.visit_params_mut(&mut |w, g| {
            let ms = &mut m[offset..offset + w.len()];
            let vs = &mut v[offset..offset + w.len()];
            for (((wi, &gi), mi), vi) in w
                .iter_mut()
                .zip(g.iter())
                .zip(ms.iter_mut())
                .zip(vs.iter_mut())
            {
                let gi = gi + cfg.weight_decay * *wi;
                *mi = cfg.beta1 * *mi + (1.0 - cfg.beta1) * gi;
                *vi = cfg.beta2 * *vi + (1.0 - cfg.beta2) * gi * gi;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *wi -= cfg.lr * m_hat / (v_hat.sqrt() + cfg.eps);
            }
            offset += w.len();
        });
        assert_eq!(offset, m.len(), "network size changed under Adam");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{ActivationKind, Dense};
    use crate::matrix::Matrix;
    use rand::{rngs::StdRng, SeedableRng};

    fn quadratic_layer() -> Dense {
        // One weight, no input needed: we set gradients by hand to emulate
        // minimizing f(w) = w^2 (grad = 2w).
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Dense::new_he(&mut rng, 1, 1, ActivationKind::Identity);
        l.w = Matrix::from_vec(1, 1, vec![5.0]);
        l.b = vec![0.0];
        l
    }

    fn set_quadratic_grad(l: &mut Dense) {
        let w = l.w.as_slice()[0];
        l.gw = Matrix::from_vec(1, 1, vec![2.0 * w]);
        let b = l.b[0];
        l.gb = vec![2.0 * b];
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut l = quadratic_layer();
        let mut opt = Adam::new(
            AdamConfig {
                lr: 0.3,
                ..Default::default()
            },
            &l,
        );
        for _ in 0..300 {
            set_quadratic_grad(&mut l);
            opt.step(&mut l);
        }
        assert!(l.w.as_slice()[0].abs() < 1e-2, "w = {}", l.w.as_slice()[0]);
        assert_eq!(opt.t, 300);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the very first Adam step has magnitude ~lr
        // regardless of gradient scale.
        let mut l = quadratic_layer();
        let before = l.w.as_slice()[0];
        let mut opt = Adam::new(
            AdamConfig {
                lr: 0.05,
                ..Default::default()
            },
            &l,
        );
        set_quadratic_grad(&mut l);
        opt.step(&mut l);
        let delta = (before - l.w.as_slice()[0]).abs();
        assert!((delta - 0.05).abs() < 1e-3, "delta {delta}");
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut l = quadratic_layer();
        l.gw = Matrix::zeros(1, 1);
        l.gb = vec![0.0];
        let before = l.w.as_slice()[0];
        let mut opt = Adam::new(
            AdamConfig {
                lr: 0.1,
                weight_decay: 0.1,
                ..Default::default()
            },
            &l,
        );
        opt.step(&mut l);
        assert!(l.w.as_slice()[0] < before);
    }
}
