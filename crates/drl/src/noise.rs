//! Exploration noise processes.
//!
//! The paper adds Gaussian noise `N(mu=0.3, sigma=1)` to the actor output
//! during training (§4.6): the positive mean biases early exploration toward
//! higher frequencies, avoiding queue congestion while the policy is still
//! random.

use rand::Rng;

/// Draw one standard-normal sample via the Box–Muller transform.
///
/// `rand` 0.9 ships only uniform primitives (the distributions live in the
/// separate `rand_distr` crate, which is outside the sanctioned dependency
/// set) — so the transform is inlined here.
pub(crate) fn sample_standard_normal<R: Rng>(rng: &mut R) -> f32 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f32 = 1.0 - rng.random::<f32>();
    let u2: f32 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// IID Gaussian noise `N(mu, sigma)` per action dimension.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GaussianNoise {
    pub mu: f32,
    pub sigma: f32,
}

impl GaussianNoise {
    pub(crate) fn new(mu: f32, sigma: f32) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { mu, sigma }
    }

    /// Sample one noise value.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> f32 {
        self.mu + self.sigma * sample_standard_normal(rng)
    }

    /// Add noise to every element of `action` in place.
    pub(crate) fn perturb<R: Rng>(&self, rng: &mut R, action: &mut [f32]) {
        for a in action {
            *a += self.sample(rng);
        }
    }
}

/// Clamp every action component to `[lo, hi]` — applied after noise so the
/// thread-controller parameters stay within their admissible range.
pub(crate) fn clamp_action(action: &mut [f32], lo: f32, hi: f32) {
    for a in action {
        *a = a.clamp(lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(10);
        let n = 100_000;
        let samples: Vec<f32> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gaussian_noise_respects_mu_sigma() {
        let mut rng = StdRng::seed_from_u64(11);
        let noise = GaussianNoise::new(0.3, 1.0);
        let n = 50_000;
        let mean = (0..n).map(|_| noise.sample(&mut rng)).sum::<f32>() / n as f32;
        assert!((mean - 0.3).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn clamp_action_bounds() {
        let mut a = [-0.5, 0.5, 1.5];
        clamp_action(&mut a, 0.0, 1.0);
        assert_eq!(a, [0.0, 0.5, 1.0]);
    }

    #[test]
    fn perturb_changes_all_dims_deterministically() {
        let mut r1 = StdRng::seed_from_u64(14);
        let mut r2 = StdRng::seed_from_u64(14);
        let noise = GaussianNoise::new(0.0, 1.0);
        let mut a = [0.0f32; 4];
        let mut b = [0.0f32; 4];
        noise.perturb(&mut r1, &mut a);
        noise.perturb(&mut r2, &mut b);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x != 0.0));
    }
}
