//! Weight initialization schemes.
//!
//! Everything takes an explicit RNG so experiments replay deterministically
//! from a seed (a hard requirement for the reproduction's integration tests).

use crate::matrix::Matrix;
use rand::Rng;

/// Xavier/Glorot uniform initialization: `U(-l, l)` with
/// `l = sqrt(6 / (fan_in + fan_out))`. Appropriate before sigmoid/tanh
/// outputs (the DeepPower actor's final layer).
pub(crate) fn xavier_init<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    sample_uniform(rng, fan_in, fan_out, limit)
}

/// He/Kaiming uniform initialization: `U(-l, l)` with `l = sqrt(6 / fan_in)`.
/// Appropriate before ReLU layers (all hidden layers here).
pub(crate) fn he_init<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    let limit = (6.0 / fan_in as f32).sqrt();
    sample_uniform(rng, fan_in, fan_out, limit)
}

fn sample_uniform<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize, limit: f32) -> Matrix {
    let data = (0..fan_in * fan_out)
        .map(|_| rng.random_range(-limit..limit))
        .collect();
    Matrix::from_vec(fan_in, fan_out, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn xavier_respects_limit_and_shape() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = xavier_init(&mut rng, 8, 32);
        assert_eq!((w.rows(), w.cols()), (8, 32));
        let limit = (6.0f32 / 40.0).sqrt();
        assert!(w.as_slice().iter().all(|&x| x.abs() <= limit));
        // Not degenerate: values differ.
        assert!(w.as_slice().iter().any(|&x| x != w.as_slice()[0]));
    }

    #[test]
    fn he_limit_is_wider_than_xavier_for_equal_fans() {
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        let _x = xavier_init(&mut r1, 16, 16);
        let h = he_init(&mut r2, 16, 16);
        let he_limit = (6.0f32 / 16.0).sqrt();
        assert!(h.as_slice().iter().all(|&v| v.abs() <= he_limit));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(he_init(&mut a, 4, 4), he_init(&mut b, 4, 4));
    }
}
