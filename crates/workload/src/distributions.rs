//! Probability distributions used by the workload models.
//!
//! Implemented from first principles on top of `rand`'s uniform primitives
//! (the `rand_distr` crate is outside the sanctioned offline dependency
//! set). All samplers take the RNG explicitly for determinism.

use rand::Rng;

/// Draw one standard-normal sample (Box–Muller).
pub(crate) fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Log-normal distribution parameterized by the *target mean* and the
/// shape `sigma` (σ of the underlying normal).
///
/// `mu` is derived so that `E[X] = mean`: `mu = ln(mean) − σ²/2`.
/// The heavier `sigma`, the longer the tail — Moses-like workloads use
/// σ ≈ 1, Img-dnn-like nearly deterministic ones σ ≈ 0.1.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LogNormal {
    mu: f64,
    pub sigma: f64,
}

impl LogNormal {
    pub(crate) fn from_mean(mean: f64, sigma: f64) -> Self {
        assert!(mean > 0.0, "log-normal mean must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self {
            mu: mean.ln() - sigma * sigma / 2.0,
            sigma,
        }
    }

    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
/// Inter-arrival times of a Poisson process.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Exponential {
    pub lambda: f64,
}

impl Exponential {
    pub(crate) fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "rate must be positive");
        Self { lambda }
    }

    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.random::<f64>();
        -u.ln() / self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Analytic moments and quantiles, the oracles the calibration tests
    /// check sampled and modelled latencies against.
    impl LogNormal {
        pub(crate) fn mean(&self) -> f64 {
            (self.mu + self.sigma * self.sigma / 2.0).exp()
        }

        /// Median `exp(mu)` — useful to sanity-check skew.
        pub(crate) fn median(&self) -> f64 {
            self.mu.exp()
        }

        /// Analytic quantile: `exp(mu + σ · Φ⁻¹(q))`.
        pub(crate) fn quantile(&self, q: f64) -> f64 {
            (self.mu + self.sigma * probit(q)).exp()
        }
    }

    /// Inverse standard-normal CDF (Acklam's rational approximation,
    /// |ε| < 1.15e-9 — far below anything the calibration tests need).
    fn probit(q: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&q) && q > 0.0,
            "quantile must be in (0,1)"
        );
        const A: [f64; 6] = [
            -3.969683028665376e+01,
            2.209460984245205e+02,
            -2.759285104469687e+02,
            1.38357751867269e+02,
            -3.066479806614716e+01,
            2.506628277459239e+00,
        ];
        const B: [f64; 5] = [
            -5.447609879822406e+01,
            1.615858368580409e+02,
            -1.556989798598866e+02,
            6.680131188771972e+01,
            -1.328068155288572e+01,
        ];
        const C: [f64; 6] = [
            -7.784894002430293e-03,
            -3.223964580411365e-01,
            -2.400758277161838e+00,
            -2.549732539343734e+00,
            4.374664141464968e+00,
            2.938163982698783e+00,
        ];
        const D: [f64; 4] = [
            7.784695709041462e-03,
            3.224671290700398e-01,
            2.445134137142996e+00,
            3.754408661907416e+00,
        ];
        let p_low = 0.02425;
        if q < p_low {
            let r = (-2.0 * q.ln()).sqrt();
            (((((C[0] * r + C[1]) * r + C[2]) * r + C[3]) * r + C[4]) * r + C[5])
                / ((((D[0] * r + D[1]) * r + D[2]) * r + D[3]) * r + 1.0)
        } else if q <= 1.0 - p_low {
            let r = q - 0.5;
            let s = r * r;
            (((((A[0] * s + A[1]) * s + A[2]) * s + A[3]) * s + A[4]) * s + A[5]) * r
                / (((((B[0] * s + B[1]) * s + B[2]) * s + B[3]) * s + B[4]) * s + 1.0)
        } else {
            -probit(1.0 - q)
        }
    }

    #[test]
    fn lognormal_empirical_mean_matches_target() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = LogNormal::from_mean(5.0, 0.8);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() / 5.0 < 0.02, "mean {mean}");
    }

    #[test]
    fn lognormal_quantile_matches_empirical() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = LogNormal::from_mean(1.0, 0.6);
        let mut samples: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let emp_p99 = samples[(0.99 * samples.len() as f64) as usize];
        let ana_p99 = d.quantile(0.99);
        assert!(
            (emp_p99 - ana_p99).abs() / ana_p99 < 0.05,
            "{emp_p99} vs {ana_p99}"
        );
    }

    #[test]
    fn lognormal_skew_grows_with_sigma() {
        // p99/mean ratio grows with sigma (the long tail of Fig. 1).
        let narrow = LogNormal::from_mean(1.0, 0.2);
        let wide = LogNormal::from_mean(1.0, 1.0);
        assert!(wide.quantile(0.99) / wide.mean() > narrow.quantile(0.99) / narrow.mean());
        // Median below mean for skewed distribution.
        assert!(wide.median() < wide.mean());
    }

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = Exponential::new(0.25);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn probit_known_values() {
        assert!(probit(0.5).abs() < 1e-8);
        assert!((probit(0.975) - 1.959964).abs() < 1e-4);
        assert!((probit(0.99) - 2.326348).abs() < 1e-4);
        assert!((probit(0.01) + 2.326348).abs() < 1e-4);
    }

    #[test]
    fn samplers_deterministic_under_seed() {
        let d = LogNormal::from_mean(2.0, 0.5);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
