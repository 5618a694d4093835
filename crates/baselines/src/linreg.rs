//! Ordinary least squares — ReTail's service-time model.
//!
//! Fits `y ≈ w₀ + w·x` by solving the normal equations
//! `(XᵀX) w = Xᵀy` with Gaussian elimination and partial pivoting
//! (feature dimension is tiny — one or two observables per request — so
//! nothing fancier is warranted). Also used directly by the Fig. 2
//! cross-load RMSE experiment.

use serde::{Deserialize, Serialize};

/// A fitted linear model `y = w₀ + Σ wᵢ·xᵢ`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinReg {
    /// `[intercept, w₁, …, w_d]`.
    pub weights: Vec<f64>,
}

impl LinReg {
    /// Fit from feature rows and targets. Panics on empty/ragged input;
    /// returns an error string if the normal equations are singular
    /// (degenerate features).
    pub fn fit(xs: &[Vec<f32>], ys: &[f64]) -> Result<Self, String> {
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        assert!(!xs.is_empty(), "cannot fit on empty data");
        let d = xs[0].len() + 1; // +1 intercept
        let mut xtx = vec![vec![0.0f64; d]; d];
        let mut xty = vec![0.0f64; d];
        let mut row = vec![0.0f64; d];
        for (x, &y) in xs.iter().zip(ys) {
            assert_eq!(x.len() + 1, d, "ragged feature rows");
            row[0] = 1.0;
            for (r, &f) in row[1..].iter_mut().zip(x) {
                *r = f as f64;
            }
            for i in 0..d {
                for j in 0..d {
                    xtx[i][j] += row[i] * row[j];
                }
                xty[i] += row[i] * y;
            }
        }
        // Tikhonov nudge keeps near-singular systems solvable without
        // visibly biasing well-conditioned fits.
        for (i, r) in xtx.iter_mut().enumerate() {
            r[i] += 1e-9;
        }
        let weights = solve(xtx, xty)?;
        Ok(Self { weights })
    }

    /// Predict one target.
    pub(crate) fn predict(&self, x: &[f32]) -> f64 {
        assert_eq!(x.len() + 1, self.weights.len(), "feature width mismatch");
        self.weights[0]
            + self.weights[1..]
                .iter()
                .zip(x)
                .map(|(&w, &f)| w * f as f64)
                .sum::<f64>()
    }

    /// Root mean square error over a dataset.
    pub fn rmse(&self, xs: &[Vec<f32>], ys: &[f64]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty(), "rmse of empty data");
        let sse: f64 = xs
            .iter()
            .zip(ys)
            .map(|(x, &y)| {
                let e = self.predict(x) - y;
                e * e
            })
            .sum();
        (sse / xs.len() as f64).sqrt()
    }
}

/// Solve `A·w = b` by Gaussian elimination with partial pivoting.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>, String> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())
            .unwrap();
        if a[pivot][col].abs() < 1e-12 {
            return Err("singular system in linear regression".into());
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        let (upper, lower) = a.split_at_mut(col + 1);
        let pivot_row = &upper[col];
        for (off, row_v) in lower.iter_mut().enumerate() {
            let factor = row_v[col] / pivot_row[col];
            if factor != 0.0 {
                for (rv, pv) in row_v[col..].iter_mut().zip(&pivot_row[col..]) {
                    *rv -= factor * pv;
                }
                b[col + 1 + off] -= factor * b[col];
            }
        }
    }
    // Back substitution.
    let mut w = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * w[k];
        }
        w[row] = acc / a[row][row];
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn recovers_exact_linear_relationship() {
        let xs: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32, (i * i) as f32]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 3.0 + 2.0 * x[0] as f64 - 0.5 * x[1] as f64)
            .collect();
        let model = LinReg::fit(&xs, &ys).unwrap();
        assert!((model.weights[0] - 3.0).abs() < 1e-6);
        assert!((model.weights[1] - 2.0).abs() < 1e-6);
        assert!((model.weights[2] + 0.5).abs() < 1e-6);
        assert!(model.rmse(&xs, &ys) < 1e-6);
    }

    #[test]
    fn robust_to_noise() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<Vec<f32>> = (0..2000)
            .map(|_| vec![rng.random_range(0.0..10.0)])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 5.0 + 1.5 * x[0] as f64 + rng.random_range(-0.5..0.5))
            .collect();
        let model = LinReg::fit(&xs, &ys).unwrap();
        assert!((model.weights[0] - 5.0).abs() < 0.1, "{:?}", model.weights);
        assert!((model.weights[1] - 1.5).abs() < 0.05);
        // RMSE ≈ std of uniform(-0.5, 0.5) ≈ 0.29.
        let rmse = model.rmse(&xs, &ys);
        assert!((rmse - 0.289).abs() < 0.05, "rmse {rmse}");
    }

    #[test]
    fn intercept_only_fit() {
        let xs: Vec<Vec<f32>> = (0..10).map(|_| vec![]).collect();
        let ys = vec![4.0; 10];
        let model = LinReg::fit(&xs, &ys).unwrap();
        assert!((model.predict(&[]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_feature_survives_via_ridge_nudge() {
        // Perfectly collinear features: x1 == x2. The tiny ridge term keeps
        // the system solvable; predictions must still be right.
        let xs: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32, i as f32]).collect();
        let ys: Vec<f64> = (0..20).map(|i| 2.0 * i as f64).collect();
        let model = LinReg::fit(&xs, &ys).unwrap();
        assert!((model.predict(&[10.0, 10.0]) - 20.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "cannot fit on empty data")]
    fn empty_fit_panics() {
        let _ = LinReg::fit(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn predict_rejects_wrong_width() {
        let model = LinReg {
            weights: vec![1.0, 2.0],
        };
        let _ = model.predict(&[1.0, 2.0]);
    }
}
