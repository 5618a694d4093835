//! Loss functions returning the scalar loss and writing the gradient
//! w.r.t. the prediction into a caller-owned matrix.
//!
//! Gradients are already divided by the element count, so callers feed them
//! straight into `backward` without extra scaling.

use crate::matrix::Matrix;

/// Mean squared error over all elements.
///
/// Returns `L = mean((pred - target)^2)` and writes
/// `dL/dpred = 2 (pred - target) / N` into `grad` (reshaped to match).
pub fn mse_loss(pred: &Matrix, target: &Matrix, grad: &mut Matrix) -> f32 {
    assert_eq!(
        (pred.rows(), pred.cols()),
        (target.rows(), target.cols()),
        "mse_loss shape mismatch"
    );
    let n = (pred.rows() * pred.cols()) as f32;
    grad.reshape(pred.rows(), pred.cols());
    let mut loss = 0.0f32;
    for ((g, &p), &t) in grad
        .as_mut_slice()
        .iter_mut()
        .zip(pred.as_slice())
        .zip(target.as_slice())
    {
        let d = p - t;
        loss += d * d;
        *g = 2.0 * d / n;
    }
    loss / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_when_equal() {
        let a = Matrix::from_row(&[1.0, 2.0, 3.0]);
        let mut g = Matrix::default();
        let l = mse_loss(&a, &a, &mut g);
        assert_eq!(l, 0.0);
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mse_known_value() {
        let p = Matrix::from_row(&[2.0, 0.0]);
        let t = Matrix::from_row(&[0.0, 0.0]);
        let mut g = Matrix::full(3, 3, 9.0); // wrong shape + stale contents
        let l = mse_loss(&p, &t, &mut g);
        assert!((l - 2.0).abs() < 1e-6); // (4 + 0) / 2
        assert!((g.as_slice()[0] - 2.0).abs() < 1e-6); // 2*2/2
    }

    #[test]
    fn gradients_are_finite_difference_consistent() {
        let p = Matrix::from_row(&[0.3, -1.7, 2.2]);
        let t = Matrix::from_row(&[0.0, 0.5, 2.0]);
        let mut g = Matrix::default();
        mse_loss(&p, &t, &mut g);
        for i in 0..3 {
            let eps = 1e-3;
            let mut up = p.clone();
            up.as_mut_slice()[i] += eps;
            let mut dn = p.clone();
            dn.as_mut_slice()[i] -= eps;
            let mut scratch = Matrix::default();
            let numeric =
                (mse_loss(&up, &t, &mut scratch) - mse_loss(&dn, &t, &mut scratch)) / (2.0 * eps);
            assert!(
                (numeric - g.as_slice()[i]).abs() < 1e-2,
                "idx {i}: {numeric} vs {}",
                g.as_slice()[i]
            );
        }
    }
}
