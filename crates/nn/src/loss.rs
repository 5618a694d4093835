//! Loss functions returning `(scalar loss, gradient w.r.t. prediction)`.
//!
//! Gradients are already divided by the element count, so callers feed them
//! straight into `backward` without extra scaling.

use crate::matrix::Matrix;

/// Mean squared error over all elements.
///
/// Returns `(L, dL/dpred)` with `L = mean((pred - target)^2)` and
/// `dL/dpred = 2 (pred - target) / N`.
pub fn mse_loss(pred: &Matrix, target: &Matrix) -> (f32, Matrix) {
    assert_eq!(
        (pred.rows(), pred.cols()),
        (target.rows(), target.cols()),
        "mse_loss shape mismatch"
    );
    let n = (pred.rows() * pred.cols()) as f32;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
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
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_when_equal() {
        let a = Matrix::from_row(&[1.0, 2.0, 3.0]);
        let (l, g) = mse_loss(&a, &a);
        assert_eq!(l, 0.0);
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mse_known_value() {
        let p = Matrix::from_row(&[2.0, 0.0]);
        let t = Matrix::from_row(&[0.0, 0.0]);
        let (l, g) = mse_loss(&p, &t);
        assert!((l - 2.0).abs() < 1e-6); // (4 + 0) / 2
        assert!((g.as_slice()[0] - 2.0).abs() < 1e-6); // 2*2/2
    }

    #[test]
    fn gradients_are_finite_difference_consistent() {
        let p = Matrix::from_row(&[0.3, -1.7, 2.2]);
        let t = Matrix::from_row(&[0.0, 0.5, 2.0]);
        let (_, g) = mse_loss(&p, &t);
        for i in 0..3 {
            let eps = 1e-3;
            let mut up = p.clone();
            up.as_mut_slice()[i] += eps;
            let mut dn = p.clone();
            dn.as_mut_slice()[i] -= eps;
            let numeric = (mse_loss(&up, &t).0 - mse_loss(&dn, &t).0) / (2.0 * eps);
            assert!(
                (numeric - g.as_slice()[i]).abs() < 1e-2,
                "idx {i}: {numeric} vs {}",
                g.as_slice()[i]
            );
        }
    }
}
