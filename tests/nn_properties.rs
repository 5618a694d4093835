//! Property-based tests over the neural-network substrate: algebraic
//! identities of the matrix kernels and structural invariants of the
//! parameter-visiting machinery that optimizers and target networks
//! depend on.

use deeppower_suite::drl::{Critic, TwoHeadActor};
use deeppower_suite::nn::{ActivationKind, Matrix, Params, Sequential};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// `a · b` through the fused layer kernel, with a zero bias and the
/// identity map.
fn product(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    a.matmul_bias_act_into(b, &vec![0.0; b.cols()], &mut out, |x| x);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// (A·B)·C == A·(B·C) within f32 tolerance.
    #[test]
    fn matmul_is_associative(
        a in arb_matrix(3, 4),
        b in arb_matrix(4, 2),
        c in arb_matrix(2, 5),
    ) {
        let left = product(&product(&a, &b), &c);
        let right = product(&a, &product(&b, &c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// The transposed kernels agree with the plain one.
    #[test]
    fn transposed_kernels_consistent(
        a in arb_matrix(4, 3),
        b in arb_matrix(4, 2),
    ) {
        // aᵀ·b via t_matmul_acc must equal materialized transpose times b.
        let mut via_kernel = Matrix::zeros(3, 2);
        a.t_matmul_acc(&b, &mut via_kernel);
        let mut at = Matrix::zeros(3, 4);
        for r in 0..4 {
            for c in 0..3 {
                at.set(c, r, a.get(r, c));
            }
        }
        let explicit = product(&at, &b);
        for (x, y) in via_kernel.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// hconcat/hsplit are exact inverses.
    #[test]
    fn hconcat_hsplit_roundtrip(
        a in arb_matrix(3, 2),
        b in arb_matrix(3, 4),
    ) {
        let mut joined = Matrix::default();
        a.hconcat_into(&b, &mut joined);
        let (mut l, mut r) = (Matrix::default(), Matrix::default());
        joined.hsplit_into(2, &mut l, &mut r);
        prop_assert_eq!(l, a);
        prop_assert_eq!(r, b);
    }

    /// snapshot → load_snapshot is the identity for every network shape we
    /// use, and soft_update with tau=1 equals a plain copy.
    #[test]
    fn snapshot_roundtrip_and_full_soft_update(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::mlp(
            &mut rng,
            &[5, 7, 3],
            ActivationKind::Relu,
            ActivationKind::Identity,
        );
        let snap = net.snapshot();
        prop_assert_eq!(snap.len(), net.num_params());
        // Perturb, restore, verify.
        net.visit_params_mut(&mut |w, _| w.iter_mut().for_each(|x| *x += 1.0));
        net.load_snapshot(&snap);
        prop_assert_eq!(net.snapshot(), snap.clone());

        // soft_update(tau = 1) copies the source exactly.
        let mut rng2 = StdRng::seed_from_u64(seed + 1);
        let mut other = Sequential::mlp(
            &mut rng2,
            &[5, 7, 3],
            ActivationKind::Relu,
            ActivationKind::Identity,
        );
        other.soft_update_from(&snap, 1.0);
        prop_assert_eq!(other.snapshot(), snap);
    }

    /// Actor outputs are always inside the unit box, whatever the input.
    #[test]
    fn actor_outputs_bounded(
        seed in 0u64..200,
        state in proptest::collection::vec(-10.0f32..10.0, 8),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let actor = TwoHeadActor::paper_default(&mut rng, 8, 2);
        let a = actor.act(&state);
        prop_assert!(a.iter().all(|&x| (0.0..=1.0).contains(&x)), "{a:?}");
    }

    /// Critic Q-values are finite for bounded inputs and deterministic.
    #[test]
    fn critic_finite_and_deterministic(
        seed in 0u64..200,
        state in proptest::collection::vec(-5.0f32..5.0, 8),
        action in proptest::collection::vec(0.0f32..1.0, 2),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let critic = Critic::paper_default(&mut rng, 8, 2);
        let q1 = critic.q_value(&state, &action);
        let q2 = critic.q_value(&state, &action);
        prop_assert!(q1.is_finite());
        prop_assert_eq!(q1.to_bits(), q2.to_bits());
    }

    /// Gradient accumulators always match parameter shapes (the contract
    /// the optimizers' flat state relies on).
    #[test]
    fn grads_shadow_params(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Sequential::mlp(
            &mut rng,
            &[4, 9, 2],
            ActivationKind::Tanh,
            ActivationKind::Sigmoid,
        );
        let mut total_w = 0usize;
        let mut total_g = 0usize;
        let mut shapes_match = true;
        net.visit_params(&mut |w, g| {
            shapes_match &= w.len() == g.len();
            total_w += w.len();
            total_g += g.len();
        });
        prop_assert!(shapes_match, "a gradient buffer diverged from its parameters");
        prop_assert_eq!(total_w, net.num_params());
        prop_assert_eq!(total_g, total_w);
    }
}
