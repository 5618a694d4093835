//! The DeepPower actor network (§4.6).
//!
//! "The input state passes the first shared fully-connected layer and then
//! gets through two separate fully-connected layers … a sigmoid operation is
//! conducted on the output to keep the final action *BaseFreq, ScalingCoef*
//! non-negative."
//!
//! Concretely: a shared trunk (8 → 32 → 24, ReLU) followed by one head per
//! action dimension (24 → 16 → 1, ReLU then sigmoid). With the paper's
//! hidden sizes (32, 24, 16) this yields 1 914 trainable parameters — the
//! same order as the 2 096 the paper reports (the exact head split is not
//! fully specified there); either way the actor is a ~2k-parameter MLP whose
//! inference cost Table 2 and §5.5 characterize.

use deeppower_nn::{
    Activation, ActivationKind, Matrix, ParamVisitor, ParamVisitorMut, Params, Sequential,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Shared-trunk, multi-head actor with sigmoid-bounded outputs in `[0, 1]`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TwoHeadActor {
    trunk: Sequential,
    heads: Vec<Sequential>,
    state_dim: usize,
    #[serde(skip)]
    cached_trunk_out: Option<Matrix>,
}

impl TwoHeadActor {
    /// Build with the paper's default sizes: trunk `state_dim → 32 → 24`,
    /// each of `action_dim` heads `24 → 16 → 1` (sigmoid).
    pub fn paper_default<R: Rng>(rng: &mut R, state_dim: usize, action_dim: usize) -> Self {
        Self::new(rng, state_dim, &[32, 24], &[16], action_dim)
    }

    /// General constructor. `trunk_dims` are the shared hidden widths,
    /// `head_dims` the per-head hidden widths; every head ends in a single
    /// sigmoid unit.
    pub(crate) fn new<R: Rng>(
        rng: &mut R,
        state_dim: usize,
        trunk_dims: &[usize],
        head_dims: &[usize],
        action_dim: usize,
    ) -> Self {
        assert!(
            !trunk_dims.is_empty(),
            "actor trunk needs at least one layer"
        );
        assert!(action_dim >= 1, "actor needs at least one head");
        let mut dims = vec![state_dim];
        dims.extend_from_slice(trunk_dims);
        let trunk = Sequential::mlp(rng, &dims, ActivationKind::Relu, ActivationKind::Relu);
        let trunk_out = *trunk_dims.last().unwrap();
        let heads = (0..action_dim)
            .map(|_| {
                let mut hd = vec![trunk_out];
                hd.extend_from_slice(head_dims);
                hd.push(1);
                Sequential::mlp(rng, &hd, ActivationKind::Relu, ActivationKind::Sigmoid)
            })
            .collect();
        Self {
            trunk,
            heads,
            state_dim,
            cached_trunk_out: None,
        }
    }

    /// Training forward pass: `states (n × state_dim) → actions (n × action_dim)`,
    /// every component in `[0, 1]`.
    pub(crate) fn forward(&mut self, states: &Matrix) -> Matrix {
        let h = self.trunk.forward(states);
        self.cached_trunk_out = Some(h.clone());
        let outs: Vec<Matrix> = self.heads.iter_mut().map(|head| head.forward(&h)).collect();
        concat_columns(&outs)
    }

    /// Inference forward pass (no caching). This is the sub-millisecond
    /// action-generation path measured in §5.5.
    pub(crate) fn forward_inference(&self, states: &Matrix) -> Matrix {
        let h = self.trunk.forward_inference(states);
        let outs: Vec<Matrix> = self
            .heads
            .iter()
            .map(|head| head.forward_inference(&h))
            .collect();
        concat_columns(&outs)
    }

    /// Convenience: act on a single state vector.
    pub fn act(&self, state: &[f32]) -> Vec<f32> {
        assert_eq!(state.len(), self.state_dim, "actor state width mismatch");
        self.forward_inference(&Matrix::from_row(state))
            .as_slice()
            .to_vec()
    }

    /// Batched inference: one `n × state_dim` forward pass producing an
    /// `n × action_dim` action matrix. Row `i` is bit-identical to
    /// `act(states.row(i))` — each output row is an independent chain of
    /// dot products over that row alone, so batching changes the shape
    /// of the computation (matrix–matrix instead of n matrix–vector
    /// passes) but not a single float. The fleet layer leans on both
    /// properties: the speed for N-node lockstep steps, the equality for
    /// determinism against single-node runs.
    pub(crate) fn act_batch(&self, states: &Matrix) -> Matrix {
        assert_eq!(
            states.cols(),
            self.state_dim,
            "actor batch state width mismatch"
        );
        self.forward_inference(states)
    }

    /// Allocation-free [`TwoHeadActor::act_batch`]: writes the `n ×
    /// action_dim` action matrix into `out`, using `scratch` for every
    /// intermediate. Bit-identical to `act_batch` — the trunk and heads
    /// run the same fused kernels in the same order, only the storage is
    /// caller-owned — so hot callers (the fleet lockstep loop calls this
    /// once per LongTime epoch) amortize all buffers to zero.
    pub(crate) fn act_batch_into(
        &self,
        states: &Matrix,
        out: &mut Matrix,
        scratch: &mut ActorScratch,
    ) {
        assert_eq!(
            states.cols(),
            self.state_dim,
            "actor batch state width mismatch"
        );
        let n = states.rows();
        self.trunk
            .forward_inference_into(states, &mut scratch.h, &mut scratch.tmp);
        out.reshape(n, self.heads.len());
        for (c, head) in self.heads.iter().enumerate() {
            head.forward_inference_into(&scratch.h, &mut scratch.head_out, &mut scratch.head_tmp);
            for r in 0..n {
                out.set(r, c, scratch.head_out.get(r, 0));
            }
        }
    }

    /// Ragged/grouped batching: run the batched inference pass over an
    /// arbitrary *row subset* of a stacked state matrix. The rows are
    /// gathered (in the given order) into a dense scratch batch and fed
    /// through the same fused kernels as [`act_batch_into`], so row `k`
    /// of `out` is bit-identical to `act(states.row(rows[k]))` — the
    /// property heterogeneous fleets lean on when nodes sharing a
    /// hardware profile batch together under one per-group policy while
    /// the fleet's state matrix stays a single `N × state_dim` stack.
    ///
    /// [`act_batch_into`]: Self::act_batch_into
    pub(crate) fn act_batch_rows_into(
        &self,
        states: &Matrix,
        rows: &[usize],
        out: &mut Matrix,
        scratch: &mut ActorScratch,
    ) {
        assert_eq!(
            states.cols(),
            self.state_dim,
            "actor batch state width mismatch"
        );
        // The gather buffer is split out of `scratch` so the borrow of
        // the remaining buffers can ride into act_batch_into.
        let mut gathered = std::mem::replace(&mut scratch.gathered, Matrix::zeros(0, 0));
        states.gather_rows_into(rows, &mut gathered);
        self.act_batch_into(&gathered, out, scratch);
        scratch.gathered = gathered;
    }

    /// Backward pass given `d_actions (n × action_dim)`; accumulates
    /// gradients and returns the gradient w.r.t. the input states.
    pub(crate) fn backward(&mut self, d_actions: &Matrix) -> Matrix {
        assert_eq!(
            d_actions.cols(),
            self.heads.len(),
            "actor grad width mismatch"
        );
        let h = self
            .cached_trunk_out
            .as_ref()
            .expect("TwoHeadActor::backward before forward");
        let mut d_h = Matrix::zeros(h.rows(), h.cols());
        for (i, head) in self.heads.iter_mut().enumerate() {
            // Column i of d_actions, as an n×1 matrix.
            let mut col = Matrix::zeros(d_actions.rows(), 1);
            for r in 0..d_actions.rows() {
                col.set(r, 0, d_actions.get(r, i));
            }
            d_h.axpy(1.0, &head.backward(&col));
        }
        self.trunk.backward(&d_h)
    }

    pub(crate) fn zero_grad(&mut self) {
        self.trunk.zero_grad();
        for h in &mut self.heads {
            h.zero_grad();
        }
    }
}

impl Params for TwoHeadActor {
    fn visit_params(&self, f: &mut ParamVisitor<'_>) {
        self.trunk.visit_params(f);
        for h in &self.heads {
            h.visit_params(f);
        }
    }

    fn visit_params_mut(&mut self, f: &mut ParamVisitorMut<'_>) {
        self.trunk.visit_params_mut(f);
        for h in &mut self.heads {
            h.visit_params_mut(f);
        }
    }
}

/// Reusable buffers for [`Ddpg::act_batch_into`](crate::Ddpg::act_batch_into). One of these
/// per hot loop; after the first call at a given batch size nothing in
/// the batched inference path allocates.
#[derive(Clone, Debug)]
pub struct ActorScratch {
    h: Matrix,
    tmp: Matrix,
    head_out: Matrix,
    head_tmp: Matrix,
    /// Dense row-subset batch for [`TwoHeadActor::act_batch_rows_into`]
    /// (ragged/grouped batching over one stacked state matrix).
    gathered: Matrix,
}

impl ActorScratch {
    pub fn new() -> Self {
        Self {
            h: Matrix::zeros(0, 0),
            tmp: Matrix::zeros(0, 0),
            head_out: Matrix::zeros(0, 0),
            head_tmp: Matrix::zeros(0, 0),
            gathered: Matrix::zeros(0, 0),
        }
    }
}

impl Default for ActorScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Concatenate single-column matrices into one `n × k` matrix.
fn concat_columns(cols: &[Matrix]) -> Matrix {
    assert!(!cols.is_empty());
    let rows = cols[0].rows();
    let mut out = Matrix::zeros(rows, cols.len());
    for (c, m) in cols.iter().enumerate() {
        assert_eq!(m.rows(), rows);
        assert_eq!(m.cols(), 1);
        for r in 0..rows {
            out.set(r, c, m.get(r, 0));
        }
    }
    out
}

// A no-op Activation import keeps the doc link above resolvable even if the
// head construction changes; silence the unused warning explicitly.
#[allow(unused)]
fn _doc_anchor(_a: Activation) {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn paper_default_shapes_and_param_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let actor = TwoHeadActor::paper_default(&mut rng, 8, 2);
        assert_eq!(actor.state_dim, 8);
        assert_eq!(actor.heads.len(), 2);
        // trunk: 8*32+32 + 32*24+24 = 1080; heads: 2*(24*16+16 + 16*1+1) = 834.
        assert_eq!(actor.num_params(), 1080 + 834);
    }

    #[test]
    fn outputs_bounded_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        let actor = TwoHeadActor::paper_default(&mut rng, 8, 2);
        for seed in 0..20 {
            let mut r = StdRng::seed_from_u64(seed);
            let state: Vec<f32> = (0..8).map(|_| r.random_range(-5.0..5.0)).collect();
            let a = actor.act(&state);
            assert_eq!(a.len(), 2);
            assert!(a.iter().all(|&x| (0.0..=1.0).contains(&x)), "{a:?}");
        }
    }

    #[test]
    fn act_batch_rows_equal_single_act_exactly() {
        // The fleet layer's determinism guarantee rests on this being
        // bit-exact, not approximate: each batched output row is the
        // same chain of dot products as the single-state pass.
        let mut rng = StdRng::seed_from_u64(7);
        let actor = TwoHeadActor::paper_default(&mut rng, 8, 2);
        for n in [1usize, 2, 8, 33] {
            let mut states = Matrix::zeros(n, 8);
            let mut r = StdRng::seed_from_u64(n as u64);
            for i in 0..n {
                let row: Vec<f32> = (0..8).map(|_| r.random_range(-2.0..2.0)).collect();
                states.set_row(i, &row);
            }
            let batch = actor.act_batch(&states);
            assert_eq!(batch.rows(), n);
            assert_eq!(batch.cols(), 2);
            for i in 0..n {
                let single = actor.act(states.row(i));
                assert_eq!(
                    batch.row(i),
                    &single[..],
                    "row {i} of batch {n} diverged from single-state act"
                );
            }
        }
    }

    #[test]
    fn act_batch_into_matches_act_batch() {
        let mut rng = StdRng::seed_from_u64(19);
        let actor = TwoHeadActor::paper_default(&mut rng, 8, 2);
        let mut out = Matrix::zeros(0, 0);
        let mut scratch = ActorScratch::new();
        // Reuse the same scratch across growing and shrinking batches to
        // prove stale storage never leaks into the result.
        for n in [4usize, 1, 16, 3] {
            let mut states = Matrix::zeros(n, 8);
            let mut r = StdRng::seed_from_u64(100 + n as u64);
            for i in 0..n {
                let row: Vec<f32> = (0..8).map(|_| r.random_range(-2.0..2.0)).collect();
                states.set_row(i, &row);
            }
            let want = actor.act_batch(&states);
            actor.act_batch_into(&states, &mut out, &mut scratch);
            assert_eq!(want, out, "batch {n} diverged");
        }
    }

    #[test]
    fn act_batch_rows_into_matches_single_act_exactly() {
        let mut rng = StdRng::seed_from_u64(23);
        let actor = TwoHeadActor::paper_default(&mut rng, 8, 3);
        let n = 11;
        let mut states = Matrix::zeros(n, 8);
        let mut r = StdRng::seed_from_u64(31);
        for i in 0..n {
            let row: Vec<f32> = (0..8).map(|_| r.random_range(-2.0..2.0)).collect();
            states.set_row(i, &row);
        }
        let mut out = Matrix::zeros(0, 0);
        let mut scratch = ActorScratch::new();
        // Mixed group shapes, out-of-order and with a repeat — the ragged
        // cases a heterogeneous fleet's profile groups produce.
        for rows in [vec![0usize], vec![4, 1, 9], vec![10, 10], (0..n).collect()] {
            actor.act_batch_rows_into(&states, &rows, &mut out, &mut scratch);
            assert_eq!(out.rows(), rows.len());
            for (k, &src) in rows.iter().enumerate() {
                let single = actor.act(states.row(src));
                assert_eq!(
                    out.row(k),
                    &single[..],
                    "gathered row {k} (source {src}) diverged from single-state act"
                );
            }
        }
    }

    #[test]
    fn forward_matches_inference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut actor = TwoHeadActor::paper_default(&mut rng, 8, 2);
        let x = Matrix::from_rows(&[&[0.1; 8], &[0.9; 8]]);
        let a = actor.forward(&x);
        let b = actor.forward_inference(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn gradient_check_through_shared_trunk() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut actor = TwoHeadActor::new(&mut rng, 4, &[6], &[5], 2);
        let x = Matrix::from_rows(&[&[0.2, -0.3, 0.5, 0.8], &[1.0, 0.0, -1.0, 0.4]]);

        // Loss = sum of all action components (d_actions = all-ones).
        actor.zero_grad();
        let y = actor.forward(&x);
        let _ = actor.backward(&Matrix::full(y.rows(), y.cols(), 1.0));

        let max_err = deeppower_nn::finite_diff_max_rel_err(
            &mut actor,
            |a| {
                let y = a.forward_inference(&x);
                y.as_slice().iter().sum()
            },
            1e-3,
        );
        assert!(
            max_err < deeppower_nn::GRAD_CHECK_TOL,
            "max rel err {max_err}"
        );
    }

    #[test]
    fn heads_are_independent_given_trunk() {
        // Perturbing head-0 weights must not change head-1 output.
        let mut rng = StdRng::seed_from_u64(5);
        let mut actor = TwoHeadActor::paper_default(&mut rng, 8, 2);
        let state = [0.5f32; 8];
        let before = actor.act(&state);
        // Mutate only the first head's parameters (trunk params come first:
        // 1080 trunk scalars, then head 0).
        let mut idx = 0usize;
        actor.visit_params_mut(&mut |w, _| {
            for x in w.iter_mut() {
                if (1080..1080 + 417).contains(&idx) {
                    *x += 0.5;
                }
                idx += 1;
            }
        });
        let after = actor.act(&state);
        assert_ne!(before[0], after[0]);
        assert_eq!(before[1], after[1]);
    }

    #[test]
    #[should_panic(expected = "state width mismatch")]
    fn act_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(6);
        let actor = TwoHeadActor::paper_default(&mut rng, 8, 2);
        let _ = actor.act(&[0.0; 7]);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

            /// Ragged/grouped batching over mixed profile shapes is
            /// bit-identical to per-node `act`: however a fleet's nodes
            /// are partitioned into profile groups (any sizes, any
            /// interleaving), gathering each group out of the stacked
            /// state matrix and batching it produces exactly the floats
            /// of N single-state passes.
            #[test]
            fn grouped_batching_is_bit_identical_to_per_node_act(
                weights_seed in 0u64..1000,
                states_seed in 0u64..1000,
                n in 1usize..24,
                // Group assignment per node: up to 4 profile groups.
                assign in proptest::collection::vec(0usize..4, 24),
                action_dim in 2usize..4,
            ) {
                let mut rng = StdRng::seed_from_u64(weights_seed);
                let actor = TwoHeadActor::paper_default(&mut rng, 8, action_dim);
                let mut states = Matrix::zeros(n, 8);
                let mut r = StdRng::seed_from_u64(states_seed);
                for i in 0..n {
                    let row: Vec<f32> = (0..8).map(|_| r.random_range(-3.0..3.0)).collect();
                    states.set_row(i, &row);
                }
                // Partition nodes 0..n into groups by the assignment map.
                let mut groups: Vec<Vec<usize>> = vec![Vec::new(); 4];
                for i in 0..n {
                    groups[assign[i]].push(i);
                }
                let mut out = Matrix::zeros(0, 0);
                let mut scratch = ActorScratch::new();
                for group in groups.iter().filter(|g| !g.is_empty()) {
                    actor.act_batch_rows_into(&states, group, &mut out, &mut scratch);
                    for (k, &src) in group.iter().enumerate() {
                        let single = actor.act(states.row(src));
                        prop_assert_eq!(
                            out.row(k),
                            &single[..],
                            "group row {} (node {}) diverged",
                            k,
                            src
                        );
                    }
                }
            }
        }
    }
}
