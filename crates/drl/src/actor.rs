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
    ActivationKind, Matrix, ParamVisitor, ParamVisitorMut, Params, Sequential, Tape,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Shared-trunk, multi-head actor with sigmoid-bounded outputs in `[0, 1]`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TwoHeadActor {
    trunk: Sequential,
    heads: Vec<Sequential>,
    state_dim: usize,
}

/// Caller-owned buffers of one [`TwoHeadActor`] pass: the trunk's and
/// each head's [`Tape`], the action matrix, and the backward pass's
/// gradients. Reused across calls, a tape stops allocating once it has
/// seen its largest batch.
#[derive(Default)]
pub(crate) struct ActorTape {
    trunk: Tape,
    heads: Vec<Tape>,
    /// Dense row-subset batch for [`TwoHeadActor::act_batch_rows`].
    gathered: Matrix,
    actions: Matrix,
    /// One column of `d_actions`, for one head.
    d_head: Matrix,
    /// Gradient w.r.t. the trunk output, summed over the heads.
    d_trunk: Matrix,
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
        }
    }

    /// Forward pass: `states (n × state_dim) → actions (n × action_dim)`,
    /// every component in `[0, 1]`; the actions live in `tape`. The one
    /// pass behind training, single-state [`act`](Self::act) (the
    /// sub-millisecond action generation of §5.5) and batched fleet
    /// inference. Row `i` of a batch is bit-identical to the pass over
    /// row `i` alone: each output row is an independent chain of dot
    /// products over that row, so batching changes the shape of the
    /// computation but not a single float.
    pub(crate) fn forward<'t>(&self, states: &Matrix, tape: &'t mut ActorTape) -> &'t Matrix {
        assert_eq!(states.cols(), self.state_dim, "actor state width mismatch");
        let h = self.trunk.forward(states, &mut tape.trunk);
        tape.heads.resize_with(self.heads.len(), Tape::default);
        tape.actions.reshape(states.rows(), self.heads.len());
        for (c, (head, head_tape)) in self.heads.iter().zip(&mut tape.heads).enumerate() {
            let y = head.forward(h, head_tape);
            for r in 0..states.rows() {
                tape.actions.set(r, c, y.get(r, 0));
            }
        }
        &tape.actions
    }

    /// Act on a single state vector.
    pub fn act(&self, state: &[f32]) -> Vec<f32> {
        self.forward(&Matrix::from_row(state), &mut ActorTape::default())
            .as_slice()
            .to_vec()
    }

    /// Ragged/grouped batching: the forward pass over an arbitrary *row
    /// subset* of a stacked state matrix. The rows are gathered (in the
    /// given order) into a dense batch in `tape`, so row `k` of the
    /// result is bit-identical to `act(states.row(rows[k]))` — the
    /// property heterogeneous fleets lean on when nodes sharing a
    /// hardware profile batch together under one per-group policy while
    /// the fleet's state matrix stays a single `N × state_dim` stack.
    pub(crate) fn act_batch_rows<'t>(
        &self,
        states: &Matrix,
        rows: &[usize],
        tape: &'t mut ActorTape,
    ) -> &'t Matrix {
        // The gathered batch leaves the tape for the pass, so the pass
        // can borrow the rest of it; the swap moves no floats.
        let mut gathered = std::mem::take(&mut tape.gathered);
        states.gather_rows_into(rows, &mut gathered);
        self.forward(&gathered, tape);
        tape.gathered = gathered;
        &tape.actions
    }

    /// Backward pass of the last [`forward`](Self::forward) on `tape`,
    /// given `d_actions (n × action_dim)`; accumulates every parameter
    /// gradient.
    pub(crate) fn backward(&mut self, d_actions: &Matrix, tape: &mut ActorTape) {
        assert_eq!(
            d_actions.cols(),
            self.heads.len(),
            "actor grad width mismatch"
        );
        let n = d_actions.rows();
        for (i, (head, head_tape)) in self.heads.iter_mut().zip(&mut tape.heads).enumerate() {
            tape.d_head.reshape(n, 1);
            for r in 0..n {
                tape.d_head.set(r, 0, d_actions.get(r, i));
            }
            let d_h = head.backward(&tape.d_head, head_tape);
            if i == 0 {
                tape.d_trunk.reshape(d_h.rows(), d_h.cols());
                tape.d_trunk.as_mut_slice().fill(0.0);
            }
            tape.d_trunk.axpy(1.0, d_h);
        }
        self.trunk.backward(&tape.d_trunk, &mut tape.trunk);
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
            let mut tape = ActorTape::default();
            let batch = actor.forward(&states, &mut tape);
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
        let mut tape = ActorTape::default();
        // Mixed group shapes, out-of-order and with a repeat — the ragged
        // cases a heterogeneous fleet's profile groups produce. One tape
        // serves them all, so stale storage must not leak either.
        for rows in [vec![0usize], vec![4, 1, 9], vec![10, 10], (0..n).collect()] {
            let out = actor.act_batch_rows(&states, &rows, &mut tape);
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
    fn gradient_check_through_shared_trunk() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut actor = TwoHeadActor::new(&mut rng, 4, &[6], &[5], 2);
        let x = Matrix::from_rows(&[&[0.2, -0.3, 0.5, 0.8], &[1.0, 0.0, -1.0, 0.4]]);

        // Loss = sum of all action components (d_actions = all-ones).
        actor.zero_grad();
        let mut tape = ActorTape::default();
        let y = actor.forward(&x, &mut tape);
        let d_actions = Matrix::full(y.rows(), y.cols(), 1.0);
        actor.backward(&d_actions, &mut tape);

        let max_err = deeppower_nn::finite_diff_max_rel_err(
            &mut actor,
            |a| a.forward(&x, &mut tape).as_slice().iter().sum(),
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
                let mut tape = ActorTape::default();
                for group in groups.iter().filter(|g| !g.is_empty()) {
                    let out = actor.act_batch_rows(&states, group, &mut tape);
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
