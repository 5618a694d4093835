//! Hierarchical fleet control: per-profile-group policies under one
//! coordinator (HiDVFS-style).
//!
//! A homogeneous fleet batches all N node states through one actor in
//! a single forward pass. Heterogeneous fleets can't: nodes of
//! different hardware classes may run *different* policies (a 1-core
//! edge box and a 20-core socket should not share weights), and even
//! under one shared policy the batch must be grouped so each profile's
//! rows stay contiguous. The [`Coordinator`] owns one agent per
//! profile group and, each epoch, gathers every group's rows out of
//! the stacked `N × STATE_DIM` state matrix and runs one batched pass
//! per group ([`Ddpg::act_batch_rows`], on the agent's own reused
//! buffers), then scatters the resulting [`ControllerParams`] back to
//! node order. After the first epoch an `act` allocates nothing.
//!
//! Bit-exactness contract: every batched row equals the single-state
//! [`Ddpg::act`] on that node's state exactly (asserted per group by
//! the tests here and the proptest in `deeppower-drl`), so a
//! single-group coordinator reproduces the historical monolithic
//! batched pass byte-for-byte.

use deeppower_core::{ControllerParams, TrainedPolicy};
use deeppower_drl::Ddpg;
use deeppower_nn::Matrix;

/// One profile group's policy.
struct PolicyGroup {
    /// Fleet node indices running this profile, ascending.
    members: Vec<usize>,
    agent: Ddpg,
}

/// Per-profile-group policies behind one `act` call. See the module
/// docs.
pub struct Coordinator {
    groups: Vec<PolicyGroup>,
}

impl Coordinator {
    /// One policy per group; `members[g]` lists the fleet nodes group
    /// `g` controls. Groups must be disjoint; the union must cover
    /// every node the driver will ask about.
    pub fn new(members: Vec<Vec<usize>>, policies: &[&TrainedPolicy]) -> Self {
        assert_eq!(
            members.len(),
            policies.len(),
            "one policy per profile group"
        );
        let groups = members
            .into_iter()
            .zip(policies)
            .map(|(members, policy)| PolicyGroup {
                members,
                agent: policy.build_agent(),
            })
            .collect();
        Self { groups }
    }

    /// One grouped batched pass per profile: gather each group's rows
    /// from `states`, batch them through the group's actor, scatter
    /// the clamped [`ControllerParams`] into `actions` by node index.
    /// Nodes outside every group keep their previous entry.
    pub fn act(&mut self, states: &Matrix, actions: &mut [ControllerParams]) {
        for g in &mut self.groups {
            if g.members.is_empty() {
                continue;
            }
            let out = g.agent.act_batch_rows(states, &g.members);
            for (k, &node) in g.members.iter().enumerate() {
                actions[node] = ControllerParams::from_action(out.row(k));
            }
        }
    }

    /// Reference path: one single-state forward pass per node through
    /// its group's agent. Bit-identical to [`Coordinator::act`]; exists
    /// so the bench can time grouped against per-node inference and the
    /// tests can assert the identity.
    pub(crate) fn act_per_node(&self, states: &Matrix, actions: &mut [ControllerParams]) {
        for g in &self.groups {
            for &node in &g.members {
                let action = g.agent.act(states.row(node));
                actions[node] = ControllerParams::from_action(&action);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::untrained_policy;
    use deeppower_core::STATE_DIM;
    use deeppower_workload::App;

    fn stacked_states(n: usize, seed: u64) -> Matrix {
        let mut m = Matrix::zeros(n, STATE_DIM);
        let mut x = seed;
        for i in 0..n {
            let row: Vec<f32> = (0..STATE_DIM)
                .map(|_| {
                    // xorshift — deterministic fill in [0, 1).
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 1000) as f32 / 1000.0
                })
                .collect();
            m.set_row(i, &row);
        }
        m
    }

    #[test]
    fn single_group_matches_monolithic_batched_pass_exactly() {
        let policy = untrained_policy(App::Masstree, 17);
        let n = 6;
        let states = stacked_states(n, 3);
        let mut coord = Coordinator::new(vec![(0..n).collect()], &[&policy]);
        let mut grouped = vec![ControllerParams::default(); n];
        coord.act(&states, &mut grouped);

        // The monolithic pass: every row, in node order, through one
        // fresh agent.
        let mut agent = policy.build_agent();
        let all: Vec<usize> = (0..n).collect();
        let out = agent.act_batch_rows(&states, &all);
        for (i, g) in grouped.iter().enumerate() {
            assert_eq!(*g, ControllerParams::from_action(out.row(i)));
        }
    }

    #[test]
    fn grouped_act_is_bit_identical_to_per_node_reference() {
        let big = untrained_policy(App::Masstree, 17);
        let little = untrained_policy(App::Masstree, 23);
        // Interleaved membership: grouping must scatter by node index,
        // not by position.
        let members = vec![vec![0, 2, 5], vec![1, 3, 4]];
        let states = stacked_states(6, 9);
        let mut coord = Coordinator::new(members.clone(), &[&big, &little]);
        let mut grouped = vec![ControllerParams::default(); 6];
        coord.act(&states, &mut grouped);
        let mut reference = vec![ControllerParams::default(); 6];
        coord.act_per_node(&states, &mut reference);
        assert_eq!(grouped, reference);

        // And the per-group rows really come from the right agent.
        let big_agent = big.build_agent();
        let little_agent = little.build_agent();
        for &node in &members[0] {
            let a = big_agent.act(states.row(node));
            assert_eq!(grouped[node], ControllerParams::from_action(&a));
        }
        for &node in &members[1] {
            let a = little_agent.act(states.row(node));
            assert_eq!(grouped[node], ControllerParams::from_action(&a));
        }
    }

    #[test]
    fn act_reuses_buffers_across_epochs_without_drift() {
        let policy = untrained_policy(App::Masstree, 5);
        let mut coord = Coordinator::new(vec![vec![0, 1], vec![2]], &[&policy, &policy]);
        let mut first = vec![ControllerParams::default(); 3];
        let states_a = stacked_states(3, 1);
        coord.act(&states_a, &mut first);
        // Different batch content through the same scratch: results must
        // depend only on the states.
        let states_b = stacked_states(3, 2);
        let mut second = vec![ControllerParams::default(); 3];
        coord.act(&states_b, &mut second);
        let mut again = vec![ControllerParams::default(); 3];
        coord.act(&states_a, &mut again);
        assert_eq!(first, again, "scratch reuse leaked state across epochs");
        assert_ne!(first, second, "distinct states should act differently");
    }
}
