//! # deeppower-fleet
//!
//! Fleet-scale DeepPower: N independent simulated server nodes behind a
//! deterministic load balancer, all steered by one shared policy whose
//! per-node actions come from a single batched actor forward pass per
//! `LongTime` epoch.
//!
//! The paper evaluates DeepPower on a single multi-core server; this
//! layer asks the datacenter-shaped follow-up question — what does the
//! policy do to *fleet* power and tail latency when a front-end routes
//! one diurnal trace across many such servers? Three routing policies
//! are modeled ([`BalancerPolicy`]): request-count round-robin,
//! join-shortest-queue over an estimated-backlog model, and an
//! energy-oriented packing policy that concentrates load so spare nodes
//! can idle into deep C-states.
//!
//! Everything is deterministic: the balancer split is a pure function
//! of `(trace, nodes, policy)`, each node is a bit-replayable engine
//! [`Session`](deeppower_simd_server::Session), and batched inference
//! is bit-identical to per-node inference — so a fleet run reproduces
//! byte-for-byte at any harness thread count.

mod balancer;
mod coordinator;
mod profile;
mod sim;

pub use balancer::{split_arrivals, BalancerPolicy, NodeCapacity};
pub use coordinator::Coordinator;
pub use profile::{node_profile_indices, profiles_from_json, NodeProfile};
pub use sim::{
    fleet_arrivals, run_fleet, run_fleet_monitored, run_fleet_with, untrained_policy, FleetObserve,
    FleetOutput, FleetResult, FleetRun, FleetSpec, NodeSummary,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use deeppower_workload::{App, AppSpec};
    use proptest::prelude::*;

    fn policy_from_index(i: usize) -> BalancerPolicy {
        BalancerPolicy::all()[i % 3]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Satellite: same seed + trace ⇒ identical per-node streams,
        /// regardless of how often or where the split runs. The split
        /// is a pure function, which is what makes fleet grids
        /// byte-identical at any `--threads`.
        #[test]
        fn split_is_deterministic(seed in 0u64..1000, nodes in 1usize..9, pol in 0usize..3) {
            let spec = AppSpec::get(App::Masstree);
            let trace = deeppower_core::train::trace_for(&spec, 0.5, 2, seed);
            let arrivals = deeppower_workload::trace_arrivals(&spec, &trace, seed);
            let policy = policy_from_index(pol);
            let caps = vec![NodeCapacity::uniform(spec.n_threads); nodes];
            let a = split_arrivals(&arrivals, &caps, policy);
            let b = split_arrivals(&arrivals, &caps, policy);
            prop_assert_eq!(&a, &b);
        }

        /// Satellite: conservation — every request lands on exactly one
        /// node, nothing is dropped or duplicated, and each per-node
        /// stream preserves arrival order.
        #[test]
        fn split_conserves_requests(seed in 0u64..1000, nodes in 1usize..9, pol in 0usize..3) {
            let spec = AppSpec::get(App::Masstree);
            let trace = deeppower_core::train::trace_for(&spec, 0.7, 2, seed);
            let arrivals = deeppower_workload::trace_arrivals(&spec, &trace, seed);
            let caps = vec![NodeCapacity::uniform(spec.n_threads); nodes];
            let streams = split_arrivals(&arrivals, &caps, policy_from_index(pol));

            prop_assert_eq!(streams.len(), nodes);
            let total: usize = streams.iter().map(|s| s.len()).sum();
            prop_assert_eq!(total, arrivals.len(), "requests dropped or duplicated");

            let mut seen: Vec<u64> = streams.iter().flatten().map(|r| r.id).collect();
            seen.sort_unstable();
            let mut expected: Vec<u64> = arrivals.iter().map(|r| r.id).collect();
            expected.sort_unstable();
            prop_assert_eq!(seen, expected, "id multiset changed across the split");

            for s in &streams {
                prop_assert!(
                    s.windows(2).all(|w| w[0].arrival <= w[1].arrival),
                    "per-node stream lost arrival order"
                );
            }
        }

        /// Satellite: no low-index bias at large N. When arrivals are
        /// spaced so every backlog estimate fully drains between them,
        /// each JSQ decision is an all-nodes tie; rotation must spread
        /// the requests within one of perfectly even (the old
        /// lowest-index tie-break put every request on node 0).
        #[test]
        fn jsq_spread_is_balanced_at_large_n(nodes in 32usize..65, count in 64usize..129) {
            // Tiny requests, 1 s apart: a 1-core node drains 0.4 s of
            // reference work per second, so estimates hit zero long
            // before the next arrival.
            let arrivals: Vec<deeppower_simd_server::Request> = (0..count as u64)
                .map(|i| deeppower_simd_server::Request {
                    id: i,
                    client_id: i,
                    attempt: 0,
                    arrival: i * 1_000_000_000,
                    first_arrival: i * 1_000_000_000,
                    work_ref_ns: 1000,
                    freq_sensitivity: 1.0,
                    sla: 10_000_000,
                    features: Default::default(),
                })
                .collect();
            let caps = vec![NodeCapacity::uniform(1); nodes];
            let streams = split_arrivals(&arrivals, &caps, BalancerPolicy::JoinShortestQueue);
            let max = streams.iter().map(|s| s.len()).max().unwrap();
            let min = streams.iter().map(|s| s.len()).min().unwrap();
            prop_assert!(
                max - min <= 1,
                "tie rotation left an uneven split at N={}: max {} min {}",
                nodes, max, min
            );
        }
    }
}
