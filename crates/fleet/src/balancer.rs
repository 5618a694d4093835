//! Deterministic load balancing: split one fleet-level arrival stream
//! into per-node streams.
//!
//! The balancer runs outside the simulation, as a pure function of the
//! arrival trace — the same place a real L4 balancer sits (it routes on
//! arrival, before the request's service time is known). The stateful
//! policies therefore work from an *estimated* backlog model, the
//! analog of a connection-count or EWMA-load table: each node is
//! approximated as a fluid queue retiring reference-time work at its
//! core count, and routing decisions fold each routed request's
//! `work_ref_ns` into that estimate. The model never sees simulator
//! state, so the split is reproducible from `(trace, nodes, policy)`
//! alone — the property the determinism proptests pin down.
//! Routing state lives in an `Assigner`: [`split_arrivals`] runs one
//! over a whole stream, and the fleet driver's producer runs one chunk
//! by chunk as the stream is generated.

use deeppower_simd_server::Request;
use serde::{Deserialize, Serialize};

/// How the fleet front-end routes requests to nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BalancerPolicy {
    /// Request `i` goes to node `i mod N`. Stateless, perfectly fair in
    /// counts, blind to work size.
    RoundRobin,
    /// Join-shortest-queue on the estimated-backlog model: each request
    /// goes to the node with the least outstanding estimated work. Ties
    /// rotate deterministically with the request index, so an idle
    /// fleet spreads instead of piling onto node 0.
    JoinShortestQueue,
    /// Energy-oriented packing: among nodes whose estimated backlog
    /// stays within half the request's SLA, pick the *most* loaded —
    /// concentrating work so the remaining nodes idle at low power /
    /// deep C-states. Falls back to join-shortest-queue when every node
    /// is saturated.
    PowerAware,
}

impl BalancerPolicy {
    pub fn label(&self) -> &'static str {
        match self {
            BalancerPolicy::RoundRobin => "round-robin",
            BalancerPolicy::JoinShortestQueue => "join-shortest-queue",
            BalancerPolicy::PowerAware => "power-aware",
        }
    }

    /// Parse a CLI-style name (`round-robin`, `jsq`, `power-aware`, …).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "round-robin" | "rr" => Some(BalancerPolicy::RoundRobin),
            "join-shortest-queue" | "jsq" => Some(BalancerPolicy::JoinShortestQueue),
            "power-aware" | "pack" => Some(BalancerPolicy::PowerAware),
            _ => None,
        }
    }

    pub fn all() -> [BalancerPolicy; 3] {
        [
            BalancerPolicy::RoundRobin,
            BalancerPolicy::JoinShortestQueue,
            BalancerPolicy::PowerAware,
        ]
    }
}

/// Fraction of reference speed each core is assumed to retire work at.
/// DeepPower nodes spend most of their time well below the reference
/// frequency (that is the point of the policy), so the balancer drains
/// its estimate at the DVFS floor — roughly 800 MHz against the 2.1 GHz
/// reference. An optimistic (full-speed) drain makes every backlog read
/// zero between bursts, which degenerates join-shortest-queue into
/// "always the tie-break node" and lets the packing policy bury one
/// node; the conservative floor keeps estimates alive long enough to
/// spread load the way a connection-count table would.
const DRAIN_FRACTION: f64 = 0.4;

/// DVFS floor the `DRAIN_FRACTION` constant was calibrated against (the
/// Xeon plan's 800 MHz minimum). A node whose own floor differs scales
/// its drain by `floor_mhz / 800`.
const REFERENCE_FLOOR_MHZ: u32 = 800;

/// What the balancer knows about one node's hardware: enough to build
/// its fluid drain model. Derived from a
/// [`crate::NodeProfile`] in heterogeneous fleets; uniform fleets use
/// [`NodeCapacity::uniform`], which reproduces the historical
/// one-`cores`-for-everyone model bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeCapacity {
    /// Physical cores retiring work in parallel.
    pub cores: usize,
    /// The node's own DVFS floor — the frequency the conservative drain
    /// estimate assumes (see [`DRAIN_FRACTION`]).
    pub floor_mhz: u32,
}

impl NodeCapacity {
    /// The historical homogeneous-node capacity: `cores` at the Xeon
    /// 800 MHz floor.
    pub fn uniform(cores: usize) -> Self {
        Self {
            cores,
            floor_mhz: REFERENCE_FLOOR_MHZ,
        }
    }

    /// Reference-time work retired per nanosecond: the satellite bugfix
    /// — previously every node drained at one fleet-wide `cores ×
    /// DRAIN_FRACTION`, so a 2-core node next to 1-core nodes was
    /// modeled at half its real capacity. At the default floor the
    /// scale factor is exactly 1.0, leaving uniform fleets bit-identical.
    fn drain_per_ns(&self) -> f64 {
        self.cores.max(1) as f64
            * DRAIN_FRACTION
            * (self.floor_mhz as f64 / REFERENCE_FLOOR_MHZ as f64)
    }
}

/// Estimated-backlog model of one node: a fluid queue that retires
/// reference-time work at `cores × DRAIN_FRACTION ×` real time, scaled
/// by the node's own DVFS floor.
struct BacklogModel {
    /// Reference-time work (ns) outstanding as of `last_t`.
    work_ref_ns: f64,
    last_t: u64,
    drain_per_ns: f64,
    /// Drain rate relative to the fleet's fastest node, in `(0, 1]`.
    /// Exactly 1.0 for every node of a uniform fleet — and dividing or
    /// multiplying by exactly 1.0 is an IEEE identity, so uniform
    /// routing decisions are bit-identical to the unweighted model.
    capacity_rel: f64,
}

impl BacklogModel {
    fn new(cap: NodeCapacity, max_drain: f64) -> Self {
        let drain = cap.drain_per_ns();
        Self {
            work_ref_ns: 0.0,
            last_t: 0,
            drain_per_ns: drain,
            capacity_rel: drain / max_drain,
        }
    }

    /// Outstanding estimated work after draining up to `now`.
    fn outstanding_at(&mut self, now: u64) -> f64 {
        let dt = now.saturating_sub(self.last_t) as f64;
        self.work_ref_ns = (self.work_ref_ns - dt * self.drain_per_ns).max(0.0);
        self.last_t = self.last_t.max(now);
        self.work_ref_ns
    }

    /// Capacity-weighted backlog: outstanding work as seen by a node of
    /// unit (fleet-max) capacity. JSQ compares these, so a 2-core node
    /// holding 2× the work of a 1-core node reads as equally loaded.
    fn effective_at(&mut self, now: u64) -> f64 {
        self.outstanding_at(now) / self.capacity_rel
    }
}

/// Split a sorted fleet-level arrival stream into `caps.len()` per-node
/// streams under `policy`. Every request lands on exactly one node and
/// per-node streams preserve arrival order (both properties are pinned
/// by the conservation tests). Heterogeneous capacities weight the
/// stateful policies; a uniform slice reproduces the historical split
/// bit-for-bit.
///
/// This is one `Assigner::split` over the whole stream, so the split
/// makes O(nodes) allocations whatever the request count.
pub fn split_arrivals(
    arrivals: &[Request],
    caps: &[NodeCapacity],
    policy: BalancerPolicy,
) -> Vec<Vec<Request>> {
    Assigner::new(caps, policy).split(arrivals)
}

/// The balancer as a stream: routes a fleet stream's requests one
/// chunk at a time, carrying the backlog models and the request index
/// from chunk to chunk. Splitting a stream in chunks gives the same
/// per-node streams as [`split_arrivals`] over the whole of it.
pub(crate) struct Assigner {
    policy: BalancerPolicy,
    models: Vec<BacklogModel>,
    /// Index of the next request in the fleet stream.
    index: usize,
    /// Per-chunk scratch: each request's node, and each node's count.
    targets: Vec<u32>,
    counts: Vec<usize>,
}

impl Assigner {
    pub(crate) fn new(caps: &[NodeCapacity], policy: BalancerPolicy) -> Self {
        assert!(!caps.is_empty(), "fleet needs at least one node");
        let max_drain = caps
            .iter()
            .map(|c| c.drain_per_ns())
            .fold(f64::MIN, f64::max);
        Self {
            policy,
            models: caps
                .iter()
                .map(|&c| BacklogModel::new(c, max_drain))
                .collect(),
            index: 0,
            targets: Vec::new(),
            counts: vec![0; caps.len()],
        }
    }

    /// Route the stream's next request.
    fn assign(&mut self, req: &Request) -> usize {
        let i = self.index;
        self.index += 1;
        let models = &mut self.models;
        let target = match self.policy {
            BalancerPolicy::RoundRobin => i % models.len(),
            BalancerPolicy::JoinShortestQueue => argmin_effective(models, req.arrival, i),
            BalancerPolicy::PowerAware => {
                // Pack onto the most loaded node that still has headroom:
                // adding to a node already more than SLA/2 behind risks
                // queueing timeouts, so such nodes are skipped. Headroom
                // scales with node capacity (a 4-core node retires SLA/2
                // of backlog 4× as fast), and fullness is compared on
                // the capacity-weighted backlog.
                let headroom = req.sla as f64 / 2.0;
                let mut best: Option<(usize, f64)> = None;
                for (k, m) in models.iter_mut().enumerate() {
                    let out = m.outstanding_at(req.arrival);
                    if out < headroom * m.capacity_rel {
                        let eff = out / m.capacity_rel;
                        let fuller = match best {
                            Some((_, b)) => eff > b,
                            None => true,
                        };
                        if fuller {
                            best = Some((k, eff));
                        }
                    }
                }
                match best {
                    Some((k, _)) => k,
                    None => argmin_effective(models, req.arrival, i),
                }
            }
        };
        models[target].work_ref_ns += req.work_ref_ns as f64;
        target
    }

    /// Route `chunk`, the stream's next requests, and split it into one
    /// stream per node. Routing runs first and records one target per
    /// request; the node streams are then allocated at their exact
    /// sizes and filled by copy.
    pub(crate) fn split(&mut self, chunk: &[Request]) -> Vec<Vec<Request>> {
        let mut targets = std::mem::take(&mut self.targets);
        targets.clear();
        targets.reserve(chunk.len());
        self.counts.fill(0);
        for req in chunk {
            let target = self.assign(req);
            self.counts[target] += 1;
            targets.push(target as u32);
        }
        let mut streams: Vec<Vec<Request>> =
            self.counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (req, &target) in chunk.iter().zip(&targets) {
            streams[target as usize].push(*req);
        }
        self.targets = targets;
        streams
    }
}

/// Node with the least capacity-weighted outstanding work at `now`.
/// Equal backlogs rotate with `req_index` instead of collapsing to the
/// lowest node index: between bursts every estimate drains to zero, and
/// under lowest-index tie-breaking each new burst's head would land on
/// node 0 every time — at N ≥ 32 that low-index bias is the dominant
/// routing signal. Rotation keeps the choice a pure function of
/// `(trace, capacities, policy)`, so determinism is untouched.
fn argmin_effective(models: &mut [BacklogModel], now: u64, req_index: usize) -> usize {
    // Two passes instead of a tie list, so routing never allocates: the
    // first finds the minimum and its tie count, the second picks the
    // `req_index % ties`-th tied node (draining again at the same `now`
    // changes nothing).
    let mut best_out = f64::INFINITY;
    let mut ties = 0;
    for m in models.iter_mut() {
        let out = m.effective_at(now);
        if out < best_out {
            best_out = out;
            ties = 1;
        } else if out == best_out {
            ties += 1;
        }
    }
    models
        .iter_mut()
        .enumerate()
        .filter_map(|(k, m)| (m.effective_at(now) == best_out).then_some(k))
        .nth(req_index % ties)
        .expect("the minimum is attained")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, arrival: u64, work: u64) -> Request {
        Request {
            id,
            client_id: id,
            attempt: 0,
            arrival,
            first_arrival: arrival,
            work_ref_ns: work,
            freq_sensitivity: 1.0,
            sla: 10_000_000,
            features: Default::default(),
        }
    }

    #[test]
    fn chunked_splits_equal_the_whole_split() {
        // Bursty arrivals with mixed work sizes, so the stateful
        // policies carry backlog and tie rotation across chunk edges.
        let arrivals: Vec<Request> = (0..500)
            .map(|i| req(i, (i / 7) * 40_000, 50_000 + (i * 7_919) % 400_000))
            .collect();
        let caps = [
            NodeCapacity::uniform(1),
            NodeCapacity::uniform(2),
            NodeCapacity::uniform(4),
        ];
        for policy in BalancerPolicy::all() {
            let whole = split_arrivals(&arrivals, &caps, policy);
            let mut assigner = Assigner::new(&caps, policy);
            let mut chunked = vec![Vec::new(); caps.len()];
            for chunk in arrivals.chunks(37) {
                for (node, part) in chunked.iter_mut().zip(assigner.split(chunk)) {
                    node.extend(part);
                }
            }
            assert_eq!(chunked, whole, "{}", policy.label());
        }
    }

    #[test]
    fn round_robin_strides_across_nodes() {
        let arrivals: Vec<Request> = (0..10).map(|i| req(i, i * 1000, 500)).collect();
        let streams = split_arrivals(
            &arrivals,
            &[NodeCapacity::uniform(4); 3],
            BalancerPolicy::RoundRobin,
        );
        assert_eq!(
            streams[0].iter().map(|r| r.id).collect::<Vec<_>>(),
            [0, 3, 6, 9]
        );
        assert_eq!(
            streams[1].iter().map(|r| r.id).collect::<Vec<_>>(),
            [1, 4, 7]
        );
        assert_eq!(
            streams[2].iter().map(|r| r.id).collect::<Vec<_>>(),
            [2, 5, 8]
        );
    }

    #[test]
    fn jsq_prefers_the_least_loaded_node() {
        // Two simultaneous heavy requests then a third: JSQ must not
        // stack all three on node 0.
        let arrivals = vec![
            req(0, 0, 1_000_000),
            req(1, 0, 1_000_000),
            req(2, 0, 1_000_000),
        ];
        let streams = split_arrivals(
            &arrivals,
            &[NodeCapacity::uniform(1); 3],
            BalancerPolicy::JoinShortestQueue,
        );
        assert!(streams.iter().all(|s| s.len() == 1), "{streams:?}");
    }

    #[test]
    fn jsq_drains_backlog_over_time() {
        // Drain must be able to flip a strict comparison, not just
        // resolve ties. Node 0 takes 6 ms at t=0, node 1 takes 4 ms at
        // t=9 ms; by t=10 ms the 1-core nodes have drained to 2.0 ms
        // and 3.6 ms respectively (0.4 ref-ns per ns), so the tiny
        // request lands back on node 0 — the *older* backlog wins
        // despite having been larger.
        let arrivals = vec![
            req(0, 0, 6_000_000),
            req(1, 9_000_000, 4_000_000),
            req(2, 10_000_000, 1000),
        ];
        let streams = split_arrivals(
            &arrivals,
            &[NodeCapacity::uniform(1); 2],
            BalancerPolicy::JoinShortestQueue,
        );
        assert_eq!(
            streams[0].iter().map(|r| r.id).collect::<Vec<_>>(),
            [0, 2],
            "{streams:?}"
        );
        assert_eq!(streams[1].iter().map(|r| r.id).collect::<Vec<_>>(), [1]);

        // Without the intervening drain (same split requested at t=0
        // instead), the 4 ms backlog would still be the strict minimum:
        // the request spills to node 1.
        let arrivals = vec![
            req(0, 0, 6_000_000),
            req(1, 0, 4_000_000),
            req(2, 1000, 1000),
        ];
        let streams = split_arrivals(
            &arrivals,
            &[NodeCapacity::uniform(1); 2],
            BalancerPolicy::JoinShortestQueue,
        );
        assert_eq!(streams[1].iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn jsq_ties_rotate_instead_of_packing_node_zero() {
        // Requests spaced far enough apart that every backlog estimate
        // has fully drained: each routing decision is an all-nodes tie.
        // Rotation must spread them evenly; the old lowest-index
        // tie-break put all twelve on node 0.
        let arrivals: Vec<Request> = (0..12).map(|i| req(i, i * 1_000_000_000, 1000)).collect();
        let streams = split_arrivals(
            &arrivals,
            &[NodeCapacity::uniform(1); 4],
            BalancerPolicy::JoinShortestQueue,
        );
        for (k, s) in streams.iter().enumerate() {
            assert_eq!(s.len(), 3, "node {k} got {} of 12: {streams:?}", s.len());
        }
        // Still a pure function of the trace: same call, same split.
        let again = split_arrivals(
            &arrivals,
            &[NodeCapacity::uniform(1); 4],
            BalancerPolicy::JoinShortestQueue,
        );
        for (a, b) in streams.iter().zip(&again) {
            let ids: Vec<u64> = a.iter().map(|r| r.id).collect();
            let ids_b: Vec<u64> = b.iter().map(|r| r.id).collect();
            assert_eq!(ids, ids_b);
        }
    }

    #[test]
    fn power_aware_packs_until_headroom_is_exhausted() {
        // SLA 10 ms → headroom 5 ms. Three simultaneous 3 ms requests:
        // the first two pack onto node 0 (0 ms, then 3 ms outstanding);
        // the third sees 6 ms > headroom on node 0 and spills to node 1.
        let arrivals = vec![
            req(0, 0, 3_000_000),
            req(1, 0, 3_000_000),
            req(2, 0, 3_000_000),
        ];
        let streams = split_arrivals(
            &arrivals,
            &[NodeCapacity::uniform(1); 3],
            BalancerPolicy::PowerAware,
        );
        assert_eq!(streams[0].iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(streams[1].iter().map(|r| r.id).collect::<Vec<_>>(), [2]);
        assert!(streams[2].is_empty());
    }

    #[test]
    fn power_aware_falls_back_to_jsq_when_saturated() {
        // Every node saturated: the request still lands somewhere.
        let mut arrivals: Vec<Request> = (0..8).map(|i| req(i, 0, 20_000_000)).collect();
        arrivals.push(req(8, 0, 1000));
        let streams = split_arrivals(
            &arrivals,
            &[NodeCapacity::uniform(1); 2],
            BalancerPolicy::PowerAware,
        );
        let total: usize = streams.iter().map(|s| s.len()).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn packing_headroom_scales_with_node_capacity() {
        // SLA 10 ms → base headroom 5 ms, anchored at the fleet's
        // fastest node. Next to a 2-core node a 1-core node drains half
        // as fast, so its cutoff halves to 2.5 ms of raw backlog. Three
        // simultaneous 3 ms requests: the first fills the 1-core node
        // past its cutoff, so both remaining requests pack onto the
        // 2-core node — under the old one-cores-fits-all model both
        // nodes shared the 5 ms cutoff and the split came out [2, 1].
        let caps = [NodeCapacity::uniform(1), NodeCapacity::uniform(2)];
        let arrivals: Vec<Request> = (0..3).map(|i| req(i, 0, 3_000_000)).collect();
        let streams = split_arrivals(&arrivals, &caps, BalancerPolicy::PowerAware);
        assert_eq!(
            streams[0].iter().map(|r| r.id).collect::<Vec<_>>(),
            [0],
            "{streams:?}"
        );
        assert_eq!(streams[1].iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2]);

        // Same three requests on equal 1-core nodes: node 0 keeps its
        // full 5 ms cutoff and takes two before spilling.
        let caps = [NodeCapacity::uniform(1), NodeCapacity::uniform(1)];
        let streams = split_arrivals(&arrivals, &caps, BalancerPolicy::PowerAware);
        assert_eq!(streams[0].iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(streams[1].iter().map(|r| r.id).collect::<Vec<_>>(), [2]);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

            /// The satellite bugfix pinned: under sustained load a
            /// 2-core node must absorb ~2× the work of a 1-core node.
            /// With the old uniform-`cores` drain model both policies
            /// split the work evenly regardless of node size.
            #[test]
            fn two_core_node_absorbs_about_twice_the_work(
                gap_ns in 500u64..2000,
                load in 1.05f64..1.4,
                policy_idx in 0usize..2,
            ) {
                let policy = [
                    BalancerPolicy::JoinShortestQueue,
                    BalancerPolicy::PowerAware,
                ][policy_idx];
                let caps = [NodeCapacity::uniform(1), NodeCapacity::uniform(2)];
                // Offered work = `load` × the fleet's total drain
                // capacity (1.2 ref-ns per ns), so backlogs stay alive
                // and the capacity weighting is what routes. A tight SLA
                // keeps the packing cutoffs saturated, so PowerAware
                // spends the run in its capacity-weighted steady state
                // instead of packing one node forever.
                let work = (gap_ns as f64 * 1.2 * load) as u64;
                let arrivals: Vec<Request> = (0..2000)
                    .map(|i| Request {
                        sla: 100_000,
                        ..req(i, i * gap_ns, work)
                    })
                    .collect();
                let streams = split_arrivals(&arrivals, &caps, policy);
                let w0: u64 = streams[0].iter().map(|r| r.work_ref_ns).sum();
                let w1: u64 = streams[1].iter().map(|r| r.work_ref_ns).sum();
                prop_assert!(w0 > 0, "1-core node starved entirely");
                let ratio = w1 as f64 / w0 as f64;
                prop_assert!(
                    (1.5..=2.6).contains(&ratio),
                    "2-core/1-core work ratio {ratio:.2} not ~2 under {policy:?}"
                );
            }
        }
    }
}
