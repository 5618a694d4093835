//! The fleet driver: N node simulations advanced in lockstep
//! `LongTime` epochs, steered by one shared DeepPower policy (or one per
//! profile group) whose actions for all nodes come from one batched
//! forward pass per group.
//!
//! Each node is an independent [`Server`] session (its own cores,
//! queue, energy meter and telemetry stream); the only coupling is the
//! balancer split of the fleet arrival stream and the shared actor.
//! One producer thread generates and splits the stream while the nodes
//! run, and streams each node its arrivals (see [`run_fleet_with`]).
//! At every epoch boundary the driver pauses all nodes
//! ([`Session::advance_until`]), stacks their 8-dimensional DeepPower
//! states into one `N × 8` matrix, runs one matrix–matrix inference
//! per profile group ([`Coordinator::act`]) and writes each row's
//! `(BaseFreq, ScalingCoef)` into that node's thread controller. Because
//! every batched output row is bit-identical to the single-state pass
//! ([`Ddpg::act_batch_rows`]), the batched fleet produces *exactly* the
//! per-node results of the naive one-node-at-a-time loop — pinned by
//! `batched_and_unbatched_fleets_agree` — while doing `1/N` of the
//! forward passes (the `fleet_scaling` bench measures the speedup).
//!
//! There is one epoch loop, in [`run_fleet_with`]. Node sessions are
//! partitioned across worker threads; worker 0 runs on the calling
//! thread and leads the batched pass, so a serial fleet is the same
//! loop with one worker and no spawn. The result is byte-identical at
//! any thread count (see [`run_fleet_with`] for the protocol).

use crate::balancer::{Assigner, BalancerPolicy, NodeCapacity};
use crate::coordinator::Coordinator;
use crate::profile::{node_profile_indices, profile_groups, NodeProfile};
use deeppower_core::{
    ControllerParams, StateObserver, ThreadController, TrainConfig, TrainedPolicy, STATE_DIM,
};
use deeppower_drl::Ddpg;
use deeppower_nn::Matrix;
use deeppower_simd_server::{
    arrival_feed, with_producer, ArrivalFeed, FaultPlan, FeedArrivals, FeedSender, FreqCommands,
    Governor, LatencyStats, Nanos, OverloadPlan, Request, RunOptions, Server, ServerConfig,
    ServerView, Session, SimResult, FEED_CHUNK, MILLISECOND,
};
use deeppower_telemetry::{
    Event, FleetMonitor, HealthReport, MonitorConfig, MonitorSink, Profiler, Recorder, Span,
    TracePlan,
};
use deeppower_workload::{App, AppSpec, ArrivalStream, DiurnalConfig, DiurnalTrace};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// One fleet experiment: N nodes serving a shared diurnal trace behind
/// a balancer, under one trained policy (or one per profile group; see
/// [`run_fleet_with`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetSpec {
    pub app: App,
    /// Number of server nodes. With `profiles` set this must equal the
    /// sum of profile counts (use [`FleetSpec::with_profiles`]).
    pub nodes: usize,
    pub balancer: BalancerPolicy,
    /// Master seed: the diurnal trace and request sampling derive from
    /// it deterministically.
    pub seed: u64,
    /// Peak RPS per node as a fraction of the app's capacity (the fleet
    /// trace peaks at `nodes ×` this rate).
    pub peak_load: f64,
    /// Trace duration in simulated seconds.
    pub duration_s: u64,
    /// Fault axes applied to every node. Each node draws from its own
    /// fault streams (seed offset by the node index), so a fleet under
    /// e.g. core stalls degrades node by node, not in lockstep.
    pub faults: FaultPlan,
    /// Overload plan applied to every node (bounded queue, client
    /// deadlines, retries, admission). Like faults, each node's retry
    /// RNG seed is offset by the node index so retry storms desynchronize
    /// across the fleet.
    pub overload: OverloadPlan,
    /// Hardware profiles, consecutive by node index (`[{count: 2},
    /// {count: 1}]` puts nodes 0–1 on the first profile and node 2 on
    /// the second). Empty — the historical homogeneous fleet — means
    /// `nodes ×` the app's paper-default config.
    #[serde(default)]
    pub profiles: Vec<NodeProfile>,
    /// Request-lifecycle tracing plan applied to every node. The plan's
    /// `node` field is stamped with each node's index, so one
    /// spec-level plan fans out into per-node tracers whose traces
    /// carry their origin. Default (`TracePlan::none()`) traces
    /// nothing and adds a single disabled branch per hook.
    #[serde(default)]
    pub rtrace: TracePlan,
}

impl FleetSpec {
    /// The historical homogeneous fleet: `nodes` paper-default servers,
    /// no faults, no overload plan.
    pub fn uniform(
        app: App,
        nodes: usize,
        balancer: BalancerPolicy,
        seed: u64,
        peak_load: f64,
        duration_s: u64,
    ) -> Self {
        Self {
            app,
            nodes,
            balancer,
            seed,
            peak_load,
            duration_s,
            faults: FaultPlan::none(),
            overload: OverloadPlan::none(),
            profiles: Vec::new(),
            rtrace: TracePlan::none(),
        }
    }

    /// Attach hardware profiles, recomputing `nodes` from the profile
    /// counts. Panics on an invalid profile — callers deserializing
    /// untrusted files validate via `profiles_from_json` first.
    pub fn with_profiles(mut self, profiles: Vec<NodeProfile>) -> Self {
        assert!(!profiles.is_empty(), "profile list cannot be empty");
        for p in &profiles {
            if let Err(e) = p.validate() {
                panic!("invalid fleet profile: {e}");
            }
        }
        self.nodes = profiles.iter().map(|p| p.count).sum();
        self.profiles = profiles;
        self
    }

    fn assert_consistent(&self) {
        assert!(self.nodes > 0, "fleet needs at least one node");
        let total: usize = self.node_profiles().iter().map(|p| p.count).sum();
        assert_eq!(
            total, self.nodes,
            "profile counts must sum to the node count"
        );
    }

    /// The fleet's profiles. The homogeneous fleet *is* one
    /// paper-default profile covering every node: same engine config,
    /// capacity and name, so the two are byte-identical in results.
    fn node_profiles(&self) -> Vec<NodeProfile> {
        if self.profiles.is_empty() {
            let cores = AppSpec::get(self.app).n_threads;
            vec![NodeProfile::paper_default(cores, self.nodes)]
        } else {
            self.profiles.clone()
        }
    }

    /// What the balancer knows about each node (index order).
    pub fn capacities(&self) -> Vec<NodeCapacity> {
        let profiles = self.node_profiles();
        let group_of = node_profile_indices(&profiles);
        group_of.iter().map(|&k| profiles[k].capacity()).collect()
    }

    /// Node indices grouped by profile (one all-nodes group for the
    /// homogeneous fleet) — the batching units of the [`Coordinator`].
    pub fn groups(&self) -> Vec<Vec<usize>> {
        profile_groups(&self.node_profiles())
    }

    /// One engine config per profile group, aligned with
    /// [`FleetSpec::groups`].
    pub fn group_configs(&self) -> Vec<ServerConfig> {
        let profiles = self.node_profiles();
        profiles.iter().map(NodeProfile::server_config).collect()
    }

    /// Profile-group index of every node (all zeros when homogeneous).
    fn group_of(&self) -> Vec<usize> {
        node_profile_indices(&self.node_profiles())
    }
}

/// Per-node slice of a fleet run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeSummary {
    pub node: usize,
    /// Requests routed to this node by the balancer.
    pub assigned: u64,
    /// Requests completed. Without an overload plan the simulator drops
    /// nothing, so this equals `assigned` (asserted by the conservation
    /// tests); with one, shed requests make it smaller and retries can
    /// make it larger.
    pub requests: u64,
    /// Completions whose client was still waiting.
    pub goodput: u64,
    /// Completions after the client abandoned (wasted work).
    pub wasted: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Retries injected by this node's closed-loop clients.
    pub retries: u64,
    pub energy_j: f64,
    pub avg_power_w: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub timeout_rate: f64,
    pub freq_transitions: u64,
    /// Deepest this node's queue ever got.
    pub peak_queue_depth: u64,
    /// Hardware profile name the node ran on.
    pub profile: String,
}

/// Fleet-level aggregates plus the per-node breakdown.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetResult {
    pub app: String,
    pub nodes: usize,
    pub balancer: String,
    pub seed: u64,
    pub peak_load: f64,
    pub duration_s: u64,
    /// Batched policy decisions taken (one per `LongTime` epoch).
    pub drl_epochs: u64,
    pub total_requests: u64,
    /// Fleet-wide goodput / wasted / shed totals (overload plans only;
    /// without one `total_goodput == total_requests` and the rest are 0).
    pub total_goodput: u64,
    pub total_wasted: u64,
    pub total_shed: u64,
    pub total_energy_j: f64,
    /// Sum of per-node average powers — the fleet's steady draw.
    pub total_power_w: f64,
    /// Percentiles over the *merged* latency records of all nodes.
    pub fleet_p50_ms: f64,
    pub fleet_p95_ms: f64,
    pub fleet_p99_ms: f64,
    pub fleet_timeout_rate: f64,
    /// Deepest any node's queue got — a max-merge across nodes (the
    /// gauge-policy fold; last-write merging under-reported this).
    pub fleet_peak_queue_depth: u64,
    pub per_node: Vec<NodeSummary>,
}

impl FleetResult {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FleetResult serialization cannot fail")
    }
}

/// Generate the fleet-level arrival stream: the app's diurnal trace
/// with its peak scaled to `nodes × rps_for_load(peak_load)`.
pub fn fleet_arrivals(spec: &FleetSpec) -> Vec<Request> {
    fleet_arrival_stream(spec).collect()
}

/// [`fleet_arrivals`], drawn on demand.
fn fleet_arrival_stream(spec: &FleetSpec) -> ArrivalStream {
    let app_spec = AppSpec::get(spec.app);
    let cfg = DiurnalConfig {
        period_s: spec.duration_s,
        ..Default::default()
    };
    let mut trace = DiurnalTrace::generate(&cfg, spec.seed);
    trace.scale_peak_to(app_spec.rps_for_load(spec.peak_load) * spec.nodes as f64);
    ArrivalStream::new(&app_spec, trace, spec.seed)
}

/// The fleet's arrival producer: generate the fleet stream in
/// [`FEED_CHUNK`]-request chunks (`engine.ingest`), split each chunk
/// across the nodes and send every node its share, then mark each
/// feed's end. The whole producer is one `fleet.balance` span. Returns
/// the requests routed to each node. Sends never block, so it runs to
/// the end whatever the nodes do; if a node's reader is gone (its
/// session unwound), it stops without end markers.
fn produce_arrivals(spec: &FleetSpec, feeds: Vec<FeedSender>, prof: &Profiler) -> Vec<u64> {
    let _sp = prof.span("fleet.balance");
    let mut stream = fleet_arrival_stream(spec);
    let mut assigner = Assigner::new(&spec.capacities(), spec.balancer);
    let mut assigned = vec![0u64; feeds.len()];
    let mut chunk = Vec::with_capacity(FEED_CHUNK);
    loop {
        let sp = prof.span("engine.ingest");
        chunk.clear();
        chunk.extend(stream.by_ref().take(FEED_CHUNK));
        drop(sp);
        let streams = assigner.split(&chunk);
        for ((node, feed), count) in streams.into_iter().zip(&feeds).zip(&mut assigned) {
            *count += node.len() as u64;
            if !feed.send(node) {
                return assigned;
            }
        }
        if chunk.len() < FEED_CHUNK {
            break;
        }
    }
    feeds.into_iter().for_each(FeedSender::end);
    assigned
}

/// A policy with freshly initialized (untrained) actor weights, for
/// exercising fleet *mechanics* — scaling benches, determinism and
/// conservation tests — without paying for training. Experiments that
/// care about policy quality train via `deeppower-core` as usual.
pub fn untrained_policy(app: App, seed: u64) -> TrainedPolicy {
    let cfg = TrainConfig::for_app(app);
    let ddpg = deeppower_drl::DdpgConfig {
        seed,
        ..cfg.deeppower.ddpg
    };
    let agent = Ddpg::new(ddpg);
    TrainedPolicy {
        app,
        actor_weights: agent.actor_snapshot(),
        critic_weights: agent.critic_snapshot(),
        ddpg,
        deeppower: cfg.deeppower,
    }
}

/// Node-side governor: Algorithm 1 whose parameters live in a shared
/// cell the fleet driver rewrites at every epoch boundary. The session
/// holds the governor `&mut`, so the driver reaches past that borrow
/// through `Rc<Cell<…>>`. The cell, the governor and the session all
/// live on the worker thread that owns the node, so the `Rc` never
/// crosses threads.
struct SharedParamsController {
    params: Rc<Cell<ControllerParams>>,
}

impl Governor for SharedParamsController {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        ThreadController::new(self.params.get()).scale_all(view, cmds);
    }

    fn name(&self) -> &str {
        "fleet-thread-controller"
    }
}

/// What a fleet run records besides its [`FleetResult`]: one choice, as
/// the CLI's `--monitor` and `--telemetry` flags are exclusive.
#[derive(Clone, Debug)]
pub enum FleetObserve {
    /// No telemetry: every node's recorder is disabled.
    None,
    /// One ring [`Recorder`] of `ring` events per node (dispatches,
    /// completions, frequency transitions, latency snapshots), so
    /// per-node JSONL artifacts fall out the same way single-server
    /// ones do.
    Events { ring: usize },
    /// Every node feeds a [`FleetMonitor`] inline through a
    /// [`MonitorSink`]: window rollups, injected faults, governor steps
    /// and request traces.
    Monitor(MonitorConfig),
}

/// How [`run_fleet_with`] drives a fleet. The default is the serial,
/// batched, unobserved run of [`run_fleet`].
#[derive(Clone, Debug)]
pub struct FleetRun {
    /// Worker threads: `0` means every available core, and any value is
    /// clamped into `[1, nodes]`. The output does not depend on it.
    pub threads: usize,
    /// Act through one single-state forward pass per node instead of
    /// the grouped batched pass. This reference path is result-identical;
    /// it exists so benches can time the two and tests can pin them
    /// equal.
    pub per_node_act: bool,
    /// What the run records besides the result.
    pub observe: FleetObserve,
    /// Span profiler. `fleet.balance` (the arrival producer, with one
    /// `engine.ingest` per generated chunk inside) and `fleet.merge`
    /// (finish and percentile merge) open once; a node engine that
    /// waits for its next arrival opens `engine.feed_wait`;
    /// `fleet.batch_act` opens once per epoch on worker 0 and covers its
    /// own observe pass plus the act; each worker opens one
    /// `fleet.advance` per epoch, and its nodes' `engine.*` spans nest
    /// inside. Profiling never perturbs the simulation.
    ///
    /// [`run_fleet_with`] attaches this profiler to every node's [`Recorder`].
    /// It lives here rather than in a recorder because recorders are
    /// `!Send` and built on each worker, while one profiler is shared by
    /// all workers.
    pub profiler: Profiler,
}

impl Default for FleetRun {
    fn default() -> Self {
        Self {
            threads: 1,
            per_node_act: false,
            observe: FleetObserve::None,
            profiler: Profiler::disabled(),
        }
    }
}

/// What [`run_fleet_with`] returns.
#[derive(Clone, Debug)]
pub struct FleetOutput {
    pub result: FleetResult,
    /// The merged monitor of a [`FleetObserve::Monitor`] run. Take its
    /// [`FleetMonitor::finish`] for the health report, or its flight
    /// recorder for the traces behind an alert.
    pub monitor: Option<FleetMonitor>,
    /// Each node's `(events, dropped)` in node order: the events its ring
    /// kept and how many the ring evicted. Empty unless the run observed
    /// [`FleetObserve::Events`].
    pub events: Vec<(Vec<Event>, u64)>,
}

/// Run a fleet serially with batched actor inference and no telemetry.
pub fn run_fleet(spec: &FleetSpec, policy: &TrainedPolicy) -> FleetResult {
    run_fleet_with(spec, &[policy], &FleetRun::default()).result
}

/// Run a fleet on `threads` workers with a [`FleetMonitor`] attached,
/// and return its [`HealthReport`] with the result. The report is
/// byte-identical at any thread count (asserted by
/// `monitored_fleet_report_is_byte_identical_at_any_thread_count`).
pub fn run_fleet_monitored(
    spec: &FleetSpec,
    policy: &TrainedPolicy,
    threads: usize,
    cfg: MonitorConfig,
) -> (FleetResult, HealthReport) {
    let observe = FleetObserve::Monitor(cfg);
    let run = FleetRun {
        threads,
        observe,
        ..FleetRun::default()
    };
    let out = run_fleet_with(spec, &[policy], &run);
    (out.result, out.monitor.expect("monitored run").finish())
}

/// The fleet driver. `policies` holds one policy per profile group in
/// [`FleetSpec::groups`] order (HiDVFS-style hierarchical control), or a
/// single policy that steers every group. All of them must agree on
/// `ShortTime` and `LongTime`, the fleet's tick and epoch grids.
///
/// Node `i` lives on worker `i % threads` for its whole lifetime:
/// sessions are `!Send`, so each is created, advanced and finished on
/// one thread, and there is no work stealing. Worker 0 runs on the
/// calling thread and leads. Each epoch has three barriers:
///
/// 1. every worker writes its nodes' observed states into disjoint rows
///    of one shared `N × STATE_DIM` matrix (the first epoch sees the
///    pre-run empty state, as the single-node governor does on its
///    first tick) — barrier A;
/// 2. worker 0 runs the coordinator's grouped batched pass, or the
///    per-node reference pass, and publishes one `ControllerParams` per
///    node — barrier B;
/// 3. every worker hands its nodes their params, advances them to the
///    epoch's end and adds the nodes that finished to a monotone
///    counter — barrier C. All workers leave together once it reads N.
///
/// Every node therefore gets the same actions at the same simulated
/// times whatever `threads` is, so the result, the event streams and
/// the monitor are byte-identical at any thread count. Per-worker monitors
/// fold into worker 0's through [`FleetMonitor::merge`]; monitor state
/// is keyed by `(window, node)` and workers own disjoint nodes, so the
/// fold equals the one-worker monitor. A worker that panics poisons the
/// barriers, so the others panic out instead of waiting for it.
///
/// Arrivals come from one more thread, the producer
/// (`produce_arrivals`): it generates the fleet stream, splits it
/// and sends each node its requests over the node's own unbounded
/// channel while the workers simulate. Each session pulls its node's
/// arrivals in order, so its events are those of the pre-split stream
/// whenever each chunk arrives. A producer panic re-raises here.
pub fn run_fleet_with(
    spec: &FleetSpec,
    policies: &[&TrainedPolicy],
    run: &FleetRun,
) -> FleetOutput {
    let policies = group_policies(spec, policies);
    let n = spec.nodes;
    let threads = resolve_threads(run.threads, n);
    let (senders, feeds): (Vec<FeedSender>, Vec<ArrivalFeed>) =
        (0..n).map(|_| arrival_feed(&run.profiler)).unzip();
    // Node `i` lives on worker `i % threads`.
    let mut shares: Vec<Vec<(usize, ArrivalFeed)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, feed) in feeds.into_iter().enumerate() {
        shares[i % threads].push((i, feed));
    }

    let mut coordinator = Coordinator::new(spec.groups(), &policies);
    let lead = policies[0].deeppower;
    let lockstep = Lockstep {
        spec,
        run,
        group_of: spec.group_of(),
        policies,
        servers: spec.group_configs().into_iter().map(Server::new).collect(),
        opts: RunOptions {
            tick_ns: lead.short_time,
            ..Default::default()
        },
        long: lead.long_time.max(1),
        threads,
        states: Mutex::new(Matrix::zeros(n, STATE_DIM)),
        actions: Mutex::new(vec![ControllerParams::default(); n]),
        barrier: EpochBarrier::new(threads),
        done: AtomicUsize::new(0),
    };
    let produce = || produce_arrivals(spec, senders, &run.profiler);
    let (assigned, (leader, others)) = with_producer(produce, || {
        std::thread::scope(|scope| {
            let mut shares = shares.into_iter();
            let lead = shares.next().expect("at least one worker");
            let others: Vec<_> = shares
                .enumerate()
                .map(|(k, share)| {
                    let lockstep = &lockstep;
                    scope.spawn(move || lockstep.worker(k + 1, share, None))
                })
                .collect();
            let leader = lockstep.worker(0, lead, Some(&mut coordinator));
            let others: Vec<WorkerOut> = others
                .into_iter()
                .map(|h| h.join().expect("fleet worker panicked"))
                .collect();
            (leader, others)
        })
    });

    let WorkerOut {
        epochs,
        mut nodes,
        mut monitor,
        merge_span: _merge_span,
    } = leader;
    for worker in others {
        nodes.extend(worker.nodes);
        if let (Some(m), Some(other)) = (monitor.as_mut(), worker.monitor) {
            m.merge(other);
        }
    }
    nodes.sort_unstable_by_key(|&(i, ..)| i);
    let (results, events) = nodes.into_iter().map(|(_, sim, ev)| (sim, ev)).unzip();
    FleetOutput {
        result: assemble(spec, epochs, &assigned, results),
        monitor,
        events,
    }
}

/// One policy per profile group: a single policy is shared by every
/// group. Every group policy must agree on the lockstep grids, since the
/// fleet runs one tick/epoch cadence whatever each group's weights are.
fn group_policies<'a>(spec: &FleetSpec, policies: &[&'a TrainedPolicy]) -> Vec<&'a TrainedPolicy> {
    spec.assert_consistent();
    let groups = spec.groups().len();
    let policies = match policies {
        [shared] => vec![*shared; groups],
        _ => policies.to_vec(),
    };
    assert_eq!(policies.len(), groups, "one policy per profile group");
    let lead = policies[0].deeppower;
    for p in &policies {
        assert_eq!(
            p.deeppower.short_time, lead.short_time,
            "group policies must share ShortTime (the fleet tick grid)"
        );
        assert_eq!(
            p.deeppower.long_time, lead.long_time,
            "group policies must share LongTime (the fleet epoch grid)"
        );
    }
    policies
}

/// `0` → all available cores; otherwise clamp into `[1, nodes]`.
fn resolve_threads(threads: usize, nodes: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    t.min(nodes).max(1)
}

/// What the workers of one fleet run share.
struct Lockstep<'a> {
    spec: &'a FleetSpec,
    run: &'a FleetRun,
    group_of: Vec<usize>,
    policies: Vec<&'a TrainedPolicy>,
    servers: Vec<Server>,
    opts: RunOptions,
    long: u64,
    threads: usize,
    states: Mutex<Matrix>,
    actions: Mutex<Vec<ControllerParams>>,
    barrier: EpochBarrier,
    /// Nodes finished so far. Each node is counted once, by its owner,
    /// in the epoch it finishes, so the count is monotone and never
    /// reset, and every worker reads the same value after barrier C.
    done: AtomicUsize,
}

/// One worker's share of a fleet run.
struct WorkerOut {
    epochs: u64,
    /// `(node, result, (events, dropped))` for each node it owned.
    nodes: Vec<(usize, SimResult, (Vec<Event>, u64))>,
    monitor: Option<FleetMonitor>,
    /// Worker 0's `fleet.merge` span, held open through the join and
    /// the assembly.
    merge_span: Option<Span>,
}

impl Lockstep<'_> {
    /// Drive worker `w`'s nodes, `share` (each node with its arrival
    /// feed), through the epoch loop. Worker 0 passes the coordinator
    /// and acts for the whole fleet between barriers A and B.
    fn worker(
        &self,
        w: usize,
        share: Vec<(usize, ArrivalFeed)>,
        mut leader: Option<&mut Coordinator>,
    ) -> WorkerOut {
        debug_assert!(share.iter().all(|&(i, _)| i % self.threads == w));
        let _poison = PoisonOnUnwind(&self.barrier);
        let n = self.spec.nodes;
        let prof = &self.run.profiler;
        let (owned, feeds): (Vec<usize>, Vec<ArrivalFeed>) = share.into_iter().unzip();
        // Worker-local monitor: its nodes feed it inline through their
        // sinks.
        let monitor = match &self.run.observe {
            FleetObserve::Monitor(cfg) => {
                Some(Rc::new(RefCell::new(FleetMonitor::new(cfg.clone()))))
            }
            _ => None,
        };
        // Each node's recorder carries the run's shared profiler, so
        // its `engine.*` spans nest inside this worker's epoch spans.
        let recs: Vec<Recorder> = owned
            .iter()
            .map(|&i| {
                match (&self.run.observe, &monitor) {
                    (_, Some(m)) => {
                        Recorder::with_sink(Box::new(MonitorSink::new(Rc::clone(m), i as u64)))
                    }
                    (FleetObserve::Events { ring }, _) => Recorder::ring(*ring),
                    _ => Recorder::disabled(),
                }
                .with_profiler(&self.run.profiler)
            })
            .collect();
        let cells: Vec<Rc<Cell<ControllerParams>>> = owned.iter().map(|_| Rc::default()).collect();
        let mut govs: Vec<SharedParamsController> = cells
            .iter()
            .map(|c| SharedParamsController {
                params: Rc::clone(c),
            })
            .collect();
        let mut sessions: Vec<Session<'_, FeedArrivals>> = govs
            .iter_mut()
            .zip(&owned)
            .zip(&recs)
            .zip(feeds)
            .map(|(((gov, &i), rec), feed)| {
                self.servers[self.group_of[i]].stream_session(
                    feed.flatten(),
                    gov as &mut dyn Governor,
                    node_opts(self.opts, self.spec, i),
                    rec,
                )
            })
            .collect();
        let mut observers: Vec<StateObserver> = owned
            .iter()
            .map(|&i| StateObserver::new(self.policies[self.group_of[i]].deeppower.state_norm))
            .collect();
        let mut finished = vec![false; owned.len()];
        let mut epochs = 0u64;
        loop {
            let act_span = leader.is_some().then(|| prof.span("fleet.batch_act"));
            {
                let mut states = self.states.lock().expect("fleet states lock");
                for ((&i, session), observer) in owned.iter().zip(&sessions).zip(&mut observers) {
                    states.set_row(i, &session.with_view(|v| observer.observe(v)));
                }
            }
            self.barrier.wait(); // A: every node's state row written
            if let Some(coordinator) = leader.as_deref_mut() {
                // The coordinator reuses its per-group out/scratch
                // buffers, so the steady-state loop never allocates.
                let states = self.states.lock().expect("fleet states lock");
                let mut actions = self.actions.lock().expect("fleet actions lock");
                if self.run.per_node_act {
                    coordinator.act_per_node(&states, &mut actions);
                } else {
                    coordinator.act(&states, &mut actions);
                }
            }
            drop(act_span);
            self.barrier.wait(); // B: this epoch's actions published
            {
                let actions = self.actions.lock().expect("fleet actions lock");
                for (&i, cell) in owned.iter().zip(&cells) {
                    cell.set(actions[i]);
                }
            }
            epochs += 1;
            let t_stop = epochs.saturating_mul(self.long);
            let sp = prof.span("fleet.advance");
            let mut newly = 0;
            for (session, fin) in sessions.iter_mut().zip(&mut finished) {
                if session.advance_until(t_stop) && !*fin {
                    *fin = true;
                    newly += 1;
                }
            }
            drop(sp);
            self.done.fetch_add(newly, Ordering::SeqCst);
            self.barrier.wait(); // C: every completion counted
            if self.done.load(Ordering::SeqCst) == n {
                break;
            }
        }

        let merge_span = leader.is_some().then(|| prof.span("fleet.merge"));
        let nodes = owned
            .into_iter()
            .zip(sessions)
            .zip(&recs)
            .map(|((i, session), rec)| {
                let sim = session.finish();
                (i, sim, (rec.drain_events(), rec.dropped_events()))
            })
            .collect();
        // The sessions are gone; dropping their recorders leaves this
        // worker holding the monitor's only reference.
        drop(recs);
        let monitor = monitor.map(|m| {
            Rc::into_inner(m)
                .expect("monitor sinks outlived their sessions")
                .into_inner()
        });
        WorkerOut {
            epochs,
            nodes,
            monitor,
            merge_span,
        }
    }
}

/// The lockstep barrier: a reusable barrier that a panicking worker
/// poisons, so the other workers panic out of their next wait instead
/// of waiting forever for it.
struct EpochBarrier {
    parties: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl EpochBarrier {
    fn new(parties: usize) -> Self {
        Self {
            parties,
            state: Mutex::default(),
            cv: Condvar::new(),
        }
    }

    // The lock is taken through poison: no update of the state can be
    // left half done, and the poisoned path must still wake everyone.
    fn wait(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let generation = st.generation;
        st.arrived += 1;
        if st.arrived == self.parties {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
        }
        while st.generation == generation && !st.poisoned {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let poisoned = st.poisoned;
        drop(st);
        assert!(!poisoned, "another fleet worker panicked");
    }

    fn poison(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .poisoned = true;
        self.cv.notify_all();
    }
}

/// Poisons the barrier if its worker unwinds.
struct PoisonOnUnwind<'a>(&'a EpochBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Per-node [`RunOptions`]: every node shares the fleet's tick grid
/// (and therefore its window grid) and fault axes, but draws from its
/// own fault seed stream (`seed + node`) so faults don't strike the
/// whole fleet in lockstep.
fn node_opts(base: RunOptions, spec: &FleetSpec, node: usize) -> RunOptions {
    RunOptions {
        faults: FaultPlan {
            seed: spec.faults.seed.wrapping_add(node as u64),
            ..spec.faults
        },
        overload: OverloadPlan {
            seed: spec.overload.seed.wrapping_add(node as u64),
            ..spec.overload
        },
        // Sampling stays keyed on the fleet-wide seed (a client's
        // retries land on the same node, and head sampling must pick
        // the same clients fleet-wide); only the origin tag varies.
        rtrace: TracePlan {
            node: node as u64,
            ..spec.rtrace
        },
        ..base
    }
}

/// Fold per-node [`SimResult`]s into the fleet report. Fleet
/// percentiles come from the merged latencies of every node's records,
/// not from averaging per-node percentiles (which would understate the
/// tail whenever one node runs hot).
fn assemble(
    spec: &FleetSpec,
    epochs: u64,
    assigned: &[u64],
    results: Vec<SimResult>,
) -> FleetResult {
    let ms = |ns: u64| ns as f64 / MILLISECOND as f64;
    let total: usize = results.iter().map(|sim| sim.records.len()).sum();
    let mut latencies: Vec<Nanos> = Vec::with_capacity(total);
    let mut timeouts = 0;
    let mut per_node = Vec::with_capacity(results.len());
    let mut total_energy_j = 0.0;
    let mut total_power_w = 0.0;
    let (mut total_goodput, mut total_wasted, mut total_shed) = (0u64, 0u64, 0u64);
    // The fleet peak is the deepest any node's queue got.
    let mut peak_queue_depth = 0;
    let (profiles, group_of) = (spec.node_profiles(), spec.group_of());
    for (node, sim) in results.into_iter().enumerate() {
        peak_queue_depth = peak_queue_depth.max(sim.peak_queue_depth);
        let s = &sim.stats;
        total_goodput += sim.goodput;
        total_wasted += sim.wasted;
        total_shed += sim.shed;
        per_node.push(NodeSummary {
            node,
            assigned: assigned[node],
            requests: s.count,
            goodput: sim.goodput,
            wasted: sim.wasted,
            shed: sim.shed,
            retries: sim.retries,
            energy_j: sim.energy_j,
            avg_power_w: sim.avg_power_w,
            p50_ms: ms(s.p50_ns),
            p95_ms: ms(s.p95_ns),
            p99_ms: ms(s.p99_ns),
            timeout_rate: s.timeout_rate(),
            freq_transitions: sim.freq_transitions,
            peak_queue_depth: sim.peak_queue_depth,
            profile: profiles[group_of[node]].name.clone(),
        });
        total_energy_j += sim.energy_j;
        total_power_w += sim.avg_power_w;
        timeouts += s.timeouts;
        latencies.extend(sim.records.iter().map(|r| r.latency));
    }
    let fleet = LatencyStats::from_latencies(&mut latencies, timeouts);
    FleetResult {
        app: AppSpec::get(spec.app).name.to_string(),
        nodes: spec.nodes,
        balancer: spec.balancer.label().to_string(),
        seed: spec.seed,
        peak_load: spec.peak_load,
        duration_s: spec.duration_s,
        drl_epochs: epochs,
        total_requests: fleet.count,
        total_goodput,
        total_wasted,
        total_shed,
        total_energy_j,
        total_power_w,
        fleet_p50_ms: ms(fleet.p50_ns),
        fleet_p95_ms: ms(fleet.p95_ns),
        fleet_p99_ms: ms(fleet.p99_ns),
        fleet_timeout_rate: fleet.timeout_rate(),
        fleet_peak_queue_depth: peak_queue_depth,
        per_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(nodes: usize, balancer: BalancerPolicy) -> FleetSpec {
        // App::Masstree is the 8-thread app — cheapest node.
        FleetSpec::uniform(App::Masstree, nodes, balancer, 11, 0.4, 3)
    }

    fn run_with(spec: &FleetSpec, policy: &TrainedPolicy, run: FleetRun) -> FleetOutput {
        run_fleet_with(spec, &[policy], &run)
    }

    fn threaded(spec: &FleetSpec, policy: &TrainedPolicy, threads: usize) -> FleetResult {
        let run = FleetRun {
            threads,
            ..FleetRun::default()
        };
        run_with(spec, policy, run).result
    }

    fn monitored_full(
        spec: &FleetSpec,
        policy: &TrainedPolicy,
        threads: usize,
        cfg: MonitorConfig,
    ) -> (FleetResult, FleetMonitor) {
        let run = FleetRun {
            threads,
            observe: FleetObserve::Monitor(cfg),
            ..FleetRun::default()
        };
        let out = run_with(spec, policy, run);
        (out.result, out.monitor.unwrap())
    }

    #[test]
    fn fleet_conserves_requests_end_to_end() {
        for balancer in BalancerPolicy::all() {
            let spec = small_spec(3, balancer);
            let policy = untrained_policy(spec.app, 5);
            let generated = fleet_arrivals(&spec).len() as u64;
            let res = run_fleet(&spec, &policy);
            assert_eq!(
                res.total_requests, generated,
                "{balancer:?}: fleet dropped or duplicated requests"
            );
            for node in &res.per_node {
                assert_eq!(
                    node.requests, node.assigned,
                    "{balancer:?}: node {} completed {} of {} assigned",
                    node.node, node.requests, node.assigned
                );
            }
            assert!(res.drl_epochs > 0);
            assert!(res.total_energy_j > 0.0);
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let spec = small_spec(2, BalancerPolicy::JoinShortestQueue);
        let policy = untrained_policy(spec.app, 7);
        let a = run_fleet(&spec, &policy).to_json();
        let b = run_fleet(&spec, &policy).to_json();
        assert_eq!(a, b, "same spec + policy must reproduce byte-identically");
    }

    #[test]
    fn batched_and_unbatched_fleets_agree() {
        // The whole point of the batched path: same floats, fewer
        // forward passes. Any drift here means act_batch_rows is no longer
        // bit-faithful to act.
        let spec = small_spec(4, BalancerPolicy::RoundRobin);
        let policy = untrained_policy(spec.app, 3);
        let batched = run_fleet(&spec, &policy).to_json();
        let per_node = FleetRun {
            per_node_act: true,
            ..FleetRun::default()
        };
        let reference = run_with(&spec, &policy, per_node).result.to_json();
        assert_eq!(batched, reference);
    }

    #[test]
    fn profiled_fleet_is_byte_identical_and_captures_epoch_spans() {
        let spec = small_spec(2, BalancerPolicy::JoinShortestQueue);
        let policy = untrained_policy(spec.app, 7);
        let plain = run_fleet(&spec, &policy).to_json();
        let prof = Profiler::enabled();
        let run = FleetRun {
            profiler: prof.clone(),
            ..FleetRun::default()
        };
        let profiled = run_with(&spec, &policy, run).result.to_json();
        assert_eq!(plain, profiled, "profiling perturbed the fleet result");

        let rows = prof.phase_table();
        let count = |n: &str| rows.iter().find(|r| r.name == n).map_or(0, |r| r.count);
        assert_eq!(count("fleet.balance"), 1);
        assert_eq!(count("fleet.merge"), 1);
        assert!(count("fleet.batch_act") > 0);
        assert_eq!(count("fleet.batch_act"), count("fleet.advance"));
        // Node-engine spans nest inside fleet.advance/fleet.merge, so
        // they carry no root time of their own.
        let tick = rows.iter().find(|r| r.name == "engine.tick").unwrap();
        assert!(tick.count > 0);
        assert_eq!(tick.root_ns, 0);
    }

    #[test]
    fn threaded_fleet_is_byte_identical_at_any_thread_count() {
        // The acceptance bar for the parallel driver: not "close", not
        // "statistically equal" — the same bytes as the serial engine,
        // regardless of how nodes land on workers.
        let spec = small_spec(4, BalancerPolicy::JoinShortestQueue);
        let policy = untrained_policy(spec.app, 13);
        let serial = run_fleet(&spec, &policy).to_json();
        for threads in [1usize, 2, 8] {
            let parallel = threaded(&spec, &policy, threads).to_json();
            assert_eq!(serial, parallel, "--threads {threads} diverged from serial");
        }
    }

    #[test]
    fn uniform_fleet_reproduces_pinned_pre_profile_baseline() {
        // Result anchors captured on the homogeneous fleet *before* the
        // heterogeneous-profile refactor: exact bit patterns, not
        // tolerances. The refactor threads capacity weights through the
        // balancer and a coordinator through inference, all of which
        // must reduce to IEEE identities (×1.0, ÷1.0, one group) on a
        // uniform fleet — any drift here means a calibrated seed
        // re-rolled.
        let policy = untrained_policy(App::Masstree, 5);
        let cases: [(BalancerPolicy, u64, u64, [u64; 3]); 3] = [
            (
                BalancerPolicy::RoundRobin,
                0x407352ff40fbfd84,
                0x3fd172a38b8ae31d,
                [94343, 94343, 94342],
            ),
            (
                BalancerPolicy::JoinShortestQueue,
                0x407351e15a2df2e9,
                0x3fd1292817763e4b,
                [94716, 93509, 94803],
            ),
            (
                BalancerPolicy::PowerAware,
                0x407369d3c696804d,
                0x3fd18b86b15f88fd,
                [105933, 100718, 76377],
            ),
        ];
        for (balancer, energy_bits, p99_bits, assigned) in cases {
            let res = run_fleet(&small_spec(3, balancer), &policy);
            assert_eq!(res.total_requests, 283028, "{balancer:?}: trace drifted");
            assert_eq!(
                res.total_energy_j.to_bits(),
                energy_bits,
                "{balancer:?}: energy drifted from the pre-profile baseline"
            );
            assert_eq!(
                res.fleet_p99_ms.to_bits(),
                p99_bits,
                "{balancer:?}: p99 drifted from the pre-profile baseline"
            );
            let got: Vec<u64> = res.per_node.iter().map(|n| n.assigned).collect();
            assert_eq!(got, assigned, "{balancer:?}: balancer split drifted");
            if balancer == BalancerPolicy::RoundRobin {
                assert_eq!(res.drl_epochs, 4, "epoch grid drifted");
            }
        }
    }

    #[test]
    fn single_profile_fleet_is_byte_identical_to_uniform_spec() {
        // A one-profile fleet of paper-default nodes is the homogeneous
        // fleet, down to the last byte: same configs, same capacities,
        // same single coordinator group.
        let policy = untrained_policy(App::Masstree, 7);
        let uniform = small_spec(3, BalancerPolicy::JoinShortestQueue);
        let profiled = uniform
            .clone()
            .with_profiles(vec![NodeProfile::paper_default(8, 3)]);
        assert_eq!(profiled.nodes, 3);
        assert_eq!(
            run_fleet(&uniform, &policy).to_json(),
            run_fleet(&profiled, &policy).to_json(),
            "one-profile fleet diverged from the profile-free spec"
        );
    }

    #[test]
    fn mixed_profile_fleet_is_byte_identical_at_any_thread_count() {
        // The acceptance fleet: 4 one-core edge boxes (capped DVFS
        // range) next to 2 four-core nodes with big.LITTLE core caps.
        // Same bar as the homogeneous driver: byte-identity between the
        // serial and threaded drivers at any thread count.
        let spec = small_spec(0, BalancerPolicy::PowerAware).with_profiles(vec![
            NodeProfile {
                name: "edge-1c".into(),
                max_mhz: 1500,
                ..NodeProfile::paper_default(1, 4)
            },
            NodeProfile {
                name: "quad-biglittle".into(),
                little_cores: 2,
                little_max_mhz: 1100,
                ..NodeProfile::paper_default(4, 2)
            },
        ]);
        assert_eq!(spec.nodes, 6);
        let policy = untrained_policy(spec.app, 13);
        let serial = run_fleet(&spec, &policy);
        let generated = fleet_arrivals(&spec).len() as u64;
        assert_eq!(
            serial.total_requests, generated,
            "mixed fleet dropped or duplicated requests"
        );
        let names: Vec<&str> = serial.per_node.iter().map(|n| n.profile.as_str()).collect();
        assert_eq!(
            names,
            [
                "edge-1c",
                "edge-1c",
                "edge-1c",
                "edge-1c",
                "quad-biglittle",
                "quad-biglittle"
            ]
        );
        let serial = serial.to_json();
        for threads in [1usize, 2, 8] {
            let parallel = threaded(&spec, &policy, threads).to_json();
            assert_eq!(serial, parallel, "--threads {threads} diverged from serial");
        }
    }

    #[test]
    fn hier_fleet_runs_per_group_policies_byte_identically_threaded() {
        // Hierarchical control: each profile group steered by its own
        // policy, same serial/threaded byte-identity bar — and the
        // second group's weights must actually reach its nodes. The two
        // groups run identical paper-default hardware at moderate load
        // (the regime where controller params demonstrably change the
        // result), so any divergence from the shared-policy run can
        // only come from per-group policy attribution.
        let spec = small_spec(0, BalancerPolicy::JoinShortestQueue).with_profiles(vec![
            NodeProfile {
                name: "rack-a".into(),
                ..NodeProfile::paper_default(8, 2)
            },
            NodeProfile {
                name: "rack-b".into(),
                ..NodeProfile::paper_default(8, 2)
            },
        ]);
        let policies = [
            untrained_policy(spec.app, 17),
            untrained_policy(spec.app, 23),
        ];
        let hier = |threads| {
            let run = FleetRun {
                threads,
                ..FleetRun::default()
            };
            run_fleet_with(&spec, &[&policies[0], &policies[1]], &run).result
        };
        let serial = hier(1);
        assert_eq!(serial.per_node.len(), 4);
        let serial_json = serial.to_json();
        for threads in [2usize, 4] {
            assert_eq!(
                serial_json,
                hier(threads).to_json(),
                "hier --threads {threads} diverged from serial"
            );
        }
        let shared = run_fleet(&spec, &policies[0]).to_json();
        assert_ne!(
            serial_json, shared,
            "second group's policy had no effect on the fleet"
        );
    }

    #[test]
    fn fleet_peak_queue_depth_merges_by_max_not_last_write() {
        // Satellite of the gauge-merge bugfix: the fleet-level peak is
        // the deepest any node got, not whichever node merged last.
        let spec = small_spec(3, BalancerPolicy::JoinShortestQueue);
        let res = run_fleet(&spec, &untrained_policy(spec.app, 5));
        let max = res
            .per_node
            .iter()
            .map(|n| n.peak_queue_depth)
            .max()
            .unwrap();
        assert!(max > 0, "no node ever queued");
        assert_eq!(res.fleet_peak_queue_depth, max);
    }

    #[test]
    fn profiled_threaded_fleet_is_byte_identical() {
        // Profiler span stacks are per-thread; turning profiling on
        // under the parallel driver must not change a single byte.
        let spec = small_spec(4, BalancerPolicy::RoundRobin);
        let policy = untrained_policy(spec.app, 5);
        let plain = threaded(&spec, &policy, 2).to_json();
        let prof = Profiler::enabled();
        let run = FleetRun {
            threads: 2,
            profiler: prof.clone(),
            ..FleetRun::default()
        };
        let profiled = run_with(&spec, &policy, run).result.to_json();
        assert_eq!(plain, profiled, "profiling perturbed the parallel fleet");
        let rows = prof.phase_table();
        let count = |n: &str| rows.iter().find(|r| r.name == n).map_or(0, |r| r.count);
        assert_eq!(count("fleet.balance"), 1);
        assert_eq!(count("fleet.merge"), 1);
        assert!(count("fleet.batch_act") > 0);
        // Two workers each open one advance span per epoch.
        assert_eq!(count("fleet.advance"), 2 * count("fleet.batch_act"));
    }

    #[test]
    fn overloaded_fleet_is_byte_identical_at_any_thread_count() {
        // Satellite of the overload work: the closed-loop client layer
        // (bounded queues, abandonment, seeded retries) must preserve
        // the serial/threaded byte-identity bar, and the retry RNG
        // streams must replay bit-identically alongside fault injection.
        let mut spec = small_spec(4, BalancerPolicy::JoinShortestQueue);
        spec.peak_load = 1.3; // past saturation so the overload layer engages
        spec.faults = FaultPlan {
            seed: 21,
            stall_period_ns: 1_000_000_000,
            stall_duration_ns: 300_000_000,
            ..FaultPlan::none()
        };
        spec.overload = OverloadPlan {
            seed: 9,
            queue_capacity: 32,
            client_timeout_ns: 5 * MILLISECOND,
            retry_prob: 0.6,
            max_attempts: 3,
            retry_backoff_ns: 2 * MILLISECOND,
            retry_jitter_ns: 500_000,
            ..OverloadPlan::none()
        };
        let policy = untrained_policy(spec.app, 13);
        let serial = run_fleet(&spec, &policy);
        assert!(
            serial.total_shed > 0 && serial.total_wasted > 0,
            "overload plan never engaged: shed={} wasted={}",
            serial.total_shed,
            serial.total_wasted
        );
        assert!(
            serial.per_node.iter().map(|n| n.retries).sum::<u64>() > 0,
            "no retries fired"
        );
        let serial = serial.to_json();
        for threads in [1usize, 2, 8] {
            let parallel = threaded(&spec, &policy, threads).to_json();
            assert_eq!(serial, parallel, "--threads {threads} diverged from serial");
        }
    }

    #[test]
    fn monitored_fleet_report_is_byte_identical_at_any_thread_count() {
        // Same bar as the threaded driver itself: the health report is
        // a pure function of the per-node event streams, so serial and
        // parallel monitored fleets must agree byte for byte — and
        // monitoring must not perturb the fleet result.
        use deeppower_telemetry::{MonitorConfig, SloSpec};
        let mut spec = small_spec(4, BalancerPolicy::JoinShortestQueue);
        spec.faults = FaultPlan {
            seed: 21,
            stall_period_ns: 1_000_000_000,
            stall_duration_ns: 300_000_000,
            ..FaultPlan::none()
        };
        let policy = untrained_policy(spec.app, 13);
        let cfg = MonitorConfig::with_slo(SloSpec::for_sla_ns("masstree", MILLISECOND));
        let plain = run_fleet(&spec, &policy).to_json();
        let (serial_res, serial_rep) = run_fleet_monitored(&spec, &policy, 1, cfg.clone());
        assert_eq!(
            plain,
            serial_res.to_json(),
            "monitoring perturbed the fleet result"
        );
        assert!(serial_rep.windows > 0, "monitor saw no window rollups");
        let serial_rep = serial_rep.to_json();
        for threads in [2usize, 8] {
            let (res, rep) = run_fleet_monitored(&spec, &policy, threads, cfg.clone());
            assert_eq!(plain, res.to_json(), "--threads {threads} result diverged");
            assert_eq!(
                serial_rep,
                rep.to_json(),
                "--threads {threads} health report diverged from serial"
            );
        }
    }

    #[test]
    fn faulted_fleet_trips_alerts_clean_fleet_stays_healthy() {
        // The health plane's acceptance bar: a fault-injected fleet
        // trips at least one burn-rate alert whose incident timeline
        // names the injected faults, while the identical fault-free
        // fleet produces zero alerts and zero violations.
        use deeppower_telemetry::{BurnRateRule, Event, MonitorConfig, SloSpec};
        let mut spec = FleetSpec::uniform(
            App::Masstree,
            3,
            BalancerPolicy::JoinShortestQueue,
            11,
            0.75,
            6,
        );
        let policy = untrained_policy(spec.app, 5);
        let mut slo = SloSpec::for_sla_ns("masstree", MILLISECOND);
        // Short trailing windows: the run is only six windows long.
        slo.rules = vec![BurnRateRule {
            long_windows: 2,
            short_windows: 1,
            max_burn: 2.0,
        }];
        let cfg = MonitorConfig::with_slo(slo);

        let (_, clean) = run_fleet_monitored(&spec, &policy, 1, cfg.clone());
        assert!(clean.healthy, "fault-free baseline must be healthy");
        assert!(clean.alerts.is_empty());
        assert_eq!(clean.outcomes.iter().map(|o| o.violations).sum::<u64>(), 0);

        spec.faults = FaultPlan {
            seed: 42,
            stall_period_ns: 1_000_000_000,
            stall_duration_ns: 700_000_000,
            ..FaultPlan::none()
        };
        let (_, faulted) = run_fleet_monitored(&spec, &policy, 1, cfg);
        assert!(!faulted.healthy);
        assert!(
            !faulted.alerts.is_empty(),
            "core stalls at 0.75 load must trip a burn-rate alert"
        );
        let alert = &faulted.alerts[0];
        assert!(
            !alert.timeline.is_empty(),
            "alert must carry incident context"
        );
        assert!(
            alert.timeline.iter().any(|e| e.kind == "core-stall"),
            "timeline must name the injected faults"
        );
        assert!(faulted
            .events
            .iter()
            .any(|e| matches!(e, Event::SloViolation(_))));
        assert!(faulted.outcomes.iter().any(|o| o.violations > 0));
    }

    #[test]
    fn traced_collapse_fleet_is_unperturbed_and_alerts_carry_exemplars() {
        // The tracing acceptance bar: a collapse-regime fleet run with
        // request tracing on is byte-identical to tracing off (fleet
        // results) and to itself at any thread count (traces + health
        // report), and the goodput alert's incident timeline names at
        // least one tail-exemplar trace id whose flight-recorded retry
        // chain shows the shed/backoff spans.
        use deeppower_telemetry::{BurnRateRule, MonitorConfig, SloSpec, SPAN_BACKOFF, SPAN_SHED};
        let sla = MILLISECOND;
        let mut spec = FleetSpec::uniform(
            App::Masstree,
            3,
            BalancerPolicy::JoinShortestQueue,
            11,
            0.9,
            6,
        );
        // The harness's `collapse` scenario knobs: tight queue, short
        // deadlines, near-certain retries.
        spec.overload = OverloadPlan {
            seed: 42,
            queue_capacity: 64,
            client_timeout_ns: 2 * sla,
            retry_prob: 0.95,
            max_attempts: 5,
            retry_backoff_ns: sla / 2,
            retry_jitter_ns: (sla / 4).max(1),
            ..OverloadPlan::none()
        };
        let policy = untrained_policy(spec.app, 5);
        // Goodput floor 0.9 with a single-window burn-rate rule at
        // 1.5: the alert fires the moment one window delivers less
        // than 85% useful completions — the collapse signature.
        let mut slo = SloSpec::for_sla_ns("masstree", sla);
        slo.goodput_ratio = 0.9;
        slo.rules = vec![BurnRateRule {
            long_windows: 1,
            short_windows: 1,
            max_burn: 1.5,
        }];
        let cfg = MonitorConfig::with_slo(slo);

        let (off_res, _) = run_fleet_monitored(&spec, &policy, 1, cfg.clone());

        spec.rtrace = TracePlan::sampled(0.05, 2, 7);
        let (on_res, mon) = monitored_full(&spec, &policy, 1, cfg.clone());
        assert_eq!(
            off_res.to_json(),
            on_res.to_json(),
            "tracing perturbed the fleet result"
        );

        let rep = mon.finish();
        assert!(
            rep.alerts.iter().any(|a| a.metric == "goodput"),
            "collapse plan must trip a goodput alert: {}",
            rep.render_incident_log()
        );
        let alert = rep.alerts.iter().find(|a| a.metric == "goodput").unwrap();
        let exemplar_entries: Vec<_> = alert
            .timeline
            .iter()
            .filter(|e| e.kind == "tail-exemplar")
            .collect();
        assert!(
            !exemplar_entries.is_empty(),
            "goodput alert timeline carries no tail-exemplar trace ids"
        );
        // Every exemplar id the timeline names resolves to a flight-
        // recorded trace, and at least one is a retry chain whose
        // spans show the shed → backoff ladder.
        let flight = mon.flight();
        assert!(!flight.is_empty(), "flight recorder captured nothing");
        let traces = flight.all();
        let named: Vec<&deeppower_telemetry::RequestTrace> = exemplar_entries
            .iter()
            .flat_map(|e| {
                e.detail
                    .trim_start_matches("trace ids [")
                    .trim_end_matches(']')
                    .split(", ")
                    .filter_map(|s| s.parse::<u64>().ok())
                    .collect::<Vec<_>>()
            })
            .filter_map(|id| {
                traces
                    .iter()
                    .find(|(_, _, t)| t.client == id)
                    .map(|(_, _, t)| *t)
            })
            .collect();
        assert!(
            !named.is_empty(),
            "no timeline exemplar id resolves to a flight-recorded trace"
        );
        assert!(
            traces.iter().any(|(_, _, t)| t.attempts.len() > 1
                && t.span_total_ns(SPAN_BACKOFF) > 0
                && t.spans_named(SPAN_SHED).count() > 0),
            "flight recorder holds no retry chain with shed + backoff spans"
        );

        // Thread-count identity: results, health report, and the
        // flight-recorded traces themselves.
        let serial_rep = rep.to_json();
        for threads in [2usize, 8] {
            let (res_t, mon_t) = monitored_full(&spec, &policy, threads, cfg.clone());
            assert_eq!(
                on_res.to_json(),
                res_t.to_json(),
                "--threads {threads} result diverged"
            );
            assert_eq!(
                mon.flight().all(),
                mon_t.flight().all(),
                "--threads {threads} traces diverged from serial"
            );
            assert_eq!(
                serial_rep,
                mon_t.finish().to_json(),
                "--threads {threads} health report diverged"
            );
        }
    }

    #[test]
    fn per_node_recorders_capture_disjoint_streams() {
        let spec = small_spec(2, BalancerPolicy::RoundRobin);
        let policy = untrained_policy(spec.app, 9);
        let run = FleetRun {
            observe: FleetObserve::Events { ring: 1 << 14 },
            ..FleetRun::default()
        };
        let out = run_with(&spec, &policy, run);
        let res = out.result;
        let events: Vec<_> = out.events.into_iter().map(|(e, _)| e).collect();
        assert!(
            events.iter().all(|e| !e.is_empty()),
            "both nodes must emit telemetry"
        );
        // Node streams are per-node: each stream's dispatch events
        // reference only requests the balancer routed to that node.
        assert!(res.per_node.iter().all(|n| n.requests > 0));
    }
}
