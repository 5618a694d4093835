//! Streamed arrivals against pre-generated slices. Training, evaluation
//! and the fleet driver pull their arrivals from a producer thread; the
//! result must be bit for bit that of the same engine sessions run over
//! the whole stream generated (and split) up front.

use deeppower_core::train::{server_for, trace_for};
use deeppower_core::{
    evaluate, train, ControllerParams, DeepPowerGovernor, Mode, StateObserver, ThreadController,
    TrainConfig, TrainedPolicy, STATE_DIM,
};
use deeppower_drl::{Ddpg, DdpgConfig};
use deeppower_fleet::{
    fleet_arrivals, node_profile_indices, run_fleet_with, split_arrivals, untrained_policy,
    BalancerPolicy, Coordinator, FleetObserve, FleetOutput, FleetRun, FleetSpec, NodeProfile,
};
use deeppower_harness::overload_scenarios;
use deeppower_nn::Matrix;
use deeppower_suite::sim::{
    arrival_feed, FeedArrivals, FixedFrequency, FreqCommands, Governor, Request, RunOptions,
    Server, ServerConfig, ServerView, Session, SimResult, TraceConfig, MILLISECOND, SECOND,
};
use deeppower_suite::workload::{trace_arrivals, App, AppSpec, ArrivalStream, DiurnalTrace};
use deeppower_telemetry::{
    FleetMonitor, HealthReport, MonitorConfig, MonitorSink, Recorder, SloSpec, TracePlan,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Algorithm 1 under the parameters the lockstep loop writes each epoch.
struct NodeGovernor(Rc<Cell<ControllerParams>>);

impl Governor for NodeGovernor {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        ThreadController::new(self.0.get()).scale_all(view, cmds);
    }

    fn name(&self) -> &str {
        "node"
    }
}

/// What the slice-driven re-drive of a fleet produced.
struct SliceFleet {
    nodes: Vec<SimResult>,
    assigned: Vec<u64>,
    epochs: u64,
    health: Option<HealthReport>,
}

/// The fleet driver's serial lockstep loop from public pieces, over
/// node streams split up front from the whole fleet stream.
fn slice_fleet(
    spec: &FleetSpec,
    policy: &TrainedPolicy,
    monitor: Option<&MonitorConfig>,
) -> SliceFleet {
    let n = spec.nodes;
    let group_of = if spec.profiles.is_empty() {
        vec![0; n]
    } else {
        node_profile_indices(&spec.profiles)
    };
    let servers: Vec<Server> = spec.group_configs().into_iter().map(Server::new).collect();
    let streams = split_arrivals(&fleet_arrivals(spec), &spec.capacities(), spec.balancer);
    let assigned = streams.iter().map(|s| s.len() as u64).collect();

    let policies: Vec<&TrainedPolicy> = spec.groups().iter().map(|_| policy).collect();
    let mut coordinator = Coordinator::new(spec.groups(), &policies);
    let fleet_monitor = monitor.map(|cfg| Rc::new(RefCell::new(FleetMonitor::new(cfg.clone()))));
    let recs: Vec<Recorder> = (0..n)
        .map(|i| match &fleet_monitor {
            Some(m) => Recorder::with_sink(Box::new(MonitorSink::new(Rc::clone(m), i as u64))),
            None => Recorder::disabled(),
        })
        .collect();
    let cells: Vec<Rc<Cell<ControllerParams>>> = (0..n).map(|_| Rc::default()).collect();
    let mut govs: Vec<NodeGovernor> = cells.iter().map(|c| NodeGovernor(Rc::clone(c))).collect();
    let mut sessions: Vec<Session<'_>> = govs
        .iter_mut()
        .zip(&streams)
        .zip(&recs)
        .enumerate()
        .map(|(i, ((gov, stream), rec))| {
            let mut opts = RunOptions {
                tick_ns: policy.deeppower.short_time,
                faults: spec.faults,
                overload: spec.overload,
                rtrace: spec.rtrace,
                ..Default::default()
            };
            opts.faults.seed = spec.faults.seed.wrapping_add(i as u64);
            opts.overload.seed = spec.overload.seed.wrapping_add(i as u64);
            opts.rtrace.node = i as u64;
            servers[group_of[i]].session(stream, gov as &mut dyn Governor, opts, rec)
        })
        .collect();
    let mut observers: Vec<StateObserver> = (0..n)
        .map(|_| StateObserver::new(policy.deeppower.state_norm))
        .collect();
    let mut states = Matrix::zeros(n, STATE_DIM);
    let mut actions = vec![ControllerParams::default(); n];
    let long = policy.deeppower.long_time.max(1);
    let mut epochs = 0u64;
    loop {
        for (i, (observer, session)) in observers.iter_mut().zip(&sessions).enumerate() {
            states.set_row(i, &session.with_view(|v| observer.observe(v)));
        }
        coordinator.act(&states, &mut actions);
        for (cell, a) in cells.iter().zip(&actions) {
            cell.set(*a);
        }
        epochs += 1;
        let mut all_done = true;
        for session in &mut sessions {
            all_done &= session.advance_until(epochs * long);
        }
        if all_done {
            break;
        }
    }
    let nodes = sessions.into_iter().map(Session::finish).collect();
    drop(recs);
    let health = fleet_monitor.map(|m| {
        Rc::try_unwrap(m)
            .unwrap_or_else(|_| unreachable!("the sessions and recorders are gone"))
            .into_inner()
            .finish()
    });
    SliceFleet {
        nodes,
        assigned,
        epochs,
        health,
    }
}

fn streamed(
    spec: &FleetSpec,
    policy: &TrainedPolicy,
    threads: usize,
    observe: FleetObserve,
) -> FleetOutput {
    let run = FleetRun {
        threads,
        observe,
        ..FleetRun::default()
    };
    run_fleet_with(spec, &[policy], &run)
}

/// Every per-node figure of the streamed run equals the slice-driven
/// node's, to the bit. `avg_power_w` is energy over the termination
/// instant, so with `energy_j` it pins when each node terminated.
fn assert_matches(label: &str, out: &FleetOutput, want: &SliceFleet) {
    let r = &out.result;
    assert_eq!(r.drl_epochs, want.epochs, "{label}: epochs");
    assert_eq!(r.per_node.len(), want.nodes.len(), "{label}: node count");
    let ms = |ns: u64| ns as f64 / MILLISECOND as f64;
    for (node, (got, sim)) in r.per_node.iter().zip(&want.nodes).enumerate() {
        let same = got.assigned == want.assigned[node]
            && got.energy_j.to_bits() == sim.energy_j.to_bits()
            && got.avg_power_w.to_bits() == sim.avg_power_w.to_bits()
            && got.requests == sim.stats.count
            && got.p99_ms.to_bits() == ms(sim.stats.p99_ns).to_bits()
            && got.freq_transitions == sim.freq_transitions
            && got.peak_queue_depth == sim.peak_queue_depth
            && (got.goodput, got.wasted, got.shed, got.retries)
                == (sim.goodput, sim.wasted, sim.shed, sim.retries);
        assert!(
            same,
            "{label}: node {node} differs from its slice-driven session"
        );
    }
    let health = out.monitor.clone().map(|m| m.finish().to_json());
    assert_eq!(
        health,
        want.health.as_ref().map(HealthReport::to_json),
        "{label}: health report"
    );
}

#[test]
fn streamed_fleets_match_slice_driven_sessions_under_every_balancer() {
    for balancer in BalancerPolicy::all() {
        let spec = FleetSpec::uniform(App::Masstree, 3, balancer, 5, 0.3, 2);
        let policy = untrained_policy(spec.app, 5);
        let want = slice_fleet(&spec, &policy, None);
        for threads in [1, 2] {
            let out = streamed(&spec, &policy, threads, FleetObserve::None);
            assert_matches(
                &format!("{} threads={threads}", balancer.label()),
                &out,
                &want,
            );
        }
    }
}

#[test]
fn a_node_whose_arrivals_end_early_terminates_as_over_its_slice() {
    // Power-aware packing at low load leaves node 2 a few requests in
    // the first second and node 3 none: their streams end long before
    // the fleet's, while their feeds end only when the producer has
    // drawn everything.
    let spec = FleetSpec::uniform(App::Masstree, 4, BalancerPolicy::PowerAware, 1, 0.1, 2);
    let streams = split_arrivals(&fleet_arrivals(&spec), &spec.capacities(), spec.balancer);
    let last = |s: &Vec<Request>| s.last().map(|r| r.arrival);
    let fleet_end = streams.iter().filter_map(last).max().unwrap();
    let early = streams.iter().filter_map(last).min().unwrap();
    assert!(
        early < fleet_end - SECOND / 2,
        "no node's arrivals end early: {early} vs {fleet_end}"
    );
    assert!(streams.iter().any(Vec::is_empty), "every node got arrivals");
    let policy = untrained_policy(spec.app, 1);
    let want = slice_fleet(&spec, &policy, None);
    for threads in [1, 2] {
        let out = streamed(&spec, &policy, threads, FleetObserve::None);
        assert_matches(&format!("early end threads={threads}"), &out, &want);
    }
}

#[test]
fn a_monitored_traced_retry_storm_streams_like_its_slices() {
    let app = AppSpec::get(App::Masstree);
    let mut spec = FleetSpec::uniform(App::Masstree, 0, BalancerPolicy::PowerAware, 9, 0.3, 2)
        .with_profiles(vec![
            NodeProfile {
                name: "edge-1c".into(),
                max_mhz: 1500,
                ..NodeProfile::paper_default(1, 2)
            },
            NodeProfile {
                name: "quad".into(),
                ..NodeProfile::paper_default(4, 1)
            },
        ]);
    spec.overload = overload_scenarios(9, app.sla)
        .into_iter()
        .find(|(name, _)| *name == "retry-storm")
        .map(|(_, plan)| plan)
        .unwrap();
    spec.rtrace = TracePlan::sampled(0.01, 2, 9);
    let cfg = MonitorConfig::with_slo(SloSpec::for_sla_ns(app.name, app.sla));
    let policy = untrained_policy(spec.app, 9);
    let want = slice_fleet(&spec, &policy, Some(&cfg));
    assert!(
        want.nodes.iter().any(|n| n.shed > 0 && n.retries > 0),
        "no storm"
    );
    for threads in [1, 2] {
        let out = streamed(&spec, &policy, threads, FleetObserve::Monitor(cfg.clone()));
        assert_matches(&format!("retry-storm threads={threads}"), &out, &want);
    }
}

#[test]
fn train_and_evaluate_match_a_slice_re_drive() {
    let mut cfg = TrainConfig::for_app(App::Xapian);
    cfg.episodes = 2;
    cfg.episode_s = 8;
    cfg.peak_load = 0.6;
    cfg.seed = 4;
    cfg.deeppower.ddpg.warmup = 4;
    cfg.deeppower.ddpg.batch_size = 8;
    let (policy, report) = train(&cfg);
    assert!(report.updates > 0, "the agent never trained");

    // `train`'s episode loop over arrival slices generated up front.
    let spec = AppSpec::get(cfg.app);
    let server = server_for(&spec);
    let opts = |short_time| RunOptions {
        tick_ns: short_time,
        trace: TraceConfig::default(),
        ..Default::default()
    };
    let mut agent = Ddpg::new(DdpgConfig {
        seed: cfg.seed,
        ..cfg.deeppower.ddpg
    });
    for ep in 0..cfg.episodes {
        let ep_seed = cfg.seed.wrapping_add(1 + ep as u64);
        let trace = trace_for(&spec, cfg.peak_load, cfg.episode_s, ep_seed);
        let arrivals = trace_arrivals(&spec, &trace, ep_seed.wrapping_mul(31).wrapping_add(7));
        let mut gov = DeepPowerGovernor::new(&mut agent, cfg.deeppower, Mode::Train);
        server.run(&arrivals, &mut gov, opts(cfg.deeppower.short_time));
    }
    let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&agent.actor_snapshot()),
        bits(&policy.actor_weights),
        "streamed training diverged from the slice re-drive"
    );

    let (eval_s, seed) = (8, 21u64);
    let got = evaluate(&policy, cfg.peak_load, eval_s, seed, TraceConfig::default()).sim;
    let trace = trace_for(&spec, cfg.peak_load, eval_s, seed);
    let arrivals = trace_arrivals(&spec, &trace, seed.wrapping_mul(131).wrapping_add(17));
    let mut eval_agent = policy.build_agent();
    let mut gov = DeepPowerGovernor::new(&mut eval_agent, policy.deeppower, Mode::Eval);
    let want = server.run(&arrivals, &mut gov, opts(policy.deeppower.short_time));
    assert_eq!(
        got.energy_j.to_bits(),
        want.energy_j.to_bits(),
        "evaluation energy"
    );
    assert_eq!(got.duration_ns, want.duration_ns, "evaluation termination");
    assert_eq!(got.records, want.records, "evaluation records");
}

/// The thinning loop with per-request `sample_request`, as generation
/// was written before it became a stream.
fn per_request_thinning(spec: &AppSpec, trace: &DiurnalTrace, seed: u64) -> Vec<Request> {
    let lambda_max = trace.max_rps();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut id = 0u64;
    loop {
        let u: f64 = 1.0 - rng.random::<f64>();
        t += -u.ln() / (lambda_max / SECOND as f64);
        let arrival = t as u64;
        if arrival >= trace.duration_ns() {
            return out;
        }
        let accept: f64 = rng.random();
        if accept < trace.rps_at(arrival) / lambda_max {
            out.push(spec.sample_request(&mut rng, id, arrival));
            id += 1;
        }
    }
}

#[test]
fn arrival_stream_equals_per_request_generation_on_several_seeds() {
    for (app, seed) in [
        (App::Masstree, 1),
        (App::Xapian, 2),
        (App::Moses, 3),
        (App::ImgDnn, 4),
    ] {
        let spec = AppSpec::get(app);
        let trace = trace_for(&spec, 0.5, 3, seed);
        let want = per_request_thinning(&spec, &trace, seed);
        assert!(want.len() > 100, "{}: too few arrivals", spec.name);
        assert_eq!(trace_arrivals(&spec, &trace, seed), want, "{}", spec.name);
        // Pulled in uneven pieces, the stream is the same stream.
        let mut stream = ArrivalStream::new(&spec, trace, seed);
        let mut got = Vec::new();
        for size in (1..).map(|k| k % 97) {
            let before = got.len();
            got.extend(stream.by_ref().take(size));
            if size > 0 && got.len() == before {
                break;
            }
        }
        assert_eq!(got, want, "{}: resumed stream", spec.name);
    }
}

#[test]
fn a_panicking_producer_surfaces_as_a_panic() {
    // A zero peak load fails inside generation, on the producer thread.
    let spec = FleetSpec::uniform(App::Masstree, 3, BalancerPolicy::RoundRobin, 1, 0.0, 1);
    let policy = untrained_policy(spec.app, 1);
    for threads in [1, 2] {
        let run = catch_unwind(AssertUnwindSafe(|| {
            streamed(&spec, &policy, threads, FleetObserve::None)
        }));
        let payload = run.expect_err("the fleet run must panic");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            msg.contains("load must be positive"),
            "threads={threads}: the producer's panic did not surface: {msg:?}"
        );
    }
}

#[test]
fn a_feed_cut_off_before_its_end_marker_panics_the_session() {
    let server = Server::new(ServerConfig::paper_default(2));
    let req = |id: u64| Request {
        id,
        client_id: id,
        attempt: 0,
        arrival: id * MILLISECOND,
        first_arrival: id * MILLISECOND,
        work_ref_ns: MILLISECOND / 2,
        freq_sensitivity: 1.0,
        sla: 10 * MILLISECOND,
        features: Default::default(),
    };
    let rec = Recorder::disabled();
    let (tx, feed) = arrival_feed(rec.profiler());
    assert!(tx.send((0..5).map(req).collect()));
    drop(tx);
    let mut gov = FixedFrequency { mhz: 2100 };
    let run = catch_unwind(AssertUnwindSafe(|| {
        let session: Session<'_, FeedArrivals> =
            server.stream_session(feed.flatten(), &mut gov, RunOptions::default(), &rec);
        session.finish()
    }));
    assert!(
        run.is_err(),
        "a truncated feed ended the run short instead of panicking"
    );
}
