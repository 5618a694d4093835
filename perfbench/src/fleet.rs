//! The two fleet workloads: `fleet8_diurnal` (8 uniform nodes, open
//! loop) and `storm_monitored` (a mixed fleet under a retry storm, with
//! the health monitor and request tracing on).
//!
//! The timed run calls the public entry point. The traced run re-drives
//! the same lockstep loop from public pieces with a probe around each
//! layer call, and counts only if it reproduces the entry point's
//! per-node results bit for bit.

use crate::probe::{self, Layer};
use crate::{fnv, Check, Outcome};
use deeppower_core::{ControllerParams, StateObserver, ThreadController, TrainedPolicy, STATE_DIM};
use deeppower_fleet::{
    fleet_arrivals, node_profile_indices, run_fleet, run_fleet_monitored, split_arrivals,
    untrained_policy, BalancerPolicy, Coordinator, FleetResult, FleetSpec, NodeProfile,
};
use deeppower_harness::overload_scenarios;
use deeppower_nn::Matrix;
use deeppower_simd_server::{
    FreqCommands, Governor, LatencyStats, RequestRecord, RunOptions, Server, ServerView, Session,
    MILLISECOND,
};
use deeppower_telemetry::{
    Event, FleetMonitor, HealthReport, MonitorConfig, MonitorSink, Recorder, SloSpec,
    TelemetrySink, TracePlan,
};
use deeppower_workload::{App, AppSpec};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// One fleet workload, ready to run.
pub struct FleetBench {
    pub spec: FleetSpec,
    pub policy: TrainedPolicy,
    /// `Some` runs the fleet through `run_fleet_monitored`.
    pub monitor: Option<MonitorConfig>,
    /// Size of the generated fleet arrival stream.
    pub arrivals: u64,
}

/// `fleet8_diurnal`: the reference fleet run.
pub fn fleet8(seed: u64, duration_s: u64) -> FleetBench {
    let spec = FleetSpec::uniform(
        App::Masstree,
        8,
        BalancerPolicy::RoundRobin,
        seed,
        0.4,
        duration_s,
    );
    prepare(spec, seed, None)
}

/// `storm_monitored`: 4 one-core edge nodes and 2 quad-core nodes under
/// power-aware balancing and the `retry-storm` overload plan, monitored
/// against the Masstree SLA and traced at 1 % plus 2 exemplars.
pub fn storm(seed: u64, duration_s: u64) -> FleetBench {
    let app = AppSpec::get(App::Masstree);
    let mut spec = FleetSpec::uniform(
        App::Masstree,
        0,
        BalancerPolicy::PowerAware,
        seed,
        0.3,
        duration_s,
    )
    .with_profiles(vec![
        NodeProfile {
            name: "edge-1c".into(),
            max_mhz: 1500,
            ..NodeProfile::paper_default(1, 4)
        },
        NodeProfile {
            name: "quad".into(),
            ..NodeProfile::paper_default(4, 2)
        },
    ]);
    spec.overload = overload_scenarios(seed, app.sla)
        .into_iter()
        .find(|(name, _)| *name == "retry-storm")
        .map(|(_, plan)| plan)
        .expect("the harness defines the retry-storm scenario");
    spec.rtrace = TracePlan::sampled(0.01, 2, seed);
    let monitor = MonitorConfig::with_slo(SloSpec::for_sla_ns(app.name, app.sla));
    prepare(spec, seed, Some(monitor))
}

fn prepare(spec: FleetSpec, seed: u64, monitor: Option<MonitorConfig>) -> FleetBench {
    let policy = untrained_policy(spec.app, seed);
    let arrivals = fleet_arrivals(&spec).len() as u64;
    FleetBench {
        spec,
        policy,
        monitor,
        arrivals,
    }
}

/// What the public entry point returned.
pub struct PublicRun {
    pub result: FleetResult,
    pub health: Option<HealthReport>,
}

impl FleetBench {
    /// One run through the public entry point on the serial driver.
    pub fn run(&self) -> PublicRun {
        self.run_threads(1)
    }

    pub fn run_threads(&self, threads: usize) -> PublicRun {
        match &self.monitor {
            None if threads == 1 => PublicRun {
                result: run_fleet(&self.spec, &self.policy),
                health: None,
            },
            None => unreachable!("only the monitored fleet runs threaded"),
            Some(cfg) => {
                let (result, health) =
                    run_fleet_monitored(&self.spec, &self.policy, threads, cfg.clone());
                PublicRun {
                    result,
                    health: Some(health),
                }
            }
        }
    }

    /// Output checks on one public run.
    pub fn check(&self, run: &PublicRun) -> Check {
        let r = &run.result;
        let mut c = Check::default();
        let assigned: u64 = r.per_node.iter().map(|n| n.assigned).sum();
        c.require(
            assigned == self.arrivals,
            format!("balancer assigned {assigned} of {} arrivals", self.arrivals),
        );
        if self.spec.overload.is_active() {
            c.require(
                r.total_goodput + r.total_wasted == r.total_requests,
                format!(
                    "goodput {} + wasted {} != completions {}",
                    r.total_goodput, r.total_wasted, r.total_requests
                ),
            );
        } else {
            c.require(
                r.total_requests == assigned,
                format!("{} completions of {assigned} assigned", r.total_requests),
            );
            for n in &r.per_node {
                c.require(
                    n.requests == n.assigned,
                    format!("node {} completed {} of {}", n.node, n.requests, n.assigned),
                );
            }
        }
        c.require(r.drl_epochs > 0, "no fleet epochs ran".into());
        c.require(
            r.fleet_p99_ms.is_finite() && r.total_power_w > 0.0,
            "non-finite p99 or no power".into(),
        );
        c
    }

    /// Everything the timed run reports, plus a fingerprint of the full
    /// output for the run-to-run identity check.
    pub fn outcome(&self, run: &PublicRun) -> Outcome {
        let r = &run.result;
        let offered = r.total_goodput + r.total_wasted + r.total_shed;
        let health = run.health.as_ref().map(HealthReport::to_json);
        Outcome {
            requests: r.total_requests + r.total_shed,
            p99_ms: r.fleet_p99_ms,
            power_w: r.total_power_w,
            goodput_frac: r.total_goodput as f64 / offered.max(1) as f64,
            fingerprint: fnv(r.to_json().as_bytes()) ^ fnv(health.unwrap_or_default().as_bytes()),
            check: self.check(run),
        }
    }
}

/// Node-side governor of the re-driven fleet: Algorithm 1 with the
/// parameters the lockstep loop writes each epoch, every tick timed.
struct NodeGovernor {
    params: Rc<Cell<ControllerParams>>,
}

impl Governor for NodeGovernor {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        probe::tick(|| ThreadController::new(self.params.get()).scale_all(view, cmds));
    }

    fn name(&self) -> &str {
        "fleet-thread-controller"
    }
}

/// A node's monitor sink with every event timed.
struct TimedSink(MonitorSink);

impl TelemetrySink for TimedSink {
    fn record(&mut self, event: Event) {
        probe::scope(Layer::Telemetry, || self.0.record(event));
    }
}

/// What the traced re-drive produced, in the terms the checks compare.
pub struct Redrive {
    pub nodes: Vec<deeppower_simd_server::SimResult>,
    pub assigned: Vec<u64>,
    pub epochs: u64,
    pub fleet_p99_ns: u64,
    pub health: Option<HealthReport>,
}

impl FleetBench {
    /// Re-drive the serial lockstep loop of `run_fleet` /
    /// `run_fleet_monitored(.., 1, ..)` from public pieces, with a probe
    /// around each layer call.
    pub fn redrive(&self) -> Redrive {
        let spec = &self.spec;
        let n = spec.nodes;
        let group_of = if spec.profiles.is_empty() {
            vec![0; n]
        } else {
            node_profile_indices(&spec.profiles)
        };
        let servers: Vec<Server> = spec.group_configs().into_iter().map(Server::new).collect();
        let arrivals = probe::scope(Layer::Workload, || fleet_arrivals(spec));
        let streams = probe::scope(Layer::Balancer, || {
            split_arrivals(&arrivals, &spec.capacities(), spec.balancer)
        });
        let assigned: Vec<u64> = streams.iter().map(|s| s.len() as u64).collect();

        let policies: Vec<&TrainedPolicy> = spec.groups().iter().map(|_| &self.policy).collect();
        let mut coordinator = Coordinator::new(spec.groups(), &policies);
        let monitor = self
            .monitor
            .as_ref()
            .map(|cfg| Rc::new(RefCell::new(FleetMonitor::new(cfg.clone()))));
        let recs: Vec<Recorder> = (0..n)
            .map(|i| match &monitor {
                Some(m) => Recorder::with_sink(Box::new(TimedSink(MonitorSink::new(
                    Rc::clone(m),
                    i as u64,
                )))),
                None => Recorder::disabled(),
            })
            .collect();
        let cells: Vec<Rc<Cell<ControllerParams>>> = (0..n)
            .map(|_| Rc::new(Cell::new(ControllerParams::default())))
            .collect();
        let mut govs: Vec<NodeGovernor> = cells
            .iter()
            .map(|c| NodeGovernor {
                params: Rc::clone(c),
            })
            .collect();
        // Per-node options exactly as the fleet driver builds them: a
        // shared tick grid, and fault / overload seeds and the trace
        // origin offset by the node index.
        let base = RunOptions {
            tick_ns: self.policy.deeppower.short_time,
            ..Default::default()
        };
        let mut sessions: Vec<Session<'_>> = govs
            .iter_mut()
            .zip(&streams)
            .zip(&recs)
            .enumerate()
            .map(|(i, ((gov, stream), rec))| {
                let mut opts = base;
                opts.faults = spec.faults;
                opts.faults.seed = spec.faults.seed.wrapping_add(i as u64);
                opts.overload = spec.overload;
                opts.overload.seed = spec.overload.seed.wrapping_add(i as u64);
                opts.rtrace = spec.rtrace;
                opts.rtrace.node = i as u64;
                servers[group_of[i]].session(stream, gov as &mut dyn Governor, opts, rec)
            })
            .collect();
        let mut observers: Vec<StateObserver> = (0..n)
            .map(|_| StateObserver::new(self.policy.deeppower.state_norm))
            .collect();
        let mut states = Matrix::zeros(n, STATE_DIM);
        let mut actions = vec![ControllerParams::default(); n];

        let long = self.policy.deeppower.long_time.max(1);
        let mut epochs = 0u64;
        loop {
            probe::scope(Layer::Observe, || {
                for (i, (observer, session)) in observers.iter_mut().zip(&sessions).enumerate() {
                    let s = session.with_view(|v| observer.observe(v));
                    states.set_row(i, &s);
                }
            });
            probe::scope(Layer::Act, || coordinator.act(&states, &mut actions));
            for (cell, a) in cells.iter().zip(&actions) {
                cell.set(*a);
            }
            epochs += 1;
            let t_stop = epochs.saturating_mul(long);
            let all_done = probe::scope(Layer::Engine, || {
                let mut all_done = true;
                for session in sessions.iter_mut() {
                    all_done &= session.advance_until(t_stop);
                }
                all_done
            });
            if all_done {
                break;
            }
        }
        let mut nodes: Vec<_> = probe::scope(Layer::EngineFinish, || {
            sessions.into_iter().map(Session::finish).collect()
        });
        drop(recs);
        let health = monitor.map(|m| {
            let m = Rc::try_unwrap(m)
                .unwrap_or_else(|_| unreachable!("sessions and recorders are gone"))
                .into_inner();
            probe::scope(Layer::TelemetryFinish, || m.finish())
        });

        // Fleet-result assembly has no public entry point; merging the
        // records here keeps its cost inside the traced wall time, in
        // the unaccounted remainder, and lets the fleet p99 be checked.
        let mut merged: Vec<RequestRecord> = Vec::new();
        for node in &mut nodes {
            merged.append(&mut node.records);
        }
        let fleet_p99_ns = LatencyStats::from_records(&merged).p99_ns;
        Redrive {
            nodes,
            assigned,
            epochs,
            fleet_p99_ns,
            health,
        }
    }

    /// The traced re-drive must reproduce the public entry point's
    /// per-node energy, completions and p99 (and overload counters,
    /// epochs, fleet p99 and health report) exactly.
    pub fn check_redrive(&self, public: &PublicRun, traced: &Redrive) -> Check {
        let mut c = Check::default();
        let r = &public.result;
        let ms = |ns: u64| ns as f64 / MILLISECOND as f64;
        c.require(
            traced.nodes.len() == r.per_node.len(),
            "node count differs".into(),
        );
        for (node, (sim, want)) in traced.nodes.iter().zip(&r.per_node).enumerate() {
            let same = sim.energy_j.to_bits() == want.energy_j.to_bits()
                && sim.stats.count == want.requests
                && ms(sim.stats.p99_ns).to_bits() == want.p99_ms.to_bits()
                && traced.assigned[node] == want.assigned
                && (sim.goodput, sim.wasted, sim.shed, sim.retries)
                    == (want.goodput, want.wasted, want.shed, want.retries);
            c.require(same, format!("traced node {node} differs from run_fleet"));
        }
        c.require(
            traced.epochs == r.drl_epochs,
            format!(
                "traced {} epochs, run_fleet {}",
                traced.epochs, r.drl_epochs
            ),
        );
        c.require(
            ms(traced.fleet_p99_ns).to_bits() == r.fleet_p99_ms.to_bits(),
            "traced fleet p99 differs".into(),
        );
        c.require(
            traced.health.as_ref().map(HealthReport::to_json)
                == public.health.as_ref().map(HealthReport::to_json),
            "traced health report differs".into(),
        );
        c
    }
}
