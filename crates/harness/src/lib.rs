//! Parallel experiment engine for the DeepPower reproduction.
//!
//! The paper's evaluation is a grid: applications × governors × seeds ×
//! load points, every cell an independent simulator rollout. This crate
//! turns that shape into three pieces the CLI and the figure benches
//! share:
//!
//! * [`JobSpec`] / [`grid`] — a declarative description of one rollout
//!   and a combinator that expands the cross product;
//! * [`run_grid`] — a work-stealing parallel runner over OS threads.
//!   Each job carries its own seeds and its own server, so results are
//!   **deterministic and independent of the thread count**: the output
//!   for `--threads 1` and `--threads 8` is byte-identical;
//! * [`summarize`] / [`GridReport`] — aggregation of the per-job
//!   telemetry ([`SimResult`] metrics plus the DRL [`StepLog`] summary)
//!   into per-(app, governor) groups, serializable as JSON.
//!
//! Determinism contract: a [`JobSpec`] fully determines its
//! [`JobResult`]. Workload generation, profiling for the predictor
//! baselines, DDPG training and evaluation all derive their RNG streams
//! from `JobSpec::seed` (or fixed constants), never from global state,
//! wall-clock time or the scheduling order of the worker threads.

use deeppower_baselines::{
    collect_profile, max_freq_governor, GeminiConfig, GeminiGovernor, RetailConfig, RetailGovernor,
};
use deeppower_core::train::trace_for;
use deeppower_core::{
    train, ControllerParams, DeepPowerGovernor, Mode, SafetyConfig, SafetyGovernor, StepLog,
    ThreadController, TrainConfig, TrainedPolicy,
};
use deeppower_fleet::{run_fleet_with, BalancerPolicy, FleetResult, FleetRun, FleetSpec};
use deeppower_simd_server::{
    FaultPlan, FixedFrequency, FreqPlan, Governor, OverloadPlan, Request, RunOptions, Server,
    ServerConfig, SimResult, MILLISECOND, SECOND,
};
use deeppower_telemetry::{
    event, Event, FleetMonitor, MonitorConfig, Recorder, SloSpec, TracePlan,
};
use deeppower_workload::{constant_rate_arrivals, trace_arrivals, App, AppSpec};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Profiling-run parameters for the predictor baselines (ReTail/Gemini):
/// fixed-load fraction, number of profiling episodes, RNG seed. Fixed
/// constants so every grid cell trains its predictors on the same data.
const PROFILE_LOAD: f64 = 0.5;
const PROFILE_EPISODES: u64 = 3;
const PROFILE_SEED: u64 = 77;

/// Ring capacity of the per-job recorder used by [`run_grid_telemetry`].
/// Grid jobs run without request marks or frequency tracing, so their
/// event volume is bounded by DRL steps + training updates + latency
/// snapshots (≈ 3 events per simulated second) plus the bounded
/// residency/lifecycle records — 64 Ki events covers hours of simulated
/// time per job.
pub const GRID_EVENT_CAPACITY: usize = 1 << 16;

/// Which workload drives a job.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Diurnal trace scaled so its peak hits `peak_load` × capacity
    /// (the paper's evaluation workload).
    Diurnal,
    /// Open-loop Poisson arrivals at a constant `peak_load` × capacity
    /// (Table 3's load sweep).
    Constant,
}

/// Which power-management policy runs the job.
///
/// Restricted to named-struct / unit / tuple shapes so the derive
/// serialization covers it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum GovernorSpec {
    /// All cores pinned at max nominal frequency (the unmanaged baseline).
    MaxFreq,
    /// All cores pinned at the given frequency.
    FixedMhz(u32),
    /// Algorithm 1 with fixed `(base_freq, scaling_coef)`.
    ThreadController(f32, f32),
    /// ReTail (linear-regression request-level scaling).
    Retail,
    /// Gemini (NN service-time prediction + boosting).
    Gemini,
    /// A trained DeepPower policy evaluated deterministically.
    DeepPower(TrainedPolicy),
    /// Train a DeepPower agent first (per the embedded config), then
    /// evaluate the resulting policy on the job's workload.
    DeepPowerTrain(TrainConfig),
}

impl GovernorSpec {
    /// Stable label used for grouping and reporting.
    pub fn label(&self) -> String {
        match self {
            GovernorSpec::MaxFreq => "baseline".into(),
            GovernorSpec::FixedMhz(mhz) => format!("fixed-{mhz}"),
            GovernorSpec::ThreadController(_, _) => "thread-controller".into(),
            GovernorSpec::Retail => "retail".into(),
            GovernorSpec::Gemini => "gemini".into(),
            GovernorSpec::DeepPower(_) => "deeppower".into(),
            GovernorSpec::DeepPowerTrain(_) => "deeppower-train".into(),
        }
    }
}

/// One cell of the experiment grid.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobSpec {
    pub app: App,
    pub governor: GovernorSpec,
    /// Master seed: workload generation (and DDPG training, for
    /// [`GovernorSpec::DeepPowerTrain`]) derive from it deterministically.
    pub seed: u64,
    /// Load as a fraction of the app's capacity (peak of the diurnal
    /// trace, or the constant rate).
    pub peak_load: f64,
    /// Workload duration in (simulated) seconds.
    pub duration_s: u64,
    pub workload: WorkloadKind,
    /// Deterministic platform-fault injection for this cell
    /// ([`FaultPlan::none`] = the classic fault-free rollout).
    pub faults: FaultPlan,
    /// Closed-loop client / bounded-queue overload model for this cell
    /// ([`OverloadPlan::none`] = the classic open-loop rollout).
    pub overload: OverloadPlan,
    /// Request-lifecycle tracing plan for this cell
    /// ([`TracePlan::none`] = no traces; tracing never perturbs the
    /// simulation either way).
    #[serde(default)]
    pub rtrace: TracePlan,
    /// Wrap the governor in a [`SafetyGovernor`] (default thresholds).
    /// Reported labels gain a `+safe` suffix.
    pub safety: bool,
}

impl JobSpec {
    /// Reporting label: the governor's own label, `+safe`-suffixed when
    /// the job wraps it in the safety layer.
    pub fn governor_label(&self) -> String {
        let mut label = self.governor.label();
        if self.safety {
            label.push_str("+safe");
        }
        label
    }
}

/// Telemetry of one finished job: the simulator metrics plus a summary of
/// the DRL step log (zeros for non-learning governors).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobResult {
    pub app: String,
    pub governor: String,
    pub seed: u64,
    pub peak_load: f64,
    pub duration_s: u64,
    pub requests: u64,
    pub energy_j: f64,
    pub avg_power_w: f64,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    pub sla_ms: f64,
    pub timeout_rate: f64,
    pub freq_transitions: u64,
    /// DRL steps logged during the run (0 for non-DRL governors).
    pub drl_steps: u64,
    /// Mean per-step reward over the run (0 for non-DRL governors).
    pub mean_reward: f64,
    /// Faults the simulator injected during the run (0 when the job's
    /// [`FaultPlan`] is inactive).
    pub faults_injected: u64,
    /// Completions whose client was still waiting (== `requests` when
    /// the job's [`OverloadPlan`] is inactive).
    pub goodput: u64,
    /// Completions after the client abandoned (wasted work).
    pub wasted: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Retries injected by the closed-loop clients.
    pub retries: u64,
    /// Server busy-time burned on wasted completions, seconds.
    pub wasted_s: f64,
}

impl JobResult {
    fn from_sim(spec: &JobSpec, sim: &SimResult, log: &[StepLog]) -> Self {
        let app_spec = AppSpec::get(spec.app);
        let ms = |ns: u64| ns as f64 / MILLISECOND as f64;
        let s = &sim.stats;
        let drl_steps = log.len() as u64;
        let mean_reward = if log.is_empty() {
            0.0
        } else {
            log.iter().map(|l| l.reward).sum::<f64>() / log.len() as f64
        };
        Self {
            app: app_spec.name.to_string(),
            governor: spec.governor_label(),
            seed: spec.seed,
            peak_load: spec.peak_load,
            duration_s: spec.duration_s,
            requests: s.count,
            energy_j: sim.energy_j,
            avg_power_w: sim.avg_power_w,
            mean_ms: s.mean_ns / MILLISECOND as f64,
            p50_ms: ms(s.p50_ns),
            p95_ms: ms(s.p95_ns),
            p99_ms: ms(s.p99_ns),
            max_ms: ms(s.max_ns),
            sla_ms: ms(app_spec.sla),
            timeout_rate: s.timeout_rate(),
            freq_transitions: sim.freq_transitions,
            drl_steps,
            mean_reward,
            faults_injected: sim.faults_injected,
            goodput: sim.goodput,
            wasted: sim.wasted,
            shed: sim.shed,
            retries: sim.retries,
            wasted_s: sim.wasted_s,
        }
    }

    /// Goodput as a fraction of everything the clients offered
    /// (completions + shed); 1.0 for an open-loop run, 0.0 when nothing
    /// was offered.
    pub fn goodput_ratio(&self) -> f64 {
        let offered = self.goodput + self.wasted + self.shed;
        if offered == 0 {
            return 0.0;
        }
        self.goodput as f64 / offered as f64
    }
}

/// Training seed calibrated for `app` at the reduced (default) scale.
///
/// DDPG outcomes at 8 episodes × 120 s are bimodal — some seeds train a
/// policy that holds the SLA, others over-throttle until the queue
/// collapses. These values come from a per-app sweep through this
/// harness against the Fig. 7 shape criteria (see EXPERIMENTS.md,
/// "Training seeds"); re-sweep after any change that alters what enters
/// the replay buffer.
pub fn calibrated_train_seed(app: App) -> u64 {
    match app {
        App::Sphinx => 54,
        App::ImgDnn => 7,
        _ => 42,
    }
}

/// Expand the cross product `apps × governors × seeds` into a job list
/// (row-major: governors vary fastest, then seeds, then apps).
pub fn grid(
    apps: &[App],
    governors: &[GovernorSpec],
    seeds: &[u64],
    peak_load: f64,
    duration_s: u64,
    workload: WorkloadKind,
) -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(apps.len() * governors.len() * seeds.len());
    for &app in apps {
        for &seed in seeds {
            for gov in governors {
                jobs.push(JobSpec {
                    app,
                    governor: gov.clone(),
                    seed,
                    peak_load,
                    duration_s,
                    workload,
                    faults: FaultPlan::none(),
                    overload: OverloadPlan::none(),
                    rtrace: TracePlan::none(),
                    safety: false,
                });
            }
        }
    }
    jobs
}

/// Build the job's arrival stream. Diurnal jobs derive the arrival seed
/// exactly like [`deeppower_core::evaluate`] so a `DeepPower` grid cell
/// reproduces the CLI's `eval` numbers; constant-rate jobs feed the seed
/// straight through (Table 3 parity).
fn arrivals_for(spec: &JobSpec, app_spec: &AppSpec) -> Vec<Request> {
    match spec.workload {
        WorkloadKind::Diurnal => {
            let trace = trace_for(app_spec, spec.peak_load, spec.duration_s, spec.seed);
            trace_arrivals(
                app_spec,
                &trace,
                spec.seed.wrapping_mul(131).wrapping_add(17),
            )
        }
        WorkloadKind::Constant => constant_rate_arrivals(
            app_spec,
            app_spec.rps_for_load(spec.peak_load),
            spec.duration_s * SECOND,
            spec.seed,
        ),
    }
}

/// Run one grid cell to completion. Pure: everything is derived from the
/// spec, so calling this from any thread at any time gives the same
/// result.
///
/// An enabled `rec` receives an event stream bracketed by
/// [`event::JobStart`]/[`event::JobEnd`] carrying `job` (the job's grid
/// index); in between come the engine's and governor's events — for
/// [`GovernorSpec::DeepPowerTrain`] cells that includes the full
/// training history (per-step `DrlStep`/`TrainUpdate`, per-episode
/// `EpisodeEnd`) before the evaluation rollout. Every event is a pure
/// function of `(spec, job)` — no wall-clock data — which is what lets
/// [`run_grid_telemetry`] promise byte-identical artifacts at any thread
/// count. A profiler attached to `rec` collects the engine, training
/// and DDPG spans; it is `Send + Sync`, so one profiler can aggregate
/// the recorders of every grid worker, and spans are wall-clock-only,
/// so they cannot perturb the [`JobResult`] or the event stream.
pub fn run_job(spec: &JobSpec, job: u64, rec: &Recorder) -> JobResult {
    let app_spec = AppSpec::get(spec.app);
    let server = Server::new(ServerConfig::paper_default(app_spec.n_threads));
    let arrivals = arrivals_for(spec, &app_spec);
    let opts = RunOptions {
        faults: spec.faults,
        overload: spec.overload,
        rtrace: spec.rtrace,
        ..Default::default()
    };
    let plan = FreqPlan::xeon_gold_5218r;

    rec.emit(|| {
        Event::JobStart(event::JobStart {
            job,
            app: app_spec.name.to_string(),
            governor: spec.governor_label(),
            seed: spec.seed,
        })
    });

    let (result, sim_ns) = match &spec.governor {
        GovernorSpec::MaxFreq => {
            let mut gov = max_freq_governor();
            let sim = run_sim(&server, &arrivals, &mut gov, opts, rec, spec.safety);
            (JobResult::from_sim(spec, &sim, &[]), sim.duration_ns)
        }
        GovernorSpec::FixedMhz(mhz) => {
            let mut gov = FixedFrequency { mhz: *mhz };
            let sim = run_sim(&server, &arrivals, &mut gov, opts, rec, spec.safety);
            (JobResult::from_sim(spec, &sim, &[]), sim.duration_ns)
        }
        GovernorSpec::ThreadController(base_freq, scaling_coef) => {
            let mut gov = ThreadController::new(ControllerParams::new(*base_freq, *scaling_coef));
            let sim = run_sim(&server, &arrivals, &mut gov, opts, rec, spec.safety);
            (JobResult::from_sim(spec, &sim, &[]), sim.duration_ns)
        }
        GovernorSpec::Retail => {
            let profile = collect_profile(&app_spec, PROFILE_LOAD, PROFILE_EPISODES, PROFILE_SEED);
            let mut gov = RetailGovernor::train(&profile, plan(), RetailConfig::default());
            let sim = run_sim(&server, &arrivals, &mut gov, opts, rec, spec.safety);
            (JobResult::from_sim(spec, &sim, &[]), sim.duration_ns)
        }
        GovernorSpec::Gemini => {
            let profile = collect_profile(&app_spec, PROFILE_LOAD, PROFILE_EPISODES, PROFILE_SEED);
            let mut gov = GeminiGovernor::train(
                &profile,
                plan(),
                app_spec.n_threads,
                GeminiConfig::default(),
                5,
            );
            let sim = run_sim(&server, &arrivals, &mut gov, opts, rec, spec.safety);
            (JobResult::from_sim(spec, &sim, &[]), sim.duration_ns)
        }
        GovernorSpec::DeepPower(policy) => run_policy(spec, &server, &arrivals, policy, rec),
        GovernorSpec::DeepPowerTrain(train_cfg) => {
            let mut cfg = *train_cfg;
            cfg.app = spec.app;
            cfg.seed = spec.seed;
            let (policy, _) = train::train_recorded(&cfg, rec);
            run_policy(spec, &server, &arrivals, &policy, rec)
        }
    };

    rec.emit(|| {
        Event::JobEnd(event::JobEnd {
            job,
            sim_ns,
            requests: result.requests,
            energy_j: result.energy_j,
            drl_steps: result.drl_steps,
        })
    });
    result
}

/// Run the simulation, wrapping `gov` in a [`SafetyGovernor`] (default
/// thresholds, events into `rec`) when `safety` is set. The wrapper
/// borrows the governor through the engine's `&mut dyn Governor`
/// forwarding impl, so heterogeneous policies need no boxing.
fn run_sim(
    server: &Server,
    arrivals: &[Request],
    gov: &mut dyn Governor,
    opts: RunOptions,
    rec: &Recorder,
    safety: bool,
) -> SimResult {
    if safety {
        let n_cores = server.config().n_cores;
        let mut safe =
            SafetyGovernor::new(gov, n_cores, SafetyConfig::default()).with_recorder(rec.clone());
        server.run_recorded(arrivals, &mut safe, opts, rec)
    } else {
        let mut gov = gov;
        server.run_recorded(arrivals, &mut gov, opts, rec)
    }
}

fn run_policy(
    spec: &JobSpec,
    server: &Server,
    arrivals: &[Request],
    policy: &TrainedPolicy,
    rec: &Recorder,
) -> (JobResult, u64) {
    let mut agent = policy.build_agent();
    let mut gov =
        DeepPowerGovernor::new(&mut agent, policy.deeppower, Mode::Eval).with_recorder(rec.clone());
    let opts = RunOptions {
        tick_ns: policy.deeppower.short_time,
        faults: spec.faults,
        overload: spec.overload,
        rtrace: spec.rtrace,
        ..Default::default()
    };
    let sim = run_sim(server, arrivals, &mut gov, opts, rec, spec.safety);
    let duration = sim.duration_ns;
    (JobResult::from_sim(spec, &sim, &gov.log), duration)
}

/// Execute all jobs on `threads` worker threads with work stealing.
///
/// Workers claim job indices from a shared atomic counter and write each
/// result into its job's dedicated slot, so the output vector is ordered
/// by job index regardless of which worker ran which job or in what
/// order — the returned results (and any JSON rendered from them) are
/// identical for every thread count. `threads = 0` uses the machine's
/// available parallelism.
pub fn run_grid(jobs: &[JobSpec], threads: usize) -> Vec<JobResult> {
    run_grid_inner(jobs, threads, false).0
}

/// [`run_grid`] plus one telemetry event stream per job, index-aligned
/// with the results, each with the number of events its ring evicted.
///
/// Each worker gives the job it claimed a fresh ring recorder
/// ([`GRID_EVENT_CAPACITY`]) on its own thread and drains the events
/// into the job's dedicated slot, so — like the results themselves —
/// the event streams depend only on the job specs and their indices:
/// serializing stream `i` (e.g. via `deeppower_telemetry::to_jsonl`)
/// yields byte-identical output at `--threads 1` and `--threads 8`.
#[allow(clippy::type_complexity)]
pub fn run_grid_telemetry(
    jobs: &[JobSpec],
    threads: usize,
) -> (Vec<JobResult>, Vec<(Vec<Event>, u64)>) {
    run_grid_inner(jobs, threads, true)
}

/// Run every job on a ring recorder when `telemetry` is set, else on a
/// disabled one (whose streams come back empty).
#[allow(clippy::type_complexity)]
fn run_grid_inner(
    jobs: &[JobSpec],
    threads: usize,
    telemetry: bool,
) -> (Vec<JobResult>, Vec<(Vec<Event>, u64)>) {
    let threads = all_cores_if_zero(threads).min(jobs.len());
    parallel_map(jobs, threads, |idx, job| {
        // Recorders are thread-local by construction (`!Send`): each
        // job builds its own on the worker running it and the events
        // leave through the per-index slot.
        let rec = if telemetry {
            Recorder::ring(GRID_EVENT_CAPACITY)
        } else {
            Recorder::disabled()
        };
        let result = run_job(job, idx as u64, &rec);
        (result, (rec.drain_events(), rec.dropped_events()))
    })
    .into_iter()
    .unzip()
}

/// `0` → the machine's available parallelism; never less than 1.
fn all_cores_if_zero(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    }
}

/// `f(i, &items[i])` for every item, on `threads` workers that claim the
/// next index from a shared counter. Each result lands in its item's
/// slot, so the output is ordered by index whichever worker ran what.
fn parallel_map<T: Sync, R: Send + Sync>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else { break };
                assert!(
                    slots[idx].set(f(idx, item)).is_ok(),
                    "job slot written twice"
                );
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker panicked before finishing job")
        })
        .collect()
}

/// Mean metrics of one (app, governor) group across its seeds.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GroupSummary {
    pub app: String,
    pub governor: String,
    pub runs: u64,
    pub requests: u64,
    pub avg_power_w: f64,
    pub energy_j: f64,
    pub mean_ms: f64,
    pub p99_ms: f64,
    pub timeout_rate: f64,
    pub mean_reward: f64,
}

/// A whole grid run: the raw per-job telemetry plus per-group means.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridReport {
    pub jobs: Vec<JobResult>,
    pub groups: Vec<GroupSummary>,
}

impl GridReport {
    /// Serialize deterministically (object key order is insertion order,
    /// floats print shortest-round-trip).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("GridReport serialization cannot fail")
    }
}

/// Group results by (app, governor), preserving first-seen order, and
/// average the headline metrics over the seeds in each group.
pub fn summarize(results: Vec<JobResult>) -> GridReport {
    let mut groups: Vec<GroupSummary> = Vec::new();
    for r in &results {
        let group = match groups
            .iter_mut()
            .find(|g| g.app == r.app && g.governor == r.governor)
        {
            Some(g) => g,
            None => {
                groups.push(GroupSummary {
                    app: r.app.clone(),
                    governor: r.governor.clone(),
                    runs: 0,
                    requests: 0,
                    avg_power_w: 0.0,
                    energy_j: 0.0,
                    mean_ms: 0.0,
                    p99_ms: 0.0,
                    timeout_rate: 0.0,
                    mean_reward: 0.0,
                });
                groups.last_mut().unwrap()
            }
        };
        group.runs += 1;
        group.requests += r.requests;
        group.avg_power_w += r.avg_power_w;
        group.energy_j += r.energy_j;
        group.mean_ms += r.mean_ms;
        group.p99_ms += r.p99_ms;
        group.timeout_rate += r.timeout_rate;
        group.mean_reward += r.mean_reward;
    }
    for g in &mut groups {
        let n = g.runs as f64;
        g.avg_power_w /= n;
        g.energy_j /= n;
        g.mean_ms /= n;
        g.p99_ms /= n;
        g.timeout_rate /= n;
        g.mean_reward /= n;
    }
    GridReport {
        jobs: results,
        groups,
    }
}

/// The canonical fault scenarios of the robustness evaluation, seeded so
/// the whole matrix is replayable. `none` is the fault-free reference the
/// degradation deltas are computed against.
pub fn fault_scenarios(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let base = FaultPlan {
        seed,
        ..FaultPlan::none()
    };
    vec![
        ("none", FaultPlan::none()),
        (
            "dvfs",
            FaultPlan {
                dvfs_fail_prob: 0.8,
                dvfs_spike_prob: 0.1,
                dvfs_spike_min_ns: 50_000,
                dvfs_spike_max_ns: 500_000,
                ..base
            },
        ),
        (
            "sensor",
            FaultPlan {
                sensor_drop_prob: 0.3,
                power_noise_frac: 0.2,
                ..base
            },
        ),
        (
            "stall",
            FaultPlan {
                stall_period_ns: 500 * MILLISECOND,
                stall_duration_ns: 20 * MILLISECOND,
                ..base
            },
        ),
        (
            "all",
            FaultPlan {
                dvfs_fail_prob: 0.8,
                dvfs_spike_prob: 0.1,
                dvfs_spike_min_ns: 50_000,
                dvfs_spike_max_ns: 500_000,
                sensor_drop_prob: 0.3,
                power_noise_frac: 0.2,
                stall_period_ns: 500 * MILLISECOND,
                stall_duration_ns: 20 * MILLISECOND,
                ..base
            },
        ),
    ]
}

/// The canonical overload scenarios: closed-loop clients with bounded
/// queues and seeded retries, scaled to the app's SLA so every workload
/// sees comparable pressure relative to its own deadline.
pub fn overload_scenarios(seed: u64, sla_ns: u64) -> Vec<(&'static str, OverloadPlan)> {
    let sla_ns = sla_ns.max(1);
    let base = OverloadPlan {
        seed,
        queue_capacity: 256,
        client_timeout_ns: 4 * sla_ns,
        retry_prob: 0.8,
        max_attempts: 3,
        retry_backoff_ns: sla_ns,
        retry_jitter_ns: (sla_ns / 4).max(1),
        ..OverloadPlan::none()
    };
    vec![
        // Impatient clients re-offering almost every timeout: the load
        // amplification loop of a classic retry storm.
        (
            "retry-storm",
            OverloadPlan {
                retry_prob: 0.9,
                max_attempts: 4,
                ..base
            },
        ),
        // A transient arrival multiplier on top of the closed loop.
        (
            "flash-crowd",
            OverloadPlan {
                burst_start_ns: 500 * MILLISECOND,
                burst_duration_ns: SECOND,
                burst_factor: 3,
                ..base
            },
        ),
        // Tight queue, short deadlines, near-certain retries: the regime
        // where an unmanaged server congestion-collapses.
        (
            "collapse",
            OverloadPlan {
                queue_capacity: 64,
                client_timeout_ns: 2 * sla_ns,
                retry_prob: 0.95,
                max_attempts: 5,
                retry_backoff_ns: (sla_ns / 2).max(1),
                ..base
            },
        ),
    ]
}

/// Full robustness scenario list: the five platform-fault scenarios
/// (overload-free) followed by the three overload scenarios
/// (fault-free). `none` stays first as the shared delta baseline.
pub fn robustness_scenarios(
    seed: u64,
    sla_ns: u64,
) -> Vec<(&'static str, FaultPlan, OverloadPlan)> {
    let mut out: Vec<_> = fault_scenarios(seed)
        .into_iter()
        .map(|(name, faults)| (name, faults, OverloadPlan::none()))
        .collect();
    out.extend(
        overload_scenarios(seed, sla_ns)
            .into_iter()
            .map(|(name, overload)| (name, FaultPlan::none(), overload)),
    );
    out
}

/// One cell of the robustness matrix: a governor under a fault scenario,
/// with degradation deltas against the same governor's fault-free run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RobustnessRow {
    pub governor: String,
    pub scenario: String,
    pub avg_power_w: f64,
    pub p99_ms: f64,
    pub timeout_rate: f64,
    pub faults_injected: u64,
    /// Burn-rate alerts fired by a [`FleetMonitor`] evaluating the
    /// app's SLA over the job's window-rollup stream (default
    /// multi-window rules; short runs rarely span enough windows to
    /// trip them).
    pub alerts: u64,
    /// Seconds of objective-time in instantaneous SLO violation,
    /// summed across objectives (a window violating two objectives
    /// counts twice).
    pub violation_s: f64,
    /// Deltas vs the same governor's `none` scenario.
    pub d_power_w: f64,
    pub d_p99_ms: f64,
    pub d_timeout_rate: f64,
    /// Completions the client was still waiting for (== all completions
    /// on overload-free rows).
    pub goodput: u64,
    /// Server busy-seconds burned on abandoned requests.
    pub wasted_s: f64,
    /// Requests shed at admission.
    pub shed: u64,
}

/// The governors × fault-scenarios degradation matrix for one app.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RobustnessReport {
    pub app: String,
    pub peak_load: f64,
    pub duration_s: u64,
    pub seed: u64,
    pub rows: Vec<RobustnessRow>,
}

impl RobustnessReport {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("RobustnessReport serialization cannot fail")
    }

    /// Plain-text degradation table (one row per governor × scenario).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:<12} {:>9} {:>9} {:>9} {:>8} {:>7} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}\n",
            "governor",
            "scenario",
            "power_w",
            "p99_ms",
            "timeout",
            "faults",
            "alerts",
            "viol_s",
            "d_power",
            "d_p99",
            "d_timeout",
            "goodput",
            "wasted_s",
            "shed"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<24} {:<12} {:>9.2} {:>9.2} {:>9.4} {:>8} {:>7} {:>7.2} {:>+9.2} {:>+9.2} {:>+9.4} {:>9} {:>9.3} {:>7}\n",
                r.governor,
                r.scenario,
                r.avg_power_w,
                r.p99_ms,
                r.timeout_rate,
                r.faults_injected,
                r.alerts,
                r.violation_s,
                r.d_power_w,
                r.d_p99_ms,
                r.d_timeout_rate,
                r.goodput,
                r.wasted_s,
                r.shed
            ));
        }
        out
    }
}

/// Resolve a scenario selection against [`robustness_scenarios`].
///
/// `wanted` empty means "all eight". Otherwise the result is `none`
/// (always kept first — every matrix chunk needs its delta baseline)
/// followed by the requested scenarios in canonical order. Unknown
/// names are a one-line `Err` listing the valid set.
pub fn select_scenarios(
    seed: u64,
    sla_ns: u64,
    wanted: &[String],
) -> Result<Vec<(&'static str, FaultPlan, OverloadPlan)>, String> {
    let all = robustness_scenarios(seed, sla_ns);
    if wanted.is_empty() {
        return Ok(all);
    }
    for w in wanted {
        if !all.iter().any(|(name, _, _)| name == w) {
            let names: Vec<_> = all.iter().map(|(n, _, _)| *n).collect();
            return Err(format!("unknown scenario `{w}` ({})", names.join("|")));
        }
    }
    Ok(all
        .into_iter()
        .filter(|(name, _, _)| *name == "none" || wanted.iter().any(|w| w == name))
        .collect())
}

/// Build the robustness job list: every governor (plain and, when
/// `include_safety`, safety-wrapped) under every scenario — all of
/// [`robustness_scenarios`] or a [`select_scenarios`] subset. The first
/// scenario must be the overload- and fault-free `none` baseline.
/// Row-major: scenarios vary fastest, then the safety axis, then
/// governors — matching [`robustness_matrix`]'s row order.
#[allow(clippy::too_many_arguments)]
pub fn robustness_jobs(
    scenarios: &[(&'static str, FaultPlan, OverloadPlan)],
    app: App,
    governors: &[GovernorSpec],
    include_safety: bool,
    seed: u64,
    peak_load: f64,
    duration_s: u64,
) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for gov in governors {
        for &safety in &[false, true][..if include_safety { 2 } else { 1 }] {
            for (_, faults, overload) in scenarios {
                jobs.push(JobSpec {
                    app,
                    governor: gov.clone(),
                    seed,
                    peak_load,
                    duration_s,
                    workload: WorkloadKind::Constant,
                    faults: *faults,
                    overload: *overload,
                    rtrace: TracePlan::none(),
                    safety,
                });
            }
        }
    }
    jobs
}

/// Run the governors × scenarios matrix and compute each cell's
/// degradation relative to the same governor's fault-free run.
/// `scenarios` is [`robustness_scenarios`] or a [`select_scenarios`]
/// subset (e.g. the CLI's `--scenario` filter); the first scenario must
/// be the `none` baseline the deltas are taken against.
///
/// Each job runs under a telemetry recorder ([`run_grid_telemetry`]) and
/// its event stream feeds a single-node [`FleetMonitor`] evaluating the
/// app's SLA ([`SloSpec::for_sla_ns`]), so every row also reports
/// burn-rate alert counts and time in SLO violation. Event streams are
/// ring-capped at [`GRID_EVENT_CAPACITY`]; a dvfs fault storm on a long
/// run can clip the *earliest* events, which may drop leading windows
/// from the monitor's view (never the run's own results).
#[allow(clippy::too_many_arguments)]
pub fn robustness_matrix(
    scenarios: &[(&'static str, FaultPlan, OverloadPlan)],
    app: App,
    governors: &[GovernorSpec],
    include_safety: bool,
    seed: u64,
    peak_load: f64,
    duration_s: u64,
    threads: usize,
) -> RobustnessReport {
    let jobs = robustness_jobs(
        scenarios,
        app,
        governors,
        include_safety,
        seed,
        peak_load,
        duration_s,
    );
    let (results, events) = run_grid_telemetry(&jobs, threads);
    let app_spec = AppSpec::get(app);
    let mut slo = SloSpec::for_sla_ns(app_spec.name, app_spec.sla);
    // Overload rows also answer for delivered goodput: windows where
    // less than half the offered load completes usefully violate.
    slo.goodput_ratio = 0.5;
    let health: Vec<(u64, f64)> = events
        .iter()
        .map(|(stream, _)| {
            let mut mon = FleetMonitor::new(MonitorConfig::with_slo(slo.clone()));
            mon.ingest(0, stream);
            let rep = mon.finish();
            let violation_ns: u64 = rep.outcomes.iter().map(|o| o.time_in_violation_ns).sum();
            (rep.alerts.len() as u64, violation_ns as f64 / 1e9)
        })
        .collect();
    let n_scenarios = scenarios.len();
    let mut rows = Vec::with_capacity(results.len());
    for ((chunk_jobs, chunk), chunk_health) in jobs
        .chunks(n_scenarios)
        .zip(results.chunks(n_scenarios))
        .zip(health.chunks(n_scenarios))
    {
        // First job of every chunk is the governor's `none` baseline.
        debug_assert!(!chunk_jobs[0].faults.is_active() && !chunk_jobs[0].overload.is_active());
        let base = &chunk[0];
        for (((name, _, _), r), &(alerts, violation_s)) in
            scenarios.iter().zip(chunk).zip(chunk_health)
        {
            rows.push(RobustnessRow {
                governor: r.governor.clone(),
                scenario: name.to_string(),
                avg_power_w: r.avg_power_w,
                p99_ms: r.p99_ms,
                timeout_rate: r.timeout_rate,
                faults_injected: r.faults_injected,
                alerts,
                violation_s,
                d_power_w: r.avg_power_w - base.avg_power_w,
                d_p99_ms: r.p99_ms - base.p99_ms,
                d_timeout_rate: r.timeout_rate - base.timeout_rate,
                goodput: r.goodput,
                wasted_s: r.wasted_s,
                shed: r.shed,
            });
        }
    }
    RobustnessReport {
        app: AppSpec::get(app).name.to_string(),
        peak_load,
        duration_s,
        seed,
        rows,
    }
}

/// One cell of a fleet experiment grid: a [`FleetSpec`] plus the shared
/// policy every node evaluates. The policy travels inside the spec —
/// like [`GovernorSpec::DeepPower`] — so the cell fully determines its
/// [`FleetResult`] and the grid inherits the determinism contract.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetJobSpec {
    pub fleet: FleetSpec,
    pub policy: TrainedPolicy,
}

/// Expand a fleet cross product: node counts × balancer policies, one
/// cell per combination, sharing `policy`.
pub fn fleet_grid(
    app: App,
    node_counts: &[usize],
    balancers: &[BalancerPolicy],
    seed: u64,
    peak_load: f64,
    duration_s: u64,
    policy: &TrainedPolicy,
) -> Vec<FleetJobSpec> {
    let mut jobs = Vec::with_capacity(node_counts.len() * balancers.len());
    for &nodes in node_counts {
        for &balancer in balancers {
            jobs.push(FleetJobSpec {
                fleet: FleetSpec::uniform(app, nodes, balancer, seed, peak_load, duration_s),
                policy: policy.clone(),
            });
        }
    }
    jobs
}

/// Execute fleet jobs on `threads` workers with the same work-stealing
/// slot scheme as [`run_grid`]: results are ordered by job index and
/// byte-identical at any thread count.
///
/// The budget splits across two levels: when there are fewer jobs than
/// threads, the leftover cores become each fleet's own worker threads
/// ([`FleetRun::threads`] of [`run_fleet_with`], whose result is
/// byte-identical at any thread count). A 16-core host running a
/// 2-cell grid therefore drives each fleet with 8 worker threads
/// instead of idling 14 cores.
pub fn run_fleet_grid(jobs: &[FleetJobSpec], threads: usize) -> Vec<FleetResult> {
    let threads = all_cores_if_zero(threads).max(1);
    let pool = threads.min(jobs.len()).max(1);
    // Cores left over after one worker per job parallelize the fleets
    // themselves (the fleet driver clamps to the node count).
    let run = FleetRun {
        threads: (threads / pool).max(1),
        ..FleetRun::default()
    };
    parallel_map(jobs, pool, |_, job| {
        run_fleet_with(&job.fleet, &[&job.policy], &run).result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeppower_telemetry::Profiler;

    fn small_grid() -> Vec<JobSpec> {
        // 2 apps × 3 governors × 2 seeds = 12 jobs (≥ 10 per the
        // acceptance bar), short enough to run in a debug test.
        grid(
            &[App::Xapian, App::Masstree],
            &[
                GovernorSpec::MaxFreq,
                GovernorSpec::FixedMhz(1500),
                GovernorSpec::ThreadController(0.3, 1.0),
            ],
            &[1, 2],
            0.5,
            2,
            WorkloadKind::Diurnal,
        )
    }

    #[test]
    fn grid_expands_full_cross_product() {
        let jobs = small_grid();
        assert_eq!(jobs.len(), 12);
        // Governors vary fastest; every (app, seed, governor) combination
        // appears exactly once.
        let mut labels: Vec<(App, u64, String)> = jobs
            .iter()
            .map(|j| (j.app, j.seed, j.governor.label()))
            .collect();
        labels.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        labels.dedup();
        assert_eq!(labels.len(), 12);
    }

    #[test]
    fn results_are_byte_identical_across_thread_counts() {
        let jobs = small_grid();
        let serial = summarize(run_grid(&jobs, 1)).to_json();
        let parallel = summarize(run_grid(&jobs, 4)).to_json();
        assert_eq!(serial, parallel, "thread count changed the results");
        // And the report actually contains everything.
        assert!(serial.contains("\"groups\""));
        assert_eq!(serial.matches("\"seed\":").count(), 12);
    }

    #[test]
    fn fleet_grid_results_are_byte_identical_across_thread_counts() {
        let policy = deeppower_fleet::untrained_policy(App::Masstree, 5);
        let jobs = fleet_grid(
            App::Masstree,
            &[1, 2],
            &[
                BalancerPolicy::RoundRobin,
                BalancerPolicy::JoinShortestQueue,
            ],
            3,
            0.4,
            2,
            &policy,
        );
        assert_eq!(jobs.len(), 4);
        let serialize = |results: Vec<FleetResult>| {
            results
                .iter()
                .map(FleetResult::to_json)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let serial = serialize(run_fleet_grid(&jobs, 1));
        let parallel = serialize(run_fleet_grid(&jobs, 4));
        assert_eq!(serial, parallel, "thread count changed fleet results");
        assert_eq!(serial.matches("\"per_node\"").count(), 4);
    }

    #[test]
    fn telemetry_artifacts_are_byte_identical_across_thread_counts() {
        let jobs = small_grid();
        let (res1, ev1) = run_grid_telemetry(&jobs, 1);
        let (res4, ev4) = run_grid_telemetry(&jobs, 4);
        assert_eq!(summarize(res1).to_json(), summarize(res4).to_json());
        assert_eq!(ev1.len(), jobs.len());
        for (i, ((a, dropped_a), (b, dropped_b))) in ev1.iter().zip(&ev4).enumerate() {
            let ja = deeppower_telemetry::to_jsonl(a);
            let jb = deeppower_telemetry::to_jsonl(b);
            assert_eq!(ja, jb, "job {i} artifact differs across thread counts");
            assert_eq!(dropped_a, dropped_b, "job {i} dropped count differs");
            // Every artifact is bracketed by its lifecycle events.
            assert!(matches!(a.first(), Some(Event::JobStart(s)) if s.job == i as u64));
            assert!(matches!(a.last(), Some(Event::JobEnd(e)) if e.job == i as u64));
        }
    }

    /// Satellite: enabling the span profiler must not change a single
    /// byte of the grid report, at any thread count — spans are a
    /// wall-clock-only artifact channel, fully outside the determinism
    /// contract's inputs. One profiler aggregates the per-job recorders
    /// of every worker. Also pins the span accounting: exactly one
    /// `engine.run` root span per job, the other engine spans nested
    /// inside.
    #[test]
    fn profiled_grid_is_byte_identical_at_any_thread_count() {
        let jobs = small_grid();
        let plain = summarize(run_grid(&jobs, 1)).to_json();
        for threads in [1, 4] {
            let prof = Profiler::enabled();
            let results = parallel_map(&jobs, threads, |idx, job| {
                run_job(job, idx as u64, &Recorder::disabled().with_profiler(&prof))
            });
            let report = summarize(results).to_json();
            assert_eq!(
                plain, report,
                "profiling changed grid results at threads={threads}"
            );
            let table = prof.phase_table();
            let count = |name: &str| table.iter().find(|r| r.name == name).map_or(0, |r| r.count);
            assert_eq!(count("engine.run"), jobs.len() as u64);
            assert!(count("engine.completions") > 0);
            // Each job's event loop is the only root, so the whole
            // engine time nests under it: non-root phases contribute
            // zero root time.
            for row in &table {
                if row.name != "engine.run" {
                    assert_eq!(row.root_ns, 0, "{} escaped engine.run", row.name);
                }
            }
        }
    }

    #[test]
    fn job_results_land_in_job_order() {
        let jobs = small_grid();
        let results = run_grid(&jobs, 3);
        assert_eq!(results.len(), jobs.len());
        for (job, res) in jobs.iter().zip(&results) {
            assert_eq!(res.governor, job.governor.label());
            assert_eq!(res.seed, job.seed);
            assert_eq!(res.app, AppSpec::get(job.app).name);
            assert!(res.requests > 0, "job produced no traffic: {res:?}");
        }
    }

    #[test]
    fn summary_groups_average_over_seeds() {
        let jobs = small_grid();
        let results = run_grid(&jobs, 0);
        let report = summarize(results.clone());
        // 2 apps × 3 governors = 6 groups of 2 seeds each.
        assert_eq!(report.groups.len(), 6);
        for g in &report.groups {
            assert_eq!(g.runs, 2);
            let members: Vec<&JobResult> = results
                .iter()
                .filter(|r| r.app == g.app && r.governor == g.governor)
                .collect();
            let mean_p = members.iter().map(|r| r.avg_power_w).sum::<f64>() / members.len() as f64;
            assert!((g.avg_power_w - mean_p).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_workload_jobs_run() {
        let jobs = vec![JobSpec {
            app: App::Xapian,
            governor: GovernorSpec::MaxFreq,
            seed: 7,
            peak_load: 0.2,
            duration_s: 2,
            workload: WorkloadKind::Constant,
            faults: FaultPlan::none(),
            overload: OverloadPlan::none(),
            rtrace: TracePlan::none(),
            safety: false,
        }];
        let res = run_grid(&jobs, 1);
        assert_eq!(res.len(), 1);
        assert!(res[0].requests > 100);
        assert_eq!(res[0].drl_steps, 0);
    }

    #[test]
    fn faulted_grid_is_byte_identical_across_thread_counts() {
        // The acceptance bar: same (seed, config, FaultPlan) ⇒
        // byte-identical reports and telemetry at any thread count.
        let jobs = robustness_jobs(
            &robustness_scenarios(3, AppSpec::get(App::Masstree).sla),
            App::Masstree,
            &[
                GovernorSpec::MaxFreq,
                GovernorSpec::ThreadController(0.2, 0.8),
            ],
            true,
            3,
            0.5,
            2,
        );
        let (res1, ev1) = run_grid_telemetry(&jobs, 1);
        let (res4, ev4) = run_grid_telemetry(&jobs, 4);
        assert_eq!(summarize(res1.clone()).to_json(), summarize(res4).to_json());
        for (i, ((a, _), (b, _))) in ev1.iter().zip(&ev4).enumerate() {
            assert_eq!(
                deeppower_telemetry::to_jsonl(a),
                deeppower_telemetry::to_jsonl(b),
                "job {i} telemetry differs across thread counts"
            );
        }
        // Fault-free cells inject nothing; stall scenarios always fire
        // (DVFS faults only trigger on transition attempts, which the
        // max-frequency baseline never makes).
        for (job, r) in jobs.iter().zip(&res1) {
            if !job.faults.is_active() {
                assert_eq!(r.faults_injected, 0);
            } else if job.faults.stall_period_ns > 0 {
                assert!(r.faults_injected > 0, "no faults injected: {r:?}");
            }
        }
        assert!(
            res1.iter().map(|r| r.faults_injected).sum::<u64>() > 0,
            "matrix injected no faults at all"
        );
    }

    #[test]
    fn traced_jobs_are_unperturbed_and_replay_across_thread_counts() {
        // Request tracing never perturbs a grid cell's results, and a
        // traced cell's telemetry stream (request traces included) is
        // byte-identical at any thread count.
        let sla = AppSpec::get(App::Masstree).sla;
        let overload = overload_scenarios(9, sla)
            .into_iter()
            .find(|(name, _)| *name == "collapse")
            .expect("collapse scenario exists")
            .1;
        let mk = |rtrace| {
            vec![JobSpec {
                app: App::Masstree,
                governor: GovernorSpec::MaxFreq,
                seed: 9,
                peak_load: 0.8,
                duration_s: 2,
                workload: WorkloadKind::Constant,
                faults: FaultPlan::none(),
                overload,
                rtrace,
                safety: false,
            }]
        };
        let plan = TracePlan::sampled(0.1, 2, 5);
        let (off_res, _) = run_grid_telemetry(&mk(TracePlan::none()), 1);
        let (on_res, on_ev) = run_grid_telemetry(&mk(plan), 1);
        assert_eq!(
            summarize(off_res).to_json(),
            summarize(on_res.clone()).to_json(),
            "tracing perturbed the job result"
        );
        let traces = on_ev[0]
            .0
            .iter()
            .filter(|e| matches!(e, Event::RequestTrace(_)))
            .count();
        assert!(traces > 0, "traced collapse cell emitted no traces");
        let (res4, ev4) = run_grid_telemetry(&mk(plan), 4);
        assert_eq!(
            summarize(on_res).to_json(),
            summarize(res4).to_json(),
            "traced grid diverged across thread counts"
        );
        assert_eq!(
            deeppower_telemetry::to_jsonl(&on_ev[0].0),
            deeppower_telemetry::to_jsonl(&ev4[0].0),
            "traced telemetry differs across thread counts"
        );
    }

    #[test]
    fn safety_wrapped_jobs_report_suffixed_labels() {
        let mut job = JobSpec {
            app: App::Xapian,
            governor: GovernorSpec::ThreadController(0.3, 1.0),
            seed: 1,
            peak_load: 0.3,
            duration_s: 1,
            workload: WorkloadKind::Constant,
            faults: FaultPlan::none(),
            overload: OverloadPlan::none(),
            rtrace: TracePlan::none(),
            safety: true,
        };
        assert_eq!(job.governor_label(), "thread-controller+safe");
        let res = run_job(&job, 0, &Recorder::disabled());
        assert_eq!(res.governor, "thread-controller+safe");
        job.safety = false;
        assert_eq!(job.governor_label(), "thread-controller");
    }

    #[test]
    fn robustness_matrix_has_zero_deltas_on_fault_free_rows() {
        let scenarios = robustness_scenarios(5, AppSpec::get(App::Masstree).sla);
        let report = robustness_matrix(
            &scenarios,
            App::Masstree,
            &[GovernorSpec::MaxFreq],
            true,
            5,
            0.4,
            2,
            0,
        );
        // 1 governor × {plain, safe} × 8 scenarios (5 fault + 3 overload).
        assert_eq!(report.rows.len(), 16);
        for row in report.rows.iter().filter(|r| r.scenario == "none") {
            assert_eq!(row.d_power_w, 0.0);
            assert_eq!(row.d_p99_ms, 0.0);
            assert_eq!(row.d_timeout_rate, 0.0);
            assert_eq!(row.faults_injected, 0);
            // MaxFreq at 0.4 load never breaches the SLA, so the
            // health columns of the fault-free rows are clean.
            assert_eq!(row.alerts, 0);
            assert_eq!(row.violation_s, 0.0);
        }
        // Overload scenarios complete real traffic, inject no faults,
        // and report goodput accounting.
        for row in report
            .rows
            .iter()
            .filter(|r| ["retry-storm", "flash-crowd", "collapse"].contains(&r.scenario.as_str()))
        {
            assert_eq!(row.faults_injected, 0);
            assert!(row.goodput > 0, "overload row had no goodput: {row:?}");
        }
        let table = report.render_table();
        assert!(table.contains("baseline+safe"));
        assert!(table.contains("scenario"));
        assert!(table.contains("alerts"));
        assert!(table.contains("viol_s"));
        assert!(table.contains("goodput"));
        assert!(table.contains("retry-storm"));
        assert!(table.contains("collapse"));
    }

    #[test]
    fn select_scenarios_keeps_baseline_and_rejects_unknown() {
        let all = select_scenarios(1, MILLISECOND, &[]).unwrap();
        assert_eq!(all.len(), 8);
        let picked = select_scenarios(1, MILLISECOND, &["retry-storm".into()]).unwrap();
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].0, "none");
        assert_eq!(picked[1].0, "retry-storm");
        assert!(picked[1].2.is_active() && !picked[1].1.is_active());
        // Requesting `none` alone is valid: a pure-baseline run.
        let base = select_scenarios(1, MILLISECOND, &["none".into()]).unwrap();
        assert_eq!(base.len(), 1);
        let err = select_scenarios(1, MILLISECOND, &["retry-strom".into()]).unwrap_err();
        assert!(err.contains("unknown scenario `retry-strom`"), "{err}");
        assert!(err.contains("retry-storm|flash-crowd|collapse"), "{err}");
    }

    /// `--scenario`-style filtering produces the same cells the full
    /// matrix does for those scenarios: the delta baseline is the same
    /// `none` run either way.
    #[test]
    fn filtered_matrix_matches_full_matrix_rows() {
        let scenarios =
            select_scenarios(5, AppSpec::get(App::Masstree).sla, &["collapse".into()]).unwrap();
        let filtered = robustness_matrix(
            &scenarios,
            App::Masstree,
            &[GovernorSpec::MaxFreq],
            false,
            5,
            0.4,
            2,
            0,
        );
        assert_eq!(filtered.rows.len(), 2);
        let full = robustness_matrix(
            &robustness_scenarios(5, AppSpec::get(App::Masstree).sla),
            App::Masstree,
            &[GovernorSpec::MaxFreq],
            false,
            5,
            0.4,
            2,
            0,
        );
        for row in &filtered.rows {
            let twin = full
                .rows
                .iter()
                .find(|r| r.scenario == row.scenario)
                .expect("full matrix has the scenario");
            assert_eq!(
                serde_json::to_string(row).unwrap(),
                serde_json::to_string(twin).unwrap()
            );
        }
    }

    /// Acceptance: with faults off, `SafetyGovernor(DeepPower)` matches
    /// plain DeepPower bit-for-bit. The policy trains in-cell from the
    /// job seed, so both runs derive the exact same agent; any safety
    /// intervention would show up in the serialized result.
    #[test]
    fn safety_wrapper_is_transparent_over_deeppower_without_faults() {
        let mut cfg = TrainConfig::for_app(App::Xapian);
        cfg.episodes = 1;
        cfg.episode_s = 10;
        cfg.peak_load = 0.6;
        cfg.deeppower.ddpg.warmup = 4;
        cfg.deeppower.ddpg.batch_size = 8;
        let mut job = JobSpec {
            app: App::Xapian,
            governor: GovernorSpec::DeepPowerTrain(cfg),
            seed: 7,
            peak_load: 0.6,
            duration_s: 2,
            workload: WorkloadKind::Constant,
            faults: FaultPlan::none(),
            overload: OverloadPlan::none(),
            rtrace: TracePlan::none(),
            safety: false,
        };
        let plain = run_job(&job, 0, &Recorder::disabled());
        job.safety = true;
        let safe = run_job(&job, 0, &Recorder::disabled());
        assert_eq!(safe.governor, "deeppower-train+safe");
        let strip = |r: &JobResult| {
            let mut v = serde_json::to_value(r).expect("serialize JobResult");
            if let serde_json::Value::Object(fields) = &mut v {
                fields.retain(|(k, _)| k != "governor");
            }
            v
        };
        assert_eq!(
            strip(&plain),
            strip(&safe),
            "safety wrapper must not perturb a fault-free DeepPower run"
        );
    }

    #[test]
    fn job_spec_roundtrips_through_json() {
        let job = JobSpec {
            app: App::Masstree,
            governor: GovernorSpec::ThreadController(0.25, 1.5),
            seed: 42,
            peak_load: 0.6,
            duration_s: 30,
            workload: WorkloadKind::Diurnal,
            faults: FaultPlan::none(),
            overload: OverloadPlan::none(),
            rtrace: TracePlan::none(),
            safety: false,
        };
        let json = serde_json::to_string(&job).expect("serialize JobSpec");
        let back: JobSpec = serde_json::from_str(&json).expect("deserialize JobSpec");
        assert_eq!(back.seed, 42);
        assert_eq!(back.governor.label(), "thread-controller");
        assert_eq!(back.workload, WorkloadKind::Diurnal);
    }
}
