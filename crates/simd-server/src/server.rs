//! The event-driven simulation engine.
//!
//! Models the latency-critical serving loop of §4.1: requests arrive into a
//! single FIFO queue, each of `n` cores processes one request at a time
//! without preemption, and a [`Governor`] commands per-core frequencies.
//!
//! Between events every core runs at a constant frequency and the busy-core
//! count is fixed, so request progress and completion times are computed
//! *analytically* — no fixed time-step error, and a 360-second workload at
//! thousands of RPS simulates in well under a second. Events are:
//!
//! 1. request completion (a core drains its remaining intrinsic work),
//! 2. request arrival,
//! 3. governor control tick (the paper's `ShortTime`),
//! 4. trace sampling points.
//!
//! Within one timestamp events are processed in the deterministic order
//! completions → client abandonments → arrivals (admission, bursts,
//! retries) → dispatch → tick → samples, which makes every run
//! bit-replayable.

use crate::clock::Nanos;
use crate::contention::ContentionModel;
use crate::cstates::CStatePlan;
use crate::dvfs::{DvfsController, FreqPlan, TransitionOutcome};
use crate::faults::{FaultPlan, FaultState, SensorReading};
use crate::governor::{CoreView, FreqCommands, Governor, RunningView, ServerView};
use crate::metrics::{LatencyStats, MetricsCollector, RequestRecord, TraceConfig, Traces};
use crate::overload::{Admit, OverloadPlan, OverloadState};
use crate::power::{EnergyMeter, PowerModel};
use crate::request::Request;
use deeppower_telemetry::{event, Event, Histogram, Profiler, Recorder, RequestTracer, TracePlan};
use std::collections::{BTreeMap, VecDeque};

/// Work remaining below this many reference-nanoseconds counts as done
/// (guards floating-point residue after an exact-advance step).
const WORK_EPS: f64 = 1e-6;

/// Static server parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads = physical cores (paper: 20, or 8 for Masstree).
    pub n_cores: usize,
    pub freq_plan: FreqPlan,
    pub power: PowerModel,
    pub contention: ContentionModel,
    /// Frequency every core starts at.
    pub initial_mhz: u32,
    /// Idle states governors may use (empty = the paper's main setting,
    /// where the `userspace` governor keeps cores clocked).
    pub cstates: CStatePlan,
    /// Per-core frequency ceilings for big.LITTLE-style mixes: core `i`
    /// never runs above `core_max_mhz[i]` (turbo included). Empty — the
    /// paper's homogeneous socket — leaves every core uncapped.
    pub core_max_mhz: Vec<u32>,
}

impl ServerConfig {
    /// The paper's testbed socket: 20 cores, Xeon plan, default power and
    /// contention models, starting at max nominal frequency.
    pub fn paper_default(n_cores: usize) -> Self {
        let freq_plan = FreqPlan::xeon_gold_5218r();
        let initial_mhz = freq_plan.max_mhz();
        Self {
            n_cores,
            freq_plan,
            power: PowerModel::xeon_gold_5218r(),
            contention: ContentionModel::default(),
            initial_mhz,
            cstates: CStatePlan::none(),
            core_max_mhz: Vec::new(),
        }
    }

    /// The ceiling core `i` may be commanded to, or `None` when uncapped.
    pub fn core_cap(&self, core: usize) -> Option<u32> {
        self.core_max_mhz.get(core).copied()
    }

    /// Paper testbed plus Xeon-like C1/C6 idle states — the substrate for
    /// the sleep-states extension (the paper's future work, §6).
    pub fn paper_with_cstates(n_cores: usize) -> Self {
        Self {
            cstates: CStatePlan::xeon(),
            ..Self::paper_default(n_cores)
        }
    }
}

/// Per-run options.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Governor control period (`ShortTime`; 1 ms in the paper).
    pub tick_ns: Nanos,
    /// Trace collection (off by default — figure benches enable it).
    pub trace: TraceConfig,
    /// Deterministic fault injection (off by default; see
    /// [`crate::faults`]).
    pub faults: FaultPlan,
    /// Closed-loop client / admission model (off by default — the
    /// classic open-loop, unbounded-queue engine; see
    /// [`crate::overload`]).
    pub overload: OverloadPlan,
    /// Tumbling-window span for [`event::WindowRollup`] emission when a
    /// recorder is enabled (0 disables rollups). Windows close at
    /// governor-tick boundaries, so with the default one-second window
    /// and millisecond ticks every node on the same tick grid produces
    /// aligned window indices — the property the fleet health monitor
    /// merges on.
    pub window_ns: Nanos,
    /// Deterministic request-lifecycle tracing (off by default; see
    /// [`deeppower_telemetry::trace`]). Active only with an enabled
    /// recorder, and never perturbs results.
    pub rtrace: TracePlan,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            tick_ns: crate::clock::MILLISECOND,
            trace: TraceConfig::default(),
            faults: FaultPlan::none(),
            overload: OverloadPlan::none(),
            window_ns: crate::clock::SECOND,
            rtrace: TracePlan::none(),
        }
    }
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct SimResult {
    pub stats: LatencyStats,
    pub records: Vec<RequestRecord>,
    /// Total socket energy over the run, joules.
    pub energy_j: f64,
    /// Energy ÷ wall time.
    pub avg_power_w: f64,
    /// Simulated wall time from t=0 to the last completion.
    pub duration_ns: Nanos,
    pub traces: Traces,
    pub freq_transitions: u64,
    /// Discrete faults injected by the run's [`FaultPlan`] (0 when the
    /// plan is inactive).
    pub faults_injected: u64,
    /// Completions whose client was still waiting. Without an overload
    /// plan every completion is goodput, so `goodput == stats.count`.
    pub goodput: u64,
    /// Completions after the client abandoned (wasted work).
    pub wasted: u64,
    /// Requests shed at admission (queue full / admission controller).
    pub shed: u64,
    /// Attempts abandoned by their client before completion.
    pub abandoned: u64,
    /// Retries the closed-loop clients injected.
    pub retries: u64,
    /// Server busy-time burned on wasted completions, seconds.
    pub wasted_s: f64,
    /// Deepest the queue ever got.
    pub peak_queue_depth: u64,
}

/// Tumbling-window accumulator behind the per-window
/// [`event::WindowRollup`] stream the fleet health monitor consumes.
/// Active only when the session's recorder is enabled *and*
/// `RunOptions::window_ns > 0`; when inactive every hook is one branch,
/// preserving the telemetry-never-perturbs-results contract (windows
/// close at boundaries the engine visits anyway).
struct WindowTelemetry {
    enabled: bool,
    window_ns: Nanos,
    /// Open-window start and close boundary.
    start: Nanos,
    next: Nanos,
    /// Sequential window ordinal (aligned across same-grid nodes).
    index: u64,
    lat: Histogram,
    timeouts: u64,
    /// Per-window overload counters (goodput / wasted completions,
    /// requests shed at admission).
    good: u64,
    wasted: u64,
    shed: u64,
    /// True meter reading at window start (power = delta / span).
    energy_start_uj: u64,
    /// Tick-sampled mean commanded core frequency.
    freq_sum: f64,
    freq_samples: u64,
}

impl WindowTelemetry {
    fn new(enabled: bool, window_ns: Nanos) -> Self {
        Self {
            enabled: enabled && window_ns > 0,
            window_ns,
            start: 0,
            next: window_ns,
            index: 0,
            lat: Histogram::new(),
            timeouts: 0,
            good: 0,
            wasted: 0,
            shed: 0,
            energy_start_uj: 0,
            freq_sum: 0.0,
            freq_samples: 0,
        }
    }

    #[inline]
    fn on_completion(&mut self, latency_ns: Nanos, timed_out: bool, wasted: bool) {
        if self.enabled {
            self.lat.record(latency_ns);
            if timed_out {
                self.timeouts += 1;
            }
            if wasted {
                self.wasted += 1;
            } else {
                self.good += 1;
            }
        }
    }

    #[inline]
    fn on_shed(&mut self) {
        if self.enabled {
            self.shed += 1;
        }
    }

    /// Sample the commanded frequencies at a governor tick.
    fn on_tick(&mut self, cores: &[CoreState]) {
        let sum: u64 = cores.iter().map(|c| c.freq_mhz as u64).sum();
        self.freq_sum += sum as f64 / cores.len() as f64;
        self.freq_samples += 1;
    }

    /// Close the open window at `now`, emit its rollup, and open the
    /// next one. No-op when nothing has elapsed (a roll at the exact
    /// boundary already happened).
    fn roll(
        &mut self,
        now: Nanos,
        queue_len: u64,
        energy_uj: u64,
        rec: &Recorder,
        exemplars: Vec<u64>,
    ) {
        let span = now - self.start;
        if span == 0 {
            return;
        }
        let delta_uj = energy_uj - self.energy_start_uj;
        // µJ over ns → watts.
        let power_w = delta_uj as f64 * 1000.0 / span as f64;
        let avg_freq_mhz = if self.freq_samples > 0 {
            self.freq_sum / self.freq_samples as f64
        } else {
            0.0
        };
        let mut rollup = event::WindowRollup::from_histogram(
            now,
            self.index,
            span,
            &self.lat,
            self.timeouts,
            power_w,
            avg_freq_mhz,
            queue_len,
        );
        rollup.good = self.good;
        rollup.wasted = self.wasted;
        rollup.shed = self.shed;
        rollup.exemplars = exemplars;
        rec.emit(|| Event::WindowRollup(rollup));
        self.index += 1;
        self.start = now;
        self.next = now + self.window_ns;
        self.lat.reset();
        self.timeouts = 0;
        self.good = 0;
        self.wasted = 0;
        self.shed = 0;
        self.energy_start_uj = energy_uj;
        self.freq_sum = 0.0;
        self.freq_samples = 0;
    }
}

struct Running {
    req: Request,
    started: Nanos,
    remaining_ref_ns: f64,
    /// Real-time wake latency still to pay before work retires (set when
    /// a request is dispatched to a sleeping core; frequency- and
    /// contention-independent).
    wake_remaining_ns: f64,
}

struct CoreState {
    freq_mhz: u32,
    running: Option<Running>,
    /// Current C-state index while idle (`None` = C0).
    sleep: Option<usize>,
}

/// The simulated server.
pub struct Server {
    cfg: ServerConfig,
}

impl Server {
    pub fn new(cfg: ServerConfig) -> Self {
        assert!(cfg.n_cores > 0, "server needs at least one core");
        cfg.freq_plan.validate().expect("invalid frequency plan");
        cfg.cstates.validate().expect("invalid C-state plan");
        assert!(
            cfg.freq_plan.is_valid(cfg.initial_mhz),
            "initial frequency must be a legal level"
        );
        Self { cfg }
    }

    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Simulate `arrivals` (must be sorted by arrival time) to completion
    /// under `governor`. Returns all metrics, energy and traces.
    pub fn run(
        &self,
        arrivals: &[Request],
        governor: &mut dyn Governor,
        opts: RunOptions,
    ) -> SimResult {
        self.run_recorded(arrivals, governor, opts, &Recorder::disabled())
    }

    /// [`run`](Self::run) with a telemetry [`Recorder`]. An enabled
    /// recorder receives per-core [`event::CoreResidency`] at run end,
    /// once-per-simulated-second [`event::LatencySnapshot`]s (read at
    /// governor-tick boundaries from the incremental latency recorder),
    /// and, gated on the [`TraceConfig`] knobs that bound their volume:
    /// [`event::FreqTransition`] on every applied frequency change (when
    /// `freq_sample_ns > 0`) and
    /// [`event::RequestDispatch`]/[`event::RequestComplete`] marks (when
    /// `request_marks` is set).
    ///
    /// Telemetry never adds event times to the simulation (all emission
    /// happens at boundaries the engine visits anyway), so results are
    /// bit-identical whether the recorder is enabled or not.
    pub fn run_recorded(
        &self,
        arrivals: &[Request],
        governor: &mut dyn Governor,
        opts: RunOptions,
        rec: &Recorder,
    ) -> SimResult {
        self.session(arrivals, governor, opts, rec).finish()
    }

    /// [`run_recorded`](Self::run_recorded) with a span [`Profiler`]
    /// attached: engine phases (completions / arrivals+dispatch /
    /// governor tick / trace samples / advance) open wall-clock spans.
    /// Profiling reads the clock but writes nothing into the
    /// simulation, so results stay bit-identical to an unprofiled run.
    pub fn run_profiled(
        &self,
        arrivals: &[Request],
        governor: &mut dyn Governor,
        opts: RunOptions,
        rec: &Recorder,
        prof: &Profiler,
    ) -> SimResult {
        self.session(arrivals, governor, opts, rec)
            .with_profiler(prof)
            .finish()
    }

    /// Start a resumable simulation [`Session`] over `arrivals`.
    ///
    /// The session processes exactly the same event sequence as
    /// [`run_recorded`](Self::run_recorded) — that method is literally
    /// `session(..).finish()` — but can be paused at any simulated time
    /// via [`Session::advance_until`], letting a driver inspect the
    /// server state between events and steer the governor from outside
    /// (the fleet layer advances N node sessions in lockstep epochs and
    /// batches their policy inference).
    pub fn session<'a>(
        &'a self,
        arrivals: &'a [Request],
        governor: &'a mut dyn Governor,
        opts: RunOptions,
        rec: &'a Recorder,
    ) -> Session<'a> {
        assert!(opts.tick_ns > 0, "tick period must be positive");
        debug_assert!(
            arrivals.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "arrivals must be sorted by time"
        );
        let n = self.cfg.n_cores;
        let mut metrics = MetricsCollector::new();
        // Open loop, every arrival completes exactly once: one
        // exact-size record buffer instead of doubling growth.
        if !opts.overload.is_active() {
            metrics.records.reserve_exact(arrivals.len());
        }
        Session {
            cores: (0..n)
                .map(|i| CoreState {
                    freq_mhz: match self.cfg.core_cap(i) {
                        Some(cap) => self.cfg.initial_mhz.min(cap),
                        None => self.cfg.initial_mhz,
                    },
                    running: None,
                    sleep: None,
                })
                .collect(),
            views: Vec::with_capacity(n),
            queue: VecDeque::new(),
            metrics,
            energy: EnergyMeter::new(),
            traces: Traces::default(),
            cmds: FreqCommands::new(n, &self.cfg.freq_plan),
            freq_telem: FreqTelemetry::new(n, rec.enabled(), opts.trace.freq_sample_ns > 0),
            faults: FaultState::new(opts.faults, n),
            overload: OverloadState::new(opts.overload, n),
            dvfs: DvfsController::new(n),
            now: 0,
            arr_idx: 0,
            next_tick: 0,
            // Latency snapshots piggyback on governor ticks (existing
            // event times), at most one per simulated second.
            next_snapshot: crate::clock::SECOND,
            window: WindowTelemetry::new(rec.enabled(), opts.window_ns),
            rtrace: RequestTracer::new(opts.rtrace, rec.enabled()),
            next_freq_sample: if opts.trace.freq_sample_ns > 0 {
                0
            } else {
                Nanos::MAX
            },
            next_power_sample: if opts.trace.power_sample_ns > 0 {
                0
            } else {
                Nanos::MAX
            },
            primed: false,
            finished: false,
            cfg: &self.cfg,
            arrivals,
            governor,
            opts,
            rec,
            prof: Profiler::disabled(),
        }
    }
}

/// A paused-or-running simulation: the full state of one engine event
/// loop, advanceable in bounded time slices. Created by
/// [`Server::session`]; consumed by [`Session::finish`].
pub struct Session<'a> {
    cfg: &'a ServerConfig,
    arrivals: &'a [Request],
    governor: &'a mut dyn Governor,
    opts: RunOptions,
    rec: &'a Recorder,
    prof: Profiler,
    cores: Vec<CoreState>,
    /// Reusable per-core view buffer, refilled from `cores` before each
    /// governor callback (dispatch, tick, run end), so handing the
    /// governor a [`ServerView`] never allocates.
    views: Vec<CoreView>,
    /// The server queue. Unbounded by default — which silently encodes
    /// the paper's *open-loop* assumption: offered load never reacts to
    /// server state, every arrival is eventually served, and the only
    /// visible overload symptom is latency (see
    /// `MetricsCollector::peak_queue_depth` for the high-water mark).
    /// An active [`OverloadPlan`] replaces that assumption with a
    /// bounded queue, shedding and closed-loop clients.
    queue: VecDeque<Request>,
    metrics: MetricsCollector,
    energy: EnergyMeter,
    traces: Traces,
    cmds: FreqCommands,
    freq_telem: FreqTelemetry,
    faults: FaultState,
    overload: OverloadState,
    dvfs: DvfsController,
    now: Nanos,
    arr_idx: usize,
    next_tick: Nanos,
    next_snapshot: Nanos,
    window: WindowTelemetry,
    /// Request-lifecycle tracer (inactive plan = one branch per hook).
    rtrace: RequestTracer,
    next_freq_sample: Nanos,
    next_power_sample: Nanos,
    /// Whether the events at `now` (initially t=0) have been processed.
    primed: bool,
    finished: bool,
}

impl Session<'_> {
    /// Attach a span [`Profiler`] (a cheap handle clone; disabled by
    /// default). Engine phases then open `engine.*` spans; with the
    /// default disabled profiler every span call is one branch.
    pub fn with_profiler(mut self, prof: &Profiler) -> Self {
        self.prof = prof.clone();
        self
    }

    /// Simulated time of the last processed event.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Whether the run has terminated (all arrivals served, all cores
    /// idle; the governor's `on_run_end` has fired).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Process every event at simulated times strictly below `t_stop`,
    /// then pause. Returns `true` when the run terminated instead of
    /// pausing. Calling again with a larger bound resumes seamlessly:
    /// the concatenation of any sequence of `advance_until` calls
    /// processes the identical event sequence as one uninterrupted run.
    pub fn advance_until(&mut self, t_stop: Nanos) -> bool {
        if self.finished {
            return true;
        }
        // One umbrella span over the whole event loop, so the profile
        // also accounts for the scheduling work *between* the phase
        // spans (event selection, loop control) — this is what lets a
        // profiled run's phase table cover ~all of the engine's wall
        // time rather than just the phase bodies.
        let _sp = self.prof.span("engine.run");
        loop {
            if !self.primed {
                self.primed = true;
                if self.process_now() {
                    return true;
                }
            }
            let t_next = self.next_event_time();
            if t_next >= t_stop {
                return false;
            }
            self.advance_to(t_next);
            if self.process_now() {
                return true;
            }
        }
    }

    /// Run to termination (if not already there) and assemble the
    /// [`SimResult`].
    pub fn finish(mut self) -> SimResult {
        // `next_event_time` is always finite (the governor tick never
        // stops), so an unbounded advance runs to termination.
        self.advance_until(Nanos::MAX);
        // Flush the trailing (possibly partial) monitor window before
        // the residency events close out the stream.
        if self.window.enabled {
            let queue_len = self.queue.len() as u64;
            let energy_uj = self.energy.read_energy_uj();
            // Tail exemplars of the trailing window emit first, then
            // their ids ride on its rollup.
            let exemplars = self.rtrace.roll(self.rec);
            self.window
                .roll(self.now, queue_len, energy_uj, self.rec, exemplars);
        } else if self.rtrace.enabled() {
            // No rollup stream to ride on; still flush tail exemplars.
            self.rtrace.roll(self.rec);
        }
        self.freq_telem.finish(self.now, &self.cores, self.rec);
        self.rec
            .set("queue.peak_depth", self.metrics.peak_queue_depth as f64);
        let oc = self.overload.counters;
        SimResult {
            stats: self.metrics.stats(),
            energy_j: self.energy.joules(),
            avg_power_w: self.energy.average_power_w(),
            duration_ns: self.now,
            records: std::mem::take(&mut self.metrics.records),
            traces: self.traces,
            freq_transitions: self.metrics.freq_transitions,
            faults_injected: self.faults.injected,
            goodput: oc.good,
            wasted: oc.wasted,
            shed: oc.shed,
            abandoned: oc.abandoned,
            retries: oc.retries,
            wasted_s: oc.wasted_service_ns as f64 / 1e9,
            peak_queue_depth: self.metrics.peak_queue_depth,
        }
    }

    /// Inspect the paused server through the same [`ServerView`] the
    /// governor sees (unperturbed sensors). The driver-side window into
    /// a node between epochs.
    pub fn with_view<T>(&self, f: impl FnOnce(&ServerView<'_>) -> T) -> T {
        // Once per driver epoch, not per event: a fresh buffer keeps
        // this `&self`.
        let views: Vec<CoreView> = self.cores.iter().map(core_view).collect();
        let view = make_view(
            self.now,
            &self.queue,
            &views,
            &self.metrics,
            &self.energy,
            &self.overload,
        );
        f(&view)
    }

    /// Process phases 0–6 at `self.now`; returns `true` on termination.
    fn process_now(&mut self) -> bool {
        let now = self.now;

        // ---- 0. Fault-plan boundaries at `now` ----
        // Stall windows open/close, and deferred (spiked) DVFS
        // transitions that came due take effect. With an inactive
        // plan both are single-branch no-ops.
        let sp = self.prof.span("engine.completions");
        self.faults.poll_stalls(now, self.rec);
        for (i, core) in self.cores.iter_mut().enumerate() {
            if let Some(target) = self.dvfs.poll(i, now) {
                if target != core.freq_mhz {
                    self.freq_telem
                        .on_transition(now, i, core.freq_mhz, target, self.rec);
                    core.freq_mhz = target;
                    self.metrics.freq_transitions += 1;
                }
            }
        }

        // ---- 1. Completions at `now` ----
        for (core_id, core) in self.cores.iter_mut().enumerate() {
            let done = matches!(&core.running,
                Some(r) if r.remaining_ref_ns <= WORK_EPS && r.wake_remaining_ns <= WORK_EPS);
            if done {
                let running = core.running.take().unwrap();
                // Client-perceived latency: measured from the *first*
                // submission for retried requests (equals the attempt
                // arrival for first attempts, i.e. every request of an
                // open-loop run).
                let latency = now - running.req.client_arrival();
                // Completions run before abandonments at the same
                // timestamp: finishing exactly at the deadline is good.
                let wasted = self
                    .overload
                    .on_completion(running.req.id, now - running.started);
                let record = RequestRecord {
                    id: running.req.id,
                    arrival: running.req.arrival,
                    started: running.started,
                    completed: now,
                    latency,
                    timed_out: latency > running.req.sla,
                };
                self.metrics.on_completion(record);
                self.window.on_completion(latency, record.timed_out, wasted);
                self.rtrace
                    .on_complete(now, running.req.id, wasted, self.rec);
                if self.opts.trace.request_marks {
                    self.traces
                        .marks
                        .push((now, core_id, running.req.id, false));
                    self.rec.emit(|| {
                        Event::RequestComplete(event::RequestComplete {
                            t: now,
                            core: core_id as u64,
                            id: running.req.id,
                            latency_ns: latency,
                            timed_out: record.timed_out,
                        })
                    });
                }
                self.governor
                    .on_request_complete(now, core_id, &running.req, latency);
            }
        }
        drop(sp);

        // ---- 1.5 Client abandonments at `now` ----
        // Deadlines are engine wakeups (see `next_event_time`), so
        // good/wasted classification is exact, not tick-sampled. Runs
        // after completions: a request finishing at its deadline counts
        // as goodput.
        self.overload.expire(now, self.rec, &mut self.rtrace);

        // ---- 2. Arrivals at `now` ----
        // Each workload arrival is offered through admission control,
        // immediately followed by its flash-crowd clones (if a burst
        // window is open); due client retries are offered last, in
        // (due-time, schedule-order) order.
        let sp = self.prof.span("engine.arrivals");
        while self.arr_idx < self.arrivals.len() && self.arrivals[self.arr_idx].arrival <= now {
            let req = self.arrivals[self.arr_idx];
            self.arr_idx += 1;
            let clones = self.overload.burst_clones(req.arrival);
            self.offer(now, req);
            for _ in 0..clones {
                // A burst clone is a *new* client issuing the same
                // request shape, not a retry of the original.
                let id = self.overload.alloc_synth_id();
                self.offer(
                    now,
                    Request {
                        id,
                        client_id: id,
                        attempt: 0,
                        first_arrival: req.arrival,
                        ..req
                    },
                );
            }
        }
        while let Some(retry) = self.overload.pop_due_retry(now) {
            self.offer(now, retry);
        }

        // ---- 3. Dispatch queued requests to idle cores ----
        // Awake idle cores are preferred; a sleeping core is woken
        // only when no awake core is free, and the request then pays
        // the C-state's wake latency. Stalled cores accept nothing.
        let newest_first = self.opts.overload.queue_policy.serves_newest_first();
        while !self.queue.is_empty() {
            let faults = &self.faults;
            let idle = |(i, c): &(usize, &CoreState)| c.running.is_none() && !faults.is_stalled(*i);
            let awake = self
                .cores
                .iter()
                .enumerate()
                .find(|e| idle(e) && e.1.sleep.is_none())
                .map(|(i, _)| i);
            let any_idle =
                awake.or_else(|| self.cores.iter().enumerate().find(idle).map(|(i, _)| i));
            let Some(core_id) = any_idle else { break };
            let req = if newest_first {
                self.queue.pop_back().unwrap()
            } else {
                self.queue.pop_front().unwrap()
            };
            {
                fill_core_views(&mut self.views, &self.cores);
                let view = make_view(
                    now,
                    &self.queue,
                    &self.views,
                    &self.metrics,
                    &self.energy,
                    &self.overload,
                );
                self.governor
                    .on_request_start(&view, core_id, &req, &mut self.cmds);
            }
            apply_commands(
                now,
                &mut self.cores,
                &mut self.cmds,
                self.cfg,
                &mut self.metrics,
                self.rec,
                &mut self.freq_telem,
                &mut self.faults,
                &mut self.dvfs,
            );
            if let Some(frac) = self.cmds.take_admission() {
                self.overload.set_threshold(frac);
            }
            if self.opts.trace.request_marks {
                self.traces.marks.push((now, core_id, req.id, true));
                self.rec.emit(|| {
                    Event::RequestDispatch(event::RequestDispatch {
                        t: now,
                        core: core_id as u64,
                        id: req.id,
                    })
                });
            }
            // Post-command state: the service span records the core
            // frequency and admission threshold actually in effect.
            if self.rtrace.enabled() {
                self.rtrace.on_dispatch(
                    now,
                    req.id,
                    core_id,
                    self.cores[core_id].freq_mhz,
                    self.overload.admit_frac(),
                );
            }
            let wake_ns = self.cores[core_id]
                .sleep
                .take()
                .and_then(|i| self.cfg.cstates.get(i))
                .map(|st| st.wake_ns as f64)
                .unwrap_or(0.0);
            let remaining = req.work_ref_ns as f64;
            self.cores[core_id].running = Some(Running {
                req,
                started: now,
                remaining_ref_ns: remaining,
                wake_remaining_ns: wake_ns,
            });
        }
        drop(sp);

        // ---- 4. Governor tick ----
        if now >= self.next_tick {
            let _sp = self.prof.span("engine.tick");
            {
                // The tick observation goes through the sensor fault
                // model: the governor may see stale counters or a
                // noisy energy reading. Accounting is untouched.
                let reading = self.faults.observe(
                    now,
                    SensorReading {
                        arrived: self.metrics.arrived,
                        completed: self.metrics.completed,
                        timeouts: self.metrics.timeouts,
                        energy_uj: self.energy.read_energy_uj(),
                        shed: self.overload.counters.shed,
                        wasted: self.overload.counters.wasted,
                    },
                    self.rec,
                );
                fill_core_views(&mut self.views, &self.cores);
                let view = make_view_with(now, &self.queue, &self.views, reading);
                self.governor.on_tick(&view, &mut self.cmds);
            }
            apply_commands(
                now,
                &mut self.cores,
                &mut self.cmds,
                self.cfg,
                &mut self.metrics,
                self.rec,
                &mut self.freq_telem,
                &mut self.faults,
                &mut self.dvfs,
            );
            if let Some(frac) = self.cmds.take_admission() {
                self.overload.set_threshold(frac);
            }
            self.next_tick = now + self.opts.tick_ns;
            if self.rec.enabled() && now >= self.next_snapshot {
                let s = self.metrics.quick_stats();
                self.rec.emit(|| {
                    Event::LatencySnapshot(event::LatencySnapshot {
                        t: now,
                        count: s.count,
                        p50_ns: s.p50_ns,
                        p95_ns: s.p95_ns,
                        p99_ns: s.p99_ns,
                        timeouts: s.timeouts,
                    })
                });
                self.next_snapshot = now + crate::clock::SECOND;
            }
            if self.window.enabled {
                self.window.on_tick(&self.cores);
                if now >= self.window.next {
                    let queue_len = self.queue.len() as u64;
                    let energy_uj = self.energy.read_energy_uj();
                    // Exemplar traces first, then the rollup that links
                    // to them (stream order the monitor relies on).
                    let exemplars = self.rtrace.roll(self.rec);
                    self.window
                        .roll(now, queue_len, energy_uj, self.rec, exemplars);
                }
            }
        }

        // ---- 5. Trace samples ----
        let sp = self.prof.span("engine.metrics");
        if now >= self.next_freq_sample {
            for (i, c) in self.cores.iter().enumerate() {
                self.traces.freq.push((now, i, c.freq_mhz));
            }
            self.next_freq_sample = now + self.opts.trace.freq_sample_ns;
        }
        if now >= self.next_power_sample {
            let p = socket_power(self.cfg, &self.cores);
            let busy = self.cores.iter().filter(|c| c.running.is_some()).count();
            self.traces.power.push((now, p, self.queue.len(), busy));
            self.next_power_sample = now + self.opts.trace.power_sample_ns;
        }
        drop(sp);

        // ---- 6. Termination ----
        let all_idle = self.cores.iter().all(|c| c.running.is_none());
        if self.arr_idx == self.arrivals.len()
            && self.queue.is_empty()
            && all_idle
            && !self.overload.retries_pending()
        {
            // The run-end flush is governor work (DRL governors close
            // their last window and may train here), so it gets its own
            // span — DDPG stage spans must never be roots.
            let _sp = self.prof.span("engine.finish");
            fill_core_views(&mut self.views, &self.cores);
            let view = make_view(
                now,
                &self.queue,
                &self.views,
                &self.metrics,
                &self.energy,
                &self.overload,
            );
            self.governor.on_run_end(&view);
            self.finished = true;
            return true;
        }
        false
    }

    /// Offer one request (workload arrival, burst clone or retry) to
    /// the server: admission control, then capacity/overflow policy,
    /// then enqueue. Every offered request counts as arrived.
    fn offer(&mut self, now: Nanos, req: Request) {
        self.metrics.on_arrival();
        // Open (or extend) the request's trace chain before the
        // admission decision, so shed spans land on a known attempt.
        self.rtrace.on_offer(
            now,
            req.id,
            req.client_id,
            req.attempt,
            req.client_arrival(),
            req.sla,
        );
        match self.overload.admit(now, &self.queue) {
            Admit::Accept => {}
            Admit::Reject(reason) => {
                self.overload
                    .on_shed(now, &req, reason, self.rec, &mut self.rtrace);
                self.window.on_shed();
                return;
            }
            Admit::EvictOldest => {
                if let Some(old) = self.queue.pop_front() {
                    self.overload
                        .on_shed(now, &old, "evicted", self.rec, &mut self.rtrace);
                    self.window.on_shed();
                }
            }
        }
        self.overload.on_admitted(now, &req);
        self.queue.push_back(req);
        self.metrics.observe_queue_depth(self.queue.len());
    }

    /// Phase 7: earliest pending event time (always finite — the
    /// governor tick never stops).
    fn next_event_time(&self) -> Nanos {
        let plan = &self.cfg.freq_plan;
        let busy = self.cores.iter().filter(|c| c.running.is_some()).count();
        let inflation = self.cfg.contention.inflation(busy, self.cfg.n_cores);
        let mut t_next = self
            .next_tick
            .min(self.next_freq_sample)
            .min(self.next_power_sample);
        if self.arr_idx < self.arrivals.len() {
            t_next = t_next.min(self.arrivals[self.arr_idx].arrival);
        }
        if let Some(t) = self.dvfs.next_ready() {
            t_next = t_next.min(t);
        }
        if let Some(t) = self.faults.next_stall_change() {
            t_next = t_next.min(t);
        }
        // Client deadlines and due retries are engine wakeups: the
        // good/wasted split is exact, never tick-quantized. A stale
        // deadline (already-answered attempt) wakes the engine for a
        // deterministic no-op.
        if let Some(t) = self.overload.next_event_time() {
            t_next = t_next.min(t);
        }
        for (i, c) in self.cores.iter().enumerate() {
            // A stalled core retires no work: its request has no
            // completion time until the stall window closes (which is
            // itself in the event set above).
            if self.faults.is_stalled(i) {
                continue;
            }
            if let Some(r) = &c.running {
                let t = r.wake_remaining_ns
                    + Request::scaled_time(
                        r.remaining_ref_ns,
                        r.req.freq_sensitivity,
                        c.freq_mhz,
                        plan.reference_mhz,
                        inflation,
                    );
                let tc = self.now + (t.ceil().max(1.0)) as Nanos;
                t_next = t_next.min(tc);
            }
        }
        t_next
    }

    /// Phase 8: integrate energy and retire work up to `t_next`, then
    /// move the clock there.
    fn advance_to(&mut self, t_next: Nanos) {
        debug_assert!(t_next > self.now, "event time did not advance");
        let _sp = self.prof.span("engine.advance");
        let dt = t_next - self.now;
        let plan = &self.cfg.freq_plan;
        let busy = self.cores.iter().filter(|c| c.running.is_some()).count();
        let inflation = self.cfg.contention.inflation(busy, self.cfg.n_cores);
        let p = socket_power(self.cfg, &self.cores);
        self.energy.accumulate(p, dt);
        for (i, c) in self.cores.iter_mut().enumerate() {
            if self.faults.is_stalled(i) {
                continue;
            }
            if let Some(r) = &mut c.running {
                // Wake latency drains first, in real time.
                let mut dt_work = dt as f64;
                if r.wake_remaining_ns > 0.0 {
                    let waking = r.wake_remaining_ns.min(dt_work);
                    r.wake_remaining_ns -= waking;
                    dt_work -= waking;
                }
                if dt_work > 0.0 {
                    let retired = Request::retired_work(
                        dt_work,
                        r.req.freq_sensitivity,
                        c.freq_mhz,
                        plan.reference_mhz,
                        inflation,
                    );
                    r.remaining_ref_ns = (r.remaining_ref_ns - retired).max(0.0);
                }
            }
        }
        self.now = t_next;
    }
}

fn core_view(c: &CoreState) -> CoreView {
    CoreView {
        freq_mhz: c.freq_mhz,
        running: c.running.as_ref().map(|r| RunningView {
            arrival: r.req.arrival,
            started: r.started,
            features: r.req.features,
            sla: r.req.sla,
        }),
        sleeping: c.sleep,
    }
}

/// Refill the session's view buffer in place (its capacity is the core
/// count from the start, so this never allocates).
fn fill_core_views(views: &mut Vec<CoreView>, cores: &[CoreState]) {
    views.clear();
    views.extend(cores.iter().map(core_view));
}

/// Socket power with C-states: a sleeping core draws its state's residual
/// power; an awake idle core its clocked-idle power; a busy core full
/// dynamic power (including while paying wake latency).
fn socket_power(cfg: &ServerConfig, cores: &[CoreState]) -> f64 {
    cfg.power.static_w
        + cores
            .iter()
            .map(|c| match (&c.running, c.sleep) {
                (Some(_), _) => cfg.power.core_power_w(c.freq_mhz, true),
                (None, Some(i)) => cfg.cstates.get(i).map(|s| s.power_w).unwrap_or(0.0),
                (None, None) => cfg.power.core_power_w(c.freq_mhz, false),
            })
            .sum::<f64>()
}

fn make_view<'a>(
    now: Nanos,
    queue: &'a VecDeque<Request>,
    cores: &'a [CoreView],
    metrics: &MetricsCollector,
    energy: &EnergyMeter,
    overload: &OverloadState,
) -> ServerView<'a> {
    make_view_with(
        now,
        queue,
        cores,
        SensorReading {
            arrived: metrics.arrived,
            completed: metrics.completed,
            timeouts: metrics.timeouts,
            energy_uj: energy.read_energy_uj(),
            shed: overload.counters.shed,
            wasted: overload.counters.wasted,
        },
    )
}

/// Build a view from an explicit (possibly fault-perturbed) sensor
/// reading.
fn make_view_with<'a>(
    now: Nanos,
    queue: &'a VecDeque<Request>,
    cores: &'a [CoreView],
    reading: SensorReading,
) -> ServerView<'a> {
    ServerView {
        now,
        queue,
        cores,
        total_arrived: reading.arrived,
        total_completed: reading.completed,
        total_timeouts: reading.timeouts,
        total_shed: reading.shed,
        total_wasted: reading.wasted,
        energy_uj: reading.energy_uj,
    }
}

/// Per-core frequency residency and transition telemetry. Inert (no
/// allocation beyond two empty vecs, no per-event work) when built
/// disabled; when enabled it accumulates residency only at transition
/// boundaries, so tracking cost is O(transitions), not O(events).
struct FreqTelemetry {
    enabled: bool,
    /// Per-transition events can reach ticks × cores over a run
    /// (millions for a long DeepPower rollout), so they are emitted only
    /// when the caller opted into frequency tracing
    /// (`TraceConfig::freq_sample_ns > 0`). Residency aggregates are
    /// bounded by cores × levels and always accompany an enabled
    /// recorder.
    emit_transitions: bool,
    /// When each core entered its current frequency.
    since: Vec<Nanos>,
    /// Core → frequency level → nanoseconds spent there.
    residency: Vec<BTreeMap<u32, Nanos>>,
}

impl FreqTelemetry {
    fn new(n_cores: usize, enabled: bool, emit_transitions: bool) -> Self {
        Self {
            enabled,
            emit_transitions: enabled && emit_transitions,
            since: if enabled {
                vec![0; n_cores]
            } else {
                Vec::new()
            },
            residency: if enabled {
                vec![BTreeMap::new(); n_cores]
            } else {
                Vec::new()
            },
        }
    }

    #[inline]
    fn on_transition(&mut self, now: Nanos, core: usize, from: u32, to: u32, rec: &Recorder) {
        if !self.enabled {
            return;
        }
        *self.residency[core].entry(from).or_insert(0) += now - self.since[core];
        self.since[core] = now;
        if self.emit_transitions {
            rec.emit(|| {
                Event::FreqTransition(event::FreqTransition {
                    t: now,
                    core: core as u64,
                    from_mhz: from,
                    to_mhz: to,
                })
            });
        }
    }

    /// Close every core's final residency interval and emit one
    /// [`event::CoreResidency`] per visited `(core, level)` pair with
    /// nonzero residency, cores then levels ascending.
    fn finish(&mut self, now: Nanos, cores: &[CoreState], rec: &Recorder) {
        if !self.enabled {
            return;
        }
        for (i, core) in cores.iter().enumerate() {
            *self.residency[i].entry(core.freq_mhz).or_insert(0) += now - self.since[i];
        }
        for (i, levels) in self.residency.iter().enumerate() {
            for (&mhz, &ns) in levels {
                if ns > 0 {
                    rec.emit(|| {
                        Event::CoreResidency(event::CoreResidency {
                            core: i as u64,
                            mhz,
                            ns,
                        })
                    });
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn apply_commands(
    now: Nanos,
    cores: &mut [CoreState],
    cmds: &mut FreqCommands,
    cfg: &ServerConfig,
    metrics: &mut MetricsCollector,
    rec: &Recorder,
    freq_telem: &mut FreqTelemetry,
    faults: &mut FaultState,
    dvfs: &mut DvfsController,
) {
    let plan = &cfg.freq_plan;
    let cstates = &cfg.cstates;
    for (i, core) in cores.iter_mut().enumerate() {
        if let Some(mhz) = cmds.take(i) {
            let snapped = if mhz == plan.turbo_mhz {
                mhz
            } else {
                plan.snap(mhz)
            };
            // big.LITTLE cap: a little core silently tops out at its
            // ceiling, whatever the governor commanded (turbo included).
            let snapped = match cfg.core_cap(i) {
                Some(cap) if snapped > cap => {
                    if plan.is_valid(cap) {
                        cap
                    } else {
                        plan.snap(cap)
                    }
                }
                _ => snapped,
            };
            if dvfs.in_transition(i) {
                // A write while a (spiked) transition is in flight is
                // rejected — the stuck-cpufreq case. Not an injected
                // fault itself, so it is only counted.
                rec.add("faults.dvfs_busy", 1);
            } else if snapped != core.freq_mhz {
                let fault = faults.draw_dvfs();
                match dvfs.request(i, now, core.freq_mhz, snapped, fault) {
                    TransitionOutcome::Applied => {
                        freq_telem.on_transition(now, i, core.freq_mhz, snapped, rec);
                        core.freq_mhz = snapped;
                        metrics.freq_transitions += 1;
                    }
                    TransitionOutcome::Deferred { ready_at } => {
                        faults.record(rec, now, "dvfs-spike", i as i64, (ready_at - now) as f64);
                    }
                    TransitionOutcome::Failed => {
                        faults.record(rec, now, "dvfs-fail", i as i64, snapped as f64);
                    }
                    TransitionOutcome::Rejected | TransitionOutcome::NoOp => {}
                }
            }
        }
        if let Some(level) = cmds.take_sleep(i) {
            // Only idle cores may sleep; invalid levels are ignored.
            if core.running.is_none() && cstates.get(level).is_some() {
                core.sleep = Some(level);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{MILLISECOND, SECOND};
    use crate::governor::FixedFrequency;
    use crate::request::Features;

    fn req(id: u64, arrival: Nanos, work: Nanos) -> Request {
        Request {
            id,
            client_id: id,
            attempt: 0,
            arrival,
            first_arrival: arrival,
            work_ref_ns: work,
            freq_sensitivity: 1.0,
            sla: 10 * MILLISECOND,
            features: Features::default(),
        }
    }

    fn one_core_server() -> Server {
        Server::new(ServerConfig {
            n_cores: 1,
            freq_plan: FreqPlan::xeon_gold_5218r(),
            power: PowerModel::default(),
            contention: ContentionModel::none(),
            initial_mhz: 2100,
            cstates: crate::CStatePlan::none(),
            core_max_mhz: Vec::new(),
        })
    }

    #[test]
    fn single_request_latency_equals_work_at_reference_frequency() {
        let server = one_core_server();
        let arrivals = vec![req(0, 0, 2 * MILLISECOND)];
        let mut gov = FixedFrequency { mhz: 2100 };
        let res = server.run(&arrivals, &mut gov, RunOptions::default());
        assert_eq!(res.stats.count, 1);
        // Exact to within the 1 ns ceil.
        assert!(res.records[0].latency.abs_diff(2 * MILLISECOND) <= 1);
        assert_eq!(res.stats.timeouts, 0);
    }

    #[test]
    fn half_frequency_doubles_service_time() {
        let server = one_core_server();
        let arrivals = vec![req(0, 0, 2 * MILLISECOND)];
        // 1050 MHz is an available level? Nearest is 1000 or 1100; use 1050→snap.
        let mut gov = FixedFrequency { mhz: 1000 };
        let res = server.run(&arrivals, &mut gov, RunOptions::default());
        let expected = 2 * MILLISECOND * 2100 / 1000;
        assert!(
            res.records[0].latency.abs_diff(expected) <= 2,
            "latency {} vs expected {expected}",
            res.records[0].latency
        );
    }

    #[test]
    fn fifo_queueing_on_one_core() {
        let server = one_core_server();
        // Two requests arrive together; second waits for the first.
        let arrivals = vec![req(0, 0, MILLISECOND), req(1, 0, MILLISECOND)];
        let mut gov = FixedFrequency { mhz: 2100 };
        let res = server.run(&arrivals, &mut gov, RunOptions::default());
        let r0 = res.records.iter().find(|r| r.id == 0).unwrap();
        let r1 = res.records.iter().find(|r| r.id == 1).unwrap();
        assert!(r0.latency.abs_diff(MILLISECOND) <= 1);
        assert!(r1.latency.abs_diff(2 * MILLISECOND) <= 2);
        assert!(r1.started >= r0.completed);
    }

    #[test]
    fn two_cores_run_in_parallel() {
        let server = Server::new(ServerConfig {
            n_cores: 2,
            contention: ContentionModel::none(),
            ..ServerConfig::paper_default(2)
        });
        let arrivals = vec![req(0, 0, MILLISECOND), req(1, 0, MILLISECOND)];
        let mut gov = FixedFrequency { mhz: 2100 };
        let res = server.run(&arrivals, &mut gov, RunOptions::default());
        for r in &res.records {
            assert!(
                r.latency.abs_diff(MILLISECOND) <= 1,
                "latency {}",
                r.latency
            );
        }
    }

    #[test]
    fn little_core_cap_holds_for_initial_and_commanded_frequency() {
        let server = Server::new(ServerConfig {
            n_cores: 2,
            contention: ContentionModel::none(),
            core_max_mhz: vec![2100, 1100],
            ..ServerConfig::paper_default(2)
        });
        // Two simultaneous requests land on both cores; the governor
        // commands the full 2100 MHz everywhere but core 1 is capped.
        let arrivals = vec![req(0, 0, 2 * MILLISECOND), req(1, 0, 2 * MILLISECOND)];
        let mut gov = FixedFrequency { mhz: 2100 };
        let res = server.run(&arrivals, &mut gov, RunOptions::default());
        let mut lats: Vec<u64> = res.records.iter().map(|r| r.latency).collect();
        lats.sort_unstable();
        let big = 2 * MILLISECOND;
        let little = 2 * MILLISECOND * 2100 / 1100;
        assert!(lats[0].abs_diff(big) <= 2, "big-core latency {}", lats[0]);
        assert!(
            lats[1].abs_diff(little) <= 2,
            "little-core latency {} vs {little}",
            lats[1]
        );
    }

    #[test]
    fn timeout_flagged_when_latency_exceeds_sla() {
        let server = one_core_server();
        let mut r = req(0, 0, 20 * MILLISECOND);
        r.sla = 5 * MILLISECOND;
        let mut gov = FixedFrequency { mhz: 2100 };
        let res = server.run(&[r], &mut gov, RunOptions::default());
        assert_eq!(res.stats.timeouts, 1);
    }

    #[test]
    fn contention_slows_down_parallel_work() {
        let make = |contention| {
            Server::new(ServerConfig {
                n_cores: 2,
                contention,
                ..ServerConfig::paper_default(2)
            })
        };
        let arrivals = vec![req(0, 0, MILLISECOND), req(1, 0, MILLISECOND)];
        let mut gov = FixedFrequency { mhz: 2100 };
        let clean = make(ContentionModel::none()).run(&arrivals, &mut gov, RunOptions::default());
        let contended = make(ContentionModel {
            coeff: 0.5,
            exponent: 1.0,
        })
        .run(&arrivals, &mut gov, RunOptions::default());
        assert!(
            contended.stats.mean_ns > clean.stats.mean_ns * 1.3,
            "contention had no effect: {} vs {}",
            contended.stats.mean_ns,
            clean.stats.mean_ns
        );
    }

    #[test]
    fn energy_scales_with_frequency() {
        let server = one_core_server();
        let arrivals = vec![req(0, 0, 50 * MILLISECOND)];
        let mut hi = FixedFrequency { mhz: 2100 };
        let mut lo = FixedFrequency { mhz: 800 };
        let res_hi = server.run(&arrivals, &mut hi, RunOptions::default());
        let res_lo = server.run(&arrivals, &mut lo, RunOptions::default());
        // Low frequency: longer runtime but lower average power.
        assert!(res_lo.duration_ns > res_hi.duration_ns);
        assert!(res_lo.avg_power_w < res_hi.avg_power_w);
    }

    #[test]
    fn deterministic_across_runs() {
        let server = Server::new(ServerConfig::paper_default(4));
        let arrivals: Vec<Request> = (0..50)
            .map(|i| req(i, i * 100_000, 300_000 + (i % 7) * 50_000))
            .collect();
        let mut g1 = FixedFrequency { mhz: 1500 };
        let mut g2 = FixedFrequency { mhz: 1500 };
        let a = server.run(&arrivals, &mut g1, RunOptions::default());
        let b = server.run(&arrivals, &mut g2, RunOptions::default());
        assert_eq!(a.records, b.records);
        assert_eq!(a.energy_j, b.energy_j);
    }

    #[test]
    fn governor_tick_fires_at_requested_period() {
        struct TickCounter {
            ticks: u64,
        }
        impl Governor for TickCounter {
            fn on_tick(&mut self, _v: &ServerView<'_>, _c: &mut FreqCommands) {
                self.ticks += 1;
            }
        }
        let server = one_core_server();
        let arrivals = vec![req(0, 0, 10 * MILLISECOND)];
        let mut gov = TickCounter { ticks: 0 };
        let _ = server.run(
            &arrivals,
            &mut gov,
            RunOptions {
                tick_ns: MILLISECOND,
                ..Default::default()
            },
        );
        // ~10 ms of simulated time at a 1 ms tick → 10-11 ticks.
        assert!((10..=12).contains(&gov.ticks), "ticks {}", gov.ticks);
    }

    #[test]
    fn freq_trace_records_all_cores() {
        let server = Server::new(ServerConfig::paper_default(3));
        let arrivals = vec![req(0, 0, 5 * MILLISECOND)];
        let mut gov = FixedFrequency { mhz: 1200 };
        let res = server.run(
            &arrivals,
            &mut gov,
            RunOptions {
                trace: TraceConfig::millisecond(),
                ..Default::default()
            },
        );
        assert!(!res.traces.freq.is_empty());
        let core_ids: std::collections::HashSet<usize> =
            res.traces.freq.iter().map(|&(_, c, _)| c).collect();
        assert_eq!(core_ids.len(), 3);
        // Request marks: one start, one end.
        let starts = res.traces.marks.iter().filter(|m| m.3).count();
        let ends = res.traces.marks.iter().filter(|m| !m.3).count();
        assert_eq!(starts, 1);
        assert_eq!(ends, 1);
    }

    #[test]
    fn request_level_governor_hook_sets_frequency_at_start() {
        struct PerRequest;
        impl Governor for PerRequest {
            fn on_request_start(
                &mut self,
                _view: &ServerView<'_>,
                core_id: usize,
                _req: &Request,
                cmds: &mut FreqCommands,
            ) {
                cmds.set(core_id, 800);
            }
        }
        let server = one_core_server();
        let arrivals = vec![req(0, 0, MILLISECOND)];
        let mut gov = PerRequest;
        let res = server.run(&arrivals, &mut gov, RunOptions::default());
        // Work ran at 800 MHz instead of the initial 2100.
        let expected = MILLISECOND * 2100 / 800;
        assert!(
            res.records[0].latency.abs_diff(expected) <= 2,
            "latency {}",
            res.records[0].latency
        );
        assert_eq!(res.freq_transitions, 1);
    }

    #[test]
    fn idle_run_terminates_immediately() {
        let server = one_core_server();
        let mut gov = FixedFrequency { mhz: 2100 };
        let res = server.run(&[], &mut gov, RunOptions::default());
        assert_eq!(res.stats.count, 0);
        assert_eq!(res.duration_ns, 0);
    }

    #[test]
    fn long_workload_completes_and_conserves_requests() {
        let server = Server::new(ServerConfig::paper_default(8));
        let arrivals: Vec<Request> = (0..2000)
            .map(|i| req(i, i * 200_000, 500_000 + (i % 13) * 100_000))
            .collect();
        let mut gov = FixedFrequency { mhz: 2100 };
        let res = server.run(&arrivals, &mut gov, RunOptions::default());
        assert_eq!(res.stats.count, 2000);
        assert!(res.duration_ns >= 2000 * 200_000);
        assert!(res.energy_j > 0.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = ServerConfig::paper_default(0);
        cfg.n_cores = 0;
        assert!(std::panic::catch_unwind(|| Server::new(cfg)).is_err());
        let mut cfg = ServerConfig::paper_default(2);
        cfg.initial_mhz = 12345;
        assert!(std::panic::catch_unwind(|| Server::new(cfg)).is_err());
    }

    #[test]
    fn recorded_run_matches_plain_run_and_captures_events() {
        let server = Server::new(ServerConfig::paper_default(2));
        let arrivals: Vec<Request> = (0..200)
            .map(|i| req(i, i * 10_000_000, 400_000 + (i % 5) * 100_000))
            .collect();
        let opts = RunOptions {
            trace: TraceConfig::millisecond(),
            ..Default::default()
        };
        struct Stepper;
        impl Governor for Stepper {
            fn on_tick(&mut self, v: &ServerView<'_>, cmds: &mut FreqCommands) {
                // Alternate frequencies so transitions actually happen.
                let mhz = if (v.now / MILLISECOND).is_multiple_of(2) {
                    800
                } else {
                    2100
                };
                for i in 0..v.cores.len() {
                    cmds.set(i, mhz);
                }
            }
        }
        let plain = server.run(&arrivals, &mut Stepper, opts);
        let recorder = deeppower_telemetry::Recorder::ring(1 << 16);
        let recorded = server.run_recorded(&arrivals, &mut Stepper, opts, &recorder);

        // Telemetry must not perturb the simulation.
        assert_eq!(plain.records, recorded.records);
        assert_eq!(plain.energy_j, recorded.energy_j);
        assert_eq!(plain.freq_transitions, recorded.freq_transitions);

        let events = recorder.drain_events();
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count() as u64;
        assert_eq!(count("FreqTransition"), recorded.freq_transitions);
        assert_eq!(count("RequestDispatch"), 200);
        assert_eq!(count("RequestComplete"), 200);
        assert!(count("LatencySnapshot") >= 1, "run spans ~2 s");
        // Residency across levels sums to cores × duration.
        let total_residency: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::CoreResidency(r) => Some(r.ns),
                _ => None,
            })
            .sum();
        assert_eq!(total_residency, 2 * recorded.duration_ns);
        assert_eq!(recorder.dropped_events(), 0);
    }

    #[test]
    fn window_rollups_partition_the_run() {
        let server = Server::new(ServerConfig::paper_default(2));
        let arrivals: Vec<Request> = (0..300)
            .map(|i| req(i, i * 10_000_000, 400_000 + (i % 7) * 100_000))
            .collect();
        let mut gov = FixedFrequency { mhz: 2100 };
        let recorder = deeppower_telemetry::Recorder::ring(1 << 14);
        let res = server.run_recorded(&arrivals, &mut gov, RunOptions::default(), &recorder);
        let events = recorder.drain_events();
        let rollups: Vec<&event::WindowRollup> = events
            .iter()
            .filter_map(|e| match e {
                Event::WindowRollup(w) => Some(w),
                _ => None,
            })
            .collect();
        // ~3 s run, 1 s windows (plus a trailing partial window).
        assert!(rollups.len() >= 3, "got {} rollups", rollups.len());
        // Indices are sequential from 0 and times strictly increase.
        for (i, w) in rollups.iter().enumerate() {
            assert_eq!(w.index, i as u64);
            assert!(w.window_ns > 0);
            assert!(w.power_w > 0.0, "window {i} saw no energy");
        }
        assert!(rollups.windows(2).all(|p| p[0].t < p[1].t));
        // Windows partition the run: counts/timeouts sum to the run
        // totals, spans sum to the run duration, last window closes at
        // run end.
        assert_eq!(
            rollups.iter().map(|w| w.count).sum::<u64>(),
            res.stats.count
        );
        assert_eq!(
            rollups.iter().map(|w| w.timeouts).sum::<u64>(),
            res.stats.timeouts
        );
        assert_eq!(
            rollups.iter().map(|w| w.window_ns).sum::<u64>(),
            res.duration_ns
        );
        assert_eq!(rollups.last().unwrap().t, res.duration_ns);
        // All non-final windows span exactly the nominal second.
        for w in &rollups[..rollups.len() - 1] {
            assert_eq!(w.window_ns, crate::clock::SECOND);
        }
        // Per-window percentiles stay within the window extremes, and
        // the bucket arrays carry the whole window count.
        for w in &rollups {
            if w.count > 0 {
                assert!(w.min_ns <= w.p50_ns && w.p50_ns <= w.p99_ns && w.p99_ns <= w.max_ns);
                assert_eq!(w.bucket_counts.iter().sum::<u64>(), w.count);
                assert_eq!(w.bucket_ubs.len(), w.bucket_counts.len());
            }
        }

        // window_ns = 0 disables rollups without touching results.
        let mut gov2 = FixedFrequency { mhz: 2100 };
        let rec2 = deeppower_telemetry::Recorder::ring(1 << 14);
        let res2 = server.run_recorded(
            &arrivals,
            &mut gov2,
            RunOptions {
                window_ns: 0,
                ..Default::default()
            },
            &rec2,
        );
        assert_eq!(res.records, res2.records);
        assert_eq!(res.energy_j.to_bits(), res2.energy_j.to_bits());
        assert!(rec2
            .drain_events()
            .iter()
            .all(|e| e.kind() != "WindowRollup"));
    }

    #[test]
    fn profiled_run_is_bit_identical_and_captures_phase_spans() {
        let server = Server::new(ServerConfig::paper_default(2));
        let arrivals: Vec<Request> = (0..200)
            .map(|i| req(i, i * 10_000_000, 400_000 + (i % 5) * 100_000))
            .collect();
        let opts = RunOptions {
            trace: TraceConfig::millisecond(),
            ..Default::default()
        };
        let mut gov = FixedFrequency { mhz: 2100 };
        let plain = server.run(&arrivals, &mut gov, opts);
        let prof = deeppower_telemetry::Profiler::enabled();
        let profiled = server.run_profiled(
            &arrivals,
            &mut gov,
            opts,
            &deeppower_telemetry::Recorder::disabled(),
            &prof,
        );

        // Profiling reads the wall clock but must not perturb the
        // simulation: results are bit-identical.
        assert_eq!(plain.records, profiled.records);
        assert_eq!(plain.energy_j.to_bits(), profiled.energy_j.to_bits());
        assert_eq!(plain.freq_transitions, profiled.freq_transitions);

        let rows = prof.phase_table();
        let count = |name: &str| rows.iter().find(|r| r.name == name).map_or(0, |r| r.count);
        for phase in [
            "engine.completions",
            "engine.arrivals",
            "engine.tick",
            "engine.metrics",
            "engine.advance",
        ] {
            assert!(count(phase) > 0, "no {phase} spans recorded");
        }
        // Each processed event visits completions/arrivals/metrics once.
        assert_eq!(count("engine.completions"), count("engine.arrivals"));
        assert_eq!(count("engine.completions"), count("engine.metrics"));
    }

    #[test]
    fn fault_free_plan_with_nonzero_seed_is_transparent() {
        // A plan whose knobs are all zero must be bit-identical to the
        // default run regardless of its seed.
        let server = Server::new(ServerConfig::paper_default(4));
        let arrivals: Vec<Request> = (0..100)
            .map(|i| req(i, i * 150_000, 300_000 + (i % 5) * 80_000))
            .collect();
        let base = server.run(
            &arrivals,
            &mut FixedFrequency { mhz: 1500 },
            RunOptions::default(),
        );
        let seeded = server.run(
            &arrivals,
            &mut FixedFrequency { mhz: 1500 },
            RunOptions {
                faults: crate::FaultPlan {
                    seed: 12345,
                    ..crate::FaultPlan::none()
                },
                ..Default::default()
            },
        );
        assert_eq!(base.records, seeded.records);
        assert_eq!(base.energy_j.to_bits(), seeded.energy_j.to_bits());
        assert_eq!(seeded.faults_injected, 0);
    }

    #[test]
    fn certain_dvfs_failure_pins_initial_frequency() {
        let server = one_core_server();
        let arrivals = vec![req(0, 0, 2 * MILLISECOND)];
        let opts = RunOptions {
            faults: crate::FaultPlan {
                seed: 1,
                dvfs_fail_prob: 1.0,
                ..crate::FaultPlan::none()
            },
            ..Default::default()
        };
        let rec = deeppower_telemetry::Recorder::ring(1 << 12);
        let res = server.run_recorded(&arrivals, &mut FixedFrequency { mhz: 800 }, opts, &rec);
        // Every write is dropped: the core stays at the initial 2100 MHz.
        assert_eq!(res.freq_transitions, 0);
        assert!(res.records[0].latency.abs_diff(2 * MILLISECOND) <= 1);
        assert!(res.faults_injected > 0);
        let events = rec.drain_events();
        let fails = events
            .iter()
            .filter(|e| matches!(e, Event::FaultInjected(f) if f.kind == "dvfs-fail"))
            .count() as u64;
        assert_eq!(fails, res.faults_injected);
        assert_eq!(rec.counter("faults.injected"), res.faults_injected);
    }

    #[test]
    fn dvfs_spikes_defer_transitions_but_land() {
        let server = one_core_server();
        let arrivals = vec![req(0, 0, 10 * MILLISECOND)];
        let opts = RunOptions {
            faults: crate::FaultPlan {
                seed: 2,
                dvfs_spike_prob: 1.0,
                dvfs_spike_min_ns: 50_000,
                dvfs_spike_max_ns: 200_000,
                ..crate::FaultPlan::none()
            },
            ..Default::default()
        };
        let res = server.run(&arrivals, &mut FixedFrequency { mhz: 800 }, opts);
        // The spiked transition eventually lands (exactly one: after it,
        // commands target the current frequency and are no-ops).
        assert_eq!(res.freq_transitions, 1);
        // Work ran slower than at 2100 the whole way, but faster than if
        // the write had been dropped entirely.
        let at_800 = 10 * MILLISECOND * 2100 / 800;
        assert!(res.records[0].latency > 10 * MILLISECOND);
        assert!(res.records[0].latency <= at_800 + MILLISECOND);
    }

    #[test]
    fn core_stall_delays_service() {
        let server = one_core_server();
        let arrivals = vec![req(0, 0, 4 * MILLISECOND)];
        let stall = crate::FaultPlan {
            seed: 3,
            stall_period_ns: 2 * MILLISECOND,
            stall_duration_ns: MILLISECOND,
            ..crate::FaultPlan::none()
        };
        let opts = RunOptions {
            faults: stall,
            ..Default::default()
        };
        let clean = server.run(
            &arrivals,
            &mut FixedFrequency { mhz: 2100 },
            RunOptions::default(),
        );
        let faulted = server.run(&arrivals, &mut FixedFrequency { mhz: 2100 }, opts);
        // The request crosses one 1 ms stall window at t=2 ms.
        assert!(clean.records[0].latency.abs_diff(4 * MILLISECOND) <= 1);
        assert!(
            faulted.records[0].latency >= clean.records[0].latency + MILLISECOND,
            "stall did not delay the request: {} vs {}",
            faulted.records[0].latency,
            clean.records[0].latency
        );
        assert!(faulted.faults_injected >= 1);
    }

    #[test]
    fn faulted_runs_are_deterministic_and_replayable() {
        let server = Server::new(ServerConfig::paper_default(4));
        let arrivals: Vec<Request> = (0..300)
            .map(|i| req(i, i * 120_000, 250_000 + (i % 9) * 60_000))
            .collect();
        let plan = crate::FaultPlan {
            seed: 77,
            dvfs_fail_prob: 0.2,
            dvfs_spike_prob: 0.2,
            dvfs_spike_min_ns: 10_000,
            dvfs_spike_max_ns: 100_000,
            stall_period_ns: 5 * MILLISECOND,
            stall_duration_ns: MILLISECOND,
            sensor_drop_prob: 0.2,
            power_noise_frac: 0.1,
        };
        let opts = RunOptions {
            faults: plan,
            ..Default::default()
        };
        struct Stepper;
        impl Governor for Stepper {
            fn on_tick(&mut self, v: &ServerView<'_>, cmds: &mut FreqCommands) {
                let mhz = if (v.now / MILLISECOND).is_multiple_of(2) {
                    800
                } else {
                    2100
                };
                for i in 0..v.cores.len() {
                    cmds.set(i, mhz);
                }
            }
        }
        let rec_a = deeppower_telemetry::Recorder::ring(1 << 16);
        let rec_b = deeppower_telemetry::Recorder::ring(1 << 16);
        let a = server.run_recorded(&arrivals, &mut Stepper, opts, &rec_a);
        let b = server.run_recorded(&arrivals, &mut Stepper, opts, &rec_b);
        assert_eq!(a.records, b.records);
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(a.faults_injected, b.faults_injected);
        assert!(a.faults_injected > 0, "matrix plan injected nothing");
        assert_eq!(rec_a.drain_events(), rec_b.drain_events());
        // And the faulted run differs from the fault-free one.
        let clean = server.run(&arrivals, &mut Stepper, RunOptions::default());
        assert_ne!(clean.records, a.records);
    }

    #[test]
    fn inactive_overload_plan_with_nonzero_seed_is_transparent() {
        // An overload plan with every knob at zero must be bit-identical
        // to the default run regardless of its seed, with every
        // completion counted as goodput.
        let server = Server::new(ServerConfig::paper_default(4));
        let arrivals: Vec<Request> = (0..100)
            .map(|i| req(i, i * 150_000, 300_000 + (i % 5) * 80_000))
            .collect();
        let base = server.run(
            &arrivals,
            &mut FixedFrequency { mhz: 1500 },
            RunOptions::default(),
        );
        let seeded = server.run(
            &arrivals,
            &mut FixedFrequency { mhz: 1500 },
            RunOptions {
                overload: crate::OverloadPlan {
                    seed: 98765,
                    ..crate::OverloadPlan::none()
                },
                ..Default::default()
            },
        );
        assert_eq!(base.records, seeded.records);
        assert_eq!(base.energy_j.to_bits(), seeded.energy_j.to_bits());
        assert_eq!(seeded.goodput, seeded.stats.count);
        assert_eq!(seeded.wasted, 0);
        assert_eq!(seeded.shed, 0);
        assert_eq!(seeded.retries, 0);
        assert!(seeded.peak_queue_depth >= 1);
    }

    #[test]
    fn bounded_queue_sheds_and_conserves_requests() {
        // One core, capacity 2, a burst of 10 simultaneous requests:
        // arrivals enqueue before dispatch at the same timestamp, so
        // two are admitted and eight shed.
        let server = one_core_server();
        let arrivals: Vec<Request> = (0..10).map(|i| req(i, 0, MILLISECOND)).collect();
        let opts = RunOptions {
            overload: crate::OverloadPlan {
                queue_capacity: 2,
                ..crate::OverloadPlan::none()
            },
            ..Default::default()
        };
        let rec = deeppower_telemetry::Recorder::ring(1 << 10);
        let res = server.run_recorded(&arrivals, &mut FixedFrequency { mhz: 2100 }, opts, &rec);
        assert_eq!(res.shed, 8);
        assert_eq!(res.stats.count, 2);
        assert_eq!(res.goodput + res.wasted, res.stats.count);
        assert_eq!(res.peak_queue_depth, 2);
        let events = rec.drain_events();
        let sheds = events.iter().filter(|e| e.kind() == "Shed").count() as u64;
        assert_eq!(sheds, res.shed);
        assert_eq!(rec.counter("overload.shed"), res.shed);
    }

    #[test]
    fn lifo_serves_newest_queued_request_first() {
        let server = one_core_server();
        // id 0 dispatches at t=0; 1..=3 arrive while it runs and queue
        // behind it. LIFO pops the newest (3) first, the oldest (1) last.
        let arrivals: Vec<Request> = (0..4)
            .map(|i| req(i, if i == 0 { 0 } else { 100_000 }, MILLISECOND))
            .collect();
        let opts = RunOptions {
            overload: crate::OverloadPlan {
                queue_policy: crate::QueuePolicy::Lifo,
                queue_capacity: 16,
                ..crate::OverloadPlan::none()
            },
            ..Default::default()
        };
        let res = server.run(&arrivals, &mut FixedFrequency { mhz: 2100 }, opts);
        let order: Vec<u64> = {
            let mut recs = res.records.clone();
            recs.sort_by_key(|r| r.started);
            recs.iter().map(|r| r.id).collect()
        };
        assert_eq!(order, vec![0, 3, 2, 1]);
    }

    #[test]
    fn drop_oldest_evicts_queue_head_for_new_arrivals() {
        let server = one_core_server();
        // Capacity 2: id 0 runs, 1 and 2 queue; 3 and 4 evict 1 and 2.
        let arrivals: Vec<Request> = (0..5)
            .map(|i| req(i, i * 1_000, 10 * MILLISECOND))
            .collect();
        let opts = RunOptions {
            overload: crate::OverloadPlan {
                queue_capacity: 2,
                queue_policy: crate::QueuePolicy::DropOldest,
                ..crate::OverloadPlan::none()
            },
            ..Default::default()
        };
        let res = server.run(&arrivals, &mut FixedFrequency { mhz: 2100 }, opts);
        assert_eq!(res.shed, 2);
        let served: Vec<u64> = {
            let mut ids: Vec<u64> = res.records.iter().map(|r| r.id).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(served, vec![0, 3, 4]);
    }

    #[test]
    fn client_timeout_yields_wasted_work_and_retries_measure_from_first_submission() {
        // One slow request: the client abandons after 2 ms, retries
        // once (p=1), and the retry also runs to completion. The
        // original completion is wasted work; the retry's latency is
        // client-perceived (measured from the first submission).
        let server = one_core_server();
        let arrivals = vec![req(0, 0, 5 * MILLISECOND)];
        let opts = RunOptions {
            overload: crate::OverloadPlan {
                client_timeout_ns: 2 * MILLISECOND,
                retry_prob: 1.0,
                max_attempts: 2,
                retry_backoff_ns: MILLISECOND,
                ..crate::OverloadPlan::none()
            },
            ..Default::default()
        };
        let rec = deeppower_telemetry::Recorder::ring(1 << 10);
        let res = server.run_recorded(&arrivals, &mut FixedFrequency { mhz: 2100 }, opts, &rec);
        assert_eq!(res.abandoned, 2, "both attempts abandoned");
        assert_eq!(res.retries, 1);
        assert_eq!(res.wasted, 2, "both completions answered nobody");
        assert_eq!(res.goodput, 0);
        assert!(res.wasted_s > 0.0);
        let retry_rec = res
            .records
            .iter()
            .find(|r| r.id >= crate::SYNTH_ID_BASE)
            .expect("retry attempt completed");
        // Retry submitted at ~3 ms, served after the original drains at
        // ~5 ms, completes at ~10 ms: client-perceived latency spans
        // from t=0, well beyond the attempt's own service time.
        assert_eq!(retry_rec.latency, retry_rec.completed);
        assert!(retry_rec.latency > retry_rec.completed - retry_rec.arrival);
        let kinds: Vec<&str> = rec
            .drain_events()
            .iter()
            .map(|e| e.kind())
            .filter(|k| ["Shed", "Abandoned", "Retry"].contains(k))
            .collect();
        assert_eq!(kinds, vec!["Abandoned", "Retry", "Abandoned"]);
    }

    #[test]
    fn overloaded_faulted_runs_are_deterministic_and_replayable() {
        // Retry traffic and fault injection together replay
        // bit-identically: same seeds ⇒ identical records, energy,
        // counters and event stream.
        let server = Server::new(ServerConfig::paper_default(4));
        let arrivals: Vec<Request> = (0..300)
            .map(|i| req(i, i * 120_000, 250_000 + (i % 9) * 60_000))
            .collect();
        let opts = RunOptions {
            faults: crate::FaultPlan {
                seed: 77,
                dvfs_fail_prob: 0.2,
                stall_period_ns: 5 * MILLISECOND,
                stall_duration_ns: MILLISECOND,
                sensor_drop_prob: 0.2,
                ..crate::FaultPlan::none()
            },
            overload: crate::OverloadPlan {
                seed: 42,
                queue_capacity: 8,
                client_timeout_ns: 2 * MILLISECOND,
                retry_prob: 0.7,
                max_attempts: 3,
                retry_backoff_ns: 500_000,
                retry_jitter_ns: 200_000,
                ..crate::OverloadPlan::none()
            },
            ..Default::default()
        };
        let rec_a = deeppower_telemetry::Recorder::ring(1 << 16);
        let rec_b = deeppower_telemetry::Recorder::ring(1 << 16);
        let a = server.run_recorded(&arrivals, &mut FixedFrequency { mhz: 1000 }, opts, &rec_a);
        let b = server.run_recorded(&arrivals, &mut FixedFrequency { mhz: 1000 }, opts, &rec_b);
        assert_eq!(a.records, b.records);
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(
            (a.goodput, a.wasted, a.shed, a.abandoned, a.retries),
            (b.goodput, b.wasted, b.shed, b.abandoned, b.retries)
        );
        assert_eq!(rec_a.drain_events(), rec_b.drain_events());
        assert!(a.retries > 0, "storm plan produced no retries");
        assert!(a.faults_injected > 0, "fault plan injected nothing");
        // Goodput + wasted partition the completions.
        assert_eq!(a.goodput + a.wasted, a.stats.count);
    }

    #[test]
    fn draining_respects_late_arrivals() {
        // A request arriving long after the first completes must still be
        // served (the engine idles forward to it).
        let server = one_core_server();
        let arrivals = vec![req(0, 0, MILLISECOND), req(1, 2 * SECOND, MILLISECOND)];
        let mut gov = FixedFrequency { mhz: 2100 };
        let res = server.run(&arrivals, &mut gov, RunOptions::default());
        assert_eq!(res.stats.count, 2);
        let r1 = res.records.iter().find(|r| r.id == 1).unwrap();
        assert!(r1.started >= 2 * SECOND);
    }

    /// Request-lifecycle tracing must never perturb the simulation:
    /// an overloaded, faulted run with tracing at full sampling is
    /// bit-identical (records, energy, counters) to the same run with
    /// tracing off — and the emitted traces are internally consistent:
    /// chain latency matches the completion record's client-perceived
    /// latency, rollup exemplar ids resolve to emitted traces, and
    /// retry chains carry their shed/backoff spans.
    #[test]
    fn request_tracing_never_perturbs_results_and_links_exemplars() {
        let server = Server::new(ServerConfig::paper_default(2));
        let arrivals: Vec<Request> = (0..400)
            .map(|i| req(i, i * 100_000, 300_000 + (i % 9) * 80_000))
            .collect();
        let base = RunOptions {
            overload: crate::OverloadPlan {
                seed: 42,
                queue_capacity: 4,
                client_timeout_ns: 2 * MILLISECOND,
                retry_prob: 0.9,
                max_attempts: 3,
                retry_backoff_ns: 500_000,
                retry_jitter_ns: 200_000,
                ..crate::OverloadPlan::none()
            },
            ..Default::default()
        };
        let traced_opts = RunOptions {
            rtrace: TracePlan::sampled(1.0, 3, 7),
            ..base
        };
        let rec_off = deeppower_telemetry::Recorder::ring(1 << 16);
        let rec_on = deeppower_telemetry::Recorder::ring(1 << 16);
        let off = server.run_recorded(&arrivals, &mut FixedFrequency { mhz: 1000 }, base, &rec_off);
        let on = server.run_recorded(
            &arrivals,
            &mut FixedFrequency { mhz: 1000 },
            traced_opts,
            &rec_on,
        );
        assert_eq!(off.records, on.records, "tracing perturbed the results");
        assert_eq!(off.energy_j.to_bits(), on.energy_j.to_bits());
        assert_eq!(
            (
                off.goodput,
                off.wasted,
                off.shed,
                off.abandoned,
                off.retries
            ),
            (on.goodput, on.wasted, on.shed, on.abandoned, on.retries)
        );
        assert!(on.shed > 0 && on.retries > 0, "plan produced no overload");

        let events = rec_on.drain_events();
        let mut seen_traces: std::collections::HashMap<u64, &deeppower_telemetry::RequestTrace> =
            std::collections::HashMap::new();
        for ev in &events {
            match ev {
                Event::RequestTrace(tr) => {
                    // Chain latency is client-visible: end − first submit.
                    assert_eq!(tr.latency_ns, tr.end - tr.first_submit);
                    seen_traces.insert(tr.client, tr);
                }
                Event::WindowRollup(w) => {
                    for ex in &w.exemplars {
                        assert!(
                            seen_traces.contains_key(ex),
                            "exemplar id {ex} has no emitted trace before its rollup"
                        );
                    }
                }
                _ => {}
            }
        }
        assert!(!seen_traces.is_empty(), "full sampling emitted no traces");
        // Completed chains agree with the engine's completion records.
        let mut checked = 0;
        for tr in seen_traces.values().filter(|t| t.outcome == "completed") {
            let last = tr.attempts.last().unwrap();
            let rec = on.records.iter().find(|r| r.id == last.id).unwrap();
            assert_eq!(tr.latency_ns, rec.latency);
            assert_eq!(tr.end, rec.completed);
            assert_eq!(tr.timed_out, rec.timed_out);
            checked += 1;
        }
        assert!(checked > 0);
        // At least one retry chain shows the shed → backoff ladder.
        assert!(
            seen_traces.values().any(|t| t.attempts.len() > 1
                && t.span_total_ns(deeppower_telemetry::SPAN_BACKOFF) > 0
                && t.spans_named(deeppower_telemetry::SPAN_SHED).count() > 0),
            "no retry chain with shed + backoff spans"
        );
    }

    mod trace_latency_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// For any overload plan, a chain trace's client-visible
            /// latency equals the SLA latency the overload accounting
            /// charges from first submission — the two accountings are
            /// pinned together.
            #[test]
            fn retry_chain_trace_latency_matches_sla_accounting(
                seed in 0u64..u64::MAX,
                queue_capacity in 1u32..16,
                timeout_ms in 0u64..6,
                retry_prob in 0.0f64..1.0,
                max_attempts in 1u32..5,
            ) {
                let plan = crate::OverloadPlan {
                    seed,
                    queue_capacity,
                    client_timeout_ns: timeout_ms * MILLISECOND,
                    retry_prob,
                    max_attempts,
                    retry_backoff_ns: 400_000,
                    retry_jitter_ns: 150_000,
                    ..crate::OverloadPlan::none()
                };
                let server = Server::new(ServerConfig::paper_default(2));
                let arrivals: Vec<Request> = (0..80)
                    .map(|i| req(i, i * 120_000, 400_000 + (i % 7) * 90_000))
                    .collect();
                let opts = RunOptions {
                    overload: plan,
                    rtrace: TracePlan::sampled(1.0, 2, seed),
                    ..Default::default()
                };
                let rec = deeppower_telemetry::Recorder::ring(1 << 16);
                let res = server.run_recorded(
                    &arrivals,
                    &mut FixedFrequency { mhz: 1200 },
                    opts,
                    &rec,
                );
                for ev in rec.drain_events() {
                    let Event::RequestTrace(tr) = ev else { continue };
                    prop_assert_eq!(tr.latency_ns, tr.end - tr.first_submit);
                    if tr.outcome == "completed" {
                        let last = tr.attempts.last().unwrap();
                        let record = res
                            .records
                            .iter()
                            .find(|r| r.id == last.id)
                            .expect("completed chain has a record");
                        // The engine charges SLA latency from the first
                        // submission (Request::client_arrival); the
                        // trace must agree exactly.
                        prop_assert_eq!(tr.latency_ns, record.latency);
                        prop_assert_eq!(tr.timed_out, record.timed_out);
                    }
                }
            }
        }
    }
}
