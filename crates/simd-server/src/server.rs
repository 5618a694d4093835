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
//! 4. with faults or overload active: a deferred DVFS transition
//!    landing, a core-stall window opening or closing, a client deadline
//!    or a due retry.
//!
//! Telemetry adds no event time of its own: per-core series are read
//! from the recorder's event stream, never sampled on a timer.
//!
//! Within one timestamp events are processed in the deterministic order
//! completions → client abandonments → arrivals (admission, bursts,
//! retries) → dispatch → tick, which makes every run bit-replayable.

use crate::clock::Nanos;
use crate::contention::ContentionModel;
use crate::cstates::CStatePlan;
use crate::dvfs::{DvfsController, FreqPlan, TransitionOutcome};
use crate::faults::{FaultPlan, FaultState, SensorReading};
use crate::governor::{CoreView, FreqCommands, Governor, RunningView, ServerView};
use crate::metrics::{LatencyStats, MetricsCollector, RequestRecord, TraceConfig};
use crate::overload::{Admit, OverloadPlan, OverloadState};
use crate::power::{EnergyMeter, PowerModel};
use crate::request::Request;
use deeppower_telemetry::{
    event, Event, FaultKind, Histogram, Profiler, Recorder, RequestTracer, ShedReason, TracePlan,
};
use std::collections::{BTreeMap, VecDeque};

/// Work remaining below this many reference-nanoseconds counts as done
/// (guards floating-point residue after an exact-advance step).
const WORK_EPS: f64 = 1e-6;

/// Span of the tumbling windows behind [`event::WindowRollup`]. Windows
/// close at governor-tick boundaries, so every node on the same tick
/// grid produces aligned window indices — the property the fleet health
/// monitor merges on.
const WINDOW_NS: Nanos = crate::clock::SECOND;

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
    /// Per-core event emission (off by default — the per-core figures
    /// enable it).
    pub trace: TraceConfig,
    /// Deterministic fault injection (off by default; see
    /// [`FaultPlan`]).
    pub faults: FaultPlan,
    /// Closed-loop client / admission model (off by default — the
    /// classic open-loop, unbounded-queue engine; see
    /// [`OverloadPlan`]).
    pub overload: OverloadPlan,
    /// Deterministic request-lifecycle tracing (off by default; see
    /// [`TracePlan`]). Active only with an enabled
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
/// [`event::WindowRollup`] stream the fleet health monitor consumes, and
/// behind the run-so-far [`event::LatencySnapshot`] that precedes each
/// tick-closed rollup. Active only when the session's recorder is
/// enabled; when inactive every hook is one branch, preserving the
/// telemetry-never-perturbs-results contract (windows close at
/// boundaries the engine visits anyway).
struct WindowTelemetry {
    enabled: bool,
    /// Open-window start and close boundary.
    start: Nanos,
    next: Nanos,
    /// Sequential window ordinal (aligned across same-grid nodes).
    index: u64,
    lat: Histogram,
    timeouts: u64,
    /// Every window closed at a tick, folded in by
    /// [`snapshot`](Self::snapshot): the run-so-far latencies.
    run_lat: Histogram,
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
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            start: 0,
            next: WINDOW_NS,
            index: 0,
            lat: Histogram::new(),
            timeouts: 0,
            run_lat: Histogram::new(),
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

    /// Fold the open window into the run-so-far latencies and emit them,
    /// with the run's `timeouts` so far, as a [`event::LatencySnapshot`]
    /// (percentiles are histogram bucket bounds, clamped to the exact
    /// extremes). Called once per window that closes at a tick, just
    /// before [`roll`](Self::roll).
    fn snapshot(&mut self, now: Nanos, timeouts: u64, rec: &Recorder) {
        self.run_lat.merge(&self.lat);
        let h = &self.run_lat;
        rec.emit(|| {
            Event::LatencySnapshot(event::LatencySnapshot {
                t: now,
                count: h.count(),
                p50_ns: h.percentile(0.50),
                p95_ns: h.percentile(0.95),
                p99_ns: h.percentile(0.99),
                timeouts,
            })
        });
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
        self.next = now + WINDOW_NS;
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
}

struct CoreState {
    freq_mhz: u32,
    running: Option<Running>,
    /// Current C-state index while idle (`None` = C0).
    sleep: Option<usize>,
}

/// A lane's progress while its core runs nothing or is parked: no work
/// left to retire is +∞ (never done, never the next completion), no wake
/// latency, unit scale. The branch-free passes then leave it unchanged.
const NEUTRAL_REMAINING: f64 = f64::INFINITY;
const NEUTRAL_WAKE: f64 = 0.0;
const NEUTRAL_SCALE: f64 = 1.0;

/// A stalled core's progress, held out of its lane until the stall
/// window closes.
#[derive(Clone, Copy)]
struct Parked {
    core: usize,
    remaining_ref_ns: f64,
    wake_remaining_ns: f64,
}

/// Every core's state plus what the engine derives from it, cached so
/// that an event does work only for the cores that changed. A core's
/// frequency, request or sleep state changes only through
/// [`update`](Self::update), which refreshes that core's share of every
/// cache with the same expressions a from-scratch pass would use (and
/// [`check`](Self::check) asserts that in debug builds).
///
/// Request progress lives in dense per-core columns (`remaining_ref_ns`,
/// `wake_remaining_ns`, `scale`) that the per-event passes sweep over all
/// `n` lanes without a branch. Lanes of idle cores and of the stalled
/// core hold neutral values, so neither pass tests which cores run.
struct Cores<'a> {
    cfg: &'a ServerConfig,
    state: Vec<CoreState>,
    /// Intrinsic work each core's request has left, reference ns.
    remaining_ref_ns: Vec<f64>,
    /// Real-time wake latency still to pay before work retires (set when
    /// a request is dispatched to a sleeping core; frequency- and
    /// contention-independent).
    wake_remaining_ns: Vec<f64>,
    /// [`Request::freq_scale`] of each core's request at its current
    /// frequency.
    scale: Vec<f64>,
    /// The stalled core's progress, if a stall window is open.
    parked: Option<Parked>,
    /// What the governor sees of each core. Handed to callbacks by
    /// reference, so a [`ServerView`] never allocates.
    views: Vec<CoreView>,
    /// Bit `i % 64` of word `i / 64` is set while core `i` runs a
    /// request.
    running: Vec<u64>,
    /// Number of running cores.
    busy: usize,
    /// Contention inflation by busy count, `0..=n`.
    inflation: Vec<f64>,
    /// Each core's power draw, watts.
    power_w: Vec<f64>,
    /// Socket power (static plus `power_w` summed in core order), or
    /// `None` once a term changed since it was last summed.
    socket_w: Option<f64>,
}

impl<'a> Cores<'a> {
    fn new(cfg: &'a ServerConfig) -> Self {
        let n = cfg.n_cores;
        let state: Vec<CoreState> = (0..n)
            .map(|i| CoreState {
                freq_mhz: match cfg.core_cap(i) {
                    Some(cap) => cfg.initial_mhz.min(cap),
                    None => cfg.initial_mhz,
                },
                running: None,
                sleep: None,
            })
            .collect();
        Self {
            remaining_ref_ns: vec![NEUTRAL_REMAINING; n],
            wake_remaining_ns: vec![NEUTRAL_WAKE; n],
            scale: vec![NEUTRAL_SCALE; n],
            parked: None,
            views: state.iter().map(core_view).collect(),
            running: vec![0; n.div_ceil(64)],
            busy: 0,
            inflation: (0..=n).map(|b| cfg.contention.inflation(b, n)).collect(),
            power_w: state.iter().map(|c| core_power_w(cfg, c)).collect(),
            socket_w: None,
            state,
            cfg,
        }
    }

    /// Change core `i` with `f`, then refresh everything derived from
    /// it: the running bit and busy count (only if the core started or
    /// finished a request; a finished one leaves neutral progress), the
    /// lane's scale (unless the lane is parked), the core's power term
    /// and its view.
    fn update<T>(&mut self, i: usize, f: impl FnOnce(&mut CoreState) -> T) -> T {
        let out = f(&mut self.state[i]);
        let cfg = self.cfg;
        let c = &mut self.state[i];
        let bit = 1u64 << (i % 64);
        let word = &mut self.running[i / 64];
        if c.running.is_some() != (*word & bit != 0) {
            *word ^= bit;
            if c.running.is_some() {
                self.busy += 1;
            } else {
                self.busy -= 1;
                self.remaining_ref_ns[i] = NEUTRAL_REMAINING;
                self.wake_remaining_ns[i] = NEUTRAL_WAKE;
            }
        }
        if self.parked.is_none_or(|p| p.core != i) {
            self.scale[i] = lane_scale(cfg, c);
        }
        let p = core_power_w(cfg, c);
        if p.to_bits() != self.power_w[i].to_bits() {
            self.power_w[i] = p;
            self.socket_w = None;
        }
        self.views[i] = core_view(c);
        out
    }

    /// Start `req` on idle core `i` at `now`, with `wake_ns` of wake
    /// latency to pay first.
    fn dispatch(&mut self, i: usize, req: Request, now: Nanos, wake_ns: f64) {
        self.update(i, |c| {
            c.sleep = None;
            c.running = Some(Running { req, started: now });
        });
        self.remaining_ref_ns[i] = req.work_ref_ns as f64;
        self.wake_remaining_ns[i] = wake_ns;
    }

    /// Give the parked lane its progress back unless its core is still
    /// the `stalled` one.
    fn unpark(&mut self, stalled: Option<usize>) {
        let Some(p) = self.parked.filter(|p| Some(p.core) != stalled) else {
            return;
        };
        self.parked = None;
        let i = p.core;
        self.remaining_ref_ns[i] = p.remaining_ref_ns;
        self.wake_remaining_ns[i] = p.wake_remaining_ns;
        self.scale[i] = lane_scale(self.cfg, &self.state[i]);
    }

    /// Make the lanes match the stall state: the `stalled` core's lane
    /// holds neutral values, its progress held aside. A stalled core
    /// retires no work and its request has no completion time until the
    /// window closes; a neutral lane expresses both.
    fn park(&mut self, stalled: Option<usize>) {
        self.unpark(stalled);
        let Some(i) = stalled.filter(|_| self.parked.is_none()) else {
            return;
        };
        self.parked = Some(Parked {
            core: i,
            remaining_ref_ns: self.remaining_ref_ns[i],
            wake_remaining_ns: self.wake_remaining_ns[i],
        });
        self.remaining_ref_ns[i] = NEUTRAL_REMAINING;
        self.wake_remaining_ns[i] = NEUTRAL_WAKE;
        self.scale[i] = NEUTRAL_SCALE;
    }

    /// Contention inflation at the current busy count.
    fn inflation(&self) -> f64 {
        self.inflation[self.busy]
    }

    /// Retire `dt` nanoseconds of every lane's progress: wake latency
    /// drains first, in real time, then intrinsic work at the lane's
    /// scale and the socket's inflation. One branch-free pass over all
    /// lanes (min and max as compare-selects, so it vectorises); neutral
    /// lanes stay neutral.
    fn retire(&mut self, dt: Nanos) {
        let (dt, inflation) = (dt as f64, self.inflation());
        let lanes = self
            .remaining_ref_ns
            .iter_mut()
            .zip(self.wake_remaining_ns.iter_mut())
            .zip(&self.scale);
        for ((remaining, wake), &scale) in lanes {
            let waking = if *wake < dt { *wake } else { dt };
            *wake -= waking;
            let left = *remaining - Request::retired_work(dt - waking, scale, inflation);
            *remaining = if left > 0.0 { left } else { 0.0 };
        }
    }

    /// Real time until the earliest lane finishes (+∞ when none runs):
    /// one min-reduction over all lanes.
    fn next_completion_ns(&self) -> f64 {
        let inflation = self.inflation();
        let lanes = self
            .remaining_ref_ns
            .iter()
            .zip(&self.wake_remaining_ns)
            .zip(&self.scale);
        lanes.fold(f64::INFINITY, |m, ((&remaining, &wake), &scale)| {
            let t = wake + Request::scaled_time(remaining, scale, inflation);
            if t < m {
                t
            } else {
                m
            }
        })
    }

    /// Running cores of word `w` whose request has finished: no work and
    /// no wake latency left.
    fn done_mask(&self, w: usize) -> u64 {
        let lo = 64 * w;
        let hi = (lo + 64).min(self.state.len());
        let lanes = self.remaining_ref_ns[lo..hi]
            .iter()
            .zip(&self.wake_remaining_ns[lo..hi]);
        let done = lanes.enumerate().fold(0u64, |m, (b, (&r, &wk))| {
            m | (((r <= WORK_EPS) & (wk <= WORK_EPS)) as u64) << b
        });
        done & self.running[w]
    }

    /// Indices of the idle cores, ascending.
    fn idle_cores(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.state.len();
        (0..self.running.len()).flat_map(move |w| {
            let valid = if 64 * (w + 1) <= n {
                !0
            } else {
                (1u64 << (n % 64)) - 1
            };
            set_bits(!self.running[w] & valid, w)
        })
    }

    /// Socket power, re-summed only if a core's term changed.
    fn socket_w(&mut self) -> f64 {
        let (cfg, terms) = (self.cfg, &self.power_w);
        *self
            .socket_w
            .get_or_insert_with(|| cfg.power.static_w + terms.iter().sum::<f64>())
    }

    /// Assert that every cache equals a from-scratch recomputation, bit
    /// for bit, and that every lane holds what its core's state implies:
    /// neutral values while idle or parked on the `stalled` core,
    /// non-negative progress (never `-0.0`) and a current scale while
    /// running.
    fn check(&self, stalled: Option<usize>) {
        let cfg = self.cfg;
        let neutral = [NEUTRAL_REMAINING, NEUTRAL_WAKE, NEUTRAL_SCALE].map(f64::to_bits);
        assert_eq!(self.parked.map(|p| p.core), stalled, "parked lane");
        for (i, c) in self.state.iter().enumerate() {
            let bit = self.running[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(bit, c.running.is_some(), "core {i}: running bit");
            let lane = [
                self.remaining_ref_ns[i],
                self.wake_remaining_ns[i],
                self.scale[i],
            ];
            match (&c.running, self.parked.filter(|p| p.core == i)) {
                (None, _) | (_, Some(_)) => {
                    assert_eq!(lane.map(f64::to_bits), neutral, "core {i}: neutral lane");
                }
                (Some(_), None) => {
                    let scale = lane_scale(cfg, c);
                    assert_eq!(lane[2].to_bits(), scale.to_bits(), "core {i}: scale");
                    assert_progress(i, lane[0], lane[1]);
                }
            }
            let p = core_power_w(cfg, c);
            assert_eq!(self.power_w[i].to_bits(), p.to_bits(), "core {i}: power");
            assert_eq!(self.views[i], core_view(c), "core {i}: view");
        }
        if let Some(p) = self.parked {
            if self.state[p.core].running.is_some() {
                assert_progress(p.core, p.remaining_ref_ns, p.wake_remaining_ns);
            } else {
                let held = [p.remaining_ref_ns, p.wake_remaining_ns].map(f64::to_bits);
                assert_eq!(held, neutral[..2], "core {}: parked idle lane", p.core);
            }
        }
        let busy = self.state.iter().filter(|c| c.running.is_some()).count();
        assert_eq!(self.busy, busy, "busy count");
        let inflation = cfg.contention.inflation(busy, cfg.n_cores);
        assert_eq!(self.inflation().to_bits(), inflation.to_bits(), "inflation");
        if let Some(w) = self.socket_w {
            let sum = cfg.power.static_w + self.power_w.iter().sum::<f64>();
            assert_eq!(w.to_bits(), sum.to_bits(), "socket power");
        }
    }
}

/// [`Request::freq_scale`] of the request core `c` runs at its current
/// frequency, or the neutral scale when it runs nothing.
fn lane_scale(cfg: &ServerConfig, c: &CoreState) -> f64 {
    c.running.as_ref().map_or(NEUTRAL_SCALE, |r| {
        Request::freq_scale(
            r.req.freq_sensitivity,
            c.freq_mhz,
            cfg.freq_plan.reference_mhz,
        )
    })
}

/// A running request's progress is finite, non-negative and never `-0.0`.
fn assert_progress(core: usize, remaining_ref_ns: f64, wake_remaining_ns: f64) {
    for (what, x) in [("remaining", remaining_ref_ns), ("wake", wake_remaining_ns)] {
        assert!(
            x.is_finite() && x.is_sign_positive(),
            "core {core}: {what} progress {x}"
        );
    }
}

/// Core indices of the set bits of `word`, the `w`-th word of a core
/// bitset, ascending.
fn set_bits(mut word: u64, w: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            64 * w + b
        })
    })
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
    /// under `governor`. Returns all metrics and energy.
    pub fn run(
        &self,
        arrivals: &[Request],
        governor: &mut dyn Governor,
        opts: RunOptions,
    ) -> SimResult {
        self.run_recorded(arrivals, governor, opts, &Recorder::disabled())
    }

    /// [`run`](Self::run) with a telemetry [`Recorder`]. An enabled
    /// recorder receives, at the first governor tick of every simulated
    /// second, a run-so-far [`event::LatencySnapshot`] followed by the
    /// closed window's [`event::WindowRollup`] (a trailing partial window
    /// rolls up at run end), per-core [`event::CoreResidency`] at run
    /// end, and, when [`TraceConfig::events`] is set, the per-core
    /// stream the figures read: [`event::FreqTransition`] on every
    /// applied frequency change and
    /// [`event::RequestDispatch`]/[`event::RequestComplete`] marks.
    /// `deeppower_telemetry::freq_series` turns the transitions into a
    /// per-core series at any step.
    ///
    /// A span [`Profiler`] attached to `rec`
    /// ([`Recorder::with_profiler`]) times the engine phases
    /// (completions / arrivals+dispatch / governor tick / advance) as
    /// `engine.*` spans.
    ///
    /// Telemetry never adds event times to the simulation (all emission
    /// happens at boundaries the engine visits anyway), and profiling
    /// only reads the wall clock, so results are bit-identical whether
    /// the recorder and its profiler are enabled or not.
    pub fn run_recorded(
        &self,
        arrivals: &[Request],
        governor: &mut dyn Governor,
        opts: RunOptions,
        rec: &Recorder,
    ) -> SimResult {
        self.session(arrivals, governor, opts, rec).finish()
    }

    /// Start a resumable simulation [`Session`] over `arrivals`: the
    /// slice case of [`stream_session`](Self::stream_session).
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
        self.stream_session(arrivals.iter().copied(), governor, opts, rec)
    }

    /// Start a [`Session`] over any arrival iterator (sorted by arrival
    /// time), e.g. the flattened [`ArrivalFeed`](crate::ArrivalFeed) of
    /// a producer thread. The session pulls one arrival ahead of the
    /// clock, so its events and termination instant are those of the
    /// same requests given as a slice.
    pub fn stream_session<'a, I: Iterator<Item = Request>>(
        &'a self,
        mut arrivals: I,
        governor: &'a mut dyn Governor,
        opts: RunOptions,
        rec: &'a Recorder,
    ) -> Session<'a, I> {
        assert!(opts.tick_ns > 0, "tick period must be positive");
        let n = self.cfg.n_cores;
        let mut metrics = MetricsCollector::new();
        // Open loop, every arrival completes exactly once: when the
        // iterator knows its length (a slice does), one exact-size
        // record buffer instead of doubling growth.
        if !opts.overload.is_active() {
            metrics.records.reserve_exact(arrivals.size_hint().0);
        }
        Session {
            cores: Cores::new(&self.cfg),
            queue: VecDeque::new(),
            metrics,
            energy: EnergyMeter::new(),
            cmds: FreqCommands::new(n, &self.cfg.freq_plan),
            freq_telem: FreqTelemetry::new(n, rec.enabled(), opts.trace.events),
            faults: FaultState::new(opts.faults, n),
            overload: OverloadState::new(opts.overload, n),
            dvfs: DvfsController::new(n),
            now: 0,
            next_arrival: arrivals.next(),
            next_tick: 0,
            window: WindowTelemetry::new(rec.enabled()),
            rtrace: RequestTracer::new(opts.rtrace, rec.enabled()),
            primed: false,
            finished: false,
            cfg: &self.cfg,
            arrivals,
            governor,
            opts,
            rec,
            prof: rec.profiler().clone(),
        }
    }
}

/// What a session over a slice iterates.
pub(crate) type SliceArrivals<'a> = std::iter::Copied<std::slice::Iter<'a, Request>>;

/// A paused-or-running simulation: the full state of one engine event
/// loop, advanceable in bounded time slices. Created by
/// [`Server::session`] (over a slice) or [`Server::stream_session`]
/// (over any arrival iterator `I`); consumed by [`Session::finish`].
pub struct Session<'a, I = SliceArrivals<'a>> {
    cfg: &'a ServerConfig,
    /// Workload arrivals not yet pulled.
    arrivals: I,
    /// The earliest workload arrival not yet offered, pulled one ahead
    /// so event selection and termination can read it.
    next_arrival: Option<Request>,
    governor: &'a mut dyn Governor,
    opts: RunOptions,
    rec: &'a Recorder,
    /// `rec`'s profiler, held by value so that each `engine.*` span
    /// site is one branch when it is disabled.
    prof: Profiler,
    cores: Cores<'a>,
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
    cmds: FreqCommands,
    freq_telem: FreqTelemetry,
    faults: FaultState,
    overload: OverloadState,
    dvfs: DvfsController,
    now: Nanos,
    next_tick: Nanos,
    window: WindowTelemetry,
    /// Request-lifecycle tracer (inactive plan = one branch per hook).
    rtrace: RequestTracer,
    /// Whether the events at `now` (initially t=0) have been processed.
    primed: bool,
    finished: bool,
}

impl<I: Iterator<Item = Request>> Session<'_, I> {
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
        self.freq_telem
            .finish(self.now, &self.cores.state, self.rec);
        let oc = self.overload.counters;
        SimResult {
            stats: self.metrics.stats(),
            energy_j: self.energy.joules(),
            avg_power_w: self.energy.average_power_w(),
            duration_ns: self.now,
            records: std::mem::take(&mut self.metrics.records),
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
        let view = make_view(
            self.now,
            &self.queue,
            &self.cores.views,
            &self.metrics,
            &self.energy,
            &self.overload,
        );
        f(&view)
    }

    /// Process phases 0–5 at `self.now`; returns `true` on termination.
    fn process_now(&mut self) -> bool {
        let now = self.now;

        // ---- 0. Fault-plan boundaries at `now` ----
        // Stall windows open/close, and deferred (spiked) DVFS
        // transitions that came due take effect. With an inactive
        // plan both are single-branch no-ops.
        let sp = self.prof.span("engine.completions");
        self.faults.poll_stalls(now, self.rec);
        // A core whose stall closed at `now` gets its progress back
        // before it can be dispatched to again.
        self.cores.unpark(self.faults.stalled_core());
        if self.dvfs.any_in_flight() {
            for i in 0..self.cfg.n_cores {
                let Some(target) = self.dvfs.poll(i, now) else {
                    continue;
                };
                let from = self.cores.state[i].freq_mhz;
                if target != from {
                    self.freq_telem
                        .on_transition(now, i, from, target, self.rec);
                    self.cores.update(i, |c| c.freq_mhz = target);
                    self.metrics.freq_transitions += 1;
                }
            }
        }

        // ---- 1. Completions at `now` ----
        for w in 0..self.cores.running.len() {
            for core_id in set_bits(self.cores.done_mask(w), w) {
                let running = self
                    .cores
                    .update(core_id, |c| c.running.take())
                    .expect("a running bit marks a running core");
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
                if self.opts.trace.events {
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
        while let Some(req) = self.next_arrival.filter(|r| r.arrival <= now) {
            self.next_arrival = self.arrivals.next();
            debug_assert!(
                self.next_arrival.is_none_or(|r| r.arrival >= req.arrival),
                "arrivals must be sorted by time"
            );
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
            let (faults, state) = (&self.faults, &self.cores.state);
            let awake = self
                .cores
                .idle_cores()
                .find(|&i| !faults.is_stalled(i) && state[i].sleep.is_none());
            let any_idle =
                awake.or_else(|| self.cores.idle_cores().find(|&i| !faults.is_stalled(i)));
            let Some(core_id) = any_idle else { break };
            let req = if newest_first {
                self.queue.pop_back().unwrap()
            } else {
                self.queue.pop_front().unwrap()
            };
            {
                let view = make_view(
                    now,
                    &self.queue,
                    &self.cores.views,
                    &self.metrics,
                    &self.energy,
                    &self.overload,
                );
                self.governor
                    .on_request_start(&view, core_id, &req, &mut self.cmds);
            }
            self.apply_commands(now);
            if self.opts.trace.events {
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
                    self.cores.state[core_id].freq_mhz,
                    self.overload.admit_frac(),
                );
            }
            let wake_ns = self.cores.state[core_id]
                .sleep
                .and_then(|i| self.cfg.cstates.get(i))
                .map(|st| st.wake_ns as f64)
                .unwrap_or(0.0);
            self.cores.dispatch(core_id, req, now, wake_ns);
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
                let view = make_view_with(now, &self.queue, &self.cores.views, reading);
                self.governor.on_tick(&view, &mut self.cmds);
            }
            self.apply_commands(now);
            self.next_tick = now + self.opts.tick_ns;
            if self.window.enabled {
                self.window.on_tick(&self.cores.state);
                if now >= self.window.next {
                    let queue_len = self.queue.len() as u64;
                    let energy_uj = self.energy.read_energy_uj();
                    // The run-so-far snapshot, then exemplar traces,
                    // then the rollup that links to them (stream order
                    // the monitor relies on).
                    self.window.snapshot(now, self.metrics.timeouts, self.rec);
                    let exemplars = self.rtrace.roll(self.rec);
                    self.window
                        .roll(now, queue_len, energy_uj, self.rec, exemplars);
                }
            }
        }

        // A core whose stall opened at `now` may still have completed
        // in phase 1, so its lane is parked only once the timestamp's
        // phases are done.
        self.cores.park(self.faults.stalled_core());
        if cfg!(debug_assertions) {
            self.cores.check(self.faults.stalled_core());
        }

        // ---- 5. Termination ----
        if self.next_arrival.is_none()
            && self.queue.is_empty()
            && self.cores.busy == 0
            && !self.overload.retries_pending()
        {
            // The run-end flush is governor work (DRL governors close
            // their last window and may train here), so it gets its own
            // span — DDPG stage spans must never be roots.
            let _sp = self.prof.span("engine.finish");
            let view = make_view(
                now,
                &self.queue,
                &self.cores.views,
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
                    self.overload.on_shed(
                        now,
                        &old,
                        ShedReason::Evicted,
                        self.rec,
                        &mut self.rtrace,
                    );
                    self.window.on_shed();
                }
            }
        }
        self.overload.on_admitted(now, &req);
        self.queue.push_back(req);
        self.metrics.observe_queue_depth(self.queue.len());
    }

    /// Phase 6: earliest pending event time (always finite — the
    /// governor tick never stops).
    fn next_event_time(&self) -> Nanos {
        let mut t_next = self.next_tick;
        if let Some(r) = &self.next_arrival {
            t_next = t_next.min(r.arrival);
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
        // A stalled core's lane is parked: its request has no completion
        // time until the stall window closes, which is itself in the
        // event set above. `now + ceil(t).max(1)` is monotone in `t`, so
        // mapping the lanes' minimum equals the minimum of mapped lanes.
        let t = self.cores.next_completion_ns();
        if t < f64::INFINITY {
            t_next = t_next.min(self.now + (t.ceil().max(1.0)) as Nanos);
        }
        t_next
    }

    /// Phase 7: integrate energy and retire work up to `t_next`, then
    /// move the clock there.
    fn advance_to(&mut self, t_next: Nanos) {
        debug_assert!(t_next > self.now, "event time did not advance");
        let _sp = self.prof.span("engine.advance");
        let dt = t_next - self.now;
        let p = self.cores.socket_w();
        self.energy.accumulate(p, dt);
        self.cores.retire(dt);
        self.now = t_next;
    }

    /// Apply what the governor commanded in its last callback: frequency
    /// writes (snapped, capped, then through the DVFS fault model), sleep
    /// requests for idle cores, and an admission threshold. A callback
    /// that commanded nothing costs one branch.
    fn apply_commands(&mut self, now: Nanos) {
        if !self.cmds.take_issued() {
            return;
        }
        let cfg = self.cfg;
        let plan = &cfg.freq_plan;
        for i in 0..cfg.n_cores {
            if let Some(mhz) = self.cmds.take(i) {
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
                // A write while a (spiked) transition is in flight is
                // rejected — the stuck-cpufreq case. Not an injected fault
                // itself, so it is not recorded.
                let current = self.cores.state[i].freq_mhz;
                if !self.dvfs.in_transition(i) && snapped != current {
                    let fault = self.faults.draw_dvfs();
                    match self.dvfs.request(i, now, current, snapped, fault) {
                        TransitionOutcome::Applied => {
                            self.freq_telem
                                .on_transition(now, i, current, snapped, self.rec);
                            self.cores.update(i, |c| c.freq_mhz = snapped);
                            self.metrics.freq_transitions += 1;
                        }
                        TransitionOutcome::Deferred { ready_at } => {
                            self.faults.record(
                                self.rec,
                                now,
                                FaultKind::DvfsSpike,
                                i as i64,
                                (ready_at - now) as f64,
                            );
                        }
                        TransitionOutcome::Failed => {
                            self.faults.record(
                                self.rec,
                                now,
                                FaultKind::DvfsFail,
                                i as i64,
                                snapped as f64,
                            );
                        }
                        TransitionOutcome::Rejected | TransitionOutcome::NoOp => {}
                    }
                }
            }
            if let Some(level) = self.cmds.take_sleep(i) {
                // Only idle cores may sleep; invalid levels are ignored.
                if self.cores.state[i].running.is_none() && cfg.cstates.get(level).is_some() {
                    self.cores.update(i, |c| c.sleep = Some(level));
                }
            }
        }
        if let Some(frac) = self.cmds.take_admission() {
            self.overload.set_threshold(frac);
        }
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

/// One core's power draw with C-states: a sleeping core draws its
/// state's residual power; an awake idle core its clocked-idle power; a
/// busy core full dynamic power (including while paying wake latency).
fn core_power_w(cfg: &ServerConfig, c: &CoreState) -> f64 {
    match (&c.running, c.sleep) {
        (Some(_), _) => cfg.power.core_power_w(c.freq_mhz, true),
        (None, Some(i)) => cfg.cstates.get(i).map(|s| s.power_w).unwrap_or(0.0),
        (None, None) => cfg.power.core_power_w(c.freq_mhz, false),
    }
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
    /// when the caller opted into per-core events
    /// ([`TraceConfig::events`]). Residency aggregates are
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
    fn per_core_events_cover_all_cores() {
        let server = Server::new(ServerConfig::paper_default(3));
        let arrivals = vec![req(0, 0, 5 * MILLISECOND)];
        let mut gov = FixedFrequency { mhz: 1200 };
        let rec = Recorder::ring(1 << 10);
        server.run_recorded(
            &arrivals,
            &mut gov,
            RunOptions {
                trace: TraceConfig { events: true },
                ..Default::default()
            },
            &rec,
        );
        let events = rec.drain_events();
        // Every core leaves its 2100 MHz start at t = 0.
        let cores: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::FreqTransition(f) if f.t == 0 && f.to_mhz == 1200 => Some(f.core),
                _ => None,
            })
            .collect();
        assert_eq!(cores, [0, 1, 2]);
        for c in 0..3 {
            let series =
                deeppower_telemetry::freq_series(&events, c, 2100, 5 * MILLISECOND, MILLISECOND);
            assert!(
                series.iter().all(|&(_, f)| f == 1200),
                "core {c}: {series:?}"
            );
        }
        // Request marks: one start, one end.
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("RequestDispatch"), 1);
        assert_eq!(count("RequestComplete"), 1);
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
            trace: TraceConfig { events: true },
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

        // Every tick-closed window is preceded by a run-so-far latency
        // snapshot at the same time, counting every completion up to
        // and including that window; the trailing window has none.
        let mut seen = 0u64;
        let mut snapshots = 0;
        for (i, e) in events.iter().enumerate() {
            if let Event::LatencySnapshot(s) = e {
                let Some(Event::WindowRollup(w)) = events.get(i + 1) else {
                    panic!("snapshot at {} not followed by its rollup", s.t);
                };
                seen += w.count;
                snapshots += 1;
                assert_eq!((s.t, s.count), (w.t, seen));
                assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
            }
        }
        assert_eq!(snapshots, rollups.len() - 1);
    }

    #[test]
    fn profiled_run_is_bit_identical_and_captures_phase_spans() {
        let server = Server::new(ServerConfig::paper_default(2));
        let arrivals: Vec<Request> = (0..200)
            .map(|i| req(i, i * 10_000_000, 400_000 + (i % 5) * 100_000))
            .collect();
        let opts = RunOptions {
            trace: TraceConfig { events: true },
            ..Default::default()
        };
        let mut gov = FixedFrequency { mhz: 2100 };
        let plain = server.run(&arrivals, &mut gov, opts);
        let prof = deeppower_telemetry::Profiler::enabled();
        let profiled = server.run_recorded(
            &arrivals,
            &mut gov,
            opts,
            &Recorder::disabled().with_profiler(&prof),
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
            "engine.advance",
        ] {
            assert!(count(phase) > 0, "no {phase} spans recorded");
        }
        // Each processed event visits completions and arrivals once.
        assert_eq!(count("engine.completions"), count("engine.arrivals"));
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
            .filter(|e| matches!(e, Event::FaultInjected(f) if f.kind == FaultKind::DvfsFail))
            .count() as u64;
        assert_eq!(fails, res.faults_injected);
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
    fn stall_edges_complete_finished_work_and_resume_dispatch() {
        // Stalls cover [2, 3) ms and [4, 5) ms of the only core. The
        // first request finishes as the first window opens, so it still
        // completes then; the second arrives inside that window, is
        // dispatched as it closes and finishes as the next one opens.
        let server = one_core_server();
        let arrivals = vec![
            req(0, 0, 2 * MILLISECOND),
            req(1, 2 * MILLISECOND + 500_000, MILLISECOND),
        ];
        let opts = RunOptions {
            faults: crate::FaultPlan {
                seed: 3,
                stall_period_ns: 2 * MILLISECOND,
                stall_duration_ns: MILLISECOND,
                ..crate::FaultPlan::none()
            },
            ..Default::default()
        };
        let res = server.run(&arrivals, &mut FixedFrequency { mhz: 2100 }, opts);
        let spans: Vec<(Nanos, Nanos)> = res
            .records
            .iter()
            .map(|r| (r.started, r.completed))
            .collect();
        assert_eq!(
            spans,
            [(0, 2 * MILLISECOND), (3 * MILLISECOND, 4 * MILLISECOND)]
        );
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
            .find(|r| r.id >= crate::overload::SYNTH_ID_BASE)
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
