//! # deeppower-telemetry
//!
//! The unified telemetry layer for the DeepPower reproduction. Every
//! other crate in the workspace observes through this one:
//!
//! * [`Event`] — a typed event stream covering the whole stack:
//!   governor decisions ([`DrlStep`]: state-derived step telemetry,
//!   `BaseFreq`/`ScalingCoef`, reward decomposition), thread-controller
//!   frequency transitions and per-core residency, DDPG training
//!   internals (losses, gradient norms, replay occupancy), harness job
//!   lifecycle, and periodic latency snapshots.
//! * [`Recorder`] — the cheap, cloneable handle call sites hold: an
//!   optional [`TelemetrySink`] (by default a preallocated
//!   [`RingSink`]) plus the span [`Profiler`]. A disabled recorder is
//!   a `None` and every emission guards on one branch, so instrumented
//!   hot paths cost nothing when telemetry is off (asserted by the
//!   `telemetry_overhead` bench). The recorder keeps no counts: a run's
//!   counts live in its result (`SimResult` fields) and in the events.
//! * [`export`] — JSONL (the artifact format written by
//!   `deeppower grid --telemetry` and `deeppower trace`) and CSV
//!   exporters, plus series reconstruction from transition events.
//! * [`Logger`] — the leveled stderr logger behind the CLI's
//!   `-v`/`--quiet` flags.
//! * [`Histogram`] — a log-bucketed histogram: O(1) insert and
//!   O(buckets) percentile reads, behind the server's run-so-far
//!   latency snapshots and the window rollups.
//! * [`Profiler`] — hierarchical wall-clock span profiling for the hot
//!   paths (engine phases, DDPG update stages, fleet lockstep epochs,
//!   harness jobs), with per-phase aggregate tables and Chrome
//!   trace-event export. Same disabled-is-one-branch contract as the
//!   recorder, but `Send + Sync` so one handle spans worker threads.
//!
//! Determinism contract: events carry only simulation-derived data
//! (simulated timestamps, counters, model outputs) — never wall-clock
//! readings — so a job's event stream is a pure function of its spec
//! and the harness can promise byte-identical artifacts at any
//! `--threads` value. Wall-clock timings belong to the [`Logger`] and
//! the [`Profiler`], whose spans live in a separate artifact channel
//! (phase tables, Chrome traces) that never feeds back into results.

pub mod event;
pub mod export;
pub mod fs;
pub mod histogram;
pub mod logger;
pub mod monitor;
pub mod profile;
pub mod recorder;
pub mod slo;
pub mod trace;

pub use event::{
    Alert, AlertResolved, CoreResidency, DrlStep, EpisodeEnd, Event, FaultInjected, FaultKind,
    FreqTransition, IncidentEntry, JobEnd, JobStart, LatencySnapshot, RequestComplete,
    RequestDispatch, SafetyAction, SafetyKind, ShedReason, SloViolation, TrainUpdate, WindowRollup,
};
pub use export::{
    episode_events, freq_series, from_jsonl, steps_to_csv, to_jsonl, STEP_CSV_HEADER,
};
pub use fs::atomic_write;
pub use histogram::Histogram;
pub use logger::{LogLevel, Logger};
pub use monitor::{
    AlertRecord, AnomalyRecord, FleetMonitor, HealthReport, MonitorConfig, MonitorSink, SloOutcome,
    WindowSummary,
};
pub use profile::{
    from_chrome_trace, render_phase_table, ChromeEvent, PhaseRow, Profiler, Span, SpanRecord,
    DEFAULT_MAX_SPANS,
};
pub use recorder::{NoopSink, Recorder, RingSink, TelemetrySink};
pub use slo::{
    default_rules, BurnRateRule, EwmaConfig, EwmaDetector, SloSpec, LATENCY_BUDGET, METRIC_GOODPUT,
    METRIC_P99, METRIC_POWER, METRIC_TIMEOUT,
};
pub use trace::{
    traces_to_chrome, AttemptTrace, FlightRecorder, IdHasher, IdMap, IdSet, RequestTrace,
    RequestTracer, TracePlan, TraceSpan, SAMPLED_EXEMPLAR, SAMPLED_HEAD, SPAN_ABANDON,
    SPAN_BACKOFF, SPAN_QUEUE, SPAN_SERVICE, SPAN_SHED,
};
