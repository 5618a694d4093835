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
//!   ring buffer) plus the span [`Profiler`]. A disabled recorder is
//!   a `None` and every emission guards on one branch, so instrumented
//!   hot paths cost nothing when telemetry is off (asserted by the
//!   `telemetry_overhead` bench). The recorder keeps no counts: a run's
//!   counts live in its result (`SimResult` fields) and in the events.
//! * [`to_jsonl`]/[`from_jsonl`] — JSONL, the artifact format written
//!   by `deeppower grid --telemetry` and `deeppower trace`; plus the CSV
//!   exporter [`steps_to_csv`] and [`freq_series`], which rebuilds a
//!   series from transition events.
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
mod export;
mod fs;
mod histogram;
mod logger;
mod monitor;
mod profile;
mod recorder;
mod slo;
mod trace;

pub use event::{
    Alert, AlertResolved, CoreResidency, DrlStep, EpisodeEnd, Event, FaultInjected, FaultKind,
    FreqTransition, IncidentEntry, JobEnd, JobStart, LatencySnapshot, RequestComplete,
    RequestDispatch, SafetyAction, SafetyKind, ShedReason, SloViolation, TrainUpdate, WindowRollup,
};
pub use export::{freq_series, from_jsonl, steps_to_csv, to_jsonl};
pub use fs::atomic_write;
pub use histogram::Histogram;
pub use logger::{LogLevel, Logger};
pub use monitor::{
    AlertRecord, AnomalyRecord, FleetMonitor, HealthReport, MonitorConfig, MonitorSink, SloOutcome,
    WindowSummary,
};
pub use profile::{render_phase_table, PhaseRow, Profiler, Span, SpanRecord};
pub use recorder::{NoopSink, Recorder, TelemetrySink};
pub use slo::{BurnRateRule, SloSpec, METRIC_GOODPUT};
pub use trace::{
    traces_to_chrome, AttemptTrace, FlightRecorder, IdHasher, IdSet, RequestTrace, RequestTracer,
    TracePlan, TraceSpan, SPAN_ABANDON, SPAN_BACKOFF, SPAN_QUEUE, SPAN_SERVICE, SPAN_SHED,
};
