//! # deeppower-simd-server
//!
//! An event-driven simulator of a multi-core latency-critical server with
//! per-core DVFS — the stand-in for the paper's physical testbed (a
//! 2-socket Intel Xeon Gold 5218R with the Linux `userspace` cpufreq
//! governor and RAPL energy counters; see DESIGN.md for the substitution
//! argument).
//!
//! The model matches §2.1/§4.1 of the paper:
//!
//! * Requests arrive into a single FIFO queue; `n` worker threads (one per
//!   physical core) fetch and process them **without preemption**.
//! * Each core's frequency can be set independently, in microseconds, to
//!   one of a discrete set of levels (0.8–2.1 GHz in 100 MHz steps) or to a
//!   turbo level.
//! * A request's service time scales with core frequency through a
//!   frequency-sensitivity split (compute-bound fraction scales, the
//!   memory-bound remainder does not) and inflates under contention when
//!   many sibling cores are busy — the effect §3.1 shows breaks
//!   fixed-load service-time predictors.
//! * Socket power is static + per-core dynamic (`a·f³ + b·f`), integrated
//!   exactly over every inter-event interval into joules, exposed through a
//!   RAPL-like microjoule counter.
//!
//! Control planes plug in through the [`Governor`] trait: the engine calls
//! `on_tick` every control period (the paper's `ShortTime`) and
//! `on_request_start` whenever a core picks up a request (the hook
//! request-level baselines like ReTail and Gemini need).
//!
//! The engine is fully deterministic: identical inputs produce identical
//! traces, energies and latencies.

pub mod clock;
pub mod contention;
pub mod cstates;
pub mod dvfs;
pub mod faults;
pub mod feed;
pub mod governor;
pub mod metrics;
pub mod overload;
pub mod power;
pub mod request;
pub mod server;

pub use clock::{Nanos, MICROSECOND, MILLISECOND, SECOND};
pub use contention::ContentionModel;
pub use cstates::{CState, CStatePlan};
pub use dvfs::{DvfsController, FreqPlan, TransitionOutcome, MHZ_PER_GHZ};
pub use faults::{DvfsFault, FaultPlan, FaultState, SensorReading};
pub use feed::{arrival_feed, with_producer, ArrivalFeed, FeedArrivals, FeedSender, FEED_CHUNK};
pub use governor::{CoreView, FixedFrequency, FreqCommands, Governor, RunningView, ServerView};
pub use metrics::{LatencyStats, MetricsCollector, RequestRecord, TraceConfig};
pub use overload::{
    AdmissionController, AdmissionMode, AdmitAll, CoDelAdmission, DrlAdmission, OverloadCounters,
    OverloadPlan, OverloadState, QueuePolicy, StaticThreshold, SYNTH_ID_BASE,
};
pub use power::{EnergyMeter, PowerModel};
pub use request::{Features, Request, MAX_FEATURES};
pub use server::{RunOptions, Server, ServerConfig, Session, SimResult, SliceArrivals};
