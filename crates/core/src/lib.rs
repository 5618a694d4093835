//! # deeppower-core
//!
//! The DeepPower framework (Zhang et al., ICPP 2023): deep-reinforcement-
//! learning-based hierarchical power management for latency-critical
//! applications on multi-core servers.
//!
//! Architecture (paper Fig. 3):
//!
//! ```text
//!            ┌───────────────────────────────────────────────┐
//!            │                DeepPower framework            │
//!            │   StateObserver ──► DDPG agent ──► action     │
//!            │        ▲          (1 s "LongTime")   │        │
//!            │        │                             ▼        │
//!            │  RewardCalculator ◄── PowerMonitor  ThreadController
//!            │        ▲                            (1 ms "ShortTime")
//!            └────────┼──────────────────────────────┼───────┘
//!                     │  counters, queue, energy     │ per-core DVFS
//!            ┌────────┴──────────────────────────────▼───────┐
//!            │        latency-critical server (simd-server)  │
//!            └───────────────────────────────────────────────┘
//! ```
//!
//! * [`ThreadController`] — Algorithm 1: maps each core's elapsed request
//!   time through `score = consumed/SLA · ScalingCoef + BaseFreq` to a
//!   frequency every `ShortTime`; `score ≥ 1` commands turbo.
//! * [`StateObserver`] — §4.4.1's 8-dimensional workload state
//!   (`NumReq, QueueLen, Queue25/50/75, Core25/50/75`), normalized.
//! * [`RewardCalculator`] — §4.4.2's
//!   `R = −(α·R_energy + β·R_timeout + γ·R_queue)` with the
//!   queue-growth penalty gated by [`scale_func`].
//! * [`DeepPowerGovernor`] — the hierarchical control loop: thread
//!   controller ticks every `ShortTime`, the DRL step (observe → reward →
//!   replay push → act → retrain) every `LongTime`.
//! * [`train::train`] — Algorithm 2's training driver over simulated
//!   workloads; produces a serializable [`TrainedPolicy`].

pub mod ablation;
pub mod config;
pub mod explain;
pub mod governor;
pub mod reward;
pub mod safety;
pub mod sleep;
pub mod state;
pub mod thread_controller;
pub mod train;

pub use ablation::FlatDrlGovernor;
pub use config::{DeepPowerConfig, StateNorm};
pub use explain::{
    action_surface, decisions_to_csv, decisions_to_jsonl, explain_decisions, mean_abs_saliency,
    saliency_at, surface_to_csv, ActionOut, DecisionExplanation, SurfacePoint, STATE_DIM_NAMES,
};
pub use governor::{DeepPowerGovernor, Mode, StepLog};
pub use reward::{scale_func, RewardCalculator, RewardTerms};
pub use safety::{SafetyConfig, SafetyGovernor};
pub use sleep::{SleepAware, SleepPolicy};
pub use state::{StateObserver, STATE_DIM};
pub use thread_controller::{ControllerParams, ThreadController};
pub use train::{
    evaluate, evaluate_recorded, train, train_recorded, EvalOutcome, TrainConfig, TrainReport,
    TrainedPolicy,
};
