//! # deeppower-suite
//!
//! Umbrella crate for the DeepPower (ICPP 2023) reproduction. Re-exports
//! every sub-crate under one roof so the repo-level examples and
//! integration tests have a single dependency:
//!
//! * [`nn`] — dense tensors, layers, manual backprop, optimizers;
//! * [`drl`] — the DDPG agent on `nn`, plus the forward-only DQN and SAC
//!   networks whose inference Table 2 times;
//! * [`sim`] — the event-driven multi-core DVFS server simulator
//!   (the paper's Xeon testbed stand-in);
//! * [`workload`] — Tailbench-like application models, diurnal traces,
//!   Poisson arrivals;
//! * [`deeppower`] — the DeepPower framework itself: thread controller,
//!   state observer, reward calculator, hierarchical governor, training;
//! * [`baselines`] — ReTail, Gemini, and fixed/max-frequency governors.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use deeppower_baselines as baselines;
pub use deeppower_core as deeppower;
pub use deeppower_drl as drl;
pub use deeppower_nn as nn;
pub use deeppower_simd_server as sim;
pub use deeppower_workload as workload;
