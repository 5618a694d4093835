//! # deeppower-drl
//!
//! Deep reinforcement learning agents implemented from scratch on top of
//! [`deeppower_nn`]. The DeepPower paper (ICPP 2023) uses **DDPG** as its
//! top-level controller (§4.5) and benchmarks the single-state inference
//! latency of **DQN, DDQN, DDPG and SAC** in Table 2 (§3.2) to motivate the
//! hierarchical design — all four are implemented here as working agents,
//! not inference-only shells.
//!
//! Components:
//!
//! * [`ReplayBuffer`] — fixed-capacity ring buffer with uniform sampling.
//! * [`GaussianNoise`] / [`OrnsteinUhlenbeck`] — exploration noise. The
//!   paper adds `N(0.3, 1)` Gaussian noise to actions during training
//!   (§4.6); OU noise is provided because it is the classic DDPG choice.
//! * [`Ddpg`] — the paper's agent: a two-headed actor (shared trunk, one
//!   sigmoid head per thread-controller parameter, §4.6) and a critic that
//!   concatenates the action after the first hidden layer, exactly as
//!   described in the implementation-detail section.
//! * [`Dqn`] / [`Ddqn`] — discrete-action value learners over a quantized
//!   action grid.
//! * [`Sac`] — soft actor-critic with a tanh-squashed Gaussian policy,
//!   twin critics and fixed entropy temperature.
//!
//! All agents are seed-deterministic and expose `save`/`load` snapshots.

pub mod actor;
pub mod critic;
pub mod ddpg;
pub mod dqn;
pub mod noise;
pub mod replay;
pub mod sac;

pub use actor::{ActorScratch, TwoHeadActor};
pub use critic::Critic;
pub use ddpg::{Ddpg, DdpgConfig, UpdateStats};
pub use dqn::{Ddqn, Dqn, DqnConfig};
pub use noise::{sample_standard_normal, GaussianNoise, OrnsteinUhlenbeck};
pub use replay::{ReplayBuffer, Transition};
pub use sac::{Sac, SacConfig};
