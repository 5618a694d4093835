//! # deeppower-drl
//!
//! Deep reinforcement learning agents implemented from scratch on top of
//! [`deeppower_nn`]. The DeepPower paper (ICPP 2023) uses **DDPG** as its
//! top-level controller (§4.5) and benchmarks the single-state inference
//! latency of **DQN, DDQN, DDPG and SAC** in Table 2 (§3.2) to motivate the
//! hierarchical design. DDPG is a full learning agent; DQN and SAC are the
//! paper-sized networks Table 2 times, forward pass only.
//!
//! Components:
//!
//! * [`ReplayBuffer`] — fixed-capacity ring buffer with uniform sampling.
//! * [`GaussianNoise`] — exploration noise. The paper adds `N(0.3, 1)`
//!   Gaussian noise to actions during training (§4.6).
//! * [`Ddpg`] — the paper's agent: a two-headed actor (shared trunk, one
//!   sigmoid head per thread-controller parameter, §4.6) and a critic that
//!   concatenates the action after the first hidden layer, exactly as
//!   described in the implementation-detail section.
//! * [`Dqn`] — the Q-network with greedy action selection. Double DQN
//!   changes only the training target, so it shares this network.
//! * [`Sac`] — the tanh-squashed Gaussian policy, with a deterministic
//!   action and a sampled one that also returns its log-probability.
//!
//! All agents are seed-deterministic.

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
pub use dqn::{Dqn, DqnConfig};
pub use noise::{sample_standard_normal, GaussianNoise};
pub use replay::{ReplayBuffer, Transition};
pub use sac::{Sac, SacConfig};
