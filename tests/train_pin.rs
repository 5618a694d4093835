//! Trained weights are pinned bit for bit. The engine, trace and event
//! pins run fixed-parameter governors and the fleet pin an untrained
//! policy, so none of them sees a gradient step. These pins do:
//!
//! - a seeded DDPG agent after a fixed synthetic replay stream and a
//!   few dozen updates: FNV-1a digests of its actor and critic weights,
//!   the last update's statistics, and its actions and Q-values;
//! - the actor after a short end-to-end `train` run;
//! - the records of an engine run under a Gemini governor, whose
//!   service-time predictor trains and then runs on every request;
//! - the greedy DQN and sampled SAC actions on fixed states.
//!
//! A change to the network stack that keeps every float operation in
//! its order cannot move a constant here.

use deeppower_suite::baselines::{collect_profile, GeminiConfig, GeminiGovernor};
use deeppower_suite::deeppower::{train, TrainConfig};
use deeppower_suite::drl::{Ddpg, DdpgConfig, Dqn, DqnConfig, Sac, SacConfig, Transition};
use deeppower_suite::sim::{FreqPlan, RunOptions, Server, ServerConfig, MILLISECOND, SECOND};
use deeppower_suite::workload::{constant_rate_arrivals, App, AppSpec};

/// 64-bit FNV-1a, fed one little-endian word at a time.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf29ce484222325)
    }

    fn word(self, x: u64) -> Self {
        Self(
            x.to_le_bytes()
                .iter()
                .fold(self.0, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3)),
        )
    }

    fn floats(self, xs: &[f32]) -> Self {
        xs.iter().fold(self, |h, x| h.word(x.to_bits() as u64))
    }
}

fn digest(xs: &[f32]) -> u64 {
    Fnv::new().floats(xs).0
}

/// Eight-wide states from a fixed LCG, spread over `[-1, 2)`.
fn states(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            (0..8)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 40) as f32 / (1u64 << 24) as f32 * 3.0 - 1.0
                })
                .collect()
        })
        .collect()
}

#[test]
fn ddpg_updates_on_a_synthetic_replay_stream() {
    let mut agent = Ddpg::new(DdpgConfig {
        warmup: 16,
        batch_size: 32,
        seed: 5,
        ..Default::default()
    });
    let s = states(240, 1);
    let mut last = None;
    for (i, pair) in s.windows(2).enumerate() {
        let action = if i % 3 == 0 {
            agent.act_explore(&pair[0])
        } else {
            vec![(i % 7) as f32 / 7.0, (i % 5) as f32 / 5.0]
        };
        let reward = pair[0][0] - action[0] * action[1];
        agent.observe(Transition {
            state: pair[0].clone(),
            action,
            reward,
            next_state: pair[1].clone(),
            done: i % 50 == 49,
        });
        if agent.ready() && i % 4 == 0 {
            last = Some(agent.update());
        }
    }
    let stats = last.expect("the stream trains");
    let probes = states(4, 99);
    let acts: Vec<f32> = probes.iter().flat_map(|p| agent.act(p)).collect();
    let qs: Vec<f32> = probes
        .iter()
        .map(|p| agent.q_value(p, &[0.3, 0.6]))
        .collect();
    assert_eq!(
        (
            digest(&agent.actor_snapshot()),
            digest(&agent.critic_snapshot()),
            digest(&acts),
            digest(&qs),
        ),
        (
            18067978720805596114,
            4660083046560257255,
            471556817246332320,
            15520678327942149434,
        )
    );
    assert_eq!(
        [
            stats.critic_loss.to_bits(),
            stats.actor_q.to_bits(),
            stats.actor_grad_norm.to_bits(),
            stats.critic_grad_norm.to_bits(),
        ],
        [1057585713, 3190405144, 1025900563, 1072060898]
    );
    assert!(!stats.diverged);
}

#[test]
fn short_train_run_actor() {
    let mut cfg = TrainConfig::for_app(App::Xapian);
    cfg.episodes = 2;
    cfg.episode_s = 4;
    cfg.seed = 3;
    cfg.deeppower.long_time = 50 * MILLISECOND;
    let (policy, report) = train(&cfg);
    assert_eq!(
        (report.updates, digest(&policy.actor_weights)),
        (198, 12577306383898513220)
    );
}

#[test]
fn engine_run_under_a_trained_gemini_predictor() {
    let spec = AppSpec::get(App::Xapian);
    let samples = collect_profile(&spec, 0.3, 2, 31);
    let mut gov = GeminiGovernor::train(
        &samples,
        FreqPlan::xeon_gold_5218r(),
        spec.n_threads,
        GeminiConfig::default(),
        5,
    );
    let arrivals = constant_rate_arrivals(&spec, spec.rps_for_load(0.5), SECOND, 17);
    let res = Server::new(ServerConfig::paper_default(spec.n_threads)).run(
        &arrivals,
        &mut gov,
        RunOptions::default(),
    );
    let records = res.records.iter().fold(Fnv::new(), |h, r| {
        h.word(r.id)
            .word(r.started)
            .word(r.completed)
            .word(r.timed_out as u64)
    });
    assert_eq!(
        (res.records.len(), records.0, res.energy_j.to_bits()),
        (11009, 1196831438241837919, 4634747354033705980)
    );
}

#[test]
fn dqn_and_sac_actions_on_fixed_states() {
    let dqn = Dqn::new(DqnConfig {
        seed: 11,
        ..Default::default()
    });
    let mut sac = Sac::new(SacConfig {
        seed: 11,
        ..Default::default()
    });
    let probes = states(16, 7);
    let greedy: Vec<usize> = probes.iter().map(|p| dqn.act(p)).collect();
    let sampled = probes.iter().fold(Fnv::new(), |h, p| {
        let (a, log_prob) = sac.act_explore(p);
        h.floats(&a).word(log_prob.to_bits() as u64)
    });
    assert_eq!(
        greedy,
        [14, 14, 3, 14, 11, 1, 3, 11, 13, 14, 1, 6, 6, 11, 6, 6]
    );
    assert_eq!(sampled.0, 15374097890991499358);
}
