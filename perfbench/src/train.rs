//! The `train_xapian` workload: DeepPower training on one Xapian node
//! (the per-tick governor in Train mode), then evaluation of the trained
//! policy on a held-out trace drawn from the workload seed.
//!
//! Training itself always uses [`TRAIN_SEED`]: policies trained from
//! different seeds differ by up to 2x in evaluation p99, which would
//! bury any change to the simulated results under seed-to-seed spread.
//! One fixed policy scored on seeded evaluation traces varies by a few
//! percent, and the training run is the same host work on every seed.
//!
//! The timed run calls `train` and `evaluate`. The traced run re-drives
//! `train_profiled`'s episode loop with an agent it owns, and counts only
//! if its final actor equals `train`'s and its evaluation equals
//! `evaluate`'s.

use crate::probe::{self, Layer};
use crate::{fnv, Check, Outcome};
use deeppower_core::train::{server_for, trace_for};
use deeppower_core::{
    evaluate, train, DeepPowerGovernor, EvalOutcome, Mode, TrainConfig, TrainReport, TrainedPolicy,
};
use deeppower_drl::{Ddpg, DdpgConfig};
use deeppower_simd_server::{
    FreqCommands, Governor, Nanos, Request, RunOptions, Server, ServerView, SimResult, TraceConfig,
};
use deeppower_workload::{trace_arrivals, App, AppSpec};
use std::time::Instant;

/// Seed of the training run (agent initialisation and episode traces).
pub const TRAIN_SEED: u64 = 7;

/// `Ddpg::update` and `Ddpg::act` calls timed after the traced run.
const DRL_UPDATES_TIMED: usize = 64;
const DRL_ACTS_TIMED: usize = 512;

pub struct TrainBench {
    pub cfg: TrainConfig,
    pub eval_s: u64,
    pub eval_seed: u64,
    /// Arrivals over all training episodes (open loop: all complete).
    pub train_arrivals: u64,
    pub eval_arrivals: u64,
}

pub fn train_xapian(seed: u64, episodes: usize, episode_s: u64, eval_s: u64) -> TrainBench {
    let mut cfg = TrainConfig::for_app(App::Xapian);
    cfg.episodes = episodes;
    cfg.episode_s = episode_s;
    cfg.seed = TRAIN_SEED;
    let spec = AppSpec::get(cfg.app);
    let train_arrivals = (0..episodes)
        .map(|ep| episode_arrivals(&cfg, &spec, ep).len() as u64)
        .sum();
    let eval_arrivals = eval_arrivals(&spec, cfg.peak_load, eval_s, seed).len() as u64;
    TrainBench {
        cfg,
        eval_s,
        eval_seed: seed,
        train_arrivals,
        eval_arrivals,
    }
}

/// Episode `ep`'s arrivals, seeded as `train` seeds them.
fn episode_arrivals(cfg: &TrainConfig, spec: &AppSpec, ep: usize) -> Vec<Request> {
    let ep_seed = cfg.seed.wrapping_add(1 + ep as u64);
    let trace = trace_for(spec, cfg.peak_load, cfg.episode_s, ep_seed);
    trace_arrivals(spec, &trace, ep_seed.wrapping_mul(31).wrapping_add(7))
}

/// The evaluation arrivals, seeded as `evaluate` seeds them.
fn eval_arrivals(spec: &AppSpec, peak_load: f64, eval_s: u64, seed: u64) -> Vec<Request> {
    let trace = trace_for(spec, peak_load, eval_s, seed);
    trace_arrivals(spec, &trace, seed.wrapping_mul(131).wrapping_add(17))
}

pub struct PublicRun {
    pub policy: TrainedPolicy,
    pub report: TrainReport,
    pub eval: EvalOutcome,
}

impl TrainBench {
    pub fn run(&self) -> PublicRun {
        let (policy, report) = train(&self.cfg);
        let eval = evaluate(
            &policy,
            self.cfg.peak_load,
            self.eval_s,
            self.eval_seed,
            TraceConfig::default(),
        );
        PublicRun {
            policy,
            report,
            eval,
        }
    }

    pub fn outcome(&self, run: &PublicRun) -> Outcome {
        let sim = &run.eval.sim;
        let mut check = Check::default();
        check.require(
            run.report.episode_rewards.len() == self.cfg.episodes
                && run.report.episode_rewards.iter().all(|r| r.is_finite()),
            "missing or non-finite episode rewards".into(),
        );
        check.require(run.report.updates > 0, "the agent never trained".into());
        check.require(
            sim.stats.count == self.eval_arrivals,
            format!(
                "evaluation completed {} of {} arrivals",
                sim.stats.count, self.eval_arrivals
            ),
        );
        check.require(
            sim.avg_power_w.is_finite() && sim.avg_power_w > 0.0,
            "no evaluation power".into(),
        );
        let offered = sim.goodput + sim.wasted + sim.shed;
        let weights: Vec<u8> = run
            .policy
            .actor_weights
            .iter()
            .flat_map(|w| w.to_bits().to_le_bytes())
            .collect();
        Outcome {
            requests: self.train_arrivals + sim.stats.count,
            p99_ms: sim.stats.p99_ns as f64 / 1e6,
            power_w: sim.avg_power_w,
            goodput_frac: sim.goodput as f64 / offered.max(1) as f64,
            fingerprint: fnv(&weights) ^ sim.energy_j.to_bits(),
            check,
        }
    }
}

/// Any governor with every hook timed as a `core` governor call.
struct Timed<G>(G);

impl<G: Governor> Governor for Timed<G> {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        probe::tick(|| self.0.on_tick(view, cmds));
    }

    fn on_run_end(&mut self, view: &ServerView<'_>) {
        probe::scope(Layer::Governor, || self.0.on_run_end(view));
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn healthy(&self) -> bool {
        self.0.healthy()
    }
}

/// One engine run with the event loop and the final assembly timed as
/// separate `simd-server` calls.
fn drive(
    server: &Server,
    arrivals: &[Request],
    gov: &mut dyn Governor,
    tick_ns: Nanos,
) -> SimResult {
    let opts = RunOptions {
        tick_ns,
        trace: TraceConfig::default(),
        ..Default::default()
    };
    let rec = deeppower_telemetry::Recorder::disabled();
    let mut session = server.session(arrivals, gov, opts, &rec);
    probe::scope(Layer::Engine, || session.advance_until(Nanos::MAX));
    probe::scope(Layer::EngineFinish, || session.finish())
}

pub struct Redrive {
    pub actor: Vec<f32>,
    pub updates: u64,
    /// Completions per training episode, against arrivals.
    pub episodes: Vec<(u64, u64)>,
    pub eval: SimResult,
    /// Median `Ddpg::update` and `Ddpg::act` times, µs.
    pub update_us: f64,
    pub act_us: f64,
}

impl TrainBench {
    /// Re-drive `train_profiled`'s loop (and `evaluate`'s) with timed
    /// layer calls. Returns the trained agent too, for
    /// [`TrainBench::time_drl`] to time outside the traced wall time.
    pub fn redrive(&self) -> (Redrive, Ddpg) {
        let cfg = &self.cfg;
        let spec = AppSpec::get(cfg.app);
        let server = server_for(&spec);
        let mut agent = Ddpg::new(DdpgConfig {
            seed: cfg.seed,
            ..cfg.deeppower.ddpg
        });
        let mut updates = 0;
        let mut episodes = Vec::with_capacity(cfg.episodes);
        for ep in 0..cfg.episodes {
            let arrivals = probe::scope(Layer::Workload, || episode_arrivals(cfg, &spec, ep));
            let mut gov = Timed(DeepPowerGovernor::new(
                &mut agent,
                cfg.deeppower,
                Mode::Train,
            ));
            let res = drive(&server, &arrivals, &mut gov, cfg.deeppower.short_time);
            updates += gov.0.updates_done;
            episodes.push((res.stats.count, arrivals.len() as u64));
        }
        let policy = TrainedPolicy {
            app: cfg.app,
            actor_weights: agent.actor_snapshot(),
            critic_weights: agent.critic_snapshot(),
            ddpg: cfg.deeppower.ddpg,
            deeppower: cfg.deeppower,
        };
        let arrivals = probe::scope(Layer::Workload, || {
            eval_arrivals(&spec, cfg.peak_load, self.eval_s, self.eval_seed)
        });
        let mut eval_agent = policy.build_agent();
        let mut gov = Timed(DeepPowerGovernor::new(
            &mut eval_agent,
            policy.deeppower,
            Mode::Eval,
        ));
        let eval = drive(&server, &arrivals, &mut gov, policy.deeppower.short_time);
        let redrive = Redrive {
            actor: policy.actor_weights,
            updates,
            episodes,
            eval,
            update_us: 0.0,
            act_us: 0.0,
        };
        (redrive, agent)
    }

    /// Time `Ddpg::update` (at the configured batch) and `Ddpg::act` on
    /// the trained agent and its replay contents, after the run.
    pub fn time_drl(agent: &mut Ddpg, redrive: &mut Redrive) {
        let states: Vec<Vec<f32>> = agent
            .replay
            .iter()
            .take(DRL_ACTS_TIMED)
            .map(|t| t.state.clone())
            .collect();
        let mut acts: Vec<f64> = states
            .iter()
            .map(|s| {
                let t0 = Instant::now();
                std::hint::black_box(agent.act(s));
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let mut updates: Vec<f64> = (0..DRL_UPDATES_TIMED)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(agent.update());
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        redrive.act_us = crate::median(&mut acts);
        redrive.update_us = crate::median(&mut updates);
    }

    /// The re-drive must reproduce `train`'s final actor and
    /// `evaluate`'s result exactly.
    pub fn check_redrive(&self, public: &PublicRun, traced: &Redrive) -> Check {
        let mut c = Check::default();
        let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        c.require(
            bits(&traced.actor) == bits(&public.policy.actor_weights),
            "traced final actor differs from train's".into(),
        );
        c.require(
            traced.updates == public.report.updates,
            format!(
                "traced {} DDPG updates, train {}",
                traced.updates, public.report.updates
            ),
        );
        for (ep, &(done, offered)) in traced.episodes.iter().enumerate() {
            c.require(
                done == offered,
                format!("episode {ep} completed {done} of {offered}"),
            );
        }
        let (a, b) = (&traced.eval, &public.eval.sim);
        c.require(
            a.energy_j.to_bits() == b.energy_j.to_bits()
                && a.stats.count == b.stats.count
                && a.stats.p99_ns == b.stats.p99_ns,
            "traced evaluation differs from evaluate's".into(),
        );
        c
    }
}
