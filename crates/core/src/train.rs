//! Training and evaluation drivers — Algorithm 2 end to end.
//!
//! [`train`] runs the DDPG agent against simulated episodes of the target
//! application under diurnal load (the paper trains "with a long running
//! workload and save\[s\] the neural network parameters after training"),
//! returning a serializable [`TrainedPolicy`]. [`evaluate`] replays a
//! trained policy on a fresh workload and reports the paper's metrics
//! (power, latency percentiles, timeout rate) plus the per-second
//! telemetry behind Fig. 8.

use crate::config::DeepPowerConfig;
use crate::governor::{DeepPowerGovernor, Mode, StepLog};
use crate::state::STATE_DIM;
use deeppower_drl::{Ddpg, DdpgConfig};
use deeppower_simd_server::{
    arrival_feed, with_producer, Governor, RunOptions, Server, ServerConfig, SimResult, TraceConfig,
};
use deeppower_telemetry::{event, Event, Recorder};
use deeppower_workload::{App, AppSpec, ArrivalStream, DiurnalConfig, DiurnalTrace};
use serde::{Deserialize, Serialize};

/// Training-run parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrainConfig {
    pub app: App,
    /// Number of workload episodes.
    pub episodes: usize,
    /// Episode length in seconds (the trace period).
    pub episode_s: u64,
    /// Peak trace RPS as a fraction of the app's capacity (the paper
    /// scales the trace "to make the tail latency close to SLA when
    /// running without frequency scaling").
    pub peak_load: f64,
    pub seed: u64,
    pub deeppower: DeepPowerConfig,
}

impl TrainConfig {
    /// Sensible defaults for `app`: per-app state caps and cadence, DDPG
    /// defaults, 0.9 peak load.
    pub fn for_app(app: App) -> Self {
        let spec = AppSpec::get(app);
        let mut dp =
            DeepPowerConfig::for_app(spec.n_threads, spec.capacity_rps(), spec.mean_service_ns);
        dp.ddpg = DdpgConfig {
            state_dim: STATE_DIM,
            action_dim: 2,
            warmup: 32,
            noise_decay: 0.995,
            ..Default::default()
        };
        dp.updates_per_step = 2;
        let (alpha, beta, gamma_q) = default_reward_weights(app);
        dp.alpha = alpha;
        dp.beta = beta;
        dp.gamma_q = gamma_q;
        Self {
            app,
            episodes: 6,
            episode_s: 120,
            peak_load: default_peak_load(app),
            seed: 0,
            deeppower: dp,
        }
    }
}

/// Per-app reward-weight presets. §4.4.2: "Changing the weight of each
/// term leads to adjusting the DRL Agent's training objectives" — the
/// energy weight α is raised for the applications whose service times are
/// predictable enough (Moses' observable body, Img-dnn's near-determinism)
/// that the agent would otherwise sit too far on the safe side of the
/// power/QoS frontier.
pub(crate) fn default_reward_weights(app: App) -> (f64, f64, f64) {
    match app {
        App::Moses | App::ImgDnn => (3.0, 4.0, 1.0),
        _ => (1.0, 4.0, 1.0),
    }
}

/// The trace scaling of §5.2: peak RPS as a fraction of capacity chosen so
/// the *unmanaged* baseline's tail latency lands just under the SLA
/// (calibrated empirically against the simulator's contention model).
pub fn default_peak_load(app: App) -> f64 {
    match app {
        App::Xapian => 0.72,
        App::Masstree => 0.72,
        App::Moses => 0.78,
        App::Sphinx => 0.80,
        App::ImgDnn => 0.70,
    }
}

/// Per-episode training diagnostics.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean per-step reward of each episode.
    pub episode_rewards: Vec<f64>,
    /// Mean power of each episode (watts).
    pub episode_power_w: Vec<f64>,
    /// Timeout rate of each episode.
    pub episode_timeout_rate: Vec<f64>,
    /// Total DDPG updates performed.
    pub updates: u64,
}

/// A trained DeepPower policy: the actor and critic weights plus the
/// configs needed to reconstruct the agent. Serializable (JSON) for
/// checkpointing. The critic rides along so introspection tools
/// (`deeppower explain`) can query the trained Q-function from a
/// checkpoint, not just the policy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainedPolicy {
    pub app: App,
    pub actor_weights: Vec<f32>,
    pub critic_weights: Vec<f32>,
    pub ddpg: DdpgConfig,
    pub deeppower: DeepPowerConfig,
}

impl TrainedPolicy {
    /// Reconstruct a (deterministic) agent carrying these weights.
    pub fn build_agent(&self) -> Ddpg {
        let mut agent = Ddpg::new(self.ddpg);
        agent.load_actor_snapshot(&self.actor_weights);
        if !self.critic_weights.is_empty() {
            agent.load_critic_snapshot(&self.critic_weights);
        }
        agent
    }

    /// Checkpoint to `path` atomically (temp file + rename): a crash
    /// mid-save can never leave a torn checkpoint behind.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        deeppower_telemetry::atomic_write(
            path,
            serde_json::to_string(self).expect("serialize policy"),
        )
    }

    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let data = std::fs::read_to_string(path)?;
        serde_json::from_str(&data)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Build the server matching an app's testbed slice (its worker threads on
/// socket 0).
pub fn server_for(spec: &AppSpec) -> Server {
    Server::new(ServerConfig::paper_default(spec.n_threads))
}

/// Build a diurnal trace for an app at `peak_load`, seeded.
pub fn trace_for(spec: &AppSpec, peak_load: f64, episode_s: u64, seed: u64) -> DiurnalTrace {
    let cfg = DiurnalConfig {
        period_s: episode_s,
        ..Default::default()
    };
    let mut trace = DiurnalTrace::generate(&cfg, seed);
    trace.scale_peak_to(spec.rps_for_load(peak_load));
    trace
}

/// Run `gov` on `server` over the arrivals `trace` draws with `seed`,
/// streamed from a producer thread that generates them while the engine
/// runs (`engine.ingest` on the producer, `engine.feed_wait` where the
/// engine waits for it). The result is that of `run_recorded` over
/// `trace_arrivals(spec, &trace, seed)`.
fn run_streamed(
    server: &Server,
    spec: &AppSpec,
    trace: DiurnalTrace,
    seed: u64,
    gov: &mut dyn Governor,
    opts: RunOptions,
    rec: &Recorder,
) -> SimResult {
    let (tx, feed) = arrival_feed(rec.profiler());
    let produce = move || tx.pump(ArrivalStream::new(spec, trace, seed));
    let ((), sim) = with_producer(produce, || {
        server
            .stream_session(feed.flatten(), gov, opts, rec)
            .finish()
    });
    sim
}

/// Algorithm 2: train a DDPG agent for `cfg.app` and return the policy.
pub fn train(cfg: &TrainConfig) -> (TrainedPolicy, TrainReport) {
    train_recorded(cfg, &Recorder::disabled())
}

/// [`train`] with a telemetry [`Recorder`]: per-step
/// [`event::DrlStep`]/[`event::TrainUpdate`] events from the governor
/// plus one [`event::EpisodeEnd`] per episode. Each episode's arrivals
/// stream from a producer thread while the episode runs. A profiler
/// attached to `rec` times workload generation (`engine.ingest`, on the
/// producer), the engine's `engine.*` phases and the agent's `ddpg.*`
/// update stages (nested inside `engine.tick`). Neither perturbs
/// training.
pub fn train_recorded(cfg: &TrainConfig, rec: &Recorder) -> (TrainedPolicy, TrainReport) {
    let spec = AppSpec::get(cfg.app);
    let server = server_for(&spec);
    let mut agent = Ddpg::new(DdpgConfig {
        seed: cfg.seed,
        ..cfg.deeppower.ddpg
    });
    let mut report = TrainReport::default();

    for ep in 0..cfg.episodes {
        let ep_seed = cfg.seed.wrapping_add(1 + ep as u64);
        let trace = trace_for(&spec, cfg.peak_load, cfg.episode_s, ep_seed);
        let mut gov = DeepPowerGovernor::new(&mut agent, cfg.deeppower, Mode::Train)
            .with_recorder(rec.clone());
        let res = run_streamed(
            &server,
            &spec,
            trace,
            ep_seed.wrapping_mul(31).wrapping_add(7),
            &mut gov,
            RunOptions {
                tick_ns: cfg.deeppower.short_time,
                trace: TraceConfig::default(),
                ..Default::default()
            },
            rec,
        );
        let steps = gov.log.len().max(1) as f64;
        let mean_reward = gov.log.iter().map(|l| l.reward).sum::<f64>() / steps;
        report.episode_rewards.push(mean_reward);
        report.episode_power_w.push(res.avg_power_w);
        report.episode_timeout_rate.push(res.stats.timeout_rate());
        report.updates += gov.updates_done;
        let log_len = gov.log.len() as u64;
        drop(gov);
        rec.emit(|| {
            Event::EpisodeEnd(event::EpisodeEnd {
                episode: ep as u64,
                steps: log_len,
                mean_reward,
                avg_power_w: res.avg_power_w,
                timeout_rate: res.stats.timeout_rate(),
                updates: report.updates,
            })
        });
    }

    let policy = TrainedPolicy {
        app: cfg.app,
        actor_weights: agent.actor_snapshot(),
        critic_weights: agent.critic_snapshot(),
        ddpg: cfg.deeppower.ddpg,
        deeppower: cfg.deeppower,
    };
    (policy, report)
}

/// Evaluation output: the simulator's metrics plus DeepPower telemetry.
#[derive(Clone, Debug)]
pub struct EvalOutcome {
    pub sim: SimResult,
    pub log: Vec<StepLog>,
}

/// Run a trained policy on a fresh trace-driven workload.
pub fn evaluate(
    policy: &TrainedPolicy,
    peak_load: f64,
    duration_s: u64,
    seed: u64,
    trace_cfg: TraceConfig,
) -> EvalOutcome {
    evaluate_recorded(
        policy,
        peak_load,
        duration_s,
        seed,
        trace_cfg,
        &Recorder::disabled(),
    )
}

/// [`evaluate`] with a telemetry [`Recorder`] receiving the full
/// decision trace: per-step [`event::DrlStep`]s from the governor plus
/// the engine's residency/latency-snapshot/window events (and
/// frequency transitions plus request marks when `trace_cfg.events` is
/// set). The arrivals stream from a producer thread while the engine
/// runs. A profiler attached to `rec` times workload generation
/// (`engine.ingest`, on the producer) and the engine (`engine.*`
/// phases).
pub fn evaluate_recorded(
    policy: &TrainedPolicy,
    peak_load: f64,
    duration_s: u64,
    seed: u64,
    trace_cfg: TraceConfig,
    rec: &Recorder,
) -> EvalOutcome {
    let spec = AppSpec::get(policy.app);
    let server = server_for(&spec);
    let trace = trace_for(&spec, peak_load, duration_s, seed);
    let mut agent = policy.build_agent();
    let mut gov =
        DeepPowerGovernor::new(&mut agent, policy.deeppower, Mode::Eval).with_recorder(rec.clone());
    let sim = run_streamed(
        &server,
        &spec,
        trace,
        seed.wrapping_mul(131).wrapping_add(17),
        &mut gov,
        RunOptions {
            tick_ns: policy.deeppower.short_time,
            trace: trace_cfg,
            ..Default::default()
        },
        rec,
    );
    EvalOutcome {
        sim,
        log: std::mem::take(&mut gov.log),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeppower_telemetry::{FaultKind, Profiler};

    fn tiny_train_cfg() -> TrainConfig {
        let mut cfg = TrainConfig::for_app(App::Xapian);
        cfg.episodes = 2;
        cfg.episode_s = 10;
        cfg.peak_load = 0.6;
        cfg.seed = 3;
        cfg.deeppower.ddpg.warmup = 4;
        cfg.deeppower.ddpg.batch_size = 8;
        cfg
    }

    #[test]
    fn training_produces_policy_and_updates() {
        let (policy, report) = train(&tiny_train_cfg());
        assert_eq!(report.episode_rewards.len(), 2);
        assert!(report.updates > 0, "agent never trained");
        assert!(!policy.actor_weights.is_empty());
        // Weights must differ from a fresh agent (training moved them).
        let fresh = Ddpg::new(policy.ddpg);
        assert_ne!(policy.actor_weights, fresh.actor_snapshot());
    }

    #[test]
    fn policy_roundtrips_through_json() {
        let (policy, _) = train(&tiny_train_cfg());
        let dir = std::env::temp_dir().join("deeppower-test-policy.json");
        policy.save(&dir).unwrap();
        let loaded = TrainedPolicy::load(&dir).unwrap();
        assert_eq!(policy.actor_weights, loaded.actor_weights);
        assert_eq!(policy.app, loaded.app);
        std::fs::remove_file(&dir).ok();
        // Rebuilt agents act identically.
        let a = policy.build_agent();
        let b = loaded.build_agent();
        let s = [0.4f32; STATE_DIM];
        assert_eq!(a.act(&s), b.act(&s));
    }

    #[test]
    fn evaluation_runs_policy_deterministically() {
        let (policy, _) = train(&tiny_train_cfg());
        let e1 = evaluate(&policy, 0.6, 10, 99, TraceConfig::default());
        let e2 = evaluate(&policy, 0.6, 10, 99, TraceConfig::default());
        assert_eq!(e1.sim.energy_j, e2.sim.energy_j);
        assert_eq!(e1.sim.stats.count, e2.sim.stats.count);
        assert!(
            e1.sim.stats.count > 100,
            "workload too small to be meaningful"
        );
        assert!(!e1.log.is_empty());
    }

    #[test]
    fn recorded_runs_emit_events_without_perturbing_results() {
        let cfg = tiny_train_cfg();
        let (plain_policy, plain_report) = train(&cfg);
        let rec = Recorder::ring(1 << 16);
        let (rec_policy, rec_report) = train_recorded(&cfg, &rec);
        // Telemetry must not change training.
        assert_eq!(plain_policy.actor_weights, rec_policy.actor_weights);
        assert_eq!(plain_report.episode_rewards, rec_report.episode_rewards);
        let events = rec.drain_events();
        let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
        assert_eq!(count("EpisodeEnd"), cfg.episodes);
        assert!(count("DrlStep") > 0, "no DRL step events");
        assert!(count("TrainUpdate") > 0, "no training update events");

        // The thread controller can transition frequencies every tick on
        // every core (~80 k events over this 10 s / 8-core eval), so the
        // ring must be sized for tick_count × cores to keep everything.
        let rec2 = Recorder::ring(1 << 18);
        let plain_eval = evaluate(&rec_policy, 0.6, 10, 99, TraceConfig::default());
        let rec_eval = evaluate_recorded(&rec_policy, 0.6, 10, 99, TraceConfig::default(), &rec2);
        assert_eq!(plain_eval.sim.energy_j, rec_eval.sim.energy_j);
        let eval_events = rec2.drain_events();
        let steps = eval_events.iter().filter(|e| e.kind() == "DrlStep").count();
        assert_eq!(steps, rec_eval.log.len(), "one DrlStep event per StepLog");
        assert!(
            eval_events.iter().any(|e| e.kind() == "CoreResidency"),
            "residency missing from eval trace"
        );
    }

    #[test]
    fn profiled_training_matches_plain_and_checkpoints_critic() {
        let cfg = tiny_train_cfg();
        let (plain_policy, plain_report) = train(&cfg);
        let prof = Profiler::enabled();
        let (prof_policy, prof_report) =
            train_recorded(&cfg, &Recorder::disabled().with_profiler(&prof));
        // Profiling must not change training.
        assert_eq!(plain_policy.actor_weights, prof_policy.actor_weights);
        assert_eq!(plain_policy.critic_weights, prof_policy.critic_weights);
        assert_eq!(plain_report.episode_rewards, prof_report.episode_rewards);
        assert!(!prof_policy.critic_weights.is_empty());

        let rows = prof.phase_table();
        let has = |n: &str| rows.iter().any(|r| r.name == n && r.count > 0);
        for n in [
            "engine.ingest",
            "engine.tick",
            "engine.advance",
            "ddpg.critic",
        ] {
            assert!(has(n), "missing {n} spans");
        }
        // DDPG stages run inside the governor tick, so they are never
        // root spans — summing root time across phases cannot double
        // count them.
        let ddpg = rows.iter().find(|r| r.name == "ddpg.critic").unwrap();
        assert_eq!(ddpg.root_ns, 0);

        // The checkpointed critic answers Q-queries identically after a
        // JSON round-trip.
        let dir = std::env::temp_dir().join(format!("deeppower-critic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policy.json");
        prof_policy.save(&path).unwrap();
        let loaded = TrainedPolicy::load(&path).unwrap();
        assert_eq!(loaded.critic_weights, prof_policy.critic_weights);
        let (a, b) = (prof_policy.build_agent(), loaded.build_agent());
        let s = [0.4f32; STATE_DIM];
        let act = a.act(&s);
        assert_eq!(a.q_value(&s, &act).to_bits(), b.q_value(&s, &act).to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_training_nan_rolls_back_and_completes() {
        // Corrupt the bootstrap targets of one mid-run gradient update:
        // the agent must detect the divergence, roll back to the last
        // finite weights, and finish training with finite metrics.
        let mut cfg = tiny_train_cfg();
        cfg.deeppower.ddpg.inject_nan_update = 10;
        let rec = Recorder::ring(1 << 16);
        let (policy, report) = train_recorded(&cfg, &rec);
        let rollbacks: Vec<f64> = rec
            .drain_events()
            .iter()
            .filter_map(|e| match e {
                Event::FaultInjected(f) if f.kind == FaultKind::TrainDiverged => Some(f.magnitude),
                _ => None,
            })
            .collect();
        assert!(!rollbacks.is_empty(), "divergence was never detected");
        // Each event carries the agent's running rollback count: exactly
        // one rollback per detected divergence.
        let want: Vec<f64> = (1..=rollbacks.len()).map(|n| n as f64).collect();
        assert_eq!(rollbacks, want);
        assert!(policy.actor_weights.iter().all(|w| w.is_finite()));
        assert!(report.episode_rewards.iter().all(|r| r.is_finite()));
        assert!(report
            .episode_power_w
            .iter()
            .all(|p| p.is_finite() && *p > 0.0));
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let cfg = tiny_train_cfg();
        let agent = Ddpg::new(cfg.deeppower.ddpg);
        let policy = TrainedPolicy {
            app: cfg.app,
            actor_weights: agent.actor_snapshot(),
            critic_weights: agent.critic_snapshot(),
            ddpg: cfg.deeppower.ddpg,
            deeppower: cfg.deeppower,
        };
        let dir = std::env::temp_dir().join(format!("deeppower-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policy.json");
        policy.save(&path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        // Simulate the torn write atomic_write prevents: half a file.
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = TrainedPolicy::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A fresh save over the torn file recovers it.
        policy.save(&path).unwrap();
        let loaded = TrainedPolicy::load(&path).unwrap();
        assert_eq!(loaded.actor_weights, policy.actor_weights);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_config_defaults_track_app() {
        let cfg = TrainConfig::for_app(App::Masstree);
        assert_eq!(cfg.deeppower.state_norm.core_cap, 8.0);
        assert_eq!(cfg.deeppower.ddpg.state_dim, STATE_DIM);
        cfg.deeppower.validate().unwrap();
    }
}
