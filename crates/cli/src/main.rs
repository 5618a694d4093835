//! `deeppower` — command-line driver for the reproduction.
//!
//! ```text
//! deeppower train   --app xapian [--episodes N] [--episode-s S] [--seed K] -o policy.json
//! deeppower eval    --policy policy.json [--duration-s S] [--peak-load F] [--seed K]
//! deeppower compare --app xapian [--duration-s S] [--seed K] [--threads N] [--telemetry DIR]
//! deeppower grid    --apps a,b --governors g1,g2 --seeds 1,2 [--threads N] [--telemetry DIR]
//! deeppower trace   --policy policy.json [--duration-s S] -o trace.jsonl [--csv steps.csv]
//! deeppower workload-trace [--period-s S] [--base-rps R] [--seed K] -o trace.csv
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency is in the
//! sanctioned offline set); every flag has a sane default. `-v` and
//! `--quiet` select the stderr log level; everything written to stdout
//! is data (tables, CSV, JSON), everything human-facing goes through
//! the leveled [`Logger`] on stderr.
//!
//! `compare` and `grid` run on the `deeppower-harness` engine: every
//! (app, governor, seed) cell is an independent job executed by a
//! work-stealing thread pool, with results deterministic in the job
//! specs regardless of `--threads`. With `--telemetry DIR` each job
//! additionally writes its full event stream as one JSONL artifact,
//! byte-identical at any thread count.

use deeppower_core::train::default_peak_load;
use deeppower_core::{
    action_surface, decisions_to_csv, decisions_to_jsonl, evaluate, evaluate_recorded,
    explain_decisions, mean_abs_saliency, surface_to_csv, train, train_recorded, TrainConfig,
    TrainedPolicy, STATE_DIM_NAMES,
};
use deeppower_fleet::{run_fleet_with, BalancerPolicy, FleetObserve, FleetRun, FleetSpec};
use deeppower_harness::{
    calibrated_train_seed, fault_scenarios, fleet_grid, grid, overload_scenarios,
    robustness_matrix, run_fleet_grid, run_grid, run_grid_telemetry, select_scenarios, summarize,
    GovernorSpec, JobResult, WorkloadKind,
};
use deeppower_simd_server::{OverloadPlan, QueuePolicy, TraceConfig, MILLISECOND};
use deeppower_telemetry::{
    atomic_write, from_jsonl, render_phase_table, steps_to_csv, to_jsonl, traces_to_chrome,
    BurnRateRule, Event, FleetMonitor, FlightRecorder, HealthReport, Logger, MonitorConfig,
    Profiler, Recorder, RequestTrace, SloSpec, TracePlan, SPAN_BACKOFF, SPAN_QUEUE, SPAN_SERVICE,
};
use deeppower_workload::{save_trace_csv, App, AppSpec, DiurnalConfig, DiurnalTrace};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let log = Logger::from_flags(flags.contains_key("quiet"), flags.contains_key("verbose"));
    let result = check_known(cmd, &flags)
        .and_then(|()| check_positive(&flags))
        .and_then(|()| match cmd.as_str() {
            "train" => cmd_train(&flags, &log),
            "eval" => cmd_eval(&flags, &log),
            "compare" => cmd_compare(&flags, &log),
            "grid" => cmd_grid(&flags, &log),
            "robustness" => cmd_robustness(&flags, &log),
            "fleet" => cmd_fleet(&flags, &log),
            "monitor" => cmd_monitor(&flags, &log),
            "trace" => cmd_trace(&flags, &log),
            "rtrace" => cmd_rtrace(&flags, &log),
            "profile" => cmd_profile(&flags, &log),
            "explain" => cmd_explain(&flags, &log),
            "bench-diff" => cmd_bench_diff(&flags, &log),
            "workload-trace" => cmd_workload_trace(&flags, &log),
            "help" | "--help" | "-h" => {
                println!("{USAGE}");
                Ok(())
            }
            other => Err(format!("unknown command `{other}`")),
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            log.error(&e);
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
deeppower — DRL power management for latency-critical applications (ICPP'23 reproduction)

USAGE:
  deeppower train   --app <name> [--episodes N] [--episode-s S] [--peak-load F] [--seed K] [-o FILE]
  deeppower eval    --policy FILE [--duration-s S] [--peak-load F] [--seed K]
  deeppower compare --app <name> [--duration-s S] [--seed K] [--train-seed K] [--threads N]
                    [--telemetry DIR]
  deeppower grid    --apps a,b [--governors LIST] [--seeds LIST] [--duration-s S]
                    [--peak-load F] [--workload diurnal|constant] [--threads N] [-o FILE]
                    [--telemetry DIR]
  deeppower robustness --app <name> [--governors LIST] [--scenario LIST] [--duration-s S]
                    [--peak-load F] [--seed K] [--threads N] [-o FILE]
                    [--queue-policy fifo|lifo|drop-newest|drop-oldest]
                    [--queue-capacity N] [--retry-prob F]
  deeppower fleet   --policy FILE | --app <name> [--nodes N1,N2] [--balancer LIST]
                    [--profiles FILE] [--duration-s S] [--peak-load F] [--seed K]
                    [--train-seed K] [--fault none|dvfs|sensor|stall|all]
                    [--overload none|retry-storm|flash-crowd|collapse] [--monitor]
                    [--trace] [--trace-sample F] [--trace-exemplars K] [--flight-dump DIR]
                    [--slo FILE] [--health FILE] [--threads N] [-o FILE] [--telemetry DIR]
  deeppower monitor --input FILE[,FILE...] [--slo FILE | --app <name>] [-o FILE]
                    [--log FILE]
  deeppower trace   --policy FILE | --app <name> [--duration-s S] [--peak-load F] [--seed K]
                    [-o FILE.jsonl] [--csv FILE.csv]
  deeppower rtrace  --input FILE | (--policy FILE | --app <name>)
                    [--scenario retry-storm|flash-crowd|collapse] [--sample F] [--exemplars K]
                    [--nodes N] [--duration-s S] [--peak-load F] [--seed K]
                    [--slo FILE] [--flight-dump DIR] [-o FILE.jsonl]
  deeppower profile --policy FILE | --app <name> [--duration-s S] [--peak-load F] [--seed K]
                    [-o FILE.json] [--table FILE.txt]
  deeppower explain --policy FILE | --app <name> [--duration-s S] [--peak-load F] [--seed K]
                    [--points N] [--eps F] [--jsonl FILE] [--csv FILE] [--surface FILE]
  deeppower bench-diff --baseline FILE --candidate FILE [--tolerance F]
  deeppower workload-trace [--period-s S] [--base-rps R] [--seed K] -o FILE

Global: -v (debug logging) | --quiet (errors only); logs go to stderr, data to stdout.

APPS:      xapian | masstree | moses | sphinx | img-dnn
GOVERNORS: baseline | fixed-<mhz> | thread-controller | retail | gemini | deeppower
           (`deeppower` trains an agent per (app, seed) cell; --threads 0 = all cores)

`trace` replays a trained policy with full instrumentation and writes the
decision trace (DrlStep, FreqTransition, RequestDispatch/Complete, ...) as
JSONL; --csv additionally writes the per-second DrlStep table. For
request-lifecycle traces (retry chains, queue-vs-service) see `rtrace`.
`rtrace` records request-lifecycle traces: each sampled client request
becomes a retry-chain trace (submit, queue residency, service with
core/frequency/admission context, shed/abandon/backoff spans) measured
from first submission — the latency the SLA is charged against. Online
mode runs a monitored fleet under an overload scenario (--sample is the
head-sampling rate in [0,1], keyed on client id; --exemplars K always
traces the K slowest completions per window); offline mode (--input)
renders the queue-vs-service breakdown of a recorded JSONL artifact.
--flight-dump DIR writes each fired alert's flight-recorder contents
(the retained trailing windows of traces) as replayable `traces.jsonl`
plus a Chrome trace-event `trace.json` under
DIR/incident-NN-<metric>/.
`--telemetry DIR` on compare/grid writes one JSONL artifact per job,
named job-NNN-<app>-<governor>-seed<K>.jsonl.
`robustness` sweeps every governor (plain and wrapped in the safety
layer, shown as `<governor>+safe`) across the seeded fault scenarios
(none | dvfs | sensor | stall | all) *and* the closed-loop overload
scenarios (retry-storm | flash-crowd | collapse) and prints the
degradation table with goodput/wasted-work accounting; -o writes the
full matrix as JSON. --scenario takes a comma list restricting the sweep
(the `none` delta baseline always runs); --queue-policy,
--queue-capacity and --retry-prob override the overload scenarios'
bounded-queue and retry knobs.
`fleet` runs N server nodes behind a deterministic load balancer
(round-robin | jsq | power-aware), all steered by one shared policy via
batched actor inference; --nodes/--balancer take comma lists and expand
to a grid. -o writes the fleet reports as JSON; --telemetry DIR writes
one JSONL artifact per node per cell and warns about any node whose
event ring overflowed. --threads N (0 = all cores) splits
across grid cells first, then leftover cores parallelize the node
sessions *inside* each fleet — results are byte-identical either way.
--profiles FILE loads a heterogeneous fleet description (a JSON list of
node profiles: name/count/cores/DVFS range/power coefficients/optional
big.LITTLE core caps — see EXPERIMENTS.md); it replaces --nodes, and the
coordinator batches inference per profile group.
--fault applies one of the seeded robustness fault scenarios to every
node; --overload applies one of the seeded closed-loop overload
scenarios; --monitor attaches the fleet health monitor inline (SLO from
--slo FILE or the app's SLA) and prints each cell's incident log;
--health FILE writes the per-cell health reports as JSON. --trace
samples request-lifecycle traces on every node (--trace-sample /
--trace-exemplars, defaults 0.01 / 2); with --monitor the traces feed
each cell's flight recorder and --flight-dump DIR dumps the traces
behind every fired alert (see `rtrace`); with --telemetry the traces
ride in the per-node artifacts.
`monitor` replays telemetry JSONL artifacts offline — one file per node,
e.g. the per-node artifacts of `fleet --telemetry` — through the fleet
health monitor: tumbling-window SLO evaluation, multi-window burn-rate
alerts with incident timelines, EWMA anomaly flags. The SLO comes from
--slo FILE (JSON SloSpec), --app (the app's Table-3 SLA as p99 target),
or defaults to a timeout-rate ceiling; -o writes the health report JSON
and --log the human-readable incident log.
`profile` runs training (without --policy) plus an evaluation under the
span profiler and writes a Chrome trace-event JSON (load it at
ui.perfetto.dev or chrome://tracing) plus a per-phase aggregate table.
`explain` introspects a trained policy: the actor's action surface per
state dimension, and per-decision Q-values + finite-difference saliency
along an evaluation trajectory.
`bench-diff` compares a fresh bench artifact against a committed
BENCH_*.json baseline; exits non-zero on any gated regression.";

type Flags = HashMap<String, String>;

/// Flags that take no value; their presence maps to `"true"`.
const BOOL_FLAGS: &[&str] = &["quiet", "verbose", "monitor", "trace"];

/// Flags every command takes (`--quiet`, and `-v`).
const GLOBAL_FLAGS: &[&str] = &["quiet", "verbose"];

/// The flags `cmd` reads besides [`GLOBAL_FLAGS`] (`-o` is `out`), or
/// `None` for an unknown command. `--policy`, `--app`, `--train-seed`,
/// `--episodes` and `--episode-s` select or train the policy of the
/// commands that take either one.
fn command_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "train" => &["app", "episodes", "episode-s", "peak-load", "seed", "out"],
        "eval" => &["policy", "duration-s", "peak-load", "seed"],
        "compare" => &[
            "app",
            "duration-s",
            "seed",
            "train-seed",
            "threads",
            "telemetry",
        ],
        "grid" => &[
            "apps",
            "governors",
            "seeds",
            "duration-s",
            "peak-load",
            "workload",
            "threads",
            "out",
            "telemetry",
        ],
        "robustness" => &[
            "app",
            "governors",
            "scenario",
            "duration-s",
            "peak-load",
            "seed",
            "threads",
            "out",
            "queue-policy",
            "queue-capacity",
            "retry-prob",
        ],
        "fleet" => &[
            "policy",
            "app",
            "train-seed",
            "episodes",
            "episode-s",
            "nodes",
            "balancer",
            "profiles",
            "duration-s",
            "peak-load",
            "seed",
            "fault",
            "overload",
            "monitor",
            "trace",
            "trace-sample",
            "trace-exemplars",
            "flight-dump",
            "slo",
            "health",
            "threads",
            "out",
            "telemetry",
        ],
        "monitor" => &["input", "slo", "app", "out", "log"],
        "trace" => &[
            "policy",
            "app",
            "train-seed",
            "episodes",
            "episode-s",
            "duration-s",
            "peak-load",
            "seed",
            "out",
            "csv",
        ],
        "rtrace" => &[
            "input",
            "policy",
            "app",
            "train-seed",
            "episodes",
            "episode-s",
            "scenario",
            "sample",
            "exemplars",
            "nodes",
            "duration-s",
            "peak-load",
            "seed",
            "slo",
            "flight-dump",
            "out",
        ],
        "profile" => &[
            "policy",
            "app",
            "train-seed",
            "episodes",
            "episode-s",
            "duration-s",
            "peak-load",
            "seed",
            "out",
            "table",
        ],
        "explain" => &[
            "policy",
            "app",
            "train-seed",
            "episodes",
            "episode-s",
            "duration-s",
            "peak-load",
            "seed",
            "points",
            "eps",
            "jsonl",
            "csv",
            "surface",
        ],
        "bench-diff" => &["baseline", "candidate", "tolerance"],
        "workload-trace" => &["period-s", "base-rps", "seed", "out"],
        "help" | "--help" | "-h" => &[],
        _ => return None,
    })
}

/// Reject every flag `cmd` does not read, so a misspelt or misplaced
/// flag fails instead of running silently with its default. An unknown
/// command is left to the dispatch's own error.
fn check_known(cmd: &str, flags: &Flags) -> Result<(), String> {
    let Some(accepted) = command_flags(cmd) else {
        return Ok(());
    };
    let mut unknown: Vec<String> = flags
        .keys()
        .filter(|k| !GLOBAL_FLAGS.contains(&k.as_str()) && !accepted.contains(&k.as_str()))
        .map(|k| format!("--{k}"))
        .collect();
    if unknown.is_empty() {
        return Ok(());
    }
    unknown.sort_unstable();
    Err(format!("`{cmd}` does not take {}", unknown.join(", ")))
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = match a.as_str() {
            "-o" => "out".to_string(),
            "-v" => "verbose".to_string(),
            s if s.starts_with("--") => s.trim_start_matches("--").to_string(),
            other => return Err(format!("unexpected argument `{other}`")),
        };
        if BOOL_FLAGS.contains(&key.as_str()) {
            out.insert(key, "true".to_string());
            continue;
        }
        let val = it
            .next()
            .ok_or_else(|| format!("flag `{a}` needs a value"))?;
        out.insert(key, val.clone());
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
    }
}

/// Reject a zero, negative or non-finite run length, load or rate
/// wherever it is given. Runs before any command, so none trains a
/// policy first and then fails on its flags.
fn check_positive(flags: &Flags) -> Result<(), String> {
    for key in [
        "duration-s",
        "episode-s",
        "period-s",
        "peak-load",
        "base-rps",
    ] {
        let Some(v) = flags.get(key) else { continue };
        // An unparseable value is left to `get`'s "bad value" error.
        if v.parse::<f64>().is_ok_and(|x| x <= 0.0 || !x.is_finite()) {
            return Err(format!("--{key} must be positive and finite, got {v}"));
        }
    }
    Ok(())
}

fn app_by_name(name: &str) -> Result<App, String> {
    match name {
        "xapian" => Ok(App::Xapian),
        "masstree" => Ok(App::Masstree),
        "moses" => Ok(App::Moses),
        "sphinx" => Ok(App::Sphinx),
        "img-dnn" | "imgdnn" => Ok(App::ImgDnn),
        other => Err(format!("unknown app `{other}`")),
    }
}

fn parse_app(flags: &Flags) -> Result<App, String> {
    app_by_name(flags.get("app").ok_or("missing --app")?)
}

/// Resolve a governor name to a [`GovernorSpec`]. `deeppower` expands to
/// `DeepPowerTrain`, so each grid cell trains its own agent from the
/// cell's seed — self-contained and deterministic, no policy file needed.
fn governor_by_name(name: &str, train_cfg: &TrainConfig) -> Result<GovernorSpec, String> {
    match name {
        "baseline" | "max-freq" => Ok(GovernorSpec::MaxFreq),
        "thread-controller" => Ok(GovernorSpec::ThreadController(0.3, 1.0)),
        "retail" => Ok(GovernorSpec::Retail),
        "gemini" => Ok(GovernorSpec::Gemini),
        "deeppower" => Ok(GovernorSpec::DeepPowerTrain(*train_cfg)),
        other => match other.strip_prefix("fixed-").and_then(|m| m.parse().ok()) {
            Some(mhz) => Ok(GovernorSpec::FixedMhz(mhz)),
            None => Err(format!("unknown governor `{other}`")),
        },
    }
}

fn parse_list<T>(
    flags: &Flags,
    key: &str,
    default: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    flags
        .get(key)
        .map(String::as_str)
        .unwrap_or(default)
        .split(',')
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect()
}

/// Write one JSONL artifact per job into `dir`:
/// `job-NNN-<app>-<governor>-seed<K>.jsonl`. Job index, app, governor
/// and seed come from the (deterministically ordered) results, so the
/// file set — names and bytes — is a pure function of the job specs.
/// Warns once for each job whose ring evicted events.
fn write_telemetry_artifacts(
    dir: &str,
    results: &[JobResult],
    events: &[(Vec<Event>, u64)],
    log: &Logger,
) -> Result<(), String> {
    warn_dropped(log, "telemetry", "job", events);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    for (i, (r, (ev, _))) in results.iter().zip(events).enumerate() {
        let path = Path::new(dir).join(format!(
            "job-{i:03}-{}-{}-seed{}.jsonl",
            r.app, r.governor, r.seed
        ));
        atomic_write(&path, to_jsonl(ev)).map_err(|e| e.to_string())?;
        log.debug(&format!("{} events -> {}", ev.len(), path.display()));
    }
    log.info(&format!(
        "{} telemetry artifacts written to {dir}/",
        results.len()
    ));
    Ok(())
}

fn cmd_train(flags: &Flags, log: &Logger) -> Result<(), String> {
    let app = parse_app(flags)?;
    let mut cfg = TrainConfig::for_app(app);
    cfg.episodes = get(flags, "episodes", 8usize)?;
    cfg.episode_s = get(flags, "episode-s", 120u64)?;
    cfg.peak_load = get(flags, "peak-load", cfg.peak_load)?;
    cfg.seed = get(flags, "seed", 0u64)?;
    let out: PathBuf = get(flags, "out", PathBuf::from("policy.json"))?;

    log.info(&format!(
        "training DeepPower for {:?}: {} episodes x {} s (peak load {:.2})",
        app, cfg.episodes, cfg.episode_s, cfg.peak_load
    ));
    let t0 = std::time::Instant::now();
    let (policy, report) = train(&cfg);
    for (i, ((r, p), to)) in report
        .episode_rewards
        .iter()
        .zip(&report.episode_power_w)
        .zip(&report.episode_timeout_rate)
        .enumerate()
    {
        log.info(&format!(
            "  episode {i:>2}: mean reward {r:>7.3}  power {p:>6.1} W  timeouts {:>5.2}%",
            to * 100.0
        ));
    }
    policy.save(&out).map_err(|e| e.to_string())?;
    log.info(&format!(
        "{} DDPG updates in {:.1} s; policy written to {}",
        report.updates,
        t0.elapsed().as_secs_f64(),
        out.display()
    ));
    Ok(())
}

fn cmd_eval(flags: &Flags, log: &Logger) -> Result<(), String> {
    let path: PathBuf = get(flags, "policy", PathBuf::from("policy.json"))?;
    let policy = TrainedPolicy::load(Path::new(&path)).map_err(|e| e.to_string())?;
    let duration_s = get(flags, "duration-s", 60u64)?;
    let peak = get(flags, "peak-load", default_peak_load(policy.app))?;
    let seed = get(flags, "seed", 999u64)?;

    let spec = AppSpec::get(policy.app);
    log.info(&format!(
        "evaluating {:?} policy: {duration_s} s at peak load {peak:.2}",
        policy.app
    ));
    let out = evaluate(&policy, peak, duration_s, seed, TraceConfig::default());
    let s = &out.sim.stats;
    println!(
        "power {:.1} W | mean {:.3} ms | p99 {:.3} ms (SLA {} ms) | timeouts {:.2}% | {} requests",
        out.sim.avg_power_w,
        s.mean_ns / MILLISECOND as f64,
        s.p99_ns as f64 / MILLISECOND as f64,
        spec.sla / MILLISECOND,
        s.timeout_rate() * 100.0,
        s.count
    );
    Ok(())
}

fn cmd_compare(flags: &Flags, log: &Logger) -> Result<(), String> {
    let app = parse_app(flags)?;
    let duration_s = get(flags, "duration-s", 60u64)?;
    let seed = get(flags, "seed", 999u64)?;
    let threads = get(flags, "threads", 0usize)?;
    let train_seed = get(flags, "train-seed", calibrated_train_seed(app))?;

    log.info(&format!(
        "training DeepPower (8 episodes x 120 s, seed {train_seed})..."
    ));
    let mut cfg = TrainConfig::for_app(app);
    cfg.episodes = 8;
    cfg.episode_s = 120;
    cfg.seed = train_seed;
    let (policy, _) = train(&cfg);

    // All four rollouts are independent jobs on the same workload seed —
    // the harness fans them out across the thread pool.
    let governors = [
        GovernorSpec::MaxFreq,
        GovernorSpec::Retail,
        GovernorSpec::Gemini,
        GovernorSpec::DeepPower(policy),
    ];
    let jobs = grid(
        &[app],
        &governors,
        &[seed],
        default_peak_load(app),
        duration_s,
        WorkloadKind::Diurnal,
    );
    log.info(&format!(
        "comparing {} policies on {app:?} over {duration_s} s",
        jobs.len()
    ));
    let results = match flags.get("telemetry") {
        Some(dir) => {
            let (results, events) = run_grid_telemetry(&jobs, threads);
            write_telemetry_artifacts(dir, &results, &events, log)?;
            results
        }
        None => run_grid(&jobs, threads),
    };

    let base_power = results[0].avg_power_w;
    println!(
        "\n{:<11} {:>9} {:>8} {:>10} {:>9}",
        "policy", "power(W)", "saving%", "p99(ms)", "timeout%"
    );
    for r in &results {
        println!(
            "{:<11} {:>9.1} {:>7.1}% {:>10.2} {:>8.2}%",
            r.governor,
            r.avg_power_w,
            100.0 * (1.0 - r.avg_power_w / base_power),
            r.p99_ms,
            r.timeout_rate * 100.0,
        );
    }
    Ok(())
}

fn cmd_grid(flags: &Flags, log: &Logger) -> Result<(), String> {
    let apps = parse_list(flags, "apps", "xapian,masstree", app_by_name)?;
    let seeds = parse_list(flags, "seeds", "1,2,3", |s| {
        s.parse().map_err(|_| format!("bad seed `{s}`"))
    })?;
    let duration_s = get(flags, "duration-s", 60u64)?;
    let peak_load = get(flags, "peak-load", 0.7f64)?;
    let threads = get(flags, "threads", 0usize)?;
    let workload = match flags
        .get("workload")
        .map(String::as_str)
        .unwrap_or("diurnal")
    {
        "diurnal" => WorkloadKind::Diurnal,
        "constant" => WorkloadKind::Constant,
        other => return Err(format!("unknown workload `{other}`")),
    };
    if apps.is_empty() {
        return Err("--apps needs at least one app".into());
    }
    if seeds.is_empty() {
        return Err("--seeds needs at least one seed".into());
    }
    // One shared training recipe; each DeepPower cell re-seeds it from its
    // own JobSpec, so cells stay independent.
    let train_cfg = TrainConfig::for_app(apps[0]);
    let governors = parse_list(flags, "governors", "baseline,retail,gemini", |s| {
        governor_by_name(s, &train_cfg)
    })?;
    if governors.is_empty() {
        return Err("--governors needs at least one governor".into());
    }

    let jobs = grid(&apps, &governors, &seeds, peak_load, duration_s, workload);
    log.info(&format!(
        "running {} jobs ({} apps x {} governors x {} seeds), {} threads",
        jobs.len(),
        apps.len(),
        governors.len(),
        seeds.len(),
        if threads == 0 {
            "all".to_string()
        } else {
            threads.to_string()
        }
    ));
    let t0 = std::time::Instant::now();
    let results = match flags.get("telemetry") {
        Some(dir) => {
            let (results, events) = run_grid_telemetry(&jobs, threads);
            write_telemetry_artifacts(dir, &results, &events, log)?;
            results
        }
        None => run_grid(&jobs, threads),
    };
    let report = summarize(results);
    log.info(&format!("finished in {:.1} s", t0.elapsed().as_secs_f64()));

    println!(
        "\n{:<10} {:<17} {:>5} {:>9} {:>10} {:>10} {:>9}",
        "app", "governor", "runs", "power(W)", "mean(ms)", "p99(ms)", "timeout%"
    );
    for g in &report.groups {
        println!(
            "{:<10} {:<17} {:>5} {:>9.1} {:>10.3} {:>10.2} {:>8.2}%",
            g.app,
            g.governor,
            g.runs,
            g.avg_power_w,
            g.mean_ms,
            g.p99_ms,
            g.timeout_rate * 100.0,
        );
    }
    if let Some(out) = flags.get("out") {
        atomic_write(Path::new(out), report.to_json()).map_err(|e| e.to_string())?;
        log.info(&format!("report written to {out}"));
    }
    Ok(())
}

/// Governors × fault-scenarios degradation sweep. Every requested
/// governor runs plain *and* wrapped in the [`SafetyGovernor`] layer
/// (`<governor>+safe` rows), across the five seeded fault scenarios;
/// deltas in the table are against the same row-group's fault-free run.
fn cmd_robustness(flags: &Flags, log: &Logger) -> Result<(), String> {
    let app = parse_app(flags)?;
    let duration_s = get(flags, "duration-s", 20u64)?;
    let peak_load = get(flags, "peak-load", 0.7f64)?;
    let seed = get(flags, "seed", 1u64)?;
    let threads = get(flags, "threads", 0usize)?;
    let train_cfg = TrainConfig::for_app(app);
    let governors = parse_list(flags, "governors", "baseline,thread-controller", |s| {
        governor_by_name(s, &train_cfg)
    })?;
    if governors.is_empty() {
        return Err("--governors needs at least one governor".into());
    }

    // --scenario restricts the matrix to `none` + the named scenarios;
    // default is all eight (5 fault + 3 overload).
    let wanted = parse_list(flags, "scenario", "", |s| Ok(s.to_string()))?;
    let mut scenarios = select_scenarios(seed, AppSpec::get(app).sla, &wanted)?;

    // Overload knobs tune every *overload* scenario's plan in the
    // selection; fault scenarios and the `none` baseline are untouched.
    if let Some(p) = flags.get("queue-policy") {
        let policy = QueuePolicy::parse(p).ok_or_else(|| {
            format!("unknown queue policy `{p}` (fifo|lifo|drop-newest|drop-oldest)")
        })?;
        for (_, _, ov) in scenarios.iter_mut().filter(|(_, _, ov)| ov.is_active()) {
            ov.queue_policy = policy;
        }
    }
    if flags.contains_key("queue-capacity") {
        let cap = get(flags, "queue-capacity", 0u32)?;
        if cap == 0 {
            return Err("queue capacity must be at least 1".into());
        }
        for (_, _, ov) in scenarios.iter_mut().filter(|(_, _, ov)| ov.is_active()) {
            ov.queue_capacity = cap;
        }
    }
    if flags.contains_key("retry-prob") {
        let prob = get(flags, "retry-prob", 0.0f64)?;
        if !(0.0..=1.0).contains(&prob) {
            return Err(format!(
                "retry probability must be within [0, 1], got {prob}"
            ));
        }
        for (_, _, ov) in scenarios.iter_mut().filter(|(_, _, ov)| ov.is_active()) {
            ov.retry_prob = prob;
        }
    }

    log.info(&format!(
        "robustness matrix on {app:?}: {} governors x 2 (plain, +safe) x {} scenarios, {duration_s} s each",
        governors.len(),
        scenarios.len()
    ));
    let t0 = std::time::Instant::now();
    let report = robustness_matrix(
        &scenarios, app, &governors, true, seed, peak_load, duration_s, threads,
    );
    log.info(&format!("finished in {:.1} s", t0.elapsed().as_secs_f64()));

    println!("\n{}", report.render_table());
    if let Some(out) = flags.get("out") {
        atomic_write(Path::new(out), report.to_json()).map_err(|e| e.to_string())?;
        log.info(&format!("robustness report written to {out}"));
    }
    Ok(())
}

/// Fleet-scale evaluation: node counts × balancer policies, every cell
/// N lockstep node simulations sharing one policy through batched actor
/// inference. The policy comes from `--policy FILE` or is trained
/// in-process from `--app` (same recipe as `compare`).
fn cmd_fleet(flags: &Flags, log: &Logger) -> Result<(), String> {
    let profiles = match flags.get("profiles") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read profile file {path}: {e}"))?;
            let ps =
                deeppower_fleet::profiles_from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            Some(ps)
        }
        None => None,
    };
    if profiles.is_some() && flags.contains_key("nodes") {
        return Err(
            "--profiles and --nodes are mutually exclusive (profile counts set the fleet size)"
                .into(),
        );
    }
    let node_counts = parse_list(flags, "nodes", "4", |s| {
        s.parse::<usize>()
            .map_err(|_| format!("bad node count `{s}`"))
    })?;
    // With a profile file the fleet size comes from the profile counts;
    // the grid collapses to one cell per balancer.
    let node_counts = match &profiles {
        Some(ps) => vec![ps.iter().map(|p| p.count).sum()],
        None => node_counts,
    };
    let balancers = parse_list(flags, "balancer", "round-robin", |s| {
        BalancerPolicy::parse(s)
            .ok_or_else(|| format!("unknown balancer `{s}` (round-robin|jsq|power-aware)"))
    })?;
    if node_counts.is_empty() || node_counts.contains(&0) {
        return Err("--nodes needs positive node counts".into());
    }
    if balancers.is_empty() {
        return Err("--balancer needs at least one policy".into());
    }
    let duration_s = get(flags, "duration-s", 60u64)?;
    let seed = get(flags, "seed", 999u64)?;
    let threads = get(flags, "threads", 0usize)?;

    let fault = flags.get("fault").map(String::as_str).unwrap_or("none");
    let faults = fault_scenarios(seed)
        .into_iter()
        .find(|(name, _)| *name == fault)
        .map(|(_, plan)| plan)
        .ok_or_else(|| format!("unknown fault scenario `{fault}` (none|dvfs|sensor|stall|all)"))?;
    let monitor = flags.contains_key("monitor");
    if monitor && flags.contains_key("telemetry") {
        return Err(
            "--monitor and --telemetry are mutually exclusive; write artifacts first, then \
             `deeppower monitor --input node0.jsonl,node1.jsonl,...`"
                .into(),
        );
    }
    let trace = flags.contains_key("trace");
    let trace_sample = get(flags, "trace-sample", 0.01f64)?;
    let trace_exemplars = get(flags, "trace-exemplars", 2u32)?;
    if !(0.0..=1.0).contains(&trace_sample) {
        return Err(format!(
            "bad value for --trace-sample: {trace_sample} (sampling rate must be in [0, 1])"
        ));
    }
    if trace && !monitor && !flags.contains_key("telemetry") {
        return Err(
            "--trace needs a sink: add --monitor (flight recorder + incident dumps) or \
             --telemetry DIR (traces ride in the per-node artifacts)"
                .into(),
        );
    }
    if flags.contains_key("flight-dump") && !(trace && monitor) {
        return Err("--flight-dump needs --trace --monitor (the flight recorder is the monitor's trace ring)".into());
    }
    let overload_name = flags.get("overload").map(String::as_str).unwrap_or("none");
    // Name check up front, before the (possibly expensive) policy
    // load / in-process training; the real plan needs the app's SLA.
    overload_plan_by_name(overload_name, seed, MILLISECOND)?;

    let policy = policy_or_train(flags, log, "fleet", &Recorder::disabled())?;
    let app = policy.app;
    let peak_load = get(flags, "peak-load", default_peak_load(app))?;
    let overload = overload_plan_by_name(overload_name, seed, AppSpec::get(app).sla)?;

    let mut jobs = fleet_grid(
        app,
        &node_counts,
        &balancers,
        seed,
        peak_load,
        duration_s,
        &policy,
    );
    for job in &mut jobs {
        job.fleet.faults = faults;
        job.fleet.overload = overload;
        if trace {
            job.fleet.rtrace = TracePlan::sampled(trace_sample, trace_exemplars, seed);
        }
        if let Some(ps) = &profiles {
            job.fleet = job.fleet.clone().with_profiles(ps.clone());
        }
    }
    if let Some(ps) = &profiles {
        let groups: Vec<String> = ps
            .iter()
            .map(|p| format!("{}x {} ({}c)", p.count, p.name, p.cores))
            .collect();
        log.info(&format!("fleet profiles: {}", groups.join(", ")));
    }
    log.info(&format!(
        "running {} fleet cells on {app:?}: nodes {node_counts:?} x balancers {:?}, {duration_s} s each, faults `{fault}`",
        jobs.len(),
        balancers.iter().map(|b| b.label()).collect::<Vec<_>>(),
    ));
    let t0 = std::time::Instant::now();
    let mut healths: Vec<HealthReport> = Vec::new();
    let results = if monitor {
        let app_spec = AppSpec::get(app);
        let slo = slo_from_flags(flags, SloSpec::for_sla_ns(app_spec.name, app_spec.sla))?;
        let mut results = Vec::with_capacity(jobs.len());
        for (j, job) in jobs.iter().enumerate() {
            let cfg = MonitorConfig::with_slo(slo.clone());
            let keep = cfg.flight_windows;
            let run = FleetRun {
                threads,
                observe: FleetObserve::Monitor(cfg),
                ..FleetRun::default()
            };
            let out = run_fleet_with(&job.fleet, &[&job.policy], &run);
            let (res, mon) = (out.result, out.monitor.expect("monitored fleet run"));
            let mut rep = mon.finish();
            if let Some(dir) = flags.get("flight-dump") {
                let cell_dir = Path::new(dir).join(format!("cell-{j:02}"));
                let dumped = dump_flight_recorder(&cell_dir, &mut rep, mon.flight(), keep)?;
                if dumped > 0 {
                    log.info(&format!(
                        "cell {j}: {dumped} incident dump(s) -> {}",
                        cell_dir.display()
                    ));
                }
            }
            healths.push(rep);
            results.push(res);
        }
        results
    } else {
        match flags.get("telemetry") {
            Some(dir) => {
                // Cells run one after another, each on all `threads`
                // workers; the per-node streams are identical at any count.
                std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
                let mut results = Vec::with_capacity(jobs.len());
                for (j, job) in jobs.iter().enumerate() {
                    let run = FleetRun {
                        threads,
                        observe: FleetObserve::Events { ring: 1 << 16 },
                        ..FleetRun::default()
                    };
                    let out = run_fleet_with(&job.fleet, &[&job.policy], &run);
                    warn_dropped(log, &format!("cell {j}"), "node", &out.events);
                    let res = out.result;
                    for (i, (events, _)) in out.events.iter().enumerate() {
                        let path = Path::new(dir).join(format!(
                            "fleet-{j:02}-{}-{}nodes-node{i:02}.jsonl",
                            res.balancer, res.nodes
                        ));
                        atomic_write(&path, to_jsonl(events)).map_err(|e| e.to_string())?;
                    }
                    log.debug(&format!(
                        "cell {j}: {} nodes, {} artifacts",
                        job.fleet.nodes, job.fleet.nodes
                    ));
                    results.push(res);
                }
                results
            }
            None => run_fleet_grid(&jobs, threads),
        }
    };
    log.info(&format!("finished in {:.1} s", t0.elapsed().as_secs_f64()));

    println!(
        "\n{:<6} {:<20} {:>9} {:>10} {:>10} {:>10} {:>9}",
        "nodes", "balancer", "requests", "power(W)", "p95(ms)", "p99(ms)", "timeout%"
    );
    for r in &results {
        println!(
            "{:<6} {:<20} {:>9} {:>10.1} {:>10.2} {:>10.2} {:>8.2}%",
            r.nodes,
            r.balancer,
            r.total_requests,
            r.total_power_w,
            r.fleet_p95_ms,
            r.fleet_p99_ms,
            r.fleet_timeout_rate * 100.0,
        );
    }
    if monitor {
        for (r, rep) in results.iter().zip(&healths) {
            println!("\n== cell: {} nodes, {} ==", r.nodes, r.balancer);
            print!("{}", rep.render_incident_log());
        }
        if let Some(path) = flags.get("health") {
            let json = serde_json::to_string_pretty(&healths).expect("health report serialization");
            atomic_write(Path::new(path), json).map_err(|e| e.to_string())?;
            log.info(&format!("health reports written to {path}"));
        }
    }
    if let Some(out) = flags.get("out") {
        let json = serde_json::to_string_pretty(&results).expect("fleet results serialization");
        atomic_write(Path::new(out), json).map_err(|e| e.to_string())?;
        log.info(&format!("fleet report written to {out}"));
    }
    Ok(())
}

/// SLO spec selection shared by `fleet --monitor` and `monitor`:
/// `--slo FILE` (JSON [`SloSpec`]) wins, otherwise the caller's default
/// (the `--app` SLA, or `SloSpec::default()` for offline artifacts).
fn slo_from_flags(flags: &Flags, default: SloSpec) -> Result<SloSpec, String> {
    match flags.get("slo") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read SLO spec {path}: {e}"))?;
            SloSpec::from_json(&text).map_err(|e| format!("bad SLO spec {path}: {e}"))
        }
        None => Ok(default),
    }
}

/// Offline health plane: replay per-node telemetry artifacts (one JSONL
/// file per node, in node order) through a [`FleetMonitor`] and emit the
/// same health report / incident log an inline `fleet --monitor` run
/// produces. Deterministic: a pure function of the artifact bytes and
/// the SLO spec.
fn cmd_monitor(flags: &Flags, log: &Logger) -> Result<(), String> {
    let inputs = parse_list(flags, "input", "", |s| Ok::<_, String>(s.to_string()))?;
    let inputs: Vec<String> = inputs.into_iter().filter(|s| !s.is_empty()).collect();
    if inputs.is_empty() {
        return Err("monitor needs --input FILE[,FILE...] (one JSONL artifact per node)".into());
    }

    let default_slo = match flags.get("app") {
        Some(name) => {
            let spec = AppSpec::get(app_by_name(name)?);
            SloSpec::for_sla_ns(spec.name, spec.sla)
        }
        None => SloSpec::default(),
    };
    let slo = slo_from_flags(flags, default_slo)?;
    log.info(&format!(
        "evaluating SLO `{}` over {} node artifact(s)",
        slo.name,
        inputs.len()
    ));

    let mut mon = FleetMonitor::new(MonitorConfig::with_slo(slo));
    for (node, path) in inputs.iter().enumerate() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read telemetry artifact {path}: {e}"))?;
        let events = from_jsonl(&text).map_err(|e| format!("corrupt artifact {path}: {e}"))?;
        mon.ingest(node as u64, &events);
    }
    let report = mon.finish();
    if report.windows == 0 {
        return Err(format!(
            "no window rollups in {} artifact(s) — re-record with a window-enabled run \
             (`deeppower fleet --telemetry DIR`)",
            inputs.len()
        ));
    }

    print!("{}", report.render_incident_log());
    if let Some(out) = flags.get("out") {
        atomic_write(Path::new(out), report.to_json()).map_err(|e| e.to_string())?;
        log.info(&format!("health report written to {out}"));
    }
    if let Some(path) = flags.get("log") {
        atomic_write(Path::new(path), report.render_incident_log()).map_err(|e| e.to_string())?;
        log.info(&format!("incident log written to {path}"));
    }
    Ok(())
}

/// `--policy FILE` or in-process training from `--app` (the recipe the
/// `compare`/`trace` commands share; `--episodes`/`--episode-s` resize
/// it). Training runs under `rec`, so `profile` captures the training
/// phases through the recorder's profiler; pass a disabled recorder
/// everywhere else.
fn policy_or_train(
    flags: &Flags,
    log: &Logger,
    cmd: &str,
    rec: &Recorder,
) -> Result<TrainedPolicy, String> {
    match flags.get("policy") {
        Some(p) => TrainedPolicy::load(Path::new(p)).map_err(|e| e.to_string()),
        None => {
            let app = app_by_name(
                flags
                    .get("app")
                    .ok_or_else(|| format!("{cmd} needs --policy FILE or --app <name>"))?,
            )?;
            let train_seed = get(flags, "train-seed", calibrated_train_seed(app))?;
            let episodes = get(flags, "episodes", 8usize)?;
            let episode_s = get(flags, "episode-s", 120u64)?;
            log.info(&format!(
                "no --policy given; training DeepPower for {app:?} ({episodes} episodes x {episode_s} s, seed {train_seed})..."
            ));
            let mut cfg = TrainConfig::for_app(app);
            cfg.episodes = episodes;
            cfg.episode_s = episode_s;
            cfg.seed = train_seed;
            Ok(train_recorded(&cfg, rec).0)
        }
    }
}

/// One warning line per stream (a fleet node or a grid job, named by
/// `unit`) whose telemetry ring evicted events.
fn warn_dropped(log: &Logger, what: &str, unit: &str, streams: &[(Vec<Event>, u64)]) {
    for (i, (_, dropped)) in streams.iter().enumerate() {
        if *dropped > 0 {
            log.warn(&format!(
                "{what}: {unit} {i} dropped {dropped} events (ring overflow) — its telemetry is incomplete"
            ));
        }
    }
}

/// Replay a policy with full instrumentation and dump the decision
/// trace. The recorder ring is sized for the worst case — two request
/// marks per request at the trace's peak rate for the whole run, plus
/// one `FreqTransition` per core per 1 ms tick — so nothing is evicted
/// on sane durations.
fn cmd_trace(flags: &Flags, log: &Logger) -> Result<(), String> {
    log.info(
        "`trace` records the governor decision trace; for request-lifecycle traces \
         (retry chains, queue-vs-service breakdown) use `deeppower rtrace`",
    );
    let policy = policy_or_train(flags, log, "trace", &Recorder::disabled())?;
    let duration_s = get(flags, "duration-s", 10u64)?;
    let peak = get(flags, "peak-load", default_peak_load(policy.app))?;
    let seed = get(flags, "seed", 999u64)?;
    let out: PathBuf = get(flags, "out", PathBuf::from("trace.jsonl"))?;

    let spec = AppSpec::get(policy.app);
    let marks = (2.0 * spec.rps_for_load(peak) * duration_s as f64).ceil() as usize;
    let capacity = marks + duration_s as usize * 1000 * spec.n_threads + (1 << 16);
    let rec = Recorder::ring(capacity);
    log.info(&format!(
        "tracing {:?} policy: {duration_s} s at peak load {peak:.2} (event capacity {capacity})",
        policy.app
    ));
    let outcome = evaluate_recorded(
        &policy,
        peak,
        duration_s,
        seed,
        TraceConfig { events: true },
        &rec,
    );
    let events = rec.drain_events();
    if rec.dropped_events() > 0 {
        log.warn(&format!(
            "{} events dropped (ring overflow) — trace is incomplete",
            rec.dropped_events()
        ));
    }
    atomic_write(&out, to_jsonl(&events)).map_err(|e| e.to_string())?;
    log.info(&format!(
        "{} events ({} DRL steps) -> {}",
        events.len(),
        outcome.log.len(),
        out.display()
    ));
    if let Some(csv) = flags.get("csv") {
        atomic_write(Path::new(csv), steps_to_csv(&events)).map_err(|e| e.to_string())?;
        log.info(&format!("DrlStep table -> {csv}"));
    }
    let s = &outcome.sim.stats;
    println!(
        "power {:.1} W | p99 {:.3} ms | timeouts {:.2}% | {} requests | {} events",
        outcome.sim.avg_power_w,
        s.p99_ns as f64 / MILLISECOND as f64,
        s.timeout_rate() * 100.0,
        s.count,
        events.len()
    );
    Ok(())
}

/// Resolve an overload scenario name (`none` or one of the harness's
/// seeded closed-loop scenarios) to its [`OverloadPlan`].
fn overload_plan_by_name(name: &str, seed: u64, sla_ns: u64) -> Result<OverloadPlan, String> {
    if name == "none" {
        return Ok(OverloadPlan::none());
    }
    overload_scenarios(seed, sla_ns)
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, plan)| plan)
        .ok_or_else(|| {
            format!("unknown overload scenario `{name}` (none|retry-storm|flash-crowd|collapse)")
        })
}

/// Write one flight-recorder dump per fired alert: the traces the
/// monitor retained for the alert's trailing windows, as replayable
/// JSONL (`traces.jsonl`, one [`Event::RequestTrace`] per line — feed
/// it back through `rtrace --input`) plus a Chrome trace-event view
/// (`trace.json`, loadable at ui.perfetto.dev), under
/// `dir/incident-NN-<metric>/`. Each dumped alert's `flight_dump`
/// field points at its directory, so the incident log names the
/// artifact. Returns how many alerts got a dump (alerts whose windows
/// were already pruned from the ring get none).
fn dump_flight_recorder(
    dir: &Path,
    report: &mut HealthReport,
    flight: &FlightRecorder,
    keep_windows: u64,
) -> Result<usize, String> {
    if flight.is_empty() || report.alerts.is_empty() {
        return Ok(0);
    }
    let mut dumped = 0;
    for (i, alert) in report.alerts.iter_mut().enumerate() {
        let lo = (alert.window + 1).saturating_sub(keep_windows);
        let traces = flight.traces_in(lo, alert.window);
        if traces.is_empty() {
            continue;
        }
        let sub = dir.join(format!("incident-{i:02}-{}", alert.metric));
        std::fs::create_dir_all(&sub)
            .map_err(|e| format!("cannot create {}: {e}", sub.display()))?;
        let events: Vec<Event> = traces
            .iter()
            .map(|(_, _, t)| Event::RequestTrace((*t).clone()))
            .collect();
        atomic_write(sub.join("traces.jsonl"), to_jsonl(&events)).map_err(|e| e.to_string())?;
        atomic_write(sub.join("trace.json"), traces_to_chrome(&traces))
            .map_err(|e| e.to_string())?;
        alert.flight_dump = sub.display().to_string();
        dumped += 1;
    }
    Ok(dumped)
}

/// Queue-vs-service breakdown of a trace set: per-outcome aggregates
/// plus the slowest chains, so the first question an incident raises —
/// "was the tail waiting or working?" — is answered offline.
fn render_trace_breakdown(traces: &[&RequestTrace]) -> String {
    use std::fmt::Write as _;
    let ms = |ns: u64| ns as f64 / MILLISECOND as f64;
    let mut out = String::new();
    let (mut q_total, mut s_total, mut b_total) = (0u64, 0u64, 0u64);
    let mut by_outcome: std::collections::BTreeMap<&str, u64> = Default::default();
    for t in traces {
        q_total += t.span_total_ns(SPAN_QUEUE);
        s_total += t.span_total_ns(SPAN_SERVICE);
        b_total += t.span_total_ns(SPAN_BACKOFF);
        *by_outcome.entry(t.outcome.as_str()).or_default() += 1;
    }
    let outcomes: Vec<String> = by_outcome.iter().map(|(k, v)| format!("{v} {k}")).collect();
    let active = (q_total + s_total).max(1);
    writeln!(
        out,
        "{} trace(s) ({}); queue {:.1}% vs service {:.1}% of in-server time, {:.1} ms total client backoff",
        traces.len(),
        outcomes.join(", "),
        100.0 * q_total as f64 / active as f64,
        100.0 * s_total as f64 / active as f64,
        ms(b_total),
    )
    .unwrap();
    let mut worst: Vec<&&RequestTrace> = traces.iter().collect();
    worst.sort_by(|a, b| (b.latency_ns, a.client).cmp(&(a.latency_ns, b.client)));
    writeln!(
        out,
        "{:>10} {:>5} {:>9} {:>10} {:>9} {:>11} {:>10} {:>12} {:>12}",
        "client",
        "node",
        "attempts",
        "outcome",
        "sampled",
        "latency(ms)",
        "queue(ms)",
        "service(ms)",
        "backoff(ms)"
    )
    .unwrap();
    for t in worst.iter().take(10) {
        writeln!(
            out,
            "{:>10} {:>5} {:>9} {:>10} {:>9} {:>11.3} {:>10.3} {:>12.3} {:>12.3}",
            t.client,
            t.node,
            t.attempts.len(),
            t.outcome,
            t.sampled,
            ms(t.latency_ns),
            ms(t.span_total_ns(SPAN_QUEUE)),
            ms(t.span_total_ns(SPAN_SERVICE)),
            ms(t.span_total_ns(SPAN_BACKOFF)),
        )
        .unwrap();
    }
    out
}

/// Request-lifecycle tracing. Offline (`--input FILE`): render the
/// queue-vs-service breakdown of a recorded JSONL artifact (a
/// `--telemetry` node artifact, an `rtrace -o` file, or a flight
/// dump's `traces.jsonl`). Online: run a monitored fleet under a
/// seeded overload scenario with head sampling + tail exemplars, print
/// the incident log and breakdown, and optionally write all traces
/// (`-o`) and per-alert flight dumps (`--flight-dump DIR`).
fn cmd_rtrace(flags: &Flags, log: &Logger) -> Result<(), String> {
    let sample = get(flags, "sample", 0.01f64)?;
    let exemplars = get(flags, "exemplars", 2u32)?;
    if !(0.0..=1.0).contains(&sample) {
        return Err(format!(
            "bad value for --sample: {sample} (sampling rate must be in [0, 1])"
        ));
    }
    if let Some(path) = flags.get("input") {
        if flags.contains_key("app") || flags.contains_key("policy") {
            return Err(
                "--input replays a recorded artifact; --app/--policy run a live fleet — pick one"
                    .into(),
            );
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read trace artifact {path}: {e}"))?;
        let events = from_jsonl(&text).map_err(|e| format!("corrupt artifact {path}: {e}"))?;
        let traces: Vec<&RequestTrace> = events
            .iter()
            .filter_map(|e| match e {
                Event::RequestTrace(t) => Some(t),
                _ => None,
            })
            .collect();
        if traces.is_empty() {
            return Err(format!(
                "no request traces in {path} — record one with `deeppower rtrace --app <name>` \
                 or `deeppower fleet --trace`"
            ));
        }
        print!("{}", render_trace_breakdown(&traces));
        return Ok(());
    }

    let scenario = flags
        .get("scenario")
        .map(String::as_str)
        .unwrap_or("collapse");
    let duration_s = get(flags, "duration-s", 6u64)?;
    let seed = get(flags, "seed", 999u64)?;
    let nodes = get(flags, "nodes", 1usize)?;
    if nodes == 0 {
        return Err("--nodes needs a positive node count".into());
    }
    // Validate the scenario name before the (possibly expensive)
    // policy load / in-process training.
    if !overload_plan_by_name(scenario, seed, MILLISECOND)?.is_active() {
        return Err(
            "rtrace needs an overload scenario (retry-storm|flash-crowd|collapse) — \
             open-loop runs have no retry chains to trace"
                .into(),
        );
    }
    let policy = policy_or_train(flags, log, "rtrace", &Recorder::disabled())?;
    let app = policy.app;
    let app_spec = AppSpec::get(app);
    let peak_load = get(flags, "peak-load", default_peak_load(app))?;
    let overload = overload_plan_by_name(scenario, seed, app_spec.sla)?;

    let mut spec = FleetSpec::uniform(
        app,
        nodes,
        BalancerPolicy::JoinShortestQueue,
        seed,
        peak_load,
        duration_s,
    );
    spec.overload = overload;
    spec.rtrace = TracePlan::sampled(sample, exemplars, seed);
    log.info(&format!(
        "tracing {app:?} under `{scenario}` overload: {nodes} node(s), {duration_s} s at peak \
         load {peak_load:.2}, sampling {sample} + {exemplars} tail exemplar(s) per window"
    ));

    // Ring recorders keep the full event stream (the monitor's flight
    // ring only retains trailing windows), so `-o` gets every sampled
    // trace; the monitor then replays the same streams offline.
    let run = FleetRun {
        observe: FleetObserve::Events { ring: 1 << 18 },
        ..FleetRun::default()
    };
    let out = run_fleet_with(&spec, &[&policy], &run);
    warn_dropped(log, "rtrace", "node", &out.events);
    let res = out.result;
    let streams: Vec<Vec<Event>> = out.events.into_iter().map(|(events, _)| events).collect();
    // Overload runs are short, so the default SLO uses single-window
    // burn rules (plus a goodput floor) — a collapse inside the run
    // trips an alert and fills the flight recorder instead of hiding
    // under a 15-window trailing average. `--slo FILE` overrides.
    let default_slo = {
        let mut s = SloSpec::for_sla_ns(app_spec.name, app_spec.sla);
        s.goodput_ratio = 0.9;
        s.rules = vec![
            BurnRateRule {
                long_windows: 2,
                short_windows: 1,
                max_burn: 2.0,
            },
            BurnRateRule {
                long_windows: 1,
                short_windows: 1,
                max_burn: 4.0,
            },
        ];
        s
    };
    let slo = slo_from_flags(flags, default_slo)?;
    let cfg = MonitorConfig::with_slo(slo);
    let keep = cfg.flight_windows;
    let mut mon = FleetMonitor::new(cfg);
    for (node, ev) in streams.iter().enumerate() {
        mon.ingest(node as u64, ev);
    }
    let mut report = mon.finish();

    let trace_events: Vec<Event> = streams
        .iter()
        .flat_map(|ev| ev.iter().filter(|e| matches!(e, Event::RequestTrace(_))))
        .cloned()
        .collect();
    let traces: Vec<&RequestTrace> = trace_events
        .iter()
        .filter_map(|e| match e {
            Event::RequestTrace(t) => Some(t),
            _ => None,
        })
        .collect();
    if traces.is_empty() {
        return Err(format!(
            "run produced no traces (sampling {sample}, {exemplars} exemplar(s)) — raise --sample \
             or --exemplars"
        ));
    }

    if let Some(dir) = flags.get("flight-dump") {
        let dumped = dump_flight_recorder(Path::new(dir), &mut report, mon.flight(), keep)?;
        log.info(&format!("{dumped} incident dump(s) -> {dir}"));
    }
    if let Some(out) = flags.get("out") {
        atomic_write(Path::new(out), to_jsonl(&trace_events)).map_err(|e| e.to_string())?;
        log.info(&format!("{} traces -> {out}", traces.len()));
    }
    print!("{}", report.render_incident_log());
    println!(
        "\nfleet: {} requests, goodput {}, shed {}, p99 {:.2} ms",
        res.total_requests, res.total_goodput, res.total_shed, res.fleet_p99_ms
    );
    print!("{}", render_trace_breakdown(&traces));
    Ok(())
}

/// Run training (unless `--policy` is given) plus an evaluation rollout
/// under the span profiler and export the wall-clock profile: a Chrome
/// trace-event JSON (`-o`, loadable at ui.perfetto.dev) and a per-phase
/// aggregate table (stdout; `--table FILE` to save).
///
/// The coverage line reports which share of the command's wall time the
/// root spans account for — engine, DDPG and export phases should cover
/// ≥ 90 %; much less means unprofiled work crept in somewhere.
fn cmd_profile(flags: &Flags, log: &Logger) -> Result<(), String> {
    let out: PathBuf = get(flags, "out", PathBuf::from("profile-trace.json"))?;
    let prof = Profiler::enabled();
    let rec = Recorder::disabled().with_profiler(&prof);
    let t0 = std::time::Instant::now();

    let policy = policy_or_train(flags, log, "profile", &rec)?;
    let duration_s = get(flags, "duration-s", 10u64)?;
    let peak = get(flags, "peak-load", default_peak_load(policy.app))?;
    let seed = get(flags, "seed", 999u64)?;
    log.info(&format!(
        "profiling {:?} evaluation: {duration_s} s at peak load {peak:.2}",
        policy.app
    ));
    let outcome = evaluate_recorded(
        &policy,
        peak,
        duration_s,
        seed,
        TraceConfig::default(),
        &rec,
    );

    // Artifact serialization is profiled work too; the export span
    // closes before the phase table renders, so it shows up there (the
    // Chrome trace itself cannot contain its own still-open export).
    let sp = prof.span("export.chrome_trace");
    let trace_json = prof.to_chrome_trace();
    atomic_write(&out, trace_json).map_err(|e| e.to_string())?;
    drop(sp);

    if prof.dropped_spans() > 0 {
        log.warn(&format!(
            "{} spans dropped (record cap) — the Chrome trace is truncated; the table stays exact",
            prof.dropped_spans()
        ));
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let rows = prof.phase_table();
    let table = render_phase_table(&rows, wall_ns);
    println!("{table}");
    // Arrivals are generated on a producer thread while the engine
    // runs: its `engine.ingest` roots overlap the calling thread's, so
    // they count apart from the coverage of the calling thread.
    let row = |name: &str| rows.iter().find(|r| r.name == name);
    let ingest_ns = row("engine.ingest").map_or(0, |r| r.root_ns);
    let wait_ns = row("engine.feed_wait").map_or(0, |r| r.total_ns);
    let coverage = (prof.root_total_ns() - ingest_ns) as f64 / wall_ns.max(1) as f64;
    println!(
        "profiled coverage: {:.1}% of {:.2} s wall ({} requests evaluated)",
        coverage * 100.0,
        wall_ns as f64 / 1e9,
        outcome.sim.stats.count
    );
    println!(
        "arrival producer: {:.1} ms generating beside the engine, which waited {:.1} ms for arrivals",
        ingest_ns as f64 / 1e6,
        wait_ns as f64 / 1e6
    );
    if coverage < 0.90 {
        log.warn("profiled phases cover < 90% of wall time — unprofiled work crept in");
    }
    if let Some(path) = flags.get("table") {
        atomic_write(Path::new(path), table).map_err(|e| e.to_string())?;
        log.info(&format!("phase table -> {path}"));
    }
    log.info(&format!("Chrome trace -> {}", out.display()));
    Ok(())
}

/// Introspect a trained policy: sweep the actor's action surface along
/// every state dimension, and annotate an evaluation trajectory's
/// decisions with critic Q-values and finite-difference saliency.
fn cmd_explain(flags: &Flags, log: &Logger) -> Result<(), String> {
    let policy = policy_or_train(flags, log, "explain", &Recorder::disabled())?;
    let duration_s = get(flags, "duration-s", 10u64)?;
    let peak = get(flags, "peak-load", default_peak_load(policy.app))?;
    let seed = get(flags, "seed", 999u64)?;
    let points = get(flags, "points", 9usize)?;
    let eps = get(flags, "eps", 0.05f32)?;
    let jsonl: PathBuf = get(flags, "jsonl", PathBuf::from("explain-decisions.jsonl"))?;
    let surface_out: PathBuf = get(flags, "surface", PathBuf::from("explain-surface.csv"))?;

    let agent = policy.build_agent();
    log.info(&format!(
        "explaining {:?} policy over a {duration_s} s evaluation at peak load {peak:.2}",
        policy.app
    ));
    let outcome = evaluate_recorded(
        &policy,
        peak,
        duration_s,
        seed,
        TraceConfig::default(),
        &Recorder::disabled(),
    );
    if outcome.log.is_empty() {
        return Err("evaluation produced no DRL decisions — nothing to explain".into());
    }
    let decisions = explain_decisions(&agent, &outcome.log, eps);

    // Action surface around the trajectory's mean state, so the sweeps
    // cut through the region the policy actually operated in.
    let mut base = [0.0f32; deeppower_core::STATE_DIM];
    for row in &outcome.log {
        for (b, s) in base.iter_mut().zip(&row.state) {
            *b += s / outcome.log.len() as f32;
        }
    }
    let surface = action_surface(&agent, &base, points);

    atomic_write(&jsonl, decisions_to_jsonl(&decisions)).map_err(|e| e.to_string())?;
    log.info(&format!(
        "{} decisions -> {}",
        decisions.len(),
        jsonl.display()
    ));
    atomic_write(&surface_out, surface_to_csv(&surface)).map_err(|e| e.to_string())?;
    log.info(&format!(
        "{} surface points -> {}",
        surface.len(),
        surface_out.display()
    ));
    if let Some(csv) = flags.get("csv") {
        atomic_write(Path::new(csv), decisions_to_csv(&decisions)).map_err(|e| e.to_string())?;
        log.info(&format!("decision table -> {csv}"));
    }

    let sal = mean_abs_saliency(&decisions);
    let mut ranked: Vec<(usize, f32)> = sal.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "\nmean |saliency| per state dimension ({} decisions, eps {eps}):",
        decisions.len()
    );
    for (dim, s) in &ranked {
        println!("  {:<10} {s:.6}", STATE_DIM_NAMES[*dim]);
    }
    let q_mean = decisions.iter().map(|d| d.q_value as f64).sum::<f64>() / decisions.len() as f64;
    println!("mean Q-value along trajectory: {q_mean:.4}");
    if ranked[0].1 == 0.0 {
        log.warn("saliency is all-zero — the actor is constant around every visited state");
    }
    Ok(())
}

/// Perf-regression gate: diff a fresh bench artifact against a
/// committed `BENCH_*.json` baseline. Exits non-zero when any gated
/// metric regresses beyond the tolerance (see `deeppower_bench::diff`
/// for the metric classification and smoke-scale rules).
fn cmd_bench_diff(flags: &Flags, log: &Logger) -> Result<(), String> {
    let baseline = flags
        .get("baseline")
        .ok_or("bench-diff needs --baseline FILE")?;
    let candidate = flags
        .get("candidate")
        .ok_or("bench-diff needs --candidate FILE")?;
    let tolerance = get(flags, "tolerance", 0.35f64)?;
    let b = std::fs::read_to_string(baseline)
        .map_err(|e| format!("cannot read baseline {baseline}: {e}"))?;
    let c = std::fs::read_to_string(candidate)
        .map_err(|e| format!("cannot read candidate {candidate}: {e}"))?;
    let report = deeppower_bench::diff::diff_str(&b, &c, tolerance)?;
    print!("{}", report.render_table());
    let regressions = report.regressions().count();
    if regressions > 0 {
        return Err(format!(
            "{regressions} perf regression(s) beyond {:.0}% tolerance vs {baseline}",
            tolerance * 100.0
        ));
    }
    log.info(&format!(
        "no perf regressions vs {baseline} ({} metrics compared, tolerance {:.0}%)",
        report.rows.len(),
        tolerance * 100.0
    ));
    Ok(())
}

fn cmd_workload_trace(flags: &Flags, log: &Logger) -> Result<(), String> {
    let period_s = get(flags, "period-s", 360u64)?;
    let base_rps = get(flags, "base-rps", 1000.0f64)?;
    let seed = get(flags, "seed", 0u64)?;
    let out: PathBuf = get(flags, "out", PathBuf::from("trace.csv"))?;
    let cfg = DiurnalConfig {
        period_s,
        base_rps,
        ..Default::default()
    };
    let trace = DiurnalTrace::generate(&cfg, seed);
    save_trace_csv(&trace, Path::new(&out)).map_err(|e| e.to_string())?;
    log.info(&format!(
        "wrote {} slots ({} s) to {} — mean {:.0} rps, peak {:.0} rps",
        trace.n_slots(),
        period_s,
        out.display(),
        trace.mean_rps(),
        trace.max_rps()
    ));
    Ok(())
}
