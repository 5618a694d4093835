//! The repository benchmark: three workloads run through the public
//! APIs, their outputs checked, and two sets of metrics reported.
//!
//! * End to end (`--trace 0`): host-time speed of the simulator
//!   (simulated requests handled per host second, set-up time, peak memory)
//!   and the modelled system's simulated p99, power and goodput.
//! * Per layer (`--trace 1`): a traced re-drive of the same workload
//!   that splits host time, calls and allocations across the crates by
//!   timing the benchmark's own calls into each one (see `probe.rs`).
//!
//! `README.md` in this directory lists every workload and metric.

mod fleet;
mod probe;
mod train;

use probe::Layer;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: probe::CountingAlloc = probe::CountingAlloc;

/// Paper §5.5 reference points, printed beside the matching metrics.
const PAPER_UPDATE: &str = "paper §5.5: 13 ms per DDPG update at batch 64";
const PAPER_ACT: &str = "paper §5.5: an action in < 1 ms";
const PAPER_TICK: &str = "paper §5.5: a frequency set in < 10 µs";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fleet8Diurnal,
    StormMonitored,
    TrainXapian,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fleet8Diurnal,
        Workload::StormMonitored,
        Workload::TrainXapian,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet8Diurnal => "fleet8_diurnal",
            Workload::StormMonitored => "storm_monitored",
            Workload::TrainXapian => "train_xapian",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes, in simulated time.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub fleet8_s: u64,
    pub storm_s: u64,
    pub train_episodes: usize,
    pub train_episode_s: u64,
    pub eval_s: u64,
    /// Set-ups timed per invocation (`setup_s` is their median).
    pub setup_reps: usize,
    /// Runs made even when `--seconds` has already elapsed.
    pub min_runs: usize,
}

impl Scale {
    /// The sizes the benchmark measures.
    pub const FULL: Scale = Scale {
        fleet8_s: 6,
        storm_s: 6,
        train_episodes: 4,
        train_episode_s: 60,
        eval_s: 60,
        setup_reps: 5,
        min_runs: 3,
    };

    /// A reduced scale for the test suite.
    pub const SMOKE: Scale = Scale {
        fleet8_s: 2,
        storm_s: 2,
        // Long enough to fill a 64-transition batch (one per simulated
        // second) and train.
        train_episodes: 2,
        train_episode_s: 40,
        eval_s: 5,
        setup_reps: 2,
        min_runs: 1,
    };
}

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Output checks on one run: a list of what went wrong.
#[derive(Debug, Default)]
pub(crate) struct Check {
    pub(crate) failures: Vec<String>,
}

impl Check {
    pub(crate) fn require(&mut self, ok: bool, what: String) {
        if !ok {
            self.failures.push(what);
        }
    }

    pub(crate) fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What one untraced run produced.
pub(crate) struct Outcome {
    /// Simulated requests the run handled: every completed attempt, and
    /// under overload every attempt shed as well.
    pub(crate) requests: u64,
    pub(crate) p99_ms: f64,
    pub(crate) power_w: f64,
    pub(crate) goodput_frac: f64,
    /// Hash of the run's full output, for the run-to-run identity check.
    pub(crate) fingerprint: u64,
    pub(crate) check: Check,
}

/// One reported metric: the median over `n` samples with its quartiles.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    pub note: Option<&'static str>,
}

impl Metric {
    fn of(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        let (q1, value, q3) = quartiles(&mut v);
        Metric {
            name,
            unit,
            value,
            q1,
            q3,
            n: samples.len(),
            note: None,
        }
    }
}

pub struct Report {
    pub config: String,
    pub meta: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Runs whose output check failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable report: configuration, then one line per
    /// metric with its spread and sample count.
    pub fn render(&self) -> String {
        let mut out = format!("# perfbench {}\n", self.config);
        for (k, v) in &self.meta {
            out += &format!("# {k}: {v}\n");
        }
        out += &format!(
            "# runs: {} attempted, {} failed (failed_runs_frac {})\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in &self.failures {
            out += &format!("# CHECK FAILED: {f}\n");
        }
        for m in &self.metrics {
            out += &format!(
                "{:<28} {:>16.6} {:<10} [q1 {:.6}, q3 {:.6}, n={}]",
                m.name, m.value, m.unit, m.q1, m.q3, m.n
            );
            if let Some(note) = m.note {
                out += &format!("  ({note})");
            }
            out.push('\n');
        }
        out
    }

    /// The one-line result: `correct`, `attempted`, `failed` and every
    /// metric's value and unit.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// A workload set up and ready to run. One exists per process, so the
/// variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Prepared {
    Fleet(fleet::FleetBench),
    Train(train::TrainBench),
}

fn setup(cfg: &Config) -> Prepared {
    let s = cfg.scale;
    match cfg.workload {
        Workload::Fleet8Diurnal => Prepared::Fleet(fleet::fleet8(cfg.seed, s.fleet8_s)),
        Workload::StormMonitored => Prepared::Fleet(fleet::storm(cfg.seed, s.storm_s)),
        Workload::TrainXapian => Prepared::Train(train::train_xapian(
            cfg.seed,
            s.train_episodes,
            s.train_episode_s,
            s.eval_s,
        )),
    }
}

impl Prepared {
    /// One untraced run through the public entry point: host seconds,
    /// peak heap bytes, and the outcome (checked outside the timed span).
    fn run_once(&self) -> (f64, u64, Outcome) {
        fn timed<R>(f: impl FnOnce() -> R) -> (f64, u64, R) {
            probe::start_peak();
            let t0 = Instant::now();
            let r = f();
            let secs = t0.elapsed().as_secs_f64();
            (secs, probe::peak_bytes(), r)
        }
        match self {
            Prepared::Fleet(b) => {
                let (secs, peak, run) = timed(|| b.run());
                (secs, peak, b.outcome(&run))
            }
            Prepared::Train(b) => {
                let (secs, peak, run) = timed(|| b.run());
                (secs, peak, b.outcome(&run))
            }
        }
    }

    /// One untraced run, then one traced re-drive checked against it.
    fn traced_pair(&self) -> TracedPair {
        match self {
            Prepared::Fleet(b) => {
                let t0 = Instant::now();
                let public = b.run();
                let untraced_s = t0.elapsed().as_secs_f64();
                probe::reset();
                let t1 = Instant::now();
                let traced = b.redrive();
                let traced_s = t1.elapsed().as_secs_f64();
                let snap = probe::snapshot();
                let mut check = b.outcome(&public).check;
                check
                    .failures
                    .extend(b.check_redrive(&public, &traced).failures);
                let work = Work {
                    completions: traced.nodes.iter().map(|s| s.stats.count).sum(),
                    split: b.arrivals,
                    shed: traced.nodes.iter().map(|s| s.shed).sum(),
                    retries: traced.nodes.iter().map(|s| s.retries).sum(),
                    drl_updates: 0,
                    update_us: 0.0,
                    act_us: 0.0,
                };
                TracedPair {
                    untraced_s,
                    traced_s,
                    snap,
                    work,
                    check,
                }
            }
            Prepared::Train(b) => {
                let t0 = Instant::now();
                let public = b.run();
                let untraced_s = t0.elapsed().as_secs_f64();
                probe::reset();
                let t1 = Instant::now();
                let (mut traced, mut agent) = b.redrive();
                let traced_s = t1.elapsed().as_secs_f64();
                let snap = probe::snapshot();
                train::TrainBench::time_drl(&mut agent, &mut traced);
                let mut check = b.outcome(&public).check;
                check
                    .failures
                    .extend(b.check_redrive(&public, &traced).failures);
                let work = Work {
                    completions: traced.episodes.iter().map(|e| e.0).sum::<u64>()
                        + traced.eval.stats.count,
                    split: 0,
                    shed: traced.eval.shed,
                    retries: traced.eval.retries,
                    drl_updates: traced.updates,
                    update_us: traced.update_us,
                    act_us: traced.act_us,
                };
                TracedPair {
                    untraced_s,
                    traced_s,
                    snap,
                    work,
                    check,
                }
            }
        }
    }
}

/// Work counts of a traced run, the denominators of the per-unit
/// metrics.
struct Work {
    completions: u64,
    /// Requests through the balancer split.
    split: u64,
    shed: u64,
    retries: u64,
    drl_updates: u64,
    update_us: f64,
    act_us: f64,
}

struct TracedPair {
    untraced_s: f64,
    traced_s: f64,
    snap: probe::Snapshot,
    work: Work,
    check: Check,
}

/// Every per-layer metric of one traced pair, in report order.
fn layer_values(p: &TracedPair) -> Vec<(&'static str, &'static str, f64)> {
    let s = &p.snap;
    let w = &p.work;
    let per = |x: f64, d: u64| if d == 0 { 0.0 } else { x / d as f64 };
    let ticks = s.ticks();
    let epochs = s.calls(Layer::Act);
    let events = s.calls(Layer::Telemetry);
    vec![
        ("workload.gen_ms", "ms", s.ms(Layer::Workload)),
        ("workload.allocs", "count", s.allocs(Layer::Workload) as f64),
        ("balancer.split_ms", "ms", s.ms(Layer::Balancer)),
        (
            "balancer.ns_per_req",
            "ns/req",
            per(s.ns(Layer::Balancer), w.split),
        ),
        ("engine.advance_ms", "ms", s.ms(Layer::Engine)),
        (
            "engine.ns_per_req",
            "ns/req",
            per(s.ns(Layer::Engine), w.completions),
        ),
        (
            "engine.allocs_per_req",
            "allocs/req",
            per(s.allocs(Layer::Engine) as f64, w.completions),
        ),
        ("engine.finish_ms", "ms", s.ms(Layer::EngineFinish)),
        ("engine.completions", "count", w.completions as f64),
        ("engine.shed", "count", w.shed as f64),
        ("engine.retries", "count", w.retries as f64),
        ("governor.ticks", "count", ticks as f64),
        ("governor.tick_ns_p50", "ns", s.tick_quantile_ns(0.50)),
        ("governor.tick_ns_p99", "ns", s.tick_quantile_ns(0.99)),
        (
            "governor.allocs_per_tick",
            "allocs/tick",
            per(s.allocs(Layer::Governor) as f64, ticks),
        ),
        ("fleet.epochs", "count", epochs as f64),
        (
            "fleet.observe_us_per_epoch",
            "us/epoch",
            per(s.ns(Layer::Observe) / 1e3, epochs),
        ),
        (
            "fleet.act_us_per_epoch",
            "us/epoch",
            per(s.ns(Layer::Act) / 1e3, epochs),
        ),
        ("drl.updates", "count", w.drl_updates as f64),
        ("drl.update_us_b64", "us", w.update_us),
        ("drl.act_us", "us", w.act_us),
        ("telemetry.events", "count", events as f64),
        (
            "telemetry.sink_ns_per_event",
            "ns/event",
            per(s.ns(Layer::Telemetry), events),
        ),
        ("telemetry.finish_ms", "ms", s.ms(Layer::TelemetryFinish)),
        (
            "trace.coverage",
            "ratio",
            s.layers_ns() / (p.traced_s * 1e9),
        ),
        (
            "trace.overhead_frac",
            "ratio",
            p.traced_s / p.untraced_s - 1.0,
        ),
    ]
}

/// Run one benchmark invocation.
pub fn run(cfg: &Config) -> Report {
    let mut setup_s = Vec::with_capacity(cfg.scale.setup_reps);
    let mut prepared = None;
    for _ in 0..cfg.scale.setup_reps.max(1) {
        drop(prepared.take());
        let t0 = Instant::now();
        prepared = Some(setup(cfg));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up ran");

    let mut report = Report {
        config: format!(
            "workload={} seed={} seconds={} trace={}",
            cfg.workload.name(),
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace)
        ),
        meta: meta(cfg),
        attempted: 0,
        failures: Vec::new(),
        failed: 0,
        metrics: Vec::new(),
    };
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    if cfg.trace {
        run_traced(cfg, &prepared, budget, &mut report);
    } else {
        run_timed(cfg, &prepared, budget, &setup_s, &mut report);
    }
    report
}

fn record(report: &mut Report, what: &str, check: &Check) {
    report.attempted += 1;
    if !check.ok() {
        report.failed += 1;
        report
            .failures
            .extend(check.failures.iter().map(|f| format!("{what}: {f}")));
    }
}

fn run_timed(
    cfg: &Config,
    prepared: &Prepared,
    budget: Duration,
    setup_s: &[f64],
    report: &mut Report,
) {
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut peaks_mib = Vec::new();
    let mut first: Option<Outcome> = None;
    while rates.len() < cfg.scale.min_runs.max(1) || start.elapsed() < budget {
        let (secs, peak, mut outcome) = prepared.run_once();
        rates.push(outcome.requests as f64 / secs);
        peaks_mib.push(peak as f64 / (1024.0 * 1024.0));
        if let Some(f) = &first {
            outcome.check.require(
                outcome.fingerprint == f.fingerprint,
                "output differs from the first run's".into(),
            );
        }
        record(report, &format!("run {}", rates.len()), &outcome.check);
        first.get_or_insert(outcome);
    }
    let first = first.expect("at least one run");

    // The parallel fleet driver and its per-worker monitor merge, checked once
    // and untimed: the storm fleet at two threads must reproduce the
    // serial run byte for byte.
    if let Prepared::Fleet(b) = prepared {
        if b.monitor.is_some() {
            let two = b.outcome(&b.run_threads(2));
            let mut check = two.check;
            check.require(
                two.fingerprint == first.fingerprint,
                "run_fleet_monitored at 2 threads differs from 1 thread".into(),
            );
            record(report, "threads=2", &check);
        }
    }

    report
        .meta
        .push(("runs", format!("{} timed runs", rates.len())));
    report.meta.push((
        "sim_req_per_s samples",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    report.meta.push((
        "sim_req_per_s median of all runs",
        format!("{:.0}", median(&mut rates.clone())),
    ));
    report.meta.push((
        "fleet_threads",
        "1 (timed); 2 (storm identity check, untimed)".into(),
    ));
    let fixed = |name, unit, v: f64, n| Metric {
        name,
        unit,
        value: v,
        q1: v,
        q3: v,
        n,
        note: Some("simulated; bit-exact for a seed"),
    };
    let n = rates.len();
    report.metrics = vec![
        fastest("sim_req_per_s", "req/s", &rates),
        Metric::of("setup_s", "s", setup_s),
        Metric {
            note: Some("live heap high-water mark of one run"),
            ..Metric::of("peak_heap_mb", "MiB", &peaks_mib)
        },
        fixed("sim_p99_ms", "ms", first.p99_ms, n),
        fixed("sim_power_w", "W", first.power_w, n),
        fixed("sim_goodput_frac", "ratio", first.goodput_frac, n),
    ];
}

/// The fastest run's rate, with the quartiles of all of them. Every run
/// does the same work, and on a shared host interference from other
/// tenants only ever slows a run down, in waves of seconds to minutes
/// that cost memory-bound code up to 1.7x. The fastest run tracks the
/// program's own speed; any lower order statistic tracks the neighbours.
fn fastest(name: &'static str, unit: &'static str, rates: &[f64]) -> Metric {
    Metric {
        value: rates.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        note: Some("fastest run"),
        ..Metric::of(name, unit, rates)
    }
}

fn run_traced(cfg: &Config, prepared: &Prepared, budget: Duration, report: &mut Report) {
    let start = Instant::now();
    let mut samples: Vec<Vec<(&'static str, &'static str, f64)>> = Vec::new();
    let mut first: Option<probe::Snapshot> = None;
    let mut alloc_drift = 0u64;
    while samples.len() < cfg.scale.min_runs.max(1) || start.elapsed() < budget {
        let mut pair = prepared.traced_pair();
        if let Some(f) = &first {
            pair.check.require(
                f.calls == pair.snap.calls,
                "layer call counts differ from the first traced run's".into(),
            );
            alloc_drift = f
                .allocs
                .iter()
                .zip(&pair.snap.allocs)
                .map(|(a, b)| a.abs_diff(*b))
                .fold(alloc_drift, u64::max);
        }
        record(
            report,
            &format!("traced pair {}", samples.len() + 1),
            &pair.check,
        );
        samples.push(layer_values(&pair));
        first.get_or_insert(pair.snap);
    }
    if alloc_drift > 0 {
        // Not an output error: hash sets seeded per process (std's
        // `RandomState`) grow at hash-dependent moments once entries
        // are removed, so a few allocations can move between runs.
        report.meta.push((
            "warning",
            format!("a layer's allocation count varied by up to {alloc_drift} between traced runs"),
        ));
    }
    report
        .meta
        .push(("runs", format!("{} untraced + traced pairs", samples.len())));
    report.meta.push(("fleet_threads", "1".into()));
    report.metrics = (0..samples[0].len())
        .map(|i| {
            let (name, unit, _) = samples[0][i];
            let vals: Vec<f64> = samples.iter().map(|s| s[i].2).collect();
            let mut m = Metric::of(name, unit, &vals);
            m.note = match name {
                "drl.update_us_b64" => Some(PAPER_UPDATE),
                "drl.act_us" => Some(PAPER_ACT),
                "governor.tick_ns_p50" => Some(PAPER_TICK),
                _ => None,
            };
            m
        })
        .collect();
}

fn meta(cfg: &Config) -> Vec<(&'static str, String)> {
    let s = cfg.scale;
    let seeds = match cfg.workload {
        Workload::Fleet8Diurnal => format!("trace+arrivals={0} policy={0}", cfg.seed),
        Workload::StormMonitored => format!(
            "trace+arrivals={0} policy={0} overload={0} request-trace={0}",
            cfg.seed
        ),
        Workload::TrainXapian => format!(
            "train={} (fixed; episode e traces {} + e) eval={}",
            train::TRAIN_SEED,
            train::TRAIN_SEED + 1,
            cfg.seed
        ),
    };
    let size = match cfg.workload {
        Workload::Fleet8Diurnal => format!("{} s simulated", s.fleet8_s),
        Workload::StormMonitored => format!("{} s simulated", s.storm_s),
        Workload::TrainXapian => format!(
            "{} episodes x {} s, evaluation {} s",
            s.train_episodes, s.train_episode_s, s.eval_s
        ),
    };
    vec![
        ("commit", git_commit()),
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or("unknown".into(), |n| n.get().to_string()),
        ),
        ("seeds", seeds),
        ("size", size),
        ("setup_reps", s.setup_reps.to_string()),
    ]
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

/// FNV-1a over `bytes`.
pub(crate) fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Median of `v` (sorted in place).
pub(crate) fn median(v: &mut [f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile of `v` (sorted in place),
/// by the same exclusive method as Python's `statistics.quantiles`.
fn quartiles(v: &mut [f64]) -> (f64, f64, f64) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&mut [4.0, 1.0]), 2.5);
    }
}
