//! Telemetry overhead — cost of the recorder on the hot simulation loop.
//!
//! The acceptance bar for the telemetry layer: running the server
//! through `run_recorded` with a *disabled* recorder or with one backed
//! by the no-op sink must cost within 2% of the plain `run` path. A
//! disabled recorder is a single `Option` branch per emission site;
//! `NoopSink` additionally constructs each event payload before
//! discarding it. The ring-buffered full-capture and [`MonitorSink`]
//! health-monitor costs are reported for reference (no assertion —
//! they pay for payload construction plus buffering / SLO evaluation).
//!
//! Workload: a compare-style rollout — Xapian under the thread
//! controller at moderate load, default (non-tracing) `TraceConfig`, so
//! the event volume matches what `grid`/`compare` jobs see. A second,
//! printed-only pair times the 1%-sampled tracer on a Masstree node in
//! the harness's retry storm, where most requests are shed or retried
//! and every one opens a traced chain.
//!
//! Timing runs every configuration once per round, over interleaved
//! rounds whose order rotates, and each budget reads the median over
//! rounds of that round's configuration/plain wall ratio: one round's
//! runs share the host's state of the moment, which a best-of-N per
//! configuration does not. Set `DEEPPOWER_SMOKE=1` for a quick CI-sized
//! run (shorter sim, fewer rounds, budgets relaxed to 10% and 20% to
//! tolerate shared runners).

use deeppower_core::{ControllerParams, ThreadController};
use deeppower_harness::overload_scenarios;
use deeppower_simd_server::{RunOptions, Server, ServerConfig, SimResult};
use deeppower_telemetry::{
    FleetMonitor, MonitorConfig, MonitorSink, NoopSink, Profiler, Recorder, TracePlan,
};
use deeppower_workload::{constant_rate_arrivals, App, AppSpec};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One timed configuration of the server run.
type Arm<'a> = (&'static str, Box<dyn FnMut() -> SimResult + 'a>);

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Time every arm once per round for `rounds` rounds, rotating which
/// goes first. Returns each arm's per-round wall times in seconds and
/// its last result.
fn interleaved_rounds(rounds: usize, arms: &mut [Arm<'_>]) -> (Vec<Vec<f64>>, Vec<SimResult>) {
    let n = arms.len();
    let mut walls = vec![Vec::with_capacity(rounds); n];
    let mut last: Vec<Option<SimResult>> = vec![None; n];
    for round in 0..rounds {
        for k in 0..n {
            let i = (round + k) % n;
            let t0 = Instant::now();
            last[i] = Some((arms[i].1)());
            walls[i].push(t0.elapsed().as_secs_f64());
        }
    }
    let last = last.into_iter().map(|r| r.expect("rounds > 0")).collect();
    (walls, last)
}

fn main() {
    let smoke = std::env::var("DEEPPOWER_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false);
    let (duration_s, rounds, tolerance) = if smoke { (5, 9, 0.10) } else { (20, 11, 0.02) };
    let duration_ns = duration_s * deeppower_simd_server::SECOND;

    let spec = AppSpec::get(App::Xapian);
    let server = Server::new(ServerConfig::paper_default(spec.n_threads));
    let arrivals = constant_rate_arrivals(&spec, spec.rps_for_load(0.6), duration_ns, 7);
    let opts = RunOptions::default();
    let gov = || ThreadController::new(ControllerParams::new(0.3, 1.0));
    // Request-lifecycle tracing holds the contract at two levels: an
    // active plan behind a *disabled* recorder never builds a tracer
    // at all (one branch per hook, budgeted with the other disabled
    // paths), and head-sampling at 1% plus tail exemplars — which
    // opens a chain per request so the slowest completions can be
    // traced retroactively — stays within its own 5% budget.
    let traced_opts = RunOptions {
        rtrace: TracePlan::sampled(0.01, 2, 7),
        ..opts
    };

    // The retry storm: Masstree overloaded under the harness's
    // `retry-storm` closed loop, so sheds, abandonments and retries
    // drive the tracer's chain bookkeeping.
    let storm_spec = AppSpec::get(App::Masstree);
    let storm_server = Server::new(ServerConfig::paper_default(storm_spec.n_threads));
    // Half as long: a storm run costs about ten times an open-loop one.
    let storm_arrivals = constant_rate_arrivals(
        &storm_spec,
        storm_spec.rps_for_load(1.1),
        duration_ns / 2,
        7,
    );
    let (_, storm_plan) = overload_scenarios(7, storm_spec.sla)
        .into_iter()
        .find(|(name, _)| *name == "retry-storm")
        .expect("the harness defines the retry-storm scenario");
    let storm_opts = RunOptions {
        overload: storm_plan,
        ..opts
    };
    let storm_traced_opts = RunOptions {
        rtrace: traced_opts.rtrace,
        ..storm_opts
    };

    println!(
        "# Telemetry overhead — {duration_s} s Xapian rollout x {} cores, median of {rounds} \
         interleaved rounds\n",
        spec.n_threads
    );

    // Warm-up runs (page in the binary, stabilize allocator).
    server.run(&arrivals, &mut gov(), opts);
    storm_server.run(&storm_arrivals, &mut gov(), storm_opts);

    let mut arms: Vec<Arm<'_>> = vec![
        (
            "plain run",
            Box::new(|| server.run(&arrivals, &mut gov(), opts)),
        ),
        (
            "recorder disabled",
            Box::new(|| server.run_recorded(&arrivals, &mut gov(), opts, &Recorder::disabled())),
        ),
        (
            "noop sink",
            Box::new(|| {
                let rec = Recorder::with_sink(Box::new(NoopSink));
                server.run_recorded(&arrivals, &mut gov(), opts, &rec)
            }),
        ),
        (
            "ring (full capture)",
            Box::new(|| server.run_recorded(&arrivals, &mut gov(), opts, &Recorder::ring(1 << 16))),
        ),
        // The health monitor folds rollups and runs the SLO machine
        // (reported, not asserted).
        (
            "monitor enabled",
            Box::new(|| {
                let mon = Rc::new(RefCell::new(FleetMonitor::new(MonitorConfig::default())));
                let rec = Recorder::with_sink(Box::new(MonitorSink::new(mon, 0)));
                server.run_recorded(&arrivals, &mut gov(), opts, &rec)
            }),
        ),
        (
            "tracer disabled",
            Box::new(|| {
                server.run_recorded(&arrivals, &mut gov(), traced_opts, &Recorder::disabled())
            }),
        ),
        (
            "tracer sampled 1%",
            Box::new(|| {
                let rec = Recorder::with_sink(Box::new(NoopSink));
                server.run_recorded(&arrivals, &mut gov(), traced_opts, &rec)
            }),
        ),
        // The span profiler holds the same contract as the recorder:
        // when disabled it is one `Option` branch per span site (open +
        // drop).
        (
            "profiler disabled",
            Box::new(|| {
                let rec = Recorder::disabled().with_profiler(&Profiler::disabled());
                server.run_recorded(&arrivals, &mut gov(), opts, &rec)
            }),
        ),
        (
            "profiler enabled",
            Box::new(|| {
                let rec = Recorder::disabled().with_profiler(&Profiler::enabled());
                server.run_recorded(&arrivals, &mut gov(), opts, &rec)
            }),
        ),
        (
            "storm plain",
            Box::new(|| storm_server.run(&storm_arrivals, &mut gov(), storm_opts)),
        ),
        (
            "storm tracer 1%",
            Box::new(|| {
                let rec = Recorder::with_sink(Box::new(NoopSink));
                storm_server.run_recorded(&storm_arrivals, &mut gov(), storm_traced_opts, &rec)
            }),
        ),
    ];
    let names: Vec<&str> = arms.iter().map(|(name, _)| *name).collect();
    let (walls, results) = interleaved_rounds(rounds, &mut arms);
    let idx = |name: &str| names.iter().position(|n| *n == name).expect("known arm");
    let (plain, storm_plain) = (idx("plain run"), idx("storm plain"));
    // The storm arms come last and compare with the storm's plain run.
    let base_of = |arm: usize| {
        if arm >= storm_plain {
            storm_plain
        } else {
            plain
        }
    };

    // Telemetry must never perturb the simulation.
    for (i, r) in results.iter().enumerate() {
        let base = &results[base_of(i)];
        assert_eq!(
            r.stats.count, base.stats.count,
            "{}: request count must match plain run",
            names[i]
        );
        assert_eq!(
            r.energy_j.to_bits(),
            base.energy_j.to_bits(),
            "{}: energy must be bit-identical to plain run",
            names[i]
        );
    }

    // Median over rounds of the arm's wall over its plain run's.
    let ratio = |arm: usize, base: usize| {
        median(
            walls[arm]
                .iter()
                .zip(&walls[base])
                .map(|(a, b)| a / b)
                .collect(),
        )
    };
    let over = |name: &str| ratio(idx(name), plain) - 1.0;
    println!("{:<22} {:>9} {:>9}", "configuration", "wall(s)", "vs plain");
    for (i, name) in names.iter().enumerate() {
        let wall = median(walls[i].clone());
        if i == base_of(i) {
            println!("{name:<22} {wall:>9.4} {:>9}", "-");
        } else {
            let pct = 100.0 * (ratio(i, base_of(i)) - 1.0);
            println!("{name:<22} {wall:>9.4} {pct:>+8.2}%");
        }
    }
    println!("(wall: median over rounds; vs plain: median of per-round ratios)");

    let worst = [
        "recorder disabled",
        "noop sink",
        "tracer disabled",
        "profiler disabled",
    ]
    .map(over)
    .into_iter()
    .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        worst < tolerance,
        "disabled recorder/tracer/profiler overhead {:.2}% exceeds {:.0}% budget",
        worst * 100.0,
        tolerance * 100.0
    );
    // Sampled tracing gets its own, looser budget: 1% head sampling +
    // tail exemplars pays for per-request chain bookkeeping.
    let trace_tolerance = if smoke { 0.20 } else { 0.05 };
    let trace_over = over("tracer sampled 1%");
    assert!(
        trace_over < trace_tolerance,
        "1%-sampled tracer overhead {:.2}% exceeds {:.0}% budget",
        trace_over * 100.0,
        trace_tolerance * 100.0
    );
    println!(
        "\n[overhead OK] disabled recorder/monitor/tracer/profiler within {:.0}% of the plain \
         path; 1%-sampled tracer within {:.0}%",
        tolerance * 100.0,
        trace_tolerance * 100.0
    );
}
