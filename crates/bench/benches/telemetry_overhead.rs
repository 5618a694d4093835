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
//! the event volume matches what `grid`/`compare` jobs see.
//!
//! Timing uses min-of-N: the minimum over repeated identical runs is
//! the standard noise-robust estimator for a deterministic workload.
//! Set `DEEPPOWER_SMOKE=1` for a quick CI-sized run (shorter sim,
//! fewer repeats, assertion relaxed to 10% to tolerate shared runners).

use deeppower_core::{ControllerParams, ThreadController};
use deeppower_simd_server::{RunOptions, Server, ServerConfig, SimResult};
use deeppower_telemetry::{
    FleetMonitor, MonitorConfig, MonitorSink, NoopSink, Profiler, Recorder, TracePlan,
};
use deeppower_workload::{constant_rate_arrivals, App, AppSpec};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

fn min_wall_s(repeats: usize, mut run: impl FnMut() -> SimResult) -> (f64, SimResult) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let res = run();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(res);
    }
    (best, last.expect("repeats > 0"))
}

fn main() {
    let smoke = std::env::var("DEEPPOWER_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false);
    let (duration_s, repeats, tolerance) = if smoke { (5, 3, 0.10) } else { (20, 7, 0.02) };

    let spec = AppSpec::get(App::Xapian);
    let server = Server::new(ServerConfig::paper_default(spec.n_threads));
    let arrivals = constant_rate_arrivals(
        &spec,
        spec.rps_for_load(0.6),
        duration_s * deeppower_simd_server::SECOND,
        7,
    );
    let opts = RunOptions::default();
    let gov = || ThreadController::new(ControllerParams::new(0.3, 1.0));

    println!(
        "# Telemetry overhead — {duration_s} s Xapian rollout x {} cores, min of {repeats}\n",
        spec.n_threads
    );

    // Warm-up run (page in the binary, stabilize allocator).
    server.run(&arrivals, &mut gov(), opts);

    let (t_plain, r_plain) = min_wall_s(repeats, || server.run(&arrivals, &mut gov(), opts));
    let (t_disabled, r_disabled) = min_wall_s(repeats, || {
        server.run_recorded(&arrivals, &mut gov(), opts, &Recorder::disabled())
    });
    let (t_noop, r_noop) = min_wall_s(repeats, || {
        server.run_recorded(
            &arrivals,
            &mut gov(),
            opts,
            &Recorder::with_sink(Box::new(NoopSink)),
        )
    });
    let (t_ring, r_ring) = min_wall_s(repeats, || {
        server.run_recorded(&arrivals, &mut gov(), opts, &Recorder::ring(1 << 16))
    });
    // The health monitor folds rollups and runs the SLO machine
    // (reported, not asserted).
    let (t_mon_on, r_mon_on) = min_wall_s(repeats, || {
        let mon = Rc::new(RefCell::new(FleetMonitor::new(MonitorConfig::default())));
        server.run_recorded(
            &arrivals,
            &mut gov(),
            opts,
            &Recorder::with_sink(Box::new(MonitorSink::new(mon, 0))),
        )
    });
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
    let (t_trace_off, r_trace_off) = min_wall_s(repeats, || {
        server.run_recorded(&arrivals, &mut gov(), traced_opts, &Recorder::disabled())
    });
    let (t_trace_1pct, r_trace_1pct) = min_wall_s(repeats, || {
        server.run_recorded(
            &arrivals,
            &mut gov(),
            traced_opts,
            &Recorder::with_sink(Box::new(NoopSink)),
        )
    });
    // The span profiler holds the same contract as the recorder: when
    // disabled it is one `Option` branch per span site (open + drop).
    let (t_prof_off, r_prof_off) = min_wall_s(repeats, || {
        server.run_recorded(
            &arrivals,
            &mut gov(),
            opts,
            &Recorder::disabled().with_profiler(&Profiler::disabled()),
        )
    });
    let (t_prof_on, r_prof_on) = min_wall_s(repeats, || {
        server.run_recorded(
            &arrivals,
            &mut gov(),
            opts,
            &Recorder::disabled().with_profiler(&Profiler::enabled()),
        )
    });

    // Telemetry must never perturb the simulation.
    for (name, r) in [
        ("disabled", &r_disabled),
        ("noop-sink", &r_noop),
        ("ring", &r_ring),
        ("monitor-on", &r_mon_on),
        ("tracer-off", &r_trace_off),
        ("tracer-1pct", &r_trace_1pct),
        ("profiler-off", &r_prof_off),
        ("profiler-on", &r_prof_on),
    ] {
        assert_eq!(
            r.stats.count, r_plain.stats.count,
            "{name}: request count must match plain run"
        );
        assert_eq!(
            r.energy_j.to_bits(),
            r_plain.energy_j.to_bits(),
            "{name}: energy must be bit-identical to plain run"
        );
    }

    let pct = |t: f64| 100.0 * (t / t_plain - 1.0);
    println!("{:<22} {:>9} {:>9}", "configuration", "wall(s)", "vs plain");
    println!("{:<22} {:>9.4} {:>9}", "plain run", t_plain, "-");
    println!(
        "{:<22} {:>9.4} {:>+8.2}%",
        "recorder disabled",
        t_disabled,
        pct(t_disabled)
    );
    println!("{:<22} {:>9.4} {:>+8.2}%", "noop sink", t_noop, pct(t_noop));
    println!(
        "{:<22} {:>9.4} {:>+8.2}%",
        "ring (full capture)",
        t_ring,
        pct(t_ring)
    );
    println!(
        "{:<22} {:>9.4} {:>+8.2}%",
        "monitor enabled",
        t_mon_on,
        pct(t_mon_on)
    );
    println!(
        "{:<22} {:>9.4} {:>+8.2}%",
        "tracer disabled",
        t_trace_off,
        pct(t_trace_off)
    );
    println!(
        "{:<22} {:>9.4} {:>+8.2}%",
        "tracer sampled 1%",
        t_trace_1pct,
        pct(t_trace_1pct)
    );
    println!(
        "{:<22} {:>9.4} {:>+8.2}%",
        "profiler disabled",
        t_prof_off,
        pct(t_prof_off)
    );
    println!(
        "{:<22} {:>9.4} {:>+8.2}%",
        "profiler enabled",
        t_prof_on,
        pct(t_prof_on)
    );

    let worst = (t_disabled / t_plain - 1.0)
        .max(t_noop / t_plain - 1.0)
        .max(t_trace_off / t_plain - 1.0)
        .max(t_prof_off / t_plain - 1.0);
    assert!(
        worst < tolerance,
        "disabled recorder/tracer/profiler overhead {:.2}% exceeds {:.0}% budget",
        worst * 100.0,
        tolerance * 100.0
    );
    // Sampled tracing gets its own, looser budget: 1% head sampling +
    // tail exemplars pays for per-request chain bookkeeping.
    let trace_tolerance = if smoke { 0.20 } else { 0.05 };
    let trace_over = t_trace_1pct / t_plain - 1.0;
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
