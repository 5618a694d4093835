//! Fig. 11 — per-core frequency evolution under *fixed* thread-controller
//! parameters during a short Xapian execution, for the paper's three
//! settings:
//!
//! * (a) BaseFreq 0.4, ScalingCoef 1.0  — low start, rapid ramp;
//! * (b) BaseFreq 0.5, ScalingCoef 0.75 — intermediate;
//! * (c) BaseFreq 0.6, ScalingCoef 0.5  — high start, moderate ramp.
//!
//! "A low BaseFreq results in a lower frequency during the initial
//! execution of requests … a higher value of ScalingCoef causes a rapid
//! increase of frequency during request processing."
//!
//! Per-core 1 ms frequency series and request start/end marks come from
//! the telemetry event stream (`FreqTransition`, `RequestDispatch`,
//! `RequestComplete`).

use deeppower_bench::{downsample, sparkline};
use deeppower_core::{ControllerParams, ThreadController};
use deeppower_simd_server::{RunOptions, Server, ServerConfig, TraceConfig, MILLISECOND, SECOND};
use deeppower_telemetry::{freq_series, Event, Recorder};
use deeppower_workload::{constant_rate_arrivals, App, AppSpec};

/// Mean commanded frequency of busy-ish samples in a ms-bucket timeline,
/// plus a linear ramp estimate over request lifetimes.
struct Summary {
    initial_freq: f64,
    ramp_mhz_per_ms: f64,
    trace: Vec<f64>,
}

fn run(base: f32, coef: f32) -> Summary {
    let spec = AppSpec::get(App::Xapian);
    let server = Server::new(ServerConfig::paper_default(spec.n_threads));
    // Load high enough that requests keep cores busy for several ms.
    let arrivals = constant_rate_arrivals(&spec, spec.rps_for_load(0.6), SECOND, 3);
    let mut tc = ThreadController::new(ControllerParams::new(base, coef));
    let rec = Recorder::ring(1 << 18);
    let res = server.run_recorded(
        &arrivals,
        &mut tc,
        RunOptions {
            tick_ns: MILLISECOND,
            trace: TraceConfig { events: true },
            ..Default::default()
        },
        &rec,
    );
    let events = rec.drain_events();
    assert_eq!(rec.dropped_events(), 0, "event ring must not overflow");
    let freq: Vec<Vec<(u64, u32)>> = (0..spec.n_threads as u64)
        .map(|core| {
            freq_series(
                &events,
                core,
                server.config().initial_mhz,
                res.duration_ns,
                MILLISECOND,
            )
        })
        .collect();

    // Reconstruct per-request frequency ramps: for each request mark pair
    // on a core, collect the core's frequency samples in between.
    let mut per_core_start: Vec<Option<u64>> = vec![None; spec.n_threads];
    let mut ramps: Vec<(f64, f64)> = Vec::new(); // (initial freq, slope)
    for ev in &events {
        let (t, core, is_start) = match ev {
            Event::RequestDispatch(d) => (d.t, d.core as usize, true),
            Event::RequestComplete(c) => (c.t, c.core as usize, false),
            _ => continue,
        };
        if is_start {
            per_core_start[core] = Some(t);
        } else if let Some(t0) = per_core_start[core].take() {
            let samples: Vec<(f64, f64)> = freq[core]
                .iter()
                .filter(|&&(ts, _)| ts >= t0 && ts <= t)
                .map(|&(ts, f)| (((ts - t0) / MILLISECOND) as f64, f as f64))
                .collect();
            if samples.len() >= 3 {
                // Least-squares slope.
                let n = samples.len() as f64;
                let mx = samples.iter().map(|s| s.0).sum::<f64>() / n;
                let my = samples.iter().map(|s| s.1).sum::<f64>() / n;
                let cov: f64 = samples.iter().map(|s| (s.0 - mx) * (s.1 - my)).sum();
                let var: f64 = samples.iter().map(|s| (s.0 - mx) * (s.0 - mx)).sum();
                if var > 0.0 {
                    ramps.push((samples[0].1, cov / var));
                }
            }
        }
    }
    let n = ramps.len().max(1) as f64;
    let initial = ramps.iter().map(|r| r.0).sum::<f64>() / n;
    let slope = ramps.iter().map(|r| r.1).sum::<f64>() / n;
    let trace: Vec<f64> = freq[0].iter().map(|&(_, f)| f as f64).collect();
    Summary {
        initial_freq: initial,
        ramp_mhz_per_ms: slope,
        trace,
    }
}

fn main() {
    println!("# Fig. 11 — frequency under fixed (BaseFreq, ScalingCoef), Xapian\n");
    let settings = [(0.4f32, 1.0f32), (0.5, 0.75), (0.6, 0.5)];
    let mut results = Vec::new();
    for &(b, c) in &settings {
        let s = run(b, c);
        println!(
            "(BaseFreq={b}, ScalingCoef={c}): initial freq {:.0} MHz, ramp {:+.1} MHz/ms",
            s.initial_freq, s.ramp_mhz_per_ms
        );
        println!("  core0 |{}|", sparkline(&downsample(&s.trace, 90)));
        results.push(s);
    }

    // Shape checks straight from the figure's caption.
    assert!(
        results[0].initial_freq < results[2].initial_freq,
        "lower BaseFreq must start requests at lower frequency ({:.0} vs {:.0})",
        results[0].initial_freq,
        results[2].initial_freq
    );
    assert!(
        results[0].ramp_mhz_per_ms > results[2].ramp_mhz_per_ms,
        "higher ScalingCoef must ramp faster ({:.1} vs {:.1})",
        results[0].ramp_mhz_per_ms,
        results[2].ramp_mhz_per_ms
    );
    println!(
        "\n[shape OK] (a) cooler start + steep ramp vs (c) warmer start + moderate ramp, as in the paper"
    );
}
