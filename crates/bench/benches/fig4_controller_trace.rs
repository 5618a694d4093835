//! Fig. 4 — millisecond-level frequency of one core under the thread
//! controller during 2 seconds of Xapian, with request start/end marks and
//! a parameter update mid-window.
//!
//! The figure demonstrates Algorithm 1's signature behaviour: frequency
//! sits at the BaseFreq level while idle, ramps up during request
//! processing (slope set by ScalingCoef), and resets when a request
//! completes.
//!
//! The series is reconstructed from the telemetry event stream
//! (`FreqTransition` + `RequestDispatch`/`RequestComplete`) rather than
//! the legacy sampled trace, so the bench exercises the same artifact
//! pipeline as `deeppower trace`.

use deeppower_bench::{downsample, sparkline};
use deeppower_core::{ControllerParams, ThreadController};
use deeppower_simd_server::{
    FreqCommands, Governor, RunOptions, Server, ServerConfig, ServerView, TraceConfig, MILLISECOND,
    SECOND,
};
use deeppower_telemetry::{freq_series, Event, Recorder};
use deeppower_workload::{constant_rate_arrivals, App, AppSpec};

/// Thread controller whose parameters switch at a fixed time — the red
/// dotted "parameter updated" line of Fig. 4.
struct SwitchingController {
    tc: ThreadController,
    switch_at: u64,
    after: ControllerParams,
}

impl Governor for SwitchingController {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        if view.now >= self.switch_at {
            self.tc.params = self.after;
        }
        self.tc.scale_all(view, cmds);
    }
}

fn main() {
    let spec = AppSpec::get(App::Xapian);
    // One core so the trace is a single line, as in the figure.
    let server = Server::new(ServerConfig::paper_default(1));
    // Modest load so idle gaps are visible between requests.
    let arrivals = constant_rate_arrivals(&spec, 120.0, 2 * SECOND, 77);

    let mut gov = SwitchingController {
        tc: ThreadController::new(ControllerParams::new(0.25, 0.9)),
        switch_at: SECOND, // parameter update at t = 1 s
        after: ControllerParams::new(0.45, 0.5),
    };
    // One core x 1 ms ticks x 2 s => at most ~2k transitions, plus two
    // marks per request; 1 << 14 leaves ample headroom.
    let rec = Recorder::ring(1 << 14);
    let _res = server.run_recorded(
        &arrivals,
        &mut gov,
        RunOptions {
            tick_ns: MILLISECOND,
            trace: TraceConfig { events: true },
            ..Default::default()
        },
        &rec,
    );
    let events = rec.drain_events();
    assert_eq!(rec.dropped_events(), 0, "event ring must not overflow");

    println!("# Fig. 4 — per-ms frequency of core 0 over 2 s (Xapian)");
    println!("# params: (BaseFreq 0.25, ScalingCoef 0.9) -> (0.45, 0.5) at t=1s\n");

    let freqs: Vec<f64> = freq_series(
        &events,
        0,
        server.config().initial_mhz,
        2 * SECOND - MILLISECOND,
        MILLISECOND,
    )
    .iter()
    .map(|&(_, f)| f as f64)
    .collect();
    for (i, chunk) in freqs.chunks(250).enumerate() {
        println!("{:>5} ms |{}|", i * 250, sparkline(&downsample(chunk, 100)));
    }

    let starts = events
        .iter()
        .filter(|ev| matches!(ev, Event::RequestDispatch(d) if d.t < 2 * SECOND))
        .count();
    let ends = events
        .iter()
        .filter(|ev| matches!(ev, Event::RequestComplete(c) if c.t < 2 * SECOND))
        .count();
    println!("\nrequest marks in window: {starts} starts (green), {ends} ends (blue)");

    // Shape checks.
    let first_half: Vec<f64> = freqs[..1000.min(freqs.len())].to_vec();
    let second_half: Vec<f64> = freqs[1000.min(freqs.len())..].to_vec();
    let min1 = first_half.iter().cloned().fold(f64::INFINITY, f64::min);
    let min2 = second_half.iter().cloned().fold(f64::INFINITY, f64::min);
    // Idle level follows BaseFreq: 0.25 → ~1100 MHz, 0.45 → ~1400 MHz.
    assert!(
        min1 < min2,
        "idle frequency must rise after the BaseFreq increase ({min1} vs {min2})"
    );
    let max1 = first_half.iter().cloned().fold(0.0, f64::max);
    assert!(
        max1 > min1 + 200.0,
        "frequency must ramp during request processing"
    );
    assert!(starts > 50, "window should contain many request marks");
    println!("[shape OK] idle level tracks BaseFreq; ramps during processing; marks present");
}
