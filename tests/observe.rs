//! The recorder is the one observation handle: a recorder with its
//! event stream off and a span profiler attached changes no result on
//! any layer, and the profiler reaches the engine and the DDPG agent
//! through it. Turning the per-core event stream on changes no result
//! either, at any governor tick.

use deeppower_suite::deeppower::{
    evaluate, evaluate_recorded, train, train_recorded, ControllerParams, ThreadController,
    TrainConfig,
};
use deeppower_suite::sim::{
    FixedFrequency, Request, RunOptions, Server, ServerConfig, TraceConfig, MICROSECOND,
    MILLISECOND, SECOND,
};
use deeppower_suite::workload::{constant_rate_arrivals, App, AppSpec};
use deeppower_telemetry::{Profiler, Recorder, SpanRecord};

/// Events off, profiler on.
fn profiled(prof: &Profiler) -> Recorder {
    Recorder::disabled().with_profiler(prof)
}

/// Debug formatting prints every float in its shortest round-trip
/// form, so equal strings mean bit-identical results.
fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn one_short_episode() -> TrainConfig {
    let mut cfg = TrainConfig::for_app(App::Xapian);
    cfg.episodes = 1;
    cfg.episode_s = 10;
    cfg.peak_load = 0.4;
    cfg.seed = 3;
    cfg.deeppower.ddpg.warmup = 4;
    cfg.deeppower.ddpg.batch_size = 4;
    cfg
}

#[test]
fn disabled_recorder_has_a_disabled_profiler() {
    assert!(!Recorder::disabled().profiler().is_enabled());
}

#[test]
fn profiled_server_run_matches_plain_run() {
    let spec = AppSpec::get(App::Masstree);
    let server = Server::new(ServerConfig::paper_default(spec.n_threads));
    let arrivals: Vec<Request> =
        constant_rate_arrivals(&spec, spec.rps_for_load(0.5), 200_000_000, 5);
    let opts = RunOptions::default();
    let plain = server.run(&arrivals, &mut FixedFrequency { mhz: 1500 }, opts);
    let prof = Profiler::enabled();
    let observed = server.run_recorded(
        &arrivals,
        &mut FixedFrequency { mhz: 1500 },
        opts,
        &profiled(&prof),
    );
    assert!(same(&plain, &observed), "profiling perturbed the run");
    assert!(prof.phase_table().iter().any(|r| r.name == "engine.run"));
}

#[test]
fn per_core_events_leave_runs_bit_identical_at_any_tick() {
    // Telemetry adds no engine event time: at ticks that are not the
    // 1 ms grid, a run streaming every frequency transition and request
    // mark into a ring still matches the plain run bit for bit.
    let spec = AppSpec::get(App::Masstree);
    let server = Server::new(ServerConfig::paper_default(8));
    let arrivals: Vec<Request> = constant_rate_arrivals(&spec, spec.rps_for_load(0.6), SECOND, 7);
    let controller = || ThreadController::new(ControllerParams::new(0.3, 1.0));
    for tick_ns in [5 * MILLISECOND, 1500 * MICROSECOND] {
        let opts = RunOptions {
            tick_ns,
            ..RunOptions::default()
        };
        let plain = server.run(&arrivals, &mut controller(), opts);
        let rec = Recorder::ring(1 << 20);
        let traced = server.run_recorded(
            &arrivals,
            &mut controller(),
            RunOptions {
                trace: TraceConfig { events: true },
                ..opts
            },
            &rec,
        );
        assert_eq!(rec.dropped_events(), 0);
        let events = rec.drain_events();
        assert!(events.iter().any(|e| e.kind() == "FreqTransition"));
        assert!(events.iter().any(|e| e.kind() == "RequestComplete"));
        assert!(
            plain.records == traced.records,
            "tick {tick_ns} ns: events changed the records"
        );
        assert_eq!(
            plain.energy_j.to_bits(),
            traced.energy_j.to_bits(),
            "tick {tick_ns} ns: events changed the energy"
        );
    }
}

#[test]
fn profiled_training_and_evaluation_match_plain_and_nest_ddpg_in_ticks() {
    let cfg = one_short_episode();
    let (plain, plain_report) = train(&cfg);
    let prof = Profiler::enabled();
    let (observed, observed_report) = train_recorded(&cfg, &profiled(&prof));
    assert!(same(&plain.actor_weights, &observed.actor_weights));
    assert!(same(&plain_report, &observed_report));
    assert!(plain_report.updates > 0, "the episode trained nothing");

    // The governor handed the recorder's profiler to its agent: DDPG
    // update stages show up, each inside a governor tick.
    let rows = prof.phase_table();
    let ddpg: Vec<_> = rows
        .iter()
        .filter(|r| r.name.starts_with("ddpg."))
        .collect();
    assert!(!ddpg.is_empty(), "no ddpg.* spans: {rows:?}");
    assert!(
        ddpg.iter().all(|r| r.root_ns == 0),
        "a ddpg.* span is a root"
    );
    let records = prof.records();
    let inside_tick = |d: &SpanRecord| {
        records.iter().any(|t| {
            t.name == "engine.tick"
                && t.tid == d.tid
                && t.depth < d.depth
                && t.start_ns <= d.start_ns
                && d.start_ns + d.dur_ns <= t.start_ns + t.dur_ns
        })
    };
    let kept: Vec<_> = records
        .iter()
        .filter(|r| r.name.starts_with("ddpg."))
        .collect();
    assert!(!kept.is_empty(), "the span cap dropped every ddpg.* record");
    assert!(
        kept.iter().all(|d| inside_tick(d)),
        "ddpg.* outside engine.tick"
    );

    let plain_eval = evaluate(&plain, 0.4, 2, 9, Default::default());
    let observed_eval = evaluate_recorded(&plain, 0.4, 2, 9, Default::default(), &profiled(&prof));
    assert!(same(&plain_eval.sim, &observed_eval.sim));
    assert!(same(&plain_eval.log, &observed_eval.log));
}
