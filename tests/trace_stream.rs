//! The request tracer's output is pinned: one Masstree node under the
//! retry-storm and collapse overload knobs writes an exact, hard-coded
//! event stream (FNV-1a digest of its JSONL plus per-kind counts), so a
//! change to how the tracer stores chains cannot change what it emits.
//! A drop-oldest run pins how an abandoned-then-evicted attempt retries.

use deeppower_suite::deeppower::{ControllerParams, ThreadController};
use deeppower_suite::sim::{
    Features, FixedFrequency, OverloadPlan, QueuePolicy, Request, RunOptions, Server, ServerConfig,
    MILLISECOND, SECOND,
};
use deeppower_suite::workload::{constant_rate_arrivals, App, AppSpec};
use deeppower_telemetry::{
    to_jsonl, Event, Recorder, TracePlan, SPAN_ABANDON, SPAN_BACKOFF, SPAN_QUEUE, SPAN_SHED,
};
use std::collections::BTreeMap;

const SEED: u64 = 11;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

fn count(events: &[Event], kind: &str) -> usize {
    events.iter().filter(|e| e.kind() == kind).count()
}

/// The FIFO retry-storm and collapse knobs of
/// `harness::overload_scenarios`, at Masstree's 1 ms SLA.
fn scenario(name: &str) -> OverloadPlan {
    let sla_ns = AppSpec::get(App::Masstree).sla;
    let base = OverloadPlan {
        seed: SEED,
        queue_capacity: 256,
        client_timeout_ns: 4 * sla_ns,
        retry_prob: 0.8,
        max_attempts: 3,
        retry_backoff_ns: sla_ns,
        retry_jitter_ns: sla_ns / 4,
        ..OverloadPlan::none()
    };
    match name {
        "retry-storm" => OverloadPlan {
            retry_prob: 0.9,
            max_attempts: 4,
            ..base
        },
        "collapse" => OverloadPlan {
            queue_capacity: 64,
            client_timeout_ns: 2 * sla_ns,
            retry_prob: 0.95,
            max_attempts: 5,
            retry_backoff_ns: sla_ns / 2,
            ..base
        },
        _ => unreachable!("unknown scenario {name}"),
    }
}

/// About one simulated second of a two-core Masstree node offered 90 %
/// of its nominal capacity (deadlines and retries amplify that into
/// overload), with 5 % head sampling and two tail exemplars per window.
/// Returns the recorded event stream.
fn traced_run(overload: OverloadPlan) -> Vec<Event> {
    const CORES: usize = 2;
    let spec = AppSpec::get(App::Masstree);
    let server = Server::new(ServerConfig::paper_default(CORES));
    let rps = 0.9 * CORES as f64 * spec.capacity_rps() / spec.n_threads as f64;
    let arrivals = constant_rate_arrivals(&spec, rps, SECOND, SEED);
    let mut gov = ThreadController::new(ControllerParams::default());
    let rec = Recorder::ring(1 << 20);
    let opts = RunOptions {
        overload,
        rtrace: TracePlan::sampled(0.05, 2, SEED),
        ..RunOptions::default()
    };
    server.run_recorded(&arrivals, &mut gov, opts, &rec);
    assert_eq!(rec.dropped_events(), 0, "the ring must hold the whole run");
    rec.drain_events()
}

#[test]
fn overload_trace_streams_are_pinned() {
    let want = [
        ("retry-storm", 13338877016956152654, 1052, 35907, 36029),
        ("collapse", 12291974436949424198, 1052, 73112, 72928),
    ];
    let got = want.map(|(name, ..)| {
        let events = traced_run(scenario(name));
        (
            name,
            fnv1a(to_jsonl(&events).as_bytes()),
            count(&events, "RequestTrace"),
            count(&events, "Shed"),
            count(&events, "Retry"),
        )
    });
    assert_eq!(got, want, "(scenario, digest, traces, sheds, retries)");
}

/// One core with a two-slot drop-oldest queue and 2 ms client deadlines.
/// Client 0 holds the core past 4 ms; client 1 queues behind it, is
/// abandoned at 2 ms (and retried after backoff), then evicted at 4 ms
/// by client 3's arrival. The eviction must not retry it a second time:
/// the client already moved on at the abandonment.
#[test]
fn evicting_an_abandoned_attempt_does_not_retry_it_again() {
    let server = Server::new(ServerConfig::paper_default(1));
    let sla = 10 * MILLISECOND;
    let arrivals: Vec<Request> = [0, 1, 3 * MILLISECOND, 4 * MILLISECOND]
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| Request {
            id: i as u64,
            client_id: i as u64,
            attempt: 0,
            arrival,
            first_arrival: arrival,
            work_ref_ns: 5 * MILLISECOND,
            freq_sensitivity: 0.0,
            sla,
            features: Features::default(),
        })
        .collect();
    let opts = RunOptions {
        overload: OverloadPlan {
            seed: SEED,
            queue_capacity: 2,
            queue_policy: QueuePolicy::DropOldest,
            client_timeout_ns: 2 * MILLISECOND,
            retry_prob: 1.0,
            max_attempts: 3,
            retry_backoff_ns: 5 * MILLISECOND,
            ..OverloadPlan::none()
        },
        rtrace: TracePlan::sampled(1.0, 0, SEED),
        ..RunOptions::default()
    };
    let rec = Recorder::ring(1 << 12);
    let mut gov = FixedFrequency { mhz: 2100 };
    server.run_recorded(&arrivals, &mut gov, opts, &rec);
    let events = rec.drain_events();

    let mut retries = BTreeMap::new();
    for e in &events {
        if let Event::Retry(r) = e {
            *retries.entry((r.client, r.attempt)).or_insert(0) += 1;
        }
    }
    assert!(
        retries.contains_key(&(1, 1)),
        "client 1 retried: {retries:?}"
    );
    assert!(
        retries.values().all(|&n| n == 1),
        "at most one retry per (client, attempt): {retries:?}"
    );

    let evicted_at = events
        .iter()
        .find_map(|e| match e {
            Event::Shed(s) if (s.client, s.attempt) == (1, 0) => Some(s.t),
            _ => None,
        })
        .expect("client 1's first attempt is evicted");
    assert_eq!(evicted_at, 4 * MILLISECOND);
    let trace = events
        .iter()
        .find_map(|e| match e {
            Event::RequestTrace(t) if t.client == 1 => Some(t),
            _ => None,
        })
        .expect("client 1's chain is traced");
    let abandoned_at = trace.attempts[0]
        .spans
        .iter()
        .find(|s| s.name == SPAN_ABANDON)
        .expect("attempt 0 was abandoned")
        .start;
    assert_eq!(abandoned_at, 2 * MILLISECOND + 1);
    assert_eq!(trace.attempts[0].outcome, "abandoned");
    let names: Vec<&str> = trace.attempts[0]
        .spans
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(names, [SPAN_ABANDON, SPAN_QUEUE, SPAN_SHED], "event order");
    let backoff = &trace.attempts[1].spans[0];
    assert_eq!(backoff.name, SPAN_BACKOFF);
    assert_eq!(
        backoff.start, abandoned_at,
        "the retry's backoff runs from the abandonment, not the eviction"
    );
}
