//! The fleet driver's contracts at reduced scale: one epoch loop whose
//! output does not depend on the worker count, the inference path or
//! whether anyone is watching.

use deeppower_fleet::{
    run_fleet_with, untrained_policy, BalancerPolicy, FleetObserve, FleetOutput, FleetRun,
    FleetSpec, NodeProfile,
};
use deeppower_suite::sim::{FaultPlan, MILLISECOND};
use deeppower_suite::workload::App;
use deeppower_telemetry::{MonitorConfig, SloSpec};

/// Four Masstree nodes (the cheapest app) for three simulated seconds,
/// with core stalls so the monitor has incidents to report.
fn spec() -> FleetSpec {
    let mut spec = FleetSpec::uniform(
        App::Masstree,
        4,
        BalancerPolicy::JoinShortestQueue,
        11,
        0.1,
        3,
    );
    spec.faults = FaultPlan {
        seed: 21,
        stall_period_ns: 1_000_000_000,
        stall_duration_ns: 300_000_000,
        ..FaultPlan::none()
    };
    spec
}

fn run(spec: &FleetSpec, threads: usize, observe: FleetObserve) -> FleetOutput {
    let policy = untrained_policy(spec.app, 13);
    let run = FleetRun {
        threads,
        observe,
        ..FleetRun::default()
    };
    run_fleet_with(spec, &[&policy], &run)
}

fn monitor_cfg() -> MonitorConfig {
    MonitorConfig::with_slo(SloSpec::for_sla_ns("masstree", MILLISECOND))
}

#[test]
fn result_is_byte_identical_across_threads_and_inference_paths() {
    let spec = spec();
    let serial = run(&spec, 1, FleetObserve::None).result;
    assert!(serial.drl_epochs > 0 && serial.total_requests > 0);
    let serial = serial.to_json();
    let threaded = run(&spec, 2, FleetObserve::None).result.to_json();
    assert_eq!(serial, threaded, "threads 2 diverged from threads 1");

    let policy = untrained_policy(spec.app, 13);
    let per_node = FleetRun {
        per_node_act: true,
        ..FleetRun::default()
    };
    let reference = run_fleet_with(&spec, &[&policy], &per_node).result;
    assert_eq!(serial, reference.to_json(), "per-node act diverged");
}

#[test]
fn monitoring_is_unperturbing_and_thread_count_free() {
    let spec = spec();
    let plain = run(&spec, 1, FleetObserve::None).result.to_json();
    let mut reports = Vec::new();
    for threads in [1, 2] {
        let out = run(&spec, threads, FleetObserve::Monitor(monitor_cfg()));
        assert_eq!(
            plain,
            out.result.to_json(),
            "monitoring perturbed the result"
        );
        assert!(out.events.iter().all(|(e, d)| e.is_empty() && *d == 0));
        let report = out.monitor.expect("monitored run").finish();
        assert!(report.windows > 0, "monitor saw no window rollups");
        reports.push(report.to_json());
    }
    assert_eq!(
        reports[0], reports[1],
        "health report diverged at 2 threads"
    );
}

#[test]
fn per_node_event_streams_are_thread_count_free() {
    let spec = spec();
    let plain = run(&spec, 1, FleetObserve::None).result.to_json();
    let ring = FleetObserve::Events { ring: 1 << 20 };
    let serial = run(&spec, 1, ring.clone());
    let threaded = run(&spec, 2, ring);
    assert_eq!(
        plain,
        serial.result.to_json(),
        "recording perturbed the result"
    );
    assert!(serial.monitor.is_none());
    assert_eq!(serial.events.len(), spec.nodes);
    for (node, ((a, dropped), (b, _))) in serial.events.iter().zip(&threaded.events).enumerate() {
        assert!(!a.is_empty(), "node {node} emitted no events");
        assert_eq!(*dropped, 0, "node {node} overflowed a 1 Mi-event ring");
        assert!(a == b, "node {node}'s stream diverged at 2 threads");
    }
}

#[test]
fn tiny_ring_reports_dropped_events() {
    let out = run(&spec(), 2, FleetObserve::Events { ring: 4 });
    for (node, (events, dropped)) in out.events.iter().enumerate() {
        assert_eq!(events.len(), 4, "node {node} ring not full");
        assert!(*dropped > 0, "node {node} overflowed without a drop count");
    }
}

#[test]
fn per_group_policies_are_byte_identical_across_threads() {
    // Two racks of identical hardware, each steered by its own policy.
    let spec = spec().with_profiles(vec![
        NodeProfile {
            name: "rack-a".into(),
            ..NodeProfile::paper_default(8, 2)
        },
        NodeProfile {
            name: "rack-b".into(),
            ..NodeProfile::paper_default(8, 2)
        },
    ]);
    let policies = [
        untrained_policy(spec.app, 17),
        untrained_policy(spec.app, 23),
    ];
    let results: Vec<String> = [1, 2]
        .into_iter()
        .map(|threads| {
            let run = FleetRun {
                threads,
                ..FleetRun::default()
            };
            run_fleet_with(&spec, &[&policies[0], &policies[1]], &run)
                .result
                .to_json()
        })
        .collect();
    assert_eq!(
        results[0], results[1],
        "per-group fleet diverged at 2 threads"
    );
}
