//! The fault and safety event stream is pinned: one Masstree node under
//! every fault axis at once, governed by a safety-wrapped low-frequency
//! thread controller, writes an exact, hard-coded event stream (FNV-1a
//! digest of its JSONL plus per-kind counts and the run's fault count).
//! A change to how faults and safety interventions are counted or
//! tagged cannot change what the simulator emits.

use deeppower_suite::deeppower::{
    ControllerParams, SafetyConfig, SafetyGovernor, ThreadController,
};
use deeppower_suite::sim::{FaultPlan, RunOptions, Server, ServerConfig, MILLISECOND, SECOND};
use deeppower_suite::workload::{constant_rate_arrivals, App, AppSpec};
use deeppower_telemetry::{to_jsonl, Recorder};
use std::collections::BTreeMap;

const SEED: u64 = 13;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// The `all` knobs of `harness::fault_scenarios`: DVFS write failures
/// and spikes, sensor drops with power-reading noise, and core stalls.
fn all_faults() -> FaultPlan {
    FaultPlan {
        seed: SEED,
        dvfs_fail_prob: 0.8,
        dvfs_spike_prob: 0.1,
        dvfs_spike_min_ns: 50_000,
        dvfs_spike_max_ns: 500_000,
        sensor_drop_prob: 0.3,
        power_noise_frac: 0.2,
        stall_period_ns: 500 * MILLISECOND,
        stall_duration_ns: 20 * MILLISECOND,
    }
}

#[test]
fn fault_and_safety_streams_are_pinned() {
    const CORES: usize = 2;
    let spec = AppSpec::get(App::Masstree);
    let server = Server::new(ServerConfig::paper_default(CORES));
    let rps = 0.7 * CORES as f64 * spec.capacity_rps() / spec.n_threads as f64;
    let arrivals = constant_rate_arrivals(&spec, rps, SECOND, SEED);
    let rec = Recorder::ring(1 << 20);
    let mut gov = SafetyGovernor::new(
        ThreadController::new(ControllerParams::new(0.0, 0.4)),
        CORES,
        SafetyConfig::default(),
    )
    .with_recorder(rec.clone());
    let opts = RunOptions {
        faults: all_faults(),
        ..RunOptions::default()
    };
    let res = server.run_recorded(&arrivals, &mut gov, opts, &rec);
    assert_eq!(rec.dropped_events(), 0, "the ring must hold the whole run");
    let events = rec.drain_events();
    let jsonl = to_jsonl(&events);

    for tag in [
        "dvfs-fail",
        "dvfs-spike",
        "core-stall",
        "core-online",
        "sensor-stale",
    ] {
        assert!(
            jsonl.contains(&format!("\"{tag}\"")),
            "no {tag} fault in the stream"
        );
    }
    assert!(
        ["watchdog-turbo", "hold-decay", "maxfreq-fallback"]
            .iter()
            .any(|tag| jsonl.contains(&format!("\"{tag}\""))),
        "no safety intervention in the stream"
    );

    let mut kinds = BTreeMap::new();
    for e in &events {
        *kinds.entry(e.kind()).or_insert(0usize) += 1;
    }
    let kinds: Vec<(&str, usize)> = kinds.into_iter().collect();
    assert_eq!(
        fnv1a(jsonl.as_bytes()),
        11091270088410064569,
        "JSONL digest"
    );
    assert_eq!(
        kinds,
        [
            ("CoreResidency", 29),
            ("FaultInjected", 1077),
            ("LatencySnapshot", 1),
            ("SafetyAction", 16),
            ("WindowRollup", 2),
        ],
        "events per kind"
    );
    // Every FaultInjected event but the stall's end (core-online) counts.
    assert_eq!(res.faults_injected, 1076);
}
