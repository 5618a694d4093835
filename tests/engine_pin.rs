//! The engine's simulated output is pinned bit for bit: per-request
//! records (FNV-1a digest), total energy (`f64::to_bits`) and the
//! frequency-transition count of six one-second runs that between them reach every per-core
//! state the engine tracks: a 20-core Xapian node, idle cores asleep
//! in C-states, a capped little core, deferred and failed DVFS writes
//! with core stalls, a contention-free socket, and C-state wake latency,
//! core stalls and an overloaded closed loop together. A change to how
//! the engine caches or recomputes per-core state cannot change a bit
//! of what it simulates.

use deeppower_suite::deeppower::{ControllerParams, SleepAware, SleepPolicy, ThreadController};
use deeppower_suite::sim::{
    ContentionModel, FaultPlan, Governor, OverloadPlan, QueuePolicy, Request, RunOptions, Server,
    ServerConfig, SimResult, MILLISECOND, SECOND,
};
use deeppower_suite::workload::{constant_rate_arrivals, App, AppSpec};

const SEED: u64 = 17;

/// 64-bit FNV-1a, fed one little-endian word at a time.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf29ce484222325)
    }

    fn word(self, x: u64) -> Self {
        Self(
            x.to_le_bytes()
                .iter()
                .fold(self.0, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3)),
        )
    }
}

/// What a pinned run must reproduce exactly.
#[derive(Debug, PartialEq)]
struct Pin {
    records: usize,
    records_fnv: u64,
    energy_bits: u64,
    freq_transitions: u64,
}

impl Pin {
    fn of(res: &SimResult) -> Self {
        let records_fnv = res.records.iter().fold(Fnv::new(), |h, r| {
            h.word(r.id)
                .word(r.arrival)
                .word(r.started)
                .word(r.completed)
                .word(r.latency)
                .word(r.timed_out as u64)
        });
        Self {
            records: res.records.len(),
            records_fnv: records_fnv.0,
            energy_bits: res.energy_j.to_bits(),
            freq_transitions: res.freq_transitions,
        }
    }
}

/// One second of `app` at `load` of a full node's capacity.
fn run(
    cfg: ServerConfig,
    app: App,
    load: f64,
    gov: &mut dyn Governor,
    faults: FaultPlan,
) -> SimResult {
    let spec = AppSpec::get(app);
    let arrivals: Vec<Request> =
        constant_rate_arrivals(&spec, spec.rps_for_load(load), SECOND, SEED);
    let opts = RunOptions {
        faults,
        ..RunOptions::default()
    };
    Server::new(cfg).run(&arrivals, gov, opts)
}

fn controller() -> ThreadController {
    ThreadController::new(ControllerParams::default())
}

#[test]
fn xapian_twenty_cores_under_the_thread_controller() {
    let res = run(
        ServerConfig::paper_default(20),
        App::Xapian,
        0.7,
        &mut controller(),
        FaultPlan::none(),
    );
    assert_eq!(
        Pin::of(&res),
        Pin {
            records: 15337,
            records_fnv: 15770313927870065882,
            energy_bits: 4636851301646729606,
            freq_transitions: 11473,
        }
    );
}

#[test]
fn sleeping_cores_on_a_cstate_socket() {
    let mut gov = SleepAware::new(
        ThreadController::new(ControllerParams::new(0.2, 1.0)),
        20,
        SleepPolicy::default(),
    );
    let res = run(
        ServerConfig::paper_with_cstates(20),
        App::Xapian,
        0.25,
        &mut gov,
        FaultPlan::none(),
    );
    assert_eq!(
        Pin::of(&res),
        Pin {
            records: 5488,
            records_fnv: 16771488084227443672,
            energy_bits: 4630564928092566198,
            freq_transitions: 9130,
        }
    );
}

#[test]
fn capped_little_cores_under_turbo_commands() {
    // Half the cores top out at 1.2 GHz; a busy controller commands
    // turbo, which the cap clamps.
    let cfg = ServerConfig {
        core_max_mhz: [2100, 1200].repeat(4),
        ..ServerConfig::paper_default(8)
    };
    let mut gov = ThreadController::new(ControllerParams::new(0.6, 1.0));
    let res = run(cfg, App::Masstree, 0.6, &mut gov, FaultPlan::none());
    assert_eq!(
        Pin::of(&res),
        Pin {
            records: 56157,
            records_fnv: 10458627290867350783,
            energy_bits: 4631398089119168372,
            freq_transitions: 2631,
        }
    );
}

#[test]
fn deferred_and_failed_dvfs_writes_with_core_stalls() {
    let faults = FaultPlan {
        seed: SEED,
        dvfs_fail_prob: 0.2,
        dvfs_spike_prob: 0.3,
        dvfs_spike_min_ns: 20_000,
        dvfs_spike_max_ns: 400_000,
        stall_period_ns: 100 * MILLISECOND,
        stall_duration_ns: 15 * MILLISECOND,
        ..FaultPlan::none()
    };
    let res = run(
        ServerConfig::paper_default(8),
        App::Masstree,
        0.7,
        &mut controller(),
        faults,
    );
    assert!(res.faults_injected > 0, "the plan injected no fault");
    assert_eq!(
        Pin::of(&res),
        Pin {
            records: 65596,
            records_fnv: 15913778019333614074,
            energy_bits: 4633500118965779897,
            freq_transitions: 4248,
        }
    );
}

#[test]
fn contention_free_socket() {
    let cfg = ServerConfig {
        contention: ContentionModel::none(),
        ..ServerConfig::paper_default(20)
    };
    let res = run(cfg, App::Xapian, 0.8, &mut controller(), FaultPlan::none());
    assert_eq!(
        Pin::of(&res),
        Pin {
            records: 17454,
            records_fnv: 13789232959008150632,
            energy_bits: 4634934298108239401,
            freq_transitions: 10246,
        }
    );
}

#[test]
fn waking_cores_stall_under_an_overloaded_closed_loop() {
    // Idle cores sleep between a light load's requests, so dispatches
    // pay C1/C6 wake latency; a short stall period parks a core every
    // few milliseconds, some of them mid-wake. A flash crowd overflows
    // the bounded queue: drop-oldest sheds, clients time out and retry.
    let mut gov = SleepAware::new(
        ThreadController::new(ControllerParams::new(0.2, 1.0)),
        20,
        SleepPolicy::default(),
    );
    let spec = AppSpec::get(App::Xapian);
    let arrivals: Vec<Request> =
        constant_rate_arrivals(&spec, spec.rps_for_load(0.35), SECOND, SEED);
    let opts = RunOptions {
        faults: FaultPlan {
            seed: SEED,
            stall_period_ns: 3 * MILLISECOND,
            stall_duration_ns: MILLISECOND,
            ..FaultPlan::none()
        },
        overload: OverloadPlan {
            seed: SEED,
            queue_capacity: 256,
            queue_policy: QueuePolicy::DropOldest,
            client_timeout_ns: spec.sla,
            retry_prob: 0.9,
            max_attempts: 4,
            retry_backoff_ns: spec.sla / 2,
            retry_jitter_ns: spec.sla / 4,
            burst_start_ns: 300 * MILLISECOND,
            burst_duration_ns: 300 * MILLISECOND,
            burst_factor: 3,
            ..OverloadPlan::none()
        },
        ..RunOptions::default()
    };
    let res = Server::new(ServerConfig::paper_with_cstates(20)).run(&arrivals, &mut gov, opts);
    assert!(
        res.shed > 0 && res.abandoned > 0 && res.retries > 0,
        "the closed loop never overloaded: {} shed, {} abandoned, {} retries",
        res.shed,
        res.abandoned,
        res.retries
    );
    assert_eq!(
        Pin::of(&res),
        Pin {
            records: 15863,
            records_fnv: 5997315620597192987,
            energy_bits: 4639374764897686089,
            freq_transitions: 9164,
        }
    );
    assert_eq!(
        [
            res.faults_injected,
            res.goodput,
            res.wasted,
            res.shed,
            res.abandoned,
            res.retries
        ],
        [351, 6830, 9033, 22181, 10582, 23265]
    );
}
