//! Fleet scaling: nodes vs wall-clock, and batched vs per-node actor
//! inference.
//!
//! Three perf claims backing the fleet layer:
//!
//! 1. **Batched inference** — evaluating one shared policy for N node
//!    states as a single `N × 8` matrix–matrix forward pass
//!    (`Ddpg::act_batch_rows` over every row) beats N single-state
//!    passes. Asserted strictly for `N ≥ 8` (best-of-k timing on both
//!    sides).
//! 2. **Fleet wall-clock** — one lockstep worker scales with node count
//!    roughly linearly in simulated work, and all-core workers
//!    (`FleetRun::threads` 0) buy node scaling that is *sublinear* in
//!    wall-clock on a multi-core host while staying byte-identical
//!    (asserted every run, every node count).
//! 3. **Heterogeneous fleets** — on a mixed-profile fleet (4×1-core
//!    edge boxes + 2×4-core nodes) the hardware-aware PowerAware
//!    balancer must beat capacity-blind round-robin on fleet p99 —
//!    round-robin hands every 1-core node the same share an 8-core
//!    node gets and drowns it.
//!
//! Results are printed as a table and written to
//! `target/fleet-scaling.json` (the CI artifact; the committed
//! `BENCH_fleet.json` at the repo root is the recorded baseline).
//! `DEEPPOWER_SMOKE=1` shrinks reps and durations for CI.

use deeppower_fleet::{
    run_fleet, run_fleet_with, untrained_policy, BalancerPolicy, FleetRun, FleetSpec, NodeProfile,
};
use deeppower_nn::Matrix;
use deeppower_workload::App;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let smoke = std::env::var("DEEPPOWER_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false);
    let policy = untrained_policy(App::Masstree, 1);
    let mut agent = policy.build_agent();

    // ---- 1. batched vs per-node inference ----
    let (calls_per_block, blocks) = if smoke { (50usize, 3usize) } else { (200, 5) };
    println!("# actor inference — one N x 8 batch vs N single-state passes");
    println!(
        "{:>6} {:>12} {:>12} {:>9}",
        "N", "loop(us)", "batch(us)", "speedup"
    );
    let mut inference_rows = Vec::new();
    for n in [2usize, 8, 32, 128] {
        let mut states = Matrix::zeros(n, 8);
        let all: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let row: Vec<f32> = (0..8)
                .map(|j| ((i * 8 + j) as f32 * 0.37).sin().abs())
                .collect();
            states.set_row(i, &row);
        }
        // Best-of-k block timing on both sides; each block does the
        // same number of *node decisions* (calls_per_block × n rows).
        let mut t_loop = f64::INFINITY;
        let mut t_batch = f64::INFINITY;
        for _ in 0..blocks {
            let t = Instant::now();
            for _ in 0..calls_per_block {
                for i in 0..n {
                    black_box(agent.act(black_box(states.row(i))));
                }
            }
            t_loop = t_loop.min(t.elapsed().as_secs_f64());

            let t = Instant::now();
            for _ in 0..calls_per_block {
                black_box(agent.act_batch_rows(black_box(&states), &all));
            }
            t_batch = t_batch.min(t.elapsed().as_secs_f64());
        }
        let us = 1e6 / calls_per_block as f64;
        let speedup = t_loop / t_batch;
        println!(
            "{n:>6} {:>12.2} {:>12.2} {:>8.2}x",
            t_loop * us,
            t_batch * us,
            speedup
        );
        // The acceptance bar: one matrix-matrix pass must strictly beat
        // the per-node loop once the fleet is non-trivial.
        if n >= 8 {
            assert!(
                t_batch < t_loop,
                "batched inference not faster at N={n}: batch {t_batch:.6}s vs loop {t_loop:.6}s"
            );
        }
        inference_rows.push(format!(
            "{{\"n\": {n}, \"loop_us\": {:.3}, \"batch_us\": {:.3}, \"speedup\": {:.3}}}",
            t_loop * us,
            t_batch * us,
            speedup
        ));
    }

    // ---- 2. fleet wall-clock vs node count, serial and parallel ----
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let duration_s = if smoke { 3 } else { 12 };
    let node_counts: &[usize] = if smoke {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4, 8, 16]
    };
    println!(
        "\n# fleet wall-clock — {duration_s} s simulated, Masstree, round-robin, {cores} cores"
    );
    println!(
        "{:>6} {:>10} {:>12} {:>9} {:>12} {:>14}",
        "nodes", "wall(s)", "parallel(s)", "speedup", "requests", "ms/node-epoch"
    );
    let mut fleet_rows = Vec::new();
    let mut parallel_walls = std::collections::BTreeMap::new();
    let scale_rounds = 2;
    for &nodes in node_counts {
        let spec = FleetSpec::uniform(
            App::Masstree,
            nodes,
            BalancerPolicy::RoundRobin,
            7,
            0.4,
            duration_s,
        );
        // Alternating best-of-k: a cold first run can be 2-3× slower
        // than steady state, so single-shot serial-then-parallel timing
        // would credit the parallel driver with the warm-up it didn't
        // pay.
        let mut wall = f64::INFINITY;
        let mut wall_par = f64::INFINITY;
        let mut requests = 0u64;
        let mut epochs = 0u64;
        for round in 0..scale_rounds {
            let t = Instant::now();
            let res = run_fleet(&spec, &policy);
            wall = wall.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let all_cores = FleetRun {
                threads: 0,
                ..FleetRun::default()
            };
            let par = run_fleet_with(&spec, &[&policy], &all_cores).result;
            wall_par = wall_par.min(t.elapsed().as_secs_f64());
            // The determinism contract is asserted every size — the
            // speedup is worthless if the bytes drift.
            if round == 0 {
                assert_eq!(
                    res.to_json(),
                    par.to_json(),
                    "parallel fleet diverged from serial at {nodes} nodes"
                );
                requests = res.total_requests;
                epochs = res.drl_epochs;
            }
        }
        let speedup = wall / wall_par;
        parallel_walls.insert(nodes, wall_par);
        let per_epoch_ms = wall * 1e3 / (epochs as f64 * nodes as f64);
        println!(
            "{nodes:>6} {wall:>10.2} {wall_par:>12.2} {speedup:>8.2}x {requests:>12} {per_epoch_ms:>14.3}"
        );
        fleet_rows.push(format!(
            "{{\"nodes\": {nodes}, \"wall_s\": {wall:.3}, \"requests\": {requests}, \"epochs\": {epochs}}}"
        ));
    }
    // Acceptance bar for the parallel engine: quadrupling the fleet
    // from 4 to 16 nodes costs < 2.5× wall-clock when cores exist to
    // spread over. Single-core hosts still verified byte-identity above.
    if cores >= 4 {
        if let (Some(&w4), Some(&w16)) = (parallel_walls.get(&4), parallel_walls.get(&16)) {
            assert!(
                w16 < 2.5 * w4,
                "parallel fleet scaling is not sublinear: 16 nodes {w16:.2}s vs 4 nodes {w4:.2}s"
            );
        }
    } else {
        println!("({cores}-core machine: sublinear-scaling assertion skipped, determinism still enforced)");
    }

    // ---- 3. heterogeneous fleet: hardware-aware balancing ----
    // Mixed hardware: 4 one-core edge boxes next to 2 four-core nodes,
    // 8 cores of true capacity under a trace sized for the node count.
    // `peak_load` 0.12 puts the capacity-weighted split at ~0.72 load
    // per core at peak while round-robin drives each 1-core node to
    // ~0.96 — saturated but not in the everything-times-out regime
    // where all balancers look alike.
    let hetero = |balancer| {
        FleetSpec::uniform(App::Masstree, 0, balancer, 7, 0.12, duration_s).with_profiles(vec![
            NodeProfile {
                name: "edge-1c".into(),
                max_mhz: 1500,
                ..NodeProfile::paper_default(1, 4)
            },
            NodeProfile {
                name: "quad".into(),
                ..NodeProfile::paper_default(4, 2)
            },
        ])
    };
    let pa = run_fleet(&hetero(BalancerPolicy::PowerAware), &policy);
    let rr = run_fleet(&hetero(BalancerPolicy::RoundRobin), &policy);
    assert!(
        pa.fleet_p99_ms <= rr.fleet_p99_ms,
        "PowerAware did not beat round-robin on the mixed fleet: p99 {:.2} ms vs {:.2} ms",
        pa.fleet_p99_ms,
        rr.fleet_p99_ms
    );
    println!(
        "\n# heterogeneous fleet (4x edge-1c + 2x quad), balancer p99: power-aware {:.2} ms vs round-robin {:.2} ms",
        pa.fleet_p99_ms, rr.fleet_p99_ms
    );

    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"inference\": [{}],\n  \"fleet\": [{}],\n  \"hetero\": {{\"power_aware_p99_ms\": {:.3}, \"round_robin_p99_ms\": {:.3}}}\n}}\n",
        inference_rows.join(", "),
        fleet_rows.join(", "),
        pa.fleet_p99_ms,
        rr.fleet_p99_ms
    );
    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/fleet-scaling.json");
    if let Err(e) = deeppower_telemetry::atomic_write(&out, json) {
        eprintln!("warning: could not write {}: {e}", out.display());
    } else {
        println!("report written to {}", out.display());
    }
}
