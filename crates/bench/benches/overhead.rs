//! §5.5 — DeepPower's own overhead:
//!
//! * "The parameters updating of the DDPG training algorithm costs 13 ms
//!   when the batch size is 64."
//! * "During testing, DeepPower generates an action in less than a
//!   millisecond."
//! * "The number of parameters in the actor neural network is 2096, so
//!   the memory and storage overhead is slight."
//! * "Setting the frequency for a CPU core consumes less than 10 us."
//!
//! This bench measures the equivalents in the Rust stack and checks each
//! stays within the paper's envelope (they are far below it — no Python
//! dispatch).

use deeppower_core::{ControllerParams, ThreadController, STATE_DIM};
use deeppower_drl::{Ddpg, DdpgConfig, Transition};
use deeppower_simd_server::{CoreView, Features, FreqCommands, FreqPlan, RunningView, ServerView};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

fn measure(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    println!("# §5.5 — DeepPower overhead\n");

    // 1. DDPG update at batch 64.
    let mut agent = Ddpg::new(DdpgConfig {
        state_dim: STATE_DIM,
        action_dim: 2,
        batch_size: 64,
        warmup: 0,
        ..Default::default()
    });
    let mut rng_state = 1u64;
    for i in 0..512 {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let v = (rng_state >> 33) as f32 / (1u64 << 31) as f32;
        agent.observe(Transition {
            state: vec![v; STATE_DIM],
            action: vec![v.fract(), 1.0 - v.fract()],
            reward: -v,
            next_state: vec![v * 0.9; STATE_DIM],
            done: i % 64 == 63,
        });
    }
    let t_update = measure(200, || {
        black_box(agent.update());
    });

    // 2. Action generation.
    let state = [0.4f32; STATE_DIM];
    let t_act = measure(50_000, || {
        black_box(agent.act(black_box(&state)));
    });

    // 3. Actor parameter count.
    let params = {
        use deeppower_nn::Params;
        agent.actor.num_params()
    };

    // 4. Per-core frequency command: one full thread-controller pass over
    //    20 cores, and the per-core share.
    let plan = FreqPlan::xeon_gold_5218r();
    let running = RunningView {
        arrival: 0,
        started: 0,
        features: Features::default(),
        sla: 8_000_000,
    };
    let cores: Vec<CoreView> = (0..20)
        .map(|_| CoreView {
            freq_mhz: 1500,
            running: Some(running),
            sleeping: None,
        })
        .collect();
    let queue = VecDeque::new();
    let view = ServerView {
        now: 4_000_000,
        queue: &queue,
        cores: &cores,
        total_arrived: 0,
        total_completed: 0,
        total_timeouts: 0,
        total_shed: 0,
        total_wasted: 0,
        energy_uj: 0,
    };
    let tc = ThreadController::new(ControllerParams::new(0.3, 0.9));
    let mut cmds = FreqCommands::new(20, &plan);
    let t_scale_all = measure(100_000, || {
        tc.scale_all(black_box(&view), &mut cmds);
    });

    println!("{:<38} {:>14} {:>14}", "metric", "paper", "this repo");
    println!(
        "{:<38} {:>14} {:>13.3}ms",
        "DDPG update, batch 64",
        "13 ms",
        t_update / 1e6
    );
    println!(
        "{:<38} {:>14} {:>13.3}us",
        "action generation",
        "< 1 ms",
        t_act / 1e3
    );
    println!("{:<38} {:>14} {:>14}", "actor parameters", "2096", params);
    println!(
        "{:<38} {:>14} {:>13.3}us",
        "frequency scaling, all 20 cores",
        "< 10 us/core",
        t_scale_all / 1e3
    );
    println!(
        "{:<38} {:>14} {:>13.3}us",
        "  per-core share",
        "",
        t_scale_all / 20.0 / 1e3
    );

    // Envelope checks (the paper's numbers are upper bounds we must beat).
    assert!(
        t_update / 1e6 < 13.0,
        "DDPG update slower than the paper's 13 ms"
    );
    assert!(t_act / 1e3 < 1_000.0, "action generation above 1 ms");
    assert!(
        t_scale_all / 20.0 < 10_000.0,
        "per-core frequency scaling above 10 us"
    );
    assert!(
        (1_000..4_000).contains(&params),
        "actor should be a ~2k-parameter network, got {params}"
    );
    println!("\n[shape OK] all overheads within the paper's envelope (and far below it)");
}
