//! Table 2 — single-state inference time of DQN, DDQN, DDPG and SAC.
//!
//! Double DQN changes only DQN's training target, so its inference
//! network is DQN's: the DDQN column times a second DQN instance.
//!
//! §3.2 measures these (125 / 140 / 231 / 472 µs in the authors' Python/
//! PyTorch stack) to argue that per-request DRL control is infeasible and
//! motivate hierarchical control. This reproduction runs the same
//! lightweight networks through the from-scratch Rust stack; absolute
//! numbers are far smaller (no Python dispatch), but the *relative*
//! ordering — value nets cheapest, DDPG's actor heavier, SAC's sampled
//! policy heaviest — and the paper's conclusion (inference cost ≫ what a
//! microsecond-scale request could tolerate on a per-request basis in the
//! authors' setting) are what matter.

use deeppower_drl::{Ddpg, DdpgConfig, Dqn, DqnConfig, Sac, SacConfig};
use std::hint::black_box;
use std::time::Instant;

fn time_ns(f: &mut dyn FnMut(), iters: u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Time every network in `ROUNDS` interleaved rounds, rotating which one
/// goes first. Returns each network's per-round times in ns, so shape
/// checks can take the median of per-round ratios: one round's pair
/// shares the host's state of the moment, which a single long loop per
/// network does not.
fn interleaved_rounds(nets: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    const ROUNDS: usize = 15;
    const ITERS: u32 = 5_000;
    for f in nets.iter_mut() {
        time_ns(*f, 1_000); // warm up
    }
    let n = nets.len();
    let mut times = vec![Vec::with_capacity(ROUNDS); n];
    for round in 0..ROUNDS {
        for k in 0..n {
            let i = (round + k) % n;
            times[i].push(time_ns(nets[i], ITERS));
        }
    }
    times
}

fn main() {
    let state = [0.3f32, 0.1, 0.7, 0.2, 0.0, 0.4, 0.9, 0.5];

    let dqn = Dqn::new(DqnConfig {
        state_dim: 8,
        n_actions: 16,
        ..Default::default()
    });
    let ddqn = Dqn::new(DqnConfig {
        state_dim: 8,
        n_actions: 16,
        ..Default::default()
    });
    let ddpg = Ddpg::new(DdpgConfig {
        state_dim: 8,
        action_dim: 2,
        ..Default::default()
    });
    let mut sac = Sac::new(SacConfig {
        state_dim: 8,
        action_dim: 2,
        ..Default::default()
    });

    let mut dqn_act = || {
        black_box(dqn.act(black_box(&state)));
    };
    let mut ddqn_act = || {
        black_box(ddqn.act(black_box(&state)));
    };
    let mut ddpg_act = || {
        black_box(ddpg.act(black_box(&state)));
    };
    // SAC's stochastic action (sampling + tanh-squash + log-prob machinery)
    // is the path the paper's 472 µs reflects.
    let mut sac_act = || {
        black_box(sac.act_explore(black_box(&state)));
    };
    let times = interleaved_rounds(&mut [&mut dqn_act, &mut ddqn_act, &mut ddpg_act, &mut sac_act]);
    let ratio =
        |a: usize, b: usize| median(times[a].iter().zip(&times[b]).map(|(x, y)| x / y).collect());
    let dqn_over_ddpg = ratio(0, 2);
    let sac_over_dqn = ratio(3, 0);
    let [t_dqn, t_ddqn, t_ddpg, t_sac] = [0, 1, 2, 3].map(|i| median(times[i].clone()));

    println!("# Table 2 — inference time of each DRL algorithm\n");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "", "DQN", "DDQN", "DDPG", "SAC"
    );
    println!(
        "{:<22} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
        "paper (us, PyTorch)", 125.0, 140.0, 231.0, 472.0
    );
    println!(
        "{:<22} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
        "this repo (us, Rust)",
        t_dqn / 1e3,
        t_ddqn / 1e3,
        t_ddpg / 1e3,
        t_sac / 1e3
    );

    // Shape check: the plain value nets are the cheapest, DDPG's two-head
    // actor costs more — as in the paper. Honest deviation: the paper's
    // SAC is the slowest of the four (472 µs), which reflects PyTorch's
    // per-op dispatch over SAC's extra sampling machinery; in this
    // compiled stack SAC's *policy network* is smaller than DDPG's
    // two-head actor, so SAC lands between DQN and DDPG instead.
    // Each check reads the median of the per-round ratios.
    assert!(
        dqn_over_ddpg <= 1.2,
        "DQN should not be slower than DDPG ({dqn_over_ddpg:.3}x)"
    );
    assert!(
        sac_over_dqn >= 1.0,
        "SAC should not beat the plain value net ({sac_over_dqn:.3}x)"
    );
    println!(
        "\n[shape OK] value nets cheapest, actor-based agents heavier (SAC/DDPG order \
         differs from the paper's PyTorch stack — see EXPERIMENTS.md)"
    );
    println!(
        "conclusion unchanged: even at ~{:.1} us, per-request inference at 1M RPS would consume \
         multiple dedicated cores; hierarchical control avoids it entirely",
        t_ddpg / 1e3
    );
}
