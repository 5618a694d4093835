//! Property-based invariants spanning the workload generator, the
//! simulator engine, and the controller — the cross-crate contracts every
//! experiment depends on.

use deeppower_suite::deeppower::{ControllerParams, ThreadController};
use deeppower_suite::sim::{
    ContentionModel, FixedFrequency, FreqPlan, PowerModel, Request, RunOptions, Server,
    ServerConfig, MILLISECOND, SECOND,
};
use deeppower_suite::workload::{constant_rate_arrivals, App, AppSpec};
use proptest::prelude::*;

fn arb_app() -> impl Strategy<Value = App> {
    prop_oneof![
        Just(App::Xapian),
        Just(App::Masstree),
        Just(App::Moses),
        Just(App::ImgDnn),
    ]
}

fn server(n_cores: usize) -> Server {
    Server::new(ServerConfig {
        n_cores,
        freq_plan: FreqPlan::xeon_gold_5218r(),
        power: PowerModel::default(),
        contention: ContentionModel::default(),
        initial_mhz: 2100,
        core_max_mhz: Vec::new(),
        cstates: deeppower_suite::sim::CStatePlan::none(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every generated request completes exactly once; latency is bounded
    /// below by the uncontended max-frequency service time.
    #[test]
    fn conservation_and_latency_floor(
        app in arb_app(),
        seed in 0u64..1000,
        load in 0.1f64..0.6,
        fixed_mhz_idx in 0usize..14,
    ) {
        let spec = AppSpec::get(app);
        let plan = FreqPlan::xeon_gold_5218r();
        let mhz = plan.levels_mhz[fixed_mhz_idx];
        let srv = server(4);
        let arrivals = constant_rate_arrivals(&spec, spec.rps_for_load(load).min(2000.0), SECOND, seed);
        prop_assume!(!arrivals.is_empty());
        let mut gov = FixedFrequency { mhz };
        let res = srv.run(&arrivals, &mut gov, RunOptions::default());

        prop_assert_eq!(res.stats.count as usize, arrivals.len());
        // Latency floor: the request's own work at the reference frequency
        // (actual run is at mhz <= reference, contended, possibly queued).
        for rec in &res.records {
            let req = arrivals.iter().find(|r| r.id == rec.id).unwrap();
            prop_assert!(
                rec.latency + 2 >= req.work_ref_ns,
                "latency {} below intrinsic work {}", rec.latency, req.work_ref_ns
            );
            prop_assert!(rec.started >= rec.arrival);
            prop_assert!(rec.completed > rec.started);
        }
    }

    /// Energy is bracketed by (idle power × duration, max power × duration)
    /// and the run is deterministic under a repeated seed.
    #[test]
    fn energy_bounds_and_determinism(
        seed in 0u64..500,
        load in 0.1f64..0.5,
    ) {
        let spec = AppSpec::get(App::Xapian);
        let srv = server(8);
        let arrivals = constant_rate_arrivals(&spec, spec.rps_for_load(load).min(3000.0), SECOND, seed);
        prop_assume!(!arrivals.is_empty());
        let run = |g: &mut FixedFrequency| srv.run(&arrivals, g, RunOptions::default());
        let a = run(&mut FixedFrequency { mhz: 1500 });
        let b = run(&mut FixedFrequency { mhz: 1500 });
        prop_assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits(), "nondeterministic energy");

        let model = PowerModel::default();
        let dur_s = a.duration_ns as f64 * 1e-9;
        let min_p = model.socket_power_w((0..8).map(|_| (800u32, false)));
        let max_p = model.socket_power_w((0..8).map(|_| (3000u32, true)));
        prop_assert!(a.energy_j >= min_p * dur_s * 0.5, "energy below plausible floor");
        prop_assert!(a.energy_j <= max_p * dur_s * 1.001, "energy above physical ceiling");
    }

    /// Running the same workload at a strictly higher fixed frequency never
    /// increases any request's latency (no anomalies in the engine's
    /// progress math).
    #[test]
    fn higher_frequency_never_hurts_latency(
        seed in 0u64..300,
    ) {
        let spec = AppSpec::get(App::Xapian);
        let srv = Server::new(ServerConfig {
            contention: ContentionModel::none(),
            ..ServerConfig::paper_default(2)
        });
        let arrivals = constant_rate_arrivals(&spec, 300.0, SECOND / 2, seed);
        prop_assume!(arrivals.len() > 3);
        let slow = srv.run(&arrivals, &mut FixedFrequency { mhz: 1000 }, RunOptions::default());
        let fast = srv.run(&arrivals, &mut FixedFrequency { mhz: 2100 }, RunOptions::default());
        let lat = |r: &deeppower_suite::sim::SimResult, id: u64| {
            r.records.iter().find(|x| x.id == id).unwrap().latency
        };
        for req in &arrivals {
            prop_assert!(
                lat(&fast, req.id) <= lat(&slow, req.id) + 2,
                "request {} got slower at higher frequency", req.id
            );
        }
    }

    /// The thread controller's score is monotone in both elapsed time and
    /// each of its two parameters.
    #[test]
    fn controller_score_monotonicity(
        base in 0.0f32..1.0,
        coef in 0.0f32..1.0,
        consumed in 0.0f32..2.0,
        d in 0.001f32..0.5,
    ) {
        let tc = ThreadController::new(ControllerParams::new(base, coef));
        prop_assert!(tc.score(consumed + d) >= tc.score(consumed));
        let tc_hi = ThreadController::new(ControllerParams::new((base + d).min(1.0), coef));
        prop_assert!(tc_hi.score(consumed) >= tc.score(consumed));
        let tc_coef = ThreadController::new(ControllerParams::new(base, coef + d));
        prop_assert!(tc_coef.score(consumed) >= tc.score(consumed));
    }

    /// Timeout accounting matches first principles: a record is flagged iff
    /// its latency exceeds the SLA.
    #[test]
    fn timeout_flags_consistent(seed in 0u64..300) {
        let spec = AppSpec::get(App::Masstree);
        let srv = server(2);
        let arrivals = constant_rate_arrivals(&spec, 4000.0, SECOND / 4, seed);
        prop_assume!(!arrivals.is_empty());
        let mut gov = FixedFrequency { mhz: 800 }; // slow: force some timeouts
        let res = srv.run(&arrivals, &mut gov, RunOptions::default());
        for rec in &res.records {
            prop_assert_eq!(rec.timed_out, rec.latency > spec.sla);
        }
        let flagged = res.records.iter().filter(|r| r.timed_out).count() as u64;
        prop_assert_eq!(flagged, res.stats.timeouts);
    }
}

#[test]
fn controller_under_overload_eventually_turbos_every_busy_core() {
    // Deterministic scenario rather than proptest: saturate one core with a
    // request that cannot finish before its SLA; the controller must push
    // it to turbo once the score crosses 1.
    let srv = server(1);
    let req = Request {
        id: 0,
        client_id: 0,
        attempt: 0,
        arrival: 0,
        first_arrival: 0,
        work_ref_ns: 40 * MILLISECOND,
        freq_sensitivity: 1.0,
        sla: 10 * MILLISECOND,
        features: Default::default(),
    };
    let mut tc = ThreadController::new(ControllerParams::new(0.0, 1.5));
    let res = srv.run(
        &[req],
        &mut tc,
        RunOptions {
            tick_ns: MILLISECOND,
            trace: deeppower_suite::sim::TraceConfig::millisecond(),
            ..Default::default()
        },
    );
    let max_f = res.traces.freq.iter().map(|&(_, _, f)| f).max().unwrap();
    assert_eq!(max_f, FreqPlan::xeon_gold_5218r().turbo_mhz);
}
