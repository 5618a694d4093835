//! The open-loop request path does not allocate per request: a node's
//! event loop makes the same number of heap allocations for N and for
//! 2N arrivals, and generating plus splitting a fleet's arrivals costs
//! allocations in proportion to the node count, not the request count.
//! The request tracer's hooks do not allocate per chain either: only
//! the traces it emits do, and what it holds does not grow with the
//! window. The learning path allocates nothing once warm: a DDPG
//! update, a fleet coordinator's batched act, and Gemini's per-request
//! service-time prediction all reuse their buffers.
//!
//! Allocations are counted by a `#[global_allocator]` that charges each
//! one to the allocating thread, so tests running in parallel do not
//! see each other's allocations.

use deeppower_fleet::{
    fleet_arrivals, split_arrivals, untrained_policy, BalancerPolicy, Coordinator, FleetSpec,
};
use deeppower_suite::baselines::{collect_profile, GeminiConfig, GeminiGovernor};
use deeppower_suite::deeppower::{ControllerParams, ThreadController, STATE_DIM};
use deeppower_suite::drl::{Ddpg, DdpgConfig, Transition};
use deeppower_suite::nn::Matrix;
use deeppower_suite::sim::{
    FreqCommands, FreqPlan, Governor, Nanos, Request, RunOptions, Server, ServerConfig, ServerView,
    SECOND,
};
use deeppower_suite::workload::{constant_rate_arrivals, App, AppSpec};
use deeppower_telemetry::{Recorder, RequestTracer, ShedReason, TracePlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct PerThreadCount;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown go uncounted
    // rather than panicking inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`;
// the only extra work is a thread-local counter bump, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for PerThreadCount {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: PerThreadCount = PerThreadCount;

/// Allocations `f` makes on the calling thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Allocations inside `advance_until` for a `cfg` node serving
/// `arrivals` open loop under `gov`, with a disabled recorder. The
/// session (and its record buffer) is built outside the counted region.
/// Also returns the node's peak queue depth.
fn engine_allocs(cfg: ServerConfig, gov: &mut dyn Governor, arrivals: &[Request]) -> (u64, u64) {
    let server = Server::new(cfg);
    let rec = Recorder::disabled();
    let mut session = server.session(arrivals, gov, RunOptions::default(), &rec);
    let (allocs, done) = counted(|| session.advance_until(Nanos::MAX));
    assert!(done, "an unbounded advance runs to termination");
    let res = session.finish();
    assert_eq!(res.records.len(), arrivals.len(), "every arrival completes");
    (allocs, res.peak_queue_depth)
}

/// Assert that `app` at `load`, served open loop on a `cfg` node under
/// the governor `make_gov` builds, allocates as often for N arrivals as
/// for 2N.
fn assert_engine_allocations_flat(
    app: App,
    load: f64,
    cfg: impl Fn() -> ServerConfig,
    make_gov: impl Fn() -> Box<dyn Governor>,
) {
    let spec = AppSpec::get(app);
    let all = constant_rate_arrivals(&spec, spec.rps_for_load(load), 2 * SECOND, 5);
    let n = all.len() / 2;
    assert!(n > 10_000, "too few arrivals to tell: {n}");
    // The N-run is a prefix of the 2N-run, so the only difference is
    // N more requests through the same path.
    let (half, half_peak) = engine_allocs(cfg(), make_gov().as_mut(), &all[..n]);
    let (full, full_peak) = engine_allocs(cfg(), make_gov().as_mut(), &all[..2 * n]);
    // What may still allocate grows with the deepest backlog (the
    // queue's buffer), never with the request count.
    assert_eq!(
        half,
        full,
        "advance_until made {half} allocations for {n} arrivals (peak queue \
         {half_peak}) but {full} for {} (peak queue {full_peak})",
        2 * n
    );
}

#[test]
fn engine_allocations_do_not_grow_with_arrivals() {
    assert_engine_allocations_flat(
        App::Masstree,
        0.3,
        || ServerConfig::paper_default(AppSpec::get(App::Masstree).n_threads),
        || Box::new(ThreadController::new(ControllerParams::default())),
    );
}

/// Commands every core at each tick, alternating between two
/// frequencies, and sends every idle core to the deepest C-state, so
/// each tick changes every core's frequency and power term.
struct CommandEveryCore {
    high: bool,
}

impl Governor for CommandEveryCore {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        self.high = !self.high;
        let mhz = if self.high { 2100 } else { 1500 };
        for (i, core) in view.cores.iter().enumerate() {
            cmds.set(i, mhz);
            if !core.busy() {
                cmds.set_sleep(i, 1);
            }
        }
    }
}

#[test]
fn per_core_commands_and_sleep_allocate_nothing_per_request() {
    let cores = AppSpec::get(App::Xapian).n_threads;
    assert_engine_allocations_flat(
        App::Xapian,
        0.5,
        || ServerConfig::paper_with_cstates(cores),
        || Box::new(CommandEveryCore { high: false }),
    );
}

#[test]
fn fleet_arrival_split_allocates_per_node_not_per_request() {
    let nodes = 4;
    for policy in BalancerPolicy::all() {
        let spec = FleetSpec::uniform(App::Masstree, nodes, policy, 3, 0.2, 1);
        let (gen_allocs, arrivals) = counted(|| fleet_arrivals(&spec));
        let caps = spec.capacities();
        let (split_allocs, streams) = counted(|| split_arrivals(&arrivals, &caps, policy));
        assert!(arrivals.len() > 20_000, "too few arrivals to tell");
        assert_eq!(
            streams.iter().map(Vec::len).sum::<usize>(),
            arrivals.len(),
            "every request lands on one node"
        );
        // Generation grows one output buffer (a logarithmic number of
        // reallocations); the split sizes each node stream exactly.
        assert!(
            gen_allocs <= 64,
            "{}: fleet_arrivals made {gen_allocs} allocations for {} requests",
            policy.label(),
            arrivals.len()
        );
        assert!(
            split_allocs <= nodes as u64 + 8,
            "{}: split_arrivals made {split_allocs} allocations for {nodes} nodes",
            policy.label()
        );
    }
}

/// One tumbling window of tracer traffic: `chains` retry-storm chains
/// (shed, retry, abandon, wasted completion, retry completes) and as
/// many clean completions, with ids from `base`, then the window roll.
fn trace_window(tracer: &mut RequestTracer, rec: &Recorder, base: u64, chains: u64) {
    const SLA: u64 = 1_000;
    for i in 0..chains {
        let t = 10_000 * i;
        let storm = base + 4 * i;
        let (retry1, retry2, clean) = (storm + 1, storm + 2, storm + 3);
        tracer.on_offer(t, storm, storm, 0, t, SLA);
        tracer.on_shed(t, storm, ShedReason::QueueFull);
        tracer.on_offer(t + 100, retry1, storm, 1, t, SLA);
        tracer.on_abandon(t + 300, retry1, 200);
        tracer.on_dispatch(t + 350, retry1, 0, 2100, 1.0);
        tracer.on_offer(t + 500, retry2, storm, 2, t, SLA);
        tracer.on_complete(t + 600, retry1, true, rec);
        tracer.on_dispatch(t + 650, retry2, 1, 2100, 1.0);
        tracer.on_complete(t + 900, retry2, false, rec);

        tracer.on_offer(t, clean, clean, 0, t, SLA);
        tracer.on_dispatch(t + 10, clean, 2, 2100, 1.0);
        tracer.on_complete(t + 200, clean, false, rec);
    }
    let exemplars = tracer.roll(rec);
    assert_eq!(exemplars.len(), 2, "the two slowest storm chains");
}

#[test]
fn tracer_hooks_allocate_per_emitted_trace_not_per_chain() {
    // No head sampling: every window emits exactly its two tail
    // exemplars, whatever its size.
    let rec = Recorder::ring(16);
    let mut tracer = RequestTracer::new(TracePlan::sampled(0.0, 2, 9), rec.enabled());
    let n = 2_000;
    // Warm up on a small window: the tracer holds only the chains in
    // flight and the exemplar candidates, so its maps reach their
    // working set whatever the window's size.
    trace_window(&mut tracer, &rec, 0, 64);
    let (half, ()) = counted(|| trace_window(&mut tracer, &rec, 1 << 32, n));
    let (full, ()) = counted(|| trace_window(&mut tracer, &rec, 2 << 32, 2 * n));
    assert_eq!(
        half,
        full,
        "a window of {n} chain pairs made {half} allocations, one of {} made {full}",
        2 * n
    );
}

#[test]
fn gemini_prediction_allocates_nothing_per_request() {
    let spec = AppSpec::get(App::Xapian);
    let samples = collect_profile(&spec, 0.3, 2, 31);
    assert_engine_allocations_flat(
        App::Xapian,
        0.5,
        || ServerConfig::paper_default(spec.n_threads),
        || {
            Box::new(GeminiGovernor::train(
                &samples,
                FreqPlan::xeon_gold_5218r(),
                spec.n_threads,
                GeminiConfig::default(),
                5,
            ))
        },
    );
}

#[test]
fn warm_ddpg_update_allocates_nothing() {
    let mut agent = Ddpg::new(DdpgConfig {
        warmup: 0,
        batch_size: 64,
        seed: 3,
        ..Default::default()
    });
    for i in 0..512u32 {
        let v = (i as f32 * 0.37).sin();
        agent.observe(Transition {
            state: vec![v; STATE_DIM],
            action: vec![v.abs(), 1.0 - v.abs()],
            reward: -v,
            next_state: vec![v * 0.9; STATE_DIM],
            done: i % 64 == 63,
        });
    }
    // The first update sizes every buffer; the rest reuse them.
    agent.update();
    let (allocs, diverged) = counted(|| (0..20).any(|_| agent.update().diverged));
    assert!(!diverged, "a diverged update takes the rollback path");
    assert_eq!(allocs, 0, "20 warm DDPG updates made {allocs} allocations");
}

/// An `n × STATE_DIM` state matrix filled from `seed`.
fn fleet_states(n: usize, seed: u32) -> Matrix {
    let data = (0..n * STATE_DIM)
        .map(|i| ((i as u32 * 7 + seed) as f32 * 0.13).sin().abs())
        .collect();
    Matrix::from_vec(n, STATE_DIM, data)
}

#[test]
fn coordinator_act_allocates_nothing_after_its_first_epoch() {
    let (big, little) = (
        untrained_policy(App::Masstree, 1),
        untrained_policy(App::Masstree, 2),
    );
    let mut coordinator = Coordinator::new(vec![vec![0, 2, 5], vec![1, 3, 4]], &[&big, &little]);
    let mut actions = vec![ControllerParams::default(); 6];
    coordinator.act(&fleet_states(6, 0), &mut actions);
    let states: Vec<Matrix> = (1..=10).map(|seed| fleet_states(6, seed)).collect();
    let (allocs, ()) = counted(|| {
        for s in &states {
            coordinator.act(s, &mut actions);
        }
    });
    assert_eq!(allocs, 0, "10 coordinator epochs made {allocs} allocations");
}
