//! The open-loop request path does not allocate per request: a node's
//! event loop makes the same number of heap allocations for N and for
//! 2N arrivals, and generating plus splitting a fleet's arrivals costs
//! allocations in proportion to the node count, not the request count.
//!
//! Allocations are counted by a `#[global_allocator]` that charges each
//! one to the allocating thread, so tests running in parallel do not
//! see each other's allocations.

use deeppower_fleet::{fleet_arrivals, split_arrivals, BalancerPolicy, FleetSpec};
use deeppower_suite::deeppower::{ControllerParams, ThreadController};
use deeppower_suite::sim::{Nanos, Request, RunOptions, Server, ServerConfig, SECOND};
use deeppower_suite::workload::{constant_rate_arrivals, App, AppSpec};
use deeppower_telemetry::Recorder;
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

/// Allocations inside `advance_until` for one Masstree node serving
/// `arrivals` open loop under the DeepPower thread controller, with a
/// disabled recorder. The session (and its record buffer) is built
/// outside the counted region. Also returns the node's peak queue depth.
fn engine_allocs(arrivals: &[Request]) -> (u64, u64) {
    let server = Server::new(ServerConfig::paper_default(
        AppSpec::get(App::Masstree).n_threads,
    ));
    let mut gov = ThreadController::new(ControllerParams::default());
    let rec = Recorder::disabled();
    let mut session = server.session(arrivals, &mut gov, RunOptions::default(), &rec);
    let (allocs, done) = counted(|| session.advance_until(Nanos::MAX));
    assert!(done, "an unbounded advance runs to termination");
    let res = session.finish();
    assert_eq!(res.records.len(), arrivals.len(), "every arrival completes");
    (allocs, res.peak_queue_depth)
}

#[test]
fn engine_allocations_do_not_grow_with_arrivals() {
    let spec = AppSpec::get(App::Masstree);
    let all = constant_rate_arrivals(&spec, spec.rps_for_load(0.3), 2 * SECOND, 5);
    let n = all.len() / 2;
    assert!(n > 10_000, "too few arrivals to tell: {n}");
    // The N-run is a prefix of the 2N-run, so the only difference is
    // N more requests through the same path.
    let (half, half_peak) = engine_allocs(&all[..n]);
    let (full, full_peak) = engine_allocs(&all[..2 * n]);
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
