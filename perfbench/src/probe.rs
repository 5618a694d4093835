//! Outside-in layer accounting: self time, call counts and heap
//! allocations per layer, collected from the benchmark's own calls into
//! each crate's public functions.
//!
//! [`scope`] times one call into a layer. Scopes nest: time spent in an
//! inner scope (a governor tick inside the engine's event loop, a
//! telemetry sink call inside it) is taken out of the outer layer's self
//! time, so the layer times add up to the wall time they cover. The
//! counting [`GlobalAlloc`] charges every allocation to the layer whose
//! scope is open.
//!
//! The state is process-global and meant for the single-threaded traced
//! run; anything run on other threads is charged to whatever layer the
//! main thread has open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// The layers the breakdown splits host time into, named by crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Benchmark code outside every layer (the unaccounted remainder).
    Bench,
    /// `workload`: arrival generation.
    Workload,
    /// `fleet::balancer`: the arrival split.
    Balancer,
    /// `simd-server`: `Session::advance_until`, less nested scopes.
    Engine,
    /// `simd-server`: `Session::finish`.
    EngineFinish,
    /// `core`: governor hooks called from the engine.
    Governor,
    /// `core::StateObserver` over each node's view.
    Observe,
    /// `fleet::Coordinator::act`.
    Act,
    /// `telemetry`: sink calls made from the engine.
    Telemetry,
    /// `telemetry`: `FleetMonitor::finish`.
    TelemetryFinish,
}

pub const N_LAYERS: usize = 10;

const HIST_BUCKETS: usize = 64 * 8;

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_I: AtomicI64 = AtomicI64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U: AtomicU64 = AtomicU64::new(0);

static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// Heap bytes live now, live at [`start_peak`], and the most live
/// since.
static LIVE: AtomicI64 = AtomicI64::new(0);
static BASE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static SELF_NS: [AtomicI64; N_LAYERS] = [ZERO_I; N_LAYERS];
static CALLS: [AtomicU64; N_LAYERS] = [ZERO_U; N_LAYERS];
static ALLOCS: [AtomicU64; N_LAYERS] = [ZERO_U; N_LAYERS];
/// Log-linear histogram of governor tick durations (ns): 8 sub-buckets
/// per power of two.
static TICK_HIST: [AtomicU64; HIST_BUCKETS] = [ZERO_U; HIST_BUCKETS];

/// Allocation counter wrapped around the system allocator.
pub struct CountingAlloc;

#[inline]
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only extra work is
// relaxed atomic counting, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS[CURRENT.load(Relaxed)].fetch_add(1, Relaxed);
        grow(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS[CURRENT.load(Relaxed)].fetch_add(1, Relaxed);
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS[CURRENT.load(Relaxed)].fetch_add(1, Relaxed);
        LIVE.fetch_sub(layout.size() as i64, Relaxed);
        grow(new_size);
        // SAFETY: `ptr` was allocated by this allocator, which is
        // `System` underneath, with `layout`; the caller guarantees
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Start a new heap high-water mark at the bytes live now.
pub fn start_peak() {
    let live = LIVE.load(Relaxed);
    BASE.store(live, Relaxed);
    PEAK.store(live, Relaxed);
}

/// Most heap bytes allocated on top of those live at [`start_peak`].
pub fn peak_bytes() -> u64 {
    (PEAK.load(Relaxed) - BASE.load(Relaxed)).max(0) as u64
}

/// Run `f` as a call into `layer`: its duration counts to `layer`'s
/// self time and out of the enclosing layer's, and allocations made
/// inside are charged to `layer`.
#[inline]
pub fn scope<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let (out, _) = timed(layer, f);
    out
}

/// [`scope`] for a governor tick, which also lands in the tick-time
/// histogram.
#[inline]
pub fn tick<T>(f: impl FnOnce() -> T) -> T {
    let (out, ns) = timed(Layer::Governor, f);
    TICK_HIST[bucket(ns)].fetch_add(1, Relaxed);
    out
}

#[inline]
fn timed<T>(layer: Layer, f: impl FnOnce() -> T) -> (T, u64) {
    let prev = CURRENT.swap(layer as usize, Relaxed);
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    CURRENT.store(prev, Relaxed);
    SELF_NS[layer as usize].fetch_add(ns as i64, Relaxed);
    SELF_NS[prev].fetch_sub(ns as i64, Relaxed);
    CALLS[layer as usize].fetch_add(1, Relaxed);
    (out, ns)
}

fn bucket(ns: u64) -> usize {
    if ns < 8 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros() as usize;
    let sub = ((ns >> (exp - 3)) & 7) as usize;
    ((exp - 2) * 8 + sub).min(HIST_BUCKETS - 1)
}

/// Lower edge of histogram bucket `b`, in ns.
fn bucket_floor(b: usize) -> u64 {
    if b < 8 {
        return b as u64;
    }
    let exp = b / 8 + 2;
    let sub = (b % 8) as u64;
    (8 + sub) << (exp - 3)
}

/// Everything the probes collected since the last [`reset`].
#[derive(Debug)]
pub struct Snapshot {
    pub self_ns: [i64; N_LAYERS],
    pub calls: [u64; N_LAYERS],
    pub allocs: [u64; N_LAYERS],
    tick_hist: Vec<u64>,
}

impl Snapshot {
    pub fn ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e6
    }

    pub fn ns(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    pub fn allocs(&self, layer: Layer) -> u64 {
        self.allocs[layer as usize]
    }

    /// Summed self time of every named layer (all but [`Layer::Bench`]).
    pub fn layers_ns(&self) -> f64 {
        self.self_ns[1..].iter().map(|&n| n as f64).sum()
    }

    /// Governor ticks timed (other governor hooks excluded).
    pub fn ticks(&self) -> u64 {
        self.tick_hist.iter().sum()
    }

    /// The `q`-quantile of governor tick time, ns (lower bucket edge;
    /// buckets are an eighth of an octave wide). 0 with no ticks.
    pub fn tick_quantile_ns(&self, q: f64) -> f64 {
        let total: u64 = self.tick_hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (b, &c) in self.tick_hist.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(b) as f64;
            }
        }
        unreachable!("rank {rank} lies within the {total} recorded ticks")
    }
}

/// Zero every probe and make [`Layer::Bench`] the open layer.
pub fn reset() {
    CURRENT.store(Layer::Bench as usize, Relaxed);
    for a in SELF_NS.iter() {
        a.store(0, Relaxed);
    }
    for a in CALLS.iter().chain(&ALLOCS).chain(&TICK_HIST) {
        a.store(0, Relaxed);
    }
}

pub fn snapshot() -> Snapshot {
    let load = |a: &[AtomicU64; N_LAYERS]| std::array::from_fn(|i| a[i].load(Relaxed));
    Snapshot {
        self_ns: std::array::from_fn(|i| SELF_NS[i].load(Relaxed)),
        calls: load(&CALLS),
        allocs: load(&ALLOCS),
        tick_hist: TICK_HIST.iter().map(|a| a.load(Relaxed)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_floors_round_trip() {
        let mut last = 0;
        for ns in [0u64, 1, 7, 8, 9, 15, 16, 100, 1_000, 65_535, 1 << 40] {
            let b = bucket(ns);
            assert!(b >= last, "bucket order broke at {ns}");
            assert!(bucket_floor(b) <= ns, "floor above value at {ns}");
            assert_eq!(bucket(bucket_floor(b)), b);
            last = b;
        }
    }
}
