//! Measurement: per-request records, latency percentiles, run counters,
//! and the switch for the engine's high-volume per-core events. The
//! paper's per-core figures read those events from a telemetry recorder
//! (see `Server::run_recorded`); nothing here samples on a timer.

use crate::clock::Nanos;
use serde::{Deserialize, Serialize};

/// Completion record for one request.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    pub id: u64,
    pub arrival: Nanos,
    pub started: Nanos,
    pub completed: Nanos,
    /// End-to-end latency, the quantity the SLA constrains (§4.3:
    /// "Latency is defined as the time between when a request arrives at
    /// the server and when it is sent back"). For a retried request this
    /// is measured from the client's *first* submission
    /// (`Request::client_arrival`), matching how the client perceives
    /// it; for first attempts it equals `completed - arrival`.
    pub latency: Nanos,
    pub timed_out: bool,
}

/// Aggregate latency statistics over a set of records.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    pub count: u64,
    pub mean_ns: f64,
    pub p50_ns: Nanos,
    pub p95_ns: Nanos,
    pub p99_ns: Nanos,
    pub max_ns: Nanos,
    pub timeouts: u64,
}

impl LatencyStats {
    /// Compute stats from records: copies the latencies into one buffer
    /// and hands it to [`from_latencies`](Self::from_latencies).
    pub fn from_records(records: &[RequestRecord]) -> Self {
        let mut lat: Vec<Nanos> = records.iter().map(|r| r.latency).collect();
        let timeouts = records.iter().filter(|r| r.timed_out).count() as u64;
        Self::from_latencies(&mut lat, timeouts)
    }

    /// Compute stats from raw latencies plus a timeout count. The
    /// nearest-rank p50/p95/p99 equal [`percentile_sorted`] over the
    /// sorted latencies, but come from three nested
    /// `select_nth_unstable` partitions (expected O(n)) instead of a
    /// full sort; `lat` is left partially reordered.
    pub fn from_latencies(lat: &mut [Nanos], timeouts: u64) -> Self {
        if lat.is_empty() {
            return Self::default();
        }
        let n = lat.len();
        let sum: u128 = lat.iter().map(|&x| x as u128).sum();
        let max_ns = *lat.iter().max().expect("non-empty");
        // Select the largest rank first; every smaller rank then lies in
        // the partition to its left, which shrinks for the next select.
        let (i50, i95, i99) = (
            nearest_rank(n, 0.50) - 1,
            nearest_rank(n, 0.95) - 1,
            nearest_rank(n, 0.99) - 1,
        );
        let p99_ns = *lat.select_nth_unstable(i99).1;
        let p95_ns = *lat[..=i99].select_nth_unstable(i95).1;
        let p50_ns = *lat[..=i95].select_nth_unstable(i50).1;
        Self {
            count: n as u64,
            mean_ns: sum as f64 / n as f64,
            p50_ns,
            p95_ns,
            p99_ns,
            max_ns,
            timeouts,
        }
    }

    /// Fraction of requests that violated their SLA.
    pub fn timeout_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.timeouts as f64 / self.count as f64
        }
    }

    /// The paper's Fig. 7c "mean/tail rate": mean latency ÷ p99 latency.
    /// Higher is better — it means short requests are not being dragged up
    /// to tail speed (i.e. the policy slows down only where it is safe).
    pub fn mean_tail_ratio(&self) -> f64 {
        if self.p99_ns == 0 {
            0.0
        } else {
            self.mean_ns / self.p99_ns as f64
        }
    }
}

/// Nearest-rank percentile on a sorted slice.
pub fn percentile_sorted(sorted: &[Nanos], q: f64) -> Nanos {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// One-based nearest rank of quantile `q` among `n` values.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// What the engine emits per core into an enabled recorder. Off by
/// default: a 360 s run at 1 ms ticks × 20 cores can carry millions of
/// frequency transitions, and only the per-core figures need them.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceConfig {
    /// Emit [`FreqTransition`] on every applied frequency change and
    /// [`RequestDispatch`]/[`RequestComplete`] marks per request
    /// (Fig. 4's green/blue marks).
    ///
    /// [`FreqTransition`]: deeppower_telemetry::event::FreqTransition
    /// [`RequestDispatch`]: deeppower_telemetry::event::RequestDispatch
    /// [`RequestComplete`]: deeppower_telemetry::event::RequestComplete
    pub events: bool,
}

/// Accumulates per-request records and counters during a run.
#[derive(Clone, Debug, Default)]
pub(crate) struct MetricsCollector {
    pub records: Vec<RequestRecord>,
    pub arrived: u64,
    pub completed: u64,
    pub timeouts: u64,
    /// Count of actual frequency transitions applied (a commanded value
    /// equal to the current one is not a transition).
    pub freq_transitions: u64,
    /// Deepest the queue ever got (the open-loop engine's queue is
    /// unbounded, so this is the only backpressure signal a plain run
    /// surfaces).
    pub peak_queue_depth: u64,
}

impl MetricsCollector {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn on_arrival(&mut self) {
        self.arrived += 1;
    }

    /// Track the queue's high-water mark after a push.
    pub(crate) fn observe_queue_depth(&mut self, depth: usize) {
        self.peak_queue_depth = self.peak_queue_depth.max(depth as u64);
    }

    pub(crate) fn on_completion(&mut self, rec: RequestRecord) {
        self.completed += 1;
        if rec.timed_out {
            self.timeouts += 1;
        }
        self.records.push(rec);
    }

    pub(crate) fn stats(&self) -> LatencyStats {
        LatencyStats::from_records(&self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(latency: Nanos, timed_out: bool) -> RequestRecord {
        RequestRecord {
            id: 0,
            arrival: 0,
            started: 0,
            completed: latency,
            latency,
            timed_out,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<Nanos> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile_sorted(&[42], 0.99), 42);
    }

    #[test]
    fn stats_from_records() {
        let records: Vec<RequestRecord> = (1..=100).map(|i| rec(i * 1000, i > 99)).collect();
        let s = LatencyStats::from_records(&records);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 50_000);
        assert_eq!(s.p99_ns, 99_000);
        assert_eq!(s.max_ns, 100_000);
        assert_eq!(s.timeouts, 1);
        assert!((s.timeout_rate() - 0.01).abs() < 1e-12);
        assert!((s.mean_ns - 50_500.0).abs() < 1e-6);
    }

    #[test]
    fn mean_tail_ratio_sane() {
        // Uniform latencies → mean/p99 near 0.5; constant latencies → 1.0.
        let uniform: Vec<RequestRecord> = (1..=1000).map(|i| rec(i, false)).collect();
        let s = LatencyStats::from_records(&uniform);
        assert!((s.mean_tail_ratio() - 0.5).abs() < 0.02);
        let constant: Vec<RequestRecord> = (0..100).map(|_| rec(777, false)).collect();
        assert!((LatencyStats::from_records(&constant).mean_tail_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_records_yield_zero_stats() {
        let s = LatencyStats::from_records(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.timeout_rate(), 0.0);
        assert_eq!(s.mean_tail_ratio(), 0.0);
    }

    #[test]
    fn collector_counts() {
        let mut c = MetricsCollector::new();
        c.on_arrival();
        c.on_arrival();
        c.on_completion(rec(10, false));
        c.on_completion(rec(20, true));
        assert_eq!(c.arrived, 2);
        assert_eq!(c.completed, 2);
        assert_eq!(c.timeouts, 1);
        assert_eq!(c.stats().count, 2);
    }

    #[test]
    fn percentile_empty_slice_panics() {
        assert!(std::panic::catch_unwind(|| percentile_sorted(&[], 0.5)).is_err());
    }

    #[test]
    fn percentile_out_of_range_quantile_panics() {
        assert!(std::panic::catch_unwind(|| percentile_sorted(&[1], 1.5)).is_err());
        assert!(std::panic::catch_unwind(|| percentile_sorted(&[1], -0.1)).is_err());
    }

    mod percentile_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// p=0 is the minimum, p=1 the maximum, any p within range.
            #[test]
            fn boundaries_hit_extremes(
                values in proptest::collection::vec(0u64..1_000_000, 1..100),
                q in 0.0f64..1.0,
            ) {
                let mut sorted = values;
                sorted.sort_unstable();
                prop_assert_eq!(percentile_sorted(&sorted, 0.0), sorted[0]);
                prop_assert_eq!(percentile_sorted(&sorted, 1.0), *sorted.last().unwrap());
                let p = percentile_sorted(&sorted, q);
                prop_assert!(p >= sorted[0] && p <= *sorted.last().unwrap());
            }

            /// Monotone in the quantile.
            #[test]
            fn monotone_in_q(
                values in proptest::collection::vec(0u64..1_000_000, 1..100),
                q1 in 0.0f64..1.0,
                q2 in 0.0f64..1.0,
            ) {
                let mut sorted = values;
                sorted.sort_unstable();
                let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
                prop_assert!(percentile_sorted(&sorted, lo) <= percentile_sorted(&sorted, hi));
            }

            /// A single element is every percentile.
            #[test]
            fn single_element_is_every_percentile(v in 0u64..1_000_000, q in 0.0f64..1.0) {
                prop_assert_eq!(percentile_sorted(&[v], q), v);
            }

            /// All-ties: every percentile is the tied value.
            #[test]
            fn ties_collapse(v in 0u64..1_000_000, n in 1usize..50, q in 0.0f64..1.0) {
                let sorted = vec![v; n];
                prop_assert_eq!(percentile_sorted(&sorted, q), v);
            }
        }
    }

    mod monitor_merge_props {
        use deeppower_telemetry::{Event, FleetMonitor, Histogram, MonitorConfig, WindowRollup};
        use proptest::prelude::*;

        proptest! {
            /// When a single monitor window spans the whole run, the
            /// fleet-merged window stats equal one whole-run histogram
            /// exactly: rebuilding from per-node bucket (upper-bound,
            /// count) pairs preserves per-bucket counts, and both clamp
            /// percentiles to the exact extremes.
            #[test]
            fn fleet_merged_window_matches_whole_run_histogram(
                lats in proptest::collection::vec(1u64..50_000_000, 1..200),
                nodes in 1u64..4,
            ) {
                let mut whole = Histogram::new();
                let mut whole_timeouts = 0u64;
                let mut hists: Vec<Histogram> =
                    (0..nodes).map(|_| Histogram::new()).collect();
                let mut timeouts = vec![0u64; nodes as usize];
                for (i, &lat) in lats.iter().enumerate() {
                    let timed_out = lat % 5 == 0;
                    whole.record(lat);
                    let n = (i as u64 % nodes) as usize;
                    hists[n].record(lat);
                    if timed_out {
                        whole_timeouts += 1;
                        timeouts[n] += 1;
                    }
                }
                const WINDOW: u64 = 1_000_000_000;
                let mut mon = FleetMonitor::new(MonitorConfig::default());
                for n in 0..nodes as usize {
                    if hists[n].count() == 0 {
                        continue;
                    }
                    let roll = WindowRollup::from_histogram(
                        WINDOW, 0, WINDOW, &hists[n], timeouts[n], 1.0, 1000.0, 0);
                    mon.observe(n as u64, &Event::WindowRollup(roll));
                }
                let report = mon.finish();
                prop_assert_eq!(report.window_series.len(), 1);
                let w = &report.window_series[0];
                prop_assert_eq!(w.count, whole.count());
                prop_assert_eq!(w.timeouts, whole_timeouts);
                prop_assert_eq!(w.max_ns, whole.max());
                prop_assert_eq!(w.p50_ns, whole.percentile(0.50));
                prop_assert_eq!(w.p95_ns, whole.percentile(0.95));
                prop_assert_eq!(w.p99_ns, whole.percentile(0.99));
                prop_assert!(
                    (w.mean_ns - whole.mean()).abs() <= 1e-6 * whole.mean().max(1.0));
            }
        }
    }
}
