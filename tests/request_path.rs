//! The value types of the allocation-free request path: inline request
//! [`Features`], and fleet percentiles selected in place by
//! [`LatencyStats::from_latencies`], which must agree exactly with the
//! sort-based nearest-rank definition.

use deeppower_suite::sim::metrics::percentile_sorted;
use deeppower_suite::sim::{Features, LatencyStats, Nanos, RequestRecord, MAX_FEATURES};
use proptest::prelude::*;

/// The reference: sort a copy, then nearest-rank on the sorted slice.
fn sorted_reference(lat: &[Nanos], timeouts: u64) -> LatencyStats {
    let mut sorted = lat.to_vec();
    sorted.sort_unstable();
    let sum: u128 = sorted.iter().map(|&x| x as u128).sum();
    LatencyStats {
        count: sorted.len() as u64,
        mean_ns: sum as f64 / sorted.len() as f64,
        p50_ns: percentile_sorted(&sorted, 0.50),
        p95_ns: percentile_sorted(&sorted, 0.95),
        p99_ns: percentile_sorted(&sorted, 0.99),
        max_ns: *sorted.last().unwrap(),
        timeouts,
    }
}

fn assert_same(got: &LatencyStats, want: &LatencyStats) {
    assert_eq!(got.count, want.count);
    assert_eq!(got.mean_ns.to_bits(), want.mean_ns.to_bits());
    assert_eq!(
        (got.p50_ns, got.p95_ns, got.p99_ns, got.max_ns),
        (want.p50_ns, want.p95_ns, want.p99_ns, want.max_ns)
    );
    assert_eq!(got.timeouts, want.timeouts);
}

fn check(lat: &[Nanos], timeouts: u64) {
    let mut scratch = lat.to_vec();
    let got = LatencyStats::from_latencies(&mut scratch, timeouts);
    assert_same(&got, &sorted_reference(lat, timeouts));
    // Selection only reorders: the buffer still holds the same values.
    scratch.sort_unstable();
    let mut sorted = lat.to_vec();
    sorted.sort_unstable();
    assert_eq!(scratch, sorted);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary latencies, mostly distinct.
    #[test]
    fn select_matches_sort_on_wide_values(
        lat in proptest::collection::vec(0u64..50_000_000, 1..400),
        timeouts in 0u64..10,
    ) {
        check(&lat, timeouts);
    }

    /// Heavy duplication: every rank lands inside runs of equal values.
    #[test]
    fn select_matches_sort_with_duplicates(
        lat in proptest::collection::vec(0u64..4, 1..300),
    ) {
        check(&lat, 0);
    }

    /// Small n, where p50/p95/p99 share ranks (n < 20 puts p95 and p99
    /// on the maximum; n = 1 puts every percentile on the one value).
    #[test]
    fn select_matches_sort_at_small_n(
        lat in proptest::collection::vec(0u64..1_000, 1..21),
    ) {
        check(&lat, 1);
    }
}

#[test]
fn single_latency_is_every_percentile() {
    let s = LatencyStats::from_latencies(&mut [42], 1);
    assert_eq!((s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns), (42, 42, 42, 42));
    assert_eq!((s.count, s.timeouts), (1, 1));
    assert_eq!(s.mean_ns, 42.0);
}

#[test]
fn empty_latencies_yield_zero_stats() {
    let s = LatencyStats::from_latencies(&mut [], 0);
    assert_eq!(s.count, 0);
    assert_eq!(s.p99_ns, 0);
}

#[test]
fn from_records_delegates_to_the_selected_percentiles() {
    let lat: Vec<Nanos> = (0..1000u64).map(|i| (i * 7919) % 1013).collect();
    let records: Vec<RequestRecord> = lat
        .iter()
        .map(|&latency| RequestRecord {
            id: 0,
            arrival: 0,
            started: 0,
            completed: latency,
            latency,
            timed_out: latency > 900,
        })
        .collect();
    let timeouts = lat.iter().filter(|&&l| l > 900).count() as u64;
    assert_same(
        &LatencyStats::from_records(&records),
        &sorted_reference(&lat, timeouts),
    );
}

#[test]
fn features_round_trip_through_from_slice() {
    for xs in [&[][..], &[0.25][..], &[1.5, -2.0][..]] {
        let f = Features::from_slice(xs);
        assert_eq!(&*f, xs);
        assert_eq!(f.to_vec(), xs.to_vec());
        assert_eq!(f, Features::from_slice(&f));
    }
    assert_eq!(
        Features::from_slice(&[0.0; MAX_FEATURES]).len(),
        MAX_FEATURES
    );
}

#[test]
fn default_features_are_empty() {
    let f = Features::default();
    assert!(f.is_empty());
    assert_eq!(f, Features::from_slice(&[]));
    assert_ne!(f, Features::from_slice(&[0.0]));
    assert_eq!(format!("{f:?}"), "[]");
}

#[test]
#[should_panic(expected = "3 request features exceed MAX_FEATURES = 2")]
fn too_many_features_panic_clearly() {
    Features::from_slice(&[1.0, 2.0, 3.0]);
}
