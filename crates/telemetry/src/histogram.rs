//! Log-bucketed histograms.
//!
//! The bucket scheme is HdrHistogram-style: each power-of-two range is
//! split into `2^SUB_BITS` linear sub-buckets, so the relative
//! quantization error of any recorded value is bounded by
//! `2^-SUB_BITS` (6.25 % at the default 4 sub-bucket bits) while the
//! whole `u64` range fits in under a thousand buckets. Inserts are
//! O(1) (a couple of shifts), percentile reads are O(buckets) — the
//! property that lets the server keep run-so-far latency percentiles
//! without re-sorting a clone of every record on each read.

/// Linear sub-bucket bits per power-of-two range.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: the exact region `[0, 2^SUB_BITS)` plus one
/// group of `SUB` sub-buckets per remaining power of two.
const N_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// Bucket index of `v` (monotone non-decreasing in `v`).
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) & (SUB - 1)) as usize;
        ((((msb - SUB_BITS) + 1) as usize) << SUB_BITS) + sub
    }
}

/// Largest value mapping into bucket `i` (monotone increasing in `i`,
/// and `bucket_upper_bound(bucket_index(v)) >= v` for all `v`).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    let group = i >> SUB_BITS;
    let sub = (i & (SUB as usize - 1)) as u64;
    if group == 0 {
        sub
    } else {
        let shift = (group - 1) as u32;
        // Bucket covers [ (SUB + sub) << shift, ((SUB + sub + 1) << shift) - 1 ].
        // The very last bucket's bound is 2^64, so compute wide and
        // saturate to u64::MAX.
        let ub = ((SUB as u128 + sub as u128 + 1) << shift) - 1;
        ub.min(u64::MAX as u128) as u64
    }
}

/// A fixed-size log-bucketed histogram over `u64` values.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record `n` occurrences of `v` in O(1) — the merge primitive for
    /// rebuilding a histogram from another histogram's
    /// [`Histogram::nonzero_buckets`] pairs (`v` is then a bucket upper
    /// bound, which maps back into the same bucket).
    #[inline]
    pub(crate) fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Add every value `other` holds: bucket counts, the exact sum and
    /// the extremes, so the result reads as if both had recorded into
    /// one histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clear every bucket and counter, keeping the allocation — lets
    /// periodic windowing reuse one histogram instead of reallocating
    /// `N_BUCKETS` counters per window.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded values (the sum is kept exactly).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact maximum of the recorded values (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum of the recorded values (0 when empty).
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Nearest-rank percentile, reported as the bucket upper bound
    /// (within one sub-bucket of the exact value, i.e. a relative error
    /// bounded by `2^-SUB_BITS`). Returns 0 when empty. `q` is clamped
    /// to `[0, 1]`; `q = 0` reports the exact minimum.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report beyond the true extremes.
                return bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Recorded values whose bucket upper bound is `<= v` — the
    /// "within target" count a latency burn rate is computed from.
    /// O(buckets), conservative by at most one bucket (values sharing
    /// `v`'s bucket but above it are not counted unless the whole
    /// bucket fits).
    pub(crate) fn count_at_or_below(&self, v: u64) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .take(bucket_index(v) + 1)
            .filter(|(i, _)| bucket_upper_bound(*i) <= v)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs, ascending.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper_bound(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), SUB - 1);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB - 1);
    }

    #[test]
    fn percentiles_track_known_distribution() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000); // 1..10 ms in us steps
        }
        for (q, exact) in [(0.5, 5_000_000u64), (0.95, 9_500_000), (0.99, 9_900_000)] {
            let got = h.percentile(q);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.07, "p{q}: got {got}, exact {exact}, err {err}");
        }
    }

    proptest! {
        /// Satellite property: bucket mapping is monotone in the value.
        #[test]
        fn bucket_index_monotone(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(bucket_index(lo) <= bucket_index(hi));
        }

        /// Bucket upper bounds are strictly increasing across indices.
        #[test]
        fn bucket_bounds_monotone(i in 0usize..N_BUCKETS - 1) {
            prop_assert!(bucket_upper_bound(i) < bucket_upper_bound(i + 1));
        }

        /// Every value is covered by its bucket's bound, within the
        /// scheme's relative-error envelope.
        #[test]
        fn bucket_bound_covers_value(v in 0u64..u64::MAX / 2) {
            let ub = bucket_upper_bound(bucket_index(v));
            prop_assert!(ub >= v, "bound {ub} below value {v}");
            // Relative quantization error bounded by 2^-SUB_BITS.
            let slack = (v >> SUB_BITS) + 1;
            prop_assert!(ub - v <= slack, "bound {ub} too far above {v}");
        }

        /// Percentiles never leave the recorded range and are monotone
        /// in q. The generator includes the empty and single-value
        /// distributions (`0..200`); an empty histogram reads zero
        /// everywhere rather than panicking.
        #[test]
        fn percentile_bounded_and_monotone(
            values in proptest::collection::vec(0u64..1_000_000_000, 0..200),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let mut h = Histogram::new();
            for &v in &values { h.record(v); }
            if values.is_empty() {
                prop_assert_eq!(h.count(), 0);
                prop_assert_eq!(h.percentile(q1), 0);
                prop_assert_eq!(h.min(), 0);
                prop_assert_eq!(h.max(), 0);
            } else {
                let (lo, hi) = (h.min(), h.max());
                prop_assert_eq!(lo, *values.iter().min().unwrap());
                prop_assert_eq!(hi, *values.iter().max().unwrap());
                for q in [q1, q2, 0.0, 1.0] {
                    let p = h.percentile(q);
                    prop_assert!(p >= lo && p <= hi, "p{} = {} outside [{}, {}]", q, p, lo, hi);
                }
                let (ql, qh) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
                prop_assert!(h.percentile(ql) <= h.percentile(qh));
            }
        }

        /// A single-value distribution reads that value exactly — min,
        /// max and every percentile (the percentile clamp to the true
        /// extremes cancels the bucket quantization).
        #[test]
        fn single_value_snapshot_is_exact(v in 0u64..u64::MAX / 2, q in 0.0f64..1.0) {
            let mut h = Histogram::new();
            h.record(v);
            prop_assert_eq!(h.count(), 1);
            prop_assert_eq!(h.min(), v);
            prop_assert_eq!(h.max(), v);
            prop_assert_eq!(h.percentile(0.50), v);
            prop_assert_eq!(h.percentile(0.99), v);
            prop_assert_eq!(h.percentile(q), v);
            prop_assert!((h.mean() - v as f64).abs() < 1.0);
        }

        /// Folding windows into a run total (empty windows included)
        /// reads exactly like one histogram that saw every value.
        #[test]
        fn merged_windows_read_like_one_histogram(
            values in proptest::collection::vec(0u64..1_000_000_000, 0..200),
            window in 1usize..40,
            q in 0.0f64..1.0,
        ) {
            let mut whole = Histogram::new();
            let mut total = Histogram::new();
            let mut open = Histogram::new();
            for (i, &v) in values.iter().enumerate() {
                whole.record(v);
                open.record(v);
                if i % window == 0 {
                    total.merge(&open);
                    open.reset();
                    total.merge(&open);
                }
            }
            total.merge(&open);
            prop_assert_eq!(total.count(), whole.count());
            prop_assert_eq!(total.min(), whole.min());
            prop_assert_eq!(total.max(), whole.max());
            prop_assert_eq!(total.mean().to_bits(), whole.mean().to_bits());
            prop_assert_eq!(total.nonzero_buckets(), whole.nonzero_buckets());
            for q in [q, 0.5, 0.95, 0.99] {
                prop_assert_eq!(total.percentile(q), whole.percentile(q));
            }
        }
    }

    #[test]
    fn record_n_matches_repeated_record_and_reset_clears() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (v, n) in [(7u64, 3u64), (120_000, 5), (9_999_999, 1)] {
            for _ in 0..n {
                a.record(v);
            }
            b.record_n(v, n);
        }
        b.record_n(42, 0); // no-op
        assert_eq!(a.count(), b.count());
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.nonzero_buckets(), b.nonzero_buckets());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(a.percentile(q), b.percentile(q));
        }
        b.reset();
        assert_eq!(b.count(), 0);
        assert_eq!(b.nonzero_buckets(), vec![]);
        assert_eq!(b.percentile(0.99), 0);
        b.record(5);
        assert_eq!((b.count(), b.min(), b.max()), (1, 5, 5));
    }

    proptest! {
        /// Rebuilding a histogram from its own nonzero buckets via
        /// `record_n` preserves bucket counts exactly — the property the
        /// fleet monitor's window merge relies on.
        #[test]
        fn rebuild_from_buckets_preserves_bucket_counts(
            values in proptest::collection::vec(0u64..10_000_000_000, 0..100),
        ) {
            let mut h = Histogram::new();
            for &v in &values { h.record(v); }
            let mut rebuilt = Histogram::new();
            for (ub, c) in h.nonzero_buckets() {
                rebuilt.record_n(ub, c);
            }
            prop_assert_eq!(h.count(), rebuilt.count());
            prop_assert_eq!(h.nonzero_buckets(), rebuilt.nonzero_buckets());
        }
    }
}
