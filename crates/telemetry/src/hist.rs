//! Power-of-two-bucketed histograms.
//!
//! A [`Histogram`] records `u64` values (durations in nanoseconds, FFT
//! sizes, bit-error counts, …) into 66 fixed buckets: bucket 0 holds the
//! value `0`, bucket `k ≥ 1` holds the half-open range `[2^(k−1), 2^k)`.
//! Fixed log₂ buckets keep recording allocation-free and make merging two
//! histograms an element-wise integer addition — which is what lets
//! per-thread shards combine into totals identical to a serial run.

/// Number of buckets: one for zero plus one per bit of a `u64`'s range.
pub const N_BUCKETS: usize = 65;

/// Bucket index for a value: `0` for `0`, otherwise `floor(log2(v)) + 1`.
///
/// ```
/// use milback_telemetry::bucket_index;
/// assert_eq!(bucket_index(0), 0);
/// assert_eq!(bucket_index(1), 1);
/// assert_eq!(bucket_index(2), 2);
/// assert_eq!(bucket_index(3), 2);
/// assert_eq!(bucket_index(4), 3);
/// assert_eq!(bucket_index(u64::MAX), 64);
/// ```
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`: `0` for bucket 0, `2^i − 1`
/// otherwise.
///
/// ```
/// use milback_telemetry::bucket_upper_bound;
/// assert_eq!(bucket_upper_bound(0), 0);
/// assert_eq!(bucket_upper_bound(1), 1);
/// assert_eq!(bucket_upper_bound(3), 7);
/// assert_eq!(bucket_upper_bound(64), u64::MAX);
/// ```
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-bucket histogram of `u64` observations.
///
/// All arithmetic saturates (`count`, buckets) or is exact (`sum` is a
/// `u128`, wide enough for 2⁶⁴ observations of 2⁶⁴ each not to overflow
/// in any realistic run), so merging shards in any order yields the same
/// totals.
///
/// ```
/// use milback_telemetry::Histogram;
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(5);
/// h.record(5);
/// assert_eq!(h.count, 3);
/// assert_eq!(h.sum, 10);
/// assert_eq!(h.min, 0);
/// assert_eq!(h.max, 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded values (saturating).
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u128,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (`0` when empty).
    pub max: u64,
    /// Per-bucket counts, indexed by [`bucket_index`] (saturating).
    pub buckets: [u64; N_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; N_BUCKETS],
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.count = self.count.saturating_add(1);
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let i = bucket_index(v);
        self.buckets[i] = self.buckets[i].saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistogramSnapshot;

    #[test]
    fn bucket_boundaries() {
        // Exhaustive check of the boundary pairs (2^k − 1, 2^k).
        for k in 1..64 {
            let edge = 1u64 << k;
            assert_eq!(bucket_index(edge - 1), k, "below 2^{k}");
            assert_eq!(bucket_index(edge), k + 1, "at 2^{k}");
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn upper_bounds_are_inclusive() {
        for i in 0..N_BUCKETS {
            let ub = bucket_upper_bound(i);
            assert_eq!(bucket_index(ub), i, "bucket {i} ub {ub}");
            if i < 64 {
                assert_eq!(bucket_index(ub + 1), i + 1);
            }
        }
    }

    #[test]
    fn record_fills_expected_bucket() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[10], 1); // 1000 ∈ [512, 1024)
        assert_eq!(h.buckets[64], 1); // u64::MAX
        assert_eq!(h.count, 7);
    }

    #[test]
    fn count_saturates_instead_of_wrapping() {
        let mut h = Histogram::new();
        h.count = u64::MAX;
        h.buckets[1] = u64::MAX;
        h.record(1);
        assert_eq!(h.count, u64::MAX);
        assert_eq!(h.buckets[1], u64::MAX);
    }

    /// The snapshot merge (how shards combine) is order-free: any split
    /// of the values across shards, merged in any order, equals one shard
    /// that recorded them all.
    #[test]
    fn shard_merge_matches_serial_recording() {
        let values: Vec<u64> = (0..1000).map(|i| i * i % 777).collect();
        let mut serial = Histogram::new();
        for &v in &values {
            serial.record(v);
        }
        let mut shards = [Histogram::new(), Histogram::new(), Histogram::new()];
        for (i, &v) in values.iter().enumerate() {
            shards[i % 3].record(v);
        }
        let mut expect = HistogramSnapshot::empty();
        expect.merge_from(&serial);
        let mut merged = HistogramSnapshot::empty();
        for idx in [2, 0, 1] {
            merged.merge_from(&shards[idx]);
        }
        assert_eq!(merged, expect);
    }

    #[test]
    fn empty_histogram_stats() {
        let h = Histogram::new();
        assert_eq!((h.count, h.min, h.max), (0, u64::MAX, 0));
    }
}
