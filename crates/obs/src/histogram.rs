//! A bounded log-linear (HDR-style) histogram for long-running
//! aggregation.
//!
//! Keeping every sample in a `Vec<f64>` is exact, but unbounded: a
//! service recording one sample per request would grow without limit.
//! [`LogHistogram`] trades a bounded relative error for a fixed
//! footprint:
//!
//! * values are recorded as integer ticks (the serve layer uses
//!   nanoseconds) into log-linear buckets — exact below
//!   [`LogHistogram::LINEAR_MAX`], then 64 sub-buckets per power of two;
//! * the bucket array is a fixed ~11 KB regardless of sample count;
//! * quantile estimates use the bucket midpoint, so the relative error
//!   is at most `1/128 ≈ 0.78% < 1%`;
//! * histograms merge by elementwise addition, so per-worker histograms
//!   fold into a service-wide one without losing accuracy.

use crate::stats::LatencySummary;

/// Sub-bucket resolution: 2^6 = 64 sub-buckets per octave, bounding the
/// relative quantile error by `1 / (2 * 64) = 1/128`.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the linear region. Covers ticks up to
/// `2^(6 + OCTAVES) - 1` ≈ 2.8e14 (about 3.3 days in nanoseconds);
/// larger values saturate into the last bucket.
const OCTAVES: usize = 42;
const BUCKETS: usize = SUB as usize * (OCTAVES + 1);

/// A fixed-footprint mergeable histogram of non-negative integer ticks.
///
/// ```
/// use scperf_obs::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [10, 20, 30, 40_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.quantile(0.0), Some(10));
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((p50 as f64 - 20.0).abs() / 20.0 < 0.01);
/// ```
#[derive(Clone)]
pub struct LogHistogram {
    counts: Box<[u32; BUCKETS]>,
    count: u64,
    sum: f64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl LogHistogram {
    /// Largest tick recorded exactly (one bucket per value below this).
    pub const LINEAR_MAX: u64 = SUB - 1;

    /// An empty histogram. The footprint is fixed at allocation:
    /// `BUCKETS` u32 slots (~11 KB) plus a few scalars.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let exp = 63 - u64::leading_zeros(value); // >= SUB_BITS
        let octave = ((exp - SUB_BITS) as usize + 1).min(OCTAVES);
        let sub = if octave == OCTAVES && exp >= SUB_BITS + OCTAVES as u32 {
            SUB - 1 // saturate past the covered range
        } else {
            (value >> (exp - SUB_BITS)) & (SUB - 1)
        };
        octave * SUB as usize + sub as usize
    }

    /// Lower edge of bucket `index`.
    fn bucket_low(index: usize) -> u64 {
        let octave = index / SUB as usize;
        let sub = (index % SUB as usize) as u64;
        if octave == 0 {
            sub
        } else {
            (SUB + sub) << (octave - 1)
        }
    }

    /// Width of bucket `index` (1 in the linear region).
    fn bucket_width(index: usize) -> u64 {
        let octave = index / SUB as usize;
        if octave == 0 {
            1
        } else {
            1 << (octave - 1)
        }
    }

    /// Records one tick value. Bucket counts saturate at `u32::MAX`;
    /// the total count keeps counting in 64 bits.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        self.counts[b] = self.counts[b].saturating_add(1);
        self.count += 1;
        self.sum += value as f64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a microsecond sample as nanosecond ticks (the convention
    /// used by the serve layer). Non-finite and negative samples are
    /// ignored: they would poison every percentile.
    pub fn record_us(&mut self, us: f64) {
        if us.is_finite() && us >= 0.0 {
            self.record((us * 1e3).round() as u64);
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Forgets every sample, keeping the allocation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0.0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Adds every sample of `other` into `self` (elementwise bucket
    /// addition): merging per-worker histograms is associative and
    /// loses no accuracy beyond the bucketing itself.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimated `q`-quantile (`q` clamped to `[0, 1]`) in ticks, or
    /// `None` when empty. The estimate is the midpoint of the bucket
    /// holding the rank, clamped to the observed `[min, max]`, so the
    /// relative error is bounded by half a bucket width: `< 1/128`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                let low = Self::bucket_low(i);
                let mid = low + Self::bucket_width(i) / 2;
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Smallest recorded tick, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded tick, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean of the recorded ticks (the sum is kept out-of-band,
    /// unbucketed), or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Summary in microseconds, interoperable with
    /// [`LatencySummary::export`] so histogram-backed series keep the
    /// metric names of the exact-sample implementation.
    pub fn summary(&self) -> Option<LatencySummary> {
        if self.count == 0 {
            return None;
        }
        let us = |ticks: u64| ticks as f64 / 1e3;
        Some(LatencySummary {
            count: self.count as usize,
            min_us: us(self.min),
            max_us: us(self.max),
            mean_us: self.mean().unwrap_or(0.0) / 1e3,
            p50_us: us(self.quantile(0.5).unwrap_or(0)),
            p90_us: us(self.quantile(0.9).unwrap_or(0)),
            p99_us: us(self.quantile(0.99).unwrap_or(0)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_is_a_few_kilobytes() {
        // The whole point: bounded memory no matter how many samples.
        let bytes = std::mem::size_of::<LogHistogram>();
        assert!(bytes < 16 * 1024, "histogram is {bytes} bytes");
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let exact = ((q * SUB as f64).ceil() as u64).clamp(1, SUB) - 1;
            assert_eq!(h.quantile(q), Some(exact), "q={q}");
        }
    }

    #[test]
    fn bucket_edges_are_contiguous_and_ordered() {
        for i in 1..BUCKETS {
            assert_eq!(
                LogHistogram::bucket_low(i),
                LogHistogram::bucket_low(i - 1) + LogHistogram::bucket_width(i - 1),
                "gap at bucket {i}"
            );
        }
        // Round trip: every bucket's low edge maps back to itself.
        for i in 0..BUCKETS {
            assert_eq!(LogHistogram::bucket_of(LogHistogram::bucket_low(i)), i);
        }
    }

    #[test]
    fn quantile_error_is_under_one_percent() {
        let mut h = LogHistogram::new();
        // Deterministic spread over five decades.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut values = Vec::new();
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 100_000_000;
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1] as f64;
            let est = h.quantile(q).unwrap() as f64;
            let err = (est - exact).abs() / exact.max(1.0);
            assert!(err < 0.01, "q={q}: est {est} vs exact {exact} (err {err})");
        }
    }

    #[test]
    fn oversized_values_saturate_instead_of_panicking() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(u64::MAX));
        assert!(h.quantile(0.5).is_some());
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for v in [3u64, 70, 900, 1_000_000] {
            a.record(v);
            whole.record(v);
        }
        for v in [5u64, 80, 12_345] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for q in [0.0, 0.3, 0.5, 0.9, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut h = LogHistogram::new();
        h.record_us(42.5);
        assert_eq!(h.count(), 1);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary(), None);
    }

    #[test]
    fn summary_reports_microseconds() {
        let mut h = LogHistogram::new();
        h.record_us(10.0); // 10_000 ns
        h.record_us(20.0);
        let s = h.summary().unwrap();
        assert_eq!(s.count, 2);
        assert!((s.min_us - 10.0).abs() < 0.2);
        assert!((s.max_us - 20.0).abs() < 0.2);
        assert!((s.mean_us - 15.0).abs() < 0.2);
    }

    #[test]
    fn non_finite_and_negative_samples_are_ignored() {
        let mut h = LogHistogram::new();
        h.record_us(f64::NAN);
        h.record_us(f64::INFINITY);
        h.record_us(-1.0);
        assert!(h.is_empty());
    }
}
