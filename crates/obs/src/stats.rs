//! Latency statistics for request-serving layers.
//!
//! [`LatencySummary`] is the percentile summary a service report needs —
//! p50/p90/p99 plus min/max/mean, in microseconds — as
//! [`crate::LogHistogram::summary`] returns it; the serve layer keeps
//! one histogram per latency it tracks and folds each summary into its
//! [`crate::MetricsSnapshot`] under a caller-chosen prefix
//! (`serve.latency.*`). [`percentile`] reads one percentile off a sorted
//! slice of samples.

use crate::MetricsSnapshot;

/// Percentile summary of a latency distribution, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min_us: f64,
    /// Largest sample.
    pub max_us: f64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
}

impl LatencySummary {
    /// Writes the summary into `metrics` as gauges named
    /// `<prefix>.{p50,p90,p99,mean,min,max}_us` plus a
    /// `<prefix>.count` counter.
    pub fn export(&self, metrics: &mut MetricsSnapshot, prefix: &str) {
        metrics.set_counter(format!("{prefix}.count"), self.count as u64);
        metrics.set_gauge(format!("{prefix}.min_us"), self.min_us);
        metrics.set_gauge(format!("{prefix}.max_us"), self.max_us);
        metrics.set_gauge(format!("{prefix}.mean_us"), self.mean_us);
        metrics.set_gauge(format!("{prefix}.p50_us"), self.p50_us);
        metrics.set_gauge(format!("{prefix}.p90_us"), self.p90_us);
        metrics.set_gauge(format!("{prefix}.p99_us"), self.p99_us);
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
///
/// `p` is in percent (`50.0` = median) and is clamped to `[0, 100]`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty slice");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&sorted, 0.0), 10.0);
        assert_eq!(percentile(&sorted, 100.0), 40.0);
        assert_eq!(percentile(&sorted, 50.0), 25.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn summary_exports_named_metrics() {
        let summary = LatencySummary {
            count: 2,
            min_us: 10.0,
            max_us: 30.0,
            mean_us: 20.0,
            p50_us: 20.0,
            p90_us: 28.0,
            p99_us: 29.8,
        };
        let mut m = MetricsSnapshot::new();
        summary.export(&mut m, "serve.latency");
        assert_eq!(m.counter("serve.latency.count"), Some(2));
        assert_eq!(m.gauge("serve.latency.min_us"), Some(10.0));
        assert_eq!(m.gauge("serve.latency.max_us"), Some(30.0));
        assert_eq!(m.gauge("serve.latency.mean_us"), Some(20.0));
        assert_eq!(m.gauge("serve.latency.p50_us"), Some(20.0));
        assert_eq!(m.gauge("serve.latency.p90_us"), Some(28.0));
        assert_eq!(m.gauge("serve.latency.p99_us"), Some(29.8));
    }
}
