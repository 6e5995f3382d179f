//! Order statistics over measured samples.

/// The `p`-th percentile (0–100) of `samples`, linearly interpolated
/// between closest ranks; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    scperf_obs::stats::percentile(&sorted, p)
}

/// The median of `samples`; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The mean of `samples`; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive" one),
/// so the steadiness report reads like the acceptance check.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        n => {
            let m = (n + 1) as f64;
            let at = |j: f64| {
                let pos = j * m / 4.0;
                let k = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - k as f64;
                s[k - 1] + (s[k] - s[k - 1]) * frac
            };
            (at(1.0), at(2.0), at(3.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[], 90.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
