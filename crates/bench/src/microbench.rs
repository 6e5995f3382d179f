//! A minimal wall-clock microbenchmark harness (criterion-free).
//!
//! Each [`Case`] is a closure run `warmup + reps` times; the minimum
//! observed time is the headline number (host-time noise is strictly
//! additive, so the minimum is the best point estimate of the true
//! cost), with the mean printed alongside as a stability indicator.
//!
//! Set `SCPERF_BENCH_REPS` to change the repetition count (default 5).

use std::time::{Duration, Instant};

/// One named benchmark case.
pub struct Case {
    /// Display name.
    pub name: String,
    run: Box<dyn Fn()>,
}

impl Case {
    /// Wraps a closure as a named case.
    pub fn new(name: impl Into<String>, run: impl Fn() + 'static) -> Case {
        Case {
            name: name.into(),
            run: Box::new(run),
        }
    }
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Case").field("name", &self.name).finish()
    }
}

/// The timing result of one case.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Case name.
    pub name: String,
    /// Minimum observed time.
    pub min: Duration,
    /// Mean over all measured repetitions.
    pub mean: Duration,
    /// Measured repetitions (excluding warmup).
    pub reps: usize,
}

/// Repetition count: `SCPERF_BENCH_REPS` or 5.
pub fn default_reps() -> usize {
    std::env::var("SCPERF_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5)
}

/// Runs one case: one warmup iteration, then `reps` timed iterations.
pub fn measure(case: &Case, reps: usize) -> Measurement {
    (case.run)(); // warmup
    let mut min = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..reps {
        let start = Instant::now();
        (case.run)();
        let t = start.elapsed();
        min = min.min(t);
        total += t;
    }
    Measurement {
        name: case.name.clone(),
        min,
        mean: total / reps as u32,
        reps,
    }
}

/// Renders a duration with an auto-selected unit.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.2}µs", ns as f64 / 1_000.0)
    } else if ns < 10_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Runs every case in `cases`, printing an aligned table, and returns
/// the measurements in case order.
pub fn run_group(title: &str, cases: &[Case]) -> Vec<Measurement> {
    let reps = default_reps();
    println!("\n== {title} (min of {reps} reps) ==");
    let width = cases.iter().map(|c| c.name.len()).max().unwrap_or(0);
    let mut results = Vec::with_capacity(cases.len());
    for case in cases {
        let m = measure(case, reps);
        println!(
            "  {:<width$}  min {:>10}  mean {:>10}",
            m.name,
            fmt_duration(m.min),
            fmt_duration(m.mean),
        );
        results.push(m);
    }
    results
}

/// Command-line arguments shared by the `kernel_bench` and
/// `estimator_bench` binaries: `--reps N` (default 5) and `--quick`
/// (smaller problem sizes for CI smoke runs).
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    /// Timed repetitions per configuration.
    pub reps: usize,
    /// Run at reduced problem sizes.
    pub quick: bool,
}

impl BenchArgs {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// Panics on an unknown argument or a non-positive `--reps`.
    pub fn parse() -> BenchArgs {
        let mut args = BenchArgs {
            reps: 5,
            quick: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--reps" => {
                    args.reps = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&v| v > 0)
                        .expect("--reps expects a positive integer");
                }
                "--quick" => args.quick = true,
                other => panic!("unknown argument {other}"),
            }
        }
        args
    }
}

/// Median, minimum and population standard deviation of a sample, e.g.
/// one per-unit cost over a bench's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median (mean of the middle pair for an even count).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Spread {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        Spread {
            median,
            min: sorted[0],
            stddev: var.sqrt(),
        }
    }

    /// Writes the summary as three JSON keys: `key` (the median),
    /// `key_min` and `key_stddev`.
    pub fn write(&self, w: &mut scperf_obs::json::JsonWriter, key: &str) {
        w.key(key);
        w.value_f64(self.median);
        w.key(&format!("{key}_min"));
        w.value_f64(self.min);
        w.key(&format!("{key}_stddev"));
        w.value_f64(self.stddev);
    }
}

/// Runs `a` and `b` alternately, `reps` times each, and returns each
/// leg's results in run order. A ratio between two legs measured in
/// separate blocks also measures how the host's speed drifted between
/// the blocks (frequency scaling, neighbours on a shared machine);
/// alternating makes that drift hit both legs alike.
pub fn interleave<T>(reps: usize, a: impl Fn() -> T, b: impl Fn() -> T) -> (Vec<T>, Vec<T>) {
    (0..reps).map(|_| (a(), b())).unzip()
}

/// Host nanoseconds per unit of work (activation, charge, op) of each
/// run, where every run did `units` units.
///
/// # Panics
///
/// Panics if `times` is empty.
pub fn ns_per_unit(units: u64, times: &[Duration]) -> Spread {
    let per: Vec<f64> = times
        .iter()
        .map(|t| t.as_secs_f64() * 1e9 / units as f64)
        .collect();
    Spread::of(&per)
}

/// The fastest of `times` in seconds: the best-of-reps time the
/// same-run speedups divide.
///
/// # Panics
///
/// Panics if `times` is empty.
pub fn min_secs(times: &[Duration]) -> f64 {
    times.iter().min().expect("no runs").as_secs_f64()
}

/// The host's available parallelism, recorded next to every result
/// that depends on threads. It honours CPU affinity, so a run pinned
/// with `taskset -c 0` reports 1.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_reports_median_min_and_stddev() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.min, 1.0);
        assert!((s.stddev - 1.25_f64.sqrt()).abs() < 1e-12);
        assert_eq!(Spread::of(&[7.0]).stddev, 0.0);
        assert_eq!(Spread::of(&[3.0, 9.0, 5.0]).median, 5.0);
    }

    #[test]
    fn per_unit_costs_and_best_time() {
        let times = [Duration::from_micros(30), Duration::from_micros(10)];
        let s = ns_per_unit(10, &times);
        assert_eq!(s.min, 1_000.0);
        assert_eq!(s.median, 2_000.0);
        assert_eq!(min_secs(&times), 10e-6);
    }

    #[test]
    fn interleave_alternates_the_legs() {
        let order = std::cell::RefCell::new(Vec::new());
        let (a, b) = interleave(
            3,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!((a.len(), b.len()), (3, 3));
        assert_eq!(order.into_inner(), ['a', 'b', 'a', 'b', 'a', 'b']);
    }

    #[test]
    fn measure_reports_min_and_mean() {
        let case = Case::new("spin", || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        let m = measure(&case, 3);
        assert_eq!(m.reps, 3);
        assert!(m.min <= m.mean);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500ns");
        assert!(fmt_duration(Duration::from_micros(50)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(50)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(50)).ends_with("s"));
    }
}
