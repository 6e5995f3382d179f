//! Regression gate over the committed bench baselines.
//!
//! Usage:
//!
//! ```text
//! cargo run -p scperf-bench --release --bin bench_compare -- \
//!     [--threshold R] BASELINE.json CURRENT.json [BASELINE CURRENT ...]
//! ```
//!
//! Each pair is a committed baseline (`BENCH_kernel.json`,
//! `BENCH_estimator.json`, `BENCH_serve.json`) and a freshly produced
//! run of the same bench (typically `--quick`, redirected via
//! `SCPERF_OBS_DIR`). Two kinds of metric in each document's `benches`
//! array are compared:
//!
//! * **per-unit costs** (lower is better): `ns_per_activation`,
//!   `ns_per_op` and the `*_ns_per_charge` medians. They are absolute
//!   host times, so they move with the host; the problem sizes are
//!   chosen so that `--quick` runs measure the same per-unit cost as
//!   full ones.
//! * **same-run ratios** (higher is better): the parallel-kernel
//!   `speedup`, `memoized_speedup`, `prog_speedup` and `pool_speedup`,
//!   each one code path against another on the same machine in the
//!   same run.
//!
//! Both kinds only mean something on the setup the baseline was taken
//! on, so before scoring a pair the gate checks that the two documents
//! agree on the top-level `host_cpus` and on every bench's `jobs` (the
//! parallel-kernel worker count). A pair that differs in either **fails**
//! as a baseline host mismatch and is not scored. Baselines and gate runs
//! are therefore taken the same way: pinned to one CPU with
//! `taskset -c 0`, which also keeps the handoff-dominated costs steady
//! (a same-CPU handoff costs a few µs; a cross-CPU wake-up costs several
//! times that and varies run to run).
//!
//! For every shared metric the gate computes a score where 1.0 means
//! the fresh run reproduces the baseline exactly and lower is worse:
//! `current / baseline` for ratios, `baseline / current` for costs. The
//! run **fails (exit 1)** when any score falls below `1 - threshold`
//! (default 0.5 — generous, because CI machines differ from the one the
//! baseline was measured on and quick runs are noisy; the gate is for
//! order-of-magnitude regressions, not 5% drifts). Min, median and
//! stddev of the score distribution are printed for trend-watching, and
//! the `attribution.overhead_pct` entries are echoed informatively.

use std::process::ExitCode;

use scperf_bench::microbench::Spread;
use scperf_serve::json::{parse, Json};

/// Same-run ratio keys: higher is better.
const RATIO_KEYS: [&str; 4] = [
    "speedup",
    "memoized_speedup",
    "pool_speedup",
    "prog_speedup",
];

/// Per-unit cost keys (medians over reps): lower is better.
const COST_KEYS: [&str; 5] = [
    "ns_per_activation",
    "ns_per_op",
    "live_ns_per_charge",
    "memoized_ns_per_charge",
    "warm_ns_per_charge",
];

fn usage() -> ! {
    eprintln!(
        "usage: bench_compare [--threshold R] BASELINE.json CURRENT.json \
         [BASELINE CURRENT ...]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

/// One gated metric of a bench document.
struct Metric {
    /// `bench-name.key`.
    name: String,
    value: f64,
    lower_is_better: bool,
}

/// Extracts every ratio and cost metric in a bench document's
/// `benches` array.
fn metrics(doc: &Json) -> Vec<Metric> {
    let mut out = Vec::new();
    if let Some(benches) = doc.get("benches").and_then(|b| b.as_arr()) {
        for b in benches {
            let bench = b.get("name").and_then(|n| n.as_str()).unwrap_or("?");
            let keys = RATIO_KEYS
                .iter()
                .map(|k| (k, false))
                .chain(COST_KEYS.iter().map(|k| (k, true)));
            for (key, lower_is_better) in keys {
                if let Some(value) = b.get(key).and_then(|v| v.as_f64()) {
                    out.push(Metric {
                        name: format!("{bench}.{key}"),
                        value,
                        lower_is_better,
                    });
                }
            }
        }
    }
    out
}

/// The setup a document's scores depend on, as `(label, value)`: the
/// top-level `host_cpus` and each bench's `jobs`.
fn host_setup(doc: &Json) -> Vec<(String, Option<f64>)> {
    let mut out = vec![(
        "host_cpus".to_string(),
        doc.get("host_cpus").and_then(|v| v.as_f64()),
    )];
    if let Some(benches) = doc.get("benches").and_then(|b| b.as_arr()) {
        for b in benches {
            if let Some(jobs) = b.get("jobs").and_then(|v| v.as_f64()) {
                let bench = b.get("name").and_then(|n| n.as_str()).unwrap_or("?");
                out.push((format!("{bench}.jobs"), Some(jobs)));
            }
        }
    }
    out
}

/// Every setting of the baseline's [`host_setup`] that the current run
/// does not reproduce, rendered as `label baseline vs current`.
fn host_mismatches(base: &Json, cur: &Json) -> Vec<String> {
    let cur_setup = host_setup(cur);
    let show = |v: Option<f64>| v.map_or_else(|| "absent".to_string(), |v| v.to_string());
    host_setup(base)
        .into_iter()
        .filter_map(|(label, b)| {
            let c = cur_setup
                .iter()
                .find(|(l, _)| *l == label)
                .and_then(|(_, v)| *v);
            (b != c).then(|| format!("{label} {} vs {}", show(b), show(c)))
        })
        .collect()
}

fn overhead_pct(doc: &Json) -> Option<f64> {
    doc.get("attribution")
        .and_then(|a| a.get("overhead_pct"))
        .and_then(|v| v.as_f64())
}

fn main() -> ExitCode {
    let mut threshold = 0.5_f64;
    let mut paths: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &f64| (0.0..1.0).contains(&v))
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() || !paths.len().is_multiple_of(2) {
        usage();
    }

    let floor = 1.0 - threshold;
    let mut scores: Vec<f64> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut compared = 0usize;

    for pair in paths.chunks(2) {
        let (base_path, cur_path) = (&pair[0], &pair[1]);
        let base = load(base_path);
        let cur = load(cur_path);
        println!("{base_path} vs {cur_path}:");

        let mismatches = host_mismatches(&base, &cur);
        if !mismatches.is_empty() {
            let what = mismatches.join(", ");
            println!("  baseline host mismatch ({what}): not scored");
            failures.push(format!(
                "{cur_path}: baseline host mismatch with {base_path} ({what})"
            ));
            continue;
        }

        let cur_metrics = metrics(&cur);
        for m in metrics(&base) {
            let name = &m.name;
            let Some(c) = cur_metrics.iter().find(|c| &c.name == name) else {
                println!("  {name:<36} missing from current run (skipped)");
                continue;
            };
            let (b, c) = (m.value, c.value);
            if b <= 0.0 || c <= 0.0 {
                continue;
            }
            let (score, unit) = if m.lower_is_better {
                (b / c, "ns")
            } else {
                (c / b, "x ")
            };
            compared += 1;
            scores.push(score);
            let verdict = if score < floor { "REGRESSED" } else { "ok" };
            println!(
                "  {name:<36} baseline {b:>8.2}{unit}  current {c:>8.2}{unit}  \
                 score {score:>5.2}  {verdict}"
            );
            if score < floor {
                failures.push(format!("{name}: {c:.2}{unit} vs committed {b:.2}{unit}"));
            }
        }
        if let (Some(b), Some(c)) = (overhead_pct(&base), overhead_pct(&cur)) {
            println!("  attribution overhead: baseline {b:+.2}%  current {c:+.2}% (informational)");
        }
    }

    if compared == 0 && failures.is_empty() {
        eprintln!("no shared metrics found — wrong files?");
        return ExitCode::FAILURE;
    }

    if compared > 0 {
        let spread = Spread::of(&scores);
        println!(
            "\n{compared} metric(s): score min {:.2}  median {:.2}  stddev {:.2}  (floor {floor:.2})",
            spread.min, spread.median, spread.stddev,
        );
    }

    if failures.is_empty() {
        println!("no regressions beyond threshold {threshold}");
        ExitCode::SUCCESS
    } else {
        eprintln!("\n{} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        parse(text).expect("test document parses")
    }

    #[test]
    fn host_mismatch_names_every_differing_setting() {
        let base =
            doc(r#"{"host_cpus":1,"benches":[{"name":"pingpong"},{"name":"par_pairs","jobs":2}]}"#);
        assert!(host_mismatches(&base, &base).is_empty());

        let other_host = doc(r#"{"host_cpus":4,"benches":[{"name":"par_pairs","jobs":4}]}"#);
        assert_eq!(
            host_mismatches(&base, &other_host),
            ["host_cpus 1 vs 4", "par_pairs.jobs 2 vs 4"]
        );

        let no_par = doc(r#"{"host_cpus":1,"benches":[]}"#);
        assert_eq!(
            host_mismatches(&base, &no_par),
            ["par_pairs.jobs 2 vs absent"]
        );
    }
}
