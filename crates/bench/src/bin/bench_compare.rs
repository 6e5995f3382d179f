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
//!   host times, so they move with the host. They also move with the
//!   problem size: a `--quick` run spreads per-run costs (building the
//!   simulator, mapping process stacks) over a tenth of the rounds and
//!   reads higher per-unit costs than a full one, so compare a quick run
//!   with a quick baseline (`BENCH_kernel_quick.json`).
//! * **same-run ratios** (higher is better): `memoized_speedup` and
//!   `reuse_speedup`, each one code path against another on the same
//!   machine in the same run.
//!
//! Both kinds only mean something on the setup the baseline was taken
//! on, so before scoring a pair the gate checks that the two documents
//! agree on the top-level `host_cpus`. A pair that differs **fails** as
//! a baseline host mismatch and is not scored. Baselines and gate runs
//! are therefore taken the same way: pinned to one CPU with
//! `taskset -c 0`, so the OS does not migrate a run between CPUs.
//!
//! Every gated metric of the baseline must be in the fresh run: a
//! missing one **fails**, so a bench that stops emitting a key cannot
//! drop out of the gate. For every metric the gate computes a score
//! where 1.0 means
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
const RATIO_KEYS: [&str; 2] = ["memoized_speedup", "reuse_speedup"];

/// Per-unit cost keys (medians over reps): lower is better.
const COST_KEYS: [&str; 4] = [
    "ns_per_activation",
    "ns_per_op",
    "live_ns_per_charge",
    "memoized_ns_per_charge",
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

/// The top-level `host_cpus` the scores depend on, when the current run
/// does not reproduce the baseline's, rendered as
/// `host_cpus baseline vs current`.
fn host_mismatch(base: &Json, cur: &Json) -> Option<String> {
    let cpus = |doc: &Json| doc.get("host_cpus").and_then(|v| v.as_f64());
    let show = |v: Option<f64>| v.map_or_else(|| "absent".to_string(), |v| v.to_string());
    let (b, c) = (cpus(base), cpus(cur));
    (b != c).then(|| format!("host_cpus {} vs {}", show(b), show(c)))
}

/// Scores every gated metric of `base` against `cur`, printing one line
/// each. Returns the scores (1.0 reproduces the baseline, lower is
/// worse) and a failure line for each metric that scored below `floor`
/// or is missing from `cur`.
fn score(base: &Json, cur: &Json, floor: f64) -> (Vec<f64>, Vec<String>) {
    let mut scores = Vec::new();
    let mut failures = Vec::new();
    let cur_metrics = metrics(cur);
    for m in metrics(base) {
        let name = &m.name;
        let Some(c) = cur_metrics.iter().find(|c| &c.name == name) else {
            println!("  {name:<36} MISSING from the current run");
            failures.push(format!("{name}: missing from the current run"));
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
    (scores, failures)
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

    for pair in paths.chunks(2) {
        let (base_path, cur_path) = (&pair[0], &pair[1]);
        let base = load(base_path);
        let cur = load(cur_path);
        println!("{base_path} vs {cur_path}:");

        if let Some(what) = host_mismatch(&base, &cur) {
            println!("  baseline host mismatch ({what}): not scored");
            failures.push(format!(
                "{cur_path}: baseline host mismatch with {base_path} ({what})"
            ));
            continue;
        }

        let (pair_scores, pair_failures) = score(&base, &cur, floor);
        scores.extend(pair_scores);
        failures.extend(pair_failures);
        if let (Some(b), Some(c)) = (overhead_pct(&base), overhead_pct(&cur)) {
            println!("  attribution overhead: baseline {b:+.2}%  current {c:+.2}% (informational)");
        }
    }

    let compared = scores.len();
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
    fn a_gated_key_missing_from_the_current_run_fails() {
        let base =
            doc(r#"{"benches":[{"name":"fir","memoized_speedup":5.0,"live_ns_per_charge":2.0}]}"#);
        let same = score(&base, &base, 0.5);
        assert_eq!(same, (vec![1.0, 1.0], Vec::<String>::new()));

        let dropped = doc(r#"{"benches":[{"name":"fir","live_ns_per_charge":2.0}]}"#);
        let (scores, failures) = score(&base, &dropped, 0.5);
        assert_eq!(scores, vec![1.0]);
        assert_eq!(
            failures,
            vec!["fir.memoized_speedup: missing from the current run"]
        );

        // Keys the gate does not know stay out of it.
        let extra = doc(
            r#"{"benches":[{"name":"fir","memoized_speedup":5.0,"live_ns_per_charge":2.0,"other":1.0}]}"#,
        );
        assert!(score(&base, &extra, 0.5).1.is_empty());
    }

    #[test]
    fn host_mismatch_names_the_differing_cpu_count() {
        let base = doc(r#"{"host_cpus":1,"benches":[{"name":"pingpong"}]}"#);
        assert_eq!(host_mismatch(&base, &base), None);

        let other_host = doc(r#"{"host_cpus":4,"benches":[{"name":"pingpong"}]}"#);
        assert_eq!(
            host_mismatch(&base, &other_host).as_deref(),
            Some("host_cpus 1 vs 4")
        );

        let unrecorded = doc(r#"{"benches":[]}"#);
        assert_eq!(
            host_mismatch(&base, &unrecorded).as_deref(),
            Some("host_cpus 1 vs absent")
        );
    }
}
