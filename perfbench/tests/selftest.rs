//! The benchmark's self-test: all four workloads at tiny size, untraced
//! and traced, each run in its own process. Checks that each run emits
//! exactly the metrics `BENCHMARK.json` declares for its mode, with their
//! units, that every output matched its oracle, and that the traced
//! run's layer shares add up to the operations' wall time.

use std::path::Path;
use std::process::Command;

use scperf_serve::json::{self, Json};

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in the spec's `section`.
fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).expect("name").into(),
                m.get("unit").and_then(Json::as_str).expect("unit").into(),
            )
        })
        .collect()
}

/// Runs one tiny workload; returns its stdout.
fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .arg("--trace-dir")
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Checks the result line against the declared metrics; returns the
/// metric values by name.
fn check_result(stdout: &str, want: &[(String, String)], what: &str) -> Vec<(String, f64)> {
    let line = stdout.lines().last().expect("a result line");
    let v = json::parse(line).expect("the last line is JSON");
    let Json::Obj(top) = &v else {
        panic!("{what}: result is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        v.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}"
    );
    assert!(
        v.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{what}"
    );
    assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0), "{what}");
    let Some(Json::Obj(metrics)) = v.get("metrics") else {
        panic!("{what}: no metrics object")
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{what}: {name} has no numeric value"
            );
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(
        got, want,
        "{what}: emitted metrics differ from BENCHMARK.json"
    );
    metrics
        .iter()
        .map(|(n, m)| (n.clone(), m.get("value").and_then(Json::as_f64).unwrap()))
        .collect()
}

/// Workloads the binary runs but `BENCHMARK.json` does not gate on;
/// they must still emit the same metric sets.
const UNGATED: [&str; 2] = ["serve_repeat", "paper_tables"];

#[test]
fn every_workload_emits_its_declared_metrics_and_shares_sum_to_wall_time() {
    let spec = spec();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let gated: Vec<(&str, Option<&str>)> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            let name = w.get("name").and_then(Json::as_str).expect("workload name");
            (name, w.get("why").and_then(Json::as_str))
        })
        .collect();
    assert_eq!(gated.len(), 2);
    let all = gated
        .into_iter()
        .chain(UNGATED.into_iter().map(|name| (name, None)));
    for (name, why) in all {
        let plain = run(name, false);
        if let Some(why) = why {
            assert!(
                plain.lines().any(|l| l == format!("why: {why}")),
                "{name}: the binary's why differs from BENCHMARK.json"
            );
        }
        assert!(plain.lines().any(|l| l.starts_with("sim.digest 0x")));
        assert!(plain.lines().any(|l| l.starts_with("host nproc=")));
        let values = check_result(&plain, &end_to_end, &format!("{name} untraced"));
        let ok = values
            .iter()
            .find(|(n, _)| n == "ok_share")
            .expect("ok_share");
        assert_eq!(ok.1, 1.0, "{name}");

        let traced = run(name, true);
        let values = check_result(&traced, &per_layer, &format!("{name} traced"));
        let shares: f64 = values
            .iter()
            .filter(|(n, _)| n.starts_with("share."))
            .map(|(_, v)| v)
            .sum();
        assert!(
            (shares - 100.0).abs() < 1e-6,
            "{name}: layer shares sum to {shares}%, not 100%"
        );
        let trace_file = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-seed3.json"));
        let chrome = std::fs::read_to_string(&trace_file).expect("the traced run wrote its spans");
        assert!(json::parse(&chrome).is_ok(), "{name}: Chrome trace is JSON");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "1"][..],
        &["--workload", "dse_sweep", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark starts");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
