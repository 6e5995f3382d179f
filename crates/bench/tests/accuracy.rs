//! The accuracy gate: every Table 1–4 error and Figure 3's estimate,
//! checked to 1e-9 against the committed `BENCH_accuracy.json`. The
//! figures are deterministic, so a row moves only when the model does;
//! such a change must re-commit the file and name the rows it moved.
//! The failure message lists the moved rows and prints the fresh file.
//!
//! Runs the ISS and HLS references, which is slow in debug builds, so
//! it is ignored by default; CI runs it with
//! `cargo test --release -p scperf-bench --test accuracy -- --ignored`.

use scperf_bench::calibration::calibrate;
use scperf_bench::{figures, tables};
use scperf_serve::json::{parse, Json};

/// Vocoder frames of Table 3, as the benchmark's accuracy pass runs it.
const TABLE3_FRAMES: usize = 8;
/// Vocoder frames of Table 3, as the `table3` binary and EXPERIMENTS.md
/// publish it.
const TABLE3_PUBLISHED_FRAMES: usize = 32;
/// Vocoder frames of Table 4, as the `table4` binary runs it.
const TABLE4_FRAMES: usize = 2;
/// Largest tolerated change of any figure (they are deterministic).
const TOLERANCE: f64 = 1e-9;

const NOTE: &str = "Accuracy gate: Table 1-4 errors (%) against the in-tree ISS and HLS \
    references and Figure 3's estimate (cycles); checked to 1e-9 by \
    crates/bench/tests/accuracy.rs";

/// Every gated figure, by name, in document order.
fn measure() -> Vec<(String, f64)> {
    let cal = calibrate();
    let mut rows = vec![("figure3/cycles".to_string(), figures::figure3_estimate())];
    for r in tables::table1(&cal, 1) {
        rows.push((format!("table1/{}/err_pct", r.name), r.err_pct));
    }
    for (table, hw_rows) in [
        ("table2", tables::table2()),
        ("table4", tables::table4(TABLE4_FRAMES)),
    ] {
        for r in hw_rows {
            rows.push((format!("{table}/{}/wc_err_pct", r.name), r.wc_err_pct));
            rows.push((format!("{table}/{}/bc_err_pct", r.name), r.bc_err_pct));
        }
    }
    for r in tables::table3(&cal, TABLE3_FRAMES).rows {
        rows.push((format!("table3/{}/err_pct", r.name), r.err_pct));
    }
    for r in tables::table3(&cal, TABLE3_PUBLISHED_FRAMES).rows {
        rows.push((format!("table3@32/{}/err_pct", r.name), r.err_pct));
    }
    rows
}

/// The document `BENCH_accuracy.json` holds for `rows`.
fn render(rows: &[(String, f64)]) -> String {
    let mut lines = vec![format!("  \"note\": {NOTE:?}")];
    lines.extend(rows.iter().map(|(name, v)| format!("  {name:?}: {v:?}")));
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

#[test]
#[ignore = "runs the ISS and HLS references; run with --release -- --ignored"]
fn tables_1_to_4_and_figure_3_match_the_committed_figures() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_accuracy.json");
    let fresh = measure();
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let Ok(Json::Obj(members)) = parse(&text) else {
        panic!(
            "{path} is missing or malformed; fresh document:\n{}",
            render(&fresh)
        );
    };
    let committed: Vec<(String, f64)> = members
        .into_iter()
        .filter_map(|(name, v)| v.as_f64().map(|v| (name, v)))
        .collect();
    let mut moved: Vec<String> = fresh
        .iter()
        .filter_map(
            |(name, now)| match committed.iter().find(|(n, _)| n == name) {
                Some((_, was)) if (now - was).abs() <= TOLERANCE => None,
                Some((_, was)) => Some(format!("  {name}: {was} -> {now}")),
                None => Some(format!("  {name}: new row, {now}")),
            },
        )
        .collect();
    moved.extend(
        committed
            .iter()
            .filter(|(name, _)| !fresh.iter().any(|(n, _)| n == name))
            .map(|(name, was)| format!("  {name}: row gone, was {was}")),
    );
    assert!(
        moved.is_empty(),
        "accuracy figures moved:\n{}\nfresh document:\n{}",
        moved.join("\n"),
        render(&fresh)
    );
}
