//! The four experiment tables of §5.

use std::fmt;

use scperf_core::{CostTable, Dfg, SimConfig};
use scperf_hls::{chained_critical_path, chained_sequential};
use scperf_kernel::{Simulator, Time};
use scperf_workloads::vocoder;

use crate::calibration::Calibration;
use crate::harness::{self, CLOCK};

// ================================================================ Table 1 ==

/// One row of Table 1 (SW estimation results for sequential benchmarks).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Library-estimated target cycles.
    pub lib_cycles: f64,
    /// Library-estimated target time (µs).
    pub lib_us: f64,
    /// ISS reference cycles.
    pub iss_cycles: u64,
    /// ISS reference time (µs).
    pub iss_us: f64,
    /// Estimation error (%).
    pub err_pct: f64,
    /// Host time of the plain (untimed) simulation (ms).
    pub host_plain_ms: f64,
    /// Host time of the library (strict-timed) simulation (ms).
    pub host_lib_ms: f64,
    /// Host time of the ISS execution (ms).
    pub host_iss_ms: f64,
    /// Slowdown of the library simulation w.r.t. the plain one.
    pub overhead: f64,
    /// Speedup of the library simulation w.r.t. the ISS.
    pub gain: f64,
}

/// Table 1: runs the six sequential benchmarks through all three paths.
///
/// `reps` repeats each host-time measurement, keeping the minimum.
pub fn table1(cal: &Calibration, reps: usize) -> Vec<Table1Row> {
    scperf_workloads::table1_cases()
        .into_iter()
        .map(|case| {
            let est = harness::estimate(&cal.table, case.annotated);
            let (host_iss, (iss_cycles, iss_value)) = harness::min_time(reps, || {
                let (t, c, v) = harness::time_iss(&case.minic);
                (t, (c, v))
            });
            assert_eq!(est.value, iss_value, "{}: forms disagree", case.name);
            let (host_plain, plain_value) =
                harness::min_time(reps, || harness::time_plain(case.plain));
            assert_eq!(est.value, plain_value, "{}: plain disagrees", case.name);
            let (host_lib, _) = harness::min_time(reps, || {
                let (t, end, v) = harness::time_strict_timed(&cal.table, case.annotated);
                (t, (end, v))
            });
            let clock_us = CLOCK.as_ns_f64() / 1000.0;
            Table1Row {
                name: case.name,
                lib_cycles: est.cycles,
                lib_us: est.cycles * clock_us,
                iss_cycles,
                iss_us: iss_cycles as f64 * clock_us,
                err_pct: harness::pct_error(est.cycles, iss_cycles as f64),
                host_plain_ms: host_plain.as_secs_f64() * 1e3,
                host_lib_ms: host_lib.as_secs_f64() * 1e3,
                host_iss_ms: host_iss.as_secs_f64() * 1e3,
                overhead: host_lib.as_secs_f64() / host_plain.as_secs_f64().max(1e-9),
                gain: host_iss.as_secs_f64() / host_lib.as_secs_f64().max(1e-9),
            }
        })
        .collect()
}

/// Renders Table 1 in the paper's layout.
pub fn format_table1(rows: &[Table1Row]) -> String {
    use fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1. SW estimation results for sequential benchmarks (100 MHz target)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>12} {:>7} | {:>10} {:>10} {:>10} {:>9} {:>9}",
        "Benchmark",
        "Lib est us",
        "ISS us",
        "ISS cyc",
        "Err %",
        "plain ms",
        "lib ms",
        "ISS ms",
        "overhead",
        "gain"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>12.2} {:>12.2} {:>12} {:>7.2} | {:>10.3} {:>10.3} {:>10.3} {:>8.1}x {:>8.1}x",
            r.name,
            r.lib_us,
            r.iss_us,
            r.iss_cycles,
            r.err_pct,
            r.host_plain_ms,
            r.host_lib_ms,
            r.host_iss_ms,
            r.overhead,
            r.gain
        );
    }
    out
}

// ================================================================ Table 2 ==

/// One row pair of Table 2 / Table 4 (HW estimation results).
#[derive(Debug, Clone)]
pub struct HwRow {
    /// Benchmark name.
    pub name: String,
    /// Real worst-case time from the synthesis scheduler (ns).
    pub wc_real_ns: f64,
    /// Estimated worst-case time (ns).
    pub wc_est_ns: f64,
    /// Worst-case error (%).
    pub wc_err_pct: f64,
    /// Real best-case time from the synthesis scheduler (ns).
    pub bc_real_ns: f64,
    /// Estimated best-case time (ns).
    pub bc_est_ns: f64,
    /// Best-case error (%).
    pub bc_err_pct: f64,
}

/// The "real" synthesis references, playing the role of the paper's
/// Concentric results. A behavioral synthesis tool *chains* operations —
/// several dependent operations share a clock cycle when their raw
/// combinational delays fit — whereas the library's model rounds every
/// operation up to a whole number of cycles (§3). The references therefore
/// schedule the same DFG in continuous time with the raw delay table:
/// worst case = fully sequential chained datapath, best case = chained
/// critical path (time-constrained synthesis).
pub fn hw_references(dfg: &Dfg) -> (u64, u64) {
    let raw = CostTable::asic_hw();
    let wc = chained_sequential(dfg, &raw).ceil() as u64;
    let bc = chained_critical_path(dfg, &raw).ceil() as u64;
    (wc, bc)
}

/// Builds one HW comparison row from a recorded DFG and the estimator's
/// (T_min, T_max).
pub fn hw_row(name: impl Into<String>, dfg: &Dfg, t_min: f64, t_max: f64) -> HwRow {
    let clock_ns = CLOCK.as_ns_f64();
    let (wc_real, bc_real) = hw_references(dfg);
    let wc_real_ns = wc_real as f64 * clock_ns;
    let bc_real_ns = bc_real as f64 * clock_ns;
    let wc_est_ns = t_max * clock_ns;
    let bc_est_ns = t_min * clock_ns;
    HwRow {
        name: name.into(),
        wc_real_ns,
        wc_est_ns,
        wc_err_pct: harness::pct_error(wc_est_ns, wc_real_ns),
        bc_real_ns,
        bc_est_ns,
        bc_err_pct: harness::pct_error(bc_est_ns, bc_real_ns),
    }
}

/// Table 2: HW estimation for the FIR sample kernel and the Euler step.
pub fn table2() -> Vec<HwRow> {
    let (fir_dfg, fir_tmin, fir_tmax) = harness::record_hw_dfg(CostTable::asic_hw(), || {
        let _ = scperf_workloads::fir::annotated_one_sample(7);
    });
    let (euler_dfg, eu_tmin, eu_tmax) = harness::record_hw_dfg(CostTable::asic_hw(), || {
        use scperf_core::G;
        let (x, v) =
            scperf_workloads::euler::step_annotated(G::raw(0.4), G::raw(-0.1), G::raw(2.25));
        let _ = (x, v);
    });
    vec![
        hw_row("FIR", &fir_dfg, fir_tmin, fir_tmax),
        hw_row("Euler", &euler_dfg, eu_tmin, eu_tmax),
    ]
}

/// Renders Table 2 / Table 4 in the paper's layout (one WC and one BC row
/// per benchmark).
pub fn format_hw_table(title: &str, rows: &[HwRow]) -> String {
    use fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<18} {:>16} {:>18} {:>8}",
        "Benchmark", "Real exec (ns)", "Estimated (ns)", "Err %"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<18} {:>16.0} {:>18.0} {:>8.2}",
            format!("{} (WC)", r.name),
            r.wc_real_ns,
            r.wc_est_ns,
            r.wc_err_pct
        );
        let _ = writeln!(
            out,
            "{:<18} {:>16.0} {:>18.0} {:>8.2}",
            format!("{} (BC)", r.name),
            r.bc_real_ns,
            r.bc_est_ns,
            r.bc_err_pct
        );
    }
    out
}

// ================================================================ Table 3 ==

/// One row of Table 3 (vocoder process estimation).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Process name.
    pub name: &'static str,
    /// Library-estimated target cycles.
    pub lib_cycles: f64,
    /// Library-estimated target time (ms).
    pub lib_ms: f64,
    /// ISS reference cycles.
    pub iss_cycles: u64,
    /// ISS reference time (ms).
    pub iss_ms: f64,
    /// Estimation error (%).
    pub err_pct: f64,
}

/// The complete Table 3 result.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Per-process rows, in pipeline order.
    pub rows: Vec<Table3Row>,
    /// Frames simulated.
    pub nframes: usize,
    /// Host time of the plain pipeline simulation (ms).
    pub host_plain_ms: f64,
    /// Host time of the strict-timed pipeline simulation (ms).
    pub host_lib_ms: f64,
    /// Host time of the five ISS stage runs combined (ms).
    pub host_iss_ms: f64,
    /// Slowdown w.r.t. the plain simulation.
    pub overhead: f64,
    /// Speedup w.r.t. the ISS.
    pub gain: f64,
    /// End-to-end simulated time of the strict-timed run.
    pub sim_end: Time,
}

/// Table 3: the vocoder's five concurrent processes on one CPU.
pub fn table3(cal: &Calibration, nframes: usize) -> Table3 {
    let trace = vocoder::run_reference(nframes);

    // Strict-timed library run (also measures host time).
    let (platform, cpu) = harness::cpu_platform(cal.table.clone());
    let mut session = SimConfig::new().platform(platform).build();
    let (sim, model) = session.parts_mut();
    let handles = vocoder::pipeline::build(
        sim,
        model,
        vocoder::pipeline::VocoderMapping::all_on(cpu),
        nframes,
    );
    let start = std::time::Instant::now();
    let summary = session.run().expect("vocoder strict-timed run");
    let host_lib = start.elapsed();
    assert_eq!(
        handles.output.lock().expect("sink finished"),
        trace.checksums[4],
        "vocoder output mismatch"
    );
    let stage_chks = *handles.stages.lock();
    for (i, chk) in stage_chks.iter().enumerate() {
        assert_eq!(
            chk.expect("stage finished"),
            trace.checksums[i],
            "stage {i} checksum mismatch"
        );
    }
    let report = session.report();

    // Plain pipeline baseline.
    let mut plain_sim = Simulator::new();
    let plain_result = vocoder::pipeline::build_plain(&mut plain_sim, nframes);
    let start = std::time::Instant::now();
    plain_sim.run().expect("vocoder plain run");
    let host_plain = start.elapsed();
    assert_eq!(plain_result.lock().unwrap(), trace.checksums[4]);

    // Per-stage ISS references.
    let stage_programs = [
        vocoder::minic_gen::lsp(&trace),
        vocoder::minic_gen::lpc_int(&trace),
        vocoder::minic_gen::acb(&trace),
        vocoder::minic_gen::icb(&trace),
        vocoder::minic_gen::post(&trace),
    ];
    let clock_ms = CLOCK.as_ns_f64() / 1e6;
    let mut host_iss_total = std::time::Duration::ZERO;
    let mut rows = Vec::new();
    for (i, (name, src)) in vocoder::pipeline::STAGE_NAMES
        .iter()
        .zip(&stage_programs)
        .enumerate()
    {
        let (host, cycles, value) = harness::time_iss(src);
        assert_eq!(value, trace.checksums[i], "{name}: ISS checksum mismatch");
        host_iss_total += host;
        let p = report.process(name).expect("stage reported");
        rows.push(Table3Row {
            name,
            lib_cycles: p.total_cycles,
            lib_ms: p.total_cycles * clock_ms,
            iss_cycles: cycles,
            iss_ms: cycles as f64 * clock_ms,
            err_pct: harness::pct_error(p.total_cycles, cycles as f64),
        });
    }
    Table3 {
        rows,
        nframes,
        host_plain_ms: host_plain.as_secs_f64() * 1e3,
        host_lib_ms: host_lib.as_secs_f64() * 1e3,
        host_iss_ms: host_iss_total.as_secs_f64() * 1e3,
        overhead: host_lib.as_secs_f64() / host_plain.as_secs_f64().max(1e-9),
        gain: host_iss_total.as_secs_f64() / host_lib.as_secs_f64().max(1e-9),
        sim_end: summary.end_time,
    }
}

/// Renders Table 3 in the paper's layout.
pub fn format_table3(t: &Table3) -> String {
    use fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3. SW estimation results for the vocoder ({} frames, 100 MHz target)",
        t.nframes
    );
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>12} {:>8}",
        "Process", "Lib est ms", "ISS ms", "ISS cyc", "Err %"
    );
    for r in &t.rows {
        let _ = writeln!(
            out,
            "{:<12} {:>12.3} {:>12.3} {:>12} {:>8.2}",
            r.name, r.lib_ms, r.iss_ms, r.iss_cycles, r.err_pct
        );
    }
    let _ = writeln!(
        out,
        "host: plain {:.2} ms, library {:.2} ms, ISS {:.2} ms — overhead {:.1}x, gain {:.1}x",
        t.host_plain_ms, t.host_lib_ms, t.host_iss_ms, t.overhead, t.gain
    );
    let _ = writeln!(out, "simulated end-to-end time: {}", t.sim_end);
    out
}

// ================================================================ Table 4 ==

/// Table 4: the vocoder post-processing function mapped to HW.
pub fn table4(nframes: usize) -> Vec<HwRow> {
    let trace = vocoder::run_reference(nframes);
    let aq = trace.aq[0].clone();
    let exc = trace.exc[0].clone();
    let (dfg, t_min, t_max) = harness::record_hw_dfg(CostTable::asic_hw(), move || {
        use scperf_core::{GArr, G};
        let mut synth_hist = GArr::<i32>::zeroed(vocoder::ORDER);
        let mut deemph = G::raw(0_i32);
        let mut chk = G::raw(0_i32);
        let aq = GArr::from_vec(aq);
        let exc = GArr::from_vec(exc);
        let _ = vocoder::stages::post_annotated(&mut synth_hist, &mut deemph, &aq, &exc, &mut chk);
    });
    vec![hw_row("Post Proc.", &dfg, t_min, t_max)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_have_expected_shape() {
        let rows = table2();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // WC is always slower than BC, in both real and estimated form.
            assert!(r.wc_real_ns >= r.bc_real_ns, "{}", r.name);
            assert!(r.wc_est_ns >= r.bc_est_ns, "{}", r.name);
            // Estimates bracket reality: T_max >= real WC is not guaranteed
            // in general, but errors must stay single/low-double digit.
            assert!(
                r.wc_err_pct < 20.0,
                "{} WC err {:.1}%",
                r.name,
                r.wc_err_pct
            );
            assert!(
                r.bc_err_pct < 20.0,
                "{} BC err {:.1}%",
                r.name,
                r.bc_err_pct
            );
        }
    }

    #[test]
    fn table4_postproc_hw_row() {
        let rows = table4(2);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.wc_real_ns > 0.0);
        assert!(r.wc_est_ns >= r.bc_est_ns);
        assert!(
            r.wc_err_pct < 20.0 && r.bc_err_pct < 20.0,
            "WC {:.1}% BC {:.1}%",
            r.wc_err_pct,
            r.bc_err_pct
        );
    }
}
