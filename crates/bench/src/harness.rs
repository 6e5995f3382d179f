//! Shared experiment plumbing: the standard platform, single-process
//! estimation runs, host-time measurement and DFG recording.

use std::time::{Duration, Instant};

use scperf_core::{CostTable, Dfg, Mode, OpCounts, PerfModel, Platform, ResourceId};
use scperf_kernel::{Simulator, Time};

/// The experimental clock: 100 MHz, as a period.
pub const CLOCK: Time = Time::ns(10);

/// RTOS overhead per channel access / wait, in CPU cycles.
pub const RTOS_CYCLES: f64 = 150.0;

/// Builds the standard single-CPU platform with the given cost table.
pub fn cpu_platform(table: CostTable) -> (Platform, ResourceId) {
    let mut p = Platform::new();
    let cpu = p.sequential("cpu0", CLOCK, table, RTOS_CYCLES);
    (p, cpu)
}

/// Result of a single-process estimation run.
#[derive(Debug, Clone)]
pub struct EstimateRun {
    /// Estimated computation cycles (excluding RTOS overhead).
    pub cycles: f64,
    /// Estimated computation time on the target.
    pub time: Time,
    /// Source-level operation counts.
    pub counts: OpCounts,
    /// The function's return value (checksum).
    pub value: i32,
}

/// Runs `body` as the only analyzed process on a CPU with `table`,
/// collecting its estimate without back-annotation.
pub fn estimate(table: &CostTable, body: fn() -> i32) -> EstimateRun {
    let (platform, cpu) = cpu_platform(table.clone());
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::EstimateOnly);
    let value = std::sync::Arc::new(scperf_sync::Mutex::new(0_i32));
    {
        let value = std::sync::Arc::clone(&value);
        model.spawn(&mut sim, "bench", cpu, move |_ctx| {
            *value.lock() = body();
        });
    }
    sim.run().expect("estimation run");
    let report = model.report();
    let p = report.process("bench").expect("process reported");
    let result = *value.lock();
    EstimateRun {
        cycles: p.total_cycles,
        time: p.total_time,
        counts: p.counts,
        value: result,
    }
}

/// Host wall-clock time of a strict-timed single-process simulation of
/// `body` (the "library execution time" column of Table 1). Returns
/// `(host_time, simulated_end_time, value)`.
pub fn time_strict_timed(table: &CostTable, body: fn() -> i32) -> (Duration, Time, i32) {
    let (platform, cpu) = cpu_platform(table.clone());
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let value = std::sync::Arc::new(scperf_sync::Mutex::new(0_i32));
    {
        let value = std::sync::Arc::clone(&value);
        model.spawn(&mut sim, "bench", cpu, move |_ctx| {
            *value.lock() = body();
        });
    }
    let start = Instant::now();
    let summary = sim.run().expect("strict-timed run");
    let host = start.elapsed();
    let result = *value.lock();
    (host, summary.end_time, result)
}

/// Host wall-clock time of the plain, un-annotated simulation of `body`
/// (the "original SystemC specification" baseline). Returns
/// `(host_time, value)`.
pub fn time_plain(body: fn() -> i32) -> (Duration, i32) {
    let mut sim = Simulator::new();
    let value = std::sync::Arc::new(scperf_sync::Mutex::new(0_i32));
    {
        let value = std::sync::Arc::clone(&value);
        sim.spawn("bench", move |_ctx| {
            *value.lock() = body();
        });
    }
    let start = Instant::now();
    sim.run().expect("plain run");
    let host = start.elapsed();
    let result = *value.lock();
    (host, result)
}

/// Host wall-clock time of an execution on the reference ISS (the
/// cycle-stepped pipeline model with an 8 KiB I-cache and a 32 KiB
/// D-cache). Compilation is not timed. Returns `(host_time, cycles, checksum)`.
pub fn time_iss(minic_src: &str) -> (Duration, u64, i32) {
    let compiled = scperf_iss::minic::compile(minic_src).expect("benchmark compiles");
    let mut m = scperf_workloads::case::reference_machine();
    m.load(&compiled.program);
    let start = Instant::now();
    let stats = m.run_pipelined(8_000_000_000).expect("ISS run");
    let host = start.elapsed();
    (host, stats.cycles, m.read_word(compiled.global("result")))
}

/// Runs `body` as the only process on a parallel (HW) resource with DFG
/// recording and returns the recorded dataflow graph of its
/// entry-to-exit segment, plus the (T_min, T_max) the estimator tracked.
pub fn record_hw_dfg<F>(table: CostTable, body: F) -> (Dfg, f64, f64)
where
    F: FnOnce() + Send + 'static,
{
    let mut platform = Platform::new();
    let hw = platform.parallel("hw", CLOCK, table, 0.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::EstimateOnly);
    model.record_dfgs();
    model.spawn(&mut sim, "hw_seg", hw, move |_ctx| body());
    sim.run().expect("hw recording run");
    let report = model.report();
    let seg = &report.process("hw_seg").expect("hw process").segments[0];
    let (t_min, t_max) = (seg.stats.last_t_min, seg.stats.last_t_max);
    let dfgs = model.dfgs("hw_seg");
    let dfg = dfgs
        .into_iter()
        .next()
        .map(|(_, d)| d)
        .expect("dfg recorded");
    (dfg, t_min, t_max)
}

/// Repeats a host-time measurement and keeps the minimum (noise floor).
pub fn min_time<R>(reps: usize, mut f: impl FnMut() -> (Duration, R)) -> (Duration, R) {
    let (mut best, mut result) = f();
    for _ in 1..reps {
        let (t, r) = f();
        if t < best {
            best = t;
            result = r;
        }
    }
    (best, result)
}

/// Percentage error of `estimate` relative to `reference`.
pub fn pct_error(estimate: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        0.0
    } else {
        (estimate - reference).abs() / reference * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bench() -> i32 {
        let mut s = scperf_core::g_i32(0);
        for i in 0..100 {
            s = s + scperf_core::G::raw(i);
        }
        s.get()
    }

    #[test]
    fn estimate_collects_cycles_and_value() {
        let run = estimate(&CostTable::risc_sw(), tiny_bench);
        assert_eq!(run.value, 4950);
        assert!(run.cycles > 0.0);
        assert_eq!(run.counts.get(scperf_core::Op::Add), 100);
    }

    #[test]
    fn strict_timed_advances_simulation() {
        let (host, end, value) = time_strict_timed(&CostTable::risc_sw(), tiny_bench);
        assert_eq!(value, 4950);
        assert!(end > Time::ZERO);
        assert!(host > Duration::ZERO);
    }

    #[test]
    fn plain_run_is_untimed() {
        let (_, value) = time_plain(tiny_bench);
        assert_eq!(value, 4950);
    }

    #[test]
    fn record_dfg_from_hw_body() {
        let (dfg, t_min, t_max) = record_hw_dfg(CostTable::asic_hw(), || {
            let a = scperf_core::G::raw(1_i64);
            let b = a + a;
            let _ = b * b;
        });
        assert_eq!(dfg.len(), 2);
        assert!(t_min <= t_max);
        assert_eq!(dfg.critical_path() as f64, t_min);
        assert_eq!(dfg.sequential_cycles() as f64, t_max);
    }

    #[test]
    fn pct_error_basics() {
        assert_eq!(pct_error(110.0, 100.0), 10.0);
        assert_eq!(pct_error(90.0, 100.0), 10.0);
        assert_eq!(pct_error(5.0, 0.0), 0.0);
    }
}
