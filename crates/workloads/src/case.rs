//! The uniform benchmark interface used by the Table 1/3 harnesses.

use std::cell::Cell;
use std::rc::Rc;

use scperf_core::{CostTable, EstHotStats, MemoMode, Platform, Report, SimConfig};
use scperf_kernel::Time;

/// One sequential benchmark: one generic source in its two meanings,
/// plus `minic`:
///
/// * `plain` — the kernel's [`Native`](scperf_core::Native)
///   instantiation, the reference result and the "original SystemC
///   specification" timing baseline;
/// * `annotated` — the same source's
///   [`Annotated`](scperf_core::Annotated) instantiation (charges costs
///   when run inside an analyzed [`scperf_core::Session`] process);
/// * `minic` — the same algorithm in `minic` source, compiled and executed
///   on the reference ISS. The program must leave its checksum in a global
///   named `result`.
///
/// All three must produce the same checksum on the same embedded input
/// data.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Benchmark name, matching the paper's Table 1 rows where possible.
    pub name: &'static str,
    /// Reference implementation.
    pub plain: fn() -> i32,
    /// Cost-annotated implementation.
    pub annotated: fn() -> i32,
    /// `minic` source (global `int result;` holds the checksum).
    pub minic: String,
}

impl BenchCase {
    /// Compiles and runs the minic form on a fresh cycle-accurate ISS
    /// (pipelined model, 8 KiB I-cache and 32 KiB D-cache — the Table 1/3
    /// reference configuration), returning `(checksum, stats)`.
    ///
    /// # Panics
    ///
    /// Panics if the program fails to compile or run — benchmark sources
    /// are fixtures, so failure is a bug.
    pub fn run_iss(&self) -> (i32, scperf_iss::RunStats) {
        let compiled = scperf_iss::minic::compile(&self.minic)
            .unwrap_or_else(|e| panic!("{}: minic compile error: {e}", self.name));
        let mut m = reference_machine();
        m.load(&compiled.program);
        let stats = m
            .run_pipelined(8_000_000_000)
            .unwrap_or_else(|e| panic!("{}: ISS run failed: {e}", self.name));
        (m.read_word(compiled.global("result")), stats)
    }
}

/// Runs `body` as the single analyzed process of one session on a
/// sequential RISC-SW resource under the given site-memoization mode.
/// Returns the body's checksum, the report and the hot-path counters.
///
/// This is the harness the memoized Table 1 kernels are compared under:
/// [`MemoMode::Off`], [`MemoMode::Replay`] and [`MemoMode::Verify`]
/// must produce bit-identical reports and checksums.
pub fn run_memoized(memo: MemoMode, body: fn() -> i32) -> (i32, Report, EstHotStats) {
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 25.0);
    let mut session = SimConfig::new().platform(platform).site_memo(memo).build();
    let out = Rc::new(Cell::new(0_i32));
    let slot = Rc::clone(&out);
    session.spawn("bench", cpu, move |_ctx| slot.set(body()));
    session.run().expect("bench session runs");
    (out.get(), session.report(), session.model().hot_stats())
}

/// The reference-ISS configuration shared by every experiment: the
/// cycle-stepped pipeline model with an 8 KiB instruction cache and a
/// 32 KiB data cache (an ARM926/OpenRISC-class memory system).
///
/// Memory is 64 KiB, enough for the largest published program (the
/// 32-frame vocoder stages). It is a multiple of the direct-mapped
/// D-cache's size, so the stack, which starts at the top of memory,
/// maps to the same cache sets as it would in any larger multiple.
pub fn reference_machine() -> scperf_iss::Machine {
    let mut m = scperf_iss::Machine::new(1 << 16);
    m.enable_icache(scperf_iss::CacheConfig {
        lines: 512,
        line_bytes: 16,
        miss_penalty: 10,
    });
    m.enable_dcache(scperf_iss::CacheConfig {
        lines: 2048,
        line_bytes: 16,
        miss_penalty: 10,
    });
    m
}
