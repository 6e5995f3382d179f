//! Golden scheduler tests: the paper's vocoder case study must keep
//! simulating exactly as it does today — same functional output, same
//! [`SimSummary`], and (untimed) the same functional trace. The expected
//! values are constants taken from the scheduler as it stood when these
//! tests were written, so a scheduler rewrite (there is no second
//! scheduler in the build to compare against) is checked across commits:
//! anything that moves a constant changed simulation semantics, not just
//! host performance.

use std::cell::Cell;
use std::rc::Rc;

use scperf_core::{CostTable, Op, Platform, SimConfig};
use scperf_kernel::trace::functional_projection;
use scperf_kernel::{SimOptions, SimSummary, StopReason, Time, TraceMode};
use scperf_workloads::table1_cases;
use scperf_workloads::vocoder::pipeline::{build, build_plain, VocoderMapping, STAGE_NAMES};

const NFRAMES: usize = 12;

/// The decoded-output checksum of `NFRAMES` frames, whichever way the
/// pipeline is simulated.
const OUTPUT_CHECKSUM: i32 = -331_107_748;

/// FNV-1a-64 over every field of every functional-trace row, each field
/// terminated by a `0xff` byte (which never occurs in UTF-8).
fn fnv1a64(rows: &[(String, String, String)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (a, b, c) in rows {
        for field in [a, b, c] {
            for &byte in field.as_bytes().iter().chain(&[0xff]) {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The untimed five-stage vocoder — blocking FIFOs all the way through —
/// runs entirely in delta cycles at time zero.
#[test]
fn untimed_vocoder_matches_golden_values() {
    let mut sim = SimOptions::new().tracing(TraceMode::Unbounded).build();
    let out = build_plain(&mut sim, NFRAMES);
    let summary = sim.run().expect("vocoder runs to completion");
    let chk = out.lock().expect("sink produced a checksum");
    let projection = functional_projection(&sim.take_trace());

    assert_eq!(chk, OUTPUT_CHECKSUM);
    assert_eq!(
        summary,
        SimSummary {
            end_time: Time::ZERO,
            deltas: 16,
            activations: 48,
            reason: StopReason::EventsExhausted,
        }
    );
    assert_eq!(projection.len(), 144);
    assert_eq!(fnv1a64(&projection), 0x7c3e_47a0_4ad1_2fc5);
}

/// The strict-timed vocoder on two processors and an accelerator
/// (stages on cpu0/cpu1/hw/cpu0/cpu1): resource arbitration, HW
/// critical paths and segment-site memoization all shape the schedule.
#[test]
fn strict_timed_mixed_mapping_matches_golden_values() {
    let clock = Time::ns(10);
    let mut platform = Platform::new();
    let cpu0 = platform.sequential("cpu0", clock, CostTable::risc_sw(), 150.0);
    let cpu1 = platform.sequential("cpu1", clock, CostTable::risc_sw(), 150.0);
    let hw = platform.parallel("hw", clock, CostTable::asic_hw(), 0.5);
    let mut session = SimConfig::new().platform(platform).build();
    let mapping = VocoderMapping {
        lsp: cpu0,
        lpc_int: cpu1,
        acb: hw,
        icb: cpu0,
        post: cpu1,
    };
    let handles = {
        let (sim, model) = session.parts_mut();
        build(sim, model, mapping, NFRAMES)
    };
    let summary = session.run().expect("vocoder runs to completion");
    let chk = handles.output.lock().expect("sink produced a checksum");

    assert_eq!(chk, OUTPUT_CHECKSUM);
    assert_eq!(
        summary,
        SimSummary {
            end_time: Time::ps(19_319_635_000),
            deltas: 167,
            activations: 214,
            reason: StopReason::EventsExhausted,
        }
    );
}

/// A software cost table whose costs are not dyadic fractions, so every
/// running sum rounds: a reordered or regrouped charge moves the last
/// bits of an estimate, which a 1e-9 tolerance on an error percentage
/// would miss. It also turns segment-site memoization off (the table is
/// not integral), so every operation charges live.
fn fractional_sw() -> CostTable {
    CostTable::from_pairs([
        (Op::Assign, 1.3),
        (Op::Add, 0.7),
        (Op::Mul, 2.9),
        (Op::Div, 31.1),
        (Op::FAdd, 38.3),
        (Op::FMul, 47.9),
        (Op::FDiv, 88.7),
        (Op::Cmp, 1.1),
        (Op::Logic, 0.9),
        (Op::Shift, 1.7),
        (Op::Index, 2.3),
        (Op::Branch, 2.1),
        (Op::Call, 6.7),
    ])
}

/// The strict-timed vocoder with every stage on one CPU costed by
/// [`fractional_sw`]: each stage's cycle estimate is pinned bit for bit.
#[test]
fn strict_timed_fractional_table_matches_golden_bits() {
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu0", Time::ns(10), fractional_sw(), 150.0);
    let mut session = SimConfig::new().platform(platform).build();
    let handles = {
        let (sim, model) = session.parts_mut();
        build(sim, model, VocoderMapping::all_on(cpu), NFRAMES)
    };
    let summary = session.run().expect("vocoder runs to completion");
    let chk = handles.output.lock().expect("sink produced a checksum");
    let report = session.report();
    let bits: Vec<u64> = STAGE_NAMES
        .iter()
        .map(|name| report.process(name).expect("stage").total_cycles.to_bits())
        .collect();

    assert_eq!(chk, OUTPUT_CHECKSUM);
    assert_eq!(bits, STAGE_CYCLE_BITS, "{bits:#x?}");
    assert_eq!(
        summary,
        SimSummary {
            end_time: Time::ps(76_983_898_000),
            deltas: 187,
            activations: 418,
            reason: StopReason::EventsExhausted,
        }
    );
}

/// `total_cycles.to_bits()` of each vocoder stage under [`fractional_sw`].
const STAGE_CYCLE_BITS: [u64; 5] = [
    0x411c_0c44_0000_0014,
    0x40e2_8fb3_3333_3344,
    0x4158_b008_d999_9547,
    0x40fa_cf09_9999_9aa5,
    0x4122_53ea_6666_644e,
];

/// Each Table 1 body, run alone on one CPU costed by [`fractional_sw`]:
/// its checksum and its cycle estimate, bit for bit.
#[test]
fn table1_bodies_match_golden_bits_on_a_fractional_table() {
    let got: Vec<(&str, i32, u64)> = table1_cases()
        .into_iter()
        .map(|case| {
            let mut platform = Platform::new();
            let cpu = platform.sequential("cpu0", Time::ns(10), fractional_sw(), 25.0);
            let mut session = SimConfig::new().platform(platform).build();
            let out = Rc::new(Cell::new(0_i32));
            let slot = Rc::clone(&out);
            let body = case.annotated;
            session.spawn("bench", cpu, move |_ctx| slot.set(body()));
            session.run().expect("bench session runs");
            let cycles = session
                .report()
                .process("bench")
                .expect("bench")
                .total_cycles;
            (case.name, out.get(), cycles.to_bits())
        })
        .collect();
    assert_eq!(got, TABLE1_GOLDEN, "{got:#x?}");
}

/// `(name, checksum, total_cycles.to_bits())` per Table 1 body under
/// [`fractional_sw`].
const TABLE1_GOLDEN: [(&str, i32, u64); 6] = [
    ("FIR", 1101, 0x410f_1e70_cccc_cbe5),
    ("Compress", 1_575_516_452, 0x4100_c61c_0000_1127),
    ("Quick sort", 437_635_836, 0x40fc_07fe_6666_7da6),
    ("Bubble", 31_222_519, 0x4104_c0e7_3333_4260),
    ("Fibonacci", 2584, 0x40f9_00e8_0000_0057),
    ("Array", 1_931_842, 0x40c9_80a6_6666_65c2),
];
