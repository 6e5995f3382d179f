//! Golden scheduler tests: the paper's vocoder case study must keep
//! simulating exactly as it does today — same functional output, same
//! [`SimSummary`], and (untimed) the same functional trace. The expected
//! values are constants taken from the scheduler as it stood when these
//! tests were written, so a scheduler rewrite (there is no second
//! scheduler in the build to compare against) is checked across commits:
//! anything that moves a constant changed simulation semantics, not just
//! host performance.

use scperf_core::{CostTable, Platform, SimConfig};
use scperf_kernel::trace::functional_projection;
use scperf_kernel::{SimOptions, SimSummary, StopReason, Time, TraceMode};
use scperf_workloads::vocoder::pipeline::{build, build_plain, VocoderMapping};

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
