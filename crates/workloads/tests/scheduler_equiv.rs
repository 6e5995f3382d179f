//! Scheduler-equivalence tests: parallel evaluation must be
//! *observationally identical* to the sequential kernel on a real
//! workload — same functional output, same [`SimSummary`], and a
//! bit-identical functional trace. Anything less means the parallel
//! kernel changed simulation semantics, not just host performance.

use scperf_kernel::trace::functional_projection;
use scperf_kernel::{SimOptions, SimSummary, TraceMode};
use scperf_workloads::vocoder::pipeline::build_plain;

const NFRAMES: usize = 12;

fn run_vocoder_jobs(jobs: usize) -> (i32, SimSummary, Vec<(String, String, String)>) {
    let mut sim = SimOptions::new()
        .jobs(jobs)
        .tracing(TraceMode::Unbounded)
        .build();
    let out = build_plain(&mut sim, NFRAMES);
    let summary = sim.run().expect("vocoder runs to completion");
    let chk = out.lock().expect("sink produced a checksum");
    (chk, summary, functional_projection(&sim.take_trace()))
}

/// The five-stage vocoder pipeline — blocking FIFOs all the way through,
/// the paper's own case study — under parallel evaluation
/// (`jobs ∈ {2, 8}`) must reproduce the sequential run exactly: same
/// checksum, same summary, same functional trace. This is the
/// paper-case-study instance of the determinism contract in
/// `docs/PARALLELISM.md`.
#[test]
fn vocoder_trace_is_bit_identical_across_jobs() {
    let (chk_1, sum_1, trace_1) = run_vocoder_jobs(1);
    for jobs in [2usize, 8] {
        let (chk_j, sum_j, trace_j) = run_vocoder_jobs(jobs);
        assert_eq!(chk_1, chk_j, "functional checksum diverged at jobs={jobs}");
        assert_eq!(sum_1, sum_j, "summary diverged at jobs={jobs}");
        assert_eq!(trace_1, trace_j, "functional trace diverged at jobs={jobs}");
    }
}
