//! paper_tables: repeated passes of the paper's one-shot estimates, and
//! the accuracy figures every run reports.
//!
//! One pass is a strict-timed estimate of Table 1's six programs and of
//! Table 3's vocoder (all stages on one CPU), plus the Table 2 and
//! Table 4 HW segments. The calibrated cost table is fractional, so no
//! memoization, trace cache or pool takes part.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use scperf_bench::calibration::{calibrate, Calibration};
use scperf_bench::{harness, tables};
use scperf_core::{CostTable, GArr, Mode, Session, SimConfig, G};
use scperf_kernel::{SimSummary, Simulator};
use scperf_workloads::vocoder::{self, pipeline, VocoderTrace};
use scperf_workloads::{table1_cases, BenchCase};

use crate::gen::{self, Digest};
use crate::host;
use crate::measure::{count_metrics, OpCounts, Results, RunCfg, Timed};
use crate::trace::{self, OpTrace, Trace};

/// Vocoder frames of the Table 3 estimate (`table3 8`).
fn vocoder_frames(tiny: bool) -> usize {
    if tiny {
        1
    } else {
        8
    }
}

/// Frames whose data feeds the Table 4 post-processing segment, as the
/// `table4` binary sets it.
const TABLE4_FRAMES: usize = 2;

/// Host time of the plain (un-annotated) vocoder of `nframes` frames on
/// the bare kernel — the base of `est.ns_per_charge` and
/// `est.overhead_x`, as in the paper's overhead column.
pub fn plain_vocoder_ns(nframes: usize) -> u64 {
    let mut sim = Simulator::new();
    let out = pipeline::build_plain(&mut sim, nframes);
    let t = Instant::now();
    sim.run().expect("plain vocoder runs");
    let ns = t.elapsed().as_nanos() as u64;
    assert!(out.lock().is_some(), "plain vocoder produced output");
    ns
}

/// Everything a pass estimates, as exact bits.
#[derive(Debug, Clone, PartialEq)]
struct Pass {
    /// Table 1: (cycles bits, returned checksum) per program.
    programs: Vec<(u64, i32)>,
    /// Table 3: cycles bits per stage, end time, stage and output
    /// checksums.
    stage_cycles: Vec<u64>,
    end_ps: u64,
    stage_checksums: Vec<i32>,
    output: i32,
    /// Tables 2 and 4: (T_min bits, T_max bits) per HW segment.
    hw: Vec<(u64, u64)>,
}

impl Pass {
    fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for &(c, v) in &self.programs {
            d.mix(c);
            d.mix(v as u64);
        }
        for &c in &self.stage_cycles {
            d.mix(c);
        }
        d.mix(self.end_ps);
        for &c in &self.stage_checksums {
            d.mix(c as u64);
        }
        d.mix(self.output as u64);
        for &(a, b) in &self.hw {
            d.mix(a);
            d.mix(b);
        }
        d
    }
}

/// The pass's inputs, prepared at set-up.
struct Inputs {
    cal: Calibration,
    cases: Vec<BenchCase>,
    nframes: usize,
    table4: VocoderTrace,
}

/// Spans `f` when tracing, else just runs it.
fn step<R>(op: &mut Option<OpTrace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match op {
        Some(op) => op.span(name, f),
        None => f(),
    }
}

/// Runs a built session; when tracing, spans the run and adds the
/// session's counters to `k`.
fn run_session(op: &mut Option<OpTrace>, s: &mut Session, k: &mut OpCounts) -> SimSummary {
    let Some(o) = op else {
        return s.run().expect("strict-timed run");
    };
    let (summary, run_ns) = o.span_ns("kernel.run", || s.run());
    let summary = summary.expect("strict-timed run");
    let metrics = o.span("trace.counters", || s.metrics());
    k.add_session(
        &metrics,
        &s.model().hot_stats(),
        summary.activations,
        run_ns,
    );
    summary
}

/// One pass, visiting the Table 1 programs in `order`. With `op`, every
/// public call is spanned and counters are read at the same boundaries.
fn pass(
    inp: &Inputs,
    order: &[usize],
    mut op: Option<OpTrace>,
) -> (Pass, OpCounts, Option<OpTrace>) {
    let mut k = OpCounts::default();
    let mut programs = vec![(0, 0); inp.cases.len()];
    for &c in order {
        let case = &inp.cases[c];
        let (platform, cpu) = harness::cpu_platform(inp.cal.table.clone());
        let config = SimConfig::new().platform(platform).mode(Mode::StrictTimed);
        let mut s = step(&mut op, "session.build", || config.build());
        let value = Arc::new(Mutex::new(0_i32));
        let body = case.annotated;
        let v = Arc::clone(&value);
        step(&mut op, "workloads.elaborate", || {
            s.spawn("bench", cpu, move |_| {
                *v.lock().expect("value lock") = body()
            });
        });
        run_session(&mut op, &mut s, &mut k);
        let report = step(&mut op, "est.report", || s.report());
        let cycles = report
            .process("bench")
            .expect("process reported")
            .total_cycles;
        programs[c] = (cycles.to_bits(), *value.lock().expect("value lock"));
        step(&mut op, "session.teardown", || drop(s));
    }

    let (platform, cpu) = harness::cpu_platform(inp.cal.table.clone());
    let config = SimConfig::new().platform(platform).mode(Mode::StrictTimed);
    let mut s = step(&mut op, "session.build", || config.build());
    let handles = {
        let (sim, model) = s.parts_mut();
        step(&mut op, "workloads.elaborate", || {
            pipeline::build(
                sim,
                model,
                pipeline::VocoderMapping::all_on(cpu),
                inp.nframes,
            )
        })
    };
    let summary = run_session(&mut op, &mut s, &mut k);
    let report = step(&mut op, "est.report", || s.report());
    let stage_cycles = pipeline::STAGE_NAMES
        .iter()
        .map(|n| {
            report
                .process(n)
                .expect("stage reported")
                .total_cycles
                .to_bits()
        })
        .collect();
    let stage_checksums = handles
        .stages
        .lock()
        .iter()
        .map(|c| c.expect("stage finished"))
        .collect();
    let output = handles.output.lock().expect("sink finished");
    step(&mut op, "session.teardown", || drop(s));

    let mut hw = Vec::with_capacity(3);
    let mut segment = |op: &mut Option<OpTrace>, body: Box<dyn FnOnce() + Send>| {
        let (_, t_min, t_max) = step(op, "est.hw_segment", || {
            harness::record_hw_dfg(CostTable::asic_hw(), body)
        });
        hw.push((t_min.to_bits(), t_max.to_bits()));
    };
    segment(
        &mut op,
        Box::new(|| {
            let _ = scperf_workloads::fir::annotated_one_sample(7);
        }),
    );
    segment(
        &mut op,
        Box::new(|| {
            let _ =
                scperf_workloads::euler::step_annotated(G::raw(0.4), G::raw(-0.1), G::raw(2.25));
        }),
    );
    let (aq, exc) = (inp.table4.aq[0].clone(), inp.table4.exc[0].clone());
    segment(
        &mut op,
        Box::new(move || {
            let mut synth_hist = GArr::<i32>::zeroed(vocoder::ORDER);
            let mut deemph = G::raw(0_i32);
            let mut chk = G::raw(0_i32);
            let aq = GArr::from_vec(aq);
            let exc = GArr::from_vec(exc);
            let _ =
                vocoder::stages::post_annotated(&mut synth_hist, &mut deemph, &aq, &exc, &mut chk);
        }),
    );

    let out = Pass {
        programs,
        stage_cycles,
        end_ps: summary.end_time.as_ps(),
        stage_checksums,
        output,
        hw,
    };
    (out, k, op)
}

/// The checks every pass must pass: each program's checksum equals its
/// plain and ISS forms, the vocoder's equal the plain reference, and
/// every estimate equals the first pass's bit for bit.
struct Oracle {
    plain: Vec<i32>,
    iss: Vec<i32>,
    vocoder: VocoderTrace,
    first: Option<Pass>,
}

impl Oracle {
    fn new(inp: &Inputs) -> Oracle {
        Oracle {
            plain: inp
                .cases
                .iter()
                .map(|c| harness::time_plain(c.plain).1)
                .collect(),
            iss: inp.cases.iter().map(|c| c.run_iss().0).collect(),
            vocoder: vocoder::run_reference(inp.nframes),
            first: None,
        }
    }

    fn check(&mut self, p: &Pass) -> bool {
        let forms = p
            .programs
            .iter()
            .zip(self.plain.iter().zip(&self.iss))
            .all(|(&(_, v), (&plain, &iss))| v == plain && v == iss);
        let voc = p.stage_checksums == self.vocoder.checksums[..5]
            && p.output == self.vocoder.checksums[4];
        let first = self.first.get_or_insert_with(|| p.clone());
        forms && voc && first == p
    }
}

fn inputs(cal: Calibration, tiny: bool) -> Inputs {
    Inputs {
        cal,
        cases: table1_cases(),
        nframes: vocoder_frames(tiny),
        table4: vocoder::run_reference(TABLE4_FRAMES),
    }
}

/// The untraced run.
pub fn run(cfg: &RunCfg) -> Results {
    let mut timed = Timed::default();
    let mut oracle = Oracle::new(&inputs(calibrate(), cfg.tiny));
    cfg.progress(format_args!("oracle pass"));
    let mut passes = 0;
    while timed.next_round(cfg) {
        let inp = inputs(timed.setup(calibrate), cfg.tiny);
        timed.measure(cfg, || {
            let order = gen::block_order(cfg.seed, 60, passes, inp.cases.len());
            passes += 1;
            let (p, _, _) = pass(&inp, &order, None);
            oracle.check(&p)
        });
    }
    timed.peak_rss_kib = host::peak_rss_kib();
    timed.digest = oracle.first.as_ref().map(Pass::digest).unwrap_or_default();
    timed.into_results()
}

/// The traced run: untraced passes (the `trace.overhead_pct` base), then
/// traced ones, each followed — outside its operation — by the plain
/// forms of its programs for the estimator's overhead.
pub fn run_traced(cfg: &RunCfg) -> (Results, Trace) {
    let mut r = Results::default();
    let inp = inputs(calibrate(), cfg.tiny);
    let mut oracle = Oracle::new(&inp);
    let (mut attempted, mut ok) = (0, 0);

    let mut untraced_ms = Vec::new();
    let until = cfg.until(0.5);
    while Instant::now() < until || untraced_ms.is_empty() {
        let order = gen::block_order(cfg.seed, 60, attempted, inp.cases.len());
        let t = Instant::now();
        let (p, _, _) = pass(&inp, &order, None);
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        ok += u64::from(oracle.check(&p));
    }
    cfg.progress(format_args!("untraced phase: {} passes", untraced_ms.len()));

    let epoch = Instant::now();
    let mut trace = Trace::default();
    let mut counts = Vec::new();
    let until = cfg.until(0.5);
    let mut i = 0;
    while Instant::now() < until || counts.is_empty() {
        let order = gen::block_order(cfg.seed, 60, attempted, inp.cases.len());
        let op = OpTrace::begin(epoch, i, 0, "op.pass");
        let (p, mut k, op) = pass(&inp, &order, Some(op));
        let mut op = op.expect("traced pass").finish();
        op.kind = "pass";
        trace.push(op);
        for case in &inp.cases {
            k.plain_ns += harness::time_plain(case.plain).0.as_nanos() as u64;
        }
        k.plain_ns += plain_vocoder_ns(inp.nframes);
        counts.push(k);
        attempted += 1;
        ok += u64::from(oracle.check(&p));
        i += 1;
    }
    cfg.progress(format_args!("traced phase: {i} passes"));

    count_metrics(&mut r, &counts, trace.total_wall());
    r.set(
        "trace.overhead_pct",
        trace::overhead_pct(&trace.op_ms(), &untraced_ms),
        counts.len() as u64,
    );
    r.attempted = attempted;
    r.failed = attempted - ok;
    r.digest = oracle
        .first
        .as_ref()
        .map(Pass::digest)
        .unwrap_or_default()
        .value();
    (r, trace)
}

/// The paper's accuracy figures, exactly as the `table1`–`table4`
/// binaries compute them (`table3` at 8 frames): the largest SW error
/// against the ISS over the Table 1 and Table 3 rows, and the largest
/// HW error against the HLS schedule over the Table 2 and Table 4 WC/BC
/// rows, in percent. Computed outside every timer.
pub fn accuracy(tiny: bool) -> (f64, f64, u64, u64) {
    let cal = calibrate();
    let t1 = tables::table1(&cal, 1);
    let t3 = tables::table3(&cal, vocoder_frames(tiny));
    let sw: Vec<f64> = t1
        .iter()
        .map(|r| r.err_pct)
        .chain(t3.rows.iter().map(|r| r.err_pct))
        .collect();
    let hw: Vec<f64> = tables::table2()
        .iter()
        .chain(&tables::table4(TABLE4_FRAMES))
        .flat_map(|r| [r.wc_err_pct, r.bc_err_pct])
        .collect();
    let max = |v: &[f64]| v.iter().copied().fold(0.0_f64, f64::max);
    (max(&sw), max(&hw), sw.len() as u64, hw.len() as u64)
}
