//! Cross-crate integration tests exercising the full stack through the
//! `scperf` facade: kernel + estimation library + workloads + ISS + HLS.

use scperf::core::{
    determinism, g_i64, timed_wait, CostTable, Mode, Platform, ResourceKind, SimConfig, G,
};
use scperf::kernel::Time;
use scperf::workloads::{table1_cases, vocoder};

const CLOCK: Time = Time::ns(10);

#[test]
fn every_table1_benchmark_agrees_across_all_three_forms() {
    for case in table1_cases() {
        let plain = (case.plain)();
        let annotated = (case.annotated)();
        let (iss, stats) = case.run_iss();
        assert_eq!(plain, annotated, "{}: annotated diverges", case.name);
        assert_eq!(plain, iss, "{}: ISS diverges", case.name);
        assert!(stats.cycles > stats.instructions, "{}", case.name);
    }
}

#[test]
fn estimation_error_stays_single_digit_with_default_table() {
    // Even the *uncalibrated* default table must stay within the right
    // order of magnitude (the calibrated run in scperf-bench tightens this
    // to single-digit percent).
    for case in table1_cases() {
        let mut platform = Platform::new();
        let cpu = platform.sequential("cpu", CLOCK, CostTable::risc_sw(), 0.0);
        let mut session = SimConfig::new()
            .platform(platform)
            .mode(Mode::EstimateOnly)
            .build();
        let body = case.annotated;
        session.spawn("b", cpu, move |_ctx| {
            let _ = body();
        });
        session.run().unwrap();
        let est = session.report().process("b").unwrap().total_cycles;
        let (_, stats) = case.run_iss();
        let ratio = est / stats.cycles as f64;
        assert!(
            (0.2..5.0).contains(&ratio),
            "{}: default-table ratio {ratio:.2} is implausible",
            case.name
        );
    }
}

#[test]
fn strict_timed_vocoder_runs_and_serializes_on_one_cpu() {
    let nframes = 4;
    let reference = vocoder::run_reference(nframes);
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu0", CLOCK, CostTable::risc_sw(), 150.0);
    let mut session = SimConfig::new().platform(platform).build();
    let (sim, model) = session.parts_mut();
    let handles = vocoder::pipeline::build(
        sim,
        model,
        vocoder::pipeline::VocoderMapping::all_on(cpu),
        nframes,
    );
    let summary = session.run().unwrap();
    assert_eq!(handles.output.lock().unwrap(), reference.checksums[4]);
    // One shared CPU: end-to-end time ≥ sum of all computation (full
    // serialization), and the CPU is never over-committed.
    let report = session.report();
    let total: Time = report
        .processes
        .iter()
        .map(|p| p.total_time + p.rtos_time)
        .sum();
    assert!(summary.end_time >= total);
    assert!(report.resources[0].busy_time <= summary.end_time);
}

#[test]
fn hw_mapping_shortens_the_pipeline() {
    let nframes = 3;
    let run = |mapping: vocoder::pipeline::VocoderMapping, platform: Platform| -> Time {
        let mut session = SimConfig::new().platform(platform).build();
        let (sim, model) = session.parts_mut();
        let _ = vocoder::pipeline::build(sim, model, mapping, nframes);
        session.run().unwrap().end_time
    };
    let mut p1 = Platform::new();
    let cpu1 = p1.sequential("cpu0", CLOCK, CostTable::risc_sw(), 150.0);
    let all_sw = run(vocoder::pipeline::VocoderMapping::all_on(cpu1), p1);

    let mut p2 = Platform::new();
    let cpu2 = p2.sequential("cpu0", CLOCK, CostTable::risc_sw(), 150.0);
    let hw = p2.parallel("acb_asic", CLOCK, CostTable::asic_hw(), 0.0);
    let mut mapping = vocoder::pipeline::VocoderMapping::all_on(cpu2);
    mapping.acb = hw; // offload the dominant stage
    let accelerated = run(mapping, p2);
    assert!(
        accelerated < all_sw,
        "offloading ACB must shorten the simulation: {accelerated} vs {all_sw}"
    );
}

#[test]
fn vocoder_model_is_deterministic_under_mapping_changes() {
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu0", CLOCK, CostTable::risc_sw(), 150.0);
    let outcome = determinism::check(&platform, move |sim, model| {
        let _ = vocoder::pipeline::build(
            sim,
            model,
            vocoder::pipeline::VocoderMapping::all_on(cpu),
            3,
        );
    })
    .unwrap();
    assert!(
        outcome.deterministic,
        "vocoder must be scheduling-independent; differs: {:?}",
        outcome.differing
    );
}

#[test]
fn recorded_dfg_matches_hls_references() {
    // The estimator's T_min/T_max must equal the scheduler's view of the
    // same graph under the same integer latencies.
    let mut platform = Platform::new();
    let hw = platform.parallel("hw", CLOCK, CostTable::asic_hw(), 0.0);
    let mut session = SimConfig::new()
        .platform(platform)
        .mode(Mode::EstimateOnly)
        .record_dfgs()
        .build();
    session.spawn("fir", hw, |_ctx| {
        let _ = scperf::workloads::fir::annotated_one_sample(3);
    });
    session.run().unwrap();
    let report = session.report();
    let seg = &report.process("fir").unwrap().segments[0];
    let dfg = session.model().dfgs("fir").into_iter().next().unwrap().1;
    assert_eq!(dfg.critical_path() as f64, seg.stats.last_t_min);
    assert_eq!(dfg.sequential_cycles() as f64, seg.stats.last_t_max);
    assert_eq!(
        scperf::hls::schedule_asap(&dfg).makespan,
        dfg.critical_path()
    );
    assert_eq!(
        scperf::hls::schedule_sequential(&dfg).makespan,
        dfg.sequential_cycles()
    );
}

#[test]
fn mixed_platform_report_accounts_every_resource_kind() {
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", CLOCK, CostTable::risc_sw(), 50.0);
    let hw = platform.parallel("asic", CLOCK, CostTable::asic_hw(), 0.5);
    let env = platform.environment("testbench");
    let mut session = SimConfig::new().platform(platform).build();
    let burn = || {
        let mut x = g_i64(0);
        for i in 0..500 {
            x = x + G::raw(i);
        }
        let _ = x;
    };
    session.spawn("sw", cpu, move |ctx| {
        burn();
        timed_wait(ctx, Time::ZERO);
    });
    session.spawn("hwp", hw, move |ctx| {
        burn();
        timed_wait(ctx, Time::ZERO);
    });
    session.spawn("tb", env, move |_ctx| {
        burn();
    });
    session.run().unwrap();
    let report = session.report();
    assert_eq!(report.processes.len(), 3);
    let sw = report.process("sw").unwrap();
    let hwp = report.process("hwp").unwrap();
    let tb = report.process("tb").unwrap();
    assert_eq!(sw.kind, ResourceKind::Sequential);
    assert!(sw.total_cycles > 0.0 && sw.rtos_time > Time::ZERO);
    assert_eq!(hwp.kind, ResourceKind::Parallel);
    assert!(hwp.total_cycles > 0.0);
    assert_eq!(hwp.rtos_time, Time::ZERO, "HW charges no RTOS");
    assert_eq!(tb.total_cycles, 0.0, "environment is not analyzed");
    // HW with k=0.5 lies between the extremes for a dependent chain.
    let seg = &hwp.segments[0];
    assert!(seg.stats.last_t_min <= seg.stats.total_cycles);
    assert!(seg.stats.total_cycles <= seg.stats.last_t_max.max(seg.stats.last_t_min));
}

#[test]
fn minic_compiled_probes_run_on_both_iss_models() {
    for p in scperf::workloads::probes::probes().into_iter().take(4) {
        let compiled = scperf::iss::minic::compile(&p.minic).unwrap();
        let mut m1 = scperf::iss::Machine::new(1 << 22);
        m1.load(&compiled.program);
        let s1 = m1.run(1_000_000_000).unwrap();
        let mut m2 = scperf::iss::Machine::new(1 << 22);
        m2.load(&compiled.program);
        let s2 = m2.run_pipelined(8_000_000_000).unwrap();
        assert_eq!(
            m1.read_word(compiled.global("result")),
            m2.read_word(compiled.global("result")),
            "{}",
            p.name
        );
        assert_eq!(s1.instructions, s2.instructions, "{}", p.name);
    }
}
