//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * estimation accuracy vs calibration-set size (how many probes are
//!   needed before Table 1 errors stabilize),
//! * RTOS cost on/off (its share of the vocoder's simulated time),
//! * ISS cache model on/off (the "unavoidable" cache error of §1),
//! * functional vs pipelined ISS timing model cost,
//! * HLS scheduling cost on the recorded Post-Proc DFG.
//!
//! These are wall-clock benches plus printed accuracy summaries; run with
//! `cargo bench -p scperf-bench --bench ablations`.

use scperf_bench::microbench::{run_group, Case};
use scperf_bench::{calibration, harness};
use scperf_core::{Platform, SimConfig};
use scperf_kernel::Time;
use scperf_workloads::{probes::probes, table1_cases, vocoder};

/// Accuracy vs calibration-set size (printed once; benches the full fit).
fn ablation_calibration_size() {
    let all = probes();
    println!("\n[ablation] Table-1 max error vs number of calibration probes:");
    for n in [4, 6, 8, 10, all.len()] {
        let cal = calibration::calibrate_with(&all[..n]);
        let max_err = table1_cases()
            .into_iter()
            .map(|case| {
                let est = harness::estimate(&cal.table, case.annotated);
                let (_, stats) = case.run_iss();
                harness::pct_error(est.cycles, stats.cycles as f64)
            })
            .fold(0.0_f64, f64::max);
        println!(
            "  {n:>2} probes -> max error {max_err:6.2}%  (R^2 {:.4})",
            cal.r_squared
        );
    }
    run_group(
        "ablation",
        &[Case::new("full_calibration", || {
            std::hint::black_box(calibration::calibrate());
        })],
    );
}

/// RTOS overhead share: vocoder simulated end time with and without the
/// per-node RTOS cost.
fn ablation_rtos() {
    let table = calibration::calibrate().table;
    let run = move |rtos: f64| -> Time {
        let mut platform = Platform::new();
        let cpu = platform.sequential("cpu0", harness::CLOCK, table.clone(), rtos);
        let mut session = SimConfig::new().platform(platform).build();
        let (sim, model) = session.parts_mut();
        let _ = vocoder::pipeline::build(
            sim,
            model,
            vocoder::pipeline::VocoderMapping::all_on(cpu),
            4,
        );
        session.run().expect("runs").end_time
    };
    let with_rtos = run(harness::RTOS_CYCLES);
    let without = run(0.0);
    println!(
        "\n[ablation] vocoder (4 frames): simulated end {} with RTOS cost, {} without \
         ({:.2}% RTOS share)",
        with_rtos,
        without,
        (with_rtos.as_ns_f64() - without.as_ns_f64()) / with_rtos.as_ns_f64() * 100.0
    );
    run_group(
        "ablation",
        &[Case::new("vocoder_strict_timed_4f", move || {
            std::hint::black_box(run(harness::RTOS_CYCLES));
        })],
    );
}

/// ISS model ablation: functional cost model vs cycle-stepped pipeline,
/// caches on/off, on the FIR benchmark.
fn ablation_iss_models() {
    let case = &table1_cases()[0]; // FIR
    let compiled = scperf_iss::minic::compile(&case.minic).expect("compiles");
    {
        let mut plainm = scperf_iss::Machine::new(1 << 22);
        plainm.load(&compiled.program);
        let functional = plainm.run(1_000_000_000).expect("runs");
        let mut pipem = scperf_workloads::case::reference_machine();
        pipem.load(&compiled.program);
        let pipelined = pipem.run_pipelined(8_000_000_000).expect("runs");
        println!(
            "\n[ablation] FIR on the ISS: functional model {} cycles, pipelined+caches {} cycles \
             ({} icache / {} dcache misses)",
            functional.cycles, pipelined.cycles, pipelined.icache_misses, pipelined.dcache_misses
        );
    }
    let c1 = compiled.clone();
    let c2 = compiled;
    run_group(
        "iss_model",
        &[
            Case::new("functional", move || {
                let mut m = scperf_iss::Machine::new(1 << 22);
                m.load(&c1.program);
                std::hint::black_box(m.run(1_000_000_000).expect("runs").cycles);
            }),
            Case::new("pipelined_cached", move || {
                let mut m = scperf_workloads::case::reference_machine();
                m.load(&c2.program);
                std::hint::black_box(m.run_pipelined(8_000_000_000).expect("runs").cycles);
            }),
        ],
    );
}

/// HLS scheduling cost on the recorded Post-Proc DFG (Table 4's segment).
fn ablation_hls() {
    let trace = vocoder::run_reference(2);
    let aq = trace.aq[0].clone();
    let exc = trace.exc[0].clone();
    let (dfg, _, _) = harness::record_hw_dfg(scperf_core::CostTable::asic_hw(), move || {
        use scperf_core::{GArr, G};
        let mut synth_hist = GArr::<i32>::zeroed(vocoder::ORDER);
        let mut deemph = G::raw(0_i32);
        let mut chk = G::raw(0_i32);
        let aq = GArr::from_vec(aq);
        let exc = GArr::from_vec(exc);
        let _ = vocoder::stages::post_annotated(&mut synth_hist, &mut deemph, &aq, &exc, &mut chk);
    });
    println!("\n[ablation] Post-Proc DFG: {} operation nodes", dfg.len());
    let d1 = dfg.clone();
    let d2 = dfg;
    run_group(
        "hls",
        &[
            Case::new("list_schedule_postproc", move || {
                std::hint::black_box(
                    scperf_hls::schedule_list(&d1, &scperf_hls::Allocation::uniform(2)).makespan,
                );
            }),
            Case::new("asap_postproc", move || {
                std::hint::black_box(scperf_hls::schedule_asap(&d2).makespan);
            }),
        ],
    );
}

/// DSE segment-cost cache on/off: wall time of a mapping-sweep subset
/// with and without memoized traces, plus the cache hit rate.
fn ablation_dse_cache() {
    use scperf_bench::dse::sweep::{sweep, SweepConfig};
    let table = calibration::calibrate().table;
    let config = SweepConfig {
        table,
        nframes: 1,
        jobs: 1,
        use_cache: true,
        limit: Some(27),
        ..SweepConfig::default()
    };
    let cached = sweep(&config);
    let uncached = sweep(&SweepConfig {
        use_cache: false,
        ..config.clone()
    });
    assert_eq!(
        cached.points, uncached.points,
        "cache must not change results"
    );
    println!(
        "\n[ablation] DSE sweep ({} points): cache hit rate {:.1}% over {} lookups, \
         {} recorded traces; results identical with cache off",
        cached.points.len(),
        cached.cache.hit_rate() * 100.0,
        cached.cache.hits + cached.cache.misses,
        cached.cache.entries,
    );
    let c1 = config.clone();
    let c2 = SweepConfig {
        use_cache: false,
        ..config
    };
    run_group(
        "dse",
        &[
            Case::new("sweep27_cached", move || {
                std::hint::black_box(sweep(&c1).frontier.len());
            }),
            Case::new("sweep27_uncached", move || {
                std::hint::black_box(sweep(&c2).frontier.len());
            }),
        ],
    );
}

fn main() {
    ablation_calibration_size();
    ablation_rtos();
    ablation_iss_models();
    ablation_hls();
    ablation_dse_cache();
}
