//! Wall-clock benches for the host-simulation-time columns of Tables 1
//! and 3: the same benchmark simulated (a) plain/untimed, (b) with the
//! estimation library in strict-timed mode, and (c) on the reference ISS.
//!
//! Run with `cargo bench -p scperf-bench --bench host_time`.

use scperf_bench::harness;
use scperf_bench::microbench::{run_group, Case};
use scperf_core::{Mode, SimConfig};
use scperf_kernel::Simulator;
use scperf_workloads::{table1_cases, vocoder};

fn bench_table1_paths() {
    let table = scperf_bench::calibration::calibrate().table;
    for case in table1_cases() {
        let plain = case.plain;
        let annotated = case.annotated;
        let t = table.clone();
        // Compile once; bench only the ISS execution.
        let compiled = scperf_iss::minic::compile(&case.minic).expect("compiles");
        let cases = vec![
            Case::new("plain_sim", move || {
                std::hint::black_box(harness::time_plain(plain).1);
            }),
            Case::new("library_sim", move || {
                std::hint::black_box(harness::time_strict_timed(&t, annotated).2);
            }),
            Case::new("iss", move || {
                let mut m = scperf_workloads::case::reference_machine();
                m.load(&compiled.program);
                std::hint::black_box(m.run_pipelined(8_000_000_000).expect("runs").cycles);
            }),
        ];
        run_group(&format!("table1/{}", case.name), &cases);
    }
}

fn bench_vocoder_paths() {
    let table = scperf_bench::calibration::calibrate().table;
    let nframes = 4;
    let t1 = table.clone();
    let t2 = table;
    let cases = vec![
        Case::new("plain_sim", move || {
            let mut sim = Simulator::new();
            let out = vocoder::pipeline::build_plain(&mut sim, nframes);
            sim.run().expect("runs");
            let v = *out.lock();
            std::hint::black_box(v.expect("finished"));
        }),
        Case::new("library_sim_strict", move || {
            let (platform, cpu) = harness::cpu_platform(t1.clone());
            let mut session = SimConfig::new().platform(platform).build();
            let (sim, model) = session.parts_mut();
            let handles = vocoder::pipeline::build(
                sim,
                model,
                vocoder::pipeline::VocoderMapping::all_on(cpu),
                nframes,
            );
            session.run().expect("runs");
            let v = *handles.output.lock();
            std::hint::black_box(v.expect("finished"));
        }),
        Case::new("library_sim_untimed", move || {
            let (platform, cpu) = harness::cpu_platform(t2.clone());
            let mut session = SimConfig::new()
                .platform(platform)
                .mode(Mode::EstimateOnly)
                .build();
            let (sim, model) = session.parts_mut();
            let handles = vocoder::pipeline::build(
                sim,
                model,
                vocoder::pipeline::VocoderMapping::all_on(cpu),
                nframes,
            );
            session.run().expect("runs");
            let v = *handles.output.lock();
            std::hint::black_box(v.expect("finished"));
        }),
    ];
    run_group(&format!("vocoder ({nframes} frames)"), &cases);
}

fn bench_kernel_primitives() {
    let cases = vec![
        Case::new("fifo_10k_items", || {
            let mut sim = Simulator::new();
            let f = sim.fifo::<u64>("f", 16);
            let (tx, rx) = (f.clone(), f);
            sim.spawn("producer", move |ctx| {
                for i in 0..10_000_u64 {
                    tx.write(ctx, i);
                }
            });
            sim.spawn("consumer", move |ctx| {
                for _ in 0..10_000_u64 {
                    let _ = rx.read(ctx);
                }
            });
            std::hint::black_box(sim.run().expect("runs").deltas);
        }),
        Case::new("timed_waits_10k", || {
            let mut sim = Simulator::new();
            sim.spawn("p", |ctx| {
                for _ in 0..10_000 {
                    ctx.wait(scperf_kernel::Time::ns(5));
                }
            });
            std::hint::black_box(sim.run().expect("runs").end_time);
        }),
    ];
    run_group("kernel", &cases);
}

fn main() {
    bench_table1_paths();
    bench_vocoder_paths();
    bench_kernel_primitives();
}
