//! Integration tests for the instrumented channel wrappers and the
//! auxiliary reporting features.

use scperf_core::{
    charge_op, g_i32, timed_wait, timed_wait_labeled, CostTable, Mode, Op, PerfModel, Platform,
    ProcessGraph,
};
use scperf_kernel::{SimOptions, Simulator, Time, TraceMode};

fn one_cpu_platform() -> (Platform, scperf_core::ResourceId) {
    let mut p = Platform::new();
    let cpu = p.sequential(
        "cpu",
        Time::ns(10),
        CostTable::from_pairs([(Op::Add, 1.0)]),
        0.0,
    );
    (p, cpu)
}

#[test]
fn rendezvous_wrapper_marks_segments_and_synchronizes() {
    let (platform, cpu) = one_cpu_platform();
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let ch = model.rendezvous::<i32>(&mut sim, "sync");
    let (w, r) = (ch.clone(), ch);
    model.spawn(&mut sim, "writer", cpu, move |ctx| {
        for i in 0..5 {
            for _ in 0..100 {
                charge_op(Op::Add);
            }
            w.write(ctx, i);
        }
    });
    sim.spawn("reader", move |ctx| {
        for i in 0..5 {
            assert_eq!(r.read(ctx), i);
        }
    });
    sim.run().unwrap();
    let report = model.report();
    let writer = report.process("writer").unwrap();
    // 5 segments ending at sync.write + the exit segment.
    let seg = writer.segment("sync.write", "sync.write").unwrap();
    assert_eq!(seg.stats.count, 4);
    assert_eq!(seg.stats.total_cycles, 400.0);
    assert!(writer.segment("entry", "sync.write").is_some());
    assert!(writer.segment("sync.write", "exit").is_some());
}

#[test]
fn signal_wrapper_write_is_a_node_but_read_is_not() {
    let (platform, cpu) = one_cpu_platform();
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let s = model.signal(&mut sim, "level", 0_i32);
    let sw = s.clone();
    model.spawn(&mut sim, "driver", cpu, move |ctx| {
        for _ in 0..50 {
            charge_op(Op::Add);
        }
        sw.write(ctx, 7);
        // Reads do not end segments.
        let _ = sw.read();
        for _ in 0..30 {
            charge_op(Op::Add);
        }
        timed_wait(ctx, Time::ZERO);
    });
    sim.run().unwrap();
    let report = model.report();
    let p = report.process("driver").unwrap();
    let to_write = p.segment("entry", "level.write").unwrap();
    assert_eq!(to_write.stats.total_cycles, 50.0);
    let to_wait = p.segment("level.write", "wait").unwrap();
    assert_eq!(to_wait.stats.total_cycles, 30.0);
    assert_eq!(s.read(), 7);
}

#[test]
fn labeled_waits_become_distinct_nodes() {
    let (platform, cpu) = one_cpu_platform();
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    model.spawn(&mut sim, "p", cpu, move |ctx| {
        for _ in 0..3 {
            charge_op(Op::Add);
            timed_wait_labeled(ctx, Time::ns(5), "phase_a");
            charge_op(Op::Add);
            charge_op(Op::Add);
            timed_wait_labeled(ctx, Time::ns(5), "phase_b");
        }
    });
    sim.run().unwrap();
    let report = model.report();
    let p = report.process("p").unwrap();
    let a_to_b = p.segment("wait:phase_a", "wait:phase_b").unwrap();
    assert_eq!(a_to_b.stats.count, 3);
    assert_eq!(a_to_b.stats.total_cycles, 6.0);
    let b_to_a = p.segment("wait:phase_b", "wait:phase_a").unwrap();
    assert_eq!(b_to_a.stats.count, 2);
    // The graph has both wait nodes.
    let dot = ProcessGraph::from_report(p).to_dot();
    assert!(dot.contains("wait:phase_a"));
    assert!(dot.contains("wait:phase_b"));
}

#[test]
fn capture_csv_and_matlab_round_trip() {
    let (platform, cpu) = one_cpu_platform();
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let cp = model.capture_point("sample");
    let cp2 = cp.clone();
    model.spawn(&mut sim, "p", cpu, move |ctx| {
        for i in 0..4 {
            timed_wait(ctx, Time::us(1));
            cp2.capture_value_if(ctx, i % 2 == 0, i as f64);
        }
    });
    sim.run().unwrap();
    let lists = model.captures();
    let list = &lists[0];
    assert_eq!(list.events.len(), 2); // conditional: i = 0, 2
    let csv = list.to_csv();
    assert!(csv.starts_with("time_ns,value\n"));
    assert!(csv.contains("1000,0"));
    assert!(csv.contains("3000,2"));
    let m = list.to_matlab();
    assert!(m.contains("sample_t = [1000, 3000];"));
    assert!(m.contains("sample_v = [0, 2];"));
}

#[test]
fn instrumented_fifo_between_sw_and_hw_processes() {
    let mut platform = Platform::new();
    let cpu = platform.sequential(
        "cpu",
        Time::ns(10),
        CostTable::from_pairs([(Op::Add, 1.0)]),
        20.0,
    );
    let hw = platform.parallel(
        "hw",
        Time::ns(10),
        CostTable::from_pairs([(Op::Add, 1.0)]),
        1.0,
    );
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let ch = model.fifo::<i32>(&mut sim, "data", 2);
    let (tx, rx) = (ch.clone(), ch);
    model.spawn(&mut sim, "producer_sw", cpu, move |ctx| {
        for i in 0..10 {
            let mut v = g_i32(i);
            for _ in 0..100 {
                v = v + 0;
            }
            tx.write(ctx, v.get());
        }
    });
    model.spawn(&mut sim, "consumer_hw", hw, move |ctx| {
        let mut sum = g_i32(0);
        for _ in 0..10 {
            sum = sum + rx.read(ctx);
        }
        assert_eq!(sum.get(), 45);
    });
    let summary = sim.run().unwrap();
    let report = model.report();
    // Producer: 10 data segments of 100 adds (g_i32's assign costs 0 here).
    let producer = report.process("producer_sw").unwrap();
    assert_eq!(producer.total_cycles, 1000.0);
    assert!(producer.rtos_time > Time::ZERO);
    // Consumer on HW: k = 1 → worst case = sequential sum of its adds.
    let consumer = report.process("consumer_hw").unwrap();
    assert!(consumer.total_cycles >= 10.0);
    assert_eq!(consumer.rtos_time, Time::ZERO);
    // The simulated time is dominated by the SW side.
    assert!(summary.end_time >= Time::us(10));
}

#[test]
fn vcd_export_from_an_instrumented_model() {
    let (platform, cpu) = one_cpu_platform();
    let mut sim = SimOptions::new().tracing(TraceMode::Unbounded).build();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let s = model.signal(&mut sim, "beat", 0_i32);
    let sw = s.clone();
    model.spawn(&mut sim, "p", cpu, move |ctx| {
        for i in 1..=3 {
            for _ in 0..100 {
                charge_op(Op::Add);
            }
            sw.write(ctx, i);
            timed_wait(ctx, Time::ZERO);
        }
    });
    sim.run().unwrap();
    let vcd = scperf_kernel::vcd::trace_to_vcd(&sim.take_trace(), "1ns");
    assert!(vcd.contains("$var wire 32 ! beat $end"));
    // Three value changes at 1us, 2us, 3us (100 cycles @ 10ns each).
    assert!(vcd.contains("#1000"));
    assert!(vcd.contains("#2000"));
    assert!(vcd.contains("#3000"));
}

#[test]
fn report_and_instantaneous_csv_exports() {
    let (platform, cpu) = one_cpu_platform();
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    model.record_instantaneous();
    model.spawn(&mut sim, "p", cpu, move |ctx| {
        for n in [5_u64, 9] {
            for _ in 0..n {
                charge_op(Op::Add);
            }
            timed_wait(ctx, Time::ZERO);
        }
    });
    sim.run().unwrap();
    let report = model.report();
    let csv = report.to_csv();
    assert!(csv.starts_with("process,resource,kind,cycles,time_ns,rtos_ns,segments\n"));
    assert!(csv.contains("p,cpu,Sequential,14,140,0,3"));
    let p = report.process("p").unwrap();
    let inst = p.instantaneous_csv(|n| model.node_label(n));
    assert!(inst.starts_with("time_ns,from,to,cycles,dur_ns\n"));
    assert!(inst.contains("entry,wait,5"));
    assert!(inst.contains("wait,wait,9"));
    assert!(inst.contains("wait,exit,0"));
}
