//! Scenario tests for §4 global analysis: strict-timed back-annotation,
//! sequential-resource serialization (Figure 5's sg1/sg2), parallel
//! overlap (sg4 ∥ sg5), and RTOS overhead accounting.

use std::cell::RefCell;
use std::rc::Rc;

use scperf_core::{
    charge_op, g_i64, timed_wait, CostTable, Mode, Op, PerfModel, Platform, ResourceId,
};
use scperf_kernel::{Simulator, Time};

/// A table where one Add costs exactly 1 cycle and nothing else costs
/// anything, making expected times trivial to compute by hand.
fn unit_add_table() -> CostTable {
    CostTable::from_pairs([(Op::Add, 1.0)])
}

/// Charges exactly `n` cycles into the running segment.
fn burn(n: u64) {
    for _ in 0..n {
        charge_op(Op::Add);
    }
}

fn platform_cpu(rtos: f64) -> (Platform, ResourceId) {
    let mut p = Platform::new();
    let cpu = p.sequential("cpu", Time::ns(10), unit_add_table(), rtos);
    (p, cpu)
}

#[test]
fn single_process_sleeps_its_segment_time() {
    let (platform, cpu) = platform_cpu(0.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    model.spawn(&mut sim, "p", cpu, |ctx| {
        burn(100); // 100 cycles @ 10ns = 1us, annotated at process exit
        assert_eq!(ctx.now(), Time::ZERO, "annotation happens at the node");
    });
    let s = sim.run().unwrap();
    assert_eq!(s.end_time, Time::us(1));
}

#[test]
fn estimate_only_keeps_simulation_untimed() {
    let (platform, cpu) = platform_cpu(0.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::EstimateOnly);
    model.spawn(&mut sim, "p", cpu, |_ctx| {
        burn(100);
    });
    let s = sim.run().unwrap();
    assert_eq!(s.end_time, Time::ZERO);
    // … but the estimate is still collected.
    let report = model.report();
    assert_eq!(report.process("p").unwrap().total_cycles, 100.0);
}

#[test]
fn two_processes_on_one_cpu_serialize() {
    // Figure 5: segments sg1 and sg2 execute in the same delta cycle
    // untimed, but are scheduled sequentially on the shared CPU.
    let (platform, cpu) = platform_cpu(0.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let done = Rc::new(RefCell::new(Vec::new()));
    for (name, cycles) in [("p2", 300_u64), ("p3", 500_u64)] {
        let done = Rc::clone(&done);
        model.spawn(&mut sim, name, cpu, move |ctx| {
            burn(cycles);
            timed_wait(ctx, Time::ZERO); // node: back-annotate here
            done.borrow_mut().push((name, ctx.now()));
        });
    }
    let s = sim.run().unwrap();
    // p2 occupies [0, 3us); p3 must wait and occupies [3us, 8us).
    let order = done.borrow().clone();
    assert_eq!(order[0], ("p2", Time::us(3)));
    assert_eq!(order[1], ("p3", Time::us(8)));
    assert_eq!(s.end_time, Time::us(8));
}

#[test]
fn processes_on_parallel_resources_overlap() {
    // Figure 5: sg4 (HW) runs in parallel with sg5 (SW).
    let mut platform = Platform::new();
    let cpu = platform.sequential("cpu", Time::ns(10), unit_add_table(), 0.0);
    let hw = platform.parallel("hw", Time::ns(10), unit_add_table(), 0.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    model.spawn(&mut sim, "sw_proc", cpu, |_ctx| {
        burn(400);
    });
    model.spawn(&mut sim, "hw_proc", hw, |_ctx| {
        burn(400);
    });
    let s = sim.run().unwrap();
    // Overlapping, not serialized: total is max(4us, 4us), not 8us.
    assert_eq!(s.end_time, Time::us(4));
}

#[test]
fn rtos_cost_is_charged_per_node() {
    // 3 nodes for the process below: two waits plus process exit,
    // each charging 50 RTOS cycles = 500ns.
    let (platform, cpu) = platform_cpu(50.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    model.spawn(&mut sim, "p", cpu, |ctx| {
        timed_wait(ctx, Time::ZERO);
        timed_wait(ctx, Time::ZERO);
    });
    let s = sim.run().unwrap();
    assert_eq!(s.end_time, Time::ns(1500));
    let report = model.report();
    let p = report.process("p").unwrap();
    assert_eq!(p.rtos_time, Time::ns(1500));
    assert_eq!(p.total_time, Time::ZERO); // no computation, only RTOS
    let cpu_report = &report.resources[0];
    assert_eq!(cpu_report.rtos_time, Time::ns(1500));
    assert_eq!(cpu_report.busy_time, Time::ns(1500));
}

#[test]
fn arbitration_loop_handles_resource_stealing() {
    // Three processes race for one CPU; total busy time must be the sum of
    // all segment times and no two occupations overlap.
    let (platform, cpu) = platform_cpu(0.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let spans = Rc::new(RefCell::new(Vec::new()));
    for (i, cycles) in [700_u64, 200, 400].into_iter().enumerate() {
        let spans = Rc::clone(&spans);
        model.spawn(&mut sim, format!("p{i}"), cpu, move |ctx| {
            burn(cycles);
            timed_wait(ctx, Time::ZERO);
            spans.borrow_mut().push((ctx.now(), cycles));
        });
    }
    let s = sim.run().unwrap();
    // 700 + 200 + 400 cycles = 13us in total.
    assert_eq!(s.end_time, Time::us(13));
    // End times must be cumulative sums in pid order (all were runnable at
    // time zero, so the CPU serves them in deterministic spawn order).
    let spans = spans.borrow().clone();
    assert_eq!(spans[0].0, Time::us(7));
    assert_eq!(spans[1].0, Time::us(9));
    assert_eq!(spans[2].0, Time::us(13));
}

#[test]
fn hw_k_weight_interpolates_segment_time() {
    // Segment: chain of 4 dependent adds plus 4 independent adds.
    // T_min (critical path) = 4 cycles, T_max (single ALU) = 8 cycles.
    let run = |k: f64| -> Time {
        let mut platform = Platform::new();
        let hw = platform.parallel("hw", Time::ns(10), unit_add_table(), k);
        let mut sim = Simulator::new();
        let model = PerfModel::new(platform, Mode::StrictTimed);
        model.spawn(&mut sim, "p", hw, |_ctx| {
            let mut chain = g_i64(0);
            let one = scperf_core::G::raw(1_i64);
            // g_i64 charges Assign which costs 0 in this table.
            for _ in 0..4 {
                chain = chain + one;
            }
            let mut indep = Vec::new();
            for _ in 0..4 {
                indep.push(one + one);
            }
            let _ = (chain, indep);
        });
        sim.run().unwrap().end_time
    };
    assert_eq!(run(0.0), Time::ns(40)); // best case: critical path
    assert_eq!(run(1.0), Time::ns(80)); // worst case: single ALU
    assert_eq!(run(0.5), Time::ns(60)); // weighted mean
}

#[test]
fn environment_processes_are_not_analyzed() {
    let mut platform = Platform::new();
    let env = platform.environment("testbench");
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    model.spawn(&mut sim, "tb", env, |_ctx| {
        burn(100_000);
    });
    let s = sim.run().unwrap();
    assert_eq!(s.end_time, Time::ZERO);
    let report = model.report();
    assert_eq!(report.process("tb").unwrap().total_cycles, 0.0);
}

#[test]
fn capture_points_record_strict_times() {
    let (platform, cpu) = platform_cpu(0.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    let cp = model.capture_point("beat");
    model.spawn(&mut sim, "p", cpu, move |ctx| {
        for i in 0..3 {
            burn(100);
            timed_wait(ctx, Time::ZERO);
            cp.capture_value(ctx, i as f64);
        }
    });
    sim.run().unwrap();
    let lists = model.captures();
    assert_eq!(lists.len(), 1);
    let beat = &lists[0];
    let times: Vec<Time> = beat.events.iter().map(|e| e.at).collect();
    assert_eq!(times, vec![Time::us(1), Time::us(2), Time::us(3)]);
    assert_eq!(beat.mean_interval(), Some(Time::us(1)));
    assert!(beat.to_matlab().contains("beat_t = [1000, 2000, 3000];"));
}

#[test]
fn segment_min_max_track_data_dependence() {
    // A data-dependent segment: iteration count varies per activation.
    let (platform, cpu) = platform_cpu(0.0);
    let mut sim = Simulator::new();
    let model = PerfModel::new(platform, Mode::StrictTimed);
    model.record_instantaneous();
    model.spawn(&mut sim, "p", cpu, |ctx| {
        for n in [10_u64, 50, 30] {
            burn(n);
            timed_wait(ctx, Time::ZERO);
        }
    });
    sim.run().unwrap();
    let report = model.report();
    let p = report.process("p").unwrap();
    let seg = p.segment("wait", "wait").unwrap();
    assert_eq!(seg.stats.count, 2); // 50 and 30 (first was entry→wait)
    assert_eq!(seg.stats.min_cycles, 30.0);
    assert_eq!(seg.stats.max_cycles, 50.0);
    let entry_seg = p.segment("entry", "wait").unwrap();
    assert_eq!(entry_seg.stats.total_cycles, 10.0);
    assert_eq!(p.instantaneous.len(), 4); // 3 waits + exit
}
