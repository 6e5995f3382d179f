//! Property-based and scenario tests for the simulation kernel.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::collection::vec;
use proptest::prelude::*;
use scperf_kernel::{trace, SimOptions, Simulator, StopReason, Time, TraceMode};

/// Builds a randomized multi-stage pipeline and returns its trace.
fn run_pipeline(
    stage_delays: &[u64],
    values: &[u32],
    capacity: usize,
) -> Vec<scperf_kernel::TraceRecord> {
    let mut sim = SimOptions::new().tracing(TraceMode::Unbounded).build();
    let n_stages = stage_delays.len();
    let mut fifos = Vec::new();
    for i in 0..=n_stages {
        fifos.push(sim.fifo::<u32>(format!("f{i}"), capacity));
    }
    let src = fifos[0].clone();
    let values_owned = values.to_vec();
    sim.spawn("source", move |ctx| {
        for v in values_owned {
            src.write(ctx, v);
        }
    });
    for (i, &d) in stage_delays.iter().enumerate() {
        let input = fifos[i].clone();
        let output = fifos[i + 1].clone();
        let count = values.len();
        sim.spawn(format!("stage{i}"), move |ctx| {
            for _ in 0..count {
                let v = input.read(ctx);
                ctx.wait(Time::ns(d));
                output.write(ctx, v.wrapping_mul(3).wrapping_add(1));
            }
        });
    }
    let sink = fifos[n_stages].clone();
    let count = values.len();
    sim.spawn("sink", move |ctx| {
        for _ in 0..count {
            let v = sink.read(ctx);
            ctx.emit_trace("sink", v.to_string());
        }
    });
    sim.run().expect("pipeline must not panic");
    sim.take_trace()
}

proptest! {
    /// Two runs of an identical model produce bit-identical traces.
    #[test]
    fn simulation_is_deterministic(
        delays in vec(0_u64..50, 1..4),
        values in vec(any::<u32>(), 1..20),
        cap in 1_usize..4,
    ) {
        let a = run_pipeline(&delays, &values, cap);
        let b = run_pipeline(&delays, &values, cap);
        prop_assert_eq!(a, b);
    }

    /// Every value traverses the pipeline unchanged-in-order (KPN property).
    #[test]
    fn pipeline_preserves_order(
        delays in vec(0_u64..20, 1..4),
        values in vec(any::<u32>(), 1..20),
        cap in 1_usize..4,
    ) {
        let trace = run_pipeline(&delays, &values, cap);
        let sunk: Vec<u32> = trace
            .iter()
            .filter(|r| r.label == "sink")
            .map(|r| r.detail.parse().unwrap())
            .collect();
        let expected: Vec<u32> = values
            .iter()
            .map(|&v| {
                let mut v = v;
                for _ in 0..delays.len() {
                    v = v.wrapping_mul(3).wrapping_add(1);
                }
                v
            })
            .collect();
        prop_assert_eq!(sunk, expected);
    }

    /// End time equals the maximum over processes of the sum of their waits.
    #[test]
    fn end_time_is_max_of_wait_sums(waits in vec(vec(0_u64..1000, 0..10), 1..6)) {
        let mut sim = Simulator::new();
        for (i, ws) in waits.iter().enumerate() {
            let ws = ws.clone();
            sim.spawn(format!("p{i}"), move |ctx| {
                for w in ws {
                    ctx.wait(Time::ns(w));
                }
            });
        }
        let summary = sim.run().unwrap();
        let expect: u64 = waits.iter().map(|ws| ws.iter().sum()).max().unwrap();
        prop_assert_eq!(summary.end_time, Time::ns(expect));
        prop_assert_eq!(summary.reason, StopReason::EventsExhausted);
    }

    /// Simulation time never decreases along a trace.
    #[test]
    fn trace_time_is_monotone(
        delays in vec(0_u64..20, 1..4),
        values in vec(any::<u32>(), 1..20),
    ) {
        let trace = run_pipeline(&delays, &values, 2);
        for w in trace.windows(2) {
            prop_assert!(w[0].time <= w[1].time);
            prop_assert!(w[0].delta <= w[1].delta);
        }
    }

    /// The untimed and a timed variant of a deterministic model agree on
    /// per-process functional traces (the §6 determinism check).
    #[test]
    fn untimed_and_timed_functionally_agree(values in vec(any::<u32>(), 1..20)) {
        let untimed = run_pipeline(&[0, 0], &values, 2);
        let timed = run_pipeline(&[7, 13], &values, 2);
        prop_assert!(trace::compare_traces(&untimed, &timed)
            .iter()
            .all(|p| p.starts_with("stage") || p == "source"),
            "only records that embed no values may differ");
        // The sink observes identical values in both runs.
        let sunk = |t: &[scperf_kernel::TraceRecord]| -> Vec<String> {
            t.iter().filter(|r| r.label == "sink").map(|r| r.detail.clone()).collect()
        };
        prop_assert_eq!(sunk(&untimed), sunk(&timed));
    }
}

#[test]
fn rendezvous_pipeline_is_lock_step() {
    let mut sim = Simulator::new();
    let ch = sim.rendezvous::<u64>("sync");
    let (w, r) = (ch.clone(), ch);
    sim.spawn("producer", move |ctx| {
        for i in 0..100 {
            w.write(ctx, i);
        }
    });
    sim.spawn("consumer", move |ctx| {
        for i in 0..100 {
            assert_eq!(r.read(ctx), i);
            ctx.wait(Time::ns(3));
        }
    });
    let s = sim.run().unwrap();
    // Each consume inserts a 3ns gap; the producer is throttled to it.
    assert_eq!(s.end_time, Time::ns(300));
}

#[test]
fn many_processes_contend_on_one_fifo() {
    let mut sim = Simulator::new();
    let f = sim.fifo::<u32>("shared", 1);
    let n = 8;
    for i in 0..n {
        let tx = f.clone();
        sim.spawn(format!("w{i}"), move |ctx| {
            tx.write(ctx, i);
        });
    }
    let rx = f.clone();
    let got = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&got);
    sim.spawn("reader", move |ctx| {
        for _ in 0..n {
            sink.borrow_mut().push(rx.read(ctx));
        }
    });
    sim.run().unwrap();
    let mut values = got.borrow().clone();
    values.sort_unstable();
    assert_eq!(values, (0..n).collect::<Vec<_>>());
}
