//! Property-based and scenario tests for the simulation kernel.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::collection::vec;
use proptest::prelude::*;
use scperf_kernel::{trace, SimOptions, SimSummary, Simulator, StopReason, Time, TraceMode};

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

/// A `wait` delay in picoseconds: mostly 0–999 so that instants of
/// different processes collide, sometimes zero (a wake one delta later at
/// the same instant), sometimes beyond 2^36 ps (far future).
fn delay_ps() -> impl Strategy<Value = u64> {
    (0_u8..16, 0_u64..1000, 0_u64..1 << 20).prop_map(|(kind, near, far)| match kind {
        0 => 0,
        1 => (1 << 36) + far,
        _ => near,
    })
}

/// A `run_until` step in picoseconds: mostly short, so limits land on and
/// between colliding instants, sometimes long enough to pass a far wait.
fn step_ps() -> impl Strategy<Value = u64> {
    (0_u8..8, 0_u64..1000, 0_u64..1 << 37).prop_map(|(kind, near, far)| match kind {
        0 => far,
        _ => near,
    })
}

/// `(wake time, delta count, process index)`, one per completed `wait`.
type WakeLog = Vec<(Time, u64, usize)>;

/// The instants a process waiting out `delays` in turn wakes at: the
/// running sums of its delays.
fn wake_times(delays: &[u64]) -> Vec<Time> {
    delays
        .iter()
        .scan(0, |at, d| {
            *at += d;
            Some(Time::ps(*at))
        })
        .collect()
}

/// Runs one process per delay list, each waiting out its delays in turn
/// and logging every wake. With `steps`, the run first pauses at every
/// running sum of `steps` through `run_until`, and each pause must have
/// fired exactly the wakes due by its limit; then it finishes with `run`.
fn run_waits(delays: &[Vec<u64>], steps: &[u64]) -> (WakeLog, SimSummary) {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulator::new();
    for (pid, ds) in delays.iter().enumerate() {
        let (ds, log) = (ds.clone(), Rc::clone(&log));
        sim.spawn(format!("p{pid}"), move |ctx| {
            for d in ds {
                ctx.wait(Time::ps(d));
                log.borrow_mut().push((ctx.now(), ctx.delta_count(), pid));
            }
        });
    }
    let mut limit = Time::ZERO;
    for &step in steps {
        limit += Time::ps(step);
        let paused = sim.run_until(limit).expect("step");
        assert!(paused.end_time <= limit);
        let due = delays
            .iter()
            .flat_map(|ds| wake_times(ds))
            .filter(|&t| t <= limit)
            .count();
        assert_eq!(
            log.borrow().len(),
            due,
            "wakes fired by a pause at {limit:?}"
        );
    }
    let summary = sim.run().expect("runs");
    let log = log.borrow().clone();
    (log, summary)
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

    /// Timed wakes fire at each process's running wait sums, in
    /// (time, delta, process) order, one delta per timed step, and
    /// pausing at arbitrary `run_until` limits changes neither the wakes
    /// nor the summary.
    #[test]
    fn timed_wakes_follow_wait_sums_in_order(
        delays in vec(vec(delay_ps(), 0..10), 1..9),
        steps in vec(step_ps(), 1..16),
    ) {
        let (log, summary) = run_waits(&delays, &[]);
        let mut step_delta = BTreeMap::new();
        for (pid, ds) in delays.iter().enumerate() {
            let wakes: Vec<_> = log.iter().filter(|w| w.2 == pid).collect();
            let times: Vec<Time> = wakes.iter().map(|w| w.0).collect();
            prop_assert_eq!(times, wake_times(ds));
            let mut prev_delta = 0;
            for (&&(t, delta, _), &d) in wakes.iter().zip(ds) {
                if d == 0 {
                    // A zero wait is one more timed step at the same instant.
                    prop_assert_eq!(delta, prev_delta + 1);
                } else {
                    // One timed step fires every nonzero wait ending at `t`.
                    prop_assert_eq!(*step_delta.entry(t).or_insert(delta), delta);
                }
                prev_delta = delta;
            }
        }
        prop_assert!(log.windows(2).all(|w| w[0] < w[1]), "wakes out of order: {log:?}");
        let stepped = run_waits(&delays, &steps);
        prop_assert_eq!((log, summary), stepped);
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
