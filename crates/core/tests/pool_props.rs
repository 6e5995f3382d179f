//! Property tests for the session pool's determinism contract: a
//! recycled (reset) slot, whether it charges live or replays recorded
//! traces, must be bit-identical to a freshly built session — summary,
//! report, trace and produced data — and an errored run must never
//! poison the slot it ran in.

use std::sync::Arc;

use proptest::prelude::*;
use scperf_core::{
    g_i64, CostTable, InstanceLimits, Platform, Replay, ResourceId, Session, SessionPool, SimConfig,
};
use scperf_kernel::{SimError, Time, TraceMode};
use scperf_sync::Mutex;

fn platform() -> (Platform, ResourceId, ResourceId) {
    let mut p = Platform::new();
    let cpu = p.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 50.0);
    let hw = p.parallel("hw", Time::ns(10), CostTable::asic_hw(), 0.5);
    (p, cpu, hw)
}

fn config() -> SimConfig {
    SimConfig::new()
        .platform(platform().0)
        .tracing(TraceMode::Unbounded)
}

/// The two-stage pipeline under test: `gen` (annotated, on the CPU)
/// streams derived values into `xform` (annotated, on the accelerator),
/// and an untimed sink collects the results. A stage with a trace in
/// `replays` elaborates in replay mode with a *plain* body computing the
/// same values — the trace-cache fast path.
fn elaborate(
    session: &mut Session,
    cpu: ResourceId,
    hw: ResourceId,
    nitems: usize,
    seed: i64,
    replays: &[(String, Replay)],
) -> Arc<Mutex<Vec<i64>>> {
    let replay = |name: &str| {
        replays
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.clone())
    };
    let mid = session.fifo::<i64>("mid", 2);
    let out = session.fifo::<i64>("out", 2);
    let collected: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));

    let gen_value = move |i: usize| -> i64 {
        let mut acc = seed;
        for k in 0..4 {
            acc += (i + k) as i64 * 3;
        }
        acc
    };
    let tx = mid.clone();
    match replay("gen") {
        Some(replay) => {
            session.spawn_replaying("gen", cpu, replay, move |ctx| {
                for i in 0..nitems {
                    tx.write(ctx, gen_value(i));
                }
            });
        }
        None => {
            session.spawn("gen", cpu, move |ctx| {
                for i in 0..nitems {
                    let mut acc = g_i64(seed);
                    for k in 0..4 {
                        acc = acc + g_i64((i + k) as i64) * g_i64(3);
                    }
                    tx.write(ctx, acc.get());
                }
            });
        }
    }

    let rx = mid;
    let tx = out.clone();
    match replay("xform") {
        Some(replay) => {
            session.spawn_replaying("xform", hw, replay, move |ctx| {
                for _ in 0..nitems {
                    let v = rx.read(ctx);
                    tx.write(ctx, v * 2 - 1);
                }
            });
        }
        None => {
            session.spawn("xform", hw, move |ctx| {
                for _ in 0..nitems {
                    let v = rx.read(ctx);
                    let r = g_i64(v) * g_i64(2) - g_i64(1);
                    tx.write(ctx, r.get());
                }
            });
        }
    }

    let sink = Arc::clone(&collected);
    session.spawn_untimed("sink", move |ctx| {
        for _ in 0..nitems {
            let v = out.read(ctx);
            sink.lock().push(v);
        }
    });
    collected
}

/// Everything a run must reproduce bit for bit.
fn observe(session: &mut Session, collected: &Mutex<Vec<i64>>) -> impl PartialEq + std::fmt::Debug {
    let summary = session.run().expect("determinate pipeline");
    (
        summary,
        session.report(),
        session.take_events().events,
        collected.lock().clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fresh vs reset vs a recycled slot replaying recorded traces:
    /// identical down to the trace, for random workload sizes and seeds.
    #[test]
    fn fresh_reset_and_replaying_slots_are_bit_identical(
        nitems in 1usize..12,
        seed in -50_i64..50,
    ) {
        let (_, cpu, hw) = platform();

        let mut fresh = config().build();
        let data = elaborate(&mut fresh, cpu, hw, nitems, seed, &[]);
        let oracle = observe(&mut fresh, &data);

        // Reset: run an unrelated scenario first so the slot is dirty.
        let mut recycled = config().build();
        recycled.spawn("other", cpu, |_ctx| {
            let _ = g_i64(5) * g_i64(7);
        });
        recycled.run().expect("warmup scenario");
        recycled.reset();
        let data = elaborate(&mut recycled, cpu, hw, nitems, seed, &[]);
        prop_assert_eq!(&observe(&mut recycled, &data), &oracle);

        // Replayed: the one slot records live, then comes back recycled
        // and replays the Recorder's traces.
        let pool = SessionPool::new(
            InstanceLimits { max_sessions: 1, ..InstanceLimits::default() },
            || config().build(),
        );
        let replays = {
            let mut slot = pool.acquire().expect("free slot");
            let recorder = slot.recorder();
            let data = elaborate(&mut slot, cpu, hw, nitems, seed, &[]);
            prop_assert_eq!(&observe(&mut slot, &data), &oracle);
            recorder.replays()
        };
        let mut slot = pool.acquire().expect("the slot was recycled");
        let data = elaborate(&mut slot, cpu, hw, nitems, seed, &replays);
        prop_assert_eq!(&observe(&mut slot, &data), &oracle);
        prop_assert_eq!(pool.stats().resets, 1);
    }
}

#[test]
fn a_panicked_run_does_not_poison_its_slot() {
    // A process panic fails the run with ProcessPanic while another
    // process is still blocked on a channel; the slot that hosted the
    // failed run must come back from the pool reset and produce a run
    // bit-identical to a fresh session.
    let (_, cpu, hw) = platform();
    let pool = SessionPool::new(
        InstanceLimits {
            max_sessions: 1,
            ..InstanceLimits::default()
        },
        || config().build(),
    );

    {
        let mut slot = pool.acquire().expect("free slot");
        let sim = slot.sim();
        let ch = sim.fifo::<u32>("ch", 1);
        let rx = ch.clone();
        sim.spawn("reader", move |ctx| {
            let _ = rx.read(ctx);
            let _ = rx.read(ctx); // never written: blocked at the panic
        });
        sim.spawn("bad", move |ctx| {
            ch.write(ctx, 1);
            ctx.wait(Time::ns(5));
            panic!("deliberate test panic");
        });
        match slot.run() {
            Err(SimError::ProcessPanic { process, .. }) => assert_eq!(process, "bad"),
            other => panic!("expected ProcessPanic, got {other:?}"),
        }
    }

    let mut fresh = config().build();
    let data = elaborate(&mut fresh, cpu, hw, 6, 7, &[]);
    let oracle = observe(&mut fresh, &data);

    let mut slot = pool.acquire().expect("the slot was recycled");
    let data = elaborate(&mut slot, cpu, hw, 6, 7, &[]);
    assert_eq!(observe(&mut slot, &data), oracle);
    assert_eq!(pool.stats().resets, 1, "release after the failed run");
}
