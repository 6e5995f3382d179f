//! Kernel hot-path microbenchmarks: the scheduler↔process handoff and
//! the timed-notification queue, reported as absolute per-unit costs.
//!
//! Usage:
//!
//! ```text
//! cargo run -p scperf-bench --release --bin kernel_bench -- [--reps N] [--quick]
//! ```
//!
//! Three kernels, each reported as host nanoseconds per process
//! activation (median, min and stddev over `--reps` runs; pingpong's
//! over its overhead pairs, at least 15 in a full run):
//!
//! * **pingpong** — two processes over a [`scperf_kernel::Rendezvous`];
//!   every transfer is a chain of scheduler↔process round trips, the
//!   purest handoff stressor.
//! * **fanout** — one notifier delta-firing a [`scperf_kernel::Event`]
//!   with many waiters; measures wakeup batching through the evaluate
//!   phase.
//! * **timer_storm** — many processes issuing dense `wait(time)` calls
//!   with colliding deadlines (plus one far-future wait each, tens of
//!   milliseconds out); stresses the timed queue, not the handoff.
//!
//! Every repetition of a kernel must produce the *same* [`SimSummary`]
//! — the bench asserts this — so the costs are measured at identical
//! simulated behaviour. Pingpong runs alternate with its attribution-on
//! twin, and the attribution overhead is the median of the per-pair
//! ratios. Results go to `BENCH_kernel.json` together with the host's
//! cpu count; the committed baseline is a run pinned to one CPU
//! (`taskset -c 0`).

use std::time::{Duration, Instant};

use scperf_bench::microbench::{
    host_cpus, interleave, min_secs, ns_per_unit, paired_overhead, BenchArgs, Spread,
};
use scperf_kernel::{SimOptions, SimSummary, Simulator, Time};
use scperf_obs::json::JsonWriter;

/// Two processes rendezvous `iters` times. Each transfer blocks both
/// sides, so the activation count — and therefore the handoff count — is
/// proportional to `iters`. With `attribution` the kernel additionally
/// accounts per-process wait time and per-channel blocked time on every
/// one of those transfers — the worst case for the accounting.
fn pingpong(iters: u64, attribution: bool) -> (SimSummary, Duration) {
    let mut sim = SimOptions::new().attribution(attribution).build();
    let ch = sim.rendezvous::<u64>("pingpong");
    let tx = ch.clone();
    sim.spawn("ping", move |ctx| {
        for i in 0..iters {
            tx.write(ctx, i);
        }
    });
    let rx = ch;
    sim.spawn("pong", move |ctx| {
        let mut acc = 0u64;
        for _ in 0..iters {
            acc = acc.wrapping_add(rx.read(ctx));
        }
        std::hint::black_box(acc);
    });
    let start = Instant::now();
    let summary = sim.run().expect("pingpong runs");
    (summary, start.elapsed())
}

/// One notifier delta-fires an event `rounds` times; `procs` waiters all
/// wake each round.
fn fanout(procs: usize, rounds: u64) -> (SimSummary, Duration) {
    let mut sim = Simulator::new();
    let ev = sim.event("broadcast");
    for p in 0..procs {
        let ev = ev.clone();
        sim.spawn(format!("waiter{p}"), move |ctx| {
            for _ in 0..rounds {
                ctx.wait_event(&ev);
            }
        });
    }
    sim.spawn("notifier", move |ctx| {
        for _ in 0..rounds {
            // The waiters are all parked by the time the notifier runs
            // (spawn order); the timed wait separates the rounds.
            ev.notify_delta();
            ctx.wait(Time::ns(1));
        }
    });
    let start = Instant::now();
    let summary = sim.run().expect("fanout runs");
    (summary, start.elapsed())
}

/// `procs` processes each issue `waits` timed waits with colliding
/// xorshift-derived deadlines, then one far-future wait of 80 ms or more,
/// so the queue also holds entries far beyond the dense instants.
fn timer_storm(procs: usize, waits: u64) -> (SimSummary, Duration) {
    let mut sim = Simulator::new();
    for p in 0..procs {
        sim.spawn(format!("timer{p}"), move |ctx| {
            let mut x = p as u64 + 1;
            for _ in 0..waits {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // 0..=999 ps: dense, frequently colliding deadlines.
                ctx.wait(Time::ps(x % 1_000));
            }
            ctx.wait(Time::ms(80 + p as u64)); // far-future tail
        });
    }
    let start = Instant::now();
    let summary = sim.run().expect("timer storm runs");
    (summary, start.elapsed())
}

/// Asserts that every run simulated the same summary and returns it
/// together with the per-run wall times.
fn same_summary(name: &str, runs: Vec<(SimSummary, Duration)>) -> (SimSummary, Vec<Duration>) {
    let summary = runs[0].0;
    for (s, _) in &runs[1..] {
        assert_eq!(
            *s, summary,
            "{name}: repetitions disagree on simulated behaviour"
        );
    }
    (summary, runs.into_iter().map(|(_, t)| t).collect())
}

/// `reps` runs of `run`.
fn repeat(reps: usize, run: impl Fn() -> (SimSummary, Duration)) -> Vec<(SimSummary, Duration)> {
    (0..reps).map(|_| run()).collect()
}

struct BenchResult {
    name: &'static str,
    summary: SimSummary,
    times: Vec<Duration>,
    cost: Spread,
}

fn bench(name: &'static str, runs: Vec<(SimSummary, Duration)>) -> BenchResult {
    let (summary, times) = same_summary(name, runs);
    let cost = ns_per_unit(summary.activations, &times);
    println!(
        "{name:>12}: {:>8.1} ns/activation (min {:.1}, stddev {:.1}; {} activations)",
        cost.median, cost.min, cost.stddev, summary.activations,
    );
    BenchResult {
        name,
        summary,
        times,
        cost,
    }
}

fn write_summary(w: &mut JsonWriter, name: &str, summary: &SimSummary) {
    w.key("name");
    w.value_str(name);
    w.key("activations");
    w.value_u64(summary.activations);
    w.key("deltas");
    w.value_u64(summary.deltas);
    w.key("end_time_ps");
    w.value_u64(summary.end_time.as_ps());
}

fn main() {
    let args = BenchArgs::parse();
    let scale = if args.quick { 10 } else { 1 };
    let pingpong_iters = 200_000 / scale;
    let fanout_procs = 64;
    let fanout_rounds = 2_000 / scale;
    let storm_procs = 32;
    let storm_waits = 4_000 / scale;
    let cpus = host_cpus();

    println!(
        "kernel hot-path microbench ({} reps{}, {cpus} host cpu(s))",
        args.reps,
        if args.quick { ", quick" } else { "" }
    );

    // Pingpong alternates with its attribution-on twin (see below), so
    // its cost runs double as the overhead's attribution-off leg.
    let (pingpong_runs, attribution_runs) = interleave(
        args.overhead_pairs(),
        || pingpong(pingpong_iters, false),
        || pingpong(pingpong_iters, true),
    );
    let results = [
        bench("pingpong", pingpong_runs),
        bench(
            "fanout",
            repeat(args.reps, || fanout(fanout_procs, fanout_rounds)),
        ),
        bench(
            "timer_storm",
            repeat(args.reps, || timer_storm(storm_procs, storm_waits)),
        ),
    ];

    // Attribution overhead: the scheduling-state accounting rides the
    // handoff-heaviest kernel (pingpong). The baseline is the
    // attribution-off measurement above, taken alternately with this
    // one; the summaries must stay bit-identical and the median of the
    // per-pair host-time overheads ≤ 5%.
    let base = &results[0];
    let (attr_sum, attr_times) = same_summary("pingpong+attribution", attribution_runs);
    assert_eq!(
        attr_sum, base.summary,
        "pingpong: attribution changed simulated behaviour"
    );
    let (off, on) = (min_secs(&base.times), min_secs(&attr_times));
    let attr_overhead = paired_overhead(&base.times, &attr_times);
    println!(
        " attribution: off {off:.4}s  on {on:.4}s  overhead {:+.2}%",
        attr_overhead * 100.0
    );

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("reps");
    w.value_u64(args.reps as u64);
    w.key("quick");
    w.value_bool(args.quick);
    w.key("host_cpus");
    w.value_u64(cpus as u64);
    w.key("attribution");
    w.begin_object();
    w.key("bench");
    w.value_str("pingpong");
    w.key("off_seconds");
    w.value_f64(off);
    w.key("on_seconds");
    w.value_f64(on);
    w.key("overhead_pct");
    w.value_f64(attr_overhead * 100.0);
    w.key("summaries_identical");
    w.value_bool(true);
    w.end_object();
    w.key("benches");
    w.begin_array();
    for r in &results {
        w.begin_object();
        write_summary(&mut w, r.name, &r.summary);
        r.cost.write(&mut w, "ns_per_activation");
        w.key("summaries_identical");
        w.value_bool(true);
        w.end_object();
    }
    w.end_array();
    w.end_object();

    let dir = std::env::var("SCPERF_OBS_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_kernel.json");
    std::fs::write(&path, w.finish()).expect("write BENCH_kernel.json");
    println!("bench results -> {path}");

    if !args.quick {
        // Quick mode is a CI smoke run on loaded shared machines; the
        // overhead bound is only meaningful at full problem sizes.
        assert!(
            attr_overhead <= 0.05,
            "attribution accounting must cost <=5% on pingpong (got {:+.2}%)",
            attr_overhead * 100.0
        );
    }
}
