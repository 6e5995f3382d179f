//! Trace-overhead microbenchmark: what does observability cost?
//!
//! Runs the same FIFO producer/consumer workload in three configurations
//! and reports host time per simulated channel operation:
//!
//! 1. **off** — tracing disabled (one flag test; the record path must
//!    not allocate at all),
//! 2. **ring** — structured events into a bounded [`MemorySink`] ring,
//! 3. **legacy** — a sink that eagerly formats every event into the old
//!    `String`-per-field [`TraceRecord`] shape, emulating the pre-obs
//!    hot path for comparison.
//!
//! Run with `cargo bench -p scperf-bench --bench trace_overhead`.

use scperf_bench::microbench::{run_group, Case};
use scperf_kernel::{SimOptions, Time, TraceMode, TraceRecord};
use scperf_obs::{Interner, Sym, TraceEvent, TraceSink};

const ITEMS: u32 = 10_000;

/// Emulates the legacy hot path: every record eagerly formats process,
/// label and detail into owned `String`s.
#[derive(Debug, Default)]
struct LegacyStringSink {
    records: Vec<TraceRecord>,
}

impl TraceSink for LegacyStringSink {
    fn record(&mut self, interner: &Interner, event: &TraceEvent) {
        // Build the same strings the old `record_trace` built. A real
        // process-name lookup is not available from the sink, so use the
        // pid's decimal form — same allocation profile.
        let detail = if event.chan == Sym::NONE {
            event.payload.to_string()
        } else {
            format!("{}={}", interner.resolve(event.chan), event.payload)
        };
        self.records.push(TraceRecord {
            time: Time::ps(event.time_ps),
            delta: event.delta,
            process: event.pid.to_string(),
            label: interner.resolve(event.label).to_string(),
            detail,
        });
    }

    fn flush(&mut self) {}
}

fn fifo_workload(options: SimOptions) -> u64 {
    let mut sim = options.build();
    let f = sim.fifo::<u32>("ch", 16);
    let (w, r) = (f.clone(), f);
    sim.spawn("producer", move |ctx| {
        for i in 0..ITEMS {
            w.write(ctx, i);
        }
    });
    sim.spawn("consumer", move |ctx| {
        let mut acc = 0_u64;
        for _ in 0..ITEMS {
            acc = acc.wrapping_add(u64::from(r.read(ctx)));
        }
        std::hint::black_box(acc);
    });
    let summary = sim.run().expect("simulation runs");
    summary.deltas
}

fn main() {
    let cases: Vec<Case> = vec![
        Case::new("tracing_off", || {
            std::hint::black_box(fifo_workload(SimOptions::new()));
        }),
        Case::new("tracing_ring", || {
            std::hint::black_box(fifo_workload(
                SimOptions::new().tracing(TraceMode::Ring(4096)),
            ));
        }),
        Case::new("tracing_unbounded", || {
            std::hint::black_box(fifo_workload(
                SimOptions::new().tracing(TraceMode::Unbounded),
            ));
        }),
        Case::new("tracing_legacy_strings", || {
            std::hint::black_box(fifo_workload(
                SimOptions::new().trace_sink(Box::new(LegacyStringSink::default())),
            ));
        }),
    ];
    run_group(&format!("trace_overhead ({ITEMS} fifo items)"), &cases);

    // The workload above is dominated by scheduling (context switches
    // and channel bookkeeping), so the per-record cost drowns in it.
    // Measure the record path itself too: 1M events straight into each
    // sink.
    let mut interner = Interner::new();
    let label = interner.intern("fifo.write");
    let chan = interner.intern("ch");
    let ev = TraceEvent {
        time_ps: 1_000,
        delta: 1,
        pid: 0,
        label,
        chan,
        payload: scperf_obs::Payload::UInt(7),
    };
    const RECORDS: usize = 1_000_000;
    let (i1, e1) = (interner.clone(), ev.clone());
    let (i2, e2) = (interner, ev);
    let direct: Vec<Case> = vec![
        Case::new("memory_sink_compact", move || {
            let mut sink = scperf_obs::MemorySink::new();
            for _ in 0..RECORDS {
                sink.record(&i1, &e1);
            }
            std::hint::black_box(sink.len());
        }),
        Case::new("legacy_string_sink", move || {
            let mut sink = LegacyStringSink::default();
            for _ in 0..RECORDS {
                sink.record(&i2, &e2);
            }
            std::hint::black_box(sink.records.len());
        }),
    ];
    run_group(&format!("record path ({RECORDS} events)"), &direct);

    // Sanity: the ring sink actually bounds memory.
    let mut sim = SimOptions::new().tracing(TraceMode::Ring(1024)).build();
    let f = sim.fifo::<u32>("ch", 16);
    let (w, r) = (f.clone(), f);
    sim.spawn("producer", move |ctx| {
        for i in 0..ITEMS {
            w.write(ctx, i);
        }
    });
    sim.spawn("consumer", move |ctx| {
        for _ in 0..ITEMS {
            std::hint::black_box(r.read(ctx));
        }
    });
    sim.run().expect("simulation runs");
    let table = sim.take_events();
    println!(
        "ring check: kept {} events, dropped {} (bound 1024)",
        table.len(),
        table.dropped
    );
}
