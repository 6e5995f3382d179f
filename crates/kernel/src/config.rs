//! Kernel-side simulator configuration: the [`SimOptions`] builder.
//!
//! Historically the knobs of a [`Simulator`](crate::Simulator) were
//! scattered over dedicated setters (`enable_tracing`,
//! `enable_tracing_ring`, `set_trace_sink`). `SimOptions` folds them into
//! one value that can be built up, passed around and handed to
//! [`Simulator::with_options`](crate::Simulator::with_options) — it is
//! also the kernel half of the full-stack `scperf_core::SimConfig`
//! builder, which threads an options value through to the kernel when a
//! session is built.

use scperf_obs::TraceSink;

use crate::sim::Simulator;

/// How the kernel records trace events.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No event recording (the default; fastest).
    #[default]
    Off,
    /// Record every event into an unbounded in-memory buffer.
    Unbounded,
    /// Record into a ring buffer keeping roughly the last `n` events —
    /// bounded memory for long simulations.
    Ring(usize),
}

/// Kernel-level simulator options.
///
/// Collects the evaluate-phase parallelism, attribution and the
/// trace-sink wiring in one builder. Construct with [`SimOptions::new`], chain the
/// setters, and either call [`SimOptions::build`] or pass the value to
/// [`Simulator::with_options`].
///
/// # Examples
///
/// ```
/// use scperf_kernel::{SimOptions, TraceMode};
///
/// let mut sim = SimOptions::new().tracing(TraceMode::Ring(1024)).build();
/// sim.spawn("p", |ctx| ctx.wait(scperf_kernel::Time::ns(1)));
/// sim.run()?;
/// # Ok::<(), scperf_kernel::SimError>(())
/// ```
pub struct SimOptions {
    pub(crate) trace: TraceMode,
    pub(crate) sink: Option<Box<dyn TraceSink>>,
    pub(crate) attribution: bool,
    pub(crate) jobs: usize,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions::new()
    }
}

impl SimOptions {
    /// Default options: sequential evaluation, no attribution and no
    /// tracing.
    pub fn new() -> SimOptions {
        SimOptions {
            trace: TraceMode::Off,
            sink: None,
            attribution: false,
            jobs: 1,
        }
    }

    /// Sets the evaluate-phase parallelism degree. The default, `1`, is
    /// the sequential single-baton scheduler, preserved verbatim. With
    /// `jobs > 1` each delta cycle's runnable processes are dispatched
    /// concurrently across `jobs` threads (the scheduler plus a lazily
    /// created `jobs - 1`-worker pool); their kernel side effects are
    /// buffered per process and committed in canonical pid order at the
    /// delta boundary, so summaries, metrics and traces stay
    /// bit-identical to `jobs = 1` for determinate models. `0` is
    /// treated as `1`. Non-determinate constructs (conflicting
    /// same-delta channel accesses) are reported as
    /// [`SimError::NonDeterminate`](crate::SimError::NonDeterminate)
    /// instead of racing. See `docs/PARALLELISM.md`.
    ///
    /// # Examples
    ///
    /// ```
    /// use scperf_kernel::{SimOptions, Time};
    ///
    /// let mut sim = SimOptions::new().jobs(8).build();
    /// let fifo = sim.fifo::<u32>("data", 4);
    /// let (tx, rx) = (fifo.clone(), fifo);
    /// sim.spawn("producer", move |ctx| {
    ///     for i in 0..16 {
    ///         tx.write(ctx, i);
    ///         ctx.wait(Time::ns(5));
    ///     }
    /// });
    /// sim.spawn("consumer", move |ctx| {
    ///     for _ in 0..16 {
    ///         let _ = rx.read(ctx);
    ///     }
    /// });
    /// // Bit-identical to the same model run with jobs = 1.
    /// let summary = sim.run()?;
    /// assert_eq!(summary.end_time, Time::ns(80));
    /// # Ok::<(), scperf_kernel::SimError>(())
    /// ```
    pub fn jobs(mut self, jobs: usize) -> SimOptions {
        self.jobs = jobs.max(1);
        self
    }

    /// Selects the trace recording mode (ignored when a custom sink is
    /// installed with [`SimOptions::trace_sink`]).
    pub fn tracing(mut self, mode: TraceMode) -> SimOptions {
        self.trace = mode;
        self
    }

    /// Enables scheduling-state attribution: per-process waiting-time
    /// accounting and per-channel queue-depth/blocked-time counters in
    /// *simulated* time, surfaced through
    /// [`Simulator::sched_stats`](crate::Simulator::sched_stats) and
    /// the `kernel.sched.*` metrics. Attribution is measurement-only:
    /// simulated behaviour is bit-identical whether it is on or off.
    pub fn attribution(mut self, enable: bool) -> SimOptions {
        self.attribution = enable;
        self
    }

    /// Installs a custom [`TraceSink`] (streaming writer, aggregator,
    /// …), replacing the built-in memory sinks of
    /// [`SimOptions::tracing`].
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> SimOptions {
        self.sink = Some(sink);
        self
    }

    /// Builds the simulator (equivalent to
    /// [`Simulator::with_options`]).
    pub fn build(self) -> Simulator {
        Simulator::with_options(self)
    }
}

impl std::fmt::Debug for SimOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimOptions")
            .field("trace", &self.trace)
            .field("sink", &self.sink.as_ref().map(|_| "custom"))
            .field("attribution", &self.attribution)
            .field("jobs", &self.jobs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    #[test]
    fn options_thread_tracing_into_the_simulator() {
        let mut sim = SimOptions::new().tracing(TraceMode::Unbounded).build();
        sim.spawn("p", |ctx| {
            ctx.wait(Time::ns(1));
            ctx.emit_trace("mark", "x");
        });
        sim.run().unwrap();
        let trace = sim.take_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].label, "mark");
    }

    #[test]
    fn ring_mode_bounds_the_buffer() {
        let mut sim = SimOptions::new().tracing(TraceMode::Ring(4)).build();
        sim.spawn("p", |ctx| {
            for i in 0..64 {
                ctx.emit_trace("tick", i.to_string());
            }
        });
        sim.run().unwrap();
        let table = sim.take_events();
        assert!(table.events.len() <= 8, "ring must bound the buffer");
        assert!(table.dropped > 0);
    }
}
