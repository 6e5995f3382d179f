//! The service: admission control and concurrent execution.
//!
//! [`Service`] layers policy on top of the raw
//! [`scperf_dse::WorkerPool`]:
//!
//! * **Bounded queue + backpressure** — at most `queue_capacity` jobs
//!   may be pending (queued or running); requests beyond that are
//!   rejected immediately with a `queue_full` error carrying
//!   `retry_after_ms`, instead of building an unbounded backlog.
//! * **Deadlines** — a request's `deadline_ms` is measured from
//!   admission; expiry is detected both in the queue and mid-run (the
//!   engine steps the simulation and checks the host clock between
//!   chunks).
//! * **Batching** — a batch request fans its scenarios out over the
//!   pool; the response assembles per-scenario results in request
//!   order, so it is bitwise identical for any worker count.
//! * **Graceful shutdown** — [`Service::drain`] stops admission and
//!   blocks until every accepted job has run and its response has been
//!   delivered.
//!
//! Each request runs in a slot of a [`SessionPool`] sized `workers + 1`,
//! so a slot is always free while every worker is busy. Execution
//! results are memoized through a shared, bounded [`SegmentCostCache`]:
//! the first run of a `(stage, resource, nframes)` combination records
//! per-segment cycle traces, later runs replay them bit-identically at a
//! fraction of the host cost — repeat traffic replays every stage. When
//! every slot is live (possible only when more threads than slots run
//! requests inline through [`Service::handle_line_sync`]) the request
//! is rejected with `pool_exhausted` plus a `retry_after_ms` hint
//! derived from the observed p90 run duration.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use scperf_core::{InstanceLimits, SessionPool};
use scperf_dse::{SegmentCostCache, WorkerPool};
use scperf_obs::{prom, LogHistogram, MetricValue, MetricsSnapshot};
use scperf_sync::Mutex;

use crate::engine;
use crate::json;
use crate::protocol::{ErrorCode, Request, RequestError, Scenario};
use crate::render;

/// Tuning knobs for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing simulations (and TCP connections).
    pub workers: usize,
    /// Maximum pending (queued + running) jobs before requests are
    /// rejected with `queue_full`.
    pub queue_capacity: usize,
    /// The `retry_after_ms` hint attached to `queue_full` rejections.
    pub retry_after_ms: u64,
    /// Flight-recorder depth: when non-zero, every run keeps roughly
    /// the last this-many kernel trace events in a ring, dumped to
    /// stderr if the run is cancelled by its deadline or panics.
    /// Zero (the default) disables tracing entirely.
    pub flight_recorder: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            retry_after_ms: 50,
            flight_recorder: 0,
        }
    }
}

/// Where response lines go. Cloneable so pooled jobs can answer
/// out-of-order while the frontend keeps reading.
#[derive(Clone)]
pub struct Responder {
    send_fn: Arc<dyn Fn(&str) + Send + Sync>,
}

impl Responder {
    /// A responder calling `f` with each complete response line
    /// (without trailing newline).
    pub fn new(f: impl Fn(&str) + Send + Sync + 'static) -> Responder {
        Responder {
            send_fn: Arc::new(f),
        }
    }

    /// A responder appending `line + "\n"` to `w` (one `write_all` +
    /// flush per line, serialized by an internal lock).
    pub fn from_writer<W: Write + Send + 'static>(w: W) -> Responder {
        let w = Mutex::new(w);
        Responder::new(move |line| {
            let mut w = w.lock();
            let _ = w.write_all(line.as_bytes());
            let _ = w.write_all(b"\n");
            let _ = w.flush();
        })
    }

    /// A responder collecting lines into a shared vector — for tests
    /// and benches.
    pub fn collector() -> (Responder, Arc<Mutex<Vec<String>>>) {
        let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        (
            Responder::new(move |line| sink.lock().push(line.to_string())),
            lines,
        )
    }

    /// Delivers one response line.
    pub fn send(&self, line: &str) {
        (self.send_fn)(line);
    }
}

impl std::fmt::Debug for Responder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Responder").finish_non_exhaustive()
    }
}

/// What the frontend should do after a line was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Keep reading.
    Continue,
    /// A shutdown was requested: stop reading and drain.
    Shutdown,
}

#[derive(Debug, Default)]
struct Counters {
    received: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    invalid: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    deadline_exceeded: AtomicU64,
    batches: AtomicU64,
    panics: AtomicU64,
    flight_dumps: AtomicU64,
    op_sim: AtomicU64,
    op_batch: AtomicU64,
    op_ping: AtomicU64,
    op_stats: AtomicU64,
    op_telemetry: AtomicU64,
    op_shutdown: AtomicU64,
    est_fast_charges: AtomicU64,
    est_site_hits: AtomicU64,
    est_site_misses: AtomicU64,
    est_dfg_arena_reuse: AtomicU64,
}

/// One coherent reading of every counter, taken by [`Counters::read`].
#[derive(Debug, Default, Clone, Copy)]
struct CounterValues {
    received: u64,
    accepted: u64,
    rejected: u64,
    invalid: u64,
    completed: u64,
    failed: u64,
    deadline_exceeded: u64,
    batches: u64,
    panics: u64,
    flight_dumps: u64,
    op_sim: u64,
    op_batch: u64,
    op_ping: u64,
    op_stats: u64,
    op_telemetry: u64,
    op_shutdown: u64,
    est_fast_charges: u64,
    est_site_hits: u64,
    est_site_misses: u64,
    est_dfg_arena_reuse: u64,
}

impl Counters {
    /// Reads every counter; with `reset`, each counter is atomically
    /// read-and-zeroed in one `swap`, so the returned snapshot *is*
    /// the value that was taken out — an increment racing the reset
    /// lands either in this snapshot or in the zeroed counter, never
    /// in neither. (The old reset snapshotted and then stored zero per
    /// counter; anything added between the two was silently lost.)
    fn read(&self, reset: bool) -> CounterValues {
        let take = |c: &AtomicU64| {
            if reset {
                c.swap(0, Ordering::Relaxed)
            } else {
                c.load(Ordering::Relaxed)
            }
        };
        CounterValues {
            received: take(&self.received),
            accepted: take(&self.accepted),
            rejected: take(&self.rejected),
            invalid: take(&self.invalid),
            completed: take(&self.completed),
            failed: take(&self.failed),
            deadline_exceeded: take(&self.deadline_exceeded),
            batches: take(&self.batches),
            panics: take(&self.panics),
            flight_dumps: take(&self.flight_dumps),
            op_sim: take(&self.op_sim),
            op_batch: take(&self.op_batch),
            op_ping: take(&self.op_ping),
            op_stats: take(&self.op_stats),
            op_telemetry: take(&self.op_telemetry),
            op_shutdown: take(&self.op_shutdown),
            est_fast_charges: take(&self.est_fast_charges),
            est_site_hits: take(&self.est_site_hits),
            est_site_misses: take(&self.est_site_misses),
            est_dfg_arena_reuse: take(&self.est_dfg_arena_reuse),
        }
    }
}

struct ServiceShared {
    cache: SegmentCostCache,
    pool: SessionPool,
    draining: AtomicBool,
    counters: Counters,
    flight_recorder: usize,
    /// Fallback `retry_after_ms` until enough runs complete for
    /// [`ServiceShared::retry_hint`] to derive one from observation.
    retry_default: u64,
    started: Mutex<Instant>,
    /// Request latency (admission → response), in nanosecond ticks.
    latency: Mutex<LogHistogram>,
    /// Time spent queued before a worker picked the job up.
    queue_wait: Mutex<LogHistogram>,
    /// Session-run duration (engine execution only).
    run_duration: Mutex<LogHistogram>,
    /// Per-run kernel + estimator metrics, folded across every
    /// completed run: counters sum, gauges keep the latest run's value.
    sim_metrics: Mutex<MetricsSnapshot>,
}

impl ServiceShared {
    fn uptime_s(&self) -> f64 {
        self.started.lock().elapsed().as_secs_f64()
    }

    /// The `retry_after_ms` hint for a saturation rejection: the
    /// observed p90 run duration, rounded up to whole milliseconds —
    /// by then a slot/queue position has very likely freed — falling
    /// back to the configured default until any run has completed.
    fn retry_hint(&self) -> u64 {
        self.run_duration
            .lock()
            .quantile(0.9)
            .map(|ns| ((ns as f64 / 1e6).ceil() as u64).max(1))
            .unwrap_or(self.retry_default)
    }
}

/// The retry hint to attach to a worker-side failure: pool exhaustion
/// is the one retryable engine error (a slot frees as soon as any
/// in-flight run finishes).
fn retry_hint_for(shared: &ServiceShared, err: &RequestError) -> Option<u64> {
    (err.code == ErrorCode::PoolExhausted).then(|| shared.retry_hint())
}

/// The simulation service. See the [module docs](self).
pub struct Service {
    pool: WorkerPool,
    shared: Arc<ServiceShared>,
    queue_capacity: usize,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("pool", &self.pool)
            .field("queue_capacity", &self.queue_capacity)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Starts a service with `config.workers` worker threads.
    pub fn new(config: ServiceConfig) -> Service {
        Service {
            pool: WorkerPool::new("serve", config.workers),
            shared: Arc::new(ServiceShared {
                cache: SegmentCostCache::new(),
                pool: SessionPool::new(
                    InstanceLimits {
                        max_sessions: config.workers.max(1) + 1,
                        ..InstanceLimits::default()
                    },
                    engine::pool_factory(config.flight_recorder),
                ),
                draining: AtomicBool::new(false),
                counters: Counters::default(),
                flight_recorder: config.flight_recorder,
                retry_default: config.retry_after_ms,
                started: Mutex::new(Instant::now()),
                latency: Mutex::new(LogHistogram::new()),
                queue_wait: Mutex::new(LogHistogram::new()),
                run_duration: Mutex::new(LogHistogram::new()),
                sim_metrics: Mutex::new(MetricsSnapshot::new()),
            }),
            queue_capacity: config.queue_capacity.max(1),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Jobs accepted but not yet finished.
    pub fn pending(&self) -> usize {
        self.pool.pending()
    }

    /// The reply to a request line longer than
    /// [`MAX_LINE_BYTES`](crate::protocol::MAX_LINE_BYTES), which the
    /// frontends never buffer whole: an `invalid_request` error,
    /// counted as received and invalid.
    pub fn reject_long_line(&self) -> String {
        self.reject_line(
            ErrorCode::InvalidRequest,
            format!(
                "request line exceeds {} bytes",
                crate::protocol::MAX_LINE_BYTES
            ),
        )
    }

    /// The reply to a request line that is not valid UTF-8: a
    /// `parse_error`, counted as received and invalid.
    pub fn reject_non_utf8_line(&self) -> String {
        self.reject_line(ErrorCode::Parse, "request line is not valid UTF-8".into())
    }

    fn reject_line(&self, code: ErrorCode, message: String) -> String {
        let counters = &self.shared.counters;
        counters.received.fetch_add(1, Ordering::Relaxed);
        counters.invalid.fetch_add(1, Ordering::Relaxed);
        let err = RequestError {
            code,
            field: None,
            message,
        };
        render::error(None, &err, None)
    }

    /// Handles one request line asynchronously: control ops are
    /// answered inline, simulation work is enqueued on the pool and
    /// answered through `responder` when it completes (possibly out of
    /// request order — responses carry the request id).
    pub fn handle_line(&self, line: &str, responder: &Responder) -> Disposition {
        let (request, disposition) = match self.parse_line(line, responder) {
            Some(pair) => pair,
            None => return Disposition::Continue,
        };
        if let Some(d) = disposition {
            return d;
        }
        match request {
            Request::Sim { id, scenario } => {
                if let Err((err, retry)) = self.admit(1) {
                    responder.send(&render::error(Some(&id), &err, retry));
                    return Disposition::Continue;
                }
                let shared = Arc::clone(&self.shared);
                let responder = responder.clone();
                let admitted = Instant::now();
                let submitted = self.pool.submit(move || {
                    let line = match run_scenario(&shared, &scenario, admitted) {
                        Ok(out) => render::ok_sim(&id, &scenario, &out),
                        Err(err) => {
                            let retry = retry_hint_for(&shared, &err);
                            render::error(Some(&id), &err, retry)
                        }
                    };
                    responder.send(&line);
                });
                debug_assert!(submitted, "pool outlives the service");
            }
            Request::Batch { id, scenarios } => {
                let runnable = scenarios.iter().filter(|s| s.is_ok()).count();
                if let Err((err, retry)) = self.admit(runnable) {
                    responder.send(&render::error(Some(&id), &err, retry));
                    return Disposition::Continue;
                }
                self.shared.counters.batches.fetch_add(1, Ordering::Relaxed);
                self.submit_batch(id, scenarios, runnable, responder);
            }
            Request::Ping { .. }
            | Request::Stats { .. }
            | Request::Telemetry { .. }
            | Request::Shutdown { .. } => {
                unreachable!("control ops are answered by parse_line")
            }
        }
        Disposition::Continue
    }

    /// Handles one request line synchronously on the calling thread:
    /// same protocol, but simulation work runs inline instead of being
    /// enqueued, and the response line is returned. Used by the TCP
    /// frontend, whose *connections* are pool jobs — executing inline
    /// keeps one connection from occupying two pool slots (and from
    /// deadlocking a single-worker service).
    pub fn handle_line_sync(&self, line: &str) -> (Option<String>, Disposition) {
        let (responder, collected) = Responder::collector();
        let (request, disposition) = match self.parse_line(line, &responder) {
            Some(pair) => pair,
            None => return (collected.lock().first().cloned(), Disposition::Continue),
        };
        if let Some(d) = disposition {
            return (collected.lock().first().cloned(), d);
        }
        let admitted = Instant::now();
        let line = match request {
            Request::Sim { id, scenario } => {
                match run_scenario(&self.shared, &scenario, admitted) {
                    Ok(out) => render::ok_sim(&id, &scenario, &out),
                    Err(err) => {
                        let retry = retry_hint_for(&self.shared, &err);
                        render::error(Some(&id), &err, retry)
                    }
                }
            }
            Request::Batch { id, scenarios } => {
                self.shared.counters.batches.fetch_add(1, Ordering::Relaxed);
                let items: Vec<String> = scenarios
                    .iter()
                    .enumerate()
                    .map(|(i, sc)| match sc {
                        Ok(sc) => match run_scenario(&self.shared, sc, admitted) {
                            Ok(out) => render::batch_item_ok(i, sc, &out),
                            Err(err) => render::batch_item_err(i, &err),
                        },
                        Err(err) => render::batch_item_err(i, err),
                    })
                    .collect();
                render::batch(&id, &items)
            }
            Request::Ping { .. }
            | Request::Stats { .. }
            | Request::Telemetry { .. }
            | Request::Shutdown { .. } => {
                unreachable!("control ops are answered by parse_line")
            }
        };
        (Some(line), Disposition::Continue)
    }

    /// Shared front half of both handle paths: parse, validate, count,
    /// and answer control ops. Returns `None` when the line was empty,
    /// a malformed/invalid line was already answered, `Some((req,
    /// Some(d)))` when a control op was answered with disposition `d`,
    /// and `Some((req, None))` when simulation work remains to be done.
    #[allow(clippy::type_complexity)]
    fn parse_line(
        &self,
        line: &str,
        responder: &Responder,
    ) -> Option<(Request, Option<Disposition>)> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let counters = &self.shared.counters;
        counters.received.fetch_add(1, Ordering::Relaxed);
        let value = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                counters.invalid.fetch_add(1, Ordering::Relaxed);
                let err = RequestError {
                    code: ErrorCode::Parse,
                    field: None,
                    message: e.to_string(),
                };
                responder.send(&render::error(None, &err, None));
                return None;
            }
        };
        let request = match Request::from_json(&value) {
            Ok(r) => r,
            Err(err) => {
                counters.invalid.fetch_add(1, Ordering::Relaxed);
                let id = crate::protocol::salvage_id(&value);
                responder.send(&render::error(id.as_deref(), &err, None));
                return None;
            }
        };
        match &request {
            Request::Sim { .. } => &counters.op_sim,
            Request::Batch { .. } => &counters.op_batch,
            Request::Ping { .. } => &counters.op_ping,
            Request::Stats { .. } => &counters.op_stats,
            Request::Telemetry { .. } => &counters.op_telemetry,
            Request::Shutdown { .. } => &counters.op_shutdown,
        }
        .fetch_add(1, Ordering::Relaxed);
        match &request {
            Request::Ping { id } => {
                responder.send(&render::pong(id.as_deref()));
                Some((request, Some(Disposition::Continue)))
            }
            Request::Stats { id, reset } => {
                // Read-and-reset in one pass: the snapshot below *is*
                // what the atomic swaps took out, so updates racing the
                // reset are either in this reply or in the next period.
                let uptime = self.shared.uptime_s();
                responder.send(&render::stats(
                    id.as_deref(),
                    uptime,
                    *reset,
                    &self.metrics_snapshot(*reset),
                ));
                Some((request, Some(Disposition::Continue)))
            }
            Request::Telemetry { id } => {
                let body = prom::render(&self.telemetry());
                responder.send(&render::telemetry(id.as_deref(), &body));
                Some((request, Some(Disposition::Continue)))
            }
            Request::Shutdown { id } => {
                responder.send(&render::shutdown_ack(id.as_deref()));
                Some((request, Some(Disposition::Shutdown)))
            }
            _ => Some((request, None)),
        }
    }

    /// Enqueues an arbitrary job (the TCP frontend's connection
    /// handlers). The caller is responsible for admission.
    pub(crate) fn submit_job(&self, job: impl FnOnce() + Send + 'static) -> bool {
        self.pool.submit(job)
    }

    /// Admission control: room for `njobs` more, unless draining or
    /// saturated.
    pub(crate) fn admit(&self, njobs: usize) -> Result<(), (RequestError, Option<u64>)> {
        let counters = &self.shared.counters;
        if self.shared.draining.load(Ordering::SeqCst) {
            counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err((
                RequestError {
                    code: ErrorCode::ShuttingDown,
                    field: None,
                    message: "service is draining".into(),
                },
                None,
            ));
        }
        if self.pool.pending() + njobs > self.queue_capacity {
            counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err((
                RequestError {
                    code: ErrorCode::QueueFull,
                    field: None,
                    message: format!(
                        "queue is full ({} pending, capacity {})",
                        self.pool.pending(),
                        self.queue_capacity
                    ),
                },
                // Derived from the observed p90 run duration once any
                // run has completed; the configured default before.
                Some(self.shared.retry_hint()),
            ));
        }
        counters.accepted.fetch_add(njobs as u64, Ordering::Relaxed);
        Ok(())
    }

    fn submit_batch(
        &self,
        id: String,
        scenarios: Vec<Result<Scenario, RequestError>>,
        runnable: usize,
        responder: &Responder,
    ) {
        // Pre-render validation failures; their slots are final.
        let slots: Vec<Option<String>> = scenarios
            .iter()
            .enumerate()
            .map(|(i, sc)| match sc {
                Ok(_) => None,
                Err(err) => Some(render::batch_item_err(i, err)),
            })
            .collect();
        if runnable == 0 {
            let items: Vec<String> = slots.into_iter().map(|s| s.expect("all final")).collect();
            responder.send(&render::batch(&id, &items));
            return;
        }
        struct BatchState {
            id: String,
            slots: Mutex<Vec<Option<String>>>,
            remaining: AtomicUsize,
            responder: Responder,
        }
        let state = Arc::new(BatchState {
            id,
            slots: Mutex::new(slots),
            remaining: AtomicUsize::new(runnable),
            responder: responder.clone(),
        });
        let admitted = Instant::now();
        for (i, sc) in scenarios.into_iter().enumerate() {
            let Ok(scenario) = sc else { continue };
            let shared = Arc::clone(&self.shared);
            let state = Arc::clone(&state);
            let submitted = self.pool.submit(move || {
                let item = match run_scenario(&shared, &scenario, admitted) {
                    Ok(out) => render::batch_item_ok(i, &scenario, &out),
                    Err(err) => render::batch_item_err(i, &err),
                };
                state.slots.lock()[i] = Some(item);
                if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let items: Vec<String> = state
                        .slots
                        .lock()
                        .iter()
                        .cloned()
                        .map(|s| s.expect("every slot filled"))
                        .collect();
                    state.responder.send(&render::batch(&state.id, &items));
                }
            });
            debug_assert!(submitted, "pool outlives the service");
        }
    }

    /// The service's observability snapshot: `serve.*` counters,
    /// latency percentiles, queue depth, pool and cache statistics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics_snapshot(false)
    }

    /// [`Service::metrics`], optionally consuming the state it reads:
    /// with `reset`, every counter is taken with an atomic swap and
    /// each histogram is summarized-then-cleared under one lock hold,
    /// so the returned snapshot accounts for every update exactly once
    /// even while workers are hammering the counters. The folded sim
    /// metrics and the uptime clock restart too. (Pool and trace-cache
    /// statistics are lifetime totals of those components and are not
    /// reset.)
    fn metrics_snapshot(&self, reset: bool) -> MetricsSnapshot {
        let c = self.shared.counters.read(reset);
        let mut m = MetricsSnapshot::new();
        m.set_counter("serve.requests", c.received);
        m.set_counter("serve.accepted", c.accepted);
        m.set_counter("serve.rejected", c.rejected);
        m.set_counter("serve.invalid", c.invalid);
        m.set_counter("serve.completed", c.completed);
        m.set_counter("serve.failed", c.failed);
        m.set_counter("serve.deadline_exceeded", c.deadline_exceeded);
        m.set_counter("serve.batches", c.batches);
        m.set_counter("serve.panics", c.panics);
        m.set_counter("serve.flight_dumps", c.flight_dumps);
        m.set_counter("serve.op.sim", c.op_sim);
        m.set_counter("serve.op.batch", c.op_batch);
        m.set_counter("serve.op.ping", c.op_ping);
        m.set_counter("serve.op.stats", c.op_stats);
        m.set_counter("serve.op.telemetry", c.op_telemetry);
        m.set_counter("serve.op.shutdown", c.op_shutdown);
        m.set_gauge("serve.uptime_s", self.shared.uptime_s());
        m.set_counter("serve.workers", self.pool.workers() as u64);
        m.set_counter("serve.queue.pending", self.pool.pending() as u64);
        m.set_counter("serve.queue.capacity", self.queue_capacity as u64);
        m.set_counter("est.charge.fast", c.est_fast_charges);
        m.set_counter("est.site_cache.hit", c.est_site_hits);
        m.set_counter("est.site_cache.miss", c.est_site_misses);
        m.set_counter("est.dfg.arena_reuse", c.est_dfg_arena_reuse);
        // In-run cost-program accounting, summed across completed runs.
        // Hits and misses mirror the site cache (a replayed region *is*
        // a compiled-program apply — see `scperf_core` model metrics).
        m.set_counter("est.prog.hits", c.est_site_hits);
        m.set_counter("est.prog.misses", c.est_site_misses);
        m.merge(self.shared.pool.metrics());
        let stats = self.shared.cache.stats();
        m.set_counter("serve.cache.hits", stats.hits);
        m.set_counter("serve.cache.misses", stats.misses);
        m.set_counter("serve.cache.entries", stats.entries as u64);
        m.set_counter("serve.cache.segments", stats.segments as u64);
        m.set_counter("serve.cache.evictions", stats.evictions);
        m.set_gauge("serve.cache.hit_rate", stats.hit_rate());
        for (hist, prefix) in [
            (&self.shared.latency, "serve.latency"),
            (&self.shared.queue_wait, "serve.queue_wait"),
            (&self.shared.run_duration, "serve.run"),
        ] {
            let mut hist = hist.lock();
            if let Some(summary) = hist.summary() {
                summary.export(&mut m, prefix);
            }
            if reset {
                hist.clear();
            }
        }
        if reset {
            *self.shared.sim_metrics.lock() = MetricsSnapshot::new();
            *self.shared.started.lock() = Instant::now();
        }
        m
    }

    /// The full telemetry state behind the `telemetry` op: the folded
    /// per-run kernel + estimator metrics (`kernel.*` including
    /// `kernel.sched.*`, `est.*` including `est.res.*` — counters
    /// summed across every completed run) plus every service-level
    /// entry of [`Service::metrics`] whose name is not already claimed
    /// by the fold (the estimator hot-path counters appear in both and
    /// carry the same totals, so the fold's copy wins instead of
    /// double-counting).
    pub fn telemetry(&self) -> MetricsSnapshot {
        let mut t = self.shared.sim_metrics.lock().clone();
        for (name, value) in self.metrics().iter() {
            if t.counter(name).is_some() || t.gauge(name).is_some() {
                continue;
            }
            match value {
                MetricValue::Counter(v) => t.set_counter(name, *v),
                MetricValue::Gauge(v) => t.set_gauge(name, *v),
            }
        }
        t
    }

    /// Graceful shutdown: stops admitting new requests and blocks until
    /// every accepted job has finished and answered. The worker threads
    /// are joined when the `Service` is dropped.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.pool.wait_idle();
    }

    /// Whether [`Service::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }
}

/// Executes one scenario and maintains the shared counters, latency
/// histograms and folded telemetry. Shared by the queued (stdio) and
/// inline (TCP) paths.
fn run_scenario(
    shared: &ServiceShared,
    scenario: &Scenario,
    admitted: Instant,
) -> Result<engine::Outcome, RequestError> {
    shared
        .queue_wait
        .lock()
        .record_us(admitted.elapsed().as_secs_f64() * 1e6);
    let deadline = scenario
        .deadline_ms
        .map(|ms| admitted + Duration::from_millis(ms));
    let run_started = Instant::now();
    let result = engine::execute_pooled(
        scenario,
        &shared.pool,
        Some(&shared.cache),
        deadline,
        shared.flight_recorder,
    );
    let c = &shared.counters;
    match &result {
        Ok(out) => {
            c.completed.fetch_add(1, Ordering::Relaxed);
            c.est_fast_charges
                .fetch_add(out.hot.fast_charges, Ordering::Relaxed);
            c.est_site_hits
                .fetch_add(out.hot.site_hits, Ordering::Relaxed);
            c.est_site_misses
                .fetch_add(out.hot.site_misses, Ordering::Relaxed);
            c.est_dfg_arena_reuse
                .fetch_add(out.hot.dfg_arena_reuse, Ordering::Relaxed);
            shared.sim_metrics.lock().merge(out.sim_metrics.clone());
        }
        Err(err) if err.code == ErrorCode::DeadlineExceeded => {
            c.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            if shared.flight_recorder > 0 {
                c.flight_dumps.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(err) if err.code == ErrorCode::PoolExhausted => {
            // Saturation, not failure: the request never ran.
            c.rejected.fetch_add(1, Ordering::Relaxed);
        }
        Err(err) => {
            c.failed.fetch_add(1, Ordering::Relaxed);
            // The engine converts a caught panic into a Sim error with
            // this message prefix (see `engine::execute_pooled`).
            if err.message.starts_with("worker panicked") {
                c.panics.fetch_add(1, Ordering::Relaxed);
                if shared.flight_recorder > 0 {
                    c.flight_dumps.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    shared
        .run_duration
        .lock()
        .record_us(run_started.elapsed().as_secs_f64() * 1e6);
    shared
        .latency
        .lock()
        .record_us(admitted.elapsed().as_secs_f64() * 1e6);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn read_and_reset_never_loses_a_counter_update() {
        // Regression for the old snapshot-then-store reset: an
        // increment landing between a counter's snapshot and its store
        // to zero was silently dropped. With swap-based read-and-reset
        // every increment must appear in exactly one period snapshot
        // (or in the final read), so the periods plus the remainder sum
        // to exactly what the writers added.
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 50_000;
        let counters = Arc::new(Counters::default());
        let stop = Arc::new(AtomicBool::new(false));

        let reader = {
            let counters = Arc::clone(&counters);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut harvested = 0_u64;
                while !stop.load(Ordering::SeqCst) {
                    harvested += counters.read(true).received;
                }
                harvested
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let counters = Arc::clone(&counters);
                thread::spawn(move || {
                    for _ in 0..PER_WRITER {
                        counters.received.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        let harvested = reader.join().unwrap();
        let leftover = counters.read(true).received;
        assert_eq!(
            harvested + leftover,
            WRITERS as u64 * PER_WRITER,
            "every increment must land in exactly one snapshot"
        );
    }

    #[test]
    fn plain_reads_do_not_consume() {
        let counters = Counters::default();
        counters.completed.fetch_add(7, Ordering::Relaxed);
        assert_eq!(counters.read(false).completed, 7);
        assert_eq!(counters.read(false).completed, 7, "load must not zero");
        assert_eq!(counters.read(true).completed, 7, "swap takes the value");
        assert_eq!(counters.read(false).completed, 0);
    }
}
