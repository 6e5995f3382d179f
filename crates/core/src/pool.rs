//! Session pooling and snapshot/fork reuse.
//!
//! The paper's workflow is "build the model once, evaluate many mapping
//! scenarios" (§5). A long-running evaluation service pays full
//! [`SimConfig`](crate::SimConfig) → [`Session`] construction — thread
//! spawning, estimator registration, warmup estimation — on every
//! request unless something reuses that work. This module provides the
//! two reuse layers, modeled on wasmtime's pooling instance allocator
//! (preallocate slots, reset-and-reuse instead of rebuild, admission
//! limits instead of unbounded growth):
//!
//! * [`SessionPool`] — up to [`InstanceLimits::max_sessions`] reusable
//!   session slots, built lazily by a factory and returned to the free
//!   list by [`Session::reset`] when the [`PooledSession`] guard drops.
//!   Admission beyond the cap fails fast with [`PoolExhausted`] so the
//!   caller can tell clients to back off.
//! * [`Snapshot`] — a forkable image of a *warmed-up* session: the
//!   platform, the configuration knobs and every process's recorded
//!   segment-cost trace. Repeated requests for the same scenario shape
//!   fork the snapshot into a pooled slot and elaborate with the
//!   captured [`Replay`]s, skipping live estimation entirely.
//!
//! # Slot lifecycle
//!
//! ```text
//!          acquire()                 run + extract results
//! (empty) ──────────▶ live ◀──────────────────────────────┐
//!    ▲    factory      │ drop(PooledSession)              │
//!    │                 ▼                                  │
//!    └─ free list ◀─ reset()  ── acquire() ─▶ live ───────┘
//!                    (joins threads, clears kernel+estimator state,
//!                     keeps configuration; fork_into stamps a new
//!                     platform + replays on a snapshot hit)
//! ```
//!
//! Reset-vs-fresh bit-identity is the correctness contract: a reused
//! slot must be indistinguishable from a newly built session, verified
//! by the tests below and the `pool_props` property tests. A process
//! panic — including [`scperf_kernel::SimError::NonDeterminate`] — does
//! not poison the slot: reset clears the kernel's error latch.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scperf_sync::Mutex;

use crate::recorder::Replay;
use crate::resource::Platform;
use crate::session::{Session, SessionKnobs, SimConfig};

/// Admission knobs of a [`SessionPool`], in the style of wasmtime's
/// `InstanceLimits`: how many sessions may be live at once, and how
/// large a single slot's model may grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceLimits {
    /// Maximum concurrently live (acquired) sessions; acquiring beyond
    /// this fails with [`PoolExhausted`].
    pub max_sessions: usize,
    /// Maximum processes a single slot may spawn per scenario
    /// ([`PooledSession::enforce_limits`]).
    pub max_processes: usize,
    /// Maximum channels a single slot may create per scenario
    /// ([`PooledSession::enforce_limits`]).
    pub max_channels: usize,
}

impl Default for InstanceLimits {
    fn default() -> InstanceLimits {
        InstanceLimits {
            max_sessions: 8,
            max_processes: 256,
            max_channels: 256,
        }
    }
}

/// Admission failure: every pool slot is live. Callers should reject
/// the request and have the client retry later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted;

impl fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("session pool exhausted: every slot is live")
    }
}

impl std::error::Error for PoolExhausted {}

/// A scenario elaborated more processes or channels than the slot's
/// [`InstanceLimits`] allow (see [`PooledSession::enforce_limits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LimitExceeded {
    what: &'static str,
    used: usize,
    limit: usize,
}

impl fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pooled session exceeds the slot's {} limit: {} > {}",
            self.what, self.used, self.limit
        )
    }
}

impl std::error::Error for LimitExceeded {}

/// Counter snapshot of a [`SessionPool`] (see [`SessionPool::stats`];
/// exported as `pool.*` metrics by [`SessionPool::metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured slot capacity ([`InstanceLimits::max_sessions`]).
    pub slots: u64,
    /// Currently acquired (live) sessions.
    pub live: u64,
    /// Acquisitions that found a published snapshot for their shape.
    pub hits: u64,
    /// Acquisitions with no snapshot for their shape (first-of-shape).
    pub misses: u64,
    /// Snapshot forks stamped into slots (one per hit).
    pub forks: u64,
    /// Slots returned to reusable state by [`Session::reset`].
    pub resets: u64,
    /// Acquisitions rejected because every slot was live.
    pub exhausted: u64,
}

/// A forkable image of a warmed-up [`Session`]: platform,
/// configuration knobs and the recorded per-process segment-cost
/// traces. Captured by [`Session::snapshot`] after a run with
/// recording enabled; cheap to clone and share ([`Arc`] it once and
/// fork many times).
///
/// What a fork **shares** with the warmup run: the platform (cloned),
/// the configuration, and the recorded [`Replay`] traces (shared
/// behind `Arc`s — forking copies nothing). What it does **not**
/// share: kernel state (each fork elaborates and runs its own
/// simulation from time zero) and process bodies (Rust closures are
/// `FnOnce`; the caller re-elaborates, passing the replays to
/// [`Session::spawn_replaying`] so estimation is skipped).
#[derive(Debug, Clone)]
pub struct Snapshot {
    platform: Platform,
    knobs: SessionKnobs,
    replays: Vec<(String, Replay)>,
}

impl Snapshot {
    pub(crate) fn capture(session: &mut Session) -> Snapshot {
        let replays = session.recorder().replays();
        Snapshot {
            platform: session.model().platform(),
            knobs: session.knobs().clone(),
            replays,
        }
    }

    /// The platform the warmup ran on.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The recorded trace of `process`, ready for
    /// [`Session::spawn_replaying`]. `None` for unknown processes.
    pub fn replay(&self, process: &str) -> Option<Replay> {
        self.replays
            .iter()
            .find(|(n, _)| n == process)
            .map(|(_, r)| r.clone())
    }

    /// All recorded traces, in process-registration order.
    pub fn replays(&self) -> &[(String, Replay)] {
        &self.replays
    }

    /// Builds a fresh [`Session`] with the snapshot's platform and
    /// configuration. A custom trace sink of the original config is the
    /// one knob that cannot be reproduced.
    pub fn fork(&self) -> Session {
        let mut config = SimConfig::new()
            .platform(self.platform.clone())
            .mode(self.knobs.mode)
            .attribution(self.knobs.attribution)
            .site_memo(self.knobs.site_memo)
            .jobs(self.knobs.jobs)
            .tracing(self.knobs.tracing);
        if self.knobs.record_costs {
            config = config.record_costs();
        }
        if self.knobs.record_instantaneous {
            config = config.record_instantaneous();
        }
        if self.knobs.record_dfgs {
            config = config.record_dfgs();
        }
        if let Some(limit) = self.knobs.run_limit {
            config = config.run_limit(limit);
        }
        config.build()
    }

    /// Stamps the snapshot into an existing (pooled) session slot:
    /// resets the slot and installs the snapshot's platform. The slot
    /// keeps its own kernel knobs (jobs, handoff) — pool slots are
    /// homogeneous by construction, so these already match. Elaborate
    /// the scenario with [`Snapshot::replay`] traces to skip live
    /// estimation.
    pub fn fork_into(&self, session: &mut Session) {
        session.reset_with_platform(self.platform.clone());
    }
}

struct PoolInner {
    free: Vec<Session>,
    created: usize,
}

/// A preallocated set of reusable [`Session`] slots with
/// [`InstanceLimits`] admission, plus a shape-keyed [`Snapshot`] store
/// — the "build once, evaluate many scenarios" allocator for a
/// simulation service. Slots are built lazily by the factory on first
/// acquisition and thereafter recycled through [`Session::reset`]
/// instead of rebuilt.
pub struct SessionPool {
    limits: InstanceLimits,
    build: Box<dyn Fn() -> Session + Send + Sync>,
    inner: Mutex<PoolInner>,
    snapshots: Mutex<HashMap<u64, Arc<Snapshot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    forks: AtomicU64,
    resets: AtomicU64,
    exhausted: AtomicU64,
}

impl SessionPool {
    /// Creates a pool of up to `limits.max_sessions` slots, each built
    /// on first use by `build`. The factory fixes the slots' kernel
    /// configuration (jobs, handoff, tracing); per-scenario variation —
    /// platform parameters, replays — is stamped in at acquisition.
    pub fn new(
        limits: InstanceLimits,
        build: impl Fn() -> Session + Send + Sync + 'static,
    ) -> SessionPool {
        SessionPool {
            limits,
            build: Box::new(build),
            inner: Mutex::new(PoolInner {
                free: Vec::new(),
                created: 0,
            }),
            snapshots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            forks: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
        }
    }

    /// The pool's admission limits.
    pub fn limits(&self) -> InstanceLimits {
        self.limits
    }

    /// Acquires a slot (building it if the pool has spare capacity).
    /// The returned guard derefs to the slot's [`Session`], already
    /// reset; dropping it resets the slot and returns it to the pool.
    ///
    /// # Errors
    ///
    /// [`PoolExhausted`] when `max_sessions` sessions are already live.
    pub fn acquire(&self) -> Result<PooledSession<'_>, PoolExhausted> {
        let recycled = {
            let mut inner = self.inner.lock();
            match inner.free.pop() {
                Some(s) => Some(s),
                None if inner.created < self.limits.max_sessions => {
                    inner.created += 1;
                    None
                }
                None => {
                    self.exhausted.fetch_add(1, Ordering::Relaxed);
                    return Err(PoolExhausted);
                }
            }
        };
        // Build outside the lock; the capacity reservation above keeps
        // concurrent acquirers within `max_sessions`.
        let session = recycled.unwrap_or_else(|| (self.build)());
        Ok(PooledSession {
            pool: self,
            session: Some(session),
            snapshot: None,
        })
    }

    /// [`SessionPool::acquire`], keyed by scenario shape: when a
    /// [`Snapshot`] has been published for `shape`, it is forked into
    /// the slot (a *hit* — elaborate with [`PooledSession::forked_snapshot`]
    /// replays and skip warmup); otherwise the caller runs the
    /// first-of-shape warmup and should publish a snapshot afterwards
    /// (a *miss*).
    ///
    /// # Errors
    ///
    /// [`PoolExhausted`] when `max_sessions` sessions are already live.
    pub fn acquire_for_shape(&self, shape: u64) -> Result<PooledSession<'_>, PoolExhausted> {
        let mut pooled = self.acquire()?;
        match self.snapshot_for(shape) {
            Some(snap) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.forks.fetch_add(1, Ordering::Relaxed);
                snap.fork_into(&mut pooled);
                pooled.snapshot = Some(snap);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(pooled)
    }

    /// Publishes the warmed-up snapshot for `shape`; subsequent
    /// [`SessionPool::acquire_for_shape`] calls with the same shape
    /// fork it instead of warming up again.
    pub fn publish_snapshot(&self, shape: u64, snapshot: Snapshot) {
        self.snapshots.lock().insert(shape, Arc::new(snapshot));
    }

    /// The published snapshot for `shape`, if any.
    pub fn snapshot_for(&self, shape: u64) -> Option<Arc<Snapshot>> {
        self.snapshots.lock().get(&shape).cloned()
    }

    /// Counter snapshot (`slots`, `live`, `hits`, `misses`, `forks`,
    /// `resets`, `exhausted`).
    pub fn stats(&self) -> PoolStats {
        let (created, free) = {
            let inner = self.inner.lock();
            (inner.created, inner.free.len())
        };
        PoolStats {
            slots: self.limits.max_sessions as u64,
            live: (created - free) as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            forks: self.forks.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
        }
    }

    /// The pool counters as a `pool.*` metrics snapshot, mergeable into
    /// a service's telemetry.
    pub fn metrics(&self) -> scperf_obs::MetricsSnapshot {
        let s = self.stats();
        let mut m = scperf_obs::MetricsSnapshot::new();
        m.set_counter("pool.slots", s.slots);
        m.set_gauge("pool.live", s.live as f64);
        m.set_counter("pool.hits", s.hits);
        m.set_counter("pool.misses", s.misses);
        m.set_counter("pool.forks", s.forks);
        m.set_counter("pool.resets", s.resets);
        m.set_counter("pool.exhausted", s.exhausted);
        m
    }

    fn release(&self, mut session: Session) {
        // Reset on release (not on acquire): a panicked or
        // NonDeterminate run must not leave a poisoned simulator in the
        // free list, and acquire stays cheap.
        session.reset();
        self.resets.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().free.push(session);
    }
}

impl fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionPool")
            .field("limits", &self.limits)
            .field("stats", &self.stats())
            .finish()
    }
}

/// RAII guard over an acquired pool slot: derefs to the slot's
/// [`Session`]; dropping it resets the slot and returns it to the
/// pool's free list.
pub struct PooledSession<'a> {
    pool: &'a SessionPool,
    session: Option<Session>,
    snapshot: Option<Arc<Snapshot>>,
}

impl PooledSession<'_> {
    /// The snapshot forked into this slot, when
    /// [`SessionPool::acquire_for_shape`] hit one — elaborate with its
    /// replays to skip live estimation. (Named distinctly from
    /// [`Session::snapshot`], which *captures* a new snapshot and stays
    /// reachable through deref.)
    pub fn forked_snapshot(&self) -> Option<&Arc<Snapshot>> {
        self.snapshot.as_ref()
    }

    /// Checks the elaborated scenario against the slot's per-slot
    /// [`InstanceLimits`]; call after spawning processes and creating
    /// channels, before running.
    ///
    /// # Errors
    ///
    /// [`LimitExceeded`] naming the violated limit.
    pub fn enforce_limits(&mut self) -> Result<(), LimitExceeded> {
        let limits = self.pool.limits;
        let sim = self.session.as_mut().expect("slot present").sim();
        let procs = sim.process_count();
        if procs > limits.max_processes {
            return Err(LimitExceeded {
                what: "process",
                used: procs,
                limit: limits.max_processes,
            });
        }
        let chans = sim.channel_count();
        if chans > limits.max_channels {
            return Err(LimitExceeded {
                what: "channel",
                used: chans,
                limit: limits.max_channels,
            });
        }
        Ok(())
    }
}

impl std::ops::Deref for PooledSession<'_> {
    type Target = Session;

    fn deref(&self) -> &Session {
        self.session.as_ref().expect("slot present")
    }
}

impl std::ops::DerefMut for PooledSession<'_> {
    fn deref_mut(&mut self) -> &mut Session {
        self.session.as_mut().expect("slot present")
    }
}

impl Drop for PooledSession<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.pool.release(session);
        }
    }
}

impl fmt::Debug for PooledSession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledSession")
            .field("snapshot", &self.snapshot.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostTable;
    use crate::gval::g_i64;
    use crate::resource::ResourceId;
    use scperf_kernel::Time;

    fn one_cpu() -> (Platform, ResourceId) {
        let mut p = Platform::new();
        let cpu = p.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 50.0);
        (p, cpu)
    }

    fn elaborate(session: &mut Session, cpu: ResourceId) {
        let ch = session.fifo::<i64>("out", 2);
        let tx = ch.clone();
        session.spawn("worker", cpu, move |ctx| {
            let mut acc = g_i64(0);
            for i in 0..16 {
                acc = acc + g_i64(i) * g_i64(3);
            }
            tx.write(ctx, acc.get());
        });
        session.spawn_untimed("sink", move |ctx| {
            let _ = ch.read(ctx);
        });
    }

    #[test]
    fn reset_session_is_bit_identical_to_fresh() {
        use scperf_kernel::TraceMode;
        let (platform, cpu) = one_cpu();
        let fresh = {
            let mut s = SimConfig::new()
                .platform(platform.clone())
                .tracing(TraceMode::Unbounded)
                .build();
            elaborate(&mut s, cpu);
            let summary = s.run().unwrap();
            let trace = s.take_events();
            (summary, s.report(), trace)
        };
        // Same config, but run an unrelated scenario first, then reset.
        let mut s = SimConfig::new()
            .platform(platform)
            .tracing(TraceMode::Unbounded)
            .build();
        s.spawn("other", cpu, |_ctx| {
            let _ = g_i64(5) * g_i64(7);
        });
        s.run().unwrap();
        s.reset();
        elaborate(&mut s, cpu);
        let summary = s.run().unwrap();
        assert_eq!(summary, fresh.0);
        assert_eq!(s.report(), fresh.1);
        assert_eq!(s.take_events().events, fresh.2.events);
    }

    #[test]
    fn snapshot_fork_replays_bit_identically() {
        let (platform, cpu) = one_cpu();
        let mut warm = SimConfig::new().platform(platform).record_costs().build();
        elaborate(&mut warm, cpu);
        let live = warm.run().unwrap();
        let live_report = warm.report();
        let snapshot = warm.snapshot();

        let mut fork = snapshot.fork();
        let replay = snapshot.replay("worker").expect("recorded");
        let ch = fork.fifo::<i64>("out", 2);
        let tx = ch.clone();
        fork.spawn_replaying("worker", cpu, replay, move |ctx| {
            tx.write(ctx, 360);
        });
        fork.spawn_untimed("sink", move |ctx| {
            let _ = ch.read(ctx);
        });
        let replayed = fork.run().unwrap();
        assert_eq!(replayed, live);
        // Recorder-captured replays carry op counts and HW extremes, so
        // the forked report matches the live one bit for bit.
        assert_eq!(fork.report(), live_report);
    }

    #[test]
    fn pool_recycles_slots_and_counts_reuse() {
        let (platform, cpu) = one_cpu();
        let limits = InstanceLimits {
            max_sessions: 1,
            ..InstanceLimits::default()
        };
        let pool = SessionPool::new(limits, {
            let platform = platform.clone();
            move || SimConfig::new().platform(platform.clone()).build()
        });
        let shape = 42;

        // Miss: no snapshot yet — warm up, record, publish.
        {
            let mut slot = pool.acquire_for_shape(shape).unwrap();
            assert!(slot.forked_snapshot().is_none());
            slot.recorder();
            elaborate(&mut slot, cpu);
            slot.enforce_limits().unwrap();
            slot.run().unwrap();
            let snap = Session::snapshot(&mut slot);
            pool.publish_snapshot(shape, snap);
            // Exhaustion: the only slot is live.
            assert!(pool.acquire().is_err());
        }

        // Hit: the recycled slot is forked from the snapshot.
        {
            let slot = pool.acquire_for_shape(shape).unwrap();
            let snap = slot.forked_snapshot().expect("snapshot hit");
            assert!(snap.replay("worker").is_some());
        }

        let stats = pool.stats();
        assert_eq!(stats.slots, 1);
        assert_eq!(stats.live, 0);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.forks, 1);
        assert_eq!(stats.resets, 2);
        assert_eq!(stats.exhausted, 1);
        assert_eq!(pool.metrics().counter("pool.hits"), Some(1));
    }

    #[test]
    fn per_slot_limits_reject_oversized_scenarios() {
        let (platform, cpu) = one_cpu();
        let limits = InstanceLimits {
            max_sessions: 1,
            max_processes: 1,
            max_channels: 8,
        };
        let pool = SessionPool::new(limits, {
            let platform = platform.clone();
            move || SimConfig::new().platform(platform.clone()).build()
        });
        let mut slot = pool.acquire().unwrap();
        elaborate(&mut slot, cpu); // spawns 2 processes
        let err = slot.enforce_limits().unwrap_err();
        assert!(err.to_string().contains("process limit"));
    }
}
