//! Session admission.
//!
//! The paper's workflow is "build the model once, evaluate many mapping
//! scenarios" (§5). Across scenarios, the work worth reusing is the
//! recorded segment costs, and a bounded segment-cost trace cache
//! (`scperf_dse::SegmentCostCache`, keyed by what a trace depends on)
//! shares those. The session itself is single-use: building one costs a
//! few microseconds against a run's hundreds, so [`SessionPool`] does
//! not recycle sessions. What it does is admission, modeled on
//! wasmtime's pooling instance allocator: at most
//! [`InstanceLimits::max_sessions`] sessions are live at once, each
//! built by a factory on acquisition and dropped on release. Admission
//! beyond the cap fails fast with [`PoolExhausted`] so the caller can
//! tell clients to back off, and [`PooledSession::enforce_limits`]
//! bounds what one scenario may elaborate.
//!
//! # Slot lifecycle
//!
//! ```text
//!   acquire()            elaborate, enforce_limits(), run, read results
//! ──────────▶ factory() ─────────────────────────────────────────────▶ drop
//!   (admitted while                                  (unwinds processes,
//!    live < max_sessions)                                   frees the slot)
//! ```
//!
//! A process panic ([`scperf_kernel::SimError::ProcessPanic`]) ends with
//! its session: the next acquisition builds a new one.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::recorder::Replay;
use crate::session::Session;

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
    /// Always 0: the pool keeps no snapshots for an acquisition to hit.
    pub hits: u64,
    /// Successful acquisitions (every one misses, as there are no
    /// snapshots).
    pub misses: u64,
    /// Always 0: the pool forks no snapshots.
    pub forks: u64,
    /// Acquisitions rejected because every slot was live.
    pub exhausted: u64,
}

/// The segment-cost traces a [`Session`] recorded, captured by
/// [`Session::snapshot`]. Cheap to clone: the traces are shared behind
/// `Arc`s.
#[derive(Debug, Clone)]
pub struct Snapshot {
    replays: Vec<(String, Replay)>,
}

impl Snapshot {
    pub(crate) fn capture(session: &mut Session) -> Snapshot {
        Snapshot {
            replays: session.recorder().replays(),
        }
    }

    /// The recorded trace of `process`, ready for
    /// [`Session::spawn_replaying`]. `None` for unknown processes.
    pub fn replay(&self, process: &str) -> Option<Replay> {
        self.replays
            .iter()
            .find(|(n, _)| n == process)
            .map(|(_, r)| r.clone())
    }
}

/// Admission control over single-use [`Session`]s: at most
/// [`InstanceLimits::max_sessions`] live at once, each built by the
/// factory on acquisition and dropped on release.
pub struct SessionPool {
    limits: InstanceLimits,
    build: Box<dyn Fn() -> Session + Send + Sync>,
    live: AtomicUsize,
    misses: AtomicU64,
    exhausted: AtomicU64,
}

impl SessionPool {
    /// Creates a pool admitting up to `limits.max_sessions` live
    /// sessions, each built on acquisition by `build`. The factory fixes
    /// the sessions' configuration (mode, attribution, tracing); the
    /// caller stamps in per-scenario variation, such as the platform
    /// ([`Session::reset_with_platform`]).
    pub fn new(
        limits: InstanceLimits,
        build: impl Fn() -> Session + Send + Sync + 'static,
    ) -> SessionPool {
        SessionPool {
            limits,
            build: Box::new(build),
            live: AtomicUsize::new(0),
            misses: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
        }
    }

    /// The pool's admission limits.
    pub fn limits(&self) -> InstanceLimits {
        self.limits
    }

    /// Admits one session and builds it. The returned guard derefs to
    /// the new [`Session`]; dropping it drops the session and frees its
    /// slot.
    ///
    /// # Errors
    ///
    /// [`PoolExhausted`] when `max_sessions` sessions are already live.
    pub fn acquire(&self) -> Result<PooledSession<'_>, PoolExhausted> {
        let max = self.limits.max_sessions;
        let admitted = self
            .live
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < max).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            self.exhausted.fetch_add(1, Ordering::Relaxed);
            return Err(PoolExhausted);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // The guard exists before the build, so a panicking factory
        // still frees the slot.
        let mut slot = PooledSession {
            pool: self,
            session: None,
        };
        slot.session = Some((self.build)());
        Ok(slot)
    }

    /// Acquires a slot exactly as [`SessionPool::acquire`] does; `shape`
    /// is ignored. Kept for callers written against the removed
    /// per-shape snapshot store.
    ///
    /// # Errors
    ///
    /// [`PoolExhausted`] when `max_sessions` sessions are already live.
    pub fn acquire_for_shape(&self, _shape: u64) -> Result<PooledSession<'_>, PoolExhausted> {
        self.acquire()
    }

    /// Drops `snapshot`: the pool keeps no per-shape state. Kept for
    /// callers written against the removed per-shape snapshot store.
    pub fn publish_snapshot(&self, _shape: u64, _snapshot: Snapshot) {}

    /// Counter snapshot (`slots`, `live`, `hits`, `misses`, `forks`,
    /// `exhausted`).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            slots: self.limits.max_sessions as u64,
            live: self.live.load(Ordering::Relaxed) as u64,
            hits: 0,
            misses: self.misses.load(Ordering::Relaxed),
            forks: 0,
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
        m.set_counter("pool.exhausted", s.exhausted);
        m
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

/// RAII guard over an admitted session: derefs to the [`Session`];
/// dropping it drops the session (unwinding its suspended processes),
/// then frees the admission slot.
pub struct PooledSession<'a> {
    pool: &'a SessionPool,
    session: Option<Session>,
}

impl PooledSession<'_> {
    /// Always `None`: the pool forks no snapshots. Kept for callers
    /// written against the removed per-shape snapshot store.
    pub fn forked_snapshot(&self) -> Option<&Arc<Snapshot>> {
        None
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
        drop(self.session.take());
        // Release pairs with the Acquire in `acquire`: the freed slot is
        // admitted again only after this session is dropped.
        self.pool.live.fetch_sub(1, Ordering::Release);
    }
}

impl fmt::Debug for PooledSession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledSession").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostTable;
    use crate::gval::g_i64;
    use crate::resource::{Platform, ResourceId};
    use crate::session::SimConfig;
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
    fn pool_admits_up_to_its_limit_and_counts_acquisitions() {
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

        {
            let mut slot = pool.acquire_for_shape(shape).unwrap();
            assert!(slot.forked_snapshot().is_none());
            slot.recorder();
            elaborate(&mut slot, cpu);
            slot.enforce_limits().unwrap();
            slot.run().unwrap();
            let snap = Session::snapshot(&mut slot);
            assert!(snap.replay("worker").is_some_and(|r| !r.is_empty()));
            pool.publish_snapshot(shape, snap);
            // Exhaustion: the only slot is live.
            assert!(pool.acquire().is_err());
        }

        // Release freed the slot; nothing was stored for the shape.
        {
            let slot = pool.acquire_for_shape(shape).unwrap();
            assert!(slot.forked_snapshot().is_none());
            assert_eq!(pool.stats().live, 1);
        }

        let stats = pool.stats();
        assert_eq!(stats.slots, 1);
        assert_eq!(stats.live, 0);
        assert_eq!((stats.hits, stats.forks), (0, 0));
        assert_eq!(stats.misses, 2, "every acquisition counts as a miss");
        assert_eq!(stats.exhausted, 1);
        assert_eq!(pool.metrics().counter("pool.hits"), Some(0));
        assert_eq!(pool.metrics().counter("pool.misses"), Some(2));
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
