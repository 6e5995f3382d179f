//! A long-lived worker pool for task streams.
//!
//! [`WorkerPool`] is the execution substrate of the serving layer.
//! `scperf_dse::pool` re-exports it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    /// Jobs currently executing on a worker.
    running: usize,
    shutting_down: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job is queued or shutdown begins.
    available: Condvar,
    /// Signalled when a worker finishes a job (for [`WorkerPool::wait_idle`]).
    settled: Condvar,
}

/// A long-lived pool of named worker threads draining one shared job
/// queue.
///
/// A `WorkerPool` serves an open-ended *stream* of jobs: submit
/// closures at any time, from any thread. [`WorkerPool::shutdown`] is
/// graceful: submission stops, every already-accepted job still runs
/// to completion, then the worker threads are joined.
///
/// The pool itself does not bound its queue; admission control (bounded
/// queue, reject-with-retry-after) is the caller's policy. See
/// `scperf-serve`, which layers exactly that on top.
///
/// A panicking job is caught and dropped (the worker survives); callers
/// that need to observe panics should catch them inside the job.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads named `<name>-worker-<i>`.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(name: &str, workers: usize) -> WorkerPool {
        assert!(workers > 0, "at least one worker required");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                running: 0,
                shutting_down: false,
            }),
            available: Condvar::new(),
            settled: Condvar::new(),
        });
        let threads = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool { shared, threads }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Enqueues a job. Returns `false` (dropping the job) when the pool
    /// is shutting down.
    pub fn submit<F>(&self, job: F) -> bool
    where
        F: FnOnce() + Send + 'static,
    {
        {
            let mut st = self.shared.state.lock();
            if st.shutting_down {
                return false;
            }
            st.queue.push_back(Box::new(job));
        }
        self.shared.available.notify_one();
        true
    }

    /// Jobs accepted but not yet finished (queued + running).
    pub fn pending(&self) -> usize {
        let st = self.shared.state.lock();
        st.queue.len() + st.running
    }

    /// Blocks until every accepted job has finished.
    pub fn wait_idle(&self) {
        let mut st = self.shared.state.lock();
        while !st.queue.is_empty() || st.running > 0 {
            self.shared.settled.wait(&mut st);
        }
    }

    /// Test hook: flips the shutting-down flag without joining, so the
    /// submission-rejection path can be exercised in isolation.
    #[doc(hidden)]
    pub fn set_shutting_down(&self, value: bool) {
        let mut st = self.shared.state.lock();
        st.shutting_down = value;
    }

    /// Graceful shutdown: stops accepting jobs, lets the workers drain
    /// everything already accepted, and joins the threads.
    pub fn shutdown(mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutting_down = true;
        }
        self.shared.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if self.threads.is_empty() {
            return; // explicit shutdown() already ran
        }
        {
            let mut st = self.shared.state.lock();
            st.shutting_down = true;
        }
        self.shared.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.shared.state.lock();
        f.debug_struct("WorkerPool")
            .field("workers", &self.threads.len())
            .field("queued", &st.queue.len())
            .field("running", &st.running)
            .field("shutting_down", &st.shutting_down)
            .finish()
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.running += 1;
                    break job;
                }
                if st.shutting_down {
                    return;
                }
                shared.available.wait(&mut st);
            }
        };
        // A panicking job must not take the worker down with it.
        let _ = catch_unwind(AssertUnwindSafe(job));
        {
            let mut st = shared.state.lock();
            st.running -= 1;
        }
        shared.settled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn worker_pool_runs_submitted_jobs() {
        let pool = WorkerPool::new("t", 2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..20 {
            let hits = Arc::clone(&hits);
            assert!(pool.submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 20);
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let pool = WorkerPool::new("drain", 1);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let hits = Arc::clone(&hits);
            pool.submit(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        // Graceful: every accepted job ran before the threads joined.
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn submit_after_shutdown_flag_is_rejected() {
        let pool = WorkerPool::new("rej", 1);
        pool.set_shutting_down(true);
        assert!(!pool.submit(|| panic!("must never run")));
        // Clear the flag again so Drop's join can proceed normally.
        pool.set_shutting_down(false);
        pool.shutdown();
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new("panics", 1);
        pool.submit(|| panic!("boom"));
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        pool.submit(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        pool.shutdown();
    }
}
