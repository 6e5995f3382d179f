//! Worker pools for the exploration and serving layers.
//!
//! Two shapes, both built on the in-tree `scperf-sync` primitives (the
//! workspace builds fully offline — no rayon):
//!
//! * [`run_indexed`] — a scoped work-stealing pool for embarrassingly
//!   parallel, index-addressed task *sets* (the DSE sweep). Each worker
//!   owns a deque seeded round-robin; when its own deque drains it
//!   steals from the back of its neighbours'. Results land in per-index
//!   slots, so the output order — and therefore everything computed
//!   from it — is independent of worker count and steal timing.
//! * [`WorkerPool`] — a long-lived pool for task *streams*, re-exported
//!   from `scperf-sync`, where it moved so the kernel's parallel
//!   evaluate phase can share it without inverting the dependency
//!   graph. This is the execution substrate of the `scperf-serve`
//!   simulation service (which layers admission control — bounded
//!   queue + backpressure — on top).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use scperf_sync::Mutex;

/// Counters describing one [`run_indexed`] execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads actually spawned (0 for the sequential path).
    pub workers: usize,
    /// Tasks executed.
    pub tasks: usize,
    /// Tasks a worker took from another worker's deque.
    pub steals: u64,
}

/// Runs `f(0..n)` across `jobs` workers and returns the results indexed
/// by task id — `out[i] == f(i)` — regardless of which worker ran which
/// task.
///
/// `jobs == 1` (or a single task) bypasses the pool entirely and runs
/// the plain sequential loop on the calling thread: the *oracle* path
/// that parallel runs are compared against.
///
/// Each worker opens an [`scperf_obs::profile`] span named
/// `dse.worker.<w>` covering its whole run, so enabling profiling shows
/// per-worker wall-time and load balance.
///
/// # Panics
///
/// Panics if `jobs == 0` or if any task panics.
pub fn run_indexed<R, F>(jobs: usize, n: usize, f: F) -> (Vec<R>, PoolStats)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(jobs > 0, "at least one worker required");
    if jobs == 1 || n <= 1 {
        let out: Vec<R> = (0..n).map(f).collect();
        return (
            out,
            PoolStats {
                workers: 0,
                tasks: n,
                steals: 0,
            },
        );
    }

    let jobs = jobs.min(n);
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..n {
        deques[i % jobs].lock().push_back(i);
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let steals = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for w in 0..jobs {
            let deques = &deques;
            let slots = &slots;
            let steals = &steals;
            let f = &f;
            scope.spawn(move || {
                let _span = scperf_obs::profile::span_dyn(format!("dse.worker.{w}"));
                loop {
                    // Own-deque guard must drop before stealing: two idle
                    // workers each holding their own lock while locking
                    // the other's would deadlock.
                    let own = deques[w].lock().pop_front();
                    let task = own.or_else(|| {
                        // Own deque empty: steal from the back of the
                        // other deques, nearest neighbour first.
                        (1..jobs).find_map(|d| {
                            let stolen = deques[(w + d) % jobs].lock().pop_back();
                            if stolen.is_some() {
                                steals.fetch_add(1, Ordering::Relaxed);
                            }
                            stolen
                        })
                    });
                    match task {
                        Some(i) => *slots[i].lock() = Some(f(i)),
                        None => break,
                    }
                }
            });
        }
    });

    let out: Vec<R> = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every task ran exactly once"))
        .collect();
    (
        out,
        PoolStats {
            workers: jobs,
            tasks: n,
            steals: steals.load(Ordering::Relaxed),
        },
    )
}

pub use scperf_sync::WorkerPool;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_path_is_inline() {
        let (out, stats) = run_indexed(1, 5, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
        assert_eq!(stats.workers, 0, "jobs = 1 must not spawn threads");
        assert_eq!(stats.tasks, 5);
    }

    #[test]
    fn parallel_results_are_index_ordered() {
        for jobs in [2, 3, 8] {
            let (out, stats) = run_indexed(jobs, 37, |i| i as u64 * 3);
            assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<u64>>());
            assert_eq!(stats.workers, jobs);
            assert_eq!(stats.tasks, 37);
        }
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let (out, stats) = run_indexed(16, 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
        assert!(stats.workers <= 3);
    }

    #[test]
    fn uneven_tasks_get_stolen() {
        // Worker 0's tasks sleep; the others finish and steal from it.
        let (out, stats) = run_indexed(4, 32, |i| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<usize>>());
        // Steal counts are timing-dependent; the scheduler only
        // guarantees completion, which the ordered output proves.
        assert_eq!(stats.tasks, 32);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_jobs_panics() {
        let _ = run_indexed(0, 1, |i| i);
    }
}
