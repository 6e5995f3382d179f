//! The coherent record/replay pair: [`Recorder`] captures per-segment
//! cycle traces during a run, [`Replay`] feeds a captured trace back
//! into a later run.
//!
//! Recording is a capability you *hold* — a [`Recorder`] handle obtained
//! before the run — and a captured trace is a first-class [`Replay`]
//! value that can be cached, cloned cheaply and handed to
//! [`PerfModel::spawn_replaying`](crate::PerfModel::spawn_replaying) or
//! [`Session::spawn_replaying`](crate::Session::spawn_replaying).
//!
//! # Soundness
//!
//! Replaying is sound when the recorded process's charging is
//! deterministic in (code, input data, cost table) — the single-source
//! methodology's data-independence assumption. A replayed process must
//! perform the same sequence of channel accesses and waits as the
//! recorded run; it is the caller's responsibility to key cached
//! replays on everything the recorded cycles depend on: process
//! identity, workload size, resource kind and cost table. The rest is
//! applied at replay from the running resource: its clock turns cycles
//! into time, its RTOS overhead is added at each node, and a HW
//! segment's cycles are rebuilt from the recorded `T_min`/`T_max` with
//! its `k`. `scperf_dse::SegmentCostCache` shows the canonical
//! fingerprinting scheme.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::cost::OpCounts;
use crate::estimator::EstInner;

/// Per-segment bookkeeping captured alongside the cycle trace: the
/// operation counts and (for parallel resources) the `T_min`/`T_max`
/// extremes. Replaying it makes the replayed run's [`crate::Report`]
/// bit-identical to the live run's, not just its timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SegDetail {
    pub(crate) counts: OpCounts,
    pub(crate) t_min: f64,
    pub(crate) t_max: f64,
}

/// A captured per-segment cycle trace, ready to be replayed.
///
/// Cheap to clone (the trace is shared behind an [`Arc`]); equality
/// compares the recorded cycles bit-for-bit.
///
/// Traces captured by a [`Recorder`] also carry the per-segment
/// operation counts and HW extremes, so a replayed run's
/// [`crate::Report`] matches the live run's bit for bit. Traces built
/// from bare cycle vectors ([`Replay::new`]) replay timing only: replayed segments then report empty operation
/// counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    trace: Arc<Vec<f64>>,
    detail: Option<Arc<Vec<SegDetail>>>,
}

impl Replay {
    /// Wraps an explicit cycle trace (one entry per segment boundary,
    /// in execution order).
    pub fn new(cycles: Vec<f64>) -> Replay {
        Replay {
            trace: Arc::new(cycles),
            detail: None,
        }
    }

    /// Builds a replay that also carries per-segment detail (op counts,
    /// HW extremes), as captured by a [`Recorder`].
    pub(crate) fn with_detail(trace: Arc<Vec<f64>>, detail: Arc<Vec<SegDetail>>) -> Replay {
        debug_assert_eq!(trace.len(), detail.len());
        Replay {
            trace,
            detail: Some(detail),
        }
    }

    /// Splits the replay into its shared trace and optional detail.
    pub(crate) fn into_cursor_parts(self) -> (Arc<Vec<f64>>, Option<Arc<Vec<SegDetail>>>) {
        (self.trace, self.detail)
    }

    /// The recorded cycles, one entry per segment boundary.
    pub fn cycles(&self) -> &[f64] {
        &self.trace
    }

    /// Number of recorded segment boundaries.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the trace holds no segments.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// The shared trace storage (no copy).
    pub fn into_arc(self) -> Arc<Vec<f64>> {
        self.trace
    }
}

/// A handle that captures per-segment cycle traces during a run.
///
/// Obtained from [`PerfModel::recorder`](crate::PerfModel::recorder) or
/// [`SimConfig::record_costs`](crate::SimConfig::record_costs) /
/// [`Session::recorder`](crate::Session::recorder) **before** the
/// simulation runs; recording costs one `Vec::push` per segment
/// boundary. After the run, [`Recorder::replay`] hands back each
/// process's trace as a [`Replay`].
///
/// # Examples
///
/// ```
/// use scperf_core::{g_i64, CostTable, Mode, Platform, SimConfig};
/// use scperf_kernel::Time;
///
/// let mut platform = Platform::new();
/// let cpu = platform.sequential("cpu0", Time::ns(10), CostTable::risc_sw(), 0.0);
///
/// // First run: record.
/// let mut session = SimConfig::new().platform(platform.clone()).build();
/// let recorder = session.recorder();
/// session.spawn("worker", cpu, |_ctx| {
///     let mut acc = g_i64(0);
///     for i in 0..8 {
///         acc = acc + g_i64(i);
///     }
/// });
/// let live = session.run()?;
/// let replay = recorder.replay("worker").expect("recorded");
///
/// // Second run: replay the plain (un-annotated) body — same timing.
/// let mut session = SimConfig::new().platform(platform).build();
/// session.spawn_replaying("worker", cpu, replay, |_ctx| {
///     let mut acc = 0_i64;
///     for i in 0..8 {
///         acc += i;
///     }
///     assert_eq!(acc, 28);
/// });
/// let replayed = session.run()?;
/// assert_eq!(replayed.end_time, live.end_time);
/// # Ok::<(), scperf_kernel::SimError>(())
/// ```
#[derive(Clone)]
pub struct Recorder {
    est: Rc<RefCell<EstInner>>,
}

impl Recorder {
    /// Creates the handle and switches segment-cost recording on for
    /// every process the estimator runs from now on.
    pub(crate) fn attach(est: &Rc<RefCell<EstInner>>) -> Recorder {
        est.borrow_mut().record_segment_costs = true;
        Recorder {
            est: Rc::clone(est),
        }
    }

    /// The captured trace of `process`, ready to replay. `None` when
    /// the process is unknown to the estimator; an empty replay when
    /// the process closed no segments.
    pub fn replay(&self, process: &str) -> Option<Replay> {
        let inner = self.est.borrow();
        inner.procs.values().find(|p| p.name == process).map(|p| {
            Replay::with_detail(
                Arc::new(p.cost_trace.clone()),
                Arc::new(p.detail_trace.clone()),
            )
        })
    }

    /// All captured traces, as `(process name, replay)` pairs in
    /// process-registration order.
    pub fn replays(&self) -> Vec<(String, Replay)> {
        let inner = self.est.borrow();
        inner
            .procs
            .values()
            .map(|p| {
                (
                    p.name.clone(),
                    Replay::with_detail(
                        Arc::new(p.cost_trace.clone()),
                        Arc::new(p.detail_trace.clone()),
                    ),
                )
            })
            .collect()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.est.borrow();
        f.debug_struct("Recorder")
            .field("processes", &inner.procs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_wraps_and_shares_cycles() {
        let r = Replay::new(vec![1.0, 2.5]);
        assert_eq!(r.cycles(), &[1.0, 2.5]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        let clone = r.clone();
        assert_eq!(clone, r);
        assert!(Arc::ptr_eq(&clone.clone().into_arc(), &r.into_arc()));
    }

    #[test]
    fn empty_replay_reports_empty() {
        assert!(Replay::new(Vec::new()).is_empty());
    }
}
