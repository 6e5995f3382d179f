//! Shared segment-cost memoization cache.
//!
//! The key soundness argument (and the reason DSE can go much faster
//! than naively re-simulating 243 points): a vocoder stage's per-segment
//! cycle trace is a pure function of the stage's code, its input data
//! and the *cost table of the resource it is mapped to* — it does not
//! depend on where the other four stages are mapped, because inter-stage
//! coupling happens only through the scheduler (when segments run), not
//! through what each segment costs. Recording the trace once per
//! `(stage, resource fingerprint, workload size)` with a
//! [`scperf_core::Recorder`] and replaying it via
//! [`scperf_core::PerfModel::spawn_replaying`] therefore reproduces
//! every later evaluation bit-exactly while skipping all
//! operator-overloading work.
//!
//! The fingerprint hashes what the recorded cycles depend on: resource
//! kind, the dense per-operation cost table (bit pattern) and the frame
//! count. The rest of a resource is applied at replay (§3–4): its clock
//! turns cycles into time, its RTOS overhead is added at each node, and
//! a HW segment's cycles are rebuilt as `T_min + (T_max − T_min)·k`
//! from the recorded extremes. So one trace serves every clock, RTOS
//! overhead and `k`, and two processors sharing one cost table
//! (cpu0/cpu1 here) share entries.
//!
//! The cache is **bounded by recorded segments**, the unit its memory
//! grows in: a stored segment costs 8 B of cycles plus a 120 B
//! `SegDetail` (13 op counts, `T_min`, `T_max`), and a vocoder stage's
//! trace holds 2·nframes+1 of them. An insert that would push the stored
//! total past [`SegmentCostCache::capacity`] segments first evicts
//! least-recently-used traces (counted in [`CacheStats::evictions`] /
//! `est.cache.evictions`), and a trace larger than the whole budget is
//! not stored, so diverse serve traffic cannot grow the cache without
//! bound. Eviction is harmless for correctness — a re-recorded trace is
//! bit-identical.
//!
//! Traces are the only thing the cache shares across runs: segment-site
//! cost programs end with the run that compiled them.
//! [`SegmentCostCache::programs`] and
//! [`SegmentCostCache::publish_programs`] are kept as no-ops.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use scperf_core::{ProgramSet, Replay, Resource, ResourceKind};
use scperf_obs::MetricsSnapshot;
use scperf_sync::RwLock;

/// Cache key half: which stage (pipeline position) the trace belongs to.
type StageIndex = usize;

/// Full cache key: the stage plus its resource fingerprint.
type CacheKey = (StageIndex, u64);

/// Default segment budget of [`SegmentCostCache::new`]: about 8 MiB of
/// trace data (128 B per segment). A sweep or a serve stream at a few
/// frames holds a few dozen segments per cost model; one 4096-frame
/// stage trace holds 8193.
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

/// One cached trace plus its last-touch tick (updated under the read
/// lock on every hit, so lookups never serialize on the write lock).
#[derive(Debug)]
struct Slot {
    trace: Replay,
    last_used: AtomicU64,
}

/// A concurrent map from `(stage, resource fingerprint)` to the recorded
/// per-segment cycle trace (a cheap-to-clone [`Replay`]). Shared by all
/// sweep workers — and by the `scperf-serve` request engine — behind an
/// `Arc`.
#[derive(Debug)]
pub struct SegmentCostCache {
    map: RwLock<HashMap<CacheKey, Slot>>,
    /// Segments held by the traces in `map`; changed only under its
    /// write lock.
    segments: AtomicUsize,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for SegmentCostCache {
    fn default() -> SegmentCostCache {
        SegmentCostCache::new()
    }
}

/// Hit/miss accounting of a [`SegmentCostCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a trace.
    pub hits: u64,
    /// Lookups that found nothing (the point then records the trace).
    pub misses: u64,
    /// Distinct traces currently stored.
    pub entries: usize,
    /// Segments held by the stored traces (at most the cache's
    /// [`capacity`](SegmentCostCache::capacity)).
    pub segments: usize,
    /// Traces evicted to respect the segment budget.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over total lookups, in `[0, 1]`; zero when nothing was
    /// looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// 64-bit FNV-1a, folding `u64` words (values are hashed by bit
/// pattern, so `f64` inputs go through `to_bits`).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl SegmentCostCache {
    /// Creates an empty cache bounded at [`DEFAULT_CACHE_CAPACITY`]
    /// recorded segments.
    pub fn new() -> SegmentCostCache {
        SegmentCostCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// Creates an empty cache bounded at `capacity` recorded segments,
    /// summed over its traces. Inserts beyond the budget evict
    /// least-recently-used traces; a trace of more than `capacity`
    /// segments is not stored.
    pub fn with_capacity(capacity: usize) -> SegmentCostCache {
        SegmentCostCache {
            map: RwLock::new(HashMap::new()),
            segments: AtomicUsize::new(0),
            capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The segment budget this cache evicts at.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fingerprints everything a stage's recorded trace depends on
    /// besides the stage itself: the resource's kind and cost table and
    /// the workload size. The clock, RTOS overhead and `k` are left
    /// out, because replay applies them from the running resource.
    pub fn fingerprint(resource: &Resource, nframes: usize) -> u64 {
        let kind = match resource.kind {
            ResourceKind::Sequential => 1_u64,
            ResourceKind::Parallel => 2,
            ResourceKind::Environment => 3,
        };
        let head = [kind, nframes as u64];
        let costs = resource.costs.as_dense().iter().map(|c| c.to_bits());
        fnv1a(head.into_iter().chain(costs))
    }

    /// Looks up the trace for `(stage, fingerprint)`, counting a hit or
    /// a miss.
    pub fn get(&self, stage: StageIndex, fingerprint: u64) -> Option<Replay> {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let found = self.map.read().get(&(stage, fingerprint)).map(|slot| {
            slot.last_used.store(now, Ordering::Relaxed);
            slot.trace.clone()
        });
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a recorded trace, first evicting least-recently-used
    /// traces until its segments fit the budget; a trace larger than the
    /// whole budget is dropped. Racing inserts of the same key are
    /// benign: both workers recorded the same deterministic trace, so
    /// either copy is correct; the first one wins.
    pub fn insert(&self, stage: StageIndex, fingerprint: u64, trace: Replay) {
        let size = trace.len();
        if size > self.capacity {
            return;
        }
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.write();
        if map.contains_key(&(stage, fingerprint)) {
            return;
        }
        let mut held = self.segments.load(Ordering::Relaxed);
        if held + size > self.capacity {
            let mut by_age: BinaryHeap<_> = map
                .iter()
                .map(|(k, slot)| Reverse((slot.last_used.load(Ordering::Relaxed), *k)))
                .collect();
            while held + size > self.capacity {
                let Some(Reverse((_, victim))) = by_age.pop() else {
                    break;
                };
                held -= map.remove(&victim).map_or(0, |slot| slot.trace.len());
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.segments.store(held + size, Ordering::Relaxed);
        map.insert(
            (stage, fingerprint),
            Slot {
                trace,
                last_used: AtomicU64::new(now),
            },
        );
    }

    /// Always `None`: no program set is shared across runs. Kept so
    /// existing callers still compile.
    pub fn programs(&self, _table_fp: u64) -> Option<Arc<ProgramSet>> {
        None
    }

    /// Has no effect and returns 0: no program set is shared across
    /// runs. Kept so existing callers still compile.
    pub fn publish_programs(&self, _set: &ProgramSet) -> usize {
        0
    }

    /// Current hit/miss/entry/segment counts.
    pub fn stats(&self) -> CacheStats {
        let map = self.map.read();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: map.len(),
            segments: self.segments.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The stats as observability counters/gauges
    /// (`dse.cache.hits`, `dse.cache.misses`, `dse.cache.entries`,
    /// `dse.cache.segments`, `dse.cache.hit_rate`,
    /// `est.cache.evictions`).
    pub fn metrics(&self) -> MetricsSnapshot {
        let stats = self.stats();
        let mut m = MetricsSnapshot::new();
        m.set_counter("dse.cache.hits", stats.hits);
        m.set_counter("dse.cache.misses", stats.misses);
        m.set_counter("dse.cache.entries", stats.entries as u64);
        m.set_counter("dse.cache.segments", stats.segments as u64);
        m.set_gauge("dse.cache.hit_rate", stats.hit_rate());
        m.set_counter("est.cache.evictions", stats.evictions);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scperf_core::{CostTable, Platform};
    use scperf_kernel::Time;

    fn resource(kind: ResourceKind, table: CostTable, clock: Time, rtos: f64, k: f64) -> Resource {
        let mut p = Platform::new();
        let id = match kind {
            ResourceKind::Sequential => p.sequential("cpu", clock, table, rtos),
            _ => p.parallel("hw", clock, table, k),
        };
        let mut r = p.resource(id).clone();
        r.rtos_cycles = rtos;
        r.k = k;
        r
    }

    #[test]
    fn lookup_accounting_hits_and_misses() {
        let cache = SegmentCostCache::new();
        let fp = 42;
        assert!(cache.get(0, fp).is_none());
        cache.insert(0, fp, Replay::new(vec![1.0, 2.0]));
        assert_eq!(cache.get(0, fp), Some(Replay::new(vec![1.0, 2.0])));
        assert!(cache.get(1, fp).is_none(), "stage is part of the key");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert_eq!(stats.segments, 2);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_mirror_stats() {
        let cache = SegmentCostCache::new();
        cache.insert(0, 7, Replay::new(vec![3.0]));
        let _ = cache.get(0, 7);
        let _ = cache.get(0, 8);
        let m = cache.metrics();
        assert_eq!(m.counter("dse.cache.hits"), Some(1));
        assert_eq!(m.counter("dse.cache.misses"), Some(1));
        assert_eq!(m.counter("dse.cache.entries"), Some(1));
        assert_eq!(m.counter("dse.cache.segments"), Some(1));
        assert_eq!(m.counter("est.cache.evictions"), Some(0));
        assert_eq!(m.gauge("dse.cache.hit_rate"), Some(0.5));
    }

    #[test]
    fn fingerprint_separates_cost_models_but_not_names() {
        use ResourceKind::{Parallel, Sequential};
        let fp = |r: &Resource, nframes| SegmentCostCache::fingerprint(r, nframes);
        let base = resource(Sequential, CostTable::risc_sw(), Time::ns(10), 150.0, 0.5);
        let renamed = Resource {
            name: "another-name".into(),
            ..base.clone()
        };
        assert_eq!(
            fp(&base, 4),
            fp(&renamed, 4),
            "cpu0/cpu1 with one cost table must share entries"
        );
        // Replay applies the clock, the RTOS overhead and `k` from the
        // running resource, so none of them separates a trace.
        for kind in [Sequential, Parallel] {
            let r = resource(kind, CostTable::asic_hw(), Time::ns(10), 150.0, 0.5);
            for other in [
                resource(kind, CostTable::asic_hw(), Time::ns(7), 150.0, 0.5),
                resource(kind, CostTable::asic_hw(), Time::ns(10), 0.0, 0.5),
                resource(kind, CostTable::asic_hw(), Time::ns(10), 150.0, 0.9),
            ] {
                assert_eq!(fp(&r, 4), fp(&other, 4), "{other:?}");
            }
        }
        // Kind, cost-table bits and workload size do.
        let hw = resource(Parallel, CostTable::risc_sw(), Time::ns(10), 150.0, 0.5);
        assert_ne!(fp(&base, 4), fp(&hw, 4), "resource kind is part of the key");
        let other_table = resource(Sequential, CostTable::asic_hw(), Time::ns(10), 150.0, 0.5);
        assert_ne!(fp(&base, 4), fp(&other_table, 4));
        let nudged = {
            let mut dense = *CostTable::risc_sw().as_dense();
            dense[0] = f64::from_bits(dense[0].to_bits() + 1);
            CostTable::from_dense(&dense)
        };
        let one_bit = resource(Sequential, nudged, Time::ns(10), 150.0, 0.5);
        assert_ne!(
            fp(&base, 4),
            fp(&one_bit, 4),
            "cost bits are part of the key"
        );
        assert_ne!(
            fp(&base, 4),
            fp(&base, 5),
            "workload size is part of the key"
        );
    }

    #[test]
    fn racing_inserts_first_wins() {
        let cache = SegmentCostCache::new();
        cache.insert(0, 1, Replay::new(vec![1.0]));
        cache.insert(0, 1, Replay::new(vec![9.9]));
        assert_eq!(cache.get(0, 1), Some(Replay::new(vec![1.0])));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn segment_budget_evicts_least_recently_used_traces() {
        let trace = |n: usize| Replay::new(vec![1.0; n]);
        let cache = SegmentCostCache::with_capacity(10);
        cache.insert(0, 1, trace(4));
        cache.insert(0, 2, trace(4));
        assert_eq!(cache.stats().segments, 8);
        // Touch (0,1) so (0,2) is the LRU victim.
        assert!(cache.get(0, 1).is_some());
        cache.insert(0, 3, trace(3));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.segments, stats.evictions), (2, 7, 1));
        assert!(cache.get(0, 2).is_none(), "LRU trace evicted");
        assert!(cache.get(0, 1).is_some(), "recently used trace survives");
        assert!(cache.get(0, 3).is_some());
        // A big trace evicts oldest first until it fits: (0,1), then (0,3).
        cache.insert(0, 4, trace(9));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.segments, stats.evictions), (1, 9, 3));
        assert_eq!(cache.metrics().counter("est.cache.evictions"), Some(3));
        assert_eq!(cache.metrics().counter("dse.cache.segments"), Some(9));
        // A trace bigger than the whole budget is not stored and evicts
        // nothing; re-inserting an existing key never evicts.
        cache.insert(0, 5, trace(11));
        cache.insert(0, 4, trace(9));
        assert!(cache.get(0, 5).is_none());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.segments, stats.evictions), (1, 9, 3));
    }

    #[test]
    fn inserts_past_the_budget_keep_the_newest_traces_within_it() {
        // Without lookups, least recently used is least recently
        // inserted: the cache must hold exactly the newest traces that
        // fit the budget, whatever their sizes.
        const BUDGET: usize = 64;
        let cache = SegmentCostCache::with_capacity(BUDGET);
        let mut model: std::collections::VecDeque<(u64, usize)> = Default::default();
        let mut x: u64 = 7;
        for key in 0..300_u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let size = 1 + (x >> 60) as usize * 2; // 1..=31 segments
            cache.insert(0, key, Replay::new(vec![0.5; size]));
            model.push_back((key, size));
            while model.iter().map(|&(_, n)| n).sum::<usize>() > BUDGET {
                let (old, _) = model.pop_front().unwrap();
                assert!(
                    cache.get(0, old).is_none(),
                    "trace {old} outlived newer ones"
                );
            }
            let stats = cache.stats();
            assert!(stats.segments <= BUDGET, "{stats:?}");
            assert_eq!(stats.segments, model.iter().map(|&(_, n)| n).sum::<usize>());
            assert_eq!(stats.entries, model.len());
            // Oldest first, so the lookups keep the recency order.
            for &(k, n) in &model {
                assert_eq!(cache.get(0, k).map(|r| r.len()), Some(n));
            }
        }
        assert!(cache.stats().evictions > 200);
    }
}
