//! Shared segment-cost memoization cache.
//!
//! The key soundness argument (and the reason DSE can go much faster
//! than naively re-simulating 243 points): a vocoder stage's per-segment
//! cycle trace is a pure function of the stage's code, its input data
//! and the *cost model of the resource it is mapped to* — it does not
//! depend on where the other four stages are mapped, because inter-stage
//! coupling happens only through the scheduler (when segments run), not
//! through what each segment costs. Recording the trace once per
//! `(stage, resource fingerprint, workload size)` with a
//! [`scperf_core::Recorder`] and replaying it via
//! [`scperf_core::PerfModel::spawn_replaying`] therefore reproduces
//! every later evaluation bit-exactly while skipping all
//! operator-overloading work.
//!
//! The fingerprint hashes everything the annotation depends on: resource
//! kind, clock period, the dense per-operation cost table (bit pattern),
//! the HW time-area weight `k`, the RTOS overhead and the frame count.
//! Two processors sharing one cost table (cpu0/cpu1 here) fingerprint
//! identically and share entries.
//!
//! The cache is **bounded**: beyond [`SegmentCostCache::capacity`]
//! entries, an insert evicts the least-recently-used trace (counted in
//! [`CacheStats::evictions`] / `est.cache.evictions`), so diverse serve
//! traffic cannot grow it without bound. Eviction is harmless for
//! correctness — a re-recorded trace is bit-identical.
//!
//! Besides per-stage traces the cache also stores compiled
//! [`ProgramSet`]s — the serializable segment-site cost programs of
//! PR 10 — keyed by their cost-table fingerprint, so every sweep worker
//! and pooled serve session warm-starts from one shared compiled set
//! instead of re-recording per worker. Sets persist across processes via
//! [`SegmentCostCache::export_programs`] /
//! [`SegmentCostCache::import_programs`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scperf_core::{ProgDecodeError, ProgramSet, Replay, Resource, ResourceKind};
use scperf_obs::MetricsSnapshot;
use scperf_sync::RwLock;

/// Cache key half: which stage (pipeline position) the trace belongs to.
type StageIndex = usize;

/// Full cache key: the stage plus its resource fingerprint.
type CacheKey = (StageIndex, u64);

/// Default trace-entry bound of [`SegmentCostCache::new`]: generous for
/// any one sweep (5 stages × a handful of distinct cost models) while
/// keeping a long-lived serve process at a few MB of trace data.
pub const DEFAULT_CACHE_CAPACITY: usize = 512;

/// One cached trace plus its last-touch tick (updated under the read
/// lock on every hit, so lookups never serialize on the write lock).
#[derive(Debug)]
struct Slot {
    trace: Replay,
    last_used: AtomicU64,
}

/// One stored program set plus its last-touch tick.
#[derive(Debug)]
struct ProgSlot {
    set: Arc<ProgramSet>,
    last_used: AtomicU64,
}

/// A concurrent map from `(stage, resource fingerprint)` to the recorded
/// per-segment cycle trace (a cheap-to-clone [`Replay`]), plus a side
/// store of compiled segment-site [`ProgramSet`]s keyed by cost-table
/// fingerprint. Shared by all sweep workers — and by the `scperf-serve`
/// request engine — behind an `Arc`.
#[derive(Debug)]
pub struct SegmentCostCache {
    map: RwLock<HashMap<CacheKey, Slot>>,
    programs: RwLock<HashMap<u64, ProgSlot>>,
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
    /// Traces evicted to respect the capacity bound.
    pub evictions: u64,
    /// Compiled segment-site programs currently stored (summed over
    /// every cost-table fingerprint).
    pub programs: usize,
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

/// Magic prefix of the multi-set program export format.
const EXPORT_MAGIC: &[u8; 4] = b"SCPC";

impl SegmentCostCache {
    /// Creates an empty cache bounded at [`DEFAULT_CACHE_CAPACITY`]
    /// trace entries.
    pub fn new() -> SegmentCostCache {
        SegmentCostCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// Creates an empty cache bounded at `capacity` trace entries
    /// (minimum 1). Inserts beyond the bound evict the
    /// least-recently-used trace.
    pub fn with_capacity(capacity: usize) -> SegmentCostCache {
        SegmentCostCache {
            map: RwLock::new(HashMap::new()),
            programs: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The trace-entry bound this cache evicts at.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fingerprints everything a stage's recorded trace depends on
    /// besides the stage itself: the resource's cost model and the
    /// workload size.
    pub fn fingerprint(resource: &Resource, nframes: usize) -> u64 {
        let kind = match resource.kind {
            ResourceKind::Sequential => 1_u64,
            ResourceKind::Parallel => 2,
            ResourceKind::Environment => 3,
        };
        let head = [
            kind,
            resource.clock.as_ps(),
            resource.k.to_bits(),
            resource.rtos_cycles.to_bits(),
            nframes as u64,
        ];
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

    /// Stores a recorded trace, evicting the least-recently-used entry
    /// if the cache is at capacity. Racing inserts of the same key are
    /// benign: both workers recorded the same deterministic trace, so
    /// either copy is correct; the first one wins.
    pub fn insert(&self, stage: StageIndex, fingerprint: u64, trace: Replay) {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.write();
        if map.contains_key(&(stage, fingerprint)) {
            return;
        }
        if map.len() >= self.capacity {
            if let Some(&victim) = map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k)
            {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(
            (stage, fingerprint),
            Slot {
                trace,
                last_used: AtomicU64::new(now),
            },
        );
    }

    /// The shared compiled program set for a cost-table fingerprint
    /// (see [`scperf_core::table_fingerprint`]), if any worker published
    /// one — feed it to `SimConfig::program_set` to warm-start a
    /// session.
    pub fn programs(&self, table_fp: u64) -> Option<Arc<ProgramSet>> {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        self.programs.read().get(&table_fp).map(|slot| {
            slot.last_used.store(now, Ordering::Relaxed);
            Arc::clone(&slot.set)
        })
    }

    /// Merges a harvested program set into the shared store for its
    /// fingerprint (copy-on-write: readers keep their `Arc`, and the
    /// stored set is only copied when `set` brings programs it lacks).
    /// Returns how many programs were actually new. Empty sets are
    /// ignored.
    pub fn publish_programs(&self, set: &ProgramSet) -> usize {
        if set.is_empty() {
            return 0;
        }
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.programs.write();
        match map.get_mut(&set.table_fp()) {
            Some(slot) => {
                slot.last_used.store(now, Ordering::Relaxed);
                if set
                    .iter()
                    .all(|(site, key, _)| slot.set.get(site, key).is_some())
                {
                    return 0;
                }
                let mut merged = (*slot.set).clone();
                let added = merged.merge(set);
                slot.set = Arc::new(merged);
                added
            }
            None => {
                let added = set.len();
                map.insert(
                    set.table_fp(),
                    ProgSlot {
                        set: Arc::new(set.clone()),
                        last_used: AtomicU64::new(now),
                    },
                );
                added
            }
        }
    }

    /// Serializes every stored program set into one blob (magic `SCPC`,
    /// then each set's [`ProgramSet::to_bytes`] encoding, length-
    /// prefixed). Deterministic: sets are emitted in fingerprint order.
    pub fn export_programs(&self) -> Vec<u8> {
        let map = self.programs.read();
        let mut fps: Vec<u64> = map.keys().copied().collect();
        fps.sort_unstable();
        let mut out = Vec::new();
        out.extend_from_slice(EXPORT_MAGIC);
        out.extend_from_slice(&(fps.len() as u32).to_le_bytes());
        for fp in fps {
            let bytes = map[&fp].set.to_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// Loads program sets from an [`export_programs`] blob, merging
    /// them into the store. Returns the number of programs added.
    ///
    /// [`export_programs`]: SegmentCostCache::export_programs
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ProgDecodeError`] when the blob is
    /// malformed: a bad magic, a truncated or corrupted set (each set
    /// carries a checksum), or bytes after the last set. Nothing is
    /// merged from a malformed blob.
    pub fn import_programs(&self, bytes: &[u8]) -> Result<usize, ProgDecodeError> {
        if bytes.len() < 8 || &bytes[..4] != EXPORT_MAGIC {
            return Err(ProgDecodeError::BadMagic);
        }
        let count = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let mut at = 8;
        let mut sets = Vec::new();
        for _ in 0..count {
            if bytes.len() < at + 4 {
                return Err(ProgDecodeError::Truncated);
            }
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            at += 4;
            if bytes.len() < at + len {
                return Err(ProgDecodeError::Truncated);
            }
            sets.push(ProgramSet::from_bytes(&bytes[at..at + len])?);
            at += len;
        }
        if at != bytes.len() {
            return Err(ProgDecodeError::BadStructure);
        }
        Ok(sets.iter().map(|set| self.publish_programs(set)).sum())
    }

    /// Current hit/miss/entry counts.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.read().len(),
            evictions: self.evictions.load(Ordering::Relaxed),
            programs: self.programs.read().values().map(|s| s.set.len()).sum(),
        }
    }

    /// The stats as observability counters/gauges
    /// (`dse.cache.hits`, `dse.cache.misses`, `dse.cache.entries`,
    /// `dse.cache.hit_rate`, `est.cache.evictions`,
    /// `est.prog.published`).
    pub fn metrics(&self) -> MetricsSnapshot {
        let stats = self.stats();
        let mut m = MetricsSnapshot::new();
        m.set_counter("dse.cache.hits", stats.hits);
        m.set_counter("dse.cache.misses", stats.misses);
        m.set_counter("dse.cache.entries", stats.entries as u64);
        m.set_gauge("dse.cache.hit_rate", stats.hit_rate());
        m.set_counter("est.cache.evictions", stats.evictions);
        m.set_counter("est.prog.published", stats.programs as u64);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scperf_core::{table_fingerprint, CostProgram, CostTable, Instr, Op, Platform};
    use scperf_kernel::Time;

    fn resource(table: CostTable, rtos: f64) -> Resource {
        let mut p = Platform::new();
        let id = p.sequential("cpu", Time::ns(10), table, rtos);
        p.resource(id).clone()
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
        assert_eq!(m.counter("est.cache.evictions"), Some(0));
        assert_eq!(m.gauge("dse.cache.hit_rate"), Some(0.5));
    }

    #[test]
    fn fingerprint_separates_cost_models_but_not_names() {
        let base = resource(CostTable::risc_sw(), 150.0);
        let same = {
            let mut r = resource(CostTable::risc_sw(), 150.0);
            r.name = "another-name".into();
            r
        };
        assert_eq!(
            SegmentCostCache::fingerprint(&base, 4),
            SegmentCostCache::fingerprint(&same, 4),
            "cpu0/cpu1 with one cost table must share entries"
        );
        let other_table = resource(CostTable::asic_hw(), 150.0);
        assert_ne!(
            SegmentCostCache::fingerprint(&base, 4),
            SegmentCostCache::fingerprint(&other_table, 4)
        );
        let other_rtos = resource(CostTable::risc_sw(), 0.0);
        assert_ne!(
            SegmentCostCache::fingerprint(&base, 4),
            SegmentCostCache::fingerprint(&other_rtos, 4)
        );
        assert_ne!(
            SegmentCostCache::fingerprint(&base, 4),
            SegmentCostCache::fingerprint(&base, 5),
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
    fn capacity_bound_evicts_least_recently_used() {
        let cache = SegmentCostCache::with_capacity(2);
        cache.insert(0, 1, Replay::new(vec![1.0]));
        cache.insert(0, 2, Replay::new(vec![2.0]));
        // Touch (0,1) so (0,2) is the LRU victim.
        assert!(cache.get(0, 1).is_some());
        cache.insert(0, 3, Replay::new(vec![3.0]));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(cache.get(0, 1).is_some(), "recently used entry survives");
        assert!(cache.get(0, 2).is_none(), "LRU entry evicted");
        assert!(cache.get(0, 3).is_some());
        assert_eq!(cache.metrics().counter("est.cache.evictions"), Some(1));
        // Re-inserting an existing key never evicts.
        cache.insert(0, 3, Replay::new(vec![9.0]));
        assert_eq!(cache.stats().evictions, 1);
    }

    fn one_prog_set(table: &CostTable, site: u64) -> ProgramSet {
        let mut set = ProgramSet::new(table_fingerprint(table));
        set.insert(
            site,
            0,
            CostProgram::new(vec![Instr::ChargeRow {
                op: Op::Add,
                count: 3,
            }]),
        );
        set
    }

    #[test]
    fn program_sets_publish_merge_and_round_trip() {
        let cache = SegmentCostCache::new();
        let risc = CostTable::risc_sw();
        let asic = CostTable::asic_hw();
        assert_eq!(cache.publish_programs(&one_prog_set(&risc, 11)), 1);
        let known = cache.programs(table_fingerprint(&risc)).expect("stored");
        assert_eq!(
            cache.publish_programs(&one_prog_set(&risc, 11)),
            0,
            "same program is not new"
        );
        assert!(
            Arc::ptr_eq(
                &known,
                &cache.programs(table_fingerprint(&risc)).expect("stored")
            ),
            "republishing a known set must not replace the stored set"
        );
        assert_eq!(cache.publish_programs(&one_prog_set(&risc, 22)), 1);
        assert_eq!(cache.publish_programs(&one_prog_set(&asic, 11)), 1);
        assert_eq!(cache.stats().programs, 3);

        let shared = cache.programs(table_fingerprint(&risc)).expect("stored");
        assert_eq!(shared.len(), 2);
        assert!(cache.programs(0xdead_beef).is_none());

        // Export → import into a fresh cache reproduces the store.
        let blob = cache.export_programs();
        let other = SegmentCostCache::new();
        assert_eq!(other.import_programs(&blob).expect("imports"), 3);
        assert_eq!(other.stats().programs, 3);
        assert_eq!(other.export_programs(), blob, "canonical encoding");
        // Importing again adds nothing.
        assert_eq!(other.import_programs(&blob).expect("imports"), 0);
        assert!(other.import_programs(b"junkjunkjunk").is_err());
    }

    #[test]
    fn every_single_byte_change_to_an_export_is_rejected() {
        let cache = SegmentCostCache::new();
        for (table, site) in [
            (CostTable::risc_sw(), 11),
            (CostTable::risc_sw(), 22),
            (CostTable::asic_hw(), 33),
        ] {
            let mut set = ProgramSet::new(table_fingerprint(&table));
            let instrs = vec![
                Instr::Loop { n: 4, body: 1 },
                Instr::ChargeRow {
                    op: Op::Mul,
                    count: 2,
                },
                Instr::Call { site: 5, key: 1 },
                Instr::ChargeRow {
                    op: Op::Add,
                    count: 3,
                },
            ];
            set.insert(site, 7, CostProgram::new(instrs));
            cache.publish_programs(&set);
        }
        let blob = cache.export_programs();
        let import = |bytes: &[u8]| SegmentCostCache::new().import_programs(bytes);
        assert_eq!(import(&blob), Ok(3));
        for at in 0..blob.len() {
            for mask in 1..=u8::MAX {
                let mut bad = blob.clone();
                bad[at] ^= mask;
                assert!(import(&bad).is_err(), "byte {at} ^ {mask:#04x} decoded");
            }
        }
        for len in 0..blob.len() {
            assert!(import(&blob[..len]).is_err(), "truncation to {len} decoded");
        }
        let mut trailing = blob;
        trailing.push(0);
        assert_eq!(import(&trailing), Err(ProgDecodeError::BadStructure));
    }
}
