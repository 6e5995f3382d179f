//! In-run cost programs: the compiled deltas segment-site memoization
//! replays.
//!
//! The first execution of a `(site, key)` region records what it
//! charged as a [`CompiledProg`] — the total `Δacc` plus sparse per-op
//! count rows — and every repeat in the same process applies it to the
//! flat TLS slots in a handful of adds. Programs live in the process's
//! [`ProgStore`] and end with it: no program outlives its run, so there
//! is no wire format and no cross-run key that could go stale. Replay
//! is bit-identical to live charging for integer-valued cost tables,
//! where every partial sum is an exact `f64` integer below 2^53; the
//! recorder checks that before it stores a program.
//!
//! [`ProgramSet`] and [`table_fingerprint`] are what is left of the
//! removed cross-run program sharing: documented no-ops, kept so that
//! code naming them still compiles.

use crate::cost::{CostTable, OP_COUNT};

/// Largest magnitude at which every integer is exactly representable as
/// an `f64` (2^53): the bound under which compiled `Δacc` recomputation
/// is bit-identical to live accumulation.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

/// Has no content. Cost programs no longer leave the run that compiled
/// them, so there is nothing to share between runs; the type is kept so
/// that code passing it around still compiles. Every API that returns a
/// set returns this empty one, and every API that takes one ignores it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramSet;

/// Has no effect: always returns 0. It fingerprinted the cost table a
/// shared [`ProgramSet`] was recorded under; no set is shared any more.
pub fn table_fingerprint(_table: &CostTable) -> u64 {
    0
}

/// A recorded region lowered for replay: the total `Δacc` under the
/// process's cost table plus the sparse per-op count rows. Applying it
/// is one `f64` add plus one integer add per distinct op charged.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledProg {
    /// Total cycles the region charged.
    pub(crate) d_acc: f64,
    /// Sparse `(dense op index, count)` rows, ascending by op.
    pub(crate) rows: Box<[(u8, u64)]>,
}

impl CompiledProg {
    /// Lowers a recorded flat delta (the live-measured `Δacc` keeps
    /// replay bit-identical to the recording run by construction).
    pub(crate) fn from_flat(d_acc: f64, d_counts: &[u64; OP_COUNT]) -> CompiledProg {
        let rows: Vec<(u8, u64)> = d_counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u8, n))
            .collect();
        CompiledProg {
            d_acc,
            rows: rows.into_boxed_slice(),
        }
    }

    /// Expands the sparse rows back to a dense count array.
    pub(crate) fn dense_counts(&self) -> [u64; OP_COUNT] {
        let mut out = [0u64; OP_COUNT];
        for &(op, n) in self.rows.iter() {
            out[op as usize] = n;
        }
        out
    }

    /// Whether recomputing `Δacc` from the rows under `costs`
    /// reproduces the stored value bit-for-bit — the exactness gate: a
    /// program that fails it (fractional leak, > 2^53 overflow) must
    /// not be stored, the region stays live.
    pub(crate) fn recomputes_exactly(&self, costs: &[f64; OP_COUNT]) -> bool {
        match sum_rows(&self.rows, costs) {
            Some(sum) => sum.to_bits() == self.d_acc.to_bits(),
            None => false,
        }
    }
}

/// `Σ count · cost` over sparse rows; `None` when any partial leaves
/// the exact-integer range.
fn sum_rows(rows: &[(u8, u64)], costs: &[f64; OP_COUNT]) -> Option<f64> {
    let mut acc = 0.0f64;
    for &(op, n) in rows {
        if n as f64 > MAX_EXACT {
            return None;
        }
        // NaN-rejecting range check: `abs() <= MAX_EXACT` is false for
        // NaN, so a poisoned cost propagates to `None`, not into `acc`.
        let add = costs[op as usize] * n as f64;
        if add.is_nan() || add.abs() > MAX_EXACT {
            return None;
        }
        acc += add;
        if acc.is_nan() || acc.abs() > MAX_EXACT {
            return None;
        }
    }
    Some(acc)
}

/// Per-site slice of the program index: the keys seen at one site,
/// kept sorted, paired with their slots in `compiled`. Lookup is a
/// binary search over a contiguous `u64` array — cheaper than hashing
/// for the handful of keys most sites carry, and still logarithmic for
/// high-cardinality sites (data-dependent keys such as the vocoder's
/// lag-clamp can compile hundreds of variants).
#[derive(Default)]
struct SiteIndex {
    keys: Vec<u64>,
    idxs: Vec<u32>,
}

/// Per-process program store: the `(numeric site id, key) → index` map
/// consulted on every region entry, plus the compiled programs.
///
/// The map is a dense `Vec` indexed by the numeric site id (site ids
/// come from a global counter and are assigned lazily, so they stay
/// small) — the replay hit path is one bounds check plus a short key
/// search, no hashing.
#[derive(Default)]
pub(crate) struct ProgStore {
    sites: Vec<SiteIndex>,
    compiled: Vec<CompiledProg>,
}

impl ProgStore {
    /// Index of the compiled program for `(site, key)`, if present.
    #[inline]
    pub(crate) fn lookup(&self, site: u32, key: u64) -> Option<u32> {
        let s = self.sites.get(site as usize)?;
        s.keys.binary_search(&key).ok().map(|i| s.idxs[i])
    }

    /// The compiled program at `idx`.
    #[inline]
    pub(crate) fn compiled(&self, idx: u32) -> &CompiledProg {
        &self.compiled[idx as usize]
    }

    /// Installs a freshly recorded program, keeping the per-site key
    /// array sorted. Inserts are rare (one per compiled variant);
    /// lookups dominate.
    pub(crate) fn insert(&mut self, site: u32, key: u64, prog: CompiledProg) {
        let idx = self.compiled.len() as u32;
        self.compiled.push(prog);
        if self.sites.len() <= site as usize {
            self.sites
                .resize_with(site as usize + 1, SiteIndex::default);
        }
        let s = &mut self.sites[site as usize];
        let at = s.keys.partition_point(|&k| k < key);
        s.keys.insert(at, key);
        s.idxs.insert(at, idx);
    }

    /// Number of installed programs.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.compiled.len()
    }

    /// Whether no program is installed.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.compiled.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Op;

    #[test]
    fn exactness_gate_rejects_fractional_and_huge() {
        let mut d = [0u64; OP_COUNT];
        d[Op::Add.index()] = 2;
        let frac = CompiledProg::from_flat(3.0, &d);
        let mut costs = [0.0; OP_COUNT];
        costs[Op::Add.index()] = 1.5;
        assert!(frac.recomputes_exactly(&costs), "1.5 * 2 = 3 is exact");
        let wrong = CompiledProg::from_flat(4.0, &d);
        assert!(!wrong.recomputes_exactly(&costs));
        let mut huge = [0u64; OP_COUNT];
        huge[Op::Add.index()] = 1 << 60;
        let over = CompiledProg::from_flat(0.0, &huge);
        assert!(!over.recomputes_exactly(&costs));
    }
}
