//! Segment-site memoization: compile-and-replay of marked regions.
//!
//! The single-source methodology (§2) makes a straight-line region's
//! charge stream a pure function of (code, cost table): executing the
//! same loop body again charges exactly the same operations in the same
//! order. This module exploits that — the first execution of a marked
//! region records a [cost program](crate::prog) of what it charged;
//! every repeat in the same process applies the program to the flat TLS
//! slots in a handful of additions instead of charging each operation
//! live. Programs stay in the process that recorded them: nothing is
//! shared across runs.
//!
//! A region is marked with [`g_loop!`](crate::g_loop) /
//! [`g_site!`](crate::g_site), which expand to a `static`
//! [`SegmentSite`] (one per *lexical* region, named by its
//! `file:line:column`) plus a caller-supplied `u64` key. The full
//! keying scheme is `(site id, caller key, branch-outcome key)`: fold
//! every value that changes the region's charge stream — data-dependent
//! trip counts, branch outcomes computed in plain (uncharged) Rust —
//! into the key, and each executed path compiles into its own program
//! instead of falling back to live charging. A changed key is a cache
//! miss and the region records afresh.
//!
//! # When replay is bit-exact
//!
//! A compiled program is replayed as `acc += Δacc`. That is
//! bit-identical to re-charging per-op only when every partial sum is
//! exactly representable, which [`install`](crate::tls) guarantees by
//! enabling memoization solely for *integer-valued* cost tables
//! ([`CostTable::is_integral`](crate::CostTable::is_integral)) on
//! *sequential* resources; the recorder additionally refuses to store a
//! program whose `Σ count·cost` does not reproduce the measured `Δacc`
//! bit-for-bit. Fractional tables, parallel resources (whose DFG node
//! lineage spans iterations) and replaying processes all leave the
//! region charging live — marking a region
//! is always sound, never mandatory.
//!
//! [`MemoMode::Verify`] re-charges every "hit" live anyway and asserts
//! the compiled program bit-equal — the debugging mode for validating
//! new region annotations.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::cost::OP_COUNT;
use crate::prog::CompiledProg;
use crate::tls::{self, FAST, MEMO_OFF, MEMO_REPLAY, S_PASSIVE, S_SEQ};

/// Site-memoization policy for a session (see the module docs for when
/// replay actually engages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum MemoMode {
    /// Never memoize; every marked region charges live.
    Off = 0,
    /// Replay compiled cost programs on repeat executions (the default).
    #[default]
    Replay = 1,
    /// Replay *and* re-charge live, asserting the program bit-equal —
    /// slow, for validating region annotations.
    Verify = 2,
}

/// A lexical segment-site identity, declared `static` by the
/// [`g_loop!`](crate::g_loop) / [`g_site!`](crate::g_site) macros.
///
/// The numeric id is assigned lazily on first use from a global counter,
/// so declaring sites is free and ids are dense. The name (the macros
/// pass `file:line:column`) labels the site in verify-mode diagnostics.
pub struct SegmentSite {
    id: AtomicU32,
    name: &'static str,
}

/// Global site-id allocator; 0 means "not yet assigned".
static NEXT_SITE: AtomicU32 = AtomicU32::new(1);

impl SegmentSite {
    /// Creates an unassigned, unnamed site (use in a `static`).
    #[must_use]
    pub const fn new() -> SegmentSite {
        SegmentSite::named("")
    }

    /// Creates a site labelled `name` (conventionally
    /// `concat!(file!(), ':', line!(), ':', column!())`) in verify-mode
    /// diagnostics.
    #[must_use]
    pub const fn named(name: &'static str) -> SegmentSite {
        SegmentSite {
            id: AtomicU32::new(0),
            name,
        }
    }

    /// This site's process-wide id, assigned on first call.
    fn id(&self) -> u32 {
        let id = self.id.load(Ordering::Acquire);
        if id != 0 {
            return id;
        }
        let fresh = NEXT_SITE.fetch_add(1, Ordering::Relaxed);
        match self
            .id
            .compare_exchange(0, fresh, Ordering::Release, Ordering::Acquire)
        {
            Ok(_) => fresh,
            Err(won) => won,
        }
    }
}

impl Default for SegmentSite {
    fn default() -> SegmentSite {
        SegmentSite::new()
    }
}

/// What the guard must do when the region ends.
enum Action {
    /// Memoization not engaged — nothing to do at exit.
    Inactive,
    /// Repeat execution: the compiled program was applied at entry and
    /// charging parked at `S_PASSIVE`; just un-park at exit.
    Replay { gen0: u32 },
    /// Repeat execution in verify mode: charge live, then assert the
    /// fresh delta bit-equal to the compiled program.
    Verify {
        acc0: f64,
        counts0: [u64; OP_COUNT],
        gen0: u32,
        idx: u32,
        name: &'static str,
        key: u64,
    },
    /// First execution: compile and store the program at exit.
    Record {
        acc0: f64,
        counts0: [u64; OP_COUNT],
        gen0: u32,
        site: u32,
        key: u64,
    },
}

/// RAII guard for one execution of a memoized region; the exit logic
/// runs on drop, so `break` / `continue` / `?` / early `return` inside
/// the region stay safe.
pub struct SiteGuard {
    action: Action,
}

/// Enters a memoized region at `site` with the caller's `key` (fold any
/// value that changes the region's charge stream — trip counts,
/// data-dependent branch selectors — into the key).
///
/// Returns a guard whose drop ends the region. Usually called via
/// [`g_loop!`](crate::g_loop) / [`g_site!`](crate::g_site) rather than
/// directly.
#[must_use]
pub fn site_enter(site: &SegmentSite, key: u64) -> SiteGuard {
    enter(site, || key)
}

/// [`site_enter`] for a whole `g_loop!`: the trip count is mixed into
/// the effective key, so different trip counts are different programs.
#[must_use]
pub fn site_enter_loop(site: &SegmentSite, key: u64, trips: u64) -> SiteGuard {
    enter(site, || SegmentSite::loop_key(key, trips))
}

/// Enters a [`g_twin!`](crate::g_twin) region. Returns `None` when the
/// region's native instantiation may run instead of the annotated one:
/// charging is absent or parked under an enclosing replayed region (the
/// annotated body would charge nothing), or the session is in
/// [`MemoMode::Replay`] and a compiled program for `(site, key)` was
/// just charged to the flat TLS slots in one step. Repeat executions
/// thus run at native speed with *zero* per-op work. `Some` carries the
/// guard the annotated instantiation runs under (which records, charges
/// live, or verifies, depending on mode); [`MemoMode::Verify`] always
/// takes it, so verify runs still validate recorded programs against
/// live charging. The key is computed only when the region can memoize.
pub(crate) fn twin(site: &SegmentSite, key: impl FnOnce() -> u64) -> Option<SiteGuard> {
    let (memo, state) = FAST.with(|f| (f.memo.get(), f.state.get()));
    if state <= S_PASSIVE {
        return None;
    }
    if memo != MEMO_REPLAY || state != S_SEQ {
        return Some(enter(site, key));
    }
    let key = key();
    let site_id = site.id();
    let hit = tls::with(|c| {
        let idx = c.progs.lookup(site_id, key)?;
        apply(c.progs.compiled(idx));
        Some(())
    })
    .flatten();
    match hit {
        Some(()) => None,
        None => Some(enter(site, || key)),
    }
}

/// Charges a compiled program to the fast slots: one `f64` add plus
/// one integer add per distinct op.
fn apply(prog: &CompiledProg) {
    FAST.with(|f| {
        f.acc.set(f.acc.get() + prog.d_acc);
        for &(op, n) in prog.rows.iter() {
            let cell = &f.counts[op as usize];
            cell.set(cell.get() + n);
        }
        f.site_hits.set(f.site_hits.get() + 1);
    });
}

impl SegmentSite {
    /// The effective key of a `g_loop!` region of `trips` iterations
    /// under the caller's `key`: a pure deterministic mix
    /// (splitmix64-style finalizer).
    #[must_use]
    pub fn loop_key(key: u64, trips: u64) -> u64 {
        let mut x = key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(trips)
            .wrapping_add(0x243F_6A88_85A3_08D3);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x
    }
}

/// Enters a memoized region; the key is computed only when the region
/// can memoize.
pub(crate) fn enter(site: &SegmentSite, key: impl FnOnce() -> u64) -> SiteGuard {
    let (memo, state, gen0, acc0) =
        FAST.with(|f| (f.memo.get(), f.state.get(), f.seg_gen.get(), f.acc.get()));
    // Engaged only for live sequential charging with memoization on:
    // inside an outer replayed region `state` is `S_PASSIVE`, so nested
    // regions are inert (the outer program already covers them).
    if memo == MEMO_OFF || state != S_SEQ {
        return SiteGuard {
            action: Action::Inactive,
        };
    }
    let key = key();
    let site_id = site.id();
    let action = tls::with(|c| match c.progs.lookup(site_id, key) {
        Some(idx) if memo == MEMO_REPLAY => {
            // Apply the program at entry, then park charging.
            apply(c.progs.compiled(idx));
            FAST.with(|f| f.state.set(S_PASSIVE));
            Action::Replay { gen0 }
        }
        Some(idx) => {
            debug_assert_eq!(memo, tls::MEMO_VERIFY);
            Action::Verify {
                acc0,
                counts0: snapshot_counts(),
                gen0,
                idx,
                name: site.name,
                key,
            }
        }
        None => Action::Record {
            acc0,
            counts0: snapshot_counts(),
            gen0,
            site: site_id,
            key,
        },
    })
    .unwrap_or(Action::Inactive);
    SiteGuard { action }
}

fn snapshot_counts() -> [u64; OP_COUNT] {
    FAST.with(|f| {
        let mut out = [0u64; OP_COUNT];
        for (o, c) in out.iter_mut().zip(f.counts.iter()) {
            *o = c.get();
        }
        out
    })
}

/// The flat `(Δacc, Δcounts)` between the current fast slots and the
/// entry snapshot, when no segment boundary fired since `gen0` (and
/// charging is still live); `None` otherwise — a delta that spans
/// segments must not be cached.
fn delta_since(acc0: f64, counts0: &[u64; OP_COUNT], gen0: u32) -> Option<(f64, [u64; OP_COUNT])> {
    FAST.with(|f| {
        if f.seg_gen.get() != gen0 || f.state.get() != S_SEQ {
            return None;
        }
        let d_acc = f.acc.get() - acc0;
        let mut d_counts = [0u64; OP_COUNT];
        for i in 0..OP_COUNT {
            d_counts[i] = f.counts[i].get().checked_sub(counts0[i])?;
        }
        Some((d_acc, d_counts))
    })
}

impl Drop for SiteGuard {
    fn drop(&mut self) {
        match std::mem::replace(&mut self.action, Action::Inactive) {
            Action::Inactive => {}
            Action::Replay { gen0 } => FAST.with(|f| {
                debug_assert_eq!(
                    f.seg_gen.get(),
                    gen0,
                    "segment boundary inside a replayed site region: the \
                     compiled program was recorded from a boundary-free \
                     execution"
                );
                f.state.set(S_SEQ);
            }),
            Action::Record {
                acc0,
                counts0,
                gen0,
                site,
                key,
            } => {
                // A wait/channel op inside the region (or a context
                // change) leaves no delta: the region simply stays live.
                let Some((d_acc, d_counts)) = delta_since(acc0, &counts0, gen0) else {
                    return;
                };
                let _ = tls::with(|c| {
                    let prog = CompiledProg::from_flat(d_acc, &d_counts);
                    if !prog.recomputes_exactly(&c.costs) {
                        // Replaying this program would not be bit-exact
                        // (fractional leak or > 2^53): stay live.
                        return;
                    }
                    c.progs.insert(site, key, prog);
                    FAST.with(|f| f.site_misses.set(f.site_misses.get() + 1));
                });
            }
            Action::Verify {
                acc0,
                counts0,
                gen0,
                idx,
                name,
                key,
            } => {
                let Some((d_acc, d_counts)) = delta_since(acc0, &counts0, gen0) else {
                    return;
                };
                let Some(stored) = tls::with(|c| c.progs.compiled(idx).clone()) else {
                    return;
                };
                assert_eq!(
                    d_acc.to_bits(),
                    stored.d_acc.to_bits(),
                    "site {name:?} key {key}: live re-charge disagrees with \
                     the compiled Δacc — the region's charge stream is \
                     data-dependent; fold the discriminating value into \
                     the site key or leave the region unmarked"
                );
                assert_eq!(
                    d_counts,
                    stored.dense_counts(),
                    "site {name:?} key {key}: live re-charge disagrees with \
                     the compiled op counts — the region's charge stream \
                     is data-dependent"
                );
                FAST.with(|f| f.site_hits.set(f.site_hits.get() + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostTable, Op};
    use crate::resource::ResourceKind;
    use crate::tls::testutil::with_test_ctx_memo;
    use crate::tls::{charge_branch, charge_op};

    fn int_table() -> CostTable {
        CostTable::from_pairs([(Op::Add, 2.0), (Op::Mul, 5.0), (Op::Branch, 1.0)])
    }

    fn body() {
        charge_op(Op::Add);
        charge_op(Op::Mul);
        charge_branch();
    }

    #[test]
    fn replay_matches_live_bit_for_bit() {
        let run = |memo| {
            with_test_ctx_memo(ResourceKind::Sequential, int_table(), false, memo, || {
                static SITE: SegmentSite = SegmentSite::new();
                for _ in 0..10 {
                    let _g = site_enter(&SITE, 0);
                    body();
                }
            })
        };
        let live = run(MemoMode::Off);
        let memo = run(MemoMode::Replay);
        assert_eq!(live.acc.to_bits(), memo.acc.to_bits());
        assert_eq!(live.counts, memo.counts);
        assert_eq!(live.counts.get(Op::Add), 10);
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let ctx = with_test_ctx_memo(
            ResourceKind::Sequential,
            int_table(),
            false,
            MemoMode::Replay,
            || {
                static SITE: SegmentSite = SegmentSite::new();
                let mut hits = 0;
                let mut misses = 0;
                for _ in 0..7 {
                    let _g = site_enter(&SITE, 0);
                    body();
                }
                crate::tls::FAST.with(|f| {
                    hits = f.site_hits.get();
                    misses = f.site_misses.get();
                });
                assert_eq!(misses, 1, "first execution records");
                assert_eq!(hits, 6, "repeats replay");
            },
        );
        assert_eq!(ctx.progs.len(), 1);
    }

    #[test]
    fn distinct_keys_miss_separately() {
        let ctx = with_test_ctx_memo(
            ResourceKind::Sequential,
            int_table(),
            false,
            MemoMode::Replay,
            || {
                static SITE: SegmentSite = SegmentSite::new();
                for trip in [3u64, 5, 3, 5, 3] {
                    let _g = site_enter(&SITE, trip);
                    for _ in 0..trip {
                        charge_op(Op::Add);
                    }
                }
            },
        );
        // 3+5+3+5+3 Adds regardless of which executions replayed.
        assert_eq!(ctx.counts.get(Op::Add), 19);
        assert_eq!(ctx.acc, 38.0);
        assert_eq!(ctx.progs.len(), 2, "one program per key");
    }

    #[test]
    fn fractional_tables_never_replay() {
        let ctx = with_test_ctx_memo(
            ResourceKind::Sequential,
            CostTable::figure3(), // Branch = 2.4
            false,
            MemoMode::Replay,
            || {
                static SITE: SegmentSite = SegmentSite::new();
                for _ in 0..4 {
                    let _g = site_enter(&SITE, 0);
                    charge_branch();
                }
            },
        );
        assert!(ctx.progs.is_empty(), "fractional table must stay live");
        assert_eq!(ctx.counts.get(Op::Branch), 4);
    }

    #[test]
    fn verify_mode_accepts_deterministic_regions() {
        let ctx = with_test_ctx_memo(
            ResourceKind::Sequential,
            int_table(),
            false,
            MemoMode::Verify,
            || {
                static SITE: SegmentSite = SegmentSite::new();
                for _ in 0..5 {
                    let _g = site_enter(&SITE, 0);
                    body();
                }
            },
        );
        assert_eq!(ctx.counts.get(Op::Add), 5);
        assert_eq!(ctx.acc, 5.0 * 8.0);
    }

    #[test]
    #[should_panic(expected = "data-dependent")]
    fn verify_mode_catches_data_dependent_regions() {
        let _ = with_test_ctx_memo(
            ResourceKind::Sequential,
            int_table(),
            false,
            MemoMode::Verify,
            || {
                static SITE: SegmentSite = SegmentSite::new();
                for trip in [1u64, 2] {
                    // Same key, different charge stream: verify must trip.
                    let _g = site_enter(&SITE, 0);
                    for _ in 0..trip {
                        charge_op(Op::Add);
                    }
                }
            },
        );
    }

    #[test]
    fn nested_regions_stay_consistent() {
        let run = |memo| {
            with_test_ctx_memo(ResourceKind::Sequential, int_table(), false, memo, || {
                static OUTER: SegmentSite = SegmentSite::new();
                static INNER: SegmentSite = SegmentSite::new();
                for _ in 0..3 {
                    let _o = site_enter(&OUTER, 0);
                    charge_op(Op::Mul);
                    for _ in 0..4 {
                        let _i = site_enter(&INNER, 0);
                        charge_op(Op::Add);
                    }
                }
            })
        };
        let live = run(MemoMode::Off);
        let memo = run(MemoMode::Replay);
        assert_eq!(live.acc.to_bits(), memo.acc.to_bits());
        assert_eq!(live.counts, memo.counts);
        assert_eq!(live.counts.get(Op::Add), 12);
    }

    #[test]
    fn early_exit_from_region_is_safe() {
        let ctx = with_test_ctx_memo(
            ResourceKind::Sequential,
            int_table(),
            false,
            MemoMode::Replay,
            || {
                static SITE: SegmentSite = SegmentSite::new();
                for i in 0..6 {
                    let _g = site_enter(&SITE, 0);
                    charge_op(Op::Add);
                    if i % 2 == 0 {
                        continue; // drops the guard mid-loop-body
                    }
                    charge_op(Op::Add);
                }
                // After all that, charging must still be live.
                charge_op(Op::Mul);
            },
        );
        assert_eq!(ctx.counts.get(Op::Mul), 1);
        assert!(ctx.counts.get(Op::Add) >= 6);
    }

    #[test]
    fn loop_trip_counts_key_separately() {
        let run_trips = |trips: &[u64]| {
            let counts: Vec<u64> = trips.to_vec();
            with_test_ctx_memo(
                ResourceKind::Sequential,
                int_table(),
                false,
                MemoMode::Replay,
                move || {
                    static SITE: SegmentSite = SegmentSite::new();
                    for &n in &counts {
                        let _g = site_enter_loop(&SITE, 0, n);
                        for _ in 0..n {
                            charge_op(Op::Add);
                        }
                    }
                },
            )
        };
        let ctx = run_trips(&[3, 5, 3, 5]);
        assert_eq!(ctx.counts.get(Op::Add), 16, "3+5+3+5 adds exactly");
        assert_eq!(ctx.acc, 32.0);
        assert_eq!(ctx.progs.len(), 2, "one program per trip count");
    }
}
