//! Segment-site memoization: compile-and-replay of marked regions.
//!
//! The single-source methodology (§2) makes a straight-line region's
//! charge stream a pure function of (code, cost table): executing the
//! same loop body again charges exactly the same operations in the same
//! order. This module exploits that — the first execution of a marked
//! region records a [cost program](crate::prog) capturing what it
//! charged (including collapsed uniform loops and calls to nested
//! memoized regions); every repeat applies the program's compiled form
//! to the flat TLS slots in a handful of additions instead of charging
//! each operation live.
//!
//! A region is marked with [`g_loop!`](crate::g_loop) /
//! [`g_site!`](crate::g_site), which expand to a `static`
//! [`SegmentSite`] (one per *lexical* region, carrying a stable
//! `file:line:column` name so recorded programs serialize across
//! processes) plus a caller-supplied `u64` key. The full keying scheme
//! is `(site id, caller key, branch-outcome key)`: fold every value
//! that changes the region's charge stream — data-dependent trip
//! counts, branch outcomes computed in plain (uncharged) Rust — into
//! the key, and each executed path compiles into its own program
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

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::cost::OP_COUNT;
use crate::prog::{build_program, stable_site_hash, CompiledProg, LoopShape, RecEvent};
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
/// so declaring sites is free and ids are dense. Sites created with
/// [`SegmentSite::named`] additionally carry a *stable* identity — the
/// FNV-1a hash of their `file:line:column` name — under which their
/// recorded programs serialize into a shared
/// [`ProgramSet`](crate::ProgramSet); anonymous sites stay local to the
/// process.
pub struct SegmentSite {
    id: AtomicU32,
    stable: AtomicU64,
    name: &'static str,
}

/// Global site-id allocator; 0 means "not yet assigned".
static NEXT_SITE: AtomicU32 = AtomicU32::new(1);

impl SegmentSite {
    /// Creates an unassigned anonymous site (use in a `static`). Its
    /// programs never serialize — prefer [`SegmentSite::named`].
    #[must_use]
    pub const fn new() -> SegmentSite {
        SegmentSite::named("")
    }

    /// Creates a site with a stable lexical name (conventionally
    /// `concat!(file!(), ':', line!(), ':', column!())`), under whose
    /// hash the site's programs serialize and warm-start across
    /// processes.
    #[must_use]
    pub const fn named(name: &'static str) -> SegmentSite {
        SegmentSite {
            id: AtomicU32::new(0),
            stable: AtomicU64::new(0),
            name,
        }
    }

    /// This site's `(process id, stable hash)`, assigning both on first
    /// call.
    fn ids(&self) -> (u32, u64) {
        let id = self.id.load(Ordering::Acquire);
        if id != 0 {
            return (id, self.stable.load(Ordering::Relaxed));
        }
        let stable = stable_site_hash(self.name);
        self.stable.store(stable, Ordering::Relaxed);
        let fresh = NEXT_SITE.fetch_add(1, Ordering::Relaxed);
        match self
            .id
            .compare_exchange(0, fresh, Ordering::Release, Ordering::Acquire)
        {
            Ok(_) => (fresh, stable),
            Err(won) => (won, stable),
        }
    }
}

impl Default for SegmentSite {
    fn default() -> SegmentSite {
        SegmentSite::new()
    }
}

/// Live in-flight recording state of a first execution.
struct RecordState {
    acc0: f64,
    counts0: [u64; OP_COUNT],
    gen0: u32,
    site: u32,
    stable: u64,
    key: u64,
    /// Start of this region's slice of the thread's event log.
    ev_base: usize,
    /// Whether this is a `g_loop!` whole-loop site (iteration-marked).
    looping: bool,
    /// Iterations seen so far (via [`SiteGuard::loop_iter`]).
    trips: u64,
    /// Count snapshot at the start of the second iteration (i.e. after
    /// exactly one body), for the uniform-loop collapse.
    body_snap: Option<[u64; OP_COUNT]>,
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
        site: u32,
        key: u64,
    },
    /// First execution: build and store the cost program at exit.
    Record(RecordState),
}

/// RAII guard for one execution of a memoized region; the exit logic
/// runs on drop, so `break` / `continue` / `?` / early `return` inside
/// the region stay safe.
pub struct SiteGuard {
    action: Action,
}

impl SiteGuard {
    /// Marks the start of one `g_loop!` iteration. Only meaningful on a
    /// recording guard created by [`site_enter_loop`]: it counts trips
    /// and snapshots the first iteration's charge rows so uniform loops
    /// collapse into a [`Loop`](crate::Instr::Loop) instruction.
    /// A no-op (one branch) on replaying or inactive guards.
    #[inline]
    pub fn loop_iter(&mut self) {
        if let Action::Record(rs) = &mut self.action {
            if !rs.looping {
                return;
            }
            rs.trips += 1;
            if rs.trips == 2 {
                rs.body_snap = Some(snapshot_counts());
            }
        }
    }
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
    enter(site, key, false)
}

/// [`site_enter`] for a whole `g_loop!`: the trip count is mixed into
/// the effective key (different trip counts are different programs) and
/// the guard tracks iterations via [`SiteGuard::loop_iter`] so uniform
/// bodies collapse into a single [`Loop`](crate::Instr::Loop)
/// instruction when recorded.
#[must_use]
pub fn site_enter_loop(site: &SegmentSite, key: u64, trips: u64) -> SiteGuard {
    enter(site, mix_key(key, trips), true)
}

/// Attempts a *native replay* of the memoized region at `site`: when a
/// compiled cost program exists for `(site, key)` and the session is in
/// [`MemoMode::Replay`], the program is charged to the flat TLS slots in
/// one step and `true` is returned — the caller then runs the region's
/// **native twin** (plain, uncharged Rust mirroring the annotated
/// body's data effects) instead of the annotated body. Repeat
/// executions thus run at native speed with *zero* per-op work, not
/// even the parked-state flag test that passive replay pays. `false`
/// means the caller must run the annotated body under [`site_enter`]
/// (which records, charges live, or verifies, depending on mode).
///
/// The caller owns twin equivalence: the native block must produce
/// exactly the data the annotated block would (same wrapping
/// arithmetic, same stores), must not charge, and must not cross a
/// segment boundary. [`g_twin!`](crate::g_twin) wires the two blocks
/// together. [`MemoMode::Verify`] always takes the annotated path, so
/// verify runs still validate recorded programs against live charging.
#[must_use]
pub fn site_try_native(site: &SegmentSite, key: u64) -> bool {
    let (memo, state) = FAST.with(|f| (f.memo.get(), f.state.get()));
    if state <= S_PASSIVE {
        // Charging is absent or parked under an enclosing replayed
        // region: the annotated body would charge nothing, so the
        // native twin is equivalent and cheaper regardless of mode.
        return true;
    }
    if memo != MEMO_REPLAY || state != S_SEQ {
        return false;
    }
    let (site_id, stable) = site.ids();
    tls::with(|c| {
        let hit = c.progs.lookup(site_id, key).or_else(|| {
            let costs = c.costs;
            c.progs.warm_fetch(site_id, stable, key, &costs)
        });
        let Some(idx) = hit else {
            return false;
        };
        // Bracket the hit for an enclosing recorder, exactly like the
        // passive-replay path, so outer programs reference this one as
        // a Call instruction.
        let counts_before = (c.rec_depth > 0 && stable != 0).then(snapshot_counts);
        let d_counts = {
            let prog = c.progs.compiled(idx);
            FAST.with(|f| {
                f.acc.set(f.acc.get() + prog.d_acc);
                for &(op, n) in prog.rows.iter() {
                    let cell = &f.counts[op as usize];
                    cell.set(cell.get() + n);
                }
                f.site_hits.set(f.site_hits.get() + 1);
            });
            counts_before.map(|_| prog.dense_counts())
        };
        if let (Some(counts_before), Some(d_counts)) = (counts_before, d_counts) {
            c.rec_events.push(RecEvent {
                site: stable,
                key,
                counts_before,
                d_counts,
            });
        }
        true
    })
    .unwrap_or(false)
}

/// Pure deterministic mix of a caller key and a trip count
/// (splitmix64-style finalizer), stable across processes so loop
/// programs serialize under reproducible keys.
fn mix_key(key: u64, trips: u64) -> u64 {
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

fn enter(site: &SegmentSite, key: u64, looping: bool) -> SiteGuard {
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
    let (site_id, stable) = site.ids();
    let action = tls::with(|c| {
        let hit = c.progs.lookup(site_id, key).or_else(|| {
            let costs = c.costs;
            c.progs.warm_fetch(site_id, stable, key, &costs)
        });
        match hit {
            Some(idx) if memo == MEMO_REPLAY => {
                // If an enclosing region is recording, bracket this
                // replay so its program references ours as a Call.
                let counts_before = (c.rec_depth > 0 && stable != 0).then(snapshot_counts);
                let d_counts = {
                    let prog = c.progs.compiled(idx);
                    // Apply the program at entry: one f64 add plus one
                    // integer add per distinct op, then park charging.
                    FAST.with(|f| {
                        f.acc.set(f.acc.get() + prog.d_acc);
                        for &(op, n) in prog.rows.iter() {
                            let cell = &f.counts[op as usize];
                            cell.set(cell.get() + n);
                        }
                        f.site_hits.set(f.site_hits.get() + 1);
                        f.state.set(S_PASSIVE);
                    });
                    counts_before.map(|_| prog.dense_counts())
                };
                if let (Some(counts_before), Some(d_counts)) = (counts_before, d_counts) {
                    c.rec_events.push(RecEvent {
                        site: stable,
                        key,
                        counts_before,
                        d_counts,
                    });
                }
                Action::Replay { gen0 }
            }
            Some(idx) => {
                debug_assert_eq!(memo, tls::MEMO_VERIFY);
                Action::Verify {
                    acc0,
                    counts0: snapshot_counts(),
                    gen0,
                    idx,
                    site: site_id,
                    key,
                }
            }
            None => {
                c.rec_depth += 1;
                Action::Record(RecordState {
                    acc0,
                    counts0: snapshot_counts(),
                    gen0,
                    site: site_id,
                    stable,
                    key,
                    ev_base: c.rec_events.len(),
                    looping,
                    trips: 0,
                    body_snap: None,
                })
            }
        }
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
/// entry snapshot. `None` on counter underflow, which means a segment
/// boundary drained the slots inside the region.
fn delta_since(acc0: f64, counts0: &[u64; OP_COUNT]) -> Option<(f64, [u64; OP_COUNT])> {
    FAST.with(|f| {
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
            Action::Record(rs) => {
                let boundary_free =
                    FAST.with(|f| f.seg_gen.get() == rs.gen0 && f.state.get() == S_SEQ);
                let delta = if boundary_free {
                    delta_since(rs.acc0, &rs.counts0)
                } else {
                    // A wait/channel op fired inside the region (or the
                    // context changed): the delta spans segments and must
                    // not be cached. The region simply stays live.
                    None
                };
                let _ = tls::with(|c| {
                    c.rec_depth -= 1;
                    let events: Vec<RecEvent> = c.rec_events.drain(rs.ev_base..).collect();
                    let Some((d_acc, d_counts)) = delta else {
                        return;
                    };
                    let compiled = CompiledProg::from_flat(d_acc, &d_counts);
                    if !compiled.recomputes_exactly(&c.costs) {
                        // Replaying this program would not be bit-exact
                        // (fractional leak or > 2^53): stay live.
                        return;
                    }
                    let loop_shape = rs.body_snap.and_then(|snap| {
                        let mut body = [0u64; OP_COUNT];
                        for i in 0..OP_COUNT {
                            body[i] = snap[i].checked_sub(rs.counts0[i])?;
                        }
                        Some(LoopShape {
                            trips: rs.trips,
                            body,
                        })
                    });
                    let prog = build_program(&d_counts, &rs.counts0, &events, loop_shape);
                    c.progs
                        .insert_recorded(rs.site, rs.stable, rs.key, prog, compiled);
                    if c.rec_depth > 0 && rs.stable != 0 {
                        // Let the enclosing recording reference us as a
                        // Call instead of inlining our rows.
                        c.rec_events.push(RecEvent {
                            site: rs.stable,
                            key: rs.key,
                            counts_before: rs.counts0,
                            d_counts,
                        });
                    }
                    FAST.with(|f| f.site_misses.set(f.site_misses.get() + 1));
                });
            }
            Action::Verify {
                acc0,
                counts0,
                gen0,
                idx,
                site,
                key,
            } => {
                let boundary_free =
                    FAST.with(|f| f.seg_gen.get() == gen0 && f.state.get() == S_SEQ);
                if !boundary_free {
                    return;
                }
                let fresh = delta_since(acc0, &counts0);
                let stored = tls::with(|c| c.progs.compiled(idx).clone());
                if let (Some((d_acc, d_counts)), Some(stored)) = (fresh, stored) {
                    assert_eq!(
                        d_acc.to_bits(),
                        stored.d_acc.to_bits(),
                        "site {site} key {key}: live re-charge disagrees with \
                         the compiled Δacc — the region's charge stream is \
                         data-dependent; fold the discriminating value into \
                         the site key or leave the region unmarked"
                    );
                    assert_eq!(
                        d_counts,
                        stored.dense_counts(),
                        "site {site} key {key}: live re-charge disagrees with \
                         the compiled op counts — the region's charge stream \
                         is data-dependent"
                    );
                    FAST.with(|f| f.site_hits.set(f.site_hits.get() + 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostTable, Op};
    use crate::prog::Instr;
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
    fn named_sites_record_serializable_programs() {
        let mut ctx = with_test_ctx_memo(
            ResourceKind::Sequential,
            int_table(),
            false,
            MemoMode::Replay,
            || {
                static SITE: SegmentSite = SegmentSite::named("site.rs:test:1");
                static ANON: SegmentSite = SegmentSite::new();
                for _ in 0..3 {
                    let _g = site_enter(&SITE, 7);
                    body();
                }
                for _ in 0..3 {
                    let _g = site_enter(&ANON, 0);
                    body();
                }
            },
        );
        let fresh = ctx.progs.take_fresh();
        assert_eq!(fresh.len(), 1, "only the named site's program exports");
        let (stable, key, _) = &fresh[0];
        assert_eq!(*stable, stable_site_hash("site.rs:test:1"));
        assert_eq!(*key, 7);
        assert_eq!(ctx.progs.len(), 2, "both sites replay locally");
    }

    #[test]
    fn loop_sites_collapse_uniform_bodies() {
        let mut ctx = with_test_ctx_memo(
            ResourceKind::Sequential,
            int_table(),
            false,
            MemoMode::Replay,
            || {
                static SITE: SegmentSite = SegmentSite::named("site.rs:loop:1");
                let mut g = site_enter_loop(&SITE, 0, 5);
                for _ in 0..5 {
                    g.loop_iter();
                    body();
                }
                drop(g);
            },
        );
        let fresh = ctx.progs.take_fresh();
        assert_eq!(fresh.len(), 1);
        let prog = &fresh[0].2;
        assert!(
            matches!(prog.instrs()[0], Instr::Loop { n: 5, .. }),
            "uniform loop must collapse: {:?}",
            prog.instrs()
        );
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
                        let mut g = site_enter_loop(&SITE, 0, n);
                        for _ in 0..n {
                            g.loop_iter();
                            charge_op(Op::Add);
                        }
                        drop(g);
                    }
                },
            )
        };
        let ctx = run_trips(&[3, 5, 3, 5]);
        assert_eq!(ctx.counts.get(Op::Add), 16, "3+5+3+5 adds exactly");
        assert_eq!(ctx.acc, 32.0);
        assert_eq!(ctx.progs.len(), 2, "one program per trip count");
    }

    #[test]
    fn nested_named_sites_record_call_structure() {
        let mut ctx = with_test_ctx_memo(
            ResourceKind::Sequential,
            int_table(),
            false,
            MemoMode::Replay,
            || {
                static OUTER: SegmentSite = SegmentSite::named("site.rs:outer:1");
                static INNER: SegmentSite = SegmentSite::named("site.rs:inner:1");
                // Prime the inner program so the outer recording sees a
                // replayed (event-logged) nested region.
                {
                    let _i = site_enter(&INNER, 0);
                    charge_op(Op::Add);
                }
                let _o = site_enter(&OUTER, 0);
                charge_op(Op::Mul);
                {
                    let _i = site_enter(&INNER, 0);
                    charge_op(Op::Add);
                }
                charge_branch();
            },
        );
        let fresh = ctx.progs.take_fresh();
        let outer_stable = stable_site_hash("site.rs:outer:1");
        let inner_stable = stable_site_hash("site.rs:inner:1");
        let outer = fresh
            .iter()
            .find(|(s, _, _)| *s == outer_stable)
            .expect("outer recorded");
        assert!(
            outer
                .2
                .instrs()
                .iter()
                .any(|i| matches!(i, Instr::Call { site, key: 0 } if *site == inner_stable)),
            "outer program must reference inner as a Call: {:?}",
            outer.2.instrs()
        );
    }
}
