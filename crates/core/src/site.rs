//! In-run memoization of [`g_twin!`](crate::g_twin) regions: record a
//! region's charges once, replay them natively after.
//!
//! The single-source methodology (§2) makes a straight-line region's
//! charge stream a pure function of (code, cost table): executing the
//! same region again charges exactly the same operations in the same
//! order. A twin region is a function generic over the
//! [`Domain`](crate::Domain); its first execution per key runs the
//! annotated instantiation and records a [cost program](crate::prog) of
//! what it charged, and every repeat in the same process applies the
//! program to the flat TLS slots in a handful of additions and runs the
//! [`Native`](crate::Native) instantiation. Programs stay in the process
//! that recorded them: nothing is shared across runs.
//!
//! [`g_twin!`](crate::g_twin) declares a `static` [`SegmentSite`] (one
//! per *lexical* region, named by its `file:line:column`) and takes a
//! caller-supplied `u64` key. The full keying scheme is `(site id,
//! caller key)`: fold every value that changes the region's charge
//! stream — data-dependent trip counts, branch outcomes computed in
//! plain (uncharged) Rust — into the key, and each executed path
//! compiles into its own program. A changed key is a miss and the
//! region records afresh.
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
//! bit-for-bit. Fractional tables and parallel resources (whose DFG node
//! lineage spans iterations) run the annotated instantiation live, and
//! environment and trace-replaying processes, which charge nothing, run
//! the native one — marking a region is always sound, never mandatory.
//!
//! [`MemoMode::Verify`] runs the annotated instantiation on every hit
//! and asserts its charges bit-equal to the compiled program — the
//! debugging mode for validating new region keys.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::cost::OP_COUNT;
use crate::prog::CompiledProg;
use crate::tls::{self, FAST, MEMO_OFF, MEMO_REPLAY, S_PASSIVE};

/// Site-memoization policy for a session (see the module docs for when
/// replay actually engages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum MemoMode {
    /// Never memoize; every twin region runs its annotated instantiation
    /// and charges live.
    Off = 0,
    /// Replay compiled cost programs on repeat executions (the default).
    #[default]
    Replay = 1,
    /// Replay *and* re-charge live, asserting the program bit-equal —
    /// slow, for validating region keys.
    Verify = 2,
}

/// A lexical region identity, declared `static` by
/// [`g_twin!`](crate::g_twin).
///
/// The numeric id is assigned lazily on first use from a global counter,
/// so declaring sites is free and ids are dense. The name (the macro
/// passes `file:line:column`) labels the site in verify-mode diagnostics.
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

/// A [`g_twin!`](crate::g_twin) region that runs its annotated
/// instantiation: [`Domain::twin`](crate::Domain::twin) returns one when
/// the native instantiation may not run instead.
pub struct Region(Option<Tracked>);

/// A region whose annotated run records its program, or, with
/// `stored`, verifies the program compiled at that index.
struct Tracked {
    site: &'static SegmentSite,
    key: u64,
    stored: Option<u32>,
}

/// Enters a [`g_twin!`](crate::g_twin) region. Returns `None` when the
/// region's native instantiation runs instead of the annotated one:
/// the process charges nothing (absent, environment or trace-replay
/// context), or the session is in [`MemoMode::Replay`] and the compiled
/// program for `(site, key)` was just charged to the flat TLS slots in
/// one step. Otherwise the [`Region`] runs the annotated instantiation:
/// live when memoization is off (fractional table, parallel resource,
/// [`MemoMode::Off`]), else recording the program on a miss or, in
/// [`MemoMode::Verify`], checking it on a hit. The key is computed only
/// when memoization is on.
pub(crate) fn twin(site: &'static SegmentSite, key: impl FnOnce() -> u64) -> Option<Region> {
    let (memo, state) = FAST.with(|f| (f.memo.get(), f.state.get()));
    if state <= S_PASSIVE {
        return None;
    }
    // `install` turns memoization off everywhere but on live sequential
    // charging.
    if memo == MEMO_OFF {
        return Some(Region(None));
    }
    let key = key();
    let stored = tls::with(|c| {
        let idx = c.progs.lookup(site.id(), key)?;
        if memo == MEMO_REPLAY {
            apply(c.progs.compiled(idx));
        }
        Some(idx)
    })
    .flatten();
    match stored {
        Some(_) if memo == MEMO_REPLAY => None,
        _ => Some(Region(Some(Tracked { site, key, stored }))),
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

impl Region {
    /// Runs the region's annotated instantiation `f` and returns its
    /// value, recording or verifying the region's program around it.
    #[inline]
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        match self.0 {
            None => f(),
            Some(tracked) => tracked.run(f),
        }
    }
}

/// Where a tracked run started: the accumulator, the per-op counts and
/// the segment generation at region entry.
struct Start {
    acc: f64,
    counts: [u64; OP_COUNT],
    seg_gen: u32,
}

impl Tracked {
    /// Out of line, so the entry counts live in this frame alone and no
    /// caller carries them.
    #[inline(never)]
    fn run<R>(self, f: impl FnOnce() -> R) -> R {
        let start = FAST.with(|f| Start {
            acc: f.acc.get(),
            counts: std::array::from_fn(|i| f.counts[i].get()),
            seg_gen: f.seg_gen.get(),
        });
        let value = f();
        self.end(&start);
        value
    }

    /// Stores the program the run charged, or checks it against the
    /// stored one. A segment boundary inside the region (a wait or a
    /// channel access) leaves no delta: the region records nothing and
    /// counts neither a hit nor a miss.
    fn end(self, start: &Start) {
        let Some((d_acc, d_counts)) = FAST.with(|f| {
            if f.seg_gen.get() != start.seg_gen {
                return None;
            }
            let mut d = [0u64; OP_COUNT];
            for (i, d) in d.iter_mut().enumerate() {
                *d = f.counts[i].get() - start.counts[i];
            }
            Some((f.acc.get() - start.acc, d))
        }) else {
            return;
        };
        let (name, key) = (self.site.name, self.key);
        let _ = tls::with(|c| match self.stored {
            None => {
                let prog = CompiledProg::from_flat(d_acc, &d_counts);
                // A program whose replay would not be bit-exact
                // (fractional leak or > 2^53) is not stored: the region
                // stays live.
                if prog.recomputes_exactly(&c.costs) {
                    c.progs.insert(self.site.id(), key, prog);
                    FAST.with(|f| f.site_misses.set(f.site_misses.get() + 1));
                }
            }
            Some(idx) => {
                let stored = c.progs.compiled(idx);
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
        });
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::cost::{CostTable, Op, OpCounts};
    use crate::resource::ResourceKind;
    use crate::tls::testutil::{with_test_ctx_memo, TestRun};
    use crate::tls::{charge_branch, charge_op, ThreadCtx};

    fn int_table() -> CostTable {
        CostTable::from_pairs([(Op::Add, 2.0), (Op::Mul, 5.0), (Op::Branch, 1.0)])
    }

    fn body() {
        charge_op(Op::Add);
        charge_op(Op::Mul);
        charge_branch();
    }

    /// Runs `body` as the twin region at `site` under `key`. These
    /// bodies' native twins do nothing, so a hit runs nothing.
    fn region(site: &'static SegmentSite, key: u64, body: impl FnOnce()) {
        if let Some(r) = twin(site, || key) {
            r.run(body);
        }
    }

    fn charged(memo: MemoMode, f: impl FnOnce()) -> TestRun {
        with_test_ctx_memo(ResourceKind::Sequential, int_table(), false, memo, f)
    }

    #[test]
    fn replay_matches_live_bit_for_bit() {
        let run = |memo| {
            charged(memo, || {
                static SITE: SegmentSite = SegmentSite::new();
                for _ in 0..10 {
                    region(&SITE, 0, body);
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
        let ctx = charged(MemoMode::Replay, || {
            static SITE: SegmentSite = SegmentSite::new();
            for _ in 0..7 {
                region(&SITE, 0, body);
            }
        });
        assert_eq!(ctx.site_misses, 1, "first execution records");
        assert_eq!(ctx.site_hits, 6, "repeats replay");
        assert_eq!(ctx.progs.len(), 1);
    }

    #[test]
    fn distinct_keys_miss_separately() {
        let ctx = charged(MemoMode::Replay, || {
            static SITE: SegmentSite = SegmentSite::new();
            for trip in [3u64, 5, 3, 5, 3] {
                region(&SITE, trip, || {
                    for _ in 0..trip {
                        charge_op(Op::Add);
                    }
                });
            }
        });
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
                    region(&SITE, 0, charge_branch);
                }
            },
        );
        assert!(ctx.progs.is_empty(), "fractional table must stay live");
        assert_eq!(ctx.counts.get(Op::Branch), 4);
    }

    #[test]
    fn verify_mode_accepts_deterministic_regions() {
        let ctx = charged(MemoMode::Verify, || {
            static SITE: SegmentSite = SegmentSite::new();
            for _ in 0..5 {
                region(&SITE, 0, body);
            }
        });
        assert_eq!(ctx.counts.get(Op::Add), 5);
        assert_eq!(ctx.acc, 5.0 * 8.0);
        assert_eq!((ctx.site_misses, ctx.site_hits), (1, 4));
    }

    #[test]
    #[should_panic(expected = "data-dependent")]
    fn verify_mode_catches_data_dependent_regions() {
        let _ = charged(MemoMode::Verify, || {
            static SITE: SegmentSite = SegmentSite::new();
            for trip in [1u64, 2] {
                // Same key, different charge stream: verify must trip.
                region(&SITE, 0, || {
                    for _ in 0..trip {
                        charge_op(Op::Add);
                    }
                });
            }
        });
    }

    #[test]
    fn nested_regions_stay_consistent() {
        let run = |memo| {
            charged(memo, || {
                static OUTER: SegmentSite = SegmentSite::new();
                static INNER: SegmentSite = SegmentSite::new();
                for _ in 0..3 {
                    region(&OUTER, 0, || {
                        charge_op(Op::Mul);
                        for _ in 0..4 {
                            region(&INNER, 0, || charge_op(Op::Add));
                        }
                    });
                }
            })
        };
        let live = run(MemoMode::Off);
        let memo = run(MemoMode::Replay);
        assert_eq!(live.acc.to_bits(), memo.acc.to_bits());
        assert_eq!(live.counts, memo.counts);
        assert_eq!(live.counts.get(Op::Add), 12);
        // The outer region records once (the inner one inside it, then
        // three inner hits) and replays twice.
        assert_eq!((memo.site_misses, memo.site_hits), (2, 5));
    }

    #[test]
    fn early_return_from_region_is_safe() {
        let ctx = charged(MemoMode::Replay, || {
            static SITE: SegmentSite = SegmentSite::new();
            for i in 0..6 {
                region(&SITE, i % 2, || {
                    charge_op(Op::Add);
                    if i % 2 == 0 {
                        return;
                    }
                    charge_op(Op::Add);
                });
            }
            // After all that, charging must still be live.
            charge_op(Op::Mul);
        });
        assert_eq!(ctx.counts.get(Op::Mul), 1);
        assert_eq!(ctx.counts.get(Op::Add), 9);
    }

    #[test]
    fn trip_counts_key_separately() {
        let ctx = charged(MemoMode::Replay, || {
            static SITE: SegmentSite = SegmentSite::new();
            for n in [3, 5, 3, 5] {
                region(&SITE, n, || {
                    for _ in 0..n {
                        charge_op(Op::Add);
                    }
                });
            }
        });
        assert_eq!(ctx.counts.get(Op::Add), 16, "3+5+3+5 adds exactly");
        assert_eq!(ctx.acc, 32.0);
        assert_eq!(ctx.progs.len(), 2, "one program per trip count");
    }

    #[test]
    fn segment_boundary_inside_a_region_records_nothing() {
        // Each segment the run closes, as (cycles, counts, hits, misses).
        type Segment = (f64, OpCounts, u64, u64);
        let run = |memo| {
            let closed: RefCell<Vec<Segment>> = RefCell::default();
            let last = charged(memo, || {
                static SITE: SegmentSite = SegmentSite::new();
                for _ in 0..3 {
                    region(&SITE, 0, || {
                        charge_op(Op::Add);
                        // A boundary fires mid-region, as a channel
                        // access inside it would.
                        let t = tls::with(ThreadCtx::take_segment).expect("context");
                        closed
                            .borrow_mut()
                            .push((t.acc, t.counts, t.site_hits, t.site_misses));
                        charge_op(Op::Mul);
                    });
                }
            });
            let mut segments = closed.into_inner();
            segments.push((last.acc, last.counts, last.site_hits, last.site_misses));
            (segments, last.progs.len())
        };
        let (live, _) = run(MemoMode::Off);
        for memo in [MemoMode::Replay, MemoMode::Verify] {
            let (segments, programs) = run(memo);
            assert_eq!(
                programs, 0,
                "{memo:?}: a delta across a boundary is not stored"
            );
            assert_eq!(segments.len(), 4);
            for ((acc, counts, hits, misses), (live_acc, live_counts, ..)) in
                segments.iter().zip(&live)
            {
                assert_eq!(acc.to_bits(), live_acc.to_bits(), "{memo:?}");
                assert_eq!(counts, live_counts, "{memo:?}");
                assert_eq!((*hits, *misses), (0, 0), "{memo:?}");
            }
        }
    }
}
