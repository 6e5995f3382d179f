//! Sorting benchmarks: recursive quicksort (Table 1 row "Quick sort") and
//! bubble sort (Table 1 row "Bubble").
//!
//! Both sort the same deterministic data and use as checksum
//! `Σ (i+1)·a[i]` over the sorted array (wrapping), which is sensitive to
//! ordering mistakes.

use scperf_core::{g_call, g_for, g_i32, g_if, g_loop, g_site, g_while, GArr, G};

use crate::data::{minic_initializer, signed_values};

/// Quicksort input size.
pub const QSORT_N: usize = 512;
/// Bubble-sort input size.
pub const BUBBLE_N: usize = 128;

/// Quicksort input data.
pub fn qsort_input() -> Vec<i32> {
    signed_values(0x50, QSORT_N, 10_000)
}

/// Bubble-sort input data.
pub fn bubble_input() -> Vec<i32> {
    signed_values(0x51, BUBBLE_N, 10_000)
}

fn weighted_checksum(a: &[i32]) -> i32 {
    let mut s = 0_i32;
    for (i, &v) in a.iter().enumerate() {
        s = s.wrapping_add((i as i32 + 1).wrapping_mul(v));
    }
    s
}

// ---------------------------------------------------------------- plain --

fn qsort_plain(a: &mut [i32], lo: i32, hi: i32) {
    if lo >= hi {
        return;
    }
    // Lomuto partition, pivot = a[hi].
    let pivot = a[hi as usize];
    let mut i = lo - 1;
    let mut j = lo;
    while j < hi {
        if a[j as usize] < pivot {
            i += 1;
            a.swap(i as usize, j as usize);
        }
        j += 1;
    }
    a.swap((i + 1) as usize, hi as usize);
    let p = i + 1;
    qsort_plain(a, lo, p - 1);
    qsort_plain(a, p + 1, hi);
}

/// Reference quicksort.
pub fn qsort() -> i32 {
    let mut a = qsort_input();
    qsort_plain(&mut a, 0, QSORT_N as i32 - 1);
    weighted_checksum(&a)
}

/// Reference bubble sort.
pub fn bubble() -> i32 {
    let mut a = bubble_input();
    let n = a.len();
    for i in 0..n {
        for j in 0..n - 1 - i {
            if a[j] > a[j + 1] {
                a.swap(j, j + 1);
            }
        }
    }
    weighted_checksum(&a)
}

// ------------------------------------------------------------ annotated --

/// Mirrors the minic `qsort(int p, int lo, int hi)` statement by
/// statement.
fn qsort_annotated(a: &mut GArr<i32>, lo: G<i32>, hi: G<i32>) {
    let mut stop = false;
    g_if!((lo >= hi) { stop = true; }); // if (lo >= hi) return 0;
    if stop {
        return;
    }
    let mut pivot = G::raw(0_i32);
    pivot.assign(a.at_raw(hi.get() as usize)); // pivot = p[hi];
    let mut i = G::raw(0_i32);
    i.assign(lo - 1); // i = lo - 1;
    let mut j = G::raw(0_i32);
    j.assign(lo); // j = lo;
    g_while!((j < hi) {
        g_if!((a.at_raw(j.get() as usize) < pivot) {
            i.assign(i + 1); // i = i + 1;
            let mut t = G::raw(0_i32);
            t.assign(a.at_raw(i.get() as usize)); // t = p[i];
            a.set_raw(i.get() as usize, a.at_raw(j.get() as usize)); // p[i] = p[j];
            a.set_raw(j.get() as usize, t); // p[j] = t;
        });
        j.assign(j + 1); // j = j + 1;
    });
    let mut t = G::raw(0_i32);
    t.assign(a.at((i + 1).cast_usize())); // t = p[i + 1];
    a.set((i + 1).cast_usize(), a.at_raw(hi.get() as usize)); // p[i + 1] = p[hi];
    a.set_raw(hi.get() as usize, t); // p[hi] = t;
    g_call!(qsort_annotated(a, lo, i)); // qsort(p, lo, i);
    let hi2 = i + 2;
    g_call!(qsort_annotated(a, hi2, hi)); // qsort(p, i + 2, hi);
}

/// Annotated quicksort.
pub fn qsort_annotated_run() -> i32 {
    let mut a = GArr::from_vec(qsort_input());
    g_call!(qsort_annotated(&mut a, g_i32(0), g_i32(QSORT_N as i32 - 1)));
    let mut s = g_i32(0); // s = 0;
    g_for!(i in 0..QSORT_N => {
        // s = s + (i + 1) * a[i];
        let w = G::raw(i as i32) + G::raw(1);
        s.assign(s + w * a.at_raw(i));
    });
    s.get()
}

/// Annotated bubble sort (the minic form hoists the inner bound:
/// `m = N - 1 - i;`).
pub fn bubble_annotated_run() -> i32 {
    let mut a = GArr::from_vec(bubble_input());
    let n = BUBBLE_N;
    let mut m = G::raw(0_i32);
    g_for!(i in 0..n => {
        m.assign(G::raw(n as i32) - G::raw(1) - G::raw(i as i32)); // m = N - 1 - i;
        g_for!(j in 0..(n - 1 - i) => {
            let _ = &m;
            // if (a[j] > a[j + 1]) { ... }
            let jp = G::raw(j) + G::raw(1);
            g_if!((a.at_raw(j) > a.at(jp)) {
                let mut t = G::raw(0_i32);
                t.assign(a.at_raw(j)); // t = a[j];
                let jp2 = G::raw(j) + G::raw(1);
                a.set_raw(j, a.at(jp2)); // a[j] = a[j + 1];
                let jp3 = G::raw(j) + G::raw(1);
                a.set(jp3, t); // a[j + 1] = t;
            });
        });
    });
    let mut s = g_i32(0); // s = 0;
    g_for!(i in 0..n => {
        // s = s + (i + 1) * a[i];
        let w = G::raw(i as i32) + G::raw(1);
        s.assign(s + w * a.at_raw(i));
    });
    s.get()
}

// ----------------------------------------------------------- memoized --

/// [`qsort_annotated`] with segment-site memoization — the adversarial
/// case for cost-program keying: the recursion's extent and the
/// partition's swap pattern both depend on element *values*, so no key
/// derived from `(lo, hi)` is sound. Instead every data-dependent
/// branch is its own region keyed by the branch outcome (computed
/// uncharged via [`GArr::peek`]), and the straight-line stretches
/// between them are unkeyed regions; the charge stream within each
/// region is then fully determined by its key.
fn qsort_memo(a: &mut GArr<i32>, lo: G<i32>, hi: G<i32>) {
    let stop = lo.get() >= hi.get();
    g_site!((stop as u64) {
        g_if!((lo >= hi) {});
    });
    if stop {
        return;
    }
    let mut pivot = G::raw(0_i32);
    let mut i = G::raw(0_i32);
    let mut j = G::raw(0_i32);
    g_site!({
        pivot.assign(a.at_raw(hi.get() as usize)); // pivot = p[hi];
        i.assign(lo - 1); // i = lo - 1;
        j.assign(lo); // j = lo;
    });
    g_while!((j < hi) {
        let take = a.peek(j.get() as usize) < pivot.get();
        g_site!((take as u64) {
            g_if!((a.at_raw(j.get() as usize) < pivot) {
                i.assign(i + 1); // i = i + 1;
                let mut t = G::raw(0_i32);
                t.assign(a.at_raw(i.get() as usize)); // t = p[i];
                a.set_raw(i.get() as usize, a.at_raw(j.get() as usize)); // p[i] = p[j];
                a.set_raw(j.get() as usize, t); // p[j] = t;
            });
            j.assign(j + 1); // j = j + 1;
        });
    });
    g_site!({
        let mut t = G::raw(0_i32);
        t.assign(a.at((i + 1).cast_usize())); // t = p[i + 1];
        a.set((i + 1).cast_usize(), a.at_raw(hi.get() as usize)); // p[i + 1] = p[hi];
        a.set_raw(hi.get() as usize, t); // p[hi] = t;
    });
    g_call!(qsort_memo(a, lo, i)); // qsort(p, lo, i);
    let hi2 = i + 2;
    g_call!(qsort_memo(a, hi2, hi)); // qsort(p, i + 2, hi);
}

/// Memoized quicksort (charges exactly what [`qsort_annotated_run`]
/// charges when memoization is off).
pub fn qsort_memo_run() -> i32 {
    let mut a = GArr::from_vec(qsort_input());
    g_call!(qsort_memo(&mut a, g_i32(0), g_i32(QSORT_N as i32 - 1)));
    let mut s = g_i32(0); // s = 0;
    g_loop!(i in 0..QSORT_N => {
        // s = s + (i + 1) * a[i];
        let w = G::raw(i as i32) + G::raw(1);
        s.assign(s + w * a.at_raw(i));
    });
    s.get()
}

/// Memoized bubble sort: the inner-pass comparison is a region keyed by
/// the swap outcome (the only data-dependent branch), the checksum loop
/// is a whole-loop region.
pub fn bubble_memo_run() -> i32 {
    let mut a = GArr::from_vec(bubble_input());
    let n = BUBBLE_N;
    let mut m = G::raw(0_i32);
    g_for!(i in 0..n => {
        m.assign(G::raw(n as i32) - G::raw(1) - G::raw(i as i32)); // m = N - 1 - i;
        g_for!(j in 0..(n - 1 - i) => {
            let _ = &m;
            let take = a.peek(j) > a.peek(j + 1);
            g_site!((take as u64) {
                // if (a[j] > a[j + 1]) { ... }
                let jp = G::raw(j) + G::raw(1);
                g_if!((a.at_raw(j) > a.at(jp)) {
                    let mut t = G::raw(0_i32);
                    t.assign(a.at_raw(j)); // t = a[j];
                    let jp2 = G::raw(j) + G::raw(1);
                    a.set_raw(j, a.at(jp2)); // a[j] = a[j + 1];
                    let jp3 = G::raw(j) + G::raw(1);
                    a.set(jp3, t); // a[j + 1] = t;
                });
            });
        });
    });
    let mut s = g_i32(0); // s = 0;
    g_loop!(i in 0..n => {
        // s = s + (i + 1) * a[i];
        let w = G::raw(i as i32) + G::raw(1);
        s.assign(s + w * a.at_raw(i));
    });
    s.get()
}

// ---------------------------------------------------------------- minic --

/// Quicksort `minic` source.
pub fn qsort_minic() -> String {
    format!(
        "int a[{n}] = {init};\n\
         int result;\n\
         int qsort(int p, int lo, int hi) {{\n\
           int pivot; int i; int j; int t;\n\
           if (lo >= hi) return 0;\n\
           pivot = p[hi];\n\
           i = lo - 1;\n\
           j = lo;\n\
           while (j < hi) {{\n\
             if (p[j] < pivot) {{\n\
               i = i + 1;\n\
               t = p[i]; p[i] = p[j]; p[j] = t;\n\
             }}\n\
             j = j + 1;\n\
           }}\n\
           t = p[i + 1]; p[i + 1] = p[hi]; p[hi] = t;\n\
           qsort(p, lo, i);\n\
           qsort(p, i + 2, hi);\n\
           return 0;\n\
         }}\n\
         int main() {{\n\
           int i; int s = 0;\n\
           qsort(a, 0, {n} - 1);\n\
           for (i = 0; i < {n}; i = i + 1) s = s + (i + 1) * a[i];\n\
           result = s;\n\
           return 0;\n\
         }}\n",
        n = QSORT_N,
        init = minic_initializer(&qsort_input()),
    )
}

/// Bubble-sort `minic` source.
pub fn bubble_minic() -> String {
    format!(
        "int a[{n}] = {init};\n\
         int result;\n\
         int main() {{\n\
           int i; int j; int t; int m; int s = 0;\n\
           for (i = 0; i < {n}; i = i + 1) {{\n\
             m = {n} - 1 - i;\n\
             for (j = 0; j < m; j = j + 1) {{\n\
               if (a[j] > a[j + 1]) {{\n\
                 t = a[j]; a[j] = a[j + 1]; a[j + 1] = t;\n\
               }}\n\
             }}\n\
           }}\n\
           for (i = 0; i < {n}; i = i + 1) s = s + (i + 1) * a[i];\n\
           result = s;\n\
           return 0;\n\
         }}\n",
        n = BUBBLE_N,
        init = minic_initializer(&bubble_input()),
    )
}

/// The Table 1 quicksort case.
pub fn qsort_case() -> crate::case::BenchCase {
    crate::case::BenchCase {
        name: "Quick sort",
        plain: qsort,
        annotated: qsort_annotated_run,
        minic: qsort_minic(),
    }
}

/// The Table 1 bubble-sort case.
pub fn bubble_case() -> crate::case::BenchCase {
    crate::case::BenchCase {
        name: "Bubble",
        plain: bubble,
        annotated: bubble_annotated_run,
        minic: bubble_minic(),
    }
}

#[cfg(test)]
mod tests {
    use scperf_core::MemoMode;

    use super::*;
    use crate::case::run_memoized;

    #[test]
    fn quicksort_forms_agree_and_sort() {
        let mut reference = qsort_input();
        reference.sort_unstable();
        let expect = weighted_checksum(&reference);
        assert_eq!(qsort(), expect);
        assert_eq!(qsort_annotated_run(), expect);
        let (iss, _) = qsort_case().run_iss();
        assert_eq!(iss, expect);
    }

    #[test]
    fn bubble_forms_agree_and_sort() {
        let mut reference = bubble_input();
        reference.sort_unstable();
        let expect = weighted_checksum(&reference);
        assert_eq!(bubble(), expect);
        assert_eq!(bubble_annotated_run(), expect);
        let (iss, _) = bubble_case().run_iss();
        assert_eq!(iss, expect);
    }

    /// The adversarial data-dependent case: outcome-keyed sites keep
    /// quicksort's value-dependent recursion bit-identical across live,
    /// replay and verify runs.
    #[test]
    fn memoized_quicksort_is_bit_identical() {
        let mut reference = qsort_input();
        reference.sort_unstable();
        let expect = weighted_checksum(&reference);

        let (live_v, live_r, live_h) = run_memoized(MemoMode::Off, qsort_memo_run);
        assert_eq!(live_v, expect);
        assert_eq!(live_h.site_hits, 0);

        // Off-mode memo form charges exactly what the annotated form
        // charges.
        let (ann_v, ann_r, _) = run_memoized(MemoMode::Off, qsort_annotated_run);
        assert_eq!(ann_v, expect);
        assert_eq!(ann_r, live_r);

        let (memo_v, memo_r, memo_h) = run_memoized(MemoMode::Replay, qsort_memo_run);
        assert_eq!(memo_v, expect);
        assert_eq!(memo_r, live_r, "replay diverged from live");
        assert!(memo_h.site_hits > memo_h.site_misses * 10, "mostly hits");

        let (ver_v, ver_r, _) = run_memoized(MemoMode::Verify, qsort_memo_run);
        assert_eq!(ver_v, expect);
        assert_eq!(ver_r, live_r, "verify diverged from live");
    }

    #[test]
    fn memoized_bubble_is_bit_identical() {
        let mut reference = bubble_input();
        reference.sort_unstable();
        let expect = weighted_checksum(&reference);

        let (live_v, live_r, _) = run_memoized(MemoMode::Off, bubble_memo_run);
        assert_eq!(live_v, expect);

        let (memo_v, memo_r, memo_h) = run_memoized(MemoMode::Replay, bubble_memo_run);
        assert_eq!(memo_v, expect);
        assert_eq!(memo_r, live_r, "replay diverged from live");
        // Comparison site (2 keys) + checksum loop (1 key): 3 misses.
        assert_eq!(memo_h.site_misses, 3);
        assert!(memo_h.site_hits > 0);

        let (ver_v, ver_r, _) = run_memoized(MemoMode::Verify, bubble_memo_run);
        assert_eq!(ver_v, expect);
        assert_eq!(ver_r, live_r, "verify diverged from live");
    }
}
