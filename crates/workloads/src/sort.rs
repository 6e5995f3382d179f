//! Sorting benchmarks: recursive quicksort (Table 1 row "Quick sort") and
//! bubble sort (Table 1 row "Bubble").
//!
//! Both sort the same deterministic data and use as checksum
//! `Σ (i+1)·a[i]` over the sorted array (wrapping), which is sensitive to
//! ordering mistakes. Each is written once, generic over the value domain,
//! with its straight-line stretches as [`g_twin!`] regions; the regions
//! are inert outside memoizing runs.

use scperf_core::{g_call, g_for, g_if, g_twin, g_while, Annotated, Domain, GArr, Native, G};

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

/// `s = 0; for (i = 0; i < n; i = i + 1) s = s + (i + 1) * a[i];`
fn weighted_checksum<D: Domain>(a: &GArr<i32>) -> G<i32, D> {
    let mut s = D::init(0_i32); // s = 0;
    g_for!(D; i in 0..a.len() => {
        // s = s + (i + 1) * a[i];
        let w = D::raw(i as i32) + D::raw(1);
        s.assign(s + w * a.at(D::raw(i)));
    });
    s
}

/// Mirrors the minic `qsort(int p, int lo, int hi)` statement by
/// statement — the adversarial case for cost-program keying: the
/// recursion's extent and the partition's swap pattern both depend on
/// element *values*, so no key derived from `(lo, hi)` is sound.
/// Instead every data-dependent branch is its own twin region keyed by
/// the branch outcome (computed uncharged via [`GArr::peek`]), and the
/// straight-line stretches between them are unkeyed regions; the charge
/// stream within each region is then fully determined by its key.
fn quicksort<D: Domain>(a: &mut GArr<i32>, lo: G<i32, D>, hi: G<i32, D>) {
    // if (lo >= hi) return 0;
    if g_twin!(D; ((lo.get() >= hi.get()) as u64) at_leaf(lo, hi)) {
        return;
    }
    let (pivot, mut i, mut j) = g_twin!(D; (0) start_partition(&*a, lo, hi));
    g_while!(D; (j < hi) {
        (i, j) = g_twin!(
            D; ((a.peek(j.get() as usize) < pivot.get()) as u64)
            partition_step(&mut *a, pivot, i, j)
        );
    });
    g_twin!(D; (0) place_pivot(&mut *a, i, hi));
    g_call!(D; quicksort(a, lo, i)); // qsort(p, lo, i);
    let hi2 = i + 2;
    g_call!(D; quicksort(a, hi2, hi)); // qsort(p, i + 2, hi);
}

/// `lo >= hi`, as the branch of `if (lo >= hi) return 0;`.
fn at_leaf<D: Domain>(lo: G<i32, D>, hi: G<i32, D>) -> bool {
    g_if!(D; (lo >= hi) { true } else { false })
}

/// `pivot = p[hi]; i = lo - 1; j = lo;`, returning `(pivot, i, j)`.
fn start_partition<D: Domain>(
    a: &GArr<i32>,
    lo: G<i32, D>,
    hi: G<i32, D>,
) -> (G<i32, D>, G<i32, D>, G<i32, D>) {
    let mut pivot = D::raw(0_i32);
    let mut i = D::raw(0_i32);
    let mut j = D::raw(0_i32);
    pivot.assign(a.at(D::raw(hi.get() as usize))); // pivot = p[hi];
    i.assign(lo - 1); // i = lo - 1;
    j.assign(lo); // j = lo;
    (pivot, i, j)
}

/// One partition step, returning the new `(i, j)`:
/// `if (p[j] < pivot) { i = i + 1; t = p[i]; p[i] = p[j]; p[j] = t; } j = j + 1;`
fn partition_step<D: Domain>(
    a: &mut GArr<i32>,
    pivot: G<i32, D>,
    mut i: G<i32, D>,
    mut j: G<i32, D>,
) -> (G<i32, D>, G<i32, D>) {
    g_if!(D; (a.at(D::raw(j.get() as usize)) < pivot) {
        i.assign(i + 1); // i = i + 1;
        let mut t = D::raw(0_i32);
        t.assign(a.at(D::raw(i.get() as usize))); // t = p[i];
        a.set_raw(i.get() as usize, a.at(D::raw(j.get() as usize))); // p[i] = p[j];
        a.set_raw(j.get() as usize, t); // p[j] = t;
    });
    j.assign(j + 1); // j = j + 1;
    (i, j)
}

/// `t = p[i + 1]; p[i + 1] = p[hi]; p[hi] = t;`
fn place_pivot<D: Domain>(a: &mut GArr<i32>, i: G<i32, D>, hi: G<i32, D>) {
    let mut t = D::raw(0_i32);
    t.assign(a.at((i + 1).cast_usize())); // t = p[i + 1];
    a.set((i + 1).cast_usize(), a.at(D::raw(hi.get() as usize))); // p[i + 1] = p[hi];
    a.set_raw(hi.get() as usize, t); // p[hi] = t;
}

/// Quicksort (Table 1 row "Quick sort"), mirroring the minic `main`.
pub fn qsort<D: Domain>() -> i32 {
    let mut a = GArr::from_vec(qsort_input());
    g_call!(D; quicksort(&mut a, D::init(0), D::init(QSORT_N as i32 - 1)));
    g_twin!(D; (0) weighted_checksum(&a)).get()
}

/// Bubble sort (Table 1 row "Bubble"; the minic form hoists the inner
/// bound: `m = N - 1 - i;`). The comparison is a twin region keyed by
/// the swap outcome, the only data-dependent branch.
pub fn bubble<D: Domain>() -> i32 {
    let mut a = GArr::from_vec(bubble_input());
    let n = BUBBLE_N;
    let mut m = D::raw(0_i32);
    g_for!(D; i in 0..n => {
        m.assign(D::raw(n as i32) - D::raw(1) - D::raw(i as i32)); // m = N - 1 - i;
        g_for!(D; j in 0..(n - 1 - i) => {
            let _ = &m;
            g_twin!(D; ((a.peek(j) > a.peek(j + 1)) as u64) compare_swap(&mut a, j));
        });
    });
    g_twin!(D; (0) weighted_checksum(&a)).get()
}

/// `if (a[j] > a[j + 1]) { t = a[j]; a[j] = a[j + 1]; a[j + 1] = t; }`
fn compare_swap<D: Domain>(a: &mut GArr<i32>, j: usize) {
    // One range check up front stands in for the five per-access ones
    // in the native instantiation; it charges nothing.
    assert!(j + 1 < a.len());
    let jp = D::raw(j) + D::raw(1);
    g_if!(D; (a.at(D::raw(j)) > a.at(jp)) {
        let mut t = D::raw(0_i32);
        t.assign(a.at(D::raw(j))); // t = a[j];
        let jp2 = D::raw(j) + D::raw(1);
        a.set_raw(j, a.at(jp2)); // a[j] = a[j + 1];
        let jp3 = D::raw(j) + D::raw(1);
        a.set(jp3, t); // a[j + 1] = t;
    });
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
        plain: qsort::<Native>,
        annotated: qsort::<Annotated>,
        minic: qsort_minic(),
    }
}

/// The Table 1 bubble-sort case.
pub fn bubble_case() -> crate::case::BenchCase {
    crate::case::BenchCase {
        name: "Bubble",
        plain: bubble::<Native>,
        annotated: bubble::<Annotated>,
        minic: bubble_minic(),
    }
}

#[cfg(test)]
mod tests {
    use scperf_core::MemoMode;

    use super::*;
    use crate::case::run_memoized;

    /// The checksum of `input` sorted by the standard library.
    fn sorted_checksum(mut input: Vec<i32>) -> i32 {
        input.sort_unstable();
        weighted_checksum::<Native>(&GArr::from_vec(input)).get()
    }

    #[test]
    fn quicksort_forms_agree_and_sort() {
        let expect = sorted_checksum(qsort_input());
        assert_eq!(qsort::<Native>(), expect);
        assert_eq!(qsort::<Annotated>(), expect);
        let (iss, _) = qsort_case().run_iss();
        assert_eq!(iss, expect);
    }

    #[test]
    fn bubble_forms_agree_and_sort() {
        let expect = sorted_checksum(bubble_input());
        assert_eq!(bubble::<Native>(), expect);
        assert_eq!(bubble::<Annotated>(), expect);
        let (iss, _) = bubble_case().run_iss();
        assert_eq!(iss, expect);
    }

    /// The adversarial data-dependent case: outcome-keyed sites keep
    /// quicksort's value-dependent recursion bit-identical across live,
    /// replay and verify runs.
    #[test]
    fn memoized_quicksort_is_bit_identical() {
        let expect = sorted_checksum(qsort_input());

        let (live_v, live_r, live_h) = run_memoized(MemoMode::Off, qsort::<Annotated>);
        assert_eq!(live_v, expect);
        assert_eq!(live_h.site_hits, 0);

        let (memo_v, memo_r, memo_h) = run_memoized(MemoMode::Replay, qsort::<Annotated>);
        assert_eq!(memo_v, expect);
        assert_eq!(memo_r, live_r, "replay diverged from live");
        assert!(memo_h.site_hits > memo_h.site_misses * 10, "mostly hits");

        let (ver_v, ver_r, _) = run_memoized(MemoMode::Verify, qsort::<Annotated>);
        assert_eq!(ver_v, expect);
        assert_eq!(ver_r, live_r, "verify diverged from live");
    }

    #[test]
    fn memoized_bubble_is_bit_identical() {
        let expect = sorted_checksum(bubble_input());

        let (live_v, live_r, _) = run_memoized(MemoMode::Off, bubble::<Annotated>);
        assert_eq!(live_v, expect);

        let (memo_v, memo_r, memo_h) = run_memoized(MemoMode::Replay, bubble::<Annotated>);
        assert_eq!(memo_v, expect);
        assert_eq!(memo_r, live_r, "replay diverged from live");
        // Comparison region (2 keys) + checksum loop (1 key): 3 misses.
        assert_eq!(memo_h.site_misses, 3);
        assert!(memo_h.site_hits > 0);

        let (ver_v, ver_r, _) = run_memoized(MemoMode::Verify, bubble::<Annotated>);
        assert_eq!(ver_v, expect);
        assert_eq!(ver_r, live_r, "verify diverged from live");
    }
}
