//! FIR filter benchmark (Table 1 row "FIR", Table 2 HW rows, Figure 4).
//!
//! A 64-tap direct-form FIR over 256 samples in Q12 fixed point:
//! `y[n] = (Σ_k h[k]·x[n+k]) >> 12`, checksum = Σ `y[n]` (wrapping).
//! Written once, generic over the value domain: [`run`]`::<Native>` is
//! the reference, [`run`]`::<Annotated>` charges its costs.

use scperf_core::{g_for, g_twin, Annotated, Domain, GArr, Native, G};

use crate::data::{minic_initializer, signed_values};

/// Number of filter taps.
pub const TAPS: usize = 64;
/// Number of output samples.
pub const SAMPLES: usize = 256;

/// Input samples (length `SAMPLES + TAPS`).
pub fn input_samples() -> Vec<i32> {
    signed_values(0xF1, SAMPLES + TAPS, 2048)
}

/// Q12 coefficients (length `TAPS`).
pub fn coefficients() -> Vec<i32> {
    signed_values(0xF2, TAPS, 1024)
}

/// The filter, mirroring the minic source statement by statement.
pub fn run<D: Domain>() -> i32 {
    let x = GArr::from_vec(input_samples());
    let h = GArr::from_vec(coefficients());
    let mut checksum = D::init(0_i32); // checksum = 0;

    // Every sample charges the same operations whatever `n` and the
    // data, so each is a twin region under one key: on sequential
    // resources with integer cost tables only a process's first sample
    // charges per-op; every later one replays the recorded program and
    // computes natively, and only the loop's own bookkeeping charges.
    g_for!(D; n in 0..SAMPLES => {
        // checksum = checksum + (acc >> 12);
        checksum.assign(checksum + g_twin!(D; (0) sample(&x, &h, n)));
    });
    checksum.get()
}

/// Output sample `n` before accumulation: `acc = 0;` the tap loop
/// `acc = acc + h[k] * x[n + k];`, then `acc >> 12`.
fn sample<D: Domain>(x: &GArr<i32>, h: &GArr<i32>, n: usize) -> G<i32, D> {
    let mut acc = D::init(0_i32); // acc = 0;
    g_for!(D; k in 0..TAPS => {
        // acc = acc + h[k] * x[n + k];
        let idx = D::raw(n) + D::raw(k);
        acc.assign(acc + h.at(D::raw(k)) * x.at(idx));
    });
    acc >> D::raw(12)
}

/// One output sample as a standalone annotated kernel: the hardware
/// segment of Tables 2/4 and Figure 4 (a FIR pipeline computes one output
/// per activation).
pub fn annotated_one_sample(n: usize) -> i32 {
    let x = GArr::from_vec(input_samples());
    let h = GArr::from_vec(coefficients());
    sample::<Annotated>(&x, &h, n).get()
}

/// `minic` source computing the same checksum into `result`.
pub fn minic() -> String {
    format!(
        "int x[{nx}] = {xs};\n\
         int h[{nh}] = {hs};\n\
         int result;\n\
         int main() {{\n\
           int n; int k; int acc; int checksum = 0;\n\
           for (n = 0; n < {samples}; n = n + 1) {{\n\
             acc = 0;\n\
             for (k = 0; k < {taps}; k = k + 1) {{\n\
               acc = acc + h[k] * x[n + k];\n\
             }}\n\
             checksum = checksum + (acc >> 12);\n\
           }}\n\
           result = checksum;\n\
           return 0;\n\
         }}\n",
        nx = SAMPLES + TAPS,
        nh = TAPS,
        xs = minic_initializer(&input_samples()),
        hs = minic_initializer(&coefficients()),
        samples = SAMPLES,
        taps = TAPS,
    )
}

/// The Table 1 case.
pub fn case() -> crate::case::BenchCase {
    crate::case::BenchCase {
        name: "FIR",
        plain: run::<Native>,
        annotated: run::<Annotated>,
        minic: minic(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_forms_agree() {
        let p = run::<Native>();
        assert_eq!(p, run::<Annotated>());
        let (iss, stats) = case().run_iss();
        assert_eq!(p, iss);
        assert!(stats.instructions > 10_000);
    }

    #[test]
    fn one_sample_matches_full_filter() {
        let x = input_samples();
        let h = coefficients();
        let mut acc = 0_i32;
        for k in 0..TAPS {
            acc = acc.wrapping_add(h[k].wrapping_mul(x[5 + k]));
        }
        assert_eq!(annotated_one_sample(5), acc >> 12);
    }
}
