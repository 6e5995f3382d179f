//! Array-operations benchmark (Table 1 row "Array"): three element-wise
//! vector kernels plus a reduction over 256-element vectors.

use scperf_core::{g_for, Annotated, Domain, GArr, Native};

use crate::data::{minic_initializer, signed_values};

/// Vector length.
pub const N: usize = 256;

/// First operand vector.
pub fn vec_a() -> Vec<i32> {
    signed_values(0xA1, N, 4096)
}

/// Second operand vector.
pub fn vec_b() -> Vec<i32> {
    signed_values(0xA2, N, 4096)
}

/// The kernels, mirroring the minic source statement by statement.
pub fn run<D: Domain>() -> i32 {
    let a = GArr::from_vec(vec_a());
    let b = GArr::from_vec(vec_b());
    let mut c = GArr::<i32>::zeroed(N);
    let mut d = GArr::<i32>::zeroed(N);
    g_for!(D; i in 0..N => {
        // c[i] = (a[i] * b[i]) >> 6;
        c.set_raw(i, (a.at(D::raw(i)) * b.at(D::raw(i))) >> D::raw(6));
    });
    g_for!(D; i in 0..N => {
        // d[i] = c[i] + a[i] - b[i];
        d.set_raw(i, c.at(D::raw(i)) + a.at(D::raw(i)) - b.at(D::raw(i)));
    });
    let mut s = D::init(0_i32); // s = 0;
    g_for!(D; i in 0..N => {
        // s = s + (d[i] ^ (c[i] & b[i]));
        s.assign(s + (d.at(D::raw(i)) ^ (c.at(D::raw(i)) & b.at(D::raw(i)))));
    });
    s.get()
}

/// `minic` source.
pub fn minic() -> String {
    format!(
        "int a[{n}] = {ia};\n\
         int b[{n}] = {ib};\n\
         int c[{n}];\n\
         int d[{n}];\n\
         int result;\n\
         int main() {{\n\
           int i; int s = 0;\n\
           for (i = 0; i < {n}; i = i + 1) c[i] = (a[i] * b[i]) >> 6;\n\
           for (i = 0; i < {n}; i = i + 1) d[i] = c[i] + a[i] - b[i];\n\
           for (i = 0; i < {n}; i = i + 1) s = s + (d[i] ^ (c[i] & b[i]));\n\
           result = s;\n\
           return 0;\n\
         }}\n",
        n = N,
        ia = minic_initializer(&vec_a()),
        ib = minic_initializer(&vec_b()),
    )
}

/// The Table 1 case.
pub fn case() -> crate::case::BenchCase {
    crate::case::BenchCase {
        name: "Array",
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
        let (iss, _) = case().run_iss();
        assert_eq!(p, iss);
    }
}
