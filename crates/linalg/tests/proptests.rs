//! Property-based tests of the linear-algebra substrate.

use cmmf_linalg::{Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy: a random matrix with entries in [-3, 3].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f64..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("sized correctly"))
}

/// Strategy: a random symmetric positive-definite matrix `B Bᵀ + εI`.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n, n).prop_map(move |b| {
        let mut a = b.matmul(&b.transpose()).expect("square product");
        a.add_diag(0.5);
        a
    })
}

proptest! {
    #[test]
    fn cholesky_blocked_equals_scalar_at_every_panel_width(a in spd(10), panel in 2usize..12) {
        // The blocked right-looking factorization applies the scalar
        // recurrence's exact subtraction chains, so every panel width —
        // dividing n, not dividing n, exceeding n — must reproduce the
        // scalar factor bit for bit, jitter decision included.
        let scalar = Cholesky::new_with_panel(&a, 1).expect("SPD factorizes");
        let blocked = Cholesky::new_with_panel(&a, panel).expect("SPD factorizes");
        prop_assert_eq!(blocked.jitter().to_bits(), scalar.jitter().to_bits());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                prop_assert_eq!(blocked.l()[(i, j)].to_bits(), scalar.l()[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn batched_solves_match_per_column_bitwise(a in spd(6), b in matrix(6, 3)) {
        // The column-blocked forward substitution is a pure loop-interchange
        // of the per-column one — identical operations, identical order — so
        // they must agree bit for bit.
        let chol = Cholesky::new(&a).expect("SPD factorizes");
        let lower = chol.solve_lower_mat(&b).expect("solves");
        for j in 0..b.cols() {
            let col: Vec<f64> = (0..b.rows()).map(|i| b[(i, j)]).collect();
            let y = chol.solve_lower(&col).expect("solves");
            for i in 0..b.rows() {
                prop_assert_eq!(lower[(i, j)].to_bits(), y[i].to_bits());
            }
        }
    }

    #[test]
    fn cholesky_reconstructs(a in spd(5)) {
        let c = Cholesky::new(&a).expect("SPD factorizes");
        let r = c.l().matmul(&c.l().transpose()).expect("square product");
        prop_assert!(a.max_abs_diff(&r).expect("same shape") < 1e-8 * (1.0 + a.max_abs()));
    }

    #[test]
    fn cholesky_solve_is_inverse_application(a in spd(4), b in proptest::collection::vec(-5.0f64..5.0, 4)) {
        let c = Cholesky::new(&a).expect("SPD factorizes");
        let x = c.solve_vec(&b).expect("solve succeeds");
        let back = a.mul_vec(&x).expect("shapes match");
        for (bi, bb) in b.iter().zip(&back) {
            prop_assert!((bi - bb).abs() < 1e-6 * (1.0 + bi.abs()));
        }
    }

    #[test]
    fn log_det_is_finite_and_consistent_with_scaling(a in spd(3)) {
        let c = Cholesky::new(&a).expect("SPD factorizes");
        let scaled = a.scale(2.0);
        let c2 = Cholesky::new(&scaled).expect("scaled SPD factorizes");
        // det(2A) = 2^n det(A) -> log gap = n ln 2.
        prop_assert!((c2.log_det() - c.log_det() - 3.0 * (2.0f64).ln()).abs() < 1e-8);
    }

    #[test]
    fn matmul_distributes_over_add(a in matrix(3, 4), b in matrix(4, 2), c in matrix(4, 2)) {
        let lhs = a.matmul(&b.add(&c).expect("same shape")).expect("shapes match");
        let rhs = a
            .matmul(&b)
            .expect("shapes match")
            .add(&a.matmul(&c).expect("shapes match"))
            .expect("same shape");
        prop_assert!(lhs.max_abs_diff(&rhs).expect("same shape") < 1e-9);
    }

    #[test]
    fn transpose_reverses_matmul(a in matrix(3, 4), b in matrix(4, 2)) {
        let lhs = a.matmul(&b).expect("shapes match").transpose();
        let rhs = b.transpose().matmul(&a.transpose()).expect("shapes match");
        prop_assert!(lhs.max_abs_diff(&rhs).expect("same shape") < 1e-9);
    }

    #[test]
    fn kron_dimensions_and_scale(a in matrix(2, 3), b in matrix(3, 2)) {
        let k = a.kron(&b);
        prop_assert_eq!(k.shape(), (6, 6));
        prop_assert!((k[(0, 0)] - a[(0, 0)] * b[(0, 0)]).abs() < 1e-12);
    }

    #[test]
    fn norm_cdf_is_monotone(x in -6.0f64..6.0, dx in 0.0f64..3.0) {
        let a = cmmf_linalg::stats::norm_cdf(x);
        let b = cmmf_linalg::stats::norm_cdf(x + dx);
        prop_assert!(b + 1e-12 >= a);
        prop_assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn quantile_roundtrip(p in 0.001f64..0.999) {
        let x = cmmf_linalg::stats::norm_quantile(p);
        prop_assert!((cmmf_linalg::stats::norm_cdf(x) - p).abs() < 1e-6);
    }
}
