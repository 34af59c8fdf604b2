//! Property-based tests of the linear-algebra substrate.

use cmmf_linalg::{Cholesky, LinalgError, Matrix};
use proptest::prelude::*;

/// The scalar `i-j-k` recurrence under the same jitter escalation as
/// [`Cholesky::new`]: the reference ordering every factorization must equal
/// bit for bit. `Ok((L, jitter))`, or `Err(max_jitter)` when even the largest
/// jitter leaves a pivot that is not positive and finite.
fn scalar_oracle(a: &Matrix) -> Result<(Matrix, f64), f64> {
    let n = a.rows();
    let mean_diag = (0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64;
    let base = if mean_diag > 0.0 { mean_diag } else { 1.0 };
    let mut jitter = 0.0;
    let mut scale = 1e-10;
    loop {
        if let Some(l) = scalar_attempt(a, jitter) {
            return Ok((l, jitter));
        }
        if scale > 1e-4 {
            return Err(jitter);
        }
        jitter = base * scale;
        scale *= 100.0;
    }
}

fn scalar_attempt(a: &Matrix, jitter: f64) -> Option<Matrix> {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            if i == j {
                s += jitter;
            }
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if s <= 0.0 || !s.is_finite() {
                    return None;
                }
                l[(i, j)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Some(l)
}

/// `Ok(())` when [`Cholesky::new`] and the oracle agree to the last bit:
/// the same factor and jitter, or the same failure at the same jitter.
fn matches_oracle(a: &Matrix) -> Result<(), String> {
    match (Cholesky::new(a), scalar_oracle(a)) {
        (Ok(c), Ok((l, jitter))) => {
            if c.jitter().to_bits() != jitter.to_bits() {
                return Err(format!("jitter {} vs {jitter}", c.jitter()));
            }
            let diff = c
                .l()
                .as_slice()
                .iter()
                .zip(l.as_slice())
                .position(|(x, y)| x.to_bits() != y.to_bits());
            match diff {
                None => Ok(()),
                Some(idx) => Err(format!("entry {idx} differs")),
            }
        }
        (Err(LinalgError::NotPositiveDefinite { max_jitter }), Err(jitter))
            if max_jitter.to_bits() == jitter.to_bits() =>
        {
            Ok(())
        }
        (got, want) => Err(format!("{got:?} vs oracle {want:?}")),
    }
}

/// The three kinds of input the oracle tests cover, `n × n` from `v`
/// (`n·n` entries in [-3, 3]): positive definite, rank-deficient (rank
/// `max(n/4, 1)`, so the jitter escalates), and indefinite (one diagonal
/// entry far below zero, so every jitter fails).
fn oracle_input(kind: usize, n: usize, v: &[f64]) -> Matrix {
    let rank = if kind == 1 { usize::max(n / 4, 1) } else { n };
    let b = Matrix::from_fn(n, rank, |i, j| v[i * n + j]);
    let mut a = b.matmul(&b.transpose()).expect("square product");
    match kind {
        0 => a.add_diag(0.5),
        2 => a[(n / 2, n / 2)] = -1e3 * (1.0 + a[(n / 2, n / 2)]),
        _ => {}
    }
    a
}

#[test]
fn cholesky_matches_scalar_oracle_at_the_panel_edges() {
    // The panel is 32 columns wide: one panel up to 32, a trailing block from
    // 33, two full panels at 64, and a narrow last panel after each edge.
    for n in [1, 2, 3, 4, 5, 31, 32, 33, 63, 64, 65, 96, 97, 200] {
        let v: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        for kind in 0..3 {
            let a = oracle_input(kind, n, &v);
            if let Err(msg) = matches_oracle(&a) {
                panic!("n={n} kind={kind}: {msg}");
            }
        }
    }
    // The rank-deficient input escalates the jitter and the indefinite one
    // fails at the maximum: both sides of the escalation are exercised.
    let v: Vec<f64> = (0..40 * 40).map(|i| (i as f64 * 0.9).cos()).collect();
    assert!(Cholesky::new(&oracle_input(1, 40, &v)).unwrap().jitter() > 0.0);
    assert!(matches!(
        Cholesky::new(&oracle_input(2, 40, &v)),
        Err(LinalgError::NotPositiveDefinite { .. })
    ));
}

/// Strategy: a random matrix with entries in [-3, 3].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f64..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_fn(rows, cols, |i, j| v[i * cols + j]))
}

/// `max_{ij} |a - b|` of two same-shape matrices.
fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
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
    fn cholesky_equals_scalar_recurrence_bitwise(
        (kind, n, v) in (0usize..3, 1usize..=200).prop_flat_map(|(kind, n)| (
            Just(kind),
            Just(n),
            proptest::collection::vec(-3.0f64..3.0, n * n),
        )),
    ) {
        // One blocked routine factors every matrix; its factor, jitter and
        // failure must be the scalar recurrence's at every size across the
        // 32- and 64-column panel edges, for positive-definite,
        // rank-deficient (jitter escalates) and indefinite (fails at the
        // maximum jitter) inputs alike.
        let a = oracle_input(kind, n, &v);
        let outcome = matches_oracle(&a);
        prop_assert!(outcome.is_ok(), "n={} kind={}: {:?}", n, kind, outcome);
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
        let max_abs = a.as_slice().iter().fold(0.0_f64, |m, x| m.max(x.abs()));
        prop_assert!(max_abs_diff(&a, &r) < 1e-8 * (1.0 + max_abs));
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
        let scaled = Matrix::from_fn(3, 3, |i, j| 2.0 * a[(i, j)]);
        let c2 = Cholesky::new(&scaled).expect("scaled SPD factorizes");
        // det(2A) = 2^n det(A) -> log gap = n ln 2.
        prop_assert!((c2.log_det() - c.log_det() - 3.0 * (2.0f64).ln()).abs() < 1e-8);
    }

    #[test]
    fn matmul_distributes_over_add(a in matrix(3, 4), b in matrix(4, 2), c in matrix(4, 2)) {
        let b_plus_c = Matrix::from_fn(4, 2, |i, j| b[(i, j)] + c[(i, j)]);
        let lhs = a.matmul(&b_plus_c).expect("shapes match");
        let ab = a.matmul(&b).expect("shapes match");
        let ac = a.matmul(&c).expect("shapes match");
        let rhs = Matrix::from_fn(3, 2, |i, j| ab[(i, j)] + ac[(i, j)]);
        prop_assert!(max_abs_diff(&lhs, &rhs) < 1e-9);
    }

    #[test]
    fn transpose_reverses_matmul(a in matrix(3, 4), b in matrix(4, 2)) {
        let lhs = a.matmul(&b).expect("shapes match").transpose();
        let rhs = b.transpose().matmul(&a.transpose()).expect("shapes match");
        prop_assert!(max_abs_diff(&lhs, &rhs) < 1e-9);
    }

    #[test]
    fn norm_cdf_is_monotone(x in -6.0f64..6.0, dx in 0.0f64..3.0) {
        let a = cmmf_linalg::stats::norm_cdf(x);
        let b = cmmf_linalg::stats::norm_cdf(x + dx);
        prop_assert!(b + 1e-12 >= a);
        prop_assert!((0.0..=1.0).contains(&a));
    }
}
