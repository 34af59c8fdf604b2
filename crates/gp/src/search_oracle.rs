//! The likelihood searches against a from-scratch oracle: the full
//! covariance assembled entry by entry (Eq. 9's through a Kronecker
//! product), a fresh [`Cholesky::new`] and [`Cholesky::solve_vec`]. Every
//! evaluation of a search start must return exactly the oracle's bits —
//! through duplicate inputs that escalate the jitter, covariances no jitter
//! can factor, and starts reused across all of them.

use crate::gp::{self, NOISE_FLOOR};
use crate::kernel::{DistanceCache, Matern52};
use crate::multitask;
use linalg::{Cholesky, Matrix};
use proptest::prelude::*;

/// `½ yᵀα + ½ log|A| + ½ n log 2π` from a fresh factor of `a`, or `+∞`
/// (NaN, which equals nothing, if the lengths disagree).
fn oracle_nll(a: &Matrix, y: &[f64]) -> f64 {
    let Ok(chol) = Cholesky::new(a) else {
        return f64::INFINITY;
    };
    let Ok(alpha) = chol.solve_vec(y) else {
        return f64::NAN;
    };
    let fit: f64 = y.iter().zip(&alpha).map(|(y, a)| y * a).sum();
    0.5 * fit + 0.5 * chol.log_det() + 0.5 * y.len() as f64 * (2.0 * std::f64::consts::PI).ln()
}

/// The full Gram matrix, every entry evaluated.
fn full_gram(k: &Matern52, xs: &[Vec<f64>]) -> Matrix {
    Matrix::from_fn(xs.len(), xs.len(), |i, j| k.eval(&xs[i], &xs[j]))
}

/// The single-output oracle at `p = [kernel log params | log noise]`.
fn gp_oracle(kernel: &Matern52, xs: &[Vec<f64>], y: &[f64], p: &[f64]) -> f64 {
    let mut k = kernel.clone();
    k.set_log_params(&p[..p.len() - 1]);
    let mut km = full_gram(&k, xs);
    km.add_diag(p[p.len() - 1].exp().max(NOISE_FLOOR));
    oracle_nll(&km, y)
}

/// `self ⊗ rhs`: zero entries of `a` leave their block zero, every other
/// entry is the single product `a[(i, j)]·b[(p, q)]`.
fn kron(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows() * b.rows(), a.cols() * b.cols());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            let x = a[(i, j)];
            if x == 0.0 {
                continue;
            }
            for p in 0..b.rows() {
                for q in 0..b.cols() {
                    out[(i * b.rows() + p, j * b.cols() + q)] = x * b[(p, q)];
                }
            }
        }
    }
    out
}

/// The multi-task oracle at `p = [kernel log params | L lower triangle |
/// log noises]`: `B = L Lᵀ` by [`Matrix::matmul`], `k_C ⊗ B` by [`kron`],
/// then the noises on the diagonal.
fn multitask_oracle(kernel: &Matern52, xs: &[Vec<f64>], y: &[f64], m: usize, p: &[f64]) -> f64 {
    let n_kp = kernel.log_params().len();
    let n_l = m * (m + 1) / 2;
    let mut k = kernel.clone();
    k.set_log_params(&p[..n_kp]);
    let mut l = Matrix::zeros(m, m);
    let mut idx = n_kp;
    for t in 0..m {
        for u in 0..=t {
            l[(t, u)] = if t == u { p[idx].exp() } else { p[idx] };
            idx += 1;
        }
    }
    let Ok(b) = l.matmul(&l.transpose()) else {
        return f64::NAN;
    };
    let mut sigma = kron(&full_gram(&k, xs), &b);
    for i in 0..xs.len() {
        for t in 0..m {
            sigma[(i * m + t, i * m + t)] += p[n_kp + n_l + t].exp().max(NOISE_FLOOR);
        }
    }
    oracle_nll(&sigma, y)
}

/// `ard(d)`, or the multi-fidelity layout: the first `d − 1` dimensions in
/// one group and the last in its own (one group when `d = 1`).
fn kernel_of(d: usize, grouped: bool) -> Matern52 {
    match (grouped, d) {
        (false, _) => Matern52::ard(d),
        (true, 1) => Matern52::iso_plus_tail(1, 0),
        (true, _) => Matern52::iso_plus_tail(d - 1, 1),
    }
}

/// Inputs on a coarse grid, so duplicates are common.
fn grid_inputs(cells: &[u8], d: usize) -> Vec<Vec<f64>> {
    cells
        .chunks(d)
        .map(|c| c.iter().map(|&v| f64::from(v) / 3.0).collect())
        .collect()
}

/// Parameter vectors of length `len` for one start: the random ones, then
/// four the search also meets — noises below the floor, a signal variance
/// that overflows (no jitter factors it), a huge signal variance over
/// floored noises (the duplicate inputs then escalate the jitter), and the
/// random first vector again after all of them.
fn param_runs(raw: &[f64], len: usize, log_sv: usize, first_noise: usize) -> Vec<Vec<f64>> {
    let mut runs: Vec<Vec<f64>> = raw.chunks_exact(len).map(<[f64]>::to_vec).collect();
    let mut floored = runs[0].clone();
    for v in &mut floored[first_noise..] {
        *v = -40.0;
    }
    let mut overflow = runs[0].clone();
    overflow[log_sv] = 800.0;
    let mut jitter = floored.clone();
    jitter[log_sv] = 30.0;
    let again = runs[0].clone();
    runs.extend([floored, overflow, jitter, again]);
    runs
}

fn bits(v: f64) -> u64 {
    v.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gp_search_objective_equals_oracle_nll_bitwise(
        ((d, grouped), cells, y, raw) in (1usize..=3, 0usize..2, 2usize..=40).prop_flat_map(|(d, g, n)| {
            let len = kernel_of(d, g == 1).log_params().len() + 1;
            (
                Just((d, g == 1)),
                proptest::collection::vec(0u8..4, n * d),
                proptest::collection::vec(-2.0f64..2.0, n),
                proptest::collection::vec(-3.0f64..3.0, 4 * len),
            )
        }),
    ) {
        let kernel = kernel_of(d, grouped);
        let xs = grid_inputs(&cells, d);
        let cache = DistanceCache::new(&xs);
        let mut start = gp::SearchObjective::new(&kernel, &cache, &y);
        let len = kernel.log_params().len() + 1;
        for p in param_runs(&raw, len, len - 2, len - 1) {
            let want = gp_oracle(&kernel, &xs, &y, &p);
            prop_assert_eq!(bits(start.nll(&p)), bits(want));
        }
    }

    #[test]
    fn multitask_search_objective_equals_oracle_nll_bitwise(
        ((d, grouped, m), cells, y, raw) in (1usize..=3, 0usize..2, 1usize..=3, 2usize..=24)
            .prop_flat_map(|(d, g, m, n)| {
                let len = kernel_of(d, g == 1).log_params().len() + m * (m + 1) / 2 + m;
                (
                    Just((d, g == 1, m)),
                    proptest::collection::vec(0u8..4, n * d),
                    proptest::collection::vec(-2.0f64..2.0, n * m),
                    proptest::collection::vec(-3.0f64..3.0, 4 * len),
                )
            }),
    ) {
        let kernel = kernel_of(d, grouped);
        let xs = grid_inputs(&cells, d);
        let cache = DistanceCache::new(&xs);
        let mut start = multitask::SearchObjective::new(&kernel, &cache, &y, m);
        let n_kp = kernel.log_params().len();
        let len = n_kp + m * (m + 1) / 2 + m;
        for p in param_runs(&raw, len, n_kp - 1, len - m) {
            let want = multitask_oracle(&kernel, &xs, &y, m, &p);
            prop_assert_eq!(bits(start.nll(&p)), bits(want));
        }
    }
}

#[test]
fn oracle_cases_reach_the_jitter_and_the_failure() {
    // Duplicate inputs under a huge signal variance and a floored noise
    // need jitter; an overflowing signal variance fails at every jitter.
    // Both paths must come out of a reused start with the oracle's bits.
    let xs = grid_inputs(&[0, 1, 1, 2, 2, 2, 3, 0], 1);
    let y: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
    let kernel = Matern52::ard(1);
    let mut huge = kernel.clone();
    huge.set_log_params(&[0.1, 30.0]);
    let mut km = full_gram(&huge, &xs);
    km.add_diag(NOISE_FLOOR);
    let jittered = Cholesky::new(&km).expect("jitter rescues it");
    assert!(jittered.jitter() > 0.0);
    let cache = DistanceCache::new(&xs);
    let mut start = gp::SearchObjective::new(&kernel, &cache, &y);
    for p in [[0.1, 30.0, -40.0], [0.1, 800.0, -3.0], [0.1, 0.2, -3.0]] {
        let want = gp_oracle(&kernel, &xs, &y, &p);
        assert_eq!(start.nll(&p).to_bits(), want.to_bits(), "{p:?}");
    }
    assert_eq!(start.nll(&[0.1, 800.0, -3.0]), f64::INFINITY);
    assert!(start.nll(&[0.1, 30.0, -40.0]).is_finite());
}
