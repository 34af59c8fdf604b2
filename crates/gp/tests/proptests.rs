//! Property-based tests of the Gaussian-process stack over random data.

use cmmf_gp::kernel::{DistanceCache, Matern52};
use cmmf_gp::{Gp, GpConfig, MultiTaskGp};
use linalg::{Cholesky, CholeskyWorkspace};
use proptest::prelude::*;

fn data_1d(n: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    proptest::collection::vec((0.0f64..1.0, -2.0f64..2.0), 4..=n).prop_map(|pairs| {
        let xs: Vec<Vec<f64>> = pairs.iter().map(|(x, _)| vec![*x]).collect();
        let ys: Vec<f64> = pairs.iter().map(|(_, y)| *y).collect();
        (xs, ys)
    })
}

/// An ARD kernel at the given natural-space parameters.
fn ard_with(lengthscales: &[f64], signal_var: f64) -> Matern52 {
    let mut k = Matern52::ard(lengthscales.len());
    let mut p: Vec<f64> = lengthscales.iter().map(|l| l.ln()).collect();
    p.push(signal_var.ln());
    k.set_log_params(&p);
    k
}

fn quick_cfg() -> GpConfig {
    GpConfig {
        restarts: 0,
        max_evals: 40,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn predictions_are_finite_with_nonnegative_variance((xs, ys) in data_1d(12), q in -0.5f64..1.5) {
        let gp = Gp::fit(Matern52::ard(1), &xs, &ys, &quick_cfg()).expect("fits");
        let p = gp.predict(&[q]).expect("predicts");
        prop_assert!(p.mean.is_finite());
        prop_assert!(p.var.is_finite() && p.var >= 0.0);
    }

    #[test]
    fn refit_equals_fit_with_same_hyperparams((xs, ys) in data_1d(10)) {
        let gp = Gp::fit(Matern52::ard(1), &xs, &ys, &quick_cfg()).expect("fits");
        let re = gp.refit(&xs, &ys).expect("refits");
        let a = gp.predict(&[0.3]).expect("predicts");
        let b = re.predict(&[0.3]).expect("predicts");
        prop_assert!((a.mean - b.mean).abs() < 1e-9);
        prop_assert!((a.var - b.var).abs() < 1e-9);
    }

    #[test]
    fn kernel_gram_is_symmetric_psd_on_diagonal(
        pts in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 3), 2..8),
        ls in proptest::collection::vec(0.05f64..5.0, 3),
        sv in 0.1f64..5.0,
    ) {
        let k = ard_with(&ls, sv);
        for a in &pts {
            for b in &pts {
                let kab = k.eval(a, b);
                let kba = k.eval(b, a);
                prop_assert!((kab - kba).abs() < 1e-12);
                // |k(a,b)| <= sqrt(k(a,a) k(b,b)) (Cauchy-Schwarz).
                let bound = (k.eval(a, a) * k.eval(b, b)).sqrt();
                prop_assert!(kab.abs() <= bound + 1e-9);
            }
        }
    }

    #[test]
    fn grouped_kernel_log_params_roundtrip(
        ls in proptest::collection::vec(-2.0f64..2.0, 3),
        sv in -2.0f64..2.0,
    ) {
        let mut k = Matern52::iso_plus_tail(4, 2);
        let mut p = ls.clone();
        p.push(sv);
        k.set_log_params(&p);
        let back = k.log_params();
        for (a, b) in p.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn cached_distance_nll_equals_naive_nll_bitwise(
        (pts, ls, ys, grouped) in (1usize..5, 0usize..9, 0usize..2).prop_flat_map(|(d, size, g)| {
            // Sizes whose n(n+1)/2 pairs end at every place in a block of 8.
            let n = [1, 2, 3, 4, 5, 8, 9, 16, 17][size];
            (
                proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, d), n),
                proptest::collection::vec(-1.5f64..1.5, d + 1),
                proptest::collection::vec(-2.0f64..2.0, n),
                Just(g == 1),
            )
        }),
        noise in 1e-6f64..1e-1,
    ) {
        // The tentpole contract at the NLL level: the upper triangle of the
        // Gram matrix assembled from the per-fit distance cache's blocks of
        // 8 pairs and from scratch must be the same floats entry for entry,
        // for ARD and for the multi-fidelity levels' grouped kernel at any
        // dimension and lengthscales applied to the *same* cache; and the
        // search's factor of it in a workspace, solved against `U`, must
        // give the NLL of a fresh factor of the full from-scratch matrix.
        let (d, n) = (pts[0].len(), pts.len());
        let mut k = match (grouped, d) {
            (false, _) => Matern52::ard(d),
            (true, 1) => Matern52::iso_plus_tail(1, 0),
            (true, _) => Matern52::iso_plus_tail(d - 1, 1),
        };
        let len = k.log_params().len();
        k.set_log_params(&ls[ls.len() - len..]);
        let cache = DistanceCache::new(&pts);
        let mut naive = linalg::Matrix::from_fn(n, n, |_, _| f64::NAN);
        k.gram_into(&pts, &mut naive);
        let mut cached = linalg::Matrix::from_fn(n, n, |_, _| f64::NAN);
        k.gram_from_cache(&cache, &mut cached);
        for j in 0..n {
            for i in j..n {
                let want = k.eval(&pts[j], &pts[i]).to_bits();
                prop_assert_eq!(naive[(j, i)].to_bits(), want);
                prop_assert_eq!(cached[(j, i)].to_bits(), want);
            }
        }
        let nll = |log_det: f64, alpha: &[f64]| -> f64 {
            let fit: f64 = ys.iter().zip(alpha).map(|(y, a)| y * a).sum();
            0.5 * fit + 0.5 * log_det + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
        };
        let mut full = linalg::Matrix::from_fn(n, n, |i, j| k.eval(&pts[i], &pts[j]));
        full.add_diag(noise);
        let fresh = Cholesky::new(&full).expect("factorizes");
        let want = nll(fresh.log_det(), &fresh.solve_vec(&ys).expect("solves"));
        let mut ws = CholeskyWorkspace::new(n);
        let upper = ws
            .factor(|u| {
                k.gram_from_cache(&cache, u);
                u.add_diag(noise);
            })
            .expect("factorizes");
        let mut alpha = vec![0.0; n];
        upper.solve_into(&ys, &mut alpha).expect("solves");
        prop_assert_eq!(nll(upper.log_det(), &alpha).to_bits(), want.to_bits());
    }

    #[test]
    fn multitask_marginals_match_task_count((xs, ys) in data_1d(10)) {
        let ym: Vec<Vec<f64>> = ys.iter().map(|y| vec![*y, -y]).collect();
        let gp = MultiTaskGp::fit(Matern52::ard(1), &xs, &ym, &quick_cfg()).expect("fits");
        let p = gp.predict(&[0.5]).expect("predicts");
        prop_assert_eq!(p.mean.len(), 2);
        prop_assert_eq!(p.cov.shape(), (2, 2));
        prop_assert!(p.vars().iter().all(|v| v.is_finite() && *v >= 0.0));
        // The learned correlation is a valid correlation coefficient. (That it
        // is *negative* for anti-correlated tasks is asserted by the unit
        // tests with a realistic fitting budget; the tiny budget used here can
        // land in a local optimum on degenerate random data.)
        let c = gp.task_correlation(0, 1);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
    }
}
