//! Property-based tests of the Gaussian-process stack over random data.

use cmmf_gp::kernel::{DistanceCache, Kernel, Matern52Ard, Matern52Grouped};
use cmmf_gp::{Gp, GpConfig, MultiTaskGp};
use linalg::Cholesky;
use proptest::prelude::*;

fn data_1d(n: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    proptest::collection::vec((0.0f64..1.0, -2.0f64..2.0), 4..=n).prop_map(|pairs| {
        let xs: Vec<Vec<f64>> = pairs.iter().map(|(x, _)| vec![*x]).collect();
        let ys: Vec<f64> = pairs.iter().map(|(_, y)| *y).collect();
        (xs, ys)
    })
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
        let gp = Gp::fit(Matern52Ard::new(1), &xs, &ys, &quick_cfg()).expect("fits");
        let p = gp.predict(&[q]).expect("predicts");
        prop_assert!(p.mean.is_finite());
        prop_assert!(p.var.is_finite() && p.var >= 0.0);
    }

    #[test]
    fn refit_equals_fit_with_same_hyperparams((xs, ys) in data_1d(10)) {
        let gp = Gp::fit(Matern52Ard::new(1), &xs, &ys, &quick_cfg()).expect("fits");
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
        let k = Matern52Ard::with_params(ls, sv);
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
        let mut k = Matern52Grouped::iso_plus_tail(4, 2);
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
        (pts, ls, ys) in (1usize..5).prop_flat_map(|d| (
            proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, d), 3..12),
            proptest::collection::vec(0.05f64..3.0, d),
            proptest::collection::vec(-2.0f64..2.0, 12),
        )),
        sv in 0.2f64..3.0,
        noise in 1e-6f64..1e-1,
    ) {
        // The tentpole contract at the NLL level: assembling the Gram matrix
        // from the per-fit distance cache and from scratch must produce the
        // same floats entry for entry — and therefore the same NLL — at any
        // dimension and any lengthscales applied to the *same* cache.
        let d = ls.len();
        let n = pts.len();
        let ys = &ys[..n];
        let cache = DistanceCache::new(&pts);
        let k = Matern52Ard::with_params(ls, sv);
        prop_assert_eq!(k.dim(), d);
        let mut naive = linalg::Matrix::zeros(n, n);
        k.gram_into(&pts, &mut naive);
        naive.add_diag(noise);
        let mut cached = linalg::Matrix::zeros(n, n);
        k.gram_from_cache(&cache, &mut cached);
        cached.add_diag(noise);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(naive[(i, j)].to_bits(), cached[(i, j)].to_bits());
            }
        }
        let nll = |km: &linalg::Matrix| -> f64 {
            let chol = Cholesky::new(km).expect("factorizes");
            let alpha = chol.solve_vec(ys).expect("solves");
            let fit: f64 = ys.iter().zip(&alpha).map(|(y, a)| y * a).sum();
            0.5 * fit + 0.5 * chol.log_det()
                + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
        };
        prop_assert_eq!(nll(&naive).to_bits(), nll(&cached).to_bits());
    }

    #[test]
    fn multitask_marginals_match_task_count((xs, ys) in data_1d(10)) {
        let ym: Vec<Vec<f64>> = ys.iter().map(|y| vec![*y, -y]).collect();
        let gp = MultiTaskGp::fit(Matern52Ard::new(1), &xs, &ym, &quick_cfg()).expect("fits");
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
