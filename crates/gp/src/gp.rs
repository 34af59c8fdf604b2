use crate::hyperopt::FitStats;
use crate::kernel::{DistanceCache, Kernel};
use crate::optimize::{multi_start_nelder_mead_par, NelderMeadOptions};
use crate::GpError;
use linalg::{Cholesky, Matrix};

/// Posterior mean and (latent) variance at a query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Posterior mean in the original output units.
    pub mean: f64,
    /// Posterior variance of the latent function (observation noise excluded),
    /// in squared original output units. Clamped to be non-negative.
    pub var: f64,
}

impl Prediction {
    /// Posterior standard deviation.
    pub fn std(&self) -> f64 {
        self.var.sqrt()
    }
}

/// Configuration for [`Gp::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpConfig {
    /// Whether to optimize hyperparameters by maximizing the marginal
    /// likelihood. When `false`, the kernel is used as supplied and only the
    /// noise floor is applied.
    pub optimize: bool,
    /// Number of random restarts of the Nelder–Mead search (in addition to the
    /// run from the supplied kernel's parameters).
    pub restarts: usize,
    /// Maximum objective evaluations per Nelder–Mead run.
    pub max_evals: usize,
    /// Initial observation-noise variance (standardized-output units).
    pub init_noise_var: f64,
    /// Lower bound on the observation-noise variance.
    pub noise_floor: f64,
    /// Seed for the restart sampler.
    pub seed: u64,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            optimize: true,
            restarts: 2,
            max_evals: 250,
            init_noise_var: 1e-2,
            noise_floor: 1e-8,
            seed: 0xC0FFEE,
        }
    }
}

/// Exact Gaussian-process regression with a constant mean and maximum-likelihood
/// hyperparameters (Sec. II-A of the paper).
///
/// Outputs are standardized internally; predictions are returned in the original
/// units. See the crate-level example for typical use.
#[derive(Debug, Clone)]
pub struct Gp<K: Kernel> {
    kernel: K,
    xs: Vec<Vec<f64>>,
    /// Cached noised covariance `K + σ²I` (pre-jitter) so [`Gp::extend`] can
    /// grow it with only the new cross-covariance rows.
    km: Matrix,
    chol: Cholesky,
    alpha: Vec<f64>,
    noise_var: f64,
    y_mean: f64,
    y_scale: f64,
    nlml: f64,
    /// Telemetry of this model's own hyperparameter search (zeroed on fits
    /// that ran no search).
    stats: FitStats,
}

impl<K: Kernel + Clone> Gp<K> {
    /// Fits a GP to `(xs, ys)`, optionally optimizing the kernel hyperparameters
    /// and noise by maximum likelihood (multi-start Nelder–Mead in log space).
    ///
    /// The search runs over cached per-dimension squared-difference tensors
    /// ([`DistanceCache`]) when the kernel supports them — each NLL
    /// evaluation then combines the cached tensors with the current inverse
    /// squared lengthscales instead of re-deriving every pairwise distance,
    /// bit-identical to from-scratch assembly — and the multi-start restarts
    /// run in parallel with per-restart derived seeds, bit-identical at any
    /// thread count (see [`multi_start_nelder_mead_par`]).
    ///
    /// # Errors
    ///
    /// * [`GpError::InvalidTrainingData`] if `xs` is empty, `xs.len() != ys.len()`,
    ///   any row's dimension differs from `kernel.dim()`, or any value is
    ///   non-finite.
    /// * [`GpError::Numerical`] if the covariance cannot be factorized at the
    ///   optimum (rare; jitter is escalated automatically first).
    pub fn fit(kernel: K, xs: &[Vec<f64>], ys: &[f64], cfg: &GpConfig) -> Result<Self, GpError> {
        validate(xs, ys, kernel.dim())?;
        let (y_std, y_mean, y_scale) = standardize(ys);

        let mut kernel = kernel;
        let mut noise_var = cfg.init_noise_var.max(cfg.noise_floor);
        let mut stats = FitStats::default();

        if cfg.optimize {
            let mut p0 = kernel.log_params();
            p0.push(noise_var.ln());
            let base_kernel = kernel.clone();
            let floor = cfg.noise_floor;
            let cache = kernel
                .supports_distance_cache()
                .then(|| DistanceCache::new(xs));
            let objective = |p: &[f64]| {
                let mut k = base_kernel.clone();
                k.set_log_params(&p[..p.len() - 1]);
                let nv = p[p.len() - 1].exp().max(floor);
                nll_eval(&k, xs, cache.as_ref(), &y_std, nv).unwrap_or(f64::INFINITY)
            };
            let opts = NelderMeadOptions {
                max_evals: cfg.max_evals,
                ..Default::default()
            };
            let best =
                multi_start_nelder_mead_par(objective, &p0, 1.5, cfg.restarts, &opts, cfg.seed);
            stats = FitStats {
                nll_evals: best.evals,
                restarts_run: cfg.restarts,
            };
            if best.value.is_finite() {
                kernel.set_log_params(&best.x[..best.x.len() - 1]);
                noise_var = best.x[best.x.len() - 1].exp().max(floor);
            }
        }

        let (km, chol, alpha, nlml_val) = factorize(&kernel, xs, &y_std, noise_var)?;
        Ok(Gp {
            kernel,
            xs: xs.to_vec(),
            km,
            chol,
            alpha,
            noise_var,
            y_mean,
            y_scale,
            nlml: nlml_val,
            stats,
        })
    }

    /// Refits on new data **reusing this model's hyperparameters** (no
    /// marginal-likelihood optimization). This is the cheap per-iteration
    /// update of a Bayesian-optimization loop; re-run [`Gp::fit`] periodically
    /// to re-tune hyperparameters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gp::fit`].
    pub fn refit(&self, xs: &[Vec<f64>], ys: &[f64]) -> Result<Self, GpError> {
        validate(xs, ys, self.kernel.dim())?;
        let (y_std, y_mean, y_scale) = standardize(ys);
        let (km, chol, alpha, nlml_val) = factorize(&self.kernel, xs, &y_std, self.noise_var)?;
        Ok(Gp {
            kernel: self.kernel.clone(),
            xs: xs.to_vec(),
            km,
            chol,
            alpha,
            noise_var: self.noise_var,
            y_mean,
            y_scale,
            nlml: nlml_val,
            stats: FitStats::default(),
        })
    }

    /// Refits on grown data by **extending the cached covariance factor**
    /// instead of refactorizing. When `xs` starts with this model's training
    /// inputs (the kernel matrix only gains rows, since hyperparameters are
    /// reused), only the `k` new cross-covariance rows are evaluated and the
    /// Cholesky factor is extended in `O(n²·k)` via [`Cholesky::extend`]; the
    /// y-dependent quantities — output standardization and `α = K⁻¹y` — are
    /// recomputed from scratch, which is cheap (`O(n²)`), so `ys` may change
    /// arbitrarily (e.g. a shifting normalization window in a BO loop).
    ///
    /// The result is **bit-identical** to [`Gp::refit`] on the same data.
    /// When the prefix precondition does not hold (points removed, reordered,
    /// or perturbed) it silently falls back to a full refit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gp::fit`].
    pub fn extend(&self, xs: &[Vec<f64>], ys: &[f64]) -> Result<Self, GpError> {
        let n0 = self.xs.len();
        if xs.len() < n0 || xs[..n0] != self.xs[..] {
            return self.refit(xs, ys);
        }
        validate(xs, ys, self.kernel.dim())?;
        let (y_std, y_mean, y_scale) = standardize(ys);
        let n = xs.len();
        let mut km = Matrix::zeros(n, n);
        for i in 0..n0 {
            km.row_mut(i)[..n0].copy_from_slice(self.km.row(i));
        }
        // New cross rows/columns, evaluated with the same row-major (i, j)
        // orientation `factorize`'s assembly uses so entries match bit-for-bit.
        for i in 0..n0 {
            for j in n0..n {
                km[(i, j)] = self.kernel.eval(&xs[i], &xs[j]);
            }
        }
        for i in n0..n {
            for j in 0..n {
                km[(i, j)] = self.kernel.eval(&xs[i], &xs[j]);
            }
            km[(i, i)] += self.noise_var;
        }
        let chol = self.chol.extend(&km)?;
        let alpha = chol.solve_vec(&y_std)?;
        let nlml_val = nlml_from(&chol, &y_std, &alpha);
        Ok(Gp {
            kernel: self.kernel.clone(),
            xs: xs.to_vec(),
            km,
            chol,
            alpha,
            noise_var: self.noise_var,
            y_mean,
            y_scale,
            nlml: nlml_val,
            stats: FitStats::default(),
        })
    }

    /// Drops the **oldest** `k` training points by low-rank *downdating* of the
    /// cached Cholesky factor instead of refactorizing — the sliding-window
    /// companion of [`Gp::extend`] for surrogates that cap their history.
    ///
    /// `ys` supplies the targets for the `n − k` **remaining** points (the GP
    /// does not retain raw targets, and a shrinking window typically changes
    /// the normalization anyway); output standardization and `α = K⁻¹y` are
    /// recomputed from scratch, which is `O(n²)`. Hyperparameters are reused.
    ///
    /// Unlike [`Gp::extend`] the rotation-based factor update is **not**
    /// bit-identical to [`Gp::refit`] on the window — it agrees to numerical
    /// tolerance (see [`Cholesky::downdate`]) and falls back to a full
    /// refactorization if positive-definiteness is lost.
    ///
    /// # Errors
    ///
    /// * [`GpError::InvalidTrainingData`] if `k >= self.train_len()`, if
    ///   `ys.len()` does not match the remaining window, or if any target is
    ///   non-finite.
    /// * [`GpError::Numerical`] if the fallback refactorization fails.
    pub fn downdate(&self, k: usize, ys: &[f64]) -> Result<Self, GpError> {
        let n = self.xs.len();
        if k >= n {
            return Err(GpError::InvalidTrainingData {
                reason: format!("downdate would remove {k} of {n} training points"),
            });
        }
        let xs: Vec<Vec<f64>> = self.xs[k..].to_vec();
        validate(&xs, ys, self.kernel.dim())?;
        let (y_std, y_mean, y_scale) = standardize(ys);
        let m = n - k;
        // The trailing sub-block of the cached `K + σ²I` *is* the windowed
        // covariance: its entries were produced by the same `eval` calls a
        // fresh assembly over `xs[k..]` would make.
        let mut km = Matrix::zeros(m, m);
        for i in 0..m {
            km.row_mut(i).copy_from_slice(&self.km.row(k + i)[k..]);
        }
        let chol = self.chol.downdate(k)?;
        let alpha = chol.solve_vec(&y_std)?;
        let nlml_val = nlml_from(&chol, &y_std, &alpha);
        Ok(Gp {
            kernel: self.kernel.clone(),
            xs,
            km,
            chol,
            alpha,
            noise_var: self.noise_var,
            y_mean,
            y_scale,
            nlml: nlml_val,
            stats: FitStats::default(),
        })
    }

    /// Posterior prediction at `x`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn predict(&self, x: &[f64]) -> Result<Prediction, GpError> {
        if x.len() != self.kernel.dim() {
            return Err(GpError::DimensionMismatch {
                expected: self.kernel.dim(),
                got: x.len(),
            });
        }
        let kstar: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(xi, x)).collect();
        let mean_std: f64 = kstar.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
        let v = self.chol.solve_lower(&kstar)?;
        let var_std = self.kernel.eval(x, x) - v.iter().map(|vi| vi * vi).sum::<f64>();
        Ok(Prediction {
            mean: self.y_mean + self.y_scale * mean_std,
            var: (var_std.max(0.0)) * self.y_scale * self.y_scale,
        })
    }

    /// Posterior predictions at many points.
    ///
    /// Queries are processed in fixed chunks: each chunk stacks its
    /// cross-covariance vectors into one `n × chunk` matrix and runs a single
    /// batched forward substitution ([`Cholesky::solve_lower_mat`]) instead
    /// of one triangular solve per point. The per-column operations are
    /// exactly those of [`Gp::predict`], so the results are bit-identical to
    /// the per-point path; chunks run in parallel and are re-assembled in
    /// input order.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] under the same conditions as
    /// [`Gp::predict`].
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<Prediction>, GpError> {
        use rayon::prelude::*;
        const CHUNK: usize = 16;
        let chunks: Vec<Vec<Prediction>> = xs
            .par_chunks(CHUNK)
            .map(|chunk| self.predict_chunk(chunk))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(chunks.into_iter().flatten().collect())
    }

    /// One chunk of [`Gp::predict_batch`]: a single stacked triangular solve
    /// for every query in `chunk`, column-for-column identical to
    /// [`Gp::predict`].
    fn predict_chunk(&self, chunk: &[Vec<f64>]) -> Result<Vec<Prediction>, GpError> {
        for x in chunk {
            if x.len() != self.kernel.dim() {
                return Err(GpError::DimensionMismatch {
                    expected: self.kernel.dim(),
                    got: x.len(),
                });
            }
        }
        let n = self.xs.len();
        let mut kstar = Matrix::zeros(n, chunk.len());
        self.kernel.cross_into(&self.xs, chunk, &mut kstar);
        let v = self.chol.solve_lower_mat(&kstar)?;
        let preds = (0..chunk.len())
            .map(|j| {
                let mean_std: f64 = (0..n).map(|i| kstar[(i, j)] * self.alpha[i]).sum();
                let var_std = self.kernel.eval(&chunk[j], &chunk[j])
                    - (0..n).map(|i| v[(i, j)] * v[(i, j)]).sum::<f64>();
                Prediction {
                    mean: self.y_mean + self.y_scale * mean_std,
                    var: (var_std.max(0.0)) * self.y_scale * self.y_scale,
                }
            })
            .collect();
        Ok(preds)
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The fitted observation-noise variance (standardized units).
    pub fn noise_var(&self) -> f64 {
        self.noise_var
    }

    /// Negative log marginal likelihood at the fitted hyperparameters
    /// (standardized units).
    pub fn neg_log_marginal_likelihood(&self) -> f64 {
        self.nlml
    }

    /// Telemetry from this model's own hyperparameter search. Zeroed on fits
    /// that ran no search (`optimize: false`, refit, extend, downdate), so
    /// summing over a model stack counts only real search work.
    pub fn fit_stats(&self) -> FitStats {
        self.stats
    }

    /// Number of training points.
    pub fn train_len(&self) -> usize {
        self.xs.len()
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.kernel.dim()
    }
}

fn validate(xs: &[Vec<f64>], ys: &[f64], dim: usize) -> Result<(), GpError> {
    if xs.is_empty() {
        return Err(GpError::InvalidTrainingData {
            reason: "no training points".into(),
        });
    }
    if xs.len() != ys.len() {
        return Err(GpError::InvalidTrainingData {
            reason: format!("{} inputs vs {} outputs", xs.len(), ys.len()),
        });
    }
    for x in xs {
        if x.len() != dim {
            return Err(GpError::DimensionMismatch {
                expected: dim,
                got: x.len(),
            });
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(GpError::InvalidTrainingData {
                reason: "non-finite input value".into(),
            });
        }
    }
    if ys.iter().any(|v| !v.is_finite()) {
        return Err(GpError::InvalidTrainingData {
            reason: "non-finite output value".into(),
        });
    }
    Ok(())
}

/// Standardizes `ys` to zero mean / unit scale; a constant vector keeps scale 1.
fn standardize(ys: &[f64]) -> (Vec<f64>, f64, f64) {
    let mean = linalg::stats::mean(ys);
    let std = linalg::stats::std_dev(ys);
    let scale = if std > 1e-12 { std } else { 1.0 };
    (ys.iter().map(|y| (y - mean) / scale).collect(), mean, scale)
}

/// Builds and factorizes `K + σ²I`, returning `(K + σ²I, chol, α = K⁻¹y, NLML)`.
///
/// Assembly goes through [`Kernel::gram_into`] (lower triangle + mirror, half
/// the kernel evaluations of a dense fill, row-block parallel above its size
/// threshold).
fn factorize<K: Kernel>(
    kernel: &K,
    xs: &[Vec<f64>],
    y_std: &[f64],
    noise_var: f64,
) -> Result<(Matrix, Cholesky, Vec<f64>, f64), GpError> {
    let n = xs.len();
    let mut km = Matrix::zeros(n, n);
    kernel.gram_into(xs, &mut km);
    km.add_diag(noise_var);
    let chol = Cholesky::new(&km)?;
    let alpha = chol.solve_vec(y_std)?;
    let nlml = nlml_from(&chol, y_std, &alpha);
    Ok((km, chol, alpha, nlml))
}

/// `NLML = ½ yᵀα + ½ log|K| + ½ n log 2π` — one expression shared by the
/// full and incremental paths so both produce identical floats.
fn nlml_from(chol: &Cholesky, y_std: &[f64], alpha: &[f64]) -> f64 {
    let fit_term: f64 = y_std.iter().zip(alpha).map(|(y, a)| y * a).sum();
    0.5 * fit_term
        + 0.5 * chol.log_det()
        + 0.5 * y_std.len() as f64 * (2.0 * std::f64::consts::PI).ln()
}

/// Negative log marginal likelihood for given hyperparameters — the
/// hyperparameter-search hot path (hundreds of calls per fit). With
/// `cache: Some(..)` the Gram matrix is assembled from the per-fit
/// [`DistanceCache`] instead of re-deriving pairwise distances,
/// **bit-identical** to [`Kernel::gram_into`] (pinned by
/// `gram_from_cache_matches_gram_into_bitwise`).
fn nll_eval<K: Kernel>(
    kernel: &K,
    xs: &[Vec<f64>],
    cache: Option<&DistanceCache>,
    y_std: &[f64],
    noise_var: f64,
) -> Result<f64, GpError> {
    let n = xs.len();
    let mut km = Matrix::zeros(n, n);
    match cache {
        Some(cache) => kernel.gram_from_cache(cache, &mut km),
        None => kernel.gram_into(xs, &mut km),
    }
    km.add_diag(noise_var);
    let chol = Cholesky::new(&km)?;
    let alpha = chol.solve_vec(y_std)?;
    Ok(nlml_from(&chol, y_std, &alpha))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Matern52Ard, SquaredExponentialArd};

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let xs = grid_1d(8);
        let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
        let cfg = GpConfig {
            init_noise_var: 1e-6,
            ..Default::default()
        };
        let gp = Gp::fit(Matern52Ard::new(1), &xs, &ys, &cfg).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x).unwrap();
            assert!((p.mean - y).abs() < 0.05, "at {x:?}: {} vs {y}", p.mean);
        }
    }

    #[test]
    fn predict_batch_matches_predict_bitwise() {
        // The batched path stacks the triangular solves but runs the same
        // per-column operations, so it must agree exactly — including across
        // a chunk boundary (the batch here spans more than one chunk of 16).
        let xs = grid_1d(12);
        let ys: Vec<f64> = xs.iter().map(|x| (5.0 * x[0]).sin()).collect();
        let gp = Gp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        let queries: Vec<Vec<f64>> = (0..37).map(|i| vec![i as f64 / 36.0 - 0.1]).collect();
        let batched = gp.predict_batch(&queries).unwrap();
        assert_eq!(batched.len(), queries.len());
        for (q, b) in queries.iter().zip(&batched) {
            let p = gp.predict(q).unwrap();
            assert_eq!(p.mean.to_bits(), b.mean.to_bits(), "mean differs at {q:?}");
            assert_eq!(p.var.to_bits(), b.var.to_bits(), "var differs at {q:?}");
        }
    }

    #[test]
    fn variance_smaller_at_data_than_far_away() {
        let xs = grid_1d(6);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        let gp = Gp::fit(
            SquaredExponentialArd::new(1),
            &xs,
            &ys,
            &GpConfig::default(),
        )
        .unwrap();
        let at_data = gp.predict(&[0.4]).unwrap().var;
        let far = gp.predict(&[5.0]).unwrap().var;
        assert!(at_data < far);
    }

    #[test]
    fn mle_improves_over_defaults() {
        let xs = grid_1d(12);
        // A fast-varying function: the default lengthscale 1.0 is far too long.
        let ys: Vec<f64> = xs.iter().map(|x| (20.0 * x[0]).sin()).collect();
        let fixed = Gp::fit(
            Matern52Ard::new(1),
            &xs,
            &ys,
            &GpConfig {
                optimize: false,
                ..Default::default()
            },
        )
        .unwrap();
        let fitted = Gp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        assert!(
            fitted.neg_log_marginal_likelihood() < fixed.neg_log_marginal_likelihood(),
            "{} !< {}",
            fitted.neg_log_marginal_likelihood(),
            fixed.neg_log_marginal_likelihood()
        );
    }

    #[test]
    fn constant_outputs_are_handled() {
        let xs = grid_1d(5);
        let ys = vec![2.5; 5];
        let gp = Gp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        let p = gp.predict(&[0.3]).unwrap();
        assert!((p.mean - 2.5).abs() < 1e-6);
    }

    #[test]
    fn rejects_empty_and_ragged_data() {
        let cfg = GpConfig::default();
        assert!(matches!(
            Gp::fit(Matern52Ard::new(1), &[], &[], &cfg),
            Err(GpError::InvalidTrainingData { .. })
        ));
        assert!(matches!(
            Gp::fit(Matern52Ard::new(1), &[vec![0.0, 1.0]], &[1.0], &cfg),
            Err(GpError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Gp::fit(Matern52Ard::new(1), &[vec![0.0]], &[1.0, 2.0], &cfg),
            Err(GpError::InvalidTrainingData { .. })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let cfg = GpConfig::default();
        assert!(Gp::fit(Matern52Ard::new(1), &[vec![f64::NAN]], &[1.0], &cfg).is_err());
        assert!(Gp::fit(Matern52Ard::new(1), &[vec![0.0]], &[f64::INFINITY], &cfg).is_err());
    }

    #[test]
    fn predict_dimension_mismatch() {
        let xs = grid_1d(4);
        let ys = vec![0.0, 1.0, 0.0, 1.0];
        let gp = Gp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        assert!(matches!(
            gp.predict(&[0.0, 0.0]),
            Err(GpError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn downdate_matches_refit_on_window() {
        let xs = grid_1d(20);
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin() + 0.5 * x[0]).collect();
        let gp = Gp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        for k in [1usize, 5, 12] {
            let down = gp.downdate(k, &ys[k..]).unwrap();
            let refit = gp.refit(&xs[k..], &ys[k..]).unwrap();
            assert_eq!(down.train_len(), 20 - k);
            let nd = down.neg_log_marginal_likelihood();
            let nr = refit.neg_log_marginal_likelihood();
            // Rotation-based downdating agrees to numerical tolerance only
            // (see the method docs); the achievable agreement depends on the
            // conditioning at the fitted hyperparameters.
            assert!(
                (nd - nr).abs() < 1e-7 * nr.abs().max(1.0),
                "k={k}: {nd} vs {nr}"
            );
            for q in [[0.05], [0.42], [0.93]] {
                let pd = down.predict(&q).unwrap();
                let pr = refit.predict(&q).unwrap();
                assert!((pd.mean - pr.mean).abs() < 1e-8, "k={k} q={q:?}");
                assert!((pd.var - pr.var).abs() < 1e-8, "k={k} q={q:?}");
            }
        }
    }

    #[test]
    fn downdate_after_extend_slides_the_window() {
        // extend by 4 points, downdate the oldest 4: a full sliding-window
        // step without ever refactorizing from scratch.
        let xs = grid_1d(16);
        let ys: Vec<f64> = xs.iter().map(|x| (7.0 * x[0]).sin()).collect();
        let gp = Gp::fit(
            Matern52Ard::new(1),
            &xs[..12],
            &ys[..12],
            &GpConfig::default(),
        )
        .unwrap();
        let grown = gp.extend(&xs, &ys).unwrap();
        let slid = grown.downdate(4, &ys[4..]).unwrap();
        let refit = grown.refit(&xs[4..], &ys[4..]).unwrap();
        assert_eq!(slid.train_len(), 12);
        for q in [[0.11], [0.52], [0.97]] {
            let ps = slid.predict(&q).unwrap();
            let pr = refit.predict(&q).unwrap();
            assert!((ps.mean - pr.mean).abs() < 1e-8, "q={q:?}");
            assert!((ps.var - pr.var).abs() < 1e-8, "q={q:?}");
        }
    }

    #[test]
    fn downdate_rejects_bad_windows() {
        let xs = grid_1d(6);
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let gp = Gp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        assert!(matches!(
            gp.downdate(6, &[]),
            Err(GpError::InvalidTrainingData { .. })
        ));
        assert!(matches!(
            gp.downdate(2, &ys[..3]),
            Err(GpError::InvalidTrainingData { .. })
        ));
    }

    #[test]
    fn fit_stats_carry_through_derived_models() {
        let xs = grid_1d(10);
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).cos()).collect();
        let gp = Gp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        assert!(gp.fit_stats().nll_evals > 0);
        assert_eq!(gp.fit_stats().restarts_run, GpConfig::default().restarts);
        for derived in [
            gp.refit(&xs, &ys).unwrap(),
            gp.extend(&xs, &ys).unwrap(),
            gp.downdate(2, &ys[2..]).unwrap(),
        ] {
            // No search ran: telemetry is zeroed.
            assert_eq!(derived.fit_stats(), FitStats::default());
        }
        let unopt = Gp::fit(
            Matern52Ard::new(1),
            &xs,
            &ys,
            &GpConfig {
                optimize: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(unopt.fit_stats(), FitStats::default());
    }

    #[test]
    fn noisy_data_learns_noise() {
        // Same x twice with different y forces a nonzero noise estimate.
        let xs = vec![
            vec![0.0],
            vec![0.0],
            vec![0.5],
            vec![0.5],
            vec![1.0],
            vec![1.0],
        ];
        let ys = vec![0.1, -0.1, 0.6, 0.4, 1.1, 0.9];
        let gp = Gp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        assert!(gp.noise_var() > 1e-6);
        // Mean should average the duplicates.
        let p = gp.predict(&[0.5]).unwrap();
        assert!((p.mean - 0.5).abs() < 0.1);
    }
}
