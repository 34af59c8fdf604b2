use crate::gp::GpConfig;
use crate::hyperopt::FitStats;
use crate::kernel::{DistanceCache, Kernel};
use crate::optimize::{multi_start_nelder_mead_par, NelderMeadOptions};
use crate::GpError;
use linalg::{Cholesky, Matrix};

/// Joint posterior over all `M` objectives at one query point.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTaskPrediction {
    /// Posterior means, one per task, in original output units.
    pub mean: Vec<f64>,
    /// `M x M` posterior covariance of the latent functions, in original units.
    pub cov: Matrix,
}

impl MultiTaskPrediction {
    /// Marginal variances (the diagonal of the covariance), clamped non-negative.
    pub fn vars(&self) -> Vec<f64> {
        (0..self.mean.len())
            .map(|i| self.cov[(i, i)].max(0.0))
            .collect()
    }
}

/// Correlated multi-objective Gaussian process (Eq. 9 of the paper): an
/// intrinsic-coregionalization model with joint covariance
/// `Σ_{(t,i),(u,j)} = B_{t,u} · k_C(x_i, x_j) + δ_{tu} δ_{ij} σ_t²`,
/// where `B` is a learned positive-definite task-covariance matrix and `k_C` is
/// a shared data kernel (ARD Matérn-5/2 in the paper).
///
/// All tasks are observed at the same input locations, which matches the HLS
/// setting: each design-tool run reports Power, Delay, and LUT together.
///
/// # Examples
///
/// ```
/// use cmmf_gp::{MultiTaskGp, GpConfig, kernel::Matern52Ard};
///
/// # fn main() -> Result<(), cmmf_gp::GpError> {
/// let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
/// // Two perfectly anti-correlated objectives. A few extra restarts keep the
/// // multimodal likelihood search out of the sign-flipped local optimum.
/// let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0], 1.0 - x[0]]).collect();
/// let cfg = GpConfig { restarts: 4, ..Default::default() };
/// let gp = MultiTaskGp::fit(Matern52Ard::new(1), &xs, &ys, &cfg)?;
/// assert!(gp.task_correlation(0, 1) < 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiTaskGp<K: Kernel> {
    kernel: K,
    xs: Vec<Vec<f64>>,
    n_tasks: usize,
    b: Matrix,
    noise: Vec<f64>,
    /// Cached data-kernel Gram matrix `k_C(x_i, x_j)` (no noise) so
    /// [`MultiTaskGp::extend`] can grow it with only the new cross rows.
    kx: Matrix,
    chol: Cholesky,
    alpha: Vec<f64>,
    y_means: Vec<f64>,
    y_scales: Vec<f64>,
    nlml: f64,
    /// Telemetry of this model's own hyperparameter search (zeroed on fits
    /// that ran no search).
    stats: FitStats,
}

impl<K: Kernel + Clone> MultiTaskGp<K> {
    /// Fits the model to `xs` (n points) and `ys` (n rows of M objective values).
    ///
    /// Hyperparameters — the shared kernel's, the Cholesky factor of `B`, and the
    /// per-task noises — are jointly optimized by multi-start Nelder–Mead on the
    /// negative log marginal likelihood when `cfg.optimize` is set. The
    /// data-kernel Gram assembly inside each NLL evaluation runs over the
    /// per-fit [`DistanceCache`] when the kernel supports it (bit-identical),
    /// and the multi-start restarts run in parallel with per-restart derived
    /// seeds (bit-identical at any thread count).
    ///
    /// # Errors
    ///
    /// * [`GpError::InvalidTrainingData`] on empty/ragged/non-finite data.
    /// * [`GpError::DimensionMismatch`] if inputs do not match `kernel.dim()`.
    /// * [`GpError::Numerical`] if the joint covariance cannot be factorized.
    pub fn fit(
        kernel: K,
        xs: &[Vec<f64>],
        ys: &[Vec<f64>],
        cfg: &GpConfig,
    ) -> Result<Self, GpError> {
        let n_tasks = validate_multi(xs, ys, kernel.dim())?;
        let (y_std, y_means, y_scales) = standardize_multi(ys, n_tasks);

        // Parameter vector: [kernel log params | L lower-triangle | log noises].
        let kp0 = kernel.log_params();
        let n_kp = kp0.len();
        let n_l = n_tasks * (n_tasks + 1) / 2;
        let mut p0 = kp0;
        // Start B at the identity: L = I (diag entries are log-parameterized).
        for t in 0..n_tasks {
            for _u in 0..=t {
                // L starts at the identity (log-diagonal 0, off-diagonal 0).
                p0.push(0.0);
            }
        }
        for _ in 0..n_tasks {
            p0.push(cfg.init_noise_var.max(cfg.noise_floor).ln());
        }

        let mut kernel = kernel;
        let mut b = Matrix::identity(n_tasks);
        let mut noise = vec![cfg.init_noise_var.max(cfg.noise_floor); n_tasks];

        let mut stats = FitStats::default();

        if cfg.optimize {
            let base_kernel = kernel.clone();
            let floor = cfg.noise_floor;
            let cache = kernel
                .supports_distance_cache()
                .then(|| DistanceCache::new(xs));
            let objective = |p: &[f64]| {
                let mut k = base_kernel.clone();
                k.set_log_params(&p[..n_kp]);
                let Ok(b) = b_from_params(&p[n_kp..n_kp + n_l], n_tasks) else {
                    return f64::INFINITY;
                };
                let noise: Vec<f64> = p[n_kp + n_l..]
                    .iter()
                    .map(|lp| lp.exp().max(floor))
                    .collect();
                joint_nll_eval(&k, xs, cache.as_ref(), &y_std, &b, &noise).unwrap_or(f64::INFINITY)
            };
            let opts = NelderMeadOptions {
                max_evals: cfg.max_evals,
                ..Default::default()
            };
            let best =
                multi_start_nelder_mead_par(objective, &p0, 1.0, cfg.restarts, &opts, cfg.seed);
            stats = FitStats {
                nll_evals: best.evals,
                restarts_run: cfg.restarts,
            };
            if best.value.is_finite() {
                kernel.set_log_params(&best.x[..n_kp]);
                b = b_from_params(&best.x[n_kp..n_kp + n_l], n_tasks)?;
                noise = best.x[n_kp + n_l..]
                    .iter()
                    .map(|lp| lp.exp().max(floor))
                    .collect();
            }
        }

        let kx = data_kernel(&kernel, xs);
        let (chol, alpha, nlml) = joint_factorize_from(&kx, &y_std, &b, &noise, None)?;
        Ok(MultiTaskGp {
            kernel,
            xs: xs.to_vec(),
            n_tasks,
            b,
            noise,
            kx,
            chol,
            alpha,
            y_means,
            y_scales,
            nlml,
            stats,
        })
    }

    /// Refits on new data **reusing this model's hyperparameters** (kernel,
    /// task covariance `B`, noises) without re-optimizing the marginal
    /// likelihood — the cheap per-iteration update of a BO loop.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MultiTaskGp::fit`]; additionally rejects data whose
    /// number of objectives differs from this model's.
    pub fn refit(&self, xs: &[Vec<f64>], ys: &[Vec<f64>]) -> Result<Self, GpError> {
        let n_tasks = validate_multi(xs, ys, self.kernel.dim())?;
        if n_tasks != self.n_tasks {
            return Err(GpError::InvalidTrainingData {
                reason: format!("model has {} tasks, data has {n_tasks}", self.n_tasks),
            });
        }
        let (y_std, y_means, y_scales) = standardize_multi(ys, n_tasks);
        let kx = data_kernel(&self.kernel, xs);
        let (chol, alpha, nlml) = joint_factorize_from(&kx, &y_std, &self.b, &self.noise, None)?;
        Ok(MultiTaskGp {
            kernel: self.kernel.clone(),
            xs: xs.to_vec(),
            n_tasks,
            b: self.b.clone(),
            noise: self.noise.clone(),
            kx,
            chol,
            alpha,
            y_means,
            y_scales,
            nlml,
            stats: FitStats::default(),
        })
    }

    /// Refits on grown data by **extending the cached joint-covariance
    /// factor** instead of refactorizing. When `xs` starts with this model's
    /// training inputs, the data kernel only gains rows; because the joint
    /// covariance is ordered point-major (`Σ = k_C ⊗ B`, entry `i·M + t`),
    /// the `k` new points append `k·M` trailing rows to it, so the Cholesky
    /// factor extends in `O((nM)²·kM)` via [`linalg::Cholesky::extend`]
    /// instead of the `O((nM)³)` full factorization. The y-dependent
    /// quantities — per-task standardization and `α` — are recomputed from
    /// scratch, so `ys` may change arbitrarily.
    ///
    /// The result is **bit-identical** to [`MultiTaskGp::refit`] on the same
    /// data; when the prefix precondition does not hold it silently falls
    /// back to a full refit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MultiTaskGp::refit`].
    pub fn extend(&self, xs: &[Vec<f64>], ys: &[Vec<f64>]) -> Result<Self, GpError> {
        let n0 = self.xs.len();
        if xs.len() < n0 || xs[..n0] != self.xs[..] {
            return self.refit(xs, ys);
        }
        let n_tasks = validate_multi(xs, ys, self.kernel.dim())?;
        if n_tasks != self.n_tasks {
            return Err(GpError::InvalidTrainingData {
                reason: format!("model has {} tasks, data has {n_tasks}", self.n_tasks),
            });
        }
        let (y_std, y_means, y_scales) = standardize_multi(ys, n_tasks);
        let n = xs.len();
        let mut kx = Matrix::zeros(n, n);
        for i in 0..n0 {
            kx.row_mut(i)[..n0].copy_from_slice(self.kx.row(i));
        }
        // New cross rows/columns with the same per-entry `eval` calls
        // `data_kernel` makes, so the grown Gram matrix matches bit-for-bit.
        for i in 0..n0 {
            for j in n0..n {
                kx[(i, j)] = self.kernel.eval(&xs[i], &xs[j]);
            }
        }
        for i in n0..n {
            for j in 0..n {
                kx[(i, j)] = self.kernel.eval(&xs[i], &xs[j]);
            }
        }
        let (chol, alpha, nlml) =
            joint_factorize_from(&kx, &y_std, &self.b, &self.noise, Some(&self.chol))?;
        Ok(MultiTaskGp {
            kernel: self.kernel.clone(),
            xs: xs.to_vec(),
            n_tasks,
            b: self.b.clone(),
            noise: self.noise.clone(),
            kx,
            chol,
            alpha,
            y_means,
            y_scales,
            nlml,
            stats: FitStats::default(),
        })
    }

    /// Drops the **oldest** `k` training points by low-rank downdating of the
    /// joint-covariance factor — the sliding-window companion of
    /// [`MultiTaskGp::extend`]. Because the joint covariance is point-major,
    /// removing `k` points removes the `k·M` *leading* rows, which is exactly
    /// the shape [`Cholesky::downdate`] handles.
    ///
    /// `ys` supplies the objective rows for the `n − k` **remaining** points;
    /// per-task standardization and `α` are recomputed (`O((nM)²)`).
    /// Hyperparameters (kernel, `B`, noises) are reused. Like
    /// [`crate::Gp::downdate`] the result agrees with a refit to numerical
    /// tolerance rather than bit-for-bit, and falls back to a full
    /// refactorization if positive-definiteness is lost.
    ///
    /// # Errors
    ///
    /// * [`GpError::InvalidTrainingData`] if `k >= self.train_len()`, the
    ///   window shapes mismatch, or any value is non-finite.
    /// * [`GpError::Numerical`] if the fallback refactorization fails.
    pub fn downdate(&self, k: usize, ys: &[Vec<f64>]) -> Result<Self, GpError> {
        let n = self.xs.len();
        if k >= n {
            return Err(GpError::InvalidTrainingData {
                reason: format!("downdate would remove {k} of {n} training points"),
            });
        }
        let xs: Vec<Vec<f64>> = self.xs[k..].to_vec();
        let n_tasks = validate_multi(&xs, ys, self.kernel.dim())?;
        if n_tasks != self.n_tasks {
            return Err(GpError::InvalidTrainingData {
                reason: format!("model has {} tasks, data has {n_tasks}", self.n_tasks),
            });
        }
        let (y_std, y_means, y_scales) = standardize_multi(ys, n_tasks);
        let w = n - k;
        // The trailing sub-block of the cached data kernel is the windowed
        // Gram matrix: same `eval` calls as a fresh assembly over `xs[k..]`.
        let mut kx = Matrix::zeros(w, w);
        for i in 0..w {
            kx.row_mut(i).copy_from_slice(&self.kx.row(k + i)[k..]);
        }
        let chol = self.chol.downdate(k * self.n_tasks)?;
        let alpha = chol.solve_vec(&y_std)?;
        let nlml = joint_nlml_from(&chol, &y_std, &alpha);
        Ok(MultiTaskGp {
            kernel: self.kernel.clone(),
            xs,
            n_tasks,
            b: self.b.clone(),
            noise: self.noise.clone(),
            kx,
            chol,
            alpha,
            y_means,
            y_scales,
            nlml,
            stats: FitStats::default(),
        })
    }

    /// Joint posterior (means and full `M x M` covariance) at `x`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn predict(&self, x: &[f64]) -> Result<MultiTaskPrediction, GpError> {
        let mut out = self.predict_chunk(&[x])?;
        out.pop().ok_or_else(|| GpError::Internal {
            reason: "predict_chunk returned no prediction for one query".into(),
        })
    }

    /// Joint posteriors at many points.
    ///
    /// Queries are processed in fixed chunks: each chunk stacks its
    /// `nM × M` cross-covariance blocks into one matrix and runs a single
    /// batched forward substitution ([`Cholesky::solve_lower_mat`]) instead
    /// of one triangular solve per (point, task). The per-column operations
    /// are exactly those of the per-point path, so the results are
    /// bit-identical to calling [`MultiTaskGp::predict`] per point; chunks
    /// run in parallel and are re-assembled in input order.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] under the same conditions as
    /// [`MultiTaskGp::predict`].
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<MultiTaskPrediction>, GpError> {
        use rayon::prelude::*;
        const CHUNK: usize = 8;
        let chunks: Vec<Vec<MultiTaskPrediction>> = xs
            .par_chunks(CHUNK)
            .map(|chunk| {
                let refs: Vec<&[f64]> = chunk.iter().map(|x| x.as_slice()).collect();
                self.predict_chunk(&refs)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(chunks.into_iter().flatten().collect())
    }

    /// Shared core of [`MultiTaskGp::predict`] and
    /// [`MultiTaskGp::predict_batch`]: the chunk's cross-covariance columns
    /// (query point `j`, task `u` at column `j·M + u`, point-major rows
    /// matching the factorization layout) are solved in one batched sweep.
    fn predict_chunk(&self, chunk: &[&[f64]]) -> Result<Vec<MultiTaskPrediction>, GpError> {
        for x in chunk {
            if x.len() != self.kernel.dim() {
                return Err(GpError::DimensionMismatch {
                    expected: self.kernel.dim(),
                    got: x.len(),
                });
            }
        }
        let n = self.xs.len();
        let m = self.n_tasks;
        let mut cmat = Matrix::zeros(n * m, chunk.len() * m);
        let mut kxx = Vec::with_capacity(chunk.len());
        for (j, x) in chunk.iter().enumerate() {
            let kq: Vec<f64> = self.xs.iter().map(|xi| self.kernel.eval(xi, x)).collect();
            kxx.push(self.kernel.eval(x, x));
            for u in 0..m {
                for t in 0..m {
                    let btu = self.b[(t, u)];
                    for i in 0..n {
                        cmat[(i * m + t, j * m + u)] = btu * kq[i];
                    }
                }
            }
        }
        let w = self.chol.solve_lower_mat(&cmat)?; // L^{-1} C, all columns at once

        let mut out = Vec::with_capacity(chunk.len());
        for j in 0..chunk.len() {
            let mut mean: Vec<f64> = (0..m)
                .map(|u| {
                    (0..n * m)
                        .map(|row| cmat[(row, j * m + u)] * self.alpha[row])
                        .sum()
                })
                .collect();
            let mut cov = Matrix::zeros(m, m);
            for u in 0..m {
                for v in u..m {
                    let reduction: f64 = (0..n * m)
                        .map(|row| w[(row, j * m + u)] * w[(row, j * m + v)])
                        .sum();
                    let c = self.b[(u, v)] * kxx[j] - reduction;
                    cov[(u, v)] = c;
                    cov[(v, u)] = c;
                }
            }

            // De-standardize.
            for u in 0..m {
                mean[u] = self.y_means[u] + self.y_scales[u] * mean[u];
                for v in 0..m {
                    cov[(u, v)] *= self.y_scales[u] * self.y_scales[v];
                }
            }
            // Clamp tiny negative diagonals from round-off.
            for u in 0..m {
                if cov[(u, u)] < 0.0 {
                    cov[(u, u)] = 0.0;
                }
            }
            out.push(MultiTaskPrediction { mean, cov });
        }
        Ok(out)
    }

    /// Learned task-covariance matrix `B` (Eq. 9's `K_{i,j}`).
    pub fn task_covariance(&self) -> &Matrix {
        &self.b
    }

    /// Learned correlation between tasks `i` and `j`,
    /// `B_{ij} / sqrt(B_{ii} B_{jj})`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is not a valid task index.
    pub fn task_correlation(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.n_tasks && j < self.n_tasks,
            "task index out of range"
        );
        self.b[(i, j)] / (self.b[(i, i)] * self.b[(j, j)]).sqrt()
    }

    /// Number of objectives `M`.
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Number of training points.
    pub fn train_len(&self) -> usize {
        self.xs.len()
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.kernel.dim()
    }

    /// Per-task observation-noise variances (standardized units).
    pub fn noise_vars(&self) -> &[f64] {
        &self.noise
    }

    /// Negative log marginal likelihood at the fitted hyperparameters.
    pub fn neg_log_marginal_likelihood(&self) -> f64 {
        self.nlml
    }

    /// Hyperparameter-search effort counters for the fit that produced this
    /// model. Derived models (`refit`/`extend`/`downdate`) report zeroed
    /// stats: they reuse hyperparameters and run no search.
    pub fn fit_stats(&self) -> FitStats {
        self.stats
    }
}

/// Reconstructs `B = L Lᵀ` from lower-triangle parameters (diagonal entries in
/// log space so `B` is always positive definite). The matmul of an `m × m`
/// matrix with its transpose cannot mismatch, but the error is propagated
/// rather than unwrapped (rule `P1`).
fn b_from_params(p: &[f64], m: usize) -> Result<Matrix, GpError> {
    let mut l = Matrix::zeros(m, m);
    let mut idx = 0;
    for t in 0..m {
        for u in 0..=t {
            l[(t, u)] = if t == u { p[idx].exp() } else { p[idx] };
            idx += 1;
        }
    }
    let lt = l.transpose();
    Ok(l.matmul(&lt)?)
}

fn validate_multi(xs: &[Vec<f64>], ys: &[Vec<f64>], dim: usize) -> Result<usize, GpError> {
    if xs.is_empty() {
        return Err(GpError::InvalidTrainingData {
            reason: "no training points".into(),
        });
    }
    if xs.len() != ys.len() {
        return Err(GpError::InvalidTrainingData {
            reason: format!("{} inputs vs {} output rows", xs.len(), ys.len()),
        });
    }
    let m = ys[0].len();
    if m == 0 {
        return Err(GpError::InvalidTrainingData {
            reason: "zero objectives".into(),
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
    for row in ys {
        if row.len() != m {
            return Err(GpError::InvalidTrainingData {
                reason: "ragged objective rows".into(),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(GpError::InvalidTrainingData {
                reason: "non-finite output value".into(),
            });
        }
    }
    Ok(m)
}

/// Per-task standardization of the `n x M` objective table, flattened
/// point-major: `y_std[i*M + t]` holds point `i`, task `t`. Point-major
/// ordering matches the joint covariance layout, so appending training
/// points appends trailing entries instead of inserting into each task block.
fn standardize_multi(ys: &[Vec<f64>], n_tasks: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = ys.len();
    let mut y_means = vec![0.0; n_tasks];
    let mut y_scales = vec![1.0; n_tasks];
    let mut y_std = vec![0.0; n * n_tasks];
    for t in 0..n_tasks {
        let col: Vec<f64> = ys.iter().map(|row| row[t]).collect();
        let mean = linalg::stats::mean(&col);
        let sd = linalg::stats::std_dev(&col);
        let scale = if sd > 1e-12 { sd } else { 1.0 };
        y_means[t] = mean;
        y_scales[t] = scale;
        for (i, v) in col.iter().enumerate() {
            y_std[i * n_tasks + t] = (v - mean) / scale;
        }
    }
    (y_std, y_means, y_scales)
}

/// Assembly of the shared data-kernel Gram matrix (Eq. 9's `k_C`) through
/// [`Kernel::gram_into`]: lower triangle + mirror (half the evaluations of a
/// dense fill, bit-identical, row-block parallel above its size threshold).
fn data_kernel<K: Kernel>(kernel: &K, xs: &[Vec<f64>]) -> Matrix {
    let mut kx = Matrix::zeros(xs.len(), xs.len());
    kernel.gram_into(xs, &mut kx);
    kx
}

/// The joint `nM x nM` covariance `Σ = k_C ⊗ B` plus per-task noise on the
/// diagonal. Ordering is point-major (entry `i*M + t`), so growing the
/// training set appends trailing rows.
fn joint_covariance(kx: &Matrix, b: &Matrix, noise: &[f64]) -> Matrix {
    let m = b.rows();
    let mut sigma = kx.kron(b);
    for i in 0..kx.rows() {
        for t in 0..m {
            sigma[(i * m + t, i * m + t)] += noise[t];
        }
    }
    sigma
}

/// Builds and factorizes the joint covariance from the data-kernel Gram
/// matrix `kx`; returns `(chol, α, NLML)`. When `prev` holds the factor of a
/// leading block the new factor is obtained by [`Cholesky::extend`] instead
/// of from scratch (bit-identical either way).
fn joint_factorize_from(
    kx: &Matrix,
    y_std: &[f64],
    b: &Matrix,
    noise: &[f64],
    prev: Option<&Cholesky>,
) -> Result<(Cholesky, Vec<f64>, f64), GpError> {
    let sigma = joint_covariance(kx, b, noise);
    let chol = match prev {
        Some(c) => c.extend(&sigma)?,
        None => Cholesky::new(&sigma)?,
    };
    let alpha = chol.solve_vec(y_std)?;
    let nlml = joint_nlml_from(&chol, y_std, &alpha);
    Ok((chol, alpha, nlml))
}

/// Joint NLML shared by the full, incremental, and downdate paths so all
/// three produce identical floats from identical factors.
fn joint_nlml_from(chol: &Cholesky, y_std: &[f64], alpha: &[f64]) -> f64 {
    let fit: f64 = y_std.iter().zip(alpha).map(|(y, a)| y * a).sum();
    0.5 * fit + 0.5 * chol.log_det() + 0.5 * y_std.len() as f64 * (2.0 * std::f64::consts::PI).ln()
}

/// The hyperparameter-search hot path: assemble the data kernel (from the
/// per-fit [`DistanceCache`] when one is supplied — bit-identical to
/// [`Kernel::gram_into`]), build and factorize the joint `nM × nM`
/// covariance, and read off the NLML.
fn joint_nll_eval<K: Kernel>(
    kernel: &K,
    xs: &[Vec<f64>],
    cache: Option<&DistanceCache>,
    y_std: &[f64],
    b: &Matrix,
    noise: &[f64],
) -> Result<f64, GpError> {
    let n = xs.len();
    let mut kx = Matrix::zeros(n, n);
    match cache {
        Some(cache) => kernel.gram_from_cache(cache, &mut kx),
        None => kernel.gram_into(xs, &mut kx),
    }
    let chol = Cholesky::new(&joint_covariance(&kx, b, noise))?;
    let alpha = chol.solve_vec(y_std)?;
    Ok(joint_nlml_from(&chol, y_std, &alpha))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Matern52Ard;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn fits_and_interpolates_two_tasks() {
        let xs = grid_1d(10);
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![(4.0 * x[0]).sin(), (4.0 * x[0]).cos()])
            .collect();
        let cfg = GpConfig {
            init_noise_var: 1e-6,
            ..Default::default()
        };
        let gp = MultiTaskGp::fit(Matern52Ard::new(1), &xs, &ys, &cfg).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x).unwrap();
            assert!((p.mean[0] - y[0]).abs() < 0.1);
            assert!((p.mean[1] - y[1]).abs() < 0.1);
        }
    }

    #[test]
    fn predict_batch_matches_predict_bitwise() {
        // One stacked nM × chunk·M solve per chunk vs one per-point solve:
        // same column operations, so exact agreement is required — including
        // across a chunk boundary (the batch spans more than one chunk of 8).
        let xs = grid_1d(9);
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                let f = (4.0 * x[0]).sin();
                vec![f, -f + 0.02 * x[0], f * f]
            })
            .collect();
        let gp = MultiTaskGp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        let queries: Vec<Vec<f64>> = (0..19).map(|i| vec![i as f64 / 18.0 - 0.05]).collect();
        let batched = gp.predict_batch(&queries).unwrap();
        assert_eq!(batched.len(), queries.len());
        for (q, b) in queries.iter().zip(&batched) {
            let p = gp.predict(q).unwrap();
            for t in 0..3 {
                assert_eq!(
                    p.mean[t].to_bits(),
                    b.mean[t].to_bits(),
                    "mean[{t}] differs at {q:?}"
                );
                for u in 0..3 {
                    assert_eq!(
                        p.cov[(t, u)].to_bits(),
                        b.cov[(t, u)].to_bits(),
                        "cov[({t},{u})] differs at {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn learns_negative_correlation() {
        let xs = grid_1d(12);
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                let f = (5.0 * x[0]).sin();
                vec![f, -f + 0.01 * x[0]]
            })
            .collect();
        let gp = MultiTaskGp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        assert!(
            gp.task_correlation(0, 1) < -0.5,
            "corr={}",
            gp.task_correlation(0, 1)
        );
    }

    #[test]
    fn learns_positive_correlation() {
        let xs = grid_1d(12);
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                let f = (5.0 * x[0]).sin();
                vec![f, 2.0 * f + 0.3]
            })
            .collect();
        let gp = MultiTaskGp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        assert!(
            gp.task_correlation(0, 1) > 0.5,
            "corr={}",
            gp.task_correlation(0, 1)
        );
    }

    #[test]
    fn predictive_cov_is_symmetric_psd_diagonal() {
        let xs = grid_1d(8);
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![x[0], x[0] * x[0], 1.0 - x[0]])
            .collect();
        let gp = MultiTaskGp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        let p = gp.predict(&[0.33]).unwrap();
        assert_eq!(p.mean.len(), 3);
        for u in 0..3 {
            assert!(p.cov[(u, u)] >= 0.0);
            for v in 0..3 {
                assert!((p.cov[(u, v)] - p.cov[(v, u)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rejects_ragged_rows() {
        let xs = grid_1d(3);
        let ys = vec![vec![1.0, 2.0], vec![1.0], vec![0.0, 0.0]];
        assert!(MultiTaskGp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).is_err());
    }

    /// Input dimension of [`three_task_data`].
    const DIM6: usize = 6;

    /// `n` deterministic six-dimensional inputs (an integer hash, no RNG)
    /// with three smooth, correlated objectives — the shape of one
    /// fidelity of the optimizer's data.
    fn three_task_data(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..DIM6)
                    .map(|d| ((i * 7 + d * 13 + i * i * 3) % 97) as f64 / 97.0)
                    .collect()
            })
            .collect();
        let ys = xs
            .iter()
            .map(|x| {
                let s: f64 = x.iter().enumerate().map(|(d, v)| (d + 1) as f64 * v).sum();
                let f = (0.7 * s).sin();
                vec![f, -f + 0.1 * x[0], f * f + 0.05 * x[1]]
            })
            .collect();
        (xs, ys)
    }

    #[test]
    fn extend_equals_refit_bitwise_on_the_blocked_path() {
        // Three tasks, grown by two points per step as the optimizer does:
        // joint dimensions of 150 to 600 run the blocked Cholesky (panel 32)
        // that small proptest data never reaches.
        let (xs, ys) = three_task_data(202);
        let cfg = GpConfig {
            optimize: false,
            ..Default::default()
        };
        for n in [50usize, 100, 200] {
            let gp = MultiTaskGp::fit(Matern52Ard::new(DIM6), &xs[..n], &ys[..n], &cfg).unwrap();
            let (xs, ys) = (&xs[..n + 2], &ys[..n + 2]);
            let ext = gp.extend(xs, ys).unwrap();
            let full = gp.refit(xs, ys).unwrap();
            assert_eq!(
                ext.neg_log_marginal_likelihood().to_bits(),
                full.neg_log_marginal_likelihood().to_bits(),
                "nlml differs at n={n}"
            );
            for q in [0.1, 0.45, 0.9] {
                let a = ext.predict(&[q; DIM6]).unwrap();
                let b = full.predict(&[q; DIM6]).unwrap();
                for t in 0..3 {
                    assert_eq!(
                        a.mean[t].to_bits(),
                        b.mean[t].to_bits(),
                        "mean[{t}] differs at n={n} q={q}"
                    );
                    for u in 0..3 {
                        assert_eq!(
                            a.cov[(t, u)].to_bits(),
                            b.cov[(t, u)].to_bits(),
                            "cov[({t},{u})] differs at n={n} q={q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn downdate_matches_refit_on_window() {
        // The rotation-based downdate agrees with a refit to O(ε·κ(Σ)); the
        // joint ICM covariance of strongly correlated tasks is ill-conditioned
        // enough that a few parts in 1e5 of slack are warranted.
        let xs = grid_1d(14);
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![(4.0 * x[0]).sin(), (3.0 * x[0]).cos() + 0.5 * x[0]])
            .collect();
        let gp = MultiTaskGp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        for k in [1usize, 4, 9] {
            let down = gp.downdate(k, &ys[k..]).unwrap();
            let refit = gp.refit(&xs[k..], &ys[k..]).unwrap();
            assert_eq!(down.train_len(), 14 - k);
            for q in [[0.07], [0.48], [0.91]] {
                let pd = down.predict(&q).unwrap();
                let pr = refit.predict(&q).unwrap();
                for t in 0..2 {
                    assert!(
                        (pd.mean[t] - pr.mean[t]).abs() < 1e-5,
                        "k={k} q={q:?} t={t}: {} vs {}",
                        pd.mean[t],
                        pr.mean[t]
                    );
                    for u in 0..2 {
                        assert!(
                            (pd.cov[(t, u)] - pr.cov[(t, u)]).abs() < 1e-5,
                            "k={k} q={q:?} t={t} u={u}: {} vs {}",
                            pd.cov[(t, u)],
                            pr.cov[(t, u)]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn downdate_after_extend_slides_the_window() {
        let xs = grid_1d(12);
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![(5.0 * x[0]).sin(), (2.0 * x[0]).cos() - x[0]])
            .collect();
        let gp = MultiTaskGp::fit(
            Matern52Ard::new(1),
            &xs[..9],
            &ys[..9],
            &GpConfig::default(),
        )
        .unwrap();
        let grown = gp.extend(&xs, &ys).unwrap();
        let slid = grown.downdate(3, &ys[3..]).unwrap();
        let refit = grown.refit(&xs[3..], &ys[3..]).unwrap();
        assert_eq!(slid.train_len(), 9);
        for q in [[0.14], [0.66]] {
            let ps = slid.predict(&q).unwrap();
            let pr = refit.predict(&q).unwrap();
            for t in 0..2 {
                assert!(
                    (ps.mean[t] - pr.mean[t]).abs() < 1e-5,
                    "q={q:?} t={t}: {} vs {}",
                    ps.mean[t],
                    pr.mean[t]
                );
            }
        }
    }

    #[test]
    fn downdate_rejects_bad_windows() {
        let xs = grid_1d(5);
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0], -x[0]]).collect();
        let gp = MultiTaskGp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        assert!(matches!(
            gp.downdate(5, &[]),
            Err(GpError::InvalidTrainingData { .. })
        ));
        assert!(matches!(
            gp.downdate(2, &ys[..2]),
            Err(GpError::InvalidTrainingData { .. })
        ));
    }

    #[test]
    fn correlated_model_transfers_information() {
        // Task 1 equals task 0; task 1 is poorly observed (constant portion).
        // The correlated model should predict task 1 well from task 0's signal.
        let xs = grid_1d(14);
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                let f = (6.0 * x[0]).sin();
                vec![f, f]
            })
            .collect();
        let gp = MultiTaskGp::fit(Matern52Ard::new(1), &xs, &ys, &GpConfig::default()).unwrap();
        let p = gp.predict(&[0.52]).unwrap();
        let truth = (6.0f64 * 0.52).sin();
        assert!((p.mean[1] - truth).abs() < 0.1);
        assert!(gp.task_correlation(0, 1) > 0.9);
    }
}
