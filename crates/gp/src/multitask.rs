use crate::gp::{nlml_from, FitStats, GpConfig, INIT_NOISE_VAR, NOISE_FLOOR};
use crate::kernel::{DistanceCache, Matern52};
use crate::optimize::{multi_start_nelder_mead_par, NelderMeadOptions};
use crate::GpError;
use linalg::{Cholesky, CholeskyWorkspace, Matrix};

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
/// use cmmf_gp::{MultiTaskGp, GpConfig, kernel::Matern52};
///
/// # fn main() -> Result<(), cmmf_gp::GpError> {
/// let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
/// // Two perfectly anti-correlated objectives. A few extra restarts keep the
/// // multimodal likelihood search out of the sign-flipped local optimum.
/// let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0], 1.0 - x[0]]).collect();
/// let cfg = GpConfig { restarts: 4, ..Default::default() };
/// let gp = MultiTaskGp::fit(Matern52::ard(1), &xs, &ys, &cfg)?;
/// assert!(gp.task_correlation(0, 1) < 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiTaskGp {
    kernel: Matern52,
    xs: Vec<Vec<f64>>,
    n_tasks: usize,
    b: Matrix,
    noise: Vec<f64>,
    chol: Cholesky,
    alpha: Vec<f64>,
    y_means: Vec<f64>,
    y_scales: Vec<f64>,
    nlml: f64,
    /// Telemetry of this model's own hyperparameter search (zeroed on fits
    /// that ran no search).
    stats: FitStats,
}

impl MultiTaskGp {
    /// Fits the model to `xs` (n points) and `ys` (n rows of M objective values).
    ///
    /// Hyperparameters — the shared kernel's, the Cholesky factor of `B`, and the
    /// per-task noises — are jointly optimized by multi-start Nelder–Mead on the
    /// negative log marginal likelihood, starting from the supplied kernel's
    /// parameters, `B = I` and noise variance 1e-2 per task. Each start owns
    /// its workspace for its lifetime: one kernel, the `n × n` data-kernel
    /// Gram lower triangle, `B` and the noises, and an `nM × nM`
    /// [`CholeskyWorkspace`]. An NLL evaluation writes the Gram from the
    /// per-fit [`DistanceCache`] (bit-identical to from-scratch assembly),
    /// writes Eq. 9's joint covariance from it straight into the
    /// workspace's buffer, and factors and solves it there, allocating
    /// nothing. The starts run in parallel with per-restart derived seeds
    /// (bit-identical at any thread count).
    ///
    /// # Errors
    ///
    /// * [`GpError::InvalidTrainingData`] on empty/ragged/non-finite data.
    /// * [`GpError::DimensionMismatch`] if inputs do not match `kernel.dim()`.
    /// * [`GpError::Numerical`] if the joint covariance cannot be factorized.
    pub fn fit(
        kernel: Matern52,
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
        // Start B at the identity: L = I (log-diagonal 0, off-diagonal 0).
        p0.resize(n_kp + n_l, 0.0);
        p0.resize(n_kp + n_l + n_tasks, INIT_NOISE_VAR.ln());

        let cache = DistanceCache::new(xs);
        let objective = || {
            let mut start = SearchObjective::new(&kernel, &cache, &y_std, n_tasks);
            move |p: &[f64]| start.nll(p)
        };
        let opts = NelderMeadOptions {
            max_evals: cfg.max_evals,
            ..Default::default()
        };
        let best = multi_start_nelder_mead_par(objective, &p0, 1.0, cfg.restarts, &opts, cfg.seed);
        let stats = FitStats {
            nll_evals: best.evals,
            restarts_run: cfg.restarts,
        };
        let mut kernel = kernel;
        let mut b = TaskCovariance::new(n_tasks);
        let mut noise = vec![INIT_NOISE_VAR; n_tasks];
        if best.value.is_finite() {
            kernel.set_log_params(&best.x[..n_kp]);
            b.set_params(&best.x[n_kp..n_kp + n_l]);
            noise_into(&best.x[n_kp + n_l..], &mut noise);
        }
        let b = b.into_matrix();

        let (chol, alpha, nlml) = joint_factorize(&kernel, xs, &y_std, &b, &noise)?;
        Ok(MultiTaskGp {
            kernel,
            xs: xs.to_vec(),
            n_tasks,
            b,
            noise,
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
        let (chol, alpha, nlml) = joint_factorize(&self.kernel, xs, &y_std, &self.b, &self.noise)?;
        Ok(MultiTaskGp {
            kernel: self.kernel.clone(),
            xs: xs.to_vec(),
            n_tasks,
            b: self.b.clone(),
            noise: self.noise.clone(),
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

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.kernel.dim()
    }

    /// Negative log marginal likelihood at the fitted hyperparameters.
    pub fn neg_log_marginal_likelihood(&self) -> f64 {
        self.nlml
    }

    /// Hyperparameter-search effort counters for the fit that produced this
    /// model. A `refit` model reports zeroed stats: it reuses
    /// hyperparameters and runs no search.
    pub fn fit_stats(&self) -> FitStats {
        self.stats
    }
}

/// One start of [`MultiTaskGp::fit`]'s search. It owns, for the start's
/// lifetime, one kernel, the `n × n` data-kernel Gram (lower triangle), the
/// task covariance, the noises, an `nM × nM` [`CholeskyWorkspace`] and the
/// solve vector, so an evaluation writes the Gram from the per-fit
/// [`DistanceCache`], writes Eq. 9's joint covariance from it straight into
/// the workspace's buffer, factors and solves it there, and allocates
/// nothing.
pub(crate) struct SearchObjective<'a> {
    cache: &'a DistanceCache,
    y_std: &'a [f64],
    kernel: Matern52,
    /// How many of the parameters are the kernel's.
    n_kp: usize,
    kx: Matrix,
    b: TaskCovariance,
    noise: Vec<f64>,
    ws: CholeskyWorkspace,
    alpha: Vec<f64>,
}

impl<'a> SearchObjective<'a> {
    pub(crate) fn new(
        kernel: &Matern52,
        cache: &'a DistanceCache,
        y_std: &'a [f64],
        m: usize,
    ) -> Self {
        let n = cache.len();
        SearchObjective {
            cache,
            y_std,
            kernel: kernel.clone(),
            n_kp: kernel.log_params().len(),
            kx: Matrix::zeros(n, n),
            b: TaskCovariance::new(m),
            noise: vec![0.0; m],
            ws: CholeskyWorkspace::new(n * m),
            alpha: vec![0.0; n * m],
        }
    }

    /// The NLL at `p = [kernel log params | L lower triangle | log noises]`,
    /// `+∞` where no jitter makes the joint covariance factorable.
    pub(crate) fn nll(&mut self, p: &[f64]) -> f64 {
        let (kp, rest) = p.split_at(self.n_kp);
        let (lp, log_noise) = rest.split_at(rest.len() - self.noise.len());
        self.kernel.set_log_params(kp);
        self.kernel.gram_from_cache(self.cache, &mut self.kx);
        self.b.set_params(lp);
        noise_into(log_noise, &mut self.noise);
        let (kx, b, noise) = (&self.kx, self.b.matrix(), &self.noise);
        match self.ws.factor(|l| write_joint_lower(kx, b, noise, l)) {
            Ok(chol) if chol.solve_into(self.y_std, &mut self.alpha).is_ok() => {
                nlml_from(chol, self.y_std, &self.alpha)
            }
            _ => f64::INFINITY,
        }
    }
}

/// The task covariance `B = L Lᵀ` of Eq. 9 and the lower-triangular `L` it
/// is parametrized by (diagonal entries in log space, so `B` is always
/// positive definite). A search start owns one and rewrites it in place on
/// every evaluation.
struct TaskCovariance {
    l: Matrix,
    b: Matrix,
}

impl TaskCovariance {
    /// `B = L = I`, the parametrization's origin.
    fn new(m: usize) -> Self {
        TaskCovariance {
            l: Matrix::identity(m),
            b: Matrix::identity(m),
        }
    }

    /// Sets `L` from its lower-triangle parameters `p` (row-major) and
    /// recomputes `B = L Lᵀ` in [`Matrix::matmul`]'s operation order: entry
    /// `(t, u)` accumulates `L[t][k]·L[u][k]` from zero for `k` ascending,
    /// skipping every `k` with `L[t][k] = 0`.
    fn set_params(&mut self, p: &[f64]) {
        let m = self.l.rows();
        let mut idx = 0;
        for t in 0..m {
            for u in 0..=t {
                self.l[(t, u)] = if t == u { p[idx].exp() } else { p[idx] };
                idx += 1;
            }
        }
        self.b.fill(0.0);
        for t in 0..m {
            for k in 0..m {
                let a = self.l[(t, k)];
                if a == 0.0 {
                    continue;
                }
                for u in 0..m {
                    self.b[(t, u)] += a * self.l[(u, k)];
                }
            }
        }
    }

    fn matrix(&self) -> &Matrix {
        &self.b
    }

    fn into_matrix(self) -> Matrix {
        self.b
    }
}

/// Per-task noise variances from their log-space parameters, floored.
fn noise_into(log_noise: &[f64], noise: &mut [f64]) {
    for (nv, lp) in noise.iter_mut().zip(log_noise) {
        *nv = lp.exp().max(NOISE_FLOOR);
    }
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
/// point-major: `y_std[i*M + t]` holds point `i`, task `t`, matching the
/// joint covariance layout.
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

/// Writes the lower triangle of Eq. 9's joint `nM × nM` covariance
/// `k_C ⊗ B + diag(σ_t²)` into `out`, point-major (row `i·M + t` is point
/// `i`, task `t`), reading only the lower triangle of the Gram matrix `kx`.
/// Each entry is the single product `k_C[i][j]·B[t][u]`, or zero where the
/// Gram entry is zero, and the diagonal then adds its task's noise. Every
/// factorization of the model — each search evaluation, the final fit and
/// each refit — assembles through here.
fn write_joint_lower(kx: &Matrix, b: &Matrix, noise: &[f64], out: &mut Matrix) {
    let m = b.rows();
    for i in 0..kx.rows() {
        let kx_row = &kx.row(i)[..=i];
        for (t, &noise_t) in noise.iter().enumerate() {
            let r = i * m + t;
            let b_row = b.row(t);
            let row = &mut out.row_mut(r)[..=r];
            for (block, &a) in row.chunks_mut(m).zip(kx_row) {
                for (o, &btu) in block.iter_mut().zip(b_row) {
                    *o = if a == 0.0 { 0.0 } else { a * btu };
                }
            }
            row[r] += noise_t;
        }
    }
}

/// Assembles the shared data-kernel Gram matrix (Eq. 9's `k_C`) through
/// [`Matern52::gram_into`], then writes the joint covariance from it into
/// the factor's storage and factorizes it; returns `(chol, α, NLML)`.
fn joint_factorize(
    kernel: &Matern52,
    xs: &[Vec<f64>],
    y_std: &[f64],
    b: &Matrix,
    noise: &[f64],
) -> Result<(Cholesky, Vec<f64>, f64), GpError> {
    let mut kx = Matrix::zeros(xs.len(), xs.len());
    kernel.gram_into(xs, &mut kx);
    let chol = Cholesky::from_lower(y_std.len(), |l| write_joint_lower(&kx, b, noise, l))?;
    let alpha = chol.solve_vec(y_std)?;
    let nlml = nlml_from(&chol, y_std, &alpha);
    Ok((chol, alpha, nlml))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let gp = MultiTaskGp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
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
        let gp = MultiTaskGp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
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
        let gp = MultiTaskGp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
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
        let gp = MultiTaskGp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
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
        let gp = MultiTaskGp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
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
        assert!(MultiTaskGp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).is_err());
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
        let gp = MultiTaskGp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
        let p = gp.predict(&[0.52]).unwrap();
        let truth = (6.0f64 * 0.52).sin();
        assert!((p.mean[1] - truth).abs() < 0.1);
        assert!(gp.task_correlation(0, 1) > 0.9);
    }
}
