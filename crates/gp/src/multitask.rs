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
    /// Gram upper triangle, `B` and the noises, and an `nM × nM`
    /// [`CholeskyWorkspace`]. An NLL evaluation writes the Gram from the
    /// per-fit [`DistanceCache`] (bit-identical to from-scratch assembly),
    /// writes the upper triangle of Eq. 9's joint covariance from it
    /// straight into the workspace's buffer, factors it there into
    /// `U = Lᵀ` and solves against `U` row by row, allocating nothing. The
    /// starts share the session's threads through one queue, moving between
    /// them so that they end together; each keeps its derived seed, its
    /// objective and its workspace, so the fit is bit-identical at any
    /// thread count (see [`multi_start_nelder_mead_par`]).
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
        let mut out = self.predictions(&[x])?;
        out.pop().ok_or_else(|| GpError::Internal {
            reason: "the chunk sweep returned no prediction for one query".into(),
        })
    }

    /// Joint posteriors at many points.
    ///
    /// Queries are processed in fixed chunks of 8 on the calling thread,
    /// each chunk in one sweep down the rows of its stacked `nM × 8M`
    /// cross-covariance (`sweep_chunk`), with one set of buffers for the
    /// whole batch. The per-column and per-sum operations are exactly those
    /// of the per-point path, so the results are bit-identical to calling
    /// [`MultiTaskGp::predict`] per point. Parallelism belongs to the
    /// caller: the fidelity chain calls this on one piece of its inputs per
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] under the same conditions as
    /// [`MultiTaskGp::predict`].
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<MultiTaskPrediction>, GpError> {
        self.predictions(xs)
    }

    /// Joint posteriors at inputs that share a prefix, flat: for each
    /// `(x, tails)` of `groups`, the inputs `[x, t]` for every tail `t` in
    /// `tails`, which holds whole tails of `dim() − x.len()` values back to
    /// back. Query `j`, counted across the groups in order, has its means at
    /// `mean[j·M..(j + 1)·M]` and its `M × M` covariance, row-major, at
    /// `cov[j·M²..(j + 1)·M²]`, in the units of [`MultiTaskGp::predict`].
    ///
    /// This is the non-linear link's query: a candidate's sigma points share
    /// its directive features. Each kernel row sums the `x` dimensions once
    /// per (group, training input) and continues that sum over the tail
    /// dimensions for every tail, and the queries run through the chunk
    /// sweep of [`MultiTaskGp::predict_batch`], 8 at a time across the
    /// groups. The results are [`MultiTaskGp::predict`]'s at each `[x, t]`
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] if some `x` leaves no tail
    /// dimension or its `tails` do not split into whole tails.
    pub fn predict_tails(
        &self,
        groups: &[(&[f64], &[f64])],
    ) -> Result<(Vec<f64>, Vec<f64>), GpError> {
        let dim = self.kernel.dim();
        let mut count = 0;
        for &(x, tails) in groups {
            let width = dim.saturating_sub(x.len());
            if width == 0 || tails.len() % width != 0 {
                return Err(GpError::DimensionMismatch {
                    expected: dim,
                    got: x.len() + tails.len(),
                });
            }
            count += tails.len() / width;
        }
        let n = self.xs.len();
        let mut prefix = Vec::with_capacity(groups.len() * n);
        for &(x, _) in groups {
            self.kernel.prefix_distances(&self.xs, x, &mut prefix);
        }
        let at_finite = self.kernel.eval(&self.xs[0], &self.xs[0]);
        let queries = groups
            .iter()
            .enumerate()
            .flat_map(|(g, &(x, tails))| tails.chunks_exact(dim - x.len()).map(move |t| (g, x, t)));
        Ok(self.sweep(count, queries, |(g, x, t), row| {
            self.kernel
                .prefixed_row(&self.xs, &prefix[g * n..(g + 1) * n], t, row);
            self.kernel.self_cov(at_finite, x, t)
        }))
    }

    /// [`MultiTaskGp::predict`] at every point of `xs`, through the chunk
    /// sweep.
    fn predictions<X: AsRef<[f64]>>(&self, xs: &[X]) -> Result<Vec<MultiTaskPrediction>, GpError> {
        let dim = self.kernel.dim();
        if let Some(x) = xs.iter().find(|x| x.as_ref().len() != dim) {
            return Err(GpError::DimensionMismatch {
                expected: dim,
                got: x.as_ref().len(),
            });
        }
        let at_finite = self.kernel.eval(&self.xs[0], &self.xs[0]);
        let (mean, cov) = self.sweep(xs.len(), xs.iter().map(AsRef::as_ref), |x, row| {
            for (k, xi) in row.iter_mut().zip(&self.xs) {
                *k = self.kernel.eval(xi, x);
            }
            self.kernel.self_cov(at_finite, x, &[])
        });
        let m = self.n_tasks;
        Ok(mean
            .chunks_exact(m)
            .zip(cov.chunks_exact(m * m))
            .map(|(mean, cov)| MultiTaskPrediction {
                mean: mean.to_vec(),
                cov: Matrix::from_fn(m, m, |u, v| cov[u * m + v]),
            })
            .collect())
    }

    /// Predicts `count` queries in chunks of [`CHUNK`] taken across the whole
    /// list, and returns their flat means and covariances in the layout of
    /// [`MultiTaskGp::predict_tails`]. `row(query, out)` writes the query's
    /// kernel row, `out[i] = k(x_i, query)`, and returns `k(query, query)`.
    /// One row buffer and one cross-covariance buffer, each at most a
    /// chunk wide, serve every chunk.
    fn sweep<Q>(
        &self,
        count: usize,
        queries: impl Iterator<Item = Q>,
        mut row: impl FnMut(Q, &mut [f64]) -> f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let (n, m) = (self.xs.len(), self.n_tasks);
        let width = count.min(CHUNK);
        let mut mean = Vec::with_capacity(count * m);
        let mut cov = Vec::with_capacity(count * m * m);
        let mut rows = vec![0.0; width * n];
        let mut kxx = [0.0; CHUNK];
        let mut c = vec![0.0; n * m * width * m];
        let mut q = 0;
        for query in queries {
            kxx[q] = row(query, &mut rows[q * n..(q + 1) * n]);
            q += 1;
            if q == width {
                self.sweep_chunk(&rows, &kxx[..q], &mut c, &mut mean, &mut cov);
                q = 0;
            }
        }
        if q > 0 {
            self.sweep_chunk(&rows[..q * n], &kxx[..q], &mut c, &mut mean, &mut cov);
        }
        (mean, cov)
    }

    /// Appends the posteriors of one chunk of `q ≤ 8` queries, from their
    /// kernel rows (`rows[j·n + i] = k(x_i, query_j)`) and self-covariances
    /// `kxx`, to `mean` and `cov`.
    ///
    /// The chunk's cross-covariance `C` (query `j`, task `u` at column
    /// `j·M + u`; point-major rows `i·M + t` matching the factorization
    /// layout; entry `B[t][u]·k(x_i, query_j)`) is written once into `c`,
    /// and one sweep runs down its rows: row `r` first adds `C[r]·α[r]` into
    /// the chunk's `q·M` means, is then solved in place into row `r` of
    /// `W = L⁻¹C` against the rows above it, and finally adds its products
    /// `W[r][j·M+u]·W[r][j·M+v]`, `u ≤ v`, into the `q·M(M+1)/2` covariance
    /// reductions, held in the upper triangles of the chunk's covariance
    /// slots. Each column's solve is [`Cholesky::solve_lower`]'s chain
    /// (seed `C[r][c]`, subtract `L[r][k]·W[k][c]` for `k` ascending,
    /// divide by `L[r][r]`), and each sum starts at `-0.0` and adds in row
    /// order, `Iterator::sum`'s chain, so every result is the per-query,
    /// per-column one bit for bit (the oracle in this module's tests keeps
    /// that form). Nothing is allocated once `mean` and `cov` have room.
    fn sweep_chunk(
        &self,
        rows: &[f64],
        kxx: &[f64],
        c: &mut [f64],
        mean: &mut Vec<f64>,
        cov: &mut Vec<f64>,
    ) {
        let (n, m) = (self.xs.len(), self.n_tasks);
        let nm = n * m;
        let cols = kxx.len() * m;
        let c = &mut c[..nm * cols];
        for (i, point) in c.chunks_exact_mut(m * cols).enumerate() {
            for (t, crow) in point.chunks_exact_mut(cols).enumerate() {
                for (cj, krow) in crow.chunks_exact_mut(m).zip(rows.chunks_exact(n)) {
                    let k = krow[i];
                    for (u, o) in cj.iter_mut().enumerate() {
                        *o = self.b[(t, u)] * k;
                    }
                }
            }
        }

        let start = (mean.len(), cov.len());
        mean.resize(start.0 + cols, -0.0);
        cov.resize(start.1 + cols * m, -0.0);
        let (mean, cov) = (&mut mean[start.0..], &mut cov[start.1..]);
        let l = self.chol.l().as_slice();
        for (r, &a) in self.alpha.iter().enumerate() {
            let (done, rest) = c.split_at_mut(r * cols);
            let crow = &mut rest[..cols];
            for (s, &v) in mean.iter_mut().zip(crow.iter()) {
                *s += v * a;
            }
            let (lk, lrr) = (&l[r * nm..r * nm + r], l[r * nm + r]);
            let mut c0 = 0;
            while c0 + 8 <= cols {
                solve_block::<8>(crow, done, lk, lrr, c0);
                c0 += 8;
            }
            if c0 + 4 <= cols {
                solve_block::<4>(crow, done, lk, lrr, c0);
                c0 += 4;
            }
            for c0 in c0..cols {
                solve_block::<1>(crow, done, lk, lrr, c0);
            }
            for (red, w) in cov.chunks_exact_mut(m * m).zip(crow.chunks_exact(m)) {
                for (u, &wu) in w.iter().enumerate() {
                    for (s, &wv) in red[u * m + u..(u + 1) * m].iter_mut().zip(&w[u..]) {
                        *s += wu * wv;
                    }
                }
            }
        }

        for ((mean, cov), &kxx) in mean
            .chunks_exact_mut(m)
            .zip(cov.chunks_exact_mut(m * m))
            .zip(kxx)
        {
            for u in 0..m {
                for v in u..m {
                    let c = self.b[(u, v)] * kxx - cov[u * m + v];
                    cov[u * m + v] = c;
                    cov[v * m + u] = c;
                }
            }
            // De-standardize.
            for u in 0..m {
                mean[u] = self.y_means[u] + self.y_scales[u] * mean[u];
                for v in 0..m {
                    cov[u * m + v] *= self.y_scales[u] * self.y_scales[v];
                }
            }
            // Clamp tiny negative diagonals from round-off.
            for u in 0..m {
                if cov[u * m + u] < 0.0 {
                    cov[u * m + u] = 0.0;
                }
            }
        }
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

/// Queries per chunk of a batched prediction, taken across the caller's
/// whole query list: at `M = 3`, 8 queries make 24 columns, three full
/// 8-column blocks of the row solve, whatever the groups' sizes. Chunks
/// cut at each candidate's 7 sigma points (21 columns, blocks of 8, 8, 4
/// and 1) measured within 6 % of these per candidate.
const CHUNK: usize = 8;

/// Solves columns `c0..c0 + W` of one row of `W = L⁻¹C` in place: `row`
/// holds the row of `C` on entry, `done` the rows of `W` above it (`cols`
/// wide), `lk` the row of `L` left of its diagonal `lrr`. The `W`
/// accumulators stay in registers while `L[r][k]·W[k]` is subtracted for
/// `k` ascending, then each is divided by `L[r][r]`.
fn solve_block<const W: usize>(row: &mut [f64], done: &[f64], lk: &[f64], lrr: f64, c0: usize) {
    let cols = row.len();
    // Lets the compiler drop the per-row range checks below.
    assert!(c0 + W <= cols, "column block out of range");
    let out = &mut row[c0..c0 + W];
    let mut acc = [0.0; W];
    acc.copy_from_slice(out);
    for (&lik, wk) in lk.iter().zip(done.chunks_exact(cols)) {
        for (a, &v) in acc.iter_mut().zip(&wk[c0..c0 + W]) {
            *a -= lik * v;
        }
    }
    for (o, a) in out.iter_mut().zip(acc) {
        *o = a / lrr;
    }
}

/// One start of [`MultiTaskGp::fit`]'s search. It owns, for the start's
/// lifetime, one kernel, the `n × n` data-kernel Gram (upper triangle), the
/// task covariance, the noises, an `nM × nM` [`CholeskyWorkspace`] and the
/// solve vector, so an evaluation writes the Gram from the per-fit
/// [`DistanceCache`], writes the upper triangle of Eq. 9's joint covariance
/// from it straight into the workspace's buffer row by row, factors it
/// there into `U = Lᵀ`, solves against `U` with contiguous row walks only,
/// and allocates nothing.
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
        match self.ws.factor(|u| write_joint_upper(kx, b, noise, u)) {
            Ok(chol) if chol.solve_into(self.y_std, &mut self.alpha).is_ok() => {
                nlml_from(chol.log_det(), self.y_std, &self.alpha)
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

/// Writes the upper triangle of Eq. 9's joint `nM × nM` covariance
/// `k_C ⊗ B + diag(σ_t²)` into `out`, point-major (row `j·M + u` is point
/// `j`, task `u`), reading only the upper triangle of the Gram matrix `kx`.
/// Entry `(j·M + u, i·M + t)`, `i ≥ j`, is the single product
/// `k_C[j][i]·B[t][u]`, or `+0.0` where the Gram entry is zero, and the
/// diagonal then adds its task's noise. `B` is read as `B[t][u]` and never
/// assumed symmetric: its mirrored entries can differ in the sign of a
/// zero. Each row is written from point `j`'s block on as `M` long runs,
/// one per task `t`, over the points `i ≥ j` (the first block's entries
/// left of the diagonal land below it, where nothing reads them). Every
/// factorization of the model — each search evaluation, the final fit and
/// each refit — assembles through here.
fn write_joint_upper(kx: &Matrix, b: &Matrix, noise: &[f64], out: &mut Matrix) {
    let m = b.rows();
    for j in 0..kx.rows() {
        let kx_row = &kx.row(j)[j..];
        for (u, &noise_u) in noise.iter().enumerate() {
            let row = &mut out.row_mut(j * m + u)[j * m..];
            for t in 0..m {
                let btu = b[(t, u)];
                for (o, &a) in row[t..].iter_mut().step_by(m).zip(kx_row) {
                    *o = if a == 0.0 { 0.0 } else { a * btu };
                }
            }
            row[u] += noise_u;
        }
    }
}

/// Assembles the upper triangle of the shared data-kernel Gram matrix
/// (Eq. 9's `k_C`) through [`Matern52::gram_into`], then writes the joint
/// covariance's upper triangle from it into the factor's storage and
/// factorizes it; returns `(chol, α, NLML)`.
fn joint_factorize(
    kernel: &Matern52,
    xs: &[Vec<f64>],
    y_std: &[f64],
    b: &Matrix,
    noise: &[f64],
) -> Result<(Cholesky, Vec<f64>, f64), GpError> {
    let mut kx = Matrix::zeros(xs.len(), xs.len());
    kernel.gram_into(xs, &mut kx);
    let chol = Cholesky::from_upper(y_std.len(), |u| write_joint_upper(&kx, b, noise, u))?;
    let alpha = chol.solve_vec(y_std)?;
    let nlml = nlml_from(chol.log_det(), y_std, &alpha);
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

    /// The oracle of the chunk sweep: the chunk's cross-covariance columns
    /// solved one at a time ([`Cholesky::solve_lower`]), and each of the
    /// chunk's means and covariance reductions its own `Iterator::sum`, a
    /// strided walk down one or two columns over the `nM` rows.
    fn strided_chunk_oracle(gp: &MultiTaskGp, chunk: &[&[f64]]) -> Vec<MultiTaskPrediction> {
        let (n, m) = (gp.xs.len(), gp.n_tasks);
        let mut cmat = Matrix::zeros(n * m, chunk.len() * m);
        let mut kxx = Vec::with_capacity(chunk.len());
        for (j, x) in chunk.iter().enumerate() {
            let kq: Vec<f64> = gp.xs.iter().map(|xi| gp.kernel.eval(xi, x)).collect();
            kxx.push(gp.kernel.eval(x, x));
            for u in 0..m {
                for t in 0..m {
                    for (i, k) in kq.iter().enumerate() {
                        cmat[(i * m + t, j * m + u)] = gp.b[(t, u)] * k;
                    }
                }
            }
        }
        let mut w = Matrix::zeros(n * m, chunk.len() * m);
        for c in 0..chunk.len() * m {
            let col: Vec<f64> = (0..n * m).map(|row| cmat[(row, c)]).collect();
            for (row, v) in gp.chol.solve_lower(&col).unwrap().into_iter().enumerate() {
                w[(row, c)] = v;
            }
        }
        (0..chunk.len())
            .map(|j| {
                let mut mean: Vec<f64> = (0..m)
                    .map(|u| {
                        (0..n * m)
                            .map(|row| cmat[(row, j * m + u)] * gp.alpha[row])
                            .sum()
                    })
                    .collect();
                let mut cov = Matrix::zeros(m, m);
                for u in 0..m {
                    for v in u..m {
                        let reduction: f64 = (0..n * m)
                            .map(|row| w[(row, j * m + u)] * w[(row, j * m + v)])
                            .sum();
                        let c = gp.b[(u, v)] * kxx[j] - reduction;
                        cov[(u, v)] = c;
                        cov[(v, u)] = c;
                    }
                }
                for u in 0..m {
                    mean[u] = gp.y_means[u] + gp.y_scales[u] * mean[u];
                    for v in 0..m {
                        cov[(u, v)] *= gp.y_scales[u] * gp.y_scales[v];
                    }
                }
                for u in 0..m {
                    if cov[(u, u)] < 0.0 {
                        cov[(u, u)] = 0.0;
                    }
                }
                MultiTaskPrediction { mean, cov }
            })
            .collect()
    }

    #[test]
    fn chunk_sweep_matches_the_strided_sums_bitwise() {
        // 20 points and 3 tasks give a 60 × 60 factor. A full chunk of 8, a
        // partial chunk of 5 (one on a training input), a chunk of one, and
        // all 14 queries at once: two chunks through one set of buffers.
        let xs = grid_1d(20);
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                let f = (4.0 * x[0]).sin();
                vec![f, -f + 0.05 * x[0], f * f - 0.3]
            })
            .collect();
        let gp = MultiTaskGp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
        let queries: Vec<Vec<f64>> = (0..14).map(|i| vec![i as f64 / 12.0 - 0.04]).collect();
        let chunks: [Vec<&[f64]>; 4] = [
            queries[..8].iter().map(Vec::as_slice).collect(),
            queries[8..12]
                .iter()
                .map(Vec::as_slice)
                .chain([xs[7].as_slice()])
                .collect(),
            vec![queries[13].as_slice()],
            queries.iter().map(Vec::as_slice).collect(),
        ];
        for chunk in &chunks {
            let swept = gp.predictions(chunk).unwrap();
            let oracle: Vec<MultiTaskPrediction> = chunk
                .chunks(CHUNK)
                .flat_map(|chunk| strided_chunk_oracle(&gp, chunk))
                .collect();
            assert_eq!(swept.len(), chunk.len());
            for ((q, s), o) in chunk.iter().zip(&swept).zip(&oracle) {
                for t in 0..3 {
                    assert_eq!(
                        s.mean[t].to_bits(),
                        o.mean[t].to_bits(),
                        "mean[{t}] at {q:?}"
                    );
                    for u in 0..3 {
                        assert_eq!(
                            s.cov[(t, u)].to_bits(),
                            o.cov[(t, u)].to_bits(),
                            "cov[({t},{u})] at {q:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn predict_tails_matches_predict_bitwise() {
        // A link level on 2 directive features plus 3 tail dimensions.
        // Groups of 7, 1, 7, 7 and 1 tails make 23 queries, so chunks of 8
        // cut through groups; one query is a training input. Each flat
        // result must be `predict`'s at the concatenated input.
        let xs: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let s = i as f64 / 11.0;
                vec![s, (3.0 * s).cos(), (2.0 * s).sin(), s * s, 0.5 - s]
            })
            .collect();
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![x[0] + x[2], x[3] - x[1], (x[4] * 3.0).sin()])
            .collect();
        let cfg = GpConfig {
            restarts: 1,
            max_evals: 80,
            ..Default::default()
        };
        let gp = MultiTaskGp::fit(Matern52::iso_plus_tail(2, 3), &xs, &ys, &cfg).unwrap();
        let tails = |g: usize, k: usize| -> Vec<f64> {
            (0..3 * k)
                .map(|j| ((g * 31 + j) as f64 * 0.37).sin())
                .collect()
        };
        let mut own = xs[5][2..].to_vec();
        own.extend(tails(9, 6));
        let xs_g: [Vec<f64>; 5] = [
            vec![0.1, 0.9],
            vec![0.7, -0.2],
            xs[5][..2].to_vec(),
            vec![0.45, 0.3],
            vec![1.1, 0.0],
        ];
        let tails_g = [tails(0, 7), tails(1, 1), own, tails(3, 7), tails(4, 1)];
        let groups: Vec<(&[f64], &[f64])> = xs_g
            .iter()
            .zip(&tails_g)
            .map(|(x, t)| (x.as_slice(), t.as_slice()))
            .collect();
        let (mean, cov) = gp.predict_tails(&groups).unwrap();
        let queries: Vec<Vec<f64>> = groups
            .iter()
            .flat_map(|&(x, t)| t.chunks_exact(3).map(move |t| [x, t].concat()))
            .collect();
        assert_eq!(queries.len(), 23);
        assert_eq!((mean.len(), cov.len()), (23 * 3, 23 * 9));
        for (j, q) in queries.iter().enumerate() {
            let p = gp.predict(q).unwrap();
            for u in 0..3 {
                assert_eq!(
                    p.mean[u].to_bits(),
                    mean[j * 3 + u].to_bits(),
                    "mean[{u}] at {q:?}"
                );
                for v in 0..3 {
                    let got = cov[j * 9 + u * 3 + v];
                    assert_eq!(
                        p.cov[(u, v)].to_bits(),
                        got.to_bits(),
                        "cov[({u},{v})] at {q:?}"
                    );
                }
            }
        }
        // An `x` that leaves no tail, and tails that do not split.
        assert!(gp.predict_tails(&[(&xs[0], &[])]).is_err());
        assert!(gp.predict_tails(&[(&xs[0][..2], &[0.1; 4])]).is_err());
        assert_eq!(gp.predict_tails(&[]).unwrap(), (vec![], vec![]));
    }

    /// The search oracle's Kronecker construction: a zero entry of `a`
    /// leaves its block `+0.0`, every other entry is the single product
    /// `a[(i, j)]·b[(p, q)]`.
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

    #[test]
    fn write_joint_upper_matches_the_kronecker_construction_bitwise() {
        // Each upper entry of the written joint covariance must be the bits
        // of the entry the oracle's `Cholesky::new` reads in its place: the
        // mirrored lower entry of `k_C ⊗ B + diag(σ²)` built from the full
        // Gram. The last input is so far out that its Gram entries underflow
        // to zero, where a product with a negative `B` entry would be -0.0.
        // `B` is not bitwise symmetric: one zero pair differs in sign, one
        // entry is NaN against a finite mirror.
        let mut xs = grid_1d(6);
        xs.push(vec![1e3]);
        let n = xs.len();
        let mut kernel = Matern52::ard(1);
        kernel.set_log_params(&[-1.0, 0.3]);
        let full = Matrix::from_fn(n, n, |i, j| kernel.eval(&xs[i], &xs[j]));
        assert_eq!(full[(0, n - 1)].to_bits(), 0);
        let mut kx = Matrix::from_fn(n, n, |_, _| f64::NAN);
        kernel.gram_into(&xs, &mut kx);
        let b3 = Matrix::from_rows(&[&[1.5, 0.0, -0.4], &[-0.0, 0.9, f64::NAN], &[-0.4, 0.2, 2.0]]);
        let b1 = Matrix::from_rows(&[&[0.7]]);
        for b in [b3.unwrap(), b1.unwrap()] {
            let m = b.rows();
            let noise: Vec<f64> = (0..m).map(|t| 0.1 / (t + 1) as f64).collect();
            let mut want = kron(&full, &b);
            for r in 0..n * m {
                want[(r, r)] += noise[r % m];
            }
            let mut got = Matrix::from_fn(n * m, n * m, |_, _| f64::NAN);
            write_joint_upper(&kx, &b, &noise, &mut got);
            for r in 0..n * m {
                for c in r..n * m {
                    let (g, w) = (got[(r, c)], want[(c, r)]);
                    assert_eq!(g.to_bits(), w.to_bits(), "M={m} ({r},{c}): {g} vs {w}");
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
