use crate::kernel::{DistanceCache, Matern52};
use crate::optimize::{multi_start_nelder_mead_par, NelderMeadOptions};
use crate::GpError;
use linalg::{Cholesky, CholeskyWorkspace};

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

/// Telemetry from one maximum-likelihood hyperparameter search.
///
/// Zeroed on `refit`, which runs no search, so stack-level sums reflect
/// only real search work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitStats {
    /// Total NLL objective evaluations consumed across all starts.
    pub nll_evals: usize,
    /// Nelder–Mead searches run beyond the first (`GpConfig::restarts`).
    pub restarts_run: usize,
}

impl FitStats {
    /// Accumulates another model's stats (for multi-level / multi-task sums).
    pub fn absorb(&mut self, other: FitStats) {
        self.nll_evals += other.nll_evals;
        self.restarts_run += other.restarts_run;
    }
}

/// Observation-noise variance every hyperparameter search starts from
/// (standardized-output units).
pub(crate) const INIT_NOISE_VAR: f64 = 1e-2;

/// Lower bound on the observation-noise variance.
pub(crate) const NOISE_FLOOR: f64 = 1e-8;

/// The maximum-likelihood search of [`Gp::fit`] and
/// [`MultiTaskGp::fit`](crate::MultiTaskGp::fit): its budget and seed. Every
/// search starts from the supplied kernel's parameters and a noise variance
/// of 1e-2 (standardized-output units), and floors the noise at 1e-8.
#[derive(Debug, Clone, PartialEq)]
pub struct GpConfig {
    /// Number of random restarts of the Nelder–Mead search (in addition to the
    /// run from the supplied kernel's parameters).
    pub restarts: usize,
    /// Maximum objective evaluations per Nelder–Mead run.
    pub max_evals: usize,
    /// Seed for the restart sampler.
    pub seed: u64,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            restarts: 2,
            max_evals: 250,
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
pub struct Gp {
    kernel: Matern52,
    xs: Vec<Vec<f64>>,
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

impl Gp {
    /// Fits a GP to `(xs, ys)`, optimizing the kernel hyperparameters and
    /// noise by maximum likelihood (multi-start Nelder–Mead in log space).
    ///
    /// Each start of the search owns one kernel and one `n × n`
    /// [`CholeskyWorkspace`] for its lifetime: an NLL evaluation writes the
    /// upper triangle of `K + σ²I` from the per-fit [`DistanceCache`]
    /// straight into the workspace's buffer (bit-identical to from-scratch
    /// assembly), factors it there into `U = Lᵀ`, solves against `U` row by
    /// row, and allocates nothing. The
    /// starts share the session's threads through one queue, moving between
    /// them so that they end together; each keeps its derived seed, its
    /// objective and its workspace, so the fit is bit-identical at any
    /// thread count (see [`multi_start_nelder_mead_par`]).
    ///
    /// # Errors
    ///
    /// * [`GpError::InvalidTrainingData`] if `xs` is empty, `xs.len() != ys.len()`,
    ///   any row's dimension differs from `kernel.dim()`, or any value is
    ///   non-finite.
    /// * [`GpError::Numerical`] if the covariance cannot be factorized at the
    ///   optimum (rare; jitter is escalated automatically first).
    pub fn fit(
        kernel: Matern52,
        xs: &[Vec<f64>],
        ys: &[f64],
        cfg: &GpConfig,
    ) -> Result<Self, GpError> {
        validate(xs, ys, kernel.dim())?;
        let (y_std, y_mean, y_scale) = standardize(ys);

        let mut p0 = kernel.log_params();
        p0.push(INIT_NOISE_VAR.ln());
        let cache = DistanceCache::new(xs);
        let objective = || {
            let mut start = SearchObjective::new(&kernel, &cache, &y_std);
            move |p: &[f64]| start.nll(p)
        };
        let opts = NelderMeadOptions {
            max_evals: cfg.max_evals,
            ..Default::default()
        };
        let best = multi_start_nelder_mead_par(objective, &p0, 1.5, cfg.restarts, &opts, cfg.seed);
        let stats = FitStats {
            nll_evals: best.evals,
            restarts_run: cfg.restarts,
        };
        let mut kernel = kernel;
        let mut noise_var = INIT_NOISE_VAR;
        if best.value.is_finite() {
            kernel.set_log_params(&best.x[..best.x.len() - 1]);
            noise_var = best.x[best.x.len() - 1].exp().max(NOISE_FLOOR);
        }

        let (chol, alpha, nlml_val) = factorize(&kernel, xs, &y_std, noise_var)?;
        Ok(Gp {
            kernel,
            xs: xs.to_vec(),
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
        let (chol, alpha, nlml_val) = factorize(&self.kernel, xs, &y_std, self.noise_var)?;
        Ok(Gp {
            kernel: self.kernel.clone(),
            xs: xs.to_vec(),
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

    /// The fitted kernel.
    pub fn kernel(&self) -> &Matern52 {
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

    /// Telemetry from this model's own hyperparameter search. Zeroed on a
    /// refit, which runs no search, so summing over a model stack counts
    /// only real search work.
    pub fn fit_stats(&self) -> FitStats {
        self.stats
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

/// One start of [`Gp::fit`]'s search: it owns one kernel, an `n × n`
/// [`CholeskyWorkspace`] and the solve vector for the start's lifetime, so
/// an evaluation writes the upper triangle of `K + σ²I` from the per-fit
/// [`DistanceCache`] into the workspace's buffer row by row, factors it
/// there into `U = Lᵀ`, solves against `U` with contiguous row walks only,
/// and allocates nothing.
pub(crate) struct SearchObjective<'a> {
    cache: &'a DistanceCache,
    y_std: &'a [f64],
    kernel: Matern52,
    ws: CholeskyWorkspace,
    alpha: Vec<f64>,
}

impl<'a> SearchObjective<'a> {
    pub(crate) fn new(kernel: &Matern52, cache: &'a DistanceCache, y_std: &'a [f64]) -> Self {
        SearchObjective {
            cache,
            y_std,
            kernel: kernel.clone(),
            ws: CholeskyWorkspace::new(y_std.len()),
            alpha: vec![0.0; y_std.len()],
        }
    }

    /// The NLL at `p = [kernel log params | log noise variance]` (noise
    /// floored), `+∞` where no jitter makes the covariance factorable.
    pub(crate) fn nll(&mut self, p: &[f64]) -> f64 {
        let (kp, log_nv) = p.split_at(p.len() - 1);
        self.kernel.set_log_params(kp);
        let nv = log_nv[0].exp().max(NOISE_FLOOR);
        let (kernel, cache) = (&self.kernel, self.cache);
        let factored = self.ws.factor(|u| {
            kernel.gram_from_cache(cache, u);
            u.add_diag(nv);
        });
        match factored {
            Ok(chol) if chol.solve_into(self.y_std, &mut self.alpha).is_ok() => {
                nlml_from(chol.log_det(), self.y_std, &self.alpha)
            }
            _ => f64::INFINITY,
        }
    }
}

/// Builds and factorizes `K + σ²I` for a final fit or a refit, writing its
/// upper triangle straight into the factor's storage; returns
/// `(chol, α = K⁻¹y, NLML)`.
fn factorize(
    kernel: &Matern52,
    xs: &[Vec<f64>],
    y_std: &[f64],
    noise_var: f64,
) -> Result<(Cholesky, Vec<f64>, f64), GpError> {
    let chol = Cholesky::from_upper(xs.len(), |u| {
        kernel.gram_into(xs, u);
        u.add_diag(noise_var);
    })?;
    let alpha = chol.solve_vec(y_std)?;
    let nlml = nlml_from(chol.log_det(), y_std, &alpha);
    Ok((chol, alpha, nlml))
}

/// `NLML = ½ yᵀα + ½ log|K| + ½ n log 2π` — one expression shared by the
/// final factorization and the search objective.
pub(crate) fn nlml_from(log_det: f64, y_std: &[f64], alpha: &[f64]) -> f64 {
    let fit_term: f64 = y_std.iter().zip(alpha).map(|(y, a)| y * a).sum();
    0.5 * fit_term + 0.5 * log_det + 0.5 * y_std.len() as f64 * (2.0 * std::f64::consts::PI).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let xs = grid_1d(8);
        let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
        let gp = Gp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x).unwrap();
            assert!((p.mean - y).abs() < 0.05, "at {x:?}: {} vs {y}", p.mean);
        }
    }

    #[test]
    fn variance_smaller_at_data_than_far_away() {
        let xs = grid_1d(6);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        let gp = Gp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
        let at_data = gp.predict(&[0.4]).unwrap().var;
        let far = gp.predict(&[5.0]).unwrap().var;
        assert!(at_data < far);
    }

    #[test]
    fn mle_improves_over_defaults() {
        let xs = grid_1d(12);
        // A fast-varying function: the default lengthscale 1.0 is far too long.
        let ys: Vec<f64> = xs.iter().map(|x| (20.0 * x[0]).sin()).collect();
        // The NLL at the search's starting point: unit kernel, initial noise.
        let (y_std, _, _) = standardize(&ys);
        let (_, _, at_start) = factorize(&Matern52::ard(1), &xs, &y_std, INIT_NOISE_VAR).unwrap();
        let fitted = Gp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
        assert!(
            fitted.neg_log_marginal_likelihood() < at_start,
            "{} !< {at_start}",
            fitted.neg_log_marginal_likelihood()
        );
    }

    #[test]
    fn constant_outputs_are_handled() {
        let xs = grid_1d(5);
        let ys = vec![2.5; 5];
        let gp = Gp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
        let p = gp.predict(&[0.3]).unwrap();
        assert!((p.mean - 2.5).abs() < 1e-6);
    }

    #[test]
    fn rejects_empty_and_ragged_data() {
        let cfg = GpConfig::default();
        assert!(matches!(
            Gp::fit(Matern52::ard(1), &[], &[], &cfg),
            Err(GpError::InvalidTrainingData { .. })
        ));
        assert!(matches!(
            Gp::fit(Matern52::ard(1), &[vec![0.0, 1.0]], &[1.0], &cfg),
            Err(GpError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Gp::fit(Matern52::ard(1), &[vec![0.0]], &[1.0, 2.0], &cfg),
            Err(GpError::InvalidTrainingData { .. })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let cfg = GpConfig::default();
        assert!(Gp::fit(Matern52::ard(1), &[vec![f64::NAN]], &[1.0], &cfg).is_err());
        assert!(Gp::fit(Matern52::ard(1), &[vec![0.0]], &[f64::INFINITY], &cfg).is_err());
    }

    #[test]
    fn predict_dimension_mismatch() {
        let xs = grid_1d(4);
        let ys = vec![0.0, 1.0, 0.0, 1.0];
        let gp = Gp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
        assert!(matches!(
            gp.predict(&[0.0, 0.0]),
            Err(GpError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn fit_stats_carry_through_derived_models() {
        let xs = grid_1d(10);
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).cos()).collect();
        let gp = Gp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
        assert!(gp.fit_stats().nll_evals > 0);
        assert_eq!(gp.fit_stats().restarts_run, GpConfig::default().restarts);
        // No search ran: telemetry is zeroed.
        assert_eq!(gp.refit(&xs, &ys).unwrap().fit_stats(), FitStats::default());
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
        let gp = Gp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default()).unwrap();
        assert!(gp.noise_var() > 1e-6);
        // Mean should average the duplicates.
        let p = gp.predict(&[0.5]).unwrap();
        assert!((p.mean - 0.5).abs() < 0.1);
    }
}
