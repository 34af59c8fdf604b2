//! The combined surrogate stack of Fig. 7: one multi-objective model per
//! fidelity, composed across fidelities, with the paper's choices and the
//! baseline/ablation alternatives selectable through [`ModelVariant`].

use crate::CmmfError;
use gp::kernel::Matern52;
use gp::multifidelity::{FidelityData, LinearMultiFidelityGp, NonLinearMultiFidelityGp};
use gp::{FitStats, GpConfig, GpError, MultiTaskGp, MultiTaskPrediction, Prediction};
use linalg::Matrix;

/// Number of fidelities (hls, syn, impl).
pub const N_FIDELITIES: usize = 3;
/// Number of objectives (Power, Delay, LUT).
pub const N_OBJECTIVES: usize = 3;

/// Which surrogate structure the optimizer uses — the two axes the paper
/// claims matter (Secs. IV-A and IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelVariant {
    /// Model the objectives jointly with a task-covariance (Eq. 9) instead of
    /// independent GPs.
    pub correlated_objectives: bool,
    /// Compose fidelities non-linearly (Eq. 5: the lower fidelity's posterior
    /// is an *input feature* of the next fidelity's GP, on top of a linear
    /// backbone). When `false`, independent objectives use the linear AR(1)
    /// chain of FPL18, and correlated objectives get no cross-fidelity
    /// transfer at all: each fidelity's model fits its own data
    /// ([`FidelityModelStack::CorrelatedPlain`]).
    pub nonlinear_fidelity: bool,
}

impl ModelVariant {
    /// The paper's method: correlated + non-linear.
    pub fn paper() -> Self {
        ModelVariant {
            correlated_objectives: true,
            nonlinear_fidelity: true,
        }
    }

    /// The FPL18 baseline: independent objectives, linear multi-fidelity.
    pub fn fpl18() -> Self {
        ModelVariant {
            correlated_objectives: false,
            nonlinear_fidelity: false,
        }
    }

    /// Display name used by the harnesses.
    pub fn name(self) -> &'static str {
        match (self.correlated_objectives, self.nonlinear_fidelity) {
            (true, true) => "Ours",
            (false, false) => "FPL18",
            (true, false) => "Corr+NoTransfer",
            (false, true) => "Indep+Nonlinear",
        }
    }
}

impl Default for ModelVariant {
    fn default() -> Self {
        ModelVariant::paper()
    }
}

/// Per-fidelity training data: encoded configurations and (normalized)
/// objective rows, with the nesting `xs[impl] ⊆ xs[syn] ⊆ xs[hls]` maintained
/// by the optimizer.
#[derive(Debug, Clone, Default)]
pub struct FidelityDataSet {
    /// Encoded inputs per fidelity.
    pub xs: [Vec<Vec<f64>>; N_FIDELITIES],
    /// Objective rows per fidelity, aligned with `xs`.
    pub ys: [Vec<Vec<f64>>; N_FIDELITIES],
}

impl FidelityDataSet {
    /// Number of observations at fidelity `f`.
    pub fn len(&self, f: usize) -> usize {
        self.xs[f].len()
    }

    /// Whether any fidelity has no data.
    pub fn any_empty(&self) -> bool {
        self.xs.iter().any(Vec::is_empty)
    }
}

/// One upper fidelity of the correlated non-linear stack:
/// `y_f = ρ ⊙ μ_{f-1}(x) + z([x, μ_{f-1}(x)])` with `z` a correlated
/// multi-task GP over the grouped kernel ([`Matern52::iso_plus_tail`]).
#[derive(Debug, Clone)]
pub struct CorrelatedLevel {
    rhos: Vec<f64>,
    gp: MultiTaskGp,
}

/// The fitted surrogate stack for all fidelities.
///
/// The variants differ in size because the correlated variants own full
/// multi-task GPs; a handful of stacks exist per run, so boxing the large
/// variant would buy nothing and churn every match site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum FidelityModelStack {
    /// The paper's stack: a correlated GP at the base fidelity, and for every
    /// higher fidelity a per-objective linear backbone `ρ` plus a correlated
    /// GP over `[x, μ_{f-1,1}(x), …, μ_{f-1,M}(x)]` capturing the non-linear
    /// part of Eq. 5 (Fig. 7's orange arrows). Lower-fidelity posterior
    /// uncertainty is pushed through each level by an unscented transform.
    CorrelatedNonlinear {
        /// The lowest-fidelity correlated model.
        base: MultiTaskGp,
        /// One level per higher fidelity, lowest first.
        uppers: Vec<CorrelatedLevel>,
    },
    /// Ablation: correlated objectives but no cross-fidelity transfer (each
    /// fidelity fits its own data on plain `x`).
    CorrelatedPlain(Vec<MultiTaskGp>),
    /// FPL18: per-objective linear AR(1) chains, independent across
    /// objectives.
    IndependentLinear(Vec<LinearMultiFidelityGp>),
    /// Ablation: per-objective *non-linear* chains, independent across
    /// objectives.
    IndependentNonlinear(Vec<NonLinearMultiFidelityGp>),
}

impl FidelityModelStack {
    /// Fits the stack selected by `variant` on `data`. With `previous` (the
    /// stack from the last iteration), every sub-model re-uses that stack's
    /// hyperparameters and is rebuilt on `data` from scratch (linear
    /// backbones are recomputed — they are closed-form) instead of re-running
    /// the marginal-likelihood search; this is the cheap per-iteration update
    /// of the BO loop, with full searches every `CmmfConfig::refit_every`
    /// steps. Every sub-model runs the search when `previous` is `None` or
    /// another variant, and so does a correlated sub-model whose previous
    /// model has another input dimension.
    ///
    /// # Errors
    ///
    /// [`CmmfError::Model`] if any underlying GP fit fails.
    pub fn fit(
        variant: ModelVariant,
        data: &FidelityDataSet,
        gp_cfg: &GpConfig,
        previous: Option<&FidelityModelStack>,
    ) -> Result<Self, CmmfError> {
        if data.any_empty() {
            return Err(CmmfError::Internal {
                reason: "fit called with an empty fidelity".into(),
            });
        }
        match (variant.correlated_objectives, variant.nonlinear_fidelity) {
            (true, true) => Self::fit_correlated_nonlinear(data, gp_cfg, previous),
            (true, false) => Self::fit_correlated_plain(data, gp_cfg, previous),
            (false, nonlinear) => Self::fit_independent(data, gp_cfg, nonlinear, previous),
        }
    }

    fn fit_correlated_nonlinear(
        data: &FidelityDataSet,
        gp_cfg: &GpConfig,
        previous: Option<&FidelityModelStack>,
    ) -> Result<Self, CmmfError> {
        let x_dim = data.xs[0][0].len();
        let (prev_base, prev_uppers) = match previous {
            Some(FidelityModelStack::CorrelatedNonlinear { base, uppers }) => {
                (Some(base), uppers.as_slice())
            }
            _ => (None, &[][..]),
        };
        let base = match prev_base {
            Some(b) if b.dim() == x_dim => b.refit(&data.xs[0], &data.ys[0])?,
            _ => MultiTaskGp::fit(Matern52::ard(x_dim), &data.xs[0], &data.ys[0], gp_cfg)?,
        };
        let mut uppers: Vec<CorrelatedLevel> = Vec::with_capacity(N_FIDELITIES - 1);
        for f in 1..N_FIDELITIES {
            // Lower-fidelity posterior means at this fidelity's inputs: one
            // batched pass through the levels fitted so far.
            let prevs = chain_batch(&base, &uppers, &data.xs[f])?
                .pop()
                .ok_or_else(no_chain_level)?;
            // Per-objective linear backbone.
            let mut rhos = vec![1.0; N_OBJECTIVES];
            for (obj, rho) in rhos.iter_mut().enumerate() {
                let num: f64 = prevs
                    .iter()
                    .zip(&data.ys[f])
                    .map(|(p, y)| p.mean[obj] * y[obj])
                    .sum();
                let den: f64 = prevs.iter().map(|p| p.mean[obj] * p.mean[obj]).sum();
                if den > 1e-12 {
                    *rho = num / den;
                }
            }
            // Correlated residual GP on augmented inputs.
            let aug: Vec<Vec<f64>> = data.xs[f]
                .iter()
                .zip(&prevs)
                .map(|(x, p)| {
                    let mut a = x.clone();
                    a.extend(p.mean.iter().copied());
                    a
                })
                .collect();
            let residuals: Vec<Vec<f64>> = data.ys[f]
                .iter()
                .zip(&prevs)
                .map(|(y, p)| {
                    (0..N_OBJECTIVES)
                        .map(|o| y[o] - rhos[o] * p.mean[o])
                        .collect()
                })
                .collect();
            let gp = match prev_uppers.get(f - 1) {
                Some(level) if level.gp.dim() == x_dim + N_OBJECTIVES => {
                    level.gp.refit(&aug, &residuals)?
                }
                _ => MultiTaskGp::fit(
                    Matern52::iso_plus_tail(x_dim, N_OBJECTIVES),
                    &aug,
                    &residuals,
                    gp_cfg,
                )?,
            };
            uppers.push(CorrelatedLevel { rhos, gp });
        }
        Ok(FidelityModelStack::CorrelatedNonlinear { base, uppers })
    }

    fn fit_correlated_plain(
        data: &FidelityDataSet,
        gp_cfg: &GpConfig,
        previous: Option<&FidelityModelStack>,
    ) -> Result<Self, CmmfError> {
        let x_dim = data.xs[0][0].len();
        let prev_models = match previous {
            Some(FidelityModelStack::CorrelatedPlain(v)) => v.as_slice(),
            _ => &[],
        };
        let mut fitted = Vec::with_capacity(N_FIDELITIES);
        for f in 0..N_FIDELITIES {
            let model = match prev_models.get(f) {
                Some(m) if m.dim() == x_dim => m.refit(&data.xs[f], &data.ys[f])?,
                _ => MultiTaskGp::fit(Matern52::ard(x_dim), &data.xs[f], &data.ys[f], gp_cfg)?,
            };
            fitted.push(model);
        }
        Ok(FidelityModelStack::CorrelatedPlain(fitted))
    }

    fn fit_independent(
        data: &FidelityDataSet,
        gp_cfg: &GpConfig,
        nonlinear: bool,
        previous: Option<&FidelityModelStack>,
    ) -> Result<Self, CmmfError> {
        let mut per_obj_linear = Vec::new();
        let mut per_obj_nonlinear = Vec::new();
        for obj in 0..N_OBJECTIVES {
            let levels: Vec<FidelityData> = (0..N_FIDELITIES)
                .map(|f| {
                    FidelityData::new(
                        data.xs[f].clone(),
                        data.ys[f].iter().map(|row| row[obj]).collect(),
                    )
                })
                .collect();
            if nonlinear {
                let prev = match previous {
                    Some(FidelityModelStack::IndependentNonlinear(v)) => v.get(obj),
                    _ => None,
                };
                per_obj_nonlinear.push(match prev {
                    Some(m) => m.refit(&levels)?,
                    None => NonLinearMultiFidelityGp::fit(&levels, gp_cfg)?,
                });
            } else {
                let prev = match previous {
                    Some(FidelityModelStack::IndependentLinear(v)) => v.get(obj),
                    _ => None,
                };
                per_obj_linear.push(match prev {
                    Some(m) => m.refit(&levels)?,
                    None => LinearMultiFidelityGp::fit(&levels, gp_cfg)?,
                });
            }
        }
        Ok(if nonlinear {
            FidelityModelStack::IndependentNonlinear(per_obj_nonlinear)
        } else {
            FidelityModelStack::IndependentLinear(per_obj_linear)
        })
    }

    /// Joint posterior over the objectives at fidelity `f` for encoded input
    /// `x`. Independent variants return a diagonal covariance.
    ///
    /// # Errors
    ///
    /// [`CmmfError::Model`] on dimension mismatches, or
    /// [`CmmfError::Internal`] for an out-of-range fidelity.
    pub fn predict(&self, f: usize, x: &[f64]) -> Result<MultiTaskPrediction, CmmfError> {
        self.predict_batch(f, &[x.to_vec()])?
            .pop()
            .ok_or_else(|| CmmfError::Internal {
                reason: "batch prediction returned nothing for one query".into(),
            })
    }

    /// Joint posteriors at fidelity `f` for many encoded inputs at once.
    /// Bit-identical to mapping [`FidelityModelStack::predict`] over `xs`.
    ///
    /// The correlated variants batch for real: the plain stack runs one
    /// chunked [`MultiTaskGp::predict_batch`], and the non-linear chain
    /// propagates level-synchronously — all points' sigma points are stacked
    /// into a single level-GP batch per level, so each traversal of a level's
    /// `nM × nM` factor serves a wide column block instead of one sigma point
    /// (see `propagate_unscented_batch`). The independent variants predict
    /// point by point. Every chunk and level prediction is bitwise-pinned to
    /// its single-query form, so a point's posterior does not depend on the
    /// batch it arrives in.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FidelityModelStack::predict`].
    pub fn predict_batch(
        &self,
        f: usize,
        xs: &[Vec<f64>],
    ) -> Result<Vec<MultiTaskPrediction>, CmmfError> {
        if f >= N_FIDELITIES {
            return Err(CmmfError::Internal {
                reason: format!("fidelity {f} out of range"),
            });
        }
        match self {
            FidelityModelStack::CorrelatedNonlinear { base, uppers } => {
                chain_batch(base, &uppers[..f.min(uppers.len())], xs)?
                    .pop()
                    .ok_or_else(no_chain_level)
            }
            FidelityModelStack::CorrelatedPlain(models) => Ok(models[f].predict_batch(xs)?),
            FidelityModelStack::IndependentLinear(per_obj) => Ok(xs
                .iter()
                .map(|x| diagonal(per_obj.iter().map(|m| m.predict(f, x))))
                .collect::<Result<_, _>>()?),
            FidelityModelStack::IndependentNonlinear(per_obj) => Ok(xs
                .iter()
                .map(|x| diagonal(per_obj.iter().map(|m| m.predict(f, x))))
                .collect::<Result<_, _>>()?),
        }
    }

    /// Joint posteriors at *every* fidelity for many encoded inputs:
    /// `out[i][f]` is the fidelity-`f` posterior at `xs[i]`. The paper's
    /// stack answers all fidelities from one pass up its chain — the base
    /// batch once, then each level's unscented propagation of the fidelity
    /// below — instead of recomputing the lower fidelities per fidelity; the
    /// other variants predict each fidelity in turn. Bit-identical to
    /// [`FidelityModelStack::predict`] at every `(f, x)` — the acquisition
    /// step's candidate caches are built through it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FidelityModelStack::predict`].
    pub fn predict_all(&self, xs: &[Vec<f64>]) -> Result<Vec<Vec<MultiTaskPrediction>>, CmmfError> {
        let levels = match self {
            FidelityModelStack::CorrelatedNonlinear { base, uppers } => {
                chain_batch(base, uppers, xs)?
            }
            _ => (0..N_FIDELITIES)
                .map(|f| self.predict_batch(f, xs))
                .collect::<Result<_, _>>()?,
        };
        Ok(per_point(levels, xs.len()))
    }

    /// Learned objective-correlation matrix at fidelity `f`, if this stack is
    /// correlated (diagnostics for Sec. IV-B; `None` for independent
    /// variants). For upper fidelities of the non-linear stack, this is the
    /// residual model's correlation.
    pub fn task_correlations(&self, f: usize) -> Option<Matrix> {
        fn corr(m: &MultiTaskGp) -> Matrix {
            let mut c = Matrix::zeros(m.n_tasks(), m.n_tasks());
            for i in 0..m.n_tasks() {
                for j in 0..m.n_tasks() {
                    c[(i, j)] = m.task_correlation(i, j);
                }
            }
            c
        }
        match self {
            FidelityModelStack::CorrelatedNonlinear { base, uppers } => {
                if f == 0 {
                    Some(corr(base))
                } else {
                    uppers.get(f - 1).map(|l| corr(&l.gp))
                }
            }
            FidelityModelStack::CorrelatedPlain(models) => models.get(f).map(corr),
            _ => None,
        }
    }

    /// Summed hyperparameter-search telemetry over every sub-model fit that
    /// produced this stack: NLL evaluations and restarts run. All zeros for
    /// a stack fitted from a previous one, which runs no search.
    pub fn fit_stats(&self) -> FitStats {
        let mut s = FitStats::default();
        match self {
            FidelityModelStack::CorrelatedNonlinear { base, uppers } => {
                s.absorb(base.fit_stats());
                for level in uppers {
                    s.absorb(level.gp.fit_stats());
                }
            }
            FidelityModelStack::CorrelatedPlain(models) => {
                for m in models {
                    s.absorb(m.fit_stats());
                }
            }
            FidelityModelStack::IndependentLinear(per_obj) => {
                for m in per_obj {
                    s.absorb(m.fit_stats());
                }
            }
            FidelityModelStack::IndependentNonlinear(per_obj) => {
                for m in per_obj {
                    s.absorb(m.fit_stats());
                }
            }
        }
        s
    }
}

/// Posteriors of the correlated non-linear chain for many encoded inputs at
/// once, one batch per fidelity (lowest first): the base GP's batch, then
/// each level's unscented propagation of the fidelity below. Shared by
/// prediction (the whole chain or a prefix of it) and the fit loop, which
/// predicts through the levels fitted so far while fitting the next and so
/// cannot hold a complete stack yet.
fn chain_batch(
    base: &MultiTaskGp,
    uppers: &[CorrelatedLevel],
    xs: &[Vec<f64>],
) -> Result<Vec<Vec<MultiTaskPrediction>>, CmmfError> {
    let mut levels = Vec::with_capacity(uppers.len() + 1);
    let mut preds = base.predict_batch(xs)?;
    for level in uppers {
        let next = propagate_unscented_batch(level, xs, &preds)?;
        levels.push(std::mem::replace(&mut preds, next));
    }
    levels.push(preds);
    Ok(levels)
}

/// The error for a [`chain_batch`] pass without levels, which cannot happen:
/// every pass yields at least the base batch.
fn no_chain_level() -> CmmfError {
    CmmfError::Internal {
        reason: "fidelity chain pass returned no level".into(),
    }
}

/// Transposes per-fidelity batches (`levels[f][i]`) into per-point rows
/// (`out[i][f]`).
fn per_point(levels: Vec<Vec<MultiTaskPrediction>>, n: usize) -> Vec<Vec<MultiTaskPrediction>> {
    let mut out: Vec<Vec<MultiTaskPrediction>> =
        (0..n).map(|_| Vec::with_capacity(levels.len())).collect();
    for level in levels {
        for (row, p) in out.iter_mut().zip(level) {
            row.push(p);
        }
    }
    out
}

/// One independent-objectives posterior: per-objective means with a
/// diagonal covariance.
fn diagonal(
    per_obj: impl Iterator<Item = Result<Prediction, GpError>>,
) -> Result<MultiTaskPrediction, GpError> {
    let mut mean = Vec::with_capacity(N_OBJECTIVES);
    let mut vars = Vec::with_capacity(N_OBJECTIVES);
    for p in per_obj {
        let p = p?;
        mean.push(p.mean);
        vars.push(p.var);
    }
    Ok(MultiTaskPrediction {
        mean,
        cov: Matrix::from_diag(&vars),
    })
}

/// Pushes a Gaussian belief about the lower fidelity's objectives through one
/// [`CorrelatedLevel`] with the unscented transform (λ = 1), for many query
/// points at once: sigma points of each lower posterior are mapped through
/// `ρ ⊙ v + z([x, v])` and moment-matched. Without this, the chain's
/// high-fidelity variance collapses and the acquisition stops escalating
/// fidelities.
///
/// Every query point's sigma points are stacked into one level-GP query
/// list, so the expensive triangular solves against the level's `nM × nM`
/// factor run as wide column blocks instead of one sweep per sigma point.
/// The per-point sigma construction and moment-matching do not look across
/// points, and the batched level prediction is bitwise-pinned to its
/// per-point form, so a point's result does not depend on the batch it
/// arrives in.
fn propagate_unscented_batch(
    level: &CorrelatedLevel,
    xs: &[Vec<f64>],
    lowers: &[MultiTaskPrediction],
) -> Result<Vec<MultiTaskPrediction>, CmmfError> {
    let lambda = 1.0;

    // Sigma points of each lower posterior; fall back to the mean if the
    // covariance is numerically singular (e.g. exactly at a training point).
    let mut sigma_sets: Vec<Vec<Vec<f64>>> = Vec::with_capacity(lowers.len());
    let mut aug: Vec<Vec<f64>> = Vec::new();
    for (x, lower) in xs.iter().zip(lowers) {
        let m = lower.mean.len();
        let scale = ((m as f64) + lambda).sqrt();
        let mut sigma_points: Vec<Vec<f64>> = vec![lower.mean.clone()];
        if let Ok(chol) = linalg::Cholesky::new(&lower.cov) {
            let l = chol.l();
            for i in 0..m {
                let mut plus = lower.mean.clone();
                let mut minus = lower.mean.clone();
                for j in 0..m {
                    let d = scale * l[(j, i)];
                    plus[j] += d;
                    minus[j] -= d;
                }
                sigma_points.push(plus);
                sigma_points.push(minus);
            }
        }
        for s in &sigma_points {
            let mut a = x.clone();
            a.extend(s.iter().copied());
            aug.push(a);
        }
        sigma_sets.push(sigma_points);
    }

    struct Mapped {
        mean: Vec<f64>,
        cov: Matrix,
    }
    let mut qs = level.gp.predict_batch(&aug)?.into_iter();

    let mut out = Vec::with_capacity(lowers.len());
    for (lower, sigma_points) in lowers.iter().zip(&sigma_sets) {
        let m = lower.mean.len();
        let w0 = lambda / (m as f64 + lambda);
        let wi = 1.0 / (2.0 * (m as f64 + lambda));
        let weights: Vec<f64> = if sigma_points.len() == 1 {
            vec![1.0]
        } else {
            let mut w = vec![w0];
            w.extend(std::iter::repeat_n(wi, 2 * m));
            w
        };

        let mut mapped = Vec::with_capacity(sigma_points.len());
        for s in sigma_points {
            let q = qs.next().ok_or_else(|| CmmfError::Internal {
                reason: "level GP returned fewer predictions than sigma points".into(),
            })?;
            let mean = (0..m).map(|o| level.rhos[o] * s[o] + q.mean[o]).collect();
            mapped.push(Mapped { mean, cov: q.cov });
        }

        // Moment-match the mixture.
        let mut mean = vec![0.0; m];
        for (w, p) in weights.iter().zip(&mapped) {
            for (mi, pm) in mean.iter_mut().zip(&p.mean) {
                *mi += w * pm;
            }
        }
        let mut cov = Matrix::zeros(m, m);
        for (w, p) in weights.iter().zip(&mapped) {
            for i in 0..m {
                for j in 0..m {
                    cov[(i, j)] +=
                        w * (p.cov[(i, j)] + (p.mean[i] - mean[i]) * (p.mean[j] - mean[j]));
                }
            }
        }
        out.push(MultiTaskPrediction { mean, cov });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic 3-fidelity, 3-objective data over 1-D inputs.
    fn synthetic() -> FidelityDataSet {
        let f = |x: f64, fid: usize| {
            let base = (5.0 * x).sin();
            let distort = match fid {
                0 => base * 0.8 + 0.1,
                1 => base * 0.95 + 0.02,
                _ => base,
            };
            vec![distort, -distort + 0.1 * x, distort * distort]
        };
        let mut data = FidelityDataSet::default();
        for fid in 0..N_FIDELITIES {
            let n = [16, 10, 6][fid];
            for i in 0..n {
                let x = i as f64 / (n - 1) as f64;
                data.xs[fid].push(vec![x]);
                data.ys[fid].push(f(x, fid));
            }
        }
        data
    }

    fn quick_cfg() -> GpConfig {
        GpConfig {
            restarts: 0,
            max_evals: 80,
            ..Default::default()
        }
    }

    fn all_variants() -> [ModelVariant; 4] {
        [
            ModelVariant::paper(),
            ModelVariant::fpl18(),
            ModelVariant {
                correlated_objectives: true,
                nonlinear_fidelity: false,
            },
            ModelVariant {
                correlated_objectives: false,
                nonlinear_fidelity: true,
            },
        ]
    }

    #[test]
    fn predict_batch_matches_predict_bitwise_in_every_variant() {
        // The batched stack prediction (level-synchronous sigma-point
        // stacking for the non-linear chain, chunked GP batches for the
        // plain one) and the all-fidelity chain pass must both reproduce the
        // per-point path bit for bit — the optimizer's candidate caches are
        // built through the latter. 19 points span several GP chunks and
        // split across workers.
        let data = synthetic();
        let cfg = quick_cfg();
        let xs: Vec<Vec<f64>> = (0..19).map(|i| vec![0.05 + 0.05 * i as f64]).collect();
        let same_bits = |a: &MultiTaskPrediction, b: &MultiTaskPrediction, label: &str| {
            assert_eq!(a.mean.len(), b.mean.len(), "{label}: objectives");
            for (am, bm) in a.mean.iter().zip(&b.mean) {
                assert_eq!(am.to_bits(), bm.to_bits(), "{label}: mean");
            }
            for i in 0..N_OBJECTIVES {
                for j in 0..N_OBJECTIVES {
                    assert_eq!(
                        a.cov[(i, j)].to_bits(),
                        b.cov[(i, j)].to_bits(),
                        "{label}: cov ({i},{j})"
                    );
                }
            }
        };
        for variant in all_variants() {
            let stack = FidelityModelStack::fit(variant, &data, &cfg, None)
                .unwrap_or_else(|e| panic!("{}: {e}", variant.name()));
            let all = stack.predict_all(&xs).expect("chain pass predicts");
            assert_eq!(all.len(), xs.len(), "{}", variant.name());
            for f in 0..N_FIDELITIES {
                let batch = stack.predict_batch(f, &xs).expect("batch predicts");
                assert_eq!(batch.len(), xs.len());
                for (i, x) in xs.iter().enumerate() {
                    let p = stack.predict(f, x).expect("predicts");
                    let label = format!("{} f={f} x={x:?}", variant.name());
                    same_bits(&batch[i], &p, &format!("{label} batch"));
                    assert_eq!(all[i].len(), N_FIDELITIES, "{label}");
                    same_bits(&all[i][f], &p, &format!("{label} chain pass"));
                }
            }
        }
    }

    #[test]
    fn all_variants_fit_and_predict() {
        let data = synthetic();
        let cfg = quick_cfg();
        for variant in all_variants() {
            let stack = FidelityModelStack::fit(variant, &data, &cfg, None)
                .unwrap_or_else(|e| panic!("{}: {e}", variant.name()));
            for f in 0..N_FIDELITIES {
                let p = stack.predict(f, &[0.35]).unwrap();
                assert_eq!(p.mean.len(), N_OBJECTIVES, "{}", variant.name());
                for v in p.vars() {
                    assert!(v >= 0.0);
                }
            }
        }
    }

    #[test]
    fn correlated_stack_reports_correlations() {
        let data = synthetic();
        let stack =
            FidelityModelStack::fit(ModelVariant::paper(), &data, &quick_cfg(), None).unwrap();
        let c = stack.task_correlations(0).expect("correlated stack");
        // Objectives 0 and 1 are anti-correlated by construction.
        assert!(c[(0, 1)] < 0.0, "corr={}", c[(0, 1)]);
        // Upper fidelities report residual correlations too.
        assert!(stack.task_correlations(2).is_some());
        // Independent stacks report none.
        let indep =
            FidelityModelStack::fit(ModelVariant::fpl18(), &data, &quick_cfg(), None).unwrap();
        assert!(indep.task_correlations(0).is_none());
    }

    #[test]
    fn refit_reuses_hyperparameters() {
        let data = synthetic();
        let cfg = quick_cfg();
        let first = FidelityModelStack::fit(ModelVariant::paper(), &data, &cfg, None).unwrap();
        // Add a point and refit cheaply.
        let mut more = data.clone();
        more.xs[0].push(vec![0.77]);
        more.ys[0].push(vec![0.5, -0.4, 0.25]);
        let second =
            FidelityModelStack::fit(ModelVariant::paper(), &more, &cfg, Some(&first)).unwrap();
        let p = second.predict(2, &[0.5]).unwrap();
        assert_eq!(p.mean.len(), N_OBJECTIVES);
    }

    #[test]
    fn refit_on_its_own_data_is_that_stack_bitwise_in_every_variant() {
        // A refit from a stack on the data that stack was fitted on rebuilds
        // every level from the same hyperparameters, backbones and inputs,
        // so it must predict the searched fit's posteriors bit for bit at
        // every fidelity: each variant's one chain loop serves both paths.
        let data = synthetic();
        let cfg = quick_cfg();
        let xs: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64 / 6.0]).collect();
        for variant in all_variants() {
            let searched = FidelityModelStack::fit(variant, &data, &cfg, None)
                .unwrap_or_else(|e| panic!("{}: {e}", variant.name()));
            let refit = FidelityModelStack::fit(variant, &data, &cfg, Some(&searched))
                .unwrap_or_else(|e| panic!("{}: {e}", variant.name()));
            assert_eq!(refit.fit_stats(), FitStats::default(), "{}", variant.name());
            let a = searched.predict_all(&xs).expect("chain pass predicts");
            let b = refit.predict_all(&xs).expect("chain pass predicts");
            for (i, x) in xs.iter().enumerate() {
                for f in 0..N_FIDELITIES {
                    let (a, b) = (&a[i][f], &b[i][f]);
                    for o in 0..N_OBJECTIVES {
                        assert_eq!(
                            a.mean[o].to_bits(),
                            b.mean[o].to_bits(),
                            "{} f={f} x={x:?} obj={o}",
                            variant.name()
                        );
                        for u in 0..N_OBJECTIVES {
                            assert_eq!(
                                a.cov[(o, u)].to_bits(),
                                b.cov[(o, u)].to_bits(),
                                "{} f={f} x={x:?} cov ({o},{u})",
                                variant.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_fidelity_errors() {
        let data = synthetic();
        let stack =
            FidelityModelStack::fit(ModelVariant::paper(), &data, &quick_cfg(), None).unwrap();
        assert!(stack.predict(7, &[0.5]).is_err());
    }

    #[test]
    fn nonlinear_transfer_helps_at_the_top_fidelity() {
        // The top fidelity has only 6 points; the paper's stack must predict
        // it at least as well as a correlated model without any
        // cross-fidelity transfer.
        let data = synthetic();
        let cfg = quick_cfg();
        let truth = |x: f64| {
            let b = (5.0 * x).sin();
            vec![b, -b + 0.1 * x, b * b]
        };
        let rmse = |stack: &FidelityModelStack| {
            let mut se = 0.0;
            let mut n = 0.0;
            for i in 0..21 {
                let x = i as f64 / 20.0;
                let p = stack.predict(2, &[x]).unwrap();
                for (m, t) in p.mean.iter().zip(truth(x)) {
                    se += (m - t) * (m - t);
                    n += 1.0;
                }
            }
            (se / n).sqrt()
        };
        let with = FidelityModelStack::fit(ModelVariant::paper(), &data, &cfg, None).unwrap();
        let without = FidelityModelStack::fit(
            ModelVariant {
                correlated_objectives: true,
                nonlinear_fidelity: false,
            },
            &data,
            &cfg,
            None,
        )
        .unwrap();
        assert!(
            rmse(&with) < rmse(&without),
            "transfer did not help: {} vs {}",
            rmse(&with),
            rmse(&without)
        );
    }

    #[test]
    fn uncertainty_propagates_up_the_chain() {
        // Far from all data, the top-fidelity variance must be substantial —
        // not collapsed to the residual GP's noise floor.
        let data = synthetic();
        let stack =
            FidelityModelStack::fit(ModelVariant::paper(), &data, &quick_cfg(), None).unwrap();
        let near = stack.predict(2, &[0.5]).unwrap();
        let far = stack.predict(2, &[3.0]).unwrap();
        let near_v: f64 = near.vars().iter().sum();
        let far_v: f64 = far.vars().iter().sum();
        assert!(far_v > near_v, "far variance {far_v} !> near {near_v}");
    }
}
