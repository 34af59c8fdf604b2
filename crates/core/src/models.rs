//! The combined surrogate stack of Fig. 7: one chain of models up the
//! fidelities, lowest first, where each fidelity's model is built on the one
//! below it (Eq. 5). [`ModelVariant`] picks the paper's chain or one of the
//! baseline/ablation chains: the objectives are modelled jointly (Eq. 9) or
//! by one GP each, and each link up the chain is non-linear (Eq. 5), linear
//! (FPL18's AR(1)) or absent. One loop fits every variant and one pass up
//! the chain predicts it.

use crate::CmmfError;
use gp::kernel::Matern52;
use gp::{FitStats, Gp, GpConfig, GpError, MultiTaskGp, MultiTaskPrediction, Prediction};
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
    /// transfer at all: each fidelity's model fits its own data.
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
    /// Whether any fidelity has no data.
    pub fn any_empty(&self) -> bool {
        self.xs.iter().any(Vec::is_empty)
    }
}

/// The objective model of one level: the correlated multi-task GP of Eq. 9,
/// or one independent GP per objective.
///
/// The joint model is far larger than a vector of GPs, but a stack holds
/// three levels and a run a handful of stacks, so boxing it would buy
/// nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Objectives {
    Joint(MultiTaskGp),
    PerObjective(Vec<Gp>),
}

/// One fidelity of the chain, and how it uses the fidelity below. Both links
/// scale the lower posterior mean `μ_{f−1}(x)` by a least-squares backbone
/// `ρ` per objective (see [`backbone`]) and fit a GP to the residuals
/// `y − ρ ⊙ μ_{f−1}(x)`.
#[derive(Debug, Clone)]
enum Level {
    /// No link: the model fits the fidelity's own data on `x` (every base,
    /// and every level of Corr+NoTransfer).
    Own(Objectives),
    /// FPL18's Kennedy–O'Hagan AR(1) link, `y = ρ ⊙ μ_{f−1}(x) + δ(x)`:
    /// one residual GP per objective on `x`.
    Linear { rhos: Vec<f64>, residual: Vec<Gp> },
    /// Eq. 5's non-linear link, `y = ρ ⊙ μ_{f−1}(x) + z([x, μ_{f−1}(x)])`
    /// over the grouped kernel ([`Matern52::iso_plus_tail`]): a joint `z`
    /// sees all `M` lower means, a per-objective `z` its own objective's.
    /// The lower posterior's uncertainty is pushed through `z` by an
    /// unscented transform (joint) or Gauss–Hermite quadrature
    /// (per objective).
    Nonlinear {
        rhos: Vec<f64>,
        residual: Objectives,
    },
}

impl Level {
    /// The level's joint model, if it has one.
    fn joint(&self) -> Option<&MultiTaskGp> {
        match self {
            Level::Own(Objectives::Joint(gp))
            | Level::Nonlinear {
                residual: Objectives::Joint(gp),
                ..
            } => Some(gp),
            _ => None,
        }
    }

    /// The level's per-objective GPs (none for a joint level).
    fn per_objective(&self) -> &[Gp] {
        match self {
            Level::Own(Objectives::PerObjective(gps))
            | Level::Linear { residual: gps, .. }
            | Level::Nonlinear {
                residual: Objectives::PerObjective(gps),
                ..
            } => gps,
            _ => &[],
        }
    }
}

/// The fitted surrogate stack for all fidelities: one [`ModelVariant`]'s
/// chain of levels, lowest fidelity first.
#[derive(Debug, Clone)]
pub struct FidelityModelStack {
    variant: ModelVariant,
    levels: Vec<Level>,
}

impl FidelityModelStack {
    /// Fits the stack selected by `variant` on `data`, one fidelity at a time
    /// from the lowest: a linked level's backbone and residual GP are fitted
    /// to the posterior of the levels below it at its own inputs. With
    /// `previous` (the stack from the last iteration), every level re-uses
    /// that stack's hyperparameters and is rebuilt on `data` from scratch
    /// (linear backbones are recomputed — they are closed-form) instead of
    /// re-running the marginal-likelihood search; this is the cheap
    /// per-iteration update of the BO loop, with full searches every
    /// `CmmfConfig::refit_every` steps. Every model runs the search when
    /// `previous` is `None` or another variant, and so does a model whose
    /// previous one takes another input dimension.
    ///
    /// # Errors
    ///
    /// [`CmmfError::Internal`] if any fidelity has no data, or
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
        let x_dim = data.xs[0][0].len();
        let prev_levels = match previous {
            Some(p) if p.variant == variant => p.levels.as_slice(),
            _ => &[],
        };
        let transfers = variant.nonlinear_fidelity || !variant.correlated_objectives;
        let mut levels: Vec<Level> = Vec::with_capacity(N_FIDELITIES);
        for (f, (xs, ys)) in data.xs.iter().zip(&data.ys).enumerate() {
            let prev = prev_levels.get(f);
            let prev_joint = prev.and_then(Level::joint);
            let prev_gps = prev.map_or(&[][..], Level::per_objective);
            if f == 0 || !transfers {
                let ard = Matern52::ard(x_dim);
                levels.push(Level::Own(if variant.correlated_objectives {
                    Objectives::Joint(fit_joint(prev_joint, ard, xs, ys, gp_cfg)?)
                } else {
                    Objectives::PerObjective(fit_each(prev_gps, &ard, |_| xs, ys, gp_cfg)?)
                }));
                continue;
            }
            // The lower fidelity's posterior at this fidelity's inputs: one
            // pass through the levels fitted so far.
            let lower = chain_batch(&levels, xs)?.pop().ok_or_else(no_chain_level)?;
            let rhos = backbone(&lower, ys);
            let residuals = residuals(&lower, ys, &rhos);
            levels.push(if !variant.nonlinear_fidelity {
                let residual =
                    fit_each(prev_gps, &Matern52::ard(x_dim), |_| xs, &residuals, gp_cfg)?;
                Level::Linear { rhos, residual }
            } else if variant.correlated_objectives {
                let kernel = Matern52::iso_plus_tail(x_dim, N_OBJECTIVES);
                let aug: Vec<Vec<f64>> = xs
                    .iter()
                    .zip(&lower)
                    .map(|(x, p)| augmented(x, &p.mean))
                    .collect();
                let gp = fit_joint(prev_joint, kernel, &aug, &residuals, gp_cfg)?;
                Level::Nonlinear {
                    rhos,
                    residual: Objectives::Joint(gp),
                }
            } else {
                let kernel = Matern52::iso_plus_tail(x_dim, 1);
                let augs: Vec<Vec<Vec<f64>>> = (0..N_OBJECTIVES)
                    .map(|o| {
                        xs.iter()
                            .zip(&lower)
                            .map(|(x, p)| augmented(x, &p.mean[o..=o]))
                            .collect()
                    })
                    .collect();
                let gps = fit_each(prev_gps, &kernel, |o| &augs[o], &residuals, gp_cfg)?;
                Level::Nonlinear {
                    rhos,
                    residual: Objectives::PerObjective(gps),
                }
            });
        }
        Ok(FidelityModelStack { variant, levels })
    }

    /// Joint posterior over the objectives at fidelity `f` for encoded input
    /// `x`: [`FidelityModelStack::predict_batch`] on a batch of one.
    /// Independent variants return a diagonal covariance.
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

    /// Joint posteriors at fidelity `f` for many encoded inputs at once: the
    /// chain pass up to `f`. A level without a link reads nothing below it,
    /// so the pass starts at the highest such level at or below `f`.
    /// Bit-identical to mapping [`FidelityModelStack::predict`] over `xs`.
    ///
    /// A joint level batches for real: a level on `x` runs one chunked
    /// [`MultiTaskGp::predict_batch`], and the non-linear link propagates
    /// level-synchronously — all points' sigma points are stacked into a
    /// single level-GP batch, so each traversal of the level's `nM × nM`
    /// factor serves a wide column block instead of one sigma point (see
    /// `propagate_unscented_batch`). Per-objective levels predict point by
    /// point. Every chunk and level prediction is bitwise-pinned to its
    /// single-query form, so a point's posterior does not depend on the
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
        let chain = self.levels.get(..=f).ok_or_else(|| CmmfError::Internal {
            reason: format!("fidelity {f} out of range"),
        })?;
        let start = chain
            .iter()
            .rposition(|level| matches!(level, Level::Own(_)))
            .unwrap_or(0);
        chain_batch(&chain[start..], xs)?
            .pop()
            .ok_or_else(no_chain_level)
    }

    /// Joint posteriors at *every* fidelity for many encoded inputs:
    /// `out[i][f]` is the fidelity-`f` posterior at `xs[i]`. One pass up the
    /// whole chain answers all fidelities — each level's batch once, the
    /// linked ones propagating the batch below — instead of recomputing the
    /// lower fidelities per fidelity. Bit-identical to
    /// [`FidelityModelStack::predict`] at every `(f, x)` — the acquisition
    /// step's candidate caches are built through it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FidelityModelStack::predict`].
    pub fn predict_all(&self, xs: &[Vec<f64>]) -> Result<Vec<Vec<MultiTaskPrediction>>, CmmfError> {
        Ok(per_point(chain_batch(&self.levels, xs)?, xs.len()))
    }

    /// Learned objective-correlation matrix at fidelity `f`, if this stack is
    /// correlated (diagnostics for Sec. IV-B; `None` for independent
    /// variants). For upper fidelities of the non-linear stack, this is the
    /// residual model's correlation.
    pub fn task_correlations(&self, f: usize) -> Option<Matrix> {
        let m = self.levels.get(f)?.joint()?;
        let mut c = Matrix::zeros(m.n_tasks(), m.n_tasks());
        for i in 0..m.n_tasks() {
            for j in 0..m.n_tasks() {
                c[(i, j)] = m.task_correlation(i, j);
            }
        }
        Some(c)
    }

    /// Summed hyperparameter-search telemetry over every sub-model fit that
    /// produced this stack: NLL evaluations and restarts run. All zeros for
    /// a stack fitted from a previous one, which runs no search.
    pub fn fit_stats(&self) -> FitStats {
        let mut s = FitStats::default();
        for level in &self.levels {
            if let Some(gp) = level.joint() {
                s.absorb(gp.fit_stats());
            }
            for gp in level.per_objective() {
                s.absorb(gp.fit_stats());
            }
        }
        s
    }
}

/// Rebuilds `previous` on `(xs, ys)` with its hyperparameters when it takes
/// the kernel's input dimension; otherwise runs the search from `kernel`.
fn fit_joint(
    previous: Option<&MultiTaskGp>,
    kernel: Matern52,
    xs: &[Vec<f64>],
    ys: &[Vec<f64>],
    cfg: &GpConfig,
) -> Result<MultiTaskGp, GpError> {
    match previous {
        Some(m) if m.dim() == kernel.dim() => m.refit(xs, ys),
        _ => MultiTaskGp::fit(kernel, xs, ys, cfg),
    }
}

/// One GP per objective `o`, on the inputs `inputs(o)` and column `o` of the
/// rows `ys`, each rebuilt from `previous[o]` or searched as in
/// [`fit_joint`].
fn fit_each<'a>(
    previous: &[Gp],
    kernel: &Matern52,
    inputs: impl Fn(usize) -> &'a [Vec<f64>],
    ys: &[Vec<f64>],
    cfg: &GpConfig,
) -> Result<Vec<Gp>, GpError> {
    (0..N_OBJECTIVES)
        .map(|o| {
            let column: Vec<f64> = ys.iter().map(|row| row[o]).collect();
            match previous.get(o) {
                Some(m) if m.dim() == kernel.dim() => m.refit(inputs(o), &column),
                _ => Gp::fit(kernel.clone(), inputs(o), &column, cfg),
            }
        })
        .collect()
}

/// The least-squares scale `ρ = Σ m·y / Σ m²` of each objective's
/// observations `ys` onto the lower fidelity's posterior means `m` (1 where
/// the means vanish): the linear backbone of both links.
fn backbone(lower: &[MultiTaskPrediction], ys: &[Vec<f64>]) -> Vec<f64> {
    (0..N_OBJECTIVES)
        .map(|o| {
            let num: f64 = lower.iter().zip(ys).map(|(p, y)| p.mean[o] * y[o]).sum();
            let den: f64 = lower.iter().map(|p| p.mean[o] * p.mean[o]).sum();
            if den > 1e-12 {
                num / den
            } else {
                1.0
            }
        })
        .collect()
}

/// The residuals `y − ρ·m` a link's GP is trained on, one row per input.
fn residuals(lower: &[MultiTaskPrediction], ys: &[Vec<f64>], rhos: &[f64]) -> Vec<Vec<f64>> {
    ys.iter()
        .zip(lower)
        .map(|(y, p)| {
            (0..N_OBJECTIVES)
                .map(|o| y[o] - rhos[o] * p.mean[o])
                .collect()
        })
        .collect()
}

/// A non-linear link's input: `x` followed by lower-fidelity values.
fn augmented(x: &[f64], lower: &[f64]) -> Vec<f64> {
    let mut a = Vec::with_capacity(x.len() + lower.len());
    a.extend_from_slice(x);
    a.extend_from_slice(lower);
    a
}

/// One pass up `levels` (lowest first; the first has no link) for many
/// encoded inputs: each level's posteriors at `xs`, lowest first. A level
/// without a link predicts its own batch; a linked level propagates the
/// batch below it. Shared by prediction (the whole chain or a prefix of it)
/// and the fit loop, which predicts through the levels fitted so far while
/// fitting the next.
fn chain_batch(
    levels: &[Level],
    xs: &[Vec<f64>],
) -> Result<Vec<Vec<MultiTaskPrediction>>, CmmfError> {
    let mut batches: Vec<Vec<MultiTaskPrediction>> = Vec::with_capacity(levels.len());
    for level in levels {
        let batch = match (level, batches.last()) {
            (Level::Own(Objectives::Joint(gp)), _) => gp.predict_batch(xs)?,
            (Level::Own(Objectives::PerObjective(gps)), _) => xs
                .iter()
                .map(|x| diagonal(gps.iter().map(|gp| gp.predict(x))))
                .collect::<Result<_, _>>()?,
            (Level::Linear { rhos, residual }, Some(lower)) => {
                per_objective_link(xs, lower, |o, x, below| {
                    let d = residual[o].predict(x)?;
                    Ok(Prediction {
                        mean: rhos[o] * below.mean + d.mean,
                        var: rhos[o] * rhos[o] * below.var + d.var,
                    })
                })?
            }
            (
                Level::Nonlinear {
                    rhos,
                    residual: Objectives::Joint(gp),
                },
                Some(lower),
            ) => propagate_unscented_batch(rhos, gp, xs, lower)?,
            (
                Level::Nonlinear {
                    rhos,
                    residual: Objectives::PerObjective(gps),
                },
                Some(lower),
            ) => per_objective_link(xs, lower, |o, x, below| {
                gauss_hermite(rhos[o], &gps[o], x, below)
            })?,
            (_, None) => {
                return Err(CmmfError::Internal {
                    reason: "a linked fidelity level has no level below it".into(),
                })
            }
        };
        batches.push(batch);
    }
    Ok(batches)
}

/// The error for a [`chain_batch`] pass without levels, which cannot happen:
/// every stack has a level per fidelity.
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

/// A per-objective link applied at every input: `link(o, x, below)` maps
/// objective `o`'s lower posterior at `x` (its mean, and its variance read
/// back from the diagonal) to this level's, and the objectives' results form
/// a diagonal posterior.
fn per_objective_link(
    xs: &[Vec<f64>],
    lower: &[MultiTaskPrediction],
    link: impl Fn(usize, &[f64], Prediction) -> Result<Prediction, GpError>,
) -> Result<Vec<MultiTaskPrediction>, GpError> {
    xs.iter()
        .zip(lower)
        .map(|(x, below)| {
            diagonal((0..N_OBJECTIVES).map(|o| {
                let below = Prediction {
                    mean: below.mean[o],
                    var: below.cov[(o, o)],
                };
                link(o, x, below)
            }))
        })
        .collect()
}

/// 5-node Gauss–Hermite nodes/weights for integrals against a standard normal.
const GH_NODES: [f64; 5] = [
    -2.8569700138728056,
    -1.355_626_179_974_266,
    0.0,
    1.355_626_179_974_266,
    2.8569700138728056,
];
const GH_WEIGHTS: [f64; 5] = [
    0.011257411327720682,
    0.2220759220056126,
    0.5333333333333333,
    0.2220759220056126,
    0.011257411327720682,
];

/// Eq. 5's per-objective link at one input: the lower posterior `below` is
/// integrated out of `ρ·v + z([x, v])` by Gauss–Hermite quadrature; where its
/// variance is ~0 its mean is plugged in directly.
fn gauss_hermite(rho: f64, z: &Gp, x: &[f64], below: Prediction) -> Result<Prediction, GpError> {
    if below.var > 1e-16 {
        let sd = below.var.sqrt();
        let mut mean = 0.0;
        let mut second = 0.0;
        for (&node, &w) in GH_NODES.iter().zip(&GH_WEIGHTS) {
            let v = below.mean + sd * node;
            let q = z.predict(&augmented(x, &[v]))?;
            let m = rho * v + q.mean;
            mean += w * m;
            second += w * (q.var + m * m);
        }
        Ok(Prediction {
            mean,
            var: (second - mean * mean).max(0.0),
        })
    } else {
        let q = z.predict(&augmented(x, &[below.mean]))?;
        Ok(Prediction {
            mean: rho * below.mean + q.mean,
            var: q.var,
        })
    }
}

/// Pushes a Gaussian belief about the lower fidelity's objectives through
/// Eq. 5's joint link `ρ ⊙ v + z([x, v])` with the unscented transform
/// (λ = 1), for many query points at once: sigma points of each lower
/// posterior are mapped through the link and moment-matched. Without this,
/// the chain's high-fidelity variance collapses and the acquisition stops
/// escalating fidelities.
///
/// Every query point's sigma points are stacked into one level-GP query
/// list, so the expensive triangular solves against the level's `nM × nM`
/// factor run as wide column blocks instead of one sweep per sigma point.
/// The per-point sigma construction and moment-matching do not look across
/// points, and the batched level prediction is bitwise-pinned to its
/// per-point form, so a point's result does not depend on the batch it
/// arrives in.
fn propagate_unscented_batch(
    rhos: &[f64],
    z: &MultiTaskGp,
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
            aug.push(augmented(x, s));
        }
        sigma_sets.push(sigma_points);
    }

    struct Mapped {
        mean: Vec<f64>,
        cov: Matrix,
    }
    let mut qs = z.predict_batch(&aug)?.into_iter();

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
            let mean = (0..m).map(|o| rhos[o] * s[o] + q.mean[o]).collect();
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
        for variant in all_variants() {
            let stack = FidelityModelStack::fit(variant, &data, &quick_cfg(), None)
                .unwrap_or_else(|e| panic!("{}: {e}", variant.name()));
            assert!(
                stack.predict(N_FIDELITIES, &[0.5]).is_err(),
                "{}",
                variant.name()
            );
            assert!(
                stack.predict_batch(7, &[vec![0.5]]).is_err(),
                "{}",
                variant.name()
            );
        }
    }

    #[test]
    fn an_empty_fidelity_is_rejected() {
        for f in 0..N_FIDELITIES {
            let mut data = synthetic();
            data.xs[f].clear();
            data.ys[f].clear();
            assert!(data.any_empty());
            for variant in all_variants() {
                assert!(
                    FidelityModelStack::fit(variant, &data, &quick_cfg(), None).is_err(),
                    "{} fitted with fidelity {f} empty",
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn gh_weights_sum_to_one() {
        let s: f64 = GH_WEIGHTS.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        // Quadrature integrates z^2 to 1 under the standard normal.
        let m2: f64 = GH_NODES
            .iter()
            .zip(&GH_WEIGHTS)
            .map(|(z, w)| w * z * z)
            .sum();
        assert!((m2 - 1.0).abs() < 1e-9);
    }

    fn grid(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    /// The objectives' scales in the data of [`scaled_objectives`].
    const SCALES: [f64; N_OBJECTIVES] = [1.0, -1.0, 0.5];

    /// Three fidelities on `grid(sizes[f])`, where objective `o` at fidelity
    /// `f` observes `SCALES[o] · signal(f, x)`.
    fn scaled_objectives(
        sizes: [usize; N_FIDELITIES],
        signal: impl Fn(usize, f64) -> f64,
    ) -> FidelityDataSet {
        let mut data = FidelityDataSet::default();
        for (f, &n) in sizes.iter().enumerate() {
            for x in grid(n) {
                data.ys[f].push(SCALES.iter().map(|s| s * signal(f, x[0])).collect());
                data.xs[f].push(x);
            }
        }
        data
    }

    /// Root-mean-square error of `predict(o, x)` against `SCALES[o] ·
    /// truth(x)` over 41 points and every objective.
    fn rmse(predict: impl Fn(usize, &[f64]) -> f64, truth: impl Fn(f64) -> f64) -> f64 {
        let test = grid(41);
        let mut se = 0.0;
        for x in &test {
            for (o, s) in SCALES.iter().enumerate() {
                let d = predict(o, x) - s * truth(x[0]);
                se += d * d;
            }
        }
        (se / (test.len() * N_OBJECTIVES) as f64).sqrt()
    }

    #[test]
    fn linear_chain_exploits_linear_relation() {
        // Forrester's function at the top fidelity; the fidelities below are
        // linear transforms of it plus a linear drift in x. FPL18's chain
        // must predict the top fidelity better than one GP per objective
        // fitted on the 5 top-fidelity points alone.
        let forrester = |x: f64| (6.0 * x - 2.0).powi(2) * (12.0 * x - 4.0).sin();
        let data = scaled_objectives([15, 9, 5], |f, x| match f {
            0 => 0.5 * forrester(x) + 10.0 * (x - 0.5) - 5.0,
            1 => 0.75 * forrester(x) + 5.0 * (x - 0.5) - 2.5,
            _ => forrester(x),
        });
        let cfg = GpConfig::default();
        let stack = FidelityModelStack::fit(ModelVariant::fpl18(), &data, &cfg, None).unwrap();
        let single: Vec<Gp> = (0..N_OBJECTIVES)
            .map(|o| {
                let ys: Vec<f64> = data.ys[2].iter().map(|row| row[o]).collect();
                Gp::fit(Matern52::ard(1), &data.xs[2], &ys, &cfg).unwrap()
            })
            .collect();
        let chain_err = rmse(|o, x| stack.predict(2, x).unwrap().mean[o], forrester);
        let single_err = rmse(|o, x| single[o].predict(x).unwrap().mean, forrester);
        assert!(
            chain_err < single_err,
            "multi-fidelity {chain_err} !< single {single_err}"
        );
    }

    #[test]
    fn nonlinear_chain_beats_linear_on_nonlinear_relation() {
        // The top fidelity is the square of the signal below it, which the
        // AR(1) link cannot capture with a constant rho.
        let lo = |x: f64| (8.0 * std::f64::consts::PI * x).sin();
        let hi = |x: f64| lo(x) * lo(x);
        let data = scaled_objectives([40, 24, 12], |f, x| if f < 2 { lo(x) } else { hi(x) });
        let cfg = GpConfig::default();
        let fit = |variant| FidelityModelStack::fit(variant, &data, &cfg, None).unwrap();
        let nonlinear = fit(ModelVariant {
            correlated_objectives: false,
            nonlinear_fidelity: true,
        });
        let linear = fit(ModelVariant::fpl18());
        let nl_err = rmse(|o, x| nonlinear.predict(2, x).unwrap().mean[o], hi);
        let lin_err = rmse(|o, x| linear.predict(2, x).unwrap().mean[o], hi);
        assert!(nl_err < lin_err, "nonlinear {nl_err} !< linear {lin_err}");
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
