//! Multi-fidelity Gaussian-process models (Sec. II-D and IV-A of the paper).
//!
//! Two compositions of single-output GPs across an ordered list of fidelities
//! (lowest first, e.g. `hls → syn → impl`):
//!
//! * [`LinearMultiFidelityGp`] — the Kennedy–O'Hagan AR(1) model
//!   `f_{i+1}(x) = ρ_i f_i(x) + δ_i(x)` assumed by the FPL18 baseline,
//! * [`NonLinearMultiFidelityGp`] — the paper's Eq. 5,
//!   `f_{i+1}(x) = z(f_i(x), x) + f_e(x)`, where `z` is a GP over the
//!   concatenation of the lower-fidelity posterior and the input features.
//!   The additive error term `f_e` is absorbed into the level GP's learned
//!   observation noise, the standard NARGP simplification.
//!
//! Each model builds its chain of levels in one place: `fit` hands it a
//! hyperparameter search per level, `refit` the previous model's level GPs
//! to rebuild on the new data with their hyperparameters.
//!
//! # Examples
//!
//! ```
//! use cmmf_gp::multifidelity::{FidelityData, NonLinearMultiFidelityGp};
//! use cmmf_gp::GpConfig;
//!
//! # fn main() -> Result<(), cmmf_gp::GpError> {
//! let lo_xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
//! let lo_ys: Vec<f64> = lo_xs.iter().map(|x| (8.0 * x[0]).sin()).collect();
//! let hi_xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 5.0]).collect();
//! // High fidelity is a *non-linear* transform of the low fidelity.
//! let hi_ys: Vec<f64> = hi_xs.iter().map(|x| (8.0 * x[0]).sin().powi(2)).collect();
//! let data = [FidelityData::new(lo_xs, lo_ys), FidelityData::new(hi_xs, hi_ys)];
//! let mf = NonLinearMultiFidelityGp::fit(&data, &GpConfig::default())?;
//! let p = mf.predict(1, &[0.125])?;
//! assert!(p.var >= 0.0);
//! # Ok(())
//! # }
//! ```

use crate::gp::{FitStats, Gp, GpConfig, Prediction};
use crate::kernel::{Matern52Ard, Matern52Grouped};
use crate::GpError;

/// Training data for one fidelity level.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityData {
    /// Input configurations.
    pub xs: Vec<Vec<f64>>,
    /// Observed objective values, one per input.
    pub ys: Vec<f64>,
}

impl FidelityData {
    /// Bundles inputs and outputs for one fidelity.
    pub fn new(xs: Vec<Vec<f64>>, ys: Vec<f64>) -> Self {
        FidelityData { xs, ys }
    }
}

fn validate_levels(data: &[FidelityData]) -> Result<usize, GpError> {
    if data.is_empty() {
        return Err(GpError::InvalidTrainingData {
            reason: "no fidelity levels".into(),
        });
    }
    let dim = data[0].xs.first().map(|x| x.len()).unwrap_or(0);
    for (i, level) in data.iter().enumerate() {
        if level.xs.is_empty() {
            return Err(GpError::InvalidTrainingData {
                reason: format!("fidelity {i} has no data"),
            });
        }
        for x in &level.xs {
            if x.len() != dim {
                return Err(GpError::DimensionMismatch {
                    expected: dim,
                    got: x.len(),
                });
            }
        }
    }
    Ok(dim)
}

/// [`validate_levels`] for a refit, which also needs as many levels as the
/// model it reuses.
fn validate_refit_levels(data: &[FidelityData], n_levels: usize) -> Result<(), GpError> {
    validate_levels(data)?;
    if data.len() != n_levels {
        return Err(GpError::InvalidTrainingData {
            reason: format!("model has {n_levels} levels, data has {}", data.len()),
        });
    }
    Ok(())
}

/// The least-squares scale `ρ` of `ys` onto the lower level's posterior
/// means `prev` (1 when the means vanish): the linear backbone of both
/// models.
fn least_squares_rho(prev: &[f64], ys: &[f64]) -> f64 {
    let num: f64 = prev.iter().zip(ys).map(|(m, y)| m * y).sum();
    let den: f64 = prev.iter().map(|m| m * m).sum();
    if den > 1e-12 {
        num / den
    } else {
        1.0
    }
}

/// The residuals `y − ρ·m` a level GP is trained on.
fn residuals(ys: &[f64], prev: &[f64], rho: f64) -> Vec<f64> {
    ys.iter().zip(prev).map(|(y, m)| y - rho * m).collect()
}

/// Kennedy–O'Hagan AR(1) linear multi-fidelity model:
/// `f_{i+1}(x) = ρ_i f_i(x) + δ_i(x)` with `δ_i ~ GP`.
///
/// This is the multi-fidelity structure used by the FPL18 baseline; the paper
/// argues (Fig. 5) that its linearity is too restrictive for benchmarks like
/// SPMV_ELLPACK.
#[derive(Debug, Clone)]
pub struct LinearMultiFidelityGp {
    base: Gp<Matern52Ard>,
    deltas: Vec<Gp<Matern52Ard>>,
    rhos: Vec<f64>,
    /// Summed hyperparameter-search telemetry over all per-level fits
    /// (zeroed on refit, which runs no search).
    stats: FitStats,
}

impl LinearMultiFidelityGp {
    /// Fits the recursive AR(1) model. `data` is ordered lowest fidelity first.
    ///
    /// `ρ_i` is the least-squares scale between the level-`i` observations and
    /// the level-`i-1` posterior mean at the same inputs; `δ_i` is a GP on the
    /// residuals.
    ///
    /// # Errors
    ///
    /// Propagates [`GpError`] from validation or per-level GP fitting.
    pub fn fit(data: &[FidelityData], cfg: &GpConfig) -> Result<Self, GpError> {
        let dim = validate_levels(data)?;
        let base = Gp::fit(Matern52Ard::new(dim), &data[0].xs, &data[0].ys, cfg)?;
        Self::chain(base, data, |_, xs, ys| {
            Gp::fit(Matern52Ard::new(dim), xs, ys, cfg)
        })
    }

    /// Refits on new data **reusing the fitted GP hyperparameters** (the
    /// scales `ρ_i` are recomputed — they are closed-form). This is the cheap
    /// per-iteration update of a BO loop.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LinearMultiFidelityGp::fit`]; additionally errors
    /// if `data` has a different number of levels than this model.
    pub fn refit(&self, data: &[FidelityData]) -> Result<Self, GpError> {
        validate_refit_levels(data, self.n_levels())?;
        let base = self.base.refit(&data[0].xs, &data[0].ys)?;
        Self::chain(base, data, |i, xs, ys| self.deltas[i].refit(xs, ys))
    }

    /// Builds the chain above the fitted `base`: for each higher level `i`,
    /// the scale `ρ_i` onto the chain's posterior mean so far and the
    /// residual GP `delta(i, xs, residuals)` (`i` counts from 0 at the
    /// first level above the base).
    fn chain(
        base: Gp<Matern52Ard>,
        data: &[FidelityData],
        mut delta: impl FnMut(usize, &[Vec<f64>], &[f64]) -> Result<Gp<Matern52Ard>, GpError>,
    ) -> Result<Self, GpError> {
        let mut model = LinearMultiFidelityGp {
            stats: base.fit_stats(),
            base,
            deltas: Vec::new(),
            rhos: Vec::new(),
        };
        for (i, level) in data[1..].iter().enumerate() {
            let prev_mean: Vec<f64> = level
                .xs
                .iter()
                .map(|x| model.predict(i, x).map(|p| p.mean))
                .collect::<Result<_, _>>()?;
            let rho = least_squares_rho(&prev_mean, &level.ys);
            let gp = delta(i, &level.xs, &residuals(&level.ys, &prev_mean, rho))?;
            model.stats.absorb(gp.fit_stats());
            model.rhos.push(rho);
            model.deltas.push(gp);
        }
        Ok(model)
    }

    /// Posterior at fidelity `level` (0 = lowest).
    ///
    /// The variance combines the scaled lower-level variance and the residual
    /// GP's variance, assuming independence between the two terms.
    ///
    /// # Errors
    ///
    /// [`GpError::DimensionMismatch`] on a bad query, or
    /// [`GpError::InvalidTrainingData`] if `level` is out of range.
    pub fn predict(&self, level: usize, x: &[f64]) -> Result<Prediction, GpError> {
        if level > self.deltas.len() {
            return Err(GpError::InvalidTrainingData {
                reason: format!("fidelity {level} out of range"),
            });
        }
        let mut p = self.base.predict(x)?;
        for i in 0..level {
            let d = self.deltas[i].predict(x)?;
            let rho = self.rhos[i];
            p = Prediction {
                mean: rho * p.mean + d.mean,
                var: rho * rho * p.var + d.var,
            };
        }
        Ok(p)
    }

    /// Number of fidelity levels.
    pub fn n_levels(&self) -> usize {
        self.deltas.len() + 1
    }

    /// The fitted scale `ρ_i` between levels `i` and `i+1`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_levels() - 1`.
    pub fn rho(&self, i: usize) -> f64 {
        self.rhos[i]
    }

    /// Summed hyperparameter-search telemetry over every per-level GP fit
    /// that produced this model (zeroed for refit — no search runs).
    pub fn fit_stats(&self) -> FitStats {
        self.stats
    }
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

/// Non-linear multi-fidelity GP (Eq. 5 of the paper, NARGP-style):
/// `f_{i+1}(x) = ρ_i f_i(x) + z_i(f_i(x), x)`, where `ρ_i` is a least-squares
/// scale (the linear backbone) and `z_i` is a GP over `[x, f_i(x)]` that
/// captures the *non-linear* part of the cross-fidelity map.
///
/// Two capacity controls keep the model fittable from the handful of
/// high-fidelity points a real flow affords: the explicit linear backbone, and
/// a grouped kernel ([`Matern52Grouped`]) that shares one lengthscale across
/// all directive features while giving the lower-fidelity output its own.
#[derive(Debug, Clone)]
pub struct NonLinearMultiFidelityGp {
    base: Gp<Matern52Ard>,
    uppers: Vec<(f64, Gp<Matern52Grouped>)>,
    /// Summed hyperparameter-search telemetry over all per-level fits
    /// (zeroed on refit, which runs no search).
    stats: FitStats,
}

impl NonLinearMultiFidelityGp {
    /// Fits the recursive non-linear model. `data` is ordered lowest fidelity
    /// first. Each upper level is trained on its own inputs augmented with the
    /// lower-level posterior mean at those inputs.
    ///
    /// # Errors
    ///
    /// Propagates [`GpError`] from validation or per-level GP fitting.
    pub fn fit(data: &[FidelityData], cfg: &GpConfig) -> Result<Self, GpError> {
        let dim = validate_levels(data)?;
        let base = Gp::fit(Matern52Ard::new(dim), &data[0].xs, &data[0].ys, cfg)?;
        Self::chain(base, data, |_, aug, ys| {
            Gp::fit(Matern52Grouped::iso_plus_tail(dim, 1), aug, ys, cfg)
        })
    }

    /// Refits on new data **reusing the fitted GP hyperparameters** (the
    /// linear backbones `ρ_i` are recomputed — they are closed-form).
    ///
    /// # Errors
    ///
    /// Same conditions as [`NonLinearMultiFidelityGp::fit`]; additionally
    /// errors if `data` has a different number of levels than this model.
    pub fn refit(&self, data: &[FidelityData]) -> Result<Self, GpError> {
        validate_refit_levels(data, self.n_levels())?;
        let base = self.base.refit(&data[0].xs, &data[0].ys)?;
        Self::chain(base, data, |i, aug, ys| self.uppers[i].1.refit(aug, ys))
    }

    /// Builds the chain above the fitted `base`: for each upper level `i`
    /// (from 0 at the first level above the base), the lower posterior
    /// means at the level's inputs give the linear backbone `ρ_i` and the
    /// augmented inputs `[x, f_prev(x)]`, and `upper(i, aug, residuals)`
    /// builds the non-linear correction GP.
    fn chain(
        base: Gp<Matern52Ard>,
        data: &[FidelityData],
        mut upper: impl FnMut(usize, &[Vec<f64>], &[f64]) -> Result<Gp<Matern52Grouped>, GpError>,
    ) -> Result<Self, GpError> {
        let mut model = NonLinearMultiFidelityGp {
            stats: base.fit_stats(),
            base,
            uppers: Vec::new(),
        };
        for (i, level) in data[1..].iter().enumerate() {
            // Lower-level posterior means at this level's inputs.
            let prev: Vec<f64> = level
                .xs
                .iter()
                .map(|x| model.predict(i, x).map(|p| p.mean))
                .collect::<Result<_, _>>()?;
            let rho = least_squares_rho(&prev, &level.ys);
            // Non-linear correction GP over [x, f_prev(x)].
            let aug: Vec<Vec<f64>> = level
                .xs
                .iter()
                .zip(&prev)
                .map(|(x, m)| {
                    let mut a = x.clone();
                    a.push(*m);
                    a
                })
                .collect();
            let gp = upper(i, &aug, &residuals(&level.ys, &prev, rho))?;
            model.stats.absorb(gp.fit_stats());
            model.uppers.push((rho, gp));
        }
        Ok(model)
    }

    /// Posterior at fidelity `level` (0 = lowest).
    ///
    /// The lower-level posterior is integrated out by Gauss–Hermite
    /// quadrature; where its variance is ~0 its mean is plugged in directly.
    ///
    /// # Errors
    ///
    /// [`GpError::DimensionMismatch`] on a bad query, or
    /// [`GpError::InvalidTrainingData`] if `level` is out of range.
    pub fn predict(&self, level: usize, x: &[f64]) -> Result<Prediction, GpError> {
        if level > self.uppers.len() {
            return Err(GpError::InvalidTrainingData {
                reason: format!("fidelity {level} out of range"),
            });
        }
        let mut p = self.base.predict(x)?;
        for (rho, gp) in self.uppers.iter().take(level) {
            p = if p.var > 1e-16 {
                let sd = p.var.sqrt();
                let mut mean = 0.0;
                let mut second = 0.0;
                for (&z, &w) in GH_NODES.iter().zip(&GH_WEIGHTS) {
                    let v = p.mean + sd * z;
                    let mut aug = x.to_vec();
                    aug.push(v);
                    let q = gp.predict(&aug)?;
                    let m = rho * v + q.mean;
                    mean += w * m;
                    second += w * (q.var + m * m);
                }
                Prediction {
                    mean,
                    var: (second - mean * mean).max(0.0),
                }
            } else {
                let mut aug = x.to_vec();
                aug.push(p.mean);
                let q = gp.predict(&aug)?;
                Prediction {
                    mean: rho * p.mean + q.mean,
                    var: q.var,
                }
            };
        }
        Ok(p)
    }

    /// Number of fidelity levels.
    pub fn n_levels(&self) -> usize {
        self.uppers.len() + 1
    }

    /// Summed hyperparameter-search telemetry over every per-level GP fit
    /// that produced this model (zeroed for refit — no search runs).
    pub fn fit_stats(&self) -> FitStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    /// Forrester function and a linearly related low-fidelity version.
    fn forrester(x: f64) -> f64 {
        (6.0 * x - 2.0).powi(2) * (12.0 * x - 4.0).sin()
    }
    fn forrester_lo(x: f64) -> f64 {
        0.5 * forrester(x) + 10.0 * (x - 0.5) - 5.0
    }

    fn rmse(model_pred: impl Fn(&[f64]) -> f64, truth: impl Fn(f64) -> f64) -> f64 {
        let test = grid(41);
        let se: f64 = test
            .iter()
            .map(|x| {
                let d = model_pred(x) - truth(x[0]);
                d * d
            })
            .sum();
        (se / test.len() as f64).sqrt()
    }

    #[test]
    fn linear_model_exploits_linear_relation() {
        let lo = grid(15);
        let hi = grid(5);
        let data = [
            FidelityData::new(lo.clone(), lo.iter().map(|x| forrester_lo(x[0])).collect()),
            FidelityData::new(hi.clone(), hi.iter().map(|x| forrester(x[0])).collect()),
        ];
        let cfg = GpConfig::default();
        let mf = LinearMultiFidelityGp::fit(&data, &cfg).unwrap();
        // Single-fidelity GP on the 5 high points only.
        let single = Gp::fit(
            Matern52Ard::new(1),
            &hi,
            &hi.iter().map(|x| forrester(x[0])).collect::<Vec<_>>(),
            &cfg,
        )
        .unwrap();
        let mf_err = rmse(|x| mf.predict(1, x).unwrap().mean, forrester);
        let single_err = rmse(|x| single.predict(x).unwrap().mean, forrester);
        assert!(
            mf_err < single_err,
            "multi-fidelity {mf_err} !< single {single_err}"
        );
    }

    #[test]
    fn nonlinear_model_beats_linear_on_nonlinear_relation() {
        // High fidelity is a squared transform of the low fidelity signal —
        // impossible for the AR(1) model to capture with a constant rho.
        let f_lo = |x: f64| (8.0 * std::f64::consts::PI * x).sin();
        let f_hi = |x: f64| f_lo(x) * f_lo(x);
        let lo = grid(40);
        let hi = grid(12);
        let data = [
            FidelityData::new(lo.clone(), lo.iter().map(|x| f_lo(x[0])).collect()),
            FidelityData::new(hi.clone(), hi.iter().map(|x| f_hi(x[0])).collect()),
        ];
        let cfg = GpConfig::default();
        let nl = NonLinearMultiFidelityGp::fit(&data, &cfg).unwrap();
        let lin = LinearMultiFidelityGp::fit(&data, &cfg).unwrap();
        let nl_err = rmse(|x| nl.predict(1, x).unwrap().mean, f_hi);
        let lin_err = rmse(|x| lin.predict(1, x).unwrap().mean, f_hi);
        assert!(nl_err < lin_err, "nonlinear {nl_err} !< linear {lin_err}");
    }

    #[test]
    fn three_levels_predict_without_error() {
        let l0 = grid(12);
        let l1 = grid(8);
        let l2 = grid(4);
        let data = [
            FidelityData::new(l0.clone(), l0.iter().map(|x| x[0]).collect()),
            FidelityData::new(l1.clone(), l1.iter().map(|x| x[0] * 1.1 + 0.05).collect()),
            FidelityData::new(l2.clone(), l2.iter().map(|x| x[0] * 1.2 + 0.1).collect()),
        ];
        let cfg = GpConfig::default();
        let nl = NonLinearMultiFidelityGp::fit(&data, &cfg).unwrap();
        let lin = LinearMultiFidelityGp::fit(&data, &cfg).unwrap();
        assert_eq!(nl.n_levels(), 3);
        assert_eq!(lin.n_levels(), 3);
        for level in 0..3 {
            assert!(nl.predict(level, &[0.5]).unwrap().var >= 0.0);
            assert!(lin.predict(level, &[0.5]).unwrap().var >= 0.0);
        }
    }

    #[test]
    fn out_of_range_level_errors() {
        let l0 = grid(5);
        let data = [FidelityData::new(
            l0.clone(),
            l0.iter().map(|x| x[0]).collect(),
        )];
        let cfg = GpConfig::default();
        let nl = NonLinearMultiFidelityGp::fit(&data, &cfg).unwrap();
        assert!(nl.predict(1, &[0.1]).is_err());
        let lin = LinearMultiFidelityGp::fit(&data, &cfg).unwrap();
        assert!(lin.predict(1, &[0.1]).is_err());
    }

    #[test]
    fn empty_levels_rejected() {
        let cfg = GpConfig::default();
        assert!(NonLinearMultiFidelityGp::fit(&[], &cfg).is_err());
        let data = [FidelityData::new(vec![], vec![])];
        assert!(NonLinearMultiFidelityGp::fit(&data, &cfg).is_err());
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
}
