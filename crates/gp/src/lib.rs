#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Gaussian-process regression substrate for the `cmmf-hls` workspace.
//!
//! The paper's method needs four modelling ingredients, all provided here from
//! scratch (no GP/BO crates exist in the offline registry):
//!
//! * one Matérn-5/2 kernel ([`kernel::Matern52`]) with one lengthscale per
//!   group of input dimensions: ARD, one group per dimension, for the data
//!   (the paper uses an ARD Matérn-5/2 "to avoid unrealistic smoothness"),
//!   and a few shared groups for the multi-fidelity levels,
//! * exact single-output GP regression with maximum-likelihood hyperparameters
//!   ([`Gp`]), optimized by a seeded multi-start Nelder–Mead
//!   ([`optimize::multi_start_nelder_mead_par`]) whose NLL evaluations
//!   assemble each Gram matrix from a per-fit
//!   [`DistanceCache`](kernel::DistanceCache) straight into a buffer each
//!   start owns, and factor it there; each search's effort is recorded in
//!   a [`FitStats`],
//! * the correlated multi-objective (multi-task / intrinsic-coregionalization)
//!   GP of Eq. 9 ([`MultiTaskGp`]), with covariance `Σ_{ij} = K_{ij} · k_C(x,x')`,
//! * multi-fidelity composition: the paper's non-linear model of Eq. 5
//!   ([`multifidelity::NonLinearMultiFidelityGp`]) and the linear AR(1)
//!   Kennedy–O'Hagan model used by the FPL18 baseline
//!   ([`multifidelity::LinearMultiFidelityGp`]).
//!
//! Every model is either fitted with a hyperparameter search (`fit`) or
//! rebuilt on new data from an earlier model's hyperparameters (`refit`),
//! which refactorizes from scratch.
//!
//! # Examples
//!
//! ```
//! use cmmf_gp::{Gp, GpConfig, kernel::Matern52};
//!
//! # fn main() -> Result<(), cmmf_gp::GpError> {
//! let xs: Vec<Vec<f64>> = vec![vec![0.0], vec![0.25], vec![0.5], vec![0.75], vec![1.0]];
//! let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 3.0).sin()).collect();
//! let gp = Gp::fit(Matern52::ard(1), &xs, &ys, &GpConfig::default())?;
//! let p = gp.predict(&[0.5])?;
//! assert!((p.mean - (1.5f64).sin()).abs() < 0.05);
//! assert!(p.var >= 0.0);
//! # Ok(())
//! # }
//! ```

mod error;
mod gp;
pub mod kernel;
pub mod multifidelity;
mod multitask;
pub mod optimize;
#[cfg(test)]
mod search_oracle;

pub use error::GpError;
pub use gp::{FitStats, Gp, GpConfig, Prediction};
pub use multitask::{MultiTaskGp, MultiTaskPrediction};
