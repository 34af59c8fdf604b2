#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Dense linear algebra and scalar statistics substrate for the `cmmf-hls` workspace.
//!
//! The offline crate set has no mature linear-algebra or statistics crates, so this
//! crate implements everything the Gaussian-process stack needs from scratch:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with the products and
//!   transpose the GP stack uses,
//! * [`Cholesky`] — a jittered, right-looking *blocked* Cholesky factorization
//!   with triangular solves (per vector, and forward substitution over a
//!   whole block of right-hand sides) and log-determinant (the workhorse of
//!   exact GP inference); [`CholeskyWorkspace`] reuses one buffer for many
//!   factorizations of one size, as the hyperparameter search does,
//! * [`stats`] — scalar standard-normal PDF/CDF built on an `erf`
//!   implementation, plus small summary-statistics helpers.
//!
//! # Examples
//!
//! ```
//! use cmmf_linalg::{Matrix, Cholesky};
//!
//! # fn main() -> Result<(), cmmf_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
//! let chol = Cholesky::new(&a)?;
//! let x = chol.solve_vec(&[1.0, 1.0])?;
//! // A * x == b
//! let b = a.mul_vec(&x)?;
//! assert!((b[0] - 1.0).abs() < 1e-12 && (b[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod cholesky;
mod error;
mod matrix;
pub mod stats;

pub use cholesky::{Cholesky, CholeskyWorkspace};
pub use error::LinalgError;
pub use matrix::Matrix;
