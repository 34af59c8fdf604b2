#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Pareto-optimality utilities for multi-objective optimization (Secs. II-C and
//! IV-B of the paper): dominance tests, Pareto-front extraction, exact
//! hypervolume (any dimension, fast paths for 2D/3D), the grid-cell
//! decomposition of the non-dominated region used by the EIPV acquisition
//! (Fig. 6, [`FrontIndex`]), and the ADRS quality metric of the experiments
//! (Eq. 11).
//!
//! All routines assume **minimization** of every objective, matching the paper
//! (Power, Delay, LUT are all minimized).
//!
//! # Examples
//!
//! ```
//! use cmmf_pareto::{pareto_front_indices, hypervolume, dominates};
//!
//! let pts = vec![
//!     vec![1.0, 4.0],
//!     vec![2.0, 2.0],
//!     vec![4.0, 1.0],
//!     vec![3.0, 3.0], // dominated by (2,2)
//! ];
//! assert!(dominates(&pts[1], &pts[3]));
//! assert_eq!(pareto_front_indices(&pts), vec![0, 1, 2]);
//! let hv = hypervolume(&pts, &[5.0, 5.0]);
//! assert!(hv > 0.0);
//! ```

mod adrs;
mod dominance;
mod front_index;
mod hypervolume;
pub mod metrics;

pub use adrs::adrs;
pub use dominance::{dominates, pareto_front, pareto_front_indices, weakly_dominates};
pub use front_index::FrontIndex;
pub use hypervolume::{hypervolume, hypervolume_contribution};
