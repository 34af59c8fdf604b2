#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cmmf-hls — Correlated Multi-objective Multi-fidelity Optimization for HLS Directives
//!
//! Umbrella crate for the reproduction of *Sun et al., "Correlated
//! Multi-objective Multi-fidelity Optimization for HLS Directives Design"*
//! (DATE 2021). It re-exports the workspace crates so examples and downstream
//! users can depend on a single package:
//!
//! * [`linalg`] — dense matrices, Cholesky, normal-distribution utilities,
//! * [`gp`] — Gaussian-process regression and multi-task (correlated) GPs,
//! * [`pareto`] — dominance, hypervolume, cell decomposition, ADRS,
//! * [`hls_model`] — HLS directives, kernel IR, feature encoding, and the
//!   tree-based design-space pruner,
//! * [`fidelity_sim`] — the three-stage FPGA design-flow simulator standing in
//!   for Vivado HLS + a VC707 board,
//! * [`baselines`] — ANN, gradient-boosting, FPL18, and DAC19 baselines,
//! * [`cmmf`] — the paper's optimizer: the multi-fidelity chain of correlated
//!   multi-objective models, EIPV/PEIPV acquisition, and the Algorithm-2 BO
//!   loop,
//! * [`serve`] — the multi-tenant DSE session daemon (worker pool,
//!   admission control, checkpoint/resume persistence, event streaming),
//! * [`cli`] — shared validating argument parsing for the `cmmf-dse` and
//!   `cmmf-serve` binaries.
//!
//! See `examples/quickstart.rs` for an end-to-end run and `DESIGN.md` for the
//! system inventory and per-experiment index.

pub mod cli;

pub use baselines;
pub use cmmf;
pub use fidelity_sim;
pub use gp;
pub use hls_model;
pub use linalg;
pub use pareto;
pub use serve;
