#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! `cmmf-benchmark` — the benchmark of record for the cmmf-hls workspace.
//!
//! It drives the system from outside, through public APIs only: the
//! benchmark design spaces (`hls-model`), the flow simulator and true fronts
//! (`fidelity-sim`, `core::runner`), the optimizer loops (`Optimizer`,
//! `AsyncOptimizer`) and a spawned `cmmf-serve` daemon over its line
//! protocol. Shipped defaults only: no escape hatch is flipped.
//!
//! One command per workload prints every metric by name with its unit, after
//! checking that the system's outputs are correct; see `README.md` for the
//! workloads, the metrics and the layer map.

pub mod attribution;
pub mod campaign;
pub mod cli;
pub mod metrics;
mod serve;
mod speed;
mod spread;
pub mod stats;
pub mod workload;
