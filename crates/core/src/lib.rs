#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cmmf — Correlated Multi-objective Multi-fidelity optimization for HLS directives
//!
//! The paper's primary contribution (Sun et al., DATE 2021): a Gaussian-process
//! Bayesian-optimization loop (Algorithm 2) that explores an HLS directive
//! design space for Pareto-optimal Power/Delay/LUT trade-offs while spending
//! most of its budget in the cheap early design-flow stages.
//!
//! The pieces, mapped to the paper:
//!
//! * [`ModelVariant`] — which surrogate stack to use. The paper's method is
//!   [`ModelVariant::paper`] (correlated multi-objective GP per fidelity,
//!   Eq. 9, composed non-linearly across fidelities, Eq. 5); the FPL18
//!   baseline is [`ModelVariant::fpl18`] (independent objectives, linear
//!   AR(1) fidelities); the two mixed variants are the ablations.
//! * [`eipv`] — the acquisition: expected improvement of Pareto hypervolume
//!   (Eqs. 6–8) with the cost penalty of Eq. 10 (`PEIPV_i = EIPV_i ·
//!   T_impl / T_i`).
//! * [`Optimizer`] — the Algorithm-2 loop over a pruned [`hls_model`] design
//!   space evaluated by the [`fidelity_sim`] flow simulator, with nested
//!   per-fidelity observation sets `X_impl ⊆ X_syn ⊆ X_hls` and the 10x
//!   invalid-design penalty of Sec. IV-C. One event loop on a discrete-event
//!   virtual clock runs every schedule: [`CmmfConfig::batch_size`] picks per
//!   decision run as one group, and up to [`CmmfConfig::async_slots`] groups
//!   are in flight, their pending outcomes fantasized into the acquisition
//!   (see the [`scheduler`] module docs). The defaults are the paper's
//!   sequential loop; [`AsyncOptimizer`] is a former name of the same type.
//! * [`runner`] — multi-repeat experiment driver computing the paper's ADRS
//!   metric (Eq. 11) against the simulator's true Pareto front.
//!
//! # Examples
//!
//! ```no_run
//! use cmmf::{CmmfConfig, Optimizer};
//! use fidelity_sim::{FlowSimulator, SimParams};
//! use hls_model::benchmarks::{self, Benchmark};
//!
//! # fn main() -> Result<(), cmmf::CmmfError> {
//! let space = benchmarks::build(Benchmark::Gemm)?.pruned_space()?;
//! let sim = FlowSimulator::new(SimParams::for_benchmark(Benchmark::Gemm));
//! let result = Optimizer::new(CmmfConfig::default()).run(&space, &sim)?;
//! println!(
//!     "explored {} configs in {:.0} simulated seconds",
//!     result.candidate_set.len(),
//!     result.sim_seconds
//! );
//! # Ok(())
//! # }
//! ```

pub mod checkpoint;
pub mod eipv;
mod error;
mod models;
mod optimizer;
pub mod runner;
pub mod scheduler;

pub use checkpoint::RunCheckpoint;
pub use error::CmmfError;
pub use models::{FidelityDataSet, FidelityModelStack, ModelVariant};
pub use optimizer::{AsyncOptimizer, CandidateChoice, CmmfConfig, Optimizer, RunResult};
// The observability layer (see ARCHITECTURE.md, "Observability & resume") —
// re-exported so downstream code can attach a tracer without naming the
// `cmmf-trace` crate directly.
pub use trace::{
    aggregate_step_metrics, JsonlTracer, MemoryTracer, NullTracer, StepMetrics, TraceEvent, Tracer,
    TracerHandle, VirtualClock,
};
