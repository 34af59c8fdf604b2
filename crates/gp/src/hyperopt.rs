//! Telemetry of the hyperparameter search.
//!
//! [`Gp::fit`](crate::Gp::fit) and [`MultiTaskGp::fit`](crate::MultiTaskGp::fit)
//! run their maximum-likelihood searches as one seeded multi-start
//! Nelder–Mead through [`multi_start_nelder_mead_par`]: cold restarts run
//! through the in-tree rayon pool with per-restart derived seeds,
//! bit-identical at any thread count and to the serial reference loop
//! ([`multi_start_nelder_mead_seq`](crate::optimize::multi_start_nelder_mead_seq)).
//! Each fit records the work in a [`FitStats`].
//!
//! The NLL objective the search minimizes assembles each Gram matrix from a
//! per-fit [`DistanceCache`](crate::kernel::DistanceCache) when the kernel
//! supports one, bit-identical to from-scratch assembly
//! ([`Kernel::gram_into`](crate::Kernel::gram_into)).
//!
//! [`multi_start_nelder_mead_par`]: crate::optimize::multi_start_nelder_mead_par

/// Telemetry from one maximum-likelihood hyperparameter search.
///
/// Zeroed on fits that run no search (`optimize: false`, `refit`, `extend`,
/// `downdate`), so stack-level sums reflect only real search work.
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
