//! Shared machinery of the hyperparameter search: warm starting, restart
//! shedding, and fit telemetry.
//!
//! Both [`Gp::fit_opts`](crate::Gp::fit_opts) and
//! [`MultiTaskGp::fit_opts`](crate::MultiTaskGp::fit_opts) route their
//! maximum-likelihood searches through the private `search` helper, which
//! layers two optimizations over the plain multi-start Nelder–Mead:
//!
//! * **Warm starting** — when the caller supplies the previous fit's optimum
//!   (same log-space layout), a probe run starts there under a reduced eval
//!   budget (a quarter of the search budget, floored at two simplex rounds —
//!   whether the seed is still a local optimum shows within a few sweeps, so
//!   a negative answer never costs a full search); if the probe converges
//!   without materially improving on its own starting value, the cold
//!   multi-start is *shed* entirely (a "hit"). Otherwise the warm run is
//!   **discarded** and the cold multi-start result stands alone (a "miss") —
//!   so a miss is bit-identical to never warm starting at all. Letting the
//!   warm run compete on NLL looks harmless but is not: chained optima can
//!   ratchet into high-likelihood basins (near-zero noise, tiny
//!   lengthscales) that predict worse than the cold fit, degrading ADRS.
//! * **Parallel multi-start** — cold restarts run through the in-tree rayon
//!   pool with per-restart derived seeds, bit-identical at any thread count
//!   and to the serial reference loop
//!   ([`multi_start_nelder_mead_seq`](crate::optimize::multi_start_nelder_mead_seq);
//!   see [`multi_start_nelder_mead_par`]).
//!
//! The NLL objective the search minimizes assembles each Gram matrix from a
//! per-fit [`DistanceCache`](crate::kernel::DistanceCache) when the kernel
//! supports one, bit-identical to from-scratch assembly
//! ([`Kernel::gram_into`](crate::Kernel::gram_into)).

use crate::optimize::{multi_start_nelder_mead_par, nelder_mead, NelderMeadOptions, OptimResult};

/// Telemetry from one maximum-likelihood hyperparameter search.
///
/// Zeroed on fits that run no search (`optimize: false`, `refit`, `extend`,
/// `downdate`), so stack-level sums reflect only real search work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitStats {
    /// Total NLL objective evaluations consumed (warm run + cold runs).
    pub nll_evals: usize,
    /// Nelder–Mead searches run beyond the first: `restarts` for a cold fit
    /// (with or without a discarded warm probe), `0` for a warm-start hit
    /// (everything shed).
    pub restarts_run: usize,
    /// 1 if a warm start converged in place and shed the cold multi-start.
    pub warm_start_hits: usize,
    /// 1 if a warm probe was run but improved past tolerance, so it was
    /// discarded and the cold multi-start ran.
    pub warm_start_misses: usize,
}

impl FitStats {
    /// Accumulates another model's stats (for multi-level / multi-task sums).
    pub fn absorb(&mut self, other: FitStats) {
        self.nll_evals += other.nll_evals;
        self.restarts_run += other.restarts_run;
        self.warm_start_hits += other.warm_start_hits;
        self.warm_start_misses += other.warm_start_misses;
    }
}

/// Per-fit options layered on top of `GpConfig` by callers that know more
/// than a single fit does (the model stack, the optimizer loop).
#[derive(Debug, Clone, PartialEq)]
pub struct HyperoptOptions {
    /// Previous optimum in the fit's own log-space search layout (kernel log
    /// params + trailing log noise term(s)). Ignored when the length does not
    /// match or any entry is non-finite.
    pub warm_start: Option<Vec<f64>>,
    /// Relative improvement threshold for shedding the cold multi-start: a
    /// warm run that improves on its starting NLL by at most
    /// `tol · max(1, |NLL|)` is deemed converged-in-place.
    pub warm_start_tol: f64,
}

impl Default for HyperoptOptions {
    fn default() -> Self {
        HyperoptOptions {
            warm_start: None,
            warm_start_tol: 1e-3,
        }
    }
}

impl HyperoptOptions {
    /// Default options warm-started from `seed` (a previous accepted
    /// optimum, see [`crate::Gp::fitted_optimum`]); `None` runs cold.
    pub fn warm_started(seed: Option<&[f64]>) -> Self {
        HyperoptOptions {
            warm_start: seed.map(<[f64]>::to_vec),
            ..Default::default()
        }
    }
}

/// Runs the full hyperparameter search: optional warm probe with restart
/// shedding, then (unless shed) the seeded cold multi-start.
///
/// Cold starts go through [`multi_start_nelder_mead_par`]. On a warm-start
/// miss the probe's result is discarded (not raced against the cold runs), so the
/// returned optimum is bitwise the cold search's — only `evals` reflects the
/// probe's extra work.
pub(crate) fn search(
    f: &(impl Fn(&[f64]) -> f64 + Sync),
    p0: &[f64],
    spread: f64,
    restarts: usize,
    opts: &NelderMeadOptions,
    seed: u64,
    hopts: &HyperoptOptions,
) -> (OptimResult, FitStats) {
    let mut stats = FitStats::default();
    let warm = hopts
        .warm_start
        .as_deref()
        .filter(|w| w.len() == p0.len() && w.iter().all(|v| v.is_finite()));

    let warm_result = warm.map(|w| {
        let at_start = f(w);
        // The probe answers one question: does the previous optimum still sit
        // at a local optimum? A still-converged seed shows no descent within
        // a few simplex sweeps, and a shifted surface shows descent just as
        // quickly — either way the answer arrives long before a full search
        // budget. Running the probe under a reduced eval cap keeps misses
        // (whose probe is discarded entirely) cheap instead of charging a
        // full search for a negative answer.
        let probe_opts = NelderMeadOptions {
            max_evals: (opts.max_evals / 4)
                .max(2 * (w.len() + 1))
                .min(opts.max_evals),
            ..opts.clone()
        };
        let run = nelder_mead(f, w, &probe_opts);
        stats.nll_evals += 1 + run.evals;
        let tol = hopts.warm_start_tol * run.value.abs().max(1.0);
        let hit = run.value.is_finite() && at_start.is_finite() && (at_start - run.value) <= tol;
        (run, hit)
    });

    if let Some((run, true)) = &warm_result {
        stats.warm_start_hits = 1;
        let mut best = run.clone();
        best.evals = stats.nll_evals;
        return (best, stats);
    }
    stats.warm_start_misses = usize::from(warm_result.is_some());

    let mut best = multi_start_nelder_mead_par(f, p0, spread, restarts, opts, seed);
    stats.nll_evals += best.evals;
    stats.restarts_run = restarts;
    best.evals = stats.nll_evals;
    (best, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quartic(x: &[f64]) -> f64 {
        // Two minima: global at -1 (value -0.25 area), local at +1.
        x[0].powi(4) - x[0].powi(2) + 0.05 * x[0]
    }

    #[test]
    fn cold_search_matches_parallel_multistart_exactly() {
        let opts = NelderMeadOptions::default();
        let (r, stats) = search(
            &quartic,
            &[0.3],
            2.0,
            3,
            &opts,
            17,
            &HyperoptOptions::default(),
        );
        let reference = multi_start_nelder_mead_par(quartic, &[0.3], 2.0, 3, &opts, 17);
        assert_eq!(r.value.to_bits(), reference.value.to_bits());
        assert_eq!(r.evals, reference.evals);
        assert_eq!(stats.nll_evals, reference.evals);
        assert_eq!(stats.restarts_run, 3);
        assert_eq!((stats.warm_start_hits, stats.warm_start_misses), (0, 0));
    }

    #[test]
    fn warm_start_at_the_optimum_sheds_all_restarts() {
        let opts = NelderMeadOptions::default();
        // Find the true optimum cold, then warm-start exactly there.
        let (cold, _) = search(
            &quartic,
            &[0.3],
            2.0,
            3,
            &opts,
            17,
            &HyperoptOptions::default(),
        );
        let hopts = HyperoptOptions {
            warm_start: Some(cold.x.clone()),
            ..Default::default()
        };
        let (warm, stats) = search(&quartic, &[0.3], 2.0, 3, &opts, 17, &hopts);
        assert_eq!(stats.warm_start_hits, 1);
        assert_eq!(stats.restarts_run, 0);
        assert!(warm.value <= cold.value + 1e-12);
        assert_eq!(warm.evals, stats.nll_evals);
    }

    #[test]
    fn bad_warm_start_falls_through_to_the_cold_search() {
        let opts = NelderMeadOptions::default();
        // A warm start parked far up the quartic wall improves massively
        // during its probe → miss → the probe is discarded and the result is
        // bitwise the cold multi-start's (only `evals` records the probe).
        let hopts = HyperoptOptions {
            warm_start: Some(vec![3.0]),
            ..Default::default()
        };
        let (r, stats) = search(&quartic, &[0.3], 2.0, 3, &opts, 17, &hopts);
        assert_eq!(stats.warm_start_misses, 1);
        assert_eq!(stats.restarts_run, 3);
        let reference = multi_start_nelder_mead_par(quartic, &[0.3], 2.0, 3, &opts, 17);
        assert_eq!(r.value.to_bits(), reference.value.to_bits());
        assert_eq!(
            r.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(r.evals > reference.evals, "probe evals must be accounted");
    }

    #[test]
    fn mismatched_or_nonfinite_warm_starts_are_ignored() {
        let opts = NelderMeadOptions::default();
        for bad in [vec![0.0, 0.0], vec![f64::NAN]] {
            let hopts = HyperoptOptions {
                warm_start: Some(bad),
                ..Default::default()
            };
            let (r, stats) = search(&quartic, &[0.3], 2.0, 2, &opts, 5, &hopts);
            assert_eq!((stats.warm_start_hits, stats.warm_start_misses), (0, 0));
            let reference = multi_start_nelder_mead_par(quartic, &[0.3], 2.0, 2, &opts, 5);
            assert_eq!(r.value.to_bits(), reference.value.to_bits());
        }
    }
}
