//! Derivative-free optimization used for maximum-likelihood hyperparameter
//! fitting: the Nelder–Mead simplex method with random multi-start.
//!
//! Marginal-likelihood surfaces of small GPs are low-dimensional (≤ ~20
//! parameters here) and cheap to evaluate, so a robust simplex search with a few
//! restarts is the standard pragmatic choice.

use rand::rngs::StdRng;
use rand::{derive_stream_seed, RngExt, SeedableRng};
use rayon::prelude::*;

/// Outcome of a [`nelder_mead`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimResult {
    /// The best point found.
    pub x: Vec<f64>,
    /// Objective value at [`OptimResult::x`].
    pub value: f64,
    /// Number of objective evaluations consumed.
    pub evals: usize,
}

/// Options for [`nelder_mead`].
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMeadOptions {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Terminate when the simplex value spread falls below this.
    pub tol: f64,
    /// Initial simplex edge length.
    pub step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_evals: 400,
            tol: 1e-7,
            step: 0.5,
        }
    }
}

/// Minimizes `f` from the starting point `x0` with the Nelder–Mead simplex
/// method. Non-finite objective values are treated as `+inf` (rejected moves),
/// which makes the routine robust to Cholesky failures at extreme
/// hyperparameters.
///
/// # Examples
///
/// ```
/// use cmmf_gp::optimize::{nelder_mead, NelderMeadOptions};
///
/// let r = nelder_mead(
///     |x| (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2),
///     &[0.0, 0.0],
///     &NelderMeadOptions::default(),
/// );
/// assert!((r.x[0] - 1.0).abs() < 1e-3 && (r.x[1] + 2.0).abs() < 1e-3);
/// ```
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> OptimResult {
    let n = x0.len();
    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };

    if n == 0 {
        let value = eval(x0, &mut evals);
        return OptimResult {
            x: x0.to_vec(),
            value,
            evals,
        };
    }

    // Build the initial simplex: x0 plus a step along each axis.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let v0 = eval(x0, &mut evals);
    simplex.push((x0.to_vec(), v0));
    for i in 0..n {
        let mut xi = x0.to_vec();
        xi[i] += opts.step;
        let vi = eval(&xi, &mut evals);
        simplex.push((xi, vi));
    }

    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    while evals < opts.max_evals {
        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let spread = simplex[n].1 - simplex[0].1;
        if spread.abs() < opts.tol {
            break;
        }

        // Centroid of all but the worst point.
        let mut centroid = vec![0.0; n];
        for (x, _) in simplex.iter().take(n) {
            for (c, xi) in centroid.iter_mut().zip(x) {
                *c += xi / n as f64;
            }
        }

        let worst = simplex[n].clone();
        let reflect: Vec<f64> = centroid
            .iter()
            .zip(&worst.0)
            .map(|(c, w)| c + ALPHA * (c - w))
            .collect();
        let fr = eval(&reflect, &mut evals);

        if fr < simplex[0].1 {
            // Try expansion.
            let expand: Vec<f64> = centroid
                .iter()
                .zip(&worst.0)
                .map(|(c, w)| c + GAMMA * ALPHA * (c - w))
                .collect();
            let fe = eval(&expand, &mut evals);
            simplex[n] = if fe < fr { (expand, fe) } else { (reflect, fr) };
        } else if fr < simplex[n - 1].1 {
            simplex[n] = (reflect, fr);
        } else {
            // Contraction (outside if reflection improved on the worst).
            let toward = if fr < worst.1 { &reflect } else { &worst.0 };
            let contract: Vec<f64> = centroid
                .iter()
                .zip(toward)
                .map(|(c, t)| c + RHO * (t - c))
                .collect();
            let fc = eval(&contract, &mut evals);
            if fc < worst.1.min(fr) {
                simplex[n] = (contract, fc);
            } else {
                // Shrink toward the best point.
                let best = simplex[0].0.clone();
                for entry in simplex.iter_mut().skip(1) {
                    let x: Vec<f64> = best
                        .iter()
                        .zip(&entry.0)
                        .map(|(b, xi)| b + SIGMA * (xi - b))
                        .collect();
                    let v = eval(&x, &mut evals);
                    *entry = (x, v);
                }
            }
        }
    }

    simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
    OptimResult {
        x: simplex[0].0.clone(),
        value: simplex[0].1,
        evals,
    }
}

/// Runs [`nelder_mead`] from `x0` and from `restarts` random perturbations of
/// it (uniform in `x0 ± spread`) through the in-tree rayon pool, returning
/// the best result: restart `r` draws its start point from its own
/// [`derive_stream_seed`] stream `(seed, r)`, every search runs
/// independently (the simplex method itself is deterministic), and the winner
/// is chosen by a serial first-min scan in source order (`x0`'s run first,
/// then restarts in index order) — so the result is **bit-identical at any
/// thread count**, the same contract family as the optimizer's parallel
/// reductions.
///
/// `new_objective` is called once per start, on the thread that runs it, and
/// the objective it returns lives exactly as long as that start: whatever
/// scratch the objective owns (a likelihood evaluation's factor buffer, say)
/// is allocated once per start and dropped when the start ends.
///
/// # Examples
///
/// ```
/// use cmmf_gp::optimize::{multi_start_nelder_mead_par, NelderMeadOptions};
///
/// let r = multi_start_nelder_mead_par(
///     || |x: &[f64]| x[0].powi(4) - x[0].powi(2), // two symmetric minima
///     &[0.0],
///     2.0,
///     3,
///     &NelderMeadOptions::default(),
///     7,
/// );
/// assert!(r.value < -0.24);
/// ```
pub fn multi_start_nelder_mead_par<F: FnMut(&[f64]) -> f64>(
    new_objective: impl Fn() -> F + Sync,
    x0: &[f64],
    spread: f64,
    restarts: usize,
    opts: &NelderMeadOptions,
    seed: u64,
) -> OptimResult {
    let starts = seeded_starts(x0, spread, restarts, seed);
    let results: Vec<OptimResult> = starts
        .par_iter()
        .map(|start| nelder_mead(new_objective(), start, opts))
        .collect();
    select_best(results)
}

/// `x0` followed by `restarts` perturbations, restart `r` drawn from its own
/// [`derive_stream_seed`] stream `(seed, r)` — independent of execution order.
fn seeded_starts(x0: &[f64], spread: f64, restarts: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut starts: Vec<Vec<f64>> = Vec::with_capacity(restarts + 1);
    starts.push(x0.to_vec());
    for r in 0..restarts {
        let mut rng = StdRng::seed_from_u64(derive_stream_seed(seed, &[r as u64]));
        starts.push(
            x0.iter()
                .map(|v| v + rng.random_range(-spread..=spread))
                .collect(),
        );
    }
    starts
}

/// Serial first-min scan in source order: strict `<` resolves ties to the
/// earliest run, exactly as the sequential loop would; evals are summed.
fn select_best(results: Vec<OptimResult>) -> OptimResult {
    let mut iter = results.into_iter();
    let mut best = iter
        .next()
        // cmmf-lint: allow(P1) -- unreachable by contract: every caller seeds the x0 run
        .expect("multi-start always runs the x0 search");
    for r in iter {
        if r.value < best.value {
            best.x = r.x;
            best.value = r.value;
        }
        best.evals += r.evals;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Serial reference twin of [`multi_start_nelder_mead_par`]: same derived
    /// start points, same per-start objectives, same source-order selection,
    /// one search at a time on the calling thread.
    fn multi_start_nelder_mead_seq<F: FnMut(&[f64]) -> f64>(
        new_objective: impl Fn() -> F,
        x0: &[f64],
        spread: f64,
        restarts: usize,
        opts: &NelderMeadOptions,
        seed: u64,
    ) -> OptimResult {
        let starts = seeded_starts(x0, spread, restarts, seed);
        let results: Vec<OptimResult> = starts
            .iter()
            .map(|start| nelder_mead(new_objective(), start, opts))
            .collect();
        select_best(results)
    }

    #[test]
    fn minimizes_quadratic() {
        let r = nelder_mead(
            |x| x.iter().map(|v| (v - 3.0) * (v - 3.0)).sum(),
            &[0.0, 0.0, 0.0],
            &NelderMeadOptions {
                max_evals: 2000,
                ..Default::default()
            },
        );
        for v in &r.x {
            assert!((v - 3.0).abs() < 1e-3);
        }
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = nelder_mead(
            rosen,
            &[-1.2, 1.0],
            &NelderMeadOptions {
                max_evals: 4000,
                tol: 1e-12,
                step: 0.5,
            },
        );
        assert!(r.value < 1e-5, "value={}", r.value);
    }

    #[test]
    fn handles_nan_objective() {
        // NaN region to the left of 0; minimum at x = 1.
        let r = nelder_mead(
            |x| {
                if x[0] < 0.0 {
                    f64::NAN
                } else {
                    (x[0] - 1.0).powi(2)
                }
            },
            &[0.5],
            &NelderMeadOptions::default(),
        );
        assert!((r.x[0] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn multistart_escapes_local_minimum() {
        // f has a local min near x=4 (value ~1) and global near x=0 (value 0).
        let f = |x: &[f64]| {
            let a = x[0];
            (a * a).min((a - 4.0) * (a - 4.0) + 1.0)
        };
        let r =
            multi_start_nelder_mead_par(|| f, &[4.0], 5.0, 8, &NelderMeadOptions::default(), 42);
        assert!(r.value < 0.5);
    }

    #[test]
    fn zero_dim_input_is_fine() {
        let r = nelder_mead(|_| 1.5, &[], &NelderMeadOptions::default());
        assert_eq!(r.value, 1.5);
        assert!(r.x.is_empty());
    }

    /// A bumpy two-dimensional surface with several local minima, so restarts
    /// genuinely land in different basins.
    fn bumpy(x: &[f64]) -> f64 {
        let (a, b) = (x[0], x[1]);
        (a * a + b * b) * 0.1 + (3.0 * a).sin() + (2.0 * b).cos()
    }

    /// A per-start objective that owns state, the way the likelihood
    /// search's objectives own their factor buffers: it remembers the first
    /// point it sees (its start) in a buffer allocated once, and adds a small
    /// proximal term anchored there. An objective shared across starts would
    /// anchor every start at the first one and change the results.
    fn anchored_bumpy() -> impl FnMut(&[f64]) -> f64 {
        let mut anchor: Vec<f64> = Vec::with_capacity(2);
        move |x| {
            if anchor.is_empty() {
                anchor.extend_from_slice(x);
            }
            let pull: f64 = x.iter().zip(&anchor).map(|(a, b)| (a - b) * (a - b)).sum();
            bumpy(x) + 0.01 * pull
        }
    }

    #[test]
    fn parallel_multistart_matches_serial_reference_bitwise() {
        // The contract behind `multi_start_nelder_mead_par`: each restart's
        // start point comes from its own derived stream, each start gets its
        // own objective from the factory, and each search is deterministic,
        // so the parallel run must agree bit-for-bit with a serial loop over
        // the same starts, each with a fresh objective.
        let x0 = [0.5, -0.25];
        let opts = NelderMeadOptions::default();
        let (spread, restarts, seed) = (3.0, 4u64, 9u64);
        let mut runs = vec![nelder_mead(anchored_bumpy(), &x0, &opts)];
        for r in 0..restarts {
            let mut rng = rand::rngs::StdRng::seed_from_u64(derive_stream_seed(seed, &[r]));
            let start: Vec<f64> = x0
                .iter()
                .map(|v| v + rng.random_range(-spread..=spread))
                .collect();
            runs.push(nelder_mead(anchored_bumpy(), &start, &opts));
        }
        let reference = select_best(runs);
        let made = std::sync::atomic::AtomicUsize::new(0);
        let factory = || {
            made.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            anchored_bumpy()
        };
        let par = multi_start_nelder_mead_par(factory, &x0, spread, restarts as usize, &opts, seed);
        assert_eq!(made.swap(0, std::sync::atomic::Ordering::Relaxed), 5);
        assert_eq!(par.value.to_bits(), reference.value.to_bits());
        assert_eq!(par.evals, reference.evals);
        let pb: Vec<u64> = par.x.iter().map(|v| v.to_bits()).collect();
        let rb: Vec<u64> = reference.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(pb, rb);
        // The serial reference runs the same starts in the same order.
        let seq = multi_start_nelder_mead_seq(factory, &x0, spread, restarts as usize, &opts, seed);
        assert_eq!(made.load(std::sync::atomic::Ordering::Relaxed), 5);
        assert_eq!(seq.value.to_bits(), reference.value.to_bits());
        assert_eq!(seq.evals, reference.evals);
        let sb: Vec<u64> = seq.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(sb, rb);
        // One objective shared by every start lands elsewhere.
        let shared = std::sync::Mutex::new(anchored_bumpy());
        let pooled = multi_start_nelder_mead_seq(
            || |x: &[f64]| (shared.lock().unwrap())(x),
            &x0,
            spread,
            restarts as usize,
            &opts,
            seed,
        );
        assert_ne!(pooled.x, reference.x);
    }

    #[test]
    fn parallel_multistart_is_thread_count_invariant() {
        let opts = NelderMeadOptions::default();
        let run = || multi_start_nelder_mead_par(anchored_bumpy, &[0.5, -0.25], 3.0, 6, &opts, 21);
        let baseline = run();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let r = pool.install(run);
            assert_eq!(
                r.value.to_bits(),
                baseline.value.to_bits(),
                "threads={threads}"
            );
            assert_eq!(r.evals, baseline.evals, "threads={threads}");
            let a: Vec<u64> = r.x.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = baseline.x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "threads={threads}");
        }
    }
}
