//! Derivative-free optimization used for maximum-likelihood hyperparameter
//! fitting: the Nelder–Mead simplex method with random multi-start.
//!
//! Marginal-likelihood surfaces of small GPs are low-dimensional (≤ ~20
//! parameters here) and cheap to evaluate, so a robust simplex search with a few
//! restarts is the standard pragmatic choice.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

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
    let mut run = NelderMead::new(x0, opts);
    while !run.is_done() {
        run.step(&mut f);
    }
    run.into_result()
}

const ALPHA: f64 = 1.0; // reflection
const GAMMA: f64 = 2.0; // expansion
const RHO: f64 = 0.5; // contraction
const SIGMA: f64 = 0.5; // shrink

/// The point a [`NelderMead`] run evaluates next, and what its value decides.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Vertex `i` of the initial simplex: `x0`, then `x0` plus `step` along
    /// axis `i − 1`.
    Init(usize),
    /// The worst vertex reflected through the centroid of the others.
    Reflect,
    /// Twice as far out, after a reflection that beat the best vertex.
    Expand,
    /// Halfway from the centroid to the better of the worst vertex and its
    /// reflection.
    Contract,
    /// Vertex `i` (`1..=n`) moved halfway to the best one.
    Shrink(usize),
    /// The run has stopped and the simplex is sorted.
    Done,
}

/// One Nelder–Mead run that can pause between any two objective
/// evaluations: each [`NelderMead::step`] evaluates one point, in the order
/// of the classic loop (initial simplex, then reflect, expand or contract,
/// or shrink vertex by vertex, with the budget and the spread checked before
/// each reflection), so driving it to the end is that loop, bit for bit. The
/// run holds no objective: the caller passes it to every step, which is what
/// lets a start move between the workers of [`multi_start_nelder_mead_par`]
/// together with the objective it owns.
#[derive(Debug)]
struct NelderMead {
    max_evals: usize,
    tol: f64,
    step: f64,
    /// The vertices and their values (fewer than `n + 1` while the initial
    /// simplex is built).
    simplex: Vec<(Vec<f64>, f64)>,
    /// The point the next step evaluates.
    point: Vec<f64>,
    /// Centroid of all but the worst vertex, in the current iteration.
    centroid: Vec<f64>,
    /// The reflection and its value while its expansion or contraction is
    /// pending.
    reflected: (Vec<f64>, f64),
    evals: usize,
    phase: Phase,
}

impl NelderMead {
    /// A run from `x0` that has evaluated nothing yet.
    fn new(x0: &[f64], opts: &NelderMeadOptions) -> Self {
        NelderMead {
            max_evals: opts.max_evals,
            tol: opts.tol,
            step: opts.step,
            simplex: Vec::with_capacity(x0.len() + 1),
            point: x0.to_vec(),
            centroid: vec![0.0; x0.len()],
            reflected: (Vec::new(), f64::INFINITY),
            evals: 0,
            phase: Phase::Init(0),
        }
    }

    fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Evaluates the pending point (a non-finite value counts as `+∞`),
    /// applies the value, and moves on to the next point or stops. A
    /// stopped run evaluates nothing.
    fn step(&mut self, f: &mut impl FnMut(&[f64]) -> f64) {
        if self.is_done() {
            return;
        }
        self.evals += 1;
        let v = f(&self.point);
        let v = if v.is_finite() { v } else { f64::INFINITY };
        let n = self.centroid.len();
        match self.phase {
            Phase::Init(i) => {
                self.simplex.push((std::mem::take(&mut self.point), v));
                if i < n {
                    let mut next = self.simplex[0].0.clone();
                    next[i] += self.step;
                    self.point = next;
                    self.phase = Phase::Init(i + 1);
                } else if n == 0 {
                    self.finish();
                } else {
                    self.iterate();
                }
            }
            Phase::Reflect => {
                let reflect = std::mem::take(&mut self.point);
                let worst = &self.simplex[n];
                if v < self.simplex[0].1 {
                    self.point = self
                        .centroid
                        .iter()
                        .zip(&worst.0)
                        .map(|(c, w)| c + GAMMA * ALPHA * (c - w))
                        .collect();
                    self.reflected = (reflect, v);
                    self.phase = Phase::Expand;
                } else if v < self.simplex[n - 1].1 {
                    self.simplex[n] = (reflect, v);
                    self.iterate();
                } else {
                    // Outside if the reflection improved on the worst vertex.
                    let toward = if v < worst.1 { &reflect } else { &worst.0 };
                    self.point = self
                        .centroid
                        .iter()
                        .zip(toward)
                        .map(|(c, t)| c + RHO * (t - c))
                        .collect();
                    self.reflected = (reflect, v);
                    self.phase = Phase::Contract;
                }
            }
            Phase::Expand => {
                let reflected = std::mem::take(&mut self.reflected);
                self.simplex[n] = if v < reflected.1 {
                    (std::mem::take(&mut self.point), v)
                } else {
                    reflected
                };
                self.iterate();
            }
            Phase::Contract => {
                if v < self.simplex[n].1.min(self.reflected.1) {
                    self.simplex[n] = (std::mem::take(&mut self.point), v);
                    self.iterate();
                } else {
                    self.shrink(1);
                }
            }
            Phase::Shrink(i) => {
                self.simplex[i] = (std::mem::take(&mut self.point), v);
                if i < n {
                    self.shrink(i + 1);
                } else {
                    self.iterate();
                }
            }
            Phase::Done => {}
        }
    }

    /// The head of an iteration: stops on the spent budget or a collapsed
    /// spread, or sets up the worst vertex's reflection.
    fn iterate(&mut self) {
        if self.evals >= self.max_evals {
            return self.finish();
        }
        self.simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let n = self.centroid.len();
        let spread = self.simplex[n].1 - self.simplex[0].1;
        if spread.abs() < self.tol {
            return self.finish();
        }
        self.centroid.fill(0.0);
        for (x, _) in self.simplex.iter().take(n) {
            for (c, xi) in self.centroid.iter_mut().zip(x) {
                *c += xi / n as f64;
            }
        }
        self.point = self
            .centroid
            .iter()
            .zip(&self.simplex[n].0)
            .map(|(c, w)| c + ALPHA * (c - w))
            .collect();
        self.phase = Phase::Reflect;
    }

    /// Sets up vertex `i`'s move halfway to the best vertex.
    fn shrink(&mut self, i: usize) {
        self.point = self.simplex[0]
            .0
            .iter()
            .zip(&self.simplex[i].0)
            .map(|(b, xi)| b + SIGMA * (xi - b))
            .collect();
        self.phase = Phase::Shrink(i);
    }

    fn finish(&mut self) {
        self.simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        self.phase = Phase::Done;
    }

    /// A stopped run's best vertex, its value and the evaluations spent.
    fn into_result(self) -> OptimResult {
        debug_assert!(self.is_done(), "only a stopped run has a result");
        let (x, value) = self
            .simplex
            .into_iter()
            .next()
            .unwrap_or((self.point, f64::INFINITY));
        OptimResult {
            x,
            value,
            evals: self.evals,
        }
    }
}

/// Evaluations a start runs each time a worker takes it: a queue round trip
/// (one lock, one move) is noise next to that many likelihood evaluations
/// (about 10 µs each at the smallest surrogate), and starts that end
/// together finish within one segment of each other.
const SEGMENT_EVALS: usize = 16;

/// Starts that may hold an objective at once, per worker. With more starts
/// than workers alive, the last of them share all workers, so starts of
/// equal length take `S / T` start-times, not `ceil(S / T)`; the bound keeps
/// a search with many restarts from holding a workspace for each.
const LIVE_STARTS_PER_WORKER: usize = 2;

/// Runs [`nelder_mead`] from `x0` and from `restarts` random perturbations of
/// it (uniform in `x0 ± spread`) on the in-tree rayon pool's threads,
/// returning the best result: restart `r` draws its start point from its own
/// [`derive_stream_seed`] stream `(seed, r)`, every search runs
/// independently (the simplex method itself is deterministic), and the winner
/// is chosen by a serial first-min scan in source order (`x0`'s run first,
/// then restarts in index order) — so the result is **bit-identical at any
/// thread count**, the same contract family as the optimizer's parallel
/// reductions.
///
/// The starts share `T = min(threads, starts)` workers through one queue: a
/// worker takes a start, runs it for a fixed number of evaluations and puts
/// it back, so the starts move between workers and end together (three
/// equal starts on two threads take 1.5 start-times, not 2). At most `2T`
/// starts hold an objective at once, begun in index order. One start, or
/// one thread, runs the starts one after another on the calling thread.
///
/// `new_objective` is called once per start, on the thread that begins it,
/// and the objective it returns lives exactly as long as that start, moving
/// with it between workers (hence `F: Send`): whatever scratch the objective
/// owns (a likelihood evaluation's factor buffer, say) is allocated once per
/// start and dropped when the start ends, before the next start begins.
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
pub fn multi_start_nelder_mead_par<F: FnMut(&[f64]) -> f64 + Send>(
    new_objective: impl Fn() -> F + Sync,
    x0: &[f64],
    spread: f64,
    restarts: usize,
    opts: &NelderMeadOptions,
    seed: u64,
) -> OptimResult {
    let starts = seeded_starts(x0, spread, restarts, seed);
    select_best(run_starts(&new_objective, &starts, opts, SEGMENT_EVALS))
}

/// One search from each of `starts`, results in start order: through the
/// queue on `T = min(threads, starts)` workers, each taking a start for
/// `segment` evaluations at a time, or one after another where `T = 1`.
fn run_starts<F: FnMut(&[f64]) -> f64 + Send>(
    new_objective: &(impl Fn() -> F + Sync),
    starts: &[Vec<f64>],
    opts: &NelderMeadOptions,
    segment: usize,
) -> Vec<OptimResult> {
    let workers = rayon::current_num_threads().min(starts.len());
    if workers <= 1 {
        return starts
            .iter()
            .map(|start| nelder_mead(new_objective(), start, opts))
            .collect();
    }
    let queue = StartQueue {
        state: Mutex::new(QueueState {
            waiting: VecDeque::new(),
            next: 0,
            live: 0,
        }),
        window: LIVE_STARTS_PER_WORKER * workers,
    };
    let mut finished: Vec<(usize, OptimResult)> = (0..workers)
        .into_par_iter()
        .map(|_| queue.work(new_objective, starts, opts, segment))
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect();
    finished.sort_by_key(|&(index, _)| index);
    finished.into_iter().map(|(_, r)| r).collect()
}

/// The queue [`run_starts`]' workers share.
struct StartQueue<F> {
    state: Mutex<QueueState<F>>,
    /// Most starts holding an objective at once.
    window: usize,
}

struct QueueState<F> {
    /// Begun, unfinished starts that no worker holds, in the order they
    /// were put back.
    waiting: VecDeque<Search<F>>,
    /// The next start to begin.
    next: usize,
    /// Starts holding an objective: waiting, or held by a worker.
    live: usize,
}

/// A begun start: its index, its run, and the objective only it evaluates.
struct Search<F> {
    index: usize,
    run: NelderMead,
    objective: F,
}

impl<F: FnMut(&[f64]) -> f64 + Send> StartQueue<F> {
    /// One worker: begins the next start while the window has room, else
    /// takes the start waiting longest, runs it for `segment` evaluations,
    /// and puts it back or, finished, drops its objective and keeps its
    /// result. Returns when no start is left to begin or waiting; the starts
    /// other workers hold then finish on their threads.
    fn work(
        &self,
        new_objective: &impl Fn() -> F,
        starts: &[Vec<f64>],
        opts: &NelderMeadOptions,
        segment: usize,
    ) -> Vec<(usize, OptimResult)> {
        let mut finished = Vec::new();
        let mut held: Option<Search<F>> = None;
        loop {
            let mut search = {
                let mut state = self.lock();
                if let Some(search) = held.take() {
                    state.waiting.push_back(search);
                }
                if state.live < self.window && state.next < starts.len() {
                    let index = state.next;
                    state.next += 1;
                    state.live += 1;
                    drop(state);
                    Search {
                        index,
                        run: NelderMead::new(&starts[index], opts),
                        objective: new_objective(),
                    }
                } else if let Some(search) = state.waiting.pop_front() {
                    search
                } else {
                    return finished;
                }
            };
            for _ in 0..segment {
                search.run.step(&mut search.objective);
            }
            if search.run.is_done() {
                drop(search.objective);
                finished.push((search.index, search.run.into_result()));
                self.lock().live -= 1;
            } else {
                held = Some(search);
            }
        }
    }

    /// The queue's state. Every critical section leaves it consistent (a
    /// push, a pop, a counter step), so a guard poisoned by a panic
    /// elsewhere is recovered; the panic itself resurfaces when the
    /// parallel map joins the worker that raised it.
    fn lock(&self) -> MutexGuard<'_, QueueState<F>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
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
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Which branches a run of [`nelder_mead_oracle`] took.
    #[derive(Debug, Default)]
    struct LoopPath {
        shrinks: usize,
        stopped_on_tol: bool,
        non_finite: usize,
    }

    /// The classic Nelder–Mead loop that [`NelderMead`] runs step by step,
    /// kept as its oracle: one pass of `while evals < max_evals` per
    /// iteration, with counters of the branches it took.
    fn nelder_mead_oracle(
        mut f: impl FnMut(&[f64]) -> f64,
        x0: &[f64],
        opts: &NelderMeadOptions,
    ) -> (OptimResult, LoopPath) {
        let mut path = LoopPath::default();
        let n = x0.len();
        let mut evals = 0usize;
        let mut non_finite = 0usize;
        let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
            *evals += 1;
            let v = f(x);
            if v.is_finite() {
                v
            } else {
                non_finite += 1;
                f64::INFINITY
            }
        };

        if n == 0 {
            let value = eval(x0, &mut evals);
            path.non_finite = non_finite;
            let r = OptimResult {
                x: x0.to_vec(),
                value,
                evals,
            };
            return (r, path);
        }

        let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
        let v0 = eval(x0, &mut evals);
        simplex.push((x0.to_vec(), v0));
        for i in 0..n {
            let mut xi = x0.to_vec();
            xi[i] += opts.step;
            let vi = eval(&xi, &mut evals);
            simplex.push((xi, vi));
        }

        while evals < opts.max_evals {
            simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
            let spread = simplex[n].1 - simplex[0].1;
            if spread.abs() < opts.tol {
                path.stopped_on_tol = true;
                break;
            }

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
                    path.shrinks += 1;
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
        path.non_finite = non_finite;
        let r = OptimResult {
            x: simplex[0].0.clone(),
            value: simplex[0].1,
            evals,
        };
        (r, path)
    }

    /// Serial reference twin of [`multi_start_nelder_mead_par`]: same derived
    /// start points, same per-start objectives, same source-order selection,
    /// one search at a time on the calling thread through the oracle loop.
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
            .map(|start| nelder_mead_oracle(new_objective(), start, opts).0)
            .collect();
        select_best(results)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts that two results agree bit for bit.
    fn assert_same(got: &OptimResult, want: &OptimResult, tag: &str) {
        assert_eq!(got.value.to_bits(), want.value.to_bits(), "{tag}");
        assert_eq!(got.evals, want.evals, "{tag}");
        assert_eq!(bits(&got.x), bits(&want.x), "{tag}");
    }

    /// A surface of any dimension: a bowl around `center` with ripples,
    /// NaN where `x_0 < nan_below`, `wall` (+∞ or −∞, which a run reads as
    /// +∞) where the last coordinate exceeds `inf_above`, and flat where
    /// `x_0 > flat_above`, where a simplex collapses its spread and the run
    /// stops on `tol`.
    #[derive(Debug, Clone)]
    struct Surface {
        center: Vec<f64>,
        ripple: f64,
        nan_below: f64,
        inf_above: f64,
        wall: f64,
        flat_above: f64,
    }

    impl Surface {
        fn eval(&self, x: &[f64]) -> f64 {
            let (Some(&first), Some(&last)) = (x.first(), x.last()) else {
                return self.ripple;
            };
            if first < self.nan_below {
                return f64::NAN;
            }
            if last > self.inf_above {
                return self.wall;
            }
            if first > self.flat_above {
                return 0.5;
            }
            x.iter()
                .zip(&self.center)
                .map(|(v, c)| (v - c) * (v - c) + self.ripple * (3.0 * v).sin())
                .sum()
        }
    }

    /// One run's evaluated points and result, all as bits.
    type RunBits = (Vec<Vec<u64>>, Vec<u64>, u64, usize);

    /// The oracle loop and the resumable run, driven one step at a time,
    /// on `surface` from `x0`: each run's evaluated points in order and its
    /// result, and the branches the oracle took.
    fn both_runs(
        surface: &Surface,
        x0: &[f64],
        opts: &NelderMeadOptions,
    ) -> (RunBits, RunBits, LoopPath) {
        let mut seen = Vec::new();
        let (want, path) = nelder_mead_oracle(
            |x| {
                seen.push(bits(x));
                surface.eval(x)
            },
            x0,
            opts,
        );
        let oracle = (seen, bits(&want.x), want.value.to_bits(), want.evals);
        let mut seen = Vec::new();
        let mut run = NelderMead::new(x0, opts);
        let mut record = |x: &[f64]| {
            seen.push(bits(x));
            surface.eval(x)
        };
        while !run.is_done() {
            let before = run.evals;
            run.step(&mut record);
            assert_eq!(run.evals, before + 1, "a step evaluates exactly once");
        }
        run.step(&mut record); // a stopped run evaluates nothing
        let got = run.into_result();
        let resumable = (seen, bits(&got.x), got.value.to_bits(), got.evals);
        (resumable, oracle, path)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn resumable_run_matches_the_classic_loop_bitwise(
            (surface, x0) in (0usize..=4)
                .prop_flat_map(|n| (
                    proptest::collection::vec(-2.0f64..2.0, n),
                    proptest::collection::vec(-3.0f64..3.0, n),
                    -1.5f64..1.5,
                    (-6.0f64..0.5, -0.5f64..6.0, any::<bool>(), 0.0f64..8.0),
                ))
                .prop_map(|(center, x0, ripple, (nan_below, inf_above, negative, flat_above))| {
                    let wall = if negative { f64::NEG_INFINITY } else { f64::INFINITY };
                    let surface = Surface { center, ripple, nan_below, inf_above, wall, flat_above };
                    (surface, x0)
                }),
            (max_evals, tol, step) in (
                0usize..300,
                (0usize..4).prop_map(|i| [0.0, 1e-9, 1e-4, 1e-2][i]),
                0.05f64..1.5,
            ),
        ) {
            let opts = NelderMeadOptions { max_evals, tol, step };
            let (got, want, _) = both_runs(&surface, &x0, &opts);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn resumable_run_matches_the_classic_loop_on_every_branch() {
        // Cases the proptest draws at random, pinned here with the branch
        // each one must reach.
        let surface = |n: usize, nan_below: f64, inf_above: f64, flat_above: f64| Surface {
            center: vec![0.7; n],
            ripple: 0.3,
            nan_below,
            inf_above,
            wall: f64::INFINITY,
            flat_above,
        };
        let opts = |max_evals: usize, tol: f64| NelderMeadOptions {
            max_evals,
            tol,
            step: 0.5,
        };
        let open = surface(2, -9.0, 9.0, 9.0);
        // Zero-dimensional input: one evaluation, whatever the budget.
        for max_evals in [0, 1, 50] {
            let (got, want, _) =
                both_runs(&surface(0, -9.0, 9.0, 9.0), &[], &opts(max_evals, 1e-7));
            assert_eq!(got, want);
            assert_eq!(got.3, 1);
        }
        // A budget below n + 1 still builds the whole initial simplex.
        for max_evals in [0, 2] {
            let (got, want, _) = both_runs(&open, &[0.1, 0.2], &opts(max_evals, 1e-7));
            assert_eq!(got, want);
            assert_eq!(got.3, 3);
        }
        // A converging bowl stops early on `tol`.
        let (got, want, path) = both_runs(&open, &[0.1, 0.2], &opts(5000, 1e-7));
        assert_eq!(got, want);
        assert!(path.stopped_on_tol && got.3 < 5000, "{path:?} {}", got.3);
        // A flat start collapses the spread at once.
        let (got, want, path) = both_runs(&surface(3, -9.0, 9.0, 1.0), &[2.0; 3], &opts(90, 1e-7));
        assert_eq!(got, want);
        assert!(path.stopped_on_tol && got.3 == 4);
        // Walls of NaN and of +∞ or −∞ next to the start reject moves, and
        // the ripples make a contraction fail, so the simplex shrinks.
        for wall in [f64::INFINITY, f64::NEG_INFINITY] {
            let case = Surface {
                ripple: 0.6,
                wall,
                ..surface(2, 0.0, 0.6, 9.0)
            };
            let (got, want, path) = both_runs(&case, &[0.05, 0.1], &opts(200, 1e-9));
            assert_eq!(got, want);
            assert!(path.shrinks > 0 && path.non_finite > 0, "{path:?}");
        }
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

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_multistart_matches_serial_reference_bitwise() {
        // The contract behind `multi_start_nelder_mead_par`: each restart's
        // start point comes from its own derived stream, each start gets its
        // own objective from the factory, and each search is deterministic,
        // so the queued run must agree bit-for-bit with a serial oracle loop
        // over the same starts, each with a fresh objective, at any thread
        // count.
        let x0 = [0.5, -0.25];
        let opts = NelderMeadOptions::default();
        let (spread, restarts, seed) = (3.0, 4u64, 9u64);
        let mut runs = vec![nelder_mead_oracle(anchored_bumpy(), &x0, &opts).0];
        for r in 0..restarts {
            let mut rng = rand::rngs::StdRng::seed_from_u64(derive_stream_seed(seed, &[r]));
            let start: Vec<f64> = x0
                .iter()
                .map(|v| v + rng.random_range(-spread..=spread))
                .collect();
            runs.push(nelder_mead_oracle(anchored_bumpy(), &start, &opts).0);
        }
        let reference = select_best(runs);
        let made = AtomicUsize::new(0);
        let factory = || {
            made.fetch_add(1, Ordering::Relaxed);
            anchored_bumpy()
        };
        for threads in [1, 2, 3] {
            let par = pool(threads).install(|| {
                multi_start_nelder_mead_par(factory, &x0, spread, restarts as usize, &opts, seed)
            });
            assert_eq!(made.swap(0, Ordering::Relaxed), 5, "threads={threads}");
            assert_same(&par, &reference, &format!("threads={threads}"));
        }
        // The serial reference runs the same starts in the same order.
        let seq = multi_start_nelder_mead_seq(factory, &x0, spread, restarts as usize, &opts, seed);
        assert_eq!(made.load(Ordering::Relaxed), 5);
        assert_same(&seq, &reference, "serial");
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
        for restarts in [0, 1, 2, 4, 8] {
            let run = || {
                multi_start_nelder_mead_par(anchored_bumpy, &[0.5, -0.25], 3.0, restarts, &opts, 21)
            };
            let baseline = run();
            for threads in [1usize, 2, 3, 4, 7] {
                let r = pool(threads).install(run);
                assert_same(
                    &r,
                    &baseline,
                    &format!("restarts={restarts} threads={threads}"),
                );
            }
        }
    }

    /// A per-start objective whose runs end at different lengths: flat
    /// where `x_0 > 2`, so a start there stops on `tol` once its initial
    /// simplex is built, and [`anchored_bumpy`] elsewhere, where a run
    /// converges or spends its budget.
    fn uneven() -> impl FnMut(&[f64]) -> f64 {
        let mut bumpy = anchored_bumpy();
        move |x| if x[0] > 2.0 { 1.0 } else { bumpy(x) }
    }

    #[test]
    fn multistart_queue_is_thread_and_segment_invariant() {
        // Every start's result, not only the winner, must be the oracle's
        // at any thread count and segment length: a start is the same run
        // whichever workers advance it and wherever it pauses.
        let opts = NelderMeadOptions {
            max_evals: 150,
            ..Default::default()
        };
        let mut lengths = std::collections::BTreeSet::new();
        for restarts in [0, 1, 2, 4, 8] {
            let starts = seeded_starts(&[0.5, -0.25], 3.0, restarts, 21);
            let reference: Vec<OptimResult> = starts
                .iter()
                .map(|start| nelder_mead_oracle(uneven(), start, &opts).0)
                .collect();
            lengths.extend(reference.iter().map(|r| r.evals));
            for threads in [1, 2, 3, 4, 7] {
                let pool = pool(threads);
                // The last segment is longer than any run (the budget plus a
                // shrink's overshoot).
                for segment in [1, 3, SEGMENT_EVALS, 2 * opts.max_evals] {
                    let got = pool.install(|| run_starts(&uneven, &starts, &opts, segment));
                    assert_eq!(got.len(), reference.len());
                    for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                        let tag = format!(
                            "starts={} threads={threads} segment={segment} start={i}",
                            starts.len()
                        );
                        assert_same(g, r, &tag);
                    }
                }
            }
        }
        // Runs that stop early on `tol`, converge, or spend the budget.
        assert!(lengths.len() >= 3 && lengths.contains(&3), "{lengths:?}");
    }

    /// The objectives alive now and the most alive at once.
    #[derive(Default)]
    struct Census {
        alive: AtomicUsize,
        peak: AtomicUsize,
    }

    /// One objective's entry in a [`Census`], counted out when dropped.
    struct Member<'a>(&'a Census);

    impl Census {
        fn join(&self) -> Member<'_> {
            let now = self.alive.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            Member(self)
        }
    }

    impl Drop for Member<'_> {
        fn drop(&mut self) {
            self.0.alive.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn multistart_queue_bounds_the_live_objectives() {
        // With `tol` 0 no run stops before its budget, so every start needs
        // many one-evaluation segments, and the queue fills its window
        // before any start finishes: the peak is the bound itself.
        let opts = NelderMeadOptions {
            max_evals: 40,
            tol: 0.0,
            ..Default::default()
        };
        for restarts in [0, 1, 2, 4, 8] {
            let starts = seeded_starts(&[0.5, -0.25], 3.0, restarts, 5);
            for threads in [1, 2, 3, 4, 7] {
                let census = Census::default();
                let objective = || {
                    let member = census.join();
                    move |x: &[f64]| {
                        let _ = &member;
                        bumpy(x)
                    }
                };
                pool(threads).install(|| run_starts(&objective, &starts, &opts, 1));
                let bound = if threads == 1 {
                    1
                } else {
                    starts.len().min(2 * threads)
                };
                let tag = format!("starts={} threads={threads}", starts.len());
                assert_eq!(census.peak.load(Ordering::SeqCst), bound, "{tag}");
                assert_eq!(census.alive.load(Ordering::SeqCst), 0, "{tag}");
            }
        }
    }
}
