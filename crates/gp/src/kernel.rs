//! Covariance functions (kernels) with automatic-relevance-determination (ARD)
//! lengthscales.
//!
//! Hyperparameters are exposed in **log space** through [`Kernel::log_params`] /
//! [`Kernel::set_log_params`] so that unconstrained optimizers (Nelder–Mead) can
//! search them directly while the natural-space values stay positive.
//!
//! The ARD kernels precompute per-dimension inverse-squared lengthscales
//! (`1/ℓ_d²`) once per hyperparameter update, so the per-pair distance loops
//! are division-free: `s += (a_d - b_d)² · w_d`. [`Kernel::eval`] and the
//! batched [`Kernel::gram_into`] / [`Kernel::cross_into`] assembly paths share
//! the same precomputed weights and the same per-pair operations, keeping
//! every covariance path bit-consistent by construction.

use linalg::Matrix;

/// A positive-definite covariance function over `R^d`.
///
/// Implementations own their hyperparameters; [`crate::Gp::fit`] mutates them via
/// [`Kernel::set_log_params`] while maximizing the marginal likelihood.
///
/// # Examples
///
/// ```
/// use cmmf_gp::kernel::{Kernel, SquaredExponentialArd};
///
/// let k = SquaredExponentialArd::new(2);
/// let same = k.eval(&[0.1, 0.2], &[0.1, 0.2]);
/// let far = k.eval(&[0.1, 0.2], &[5.0, 5.0]);
/// assert!(same > far);
/// ```
pub trait Kernel: Send + Sync {
    /// Evaluates `k(a, b)`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `a` or `b` do not have [`Kernel::dim`]
    /// elements.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// Input dimension `d`.
    fn dim(&self) -> usize;

    /// Current hyperparameters in log space.
    fn log_params(&self) -> Vec<f64>;

    /// Replaces the hyperparameters with `p` (log space).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `p.len()` differs from
    /// `self.log_params().len()`.
    fn set_log_params(&mut self, p: &[f64]);

    /// Fills `out` with the Gram matrix `out[(i, j)] = k(xs[i], xs[j])`,
    /// writing into the caller's buffer. Only the lower triangle is evaluated; the upper
    /// is mirrored. Every in-tree kernel is *bitwise* symmetric — distances
    /// enter as `(a_d - b_d)²`, whose sign cancels exactly, and dot products
    /// commute exactly — so the mirrored assembly is bit-identical to
    /// evaluating every entry, at half the evaluation count. Large matrices
    /// assemble rows on the parallel execution layer with source-order
    /// placement, exactly like `Matrix::from_fn_par` (bit-identical at any
    /// thread count).
    ///
    /// Implementations overriding [`Kernel::eval`] must keep it bitwise
    /// symmetric for this default to stay exact.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `xs.len() x xs.len()`.
    fn gram_into(&self, xs: &[Vec<f64>], out: &mut Matrix) {
        let n = xs.len();
        assert_eq!(out.shape(), (n, n), "gram_into: buffer must be n x n");
        if n * n < ASSEMBLY_PAR_THRESHOLD {
            for i in 0..n {
                let row = out.row_mut(i);
                for (j, x) in xs.iter().enumerate().take(i + 1) {
                    row[j] = self.eval(&xs[i], x);
                }
            }
        } else {
            use rayon::prelude::*;
            let rows: Vec<Vec<f64>> = (0..n)
                .into_par_iter()
                .with_min_len(4)
                .map(|i| (0..=i).map(|j| self.eval(&xs[i], &xs[j])).collect())
                .collect();
            for (i, r) in rows.iter().enumerate() {
                out.row_mut(i)[..=i].copy_from_slice(r);
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                out[(i, j)] = out[(j, i)];
            }
        }
    }

    /// Whether this kernel's covariance is a scalar function of the
    /// ARD-weighted squared distance `s = Σ_d (a_d - b_d)² · w_d`, making it
    /// eligible for [`Kernel::gram_from_cache`] assembly. `false` (the
    /// default) makes callers fall back to [`Kernel::gram_into`].
    fn supports_distance_cache(&self) -> bool {
        false
    }

    /// Fills `out` with the Gram matrix from a precomputed
    /// [`DistanceCache`] instead of the raw inputs: each entry combines the
    /// cached per-dimension squared differences with the kernel's *current*
    /// inverse-squared lengthscales in the same ascending-dimension fused
    /// accumulation order as [`Kernel::eval`], then applies the same scalar
    /// tail — so the result is **bit-identical** to [`Kernel::gram_into`]
    /// on the inputs the cache was built from (pinned by
    /// `gram_from_cache_matches_gram_into_bitwise`). This turns the per-NLL-
    /// evaluation assembly of a hyperparameter search into an AXPY-style
    /// sweep over tensors computed once per fit.
    ///
    /// The default implementation panics; only call it when
    /// [`Kernel::supports_distance_cache`] returns `true`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has no ARD distance structure, if the cache was
    /// built for a different input dimension, or if `out` is not `n x n`.
    fn gram_from_cache(&self, cache: &DistanceCache, out: &mut Matrix) {
        let _ = (cache, out);
        // cmmf-lint: allow(P1) -- unreachable by contract: gated on supports_distance_cache()
        panic!("kernel has no ARD distance structure; use gram_into");
    }

    /// Fills `out[(i, j)] = k(xs[i], queries[j])` — the cross-covariance
    /// between the training inputs and a query chunk — into the caller's
    /// buffer. Entry values are identical to per-entry evaluation; rows
    /// assemble in parallel above the same threshold as
    /// [`Kernel::gram_into`].
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `xs.len() x queries.len()`.
    fn cross_into(&self, xs: &[Vec<f64>], queries: &[Vec<f64>], out: &mut Matrix) {
        let n = xs.len();
        let q = queries.len();
        assert_eq!(out.shape(), (n, q), "cross_into: buffer must be n x q");
        if n * q < ASSEMBLY_PAR_THRESHOLD {
            for (i, x) in xs.iter().enumerate() {
                let row = out.row_mut(i);
                for (o, query) in row.iter_mut().zip(queries) {
                    *o = self.eval(x, query);
                }
            }
        } else {
            use rayon::prelude::*;
            let rows: Vec<Vec<f64>> = (0..n)
                .into_par_iter()
                .with_min_len(4)
                .map(|i| {
                    queries
                        .iter()
                        .map(|query| self.eval(&xs[i], query))
                        .collect()
                })
                .collect();
            for (i, r) in rows.iter().enumerate() {
                out.row_mut(i).copy_from_slice(r);
            }
        }
    }
}

/// Entry count above which [`Kernel::gram_into`] / [`Kernel::cross_into`]
/// assemble rows in parallel (mirrors `Matrix::from_fn_par`'s threshold).
const ASSEMBLY_PAR_THRESHOLD: usize = 4096;

/// Per-fit cache of the parameter-*independent* pairwise structure of an ARD
/// kernel: the per-dimension squared differences
/// `D_d[i][j] = (x_i,d − x_j,d)²`, computed once per `fit` and combined with
/// the current inverse-squared lengthscales on every NLL evaluation (see
/// [`Kernel::gram_from_cache`]).
///
/// Layout is lower-triangle pair-major: the entry for pair `(i, j)` with
/// `j ≤ i` starts at `(i·(i+1)/2 + j)·dim` and holds the `dim` squared
/// differences in ascending-dimension order — the order [`Kernel::eval`]
/// accumulates them in.
#[derive(Debug)]
pub struct DistanceCache {
    n: usize,
    dim: usize,
    d2: Vec<f64>,
}

impl DistanceCache {
    /// Precomputes the squared-difference tensors for `xs`. Each difference
    /// is computed exactly as [`Kernel::eval`] does (`d = x − y; d·d`), so
    /// the cached values are bitwise identical to what a from-scratch
    /// evaluation would re-derive.
    pub fn new(xs: &[Vec<f64>]) -> Self {
        let n = xs.len();
        let dim = xs.first().map_or(0, |x| x.len());
        let mut d2 = vec![0.0; n * (n + 1) / 2 * dim];
        for i in 0..n {
            let row_base = i * (i + 1) / 2;
            for (j, other) in xs.iter().enumerate().take(i + 1) {
                let base = (row_base + j) * dim;
                for (k, (x, y)) in xs[i].iter().zip(other).enumerate() {
                    let d = x - y;
                    d2[base + k] = d * d;
                }
            }
        }
        DistanceCache { n, dim, d2 }
    }

    /// Number of cached inputs.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the cache covers zero inputs.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Input dimension the cache was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The cached squared differences of pair `(i, j)`, `j ≤ i`.
    fn pair(&self, i: usize, j: usize) -> &[f64] {
        let base = (i * (i + 1) / 2 + j) * self.dim;
        &self.d2[base..base + self.dim]
    }
}

/// The shared [`Kernel::gram_from_cache`] body: fuses the cached tensors with
/// the per-dimension weights in ascending-dimension order (`s += D_d · w_d`,
/// exactly `eval`'s accumulation), applies `tail(s)` to the lower triangle,
/// and mirrors — the same structure as the default [`Kernel::gram_into`],
/// with the same parallel-row threshold (entries are independent, so the
/// values are bit-identical at any thread count).
fn assemble_from_cache(
    cache: &DistanceCache,
    out: &mut Matrix,
    weights: &[f64],
    tail: &(impl Fn(f64) -> f64 + Sync),
) {
    let n = cache.n;
    assert_eq!(
        weights.len(),
        cache.dim,
        "gram_from_cache: cache dimension mismatch"
    );
    assert_eq!(out.shape(), (n, n), "gram_from_cache: buffer must be n x n");
    let entry = |i: usize, j: usize| -> f64 {
        let mut s = 0.0;
        for (d2, w) in cache.pair(i, j).iter().zip(weights) {
            s += d2 * w;
        }
        tail(s)
    };
    if n * n < ASSEMBLY_PAR_THRESHOLD {
        for i in 0..n {
            let row = out.row_mut(i);
            for (j, o) in row.iter_mut().enumerate().take(i + 1) {
                *o = entry(i, j);
            }
        }
    } else {
        use rayon::prelude::*;
        let rows: Vec<Vec<f64>> = (0..n)
            .into_par_iter()
            .with_min_len(4)
            .map(|i| (0..=i).map(|j| entry(i, j)).collect())
            .collect();
        for (i, r) in rows.iter().enumerate() {
            out.row_mut(i)[..=i].copy_from_slice(r);
        }
    }
    for i in 0..n {
        for j in (i + 1)..n {
            out[(i, j)] = out[(j, i)];
        }
    }
}

/// `1/ℓ²` per entry: the per-dimension division hoisted out of the per-pair
/// distance loops, performed once per hyperparameter update.
fn inv_sq(ls: &[f64]) -> Vec<f64> {
    ls.iter().map(|l| 1.0 / (l * l)).collect()
}

/// Anisotropic squared-exponential (RBF) kernel:
/// `k(a,b) = σ_f² · exp(-½ Σ_d (a_d-b_d)²/ℓ_d²)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SquaredExponentialArd {
    lengthscales: Vec<f64>,
    signal_var: f64,
    /// `1/ℓ_d²` per dimension (derived; refreshed on every parameter update).
    inv_sq_lengthscales: Vec<f64>,
}

impl SquaredExponentialArd {
    /// Unit-parameter kernel over `dim` inputs (all lengthscales 1, σ_f² = 1).
    pub fn new(dim: usize) -> Self {
        Self::with_params(vec![1.0; dim], 1.0)
    }

    /// Kernel with explicit natural-space lengthscales and signal variance.
    ///
    /// # Panics
    ///
    /// Panics if any lengthscale or the signal variance is not strictly positive.
    pub fn with_params(lengthscales: Vec<f64>, signal_var: f64) -> Self {
        assert!(
            lengthscales.iter().all(|l| *l > 0.0) && signal_var > 0.0,
            "kernel parameters must be positive"
        );
        let inv_sq_lengthscales = inv_sq(&lengthscales);
        SquaredExponentialArd {
            lengthscales,
            signal_var,
            inv_sq_lengthscales,
        }
    }

    /// Natural-space lengthscales.
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// Natural-space signal variance σ_f².
    pub fn signal_var(&self) -> f64 {
        self.signal_var
    }
}

impl Kernel for SquaredExponentialArd {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.lengthscales.len());
        debug_assert_eq!(b.len(), self.lengthscales.len());
        let mut s = 0.0;
        for ((x, y), w) in a.iter().zip(b).zip(&self.inv_sq_lengthscales) {
            let d = x - y;
            s += d * d * w;
        }
        self.signal_var * (-0.5 * s).exp()
    }

    fn dim(&self) -> usize {
        self.lengthscales.len()
    }

    fn log_params(&self) -> Vec<f64> {
        let mut p: Vec<f64> = self.lengthscales.iter().map(|l| l.ln()).collect();
        p.push(self.signal_var.ln());
        p
    }

    fn set_log_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.lengthscales.len() + 1);
        for (l, lp) in self.lengthscales.iter_mut().zip(p) {
            *l = lp.exp();
        }
        self.signal_var = p[p.len() - 1].exp();
        for (w, l) in self.inv_sq_lengthscales.iter_mut().zip(&self.lengthscales) {
            *w = 1.0 / (l * l);
        }
    }

    fn supports_distance_cache(&self) -> bool {
        true
    }

    fn gram_from_cache(&self, cache: &DistanceCache, out: &mut Matrix) {
        let sv = self.signal_var;
        assemble_from_cache(cache, out, &self.inv_sq_lengthscales, &|s: f64| {
            sv * (-0.5 * s).exp()
        });
    }
}

/// Anisotropic Matérn-5/2 kernel:
/// `k(r) = σ_f² (1 + √5 r + 5r²/3) exp(-√5 r)` with
/// `r² = Σ_d (a_d-b_d)²/ℓ_d²`.
///
/// The paper selects this family (Sec. IV-B) "to avoid unrealistic smoothness"
/// of the squared exponential.
#[derive(Debug, Clone, PartialEq)]
pub struct Matern52Ard {
    lengthscales: Vec<f64>,
    signal_var: f64,
    /// `1/ℓ_d²` per dimension (derived; refreshed on every parameter update).
    inv_sq_lengthscales: Vec<f64>,
}

impl Matern52Ard {
    /// Unit-parameter kernel over `dim` inputs.
    pub fn new(dim: usize) -> Self {
        Self::with_params(vec![1.0; dim], 1.0)
    }

    /// Kernel with explicit natural-space lengthscales and signal variance.
    ///
    /// # Panics
    ///
    /// Panics if any lengthscale or the signal variance is not strictly positive.
    pub fn with_params(lengthscales: Vec<f64>, signal_var: f64) -> Self {
        assert!(
            lengthscales.iter().all(|l| *l > 0.0) && signal_var > 0.0,
            "kernel parameters must be positive"
        );
        let inv_sq_lengthscales = inv_sq(&lengthscales);
        Matern52Ard {
            lengthscales,
            signal_var,
            inv_sq_lengthscales,
        }
    }

    /// Natural-space lengthscales.
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// Natural-space signal variance σ_f².
    pub fn signal_var(&self) -> f64 {
        self.signal_var
    }
}

impl Kernel for Matern52Ard {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.lengthscales.len());
        debug_assert_eq!(b.len(), self.lengthscales.len());
        let mut s = 0.0;
        for ((x, y), w) in a.iter().zip(b).zip(&self.inv_sq_lengthscales) {
            let d = x - y;
            s += d * d * w;
        }
        matern52_tail(self.signal_var, s)
    }

    fn dim(&self) -> usize {
        self.lengthscales.len()
    }

    fn log_params(&self) -> Vec<f64> {
        let mut p: Vec<f64> = self.lengthscales.iter().map(|l| l.ln()).collect();
        p.push(self.signal_var.ln());
        p
    }

    fn set_log_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.lengthscales.len() + 1);
        for (l, lp) in self.lengthscales.iter_mut().zip(p) {
            *l = lp.exp();
        }
        self.signal_var = p[p.len() - 1].exp();
        for (w, l) in self.inv_sq_lengthscales.iter_mut().zip(&self.lengthscales) {
            *w = 1.0 / (l * l);
        }
    }

    fn supports_distance_cache(&self) -> bool {
        true
    }

    fn gram_from_cache(&self, cache: &DistanceCache, out: &mut Matrix) {
        let sv = self.signal_var;
        assemble_from_cache(cache, out, &self.inv_sq_lengthscales, &|s: f64| {
            matern52_tail(sv, s)
        });
    }
}

/// The Matérn-5/2 scalar tail `σ_f²(1 + √5r + 5s/3)·exp(−√5r)` shared by the
/// per-pair `eval` loops and the cached assembly path — one definition so the
/// two stay bit-consistent by construction.
#[inline]
fn matern52_tail(signal_var: f64, s: f64) -> f64 {
    let r = s.sqrt();
    let sqrt5_r = 5.0_f64.sqrt() * r;
    signal_var * (1.0 + sqrt5_r + 5.0 * s / 3.0) * (-sqrt5_r).exp()
}

/// Matérn-5/2 kernel with **grouped** lengthscales: dimensions sharing a group
/// share one lengthscale.
///
/// This is the low-capacity kernel used by the non-linear multi-fidelity
/// models: the (many) directive features share a single isotropic lengthscale
/// while each appended lower-fidelity output gets its own, so the model stays
/// fittable from the handful of high-fidelity observations a run can afford.
///
/// # Examples
///
/// ```
/// use cmmf_gp::kernel::{Kernel, Matern52Grouped};
///
/// // 3 input dims share group 0; a 4th (e.g. a lower-fidelity output) is its
/// // own group 1 — two lengthscales in total.
/// let k = Matern52Grouped::iso_plus_tail(3, 1);
/// assert_eq!(k.log_params().len(), 3); // 2 lengthscales + signal variance
/// assert!(k.eval(&[0.0; 4], &[0.0; 4]) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matern52Grouped {
    /// Group id per input dimension.
    groups: Vec<usize>,
    /// One lengthscale per group.
    lengthscales: Vec<f64>,
    signal_var: f64,
    /// `1/ℓ_{g(d)}²` expanded per *dimension* (derived; refreshed on every
    /// parameter update), so the per-pair loop needs no group indirection.
    inv_sq_by_dim: Vec<f64>,
}

impl Matern52Grouped {
    /// Kernel whose dimension `d` uses lengthscale group `groups[d]`.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or group ids are not contiguous from 0.
    pub fn new(groups: Vec<usize>) -> Self {
        assert!(!groups.is_empty(), "need at least one dimension");
        let n_groups = groups.iter().max().map_or(0, |&g| g + 1);
        for g in 0..n_groups {
            assert!(groups.contains(&g), "group ids must be contiguous from 0");
        }
        let inv_sq_by_dim = vec![1.0; groups.len()];
        Matern52Grouped {
            groups,
            lengthscales: vec![1.0; n_groups],
            signal_var: 1.0,
            inv_sq_by_dim,
        }
    }

    /// The multi-fidelity layout: the first `x_dims` dimensions share group 0
    /// (the directive features) and each of the `tail_dims` trailing
    /// dimensions (lower-fidelity outputs) gets its own group.
    ///
    /// # Panics
    ///
    /// Panics if `x_dims == 0`.
    pub fn iso_plus_tail(x_dims: usize, tail_dims: usize) -> Self {
        assert!(x_dims > 0, "need at least one input dimension");
        let mut groups = vec![0; x_dims];
        for t in 0..tail_dims {
            groups.push(t + 1);
        }
        Matern52Grouped::new(groups)
    }

    /// Per-group natural-space lengthscales.
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// Natural-space signal variance.
    pub fn signal_var(&self) -> f64 {
        self.signal_var
    }
}

impl Kernel for Matern52Grouped {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.groups.len());
        debug_assert_eq!(b.len(), self.groups.len());
        let mut s = 0.0;
        for ((x, y), w) in a.iter().zip(b).zip(&self.inv_sq_by_dim) {
            let d = x - y;
            s += d * d * w;
        }
        matern52_tail(self.signal_var, s)
    }

    fn dim(&self) -> usize {
        self.groups.len()
    }

    fn log_params(&self) -> Vec<f64> {
        let mut p: Vec<f64> = self.lengthscales.iter().map(|l| l.ln()).collect();
        p.push(self.signal_var.ln());
        p
    }

    fn set_log_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.lengthscales.len() + 1);
        for (l, lp) in self.lengthscales.iter_mut().zip(p) {
            *l = lp.exp();
        }
        self.signal_var = p[p.len() - 1].exp();
        for (w, &g) in self.inv_sq_by_dim.iter_mut().zip(&self.groups) {
            let l = self.lengthscales[g];
            *w = 1.0 / (l * l);
        }
    }

    fn supports_distance_cache(&self) -> bool {
        true
    }

    fn gram_from_cache(&self, cache: &DistanceCache, out: &mut Matrix) {
        let sv = self.signal_var;
        assemble_from_cache(cache, out, &self.inv_sq_by_dim, &|s: f64| {
            matern52_tail(sv, s)
        });
    }
}

/// Dot-product (linear) kernel `k(a,b) = σ_f² (a·b + c)`, useful as the trend
/// component of a composite kernel (e.g. the linear backbone of a
/// multi-fidelity map expressed inside the kernel instead of as an explicit ρ).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearKernel {
    dim: usize,
    signal_var: f64,
    offset: f64,
}

impl LinearKernel {
    /// Unit-parameter linear kernel over `dim` inputs.
    pub fn new(dim: usize) -> Self {
        LinearKernel {
            dim,
            signal_var: 1.0,
            offset: 1.0,
        }
    }
}

impl Kernel for LinearKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.dim);
        debug_assert_eq!(b.len(), self.dim);
        let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        self.signal_var * (dot + self.offset)
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn log_params(&self) -> Vec<f64> {
        vec![self.signal_var.ln(), self.offset.ln()]
    }

    fn set_log_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), 2);
        self.signal_var = p[0].exp();
        self.offset = p[1].exp();
    }
}

/// Sum of two kernels over the same input space: `k = k1 + k2`. Sums of
/// positive-definite kernels are positive definite, so this composes freely —
/// e.g. `Matern52Ard + LinearKernel` models a smooth deviation around a linear
/// trend.
///
/// # Examples
///
/// ```
/// use cmmf_gp::kernel::{Kernel, LinearKernel, Matern52Ard, SumKernel};
///
/// let k = SumKernel::new(Matern52Ard::new(2), LinearKernel::new(2));
/// let v = k.eval(&[0.1, 0.2], &[0.1, 0.2]);
/// assert!(v > 0.0);
/// assert_eq!(k.log_params().len(), 3 + 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SumKernel<A, B> {
    a: A,
    b: B,
}

impl<A: Kernel, B: Kernel> SumKernel<A, B> {
    /// Combines `a + b`.
    ///
    /// # Panics
    ///
    /// Panics if the two kernels disagree on input dimension.
    pub fn new(a: A, b: B) -> Self {
        assert_eq!(a.dim(), b.dim(), "summed kernels must share a dimension");
        SumKernel { a, b }
    }
}

impl<A: Kernel, B: Kernel> Kernel for SumKernel<A, B> {
    fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        self.a.eval(x, y) + self.b.eval(x, y)
    }

    fn dim(&self) -> usize {
        self.a.dim()
    }

    fn log_params(&self) -> Vec<f64> {
        let mut p = self.a.log_params();
        p.extend(self.b.log_params());
        p
    }

    fn set_log_params(&mut self, p: &[f64]) {
        let na = self.a.log_params().len();
        assert_eq!(p.len(), na + self.b.log_params().len());
        self.a.set_log_params(&p[..na]);
        self.b.set_log_params(&p[na..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn se_at_zero_distance_is_signal_var() {
        let k = SquaredExponentialArd::with_params(vec![0.5, 2.0], 3.0);
        assert!((k.eval(&[1.0, -1.0], &[1.0, -1.0]) - 3.0).abs() < 1e-14);
    }

    #[test]
    fn matern_at_zero_distance_is_signal_var() {
        let k = Matern52Ard::with_params(vec![0.5], 2.5);
        assert!((k.eval(&[0.3], &[0.3]) - 2.5).abs() < 1e-14);
    }

    #[test]
    fn kernels_decay_with_distance() {
        let se = SquaredExponentialArd::new(1);
        let m52 = Matern52Ard::new(1);
        let mut prev_se = f64::INFINITY;
        let mut prev_m = f64::INFINITY;
        for i in 0..10 {
            let d = i as f64 * 0.5;
            let vs = se.eval(&[0.0], &[d]);
            let vm = m52.eval(&[0.0], &[d]);
            assert!(vs <= prev_se && vm <= prev_m, "monotone decay");
            prev_se = vs;
            prev_m = vm;
        }
    }

    #[test]
    fn log_params_roundtrip() {
        let k = Matern52Ard::with_params(vec![0.3, 0.7], 1.9);
        let p = k.log_params();
        let mut k2 = Matern52Ard::new(2);
        k2.set_log_params(&p);
        assert!((k2.lengthscales()[0] - 0.3).abs() < 1e-12);
        assert!((k2.lengthscales()[1] - 0.7).abs() < 1e-12);
        assert!((k2.signal_var() - 1.9).abs() < 1e-12);
        let _ = k.eval(&[0.0, 0.0], &[1.0, 1.0]);
    }

    #[test]
    fn ard_lengthscale_controls_sensitivity() {
        // A long lengthscale in dim 0 makes dim-0 moves matter less.
        let k = SquaredExponentialArd::with_params(vec![10.0, 0.1], 1.0);
        let move0 = k.eval(&[0.0, 0.0], &[1.0, 0.0]);
        let move1 = k.eval(&[0.0, 0.0], &[0.0, 1.0]);
        assert!(move0 > move1);
    }

    #[test]
    fn symmetry() {
        let k = Matern52Ard::with_params(vec![0.4, 1.2, 0.9], 1.3);
        let a = [0.1, 0.5, -0.2];
        let b = [1.0, 0.0, 0.3];
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn grouped_matches_ard_with_shared_lengthscale() {
        let grouped = Matern52Grouped::new(vec![0, 0, 0]);
        let ard = Matern52Ard::new(3);
        let a = [0.1, 0.4, 0.9];
        let b = [0.3, 0.2, 0.5];
        assert!((grouped.eval(&a, &b) - ard.eval(&a, &b)).abs() < 1e-14);
    }

    #[test]
    fn grouped_param_count_is_compact() {
        // 10 x-dims + 3 tail dims: 4 lengthscales + 1 signal = 5 params,
        // versus 14 for full ARD.
        let k = Matern52Grouped::iso_plus_tail(10, 3);
        assert_eq!(k.log_params().len(), 5);
        assert_eq!(k.dim(), 13);
    }

    #[test]
    fn grouped_roundtrip_and_sensitivity() {
        let mut k = Matern52Grouped::iso_plus_tail(2, 1);
        k.set_log_params(&[(10.0f64).ln(), (0.1f64).ln(), 0.0]);
        // x-dims have lengthscale 10 (insensitive), tail dim 0.1 (sensitive).
        let base = [0.0, 0.0, 0.0];
        let move_x = k.eval(&base, &[1.0, 0.0, 0.0]);
        let move_tail = k.eval(&base, &[0.0, 0.0, 1.0]);
        assert!(move_x > move_tail);
        assert_eq!(k.lengthscales().len(), 2);
        assert!((k.signal_var() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn grouped_rejects_gappy_groups() {
        let _ = Matern52Grouped::new(vec![0, 2]);
    }

    #[test]
    fn linear_kernel_is_a_dot_product() {
        let k = LinearKernel::new(2);
        assert!((k.eval(&[1.0, 2.0], &[3.0, 4.0]) - 12.0).abs() < 1e-12); // 11 + 1
    }

    #[test]
    fn sum_kernel_adds_and_splits_params() {
        let mut k = SumKernel::new(Matern52Ard::new(1), LinearKernel::new(1));
        let before = k.eval(&[0.2], &[0.4]);
        let m = Matern52Ard::new(1).eval(&[0.2], &[0.4]);
        let l = LinearKernel::new(1).eval(&[0.2], &[0.4]);
        assert!((before - (m + l)).abs() < 1e-12);
        let p = k.log_params();
        assert_eq!(p.len(), 4);
        k.set_log_params(&p); // roundtrip does not panic
        assert!((k.eval(&[0.2], &[0.4]) - before).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "share a dimension")]
    fn sum_kernel_rejects_mismatched_dims() {
        let _ = SumKernel::new(Matern52Ard::new(1), LinearKernel::new(2));
    }

    fn wavy_inputs(n: usize, d: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..d).map(|j| ((i * d + j) as f64 * 0.37).sin()).collect())
            .collect()
    }

    #[test]
    fn hoisted_weights_match_division_formulation_closely() {
        // The hoisted form `(x-y)²·(1/ℓ²)` and the historical `((x-y)/ℓ)²`
        // agree to a few ulps; this pins the reformulation's error budget.
        let ls = [0.37, 2.9, 0.004];
        let k = Matern52Ard::with_params(ls.to_vec(), 1.7);
        let a = [0.21, -3.0, 0.55];
        let b = [1.9, 0.02, 0.54];
        let mut s = 0.0;
        for i in 0..3 {
            let d = (a[i] - b[i]) / ls[i];
            s += d * d;
        }
        let r = s.sqrt();
        let sqrt5_r = 5.0_f64.sqrt() * r;
        let reference = 1.7 * (1.0 + sqrt5_r + 5.0 * s / 3.0) * (-sqrt5_r).exp();
        let got = k.eval(&a, &b);
        assert!(
            (got - reference).abs() <= 1e-13 * reference.abs().max(1.0),
            "{got} vs {reference}"
        );
    }

    #[test]
    fn eval_is_bitwise_symmetric() {
        let se = SquaredExponentialArd::with_params(vec![0.5, 2.0, 0.3], 1.4);
        let m = Matern52Ard::with_params(vec![0.9, 0.2, 1.1], 0.8);
        let g = Matern52Grouped::iso_plus_tail(2, 1);
        let lin = LinearKernel::new(3);
        let a = [0.13, -0.8, 2.5];
        let b = [1.02, 0.44, -0.6];
        assert_eq!(se.eval(&a, &b).to_bits(), se.eval(&b, &a).to_bits());
        assert_eq!(m.eval(&a, &b).to_bits(), m.eval(&b, &a).to_bits());
        assert_eq!(g.eval(&a, &b).to_bits(), g.eval(&b, &a).to_bits());
        assert_eq!(lin.eval(&a, &b).to_bits(), lin.eval(&b, &a).to_bits());
    }

    #[test]
    fn gram_into_matches_per_entry_eval_bitwise() {
        // n=70 crosses the parallel-assembly threshold (70² > 4096); n=150
        // is a realistic surrogate size.
        for n in [1, 6, 70, 150] {
            let mut k = Matern52Ard::new(3);
            k.set_log_params(&[0.3, -0.4, 0.1, 0.2]);
            let xs = wavy_inputs(n, 3);
            let mut out = Matrix::zeros(n, n);
            k.gram_into(&xs, &mut out);
            let full = Matrix::from_fn(n, n, |i, j| k.eval(&xs[i], &xs[j]));
            for (idx, (a, b)) in out.as_slice().iter().zip(full.as_slice()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n} entry {idx}");
            }
        }
    }

    #[test]
    fn gram_into_overwrites_dirty_buffers() {
        let k = SquaredExponentialArd::new(2);
        let xs = wavy_inputs(5, 2);
        let mut dirty = Matrix::from_fn(5, 5, |_, _| f64::NAN);
        k.gram_into(&xs, &mut dirty);
        let clean = Matrix::from_fn(5, 5, |i, j| k.eval(&xs[i], &xs[j]));
        assert_eq!(dirty.as_slice(), clean.as_slice());
    }

    #[test]
    fn cross_into_matches_per_entry_eval_bitwise() {
        for (n, q) in [(4, 3), (80, 60)] {
            let k = SumKernel::new(Matern52Ard::new(2), LinearKernel::new(2));
            let xs = wavy_inputs(n, 2);
            let queries = wavy_inputs(q, 2);
            let mut out = Matrix::zeros(n, q);
            k.cross_into(&xs, &queries, &mut out);
            let full = Matrix::from_fn(n, q, |i, j| k.eval(&xs[i], &queries[j]));
            for (idx, (a, b)) in out.as_slice().iter().zip(full.as_slice()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n} q={q} entry {idx}");
            }
        }
    }

    #[test]
    fn gram_from_cache_matches_gram_into_bitwise() {
        // The cache contract: cached per-dimension squared differences fused
        // with the current weights must reproduce from-scratch assembly bit
        // for bit, for every ARD kernel family, below and above the
        // parallel-assembly threshold, and across parameter updates on the
        // same cache.
        for n in [1usize, 7, 70] {
            let xs = wavy_inputs(n, 3);
            let cache = DistanceCache::new(&xs);
            assert_eq!((cache.len(), cache.dim(), cache.is_empty()), (n, 3, false));
            let mut se = SquaredExponentialArd::new(3);
            let mut m = Matern52Ard::new(3);
            let mut g = Matern52Grouped::iso_plus_tail(2, 1);
            for params in [
                vec![0.0, 0.0, 0.0, 0.0],
                vec![0.3, -0.4, 0.1, 0.2],
                vec![-1.2, 0.8, 2.0, -0.5],
            ] {
                se.set_log_params(&params);
                m.set_log_params(&params);
                g.set_log_params(&params[..3]);
                check_cached(&se, &xs, &cache, n, "se");
                check_cached(&m, &xs, &cache, n, "matern");
                check_cached(&g, &xs, &cache, n, "grouped");
            }
        }
        assert!(!LinearKernel::new(3).supports_distance_cache());
        assert!(
            !SumKernel::new(Matern52Ard::new(2), LinearKernel::new(2)).supports_distance_cache()
        );
    }

    fn check_cached(k: &impl Kernel, xs: &[Vec<f64>], cache: &DistanceCache, n: usize, tag: &str) {
        assert!(k.supports_distance_cache());
        let mut fast = Matrix::from_fn(n, n, |_, _| f64::NAN);
        k.gram_from_cache(cache, &mut fast);
        let mut naive = Matrix::zeros(n, n);
        k.gram_into(xs, &mut naive);
        for (idx, (a, b)) in fast.as_slice().iter().zip(naive.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{tag} n={n} entry {idx}");
        }
    }

    #[test]
    #[should_panic(expected = "no ARD distance structure")]
    fn gram_from_cache_panics_without_ard_structure() {
        let xs = wavy_inputs(3, 2);
        let cache = DistanceCache::new(&xs);
        let mut out = Matrix::zeros(3, 3);
        LinearKernel::new(2).gram_from_cache(&cache, &mut out);
    }

    #[test]
    fn gp_fits_with_sum_kernel() {
        use crate::{Gp, GpConfig};
        // Linear trend + sinusoidal deviation: the composite captures both.
        let xs: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 / 14.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 3.0 * x[0] + (8.0 * x[0]).sin() * 0.3)
            .collect();
        let k = SumKernel::new(Matern52Ard::new(1), LinearKernel::new(1));
        let gp = Gp::fit(k, &xs, &ys, &GpConfig::default()).unwrap();
        let p = gp.predict(&[0.5]).unwrap();
        let truth = 1.5 + (4.0f64).sin() * 0.3;
        assert!((p.mean - truth).abs() < 0.2, "{} vs {truth}", p.mean);
    }
}
