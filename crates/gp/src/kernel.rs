//! The Matérn-5/2 covariance function (kernel) with grouped ARD
//! (automatic-relevance-determination) lengthscales: each input dimension
//! belongs to a group, and each group has one lengthscale. One group per
//! dimension ([`Matern52::ard`]) is the paper's data kernel; the directive
//! features in one group and each lower-fidelity output in its own
//! ([`Matern52::iso_plus_tail`]) is the multi-fidelity levels' kernel.
//!
//! Hyperparameters are exposed in **log space** through
//! [`Matern52::log_params`] / [`Matern52::set_log_params`] so that
//! unconstrained optimizers (Nelder–Mead) can search them directly while the
//! natural-space values stay positive.
//!
//! The kernel precomputes per-dimension inverse-squared lengthscales
//! (`1/ℓ_{g(d)}²`) once per hyperparameter update, so the per-pair distance
//! loops are division-free: `s += (a_d - b_d)² · w_d`. [`Matern52::eval`],
//! the batched [`Matern52::gram_into`] / [`Matern52::cross_into`] assembly
//! paths and the cached [`Matern52::gram_from_cache`] share the same
//! precomputed weights and the same per-pair operations, keeping every
//! covariance path bit-consistent by construction.

use linalg::Matrix;

/// Entry count above which the Gram and cross-covariance assembly paths
/// assemble rows in parallel.
const ASSEMBLY_PAR_THRESHOLD: usize = 4096;

/// Per-fit cache of the parameter-*independent* pairwise structure of the
/// kernel: the per-dimension squared differences
/// `D_d[i][j] = (x_i,d − x_j,d)²`, computed once per `fit` and combined with
/// the current inverse-squared lengthscales on every NLL evaluation (see
/// [`Matern52::gram_from_cache`]).
///
/// Layout is lower-triangle pair-major: the entry for pair `(i, j)` with
/// `j ≤ i` starts at `(i·(i+1)/2 + j)·dim` and holds the `dim` squared
/// differences in ascending-dimension order — the order [`Matern52::eval`]
/// accumulates them in.
#[derive(Debug)]
pub struct DistanceCache {
    n: usize,
    dim: usize,
    d2: Vec<f64>,
}

impl DistanceCache {
    /// Precomputes the squared-difference tensors for `xs`. Each difference
    /// is computed exactly as [`Matern52::eval`] does (`d = x − y; d·d`), so
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

/// Matérn-5/2 kernel with grouped lengthscales:
/// `k(r) = σ_f² (1 + √5 r + 5r²/3) exp(-√5 r)` with
/// `r² = Σ_d (a_d-b_d)²/ℓ_{g(d)}²`, where `g(d)` is the group of input
/// dimension `d`.
///
/// The paper selects this family (Sec. IV-B) "to avoid unrealistic
/// smoothness" of the squared exponential. With one group per dimension it
/// is the ARD kernel of Eq. 9. The multi-fidelity levels use few groups: the
/// (many) directive features share a single lengthscale while each appended
/// lower-fidelity output gets its own, so the model stays fittable from the
/// handful of high-fidelity observations a run can afford.
///
/// [`crate::Gp::fit`] and [`crate::MultiTaskGp::fit`] mutate the
/// hyperparameters via [`Matern52::set_log_params`] while maximizing the
/// marginal likelihood.
///
/// # Examples
///
/// ```
/// use cmmf_gp::kernel::Matern52;
///
/// let k = Matern52::ard(2);
/// let same = k.eval(&[0.1, 0.2], &[0.1, 0.2]);
/// let far = k.eval(&[0.1, 0.2], &[5.0, 5.0]);
/// assert!(same > far);
///
/// // 3 input dims share group 0; a 4th (e.g. a lower-fidelity output) is its
/// // own group 1 — two lengthscales in total.
/// let k = Matern52::iso_plus_tail(3, 1);
/// assert_eq!(k.log_params().len(), 3); // 2 lengthscales + signal variance
/// assert!(k.eval(&[0.0; 4], &[0.0; 4]) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matern52 {
    /// Group id per input dimension, contiguous from 0.
    groups: Vec<usize>,
    /// One lengthscale per group.
    lengthscales: Vec<f64>,
    signal_var: f64,
    /// `1/ℓ_{g(d)}²` expanded per *dimension* (derived; refreshed on every
    /// parameter update), so the per-pair loop needs no group indirection.
    inv_sq_by_dim: Vec<f64>,
}

impl Matern52 {
    /// Unit-parameter ARD kernel over `dim` inputs: one lengthscale per
    /// dimension.
    pub fn ard(dim: usize) -> Self {
        Self::grouped((0..dim).collect())
    }

    /// Unit-parameter kernel in the multi-fidelity layout: the first
    /// `x_dims` dimensions share group 0 (the directive features) and each
    /// of the `tail_dims` trailing dimensions (lower-fidelity outputs) gets
    /// its own group.
    ///
    /// # Panics
    ///
    /// Panics if `x_dims == 0`.
    pub fn iso_plus_tail(x_dims: usize, tail_dims: usize) -> Self {
        assert!(x_dims > 0, "need at least one input dimension");
        let mut groups = vec![0; x_dims];
        groups.extend(1..=tail_dims);
        Self::grouped(groups)
    }

    /// Unit-parameter kernel whose dimension `d` uses lengthscale group
    /// `groups[d]`; the ids must be contiguous from 0, as both public
    /// constructors make them.
    fn grouped(groups: Vec<usize>) -> Self {
        let n_groups = groups.iter().max().map_or(0, |&g| g + 1);
        Matern52 {
            inv_sq_by_dim: vec![1.0; groups.len()],
            lengthscales: vec![1.0; n_groups],
            signal_var: 1.0,
            groups,
        }
    }

    /// Per-group natural-space lengthscales.
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// Natural-space signal variance σ_f².
    pub fn signal_var(&self) -> f64 {
        self.signal_var
    }

    /// Input dimension `d`.
    pub fn dim(&self) -> usize {
        self.groups.len()
    }

    /// Current hyperparameters in log space: one lengthscale per group, then
    /// the signal variance.
    pub fn log_params(&self) -> Vec<f64> {
        let mut p: Vec<f64> = self.lengthscales.iter().map(|l| l.ln()).collect();
        p.push(self.signal_var.ln());
        p
    }

    /// Replaces the hyperparameters with `p` (log space, the layout of
    /// [`Matern52::log_params`]).
    ///
    /// # Panics
    ///
    /// Panics if `p.len()` differs from `self.log_params().len()`.
    pub fn set_log_params(&mut self, p: &[f64]) {
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

    /// Evaluates `k(a, b)`. Bitwise symmetric: distances enter as
    /// `(a_d - b_d)²`, whose sign cancels exactly.
    ///
    /// `a` and `b` must have [`Matern52::dim`] elements (checked in debug
    /// builds).
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.groups.len());
        debug_assert_eq!(b.len(), self.groups.len());
        let mut s = 0.0;
        for ((x, y), w) in a.iter().zip(b).zip(&self.inv_sq_by_dim) {
            let d = x - y;
            s += d * d * w;
        }
        matern52_tail(self.signal_var, s)
    }

    /// Writes the lower triangle of the Gram matrix,
    /// `out[(i, j)] = k(xs[i], xs[j])` for `j ≤ i`, into the caller's buffer
    /// and leaves the upper triangle as it was: every consumer (the Cholesky
    /// factorization, Eq. 9's joint covariance) reads the lower triangle
    /// only, and [`Matern52::eval`] is bitwise symmetric, so half the
    /// evaluations give the whole matrix. Large matrices assemble rows on the
    /// parallel execution layer with source-order placement (bit-identical
    /// at any thread count).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `xs.len() x xs.len()`.
    pub fn gram_into(&self, xs: &[Vec<f64>], out: &mut Matrix) {
        let n = xs.len();
        assert_eq!(out.shape(), (n, n), "gram_into: buffer must be n x n");
        if n * n < ASSEMBLY_PAR_THRESHOLD {
            for (i, x) in xs.iter().enumerate() {
                for (o, other) in out.row_mut(i).iter_mut().zip(&xs[..=i]) {
                    *o = self.eval(x, other);
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
    }

    /// Writes the lower triangle of the Gram matrix from a precomputed
    /// [`DistanceCache`] instead of the raw inputs, leaving the upper
    /// triangle as it was: each entry combines the cached per-dimension
    /// squared differences with the kernel's *current* inverse-squared
    /// lengthscales in the same ascending-dimension fused accumulation order
    /// as [`Matern52::eval`], then applies the same scalar tail — so the
    /// result is **bit-identical** to [`Matern52::gram_into`] on the inputs
    /// the cache was built from (pinned by
    /// `gram_from_cache_matches_gram_into_bitwise`). This is the assembly
    /// step of every likelihood evaluation in a hyperparameter search: one
    /// serial sweep over tensors computed once per fit, straight into the
    /// caller's buffer, allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if the cache was built for a different input dimension, or if
    /// `out` is not `n x n`.
    pub fn gram_from_cache(&self, cache: &DistanceCache, out: &mut Matrix) {
        let n = cache.n;
        assert_eq!(
            self.inv_sq_by_dim.len(),
            cache.dim,
            "gram_from_cache: cache dimension mismatch"
        );
        assert_eq!(out.shape(), (n, n), "gram_from_cache: buffer must be n x n");
        for i in 0..n {
            for (j, o) in out.row_mut(i)[..=i].iter_mut().enumerate() {
                let mut s = 0.0;
                for (d2, w) in cache.pair(i, j).iter().zip(&self.inv_sq_by_dim) {
                    s += d2 * w;
                }
                *o = matern52_tail(self.signal_var, s);
            }
        }
    }

    /// Fills `out[(i, j)] = k(xs[i], queries[j])` — the cross-covariance
    /// between the training inputs and a query chunk — into the caller's
    /// buffer. Entry values are identical to per-entry evaluation; rows
    /// assemble in parallel above the same threshold as
    /// [`Matern52::gram_into`].
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `xs.len() x queries.len()`.
    pub fn cross_into(&self, xs: &[Vec<f64>], queries: &[Vec<f64>], out: &mut Matrix) {
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

/// The Matérn-5/2 scalar tail `σ_f²(1 + √5r + 5s/3)·exp(−√5r)` shared by the
/// per-pair `eval` loop and the cached assembly path — one definition so the
/// two stay bit-consistent by construction.
#[inline]
fn matern52_tail(signal_var: f64, s: f64) -> f64 {
    let r = s.sqrt();
    let sqrt5_r = 5.0_f64.sqrt() * r;
    signal_var * (1.0 + sqrt5_r + 5.0 * s / 3.0) * (-sqrt5_r).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An ARD kernel at the given natural-space parameters.
    fn ard_with(lengthscales: &[f64], signal_var: f64) -> Matern52 {
        let mut k = Matern52::ard(lengthscales.len());
        let mut p: Vec<f64> = lengthscales.iter().map(|l| l.ln()).collect();
        p.push(signal_var.ln());
        k.set_log_params(&p);
        k
    }

    #[test]
    fn matern_at_zero_distance_is_signal_var() {
        let k = ard_with(&[0.5], 2.5);
        assert!((k.eval(&[0.3], &[0.3]) - 2.5).abs() < 1e-14);
    }

    #[test]
    fn kernels_decay_with_distance() {
        let m52 = Matern52::ard(1);
        let mut prev_m = f64::INFINITY;
        for i in 0..10 {
            let d = i as f64 * 0.5;
            let vm = m52.eval(&[0.0], &[d]);
            assert!(vm <= prev_m, "monotone decay");
            prev_m = vm;
        }
    }

    #[test]
    fn log_params_roundtrip() {
        let k = ard_with(&[0.3, 0.7], 1.9);
        let p = k.log_params();
        let mut k2 = Matern52::ard(2);
        k2.set_log_params(&p);
        assert!((k2.lengthscales()[0] - 0.3).abs() < 1e-12);
        assert!((k2.lengthscales()[1] - 0.7).abs() < 1e-12);
        assert!((k2.signal_var() - 1.9).abs() < 1e-12);
        let _ = k.eval(&[0.0, 0.0], &[1.0, 1.0]);
    }

    #[test]
    fn ard_lengthscale_controls_sensitivity() {
        // A long lengthscale in dim 0 makes dim-0 moves matter less.
        let k = ard_with(&[10.0, 0.1], 1.0);
        let move0 = k.eval(&[0.0, 0.0], &[1.0, 0.0]);
        let move1 = k.eval(&[0.0, 0.0], &[0.0, 1.0]);
        assert!(move0 > move1);
    }

    #[test]
    fn grouped_param_count_is_compact() {
        // 10 x-dims + 3 tail dims: 4 lengthscales + 1 signal = 5 params,
        // versus 14 for full ARD.
        let k = Matern52::iso_plus_tail(10, 3);
        assert_eq!(k.log_params().len(), 5);
        assert_eq!(k.dim(), 13);
    }

    #[test]
    fn grouped_roundtrip_and_sensitivity() {
        let mut k = Matern52::iso_plus_tail(2, 1);
        k.set_log_params(&[(10.0f64).ln(), (0.1f64).ln(), 0.0]);
        // x-dims have lengthscale 10 (insensitive), tail dim 0.1 (sensitive).
        let base = [0.0, 0.0, 0.0];
        let move_x = k.eval(&base, &[1.0, 0.0, 0.0]);
        let move_tail = k.eval(&base, &[0.0, 0.0, 1.0]);
        assert!(move_x > move_tail);
        assert_eq!(k.lengthscales().len(), 2);
        assert!((k.signal_var() - 1.0).abs() < 1e-12);
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
        let k = ard_with(&ls, 1.7);
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
        let m = ard_with(&[0.9, 0.2, 1.1], 0.8);
        let g = Matern52::iso_plus_tail(2, 1);
        let a = [0.13, -0.8, 2.5];
        let b = [1.02, 0.44, -0.6];
        assert_eq!(m.eval(&a, &b).to_bits(), m.eval(&b, &a).to_bits());
        assert_eq!(g.eval(&a, &b).to_bits(), g.eval(&b, &a).to_bits());
    }

    /// Asserts that the lower triangle of `got` equals `entry(i, j)` bit for
    /// bit and that its strict upper triangle is still NaN (untouched).
    fn assert_lower_only(got: &Matrix, entry: impl Fn(usize, usize) -> f64, tag: &str) {
        let n = got.rows();
        for i in 0..n {
            for j in 0..n {
                if j <= i {
                    let want = entry(i, j).to_bits();
                    assert_eq!(got[(i, j)].to_bits(), want, "{tag} n={n} ({i},{j})");
                } else {
                    assert!(got[(i, j)].is_nan(), "{tag} n={n} wrote ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn gram_into_writes_the_lower_triangle_bitwise() {
        // n=70 crosses the parallel-assembly threshold (70² > 4096); n=150
        // is a realistic surrogate size. The buffer starts dirty.
        for n in [1, 6, 70, 150] {
            let mut k = Matern52::ard(3);
            k.set_log_params(&[0.3, -0.4, 0.1, 0.2]);
            let xs = wavy_inputs(n, 3);
            let mut out = Matrix::from_fn(n, n, |_, _| f64::NAN);
            k.gram_into(&xs, &mut out);
            assert_lower_only(&out, |i, j| k.eval(&xs[i], &xs[j]), "gram_into");
        }
    }

    #[test]
    fn cross_into_matches_per_entry_eval_bitwise() {
        for (n, q) in [(4, 3), (80, 60)] {
            let k = ard_with(&[0.7, 1.3], 1.2);
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
        // for bit, for one group per dimension and for shared groups, below
        // and above the parallel-assembly threshold, and across parameter
        // updates on the same cache.
        for n in [1usize, 7, 70] {
            let xs = wavy_inputs(n, 3);
            let cache = DistanceCache::new(&xs);
            assert_eq!((cache.len(), cache.dim(), cache.is_empty()), (n, 3, false));
            let mut m = Matern52::ard(3);
            let mut g = Matern52::iso_plus_tail(2, 1);
            for params in [
                vec![0.0, 0.0, 0.0, 0.0],
                vec![0.3, -0.4, 0.1, 0.2],
                vec![-1.2, 0.8, 2.0, -0.5],
            ] {
                m.set_log_params(&params);
                g.set_log_params(&params[..3]);
                check_cached(&m, &xs, &cache, n, "ard");
                check_cached(&g, &xs, &cache, n, "grouped");
            }
        }
    }

    fn check_cached(k: &Matern52, xs: &[Vec<f64>], cache: &DistanceCache, n: usize, tag: &str) {
        let mut fast = Matrix::from_fn(n, n, |_, _| f64::NAN);
        k.gram_from_cache(cache, &mut fast);
        let mut naive = Matrix::zeros(n, n);
        k.gram_into(xs, &mut naive);
        assert_lower_only(&fast, |i, j| naive[(i, j)], tag);
    }
}
