use crate::{LinalgError, Matrix};

/// Panel width of the right-looking blocked factorization. Chosen so a
/// panel's worth of rows stays L1-resident at realistic surrogate sizes; at
/// or below this dimension [`Cholesky::new`] runs the scalar recurrence,
/// whose bookkeeping is cheaper there (bit-identical either way, see
/// [`Cholesky::new_with_panel`]).
const PANEL: usize = 32;

/// Jittered Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix, with triangular solves and log-determinant.
///
/// Gaussian-process covariance matrices are positive definite in theory but often
/// only positive *semi*-definite numerically; [`Cholesky::new`] therefore retries
/// with an escalating diagonal jitter (`1e-10 .. 1e-4` times the mean diagonal)
/// before giving up, which is the standard treatment in GP libraries.
///
/// # Blocked factorization
///
/// Factorization is *right-looking blocked*: each panel of 32 columns is
/// factorized in place, then the trailing
/// block is SYRK-updated with contiguous row-slice sweeps that LLVM can
/// vectorize — the scalar recurrence's per-entry dot product is a serial
/// floating-point dependency chain the compiler must not reassociate,
/// which is why the blocked ordering is the throughput win. Both orderings
/// apply, for every entry `(i, j)`, the identical subtraction chain
/// `s -= L[i][k]·L[j][k]` for `k` ascending `0..j` against an accumulator
/// seeded with `a[i][j]` (plus diagonal jitter), with every operand a
/// finalized entry of `L`; since each `f64` operation is individually
/// exactly rounded, the blocked factor is **bit-identical** to the scalar
/// one at every panel width.
///
/// # Examples
///
/// ```
/// use cmmf_linalg::{Matrix, Cholesky};
///
/// # fn main() -> Result<(), cmmf_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let chol = Cholesky::new(&a)?;
/// assert!((chol.log_det() - (3.0f64).ln()).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely (upper triangle is zero).
    l: Matrix,
    /// The jitter that was actually added to the diagonal (0 if none was needed).
    jitter: f64,
}

impl Cholesky {
    /// Factorizes `a`, adding escalating diagonal jitter if needed.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Empty`] if `a` is 0x0.
    /// * [`LinalgError::NotPositiveDefinite`] if factorization fails even at the
    ///   maximum jitter.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        Self::new_with_panel(a, PANEL)
    }

    /// Like [`Cholesky::new`] with an explicit panel width: `panel <= 1` or
    /// `panel >= a.rows()` runs the pinned scalar recurrence, any other width
    /// the blocked path with exactly that width. All widths produce
    /// bit-identical factors; this entry point is the scalar reference the
    /// blocked path is tested against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cholesky::new`].
    pub fn new_with_panel(a: &Matrix, panel: usize) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty {
                op: "Cholesky::new",
            });
        }
        let mean_diag = (0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64;
        let base = if mean_diag > 0.0 { mean_diag } else { 1.0 };
        let mut l = Matrix::zeros(n, n);
        let (mut colbuf, mut rowbuf) = if panel > 1 && n > panel {
            (vec![0.0; n], vec![0.0; n])
        } else {
            (Vec::new(), Vec::new())
        };
        let mut jitter = 0.0;
        let mut scale = 1e-10;
        loop {
            l.fill(0.0);
            if Self::factorize_into(a, jitter, panel, &mut l, &mut colbuf, &mut rowbuf) {
                return Ok(Cholesky { l, jitter });
            }
            if scale > 1e-4 {
                return Err(LinalgError::NotPositiveDefinite { max_jitter: jitter });
            }
            jitter = base * scale;
            scale *= 100.0;
        }
    }

    /// Writes the factor of `a + jitter·I` into the zeroed `l`. Returns
    /// `false` on the first non-positive or non-finite diagonal pivot (the
    /// failing pivot index is the same in both paths: each checks diagonals
    /// in ascending index order, on bit-identical values).
    fn factorize_into(
        a: &Matrix,
        jitter: f64,
        panel: usize,
        l: &mut Matrix,
        colbuf: &mut [f64],
        rowbuf: &mut [f64],
    ) -> bool {
        let n = a.rows();
        if panel <= 1 || n <= panel {
            Self::factorize_scalar_into(a, jitter, l)
        } else {
            Self::factorize_blocked_into(a, jitter, panel, l, colbuf, rowbuf)
        }
    }

    /// The pinned scalar i-j-k recurrence (the reference ordering).
    fn factorize_scalar_into(a: &Matrix, jitter: f64, l: &mut Matrix) -> bool {
        let n = a.rows();
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                if i == j {
                    s += jitter;
                }
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return false;
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        true
    }

    /// Right-looking blocked factorization (see the type-level docs for the
    /// bit-identity argument). `colbuf`/`rowbuf` are length-`n` scratch.
    fn factorize_blocked_into(
        a: &Matrix,
        jitter: f64,
        panel: usize,
        l: &mut Matrix,
        colbuf: &mut [f64],
        rowbuf: &mut [f64],
    ) -> bool {
        let n = a.rows();
        // Seed the lower triangle with A (+ jitter on the diagonal); every
        // later step subtracts products in ascending-k order from these
        // seeds, matching the scalar recurrence's chain entry for entry.
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
            l[(i, i)] += jitter;
        }
        let mut p0 = 0;
        while p0 < n {
            let p1 = usize::min(p0 + panel, n);
            // Panel factorization: k < p0 terms were already subtracted by
            // earlier trailing updates, so column j finishes k in [p0, j).
            for j in p0..p1 {
                let mut s = l[(j, j)];
                for &ljk in &l.row(j)[p0..j] {
                    s -= ljk * ljk;
                }
                if s <= 0.0 || !s.is_finite() {
                    return false;
                }
                let pivot = s.sqrt();
                l[(j, j)] = pivot;
                let w = j - p0;
                rowbuf[..w].copy_from_slice(&l.row(j)[p0..j]);
                for i in (j + 1)..n {
                    let mut s = l[(i, j)];
                    for (&lik, &ljk) in l.row(i)[p0..j].iter().zip(&rowbuf[..w]) {
                        s -= lik * ljk;
                    }
                    l[(i, j)] = s / pivot;
                }
            }
            // SYRK trailing update, k ascending so every entry's subtraction
            // chain stays in scalar order; the inner sweep over columns
            // [p1, i] is contiguous and dependency-free, which is where the
            // throughput comes from. Panel columns are consumed in fused
            // rank-2 sweeps — each trailing entry subtracts its k then k+1
            // term back to back, the exact ascending order of the scalar
            // chain, at half the passes over the trailing block (`rowbuf` is
            // free here; it doubles as the second column cache).
            let mut k = p0;
            while k + 1 < p1 {
                for i in p1..n {
                    colbuf[i] = l[(i, k)];
                    rowbuf[i] = l[(i, k + 1)];
                }
                for i in p1..n {
                    let lik0 = colbuf[i];
                    let lik1 = rowbuf[i];
                    let row = l.row_mut(i);
                    for ((rv, &c0), &c1) in row[p1..=i]
                        .iter_mut()
                        .zip(&colbuf[p1..=i])
                        .zip(&rowbuf[p1..=i])
                    {
                        *rv -= lik0 * c0;
                        *rv -= lik1 * c1;
                    }
                }
                k += 2;
            }
            if k < p1 {
                for i in p1..n {
                    colbuf[i] = l[(i, k)];
                }
                for i in p1..n {
                    let lik = colbuf[i];
                    let row = l.row_mut(i);
                    for (rv, &ck) in row[p1..=i].iter_mut().zip(&colbuf[p1..=i]) {
                        *rv -= lik * ck;
                    }
                }
            }
            p0 = p1;
        }
        true
    }

    /// Extends the factorization to a grown matrix `a` whose leading
    /// `self.dim() x self.dim()` block equals the matrix this factor was
    /// computed from (the caller's precondition — typical of a Bayesian
    /// -optimization loop where the covariance only gains rows between
    /// hyperparameter refits).
    ///
    /// Appending `k` rows costs `O(n²·k)` — each new row is the same
    /// forward-substitution recurrence a fresh factorization would run,
    /// restricted to the new rows — instead of the `O(n³)` of
    /// [`Cholesky::new`], and produces **bit-identical** floats: old rows are
    /// reused unchanged (the recurrence for row `i` reads only rows `≤ i`,
    /// which did not change), and new rows execute the identical operations
    /// in the identical order.
    ///
    /// Two cases fall back to a full [`Cholesky::new`] on `a`, preserving the
    /// bit-equality guarantee rather than breaking it:
    ///
    /// * this factor needed jitter (`self.jitter() > 0`) — the escalation
    ///   base is the mean diagonal of the *whole* matrix, so the grown matrix
    ///   must re-run the escalation from scratch to land on the same jitter a
    ///   fresh factorization would;
    /// * the zero-jitter extension hits a non-positive pivot in a new row —
    ///   a fresh factorization would escalate jitter, changing every entry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cholesky::new`].
    pub fn extend(&self, a: &Matrix) -> Result<Self, LinalgError> {
        let n0 = self.dim();
        if !a.is_square() || a.rows() < n0 || self.jitter != 0.0 {
            return Cholesky::new(a);
        }
        let n = a.rows();
        if n == n0 {
            return Ok(self.clone());
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n0 {
            l.row_mut(i)[..=i].copy_from_slice(&self.l.row(i)[..=i]);
        }
        // Same recurrence as the scalar factorization at jitter 0 (to which
        // the blocked path is bit-identical), restricted to the new rows.
        for i in n0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Cholesky::new(a);
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l, jitter: 0.0 })
    }

    /// Removes the leading `k` rows/columns: returns a factorization of the
    /// trailing `(n-k) x (n-k)` block of the matrix this factor was computed
    /// from — the low-rank complement of [`Cholesky::extend`], enabling
    /// sliding-window surrogates that drop their oldest observations.
    ///
    /// Cost is `O((n-k)²·k)`: the trailing factor block `L₂₂` absorbs the
    /// dropped columns `L₂₁` through `k` rank-1 plane-rotation updates
    /// (`A₂₂ = L₂₁L₂₁ᵀ + L₂₂L₂₂ᵀ`), instead of the `O((n-k)³)` of
    /// refactorizing the window. `downdate(0)` is a bit-identical clone.
    /// Rotation arithmetic differs from the factorization recurrence, so for
    /// `k > 0` the result carries a *toleranced* contract (`L Lᵀ` matches the
    /// window matrix to ≤1e-12 relative in tests), not a bitwise one.
    ///
    /// Two cases fall back to reconstructing the window matrix from the
    /// factor and refactorizing with [`Cholesky::new`] (which re-runs jitter
    /// escalation on the window's own diagonal):
    ///
    /// * this factor carries jitter — the escalation base is a whole-matrix
    ///   statistic, so the window must pick its own;
    /// * a rotation loses positivity or finiteness (numerically indefinite
    ///   trailing block).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if `k >= self.dim()` (nothing would remain).
    /// * [`LinalgError::NotPositiveDefinite`] propagated from the fallback.
    pub fn downdate(&self, k: usize) -> Result<Self, LinalgError> {
        let n = self.dim();
        if k == 0 {
            return Ok(self.clone());
        }
        if k >= n {
            return Err(LinalgError::Empty {
                op: "Cholesky::downdate",
            });
        }
        if self.jitter != 0.0 {
            return self.refactorize_trailing(k);
        }
        let m = n - k;
        let mut l = Matrix::zeros(m, m);
        for i in 0..m {
            let src = self.l.row(k + i);
            l.row_mut(i)[..=i].copy_from_slice(&src[k..=(k + i)]);
        }
        let mut v = vec![0.0; m];
        for c in 0..k {
            for (i, vi) in v.iter_mut().enumerate() {
                *vi = self.l[(k + i, c)];
            }
            if !rank_one_update(&mut l, &mut v) {
                return self.refactorize_trailing(k);
            }
        }
        Ok(Cholesky { l, jitter: 0.0 })
    }

    /// Fallback for [`Cholesky::downdate`]: reconstruct the trailing block of
    /// the *original* matrix (`L₂₁L₂₁ᵀ + L₂₂L₂₂ᵀ`, minus any jitter this
    /// factor added to its diagonal) and refactorize it from scratch.
    fn refactorize_trailing(&self, k: usize) -> Result<Self, LinalgError> {
        let m = self.dim() - k;
        let mut a = Matrix::from_fn(m, m, |i, j| {
            let (p, q) = (k + i, k + j);
            let lim = usize::min(p, q);
            self.l.row(p)[..=lim]
                .iter()
                .zip(&self.l.row(q)[..=lim])
                .map(|(x, y)| x * y)
                .sum()
        });
        if self.jitter != 0.0 {
            a.add_diag(-self.jitter);
        }
        Cholesky::new(&a)
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// The diagonal jitter that was added to achieve positive definiteness.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// `log |A| = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Solves `L y = b` (forward substitution).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_lower",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        for i in 0..n {
            let row = self.l.row(i);
            let mut s = y[i];
            for k in 0..i {
                s -= row[k] * y[k];
            }
            y[i] = s / row[i];
        }
        Ok(y)
    }

    /// Solves `L Y = B` for all columns of `B` at once (forward substitution
    /// swept row-by-row across the stacked right-hand sides).
    ///
    /// Per column, the floating-point operations and their order are exactly
    /// those of [`Cholesky::solve_lower`], so the result is **bit-identical**
    /// to solving each column separately — batching changes the memory access
    /// pattern (one pass over `L` serves every column), not the arithmetic.
    /// This is the hot path of batched GP prediction, where the stacked
    /// cross-covariance of a whole query chunk is solved in one sweep.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_lower_mat(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_lower_mat",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let cols = b.cols();
        let mut y = b.clone();
        let mut acc = vec![0.0; cols];
        for i in 0..n {
            let lrow = self.l.row(i);
            acc.copy_from_slice(y.row(i));
            for (k, &lik) in lrow.iter().enumerate().take(i) {
                let yk = y.row(k);
                for (a, &v) in acc.iter_mut().zip(yk) {
                    *a -= lik * v;
                }
            }
            let lii = lrow[i];
            for (out, &a) in y.row_mut(i).iter_mut().zip(&acc) {
                *out = a / lii;
            }
        }
        Ok(y)
    }

    /// Solves `Lᵀ x = y` (back substitution).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `y.len() != self.dim()`.
    pub fn solve_upper(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if y.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_upper",
                lhs: (n, n),
                rhs: (y.len(), 1),
            });
        }
        let mut x = y.to_vec();
        for i in (0..n).rev() {
            let mut s = x[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                s -= self.l[(k, i)] * xk;
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solves `Lᵀ X = Y` for all columns of `Y` at once (back substitution
    /// swept row-by-row, the mirror of [`Cholesky::solve_lower_mat`]).
    ///
    /// Per column the subtraction order (`k` ascending `i+1..n`) and every
    /// operation match [`Cholesky::solve_upper`], so the result is
    /// **bit-identical** to solving each column separately.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `y.rows() != self.dim()`.
    pub fn solve_upper_mat(&self, y: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if y.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_upper_mat",
                lhs: (n, n),
                rhs: y.shape(),
            });
        }
        let cols = y.cols();
        let mut x = y.clone();
        let mut acc = vec![0.0; cols];
        for i in (0..n).rev() {
            acc.copy_from_slice(x.row(i));
            for k in (i + 1)..n {
                let lki = self.l[(k, i)];
                let xk = x.row(k);
                for (a, &v) in acc.iter_mut().zip(xk) {
                    *a -= lki * v;
                }
            }
            let lii = self.l[(i, i)];
            for (out, &a) in x.row_mut(i).iter_mut().zip(&acc) {
                *out = a / lii;
            }
        }
        Ok(x)
    }

    /// Solves `A x = b` via the two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.solve_upper(&self.solve_lower(b)?)
    }

    /// Solves `A X = B` for all columns at once via the two batched
    /// triangular sweeps ([`Cholesky::solve_lower_mat`] then
    /// [`Cholesky::solve_upper_mat`]), each of which is bit-identical per
    /// column to its vector counterpart — so this is **bit-identical** to
    /// calling [`Cholesky::solve_vec`] column by column, at a fraction of the
    /// memory traffic (one pass over `L` per sweep serves every column).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_mat(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_mat",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        self.solve_upper_mat(&self.solve_lower_mat(b)?)
    }

    /// Explicit inverse `A⁻¹`. Prefer the solve methods; this is provided for the
    /// multi-task predictive-covariance path where the inverse is reused heavily.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Cholesky::solve_mat`]; cannot fail for a valid
    /// factorization.
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.solve_mat(&Matrix::identity(self.dim()))
    }
}

/// One plane-rotation rank-1 update `L Lᵀ + v vᵀ` applied in place (the
/// LINPACK `dchud` recurrence); consumes `v` as workspace. Returns `false`
/// if a rotation loses positivity or finiteness, in which case `l` is
/// partially updated and must be discarded by the caller.
fn rank_one_update(l: &mut Matrix, v: &mut [f64]) -> bool {
    let m = l.rows();
    for j in 0..m {
        let d = l[(j, j)];
        let x = v[j];
        let r = (d * d + x * x).sqrt();
        // NaN inputs surface as a NaN `r`, caught by the finiteness check.
        if d <= 0.0 || r <= 0.0 || !r.is_finite() {
            return false;
        }
        let c = r / d;
        let s = x / d;
        l[(j, j)] = r;
        for i in (j + 1)..m {
            let nij = (l[(i, j)] + s * v[i]) / c;
            v[i] = c * v[i] - s * nij;
            l[(i, j)] = nij;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]).unwrap()
    }

    /// A deterministic, well-conditioned SPD matrix: `B Bᵀ + n·I` with
    /// smoothly varying entries.
    fn spd(n: usize) -> Matrix {
        let b = Matrix::from_fn(n, n, |i, j| ((i * n + j) as f64 * 0.7).sin());
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diag(n as f64);
        a
    }

    #[test]
    fn reconstructs_original() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let r = c.l().matmul(&c.l().transpose()).unwrap();
        assert!(a.max_abs_diff(&r).unwrap() < 1e-12);
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let b = [1.0, -2.0, 3.0];
        let x = c.solve_vec(&b).unwrap();
        let back = a.mul_vec(&x).unwrap();
        for (bi, bb) in b.iter().zip(back.iter()) {
            assert!((bi - bb).abs() < 1e-10);
        }
    }

    #[test]
    fn log_det_matches_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 0.3], &[0.3, 1.5]]).unwrap();
        let det: f64 = 2.0 * 1.5 - 0.09;
        let c = Cholesky::new(&a).unwrap();
        assert!((c.log_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = spd3();
        let inv = Cholesky::new(&a).unwrap().inverse().unwrap();
        let eye = a.matmul(&inv).unwrap();
        assert!(eye.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-10);
    }

    #[test]
    fn semidefinite_gets_jitter() {
        // Rank-1 matrix: positive semi-definite, needs jitter.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let c = Cholesky::new(&a).unwrap();
        assert!(c.jitter() > 0.0);
    }

    #[test]
    fn indefinite_fails() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -5.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    fn leading_block(a: &Matrix, n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| a[(i, j)])
    }

    fn assert_bitwise_eq(a: &Cholesky, b: &Cholesky, what: &str) {
        assert_eq!(a.jitter().to_bits(), b.jitter().to_bits(), "jitter: {what}");
        assert_eq!(a.l().shape(), b.l().shape(), "shape: {what}");
        for (i, (x, y)) in a.l().as_slice().iter().zip(b.l().as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "entry {i} differs: {what}");
        }
    }

    #[test]
    fn blocked_matches_scalar_bitwise_across_panel_widths() {
        for n in [1, 2, 5, 17, 33, 64, 97, 200] {
            let a = spd(n);
            let scalar = Cholesky::new_with_panel(&a, 1).unwrap();
            for panel in [2, 3, 8, 31, 32, 48, 64, 200] {
                let blocked = Cholesky::new_with_panel(&a, panel).unwrap();
                assert_bitwise_eq(&blocked, &scalar, &format!("n={n} panel={panel}"));
            }
            let auto = Cholesky::new(&a).unwrap();
            assert_bitwise_eq(&auto, &scalar, &format!("n={n} auto"));
        }
    }

    #[test]
    fn blocked_matches_scalar_bitwise_when_jitter_escalates() {
        // Rank-deficient at n=40: both paths must walk the same escalation
        // and land on the same jitter and factor.
        let n = 40;
        let b = Matrix::from_fn(n, 3, |i, j| ((i * 3 + j) as f64 * 0.9).cos());
        let a = b.matmul(&b.transpose()).unwrap();
        let scalar = Cholesky::new_with_panel(&a, 1).unwrap();
        assert!(scalar.jitter() > 0.0);
        let blocked = Cholesky::new_with_panel(&a, 8).unwrap();
        assert_bitwise_eq(&blocked, &scalar, "jittered n=40 panel=8");
    }

    #[test]
    fn extend_matches_full_factorization_bitwise() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, 0.5, 0.2],
            &[1.0, 3.0, 0.2, 0.1],
            &[0.5, 0.2, 2.0, 0.3],
            &[0.2, 0.1, 0.3, 2.5],
        ])
        .unwrap();
        for n0 in 1..4 {
            let base = Cholesky::new(&leading_block(&a, n0)).unwrap();
            let ext = base.extend(&a).unwrap();
            let full = Cholesky::new(&a).unwrap();
            assert_eq!(ext.jitter().to_bits(), full.jitter().to_bits());
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(
                        ext.l()[(i, j)].to_bits(),
                        full.l()[(i, j)].to_bits(),
                        "entry ({i},{j}) differs for n0={n0}"
                    );
                }
            }
        }
    }

    #[test]
    fn extend_matches_blocked_full_factorization_bitwise_large() {
        // Same contract across the blocked-path size threshold: growing a
        // factor must agree bit-for-bit with the (blocked) full
        // factorization, up to a realistic surrogate size.
        for (n0, n) in [(40, 60), (150, 200)] {
            let a = spd(n);
            let base = Cholesky::new(&leading_block(&a, n0)).unwrap();
            let ext = base.extend(&a).unwrap();
            let full = Cholesky::new(&a).unwrap();
            assert_bitwise_eq(&ext, &full, &format!("extend {n0}->{n}"));
        }
    }

    #[test]
    fn extend_same_size_is_identity() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let e = c.extend(&a).unwrap();
        assert_eq!(c.l(), e.l());
    }

    #[test]
    fn extend_falls_back_when_jittered() {
        // Base factor needed jitter; the grown matrix is SPD. Extend must
        // agree with a fresh factorization (which re-runs the escalation).
        let a0 = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let base = Cholesky::new(&a0).unwrap();
        assert!(base.jitter() > 0.0);
        let grown =
            Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[1.0, 1.0, 0.0], &[0.0, 0.0, 3.0]]).unwrap();
        let ext = base.extend(&grown).unwrap();
        let full = Cholesky::new(&grown).unwrap();
        assert_eq!(ext.jitter().to_bits(), full.jitter().to_bits());
        assert_eq!(ext.l(), full.l());
    }

    #[test]
    fn extend_falls_back_on_bad_trailing_block() {
        // The new diagonal makes the grown matrix indefinite at zero jitter;
        // extend must take the same escalation path as a full factorization.
        let a0 = spd3();
        let base = Cholesky::new(&a0).unwrap();
        assert_eq!(base.jitter(), 0.0);
        let mut grown = Matrix::zeros(4, 4);
        for i in 0..3 {
            for j in 0..3 {
                grown[(i, j)] = a0[(i, j)];
            }
        }
        // Trailing entry equal to the norm of its column ⇒ zero/negative pivot.
        grown[(3, 3)] = 1e-9;
        grown[(0, 3)] = 1.0;
        grown[(3, 0)] = 1.0;
        match (base.extend(&grown), Cholesky::new(&grown)) {
            (Ok(e), Ok(f)) => {
                assert_eq!(e.jitter().to_bits(), f.jitter().to_bits());
                assert_eq!(e.l(), f.l());
            }
            (Err(_), Err(_)) => {}
            (e, f) => panic!("extend and full disagree: {e:?} vs {f:?}"),
        }
    }

    fn trailing_block(a: &Matrix, k: usize) -> Matrix {
        let m = a.rows() - k;
        Matrix::from_fn(m, m, |i, j| a[(k + i, k + j)])
    }

    #[test]
    fn downdate_zero_is_bit_identical_clone() {
        let a = spd(20);
        let c = Cholesky::new(&a).unwrap();
        let d = c.downdate(0).unwrap();
        assert_bitwise_eq(&d, &c, "downdate(0)");
    }

    #[test]
    fn downdate_matches_window_factorization_to_tolerance() {
        for (n, ks) in [(30, &[1, 3, 10, 29][..]), (200, &[8][..])] {
            let a = spd(n);
            let c = Cholesky::new(&a).unwrap();
            assert_eq!(c.jitter(), 0.0);
            for &k in ks {
                let d = c.downdate(k).unwrap();
                assert_eq!(d.dim(), n - k);
                let fresh = Cholesky::new(&trailing_block(&a, k)).unwrap();
                let scale = fresh.l().max_abs();
                let diff = d.l().max_abs_diff(fresh.l()).unwrap();
                assert!(
                    diff <= 1e-12 * scale,
                    "n={n} k={k}: |downdate - fresh| = {diff:e} (scale {scale:e})"
                );
            }
        }
    }

    #[test]
    fn downdate_of_extend_recovers_window() {
        // Slide the window: factorize n=24, extend to 30, drop the oldest 6.
        let a = spd(30);
        let base = Cholesky::new(&leading_block(&a, 24)).unwrap();
        let ext = base.extend(&a).unwrap();
        let d = ext.downdate(6).unwrap();
        let fresh = Cholesky::new(&trailing_block(&a, 6)).unwrap();
        let diff = d.l().max_abs_diff(fresh.l()).unwrap();
        assert!(diff <= 1e-12 * fresh.l().max_abs(), "diff {diff:e}");
    }

    #[test]
    fn downdate_jittered_falls_back_and_stays_consistent() {
        // Rank-deficient matrix forces jitter; downdate must fall back to
        // refactorization and still represent the window matrix (plus its
        // own jitter) faithfully.
        let n = 12;
        let b = Matrix::from_fn(n, 2, |i, j| ((i * 2 + j) as f64 * 1.3).sin());
        let a = b.matmul(&b.transpose()).unwrap();
        let c = Cholesky::new(&a).unwrap();
        assert!(c.jitter() > 0.0);
        let k = 4;
        let d = c.downdate(k).unwrap();
        let recon = d.l().matmul(&d.l().transpose()).unwrap();
        let mut want = trailing_block(&a, k);
        want.add_diag(d.jitter());
        let diff = recon.max_abs_diff(&want).unwrap();
        assert!(diff <= 1e-9, "jittered downdate drifted: {diff:e}");
    }

    #[test]
    fn downdate_rejects_removing_everything() {
        let c = Cholesky::new(&spd3()).unwrap();
        assert!(matches!(c.downdate(3), Err(LinalgError::Empty { .. })));
        assert!(matches!(c.downdate(7), Err(LinalgError::Empty { .. })));
    }

    #[test]
    fn solve_lower_mat_matches_per_column_bitwise() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, 0.5, 0.2],
            &[1.0, 3.0, 0.2, 0.1],
            &[0.5, 0.2, 2.0, 0.3],
            &[0.2, 0.1, 0.3, 2.5],
        ])
        .unwrap();
        let c = Cholesky::new(&a).unwrap();
        let b = Matrix::from_fn(4, 5, |i, j| ((i * 5 + j) as f64).sin());
        let batched = c.solve_lower_mat(&b).unwrap();
        for j in 0..5 {
            let col = c.solve_lower(&b.col(j)).unwrap();
            for i in 0..4 {
                assert_eq!(
                    batched[(i, j)].to_bits(),
                    col[i].to_bits(),
                    "entry ({i},{j}) differs from the per-column solve"
                );
            }
        }
    }

    #[test]
    fn solve_upper_mat_matches_per_column_bitwise() {
        let a = spd(9);
        let c = Cholesky::new(&a).unwrap();
        let y = Matrix::from_fn(9, 4, |i, j| ((i * 4 + j) as f64).cos());
        let batched = c.solve_upper_mat(&y).unwrap();
        for j in 0..4 {
            let col = c.solve_upper(&y.col(j)).unwrap();
            for i in 0..9 {
                assert_eq!(
                    batched[(i, j)].to_bits(),
                    col[i].to_bits(),
                    "entry ({i},{j}) differs from the per-column solve"
                );
            }
        }
    }

    #[test]
    fn solve_mat_matches_per_column_solve_vec_bitwise() {
        // n = 200 with 24 right-hand sides runs the blocked factor and a
        // candidate-chunk-wide solve at realistic surrogate size.
        for (n, q) in [(11, 6), (200, 24)] {
            let a = spd(n);
            let c = Cholesky::new(&a).unwrap();
            let b = Matrix::from_fn(n, q, |i, j| ((2 * i + 3 * j) as f64).sin());
            let batched = c.solve_mat(&b).unwrap();
            for j in 0..q {
                let col = c.solve_vec(&b.col(j)).unwrap();
                for i in 0..n {
                    assert_eq!(
                        batched[(i, j)].to_bits(),
                        col[i].to_bits(),
                        "n={n}: entry ({i},{j}) differs from the per-column solve_vec"
                    );
                }
            }
        }
    }

    #[test]
    fn solve_lower_mat_rejects_wrong_row_count() {
        let c = Cholesky::new(&spd3()).unwrap();
        assert!(matches!(
            c.solve_lower_mat(&Matrix::zeros(2, 3)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            c.solve_upper_mat(&Matrix::zeros(2, 3)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn non_square_fails() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }
}
