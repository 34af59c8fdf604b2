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

    /// Solves `A x = b` via the two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.solve_upper(&self.solve_lower(b)?)
    }
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
        for (x, y) in a.as_slice().iter().zip(r.as_slice()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
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
    fn solve_lower_mat_matches_per_column_bitwise() {
        // n = 200 with 24 right-hand sides runs the blocked factor and a
        // candidate-chunk-wide solve at realistic surrogate size.
        let small = Matrix::from_rows(&[
            &[4.0, 1.0, 0.5, 0.2],
            &[1.0, 3.0, 0.2, 0.1],
            &[0.5, 0.2, 2.0, 0.3],
            &[0.2, 0.1, 0.3, 2.5],
        ])
        .unwrap();
        for (a, q) in [(small, 5), (spd(200), 24)] {
            let n = a.rows();
            let c = Cholesky::new(&a).unwrap();
            let b = Matrix::from_fn(n, q, |i, j| ((i * q + j) as f64).sin());
            let batched = c.solve_lower_mat(&b).unwrap();
            for j in 0..q {
                let b_j: Vec<f64> = (0..n).map(|i| b[(i, j)]).collect();
                let col = c.solve_lower(&b_j).unwrap();
                for i in 0..n {
                    assert_eq!(
                        batched[(i, j)].to_bits(),
                        col[i].to_bits(),
                        "n={n}: entry ({i},{j}) differs from the per-column solve"
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
    }

    #[test]
    fn non_square_fails() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }
}
