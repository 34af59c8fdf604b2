use crate::{LinalgError, Matrix};

/// Panel width of the blocked factorization: a panel's columns are what each
/// sweep of the trailing block subtracts. Every panel that has a trailing
/// block is this wide, so the trailing update always runs in whole rank-4
/// steps.
const PANEL: usize = 32;
const _: () = assert!(PANEL.is_multiple_of(4));

/// Jittered Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix, with triangular solves and log-determinant.
///
/// Gaussian-process covariance matrices are positive definite in theory but often
/// only positive *semi*-definite numerically; [`Cholesky::new`] therefore retries
/// with an escalating diagonal jitter (`1e-10 .. 1e-4` times the mean diagonal)
/// before giving up, which is the standard treatment in GP libraries.
///
/// # One blocked routine
///
/// [`Cholesky::new`], [`Cholesky::from_lower`] and
/// [`CholeskyWorkspace::factor`] all run one right-looking blocked
/// factorization, in place in the factor's own `n × n` buffer, on the lower
/// triangle only. Each panel of 32 columns is copied, transposed, into the
/// unused upper triangle of its own rows — column-major scratch that costs no
/// memory — so a finished column updates the panel's later columns with one
/// contiguous AXPY, and the trailing block is swept in fused rank-4 steps
/// whose inner loop runs over contiguous row slices. The panel then goes back
/// to the lower triangle and the upper triangle back to zero.
///
/// Every entry `(i, j)` keeps the scalar recurrence's subtraction chain: an
/// accumulator seeded with `a[i][j]` (plus the jitter on the diagonal) from
/// which `L[i][k]·L[j][k]` is subtracted for `k` ascending `0..j`, every
/// operand a finished entry of `L`, then one square root or one division. The
/// blocked order only changes which entry is worked on when, and each `f64`
/// operation is exactly rounded with no contraction into FMAs, so the factor
/// is **bit-identical** to the scalar `i-j-k` recurrence at any vector width
/// (the oracle in `tests/proptests.rs` pins it for `n` up to 200).
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

/// Storage for factoring many symmetric matrices of one dimension in place,
/// as a hyperparameter search does once per likelihood evaluation: one
/// `n × n` buffer, allocated once, that every [`CholeskyWorkspace::factor`]
/// call writes its matrix into and factors there, with no copy, zero fill or
/// allocation.
///
/// # Examples
///
/// ```
/// use cmmf_linalg::CholeskyWorkspace;
///
/// # fn main() -> Result<(), cmmf_linalg::LinalgError> {
/// let mut ws = CholeskyWorkspace::new(2);
/// for s in [1.0, 2.0] {
///     // The closure writes the lower triangle of [[2s, s], [s, 2s]].
///     let chol = ws.factor(|l| {
///         l[(0, 0)] = 2.0 * s;
///         l[(1, 0)] = s;
///         l[(1, 1)] = 2.0 * s;
///     })?;
///     assert!((chol.log_det() - (3.0 * s * s).ln()).abs() < 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CholeskyWorkspace {
    /// The factor of the last successful [`CholeskyWorkspace::factor`]; after
    /// a failed one, scratch that the next call overwrites.
    chol: Cholesky,
}

impl CholeskyWorkspace {
    /// A workspace for `n × n` matrices.
    pub fn new(n: usize) -> Self {
        CholeskyWorkspace {
            chol: Cholesky {
                l: Matrix::zeros(n, n),
                jitter: 0.0,
            },
        }
    }

    /// Factors the symmetric matrix whose lower triangle `fill` writes into
    /// the workspace's buffer (diagonal included; `fill` must not write
    /// above the diagonal). `fill` runs once, and again before each retry
    /// with a larger jitter, so it must write the same values every time.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if the workspace is 0x0.
    /// * [`LinalgError::NotPositiveDefinite`] if factorization fails even at
    ///   the maximum jitter.
    pub fn factor(&mut self, fill: impl FnMut(&mut Matrix)) -> Result<&Cholesky, LinalgError> {
        self.chol.refactor(fill)?;
        Ok(&self.chol)
    }
}

impl Cholesky {
    /// Factorizes `a`, adding escalating diagonal jitter if needed. Only the
    /// lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Empty`] if `a` is 0x0.
    /// * [`LinalgError::NotPositiveDefinite`] if factorization fails even at the
    ///   maximum jitter.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        Self::from_lower(a.rows(), |l| {
            for i in 0..a.rows() {
                l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
            }
        })
    }

    /// Factorizes the `n × n` symmetric matrix whose lower triangle `fill`
    /// writes straight into the factor's storage, so the matrix is never
    /// built anywhere else; `fill` follows the rules of
    /// [`CholeskyWorkspace::factor`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`CholeskyWorkspace::factor`].
    pub fn from_lower(n: usize, fill: impl FnMut(&mut Matrix)) -> Result<Self, LinalgError> {
        let mut ws = CholeskyWorkspace::new(n);
        ws.factor(fill)?;
        Ok(ws.chol)
    }

    /// Refills and refactors `self.l` in place, escalating the jitter.
    fn refactor(&mut self, mut fill: impl FnMut(&mut Matrix)) -> Result<(), LinalgError> {
        let n = self.l.rows();
        if n == 0 {
            return Err(LinalgError::Empty {
                op: "Cholesky::new",
            });
        }
        fill(&mut self.l);
        let mean_diag = (0..n).map(|i| self.l[(i, i)].abs()).sum::<f64>() / n as f64;
        let base = if mean_diag > 0.0 { mean_diag } else { 1.0 };
        let mut jitter = 0.0;
        let mut scale = 1e-10;
        loop {
            if factor_in_place(&mut self.l, jitter) {
                self.jitter = jitter;
                return Ok(());
            }
            if scale > 1e-4 {
                return Err(LinalgError::NotPositiveDefinite { max_jitter: jitter });
            }
            jitter = base * scale;
            scale *= 100.0;
            fill(&mut self.l);
        }
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
        self.check_len("solve_lower", b.len())?;
        let mut y = vec![0.0; b.len()];
        self.forward(b, &mut y);
        Ok(y)
    }

    /// Solves `L Y = B` for all columns of `B` at once: forward substitution
    /// swept over fixed-width column blocks of the stacked right-hand sides,
    /// 8 columns at a time, then 4, then one for each column left.
    ///
    /// A block's row of accumulators is a fixed-size array that stays in
    /// registers while row `i` subtracts every earlier row of its block, so
    /// each pass over `L` does one multiply-subtract per column per entry
    /// with no load or store of the accumulators in between. Per column, the
    /// chain is [`Cholesky::solve_lower`]'s: seed `b[i][c]`, subtract
    /// `L[i][k]·y[k][c]` for `k` ascending, divide by `L[i][i]`; so the
    /// result is **bit-identical** to solving each column separately at any
    /// block width. This is the hot path of batched GP prediction, where the
    /// stacked cross-covariance of a whole query chunk is solved at once.
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
        let mut c0 = 0;
        while c0 + 8 <= cols {
            self.forward_block::<8>(&mut y, c0);
            c0 += 8;
        }
        if c0 + 4 <= cols {
            self.forward_block::<4>(&mut y, c0);
            c0 += 4;
        }
        for c in c0..cols {
            self.forward_block::<1>(&mut y, c);
        }
        Ok(y)
    }

    /// Forward substitution in place over columns `c0..c0 + W` of `y`, which
    /// holds `B` on entry: row `i` of the block is `W` accumulators seeded
    /// from `b[i]`, from which `L[i][k]·y[k]` is subtracted for `k` ascending
    /// before the division by `L[i][i]`.
    fn forward_block<const W: usize>(&self, y: &mut Matrix, c0: usize) {
        let cols = y.cols();
        // Lets the compiler drop the per-row range checks below.
        assert!(c0 + W <= cols, "column block out of range");
        let data = y.as_mut_slice();
        for (i, lrow) in self.l.as_slice().chunks_exact(self.dim()).enumerate() {
            let (done, rest) = data.split_at_mut(i * cols);
            let out = &mut rest[c0..c0 + W];
            let mut acc = [0.0; W];
            acc.copy_from_slice(out);
            for (&lik, yk) in lrow[..i].iter().zip(done.chunks_exact(cols)) {
                for (a, &v) in acc.iter_mut().zip(&yk[c0..c0 + W]) {
                    *a -= lik * v;
                }
            }
            let lii = lrow[i];
            for (o, a) in out.iter_mut().zip(acc) {
                *o = a / lii;
            }
        }
    }

    /// Solves `Lᵀ x = y` (back substitution).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `y.len() != self.dim()`.
    pub fn solve_upper(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.check_len("solve_upper", y.len())?;
        let mut x = y.to_vec();
        self.backward(&mut x);
        Ok(x)
    }

    /// Solves `A x = b` via the two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = vec![0.0; b.len()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into the caller's `x`, allocating nothing; the same
    /// operations as [`Cholesky::solve_vec`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b` or `x` is not
    /// `self.dim()` long.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), LinalgError> {
        self.check_len("solve_into", b.len())?;
        self.check_len("solve_into", x.len())?;
        self.forward(b, x);
        self.backward(x);
        Ok(())
    }

    fn check_len(&self, op: &'static str, len: usize) -> Result<(), LinalgError> {
        let n = self.dim();
        if len == n {
            Ok(())
        } else {
            Err(LinalgError::ShapeMismatch {
                op,
                lhs: (n, n),
                rhs: (len, 1),
            })
        }
    }

    /// Forward substitution `y = L⁻¹ b`, row by row.
    fn forward(&self, b: &[f64], y: &mut [f64]) {
        for (i, &bi) in b.iter().enumerate() {
            let row = self.l.row(i);
            let mut s = bi;
            for k in 0..i {
                s -= row[k] * y[k];
            }
            y[i] = s / row[i];
        }
    }

    /// Back substitution `x ← L⁻ᵀ x`, in place.
    fn backward(&self, x: &mut [f64]) {
        for i in (0..x.len()).rev() {
            let mut s = x[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                s -= self.l[(k, i)] * xk;
            }
            x[i] = s / self.l[(i, i)];
        }
    }
}

/// One attempt at factoring `A + jitter·I` in place: on entry the lower
/// triangle of `l` holds `A`; on success it holds `L` and the upper triangle
/// is zero. Returns `false` at the first pivot, in ascending order, that is
/// not positive and finite — the pivot where the scalar recurrence stops
/// too, since every value up to it is bit-identical. The upper triangle is
/// scratch in between, so it may hold anything on entry.
fn factor_in_place(l: &mut Matrix, jitter: f64) -> bool {
    let n = l.rows();
    for i in 0..n {
        l[(i, i)] += jitter;
    }
    let a = l.as_mut_slice();
    let mut p0 = 0;
    while p0 < n {
        let p1 = usize::min(p0 + PANEL, n);
        // The panel's columns p0..p1, rows j..n, go into the upper triangle:
        // column j becomes row j from column j on. Every k < p0 term was
        // already subtracted by the earlier trailing updates.
        for i in p0 + 1..n {
            for j in p0..usize::min(p1, i) {
                a[j * n + i] = a[i * n + j];
            }
        }
        if !factor_panel(a, n, p0, p1) {
            return false;
        }
        if p1 < n {
            update_trailing(a, n, p0, p1);
        }
        // Back to the lower triangle; the upper returns to zero.
        for i in p0 + 1..n {
            for j in p0..usize::min(p1, i) {
                a[i * n + j] = a[j * n + i];
                a[j * n + i] = 0.0;
            }
        }
        p0 = p1;
    }
    true
}

/// Factors the transposed panel held in rows `p0..p1` of `a` (row `j` holds
/// column `j` of `L` from the diagonal on): each column takes its pivot,
/// divides its sub-diagonal by it, and subtracts its `k = j` term from every
/// later panel column with one contiguous AXPY.
fn factor_panel(a: &mut [f64], n: usize, p0: usize, p1: usize) -> bool {
    for j in p0..p1 {
        let s = a[j * n + j];
        if s <= 0.0 || !s.is_finite() {
            return false;
        }
        let pivot = s.sqrt();
        a[j * n + j] = pivot;
        for v in &mut a[j * n + j + 1..(j + 1) * n] {
            *v /= pivot;
        }
        let (done, rest) = a.split_at_mut((j + 1) * n);
        let col = &done[j * n..];
        for (r, later) in rest.chunks_exact_mut(n).take(p1 - j - 1).enumerate() {
            let c = j + 1 + r;
            let f = col[c];
            for (v, &lij) in later[c..].iter_mut().zip(&col[c..]) {
                *v -= lij * f;
            }
        }
    }
    true
}

/// Subtracts the panel `p0..p1` (transposed in the upper triangle of its
/// rows) from the lower triangle of the trailing rows `p1..n`, four columns
/// per sweep: each entry subtracts its `k`, `k+1`, `k+2`, `k+3` terms back to
/// back, the scalar chain's ascending order, at a quarter of the passes.
fn update_trailing(a: &mut [f64], n: usize, p0: usize, p1: usize) {
    let (top, trailing) = a.split_at_mut(p1 * n);
    let panel = &top[p0 * n..];
    for cols in panel.chunks_exact(4 * n) {
        let (u0, rest) = cols.split_at(n);
        let (u1, rest) = rest.split_at(n);
        let (u2, u3) = rest.split_at(n);
        for (r, row) in trailing.chunks_exact_mut(n).enumerate() {
            let i = p1 + r;
            let (f0, f1, f2, f3) = (u0[i], u1[i], u2[i], u3[i]);
            let span = p1..i + 1;
            for ((((v, &c0), &c1), &c2), &c3) in row[span.clone()]
                .iter_mut()
                .zip(&u0[span.clone()])
                .zip(&u1[span.clone()])
                .zip(&u2[span.clone()])
                .zip(&u3[span])
            {
                *v -= f0 * c0;
                *v -= f1 * c1;
                *v -= f2 * c2;
                *v -= f3 * c3;
            }
        }
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
    fn workspace_reuse_matches_fresh_factors_bitwise() {
        // One buffer serves a run of factorizations — a failed one and a
        // jittered one among them, both leaving scratch behind — and each
        // success equals a fresh factor, zero upper triangle included.
        let n = 70;
        let rank3 = {
            let b = Matrix::from_fn(n, 3, |i, j| ((i * 3 + j) as f64 * 0.9).cos());
            b.matmul(&b.transpose()).unwrap()
        };
        let mut indefinite = spd(n);
        indefinite[(40, 40)] = -1e6;
        let mut ws = CholeskyWorkspace::new(n);
        for a in [spd(n), indefinite.clone(), rank3, indefinite, spd(n)] {
            let copy_lower = |l: &mut Matrix| {
                for i in 0..n {
                    l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
                }
            };
            match (Cholesky::new(&a), ws.factor(copy_lower)) {
                (Ok(fresh), Ok(reused)) => assert_bitwise_eq(reused, &fresh, "reused"),
                (Err(fresh), Err(reused)) => assert_eq!(fresh, reused),
                (fresh, reused) => panic!("{fresh:?} vs {reused:?}"),
            }
        }
    }

    #[test]
    fn new_reads_only_the_lower_triangle() {
        let a = spd(40);
        let mut lower_only = a.clone();
        for i in 0..40 {
            for j in (i + 1)..40 {
                lower_only[(i, j)] = f64::NAN;
            }
        }
        let full = Cholesky::new(&a).unwrap();
        assert_bitwise_eq(&Cholesky::new(&lower_only).unwrap(), &full, "lower only");
    }

    #[test]
    fn solve_into_matches_solve_vec_and_checks_lengths() {
        let c = Cholesky::new(&spd(37)).unwrap();
        let b: Vec<f64> = (0..37).map(|i| (i as f64).cos()).collect();
        let mut x = vec![f64::NAN; 37];
        c.solve_into(&b, &mut x).unwrap();
        let via_vec = c.solve_vec(&b).unwrap();
        let via_halves = c.solve_upper(&c.solve_lower(&b).unwrap()).unwrap();
        for ((a, v), h) in x.iter().zip(&via_vec).zip(&via_halves) {
            assert_eq!(a.to_bits(), v.to_bits());
            assert_eq!(a.to_bits(), h.to_bits());
        }
        assert!(c.solve_into(&b[1..], &mut x).is_err());
        assert!(c.solve_into(&b, &mut x[1..]).is_err());
    }

    #[test]
    fn empty_fails() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty { .. })
        ));
        assert!(matches!(
            CholeskyWorkspace::new(0).factor(|_| {}),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn solve_lower_mat_matches_per_column_bitwise() {
        // n = 200 with 24 right-hand sides runs the blocked factor and a
        // candidate-chunk-wide solve at realistic surrogate size. The widths
        // run every column-block width alone, with each tail, and a tail on
        // its own.
        let small = Matrix::from_rows(&[
            &[4.0, 1.0, 0.5, 0.2],
            &[1.0, 3.0, 0.2, 0.1],
            &[0.5, 0.2, 2.0, 0.3],
            &[0.2, 0.1, 0.3, 2.5],
        ])
        .unwrap();
        for a in [small, spd(37), spd(200)] {
            let n = a.rows();
            let c = Cholesky::new(&a).unwrap();
            for q in [1, 3, 4, 5, 7, 8, 9, 16, 24, 25] {
                let b = Matrix::from_fn(n, q, |i, j| ((i * q + j) as f64).sin());
                let batched = c.solve_lower_mat(&b).unwrap();
                assert_eq!(batched.shape(), (n, q));
                for j in 0..q {
                    let b_j: Vec<f64> = (0..n).map(|i| b[(i, j)]).collect();
                    let col = c.solve_lower(&b_j).unwrap();
                    for i in 0..n {
                        assert_eq!(
                            batched[(i, j)].to_bits(),
                            col[i].to_bits(),
                            "n={n}, {q} columns: entry ({i},{j}) differs from the per-column solve"
                        );
                    }
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
