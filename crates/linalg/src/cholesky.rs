use crate::{LinalgError, Matrix};

/// Panel width of the blocked factorization, in columns of `L`: a panel's
/// columns are factored among themselves, then subtracted from every later
/// row in one fused rank-4 sweep. With the panel in contiguous rows there is
/// nothing to amortize over a wider one, and a wider panel only moves work
/// from the rank-4 sweeps into slower rank-1 AXPYs within the panel.
const PANEL: usize = 4;
const _: () = assert!(PANEL == 4, "update_trailing sweeps four rows of U");

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
/// [`Cholesky::new`], [`Cholesky::from_upper`] and
/// [`CholeskyWorkspace::factor`] all run one right-looking blocked
/// factorization, in place in the factor's own `n × n` buffer, on the upper
/// triangle only: row `j` of the buffer holds column `j` of `L` from the
/// diagonal on (`U = Lᵀ`), so every panel of 4 columns of `L` is already 4
/// contiguous rows. A finished column updates the panel's later columns
/// with one contiguous AXPY, and the trailing block subtracts the whole
/// panel in one fused rank-4 sweep whose inner loop runs over contiguous
/// row slices; nothing is copied or transposed on the way. A [`Cholesky`]
/// then takes `L` from `U` with one transpose at the end, so its upper
/// triangle is zero; a workspace keeps `U` ([`UpperCholesky`]).
///
/// Every entry `(i, j)` of `L` keeps the scalar recurrence's subtraction
/// chain: an accumulator seeded with `a[i][j]` (plus the jitter on the
/// diagonal) from which `L[i][k]·L[j][k]` is subtracted for `k` ascending
/// `0..j`, every operand a finished entry of `L`, then one square root or
/// one division. The blocked order only changes which entry is worked on
/// when, the layout only which of two equal products is formed, and each
/// `f64` operation is exactly rounded with no contraction into FMAs, so the
/// factor is **bit-identical** to the scalar `i-j-k` recurrence at any
/// vector width (the oracle in `tests/proptests.rs` pins it for `n` up to
/// 200).
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

/// The same factorization held as the upper-triangular `U = Lᵀ` (`A = Uᵀ U`)
/// in the buffer it was factored in: what [`CholeskyWorkspace::factor`]
/// answers with. Both triangular solves walk rows of `U` only, and each
/// entry of a solution keeps the operation chain of [`Cholesky::solve_vec`],
/// so [`UpperCholesky::solve_into`] and [`UpperCholesky::log_det`] return
/// exactly the bits of a fresh [`Cholesky`] of the same matrix.
#[derive(Debug, Clone)]
pub struct UpperCholesky {
    /// `U` in the upper triangle, diagonal included; the strict lower
    /// triangle is whatever the fills left there, and nothing reads it.
    u: Matrix,
    /// The jitter that was actually added to the diagonal (0 if none was needed).
    jitter: f64,
}

/// Storage for factoring many symmetric matrices of one dimension in place,
/// as a hyperparameter search does once per likelihood evaluation: one
/// `n × n` buffer, allocated once, that every [`CholeskyWorkspace::factor`]
/// call writes its matrix's upper triangle into and factors there, with no
/// copy, zero fill or allocation.
///
/// # Examples
///
/// ```
/// use cmmf_linalg::CholeskyWorkspace;
///
/// # fn main() -> Result<(), cmmf_linalg::LinalgError> {
/// let mut ws = CholeskyWorkspace::new(2);
/// for s in [1.0, 2.0] {
///     // The closure writes the upper triangle of [[2s, s], [s, 2s]].
///     let chol = ws.factor(|u| {
///         u[(0, 0)] = 2.0 * s;
///         u[(0, 1)] = s;
///         u[(1, 1)] = 2.0 * s;
///     })?;
///     assert!((chol.log_det() - (3.0 * s * s).ln()).abs() < 1e-9);
///     let mut x = [0.0; 2];
///     chol.solve_into(&[3.0 * s, 3.0 * s], &mut x)?;
///     assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CholeskyWorkspace {
    /// The factor of the last successful [`CholeskyWorkspace::factor`]; after
    /// a failed one, scratch that the next call overwrites.
    chol: UpperCholesky,
}

impl CholeskyWorkspace {
    /// A workspace for `n × n` matrices.
    pub fn new(n: usize) -> Self {
        CholeskyWorkspace {
            chol: UpperCholesky {
                u: Matrix::zeros(n, n),
                jitter: 0.0,
            },
        }
    }

    /// Factors the symmetric matrix whose upper triangle `fill` writes into
    /// the workspace's buffer (diagonal included; nothing reads below the
    /// diagonal, so what `fill` leaves there is ignored). `fill` runs once,
    /// and again before each retry with a larger jitter, so it must write
    /// the same values every time.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if the workspace is 0x0.
    /// * [`LinalgError::NotPositiveDefinite`] if factorization fails even at
    ///   the maximum jitter.
    pub fn factor(&mut self, fill: impl FnMut(&mut Matrix)) -> Result<&UpperCholesky, LinalgError> {
        self.chol.refactor(fill)?;
        Ok(&self.chol)
    }
}

impl UpperCholesky {
    /// Refills and refactors `self.u` in place, escalating the jitter.
    fn refactor(&mut self, mut fill: impl FnMut(&mut Matrix)) -> Result<(), LinalgError> {
        let n = self.u.rows();
        if n == 0 {
            return Err(LinalgError::Empty {
                op: "Cholesky::new",
            });
        }
        fill(&mut self.u);
        let mean_diag = (0..n).map(|i| self.u[(i, i)].abs()).sum::<f64>() / n as f64;
        let base = if mean_diag > 0.0 { mean_diag } else { 1.0 };
        let mut jitter = 0.0;
        let mut scale = 1e-10;
        loop {
            if factor_in_place(&mut self.u, jitter) {
                self.jitter = jitter;
                return Ok(());
            }
            if scale > 1e-4 {
                return Err(LinalgError::NotPositiveDefinite { max_jitter: jitter });
            }
            jitter = base * scale;
            scale *= 100.0;
            fill(&mut self.u);
        }
    }

    /// The buffer holding `U = Lᵀ` in its upper triangle; the strict lower
    /// triangle is unspecified.
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// The diagonal jitter that was added to achieve positive definiteness.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.u.rows()
    }

    /// `log |A| = 2 Σ log U_ii`, [`Cholesky::log_det`]'s sum.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.u[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Solves `A x = b` into the caller's `x`, allocating nothing: forward
    /// substitution as row AXPYs (once `y_k` and `y_{k+1}` are final,
    /// `U[k][i]·y_k` and then `U[k+1][i]·y_{k+1}` leave every later entry
    /// in one pass, so each entry still subtracts in ascending `k`), then
    /// back substitution as one dot product along each row of `U`. Both
    /// walk contiguous rows, and the result is [`Cholesky::solve_vec`]'s bit
    /// for bit.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b` or `x` is not
    /// `self.dim()` long.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.dim();
        for len in [b.len(), x.len()] {
            if len != n {
                return Err(LinalgError::ShapeMismatch {
                    op: "solve_into",
                    lhs: (n, n),
                    rhs: (len, 1),
                });
            }
        }
        x.copy_from_slice(b);
        let mut pairs = self.u.as_slice().chunks_exact(2 * n);
        for (k, rows) in (0..n).step_by(2).zip(pairs.by_ref()) {
            let (r0, r1) = rows.split_at(n);
            let (done, later) = x.split_at_mut(k + 2);
            let y0 = done[k] / r0[k];
            let y1 = (done[k + 1] - r0[k + 1] * y0) / r1[k + 1];
            done[k] = y0;
            done[k + 1] = y1;
            for ((v, &a), &c) in later.iter_mut().zip(&r0[k + 2..]).zip(&r1[k + 2..]) {
                *v -= a * y0;
                *v -= c * y1;
            }
        }
        if let [.., last] = pairs.remainder() {
            x[n - 1] /= *last;
        }
        for (i, urow) in self.u.as_slice().chunks_exact(n).enumerate().rev() {
            let (head, later) = x.split_at_mut(i + 1);
            let mut s = head[i];
            for (&uik, &xk) in urow[i + 1..].iter().zip(later.iter()) {
                s -= uik * xk;
            }
            head[i] = s / urow[i];
        }
        Ok(())
    }

    /// `L = Uᵀ` in the same buffer, the upper triangle zeroed.
    fn into_lower(self) -> Cholesky {
        let mut l = self.u;
        for i in 1..l.rows() {
            for j in 0..i {
                l[(i, j)] = l[(j, i)];
                l[(j, i)] = 0.0;
            }
        }
        Cholesky {
            l,
            jitter: self.jitter,
        }
    }
}

impl Cholesky {
    /// Factorizes `a`, adding escalating diagonal jitter if needed. Only the
    /// lower triangle of `a` is read; it is mirrored into the factor's upper
    /// triangle and factored there.
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
        Self::from_upper(a.rows(), |u| {
            for i in 0..a.rows() {
                for (j, &v) in a.row(i)[..=i].iter().enumerate() {
                    u[(j, i)] = v;
                }
            }
        })
    }

    /// Factorizes the `n × n` symmetric matrix whose upper triangle `fill`
    /// writes straight into the factor's storage, so the matrix is never
    /// built anywhere else; `fill` follows the rules of
    /// [`CholeskyWorkspace::factor`]. The factor is transposed into `L` once
    /// at the end.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CholeskyWorkspace::factor`].
    pub fn from_upper(n: usize, fill: impl FnMut(&mut Matrix)) -> Result<Self, LinalgError> {
        let mut ws = CholeskyWorkspace::new(n);
        ws.factor(fill)?;
        Ok(ws.chol.into_lower())
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

/// One attempt at factoring `A + jitter·I` in place: on entry the upper
/// triangle of `u` holds `A`; on success it holds `U = Lᵀ`. Returns `false`
/// at the first pivot, in ascending order, that is not positive and finite
/// — the pivot where the scalar recurrence stops too, since every value up
/// to it is bit-identical. The strict lower triangle is never touched.
fn factor_in_place(u: &mut Matrix, jitter: f64) -> bool {
    let n = u.rows();
    for i in 0..n {
        u[(i, i)] += jitter;
    }
    let a = u.as_mut_slice();
    // Columns p0..p1 of L are rows p0..p1 of the buffer. Every k < p0 term
    // was already subtracted by the earlier trailing updates.
    for p0 in (0..n).step_by(PANEL) {
        let p1 = usize::min(p0 + PANEL, n);
        if !factor_panel(a, n, p0, p1) {
            return false;
        }
        if p1 < n {
            update_trailing(a, n, p0);
        }
    }
    true
}

/// Factors the panel held in rows `p0..p1` of `a` (row `j` holds column `j`
/// of `L` from the diagonal on): each column takes its pivot, divides its
/// sub-diagonal by it, and subtracts its `k = j` term from every later
/// panel column with one contiguous AXPY.
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

/// Subtracts the full panel at `p0` (rows `p0..p0 + 4` of `U`) from the
/// upper triangle of every later row in one sweep: each entry subtracts its
/// `k`, `k+1`, `k+2`, `k+3` terms back to back, the scalar chain's
/// ascending order, at a quarter of the passes.
fn update_trailing(a: &mut [f64], n: usize, p0: usize) {
    let p1 = p0 + PANEL;
    let (top, trailing) = a.split_at_mut(p1 * n);
    let (u0, rest) = top[p0 * n..].split_at(n);
    let (u1, rest) = rest.split_at(n);
    let (u2, u3) = rest.split_at(n);
    for (r, row) in trailing.chunks_exact_mut(n).enumerate() {
        let i = p1 + r;
        let (f0, f1, f2, f3) = (u0[i], u1[i], u2[i], u3[i]);
        for ((((v, &c0), &c1), &c2), &c3) in row[i..]
            .iter_mut()
            .zip(&u0[i..])
            .zip(&u1[i..])
            .zip(&u2[i..])
            .zip(&u3[i..])
        {
            *v -= f0 * c0;
            *v -= f1 * c1;
            *v -= f2 * c2;
            *v -= f3 * c3;
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

    /// Asserts that `upper` holds `fresh`'s `L` transposed in its upper
    /// triangle with the same jitter, and answers `log_det` and `solve_into`
    /// with `fresh`'s bits.
    fn assert_upper_eq(upper: &UpperCholesky, fresh: &Cholesky, what: &str) {
        let n = fresh.dim();
        assert_eq!(upper.dim(), n, "dim: {what}");
        let jitters = (upper.jitter().to_bits(), fresh.jitter().to_bits());
        assert_eq!(jitters.0, jitters.1, "jitter: {what}");
        for i in 0..n {
            for j in i..n {
                let (u, l) = (upper.u()[(i, j)], fresh.l()[(j, i)]);
                assert_eq!(u.to_bits(), l.to_bits(), "U[{i}][{j}] differs: {what}");
            }
        }
        let log_dets = (upper.log_det().to_bits(), fresh.log_det().to_bits());
        assert_eq!(log_dets.0, log_dets.1, "log_det: {what}");
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut x = vec![f64::NAN; n];
        upper.solve_into(&b, &mut x).unwrap();
        for (i, (x, want)) in x.iter().zip(fresh.solve_vec(&b).unwrap()).enumerate() {
            assert_eq!(x.to_bits(), want.to_bits(), "x[{i}] differs: {what}");
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_factors_bitwise() {
        // One buffer serves a run of factorizations — a failed one and a
        // jittered one among them, both leaving scratch behind — and each
        // success equals a fresh factor transposed. The fill leaves NaN
        // below the diagonal, which nothing may read.
        let n = 70;
        let rank3 = {
            let b = Matrix::from_fn(n, 3, |i, j| ((i * 3 + j) as f64 * 0.9).cos());
            b.matmul(&b.transpose()).unwrap()
        };
        let mut indefinite = spd(n);
        indefinite[(40, 40)] = -1e6;
        let mut ws = CholeskyWorkspace::new(n);
        for a in [spd(n), indefinite.clone(), rank3, indefinite, spd(n)] {
            let copy_upper = |u: &mut Matrix| {
                for i in 0..n {
                    let row = u.row_mut(i);
                    row[..i].fill(f64::NAN);
                    row[i..].copy_from_slice(&a.row(i)[i..]);
                }
            };
            match (Cholesky::new(&a), ws.factor(copy_upper)) {
                (Ok(fresh), Ok(reused)) => assert_upper_eq(reused, &fresh, "reused"),
                (Err(fresh), Err(reused)) => assert_eq!(fresh, reused),
                (fresh, reused) => panic!("{fresh:?} vs {reused:?}"),
            }
        }
    }

    #[test]
    fn from_upper_leaves_a_zero_upper_triangle() {
        // Whatever the fill leaves below the diagonal, the factor's `L` is
        // `Uᵀ` with a zero strict upper triangle.
        let a = spd(37);
        let dirty = Cholesky::from_upper(37, |u| {
            for i in 0..37 {
                let row = u.row_mut(i);
                row[..i].fill(f64::NAN);
                row[i..].copy_from_slice(&a.row(i)[i..]);
            }
        })
        .unwrap();
        assert_bitwise_eq(&dirty, &Cholesky::new(&a).unwrap(), "dirty lower");
        for i in 0..37 {
            assert!(dirty.l().row(i)[i + 1..].iter().all(|v| v.to_bits() == 0));
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
    fn non_square_fails() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }
}
