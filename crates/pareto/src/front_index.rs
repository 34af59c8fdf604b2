//! A front-indexed hypervolume-contribution oracle (the Eq. 7–8 grid-cell
//! decomposition, precomputed).
//!
//! [`crate::hypervolume_contribution`] answers "how much hypervolume does `y`
//! add to this front?" from scratch: it rebuilds the front's union volume
//! twice per query. The EIPV acquisition asks that question once per
//! Monte-Carlo draw against a front that changes only on fantasy updates, so
//! the front-dependent work can be hoisted: [`FrontIndex::new`] decomposes the
//! reference box once into the grid spanned by the front's per-axis
//! coordinates (Fig. 6 of the paper), marks the cells the front dominates,
//! and builds suffix-summed volume tensors so [`FrontIndex::contribution`]
//! answers each query with `m` binary searches and `2^m` table lookups —
//! `O(m·log F + 2^m)` per query instead of `O(F·2^m)`-ish per query.

/// Upper bound on the objective-space dimension the index supports. The
/// decomposition stores `2^m` tensors of `Π_d (F_d + 1)` cells, so it is only
/// sensible for the low-dimensional objective spaces it is built for (this
/// domain uses m = 3).
const MAX_DIM: usize = 8;

/// Precomputed grid-cell decomposition of a Pareto front against a reference
/// point, answering exact hypervolume-contribution queries in
/// `O(m·log F + 2^m)`.
///
/// Build once per front (`O(2^m · m · Π_d K_d)` with `K_d ≤ F + 1` intervals
/// per axis), query many times. All routines assume **minimization**, like the
/// rest of this crate, and agree with [`crate::hypervolume_contribution`] up
/// to floating-point rounding (≤ 1e-12 absolute for unit-scale coordinates —
/// the two paths sum the same cell volumes in different orders).
///
/// # Examples
///
/// ```
/// use cmmf_pareto::{hypervolume_contribution, FrontIndex};
///
/// let front = vec![vec![0.2, 0.8], vec![0.8, 0.2]];
/// let r = [1.0, 1.0];
/// let index = FrontIndex::new(&front, &r);
/// let naive = hypervolume_contribution(&[0.5, 0.5], &front, &r);
/// assert!((index.contribution(&[0.5, 0.5]) - naive).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FrontIndex {
    m: usize,
    reference: Vec<f64>,
    /// Per-axis interval boundaries, strictly increasing; the last entry is
    /// the reference coordinate. Interval `0` is `(-inf, cuts[0])`, interval
    /// `j ≥ 1` is `[cuts[j-1], cuts[j])`.
    cuts: Vec<Vec<f64>>,
    /// Interval count per axis: `radix[d] == cuts[d].len()`.
    radix: Vec<usize>,
    /// Row-major strides for the flattened cell tensors.
    strides: Vec<usize>,
    /// Whether each grid cell lies entirely inside the front-dominated region.
    dominated: Vec<bool>,
    /// One suffix-summed volume tensor per axis subset `S ⊆ {0..m}`:
    /// `tensors[S][j]` is the total non-dominated volume of cells `j'` with
    /// `j'_d = j_d` on the axes in `S` and `j'_e ≥ j_e` elsewhere, counting
    /// only the interval lengths of the axes *outside* `S` (the axes in `S`
    /// are the partially-covered ones whose widths the query supplies).
    tensors: Vec<Vec<f64>>,
}

impl FrontIndex {
    /// Decomposes the reference box along the coordinates of `front`.
    ///
    /// Points with any coordinate at or beyond the reference are discarded
    /// (they dominate nothing inside the box), and dominated front members
    /// are harmless — they mark cells already marked by their dominators.
    ///
    /// # Panics
    ///
    /// Panics if `reference` is empty or longer than 8 axes, or if any front
    /// point's dimension differs from `reference.len()`.
    pub fn new(front: &[Vec<f64>], reference: &[f64]) -> Self {
        let m = reference.len();
        assert!(m > 0, "reference point must be non-empty");
        assert!(m <= MAX_DIM, "FrontIndex supports at most {MAX_DIM} axes");
        for p in front {
            assert_eq!(p.len(), m, "point/reference dimension mismatch");
        }
        let inside: Vec<&Vec<f64>> = front
            .iter()
            .filter(|p| p.iter().zip(reference).all(|(a, b)| a < b))
            .collect();

        let cuts: Vec<Vec<f64>> = (0..m)
            .map(|d| {
                let mut c: Vec<f64> = inside.iter().map(|p| p[d]).collect();
                c.sort_by(f64::total_cmp);
                c.dedup();
                c.push(reference[d]);
                c
            })
            .collect();
        let radix: Vec<usize> = cuts.iter().map(|c| c.len()).collect();
        let mut strides = vec![1usize; m];
        for d in (0..m.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * radix[d + 1];
        }
        let total: usize = radix.iter().product();

        // A cell is dominated iff some front point dominates its lower corner.
        // Each point's coordinates are cut values, so the first cell it fully
        // dominates is the one whose lower corner *is* the point; everything
        // upward of that (componentwise) follows by an m-pass prefix-OR.
        let mut dominated = vec![false; total];
        for p in &inside {
            let mut idx = 0;
            for d in 0..m {
                idx += cuts[d].partition_point(|c| *c <= p[d]) * strides[d];
            }
            dominated[idx] = true;
        }
        for d in 0..m {
            for i in 0..total {
                if !dominated[i] && !(i / strides[d]).is_multiple_of(radix[d]) {
                    dominated[i] = dominated[i - strides[d]];
                }
            }
        }

        // For each axis subset S: weight every non-dominated cell by the
        // interval lengths of the axes outside S, then suffix-sum along those
        // axes. Interval 0 is unbounded below; it can only ever be *partially*
        // covered by a query (its axis is then in S), so its full-interval
        // weight is a zero sentinel that no lookup reads.
        let mut tensors: Vec<Vec<f64>> = Vec::with_capacity(1 << m);
        for s in 0..(1usize << m) {
            let mut t = vec![0.0f64; total];
            for (i, w) in t.iter_mut().enumerate() {
                if dominated[i] {
                    continue;
                }
                let mut v = 1.0;
                for e in 0..m {
                    if s & (1 << e) != 0 {
                        continue;
                    }
                    let j = (i / strides[e]) % radix[e];
                    if j == 0 {
                        v = 0.0;
                        break;
                    }
                    v *= cuts[e][j] - cuts[e][j - 1];
                }
                *w = v;
            }
            for e in 0..m {
                if s & (1 << e) != 0 {
                    continue;
                }
                for i in (0..total).rev() {
                    if (i / strides[e]) % radix[e] + 1 < radix[e] {
                        t[i] += t[i + strides[e]];
                    }
                }
            }
            tensors.push(t);
        }

        FrontIndex {
            m,
            reference: reference.to_vec(),
            cuts,
            radix,
            strides,
            dominated,
            tensors,
        }
    }

    /// Exact hypervolume gained by adding `y` to the indexed front —
    /// equal to [`crate::hypervolume_contribution`]`(y, front, reference)` up
    /// to float rounding. Returns 0 for points outside the reference box and
    /// for points weakly dominated by the front.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the reference dimension.
    pub fn contribution(&self, y: &[f64]) -> f64 {
        assert_eq!(y.len(), self.m, "query/reference dimension mismatch");
        // Locate y's cell; y_d ≥ r_d contributes nothing.
        let mut iv = [0usize; MAX_DIM];
        for d in 0..self.m {
            if y[d] >= self.reference[d] {
                return 0.0;
            }
            iv[d] = self.cuts[d].partition_point(|c| *c <= y[d]);
        }
        // The box [y, r) covers the cells j ≥ iv componentwise: partially on
        // the axes where j_d == iv_d (width cuts[iv_d] − y_d), fully
        // elsewhere. Summing by the subset S of partially-covered axes turns
        // the whole query into one suffix-tensor lookup per subset.
        let mut total = 0.0;
        'subset: for (s, tensor) in self.tensors.iter().enumerate() {
            let mut idx = 0usize;
            let mut width = 1.0f64;
            for d in 0..self.m {
                let j = iv[d];
                if s & (1 << d) != 0 {
                    idx += j * self.strides[d];
                    width *= self.cuts[d][j] - y[d];
                } else {
                    if j + 1 >= self.radix[d] {
                        continue 'subset;
                    }
                    idx += (j + 1) * self.strides[d];
                }
            }
            total += width * tensor[idx];
        }
        total
    }

    /// Objective-space dimension `m`.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// The reference point the decomposition was built against.
    pub fn reference(&self) -> &[f64] {
        &self.reference
    }

    /// Number of grid intervals on axis `d` (front coordinates + 1).
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn n_intervals(&self, d: usize) -> usize {
        self.radix[d]
    }

    /// Bounds `(lo, hi)` of interval `j` on axis `d`; interval 0 is unbounded
    /// below (`lo == -inf`) and the last interval ends at the reference.
    ///
    /// # Panics
    ///
    /// Panics if `d` or `j` is out of range.
    pub fn interval(&self, d: usize, j: usize) -> (f64, f64) {
        let lo = if j == 0 {
            f64::NEG_INFINITY
        } else {
            self.cuts[d][j - 1]
        };
        (lo, self.cuts[d][j])
    }

    /// Total number of grid cells, `Π_d n_intervals(d)`. Cells are addressed
    /// by flat row-major index in [`Self::cell_coord`] /
    /// [`Self::is_cell_dominated`].
    pub fn cell_count(&self) -> usize {
        self.dominated.len()
    }

    /// The interval index of cell `flat` on axis `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn cell_coord(&self, flat: usize, d: usize) -> usize {
        (flat / self.strides[d]) % self.radix[d]
    }

    /// Whether cell `flat` lies entirely inside the front-dominated region.
    ///
    /// # Panics
    ///
    /// Panics if `flat >= self.cell_count()`.
    pub fn is_cell_dominated(&self, flat: usize) -> bool {
        self.dominated[flat]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hypervolume_contribution, pareto_front};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn empty_front_gives_the_full_box() {
        let index = FrontIndex::new(&[], &[1.0, 2.0]);
        assert!((index.contribution(&[0.25, 1.0]) - 0.75).abs() < 1e-15);
        assert_eq!(index.cell_count(), 1);
        assert!(!index.is_cell_dominated(0));
    }

    #[test]
    fn matches_naive_on_a_fixed_2d_front() {
        let front = vec![vec![0.2, 0.8], vec![0.5, 0.5], vec![0.8, 0.2]];
        let r = [1.0, 1.0];
        let index = FrontIndex::new(&front, &r);
        for y in [
            [0.1, 0.1],
            [0.3, 0.6],
            [0.6, 0.3],
            [0.45, 0.55],
            [0.9, 0.9],   // dominated
            [0.5, 0.5],   // on the front
            [1.0, 0.0],   // on the reference boundary
            [-0.5, 0.95], // below every cut on axis 0
        ] {
            let naive = hypervolume_contribution(&y, &front, &r);
            let fast = index.contribution(&y);
            assert!(
                (naive - fast).abs() < 1e-12,
                "y={y:?}: naive={naive} fast={fast}"
            );
        }
    }

    #[test]
    fn matches_naive_on_a_fixed_3d_front() {
        let front = vec![
            vec![0.1, 0.7, 0.5],
            vec![0.5, 0.2, 0.6],
            vec![0.8, 0.9, 0.1],
            vec![0.3, 0.4, 0.5],
        ];
        let r = [1.0, 1.0, 1.0];
        let index = FrontIndex::new(&front, &r);
        for y in [
            [0.05, 0.05, 0.05],
            [0.2, 0.5, 0.4],
            [0.6, 0.6, 0.6],
            [0.5, 0.2, 0.6],
            [0.9, 0.95, 0.05],
            [0.3, 0.4, 0.45],
        ] {
            let naive = hypervolume_contribution(&y, &front, &r);
            let fast = index.contribution(&y);
            assert!(
                (naive - fast).abs() < 1e-12,
                "y={y:?}: naive={naive} fast={fast}"
            );
        }

        // Seeded simplex fronts of 8 to 128 points (mutually non-dominated),
        // queried inside the improvement region, in the dominated region and
        // outside the reference box.
        let r = [1.2; 3];
        for f in [8usize, 32, 128] {
            let mut rng = StdRng::seed_from_u64(11 + f as u64);
            let front: Vec<Vec<f64>> = (0..f)
                .map(|_| {
                    let raw: Vec<f64> = (0..3).map(|_| rng.random_range(0.05..1.0)).collect();
                    let s: f64 = raw.iter().sum();
                    raw.iter()
                        .map(|v| v / s + rng.random_range(-1e-4..1e-4))
                        .collect()
                })
                .collect();
            assert_eq!(pareto_front(&front).len(), f);
            let index = FrontIndex::new(&front, &r);
            for _ in 0..256 {
                let y: Vec<f64> = (0..3).map(|_| rng.random_range(-0.2..1.4)).collect();
                let naive = hypervolume_contribution(&y, &front, &r);
                let fast = index.contribution(&y);
                assert!(
                    (naive - fast).abs() <= 1e-12,
                    "F={f} y={y:?}: naive={naive} fast={fast}"
                );
            }
        }
    }

    #[test]
    fn dominated_and_out_of_box_queries_are_exactly_zero() {
        let front = vec![vec![0.5, 0.5]];
        let index = FrontIndex::new(&front, &[1.0, 1.0]);
        assert_eq!(index.contribution(&[0.5, 0.5]), 0.0);
        assert_eq!(index.contribution(&[0.7, 0.9]), 0.0);
        assert_eq!(index.contribution(&[1.0, 0.0]), 0.0);
        assert_eq!(index.contribution(&[0.0, 1.5]), 0.0);
    }

    #[test]
    fn points_outside_the_box_and_dominated_points_do_not_change_the_index() {
        // A front member beyond the reference, and a dominated member, leave
        // every query unchanged relative to the clean front.
        let clean = vec![vec![0.3, 0.6], vec![0.6, 0.3]];
        let mut noisy = clean.clone();
        noisy.push(vec![1.4, 0.1]); // outside the box
        noisy.push(vec![0.7, 0.7]); // dominated
        let a = FrontIndex::new(&clean, &[1.0, 1.0]);
        let b = FrontIndex::new(&noisy, &[1.0, 1.0]);
        for y in [[0.1, 0.1], [0.4, 0.5], [0.65, 0.65], [0.2, 0.9]] {
            assert_eq!(a.contribution(&y).to_bits(), b.contribution(&y).to_bits());
        }
    }

    #[test]
    fn interval_accessors_describe_the_grid() {
        let front = vec![vec![0.5, 0.5]];
        let index = FrontIndex::new(&front, &[1.0, 1.0]);
        assert_eq!(index.dim(), 2);
        assert_eq!(index.n_intervals(0), 2);
        assert_eq!(index.interval(0, 0), (f64::NEG_INFINITY, 0.5));
        assert_eq!(index.interval(0, 1), (0.5, 1.0));
        assert_eq!(index.cell_count(), 4);
        // Only the upper-right cell [0.5,1)x[0.5,1) is dominated.
        let mut dominated = 0;
        for flat in 0..index.cell_count() {
            if index.is_cell_dominated(flat) {
                dominated += 1;
                assert_eq!(index.cell_coord(flat, 0), 1);
                assert_eq!(index.cell_coord(flat, 1), 1);
            }
        }
        assert_eq!(dominated, 1);
    }

    #[test]
    fn one_dimensional_front() {
        let front = vec![vec![0.4]];
        let index = FrontIndex::new(&front, &[1.0]);
        assert!((index.contribution(&[0.1]) - 0.3).abs() < 1e-15);
        assert_eq!(index.contribution(&[0.4]), 0.0);
        assert_eq!(index.contribution(&[0.6]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn query_dimension_mismatch_panics() {
        FrontIndex::new(&[], &[1.0, 1.0]).contribution(&[0.5]);
    }
}
