//! Pareto dominance (Definition 1 of the paper) and front extraction.

/// Returns `true` if `a` Pareto-dominates `b` under minimization:
/// `a` is no worse in every objective and strictly better in at least one
/// (Eq. 3).
///
/// # Panics
///
/// Panics if `a` and `b` have different lengths.
///
/// # Examples
///
/// ```
/// use cmmf_pareto::dominates;
///
/// assert!(dominates(&[1.0, 1.0], &[2.0, 1.0]));
/// assert!(!dominates(&[1.0, 2.0], &[2.0, 1.0])); // incomparable
/// assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0])); // equal
/// ```
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective vectors must match in length");
    let mut strictly_better = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Returns `true` if `a` weakly dominates `b`: no worse in every objective
/// (equality allowed everywhere).
///
/// # Panics
///
/// Panics if `a` and `b` have different lengths.
pub fn weakly_dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective vectors must match in length");
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Indices of the non-dominated points in `points`, in input order.
///
/// Duplicated points are all kept (none strictly dominates its copy).
pub fn pareto_front_indices(points: &[Vec<f64>]) -> Vec<usize> {
    // Each point is first tried against the last dominator found: points
    // near each other in the input tend to share one, so most dominated
    // points are rejected without a scan of every point. A point the hint
    // does not dominate still gets the full scan, so the result is the
    // exhaustive one. No point dominates itself, so neither test skips `i`.
    let mut front = Vec::new();
    let mut last = None;
    for (i, p) in points.iter().enumerate() {
        if last.is_some_and(|j: usize| dominates(&points[j], p)) {
            continue;
        }
        match points.iter().position(|q| dominates(q, p)) {
            Some(j) => last = Some(j),
            None => front.push(i),
        }
    }
    front
}

/// The non-dominated subset of `points`, cloned, in input order.
pub fn pareto_front(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    pareto_front_indices(points)
        .into_iter()
        .map(|i| points[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_irreflexive() {
        let p = vec![1.0, 2.0, 3.0];
        assert!(!dominates(&p, &p));
        assert!(weakly_dominates(&p, &p));
    }

    #[test]
    fn dominance_is_transitive() {
        let a = [1.0, 1.0];
        let b = [2.0, 1.0];
        let c = [2.0, 2.0];
        assert!(dominates(&a, &b) && dominates(&b, &c) && dominates(&a, &c));
    }

    #[test]
    fn front_of_chain_is_single_point() {
        let pts = vec![vec![3.0, 3.0], vec![2.0, 2.0], vec![1.0, 1.0]];
        assert_eq!(pareto_front_indices(&pts), vec![2]);
    }

    #[test]
    fn front_of_antichain_is_everything() {
        let pts = vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
        assert_eq!(pareto_front_indices(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn duplicates_are_kept() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert_eq!(pareto_front_indices(&pts), vec![0, 1]);
    }

    #[test]
    fn empty_input() {
        assert!(pareto_front_indices(&[]).is_empty());
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn three_objectives() {
        let pts = vec![
            vec![1.0, 2.0, 3.0],
            vec![2.0, 1.0, 3.0],
            vec![1.0, 2.0, 4.0], // dominated by the first
        ];
        assert_eq!(pareto_front_indices(&pts), vec![0, 1]);
    }
}
