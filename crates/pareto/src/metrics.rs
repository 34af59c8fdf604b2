//! NSGA-II's selection measures: crowding distance and non-dominated
//! ranks, used by the NSGA-II baseline.

use crate::dominance::pareto_front;

/// NSGA-II crowding distance of every point in `points` (not just the front):
/// the sum over objectives of the normalized gap between each point's
/// neighbours when sorted by that objective. Boundary points get `f64::INFINITY`.
///
/// # Panics
///
/// Panics if `points` is empty or ragged.
pub fn crowding_distance(points: &[Vec<f64>]) -> Vec<f64> {
    assert!(!points.is_empty(), "no points");
    let n = points.len();
    let m = points[0].len();
    for p in points {
        assert_eq!(p.len(), m, "objective dimension mismatch");
    }
    if n <= 2 {
        return vec![f64::INFINITY; n];
    }
    let mut dist = vec![0.0f64; n];
    // `d` indexes one objective column across rows reached via `order[..]`;
    // there is no single slice to iterate.
    #[allow(clippy::needless_range_loop)]
    for d in 0..m {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| points[a][d].total_cmp(&points[b][d]));
        let lo = points[order[0]][d];
        let hi = points[order[n - 1]][d];
        let span = (hi - lo).max(1e-12);
        dist[order[0]] = f64::INFINITY;
        dist[order[n - 1]] = f64::INFINITY;
        for w in 1..n - 1 {
            let gap = (points[order[w + 1]][d] - points[order[w - 1]][d]) / span;
            if dist[order[w]].is_finite() {
                dist[order[w]] += gap;
            }
        }
    }
    dist
}

/// Fast non-dominated sorting (NSGA-II): partitions `points` into fronts;
/// front 0 is the Pareto front, front 1 the front after removing front 0, etc.
/// Returns the front index of every point.
pub fn non_dominated_ranks(points: &[Vec<f64>]) -> Vec<usize> {
    let n = points.len();
    let mut rank = vec![usize::MAX; n];
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut level = 0;
    while !remaining.is_empty() {
        let pts: Vec<Vec<f64>> = remaining.iter().map(|&i| points[i].clone()).collect();
        let front = pareto_front(&pts);
        let mut next = Vec::new();
        for (k, &i) in remaining.iter().enumerate() {
            if front.contains(&pts[k]) {
                rank[i] = level;
            } else {
                next.push(i);
            }
        }
        // Guard against pathological duplicates keeping everything in `front`.
        if next.len() == remaining.len() {
            for &i in &next {
                rank[i] = level;
            }
            break;
        }
        remaining = next;
        level += 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crowding_boundaries_are_infinite() {
        let pts = vec![
            vec![0.0, 1.0],
            vec![0.25, 0.75],
            vec![0.5, 0.5],
            vec![1.0, 0.0],
        ];
        let d = crowding_distance(&pts);
        assert!(d[0].is_infinite() && d[3].is_infinite());
        assert!(d[1].is_finite() && d[2].is_finite());
        assert!(d[1] > 0.0);
    }

    #[test]
    fn crowding_prefers_isolated_points() {
        // Middle point crowded between near neighbours vs an isolated one.
        let pts = vec![
            vec![0.0, 1.0],
            vec![0.10, 0.90],
            vec![0.12, 0.88],
            vec![0.14, 0.86],
            vec![0.6, 0.4], // isolated
            vec![1.0, 0.0],
        ];
        let d = crowding_distance(&pts);
        assert!(d[4] > d[2], "isolated {} !> crowded {}", d[4], d[2]);
    }

    #[test]
    fn ranks_layer_correctly() {
        let pts = vec![
            vec![0.0, 0.0], // rank 0 (dominates everything)
            vec![1.0, 1.0], // rank 1
            vec![2.0, 2.0], // rank 2
            vec![0.5, 0.2], // rank 1 (dominated only by the first)
        ];
        let r = non_dominated_ranks(&pts);
        assert_eq!(r, vec![0, 2, 3, 1]);
    }

    #[test]
    fn ranks_of_antichain_are_all_zero() {
        let pts = vec![vec![0.0, 2.0], vec![1.0, 1.0], vec![2.0, 0.0]];
        assert_eq!(non_dominated_ranks(&pts), vec![0, 0, 0]);
    }

    #[test]
    fn small_sets_are_all_boundary() {
        assert!(crowding_distance(&[vec![1.0, 2.0]])[0].is_infinite());
        let d = crowding_distance(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(d.iter().all(|v| v.is_infinite()));
    }
}
