//! Property-based tests of dominance, hypervolume, cells, and ADRS.

use cmmf_pareto::metrics::{crowding_distance, non_dominated_ranks};
use cmmf_pareto::{
    adrs, dominates, hypervolume, hypervolume_contribution, pareto_front, pareto_front_indices,
    FrontIndex,
};
use proptest::prelude::*;

fn points(n: usize, m: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, m), 1..=n)
}

/// Total volume of `index`'s non-dominated cells inside the box
/// `[0, reference)`: interval 0 is open below, so it is clipped at 0.
fn free_volume(index: &FrontIndex) -> f64 {
    (0..index.cell_count())
        .filter(|&c| !index.is_cell_dominated(c))
        .map(|c| {
            (0..index.dim())
                .map(|d| {
                    let (lo, hi) = index.interval(d, index.cell_coord(c, d));
                    hi - lo.max(0.0)
                })
                .product::<f64>()
        })
        .sum()
}

proptest! {
    #[test]
    fn dominance_is_antisymmetric(a in proptest::collection::vec(0.0f64..1.0, 3),
                                  b in proptest::collection::vec(0.0f64..1.0, 3)) {
        prop_assert!(!(dominates(&a, &b) && dominates(&b, &a)));
    }

    #[test]
    fn front_is_idempotent(pts in points(20, 2)) {
        let f1 = pareto_front(&pts);
        let f2 = pareto_front(&f1);
        prop_assert_eq!(f1, f2);
    }

    #[test]
    fn front_members_are_mutually_nondominated(pts in points(20, 3)) {
        let f = pareto_front(&pts);
        for (i, a) in f.iter().enumerate() {
            for (j, b) in f.iter().enumerate() {
                if i != j {
                    prop_assert!(!dominates(a, b));
                }
            }
        }
    }

    #[test]
    fn hypervolume_is_monotone_under_insertion(pts in points(12, 3),
                                               extra in proptest::collection::vec(0.0f64..1.0, 3)) {
        let r = vec![1.5, 1.5, 1.5];
        let before = hypervolume(&pts, &r);
        let mut with = pts.clone();
        with.push(extra);
        let after = hypervolume(&with, &r);
        prop_assert!(after + 1e-9 >= before);
    }

    #[test]
    fn hypervolume_is_bounded_by_reference_box(pts in points(15, 2)) {
        let r = vec![1.0, 1.0];
        let hv = hypervolume(&pts, &r);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&hv));
    }

    #[test]
    fn contribution_matches_delta(pts in points(10, 2),
                                  y in proptest::collection::vec(0.0f64..1.0, 2)) {
        let r = vec![1.2, 1.2];
        let c = hypervolume_contribution(&y, &pts, &r);
        let mut with = pts.clone();
        with.push(y);
        let delta = hypervolume(&with, &r) - hypervolume(&pts, &r);
        prop_assert!((c - delta).abs() < 1e-9);
    }

    // The FrontIndex oracle and the from-scratch contribution compute the
    // same cell volumes in different summation orders, so they agree to
    // float rounding: ≤ 1e-12 absolute at unit coordinate scale. Query
    // ranges deliberately extend beyond the reference box (contribution 0)
    // and into the dominated region.
    #[test]
    fn front_index_matches_naive_contribution_2d(pts in points(16, 2),
                                                 y in proptest::collection::vec(-0.2f64..1.4, 2)) {
        let r = vec![1.2, 1.2];
        let index = FrontIndex::new(&pts, &r);
        let naive = hypervolume_contribution(&y, &pts, &r);
        let fast = index.contribution(&y);
        prop_assert!((naive - fast).abs() <= 1e-12, "naive={naive} fast={fast}");
    }

    #[test]
    fn front_index_matches_naive_contribution_3d(pts in points(12, 3),
                                                 y in proptest::collection::vec(-0.2f64..1.4, 3)) {
        let r = vec![1.2, 1.2, 1.2];
        let index = FrontIndex::new(&pts, &r);
        let naive = hypervolume_contribution(&y, &pts, &r);
        let fast = index.contribution(&y);
        prop_assert!((naive - fast).abs() <= 1e-12, "naive={naive} fast={fast}");
    }

    #[test]
    fn front_index_is_zero_on_weakly_dominated_queries(pts in points(10, 3)) {
        let r = vec![1.5, 1.5, 1.5];
        let index = FrontIndex::new(&pts, &r);
        for p in &pts {
            // Every front member and everything it dominates contributes 0.
            prop_assert_eq!(index.contribution(p), 0.0);
            let worse: Vec<f64> = p.iter().map(|v| v + 0.1).collect();
            prop_assert_eq!(index.contribution(&worse), 0.0);
        }
    }

    // The Eq. 7 grid's non-dominated cells fill exactly what the front leaves
    // of the unit box (Fig. 6).
    #[test]
    fn nondominated_cells_complement_hypervolume(pts in points(8, 2), pts3 in points(6, 3)) {
        for (front, r) in [(pareto_front(&pts), vec![1.0; 2]), (pareto_front(&pts3), vec![1.0; 3])] {
            let free = free_volume(&FrontIndex::new(&front, &r));
            let hv = hypervolume(&front, &r);
            prop_assert!((free + hv - 1.0).abs() < 1e-9, "free={free} hv={hv}");
        }
    }

    #[test]
    fn adrs_is_zero_iff_learned_covers_truth(pts in points(10, 3)) {
        let truth = pareto_front(&pts);
        prop_assert!(adrs(&truth, &truth) < 1e-12);
    }

    #[test]
    fn adrs_shrinks_with_more_coverage(pts in points(12, 2)) {
        let truth = pareto_front(&pts);
        prop_assume!(truth.len() >= 2);
        let partial = vec![truth[0].clone()];
        let fuller = truth[..truth.len() - 1].to_vec();
        let a_partial = adrs(&truth, &partial);
        let a_fuller = adrs(&truth, &fuller);
        prop_assert!(a_fuller <= a_partial + 1e-12);
    }

    #[test]
    fn front_indices_point_at_nondominated(pts in points(16, 3)) {
        // Exactly the points nothing dominates, in input order.
        let brute: Vec<usize> = (0..pts.len())
            .filter(|&i| !pts.iter().any(|other| dominates(other, &pts[i])))
            .collect();
        prop_assert_eq!(pareto_front_indices(&pts), brute);
    }

    #[test]
    fn ranks_are_consistent_with_dominance(pts in points(12, 2)) {
        let ranks = non_dominated_ranks(&pts);
        for (i, a) in pts.iter().enumerate() {
            for (j, b) in pts.iter().enumerate() {
                if dominates(a, b) {
                    prop_assert!(ranks[i] <= ranks[j], "dominator ranked worse");
                }
            }
        }
        // Rank 0 is exactly the Pareto front.
        for (i, r) in ranks.iter().enumerate() {
            let on_front = !pts.iter().any(|o| dominates(o, &pts[i]));
            prop_assert_eq!(*r == 0, on_front);
        }
    }

    #[test]
    fn crowding_is_finite_or_infinite_never_nan(pts in points(10, 3)) {
        for d in crowding_distance(&pts) {
            prop_assert!(!d.is_nan());
            prop_assert!(d >= 0.0);
        }
    }
}
