//! The percentile rules every reported timing follows.

use cmmf_benchmark::stats::{
    paced_wall, percentile, quartiles, rank, relative_spread, sorted, tail,
};

fn one_to(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn nearest_rank_is_the_smallest_sample_covering_the_percentile() {
    let v = one_to(10);
    assert_eq!(percentile(&v, 50.0), Some(5.0));
    assert_eq!(percentile(&v, 51.0), Some(6.0));
    assert_eq!(percentile(&v, 90.0), Some(9.0));
    assert_eq!(percentile(&v, 99.0), Some(10.0));
    assert_eq!(percentile(&v, 100.0), Some(10.0));
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(rank(50.0, 1), 1);
    assert_eq!(rank(99.9, 1000), 999);
}

#[test]
fn sorting_is_total_and_ascending() {
    assert_eq!(sorted(&[3.0, -1.0, 2.0]), vec![-1.0, 2.0, 3.0]);
    let with_nan = sorted(&[f64::NAN, 1.0, 0.5]);
    assert_eq!(&with_nan[..2], &[0.5, 1.0]);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // 1000 samples: p99.9 has one beyond, p99 exactly ten.
    assert_eq!(tail(&one_to(1000)), Some((99.0, 990.0)));
    // 999 samples: p99 ranks 990 with nine beyond, so p95 (rank 950).
    assert_eq!(tail(&one_to(999)), Some((95.0, 950.0)));
    // 10 000 samples: p99.9 ranks 9990 with ten beyond.
    assert_eq!(tail(&one_to(10_000)), Some((99.9, 9990.0)));
    // 100 samples: p90 ranks 90 with ten beyond.
    assert_eq!(tail(&one_to(100)), Some((90.0, 90.0)));
    // 40 samples: only p75 (rank 30) keeps ten beyond.
    assert_eq!(tail(&one_to(40)), Some((75.0, 30.0)));
    // Too few for any tail: the median stands in, labelled 50.
    assert_eq!(tail(&one_to(39)), Some((50.0, 20.0)));
    assert_eq!(tail(&[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&one_to(10)), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&one_to(5)), Some([1.5, 3.0, 4.5]));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[1.0]), None);
    // IQR over the median: (8.25 - 2.75) / 5.5
    assert_eq!(relative_spread(&one_to(10)), Some(1.0));
    assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
}

#[test]
fn paced_wall_ignores_a_slow_round() {
    // Rounds of 2, 2, 2 and (one burst) 9 seconds: four median rounds.
    let jobs = [(0, 1.0), (0, 1.0), (1, 2.0), (2, 1.5), (2, 0.5), (3, 9.0)];
    assert_eq!(paced_wall(&jobs, 1), 8.0);
    // Two callers share each round's latency.
    assert_eq!(paced_wall(&jobs, 2), 4.0);
    assert_eq!(paced_wall(&[], 1), 0.0);
}
