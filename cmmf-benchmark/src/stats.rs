//! Order statistics behind every reported timing.
//!
//! Timings are reported as a nearest-rank median plus the highest percentile
//! that still has at least [`TAIL_MIN_BEYOND`] samples ranked above it, so a
//! tail is never read off a handful of samples. Run-to-run spreads use the
//! quartiles of Python's `statistics.quantiles(values, n=4)`, the statistic
//! the benchmark's bounds are checked against.

/// Samples that must rank above a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
pub const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A copy of `samples` in ascending order (`total_cmp`, so a NaN cannot
/// panic the sort).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The 1-based nearest rank of percentile `p` among `n` samples:
/// `⌈p·n/100⌉`, clamped to `1..=n`.
pub fn rank(p: f64, n: usize) -> usize {
    // Multiply before dividing, and forgive a last-bit excess, so that an
    // exact rank such as 99.9 % of 10 000 does not round up to the next one.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil();
    if r < 1.0 {
        1
    } else {
        (r as usize).min(n)
    }
}

/// Nearest-rank percentile of ascending `sorted` samples; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// Nearest-rank median of unsorted `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0).unwrap_or(0.0)
}

/// The highest of [`TAIL_PERCENTILES`] with at least [`TAIL_MIN_BEYOND`]
/// samples ranked above it, as `(percentile, value)`. With too few samples
/// for any of them (fewer than 40) the median stands in, reported as
/// percentile 50, so the printed percentile always says what was measured.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    for p in TAIL_PERCENTILES {
        if n.saturating_sub(rank(p, n)) >= TAIL_MIN_BEYOND {
            return percentile(sorted, p).map(|v| (p, v));
        }
    }
    percentile(sorted, 50.0).map(|v| (50.0, v))
}

/// The three quartile cut points of `samples` by the method of Python's
/// `statistics.quantiles(samples, n=4)` (the default, "exclusive"); `None`
/// with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(samples);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // `i·m − 4·j` can be negative after the clamp; keep it signed.
        let delta = (i * m) as f64 - (4 * j) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// The wall time of a work set at its typical pace: the number of rounds
/// times the median round, where a round's time is the latency of its jobs
/// (given as `(round, seconds)`) summed and shared among the `callers` that
/// ran them concurrently. A burst of host contention that slows a few rounds
/// does not move it.
pub fn paced_wall(jobs: &[(usize, f64)], callers: usize) -> f64 {
    let rounds = jobs.iter().map(|&(r, _)| r + 1).max().unwrap_or(0);
    let mut per_round = vec![0.0; rounds];
    for &(r, s) in jobs {
        per_round[r] += s;
    }
    rounds as f64 * median(&per_round) / callers.max(1) as f64
}

/// Interquartile distance as a share of the median (Python-quantile
/// quartiles); `None` with fewer than two samples or a zero median.
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}
