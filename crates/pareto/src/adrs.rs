//! Average distance to reference set (ADRS, Eq. 11 of the paper) — the quality
//! metric of the experimental section: how far the learned Pareto set `Ω` is
//! from the true Pareto set `Γ`, averaged over the true set.

/// Average distance from the reference (true) Pareto set `gamma` to the learned
/// set `omega` (Eq. 11): `ADRS(Γ, Ω) = (1/|Γ|) Σ_{γ∈Γ} min_{ω∈Ω} f(γ, ω)`,
/// with `f` the Euclidean distance in objective space. Normalize the
/// objectives to comparable scales first.
///
/// Lower is better; 0 means every true Pareto point is matched exactly.
///
/// # Panics
///
/// Panics if either set is empty or dimensions disagree.
///
/// # Examples
///
/// ```
/// use cmmf_pareto::adrs;
///
/// let truth = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
/// assert_eq!(adrs(&truth, &truth), 0.0);
/// let learned = vec![vec![0.5, 1.0], vec![1.0, 0.5]];
/// assert!(adrs(&truth, &learned) > 0.0);
/// ```
pub fn adrs(gamma: &[Vec<f64>], omega: &[Vec<f64>]) -> f64 {
    assert!(!gamma.is_empty(), "reference Pareto set is empty");
    assert!(!omega.is_empty(), "learned Pareto set is empty");
    let m = gamma[0].len();
    for p in gamma.iter().chain(omega) {
        assert_eq!(p.len(), m, "objective dimension mismatch");
    }
    let total: f64 = gamma
        .iter()
        .map(|g| {
            omega
                .iter()
                .map(|w| distance(g, w))
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    total / gamma.len() as f64
}

fn distance(g: &[f64], w: &[f64]) -> f64 {
    g.iter()
        .zip(w)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets_have_zero_adrs() {
        let s = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        assert_eq!(adrs(&s, &s), 0.0);
    }

    #[test]
    fn superset_learned_set_has_zero_adrs() {
        let truth = vec![vec![0.0, 1.0]];
        let learned = vec![vec![0.0, 1.0], vec![5.0, 5.0]];
        assert_eq!(adrs(&truth, &learned), 0.0);
    }

    #[test]
    fn euclidean_known_value() {
        let truth = vec![vec![0.0, 0.0]];
        let learned = vec![vec![3.0, 4.0]];
        assert!((adrs(&truth, &learned) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn worse_approximation_has_larger_adrs() {
        let truth = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let close = vec![vec![0.1, 1.0], vec![1.0, 0.1]];
        let far = vec![vec![0.8, 1.0], vec![1.0, 0.8]];
        assert!(adrs(&truth, &close) < adrs(&truth, &far));
    }

    #[test]
    #[should_panic(expected = "learned Pareto set is empty")]
    fn empty_learned_set_panics() {
        let truth = vec![vec![0.0]];
        let _ = adrs(&truth, &[]);
    }
}
