//! Scalar statistics: standard-normal PDF/CDF and small summary helpers.
//!
//! The expected-improvement family of acquisition functions (Eq. 2 of the paper)
//! needs `Φ` and `φ`; the experiment harness needs means and standard deviations.
//!
//! # Examples
//!
//! ```
//! use cmmf_linalg::stats;
//!
//! assert!((stats::norm_cdf(0.0) - 0.5).abs() < 1e-12);
//! assert!((stats::norm_pdf(0.0) - 0.3989422804014327).abs() < 1e-12);
//! ```

/// Probability density of the standard normal distribution at `x`.
pub fn norm_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Cumulative distribution of the standard normal distribution at `x`.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function, via the Abramowitz & Stegun 7.1.26 rational approximation.
/// Absolute error is below 1.5e-7 across the real line, ample for
/// acquisition-function use.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let sign = x.signum();
    let x = x.abs();
    // A&S 7.1.26 coefficients.
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let poly = ((((A5 * t + A4) * t + A3) * t + A2) * t + A1) * t;
    sign * (1.0 - poly * (-x * x).exp())
}

/// Arithmetic mean; returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator); returns 0 for fewer than two
/// elements.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from A&S tables.
        let cases = [
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (2.0, 0.9953222650),
            (-1.0, -0.8427007929),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 5e-7, "erf({x})");
        }
    }

    #[test]
    fn cdf_symmetry() {
        for x in [-3.0, -1.0, -0.2, 0.0, 0.7, 2.5] {
            assert!((norm_cdf(x) + norm_cdf(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_and_std_edges_are_defined() {
        // The documented 0- and 1-length contracts: no NaN, ever. Table-I
        // aggregation relies on these when a sweep is cut short.
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(mean(&[4.25]), 4.25);
        assert_eq!(std_dev(&[4.25]), 0.0);
    }

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.138089935).abs() < 1e-6);
    }
}
