//! Confidence intervals for means and proportions.
//!
//! The reproduction validates "with high probability" claims by running many
//! seeded executions and reporting the proportion of runs that satisfy a
//! property, together with a Wilson score interval; running-time claims are
//! reported as means with a normal-approximation interval.

use crate::descriptive::Summary;

/// The typed reason an interval's width is undefined: the caller has not
/// seen enough (finite) data for a dispersion estimate to exist.
///
/// Sequential stopping rules must treat every variant as "keep sampling" —
/// the silent alternative (a zero-width interval around a one-sample mean)
/// would stop a sweep on the very first batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CiUndefined {
    /// Fewer than two samples: the sample standard deviation (and with it
    /// the interval width) does not exist yet.
    TooFewSamples {
        /// How many samples were seen.
        count: u64,
    },
    /// At least one sample was NaN or infinite, so no finite width exists.
    NonFinite,
    /// A proportion over zero trials: the estimate itself is undefined.
    NoTrials,
}

impl std::fmt::Display for CiUndefined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CiUndefined::TooFewSamples { count } => {
                write!(f, "confidence interval undefined: only {count} sample(s)")
            }
            CiUndefined::NonFinite => {
                write!(f, "confidence interval undefined: non-finite sample")
            }
            CiUndefined::NoTrials => {
                write!(f, "confidence interval undefined: zero trials")
            }
        }
    }
}

impl std::error::Error for CiUndefined {}

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (mean or proportion).
    pub estimate: f64,
    /// Lower bound of the interval.
    pub lower: f64,
    /// Upper bound of the interval.
    pub upper: f64,
    /// Confidence level used to build the interval, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }

    /// Returns `true` if `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }

    /// Normal-approximation confidence interval for the mean of `samples`,
    /// `mean ± z · s/√n`.
    ///
    /// Empty and singleton samples, and samples containing a non-finite
    /// value, have no defined interval width; they return the typed
    /// [`CiUndefined`] state instead of silently degenerating to a
    /// zero-width interval (which a sequential stopping rule would read as
    /// "converged").
    pub fn for_mean(samples: &[f64], level: f64) -> Result<Self, CiUndefined> {
        if samples.iter().any(|x| !x.is_finite()) {
            return Err(CiUndefined::NonFinite);
        }
        Self::for_summary(&Summary::from_slice(samples), level)
    }

    /// The same normal-approximation interval built from an already-folded
    /// [`Summary`] — the incremental form sequential stopping rules use:
    /// the accumulating fold (e.g. a Welford
    /// [`OnlineStats`](crate::OnlineStats)) is summarized at each batch
    /// boundary without retaining samples.
    pub fn for_summary(s: &Summary, level: f64) -> Result<Self, CiUndefined> {
        if s.count < 2 {
            return Err(CiUndefined::TooFewSamples {
                count: s.count as u64,
            });
        }
        if !s.mean.is_finite() || !s.std_dev.is_finite() {
            return Err(CiUndefined::NonFinite);
        }
        let z = z_value(level);
        let hw = z * s.std_error();
        Ok(ConfidenceInterval {
            estimate: s.mean,
            lower: s.mean - hw,
            upper: s.mean + hw,
            level,
        })
    }
}

/// Wilson score interval for a binomial proportion.
///
/// `successes` out of `trials`; `level` is the confidence level (e.g. 0.95).
/// For `trials == 0` returns the degenerate interval `[0, 1]` around `0`.
///
/// ```
/// use wsync_stats::proportion_ci;
/// let ci = proportion_ci(95, 100, 0.95);
/// assert!(ci.lower > 0.85 && ci.upper < 0.99);
/// assert!(ci.contains(0.95));
/// ```
pub fn proportion_ci(successes: usize, trials: usize, level: f64) -> ConfidenceInterval {
    if trials == 0 {
        return ConfidenceInterval {
            estimate: 0.0,
            lower: 0.0,
            upper: 1.0,
            level,
        };
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z = z_value(level);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let hw = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ConfidenceInterval {
        estimate: p,
        lower: (center - hw).max(0.0),
        upper: (center + hw).min(1.0),
        level,
    }
}

/// Two-sided standard-normal critical value for the given confidence level.
///
/// Exact table values are used for the common levels (0.90, 0.95, 0.99,
/// 0.999); other levels are computed with the Acklam inverse-normal
/// approximation (absolute error below 1.2e-9 over the open unit interval).
pub fn z_value(level: f64) -> f64 {
    match level {
        l if (l - 0.90).abs() < 1e-12 => 1.6448536269514722,
        l if (l - 0.95).abs() < 1e-12 => 1.959963984540054,
        l if (l - 0.99).abs() < 1e-12 => 2.5758293035489004,
        l if (l - 0.999).abs() < 1e-12 => 3.290526731491926,
        _ => {
            let level = level.clamp(1e-9, 1.0 - 1e-12);
            let p = 1.0 - (1.0 - level) / 2.0;
            inverse_normal_cdf(p)
        }
    }
}

/// Acklam's rational approximation to the inverse of the standard normal CDF.
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn z_values_for_common_levels() {
        assert!((z_value(0.95) - 1.96).abs() < 0.001);
        assert!((z_value(0.99) - 2.576).abs() < 0.001);
        assert!((z_value(0.90) - 1.645).abs() < 0.001);
    }

    #[test]
    fn z_value_from_approximation() {
        // 0.98 is not a table entry; two-sided z ≈ 2.3263
        assert!((z_value(0.98) - 2.3263).abs() < 1e-3);
    }

    #[test]
    fn mean_ci_contains_true_mean_for_constant_sample() {
        let ci = ConfidenceInterval::for_mean(&[5.0; 30], 0.95).unwrap();
        assert_eq!(ci.estimate, 5.0);
        assert!(ci.contains(5.0));
        assert!(ci.half_width() < 1e-12);
    }

    #[test]
    fn mean_ci_width_undefined_below_two_samples() {
        assert_eq!(
            ConfidenceInterval::for_mean(&[], 0.95),
            Err(CiUndefined::TooFewSamples { count: 0 })
        );
        assert_eq!(
            ConfidenceInterval::for_mean(&[7.25], 0.95),
            Err(CiUndefined::TooFewSamples { count: 1 })
        );
    }

    #[test]
    fn mean_ci_width_undefined_on_non_finite_samples() {
        assert_eq!(
            ConfidenceInterval::for_mean(&[1.0, f64::NAN, 3.0], 0.95),
            Err(CiUndefined::NonFinite)
        );
        assert_eq!(
            ConfidenceInterval::for_mean(&[1.0, f64::INFINITY], 0.95),
            Err(CiUndefined::NonFinite)
        );
        assert_eq!(
            ConfidenceInterval::for_mean(&[f64::NEG_INFINITY, 2.0], 0.95),
            Err(CiUndefined::NonFinite)
        );
    }

    #[test]
    fn proportion_ci_basic_shape() {
        let ci = proportion_ci(50, 100, 0.95);
        assert!((ci.estimate - 0.5).abs() < 1e-12);
        assert!(ci.lower > 0.39 && ci.lower < 0.45);
        assert!(ci.upper > 0.55 && ci.upper < 0.61);
    }

    #[test]
    fn proportion_ci_extremes_clamped() {
        let all = proportion_ci(100, 100, 0.95);
        assert_eq!(all.estimate, 1.0);
        assert!(all.upper <= 1.0);
        assert!(all.lower < 1.0);

        let none = proportion_ci(0, 100, 0.95);
        assert_eq!(none.estimate, 0.0);
        assert!(none.lower >= 0.0);
        assert!(none.upper > 0.0);
    }

    #[test]
    fn proportion_ci_no_trials() {
        let ci = proportion_ci(0, 0, 0.95);
        assert_eq!(ci.lower, 0.0);
        assert_eq!(ci.upper, 1.0);
    }

    proptest! {
        #[test]
        fn wilson_interval_always_within_unit_and_contains_estimate(
            successes in 0usize..=200, extra in 0usize..=200, level in 0.5f64..0.999
        ) {
            let trials = successes + extra;
            prop_assume!(trials > 0);
            let ci = proportion_ci(successes, trials, level);
            prop_assert!(ci.lower >= 0.0 && ci.upper <= 1.0);
            prop_assert!(ci.lower <= ci.estimate + 1e-12);
            prop_assert!(ci.upper >= ci.estimate - 1e-12);
        }

        #[test]
        fn z_value_monotone_in_level(a in 0.5f64..0.99, b in 0.5f64..0.99) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(z_value(lo) <= z_value(hi) + 1e-9);
        }

        #[test]
        fn mean_ci_contains_sample_mean(xs in proptest::collection::vec(-1e3f64..1e3, 2..100)) {
            let ci = ConfidenceInterval::for_mean(&xs, 0.95).unwrap();
            prop_assert!(ci.contains(ci.estimate));
            prop_assert!(ci.lower <= ci.upper);
        }
    }
}
