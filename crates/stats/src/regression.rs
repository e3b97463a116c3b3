//! Least-squares fits used to compare measured running times against the
//! paper's asymptotic bound expressions.
//!
//! Two fits are provided:
//!
//! * [`linear_fit`] — ordinary least squares `y ≈ a + b·x` with `R²`.
//! * [`fit_through_origin`] — `y ≈ c·x`, used to test whether measured
//!   round counts are a constant multiple of a predicted bound expression
//!   (the reproduction criterion for `O(·)`/`Ω(·)` claims: the ratio should
//!   be roughly constant across the sweep, i.e. the origin fit should have a
//!   small relative residual).

/// Result of an ordinary least squares fit `y ≈ intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted intercept `a`.
    pub intercept: f64,
    /// Fitted slope `b`.
    pub slope: f64,
    /// Coefficient of determination `R²` (1.0 for a perfect fit; may be
    /// negative for fits worse than the constant-mean model in the
    /// through-origin case, but is in `[0, 1]` here).
    pub r_squared: f64,
    /// Number of points used.
    pub n: usize,
}

impl LinearFit {
    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Result of a least-squares fit through the origin, `y ≈ ratio · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OriginFit {
    /// Fitted proportionality constant `c`.
    pub ratio: f64,
    /// Maximum relative deviation `max_i |y_i − c·x_i| / (c·x_i)` over points
    /// with `x_i > 0`; small values mean the data really is proportional.
    pub max_relative_deviation: f64,
    /// Root-mean-square relative deviation over points with `x_i > 0`.
    pub rms_relative_deviation: f64,
    /// Number of points used.
    pub n: usize,
}

impl OriginFit {
    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.ratio * x
    }
}

/// Ordinary least squares fit of `y ≈ a + b·x`.
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths or fewer than two points.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "linear_fit: mismatched lengths");
    assert!(xs.len() >= 2, "linear_fit: need at least two points");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        let mut ss_res = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            let e = y - (intercept + slope * x);
            ss_res += e * e;
        }
        (1.0 - ss_res / syy).clamp(0.0, 1.0)
    };
    LinearFit {
        intercept,
        slope,
        r_squared,
        n: xs.len(),
    }
}

/// Least-squares fit of `y ≈ c·x` through the origin.
///
/// The fitted constant is `c = Σ x·y / Σ x²`. Points with `x == 0` contribute
/// to the fit but are excluded from the relative-deviation metrics.
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths, are empty, or all `x` are
/// zero.
pub fn fit_through_origin(xs: &[f64], ys: &[f64]) -> OriginFit {
    assert_eq!(xs.len(), ys.len(), "fit_through_origin: mismatched lengths");
    assert!(!xs.is_empty(), "fit_through_origin: empty input");
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    assert!(sxx > 0.0, "fit_through_origin: all x are zero");
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let ratio = sxy / sxx;
    let mut max_rel: f64 = 0.0;
    let mut sum_sq_rel = 0.0;
    let mut counted = 0usize;
    for (&x, &y) in xs.iter().zip(ys) {
        if x > 0.0 && ratio != 0.0 {
            let pred = ratio * x;
            let rel = ((y - pred) / pred).abs();
            max_rel = max_rel.max(rel);
            sum_sq_rel += rel * rel;
            counted += 1;
        }
    }
    let rms = if counted == 0 {
        0.0
    } else {
        (sum_sq_rel / counted as f64).sqrt()
    };
    OriginFit {
        ratio,
        max_relative_deviation: max_rel,
        rms_relative_deviation: rms,
        n: xs.len(),
    }
}

/// Fits `log(y) ≈ a + b·log(x)` and returns the exponent `b` together with
/// the full fit. Useful for checking polynomial/"log-power" scaling shapes.
///
/// # Panics
///
/// Panics if fewer than two points have strictly positive `x` and `y`.
pub fn log_log_exponent(xs: &[f64], ys: &[f64]) -> (f64, LinearFit) {
    let pairs: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .collect();
    assert!(
        pairs.len() >= 2,
        "log_log_exponent: need at least two positive points"
    );
    let lx: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let ly: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let fit = linear_fit(&lx, &ly);
    (fit.slope, fit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.5 * x).collect();
        let fit = linear_fit(&xs, &ys);
        assert!((fit.intercept - 3.0).abs() < 1e-9);
        assert!((fit.slope - 2.5).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
        assert!((fit.predict(20.0) - 53.0).abs() < 1e-9);
    }

    #[test]
    fn constant_y_has_zero_slope_and_perfect_r2() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [4.0, 4.0, 4.0];
        let fit = linear_fit(&xs, &ys);
        assert!(fit.slope.abs() < 1e-12);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn noisy_line_has_high_r2() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 5.0 * x + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let fit = linear_fit(&xs, &ys);
        assert!((fit.slope - 5.0).abs() < 0.05);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn origin_fit_exact_proportionality() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        let ys = [3.0, 6.0, 12.0, 24.0];
        let fit = fit_through_origin(&xs, &ys);
        assert!((fit.ratio - 3.0).abs() < 1e-12);
        assert!(fit.max_relative_deviation < 1e-12);
        assert!(fit.rms_relative_deviation < 1e-12);
    }

    #[test]
    fn origin_fit_detects_nonproportional_data() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        let ys = [1.0, 4.0, 16.0, 64.0]; // quadratic, not proportional
        let fit = fit_through_origin(&xs, &ys);
        assert!(fit.max_relative_deviation > 0.5);
    }

    #[test]
    fn log_log_recovers_power() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 7.0 * x.powi(3)).collect();
        let (exp, fit) = log_log_exponent(&xs, &ys);
        assert!((exp - 3.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    #[should_panic(expected = "mismatched lengths")]
    fn mismatched_lengths_panics() {
        linear_fit(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "all x are zero")]
    fn origin_fit_all_zero_x_panics() {
        fit_through_origin(&[0.0, 0.0], &[1.0, 2.0]);
    }

    proptest! {
        #[test]
        fn linear_fit_r2_in_unit_interval(
            xs in proptest::collection::vec(-100.0f64..100.0, 2..50),
            noise in proptest::collection::vec(-10.0f64..10.0, 2..50),
        ) {
            let n = xs.len().min(noise.len());
            prop_assume!(n >= 2);
            let xs = &xs[..n];
            let ys: Vec<f64> = xs.iter().zip(&noise[..n]).map(|(x, e)| 2.0 * x + e).collect();
            let fit = linear_fit(xs, &ys);
            prop_assert!(fit.r_squared >= 0.0 && fit.r_squared <= 1.0);
        }

        #[test]
        fn origin_fit_scale_invariance(scale in 0.1f64..100.0) {
            let xs = [1.0, 2.0, 3.0, 4.0];
            let ys: Vec<f64> = xs.iter().map(|x| x * scale).collect();
            let fit = fit_through_origin(&xs, &ys);
            prop_assert!((fit.ratio - scale).abs() < 1e-9);
        }
    }
}
