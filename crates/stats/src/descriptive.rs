//! Descriptive statistics: batch summaries and online (Welford) accumulation.

/// A batch summary of a sample: count, mean, (sample) standard deviation,
/// minimum, maximum and sum.
///
/// An empty sample yields a summary with `count == 0`, `mean == 0.0`,
/// `std_dev == 0.0`, `min == f64::INFINITY` and `max == f64::NEG_INFINITY`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (denominator `n - 1`; `0.0` when `n < 2`).
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sum of the samples.
    pub sum: f64,
}

impl Summary {
    /// Computes a summary of `samples`.
    pub fn from_slice(samples: &[f64]) -> Self {
        let mut online = OnlineStats::new();
        for &x in samples {
            online.push(x);
        }
        online.summary()
    }

    /// Computes a summary from an iterator of samples.
    // Deliberately an inherent constructor, not `FromIterator`: a summary is
    // a lossy reduction, so `collect()` would read misleadingly.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut online = OnlineStats::new();
        for x in iter {
            online.push(x);
        }
        online.summary()
    }

    /// Standard error of the mean (`std_dev / sqrt(count)`), or `0.0` for an
    /// empty or singleton sample.
    pub fn std_error(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.std_dev / (self.count as f64).sqrt()
        }
    }

    /// Coefficient of variation (`std_dev / mean`), or `0.0` when the mean is
    /// zero.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

impl Default for Summary {
    fn default() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            std_dev: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
}

/// Numerically stable online mean/variance accumulator (Welford's algorithm).
///
/// Useful when experiments stream per-execution measurements and we do not
/// want to keep every sample in memory.
///
/// ```
/// use wsync_stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples pushed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Current mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sample variance (denominator `n - 1`; `0.0` when `n < 2`).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count as f64 - 1.0)
        }
    }

    /// Population variance (denominator `n`; `0.0` when empty).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Converts the accumulated state to a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.sample_std_dev(),
            min: self.min,
            max: self.max,
            sum: self.sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::from_slice(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.sum, 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn singleton_summary() {
        let s = Summary::from_slice(&[42.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::from_slice(&xs);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // population variance 4.0 => sample variance 32/7
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.sum, 40.0);
    }

    #[test]
    fn online_merge_equals_batch() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        let batch = Summary::from_slice(&xs);
        let merged = a.summary();
        assert_eq!(merged.count, batch.count);
        assert!((merged.mean - batch.mean).abs() < 1e-9);
        assert!((merged.std_dev - batch.std_dev).abs() < 1e-9);
        assert!((merged.sum - batch.sum).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a.summary();
        a.merge(&OnlineStats::new());
        assert_eq!(a.summary(), before);

        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.summary(), before);
    }

    #[test]
    fn coefficient_of_variation() {
        let s = Summary::from_slice(&[1.0, 3.0]);
        assert!(s.coefficient_of_variation() > 0.0);
        let zero_mean = Summary::from_slice(&[-1.0, 1.0]);
        assert_eq!(zero_mean.coefficient_of_variation(), 0.0);
    }
}
