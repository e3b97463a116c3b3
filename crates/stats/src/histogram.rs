//! Simple fixed-width and logarithmic histograms for experiment output.

/// One bin of a [`Histogram`]: the half-open range `[lower, upper)` and the
/// number of samples that fell into it. The final bin is closed on the right.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramBin {
    /// Inclusive lower edge.
    pub lower: f64,
    /// Exclusive upper edge (inclusive for the last bin).
    pub upper: f64,
    /// Number of samples in the bin.
    pub count: usize,
}

/// A histogram over `f64` samples with either linear or logarithmic bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bins: Vec<HistogramBin>,
    total: usize,
    out_of_range: usize,
}

impl Histogram {
    /// Builds a histogram with `num_bins` equal-width bins spanning
    /// `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `num_bins == 0` or `max <= min`.
    pub fn linear(min: f64, max: f64, num_bins: usize) -> Self {
        assert!(num_bins > 0, "Histogram::linear: num_bins must be positive");
        assert!(max > min, "Histogram::linear: max must exceed min");
        let width = (max - min) / num_bins as f64;
        let bins = (0..num_bins)
            .map(|i| HistogramBin {
                lower: min + i as f64 * width,
                upper: min + (i + 1) as f64 * width,
                count: 0,
            })
            .collect();
        Histogram {
            bins,
            total: 0,
            out_of_range: 0,
        }
    }

    /// Builds a histogram whose bin edges are powers of two starting at
    /// `1.0`: `[1,2), [2,4), …` with `num_bins` bins. Useful for round-count
    /// distributions.
    ///
    /// # Panics
    ///
    /// Panics if `num_bins == 0`.
    pub fn powers_of_two(num_bins: usize) -> Self {
        assert!(
            num_bins > 0,
            "Histogram::powers_of_two: num_bins must be positive"
        );
        let bins = (0..num_bins)
            .map(|i| HistogramBin {
                lower: (1u64 << i) as f64,
                upper: (1u64 << (i + 1)) as f64,
                count: 0,
            })
            .collect();
        Histogram {
            bins,
            total: 0,
            out_of_range: 0,
        }
    }

    /// Builds a linear histogram spanning the sample range and fills it.
    /// Falls back to a single degenerate bin when all samples are equal.
    pub fn from_samples(samples: &[f64], num_bins: usize) -> Self {
        let mn = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let mx = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut hist = if samples.is_empty() || mx <= mn {
            Histogram::linear(
                if mn.is_finite() { mn } else { 0.0 },
                if mn.is_finite() { mn + 1.0 } else { 1.0 },
                num_bins.max(1),
            )
        } else {
            Histogram::linear(mn, mx + (mx - mn) * 1e-9, num_bins)
        };
        for &x in samples {
            hist.add(x);
        }
        hist
    }

    /// Adds one sample. Samples outside the bin range are counted in
    /// [`Histogram::out_of_range`].
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        let last = self.bins.len() - 1;
        for (i, bin) in self.bins.iter_mut().enumerate() {
            let hit = if i == last {
                x >= bin.lower && x <= bin.upper
            } else {
                x >= bin.lower && x < bin.upper
            };
            if hit {
                bin.count += 1;
                return;
            }
        }
        self.out_of_range += 1;
    }

    /// The bins in ascending order.
    pub fn bins(&self) -> &[HistogramBin] {
        &self.bins
    }

    /// Total number of samples added (including out-of-range samples).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of samples that did not fall in any bin.
    pub fn out_of_range(&self) -> usize {
        self.out_of_range
    }

    /// Renders an ASCII bar chart, one line per bin, with bars scaled to
    /// `max_width` characters.
    pub fn render_ascii(&self, max_width: usize) -> String {
        let max_count = self.bins.iter().map(|b| b.count).max().unwrap_or(0);
        let mut out = String::new();
        for bin in &self.bins {
            let bar_len = if max_count == 0 {
                0
            } else {
                (bin.count * max_width).div_euclid(max_count)
            };
            out.push_str(&format!(
                "[{:>10.2}, {:>10.2}) {:>7} |{}\n",
                bin.lower,
                bin.upper,
                bin.count,
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_bins_cover_range() {
        let h = Histogram::linear(0.0, 10.0, 5);
        assert_eq!(h.bins().len(), 5);
        assert_eq!(h.bins()[0].lower, 0.0);
        assert_eq!(h.bins()[4].upper, 10.0);
    }

    #[test]
    fn add_places_samples_in_correct_bins() {
        let mut h = Histogram::linear(0.0, 10.0, 5);
        h.add(0.0);
        h.add(1.9);
        h.add(2.0);
        h.add(9.999);
        h.add(10.0); // last bin is right-closed
        assert_eq!(h.bins()[0].count, 2);
        assert_eq!(h.bins()[1].count, 1);
        assert_eq!(h.bins()[4].count, 2);
        assert_eq!(h.total(), 5);
        assert_eq!(h.out_of_range(), 0);
    }

    #[test]
    fn out_of_range_counted() {
        let mut h = Histogram::linear(0.0, 1.0, 2);
        h.add(-0.5);
        h.add(2.0);
        assert_eq!(h.out_of_range(), 2);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn powers_of_two_bins() {
        let mut h = Histogram::powers_of_two(4);
        h.add(1.0);
        h.add(3.0);
        h.add(7.9);
        h.add(15.0);
        assert_eq!(h.bins()[0].count, 1);
        assert_eq!(h.bins()[1].count, 1);
        assert_eq!(h.bins()[2].count, 1);
        assert_eq!(h.bins()[3].count, 1);
    }

    #[test]
    fn from_samples_handles_constant_and_empty() {
        let h = Histogram::from_samples(&[5.0, 5.0, 5.0], 4);
        assert_eq!(h.total(), 3);
        assert_eq!(h.out_of_range(), 0);
        let e = Histogram::from_samples(&[], 4);
        assert_eq!(e.total(), 0);
    }

    #[test]
    fn ascii_render_contains_counts() {
        let mut h = Histogram::linear(0.0, 2.0, 2);
        h.add(0.5);
        h.add(1.5);
        h.add(1.6);
        let s = h.render_ascii(10);
        assert!(s.contains('#'));
        assert_eq!(s.lines().count(), 2);
    }

    proptest! {
        #[test]
        fn total_equals_bin_sum_plus_out_of_range(
            xs in proptest::collection::vec(-20.0f64..20.0, 0..200)
        ) {
            let mut h = Histogram::linear(-10.0, 10.0, 8);
            for &x in &xs {
                h.add(x);
            }
            let in_bins: usize = h.bins().iter().map(|b| b.count).sum();
            prop_assert_eq!(in_bins + h.out_of_range(), h.total());
            prop_assert_eq!(h.total(), xs.len());
        }
    }
}
