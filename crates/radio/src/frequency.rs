//! Narrowband communication frequencies.
//!
//! The paper models the shared band (e.g. the 2.4 GHz ISM band) as `F`
//! disjoint narrowband frequencies, indexed `1..=F` (the paper's protocols
//! talk about frequency ranges such as `[1..F']` or `[1..2^k]`, so a 1-based
//! index keeps the code close to the text).

use rand::Rng;
use std::fmt;

use crate::rng::SimRng;

/// A single narrowband frequency, identified by a 1-based index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency(u32);

impl Frequency {
    /// Creates a frequency with the given 1-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index == 0`; frequency indices are 1-based as in the paper.
    pub fn new(index: u32) -> Self {
        assert!(index >= 1, "Frequency indices are 1-based");
        Frequency(index)
    }

    /// The 1-based index of this frequency.
    pub fn index(self) -> u32 {
        self.0
    }

    /// The 0-based index, convenient for array indexing.
    pub fn as_zero_based(self) -> usize {
        (self.0 - 1) as usize
    }

    /// Builds a frequency from a 0-based index.
    pub fn from_zero_based(index: usize) -> Self {
        Frequency::new(index as u32 + 1)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// The set of frequencies `1..=count` available in the network.
///
/// Provides uniform sampling over the whole band or over a prefix
/// `[1..=limit]` — the paper's protocols repeatedly sample uniformly from
/// prefixes such as `[1..F']`, `[1..2^k]`, or `[1..2^d]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrequencyBand {
    count: u32,
}

impl FrequencyBand {
    /// Creates a band with `count ≥ 1` frequencies.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn new(count: u32) -> Self {
        assert!(count >= 1, "a frequency band needs at least one frequency");
        FrequencyBand { count }
    }

    /// Number of frequencies in the band (the paper's `F`).
    pub fn count(self) -> u32 {
        self.count
    }

    /// Returns `true` if `f` belongs to this band.
    pub fn contains(self, f: Frequency) -> bool {
        f.index() <= self.count
    }

    /// Iterates over all frequencies `1..=F` in increasing order.
    pub fn iter(self) -> impl Iterator<Item = Frequency> {
        (1..=self.count).map(Frequency::new)
    }

    /// Samples a frequency uniformly at random from the whole band.
    pub fn sample_uniform(self, rng: &mut SimRng) -> Frequency {
        Frequency::new(rng.gen_range(1..=self.count))
    }

    /// Samples a frequency uniformly at random from the prefix
    /// `[1..=limit]`, where `limit` is clamped to `[1, F]`.
    pub fn sample_prefix(self, limit: u32, rng: &mut SimRng) -> Frequency {
        let limit = limit.clamp(1, self.count);
        Frequency::new(rng.gen_range(1..=limit))
    }

    /// Samples a frequency uniformly at random from the inclusive range
    /// `[lo, hi]` (clamped to the band, and `lo ≤ hi` enforced by swapping).
    pub fn sample_range(self, lo: u32, hi: u32, rng: &mut SimRng) -> Frequency {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let lo = lo.clamp(1, self.count);
        let hi = hi.clamp(1, self.count);
        Frequency::new(rng.gen_range(lo..=hi))
    }
}

impl IntoIterator for FrequencyBand {
    type Item = Frequency;
    type IntoIter = Box<dyn Iterator<Item = Frequency>>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frequency_roundtrip_indices() {
        let f = Frequency::new(3);
        assert_eq!(f.index(), 3);
        assert_eq!(f.as_zero_based(), 2);
        assert_eq!(Frequency::from_zero_based(2), f);
        assert_eq!(format!("{f}"), "f3");
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_index_panics() {
        Frequency::new(0);
    }

    #[test]
    fn band_iteration_and_contains() {
        let band = FrequencyBand::new(4);
        let all: Vec<u32> = band.iter().map(Frequency::index).collect();
        assert_eq!(all, vec![1, 2, 3, 4]);
        assert!(band.contains(Frequency::new(4)));
        assert!(!band.contains(Frequency::new(5)));
        assert_eq!(band.count(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one frequency")]
    fn empty_band_panics() {
        FrequencyBand::new(0);
    }

    #[test]
    fn sampling_stays_in_band() {
        let band = FrequencyBand::new(8);
        let mut rng = SimRng::from_seed(7);
        for _ in 0..1000 {
            assert!(band.contains(band.sample_uniform(&mut rng)));
            let f = band.sample_prefix(3, &mut rng);
            assert!(f.index() <= 3);
            let g = band.sample_range(5, 7, &mut rng);
            assert!(g.index() >= 5 && g.index() <= 7);
        }
    }

    #[test]
    fn sample_prefix_clamps() {
        let band = FrequencyBand::new(4);
        let mut rng = SimRng::from_seed(1);
        // limit larger than the band size is clamped to the band size
        for _ in 0..100 {
            assert!(band.sample_prefix(100, &mut rng).index() <= 4);
        }
        // limit 0 is clamped up to 1
        assert_eq!(band.sample_prefix(0, &mut rng).index(), 1);
    }

    #[test]
    fn sample_range_swaps_bounds() {
        let band = FrequencyBand::new(10);
        let mut rng = SimRng::from_seed(2);
        for _ in 0..100 {
            let f = band.sample_range(7, 3, &mut rng);
            assert!(f.index() >= 3 && f.index() <= 7);
        }
    }

    #[test]
    fn uniform_sampling_covers_all_frequencies() {
        let band = FrequencyBand::new(5);
        let mut rng = SimRng::from_seed(99);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[band.sample_uniform(&mut rng).as_zero_based()] = true;
        }
        assert!(seen.iter().all(|&s| s), "all frequencies should be sampled");
    }

    proptest! {
        #[test]
        fn prefix_sampling_respects_limit(count in 1u32..64, limit in 0u32..100, seed in 0u64..1000) {
            let band = FrequencyBand::new(count);
            let mut rng = SimRng::from_seed(seed);
            let f = band.sample_prefix(limit, &mut rng);
            prop_assert!(f.index() >= 1);
            prop_assert!(f.index() <= limit.clamp(1, count));
        }
    }
}
