//! The trivial adversary that never disrupts anything.

use super::{Adversary, DisruptionSet};
use crate::frequency::FrequencyBand;
use crate::history::History;
use crate::rng::SimRng;

/// An adversary that disrupts nothing. Models an interference-free band and
/// serves as the best-case baseline in experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoAdversary;

impl NoAdversary {
    /// Creates the no-op adversary.
    pub fn new() -> Self {
        NoAdversary
    }
}

impl Adversary for NoAdversary {
    fn budget(&self) -> u32 {
        0
    }

    fn max_lookback(&self) -> Option<usize> {
        Some(0)
    }

    fn disrupt(
        &mut self,
        _round: u64,
        band: FrequencyBand,
        _history: &History,
        _rng: &mut SimRng,
    ) -> DisruptionSet {
        DisruptionSet::empty(band.count())
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_disrupts() {
        let mut adv = NoAdversary::new();
        let band = FrequencyBand::new(8);
        let hist = History::new();
        let mut rng = SimRng::from_seed(0);
        for round in 0..20 {
            let set = adv.disrupt(round, band, &hist, &mut rng);
            assert!(set.is_empty());
        }
        assert_eq!(adv.budget(), 0);
        assert_eq!(adv.name(), "none");
    }
}
