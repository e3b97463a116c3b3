//! The adversary that jams a fresh uniformly random set of frequencies each
//! round.

use rand::seq::index::sample;

use super::{Adversary, DisruptionSet};
use crate::frequency::{Frequency, FrequencyBand};
use crate::history::History;
use crate::rng::SimRng;

/// Disrupts `t` frequencies chosen uniformly at random (without replacement)
/// in every round. Models wideband unpredictable noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomAdversary {
    t: u32,
}

impl RandomAdversary {
    /// Creates an adversary disrupting `t` random frequencies per round.
    pub fn new(t: u32) -> Self {
        RandomAdversary { t }
    }
}

impl Adversary for RandomAdversary {
    fn budget(&self) -> u32 {
        self.t
    }

    fn max_lookback(&self) -> Option<usize> {
        Some(0)
    }

    fn disrupt(
        &mut self,
        _round: u64,
        band: FrequencyBand,
        _history: &History,
        rng: &mut SimRng,
    ) -> DisruptionSet {
        let f = band.count() as usize;
        let k = (self.t as usize).min(f);
        if k == 0 {
            return DisruptionSet::empty(band.count());
        }
        let picks = sample(rng, f, k);
        DisruptionSet::from_frequencies(
            band.count(),
            picks.into_iter().map(Frequency::from_zero_based),
        )
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_exactly_t_distinct_frequencies() {
        let mut adv = RandomAdversary::new(3);
        let band = FrequencyBand::new(10);
        let hist = History::new();
        let mut rng = SimRng::from_seed(11);
        for round in 0..50 {
            let set = adv.disrupt(round, band, &hist, &mut rng);
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn t_zero_and_t_exceeding_band() {
        let band = FrequencyBand::new(4);
        let hist = History::new();
        let mut rng = SimRng::from_seed(1);
        assert!(RandomAdversary::new(0)
            .disrupt(0, band, &hist, &mut rng)
            .is_empty());
        assert_eq!(
            RandomAdversary::new(10)
                .disrupt(0, band, &hist, &mut rng)
                .len(),
            4
        );
    }

    #[test]
    fn varies_between_rounds() {
        let mut adv = RandomAdversary::new(2);
        let band = FrequencyBand::new(16);
        let hist = History::new();
        let mut rng = SimRng::from_seed(5);
        let sets: Vec<DisruptionSet> = (0..20)
            .map(|r| adv.disrupt(r, band, &hist, &mut rng))
            .collect();
        let all_same = sets.iter().all(|s| *s == sets[0]);
        assert!(!all_same, "random adversary should vary its targets");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let band = FrequencyBand::new(8);
        let hist = History::new();
        let run = |seed: u64| -> Vec<Vec<u32>> {
            let mut adv = RandomAdversary::new(3);
            let mut rng = SimRng::from_seed(seed);
            (0..10)
                .map(|r| {
                    adv.disrupt(r, band, &hist, &mut rng)
                        .iter()
                        .map(Frequency::index)
                        .collect()
                })
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
