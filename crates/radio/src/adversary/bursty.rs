//! Bursty interference: quiet periods alternating with full-budget bursts.

use rand::seq::index::sample;

use super::{Adversary, DisruptionSet};
use crate::frequency::{Frequency, FrequencyBand};
use crate::history::History;
use crate::rng::SimRng;

/// Alternates between quiet phases (no disruption) and burst phases in which
/// `t` random frequencies are jammed each round. Models duty-cycled
/// interference such as microwave ovens or periodic beacon traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstyAdversary {
    t: u32,
    /// Length of one full cycle (burst + quiet), in rounds.
    period: u64,
    /// Number of rounds at the start of each cycle during which the
    /// adversary jams.
    burst_len: u64,
}

impl BurstyAdversary {
    /// Creates a bursty adversary jamming `t` random frequencies during the
    /// first `burst_len` rounds of every `period`-round cycle.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `burst_len > period`.
    pub fn new(t: u32, period: u64, burst_len: u64) -> Self {
        assert!(period > 0, "BurstyAdversary: period must be positive");
        assert!(
            burst_len <= period,
            "BurstyAdversary: burst_len must not exceed period"
        );
        BurstyAdversary {
            t,
            period,
            burst_len,
        }
    }

    /// Whether the adversary is in a burst phase at `round`.
    pub fn in_burst(&self, round: u64) -> bool {
        round % self.period < self.burst_len
    }
}

impl Adversary for BurstyAdversary {
    fn budget(&self) -> u32 {
        self.t
    }

    fn max_lookback(&self) -> Option<usize> {
        Some(0)
    }

    fn disrupt(
        &mut self,
        round: u64,
        band: FrequencyBand,
        _history: &History,
        rng: &mut SimRng,
    ) -> DisruptionSet {
        if !self.in_burst(round) {
            return DisruptionSet::empty(band.count());
        }
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
        "bursty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_and_quiet_phases() {
        let mut adv = BurstyAdversary::new(2, 10, 3);
        let band = FrequencyBand::new(8);
        let hist = History::new();
        let mut rng = SimRng::from_seed(4);
        for round in 0..30 {
            let set = adv.disrupt(round, band, &hist, &mut rng);
            if round % 10 < 3 {
                assert_eq!(set.len(), 2, "round {round} should be a burst");
            } else {
                assert!(set.is_empty(), "round {round} should be quiet");
            }
        }
    }

    #[test]
    fn in_burst_helper() {
        let adv = BurstyAdversary::new(1, 4, 1);
        assert!(adv.in_burst(0));
        assert!(!adv.in_burst(1));
        assert!(adv.in_burst(4));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        BurstyAdversary::new(1, 0, 0);
    }

    #[test]
    #[should_panic(expected = "burst_len must not exceed period")]
    fn burst_longer_than_period_panics() {
        BurstyAdversary::new(1, 2, 3);
    }

    #[test]
    fn always_on_when_burst_equals_period() {
        let mut adv = BurstyAdversary::new(1, 5, 5);
        let band = FrequencyBand::new(4);
        let hist = History::new();
        let mut rng = SimRng::from_seed(0);
        for round in 0..10 {
            assert_eq!(adv.disrupt(round, band, &hist, &mut rng).len(), 1);
        }
    }
}
