//! A swept-frequency jammer.

use super::{Adversary, DisruptionSet};
use crate::frequency::{Frequency, FrequencyBand};
use crate::history::History;
use crate::rng::SimRng;

/// Disrupts a contiguous window of `t` frequencies that slides across the
/// band, wrapping around at the end. Models a swept-frequency jammer or a
/// frequency-hopping interferer with a predictable pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepAdversary {
    t: u32,
    /// How many frequencies the window advances per round.
    step: u32,
    /// How many rounds the window stays in place before advancing.
    dwell: u32,
}

impl SweepAdversary {
    /// Creates a sweeping adversary with window size `t` that advances by
    /// one frequency per round.
    pub fn new(t: u32) -> Self {
        SweepAdversary {
            t,
            step: 1,
            dwell: 1,
        }
    }

    /// Sets how many frequencies the window advances each time it moves.
    pub fn with_step(mut self, step: u32) -> Self {
        self.step = step.max(1);
        self
    }

    /// Sets how many rounds the window dwells before advancing.
    pub fn with_dwell(mut self, dwell: u32) -> Self {
        self.dwell = dwell.max(1);
        self
    }
}

impl Adversary for SweepAdversary {
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
        _rng: &mut SimRng,
    ) -> DisruptionSet {
        let f = band.count();
        let k = self.t.min(f);
        if k == 0 {
            return DisruptionSet::empty(f);
        }
        let advances = round / u64::from(self.dwell);
        let start = ((advances * u64::from(self.step)) % u64::from(f)) as u32;
        DisruptionSet::from_frequencies(
            f,
            (0..k).map(|i| Frequency::from_zero_based(((start + i) % f) as usize)),
        )
    }

    fn name(&self) -> &'static str {
        "sweep"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freqs(set: &DisruptionSet) -> Vec<u32> {
        set.iter().map(Frequency::index).collect()
    }

    #[test]
    fn window_slides_one_per_round() {
        let mut adv = SweepAdversary::new(2);
        let band = FrequencyBand::new(5);
        let hist = History::new();
        let mut rng = SimRng::from_seed(0);
        assert_eq!(freqs(&adv.disrupt(0, band, &hist, &mut rng)), vec![1, 2]);
        assert_eq!(freqs(&adv.disrupt(1, band, &hist, &mut rng)), vec![2, 3]);
        assert_eq!(freqs(&adv.disrupt(4, band, &hist, &mut rng)), vec![1, 5]); // wraps
    }

    #[test]
    fn dwell_keeps_window_static() {
        let mut adv = SweepAdversary::new(1).with_dwell(3);
        let band = FrequencyBand::new(4);
        let hist = History::new();
        let mut rng = SimRng::from_seed(0);
        assert_eq!(freqs(&adv.disrupt(0, band, &hist, &mut rng)), vec![1]);
        assert_eq!(freqs(&adv.disrupt(2, band, &hist, &mut rng)), vec![1]);
        assert_eq!(freqs(&adv.disrupt(3, band, &hist, &mut rng)), vec![2]);
    }

    #[test]
    fn step_advances_faster() {
        let mut adv = SweepAdversary::new(1).with_step(2);
        let band = FrequencyBand::new(8);
        let hist = History::new();
        let mut rng = SimRng::from_seed(0);
        assert_eq!(freqs(&adv.disrupt(0, band, &hist, &mut rng)), vec![1]);
        assert_eq!(freqs(&adv.disrupt(1, band, &hist, &mut rng)), vec![3]);
        assert_eq!(freqs(&adv.disrupt(2, band, &hist, &mut rng)), vec![5]);
    }

    #[test]
    fn budget_respected_and_clamped() {
        let mut adv = SweepAdversary::new(10);
        let band = FrequencyBand::new(4);
        let set = adv.disrupt(0, band, &History::new(), &mut SimRng::from_seed(0));
        assert_eq!(set.len(), 4);
        assert_eq!(adv.budget(), 10);
    }
}
