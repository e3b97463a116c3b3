//! Oblivious adversaries: a fixed (possibly randomly pre-generated) schedule
//! of disruption sets.
//!
//! The Good Samaritan analysis (Section 7) models the adversary as
//! *oblivious*: "it can be described as a fixed sequence of probability
//! distributions over sets of frequencies to disrupt." A deterministic
//! schedule fixed before the execution starts is the canonical realization
//! of an oblivious adversary; [`ObliviousScheduleAdversary::random`]
//! pre-samples such a schedule from a seed.

use rand::seq::index::sample;
use rand::Rng;

use super::{Adversary, DisruptionSet};
use crate::frequency::{Frequency, FrequencyBand};
use crate::history::History;
use crate::rng::SimRng;

/// An adversary that replays a fixed schedule of disruption sets.
///
/// Round `r` uses entry `r mod schedule.len()`; an empty schedule disrupts
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObliviousScheduleAdversary {
    /// Per-round sets of 1-based frequency indices to disrupt.
    schedule: Vec<Vec<u32>>,
    budget: u32,
}

impl ObliviousScheduleAdversary {
    /// Creates an adversary from an explicit schedule of frequency-index
    /// sets (1-based). The budget reported is the largest set size.
    pub fn from_schedule(schedule: Vec<Vec<u32>>) -> Self {
        let budget = schedule.iter().map(|s| s.len() as u32).max().unwrap_or(0);
        ObliviousScheduleAdversary { schedule, budget }
    }

    /// Pre-samples a `length`-round schedule in which every round disrupts
    /// `t_actual` frequencies chosen uniformly at random, using `seed`.
    ///
    /// This is the canonical "oblivious adversary with actual disruption
    /// level `t' = t_actual`" used by the Good Samaritan experiments.
    pub fn random(seed: u64, length: usize, num_frequencies: u32, t_actual: u32) -> Self {
        let mut rng = SimRng::from_seed(seed);
        let k = (t_actual as usize).min(num_frequencies as usize);
        let schedule = (0..length)
            .map(|_| {
                if k == 0 {
                    Vec::new()
                } else {
                    sample(&mut rng, num_frequencies as usize, k)
                        .into_iter()
                        .map(|i| i as u32 + 1)
                        .collect()
                }
            })
            .collect();
        ObliviousScheduleAdversary {
            schedule,
            budget: t_actual,
        }
    }

    /// Pre-samples a schedule in which each round independently jams a
    /// contiguous low-band window of random width in `[0, t_actual]` —
    /// a "variable-intensity" oblivious interferer.
    pub fn random_variable_intensity(
        seed: u64,
        length: usize,
        num_frequencies: u32,
        t_actual: u32,
    ) -> Self {
        let mut rng = SimRng::from_seed(seed);
        let schedule = (0..length)
            .map(|_| {
                let width = rng.gen_range(0..=t_actual.min(num_frequencies));
                (1..=width).collect()
            })
            .collect();
        ObliviousScheduleAdversary {
            schedule,
            budget: t_actual,
        }
    }

    /// Length of the schedule (after which it repeats).
    pub fn schedule_len(&self) -> usize {
        self.schedule.len()
    }
}

impl Adversary for ObliviousScheduleAdversary {
    fn budget(&self) -> u32 {
        self.budget
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
        if self.schedule.is_empty() {
            return DisruptionSet::empty(band.count());
        }
        let idx = (round % self.schedule.len() as u64) as usize;
        DisruptionSet::from_frequencies(
            band.count(),
            self.schedule[idx]
                .iter()
                .filter(|&&f| f >= 1)
                .map(|&f| Frequency::new(f)),
        )
    }

    fn name(&self) -> &'static str {
        "oblivious-schedule"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_explicit_schedule_cyclically() {
        let mut adv =
            ObliviousScheduleAdversary::from_schedule(vec![vec![1, 2], vec![3], Vec::new()]);
        assert_eq!(adv.budget(), 2);
        assert_eq!(adv.schedule_len(), 3);
        let band = FrequencyBand::new(4);
        let hist = History::new();
        let mut rng = SimRng::from_seed(0);
        let r0 = adv.disrupt(0, band, &hist, &mut rng);
        assert!(r0.contains(Frequency::new(1)) && r0.contains(Frequency::new(2)));
        let r1 = adv.disrupt(1, band, &hist, &mut rng);
        assert_eq!(r1.len(), 1);
        assert!(adv.disrupt(2, band, &hist, &mut rng).is_empty());
        // wraps around
        assert_eq!(adv.disrupt(3, band, &hist, &mut rng), r0);
    }

    #[test]
    fn empty_schedule_is_harmless() {
        let mut adv = ObliviousScheduleAdversary::from_schedule(Vec::new());
        let band = FrequencyBand::new(4);
        assert!(adv
            .disrupt(0, band, &History::new(), &mut SimRng::from_seed(0))
            .is_empty());
        assert_eq!(adv.budget(), 0);
    }

    #[test]
    fn random_schedule_has_exact_intensity() {
        let mut adv = ObliviousScheduleAdversary::random(9, 64, 16, 5);
        let band = FrequencyBand::new(16);
        let hist = History::new();
        let mut rng = SimRng::from_seed(0);
        for round in 0..64 {
            assert_eq!(adv.disrupt(round, band, &hist, &mut rng).len(), 5);
        }
    }

    #[test]
    fn random_schedule_is_reproducible() {
        let a = ObliviousScheduleAdversary::random(3, 32, 8, 2);
        let b = ObliviousScheduleAdversary::random(3, 32, 8, 2);
        assert_eq!(a, b);
        let c = ObliviousScheduleAdversary::random(4, 32, 8, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn variable_intensity_never_exceeds_budget() {
        let mut adv = ObliviousScheduleAdversary::random_variable_intensity(1, 50, 12, 6);
        let band = FrequencyBand::new(12);
        let hist = History::new();
        let mut rng = SimRng::from_seed(0);
        for round in 0..50 {
            assert!(adv.disrupt(round, band, &hist, &mut rng).len() <= 6);
        }
    }
}
