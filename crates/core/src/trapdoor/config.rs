//! Parameters of the Trapdoor Protocol (Section 6.1, Figure 1).
//!
//! A contender proceeds through `lg N` epochs. The first `lg N − 1` epochs
//! have length `Θ(F′/(F′−t)·log N)` and the final epoch has length
//! `Θ(F′²/(F′−t)·log N)`, where `F′ = min(F, 2t)`. In epoch `e` a contender
//! broadcasts with probability `2^e/(2N)` (so the final epoch broadcasts
//! with probability 1/2). The multiplicative constants hidden by the `Θ(·)`
//! are exposed here and swept by the ablation experiments.

use crate::params::{ceil_log2, effective_frequencies, next_power_of_two};
use crate::problem::ProblemInstance;

/// One row of the Figure 1 schedule: an epoch, its length, and the
/// per-round broadcast probability used during it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSpec {
    /// 1-based epoch number.
    pub epoch: u32,
    /// Length of the epoch in rounds.
    pub length: u64,
    /// Per-round broadcast probability during the epoch.
    pub broadcast_probability: f64,
}

/// Configuration of the Trapdoor Protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrapdoorConfig {
    /// The bound `N` on the number of participants (rounded up to a power of
    /// two, as the paper assumes).
    pub upper_bound_n: u64,
    /// Number of frequencies `F`.
    pub num_frequencies: u32,
    /// Disruption bound `t < F`.
    pub disruption_bound: u32,
    /// Optional override of `F′`; `None` uses the paper's
    /// `F′ = min(F, 2t)`. The single-frequency baseline sets this to 1.
    pub frequency_limit: Option<u32>,
    /// Constant in front of the regular epoch length
    /// `⌈c₁ · F′/(F′−t) · lg N⌉`.
    pub epoch_constant: f64,
    /// Constant in front of the final epoch length
    /// `⌈c₂ · F′²/(F′−t) · lg N⌉`.
    pub final_epoch_constant: f64,
    /// Probability with which an elected leader broadcasts its numbering
    /// scheme each round (the paper uses 1/2).
    pub leader_broadcast_probability: f64,
}

impl TrapdoorConfig {
    /// Creates a configuration with the default constants
    /// (`c₁ = 2`, `c₂ = 6`, leader broadcast probability 1/2).
    ///
    /// The final-epoch constant is larger because the agreement argument
    /// (Theorem 10) needs the eventual winner to knock every other surviving
    /// contender out *during that contender's final epoch*; the per-round
    /// knock-out probability hides a `≈ 1/4·(F′−t)/F′²` constant (both
    /// parties must pick the right roles and the same undisrupted
    /// frequency), so `c₂ = 6` keeps the empirical multi-leader rate at the
    /// `1/N` level the paper claims. The A1 ablation sweeps both constants.
    ///
    /// `upper_bound_n` is rounded up to a power of two.
    pub fn new(upper_bound_n: u64, num_frequencies: u32, disruption_bound: u32) -> Self {
        TrapdoorConfig {
            upper_bound_n: next_power_of_two(upper_bound_n),
            num_frequencies,
            disruption_bound,
            frequency_limit: None,
            epoch_constant: 2.0,
            final_epoch_constant: 6.0,
            leader_broadcast_probability: 0.5,
        }
    }

    /// Creates a configuration from a [`ProblemInstance`].
    pub fn from_instance(instance: ProblemInstance) -> Self {
        TrapdoorConfig::new(
            instance.upper_bound_n,
            instance.num_frequencies,
            instance.disruption_bound,
        )
    }

    /// Overrides the regular-epoch constant `c₁`.
    pub fn with_epoch_constant(mut self, c: f64) -> Self {
        self.epoch_constant = c.max(0.1);
        self
    }

    /// Overrides the final-epoch constant `c₂`.
    pub fn with_final_epoch_constant(mut self, c: f64) -> Self {
        self.final_epoch_constant = c.max(0.1);
        self
    }

    /// Restricts the protocol to the first `limit` frequencies instead of
    /// the paper's `F′ = min(F, 2t)`. Used by the single-frequency baseline
    /// and the `F′` ablation.
    pub fn with_frequency_limit(mut self, limit: u32) -> Self {
        self.frequency_limit = Some(limit.max(1));
        self
    }

    /// The number of frequencies the protocol actually uses:
    /// `F′ = min(F, 2t)` (clamped to at least 1), or the explicit override.
    pub fn f_prime(&self) -> u32 {
        match self.frequency_limit {
            Some(limit) => limit.min(self.num_frequencies).max(1),
            None => effective_frequencies(self.num_frequencies, self.disruption_bound),
        }
    }

    /// `lg N`, the number of epochs (at least 1).
    pub fn num_epochs(&self) -> u32 {
        ceil_log2(self.upper_bound_n).max(1)
    }

    /// `lg N` as a float, used in the length formulas.
    fn log_n(&self) -> f64 {
        f64::from(self.num_epochs())
    }

    /// `F′/(F′−t)` with the convention that the denominator is at least 1
    /// (when `F′ ≤ t`, which happens only in the degenerate `t = 0` case,
    /// the factor is `F′`).
    fn congestion(&self) -> f64 {
        let fp = self.f_prime();
        let denom = fp.saturating_sub(self.disruption_bound).max(1);
        f64::from(fp) / f64::from(denom)
    }

    /// Length (in rounds) of epoch `epoch` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is 0 or exceeds [`num_epochs`](Self::num_epochs).
    pub fn epoch_length(&self, epoch: u32) -> u64 {
        assert!(
            epoch >= 1 && epoch <= self.num_epochs(),
            "epoch {epoch} out of range 1..={}",
            self.num_epochs()
        );
        let base = if epoch == self.num_epochs() {
            self.final_epoch_constant * f64::from(self.f_prime()) * self.congestion() * self.log_n()
        } else {
            self.epoch_constant * self.congestion() * self.log_n()
        };
        (base.ceil() as u64).max(1)
    }

    /// Per-round broadcast probability in epoch `epoch` (1-based):
    /// `min(1/2, 2^epoch / (2N))`.
    pub fn broadcast_probability(&self, epoch: u32) -> f64 {
        let n = self.upper_bound_n as f64;
        (2f64.powi(epoch as i32) / (2.0 * n)).min(0.5)
    }

    /// Total number of rounds a contender spends before becoming a leader if
    /// it is never knocked out.
    pub fn total_contention_rounds(&self) -> u64 {
        (1..=self.num_epochs()).map(|e| self.epoch_length(e)).sum()
    }

    /// Locates local round `local_round` (0-based, counted from activation)
    /// within the epoch schedule. Returns `None` when the round lies past
    /// the final epoch (i.e. the contender has completed all epochs).
    pub fn epoch_at(&self, local_round: u64) -> Option<(u32, u64)> {
        let mut start = 0u64;
        for epoch in 1..=self.num_epochs() {
            let len = self.epoch_length(epoch);
            if local_round < start + len {
                return Some((epoch, local_round - start));
            }
            start += len;
        }
        None
    }

    /// The full epoch schedule — the reproduction of the paper's Figure 1.
    pub fn schedule(&self) -> Vec<EpochSpec> {
        (1..=self.num_epochs())
            .map(|epoch| EpochSpec {
                epoch,
                length: self.epoch_length(epoch),
                broadcast_probability: self.broadcast_probability(epoch),
            })
            .collect()
    }

    /// The asymptotic upper bound of Theorem 10,
    /// `F/(F−t)·log²N + F·t/(F−t)·log N`, evaluated without constants.
    /// Used by the experiments to compare measured times against the
    /// predicted shape.
    pub fn theorem10_bound(&self) -> f64 {
        let f = f64::from(self.num_frequencies);
        let t = f64::from(self.disruption_bound);
        let log_n = self.log_n();
        let denom = (f - t).max(1.0);
        f / denom * log_n * log_n + f * t / denom * log_n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn f_prime_follows_paper_definition() {
        assert_eq!(TrapdoorConfig::new(64, 16, 4).f_prime(), 8);
        assert_eq!(TrapdoorConfig::new(64, 16, 12).f_prime(), 16);
        assert_eq!(TrapdoorConfig::new(64, 16, 0).f_prime(), 1);
        assert_eq!(
            TrapdoorConfig::new(64, 16, 4)
                .with_frequency_limit(1)
                .f_prime(),
            1
        );
        assert_eq!(
            TrapdoorConfig::new(64, 4, 1)
                .with_frequency_limit(100)
                .f_prime(),
            4
        );
    }

    #[test]
    fn n_rounded_to_power_of_two() {
        assert_eq!(TrapdoorConfig::new(100, 8, 2).upper_bound_n, 128);
        assert_eq!(TrapdoorConfig::new(128, 8, 2).upper_bound_n, 128);
        assert_eq!(TrapdoorConfig::new(1, 8, 2).upper_bound_n, 2);
    }

    #[test]
    fn final_epoch_is_longer() {
        let c = TrapdoorConfig::new(256, 16, 6);
        let regular = c.epoch_length(1);
        let last = c.epoch_length(c.num_epochs());
        assert!(last > regular, "final epoch must be Θ(F′) times longer");
        // F' = 12 and c₂/c₁ = 3, so the final epoch should be roughly 3·F'
        // times the regular one.
        let ratio = last as f64 / regular as f64;
        assert!(ratio > 12.0 && ratio < 72.0, "ratio was {ratio}");
    }

    #[test]
    fn broadcast_probability_doubles_per_epoch_and_ends_at_half() {
        let c = TrapdoorConfig::new(256, 8, 2);
        let lg_n = c.num_epochs();
        assert_eq!(lg_n, 8);
        assert!((c.broadcast_probability(1) - 1.0 / 256.0).abs() < 1e-12);
        for e in 1..lg_n {
            let ratio = c.broadcast_probability(e + 1) / c.broadcast_probability(e);
            assert!((ratio - 2.0).abs() < 1e-9);
        }
        assert!((c.broadcast_probability(lg_n) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn epoch_at_partitions_all_rounds() {
        let c = TrapdoorConfig::new(64, 8, 3);
        let total = c.total_contention_rounds();
        let mut seen_epochs = std::collections::BTreeSet::new();
        let mut prev: Option<(u32, u64)> = None;
        for r in 0..total {
            let (e, within) = c.epoch_at(r).expect("round within the schedule");
            seen_epochs.insert(e);
            if let Some((pe, pw)) = prev {
                assert!(e == pe && within == pw + 1 || (e == pe + 1 && within == 0));
            }
            prev = Some((e, within));
        }
        assert_eq!(seen_epochs.len() as u32, c.num_epochs());
        assert!(c.epoch_at(total).is_none());
        assert!(c.epoch_at(total + 100).is_none());
    }

    #[test]
    fn schedule_matches_figure_one_shape() {
        let c = TrapdoorConfig::new(1024, 16, 4);
        let schedule = c.schedule();
        assert_eq!(schedule.len() as u32, c.num_epochs());
        // all but the last epoch share the same length
        let first_len = schedule[0].length;
        for spec in &schedule[..schedule.len() - 1] {
            assert_eq!(spec.length, first_len);
        }
        assert!(schedule.last().unwrap().length > first_len);
        // probabilities: 1/N, 2/N, …, 1/4, 1/2 (as fractions of 2N)
        assert!((schedule[0].broadcast_probability - 1.0 / 1024.0).abs() < 1e-12);
        assert!((schedule.last().unwrap().broadcast_probability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn theorem10_bound_is_positive_and_grows_with_t() {
        let low = TrapdoorConfig::new(256, 16, 1).theorem10_bound();
        let high = TrapdoorConfig::new(256, 16, 14).theorem10_bound();
        assert!(low > 0.0);
        assert!(high > low);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn epoch_zero_panics() {
        TrapdoorConfig::new(64, 8, 2).epoch_length(0);
    }

    proptest! {
        #[test]
        fn epoch_lengths_positive_and_total_consistent(
            n in 2u64..5000, f in 2u32..64, t in 0u32..63
        ) {
            prop_assume!(t < f);
            let c = TrapdoorConfig::new(n, f, t);
            let mut total = 0u64;
            for e in 1..=c.num_epochs() {
                let len = c.epoch_length(e);
                prop_assert!(len >= 1);
                total += len;
            }
            prop_assert_eq!(total, c.total_contention_rounds());
        }

        #[test]
        fn broadcast_probability_in_unit_interval(n in 2u64..5000, e in 1u32..13) {
            let c = TrapdoorConfig::new(n, 8, 2);
            prop_assume!(e <= c.num_epochs());
            let p = c.broadcast_probability(e);
            prop_assert!(p > 0.0 && p <= 0.5);
        }
    }
}
