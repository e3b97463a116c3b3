//! Parameters of the Good Samaritan Protocol (Section 7.1, Figure 2).
//!
//! A node proceeds through `lg F` *super-epochs*; super-epoch `k` consists
//! of `lg N + 2` epochs, each of `s(k)` rounds. In epoch `e ≤ lg N` a node
//! broadcasts with probability `2^e/(2N)`; in the last two epochs it
//! broadcasts with probability 1/2. During the last two epochs half of the
//! rounds are *special*: the node picks `d` uniformly from `[1..lg F]` and a
//! frequency uniformly from `[1..2^d]` (Figure 2's log-weighted
//! distribution). After the last super-epoch the node falls back to a
//! modified Trapdoor Protocol whose epochs are at least four times as long
//! as the longest Good Samaritan epoch.
//!
//! ## Epoch-length interpretation
//!
//! The paper's prose states `s(k) = Θ(2^k·log³N)` per epoch, but its own
//! analysis only requires `s(k) = Ω(2^k·log²N)` (Lemma 11/12 discussion) and
//! the stated bounds of Theorem 18 — `O(t′·log³N)` optimistic and
//! `O(F·log³N)` overall — only come out if an *epoch* is `Θ(2^k·log²N)`
//! (so a super-epoch, having `lg N + 2` epochs, is `Θ(2^k·log³N)`). We use
//! `s(k) = ⌈c·2^k·lg²N⌉` and a fallback epoch of `⌈4c·F·lg²N⌉`, which makes
//! the super-epoch and the total match the paper's stated bounds. See
//! DESIGN.md §5 for the full discussion.

use crate::params::{ceil_log2, effective_frequencies, next_power_of_two};
use crate::problem::ProblemInstance;

/// Where a local round falls within the Good Samaritan schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Within super-epoch `super_epoch` (1-based), epoch `epoch` (1-based,
    /// up to `lg N + 2`), at round `round_in_epoch` within the epoch.
    Optimistic {
        /// 1-based super-epoch number `k ∈ [1, lg F]`.
        super_epoch: u32,
        /// 1-based epoch number within the super-epoch, `∈ [1, lg N + 2]`.
        epoch: u32,
        /// 0-based round within the epoch.
        round_in_epoch: u64,
    },
    /// Within the fallback modified Trapdoor Protocol.
    Fallback {
        /// 1-based fallback epoch number, `∈ [1, lg N]`.
        epoch: u32,
        /// 0-based round within the fallback epoch.
        round_in_epoch: u64,
    },
    /// Past the end of the fallback schedule (a node reaching this point
    /// uninterrupted has already become leader).
    Exhausted,
}

/// Configuration of the Good Samaritan Protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodSamaritanConfig {
    /// Bound `N` on the number of participants (rounded up to a power of
    /// two).
    pub upper_bound_n: u64,
    /// Number of frequencies `F`.
    pub num_frequencies: u32,
    /// Disruption bound `t < F`. The paper's optimistic analysis assumes
    /// `t ≤ F/2`.
    pub disruption_bound: u32,
    /// Constant `c` in the epoch length `s(k) = ⌈c·2^k·lg²N⌉`.
    pub epoch_constant: f64,
    /// The leader-election threshold is `s(k)/2^{k+threshold_shift}`
    /// successful rounds (the paper uses shift 6).
    pub threshold_shift: u32,
    /// The fallback epoch length is `⌈fallback_multiplier·c·F·lg²N⌉`
    /// (the paper requires at least 4).
    pub fallback_multiplier: f64,
    /// Probability with which an elected leader broadcasts its numbering
    /// each round (the paper uses 1/2).
    pub leader_broadcast_probability: f64,
}

impl GoodSamaritanConfig {
    /// Creates a configuration with the default constants (`c = 6`,
    /// threshold shift 6, fallback multiplier 4, leader broadcast 1/2).
    pub fn new(upper_bound_n: u64, num_frequencies: u32, disruption_bound: u32) -> Self {
        GoodSamaritanConfig {
            upper_bound_n: next_power_of_two(upper_bound_n),
            num_frequencies,
            disruption_bound,
            epoch_constant: 6.0,
            threshold_shift: 6,
            fallback_multiplier: 4.0,
            leader_broadcast_probability: 0.5,
        }
    }

    /// Creates a configuration from a [`ProblemInstance`].
    pub fn from_instance(instance: ProblemInstance) -> Self {
        GoodSamaritanConfig::new(
            instance.upper_bound_n,
            instance.num_frequencies,
            instance.disruption_bound,
        )
    }

    /// Overrides the epoch-length constant `c`.
    pub fn with_epoch_constant(mut self, c: f64) -> Self {
        self.epoch_constant = c.max(0.5);
        self
    }

    /// Overrides the threshold shift.
    pub fn with_threshold_shift(mut self, shift: u32) -> Self {
        self.threshold_shift = shift;
        self
    }

    /// Overrides the fallback epoch-length multiplier.
    pub fn with_fallback_multiplier(mut self, m: f64) -> Self {
        self.fallback_multiplier = m.max(1.0);
        self
    }

    /// `lg N` (at least 1).
    pub fn lg_n(&self) -> u32 {
        ceil_log2(self.upper_bound_n).max(1)
    }

    /// `lg F`: the number of super-epochs (0 when `F = 1`, in which case the
    /// protocol goes straight to the fallback).
    pub fn lg_f(&self) -> u32 {
        ceil_log2(u64::from(self.num_frequencies))
    }

    /// Number of epochs per super-epoch, `lg N + 2`.
    pub fn epochs_per_super_epoch(&self) -> u32 {
        self.lg_n() + 2
    }

    /// `F′ = min(F, 2t)` (clamped to at least 1), used by the fallback
    /// Trapdoor rounds.
    pub fn f_prime(&self) -> u32 {
        effective_frequencies(self.num_frequencies, self.disruption_bound)
    }

    /// Epoch length `s(k) = ⌈c·2^k·lg²N⌉` in super-epoch `k` (1-based).
    pub fn epoch_length(&self, super_epoch: u32) -> u64 {
        let lg_n = f64::from(self.lg_n());
        let len = self.epoch_constant * 2f64.powi(super_epoch as i32) * lg_n * lg_n;
        (len.ceil() as u64).max(1)
    }

    /// Length of super-epoch `k`: `(lg N + 2) · s(k)` rounds.
    pub fn super_epoch_length(&self, super_epoch: u32) -> u64 {
        u64::from(self.epochs_per_super_epoch()) * self.epoch_length(super_epoch)
    }

    /// Total length of the optimistic portion (all `lg F` super-epochs).
    pub fn optimistic_total(&self) -> u64 {
        (1..=self.lg_f()).map(|k| self.super_epoch_length(k)).sum()
    }

    /// Per-round broadcast probability in epoch `e` (1-based): `2^e/(2N)`
    /// for `e ≤ lg N`, and 1/2 in the final two epochs.
    pub fn broadcast_probability(&self, epoch: u32) -> f64 {
        if epoch > self.lg_n() {
            0.5
        } else {
            (2f64.powi(epoch as i32) / (2.0 * self.upper_bound_n as f64)).min(0.5)
        }
    }

    /// Number of recorded successes in epoch `lg N + 1` of super-epoch `k`
    /// that a contender must be told about to become leader:
    /// `max(1, ⌊s(k)/2^{k+shift}⌋)`.
    pub fn success_threshold(&self, super_epoch: u32) -> u64 {
        let denom = 2f64.powi((super_epoch + self.threshold_shift) as i32);
        ((self.epoch_length(super_epoch) as f64 / denom).floor() as u64).max(1)
    }

    /// Length of one fallback (modified Trapdoor) epoch:
    /// `⌈fallback_multiplier·c·F·lg²N⌉`.
    pub fn fallback_epoch_length(&self) -> u64 {
        let lg_n = f64::from(self.lg_n());
        let len = self.fallback_multiplier
            * self.epoch_constant
            * f64::from(self.num_frequencies)
            * lg_n
            * lg_n;
        (len.ceil() as u64).max(1)
    }

    /// Number of fallback epochs (`lg N`).
    pub fn fallback_epochs(&self) -> u32 {
        self.lg_n()
    }

    /// Total length of the fallback portion.
    pub fn fallback_total(&self) -> u64 {
        u64::from(self.fallback_epochs()) * self.fallback_epoch_length()
    }

    /// Locates a local round (0-based, from activation) in the schedule.
    pub fn phase_at(&self, local_round: u64) -> Phase {
        let mut start = 0u64;
        for k in 1..=self.lg_f() {
            let se_len = self.super_epoch_length(k);
            if local_round < start + se_len {
                let within = local_round - start;
                let epoch_len = self.epoch_length(k);
                let epoch = (within / epoch_len) as u32 + 1;
                let round_in_epoch = within % epoch_len;
                return Phase::Optimistic {
                    super_epoch: k,
                    epoch,
                    round_in_epoch,
                };
            }
            start += se_len;
        }
        let fallback_round = local_round - start;
        let fb_len = self.fallback_epoch_length();
        let epoch = (fallback_round / fb_len) as u32 + 1;
        if epoch > self.fallback_epochs() {
            return Phase::Exhausted;
        }
        Phase::Fallback {
            epoch,
            round_in_epoch: fallback_round % fb_len,
        }
    }

    /// Round (local, 0-based) at which the optimistic portion ends and the
    /// fallback begins.
    pub fn fallback_start(&self) -> u64 {
        self.optimistic_total()
    }

    /// The per-frequency selection distribution of a *regular* round of
    /// epoch `e ≤ lg N` in super-epoch `k` (Figure 2, left column):
    /// `P[f] = 1/2^{k+1} + 1/(2F)` for `f ≤ 2^k` and `1/(2F)` otherwise.
    /// Returned as a vector indexed by 0-based frequency.
    pub fn regular_frequency_distribution(&self, super_epoch: u32) -> Vec<f64> {
        let f = self.num_frequencies as usize;
        let prefix = (1usize << super_epoch.min(30)).min(f);
        (0..f)
            .map(|i| {
                let uniform_part = 0.5 / f as f64;
                let prefix_part = if i < prefix { 0.5 / prefix as f64 } else { 0.0 };
                uniform_part + prefix_part
            })
            .collect()
    }

    /// The per-frequency selection distribution of a *special* round
    /// (Figure 2, right column): pick `d` uniformly from `[1..lg F]`, then a
    /// frequency uniformly from `[1..min(2^d, F)]`. Returned as a vector
    /// indexed by 0-based frequency; sums to 1.
    pub fn special_frequency_distribution(&self) -> Vec<f64> {
        let f = self.num_frequencies as usize;
        let lg_f = self.lg_f().max(1);
        let mut dist = vec![0.0; f];
        for d in 1..=lg_f {
            let limit = (1usize << d.min(30)).min(f);
            for slot in dist.iter_mut().take(limit) {
                *slot += 1.0 / (f64::from(lg_f) * limit as f64);
            }
        }
        dist
    }

    /// The per-frequency selection distribution of the last two epochs of
    /// super-epoch `k` (Figure 2): with probability 1/2 a regular prefix
    /// choice from `[1..2^k]`, with probability 1/2 a special choice.
    pub fn last_epochs_frequency_distribution(&self, super_epoch: u32) -> Vec<f64> {
        let f = self.num_frequencies as usize;
        let prefix = (1usize << super_epoch.min(30)).min(f);
        let special = self.special_frequency_distribution();
        (0..f)
            .map(|i| {
                let prefix_part = if i < prefix { 0.5 / prefix as f64 } else { 0.0 };
                prefix_part + 0.5 * special[i]
            })
            .collect()
    }

    /// The optimistic bound of Theorem 18, `t′·log³N`, without constants.
    pub fn theorem18_optimistic_bound(&self, t_actual: u32) -> f64 {
        let lg_n = f64::from(self.lg_n());
        f64::from(t_actual.max(1)) * lg_n * lg_n * lg_n
    }

    /// The fallback bound of Theorem 18, `F·log³N`, without constants.
    pub fn theorem18_fallback_bound(&self) -> f64 {
        let lg_n = f64::from(self.lg_n());
        f64::from(self.num_frequencies) * lg_n * lg_n * lg_n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config() -> GoodSamaritanConfig {
        GoodSamaritanConfig::new(64, 16, 4)
    }

    #[test]
    fn basic_derived_quantities() {
        let c = config();
        assert_eq!(c.lg_n(), 6);
        assert_eq!(c.lg_f(), 4);
        assert_eq!(c.epochs_per_super_epoch(), 8);
        assert_eq!(c.f_prime(), 8);
        assert_eq!(c.fallback_epochs(), 6);
    }

    #[test]
    fn epoch_lengths_double_per_super_epoch() {
        let c = config();
        for k in 1..c.lg_f() {
            let ratio = c.epoch_length(k + 1) as f64 / c.epoch_length(k) as f64;
            assert!((ratio - 2.0).abs() < 0.05, "ratio was {ratio}");
        }
    }

    #[test]
    fn totals_are_consistent() {
        let c = config();
        let sum: u64 = (1..=c.lg_f()).map(|k| c.super_epoch_length(k)).sum();
        assert_eq!(sum, c.optimistic_total());
        assert_eq!(c.fallback_start(), c.optimistic_total());
        assert_eq!(
            c.fallback_total(),
            u64::from(c.fallback_epochs()) * c.fallback_epoch_length()
        );
    }

    #[test]
    fn fallback_epoch_at_least_four_times_longest_optimistic_epoch() {
        let c = config();
        let longest = c.epoch_length(c.lg_f());
        assert!(c.fallback_epoch_length() >= 4 * longest);
    }

    #[test]
    fn broadcast_probability_matches_figure_two() {
        let c = config();
        assert!((c.broadcast_probability(1) - 1.0 / 64.0).abs() < 1e-12);
        assert!((c.broadcast_probability(c.lg_n()) - 0.5).abs() < 1e-12);
        assert_eq!(c.broadcast_probability(c.lg_n() + 1), 0.5);
        assert_eq!(c.broadcast_probability(c.lg_n() + 2), 0.5);
    }

    #[test]
    fn phase_at_walks_through_schedule() {
        let c = config();
        // first round of execution
        assert_eq!(
            c.phase_at(0),
            Phase::Optimistic {
                super_epoch: 1,
                epoch: 1,
                round_in_epoch: 0
            }
        );
        // last round of super-epoch 1
        let se1 = c.super_epoch_length(1);
        assert!(matches!(
            c.phase_at(se1 - 1),
            Phase::Optimistic { super_epoch: 1, epoch, .. } if epoch == c.epochs_per_super_epoch()
        ));
        // first round of super-epoch 2
        assert_eq!(
            c.phase_at(se1),
            Phase::Optimistic {
                super_epoch: 2,
                epoch: 1,
                round_in_epoch: 0
            }
        );
        // first fallback round
        assert_eq!(
            c.phase_at(c.optimistic_total()),
            Phase::Fallback {
                epoch: 1,
                round_in_epoch: 0
            }
        );
        // past everything
        assert_eq!(
            c.phase_at(c.optimistic_total() + c.fallback_total()),
            Phase::Exhausted
        );
    }

    #[test]
    fn success_threshold_positive_and_scaled() {
        let c = config();
        for k in 1..=c.lg_f() {
            let th = c.success_threshold(k);
            assert!(th >= 1);
            // threshold should not exceed the epoch length
            assert!(th <= c.epoch_length(k));
        }
        // the threshold is (approximately) independent of k because both the
        // epoch length and the divisor scale with 2^k
        assert!((c.success_threshold(1) as i64 - c.success_threshold(c.lg_f()) as i64).abs() <= 1);
    }

    #[test]
    fn distributions_sum_to_one() {
        let c = config();
        for k in 1..=c.lg_f() {
            let reg: f64 = c.regular_frequency_distribution(k).iter().sum();
            assert!((reg - 1.0).abs() < 1e-9, "regular k={k} sums to {reg}");
            let last: f64 = c.last_epochs_frequency_distribution(k).iter().sum();
            assert!((last - 1.0).abs() < 1e-9, "last k={k} sums to {last}");
        }
        let special: f64 = c.special_frequency_distribution().iter().sum();
        assert!((special - 1.0).abs() < 1e-9);
    }

    #[test]
    fn special_distribution_biases_low_frequencies() {
        let c = config();
        let special = c.special_frequency_distribution();
        assert!(special[0] > special[c.num_frequencies as usize - 1]);
        assert!(special[0] > 1.0 / c.num_frequencies as f64);
    }

    #[test]
    fn regular_distribution_matches_figure_formula() {
        let c = config();
        let k = 2;
        let dist = c.regular_frequency_distribution(k);
        let f = c.num_frequencies as f64;
        // f ≤ 2^k: 1/2^{k+1} + 1/(2F)
        assert!((dist[0] - (1.0 / 8.0 + 1.0 / (2.0 * f))).abs() < 1e-12);
        // f > 2^k: 1/(2F)
        assert!((dist[10] - 1.0 / (2.0 * f)).abs() < 1e-12);
    }

    #[test]
    fn theorem18_bounds_shape() {
        let c = config();
        assert!(c.theorem18_optimistic_bound(2) < c.theorem18_optimistic_bound(8));
        assert!(c.theorem18_fallback_bound() >= c.theorem18_optimistic_bound(c.disruption_bound));
    }

    #[test]
    fn f_equal_one_has_no_super_epochs() {
        let c = GoodSamaritanConfig::new(16, 1, 0);
        assert_eq!(c.lg_f(), 0);
        assert_eq!(c.optimistic_total(), 0);
        assert!(matches!(
            c.phase_at(0),
            Phase::Fallback {
                epoch: 1,
                round_in_epoch: 0
            }
        ));
    }

    proptest! {
        #[test]
        fn phase_at_is_total_and_monotone(
            n in 2u64..2000, f in 2u32..64, t in 0u32..31, r in 0u64..100_000
        ) {
            prop_assume!(t < f);
            let c = GoodSamaritanConfig::new(n, f, t);
            // must not panic for any round
            let _ = c.phase_at(r);
            // fallback start is exactly the end of the optimistic portion
            let at_start = c.phase_at(c.fallback_start());
            let ok = matches!(
                at_start,
                Phase::Fallback { epoch: 1, round_in_epoch: 0 } | Phase::Exhausted
            );
            prop_assert!(ok, "unexpected phase at fallback start: {:?}", at_start);
        }

        #[test]
        fn epoch_length_monotone_in_k(n in 2u64..2000, k in 1u32..6) {
            let c = GoodSamaritanConfig::new(n, 64, 16);
            prop_assert!(c.epoch_length(k + 1) >= c.epoch_length(k));
        }
    }
}
