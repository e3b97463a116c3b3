//! The Theorem 4 two-node rendezvous game.
//!
//! Theorem 4 lower-bounds synchronization time by analyzing two nodes that
//! must "meet": before either can produce a round number, there must be a
//! round in which one broadcasts and the other listens on the same
//! undisrupted frequency. The adversary knows both nodes' per-round
//! frequency distributions `p` and `q` (they are determined by the protocol
//! and the public history) and disrupts the `t` frequencies with the largest
//! products `p_j·q_j`; the proof shows that the per-round meeting
//! probability is then at most `c·(F−t)/(F·t)`, giving the
//! `Ω(F·t/(F−t)·log(1/ε))` bound.
//!
//! [`RendezvousGame`] simulates this game for several natural node
//! strategies and reports the number of rounds until the first meeting,
//! which experiment LB2 compares against the bound.

use rand::Rng;

use wsync_radio::rng::SimRng;

use crate::formulas::Bounds;

/// How the two nodes pick frequencies each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RendezvousStrategy {
    /// Uniform over the whole band `[1..F]` — what both of the paper's
    /// protocols do (over `F′`) before any message is received.
    UniformAll,
    /// Uniform over the prefix `[1..min(2t, F)]` — the `F′` restriction of
    /// the Trapdoor Protocol.
    UniformPrefix,
    /// A geometric distribution truncated to the band (frequency `j` with
    /// probability proportional to `2^{-j}`): a deliberately skewed strategy
    /// that the product adversary punishes severely, illustrating why
    /// near-uniform strategies are necessary.
    Geometric,
}

impl RendezvousStrategy {
    /// The per-frequency selection distribution (length `F`, sums to 1).
    pub fn distribution(&self, num_frequencies: u32, disruption_bound: u32) -> Vec<f64> {
        let f = num_frequencies.max(1) as usize;
        match self {
            RendezvousStrategy::UniformAll => vec![1.0 / f as f64; f],
            RendezvousStrategy::UniformPrefix => {
                let prefix = ((2 * disruption_bound).max(1) as usize).min(f);
                let mut d = vec![0.0; f];
                for slot in d.iter_mut().take(prefix) {
                    *slot = 1.0 / prefix as f64;
                }
                d
            }
            RendezvousStrategy::Geometric => {
                let mut d: Vec<f64> = (0..f).map(|j| 0.5f64.powi(j as i32 + 1)).collect();
                let sum: f64 = d.iter().sum();
                d.iter_mut().for_each(|x| *x /= sum);
                d
            }
        }
    }

    /// A short name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            RendezvousStrategy::UniformAll => "uniform-all",
            RendezvousStrategy::UniformPrefix => "uniform-prefix",
            RendezvousStrategy::Geometric => "geometric",
        }
    }
}

/// The two-node rendezvous game against the pq-product adversary.
#[derive(Debug, Clone, PartialEq)]
pub struct RendezvousGame {
    /// Number of frequencies `F`.
    pub num_frequencies: u32,
    /// Adversary budget `t < F`.
    pub disruption_bound: u32,
    /// Strategy of the first node.
    pub strategy_u: RendezvousStrategy,
    /// Strategy of the second node.
    pub strategy_v: RendezvousStrategy,
    /// Probability with which each node broadcasts (vs listens) each round;
    /// the meeting requires exactly one broadcaster, so 1/2 is optimal.
    pub broadcast_probability: f64,
}

impl RendezvousGame {
    /// Creates a game where both nodes play `strategy` and broadcast with
    /// probability 1/2.
    pub fn symmetric(
        num_frequencies: u32,
        disruption_bound: u32,
        strategy: RendezvousStrategy,
    ) -> Self {
        RendezvousGame {
            num_frequencies,
            disruption_bound,
            strategy_u: strategy,
            strategy_v: strategy,
            broadcast_probability: 0.5,
        }
    }

    /// The per-round meeting probability when the adversary disrupts the `t`
    /// frequencies with the largest `p_j·q_j` products:
    /// `2·b·(1−b) · Σ_{j ∉ top-t} p_j·q_j`.
    pub fn per_round_meeting_probability(&self) -> f64 {
        let p = self
            .strategy_u
            .distribution(self.num_frequencies, self.disruption_bound);
        let q = self
            .strategy_v
            .distribution(self.num_frequencies, self.disruption_bound);
        let mut products: Vec<f64> = p.iter().zip(&q).map(|(a, b)| a * b).collect();
        products.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let undisrupted: f64 = products.iter().skip(self.disruption_bound as usize).sum();
        let b = self.broadcast_probability;
        2.0 * b * (1.0 - b) * undisrupted
    }

    /// The expected number of rounds until the first meeting (geometric with
    /// the per-round meeting probability).
    pub fn expected_rounds(&self) -> f64 {
        let p = self.per_round_meeting_probability();
        if p <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / p
        }
    }

    /// The Theorem 4 lower-bound expression `F·t/(F−t)·log(1/ε)` for this
    /// instance.
    pub fn theorem4_bound(&self, epsilon: f64) -> f64 {
        Bounds::new(2, self.num_frequencies, self.disruption_bound).theorem4(epsilon)
    }

    /// Simulates the game once and returns the number of rounds until the
    /// two nodes meet (capped at `max_rounds`; returns `None` if they never
    /// meet within the cap).
    pub fn simulate(&self, max_rounds: u64, seed: u64) -> Option<u64> {
        let mut rng = SimRng::from_seed(seed);
        let p = self
            .strategy_u
            .distribution(self.num_frequencies, self.disruption_bound);
        let q = self
            .strategy_v
            .distribution(self.num_frequencies, self.disruption_bound);
        // The adversary's choice is the same every round because the
        // strategies are memoryless: block the top-t products.
        let mut order: Vec<usize> = (0..p.len()).collect();
        order.sort_by(|&a, &b| (p[b] * q[b]).partial_cmp(&(p[a] * q[a])).unwrap());
        let mut disrupted = vec![false; p.len()];
        for &i in order.iter().take(self.disruption_bound as usize) {
            disrupted[i] = true;
        }
        let cum_p = cumulative(&p);
        let cum_q = cumulative(&q);
        for round in 0..max_rounds {
            let fu = sample_from(&cum_p, &mut rng);
            let fv = sample_from(&cum_q, &mut rng);
            if fu != fv || disrupted[fu] {
                continue;
            }
            let u_broadcasts = rng.gen_bool(self.broadcast_probability);
            let v_broadcasts = rng.gen_bool(self.broadcast_probability);
            if u_broadcasts != v_broadcasts {
                return Some(round + 1);
            }
        }
        None
    }

    /// Simulates `trials` independent games and returns the mean number of
    /// rounds to meet over the trials that met within `max_rounds`.
    pub fn mean_rounds(&self, trials: usize, max_rounds: u64, seed: u64) -> f64 {
        let mut total = 0u64;
        let mut met = 0usize;
        for i in 0..trials {
            if let Some(r) = self.simulate(max_rounds, seed.wrapping_add(i as u64)) {
                total += r;
                met += 1;
            }
        }
        if met == 0 {
            f64::INFINITY
        } else {
            total as f64 / met as f64
        }
    }
}

fn cumulative(dist: &[f64]) -> Vec<f64> {
    dist.iter()
        .scan(0.0, |acc, p| {
            *acc += p;
            Some(*acc)
        })
        .collect()
}

fn sample_from(cumulative: &[f64], rng: &mut SimRng) -> usize {
    let u: f64 = rng.gen();
    cumulative
        .iter()
        .position(|&c| u <= c)
        .unwrap_or(cumulative.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distributions_sum_to_one() {
        for strategy in [
            RendezvousStrategy::UniformAll,
            RendezvousStrategy::UniformPrefix,
            RendezvousStrategy::Geometric,
        ] {
            let d = strategy.distribution(16, 4);
            let sum: f64 = d.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", strategy.name());
        }
    }

    #[test]
    fn uniform_prefix_restricts_support() {
        let d = RendezvousStrategy::UniformPrefix.distribution(16, 3);
        assert!(d[..6].iter().all(|&p| p > 0.0));
        assert!(d[6..].iter().all(|&p| p == 0.0));
    }

    #[test]
    fn uniform_meeting_probability_matches_closed_form() {
        // Uniform over F with t blocked: Σ undisrupted pq = (F−t)/F²;
        // meeting prob = 2·(1/2)(1/2)·(F−t)/F² = (F−t)/(2F²).
        let g = RendezvousGame::symmetric(16, 4, RendezvousStrategy::UniformAll);
        let expected = 12.0 / (2.0 * 256.0);
        assert!((g.per_round_meeting_probability() - expected).abs() < 1e-12);
        assert!((g.expected_rounds() - 1.0 / expected).abs() < 1e-9);
    }

    #[test]
    fn geometric_strategy_is_much_worse() {
        let uniform = RendezvousGame::symmetric(16, 4, RendezvousStrategy::UniformAll);
        let skewed = RendezvousGame::symmetric(16, 4, RendezvousStrategy::Geometric);
        assert!(
            skewed.expected_rounds() > 5.0 * uniform.expected_rounds(),
            "the product adversary should punish skewed strategies"
        );
    }

    #[test]
    fn blocking_everything_gives_infinite_expectation() {
        // Geometric strategy concentrated on the low band, adversary blocks
        // enough of it that the tail mass is essentially zero — expectation
        // should be enormous (but finite because of the truncated tail).
        let g = RendezvousGame::symmetric(4, 3, RendezvousStrategy::UniformPrefix);
        // prefix = min(2·3, 4) = 4, so 1 undisrupted of 4: finite
        assert!(g.expected_rounds().is_finite());
        // A prefix strategy with everything it uses blocked:
        let g2 = RendezvousGame {
            num_frequencies: 8,
            disruption_bound: 2,
            strategy_u: RendezvousStrategy::UniformPrefix,
            strategy_v: RendezvousStrategy::UniformPrefix,
            broadcast_probability: 0.5,
        };
        // prefix = 4 > t = 2: still finite
        assert!(g2.expected_rounds().is_finite());
    }

    #[test]
    fn simulation_agrees_with_expectation() {
        let g = RendezvousGame::symmetric(8, 2, RendezvousStrategy::UniformAll);
        let mean = g.mean_rounds(4000, 100_000, 11);
        let expected = g.expected_rounds();
        assert!(
            (mean - expected).abs() / expected < 0.15,
            "simulated {mean} vs expected {expected}"
        );
    }

    #[test]
    fn simulate_is_deterministic_per_seed() {
        let g = RendezvousGame::symmetric(8, 2, RendezvousStrategy::UniformAll);
        assert_eq!(g.simulate(10_000, 5), g.simulate(10_000, 5));
    }

    #[test]
    fn expected_rounds_scale_like_theorem4() {
        // As t → F, the expected meeting time should blow up at least as fast
        // as the Theorem 4 expression.
        let eps = 0.01;
        let mut prev_ratio = 0.0;
        for t in [2u32, 8, 14] {
            let g = RendezvousGame::symmetric(16, t, RendezvousStrategy::UniformAll);
            let ratio = g.expected_rounds() / g.theorem4_bound(eps).max(1.0);
            assert!(ratio.is_finite() && ratio > 0.0);
            // the ratio should not collapse as t grows (upper bound within a
            // constant of the lower bound shape)
            if prev_ratio > 0.0 {
                assert!(ratio > prev_ratio * 0.1);
            }
            prev_ratio = ratio;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn meeting_probability_valid_and_monotone_in_t(f in 2u32..64, t in 1u32..63) {
            prop_assume!(t < f);
            let low = RendezvousGame::symmetric(f, t - 1, RendezvousStrategy::UniformAll)
                .per_round_meeting_probability();
            let high = RendezvousGame::symmetric(f, t, RendezvousStrategy::UniformAll)
                .per_round_meeting_probability();
            prop_assert!((0.0..=1.0).contains(&high));
            prop_assert!(high <= low + 1e-12, "more jamming cannot help the nodes");
        }
    }
}
