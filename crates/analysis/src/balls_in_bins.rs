//! The balls-in-bins process of Lemma 2.
//!
//! Lemma 2: throw `m ≥ 0` balls independently into `s + 1 ≥ 1` bins
//! according to a distribution `p₁ ≤ p₂ ≤ … ≤ p_{s+1}` with
//! `p_{s+1} ≥ 1/2`. Then the probability that *no* bin receives exactly one
//! ball is at least `2^{-s}`.
//!
//! In the lower-bound proof the first `s` bins are the frequencies with
//! "good" success probability in a round and the last bin is "do not
//! broadcast on any of them"; the lemma lower-bounds the probability that a
//! whole round passes without an uncontended broadcast. The "no bin receives
//! exactly one ball" event therefore concerns only the first `s` bins — the
//! last bin represents silence and a lone ball there is harmless (and with
//! `m = 1` the literal all-bins reading would make the lemma false); this
//! module implements that reading.
//!
//! This module provides an exact solver (dynamic programming over the bins,
//! exponential only in the number of *bins*, not balls) and a Monte-Carlo
//! estimator, plus the [`BallsInBins`] description type shared by both.

use rand::Rng;

use wsync_radio::rng::SimRng;

/// An instance of the Lemma 2 process.
#[derive(Debug, Clone, PartialEq)]
pub struct BallsInBins {
    /// Number of balls thrown (`m`).
    pub balls: usize,
    /// Bin probabilities (`s + 1` entries summing to 1). The Lemma requires
    /// them sorted ascending with the last at least 1/2; the constructors
    /// enforce normalization but only [`BallsInBins::satisfies_lemma2_preconditions`]
    /// checks the ordering requirement.
    pub probabilities: Vec<f64>,
}

impl BallsInBins {
    /// Creates an instance, normalizing the probabilities to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if `probabilities` is empty or sums to 0.
    pub fn new(balls: usize, probabilities: Vec<f64>) -> Self {
        assert!(
            !probabilities.is_empty(),
            "BallsInBins requires at least one bin"
        );
        let sum: f64 = probabilities.iter().sum();
        assert!(sum > 0.0, "bin probabilities must not all be zero");
        BallsInBins {
            balls,
            probabilities: probabilities.into_iter().map(|p| p / sum).collect(),
        }
    }

    /// The canonical worst-case-style instance used in the lower bound: `s`
    /// equal "good frequency" bins sharing probability mass `q ≤ 1/2` and a
    /// final "no broadcast" bin with mass `1 − q ≥ 1/2`.
    pub fn uniform_good_bins(balls: usize, s: usize, total_good_mass: f64) -> Self {
        let q = total_good_mass.clamp(0.0, 0.5);
        let mut probabilities = vec![if s == 0 { 0.0 } else { q / s as f64 }; s];
        probabilities.push(1.0 - q);
        BallsInBins::new(balls, probabilities)
    }

    /// Number of bins excluding the final "silent" bin (`s`).
    pub fn s(&self) -> usize {
        self.probabilities.len() - 1
    }

    /// Whether the instance satisfies the Lemma 2 preconditions:
    /// probabilities sorted ascending and the last one at least 1/2.
    pub fn satisfies_lemma2_preconditions(&self) -> bool {
        self.probabilities.windows(2).all(|w| w[0] <= w[1] + 1e-12)
            && *self.probabilities.last().unwrap() >= 0.5 - 1e-12
    }

    /// The Lemma 2 lower bound `2^{-s}`.
    pub fn lemma2_lower_bound(&self) -> f64 {
        2f64.powi(-(self.s() as i32))
    }
}

/// Exact probability that no bin receives exactly one ball, computed by
/// dynamic programming over bins. The state is the number of balls still to
/// be distributed; for each bin we sum over how many balls it receives
/// (skipping exactly one), using binomial coefficients. Complexity is
/// `O(bins · m²)`.
pub fn no_singleton_probability_exact(instance: &BallsInBins) -> f64 {
    let m = instance.balls;
    let probs = &instance.probabilities;
    // remaining[j] = probability that, after processing some prefix of bins,
    // exactly j balls have been placed in those bins AND no processed bin got
    // exactly one ball — conditioned on nothing, using multinomial structure:
    // we process bins left to right; ball assignments to bins are exchangeable
    // so we can think of choosing how many balls go to each bin with the
    // appropriate multinomial weight, expressed via conditional binomials.
    //
    // Let q_i = p_i / (p_i + p_{i+1} + … + p_last) be the conditional
    // probability a ball lands in bin i given it did not land in an earlier
    // bin. Then the count in bin i, conditioned on j balls remaining, is
    // Binomial(j, q_i).
    let mut suffix: Vec<f64> = vec![0.0; probs.len() + 1];
    for i in (0..probs.len()).rev() {
        suffix[i] = suffix[i + 1] + probs[i];
    }
    // dp[j] = probability that j balls remain for the unprocessed bins and no
    // processed bin has exactly one ball.
    let mut dp = vec![0.0f64; m + 1];
    dp[m] = 1.0;
    for i in 0..probs.len() {
        let total = suffix[i];
        if total <= 0.0 {
            continue;
        }
        let q = (probs[i] / total).clamp(0.0, 1.0);
        let is_last = i == probs.len() - 1;
        let mut next = vec![0.0f64; m + 1];
        for j in 0..=m {
            if dp[j] == 0.0 {
                continue;
            }
            if is_last {
                // All remaining balls land in the silent bin; a lone ball
                // there does not count as a singleton (see module docs).
                next[0] += dp[j];
                continue;
            }
            // k balls land in bin i (k != 1), Binomial(j, q)
            for k in 0..=j {
                if k == 1 {
                    continue;
                }
                let w = binomial_pmf(j, k, q);
                if w > 0.0 {
                    next[j - k] += dp[j] * w;
                }
            }
        }
        dp = next;
    }
    dp.iter().sum()
}

/// Monte-Carlo estimate of the probability that no bin receives exactly one
/// ball, using `trials` independent simulations of the process.
pub fn no_singleton_probability_mc(instance: &BallsInBins, trials: usize, seed: u64) -> f64 {
    let mut rng = SimRng::from_seed(seed);
    let cumulative: Vec<f64> = instance
        .probabilities
        .iter()
        .scan(0.0, |acc, p| {
            *acc += p;
            Some(*acc)
        })
        .collect();
    let mut successes = 0usize;
    let mut counts = vec![0u32; instance.probabilities.len()];
    for _ in 0..trials.max(1) {
        counts.iter_mut().for_each(|c| *c = 0);
        for _ in 0..instance.balls {
            let u: f64 = rng.gen();
            let bin = cumulative
                .iter()
                .position(|&c| u <= c)
                .unwrap_or(instance.probabilities.len() - 1);
            counts[bin] += 1;
        }
        let s = instance.probabilities.len() - 1;
        if counts[..s].iter().all(|&c| c != 1) {
            successes += 1;
        }
    }
    successes as f64 / trials.max(1) as f64
}

/// Binomial probability mass function `P[Bin(n, p) = k]`, computed in log
/// space for numerical stability.
fn binomial_pmf(n: usize, k: usize, p: f64) -> f64 {
    if k > n {
        return 0.0;
    }
    if p <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln = ln_choose(n, k) + (k as f64) * p.ln() + ((n - k) as f64) * (1.0 - p).ln();
    ln.exp()
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
fn ln_choose(n: usize, k: usize) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    let k = k.min(n - k);
    let mut acc = 0.0;
    for i in 0..k {
        acc += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_normalizes() {
        let b = BallsInBins::new(4, vec![2.0, 2.0, 4.0]);
        let sum: f64 = b.probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(b.s(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn empty_bins_panic() {
        BallsInBins::new(1, vec![]);
    }

    #[test]
    fn uniform_good_bins_satisfies_preconditions() {
        let b = BallsInBins::uniform_good_bins(16, 4, 0.4);
        assert!(b.satisfies_lemma2_preconditions());
        assert_eq!(b.s(), 4);
        assert!((b.probabilities.last().unwrap() - 0.6).abs() < 1e-12);
        assert!((b.lemma2_lower_bound() - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn exact_zero_balls_is_one() {
        let b = BallsInBins::uniform_good_bins(0, 3, 0.3);
        assert!((no_singleton_probability_exact(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_single_bin_instance_is_trivially_one() {
        // s = 0: there are no "good frequency" bins, so the no-singleton
        // event is vacuous and the Lemma 2 bound 2⁰ = 1 is met with equality.
        let b = BallsInBins::new(1, vec![1.0]);
        assert!((no_singleton_probability_exact(&b) - 1.0).abs() < 1e-12);
        assert_eq!(b.lemma2_lower_bound(), 1.0);
    }

    #[test]
    fn exact_matches_hand_computation_two_balls_two_bins() {
        // Two balls, bins with p = (1/2, 1/2); only the first bin counts.
        // No singleton in bin 1 iff both balls land in the same bin:
        // probability 1/2.
        let b = BallsInBins::new(2, vec![0.5, 0.5]);
        assert!((no_singleton_probability_exact(&b) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn exact_matches_hand_computation_one_ball_two_bins() {
        // One ball, bins (0.3, 0.7): no singleton in bin 1 iff the ball goes
        // to the silent bin: probability 0.7 ≥ 2^{-1}.
        let b = BallsInBins::new(1, vec![0.3, 0.7]);
        assert!((no_singleton_probability_exact(&b) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn exact_matches_monte_carlo() {
        let b = BallsInBins::uniform_good_bins(12, 3, 0.45);
        let exact = no_singleton_probability_exact(&b);
        let mc = no_singleton_probability_mc(&b, 40_000, 7);
        assert!(
            (exact - mc).abs() < 0.02,
            "exact {exact} and Monte-Carlo {mc} estimates should agree"
        );
    }

    #[test]
    fn lemma2_bound_holds_on_canonical_instances() {
        // Lemma 2: for instances satisfying the preconditions, the
        // no-singleton probability is at least 2^{-s}.
        for s in 1..=6usize {
            for &m in &[2usize, 4, 16, 64, 256] {
                for &mass in &[0.1, 0.3, 0.5] {
                    let b = BallsInBins::uniform_good_bins(m, s, mass);
                    assert!(b.satisfies_lemma2_preconditions());
                    let p = no_singleton_probability_exact(&b);
                    assert!(
                        p >= b.lemma2_lower_bound() * 0.999,
                        "Lemma 2 violated: s={s} m={m} mass={mass}: {p} < {}",
                        b.lemma2_lower_bound()
                    );
                }
            }
        }
    }

    #[test]
    fn binomial_pmf_edge_cases() {
        assert_eq!(binomial_pmf(5, 6, 0.5), 0.0);
        assert_eq!(binomial_pmf(5, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(5, 5, 1.0), 1.0);
        assert!((binomial_pmf(4, 2, 0.5) - 0.375).abs() < 1e-12);
        let total: f64 = (0..=10).map(|k| binomial_pmf(10, k, 0.3)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn lemma2_bound_holds_for_sorted_instances(
            s in 1usize..5,
            m in 0usize..64,
            mass in 0.05f64..0.5,
            seed in 0u64..100,
        ) {
            let _ = seed;
            let b = BallsInBins::uniform_good_bins(m, s, mass);
            let p = no_singleton_probability_exact(&b);
            prop_assert!(p >= b.lemma2_lower_bound() * 0.999);
            prop_assert!(p <= 1.0 + 1e-9);
        }

        #[test]
        fn exact_probability_is_a_probability(
            m in 0usize..40,
            weights in proptest::collection::vec(0.01f64..1.0, 1..6),
        ) {
            let b = BallsInBins::new(m, weights);
            let p = no_singleton_probability_exact(&b);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
        }
    }
}
