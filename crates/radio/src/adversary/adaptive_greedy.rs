//! An adaptive jammer that targets the historically busiest frequencies.

use super::{top_k_weights, Adversary, DisruptionSet};
use crate::frequency::FrequencyBand;
use crate::history::History;
use crate::rng::SimRng;

/// What the greedy adversary tries to maximise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GreedyTarget {
    /// Jam the frequencies with the most listeners in the recent past
    /// (maximises prevented receptions).
    Listeners,
    /// Jam the frequencies with the most broadcasters in the recent past
    /// (targets active transmitters).
    Broadcasters,
    /// Jam the frequencies with the most combined activity.
    Activity,
}

/// An adaptive adversary allowed by the model: it chooses its round-`r`
/// targets from the execution through round `r − 1`, jamming the `t`
/// frequencies that were busiest over a sliding lookback window.
///
/// This is the strongest *history-based* jammer in the suite and is used to
/// stress-test the protocols beyond the specific adversaries appearing in
/// the paper's proofs. It queries the history every round, so it holds
/// reusable count/weight buffers and goes through the buffer-reusing
/// [`History::listener_counts_into`] /
/// [`History::broadcaster_counts_into`] accessors — no per-round
/// allocation beyond the returned [`DisruptionSet`].
#[derive(Debug, Clone)]
pub struct AdaptiveGreedyAdversary {
    t: u32,
    lookback: usize,
    target: GreedyTarget,
    /// Reusable per-frequency count buffer (listeners, or broadcasters for
    /// the broadcaster target). Scratch is per-run state, not
    /// configuration, so the `PartialEq` below ignores it.
    counts: Vec<u64>,
    /// Second count buffer for the combined-activity target.
    counts_b: Vec<u64>,
    /// Reusable weight buffer fed to the top-`k` selection.
    weights: Vec<f64>,
}

/// Equality is over the adversary's *configuration* (budget, lookback,
/// target) — the reusable scratch buffers are incidental state.
impl PartialEq for AdaptiveGreedyAdversary {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.lookback == other.lookback && self.target == other.target
    }
}

impl Eq for AdaptiveGreedyAdversary {}

impl AdaptiveGreedyAdversary {
    /// Creates a greedy adversary with budget `t`, a default lookback of 8
    /// rounds, targeting listeners.
    pub fn new(t: u32) -> Self {
        AdaptiveGreedyAdversary {
            t,
            lookback: 8,
            target: GreedyTarget::Listeners,
            counts: Vec::new(),
            counts_b: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Sets the lookback window (in rounds).
    pub fn with_lookback(mut self, lookback: usize) -> Self {
        self.lookback = lookback.max(1);
        self
    }

    /// Sets what the adversary maximises.
    pub fn with_target(mut self, target: GreedyTarget) -> Self {
        self.target = target;
        self
    }
}

impl Adversary for AdaptiveGreedyAdversary {
    fn budget(&self) -> u32 {
        self.t
    }

    fn max_lookback(&self) -> Option<usize> {
        Some(self.lookback)
    }

    fn disrupt(
        &mut self,
        _round: u64,
        band: FrequencyBand,
        history: &History,
        rng: &mut SimRng,
    ) -> DisruptionSet {
        let k = (self.t as usize).min(band.count() as usize);
        if k == 0 {
            return DisruptionSet::empty(band.count());
        }
        if history.is_empty() {
            // No information yet: fall back to a random choice.
            return super::RandomAdversary::new(self.t).disrupt(0, band, history, rng);
        }
        self.weights.clear();
        match self.target {
            GreedyTarget::Listeners => {
                history.listener_counts_into(band, self.lookback, &mut self.counts);
                self.weights.extend(self.counts.iter().map(|&c| c as f64));
            }
            GreedyTarget::Broadcasters => {
                history.broadcaster_counts_into(band, self.lookback, &mut self.counts);
                self.weights.extend(self.counts.iter().map(|&c| c as f64));
            }
            GreedyTarget::Activity => {
                history.listener_counts_into(band, self.lookback, &mut self.counts);
                history.broadcaster_counts_into(band, self.lookback, &mut self.counts_b);
                self.weights.extend(
                    self.counts
                        .iter()
                        .zip(&self.counts_b)
                        .map(|(&x, &y)| (x + y) as f64),
                );
            }
        }
        top_k_weights(&self.weights, k, band.count())
    }

    fn name(&self) -> &'static str {
        "adaptive-greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequency::Frequency;
    use crate::history::{FrequencyActivity, RoundRecord};

    fn record_with_listeners(round: u64, listeners: &[u32]) -> RoundRecord {
        RoundRecord {
            round,
            activity: listeners
                .iter()
                .map(|&l| FrequencyActivity {
                    broadcasters: 0,
                    listeners: l,
                    disrupted: false,
                    delivered: false,
                })
                .collect(),
            active_nodes: listeners.iter().sum(),
            newly_activated: 0,
        }
    }

    #[test]
    fn targets_busiest_listener_frequencies() {
        let band = FrequencyBand::new(4);
        let mut hist = History::new();
        hist.push(record_with_listeners(0, &[1, 9, 2, 5]));
        let mut adv = AdaptiveGreedyAdversary::new(2);
        let set = adv.disrupt(1, band, &hist, &mut SimRng::from_seed(0));
        assert!(set.contains(Frequency::new(2)));
        assert!(set.contains(Frequency::new(4)));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn empty_history_falls_back_to_random_with_budget() {
        let band = FrequencyBand::new(6);
        let mut adv = AdaptiveGreedyAdversary::new(3);
        let set = adv.disrupt(0, band, &History::new(), &mut SimRng::from_seed(1));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn broadcaster_target_uses_broadcaster_counts() {
        let band = FrequencyBand::new(3);
        let mut hist = History::new();
        hist.push(RoundRecord {
            round: 0,
            activity: vec![
                FrequencyActivity {
                    broadcasters: 5,
                    listeners: 0,
                    disrupted: false,
                    delivered: false,
                },
                FrequencyActivity {
                    broadcasters: 0,
                    listeners: 9,
                    disrupted: false,
                    delivered: false,
                },
                FrequencyActivity {
                    broadcasters: 1,
                    listeners: 0,
                    disrupted: false,
                    delivered: false,
                },
            ],
            active_nodes: 15,
            newly_activated: 0,
        });
        let mut adv = AdaptiveGreedyAdversary::new(1).with_target(GreedyTarget::Broadcasters);
        let set = adv.disrupt(1, band, &hist, &mut SimRng::from_seed(0));
        assert!(set.contains(Frequency::new(1)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn zero_budget_never_disrupts() {
        let band = FrequencyBand::new(3);
        let mut hist = History::new();
        hist.push(record_with_listeners(0, &[3, 3, 3]));
        let mut adv = AdaptiveGreedyAdversary::new(0);
        assert!(adv
            .disrupt(1, band, &hist, &mut SimRng::from_seed(0))
            .is_empty());
    }
}
