//! Aggregate execution metrics collected by the engine.

use crate::probe::Probe;
use crate::trace::RoundObservation;

/// Cheap aggregate counters collected during every execution, regardless of
/// the trace level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// Number of rounds executed.
    pub rounds: u64,
    /// Total number of broadcast actions.
    pub broadcasts: u64,
    /// Total number of listen actions.
    pub listens: u64,
    /// Total number of sleep actions.
    pub sleeps: u64,
    /// Number of (frequency, round) pairs on which a message was delivered
    /// (exactly one broadcaster, not disrupted).
    pub deliveries: u64,
    /// Total number of successful receptions (listener count on delivering
    /// frequencies).
    pub receptions: u64,
    /// Number of (frequency, round) pairs with two or more broadcasters.
    pub collisions: u64,
    /// Number of (frequency, round) pairs where a solitary broadcast was
    /// suppressed by disruption.
    pub jammed_solo_broadcasts: u64,
    /// Sum over rounds of the number of disrupted frequencies.
    pub disrupted_frequency_rounds: u64,
    /// Largest number of simultaneously active nodes observed.
    pub max_active_nodes: u32,
    /// Number of times the adversary returned more disrupted frequencies
    /// than the configured bound `t` and had its choice truncated.
    pub adversary_budget_violations: u64,
}

impl SimMetrics {
    /// Fraction of broadcast actions that resulted in a delivery
    /// (`deliveries / broadcasts`), or 0 if there were no broadcasts.
    pub fn delivery_rate(&self) -> f64 {
        if self.broadcasts == 0 {
            0.0
        } else {
            self.deliveries as f64 / self.broadcasts as f64
        }
    }

    /// Average number of disrupted frequencies per round, or 0 for an empty
    /// execution.
    pub fn mean_disruption(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.disrupted_frequency_rounds as f64 / self.rounds as f64
        }
    }
}

/// `SimMetrics` is a probe: each observed round's flat
/// [`RoundTally`](crate::trace::RoundTally) folds into the aggregate
/// counters in O(1), with no rescan of the per-node or per-frequency
/// slices. The engine composes one ahead of the user stack; an
/// independently attached `SimMetrics` probe accumulates the identical
/// aggregates (pinned by the probe-pipeline tests).
impl Probe for SimMetrics {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        let tally = observation.tally;
        self.rounds = observation.round + 1;
        self.broadcasts += u64::from(tally.broadcasts);
        self.listens += u64::from(tally.listens);
        self.sleeps += u64::from(tally.sleeps);
        self.deliveries += u64::from(tally.deliveries);
        self.receptions += u64::from(tally.receptions);
        self.collisions += u64::from(tally.collisions);
        self.jammed_solo_broadcasts += u64::from(tally.jammed_solo_broadcasts);
        self.disrupted_frequency_rounds += u64::from(tally.disrupted_frequencies);
        self.max_active_nodes = self.max_active_nodes.max(tally.active_nodes);
        self.adversary_budget_violations += u64::from(tally.adversary_clamped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let m = SimMetrics::default();
        assert_eq!(m.delivery_rate(), 0.0);
        assert_eq!(m.mean_disruption(), 0.0);
    }

    #[test]
    fn rates_compute_expected_values() {
        let m = SimMetrics {
            rounds: 10,
            broadcasts: 20,
            deliveries: 5,
            disrupted_frequency_rounds: 30,
            ..SimMetrics::default()
        };
        assert!((m.delivery_rate() - 0.25).abs() < 1e-12);
        assert!((m.mean_disruption() - 3.0).abs() < 1e-12);
    }
}
